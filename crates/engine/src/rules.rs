//! A library of named rules: every rule and rule pair appearing in the
//! paper's examples and figures, plus the workload rules used by the
//! experiment harness. Each constant is the paper's rule transliterated
//! into the parser syntax (lowercase predicate names).

use linrec_datalog::{parse_linear_rule, LinearRule};

/// Parse one of the constants below (infallible by construction).
fn rule(src: &str) -> LinearRule {
    parse_linear_rule(src).unwrap_or_else(|e| panic!("bad builtin rule {src:?}: {e}"))
}

/// Right-linear transitive closure over `q` (Example 5.2, first rule):
/// `P(x,y) :- P(x,z) ∧ Q(z,y)`.
pub fn tc_right() -> LinearRule {
    rule("p(x,y) :- p(x,z), q(z,y).")
}

/// Left-linear transitive closure over `q` (Example 5.2, second rule):
/// `P(x,y) :- P(w,y) ∧ Q(x,w)`.
pub fn tc_left() -> LinearRule {
    rule("p(x,y) :- p(w,y), q(x,w).")
}

/// The up/down pair (distinct EDB relations; the canonical separable /
/// commuting workload): expand the right column through `down`.
pub fn down_rule() -> LinearRule {
    rule("p(x,y) :- p(x,z), down(z,y).")
}

/// Expand the left column through `up`.
pub fn up_rule() -> LinearRule {
    rule("p(x,y) :- p(w,y), up(x,w).")
}

/// Example 5.1 / Figure 1 (reconstructed — the scanned original is
/// unreadable; classes match the paper's text: z free 1-persistent, w and y
/// link 1-persistent, u and v free 2-persistent, x general).
pub fn figure_1() -> LinearRule {
    rule("p(w,x,y,z,u,v) :- p(w,s0,y,z,v,u), q(w,x), q2(x,y), r(y).")
}

/// Example 5.1 / Figure 2: `P(u,w,x,y,z) :- P(u,u,u,y,y) ∧ Q(u,u,y) ∧ R(w)
/// ∧ S(x) ∧ T(z)`.
pub fn figure_2() -> LinearRule {
    rule("p(u,w,x,y,z) :- p(u,u,u,y,y), q(u,u,y), r(w), s(x), t(z).")
}

/// Example 5.3, first rule: `P(x,y,z) :- P(u,y,z) ∧ Q(x,y)`.
pub fn example_5_3_r1() -> LinearRule {
    rule("p(x,y,z) :- p(u,y,z), q(x,y).")
}

/// Example 5.3, second rule: `P(x,y,z) :- P(x,y,v) ∧ R(z,y)`.
pub fn example_5_3_r2() -> LinearRule {
    rule("p(x,y,z) :- p(x,y,v), r(z,y).")
}

/// Example 5.4, first rule: `P(x,y) :- P(y,w) ∧ Q(x)` — commutes with
/// [`example_5_4_r2`] although Theorem 5.1's condition fails.
pub fn example_5_4_r1() -> LinearRule {
    rule("p(x,y) :- p(y,w), q(x).")
}

/// Example 5.4, second rule: `P(x,y) :- P(u,v) ∧ Q(x) ∧ Q(y)`.
pub fn example_5_4_r2() -> LinearRule {
    rule("p(x,y) :- p(u,v), q(x), q(y).")
}

/// Example 6.1 / Figure 6: `buys(x,y) :- knows(x,z) ∧ buys(z,y) ∧ cheap(y)`
/// — `cheap` is recursively redundant.
pub fn shopping_rule() -> LinearRule {
    rule("buys(x,y) :- knows(x,z), buys(z,y), cheap(y).")
}

/// Example 6.2 / Figure 7: `P(w,x,y,z) :- P(x,w,x,u) ∧ Q(x,u) ∧ R(x,y) ∧
/// S(u,z)` — `R` is recursively redundant, `A² = BC²`.
pub fn example_6_2() -> LinearRule {
    rule("p(w,x,y,z) :- p(x,w,x,u), q(x,u), r(x,y), s(u,z).")
}

/// Example 6.3 / Figure 9: like Example 6.2 but with `Q(y,u)` — `BC² ≠ C²B`
/// yet `C²(BC²) = C²(C²B)`.
pub fn example_6_3() -> LinearRule {
    rule("p(w,x,y,z) :- p(x,w,x,u), q(y,u), r(x,y), s(u,z).")
}

/// The same-generation recursive rule (Section 5.2's side remark: the
/// product of the two transitive-closure forms): `sg(x,y) :- up(x,u) ∧
/// sg(u,v) ∧ down(v,y)`.
pub fn same_generation() -> LinearRule {
    rule("sg(x,y) :- up(x,u), sg(u,v), down(v,y).")
}

/// All paper rules, with labels (used by the `figures` example).
pub fn paper_rules() -> Vec<(&'static str, LinearRule)> {
    vec![
        ("figure-1 (Example 5.1)", figure_1()),
        ("figure-2 (Example 5.1)", figure_2()),
        ("figure-3a (Example 5.2, right TC)", tc_right()),
        ("figure-3b (Example 5.2, left TC)", tc_left()),
        ("figure-4a (Example 5.3, r1)", example_5_3_r1()),
        ("figure-4b (Example 5.3, r2)", example_5_3_r2()),
        ("figure-5a (Example 5.4, r1)", example_5_4_r1()),
        ("figure-5b (Example 5.4, r2)", example_5_4_r2()),
        ("figure-6 (Example 6.1)", shopping_rule()),
        ("figure-7 (Example 6.2)", example_6_2()),
        ("figure-9 (Example 6.3)", example_6_3()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builtin_rules_parse_and_validate() {
        for (name, r) in paper_rules() {
            assert!(r.arity() > 0, "{name}");
        }
        assert_eq!(same_generation().nonrec_atoms().len(), 2);
        assert_eq!(up_rule().rec_pred(), down_rule().rec_pred());
    }

    #[test]
    fn tc_pair_shares_consequent() {
        assert_eq!(tc_right().head(), tc_left().head());
    }
}
