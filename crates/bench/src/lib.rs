//! Rule-pair generators shared by the paper-claim benches and the
//! `experiments` binary (experiments E1–E6; see the README's "Benchmarks"
//! section).

use linrec_datalog::{parse_linear_rule, Atom, LinearRule, Term, Var};

/// A scalable family of commuting restricted-class rule pairs for the
/// commutativity-test benchmarks (experiment E4): `2k` columns, `r1` moves
/// the odd columns through predicates `a0..a(k-1)`, `r2` moves the even
/// columns through `b0..b(k-1)`. Every variable satisfies Theorem 5.1(a),
/// so the pair commutes, and both rules are in the Theorem 5.2 class.
pub fn commuting_pair(k: usize) -> (LinearRule, LinearRule) {
    assert!(k >= 1);
    let head_vars: Vec<Var> = (0..2 * k).map(|i| Var::new(&format!("x{i}"))).collect();
    let head = Atom::from_vars("p", &head_vars);

    // r1: odd columns step through a_i.
    let mut rec1 = Vec::with_capacity(2 * k);
    let mut body1 = Vec::new();
    for i in 0..k {
        let z = Var::new(&format!("z{i}"));
        rec1.push(Term::Var(head_vars[2 * i]));
        rec1.push(Term::Var(z));
        body1.push(Atom::from_vars(
            format!("a{i}").as_str(),
            &[z, head_vars[2 * i + 1]],
        ));
    }
    let r1 = LinearRule::from_parts(head.clone(), Atom::new("p", rec1), body1).unwrap();

    // r2: even columns step through b_i.
    let mut rec2 = Vec::with_capacity(2 * k);
    let mut body2 = Vec::new();
    for i in 0..k {
        let w = Var::new(&format!("w{i}"));
        rec2.push(Term::Var(w));
        rec2.push(Term::Var(head_vars[2 * i + 1]));
        body2.push(Atom::from_vars(
            format!("b{i}").as_str(),
            &[head_vars[2 * i], w],
        ));
    }
    let r2 = LinearRule::from_parts(head, Atom::new("p", rec2), body2).unwrap();
    (r1, r2)
}

/// A scalable family of *non-restricted* rule pairs (repeated predicate
/// `q`) in the spirit of Example 5.4, stressing the definition-based test:
/// each rule drags a length-`k` `q`-chain of nondistinguished variables.
pub fn repeated_pred_pair(k: usize) -> (LinearRule, LinearRule) {
    fn chain(prefix: &str, k: usize) -> String {
        let mut body = String::new();
        for i in 0..k {
            let from = if i == 0 {
                "x".to_owned()
            } else {
                format!("{prefix}{i}")
            };
            let to = format!("{prefix}{}", i + 1);
            body.push_str(&format!(", q({from},{to})"));
        }
        body
    }
    let r1 = parse_linear_rule(&format!("p(x,y) :- p(y,w){}.", chain("n", k))).unwrap();
    let r2 = parse_linear_rule(&format!("p(x,y) :- p(u,v){}, q(y,m0).", chain("m", k))).unwrap();
    (r1, r2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrec_core::{commutes_exact, is_restricted_pair, ExactOutcome};

    #[test]
    fn commuting_pair_is_restricted_and_commutes() {
        for k in 1..5 {
            let (r1, r2) = commuting_pair(k);
            assert!(is_restricted_pair(&r1, &r2), "k = {k}");
            assert_eq!(
                commutes_exact(&r1, &r2).unwrap(),
                ExactOutcome::Commute,
                "k = {k}"
            );
            assert!(linrec_core::commute_by_definition(&r1, &r2).unwrap());
        }
    }

    #[test]
    fn repeated_pred_pair_is_outside_the_class() {
        let (r1, r2) = repeated_pred_pair(3);
        assert!(!is_restricted_pair(&r1, &r2));
        // Ground truth still computable by definition.
        let _ = linrec_core::commute_by_definition(&r1, &r2).unwrap();
    }
}
