//! The test kit: every generator the linrec test suites draw their inputs
//! from, defined once, so one seed or case number names the same input in
//! every suite.
//!
//! The paper reports no machine experiments; the graph generators are the
//! classic shapes of the transitive-closure literature it cites (\[1\],
//! \[11\]) plus the workloads its own examples motivate (up/down
//! hierarchies for separable queries, a knows/buys/cheap shopping network
//! for Example 6.1). The rule generators ([`Gen`], [`random_rule`],
//! [`rule_set`]) draw small arity-2 linear programs for the property
//! suites. All generators are deterministic given a seed.
//!
//! The kit depends on `linrec-datalog` and `rand` only — never on
//! `linrec-engine` — so the engine and the crates above it take it as a
//! dev-dependency without building the engine twice.

use linrec_datalog::{parse_linear_rule, Atom, Database, LinearRule, Relation, Term, Value, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A simple path `0 → 1 → … → n`.
pub fn chain(n: i64) -> Relation {
    (0..n).map(|i| (i, i + 1)).collect()
}

/// A directed cycle on `n` nodes.
pub fn cycle(n: i64) -> Relation {
    (0..n).map(|i| (i, (i + 1) % n)).collect()
}

/// A complete binary tree with `depth` levels, edges parent → child.
pub fn binary_tree(depth: u32) -> Relation {
    let mut edges = Vec::new();
    let nodes = (1i64 << depth) - 1;
    for v in 1..=nodes {
        for c in [2 * v, 2 * v + 1] {
            if c <= nodes {
                edges.push((v, c));
            }
        }
    }
    Relation::from_pairs(edges)
}

/// `G(n, m)`: a random digraph with `n` nodes and `m` distinct edges
/// (no self-loops).
pub fn random_graph(n: i64, m: usize, seed: u64) -> Relation {
    assert!(n >= 2, "need at least two nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rel = Relation::new(2);
    let mut attempts = 0usize;
    while rel.len() < m && attempts < m * 64 {
        attempts += 1;
        let a = rng.random_range(0..n);
        let b = rng.random_range(0..n);
        if a != b {
            rel.insert(vec![Value::Int(a), Value::Int(b)]);
        }
    }
    rel
}

/// A layered DAG: `layers` layers of `width` nodes; each node gets
/// `fanout` random edges into the next layer. Node ids are
/// `layer * width + index`.
pub fn layered(layers: i64, width: i64, fanout: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rel = Relation::new(2);
    for l in 0..layers - 1 {
        for i in 0..width {
            let from = l * width + i;
            for _ in 0..fanout {
                let to = (l + 1) * width + rng.random_range(0..width);
                rel.insert(vec![Value::Int(from), Value::Int(to)]);
            }
        }
    }
    rel
}

/// A `w × h` grid with right and down edges. Node id = `row * w + col`.
pub fn grid(w: i64, h: i64) -> Relation {
    let mut rel = Relation::new(2);
    for r in 0..h {
        for c in 0..w {
            let v = r * w + c;
            if c + 1 < w {
                rel.insert(vec![Value::Int(v), Value::Int(v + 1)]);
            }
            if r + 1 < h {
                rel.insert(vec![Value::Int(v), Value::Int(v + w)]);
            }
        }
    }
    rel
}

/// An up/down workload for the separable/commuting experiments: a database
/// with an `up` tree (child → parent, fanning in) and a structurally
/// similar `down` tree, plus a seed relation `p0` linking the two sides.
///
/// Returns `(db, init)` where `init` pairs each `up`-leaf with a
/// `down`-root region.
pub fn up_down(depth: u32, seed: u64) -> (Database, Relation) {
    let mut rng = StdRng::seed_from_u64(seed);
    let up: Relation = binary_tree(depth)
        .iter()
        .map(|t| match (t[0], t[1]) {
            (Value::Int(a), Value::Int(b)) => (b, a), // child → parent
            _ => unreachable!(),
        })
        .collect();
    let offset = 1i64 << (depth + 1);
    let down: Relation = binary_tree(depth)
        .iter()
        .map(|t| match (t[0], t[1]) {
            (Value::Int(a), Value::Int(b)) => (a + offset, b + offset),
            _ => unreachable!(),
        })
        .collect();
    let mut db = Database::new();
    db.set_relation("up", up);
    db.set_relation("down", down);
    // Seed: random cross links between node spaces.
    let nodes = (1i64 << depth) - 1;
    let mut init = Relation::new(2);
    for _ in 0..nodes.max(1) {
        let a = rng.random_range(1..=nodes);
        let b = rng.random_range(1..=nodes) + offset;
        init.insert(vec![Value::Int(a), Value::Int(b)]);
    }
    (db, init)
}

/// The Example 6.1 shopping workload: `knows` is a random digraph over
/// `people`, `cheap` marks a fraction of `items`, and the initial `buys`
/// relation links random people to random items.
pub fn shopping(
    people: i64,
    items: i64,
    knows_per_person: usize,
    seed: u64,
) -> (Database, Relation) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut knows = Relation::new(2);
    for p in 0..people {
        for _ in 0..knows_per_person {
            let q = rng.random_range(0..people);
            if p != q {
                knows.insert(vec![Value::Int(p), Value::Int(q)]);
            }
        }
    }
    let mut cheap = Relation::new(1);
    for i in 0..items {
        if i % 3 != 0 {
            cheap.insert(vec![Value::Int(1000 + i)]);
        }
    }
    let mut init = Relation::new(2);
    for _ in 0..people {
        let p = rng.random_range(0..people);
        let i = rng.random_range(0..items);
        init.insert(vec![Value::Int(p), Value::Int(1000 + i)]);
    }
    let mut db = Database::new();
    db.set_relation("knows", knows);
    db.set_relation("cheap", cheap);
    (db, init)
}

/// A database exposing one binary relation under the given name.
pub fn graph_db(name: &str, rel: Relation) -> Database {
    let mut db = Database::new();
    db.set_relation(name, rel);
    db
}

/// Deterministic generator driving rule and workload synthesis
/// (SplitMix64).
pub struct Gen(pub u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next draw, reduced to `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// A random arity-2 linear rule over head `p(x0,x1)`, in the style of the
/// paper's small examples: each recursive-atom position copies a head
/// variable, shifts it, or introduces a fresh variable; up to two
/// nonrecursive atoms bind pairs from the variable pool. The rule may be
/// unsafe (not range-restricted); callers that evaluate it filter on
/// `is_range_restricted`, which consumes no draws.
pub fn random_rule(g: &mut Gen) -> Option<LinearRule> {
    let hv = [Var::new("x0"), Var::new("x1")];
    let fresh = [Var::new("n0"), Var::new("n1")];
    let head = Atom::from_vars("p", &hv);
    let rec_terms: Vec<Term> = (0..2)
        .map(|i| match g.below(4) {
            0 => Term::Var(hv[i]),
            1 => Term::Var(hv[(i + 1) % 2]),
            n => Term::Var(fresh[(n as usize) % 2]),
        })
        .collect();
    let pool: Vec<Var> = hv.iter().chain(fresh.iter()).copied().collect();
    let mut nonrec = Vec::new();
    for pred in ["q", "r"] {
        if g.below(3) == 0 {
            continue;
        }
        let a = pool[g.below(pool.len() as u64) as usize];
        let b = pool[g.below(pool.len() as u64) as usize];
        nonrec.push(Atom::from_vars(pred, &[a, b]));
    }
    LinearRule::from_parts(head, Atom::new("p", rec_terms), nonrec).ok()
}

/// Pick a rule set from the spectrum: paper examples for low `case`
/// values, random range-restricted rule sets beyond.
pub fn rule_set(case: u64) -> Option<Vec<LinearRule>> {
    match case % 8 {
        0 => Some(vec![parse_linear_rule("p(x,y) :- p(x,z), q(z,y).").unwrap()]),
        1 => Some(vec![
            parse_linear_rule("p(x,y) :- p(x,z), q(z,y).").unwrap(),
            parse_linear_rule("p(x,y) :- p(w,y), r(x,w).").unwrap(),
        ]),
        2 => Some(vec![parse_linear_rule("p(x,y) :- p(x,y), q(x,x).").unwrap()]),
        _ => {
            let mut g = Gen(case);
            let n_rules = 1 + g.below(2) as usize;
            let rules: Vec<LinearRule> = (0..8)
                .filter_map(|_| random_rule(&mut g).filter(|r| r.is_range_restricted()))
                .take(n_rules)
                .collect();
            (rules.len() == n_rules).then_some(rules)
        }
    }
}

/// A database giving every EDB predicate the rules mention a
/// `random_graph(n, m, seed + pred id)`.
pub fn cover_db(rules: &[LinearRule], n: i64, m: usize, seed: u64) -> Database {
    let mut db = Database::new();
    for rule in rules {
        for atom in rule.nonrec_atoms() {
            if db.relation(atom.pred).is_none() {
                let graph = random_graph(n, m, seed.wrapping_add(atom.pred.id() as u64));
                db.set_relation(atom.pred, graph);
            }
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_and_cycle_sizes() {
        assert_eq!(chain(5).len(), 5);
        assert_eq!(cycle(5).len(), 5);
    }

    #[test]
    fn binary_tree_edge_count() {
        // 2^d - 2 edges for a complete binary tree with 2^d - 1 nodes.
        assert_eq!(binary_tree(4).len(), 14);
    }

    #[test]
    fn random_graph_is_deterministic() {
        let a = random_graph(50, 100, 7);
        let b = random_graph(50, 100, 7);
        assert_eq!(a.sorted(), b.sorted());
        assert_eq!(a.len(), 100);
        let c = random_graph(50, 100, 8);
        assert_ne!(a.sorted(), c.sorted());
    }

    #[test]
    fn layered_has_no_cycles() {
        let rel = layered(4, 3, 2, 1);
        for t in rel.iter() {
            match (t[0], t[1]) {
                (Value::Int(a), Value::Int(b)) => assert!(b / 3 == a / 3 + 1),
                _ => panic!(),
            }
        }
    }

    #[test]
    fn grid_edge_count() {
        // w*h nodes; (w-1)*h right + w*(h-1) down edges.
        assert_eq!(grid(3, 4).len(), 2 * 4 + 3 * 3);
    }

    #[test]
    fn up_down_is_consistent() {
        let (db, init) = up_down(4, 3);
        assert!(!db.relation_named("up").unwrap().is_empty());
        assert!(!db.relation_named("down").unwrap().is_empty());
        assert!(!init.is_empty());
    }

    #[test]
    fn shopping_has_cheap_items() {
        let (db, init) = shopping(20, 9, 3, 5);
        assert_eq!(db.relation_named("cheap").unwrap().len(), 6);
        assert!(!init.is_empty());
    }

    const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

    /// FNV-1a: explicit arithmetic, so a fingerprint means the same on
    /// every Rust release (`DefaultHasher` promises no such thing).
    fn fold_bytes(h: u64, bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
    }

    fn fold(h: u64, word: u64) -> u64 {
        fold_bytes(h, &word.to_le_bytes())
    }

    fn relation_fp(h: u64, rel: &Relation) -> u64 {
        let h = fold(fold(h, rel.arity() as u64), rel.len() as u64);
        rel.sorted()
            .iter()
            .flat_map(|t| t.iter())
            .fold(h, |h, v| match v {
                Value::Int(i) => fold(h, *i as u64),
                Value::Sym(_) => unreachable!("the generators draw integers"),
            })
    }

    fn workload_fp(names: &[&str], (db, init): (Database, Relation)) -> u64 {
        let h = names.iter().fold(FNV_OFFSET, |h, name| {
            relation_fp(h, db.relation_named(name).unwrap())
        });
        relation_fp(h, &init)
    }

    /// Every property suite runs on these generators: a change to one of
    /// them, or to the vendored `rand`, changes every suite's inputs. The
    /// expected values were recorded before the generators moved here.
    #[test]
    fn generator_output_is_pinned() {
        let rules = (0..32).fold(FNV_OFFSET, |h, case| match rule_set(case) {
            None => fold(h, u64::MAX),
            Some(rules) => rules.iter().fold(fold(h, rules.len() as u64), |h, r| {
                fold_bytes(h, r.to_string().as_bytes())
            }),
        });
        let graph = relation_fp(FNV_OFFSET, &random_graph(50, 100, 7));
        assert_eq!(graph, 0x5c54_5eab_27d7_9e16);
        let dag = relation_fp(FNV_OFFSET, &layered(4, 5, 2, 9));
        assert_eq!(dag, 0x54ea_2bad_cac9_cdc3);
        let updown = workload_fp(&["up", "down"], up_down(5, 42));
        assert_eq!(updown, 0x05ca_f62f_7b6b_a21a);
        let shop = workload_fp(&["knows", "cheap"], shopping(60, 12, 3, 1));
        assert_eq!(shop, 0x8ca1_e842_5d11_92b5);
        assert_eq!(rules, 0x43c2_8014_ff90_9241);
    }
}
