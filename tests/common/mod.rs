//! Generators shared by the property suites: every suite that draws
//! random rule sets draws them from here, so one case number names the
//! same program everywhere.
#![allow(dead_code)]

use linrec::prelude::*;

/// Deterministic generator driving rule and workload synthesis
/// (SplitMix64).
pub struct Gen(pub u64);

impl Gen {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// A random arity-2 linear rule over head `p(x0,x1)`, in the style of the
/// paper's small examples: each recursive-atom position copies a head
/// variable, shifts it, or introduces a fresh variable; up to two
/// nonrecursive atoms bind pairs from the variable pool.
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
    LinearRule::from_parts(head, Atom::new("p", rec_terms), nonrec)
        .ok()
        .filter(|r| r.is_range_restricted())
}

/// Pick a rule set from the spectrum: paper examples for low `case`
/// values, random rule sets beyond.
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
                .filter_map(|_| random_rule(&mut g))
                .take(n_rules)
                .collect();
            (rules.len() == n_rules).then_some(rules)
        }
    }
}

/// Every plan `analysis` licenses: `Plan::direct`, one plan per
/// certificate it carries, `select_after` around each shape that does not
/// absorb the selection, and — marked `true` — the planner's pick for
/// `db` and `init`.
pub fn licensed_plans(analysis: &Analysis, db: &Database, init: &Relation) -> Vec<(Plan, bool)> {
    let mut plans = vec![Plan::direct(analysis.rules())];
    plans.extend(analysis.boundedness().cloned().map(Plan::bounded_prefix));
    plans.extend(analysis.commutativity().cloned().map(Plan::decomposed));
    plans.extend(analysis.redundancy().cloned().map(Plan::redundancy_bounded));
    if let Some(sel) = analysis.selection() {
        plans = plans
            .into_iter()
            .map(|plan| Plan::select_after(plan, sel.clone()))
            .collect();
        for (_, _, cert) in analysis.separability() {
            plans.push(Plan::separable(cert.clone(), sel.clone()).expect("σ commutes with outer"));
        }
    }
    let mut plans: Vec<(Plan, bool)> = plans.into_iter().map(|plan| (plan, false)).collect();
    plans.push((analysis.plan_for(db, init), true));
    plans
}
