//! Selection queries on a commuting recursion: the separable algorithm
//! (Algorithm 4.1) against select-after-fixpoint.
//!
//! An org-chart scenario: `up(x,w)` is "x reports to w" and `down(z,y)` is
//! "z delegates to y"; `p(x,y)` closes a visibility relation across both.
//! The user asks for one employee's row: `σ_{x=c} (A₁+A₂)* q`. Theorem 4.1
//! lets the engine evaluate `A₁*(σ A₂*)`, pushing the constant into the
//! parameter relations instead of materializing the full closure — and the
//! planner only builds that plan from a `SeparabilityCert`.
//!
//! ```sh
//! cargo run --release --example separable_selection
//! ```

use linrec::engine::{rules, Analysis, Plan, PlanShape, Selection};
use linrec::prelude::*;
use linrec_testkit as workload;
use std::time::Instant;

fn main() {
    let down = rules::down_rule();
    let up = rules::up_rule();

    // The premises of Theorem 4.1, checked by the analysis layer:
    assert_eq!(commutes_exact(&up, &down).unwrap(), ExactOutcome::Commute);

    println!("σ(A1+A2)* with A1 = {up}, A2 = {down}, σ = [pos 1 = c]\n");
    println!(
        "{:<8} {:>9} {:>14} {:>14} {:>12} {:>12}",
        "depth", "answers", "der(baseline)", "der(separable)", "ms(baseline)", "ms(separable)"
    );

    let all = vec![down, up];
    for depth in 6..=11u32 {
        let (db, init) = workload::up_down(depth, 11);
        // Select a concrete down-side node (down ids live above the offset).
        let sel = Selection::eq(1, (1i64 << (depth + 1)) + 1);

        // The analysis finds the separability certificate and the planner
        // picks Algorithm 4.1; the baseline is the forced select-after plan.
        let analysis = Analysis::of(&all, Some(&sel));
        let fast_plan = analysis.plan_for(&db, &init);
        assert_eq!(fast_plan.shape(), PlanShape::Separable);
        let slow_plan = Plan::select_after(Plan::direct(all.clone()), sel);

        let t0 = Instant::now();
        let slow = slow_plan.execute(&db, &init).unwrap();
        let t_slow = t0.elapsed();

        let t1 = Instant::now();
        let fast = fast_plan.execute(&db, &init).unwrap();
        let t_fast = t1.elapsed();

        assert_eq!(
            slow.relation.sorted(),
            fast.relation.sorted(),
            "strategies must agree"
        );
        println!(
            "{:<8} {:>9} {:>14} {:>14} {:>12.2} {:>12.2}",
            depth,
            fast.relation.len(),
            slow.stats.derivations,
            fast.stats.derivations,
            t_slow.as_secs_f64() * 1e3,
            t_fast.as_secs_f64() * 1e3,
        );
    }
    println!("\n(the separable algorithm touches only the tuples the selection can reach)");
}
