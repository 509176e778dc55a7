//! **linrec-lint** — the static analyzer behind `linrec check`.
//!
//! Three passes over a parsed program (and optionally the plan chosen for
//! it), each producing typed [`Diagnostic`]s with stable codes:
//!
//! 1. [`program_lints`] — safety/range-restriction, singleton variables,
//!    arity consistency, dead rules, duplicate/subsumed rules, empty
//!    seeds (`L0xx`);
//! 2. [`cross_verify`] — the planner's certificate claims re-derived by an
//!    independent second procedure built directly on the `linrec-cq`
//!    primitives; *any* disagreement is an error (`C1xx`);
//! 3. [`plan_lints`] — licensed opportunities the chosen plan skipped
//!    (`P2xx`).
//!
//! The two entry points bundle the passes: [`check_rules`] (passes 1–2;
//! what `ViewService::register_view` gates on) and [`check_program`]
//! (all three; what `linrec check` runs).
//!
//! ```
//! use linrec_datalog::parse_linear_rule;
//! use linrec_lint::{check_rules, Code};
//!
//! let unsafe_rule = parse_linear_rule("p(x,y) :- p(x,x), e(x,x).").unwrap();
//! let report = check_rules(&[unsafe_rule], None, None);
//! assert!(report.has_errors());
//! assert_eq!(report.diagnostics[0].code, Code::UnsafeRule);
//! ```

#![warn(missing_docs)]

pub mod certcheck;
pub mod diagnostic;
pub mod plan;
pub mod program;

pub use certcheck::{cross_verify, CertClaims};
pub use diagnostic::{Code, Diagnostic, Severity, Span};
pub use plan::plan_lints;
pub use program::program_lints;

use linrec_datalog::{Database, LinearRule, Relation};
use linrec_engine::{Analysis, Selection};

/// The analyzer's output: diagnostics ordered most-severe first (ties kept
/// in discovery order, which follows the rule order).
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// The findings, most severe first.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Wrap raw diagnostics, sorting them most-severe first.
    pub fn from_diagnostics(mut diagnostics: Vec<Diagnostic>) -> LintReport {
        diagnostics.sort_by_key(|d| std::cmp::Reverse(d.severity));
        LintReport { diagnostics }
    }

    /// True iff any finding is error-severity (what deny-by-default gates
    /// check).
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// True iff any finding is warning-severity or worse (what decides
    /// `linrec check`'s exit code; info stays clean).
    pub fn has_findings(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity >= Severity::Warning)
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Human renderer: one block per diagnostic (message plus indented
    /// help line), separated by newlines.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }

    /// JSON renderer: the diagnostics as a JSON array (schema in the
    /// README's "Static analysis" section).
    pub fn render_json(&self) -> String {
        linrec_obs::json::array(|a| {
            for d in &self.diagnostics {
                a.raw(&d.to_json());
            }
        })
    }
}

/// Passes 1–2: program lints plus certificate cross-verification of a
/// fresh analysis of `rules`. `db`/`init` enable the data-dependent lints
/// (`L004`/`L007`) and may be `None` for structural-only checking.
pub fn check_rules(
    rules: &[LinearRule],
    db: Option<&Database>,
    init: Option<&Relation>,
) -> LintReport {
    let mut diagnostics = program_lints(rules, db, init);
    let analysis = Analysis::of(rules, None);
    diagnostics.extend(cross_verify(rules, &CertClaims::of(&analysis)));
    LintReport::from_diagnostics(diagnostics)
}

/// All three passes: program lints, certificate cross-verification, and
/// plan lints against the cost-model-ranked plan for this very database.
pub fn check_program(
    rules: &[LinearRule],
    db: &Database,
    init: &Relation,
    sel: Option<&Selection>,
) -> LintReport {
    let mut diagnostics = program_lints(rules, Some(db), Some(init));
    let analysis = Analysis::of(rules, sel);
    diagnostics.extend(cross_verify(rules, &CertClaims::of(&analysis)));
    let plan = analysis.plan_for(db, init);
    diagnostics.extend(plan_lints(&analysis, &plan));
    LintReport::from_diagnostics(diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linrec_datalog::parse_linear_rule;

    #[test]
    fn report_orders_by_severity_and_renders() {
        let rules = [
            parse_linear_rule("p(x,y) :- p(x,x), e(x,x).").unwrap(), // L001 error
            parse_linear_rule("p(x,y) :- p(x,y), q(z).").unwrap(),   // L002 warning
        ];
        let report = check_rules(&rules, None, None);
        assert!(report.has_errors());
        assert!(report.has_findings());
        assert_eq!(report.diagnostics[0].severity, Severity::Error);
        let human = report.render_human();
        assert!(human.contains("error[L001]"), "{human}");
        assert!(human.contains("warning[L002]"), "{human}");
        let json = report.render_json();
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"code\":\"L001\""), "{json}");
    }

    #[test]
    fn clean_program_end_to_end() {
        let rules = vec![
            parse_linear_rule("p(x,y) :- p(x,z), q(z,y).").unwrap(),
            parse_linear_rule("p(x,y) :- p(w,y), q(x,w).").unwrap(),
        ];
        let mut db = Database::new();
        db.set_relation("q", Relation::from_pairs([(1, 2), (2, 3)]));
        let init = Relation::from_pairs([(1, 1)]);
        let report = check_program(&rules, &db, &init, None);
        assert!(!report.has_findings(), "{}", report.render_human());
    }
}
