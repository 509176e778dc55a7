//! Typed diagnostics: codes, severities, spans, and the two renderers.
//!
//! Every finding the analyzer can produce is a [`Diagnostic`] carrying a
//! stable [`Code`] (the contract with CI scripts, the service protocol and
//! the JSON output), a [`Severity`] derived from the code, an optional
//! [`Span`] locating the finding, a message, and an optional fix hint.

use linrec_datalog::Symbol;
use linrec_obs::json;
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only; never fails a check.
    Info,
    /// Suspicious but not unsound: `linrec check` reports it and exits
    /// nonzero, deny-by-default gates let it through.
    Warning,
    /// Unsound or internally inconsistent: deny-by-default gates
    /// (`ViewService::register_view`, `linrec run`/`serve`) refuse the
    /// program.
    Error,
}

impl Severity {
    /// Lower-case label used by both renderers (`"error"`, `"warning"`,
    /// `"info"`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The stable code of a finding. The numeric ranges partition by pass:
/// `L0xx` program lints, `C1xx` certificate cross-verification, `P2xx`
/// plan lints. See the README's "Static analysis" catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// `L000` — the source failed to parse or violates program shape
    /// (non-linear rule, inconsistent recursive arity, …).
    ParseError,
    /// `L001` — a head variable is not bound by any positive body atom
    /// (the rule is not range-restricted / not safe).
    UnsafeRule,
    /// `L002` — a variable occurs exactly once in its rule: it joins
    /// nothing and usually indicates a typo.
    SingletonVariable,
    /// `L003` — one predicate symbol is used at two different arities.
    ArityConflict,
    /// `L004` — a rule joins against a predicate that is empty (or absent)
    /// in the database, so it can never fire during this fixpoint.
    DeadRule,
    /// `L005` — a rule is subsumed by another rule (its operator is `≤`
    /// the other's, Chandra–Merlin): deleting it cannot change any
    /// fixpoint.
    SubsumedRule,
    /// `L006` — a rule is equivalent to an earlier rule.
    DuplicateRule,
    /// `L007` — the seed relation is empty: the fixpoint is empty no
    /// matter what the rules say.
    EmptySeed,
    /// `C101` — the planner's commutativity clusters disagree with the
    /// independent by-definition recomputation.
    CommutativityMismatch,
    /// `C102` — the claimed clusters are not a partition of the rule
    /// indices.
    MalformedClusters,
    /// `C103` — a claimed uniform-boundedness witness `Aᴺ ≤ Aᴷ` fails the
    /// independent containment check.
    BoundednessMismatch,
    /// `C104` — claimed Theorem 6.4 redundancy witnesses fail
    /// re-verification.
    RedundancyMismatch,
    /// `C105` — a claimed separable pair fails the by-definition
    /// commutation check (Theorem 4.1's operator premise).
    SeparabilityMismatch,
    /// `C106` — the independent procedure licenses a cluster decomposition
    /// the planner did not certify.
    MissedDecomposition,
    /// `C107` — the independent procedure finds a uniform-boundedness
    /// witness the planner did not certify.
    MissedBoundedness,
    /// `P201` — the plan applies the selection after the fixpoint although
    /// a separability certificate licenses pushing it inside.
    MissedPushdown,
    /// `P202` — the cost model chose `Direct` although a certificate or
    /// the composition shape licenses a decomposed or dense strategy.
    CostSkippedCertificate,
}

impl Code {
    /// The stable code string (`"L001"`, `"C103"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::ParseError => "L000",
            Code::UnsafeRule => "L001",
            Code::SingletonVariable => "L002",
            Code::ArityConflict => "L003",
            Code::DeadRule => "L004",
            Code::SubsumedRule => "L005",
            Code::DuplicateRule => "L006",
            Code::EmptySeed => "L007",
            Code::CommutativityMismatch => "C101",
            Code::MalformedClusters => "C102",
            Code::BoundednessMismatch => "C103",
            Code::RedundancyMismatch => "C104",
            Code::SeparabilityMismatch => "C105",
            Code::MissedDecomposition => "C106",
            Code::MissedBoundedness => "C107",
            Code::MissedPushdown => "P201",
            Code::CostSkippedCertificate => "P202",
        }
    }

    /// The severity this code always carries. Certificate disagreements
    /// are errors by design: a cert regression must be impossible to ship
    /// silently.
    pub fn severity(self) -> Severity {
        match self {
            Code::ParseError
            | Code::UnsafeRule
            | Code::ArityConflict
            | Code::CommutativityMismatch
            | Code::MalformedClusters
            | Code::BoundednessMismatch
            | Code::RedundancyMismatch
            | Code::SeparabilityMismatch
            | Code::MissedDecomposition
            | Code::MissedBoundedness => Severity::Error,
            Code::SingletonVariable
            | Code::DeadRule
            | Code::SubsumedRule
            | Code::DuplicateRule
            | Code::EmptySeed
            | Code::MissedPushdown => Severity::Warning,
            Code::CostSkippedCertificate => Severity::Info,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a finding points: a rule index (the program's order), a predicate
/// symbol, both, or neither (program-wide findings).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Zero-based index of the rule the finding is about.
    pub rule: Option<usize>,
    /// The predicate symbol the finding is about.
    pub pred: Option<Symbol>,
}

impl Span {
    /// A program-wide span.
    pub fn none() -> Span {
        Span::default()
    }

    /// A span pointing at one rule.
    pub fn rule(i: usize) -> Span {
        Span {
            rule: Some(i),
            pred: None,
        }
    }

    /// A span pointing at one predicate.
    pub fn pred(p: Symbol) -> Span {
        Span {
            rule: None,
            pred: Some(p),
        }
    }

    /// A span pointing at a predicate occurrence inside one rule.
    pub fn rule_pred(i: usize, p: Symbol) -> Span {
        Span {
            rule: Some(i),
            pred: Some(p),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.rule, self.pred) {
            (Some(r), Some(p)) => write!(f, "rule {r} ({p})"),
            (Some(r), None) => write!(f, "rule {r}"),
            (None, Some(p)) => write!(f, "{p}"),
            (None, None) => f.write_str("program"),
        }
    }
}

/// One analyzer finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// What the finding points at.
    pub span: Span,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when a fix is obvious.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Build a diagnostic; the severity comes from the code.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            message: message.into(),
            help: None,
        }
    }

    /// Attach a fix hint.
    pub fn with_help(mut self, help: impl Into<String>) -> Diagnostic {
        self.help = Some(help.into());
        self
    }

    /// The single-line form used on the service protocol:
    /// `<code> <span>: <message>`.
    pub fn protocol_line(&self) -> String {
        format!("{} {}: {}", self.code, self.span, self.message)
    }

    /// Render as one JSON object (the schema documented in the README).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("code", self.code.as_str());
            o.str("severity", self.severity.label());
            if let Some(r) = self.span.rule {
                o.u64("rule", r as u64);
            }
            if let Some(p) = self.span.pred {
                o.str("pred", p.as_str());
            }
            o.str("message", &self.message);
            if let Some(h) = &self.help {
                o.str("help", h);
            }
        })
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity.label(),
            self.code,
            self.span,
            self.message
        )?;
        if let Some(h) = &self.help {
            write!(f, "\n  help: {h}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable() {
        assert_eq!(Code::UnsafeRule.as_str(), "L001");
        assert_eq!(Code::CommutativityMismatch.as_str(), "C101");
        assert_eq!(Code::MissedPushdown.as_str(), "P201");
        assert_eq!(Code::UnsafeRule.severity(), Severity::Error);
        assert_eq!(Code::DeadRule.severity(), Severity::Warning);
        assert_eq!(Code::CostSkippedCertificate.severity(), Severity::Info);
    }

    #[test]
    fn display_and_json_round_out() {
        let d = Diagnostic::new(Code::UnsafeRule, Span::rule(2), "y is unbound")
            .with_help("bind y in the body");
        let text = d.to_string();
        assert!(text.starts_with("error[L001] rule 2: y is unbound"));
        assert!(text.contains("help: bind y"));
        let json = d.to_json();
        assert!(json.contains("\"code\":\"L001\""));
        assert!(json.contains("\"rule\":2"));
        assert!(json.contains("\"help\":\"bind y in the body\""));
        assert_eq!(d.protocol_line(), "L001 rule 2: y is unbound");
    }

    /// A finding with and without `rule` / `pred` / `help` is one valid
    /// object whose top-level members read back as written.
    #[test]
    fn every_json_shape_reads_back() {
        let p = Symbol::new("edge");
        let cases: Vec<(Diagnostic, Vec<(&str, &str)>)> = vec![
            (
                Diagnostic::new(Code::EmptySeed, Span::none(), "seed \"p\" is empty"),
                vec![
                    ("code", "\"L007\""),
                    ("severity", "\"warning\""),
                    ("message", "\"seed \\\"p\\\" is empty\""),
                ],
            ),
            (
                Diagnostic::new(Code::DeadRule, Span::rule_pred(3, p), "never fires")
                    .with_help("add edge facts\nor drop the rule"),
                vec![
                    ("code", "\"L004\""),
                    ("severity", "\"warning\""),
                    ("rule", "3"),
                    ("pred", "\"edge\""),
                    ("message", "\"never fires\""),
                    ("help", "\"add edge facts\\nor drop the rule\""),
                ],
            ),
        ];
        for (diagnostic, expected) in cases {
            let text = diagnostic.to_json();
            let members = json::members(&text).unwrap_or_else(|| panic!("invalid: {text}"));
            let got: Vec<(&str, &str)> = members.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            assert_eq!(got, expected, "{text}");
        }
    }
}
