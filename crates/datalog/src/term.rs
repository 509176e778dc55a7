//! Variables, constants, and terms.
//!
//! The paper's rules are *function-free*: a term is either a variable or a
//! constant. Constants only occur in engine-level selections and facts; the
//! analysis crates operate on constant-free rules (and check for it).

use crate::symbol::Symbol;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A named logic variable.
///
/// Variable identity is its (interned) name: two atoms mentioning `X` in the
/// same rule — or in two rules that are assumed to share their consequent —
/// refer to the same variable, exactly as in the paper's notation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(Symbol);

static FRESH_COUNTER: AtomicU64 = AtomicU64::new(0);

impl Var {
    /// A variable with the given name.
    pub fn new(name: &str) -> Var {
        Var(Symbol::new(name))
    }

    /// A globally fresh variable, guaranteed distinct from every variable
    /// created before it, whose name hints at its origin (e.g. `#x.3`; the
    /// parser rejects `#` in user input).
    pub fn fresh_named(hint: &str) -> Var {
        let n = FRESH_COUNTER.fetch_add(1, Ordering::Relaxed);
        Var(Symbol::new(&format!("#{hint}.{n}")))
    }

    /// The variable's name.
    pub fn name(self) -> &'static str {
        self.0.as_str()
    }

    /// The underlying interned symbol.
    pub fn symbol(self) -> Symbol {
        self.0
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Var({})", self.name())
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Var {
        Var::new(s)
    }
}

/// A ground value: either an integer or an interned symbolic constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// Integer constant (workload node ids are integers).
    Int(i64),
    /// Symbolic constant, e.g. `alice`.
    Sym(Symbol),
}

impl Value {
    /// Convenience constructor for integer values.
    pub fn int(v: i64) -> Value {
        Value::Int(v)
    }

    /// Convenience constructor for symbolic values.
    pub fn sym(s: &str) -> Value {
        Value::Sym(Symbol::new(s))
    }

    /// Read one value token as the command line and the wire protocol
    /// spell it: an integer if it parses as one, a symbolic constant
    /// otherwise. Surrounding whitespace is ignored; an empty token is no
    /// value (`None`), not the symbol `""`.
    pub fn parse_token(tok: &str) -> Option<Value> {
        let tok = tok.trim();
        if tok.is_empty() {
            return None;
        }
        Some(match tok.parse::<i64>() {
            Ok(i) => Value::Int(i),
            Err(_) => Value::sym(tok),
        })
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Sym(s) => write!(f, "{s}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

/// A term of a function-free rule: a variable or a constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A variable occurrence.
    Var(Var),
    /// A constant occurrence.
    Const(Value),
}

impl Term {
    /// The variable inside, if any.
    pub fn as_var(self) -> Option<Var> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// True iff this term is a variable.
    pub fn is_var(self) -> bool {
        matches!(self, Term::Var(_))
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Term {
        Term::Var(v)
    }
}

impl From<Value> for Term {
    fn from(v: Value) -> Term {
        Term::Const(v)
    }
}

impl From<&str> for Term {
    fn from(s: &str) -> Term {
        Term::Var(Var::new(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_identity_is_by_name() {
        assert_eq!(Var::new("x"), Var::new("x"));
        assert_ne!(Var::new("x"), Var::new("y"));
    }

    #[test]
    fn fresh_vars_are_unique_and_embed_the_hint() {
        let a = Var::fresh_named("z");
        let b = Var::fresh_named("z");
        assert_ne!(a, b);
        assert!(a.name().starts_with("#z."));
    }

    #[test]
    fn term_accessors() {
        let t: Term = Var::new("x").into();
        assert!(t.is_var());
        assert_eq!(t.as_var(), Some(Var::new("x")));

        let c: Term = Value::int(3).into();
        assert!(!c.is_var());
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::int(-2).to_string(), "-2");
        assert_eq!(Value::sym("bob").to_string(), "bob");
    }
}
