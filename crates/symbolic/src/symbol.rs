//! Symbolic variables appearing in performance expressions.
//!
//! Variables stand for the unknowns the paper refuses to guess prematurely:
//! loop bounds, branch probabilities, problem-size parameters. A [`Symbol`]
//! is a cheaply clonable interned name; ordering and hashing follow the name
//! so that polynomial canonical forms are deterministic.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// An interned variable name used in polynomials and performance expressions.
///
/// # Examples
///
/// ```
/// use presage_symbolic::Symbol;
///
/// let n = Symbol::new("n");
/// assert_eq!(n.name(), "n");
/// assert_eq!(n, Symbol::new("n"));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(Arc<str>);

impl Symbol {
    /// Creates (or reuses) a symbol with the given name.
    pub fn new(name: impl AsRef<str>) -> Symbol {
        Symbol(Arc::from(name.as_ref()))
    }

    /// The canonical shared symbol for `name`: repeated lookups clone the
    /// interned `Arc` instead of allocating a fresh string. Prefer this in
    /// hot paths that re-derive the same symbol on every prediction (loop
    /// variables, bound names); `Symbol::new` remains correct everywhere
    /// since equality follows the name either way.
    pub fn interned(name: &str) -> Symbol {
        crate::intern::symbol_named(name)
    }

    /// The symbol's textual name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.0)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::new(s)
    }
}

impl Borrow<str> for Symbol {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn equality_by_name() {
        assert_eq!(Symbol::new("n"), Symbol::new("n"));
        assert_ne!(Symbol::new("n"), Symbol::new("m"));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = [Symbol::new("p"), Symbol::new("a"), Symbol::new("n")];
        v.sort();
        let names: Vec<&str> = v.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["a", "n", "p"]);
    }

    #[test]
    fn usable_as_string_keyed_map_key() {
        let mut m: HashMap<Symbol, i32> = HashMap::new();
        m.insert(Symbol::new("n"), 7);
        assert_eq!(m.get("n"), Some(&7));
    }

    #[test]
    fn display() {
        assert_eq!(Symbol::new("ub_1").to_string(), "ub_1");
    }
}
