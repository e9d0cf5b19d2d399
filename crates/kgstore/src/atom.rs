//! String interning.
//!
//! Knowledge-graph workloads repeat the same entity and relation strings
//! millions of times; interning them to 32-bit [`Atom`]s makes triples
//! 12 bytes, makes equality a register compare, and makes the index maps
//! integer-keyed (fast with the Fx hasher).

use crate::hash::FxHashMap;

/// An interned string. Only meaningful together with the [`AtomTable`]
/// that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom(pub u32);

impl Atom {
    /// The raw index of this atom in its table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Bidirectional string ↔ [`Atom`] table.
///
/// Strings are stored once; lookups in both directions are O(1).
#[derive(Debug, Default, Clone)]
pub struct AtomTable {
    strings: Vec<Box<str>>,
    lookup: FxHashMap<Box<str>, Atom>,
}

impl AtomTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its atom (existing or fresh).
    pub fn intern(&mut self, s: &str) -> Atom {
        if let Some(&a) = self.lookup.get(s) {
            return a;
        }
        let a = Atom(u32::try_from(self.strings.len()).expect("atom table overflow"));
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.lookup.insert(boxed, a);
        a
    }

    /// Look up an already-interned string without inserting.
    pub fn get(&self, s: &str) -> Option<Atom> {
        self.lookup.get(s).copied()
    }

    /// Resolve an atom back to its string.
    ///
    /// # Panics
    /// Panics if `a` was not produced by this table.
    #[inline]
    pub fn resolve(&self, a: Atom) -> &str {
        &self.strings[a.index()]
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterate `(Atom, &str)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Atom, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Atom(i as u32), &**s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_roundtrip() {
        let mut t = AtomTable::new();
        let a = t.intern("Leonardo da Vinci");
        let b = t.intern("Mona Lisa");
        assert_ne!(a, b);
        assert_eq!(t.resolve(a), "Leonardo da Vinci");
        assert_eq!(t.resolve(b), "Mona Lisa");
    }

    #[test]
    fn intern_is_idempotent() {
        let mut t = AtomTable::new();
        let a = t.intern("x");
        let b = t.intern("x");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn get_does_not_insert() {
        let mut t = AtomTable::new();
        assert_eq!(t.get("missing"), None);
        assert!(t.is_empty());
        t.intern("present");
        assert!(t.get("present").is_some());
    }

    #[test]
    fn iter_yields_in_order() {
        let mut t = AtomTable::new();
        t.intern("a");
        t.intern("b");
        t.intern("c");
        let collected: Vec<_> = t.iter().map(|(_, s)| s.to_string()).collect();
        assert_eq!(collected, ["a", "b", "c"]);
    }
}
