//! The triple store: deduplicated triples with S/P/O posting-list indexes.

use crate::atom::{Atom, AtomTable};
use crate::hash::{FxHashMap, FxHashSet};
use crate::triple::{StrTriple, Triple, TripleId};

/// An append-only, deduplicated triple store.
///
/// Three posting-list indexes (by subject, predicate and object) provide
/// O(1) lookup of the candidate list plus O(answer) iteration, which is
/// the access pattern the pipeline needs: "all triples whose subject is
/// X", "all triples mentioning Y anywhere".
///
/// The store owns its [`AtomTable`]; all string-level APIs intern through
/// it so callers never juggle atoms from foreign tables.
#[derive(Debug, Default, Clone)]
pub struct TripleStore {
    atoms: AtomTable,
    triples: Vec<Triple>,
    dedup: FxHashSet<Triple>,
    by_s: FxHashMap<Atom, Vec<TripleId>>,
    by_p: FxHashMap<Atom, Vec<TripleId>>,
    by_o: FxHashMap<Atom, Vec<TripleId>>,
}

impl TripleStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Access the interner.
    #[inline]
    pub fn atoms(&self) -> &AtomTable {
        &self.atoms
    }

    /// Intern a string in this store's table.
    pub fn intern(&mut self, s: &str) -> Atom {
        self.atoms.intern(s)
    }

    /// Resolve an atom of this store.
    #[inline]
    pub fn resolve(&self, a: Atom) -> &str {
        self.atoms.resolve(a)
    }

    /// Insert a triple given pre-interned atoms. Returns the id, and
    /// whether the triple was newly inserted (false = duplicate).
    pub fn insert(&mut self, s: Atom, p: Atom, o: Atom) -> (TripleId, bool) {
        let t = Triple::new(s, p, o);
        if self.dedup.contains(&t) {
            // Slow path: find the existing id. Duplicates are rare in the
            // generators, so a linear scan over the subject posting list
            // is fine and avoids a second full map.
            let id = self
                .by_s
                .get(&s)
                .and_then(|ids| {
                    ids.iter()
                        .copied()
                        .find(|&id| self.triples[id.index()] == t)
                })
                .expect("dedup set and index out of sync");
            return (id, false);
        }
        let id = TripleId(u32::try_from(self.triples.len()).expect("triple store overflow"));
        self.triples.push(t);
        self.dedup.insert(t);
        self.by_s.entry(s).or_default().push(id);
        self.by_p.entry(p).or_default().push(id);
        self.by_o.entry(o).or_default().push(id);
        (id, true)
    }

    /// Insert from strings (interning as needed).
    pub fn insert_str(&mut self, s: &str, p: &str, o: &str) -> (TripleId, bool) {
        let (s, p, o) = (self.intern(s), self.intern(p), self.intern(o));
        self.insert(s, p, o)
    }

    /// Number of (distinct) triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Whether the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Fetch a triple by id.
    #[inline]
    pub fn get(&self, id: TripleId) -> Triple {
        self.triples[id.index()]
    }

    /// Whether the exact triple exists.
    pub fn contains(&self, s: Atom, p: Atom, o: Atom) -> bool {
        self.dedup.contains(&Triple::new(s, p, o))
    }

    /// Triple ids whose subject is `s`.
    pub fn ids_by_subject(&self, s: Atom) -> &[TripleId] {
        self.by_s.get(&s).map_or(&[], |v| v)
    }

    /// Triple ids whose predicate is `p`.
    pub fn ids_by_predicate(&self, p: Atom) -> &[TripleId] {
        self.by_p.get(&p).map_or(&[], |v| v)
    }

    /// Triple ids whose object is `o`.
    pub fn ids_by_object(&self, o: Atom) -> &[TripleId] {
        self.by_o.get(&o).map_or(&[], |v| v)
    }

    /// All triples with subject `s`.
    pub fn by_subject(&self, s: Atom) -> impl Iterator<Item = Triple> + '_ {
        self.ids_by_subject(s).iter().map(|id| self.get(*id))
    }

    /// All triples with predicate `p`.
    pub fn by_predicate(&self, p: Atom) -> impl Iterator<Item = Triple> + '_ {
        self.ids_by_predicate(p).iter().map(|id| self.get(*id))
    }

    /// All triples with object `o`.
    pub fn by_object(&self, o: Atom) -> impl Iterator<Item = Triple> + '_ {
        self.ids_by_object(o).iter().map(|id| self.get(*id))
    }

    /// All triples with subject `s` and predicate `p`.
    pub fn by_sp(&self, s: Atom, p: Atom) -> impl Iterator<Item = Triple> + '_ {
        self.by_subject(s).filter(move |t| t.p == p)
    }

    /// All triples mentioning `a` as subject *or* object (the 1-hop
    /// neighbourhood used during subgraph extraction).
    pub fn mentioning(&self, a: Atom) -> impl Iterator<Item = Triple> + '_ {
        self.by_subject(a)
            .chain(self.by_object(a).filter(move |t| t.s != a))
    }

    /// Iterate all triples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.triples.iter().copied()
    }

    /// Materialise a triple as owned strings.
    pub fn to_str_triple(&self, t: Triple) -> StrTriple {
        StrTriple::new(self.resolve(t.s), self.resolve(t.p), self.resolve(t.o))
    }

    /// Distinct subjects in insertion order of first appearance.
    pub fn subjects(&self) -> Vec<Atom> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for t in &self.triples {
            if seen.insert(t.s) {
                out.push(t.s);
            }
        }
        out
    }

    /// Distinct predicates.
    pub fn predicates(&self) -> Vec<Atom> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for t in &self.triples {
            if seen.insert(t.p) {
                out.push(t.p);
            }
        }
        out
    }

    /// Out-degree of `s` (number of triples with subject `s`).
    pub fn out_degree(&self, s: Atom) -> usize {
        self.ids_by_subject(s).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TripleStore {
        let mut st = TripleStore::new();
        st.insert_str("Yao Ming", "born in", "Shanghai");
        st.insert_str("Yao Ming", "occupation", "basketball player");
        st.insert_str("Shanghai", "country", "China");
        st
    }

    #[test]
    fn insert_and_query() {
        let st = sample();
        assert_eq!(st.len(), 3);
        let atom = |s: &str| st.atoms().get(s).unwrap();
        let yao = atom("Yao Ming");
        assert_eq!(st.by_subject(yao).count(), 2);
        assert!(st.contains(atom("Shanghai"), atom("country"), atom("China")));
        assert!(!st.contains(atom("Shanghai"), atom("country"), yao));
        assert_eq!(st.atoms().get("Japan"), None, "never interned");
    }

    #[test]
    fn dedup_returns_same_id() {
        let mut st = sample();
        let (id1, fresh1) = st.insert_str("Yao Ming", "born in", "Shanghai");
        assert!(!fresh1);
        let (id2, _) = st.insert_str("Yao Ming", "born in", "Shanghai");
        assert_eq!(id1, id2);
        assert_eq!(st.len(), 3);
    }

    #[test]
    fn mentioning_covers_both_roles_without_double_count() {
        let mut st = sample();
        st.insert_str("NBA", "features", "Yao Ming");
        let yao = st.atoms().get("Yao Ming").unwrap();
        let triples: Vec<_> = st.mentioning(yao).collect();
        assert_eq!(triples.len(), 3);
    }

    #[test]
    fn self_loop_counted_once_in_mentioning() {
        let mut st = TripleStore::new();
        st.insert_str("a", "related to", "a");
        let a = st.atoms().get("a").unwrap();
        assert_eq!(st.mentioning(a).count(), 1);
    }

    #[test]
    fn by_sp_filters() {
        let st = sample();
        let yao = st.atoms().get("Yao Ming").unwrap();
        let born = st.atoms().get("born in").unwrap();
        let res: Vec<_> = st.by_sp(yao, born).collect();
        assert_eq!(res.len(), 1);
        assert_eq!(st.resolve(res[0].o), "Shanghai");
    }

    #[test]
    fn subjects_and_predicates_distinct() {
        let st = sample();
        assert_eq!(st.subjects().len(), 2); // Yao Ming, Shanghai
        assert_eq!(st.predicates().len(), 3);
    }

    #[test]
    fn out_degree() {
        let st = sample();
        let yao = st.atoms().get("Yao Ming").unwrap();
        let sh = st.atoms().get("Shanghai").unwrap();
        assert_eq!(st.out_degree(yao), 2);
        assert_eq!(st.out_degree(sh), 1);
    }
}
