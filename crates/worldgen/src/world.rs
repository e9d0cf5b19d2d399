//! The ground-truth world: entities and facts that every KG source and
//! every dataset derive from. The world itself is *never* visible to the
//! QA pipeline — only its renderings are.

use crate::schema::{EntityKind, RelId};
use kgstore::hash::FxHashMap;

/// Identifier of a world entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u32);

/// Identifier of a world fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FactId(pub u32);

/// A ground-truth entity.
#[derive(Debug, Clone)]
pub struct WorldEntity {
    /// Stable id.
    pub id: EntityId,
    /// Kind.
    pub kind: EntityKind,
    /// Canonical label. Deliberately *not* unique: a few percent of
    /// entities share labels to exercise disambiguation.
    pub label: String,
    /// Alternative surface forms.
    pub aliases: Vec<String>,
    /// Short description disambiguating same-label entities.
    pub description: String,
    /// Popularity in `(0, 1]`, Zipf-distributed by rank within kind.
    pub popularity: f64,
}

/// A ground-truth fact: `(subject, relation, object-entity)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorldFact {
    /// Stable id.
    pub id: FactId,
    /// Subject entity.
    pub s: EntityId,
    /// Relation.
    pub rel: RelId,
    /// Object entity.
    pub o: EntityId,
}

/// The complete ground truth.
#[derive(Debug, Clone, Default)]
pub struct World {
    /// All entities, indexed by `EntityId`.
    pub entities: Vec<WorldEntity>,
    /// All facts, indexed by `FactId`.
    pub facts: Vec<WorldFact>,
    by_subject: FxHashMap<EntityId, Vec<FactId>>,
    by_object: FxHashMap<EntityId, Vec<FactId>>,
    by_kind: FxHashMap<EntityKind, Vec<EntityId>>,
}

impl World {
    /// Entity by id.
    #[inline]
    pub fn entity(&self, id: EntityId) -> &WorldEntity {
        &self.entities[id.0 as usize]
    }

    /// Fact by id.
    #[inline]
    pub fn fact(&self, id: FactId) -> &WorldFact {
        &self.facts[id.0 as usize]
    }

    /// Label of an entity (shorthand).
    pub fn label(&self, id: EntityId) -> &str {
        &self.entity(id).label
    }

    /// Add an entity (used by the generator).
    pub fn push_entity(&mut self, mut e: WorldEntity) -> EntityId {
        let id = EntityId(self.entities.len() as u32);
        e.id = id;
        self.by_kind.entry(e.kind).or_default().push(id);
        self.entities.push(e);
        id
    }

    /// Add a fact (used by the generator). Duplicate `(s, rel, o)` facts
    /// are the caller's responsibility to avoid.
    pub fn push_fact(&mut self, s: EntityId, rel: RelId, o: EntityId) -> FactId {
        let id = FactId(self.facts.len() as u32);
        self.facts.push(WorldFact { id, s, rel, o });
        self.by_subject.entry(s).or_default().push(id);
        self.by_object.entry(o).or_default().push(id);
        id
    }

    /// All facts with subject `s`.
    pub fn facts_of(&self, s: EntityId) -> impl Iterator<Item = &WorldFact> {
        self.by_subject
            .get(&s)
            .into_iter()
            .flatten()
            .map(|&f| self.fact(f))
    }

    /// All facts with subject `s` and relation `rel`.
    pub fn objects_of(&self, s: EntityId, rel: RelId) -> Vec<EntityId> {
        self.facts_of(s)
            .filter(|f| f.rel == rel)
            .map(|f| f.o)
            .collect()
    }

    /// All facts with object `o`.
    pub fn facts_with_object(&self, o: EntityId) -> impl Iterator<Item = &WorldFact> {
        self.by_object
            .get(&o)
            .into_iter()
            .flatten()
            .map(|&f| self.fact(f))
    }

    /// Subjects `s` such that `(s, rel, o)` holds.
    pub fn subjects_with(&self, rel: RelId, o: EntityId) -> Vec<EntityId> {
        self.facts_with_object(o)
            .filter(|f| f.rel == rel)
            .map(|f| f.s)
            .collect()
    }

    /// All entities of a kind.
    pub fn entities_of_kind(&self, kind: EntityKind) -> &[EntityId] {
        self.by_kind.get(&kind).map_or(&[], |v| v)
    }

    /// Number of entities.
    pub fn entity_count(&self) -> usize {
        self.entities.len()
    }

    /// Number of facts.
    pub fn fact_count(&self) -> usize {
        self.facts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::rel_by_name;

    fn tiny_world() -> World {
        let mut w = World::default();
        let yao = w.push_entity(WorldEntity {
            id: EntityId(0),
            kind: EntityKind::Person,
            label: "Yao Ming".into(),
            aliases: vec![],
            description: "basketball player".into(),
            popularity: 0.9,
        });
        let shanghai = w.push_entity(WorldEntity {
            id: EntityId(0),
            kind: EntityKind::City,
            label: "Shanghai".into(),
            aliases: vec![],
            description: "city".into(),
            popularity: 0.8,
        });
        let rel = rel_by_name("place_of_birth").unwrap();
        w.push_fact(yao, rel, shanghai);
        w
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let w = tiny_world();
        assert_eq!(w.entities[0].id, EntityId(0));
        assert_eq!(w.entities[1].id, EntityId(1));
        assert_eq!(w.facts[0].id, FactId(0));
    }

    #[test]
    fn fact_indexes_work() {
        let w = tiny_world();
        let rel = rel_by_name("place_of_birth").unwrap();
        assert_eq!(w.objects_of(EntityId(0), rel), vec![EntityId(1)]);
        assert_eq!(w.subjects_with(rel, EntityId(1)), vec![EntityId(0)]);
        assert!(w.objects_of(EntityId(1), rel).is_empty());
    }

    #[test]
    fn kind_index_works() {
        let w = tiny_world();
        assert_eq!(w.entities_of_kind(EntityKind::Person), &[EntityId(0)]);
        assert_eq!(w.entities_of_kind(EntityKind::City), &[EntityId(1)]);
        assert!(w.entities_of_kind(EntityKind::River).is_empty());
    }
}
