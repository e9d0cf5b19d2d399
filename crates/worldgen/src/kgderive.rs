//! Derive concrete KG *sources* from the ground-truth world.
//!
//! A source is an imperfect, schema-flavoured rendering: it covers only a
//! fraction of the world's facts, names entities with opaque ids, and
//! verbalises relations its own way. The Wikidata-like source renders
//! some relations through mediator ("statement") nodes — one Freebase
//! hop becomes two Wikidata hops, the exact mismatch the paper blames
//! for the smaller SimpleQuestions gain in Table 3.

use crate::world::{EntityId, World};
use kgstore::hash::{mix2, stable_str_hash, unit_f64};
use kgstore::{EntityMeta, KgSource, SchemaStyle};

/// Knobs controlling how a source renders the world.
#[derive(Debug, Clone)]
pub struct SourceConfig {
    /// Source name (also salts the coverage hash).
    pub name: String,
    /// Schema family.
    pub style: SchemaStyle,
    /// Probability an ordinary world fact is present.
    pub coverage: f64,
    /// Probability a *recent* fact is present (timeliness: high for the
    /// Wikidata-like source, zero for the frozen FB2M-like subset).
    pub recent_coverage: f64,
    /// Coverage of *multi-valued* facts (list membership). The FB2M
    /// subset is entity-centric and sparse on n-ary enumerations, while
    /// Wikidata's lists are comparatively complete — the root of the
    /// Table 3 asymmetry on open-ended questions.
    pub multivalue_coverage: f64,
    /// Whether entity aliases are registered as surface forms.
    pub include_aliases: bool,
    /// Whether `wikidata_mediated` relations go through mediator nodes.
    pub mediate_flagged: bool,
    /// Whether to add `description` / `instance of` triples per entity.
    pub include_descriptions: bool,
}

impl SourceConfig {
    /// The simulated-Wikidata defaults: broad, current, mediated.
    pub fn wikidata() -> Self {
        Self {
            name: "wikidata-sim".into(),
            style: SchemaStyle::WikidataLike,
            coverage: 0.87,
            recent_coverage: 0.92,
            multivalue_coverage: 0.87,
            include_aliases: true,
            mediate_flagged: true,
            include_descriptions: true,
        }
    }

    /// The simulated-FB2M defaults: strong on classic single-hop facts,
    /// frozen in time (no recent knowledge), no mediators.
    pub fn freebase() -> Self {
        Self {
            name: "freebase-sim".into(),
            style: SchemaStyle::FreebaseLike,
            coverage: 0.94,
            recent_coverage: 0.0,
            multivalue_coverage: 0.55,
            include_aliases: false,
            mediate_flagged: false,
            include_descriptions: true,
        }
    }
}

/// Opaque id of an entity in a given schema style.
pub fn entity_sid(style: SchemaStyle, id: EntityId) -> String {
    match style {
        SchemaStyle::WikidataLike => format!("Q{}", 1000 + id.0),
        SchemaStyle::FreebaseLike => format!("/m/0{:05x}", id.0),
    }
}

/// Whether `fact` is covered by the source (stable in the source name).
pub fn fact_covered(cfg: &SourceConfig, world: &World, fact_idx: usize) -> bool {
    let f = &world.facts[fact_idx];
    let spec = f.rel.spec();
    let p = if spec.recent {
        cfg.recent_coverage
    } else if spec.max_objects > 1 {
        cfg.multivalue_coverage
    } else {
        cfg.coverage
    };
    let h = mix2(stable_str_hash(&cfg.name), f.id.0 as u64);
    unit_f64(h) < p
}

/// Render the world into a [`KgSource`].
pub fn derive(world: &World, cfg: &SourceConfig) -> KgSource {
    let mut src = KgSource::new(cfg.name.clone(), cfg.style);
    let mut touched = vec![false; world.entity_count()];

    for (idx, f) in world.facts.iter().enumerate() {
        if !fact_covered(cfg, world, idx) {
            continue;
        }
        let spec = f.rel.spec();
        let s_id = entity_sid(cfg.style, f.s);
        let o_id = entity_sid(cfg.style, f.o);
        let pred = match cfg.style {
            SchemaStyle::WikidataLike => spec.wikidata.to_string(),
            SchemaStyle::FreebaseLike => spec.freebase.to_string(),
        };
        touched[f.s.0 as usize] = true;
        touched[f.o.0 as usize] = true;
        if cfg.mediate_flagged && spec.wikidata_mediated {
            // Two-hop rendering through an opaque statement node.
            let m_id = format!("S{}", f.id.0);
            src.add_entity(
                &m_id,
                EntityMeta {
                    label: format!("statement {}", f.id.0),
                    aliases: vec![],
                    description: "statement node".into(),
                    popularity: 0.0,
                },
            );
            src.add_fact(&s_id, &pred, &m_id);
            src.add_fact(&m_id, "statement is about", &o_id);
        } else {
            src.add_fact(&s_id, &pred, &o_id);
        }
    }

    // Register metadata (and optional description triples) for every
    // entity that appears in at least one covered fact.
    let (desc_pred, type_pred) = match cfg.style {
        SchemaStyle::WikidataLike => ("description", "instance of"),
        SchemaStyle::FreebaseLike => ("/common/topic/description", "/type/object/type"),
    };
    for (i, e) in world.entities.iter().enumerate() {
        if !touched[i] {
            continue;
        }
        let sid = entity_sid(cfg.style, e.id);
        src.add_entity(
            &sid,
            EntityMeta {
                label: e.label.clone(),
                aliases: if cfg.include_aliases {
                    e.aliases.clone()
                } else {
                    vec![]
                },
                description: e.description.clone(),
                popularity: e.popularity,
            },
        );
        if cfg.include_descriptions {
            src.add_fact(&sid, desc_pred, &e.description);
            src.add_fact(&sid, type_pred, e.kind.noun());
        }
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, WorldConfig};
    use crate::schema::rel_by_name;

    fn world() -> World {
        generate(&WorldConfig {
            scale: 0.4,
            ..Default::default()
        })
    }

    #[test]
    fn derivation_is_deterministic() {
        let w = world();
        let a = derive(&w, &SourceConfig::wikidata());
        let b = derive(&w, &SourceConfig::wikidata());
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn coverage_removes_some_facts() {
        let w = world();
        let full = derive(
            &w,
            &SourceConfig {
                coverage: 1.0,
                recent_coverage: 1.0,
                ..SourceConfig::wikidata()
            },
        );
        let partial = derive(&w, &SourceConfig::wikidata());
        assert!(partial.len() < full.len());
    }

    #[test]
    fn freebase_has_no_recent_facts() {
        let w = world();
        let fb = derive(&w, &SourceConfig::freebase());
        let chips = rel_by_name("uses_chip").unwrap().spec();
        let pred = fb.store.atoms().get(chips.freebase);
        assert!(
            pred.is_none(),
            "frozen source must not contain recent relations"
        );
    }

    #[test]
    fn wikidata_mediates_flagged_relations() {
        let w = world();
        let wd = derive(&w, &SourceConfig::wikidata());
        let employer = rel_by_name("employer").unwrap().spec();
        let pred = wd.store.atoms().get(employer.wikidata);
        if let Some(p) = pred {
            // Every employer edge must point at a statement node.
            for t in wd.store.by_predicate(p) {
                let o = wd.store.resolve(t.o);
                assert!(o.starts_with('S'), "expected statement node, got {o}");
            }
        }
        assert!(
            wd.store.atoms().get("statement is about").is_some(),
            "mediator second hops missing"
        );
    }

    #[test]
    fn freebase_renders_flagged_relations_directly() {
        let w = world();
        let fb = derive(&w, &SourceConfig::freebase());
        let employer = rel_by_name("employer").unwrap().spec();
        let p = fb
            .store
            .atoms()
            .get(employer.freebase)
            .expect("employer facts");
        for t in fb.store.by_predicate(p) {
            let o = fb.store.resolve(t.o);
            assert!(
                o.starts_with("/m/"),
                "freebase object must be an entity id, got {o}"
            );
        }
    }

    #[test]
    fn entity_metadata_registered_with_labels() {
        let w = world();
        let wd = derive(&w, &SourceConfig::wikidata());
        // Find some world entity present in the source and check its label.
        let present = w
            .entities
            .iter()
            .find(|e| {
                wd.store
                    .atoms()
                    .get(&entity_sid(SchemaStyle::WikidataLike, e.id))
                    .is_some()
            })
            .expect("some entity present");
        let cands = wd.surface_candidates(&present.label);
        assert!(!cands.is_empty());
    }

    #[test]
    fn sid_formats() {
        assert_eq!(entity_sid(SchemaStyle::WikidataLike, EntityId(5)), "Q1005");
        assert_eq!(
            entity_sid(SchemaStyle::FreebaseLike, EntityId(5)),
            "/m/000005"
        );
    }

    #[test]
    fn aliases_only_when_configured() {
        let w = world();
        let wd = derive(&w, &SourceConfig::wikidata());
        let fb = derive(&w, &SourceConfig::freebase());
        let aliased = w
            .entities
            .iter()
            .find(|e| !e.aliases.is_empty())
            .expect("world has aliases");
        // The alias resolves in wikidata (if the entity is covered), and
        // never resolves in freebase.
        let wd_hit = !wd.surface_candidates(&aliased.aliases[0]).is_empty();
        let fb_hit = !fb.surface_candidates(&aliased.aliases[0]).is_empty();
        if wd
            .store
            .atoms()
            .get(&entity_sid(SchemaStyle::WikidataLike, aliased.id))
            .is_some()
        {
            assert!(wd_hit);
        }
        assert!(!fb_hit);
    }
}
