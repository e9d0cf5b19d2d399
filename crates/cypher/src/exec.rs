//! Executor: materialise `CREATE` and `MERGE` statements into a
//! [`kgstore::PropertyGraph`]. It is a construction-only engine: a
//! `MATCH` parses (so `cylint` can flag and repair it) but never runs.
//!
//! Semantics follow what the paper's use of Neo4j requires, with one
//! LLM-friendly leniency: re-using a bound variable in a later `CREATE`
//! refers to the existing node (Neo4j would raise on re-declaration with
//! new labels; generated scripts re-mention variables constantly).

use crate::ast::*;
use crate::error::{CypherError, Result};
use kgstore::hash::FxHashMap;
use kgstore::{Node, NodeId, PropertyGraph, Relationship};

/// Execution mode. Pseudo-graph construction is the only one: a
/// `MATCH` raises [`CypherError::SpuriousMatch`] (the paper's §4.6.1
/// error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Only `CREATE` and `MERGE` are legal.
    CreateOnly,
}

/// A stateful executor holding the graph and variable bindings.
#[derive(Debug, Default)]
pub struct Executor {
    graph: PropertyGraph,
    bindings: FxHashMap<String, NodeId>,
}

impl Executor {
    /// Fresh executor with an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// The graph built so far.
    pub fn graph(&self) -> &PropertyGraph {
        &self.graph
    }

    /// Consume the executor, returning the graph.
    pub fn into_graph(self) -> PropertyGraph {
        self.graph
    }

    /// Run a whole script, stopping at the first `MATCH`.
    pub fn run(&mut self, script: &Script, mode: Mode) -> Result<()> {
        let Mode::CreateOnly = mode;
        for stmt in &script.statements {
            match stmt {
                Statement::Create(patterns) => self.run_create(patterns, false),
                Statement::Merge(patterns) => self.run_create(patterns, true),
                Statement::Match { .. } => {
                    return Err(CypherError::SpuriousMatch {
                        pos: crate::error::Pos::default(),
                    })
                }
            }
        }
        Ok(())
    }

    fn run_create(&mut self, patterns: &[PathPattern], merge: bool) {
        for path in patterns {
            let mut prev = self.materialize_node(&path.start, merge);
            for (rel, node) in &path.hops {
                let next = self.materialize_node(node, merge);
                let (src, dst) = match rel.direction {
                    Direction::Out => (prev, next),
                    Direction::In => (next, prev),
                };
                self.graph.add_rel(Relationship {
                    src,
                    dst,
                    rel_type: rel
                        .rel_type
                        .clone()
                        .unwrap_or_else(|| "RELATED_TO".to_string()),
                    props: rel.props.iter().cloned().collect(),
                });
                prev = next;
            }
        }
    }

    /// Create or re-use the node a pattern denotes; merge labels/props
    /// into an existing binding. With `merge = true` (the `MERGE`
    /// statement), an unbound pattern first searches the graph for a
    /// structurally matching node before creating one.
    fn materialize_node(&mut self, pat: &NodePattern, merge: bool) -> NodeId {
        if let Some(var) = &pat.var {
            if let Some(&id) = self.bindings.get(var) {
                let node = self.graph.node_mut(id);
                for l in &pat.labels {
                    if !node.labels.contains(l) {
                        node.labels.push(l.clone());
                    }
                }
                for (k, v) in &pat.props {
                    node.props.insert(k.clone(), v.clone());
                }
                return id;
            }
        }
        if merge && (!pat.labels.is_empty() || !pat.props.is_empty()) {
            let found = self
                .graph
                .nodes()
                .find(|(_, node)| {
                    pat.labels.iter().all(|l| node.labels.contains(l))
                        && pat
                            .props
                            .iter()
                            .all(|(k, v)| node.props.get(k).is_some_and(|nv| nv == v))
                })
                .map(|(id, _)| id);
            if let Some(id) = found {
                if let Some(var) = &pat.var {
                    self.bindings.insert(var.clone(), id);
                }
                return id;
            }
        }
        let id = self.graph.add_node(Node {
            labels: pat.labels.clone(),
            props: pat.props.iter().cloned().collect(),
        });
        if let Some(var) = &pat.var {
            self.bindings.insert(var.clone(), id);
        }
        id
    }
}

/// Parse and run `src` in [`Mode::CreateOnly`], returning the built graph.
/// This is the exact operation the paper performs on LLM pseudo-graph
/// output ("run the Cypher queries on Neo4j and decode them into
/// triples").
pub fn build_graph(src: &str) -> Result<PropertyGraph> {
    let script = crate::parser::parse(src)?;
    let mut exec = Executor::new();
    exec.run(&script, Mode::CreateOnly)?;
    Ok(exec.into_graph())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use kgstore::Value;

    fn run_create_only(src: &str) -> PropertyGraph {
        let script = parse(src).unwrap();
        let mut exec = Executor::new();
        exec.run(&script, Mode::CreateOnly).unwrap();
        exec.into_graph()
    }

    #[test]
    fn create_builds_nodes_and_rels() {
        let g = run_create_only(
            "CREATE (andes:MountainRange {name: \"Andes\"})\n\
             CREATE (andes)-[:COVERS]->(peru:Country {name: \"Peru\"})",
        );
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.rel_count(), 1);
        assert_eq!(g.rels()[0].rel_type, "COVERS");
    }

    #[test]
    fn variable_reuse_across_statements() {
        let g = run_create_only(
            "CREATE (a:X {name: \"A\"})\n\
             CREATE (a)-[:R]->(b:Y {name: \"B\"})\n\
             CREATE (a)-[:R]->(c:Z {name: \"C\"})",
        );
        assert_eq!(
            g.node_count(),
            3,
            "variable a must be reused, not re-created"
        );
        assert_eq!(g.rel_count(), 2);
    }

    #[test]
    fn rebinding_merges_labels_and_props() {
        let g = run_create_only("CREATE (a:X)\nCREATE (a:Y {name: \"A\"})");
        assert_eq!(g.node_count(), 1);
        let (_, node) = g.nodes().next().unwrap();
        assert_eq!(node.labels, ["X", "Y"]);
        assert_eq!(node.props.get("name"), Some(&Value::Str("A".into())));
    }

    #[test]
    fn incoming_direction_reverses_edge() {
        let g = run_create_only("CREATE (a {name: \"A\"})<-[:IN]-(b {name: \"B\"})");
        let rel = &g.rels()[0];
        assert_eq!(g.node(rel.src).display_name(rel.src), "B");
        assert_eq!(g.node(rel.dst).display_name(rel.dst), "A");
    }

    #[test]
    fn create_only_mode_rejects_match() {
        let script = parse("MATCH (x) RETURN x").unwrap();
        let mut exec = Executor::new();
        let err = exec.run(&script, Mode::CreateOnly).unwrap_err();
        assert!(err.is_spurious_match());
    }

    #[test]
    fn merge_reuses_matching_nodes() {
        let g = run_create_only(
            "CREATE (a:Country {name: \"Peru\"})\n\
             MERGE (b:Country {name: \"Peru\"})\n\
             MERGE (c:Country {name: \"Chile\"})",
        );
        assert_eq!(g.node_count(), 2, "MERGE must reuse the existing Peru node");
    }

    #[test]
    fn merge_in_paths_deduplicates_endpoints() {
        let g = run_create_only(
            "CREATE (andes:MountainRange {name: \"Andes\"})\n\
             MERGE (x:MountainRange {name: \"Andes\"})-[:COVERS]->(peru:Country {name: \"Peru\"})",
        );
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.rel_count(), 1);
    }

    #[test]
    fn merge_rejected_in_create_only_is_not_required() {
        // MERGE is construction, so it is legal in CreateOnly mode.
        let script = parse("MERGE (a:Lake {name: \"Erie\"})").unwrap();
        let mut exec = Executor::new();
        exec.run(&script, Mode::CreateOnly).unwrap();
        assert_eq!(exec.graph().node_count(), 1);
    }

    #[test]
    fn build_graph_decodes_paper_example() {
        let g = build_graph(
            "CREATE (visionpro:Device {name: \"Apple Vision Pro\"})\n\
             CREATE (visionpro)-[:COMES_WITH]->(chip:Chip {name: \"M2\"})",
        )
        .unwrap();
        let triples = g.decode_triples();
        assert!(triples
            .iter()
            .any(|t| t.s == "Apple Vision Pro" && t.p == "COMES_WITH" && t.o == "M2"));
    }
}
