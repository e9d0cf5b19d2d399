//! # cypher — a Cypher-subset engine over the kgstore property graph
//!
//! The paper uses programming languages "as an intermediary bridge
//! between natural language and triples": the LLM is prompted to write
//! Cypher `CREATE` statements, which are executed on Neo4j and decoded
//! back into triples. This crate is that substrate:
//!
//! * [`lexer`] / [`parser`] / [`ast`] — a recursive-descent front-end for
//!   the subset LLM prompts elicit (`CREATE`/`MERGE` node/relationship
//!   patterns, property maps, multi-hop paths, plus `MATCH … RETURN`,
//!   which parses so it can be linted and repaired);
//! * [`exec`] — a construction-only engine: `CREATE`/`MERGE`
//!   materialisation into [`kgstore::PropertyGraph`] with cross-statement
//!   variable bindings; a `MATCH` is the spurious-match error;
//! * [`decode`] — the pseudo-graph decode step (graph → `<s> <p> <o>`
//!   triples), including tolerant extraction of Cypher from raw LLM prose;
//! * [`analyze`] / [`diag`] — `cylint`, a static semantic analyzer with
//!   stable `CY00x` diagnostic codes and an auto-[`repair`] pass that
//!   salvages scripts the paper's pipeline would discard;
//! * [`error`] — taxonomy matching the paper's §4.6.1 error analysis
//!   (the spurious-`MATCH` failure mode is a first-class variant).

#![warn(missing_docs)]

pub mod analyze;
pub mod ast;
pub mod decode;
pub mod diag;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod parser;

pub use analyze::{analyze, analyze_spanned, lint, repair, RepairOutcome};
pub use ast::{Direction, NodePattern, PathPattern, RelPattern, ReturnItem, Script, Statement};
pub use decode::{decode_llm_output, decode_script, extract_cypher};
pub use diag::{AppliedFix, Code, Diagnostic, Severity};
pub use error::{CypherError, Pos};
pub use exec::{build_graph, Executor, Mode};
pub use parser::{parse, parse_spanned, SpannedScript};
