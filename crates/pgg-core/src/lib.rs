//! # pgg-core — Pseudo-Graph Generation + Atomic Knowledge Verification
//!
//! The paper's contribution: a training-free, linking-free framework
//! that lets an LLM use knowledge graphs for open-ended question
//! answering across KG sources.
//!
//! * [`pipeline`] — the four-step method (pseudo-graph generation,
//!   semantic querying + two-step pruning, verification, answer
//!   generation), with the pseudo-only ablation;
//! * [`retrieval`] — semantic querying and the two pruning steps;
//! * [`baselines`] — IO, CoT, Self-Consistency, QSM;
//! * [`method`] — the shared [`Method`] trait, traces, Table-1
//!   capability rows;
//! * [`runner`] — parallel (method × dataset) evaluation with
//!   per-question records, per-question panic isolation, and
//!   transport-fault telemetry;
//! * [`resilience`] — retry/circuit-breaker middleware over the fallible
//!   LLM transport, plus the per-stage degradation helpers;
//! * [`serve`] — the fault-hardened concurrent QA service: bounded
//!   admission, per-question deadlines, breaker-driven load shedding,
//!   all deterministic on the virtual clock;
//! * [`config`] — pipeline knobs and the paper's experiment constants.

#![warn(missing_docs)]

pub mod baselines;
pub mod config;
pub mod method;
pub mod pipeline;
mod pool;
pub mod prune;
pub mod resilience;
pub mod retrieval;
pub mod runner;
pub mod serve;
pub mod timing;

pub use baselines::{Cot, Io, Qsm, SelfConsistency};
pub use config::{paper, PipelineConfig};
pub use method::{
    capability_row, BaseRef, Capabilities, Method, MethodOutput, QaContext, StageTiming, Trace,
};
pub use pipeline::{PseudoGraphPipeline, Stages};
pub use prune::{Candidate, PruneStrategy};
pub use resilience::{
    best_effort_answer, Admit, Breaker, BreakerState, BreakerTransition, ResilienceConfig,
    ResilientLlm, StageCall,
};
pub use retrieval::{
    ground_graph, ground_graph_with, BaseIndex, CacheStats, GroundBatchFn, QuerySlot,
    RetrievalMode, RetrievalStats, ScoringMode, ScoringStats,
};
pub use runner::{run, score_answer, FaultSummary, Record, RunError, RunResult, StageAgg};
pub use serve::{
    serve, Arrival, BatchTelemetry, Disposition, OfferedTrace, Outcome, ServeConfig, ServeReport,
    ShedReason,
};
pub use timing::{install_wall_clock, wall_ns};
