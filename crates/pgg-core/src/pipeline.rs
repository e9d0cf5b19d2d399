//! The paper's method: Pseudo-Graph Generation + Atomic Knowledge
//! Verification (+ graph-grounded Answer Generation).
//!
//! `PseudoGraphOnly` is the Table-4/5 ablation: answer straight from
//! the pseudo-graph, skipping retrieval and verification.
//!
//! `drive` is the one composition of the four stages. The runner calls
//! it through [`PseudoGraphPipeline`]'s [`Method::answer`] with an
//! unbounded budget; each serving worker calls it with the time left to
//! the question's deadline.

use crate::method::{Method, MethodOutput, QaContext, StageTiming, Trace};
use crate::resilience::{best_effort_answer, complete_or_degrade, ResilientLlm};
use crate::retrieval::{ground_graph, BaseIndex};
use cypher::{extract_cypher, Executor, Mode, Severity};
use kgstore::StrTriple;
use simllm::{parse_triple_lines, prompt, GroundGraph, LlmTask};
use worldgen::Question;

/// Which stages of the pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stages {
    /// Pseudo-graph generation only (ablation row "Pseudo-Graph").
    PseudoOnly,
    /// Full pipeline (row "Ours" / "Verification").
    Full,
}

/// The pipeline method.
pub struct PseudoGraphPipeline {
    stages: Stages,
}

impl PseudoGraphPipeline {
    /// The full method (the paper's "Ours").
    pub fn full() -> Self {
        Self {
            stages: Stages::Full,
        }
    }

    /// The pseudo-graph-only ablation.
    pub fn pseudo_only() -> Self {
        Self {
            stages: Stages::PseudoOnly,
        }
    }
}

/// Virtual-time prices of one question's stages, charged on its
/// resilience clock by [`drive`]: the runner's per-stage virtual
/// columns and the server's service times are in one currency.
pub(crate) const STAGE_OVERHEAD_MS: u64 = 20;
/// Per-transport-attempt virtual price (see [`STAGE_OVERHEAD_MS`]).
pub(crate) const ATTEMPT_COST_MS: u64 = 80;
/// Per-retrieval-query virtual price (see [`STAGE_OVERHEAD_MS`]).
pub(crate) const QUERY_COST_MS: u64 = 2;

/// Answer one question: the four stages on one question-scoped
/// resilience clock, with a budget check before each stage after the
/// first.
///
/// Every stage is charged on the clock — its overhead when it starts,
/// its transport attempts when it ends, plus the retry backoff the
/// middleware waits in between — and records that delta (and its wall
/// time) as its [`StageTiming`], so `trace.virtual_ms()` is the
/// question's virtual service time.
///
/// Charging cannot change an answer. Breakers key on the task kind and
/// each kind is called from one stage only, so a breaker is created,
/// tripped and cooled down inside one stage, where only retry backoff
/// moves the clock: the charges before that stage shift all its
/// readings by one constant, and trip and cool-down compare
/// differences. `each_task_kind_stays_in_one_stage_that_prices_it_exactly`
/// fails if a stage starts reusing another stage's kind.
///
/// The budget is stage-granular: a stage that starts runs to
/// completion, and the *next* stage is skipped once the clock has
/// reached `budget_ms`. Skipping degrades, it never drops the answer:
///
/// * budget burned before grounding ⇒ `deadline:skip-ground`, the
///   pseudo-graph stands unverified;
/// * budget burned before verification ⇒ `deadline:skip-verify`,
///   likewise;
/// * budget burned before answering ⇒ `deadline:best-effort-answer`,
///   the answer is assembled from the graph without another LLM call.
pub(crate) fn drive(
    ctx: &QaContext<'_>,
    q: &Question,
    stages: Stages,
    budget_ms: u64,
) -> MethodOutput {
    // Question-scoped middleware: breaker state and the virtual clock
    // live and die with this one answer, so a parallel run's schedule
    // matches a serial run's exactly.
    let rl = ResilientLlm::new(ctx.llm, &ctx.cfg.resilience);
    let mut trace = Trace::default();
    let over_budget = || rl.virtual_elapsed_ms() >= budget_ms;

    // Step 1 — Pseudo-Graph Generation always runs: without it there is
    // nothing to degrade *to*.
    let pseudo = timed(&rl, &mut trace, "pseudo", |t| {
        pseudo_graph_stage(ctx, &rl, q, t)
    });

    let graph = match stages {
        Stages::PseudoOnly => pseudo,
        Stages::Full => {
            let fixed = if over_budget() {
                trace.degradation.push("deadline:skip-ground".into());
                pseudo
            } else {
                // Step 2 — Semantic Querying + two-step pruning.
                let ground = timed(&rl, &mut trace, "ground", |t| {
                    let base = ctx.base_for(&q.text);
                    let ground = ground_stage(ctx, &base, &pseudo, t);
                    if !pseudo.is_empty() && !base.is_empty() {
                        // One query slot per pseudo triple, exactly
                        // the slots grounding searched.
                        rl.advance_clock(QUERY_COST_MS * pseudo.len() as u64);
                    }
                    ground
                });
                if over_budget() {
                    trace.degradation.push("deadline:skip-verify".into());
                    pseudo
                } else {
                    // Step 3 — Pseudo-Graph Verification (single pass,
                    // or the majority-voted multi-pass extension).
                    timed(&rl, &mut trace, "verify", |t| {
                        verify_stage(ctx, &rl, q, &pseudo, &ground, t)
                    })
                }
            };
            trace.fixed_triples = fixed.clone();
            fixed
        }
    };

    // Step 4 — Answer Generation. An answer is always produced; over
    // budget it comes from the graph instead of another transport
    // round-trip.
    let answer = if over_budget() {
        trace.degradation.push("deadline:best-effort-answer".into());
        best_effort_answer(&graph)
    } else {
        timed(&rl, &mut trace, "answer", |t| {
            answer_stage(&rl, q, &graph, t)
        })
    };
    MethodOutput { answer, trace }
}

/// Run one stage on the question's clock: charge the stage overhead on
/// entry and the attempts of the LLM calls it recorded on exit, and
/// push the clock's delta with the wall time as the stage's timing.
fn timed<T>(
    rl: &ResilientLlm<'_>,
    trace: &mut Trace,
    stage: &str,
    run: impl FnOnce(&mut Trace) -> T,
) -> T {
    let wall0 = crate::timing::wall_ns();
    let clock0 = rl.virtual_elapsed_ms();
    let calls0 = trace.llm_calls.len();
    rl.advance_clock(STAGE_OVERHEAD_MS);
    let out = run(trace);
    let attempts: u64 = trace.llm_calls[calls0..]
        .iter()
        .map(|c| u64::from(c.attempts))
        .sum();
    rl.advance_clock(ATTEMPT_COST_MS * attempts);
    trace.stages.push(StageTiming {
        stage: stage.to_string(),
        virtual_ms: rl.virtual_elapsed_ms() - clock0,
        wall_ns: crate::timing::wall_ns().saturating_sub(wall0),
    });
    out
}

/// Step 1: generate + decode the pseudo-graph, with the `cylint`
/// analyze → repair pass in between. `trace.cypher_error` always
/// reflects the *raw* script (so §4.6.1 error counts match the
/// paper); when repair is enabled and rescues a raw failure, the
/// salvaged triples are used and `trace.salvaged` is set. With
/// repair disabled a failing script yields an empty graph and
/// answering degrades to CoT, exactly as in the paper.
///
/// Degradation: a truncated completion is salvaged as raw Cypher
/// (`extract_cypher` already tolerates an unterminated fence); any
/// other exhausted failure yields an empty pseudo-graph, so the
/// question degrades to graph-free answering downstream.
fn pseudo_graph_stage(
    ctx: &QaContext<'_>,
    rl: &ResilientLlm<'_>,
    q: &Question,
    trace: &mut Trace,
) -> Vec<StrTriple> {
    let p = prompt::pseudo_graph_prompt(&q.text);
    let Some(raw) = complete_or_degrade(
        rl,
        &p,
        &LlmTask::PseudoGraph { question: q },
        trace,
        "pseudo:truncated-salvage",
        "pseudo:empty-graph",
    ) else {
        return Vec::new();
    };
    trace.pseudo_raw = Some(raw.clone());
    let src = extract_cypher(&raw);
    let spanned = match cypher::parse_spanned(&src) {
        Ok(s) => s,
        Err(e) => {
            // Not even parseable: nothing for the analyzer to work
            // with, no repair possible.
            trace.cypher_error = Some(e.category().to_string());
            return Vec::new();
        }
    };
    trace.diagnostics = cypher::analyze_spanned(&spanned.script, &spanned.spans);
    if let Some(d) = trace
        .diagnostics
        .iter()
        .find(|d| d.severity == Severity::Error)
    {
        trace.cypher_error = Some(d.code.slug().to_string());
    }
    let raw_failed = trace.cypher_error.is_some();
    let script = if ctx.cfg.repair {
        let outcome = cypher::repair(&spanned.script);
        trace.repairs = outcome.fixes.iter().map(|f| f.to_string()).collect();
        outcome.script
    } else {
        spanned.script
    };
    let mut exec = Executor::new();
    match exec.run(&script, Mode::CreateOnly) {
        Ok(_) => {
            trace.salvaged = raw_failed;
            let triples = exec.into_graph().decode_triples();
            trace.pseudo_triples = triples.clone();
            triples
        }
        Err(e) => {
            trace.cypher_error = Some(e.category().to_string());
            Vec::new()
        }
    }
}

/// Step 2: semantic querying + two-step pruning against the base index
/// (one `search_batch` call for all of the question's pseudo-triples),
/// recording the retrieval diagnostics in the trace.
fn ground_stage(
    ctx: &QaContext<'_>,
    base: &BaseIndex,
    pseudo: &[StrTriple],
    trace: &mut Trace,
) -> GroundGraph {
    let source = ctx.source.expect("full pipeline needs a KG source");
    let (ground, stats) = ground_graph(source, base, ctx.embedder, ctx.cfg, pseudo);
    trace.base_triples = stats.base_triples;
    trace.ground_entities = ground
        .entities
        .iter()
        .map(|e| (e.label.clone(), e.score))
        .collect();
    trace.ground_triples = ground.triple_count();
    ground
}

/// Step 3: pseudo-graph verification (single pass, or the
/// majority-voted multi-pass extension), yielding the fixed graph.
///
/// Degradation: an empty ground graph (or every pass exhausted) keeps
/// the pseudo-graph unverified rather than losing it; a truncated
/// verifier output is a valid prefix of the fixed-triple list.
fn verify_stage(
    ctx: &QaContext<'_>,
    rl: &ResilientLlm<'_>,
    q: &Question,
    pseudo: &[StrTriple],
    ground: &GroundGraph,
    trace: &mut Trace,
) -> Vec<StrTriple> {
    if ground.is_empty() {
        // Nothing retrieved: the pseudo-graph stands as-is
        // (robustness: upstream emptiness does not abort the run).
        return pseudo.to_vec();
    }
    if ctx.cfg.verify_passes <= 1 {
        let p = prompt::verify_prompt(&q.text, pseudo, &ground.sections());
        let task = LlmTask::VerifyGraph {
            question: q,
            pseudo,
            ground,
        };
        // A truncated verifier output is a valid prefix of the
        // fixed-triple list; anything else exhausted keeps the
        // pseudo-graph unverified rather than losing it.
        match complete_or_degrade(
            rl,
            &p,
            &task,
            trace,
            "verify:truncated-prefix",
            "verify:unverified",
        ) {
            Some(text) => parse_triple_lines(&text),
            None => pseudo.to_vec(),
        }
    } else {
        let p = prompt::verify_prompt(&q.text, pseudo, &ground.sections());
        let mut runs: Vec<Vec<StrTriple>> = Vec::new();
        let mut dropped = 0u32;
        for i in 0..ctx.cfg.verify_passes {
            let (res, call) = rl.complete(
                &p,
                &LlmTask::VerifyGraphSample {
                    question: q,
                    pseudo,
                    ground,
                    index: i,
                },
            );
            trace.llm_calls.push(call);
            match res {
                Ok(c) => runs.push(parse_triple_lines(&c.text)),
                Err(e) => match e.partial_text() {
                    Some(t) if !t.is_empty() => {
                        trace.degradation.push("verify:truncated-prefix".into());
                        runs.push(parse_triple_lines(t));
                    }
                    // A failed pass is dropped from the tally; the
                    // vote runs over the survivors.
                    _ => dropped += 1,
                },
            }
        }
        if dropped > 0 {
            trace
                .degradation
                .push(format!("verify:dropped-passes:{dropped}"));
        }
        if runs.is_empty() {
            trace.degradation.push("verify:unverified".into());
            pseudo.to_vec()
        } else {
            majority_vote(&runs)
        }
    }
}

/// Final step: answer from a graph (Figure 5). An empty graph makes
/// the model fall back to its own reasoning.
///
/// Degradation: a truncated completion is used as-is; any other
/// exhausted failure assembles a best-effort answer from the graph's
/// object strings — a degraded question is still answered.
fn answer_stage(
    rl: &ResilientLlm<'_>,
    q: &Question,
    graph: &[StrTriple],
    trace: &mut Trace,
) -> String {
    let p = prompt::answer_prompt(&q.text, graph);
    complete_or_degrade(
        rl,
        &p,
        &LlmTask::AnswerFromGraph { question: q, graph },
        trace,
        "answer:truncated",
        "answer:graph-objects",
    )
    .unwrap_or_else(|| best_effort_answer(graph))
}

/// Keep the triples present in a strict majority of verification runs,
/// ordered by first appearance. Each triple is normalized exactly once;
/// the tally and emission passes share the precomputed keys instead of
/// re-lowercasing (and re-cloning) per lookup.
fn majority_vote(runs: &[Vec<StrTriple>]) -> Vec<StrTriple> {
    let need = runs.len() as u32 / 2 + 1;
    let normed: Vec<Vec<(String, String, String)>> = runs
        .iter()
        .map(|run| {
            run.iter()
                .map(|t| (t.s.to_lowercase(), t.p.to_lowercase(), t.o.to_lowercase()))
                .collect()
        })
        .collect();
    let mut counts: std::collections::HashMap<&(String, String, String), u32> =
        std::collections::HashMap::new();
    for run in &normed {
        let mut seen = std::collections::HashSet::new();
        for key in run {
            if seen.insert(key) {
                *counts.entry(key).or_default() += 1;
            }
        }
    }
    let mut out = Vec::new();
    let mut emitted = std::collections::HashSet::new();
    for (run, keys) in runs.iter().zip(&normed) {
        for (t, key) in run.iter().zip(keys) {
            if counts.get(key).copied().unwrap_or(0) >= need && emitted.insert(key) {
                out.push(t.clone());
            }
        }
    }
    out
}

impl Method for PseudoGraphPipeline {
    fn name(&self) -> &'static str {
        match self.stages {
            Stages::PseudoOnly => "Pseudo-Graph",
            Stages::Full => "Ours",
        }
    }

    fn needs_kg(&self) -> bool {
        self.stages == Stages::Full
    }

    fn answer(&self, ctx: &QaContext<'_>, q: &Question) -> MethodOutput {
        drive(ctx, q, self.stages, u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use semvec::Embedder;
    use simllm::{LanguageModel, ModelProfile, SimLlm};
    use std::sync::Arc;
    use worldgen::{datasets::simpleq, derive, generate, SourceConfig, WorldConfig};

    fn setup() -> (Arc<worldgen::World>, SimLlm, kgstore::KgSource) {
        let world = Arc::new(generate(&WorldConfig::default()));
        let llm = SimLlm::new(world.clone(), ModelProfile::gpt35_sim());
        let src = derive(&world, &SourceConfig::wikidata());
        (world, llm, src)
    }

    #[test]
    fn full_pipeline_produces_traced_answers() {
        let (world, llm, src) = setup();
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let ctx = QaContext {
            llm: &llm,
            source: Some(&src),
            base: None,
            embedder: &emb,
            cfg: &cfg,
        };
        let ds = simpleq::generate(&world, 10, 1);
        let pipeline = PseudoGraphPipeline::full();
        let mut grounded = 0;
        for q in &ds.questions {
            let out = pipeline.answer(&ctx, q);
            assert!(!out.answer.is_empty());
            assert!(out.trace.pseudo_raw.is_some());
            if !out.trace.ground_entities.is_empty() {
                grounded += 1;
                assert!(!out.trace.fixed_triples.is_empty());
            }
        }
        assert!(grounded >= 5, "most questions should ground: {grounded}/10");
    }

    #[test]
    fn pseudo_only_skips_retrieval() {
        let (world, llm, src) = setup();
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let ctx = QaContext {
            llm: &llm,
            source: Some(&src),
            base: None,
            embedder: &emb,
            cfg: &cfg,
        };
        let ds = simpleq::generate(&world, 5, 2);
        let pipeline = PseudoGraphPipeline::pseudo_only();
        for q in &ds.questions {
            let out = pipeline.answer(&ctx, q);
            assert!(out.trace.ground_entities.is_empty());
            assert_eq!(out.trace.base_triples, 0);
            assert!(!out.answer.is_empty());
        }
    }

    #[test]
    fn pipeline_is_deterministic() {
        let (world, llm, src) = setup();
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let ctx = QaContext {
            llm: &llm,
            source: Some(&src),
            base: None,
            embedder: &emb,
            cfg: &cfg,
        };
        let ds = simpleq::generate(&world, 5, 3);
        let pipeline = PseudoGraphPipeline::full();
        for q in &ds.questions {
            assert_eq!(
                pipeline.answer(&ctx, q).answer,
                pipeline.answer(&ctx, q).answer
            );
        }
    }

    #[test]
    fn cypher_failure_is_recorded_and_survivable() {
        let (world, _, src) = setup();
        let mut p = ModelProfile::gpt35_sim();
        p.cypher_match_rate = 1.0;
        let llm = SimLlm::new(world.clone(), p);
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let ctx = QaContext {
            llm: &llm,
            source: Some(&src),
            base: None,
            embedder: &emb,
            cfg: &cfg,
        };
        let ds = simpleq::generate(&world, 3, 4);
        let pipeline = PseudoGraphPipeline::full();
        for q in &ds.questions {
            let out = pipeline.answer(&ctx, q);
            assert_eq!(out.trace.cypher_error.as_deref(), Some("spurious-match"));
            assert!(!out.answer.is_empty(), "must still answer");
        }
    }

    #[test]
    fn repair_salvages_some_spurious_match_scripts() {
        let (world, _, src) = setup();
        let mut p = ModelProfile::gpt35_sim();
        p.cypher_match_rate = 1.0; // every script fails raw
        let llm = SimLlm::new(world.clone(), p);
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        assert!(cfg.repair, "repair must be on by default");
        let ctx = QaContext {
            llm: &llm,
            source: Some(&src),
            base: None,
            embedder: &emb,
            cfg: &cfg,
        };
        let ds = simpleq::generate(&world, 20, 8);
        let pipeline = PseudoGraphPipeline::full();
        let mut salvaged = 0;
        for q in &ds.questions {
            let out = pipeline.answer(&ctx, q);
            // Raw failure is still recorded (paper's §4.6.1 counts)…
            assert_eq!(out.trace.cypher_error.as_deref(), Some("spurious-match"));
            assert!(
                out.trace
                    .diagnostics
                    .iter()
                    .any(|d| d.code == cypher::Code::SpuriousMatch),
                "CY001 must be among the diagnostics"
            );
            assert!(
                !out.trace.repairs.is_empty(),
                "repair log must record the dropped MATCH"
            );
            // …and repair always makes the script executable.
            assert!(out.trace.salvaged);
            if !out.trace.pseudo_triples.is_empty() {
                salvaged += 1;
            }
        }
        assert!(
            salvaged > 5,
            "mixed outputs must yield salvaged triples: {salvaged}/20"
        );
    }

    #[test]
    fn repair_off_reproduces_paper_discard() {
        let (world, _, src) = setup();
        let mut p = ModelProfile::gpt35_sim();
        p.cypher_match_rate = 1.0;
        let llm = SimLlm::new(world.clone(), p);
        let emb = Embedder::default();
        let cfg = PipelineConfig {
            repair: false,
            ..Default::default()
        };
        let ctx = QaContext {
            llm: &llm,
            source: Some(&src),
            base: None,
            embedder: &emb,
            cfg: &cfg,
        };
        let ds = simpleq::generate(&world, 5, 9);
        let pipeline = PseudoGraphPipeline::full();
        for q in &ds.questions {
            let out = pipeline.answer(&ctx, q);
            assert_eq!(out.trace.cypher_error.as_deref(), Some("spurious-match"));
            assert!(!out.trace.salvaged);
            assert!(out.trace.repairs.is_empty());
            assert!(
                out.trace.pseudo_triples.is_empty(),
                "paper mode discards the whole script"
            );
            assert!(!out.answer.is_empty(), "answering still degrades to CoT");
        }
    }

    #[test]
    fn healthy_scripts_are_not_marked_salvaged() {
        let (world, llm, src) = setup();
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let ctx = QaContext {
            llm: &llm,
            source: Some(&src),
            base: None,
            embedder: &emb,
            cfg: &cfg,
        };
        let ds = simpleq::generate(&world, 10, 10);
        let pipeline = PseudoGraphPipeline::full();
        for q in &ds.questions {
            let out = pipeline.answer(&ctx, q);
            if out.trace.cypher_error.is_none() {
                assert!(!out.trace.salvaged);
            }
        }
    }

    #[test]
    fn majority_vote_keeps_stable_triples() {
        let t = |o: &str| kgstore::StrTriple::new("s", "p", o);
        let runs = vec![
            vec![t("a"), t("b")],
            vec![t("a"), t("c")],
            vec![t("a"), t("b")],
        ];
        let voted = super::majority_vote(&runs);
        assert_eq!(
            voted,
            vec![t("a"), t("b")],
            "a (3/3) and b (2/3) survive; c (1/3) dies"
        );
    }

    #[test]
    fn multi_pass_verification_runs_and_scores() {
        let (world, llm, src) = setup();
        let emb = Embedder::default();
        let cfg = PipelineConfig {
            verify_passes: 3,
            ..Default::default()
        };
        let ctx = QaContext {
            llm: &llm,
            source: Some(&src),
            base: None,
            embedder: &emb,
            cfg: &cfg,
        };
        let ds = simpleq::generate(&world, 5, 6);
        let pipeline = PseudoGraphPipeline::full();
        for q in &ds.questions {
            let out = pipeline.answer(&ctx, q);
            assert!(!out.answer.is_empty());
        }
    }

    #[test]
    fn zero_fault_rate_is_byte_identical_to_the_bare_model() {
        use simllm::{FaultPlan, FaultyLlm};
        let (world, llm, src) = setup();
        let faulty = FaultyLlm::new(
            SimLlm::new(world.clone(), ModelProfile::gpt35_sim()),
            FaultPlan::none(42),
        );
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let plain_ctx = QaContext {
            llm: &llm,
            source: Some(&src),
            base: None,
            embedder: &emb,
            cfg: &cfg,
        };
        let faulty_ctx = QaContext {
            llm: &faulty,
            source: Some(&src),
            base: None,
            embedder: &emb,
            cfg: &cfg,
        };
        let ds = simpleq::generate(&world, 8, 11);
        let pipeline = PseudoGraphPipeline::full();
        for q in &ds.questions {
            let a = pipeline.answer(&plain_ctx, q);
            let b = pipeline.answer(&faulty_ctx, q);
            assert_eq!(a.answer, b.answer, "rate 0 must be transparent");
            assert_eq!(a.trace.fixed_triples, b.trace.fixed_triples);
            assert!(b.trace.degradation.is_empty());
            assert!(b.trace.llm_calls.iter().all(|c| c.attempts == 1));
        }
        assert_eq!(faulty.faults_injected(), 0);
    }

    #[test]
    fn faulty_transport_always_yields_an_answer() {
        use simllm::{FaultPlan, FaultyLlm};
        let (world, _, src) = setup();
        let faulty = FaultyLlm::new(
            SimLlm::new(world.clone(), ModelProfile::gpt35_sim()),
            FaultPlan::uniform(7, 0.5),
        );
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let ctx = QaContext {
            llm: &faulty,
            source: Some(&src),
            base: None,
            embedder: &emb,
            cfg: &cfg,
        };
        let ds = simpleq::generate(&world, 20, 12);
        let pipeline = PseudoGraphPipeline::full();
        let mut degraded = 0;
        for q in &ds.questions {
            let out = pipeline.answer(&ctx, q);
            assert!(!out.answer.is_empty(), "degraded, never missing: {}", q.id);
            assert!(!out.trace.llm_calls.is_empty());
            if !out.trace.degradation.is_empty() {
                degraded += 1;
            }
        }
        assert!(
            faulty.faults_injected() > 0,
            "a 0.5 total rate must inject faults"
        );
        // With retries most faults recover silently; at this rate at
        // least one question should still have taken a degraded path.
        assert!(degraded >= 1, "expected some degradation at rate 0.5");
    }

    #[test]
    fn telemetry_shows_three_llm_calls_for_full_pipeline() {
        let (world, llm, src) = setup();
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let ctx = QaContext {
            llm: &llm,
            source: Some(&src),
            base: None,
            embedder: &emb,
            cfg: &cfg,
        };
        let ds = simpleq::generate(&world, 1, 5);
        let before = llm.call_count();
        let out = PseudoGraphPipeline::full().answer(&ctx, &ds.questions[0]);
        let calls = llm.call_count() - before;
        // pseudo + (verify if grounded) + answer
        if out.trace.ground_entities.is_empty() {
            assert_eq!(calls, 2);
        } else {
            assert_eq!(calls, 3);
        }
    }

    #[test]
    fn stage_breakdown_is_deterministic_and_wall_free() {
        let (world, llm, src) = setup();
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let ctx = QaContext {
            llm: &llm,
            source: Some(&src),
            base: None,
            embedder: &emb,
            cfg: &cfg,
        };
        let ds = simpleq::generate(&world, 4, 9);
        let pipeline = PseudoGraphPipeline::full();
        for q in &ds.questions {
            let a = pipeline.answer(&ctx, q);
            let b = pipeline.answer(&ctx, q);
            assert_eq!(a.trace.stages, b.trace.stages, "stage timing must be pure");
            let names: Vec<&str> = a.trace.stages.iter().map(|s| s.stage.as_str()).collect();
            assert_eq!(names, ["pseudo", "ground", "verify", "answer"]);
            for s in &a.trace.stages {
                // Every stage pays its overhead; no clock installed in
                // tests, so wall readings stay at the zero default.
                assert!(
                    s.virtual_ms >= STAGE_OVERHEAD_MS,
                    "{}: {}",
                    s.stage,
                    s.virtual_ms
                );
                assert_eq!(
                    s.wall_ns, 0,
                    "{}: wall must be zero without a clock",
                    s.stage
                );
            }
            // LLM-bearing stages price their attempts on top.
            assert!(a.trace.stages[0].virtual_ms >= STAGE_OVERHEAD_MS + ATTEMPT_COST_MS);
            assert!(a.trace.stages[3].virtual_ms >= STAGE_OVERHEAD_MS + ATTEMPT_COST_MS);
        }
        // The pseudo-only ablation has exactly its two stages.
        let out = PseudoGraphPipeline::pseudo_only().answer(&ctx, &ds.questions[0]);
        let names: Vec<&str> = out.trace.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(names, ["pseudo", "answer"]);
    }

    /// The per-kind argument behind [`drive`] charging the clock: each
    /// LLM task kind is called from one stage only (one contiguous run
    /// of `llm_calls`), so every breaker lives inside one stage, and
    /// each stage's virtual time is exactly its overhead, attempts,
    /// backoff and queries. If a later stage reuses a task kind, this
    /// fails, and the argument in `drive`'s docs must be redone.
    #[test]
    fn each_task_kind_stays_in_one_stage_that_prices_it_exactly() {
        use simllm::{FaultPlan, FaultyLlm};
        let (world, _, src) = setup();
        let emb = Embedder::default();
        let ds = simpleq::generate(&world, 12, 14);
        let mut fast_failed = 0;
        for verify_passes in [1, 3] {
            let cfg = PipelineConfig {
                verify_passes,
                ..Default::default()
            };
            let faulty = FaultyLlm::new(
                SimLlm::new(world.clone(), ModelProfile::gpt35_sim()),
                FaultPlan::uniform(0xC10C, 0.8),
            );
            let ctx = QaContext {
                llm: &faulty,
                source: Some(&src),
                base: None,
                embedder: &emb,
                cfg: &cfg,
            };
            for stages in [Stages::Full, Stages::PseudoOnly] {
                for q in &ds.questions {
                    let out = drive(&ctx, q, stages, u64::MAX);
                    let calls = &out.trace.llm_calls;
                    let mut runs: Vec<&str> = Vec::new();
                    for (i, c) in calls.iter().enumerate() {
                        if i == 0 || calls[i - 1].stage != c.stage {
                            assert!(
                                !runs.contains(&c.stage.as_str()),
                                "{}: kind {} split across runs: {runs:?}",
                                q.id,
                                c.stage
                            );
                            runs.push(&c.stage);
                        }
                    }
                    for s in &out.trace.stages {
                        let kinds: &[&str] = match s.stage.as_str() {
                            "pseudo" => &["pseudo-graph"],
                            "ground" => &[],
                            "verify" => &["verify", "verify-sample"],
                            "answer" => &["answer"],
                            other => panic!("unexpected stage {other}"),
                        };
                        let priced: u64 = calls
                            .iter()
                            .filter(|c| kinds.contains(&c.stage.as_str()))
                            .map(|c| ATTEMPT_COST_MS * u64::from(c.attempts) + c.backoff_ms)
                            .sum();
                        let pseudo = out.trace.pseudo_triples.len() as u64;
                        let queried =
                            s.stage == "ground" && pseudo > 0 && out.trace.base_triples > 0;
                        let queries = if queried { QUERY_COST_MS * pseudo } else { 0 };
                        assert_eq!(
                            s.virtual_ms,
                            STAGE_OVERHEAD_MS + priced + queries,
                            "{}: stage {}",
                            q.id,
                            s.stage
                        );
                    }
                    fast_failed += calls.iter().filter(|c| c.fast_failed).count();
                }
            }
        }
        assert!(
            fast_failed > 0,
            "the sweep must cover a tripped breaker's fast-failed call"
        );
    }

    #[test]
    fn ample_budget_runs_all_stages_without_deadline_notes() {
        let (world, llm, src) = setup();
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let ctx = QaContext {
            llm: &llm,
            source: Some(&src),
            base: None,
            embedder: &emb,
            cfg: &cfg,
        };
        let ds = simpleq::generate(&world, 5, 21);
        for q in &ds.questions {
            let out = drive(&ctx, q, Stages::Full, u64::MAX);
            assert!(!out.answer.is_empty());
            assert!(
                out.trace
                    .degradation
                    .iter()
                    .all(|d| !d.starts_with("deadline:")),
                "no deadline degradation with an unbounded budget: {:?}",
                out.trace.degradation
            );
            // 3+ stages entered, ≥2 LLM calls: a realistic price tag.
            let service_ms = out.trace.virtual_ms();
            assert!(
                service_ms >= 3 * STAGE_OVERHEAD_MS + 2 * ATTEMPT_COST_MS,
                "{service_ms}"
            );
        }
    }

    #[test]
    fn tiny_budget_degrades_to_a_best_effort_answer() {
        let (world, llm, src) = setup();
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let ctx = QaContext {
            llm: &llm,
            source: Some(&src),
            base: None,
            embedder: &emb,
            cfg: &cfg,
        };
        let ds = simpleq::generate(&world, 5, 22);
        for q in &ds.questions {
            let out = drive(&ctx, q, Stages::Full, 1);
            assert!(!out.answer.is_empty(), "degraded, never missing");
            assert!(out
                .trace
                .degradation
                .contains(&"deadline:skip-ground".to_string()));
            assert!(out
                .trace
                .degradation
                .contains(&"deadline:best-effort-answer".to_string()));
            // Grounding never ran.
            assert_eq!(out.trace.ground_triples, 0);
            assert_eq!(out.trace.base_triples, 0);
        }
    }

    #[test]
    fn mid_budget_skips_verification_but_grounds() {
        let (world, llm, src) = setup();
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let ctx = QaContext {
            llm: &llm,
            source: Some(&src),
            base: None,
            embedder: &emb,
            cfg: &cfg,
        };
        let ds = simpleq::generate(&world, 8, 23);
        let mut skipped_verify = 0;
        for q in &ds.questions {
            // Enough for pseudo (overhead + 1 attempt) + the ground
            // stage, not for verification.
            let full = drive(&ctx, q, Stages::Full, u64::MAX);
            let pseudo_cost = STAGE_OVERHEAD_MS + ATTEMPT_COST_MS; // one clean attempt
            let out = drive(&ctx, q, Stages::Full, pseudo_cost + 1);
            assert!(!out.answer.is_empty());
            if out
                .trace
                .degradation
                .contains(&"deadline:skip-verify".to_string())
            {
                skipped_verify += 1;
                // Grounding did run before the budget died.
                assert_eq!(out.trace.base_triples, full.trace.base_triples);
                // The unverified pseudo-graph stands.
                assert_eq!(out.trace.fixed_triples, out.trace.pseudo_triples);
            }
        }
        assert!(skipped_verify >= 4, "{skipped_verify}/8 should skip verify");
    }

    #[test]
    fn outcome_is_a_pure_function_of_question_and_budget() {
        let (world, llm, src) = setup();
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let ctx = QaContext {
            llm: &llm,
            source: Some(&src),
            base: None,
            embedder: &emb,
            cfg: &cfg,
        };
        let ds = simpleq::generate(&world, 4, 24);
        for q in &ds.questions {
            for budget in [1u64, 150, 400, u64::MAX] {
                let a = drive(&ctx, q, Stages::Full, budget);
                let b = drive(&ctx, q, Stages::Full, budget);
                assert_eq!(a.answer, b.answer);
                assert_eq!(a.trace.virtual_ms(), b.trace.virtual_ms());
                assert_eq!(a.trace.degradation, b.trace.degradation);
            }
        }
    }
}
