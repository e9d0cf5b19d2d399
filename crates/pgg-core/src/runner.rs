//! The experiment runner: evaluate a method over a dataset, in
//! parallel, producing per-question records and aggregate scores.
//!
//! The runner is the robustness boundary of the harness: a question
//! whose method panics, or whose worker thread dies, becomes a
//! scored-as-miss [`Record`] (counted in [`RunResult::errors`]) instead
//! of tearing down the whole sweep. If every worker dies, the questions
//! nobody answered become `missing-record` misses. Misconfiguration (a
//! KG method with no KG source) is a typed [`RunError`] for the caller
//! rather than an abort.
//!
//! # Determinism contract
//!
//! The crate's one worker pool (the `pool` module, which the server
//! uses too) takes question indices off one channel in dataset order,
//! and each answer is filed in its index's slot, so the assembled
//! [`RunResult`] is **byte-identical for any thread count** (asserted
//! by [`RunResult::identity_key`], which digests everything
//! deterministic a record carries and deliberately excludes the
//! wall-clock telemetry — the only schedule-dependent bytes). The
//! contract holds because each question's entire mutable state — the
//! resilience middleware, the fault schedule keyed on (question, task,
//! attempt), the trace — is question-scoped: workers share only
//! immutable references (the same pure-worker argument the serving
//! engine documents).

use crate::config::PipelineConfig;
use crate::method::{Method, QaContext, StageTiming, Trace};
use crate::retrieval::BaseIndex;
use evalkit::{is_hit, rouge_l_multi, HitAccumulator, Prf, RougeAccumulator};
use kgstore::KgSource;
use semvec::Embedder;
use simllm::LanguageModel;
use std::collections::BTreeMap;
use worldgen::{Dataset, Gold, Question};

/// Virtual price of the eval stage (answer scoring). Scoring is pure
/// string work with no transport behind it, so it is priced at the
/// floor; the stage exists so every record — including a stage-less
/// baseline's — occupies a worker in the virtual makespan model.
const EVAL_COST_MS: u64 = 1;

/// One scored question.
#[derive(Debug, Clone)]
pub struct Record {
    /// Question id.
    pub qid: String,
    /// Question text.
    pub question: String,
    /// The method's answer.
    pub answer: String,
    /// Hit@1 outcome (None for ROUGE-scored datasets).
    pub hit: Option<bool>,
    /// ROUGE-L scores (None for Hit@1 datasets).
    pub rouge: Option<Prf>,
    /// Stage trace.
    pub trace: Trace,
}

impl Record {
    /// Virtual service time of this question: the sum of its stage
    /// charges, floored at 1 ms so even a record with no stage
    /// breakdown (a panicked question) occupies a worker in the
    /// makespan model.
    pub fn virtual_ms(&self) -> u64 {
        self.trace.virtual_ms().max(1)
    }
}

/// Aggregated timing of one pipeline stage across a whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageAgg {
    /// Records that entered the stage.
    pub questions: usize,
    /// Total virtual milliseconds charged to the stage.
    pub virtual_ms: u64,
    /// Total wall nanoseconds (0 unless a bench installed the clock —
    /// see [`crate::timing`]).
    pub wall_ns: u64,
}

/// Transport-fault telemetry aggregated over a whole run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSummary {
    /// Transport attempts across all stage-level LLM calls.
    pub attempts: u64,
    /// Faults observed (every failed attempt, whatever its kind).
    pub faults: u64,
    /// Attempts beyond the first per call (the retry overhead).
    pub retries: u64,
    /// Virtual backoff accumulated (ms; never slept).
    pub backoff_ms: u64,
    /// Calls short-circuited by an open circuit breaker.
    pub fast_fails: u64,
    /// Questions that took at least one degradation path.
    pub degraded_questions: usize,
    /// Fault counts by kind slug (`"timeout"`, `"truncated"`, …).
    pub by_kind: BTreeMap<String, u64>,
}

impl FaultSummary {
    fn absorb(&mut self, trace: &Trace) {
        for call in &trace.llm_calls {
            self.attempts += u64::from(call.attempts);
            self.faults += call.faults.len() as u64;
            self.retries += u64::from(call.attempts.saturating_sub(1));
            self.backoff_ms += call.backoff_ms;
            self.fast_fails += u64::from(call.fast_failed);
            for f in &call.faults {
                *self.by_kind.entry(f.clone()).or_default() += 1;
            }
        }
        if !trace.degradation.is_empty() {
            self.degraded_questions += 1;
        }
    }
}

/// Aggregate result of one (method × dataset) run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Method name.
    pub method: String,
    /// Dataset name.
    pub dataset: String,
    /// Hit@1 accumulator (empty for ROUGE datasets).
    pub hit: HitAccumulator,
    /// ROUGE accumulator (empty for Hit@1 datasets).
    pub rouge: RougeAccumulator,
    /// Per-question records, in dataset order.
    pub records: Vec<Record>,
    /// Questions whose method panicked or whose worker died (still
    /// present in `records`, scored as misses with a `panic:…` or
    /// `missing-record` degradation note).
    pub errors: usize,
    /// Transport-fault telemetry aggregated over the run.
    pub faults: FaultSummary,
}

impl RunResult {
    /// The headline score: Hit@1 percent or mean ROUGE-L-F1 percent,
    /// whichever metric the dataset uses.
    pub fn score(&self) -> f64 {
        if self.hit.total > 0 {
            self.hit.percent()
        } else {
            self.rouge.percent()
        }
    }

    /// Per-stage totals over all records, keyed by stage slug in
    /// first-appearance order (pipeline order for pipeline methods).
    pub fn stage_totals(&self) -> Vec<(String, StageAgg)> {
        let mut order: Vec<String> = Vec::new();
        let mut agg: BTreeMap<String, StageAgg> = BTreeMap::new();
        for r in &self.records {
            for s in &r.trace.stages {
                if !agg.contains_key(&s.stage) {
                    order.push(s.stage.clone());
                }
                let e = agg.entry(s.stage.clone()).or_default();
                e.questions += 1;
                e.virtual_ms += s.virtual_ms;
                e.wall_ns += s.wall_ns;
            }
        }
        order
            .into_iter()
            .map(|k| {
                let v = agg.remove(&k).expect("aggregated above");
                (k, v)
            })
            .collect()
    }

    /// Deterministic makespan (virtual ms) of running this result's
    /// per-question service times on `threads` workers under the
    /// runner's in-order list schedule: question `i` goes to the
    /// worker that frees up first, lowest index on ties. The model is
    /// machine-independent — it depends only on the records' virtual
    /// stage charges — which is what lets a single-core CI measure
    /// multi-thread scaling honestly (wall-clock on one core cannot).
    pub fn virtual_makespan_ms(&self, threads: usize) -> u64 {
        let workers = threads.max(1).min(self.records.len().max(1));
        let mut free_at = vec![0u64; workers];
        for r in &self.records {
            let w = (0..workers)
                .min_by_key(|&w| free_at[w])
                .expect("at least one worker");
            free_at[w] += r.virtual_ms();
        }
        free_at.into_iter().max().unwrap_or(0)
    }

    /// Order-sensitive digest of everything deterministic in the run:
    /// answers, scores, degradation notes, per-call transport
    /// telemetry, and the virtual halves of the stage timings. Wall
    /// readings are excluded by design — they are the only
    /// schedule-dependent bytes a record carries — so two runs that
    /// differ only in thread count must produce equal keys.
    pub fn identity_key(&self) -> u64 {
        use kgstore::hash::{mix2, stable_str_hash};
        let mut h = stable_str_hash(&self.method);
        h = mix2(h, stable_str_hash(&self.dataset));
        h = mix2(h, self.errors as u64);
        for r in &self.records {
            h = mix2(h, stable_str_hash(&r.qid));
            h = mix2(h, stable_str_hash(&r.answer));
            h = mix2(
                h,
                match r.hit {
                    None => 2,
                    Some(false) => 0,
                    Some(true) => 1,
                },
            );
            if let Some(p) = &r.rouge {
                h = mix2(h, p.f1.to_bits());
            }
            for d in &r.trace.degradation {
                h = mix2(h, stable_str_hash(d));
            }
            for c in &r.trace.llm_calls {
                h = mix2(h, stable_str_hash(&c.stage));
                h = mix2(h, u64::from(c.attempts));
                h = mix2(h, c.backoff_ms);
                h = mix2(h, c.faults.len() as u64);
            }
            for s in &r.trace.stages {
                h = mix2(h, stable_str_hash(&s.stage));
                h = mix2(h, s.virtual_ms);
            }
        }
        h
    }
}

/// Why a run could not start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A method that needs a KG was handed no source.
    MissingKgSource {
        /// The offending method's name.
        method: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::MissingKgSource { method } => {
                write!(f, "{method} requires a KG source but none was provided")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Score one answer against gold.
pub fn score_answer(answer: &str, gold: &Gold) -> (Option<bool>, Option<Prf>) {
    match gold {
        Gold::Accepted(accepted) => (Some(is_hit(answer, accepted)), None),
        Gold::References(refs) => (None, Some(rouge_l_multi(answer, refs))),
    }
}

/// The scored-as-miss record for a question whose method panicked or
/// whose worker died, or that no worker was left to answer.
fn failed_record(q: &Question, note: String) -> Record {
    let (hit, rouge) = score_answer("", &q.gold);
    Record {
        qid: q.id.clone(),
        question: q.text.clone(),
        answer: String::new(),
        hit,
        rouge,
        trace: Trace {
            degradation: vec![note],
            ..Default::default()
        },
    }
}

/// Run `method` over `dataset` with `threads` workers (`0` = the
/// machine's available parallelism). Outcomes are byte-identical at
/// every thread count (see the module docs).
#[allow(clippy::too_many_arguments)] // the experiment axes are exactly these
pub fn run(
    method: &dyn Method,
    llm: &dyn LanguageModel,
    source: Option<&KgSource>,
    base: Option<&BaseIndex>,
    embedder: &Embedder,
    cfg: &PipelineConfig,
    dataset: &Dataset,
    threads: usize,
) -> Result<RunResult, RunError> {
    if method.needs_kg() && source.is_none() {
        return Err(RunError::MissingKgSource {
            method: method.name().to_string(),
        });
    }
    let ctx = QaContext {
        llm,
        source,
        base,
        embedder,
        cfg,
    };
    let answer = |i: usize| {
        let q = &dataset.questions[i];
        let out = method.answer(&ctx, q);
        let eval0 = crate::timing::wall_ns();
        let (hit, rouge) = score_answer(&out.answer, &q.gold);
        let mut trace = out.trace;
        trace.stages.push(StageTiming {
            stage: "eval".to_string(),
            virtual_ms: EVAL_COST_MS,
            wall_ns: crate::timing::wall_ns().saturating_sub(eval0),
        });
        Record {
            qid: q.id.clone(),
            question: q.text.clone(),
            answer: out.answer,
            hit,
            rouge,
            trace,
        }
    };
    let n = dataset.questions.len();
    let mut records: Vec<Option<Record>> = Vec::with_capacity(n);
    records.resize_with(n, || None);
    crate::pool::with_pool(threads, n, answer, |jobs, answers| {
        for i in 0..n {
            jobs.send(i).expect("the pool holds the job receiver");
        }
        drop(jobs);
        // One question's panic becomes one failed record; the other
        // N−1 questions (and the sweep) are unaffected.
        for (i, rec) in answers {
            let q = &dataset.questions[i];
            records[i] = Some(
                rec.unwrap_or_else(|msg| failed_record(q, format!("panic:{i}:{}:{msg}", q.id))),
            );
        }
    });

    let mut result = RunResult {
        method: method.name().to_string(),
        dataset: dataset.kind.name().to_string(),
        ..Default::default()
    };
    for (i, slot) in records.into_iter().enumerate() {
        let rec = slot
            .unwrap_or_else(|| failed_record(&dataset.questions[i], "missing-record".to_string()));
        if rec
            .trace
            .degradation
            .iter()
            .any(|d| d.starts_with("panic:") || d == "missing-record")
            && rec.answer.is_empty()
        {
            result.errors += 1;
        }
        if let Some(h) = rec.hit {
            result.hit.record(h);
        }
        if let Some(p) = rec.rouge {
            result.rouge.record(p);
        }
        result.faults.absorb(&rec.trace);
        result.records.push(rec);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{Cot, Io};
    use crate::method::MethodOutput;
    use crate::pipeline::PseudoGraphPipeline;
    use simllm::{FaultPlan, FaultyLlm, ModelProfile, SimLlm};
    use std::sync::Arc;
    use worldgen::{
        datasets::nature, datasets::simpleq, derive, generate, SourceConfig, WorldConfig,
    };

    fn setup() -> (Arc<worldgen::World>, SimLlm, kgstore::KgSource) {
        let world = Arc::new(generate(&WorldConfig::default()));
        let llm = SimLlm::new(world.clone(), ModelProfile::gpt35_sim());
        let src = derive(&world, &SourceConfig::wikidata());
        (world, llm, src)
    }

    #[test]
    fn run_scores_hit_datasets() {
        let (world, llm, src) = setup();
        let ds = simpleq::generate(&world, 40, 1);
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let res = run(&Io, &llm, Some(&src), None, &emb, &cfg, &ds, 4).unwrap();
        assert_eq!(res.hit.total, 40);
        assert_eq!(res.rouge.total, 0);
        assert_eq!(res.records.len(), 40);
        assert_eq!(res.errors, 0);
        assert!(res.score() >= 0.0 && res.score() <= 100.0);
    }

    #[test]
    fn run_scores_rouge_datasets() {
        let (world, llm, src) = setup();
        let ds = nature::generate(&world, 10, 2);
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let res = run(&Cot, &llm, Some(&src), None, &emb, &cfg, &ds, 2).unwrap();
        assert_eq!(res.rouge.total, 10);
        assert_eq!(res.hit.total, 0);
        assert!(res.score() > 0.0, "some lexical overlap expected");
    }

    #[test]
    fn parallel_equals_serial() {
        let (world, llm, src) = setup();
        let ds = simpleq::generate(&world, 20, 3);
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let serial = run(
            &PseudoGraphPipeline::full(),
            &llm,
            Some(&src),
            None,
            &emb,
            &cfg,
            &ds,
            1,
        )
        .unwrap();
        let parallel = run(
            &PseudoGraphPipeline::full(),
            &llm,
            Some(&src),
            None,
            &emb,
            &cfg,
            &ds,
            8,
        )
        .unwrap();
        assert_eq!(serial.hit.hits, parallel.hit.hits);
        for (a, b) in serial.records.iter().zip(&parallel.records) {
            assert_eq!(a.qid, b.qid);
            assert_eq!(a.answer, b.answer);
        }
    }

    #[test]
    fn parallel_equals_serial_under_faults() {
        let (world, _, src) = setup();
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let ds = simpleq::generate(&world, 20, 3);
        let mut results = Vec::new();
        for threads in [1usize, 8] {
            // Fresh decorator per run: attempt counters must start at
            // zero for the schedules to be comparable.
            let faulty = FaultyLlm::new(
                SimLlm::new(world.clone(), ModelProfile::gpt35_sim()),
                FaultPlan::uniform(99, 0.3),
            );
            results.push(
                run(
                    &PseudoGraphPipeline::full(),
                    &faulty,
                    Some(&src),
                    None,
                    &emb,
                    &cfg,
                    &ds,
                    threads,
                )
                .unwrap(),
            );
        }
        let (serial, parallel) = (&results[0], &results[1]);
        assert_eq!(serial.faults, parallel.faults, "identical fault schedule");
        for (a, b) in serial.records.iter().zip(&parallel.records) {
            assert_eq!(a.answer, b.answer);
            assert_eq!(a.trace.llm_calls, b.trace.llm_calls);
            assert_eq!(a.trace.degradation, b.trace.degradation);
        }
    }

    #[test]
    fn fault_telemetry_is_aggregated() {
        let (world, _, src) = setup();
        let faulty = FaultyLlm::new(
            SimLlm::new(world.clone(), ModelProfile::gpt35_sim()),
            FaultPlan::uniform(5, 0.3),
        );
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let ds = simpleq::generate(&world, 30, 6);
        let res = run(
            &PseudoGraphPipeline::full(),
            &faulty,
            Some(&src),
            None,
            &emb,
            &cfg,
            &ds,
            4,
        )
        .unwrap();
        assert!(res.faults.attempts > 0);
        assert!(res.faults.faults > 0, "rate 0.3 must observe faults");
        assert!(res.faults.retries > 0, "retryable faults must retry");
        assert_eq!(
            res.faults.faults,
            res.faults.by_kind.values().sum::<u64>(),
            "by-kind counts must sum to the total"
        );
        assert_eq!(res.errors, 0, "faults degrade, they never panic");
        assert!(
            res.records.iter().all(|r| !r.answer.is_empty()),
            "every question still answered"
        );
    }

    #[test]
    fn kg_method_without_source_is_a_typed_error() {
        let (world, llm, _) = setup();
        let ds = simpleq::generate(&world, 2, 4);
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let err = run(
            &PseudoGraphPipeline::full(),
            &llm,
            None,
            None,
            &emb,
            &cfg,
            &ds,
            1,
        )
        .unwrap_err();
        assert_eq!(
            err,
            RunError::MissingKgSource {
                method: "Ours".into()
            }
        );
        assert!(err.to_string().contains("requires a KG source"));
    }

    /// A method that panics on every third question.
    struct Panicky;

    impl crate::method::Method for Panicky {
        fn name(&self) -> &'static str {
            "Panicky"
        }
        fn answer(&self, _ctx: &QaContext<'_>, q: &Question) -> MethodOutput {
            let idx: usize = q.id.rsplit('-').next().unwrap().parse().unwrap_or(0);
            if idx.is_multiple_of(3) {
                panic!("synthetic failure on {}", q.id);
            }
            MethodOutput {
                answer: "fine".into(),
                trace: Trace::default(),
            }
        }
    }

    #[test]
    fn a_panicking_method_yields_failed_records_not_a_crash() {
        let (world, llm, src) = setup();
        let ds = simpleq::generate(&world, 12, 7);
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let res = run(&Panicky, &llm, Some(&src), None, &emb, &cfg, &ds, 4).unwrap();
        assert_eq!(res.records.len(), 12, "every slot filled");
        assert!(res.errors > 0, "panics are counted");
        assert_eq!(
            res.errors,
            res.records
                .iter()
                .filter(|r| r.trace.degradation.iter().any(|d| d.starts_with("panic:")))
                .count()
        );
        for (i, r) in res.records.iter().enumerate() {
            if r.answer.is_empty() {
                assert_eq!(r.hit, Some(false), "failed records score as misses");
                let note = r
                    .trace
                    .degradation
                    .iter()
                    .find(|d| d.starts_with("panic:"))
                    .expect("failed record carries a panic note");
                assert!(
                    note.starts_with(&format!("panic:{i}:{}:", r.qid)),
                    "panic note names the question: {note}"
                );
            } else {
                assert_eq!(r.answer, "fine");
            }
        }
        // Determinism: the same run again produces the same errors.
        let again = run(&Panicky, &llm, Some(&src), None, &emb, &cfg, &ds, 1).unwrap();
        assert_eq!(res.errors, again.errors);
    }

    /// A panic outside the per-question guard — dropping the panic
    /// payload panics again — kills its worker. The question it held
    /// becomes a failed record with a `panic:` note and the surviving
    /// workers answer the rest; with no worker left, the questions
    /// nobody answered become `missing-record` misses.
    #[test]
    fn a_dead_worker_fails_its_question_and_the_rest_are_answered_or_missing() {
        struct PanicOnDrop;
        impl Drop for PanicOnDrop {
            fn drop(&mut self) {
                panic!("payload drop panics");
            }
        }
        struct Bomb;
        impl crate::method::Method for Bomb {
            fn name(&self) -> &'static str {
                "Bomb"
            }
            fn answer(&self, ctx: &QaContext<'_>, q: &Question) -> MethodOutput {
                if q.id.ends_with("-3") {
                    std::panic::panic_any(PanicOnDrop);
                }
                Panicky.answer(ctx, q)
            }
        }
        let (world, llm, src) = setup();
        let ds = simpleq::generate(&world, 12, 7);
        let (emb, cfg) = (Embedder::default(), PipelineConfig::default());
        let dead = format!("panic:3:{}:", ds.questions[3].id);
        let missing = |r: &Record| r.trace.degradation == ["missing-record"];

        // Four threads: three survive and answer every other question.
        let res = run(&Bomb, &llm, Some(&src), None, &emb, &cfg, &ds, 4).unwrap();
        assert_eq!(res.records.len(), 12);
        assert!(
            res.records[3].trace.degradation[0].starts_with(&dead),
            "{:?}",
            res.records[3].trace.degradation
        );
        assert!(!res.records.iter().any(missing), "every record is present");
        assert_eq!(
            res.errors, 4,
            "Panicky's 0, 6 and 9, and the dead worker's 3"
        );

        // One thread: it answers 0–2 in order and dies on 3.
        let res = run(&Bomb, &llm, Some(&src), None, &emb, &cfg, &ds, 1).unwrap();
        assert_eq!(res.records.len(), 12);
        assert!(res.records[3].trace.degradation[0].starts_with(&dead));
        for (i, r) in res.records.iter().enumerate() {
            assert_eq!(missing(r), i >= 4, "record {i}: {:?}", r.trace.degradation);
        }
        assert_eq!(res.errors, 10);
    }

    #[test]
    fn identity_key_is_thread_count_invariant_under_fault_storms() {
        let (world, _, src) = setup();
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let ds = simpleq::generate(&world, 14, 11);
        for plan in [FaultPlan::uniform(41, 0.35), FaultPlan::storm(41, 0.4, 1.0)] {
            let mut keys = Vec::new();
            for threads in [1usize, 2, 8] {
                let faulty = FaultyLlm::new(
                    SimLlm::new(world.clone(), ModelProfile::gpt35_sim()),
                    plan.clone(),
                );
                let res = run(
                    &PseudoGraphPipeline::full(),
                    &faulty,
                    Some(&src),
                    None,
                    &emb,
                    &cfg,
                    &ds,
                    threads,
                )
                .unwrap();
                keys.push(res.identity_key());
            }
            assert_eq!(keys[0], keys[1], "1 vs 2 threads");
            assert_eq!(keys[0], keys[2], "1 vs 8 threads");
        }
    }

    #[test]
    fn zero_threads_matches_an_explicit_count() {
        let (world, llm, src) = setup();
        let emb = Embedder::default();
        let ds = simpleq::generate(&world, 8, 13);
        let cfg = PipelineConfig::default();
        // threads=0 resolves to the available parallelism.
        let auto = run(&Io, &llm, Some(&src), None, &emb, &cfg, &ds, 0).unwrap();
        let explicit = run(&Io, &llm, Some(&src), None, &emb, &cfg, &ds, 5).unwrap();
        assert_eq!(auto.identity_key(), explicit.identity_key());
    }

    #[test]
    fn stage_totals_cover_the_whole_pipeline_plus_eval() {
        let (world, llm, src) = setup();
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let ds = simpleq::generate(&world, 6, 17);
        let res = run(
            &PseudoGraphPipeline::full(),
            &llm,
            Some(&src),
            None,
            &emb,
            &cfg,
            &ds,
            3,
        )
        .unwrap();
        let totals = res.stage_totals();
        let names: Vec<&str> = totals.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["pseudo", "ground", "verify", "answer", "eval"]);
        for (name, agg) in &totals {
            assert_eq!(agg.questions, 6, "{name} entered by every question");
            assert!(agg.virtual_ms > 0, "{name} charged");
            assert_eq!(agg.wall_ns, 0, "{name}: no clock installed in tests");
        }
        // Baselines carry only the runner's eval stage.
        let io = run(&Io, &llm, Some(&src), None, &emb, &cfg, &ds, 3).unwrap();
        let names: Vec<String> = io.stage_totals().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["eval"]);
    }

    #[test]
    fn virtual_makespan_scales_and_bounds_sanely() {
        let (world, llm, src) = setup();
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let ds = simpleq::generate(&world, 16, 19);
        let res = run(
            &PseudoGraphPipeline::full(),
            &llm,
            Some(&src),
            None,
            &emb,
            &cfg,
            &ds,
            4,
        )
        .unwrap();
        let total: u64 = res.records.iter().map(|r| r.virtual_ms()).sum();
        let longest = res
            .records
            .iter()
            .map(|r| r.virtual_ms())
            .max()
            .unwrap_or(0);
        let m1 = res.virtual_makespan_ms(1);
        assert_eq!(m1, total, "one worker serializes everything");
        let mut prev = m1;
        for t in [2usize, 4, 8, 16] {
            let m = res.virtual_makespan_ms(t);
            assert!(m <= prev, "makespan is monotone in workers: {t}");
            assert!(m >= longest, "never beats the critical path: {t}");
            assert!(
                m >= total / t as u64,
                "never beats perfect speedup: {m} < {total}/{t}"
            );
            prev = m;
        }
        // Homogeneous-ish service times: 8 workers must beat 4× over
        // one worker on 16 questions.
        assert!(
            res.virtual_makespan_ms(8) * 4 <= total,
            "8 workers under-deliver: {} vs {total}",
            res.virtual_makespan_ms(8)
        );
    }
}
