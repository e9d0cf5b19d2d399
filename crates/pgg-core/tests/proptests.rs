//! Property-based tests of the retrieval layer: parallel index builds
//! must be byte-identical to the serial reference for any question
//! subset and thread count, and the public `search_batch` API must
//! return exactly the hits of the naive oracle
//! `semvec::reference_top_k`, for folded and unfolded queries alike,
//! and so must the base's rows re-segmented at any segment count —
//! plus the determinism contracts of both execution layers: serving
//! outcomes byte-identical for any worker count, and evaluation-runner
//! results byte-identical for any thread count, under any fault
//! weather.
//!
//! Each property runs [`check`] over generated inputs; where a fixed
//! sweep of corner cases is worth pinning (empty and wide batches,
//! fault storms), it runs first, through the same body.

use kgstore::rng::check;
use pgg_core::{
    paper, serve, BaseIndex, Disposition, OfferedTrace, PipelineConfig, PseudoGraphPipeline,
    QuerySlot, RetrievalMode, RunResult, ScoringMode, ServeConfig,
};
use semvec::{reference_top_k, Embedder, Hit, NoisyQuery, QueryStyle, SegmentedIndex};
use simllm::{FaultPlan, FaultyLlm, ModelProfile, SimLlm};
use std::sync::{Arc, OnceLock};
use worldgen::{datasets, derive, generate, SourceConfig, World, WorldConfig};

struct Fixture {
    source: kgstore::KgSource,
    questions: Vec<String>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let world: World = generate(&WorldConfig {
            seed: paper::WORLD_SEED,
            ..Default::default()
        });
        let source = derive(&world, &SourceConfig::wikidata());
        let questions = datasets::qald::generate(&world, 40, paper::QALD_SEED)
            .questions
            .into_iter()
            .map(|q| q.text)
            .collect();
        Fixture { source, questions }
    })
}

/// `slots` through `search_batch`.
fn search(
    base: &BaseIndex,
    embedder: &Embedder,
    slots: &[QuerySlot<'_>],
    k: usize,
    sigma: f32,
) -> Vec<Vec<Hit>> {
    let (mode, scoring) = (RetrievalMode::Exact, ScoringMode::QuantizedScreen);
    base.search_batch(embedder, slots, k, sigma, mode, scoring)
}

/// The naive oracle for one query slot over the base's rows.
fn oracle(
    base: &BaseIndex,
    embedder: &Embedder,
    slot: &QuerySlot<'_>,
    k: usize,
    sigma: f32,
) -> Vec<Hit> {
    let q = match slot.style {
        QueryStyle::Folded => embedder.encode(slot.text),
        QueryStyle::Unfolded => embedder.encode_unfolded(slot.text),
    };
    reference_top_k(base.segmented(), &q, k, sigma, slot.salt)
}

/// `for_questions` builds the same index — same verbalised triples,
/// subjects, and embedding bytes — no matter how many encoder threads
/// are used or how the question subset is shaped (overlaps and
/// duplicates included).
#[test]
fn parallel_for_questions_is_byte_identical_to_serial() {
    check(256, 1, |rng| {
        let picks = rng.vec(1..12, |r| r.random_range(0..40));
        let threads = rng.random_range(2..8);
        let fix = fixture();
        let embedder = Embedder::paper();
        let cfg = PipelineConfig::default();
        let qs: Vec<&str> = picks.iter().map(|&i| fix.questions[i].as_str()).collect();
        let serial = BaseIndex::for_questions_with_threads(
            &fix.source,
            &embedder,
            &cfg,
            qs.iter().copied(),
            1,
        );
        let parallel = BaseIndex::for_questions_with_threads(
            &fix.source,
            &embedder,
            &cfg,
            qs.iter().copied(),
            threads,
        );
        assert_eq!(serial.verbalised, parallel.verbalised);
        assert_eq!(serial.subjects, parallel.subjects);
        assert_eq!(serial.len(), parallel.len());
        for id in 0..serial.len() {
            assert_eq!(serial.vector(id), parallel.vector(id));
        }
    });
}

/// The (question, k, salt) sweep the single-query property runs first,
/// each point at sigma 0 and 0.30 and in both query styles.
const SWEEP: [(usize, usize, u64); 6] = [
    (0, 1, 0),
    (3, 5, 0x9E3779B97F4A7C15),
    (11, 10, 42),
    (17, 19, u64::MAX),
    (29, 12, 0xC0FFEE),
    (39, 7, 7),
];

/// One query through `search_batch` returns the oracle's hits for any
/// question, k, sigma, salt and query style — folded (pseudo-triple
/// sentences) and unfolded (question text, the QSM baseline's path);
/// on a non-empty base every search runs the int8 screen, and a
/// question whose scoped extraction is empty gets no hits.
#[test]
fn search_equals_oracle() {
    let fix = fixture();
    let embedder = Embedder::paper();
    let cfg = PipelineConfig::default();
    let body = |base: &BaseIndex, qi: usize, k: usize, salt: u64, sigma: f32, style| {
        let slot = QuerySlot {
            text: fix.questions[qi].as_str(),
            style,
            salt,
        };
        let before = base.scoring_stats();
        let got = search(base, &embedder, &[slot], k, sigma).pop();
        let got = got.expect("one slot in, one result out");
        let at = format!("qi={qi} k={k} salt={salt} sigma={sigma} {style:?}");
        assert!(
            !base.is_empty() || got.is_empty(),
            "empty base returned hits: {at}"
        );
        assert_eq!(
            got,
            oracle(base, &embedder, &slot, k, sigma),
            "diverged from the oracle: {at}"
        );
        let stats = base.scoring_stats();
        assert!(stats.reranked <= stats.screened);
        if !base.is_empty() {
            assert!(
                stats.screened > before.screened,
                "the int8 screen never engaged: {at}"
            );
        }
    };
    for (qi, k, salt) in SWEEP {
        let base = BaseIndex::for_question(&fix.source, &embedder, &cfg, &fix.questions[qi]);
        for sigma in [0.0f32, 0.30] {
            for style in [QueryStyle::Folded, QueryStyle::Unfolded] {
                body(&base, qi, k, salt, sigma, style);
            }
        }
    }
    check(256, 2, |rng| {
        let qi = rng.random_range(0..40);
        let (k, salt) = (rng.random_range(1..20), rng.next_u64());
        let sigma = match rng.random_range(0..3) {
            0 => 0.0,
            1 => 0.30,
            _ => (rng.random_f64() * 0.6) as f32,
        };
        let style = [QueryStyle::Folded, QueryStyle::Unfolded][rng.random_range(0..2)];
        let base = BaseIndex::for_question(&fix.source, &embedder, &cfg, &fix.questions[qi]);
        body(&base, qi, k, salt, sigma, style);
    });
}

/// `search_batch` returns, slot for slot, the oracle's hits — for
/// arbitrary batch widths (empty and singleton included) and duplicate
/// slots. The sweep over a 12-question base must engage the batch entry
/// and collapse its duplicate slots.
#[test]
fn batched_search_equals_oracle() {
    let fix = fixture();
    let embedder = Embedder::paper();
    let cfg = PipelineConfig::default();
    let base_over = |n: usize| {
        BaseIndex::for_questions(
            &fix.source,
            &embedder,
            &cfg,
            fix.questions.iter().take(n).map(|s| s.as_str()),
        )
    };
    let body = |base: &BaseIndex, texts: &[&str], k: usize, sigma: f32| {
        let slots: Vec<QuerySlot<'_>> = texts
            .iter()
            .map(|t| QuerySlot {
                text: t,
                style: QueryStyle::Folded,
                salt: kgstore::hash::stable_str_hash(t),
            })
            .collect();
        let batched = search(base, &embedder, &slots, k, sigma);
        assert_eq!(batched.len(), slots.len());
        for (got, s) in batched.iter().zip(&slots) {
            assert_eq!(
                got,
                &oracle(base, &embedder, s, k, sigma),
                "diverged from the oracle: width={} k={k} sigma={sigma}",
                slots.len()
            );
        }
    };
    let base = base_over(12);
    for (width, k, sigma) in [
        (0usize, 5usize, 0.30f32),
        (1, 1, 0.0),
        (3, 10, 0.30),
        (6, 19, 0.30),
        (9, 7, 0.0),
    ] {
        let mut texts: Vec<&str> = (0..width)
            .map(|i| fix.questions[(i * 7 + 3) % 40].as_str())
            .collect();
        if width >= 2 {
            texts[width - 1] = texts[0];
        }
        body(&base, &texts, k, sigma);
    }
    let stats = base.scoring_stats();
    assert_eq!(stats.batches, 5, "batch entry engaged: {stats:?}");
    assert!(
        stats.batch_deduped > 0,
        "duplicate slots collapsed: {stats:?}"
    );
    check(256, 4, |rng| {
        let picks = rng.vec(0..8, |r| r.random_range(0..40));
        let dup = rng.random_bool();
        let (k, sigma) = (rng.random_range(1..20), (rng.random_f64() * 0.6) as f32);
        let mut texts: Vec<&str> = picks.iter().map(|&i| fix.questions[i].as_str()).collect();
        if dup && !texts.is_empty() {
            texts.push(texts[0]);
        }
        body(&base_over(10), &texts, k, sigma);
    });
}

/// Self-queries the re-segmentation check samples, spread evenly over
/// the base.
const RESEGMENT_SAMPLE: usize = 24;

/// A real base's rows re-segmented at 1, 2 and 7 segments scan to the
/// oracle's hits over the production base, for a spread sample of
/// self-queries (stored vector `id`, salted with `id`) — each as a
/// one-slot batch, and all of them in one batch. At one segment the
/// screen counters also equal the production scan's; at several, the
/// `B_max` margin may rerank more documents (never fewer), which
/// changes counters but provably not hits.
#[test]
fn resegmented_base_equals_the_oracle() {
    let fix = fixture();
    let embedder = Embedder::paper();
    let cfg = PipelineConfig::default();
    let questions = fix.questions.iter().map(|q| q.as_str());
    let base = BaseIndex::for_questions(&fix.source, &embedder, &cfg, questions);
    let prod = base.segmented();
    assert_eq!(prod.num_segments(), 1, "the fixture base fits one segment");
    let sentences: Vec<String> = base.verbalised.iter().map(|t| t.sentence()).collect();
    let texts: Vec<&str> = sentences.iter().map(|s| s.as_str()).collect();
    let (k, sigma) = (cfg.top_k, cfg.retrieval_jitter);
    let slots: Vec<NoisyQuery<'_>> = (0..texts.len())
        .step_by(texts.len().div_ceil(RESEGMENT_SAMPLE))
        .map(|id| NoisyQuery {
            vector: prod.vector(id),
            salt: id as u64,
        })
        .collect();
    let want: Vec<Vec<Hit>> = slots
        .iter()
        .map(|q| reference_top_k(prod, q.vector, k, sigma, q.salt))
        .collect();
    for segments in [1usize, 2, 7] {
        let rows = texts.len().div_ceil(segments);
        let seg = SegmentedIndex::build_parallel(&embedder, &texts, rows, 0);
        assert_eq!(seg.num_segments(), segments);
        for (slot, w) in slots.iter().zip(&want) {
            let one = std::slice::from_ref(slot);
            let (hits, stats) = seg.top_k_noisy_quant_batch(one, k, sigma).remove(0);
            let at = format!("{segments} segments, salt {}", slot.salt);
            assert_eq!(&hits, w, "one slot diverged from the oracle: {at}");
            if segments == 1 {
                let prod_stats = prod.top_k_noisy_quant_batch(one, k, sigma)[0].1;
                assert_eq!(stats, prod_stats, "screen counters differ: {at}");
            }
        }
        let batched = seg.top_k_noisy_quant_batch(&slots, k, sigma);
        assert_eq!(batched.len(), want.len());
        for ((hits, _), w) in batched.iter().zip(&want) {
            assert_eq!(
                hits, w,
                "batch diverged from the oracle: {segments} segments"
            );
        }
    }
}

/// A small world (scale 0.3) with `n` SimpleQuestions questions (seed
/// 77) and their base index, for the serving and runner properties.
struct SmallFixture {
    world: Arc<World>,
    source: kgstore::KgSource,
    base: BaseIndex,
    dataset: worldgen::Dataset,
    embedder: Embedder,
    cfg: PipelineConfig,
}

fn small_fixture(n: usize) -> SmallFixture {
    let world = Arc::new(generate(&WorldConfig {
        scale: 0.3,
        ..Default::default()
    }));
    let source = derive(&world, &SourceConfig::wikidata());
    let dataset = datasets::simpleq::generate(&world, n, 77);
    let (embedder, cfg) = (Embedder::default(), PipelineConfig::default());
    let texts = dataset.questions.iter().map(|q| q.text.as_str());
    let base = BaseIndex::for_questions(&source, &embedder, &cfg, texts);
    SmallFixture {
        world,
        source,
        base,
        dataset,
        embedder,
        cfg,
    }
}

fn serve_fixture() -> &'static SmallFixture {
    static FIX: OnceLock<SmallFixture> = OnceLock::new();
    FIX.get_or_init(|| small_fixture(12))
}

/// One [`serve`] run over a seeded Poisson trace with a fresh fault
/// decorator (its attempt counters are state that must not leak
/// between runs).
fn serve_once(
    fix: &SmallFixture,
    seed: u64,
    rate: f64,
    load_qps: f64,
    workers: usize,
) -> pgg_core::ServeReport {
    let offered = OfferedTrace::poisson(seed, load_qps, 16, fix.dataset.len());
    let llm = SimLlm::new(fix.world.clone(), ModelProfile::gpt35_sim());
    let faulty = FaultyLlm::new(llm, FaultPlan::uniform(seed ^ 0xFA57, rate));
    let scfg = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    serve(
        &faulty,
        &fix.source,
        &fix.base,
        &fix.embedder,
        &fix.cfg,
        &scfg,
        &fix.dataset.questions,
        &offered,
    )
}

/// The serving determinism contract: same seed + same offered trace ⇒
/// byte-identical per-question outcomes and breaker log for 1, 2, and
/// 8 worker threads — under any fault weather — with every offered
/// arrival accounted for, and every answered outcome carrying a
/// non-empty answer. Calm, faulted and overloaded points run first.
#[test]
fn serve_outcomes_are_identical_across_worker_counts() {
    let body = |seed: u64, rate: f64, load_qps: f64| {
        let fix = serve_fixture();
        let r1 = serve_once(fix, seed, rate, load_qps, 1);
        let r2 = serve_once(fix, seed, rate, load_qps, 2);
        let r8 = serve_once(fix, seed, rate, load_qps, 8);
        let at = format!("seed={seed} rate={rate} load={load_qps}");
        assert_eq!(r1.outcomes, r2.outcomes, "1 vs 2 workers diverged: {at}");
        assert_eq!(r1.outcomes, r8.outcomes, "1 vs 8 workers diverged: {at}");
        assert_eq!(r1.breaker_transitions, r2.breaker_transitions);
        assert_eq!(r1.breaker_transitions, r8.breaker_transitions);
        assert_eq!(r1.identity_key(), r8.identity_key());
        assert_eq!(r1.outcomes.len(), 16, "every offered arrival accounted for");
        for o in &r1.outcomes {
            if let Disposition::Answered {
                answer,
                degradation,
                ..
            } = &o.disposition
            {
                assert!(!answer.is_empty(), "degraded, never missing");
                assert!(
                    degradation.iter().all(|d| !d.starts_with("panic:")),
                    "no worker panics: {degradation:?}"
                );
            }
        }
    };
    for (seed, rate, load_qps) in [(0xA11CEu64, 0.0, 3.0), (7, 0.35, 8.0), (0xBEEF, 0.5, 12.0)] {
        body(seed, rate, load_qps);
    }
    check(6, 5, |rng| {
        let seed = rng.next_u64();
        let rate = rng.random_f64() * 0.5;
        let load_qps = 2.0 + rng.random_f64() * 10.0;
        body(seed, rate, load_qps);
    });
}

fn runner_fixture() -> &'static SmallFixture {
    static FIX: OnceLock<SmallFixture> = OnceLock::new();
    FIX.get_or_init(|| small_fixture(8))
}

/// One evaluation-runner pass over the fixture dataset with a fresh
/// fault decorator (its per-slot attempt counters are state that must
/// not leak between runs or thread counts).
fn run_once(fix: &SmallFixture, plan: FaultPlan, threads: usize) -> RunResult {
    let llm = SimLlm::new(fix.world.clone(), ModelProfile::gpt35_sim());
    let faulty = FaultyLlm::new(llm, plan);
    pgg_core::run(
        &PseudoGraphPipeline::full(),
        &faulty,
        Some(&fix.source),
        Some(&fix.base),
        &fix.embedder,
        &fix.cfg,
        &fix.dataset,
        threads,
    )
    .expect("runner fixture is well-formed")
}

/// The evaluation runner's determinism contract: the same fault plan
/// produces a byte-identical result — answers, scores, fault ledgers,
/// stage timings — at 1, 2, and 8 worker threads, under uniform fault
/// weather and storms alike, with every question accounted for and
/// carrying a stage breakdown. A uniform rate and a hard storm run
/// first.
#[test]
fn runner_results_are_identical_across_thread_counts() {
    let body = |plan: FaultPlan| {
        let fix = runner_fixture();
        let tag = format!("{plan:?}");
        let r1 = run_once(fix, plan.clone(), 1);
        let r2 = run_once(fix, plan.clone(), 2);
        let r8 = run_once(fix, plan, 8);
        assert_eq!(
            r1.identity_key(),
            r2.identity_key(),
            "{tag}: 1 vs 2 threads"
        );
        assert_eq!(
            r1.identity_key(),
            r8.identity_key(),
            "{tag}: 1 vs 8 threads"
        );
        let a1: Vec<&str> = r1.records.iter().map(|r| r.answer.as_str()).collect();
        let a8: Vec<&str> = r8.records.iter().map(|r| r.answer.as_str()).collect();
        assert_eq!(a1, a8, "{tag}: answers must match in question order");
        assert_eq!(r1.faults.faults, r8.faults.faults);
        assert_eq!(r1.errors, r8.errors);
        assert_eq!(r1.records.len(), 8, "every question accounted for");
        assert!(
            r1.records.iter().all(|r| !r.trace.stages.is_empty()),
            "{tag}: every record carries a stage breakdown"
        );
    };
    body(FaultPlan::uniform(41, 0.35));
    body(FaultPlan::storm(41, 0.4, 1.0));
    check(4, 6, |rng| {
        let seed = rng.next_u64();
        let rate = rng.random_f64() * 0.5;
        body(if rng.random_bool() {
            FaultPlan::storm(seed, rate, 1.0)
        } else {
            FaultPlan::uniform(seed, rate)
        });
    });
}
