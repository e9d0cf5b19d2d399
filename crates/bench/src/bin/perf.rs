//! Perf bench: the retrieval fast path measured end to end, with every
//! speedup gated on hits bit-identical to the naive oracle
//! [`semvec::reference_top_k`] (score every document with `dot` +
//! jitter, full sort, keep k).
//!
//! Sections:
//!
//! * **build** — serial vs parallel [`BaseIndex`] construction over the
//!   QALD-10 question union (byte-identical output asserted);
//! * **retrieval** — exact scan vs pruned (token-postings + verified
//!   ceiling) top-k over every indexed verbalisation as a self-query
//!   (both arms asserted equal to the oracle);
//! * **scoring** — pure-f32 scan vs int8 screen + margin rerank over
//!   the full base, one self-query per stored vector (both arms
//!   asserted equal to the oracle; screen/rerank breakdown and f32 vs
//!   f32+i8 index bytes reported);
//! * **batched** — the query-tiled quantized kernel vs one sequential
//!   scan per query, at batch widths 1/2/3/4/8 over the full base —
//!   grounding runs mostly widths 2 and 3 — with the cost per screened
//!   (query, document) pair at each width (hits asserted equal to the
//!   oracle and screen counters equal to the sequential scan's at every
//!   width);
//! * **sharded** — the segmented base at 1/2/7 shards, across the full
//!   retrieval × scoring × batch cross product (hits asserted equal to
//!   the oracle everywhere, candidate sets equal to the production
//!   base's);
//! * **scaling** — the 10k/100k/1M curve over a scaled world: serial
//!   segmented build time, the virtual 8-thread build makespan (each
//!   phase the parallel build distributes re-timed in its chunk layout
//!   — wall time cannot show parallel speedup on a single-core box,
//!   the chunk schedule can), resident bytes and mean query latency of
//!   the built index, and its scans asserted equal to the oracle at
//!   every point (≥2x virtual build speedup gated at 100k and above);
//! * **end-to-end** — the full pipeline in exact vs pruned mode, each
//!   run cold (fresh query-embedding cache) then warm (same base
//!   re-queried), reporting questions/sec, postings-build time, and the
//!   candidate fraction pruning achieved (identical answers asserted
//!   across both arms and both cache states);
//! * **stages** — the per-stage profile of the exact cold run: virtual
//!   and wall time per pipeline stage (pseudo / ground / verify /
//!   answer / eval) with each stage's share of the virtual total;
//! * **threads sweep** — the question-level runner at 1/2/4/8 worker
//!   threads over a fresh base each, gated on a byte-identical
//!   [`RunResult::identity_key`](pgg_core::RunResult::identity_key) at
//!   every count. Scaling is reported in *virtual makespan* (the
//!   deterministic list-schedule bound over per-question virtual
//!   costs): wall time cannot show parallel speedup on a single-core
//!   CI box, the virtual schedule can — and it is reproducible.
//!
//! Usage:
//! * `cargo run --release -p bench --bin perf` — full run; writes
//!   `BENCH_perf.json` and exits nonzero on any divergence;
//! * `cargo run --release -p bench --bin perf -- --smoke` — the CI
//!   smoke: reduced sizes, same identity assertions, no JSON file.

use bench::run_or_exit as run;
use bench::warn::{json_escape, WarnLog};
use bench::{model, setup, Experiment};
use pgg_core::{
    BaseIndex, PipelineConfig, PseudoGraphPipeline, QuerySlot, RetrievalMode, ScoringMode, StageAgg,
};
use semvec::{
    reference_top_k, BatchSlot, Embedder, Hit, NoisyQuery, QueryStyle, ScreenStats, SegmentedIndex,
};
use std::time::Instant;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

struct BuildTiming {
    docs: usize,
    threads: usize,
    build_threads_used: usize,
    serial_ms: f64,
    parallel_ms: f64,
}

/// Serial vs parallel index build over the same question set; panics
/// (→ nonzero exit) if the outputs differ in any byte.
fn bench_build(exp: &Experiment, dataset: &worldgen::Dataset) -> (BuildTiming, BaseIndex) {
    let questions: Vec<&str> = dataset.questions.iter().map(|q| q.text.as_str()).collect();
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());

    let t = Instant::now();
    let serial = BaseIndex::for_questions_with_threads(
        &exp.wikidata,
        &exp.embedder,
        &exp.cfg,
        questions.iter().copied(),
        1,
    );
    let serial_ms = ms(t);

    let t = Instant::now();
    let parallel = BaseIndex::for_questions_with_threads(
        &exp.wikidata,
        &exp.embedder,
        &exp.cfg,
        questions.iter().copied(),
        threads,
    );
    let parallel_ms = ms(t);

    assert_eq!(serial.verbalised, parallel.verbalised, "build diverged");
    assert_eq!(serial.subjects, parallel.subjects, "build diverged");
    for id in 0..serial.len() {
        assert_eq!(
            serial.vector(id),
            parallel.vector(id),
            "build diverged at vector {id}"
        );
    }
    (
        BuildTiming {
            docs: serial.len(),
            threads,
            build_threads_used: parallel.build_threads_used(),
            serial_ms,
            parallel_ms,
        },
        parallel,
    )
}

struct RetrievalTiming {
    queries: usize,
    exact_ms: f64,
    pruned_ms: f64,
    identical: bool,
}

/// The oracle's hits for the first `n` stored vectors queried back
/// against the base, query `id` salted with `id` — the self-queries of
/// the scoring and batched sections.
fn oracle_self_queries(base: &SegmentedIndex, n: usize, k: usize, sigma: f32) -> Vec<Vec<Hit>> {
    (0..n)
        .map(|id| reference_top_k(base, base.vector(id), k, sigma, id as u64))
        .collect()
}

/// Exact vs pruned retrieval over `queries` self-queries (every indexed
/// verbalisation queried back at the pipeline's k and jitter, one
/// single-slot batch per query), both arms checked against the oracle.
fn bench_retrieval(exp: &Experiment, base: &BaseIndex, queries: usize) -> RetrievalTiming {
    let texts: Vec<String> = base
        .verbalised
        .iter()
        .take(queries)
        .map(|t| t.sentence())
        .collect();
    let (k, sigma) = (exp.cfg.top_k, exp.cfg.retrieval_jitter);

    let salts: Vec<u64> = texts
        .iter()
        .map(|q| kgstore::hash::stable_str_hash(q))
        .collect();
    let arm = |mode: RetrievalMode| {
        let t = Instant::now();
        let hits: Vec<Vec<Hit>> = texts
            .iter()
            .zip(&salts)
            .flat_map(|(q, &salt)| {
                let slot = QuerySlot {
                    text: q,
                    style: QueryStyle::Folded,
                    salt,
                };
                base.search_batch(
                    &exp.embedder,
                    &[slot],
                    k,
                    sigma,
                    mode,
                    ScoringMode::ExactF32,
                )
            })
            .collect();
        (ms(t), hits)
    };
    let (exact_ms, exact) = arm(RetrievalMode::Exact);
    let (pruned_ms, pruned) = arm(RetrievalMode::Pruned);
    let oracle: Vec<Vec<Hit>> = texts
        .iter()
        .zip(&salts)
        .map(|(q, &salt)| {
            reference_top_k(base.segmented(), &exp.embedder.encode(q), k, sigma, salt)
        })
        .collect();
    RetrievalTiming {
        queries: texts.len(),
        exact_ms,
        pruned_ms,
        identical: exact == oracle && pruned == oracle,
    }
}

struct ScoringTiming {
    queries: usize,
    exact_ms: f64,
    quant_ms: f64,
    stats: ScreenStats,
    identical: bool,
    bytes_f32: usize,
    bytes_with_quant: usize,
}

/// Pure-f32 scan vs int8 screen + exact rerank, measured at the vector
/// index (no query encoding in either arm, so the ratio is the scoring
/// kernel alone): every stored vector queried back against the full
/// base at the pipeline's k and jitter, salted by its id. Both arms
/// are checked against `oracle` (the same self-queries).
fn bench_scoring(
    exp: &Experiment,
    base: &BaseIndex,
    queries: usize,
    oracle: &[Vec<Hit>],
) -> ScoringTiming {
    let vecs = base.segmented();
    let (k, sigma) = (exp.cfg.top_k, exp.cfg.retrieval_jitter);
    let n = queries.min(vecs.len());

    let t = Instant::now();
    let exact: Vec<_> = (0..n)
        .map(|id| vecs.top_k_noisy(vecs.vector(id), k, sigma, id as u64))
        .collect();
    let exact_ms = ms(t);

    let mut stats = ScreenStats::default();
    let t = Instant::now();
    let quant: Vec<_> = (0..n)
        .map(|id| {
            let (hits, s) = vecs.top_k_noisy_quant(vecs.vector(id), k, sigma, id as u64);
            stats.absorb(s);
            hits
        })
        .collect();
    let quant_ms = ms(t);

    ScoringTiming {
        queries: n,
        exact_ms,
        quant_ms,
        stats,
        identical: exact == oracle[..n] && quant == oracle[..n],
        bytes_f32: vecs.bytes_f32(),
        bytes_with_quant: vecs.bytes_with_quant(),
    }
}

struct BatchedWidth {
    width: usize,
    batch_ms: f64,
}

struct BatchedTiming {
    queries: usize,
    docs: usize,
    seq_ms: f64,
    widths: Vec<BatchedWidth>,
    identical: bool,
}

impl BatchedTiming {
    /// Wall nanoseconds per screened (query, document) pair.
    fn ns_per_pair(&self, ms: f64) -> f64 {
        ms * 1e6 / (self.queries * self.docs).max(1) as f64
    }
}

/// The query-tiled quantized kernel vs one sequential quantized scan
/// per query: every stored vector queried back against the full base,
/// the batched engine fed in chunks of each width. Every width's
/// per-query hits must equal `oracle` and its screen counters the
/// sequential engine's.
fn bench_batched(
    exp: &Experiment,
    base: &BaseIndex,
    queries: usize,
    oracle: &[Vec<Hit>],
) -> BatchedTiming {
    let vecs = base.segmented();
    let (k, sigma) = (exp.cfg.top_k, exp.cfg.retrieval_jitter);
    let n = queries.min(vecs.len());

    let t = Instant::now();
    let seq: Vec<_> = (0..n)
        .map(|id| vecs.top_k_noisy_quant(vecs.vector(id), k, sigma, id as u64))
        .collect();
    let seq_ms = ms(t);

    let mut widths = Vec::new();
    let mut identical = seq.iter().zip(oracle).all(|((h, _), o)| h == o);
    for width in [1usize, 2, 3, 4, 8] {
        let t = Instant::now();
        let mut batched = Vec::with_capacity(n);
        let mut start = 0;
        while start < n {
            let end = (start + width).min(n);
            let slots: Vec<NoisyQuery<'_>> = (start..end)
                .map(|id| NoisyQuery {
                    vector: vecs.vector(id),
                    salt: id as u64,
                })
                .collect();
            batched.extend(vecs.top_k_noisy_quant_batch(&slots, k, sigma));
            start = end;
        }
        let batch_ms = ms(t);
        identical &= batched.len() == seq.len()
            && batched
                .iter()
                .zip(&seq)
                .zip(oracle)
                .all(|(((bh, bs), (_, ss)), o)| bh == o && bs == ss);
        widths.push(BatchedWidth { width, batch_ms });
    }
    BatchedTiming {
        queries: n,
        docs: vecs.len(),
        seq_ms,
        widths,
        identical,
    }
}

struct ShardedIdentity {
    queries: usize,
    shard_counts: Vec<usize>,
    identical: bool,
}

/// One sharded index over `sample` self-queries: full exact + quant
/// scans (sequential and batched) and pruned exact + quant scans
/// (sequential and batched), every hit list against the oracle's
/// `want[i]` for `sample[i]`, with candidate sets asserted equal to the
/// production base's `cand_sets` first. Quant screen counters are
/// compared with the production base's only at one segment, where the
/// margins coincide (at several segments the `B_max` margin may rerank
/// more — never fewer — docs, which changes counters but provably not
/// hits).
#[allow(clippy::too_many_arguments)]
fn sharded_scans_match(
    embedder: &Embedder,
    prod: &SegmentedIndex,
    seg: &SegmentedIndex,
    texts: &[&str],
    sample: &[usize],
    want: &[Vec<Hit>],
    cand_sets: &[Vec<u32>],
    k: usize,
    sigma: f32,
) -> bool {
    let single = seg.num_segments() <= 1 && prod.num_segments() <= 1;
    let mut ok = true;

    // Sequential full scans.
    for (i, &id) in sample.iter().enumerate() {
        let (q, salt) = (prod.vector(id), id as u64);
        ok &= seg.top_k_noisy(q, k, sigma, salt) == want[i];
        let (sh, ss) = seg.top_k_noisy_quant(q, k, sigma, salt);
        ok &= sh == want[i] && (!single || ss == prod.top_k_noisy_quant(q, k, sigma, salt).1);
    }

    // Batched full scans, one tile over the whole sample.
    let slots: Vec<NoisyQuery<'_>> = sample
        .iter()
        .map(|&id| NoisyQuery {
            vector: prod.vector(id),
            salt: id as u64,
        })
        .collect();
    ok &= seg.top_k_noisy_batch(&slots, k, sigma) == want;
    ok &= seg
        .top_k_noisy_quant_batch(&slots, k, sigma)
        .iter()
        .zip(want)
        .all(|((h, _), w)| h == w);

    // Pruned scans over the candidate sets the live pipeline would
    // use — per-segment postings must partition the global lists, so
    // the candidate ids themselves are asserted equal first.
    for (i, &id) in sample.iter().enumerate() {
        let c = &cand_sets[i];
        ok &= seg.candidates(embedder, texts[id], QueryStyle::Folded) == *c;
        let (q, salt) = (prod.vector(id), id as u64);
        ok &= seg.top_k_noisy_encoded(q, c, k, sigma, salt) == want[i];
        ok &= seg.top_k_noisy_encoded_quant(q, c, k, sigma, salt).0 == want[i];
    }
    let bslots: Vec<BatchSlot<'_>> = sample
        .iter()
        .enumerate()
        .map(|(i, &id)| BatchSlot {
            query: prod.vector(id),
            cands: &cand_sets[i],
            salt: id as u64,
        })
        .collect();
    ok &= seg.top_k_noisy_encoded_batch(&bslots, k, sigma) == want;
    ok &= seg.top_k_noisy_encoded_quant_batch(&bslots, k, sigma).0 == want;
    ok
}

/// The segmented base at 1/2/7 shards over the live base corpus, each
/// run through the same cross product against the oracle over the
/// production base.
fn bench_sharded_identity(exp: &Experiment, base: &BaseIndex, queries: usize) -> ShardedIdentity {
    let sentences: Vec<String> = base.verbalised.iter().map(|t| t.sentence()).collect();
    let texts: Vec<&str> = sentences.iter().map(|s| s.as_str()).collect();
    let prod = base.segmented();
    let (k, sigma) = (exp.cfg.top_k, exp.cfg.retrieval_jitter);
    let n = queries.min(texts.len()).max(1);
    let step = (texts.len() / n).max(1);
    let sample: Vec<usize> = (0..texts.len()).step_by(step).take(n).collect();
    let want: Vec<Vec<Hit>> = sample
        .iter()
        .map(|&id| reference_top_k(prod, prod.vector(id), k, sigma, id as u64))
        .collect();
    let cand_sets: Vec<Vec<u32>> = sample
        .iter()
        .map(|&id| prod.candidates(&exp.embedder, texts[id], QueryStyle::Folded))
        .collect();

    let len = texts.len().max(1);
    let mut identical = true;
    let mut shard_counts = Vec::new();
    for rows in [len, len.div_ceil(2), len.div_ceil(7)] {
        let seg = SegmentedIndex::build_parallel(&exp.embedder, &texts, rows, 0);
        shard_counts.push(seg.num_segments());
        identical &= sharded_scans_match(
            &exp.embedder,
            prod,
            &seg,
            &texts,
            &sample,
            &want,
            &cand_sets,
            k,
            sigma,
        );
    }
    ShardedIdentity {
        queries: sample.len(),
        shard_counts,
        identical,
    }
}

struct ScalingRow {
    docs: usize,
    unique_docs: usize,
    segments: usize,
    build_serial_ms: f64,
    build_virtual_parallel_ms: f64,
    build_speedup: f64,
    build_threads_used: usize,
    resident_bytes: usize,
    query_ms: f64,
    identical: bool,
}

/// Verbalised wikidata-style triples of a world scaled until its
/// derived source covers `max_docs` sentences. Scale 1.0 is the
/// experiment world; larger corpora regenerate deterministically at
/// the smallest tried scale whose source is big enough.
fn scaling_corpus(exp: &Experiment, max_docs: usize) -> Vec<String> {
    let per_scale = exp.wikidata.store.len().max(1);
    let mut scale = (max_docs as f64 / per_scale as f64 * 1.15).max(1.0);
    loop {
        let world = worldgen::generate(&worldgen::WorldConfig {
            seed: pgg_core::paper::WORLD_SEED,
            scale,
            ..worldgen::WorldConfig::default()
        });
        let source = worldgen::derive(&world, &worldgen::SourceConfig::wikidata());
        if source.store.len() >= max_docs || scale > 1e4 {
            return (0..source.store.len().min(max_docs))
                .map(|i| {
                    source
                        .verbalize(source.store.get(kgstore::TripleId(i as u32)))
                        .sentence()
                })
                .collect();
        }
        scale *= 1.5;
    }
}

/// The scaling curve: one row per corpus size. Identity at each point
/// compares the segmented index against the oracle on a spread query
/// sample (exact and quantized paths; the full mode cross product is
/// gated by the sharded section and the semvec proptests).
fn bench_scaling(exp: &Experiment, sizes: &[usize], k: usize, sigma: f32) -> Vec<ScalingRow> {
    let max_docs = sizes.iter().copied().max().unwrap_or(0);
    let sentences = scaling_corpus(exp, max_docs);
    sizes
        .iter()
        .map(|&size| {
            let n = size.min(sentences.len());
            let texts: Vec<&str> = sentences[..n].iter().map(|s| s.as_str()).collect();

            let t = Instant::now();
            let built =
                SegmentedIndex::build_parallel(&exp.embedder, &texts, semvec::SEG_ROWS_DEFAULT, 1);
            let build_serial_ms = ms(t);

            // Virtual 8-thread makespan, mirroring what build_parallel
            // actually distributes: the dedup slot map stays serial,
            // encoding runs in per-thread chunks over *unique* docs
            // (duplicates encode once), and segment assembly runs in
            // contiguous chunks of ceil(S/8) segments per worker. Each
            // phase is re-timed here; the makespan is serial prefix +
            // longest encode chunk + the worst worker's assembly share
            // of the remaining (assembly-dominated) serial time.
            let t = Instant::now();
            let mut slot_of_text: std::collections::HashMap<&str, usize> =
                std::collections::HashMap::new();
            let mut unique: Vec<&str> = Vec::new();
            let doc_slots: Vec<usize> = texts
                .iter()
                .map(|&s| {
                    *slot_of_text.entry(s).or_insert_with(|| {
                        unique.push(s);
                        unique.len() - 1
                    })
                })
                .collect();
            std::hint::black_box(&doc_slots);
            let slot_ms = ms(t);

            let mut encode_total_ms = 0.0f64;
            let mut max_chunk_ms = 0.0f64;
            for range in semvec::build_chunk_ranges(unique.len(), 8) {
                let t = Instant::now();
                for s in &unique[range] {
                    std::hint::black_box(semvec::encode_doc(&exp.embedder, s));
                }
                let chunk_ms = ms(t);
                encode_total_ms += chunk_ms;
                max_chunk_ms = max_chunk_ms.max(chunk_ms);
            }

            let seg_rows = semvec::SEG_ROWS_DEFAULT;
            let n_segments = n.div_ceil(seg_rows).max(1);
            // Worker 0 assembles the first ceil(S/8) full-size segments
            // — the longest assembly chunk (the last segment, the only
            // short one, lands on the last worker). Below 2 segments
            // the build keeps assembly serial, so the share is 1.
            let assembly_share = if n_segments < 2 {
                1.0
            } else {
                let chunk = n_segments.div_ceil(8.min(n_segments));
                ((chunk * seg_rows) as f64 / n as f64).min(1.0)
            };
            let residual_ms = (build_serial_ms - slot_ms - encode_total_ms).max(0.0);
            let build_virtual_parallel_ms =
                (slot_ms + max_chunk_ms + residual_ms * assembly_share).max(0.1);

            let spread = if n >= 500_000 {
                12
            } else if n >= 50_000 {
                32
            } else {
                64
            };
            let q = spread.min(n.max(1));
            let step = (n / q).max(1);
            let sample: Vec<usize> = (0..n).step_by(step).take(q).collect();

            let t = Instant::now();
            let quant_hits: Vec<_> = sample
                .iter()
                .map(|&id| {
                    built
                        .top_k_noisy_quant(built.vector(id), k, sigma, id as u64)
                        .0
                })
                .collect();
            let query_ms = ms(t) / sample.len().max(1) as f64;

            let mut identical = true;
            for (hits, &id) in quant_hits.iter().zip(&sample) {
                let (qv, salt) = (built.vector(id), id as u64);
                let want = reference_top_k(&built, qv, k, sigma, salt);
                identical &= built.top_k_noisy(qv, k, sigma, salt) == want;
                identical &= *hits == want;
            }

            ScalingRow {
                docs: n,
                unique_docs: unique.len(),
                segments: built.num_segments(),
                build_serial_ms,
                build_virtual_parallel_ms,
                build_speedup: build_serial_ms / build_virtual_parallel_ms,
                build_threads_used: semvec::resolve_build_threads(unique.len(), 0),
                resident_bytes: built.resident_bytes(),
                query_ms,
                identical,
            }
        })
        .collect()
}

struct E2eArm {
    mode: &'static str,
    build_ms: f64,
    cold_ms: f64,
    warm_ms: f64,
    cache_hits: u64,
    cache_misses: u64,
    cand_fraction: f64,
    gate_fallbacks: u64,
    mean_batch_width: f64,
    dedup_rate: f64,
    route_memo_hits: u64,
    answers: Vec<String>,
    stage_totals: Vec<(String, StageAgg)>,
}

/// Full pipeline on QALD-10 in one retrieval mode: cold run on a fresh
/// base (empty query-embedding cache), then a warm re-run on the same.
/// `label` names the arm in the report.
fn e2e_arm(
    exp: &Experiment,
    dataset: &worldgen::Dataset,
    mode: RetrievalMode,
    label: &'static str,
) -> E2eArm {
    let cfg = PipelineConfig {
        retrieval_mode: mode,
        ..exp.cfg.clone()
    };
    let t = Instant::now();
    let base = BaseIndex::for_questions(
        &exp.wikidata,
        &exp.embedder,
        &cfg,
        dataset.questions.iter().map(|q| q.text.as_str()),
    );
    let build_ms = ms(t);
    let llm = model(&exp.world, "gpt-3.5");
    let pipeline = PseudoGraphPipeline::full();

    let t = Instant::now();
    let cold = run(
        &pipeline,
        &llm,
        Some(&exp.wikidata),
        Some(&base),
        &exp.embedder,
        &cfg,
        dataset,
        0,
    );
    let cold_ms = ms(t);

    let t = Instant::now();
    let warm = run(
        &pipeline,
        &llm,
        Some(&exp.wikidata),
        Some(&base),
        &exp.embedder,
        &cfg,
        dataset,
        0,
    );
    let warm_ms = ms(t);

    let answers: Vec<String> = cold.records.iter().map(|r| r.answer.clone()).collect();
    let warm_answers: Vec<String> = warm.records.iter().map(|r| r.answer.clone()).collect();
    assert_eq!(
        answers, warm_answers,
        "warm cache changed answers in {mode:?} mode"
    );
    let stats = base.cache_stats();
    let scoring = base.scoring_stats();
    E2eArm {
        mode: label,
        build_ms,
        cold_ms,
        warm_ms,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        cand_fraction: scoring.candidate_fraction(base.len()),
        gate_fallbacks: scoring.gate_fallbacks,
        mean_batch_width: scoring.mean_batch_width(),
        dedup_rate: scoring.dedup_rate(),
        route_memo_hits: scoring.route_memo_hits,
        answers,
        stage_totals: cold.stage_totals(),
    }
}

struct ThreadsArm {
    threads: usize,
    wall_cold_ms: f64,
    virtual_makespan_ms: u64,
    identical: bool,
}

/// The question-level runner swept over worker-thread counts, each on a
/// fresh base (cold caches, so arms are comparable). Every count must
/// reproduce the 1-thread run byte for byte (`identity_key` digests
/// answers, scores, traces, fault ledgers, and stage timings — wall
/// nanoseconds excluded, the one schedule-dependent field). Scaling is
/// the *virtual makespan*: the deterministic list-schedule length of
/// the per-question virtual costs over `threads` workers.
fn threads_sweep(
    exp: &Experiment,
    dataset: &worldgen::Dataset,
    counts: &[usize],
) -> Vec<ThreadsArm> {
    let llm = model(&exp.world, "gpt-3.5");
    let pipeline = PseudoGraphPipeline::full();
    let mut reference: Option<u64> = None;
    counts
        .iter()
        .map(|&threads| {
            let base = BaseIndex::for_questions(
                &exp.wikidata,
                &exp.embedder,
                &exp.cfg,
                dataset.questions.iter().map(|q| q.text.as_str()),
            );
            let t = Instant::now();
            let res = run(
                &pipeline,
                &llm,
                Some(&exp.wikidata),
                Some(&base),
                &exp.embedder,
                &exp.cfg,
                dataset,
                threads,
            );
            let wall_cold_ms = ms(t);
            let key = res.identity_key();
            let identical = *reference.get_or_insert(key) == key;
            ThreadsArm {
                threads,
                wall_cold_ms,
                virtual_makespan_ms: res.virtual_makespan_ms(threads),
                identical,
            }
        })
        .collect()
}

#[allow(clippy::too_many_arguments)] // one argument per report section
fn json_report(
    build: &BuildTiming,
    retr: &RetrievalTiming,
    scoring: &ScoringTiming,
    batched: &BatchedTiming,
    sharded: &ShardedIdentity,
    scaling: &[ScalingRow],
    arms: &[E2eArm],
    sweep: &[ThreadsArm],
    questions: usize,
    k: usize,
    sigma: f32,
    warnings: &[String],
) -> String {
    // Hand-formatted: the report layout is fixed and flat, and keeping
    // the encoder trivial means the bench has no serializer in its hot
    // or cold path to misattribute time to.
    let width_json: Vec<String> = batched
        .widths
        .iter()
        .map(|w| {
            format!(
                concat!(
                    "    {{\"width\": {}, \"batch_ms\": {:.1}, \"ns_per_pair\": {:.2}, ",
                    "\"speedup\": {:.2}}}"
                ),
                w.width,
                w.batch_ms,
                batched.ns_per_pair(w.batch_ms),
                batched.seq_ms / w.batch_ms,
            )
        })
        .collect();
    let scaling_json: Vec<String> = scaling
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"docs\": {}, \"unique_docs\": {}, \"segments\": {}, ",
                    "\"build_serial_ms\": {:.1}, \"build_virtual_parallel_ms\": {:.1}, ",
                    "\"build_speedup\": {:.2}, \"build_threads_used\": {}, ",
                    "\"resident_bytes\": {}, ",
                    "\"query_ms\": {:.3}, \"identical\": {}}}"
                ),
                r.docs,
                r.unique_docs,
                r.segments,
                r.build_serial_ms,
                r.build_virtual_parallel_ms,
                r.build_speedup,
                r.build_threads_used,
                r.resident_bytes,
                r.query_ms,
                r.identical,
            )
        })
        .collect();
    let arm_json: Vec<String> = arms
        .iter()
        .map(|a| {
            format!(
                concat!(
                    "    {{\"mode\": \"{}\", \"build_ms\": {:.1}, ",
                    "\"cold_ms\": {:.1}, \"warm_ms\": {:.1}, ",
                    "\"cold_qps\": {:.2}, \"warm_qps\": {:.2}, ",
                    "\"cache_hits\": {}, \"cache_misses\": {}, ",
                    "\"cand_fraction\": {:.4}, \"gate_fallbacks\": {}, ",
                    "\"mean_batch_width\": {:.2}, ",
                    "\"dedup_rate\": {:.4}, ",
                    "\"route_memo_hits\": {}}}"
                ),
                a.mode,
                a.build_ms,
                a.cold_ms,
                a.warm_ms,
                questions as f64 / (a.cold_ms / 1e3),
                questions as f64 / (a.warm_ms / 1e3),
                a.cache_hits,
                a.cache_misses,
                a.cand_fraction,
                a.gate_fallbacks,
                a.mean_batch_width,
                a.dedup_rate,
                a.route_memo_hits,
            )
        })
        .collect();
    let stage_rows = &arms[0].stage_totals;
    let virtual_total: u64 = stage_rows.iter().map(|(_, agg)| agg.virtual_ms).sum();
    let stage_json: Vec<String> = stage_rows
        .iter()
        .map(|(stage, agg)| {
            format!(
                concat!(
                    "    {{\"stage\": \"{}\", \"questions\": {}, \"virtual_ms\": {}, ",
                    "\"wall_ms\": {:.1}, \"virtual_share\": {:.4}}}"
                ),
                json_escape(stage),
                agg.questions,
                agg.virtual_ms,
                agg.wall_ns as f64 / 1e6,
                agg.virtual_ms as f64 / virtual_total.max(1) as f64,
            )
        })
        .collect();
    let base_makespan = sweep.first().map_or(1, |a| a.virtual_makespan_ms.max(1));
    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|a| {
            format!(
                concat!(
                    "    {{\"threads\": {}, \"wall_cold_ms\": {:.1}, ",
                    "\"virtual_makespan_ms\": {}, \"virtual_qps\": {:.2}, ",
                    "\"virtual_speedup\": {:.2}, \"identical\": {}}}"
                ),
                a.threads,
                a.wall_cold_ms,
                a.virtual_makespan_ms,
                questions as f64 / (a.virtual_makespan_ms.max(1) as f64 / 1e3),
                base_makespan as f64 / a.virtual_makespan_ms.max(1) as f64,
                a.identical,
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"perf\",\n",
            "  \"dataset\": \"qald\",\n",
            "  \"source\": \"wikidata\",\n",
            "  \"build\": {{\"docs\": {}, \"threads\": {}, ",
            "\"build_threads_used\": {}, \"serial_ms\": {:.1}, ",
            "\"parallel_ms\": {:.1}, \"speedup\": {:.2}, \"identical\": true}},\n",
            "  \"retrieval\": {{\"queries\": {}, \"k\": {}, \"sigma\": {:.2}, ",
            "\"exact_ms\": {:.1}, \"pruned_ms\": {:.1}, \"speedup\": {:.2}, ",
            "\"identical\": {}}},\n",
            "  \"scoring\": {{\"queries\": {}, \"k\": {}, \"sigma\": {:.2}, ",
            "\"exact_f32_ms\": {:.1}, \"quant_ms\": {:.1}, \"speedup\": {:.2}, ",
            "\"screened\": {}, \"reranked\": {}, \"rerank_rate\": {:.4}, ",
            "\"bytes_f32\": {}, \"bytes_with_quant\": {}, \"identical\": {}}},\n",
            "  \"batched\": {{\"queries\": {}, \"docs\": {}, \"k\": {}, \"sigma\": {:.2}, ",
            "\"seq_ms\": {:.1}, \"identical\": {}, \"widths\": [\n",
            "{}\n",
            "  ]}},\n",
            "  \"sharded\": {{\"queries\": {}, \"shard_counts\": [{}], ",
            "\"identical\": {}}},\n",
            "  \"scaling\": {{\"k\": {}, \"sigma\": {:.2}, \"rows\": [\n",
            "{}\n",
            "  ]}},\n",
            "  \"e2e\": {{\"questions\": {}, \"answers_identical\": true, \"arms\": [\n",
            "{}\n",
            "  ]}},\n",
            "  \"stages\": {{\"questions\": {}, \"arm\": \"{}\", ",
            "\"virtual_total_ms\": {}, \"rows\": [\n",
            "{}\n",
            "  ]}},\n",
            "  \"threads_sweep\": {{\"questions\": {}, \"answers_identical\": {}, ",
            "\"counts\": [\n",
            "{}\n",
            "  ]}},\n",
            "  \"warnings\": [{}]\n",
            "}}\n"
        ),
        build.docs,
        build.threads,
        build.build_threads_used,
        build.serial_ms,
        build.parallel_ms,
        build.serial_ms / build.parallel_ms,
        retr.queries,
        k,
        sigma,
        retr.exact_ms,
        retr.pruned_ms,
        retr.exact_ms / retr.pruned_ms,
        retr.identical,
        scoring.queries,
        k,
        sigma,
        scoring.exact_ms,
        scoring.quant_ms,
        scoring.exact_ms / scoring.quant_ms,
        scoring.stats.screened,
        scoring.stats.reranked,
        scoring.stats.rerank_rate(),
        scoring.bytes_f32,
        scoring.bytes_with_quant,
        scoring.identical,
        batched.queries,
        batched.docs,
        k,
        sigma,
        batched.seq_ms,
        batched.identical,
        width_json.join(",\n"),
        sharded.queries,
        sharded
            .shard_counts
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        sharded.identical,
        k,
        sigma,
        scaling_json.join(",\n"),
        questions,
        arm_json.join(",\n"),
        questions,
        arms[0].mode,
        virtual_total,
        stage_json.join(",\n"),
        questions,
        sweep.iter().all(|a| a.identical),
        sweep_json.join(",\n"),
        warnings
            .iter()
            .map(|w| format!("\"{}\"", json_escape(w)))
            .collect::<Vec<_>>()
            .join(", "),
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    bench::install_wall_clock();
    let exp = setup(20);
    let (dataset, retr_queries, e2e_questions) = if smoke {
        (&exp.nature, 600, 15)
    } else {
        (&exp.qald, usize::MAX, exp.qald.questions.len())
    };

    let (build, base) = bench_build(&exp, dataset);
    let retr = bench_retrieval(&exp, &base, retr_queries.min(base.len()));
    if !retr.identical {
        eprintln!(
            "perf violation: exact or pruned retrieval diverged from the \
             oracle over {} self-queries",
            retr.queries
        );
        std::process::exit(1);
    }

    let self_queries = retr_queries.min(base.len());
    let oracle = oracle_self_queries(
        base.segmented(),
        self_queries,
        exp.cfg.top_k,
        exp.cfg.retrieval_jitter,
    );
    let scoring = bench_scoring(&exp, &base, self_queries, &oracle);
    if !scoring.identical {
        eprintln!(
            "perf violation: the f32 or the quantized screen+rerank scan \
             diverged from the oracle over {} self-queries",
            scoring.queries
        );
        std::process::exit(1);
    }

    let batched = bench_batched(&exp, &base, self_queries, &oracle);
    if !batched.identical {
        eprintln!(
            "perf violation: the batched quantized engine diverged from the \
             oracle (or from the sequential scan's counters) over {} \
             self-queries",
            batched.queries
        );
        std::process::exit(1);
    }

    let sharded = bench_sharded_identity(&exp, &base, if smoke { 150 } else { 400 });
    if !sharded.identical {
        eprintln!(
            "perf violation: a sharded scan diverged from the \
             oracle over {} self-queries at shard counts {:?}",
            sharded.queries, sharded.shard_counts,
        );
        std::process::exit(1);
    }

    let scaling_sizes: &[usize] = if smoke {
        &[2_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let scaling = bench_scaling(&exp, scaling_sizes, exp.cfg.top_k, exp.cfg.retrieval_jitter);
    for row in &scaling {
        if !row.identical {
            eprintln!(
                "perf violation: the segmented index diverged from the \
                 oracle at {} docs on the scaling curve",
                row.docs,
            );
            std::process::exit(1);
        }
        if row.docs >= 100_000 && row.build_speedup < 2.0 {
            eprintln!(
                "perf violation: virtual parallel build speedup {:.2}x at {} \
                 docs is below the 2x gate (serial {:.0} ms, virtual x8 \
                 {:.0} ms)",
                row.build_speedup, row.docs, row.build_serial_ms, row.build_virtual_parallel_ms,
            );
            std::process::exit(1);
        }
    }

    let e2e_set = worldgen::Dataset {
        kind: dataset.kind,
        questions: dataset.questions[..e2e_questions.min(dataset.questions.len())].to_vec(),
    };
    let exact_arm = e2e_arm(&exp, &e2e_set, RetrievalMode::Exact, "exact");
    let pruned_arm = e2e_arm(&exp, &e2e_set, RetrievalMode::Pruned, "pruned");
    if exact_arm.answers != pruned_arm.answers {
        eprintln!("perf violation: pruned mode changed end-to-end answers");
        std::process::exit(1);
    }
    let mut warn = WarnLog::new();
    // Each arm ran twice (cold, then warm on the same base); both arms
    // warm identically, so comparing each arm's best run damps one-off
    // scheduler stalls that a single cold measurement is exposed to. A
    // real regression slows both of an arm's runs and still trips this.
    let pruned_best_ms = pruned_arm.cold_ms.min(pruned_arm.warm_ms);
    let exact_best_ms = exact_arm.cold_ms.min(exact_arm.warm_ms);
    warn.slower_than(pruned_best_ms, exact_best_ms, 0.05, || {
        format!(
            "pruned e2e underperforms exact (best-of-2 {:.2} q/s vs {:.2} q/s, \
             candidate fraction {:.3}, {} gate fallbacks) — the adaptive gate \
             is letting unprofitable pruning through on this corpus",
            e2e_set.questions.len() as f64 / (pruned_best_ms / 1e3),
            e2e_set.questions.len() as f64 / (exact_best_ms / 1e3),
            pruned_arm.cand_fraction,
            pruned_arm.gate_fallbacks,
        )
    });

    let sweep = threads_sweep(&exp, &e2e_set, &[1, 2, 4, 8]);
    if let Some(bad) = sweep.iter().find(|a| !a.identical) {
        eprintln!(
            "perf violation: the {}-thread runner diverged from the 1-thread \
             run (identity key mismatch over {} questions)",
            bad.threads,
            e2e_set.questions.len(),
        );
        std::process::exit(1);
    }
    let makespan_1 = sweep[0].virtual_makespan_ms.max(1);
    let makespan_8 = sweep
        .last()
        .expect("sweep has arms")
        .virtual_makespan_ms
        .max(1);
    let virtual_speedup_8 = makespan_1 as f64 / makespan_8 as f64;
    if !smoke && virtual_speedup_8 < 4.0 {
        eprintln!(
            "perf violation: 8-thread virtual speedup {virtual_speedup_8:.2}x \
             is below the 4x gate (makespan {makespan_1} ms at 1 thread vs \
             {makespan_8} ms at 8)"
        );
        std::process::exit(1);
    }
    let stage_desc = exact_arm
        .stage_totals
        .iter()
        .map(|(stage, agg)| format!("{stage}={}", agg.virtual_ms))
        .collect::<Vec<_>>()
        .join(" ");

    let retrieval_speedup = retr.exact_ms / retr.pruned_ms;
    let scoring_speedup = scoring.exact_ms / scoring.quant_ms;
    let batched_w8 = batched
        .widths
        .iter()
        .find(|w| w.width == 8)
        .map_or(1.0, |w| batched.seq_ms / w.batch_ms);
    let batched_ns = batched
        .widths
        .iter()
        .map(|w| format!("w{} {:.1}", w.width, batched.ns_per_pair(w.batch_ms)))
        .collect::<Vec<_>>()
        .join(", ");
    if smoke {
        println!(
            "perf smoke ok: docs={} build byte-identical ({:.0}ms serial / {:.0}ms \
             x{}), retrieval bit-identical over {} queries (speedup {:.2}), \
             scoring bit-identical over {} queries (speedup {:.2}, rerank rate \
             {:.4}), batched kernel bit-identical over {} queries at widths \
             1/2/3/4/8 (ns per pair {}; w8 speedup {:.2}), e2e answers \
             identical across modes and cache states",
            build.docs,
            build.serial_ms,
            build.parallel_ms,
            build.threads,
            retr.queries,
            retrieval_speedup,
            scoring.queries,
            scoring_speedup,
            scoring.stats.rerank_rate(),
            batched.queries,
            batched_ns,
            batched_w8,
        );
        println!(
            "perf smoke sharded base ok: shard counts {:?} bit-identical \
             to the oracle over {} self-queries across \
             full/pruned x f32/quant x sequential/batched modes",
            sharded.shard_counts, sharded.queries,
        );
        for row in &scaling {
            println!(
                "perf smoke scaling ok: {} docs ({} unique) in {} segments, \
                 serial build {:.0}ms (virtual x8 {:.0}ms, speedup {:.2}, \
                 self-tuned threads {}), {} bytes resident, {:.3}ms/query, \
                 identity ok",
                row.docs,
                row.unique_docs,
                row.segments,
                row.build_serial_ms,
                row.build_virtual_parallel_ms,
                row.build_speedup,
                row.build_threads_used,
                row.resident_bytes,
                row.query_ms,
            );
        }
        println!(
            "perf smoke stage breakdown over {} questions (virtual ms): {}",
            e2e_set.questions.len(),
            stage_desc,
        );
        println!(
            "perf smoke runner thread-identity ok: threads 1/2/4/8 \
             byte-identical over {} questions, 8-thread virtual speedup \
             {:.2}x",
            e2e_set.questions.len(),
            virtual_speedup_8,
        );
        return;
    }

    let arms = [exact_arm, pruned_arm];
    let report = json_report(
        &build,
        &retr,
        &scoring,
        &batched,
        &sharded,
        &scaling,
        &arms,
        &sweep,
        e2e_set.questions.len(),
        exp.cfg.top_k,
        exp.cfg.retrieval_jitter,
        warn.warnings(),
    );
    std::fs::write("BENCH_perf.json", &report).expect("write BENCH_perf.json");
    println!("{report}");
    let scaling_desc = scaling
        .iter()
        .map(|r| {
            format!(
                "{}docs:{:.0}ms/x{:.1}/{}B/{:.2}ms",
                r.docs, r.build_serial_ms, r.build_speedup, r.resident_bytes, r.query_ms,
            )
        })
        .collect::<Vec<_>>()
        .join(" ");
    println!(
        "perf ok: docs={} retrieval_speedup={:.2} scoring_speedup={:.2} \
         build_speedup={:.2} batched_w8_speedup={:.2} warm_qps(pruned)={:.1} \
         cand_fraction {:.4}, sharded identity ok at shard counts {:?}, \
         scaling [{}] stage breakdown [{}] \
         runner thread-identity ok at 1/2/4/8 (8-thread virtual speedup \
         {:.2}x) — BENCH_perf.json written",
        build.docs,
        retrieval_speedup,
        scoring_speedup,
        build.serial_ms / build.parallel_ms,
        batched_w8,
        e2e_set.questions.len() as f64 / (arms[1].warm_ms / 1e3),
        arms[1].cand_fraction,
        sharded.shard_counts,
        scaling_desc,
        stage_desc,
        virtual_speedup_8,
    );
}
