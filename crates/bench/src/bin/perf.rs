//! Perf bench: the retrieval scan measured end to end, with every
//! timing gated on hits bit-identical to the naive oracle
//! [`semvec::reference_top_k`] (score every document with `dot` +
//! jitter, full sort, keep k).
//!
//! Sections:
//!
//! * **build** — serial vs parallel [`BaseIndex`] construction over the
//!   QALD-10 question union (byte-identical output asserted);
//! * **batched** — the scan (an int8 screen over 16-row groups with an
//!   exact f32 rerank) at batch widths 1/2/3/4/8 over the full base,
//!   one self-query per stored vector — grounding runs mostly widths 2
//!   and 3 — each width timed [`BATCHED_REPS`] times in turn, with the
//!   cost per screened (query, document) pair at each width (the
//!   fastest repetition, and the slowest over the fastest as its
//!   spread), the speedup over width 1 and the group-dots leaf the host
//!   dispatched (`semvec::screen_kernel`), so every figure is
//!   attributable (hits asserted equal to the oracle and screen
//!   counters equal to width 1's at every width and repetition);
//! * **scaling** — the 10k/100k/1M curve over a scaled world: serial
//!   segmented build time, the virtual 8-thread build makespan (the
//!   encode chunks of the parallel build re-timed one by one, and the
//!   worst worker's share of the per-segment quantization — wall time
//!   cannot show parallel speedup on a single-core box, the chunk
//!   schedule can), each the median of three builds, resident bytes
//!   and mean query latency of the built index, and its scan asserted
//!   equal to the oracle at every point (≥2x median virtual build
//!   speedup gated at 100k and above);
//! * **end-to-end** — the full pipeline run cold (first pass in the
//!   process) then warm (same base re-queried), reporting questions/sec
//!   and build time (identical answers asserted across both runs);
//! * **stages** — the per-stage profile of the cold run: virtual and
//!   wall time per pipeline stage (pseudo / ground / verify / answer /
//!   eval) with each stage's share of the virtual total;
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
use bench::warn::json_escape;
use bench::{model, setup, Experiment};
use pgg_core::{BaseIndex, PseudoGraphPipeline, StageAgg};
use semvec::{reference_top_k, Hit, NoisyQuery, ScreenStats, SegmentedIndex};
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

/// The oracle's hits for the first `n` stored vectors queried back
/// against the base, query `id` salted with `id` — the self-queries of
/// the batched section.
fn oracle_self_queries(base: &SegmentedIndex, n: usize, k: usize, sigma: f32) -> Vec<Vec<Hit>> {
    (0..n)
        .map(|id| reference_top_k(base, base.vector(id), k, sigma, id as u64))
        .collect()
}

/// Timed repetitions of each batched width in the full run (the smoke
/// runs one): a shared box can move one wall-clock timing 1.5× between
/// back-to-back runs, and the fastest of several is the repeatable
/// figure.
const BATCHED_REPS: usize = 5;

struct BatchedWidth {
    width: usize,
    /// The fastest repetition.
    batch_ms: f64,
    /// The slowest repetition over the fastest.
    spread: f64,
}

struct BatchedTiming {
    queries: usize,
    docs: usize,
    /// The group-dots leaf the scan dispatched.
    kernel: &'static str,
    /// Timed repetitions of each width.
    reps: usize,
    widths: Vec<BatchedWidth>,
    identical: bool,
}

impl BatchedTiming {
    /// Wall nanoseconds per screened (query, document) pair.
    fn ns_per_pair(&self, ms: f64) -> f64 {
        ms * 1e6 / (self.queries * self.docs).max(1) as f64
    }
}

/// The scan at each batch width: every stored vector queried back
/// against the full base, fed to the scan in chunks of the width, the
/// widths timed in turn `reps` times over. Every repetition's per-query
/// hits must equal `oracle` and its screen counters width 1's.
fn bench_batched(
    exp: &Experiment,
    base: &BaseIndex,
    queries: usize,
    oracle: &[Vec<Hit>],
    reps: usize,
) -> BatchedTiming {
    let vecs = base.segmented();
    let (k, sigma) = (exp.cfg.top_k, exp.cfg.retrieval_jitter);
    let n = queries.min(vecs.len());

    let widths = [1usize, 2, 3, 4, 8];
    let mut times = vec![Vec::with_capacity(reps); widths.len()];
    let mut identical = true;
    let mut width1_stats: Option<Vec<ScreenStats>> = None;
    for round in 0..reps * widths.len() {
        let width = widths[round % widths.len()];
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
        times[round % widths.len()].push(ms(t));
        let stats: Vec<ScreenStats> = batched.iter().map(|(_, s)| *s).collect();
        identical &= batched.len() == n && batched.iter().zip(oracle).all(|((h, _), o)| h == o);
        identical &= *width1_stats.get_or_insert_with(|| stats.clone()) == stats;
    }
    let widths = widths
        .iter()
        .zip(times)
        .map(|(&width, times)| {
            let fastest = times.iter().copied().fold(f64::INFINITY, f64::min);
            let slowest = times.iter().copied().fold(0.0, f64::max);
            BatchedWidth {
                width,
                batch_ms: fastest,
                spread: slowest / fastest,
            }
        })
        .collect();
    BatchedTiming {
        queries: n,
        docs: vecs.len(),
        kernel: semvec::screen_kernel(),
        reps,
        widths,
        identical,
    }
}

/// Serial segmented builds timed per corpus size; each row reports the
/// median.
const BUILD_SAMPLES: usize = 3;

struct ScalingRow {
    docs: usize,
    unique_docs: usize,
    segments: usize,
    /// Medians over [`BUILD_SAMPLES`] builds.
    build_serial_ms: f64,
    build_virtual_parallel_ms: f64,
    build_speedup: f64,
    /// Serial over virtual build time of each sample, in run order.
    build_speedups: Vec<f64>,
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

/// One timed serial build of a scaling corpus and its virtual 8-thread
/// makespan.
struct BuildSample {
    serial_ms: f64,
    virtual_parallel_ms: f64,
    unique_docs: usize,
}

/// Build `texts` serially, timed, then model the virtual 8-thread
/// makespan, mirroring what build_parallel actually distributes: the
/// first-occurrence map stays serial, the workers encode the first
/// occurrences of their contiguous row chunks (`build_chunk_ranges`),
/// duplicates copy their rows, and the workers quantize contiguous runs
/// of ceil(S/8) segments. The serial prefix and each encode chunk are
/// re-timed here; the makespan is the prefix plus the longest encode
/// chunk plus the worst worker's share of the remaining
/// (quantization-dominated) serial time.
fn time_build(exp: &Experiment, texts: &[&str]) -> (SegmentedIndex, BuildSample) {
    let n = texts.len();
    let t = Instant::now();
    let built = SegmentedIndex::build_parallel(&exp.embedder, texts, semvec::SEG_ROWS_DEFAULT, 1);
    let serial_ms = ms(t);

    let t = Instant::now();
    let mut first_of_text: std::collections::HashMap<&str, usize> =
        std::collections::HashMap::new();
    let first: Vec<usize> = texts
        .iter()
        .enumerate()
        .map(|(id, &s)| *first_of_text.entry(s).or_insert(id))
        .collect();
    let unique_docs = first_of_text.len();
    std::hint::black_box(&first);
    let first_ms = ms(t);

    let mut encode_total_ms = 0.0f64;
    let mut max_chunk_ms = 0.0f64;
    for range in semvec::build_chunk_ranges(n, 8) {
        let t = Instant::now();
        for id in range {
            if first[id] == id {
                std::hint::black_box(exp.embedder.encode(texts[id]));
            }
        }
        let chunk_ms = ms(t);
        encode_total_ms += chunk_ms;
        max_chunk_ms = max_chunk_ms.max(chunk_ms);
    }
    let seg_rows = semvec::SEG_ROWS_DEFAULT;
    let n_segments = n.div_ceil(seg_rows).max(1);
    // Worker 0 quantizes the first ceil(S/8) full-size segments — the
    // longest run (the last segment, the only short one, lands on the
    // last worker). Below 2 segments the build quantizes serially, so
    // the share is 1.
    let quantize_share = if n_segments < 2 {
        1.0
    } else {
        let per_worker = n_segments.div_ceil(8.min(n_segments));
        ((per_worker * seg_rows) as f64 / n as f64).min(1.0)
    };
    let residual_ms = (serial_ms - first_ms - encode_total_ms).max(0.0);
    let virtual_parallel_ms = (first_ms + max_chunk_ms + residual_ms * quantize_share).max(0.1);
    (
        built,
        BuildSample {
            serial_ms,
            virtual_parallel_ms,
            unique_docs,
        },
    )
}

/// The middle value of `xs` (the upper middle if its length is even).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The scaling curve: one row per corpus size, its build timed
/// [`BUILD_SAMPLES`] times. Identity at each point compares the scan of
/// the segmented index against the oracle on a spread query sample
/// (batched and re-segmented scans are gated by the batched section,
/// the semvec proptests and pgg-core's `resegmented_base_equals_the_oracle`).
fn bench_scaling(exp: &Experiment, sizes: &[usize], k: usize, sigma: f32) -> Vec<ScalingRow> {
    let max_docs = sizes.iter().copied().max().unwrap_or(0);
    let sentences = scaling_corpus(exp, max_docs);
    sizes
        .iter()
        .map(|&size| {
            let n = size.min(sentences.len());
            let texts: Vec<&str> = sentences[..n].iter().map(|s| s.as_str()).collect();

            // Only the last sample's index is kept (for the queries), so
            // at most one built index is resident at a time.
            let mut samples = Vec::with_capacity(BUILD_SAMPLES);
            let mut last = None;
            for round in 0..BUILD_SAMPLES {
                let (built, sample) = time_build(exp, &texts);
                samples.push(sample);
                if round + 1 == BUILD_SAMPLES {
                    last = Some(built);
                }
            }
            let built = last.expect("at least one build sample");
            let build_speedups: Vec<f64> = samples
                .iter()
                .map(|s| s.serial_ms / s.virtual_parallel_ms)
                .collect();
            let unique_docs = samples[0].unique_docs;

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
            let hits: Vec<Vec<Hit>> = sample
                .iter()
                .map(|&id| {
                    let slot = NoisyQuery {
                        vector: built.vector(id),
                        salt: id as u64,
                    };
                    built.top_k_noisy_quant_batch(&[slot], k, sigma).remove(0).0
                })
                .collect();
            let query_ms = ms(t) / sample.len().max(1) as f64;

            let identical = hits.iter().zip(&sample).all(|(hits, &id)| {
                *hits == reference_top_k(&built, built.vector(id), k, sigma, id as u64)
            });

            ScalingRow {
                docs: n,
                unique_docs,
                segments: built.num_segments(),
                build_serial_ms: median(samples.iter().map(|s| s.serial_ms).collect()),
                build_virtual_parallel_ms: median(
                    samples.iter().map(|s| s.virtual_parallel_ms).collect(),
                ),
                build_speedup: median(build_speedups.clone()),
                build_speedups,
                build_threads_used: semvec::resolve_build_threads(unique_docs, 0),
                resident_bytes: built.resident_bytes(),
                query_ms,
                identical,
            }
        })
        .collect()
}

struct E2eRun {
    build_ms: f64,
    cold_ms: f64,
    warm_ms: f64,
    mean_batch_width: f64,
    dedup_rate: f64,
    stage_totals: Vec<(String, StageAgg)>,
}

/// Full pipeline on `dataset`: cold run on a fresh base (the process's
/// first pass over these questions), then a warm re-run on the same
/// base, whose answers must equal the cold run's.
fn bench_e2e(exp: &Experiment, dataset: &worldgen::Dataset) -> E2eRun {
    let cfg = &exp.cfg;
    let t = Instant::now();
    let base = BaseIndex::for_questions(
        &exp.wikidata,
        &exp.embedder,
        cfg,
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
        cfg,
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
        cfg,
        dataset,
        0,
    );
    let warm_ms = ms(t);

    let answers: Vec<&str> = cold.records.iter().map(|r| r.answer.as_str()).collect();
    let warm_answers: Vec<&str> = warm.records.iter().map(|r| r.answer.as_str()).collect();
    assert_eq!(answers, warm_answers, "the warm run changed answers");
    let scoring = base.scoring_stats();
    E2eRun {
        build_ms,
        cold_ms,
        warm_ms,
        mean_batch_width: scoring.mean_batch_width(),
        dedup_rate: scoring.dedup_rate(),
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
/// fresh base, so arms are comparable. Every count must
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
    batched: &BatchedTiming,
    scaling: &[ScalingRow],
    e2e: &E2eRun,
    sweep: &[ThreadsArm],
    questions: usize,
    k: usize,
    sigma: f32,
) -> String {
    // Hand-formatted: the report layout is fixed and flat, and keeping
    // the encoder trivial means the bench has no serializer in its hot
    // or cold path to misattribute time to.
    let width1_ms = batched.widths.first().map_or(1.0, |w| w.batch_ms);
    let width_json: Vec<String> = batched
        .widths
        .iter()
        .map(|w| {
            format!(
                concat!(
                    "    {{\"width\": {}, \"batch_ms\": {:.1}, \"ns_per_pair\": {:.2}, ",
                    "\"spread\": {:.2}, \"speedup\": {:.2}}}"
                ),
                w.width,
                w.batch_ms,
                batched.ns_per_pair(w.batch_ms),
                w.spread,
                width1_ms / w.batch_ms,
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
                    "\"build_speedup\": {:.2}, \"build_speedups\": [{}], ",
                    "\"build_threads_used\": {}, ",
                    "\"resident_bytes\": {}, ",
                    "\"query_ms\": {:.3}, \"identical\": {}}}"
                ),
                r.docs,
                r.unique_docs,
                r.segments,
                r.build_serial_ms,
                r.build_virtual_parallel_ms,
                r.build_speedup,
                r.build_speedups
                    .iter()
                    .map(|x| format!("{x:.2}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                r.build_threads_used,
                r.resident_bytes,
                r.query_ms,
                r.identical,
            )
        })
        .collect();
    let stage_rows = &e2e.stage_totals;
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
            "  \"batched\": {{\"queries\": {}, \"docs\": {}, \"k\": {}, \"sigma\": {:.2}, ",
            "\"kernel\": \"{}\", \"reps\": {}, \"identical\": {}, \"widths\": [\n",
            "{}\n",
            "  ]}},\n",
            "  \"scaling\": {{\"k\": {}, \"sigma\": {:.2}, \"build_samples\": {}, \"rows\": [\n",
            "{}\n",
            "  ]}},\n",
            "  \"e2e\": {{\"questions\": {}, \"answers_identical\": true, ",
            "\"build_ms\": {:.1}, \"cold_ms\": {:.1}, \"warm_ms\": {:.1}, ",
            "\"cold_qps\": {:.2}, \"warm_qps\": {:.2}, ",
            "\"mean_batch_width\": {:.2}, \"dedup_rate\": {:.4}}},\n",
            "  \"stages\": {{\"questions\": {}, ",
            "\"virtual_total_ms\": {}, \"rows\": [\n",
            "{}\n",
            "  ]}},\n",
            "  \"threads_sweep\": {{\"questions\": {}, \"answers_identical\": {}, ",
            "\"counts\": [\n",
            "{}\n",
            "  ]}}\n",
            "}}\n"
        ),
        build.docs,
        build.threads,
        build.build_threads_used,
        build.serial_ms,
        build.parallel_ms,
        build.serial_ms / build.parallel_ms,
        batched.queries,
        batched.docs,
        k,
        sigma,
        batched.kernel,
        batched.reps,
        batched.identical,
        width_json.join(",\n"),
        k,
        sigma,
        BUILD_SAMPLES,
        scaling_json.join(",\n"),
        questions,
        e2e.build_ms,
        e2e.cold_ms,
        e2e.warm_ms,
        questions as f64 / (e2e.cold_ms / 1e3),
        questions as f64 / (e2e.warm_ms / 1e3),
        e2e.mean_batch_width,
        e2e.dedup_rate,
        questions,
        virtual_total,
        stage_json.join(",\n"),
        questions,
        sweep.iter().all(|a| a.identical),
        sweep_json.join(",\n"),
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    bench::install_wall_clock();
    let exp = setup(20);
    let (dataset, self_queries, e2e_questions) = if smoke {
        (&exp.nature, 600, 15)
    } else {
        (&exp.qald, usize::MAX, exp.qald.questions.len())
    };

    let (build, base) = bench_build(&exp, dataset);
    let self_queries = self_queries.min(base.len());
    let oracle = oracle_self_queries(
        base.segmented(),
        self_queries,
        exp.cfg.top_k,
        exp.cfg.retrieval_jitter,
    );
    let reps = if smoke { 1 } else { BATCHED_REPS };
    let batched = bench_batched(&exp, &base, self_queries, &oracle, reps);
    if !batched.identical {
        eprintln!(
            "perf violation: the batched scan diverged from the oracle (or \
             from width 1's counters) over {} self-queries",
            batched.queries
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
                "perf violation: median virtual parallel build speedup {:.2}x \
                 (samples {:.2?}) at {} docs is below the 2x gate (median \
                 serial {:.0} ms, virtual x8 {:.0} ms)",
                row.build_speedup,
                row.build_speedups,
                row.docs,
                row.build_serial_ms,
                row.build_virtual_parallel_ms,
            );
            std::process::exit(1);
        }
    }

    let e2e_set = worldgen::Dataset {
        kind: dataset.kind,
        questions: dataset.questions[..e2e_questions.min(dataset.questions.len())].to_vec(),
    };
    let e2e = bench_e2e(&exp, &e2e_set);

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
    let stage_desc = e2e
        .stage_totals
        .iter()
        .map(|(stage, agg)| format!("{stage}={}", agg.virtual_ms))
        .collect::<Vec<_>>()
        .join(" ");

    let width1_ms = batched.widths.first().map_or(1.0, |w| w.batch_ms);
    let batched_w8 = batched
        .widths
        .iter()
        .find(|w| w.width == 8)
        .map_or(1.0, |w| width1_ms / w.batch_ms);
    let batched_ns = batched
        .widths
        .iter()
        .map(|w| format!("w{} {:.1}", w.width, batched.ns_per_pair(w.batch_ms)))
        .collect::<Vec<_>>()
        .join(", ");
    if smoke {
        println!(
            "perf smoke ok: docs={} build byte-identical ({:.0}ms serial / {:.0}ms \
             x{}), batched kernel bit-identical over {} queries at widths \
             1/2/3/4/8 (kernel {}; ns per pair {}; w8 speedup over w1 {:.2}), \
             e2e answers identical across cold and warm runs",
            build.docs,
            build.serial_ms,
            build.parallel_ms,
            build.threads,
            batched.queries,
            batched.kernel,
            batched_ns,
            batched_w8,
        );
        for row in &scaling {
            println!(
                "perf smoke scaling ok: {} docs ({} unique) in {} segments, \
                 median of {} serial builds {:.0}ms (virtual x8 {:.0}ms, \
                 speedups {:.2?}, self-tuned threads {}), {} bytes resident, \
                 {:.3}ms/query, identity ok",
                row.docs,
                row.unique_docs,
                row.segments,
                BUILD_SAMPLES,
                row.build_serial_ms,
                row.build_virtual_parallel_ms,
                row.build_speedups,
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

    let report = json_report(
        &build,
        &batched,
        &scaling,
        &e2e,
        &sweep,
        e2e_set.questions.len(),
        exp.cfg.top_k,
        exp.cfg.retrieval_jitter,
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
        "perf ok: docs={} build_speedup={:.2} batched_w8_speedup={:.2} \
         (kernel {}) warm_qps={:.1}, scaling [{}] stage breakdown [{}] \
         runner thread-identity ok at 1/2/4/8 (8-thread virtual speedup \
         {:.2}x) — BENCH_perf.json written",
        build.docs,
        build.serial_ms / build.parallel_ms,
        batched_w8,
        batched.kernel,
        e2e_set.questions.len() as f64 / (e2e.warm_ms / 1e3),
        scaling_desc,
        stage_desc,
        virtual_speedup_8,
    );
}
