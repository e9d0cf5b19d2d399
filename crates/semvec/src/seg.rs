//! The retrieval engine: a sharded (segmented) index of f32 rows and
//! int8 shadows, from the paper-size base to a million documents, and
//! its one scan.
//!
//! [`SegmentedIndex`] holds one f32 row per document in global id
//! order and splits the corpus into fixed-size segments of
//! [`seg_rows`](SegmentedIndex::seg_rows) documents. Each segment owns
//! its *own* int8 quant shadow (per-segment scale and max-norm).
//! Segments are contiguous in global id space: segment `s` holds ids
//! `[s·seg_rows, s·seg_rows + rows)`, so global id ↔ (segment, local
//! row) is a division — no lookup tables.
//!
//! **Bit-identity contract.** The scan,
//! [`SegmentedIndex::top_k_noisy_quant_batch`], returns per query slot
//! hits bit-identical to the naive oracle [`crate::reference_top_k`]
//! (score every document with `dot` + jitter, full sort by (score desc,
//! id asc), keep k), for *any* segment count and any batch around the
//! slot:
//!
//! * The rerank runs the oracle's per-pair expression
//!   (`dot(query, row) + jitter(salt, global_id, sigma)`) — jitter is
//!   keyed on the **global** id, so shard geometry never enters a
//!   score — and the [`TopK`] total order (score desc, id asc) makes
//!   the kept set independent of offer order.
//! * The screen scores each segment against its own scale, and the
//!   rerank keeps a **single global margin** `θ̂ − 2·B_max`, where `θ̂`
//!   is the k-th best screened score across all segments and `B_max`
//!   the largest per-segment error bound for this query. Proof sketch:
//!   a skipped doc `j` in segment `s` has
//!   `exact_j ≤ screened_j + bound_s ≤ screened_j + B_max < θ̂ − B_max`,
//!   while each of the k screened-top docs `i` has
//!   `exact_i ≥ θ̂ − bound_seg(i) ≥ θ̂ − B_max > exact_j` — so k
//!   documents strictly beat every skipped one, the exact top-k
//!   survives the margin, and the reranked heap (exact scores, total
//!   order) equals the oracle's. Screen/rerank *counters* depend on
//!   the segment count (the margins differ); hits never do.
//!
//!   The scan applies the margin **while it screens**, in one pass.
//!   `B_max` is computed over every segment before the first row is
//!   screened, so the running margin `θ̂_run − 2·B_max` (`θ̂_run` the
//!   k-th best screened score offered so far, −∞ before k offers) can
//!   only rise, and `θ̂_run ≤ θ̂`. A pair screening below the running
//!   margin is dropped: it is below the final margin `θ̂ − 2·B_max`
//!   too, so the rerank would skip it; and since `B_max ≥ 0` it is
//!   strictly below the current k-th screened score, so offering it to
//!   the quantized heap would be a no-op. The quantized heap, hence
//!   `θ̂`, the rerank set and the `reranked` counter are therefore
//!   exactly those of screening every document first and applying the
//!   final margin after; the kept pairs are filtered against the final
//!   margin and reranked. A pair is dropped before its jitter is
//!   hashed when `fl(a + jmax)` is below the margin (`a` the
//!   dequantized dot, `jmax` the largest jitter): every f32 operation
//!   of the jitter is monotone in its unit value, so its screened
//!   score `fl(a + jitter) ≤ fl(a + jmax)`.

use crate::embed::{dot, Embedder};
use crate::index::{jitter, jitter_max, Hit, NoisyQuery, TopK};
use crate::quant::{dot_i8_batch, pair_error_bound, quantize_block};
use crate::quant::{QuantQuery, ScreenStats};
use kgstore::hash::FxHashMap;

/// Default documents per segment. At the seed corpus (~6k docs) this
/// yields one segment — the sharded engine degenerates to the
/// unsharded layout — while a 1M-doc base splits into ~123 segments
/// that stream tile-sized blocks.
pub const SEG_ROWS_DEFAULT: usize = 8192;

/// Below this many unique documents the parallel build runs serial:
/// thread spawn overhead exceeds the encode win (the 6k-doc seed
/// corpus measured 1.03× — inside noise).
pub const PARALLEL_BUILD_MIN_DOCS: usize = 4096;

/// Resolve the worker-thread count for a build over `unique_docs`
/// deduplicated documents: an explicit `requested` count is honored
/// verbatim; `0` self-tunes — serial below
/// [`PARALLEL_BUILD_MIN_DOCS`], all available cores at or above it.
pub fn resolve_build_threads(unique_docs: usize, requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    if unique_docs < PARALLEL_BUILD_MIN_DOCS {
        1
    } else {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    }
}

/// The contiguous row ranges a `threads`-worker build encodes, one per
/// worker — exposed so the perf bench can time each chunk's encode
/// independently (the virtual-makespan model of a parallel build on a
/// machine with fewer real cores).
pub fn build_chunk_ranges(docs: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    if docs == 0 {
        return Vec::new();
    }
    let chunk = docs.div_ceil(threads.min(docs).max(1));
    (0..docs)
        .step_by(chunk)
        .map(|s| s..(s + chunk).min(docs))
        .collect()
}

/// One fixed-size shard: contiguous global ids `[base, base + rows)`
/// and an int8 shadow of those rows quantized against this segment's
/// own scale.
#[derive(Debug)]
struct Segment {
    base: usize,
    rows: usize,
    quant: Vec<i8>,
    scale: f32,
    max_norm: f32,
}

/// The sharded index (see module docs for the layout and the
/// bit-identity contract).
#[derive(Debug)]
pub struct SegmentedIndex {
    dim: usize,
    seg_rows: usize,
    n_docs: usize,
    /// Every document's f32 row, in global id order.
    vectors: Vec<f32>,
    segments: Vec<Segment>,
    build_threads_used: usize,
}

impl SegmentedIndex {
    /// Build from texts with [`SEG_ROWS_DEFAULT`]-row segments and
    /// self-tuned threads.
    pub fn build<'a, I: IntoIterator<Item = &'a str>>(embedder: &Embedder, texts: I) -> Self {
        let texts: Vec<&str> = texts.into_iter().collect();
        Self::build_parallel(embedder, &texts, SEG_ROWS_DEFAULT, 0)
    }

    /// Build with `seg_rows`-row segments and `threads` encode workers
    /// (`0` self-tunes via [`resolve_build_threads`]). Each distinct
    /// text is encoded once, straight into the row of its first
    /// occurrence — the workers split the rows into the contiguous
    /// chunks of [`build_chunk_ranges`] — and every later duplicate
    /// copies that row; then the workers quantize contiguous runs of
    /// segments. Output is
    /// byte-identical for every thread count (a row's bits depend only
    /// on its text) and for every `seg_rows` (segmentation changes the
    /// quant shadows' extent, never a row's bits).
    pub fn build_parallel(
        embedder: &Embedder,
        texts: &[&str],
        seg_rows: usize,
        threads: usize,
    ) -> Self {
        assert!(seg_rows > 0, "segments need at least one row");
        let dim = embedder.dim();
        let n_docs = texts.len();

        // The id of each text's first occurrence.
        let mut first_of_text: FxHashMap<&str, usize> = FxHashMap::default();
        let first: Vec<usize> = texts
            .iter()
            .enumerate()
            .map(|(id, &t)| *first_of_text.entry(t).or_insert(id))
            .collect();
        let threads = resolve_build_threads(first_of_text.len(), threads);
        drop(first_of_text);

        let mut vectors = vec![0.0f32; n_docs * dim];
        let encode_rows = |start: usize, rows: &mut [f32]| {
            for (id, row) in (start..).zip(rows.chunks_exact_mut(dim)) {
                if first[id] == id {
                    embedder.encode_into(texts[id], row);
                }
            }
        };
        if threads <= 1 {
            encode_rows(0, &mut vectors);
        } else {
            let encode_rows = &encode_rows;
            std::thread::scope(|scope| {
                let mut rest: &mut [f32] = &mut vectors;
                for range in build_chunk_ranges(n_docs, threads) {
                    let (rows, tail) = std::mem::take(&mut rest).split_at_mut(range.len() * dim);
                    rest = tail;
                    scope.spawn(move || encode_rows(range.start, rows));
                }
            });
        }
        // A first occurrence precedes its duplicates, so its row is
        // encoded by now.
        for (id, &f) in first.iter().enumerate() {
            if f != id {
                vectors.copy_within(f * dim..(f + 1) * dim, id * dim);
            }
        }

        // Each segment is quantized from its slice of the column; the
        // workers take contiguous runs of segments.
        let blocks: Vec<&[f32]> = vectors.chunks(seg_rows.saturating_mul(dim)).collect();
        let quantize = |run: &[&[f32]]| -> Vec<(Vec<i8>, f32, f32)> {
            run.iter()
                .map(|block| quantize_block(dim, block.len() / dim, block))
                .collect()
        };
        let shadows = if threads <= 1 || blocks.len() < 2 {
            quantize(&blocks)
        } else {
            let per_worker = blocks.len().div_ceil(threads.min(blocks.len()));
            std::thread::scope(|scope| {
                let workers: Vec<_> = blocks
                    .chunks(per_worker)
                    .map(|run| scope.spawn(move || quantize(run)))
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("quantize worker panicked"))
                    .collect()
            })
        };
        let segments = blocks
            .iter()
            .zip(shadows)
            .enumerate()
            .map(|(s, (block, (quant, scale, max_norm)))| Segment {
                base: s * seg_rows,
                rows: block.len() / dim,
                quant,
                scale,
                max_norm,
            })
            .collect();
        Self {
            dim,
            seg_rows,
            n_docs,
            vectors,
            segments,
            build_threads_used: threads,
        }
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.n_docs
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.n_docs == 0
    }

    /// Row dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Documents per segment (the last segment may hold fewer).
    pub fn seg_rows(&self) -> usize {
        self.seg_rows
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Rows in segment `s`.
    pub fn segment_rows(&self, s: usize) -> usize {
        self.segments[s].rows
    }

    /// Quantization scale of segment `s`'s int8 shadow.
    pub fn segment_scale(&self, s: usize) -> f32 {
        self.segments[s].scale
    }

    /// Largest row L2 norm in segment `s`.
    pub fn segment_max_norm(&self, s: usize) -> f32 {
        self.segments[s].max_norm
    }

    /// Encode-worker threads the build used.
    pub fn build_threads_used(&self) -> usize {
        self.build_threads_used
    }

    /// The stored f32 vector with a given global id.
    #[inline]
    pub fn vector(&self, id: usize) -> &[f32] {
        &self.vectors[id * self.dim..(id + 1) * self.dim]
    }

    /// Resident bytes of the f32 rows and every segment's int8 shadow.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(&self.vectors[..])
            + self
                .segments
                .iter()
                .map(|s| std::mem::size_of_val(&s.quant[..]))
                .sum::<usize>()
    }

    /// Per-(query, segment) quantization error bound.
    #[inline]
    fn seg_bound(&self, qq: &QuantQuery, seg: &Segment) -> f64 {
        pair_error_bound(
            qq.scale() as f64,
            qq.norm() as f64,
            seg.scale as f64,
            seg.max_norm as f64,
            self.dim,
        )
    }

    /// Batched quantized noisy top-k: per-segment batched int8 screen,
    /// single global margin `θ̂ − 2·B_max` per query, exact f32 rerank.
    /// Hits bit-identical to [`crate::reference_top_k`] per slot (see
    /// the module-level proof sketch); a single query is a one-slot
    /// batch.
    ///
    /// One pass: each query's `B_max` is fixed before the screen, so
    /// its running margin only rises, and the screen keeps just the
    /// pairs at or above it — the only ones that can enter the
    /// quantized heap or survive the final margin. A pair whose score
    /// plus the largest possible jitter (`jitter_max`) is already
    /// below the margin is dropped before its jitter is hashed.
    pub fn top_k_noisy_quant_batch(
        &self,
        queries: &[NoisyQuery<'_>],
        k: usize,
        sigma: f32,
    ) -> Vec<(Vec<Hit>, ScreenStats)> {
        for q in queries {
            assert_eq!(q.vector.len(), self.dim, "dimension mismatch");
        }
        let n = self.n_docs;
        if k == 0 || n == 0 {
            return vec![(Vec::new(), ScreenStats::default()); queries.len()];
        }
        let sigma = sigma.max(0.0);
        let jmax = jitter_max(sigma);
        let qqs: Vec<QuantQuery> = queries.iter().map(|q| QuantQuery::new(q.vector)).collect();
        let qrows: Vec<&[i8]> = qqs.iter().map(|qq| qq.row()).collect();
        let b_max: Vec<f64> = qqs
            .iter()
            .map(|qq| {
                self.segments
                    .iter()
                    .map(|seg| self.seg_bound(qq, seg))
                    .fold(0.0, f64::max)
            })
            .collect();
        let margin_of = |top: &TopK, b_max: f64| match top.bound() {
            Some(kth) => kth.score as f64 - 2.0 * b_max,
            None => f64::NEG_INFINITY,
        };
        let mut quant_tops: Vec<TopK> = queries.iter().map(|_| TopK::new(k)).collect();
        let mut kept: Vec<Vec<Hit>> = vec![Vec::new(); queries.len()];
        let mut raw: Vec<Vec<i32>> = vec![Vec::new(); queries.len()];
        for seg in &self.segments {
            for r in raw.iter_mut() {
                r.clear();
                r.reserve(seg.rows);
            }
            dot_i8_batch(&qrows, &seg.quant, self.dim, &mut raw);
            for slot in 0..queries.len() {
                let (q, top, kept) = (&queries[slot], &mut quant_tops[slot], &mut kept[slot]);
                let factor = qqs[slot].scale() * seg.scale;
                let mut margin = margin_of(top, b_max[slot]);
                for (c, dots) in raw[slot].chunks(64).enumerate() {
                    // Bit j is set unless even the largest jitter
                    // leaves pair j below the margin so far. Built
                    // without branches: the test passes for a
                    // data-dependent share of pairs that the branch
                    // predictor cannot learn.
                    let mut maybe = 0u64;
                    for (j, &d) in dots.iter().enumerate() {
                        let below = ((d as f32 * factor + jmax) as f64) < margin;
                        maybe |= (u64::from(below) ^ 1) << j;
                    }
                    while maybe != 0 {
                        let j = maybe.trailing_zeros() as usize;
                        maybe &= maybe - 1;
                        let id = seg.base + c * 64 + j;
                        let a = dots[j] as f32 * factor;
                        let s = if sigma > 0.0 {
                            a + jitter(q.salt, id, sigma)
                        } else {
                            a
                        };
                        if (s as f64) < margin {
                            continue;
                        }
                        let hit = Hit { id, score: s };
                        top.offer(hit);
                        kept.push(hit);
                        margin = margin_of(top, b_max[slot]);
                    }
                }
            }
        }
        queries
            .iter()
            .zip(quant_tops)
            .zip(kept)
            .zip(b_max)
            .map(|(((q, quant_top), kept), b_max)| {
                let margin = margin_of(&quant_top, b_max);
                let mut top = TopK::new(k);
                let mut reranked = 0u64;
                for h in kept {
                    if (h.score as f64) < margin {
                        continue;
                    }
                    reranked += 1;
                    let mut score = dot(q.vector, self.vector(h.id));
                    if sigma > 0.0 {
                        score += jitter(q.salt, h.id, sigma);
                    }
                    top.offer(Hit { id: h.id, score });
                }
                (
                    top.into_sorted(),
                    ScreenStats {
                        screened: n as u64,
                        reranked,
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::reference_top_k;
    use kgstore::hash::stable_str_hash;

    fn corpus(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("entity{} relation{} value{}", i, i % 7, i % 13))
            .collect()
    }

    fn queries() -> Vec<&'static str> {
        vec![
            "entity42 relation0 value3",
            "entity7 relation3",
            "value11 relation5 entity100",
            "zzz qqq totally unseen",
        ]
    }

    /// Shard counts under test: 1 segment (degenerate), 2, 7 (uneven
    /// tail), and tiny segments (many shards).
    fn seg_rows_for(n: usize) -> Vec<usize> {
        vec![n, n.div_ceil(2), n.div_ceil(7), 64]
    }

    /// One query through the scan, as a one-slot batch.
    fn scan_one(
        idx: &SegmentedIndex,
        query: &[f32],
        k: usize,
        sigma: f32,
        salt: u64,
    ) -> (Vec<Hit>, ScreenStats) {
        let slot = NoisyQuery {
            vector: query,
            salt,
        };
        idx.top_k_noisy_quant_batch(&[slot], k, sigma)
            .pop()
            .expect("one slot in, one result out")
    }

    #[test]
    fn full_scans_match_oracle_bitwise() {
        let emb = Embedder::paper();
        let texts = corpus(500);
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let flat = SegmentedIndex::build_parallel(&emb, &refs, texts.len(), 1);
        for seg_rows in seg_rows_for(texts.len()) {
            let idx = SegmentedIndex::build_parallel(&emb, &refs, seg_rows, 1);
            for q in queries() {
                let qv = emb.encode(q);
                let salt = stable_str_hash(q);
                for sigma in [0.0f32, 0.3, 0.6] {
                    let oracle = reference_top_k(&flat, &qv, 10, sigma, salt);
                    let (qhits, qstats) = scan_one(&idx, &qv, 10, sigma, salt);
                    assert_eq!(
                        qhits, oracle,
                        "quant seg_rows {seg_rows} q {q:?} sigma {sigma}"
                    );
                    assert_eq!(qstats.screened, texts.len() as u64);
                    assert!(qstats.reranked >= 10, "margin must cover the top-k");
                }
            }
        }
    }

    #[test]
    fn batched_scans_match_oracle_per_slot() {
        let emb = Embedder::paper();
        let texts = corpus(400);
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let idx = SegmentedIndex::build_parallel(&emb, &refs, 150, 1);
        let encoded: Vec<Vec<f32>> = queries().iter().map(|q| emb.encode(q)).collect();
        // A duplicate (same vector and salt) slot must fan out the same
        // hits as its twin.
        let mut noisy: Vec<NoisyQuery> = queries()
            .iter()
            .zip(&encoded)
            .map(|(q, v)| NoisyQuery {
                vector: v,
                salt: stable_str_hash(q),
            })
            .collect();
        noisy.push(noisy[0]);
        for sigma in [0.0f32, 0.3] {
            let qbatch = idx.top_k_noisy_quant_batch(&noisy, 10, sigma);
            for (i, q) in noisy.iter().enumerate() {
                let oracle = reference_top_k(&idx, q.vector, 10, sigma, q.salt);
                assert_eq!(qbatch[i].0, oracle, "quant slot {i} sigma {sigma}");
                // Counters are per-query state the batch never shares.
                let (_, one_stats) = scan_one(&idx, q.vector, 10, sigma, q.salt);
                assert_eq!(qbatch[i].1, one_stats, "stats slot {i} sigma {sigma}");
            }
        }
        assert!(idx.top_k_noisy_quant_batch(&[], 10, 0.3).is_empty());
    }

    #[test]
    fn parallel_build_is_byte_identical_to_serial() {
        let emb = Embedder::paper();
        let texts: Vec<String> = corpus(300).into_iter().chain(corpus(300)).collect();
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let serial = SegmentedIndex::build_parallel(&emb, &refs, 128, 1);
        let parallel = SegmentedIndex::build_parallel(&emb, &refs, 128, 8);
        assert_eq!(serial.len(), parallel.len());
        assert_eq!(serial.num_segments(), parallel.num_segments());
        for id in 0..serial.len() {
            assert_eq!(serial.vector(id), parallel.vector(id), "row {id}");
        }
        for s in 0..serial.num_segments() {
            assert_eq!(
                serial.segment_scale(s).to_bits(),
                parallel.segment_scale(s).to_bits()
            );
            assert_eq!(
                serial.segment_max_norm(s).to_bits(),
                parallel.segment_max_norm(s).to_bits()
            );
        }
        assert_eq!(serial.build_threads_used(), 1);
        assert_eq!(parallel.build_threads_used(), 8);
    }

    #[test]
    fn self_tuning_build_goes_serial_below_threshold() {
        assert_eq!(resolve_build_threads(PARALLEL_BUILD_MIN_DOCS - 1, 0), 1);
        assert!(resolve_build_threads(PARALLEL_BUILD_MIN_DOCS, 0) >= 1);
        assert_eq!(resolve_build_threads(10, 3), 3);
        assert_eq!(resolve_build_threads(1_000_000, 2), 2);
    }

    #[test]
    fn build_chunk_ranges_cover_exactly() {
        for (n, t) in [(0usize, 4usize), (1, 4), (10, 3), (100, 8), (7, 100)] {
            let ranges = build_chunk_ranges(n, t);
            let mut covered = 0;
            for r in &ranges {
                assert_eq!(r.start, covered, "contiguous");
                covered = r.end;
            }
            assert_eq!(covered, n, "n {n} t {t}");
        }
    }

    #[test]
    fn empty_index_works() {
        let emb = Embedder::paper();
        let idx = SegmentedIndex::build(&emb, std::iter::empty());
        assert!(idx.is_empty());
        assert_eq!(idx.num_segments(), 0);
        assert_eq!(idx.resident_bytes(), 0);
        assert!(scan_one(&idx, &vec![0.0; emb.dim()], 5, 0.3, 1)
            .0
            .is_empty());
    }
}
