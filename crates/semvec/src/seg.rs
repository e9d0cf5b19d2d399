//! The retrieval engine: a sharded (segmented) index of f32 rows and
//! int8 shadows, from the paper-size base to a million documents, and
//! its one scan.
//!
//! [`SegmentedIndex`] holds one f32 row per document in global id
//! order and splits the corpus into fixed-size segments of
//! [`seg_rows`](SegmentedIndex::seg_rows) documents. Each segment owns
//! its *own* int8 quant shadow in the block layout of [`crate::quant`]
//! (16-row groups of 64-byte chunks), with its scale, largest row norm
//! and largest row residual.
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
//!   the largest per-segment error bound for this query: for segment
//!   `s`, `bound_s = quant::pair_error_bound`, sized from the query's
//!   own residual `‖x − x̂‖` and dequantized norm `‖x̂‖` against the
//!   segment's largest row norm `M_s` and largest row residual `R_s`
//!   (plus the f32 rounding allowance and padding; derivation in
//!   `quant`), so `|exact − screened| ≤ bound_s` for every pair of the
//!   query with a row of `s`. Proof sketch:
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
//!   margin and reranked.
//!
//!   Each segment is screened in groups of `GROUP` (16) rows, and a pair
//!   reaches the heap in two steps:
//!
//!   1. **Integer pre-threshold.** A pair is dropped before its jitter
//!      is hashed when `fl(a + jmax)` is below the running margin (`a`
//!      the dequantized dot `fl(d)·factor`, `jmax` the largest
//!      jitter): every f32 operation of the jitter is monotone in its
//!      unit value, so its screened score `fl(a + jitter) ≤
//!      fl(a + jmax)`. That test is monotone in the integer dot `d`, so
//!      it is the integer compare `d ≥ t` with `t` the least passing
//!      dot (`quant::pre_threshold`), found by evaluating the test
//!      itself: exact by construction. `t` is recomputed at each
//!      segment start (the factor changes) and whenever the query's
//!      margin rises; a `t` from a lower margin only lets more pairs
//!      through.
//!   2. **Packed candidates.** The pairs at or above `t` are packed per
//!      query and scored `GROUP` (16) at a time
//!      (`quant::score_candidates`), then offered in id order against
//!      the *live* margin, each rise applied before the next. A packed
//!      pair is tested no earlier than it was screened, so the margin
//!      it sees is at least the one it passed `t` under: a pair skipped
//!      there has `s < θ̂_run` at that moment, so offering it would not
//!      have changed the quantized heap, and it is below the final
//!      margin.
//!      Every pair with `s` at or above the final margin passes both
//!      steps, since every running margin is at most the final one. So
//!      `θ̂`, the kept set after the final-margin filter, and
//!      `reranked` are exactly those of testing every pair in id order
//!      against the margin of the moment. The buffers are flushed at
//!      each segment end (the factor changes there).

use crate::embed::{dot, Embedder};
use crate::index::{jitter, jitter_max, Hit, NoisyQuery, TopK};
use crate::quant::{group_bytes, pair_error_bound, pre_threshold, quantize_block};
use crate::quant::{score_candidates, Cands, Kernel, QuantBlock, QuantQuery, ScoreParams};
use crate::quant::{Screen, ScreenStats, GROUP};
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
    quant: QuantBlock,
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
    /// segments, each in one pass that writes its block layout
    /// directly. Output is
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
        // The screen packs candidate ids into u32 lanes.
        assert!(
            u32::try_from(n_docs).is_ok(),
            "{n_docs} documents overflow the screen's u32 ids"
        );

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
        let quantize = |run: &[&[f32]]| -> Vec<QuantBlock> {
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
            .map(|(s, (block, quant))| Segment {
                base: s * seg_rows,
                rows: block.len() / dim,
                quant,
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
        self.segments[s].quant.scale
    }

    /// Largest row L2 norm in segment `s`.
    pub fn segment_max_norm(&self, s: usize) -> f32 {
        self.segments[s].quant.max_norm
    }

    /// Largest row quantization residual `‖y − ŷ‖` in segment `s`.
    pub fn segment_max_resid(&self, s: usize) -> f32 {
        self.segments[s].quant.max_resid
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
                .map(|s| std::mem::size_of_val(&s.quant.bytes[..]))
                .sum::<usize>()
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
    /// quantized heap or survive the final margin. Each 16-row group is
    /// screened against every query's integer pre-threshold, and the
    /// pairs that pass are scored sixteen at a time.
    pub fn top_k_noisy_quant_batch(
        &self,
        queries: &[NoisyQuery<'_>],
        k: usize,
        sigma: f32,
    ) -> Vec<(Vec<Hit>, ScreenStats)> {
        self.scan(Kernel::detect(), queries, k, sigma)
    }

    /// [`top_k_noisy_quant_batch`](Self::top_k_noisy_quant_batch)
    /// through one leaf family: the seam the tests run the portable
    /// leaves through on any host.
    pub(crate) fn scan(
        &self,
        kernel: Kernel,
        queries: &[NoisyQuery<'_>],
        k: usize,
        sigma: f32,
    ) -> Vec<(Vec<Hit>, ScreenStats)> {
        for q in queries {
            assert_eq!(q.vector.len(), self.dim, "dimension mismatch");
        }
        let n = self.n_docs;
        if k == 0 || n == 0 || queries.is_empty() {
            return vec![(Vec::new(), ScreenStats::default()); queries.len()];
        }
        let sigma = sigma.max(0.0);
        let jmax = jitter_max(sigma);
        let qqs: Vec<QuantQuery> = queries.iter().map(|q| QuantQuery::new(q.vector)).collect();
        let rows: Vec<&[i8]> = qqs.iter().map(|qq| qq.row()).collect();
        let screen = Screen::new(kernel, &rows, self.dim);
        let mut slots: Vec<SlotScan> = queries
            .iter()
            .zip(&qqs)
            .map(|(q, qq)| {
                let b_max = self
                    .segments
                    .iter()
                    .map(|seg| pair_error_bound(qq, &seg.quant))
                    .fold(0.0, f64::max);
                SlotScan {
                    top: TopK::new(k),
                    kept: Vec::new(),
                    b_max,
                    margin: f64::NEG_INFINITY,
                    params: ScoreParams {
                        factor: 0.0,
                        salt: q.salt,
                        sigma,
                        jmax,
                    },
                }
            })
            .collect();
        let mut thresholds = vec![i32::MIN; queries.len()];
        let mut cands = vec![Cands::default(); queries.len()];
        for seg in &self.segments {
            for ((slot, qq), t) in slots.iter_mut().zip(&qqs).zip(&mut thresholds) {
                slot.params.factor = qq.scale() * seg.quant.scale;
                *t = slot.threshold(self.dim);
            }
            let groups = seg.quant.bytes.chunks_exact(group_bytes(self.dim));
            for (g, block) in groups.enumerate() {
                let n_rows = (seg.rows - g * GROUP).min(GROUP);
                let base = (seg.base + g * GROUP) as u32;
                screen.group(block, n_rows, base, &thresholds, &mut cands);
                for ((slot, c), t) in slots.iter_mut().zip(&mut cands).zip(&mut thresholds) {
                    if c.len() >= GROUP && slot.drain(kernel, c, GROUP) {
                        *t = slot.threshold(self.dim);
                    }
                }
            }
            for (slot, c) in slots.iter_mut().zip(&mut cands) {
                slot.drain(kernel, c, c.len());
            }
        }
        queries
            .iter()
            .zip(slots)
            .map(|(q, slot)| {
                let margin = slot.margin;
                let mut top = TopK::new(k);
                let mut reranked = 0u64;
                for h in slot.kept {
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

/// One query's state through the screen: its quantized heap, the pairs
/// kept for the rerank, its largest per-segment error bound, its
/// running margin `θ̂_run − 2·B_max` (−∞ before k offers) and what its
/// candidate scores in the current segment depend on.
struct SlotScan {
    top: TopK,
    kept: Vec<Hit>,
    b_max: f64,
    margin: f64,
    params: ScoreParams,
}

impl SlotScan {
    /// The query's integer pre-threshold in the current segment at its
    /// running margin.
    fn threshold(&self, dim: usize) -> i32 {
        pre_threshold(self.params.factor, self.params.jmax, self.margin, dim)
    }

    /// Score the first `n` of the query's packed candidates and offer,
    /// in id order, each at or above the live margin to the quantized
    /// heap and the kept list, raising the margin as the heap's k-th
    /// score rises. Returns whether the margin rose.
    fn drain(&mut self, kernel: Kernel, cands: &mut Cands, n: usize) -> bool {
        if n == 0 {
            return false;
        }
        let before = self.margin;
        let mut scores = [0f32; GROUP];
        let mut pass = score_candidates(kernel, cands, n, self.params, self.margin, &mut scores);
        while pass != 0 {
            let j = pass.trailing_zeros() as usize;
            pass &= pass - 1;
            let score = scores[j];
            if (score as f64) < self.margin {
                continue;
            }
            let hit = Hit {
                id: cands.id(j),
                score,
            };
            self.top.offer(hit);
            self.kept.push(hit);
            if let Some(kth) = self.top.bound() {
                self.margin = kth.score as f64 - 2.0 * self.b_max;
            }
        }
        cands.consume(n);
        self.margin > before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::reference_top_k;
    use crate::{EmbedConfig, SynonymTable};
    use kgstore::hash::stable_str_hash;
    use kgstore::rng::check;

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
        for (a, b) in serial.segments.iter().zip(&parallel.segments) {
            assert_eq!(a.quant.bytes, b.quant.bytes);
            for (x, y) in [
                (a.quant.scale, b.quant.scale),
                (a.quant.max_norm, b.quant.max_norm),
                (a.quant.max_resid, b.quant.max_resid),
            ] {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(serial.build_threads_used(), 1);
        assert_eq!(parallel.build_threads_used(), 8);
    }

    #[test]
    fn segment_blocks_are_the_row_major_quantization_re_laid_out() {
        // At dims with and without a partial 4-byte chunk, segment
        // sizes that leave partial groups (and one-row segments), and
        // one to three build threads: every segment's block bytes are
        // its rows quantized row-major against its scale,
        // `round(x/s)` clamped to ±127, re-laid out in 16-row groups of
        // 64-byte chunks, with zero bytes past `dim` and past its last
        // row, and its norms are its rows' own.
        for dim in [256usize, 100, 7] {
            let cfg = EmbedConfig {
                dim,
                noise: 0.6,
                ..Default::default()
            };
            let emb = Embedder::new(cfg, SynonymTable::builtin());
            let texts = corpus(150);
            let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
            let group = dim.div_ceil(4) * 64;
            for seg_rows in [1usize, 16, 17, 40, 150] {
                for threads in [1usize, 2, 3] {
                    let idx = SegmentedIndex::build_parallel(&emb, &refs, seg_rows, threads);
                    for seg in &idx.segments {
                        let at = format!("dim {dim} seg_rows {seg_rows} threads {threads}");
                        let rows = (seg.base..seg.base + seg.rows).map(|id| idx.vector(id));
                        let scale =
                            rows.clone().flatten().fold(0.0f32, |m, x| m.max(x.abs())) / 127.0;
                        assert_eq!(seg.quant.scale.to_bits(), scale.to_bits(), "{at}");
                        let mut want = vec![0i8; seg.rows.div_ceil(16) * group];
                        let (mut max_norm, mut max_resid) = (0.0f64, 0.0f64);
                        for (r, row) in rows.enumerate() {
                            let (mut norm, mut resid) = (0.0f64, 0.0f64);
                            for (i, &x) in row.iter().enumerate() {
                                let q = (x / scale).round().clamp(-127.0, 127.0) as i8;
                                want[r / 16 * group + i / 4 * 64 + r % 16 * 4 + i % 4] = q;
                                norm += (x as f64).powi(2);
                                resid += (x as f64 - q as f64 * scale as f64).powi(2);
                            }
                            max_norm = max_norm.max(norm.sqrt());
                            max_resid = max_resid.max(resid.sqrt());
                        }
                        assert_eq!(seg.quant.bytes, want, "{at}");
                        for (got, want) in [
                            (seg.quant.max_norm, max_norm),
                            (seg.quant.max_resid, max_resid),
                        ] {
                            assert!((got as f64 - want).abs() <= want * 1e-6, "{at}");
                        }
                    }
                }
            }
        }
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
    fn every_leaf_family_scans_like_the_dispatched_one() {
        // The scan through the portable leaves — and through every other
        // leaf family this host runs — equals the dispatched scan, hits
        // to the bit and counters, on generated corpora: dims with and
        // without a 64-byte tail, segment sizes that leave partial
        // groups, batch widths 0–9 with repeated and self-matching
        // queries, k past the corpus size, sigma 0 and above.
        check(64, 0x5EA4, |rng| {
            let dim = [256usize, 100, 7][rng.random_range(0..3)];
            let cfg = EmbedConfig {
                dim,
                noise: 0.6,
                ..Default::default()
            };
            let emb = Embedder::new(cfg, SynonymTable::builtin());
            let n = rng.random_range(1..300);
            let docs: Vec<String> = (0..n).map(|_| rng.string("a-j ", 1..=30)).collect();
            let refs: Vec<&str> = docs.iter().map(|s| s.as_str()).collect();
            let idx = SegmentedIndex::build_parallel(&emb, &refs, rng.random_range(1..n + 40), 1);
            let texts: Vec<String> = (0..rng.random_range(0..10))
                .map(|_| match rng.random_range(0..3) {
                    0 => docs[rng.random_range(0..n)].clone(),
                    _ => rng.string("a-j ", 1..=30),
                })
                .collect();
            let vecs: Vec<Vec<f32>> = texts.iter().map(|t| emb.encode(t)).collect();
            let salt = rng.next_u64();
            let slots: Vec<NoisyQuery> = vecs
                .iter()
                .enumerate()
                .map(|(i, v)| NoisyQuery {
                    vector: v,
                    salt: salt.wrapping_add((i % 3) as u64),
                })
                .collect();
            let k = rng.random_range(1..40);
            let sigma = [0.0f32, 0.3, 0.6][rng.random_range(0..3)];
            let bits =
                |scan: Vec<(Vec<Hit>, ScreenStats)>| -> Vec<(Vec<(usize, u32)>, ScreenStats)> {
                    scan.into_iter()
                        .map(|(hits, stats)| {
                            let hits = hits.iter().map(|h| (h.id, h.score.to_bits())).collect();
                            (hits, stats)
                        })
                        .collect()
                };
            let want = bits(idx.top_k_noisy_quant_batch(&slots, k, sigma));
            for kernel in Kernel::supported() {
                let got = bits(idx.scan(kernel, &slots, k, sigma));
                assert_eq!(
                    got,
                    want,
                    "{} dim {dim} n {n} k {k} sigma {sigma}",
                    kernel.name()
                );
            }
        });
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
