//! The retrieval engine: a sharded (segmented) index of f32 rows, int8
//! shadows and token postings, from the paper-size base to a million
//! documents.
//!
//! [`SegmentedIndex`] splits the corpus into fixed-size segments of
//! [`seg_rows`](SegmentedIndex::seg_rows) documents. Each segment owns
//! its f32 rows, its *own* int8 quant shadow (per-segment scale and
//! max-norm), and its own token postings (flat sorted arrays — binary
//! search, no hash-map iteration). Segments are contiguous in global
//! id space: segment `s` holds ids `[s·seg_rows, s·seg_rows + rows)`,
//! so global id ↔ (segment, local row) is a division — no lookup
//! tables.
//!
//! **Bit-identity contract.** Every search mode — exact/quantized ×
//! sequential/batched × full/pruned — returns hits bit-identical to
//! the naive oracle [`crate::reference_top_k`] (score every document
//! with `dot` + jitter, full sort by (score desc, id asc), keep k), for
//! *any* segment count:
//!
//! * Exact scans run the oracle's per-pair expression
//!   (`dot(query, row) + jitter(salt, global_id, sigma)`) — jitter is
//!   keyed on the **global** id, so shard geometry never enters a
//!   score — and the [`TopK`] total order (score desc, id asc) makes
//!   the kept set independent of offer order.
//! * Quantized scans screen each segment against its own scale, then
//!   rerank with a **single global margin** `θ̂ − 2·B_max`, where `θ̂`
//!   is the k-th best screened score across all segments and `B_max`
//!   the largest per-segment error bound for this query. Proof sketch:
//!   a skipped doc `j` in segment `s` has
//!   `exact_j ≤ screened_j + bound_s ≤ screened_j + B_max < θ̂ − B_max`,
//!   while each of the k screened-top docs `i` has
//!   `exact_i ≥ θ̂ − bound_seg(i) ≥ θ̂ − B_max > exact_j` — so k
//!   documents strictly beat every skipped one, the exact top-k
//!   survives the margin, and the reranked heap (exact scores, total
//!   order) equals the exact scan's. Screen/rerank *counters* depend
//!   on the segment count (the margins differ); hits never do.
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
//! * Pruned scans score the token-postings candidates exactly (or
//!   int8-screen then rerank them), then *verify* the result against
//!   the zero-overlap ceiling (see [`DEFAULT_CEILING`]): every
//!   non-candidate whose ceiling plus (exactly computed, cheap) jitter
//!   could reach the current k-th score is scored in full, and with
//!   fewer than `k` candidates the query falls back to the full scan.
//!   Per-segment postings partition the global lists, so candidate
//!   sets and gate estimates are independent of the segment count.

use crate::embed::{dot, Embedder};
use crate::index::{jitter, jitter_max, jitter_of, Hit, NoisyQuery, TopK};
use crate::quant::{dot_i8, dot_i8_batch, pair_error_bound, quantize_block};
use crate::quant::{QuantQuery, ScreenStats};
use crate::token::normalize;
use kgstore::hash::{stable_str_hash, FxHashMap};

/// Default documents per segment. At the seed corpus (~6k docs) this
/// yields one segment — the sharded engine degenerates to the
/// unsharded layout — while a 1M-doc base splits into ~123 segments
/// that build in parallel and stream tile-sized blocks.
pub const SEG_ROWS_DEFAULT: usize = 8192;

/// Below this many unique documents the parallel build runs serial:
/// thread spawn and chunk assembly overhead exceed the encode win
/// (the 6k-doc seed corpus measured 1.03× — inside noise).
pub const PARALLEL_BUILD_MIN_DOCS: usize = 4096;

/// Default bound on the dot product between a query and a document that
/// share no canonical token — the **zero-overlap ceiling** the pruned
/// scans verify against. Such a pair has no word-feature mass in
/// common; its dot comes only from char-trigram overlap, hash
/// collisions, and encoder noise. Calibrated against the worldgen
/// corpora under both the clean and the `Embedder::paper` (noise 0.6)
/// encoders (max observed zero-overlap dot 0.424 across all three
/// source × dataset corpora; see DESIGN.md); raise it (via
/// [`SegmentedIndex::with_ceiling`]) for adversarial corpora, at the
/// cost of pruning less.
pub const DEFAULT_CEILING: f32 = 0.48;

/// How the query text was (or will be) encoded, which decides which
/// postings a token can match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStyle {
    /// Query tokens are synonym-folded before hashing (the encoder's
    /// [`Embedder::encode`] path): look up postings by folded token.
    Folded,
    /// Query tokens are hashed raw ([`Embedder::encode_unfolded`]):
    /// a word feature can only overlap a document whose *canonical*
    /// token equals the raw query token, so look up postings by the
    /// unfolded token.
    Unfolded,
}

/// One slot of a batched pruned search: the encoded query vector, its
/// candidate ids (ascending, as produced by
/// [`SegmentedIndex::candidates`]), and the per-query jitter salt.
#[derive(Debug, Clone, Copy)]
pub struct BatchSlot<'a> {
    /// The encoded query vector (dimension must match the index).
    pub query: &'a [f32],
    /// Candidate doc ids for this query, sorted ascending.
    pub cands: &'a [u32],
    /// Per-query jitter salt (a hash of the query text).
    pub salt: u64,
}

/// Smallest `hash >> 11` value (the 53-bit mantissa source of
/// [`kgstore::hash::unit_f64`]) whose jitter could lift a zero-overlap
/// document from `ceiling` to the current `kth` score. `Some(0)` means
/// every document is a suspect, `None` means none can ever be (and
/// since the k-th score only rises, the caller may stop scanning). The
/// boundary is computed in f64 and padded down by 1e-5 in unit space —
/// orders of magnitude more than the f32 rounding of the real jitter
/// expression — so it can only admit *extra* suspects, never miss one.
pub(crate) fn suspect_hash_floor(kth: f32, ceiling: f32, sigma: f32) -> Option<u64> {
    if sigma <= 0.0 {
        return (ceiling >= kth).then_some(0);
    }
    // jitter = (2u − 1)·σ·1.732 for unit u ∈ [0, 1); suspect iff
    // ceiling + jitter ≥ kth, i.e. u ≥ ((kth − ceiling)/(σ·1.732) + 1)/2.
    let u = (((kth - ceiling) as f64) / (sigma as f64 * 1.732) + 1.0) / 2.0 - 1e-5;
    if u <= 0.0 {
        Some(0)
    } else if u >= 1.0 {
        None
    } else {
        Some((u * (1u64 << 53) as f64) as u64)
    }
}

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

/// The chunk ranges a `threads`-worker build partitions `unique_docs`
/// encode slots into — exposed so the perf bench can time each chunk's
/// encode independently (the virtual-makespan model of a parallel
/// build on a machine with fewer real cores).
pub fn build_chunk_ranges(unique_docs: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    if unique_docs == 0 {
        return Vec::new();
    }
    let chunk = unique_docs.div_ceil(threads.min(unique_docs).max(1));
    (0..unique_docs)
        .step_by(chunk)
        .map(|s| s..(s + chunk).min(unique_docs))
        .collect()
}

/// Encode one document for indexing: its embedding plus its sorted,
/// deduplicated canonical-token hashes. The exact per-document work of
/// [`SegmentedIndex::build_parallel`], exposed for the perf bench's
/// per-chunk encode timing.
pub fn encode_doc(embedder: &Embedder, text: &str) -> (Vec<f32>, Vec<u64>) {
    let v = embedder.encode(text);
    let mut hashes: Vec<u64> = normalize(text)
        .iter()
        .map(|tok| stable_str_hash(embedder.fold_token(tok)))
        .collect();
    hashes.sort_unstable();
    hashes.dedup();
    (v, hashes)
}

/// One fixed-size shard: contiguous global ids `[base, base + rows)`,
/// f32 rows, an int8 shadow quantized against this segment's own
/// scale, and token postings as flat sorted arrays (`keys` sorted
/// unique hashes, `offs` prefix offsets, `ids` ascending local rows).
#[derive(Debug)]
struct Segment {
    base: usize,
    rows: usize,
    dim: usize,
    vectors: Vec<f32>,
    quant: Vec<i8>,
    scale: f32,
    max_norm: f32,
    keys: Vec<u64>,
    offs: Vec<u32>,
    ids: Vec<u32>,
}

impl Segment {
    /// The f32 row at local index `r`.
    #[inline]
    fn row(&self, r: usize) -> &[f32] {
        &self.vectors[r * self.dim..(r + 1) * self.dim]
    }

    /// The int8 row at local index `r`.
    #[inline]
    fn qrow(&self, r: usize) -> &[i8] {
        &self.quant[r * self.dim..(r + 1) * self.dim]
    }

    /// Local postings list for a token hash, if any.
    #[inline]
    fn postings(&self, hash: u64) -> Option<&[u32]> {
        let i = self.keys.binary_search(&hash).ok()?;
        Some(&self.ids[self.offs[i] as usize..self.offs[i + 1] as usize])
    }
}

/// Build one segment over its rows' encoded slots.
fn assemble_segment(
    dim: usize,
    base: usize,
    rows: usize,
    doc_slots: &[usize],
    encoded: &[(Vec<f32>, Vec<u64>)],
) -> Segment {
    let mut vectors: Vec<f32> = Vec::with_capacity(rows * dim);
    let mut pairs: Vec<(u64, u32)> = Vec::new();
    for r in 0..rows {
        let slot = doc_slots[base + r];
        vectors.extend_from_slice(&encoded[slot].0);
        for &h in &encoded[slot].1 {
            pairs.push((h, r as u32));
        }
    }
    // (hash, local) pairs are unique (hashes dedup per doc), so the
    // unstable sort yields one deterministic order; grouped runs give
    // ascending locals per key.
    pairs.sort_unstable();
    let mut keys: Vec<u64> = Vec::new();
    let mut offs: Vec<u32> = Vec::new();
    let mut ids: Vec<u32> = Vec::with_capacity(pairs.len());
    for (h, r) in pairs {
        if keys.last() != Some(&h) {
            keys.push(h);
            offs.push(ids.len() as u32);
        }
        ids.push(r);
    }
    offs.push(ids.len() as u32);
    let (quant, scale, max_norm) = quantize_block(dim, rows, &vectors);
    Segment {
        base,
        rows,
        dim,
        vectors,
        quant,
        scale,
        max_norm,
        keys,
        offs,
        ids,
    }
}

/// The sharded index (see module docs for the layout and the
/// bit-identity contract).
#[derive(Debug)]
pub struct SegmentedIndex {
    dim: usize,
    seg_rows: usize,
    n_docs: usize,
    ceiling: f32,
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
    /// (`0` self-tunes via [`resolve_build_threads`]). Repeated
    /// identical texts are encoded once; output is byte-identical for
    /// every thread count (work is partitioned by index and segments
    /// assembled in order) and for every `seg_rows` (segmentation
    /// changes layout, never a row's bits).
    pub fn build_parallel(
        embedder: &Embedder,
        texts: &[&str],
        seg_rows: usize,
        threads: usize,
    ) -> Self {
        assert!(seg_rows > 0, "segments need at least one row");
        assert!(texts.len() < u32::MAX as usize, "doc ids are u32");
        let dim = embedder.dim();

        // Dedup identical texts — same slotting as the unsharded build.
        let mut slot_of_text: FxHashMap<&str, usize> = FxHashMap::default();
        let mut unique: Vec<&str> = Vec::new();
        let doc_slots: Vec<usize> = texts
            .iter()
            .map(|&t| {
                *slot_of_text.entry(t).or_insert_with(|| {
                    unique.push(t);
                    unique.len() - 1
                })
            })
            .collect();

        let threads = resolve_build_threads(unique.len(), threads);
        let encoded: Vec<(Vec<f32>, Vec<u64>)> = if threads <= 1 || unique.len() < 2 {
            unique.iter().map(|t| encode_doc(embedder, t)).collect()
        } else {
            let mut out: Vec<Option<(Vec<f32>, Vec<u64>)>> = Vec::with_capacity(unique.len());
            out.resize_with(unique.len(), || None);
            let chunk = unique.len().div_ceil(threads.min(unique.len()));
            std::thread::scope(|scope| {
                for (texts, slots) in unique.chunks(chunk).zip(out.chunks_mut(chunk)) {
                    scope.spawn(move || {
                        for (t, slot) in texts.iter().zip(slots) {
                            *slot = Some(encode_doc(embedder, t));
                        }
                    });
                }
            });
            out.into_iter().map(|o| o.expect("slot filled")).collect()
        };

        let n_docs = texts.len();
        let n_segments = n_docs.div_ceil(seg_rows);
        let mut segments: Vec<Segment> = Vec::with_capacity(n_segments);
        if threads <= 1 || n_segments < 2 {
            for s in 0..n_segments {
                let base = s * seg_rows;
                let rows = (n_docs - base).min(seg_rows);
                segments.push(assemble_segment(dim, base, rows, &doc_slots, &encoded));
            }
        } else {
            // Segments are independent; assemble them in parallel and
            // collect in order — deterministic because each slot is
            // written by exactly one worker.
            let mut out: Vec<Option<Segment>> = Vec::with_capacity(n_segments);
            out.resize_with(n_segments, || None);
            let chunk = n_segments.div_ceil(threads.min(n_segments));
            let doc_slots = &doc_slots;
            let encoded = &encoded;
            std::thread::scope(|scope| {
                for (c, slots) in out.chunks_mut(chunk).enumerate() {
                    scope.spawn(move || {
                        for (i, slot) in slots.iter_mut().enumerate() {
                            let s = c * chunk + i;
                            let base = s * seg_rows;
                            let rows = (n_docs - base).min(seg_rows);
                            *slot = Some(assemble_segment(dim, base, rows, doc_slots, encoded));
                        }
                    });
                }
            });
            segments.extend(out.into_iter().map(|o| o.expect("segment assembled")));
        }

        Self {
            dim,
            seg_rows,
            n_docs,
            ceiling: DEFAULT_CEILING,
            segments,
            build_threads_used: threads,
        }
    }

    /// Override the zero-overlap ceiling (see [`DEFAULT_CEILING`]).
    pub fn with_ceiling(mut self, ceiling: f32) -> Self {
        self.ceiling = ceiling;
        self
    }

    /// The zero-overlap ceiling in force.
    pub fn ceiling(&self) -> f32 {
        self.ceiling
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
        let seg = &self.segments[id / self.seg_rows];
        seg.row(id - seg.base)
    }

    /// Bytes of the f32 rows.
    pub fn bytes_f32(&self) -> usize {
        self.n_docs * self.dim * std::mem::size_of::<f32>()
    }

    /// Bytes of the f32 rows plus the int8 shadows.
    pub fn bytes_with_quant(&self) -> usize {
        self.bytes_f32() + self.n_docs * self.dim
    }

    /// Resident bytes of every segment column: f32 rows, int8
    /// shadows and token postings.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of_val;
        self.segments
            .iter()
            .map(|s| {
                size_of_val(&s.vectors[..])
                    + size_of_val(&s.quant[..])
                    + size_of_val(&s.keys[..])
                    + size_of_val(&s.offs[..])
                    + size_of_val(&s.ids[..])
            })
            .sum()
    }

    // ------------------------------------------------------------------
    // Full scans.
    // ------------------------------------------------------------------

    /// Exact noisy top-k over all segments — bit-identical to
    /// [`crate::reference_top_k`] (identical per-pair expression,
    /// global-id jitter, total-order heap).
    pub fn top_k_noisy(&self, query: &[f32], k: usize, sigma: f32, salt: u64) -> Vec<Hit> {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        if k == 0 || self.n_docs == 0 {
            return Vec::new();
        }
        let mut top = TopK::new(k);
        for seg in &self.segments {
            for r in 0..seg.rows {
                let id = seg.base + r;
                let mut score = dot(query, seg.row(r));
                if sigma > 0.0 {
                    score += jitter(salt, id, sigma);
                }
                top.offer(Hit { id, score });
            }
        }
        top.into_sorted()
    }

    /// Quantized two-stage noisy top-k over all segments: a one-slot
    /// [`top_k_noisy_quant_batch`](SegmentedIndex::top_k_noisy_quant_batch).
    pub fn top_k_noisy_quant(
        &self,
        query: &[f32],
        k: usize,
        sigma: f32,
        salt: u64,
    ) -> (Vec<Hit>, ScreenStats) {
        let slot = NoisyQuery {
            vector: query,
            salt,
        };
        self.top_k_noisy_quant_batch(&[slot], k, sigma)
            .pop()
            .expect("one slot in, one result out")
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

    /// Batched exact noisy top-k: each segment's block is streamed once
    /// for the whole batch. Slot `i` is bit-identical to the sequential
    /// [`top_k_noisy`](SegmentedIndex::top_k_noisy) with that slot's
    /// query and salt (the batch kernel replays `dot` per pair).
    pub fn top_k_noisy_batch(
        &self,
        queries: &[NoisyQuery<'_>],
        k: usize,
        sigma: f32,
    ) -> Vec<Vec<Hit>> {
        for q in queries {
            assert_eq!(q.vector.len(), self.dim, "dimension mismatch");
        }
        if k == 0 || self.n_docs == 0 {
            return vec![Vec::new(); queries.len()];
        }
        let refs: Vec<&[f32]> = queries.iter().map(|q| q.vector).collect();
        let mut tops: Vec<TopK> = queries.iter().map(|_| TopK::new(k)).collect();
        let mut dots: Vec<Vec<f32>> = vec![Vec::new(); queries.len()];
        for seg in &self.segments {
            for d in dots.iter_mut() {
                d.clear();
                d.reserve(seg.rows);
            }
            crate::embed::dot_batch(&refs, &seg.vectors, self.dim, &mut dots);
            for ((q, d), top) in queries.iter().zip(&dots).zip(tops.iter_mut()) {
                for (r, &s) in d.iter().enumerate() {
                    let id = seg.base + r;
                    let score = if sigma > 0.0 {
                        s + jitter(q.salt, id, sigma)
                    } else {
                        s
                    };
                    top.offer(Hit { id, score });
                }
            }
        }
        tops.into_iter().map(|t| t.into_sorted()).collect()
    }

    /// Batched quantized noisy top-k: per-segment batched int8 screen,
    /// single global margin `θ̂ − 2·B_max` per query, exact f32 rerank.
    /// Hits bit-identical to [`crate::reference_top_k`] per slot (see
    /// the module-level proof sketch).
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

    // ------------------------------------------------------------------
    // Pruned scans.
    // ------------------------------------------------------------------

    /// Candidate ids (global, ascending, deduplicated) sharing a
    /// canonical token with the query (folded or raw per `style`).
    pub fn candidates(&self, embedder: &Embedder, query_text: &str, style: QueryStyle) -> Vec<u32> {
        self.candidates_if_under(embedder, query_text, style, usize::MAX)
            .expect("a usize::MAX budget admits every candidate set")
    }

    /// [`Self::candidates`] behind an admission estimate: the sum of
    /// the query tokens' postings lengths (an upper bound on the union).
    /// `Err(estimate)` when it exceeds `max_cands`, before anything is
    /// materialized. Per-segment lists partition the global postings
    /// lists, so the length sums — and therefore every gate
    /// admit/refuse decision — are independent of the segment count.
    pub fn candidates_if_under(
        &self,
        embedder: &Embedder,
        query_text: &str,
        style: QueryStyle,
        max_cands: usize,
    ) -> Result<Vec<u32>, usize> {
        let mut hashes: Vec<u64> = Vec::new();
        let mut estimate = 0usize;
        for tok in normalize(query_text) {
            let key = match style {
                QueryStyle::Folded => embedder.fold_token(&tok),
                QueryStyle::Unfolded => tok.as_str(),
            };
            let h = stable_str_hash(key);
            let mut any = false;
            for seg in &self.segments {
                if let Some(list) = seg.postings(h) {
                    estimate += list.len();
                    any = true;
                }
            }
            if any {
                hashes.push(h);
            }
        }
        if estimate > max_cands {
            return Err(estimate);
        }
        let mut out: Vec<u32> = Vec::with_capacity(estimate);
        for &h in &hashes {
            for seg in &self.segments {
                if let Some(list) = seg.postings(h) {
                    out.extend(list.iter().map(|&l| seg.base as u32 + l));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    /// Pruned noisy top-k over global candidate ids: candidates scored
    /// exactly, then the ceiling-suspect audit over everything else —
    /// bit-identical to the full scan under the ceiling contract.
    pub fn top_k_noisy_encoded(
        &self,
        query: &[f32],
        cands: &[u32],
        k: usize,
        sigma: f32,
        salt: u64,
    ) -> Vec<Hit> {
        self.pruned_scored(query, cands, k, sigma, salt, false).0
    }

    /// Pruned noisy top-k with the quantized candidate phase:
    /// candidates screen against their own segment's shadow, the margin
    /// uses the per-query `B_max` over candidate segments, the suspect
    /// phase is exact. Hits carry the full bit-identity contract.
    pub fn top_k_noisy_encoded_quant(
        &self,
        query: &[f32],
        cands: &[u32],
        k: usize,
        sigma: f32,
        salt: u64,
    ) -> (Vec<Hit>, ScreenStats) {
        self.pruned_scored(query, cands, k, sigma, salt, true)
    }

    fn pruned_scored(
        &self,
        query: &[f32],
        cands: &[u32],
        k: usize,
        sigma: f32,
        salt: u64,
        quantized: bool,
    ) -> (Vec<Hit>, ScreenStats) {
        if k == 0 || self.n_docs == 0 {
            return (Vec::new(), ScreenStats::default());
        }
        if cands.len() < k {
            // Documented fallback: fewer candidates than k → scan
            // everything.
            return if quantized {
                self.top_k_noisy_quant(query, k, sigma, salt)
            } else {
                (
                    self.top_k_noisy(query, k, sigma, salt),
                    ScreenStats::default(),
                )
            };
        }
        let sigma = sigma.max(0.0);
        let mut top = TopK::new(k);
        let mut stats = ScreenStats::default();
        let qq = if quantized {
            Some(QuantQuery::new(query))
        } else {
            None
        };
        if let Some(qq) = &qq {
            let mut screened = Vec::with_capacity(cands.len());
            let mut quant_top = TopK::new(k);
            let mut b_max = 0.0f64;
            let mut cur_seg = usize::MAX;
            let mut factor = 0.0f32;
            for &id in cands {
                let id = id as usize;
                let s_idx = id / self.seg_rows;
                if s_idx != cur_seg {
                    cur_seg = s_idx;
                    let seg = &self.segments[s_idx];
                    factor = qq.scale() * seg.scale;
                    b_max = b_max.max(self.seg_bound(qq, seg));
                }
                let seg = &self.segments[s_idx];
                let mut s = dot_i8(qq.row(), seg.qrow(id - seg.base)) as f32 * factor;
                if sigma > 0.0 {
                    s += jitter(salt, id, sigma);
                }
                screened.push(s);
                quant_top.offer(Hit { id, score: s });
            }
            stats.screened = cands.len() as u64;
            let kth = quant_top.bound().expect("k candidates screened").score;
            let margin = kth as f64 - 2.0 * b_max;
            for (&id, &s) in cands.iter().zip(&screened) {
                if (s as f64) < margin {
                    continue;
                }
                stats.reranked += 1;
                let id = id as usize;
                let mut score = dot(query, self.vector(id));
                if sigma > 0.0 {
                    score += jitter(salt, id, sigma);
                }
                top.offer(Hit { id, score });
            }
        } else {
            for &id in cands {
                let id = id as usize;
                let mut score = dot(query, self.vector(id));
                if sigma > 0.0 {
                    score += jitter(salt, id, sigma);
                }
                top.offer(Hit { id, score });
            }
        }
        self.verify_non_candidates(query, qq.as_ref(), cands, sigma, salt, &mut top);
        (top.into_sorted(), stats)
    }

    /// The ceiling-suspect phase over global ids: walk every
    /// non-candidate in ascending id order, skip any whose hash-derived
    /// jitter cannot bridge `kth − ceiling`, and score the rest
    /// exactly. Identical hash floors, identical scores, identical
    /// offers — shard geometry never appears. With a quantized query
    /// the survivor is additionally int8-pre-screened against the
    /// *exact* current k-th score before its f32 row is touched: the
    /// true noisy score sits within the segment's quantization bound of
    /// the screened value (identical jitter on both sides), so anything
    /// screening below `kth − 2·B_seg` provably cannot displace a held
    /// hit. Offers are exact f32 either way — hits stay bit-identical
    /// with or without the pre-screen; only the memory traffic changes
    /// (one int8 row instead of one f32 row for the overwhelming skip
    /// majority).
    fn verify_non_candidates(
        &self,
        query: &[f32],
        qq: Option<&QuantQuery>,
        cands: &[u32],
        sigma: f32,
        salt: u64,
        top: &mut TopK,
    ) {
        let mut cand_iter = cands.iter().copied().peekable();
        let mut kth = top.bound().expect("k candidates offered").score;
        let mut hash_floor = suspect_hash_floor(kth, self.ceiling, sigma);
        let mut cur_seg = usize::MAX;
        let mut factor = 0.0f32;
        let mut bseg = 0.0f64;
        for id in 0..self.n_docs {
            if cand_iter.peek() == Some(&(id as u32)) {
                cand_iter.next();
                continue;
            }
            let floor = match hash_floor {
                Some(f) => f,
                None => break,
            };
            let hash = kgstore::hash::mix2(salt, id as u64);
            if (hash >> 11) < floor {
                continue;
            }
            if let Some(qq) = qq {
                let s_idx = id / self.seg_rows;
                if s_idx != cur_seg {
                    cur_seg = s_idx;
                    let seg = &self.segments[s_idx];
                    factor = qq.scale() * seg.scale;
                    bseg = self.seg_bound(qq, seg);
                }
                let seg = &self.segments[s_idx];
                let mut s = dot_i8(qq.row(), seg.qrow(id - seg.base)) as f32 * factor;
                if sigma > 0.0 {
                    s += jitter_of(hash, sigma);
                }
                if (s as f64) < kth as f64 - 2.0 * bseg {
                    continue;
                }
            }
            let mut score = dot(query, self.vector(id));
            if sigma > 0.0 {
                score += jitter_of(hash, sigma);
            }
            top.offer(Hit { id, score });
            let new_kth = top.bound().expect("still k hits").score;
            if new_kth != kth {
                kth = new_kth;
                hash_floor = suspect_hash_floor(kth, self.ceiling, sigma);
            }
        }
    }

    /// Batched pruned scan. Slots with fewer candidates than `k` take
    /// the full-scan fallback together through the batched engines;
    /// the rest run the sequential pruned path per slot (candidate sets
    /// are gate-bounded small — there is no block to tile). Every slot
    /// is bit-identical to its sequential twin.
    pub fn top_k_noisy_encoded_batch(
        &self,
        slots: &[BatchSlot<'_>],
        k: usize,
        sigma: f32,
    ) -> Vec<Vec<Hit>> {
        self.pruned_scored_batch(slots, k, sigma, false).0
    }

    /// Batched pruned scan with the quantized candidate phase;
    /// per-slot hits and counters bit-identical to the sequential call.
    pub fn top_k_noisy_encoded_quant_batch(
        &self,
        slots: &[BatchSlot<'_>],
        k: usize,
        sigma: f32,
    ) -> (Vec<Vec<Hit>>, Vec<ScreenStats>) {
        self.pruned_scored_batch(slots, k, sigma, true)
    }

    fn pruned_scored_batch(
        &self,
        slots: &[BatchSlot<'_>],
        k: usize,
        sigma: f32,
        quantized: bool,
    ) -> (Vec<Vec<Hit>>, Vec<ScreenStats>) {
        let mut hits: Vec<Vec<Hit>> = vec![Vec::new(); slots.len()];
        let mut stats: Vec<ScreenStats> = vec![ScreenStats::default(); slots.len()];
        if k == 0 || self.n_docs == 0 {
            return (hits, stats);
        }
        let full: Vec<usize> = (0..slots.len())
            .filter(|&i| slots[i].cands.len() < k)
            .collect();
        if !full.is_empty() {
            let queries: Vec<NoisyQuery> = full
                .iter()
                .map(|&i| NoisyQuery {
                    vector: slots[i].query,
                    salt: slots[i].salt,
                })
                .collect();
            if quantized {
                for (&i, (h, s)) in full
                    .iter()
                    .zip(self.top_k_noisy_quant_batch(&queries, k, sigma))
                {
                    hits[i] = h;
                    stats[i] = s;
                }
            } else {
                for (&i, h) in full.iter().zip(self.top_k_noisy_batch(&queries, k, sigma)) {
                    hits[i] = h;
                }
            }
        }
        for i in 0..slots.len() {
            if slots[i].cands.len() < k {
                continue;
            }
            let (h, s) = self.pruned_scored(
                slots[i].query,
                slots[i].cands,
                k,
                sigma,
                slots[i].salt,
                quantized,
            );
            hits[i] = h;
            stats[i] = s;
        }
        (hits, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::reference_top_k;

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

    /// Naive candidate generation straight from the texts: every doc
    /// sharing a folded canonical token with the query, plus the gate
    /// estimate (per query token, with repeats, the number of docs
    /// carrying it).
    fn naive_candidates(emb: &Embedder, texts: &[String], q: &str) -> (Vec<u32>, usize) {
        let docs: Vec<Vec<String>> = texts
            .iter()
            .map(|t| {
                normalize(t)
                    .iter()
                    .map(|tok| emb.fold_token(tok).to_string())
                    .collect()
            })
            .collect();
        let mut cands = Vec::new();
        let mut estimate = 0;
        let qtoks: Vec<String> = normalize(q)
            .iter()
            .map(|tok| emb.fold_token(tok).to_string())
            .collect();
        for tok in &qtoks {
            estimate += docs.iter().filter(|d| d.contains(tok)).count();
        }
        for (id, d) in docs.iter().enumerate() {
            if qtoks.iter().any(|t| d.contains(t)) {
                cands.push(id as u32);
            }
        }
        (cands, estimate)
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
                    assert_eq!(
                        idx.top_k_noisy(&qv, 10, sigma, salt),
                        oracle,
                        "exact seg_rows {seg_rows} q {q:?} sigma {sigma}"
                    );
                    let (qhits, qstats) = idx.top_k_noisy_quant(&qv, 10, sigma, salt);
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
            let batch = idx.top_k_noisy_batch(&noisy, 10, sigma);
            let qbatch = idx.top_k_noisy_quant_batch(&noisy, 10, sigma);
            for (i, q) in noisy.iter().enumerate() {
                let oracle = reference_top_k(&idx, q.vector, 10, sigma, q.salt);
                assert_eq!(batch[i], oracle, "exact slot {i} sigma {sigma}");
                assert_eq!(qbatch[i].0, oracle, "quant slot {i} sigma {sigma}");
                // Counters are per-query state the batch never shares.
                let (_, seq_stats) = idx.top_k_noisy_quant(q.vector, 10, sigma, q.salt);
                assert_eq!(qbatch[i].1, seq_stats, "stats slot {i} sigma {sigma}");
            }
        }
        assert!(idx.top_k_noisy_batch(&[], 10, 0.3).is_empty());
        assert!(idx.top_k_noisy_quant_batch(&[], 10, 0.3).is_empty());
    }

    #[test]
    fn pruned_scans_match_oracle_across_shards() {
        let emb = Embedder::paper();
        let texts = corpus(500);
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let flat = SegmentedIndex::build_parallel(&emb, &refs, texts.len(), 1);
        for seg_rows in seg_rows_for(texts.len()) {
            let idx = SegmentedIndex::build_parallel(&emb, &refs, seg_rows, 1);
            for q in queries() {
                let qv = emb.encode(q);
                let salt = stable_str_hash(q);
                let cands = idx.candidates(&emb, q, QueryStyle::Folded);
                assert_eq!(
                    cands,
                    naive_candidates(&emb, &texts, q).0,
                    "candidates seg_rows {seg_rows} q {q:?}"
                );
                for sigma in [0.0f32, 0.3, 0.6] {
                    let oracle = reference_top_k(&flat, &qv, 10, sigma, salt);
                    assert_eq!(
                        idx.top_k_noisy_encoded(&qv, &cands, 10, sigma, salt),
                        oracle,
                        "pruned seg_rows {seg_rows} q {q:?} sigma {sigma}"
                    );
                    let (qhits, _) = idx.top_k_noisy_encoded_quant(&qv, &cands, 10, sigma, salt);
                    assert_eq!(
                        qhits, oracle,
                        "pruned-quant seg_rows {seg_rows} q {q:?} sigma {sigma}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_batches_match_oracle_per_slot() {
        let emb = Embedder::paper();
        let texts = corpus(400);
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let idx = SegmentedIndex::build_parallel(&emb, &refs, 90, 1);
        let encoded: Vec<Vec<f32>> = queries().iter().map(|q| emb.encode(q)).collect();
        let cands: Vec<Vec<u32>> = queries()
            .iter()
            .map(|q| idx.candidates(&emb, q, QueryStyle::Folded))
            .collect();
        // The mix covers both batch branches: the unseen query has no
        // candidates and takes the full-scan fallback.
        assert!(cands.iter().any(|c| c.len() < 10));
        assert!(cands.iter().any(|c| c.len() >= 10));
        let slots: Vec<BatchSlot> = queries()
            .iter()
            .enumerate()
            .map(|(i, q)| BatchSlot {
                query: &encoded[i],
                cands: &cands[i],
                salt: stable_str_hash(q),
            })
            .collect();
        for sigma in [0.0f32, 0.3] {
            let exact = idx.top_k_noisy_encoded_batch(&slots, 10, sigma);
            let (quant, qstats) = idx.top_k_noisy_encoded_quant_batch(&slots, 10, sigma);
            for (i, slot) in slots.iter().enumerate() {
                let oracle = reference_top_k(&idx, slot.query, 10, sigma, slot.salt);
                assert_eq!(exact[i], oracle, "slot {i} sigma {sigma}");
                assert_eq!(quant[i], oracle, "quant slot {i} sigma {sigma}");
                let (_, ss) =
                    idx.top_k_noisy_encoded_quant(slot.query, slot.cands, 10, sigma, slot.salt);
                assert_eq!(qstats[i], ss, "stats slot {i} sigma {sigma}");
            }
        }
    }

    #[test]
    fn candidate_gate_estimates_match_naive_postings() {
        let emb = Embedder::paper();
        let texts = corpus(300);
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        for seg_rows in [300usize, 70] {
            let idx = SegmentedIndex::build_parallel(&emb, &refs, seg_rows, 1);
            for q in queries() {
                let (cands, estimate) = naive_candidates(&emb, &texts, q);
                for budget in [0usize, 5, 50, 10_000] {
                    let want = if estimate > budget {
                        Err(estimate)
                    } else {
                        Ok(cands.clone())
                    };
                    assert_eq!(
                        idx.candidates_if_under(&emb, q, QueryStyle::Folded, budget),
                        want,
                        "seg_rows {seg_rows} q {q:?} budget {budget}"
                    );
                }
            }
        }
    }

    #[test]
    fn candidates_prune_most_of_the_corpus() {
        let emb = Embedder::default();
        let texts = corpus(500);
        let idx = SegmentedIndex::build(&emb, texts.iter().map(|s| s.as_str()));
        let cands = idx.candidates(&emb, "entity42 relation0 value3", QueryStyle::Folded);
        assert!(!cands.is_empty());
        assert!(
            cands.len() < texts.len() / 2,
            "pruning should discard most docs: {}",
            cands.len()
        );
    }

    #[test]
    fn candidate_generation_respects_the_embedder_synonyms() {
        use crate::{EmbedConfig, SynonymTable};
        // A custom table folding "born" → "birth": candidate lookup
        // must use it, not the builtin table.
        let mut table = SynonymTable::empty();
        table.add("born", "birth");
        let emb = Embedder::new(EmbedConfig::default(), table);
        let texts = ["yao birth shanghai", "lake area huge"];
        let idx = SegmentedIndex::build(&emb, texts.iter().copied());
        let cands = idx.candidates(&emb, "born yao", QueryStyle::Folded);
        assert_eq!(cands, vec![0], "custom fold must reach the birth doc");

        // Under an *empty* table the same query shares only "yao" with
        // doc 0.
        let emb_plain = Embedder::new(EmbedConfig::default(), SynonymTable::empty());
        let plain = SegmentedIndex::build(&emb_plain, texts.iter().copied());
        let cands_plain = plain.candidates(&emb_plain, "born yao", QueryStyle::Folded);
        assert_eq!(cands_plain, vec![0], "matches only via yao");
        assert!(plain
            .candidates(&emb_plain, "born", QueryStyle::Folded)
            .is_empty());
    }

    #[test]
    fn unfolded_queries_look_up_raw_tokens() {
        let emb = Embedder::default(); // builtin table folds born→birth
        let texts = ["yao birth shanghai", "born free"];
        let idx = SegmentedIndex::build(&emb, texts.iter().copied());
        // Both docs index the canonical token "birth" ("born" folds at
        // build time), so the folded query reaches both — but a raw
        // "born" query feature overlaps neither doc's word features.
        assert_eq!(idx.candidates(&emb, "born", QueryStyle::Folded), vec![0, 1]);
        assert!(idx
            .candidates(&emb, "born", QueryStyle::Unfolded)
            .is_empty());
        // A raw token that is its own canonical form matches normally.
        assert_eq!(
            idx.candidates(&emb, "shanghai", QueryStyle::Unfolded),
            vec![0]
        );
    }

    #[test]
    fn ceiling_is_configurable() {
        let emb = Embedder::default();
        let idx = SegmentedIndex::build(&emb, ["a b c"].iter().copied());
        assert_eq!(idx.ceiling(), DEFAULT_CEILING);
        let idx = idx.with_ceiling(0.9);
        assert_eq!(idx.ceiling(), 0.9);
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
        assert!(idx.top_k_noisy(&vec![0.0; emb.dim()], 5, 0.3, 1).is_empty());
    }
}
