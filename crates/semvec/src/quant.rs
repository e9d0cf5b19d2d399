//! Int8 scalar quantization and its integer dot-product kernels.
//!
//! The scoring hot loop of retrieval is a dot product per (query,
//! document) pair. Each segment of [`crate::SegmentedIndex`] keeps,
//! next to its flat f32 rows, a flat `Vec<i8>` holding the same rows
//! symmetrically quantized against the segment's own scale
//! ([`quantize_block`]), so the screening pass reads one byte per
//! component. The scan screens through [`dot_i8_batch`], whose AVX2
//! register tile sign-extends each row chunk to i16 once and
//! multiply-adds it into one to four queries at a time, so a pair costs
//! about the same at every batch width.
//!
//! **Exactness contract.** Quantization is lossy, so a quantized score
//! alone may not rank documents the way the exact f32 scan does. The
//! two-stage top-k
//! ([`crate::SegmentedIndex::top_k_noisy_quant_batch`]) therefore
//! screens every document with the int8 kernel and then *reranks* with
//! the exact f32 path every document whose quantized score lands within
//! a provable per-pair error bound of the quantized k-th score. The
//! bound ([`pair_error_bound`], derivation below) guarantees the final
//! top-k — ids, scores, and tie-break order — is bit-identical to
//! scoring every document in exact f32.
//!
//! **Error-bound derivation.** Write a vector `x` and its dequantized
//! form `x̂ = s·q` (scale `s`, int8 row `q`). Rounding gives a
//! per-component error of at most `s/2`, so `‖x − x̂‖₂ ≤ (s/2)·√d`.
//! For a query `x` (scale `s_q`) against a stored row `y` (index scale
//! `s_y`):
//!
//! ```text
//! |x·y − x̂·ŷ| = |(x − x̂)·y + x̂·(y − ŷ)|
//!             ≤ ‖x − x̂‖·‖y‖ + ‖x̂‖·‖y − ŷ‖
//!             ≤ e_q·max‖y‖ + (‖x‖ + e_q)·e_y
//! ```
//!
//! with `e_q = (s_q/2)·√d` and `e_y = (s_y/2)·√d`. The bound is
//! computed in f64 and padded (relative 1e-3, absolute 1e-4) so that
//! the f32 rounding of the exact dot, of the scale multiply, and of the
//! quantization divides is covered with orders of magnitude to spare —
//! padding can only *widen* the rerank margin, never break exactness.
//! Property tests assert the padded bound is never violated.

/// How many i32 accumulator lanes the integer kernel carries. Sixteen
/// independent sums of i16 products autovectorize to widening
/// multiply-add on any SIMD target; any i8·i8 product fits i16
/// (|−128·−128| = 16384 < 2¹⁵) and an i32 lane overflows only past
/// ~10⁶ dimensions — far beyond any embedding here.
const I8_LANES: usize = 16;

/// The integer dot of one query row and one document row: the
/// per-pair body of the non-AVX2 batched screen. Any i8·i8 product fits
/// i16, and the lane sums are exact integers, so it equals the naive
/// i32 loop to the bit.
#[inline]
fn dot_i8_body(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let split = a.len() - a.len() % I8_LANES;
    let mut acc = [0i32; I8_LANES];
    for (ca, cb) in a[..split]
        .chunks_exact(I8_LANES)
        .zip(b[..split].chunks_exact(I8_LANES))
    {
        for j in 0..I8_LANES {
            acc[j] += (ca[j] as i16 * cb[j] as i16) as i32;
        }
    }
    let mut sum: i32 = acc.iter().sum();
    for (x, y) in a[split..].iter().zip(&b[split..]) {
        sum += *x as i32 * *y as i32;
    }
    sum
}

/// Bytes of document rows per cache tile of the batched kernels. A tile
/// this size stays L1-resident while every query of the batch passes
/// over it, so the single-query pattern of re-streaming the whole block
/// per query becomes one stream shared by the batch.
const TILE_BYTES: usize = 16 * 1024;

/// Rows per cache tile for a given row stride in bytes (at least one).
#[inline]
fn rows_per_tile(row_bytes: usize) -> usize {
    (TILE_BYTES / row_bytes.max(1)).max(1)
}

/// The batched-screen body (and the non-AVX2 fallback): T query rows ×
/// one flat i8 block, appending each query's raw integer dots to its
/// `out` vector in row order. Cache-tiled over document chunks — each
/// chunk is walked by every query of the batch while it is still
/// cache-resident — with each (query, row) pair running [`dot_i8_body`]
/// itself, so each `out[q]` holds that query's exact integer dot with
/// each row.
fn dot_i8_batch_body(queries: &[&[i8]], rows: &[i8], dim: usize, out: &mut [Vec<i32>]) {
    debug_assert_eq!(queries.len(), out.len());
    if dim == 0 || queries.is_empty() {
        return;
    }
    debug_assert_eq!(rows.len() % dim, 0);
    let tile_elems = rows_per_tile(dim) * dim;
    let mut start = 0;
    while start < rows.len() {
        let tile = &rows[start..rows.len().min(start + tile_elems)];
        for (query, o) in queries.iter().zip(out.iter_mut()) {
            o.extend(tile.chunks_exact(dim).map(|row| dot_i8_body(query, row)));
        }
        start += tile_elems;
    }
}

/// How many queries one register tile of the AVX2 batched screen
/// carries at most. Four ymm accumulators (one per query) plus the two
/// widened halves of the shared row load and a pmaddwd temporary stay
/// comfortably inside the sixteen AVX2 vector registers, so each
/// document chunk pulled from memory is multiplied into four queries
/// before it leaves them.
#[cfg(target_arch = "x86_64")]
const QUERY_TILE: usize = 4;

/// Width of the explicit AVX2 inner step: one 256-bit row load, widened
/// to two ymm of i16 lanes for the pmaddwd multiply-adds.
#[cfg(target_arch = "x86_64")]
const AVX2_CHUNK: usize = 32;

/// The register tile of the AVX2 batched screen: `T` queries (1 to
/// [`QUERY_TILE`]) against every row of one cache tile, each dot
/// appended to its query's `out` vector in row order. `wide` holds the
/// `T` queries' first `split` elements sign-extended to i16, query
/// after query. Each 32-byte row chunk is loaded and sign-extended once,
/// then multiply-added (pmaddwd) into one i32 ymm accumulator per
/// query; the `dim % 32` tail is scalar. Every product and sum is exact
/// integer arithmetic (any i8·i8 pair sum fits i32 with room to spare:
/// two products ≤ 2·2¹⁴ per pmaddwd lane, and a lane accumulates dim/2
/// of them), so the dots equal [`dot_i8_body`]'s bit for bit at every
/// `T` — only the association of the additions differs, which integers
/// cannot observe.
///
/// # Safety
/// Requires AVX2 (caller dispatches), `split % AVX2_CHUNK == 0` and
/// `split <= dim`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn dot_i8_tile_avx2<const T: usize>(
    wide: &[i16],
    queries: &[&[i8]],
    tile: &[i8],
    dim: usize,
    split: usize,
    out: &mut [Vec<i32>],
) {
    use std::arch::x86_64::*;
    let w: [&[i16]; T] = std::array::from_fn(|t| &wide[t * split..(t + 1) * split]);
    let qs: [&[i8]; T] = std::array::from_fn(|t| queries[t]);
    for row in tile.chunks_exact(dim) {
        // SAFETY: guaranteed by this fn's `# Safety` contract — AVX2 is
        // enabled, and `split` is a multiple of AVX2_CHUNK no longer than
        // the row, while every `w[t]` is exactly `split` i16 long, so all
        // 256-bit loads stay in bounds.
        unsafe {
            let mut acc = [_mm256_setzero_si256(); T];
            let mut i = 0;
            while i < split {
                let r = _mm256_loadu_si256(row.as_ptr().add(i) as *const __m256i);
                let rlo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(r));
                let rhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(r));
                for t in 0..T {
                    let qlo = _mm256_loadu_si256(w[t].as_ptr().add(i) as *const __m256i);
                    let qhi = _mm256_loadu_si256(w[t].as_ptr().add(i + 16) as *const __m256i);
                    acc[t] = _mm256_add_epi32(acc[t], _mm256_madd_epi16(rlo, qlo));
                    acc[t] = _mm256_add_epi32(acc[t], _mm256_madd_epi16(rhi, qhi));
                }
                i += AVX2_CHUNK;
            }
            for t in 0..T {
                let lo = _mm256_castsi256_si128(acc[t]);
                let hi = _mm256_extracti128_si256::<1>(acc[t]);
                let s = _mm_add_epi32(lo, hi);
                let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b0100_1110>(s));
                let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b1011_0001>(s));
                let mut sum = _mm_cvtsi128_si32(s);
                for (x, y) in qs[t][split..].iter().zip(&row[split..]) {
                    sum += *x as i32 * *y as i32;
                }
                out[t].push(sum);
            }
        }
    }
}

/// AVX2 batched screen: the vectorizable prefix of every query is
/// sign-extended to i16 once up front, then each cache tile of document
/// rows is walked in full register tiles of [`QUERY_TILE`] queries and
/// one narrower tile for the 1–3 queries left over, all through
/// [`dot_i8_tile_avx2`]. Integer arithmetic throughout, so the output is
/// bit-identical to [`dot_i8_batch_body`]'s.
///
/// # Safety
/// Caller must have verified AVX2 support at runtime
/// (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_i8_batch_avx2(queries: &[&[i8]], rows: &[i8], dim: usize, out: &mut [Vec<i32>]) {
    debug_assert_eq!(queries.len(), out.len());
    if dim == 0 || queries.is_empty() {
        return;
    }
    debug_assert_eq!(rows.len() % dim, 0);
    let split = dim - dim % AVX2_CHUNK;
    let mut wide: Vec<i16> = Vec::with_capacity(queries.len() * split);
    for q in queries {
        wide.extend(q[..split].iter().map(|&x| x as i16));
    }
    let tile_elems = rows_per_tile(dim) * dim;
    let mut start = 0;
    while start < rows.len() {
        let tile = &rows[start..rows.len().min(start + tile_elems)];
        let mut g = 0;
        while g < queries.len() {
            let t = (queries.len() - g).min(QUERY_TILE);
            let w = &wide[g * split..(g + t) * split];
            let (qs, o) = (&queries[g..g + t], &mut out[g..g + t]);
            // SAFETY: AVX2 verified by the dispatcher; split is a
            // multiple of AVX2_CHUNK no longer than dim.
            unsafe {
                match t {
                    1 => dot_i8_tile_avx2::<1>(w, qs, tile, dim, split, o),
                    2 => dot_i8_tile_avx2::<2>(w, qs, tile, dim, split, o),
                    3 => dot_i8_tile_avx2::<3>(w, qs, tile, dim, split, o),
                    _ => dot_i8_tile_avx2::<QUERY_TILE>(w, qs, tile, dim, split, o),
                }
            }
            g += t;
        }
        start += tile_elems;
    }
}

/// Query-tiled batch screen: every query of the batch against every row
/// of a flat i8 block, each query's raw dots appended to its `out`
/// vector in row order. Runtime-dispatched to the explicit AVX2 kernel
/// where the CPU supports it — at every batch width, one included (the
/// detection result is cached by the stdlib, so the check is one atomic
/// load per call); bit-identical per pair to the naive i32 dot
/// (integer arithmetic is exact in any order — the tiling only
/// reorders which pair is computed when, and pmaddwd only
/// re-associates the additions).
pub fn dot_i8_batch(queries: &[&[i8]], rows: &[i8], dim: usize, out: &mut [Vec<i32>]) {
    assert_eq!(queries.len(), out.len(), "one output vec per query");
    for q in queries {
        assert_eq!(q.len(), dim, "dimension mismatch");
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the avx2 feature was just verified at runtime.
            unsafe { dot_i8_batch_avx2(queries, rows, dim, out) };
            return;
        }
    }
    dot_i8_batch_body(queries, rows, dim, out);
}

/// Symmetric int8 quantization of one f32 slice against a given scale:
/// `q = round(x / scale)` clamped to `[-127, 127]`. A zero scale (the
/// all-zero corpus) quantizes everything to zero.
fn quantize_into(src: &[f32], scale: f32, out: &mut Vec<i8>) {
    if scale == 0.0 {
        out.extend(std::iter::repeat_n(0i8, src.len()));
        return;
    }
    out.extend(
        src.iter()
            .map(|&x| (x / scale).round().clamp(-127.0, 127.0) as i8),
    );
}

/// Largest absolute component of a slice.
fn max_abs(v: &[f32]) -> f32 {
    v.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// Quantize a flat f32 block against its own symmetric scale: returns
/// the int8 block, the scale (`max |x| / 127`), and the largest row L2
/// norm (a term of [`pair_error_bound`]). One call per segment builds
/// that segment's quant shadow.
pub fn quantize_block(dim: usize, rows: usize, data: &[f32]) -> (Vec<i8>, f32, f32) {
    let scale = max_abs(data) / 127.0;
    let mut q = Vec::with_capacity(data.len());
    quantize_into(data, scale, &mut q);
    let mut max_norm = 0.0f64;
    for r in 0..rows {
        let row = &data[r * dim..(r + 1) * dim];
        let n: f64 = row.iter().map(|&x| x as f64 * x as f64).sum::<f64>();
        max_norm = max_norm.max(n);
    }
    (q, scale, max_norm.sqrt() as f32)
}

/// A query quantized for screening: its int8 form, its own symmetric
/// scale, and its exact L2 norm (both feed the error bound).
#[derive(Debug, Clone)]
pub struct QuantQuery {
    q: Vec<i8>,
    scale: f32,
    norm: f32,
}

impl QuantQuery {
    /// Quantize a query vector with its own per-query symmetric scale.
    pub fn new(query: &[f32]) -> Self {
        let scale = max_abs(query) / 127.0;
        let mut q = Vec::with_capacity(query.len());
        quantize_into(query, scale, &mut q);
        let norm = query
            .iter()
            .map(|&x| x as f64 * x as f64)
            .sum::<f64>()
            .sqrt() as f32;
        Self { q, scale, norm }
    }

    /// The int8 query row.
    #[inline]
    pub fn row(&self) -> &[i8] {
        &self.q
    }

    /// The query's own symmetric scale (`max |x| / 127`).
    #[inline]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The query's exact L2 norm.
    #[inline]
    pub fn norm(&self) -> f32 {
        self.norm
    }
}

/// The padded per-pair quantization-error bound:
/// `e_q·max_norm + (‖query‖ + e_q)·e_y` with `e = (scale/2)·√dim`,
/// padded relatively (1e-3) and absolutely (1e-4) to also cover the f32
/// rounding of the exact dot, the scale multiplies, and the
/// quantization divides. Padding widens the rerank margin; it can never
/// exclude a document the exact scan would keep.
pub fn pair_error_bound(
    query_scale: f64,
    query_norm: f64,
    index_scale: f64,
    index_max_norm: f64,
    dim: usize,
) -> f64 {
    let sqrt_d = (dim as f64).sqrt();
    let eq = 0.5 * query_scale * sqrt_d;
    let ey = 0.5 * index_scale * sqrt_d;
    let raw = eq * index_max_norm + (query_norm + eq) * ey;
    raw * 1.001 + 1e-4
}

/// Counters of one (or an accumulation of) two-stage scored scans:
/// how many documents the int8 kernel screened and how many of them the
/// margin sent to the exact f32 rerank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreenStats {
    /// Documents scored by the int8 screening kernel.
    pub screened: u64,
    /// Documents re-scored by the exact f32 path (margin suspects).
    pub reranked: u64,
}

impl ScreenStats {
    /// Accumulate another scan's counters.
    pub fn absorb(&mut self, other: ScreenStats) {
        self.screened += other.screened;
        self.reranked += other.reranked;
    }

    /// Fraction of screened documents that needed the exact rerank
    /// (0 when nothing was screened).
    pub fn rerank_rate(&self) -> f64 {
        if self.screened == 0 {
            0.0
        } else {
            self.reranked as f64 / self.screened as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive i32 dot of two int8 rows: the reference of the kernel
    /// tests.
    fn naive_dot(a: &[i8], b: &[i8]) -> i32 {
        a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
    }

    #[test]
    fn dot_i8_remainder_lanes_match_naive_loop() {
        // Dimensions that are not multiples of the 16-lane width pin
        // the tail handling: 1 (all tail), 7 (sub-lane), 9, 17 (one full
        // chunk plus one element) and 63; 8, 16 and 256 are whole
        // chunks. The batched kernel must agree with the naive loop at
        // each of them in every register-tile width.
        for dim in [1usize, 7, 8, 9, 16, 17, 63, 256] {
            let a: Vec<i8> = (0..dim).map(|i| (i as i32 * 23 - 60) as i8).collect();
            let b: Vec<i8> = (0..dim).map(|i| (i as i32 * 17 - 40) as i8).collect();
            let naive = naive_dot(&a, &b);
            for width in 1usize..=4 {
                let queries: Vec<&[i8]> = std::iter::repeat_n(a.as_slice(), width).collect();
                let mut out = vec![Vec::new(); width];
                dot_i8_batch(&queries, &b, dim, &mut out);
                for (q, o) in out.iter().enumerate() {
                    assert_eq!(o.as_slice(), &[naive], "dim {dim} width {width} query {q}");
                }
            }
        }
    }

    #[test]
    fn batched_screen_matches_naive_loop_at_every_width() {
        // Both kernel paths — the dispatched one (the AVX2 register
        // tiles on an AVX2 host) and the non-AVX2 fallback body called
        // directly — against a naive loop, at widths 0–9 (full tiles of
        // four plus every remainder), dims on both sides of the 32-byte
        // AVX2 chunk, and row counts spanning several 16 KiB cache
        // tiles. Query 0 and row 0 are all +127, query 1 and row 1 all
        // −127, so the extreme sums ±127²·dim are in every output.
        type BatchKernel = fn(&[&[i8]], &[i8], usize, &mut [Vec<i32>]);
        let kernels: [(&str, BatchKernel); 2] = [
            ("dispatched", dot_i8_batch),
            ("fallback body", dot_i8_batch_body),
        ];
        for dim in [1usize, 7, 31, 32, 33, 96, 256] {
            let rows_n = 3 * rows_per_tile(dim) + 5;
            let mut rows: Vec<i8> = (0..rows_n * dim)
                .map(|i| ((i * 37 + 11) % 255) as i8)
                .collect();
            rows[..dim].fill(127);
            rows[dim..2 * dim].fill(-127);
            let queries: Vec<Vec<i8>> = (0..9)
                .map(|q| match q {
                    0 => vec![127; dim],
                    1 => vec![-127; dim],
                    _ => (0..dim).map(|i| ((i * 91 + q * 13) % 255) as i8).collect(),
                })
                .collect();
            let naive: Vec<Vec<i32>> = queries
                .iter()
                .map(|q| {
                    rows.chunks_exact(dim)
                        .map(|row| naive_dot(q, row))
                        .collect()
                })
                .collect();
            assert_eq!(naive[0][1], -127 * 127 * dim as i32);
            for width in 0usize..=9 {
                let refs: Vec<&[i8]> = queries[..width].iter().map(|q| q.as_slice()).collect();
                for (kernel, run) in kernels {
                    let mut out = vec![Vec::new(); width];
                    run(&refs, &rows, dim, &mut out);
                    assert_eq!(out, naive[..width], "{kernel} dim {dim} width {width}");
                }
            }
        }
    }

    #[test]
    fn dot_i8_extremes_do_not_overflow() {
        let a = vec![127i8; 4096];
        let b = vec![-127i8; 4096];
        let mut out = vec![Vec::new()];
        dot_i8_batch(&[&a], &b, 4096, &mut out);
        assert_eq!(out, [[-127 * 127 * 4096]]);
    }

    /// Row-major `rows × dim` test block, element `i` = `f(i)`.
    fn block(rows: usize, dim: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..rows * dim).map(f).collect()
    }

    #[test]
    fn quantization_error_is_within_half_scale() {
        let (rows, dim) = (20usize, 32usize);
        let data = block(rows, dim, |i| (i as f32).sin());
        let (q, scale, _) = quantize_block(dim, rows, &data);
        let tol = scale as f64 * 0.5 * 1.001 + 1e-9;
        for (i, &x) in data.iter().enumerate() {
            let back = q[i] as f64 * scale as f64;
            assert!((x as f64 - back).abs() <= tol, "comp {i}: {x} vs {back}");
        }
    }

    #[test]
    fn zero_corpus_quantizes_to_zero() {
        let (q, scale, max_norm) = quantize_block(3, 2, &[0.0f32; 6]);
        assert_eq!(scale, 0.0);
        assert_eq!(max_norm, 0.0);
        assert!(q.iter().all(|&x| x == 0));
        let qq = QuantQuery::new(&[0.0; 3]);
        let mut out = vec![Vec::new()];
        dot_i8_batch(&[qq.row()], &q, 3, &mut out);
        assert_eq!(out, [[0, 0]]);
        let bound = pair_error_bound(
            qq.scale() as f64,
            qq.norm() as f64,
            scale as f64,
            max_norm as f64,
            3,
        );
        assert!(bound >= 0.0);
    }

    #[test]
    fn error_bound_covers_observed_error() {
        // The bound the segmented scans use: one query against a
        // quantize_block shadow, landed with the same factor.
        let (rows, dim) = (64usize, 48usize);
        let mut data = block(rows, dim, |i| (i as f32 * 0.7).cos());
        for row in data.chunks_exact_mut(dim) {
            crate::embed::l2_normalize(row);
        }
        let (q, scale, max_norm) = quantize_block(dim, rows, &data);
        for (probe, query) in data.chunks_exact(dim).enumerate() {
            let qq = QuantQuery::new(query);
            let bound = pair_error_bound(
                qq.scale() as f64,
                qq.norm() as f64,
                scale as f64,
                max_norm as f64,
                dim,
            );
            let factor = qq.scale() * scale;
            for (id, row) in data.chunks_exact(dim).enumerate() {
                let exact = crate::embed::dot(query, row) as f64;
                let qrow = &q[id * dim..(id + 1) * dim];
                let approx = (naive_dot(qq.row(), qrow) as f32 * factor) as f64;
                assert!(
                    (exact - approx).abs() <= bound,
                    "pair ({probe}, {id}): |{exact} - {approx}| > {bound}"
                );
            }
        }
    }

    #[test]
    fn screen_stats_accumulate_and_rate() {
        let mut s = ScreenStats::default();
        assert_eq!(s.rerank_rate(), 0.0);
        s.absorb(ScreenStats {
            screened: 100,
            reranked: 25,
        });
        s.absorb(ScreenStats {
            screened: 100,
            reranked: 15,
        });
        assert_eq!(s.screened, 200);
        assert_eq!(s.reranked, 40);
        assert!((s.rerank_rate() - 0.2).abs() < 1e-12);
    }
}
