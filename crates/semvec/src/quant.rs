//! Int8 scalar quantization and the two leaves of the batched screen.
//!
//! The scoring hot loop of retrieval is a dot product per (query,
//! document) pair. Each segment of [`crate::SegmentedIndex`] keeps,
//! next to its flat f32 rows, an int8 shadow of the same rows
//! symmetrically quantized against the segment's own scale
//! ([`quantize_block`]), so the screening pass reads one byte per
//! component.
//!
//! **Block layout.** The shadow is stored in groups of [`GROUP`] (16)
//! rows: group `g` holds rows `16g..16g+15`, and is a run of 64-byte
//! chunks, chunk `c` holding each row's components `4c..4c+3`, row
//! after row. Components past `dim` and rows past the segment's end are
//! zero bytes, so a group is always `⌈dim/4⌉·64` bytes (at `dim % 4 ==
//! 0` with whole groups, exactly the row-major byte count). One chunk
//! is one 512-bit load that carries four components of all sixteen
//! rows, so a query's four matching bytes, broadcast, meet all sixteen
//! rows in one multiply-add and the sixteen dots land in sixteen lanes
//! with nothing to reduce.
//!
//! The scan walks each segment group by group and calls two
//! runtime-dispatched leaves ([`screen_kernel`] names the family this
//! host runs):
//!
//! * **Group dots** (`Screen::group`): every query of the batch against
//!   the group's rows, each exact integer dot compared with the query's
//!   integer pre-threshold (`pre_threshold`), and the (id, dot) of every
//!   pair at or above it appended to the query's candidate buffer
//!   (`Cands`). The AVX-512 VNNI body loads and flips each chunk once
//!   for a tile of up to eight queries and runs one `vpdpbusd` per
//!   query; the AVX2 body runs `vpsignb`/`vpmaddubsw`/`vpmaddwd` on the
//!   chunk's two 32-byte halves for a tile of up to four; the portable
//!   body keeps sixteen i32 sums per query.
//! * **Candidate scores** (`score_candidates`): up to sixteen packed
//!   candidates of one query at once — the dequantized dot plus the
//!   pair's retrieval jitter, tested against the query's margin. On
//!   AVX-512 the jitter's two splitmix64 rounds, its unit conversion and
//!   its f32 arithmetic run on sixteen lanes in the order
//!   [`crate::jitter`] evaluates them; elsewhere each lane calls it.
//!
//! Every leaf is integer arithmetic up to the candidate scores, and the
//! scores repeat the scalar expression operation for operation, so each
//! leaf's output equals the portable one's bit for bit.
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
//! **Error-bound derivation.** Write a vector `x`, its int8 row `q` and
//! its f32 scale `s`, and its dequantized form `x̂ = s·q` in real
//! arithmetic. For a query `x` against a stored row `y` of a segment:
//!
//! ```text
//! x·y − x̂·ŷ = (x − x̂)·y + x̂·(y − ŷ)
//! |x·y − x̂·ŷ| ≤ ‖x − x̂‖·M + ‖x̂‖·R
//! ```
//!
//! with `M` the segment's largest row norm `‖y‖` and `R` its largest
//! row residual `‖y − ŷ‖`. The quantizer records both per segment, and
//! [`QuantQuery`] computes `‖x − x̂‖` and `‖x̂‖` from the query's actual
//! int8 row, all in f64, so the bound assumes nothing about how a byte
//! was rounded. Each residual is at most `(s/2)·√d` (up to the f32
//! rounding of `x/s`), so this is never looser than the worst case
//! `(s_x/2)·√d·M + (‖x‖ + (s_x/2)·√d)·(s_y/2)·√d`.
//!
//! Both scores the scan compares are rounded, and the residual terms
//! can be 0 (a row on the quantization grid) while the scores still
//! round. With `u = 2⁻²⁴`: the exact f32 dot (`embed::dot`: eight lanes
//! of `⌊d/8⌋` products, a three-level pairwise sum, then up to seven
//! tail products) is within `(⌊d/8⌋ + 3 + d mod 8)·u·Σ|xᵢyᵢ|` of `x·y`;
//! the quantized score `fl(fl(dot)·fl(s_x·s_y))` is within `2u·|x̂·ŷ|`
//! of `x̂·ŷ` (`fl(dot)` is exact below 2²⁴); and the scan adds the jitter
//! to each with one more rounding. With `Σ|xᵢyᵢ| ≤ ‖x‖·M`, that is at
//! most `(⌈d/8⌉ + 13)·u·‖x‖·M`, which `γ·‖x‖·M` with
//! `γ = (⌈d/8⌉ + 6)·2⁻²³` covers for every `d ≥ 1`. The bound
//!
//! ```text
//! B = (‖x − x̂‖·M + ‖x̂‖·R + γ·‖x‖·M)·(1 + 10⁻³) + 10⁻⁴
//! ```
//!
//! pads the rest: the relative 10⁻³ covers the f64 evaluation of the
//! norms, their f32 storage, the quantized score's rounding beyond
//! `‖x‖·M` (it is relative to `‖x̂‖·‖ŷ‖ ≤ (‖x‖ + ‖x − x̂‖)·(M + R)`) and
//! every second-order term; the absolute 10⁻⁴ covers the jitter's own
//! share of the two jitter additions (`2u·jmax`). Padding can only
//! *widen* the rerank margin, never break exactness. Property tests
//! assert the bound on random, on-grid, zero and one-hot inputs with
//! norms up to 10³.

use crate::index::jitter;

/// Rows per screening group: a chunk carries four components of sixteen
/// rows in one 512-bit register, and candidates are scored sixteen at a
/// time.
pub(crate) const GROUP: usize = 16;

/// Components of one row in one chunk of the block layout: the four
/// bytes a `vpdpbusd` lane multiplies and sums.
const CHUNK_DIMS: usize = 4;

/// Bytes of one chunk of the block layout: [`CHUNK_DIMS`] components of
/// each of the [`GROUP`] rows.
const CHUNK_BYTES: usize = GROUP * CHUNK_DIMS;

/// Chunks per group at `dim`: each row's components zero-padded to a
/// multiple of [`CHUNK_DIMS`].
#[inline]
fn chunks(dim: usize) -> usize {
    dim.div_ceil(CHUNK_DIMS)
}

/// Bytes of one group of the block layout at `dim`.
#[inline]
pub(crate) fn group_bytes(dim: usize) -> usize {
    chunks(dim) * CHUNK_BYTES
}

/// The leaf family a screen dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// AVX-512 VNNI group dots and AVX-512 candidate scores
    /// (`avx512bw`, `avx512dq` and `avx512vnni`).
    Avx512Vnni,
    /// AVX2 group dots; scalar candidate scores.
    Avx2,
    /// Portable group dots and scalar candidate scores.
    Portable,
}

impl Kernel {
    /// The best leaf family this host supports. The detection results
    /// are cached by the standard library, so this is a few atomic
    /// loads.
    pub(crate) fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx512vnni")
            {
                return Kernel::Avx512Vnni;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Kernel::Avx2;
            }
        }
        Kernel::Portable
    }

    /// Every leaf family this host can run, best first: each family
    /// falls back to the ones declared after it.
    #[cfg(test)]
    pub(crate) fn supported() -> Vec<Kernel> {
        let best = Kernel::detect() as u8;
        [Kernel::Avx512Vnni, Kernel::Avx2, Kernel::Portable]
            .into_iter()
            .filter(|&k| k as u8 >= best)
            .collect()
    }

    /// The name the perf bench reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Kernel::Avx512Vnni => "avx512vnni",
            Kernel::Avx2 => "avx2",
            Kernel::Portable => "portable",
        }
    }
}

/// The group-dots leaf this host dispatches: `"avx512vnni"`, `"avx2"`
/// or `"portable"`, so a measured cost per pair can be attributed.
pub fn screen_kernel() -> &'static str {
    Kernel::detect().name()
}

/// One query's packed candidates: the global ids and integer dots of
/// the pairs that passed its pre-threshold, in id order, waiting to be
/// scored [`GROUP`] at a time. A group leaf appends at most [`GROUP`]
/// entries and needs `len ≤ GROUP` on entry, so twice that is room for
/// any append.
#[derive(Debug, Clone)]
pub(crate) struct Cands {
    ids: [u32; 2 * GROUP],
    dots: [i32; 2 * GROUP],
    len: usize,
}

impl Default for Cands {
    fn default() -> Self {
        Self {
            ids: [0; 2 * GROUP],
            dots: [0; 2 * GROUP],
            len: 0,
        }
    }
}

impl Cands {
    /// Pending candidates.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Global id of pending candidate `j`.
    #[inline]
    pub(crate) fn id(&self, j: usize) -> usize {
        self.ids[j] as usize
    }

    /// Drop the first `n` (scored) candidates — the first [`GROUP`], or
    /// all of them — moving the rest to the front. What follows the
    /// first [`GROUP`] fits in [`GROUP`] lanes, so one fixed-size copy
    /// moves it (and is harmless when nothing is left).
    #[inline]
    pub(crate) fn consume(&mut self, n: usize) {
        assert!(n == GROUP || n == self.len, "consume a group or all");
        self.ids.copy_within(GROUP.., 0);
        self.dots.copy_within(GROUP.., 0);
        self.len -= n;
    }

    /// Append the lanes of `dots` at or above `t`, lane `j` as id
    /// `base + j`, without branching on the comparisons: every lane is
    /// written and the length advances by the test's outcome. Most
    /// groups past the start of a scan have no such lane, so all lanes
    /// are tested at once first.
    #[inline(always)]
    fn append_passing(&mut self, dots: &[i32], base: u32, t: i32) {
        if !dots.iter().fold(false, |any, &d| any | (d >= t)) {
            return;
        }
        let mut len = self.len;
        for (j, &d) in dots.iter().enumerate() {
            self.ids[len] = base + j as u32;
            self.dots[len] = d;
            len += usize::from(d >= t);
        }
        self.len = len;
    }
}

/// The largest |integer dot| of two rows quantized to ±127.
#[inline]
fn dot_limit(dim: usize) -> i64 {
    127 * 127 * dim as i64
}

/// The screen's pre-test of a pair with integer dot `d`: whether its
/// dequantized score plus the largest jitter, `fl(fl(d)·factor + jmax)`,
/// reaches the margin.
#[inline]
fn pre_test(d: i64, factor: f32, jmax: f32, margin: f64) -> bool {
    ((d as f32 * factor + jmax) as f64) >= margin
}

/// The integer pre-threshold of one (query, segment): the least dot `t`
/// in `±127²·dim` that passes the pre-test `fl(fl(d)·factor + jmax) ≥
/// margin`, so that `d ≥ t` is that test for every dot of two ±127
/// rows. The test is monotone in `d` — `factor ≥ 0`, and every f32
/// operation and rounding is monotone — so `t` is found from an f64
/// estimate by stepping outwards to bracket it and bisecting the
/// bracket, evaluating the pre-test itself at each probe: `t` is exact
/// by construction. `i32::MIN` when the margin is −∞ (every pair
/// passes), `i32::MAX` when no dot in range passes.
pub(crate) fn pre_threshold(factor: f32, jmax: f32, margin: f64, dim: usize) -> i32 {
    if margin == f64::NEG_INFINITY {
        return i32::MIN;
    }
    let lim = dot_limit(dim);
    let pass = |d: i64| pre_test(d, factor, jmax, margin);
    if !pass(lim) {
        return i32::MAX;
    }
    // With factor 0 the test is constant, so `pass(lim)` decided it.
    if factor == 0.0 || pass(-lim) {
        return -lim as i32;
    }
    // Now pass(lim) and !pass(-lim): bracket the least passing dot
    // between a failing `lo` and a passing `hi`, starting from the real
    // solution of d·factor + jmax = margin.
    let est = ((margin - jmax as f64) / factor as f64).ceil();
    let est = if est.is_nan() {
        0
    } else {
        est.clamp(-lim as f64, lim as f64) as i64
    };
    let (mut lo, mut hi);
    let mut step = 1;
    if pass(est) {
        hi = est;
        loop {
            let probe = hi - step;
            if probe <= -lim {
                lo = -lim;
                break;
            }
            if !pass(probe) {
                lo = probe;
                break;
            }
            hi = probe;
            step *= 2;
        }
    } else {
        lo = est;
        loop {
            let probe = lo + step;
            if probe >= lim {
                hi = lim;
                break;
            }
            if pass(probe) {
                hi = probe;
                break;
            }
            lo = probe;
            step *= 2;
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pass(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi as i32
}

/// How many queries one register tile of the AVX-512 group leaf
/// carries at most: eight zmm accumulators next to the shared chunk and
/// its flipped copy.
#[cfg(target_arch = "x86_64")]
const AVX512_TILE: usize = 8;

/// How many queries one register tile of the AVX2 group leaf carries at
/// most: two ymm accumulators per query (rows 0–7 and 8–15) next to the
/// chunk's two halves, the query's bytes and their magnitudes, and the
/// `vpmaddwd` ones stay inside the sixteen ymm registers.
#[cfg(target_arch = "x86_64")]
const AVX2_TILE: usize = 4;

/// The queries of one batched screen, prepared once per scan: each
/// query's bytes zero-padded to a whole number of chunks, four to a
/// little-endian i32 word, so a leaf broadcasts one word per chunk.
pub(crate) struct Screen {
    kernel: Kernel,
    chunks: usize,
    width: usize,
    /// Every query's words, query after query.
    words: Vec<i32>,
    /// AVX2: every word with each byte replaced by its magnitude, the
    /// unsigned operand of `vpmaddubsw`.
    abs_words: Vec<i32>,
    /// AVX-512: every query's `128·Σq`, the offset its dots carry when
    /// the rows are flipped to unsigned.
    bias: Vec<i32>,
}

impl Screen {
    /// Prepare `queries` (each `dim` bytes in ±127, the quantizer's
    /// range) for `kernel`'s group leaf.
    pub(crate) fn new(kernel: Kernel, queries: &[&[i8]], dim: usize) -> Self {
        assert!(dim > 0, "rows need at least one component");
        assert!(
            dot_limit(dim) < i32::MAX as i64,
            "dim {dim} overflows the i32 dots"
        );
        let chunks = chunks(dim);
        let mut words = Vec::with_capacity(queries.len() * chunks);
        for q in queries {
            assert_eq!(q.len(), dim, "dimension mismatch");
            assert!(q.iter().all(|&x| x != i8::MIN), "query bytes are ±127");
            words.extend(q.chunks(CHUNK_DIMS).map(|c| {
                let mut b = [0u8; CHUNK_DIMS];
                for (b, &x) in b.iter_mut().zip(c) {
                    *b = x as u8;
                }
                i32::from_le_bytes(b)
            }));
        }
        let mut abs_words = Vec::new();
        let mut bias = Vec::new();
        match kernel {
            Kernel::Avx512Vnni => {
                // Wrapping, as the lanes it is subtracted from wrap: the
                // dots themselves fit i32 (`127²·dim < 2³¹`).
                bias = queries
                    .iter()
                    .map(|q| q.iter().map(|&x| x as i32).sum::<i32>().wrapping_mul(128))
                    .collect();
            }
            Kernel::Avx2 => {
                abs_words = words
                    .iter()
                    .map(|w| i32::from_le_bytes(w.to_le_bytes().map(|b| (b as i8).unsigned_abs())))
                    .collect();
            }
            Kernel::Portable => {}
        }
        Self {
            kernel,
            chunks,
            width: queries.len(),
            words,
            abs_words,
            bias,
        }
    }

    /// Group dots: every query against one group of the block layout
    /// (`block`, [`group_bytes`] long, whose first `n_rows` rows — one
    /// to [`GROUP`] — are live, the first with global id `base`), and
    /// for query `q` the (id, dot) of every live row whose dot is at
    /// least `thresholds[q]` appended to `cands[q]` in row order. Every
    /// `cands[q]` must hold at most [`GROUP`] candidates.
    pub(crate) fn group(
        &self,
        block: &[i8],
        n_rows: usize,
        base: u32,
        thresholds: &[i32],
        cands: &mut [Cands],
    ) {
        assert!(thresholds.len() == self.width && cands.len() == self.width);
        assert!((1..=GROUP).contains(&n_rows) && block.len() == self.chunks * CHUNK_BYTES);
        assert!(
            cands.iter().all(|c| c.len <= GROUP),
            "drain before appending"
        );
        #[cfg(target_arch = "x86_64")]
        {
            if self.kernel == Kernel::Avx512Vnni
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512vnni")
            {
                // SAFETY: both features were just verified at runtime;
                // the asserts above give a whole group and every
                // `cands[q]` room for GROUP more entries.
                unsafe { self.group_avx512(block, n_rows, base, thresholds, cands) };
                return;
            }
            if self.kernel == Kernel::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the avx2 feature was just verified at runtime;
                // the asserts above give a whole group.
                unsafe { self.group_avx2(block, n_rows, base, thresholds, cands) };
                return;
            }
        }
        self.group_portable(block, n_rows, base, thresholds, cands);
    }

    /// The portable group leaf: per query, sixteen i32 sums, each
    /// chunk's 64 products added row by row.
    fn group_portable(
        &self,
        block: &[i8],
        n_rows: usize,
        base: u32,
        thresholds: &[i32],
        cands: &mut [Cands],
    ) {
        let queries = self.words.chunks_exact(self.chunks);
        for ((words, &t), c) in queries.zip(thresholds).zip(cands) {
            let mut dots = [0i32; GROUP];
            for (chunk, w) in block.chunks_exact(CHUNK_BYTES).zip(words) {
                let q = w.to_le_bytes().map(|b| b as i8 as i32);
                for (d, r) in dots.iter_mut().zip(chunk.chunks_exact(CHUNK_DIMS)) {
                    *d += r[0] as i32 * q[0]
                        + r[1] as i32 * q[1]
                        + r[2] as i32 * q[2]
                        + r[3] as i32 * q[3];
                }
            }
            c.append_passing(&dots[..n_rows], base, t);
        }
    }

    /// The AVX2 group leaf: the queries in full register tiles of
    /// [`AVX2_TILE`] and one narrower tile for the 1–3 left over, all
    /// through [`Screen::tile_avx2`], each query's dots then compared
    /// with its threshold lane by lane.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support at runtime and that
    /// `block` is one whole group.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn group_avx2(
        &self,
        block: &[i8],
        n_rows: usize,
        base: u32,
        thresholds: &[i32],
        cands: &mut [Cands],
    ) {
        let mut dots = [[0i32; GROUP]; AVX2_TILE];
        let mut q0 = 0;
        while q0 < self.width {
            let t = (self.width - q0).min(AVX2_TILE);
            // SAFETY: AVX2 is enabled here; `block` is one whole group
            // and queries q0..q0 + t exist.
            unsafe {
                match t {
                    1 => self.tile_avx2::<1>(block, q0, &mut dots),
                    2 => self.tile_avx2::<2>(block, q0, &mut dots),
                    3 => self.tile_avx2::<3>(block, q0, &mut dots),
                    _ => self.tile_avx2::<AVX2_TILE>(block, q0, &mut dots),
                }
            }
            for (i, d) in dots[..t].iter().enumerate() {
                cands[q0 + i].append_passing(&d[..n_rows], base, thresholds[q0 + i]);
            }
            q0 += t;
        }
    }

    /// The AVX2 register tile: queries `q0..q0 + T` against one group,
    /// row `r`'s dot with query `q0 + t` written to `out[t][r]`. Each
    /// chunk is loaded as two 32-byte halves (rows 0–7, rows 8–15); per
    /// query, `vpsignb` gives each row byte the sign of the query byte
    /// it meets, `vpmaddubsw` multiplies by the query byte's magnitude
    /// and sums pairs to i16, and `vpmaddwd` by ones sums those pairs to
    /// one i32 per row — eight row sums per register, nothing to reduce.
    /// With every byte in ±127 a pair sum is at most 2·127² = 32,258, so
    /// `vpmaddubsw` never saturates and the dots are exact.
    ///
    /// # Safety
    /// Requires AVX2, `block` one whole group, and `q0 + T ≤ width`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile_avx2<const T: usize>(
        &self,
        block: &[i8],
        q0: usize,
        out: &mut [[i32; GROUP]; AVX2_TILE],
    ) {
        use std::arch::x86_64::*;
        let chunks = self.chunks;
        let words = self.words[q0 * chunks..(q0 + T) * chunks].as_ptr();
        let abs_words = self.abs_words[q0 * chunks..(q0 + T) * chunks].as_ptr();
        let ones = _mm256_set1_epi16(1);
        let mut lo = [_mm256_setzero_si256(); T];
        let mut hi = [_mm256_setzero_si256(); T];
        // SAFETY: AVX2 is enabled; the loads read chunk c < chunks of a
        // whole group (chunks·64 bytes), and the word reads index
        // t·chunks + c < T·chunks of the slices taken above.
        unsafe {
            for c in 0..chunks {
                let p = block.as_ptr().add(c * CHUNK_BYTES);
                let rlo = _mm256_loadu_si256(p as *const __m256i);
                let rhi = _mm256_loadu_si256(p.add(32) as *const __m256i);
                for t in 0..T {
                    let q = _mm256_set1_epi32(*words.add(t * chunks + c));
                    let qa = _mm256_set1_epi32(*abs_words.add(t * chunks + c));
                    let l = _mm256_maddubs_epi16(qa, _mm256_sign_epi8(rlo, q));
                    let h = _mm256_maddubs_epi16(qa, _mm256_sign_epi8(rhi, q));
                    lo[t] = _mm256_add_epi32(lo[t], _mm256_madd_epi16(l, ones));
                    hi[t] = _mm256_add_epi32(hi[t], _mm256_madd_epi16(h, ones));
                }
            }
            for t in 0..T {
                let o = out[t].as_mut_ptr();
                _mm256_storeu_si256(o as *mut __m256i, lo[t]);
                _mm256_storeu_si256(o.add(8) as *mut __m256i, hi[t]);
            }
        }
    }

    /// The AVX-512 VNNI group leaf: the queries in register tiles of up
    /// to [`AVX512_TILE`] through [`Screen::tile_avx512`].
    ///
    /// # Safety
    /// Caller must have verified `avx512bw` and `avx512vnni` at runtime,
    /// `block` must be one whole group with `n_rows` (one to [`GROUP`])
    /// live rows, and every `cands[q]` hold at most [`GROUP`]
    /// candidates.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512bw,avx512vnni")]
    unsafe fn group_avx512(
        &self,
        block: &[i8],
        n_rows: usize,
        base: u32,
        thresholds: &[i32],
        cands: &mut [Cands],
    ) {
        let mut q0 = 0;
        while q0 < self.width {
            let t = (self.width - q0).min(AVX512_TILE);
            let (th, cs) = (&thresholds[q0..q0 + t], &mut cands[q0..q0 + t]);
            // SAFETY: both features are enabled here; the contract above
            // carries over to queries q0..q0 + t.
            unsafe {
                match t {
                    1 => self.tile_avx512::<1, 4>(block, n_rows, base, q0, th, cs),
                    2 => self.tile_avx512::<2, 2>(block, n_rows, base, q0, th, cs),
                    3 => self.tile_avx512::<3, 2>(block, n_rows, base, q0, th, cs),
                    4 => self.tile_avx512::<4, 2>(block, n_rows, base, q0, th, cs),
                    5 => self.tile_avx512::<5, 1>(block, n_rows, base, q0, th, cs),
                    6 => self.tile_avx512::<6, 1>(block, n_rows, base, q0, th, cs),
                    7 => self.tile_avx512::<7, 1>(block, n_rows, base, q0, th, cs),
                    _ => self.tile_avx512::<AVX512_TILE, 1>(block, n_rows, base, q0, th, cs),
                }
            }
            q0 += t;
        }
    }

    /// The AVX-512 VNNI register tile: queries `q0..q0 + T` against one
    /// group. Each 64-byte chunk is loaded once and flipped to unsigned
    /// once (`r ^ 0x80`, that is `r + 128`) for the whole tile, then
    /// per query one `vpdpbusd` with the query's four bytes broadcast as
    /// the signed operand adds row `r`'s four products to lane `r`. A
    /// lane sums to `Σ r·q + 128·Σq` (zero bytes past `dim` meet zero
    /// query bytes), so subtracting the query's `128·Σq` leaves the
    /// sixteen exact dots in one zmm. The lanes of rows past `n_rows`
    /// are masked out; the live lanes at or above the query's threshold
    /// are compressed into its candidate buffer.
    ///
    /// A `vpdpbusd` waits for the accumulator it adds to, so each query
    /// sums `U` chunks at a time into `U` accumulators, added at the
    /// end: a narrow tile (`T·U` chains of at least four) keeps the
    /// multiply-adds back to back instead of one latency apart.
    ///
    /// # Safety
    /// As [`Screen::group_avx512`], for queries `q0..q0 + T`, with
    /// `thresholds` and `cands` holding exactly those `T` queries'.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512bw,avx512vnni")]
    #[inline]
    unsafe fn tile_avx512<const T: usize, const U: usize>(
        &self,
        block: &[i8],
        n_rows: usize,
        base: u32,
        q0: usize,
        thresholds: &[i32],
        cands: &mut [Cands],
    ) {
        use std::arch::x86_64::*;
        let chunks = self.chunks;
        let words = self.words[q0 * chunks..(q0 + T) * chunks].as_ptr();
        let flip = _mm512_set1_epi8(i8::MIN);
        let mut acc = [[_mm512_setzero_si512(); T]; U];
        // Chunk c into accumulator set u: its load, flip and T
        // multiply-adds.
        let step = |acc: &mut [__m512i; T], c: usize| {
            // SAFETY: avx512bw and avx512vnni are enabled; the load
            // reads chunk c < chunks of a whole group (chunks·64 bytes),
            // and the word reads index t·chunks + c < T·chunks of the
            // slice above.
            unsafe {
                let rows =
                    _mm512_loadu_si512(block.as_ptr().add(c * CHUNK_BYTES) as *const __m512i);
                let rows = _mm512_xor_si512(rows, flip);
                for (t, a) in acc.iter_mut().enumerate() {
                    let q = _mm512_set1_epi32(*words.add(t * chunks + c));
                    *a = _mm512_dpbusd_epi32(*a, rows, q);
                }
            }
        };
        let whole = chunks - chunks % U;
        for c in (0..whole).step_by(U) {
            for (u, a) in acc.iter_mut().enumerate() {
                step(a, c + u);
            }
        }
        for c in whole..chunks {
            step(&mut acc[0], c);
        }
        let acc: [__m512i; T] = std::array::from_fn(|t| {
            acc.iter()
                .fold(_mm512_setzero_si512(), |s, a| _mm512_add_epi32(s, a[t]))
        });
        let lanes = ((1u32 << n_rows) - 1) as __mmask16;
        let ids = _mm512_add_epi32(
            _mm512_set1_epi32(base as i32),
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        );
        for (((a, &bias), &t), c) in acc
            .iter()
            .zip(&self.bias[q0..q0 + T])
            .zip(thresholds)
            .zip(cands.iter_mut())
        {
            let dots = _mm512_sub_epi32(*a, _mm512_set1_epi32(bias));
            let pass = _mm512_mask_cmpge_epi32_mask(lanes, dots, _mm512_set1_epi32(t));
            let at = c.len;
            // SAFETY: the stores write 16 lanes at `at ≤ GROUP` of
            // 2·GROUP-lane arrays.
            unsafe {
                _mm512_storeu_si512(
                    c.ids.as_mut_ptr().add(at) as *mut __m512i,
                    _mm512_maskz_compress_epi32(pass, ids),
                );
                _mm512_storeu_si512(
                    c.dots.as_mut_ptr().add(at) as *mut __m512i,
                    _mm512_maskz_compress_epi32(pass, dots),
                );
            }
            c.len = at + pass.count_ones() as usize;
        }
    }
}

/// What one query's candidate scores in one segment depend on besides
/// each pair's id and dot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScoreParams {
    /// The dequantization factor: query scale × segment scale.
    pub(crate) factor: f32,
    /// The query's jitter salt.
    pub(crate) salt: u64,
    /// The jitter's standard deviation (no jitter at 0).
    pub(crate) sigma: f32,
    /// The largest jitter at that `sigma` (`jitter_max`).
    pub(crate) jmax: f32,
}

/// Candidate scores: the first `n` (≤ [`GROUP`]) of one query's packed
/// candidates scored — `scores[j] = fl(d)·factor`, plus
/// `jitter(salt, id, sigma)` when `sigma > 0` — and the mask of the
/// lanes whose score, in f64, is at or above `margin`. Dispatched with
/// the screen's leaf family: the AVX-512 body scores all sixteen lanes
/// at once, the others call [`jitter`] per lane; both evaluate the same
/// f32 and f64 operations in the same order, so the scores are
/// bit-identical. The scalar body first repeats the pre-test against
/// `margin`, which may have risen since the pair passed its threshold,
/// and leaves a lane that even `jmax` cannot lift to it unhashed and its
/// score unwritten: such a lane is out of the mask either way.
pub(crate) fn score_candidates(
    kernel: Kernel,
    cands: &Cands,
    n: usize,
    p: ScoreParams,
    margin: f64,
    scores: &mut [f32; GROUP],
) -> u32 {
    assert!(n <= GROUP && n <= cands.len);
    #[cfg(target_arch = "x86_64")]
    {
        if kernel == Kernel::Avx512Vnni && std::arch::is_x86_feature_detected!("avx512dq") {
            // SAFETY: the avx512dq feature was just verified at runtime,
            // and n ≤ GROUP.
            return unsafe { score_avx512(cands, n, p, margin, scores) };
        }
    }
    let _ = kernel;
    let mut pass = 0u32;
    let lanes = cands.dots.iter().zip(&cands.ids);
    for (j, (score, (&d, &id))) in scores[..n].iter_mut().zip(lanes).enumerate() {
        if !pre_test(d as i64, p.factor, p.jmax, margin) {
            continue;
        }
        let a = d as f32 * p.factor;
        *score = if p.sigma > 0.0 {
            a + jitter(p.salt, id as usize, p.sigma)
        } else {
            a
        };
        pass |= u32::from(*score as f64 >= margin) << j;
    }
    pass
}

/// splitmix64 ([`kgstore::hash::splitmix64`]) on eight u64 lanes.
///
/// # Safety
/// Requires AVX-512DQ (caller is an AVX-512 leaf).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn splitmix64_avx512(x: std::arch::x86_64::__m512i) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    // SAFETY: AVX-512DQ is enabled in the calling leaf; register-only
    // arithmetic (wrapping adds and low 64-bit products, as the scalar).
    unsafe {
        let x = _mm512_add_epi64(x, _mm512_set1_epi64(0x9e37_79b9_7f4a_7c15u64 as i64));
        let z = _mm512_xor_si512(x, _mm512_srli_epi64::<30>(x));
        let z = _mm512_mullo_epi64(z, _mm512_set1_epi64(0xbf58_476d_1ce4_e5b9u64 as i64));
        let z = _mm512_xor_si512(z, _mm512_srli_epi64::<27>(z));
        let z = _mm512_mullo_epi64(z, _mm512_set1_epi64(0x94d0_49bb_1331_11ebu64 as i64));
        _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z))
    }
}

/// [`jitter`] of eight ids (u64 lanes) under one salt: `mix2(salt, id)`
/// as two splitmix64 rounds, the top 53 bits converted exactly to f64
/// and scaled by 2⁻⁵³ (`unit_f64`: a power-of-two division, exact
/// either way), rounded to f32, then `×2 − 1`, `×sigma`, `×1.732` in
/// `jitter_of`'s order — each a correctly rounded IEEE operation, so
/// every lane equals the scalar's bits.
///
/// # Safety
/// Requires AVX-512DQ (caller is an AVX-512 leaf).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn jitter8_avx512(
    ids: std::arch::x86_64::__m512i,
    salt: u64,
    sigma: f32,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    // SAFETY: AVX-512DQ is enabled in the calling leaf; register-only
    // arithmetic.
    unsafe {
        let h = splitmix64_avx512(_mm512_xor_si512(
            _mm512_set1_epi64(salt as i64),
            splitmix64_avx512(ids),
        ));
        let unit = _mm512_mul_pd(
            _mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(h)),
            _mm512_set1_pd(1.0 / (1u64 << 53) as f64),
        );
        let u = _mm512_cvtpd_ps(unit);
        let j = _mm256_sub_ps(_mm256_mul_ps(u, _mm256_set1_ps(2.0)), _mm256_set1_ps(1.0));
        _mm256_mul_ps(
            _mm256_mul_ps(j, _mm256_set1_ps(sigma)),
            _mm256_set1_ps(1.732),
        )
    }
}

/// The AVX-512 candidate-scores leaf: sixteen dots converted and
/// scaled at once, the jitter of sixteen ids as two halves of eight u64
/// lanes, and the margin test as two f64 compares.
///
/// # Safety
/// Caller must have verified `avx512dq` at runtime, and `n ≤ GROUP`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512dq")]
unsafe fn score_avx512(
    cands: &Cands,
    n: usize,
    p: ScoreParams,
    margin: f64,
    scores: &mut [f32; GROUP],
) -> u32 {
    use std::arch::x86_64::*;
    // SAFETY: the loads read the first GROUP lanes of 2·GROUP-lane
    // arrays and the store writes GROUP f32 lanes; AVX-512DQ (and the
    // AVX-512F it implies) is enabled.
    unsafe {
        let d = _mm512_loadu_si512(cands.dots.as_ptr() as *const __m512i);
        let a = _mm512_mul_ps(_mm512_cvtepi32_ps(d), _mm512_set1_ps(p.factor));
        let s = if p.sigma > 0.0 {
            let ids = _mm512_loadu_si512(cands.ids.as_ptr() as *const __m512i);
            let lo = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(ids));
            let hi = _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64::<1>(ids));
            let j = _mm512_insertf32x8::<1>(
                _mm512_castps256_ps512(jitter8_avx512(lo, p.salt, p.sigma)),
                jitter8_avx512(hi, p.salt, p.sigma),
            );
            _mm512_add_ps(a, j)
        } else {
            a
        };
        _mm512_storeu_ps(scores.as_mut_ptr(), s);
        let m = _mm512_set1_pd(margin);
        let lo = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(_mm512_cvtps_pd(_mm512_castps512_ps256(s)), m);
        let hi =
            _mm512_cmp_pd_mask::<_CMP_GE_OQ>(_mm512_cvtps_pd(_mm512_extractf32x8_ps::<1>(s)), m);
        (u32::from(lo) | u32::from(hi) << 8) & ((1u32 << n) - 1)
    }
}

/// `v.round().clamp(-127.0, 127.0) as i8` (half away from zero; NaN
/// gives 0) without the libm call that keeps `round` from vectorizing:
/// `v` clamped to ±127 (rounding commutes with that clamp, whose ends
/// are integers), truncated toward zero, plus one step away from zero
/// when the dropped fraction is at least one half. The fraction
/// `v − trunc(v)` is exact in f32 at these magnitudes.
#[inline(always)]
fn round_to_i8(v: f32) -> i8 {
    let v = if v.is_nan() {
        0.0
    } else {
        v.clamp(-127.0, 127.0)
    };
    // SAFETY: `v` is finite and within ±127, so its truncation is an
    // i32; the checked `as` conversion would handle NaN and overflow
    // lane by lane and keep the loop from vectorizing.
    let t: i32 = unsafe { v.to_int_unchecked() };
    let f = v - t as f32;
    (t + i32::from(f >= 0.5) - i32::from(f <= -0.5)) as i8
}

/// Quantize one row against `scale` into `q` (its length: `q[i] =
/// round(row[i]/scale)` clamped to ±127, all 0 at scale 0) and return
/// `(‖x‖², ‖x − x̂‖²)` in f64 with `x̂ = scale·q`. The sums run in four
/// lanes (component `i` in lane `i % 4`) added pairwise at the end, so
/// they are a pure function of the row however the loops vectorize.
fn quantize_row(row: &[f32], scale: f32, q: &mut [i8]) -> (f64, f64) {
    if scale == 0.0 {
        q.fill(0);
    } else {
        for (b, &x) in q.iter_mut().zip(row) {
            *b = round_to_i8(x / scale);
        }
    }
    let mut norm = [0.0f64; CHUNK_DIMS];
    let mut resid = [0.0f64; CHUNK_DIMS];
    let mut add = |j: usize, x: f32, b: i8| {
        let x = x as f64;
        let e = x - b as f64 * scale as f64;
        norm[j] += x * x;
        resid[j] += e * e;
    };
    let (xs, bs) = (row.chunks_exact(CHUNK_DIMS), q.chunks_exact(CHUNK_DIMS));
    let (x_tail, b_tail) = (xs.remainder(), bs.remainder());
    for (x, b) in xs.zip(bs) {
        for j in 0..CHUNK_DIMS {
            add(j, x[j], b[j]);
        }
    }
    for (j, (&x, &b)) in x_tail.iter().zip(b_tail).enumerate() {
        add(j, x, b);
    }
    (
        (norm[0] + norm[2]) + (norm[1] + norm[3]),
        (resid[0] + resid[2]) + (resid[1] + resid[3]),
    )
}

/// Largest absolute component of a slice, in eight independent lanes
/// (the maximum is exact, so the lane split cannot change it).
fn max_abs(v: &[f32]) -> f32 {
    let mut m = [0.0f32; 8];
    let split = v.len() - v.len() % m.len();
    for c in v[..split].chunks_exact(m.len()) {
        for (m, &x) in m.iter_mut().zip(c) {
            *m = m.max(x.abs());
        }
    }
    for &x in &v[split..] {
        m[0] = m[0].max(x.abs());
    }
    m.iter().fold(0.0f32, |a, &b| a.max(b))
}

/// One segment's int8 shadow ([`quantize_block`]): the bytes in the
/// block layout (module docs), and the three scalars the error bound
/// reads.
#[derive(Debug, Clone)]
pub struct QuantBlock {
    /// The rows quantized, in groups of 16 rows of 64-byte chunks, zero
    /// bytes past `dim` and past the last row.
    pub bytes: Vec<i8>,
    /// The symmetric scale `max |x| / 127` every row was quantized
    /// against.
    pub scale: f32,
    /// The largest row L2 norm `M`.
    pub max_norm: f32,
    /// The largest row residual `R = ‖y − ŷ‖` (`ŷ = scale·q`).
    pub max_resid: f32,
}

/// Quantize a row-major f32 block (`rows × dim`) against its own
/// symmetric scale, in one pass over the rows: each row is rounded into
/// a one-row buffer, its norm and residual summed as it goes, and its
/// 4-byte chunks copied into its group of the block layout — there is
/// no row-major copy of the block. One call per segment builds that
/// segment's quant shadow.
pub fn quantize_block(dim: usize, rows: usize, data: &[f32]) -> QuantBlock {
    assert!(dim > 0 && data.len() == rows * dim, "a rows × dim block");
    let scale = max_abs(data) / 127.0;
    let group = group_bytes(dim);
    let mut bytes = vec![0i8; rows.div_ceil(GROUP) * group];
    // One row's bytes, zero-padded to whole chunks, on their way to the
    // row's 4-byte slots in its group's chunks.
    let mut row_bytes = vec![0i8; chunks(dim) * CHUNK_DIMS];
    let (mut max_norm, mut max_resid) = (0.0f64, 0.0f64);
    for (r, row) in data.chunks_exact(dim).enumerate() {
        let (norm, resid) = quantize_row(row, scale, &mut row_bytes[..dim]);
        max_norm = max_norm.max(norm);
        max_resid = max_resid.max(resid);
        let at = r / GROUP * group + r % GROUP * CHUNK_DIMS;
        let slots = bytes[at..].chunks_mut(CHUNK_BYTES);
        for (slot, quad) in slots.zip(row_bytes.chunks_exact(CHUNK_DIMS)) {
            slot[..CHUNK_DIMS].copy_from_slice(quad);
        }
    }
    QuantBlock {
        bytes,
        scale,
        max_norm: max_norm.sqrt() as f32,
        max_resid: max_resid.sqrt() as f32,
    }
}

/// A query quantized for screening: its int8 row, its own symmetric
/// scale, and the three norms of the error bound, in f64 from that row.
#[derive(Debug, Clone)]
pub struct QuantQuery {
    q: Vec<i8>,
    scale: f32,
    norm: f64,
    resid: f64,
    hat_norm: f64,
}

impl QuantQuery {
    /// Quantize a query vector with its own per-query symmetric scale.
    pub fn new(query: &[f32]) -> Self {
        let scale = max_abs(query) / 127.0;
        let mut q = vec![0i8; query.len()];
        let (norm, resid) = quantize_row(query, scale, &mut q);
        let squares: i64 = q.iter().map(|&x| x as i64 * x as i64).sum();
        Self {
            q,
            scale,
            norm: norm.sqrt(),
            resid: resid.sqrt(),
            hat_norm: scale as f64 * (squares as f64).sqrt(),
        }
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

    /// The query's L2 norm `‖x‖`.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm
    }

    /// The query's quantization residual `‖x − x̂‖` (`x̂ = scale·q`).
    #[inline]
    pub fn resid(&self) -> f64 {
        self.resid
    }

    /// The norm of the dequantized query, `‖x̂‖`.
    #[inline]
    pub fn hat_norm(&self) -> f64 {
        self.hat_norm
    }
}

/// The padded per-pair quantization-error bound of `query` against any
/// row of `block`: `(‖x − x̂‖·M + ‖x̂‖·R + γ·‖x‖·M)·(1 + 10⁻³) + 10⁻⁴`
/// with the f32 rounding allowance `γ = (⌈dim/8⌉ + 6)·2⁻²³`
/// (derivation in the module docs). Padding widens the rerank margin;
/// it can never exclude a document the exact scan would keep.
pub fn pair_error_bound(query: &QuantQuery, block: &QuantBlock) -> f64 {
    let (m, r) = (block.max_norm as f64, block.max_resid as f64);
    let gamma = (query.q.len().div_ceil(8) + 6) as f64 / (1u64 << 23) as f64;
    let raw = query.resid * m + query.hat_norm * r + gamma * query.norm * m;
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
    use kgstore::rng::{check, StdRng};

    /// Naive i32 dot of two int8 rows.
    fn naive_dot(a: &[i8], b: &[i8]) -> i32 {
        a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
    }

    /// Where component `i` of row `r` lives in the block layout at
    /// `dim`: the test's own statement of the layout.
    fn block_index(dim: usize, r: usize, i: usize) -> usize {
        r / GROUP * group_bytes(dim) + i / 4 * 64 + r % GROUP * 4 + i % 4
    }

    /// Row-major int8 rows re-laid out in the block layout, zero bytes
    /// everywhere else.
    fn lay_out(rows: &[i8], dim: usize) -> Vec<i8> {
        let n = rows.len() / dim;
        let mut out = vec![0i8; n.div_ceil(GROUP) * group_bytes(dim)];
        for (r, row) in rows.chunks_exact(dim).enumerate() {
            for (i, &x) in row.iter().enumerate() {
                out[block_index(dim, r, i)] = x;
            }
        }
        out
    }

    /// The naive i32 dot of `q` with row `r` of a block-layout shadow.
    fn naive_block_dot(q: &[i8], block: &[i8], dim: usize, r: usize) -> i32 {
        (0..dim)
            .map(|i| q[i] as i32 * block[block_index(dim, r, i)] as i32)
            .sum()
    }

    /// Every query of `queries` against the `n` rows of the block-layout
    /// shadow `block` through `kernel`'s group leaf, group by group,
    /// with `thresholds` per query; each query's candidates drained
    /// after every group. Returns each query's (id, dot) pairs in the
    /// order the leaf appended them.
    fn screen_all(
        kernel: Kernel,
        queries: &[Vec<i8>],
        block: &[i8],
        n: usize,
        dim: usize,
        thresholds: &[i32],
    ) -> Vec<Vec<(usize, i32)>> {
        let rows: Vec<&[i8]> = queries.iter().map(|q| q.as_slice()).collect();
        let screen = Screen::new(kernel, &rows, dim);
        let mut cands = vec![Cands::default(); queries.len()];
        let mut out = vec![Vec::new(); queries.len()];
        for (g, group) in block.chunks_exact(group_bytes(dim)).enumerate() {
            let n_rows = (n - g * GROUP).min(GROUP);
            screen.group(group, n_rows, (g * GROUP) as u32, thresholds, &mut cands);
            for (c, o) in cands.iter_mut().zip(&mut out) {
                o.extend((0..c.len()).map(|j| (c.id(j), c.dots[j])));
                c.consume(c.len());
            }
        }
        out
    }

    /// A byte in ±127, the quantizer's range.
    fn byte(rng: &mut StdRng) -> i8 {
        (rng.random_range(0..255) as i32 - 127) as i8
    }

    #[test]
    fn group_dots_match_a_naive_loop_over_the_block_layout_in_every_leaf() {
        // Every leaf this host supports, called directly, against a
        // naive loop over the block layout: dims that fill the last
        // 4-byte chunk and dims that leave one to three zero bytes in
        // it, 0–17 rows (no group, every partial group, one full group
        // and one row past it) and 50 rows (several groups, a partial
        // last one), at widths 0–17 (full AVX-512 tiles of eight and
        // AVX2 tiles of four plus every remainder). Query 0 and row 0
        // are all +127, query 1 and row 1 all −127, so the extreme sums
        // ±127²·dim are in every output; the other bytes span ±127.
        // With the threshold at i32::MIN every live pair is appended, in
        // row order, and a lane of a row past the end would show up.
        for dim in [1usize, 3, 4, 7, 33, 64, 65, 100, 256] {
            for n in (0..=17).chain([50]) {
                let mut rows: Vec<i8> = (0..n * dim)
                    .map(|i| (((i * 37 + 11) % 255) as i32 - 127) as i8)
                    .collect();
                if n >= 2 {
                    rows[..dim].fill(127);
                    rows[dim..2 * dim].fill(-127);
                }
                let block = lay_out(&rows, dim);
                let queries: Vec<Vec<i8>> = (0..17)
                    .map(|q| match q {
                        0 => vec![127; dim],
                        1 => vec![-127; dim],
                        _ => (0..dim)
                            .map(|i| (((i * 91 + q * 13) % 255) as i32 - 127) as i8)
                            .collect(),
                    })
                    .collect();
                let naive: Vec<Vec<(usize, i32)>> = queries
                    .iter()
                    .map(|q| {
                        (0..n)
                            .map(|r| (r, naive_block_dot(q, &block, dim, r)))
                            .collect()
                    })
                    .collect();
                if n >= 2 {
                    assert_eq!(naive[0][1].1, -127 * 127 * dim as i32);
                    assert_eq!(naive[1][1].1, 127 * 127 * dim as i32);
                }
                for width in 0usize..=17 {
                    let thresholds = vec![i32::MIN; width];
                    for kernel in Kernel::supported() {
                        let got =
                            screen_all(kernel, &queries[..width], &block, n, dim, &thresholds);
                        assert_eq!(
                            got,
                            naive[..width],
                            "{} dim {dim} rows {n} width {width}",
                            kernel.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn group_leaves_append_exactly_the_pairs_at_or_above_the_threshold() {
        // Random rows, queries and thresholds (drawn from the dots
        // themselves, so ties land on the threshold): every leaf appends
        // the pairs with dot ≥ t, in id order, with their dots.
        check(64, 0x6_0075, |rng| {
            let dim = rng.random_range(1..140);
            let n = rng.random_range(1..60);
            let width = rng.random_range(1..19);
            let rows: Vec<i8> = (0..n * dim).map(|_| byte(rng)).collect();
            let queries: Vec<Vec<i8>> = (0..width)
                .map(|_| (0..dim).map(|_| byte(rng)).collect())
                .collect();
            let thresholds: Vec<i32> = queries
                .iter()
                .map(|q| {
                    let r = rng.random_range(0..n);
                    naive_dot(q, &rows[r * dim..(r + 1) * dim])
                })
                .collect();
            let want: Vec<Vec<(usize, i32)>> = queries
                .iter()
                .zip(&thresholds)
                .map(|(q, &t)| {
                    rows.chunks_exact(dim)
                        .map(|row| naive_dot(q, row))
                        .enumerate()
                        .filter(|&(_, d)| d >= t)
                        .collect()
                })
                .collect();
            let block = lay_out(&rows, dim);
            for kernel in Kernel::supported() {
                let got = screen_all(kernel, &queries, &block, n, dim, &thresholds);
                assert_eq!(got, want, "{} dim {dim} rows {n}", kernel.name());
            }
        });
    }

    #[test]
    fn dot_i8_extremes_do_not_overflow() {
        let dim = 4096;
        let queries = [vec![127i8; dim]];
        let block = lay_out(&vec![-127i8; 3 * dim], dim);
        for kernel in Kernel::supported() {
            let got = screen_all(kernel, &queries, &block, 3, dim, &[i32::MIN]);
            let d = -127 * 127 * dim as i32;
            assert_eq!(got, [[(0, d), (1, d), (2, d)]], "{}", kernel.name());
        }
    }

    #[test]
    fn candidate_scores_equal_the_scalar_expression_bit_for_bit() {
        // Every scoring leaf the host supports against the scalar
        // `fl(d)·factor + jitter(salt, id, σ)` (no jitter at σ = 0), for
        // partial and full batches, random salts and ids up to u32::MAX,
        // and dots across the full ±127²·256 range; the returned mask
        // is the f64 margin test of those scores, at a −∞ margin (every
        // lane scored) and at one lane's score.
        let sigmas = [0.0f32, 1e-6, 0.3, 0.6, 7.5];
        check(200, 0x5C0_4E5, |rng| {
            let mut cands = Cands::default();
            let n = rng.random_range(1..GROUP + 1);
            let lim = dot_limit(256) as usize;
            for j in 0..n {
                cands.ids[j] = match rng.random_range(0..3) {
                    0 => u32::MAX - rng.random_range(0..4) as u32,
                    _ => rng.next_u32(),
                };
                cands.dots[j] = rng.random_range(0..2 * lim + 1) as i32 - lim as i32;
            }
            cands.len = n;
            let sigma = sigmas[rng.random_range(0..sigmas.len())];
            let p = ScoreParams {
                factor: (rng.random_f64() * 1e-4) as f32,
                salt: rng.next_u64(),
                sigma,
                jmax: crate::index::jitter_max(sigma),
            };
            let ScoreParams { factor, salt, .. } = p;
            let want: Vec<f32> = (0..n)
                .map(|j| {
                    let a = cands.dots[j] as f32 * factor;
                    if sigma > 0.0 {
                        a + jitter(salt, cands.ids[j] as usize, sigma)
                    } else {
                        a
                    }
                })
                .collect();
            let bits = |v: &[f32]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            let margin = want[rng.random_range(0..n)] as f64;
            let want_mask = want
                .iter()
                .enumerate()
                .fold(0u32, |m, (j, &s)| m | u32::from(s as f64 >= margin) << j);
            for kernel in Kernel::supported() {
                let at = format!("{} sigma {sigma}", kernel.name());
                // At a −∞ margin every lane is scored and passes.
                let mut scores = [0f32; GROUP];
                let all = score_candidates(kernel, &cands, n, p, f64::NEG_INFINITY, &mut scores);
                assert_eq!(bits(&scores[..n]), bits(&want), "{at}");
                assert_eq!(all, (1u32 << n) - 1, "{at}");
                // At a finite margin, the mask is the f64 test of those
                // scores, and every lane in it carries its score.
                let mut scores = [0f32; GROUP];
                let mask = score_candidates(kernel, &cands, n, p, margin, &mut scores);
                assert_eq!(mask, want_mask, "{at}");
                for j in (0..n).filter(|&j| mask >> j & 1 == 1) {
                    assert_eq!(scores[j].to_bits(), want[j].to_bits(), "{at} lane {j}");
                }
            }
        });
    }

    #[test]
    fn pre_threshold_is_the_least_passing_dot() {
        // t passes and t − 1 fails, each by direct evaluation of the
        // pre-test, over random factors, jitter maxima, margins and
        // dims; a −∞ margin, factor 0 and margins out of every dot's
        // reach take their documented values.
        let holds = |factor: f32, jmax: f32, margin: f64, dim: usize| {
            let t = pre_threshold(factor, jmax, margin, dim);
            let lim = dot_limit(dim);
            let at = format!("factor {factor} jmax {jmax} margin {margin} dim {dim}: t {t}");
            if margin == f64::NEG_INFINITY {
                assert_eq!(t, i32::MIN, "{at}");
            } else if t == i32::MAX {
                assert!(!pre_test(lim, factor, jmax, margin), "{at}");
            } else {
                assert!((-lim..=lim).contains(&(t as i64)), "{at}");
                assert!(pre_test(t as i64, factor, jmax, margin), "{at}");
                assert!(
                    t as i64 == -lim || !pre_test(t as i64 - 1, factor, jmax, margin),
                    "{at}"
                );
            }
        };
        for dim in [1usize, 7, 256] {
            for jmax in [0.0f32, 0.5196] {
                holds(1e-5, jmax, f64::NEG_INFINITY, dim);
                holds(0.0, jmax, f64::NEG_INFINITY, dim);
                holds(0.0, jmax, -0.1, dim);
                holds(0.0, jmax, 0.0, dim);
                holds(0.0, jmax, 0.6, dim);
                holds(1e-5, jmax, 1e9, dim);
                holds(1e-5, jmax, -1e9, dim);
                holds(f32::MIN_POSITIVE, jmax, 0.25, dim);
            }
        }
        assert_eq!(pre_threshold(0.0, 0.3, 0.6, 256), i32::MAX);
        assert_eq!(pre_threshold(0.0, 0.3, 0.2, 256), -(127 * 127 * 256));
        assert_eq!(pre_threshold(1e-5, 0.0, 1e9, 256), i32::MAX);
        check(2000, 0x7_4E54, |rng| {
            let dim = [1usize, 7, 64, 256][rng.random_range(0..4)];
            let factor = match rng.random_range(0..4) {
                0 => 0.0,
                1 => (rng.random_f64() * 1e-7) as f32,
                _ => (rng.random_f64() * 1e-4) as f32,
            };
            let jmax = [0.0f32, 1e-6 * 1.732, 0.3 * 1.732, 7.5 * 1.732][rng.random_range(0..4)];
            let reach = factor as f64 * dot_limit(dim) as f64 + jmax as f64;
            let margin = (rng.random_f64() * 2.4 - 1.2) * reach.max(1e-3);
            holds(factor, jmax, margin, dim);
            // A margin on a representable pre-test value: t lands on a
            // plateau edge.
            let d = rng.random_range(0..2 * dot_limit(dim) as usize + 1) as i64 - dot_limit(dim);
            holds(factor, jmax, (d as f32 * factor + jmax) as f64, dim);
        });
    }

    #[test]
    fn screen_kernel_names_the_dispatched_leaf() {
        assert_eq!(screen_kernel(), Kernel::detect().name());
        assert!(Kernel::supported().contains(&Kernel::detect()));
    }

    /// Row-major `rows × dim` test block, element `i` = `f(i)`.
    fn block(rows: usize, dim: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..rows * dim).map(f).collect()
    }

    #[test]
    fn truncate_and_compare_rounding_equals_round() {
        // Every half-integer in and past ±127 and its f32 neighbours,
        // the integers themselves, random values over the quantizer's
        // range and beyond it, signed zeros, NaN and the infinities.
        let reference = |v: f32| v.round().clamp(-127.0, 127.0) as i8;
        let mut values = vec![0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for k in -140i32..=140 {
            for v in [k as f32, k as f32 + 0.5] {
                values.extend([v, v.next_up(), v.next_down()]);
            }
        }
        let rng = &mut StdRng::seed_from_u64(0x20_0D);
        values.extend((0..200_000).map(|_| (rng.random_f64() * 300.0 - 150.0) as f32));
        for v in values {
            assert_eq!(round_to_i8(v), reference(v), "v = {v:e}");
        }
    }

    #[test]
    fn quantized_block_is_the_row_major_quantization_re_laid_out() {
        // Partial and whole groups, dims with and without a partial
        // chunk: the bytes are round(x/s) clamped to ±127 re-laid out
        // (zero bytes elsewhere), and the norms are the rows' own.
        for (rows, dim) in [
            (1usize, 1usize),
            (15, 3),
            (16, 4),
            (17, 7),
            (40, 33),
            (33, 256),
        ] {
            let data = block(rows, dim, |i| {
                ((i as f32) * 0.37).sin() * (1 + i % 5) as f32
            });
            let qb = quantize_block(dim, rows, &data);
            assert_eq!(
                qb.scale,
                data.iter().fold(0.0f32, |m, x| m.max(x.abs())) / 127.0
            );
            let row_major: Vec<i8> = data
                .iter()
                .map(|&x| (x / qb.scale).round().clamp(-127.0, 127.0) as i8)
                .collect();
            assert_eq!(qb.bytes, lay_out(&row_major, dim), "rows {rows} dim {dim}");
            let norm = |r: usize, f: &dyn Fn(usize) -> f64| -> f64 {
                (0..dim).map(|i| f(r * dim + i).powi(2)).sum::<f64>().sqrt()
            };
            let s = qb.scale as f64;
            let max_norm = (0..rows)
                .map(|r| norm(r, &|i| data[i] as f64))
                .fold(0.0, f64::max);
            let max_resid = (0..rows)
                .map(|r| norm(r, &|i| data[i] as f64 - row_major[i] as f64 * s))
                .fold(0.0, f64::max);
            for (got, want) in [(qb.max_norm, max_norm), (qb.max_resid, max_resid)] {
                assert!((got as f64 - want).abs() <= want * 1e-6, "{got} vs {want}");
            }
            assert!(qb.max_resid as f64 <= (s / 2.0) * (dim as f64).sqrt() * 1.0001);
        }
    }

    #[test]
    fn zero_corpus_quantizes_to_zero() {
        let qb = quantize_block(3, 2, &[0.0f32; 6]);
        assert_eq!((qb.scale, qb.max_norm, qb.max_resid), (0.0, 0.0, 0.0));
        assert_eq!(qb.bytes, vec![0i8; group_bytes(3)]);
        let qq = QuantQuery::new(&[0.0; 3]);
        assert_eq!((qq.norm(), qq.resid(), qq.hat_norm()), (0.0, 0.0, 0.0));
        for kernel in Kernel::supported() {
            let got = screen_all(kernel, &[qq.row().to_vec()], &qb.bytes, 2, 3, &[i32::MIN]);
            assert_eq!(got, [[(0, 0), (1, 0)]], "{}", kernel.name());
        }
        // Only the absolute padding is left.
        assert_eq!(pair_error_bound(&qq, &qb), 1e-4);
    }

    #[test]
    fn query_norms_are_those_of_its_int8_row() {
        let query: Vec<f32> = (0..37).map(|i| (i as f32 * 1.3).cos() * 0.2).collect();
        let qq = QuantQuery::new(&query);
        let s = qq.scale() as f64;
        let hat: Vec<f64> = qq.row().iter().map(|&q| q as f64 * s).collect();
        let l2 = |v: &mut dyn Iterator<Item = f64>| v.map(|x| x * x).sum::<f64>().sqrt();
        let close = |a: f64, b: f64| (a - b).abs() <= b * 1e-12;
        assert!(close(qq.norm(), l2(&mut query.iter().map(|&x| x as f64))));
        assert!(close(qq.hat_norm(), l2(&mut hat.iter().copied())));
        let resid = l2(&mut query.iter().zip(&hat).map(|(&x, &h)| x as f64 - h));
        assert!(close(qq.resid(), resid));
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
        let qb = quantize_block(dim, rows, &data);
        for (probe, query) in data.chunks_exact(dim).enumerate() {
            let qq = QuantQuery::new(query);
            let bound = pair_error_bound(&qq, &qb);
            let factor = qq.scale() * qb.scale;
            for (id, row) in data.chunks_exact(dim).enumerate() {
                let exact = crate::embed::dot(query, row) as f64;
                let d = naive_block_dot(qq.row(), &qb.bytes, dim, id);
                let approx = (d as f32 * factor) as f64;
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
