//! Int8 scalar quantization and the two leaves of the batched screen.
//!
//! The scoring hot loop of retrieval is a dot product per (query,
//! document) pair. Each segment of [`crate::SegmentedIndex`] keeps,
//! next to its flat f32 rows, a flat `Vec<i8>` holding the same rows
//! symmetrically quantized against the segment's own scale
//! ([`quantize_block`]), so the screening pass reads one byte per
//! component. The scan walks each segment in groups of sixteen rows
//! and calls two runtime-dispatched leaves ([`screen_kernel`] names the
//! family this host runs):
//!
//! * **Group dots** (`Screen::group`): every query of the batch against
//!   the group's rows, each exact integer dot compared with the query's
//!   integer pre-threshold (`pre_threshold`), and the (id, dot) of every
//!   pair at or above it appended to the query's candidate buffer
//!   (`Cands`). The AVX-512 VNNI body accumulates sixteen rows at once
//!   with `vpdpbusd` and reduces them with one transpose-add tree into
//!   a zmm of sixteen dots; the AVX2 body is a register tile of one to
//!   four queries; the portable body runs `dot_i8_body` per pair.
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

use crate::index::jitter;

/// How many i32 accumulator lanes the integer kernel carries. Sixteen
/// independent sums of i16 products autovectorize to widening
/// multiply-add on any SIMD target; any i8·i8 product fits i16
/// (|−128·−128| = 16384 < 2¹⁵) and an i32 lane overflows only past
/// ~10⁶ dimensions — far beyond any embedding here.
const I8_LANES: usize = 16;

/// The integer dot of one query row and one document row: the
/// per-pair body of the portable group leaf. Any i8·i8 product fits
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

/// Rows per screening group: the AVX-512 leaf reduces sixteen row
/// accumulators into one zmm of sixteen i32 dots, and candidates are
/// scored sixteen at a time.
pub(crate) const GROUP: usize = 16;

/// The leaf family a screen dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// AVX-512 VNNI group dots and AVX-512 candidate scores
    /// (`avx512bw`, `avx512dq` and `avx512vnni`).
    Avx512Vnni,
    /// The AVX2 register tile for group dots; scalar candidate scores.
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

/// How many queries one register tile of the AVX2 group leaf carries
/// at most. Four ymm accumulators (one per query) plus the two widened
/// halves of the shared row load and a pmaddwd temporary stay
/// comfortably inside the sixteen AVX2 vector registers, so each row
/// chunk is multiplied into four queries before it leaves them.
#[cfg(target_arch = "x86_64")]
const QUERY_TILE: usize = 4;

/// Width of the explicit AVX2 inner step: one 256-bit row load, widened
/// to two ymm of i16 lanes for the pmaddwd multiply-adds.
#[cfg(target_arch = "x86_64")]
const AVX2_CHUNK: usize = 32;

/// The queries of one batched screen, prepared once per scan for the
/// leaf family it dispatches to.
pub(crate) struct Screen<'a> {
    kernel: Kernel,
    dim: usize,
    queries: Vec<&'a [i8]>,
    /// AVX2: every query's first `dim − dim % 32` elements
    /// sign-extended to i16, query after query.
    wide: Vec<i16>,
    /// AVX-512: every query's `128·Σq`, the offset its unsigned-row
    /// dots carry.
    bias: Vec<i32>,
}

impl<'a> Screen<'a> {
    /// Prepare `queries` (each `dim` long) for `kernel`'s group leaf.
    pub(crate) fn new(kernel: Kernel, queries: Vec<&'a [i8]>, dim: usize) -> Self {
        assert!(dim > 0, "rows need at least one component");
        assert!(
            dot_limit(dim) < i32::MAX as i64,
            "dim {dim} overflows the i32 dots"
        );
        for q in &queries {
            assert_eq!(q.len(), dim, "dimension mismatch");
        }
        let mut wide = Vec::new();
        let mut bias = Vec::new();
        match kernel {
            Kernel::Avx512Vnni => {
                bias = queries
                    .iter()
                    .map(|q| q.iter().map(|&x| x as i32).sum::<i32>().wrapping_mul(128))
                    .collect();
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => {
                let split = dim - dim % AVX2_CHUNK;
                wide.reserve(queries.len() * split);
                for q in &queries {
                    wide.extend(q[..split].iter().map(|&x| x as i16));
                }
            }
            _ => {}
        }
        Self {
            kernel,
            dim,
            queries,
            wide,
            bias,
        }
    }

    /// Group dots: every query against `rows` (one to [`GROUP`] rows of
    /// the segment's int8 shadow, the first with global id `base`), and
    /// for query `q` the (id, dot) of every row whose dot is at least
    /// `thresholds[q]` appended to `cands[q]` in row order. Every
    /// `cands[q]` must hold at most [`GROUP`] candidates.
    pub(crate) fn group(&self, rows: &[i8], base: u32, thresholds: &[i32], cands: &mut [Cands]) {
        let n = self.queries.len();
        assert!(thresholds.len() == n && cands.len() == n);
        // Every group but a segment's last is full: no division there.
        let n_rows = if rows.len() == GROUP * self.dim {
            GROUP
        } else {
            rows.len() / self.dim
        };
        assert!(n_rows <= GROUP && n_rows * self.dim == rows.len());
        assert!(
            cands.iter().all(|c| c.len <= GROUP),
            "drain before appending"
        );
        if n_rows == 0 || n == 0 {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if self.kernel == Kernel::Avx512Vnni
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512vnni")
            {
                // SAFETY: both features were just verified at runtime;
                // the asserts above give every `cands[q]` room for
                // GROUP more entries and one to GROUP whole rows.
                unsafe { self.group_avx512(rows, n_rows, base, thresholds, cands) };
                return;
            }
            if self.kernel == Kernel::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the avx2 feature was just verified at runtime.
                unsafe { self.group_avx2(rows, n_rows, base, thresholds, cands) };
                return;
            }
        }
        self.group_portable(rows, n_rows, base, thresholds, cands);
    }

    /// The portable group leaf: [`dot_i8_body`] per pair.
    fn group_portable(
        &self,
        rows: &[i8],
        n_rows: usize,
        base: u32,
        thresholds: &[i32],
        cands: &mut [Cands],
    ) {
        let mut dots = [0i32; GROUP];
        for ((q, &t), c) in self.queries.iter().zip(thresholds).zip(cands) {
            for (r, d) in dots[..n_rows].iter_mut().enumerate() {
                *d = dot_i8_body(q, &rows[r * self.dim..(r + 1) * self.dim]);
            }
            c.append_passing(&dots[..n_rows], base, t);
        }
    }

    /// The AVX2 group leaf: the queries in full register tiles of
    /// [`QUERY_TILE`] and one narrower tile for the 1–3 left over, all
    /// through [`dot_i8_tile_avx2`], each query's dots then compared
    /// with its threshold lane by lane.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn group_avx2(
        &self,
        rows: &[i8],
        n_rows: usize,
        base: u32,
        thresholds: &[i32],
        cands: &mut [Cands],
    ) {
        let dim = self.dim;
        let split = dim - dim % AVX2_CHUNK;
        let mut dots = [[0i32; GROUP]; QUERY_TILE];
        let mut g = 0;
        while g < self.queries.len() {
            let t = (self.queries.len() - g).min(QUERY_TILE);
            let w = &self.wide[g * split..(g + t) * split];
            let qs = &self.queries[g..g + t];
            // SAFETY: AVX2 verified by the dispatcher; split is a
            // multiple of AVX2_CHUNK no longer than dim, and `rows`
            // holds at most GROUP rows.
            unsafe {
                match t {
                    1 => dot_i8_tile_avx2::<1>(w, qs, rows, dim, split, &mut dots),
                    2 => dot_i8_tile_avx2::<2>(w, qs, rows, dim, split, &mut dots),
                    3 => dot_i8_tile_avx2::<3>(w, qs, rows, dim, split, &mut dots),
                    _ => dot_i8_tile_avx2::<QUERY_TILE>(w, qs, rows, dim, split, &mut dots),
                }
            }
            for (i, d) in dots[..t].iter().enumerate() {
                cands[g + i].append_passing(&d[..n_rows], base, thresholds[g + i]);
            }
            g += t;
        }
    }

    /// The AVX-512 VNNI group leaf, one query at a time against all
    /// rows of the group. Each row's 64-byte chunks run `vpdpbusd` with
    /// the row flipped to unsigned (`r ^ 0x80`, that is `r + 128`) and
    /// the query as the signed operand, so a row's accumulator sums to
    /// `Σ r·q + 128·Σq`; the sixteen accumulators are reduced by
    /// [`reduce16_avx512`] into one zmm of dots and the query's
    /// `128·Σq` subtracted. `dim % 64` is covered by masked loads (zero
    /// bytes contribute `128·0`), and the lanes of a last group of fewer
    /// than sixteen rows re-read its first row and are masked out, so
    /// no byte beyond `rows` is read. The lanes at or above the query's
    /// threshold are compressed into its candidate buffer. All integer
    /// arithmetic, so each dot equals the naive i32 loop's.
    ///
    /// # Safety
    /// Caller must have verified `avx512bw` and `avx512vnni` at runtime,
    /// `rows` must hold `n_rows` (one to [`GROUP`]) whole rows, and every
    /// `cands[q]` at most [`GROUP`] candidates.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512bw,avx512vnni")]
    unsafe fn group_avx512(
        &self,
        rows: &[i8],
        n_rows: usize,
        base: u32,
        thresholds: &[i32],
        cands: &mut [Cands],
    ) {
        use std::arch::x86_64::*;
        let dim = self.dim;
        let lanes = ((1u32 << n_rows) - 1) as __mmask16;
        let row0 = rows.as_ptr();
        let starts: [*const i8; GROUP] = std::array::from_fn(|r| {
            if r < n_rows {
                // SAFETY: row r < n_rows starts inside `rows`.
                unsafe { row0.add(r * dim) }
            } else {
                row0
            }
        });
        let full = dim / 64;
        let tail = (1u64 << (dim % 64)) - 1;
        let flip = _mm512_set1_epi8(i8::MIN);
        let ids = _mm512_add_epi32(
            _mm512_set1_epi32(base as i32),
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        );
        for (((q, &bias), &t), c) in self
            .queries
            .iter()
            .zip(&self.bias)
            .zip(thresholds)
            .zip(cands.iter_mut())
        {
            let mut acc = [_mm512_setzero_si512(); GROUP];
            // SAFETY: every load reads 64 bytes at chunk offsets below
            // `full·64 ≤ dim` of a query or a row inside `rows`, or is
            // masked to the `dim % 64` bytes left; the stores write 16
            // lanes at `c.len ≤ GROUP` of 2·GROUP-lane arrays.
            unsafe {
                for ch in 0..full {
                    let off = ch * 64;
                    let qv = _mm512_loadu_si512(q.as_ptr().add(off) as *const __m512i);
                    for (a, &p) in acc.iter_mut().zip(&starts) {
                        let rv = _mm512_loadu_si512(p.add(off) as *const __m512i);
                        *a = _mm512_dpbusd_epi32(*a, _mm512_xor_si512(rv, flip), qv);
                    }
                }
                if tail != 0 {
                    let off = full * 64;
                    let qv = _mm512_maskz_loadu_epi8(tail, q.as_ptr().add(off));
                    for (a, &p) in acc.iter_mut().zip(&starts) {
                        let rv = _mm512_maskz_loadu_epi8(tail, p.add(off));
                        *a = _mm512_dpbusd_epi32(*a, _mm512_xor_si512(rv, flip), qv);
                    }
                }
                let dots = _mm512_sub_epi32(reduce16_avx512(&acc), _mm512_set1_epi32(bias));
                let pass = _mm512_mask_cmpge_epi32_mask(lanes, dots, _mm512_set1_epi32(t));
                let at = c.len;
                _mm512_storeu_si512(
                    c.ids.as_mut_ptr().add(at) as *mut __m512i,
                    _mm512_maskz_compress_epi32(pass, ids),
                );
                _mm512_storeu_si512(
                    c.dots.as_mut_ptr().add(at) as *mut __m512i,
                    _mm512_maskz_compress_epi32(pass, dots),
                );
                c.len = at + pass.count_ones() as usize;
            }
        }
    }
}

/// The register tile of the AVX2 group leaf: `T` queries (1 to
/// [`QUERY_TILE`]) against every row of one group, row `r`'s dot with
/// query `t` written to `out[t][r]`. `wide` holds the `T` queries'
/// first `split` elements sign-extended to i16, query after query. Each
/// 32-byte row chunk is loaded and sign-extended once, then
/// multiply-added (pmaddwd) into one i32 ymm accumulator per query; the
/// `dim % 32` tail is scalar. Every product and sum is exact integer
/// arithmetic (any i8·i8 pair sum fits i32 with room to spare: two
/// products ≤ 2·2¹⁴ per pmaddwd lane, and a lane accumulates dim/2 of
/// them), so the dots equal [`dot_i8_body`]'s bit for bit at every `T`
/// — only the association of the additions differs, which integers
/// cannot observe.
///
/// # Safety
/// Requires AVX2 (caller dispatches), `split % AVX2_CHUNK == 0`,
/// `split <= dim` and at most [`GROUP`] rows.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn dot_i8_tile_avx2<const T: usize>(
    wide: &[i16],
    queries: &[&[i8]],
    rows: &[i8],
    dim: usize,
    split: usize,
    out: &mut [[i32; GROUP]; QUERY_TILE],
) {
    use std::arch::x86_64::*;
    let w: [&[i16]; T] = std::array::from_fn(|t| &wide[t * split..(t + 1) * split]);
    let qs: [&[i8]; T] = std::array::from_fn(|t| queries[t]);
    for (r, start) in (0..rows.len()).step_by(dim).enumerate() {
        let row = &rows[start..start + dim];
        // SAFETY: guaranteed by this fn's `# Safety` contract — AVX2 is
        // enabled, and `split` is a multiple of AVX2_CHUNK no longer than
        // the row, while every `w[t]` is exactly `split` i16 long, so all
        // 256-bit loads stay in bounds.
        unsafe {
            let mut acc = [_mm256_setzero_si256(); T];
            let mut i = 0;
            while i < split {
                let v = _mm256_loadu_si256(row.as_ptr().add(i) as *const __m256i);
                let rlo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(v));
                let rhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(v));
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
                out[t][r] = sum;
            }
        }
    }
}

/// Sixteen i32 row accumulators reduced to one zmm whose lane `r` is
/// the sum of accumulator `r`'s sixteen lanes: a transpose-add tree of
/// 32-bit and 64-bit unpacks within each 128-bit lane (rows pairwise,
/// then in fours), then two 128-bit shuffle levels (`0x88` takes lanes
/// 0 and 2 of both operands, `0xDD` lanes 1 and 3) that bring each row
/// four's partial sums together — 45 operations for sixteen dots.
///
/// # Safety
/// Requires AVX-512F (caller is an AVX-512 leaf).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn reduce16_avx512(acc: &[std::arch::x86_64::__m512i; GROUP]) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    // SAFETY: AVX-512F is enabled in the calling leaf; register-only
    // arithmetic.
    unsafe {
        // Rows 2i, 2i+1: per 128-bit lane [a0+a2, b0+b2, a1+a3, b1+b3].
        let pair = |a: __m512i, b: __m512i| {
            _mm512_add_epi32(_mm512_unpacklo_epi32(a, b), _mm512_unpackhi_epi32(a, b))
        };
        let p: [__m512i; 8] = std::array::from_fn(|i| pair(acc[2 * i], acc[2 * i + 1]));
        // Rows 4i..4i+3: per 128-bit lane that lane's four-element sum
        // of each row.
        let quad = |a: __m512i, b: __m512i| {
            _mm512_add_epi32(_mm512_unpacklo_epi64(a, b), _mm512_unpackhi_epi64(a, b))
        };
        let q: [__m512i; 4] = std::array::from_fn(|i| quad(p[2 * i], p[2 * i + 1]));
        // Fold the four 128-bit lanes of each row four.
        let fold = |a: __m512i, b: __m512i| {
            _mm512_add_epi32(
                _mm512_shuffle_i32x4::<0x88>(a, b),
                _mm512_shuffle_i32x4::<0xDD>(a, b),
            )
        };
        fold(fold(q[0], q[1]), fold(q[2], q[3]))
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
    use kgstore::rng::{check, StdRng};

    /// Naive i32 dot of two int8 rows: the reference of the kernel
    /// tests.
    fn naive_dot(a: &[i8], b: &[i8]) -> i32 {
        a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
    }

    /// Every query of `queries` against every row of `rows` through
    /// `kernel`'s group leaf, group by group, with `thresholds` per
    /// query; each query's candidates drained after every group. Returns
    /// each query's (id, dot) pairs in the order the leaf appended them.
    fn screen_all(
        kernel: Kernel,
        queries: &[Vec<i8>],
        rows: &[i8],
        dim: usize,
        thresholds: &[i32],
    ) -> Vec<Vec<(usize, i32)>> {
        let screen = Screen::new(kernel, queries.iter().map(|q| q.as_slice()).collect(), dim);
        let mut cands = vec![Cands::default(); queries.len()];
        let mut out = vec![Vec::new(); queries.len()];
        for (g, group) in rows.chunks(GROUP * dim).enumerate() {
            screen.group(group, (g * GROUP) as u32, thresholds, &mut cands);
            for (c, o) in cands.iter_mut().zip(&mut out) {
                o.extend((0..c.len()).map(|j| (c.id(j), c.dots[j])));
                c.consume(c.len());
            }
        }
        out
    }

    #[test]
    fn group_dots_match_naive_loop_in_every_leaf() {
        // Every leaf this host supports, called directly, against a
        // naive loop: dims around the 16-, 32- and 64-byte chunks (the
        // portable body's 16 lanes, the AVX2 and AVX-512 chunks),
        // 0–17 rows (an empty block, every partial group, one full
        // group and one row past it) and 50 rows (several groups), at
        // widths 0–9 (full AVX2 tiles of four plus every remainder).
        // Query 0 and row 0 are all +127, query 1 and row 1 all −127,
        // so the extreme sums ±127²·dim are in every output; the other
        // bytes span −128..=126. With the threshold at i32::MIN every
        // pair is appended, in row order.
        for dim in [1usize, 7, 8, 9, 16, 17, 31, 32, 33, 63, 64, 65, 96, 256] {
            for rows_n in (0..=17).chain([50]) {
                let mut rows: Vec<i8> = (0..rows_n * dim)
                    .map(|i| ((i * 37 + 11) % 255) as i8)
                    .collect();
                if rows_n >= 2 {
                    rows[..dim].fill(127);
                    rows[dim..2 * dim].fill(-127);
                }
                let queries: Vec<Vec<i8>> = (0..9)
                    .map(|q| match q {
                        0 => vec![127; dim],
                        1 => vec![-127; dim],
                        _ => (0..dim).map(|i| ((i * 91 + q * 13) % 255) as i8).collect(),
                    })
                    .collect();
                let naive: Vec<Vec<(usize, i32)>> = queries
                    .iter()
                    .map(|q| {
                        rows.chunks_exact(dim)
                            .map(|row| naive_dot(q, row))
                            .enumerate()
                            .collect()
                    })
                    .collect();
                if rows_n >= 2 {
                    assert_eq!(naive[0][1].1, -127 * 127 * dim as i32);
                }
                for width in 0usize..=9 {
                    let thresholds = vec![i32::MIN; width];
                    for kernel in Kernel::supported() {
                        let got = screen_all(kernel, &queries[..width], &rows, dim, &thresholds);
                        assert_eq!(
                            got,
                            naive[..width],
                            "{} dim {dim} rows {rows_n} width {width}",
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
            let rows_n = rng.random_range(1..60);
            let width = rng.random_range(1..10);
            let byte = |r: &mut StdRng| r.random_range(0..255) as u8 as i8;
            let rows: Vec<i8> = (0..rows_n * dim).map(|_| byte(rng)).collect();
            let queries: Vec<Vec<i8>> = (0..width)
                .map(|_| (0..dim).map(|_| byte(rng)).collect())
                .collect();
            let thresholds: Vec<i32> = queries
                .iter()
                .map(|q| {
                    let r = rng.random_range(0..rows_n);
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
            for kernel in Kernel::supported() {
                let got = screen_all(kernel, &queries, &rows, dim, &thresholds);
                assert_eq!(got, want, "{} dim {dim} rows {rows_n}", kernel.name());
            }
        });
    }

    #[test]
    fn dot_i8_extremes_do_not_overflow() {
        let dim = 4096;
        let queries = [vec![127i8; dim]];
        let rows = vec![-127i8; 3 * dim];
        for kernel in Kernel::supported() {
            let got = screen_all(kernel, &queries, &rows, dim, &[i32::MIN]);
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
        for kernel in Kernel::supported() {
            let got = screen_all(kernel, &[qq.row().to_vec()], &q, 3, &[i32::MIN]);
            assert_eq!(got, [[(0, 0), (1, 0)]], "{}", kernel.name());
        }
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
