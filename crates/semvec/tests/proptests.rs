//! Property-based tests of the encoder and the segmented index: norm
//! and cosine invariants, determinism, byte-identical parallel builds,
//! and the scan — one slot or batched, any shard count — bit-identical
//! to the naive oracle [`reference_top_k`], with its rerank counter
//! equal to its definition.
//!
//! Each property runs [`check`] over generated inputs; where a fixed
//! grid of corner cases (wide dimensions, large corpora, every batch
//! width) is worth pinning, that grid runs first through the same body.

use kgstore::rng::{check, StdRng};
use semvec::{
    cosine, dot, jitter, pair_error_bound, quantize_block, reference_top_k, Embedder, Hit,
    NoisyQuery, QuantQuery, ScreenStats, SegmentedIndex,
};

/// Character soup: letters and spaces.
fn text(rng: &mut StdRng) -> String {
    rng.string("a-zA-Z ", 1..=60)
}

/// Sentences over a closed vocabulary of trigram-disjoint words — the
/// shape of real verbalised triples, where documents either share whole
/// words with a query or sit at the encoder's noise floor.
fn vocab_sentence(rng: &mut StdRng) -> String {
    rng.vec(1..6, |r| VOCAB[r.random_range(0..VOCAB.len())])
        .join(" ")
}

const VOCAB: [&str; 12] = [
    "zebra", "quartz", "violin", "hammock", "puzzle", "dwarf", "sphinx", "jigsaw", "oxygen",
    "kumquat", "fjord", "byway",
];

/// A float in `[-2, 2)`.
fn coord(rng: &mut StdRng) -> f32 {
    (rng.random_f64() * 4.0 - 2.0) as f32
}

/// A jitter scale in `[0, 0.6)`.
fn sigma(rng: &mut StdRng) -> f32 {
    (rng.random_f64() * 0.6) as f32
}

/// Serial build over `docs` with `seg_rows`-row segments (at least 1).
fn build(emb: &Embedder, docs: &[String], seg_rows: usize) -> SegmentedIndex {
    let refs: Vec<&str> = docs.iter().map(|s| s.as_str()).collect();
    SegmentedIndex::build_parallel(emb, &refs, seg_rows.max(1), 1)
}

/// The (k, sigma, salt) points the shard grid scans at.
const SCANS: [(usize, f32, u64); 3] = [(1, 0.0, 0), (5, 0.30, 7), (12, 0.55, 0xC0FFEE)];

/// One query through the scan, as a one-slot batch.
fn scan_one(
    index: &SegmentedIndex,
    q: &[f32],
    k: usize,
    sigma: f32,
    salt: u64,
) -> (Vec<Hit>, ScreenStats) {
    let slot = NoisyQuery { vector: q, salt };
    index
        .top_k_noisy_quant_batch(&[slot], k, sigma)
        .pop()
        .expect("one slot in, one result out")
}

/// The scan of `index` returns `oracle` for `q`, both as a one-slot
/// call and in the middle of a three-slot batch whose other slots
/// query the same vector under other salts.
fn every_scan_returns(
    index: &SegmentedIndex,
    q: &[f32],
    (k, sigma, salt): (usize, f32, u64),
    oracle: &[Hit],
    at: &str,
) {
    let (one, _) = scan_one(index, q, k, sigma, salt);
    assert_eq!(one, oracle, "one-slot scan, {at} k {k} sigma {sigma}");
    let slots = [
        NoisyQuery {
            vector: q,
            salt: salt ^ 1,
        },
        NoisyQuery { vector: q, salt },
        NoisyQuery {
            vector: q,
            salt: salt.wrapping_add(2),
        },
    ];
    let batch = index.top_k_noisy_quant_batch(&slots, k, sigma);
    assert_eq!(batch[1].0, oracle, "batched scan, {at} k {k} sigma {sigma}");
}

/// Naive i32 dot of two int8 rows.
fn naive_dot_i8(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// Every encoding is unit-norm or exactly zero.
#[test]
fn encode_norm_is_unit_or_zero() {
    check(256, 1, |rng| {
        let t = text(rng);
        for emb in [Embedder::default(), Embedder::paper()] {
            let v = emb.encode(&t);
            let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!(
                norm == 0.0 || (norm - 1.0).abs() < 1e-4,
                "norm {norm} for {t:?}"
            );
        }
    });
}

/// Cosine is symmetric, bounded, and 1 on self (for non-zero texts).
#[test]
fn cosine_invariants() {
    check(256, 2, |rng| {
        let emb = Embedder::paper();
        let va = emb.encode(&text(rng));
        let vb = emb.encode(&text(rng));
        let ab = cosine(&va, &vb);
        let ba = cosine(&vb, &va);
        assert!((ab - ba).abs() < 1e-5);
        assert!((-1.0001..=1.0001).contains(&ab));
        if va.iter().any(|&x| x != 0.0) {
            assert!((cosine(&va, &va) - 1.0).abs() < 1e-4);
        }
    });
}

/// Encoding is deterministic.
#[test]
fn encode_is_deterministic() {
    check(256, 3, |rng| {
        let t = text(rng);
        let emb = Embedder::paper();
        assert_eq!(emb.encode(&t), emb.encode(&t));
    });
}

/// The oracle itself agrees with a brute-force sort of the raw
/// encodings' dot products, and the clean scan agrees with the
/// oracle. The first input is a failure an earlier run recorded.
#[test]
fn oracle_and_full_scan_agree_with_brute_force() {
    let body = |docs: &[String], query: &str, k: usize| {
        let emb = Embedder::default();
        let index = build(&emb, docs, docs.len());
        let q = emb.encode(query);
        let oracle = reference_top_k(&index, &q, k, 0.0, 0);
        assert_eq!(scan_one(&index, &q, k, 0.0, 0).0, oracle);

        let mut brute: Vec<(usize, f32)> = docs
            .iter()
            .map(|d| dot(&q, &emb.encode(d)))
            .enumerate()
            .collect();
        brute.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        brute.truncate(k);
        assert_eq!(oracle.len(), brute.len());
        for (hit, (id, score)) in oracle.iter().zip(&brute) {
            assert_eq!(hit.id, *id, "{docs:?} {query:?} k {k}");
            assert!((hit.score - score).abs() < 1e-5);
        }
    };
    let recorded: Vec<String> = ["CAa", "AAhe", "A", "AaL "].map(String::from).into();
    body(&recorded, "L", 2);
    check(256, 4, |rng| {
        let docs = rng.vec(1..40, text);
        let query = text(rng);
        body(&docs, &query, rng.random_range(1..12));
    });
}

/// Jittered top-k is deterministic in (query, salt) and returns the
/// requested number of hits, sorted descending.
#[test]
fn jittered_topk_deterministic() {
    check(256, 5, |rng| {
        let docs = rng.vec(2..30, text);
        let query = text(rng);
        let salt = rng.next_u64();
        let emb = Embedder::default();
        let index = build(&emb, &docs, docs.len());
        let q = emb.encode(&query);
        let (a, _) = scan_one(&index, &q, 5, 0.3, salt);
        assert_eq!(a, scan_one(&index, &q, 5, 0.3, salt).0);
        assert_eq!(a.len(), 5usize.min(docs.len()));
        for w in a.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    });
}

/// The scan is bit-identical to the oracle on closed-vocabulary
/// corpora at about three segments, under the noise-free and the paper
/// encoder, for arbitrary k (beyond the corpus size included), sigma
/// and salt.
#[test]
fn scan_equals_oracle_on_vocab_corpora() {
    check(256, 6, |rng| {
        let docs = rng.vec(1..40, vocab_sentence);
        let query = vocab_sentence(rng);
        let (k, sigma, salt) = (rng.random_range(1..50), sigma(rng), rng.next_u64());
        for emb in [Embedder::default(), Embedder::paper()] {
            let index = build(&emb, &docs, docs.len().div_ceil(3));
            let q = emb.encode(&query);
            let oracle = reference_top_k(&index, &q, k, sigma, salt);
            every_scan_returns(&index, &q, (k, sigma, salt), &oracle, "vocab");
        }
    });
}

/// The quantized screen + exact rerank scan is bit-identical to
/// the oracle on arbitrary corpora, at the pipeline's default jitter
/// (sigma = 0.30) and with noise off (sigma = 0). The grid runs larger
/// corpora first, each at two salts.
#[test]
fn quant_screen_rerank_topk_equals_oracle() {
    let body = |docs: &[String], query: &str, k: usize, salt: u64| {
        let emb = Embedder::paper();
        let index = build(&emb, docs, docs.len());
        let q = emb.encode(query);
        for sigma in [0.0f32, 0.30] {
            let (quant, stats) = scan_one(&index, &q, k, sigma, salt);
            assert_eq!(
                quant,
                reference_top_k(&index, &q, k, sigma, salt),
                "k {k} sigma {sigma} salt {salt}"
            );
            assert_eq!(stats.screened, docs.len() as u64);
            assert!(stats.reranked <= stats.screened);
        }
    };
    for (seed, n, k) in [(1u64, 1usize, 1usize), (2, 7, 3), (3, 40, 10), (4, 90, 15)] {
        let rng = &mut StdRng::seed_from_u64(seed);
        let docs: Vec<String> = (0..n).map(|_| text(rng)).collect();
        let query = text(rng);
        for salt in [0u64, seed.wrapping_mul(0xC0FFEE)] {
            body(&docs, &query, k, salt);
        }
    }
    check(256, 9, |rng| {
        let docs = rng.vec(1..40, text);
        let query = text(rng);
        body(&docs, &query, rng.random_range(1..15), rng.next_u64());
    });
}

/// The padded per-pair error bound is never violated: for random
/// (query, row) pairs over a `quantize_block` shadow, the dequantized
/// int8 dot stays within the bound of the exact f32 dot. The grid runs
/// other dimensions (1 to 256 wide) and up to 128 rows first.
#[test]
fn quant_error_bound_never_violated() {
    let body = |dim: usize, flat: &[f32], query: &[f32]| {
        let n = flat.len() / dim;
        let (shadow, scale, max_norm) = quantize_block(dim, n, flat);
        let qq = QuantQuery::new(query);
        let (qs, qn) = (qq.scale() as f64, qq.norm() as f64);
        let bound = pair_error_bound(qs, qn, scale as f64, max_norm as f64, dim);
        let factor = qq.scale() * scale;
        for id in 0..n {
            let row = &flat[id * dim..(id + 1) * dim];
            let exact = dot(query, row) as f64;
            let approx =
                (naive_dot_i8(qq.row(), &shadow[id * dim..(id + 1) * dim]) as f32 * factor) as f64;
            assert!(
                (exact - approx).abs() <= bound,
                "bound violated at dim {dim} row {id}: |{exact} - {approx}| > {bound}"
            );
        }
    };
    for (seed, n, dim) in [
        (1u64, 1usize, 8usize),
        (2, 7, 33),
        (3, 40, 64),
        (4, 128, 256),
        (5, 64, 48),
    ] {
        let rng = &mut StdRng::seed_from_u64(seed);
        let flat: Vec<f32> = (0..n * dim).map(|_| coord(rng)).collect();
        let query: Vec<f32> = (0..dim).map(|_| coord(rng)).collect();
        body(dim, &flat, &query);
    }
    check(256, 10, |rng| {
        let rows = rng.vec(1..24, |r| r.vec(32..33, coord));
        let query = rng.vec(32..33, coord);
        body(32, &rows.concat(), &query);
    });
}

/// Every segment of `index` re-quantized with `quantize_block`: `q`'s
/// error bound against the segment, the segment's scale and its int8
/// shadow.
fn segment_shadows(index: &SegmentedIndex, q: &QuantQuery) -> Vec<(f64, f32, Vec<i8>)> {
    let dim = index.dim();
    (0..index.num_segments())
        .map(|s| {
            let base = s * index.seg_rows();
            let rows = index.segment_rows(s);
            let flat: Vec<f32> = (base..base + rows)
                .flat_map(|id| index.vector(id).iter().copied())
                .collect();
            let (shadow, scale, max_norm) = quantize_block(dim, rows, &flat);
            assert_eq!(scale.to_bits(), index.segment_scale(s).to_bits());
            let (qs, qn) = (q.scale() as f64, q.norm() as f64);
            let bound = pair_error_bound(qs, qn, scale as f64, max_norm as f64, dim);
            (bound, scale, shadow)
        })
        .collect()
}

/// How many documents the two-stage scan must rerank, counted from the
/// definition with public building blocks only: every document screened
/// with a naive i32 dot against its re-quantized segment plus its
/// jitter, `θ̂`
/// the k-th best screened score (−∞ when k > n), and the count of
/// documents screening at or above `θ̂ − 2·B_max`.
fn reranked_by_definition(
    index: &SegmentedIndex,
    query: &[f32],
    k: usize,
    sigma: f32,
    salt: u64,
) -> u64 {
    let dim = index.dim();
    let qq = QuantQuery::new(query);
    let shadows = segment_shadows(index, &qq);
    let b_max = shadows.iter().map(|s| s.0).fold(0.0, f64::max);
    let mut screened: Vec<f32> = Vec::with_capacity(index.len());
    for (s, (_, scale, shadow)) in shadows.iter().enumerate() {
        let factor = qq.scale() * scale;
        for (r, row) in shadow.chunks_exact(dim).enumerate() {
            let mut score = naive_dot_i8(qq.row(), row) as f32 * factor;
            if sigma > 0.0 {
                score += jitter(salt, s * index.seg_rows() + r, sigma);
            }
            screened.push(score);
        }
    }
    let mut sorted = screened.clone();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite screened scores"));
    let margin = match sorted.get(k - 1) {
        Some(&kth) => kth as f64 - 2.0 * b_max,
        None => f64::NEG_INFINITY,
    };
    screened.iter().filter(|&&s| s as f64 >= margin).count() as u64
}

/// Batched scans over `index` equal the oracle per slot, with counters
/// equal to their definition ([`reranked_by_definition`]).
fn batched_full_equals_oracle(
    emb: &Embedder,
    index: &SegmentedIndex,
    texts: &[&str],
    salts: &[u64],
    k: usize,
    sigma: f32,
) {
    let qvecs: Vec<Vec<f32>> = texts.iter().map(|t| emb.encode(t)).collect();
    let slots: Vec<NoisyQuery<'_>> = qvecs
        .iter()
        .zip(salts)
        .map(|(v, &salt)| NoisyQuery { vector: v, salt })
        .collect();
    let quant = index.top_k_noisy_quant_batch(&slots, k, sigma);
    assert_eq!(quant.len(), slots.len());
    let at = format!("width {} k {k} sigma {sigma}", slots.len());
    for ((qhits, qstats), s) in quant.iter().zip(&slots) {
        let oracle = reference_top_k(index, s.vector, k, sigma, s.salt);
        assert_eq!(qhits, &oracle, "full quant {at}");
        assert_eq!(
            qstats.screened,
            index.len() as u64,
            "full quant screened {at}"
        );
        let want = reranked_by_definition(index, s.vector, k, sigma.max(0.0), s.salt);
        assert_eq!(qstats.reranked, want, "full quant reranked {at}");
    }
}

/// The grid the batched property runs first: a 60-sentence corpus
/// at one and at four segments, batch widths 0 to 9 — every
/// register-tile remainder after zero, one and two full tiles — (the
/// last slot of each width ≥ 2 duplicating the first, with the same
/// salt), two sigmas and three k — through
/// `body(emb, index, texts, salts, k, sigma)`.
fn batched_grid(body: fn(&Embedder, &SegmentedIndex, &[&str], &[u64], usize, f32)) {
    let emb = Embedder::paper();
    let rng = &mut StdRng::seed_from_u64(0xBA7C4);
    let docs: Vec<String> = (0..60).map(|_| vocab_sentence(rng)).collect();
    for seg_rows in [docs.len(), 16] {
        let index = build(&emb, &docs, seg_rows);
        for width in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9] {
            let mut texts: Vec<String> = (0..width).map(|_| vocab_sentence(rng)).collect();
            let mut salts: Vec<u64> = (0..width).map(|_| rng.next_u64()).collect();
            if width >= 2 {
                texts[width - 1] = texts[0].clone();
                salts[width - 1] = salts[0];
            }
            let texts: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
            for sigma in [0.0f32, 0.30] {
                for k in [1usize, 5, 70] {
                    body(&emb, &index, &texts, &salts, k, sigma);
                }
            }
        }
    }
}

/// Batched scans equal the oracle per query for arbitrary batch
/// widths (0, 1, and through every register-tile remainder) and
/// duplicate queries; counters equal their definition.
#[test]
fn batched_topk_equals_oracle_per_query() {
    batched_grid(batched_full_equals_oracle);
    check(256, 11, |rng| {
        let docs = rng.vec(1..40, text);
        let queries = rng.vec(0..9, text);
        let dup = rng.random_bool();
        let (k, sigma, salt) = (rng.random_range(1..12), sigma(rng), rng.next_u64());
        let emb = Embedder::paper();
        let index = build(&emb, &docs, docs.len().div_ceil(2));
        let mut texts: Vec<&str> = queries.iter().map(|s| s.as_str()).collect();
        if dup && !texts.is_empty() {
            texts.push(texts[0]);
        }
        let salts: Vec<u64> = (0..texts.len())
            .map(|i| salt.wrapping_add((i % queries.len().max(1)) as u64))
            .collect();
        batched_full_equals_oracle(&emb, &index, &texts, &salts, k, sigma);
    });
}

/// The quantized scan reranks exactly the documents its definition
/// names ([`reranked_by_definition`]): one slot and batched, at sigma
/// 0 and 0.30, for k below, at and above the corpus size, on
/// multi-segment indexes. The grid runs first on an index whose last
/// segment has the largest error bound, so a margin built from the
/// segments screened so far would be too high there.
#[test]
fn quant_rerank_count_matches_its_definition() {
    let body = |index: &SegmentedIndex, query: &[f32], k: usize, sigma: f32, salt: u64| {
        let want = reranked_by_definition(index, query, k, sigma, salt);
        let at = format!(
            "n {} seg_rows {} k {k} sigma {sigma}",
            index.len(),
            index.seg_rows()
        );
        let (_, one) = scan_one(index, query, k, sigma, salt);
        assert_eq!(one.reranked, want, "one slot {at}");
        let slot = NoisyQuery {
            vector: query,
            salt,
        };
        let batch = index.top_k_noisy_quant_batch(&[slot, slot, slot], k, sigma);
        for (_, stats) in &batch {
            assert_eq!(stats.reranked, want, "batched {at}");
        }
    };
    // Four-word sentences spread their mass over more features than the
    // one-letter document of the last segment, so their segments
    // quantize with smaller scales.
    let emb = Embedder::paper();
    let mut docs: Vec<String> = (0..30)
        .map(|i| {
            let words: Vec<&str> = (0..4)
                .map(|j| VOCAB[(i * 7 + j * 5) % VOCAB.len()])
                .collect();
            words.join(" ")
        })
        .collect();
    docs.extend(["x", "zebra", "fjord byway"].map(String::from));
    let index = build(&emb, &docs, 10);
    let probe = QuantQuery::new(&emb.encode(&docs[3]));
    let bounds: Vec<f64> = segment_shadows(&index, &probe)
        .iter()
        .map(|s| s.0)
        .collect();
    let last = *bounds.last().expect("segments");
    assert!(
        bounds[..bounds.len() - 1].iter().all(|&b| b < last),
        "the last segment must carry the largest bound: {bounds:?}"
    );
    for query in docs.iter().step_by(4) {
        let q = emb.encode(query);
        for sigma in [0.0f32, 0.30] {
            for k in [1usize, 3, 10, docs.len() - 1, docs.len(), docs.len() + 5] {
                body(&index, &q, k, sigma, 0xC0DE);
            }
        }
    }
    check(256, 17, |rng| {
        let docs = rng.vec(1..40, text);
        let seg_rows = rng.random_range(1..docs.len() + 1);
        let query = text(rng);
        let (k, salt) = (rng.random_range(1..50), rng.next_u64());
        let sigma = if rng.random_bool() { 0.30 } else { 0.0 };
        let index = build(&emb, &docs, seg_rows);
        body(&index, &emb.encode(&query), k, sigma, salt);
    });
}

/// The corpus the shard property runs first: 50 vocabulary sentences.
fn shard_grid_docs() -> Vec<String> {
    let rng = &mut StdRng::seed_from_u64(0x5E6_F11E);
    (0..50).map(|_| vocab_sentence(rng)).collect()
}

/// Shard-count invariance: the scan (one slot and batched) at 1, 2 and
/// 7 shards, at 4-row segments and at one more segment size equals the
/// oracle over the single-segment build for every (k, sigma, salt),
/// on corpora of any size, empty and duplicated ones included. The
/// grid's extra size is 3 rows; generated cases draw it from 1..50,
/// past the corpus size.
#[test]
fn sharded_topk_is_invariant_in_shard_count() {
    let body = |docs: &[String], extra_rows: usize, query: &str, point: (usize, f32, u64)| {
        let emb = Embedder::paper();
        let n = docs.len();
        let q = emb.encode(query);
        let (k, sigma, salt) = point;
        let oracle = reference_top_k(&build(&emb, docs, n), &q, k, sigma, salt);
        for seg_rows in [n, n.div_ceil(2), n.div_ceil(7), 4, extra_rows] {
            let seg = build(&emb, docs, seg_rows);
            let at = format!("n {n} seg_rows {seg_rows}");
            every_scan_returns(&seg, &q, point, &oracle, &at);
        }
    };
    let docs = shard_grid_docs();
    for point in SCANS {
        for query in docs.iter().step_by(11) {
            body(&docs, 3, query, point);
        }
    }
    check(256, 14, |rng| {
        let docs = rng.vec(0..40, vocab_sentence);
        let extra_rows = rng.random_range(1..50);
        let query = vocab_sentence(rng);
        let point = (rng.random_range(1..15), sigma(rng), rng.next_u64());
        body(&docs, extra_rows, &query, point);
    });
}

/// Parallel index builds are byte-identical to the serial build for
/// any corpus (duplicates included), any thread count and any segment
/// size, and every row is bit for bit its text's encoding — duplicates
/// whose first occurrence sits in an earlier segment or an earlier
/// worker's chunk included.
#[test]
fn segmented_parallel_build_equals_serial() {
    check(256, 16, |rng| {
        let docs = rng.vec(1..40, text);
        let threads = rng.random_range(2..8);
        let emb = Embedder::paper();
        // Force duplicates so the row copy is exercised.
        let doubled: Vec<&str> = docs.iter().chain(docs.iter()).map(|s| s.as_str()).collect();
        let seg_rows = rng.random_range(1..doubled.len() + 1);
        let serial = SegmentedIndex::build_parallel(&emb, &doubled, seg_rows, 1);
        let parallel = SegmentedIndex::build_parallel(&emb, &doubled, seg_rows, threads);
        assert_eq!(serial.len(), parallel.len());
        assert_eq!(serial.num_segments(), parallel.num_segments());
        for (id, text) in doubled.iter().enumerate() {
            let want = emb.encode(text);
            for (build, index) in [("serial", &serial), ("parallel", &parallel)] {
                let got = index.vector(id);
                assert!(
                    got.iter()
                        .zip(&want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{build} row {id} of {} (seg_rows {seg_rows}) is not encode({text:?})",
                    doubled.len()
                );
            }
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
    });
}
