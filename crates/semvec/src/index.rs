//! Scan building blocks: scored hits, the bounded top-k selector, the
//! per-(query, doc) retrieval jitter, and the naive reference oracle
//! ([`reference_top_k`]) the scan of [`SegmentedIndex`] is checked
//! against.

use crate::embed::dot;
use crate::seg::SegmentedIndex;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One query of a batched scan: the encoded vector plus the jitter salt
/// identifying it (see [`jitter`]). Batch entries take a
/// slice of these so every query keeps its own deterministic jitter
/// stream while sharing the block traversal.
#[derive(Debug, Clone, Copy)]
pub struct NoisyQuery<'a> {
    /// The encoded query vector (dimension must match the index).
    pub vector: &'a [f32],
    /// Per-query jitter salt (a hash of the query text).
    pub salt: u64,
}

/// A scored hit: payload index plus similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Index of the vector in insertion order (caller maps to payloads).
    pub id: usize,
    /// Similarity score (dot product; cosine for unit-norm vectors).
    pub score: f32,
}

/// Heap entry ordered by score (min-heap via Reverse comparisons).
#[derive(Debug, Clone, Copy)]
struct HeapEntry(Hit);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.score == other.0.score && self.0.id == other.0.id
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the *worst* hit on
        // top so it can be evicted — worst = lowest score, and among
        // equal scores the highest id (so lower ids win ties, matching
        // a stable brute-force sort).
        other
            .0
            .score
            .partial_cmp(&self.0.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.0.id.cmp(&other.0.id))
    }
}

/// Bounded top-k selection: O(N log k) instead of the O(N log N) full
/// sort, producing the *same* hits in the same order as sorting every
/// scored document by (score desc, id asc) and truncating to k.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<HeapEntry>,
}

impl TopK {
    /// Selector keeping the best `k` hits.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offer one scored hit.
    pub fn offer(&mut self, hit: Hit) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(HeapEntry(hit));
        } else if let Some(worst) = self.heap.peek() {
            if hit.score > worst.0.score || (hit.score == worst.0.score && hit.id < worst.0.id) {
                self.heap.pop();
                self.heap.push(HeapEntry(hit));
            }
        }
    }

    /// The current k-th best hit (the eviction bound), once k hits have
    /// been offered. Any candidate that cannot beat this hit under the
    /// (score desc, id asc) order can be skipped without changing the
    /// final result.
    pub fn bound(&self) -> Option<Hit> {
        if self.heap.len() < self.k {
            None
        } else {
            self.heap.peek().map(|e| e.0)
        }
    }

    /// Number of hits currently held.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no hit has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Finish: the held hits, highest score first, ties by lower id.
    pub fn into_sorted(self) -> Vec<Hit> {
        let mut hits: Vec<Hit> = self.heap.into_iter().map(|e| e.0).collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.id.cmp(&b.id))
        });
        hits
    }
}

/// The deterministic per-(query, doc) score jitter every noisy scan
/// adds: uniform with standard deviation `sigma`, keyed on (salt, id).
///
/// Dense retrieval at corpus scale does not rank by clean lexical
/// overlap: hubness, paraphrase misalignment, and sheer competition
/// make recall@k well below 1 even for "obvious" matches. An in-memory
/// index cannot exhibit that, so the jitter injects it: every (query,
/// document) pair gets a stable uniform perturbation of standard
/// deviation `sigma` added to its score before ranking. `salt` must
/// identify the query (e.g. a hash of its text).
#[inline]
pub fn jitter(salt: u64, id: usize, sigma: f32) -> f32 {
    jitter_of(kgstore::hash::mix2(salt, id as u64), sigma)
}

/// [`jitter`] from the already mixed per-(salt, id) hash: the expression
/// [`jitter_max`] bounds.
#[inline]
pub(crate) fn jitter_of(hash: u64, sigma: f32) -> f32 {
    (kgstore::hash::unit_f64(hash) as f32 * 2.0 - 1.0) * sigma * 1.732
}

/// The largest value [`jitter_of`] can return at a `sigma ≥ 0`: its
/// expression evaluated at unit value 1.0, which is what `unit_f64`
/// rounds to in f32 near the top of its range. Each f32 operation of
/// the expression is monotone in the unit value and rounding is
/// monotone, so for any score `a`, `fl(a + jitter) ≤ fl(a + jmax)`: a
/// scan can rule out a pair from `a + jmax` without hashing it.
#[inline]
pub(crate) fn jitter_max(sigma: f32) -> f32 {
    (1.0f32 * 2.0 - 1.0) * sigma * 1.732
}

/// The naive reference oracle every identity test and perf gate
/// compares the scan against: score every document with [`dot`] plus
/// its [`jitter`] (when `sigma > 0`), sort by (score desc, id asc),
/// keep the first `k`. A full sort — no heap, no quantization, no
/// segments — so it shares nothing with the scan it checks beyond the
/// per-pair float expression the scan promises to reproduce bit for
/// bit.
pub fn reference_top_k(
    index: &SegmentedIndex,
    query: &[f32],
    k: usize,
    sigma: f32,
    salt: u64,
) -> Vec<Hit> {
    let mut hits: Vec<Hit> = (0..index.len())
        .map(|id| {
            let mut score = dot(query, index.vector(id));
            if sigma > 0.0 {
                score += jitter(salt, id, sigma);
            }
            Hit { id, score }
        })
        .collect();
    hits.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.id.cmp(&b.id))
    });
    hits.truncate(k);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Embedder;

    #[test]
    fn top_k_keeps_best_and_breaks_ties_by_lower_id() {
        let mut top = TopK::new(2);
        for (id, score) in [(0, 0.5f32), (1, 0.9), (2, 0.9), (3, 0.1), (4, 0.9)] {
            top.offer(Hit { id, score });
        }
        assert_eq!(top.bound(), Some(Hit { id: 2, score: 0.9 }));
        let hits = top.into_sorted();
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![1, 2]);
        let mut none = TopK::new(0);
        none.offer(Hit { id: 0, score: 1.0 });
        assert!(none.is_empty());
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_salted() {
        let sigma = 0.3f32;
        let a: Vec<f32> = (0..64).map(|id| jitter(42, id, sigma)).collect();
        let b: Vec<f32> = (0..64).map(|id| jitter(42, id, sigma)).collect();
        assert_eq!(a, b, "same salt, same jitter");
        assert!(a.iter().all(|j| j.abs() <= sigma * 1.732));
        assert_ne!(
            a,
            (0..64).map(|id| jitter(43, id, sigma)).collect::<Vec<_>>()
        );
        let h = kgstore::hash::mix2(42, 7);
        assert_eq!(
            jitter(42, 7, sigma).to_bits(),
            jitter_of(h, sigma).to_bits()
        );
    }

    #[test]
    fn jitter_never_exceeds_its_max() {
        // At u64::MAX the unit value is 1 − 2⁻⁵³, which rounds to 1.0 in
        // f32: the top of the range reaches jmax exactly.
        for sigma in [0.0f32, 1e-6, 0.05, 0.3, 0.6, 1.0, 7.5] {
            let jmax = jitter_max(sigma);
            assert_eq!(jitter_of(u64::MAX, sigma).to_bits(), jmax.to_bits());
            for hash in [0u64, 1 << 11, u64::MAX >> 1, u64::MAX - (1 << 11)] {
                assert!(
                    jitter_of(hash, sigma) <= jmax,
                    "hash {hash:#x} sigma {sigma}"
                );
            }
        }
    }

    #[test]
    fn oracle_sorts_scores_and_reranks_under_jitter() {
        let emb = Embedder::paper();
        let texts: Vec<String> = (0..50)
            .map(|i| format!("entity{i} relation{}", i % 5))
            .collect();
        let idx = SegmentedIndex::build(&emb, texts.iter().map(|s| s.as_str()));
        let q = emb.encode("entity7 relation2");
        let clean = reference_top_k(&idx, &q, 5, 0.0, 42);
        assert_eq!(clean.len(), 5);
        assert!(clean.windows(2).all(|w| w[0].score >= w[1].score));
        assert_eq!(clean[0].id, 7, "the self-match ranks first without jitter");
        let a = reference_top_k(&idx, &q, 5, 0.6, 42);
        assert_eq!(
            a,
            reference_top_k(&idx, &q, 5, 0.6, 42),
            "same salt → same ranking"
        );
        assert_ne!(
            a,
            reference_top_k(&idx, &q, 5, 0.6, 43),
            "salt changes the ranking"
        );
        assert_eq!(reference_top_k(&idx, &q, 100, 0.6, 42).len(), 50);
        assert!(reference_top_k(&idx, &q, 0, 0.6, 42).is_empty());
    }
}
