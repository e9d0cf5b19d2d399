//! Semantic querying + two-step pruning (paper §3.2.1).
//!
//! The paper constructs, per dataset, a semantic KG from the questions
//! ("we use the full dataset for testing and constructing the
//! corresponding semantic KG based on the questions") — the union of
//! question-scoped subgraph extractions — and encodes it once. Querying
//! then runs per pseudo-triple against that dataset-level index, where
//! same-name entities, sibling facts, and unrelated-but-similar triples
//! genuinely compete:
//!
//! 1. Build (or receive) the dataset-level base index.
//! 2. For each pseudo-triple retrieve the top-10 most similar triples →
//!    `G_t` (with per-triple similarity scores).
//! 3. Pruning step 1 (popularity): keep the `k = |S_p|` candidate
//!    subjects with the most retrieved triples.
//! 4. Pruning step 2 (confidence): score each subject by the mean
//!    similarity of its retrieved triples, drop those below the
//!    threshold, sort the rest descending → ground graph `G_g`.
//!
//! Retrieval is linking-free, as in the paper: a plain noisy top-k
//! search over the question-scoped KG, with the two pruning steps
//! applied afterwards. The base index is a sharded [`SegmentedIndex`]
//! (fixed-size segments, each with its own int8 quant shadow and token
//! postings), queries go through a bounded thread-safe embedding
//! cache, and dataset-level builds encode across threads with
//! deterministic output. Every question's queries run as one
//! deduplicated [`BaseIndex::search_batch`] call, and every scan it can
//! pick is bit-identical to the naive oracle `semvec::reference_top_k`
//! (see `semvec::seg` for the proofs).
//!
//! [`RetrievalMode`] picks the candidates: the default token-postings
//! pruning sits behind an adaptive gate that sends a query to the full
//! scan when its postings estimate says pruning cannot pay. Each gate
//! decision is memoized per unique query, so fan-out duplicates and
//! repeat queries are decided — and counted — once. [`ScoringMode`]
//! picks the scoring: the int8 screen with an exact f32 rerank by
//! default. Neither knob ever changes a hit.

use crate::config::PipelineConfig;
use crate::prune::Candidate;
use kgstore::hash::{FxHashMap, FxHashSet};
use kgstore::{extract, Atom, KgSource, StrTriple, Triple};
use semvec::{verbalize_triple, Embedder, Hit, QueryStyle, ScreenStats, SegmentedIndex};
use simllm::{GroundEntity, GroundGraph};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Which scan the base index runs per query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetrievalMode {
    /// Token-postings candidate pruning + exact rerank behind the
    /// adaptive gate (the default; hits are bit-identical to
    /// [`Exact`] under the segmented index's zero-overlap ceiling
    /// contract, which the perf bench asserts).
    ///
    /// [`Exact`]: RetrievalMode::Exact
    #[default]
    Pruned,
    /// Brute-force scan of every indexed triple.
    Exact,
}

/// How each scanned document is scored. Orthogonal to
/// [`RetrievalMode`]: retrieval mode decides *which* documents are
/// scanned, scoring mode decides *how* each is scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoringMode {
    /// The quantized two-stage engine: int8 screen of every scanned
    /// document, exact f32 rerank of everything within the provable
    /// per-pair error bound of the quantized k-th score. Bit-identical
    /// to [`ExactF32`] — same ids, same scores, same tie-break order —
    /// by construction (see [`semvec::quant`]); the perf bench and the
    /// CI smoke assert it on every run.
    ///
    /// [`ExactF32`]: ScoringMode::ExactF32
    #[default]
    QuantizedScreen,
    /// The plain f32 dot for every scanned document (the reference
    /// path the quantized engine is checked against).
    ExactF32,
}

/// Upper bound on cached query embeddings. Entries are one `dim`-float
/// vector plus the query text (~1.2 KiB at dim 256), so the cap bounds
/// memory at a few MiB per base index.
const QUERY_CACHE_CAP: usize = 4096;

/// Of the total capacity, how much belongs to the probationary
/// segment; the remainder is the protected segment.
const PROBATION_FRACTION: usize = 4; // one quarter

/// Monotonic counters of the query-embedding cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to encode.
    pub misses: u64,
    /// Entries evicted one at a time by segment overflow (the old
    /// clear-on-full wipe is gone; a full segment sheds exactly one
    /// entry per insertion).
    pub evictions: u64,
    /// Entries currently held.
    pub entries: usize,
}

/// Cache key: (folded?, query text).
type Key = (bool, String);

/// Which cache segment an entry currently lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seg {
    Probation,
    Protected,
}

/// The mutexed state of the two-segment cache.
struct CacheState {
    map: FxHashMap<Key, (Arc<Vec<f32>>, Seg)>,
    /// FIFO insertion orders per segment. Lazily invalidated: a key
    /// promoted out of probation stays in the probation queue until it
    /// is popped and found stale (its map segment no longer matches).
    probation_fifo: VecDeque<Key>,
    protected_fifo: VecDeque<Key>,
    /// Live entries per segment (queues may be longer due to stale
    /// keys).
    probation_len: usize,
    protected_len: usize,
    /// Hashes of recently evicted keys ("ghosts"): a re-miss on a
    /// ghost inserts straight into the protected segment, so a hot
    /// working set larger than probation stops thrashing after one
    /// round trip. Bounded FIFO.
    ghost_fifo: VecDeque<u64>,
    ghosts: FxHashSet<u64>,
}

/// Bounded, thread-safe memo of query embeddings with deterministic
/// two-segment (probationary/protected) eviction. Encoding is
/// deterministic, so a cached vector is byte-for-byte the vector a
/// fresh encode would produce — the cache can never change a result,
/// only skip work.
///
/// Eviction discipline (all FIFO, hence deterministic for a given
/// access sequence):
/// * a miss inserts into **probation** — unless the key was recently
///   evicted (a *ghost*), in which case it goes straight to
///   **protected**: seeing a key again after losing it is the signal
///   that it is part of a hot working set;
/// * a hit on a probationary entry promotes it to protected;
/// * a full segment evicts its oldest entry (one per insertion — never
///   the wholesale clear the old cache did), recording the key as a
///   ghost.
struct QueryCache {
    state: Mutex<CacheState>,
    probation_cap: usize,
    protected_cap: usize,
    ghost_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl QueryCache {
    fn new() -> Self {
        Self::with_caps(
            QUERY_CACHE_CAP / PROBATION_FRACTION,
            QUERY_CACHE_CAP - QUERY_CACHE_CAP / PROBATION_FRACTION,
        )
    }

    /// Explicit segment capacities (exposed for tests; both must be
    /// nonzero).
    fn with_caps(probation_cap: usize, protected_cap: usize) -> Self {
        assert!(probation_cap > 0 && protected_cap > 0);
        Self {
            state: Mutex::new(CacheState {
                map: FxHashMap::default(),
                probation_fifo: VecDeque::new(),
                protected_fifo: VecDeque::new(),
                probation_len: 0,
                protected_len: 0,
                ghost_fifo: VecDeque::new(),
                ghosts: FxHashSet::default(),
            }),
            probation_cap,
            protected_cap,
            ghost_cap: probation_cap + protected_cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The cache state, recovered if a holder panicked: entries are
    /// only ever skipped work, so a half-updated segment costs hits,
    /// never correctness.
    fn state(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn ghost_hash(key: &Key) -> u64 {
        kgstore::hash::mix2(kgstore::hash::stable_str_hash(&key.1), key.0 as u64)
    }

    fn get_or_encode(&self, embedder: &Embedder, text: &str, style: QueryStyle) -> Arc<Vec<f32>> {
        let folded = style == QueryStyle::Folded;
        let key: Key = (folded, text.to_string());
        {
            let mut st = self.state();
            if let Some((v, seg)) = st.map.get(&key).map(|(v, s)| (Arc::clone(v), *s)) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if seg == Seg::Probation {
                    Self::promote(&mut st, &key);
                    self.evict_overflow(&mut st, Seg::Protected);
                }
                return v;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Encode outside the lock so concurrent misses don't serialize.
        let v = Arc::new(match style {
            QueryStyle::Folded => embedder.encode(text),
            QueryStyle::Unfolded => embedder.encode_unfolded(text),
        });
        let mut st = self.state();
        // A concurrent miss may have inserted the key meanwhile; the
        // vectors are identical bits either way, so the existing entry
        // (and its segment bookkeeping) is kept untouched.
        if st.map.contains_key(&key) {
            return v;
        }
        let seg = if st.ghosts.contains(&Self::ghost_hash(&key)) {
            Seg::Protected
        } else {
            Seg::Probation
        };
        st.map.insert(key.clone(), (Arc::clone(&v), seg));
        match seg {
            Seg::Probation => {
                st.probation_fifo.push_back(key);
                st.probation_len += 1;
            }
            Seg::Protected => {
                st.protected_fifo.push_back(key);
                st.protected_len += 1;
            }
        }
        self.evict_overflow(&mut st, seg);
        v
    }

    /// Move a probationary entry to the protected segment. The stale
    /// probation-queue slot is skipped when it surfaces.
    fn promote(st: &mut CacheState, key: &Key) {
        if let Some((_, seg)) = st.map.get_mut(key) {
            *seg = Seg::Protected;
            st.probation_len -= 1;
            st.protected_len += 1;
            st.protected_fifo.push_back(key.clone());
        }
    }

    /// Evict the oldest live entry of a segment while it is over
    /// capacity, recording ghosts.
    fn evict_overflow(&self, st: &mut CacheState, seg: Seg) {
        let (cap, live) = match seg {
            Seg::Probation => (self.probation_cap, st.probation_len),
            Seg::Protected => (self.protected_cap, st.protected_len),
        };
        let mut live = live;
        while live > cap {
            let key = match seg {
                Seg::Probation => st.probation_fifo.pop_front(),
                Seg::Protected => st.protected_fifo.pop_front(),
            }
            .expect("live entries imply a nonempty queue");
            // Skip stale slots: promoted or already-replaced keys.
            let is_live = matches!(st.map.get(&key), Some((_, s)) if *s == seg);
            if !is_live {
                continue;
            }
            st.map.remove(&key);
            live -= 1;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            let h = Self::ghost_hash(&key);
            if st.ghosts.insert(h) {
                st.ghost_fifo.push_back(h);
                while st.ghost_fifo.len() > self.ghost_cap {
                    let old = st.ghost_fifo.pop_front().expect("nonempty");
                    st.ghosts.remove(&old);
                }
            }
        }
        match seg {
            Seg::Probation => st.probation_len = live,
            Seg::Protected => st.protected_len = live,
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.state().map.len(),
        }
    }
}

/// Monotonic counters of the scoring engine across every search this
/// index served: documents screened by the int8 kernel, documents the
/// margin sent to the exact f32 rerank, and the batch-entry shape
/// (how many [`BaseIndex::search_batch`] calls ran, how wide they
/// were, how many slots deduplication collapsed).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScoringStats {
    /// Documents scored by the int8 screening kernel.
    pub screened: u64,
    /// Documents re-scored by the exact f32 path.
    pub reranked: u64,
    /// [`BaseIndex::search_batch`] calls served.
    pub batches: u64,
    /// Query slots across all batches (before deduplication).
    pub batch_slots: u64,
    /// Slots that shared another slot's encoding and scan because their
    /// (style, salt, text) key was a duplicate within the batch.
    pub batch_deduped: u64,
    /// Queries answered through the pruned (token-postings) scan.
    pub pruned_queries: u64,
    /// Candidate documents those pruned scans actually visited (the
    /// full base is `pruned_queries × base.len()` documents; the gap is
    /// what pruning saved).
    pub pruned_candidates: u64,
    /// Pruned-mode queries the adaptive gate routed to the exact scan
    /// because the postings estimate said pruning could not pay for
    /// its candidate materialization. Not counted in `pruned_queries`,
    /// so [`Self::candidate_fraction`] keeps describing the scans that
    /// actually pruned. Like `pruned_queries`, counted once per
    /// *unique* routing decision — duplicates are served by the route
    /// memo.
    pub gate_fallbacks: u64,
    /// Always zero. Retrieval has no entity route; the field stays
    /// because the QA benchmark's traced replay (`qabench/`) still
    /// reads it.
    pub entity_queries: u64,
    /// Routing decisions served from the bounded route memo instead of
    /// being recomputed (repeat queries; batch fan-out duplicates are
    /// collapsed even earlier, by slot dedup).
    pub route_memo_hits: u64,
}

impl ScoringStats {
    /// Fraction of screened documents that needed the exact rerank.
    pub fn rerank_rate(&self) -> f64 {
        if self.screened == 0 {
            0.0
        } else {
            self.reranked as f64 / self.screened as f64
        }
    }

    /// Mean slots per [`BaseIndex::search_batch`] call (0 when no
    /// batch ran).
    pub fn mean_batch_width(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_slots as f64 / self.batches as f64
        }
    }

    /// Fraction of batch slots answered by another slot's scan.
    pub fn dedup_rate(&self) -> f64 {
        if self.batch_slots == 0 {
            0.0
        } else {
            self.batch_deduped as f64 / self.batch_slots as f64
        }
    }

    /// Mean fraction of the base each pruned query actually scanned
    /// (1.0 would mean pruning never dropped a document). Per unique
    /// routed query: the route memo decides — and counts — each
    /// distinct (style, gate-relax, text) key once.
    pub fn candidate_fraction(&self, base_len: usize) -> f64 {
        let denom = self.pruned_queries as f64 * base_len as f64;
        if denom == 0.0 {
            0.0
        } else {
            self.pruned_candidates as f64 / denom
        }
    }
}

/// Default candidate-fraction ceiling of the adaptive pruning gate
/// (see [`PipelineConfig::prune_gate`]): under quantized scoring a
/// pruned scan must promise a candidate set below this fraction of
/// the corpus, or the query runs the exact SoA scan instead. The
/// break-even point comes from the perf bench: the batched int8
/// screen costs so little per document that candidate
/// materialization + gathered scoring + the suspect audit only wins
/// when the candidate set is genuinely small.
pub const PRUNE_GATE_DEFAULT: f32 = 0.05;

/// Gate relaxation under [`ScoringMode::ExactF32`]: without the int8
/// screen a full scan pays ~3× more per document, so pruning stays
/// profitable up to a proportionally larger candidate fraction
/// (retrieval-kernel bench: pruned wins ~1.9× at fraction 0.08 in
/// f32, while losing under quantized batched scoring).
const GATE_F32_RELAX: f32 = 4.0;

/// Bounded capacity of the route memo (entries, FIFO eviction).
const ROUTE_MEMO_CAP: usize = 4096;

/// One memoized routing decision of the pruned path. Cheap to clone —
/// candidate lists are shared, so batch fan-out never copies them.
#[derive(Clone)]
enum Route {
    /// The gate admitted the query: its token-postings candidates.
    Token(Arc<Vec<u32>>),
    /// The gate refused; the query runs the exact scan.
    Fallback,
}

/// Bounded FIFO memo of routing decisions, keyed by (folded style,
/// f32-relaxed gate, query text) — the inputs the decision depends on.
#[derive(Default)]
struct RouteMemo {
    map: FxHashMap<(bool, bool, String), Route>,
    fifo: VecDeque<(bool, bool, String)>,
}

/// A pre-encoded semantic KG: verbalised triples, their subject atoms
/// (into the source's table), and the hybrid (postings + vector) index,
/// plus a query-embedding cache.
pub struct BaseIndex {
    /// Verbalised triples in index order.
    pub verbalised: Vec<StrTriple>,
    /// Subject atom of each triple (resolvable in the source).
    pub subjects: Vec<Atom>,
    index: SegmentedIndex,
    cache: QueryCache,
    routes: Mutex<RouteMemo>,
    prune_gate: f32,
    screened: AtomicU64,
    reranked: AtomicU64,
    batches: AtomicU64,
    batch_slots: AtomicU64,
    batch_deduped: AtomicU64,
    pruned_queries: AtomicU64,
    pruned_candidates: AtomicU64,
    gate_fallbacks: AtomicU64,
    route_memo_hits: AtomicU64,
}

impl BaseIndex {
    /// Number of triples.
    pub fn len(&self) -> usize {
        self.verbalised.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.verbalised.is_empty()
    }

    /// The underlying sharded index (one row per triple).
    pub fn segmented(&self) -> &SegmentedIndex {
        &self.index
    }

    /// The stored embedding of triple `id` (global row order).
    pub fn vector(&self, id: usize) -> &[f32] {
        self.index.vector(id)
    }

    /// Encode-worker threads the index build used.
    pub fn build_threads_used(&self) -> usize {
        self.index.build_threads_used()
    }

    /// Query-embedding cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Quantized-scoring counters accumulated over every search this
    /// index served (zero when only [`ScoringMode::ExactF32`] ran).
    pub fn scoring_stats(&self) -> ScoringStats {
        ScoringStats {
            screened: self.screened.load(Ordering::Relaxed),
            reranked: self.reranked.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batch_slots: self.batch_slots.load(Ordering::Relaxed),
            batch_deduped: self.batch_deduped.load(Ordering::Relaxed),
            pruned_queries: self.pruned_queries.load(Ordering::Relaxed),
            pruned_candidates: self.pruned_candidates.load(Ordering::Relaxed),
            gate_fallbacks: self.gate_fallbacks.load(Ordering::Relaxed),
            entity_queries: 0,
            route_memo_hits: self.route_memo_hits.load(Ordering::Relaxed),
        }
    }

    fn record_screen(&self, stats: ScreenStats) {
        self.screened.fetch_add(stats.screened, Ordering::Relaxed);
        self.reranked.fetch_add(stats.reranked, Ordering::Relaxed);
    }

    fn record_pruned(&self, candidates: usize) {
        self.pruned_queries.fetch_add(1, Ordering::Relaxed);
        self.pruned_candidates
            .fetch_add(candidates as u64, Ordering::Relaxed);
    }

    /// Resolve (and memoize) the pruned path's routing decision for
    /// one query. Each unique (folded, gate-relax, text) key is
    /// computed — and counted — exactly once; repeat queries are
    /// served from the bounded memo, and batch fan-out duplicates are
    /// collapsed even earlier by slot dedup. Routing never changes
    /// hits: both routes are bit-identical to the exact scan.
    fn route_query(
        &self,
        embedder: &Embedder,
        text: &str,
        style: QueryStyle,
        scoring: ScoringMode,
    ) -> Route {
        let key = (
            style == QueryStyle::Folded,
            scoring == ScoringMode::ExactF32,
            text.to_string(),
        );
        // The lock is held across the computation on purpose: the
        // counters must tick exactly once per unique key whatever the
        // thread interleaving.
        let mut memo = self.routes.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(r) = memo.map.get(&key) {
            self.route_memo_hits.fetch_add(1, Ordering::Relaxed);
            return r.clone();
        }
        let route = self.compute_route(embedder, text, style, scoring);
        memo.map.insert(key.clone(), route.clone());
        memo.fifo.push_back(key);
        if memo.fifo.len() > ROUTE_MEMO_CAP {
            let old = memo.fifo.pop_front().expect("over-capacity memo");
            memo.map.remove(&old);
        }
        route
    }

    /// The uncached routing decision of the adaptive gate: candidate
    /// generation behind a postings-sum admission estimate.
    /// A refused gate is counted as a fallback, *not* a pruned query,
    /// so `candidate_fraction` keeps describing actual pruned scans.
    fn compute_route(
        &self,
        embedder: &Embedder,
        text: &str,
        style: QueryStyle,
        scoring: ScoringMode,
    ) -> Route {
        let relax = match scoring {
            ScoringMode::QuantizedScreen => 1.0,
            ScoringMode::ExactF32 => GATE_F32_RELAX,
        };
        let max_cands = (self.prune_gate * relax * self.len() as f32) as usize;
        match self
            .index
            .candidates_if_under(embedder, text, style, max_cands)
        {
            Ok(cands) => {
                self.record_pruned(cands.len());
                Route::Token(Arc::new(cands))
            }
            Err(_estimate) => {
                self.gate_fallbacks.fetch_add(1, Ordering::Relaxed);
                Route::Fallback
            }
        }
    }

    /// Build from an explicit set of triples of a source (serial).
    pub fn from_triples(
        source: &KgSource,
        embedder: &Embedder,
        triples: impl IntoIterator<Item = Triple>,
    ) -> Self {
        Self::from_triples_parallel(source, embedder, triples, 1)
    }

    /// Build from triples with `threads` encoder workers (0 =
    /// self-tuning: serial below `semvec::PARALLEL_BUILD_MIN_DOCS`
    /// unique sentences, all cores at or above it). Verbalisation and
    /// assembly are serial and duplicate sentences are encoded once, so
    /// the result is byte-identical across thread counts.
    pub fn from_triples_parallel(
        source: &KgSource,
        embedder: &Embedder,
        triples: impl IntoIterator<Item = Triple>,
        threads: usize,
    ) -> Self {
        let mut verbalised = Vec::new();
        let mut subjects = Vec::new();
        let mut sentences: Vec<String> = Vec::new();
        for t in triples {
            let v = source.verbalize(t);
            let v = StrTriple::new(v.s, semvec::humanize_term(&v.p), v.o);
            sentences.push(v.sentence());
            verbalised.push(v);
            subjects.push(t.s);
        }
        let refs: Vec<&str> = sentences.iter().map(|s| s.as_str()).collect();
        let index =
            SegmentedIndex::build_parallel(embedder, &refs, semvec::SEG_ROWS_DEFAULT, threads);
        Self {
            verbalised,
            subjects,
            index,
            cache: QueryCache::new(),
            routes: Mutex::new(RouteMemo::default()),
            prune_gate: PRUNE_GATE_DEFAULT,
            screened: AtomicU64::new(0),
            reranked: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_slots: AtomicU64::new(0),
            batch_deduped: AtomicU64::new(0),
            pruned_queries: AtomicU64::new(0),
            pruned_candidates: AtomicU64::new(0),
            gate_fallbacks: AtomicU64::new(0),
            route_memo_hits: AtomicU64::new(0),
        }
    }

    /// Override the adaptive pruning gate's candidate-fraction
    /// ceiling. `0.0` routes effectively every overlapping query to
    /// the exact scan; `f32::INFINITY` disables the gate (every
    /// pruned-mode query prunes). Routing only — hits are identical
    /// at any value.
    pub fn with_prune_gate(mut self, gate: f32) -> Self {
        self.prune_gate = gate;
        self
    }

    /// The paper's per-dataset construction: union of question-scoped
    /// extractions over all dataset questions, encoded across all
    /// cores.
    pub fn for_questions<'a>(
        source: &KgSource,
        embedder: &Embedder,
        cfg: &PipelineConfig,
        questions: impl IntoIterator<Item = &'a str>,
    ) -> Self {
        Self::for_questions_with_threads(source, embedder, cfg, questions, 0)
    }

    /// [`for_questions`] with an explicit encoder thread count (1 =
    /// serial reference; the output is identical either way).
    ///
    /// [`for_questions`]: BaseIndex::for_questions
    pub fn for_questions_with_threads<'a>(
        source: &KgSource,
        embedder: &Embedder,
        cfg: &PipelineConfig,
        questions: impl IntoIterator<Item = &'a str>,
        threads: usize,
    ) -> Self {
        let mut seen: FxHashSet<Triple> = FxHashSet::default();
        let mut union: Vec<Triple> = Vec::new();
        for q in questions {
            for t in extract(source, q, &cfg.extract).triples {
                if seen.insert(t) {
                    union.push(t);
                }
            }
        }
        Self::from_triples_parallel(source, embedder, union, threads)
            .with_prune_gate(cfg.prune_gate)
    }

    /// Question-scoped construction (used when no dataset-level index
    /// was prebuilt). Small enough that a serial build wins.
    pub fn for_question(
        source: &KgSource,
        embedder: &Embedder,
        cfg: &PipelineConfig,
        question: &str,
    ) -> Self {
        Self::from_triples(
            source,
            embedder,
            extract(source, question, &cfg.extract).triples,
        )
        .with_prune_gate(cfg.prune_gate)
    }

    /// Encode a query through the embedding cache.
    pub fn query_vector(
        &self,
        embedder: &Embedder,
        text: &str,
        style: QueryStyle,
    ) -> Arc<Vec<f32>> {
        self.cache.get_or_encode(embedder, text, style)
    }

    /// Noisy top-k for a whole batch of queries in one pass over the
    /// base. Each slot's text is encoded per its `style` (pseudo-triple
    /// sentences fold; question-style text does not) and scanned on the
    /// path `mode` × `scoring` selects; result `i` is bit-identical to
    /// `semvec::reference_top_k` over the encoded query with
    /// `slots[i].salt`, whatever the mode, the scoring, the gate's
    /// decision, or the batch around it.
    ///
    /// Slots with the same (style, salt, text) key are encoded and
    /// scanned once; the shared result fans back out to every duplicate
    /// slot.
    pub fn search_batch(
        &self,
        embedder: &Embedder,
        slots: &[QuerySlot<'_>],
        k: usize,
        sigma: f32,
        mode: RetrievalMode,
        scoring: ScoringMode,
    ) -> Vec<Vec<Hit>> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_slots
            .fetch_add(slots.len() as u64, Ordering::Relaxed);
        if slots.is_empty() {
            return Vec::new();
        }

        // Deduplicate: identical (style, salt, text) slots share one
        // scan slot and fan the result back out.
        let mut unique: Vec<usize> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::with_capacity(slots.len());
        let mut seen: FxHashMap<(bool, u64, &str), usize> = FxHashMap::default();
        for s in slots {
            let key = (s.style == QueryStyle::Folded, s.salt, s.text);
            match seen.get(&key) {
                Some(&u) => slot_of.push(u),
                None => {
                    let u = unique.len();
                    seen.insert(key, u);
                    unique.push(slot_of.len());
                    slot_of.push(u);
                }
            }
        }
        self.batch_deduped
            .fetch_add((slots.len() - unique.len()) as u64, Ordering::Relaxed);

        // Encode the unique queries through the cache (a duplicate
        // slot never reaches it, so the cache counts real lookups
        // only).
        let vectors: Vec<Arc<Vec<f32>>> = unique
            .iter()
            .map(|&i| self.query_vector(embedder, slots[i].text, slots[i].style))
            .collect();

        let results: Vec<Vec<Hit>> = match mode {
            RetrievalMode::Exact => {
                let queries: Vec<semvec::NoisyQuery<'_>> = unique
                    .iter()
                    .zip(&vectors)
                    .map(|(&i, v)| semvec::NoisyQuery {
                        vector: v.as_slice(),
                        salt: slots[i].salt,
                    })
                    .collect();
                match scoring {
                    ScoringMode::ExactF32 => self.index.top_k_noisy_batch(&queries, k, sigma),
                    ScoringMode::QuantizedScreen => self
                        .index
                        .top_k_noisy_quant_batch(&queries, k, sigma)
                        .into_iter()
                        .map(|(hits, stats)| {
                            self.record_screen(stats);
                            hits
                        })
                        .collect(),
                }
            }
            RetrievalMode::Pruned => {
                // A gate fallback's *empty* candidate list routes
                // through the pruned engine's documented full-scan
                // fallback, i.e. exactly the exact arm's scan.
                static NO_CANDS: &[u32] = &[];
                let routes: Vec<Route> = unique
                    .iter()
                    .map(|&i| self.route_query(embedder, slots[i].text, slots[i].style, scoring))
                    .collect();
                let pruned: Vec<semvec::BatchSlot<'_>> = unique
                    .iter()
                    .zip(&routes)
                    .zip(&vectors)
                    .map(|((&i, route), v)| semvec::BatchSlot {
                        query: v.as_slice(),
                        cands: match route {
                            Route::Token(cands) => cands.as_slice(),
                            Route::Fallback => NO_CANDS,
                        },
                        salt: slots[i].salt,
                    })
                    .collect();
                match scoring {
                    ScoringMode::ExactF32 => {
                        self.index.top_k_noisy_encoded_batch(&pruned, k, sigma)
                    }
                    ScoringMode::QuantizedScreen => {
                        let (hits, stats) = self
                            .index
                            .top_k_noisy_encoded_quant_batch(&pruned, k, sigma);
                        for s in stats {
                            self.record_screen(s);
                        }
                        hits
                    }
                }
            }
        };

        // Fan the unique results back out to every original slot.
        slot_of.into_iter().map(|u| results[u].clone()).collect()
    }
}

/// One query of a [`BaseIndex::search_batch`] call: the text, how it
/// is encoded, and its jitter salt.
#[derive(Debug, Clone, Copy)]
pub struct QuerySlot<'a> {
    /// Query text.
    pub text: &'a str,
    /// How the text is encoded.
    pub style: QueryStyle,
    /// Jitter stream salt.
    pub salt: u64,
}

/// Intermediate retrieval diagnostics, recorded in traces and used by
/// the error-analysis harness.
#[derive(Debug, Clone, Default)]
pub struct RetrievalStats {
    /// Size of the base index queried.
    pub base_triples: usize,
    /// Distinct pseudo-graph subjects (`k` of pruning step 1).
    pub pseudo_subjects: usize,
    /// Candidate subjects found by querying.
    pub candidate_subjects: usize,
    /// Subjects surviving both pruning steps.
    pub surviving_subjects: usize,
}

/// A substitute executor for the one batched retrieval call a question
/// makes during grounding: hands back, slot for slot, exactly what
/// [`BaseIndex::search_batch`] would return for these slots with the
/// pipeline's (k, sigma, mode, scoring). The serving layer routes this
/// through its cross-question admission batcher; the bit-identity
/// contract of `search_batch` makes the substitution outcome-neutral.
pub type GroundBatchFn<'h> = dyn Fn(&[QuerySlot<'_>]) -> Vec<Vec<Hit>> + 'h;

/// Run semantic querying + two-step pruning for one question against a
/// base index.
pub fn ground_graph(
    source: &KgSource,
    base: &BaseIndex,
    embedder: &Embedder,
    cfg: &PipelineConfig,
    pseudo: &[StrTriple],
) -> (GroundGraph, RetrievalStats) {
    ground_graph_with(source, base, embedder, cfg, pseudo, None)
}

/// [`ground_graph`] with an optional substitute for the batched
/// retrieval call (`None` ⇒ call `base.search_batch` directly).
pub fn ground_graph_with(
    source: &KgSource,
    base: &BaseIndex,
    embedder: &Embedder,
    cfg: &PipelineConfig,
    pseudo: &[StrTriple],
    batch_fn: Option<&GroundBatchFn<'_>>,
) -> (GroundGraph, RetrievalStats) {
    let mut stats = RetrievalStats {
        base_triples: base.len(),
        ..Default::default()
    };
    if base.is_empty() || pseudo.is_empty() {
        return (GroundGraph::default(), stats);
    }

    // Distinct pseudo subjects define k.
    let mut pseudo_subjects: Vec<&str> = Vec::new();
    for t in pseudo {
        if !pseudo_subjects.iter().any(|s| s.eq_ignore_ascii_case(&t.s)) {
            pseudo_subjects.push(&t.s);
        }
    }
    let k = pseudo_subjects.len().max(1);
    stats.pseudo_subjects = k;

    // Per-base-triple best similarity across pseudo-triple queries:
    // every pseudo-triple's query goes into one batched pass (identical
    // sentences share a slot).
    let sentences: Vec<String> = pseudo.iter().map(verbalize_triple).collect();
    let slots: Vec<QuerySlot<'_>> = sentences
        .iter()
        .map(|s| QuerySlot {
            text: s,
            style: QueryStyle::Folded,
            salt: kgstore::hash::stable_str_hash(s),
        })
        .collect();
    let per_query: Vec<Vec<Hit>> = match batch_fn {
        Some(f) => f(&slots),
        None => base.search_batch(
            embedder,
            &slots,
            cfg.top_k,
            cfg.retrieval_jitter,
            cfg.retrieval_mode,
            cfg.scoring_mode,
        ),
    };
    let mut best_score: FxHashMap<usize, f32> = FxHashMap::default();
    for hit in per_query.into_iter().flatten() {
        let e = best_score.entry(hit.id).or_insert(f32::MIN);
        if hit.score > *e {
            *e = hit.score;
        }
    }

    // Group retrieved triples by subject entity.
    struct Agg {
        count: usize,
        score_sum: f32,
    }
    let mut by_subject: FxHashMap<Atom, Agg> = FxHashMap::default();
    // detlint: allow(DL001) f32 score_sum accumulation order is pinned:
    // re-ordering changes low-order float bits of mean_score and can
    // flip near-tie pruning. Fx iteration is deterministic run-to-run.
    for (&idx, &score) in &best_score {
        let c = by_subject.entry(base.subjects[idx]).or_insert(Agg {
            count: 0,
            score_sum: 0.0,
        });
        c.count += 1;
        c.score_sum += score;
    }
    stats.candidate_subjects = by_subject.len();

    // Pruning (paper rule or a configured alternative).
    let candidates: Vec<Candidate> = by_subject
        // detlint: allow(DL001) candidate order is pinned: downstream
        // pruning resolves score ties by input order, so re-ordering
        // here would change which subjects survive.
        .into_iter()
        .map(|(a, c)| Candidate {
            subject: a,
            count: c.count,
            mean_score: c.score_sum / c.count as f32,
            popularity: source.meta.popularity(a) as f32,
        })
        .collect();
    let survivors = cfg.prune.apply(candidates, k, cfg.entity_threshold);
    stats.surviving_subjects = survivors.len();

    // Materialise the ground graph: *all* of each surviving subject's
    // triples in the source (capped), so the verifier sees complete
    // member lists, not just the retrieved sample.
    let entities = survivors
        .into_iter()
        .map(|(subject, score)| {
            let mut triples: Vec<StrTriple> = source
                .store
                .by_subject(subject)
                .take(cfg.max_entity_triples)
                .map(|t| {
                    let v = source.verbalize(t);
                    StrTriple::new(v.s, semvec::humanize_term(&v.p), v.o)
                })
                .collect();
            triples.sort();
            triples.dedup();
            let meta = source.meta.get(subject);
            GroundEntity {
                label: source.label_of(subject).to_string(),
                description: meta.map(|m| m.description.clone()).unwrap_or_default(),
                score,
                triples,
            }
        })
        .collect();

    (GroundGraph { entities }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgstore::{EntityMeta, SchemaStyle};

    fn source() -> KgSource {
        let mut src = KgSource::new("t", SchemaStyle::WikidataLike);
        for (id, label, pop, desc) in [
            ("Q1", "Yao Ming", 0.95, "basketball player"),
            ("Q2", "Yao Ming", 0.05, "Song dynasty poet"),
            ("Q3", "Shanghai", 0.8, "city"),
            ("Q4", "China", 0.9, "country"),
        ] {
            src.add_entity(
                id,
                EntityMeta {
                    label: label.into(),
                    aliases: vec![],
                    description: desc.into(),
                    popularity: pop,
                },
            );
        }
        // Popular Yao Ming: rich facts.
        src.add_fact("Q1", "place of birth", "Q3");
        src.add_fact("Q1", "occupation", "basketball player");
        src.add_fact("Q1", "country of citizenship", "Q4");
        src.add_fact("Q1", "description", "basketball player");
        // Namesake: sparse facts.
        src.add_fact("Q2", "era", "Song dynasty");
        src.add_fact("Q3", "country", "Q4");
        src
    }

    fn cfg() -> PipelineConfig {
        PipelineConfig::default()
    }

    fn base_for(src: &KgSource, emb: &Embedder, question: &str) -> BaseIndex {
        BaseIndex::for_question(src, emb, &cfg(), question)
    }

    const MODES: [(RetrievalMode, ScoringMode); 4] = [
        (RetrievalMode::Pruned, ScoringMode::QuantizedScreen),
        (RetrievalMode::Pruned, ScoringMode::ExactF32),
        (RetrievalMode::Exact, ScoringMode::QuantizedScreen),
        (RetrievalMode::Exact, ScoringMode::ExactF32),
    ];

    /// One query through [`BaseIndex::search_batch`].
    #[allow(clippy::too_many_arguments)]
    fn search_one(
        base: &BaseIndex,
        emb: &Embedder,
        text: &str,
        k: usize,
        sigma: f32,
        salt: u64,
        mode: RetrievalMode,
        scoring: ScoringMode,
    ) -> Vec<Hit> {
        let slot = QuerySlot {
            text,
            style: QueryStyle::Folded,
            salt,
        };
        base.search_batch(emb, &[slot], k, sigma, mode, scoring)
            .pop()
            .expect("one slot in, one result out")
    }

    /// The naive oracle for one query slot over the base's rows.
    fn oracle(
        base: &BaseIndex,
        emb: &Embedder,
        slot: &QuerySlot<'_>,
        k: usize,
        sigma: f32,
    ) -> Vec<Hit> {
        let q = match slot.style {
            QueryStyle::Folded => emb.encode(slot.text),
            QueryStyle::Unfolded => emb.encode_unfolded(slot.text),
        };
        semvec::reference_top_k(base.segmented(), &q, k, sigma, slot.salt)
    }

    /// The ground graph the oracle's hits produce, for comparison with
    /// every retrieval × scoring mode.
    fn oracle_ground(
        src: &KgSource,
        base: &BaseIndex,
        emb: &Embedder,
        c: &PipelineConfig,
        pseudo: &[StrTriple],
    ) -> GroundGraph {
        let by_oracle = |slots: &[QuerySlot<'_>]| {
            slots
                .iter()
                .map(|s| oracle(base, emb, s, c.top_k, c.retrieval_jitter))
                .collect()
        };
        ground_graph_with(src, base, emb, c, pseudo, Some(&by_oracle)).0
    }

    fn assert_same_ground(a: &GroundGraph, b: &GroundGraph, what: &str) {
        assert_eq!(a.entities.len(), b.entities.len(), "{what}");
        for (x, y) in a.entities.iter().zip(&b.entities) {
            assert_eq!(x.label, y.label, "{what}");
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "{what}: scores must be bit-identical"
            );
            assert_eq!(x.triples, y.triples, "{what}");
        }
    }

    #[test]
    fn retrieves_and_disambiguates_popular_entity() {
        let src = source();
        let emb = Embedder::default();
        let base = base_for(&src, &emb, "Where was Yao Ming born?");
        let pseudo = vec![StrTriple::new("Yao Ming", "BORN_IN", "Beijing")];
        let (g, stats) = ground_graph(&src, &base, &emb, &cfg(), &pseudo);
        assert!(stats.base_triples >= 5);
        assert!(!g.is_empty(), "ground graph empty: {stats:?}");
        // The popular Yao Ming (more matching triples) must rank first.
        assert_eq!(g.entities[0].label, "Yao Ming");
        assert_eq!(g.entities[0].description, "basketball player");
        // And its triples must include the birth fact.
        assert!(g.entities[0]
            .triples
            .iter()
            .any(|t| t.p.contains("birth") && t.o == "Shanghai"));
    }

    #[test]
    fn dataset_level_index_unions_questions() {
        let src = source();
        let emb = Embedder::default();
        let base = BaseIndex::for_questions(
            &src,
            &emb,
            &cfg(),
            ["Where was Yao Ming born?", "In which country is Shanghai?"],
        );
        let single = base_for(&src, &emb, "Where was Yao Ming born?");
        assert!(base.len() >= single.len());
    }

    #[test]
    fn parallel_build_matches_serial_build() {
        let src = source();
        let emb = Embedder::default();
        let questions = ["Where was Yao Ming born?", "In which country is Shanghai?"];
        let serial = BaseIndex::for_questions_with_threads(&src, &emb, &cfg(), questions, 1);
        let parallel = BaseIndex::for_questions_with_threads(&src, &emb, &cfg(), questions, 4);
        assert_eq!(serial.verbalised, parallel.verbalised);
        assert_eq!(serial.subjects, parallel.subjects);
        for id in 0..serial.len() {
            assert_eq!(serial.vector(id), parallel.vector(id));
        }
    }

    #[test]
    fn pruned_and_exact_modes_agree_on_ground_graphs() {
        let src = source();
        let emb = Embedder::default();
        let base = base_for(&src, &emb, "Where was Yao Ming born in Shanghai?");
        let pseudo = vec![
            StrTriple::new("Yao Ming", "BORN_IN", "Shanghai"),
            StrTriple::new("Shanghai", "LOCATED_IN", "China"),
        ];
        let want = oracle_ground(&src, &base, &emb, &cfg(), &pseudo);
        assert!(!want.is_empty());
        for mode in [RetrievalMode::Pruned, RetrievalMode::Exact] {
            let mut c = cfg();
            c.retrieval_mode = mode;
            let (g, _) = ground_graph(&src, &base, &emb, &c, &pseudo);
            assert_same_ground(&g, &want, &format!("{mode:?}"));
        }
    }

    #[test]
    fn quantized_and_exact_scoring_agree_on_ground_graphs() {
        let src = source();
        let emb = Embedder::default();
        let base = base_for(&src, &emb, "Where was Yao Ming born in Shanghai?");
        let pseudo = vec![
            StrTriple::new("Yao Ming", "BORN_IN", "Shanghai"),
            StrTriple::new("Shanghai", "LOCATED_IN", "China"),
        ];
        let want = oracle_ground(&src, &base, &emb, &cfg(), &pseudo);
        for (mode, scoring) in MODES {
            let mut c = cfg();
            c.retrieval_mode = mode;
            c.scoring_mode = scoring;
            let (g, _) = ground_graph(&src, &base, &emb, &c, &pseudo);
            assert_same_ground(&g, &want, &format!("{mode:?}/{scoring:?}"));
        }
        let stats = base.scoring_stats();
        assert!(stats.screened > 0, "quantized default path never engaged");
        assert!(stats.reranked <= stats.screened);
    }

    #[test]
    fn query_cache_hits_on_repeat_queries() {
        let src = source();
        let emb = Embedder::default();
        let base = base_for(&src, &emb, "Where was Yao Ming born?");
        let pseudo = vec![StrTriple::new("Yao Ming", "BORN_IN", "Beijing")];
        let (first, _) = ground_graph(&src, &base, &emb, &cfg(), &pseudo);
        let after_first = base.cache_stats();
        assert!(after_first.misses >= 1);
        assert!(after_first.entries >= 1);
        let (second, _) = ground_graph(&src, &base, &emb, &cfg(), &pseudo);
        let after_second = base.cache_stats();
        assert!(
            after_second.hits > after_first.hits,
            "repeat query must hit: {after_second:?}"
        );
        assert_eq!(after_second.misses, after_first.misses);
        assert_eq!(first.entities.len(), second.entities.len());
        for (a, b) in first.entities.iter().zip(&second.entities) {
            assert_eq!(a.score, b.score, "cached encode must not change scores");
        }
    }

    #[test]
    fn cache_evicts_per_entry_not_wholesale() {
        let emb = Embedder::default();
        let cache = QueryCache::with_caps(4, 12);
        for i in 0..20 {
            cache.get_or_encode(&emb, &format!("probe query {i}"), QueryStyle::Folded);
        }
        let s = cache.stats();
        // 20 one-shot keys through a 4-slot probation: the segment
        // stays full the whole time — never wiped — shedding exactly
        // one entry per overflowing insert.
        assert_eq!(s.entries, 4, "{s:?}");
        assert_eq!(s.evictions, 16, "{s:?}");
        assert_eq!(s.misses, 20, "{s:?}");
        assert_eq!(s.hits, 0, "{s:?}");
    }

    #[test]
    fn hot_working_set_wider_than_probation_is_not_wiped() {
        let emb = Embedder::default();
        // Probation holds 4, total capacity 16; the hot set is 8 —
        // larger than one segment, smaller than the cache.
        let cache = QueryCache::with_caps(4, 12);
        let keys: Vec<String> = (0..8).map(|i| format!("hot query {i}")).collect();
        // Round 1: all miss into probation; the first half is pushed
        // out (as ghosts) by the second. Round 2: the ghosted half
        // re-misses straight into protected, the rest hit and promote.
        for _ in 0..2 {
            for k in &keys {
                cache.get_or_encode(&emb, k, QueryStyle::Folded);
            }
        }
        let warm = cache.stats();
        // From round 3 on, the working set is resident: every access
        // hits, nothing is evicted.
        for _ in 0..3 {
            for k in &keys {
                cache.get_or_encode(&emb, k, QueryStyle::Folded);
            }
        }
        let s = cache.stats();
        assert_eq!(
            s.hits - warm.hits,
            24,
            "all post-warmup accesses hit: {s:?}"
        );
        assert_eq!(s.misses, warm.misses, "{s:?}");
        assert_eq!(s.evictions, warm.evictions, "{s:?}");
        assert_eq!(s.entries, 8, "whole working set resident: {s:?}");
    }

    #[test]
    fn cache_hit_returns_identical_bits() {
        let emb = Embedder::default();
        let cache = QueryCache::with_caps(4, 12);
        let fresh = emb.encode("Where was Yao Ming born?");
        let a = cache.get_or_encode(&emb, "Where was Yao Ming born?", QueryStyle::Folded);
        let b = cache.get_or_encode(&emb, "Where was Yao Ming born?", QueryStyle::Folded);
        assert!(a
            .iter()
            .zip(fresh.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        assert!(
            Arc::ptr_eq(&a, &b),
            "second lookup must be served from cache"
        );
        // Folded and unfolded are distinct keys.
        cache.get_or_encode(&emb, "Where was Yao Ming born?", QueryStyle::Unfolded);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn k_limits_candidates_to_pseudo_subject_count() {
        let src = source();
        let emb = Embedder::default();
        let base = base_for(&src, &emb, "Where was Yao Ming born?");
        let pseudo = vec![StrTriple::new("Yao Ming", "BORN_IN", "Beijing")];
        let (g, _) = ground_graph(&src, &base, &emb, &cfg(), &pseudo);
        assert!(g.entities.len() <= 1);
    }

    #[test]
    fn high_threshold_prunes_everything() {
        // The paper's Figure-7 failure mode: threshold too high → all
        // entities pruned.
        let src = source();
        let emb = Embedder::default();
        let base = base_for(&src, &emb, "Where was Yao Ming born?");
        let pseudo = vec![StrTriple::new("Yao Ming", "BORN_IN", "Beijing")];
        let mut c = cfg();
        c.entity_threshold = 0.99;
        let (g, stats) = ground_graph(&src, &base, &emb, &c, &pseudo);
        assert!(g.is_empty());
        assert!(stats.candidate_subjects > 0);
        assert_eq!(stats.surviving_subjects, 0);
    }

    #[test]
    fn empty_pseudo_graph_yields_empty_ground_graph() {
        let src = source();
        let emb = Embedder::default();
        let base = base_for(&src, &emb, "Where was Yao Ming born?");
        let (g, _) = ground_graph(&src, &base, &emb, &cfg(), &[]);
        assert!(g.is_empty());
    }

    #[test]
    fn unmatched_question_yields_empty_base() {
        let src = source();
        let emb = Embedder::default();
        let base = base_for(&src, &emb, "What is love?");
        let pseudo = vec![StrTriple::new("Nobody", "KNOWS", "Nothing")];
        let (g, stats) = ground_graph(&src, &base, &emb, &cfg(), &pseudo);
        assert_eq!(stats.base_triples, 0);
        assert!(g.is_empty());
    }

    #[test]
    fn ghost_readmission_across_eviction_boundary() {
        let emb = Embedder::default();
        // Probation holds 2: the third one-shot key evicts the first,
        // ghosting it.
        let cache = QueryCache::with_caps(2, 8);
        cache.get_or_encode(&emb, "ghost key", QueryStyle::Folded);
        cache.get_or_encode(&emb, "filler one", QueryStyle::Folded);
        cache.get_or_encode(&emb, "filler two", QueryStyle::Folded);
        let s = cache.stats();
        assert_eq!(s.evictions, 1, "oldest probation entry evicted: {s:?}");
        // Re-missing the ghosted key must insert straight into the
        // protected segment: further probation churn can't touch it.
        cache.get_or_encode(&emb, "ghost key", QueryStyle::Folded);
        let after_readmit = cache.stats();
        assert_eq!(after_readmit.misses, 4, "{after_readmit:?}");
        for i in 0..6 {
            cache.get_or_encode(&emb, &format!("churn {i}"), QueryStyle::Folded);
        }
        cache.get_or_encode(&emb, "ghost key", QueryStyle::Folded);
        let s = cache.stats();
        assert_eq!(
            s.misses,
            after_readmit.misses + 6,
            "re-admitted ghost survives probation churn (hits, not re-misses): {s:?}"
        );
        assert_eq!(s.hits, 1, "{s:?}");
    }

    #[test]
    fn concurrent_get_or_encode_counters_are_monotonic_and_complete() {
        let emb = Embedder::default();
        let cache = Arc::new(QueryCache::with_caps(8, 24));
        const THREADS: usize = 8;
        const PER_THREAD: usize = 100;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = Arc::clone(&cache);
                let emb = &emb;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Shared keys (contended) interleaved with
                        // thread-private keys (guaranteed misses).
                        let text = if i % 2 == 0 {
                            format!("shared {}", i % 8)
                        } else {
                            format!("private {t} {i}")
                        };
                        let v = cache.get_or_encode(emb, &text, QueryStyle::Folded);
                        assert!(!v.is_empty());
                    }
                });
            }
        });
        let s = cache.stats();
        // Every access was classified exactly once, whatever the
        // interleaving.
        assert_eq!(
            s.hits + s.misses,
            (THREADS * PER_THREAD) as u64,
            "each access counts once: {s:?}"
        );
        // The 400 private keys can never hit.
        assert!(s.misses >= (THREADS * PER_THREAD / 2) as u64, "{s:?}");
        // The 8 shared keys were accessed 400 times; at most 8 first
        // encounters (plus concurrent-miss races, bounded by accesses)
        // were misses, so hits must be substantial.
        assert!(s.hits > 0, "{s:?}");
    }

    #[test]
    fn batch_dedup_fans_out_identical_hits() {
        let src = source();
        let emb = Embedder::default();
        let base = base_for(&src, &emb, "Where was Yao Ming born in Shanghai?");
        let text_a = "Yao Ming place of birth Shanghai";
        let text_b = "Shanghai country China";
        let salt_a = kgstore::hash::stable_str_hash(text_a);
        let salt_b = kgstore::hash::stable_str_hash(text_b);
        let slots = [
            QuerySlot {
                text: text_a,
                style: QueryStyle::Folded,
                salt: salt_a,
            },
            QuerySlot {
                text: text_b,
                style: QueryStyle::Folded,
                salt: salt_b,
            },
            QuerySlot {
                text: text_a,
                style: QueryStyle::Folded,
                salt: salt_a,
            },
            QuerySlot {
                text: text_a,
                style: QueryStyle::Folded,
                salt: salt_a,
            },
        ];
        for (mode, scoring) in MODES {
            let results = base.search_batch(&emb, &slots, 5, 0.3, mode, scoring);
            assert_eq!(results.len(), 4);
            // Every slot, duplicates included, equals the oracle.
            for (r, s) in results.iter().zip(&slots) {
                assert_eq!(r, &oracle(&base, &emb, s, 5, 0.3), "{mode:?}/{scoring:?}");
            }
        }
        let stats = base.scoring_stats();
        assert_eq!(stats.batches, 4, "{stats:?}");
        assert_eq!(stats.batch_slots, 16, "{stats:?}");
        // Two duplicate slots collapsed per batch.
        assert_eq!(stats.batch_deduped, 8, "{stats:?}");
        assert!(stats.mean_batch_width() == 4.0, "{stats:?}");
        assert!(stats.dedup_rate() == 0.5, "{stats:?}");
        // Deduplicated slots never reach the cache: it counts the two
        // unique texts per batch only.
        let cache = base.cache_stats();
        assert_eq!(cache.hits + cache.misses, 8, "{cache:?}");
        assert_eq!(cache.misses, 2, "{cache:?}");
    }

    #[test]
    fn scores_are_sorted_descending() {
        let src = source();
        let emb = Embedder::default();
        let base = base_for(&src, &emb, "Where was Yao Ming born in Shanghai?");
        let pseudo = vec![
            StrTriple::new("Yao Ming", "BORN_IN", "Shanghai"),
            StrTriple::new("Shanghai", "LOCATED_IN", "China"),
        ];
        let (g, _) = ground_graph(&src, &base, &emb, &cfg(), &pseudo);
        for pair in g.entities.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn adaptive_gate_routes_without_changing_hits() {
        let src = source();
        let emb = Embedder::default();
        let slot = QuerySlot {
            text: "Yao Ming born Shanghai",
            style: QueryStyle::Folded,
            salt: 7,
        };
        // A closed gate (0.0) refuses every overlapping query; a
        // disabled gate (∞) admits every one. Hits must equal the
        // oracle at both extremes and in between.
        for gate in [0.0_f32, 0.05, f32::INFINITY] {
            let base = base_for(&src, &emb, "Where was Yao Ming born?").with_prune_gate(gate);
            let want = oracle(&base, &emb, &slot, 4, 0.3);
            for (mode, scoring) in MODES {
                let got = search_one(&base, &emb, slot.text, 4, 0.3, 7, mode, scoring);
                assert_eq!(got, want, "gate {gate} under {mode:?}/{scoring:?}");
            }
        }
    }

    #[test]
    fn gate_decisions_are_counted_and_disjoint() {
        let src = source();
        let emb = Embedder::default();
        let query = "Yao Ming born Shanghai";
        let pruned = |base: &BaseIndex| {
            search_one(
                base,
                &emb,
                query,
                4,
                0.3,
                7,
                RetrievalMode::Pruned,
                ScoringMode::QuantizedScreen,
            )
        };

        // Closed gate: the overlapping query must fall back, and the
        // fallback must NOT count as a pruned query (candidate
        // fraction keeps describing scans that actually pruned).
        let closed = base_for(&src, &emb, "Where was Yao Ming born?").with_prune_gate(0.0);
        pruned(&closed);
        let s = closed.scoring_stats();
        assert_eq!(s.gate_fallbacks, 1, "{s:?}");
        assert_eq!(s.pruned_queries, 0, "{s:?}");

        // Disabled gate: same query prunes, no fallback.
        let open = base_for(&src, &emb, "Where was Yao Ming born?").with_prune_gate(f32::INFINITY);
        pruned(&open);
        let s = open.scoring_stats();
        assert_eq!(s.gate_fallbacks, 0, "{s:?}");
        assert_eq!(s.pruned_queries, 1, "{s:?}");
        assert_eq!(s.entity_queries, 0, "no entity route: {s:?}");

        // Duplicate slots are one decision.
        let batched = base_for(&src, &emb, "Where was Yao Ming born?").with_prune_gate(0.0);
        let slots = [
            QuerySlot {
                text: query,
                style: QueryStyle::Folded,
                salt: 7,
            },
            QuerySlot {
                text: query,
                style: QueryStyle::Folded,
                salt: 7,
            },
        ];
        let hits = batched.search_batch(
            &emb,
            &slots,
            4,
            0.3,
            RetrievalMode::Pruned,
            ScoringMode::QuantizedScreen,
        );
        assert_eq!(hits[0], hits[1], "dedup fans out the fallback result");
        let s = batched.scoring_stats();
        assert_eq!(s.gate_fallbacks, 1, "one unique slot, one decision: {s:?}");
        assert_eq!(s.pruned_queries, 0, "{s:?}");
    }

    #[test]
    fn route_memo_decides_each_unique_query_once() {
        let src = source();
        let emb = Embedder::default();
        let query = "Yao Ming born Shanghai";
        let base = base_for(&src, &emb, "Where was Yao Ming born?").with_prune_gate(0.0);
        for _ in 0..3 {
            search_one(
                &base,
                &emb,
                query,
                4,
                0.3,
                7,
                RetrievalMode::Pruned,
                ScoringMode::QuantizedScreen,
            );
        }
        let s = base.scoring_stats();
        assert_eq!(s.gate_fallbacks, 1, "decision computed once: {s:?}");
        assert_eq!(s.route_memo_hits, 2, "repeats served from the memo: {s:?}");
        // The f32-relaxed gate is a distinct memo key: same text, new
        // decision.
        search_one(
            &base,
            &emb,
            query,
            4,
            0.3,
            7,
            RetrievalMode::Pruned,
            ScoringMode::ExactF32,
        );
        let s = base.scoring_stats();
        assert_eq!(
            s.gate_fallbacks + s.pruned_queries,
            2,
            "distinct relax keys decide separately: {s:?}"
        );
    }
}
