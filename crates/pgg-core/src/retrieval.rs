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
//! (fixed-size segments, each with its own int8 quant shadow), and
//! dataset-level builds encode across threads with deterministic
//! output. Every question's queries run as one deduplicated
//! [`BaseIndex::search_batch`] call: each unique query encoded, then
//! one batched int8 screen over the whole base with an exact f32
//! rerank, bit-identical to the naive oracle `semvec::reference_top_k`
//! (see `semvec::seg` for the proof). A search is a pure function of
//! the index and its slots; the index's only shared mutable state is
//! its telemetry counters.

use crate::config::PipelineConfig;
use crate::prune::Candidate;
use kgstore::hash::{FxHashMap, FxHashSet};
use kgstore::{extract, Atom, KgSource, StrTriple, Triple};
use semvec::{verbalize_triple, Embedder, Hit, QueryStyle, ScreenStats, SegmentedIndex};
use simllm::{GroundEntity, GroundGraph};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which documents a search scans: always every indexed triple.
/// [`BaseIndex::search_batch`] ignores it. The type stays, with one
/// variant, only because the QA benchmark (`qabench/`) passes
/// [`PipelineConfig::retrieval_mode`] to `search_batch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetrievalMode {
    /// Scan every indexed triple.
    #[default]
    Exact,
}

/// How a search scores each scanned document: always the int8 screen
/// of every document with an exact f32 rerank of everything within the
/// provable per-pair error bound of the quantized k-th score (see
/// [`semvec::quant`]). [`BaseIndex::search_batch`] ignores it. The type
/// stays, with one variant, only because the QA benchmark (`qabench/`)
/// passes [`PipelineConfig::scoring_mode`] to `search_batch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoringMode {
    /// Int8 screen, exact f32 rerank.
    #[default]
    QuantizedScreen,
}

/// Counters of the query-embedding cache retrieval once had: always
/// zero. A search encodes each unique slot afresh, so there is nothing
/// to hit, miss or evict. The type and [`BaseIndex::cache_stats`] stay
/// only because the QA benchmark's traced replay (`qabench/`) still
/// reads them.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Always zero.
    pub hits: u64,
    /// Always zero.
    pub misses: u64,
    /// Always zero.
    pub evictions: u64,
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
    /// Always zero. Retrieval has no pruned route; this field and the
    /// three below stay because the QA benchmark's traced replay
    /// (`qabench/`) still reads them.
    pub pruned_queries: u64,
    /// Always zero (see `pruned_queries`).
    pub pruned_candidates: u64,
    /// Always zero (see `pruned_queries`).
    pub gate_fallbacks: u64,
    /// Always zero (see `pruned_queries`).
    pub entity_queries: u64,
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
}

/// A pre-encoded semantic KG: verbalised triples, their subject atoms
/// (into the source's table), and their vector index, plus scan
/// counters.
pub struct BaseIndex {
    /// Verbalised triples in index order.
    pub verbalised: Vec<StrTriple>,
    /// Subject atom of each triple (resolvable in the source).
    pub subjects: Vec<Atom>,
    index: SegmentedIndex,
    screened: AtomicU64,
    reranked: AtomicU64,
    batches: AtomicU64,
    batch_slots: AtomicU64,
    batch_deduped: AtomicU64,
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

    /// Always zero: there is no query-embedding cache (see
    /// [`CacheStats`], kept only for the QA benchmark).
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Scan counters accumulated over every search this index served.
    pub fn scoring_stats(&self) -> ScoringStats {
        ScoringStats {
            screened: self.screened.load(Ordering::Relaxed),
            reranked: self.reranked.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batch_slots: self.batch_slots.load(Ordering::Relaxed),
            batch_deduped: self.batch_deduped.load(Ordering::Relaxed),
            pruned_queries: 0,
            pruned_candidates: 0,
            gate_fallbacks: 0,
            entity_queries: 0,
        }
    }

    fn record_screen(&self, stats: ScreenStats) {
        self.screened.fetch_add(stats.screened, Ordering::Relaxed);
        self.reranked.fetch_add(stats.reranked, Ordering::Relaxed);
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
            screened: AtomicU64::new(0),
            reranked: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_slots: AtomicU64::new(0),
            batch_deduped: AtomicU64::new(0),
        }
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
    }

    /// Noisy top-k for a whole batch of queries in one pass over the
    /// base. Each slot's text is encoded per its `style` (pseudo-triple
    /// sentences fold; question-style text does not) and scanned by
    /// `semvec::SegmentedIndex::top_k_noisy_quant_batch`; result `i` is
    /// bit-identical to `semvec::reference_top_k` over the encoded query
    /// with `slots[i].salt`, whatever the batch around it. The two mode
    /// arguments are ignored (each type has one value; see
    /// [`RetrievalMode`]).
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
        _mode: RetrievalMode,
        _scoring: ScoringMode,
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

        let vectors: Vec<Vec<f32>> = unique
            .iter()
            .map(|&i| match slots[i].style {
                QueryStyle::Folded => embedder.encode(slots[i].text),
                QueryStyle::Unfolded => embedder.encode_unfolded(slots[i].text),
            })
            .collect();

        let queries: Vec<semvec::NoisyQuery<'_>> = unique
            .iter()
            .zip(&vectors)
            .map(|(&i, v)| semvec::NoisyQuery {
                vector: v.as_slice(),
                salt: slots[i].salt,
            })
            .collect();
        let results: Vec<Vec<Hit>> = self
            .index
            .top_k_noisy_quant_batch(&queries, k, sigma)
            .into_iter()
            .map(|(hits, stats)| {
                self.record_screen(stats);
                hits
            })
            .collect();

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
/// pipeline's (k, sigma). The pipeline never substitutes one; the
/// grounding tests pass the naive oracle through it, and the QA
/// benchmark's traced replay (`qabench/`) a timed `search_batch`.
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
    // Keyed in doc-id order, so each subject's score sum below
    // accumulates in that order whatever the hasher.
    let mut best_score: BTreeMap<usize, f32> = BTreeMap::new();
    for hit in per_query.into_iter().flatten() {
        let e = best_score.entry(hit.id).or_insert(f32::MIN);
        if hit.score > *e {
            *e = hit.score;
        }
    }

    // Group retrieved triples by subject entity, in atom order.
    struct Agg {
        count: usize,
        score_sum: f32,
    }
    let mut by_subject: BTreeMap<Atom, Agg> = BTreeMap::new();
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
    /// the scan's.
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
    fn ground_graph_matches_the_oracle_ground() {
        let src = source();
        let emb = Embedder::default();
        let base = base_for(&src, &emb, "Where was Yao Ming born in Shanghai?");
        let pseudo = vec![
            StrTriple::new("Yao Ming", "BORN_IN", "Shanghai"),
            StrTriple::new("Shanghai", "LOCATED_IN", "China"),
        ];
        let want = oracle_ground(&src, &base, &emb, &cfg(), &pseudo);
        assert!(!want.is_empty());
        let (g, _) = ground_graph(&src, &base, &emb, &cfg(), &pseudo);
        assert_same_ground(&g, &want, "scan vs oracle");
        let stats = base.scoring_stats();
        assert!(stats.screened > 0, "the int8 screen never engaged");
        assert!(stats.reranked <= stats.screened);
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
        for _ in 0..2 {
            let results = base.search_batch(
                &emb,
                &slots,
                5,
                0.3,
                RetrievalMode::Exact,
                ScoringMode::QuantizedScreen,
            );
            assert_eq!(results.len(), 4);
            // Every slot, duplicates included, equals the oracle.
            for (r, s) in results.iter().zip(&slots) {
                assert_eq!(r, &oracle(&base, &emb, s, 5, 0.3));
            }
        }
        let stats = base.scoring_stats();
        assert_eq!(stats.batches, 2, "{stats:?}");
        assert_eq!(stats.batch_slots, 8, "{stats:?}");
        // Two duplicate slots collapsed per batch.
        assert_eq!(stats.batch_deduped, 4, "{stats:?}");
        assert!(stats.mean_batch_width() == 4.0, "{stats:?}");
        assert!(stats.dedup_rate() == 0.5, "{stats:?}");
        // The counters kept for the QA benchmark never move.
        assert_eq!(stats.pruned_queries, 0, "{stats:?}");
        assert_eq!(stats.pruned_candidates, 0, "{stats:?}");
        assert_eq!(stats.gate_fallbacks, 0, "{stats:?}");
        assert_eq!(stats.entity_queries, 0, "{stats:?}");
        let cache = base.cache_stats();
        assert_eq!(cache.hits, 0, "{cache:?}");
        assert_eq!(cache.misses, 0, "{cache:?}");
        assert_eq!(cache.evictions, 0, "{cache:?}");
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
}
