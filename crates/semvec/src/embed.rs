//! The deterministic sentence encoder (Sentence-BERT stand-in).
//!
//! Feature-hashing bag of normalised tokens plus character-trigram
//! sub-word features, signed-hashed into a fixed-dimension dense vector
//! and L2-normalised. Cosine similarity over these vectors has the one
//! property the pipeline depends on: verbalisations sharing content
//! words (after stemming and synonym folding) score high; unrelated text
//! scores near zero.

use crate::idf::IdfModel;
use crate::synonym::SynonymTable;
use crate::token::{for_each_trigram, normalize};
use kgstore::hash::{mix2, stable_str_hash};
use std::sync::Arc;

/// Dense embedding vector.
pub type Vector = Vec<f32>;

/// How a query text is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStyle {
    /// Tokens are synonym-folded before hashing ([`Embedder::encode`]).
    Folded,
    /// Tokens are hashed raw ([`Embedder::encode_unfolded`]).
    Unfolded,
}

/// Configuration of the encoder.
#[derive(Debug, Clone)]
pub struct EmbedConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Weight of word-level features.
    pub word_weight: f32,
    /// Weight of character-trigram features (0 disables them).
    pub char_weight: f32,
    /// Number of hash probes per feature (each adds a signed component).
    pub probes: usize,
    /// Semantic-geometry noise in `[0, 1)`: each text receives a
    /// deterministic pseudo-random component of this relative magnitude.
    /// Models the imperfect geometry of a real sentence encoder — two
    /// paraphrases of the same fact do not score cosine 1.0, and
    /// retrieval recall@k degrades as the index grows. 0 disables.
    pub noise: f32,
}

impl Default for EmbedConfig {
    fn default() -> Self {
        Self {
            dim: 256,
            word_weight: 1.0,
            char_weight: 0.25,
            probes: 2,
            noise: 0.0,
        }
    }
}

/// The encoder. Cheap to clone; all state is the config and synonym
/// table.
#[derive(Debug, Clone)]
pub struct Embedder {
    cfg: EmbedConfig,
    synonyms: SynonymTable,
    idf: Option<Arc<IdfModel>>,
}

impl Default for Embedder {
    fn default() -> Self {
        Self::new(EmbedConfig::default(), SynonymTable::builtin())
    }
}

impl Embedder {
    /// The calibrated "paper" encoder: builtin synonyms plus the noise
    /// level that reproduces Sentence-BERT-like retrieval imperfection
    /// over dataset-scale indexes.
    pub fn paper() -> Self {
        Self::new(
            EmbedConfig {
                noise: 0.6,
                ..Default::default()
            },
            SynonymTable::builtin(),
        )
    }

    /// Build an encoder with explicit config and synonym table.
    pub fn new(cfg: EmbedConfig, synonyms: SynonymTable) -> Self {
        assert!(cfg.dim > 0, "dimension must be positive");
        assert!(cfg.probes > 0, "need at least one hash probe");
        Self {
            cfg,
            synonyms,
            idf: None,
        }
    }

    /// Attach a fitted IDF model: word features are scaled by their
    /// corpus rarity (the "better encoder" of the paper's future work).
    pub fn with_idf(mut self, idf: Arc<IdfModel>) -> Self {
        self.idf = Some(idf);
        self
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.cfg.dim
    }

    /// The synonym table this encoder folds tokens with.
    pub fn synonyms(&self) -> &SynonymTable {
        &self.synonyms
    }

    /// Encode a text into an L2-normalised vector. An all-zero vector is
    /// returned for texts with no features (e.g. only stopwords).
    pub fn encode(&self, text: &str) -> Vector {
        let mut v = vec![0.0f32; self.cfg.dim];
        self.encode_impl(text, true, &mut v);
        v
    }

    /// [`encode`](Embedder::encode) into a caller-owned row of length
    /// [`dim`](Embedder::dim), which must be all zeros: the index build
    /// encodes straight into its f32 column.
    pub(crate) fn encode_into(&self, text: &str, out: &mut [f32]) {
        self.encode_impl(text, true, out);
    }

    /// Accumulate `text`'s features into the zeroed row `v`, then
    /// normalise it.
    fn encode_impl(&self, text: &str, fold: bool, v: &mut [f32]) {
        assert_eq!(v.len(), self.cfg.dim, "dimension mismatch");
        debug_assert!(v.iter().all(|&x| x == 0.0), "encode into a zeroed row");
        let tokens = normalize(text);
        for tok in &tokens {
            let folded = if fold { self.synonyms.fold(tok) } else { tok };
            let idf_scale = self.idf.as_deref().map_or(1.0, |m| m.weight(folded) / 2.0);
            self.add_feature(v, folded, self.cfg.word_weight * idf_scale);
            if self.cfg.char_weight > 0.0 && folded.len() > 3 {
                for_each_trigram(folded, |gram| {
                    self.add_feature(v, gram, self.cfg.char_weight * idf_scale)
                });
            }
        }
        if self.cfg.noise > 0.0 && !tokens.is_empty() {
            self.add_noise(v, text);
        }
        l2_normalize(v);
    }

    /// Deterministic per-text noise: a pseudo-random vector keyed on the
    /// whole text, scaled relative to the feature mass. Different texts
    /// get independent noise, so cosines between distinct texts shrink
    /// and jitter — the "real encoder" imperfection.
    fn add_noise(&self, v: &mut [f32], text: &str) {
        let feature_norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if feature_norm == 0.0 {
            return;
        }
        let scale = self.cfg.noise * feature_norm / (self.cfg.dim as f32).sqrt();
        let base = stable_str_hash(text) ^ 0x9e37_79b9;
        for (i, x) in v.iter_mut().enumerate() {
            let h = mix2(base, i as u64);
            // Uniform in [-1, 1].
            let u = ((h >> 11) as f32 / (1u64 << 53) as f32) * 2.0 - 1.0;
            *x += scale * u * 1.732; // match unit variance
        }
    }

    /// Encode *without* synonym folding. Sentence-to-triple matching
    /// lacks the relation-paraphrase alignment that triple-to-triple
    /// matching enjoys (the paper: "the continuous nature of question
    /// expression contrasts with the discontinuous nature of semantic
    /// triples"); query-style encodings therefore skip the fold.
    /// Equivalent to encoding with an empty synonym table, without
    /// cloning the config or IDF handle into a throwaway encoder.
    pub fn encode_unfolded(&self, text: &str) -> Vector {
        let mut v = vec![0.0f32; self.cfg.dim];
        self.encode_impl(text, false, &mut v);
        v
    }

    fn add_feature(&self, v: &mut [f32], feature: &str, weight: f32) {
        let base = stable_str_hash(feature);
        for p in 0..self.cfg.probes {
            let h = mix2(base, p as u64);
            let idx = (h % self.cfg.dim as u64) as usize;
            let sign = if (h >> 63) & 1 == 0 { 1.0 } else { -1.0 };
            v[idx] += sign * weight;
        }
    }
}

/// Normalise a vector to unit L2 norm in place (no-op for zero vectors).
pub fn l2_normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Cosine similarity. Assumes (but does not require) unit-norm inputs;
/// computes the full normalised form so it is safe for any vectors.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut dot = 0.0f32;
    let mut na = 0.0f32;
    let mut nb = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// How many independent f32 accumulators [`dot`] carries. Eight lanes
/// break the serial dependency chain of a scalar sum, so the compiler
/// can keep full SIMD width busy.
const DOT_LANES: usize = 8;

/// Plain dot product (equals cosine for unit-norm vectors). Hot path of
/// the top-k scan and of the quantized engine's exact rerank stage,
/// kept free of sqrt. Chunked 8-lane accumulation with a fixed
/// pairwise reduction: deterministic (the same inputs always produce
/// the same bits) and autovectorizable.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let split = a.len() - a.len() % DOT_LANES;
    let mut acc = [0.0f32; DOT_LANES];
    for (ca, cb) in a[..split]
        .chunks_exact(DOT_LANES)
        .zip(b[..split].chunks_exact(DOT_LANES))
    {
        for j in 0..DOT_LANES {
            acc[j] += ca[j] * cb[j];
        }
    }
    // Fixed pairwise reduction so the result is a pure function of the
    // inputs, independent of how the loop above was vectorized.
    let mut sum = ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
    for (x, y) in a[split..].iter().zip(&b[split..]) {
        sum += x * y;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idf::IdfModel;

    fn emb() -> Embedder {
        Embedder::default()
    }

    #[test]
    fn encode_is_deterministic() {
        let e = emb();
        assert_eq!(
            e.encode("Yao Ming born in Shanghai"),
            e.encode("Yao Ming born in Shanghai")
        );
    }

    #[test]
    fn encode_is_unit_norm() {
        let v = emb().encode("Lake Superior area 82000");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn same_fact_different_schema_scores_high() {
        let e = emb();
        let pseudo = e.encode("Yao Ming born in Shanghai");
        let wikidata = e.encode("Yao Ming place of birth Shanghai");
        let freebase = e.encode("Yao Ming /people/person/place_of_birth Shanghai");
        let unrelated = e.encode("Lake Superior area 82000");
        let s_wd = cosine(&pseudo, &wikidata);
        let s_fb = cosine(&pseudo, &freebase);
        let s_un = cosine(&pseudo, &unrelated);
        assert!(s_wd > 0.6, "wikidata sim too low: {s_wd}");
        assert!(s_fb > 0.5, "freebase sim too low: {s_fb}");
        assert!(s_un < 0.25, "unrelated sim too high: {s_un}");
    }

    #[test]
    fn related_entity_scores_between() {
        let e = emb();
        let pseudo = e.encode("Yao Ming born in Shanghai");
        let same_entity = e.encode("Yao Ming occupation basketball player");
        let s_same = cosine(&pseudo, &same_entity);
        let s_exact = cosine(&pseudo, &e.encode("Yao Ming place of birth Shanghai"));
        assert!(
            s_same > 0.15 && s_same < s_exact,
            "ordering broken: {s_same} vs {s_exact}"
        );
    }

    #[test]
    fn zero_vector_for_stopword_only_text() {
        let v = emb().encode("the of a");
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(cosine(&v, &v), 0.0);
    }

    #[test]
    fn cosine_bounds() {
        let e = emb();
        let a = e.encode("alpha beta gamma");
        let b = e.encode("delta epsilon zeta");
        let c = cosine(&a, &b);
        assert!((-1.0..=1.0).contains(&c));
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn chunked_dot_matches_naive_loop_on_fixed_vectors() {
        // Integer-valued components keep every product and partial sum
        // exactly representable, so the chunked accumulation must agree
        // with the naive sequential loop bit for bit — at lane-multiple
        // lengths, with a remainder tail, and below one lane.
        let naive = |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
        for len in [1usize, 3, 7, 8, 9, 16, 23, 256] {
            let a: Vec<f32> = (0..len).map(|i| ((i % 13) as f32) - 6.0).collect();
            let b: Vec<f32> = (0..len).map(|i| ((i % 7) as f32) - 3.0).collect();
            assert_eq!(dot(&a, &b), naive(&a, &b), "len {len}");
        }
        // And a hand-pinned case.
        let a = [2.0f32, -1.0, 0.5, 4.0, -3.0, 1.0, 0.0, 2.0, 8.0];
        let b = [1.0f32, 2.0, 4.0, -0.5, 1.0, 1.0, 9.0, 0.5, 0.25];
        assert_eq!(dot(&a, &b), naive(&a, &b));
        assert_eq!(dot(&a, &b), 1.0);
    }

    #[test]
    fn dot_remainder_lanes_match_naive_loop() {
        // Dimensions that are not multiples of the 8-lane width pin the
        // tail handling: 1 (all tail), 7 (sub-lane), 17 (two full
        // chunks plus one element). Integer-valued components keep
        // every operation exact, so equality is bitwise.
        let naive = |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
        for dim in [1usize, 7, 17] {
            let a: Vec<f32> = (0..dim).map(|i| ((i % 11) as f32) - 5.0).collect();
            let b: Vec<f32> = (0..dim).map(|i| ((i % 5) as f32) - 2.0).collect();
            assert_eq!(dot(&a, &b), naive(&a, &b), "dim {dim}");
        }
    }

    #[test]
    fn dot_equals_cosine_for_unit_vectors() {
        let e = emb();
        let a = e.encode("andes covers peru");
        let b = e.encode("himalayas covers nepal");
        assert!((dot(&a, &b) - cosine(&a, &b)).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn cosine_rejects_mismatched_dims() {
        cosine(&[1.0], &[1.0, 0.0]);
    }

    #[test]
    fn noise_lowers_cross_text_similarity_but_stays_deterministic() {
        let clean = Embedder::default();
        let noisy = Embedder::paper();
        let a = "Yao Ming born in Shanghai";
        let b = "Yao Ming place of birth Shanghai";
        let clean_sim = cosine(&clean.encode(a), &clean.encode(b));
        let noisy_sim = cosine(&noisy.encode(a), &noisy.encode(b));
        assert!(noisy_sim < clean_sim, "{noisy_sim} !< {clean_sim}");
        assert!(noisy_sim > 0.2, "structure must survive noise: {noisy_sim}");
        assert_eq!(
            noisy.encode(a),
            noisy.encode(a),
            "noise must be deterministic"
        );
        // Same text still scores 1 with itself.
        assert!((cosine(&noisy.encode(a), &noisy.encode(a)) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn idf_weighting_shifts_similarity_toward_rare_tokens() {
        let corpus = [
            "A instance of person",
            "B instance of person",
            "C instance of person",
            "D instance of person",
            "A born in Rareville",
        ];
        let idf = Arc::new(IdfModel::fit(
            corpus.iter().copied(),
            &SynonymTable::builtin(),
        ));
        let plain = Embedder::default();
        let weighted = Embedder::default().with_idf(idf);
        // A mixed document: rare-token overlap must dominate
        // common-token overlap once IDF weighting is on.
        let doc = "mystery instance of person born Rareville";
        let rare_q = "mystery born Rareville"; // overlaps on rare tokens
        let common_q = "somebody instance of person"; // overlaps on common tokens
        let sep = |e: &Embedder| {
            cosine(&e.encode(doc), &e.encode(rare_q)) - cosine(&e.encode(doc), &e.encode(common_q))
        };
        assert!(
            sep(&weighted) > sep(&plain) + 0.01,
            "{} !> {}",
            sep(&weighted),
            sep(&plain)
        );
    }

    /// Character n-grams of a token as owned strings — the whole token
    /// when it has fewer than `n` characters: the reference the
    /// allocation-free trigram walk of `encode` is checked against.
    fn char_ngrams(tok: &str, n: usize) -> Vec<String> {
        let chars: Vec<char> = tok.chars().collect();
        if chars.len() < n {
            return vec![tok.to_string()];
        }
        (0..=chars.len() - n)
            .map(|i| chars[i..i + n].iter().collect())
            .collect()
    }

    /// `encode_impl` with its sub-word features built by
    /// [`char_ngrams`].
    fn encode_by_char_ngrams(e: &Embedder, text: &str, fold: bool) -> Vector {
        let mut v = vec![0.0f32; e.dim()];
        let tokens = normalize(text);
        for tok in &tokens {
            let folded = if fold { e.synonyms.fold(tok) } else { tok };
            let idf_scale = e.idf.as_deref().map_or(1.0, |m| m.weight(folded) / 2.0);
            e.add_feature(&mut v, folded, e.cfg.word_weight * idf_scale);
            if e.cfg.char_weight > 0.0 && folded.len() > 3 {
                for gram in char_ngrams(folded, 3) {
                    e.add_feature(&mut v, &gram, e.cfg.char_weight * idf_scale);
                }
            }
        }
        if e.cfg.noise > 0.0 && !tokens.is_empty() {
            e.add_noise(&mut v, text);
        }
        l2_normalize(&mut v);
        v
    }

    #[test]
    fn char_ngrams_basic() {
        assert_eq!(char_ngrams("abcd", 3), ["abc", "bcd"]);
        assert_eq!(char_ngrams("ab", 3), ["ab"]);
    }

    #[test]
    fn encode_equals_its_char_ngram_definition_bit_for_bit() {
        // Tokens of one to four bytes per char: accented Latin, CJK,
        // 4-byte mathematical letters (emoji split tokens), and 2-char
        // tokens of 4 and 8 bytes (past the 3-byte gate, under three
        // chars), in both query styles, with and without noise and IDF
        // weights.
        let corpus = [
            "Yao Ming born in Shanghai",
            "Kovács Kati place of birth Győr",
            "naïve café résumé Zürich Straße",
            "東京タワー height 333 metres",
            "ñandú éé 𝔘𝔫 𝔘𝔫𝔦𝔠𝔬𝔡𝔢 😀😀 😀a😀",
            "/people/person/place_of_birth COMES_WITH MountainRange",
            "ab abc abcd",
        ];
        let idf = Arc::new(IdfModel::fit(
            corpus.iter().copied(),
            &SynonymTable::builtin(),
        ));
        for e in [
            Embedder::default(),
            Embedder::paper(),
            Embedder::paper().with_idf(idf),
        ] {
            for text in corpus {
                for (fold, got) in [(true, e.encode(text)), (false, e.encode_unfolded(text))] {
                    let want = encode_by_char_ngrams(&e, text, fold);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "{text:?} fold {fold}");
                }
            }
        }
    }
}
