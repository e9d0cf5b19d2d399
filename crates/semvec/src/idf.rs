//! Inverse-document-frequency weighting — the paper's future-work item
//! "utilize better semantic encoding models to enhance semantic
//! querying", realised as corpus-fitted token weights: rare content
//! words (entity names) count more than ubiquitous schema words
//! ("instance", "description"), which sharpens retrieval precision on
//! dataset-scale indexes.

use crate::synonym::SynonymTable;
use crate::token::normalize;
use kgstore::hash::{stable_str_hash, FxHashMap};

/// A fitted IDF model over canonical (stemmed + folded) tokens.
#[derive(Debug, Clone, Default)]
pub struct IdfModel {
    /// ln((N + 1) / (df + 1)) + 1 per token hash.
    weights: FxHashMap<u64, f32>,
    /// Weight for unseen tokens (the maximum observed, i.e. rarest).
    default: f32,
}

impl IdfModel {
    /// Fit from an iterator of documents. Tokens are canonicalised with
    /// the given synonym table so the model matches the encoder.
    pub fn fit<'a, I: IntoIterator<Item = &'a str>>(docs: I, synonyms: &SynonymTable) -> Self {
        let mut df: FxHashMap<u64, u32> = FxHashMap::default();
        let mut n_docs = 0usize;
        for doc in docs {
            n_docs += 1;
            let mut seen = std::collections::HashSet::new();
            for tok in normalize(doc) {
                let folded = synonyms.fold(&tok);
                let h = stable_str_hash(folded);
                if seen.insert(h) {
                    *df.entry(h).or_default() += 1;
                }
            }
        }
        let n = n_docs as f32;
        let mut weights = FxHashMap::default();
        let mut max_w: f32 = 1.0;
        // Walk the document frequencies in a fixed (hash-key) order;
        // both outputs — the weight table and the running max — are
        // order-insensitive, so this only removes the hash-order walk.
        let mut by_token: Vec<(u64, u32)> = df.into_iter().collect();
        by_token.sort_unstable_by_key(|&(h, _)| h);
        for (h, d) in by_token {
            let w = ((n + 1.0) / (d as f32 + 1.0)).ln() + 1.0;
            max_w = max_w.max(w);
            weights.insert(h, w);
        }
        Self {
            weights,
            default: max_w,
        }
    }

    /// The weight of a canonical token (by its stable hash).
    pub fn weight_of_hash(&self, token_hash: u64) -> f32 {
        self.weights
            .get(&token_hash)
            .copied()
            .unwrap_or(self.default)
    }

    /// The weight of a canonical token string.
    pub fn weight(&self, canonical_token: &str) -> f32 {
        self.weight_of_hash(stable_str_hash(canonical_token))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> IdfModel {
        let docs = [
            "Yao Ming instance of person",
            "Yao Ming place of birth Shanghai",
            "Shanghai instance of city",
            "Alan Turing instance of person",
            "Alan Turing place of birth London",
        ];
        IdfModel::fit(docs.iter().copied(), &SynonymTable::builtin())
    }

    #[test]
    fn rare_tokens_weigh_more_than_common() {
        let m = model();
        // "instance" appears in 3 of 5 docs; "shanghai" in 2; "london" in 1.
        assert!(m.weight("london") > m.weight("shanghai"));
        assert!(m.weight("shanghai") > m.weight("instance"));
    }

    #[test]
    fn unseen_tokens_get_max_weight() {
        let m = model();
        assert!(m.weight("zanzibar") >= m.weight("london"));
    }

    #[test]
    fn empty_fit_is_usable() {
        let m = IdfModel::fit(std::iter::empty(), &SynonymTable::builtin());
        assert!(m.weight("anything") >= 1.0);
    }

    #[test]
    fn weights_respect_synonym_folding() {
        // "born" and "birth" fold together, so their df is shared.
        let docs = ["x born y", "x birth y", "unique token"];
        let m = IdfModel::fit(docs.iter().copied(), &SynonymTable::builtin());
        assert!((m.weight("birth") - m.weight("birth")).abs() < 1e-6);
        assert!(m.weight("unique") > m.weight("birth"));
    }
}
