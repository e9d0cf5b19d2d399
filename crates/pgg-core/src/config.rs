//! Pipeline configuration.

use crate::prune::PruneStrategy;
use crate::resilience::ResilienceConfig;
use crate::retrieval::{RetrievalMode, ScoringMode};
use kgstore::ExtractConfig;

/// Knobs of the Atomic Knowledge Verification pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Triples retrieved per pseudo-triple during semantic querying
    /// (the paper uses top-10).
    pub top_k: usize,
    /// Entity-confidence threshold for the second pruning step.
    ///
    /// The paper prunes below 0.7 under Sentence-BERT cosine geometry.
    /// Our hashing encoder produces systematically lower absolute
    /// cosines for "same fact, different verbalisation" (≈0.45–0.75
    /// instead of ≈0.8–0.95), so the equivalent operating point is
    /// lower; the threshold sweep bench maps the curve.
    pub entity_threshold: f32,
    /// Cap on triples shown per ground-graph entity (keeps the
    /// verification prompt inside a context window).
    pub max_entity_triples: usize,
    /// Per-(query, document) retrieval score jitter (std dev). Models
    /// dense-retrieval imperfection at corpus scale — see
    /// [`semvec::jitter`]. 0 disables.
    pub retrieval_jitter: f32,
    /// Pruning rule for candidate subjects (the paper's two-step rule
    /// by default; alternatives for the future-work ablation).
    pub prune: PruneStrategy,
    /// Subgraph-extraction bounds for `G_base`.
    pub extract: ExtractConfig,
    /// Self-consistency sample count (the paper uses 3).
    pub sc_samples: u32,
    /// Verification passes: 1 = the paper's single pass; >1 enables the
    /// majority-voted verification extension (paper future work).
    pub verify_passes: u32,
    /// Run the `cylint` auto-repair pass on pseudo-graph scripts before
    /// execution (drop spurious `MATCH`es, dedup `CREATE`s, synthesize
    /// unbound endpoints). `false` reproduces the paper exactly: any
    /// failing script is discarded whole and answering degrades to CoT.
    pub repair: bool,
    /// Retry / circuit-breaker policy for LLM transport faults (see
    /// [`crate::resilience`]). Irrelevant when the model never fails
    /// (plain [`simllm::SimLlm`]): the first attempt always succeeds.
    pub resilience: ResilienceConfig,
    /// Which scan the base index runs per retrieval query. Token
    /// pruning is the default and returns hits bit-identical to the
    /// exact scan (see [`semvec::SegmentedIndex::top_k_noisy_encoded`]);
    /// `Exact` scans every document.
    pub retrieval_mode: RetrievalMode,
    /// How candidate documents are scored inside a scan. The default
    /// screens with the int8 kernel and reranks the margin band with
    /// exact f32 (bit-identical hits by the quantization error-bound
    /// contract — see [`semvec::quant`]); `ExactF32` scores every
    /// scanned document in plain f32.
    pub scoring_mode: ScoringMode,
    /// Worker threads for the question-level runner pool. `0` (the
    /// default) resolves to the machine's available parallelism.
    /// Callers that pass an explicit thread count to
    /// [`crate::runner::run`] override this. Results are byte-identical
    /// at every value — the pool only changes wall-clock time.
    pub runner_threads: usize,
    /// Candidate-fraction ceiling for the adaptive pruning gate (see
    /// [`crate::retrieval::BaseIndex`]): a pruned retrieval falls back
    /// to the exact scan, per query, when the postings estimate says
    /// the candidate set would exceed this fraction of the corpus
    /// (relaxed for pure-f32 scoring, where pruning pays much longer).
    /// Hits are bit-identical either way; the gate is pure routing.
    pub prune_gate: f32,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            top_k: 10,
            entity_threshold: 0.30,
            max_entity_triples: 24,
            retrieval_jitter: 0.30,
            prune: PruneStrategy::PaperTwoStep,
            extract: ExtractConfig::default(),
            sc_samples: 3,
            verify_passes: 1,
            repair: true,
            resilience: ResilienceConfig::default(),
            retrieval_mode: RetrievalMode::default(),
            scoring_mode: ScoringMode::default(),
            runner_threads: 0,
            prune_gate: crate::retrieval::PRUNE_GATE_DEFAULT,
        }
    }
}

/// Constants of the paper's experimental setup, used by the bench
/// harness so every table regenerates with one call.
pub mod paper {
    /// Questions sampled from SimpleQuestions for GPT-3.5 (paper: 1000).
    pub const SIMPLEQ_N_GPT35: usize = 1000;
    /// Questions sampled from SimpleQuestions for GPT-4 (paper: 150).
    pub const SIMPLEQ_N_GPT4: usize = 150;
    /// QALD-10 English test size (paper: full set; 394 questions).
    pub const QALD_N: usize = 394;
    /// Nature Questions size (paper: 50 hand-built questions).
    pub const NATURE_N: usize = 50;
    /// World seed used by all experiments.
    pub const WORLD_SEED: u64 = 0xC0FFEE;
    /// Dataset generation seeds.
    pub const SIMPLEQ_SEED: u64 = 101;
    /// QALD dataset seed.
    pub const QALD_SEED: u64 = 202;
    /// Nature Questions dataset seed.
    pub const NATURE_SEED: u64 = 303;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_shape() {
        let c = PipelineConfig::default();
        assert_eq!(c.top_k, 10);
        assert_eq!(c.sc_samples, 3);
        assert!(c.entity_threshold > 0.0 && c.entity_threshold < 1.0);
    }

    #[test]
    fn paper_constants() {
        assert_eq!(paper::SIMPLEQ_N_GPT35, 1000);
        assert_eq!(paper::NATURE_N, 50);
    }
}
