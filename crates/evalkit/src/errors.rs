//! Error taxonomy counters for the paper's §4.6 error analysis.

use kgstore_free::FxHashMap;

// evalkit deliberately has no kgstore dependency; a tiny local alias
// keeps the same fast-hash behaviour without the crate edge.
mod kgstore_free {
    pub type FxHashMap<K, V> = std::collections::HashMap<K, V>;
}

/// Pipeline stage where an error originated (the paper's four-step
/// error analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorStage {
    /// §4.6.1 — Cypher generation failed (parse error / spurious MATCH).
    PseudoGraphGeneration,
    /// §4.6.2 — semantic querying missed or over-pruned entities.
    SemanticQuerying,
    /// §4.6.3 — LLM verification introduced a new error.
    Verification,
    /// §4.6.4 — answer generation ignored the graph.
    AnswerGeneration,
}

impl ErrorStage {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorStage::PseudoGraphGeneration => "pseudo-graph generation",
            ErrorStage::SemanticQuerying => "semantic querying",
            ErrorStage::Verification => "verification",
            ErrorStage::AnswerGeneration => "answer generation",
        }
    }
}

/// Counter of errors per stage plus total questions.
#[derive(Debug, Clone, Default)]
pub struct ErrorTally {
    /// Total questions processed.
    pub total_questions: usize,
    /// Total questions answered incorrectly.
    pub total_errors: usize,
    counts: FxHashMap<ErrorStage, usize>,
}

impl ErrorTally {
    /// Record a processed question; `error_stage` is the stage blamed
    /// for the failure, if the answer was wrong.
    pub fn record(&mut self, error_stage: Option<ErrorStage>) {
        self.total_questions += 1;
        if let Some(stage) = error_stage {
            self.total_errors += 1;
            *self.counts.entry(stage).or_default() += 1;
        }
    }

    /// Raw count for one stage.
    pub fn count(&self, stage: ErrorStage) -> usize {
        self.counts.get(&stage).copied().unwrap_or(0)
    }

    /// Stage errors as a percentage of all questions (how the paper
    /// reports the 0.6% Cypher error rate).
    pub fn rate_of_questions(&self, stage: ErrorStage) -> f64 {
        if self.total_questions == 0 {
            0.0
        } else {
            100.0 * self.count(stage) as f64 / self.total_questions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_and_shares() {
        let mut t = ErrorTally::default();
        t.record(None);
        t.record(Some(ErrorStage::Verification));
        t.record(Some(ErrorStage::SemanticQuerying));
        t.record(Some(ErrorStage::Verification));
        assert_eq!(t.total_questions, 4);
        assert_eq!(t.total_errors, 3);
        assert_eq!(t.count(ErrorStage::Verification), 2);
        assert!((t.rate_of_questions(ErrorStage::Verification) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_tally_is_zero() {
        let t = ErrorTally::default();
        assert_eq!(t.rate_of_questions(ErrorStage::Verification), 0.0);
    }

    #[test]
    fn stage_names() {
        assert_eq!(
            ErrorStage::PseudoGraphGeneration.name(),
            "pseudo-graph generation"
        );
    }
}
