//! The paper's baselines: IO, CoT, Self-Consistency, and Question
//! Semantic Matching.

use crate::method::{Method, MethodOutput, QaContext, Trace};
use crate::resilience::{best_effort_answer, complete_or_degrade, ResilientLlm};
use evalkit::normalize_answer;
use kgstore::StrTriple;
use simllm::{prompt, LlmTask};
use worldgen::Question;

/// The stock "cannot answer" text used when a baseline's only LLM call
/// is exhausted — the question is still answered, just unhelpfully.
const UNANSWERED: &str = "I cannot answer this question.";

/// Standard 6-shot input-output prompting.
pub struct Io;

impl Method for Io {
    fn name(&self) -> &'static str {
        "IO"
    }

    fn answer(&self, ctx: &QaContext<'_>, q: &Question) -> MethodOutput {
        let rl = ResilientLlm::new(ctx.llm, &ctx.cfg.resilience);
        let mut trace = Trace::default();
        let p = prompt::io_prompt(&q.text);
        let answer = complete_or_degrade(
            &rl,
            &p,
            &LlmTask::Io { question: q },
            &mut trace,
            "io:unanswered:truncated",
            "io:unanswered",
        )
        .unwrap_or_else(|| UNANSWERED.to_string());
        MethodOutput { answer, trace }
    }
}

/// 6-shot chain-of-thought prompting.
pub struct Cot;

impl Method for Cot {
    fn name(&self) -> &'static str {
        "CoT"
    }

    fn answer(&self, ctx: &QaContext<'_>, q: &Question) -> MethodOutput {
        let rl = ResilientLlm::new(ctx.llm, &ctx.cfg.resilience);
        let mut trace = Trace::default();
        let p = prompt::cot_prompt(&q.text);
        let answer = complete_or_degrade(
            &rl,
            &p,
            &LlmTask::Cot { question: q },
            &mut trace,
            "cot:unanswered:truncated",
            "cot:unanswered",
        )
        .unwrap_or_else(|| UNANSWERED.to_string());
        MethodOutput { answer, trace }
    }
}

/// Self-consistency: sample with temperature 0.7 three times, vote on
/// the normalised answers, return the majority sample.
pub struct SelfConsistency;

impl Method for SelfConsistency {
    fn name(&self) -> &'static str {
        "SC"
    }

    fn answer(&self, ctx: &QaContext<'_>, q: &Question) -> MethodOutput {
        let rl = ResilientLlm::new(ctx.llm, &ctx.cfg.resilience);
        let mut trace = Trace::default();
        let p = prompt::cot_prompt(&q.text);
        let mut samples: Vec<String> = Vec::new();
        let mut dropped = 0u32;
        for i in 0..ctx.cfg.sc_samples {
            let (res, call) = rl.complete(
                &p,
                &LlmTask::CotSample {
                    question: q,
                    index: i,
                },
            );
            trace.llm_calls.push(call);
            match res {
                Ok(c) => samples.push(c.text),
                Err(e) => match e.partial_text() {
                    Some(t) if !t.is_empty() => samples.push(t.to_string()),
                    // A failed sample is dropped from the vote.
                    _ => dropped += 1,
                },
            }
        }
        if dropped > 0 {
            trace
                .degradation
                .push(format!("sc:dropped-samples:{dropped}"));
        }
        if samples.is_empty() {
            trace.degradation.push("sc:unanswered".into());
            return MethodOutput {
                answer: UNANSWERED.to_string(),
                trace,
            };
        }
        // The most votes win, then the shorter normalised answer, then
        // the answer sampled first; the winning sample is that answer's
        // first.
        let keys: Vec<String> = samples.iter().map(|s| normalize_answer(s)).collect();
        let votes = |key: &String| keys.iter().filter(|k| *k == key).count();
        let winner = (0..keys.len())
            .min_by_key(|&i| (std::cmp::Reverse(votes(&keys[i])), keys[i].len(), i))
            .expect("samples is non-empty");
        let answer = samples.swap_remove(winner);
        MethodOutput { answer, trace }
    }
}

/// Question Semantic Matching: retrieve KG triples directly with the
/// question embedding (no pseudo-graph), then answer from them.
pub struct Qsm;

impl Method for Qsm {
    fn name(&self) -> &'static str {
        "QSM"
    }

    fn needs_kg(&self) -> bool {
        true
    }

    fn answer(&self, ctx: &QaContext<'_>, q: &Question) -> MethodOutput {
        let rl = ResilientLlm::new(ctx.llm, &ctx.cfg.resilience);
        let base = ctx.base_for(&q.text);
        let mut trace = crate::method::Trace {
            base_triples: base.len(),
            ..Default::default()
        };
        if base.is_empty() {
            // Nothing retrieved: degrade to direct answering.
            let p = prompt::io_prompt(&q.text);
            let answer = complete_or_degrade(
                &rl,
                &p,
                &LlmTask::Io { question: q },
                &mut trace,
                "qsm:unanswered:truncated",
                "qsm:unanswered",
            )
            .unwrap_or_else(|| UNANSWERED.to_string());
            return MethodOutput { answer, trace };
        }
        // The question itself is the query — and question-style text
        // does not get the triple-paraphrase alignment (the continuous
        // phrasing vs discrete triple gap the paper highlights), so it
        // is encoded unfolded.
        let slots = [crate::retrieval::QuerySlot {
            text: &q.text,
            style: semvec::QueryStyle::Unfolded,
            salt: kgstore::hash::stable_str_hash(&q.text),
        }];
        let hits = base
            .search_batch(
                ctx.embedder,
                &slots,
                ctx.cfg.top_k,
                ctx.cfg.retrieval_jitter,
                ctx.cfg.retrieval_mode,
                ctx.cfg.scoring_mode,
            )
            .pop()
            .unwrap_or_default();
        let retrieved: Vec<StrTriple> =
            hits.iter().map(|h| base.verbalised[h.id].clone()).collect();
        trace.ground_triples = retrieved.len();
        let p = prompt::answer_prompt(&q.text, &retrieved);
        let answer = complete_or_degrade(
            &rl,
            &p,
            &LlmTask::AnswerFromGraph {
                question: q,
                graph: &retrieved,
            },
            &mut trace,
            "qsm:truncated",
            "qsm:graph-objects",
        )
        .unwrap_or_else(|| best_effort_answer(&retrieved));
        MethodOutput { answer, trace }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use semvec::Embedder;
    use simllm::{Completion, LanguageModel, LlmError, ModelProfile, SimLlm};
    use std::sync::Arc;
    use worldgen::{datasets::simpleq, derive, generate, SourceConfig, WorldConfig};

    fn setup() -> (Arc<worldgen::World>, SimLlm, kgstore::KgSource) {
        let world = Arc::new(generate(&WorldConfig::default()));
        let llm = SimLlm::new(world.clone(), ModelProfile::gpt35_sim());
        let src = derive(&world, &SourceConfig::wikidata());
        (world, llm, src)
    }

    #[test]
    fn all_baselines_produce_answers() {
        let (world, llm, src) = setup();
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let ctx = QaContext {
            llm: &llm,
            source: Some(&src),
            base: None,
            embedder: &emb,
            cfg: &cfg,
        };
        let ds = simpleq::generate(&world, 5, 1);
        for q in &ds.questions {
            for m in [&Io as &dyn Method, &Cot, &SelfConsistency, &Qsm] {
                let out = m.answer(&ctx, q);
                assert!(!out.answer.is_empty(), "{} empty answer", m.name());
            }
        }
    }

    #[test]
    fn sc_is_deterministic_despite_sampling() {
        let (world, llm, src) = setup();
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let ctx = QaContext {
            llm: &llm,
            source: Some(&src),
            base: None,
            embedder: &emb,
            cfg: &cfg,
        };
        let ds = simpleq::generate(&world, 5, 2);
        for q in &ds.questions {
            let a = SelfConsistency.answer(&ctx, q).answer;
            let b = SelfConsistency.answer(&ctx, q).answer;
            assert_eq!(a, b);
        }
    }

    /// Answers self-consistency sample `i` with `self.0[i]`.
    struct Scripted(&'static [&'static str]);

    impl LanguageModel for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }
        fn complete(&self, _: &str, task: &LlmTask<'_>) -> Result<Completion, LlmError> {
            Ok(Completion {
                text: self.0[task.sample_index() as usize].to_string(),
            })
        }
        fn call_count(&self) -> usize {
            0
        }
        fn tokens_processed(&self) -> usize {
            0
        }
    }

    #[test]
    fn sc_vote_prefers_count_then_shorter_then_first_sampled() {
        let (world, _, src) = setup();
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let q = &simpleq::generate(&world, 1, 3).questions[0];
        for (samples, want) in [
            (&["Paris", "Oslo", "Oslo"][..], "Oslo"),
            (&["Paris", "Lyon", "Rome"], "Lyon"),
            (&["Rome", "Oslo", "Paris"], "Rome"),
            (&["Oslo", "Rome", "Paris"], "Oslo"),
        ] {
            let llm = Scripted(samples);
            let ctx = QaContext {
                llm: &llm,
                source: Some(&src),
                base: None,
                embedder: &emb,
                cfg: &cfg,
            };
            assert_eq!(SelfConsistency.answer(&ctx, q).answer, want, "{samples:?}");
        }
    }

    #[test]
    fn qsm_records_retrieval_trace() {
        let (world, llm, src) = setup();
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let ctx = QaContext {
            llm: &llm,
            source: Some(&src),
            base: None,
            embedder: &emb,
            cfg: &cfg,
        };
        let ds = simpleq::generate(&world, 10, 3);
        let mut some_retrieval = false;
        for q in &ds.questions {
            let out = Qsm.answer(&ctx, q);
            if out.trace.ground_triples > 0 {
                some_retrieval = true;
            }
        }
        assert!(some_retrieval, "QSM should retrieve for some questions");
    }

    #[test]
    fn method_names() {
        assert_eq!(Io.name(), "IO");
        assert_eq!(Cot.name(), "CoT");
        assert_eq!(SelfConsistency.name(), "SC");
        assert_eq!(Qsm.name(), "QSM");
        assert!(Qsm.needs_kg() && !Io.needs_kg());
    }
}
