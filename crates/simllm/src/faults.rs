//! Deterministic fault injection for the LLM transport.
//!
//! [`FaultyLlm`] wraps any [`LanguageModel`] and injects the
//! [`LlmError`] taxonomy at configurable rates. Every draw is
//! keyed on `(plan seed, question id, task kind, sample index, attempt)`
//! through the same stable hashing the rest of the workspace uses, so a
//! fault schedule is a pure function of the seed and the requests made
//! for each question — independent of thread interleaving. That is what
//! makes a parallel chaos run byte-identical to a serial one, and two
//! runs with the same seed identical to each other.
//!
//! The *attempt* component is tracked per `(question, task, sample)`
//! inside the decorator: a retry of the same request is a new draw (the
//! transport may recover), while re-asking an unrelated question never
//! shifts another question's schedule. Create a fresh `FaultyLlm` per
//! experiment run — attempt counters accumulate for the decorator's
//! lifetime.

use crate::model::{Completion, LanguageModel, LlmError, LlmTask};
use kgstore::hash::{mix2, stable_str_hash, unit_f64, FxHashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Per-fault-kind injection rates (probability per attempt, each in
/// `[0, 1]`, summing to at most 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability of a timeout.
    pub timeout: f64,
    /// Probability of a rate-limit rejection.
    pub rate_limited: f64,
    /// Probability of a transient transport failure.
    pub transient: f64,
    /// Probability of a truncated completion.
    pub truncated: f64,
    /// Probability of an empty completion body.
    pub empty: f64,
}

impl FaultRates {
    /// No faults at all.
    pub fn none() -> Self {
        Self::uniform(0.0)
    }

    /// Split a total fault rate equally across the five kinds.
    pub fn uniform(total: f64) -> Self {
        let each = total / 5.0;
        Self {
            timeout: each,
            rate_limited: each,
            transient: each,
            truncated: each,
            empty: each,
        }
    }

    /// Total probability that an attempt faults.
    pub fn total(&self) -> f64 {
        self.timeout + self.rate_limited + self.transient + self.truncated + self.empty
    }
}

/// A question-keyed fault storm: a deterministically-chosen fraction
/// of questions faults at its own rates while the rest follow the
/// plan's normal rates. Membership is a pure function of `(plan seed,
/// question id)` — *not* of arrival order, call order, or what other
/// questions are in flight — so a serving run that reorders arrivals
/// (or replays a subset) sees the same per-question weather.
#[derive(Debug, Clone)]
pub struct Storm {
    /// Fraction of questions in the storm, in `[0, 1]`.
    pub frac: f64,
    /// Rates applied to storm members, for every task kind.
    pub rates: FaultRates,
}

/// A reproducible fault schedule: seed, default rates, and an optional
/// question-keyed [`Storm`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Schedule seed; same seed ⇒ same faults for the same requests.
    pub seed: u64,
    /// Rates applied to every question outside the storm.
    pub default: FaultRates,
    /// Optional storm; members use its rates instead of the default.
    pub storm: Option<Storm>,
}

impl FaultPlan {
    /// A plan injecting nothing (useful as a control arm).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            default: FaultRates::none(),
            storm: None,
        }
    }

    /// A plan with `total` fault probability split uniformly across
    /// kinds, for every task.
    pub fn uniform(seed: u64, total: f64) -> Self {
        Self {
            seed,
            default: FaultRates::uniform(total),
            storm: None,
        }
    }

    /// A storm plan: a seeded `frac` of questions faults at
    /// `storm_total` (split uniformly across kinds), everyone else is
    /// clean. The serving soak uses this as its bursty-weather arm.
    pub fn storm(seed: u64, frac: f64, storm_total: f64) -> Self {
        Self::none(seed).with_storm(frac, FaultRates::uniform(storm_total))
    }

    /// Add a question-keyed storm (see [`Storm`]).
    pub fn with_storm(mut self, frac: f64, rates: FaultRates) -> Self {
        self.storm = Some(Storm { frac, rates });
        self
    }

    /// Whether `qid` is in this plan's storm. Pure in `(seed, qid)`:
    /// the membership draw uses its own salted hash stream, so it
    /// never correlates with the per-attempt fault draws.
    pub fn in_storm(&self, qid: &str) -> bool {
        match &self.storm {
            Some(s) => unit_f64(mix2(self.seed ^ 0x5707_B125, stable_str_hash(qid))) < s.frac,
            None => false,
        }
    }

    fn rates_for(&self, qid: &str) -> &FaultRates {
        if self.in_storm(qid) {
            return &self.storm.as_ref().expect("in_storm implies storm").rates;
        }
        &self.default
    }
}

/// The fault-injecting decorator.
pub struct FaultyLlm<M> {
    inner: M,
    plan: FaultPlan,
    /// `(question, task, sample)` slot → next attempt number.
    attempts: Mutex<FxHashMap<u64, u32>>,
    injected: AtomicU64,
}

impl<M: LanguageModel> FaultyLlm<M> {
    /// Wrap a model with a fault plan.
    pub fn new(inner: M, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            attempts: Mutex::new(FxHashMap::default()),
            injected: Default::default(),
        }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Total faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn record(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
    }
}

/// Cut `text` at roughly `frac` of its bytes, backing off to the
/// nearest character boundary.
fn truncate_at_fraction(text: &str, frac: f64) -> String {
    let mut cut = ((text.len() as f64) * frac) as usize;
    while cut > 0 && !text.is_char_boundary(cut) {
        cut -= 1;
    }
    text[..cut].to_string()
}

impl<M: LanguageModel> LanguageModel for FaultyLlm<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, prompt: &str, task: &LlmTask<'_>) -> Result<Completion, LlmError> {
        let kind = task.kind();
        let slot = mix2(
            mix2(stable_str_hash(&task.question().id), stable_str_hash(kind)),
            task.sample_index() as u64,
        );
        let attempt = {
            let mut m = self.attempts.lock().unwrap_or_else(PoisonError::into_inner);
            let c = m.entry(slot).or_default();
            let a = *c;
            *c += 1;
            a
        };
        let key = mix2(mix2(self.plan.seed, slot), 0xFA17_0000 + attempt as u64);
        let u = unit_f64(key);
        let r = self.plan.rates_for(&task.question().id);
        let mut edge = r.timeout;
        if u < edge {
            self.record();
            return Err(LlmError::Timeout);
        }
        edge += r.rate_limited;
        if u < edge {
            self.record();
            // Deterministic provider-suggested wait in 50–200 ms.
            let retry_after_ms = 50 * (1 + mix2(key, 0xB0) % 4);
            return Err(LlmError::RateLimited { retry_after_ms });
        }
        edge += r.transient;
        if u < edge {
            self.record();
            return Err(LlmError::Transient);
        }
        edge += r.truncated;
        if u < edge {
            self.record();
            // Cut the real completion at a seeded 20–85% of its bytes.
            let full = self.inner.complete(prompt, task)?;
            let frac = 0.20 + 0.65 * unit_f64(mix2(key, 0xB1));
            return Err(LlmError::Truncated {
                text: truncate_at_fraction(&full.text, frac),
            });
        }
        edge += r.empty;
        if u < edge {
            self.record();
            return Err(LlmError::Empty);
        }
        self.inner.complete(prompt, task)
    }

    fn call_count(&self) -> usize {
        self.inner.call_count()
    }

    fn tokens_processed(&self) -> usize {
        self.inner.tokens_processed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelProfile, SimLlm};
    use std::sync::Arc;
    use worldgen::{datasets::simpleq, generate, WorldConfig};

    fn fixture() -> (Arc<worldgen::World>, worldgen::Dataset) {
        let world = Arc::new(generate(&WorldConfig {
            scale: 0.3,
            ..Default::default()
        }));
        let ds = simpleq::generate(&world, 30, 5);
        (world, ds)
    }

    fn sim(world: &Arc<worldgen::World>) -> SimLlm {
        SimLlm::new(world.clone(), ModelProfile::gpt35_sim())
    }

    /// Replay the same request sequence and collect each outcome's kind.
    fn schedule(llm: &FaultyLlm<SimLlm>, ds: &worldgen::Dataset, attempts: u32) -> Vec<String> {
        let mut out = Vec::new();
        for q in &ds.questions {
            for _ in 0..attempts {
                out.push(match llm.complete("p", &LlmTask::Cot { question: q }) {
                    Ok(c) => format!("ok:{}", c.text),
                    Err(e) => format!("err:{}", e.kind()),
                });
            }
        }
        out
    }

    #[test]
    fn same_seed_same_schedule() {
        let (world, ds) = fixture();
        let a = FaultyLlm::new(sim(&world), FaultPlan::uniform(42, 0.5));
        let b = FaultyLlm::new(sim(&world), FaultPlan::uniform(42, 0.5));
        assert_eq!(schedule(&a, &ds, 3), schedule(&b, &ds, 3));
        assert!(a.faults_injected() > 0, "rate 0.5 must inject something");
    }

    #[test]
    fn different_seed_different_schedule() {
        let (world, ds) = fixture();
        let a = FaultyLlm::new(sim(&world), FaultPlan::uniform(1, 0.5));
        let b = FaultyLlm::new(sim(&world), FaultPlan::uniform(2, 0.5));
        assert_ne!(schedule(&a, &ds, 3), schedule(&b, &ds, 3));
    }

    #[test]
    fn rate_zero_is_transparent() {
        let (world, ds) = fixture();
        let plain = sim(&world);
        let faulty = FaultyLlm::new(sim(&world), FaultPlan::none(7));
        for q in &ds.questions {
            let task = LlmTask::Cot { question: q };
            assert_eq!(
                plain.complete("p", &task).unwrap(),
                faulty.complete("p", &task).unwrap()
            );
        }
        assert_eq!(faulty.faults_injected(), 0);
    }

    #[test]
    fn question_schedules_are_independent_of_other_questions() {
        let (world, ds) = fixture();
        let a = FaultyLlm::new(sim(&world), FaultPlan::uniform(9, 0.4));
        let b = FaultyLlm::new(sim(&world), FaultPlan::uniform(9, 0.4));
        // `a` serves all questions in order; `b` serves only the last —
        // the last question's outcomes must match anyway.
        let q = ds.questions.last().unwrap();
        let all = schedule(&a, &ds, 2);
        let solo: Vec<String> = (0..2)
            .map(|_| match b.complete("p", &LlmTask::Cot { question: q }) {
                Ok(c) => format!("ok:{}", c.text),
                Err(e) => format!("err:{}", e.kind()),
            })
            .collect();
        assert_eq!(&all[all.len() - 2..], &solo[..]);
    }

    #[test]
    fn truncation_carries_a_proper_prefix() {
        let (world, ds) = fixture();
        let plan = FaultPlan {
            seed: 3,
            default: FaultRates {
                timeout: 0.0,
                rate_limited: 0.0,
                transient: 0.0,
                truncated: 1.0,
                empty: 0.0,
            },
            storm: None,
        };
        let faulty = FaultyLlm::new(sim(&world), plan);
        let plain = sim(&world);
        for q in &ds.questions {
            let task = LlmTask::Cot { question: q };
            let full = plain.complete("p", &task).unwrap().text;
            match faulty.complete("p", &task) {
                Err(LlmError::Truncated { text }) => {
                    assert!(full.starts_with(&text), "{text:?} not a prefix of {full:?}");
                    assert!(text.len() < full.len());
                }
                other => panic!("expected truncation, got {other:?}"),
            }
        }
    }

    #[test]
    fn fault_rate_is_roughly_respected() {
        let (world, _) = fixture();
        let ds = simpleq::generate(&world, 200, 6);
        let faulty = FaultyLlm::new(sim(&world), FaultPlan::uniform(13, 0.3));
        let mut errs = 0;
        for q in &ds.questions {
            if faulty.complete("p", &LlmTask::Io { question: q }).is_err() {
                errs += 1;
            }
        }
        let rate = errs as f64 / 200.0;
        assert!((0.18..0.42).contains(&rate), "observed fault rate {rate}");
    }

    #[test]
    fn storm_members_fault_and_bystanders_stay_clean() {
        let (world, ds) = fixture();
        let plan = FaultPlan::storm(21, 0.5, 1.0);
        let faulty = FaultyLlm::new(sim(&world), plan.clone());
        let mut members = 0;
        for q in &ds.questions {
            let res = faulty.complete("p", &LlmTask::Io { question: q });
            if plan.in_storm(&q.id) {
                members += 1;
                assert!(res.is_err(), "storm member {} must fault", q.id);
            } else {
                assert!(res.is_ok(), "bystander {} must be clean", q.id);
            }
        }
        assert!(
            (6..=24).contains(&members),
            "a 0.5 storm over 30 questions: {members} members"
        );
    }

    #[test]
    fn storm_membership_is_arrival_order_independent() {
        let (world, ds) = fixture();
        let outcomes = |order: Vec<&worldgen::Question>| -> Vec<(String, String)> {
            let faulty = FaultyLlm::new(sim(&world), FaultPlan::storm(22, 0.4, 0.9));
            let mut v: Vec<(String, String)> = order
                .into_iter()
                .map(|q| {
                    let res = match faulty.complete("p", &LlmTask::Io { question: q }) {
                        Ok(c) => format!("ok:{}", c.text),
                        Err(e) => format!("err:{}", e.kind()),
                    };
                    (q.id.clone(), res)
                })
                .collect();
            v.sort();
            v
        };
        let forward: Vec<&worldgen::Question> = ds.questions.iter().collect();
        let reversed: Vec<&worldgen::Question> = ds.questions.iter().rev().collect();
        assert_eq!(
            outcomes(forward),
            outcomes(reversed),
            "per-question weather must not depend on arrival order"
        );
    }

    #[test]
    fn storm_takes_precedence_over_default_rates() {
        let (world, ds) = fixture();
        let plan = FaultPlan::uniform(23, 1.0).with_storm(1.0, FaultRates::none());
        let faulty = FaultyLlm::new(sim(&world), plan);
        // Everyone is in the storm, and the storm says: clean.
        let q = &ds.questions[0];
        assert!(faulty.complete("p", &LlmTask::Io { question: q }).is_ok());
    }

    #[test]
    fn truncate_at_fraction_respects_char_boundaries() {
        let s = "héllo wörld ←";
        for i in 0..=20 {
            let frac = i as f64 / 20.0;
            let cut = truncate_at_fraction(s, frac);
            assert!(s.starts_with(&cut));
        }
    }
}
