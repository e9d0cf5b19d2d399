//! Fault-hardened concurrent QA serving over a shared base index.
//!
//! [`serve`] runs a long-lived question-answering service as a
//! discrete-event simulation on the seeded virtual clock the rest of
//! the workspace already uses: offered questions arrive on an
//! [`OfferedTrace`], pass a bounded admission queue with
//! reject-with-reason backpressure, execute under a per-question
//! deadline whose remaining budget `drive` ([`crate::pipeline`]) checks
//! between stages (budget burned grounding or verifying degrades the
//! answer, it never loses it), and are load-shed through a
//! service-level circuit breaker with half-open recovery (trip → shed
//! newest-first → probe → close).
//!
//! ## Determinism
//!
//! Every admission, shedding, deadline and breaker decision is made by
//! the single-threaded event loop in virtual time; worker threads only
//! evaluate the pure function `(question, budget) → (output, service
//! time)`. Real threads race, but the race can only reorder *when* a
//! job's (deterministic) result becomes known to the scheduler — never
//! what it is — and the scheduler orders completions by virtual finish
//! time before acting on them. Same seed + same offered trace ⇒
//! byte-identical per-question outcomes for any worker count.
//!
//! Workers never wait on each other: each runs `drive` on its own
//! question, as the evaluation runner does, and grounds it with its
//! own [`BaseIndex::search_batch`] call.
//!
//! [`BaseIndex::search_batch`]: crate::retrieval::BaseIndex::search_batch

mod engine;

pub use engine::serve;

use crate::resilience::BreakerTransition;
use kgstore::hash::{mix2, stable_str_hash, unit_f64};

/// Serving knobs: admission bounds, deadline, and the service-level
/// breaker. Virtual service time is priced by the one cost model in
/// [`crate::pipeline`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bound on questions admitted but not yet in service; a full
    /// queue rejects new arrivals with [`ShedReason::QueueFull`].
    pub queue_cap: usize,
    /// Questions in service at once in *virtual* time (the simulated
    /// deployment's concurrency, independent of real worker threads).
    pub virtual_servers: usize,
    /// Per-question deadline, measured from arrival. Time spent
    /// queued counts against it.
    pub deadline_ms: u64,
    /// Consecutive service-level failures (transport-exhausted
    /// degradations, not deadline degradations) that trip the breaker.
    pub breaker_threshold: u32,
    /// Virtual ms a tripped breaker sheds arrivals before admitting a
    /// half-open probe.
    pub breaker_cooldown_ms: u64,
    /// Real worker threads (0 ⇒ available parallelism), never more
    /// than `virtual_servers`, since no more questions than that are in
    /// service at once. Outcomes are identical for any value; only
    /// wall-clock changes.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_cap: 8,
            virtual_servers: 4,
            deadline_ms: 1_500,
            breaker_threshold: 3,
            breaker_cooldown_ms: 1_500,
            workers: 0,
        }
    }
}

/// One offered arrival: a virtual timestamp plus an index into the
/// question set being served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual arrival time (ms).
    pub at_ms: u64,
    /// Index into the question slice handed to [`serve`].
    pub question: usize,
}

/// A seeded offered-load trace: what arrives when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OfferedTrace {
    /// Arrivals in nondecreasing virtual-time order.
    pub arrivals: Vec<Arrival>,
}

impl OfferedTrace {
    /// A seeded Poisson arrival process: `n` arrivals at `rate_qps`
    /// questions per virtual second, each picking one of `n_questions`
    /// questions. Purely a function of the seed — no wall clock, no
    /// RNG state.
    pub fn poisson(seed: u64, rate_qps: f64, n: usize, n_questions: usize) -> Self {
        let rate = rate_qps.max(1e-9);
        let mut t_ms = 0.0f64;
        let mut arrivals = Vec::with_capacity(n);
        for i in 0..n {
            // Inverse-CDF exponential gap from one uniform draw.
            let u = unit_f64(mix2(seed, 0xA221_7000 + i as u64));
            t_ms += -(1.0 - u).ln() / rate * 1_000.0;
            let question = if n_questions == 0 {
                0
            } else {
                (mix2(seed ^ 0x51C6_D00D, i as u64) % n_questions as u64) as usize
            };
            arrivals.push(Arrival {
                at_ms: t_ms as u64,
                question,
            });
        }
        Self { arrivals }
    }
}

/// Why an arrival was rejected at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The admission queue was at capacity.
    QueueFull,
    /// The service breaker was open (cooling down after a trip).
    BreakerOpen,
    /// The breaker was half-open with its single recovery probe
    /// already in flight.
    ProbeInFlight,
}

/// What happened to one offered question.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition {
    /// Admitted and answered (possibly degraded — never missing).
    Answered {
        /// Virtual time service started.
        started_ms: u64,
        /// Virtual time service finished.
        finished_ms: u64,
        /// The answer text (always non-empty).
        answer: String,
        /// Degradation notes, including the serving layer's
        /// `deadline:*` paths.
        degradation: Vec<String>,
        /// Transport attempts across the question's LLM calls.
        attempts: u32,
        /// Faults observed across the question's LLM calls.
        faults: usize,
    },
    /// Rejected at admission.
    Shed {
        /// Why.
        reason: ShedReason,
    },
}

/// Outcome of one offered arrival, in offered order.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Index into the offered trace.
    pub offered: usize,
    /// Dataset question id.
    pub qid: String,
    /// Virtual arrival time (ms).
    pub arrival_ms: u64,
    /// Shed or answered.
    pub disposition: Disposition,
}

impl Outcome {
    /// Virtual latency from arrival to finish, when answered.
    pub fn latency_ms(&self) -> Option<u64> {
        match &self.disposition {
            Disposition::Answered { finished_ms, .. } => {
                Some(finished_ms.saturating_sub(self.arrival_ms))
            }
            Disposition::Shed { .. } => None,
        }
    }
}

/// Grounding retrieval of one [`serve`] run, read off the base
/// index's [`ScoringStats`](crate::ScoringStats) when the run ends: one
/// `search_batch` call per question that grounded. The base's counters
/// are shared with anything else searching it meanwhile, so these stay
/// out of [`ServeReport::identity_key`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchTelemetry {
    /// `search_batch` calls.
    pub batches: u64,
    /// Grounding query slots carried by those calls.
    pub slots: u64,
}

/// Everything one [`serve`] run produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-arrival outcomes, in offered order.
    pub outcomes: Vec<Outcome>,
    /// Service-breaker state changes, in virtual-time order.
    pub breaker_transitions: Vec<BreakerTransition>,
    /// Virtual time of the last event.
    pub makespan_ms: u64,
    /// Grounding retrieval telemetry (excluded from
    /// [`identity_key`](Self::identity_key)).
    pub batch: BatchTelemetry,
}

impl ServeReport {
    /// Number of answered questions.
    pub fn answered(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.disposition, Disposition::Answered { .. }))
            .count()
    }

    /// Number of shed arrivals.
    pub fn shed(&self) -> usize {
        self.outcomes.len() - self.answered()
    }

    /// Fraction of offered arrivals shed.
    pub fn shed_fraction(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.shed() as f64 / self.outcomes.len() as f64
        }
    }

    /// Sorted virtual latencies of the answered questions.
    pub fn latencies_ms(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .outcomes
            .iter()
            .filter_map(Outcome::latency_ms)
            .collect();
        v.sort_unstable();
        v
    }

    /// Virtual latency percentile (`p` in [0, 100]) over answered
    /// questions; 0 when nothing was answered.
    pub fn latency_percentile_ms(&self, p: f64) -> u64 {
        let lat = self.latencies_ms();
        if lat.is_empty() {
            return 0;
        }
        let idx = ((p / 100.0) * (lat.len() - 1) as f64).round() as usize;
        lat[idx.min(lat.len() - 1)]
    }

    /// A digest of everything deterministic in the report — the
    /// per-question outcomes and the breaker transition log, *not* the
    /// batch telemetry. Two runs of the same seed and trace must agree
    /// on this key for any worker count.
    pub fn identity_key(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        for o in &self.outcomes {
            h = mix2(h, stable_str_hash(&format!("{o:?}")));
        }
        for t in &self.breaker_transitions {
            h = mix2(h, stable_str_hash(&format!("{t:?}")));
        }
        mix2(h, self.makespan_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_trace_is_seeded_and_monotone() {
        let a = OfferedTrace::poisson(7, 5.0, 200, 40);
        let b = OfferedTrace::poisson(7, 5.0, 200, 40);
        assert_eq!(a, b, "same seed ⇒ same trace");
        assert!(a.arrivals.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        assert!(a.arrivals.iter().all(|x| x.question < 40));
        let c = OfferedTrace::poisson(8, 5.0, 200, 40);
        assert_ne!(a, c, "different seed ⇒ different trace");
        // Mean gap ≈ 1/rate: 200 arrivals at 5 q/s ≈ 40 virtual
        // seconds, within a loose 2× band.
        let span = a.arrivals.last().unwrap().at_ms;
        assert!((20_000..80_000).contains(&span), "span {span}");
    }

    #[test]
    fn percentiles_and_fractions_on_a_hand_built_report() {
        let answered = |offered: usize, arrival: u64, finish: u64| Outcome {
            offered,
            qid: format!("q{offered}"),
            arrival_ms: arrival,
            disposition: Disposition::Answered {
                started_ms: arrival,
                finished_ms: finish,
                answer: "a".into(),
                degradation: vec![],
                attempts: 1,
                faults: 0,
            },
        };
        let shed = |offered: usize, arrival: u64| Outcome {
            offered,
            qid: format!("q{offered}"),
            arrival_ms: arrival,
            disposition: Disposition::Shed {
                reason: ShedReason::QueueFull,
            },
        };
        let r = ServeReport {
            outcomes: vec![
                answered(0, 0, 100),
                answered(1, 10, 310),
                answered(2, 20, 520),
                shed(3, 30),
            ],
            breaker_transitions: vec![],
            makespan_ms: 520,
            batch: BatchTelemetry::default(),
        };
        assert_eq!(r.answered(), 3);
        assert_eq!(r.shed(), 1);
        assert!((r.shed_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(r.latencies_ms(), vec![100, 300, 500]);
        assert_eq!(r.latency_percentile_ms(50.0), 300);
        assert_eq!(r.latency_percentile_ms(99.0), 500);
        let k1 = r.identity_key();
        let mut r2 = r.clone();
        r2.batch.batches = 99;
        assert_eq!(k1, r2.identity_key(), "telemetry excluded from identity");
        let mut r3 = r.clone();
        r3.outcomes[0].qid = "other".into();
        assert_ne!(k1, r3.identity_key());
    }
}
