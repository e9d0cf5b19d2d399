//! Resilient LLM middleware: bounded retries with deterministic
//! exponential backoff, a per-task-kind circuit breaker, and the
//! per-call telemetry the pipeline folds into question traces.
//!
//! [`ResilientLlm`] wraps a `&dyn LanguageModel` for the duration of one
//! question (every [`crate::Method`] creates one at the top of
//! `answer`), so breaker state and the virtual clock are scoped to that
//! question. That scoping is deliberate: a process-wide breaker would
//! make one question's faults change another's behaviour depending on
//! scheduling, and parallel runs would stop matching serial ones. The
//! clock is *simulated* — backoff waits and the stage charges of
//! `pipeline::drive` are accumulated as virtual milliseconds, never
//! slept, so a chaos sweep over a thousand questions finishes at CPU
//! speed and tests stay instant. A production transport would sleep the
//! same schedule for real.

use crate::method::Trace;
use kgstore::hash::FxHashMap;
use simllm::{Completion, LanguageModel, LlmError, LlmTask};
use std::cell::{Cell, RefCell};

/// Retry / breaker knobs (part of [`crate::PipelineConfig`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Attempts per call including the first (retries = attempts − 1).
    pub max_attempts: u32,
    /// First backoff wait; doubles per retry.
    pub backoff_base_ms: u64,
    /// Ceiling on a single backoff wait.
    pub backoff_cap_ms: u64,
    /// Consecutive attempt failures of one task kind that trip the
    /// breaker; once open, calls of that kind fail fast.
    pub breaker_threshold: u32,
    /// Virtual milliseconds an open breaker stays open before it admits
    /// a single half-open probe (probe success closes it, probe failure
    /// re-opens it for another cooldown).
    pub breaker_cooldown_ms: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base_ms: 100,
            backoff_cap_ms: 2_000,
            breaker_threshold: 5,
            breaker_cooldown_ms: 1_000,
        }
    }
}

impl ResilienceConfig {
    /// The chaos bench's resilience-off arm: one attempt per call (so
    /// no backoff) and a breaker that never trips. Degradation policies
    /// still apply: a failed stage degrades, it never aborts the
    /// question.
    pub fn disabled() -> Self {
        Self {
            max_attempts: 1,
            breaker_threshold: u32::MAX,
            ..Default::default()
        }
    }
}

/// What one stage-level LLM call cost: attempts, faults seen, virtual
/// backoff, and whether the breaker short-circuited it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageCall {
    /// Task kind (`"pseudo-graph"`, `"verify"`, `"answer"`, …).
    pub stage: String,
    /// Attempts actually made against the transport.
    pub attempts: u32,
    /// Fault kinds observed, in order.
    pub faults: Vec<String>,
    /// Virtual backoff accumulated across retries (ms).
    pub backoff_ms: u64,
    /// The breaker was open and the call failed without reaching the
    /// transport (on its remaining attempts).
    pub fast_failed: bool,
}

/// Observable circuit-breaker state (the classic three-state diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow; consecutive failures are counted.
    Closed,
    /// Tripped: calls fail fast until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe call is admitted; its
    /// outcome decides Closed (success) vs Open again (failure).
    HalfOpen,
}

/// Admission verdict from [`Breaker::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Breaker closed — proceed normally.
    Yes,
    /// Breaker half-open — this call is the recovery probe.
    Probe,
    /// Breaker open (or a probe is already in flight) — fail fast.
    No,
}

/// One logged state change, stamped with the virtual clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerTransition {
    /// Virtual time of the transition (ms).
    pub at_ms: u64,
    /// State left.
    pub from: BreakerState,
    /// State entered.
    pub to: BreakerState,
}

/// A three-state circuit breaker driven entirely by an external virtual
/// clock: closed → (threshold consecutive failures) → open → (cooldown
/// elapses) → half-open → one probe → closed or open again. Shared by
/// [`ResilientLlm`] (one per task kind) and the serving layer's
/// load-shedding breaker ([`crate::serve`]).
#[derive(Debug, Clone)]
pub struct Breaker {
    threshold: u32,
    cooldown_ms: u64,
    consecutive_failures: u32,
    state: BreakerState,
    /// When `Open`, the virtual time the cooldown ends.
    open_until_ms: u64,
    /// When `HalfOpen`, whether the single probe slot is taken.
    probe_in_flight: bool,
    transitions: Vec<BreakerTransition>,
}

impl Breaker {
    /// A closed breaker that trips after `threshold` consecutive
    /// failures and stays open for `cooldown_ms` virtual milliseconds.
    pub fn new(threshold: u32, cooldown_ms: u64) -> Self {
        Self {
            threshold: threshold.max(1),
            cooldown_ms,
            consecutive_failures: 0,
            state: BreakerState::Closed,
            open_until_ms: 0,
            probe_in_flight: false,
            transitions: Vec::new(),
        }
    }

    /// Current state (after any cooldown expiry would apply on the next
    /// `admit`; this is the raw stored state).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Every state change so far, in virtual-time order.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }

    fn set_state(&mut self, now_ms: u64, to: BreakerState) {
        if self.state != to {
            self.transitions.push(BreakerTransition {
                at_ms: now_ms,
                from: self.state,
                to,
            });
            self.state = to;
        }
    }

    /// May a call proceed at virtual time `now_ms`? An open breaker
    /// whose cooldown has elapsed flips to half-open here and admits
    /// the caller as the probe.
    pub fn admit(&mut self, now_ms: u64) -> Admit {
        match self.state {
            BreakerState::Closed => Admit::Yes,
            BreakerState::Open => {
                if now_ms >= self.open_until_ms {
                    self.set_state(now_ms, BreakerState::HalfOpen);
                    self.probe_in_flight = true;
                    Admit::Probe
                } else {
                    Admit::No
                }
            }
            BreakerState::HalfOpen => {
                if self.probe_in_flight {
                    Admit::No
                } else {
                    self.probe_in_flight = true;
                    Admit::Probe
                }
            }
        }
    }

    /// Record the outcome of an admitted call (normal or probe).
    pub fn on_result(&mut self, now_ms: u64, ok: bool) {
        match self.state {
            BreakerState::Closed => {
                if ok {
                    self.consecutive_failures = 0;
                } else {
                    self.consecutive_failures += 1;
                    if self.consecutive_failures >= self.threshold {
                        self.open_until_ms = now_ms + self.cooldown_ms;
                        self.set_state(now_ms, BreakerState::Open);
                    }
                }
            }
            BreakerState::HalfOpen => {
                self.probe_in_flight = false;
                if ok {
                    self.consecutive_failures = 0;
                    self.set_state(now_ms, BreakerState::Closed);
                } else {
                    self.open_until_ms = now_ms + self.cooldown_ms;
                    self.set_state(now_ms, BreakerState::Open);
                }
            }
            // A result landing while open (e.g. a call admitted before
            // the trip) neither extends nor shortens the cooldown.
            BreakerState::Open => {}
        }
    }
}

/// Per-question retry/breaker middleware over any [`LanguageModel`].
pub struct ResilientLlm<'a> {
    llm: &'a dyn LanguageModel,
    cfg: &'a ResilienceConfig,
    /// One breaker per task kind, driven by the virtual clock.
    breakers: RefCell<FxHashMap<&'static str, Breaker>>,
    clock_ms: Cell<u64>,
}

impl<'a> ResilientLlm<'a> {
    /// Wrap a model for one question's worth of calls.
    pub fn new(llm: &'a dyn LanguageModel, cfg: &'a ResilienceConfig) -> Self {
        Self {
            llm,
            cfg,
            breakers: RefCell::new(FxHashMap::default()),
            clock_ms: Cell::new(0),
        }
    }

    /// The question's virtual clock so far: retry backoff plus every
    /// charge made with [`advance_clock`](Self::advance_clock).
    pub fn virtual_elapsed_ms(&self) -> u64 {
        self.clock_ms.get()
    }

    /// Advance the question's virtual clock by `ms` without backing
    /// off — `pipeline::drive` charges stage overheads, transport
    /// attempts and retrieval queries here.
    pub fn advance_clock(&self, ms: u64) {
        self.clock_ms.set(self.clock_ms.get() + ms);
    }

    fn backoff_for(&self, retry: u32, err: &LlmError) -> u64 {
        match err {
            LlmError::RateLimited { retry_after_ms } => *retry_after_ms,
            _ => self
                .cfg
                .backoff_base_ms
                .saturating_mul(1u64 << retry.min(16))
                .min(self.cfg.backoff_cap_ms),
        }
    }

    /// Run one completion with retries and the breaker; returns the
    /// final outcome plus the [`StageCall`] record for the trace.
    pub fn complete(
        &self,
        prompt: &str,
        task: &LlmTask<'_>,
    ) -> (Result<Completion, LlmError>, StageCall) {
        let kind = task.kind();
        let mut call = StageCall {
            stage: kind.to_string(),
            ..Default::default()
        };
        let mut last: Option<LlmError> = None;
        for retry in 0..self.cfg.max_attempts {
            let admitted = self
                .breakers
                .borrow_mut()
                .entry(kind)
                .or_insert_with(|| {
                    Breaker::new(self.cfg.breaker_threshold, self.cfg.breaker_cooldown_ms)
                })
                .admit(self.clock_ms.get());
            if admitted == Admit::No {
                call.fast_failed = true;
                break;
            }
            call.attempts += 1;
            match self.llm.complete(prompt, task) {
                Ok(c) => {
                    if let Some(b) = self.breakers.borrow_mut().get_mut(kind) {
                        b.on_result(self.clock_ms.get(), true);
                    }
                    return (Ok(c), call);
                }
                Err(e) => {
                    call.faults.push(e.kind().to_string());
                    if let Some(b) = self.breakers.borrow_mut().get_mut(kind) {
                        b.on_result(self.clock_ms.get(), false);
                    }
                    let budget_left = retry + 1 < self.cfg.max_attempts;
                    if e.is_retryable() && budget_left {
                        let wait = self.backoff_for(retry, &e);
                        call.backoff_ms += wait;
                        self.clock_ms.set(self.clock_ms.get() + wait);
                        last = Some(e);
                    } else {
                        last = Some(e);
                        break;
                    }
                }
            }
        }
        // A pure fast-fail (breaker open before the first attempt) has
        // no transport error of its own; it reports as transient.
        (Err(last.unwrap_or(LlmError::Transient)), call)
    }
}

/// One resilient call with the shared degradation: the completion's
/// text, or a truncated completion's partial text (noting
/// `truncated`). `None` (noting `failed`) when every attempt failed
/// without a partial text; the caller picks the fallback.
pub(crate) fn complete_or_degrade(
    rl: &ResilientLlm<'_>,
    prompt: &str,
    task: &LlmTask<'_>,
    trace: &mut Trace,
    truncated: &str,
    failed: &str,
) -> Option<String> {
    let (res, call) = rl.complete(prompt, task);
    trace.llm_calls.push(call);
    match res {
        Ok(c) => Some(c.text),
        Err(e) => match e.partial_text() {
            Some(t) if !t.is_empty() => {
                trace.degradation.push(truncated.to_string());
                Some(t.to_string())
            }
            _ => {
                trace.degradation.push(failed.to_string());
                None
            }
        },
    }
}

/// Best-effort answer assembled from a graph's object strings — the
/// answer-stage degradation when every attempt at the model failed.
/// Always non-empty: a degraded question still produces an answer.
pub fn best_effort_answer(graph: &[kgstore::StrTriple]) -> String {
    let mut objs: Vec<&str> = Vec::new();
    for t in graph {
        if !t.o.is_empty() && !objs.iter().any(|o| o.eq_ignore_ascii_case(&t.o)) {
            objs.push(&t.o);
        }
        if objs.len() >= 8 {
            break;
        }
    }
    if objs.is_empty() {
        "Based on the graph above, I cannot determine the answer.".to_string()
    } else {
        format!("Based on the graph, the answer is {}.", objs.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgstore::StrTriple;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use worldgen::{datasets::simpleq, generate, WorldConfig};

    /// A model that fails according to a fixed outcome script.
    struct FlakyLlm {
        script: Mutex<VecDeque<Result<String, LlmError>>>,
        calls: AtomicUsize,
    }

    impl FlakyLlm {
        fn new(script: Vec<Result<String, LlmError>>) -> Self {
            Self {
                script: Mutex::new(script.into()),
                calls: AtomicUsize::new(0),
            }
        }
    }

    impl LanguageModel for FlakyLlm {
        fn name(&self) -> &str {
            "flaky"
        }
        fn complete(&self, _p: &str, _t: &LlmTask<'_>) -> Result<Completion, LlmError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            match self.script.lock().unwrap().pop_front() {
                Some(Ok(text)) => Ok(Completion { text }),
                Some(Err(e)) => Err(e),
                None => Ok(Completion { text: "ok".into() }),
            }
        }
        fn call_count(&self) -> usize {
            self.calls.load(Ordering::Relaxed)
        }
        fn tokens_processed(&self) -> usize {
            0
        }
    }

    fn question() -> worldgen::Question {
        let world = Arc::new(generate(&WorldConfig {
            scale: 0.3,
            ..Default::default()
        }));
        simpleq::generate(&world, 1, 1).questions.pop().unwrap()
    }

    #[test]
    fn retries_recover_from_transient_faults() {
        let q = question();
        let llm = FlakyLlm::new(vec![
            Err(LlmError::Timeout),
            Err(LlmError::Transient),
            Ok("recovered".into()),
        ]);
        let cfg = ResilienceConfig::default();
        let rl = ResilientLlm::new(&llm, &cfg);
        let (res, call) = rl.complete("p", &LlmTask::Io { question: &q });
        assert_eq!(res.unwrap().text, "recovered");
        assert_eq!(call.attempts, 3);
        assert_eq!(call.faults, vec!["timeout", "transient"]);
        assert!(call.backoff_ms > 0);
        assert!(!call.fast_failed);
    }

    #[test]
    fn backoff_doubles_and_respects_retry_after() {
        let q = question();
        let llm = FlakyLlm::new(vec![
            Err(LlmError::Transient),
            Err(LlmError::RateLimited { retry_after_ms: 77 }),
            Err(LlmError::Transient),
        ]);
        let cfg = ResilienceConfig {
            max_attempts: 4,
            ..Default::default()
        };
        let rl = ResilientLlm::new(&llm, &cfg);
        let (_, call) = rl.complete("p", &LlmTask::Io { question: &q });
        // 100 (transient, retry 0) + 77 (rate-limit hint) + 400 (retry 2).
        assert_eq!(call.backoff_ms, 100 + 77 + 400);
        assert_eq!(rl.virtual_elapsed_ms(), call.backoff_ms);
    }

    #[test]
    fn truncation_is_not_retried() {
        let q = question();
        let llm = FlakyLlm::new(vec![Err(LlmError::Truncated {
            text: "part".into(),
        })]);
        let cfg = ResilienceConfig::default();
        let rl = ResilientLlm::new(&llm, &cfg);
        let (res, call) = rl.complete("p", &LlmTask::Io { question: &q });
        assert_eq!(call.attempts, 1, "non-retryable fault must not retry");
        assert_eq!(res.unwrap_err().partial_text(), Some("part"));
    }

    #[test]
    fn breaker_trips_and_fails_fast() {
        let q = question();
        let always: Vec<_> = (0..20).map(|_| Err(LlmError::Transient)).collect();
        let llm = FlakyLlm::new(always);
        let cfg = ResilienceConfig {
            max_attempts: 3,
            breaker_threshold: 4,
            ..Default::default()
        };
        let rl = ResilientLlm::new(&llm, &cfg);
        let task = LlmTask::Io { question: &q };
        let (r1, c1) = rl.complete("p", &task);
        assert!(r1.is_err());
        assert_eq!(c1.attempts, 3);
        // 3 consecutive failures so far; the next call's first failure
        // trips the threshold of 4 and the rest fast-fail.
        let (r2, c2) = rl.complete("p", &task);
        assert!(r2.is_err());
        assert_eq!(c2.attempts, 1);
        assert!(c2.fast_failed);
        // Fully open now: no transport attempts at all.
        let (r3, c3) = rl.complete("p", &task);
        assert!(r3.is_err());
        assert_eq!(c3.attempts, 0);
        assert!(c3.fast_failed);
        assert_eq!(llm.call_count(), 4);
    }

    #[test]
    fn breaker_is_per_task_kind() {
        let q = question();
        let always: Vec<_> = (0..5).map(|_| Err(LlmError::Transient)).collect();
        let llm = FlakyLlm::new(always);
        let cfg = ResilienceConfig {
            max_attempts: 5,
            breaker_threshold: 5,
            ..Default::default()
        };
        let rl = ResilientLlm::new(&llm, &cfg);
        let (_, c1) = rl.complete("p", &LlmTask::Io { question: &q });
        assert_eq!(
            c1.attempts, 5,
            "io burned its budget and tripped its breaker"
        );
        // The io breaker is open: same kind fails without the transport.
        let (r_io, c_io) = rl.complete("p", &LlmTask::Io { question: &q });
        assert!(r_io.is_err());
        assert!(c_io.fast_failed);
        // A different task kind has its own (closed) breaker and the
        // script is exhausted (→ Ok), so it reaches the transport and
        // succeeds on the first attempt.
        let (r2, c2) = rl.complete("p", &LlmTask::Cot { question: &q });
        assert!(r2.is_ok());
        assert!(!c2.fast_failed);
        assert_eq!(c2.attempts, 1);
    }

    #[test]
    fn success_resets_the_breaker_counter() {
        let q = question();
        let llm = FlakyLlm::new(vec![
            Err(LlmError::Transient),
            Err(LlmError::Transient),
            Ok("fine".into()),
            Err(LlmError::Transient),
            Ok("fine again".into()),
        ]);
        let cfg = ResilienceConfig {
            breaker_threshold: 3,
            ..Default::default()
        };
        let rl = ResilientLlm::new(&llm, &cfg);
        let task = LlmTask::Io { question: &q };
        assert!(rl.complete("p", &task).0.is_ok());
        // Counter was reset by the success; one more failure stays
        // under the threshold and the retry succeeds.
        let (r, c) = rl.complete("p", &task);
        assert!(r.is_ok());
        assert!(!c.fast_failed);
    }

    #[test]
    fn disabled_means_single_attempt() {
        // Ten retryable failures of one task kind in a row, twice the
        // default breaker threshold: every call makes one attempt, waits
        // no backoff and still reaches the transport.
        let q = question();
        let llm = FlakyLlm::new((0..10).map(|_| Err(LlmError::Timeout)).collect());
        let cfg = ResilienceConfig::disabled();
        let rl = ResilientLlm::new(&llm, &cfg);
        for i in 0..10 {
            let (res, call) = rl.complete("p", &LlmTask::Io { question: &q });
            assert!(res.is_err(), "call {i}");
            let expected = StageCall {
                stage: "io".into(),
                attempts: 1,
                faults: vec!["timeout".into()],
                backoff_ms: 0,
                fast_failed: false,
            };
            assert_eq!(call, expected, "call {i}");
        }
        assert_eq!(llm.call_count(), 10);
        assert_eq!(rl.virtual_elapsed_ms(), 0);
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let mut b = Breaker::new(2, 500);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(0), Admit::Yes);
        b.on_result(0, false);
        assert_eq!(b.admit(10), Admit::Yes);
        b.on_result(10, false);
        // Second consecutive failure trips it.
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(100), Admit::No, "cooling down");
        assert_eq!(b.admit(509), Admit::No, "still cooling (10 + 500)");
        // Cooldown elapsed: exactly one probe is admitted.
        assert_eq!(b.admit(510), Admit::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.admit(511), Admit::No, "probe already in flight");
        b.on_result(520, true);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(521), Admit::Yes);
        let states: Vec<(u64, BreakerState, BreakerState)> = b
            .transitions()
            .iter()
            .map(|t| (t.at_ms, t.from, t.to))
            .collect();
        assert_eq!(
            states,
            vec![
                (10, BreakerState::Closed, BreakerState::Open),
                (510, BreakerState::Open, BreakerState::HalfOpen),
                (520, BreakerState::HalfOpen, BreakerState::Closed),
            ]
        );
    }

    #[test]
    fn failed_probe_reopens_for_another_cooldown() {
        let mut b = Breaker::new(1, 300);
        b.on_result(0, false);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(300), Admit::Probe);
        b.on_result(305, false);
        assert_eq!(b.state(), BreakerState::Open);
        // Fresh cooldown from the probe failure, not the original trip.
        assert_eq!(b.admit(600), Admit::No);
        assert_eq!(b.admit(605), Admit::Probe);
        b.on_result(610, true);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.transitions().len(), 5, "O, HO, O, HO, C");
    }

    #[test]
    fn halfopen_probe_slot_frees_after_resolution_only() {
        let mut b = Breaker::new(1, 100);
        b.on_result(0, false);
        assert_eq!(b.admit(100), Admit::Probe);
        assert_eq!(b.admit(150), Admit::No);
        assert_eq!(b.admit(200), Admit::No);
        b.on_result(250, true);
        assert_eq!(b.admit(251), Admit::Yes);
    }

    #[test]
    fn resilient_llm_recovers_through_halfopen_on_the_virtual_clock() {
        let q = question();
        // 4 failures trip the io breaker; the script then yields Ok
        // forever, so the post-cooldown probe succeeds and closes it.
        let always: Vec<_> = (0..4).map(|_| Err(LlmError::Transient)).collect();
        let llm = FlakyLlm::new(always);
        let cfg = ResilienceConfig {
            max_attempts: 3,
            breaker_threshold: 4,
            breaker_cooldown_ms: 1_000,
            ..Default::default()
        };
        let rl = ResilientLlm::new(&llm, &cfg);
        let task = LlmTask::Io { question: &q };
        assert!(rl.complete("p", &task).0.is_err());
        let (r2, c2) = rl.complete("p", &task);
        assert!(r2.is_err());
        assert!(c2.fast_failed, "tripped on this call's first failure");
        // Open: fails fast with zero transport attempts.
        let (_, c3) = rl.complete("p", &task);
        assert_eq!(c3.attempts, 0);
        assert!(c3.fast_failed);
        let before = llm.call_count();
        // Once the clock passes the cooldown, the next call is
        // admitted as the probe.
        rl.advance_clock(1_000);
        let (r4, c4) = rl.complete("p", &task);
        assert_eq!(r4.unwrap().text, "ok");
        assert_eq!(c4.attempts, 1);
        assert!(!c4.fast_failed);
        assert_eq!(llm.call_count(), before + 1);
        // Closed again: further calls flow normally.
        let (r5, _) = rl.complete("p", &task);
        assert!(r5.is_ok());
    }

    #[test]
    fn best_effort_answer_is_never_empty() {
        assert!(!best_effort_answer(&[]).is_empty());
        let g = vec![
            StrTriple::new("a", "p", "Peru"),
            StrTriple::new("a", "p", "peru"),
            StrTriple::new("b", "q", "Chile"),
        ];
        let a = best_effort_answer(&g);
        assert!(a.contains("Peru") && a.contains("Chile"));
        assert_eq!(a.matches("eru").count(), 1, "case-insensitive dedup");
    }
}
