//! The serving engine: a discrete-event simulation over virtual time
//! driving a pool of real worker threads.
//!
//! The main thread owns every piece of service state — admission
//! queue, virtual servers, deadlines, the service breaker — and
//! advances a virtual event clock over two event kinds: *arrival*
//! (admit, shed, or queue) and *completion* (record the outcome, feed
//! the breaker, start the next queued job). It sends each started
//! question to the crate's one worker pool (the `pool` module, which the
//! runner uses too) as an `(arrival, budget)` job. Workers only evaluate
//! jobs — one `drive` call from [`crate::pipeline`] per question, the
//! pure `(question, budget) → output` function the runner also calls —
//! and send results back over a channel.
//!
//! The loop never acts on an event until every completion that could
//! precede it is known: each in-flight job finishes no earlier than
//! `started + MIN_SERVICE_MS`, so the loop blocks for results exactly
//! when that bound does not clear the next known event. Completions
//! are then ordered by `(virtual finish, arrival)`. Admission is FIFO
//! in arrival order, so that is also the order jobs started in, and
//! the whole schedule — and every outcome — is independent of how many
//! real workers raced to produce the results.

use crate::method::{MethodOutput, QaContext};
use crate::pipeline::{drive, Stages, STAGE_OVERHEAD_MS};
use crate::pool::{with_pool, Answer};
use crate::resilience::{best_effort_answer, Admit, Breaker, BreakerState};
use crate::retrieval::BaseIndex;
use crate::serve::{
    BatchTelemetry, Disposition, OfferedTrace, Outcome, ServeConfig, ServeReport, ShedReason,
};
use crate::PipelineConfig;
use kgstore::hash::FxHashMap;
use kgstore::KgSource;
use semvec::Embedder;
use simllm::LanguageModel;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::mpsc;
use worldgen::Question;

/// No job finishes faster than this: every dispatched job enters at
/// least the pseudo-graph stage. The event loop uses it as the lower
/// bound when deciding which in-flight results it must wait for before
/// advancing the event clock.
const MIN_SERVICE_MS: u64 = STAGE_OVERHEAD_MS;

/// One dispatched job: the arrival it serves and its remaining
/// deadline budget.
type Job = (usize, u64);

/// A job whose result is known; waits in the completion heap until
/// its virtual finish time is reached.
struct Finished {
    started_ms: u64,
    answer: String,
    degradation: Vec<String>,
    attempts: u32,
    faults: usize,
    panicked: bool,
}

/// Run the QA service over an offered trace against a shared base
/// index (callers typically hold it in an `Arc` and serve many traces
/// from the same build). Returns per-arrival outcomes in offered
/// order; same `questions` + `offered` + configs ⇒ a byte-identical
/// report for any worker count.
///
/// # Panics
///
/// If there are arrivals but no questions, or no virtual servers (the
/// queue would never drain), or if every worker thread died while jobs
/// were still waiting for one.
#[allow(clippy::too_many_arguments)] // mirrors QaContext + the serve knobs
pub fn serve(
    llm: &dyn LanguageModel,
    source: &KgSource,
    base: &BaseIndex,
    embedder: &Embedder,
    cfg: &PipelineConfig,
    scfg: &ServeConfig,
    questions: &[Question],
    offered: &OfferedTrace,
) -> ServeReport {
    let n = offered.arrivals.len();
    assert!(
        n == 0 || !questions.is_empty(),
        "serving arrivals needs at least one question"
    );
    assert!(
        scfg.virtual_servers > 0,
        "serving needs at least one virtual server"
    );
    // Each offered arrival serves a clone with a unique id: the fault
    // plan and the simulated model key on the question id, so two
    // offerings of the same dataset question must not share per-slot
    // fault state (a real-time race would leak into outcomes).
    let offered_questions: Vec<Question> = offered
        .arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let mut q = questions[a.question].clone();
            q.id = format!("{}#o{i}", q.id);
            q
        })
        .collect();
    let ctx = QaContext {
        llm,
        source: Some(source),
        base: Some(base),
        embedder,
        cfg,
    };

    let before = base.scoring_stats();
    // No more than `virtual_servers` jobs are ever in flight.
    let mut report = with_pool(
        scfg.workers,
        scfg.virtual_servers,
        |(arrival, budget_ms): Job| {
            drive(&ctx, &offered_questions[arrival], Stages::Full, budget_ms)
        },
        |jobs, answers| event_loop(scfg, offered, questions, &jobs, &answers),
    );
    // Every dispatched job has reported back, so every grounding
    // search of this run is in the delta.
    let after = base.scoring_stats();
    report.batch = BatchTelemetry {
        batches: after.batches - before.batches,
        slots: after.batch_slots - before.batch_slots,
    };
    report
}

/// Fold one worker answer into the completion heap.
fn absorb(
    ((arrival, _), outcome): Answer<Job, MethodOutput>,
    in_flight: &mut FxHashMap<usize, u64>,
    heap: &mut BinaryHeap<Reverse<(u64, usize)>>,
    done: &mut FxHashMap<usize, Finished>,
    questions: &[Question],
    offered: &OfferedTrace,
) {
    let started_ms = in_flight
        .remove(&arrival)
        .expect("result for a job never dispatched");
    let (f, service_ms) = match outcome {
        Ok(out) => {
            let attempts = out.trace.total_attempts();
            let faults = out.trace.total_faults();
            let service = out.trace.virtual_ms().max(MIN_SERVICE_MS);
            (
                Finished {
                    started_ms,
                    answer: out.answer,
                    degradation: out.trace.degradation,
                    attempts,
                    faults,
                    panicked: false,
                },
                service,
            )
        }
        Err(msg) => {
            // A panicking job is isolated: the question is answered
            // degraded and the panic is preserved as a note (the soak
            // gates assert none ever happen).
            let qid = &questions[offered.arrivals[arrival].question].id;
            (
                Finished {
                    started_ms,
                    answer: best_effort_answer(&[]),
                    degradation: vec![format!("panic:{arrival}:{qid}:{msg}")],
                    attempts: 0,
                    faults: 0,
                    panicked: true,
                },
                MIN_SERVICE_MS,
            )
        }
    };
    heap.push(Reverse((started_ms + service_ms, arrival)));
    done.insert(arrival, f);
}

fn event_loop(
    scfg: &ServeConfig,
    offered: &OfferedTrace,
    questions: &[Question],
    jobs: &mpsc::Sender<Job>,
    answers: &mpsc::Receiver<Answer<Job, MethodOutput>>,
) -> ServeReport {
    let n = offered.arrivals.len();
    let mut outcomes: Vec<Option<Outcome>> = std::iter::repeat_with(|| None).take(n).collect();
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut busy = 0usize;
    let mut breaker = Breaker::new(scfg.breaker_threshold, scfg.breaker_cooldown_ms);
    let mut probe_offered: Option<usize> = None;
    let mut ai = 0usize;
    // Keyed by arrival: the start time of each dispatched job, and the
    // result of each job waiting for its virtual finish.
    let mut in_flight: FxHashMap<usize, u64> = FxHashMap::default();
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut done: FxHashMap<usize, Finished> = FxHashMap::default();
    let mut now = 0u64;

    // Move queued questions into free virtual servers at time `t`.
    // A question whose deadline already expired while queued is
    // answered degraded on the spot — admitted is a promise.
    macro_rules! start_queued {
        ($t:expr) => {
            while busy < scfg.virtual_servers {
                let Some(idx) = queue.pop_front() else { break };
                busy += 1;
                let deadline_abs = offered.arrivals[idx].at_ms.saturating_add(scfg.deadline_ms);
                if $t >= deadline_abs {
                    done.insert(
                        idx,
                        Finished {
                            started_ms: $t,
                            answer: best_effort_answer(&[]),
                            degradation: vec!["deadline:expired-in-queue".into()],
                            attempts: 0,
                            faults: 0,
                            panicked: false,
                        },
                    );
                    heap.push(Reverse(($t + MIN_SERVICE_MS, idx)));
                } else {
                    in_flight.insert(idx, $t);
                    jobs.send((idx, deadline_abs - $t))
                        .expect("the pool holds the job receiver");
                }
            }
        };
    }

    enum Event {
        Arrival,
        Completion,
    }

    loop {
        // Absorb whatever results already arrived, without blocking.
        while let Ok(r) = answers.try_recv() {
            absorb(r, &mut in_flight, &mut heap, &mut done, questions, offered);
        }
        // Pick the next event, blocking for in-flight results whenever
        // an unknown completion could still precede (or tie) it.
        let event = loop {
            let next_completion = heap.peek().map(|Reverse((t, _))| *t);
            let next_arrival = if ai < n {
                Some(offered.arrivals[ai].at_ms)
            } else {
                None
            };
            let known = match (next_completion, next_arrival) {
                (Some(tc), Some(ta)) if tc <= ta => Some((tc, Event::Completion)),
                (Some(_), Some(ta)) => Some((ta, Event::Arrival)),
                (Some(tc), None) => Some((tc, Event::Completion)),
                (None, Some(ta)) => Some((ta, Event::Arrival)),
                (None, None) => None,
            };
            let unknown_bound = in_flight.values().map(|&s| s + MIN_SERVICE_MS).min();
            match (&known, unknown_bound) {
                (None, None) => break None,
                (None, Some(_)) => {}
                (Some((kt, _)), Some(b)) if b <= *kt => {}
                (Some(_), _) => break known,
            }
            // An in-flight job might finish first: wait for a result.
            let r = answers.recv().expect("every worker thread died");
            absorb(r, &mut in_flight, &mut heap, &mut done, questions, offered);
        };
        let Some((t, event)) = event else { break };
        now = t;
        match event {
            Event::Completion => {
                let Reverse((_, idx)) = heap.pop().expect("peeked completion vanished");
                let f = done.remove(&idx).expect("completion without a result");
                busy -= 1;
                // Service-level health signal: transport-exhausted
                // degradation (or a panic) is a failure; deadline
                // degradation is load, not fault, and does not count.
                let ok = !f.panicked && f.degradation.iter().all(|d| d.starts_with("deadline:"));
                if probe_offered == Some(idx) {
                    // The recovery probe only closes the breaker if it
                    // actually exercised the transport: a probe that
                    // expired in the queue proves nothing.
                    let probe_ok = ok && (f.attempts > 0 || f.degradation.is_empty());
                    breaker.on_result(now, probe_ok);
                    probe_offered = None;
                } else if breaker.state() == BreakerState::Closed {
                    breaker.on_result(now, ok);
                }
                let arrival = &offered.arrivals[idx];
                outcomes[idx] = Some(Outcome {
                    offered: idx,
                    qid: questions[arrival.question].id.clone(),
                    arrival_ms: arrival.at_ms,
                    disposition: Disposition::Answered {
                        started_ms: f.started_ms,
                        finished_ms: now,
                        answer: f.answer,
                        degradation: f.degradation,
                        attempts: f.attempts,
                        faults: f.faults,
                    },
                });
                start_queued!(now);
            }
            Event::Arrival => {
                let idx = ai;
                ai += 1;
                let arrival = &offered.arrivals[idx];
                // Admission: capacity first (a full queue sheds
                // regardless of breaker state — rejecting the newest
                // arrival is the shedding policy), then the breaker.
                let has_capacity = busy < scfg.virtual_servers || queue.len() < scfg.queue_cap;
                let shed = if !has_capacity {
                    Some(ShedReason::QueueFull)
                } else {
                    match breaker.admit(now) {
                        Admit::Yes => None,
                        Admit::Probe => {
                            probe_offered = Some(idx);
                            None
                        }
                        Admit::No => Some(if breaker.state() == BreakerState::HalfOpen {
                            ShedReason::ProbeInFlight
                        } else {
                            ShedReason::BreakerOpen
                        }),
                    }
                };
                match shed {
                    Some(reason) => {
                        outcomes[idx] = Some(Outcome {
                            offered: idx,
                            qid: questions[arrival.question].id.clone(),
                            arrival_ms: arrival.at_ms,
                            disposition: Disposition::Shed { reason },
                        });
                    }
                    None => {
                        queue.push_back(idx);
                        start_queued!(now);
                    }
                }
            }
        }
    }
    debug_assert!(queue.is_empty() && busy == 0 && in_flight.is_empty());

    ServeReport {
        outcomes: outcomes
            .into_iter()
            .enumerate()
            .map(|(i, o)| o.unwrap_or_else(|| panic!("arrival {i} has no outcome")))
            .collect(),
        breaker_transitions: breaker.transitions().to_vec(),
        makespan_ms: now,
        batch: BatchTelemetry::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::Arrival;
    use simllm::{Completion, FaultPlan, FaultyLlm, LlmError, LlmTask, ModelProfile, SimLlm};
    use std::sync::Arc;
    use worldgen::{datasets::simpleq, derive, generate, SourceConfig, WorldConfig};

    struct Fixture {
        world: Arc<worldgen::World>,
        src: kgstore::KgSource,
        emb: Embedder,
        cfg: PipelineConfig,
        questions: Vec<Question>,
        base: BaseIndex,
    }

    fn fixture(n_questions: usize, seed: u64) -> Fixture {
        let world = Arc::new(generate(&WorldConfig::default()));
        let src = derive(&world, &SourceConfig::wikidata());
        let emb = Embedder::default();
        let cfg = PipelineConfig::default();
        let ds = simpleq::generate(&world, n_questions, seed);
        let base = BaseIndex::for_questions(
            &src,
            &emb,
            &cfg,
            ds.questions.iter().map(|q| q.text.as_str()),
        );
        Fixture {
            world,
            src,
            emb,
            cfg,
            questions: ds.questions,
            base,
        }
    }

    fn answered_note(o: &Outcome, needle: &str) -> bool {
        matches!(&o.disposition, Disposition::Answered { degradation, .. }
            if degradation.iter().any(|d| d.contains(needle)))
    }

    #[test]
    fn low_load_answers_everything_unshed_and_undegraded() {
        let fx = fixture(12, 31);
        let llm = SimLlm::new(fx.world.clone(), ModelProfile::gpt35_sim());
        let offered = OfferedTrace::poisson(9, 2.0, 16, fx.questions.len());
        let scfg = ServeConfig {
            workers: 2,
            ..Default::default()
        };
        let r = serve(
            &llm,
            &fx.src,
            &fx.base,
            &fx.emb,
            &fx.cfg,
            &scfg,
            &fx.questions,
            &offered,
        );
        assert_eq!(r.outcomes.len(), 16);
        assert_eq!(r.shed(), 0, "2 q/s against 4 servers must not shed");
        assert!(r.breaker_transitions.is_empty());
        for o in &r.outcomes {
            match &o.disposition {
                Disposition::Answered {
                    answer,
                    degradation,
                    ..
                } => {
                    assert!(!answer.is_empty());
                    assert!(degradation.is_empty(), "{:?}", degradation);
                }
                Disposition::Shed { .. } => unreachable!(),
            }
        }
        assert!(r.makespan_ms > 0);
        assert!(r.latency_percentile_ms(50.0) > 0);
    }

    #[test]
    fn outcomes_are_byte_identical_for_any_worker_count() {
        let fx = fixture(10, 32);
        let offered = OfferedTrace::poisson(11, 12.0, 24, fx.questions.len());
        let run = |workers: usize| {
            // Fresh faulty transport per run: its per-slot attempt
            // counters are state, and sharing them across runs would
            // (correctly) change outcomes.
            let llm = FaultyLlm::new(
                SimLlm::new(fx.world.clone(), ModelProfile::gpt35_sim()),
                FaultPlan::uniform(0xFA57, 0.35),
            );
            let scfg = ServeConfig {
                workers,
                ..Default::default()
            };
            serve(
                &llm,
                &fx.src,
                &fx.base,
                &fx.emb,
                &fx.cfg,
                &scfg,
                &fx.questions,
                &offered,
            )
        };
        let a = run(1);
        let b = run(2);
        let c = run(8);
        assert_eq!(a.outcomes, b.outcomes, "1 vs 2 workers");
        assert_eq!(a.outcomes, c.outcomes, "1 vs 8 workers");
        assert_eq!(a.breaker_transitions, b.breaker_transitions);
        assert_eq!(a.identity_key(), b.identity_key());
        assert_eq!(a.identity_key(), c.identity_key());
    }

    /// Records the thread of every model call.
    struct ThreadLog {
        inner: SimLlm,
        threads: std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
    }

    impl LanguageModel for ThreadLog {
        fn name(&self) -> &str {
            "thread-log"
        }
        fn complete(&self, prompt: &str, task: &LlmTask<'_>) -> Result<Completion, LlmError> {
            self.threads
                .lock()
                .expect("no panic while holding")
                .insert(std::thread::current().id());
            self.inner.complete(prompt, task)
        }
        fn call_count(&self) -> usize {
            self.inner.call_count()
        }
        fn tokens_processed(&self) -> usize {
            self.inner.tokens_processed()
        }
    }

    #[test]
    fn no_more_workers_serve_than_virtual_servers() {
        let fx = fixture(8, 39);
        let llm = ThreadLog {
            inner: SimLlm::new(fx.world.clone(), ModelProfile::gpt35_sim()),
            threads: Default::default(),
        };
        let offered = OfferedTrace::poisson(13, 12.0, 32, fx.questions.len());
        let scfg = ServeConfig {
            workers: 8,
            virtual_servers: 2,
            queue_cap: 32,
            ..Default::default()
        };
        let r = serve(
            &llm,
            &fx.src,
            &fx.base,
            &fx.emb,
            &fx.cfg,
            &scfg,
            &fx.questions,
            &offered,
        );
        assert_eq!(r.answered(), 32);
        let threads = llm.threads.lock().expect("no panic while holding").len();
        assert!(threads <= 2, "{threads} threads served 2 virtual servers");
    }

    #[test]
    fn overload_sheds_queue_full_and_answers_every_admission() {
        let fx = fixture(8, 33);
        let llm = SimLlm::new(fx.world.clone(), ModelProfile::gpt35_sim());
        // A burst far beyond one server + two queue slots.
        let offered = OfferedTrace {
            arrivals: (0..20)
                .map(|i| Arrival {
                    at_ms: i as u64 * 10,
                    question: i % fx.questions.len(),
                })
                .collect(),
        };
        let scfg = ServeConfig {
            queue_cap: 2,
            virtual_servers: 1,
            workers: 2,
            ..Default::default()
        };
        let r = serve(
            &llm,
            &fx.src,
            &fx.base,
            &fx.emb,
            &fx.cfg,
            &scfg,
            &fx.questions,
            &offered,
        );
        let shed_full = r
            .outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o.disposition,
                    Disposition::Shed {
                        reason: ShedReason::QueueFull
                    }
                )
            })
            .count();
        assert!(shed_full > 0, "a 100 q/s burst into one server must shed");
        for o in &r.outcomes {
            if let Disposition::Answered { answer, .. } = &o.disposition {
                assert!(!answer.is_empty(), "admitted ⇒ answered: {}", o.qid);
            }
        }
        assert!(r.answered() + r.shed() == 20);
    }

    #[test]
    fn deadline_pressure_degrades_but_every_admission_is_answered() {
        let fx = fixture(8, 34);
        let llm = SimLlm::new(fx.world.clone(), ModelProfile::gpt35_sim());
        let offered = OfferedTrace {
            arrivals: (0..12)
                .map(|i| Arrival {
                    at_ms: i as u64 * 30,
                    question: i % fx.questions.len(),
                })
                .collect(),
        };
        // A deadline below one clean question's service time: every
        // question burns its budget somewhere.
        let scfg = ServeConfig {
            deadline_ms: 150,
            virtual_servers: 1,
            queue_cap: 12,
            workers: 3,
            ..Default::default()
        };
        let r = serve(
            &llm,
            &fx.src,
            &fx.base,
            &fx.emb,
            &fx.cfg,
            &scfg,
            &fx.questions,
            &offered,
        );
        assert_eq!(r.shed(), 0, "deadlines degrade, they do not shed");
        let mut deadline_degraded = 0;
        let mut expired_in_queue = 0;
        for o in &r.outcomes {
            let Disposition::Answered {
                answer,
                degradation,
                ..
            } = &o.disposition
            else {
                unreachable!()
            };
            assert!(!answer.is_empty(), "degraded, never missing");
            if degradation.iter().any(|d| d.starts_with("deadline:")) {
                deadline_degraded += 1;
            }
            if degradation.iter().any(|d| d == "deadline:expired-in-queue") {
                expired_in_queue += 1;
            }
        }
        assert!(
            deadline_degraded >= 10,
            "a 150 ms deadline must bite: {deadline_degraded}/12"
        );
        assert!(
            expired_in_queue > 0,
            "the backlog behind one slow server must expire some queued questions"
        );
    }

    /// Panics on one offered arrival with a payload whose own `Drop`
    /// panics, so the panic escapes the worker's `catch_unwind` and
    /// unwinds the worker thread.
    struct PanicOnArrival {
        inner: SimLlm,
        arrival: usize,
    }

    struct PanicOnDrop;

    impl Drop for PanicOnDrop {
        fn drop(&mut self) {
            panic!("payload drop panics");
        }
    }

    impl LanguageModel for PanicOnArrival {
        fn name(&self) -> &str {
            "panic-on-arrival"
        }
        fn complete(&self, prompt: &str, task: &LlmTask<'_>) -> Result<Completion, LlmError> {
            if StormLlm::offered_index(task) == Some(self.arrival) {
                std::panic::panic_any(PanicOnDrop);
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

    /// Serve 10 arrivals with `workers` workers on a helper thread,
    /// whose model kills a worker on arrival 3, and wait up to 60 s:
    /// `Timeout` means `serve` hung, `Disconnected` that it panicked.
    fn serve_with_a_dying_worker(
        fx: &Arc<Fixture>,
        workers: usize,
    ) -> Result<ServeReport, mpsc::RecvTimeoutError> {
        let (tx, rx) = mpsc::channel();
        let fx = Arc::clone(fx);
        std::thread::spawn(move || {
            let llm = PanicOnArrival {
                inner: SimLlm::new(fx.world.clone(), ModelProfile::gpt35_sim()),
                arrival: 3,
            };
            let offered = OfferedTrace::poisson(9, 2.0, 10, fx.questions.len());
            let scfg = ServeConfig {
                workers,
                ..Default::default()
            };
            let r = serve(
                &llm,
                &fx.src,
                &fx.base,
                &fx.emb,
                &fx.cfg,
                &scfg,
                &fx.questions,
                &offered,
            );
            let _ = tx.send(r);
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
    }

    #[test]
    fn a_dead_worker_degrades_its_arrival_and_serve_returns() {
        let fx = Arc::new(fixture(8, 37));
        let r = match serve_with_a_dying_worker(&fx, 2) {
            Ok(r) => r,
            Err(e) => panic!("serve with a surviving worker must return: {e:?}"),
        };
        assert_eq!(r.outcomes.len(), 10);
        for o in &r.outcomes {
            if let Disposition::Answered { answer, .. } = &o.disposition {
                assert!(!answer.is_empty(), "admitted ⇒ answered: {}", o.qid);
                assert_eq!(answered_note(o, "panic:"), o.offered == 3, "{o:?}");
            }
        }
        assert!(
            answered_note(&r.outcomes[3], "panic:"),
            "arrival 3 is answered"
        );
    }

    #[test]
    fn serve_panics_instead_of_hanging_once_every_worker_died() {
        // With its only worker gone, queued jobs can never finish.
        let fx = Arc::new(fixture(8, 38));
        assert_eq!(
            serve_with_a_dying_worker(&fx, 1).err(),
            Some(mpsc::RecvTimeoutError::Disconnected),
            "serve with no surviving worker must panic, not hang"
        );
    }

    #[test]
    #[should_panic(expected = "at least one virtual server")]
    fn zero_virtual_servers_is_rejected() {
        let fx = fixture(2, 36);
        let llm = SimLlm::new(fx.world.clone(), ModelProfile::gpt35_sim());
        let offered = OfferedTrace::poisson(3, 2.0, 4, fx.questions.len());
        let scfg = ServeConfig {
            virtual_servers: 0,
            workers: 1,
            ..Default::default()
        };
        serve(
            &llm,
            &fx.src,
            &fx.base,
            &fx.emb,
            &fx.cfg,
            &scfg,
            &fx.questions,
            &offered,
        );
    }

    /// Fails every transport call for the first `storm_until` offered
    /// arrivals (the engine tags offered clones with `#o<i>`), then
    /// behaves like the clean simulated model.
    struct StormLlm {
        inner: SimLlm,
        storm_until: usize,
    }

    impl StormLlm {
        fn offered_index(task: &LlmTask<'_>) -> Option<usize> {
            let id = &task.question().id;
            id.rsplit_once("#o").and_then(|(_, i)| i.parse().ok())
        }
    }

    impl LanguageModel for StormLlm {
        fn name(&self) -> &str {
            "storm"
        }
        fn complete(&self, prompt: &str, task: &LlmTask<'_>) -> Result<Completion, LlmError> {
            match Self::offered_index(task) {
                Some(i) if i < self.storm_until => Err(LlmError::Transient),
                _ => self.inner.complete(prompt, task),
            }
        }
        fn call_count(&self) -> usize {
            self.inner.call_count()
        }
        fn tokens_processed(&self) -> usize {
            self.inner.tokens_processed()
        }
    }

    #[test]
    fn fault_storm_trips_the_breaker_sheds_then_recovers_through_a_probe() {
        let fx = fixture(10, 35);
        let llm = StormLlm {
            inner: SimLlm::new(fx.world.clone(), ModelProfile::gpt35_sim()),
            storm_until: 12,
        };
        let offered = OfferedTrace {
            arrivals: (0..60)
                .map(|i| Arrival {
                    at_ms: i as u64 * 100,
                    question: i % fx.questions.len(),
                })
                .collect(),
        };
        let scfg = ServeConfig {
            queue_cap: 4,
            virtual_servers: 2,
            deadline_ms: 60_000, // deadlines out of the picture
            breaker_threshold: 2,
            breaker_cooldown_ms: 800,
            workers: 4,
        };
        let r = serve(
            &llm,
            &fx.src,
            &fx.base,
            &fx.emb,
            &fx.cfg,
            &scfg,
            &fx.questions,
            &offered,
        );
        let shed_reasons: Vec<ShedReason> = r
            .outcomes
            .iter()
            .filter_map(|o| match o.disposition {
                Disposition::Shed { reason } => Some(reason),
                _ => None,
            })
            .collect();
        assert!(
            shed_reasons.contains(&ShedReason::BreakerOpen),
            "the storm must trip the breaker and shed: {shed_reasons:?}"
        );
        assert!(
            shed_reasons.contains(&ShedReason::ProbeInFlight),
            "arrivals during the probe must shed: {shed_reasons:?}"
        );
        let kinds: Vec<(BreakerState, BreakerState)> = r
            .breaker_transitions
            .iter()
            .map(|t| (t.from, t.to))
            .collect();
        assert!(kinds.contains(&(BreakerState::Closed, BreakerState::Open)));
        assert!(kinds.contains(&(BreakerState::Open, BreakerState::HalfOpen)));
        assert!(kinds.contains(&(BreakerState::HalfOpen, BreakerState::Closed)));
        assert_eq!(
            r.breaker_transitions.last().map(|t| t.to),
            Some(BreakerState::Closed),
            "the service must end recovered"
        );
        // After recovery, clean questions are answered cleanly.
        let clean_after_storm = r.outcomes.iter().any(|o| {
            o.offered >= 12
                && matches!(&o.disposition, Disposition::Answered { degradation, .. }
                    if degradation.is_empty())
        });
        assert!(clean_after_storm, "post-storm service must be healthy");
        // And everything admitted — storm or not — was answered.
        for o in &r.outcomes {
            if let Disposition::Answered { answer, .. } = &o.disposition {
                assert!(!answer.is_empty());
            }
            assert!(!answered_note(o, "panic:"), "no panics in this run");
        }
    }
}
