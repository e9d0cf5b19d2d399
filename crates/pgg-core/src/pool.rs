//! The one worker pool behind the evaluation runner and the server.
//!
//! [`with_pool`] runs a caller's `drive` function against scoped worker
//! threads. Each worker takes jobs off one channel, runs `work` on each
//! under `catch_unwind`, and sends the job back with its result, so a
//! job whose work panics comes back as `Err(message)` and its worker
//! goes on to the next job. A worker that dies anyway (a panic payload
//! whose own `Drop` panics escapes `catch_unwind`) still reports the job
//! it held as panicked, from a drop guard.
//!
//! Nothing waits forever. `drive` owns the only job sender, so once it
//! returns or unwinds, every worker's `recv` fails and the worker exits.
//! The workers own the only answer senders, so once every worker is
//! gone, the answer channel disconnects and `drive`'s `recv` fails
//! instead of blocking.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

/// What a worker sends back for one job: the job, with `work`'s output
/// or the message of the panic that ended it.
pub(crate) type Answer<J, R> = (J, Result<R, String>);

/// Run `drive` against a pool of scoped workers that apply `work` to
/// every job `drive` sends, and return what `drive` returns.
///
/// The pool has `workers` threads (`0` = the machine's available
/// parallelism), but never more than `max_in_flight`: `drive` promises
/// to have at most that many jobs sent and unanswered at once, so more
/// threads would only wait. `drive` receives the job sender and the
/// answer receiver; answers arrive in completion order.
pub(crate) fn with_pool<J, R, T>(
    workers: usize,
    max_in_flight: usize,
    work: impl Fn(J) -> R + Sync,
    drive: impl FnOnce(Sender<J>, Receiver<Answer<J, R>>) -> T,
) -> T
where
    J: Copy + Send,
    R: Send,
{
    let workers = match workers {
        0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
        explicit => explicit,
    }
    .min(max_in_flight);
    let (job_tx, job_rx) = channel::<J>();
    let (answer_tx, answer_rx) = channel::<Answer<J, R>>();
    let jobs = Mutex::new(job_rx);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (jobs, work, answers) = (&jobs, &work, answer_tx.clone());
                s.spawn(move || worker(jobs, work, answers))
            })
            .collect();
        drop(answer_tx);
        let out = drive(job_tx, answer_rx);
        // A worker that died has reported its job through `Unreported`;
        // joining it here consumes its panic, which the scope would
        // otherwise re-raise.
        for h in handles {
            let _ = h.join();
        }
        out
    })
}

/// One worker: answer jobs until the job sender is gone.
fn worker<J: Copy, R>(
    jobs: &Mutex<Receiver<J>>,
    work: &impl Fn(J) -> R,
    answers: Sender<Answer<J, R>>,
) {
    loop {
        // The guard drops at the end of this statement: the lock is
        // held only while waiting for a job, never while running one.
        let Ok(job) = jobs
            .lock()
            .expect("no worker panics while it holds the job receiver")
            .recv()
        else {
            return;
        };
        let _unreported = Unreported {
            job,
            answers: &answers,
        };
        let out = catch_unwind(AssertUnwindSafe(|| work(job)))
            .map_err(|payload| panic_message(&*payload));
        if answers.send((job, out)).is_err() {
            return;
        }
    }
}

/// Armed for one job: if the worker unwinds before it sends the job's
/// answer, the drop sends the job as panicked, so `drive` never waits
/// on it.
struct Unreported<'a, J: Copy, R> {
    job: J,
    answers: &'a Sender<Answer<J, R>>,
}

impl<J: Copy, R> Drop for Unreported<'_, J, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self
                .answers
                .send((self.job, Err("worker unwound before reporting".to_string())));
        }
    }
}

/// The message of a caught panic: its `&str` or `String` payload, else
/// `"unknown panic"`.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;

    /// A panic payload whose own `Drop` panics: it escapes
    /// `catch_unwind` and unwinds the worker that caught it.
    struct PanicOnDrop;

    impl Drop for PanicOnDrop {
        fn drop(&mut self) {
            panic!("payload drop panics");
        }
    }

    /// Send `0..n` up front and collect every answer until the channel
    /// disconnects, sorted by job.
    fn answer_all<R: Send>(
        workers: usize,
        n: usize,
        work: impl Fn(usize) -> R + Sync,
    ) -> Vec<Answer<usize, R>> {
        with_pool(workers, n, work, |jobs, answers| {
            for i in 0..n {
                jobs.send(i).expect("the pool holds the job receiver");
            }
            drop(jobs);
            let mut all: Vec<_> = answers.iter().collect();
            all.sort_by_key(|&(job, _)| job);
            all
        })
    }

    #[test]
    fn every_job_is_answered_exactly_once() {
        for workers in [1usize, 2, 8] {
            let all = answer_all(workers, 100, |i| i * i);
            let jobs: Vec<usize> = all.iter().map(|&(j, _)| j).collect();
            assert_eq!(jobs, (0..100).collect::<Vec<_>>(), "{workers} workers");
            for (j, out) in all {
                assert_eq!(out, Ok(j * j), "{workers} workers");
            }
        }
    }

    #[test]
    fn a_job_whose_worker_unwinds_is_reported_as_panicked() {
        // Two workers: job 3 kills one, the other answers the rest.
        let all = answer_all(2, 8, |i| {
            if i == 3 {
                std::panic::panic_any(PanicOnDrop);
            }
            i
        });
        assert_eq!(all.len(), 8, "every job answered once");
        for (j, out) in all {
            if j == 3 {
                assert_eq!(out, Err("worker unwound before reporting".into()));
            } else {
                assert_eq!(out, Ok(j));
            }
        }
    }

    #[test]
    fn a_panicking_drive_releases_its_waiting_workers_and_propagates() {
        // On a helper thread behind a timeout: `Timeout` means the pool
        // hung on its parked workers, `Disconnected` that the panic
        // propagated out of `with_pool`.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        std::thread::spawn(move || {
            with_pool(
                4,
                4,
                |i: usize| i,
                |jobs, answers| {
                    jobs.send(0).expect("the pool holds the job receiver");
                    let answer = answers.recv().expect("a worker answers job 0");
                    assert_eq!(answer, (0, Ok(0)));
                    // Every worker now waits on an empty job channel.
                    panic!("drive fails");
                },
            );
            let _ = tx.send(());
        });
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(60)),
            Err(RecvTimeoutError::Disconnected),
            "a panicking drive must propagate, not hang"
        );
    }
}
