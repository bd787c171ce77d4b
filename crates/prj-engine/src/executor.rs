//! The concurrent executor: at most `threads` query runs at a time.
//!
//! Queries are pure CPU work over shared immutable structures, so the engine
//! needs no async runtime and no work stealing, only a bound on how many
//! operators run at once. The executor is that bound: a gate of `threads`
//! run permits. [`Executor::run`] runs a job on the calling thread, so a
//! blocking query pays no hand-off to another thread and back (each hand-off
//! is a thread wake-up, slow when the other CPU sits idle);
//! [`Executor::spawn`] runs it on a thread of its own, for callers that want
//! a ticket back. Either way the job first waits for a permit, so a query
//! queued behind a full gate starts after its predecessors have filled the
//! result cache. Results travel back to the caller through per-query
//! channels owned by the [`crate::engine::QueryTicket`] handles.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex};

/// The permits shared by the executor and its running jobs.
#[derive(Debug, Default)]
struct Gate {
    state: Mutex<GateState>,
    /// Signalled when a permit is given back rather than handed over.
    idle: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    running: usize,
    /// Callers waiting for a permit, oldest first.
    waiting: VecDeque<SyncSender<()>>,
}

/// One taken permit; dropping it (a panicking job included) hands it to
/// the longest waiter, so callers are served in arrival order and a caller
/// that releases and asks again cannot overtake them.
struct Permit(Arc<Gate>);

impl Drop for Permit {
    fn drop(&mut self) {
        let mut state = self.0.state.lock().expect("executor gate");
        match state.waiting.pop_front() {
            Some(next) => {
                let _ = next.send(());
            }
            None => {
                state.running -= 1;
                self.0.idle.notify_all();
            }
        }
    }
}

/// A gate of run permits: at most `threads` jobs run at once.
#[derive(Debug)]
pub struct Executor {
    threads: usize,
    gate: Arc<Gate>,
    spawned: AtomicUsize,
}

impl Executor {
    /// A gate of `threads` permits (at least one).
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
            gate: Arc::default(),
            spawned: AtomicUsize::new(0),
        }
    }

    /// Number of jobs that may run at once.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Blocks until a permit is free and takes it.
    fn permit(&self) -> Permit {
        let mut state = self.gate.state.lock().expect("executor gate");
        if state.running < self.threads {
            state.running += 1;
        } else {
            let (handoff, wait) = sync_channel(1);
            state.waiting.push_back(handoff);
            drop(state);
            wait.recv().expect("a permit is handed to every waiter");
        }
        Permit(Arc::clone(&self.gate))
    }

    /// Runs a job on the calling thread once a permit is free. A panicking
    /// job is contained: it drops whatever it owned (a query's result
    /// channel, so its ticket observes `WorkerLost`) and the caller carries
    /// on.
    pub fn run(&self, job: impl FnOnce()) {
        let _permit = self.permit();
        let _ = catch_unwind(AssertUnwindSafe(job));
    }

    /// Runs a job on a new thread once a permit is free; blocks the caller
    /// until then, so at most `threads` spawned jobs are ever alive.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let permit = self.permit();
        let i = self.spawned.fetch_add(1, Ordering::Relaxed);
        std::thread::Builder::new()
            .name(format!("prj-engine-worker-{i}"))
            .spawn(move || {
                let _permit = permit;
                job();
            })
            .expect("spawn engine worker");
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Wait for every running job, so shutdown is deterministic.
        let mut state = self.gate.state.lock().expect("executor gate");
        while state.running > 0 {
            state = self.gate.idle.wait(state).expect("executor gate");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::sync_channel;

    #[test]
    fn runs_jobs_on_worker_threads() {
        let pool = Executor::new(4);
        assert_eq!(pool.threads(), 4);
        let (tx, rx) = sync_channel(64);
        for i in 0..64usize {
            let tx = tx.clone();
            pool.spawn(move || {
                tx.send((i, std::thread::current().name().map(String::from)))
                    .unwrap();
            });
        }
        let mut seen: Vec<usize> = (0..64)
            .map(|_| rx.recv().unwrap())
            .map(|(i, name)| {
                assert!(name.unwrap_or_default().starts_with("prj-engine-worker-"));
                i
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn drop_drains_outstanding_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = Executor::new(2);
            for _ in 0..32 {
                let counter = Arc::clone(&counter);
                pool.spawn(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Dropping the pool joins the workers after the queue drains.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = Executor::new(1);
        pool.spawn(|| panic!("job blew up"));
        // The single worker must survive to run the next job.
        let (tx, rx) = sync_channel(1);
        pool.spawn(move || tx.send(7u8).unwrap());
        assert_eq!(rx.recv().unwrap(), 7);
    }

    #[test]
    fn at_most_threads_jobs_run_at_once() {
        let gate = Arc::new(Executor::new(2));
        let (running, peak) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let job = {
            let (running, peak) = (Arc::clone(&running), Arc::clone(&peak));
            move || {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(2));
                running.fetch_sub(1, Ordering::SeqCst);
            }
        };
        // Six callers running on their own threads, plus six spawned jobs.
        let callers: Vec<_> = (0..6)
            .map(|_| {
                let (gate, job) = (Arc::clone(&gate), job.clone());
                std::thread::spawn(move || gate.run(job))
            })
            .collect();
        for _ in 0..6 {
            gate.spawn(job.clone());
        }
        for caller in callers {
            caller.join().unwrap();
        }
        drop(Arc::into_inner(gate).expect("callers joined"));
        assert_eq!(running.load(Ordering::SeqCst), 0);
        assert!(peak.load(Ordering::SeqCst) <= 2, "peak {peak:?}");
    }

    #[test]
    fn waiters_are_served_in_arrival_order() {
        let gate = Arc::new(Executor::new(1));
        let (release, held) = sync_channel::<()>(0);
        gate.spawn(move || held.recv().unwrap());
        let order = Arc::new(Mutex::new(Vec::new()));
        let waiters: Vec<_> = (0..4)
            .map(|i| {
                let (gate2, order) = (Arc::clone(&gate), Arc::clone(&order));
                let waiter =
                    std::thread::spawn(move || gate2.run(|| order.lock().unwrap().push(i)));
                // Queue each waiter before starting the next.
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while gate.gate.state.lock().unwrap().waiting.len() <= i {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "waiter {i} never queued"
                    );
                    std::thread::yield_now();
                }
                waiter
            })
            .collect();
        release.send(()).unwrap();
        for waiter in waiters {
            waiter.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn at_least_one_thread() {
        let pool = Executor::new(0);
        assert_eq!(pool.threads(), 1);
        let (tx, rx) = sync_channel(1);
        pool.spawn(move || tx.send(42u8).unwrap());
        assert_eq!(rx.recv().unwrap(), 42);
    }
}
