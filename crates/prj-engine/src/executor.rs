//! The concurrent executor: a fixed pool of worker threads.
//!
//! Queries are pure CPU work over shared immutable structures, so a classic
//! fixed-size thread pool over an [`mpsc`](std::sync::mpsc) job queue is all
//! the engine needs — no async runtime, no work stealing. Jobs are boxed
//! closures; results travel back to the caller through per-query channels
//! owned by the [`crate::engine::QueryTicket`] /
//! [`crate::engine::ResultStream`] handles.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed pool of worker threads consuming jobs from a shared queue.
#[derive(Debug)]
pub struct Executor {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl Executor {
    /// Spawns a pool of `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|i| {
                let receiver: Arc<Mutex<Receiver<Job>>> = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("prj-engine-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the queue lock only while popping, not while
                        // running the job.
                        let job = match receiver.lock() {
                            Ok(guard) => guard.recv(),
                            Err(_) => return,
                        };
                        match job {
                            // A panicking job must not take the worker down
                            // with it: the job's result channel is dropped
                            // (its ticket observes WorkerLost) and the worker
                            // lives on to serve the next query.
                            Ok(job) => {
                                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                            }
                            Err(_) => return, // queue closed: shut down
                        }
                    })
                    .expect("spawn engine worker")
            })
            .collect();
        Executor {
            sender: Some(sender),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job; some worker will run it.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.sender
            .as_ref()
            .expect("executor already shut down")
            .send(Box::new(job))
            .expect("engine workers are gone");
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Closing the channel lets every worker drain outstanding jobs and
        // exit; joining makes shutdown deterministic.
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
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
    fn at_least_one_thread() {
        let pool = Executor::new(0);
        assert_eq!(pool.threads(), 1);
        let (tx, rx) = sync_channel(1);
        pool.spawn(move || tx.send(42u8).unwrap());
        assert_eq!(rx.recv().unwrap(), 42);
    }
}
