//! A small fixed-size worker pool over `std::thread` (the container has no
//! async runtime; jobs are short and CPU-bound, so threads suffice).
//!
//! Promoted out of `linrec-service` so the evaluation engine itself can fan
//! work out: the parallel semi-naive fixpoint ([`crate::seminaive`])
//! dispatches one job per delta shard per round, and the service keeps
//! using the same type for its TCP front end. Jobs are closures dispatched
//! over an MPSC channel shared by the workers (`Arc<Mutex<Receiver>>` — the
//! classic std-only work queue); [`WorkerPool::submit`] returns a receiver
//! for the job's result so callers can join on it.
//!
//! A panicking job no longer kills its worker: each job runs under
//! `catch_unwind`, so a pool keeps its full thread count for the life of
//! the process (the engine's fixpoint pool is shared and long-lived — see
//! [`crate::parallel::Parallelism`]). The panic still surfaces to anyone
//! joining on the job's result: the result sender is dropped without a
//! send, so `recv` returns `Err`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of named worker threads executing queued jobs.
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `threads` workers (at least one).
    pub fn new(threads: usize) -> WorkerPool {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("linrec-worker-{i}"))
                    .spawn(move || loop {
                        // Take the next job while holding the receiver
                        // lock, run it without.
                        let job = match rx.lock().expect("worker queue poisoned").recv() {
                            Ok(job) => job,
                            Err(_) => break, // pool dropped
                        };
                        // Isolate panics: the worker survives, the job's
                        // result channel (if any) reports the failure by
                        // hanging up.
                        let _ = catch_unwind(AssertUnwindSafe(job));
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Queue a fire-and-forget job.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.tx
            .as_ref()
            .expect("pool is shutting down")
            .send(Box::new(job))
            .expect("worker queue closed");
    }

    /// Queue a job and get a receiver for its result. Dropping the
    /// receiver abandons the result; the job still runs. If the job
    /// panics, `recv` on the receiver returns `Err`.
    pub fn submit<T: Send + 'static>(
        &self,
        job: impl FnOnce() -> T + Send + 'static,
    ) -> Receiver<T> {
        let (tx, rx) = channel();
        self.execute(move || {
            let _ = tx.send(job());
        });
        rx
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker's recv loop; join so
        // queued jobs finish before the pool's owner proceeds.
        drop(self.tx.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jobs_run_and_results_come_back() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let rxs: Vec<_> = (0..32).map(|i| pool.submit(move || i * 2)).collect();
        let mut results: Vec<i32> = rxs.into_iter().map(|rx| rx.recv().unwrap()).collect();
        results.sort_unstable();
        assert_eq!(results, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn drop_waits_for_queued_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..16 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn zero_threads_still_works() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.submit(|| 7).recv().unwrap(), 7);
    }

    #[test]
    fn a_panicking_job_reports_err_and_the_worker_survives() {
        let pool = WorkerPool::new(1);
        let rx = pool.submit(|| -> u32 { panic!("job blew up") });
        assert!(rx.recv().is_err());
        // The single worker must still be alive to serve the next job.
        assert_eq!(pool.submit(|| 41 + 1).recv().unwrap(), 42);
    }

    #[test]
    fn panicking_jobs_cost_exactly_their_own_results() {
        // A protocol session or a shard probe shares its pool with
        // whatever else is queued: a panicking job must never take a
        // queued good job (or a worker) down with it.
        let pool = WorkerPool::new(2);
        let rxs: Vec<_> = (0..64u32)
            .map(|i| {
                pool.submit(move || {
                    if i % 3 == 0 {
                        panic!("deliberate panic in job {i}");
                    }
                    i
                })
            })
            .collect();
        for (i, rx) in rxs.into_iter().enumerate() {
            match rx.recv() {
                Ok(v) => assert!(v == i as u32 && i % 3 != 0),
                Err(_) => assert_eq!(i % 3, 0),
            }
        }
        // Both workers are still alive.
        let (a, b) = (pool.submit(|| 1), pool.submit(|| 2));
        assert_eq!(a.recv().unwrap() + b.recv().unwrap(), 3);
    }
}
