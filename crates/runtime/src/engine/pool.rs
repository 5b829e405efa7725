//! A bounded pool of persistent worker threads for parallel strategy
//! legs, with a deadlock-free overflow path.
//!
//! The pool never *queues* a job unless an idle worker is already parked
//! and guaranteed to pick it up; when every worker is busy and the pool is
//! at capacity, the job spills to a one-shot thread instead of waiting.
//! That invariant matters because pool jobs are parallel strategy legs
//! whose parents block until the legs complete: parking a leg behind a
//! parent that is itself waiting for it would deadlock. Spilling preserves
//! exactly the pre-pool scoped-spawn semantics for the overflow, so a
//! saturated pool degrades to the old behaviour rather than stalling.
//!
//! Idle pool threads are parked on a condvar and are *not* registered with
//! any [`Clock`](crate::Clock) — a job registers itself (adopting the slot
//! its submitter reserved) for exactly its own duration, so one pool can
//! serve executions on different clocks without cross-talk.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use serde::{Deserialize, Serialize};

/// A unit of pool work: one parallel strategy leg.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// Persistent worker threads per pool; only blocking legs need one.
const WORKER_POOL: usize = 8;

/// Point-in-time occupancy counters of an engine's worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Maximum persistent worker threads (eight).
    pub capacity: usize,
    /// Persistent worker threads currently alive.
    pub threads: usize,
    /// Worker threads parked waiting for a job.
    pub idle: usize,
    /// Jobs currently running on persistent workers.
    pub running: usize,
    /// High-water mark of `running` since the pool was created.
    pub peak_running: usize,
    /// Jobs submitted since the pool was created.
    pub submitted: u64,
    /// Jobs that overflowed to one-shot threads because the pool was
    /// saturated.
    pub spilled: u64,
}

struct PoolState {
    jobs: VecDeque<Job>,
    idle: usize,
    threads: usize,
    running: usize,
    peak_running: usize,
    submitted: u64,
    spilled: u64,
    shutdown: bool,
    handles: Vec<JoinHandle<()>>,
}

struct PoolInner {
    state: Mutex<PoolState>,
    available: Condvar,
}

impl PoolInner {
    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn worker(self: Arc<Self>) {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                state.running += 1;
                state.peak_running = state.peak_running.max(state.running);
                drop(state);
                job();
                state = self.lock();
                state.running -= 1;
                continue;
            }
            if state.shutdown {
                state.threads -= 1;
                return;
            }
            state.idle += 1;
            state = self
                .available
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.idle -= 1;
        }
    }
}

/// A bounded worker pool (see the module docs for the no-queue-without-
/// an-idle-worker invariant that keeps it deadlock-free).
pub(crate) struct WorkerPool {
    inner: Arc<PoolInner>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("WorkerPool")
            .field("capacity", &stats.capacity)
            .field("threads", &stats.threads)
            .field("running", &stats.running)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// An empty pool; up to [`WORKER_POOL`] threads are spawned on demand.
    pub fn new() -> Self {
        WorkerPool {
            inner: Arc::new(PoolInner {
                state: Mutex::new(PoolState {
                    jobs: VecDeque::new(),
                    idle: 0,
                    threads: 0,
                    running: 0,
                    peak_running: 0,
                    submitted: 0,
                    spilled: 0,
                    shutdown: false,
                    handles: Vec::new(),
                }),
                available: Condvar::new(),
            }),
        }
    }

    /// Runs `job` on a pool worker if one is guaranteed to take it, on a
    /// freshly spawned persistent worker while below capacity, and on a
    /// one-shot overflow thread otherwise. Never blocks on pool capacity.
    pub fn submit(&self, job: Job) {
        let mut state = self.inner.lock();
        state.submitted += 1;
        // `idle` counts parked workers; queue only when a distinct parked
        // worker exists for every queued job plus this one, so no job can
        // wait on a worker that never comes.
        if state.idle > state.jobs.len() {
            state.jobs.push_back(job);
            drop(state);
            self.inner.available.notify_one();
        } else if state.threads < WORKER_POOL {
            state.threads += 1;
            state.jobs.push_back(job);
            let inner = Arc::clone(&self.inner);
            let handle = std::thread::spawn(move || inner.worker());
            state.handles.push(handle);
        } else {
            state.spilled += 1;
            drop(state);
            std::thread::spawn(job);
        }
    }

    /// Current occupancy counters.
    pub fn stats(&self) -> PoolStats {
        let state = self.inner.lock();
        PoolStats {
            capacity: WORKER_POOL,
            threads: state.threads,
            idle: state.idle,
            running: state.running,
            peak_running: state.peak_running,
            submitted: state.submitted,
            spilled: state.spilled,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let handles = {
            let mut state = self.inner.lock();
            state.shutdown = true;
            std::mem::take(&mut state.handles)
        };
        self.inner.available.notify_all();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    fn run_and_wait(pool: &WorkerPool, jobs: usize) {
        let (tx, rx) = mpsc::channel();
        for _ in 0..jobs {
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                tx.send(()).unwrap();
            }));
        }
        for _ in 0..jobs {
            rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        }
    }

    #[test]
    fn jobs_run_and_threads_are_reused() {
        let pool = WorkerPool::new();
        run_and_wait(&pool, 1);
        // Wait for the worker to go idle so the next submit reuses it.
        for _ in 0..500 {
            if pool.stats().idle == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        run_and_wait(&pool, 1);
        let stats = pool.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.threads, 1, "second job reuses the idle worker");
        assert_eq!(stats.spilled, 0);
    }

    #[test]
    fn saturated_pool_spills_instead_of_queueing() {
        const JOBS: usize = WORKER_POOL + 2;
        let pool = WorkerPool::new();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let started = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..JOBS {
            let gate = Arc::clone(&gate);
            let started = Arc::clone(&started);
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                started.fetch_add(1, Ordering::SeqCst);
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
                tx.send(()).unwrap();
            }));
        }
        // All ten must be *running* (none parked behind the busy pool)
        // even though the pool holds eight threads — the overflow spilled.
        for _ in 0..500 {
            if started.load(Ordering::SeqCst) == JOBS {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(
            started.load(Ordering::SeqCst),
            JOBS,
            "no job waits on a busy pool"
        );
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        for _ in 0..JOBS {
            rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        }
        let stats = pool.stats();
        assert_eq!(stats.submitted, JOBS as u64);
        assert_eq!(stats.threads, WORKER_POOL);
        assert_eq!(stats.spilled, 2, "eight pooled, two spilled");
        assert!(stats.peak_running <= WORKER_POOL);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new();
        run_and_wait(&pool, 8);
        drop(pool); // must not hang
    }
}
