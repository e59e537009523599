//! # gks-exec — persistent worker pools and ordered scatter/gather
//!
//! Every fan-out site in the workspace used to pay a thread spawn per unit
//! of work: the sharded `/search` scatter spawned one thread per shard per
//! request, and the parallel index builder spawned one thread per chunk per
//! build. This crate replaces both with a single primitive: a
//! [`WorkerPool`] of named threads spawned **once**, fed through a
//! `Mutex`+`Condvar` job deque (bounded by construction — producers submit
//! exactly as many jobs as they wait for), plus a [`Scatter`] collector
//! that returns results **in submission order** with panics captured as
//! `Err` values instead of poisoned joins.
//!
//! Design rules, enforced by construction:
//!
//! * a worker never holds the queue lock while running a job;
//! * a scatter slot is **always** filled — by the job's result, by the
//!   captured panic message, or (if the pool shuts down before the job
//!   runs) by a drop guard — so [`Scatter::wait`] cannot hang;
//! * waiting on a scatter from *inside* the same pool is a deadlock by
//!   design and must not be done (documented on [`Scatter::wait`]).
//!
//! The locks register with the `gks-trace` lock-order registry under
//! `exec/lib.state` and `exec/lib.slots`, and the crate is covered by
//! `cargo xtask analyze` (lock-order, guard-across-spawn/blocking).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use gks_trace::lockorder::track;

/// A unit of work accepted by [`WorkerPool::submit`].
pub type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    available: Condvar,
}

/// A fixed set of named worker threads draining a shared job deque. Spawned
/// once at construction; [`Drop`] shuts the queue, discards jobs that never
/// started (their [`Scatter`] slots resolve to `Err`), and joins every
/// thread.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.threads.len()).finish()
    }
}

impl WorkerPool {
    /// Spawns `threads` workers (clamped to at least 1) named
    /// `<name>-<i>`. Fails only if the OS refuses a thread; already-spawned
    /// workers are shut down and joined before the error returns.
    pub fn new(name: &str, threads: usize) -> std::io::Result<WorkerPool> {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState { jobs: VecDeque::new(), shutdown: false }),
            available: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(threads.max(1));
        for i in 0..threads.max(1) {
            let worker_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || worker_loop(&worker_shared));
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    let pool = WorkerPool { shared, threads: handles };
                    drop(pool); // joins the workers that did start
                    return Err(e);
                }
            }
        }
        Ok(WorkerPool { shared, threads: handles })
    }

    /// Enqueues one job. Returns `false` (dropping the job, which resolves
    /// any scatter slot it carries to `Err`) once the pool is shut down.
    pub fn submit(&self, job: Job) -> bool {
        {
            let mut state = track(
                "exec/lib.state",
                self.shared.state.lock().unwrap_or_else(PoisonError::into_inner),
            );
            if state.shutdown {
                return false; // `job` drops here; its slot guard fires
            }
            state.jobs.push_back(job);
        }
        self.shared.available.notify_one();
        true
    }

    /// Number of worker threads in the pool. Every one is spawned by
    /// [`WorkerPool::new`] and none after it, so this is also the pool's
    /// lifetime spawn count: whoever holds the pool can prove a request
    /// path spawn-free by reading it before and after.
    pub fn threads(&self) -> usize {
        self.threads.len()
    }

    /// Jobs queued and not yet picked up by a worker.
    pub fn queued(&self) -> usize {
        let state = track(
            "exec/lib.state",
            self.shared.state.lock().unwrap_or_else(PoisonError::into_inner),
        );
        state.jobs.len()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let abandoned: Vec<Job> = {
            let mut state = track(
                "exec/lib.state",
                self.shared.state.lock().unwrap_or_else(PoisonError::into_inner),
            );
            state.shutdown = true;
            state.jobs.drain(..).collect()
        };
        // Dropped outside the queue lock: a job's drop guard takes the
        // scatter lock, and holding both would put an edge in the lock
        // graph for no reason.
        drop(abandoned);
        self.shared.available.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker: pop under the lock, run outside it. A panicking job is
/// caught so the worker survives; [`Scatter`] jobs convert the payload to
/// an `Err` before it ever reaches here.
fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = track(
                "exec/lib.state",
                shared.state.lock().unwrap_or_else(PoisonError::into_inner),
            );
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state = state.wait(&shared.available);
            }
        };
        match job {
            Some(job) => {
                // The guard died at the block close above: the job runs
                // with no lock held, so long tasks never serialize the pool.
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
            None => return,
        }
    }
}

struct ScatterState<T> {
    slots: Vec<Option<Result<T, String>>>,
    filled: usize,
}

struct ScatterShared<T> {
    slots: Mutex<ScatterState<T>>,
    done: Condvar,
}

/// An ordered result collector for a fan-out: create one sized to the task
/// count, wrap each task with [`Scatter::task`], submit the wrapped jobs to
/// any [`WorkerPool`] (or several), then [`Scatter::wait`] for the results
/// in submission order. Byte-for-byte a drop-in for the
/// `thread::scope`-and-join pattern, minus the spawns.
pub struct Scatter<T> {
    shared: Arc<ScatterShared<T>>,
    expected: usize,
}

impl<T> std::fmt::Debug for Scatter<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scatter").field("expected", &self.expected).finish()
    }
}

/// Fills one scatter slot exactly once, even if the wrapped job is dropped
/// without running (pool shutdown, submit after shutdown).
struct SlotGuard<T> {
    shared: Arc<ScatterShared<T>>,
    index: usize,
    armed: bool,
}

impl<T> SlotGuard<T> {
    fn fill(&mut self, result: Result<T, String>) {
        if !self.armed {
            return;
        }
        self.armed = false;
        {
            let mut state = track(
                "exec/lib.slots",
                self.shared.slots.lock().unwrap_or_else(PoisonError::into_inner),
            );
            if let Some(slot) = state.slots.get_mut(self.index) {
                if slot.is_none() {
                    *slot = Some(result);
                    state.filled += 1;
                }
            }
        }
        self.shared.done.notify_all();
    }
}

impl<T> Drop for SlotGuard<T> {
    fn drop(&mut self) {
        self.fill(Err("task dropped before running".to_string()));
    }
}

impl<T: Send + 'static> Scatter<T> {
    /// A collector expecting exactly `expected` results.
    pub fn new(expected: usize) -> Scatter<T> {
        Scatter {
            shared: Arc::new(ScatterShared {
                slots: Mutex::new(ScatterState {
                    slots: (0..expected).map(|_| None).collect(),
                    filled: 0,
                }),
                done: Condvar::new(),
            }),
            expected,
        }
    }

    /// Wraps task `index` as a submittable [`Job`]. The slot resolves to
    /// `Ok` with the task's output, or `Err` with the panic message if it
    /// panicked, or `Err` if the job was dropped without running.
    pub fn task<F>(&self, index: usize, f: F) -> Job
    where
        F: FnOnce() -> T + Send + 'static,
    {
        let mut guard = SlotGuard { shared: Arc::clone(&self.shared), index, armed: true };
        Box::new(move || {
            let outcome = catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_message(&*p));
            guard.fill(outcome);
        })
    }

    /// Blocks until every slot is filled and returns the results in
    /// submission order.
    ///
    /// Must be called from **outside** the pool(s) the tasks were submitted
    /// to: a pool thread waiting on work queued behind it deadlocks.
    pub fn wait(self) -> Vec<Result<T, String>> {
        let mut state = track(
            "exec/lib.slots",
            self.shared.slots.lock().unwrap_or_else(PoisonError::into_inner),
        );
        while state.filled < self.expected {
            state = state.wait(&self.shared.done);
        }
        state
            .slots
            .iter_mut()
            .map(|slot| slot.take().unwrap_or_else(|| Err("slot never filled".to_string())))
            .collect()
    }
}

/// Best-effort text of a panic payload (`&str` and `String` payloads cover
/// every `panic!` in this workspace).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scatter_returns_results_in_submission_order() {
        let pool = WorkerPool::new("t-order", 4).unwrap();
        let scatter = Scatter::new(16);
        for i in 0..16usize {
            // Reverse-ish completion times: later tasks finish first.
            let delay = (16 - i) % 5;
            pool.submit(scatter.task(i, move || {
                std::thread::sleep(std::time::Duration::from_millis(delay as u64));
                i * 10
            }));
        }
        let results: Vec<usize> = scatter.wait().into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(results, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn panics_are_captured_and_workers_survive() {
        let pool = WorkerPool::new("t-panic", 2).unwrap();
        let scatter = Scatter::new(3);
        pool.submit(scatter.task(0, || 1u32));
        pool.submit(scatter.task(1, || panic!("boom {}", 42)));
        pool.submit(scatter.task(2, || 3u32));
        let results = scatter.wait();
        assert_eq!(results[0], Ok(1));
        assert_eq!(results[1], Err("boom 42".to_string()));
        assert_eq!(results[2], Ok(3));
        // The pool still works after a panic.
        let again = Scatter::new(1);
        pool.submit(again.task(0, || 7u32));
        assert_eq!(again.wait(), vec![Ok(7)]);
    }

    #[test]
    fn shutdown_resolves_unrun_jobs_to_err() {
        let pool = WorkerPool::new("t-shutdown", 1).unwrap();
        drop(pool);
        let pool = WorkerPool::new("t-shutdown2", 1).unwrap();
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().unwrap();
        let scatter = Scatter::new(2);
        {
            let gate = Arc::clone(&gate);
            pool.submit(scatter.task(0, move || {
                drop(gate.lock().unwrap_or_else(PoisonError::into_inner));
                1u32
            }));
        }
        // Give the single worker time to start blocking on the gate, then
        // shut the pool down with the second job still queued.
        std::thread::sleep(std::time::Duration::from_millis(20));
        pool.submit(scatter.task(1, || 2u32));
        drop(held);
        drop(pool);
        let results = scatter.wait();
        assert_eq!(results[0], Ok(1));
        // Slot 1 either ran (the worker got to it before shutdown drained
        // the queue) or was dropped; both resolve — wait() cannot hang.
        assert!(results[1] == Ok(2) || results[1].is_err(), "{results:?}");
    }

    #[test]
    fn submit_after_shutdown_reports_false_and_resolves_slot() {
        let pool = WorkerPool::new("t-late", 1).unwrap();
        let shared = Arc::clone(&pool.shared);
        drop(pool);
        let zombie = WorkerPool { shared, threads: Vec::new() };
        let scatter = Scatter::new(1);
        assert!(!zombie.submit(scatter.task(0, || 1u32)));
        assert!(scatter.wait()[0].is_err());
    }

    #[test]
    fn pool_reuse_spawns_nothing() {
        let pool = WorkerPool::new("t-reuse", 2).unwrap();
        let warm = Scatter::new(2);
        pool.submit(warm.task(0, || 0u32));
        pool.submit(warm.task(1, || 0u32));
        warm.wait();
        let before = pool.threads();
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let scatter = Scatter::new(2);
            for i in 0..2 {
                let hits = Arc::clone(&hits);
                pool.submit(scatter.task(i, move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                }));
            }
            scatter.wait();
        }
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(pool.threads(), before, "reuse must not spawn");
    }
}
