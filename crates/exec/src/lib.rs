//! # gks-exec — persistent worker pools and ordered scatter/gather
//!
//! The sharded `/search` scatter used to spawn one thread per shard per
//! request. This crate replaces that with a single primitive: a
//! [`WorkerPool`] of named threads spawned **once**, fed through a
//! `Mutex`+`Condvar` job deque, plus a [`Scatter`] collector that returns
//! results **in submission order** with panics captured as `Err` values
//! instead of poisoned joins. The server's request workers are a pool too:
//! [`WorkerPool::bounded`] caps the deque, and [`WorkerPool::try_submit`]
//! hands the input back instead of queueing past the cap — the admission
//! control behind `503 + Retry-After`.
//!
//! Design rules, enforced by construction:
//!
//! * a worker never holds the queue lock while running a job;
//! * there is one shutdown rule, drain: [`WorkerPool::close`] stops
//!   admissions, queued jobs still run, and workers exit once the queue is
//!   empty; [`Drop`] is close + join;
//! * a scatter slot is **always** filled — by the job's result, by the
//!   captured panic message, or (if the job is refused by a closed pool)
//!   by a drop guard — so [`Scatter::wait`] cannot hang;
//! * waiting on a scatter from *inside* the same pool is a deadlock by
//!   design and must not be done (documented on [`Scatter::wait`]).
//!
//! The locks register with the `gks-trace` lock-order registry under
//! `exec/lib.state` and `exec/lib.slots`, and the crate is covered by
//! `cargo xtask analyze` (lock-order, guard-across-spawn/blocking).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use gks_trace::lockorder::{track, Tracked};

/// A unit of work accepted by [`WorkerPool::submit`].
pub type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    jobs: VecDeque<Job>,
    /// Set by [`WorkerPool::close`]: no admissions; workers drain `jobs`
    /// and then exit.
    closed: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    available: Condvar,
}

/// Poison only means a thread panicked while holding the lock; the deque
/// is still structurally sound, so keep going.
fn lock(state: &Mutex<PoolState>) -> Tracked<MutexGuard<'_, PoolState>> {
    track("exec/lib.state", state.lock().unwrap_or_else(PoisonError::into_inner))
}

/// A fixed set of named worker threads draining a shared job deque. Spawned
/// once at construction; [`Drop`] closes the pool, lets the workers finish
/// every queued job, and joins them.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Vec<JoinHandle<()>>,
    /// Queued jobs beyond which [`WorkerPool::try_submit`] refuses; `submit`
    /// ignores it.
    capacity: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.threads.len()).finish()
    }
}

impl WorkerPool {
    /// Spawns `threads` workers (clamped to at least 1) named
    /// `<name>-<i>`, with no cap on the queue. Fails only if the OS
    /// refuses a thread; already-spawned workers are joined before the
    /// error returns.
    pub fn new(name: &str, threads: usize) -> std::io::Result<WorkerPool> {
        WorkerPool::bounded(name, threads, usize::MAX)
    }

    /// [`WorkerPool::new`] with at most `capacity` jobs waiting for a
    /// worker, as far as [`WorkerPool::try_submit`] is concerned.
    pub fn bounded(name: &str, threads: usize, capacity: usize) -> std::io::Result<WorkerPool> {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState { jobs: VecDeque::new(), closed: false }),
            available: Condvar::new(),
        });
        let mut pool = WorkerPool { shared, threads: Vec::with_capacity(threads.max(1)), capacity };
        for i in 0..threads.max(1) {
            let worker_shared = Arc::clone(&pool.shared);
            let handle = std::thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || worker_loop(&worker_shared))?; // drops `pool`: joins those started
            pool.threads.push(handle);
        }
        Ok(pool)
    }

    /// Enqueues one job. Returns `false` (dropping the job, which resolves
    /// any scatter slot it carries to `Err`) once the pool is closed.
    pub fn submit(&self, job: Job) -> bool {
        {
            let mut state = lock(&self.shared.state);
            if state.closed {
                return false; // `job` drops here; its slot guard fires
            }
            state.jobs.push_back(job);
        }
        self.shared.available.notify_one();
        true
    }

    /// Enqueues `run(input)` without blocking, unless the pool is closed or
    /// already holds `capacity` queued jobs: then `input` comes straight
    /// back and nothing was queued. The job is boxed only once admitted.
    pub fn try_submit<T, F>(&self, input: T, run: F) -> Result<(), T>
    where
        T: Send + 'static,
        F: FnOnce(T) + Send + 'static,
    {
        {
            let mut state = lock(&self.shared.state);
            if state.closed || state.jobs.len() >= self.capacity {
                return Err(input);
            }
            state.jobs.push_back(Box::new(move || run(input)));
        }
        self.shared.available.notify_one();
        Ok(())
    }

    /// Stops admissions and wakes every idle worker. Queued jobs still run;
    /// each worker exits once the queue is empty. Idempotent.
    pub fn close(&self) {
        lock(&self.shared.state).closed = true;
        self.shared.available.notify_all();
    }

    /// Number of worker threads in the pool. Every one is spawned by
    /// [`WorkerPool::bounded`] and none after it, so this is also the
    /// pool's lifetime spawn count: whoever holds the pool can prove a
    /// request path spawn-free by reading it before and after.
    pub fn threads(&self) -> usize {
        self.threads.len()
    }

    /// Jobs queued and not yet picked up by a worker.
    pub fn queued(&self) -> usize {
        lock(&self.shared.state).jobs.len()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.close();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker: pop under the lock, run outside it, exit once the pool is
/// closed and drained. A panicking job is caught so the worker survives;
/// [`Scatter`] jobs convert the payload to an `Err` before it ever reaches
/// here.
fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = lock(&shared.state);
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.closed {
                    return;
                }
                state = state.wait(&shared.available);
            }
        };
        // The guard died at the block close above: the job runs with no
        // lock held, so long tasks never serialize the pool.
        let _ = catch_unwind(AssertUnwindSafe(job));
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
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::mpsc;

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
        pool.close();
        let scatter = Scatter::new(1);
        assert!(!pool.submit(scatter.task(0, || 1u32)));
        assert!(scatter.wait()[0].is_err());
    }

    /// A one-worker pool whose worker is parked inside a job; every job
    /// submitted through [`Gate::record`] also waits for one token from
    /// [`Gate::release`] before recording its value, in run order.
    struct Gate {
        // Declared first so a failing test drops it first: the parked jobs
        // then see a hung-up channel instead of blocking the pool's join.
        tokens: mpsc::Sender<()>,
        pool: WorkerPool,
        waiting: Arc<Mutex<mpsc::Receiver<()>>>,
        ran: Arc<Mutex<Vec<u32>>>,
    }

    impl Gate {
        fn new(capacity: usize) -> Gate {
            let pool = WorkerPool::bounded("t-gate", 1, capacity).unwrap();
            let (tokens, rx) = mpsc::channel();
            let waiting = Arc::new(Mutex::new(rx));
            let (started_tx, started) = mpsc::channel();
            let blocker = Arc::clone(&waiting);
            assert!(pool.submit(Box::new(move || {
                started_tx.send(()).unwrap();
                blocker.lock().unwrap().recv().unwrap();
            })));
            started.recv().unwrap();
            Gate { tokens, pool, waiting, ran: Arc::new(Mutex::new(Vec::new())) }
        }

        fn record(&self, value: u32) -> Result<(), u32> {
            let (waiting, ran) = (Arc::clone(&self.waiting), Arc::clone(&self.ran));
            self.pool.try_submit(value, move |value| {
                waiting.lock().unwrap().recv().unwrap();
                ran.lock().unwrap().push(value);
            })
        }

        fn release(&self, jobs: usize) {
            for _ in 0..jobs {
                self.tokens.send(()).unwrap();
            }
        }

        /// Drops the pool (close + join) and returns what ran.
        fn finish(self) -> Vec<u32> {
            drop(self.pool);
            let ran = self.ran.lock().unwrap();
            ran.clone()
        }
    }

    #[test]
    fn rejects_when_full() {
        let gate = Gate::new(2);
        assert_eq!(gate.record(1), Ok(()));
        assert_eq!(gate.record(2), Ok(()));
        assert_eq!(gate.record(3), Err(3), "third job must be refused");
        // Free the worker: it pops job 1 (which parks on the gate), leaving
        // one queued job and one free slot.
        gate.release(1);
        while gate.pool.queued() > 1 {
            std::thread::yield_now();
        }
        assert_eq!(gate.record(3), Ok(()), "space freed by a pop");
        gate.release(3);
        assert_eq!(gate.finish(), vec![1, 2, 3]);
    }

    #[test]
    fn drains_after_shutdown() {
        let gate = Gate::new(8);
        assert_eq!(gate.record(1), Ok(()));
        assert_eq!(gate.record(2), Ok(()));
        gate.pool.close();
        assert_eq!(gate.record(3), Err(3), "no admissions after close");
        gate.release(3);
        // Drop joins the worker: it returns only once the queue is empty.
        assert_eq!(gate.finish(), vec![1, 2], "queued work still drains");
    }

    #[test]
    fn unblocks_waiting_consumers_on_shutdown() {
        let pool = WorkerPool::bounded("t-idle", 2, 4).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(pool.threads.iter().all(|h| !h.is_finished()), "idle workers wait");
        pool.close();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !pool.threads.iter().all(JoinHandle::is_finished) {
            assert!(std::time::Instant::now() < deadline, "close must release idle workers");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn producers_and_consumers_agree_on_totals() {
        let pool = WorkerPool::bounded("t-totals", 4, 16).unwrap();
        let consumed = Arc::new(AtomicU64::new(0));
        let mut pushed = 0u64;
        for v in 1..=200u64 {
            let mut item = v;
            loop {
                let consumed = Arc::clone(&consumed);
                match pool.try_submit(item, move |v| {
                    consumed.fetch_add(v, Ordering::Relaxed);
                }) {
                    Ok(()) => {
                        pushed += v;
                        break;
                    }
                    Err(back) => {
                        item = back;
                        std::thread::yield_now();
                    }
                }
            }
        }
        drop(pool);
        assert_eq!(consumed.load(Ordering::Relaxed), pushed);
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
