//! Persistent shard executor: a grow-only set of per-shard worker lanes
//! that replaces the `thread::scope`-per-request scatter.
//!
//! A server catalog owns one [`ShardExecutor`], shared by all its indexes.
//! Lane `i` is a [`WorkerPool`] dedicated to shard slot `i`, created
//! **once** (at catalog build, or when a manifest sync grows the widest
//! shard count) and reused for every request, so a sharded search costs
//! one queue push per shard instead of one thread spawn per shard.
//! [`ShardExecutor::scatter`] keeps
//! the `thread::scope` contract exactly: results come back in shard order,
//! a panicking task surfaces as `Err` for that slot only, and every slot
//! always resolves (the `gks-exec` drop guards rule out a hung gather).
//!
//! The lane table registers with the lock-order registry as
//! `core/executor.lanes`; it is only written by [`ensure_lanes`]
//! (`ShardExecutor::ensure_lanes`) and request-path reads copy the lane
//! `Arc`s out before any job is submitted, so the guard never spans a
//! queue push.

use std::sync::{Arc, PoisonError, RwLock};

use gks_exec::{Scatter, WorkerPool};
use gks_trace::lockorder::track;

/// A grow-only table of per-shard worker lanes.
pub struct ShardExecutor {
    lanes: RwLock<Vec<Arc<WorkerPool>>>,
    per_lane: usize,
}

impl std::fmt::Debug for ShardExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardExecutor")
            .field("lanes", &self.lane_count())
            .field("per_lane", &self.per_lane)
            .finish()
    }
}

impl ShardExecutor {
    /// An executor with no lanes yet; each lane created later runs
    /// `per_lane` worker threads (clamped to at least 1).
    pub fn new(per_lane: usize) -> ShardExecutor {
        ShardExecutor { lanes: RwLock::new(Vec::new()), per_lane: per_lane.max(1) }
    }

    /// Worker threads per lane.
    pub fn per_lane(&self) -> usize {
        self.per_lane
    }

    /// Lanes currently alive.
    pub fn lane_count(&self) -> usize {
        let lanes =
            track("core/executor.lanes", self.lanes.read().unwrap_or_else(PoisonError::into_inner));
        lanes.len()
    }

    /// Worker threads spawned over this executor's lifetime, summed across
    /// its lanes (lanes never shrink, so the sum never drops). A steady
    /// value across a burst of requests proves the fan-out is spawn-free.
    pub fn threads_spawned(&self) -> usize {
        let lanes =
            track("core/executor.lanes", self.lanes.read().unwrap_or_else(PoisonError::into_inner));
        lanes.iter().map(|lane| lane.threads()).sum()
    }

    /// Grows the lane table to at least `n` lanes (never shrinks — a lane
    /// retired by a shard-count decrease stays warm for the next grow).
    /// This is the **only** spawn site: call it at catalog build and after
    /// every manifest sync so the request path never creates a thread.
    pub fn ensure_lanes(&self, n: usize) -> std::io::Result<()> {
        {
            let lanes = track(
                "core/executor.lanes",
                self.lanes.read().unwrap_or_else(PoisonError::into_inner),
            );
            if lanes.len() >= n {
                return Ok(());
            }
        }
        let mut lanes = track(
            "core/executor.lanes",
            self.lanes.write().unwrap_or_else(PoisonError::into_inner),
        );
        while lanes.len() < n {
            let lane = WorkerPool::new(&format!("gks-shard{}", lanes.len()), self.per_lane)?;
            lanes.push(Arc::new(lane));
        }
        Ok(())
    }

    /// Fans `tasks` out across the lanes (task `i` on lane `i`, wrapping
    /// round if the table is short) and gathers the results in submission
    /// order. Slot `i` is `Err` if task `i` panicked or its lane shut down
    /// before running it; with no lanes at all (and growth failing), every
    /// slot reports it.
    ///
    /// Must not be called from a lane worker itself — waiting on work
    /// queued behind the caller deadlocks (see [`Scatter::wait`]).
    pub fn scatter<T, F>(&self, tasks: Vec<F>) -> Vec<Result<T, String>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        // Growth is a no-op on the steady-state request path; it only
        // fires if a caller skipped `ensure_lanes` after a shard-count
        // change, trading the no-spawn guarantee for a correct answer.
        let _ = self.ensure_lanes(n);
        let lanes: Vec<Arc<WorkerPool>> = {
            let lanes = track(
                "core/executor.lanes",
                self.lanes.read().unwrap_or_else(PoisonError::into_inner),
            );
            lanes.iter().map(Arc::clone).collect()
        };
        if lanes.is_empty() {
            return tasks
                .into_iter()
                .map(|_| Err("no executor lanes available".to_string()))
                .collect();
        }
        let scatter = Scatter::new(n);
        for (i, task) in tasks.into_iter().enumerate() {
            // A false return means the lane shut down; the dropped job's
            // slot guard resolves slot `i` to Err, so the gather can't hang.
            let _ = lanes[i % lanes.len()].submit(scatter.task(i, task));
        }
        scatter.wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_lanes_grows_and_never_shrinks() {
        let exec = ShardExecutor::new(2);
        assert_eq!(exec.lane_count(), 0);
        exec.ensure_lanes(3).unwrap();
        assert_eq!(exec.lane_count(), 3);
        exec.ensure_lanes(1).unwrap();
        assert_eq!(exec.lane_count(), 3);
    }

    #[test]
    fn scatter_orders_results_and_reuses_lanes() {
        let exec = ShardExecutor::new(1);
        exec.ensure_lanes(4).unwrap();
        let spawned = exec.threads_spawned();
        assert_eq!(spawned, 4, "one thread per lane");
        for _ in 0..10 {
            let tasks: Vec<_> = (0..4usize).map(|i| move || i * 3).collect();
            let results = exec.scatter(tasks);
            let values: Vec<usize> = results.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(values, vec![0, 3, 6, 9]);
        }
        assert_eq!(exec.threads_spawned(), spawned);
    }

    #[test]
    fn panicking_task_fails_only_its_slot() {
        let exec = ShardExecutor::new(1);
        exec.ensure_lanes(2).unwrap();
        let results = exec.scatter(vec![
            Box::new(|| 1u32) as Box<dyn FnOnce() -> u32 + Send>,
            Box::new(|| panic!("shard down")),
        ]);
        assert_eq!(results[0], Ok(1));
        assert_eq!(results[1], Err("shard down".to_string()));
    }
}
