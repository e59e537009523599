//! A lock-free fixed-bucket latency histogram over microseconds.
//!
//! Shared by the per-span-kind aggregates in this crate and by the server's
//! request-latency metrics (`gks-server` re-uses it so `/metrics` reports
//! engine phases and end-to-end latency with identical bucket semantics).
//! All counters are `AtomicU64` with relaxed ordering — they are statistics,
//! not synchronization — so recording adds nanoseconds to the hot path.

use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bounds (µs) of the histogram buckets; a final overflow bucket
/// catches everything slower than the last bound. The sub-50µs bounds exist
/// for the engine-phase aggregates — individual phases of a warm query run
/// in single-digit microseconds, which request-scale buckets would flatten
/// into one bin.
pub const LATENCY_BOUNDS_MICROS: [u64; 18] = [
    5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
    500_000, 1_000_000, 2_500_000,
];

/// Fixed-bucket latency histogram. Quantiles are derived from cumulative
/// bucket counts: the reported value is the upper bound of the bucket
/// containing the target rank, i.e. an over-estimate by at most one bucket
/// width.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; LATENCY_BOUNDS_MICROS.len() + 1],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// An empty histogram (const so it can back `static` aggregates).
    pub const fn new() -> Histogram {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; LATENCY_BOUNDS_MICROS.len() + 1],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, micros: u64) {
        let idx = LATENCY_BOUNDS_MICROS
            .iter()
            .position(|&bound| micros <= bound)
            .unwrap_or(LATENCY_BOUNDS_MICROS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        // The sum is the one counter extreme observations can overflow;
        // saturate rather than wrap so long-lived aggregates stay ordered.
        saturating_fetch_add(&self.sum, micros);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds `other` into `self`, bucket by bucket — merging per-thread (or
    /// per-shard) histograms into one aggregate view. Both histograms may be
    /// live; each counter is read once with relaxed ordering, so the merge
    /// is a statistical snapshot, not a linearized one. All additions
    /// saturate.
    pub fn merge(&self, other: &Histogram) {
        for (into, from) in self.buckets.iter().zip(&other.buckets) {
            saturating_fetch_add(into, from.load(Ordering::Relaxed));
        }
        saturating_fetch_add(&self.sum, other.sum());
        saturating_fetch_add(&self.count, other.count());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (µs).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (0 < q ≤ 1) as the upper bound of the bucket holding
    /// the target rank. Observations past the last bound report that bound
    /// (the histogram cannot resolve further). Returns `None` with no data —
    /// callers must not render a bucket bound (the `/metrics` exposition
    /// omits the line).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= target {
                return Some(
                    LATENCY_BOUNDS_MICROS
                        .get(i)
                        .copied()
                        .unwrap_or(LATENCY_BOUNDS_MICROS[LATENCY_BOUNDS_MICROS.len() - 1]),
                );
            }
        }
        Some(LATENCY_BOUNDS_MICROS[LATENCY_BOUNDS_MICROS.len() - 1])
    }

    /// Zeroes every counter (used by benchmarks between measurement runs;
    /// concurrent recorders may land observations mid-reset, which is
    /// acceptable for statistics).
    pub fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// `cell += v`, saturating at `u64::MAX` instead of wrapping. A CAS loop,
/// but contention-free in practice (statistics counters, relaxed ordering).
fn saturating_fetch_add(cell: &AtomicU64, v: u64) {
    let _ =
        cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| Some(cur.saturating_add(v)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_bracket_observations() {
        let h = Histogram::new();
        for micros in [10, 20, 30, 40, 60, 80, 120, 300, 700, 1500] {
            h.record(micros);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 2860);
        // p50 → 5th observation (60µs) lands in the ≤100 bucket.
        assert_eq!(h.quantile(0.5), Some(100));
        // p99 → 10th observation (1500µs) lands in the ≤2500 bucket.
        assert_eq!(h.quantile(0.99), Some(2_500));
        assert_eq!(h.quantile(0.1), Some(10));
    }

    #[test]
    fn overflow_reports_last_bound() {
        let h = Histogram::new();
        h.record(10_000_000);
        assert_eq!(h.quantile(0.5), Some(2_500_000));
    }

    #[test]
    fn empty_histogram_has_no_quantile() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None, "zero samples must not report a bucket bound");
    }

    #[test]
    fn boundary_values_land_in_their_bucket() {
        // A value exactly on a bound belongs to that bucket (`<=`), so a
        // one-observation histogram reports the bound itself at any
        // quantile; one past the bound falls into the next bucket.
        for &bound in &LATENCY_BOUNDS_MICROS {
            let h = Histogram::new();
            h.record(bound);
            assert_eq!(h.quantile(0.5), Some(bound), "on-bound value for {bound}");
            assert_eq!(h.quantile(1.0), Some(bound));
            let h2 = Histogram::new();
            h2.record(bound + 1);
            let next = LATENCY_BOUNDS_MICROS
                .iter()
                .copied()
                .find(|&b| b > bound)
                .unwrap_or(LATENCY_BOUNDS_MICROS[LATENCY_BOUNDS_MICROS.len() - 1]);
            assert_eq!(h2.quantile(0.5), Some(next), "past-bound value for {bound}");
        }
        // Zero belongs to the very first bucket.
        let h = Histogram::new();
        h.record(0);
        assert_eq!(h.quantile(0.5), Some(LATENCY_BOUNDS_MICROS[0]));
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum pins at the ceiling");
        assert_eq!(h.count(), 2, "counts are unaffected");
        assert_eq!(h.quantile(0.5), Some(2_500_000), "overflow bucket still reports");
        // Merging a saturated histogram saturates too.
        let other = Histogram::new();
        other.record(1);
        other.merge(&h);
        assert_eq!(other.sum(), u64::MAX);
        assert_eq!(other.count(), 3);
    }

    #[test]
    fn merge_combines_per_thread_histograms() {
        let a = Histogram::new();
        let b = Histogram::new();
        let combined = Histogram::new();
        for micros in [10, 20, 30, 40, 60] {
            a.record(micros);
            combined.record(micros);
        }
        for micros in [80, 120, 300, 700, 1500] {
            b.record(micros);
            combined.record(micros);
        }
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.sum(), combined.sum());
        for q in [0.1, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(a.quantile(q), combined.quantile(q), "q={q}");
        }
        // Merging an empty histogram is the identity.
        let before = (a.count(), a.sum(), a.quantile(0.5));
        a.merge(&Histogram::new());
        assert_eq!((a.count(), a.sum(), a.quantile(0.5)), before);
        // Merging *into* an empty histogram copies the distribution.
        let fresh = Histogram::new();
        fresh.merge(&combined);
        assert_eq!(fresh.count(), combined.count());
        assert_eq!(fresh.quantile(0.99), combined.quantile(0.99));
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::new();
        h.record(42);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.quantile(0.5), None);
    }
}
