//! Sample statistics: nearest-rank percentiles, the ten-samples-beyond
//! rule, medians, and the FNV-1a digest answers are folded into.

use std::time::Duration;

/// Candidate tail percentiles, ascending.
pub const PERCENTILES: [f64; 6] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.999];

/// The highest candidate percentile that still has at least ten samples
/// beyond it among `n` samples, or `None` when even the median does not
/// (fewer than 20 samples). A percentile estimated from fewer than ten
/// samples in its tail is mostly noise.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES.iter().rev().copied().find(|&p| samples_beyond(n, p) >= 10)
}

/// How many of `n` samples rank strictly above the nearest-rank `p`
/// percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// 1-based nearest-rank index of the `p` percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    (((n as f64) * p).ceil() as usize).clamp(1, n.max(1))
}

/// Latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    nanos: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.nanos.push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.nanos.extend_from_slice(&other.nanos);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.nanos.len()
    }

    pub fn total_secs(&self) -> f64 {
        self.nanos.iter().sum::<u64>() as f64 / 1e9
    }

    /// Nearest-rank `p` percentile in nanoseconds (0 when empty).
    pub fn percentile_ns(&mut self, p: f64) -> f64 {
        if self.nanos.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.nanos.sort_unstable();
            self.sorted = true;
        }
        self.nanos[rank(self.nanos.len(), p) - 1] as f64
    }

    pub fn percentile_us(&mut self, p: f64) -> f64 {
        self.percentile_ns(p) / 1e3
    }

    pub fn percentile_ms(&mut self, p: f64) -> f64 {
        self.percentile_ns(p) / 1e6
    }

    pub fn max_us(&mut self) -> f64 {
        self.percentile_us(1.0)
    }
}

/// Median of a small set of measurements (mean of the middle pair when the
/// count is even; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a state.
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// FNV-1a of one byte string.
pub fn digest(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.50));
        assert_eq!(highest_supported_percentile(40), Some(0.75));
        assert_eq!(highest_supported_percentile(199), Some(0.90));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(samples_beyond(1_000, 0.99), 10);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for i in (1..=100u64).rev() {
            s.push(Duration::from_nanos(i * 1_000));
        }
        assert_eq!(s.percentile_us(0.50), 50.0);
        assert_eq!(s.percentile_us(0.99), 99.0);
        assert_eq!(s.max_us(), 100.0);
        assert_eq!(Samples::default().percentile_us(0.5), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        assert_eq!(digest(b""), FNV_OFFSET);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(digest(b"ab"), digest(b"ba"));
        assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"a"), b"b"), digest(b"ab"));
    }
}
