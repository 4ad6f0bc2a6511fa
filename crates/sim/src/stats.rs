//! Statistics collection: online moments, sample sets with percentiles,
//! and named counters.
//!
//! The experiment harness reports the same statistics the paper does:
//! means with standard deviations (e.g. table 4's `33954 ± 161` exits) and
//! latency percentiles (table 5's p95/p99).

use std::collections::BTreeMap;
use std::fmt;

/// Online mean/variance accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use cg_sim::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 6.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 4.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> OnlineStats {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (n−1 denominator); `0.0` with < 2 samples.
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Smallest observation; `0.0` when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation; `0.0` when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} ± {:.2} (n={})",
            self.mean(),
            self.stddev(),
            self.count
        )
    }
}

/// A retained sample set supporting percentile queries.
///
/// Samples are stored exactly (the experiments record at most a few million
/// latency samples), and sorted lazily on first percentile query.
///
/// # Example
///
/// ```
/// use cg_sim::Samples;
///
/// let mut s = Samples::new();
/// for x in 1..=100 {
///     s.record(x as f64);
/// }
/// assert_eq!(s.percentile(50.0), 50.0);
/// assert_eq!(s.percentile(99.0), 99.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Samples {
        Samples {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sample mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// The `p`-th percentile (0–100), by nearest-rank on the sorted data;
    /// `0.0` when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample recorded"));
            self.sorted = true;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.values.len() as f64).ceil() as usize;
        self.values[rank.saturating_sub(1).min(self.values.len() - 1)]
    }

    /// Smallest observation; `0.0` when empty (mirrors
    /// [`OnlineStats::min`]).
    pub fn min(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest observation; `0.0` when empty (mirrors
    /// [`OnlineStats::max`] — in particular, all-negative sample sets
    /// report their true maximum, not `0.0`).
    pub fn max(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The recorded values, in insertion order (or sorted order if a
    /// percentile query has run since the last record).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Converts to an [`OnlineStats`] summary.
    pub fn to_online(&self) -> OnlineStats {
        let mut s = OnlineStats::new();
        for &v in &self.values {
            s.record(v);
        }
        s
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Samples {
        let mut s = Samples::new();
        for v in iter {
            s.record(v);
        }
        s
    }
}

impl Extend<f64> for Samples {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

/// A set of named monotonic counters: a guest program's free-form
/// workload statistics (iterations, requests served, …).
///
/// # Example
///
/// ```
/// use cg_sim::Counters;
///
/// let mut c = Counters::new();
/// c.add("exit.timer", 2);
/// c.incr("exit.mmio");
/// assert_eq!(c.get("exit.timer"), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    map: BTreeMap<String, u64>,
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Adds `n` to the counter named `key`, creating it at zero if absent.
    pub fn add(&mut self, key: &str, n: u64) {
        *self.map.entry(key.to_owned()).or_insert(0) += n;
    }

    /// Adds one to the counter named `key`.
    pub fn incr(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Returns the counter value, or zero if never touched.
    pub fn get(&self, key: &str) -> u64 {
        self.map.get(key).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_mean_and_stddev() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.138).abs() < 1e-3);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty_is_zeroed() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..37] {
            left.record(x);
        }
        for &x in &xs[37..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.stddev() - whole.stddev()).abs() < 1e-9);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s: Samples = (1..=1000).map(|i| i as f64).collect();
        assert_eq!(s.percentile(95.0), 950.0);
        assert_eq!(s.percentile(99.0), 990.0);
        assert_eq!(s.percentile(100.0), 1000.0);
        assert_eq!(s.percentile(0.0), 1.0);
    }

    #[test]
    fn percentile_single_sample() {
        let mut s = Samples::new();
        s.record(42.0);
        assert_eq!(s.percentile(50.0), 42.0);
        assert_eq!(s.percentile(99.9), 42.0);
    }

    #[test]
    fn samples_record_after_percentile_resorts() {
        let mut s = Samples::new();
        s.record(10.0);
        s.record(30.0);
        assert_eq!(s.percentile(100.0), 30.0);
        s.record(20.0);
        assert_eq!(s.percentile(50.0), 20.0);
    }

    #[test]
    fn samples_max_handles_all_negative_and_empty() {
        let s = Samples::new();
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.min(), 0.0);
        let neg: Samples = [-5.0, -2.0, -9.0].into_iter().collect();
        assert_eq!(neg.max(), -2.0);
        assert_eq!(neg.min(), -9.0);
    }
}
