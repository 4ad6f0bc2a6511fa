//! Measurement collection: the quantities the paper reports.

use crate::counters::SystemCounters;
use cg_sim::{Histogram, SimDuration, SimTime};
use cg_workloads::WorkloadStats;

/// System-wide measurements.
///
/// Latencies are kept only as [`Histogram`]s: exact count, sum, min and
/// max on the side of log buckets, so means are exact, percentiles are
/// bounded-error, and memory stays constant however long a run is.
#[derive(Debug, Default)]
pub struct Metrics {
    /// The system's counters (IPIs sent, doorbell rings, RPCs, …),
    /// indexed by [`crate::counters::Counter`].
    pub counters: SystemCounters,
    /// Run-to-run latency in microseconds (§5.2): from a vCPU exit being
    /// posted to the next run call resuming it.
    pub run_to_run_hist: Histogram,
    /// Virtual IPI delivery latency in microseconds (table 3): from the
    /// sender's `ICC_SGI1R` write to the target guest acknowledging the
    /// SGI.
    pub vipi_latency_hist: Histogram,
    /// Live-rebind latency in microseconds: from an elastic relocation
    /// being issued (kick sent) to the vCPU re-entering on its new
    /// dedicated core's binding.
    pub rebind_hist: Histogram,
    /// Live-migration downtime in microseconds: from the stop-and-copy
    /// quiesce being initiated on the source to the VM resuming on the
    /// destination node.
    pub migrate_downtime_hist: Histogram,
    /// Per-host-core busy time (ns), indexed by core id.
    pub host_busy_ns: Vec<u64>,
}

impl Metrics {
    /// Creates empty metrics for `num_cores` cores.
    pub fn new(num_cores: u16) -> Metrics {
        Metrics {
            host_busy_ns: vec![0; num_cores as usize],
            ..Metrics::default()
        }
    }

    /// Records host CPU busy time on `core`.
    pub fn add_host_busy(&mut self, core: usize, d: SimDuration) {
        self.host_busy_ns[core] += d.as_nanos();
    }

    /// Host core utilisation over `elapsed` for `core`.
    pub fn host_utilization(&self, core: usize, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.host_busy_ns[core] as f64 / elapsed.as_nanos() as f64
    }

    /// A deterministic digest of everything measured.
    ///
    /// Two same-seed runs of the same configuration must produce equal
    /// fingerprints; a mismatch is a cheap tripwire that the runs
    /// diverged (the structured trace then pinpoints *where* — see
    /// [`cg_sim::TraceDiff`]).
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a, folded over a stable serialisation of the metrics.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        for (key, value) in self.counters.iter() {
            eat(key.as_bytes());
            eat(&value.to_le_bytes());
        }
        // Fold the *full distribution* of each latency series, not just
        // (count, mean): two diverged runs with equal count and mean must
        // still fingerprint differently. The histogram buckets give a
        // stable order-independent serialisation, and the exact
        // sum/min/max bits catch within-bucket differences.
        for hist in [
            &self.run_to_run_hist,
            &self.vipi_latency_hist,
            &self.rebind_hist,
            &self.migrate_downtime_hist,
        ] {
            eat(&hist.count().to_le_bytes());
            eat(&hist.mean().to_bits().to_le_bytes());
            eat(&hist.sum().to_bits().to_le_bytes());
            eat(&hist.min().to_bits().to_le_bytes());
            eat(&hist.max().to_bits().to_le_bytes());
            for (idx, count) in hist.nonzero_buckets() {
                eat(&(idx as u64).to_le_bytes());
                eat(&count.to_le_bytes());
            }
        }
        for &busy in &self.host_busy_ns {
            eat(&busy.to_le_bytes());
        }
        h
    }
}

/// The end-of-run report for one VM.
#[derive(Debug)]
pub struct VmReport {
    /// Workload statistics from the guest program.
    pub stats: WorkloadStats,
    /// Total exits to the host (table 4's "total exits").
    pub exits_total: u64,
    /// Interrupt-related exits (table 4's first row).
    pub exits_interrupt: u64,
    /// When the VM started.
    pub started: SimTime,
    /// When all vCPUs finished, if they did.
    pub finished: Option<SimTime>,
    /// Elapsed time: finish (or `now` at report time) minus start.
    pub elapsed: SimDuration,
}

impl VmReport {
    /// The exit rate per second of elapsed runtime.
    pub fn exit_rate(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.exits_total as f64 / self.elapsed.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_math() {
        let mut m = Metrics::new(2);
        m.add_host_busy(0, SimDuration::millis(250));
        assert!((m.host_utilization(0, SimDuration::secs(1)) - 0.25).abs() < 1e-12);
        assert_eq!(m.host_utilization(1, SimDuration::secs(1)), 0.0);
        assert_eq!(m.host_utilization(0, SimDuration::ZERO), 0.0);
    }

    #[test]
    fn fingerprint_folds_every_latency_series() {
        let mut seen = vec![Metrics::new(1).fingerprint()];
        for series in 0..4 {
            let mut m = Metrics::new(1);
            let hist = match series {
                0 => &mut m.run_to_run_hist,
                1 => &mut m.vipi_latency_hist,
                2 => &mut m.rebind_hist,
                _ => &mut m.migrate_downtime_hist,
            };
            hist.record(12.5);
            let fp = m.fingerprint();
            assert!(!seen.contains(&fp), "series {series} collides");
            seen.push(fp);
        }
    }

    #[test]
    fn fingerprint_distinguishes_distributions_with_equal_mean() {
        // Same count, same mean, different shape: a (count, mean) fold
        // alone would collide on these.
        let mut a = Metrics::new(1);
        a.run_to_run_hist.extend([10.0, 20.0, 30.0]);
        let mut b = Metrics::new(1);
        b.run_to_run_hist.extend([5.0, 20.0, 35.0]);
        assert_eq!(a.run_to_run_hist.mean(), b.run_to_run_hist.mean());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn exit_rate() {
        let r = VmReport {
            stats: WorkloadStats::new(),
            exits_total: 500,
            exits_interrupt: 450,
            started: SimTime::ZERO,
            finished: None,
            elapsed: SimDuration::secs(2),
        };
        assert!((r.exit_rate() - 250.0).abs() < 1e-12);
    }
}
