//! Fault-injection sweep: how much hostile-host interference the async
//! run-call path absorbs before throughput degrades, and whether the
//! recovery machinery (client timeouts + watchdog rescan) keeps every
//! channel live.
//!
//! The threat model follows the paper's §1 malicious host: the
//! core-gapped design routes every vCPU exit through one shared-memory
//! channel and one doorbell IPI, so a host that drops or delays that
//! IPI — or stalls its own core — can silently strand a vCPU. The sweep
//! drives an exit-heavy guest under a seeded [`FaultPlan`] and reports
//! throughput, recovery counts, and the number of wedged channels.

use cg_host::DeviceKind;
use cg_sim::{FaultPlan, SimDuration};
use cg_workloads::coremark::CoremarkPro;
use cg_workloads::kernel::GuestKernel;

use crate::config::{RecoveryConfig, SystemConfig, VmSpec};
use crate::obs::Obs;
use crate::system::System;

/// Outcome of one fault-sweep configuration.
#[derive(Debug, Clone)]
pub struct FaultSweepResult {
    /// CoreMark-style score (iterations per second).
    pub score: f64,
    /// Mean run-to-run latency (µs).
    pub run_to_run_us_mean: f64,
    /// Doorbell IPIs dropped by the injector.
    pub doorbells_dropped: u64,
    /// Doorbell IPIs delayed by the injector.
    pub doorbells_delayed: u64,
    /// Run-request poll notices wedged by the injector.
    pub requests_wedged: u64,
    /// Client-side retries performed.
    pub retries: u64,
    /// Calls whose retry budget was exhausted (final attempt escalated).
    pub retries_exhausted: u64,
    /// Watchdog rescans performed.
    pub watchdog_scans: u64,
    /// Stranded exits the watchdog recovered.
    pub watchdog_recovered: u64,
    /// Responses idempotently re-posted by the RMM.
    pub response_reposts: u64,
    /// Channels still wedged at the end of the run (must be zero with
    /// recovery enabled).
    pub wedged_channels: usize,
    /// Deterministic fingerprint of the run's metrics.
    pub fingerprint: u64,
}

/// Runs the exit-heavy workload for `duration` under `plan`, with
/// recovery per `recovery`.
pub fn run_fault_sweep(
    plan: FaultPlan,
    recovery: RecoveryConfig,
    duration: SimDuration,
    seed: u64,
) -> FaultSweepResult {
    run_fault_sweep_obs(plan, recovery, duration, seed, &Obs::disabled())
}

/// As [`run_fault_sweep`], but records through the observability bundle.
pub fn run_fault_sweep_obs(
    plan: FaultPlan,
    recovery: RecoveryConfig,
    duration: SimDuration,
    seed: u64,
    obs: &Obs,
) -> FaultSweepResult {
    let mut config = SystemConfig::paper_default();
    config.machine.num_cores = 8;
    config.seed = seed;
    config.fault = plan;
    config.recovery = recovery;

    let vcpus = 4u32;
    let mut system = System::new(config.clone());
    system.attach_obs(obs);
    let app = CoremarkPro::new(vcpus, SimDuration::micros(100));
    // Frequent console writes force exits, so every fault class gets
    // plenty of doorbell rings to bite on.
    let guest = GuestKernel::new(vcpus, config.host.guest_hz, Box::new(app))
        .with_console_writes(SimDuration::millis(1));
    let spec = VmSpec::core_gapped(vcpus).with_device(DeviceKind::VirtioNet);
    let vm = system
        .add_vm(spec, Box::new(guest), None)
        .expect("fault sweep VM admission");
    system.run_for(duration);

    let report = system.vm_report(vm);
    let iters = report.stats.counters.get("coremark.total_iterations");
    let c = &system.metrics().counters;
    // A call older than ten base timeouts with nobody coming is wedged
    // for good: the full retry ladder has long since run out.
    let grace = config.recovery.call_timeout.scaled(10.0);
    FaultSweepResult {
        score: iters as f64 / duration.as_secs_f64(),
        run_to_run_us_mean: system.metrics().run_to_run_hist.mean(),
        doorbells_dropped: c.get("fault.doorbell_dropped"),
        doorbells_delayed: c.get("fault.doorbell_delayed"),
        requests_wedged: c.get("fault.request_wedged"),
        retries: c.get("rpc.retries"),
        retries_exhausted: c.get("rpc.retries_exhausted"),
        watchdog_scans: c.get("wakeup.watchdog_scans"),
        watchdog_recovered: c.get("wakeup.watchdog_recovered"),
        response_reposts: c.get("rmm.response_reposts"),
        wedged_channels: system.wedged_channels(grace),
        fingerprint: system.metrics().fingerprint(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_has_no_recovery_activity() {
        let r = run_fault_sweep(
            FaultPlan::none(),
            RecoveryConfig::paper_default(),
            SimDuration::millis(20),
            7,
        );
        assert!(r.score > 0.0);
        assert_eq!(r.doorbells_dropped, 0);
        assert_eq!(r.retries, 0);
        assert_eq!(r.wedged_channels, 0);
        assert!(r.watchdog_scans > 0, "watchdog ticks even when healthy");
        assert_eq!(r.watchdog_recovered, 0);
    }

    #[test]
    fn doorbell_loss_triggers_recovery_and_completes() {
        let r = run_fault_sweep(
            FaultPlan::doorbell_loss(0.10),
            RecoveryConfig::paper_default(),
            SimDuration::millis(50),
            7,
        );
        assert!(r.doorbells_dropped > 0, "injector must actually bite");
        assert!(
            r.retries + r.watchdog_recovered > 0,
            "dropped doorbells must be recovered by someone"
        );
        assert_eq!(r.wedged_channels, 0, "recovery must unwedge every call");
        assert!(r.score > 0.0);
    }

    #[test]
    fn same_seed_same_plan_is_byte_identical() {
        let run = || {
            run_fault_sweep(
                FaultPlan::doorbell_loss(0.05),
                RecoveryConfig::paper_default(),
                SimDuration::millis(30),
                11,
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.doorbells_dropped, b.doorbells_dropped);
        assert_eq!(a.retries, b.retries);
    }
}
