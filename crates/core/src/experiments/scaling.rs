//! CoreMark-PRO scaling experiments (fig. 6, fig. 7, table 4).

use cg_host::DeviceKind;
use cg_sim::{Histogram, SimDuration};
use cg_workloads::coremark::CoremarkPro;
use cg_workloads::kernel::GuestKernel;

use crate::config::{SystemConfig, VmSpec};
use crate::obs::Obs;
use crate::system::System;

/// One fig. 6 configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingConfig {
    /// Shared-core (non-confidential) baseline: N vCPUs on N cores.
    SharedCore,
    /// Shared-core *confidential* VM: the comparison the paper could not
    /// run without RME hardware (§5.1) — every exit pays world switches
    /// and mitigation flushes, and without delegation the timer traps.
    SharedCoreConfidential,
    /// Core-gapped with async RPC + interrupt delegation (the paper's
    /// design): N−1 vCPUs + 1 host core.
    CoreGapped,
    /// Core-gapped, busy-wait transport (Quarantine-style).
    CoreGappedBusyWait,
    /// Core-gapped, delegation disabled.
    CoreGappedNoDelegation,
    /// Core-gapped, busy-wait and no delegation (the fully-unoptimised
    /// ablation).
    CoreGappedBusyWaitNoDelegation,
}

impl ScalingConfig {
    /// All fig. 6 series.
    pub const ALL: [ScalingConfig; 5] = [
        ScalingConfig::SharedCore,
        ScalingConfig::CoreGapped,
        ScalingConfig::CoreGappedBusyWait,
        ScalingConfig::CoreGappedNoDelegation,
        ScalingConfig::CoreGappedBusyWaitNoDelegation,
    ];

    /// Display label matching the figure legend.
    pub fn label(self) -> &'static str {
        match self {
            ScalingConfig::SharedCore => "shared-core VM (baseline)",
            ScalingConfig::SharedCoreConfidential => "shared-core CVM (simulated RME)",
            ScalingConfig::CoreGapped => "core-gapped CVM",
            ScalingConfig::CoreGappedBusyWait => "core-gapped, busy waiting",
            ScalingConfig::CoreGappedNoDelegation => "core-gapped, no delegation",
            ScalingConfig::CoreGappedBusyWaitNoDelegation => {
                "core-gapped, busy waiting + no delegation"
            }
        }
    }

    fn uses_core_gapping(self) -> bool {
        !matches!(
            self,
            ScalingConfig::SharedCore | ScalingConfig::SharedCoreConfidential
        )
    }

    fn delegation(self) -> bool {
        matches!(
            self,
            ScalingConfig::CoreGapped | ScalingConfig::CoreGappedBusyWait
        )
    }

    fn busy_wait(self) -> bool {
        matches!(
            self,
            ScalingConfig::CoreGappedBusyWait | ScalingConfig::CoreGappedBusyWaitNoDelegation
        )
    }
}

/// The result of one CoreMark-PRO run.
#[derive(Debug, Clone)]
pub struct CoremarkResult {
    /// Aggregate score (work units per second).
    pub score: f64,
    /// Interrupt-related exits (table 4 row 1).
    pub exits_interrupt: u64,
    /// Total exits (table 4 row 2).
    pub exits_total: u64,
    /// Mean run-to-run latency in µs (§5.2 reports 26.18 ± 0.96).
    pub run_to_run_us_mean: f64,
    /// Host core utilisation.
    pub host_utilization: f64,
}

/// Runs CoreMark-PRO on `total_cores` physical cores for `duration`
/// (paper fig. 6 uses a single VM and a single host core; following
/// §5.1, the core-gapped VM gets `total_cores − 1` vCPUs while the
/// shared-core baseline gets `total_cores` vCPUs on the same cores).
pub fn run_coremark(
    config: ScalingConfig,
    total_cores: u16,
    duration: SimDuration,
    seed: u64,
) -> CoremarkResult {
    run_coremark_obs(config, total_cores, duration, seed, &Obs::disabled()).0
}

/// As [`run_coremark`], but records through the observability bundle
/// and also returns the run-to-run latency histogram (µs).
pub fn run_coremark_obs(
    config: ScalingConfig,
    total_cores: u16,
    duration: SimDuration,
    seed: u64,
    obs: &Obs,
) -> (CoremarkResult, Histogram) {
    assert!(total_cores >= 2, "need at least two cores");
    let mut sys_config = SystemConfig::paper_default();
    sys_config.seed = seed;
    if config.uses_core_gapping() {
        sys_config.rmm = if config.delegation() {
            cg_rmm::RmmConfig::core_gapped()
        } else {
            cg_rmm::RmmConfig::core_gapped_no_delegation()
        };
        sys_config.num_host_cores = 1;
        sys_config.machine.num_cores = total_cores.max(2);
    } else {
        sys_config.rmm = cg_rmm::RmmConfig::shared_core();
        sys_config.num_host_cores = total_cores;
        sys_config.machine.num_cores = total_cores + 1; // one spare, never used
    }

    let vcpus: u32 = if config.uses_core_gapping() {
        (total_cores - 1) as u32
    } else {
        total_cores as u32
    };

    let mut system = System::new(sys_config.clone());
    system.attach_obs(obs);
    let app = CoremarkPro::new(vcpus, SimDuration::micros(100));
    let guest = GuestKernel::new(vcpus, sys_config.host.guest_hz, Box::new(app))
        .with_console_writes(SimDuration::millis(70));
    let mut spec = match config {
        ScalingConfig::SharedCore => VmSpec::shared_core(vcpus),
        ScalingConfig::SharedCoreConfidential => VmSpec::shared_core_confidential(vcpus),
        _ => VmSpec::core_gapped(vcpus),
    };
    if config.busy_wait() {
        spec = spec.with_busy_wait();
    }
    spec = spec.with_device(DeviceKind::VirtioNet); // console/background device
    let vm = system
        .add_vm(spec, Box::new(guest), None)
        .expect("coremark VM admission");
    system.run_for(duration);

    let report = system.vm_report(vm);
    let iters = report.stats.counters.get("coremark.total_iterations");
    // One work unit = 100 µs of ideal compute.
    let score = iters as f64 / duration.as_secs_f64();
    let result = CoremarkResult {
        score,
        exits_interrupt: report.exits_interrupt,
        exits_total: report.exits_total,
        run_to_run_us_mean: system.metrics().run_to_run_hist.mean(),
        host_utilization: system.metrics().host_utilization(0, duration),
    };
    (result, system.metrics().run_to_run_hist.clone())
}

/// Runs `count` 4-vCPU VMs (fig. 7) and returns the aggregate score.
///
/// Core-gapped CVMs share a *single* host core for all their VMM
/// threads — the paper's key scalability point ("running up to 16 VMMs
/// pinned on a single host core does not harm throughput").
pub fn run_multivm(config: ScalingConfig, count: u16, duration: SimDuration, seed: u64) -> f64 {
    run_multivm_obs(config, count, duration, seed, &Obs::disabled())
}

/// As [`run_multivm`], but records through the observability bundle.
pub fn run_multivm_obs(
    config: ScalingConfig,
    count: u16,
    duration: SimDuration,
    seed: u64,
    obs: &Obs,
) -> f64 {
    let vcpus_per_vm: u32 = 4;
    let mut sys_config = SystemConfig::paper_default();
    sys_config.seed = seed;
    if config.uses_core_gapping() {
        sys_config.rmm = if config.delegation() {
            cg_rmm::RmmConfig::core_gapped()
        } else {
            cg_rmm::RmmConfig::core_gapped_no_delegation()
        };
        sys_config.num_host_cores = 1;
        sys_config.machine.num_cores = 1 + count * 4 + 1;
    } else {
        sys_config.rmm = cg_rmm::RmmConfig::shared_core();
        sys_config.num_host_cores = count * 4;
        sys_config.machine.num_cores = count * 4 + 1;
    }
    let mut system = System::new(sys_config.clone());
    system.attach_obs(obs);
    let mut vms = Vec::new();
    for i in 0..count {
        let app = CoremarkPro::new(vcpus_per_vm, SimDuration::micros(100));
        let guest = GuestKernel::new(vcpus_per_vm, sys_config.host.guest_hz, Box::new(app))
            .with_console_writes(SimDuration::millis(70));
        let mut spec = if config.uses_core_gapping() {
            VmSpec::core_gapped(vcpus_per_vm)
        } else {
            let base = (i as u32 * 4) as u16;
            VmSpec::shared_core(vcpus_per_vm).with_cores(
                (base..base + vcpus_per_vm as u16)
                    .map(cg_machine::CoreId)
                    .collect(),
            )
        };
        if config.busy_wait() {
            spec = spec.with_busy_wait();
        }
        vms.push(
            system
                .add_vm(spec, Box::new(guest), None)
                .expect("multivm admission"),
        );
    }
    system.run_for(duration);
    let mut total = 0.0;
    for vm in vms {
        let report = system.vm_report(vm);
        total +=
            report.stats.counters.get("coremark.total_iterations") as f64 / duration.as_secs_f64();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: SimDuration = SimDuration::millis(300);

    #[test]
    fn core_gapped_runs_and_scores() {
        let r = run_coremark(ScalingConfig::CoreGapped, 4, RUN, 1);
        // 3 vCPUs × ~10k units/sec each, minus overheads.
        assert!(r.score > 10_000.0, "score {}", r.score);
        assert!(r.exits_total < 200, "exits {}", r.exits_total);
    }

    #[test]
    fn shared_core_runs_and_scores() {
        let r = run_coremark(ScalingConfig::SharedCore, 4, RUN, 1);
        assert!(r.score > 10_000.0, "score {}", r.score);
    }

    #[test]
    fn run_to_run_latency_stays_flat_with_core_count() {
        // Paper §5.2: "run-to-run latency does not noticeably increase
        // with the guest core count".
        let small = run_coremark(ScalingConfig::CoreGapped, 4, RUN, 1);
        let large = run_coremark(ScalingConfig::CoreGapped, 16, RUN, 1);
        assert!(small.run_to_run_us_mean > 0.0);
        let ratio = large.run_to_run_us_mean / small.run_to_run_us_mean;
        assert!(
            (0.6..1.8).contains(&ratio),
            "run-to-run should stay flat: {} vs {} us",
            small.run_to_run_us_mean,
            large.run_to_run_us_mean
        );
    }

    #[test]
    fn shared_core_cvm_pays_world_switch_tax() {
        // The comparison the paper could not measure (§5.1): a
        // shared-core CVM is strictly slower than the non-confidential
        // baseline on the same cores.
        let plain = run_coremark(ScalingConfig::SharedCore, 4, RUN, 1);
        let scc = run_coremark(ScalingConfig::SharedCoreConfidential, 4, RUN, 1);
        assert!(
            scc.score < plain.score * 0.995,
            "CVM {} vs plain {}",
            scc.score,
            plain.score
        );
    }

    #[test]
    fn delegation_slashes_interrupt_exits() {
        let with = run_coremark(ScalingConfig::CoreGapped, 4, RUN, 1);
        let without = run_coremark(ScalingConfig::CoreGappedNoDelegation, 4, RUN, 1);
        assert!(
            without.exits_interrupt > 10 * with.exits_interrupt.max(1),
            "with: {}, without: {}",
            with.exits_interrupt,
            without.exits_interrupt
        );
    }
}
