//! The TDX-flavour ablation (paper §6.1).
//!
//! TDX keeps separate secure and insecure page tables, so the host can
//! manipulate the unprotected half of a guest's address space without
//! calling the monitor; on CCA the RMM is invoked for *all* page-table
//! changes. The paper therefore expects a core-gapped TDX to have
//! "moderately better relative performance, due to fewer cross-core
//! RPCs". This experiment measures exactly that: the stage-2 fault
//! service path under both interface styles.

use cg_sim::{Histogram, SimDuration};
use cg_workloads::faultstorm::FaultStorm;
use cg_workloads::kernel::GuestKernel;

use crate::config::{SystemConfig, VmSpec};
use crate::system::System;

/// Result of one fault-storm run.
#[derive(Debug, Clone)]
pub struct FaultResult {
    /// Faults resolved.
    pub faults: u64,
    /// Run-to-run (fault service) latency in microseconds.
    pub service_us: Histogram,
}

/// Runs the stage-2 fault storm on a core-gapped CVM with either the
/// CCA-style (monitor-mediated) or TDX-style (host-managed insecure
/// tables) page-table interface.
pub fn run_fault_storm(tdx_style: bool, faults: u64, seed: u64) -> FaultResult {
    run_fault_storm_obs(tdx_style, faults, seed, &crate::obs::Obs::disabled())
}

/// As [`run_fault_storm`], but records through the observability bundle.
pub fn run_fault_storm_obs(
    tdx_style: bool,
    faults: u64,
    seed: u64,
    obs: &crate::obs::Obs,
) -> FaultResult {
    let mut config = SystemConfig::paper_default();
    config.seed = seed;
    config.machine.num_cores = 4;
    config.num_host_cores = 1;
    config.host.tdx_style_tables = tdx_style;
    let mut system = System::new(config.clone());
    system.attach_obs(obs);
    let app = FaultStorm::new(faults);
    let guest = GuestKernel::new(1, config.host.guest_hz, Box::new(app));
    let vm = system
        .add_vm(VmSpec::core_gapped(1), Box::new(guest), None)
        .expect("fault storm VM");
    assert!(system.run_until_done(SimDuration::secs(30)));
    let report = system.vm_report(vm);
    FaultResult {
        faults: report.stats.counters.get("faultstorm.faults"),
        service_us: system.metrics().run_to_run_hist.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_are_resolved_and_pages_stay_mapped() {
        let r = run_fault_storm(false, 50, 3);
        assert_eq!(r.faults, 50);
        assert!(r.service_us.count() >= 50);
    }

    #[test]
    fn tdx_style_tables_shave_the_monitor_rpcs() {
        let cca = run_fault_storm(false, 100, 3);
        let tdx = run_fault_storm(true, 100, 3);
        // "Moderately better": a measurable constant saving per fault.
        let delta = cca.service_us.mean() - tdx.service_us.mean();
        assert!(
            delta > 1.0 && delta < 15.0,
            "expected a moderate per-fault saving, got {delta} µs \
             (cca {}, tdx {})",
            cca.service_us.mean(),
            tdx.service_us.mean()
        );
    }
}
