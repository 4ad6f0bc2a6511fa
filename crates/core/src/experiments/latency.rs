//! The virtual-IPI latency experiment (table 3).

use cg_sim::{Histogram, SimDuration};
use cg_workloads::ipibench::IpiBench;
use cg_workloads::kernel::GuestKernel;

use crate::config::{SystemConfig, VmSpec};
use crate::obs::Obs;
use crate::system::System;

/// The three table-3 configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpiConfig {
    /// Core-gapped CVM with IPI/timer delegation (paper: 2.22 µs).
    CoreGappedDelegated,
    /// Core-gapped CVM without delegation (paper: 43.9 µs).
    CoreGappedNoDelegation,
    /// Shared-core (non-confidential) VM (paper: 3.85 µs).
    SharedCore,
}

impl IpiConfig {
    /// All configurations in table order.
    pub const ALL: [IpiConfig; 3] = [
        IpiConfig::CoreGappedNoDelegation,
        IpiConfig::CoreGappedDelegated,
        IpiConfig::SharedCore,
    ];

    /// Table-row label.
    pub fn label(self) -> &'static str {
        match self {
            IpiConfig::CoreGappedDelegated => "Core-gapped CVM, with delegation",
            IpiConfig::CoreGappedNoDelegation => "Core-gapped CVM, without delegation",
            IpiConfig::SharedCore => "Shared-core VM",
        }
    }

    /// The paper's reported latency in microseconds.
    pub fn paper_us(self) -> f64 {
        match self {
            IpiConfig::CoreGappedDelegated => 2.22,
            IpiConfig::CoreGappedNoDelegation => 43.9,
            IpiConfig::SharedCore => 3.85,
        }
    }
}

/// Runs the virtual IPI ping benchmark and returns the delivery-latency
/// histogram in microseconds (exact count and mean, bucketed
/// percentiles).
pub fn run_vipi(config: IpiConfig, pings: u64, seed: u64) -> Histogram {
    run_vipi_obs(config, pings, seed, &Obs::disabled())
}

/// As [`run_vipi`], but records through the observability bundle.
pub fn run_vipi_obs(config: IpiConfig, pings: u64, seed: u64, obs: &Obs) -> Histogram {
    let mut sys_config = SystemConfig::paper_default();
    sys_config.seed = seed;
    match config {
        IpiConfig::CoreGappedDelegated => {
            sys_config.rmm = cg_rmm::RmmConfig::core_gapped();
            sys_config.num_host_cores = 1;
        }
        IpiConfig::CoreGappedNoDelegation => {
            sys_config.rmm = cg_rmm::RmmConfig::core_gapped_no_delegation();
            sys_config.num_host_cores = 1;
        }
        IpiConfig::SharedCore => {
            sys_config.rmm = cg_rmm::RmmConfig::shared_core();
            sys_config.num_host_cores = 2;
        }
    }
    sys_config.machine.num_cores = 4;

    let mut system = System::new(sys_config.clone());
    system.attach_obs(obs);
    let app = IpiBench::new(SimDuration::micros(200), pings);
    let guest = GuestKernel::new(2, sys_config.host.guest_hz, Box::new(app));
    let spec = match config {
        IpiConfig::SharedCore => VmSpec::shared_core(2),
        _ => VmSpec::core_gapped(2),
    };
    system
        .add_vm(spec, Box::new(guest), None)
        .expect("ipi bench VM");
    system.run_until_done(SimDuration::secs(5));
    system.metrics().vipi_latency_hist.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delegated_ipi_is_fast_and_avoids_host() {
        let stats = run_vipi(IpiConfig::CoreGappedDelegated, 50, 7);
        assert!(stats.count() >= 45, "only {} samples", stats.count());
        // Paper: 2.22 µs. Allow generous tolerance on the mean; the
        // decisive comparisons are cross-config.
        assert!(stats.mean() < 5.0, "mean {} µs", stats.mean());
    }

    #[test]
    fn undelegated_ipi_is_an_order_of_magnitude_slower() {
        let fast = run_vipi(IpiConfig::CoreGappedDelegated, 30, 7);
        let slow = run_vipi(IpiConfig::CoreGappedNoDelegation, 30, 7);
        assert!(
            slow.mean() > 5.0 * fast.mean(),
            "delegated {} µs vs undelegated {} µs",
            fast.mean(),
            slow.mean()
        );
    }

    #[test]
    fn shared_core_sits_between() {
        let shared = run_vipi(IpiConfig::SharedCore, 30, 7);
        let fast = run_vipi(IpiConfig::CoreGappedDelegated, 30, 7);
        let slow = run_vipi(IpiConfig::CoreGappedNoDelegation, 30, 7);
        assert!(shared.count() >= 25);
        assert!(
            fast.mean() < shared.mean() && shared.mean() < slow.mean(),
            "fast {} shared {} slow {}",
            fast.mean(),
            shared.mean(),
            slow.mean()
        );
    }
}
