//! System and VM configuration.

use cg_host::{DeviceKind, HostParams, VmExecMode};
use cg_machine::{CoreId, HwParams};
use cg_rmm::RmmConfig;
use cg_sim::{FaultPlan, SimDuration};

/// How vCPU run calls travel between host and RMM under core gapping
/// (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunTransport {
    /// Asynchronous RPC: the vCPU thread blocks after posting the run
    /// call; exits ring the single doorbell IPI and the wake-up thread
    /// unblocks it (fig. 4). The paper's design.
    AsyncIpi,
    /// Quarantine-style yield-polling: the vCPU thread stays runnable and
    /// polls the channel. The ablation whose contention fig. 6 shows.
    BusyWait,
}

/// Recovery knobs for the async run-call path: the client-side call
/// timeout with bounded exponential-backoff retries, and the wake-up
/// thread's watchdog rescan that closes the dropped-doorbell hole.
///
/// Recovery is enabled by default because it is free when no fault
/// fires: timeouts on completed calls are recognised as stale and cost
/// zero simulated time, and the watchdog only steals host-core cycles
/// at its (long) period. While the guest serves a call, its timeout
/// chain is parked on the vCPU and costs no events either; it goes back
/// to the event queue when the call leaves `Serving` (DESIGN.md, "Fault
/// model & recovery").
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryConfig {
    /// Master switch; `false` reproduces the pre-recovery behaviour
    /// (lost doorbells wedge the channel forever).
    pub enabled: bool,
    /// Base client-side timeout for one async run call attempt.
    pub call_timeout: SimDuration,
    /// Retries before a call is abandoned as [`cg_rpc::CallAborted`].
    pub max_retries: u32,
    /// Backoff multiplier applied to the timeout per retry.
    pub backoff: f64,
    /// Period of the watchdog rescan that backstops both doorbell
    /// planes; `ZERO` disables the watchdog while keeping call retries.
    pub watchdog_period: SimDuration,
}

impl RecoveryConfig {
    /// Defaults matched to the paper's calibrated machine: the base
    /// timeout dwarfs the 2.8 µs null round trip, and the watchdog
    /// period is long enough that its scan cost is negligible on the
    /// single host core.
    pub fn paper_default() -> RecoveryConfig {
        RecoveryConfig {
            enabled: true,
            call_timeout: SimDuration::micros(200),
            max_retries: 8,
            backoff: 2.0,
            watchdog_period: SimDuration::micros(500),
        }
    }

    /// Recovery fully off (the pre-recovery model, for ablations).
    pub fn disabled() -> RecoveryConfig {
        RecoveryConfig {
            enabled: false,
            ..RecoveryConfig::paper_default()
        }
    }

    /// The retry policy the client arms per call.
    pub fn retry_policy(&self) -> cg_rpc::RetryPolicy {
        cg_rpc::RetryPolicy {
            timeout: self.call_timeout,
            max_retries: self.max_retries,
            backoff: self.backoff,
        }
    }
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig::paper_default()
    }
}

/// Whole-system configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Hardware parameters.
    pub machine: HwParams,
    /// Host software parameters.
    pub host: HostParams,
    /// RMM configuration (core gapping, delegation).
    pub rmm: RmmConfig,
    /// Cores reserved for the host (the first `num_host_cores` ids);
    /// the rest are dedicable by the planner.
    pub num_host_cores: u16,
    /// Simulation seed.
    pub seed: u64,
    /// Model NAPI-style interrupt suppression: packets arriving while the
    /// target vCPU is actively processing are delivered without an
    /// interrupt.
    pub napi: bool,
    /// **Test-only**: deliberately break determinism by iterating the
    /// wake-up thread's scan candidates in `HashMap` order (which varies
    /// per `RandomState` instance) instead of index order. Exists to
    /// demonstrate that the structured trace plus [`cg_sim::TraceDiff`]
    /// pinpoints the first divergent event; never enable in experiments.
    pub inject_wakeup_nondeterminism: bool,
    /// Hostile-host fault plan (dropped/delayed doorbells, host stalls,
    /// delayed response visibility, wedged requests). `FaultPlan::none()`
    /// — the default — injects nothing and draws no randomness.
    pub fault: FaultPlan,
    /// Recovery knobs for the async run-call path (timeouts, retries,
    /// watchdog rescan).
    pub recovery: RecoveryConfig,
}

impl SystemConfig {
    /// The paper's evaluation setup: a 64-core AmpereOne-class machine,
    /// one host core, core-gapping RMM with full delegation.
    pub fn paper_default() -> SystemConfig {
        SystemConfig {
            machine: HwParams::ampere_one_like(),
            host: HostParams::calibrated(),
            rmm: RmmConfig::core_gapped(),
            num_host_cores: 1,
            seed: 0xC0DE,
            napi: true,
            inject_wakeup_nondeterminism: false,
            fault: FaultPlan::none(),
            recovery: RecoveryConfig::paper_default(),
        }
    }

    /// A small 8-core machine for tests.
    pub fn small() -> SystemConfig {
        SystemConfig {
            machine: HwParams::small(),
            ..SystemConfig::paper_default()
        }
    }
}

impl Default for SystemConfig {
    fn default() -> SystemConfig {
        SystemConfig::paper_default()
    }
}

/// Requested inter-CVM channel pairing for a VM: connect this VM's
/// vCPU 0 to `peer_vm`'s vCPU 0 over attested shared-memory channel
/// `channel`. The builder issues the `IVC_CHANNEL_CREATE` handshake
/// once both VMs are active (only one side needs to carry the spec).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvcPeerSpec {
    /// Index (creation order) of the peer VM to pair with.
    pub peer_vm: u32,
    /// Channel identifier; also selects the shared-window region.
    pub channel: u32,
}

/// Per-VM configuration.
///
/// # Example
///
/// ```
/// use cg_core::{RunTransport, VmSpec};
/// use cg_host::DeviceKind;
///
/// let spec = VmSpec::core_gapped(8)
///     .with_device(DeviceKind::SriovNic)
///     .with_device(DeviceKind::VirtioBlk);
/// assert_eq!(spec.vcpus, 8);
/// assert_eq!(spec.transport, RunTransport::AsyncIpi);
/// ```
#[derive(Debug, Clone)]
pub struct VmSpec {
    /// Number of vCPUs.
    pub vcpus: u32,
    /// Execution mode.
    pub mode: VmExecMode,
    /// Run-call transport (core-gapped mode only).
    pub transport: RunTransport,
    /// Devices to attach, in guest device-index order.
    pub devices: Vec<DeviceKind>,
    /// Explicit vCPU→core placement; `None` lets the planner (core
    /// gapped) or the 1:1 pinning policy (shared) decide.
    pub vcpu_cores: Option<Vec<CoreId>>,
    /// Route virtio devices through the shared-memory virtqueue fast
    /// path: guests publish descriptors and ring the I/O doorbell
    /// instead of exiting per kick, and a dedicated host I/O thread
    /// drives the backends (core-gapped mode only; SR-IOV devices are
    /// unaffected — they already bypass the VMM).
    pub io_fastpath: bool,
    /// Negotiate EVENT_IDX notification suppression on fast-path
    /// queues. `false` is the suppression ablation: every descriptor
    /// publish kicks and every completion interrupts.
    pub io_event_idx: bool,
    /// Optional inter-CVM channel pairing: connect this VM to a peer
    /// realm over an attested shared-memory channel (core-gapped mode
    /// only).
    pub ivc_peer: Option<IvcPeerSpec>,
    /// Require a contiguous run of dedicated cores at admission (the
    /// churn workload's placement constraint — what makes
    /// fragmentation, and hence defragmentation, matter).
    pub contiguous: bool,
    /// Protected data pages populated at build (the realm's initial
    /// image, `DATA_CREATE`d at 4 KiB-aligned IPAs). This is the image
    /// size a migration must move, so dirtying workloads scale it up.
    pub data_pages: u32,
}

impl VmSpec {
    /// A core-gapped CVM with `vcpus` dedicated cores.
    pub fn core_gapped(vcpus: u32) -> VmSpec {
        VmSpec {
            vcpus,
            mode: VmExecMode::CoreGapped,
            transport: RunTransport::AsyncIpi,
            devices: Vec::new(),
            vcpu_cores: None,
            io_fastpath: false,
            io_event_idx: true,
            ivc_peer: None,
            contiguous: false,
            data_pages: 4,
        }
    }

    /// The paper's baseline: a non-confidential shared-core VM.
    pub fn shared_core(vcpus: u32) -> VmSpec {
        VmSpec {
            vcpus,
            mode: VmExecMode::SharedCore,
            transport: RunTransport::AsyncIpi,
            devices: Vec::new(),
            vcpu_cores: None,
            io_fastpath: false,
            io_event_idx: true,
            ivc_peer: None,
            contiguous: false,
            data_pages: 4,
        }
    }

    /// The shared-core *confidential* VM ablation.
    pub fn shared_core_confidential(vcpus: u32) -> VmSpec {
        VmSpec {
            vcpus,
            mode: VmExecMode::SharedCoreConfidential,
            transport: RunTransport::AsyncIpi,
            devices: Vec::new(),
            vcpu_cores: None,
            io_fastpath: false,
            io_event_idx: true,
            ivc_peer: None,
            contiguous: false,
            data_pages: 4,
        }
    }

    /// Uses the busy-wait run transport (fig. 6 ablation).
    pub fn with_busy_wait(mut self) -> VmSpec {
        self.transport = RunTransport::BusyWait;
        self
    }

    /// Attaches a device; returns the spec for chaining.
    pub fn with_device(mut self, kind: DeviceKind) -> VmSpec {
        self.devices.push(kind);
        self
    }

    /// Pins vCPUs to explicit cores.
    pub fn with_cores(mut self, cores: Vec<CoreId>) -> VmSpec {
        self.vcpu_cores = Some(cores);
        self
    }

    /// Enables the shared-memory virtqueue fast path for this VM's
    /// virtio devices (core-gapped mode only).
    pub fn with_io_fastpath(mut self) -> VmSpec {
        self.io_fastpath = true;
        self
    }

    /// Disables EVENT_IDX notification suppression on fast-path queues
    /// (the suppression ablation).
    pub fn without_event_idx(mut self) -> VmSpec {
        self.io_event_idx = false;
        self
    }

    /// Requires a contiguous run of dedicated cores at admission
    /// (rejected with `NoContiguousRun` when fragmentation forbids it).
    pub fn with_contiguous(mut self) -> VmSpec {
        self.contiguous = true;
        self
    }

    /// Pairs this VM with `peer_vm` over attested inter-CVM channel
    /// `channel` (core-gapped mode only; one side carries the spec).
    pub fn with_ivc_peer(mut self, peer_vm: u32, channel: u32) -> VmSpec {
        self.ivc_peer = Some(IvcPeerSpec { peer_vm, channel });
        self
    }

    /// Sets the number of protected data pages populated at build —
    /// the realm image a migration must move.
    pub fn with_data_pages(mut self, pages: u32) -> VmSpec {
        self.data_pages = pages;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.num_host_cores, 1);
        assert!(c.rmm.core_gapping);
        c.machine.validate().unwrap();
    }

    #[test]
    fn spec_builders() {
        let s = VmSpec::core_gapped(4)
            .with_device(DeviceKind::VirtioNet)
            .with_busy_wait();
        assert_eq!(s.vcpus, 4);
        assert_eq!(s.transport, RunTransport::BusyWait);
        assert_eq!(s.devices.len(), 1);
        assert_eq!(VmSpec::shared_core(2).mode, VmExecMode::SharedCore);
        assert_eq!(
            VmSpec::shared_core_confidential(2).mode,
            VmExecMode::SharedCoreConfidential
        );
    }
}
