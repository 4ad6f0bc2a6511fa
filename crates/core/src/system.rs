//! The system: all components wired together plus the event loop.

use std::collections::VecDeque;
use std::fmt;

use cg_cca::{RecEntry, RecExit};
use cg_host::{CorePlanner, DeviceId, HostAction, KvmVm, Scheduler, ThreadId, Vmm, WakeupThread};
use cg_machine::{CoreId, IntId, Machine, RealmId};
use cg_rmm::Rmm;
use cg_rpc::{Doorbell, SyncChannel};
use cg_sim::{
    EventQueue, EventToken, FaultInjector, SimDuration, SimTime, SpanId, TimeSeries, TraceCtx,
    TraceDumpGuard, TraceHandle, TraceKind,
};
use cg_workloads::{GuestOp, GuestProgram, NetPeer};

use crate::config::{RunTransport, SystemConfig};
use crate::counters::Counter;
use crate::error::SystemError;
use crate::event::SystemEvent;
use crate::metrics::{Metrics, VmReport};

/// The SGI number the RMM rings to notify the host of CVM exits
/// (the one extra IPI the prototype allocates, §4.3).
pub const CVM_EXIT_SGI: IntId = IntId::sgi(8);

/// The SGI number the host sends to a dedicated core to request a vCPU
/// exit (the "kick").
pub const HOST_KICK_SGI: IntId = IntId::sgi(9);

/// The SGI number a fast-path guest rings to notify the host I/O plane
/// of new virtqueue descriptors (the virtio kick as a cross-core
/// doorbell instead of a VM exit).
pub const IO_KICK_SGI: IntId = IntId::sgi(10);

/// Identifies a VM within the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub usize);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// The run-call request travelling over the RPC channel.
#[derive(Debug, Clone)]
pub(crate) struct RunMsg {
    pub entry: RecEntry,
}

/// Builder bundling every tracing knob behind one call,
/// [`System::configure_trace`]; unset options leave the corresponding
/// sink untouched, so bundles compose.
///
/// ```
/// use cg_core::TraceOptions;
///
/// let opts = TraceOptions::new().structured_capture();
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceOptions {
    /// Structured-trace retention in records (`usize::MAX` keeps every
    /// record); `None` leaves the structured trace as it is.
    structured: Option<usize>,
    dump_sink: Option<std::rc::Rc<std::cell::RefCell<String>>>,
}

impl TraceOptions {
    /// An empty bundle: applying it changes nothing.
    pub fn new() -> TraceOptions {
        TraceOptions::default()
    }

    /// Enables the structured trace as a bounded ring of `capacity`
    /// records — panic-dump context on long runs.
    pub fn structured_ring(mut self, capacity: usize) -> TraceOptions {
        self.structured = Some(capacity);
        self
    }

    /// Enables the structured trace retaining *every* record, for
    /// divergence diagnosis with [`cg_sim::TraceDiff`].
    pub fn structured_capture(mut self) -> TraceOptions {
        self.structured = Some(usize::MAX);
        self
    }

    /// Redirects the panic-time trace dump (normally stderr) into
    /// `sink`, so tests can assert on the dump-on-failure path.
    pub fn dump_sink(mut self, sink: std::rc::Rc<std::cell::RefCell<String>>) -> TraceOptions {
        self.dump_sink = Some(sink);
        self
    }
}

/// What a core is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CoreRun {
    /// Host core with nothing to run.
    HostIdle,
    /// Host core executing a thread segment.
    HostThread { tid: ThreadId },
    /// Dedicated core polling for run calls.
    RmmPolling,
    /// Dedicated (or shared) core executing guest code.
    Guest { vm: VmId, vcpu: u32 },
    /// Dedicated core idle inside the RMM (guest in WFI).
    GuestWfi { vm: VmId, vcpu: u32 },
}

/// Per-core execution state.
#[derive(Debug)]
pub(crate) struct CoreState {
    pub run: CoreRun,
    /// Epoch for segment cancellation.
    pub epoch: u64,
    /// Token of the in-flight SegmentEnd event.
    pub seg_token: Option<EventToken>,
    /// When the in-flight segment started.
    pub seg_started: SimTime,
    /// Wall length of the in-flight segment.
    pub seg_wall: SimDuration,
    /// For guest compute segments: the ideal work the segment covers
    /// (for proportional truncation).
    pub seg_work: SimDuration,
    /// What to do when the current guest segment completes.
    pub guest_cont: Option<crate::exec::GuestCont>,
    /// Guest runtime consumed in the current fair timeslice
    /// (shared-core modes).
    pub guest_slice_used: SimDuration,
    /// Compute units the run-ahead tier planned behind the unit in
    /// flight and not yet started, in start order; empty on the
    /// single-step path. The `seg_*` fields always describe the unit in
    /// flight, exactly as single-stepping leaves them.
    pub ahead: VecDeque<crate::exec::AheadUnit>,
}

impl CoreState {
    fn new() -> CoreState {
        CoreState {
            run: CoreRun::HostIdle,
            epoch: 0,
            seg_token: None,
            seg_started: SimTime::ZERO,
            seg_wall: SimDuration::ZERO,
            seg_work: SimDuration::ZERO,
            guest_cont: None,
            guest_slice_used: SimDuration::ZERO,
            ahead: VecDeque::new(),
        }
    }
}

/// A host thread's continuation: what it does when next scheduled /
/// when its current segment completes.
#[derive(Debug, Clone)]
pub(crate) enum ThreadCont {
    /// vCPU thread: issue the next run call.
    VcpuIssue { vm: VmId, vcpu: u32 },
    /// vCPU thread: blocked waiting for the async exit notification.
    /// (Fields are carried for trace/debug output.)
    VcpuAwait {
        #[allow(dead_code)]
        vm: VmId,
        #[allow(dead_code)]
        vcpu: u32,
    },
    /// vCPU thread: busy-wait poll slice (then check the channel).
    VcpuPoll { vm: VmId, vcpu: u32 },
    /// vCPU thread: read and handle the posted exit.
    VcpuHandleExit { vm: VmId, vcpu: u32 },
    /// vCPU thread: executing KVM follow-up actions.
    VcpuActions {
        vm: VmId,
        vcpu: u32,
        queue: VecDeque<HostAction>,
    },
    /// vCPU thread: parked by host-initiated suspend.
    /// (Fields are carried for trace/debug output.)
    VcpuPaused {
        #[allow(dead_code)]
        vm: VmId,
        #[allow(dead_code)]
        vcpu: u32,
    },
    /// vCPU thread: parked indefinitely by an elastic scale-down. The
    /// vCPU's core has been released; only a later scale-up
    /// ([`crate::System::resize_vm`]) revives the thread. Distinct from
    /// [`ThreadCont::VcpuPaused`] so `resume_vm` cannot wake it.
    /// (Fields are carried for trace/debug output.)
    VcpuRetired {
        #[allow(dead_code)]
        vm: VmId,
        #[allow(dead_code)]
        vcpu: u32,
    },
    /// vCPU thread: blocked on guest WFI (shared-core mode).
    /// (Fields are carried for trace/debug output.)
    VcpuBlocked {
        #[allow(dead_code)]
        vm: VmId,
        #[allow(dead_code)]
        vcpu: u32,
    },
    /// vCPU thread: guest executing on this thread's core (shared-core
    /// modes); segment ends return to guest driving.
    VcpuInGuest { vm: VmId, vcpu: u32 },
    /// vCPU thread: finished.
    VcpuDone,
    /// Wake-up thread: scanning run channels.
    WakeupScan,
    /// Wake-up thread: suspended.
    WakeupIdle,
    /// VMM I/O thread: draining device queues; the staged effect fires
    /// when the current emulation segment completes.
    VmmDrain {
        vm: VmId,
        device: u32,
        staged: Option<VmmEffect>,
    },
    /// VMM I/O thread: idle.
    VmmIdle { vm: VmId, device: u32 },
    /// I/O-plane thread: polling the fast-path avail rings.
    IoPoll,
    /// I/O-plane thread: running backend emulation for a drained batch;
    /// the staged effects fire when the segment completes.
    IoBackend { staged: Vec<StagedIo> },
    /// I/O-plane thread: suspended until the I/O doorbell.
    IoIdle,
}

/// Names one of the two [`Plane`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlaneId {
    /// The exit plane: the run-channel wake-up thread, rung with
    /// [`CVM_EXIT_SGI`] when a core-gapped vCPU posts an exit.
    Exit,
    /// The I/O plane: the fast-path thread, rung with [`IO_KICK_SGI`]
    /// when a guest publishes virtqueue work.
    Io,
}

/// A host thread woken by one coalescing, payload-free doorbell IPI:
/// the paper's fig. 4 protocol, which both planes run. The thread is
/// spawned lazily, with the first VM that needs the plane.
#[derive(Debug)]
pub(crate) struct Plane {
    /// Prefixes the plane thread's trace records.
    pub name: &'static str,
    pub sgi: IntId,
    /// Counters bumped per ring and per doorbell IPI sent.
    pub ring_counters: [Counter; 2],
    /// The thread's continuation while it scans and while it sleeps.
    pub busy: ThreadCont,
    pub idle: ThreadCont,
    /// The fig. 4 state machine, once the thread is spawned.
    pub thread: Option<WakeupThread>,
    pub doorbell: Doorbell,
    /// When the pending latch was last set: the host's ring stamp,
    /// letting the watchdog tell a doorbell IPI still in flight apart
    /// from one that was dropped.
    pub rung_at: Option<SimTime>,
}

impl Plane {
    fn new(
        name: &'static str,
        sgi: IntId,
        ring_counters: [Counter; 2],
        busy: ThreadCont,
        idle: ThreadCont,
    ) -> Plane {
        Plane {
            name,
            sgi,
            ring_counters,
            busy,
            idle,
            thread: None,
            doorbell: Doorbell::new(CoreId(0)),
            rung_at: None,
        }
    }

    /// The plane's state machine.
    ///
    /// # Panics
    ///
    /// Panics if the plane's thread was never spawned.
    pub fn thread_mut(&mut self) -> &mut WakeupThread {
        self.thread.as_mut().expect("plane thread spawned")
    }
}

impl std::ops::Index<PlaneId> for [Plane; 2] {
    type Output = Plane;

    fn index(&self, id: PlaneId) -> &Plane {
        &self[id as usize]
    }
}

impl std::ops::IndexMut<PlaneId> for [Plane; 2] {
    fn index_mut(&mut self, id: PlaneId) -> &mut Plane {
        &mut self[id as usize]
    }
}

/// One staged fast-path backend effect: the owning VM/device/vCPU, the
/// effect itself, and the causal context of the descriptor that
/// produced it (so the backend span links into the request's trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StagedIo {
    pub vm: VmId,
    pub device: u32,
    pub vcpu: u32,
    pub effect: VmmEffect,
    pub ctx: TraceCtx,
}

/// The effect a VMM emulation segment produces on completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum VmmEffect {
    /// Packet leaves for the peer after NIC serialisation + wire latency.
    TxToWire { bytes: u64, flow: u64 },
    /// Disk request enters the backing store for `service`.
    DiskSubmit { tag: u64, service_ns: u64 },
    /// An inbound packet finished rx emulation: raise the guest IRQ.
    RxToGuest { bytes: u64, flow: u64 },
}

/// Per-thread bookkeeping.
#[derive(Debug)]
pub(crate) struct ThreadCtx {
    pub cont: ThreadCont,
    /// Remaining work of the current step (non-zero after preemption).
    pub pending: SimDuration,
}

/// A device instance attached to a VM.
#[derive(Debug)]
pub(crate) struct DeviceInstance {
    pub id: DeviceId,
    pub kind: cg_host::DeviceKind,
    /// SPI number (INTID = 32 + spi) signalling this device.
    pub spi: u32,
    /// VMM I/O thread driving it (emulated devices only).
    pub io_thread: Option<ThreadId>,
    /// Inbound packets awaiting guest consumption `(bytes, flow)`.
    pub rx_inbox: VecDeque<(u64, u64)>,
    /// Inbound packets awaiting VMM rx emulation (virtio only).
    pub rx_pending: VecDeque<(u64, u64)>,
    /// Disk completions awaiting guest consumption.
    pub done_queue: VecDeque<u64>,
    /// Received-packet counter for interrupt moderation.
    pub rx_count: u64,
    /// Outstanding completion notifications with no payload (console
    /// write completions): they must still be injected.
    pub pending_notify: u64,
    /// tag → submitting vCPU, for completion routing.
    pub tag_owner: std::collections::HashMap<u64, u32>,
    /// Fast-path virtqueue pairs, one per vCPU (empty when this device
    /// uses the legacy exit-per-kick path or is SR-IOV).
    pub queues: Vec<cg_virtio::QueuePair>,
    /// When the oldest unconsumed used-ring completion was posted, for
    /// the I/O watchdog's stranded-completion rescan. `None` when the
    /// guest has drained every completion.
    pub completion_posted_at: Option<SimTime>,
}

impl DeviceInstance {
    /// Is this device on the shared-memory virtqueue fast path?
    pub fn fastpath(&self) -> bool {
        !self.queues.is_empty()
    }
}

/// One direction of an attested inter-CVM channel at the system layer:
/// the producer and consumer endpoints and the shared-window message
/// ring (the data plane the RMM mapped into both realms).
#[derive(Debug)]
pub(crate) struct IvcDirRt {
    /// Producing endpoint.
    pub from: (VmId, u32),
    /// Consuming endpoint.
    pub to: (VmId, u32),
    /// The free-running-index message ring in the shared window.
    pub ring: cg_ivc::MsgRing,
    /// When the oldest still-undrained message was published, for the
    /// watchdog's lost-doorbell rescan. `None` once drained.
    pub published_at: Option<SimTime>,
}

/// System-layer runtime state of an attested inter-CVM channel: one
/// ring per direction, both signalled by the same delegated SPI.
#[derive(Debug)]
pub(crate) struct IvcChannelRt {
    /// Channel identifier (matches the RMM registry).
    pub channel: u32,
    /// The delegated doorbell SPI.
    pub spi: u32,
    /// Endpoint A → endpoint B direction.
    pub a_to_b: IvcDirRt,
    /// Endpoint B → endpoint A direction.
    pub b_to_a: IvcDirRt,
}

impl IvcChannelRt {
    /// The direction produced by `(vm, vcpu)`, if it is an endpoint.
    pub fn dir_from_mut(&mut self, vm: VmId, vcpu: u32) -> Option<&mut IvcDirRt> {
        if self.a_to_b.from == (vm, vcpu) {
            Some(&mut self.a_to_b)
        } else if self.b_to_a.from == (vm, vcpu) {
            Some(&mut self.b_to_a)
        } else {
            None
        }
    }

    /// The direction consumed by `(vm, vcpu)`, if it is an endpoint.
    pub fn dir_to_mut(&mut self, vm: VmId, vcpu: u32) -> Option<&mut IvcDirRt> {
        if self.a_to_b.to == (vm, vcpu) {
            Some(&mut self.a_to_b)
        } else if self.b_to_a.to == (vm, vcpu) {
            Some(&mut self.b_to_a)
        } else {
            None
        }
    }
}

/// Per-vCPU runtime state.
#[derive(Debug)]
pub(crate) struct VcpuRt {
    pub core: CoreId,
    pub thread: ThreadId,
    /// When the current exit was posted (for run-to-run latency).
    pub exit_posted_at: Option<SimTime>,
    /// Pending virtual-IPI latency measurement: when the sender wrote
    /// `ICC_SGI1R` targeting this vCPU.
    pub vipi_sent_at: Option<SimTime>,
    /// Entry state stashed between issue and architectural entry
    /// (shared-core modes).
    pub pending_entry: Option<RecEntry>,
    /// Exit record stashed between guest exit and handling (shared-core
    /// modes).
    pub pending_exit: Option<RecExit>,
    /// Open profiler span covering the exit-posted → next-run-call
    /// round trip ([`cg_sim::SpanKind::ExitRoundTrip`]).
    pub roundtrip_span: SpanId,
    /// Open profiler span covering KVM exit handling on the host
    /// ([`cg_sim::SpanKind::ExitHandle`]).
    pub handle_span: SpanId,
    /// Causal context of the exit currently being handled on the host
    /// (advanced from the response ctx; `NULL` when tracing is off).
    pub handle_ctx: TraceCtx,
    /// Monotonic async-call sequence number; bumped when a call is
    /// issued and again when its response is consumed, so in-flight
    /// [`crate::event::SystemEvent::CallTimeout`] events for finished
    /// calls are recognised as stale.
    pub call_seq: u64,
    /// Attempts made for the in-flight call (0 = original issue).
    pub call_attempt: u32,
    /// The in-flight call's timeout: queued, parked, or off.
    pub call_timer: CallTimer,
    /// When the in-flight async call was first issued (wedge detection).
    pub call_issued_at: Option<SimTime>,
}

/// The client-side timeout of a vCPU's in-flight async run call.
///
/// While the run channel is `Serving`, every timeout fire only counts
/// `rpc.timeout_serving` and re-arms one period later, so the fires are
/// `at + k·period`. The chain is then *parked*: held here as arithmetic
/// instead of as queued events, and woken back into the queue wherever
/// a fire could find anything but `Serving`. See DESIGN.md, "Fault
/// model & recovery".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum CallTimer {
    /// No timeout armed.
    #[default]
    Off,
    /// A `CallTimeout` event is queued for `at`, ordered as of `as_of`.
    Armed {
        token: EventToken,
        at: SimTime,
        as_of: SimTime,
    },
    /// Parked: the next fire is at `at`, ordered as of `as_of`; each
    /// later one comes `period` after the one before, ordered as of it.
    Parked {
        at: SimTime,
        as_of: SimTime,
        period: SimDuration,
        seq: u64,
    },
}

/// One VM in the system.
pub(crate) struct Vm {
    pub kvm: KvmVm,
    pub guest: Box<dyn GuestProgram>,
    pub vmm: Vmm,
    pub devices: Vec<DeviceInstance>,
    pub peer: Option<Box<dyn NetPeer>>,
    pub run_channels: Vec<SyncChannel<RunMsg, RecExit>>,
    pub vcpus: Vec<VcpuRt>,
    pub transport: RunTransport,
    /// Host-initiated suspend: no further run calls are issued.
    pub paused: bool,
    pub started: SimTime,
    pub finished: Option<SimTime>,
    /// In-flight guest op per vCPU (for interrupted compute).
    pub cur_op: Vec<Option<(GuestOp, SimDuration)>>,
    /// Console writes so far (drives completion-interrupt modelling).
    pub console_writes: u64,
    /// Virtio devices ride the shared-memory fast path (virtqueues +
    /// I/O-plane thread) instead of exiting per kick.
    pub io_fastpath: bool,
    /// Per-vCPU pending elastic operation, consumed by the vCPU thread
    /// at its next run-call issue point (where the REC is guaranteed
    /// exited and rebinding is architecturally legal).
    pub pending_elastic: Vec<Option<crate::elastic::ElasticKind>>,
    /// Per-vCPU retired flag: `true` after an elastic scale-down until
    /// a scale-up revives the vCPU. Retired vCPUs' cores are already
    /// back in the planner's free pool.
    pub retired: Vec<bool>,
}

impl fmt::Debug for Vm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vm")
            .field("mode", &self.kvm.mode())
            .field("vcpus", &self.vcpus.len())
            .finish()
    }
}

/// The complete simulated system.
#[derive(Debug)]
pub struct System {
    pub(crate) config: SystemConfig,
    pub(crate) machine: Machine,
    pub(crate) rmm: Rmm,
    pub(crate) sched: Scheduler,
    pub(crate) planner: CorePlanner,
    pub(crate) queue: EventQueue<SystemEvent>,
    pub(crate) cores: Vec<CoreState>,
    pub(crate) vms: Vec<Vm>,
    pub(crate) threads: std::collections::HashMap<ThreadId, ThreadCtx>,
    /// The exit plane and the I/O plane, indexed by [`PlaneId`].
    pub(crate) planes: [Plane; 2],
    /// Attested inter-CVM channels established by
    /// [`System::connect_ivc`].
    pub(crate) ivc: Vec<IvcChannelRt>,
    pub(crate) metrics: Metrics,
    /// Accumulated leak observations from attacker probes.
    pub(crate) attack_report: cg_attacks::LeakReport,
    /// Seeded hostile-host fault injector. Inert (draws no randomness)
    /// when the configured [`cg_sim::FaultPlan`] is `none()`.
    pub(crate) fault: FaultInjector,
    /// The observation handle every instrumented subsystem was built
    /// with: structured records (see [`System::configure_trace`]) and
    /// spans (see [`System::attach_obs`]), both off by default.
    pub(crate) trace: TraceHandle,
    /// Periodic time-series sampler sink (disabled by default).
    pub(crate) timeseries: TimeSeries,
    /// Sampling period for [`crate::event::SystemEvent::ObsSample`].
    pub(crate) ts_period: SimDuration,
    /// Total host-core busy ns at the previous sample (for interval
    /// utilisation).
    pub(crate) ts_prev_busy: u64,
    /// Redirects the panic-time trace dump into a buffer instead of
    /// stderr (tests of the dump-on-failure path).
    pub(crate) strace_sink: Option<std::rc::Rc<std::cell::RefCell<String>>>,
    /// Fake realm-id counter for non-confidential VMs (used only as a
    /// unique domain tag).
    pub(crate) next_fake_realm: u32,
    /// core index → (vm, vcpu) for cores hosting guest vCPUs.
    pub(crate) core_vcpu: Vec<Option<(VmId, u32)>>,
    /// Queued elastic operations (rebind/retire/kill), executed
    /// strictly one at a time to preserve the planner's collision-free
    /// move ordering.
    pub(crate) elastic: VecDeque<crate::elastic::ElasticOp>,
    /// The elastic operation currently in flight, if any.
    pub(crate) elastic_inflight: Option<crate::elastic::ElasticOp>,
    /// Whether the periodic watchdog tick is armed (see
    /// [`System::arm_watchdog`]).
    pub(crate) watchdog_armed: bool,
    /// Runs every guest op as its own segment and every call timeout as
    /// a queued event: the reference the run-ahead tier and parked
    /// timeouts must match (see [`System::force_single_step`]).
    pub(crate) single_step: bool,
    /// The copy of a core's residency the run-ahead tier plans on, kept
    /// so each plan reuses its allocation.
    pub(crate) plan_residency: cg_machine::Residency,
}

impl System {
    /// Builds a system from the configuration.
    ///
    /// # Panics
    ///
    /// Panics on invalid hardware parameters or if fewer than one host
    /// core is reserved. Use [`System::try_new`] for a non-panicking
    /// variant.
    pub fn new(config: SystemConfig) -> System {
        System::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a system from the configuration, reporting configuration
    /// mistakes as a typed [`SystemError`] instead of panicking.
    pub fn try_new(config: SystemConfig) -> Result<System, SystemError> {
        if config.num_host_cores < 1 {
            return Err(SystemError::NoHostCores);
        }
        if config.num_host_cores >= config.machine.num_cores {
            return Err(SystemError::NoDedicableCores);
        }
        let trace = TraceHandle::disabled();
        let machine = Machine::with_trace(config.machine.clone(), trace.clone())?;
        let num_cores = machine.num_cores();
        let planner = CorePlanner::new((config.num_host_cores..num_cores).map(CoreId));
        let fault = FaultInjector::new(config.seed, config.fault.clone());
        Ok(System {
            fault,
            rmm: Rmm::with_trace(config.rmm.clone(), trace.clone()),
            sched: Scheduler::with_trace(trace.clone()),
            planner,
            queue: EventQueue::new(),
            cores: (0..num_cores).map(|_| CoreState::new()).collect(),
            vms: Vec::new(),
            threads: std::collections::HashMap::new(),
            planes: [
                Plane::new(
                    "wakeup",
                    CVM_EXIT_SGI,
                    [Counter::RpcDoorbellRings, Counter::RpcDoorbellIpis],
                    ThreadCont::WakeupScan,
                    ThreadCont::WakeupIdle,
                ),
                Plane::new(
                    "io",
                    IO_KICK_SGI,
                    [Counter::VirtioDoorbellRings, Counter::VirtioDoorbellIpis],
                    ThreadCont::IoPoll,
                    ThreadCont::IoIdle,
                ),
            ],
            ivc: Vec::new(),
            metrics: Metrics::new(num_cores),
            attack_report: cg_attacks::LeakReport::new(),
            trace,
            timeseries: TimeSeries::disabled(),
            ts_period: SimDuration::ZERO,
            ts_prev_busy: 0,
            strace_sink: None,
            next_fake_realm: 10_000,
            core_vcpu: vec![None; num_cores as usize],
            elastic: VecDeque::new(),
            elastic_inflight: None,
            watchdog_armed: false,
            single_step: false,
            plan_residency: cg_machine::Residency::default(),
            machine,
            config,
        })
    }

    /// Number of host threads currently tracked by the system. Exited
    /// vCPU threads are reaped, so a churn of spawning and finishing
    /// VMs keeps this bounded by the live set.
    pub fn live_threads(&self) -> usize {
        self.threads.len()
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Immutable access to system metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The accumulated leak observations from attacker probes
    /// ([`cg_workloads::GuestOp::Probe`]).
    pub fn attack_report(&self) -> &cg_attacks::LeakReport {
        &self.attack_report
    }

    /// Immutable access to the machine model.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Immutable access to the RMM.
    pub fn rmm(&self) -> &Rmm {
        &self.rmm
    }

    /// Immutable access to the core planner (placement, fragmentation).
    pub fn planner(&self) -> &cg_host::CorePlanner {
        &self.planner
    }

    /// The host cores (reserved, never dedicated).
    pub fn host_cores(&self) -> Vec<CoreId> {
        (0..self.config.num_host_cores).map(CoreId).collect()
    }

    /// Applies a [`TraceOptions`] bundle: the one entry point for
    /// enabling the structured trace (ring or full capture) and the
    /// panic-dump sink. The trace changes in place, so every subsystem
    /// records into it from now on, whenever it was created.
    ///
    /// ```
    /// use cg_core::{System, SystemConfig, TraceOptions};
    ///
    /// let mut system = System::new(SystemConfig::small());
    /// system.configure_trace(TraceOptions::new().structured_ring(1024));
    /// ```
    pub fn configure_trace(&mut self, options: TraceOptions) {
        if let Some(capacity) = options.structured {
            self.trace.keep_records(capacity);
        }
        if let Some(sink) = options.dump_sink {
            self.strace_sink = Some(sink);
        }
    }

    /// The structured trace handle (cheap clone; disabled unless a
    /// structured mode was configured).
    pub fn structured_trace(&self) -> TraceHandle {
        self.trace.clone()
    }

    /// Wake-up thread statistics `(doorbell activations, vCPUs woken)`,
    /// if a wake-up thread exists (i.e. a core-gapped VM with the
    /// async-IPI transport was added).
    pub fn wakeup_stats(&self) -> Option<(u64, u64)> {
        self.plane_stats(PlaneId::Exit)
    }

    /// I/O-plane thread statistics `(doorbell activations, descriptors
    /// serviced)`, if an I/O plane exists (i.e. a fast-path VM was
    /// added).
    pub fn io_stats(&self) -> Option<(u64, u64)> {
        self.plane_stats(PlaneId::Io)
    }

    fn plane_stats(&self, id: PlaneId) -> Option<(u64, u64)> {
        let thread = self.planes[id].thread.as_ref()?;
        Some((thread.activations(), thread.work()))
    }

    /// Combined ring statistics of inter-CVM channel `channel` (both
    /// directions merged), if the channel exists.
    pub fn ivc_ring_stats(&self, channel: u32) -> Option<cg_ivc::RingStats> {
        let rt = self.ivc.iter().find(|c| c.channel == channel)?;
        let (a, b) = (rt.a_to_b.ring.stats(), rt.b_to_a.ring.stats());
        Some(cg_ivc::RingStats {
            published: a.published + b.published,
            drained: a.drained + b.drained,
            doorbells: a.doorbells + b.doorbells,
            doorbells_suppressed: a.doorbells_suppressed + b.doorbells_suppressed,
        })
    }

    /// Run channels that look permanently wedged: the owning vCPU thread
    /// is still blocked awaiting a response, the channel is mid-protocol,
    /// and the call was issued more than `grace` ago. With recovery
    /// enabled this must be zero at the end of any fault-sweep
    /// configuration the retry budget can absorb; with recovery disabled
    /// a single dropped doorbell makes it non-zero forever.
    pub fn wedged_channels(&self, grace: SimDuration) -> usize {
        let now = self.now();
        let mut wedged = 0;
        for vm in &self.vms {
            for (i, rt) in vm.vcpus.iter().enumerate() {
                let awaiting = matches!(
                    self.threads.get(&rt.thread).map(|t| &t.cont),
                    Some(ThreadCont::VcpuAwait { .. })
                );
                if !awaiting {
                    continue;
                }
                if vm.run_channels[i].state() == cg_rpc::ChannelState::Idle {
                    continue;
                }
                match rt.call_issued_at {
                    Some(at) if now >= at + grace => wedged += 1,
                    _ => {}
                }
            }
        }
        wedged
    }

    /// Attaches an observability bundle: every subsystem records spans
    /// into its span store, and the sampler pushes into its time series,
    /// from now on. The span store is attached to the system's one
    /// observation handle in place; nothing is handed out again.
    ///
    /// Rebases both sinks to the current simulated time so sequential
    /// experiment runs (each of which restarts sim time at zero) lay out
    /// one after another on a single exported timeline. If the
    /// time-series handle is enabled, schedules the first periodic
    /// sample.
    pub fn attach_obs(&mut self, obs: &crate::obs::Obs) {
        obs.profiler.rebase();
        obs.timeseries.rebase();
        self.trace.attach_spans(&obs.profiler);
        self.timeseries = obs.timeseries.clone();
        self.ts_period = obs.sample_period;
        if self.timeseries.is_enabled() && !self.ts_period.is_zero() {
            self.queue.schedule_after(
                self.ts_period,
                SystemEvent::ObsSample {
                    period_ns: self.ts_period.as_nanos(),
                },
            );
        }
    }

    /// Pops the next event, stamping the observation handle's clock and
    /// recording the pop. All run loops drain the queue through this.
    fn pop_event(&mut self) -> Option<(SimTime, SystemEvent)> {
        let (t, ev) = self.queue.pop()?;
        self.trace.set_now(t);
        self.trace
            .record(TraceKind::EventPop, None, || format!("{ev:?}"));
        Some((t, ev))
    }

    /// The one event loop behind every `run_*` method: arms the
    /// panic-time trace dump, then handles events up to and including
    /// `deadline` until `stop` holds. Returns whether `stop` held when
    /// the loop ended.
    fn run_loop(&mut self, deadline: SimTime, stop: impl Fn(&System) -> bool) -> bool {
        let guard = TraceDumpGuard::new(self.trace.clone());
        let _dump = match &self.strace_sink {
            Some(sink) => guard.with_sink(sink.clone()),
            None => guard,
        };
        while let Some(t) = self.queue.peek_time() {
            if t > deadline || stop(self) {
                break;
            }
            let (_, ev) = self.pop_event().expect("peeked event vanished");
            self.handle(ev);
        }
        // Catch up with what single-stepping and the eager timeout
        // chains would have handled by now: everything up to the
        // deadline, or, when `stop` ended the loop early, everything
        // before the last event handled. That starts run-ahead units and
        // counts parked call-timeout fires. The last of them may be the
        // last event the reference path handles, so the clock moves to it.
        let stopped = stop(self);
        let (at, scheduled_at) = if stopped {
            (self.queue.now(), self.queue.last_scheduled_at())
        } else {
            (deadline, SimTime::MAX)
        };
        let units = self.settle_run_ahead(at, scheduled_at);
        let fires = self.settle_call_timeouts(at, scheduled_at);
        if let Some((t, s)) = units.max(fires) {
            if self.queue.note_pop(t, s) {
                self.trace.set_now(t);
            }
        }
        stopped
    }

    /// Runs the simulation until `deadline` (events at exactly
    /// `deadline` still fire).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_loop(deadline, |_| false);
        if self.queue.now() < deadline && self.queue.peek_time().is_none_or(|t| t > deadline) {
            self.queue.advance_to(deadline);
        }
    }

    /// Runs for `d` from the current time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    /// Runs until every VM's vCPUs have shut down, or `limit` passes.
    /// Returns `true` if all VMs finished.
    pub fn run_until_done(&mut self, limit: SimDuration) -> bool {
        let deadline = self.now() + limit;
        self.run_loop(deadline, |s| s.vms.iter().all(|vm| vm.kvm.all_finished()))
    }

    /// Produces the report for `vm`.
    pub fn vm_report(&self, vm: VmId) -> VmReport {
        let v = &self.vms[vm.0];
        let now = self.now();
        let end = v.finished.unwrap_or(now);
        let (total, irq) = self.vm_exits(vm);
        VmReport {
            stats: v.guest.stats(),
            exits_total: total,
            exits_interrupt: irq,
            started: v.started,
            finished: v.finished,
            elapsed: end.saturating_duration_since(v.started),
        }
    }

    /// `vm`'s `(total, interrupt-related)` exits: the RMM's per-REC
    /// counts for a confidential VM (the paper's methodology), KVM's
    /// otherwise.
    pub(crate) fn vm_exits(&self, vm: VmId) -> (u64, u64) {
        let kvm = &self.vms[vm.0].kvm;
        if !kvm.mode().is_confidential() {
            return (kvm.exits_total(), kvm.exits_interrupt());
        }
        (0..kvm.num_vcpus())
            .filter_map(|i| self.rmm.rec(kvm.rec(i)))
            .fold((0, 0), |(total, irq), rec| {
                (total + rec.exits_total(), irq + rec.exits_interrupt())
            })
    }

    /// The realm id backing `vm` (fake for non-confidential VMs).
    pub fn vm_realm(&self, vm: VmId) -> RealmId {
        self.vms[vm.0].kvm.realm()
    }

    /// Number of VMs ever added.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Number of VMs (ever added) running in `mode`.
    pub fn vms_mode_count(&self, mode: cg_host::VmExecMode) -> usize {
        self.vms.iter().filter(|v| v.kvm.mode() == mode).count()
    }

    /// Starts malicious-host harassment of `vm`'s vCPU `vcpu`: a kick
    /// every `period`, forcing exits at attacker-chosen moments (used by
    /// the security scenarios; denial of service is out of scope, but
    /// confidentiality must survive it).
    pub fn harass(&mut self, vm: VmId, vcpu: u32, period: SimDuration) {
        self.queue.schedule_after(
            period,
            SystemEvent::HarassTick {
                vm,
                vcpu,
                period_ns: period.as_nanos(),
            },
        );
    }

    /// Runs every guest op as its own segment and keeps every call
    /// timeout as a queued event (`true`), or lets the run-ahead tier
    /// batch plain compute and park the timeouts of `Serving` calls
    /// (`false`, the default). Both produce identical results; the
    /// single-step path is the reference tests compare the other against.
    /// Set it before running.
    #[doc(hidden)]
    pub fn force_single_step(&mut self, on: bool) {
        self.single_step = on;
    }

    /// Test hook: schedules `event` at `at` as if it had been scheduled
    /// at `as_of` (see [`cg_sim::EventQueue::schedule_as_of`]), so a test
    /// can land an interrupt on an exact unit boundary on either side of
    /// the tie rule.
    #[doc(hidden)]
    pub fn inject_event_as_of(&mut self, at: SimTime, as_of: SimTime, event: SystemEvent) {
        self.queue.schedule_as_of(at, as_of, event);
    }

    /// Test hook: the start and end of the segment in flight on `core`,
    /// if any. For guest compute this is the one unit in flight, on
    /// either execution tier.
    #[doc(hidden)]
    pub fn segment_in_flight(&self, core: CoreId) -> Option<(SimTime, SimTime)> {
        let cs = &self.cores[core.index()];
        cs.seg_token
            .map(|_| (cs.seg_started, cs.seg_started + cs.seg_wall))
    }

    /// Latency samples collected by `vm`'s network peer, if any.
    pub fn peer_samples(
        &self,
        vm: VmId,
    ) -> Option<std::collections::BTreeMap<String, cg_sim::Samples>> {
        self.vms[vm.0].peer.as_ref().map(|p| p.latency_samples())
    }

    /// Requests completed by `vm`'s peer (0 without a counting peer).
    pub fn peer_completed(&self, vm: VmId) -> u64 {
        self.vms[vm.0]
            .peer
            .as_ref()
            .map(|p| p.completed())
            .unwrap_or(0)
    }

    /// Runs until `vm`'s peer reports completion, or `limit` passes.
    /// Returns `true` if the peer finished.
    pub fn run_until_peer_done(&mut self, vm: VmId, limit: SimDuration) -> bool {
        let deadline = self.now() + limit;
        self.run_loop(deadline, |s| {
            s.vms[vm.0].peer.as_ref().is_some_and(|p| p.is_done())
        })
    }
}

impl Drop for System {
    /// Closes the tracked in-flight spans a truncated run leaves open —
    /// scheduler slices, exit round trips, exit handling. A run that
    /// stops at a time limit (or the instant the last vCPU shuts down)
    /// legitimately strands these mid-flight; closing them from their
    /// tracked state means the unbalanced-span tripwire
    /// ([`cg_sim::Profiler::open_count`]) only counts genuinely leaked
    /// spans.
    fn drop(&mut self) {
        self.sched.finish_open_slices();
        for vm in &mut self.vms {
            for rt in &mut vm.vcpus {
                self.trace.end(std::mem::take(&mut rt.roundtrip_span));
                self.trace.end(std::mem::take(&mut rt.handle_span));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VmSpec;
    use cg_sim::SimDuration;
    use cg_workloads::coremark::CoremarkPro;
    use cg_workloads::kernel::GuestKernel;

    fn cpu_guest(vcpus: u32) -> Box<GuestKernel> {
        Box::new(GuestKernel::new(
            vcpus,
            250,
            Box::new(CoremarkPro::new(vcpus, SimDuration::micros(100))),
        ))
    }

    #[test]
    fn construction_reserves_host_cores() {
        let system = System::new(SystemConfig::small());
        assert_eq!(system.host_cores(), vec![CoreId(0)]);
        assert_eq!(system.vm_count(), 0);
        assert_eq!(system.now(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one host core")]
    fn zero_host_cores_rejected() {
        let mut config = SystemConfig::small();
        config.num_host_cores = 0;
        System::new(config);
    }

    #[test]
    #[should_panic(expected = "dedicable core")]
    fn all_cores_host_rejected() {
        let mut config = SystemConfig::small();
        config.num_host_cores = config.machine.num_cores;
        System::new(config);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut system = System::new(SystemConfig::small());
        system.run_until(SimTime::from_nanos(5_000));
        assert_eq!(system.now(), SimTime::from_nanos(5_000));
    }

    #[test]
    fn run_for_is_cumulative() {
        let mut system = System::new(SystemConfig::small());
        system
            .add_vm(VmSpec::core_gapped(1), cpu_guest(1), None)
            .unwrap();
        system.run_for(SimDuration::millis(5));
        system.run_for(SimDuration::millis(5));
        assert_eq!(system.now(), SimTime::ZERO + SimDuration::millis(10));
    }

    #[test]
    fn trace_records_exits_and_entries() {
        let mut system = System::new(SystemConfig::small());
        system.configure_trace(TraceOptions::new().structured_capture());
        let guest = Box::new(
            GuestKernel::new(
                1,
                250,
                Box::new(CoremarkPro::new(1, SimDuration::micros(100))),
            )
            .with_console_writes(SimDuration::millis(5)),
        );
        let spec = VmSpec::core_gapped(1).with_device(cg_host::DeviceKind::VirtioNet);
        system.add_vm(spec, guest, None).unwrap();
        system.run_for(SimDuration::millis(30));
        let rpc: Vec<_> = system
            .structured_trace()
            .snapshot()
            .into_iter()
            .filter(|r| r.kind == TraceKind::Rpc && r.realm.is_none())
            .collect();
        for what in ["run.exit vm0.vcpu0 ", "run.enter vm0.vcpu0"] {
            let hit = rpc.iter().find(|r| r.detail.starts_with(what));
            let hit = hit.unwrap_or_else(|| panic!("no {what:?} record in {rpc:#?}"));
            assert!(hit.core.is_some_and(|c| c >= 1), "{hit}");
        }
    }

    #[test]
    fn zero_vcpu_vm_rejected() {
        let mut system = System::new(SystemConfig::small());
        let err = system
            .add_vm(VmSpec::core_gapped(0), cpu_guest(1), None)
            .unwrap_err();
        assert_eq!(err, crate::error::SystemError::ZeroVcpus);
        assert!(err.to_string().contains("at least one vCPU"));
    }

    #[test]
    fn mode_mismatch_rejected() {
        // A core-gapped VM needs a core-gapping RMM...
        let mut config = SystemConfig::small();
        config.rmm = cg_rmm::RmmConfig::shared_core();
        let mut system = System::new(config);
        assert!(system
            .add_vm(VmSpec::core_gapped(1), cpu_guest(1), None)
            .is_err());
        // ...and a shared-core CVM needs a shared-core RMM.
        let mut system = System::new(SystemConfig::small());
        assert!(system
            .add_vm(VmSpec::shared_core_confidential(1), cpu_guest(1), None)
            .is_err());
    }

    #[test]
    fn busywait_and_async_transports_make_equal_progress_uncontended() {
        let run = |busywait: bool| {
            let mut system = System::new(SystemConfig::small());
            let spec = if busywait {
                VmSpec::core_gapped(2).with_busy_wait()
            } else {
                VmSpec::core_gapped(2)
            };
            let vm = system.add_vm(spec, cpu_guest(2), None).unwrap();
            system.run_for(SimDuration::millis(100));
            system
                .vm_report(vm)
                .stats
                .counters
                .get("coremark.total_iterations")
        };
        let a = run(false);
        let b = run(true);
        let rel = (a as f64 - b as f64).abs() / a as f64;
        assert!(rel < 0.02, "async {a} vs busywait {b}");
    }

    #[test]
    fn host_utilization_is_low_for_delegated_cpu_work() {
        let mut system = System::new(SystemConfig::small());
        system
            .add_vm(VmSpec::core_gapped(4), cpu_guest(4), None)
            .unwrap();
        system.run_for(SimDuration::millis(200));
        let util = system
            .metrics()
            .host_utilization(0, SimDuration::millis(200));
        assert!(util < 0.05, "host util {util}");
    }
}
