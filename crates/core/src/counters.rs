//! The system's counters: one typed id per count, named only at export.
//!
//! One table below declares every counter the *system* increments, once:
//! a [`Counter`] id with its name, plane and one-line description in
//! [`REGISTRY`]. [`Metrics::counters`](crate::Metrics::counters) is a
//! [`SystemCounters`], a fixed array indexed by id, so an increment is
//! an array add and a counter that is not registered does not compile.
//! Names are used only at export: [`SystemCounters::get`] and
//! [`SystemCounters::iter`] (the fingerprint and reports), and
//! [`group_by_plane`]. Guest workload statistics keep their free-form
//! names in [`cg_sim::Counters`].

use cg_host::ShedReason;
use std::ops::Index;

/// The execution plane a counter measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CounterPlane {
    /// Cross-core run-call RPC: channels, doorbells, retries, wake-ups.
    Rpc,
    /// Shared-memory virtio fast path: rings, kicks, completions.
    Virtio,
    /// Inter-CVM channels: publishes, doorbells, drains.
    Ivc,
    /// RMM-side work: REC entries, delegation, IVC policy.
    Rmm,
    /// Host OS / KVM / device plumbing outside the planes above.
    Host,
    /// Fault-injection outcomes (what the fault plan actually did).
    Fault,
    /// Attack and measurement machinery.
    Attack,
    /// Guest workload progress counters.
    Workload,
    /// Everything else (setup, lifecycle, kernel ticks).
    System,
}

impl CounterPlane {
    /// Every plane, in report order.
    pub const ALL: [CounterPlane; 9] = [
        CounterPlane::Rpc,
        CounterPlane::Virtio,
        CounterPlane::Ivc,
        CounterPlane::Rmm,
        CounterPlane::Host,
        CounterPlane::Fault,
        CounterPlane::Attack,
        CounterPlane::Workload,
        CounterPlane::System,
    ];

    /// Stable lower-case label used in exports.
    pub fn name(self) -> &'static str {
        match self {
            CounterPlane::Rpc => "rpc",
            CounterPlane::Virtio => "virtio",
            CounterPlane::Ivc => "ivc",
            CounterPlane::Rmm => "rmm",
            CounterPlane::Host => "host",
            CounterPlane::Fault => "fault",
            CounterPlane::Attack => "attack",
            CounterPlane::Workload => "workload",
            CounterPlane::System => "system",
        }
    }
}

/// One registered counter: its name, plane, and meaning.
#[derive(Debug, Clone, Copy)]
pub struct CounterDef {
    /// The name the counter exports under.
    pub name: &'static str,
    /// The plane the counter measures.
    pub plane: CounterPlane,
    /// One-line description.
    pub help: &'static str,
}

/// Declares the [`Counter`] ids and the [`REGISTRY`] row of each, in one
/// table: `Id = "name", Plane, "help";`, sorted by name.
macro_rules! registry {
    ($($id:ident = $name:literal, $plane:ident, $help:literal;)*) => {
        /// A registered system counter: its index in [`REGISTRY`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $(#[doc = $help] $id,)*
        }

        /// Every counter the system increments, sorted by name and
        /// indexed by [`Counter`].
        pub static REGISTRY: &[CounterDef] = &[
            $(CounterDef { name: $name, plane: CounterPlane::$plane, help: $help },)*
        ];

        const COUNT: usize = [$(Counter::$id),*].len();
    };
}

registry! {
    AttackProbes = "attack.probes", Attack, "microarchitectural probe measurements taken";
    ChanAborts = "chan.aborts", Rpc, "run-call channels force-reset on teardown";
    DefragMoves = "defrag.moves", Host, "vCPU relocations queued by defragmentation passes";
    DefragPasses = "defrag.passes", Host, "defragmentation passes run";
    DefragSkipped = "defrag.skipped", Host,
        "defragmentation ticks skipped behind pending elastic work";
    ElasticAbandoned = "elastic.abandoned", Host,
        "elastic operations dropped because the vCPU finished mid-flight";
    ElasticEvacuations = "elastic.evacuations", Host,
        "VMs queued for retire-to-zero ahead of a migration";
    ElasticKills = "elastic.kills", Host, "vCPUs force-finished by a VM shutdown";
    ElasticRebinds = "elastic.rebinds", Host, "live vCPU rebinds to a new dedicated core";
    ElasticRetires = "elastic.retires", Host, "vCPUs retired by a scale-down";
    ElasticScaleDowns = "elastic.scale_downs", Host, "VM resizes that shrank the vCPU count";
    ElasticScaleUps = "elastic.scale_ups", Host, "VM resizes that grew the vCPU count";
    ElasticShutdowns = "elastic.shutdowns", Host, "VM shutdowns initiated";
    ElasticSkipped = "elastic.skipped", Host, "queued elastic operations found stale and dropped";
    ElasticWatchdogRecovered = "elastic.watchdog_recovered", Host,
        "stalled elastic kicks re-sent by the watchdog";
    FaultCompletionIrqDropped = "fault.completion_irq_dropped", Fault,
        "delegated completion interrupts eaten after the used-ring post";
    FaultDoorbellDelayed = "fault.doorbell_delayed", Fault, "exit doorbell IPIs delayed in flight";
    FaultDoorbellDropped = "fault.doorbell_dropped", Fault,
        "exit doorbell IPIs lost after the latch was set";
    FaultFrontendStalls = "fault.frontend_stalls", Fault,
        "serving front-end stall windows injected";
    FaultHostStalls = "fault.host_stalls", Fault, "host-side scheduling stalls injected";
    FaultIvcDoorbellDropped = "fault.ivc_doorbell_dropped", Fault,
        "inter-CVM doorbell SPIs dropped";
    FaultIvcDoorbellDuplicated = "fault.ivc_doorbell_duplicated", Fault,
        "inter-CVM doorbell SPIs delivered twice";
    FaultIvcDoorbellForged = "fault.ivc_doorbell_forged", Fault,
        "inter-CVM doorbell SPIs misrouted to a non-endpoint";
    FaultRebindInterrupted = "fault.rebind_interrupted", Fault,
        "elastic rebind/retire kicks lost in flight";
    FaultRequestBursts = "fault.request_bursts", Fault,
        "request-burst arrivals injected at the front-end";
    FaultRequestWedged = "fault.request_wedged", Fault, "run-request poll notices suppressed";
    FaultResponseDelayed = "fault.response_delayed", Fault,
        "response cache-line visibility held back";
    FleetAdmitted = "fleet.admitted", Host, "requests admitted by the serving front-end";
    FleetCompleted = "fleet.completed", Host, "admitted requests whose response reached the sink";
    FleetLatencyTotalUs = "fleet.latency_total_us", Host, "sum of completed-request latencies (µs)";
    FleetMigrations = "fleet.migrations", Host, "tenants live-migrated by the rebalancer";
    FleetMigrationsAborted = "fleet.migrations_aborted", Host,
        "rebalancing migrations aborted and resumed on source";
    FleetMigrationsFailed = "fleet.migrations_failed", Host,
        "rebalancing migrations refused outright";
    FleetOffered = "fleet.offered", Host, "requests offered to the serving front-end";
    FleetResizeDown = "fleet.resize_down", Host, "elastic scale-downs applied by the SLO tracker";
    FleetResizeUp = "fleet.resize_up", Host, "elastic scale-ups applied by the SLO tracker";
    FleetShed = "fleet.shed", Host, "requests shed by the front-end (all reasons)";
    FleetShedBackpressure = "fleet.shed.backpressure", Host,
        "requests shed to node-wide ring backpressure";
    FleetShedFrontendStalled = "fleet.shed.frontend_stalled", Host,
        "requests dropped during an injected front-end stall";
    FleetShedQueueFull = "fleet.shed.queue_full", Host,
        "requests shed at the tenant queue-depth cap";
    FleetShedRateLimited = "fleet.shed.rate_limited", Host,
        "requests shed by the tenant token bucket";
    FleetShedTenantUnavailable = "fleet.shed.tenant_unavailable", Host,
        "requests shed during a tenant migration blackout";
    FleetSloMet = "fleet.slo_met", Host, "completions within the tenant's latency SLO";
    FleetSloMissed = "fleet.slo_missed", Host, "completions past the tenant's latency SLO";
    GuestDirtyWrites = "guest.dirty_writes", Workload,
        "guest writes logged by dirty-granule tracking";
    HostFixupGranules = "host.fixup_granules", Host,
        "host granules allocated for stage-2 fault fixups";
    HostHarassKicks = "host.harass_kicks", Host, "malicious-host forced-exit kicks";
    HostKicks = "host.kicks", Host, "vCPU kicks issued by the host";
    HostMapShared = "host.map_shared", Host, "unprotected (shared) pages mapped for the guest";
    IoPollEmpty = "io.poll_empty", Virtio, "I/O-thread poll iterations that found no work";
    IoPolls = "io.polls", Virtio, "I/O-thread poll iterations";
    IoSuspendRaces = "io.suspend_races", Virtio, "I/O-thread suspend decisions raced by new work";
    IoWatchdogKicks = "io.watchdog_kicks", Virtio, "I/O threads re-activated by the watchdog";
    IoWatchdogRecovered = "io.watchdog_recovered", Virtio,
        "stranded used-ring completions re-announced";
    IoWatchdogScans = "io.watchdog_scans", Virtio, "I/O watchdog rescans";
    IpiDelivered = "ipi.delivered", Host, "IPIs delivered";
    IvcDoorbellsRejected = "ivc.doorbells_rejected", Ivc,
        "forged inter-CVM doorbells rejected by the RMM";
    IvcDoorbellsSent = "ivc.doorbells_sent", Ivc, "inter-CVM doorbell SPIs rung";
    IvcDoorbellsSuppressed = "ivc.doorbells_suppressed", Ivc,
        "inter-CVM doorbells coalesced by the decision window";
    IvcMessagesDrained = "ivc.messages_drained", Ivc, "inter-CVM messages drained by consumers";
    IvcMessagesSent = "ivc.messages_sent", Ivc, "inter-CVM messages published";
    IvcRingFull = "ivc.ring_full", Ivc, "inter-CVM publishes dropped to backpressure";
    IvcSendUnconnected = "ivc.send_unconnected", Ivc,
        "sends on channels the vCPU is no endpoint of";
    IvcWatchdogRecovered = "ivc.watchdog_recovered", Ivc, "stranded inter-CVM rings re-rung";
    MigrateAborted = "migrate.aborted", System, "migrations aborted and resumed on the source";
    MigrateCompleted = "migrate.completed", System, "live migrations completed";
    MigrateFramesRetransmitted = "migrate.frames_retransmitted", System,
        "pre-copy frames re-sent after link drops";
    MigrateGranulesPrecopy = "migrate.granules_precopy", System,
        "granules shipped during pre-copy rounds";
    MigrateGranulesStopcopy = "migrate.granules_stopcopy", System,
        "granules shipped during stop-and-copy";
    MigrateImportsRejected = "migrate.imports_rejected", System,
        "migration blobs the destination RMM refused";
    MigrateRounds = "migrate.rounds", System, "pre-copy rounds run";
    MigrateRoundsStalled = "migrate.rounds_stalled", System, "pre-copy rounds hit by a link stall";
    MigrateVmsIn = "migrate.vms_in", System, "VMs received by live migration";
    NetNapiRx = "net.napi_rx", Host, "inbound packets picked up by NAPI polling";
    NetSriovTx = "net.sriov_tx", Host, "packets sent directly via an SR-IOV VF";
    RmmDelegatedIpiSent = "rmm.delegated_ipi_sent", Rmm,
        "realm-to-realm IPIs sent without host transit";
    RmmRecEnter = "rmm.rec_enter", Rmm, "REC_ENTER calls on the dedicated cores";
    RmmResponseReposts = "rmm.response_reposts", Rmm, "response visibility refreshes on retry";
    RpcDoorbellIpis = "rpc.doorbell_ipis", Rpc, "exit doorbell IPIs actually sent";
    RpcDoorbellRings = "rpc.doorbell_rings", Rpc, "exit doorbell ring attempts (pre-coalescing)";
    RpcRetries = "rpc.retries", Rpc, "run-call retry decisions";
    RpcRetriesExhausted = "rpc.retries_exhausted", Rpc,
        "retry budgets exhausted (escalated to sync)";
    RpcRunCalls = "rpc.run_calls", Rpc, "asynchronous run calls issued";
    RpcStaleRunNotice = "rpc.stale_run_notice", Rpc, "duplicate/stale run-request notices dropped";
    RpcTimeoutServing = "rpc.timeout_serving", Rpc,
        "call timeouts that found the guest still executing";
    RpcTimeoutStale = "rpc.timeout_stale", Rpc, "call timeouts that arrived after completion";
    SetupIvcChannels = "setup.ivc_channels", System, "inter-CVM channels established";
    SetupRmiCalls = "setup.rmi_calls", System, "RMI calls issued while building realms";
    SetupSpis = "setup.spis", System, "device SPIs allocated";
    SetupVirtqueues = "setup.virtqueues", System, "fast-path virtqueue pairs set up";
    SystemPauses = "system.pauses", System, "VM lifecycle pauses";
    SystemResumes = "system.resumes", System, "VM lifecycle resumes";
    SystemVmsDestroyed = "system.vms_destroyed", System, "VMs torn down";
    SystemVmsImported = "system.vms_imported", System, "VMs admitted from a migration import";
    VirtioCompletions = "virtio.completions", Virtio, "used-ring completions posted";
    VirtioDiskFast = "virtio.disk_fast", Virtio,
        "block requests published on the fast-path virtqueue";
    VirtioDoorbellIpis = "virtio.doorbell_ipis", Virtio,
        "fast-path kick doorbell IPIs actually sent";
    VirtioDoorbellRings = "virtio.doorbell_rings", Virtio,
        "fast-path kick ring attempts (pre-coalescing)";
    VirtioIrqs = "virtio.irqs", Virtio, "delegated completion interrupts raised";
    VirtioIrqsSuppressed = "virtio.irqs_suppressed", Virtio,
        "completion interrupts suppressed by EVENT_IDX";
    VirtioKicks = "virtio.kicks", Virtio, "submission kicks that rang the doorbell";
    VirtioKicksSuppressed = "virtio.kicks_suppressed", Virtio,
        "submission kicks coalesced by EVENT_IDX";
    VirtioRingFull = "virtio.ring_full", Virtio, "fast-path publishes bounced to the exit path";
    VirtioTxFast = "virtio.tx_fast", Virtio, "packets published on the fast-path virtqueue";
    WakeupWatchdogRecovered = "wakeup.watchdog_recovered", Rpc,
        "stranded posted exits found by the watchdog";
    WakeupWatchdogScans = "wakeup.watchdog_scans", Rpc, "wake-up watchdog rescans";
}

// One presence bit per counter.
const _: () = assert!(COUNT <= 128);

impl Counter {
    /// The name the counter exports under.
    pub fn name(self) -> &'static str {
        REGISTRY[self as usize].name
    }

    /// The counter a request shed for `reason` bumps.
    pub fn shed(reason: ShedReason) -> Counter {
        match reason {
            ShedReason::RateLimited => Counter::FleetShedRateLimited,
            ShedReason::QueueFull => Counter::FleetShedQueueFull,
            ShedReason::Backpressure => Counter::FleetShedBackpressure,
            ShedReason::FrontendStalled => Counter::FleetShedFrontendStalled,
            ShedReason::TenantUnavailable => Counter::FleetShedTenantUnavailable,
        }
    }
}

/// The system's counter values, indexed by [`Counter`]. A counter is
/// present once anything adds to it, even 0, and only present counters
/// export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemCounters {
    values: [u64; COUNT],
    present: u128,
}

impl Default for SystemCounters {
    fn default() -> SystemCounters {
        SystemCounters {
            values: [0; COUNT],
            present: 0,
        }
    }
}

impl SystemCounters {
    /// Creates an empty counter set.
    pub fn new() -> SystemCounters {
        SystemCounters::default()
    }

    /// Adds `n` to `id`, making it present.
    pub fn add(&mut self, id: Counter, n: u64) {
        self.values[id as usize] += n;
        self.present |= 1 << id as u32;
    }

    /// Adds one to `id`.
    pub fn incr(&mut self, id: Counter) {
        self.add(id, 1);
    }

    /// The value of the counter named `name`; 0 if it is absent or not
    /// registered.
    pub fn get(&self, name: &str) -> u64 {
        REGISTRY
            .binary_search_by(|d| d.name.cmp(name))
            .map_or(0, |i| self.values[i])
    }

    /// The present counters with their registry rows, in name order.
    fn entries(&self) -> impl Iterator<Item = (&'static CounterDef, u64)> + '_ {
        REGISTRY
            .iter()
            .zip(self.values)
            .enumerate()
            .filter(|&(i, _)| self.present >> i & 1 == 1)
            .map(|(_, entry)| entry)
    }

    /// Iterates over the present `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.entries().map(|(d, v)| (d.name, v))
    }

    /// Merges another counter set into this one: values sum, and a
    /// counter present in either is present in the result.
    pub fn merge(&mut self, other: &SystemCounters) {
        for (v, o) in self.values.iter_mut().zip(other.values) {
            *v += o;
        }
        self.present |= other.present;
    }
}

impl Index<Counter> for SystemCounters {
    type Output = u64;

    fn index(&self, id: Counter) -> &u64 {
        &self.values[id as usize]
    }
}

/// Groups the present counters by plane, preserving name order within
/// each plane and plane order per [`CounterPlane::ALL`]. Planes with no
/// counters are omitted.
pub fn group_by_plane(counters: &SystemCounters) -> Vec<(CounterPlane, Vec<(&str, u64)>)> {
    let mut groups: Vec<(CounterPlane, Vec<(&str, u64)>)> = Vec::new();
    for plane in CounterPlane::ALL {
        let entries: Vec<(&str, u64)> = counters
            .entries()
            .filter(|(d, _)| d.plane == plane)
            .map(|(d, v)| (d.name, v))
            .collect();
        if !entries.is_empty() {
            groups.push((plane, entries));
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    #[test]
    fn registry_is_sorted_and_unique() {
        for w in REGISTRY.windows(2) {
            assert!(
                w[0].name < w[1].name,
                "registry out of order at {} / {}",
                w[0].name,
                w[1].name
            );
        }
    }

    #[test]
    fn ids_name_their_registry_rows() {
        assert_eq!(Counter::RpcRetries.name(), "rpc.retries");
        assert_eq!(
            REGISTRY[Counter::RpcRetries as usize].plane,
            CounterPlane::Rpc
        );
    }

    #[test]
    fn grouping_partitions_all_counters() {
        let mut c = SystemCounters::new();
        c.incr(Counter::RpcRetries);
        c.incr(Counter::VirtioKicks);
        c.incr(Counter::IvcMessagesSent);
        c.incr(Counter::GuestDirtyWrites);
        let groups = group_by_plane(&c);
        let total: usize = groups.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, 4);
        assert_eq!(groups[0].0, CounterPlane::Rpc);
        assert!(groups
            .iter()
            .any(|(p, v)| *p == CounterPlane::Workload && v[0].0 == "guest.dirty_writes"));
    }

    /// Adding 0 makes a counter present to `iter`, `get` and the
    /// fingerprint; `iter` yields name order; an unregistered name
    /// reads 0; `merge` sums counts and keeps presence.
    #[test]
    fn store_keeps_presence_name_order_and_sums() {
        let mut m = Metrics::new(1);
        let empty = m.fingerprint();
        m.counters.add(Counter::MigrateRoundsStalled, 0);
        assert_ne!(m.fingerprint(), empty);
        let mut other = SystemCounters::new();
        other.add(Counter::RpcRetries, 2);
        other.add(Counter::AttackProbes, 0);
        m.counters.merge(&other);
        m.counters.incr(Counter::RpcRetries);
        assert_eq!(
            m.counters.iter().collect::<Vec<_>>(),
            [
                ("attack.probes", 0),
                ("migrate.rounds_stalled", 0),
                ("rpc.retries", 3)
            ]
        );
        assert_eq!(m.counters.get("rpc.retries"), 3);
        assert_eq!(m.counters.get("migrate.rounds_stalled"), 0);
        assert_eq!(m.counters.get("redis.served"), 0);
    }
}
