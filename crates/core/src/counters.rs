//! Typed registry of the system's named counters.
//!
//! The simulation increments flat string-keyed [`cg_sim::Counters`] all
//! over the codebase. This module is the single place that knows what
//! those names *mean*: which execution plane each counter belongs to
//! and a one-line description. Reports group their counter exports by
//! plane through [`group_by_plane`], and a test drives one system per
//! plane and fails on any system counter missing from [`REGISTRY`].
//!
//! Counters not listed here still work — workloads mint ad-hoc names —
//! and [`plane_of`] files them under [`CounterPlane::Workload`].

use cg_sim::Counters;

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
    /// The exact key passed to [`cg_sim::Counters::incr`].
    pub name: &'static str,
    /// The plane the counter measures.
    pub plane: CounterPlane,
    /// One-line description.
    pub help: &'static str,
}

const fn def(name: &'static str, plane: CounterPlane, help: &'static str) -> CounterDef {
    CounterDef { name, plane, help }
}

/// The registry: every counter the *system* (as opposed to ad-hoc
/// workload code) increments, sorted by name.
pub static REGISTRY: &[CounterDef] = &[
    def(
        "attack.probes",
        CounterPlane::Attack,
        "microarchitectural probe measurements taken",
    ),
    def(
        "chan.aborts",
        CounterPlane::Rpc,
        "run-call channels force-reset on teardown",
    ),
    def(
        "defrag.moves",
        CounterPlane::Host,
        "vCPU relocations queued by defragmentation passes",
    ),
    def(
        "defrag.passes",
        CounterPlane::Host,
        "defragmentation passes run",
    ),
    def(
        "defrag.skipped",
        CounterPlane::Host,
        "defragmentation ticks skipped behind pending elastic work",
    ),
    def(
        "elastic.abandoned",
        CounterPlane::Host,
        "elastic operations dropped because the vCPU finished mid-flight",
    ),
    def(
        "elastic.evacuations",
        CounterPlane::Host,
        "VMs queued for retire-to-zero ahead of a migration",
    ),
    def(
        "elastic.kills",
        CounterPlane::Host,
        "vCPUs force-finished by a VM shutdown",
    ),
    def(
        "elastic.rebinds",
        CounterPlane::Host,
        "live vCPU rebinds to a new dedicated core",
    ),
    def(
        "elastic.retires",
        CounterPlane::Host,
        "vCPUs retired by a scale-down",
    ),
    def(
        "elastic.scale_downs",
        CounterPlane::Host,
        "VM resizes that shrank the vCPU count",
    ),
    def(
        "elastic.scale_ups",
        CounterPlane::Host,
        "VM resizes that grew the vCPU count",
    ),
    def(
        "elastic.shutdowns",
        CounterPlane::Host,
        "VM shutdowns initiated",
    ),
    def(
        "elastic.skipped",
        CounterPlane::Host,
        "queued elastic operations found stale and dropped",
    ),
    def(
        "elastic.watchdog_recovered",
        CounterPlane::Host,
        "stalled elastic kicks re-sent by the watchdog",
    ),
    def(
        "fault.completion_irq_dropped",
        CounterPlane::Fault,
        "delegated completion interrupts eaten after the used-ring post",
    ),
    def(
        "fault.doorbell_delayed",
        CounterPlane::Fault,
        "exit doorbell IPIs delayed in flight",
    ),
    def(
        "fault.doorbell_dropped",
        CounterPlane::Fault,
        "exit doorbell IPIs lost after the latch was set",
    ),
    def(
        "fault.frontend_stalls",
        CounterPlane::Fault,
        "serving front-end stall windows injected",
    ),
    def(
        "fault.host_stalls",
        CounterPlane::Fault,
        "host-side scheduling stalls injected",
    ),
    def(
        "fault.ivc_doorbell_dropped",
        CounterPlane::Fault,
        "inter-CVM doorbell SPIs dropped",
    ),
    def(
        "fault.ivc_doorbell_duplicated",
        CounterPlane::Fault,
        "inter-CVM doorbell SPIs delivered twice",
    ),
    def(
        "fault.ivc_doorbell_forged",
        CounterPlane::Fault,
        "inter-CVM doorbell SPIs misrouted to a non-endpoint",
    ),
    def(
        "fault.rebind_interrupted",
        CounterPlane::Fault,
        "elastic rebind/retire kicks lost in flight",
    ),
    def(
        "fault.request_bursts",
        CounterPlane::Fault,
        "request-burst arrivals injected at the front-end",
    ),
    def(
        "fault.request_wedged",
        CounterPlane::Fault,
        "run-request poll notices suppressed",
    ),
    def(
        "fault.response_delayed",
        CounterPlane::Fault,
        "response cache-line visibility held back",
    ),
    def(
        "fleet.admitted",
        CounterPlane::Host,
        "requests admitted by the serving front-end",
    ),
    def(
        "fleet.completed",
        CounterPlane::Host,
        "admitted requests whose response reached the sink",
    ),
    def(
        "fleet.latency_total_us",
        CounterPlane::Host,
        "sum of completed-request latencies (µs)",
    ),
    def(
        "fleet.migrations",
        CounterPlane::Host,
        "tenants live-migrated by the rebalancer",
    ),
    def(
        "fleet.migrations_aborted",
        CounterPlane::Host,
        "rebalancing migrations aborted and resumed on source",
    ),
    def(
        "fleet.migrations_failed",
        CounterPlane::Host,
        "rebalancing migrations refused outright",
    ),
    def(
        "fleet.offered",
        CounterPlane::Host,
        "requests offered to the serving front-end",
    ),
    def(
        "fleet.resize_down",
        CounterPlane::Host,
        "elastic scale-downs applied by the SLO tracker",
    ),
    def(
        "fleet.resize_up",
        CounterPlane::Host,
        "elastic scale-ups applied by the SLO tracker",
    ),
    def(
        "fleet.shed",
        CounterPlane::Host,
        "requests shed by the front-end (all reasons)",
    ),
    def(
        "fleet.shed.backpressure",
        CounterPlane::Host,
        "requests shed to node-wide ring backpressure",
    ),
    def(
        "fleet.shed.frontend_stalled",
        CounterPlane::Host,
        "requests dropped during an injected front-end stall",
    ),
    def(
        "fleet.shed.queue_full",
        CounterPlane::Host,
        "requests shed at the tenant queue-depth cap",
    ),
    def(
        "fleet.shed.rate_limited",
        CounterPlane::Host,
        "requests shed by the tenant token bucket",
    ),
    def(
        "fleet.shed.tenant_unavailable",
        CounterPlane::Host,
        "requests shed during a tenant migration blackout",
    ),
    def(
        "fleet.slo_met",
        CounterPlane::Host,
        "completions within the tenant's latency SLO",
    ),
    def(
        "fleet.slo_missed",
        CounterPlane::Host,
        "completions past the tenant's latency SLO",
    ),
    def(
        "guest.dirty_writes",
        CounterPlane::Workload,
        "guest writes logged by dirty-granule tracking",
    ),
    def(
        "host.fixup_granules",
        CounterPlane::Host,
        "host granules allocated for stage-2 fault fixups",
    ),
    def(
        "host.harass_kicks",
        CounterPlane::Host,
        "malicious-host forced-exit kicks",
    ),
    def(
        "host.kicks",
        CounterPlane::Host,
        "vCPU kicks issued by the host",
    ),
    def(
        "host.map_shared",
        CounterPlane::Host,
        "unprotected (shared) pages mapped for the guest",
    ),
    def(
        "io.poll_empty",
        CounterPlane::Virtio,
        "I/O-thread poll iterations that found no work",
    ),
    def(
        "io.polls",
        CounterPlane::Virtio,
        "I/O-thread poll iterations",
    ),
    def(
        "io.suspend_races",
        CounterPlane::Virtio,
        "I/O-thread suspend decisions raced by new work",
    ),
    def(
        "io.watchdog_kicks",
        CounterPlane::Virtio,
        "I/O threads re-activated by the watchdog",
    ),
    def(
        "io.watchdog_recovered",
        CounterPlane::Virtio,
        "stranded used-ring completions re-announced",
    ),
    def(
        "io.watchdog_scans",
        CounterPlane::Virtio,
        "I/O watchdog rescans",
    ),
    def("ipi.delivered", CounterPlane::Host, "IPIs delivered"),
    def("ipi.received", CounterPlane::Host, "IPIs acknowledged"),
    def("ipi.sent", CounterPlane::Host, "IPIs sent"),
    def(
        "ivc.doorbells_rejected",
        CounterPlane::Ivc,
        "forged inter-CVM doorbells rejected by the RMM",
    ),
    def(
        "ivc.doorbells_sent",
        CounterPlane::Ivc,
        "inter-CVM doorbell SPIs rung",
    ),
    def(
        "ivc.doorbells_suppressed",
        CounterPlane::Ivc,
        "inter-CVM doorbells coalesced by the decision window",
    ),
    def(
        "ivc.messages_drained",
        CounterPlane::Ivc,
        "inter-CVM messages drained by consumers",
    ),
    def(
        "ivc.messages_sent",
        CounterPlane::Ivc,
        "inter-CVM messages published",
    ),
    def(
        "ivc.ring_full",
        CounterPlane::Ivc,
        "inter-CVM publishes dropped to backpressure",
    ),
    def(
        "ivc.send_unconnected",
        CounterPlane::Ivc,
        "sends on channels the vCPU is no endpoint of",
    ),
    def(
        "ivc.watchdog_recovered",
        CounterPlane::Ivc,
        "stranded inter-CVM rings re-rung",
    ),
    def(
        "migrate.aborted",
        CounterPlane::System,
        "migrations aborted and resumed on the source",
    ),
    def(
        "migrate.completed",
        CounterPlane::System,
        "live migrations completed",
    ),
    def(
        "migrate.frames_retransmitted",
        CounterPlane::System,
        "pre-copy frames re-sent after link drops",
    ),
    def(
        "migrate.granules_precopy",
        CounterPlane::System,
        "granules shipped during pre-copy rounds",
    ),
    def(
        "migrate.granules_stopcopy",
        CounterPlane::System,
        "granules shipped during stop-and-copy",
    ),
    def(
        "migrate.imports_rejected",
        CounterPlane::System,
        "migration blobs the destination RMM refused",
    ),
    def(
        "migrate.rounds",
        CounterPlane::System,
        "pre-copy rounds run",
    ),
    def(
        "migrate.rounds_stalled",
        CounterPlane::System,
        "pre-copy rounds hit by a link stall",
    ),
    def(
        "migrate.vms_in",
        CounterPlane::System,
        "VMs received by live migration",
    ),
    def(
        "net.napi_rx",
        CounterPlane::Host,
        "inbound packets picked up by NAPI polling",
    ),
    def(
        "net.sriov_tx",
        CounterPlane::Host,
        "packets sent directly via an SR-IOV VF",
    ),
    def(
        "rmm.delegated_ipi_sent",
        CounterPlane::Rmm,
        "realm-to-realm IPIs sent without host transit",
    ),
    def(
        "rmm.rec_enter",
        CounterPlane::Rmm,
        "REC_ENTER calls on the dedicated cores",
    ),
    def(
        "rmm.response_reposts",
        CounterPlane::Rmm,
        "response visibility refreshes on retry",
    ),
    def(
        "rpc.doorbell_ipis",
        CounterPlane::Rpc,
        "exit doorbell IPIs actually sent",
    ),
    def(
        "rpc.doorbell_rings",
        CounterPlane::Rpc,
        "exit doorbell ring attempts (pre-coalescing)",
    ),
    def("rpc.retries", CounterPlane::Rpc, "run-call retry decisions"),
    def(
        "rpc.retries_exhausted",
        CounterPlane::Rpc,
        "retry budgets exhausted (escalated to sync)",
    ),
    def(
        "rpc.run_calls",
        CounterPlane::Rpc,
        "asynchronous run calls issued",
    ),
    def(
        "rpc.stale_run_notice",
        CounterPlane::Rpc,
        "duplicate/stale run-request notices dropped",
    ),
    def(
        "rpc.timeout_serving",
        CounterPlane::Rpc,
        "call timeouts that found the guest still executing",
    ),
    def(
        "rpc.timeout_stale",
        CounterPlane::Rpc,
        "call timeouts that arrived after completion",
    ),
    def(
        "setup.ivc_channels",
        CounterPlane::System,
        "inter-CVM channels established",
    ),
    def(
        "setup.rmi_calls",
        CounterPlane::System,
        "RMI calls issued while building realms",
    ),
    def("setup.spis", CounterPlane::System, "device SPIs allocated"),
    def(
        "setup.virtqueues",
        CounterPlane::System,
        "fast-path virtqueue pairs set up",
    ),
    def("system.pauses", CounterPlane::System, "VM lifecycle pauses"),
    def(
        "system.resumes",
        CounterPlane::System,
        "VM lifecycle resumes",
    ),
    def(
        "system.vms_destroyed",
        CounterPlane::System,
        "VMs torn down",
    ),
    def(
        "system.vms_imported",
        CounterPlane::System,
        "VMs admitted from a migration import",
    ),
    def(
        "virtio.completions",
        CounterPlane::Virtio,
        "used-ring completions posted",
    ),
    def(
        "virtio.disk_fast",
        CounterPlane::Virtio,
        "block requests published on the fast-path virtqueue",
    ),
    def(
        "virtio.doorbell_ipis",
        CounterPlane::Virtio,
        "fast-path kick doorbell IPIs actually sent",
    ),
    def(
        "virtio.doorbell_rings",
        CounterPlane::Virtio,
        "fast-path kick ring attempts (pre-coalescing)",
    ),
    def(
        "virtio.irqs",
        CounterPlane::Virtio,
        "delegated completion interrupts raised",
    ),
    def(
        "virtio.irqs_suppressed",
        CounterPlane::Virtio,
        "completion interrupts suppressed by EVENT_IDX",
    ),
    def(
        "virtio.kicks",
        CounterPlane::Virtio,
        "submission kicks that rang the doorbell",
    ),
    def(
        "virtio.kicks_suppressed",
        CounterPlane::Virtio,
        "submission kicks coalesced by EVENT_IDX",
    ),
    def(
        "virtio.ring_full",
        CounterPlane::Virtio,
        "fast-path publishes bounced to the exit path",
    ),
    def(
        "virtio.tx_fast",
        CounterPlane::Virtio,
        "packets published on the fast-path virtqueue",
    ),
    def(
        "wakeup.watchdog_recovered",
        CounterPlane::Rpc,
        "stranded posted exits found by the watchdog",
    ),
    def(
        "wakeup.watchdog_scans",
        CounterPlane::Rpc,
        "wake-up watchdog rescans",
    ),
];

/// Looks up a registered counter by exact name.
pub fn lookup(name: &str) -> Option<&'static CounterDef> {
    REGISTRY
        .binary_search_by(|d| d.name.cmp(name))
        .ok()
        .map(|i| &REGISTRY[i])
}

/// Classifies a counter name into its registered plane. Unregistered
/// names — ad-hoc guest progress counters — fall in
/// [`CounterPlane::Workload`].
pub fn plane_of(name: &str) -> CounterPlane {
    lookup(name).map_or(CounterPlane::Workload, |d| d.plane)
}

/// Groups a counter set by plane, preserving name order within each
/// plane and plane order per [`CounterPlane::ALL`]. Planes with no
/// counters are omitted.
pub fn group_by_plane(counters: &Counters) -> Vec<(CounterPlane, Vec<(&str, u64)>)> {
    let mut groups: Vec<(CounterPlane, Vec<(&str, u64)>)> = Vec::new();
    for plane in CounterPlane::ALL {
        let entries: Vec<(&str, u64)> = counters
            .iter()
            .filter(|(name, _)| plane_of(name) == plane)
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
    use crate::cluster::Cluster;
    use crate::config::{SystemConfig, VmSpec};
    use crate::experiments::{io, ivc};
    use crate::system::System;
    use cg_host::DeviceKind;
    use cg_sim::{FaultPlan, SimDuration};
    use cg_workloads::coremark::CoremarkPro;
    use cg_workloads::dirtier::Dirtier;
    use cg_workloads::iozone::Iozone;
    use cg_workloads::kernel::GuestKernel;

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

    /// Fails on any counter name a system increments but the registry
    /// does not list.
    fn assert_registered(plane: &str, counters: &Counters) {
        let missing: Vec<&str> = counters
            .iter()
            .map(|(name, _)| name)
            .filter(|name| lookup(name).is_none())
            .collect();
        assert!(
            missing.is_empty(),
            "{plane}: unregistered counters {missing:?}"
        );
    }

    fn compute_guest(vcpus: u32, unit: SimDuration) -> Box<GuestKernel> {
        Box::new(
            GuestKernel::new(vcpus, 250, Box::new(CoremarkPro::new(vcpus, unit)))
                .with_console_writes(SimDuration::millis(1)),
        )
    }

    #[test]
    fn every_system_counter_is_registered() {
        // Exits, retries and the wake-up watchdog under a hostile host,
        // plus harassment kicks and pause/resume.
        let mut config = SystemConfig::paper_default();
        config.machine.num_cores = 8;
        config.fault = FaultPlan {
            drop_doorbell_p: 0.05,
            delay_doorbell_p: 0.05,
            delay_doorbell: SimDuration::micros(20),
            stall_host_p: 0.05,
            stall_host: SimDuration::micros(20),
            delay_response_p: 0.05,
            delay_response: SimDuration::micros(5),
            wedge_request_p: 0.05,
            ..FaultPlan::none()
        };
        let mut s = System::new(config);
        let spec = VmSpec::core_gapped(2).with_device(DeviceKind::VirtioNet);
        let vm = s
            .add_vm(spec, compute_guest(2, SimDuration::micros(100)), None)
            .unwrap();
        s.harass(vm, 0, SimDuration::micros(500));
        s.run_for(SimDuration::millis(20));
        s.pause_vm(vm);
        s.run_for(SimDuration::millis(1));
        s.resume_vm(vm);
        s.run_for(SimDuration::millis(1));
        assert!(s.metrics().counters.get("rpc.retries") > 0);
        assert_registered("exits", &s.metrics().counters);

        // The virtio fast path, with completion interrupts lost.
        let mut config = SystemConfig::paper_default();
        config.machine.num_cores = 4;
        config.fault = FaultPlan::completion_irq_loss(0.3);
        let mut s = System::new(config);
        let app = Iozone::new(vec![(4096, false, 8), (65536, true, 4)], 0);
        let spec = VmSpec::core_gapped(1)
            .with_device(DeviceKind::VirtioBlk)
            .with_io_fastpath();
        s.add_vm(
            spec,
            Box::new(GuestKernel::new(1, 250, Box::new(app))),
            None,
        )
        .unwrap();
        assert!(s.run_until_done(SimDuration::secs(60)));
        assert!(s.metrics().counters.get("io.watchdog_recovered") > 0);
        assert_registered("io", &s.metrics().counters);
        let net = io::run_netpipe_fastpath(io::IoPathMode::Fastpath, &[64, 4096], 3, 1);
        assert_registered("net", &net.counters);

        // IVC with lost, replayed and forged doorbells.
        let plan = FaultPlan {
            drop_ivc_doorbell_p: 0.2,
            dup_ivc_doorbell_p: 0.2,
            forge_ivc_doorbell_p: 1.0,
            ..FaultPlan::none()
        };
        let run = ivc::run_ivc_stream(4096, 40, SimDuration::micros(5), 1, plan);
        assert!(run.stats.doorbells_rejected > 0);
        assert_registered("ivc", &run.counters);

        // Elastic resize, lost rebind kicks, shutdown and defrag.
        let mut config = SystemConfig::paper_default();
        config.fault = FaultPlan::rebind_interruption(0.5);
        let mut s = System::new(config);
        let unit = SimDuration::micros(100);
        let a = s.add_vm(VmSpec::core_gapped(4), compute_guest(4, unit), None);
        let b = s.add_vm(VmSpec::core_gapped(4), compute_guest(4, unit), None);
        let _c = s.add_vm(VmSpec::core_gapped(4), compute_guest(4, unit), None);
        let (a, b) = (a.unwrap(), b.unwrap());
        s.run_for(SimDuration::millis(1));
        s.resize_vm(a, 2).unwrap();
        s.shutdown_vm(b);
        s.run_for(SimDuration::millis(4));
        s.destroy_vm(b).unwrap();
        s.enable_defrag(SimDuration::millis(1));
        s.run_for(SimDuration::millis(10));
        s.resize_vm(a, 4).unwrap();
        s.run_for(SimDuration::millis(4));
        assert!(s.metrics().counters.get("elastic.rebinds") > 0);
        assert_registered("elastic", &s.metrics().counters);

        // Two-node live migration: one clean move over a lossy, stalling
        // link, and one tampered blob the destination refuses.
        for tamper in [0.0, 1.0] {
            let mut config = SystemConfig::small();
            config.fault = FaultPlan {
                migrate_frame_drop_p: 0.1,
                migrate_stall_p: 0.5,
                migrate_stall: SimDuration::micros(100),
                migrate_tamper_p: tamper,
                ..FaultPlan::none()
            };
            let mut cluster = Cluster::homogeneous(config, 2);
            let spec = VmSpec::core_gapped(2).with_data_pages(64);
            let guest = Box::new(Dirtier::new(2, 8, SimDuration::micros(5)));
            let vm = cluster.node_mut(0).add_vm(spec, guest, None).unwrap();
            cluster.run_for(SimDuration::millis(2));
            let outcome = cluster
                .migrate_vm(vm, 0, 1, &cg_migrate::MigrateConfig::new())
                .unwrap();
            assert_eq!(outcome.aborted, tamper > 0.0);
            cluster.run_for(SimDuration::millis(2));
            for n in 0..2 {
                assert_registered("migrate", &cluster.node(n).metrics().counters);
            }
        }
    }

    #[test]
    fn lookup_finds_registered_names() {
        assert_eq!(lookup("rpc.retries").unwrap().plane, CounterPlane::Rpc);
        assert!(lookup("no.such.counter").is_none());
    }

    #[test]
    fn grouping_partitions_all_counters() {
        let mut c = Counters::new();
        c.incr("rpc.retries");
        c.incr("virtio.kicks");
        c.incr("ivc.messages_sent");
        c.incr("redis.served");
        let groups = group_by_plane(&c);
        let total: usize = groups.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, 4);
        assert_eq!(groups[0].0, CounterPlane::Rpc);
        assert!(groups
            .iter()
            .any(|(p, v)| *p == CounterPlane::Workload && v[0].0 == "redis.served"));
    }
}
