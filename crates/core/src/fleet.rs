//! The cg-fleet serving plane: SLO-aware cluster serving on top of
//! [`Cluster`].
//!
//! The paper argues core-gapped CVMs are *operable* at fleet scale;
//! this module makes the claim concrete. A seeded open-loop load
//! generator offers per-tenant request traffic to a per-node serving
//! **front-end** ([`cg_host::FrontEnd`]), which admits or sheds each
//! request (token bucket, queue-depth cap, ring backpressure, typed
//! [`cg_host::ShedReason`]s). Admitted requests are injected onto the
//! node's wire as [`SystemEvent::WireToGuest`] events and served by the
//! tenant's core-gapped CVM running a multi-vCPU
//! [`cg_workloads::service::ServiceGuest`]; responses come back through
//! a [`NetPeer`] completion sink shared with the driver.
//!
//! Between epochs an **SLO tracker** computes per-tenant latency
//! attainment and drives the elastic plane: a missing tenant grows
//! ([`crate::System::resize_vm`]), a comfortable one shrinks, and when
//! a node runs out of dedicable cores the driver rebalances by live
//! migration ([`Cluster::migrate_vm`]). Every decision input is
//! deterministic (seeded arrival processes, seeded fault injection), so
//! two same-seed runs produce byte-identical metrics fingerprints.
//!
//! The accounting identity the shed typing buys:
//! `admitted + shed + in-flight == offered`, per tenant and in
//! aggregate — no request is ever silently dropped by the serving
//! plane itself (requests stranded by a mid-flight migration stay
//! "in flight" and are reported as such).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use cg_host::{AdmissionPolicy, DeviceKind, FrontEnd};
use cg_sim::{Samples, SimDuration, SimRng, SimTime};
use cg_workloads::kernel::GuestKernel;
use cg_workloads::peer::{NetPeer, PeerPacket};
use cg_workloads::service::{ServiceGuest, ServiceProfile};

use crate::cluster::Cluster;
use crate::config::VmSpec;
use crate::counters::Counter;
use crate::error::SystemError;
use crate::event::SystemEvent;
use crate::system::VmId;

/// One tenant's serving contract with the fleet.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// vCPUs at creation — the elastic ceiling ([`crate::System::resize_vm`]
    /// cannot grow past it).
    pub vcpus: u32,
    /// Active vCPUs at fleet start (the rest begin retired).
    pub initial_active: u32,
    /// What each request costs the guest.
    pub profile: ServiceProfile,
    /// Offered load: mean arrival rate of the tenant's open-loop
    /// Poisson process, requests per second.
    pub rate_per_sec: f64,
    /// Request payload sizes, drawn uniformly from this inclusive range.
    pub req_bytes: (u64, u64),
    /// The front-end admission policy for this tenant.
    pub admission: AdmissionPolicy,
    /// Per-request latency SLO (admission to response).
    pub slo: SimDuration,
    /// Node the tenant starts on.
    pub node: usize,
}

/// Completion sink state shared between the VM's [`NetPeer`] box and
/// the driver.
#[derive(Debug, Default)]
struct SinkState {
    /// `(flow, completion time)` pairs not yet drained by the driver.
    completions: Vec<(u64, SimTime)>,
    total: u64,
}

/// The [`NetPeer`] bolted onto each tenant CVM: records every response
/// packet (flow tag + completion instant) for the driver to drain at
/// the epoch boundary. Sends nothing — the driver injects the requests.
#[derive(Debug, Clone, Default)]
pub struct FleetSink {
    state: Rc<RefCell<SinkState>>,
}

impl FleetSink {
    /// A fresh sink.
    pub fn new() -> FleetSink {
        FleetSink::default()
    }

    /// Takes every completion recorded since the last drain.
    fn drain(&self) -> Vec<(u64, SimTime)> {
        std::mem::take(&mut self.state.borrow_mut().completions)
    }
}

impl NetPeer for FleetSink {
    fn on_packet(&mut self, pkt: PeerPacket, now: SimTime) -> Vec<(SimDuration, PeerPacket)> {
        let mut s = self.state.borrow_mut();
        s.completions.push((pkt.flow, now));
        s.total += 1;
        Vec::new()
    }

    fn initial_packets(&mut self) -> Vec<(SimTime, PeerPacket)> {
        Vec::new()
    }

    fn latency_samples(&self) -> BTreeMap<String, Samples> {
        BTreeMap::new()
    }

    fn completed(&self) -> u64 {
        self.state.borrow().total
    }
}

/// Per-tenant SLO bookkeeping: cumulative and per-epoch attainment.
#[derive(Debug, Default)]
pub struct SloTracker {
    /// Completions within the SLO, cumulative.
    pub met: u64,
    /// Completions past the SLO, cumulative.
    pub missed: u64,
    /// Completions within the SLO this epoch.
    epoch_met: u64,
    /// Completions this epoch.
    epoch_total: u64,
    /// Consecutive epochs at full attainment with an idle queue
    /// (the scale-down hysteresis).
    good_streak: u32,
}

impl SloTracker {
    fn record(&mut self, within_slo: bool) {
        self.epoch_total += 1;
        if within_slo {
            self.met += 1;
            self.epoch_met += 1;
        } else {
            self.missed += 1;
        }
    }

    /// Attainment over the completions of the current epoch; `1.0` when
    /// nothing completed (no evidence of trouble).
    fn epoch_attainment(&self) -> f64 {
        if self.epoch_total == 0 {
            1.0
        } else {
            self.epoch_met as f64 / self.epoch_total as f64
        }
    }

    fn end_epoch(&mut self, queue_idle: bool) {
        if self.epoch_total > 0 && self.epoch_met == self.epoch_total && queue_idle {
            self.good_streak += 1;
        } else {
            self.good_streak = 0;
        }
        self.epoch_met = 0;
        self.epoch_total = 0;
    }
}

/// Runtime state of one tenant.
#[derive(Debug)]
struct TenantRt {
    spec: TenantSpec,
    /// Node currently hosting the tenant (migration moves it).
    node: usize,
    /// VM id on that node (migration re-numbers it).
    vm: VmId,
    /// Active vCPUs the driver believes the VM has.
    active: u32,
    /// Arrival-process randomness (one independent stream per tenant).
    rng: SimRng,
    /// Next arrival instant.
    next_arrival: SimTime,
    /// Completion sink shared with the VM's peer box.
    sink: FleetSink,
    /// seq → (admission instant, node admitted on) for requests in
    /// flight.
    in_flight: BTreeMap<u64, (SimTime, usize)>,
    /// Next request sequence number.
    seq: u64,
    /// Requests offered on behalf of this tenant.
    offered: u64,
    /// Shed total at the last rebalance pass (for the per-epoch delta).
    shed_seen: u64,
    /// Requests arriving before this instant are shed as
    /// [`cg_host::ShedReason::TenantUnavailable`] (the migration
    /// blackout).
    unavailable_until: SimTime,
    /// SLO accounting.
    slo: SloTracker,
    /// Completed-request latencies (µs).
    latency_us: Samples,
}

/// Knobs of the serving plane itself (as opposed to the tenant mix).
#[derive(Debug, Clone)]
pub struct FleetPolicy {
    /// Admission control + shedding on. Off models the "just let it in"
    /// baseline: every request is admitted regardless of budget
    /// (injected front-end stalls still drop, as faults do).
    pub shedding: bool,
    /// SLO-driven elastic scaling + migration rebalancing on. Off
    /// models static allocation.
    pub elastic: bool,
    /// Node-wide ring-occupancy backpressure threshold (outstanding
    /// requests per node).
    pub backpressure_cap: u32,
    /// Epoch attainment below which a tenant grows by one vCPU.
    pub grow_below: f64,
    /// Completion-drain slices per epoch. The gate's queue-depth view
    /// is refreshed every slice; an epoch-sized drain would make the
    /// front-end see every in-epoch completion as still queued and
    /// over-shed on [`cg_host::ShedReason::QueueFull`].
    pub slices_per_epoch: u32,
}

impl Default for FleetPolicy {
    fn default() -> FleetPolicy {
        FleetPolicy {
            shedding: true,
            elastic: true,
            backpressure_cap: 256,
            grow_below: 0.90,
            slices_per_epoch: 8,
        }
    }
}

/// The fleet driver: owns the [`Cluster`], the per-node front-ends and
/// the tenants, and advances the serving plane epoch by epoch.
#[derive(Debug)]
pub struct FleetDriver {
    cluster: Cluster,
    frontends: Vec<FrontEnd>,
    tenants: Vec<TenantRt>,
    policy: FleetPolicy,
    epoch: SimDuration,
    start: SimTime,
    epochs_run: u32,
    offered: u64,
}

impl FleetDriver {
    /// Builds the serving plane: one [`FrontEnd`] per node (a gate per
    /// tenant on each), one core-gapped [`ServiceGuest`] CVM per tenant
    /// on its spec'd node, resized down to `initial_active` and settled
    /// before any traffic arrives.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent tenant spec (zero vCPUs, a node index
    /// outside the cluster) — fleet setup is configuration, not input.
    pub fn new(
        mut cluster: Cluster,
        specs: Vec<TenantSpec>,
        policy: FleetPolicy,
        epoch: SimDuration,
        seed: u64,
    ) -> FleetDriver {
        let policies: Vec<AdmissionPolicy> = specs
            .iter()
            .map(|s| {
                if policy.shedding {
                    s.admission
                } else {
                    // Shedding off: an unbounded contract. The gate
                    // still tracks in-flight counts so the accounting
                    // identity holds, but never refuses.
                    AdmissionPolicy {
                        rate_per_sec: f64::MAX,
                        burst: f64::MAX,
                        queue_cap: u32::MAX,
                    }
                }
            })
            .collect();
        let backpressure_cap = if policy.shedding {
            policy.backpressure_cap
        } else {
            u32::MAX
        };
        let frontends = (0..cluster.num_nodes())
            .map(|_| FrontEnd::new(&policies, backpressure_cap))
            .collect();
        let mut tenants = Vec::new();
        for (t, spec) in specs.into_iter().enumerate() {
            assert!(spec.vcpus >= 1, "a tenant needs at least one vCPU");
            assert!(
                spec.initial_active >= 1 && spec.initial_active <= spec.vcpus,
                "initial_active outside [1, vcpus]"
            );
            assert!(spec.node < cluster.num_nodes(), "tenant node out of range");
            let sink = FleetSink::new();
            let guest = GuestKernel::new(
                spec.vcpus,
                250,
                Box::new(ServiceGuest::new(spec.profile, 0)),
            );
            let node = cluster.node_mut(spec.node);
            let vm = node
                .add_vm(
                    VmSpec::core_gapped(spec.vcpus).with_device(DeviceKind::SriovNic),
                    Box::new(guest),
                    Some(Box::new(sink.clone())),
                )
                .expect("fleet setup admits every tenant");
            if spec.initial_active < spec.vcpus {
                node.resize_vm(vm, spec.initial_active)
                    .expect("initial scale-down of a freshly admitted VM");
            }
            // Settle before the next tenant: scale-down retires are
            // asynchronous, and a later tenant on the same node may
            // need the cores this one just released (the fleet mix is
            // allowed to oversubscribe ceilings, not actives).
            cluster.run_for(SimDuration::millis(2));
            let rng = SimRng::seed(seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xF1EE);
            tenants.push(TenantRt {
                active: spec.initial_active,
                node: spec.node,
                vm,
                rng,
                next_arrival: SimTime::ZERO,
                sink,
                in_flight: BTreeMap::new(),
                seq: 0,
                offered: 0,
                shed_seen: 0,
                unavailable_until: SimTime::ZERO,
                slo: SloTracker::default(),
                latency_us: Samples::new(),
                spec,
            });
        }
        // Let the initial scale-downs settle before traffic starts.
        cluster.run_for(SimDuration::millis(5));
        let start = cluster.now();
        for t in &mut tenants {
            t.next_arrival = start;
        }
        FleetDriver {
            cluster,
            frontends,
            tenants,
            policy,
            epoch,
            start,
            epochs_run: 0,
            offered: 0,
        }
    }

    /// The cluster under the plane (metrics, planner state).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The front-end of node `n`.
    pub fn frontend(&self, n: usize) -> &FrontEnd {
        &self.frontends[n]
    }

    /// Requests offered so far (admitted + shed + in flight).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Requests currently in flight for tenant `t`.
    pub fn tenant_in_flight(&self, t: usize) -> u64 {
        self.tenants[t].in_flight.len() as u64
    }

    /// Requests offered on behalf of tenant `t`.
    pub fn tenant_offered(&self, t: usize) -> u64 {
        self.tenants[t].offered
    }

    /// Requests admitted for tenant `t`, summed over every node's gate
    /// (migration moves the tenant between gates).
    pub fn tenant_admitted(&self, t: usize) -> u64 {
        self.frontends.iter().map(|f| f.gate(t).admitted()).sum()
    }

    /// Requests shed for tenant `t`, summed over every node's gate.
    pub fn tenant_shed(&self, t: usize) -> u64 {
        self.frontends.iter().map(|f| f.gate(t).shed_total()).sum()
    }

    /// Requests shed for tenant `t` for one specific reason, summed
    /// over every node's gate.
    pub fn tenant_shed_by(&self, t: usize, reason: cg_host::ShedReason) -> u64 {
        self.frontends
            .iter()
            .map(|f| f.gate(t).shed_count(reason))
            .sum()
    }

    /// Cumulative `(met, missed)` SLO counts for tenant `t`.
    pub fn tenant_slo(&self, t: usize) -> (u64, u64) {
        (self.tenants[t].slo.met, self.tenants[t].slo.missed)
    }

    /// Completed-request latency percentile (µs) for tenant `t`.
    pub fn tenant_latency_us(&mut self, t: usize, p: f64) -> f64 {
        self.tenants[t].latency_us.percentile(p)
    }

    /// Completions recorded for tenant `t`.
    pub fn tenant_completed(&self, t: usize) -> u64 {
        self.tenants[t].sink.completed()
    }

    /// Node currently hosting tenant `t`.
    pub fn tenant_node(&self, t: usize) -> usize {
        self.tenants[t].node
    }

    /// Active vCPUs of tenant `t` (driver's view).
    pub fn tenant_active(&self, t: usize) -> u32 {
        self.tenants[t].active
    }

    /// Advances the plane by `n` epochs.
    pub fn run_epochs(&mut self, n: u32) {
        for _ in 0..n {
            self.step_epoch();
        }
    }

    /// One epoch: offer + admit arrivals, run the cluster across the
    /// window, drain completions, update SLO state, and (policy
    /// permitting) apply elastic scaling and migration rebalancing.
    pub fn step_epoch(&mut self) {
        self.epochs_run += 1;
        let t_end = self.start + self.epoch.scaled(f64::from(self.epochs_run));
        // Offer, run and drain in sub-epoch slices so the gates' queue
        // view tracks real completions, not epoch-stale snapshots.
        let slices = self.policy.slices_per_epoch.max(1);
        for s in 1..=slices {
            let slice_end = if s == slices {
                t_end
            } else {
                t_end - self.epoch.scaled(f64::from(slices - s) / f64::from(slices))
            };
            self.offer_arrivals(slice_end);
            self.cluster.run_until(slice_end);
            self.drain_completions();
        }
        if self.policy.elastic {
            self.rebalance();
        }
        for t in 0..self.tenants.len() {
            let idle = self.tenants[t].in_flight.is_empty();
            self.tenants[t].slo.end_epoch(idle);
        }
    }

    /// Generates and admits every arrival up to `t_end`, tenant by
    /// tenant in index order (deterministic given the seeds).
    fn offer_arrivals(&mut self, t_end: SimTime) {
        for t in 0..self.tenants.len() {
            let mean_gap = SimDuration::secs(1).scaled(1.0 / self.tenants[t].spec.rate_per_sec);
            while self.tenants[t].next_arrival < t_end {
                let at = self.tenants[t].next_arrival;
                self.offer_one(t, at);
                let gap = self.tenants[t].rng.exp_duration(mean_gap);
                // Never a zero gap: the arrival process must advance.
                self.tenants[t].next_arrival = at + gap.max(SimDuration::nanos(1));
            }
        }
    }

    /// Offers one arrival (plus any injected burst duplicates) for
    /// tenant `t` at `at`.
    fn offer_one(&mut self, t: usize, at: SimTime) {
        let node = self.tenants[t].node;
        // Fault hooks: a request burst duplicates the arrival, a
        // front-end stall opens a drop window. Drawn from the *node's*
        // injector so the decisions fold into its seeded stream.
        let sys = self.cluster.node_mut(node);
        let extra = sys.fault.request_burst();
        if extra > 0 {
            sys.metrics.counters.incr(Counter::FaultRequestBursts);
        }
        if let Some(stall) = sys.fault.frontend_stall() {
            sys.metrics.counters.incr(Counter::FaultFrontendStalls);
            let now = sys.now().max(at);
            self.frontends[node].stall(now, stall);
        }
        let (lo, hi) = self.tenants[t].spec.req_bytes;
        for _ in 0..(1 + extra) {
            let bytes = if hi > lo {
                self.tenants[t].rng.range(lo..=hi)
            } else {
                lo
            };
            self.admit_one(t, at, bytes);
        }
    }

    /// Runs one request through the front-end; admitted requests are
    /// injected as wire events, shed ones are counted by reason.
    fn admit_one(&mut self, t: usize, at: SimTime, bytes: u64) {
        self.offered += 1;
        self.tenants[t].offered += 1;
        let node_idx = self.tenants[t].node;
        let available = at >= self.tenants[t].unavailable_until;
        // The admission decision itself costs the host core.
        let cost = self.frontends[node_idx].admit_cost();
        let decision = self.frontends[node_idx].admit(t, at, available);
        let node = self.cluster.node_mut(node_idx);
        node.metrics.counters.incr(Counter::FleetOffered);
        node.metrics.add_host_busy(0, cost);
        match decision {
            Ok(()) => {
                let seq = self.tenants[t].seq;
                self.tenants[t].seq += 1;
                let flow = ((t as u64) << 32) | (seq & 0xFFFF_FFFF);
                // Causality: a decision made "at `at`" cannot inject
                // into a node already past it (migration fast-forwards
                // the clock); clamp to the node's now.
                let when = at.max(node.queue.now()) + node.config.host.nic_wire_latency;
                node.queue.schedule_at(
                    when,
                    SystemEvent::WireToGuest {
                        vm: self.tenants[t].vm,
                        device: 0,
                        bytes,
                        flow,
                    },
                );
                node.metrics.counters.incr(Counter::FleetAdmitted);
                self.tenants[t].in_flight.insert(seq, (at, node_idx));
            }
            Err(reason) => {
                node.metrics.counters.incr(Counter::shed(reason));
                node.metrics.counters.incr(Counter::FleetShed);
            }
        }
    }

    /// Drains every tenant sink: matches completions to their admission
    /// records, releases the gate slots, and feeds the SLO tracker.
    fn drain_completions(&mut self) {
        for t in 0..self.tenants.len() {
            let mut done = self.tenants[t].sink.drain();
            // Sink order is per-VM arrival order already; sort for
            // insensitivity to future multi-sink merges.
            done.sort_by_key(|&(flow, at)| (at, flow));
            for (flow, finished) in done {
                let seq = flow & 0xFFFF_FFFF;
                let Some((admitted_at, gate_node)) = self.tenants[t].in_flight.remove(&seq) else {
                    // A request stranded by a migration completing late
                    // on the new node, or a duplicate: already accounted.
                    continue;
                };
                self.frontends[gate_node].gate_mut(t).complete();
                let lat = finished.saturating_duration_since(admitted_at);
                let lat_us = lat.as_nanos() / 1_000;
                let within = lat <= self.tenants[t].spec.slo;
                self.tenants[t].latency_us.record(lat_us as f64);
                self.tenants[t].slo.record(within);
                let node = self.cluster.node_mut(self.tenants[t].node);
                node.metrics.counters.incr(Counter::FleetCompleted);
                node.metrics
                    .counters
                    .add(Counter::FleetLatencyTotalUs, lat_us);
                node.metrics.counters.incr(if within {
                    Counter::FleetSloMet
                } else {
                    Counter::FleetSloMissed
                });
            }
        }
    }

    /// The SLO→elastic feedback: grow missing tenants, shrink
    /// comfortable ones, and migrate off saturated nodes.
    fn rebalance(&mut self) {
        for t in 0..self.tenants.len() {
            let attainment = self.tenants[t].slo.epoch_attainment();
            let backlog = self.tenants[t].in_flight.len() as u32;
            let cap = self.tenants[t].spec.admission.queue_cap;
            let active = self.tenants[t].active;
            let max = self.tenants[t].spec.vcpus;
            // Shedding is pressure too: completions can all be inside
            // the SLO while the gate turns half the offered load away.
            let shed = self.tenant_shed(t);
            let epoch_shed = shed - self.tenants[t].shed_seen;
            self.tenants[t].shed_seen = shed;
            let pressured =
                attainment < self.policy.grow_below || backlog > cap / 2 || epoch_shed > 0;
            if pressured && active < max {
                self.grow_or_migrate(t);
            } else if self.tenants[t].slo.good_streak >= 2 && active > 1 && backlog == 0 {
                let node = self.tenants[t].node;
                let vm = self.tenants[t].vm;
                if self
                    .cluster
                    .node_mut(node)
                    .resize_vm(vm, active - 1)
                    .is_ok()
                {
                    self.tenants[t].active = active - 1;
                    self.cluster
                        .node_mut(node)
                        .metrics
                        .counters
                        .incr(Counter::FleetResizeDown);
                }
            }
        }
    }

    /// Grows tenant `t` by one vCPU; a planner refusal (node out of
    /// dedicable cores) triggers migration to the emptiest other node.
    fn grow_or_migrate(&mut self, t: usize) {
        let node = self.tenants[t].node;
        let vm = self.tenants[t].vm;
        let active = self.tenants[t].active;
        match self.cluster.node_mut(node).resize_vm(vm, active + 1) {
            Ok(()) => {
                self.tenants[t].active = active + 1;
                self.cluster
                    .node_mut(node)
                    .metrics
                    .counters
                    .incr(Counter::FleetResizeUp);
            }
            Err(SystemError::Planner(_)) => self.migrate_tenant(t),
            Err(_) => {} // elastic op in flight etc.: retry next epoch
        }
    }

    /// Rebalances tenant `t` onto the node with the most free dedicable
    /// cores (if that is elsewhere and fits the tenant's ceiling).
    fn migrate_tenant(&mut self, t: usize) {
        let src = self.tenants[t].node;
        let need = self.tenants[t].spec.vcpus;
        let mut best: Option<(usize, u16)> = None;
        for n in 0..self.cluster.num_nodes() {
            if n == src {
                continue;
            }
            let free = self.cluster.node(n).planner().free_cores();
            if free as u32 >= need && best.map(|(_, f)| free > f).unwrap_or(true) {
                best = Some((n, free));
            }
        }
        let Some((dst, _)) = best else {
            return; // the whole fleet is saturated: nothing to do
        };
        let vm = self.tenants[t].vm;
        let cfg = cg_migrate::MigrateConfig::new();
        match self.cluster.migrate_vm(vm, src, dst, &cfg) {
            Ok(outcome) if !outcome.aborted => {
                let new_vm = VmId(self.cluster.node(dst).vm_count() - 1);
                self.tenants[t].vm = new_vm;
                self.tenants[t].node = dst;
                // The import revives the full vCPU complement.
                self.tenants[t].active = need;
                self.tenants[t].unavailable_until = self.cluster.now();
                self.cluster
                    .node_mut(dst)
                    .metrics
                    .counters
                    .incr(Counter::FleetMigrations);
            }
            Ok(_) => {
                self.cluster
                    .node_mut(src)
                    .metrics
                    .counters
                    .incr(Counter::FleetMigrationsAborted);
            }
            Err(_) => {
                // A busy elastic queue or mid-epoch oddity: retried (or
                // not) next epoch; the serving plane must not die.
                self.cluster
                    .node_mut(src)
                    .metrics
                    .counters
                    .incr(Counter::FleetMigrationsFailed);
            }
        }
    }

    /// Folds every node's metrics fingerprint into one run fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = 0xcbf2_9ce4_8422_2325u64;
        for n in 0..self.cluster.num_nodes() {
            fp = fp.rotate_left(7) ^ self.cluster.node(n).metrics().fingerprint();
        }
        fp
    }
}
