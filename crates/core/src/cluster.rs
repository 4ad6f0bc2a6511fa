//! Multi-node clusters and attested live migration (`cg-migrate`'s
//! mechanism half).
//!
//! A [`Cluster`] holds several independent [`System`] nodes — each with
//! its own RMM, host stack, planner, and seeded fault injector — joined
//! by a modelled inter-node link ([`cg_migrate::InterNodeLink`]). The
//! nodes advance in lockstep: every cluster-level run drives each node
//! to the same simulated deadline.
//!
//! [`Cluster::migrate_vm`] implements pre-copy live migration of a
//! core-gapped CVM:
//!
//! 1. **Pre-copy rounds** — the source RMM's dirty-granule bitmap is
//!    snapshotted and reset per round ([`cg_rmm::Rmm::migration_round`]);
//!    the frames ride the link while the guest keeps running (and keeps
//!    re-dirtying pages, which land in the next round). Rounds stop when
//!    the dirty set converges under the configured threshold or the
//!    round bound trips ([`cg_migrate::MigrateConfig::should_stop`]).
//! 2. **Stop-and-copy** — every vCPU is quiesced through the elastic
//!    evacuation path ([`System::evacuate_vm`]): kicked out of the
//!    guest, parked, its dedicated core returned. The RMM then seals
//!    realm + REC state into a measurement-bound blob
//!    (`RMI_MIGRATION_EXPORT`) and the residue rides the link during the
//!    downtime window.
//! 3. **Resume** — the destination delegates a granule run, stages the
//!    blob, and issues `RMI_MIGRATION_IMPORT`; the RMM verifies the seal
//!    and the sealed source measurement before rebuilding the realm.
//!    The planner places the VM, fresh vCPU threads bind its RECs, and
//!    device SPIs are re-registered by the normal setup path. On
//!    success the source copy is reaped and destroyed; on a rejected
//!    import (tampered blob) the source realm — deliberately left
//!    intact by the export — resumes via the elastic scale-up path.
//!
//! The injectable fault classes (dropped transfer frames, stalled
//! rounds, in-transit blob tampering — see [`cg_sim::FaultPlan`]) hit
//! the protocol where a hostile host could: the transport. A tampered
//! blob is *detected* (seal verification), audited
//! (`RmmStats::imports_rejected`), and survives as an
//! abort-and-resume-on-source, never as silent corruption.

use std::mem;

use cg_cca::{Measurement, RmiCall};
use cg_host::VmExecMode;
use cg_machine::{CoreId, GranuleAddr, RealmId};
use cg_migrate::{MigrateConfig, MigrationOutcome};
use cg_rmm::{MigrationBlob, Rtt};
use cg_sim::{SimDuration, SimTime};
use cg_workloads::{GuestIrq, GuestOp, GuestProgram, NetPeer, WorkloadStats};

use crate::config::{SystemConfig, VmSpec};
use crate::counters::Counter;
use crate::error::ClusterError;
use crate::system::{System, VmId};

/// Granularity of the bounded waits for quiesce and source reaping.
const STEP: SimDuration = SimDuration::micros(250);

/// Budget for the stop-and-copy quiesce (and for reaping the source
/// copy after a successful import). Generous against the ~2 ms hotplug
/// cost per retired core; a VM that cannot quiesce inside it has a
/// wedged elastic path, which is a bug, not a slow guest.
const QUIESCE_BUDGET: SimDuration = SimDuration::secs(2);

/// What remains of a guest after its VM migrated away: the source-side
/// placeholder only ever powers off. The real program moved to the
/// destination node inside the migration.
#[derive(Debug)]
struct MigratedOutGuest;

impl GuestProgram for MigratedOutGuest {
    fn next_op(&mut self, _vcpu: u32, _now: SimTime) -> GuestOp {
        GuestOp::Shutdown
    }

    fn on_irq(&mut self, _vcpu: u32, _irq: GuestIrq, _now: SimTime) {}

    fn stats(&self) -> WorkloadStats {
        WorkloadStats::new()
    }
}

type GuestBox = Box<dyn GuestProgram>;
type PeerBox = Box<dyn NetPeer>;

impl System {
    /// Are all of `vm`'s vCPUs retired with no elastic work left for it
    /// — i.e. did an evacuation fully drain?
    pub(crate) fn vm_quiesced(&self, vm: VmId) -> bool {
        self.vms[vm.0].retired.iter().all(|&r| r)
            && self.vms[vm.0].pending_elastic.iter().all(|p| p.is_none())
            && self.elastic_inflight.as_ref().is_none_or(|op| op.vm != vm)
            && self.elastic.iter().all(|op| op.vm != vm)
    }

    /// Reconstructs the spec a migrated VM carries to its destination:
    /// everything the destination's setup path needs that is not inside
    /// the sealed realm blob (device kinds, transport, fast-path
    /// flags). Placement fields reset — the destination planner places
    /// the VM fresh.
    pub(crate) fn vm_spec_snapshot(&self, vm: VmId) -> VmSpec {
        let v = &self.vms[vm.0];
        let io_event_idx = match v.devices.iter().find(|d| d.fastpath()) {
            Some(d) => d.queues[0].tx.event_idx(),
            None => true,
        };
        VmSpec {
            vcpus: v.kvm.num_vcpus(),
            mode: v.kvm.mode(),
            transport: v.transport,
            devices: v.devices.iter().map(|d| d.kind).collect(),
            vcpu_cores: None,
            io_fastpath: v.io_fastpath,
            io_event_idx,
            ivc_peer: None,
            contiguous: false,
            data_pages: 0,
        }
    }

    /// Rebuilds a realm from a staged migration blob: delegates a
    /// granule run sized by a dry-run RTT walk over the blob's frames,
    /// stages the blob, and issues `RMI_MIGRATION_IMPORT` with the
    /// owner-expected source measurement. On rejection the granule run
    /// is undelegated so the region stays clean for reuse.
    fn import_realm(
        &mut self,
        realm: RealmId,
        vm: VmId,
        blob: MigrationBlob,
        expected: Measurement,
    ) -> Result<(), String> {
        let base = 0x1_0000_0000u64 + (vm.0 as u64) * 0x1000_0000;
        let rd = GranuleAddr::new(base).expect("4 KiB aligned by construction");
        // Size the run exactly the way the RMM's import will: rd + RTT
        // root, the table granules the frame walk needs, one granule
        // per data page, one per REC.
        let rtt_root = rd.offset(1);
        let mut probe = Rtt::new(rtt_root);
        let mut tables = 0u64;
        for f in &blob.frames {
            for level in probe.missing_levels(f.ipa) {
                probe
                    .create_table(level, f.ipa, rtt_root)
                    .map_err(|e| format!("import probe walk failed: {e:?}"))?;
                tables += 1;
            }
        }
        let total = 2 + tables + blob.frames.len() as u64 + blob.recs.len() as u64;
        let rmi = |sys: &mut System, call: RmiCall| -> Result<(), String> {
            let out = sys.rmm.handle_rmi(CoreId(0), call, &mut sys.machine);
            sys.metrics.counters.incr(Counter::SetupRmiCalls);
            if out.status.is_success() {
                Ok(())
            } else {
                Err(format!("{call} failed: {:?}", out.status))
            }
        };
        for i in 0..total {
            rmi(self, RmiCall::GranuleDelegate { addr: rd.offset(i) })?;
        }
        self.rmm.stage_migration_blob(blob);
        let import = rmi(
            self,
            RmiCall::MigrationImport {
                rd,
                src_lo: expected.0[0],
                src_hi: expected.0[1],
            },
        );
        if let Err(e) = import {
            for i in 0..total {
                let _ = self.rmm.handle_rmi(
                    CoreId(0),
                    RmiCall::GranuleUndelegate { addr: rd.offset(i) },
                    &mut self.machine,
                );
            }
            return Err(e);
        }
        debug_assert!(
            self.rmm
                .realm(realm)
                .is_some_and(|r| r.measurement() == expected),
            "import produced an unexpected realm id or measurement"
        );
        Ok(())
    }

    /// Adds a VM whose realm arrives as a sealed migration blob instead
    /// of being built: planner placement and core dedication first,
    /// then the attested import, then the shared setup tail (KVM,
    /// devices, vCPU threads bound to the imported RECs).
    ///
    /// # Errors
    ///
    /// On failure the guest program and peer are handed back (the
    /// migration driver resumes them on the source), and any placement
    /// already made is rolled back — a rejected import leaves the
    /// destination's free-core count unchanged.
    pub(crate) fn add_imported_vm(
        &mut self,
        spec: VmSpec,
        blob: MigrationBlob,
        expected: Measurement,
        guest: GuestBox,
        peer: Option<PeerBox>,
    ) -> Result<VmId, (String, GuestBox, Option<PeerBox>)> {
        if spec.mode != VmExecMode::CoreGapped || !self.config.rmm.core_gapping {
            return Err((
                "migration import needs a core-gapping destination".into(),
                guest,
                peer,
            ));
        }
        if spec.vcpus != blob.num_recs {
            return Err((
                format!(
                    "spec carries {} vCPUs but the blob holds {} RECs",
                    spec.vcpus, blob.num_recs
                ),
                guest,
                peer,
            ));
        }
        let vm_id = VmId(self.vms.len());
        let realm = RealmId(self.rmm.realm_count());
        let cores = match self.planner.admit(realm, spec.vcpus as u16) {
            Ok(c) => c,
            Err(e) => return Err((e.to_string(), guest, peer)),
        };
        for &core in &cores {
            cg_host::hotplug::offline_for_dedication(
                core,
                &mut self.sched,
                &mut self.machine,
                SimDuration::millis(2),
            );
            self.rmm
                .dedicate_core(core, &mut self.machine)
                .expect("planner-granted cores are free and online");
            self.cores[core.index()].run = crate::system::CoreRun::RmmPolling;
        }
        if let Err(e) = self.import_realm(realm, vm_id, blob, expected) {
            self.rollback_placement(realm, &cores, spec.mode);
            return Err((e, guest, peer));
        }
        self.finish_vm_setup(vm_id, &spec, realm, cores, guest, peer);
        self.metrics.counters.incr(Counter::SystemVmsImported);
        Ok(vm_id)
    }

    /// Tears down the source copy of a successfully migrated VM: wakes
    /// the retired vCPU threads into the kill path, waits for the reap,
    /// and destroys the (already evacuated) VM — IVC channels touching
    /// it die with it, since a shared window is node-local.
    pub(crate) fn forget_migrated_vm(&mut self, vm: VmId) -> Result<(), String> {
        self.shutdown_vm(vm);
        let deadline = self.now() + QUIESCE_BUDGET;
        let reaped = |s: &System| {
            s.vms[vm.0].kvm.all_finished()
                && s.vms[vm.0]
                    .vcpus
                    .iter()
                    .all(|rt| !s.threads.contains_key(&rt.thread))
        };
        while !reaped(self) && self.now() < deadline {
            self.run_for(STEP);
        }
        if !reaped(self) {
            return Err("source vCPUs failed to reap after migration".into());
        }
        self.destroy_vm(vm)
    }
}

/// Several [`System`] nodes advancing in lockstep, joined by the
/// modelled inter-node link a migration's transfers ride.
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<System>,
}

impl Cluster {
    /// A cluster with one node per configuration.
    ///
    /// # Panics
    ///
    /// Panics on an empty configuration list.
    pub fn new(configs: Vec<SystemConfig>) -> Cluster {
        assert!(!configs.is_empty(), "a cluster needs at least one node");
        Cluster {
            nodes: configs.into_iter().map(System::new).collect(),
        }
    }

    /// `nodes` identically-configured nodes, each with a distinct seed
    /// derived from `config.seed` so their injectors and schedulers
    /// draw independent (but reproducible) randomness.
    pub fn homogeneous(config: SystemConfig, nodes: usize) -> Cluster {
        let configs = (0..nodes)
            .map(|i| {
                let mut c = config.clone();
                c.seed = config
                    .seed
                    .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64));
                c
            })
            .collect();
        Cluster::new(configs)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to node `i`.
    pub fn node(&self, i: usize) -> &System {
        &self.nodes[i]
    }

    /// Mutable access to node `i` (add VMs, read metrics, run it solo).
    pub fn node_mut(&mut self, i: usize) -> &mut System {
        &mut self.nodes[i]
    }

    /// The cluster clock: the furthest-ahead node's time (nodes only
    /// drift apart inside a cluster operation; every cluster-level run
    /// re-aligns them).
    pub fn now(&self) -> SimTime {
        self.nodes
            .iter()
            .map(|n| n.now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Runs every node to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        for n in &mut self.nodes {
            n.run_until(deadline);
        }
    }

    /// Runs every node for `d` past the cluster clock.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    /// Brings every node up to the cluster clock and returns it.
    fn sync(&mut self) -> SimTime {
        let t = self.now();
        self.run_until(t);
        t
    }

    /// Live-migrates core-gapped VM `vm` from node `src` to node `dst`:
    /// pre-copy rounds, elastic quiesce, sealed export, link transfer
    /// (with injected drops/stalls/tampering), attested import, resume.
    ///
    /// Returns the outcome record — including *handled* aborts: a
    /// rejected import (e.g. a tampered blob) comes back as
    /// `aborted: true, resumed_on_source: true` with the VM running on
    /// the source again, not as an `Err`.
    ///
    /// # Errors
    ///
    /// Misuse (bad node/VM ids, a non-core-gapped or busy VM) and
    /// internal protocol failures return a typed [`ClusterError`].
    pub fn migrate_vm(
        &mut self,
        vm: VmId,
        src: usize,
        dst: usize,
        cfg: &MigrateConfig,
    ) -> Result<MigrationOutcome, ClusterError> {
        if src == dst {
            return Err(ClusterError::SameNode);
        }
        if src >= self.nodes.len() || dst >= self.nodes.len() {
            return Err(ClusterError::NodeOutOfRange {
                nodes: self.nodes.len(),
            });
        }
        let t0 = self.sync();

        let (realm, prev_active) = {
            let s = &self.nodes[src];
            if vm.0 >= s.vms.len() {
                return Err(ClusterError::NoSuchVm { vm, node: src });
            }
            let v = &s.vms[vm.0];
            if v.kvm.mode() != VmExecMode::CoreGapped {
                return Err(ClusterError::NotCoreGapped(vm));
            }
            let active = (0..v.kvm.num_vcpus())
                .filter(|&i| !v.retired[i as usize])
                .count() as u32;
            if active == 0 {
                return Err(ClusterError::NoActiveVcpus(vm));
            }
            (v.kvm.realm(), active)
        };
        if !self.nodes[src].rmm.migration_begin(realm) {
            return Err(ClusterError::RealmNotActive);
        }

        let mut outcome = MigrationOutcome::default();

        // ---- pre-copy rounds: ship dirty granules while the guest runs
        loop {
            let dirty = self.nodes[src].rmm.migration_dirty_count(realm);
            if cfg.should_stop(outcome.rounds, dirty) {
                break;
            }
            let frames = self.nodes[src].rmm.migration_round(realm).ok_or_else(|| {
                ClusterError::Protocol("dirty tracking vanished mid-migration".to_owned())
            })?;
            outcome.rounds += 1;
            let n = frames.len() as u64;
            outcome.granules_precopy += n;
            // Injected transport faults: dropped frames are re-sent
            // (their link time is paid again), a stalled round waits
            // the stall out. Both only lengthen pre-copy — correctness
            // rides on the seal, not the transport.
            let dropped = self.nodes[src].fault.migrate_frame_drops(n);
            outcome.frames_retransmitted += dropped;
            let mut dt = cfg.link.transfer_time(n + dropped);
            if let Some(stall) = self.nodes[src].fault.stall_migration_round() {
                outcome.rounds_stalled += 1;
                dt += stall;
            }
            let deadline = self.now() + dt;
            self.run_until(deadline);
        }

        // ---- stop-and-copy: quiesce every vCPU via elastic evacuation
        let t_quiesce = self.now();
        if let Err(e) = self.nodes[src].evacuate_vm(vm) {
            self.nodes[src].rmm.migration_cancel(realm);
            return Err(ClusterError::QuiesceFailed(e));
        }
        while !self.nodes[src].vm_quiesced(vm) && self.nodes[src].now() < t_quiesce + QUIESCE_BUDGET
        {
            self.nodes[src].run_for(STEP);
        }
        if !self.nodes[src].vm_quiesced(vm) {
            self.nodes[src].rmm.migration_cancel(realm);
            return Err(ClusterError::QuiesceTimeout);
        }

        // ---- seal the realm + REC state into the migration blob
        let out = {
            let s = &mut self.nodes[src];
            let out = s.rmm.handle_rmi(
                CoreId(0),
                RmiCall::MigrationExport { realm },
                &mut s.machine,
            );
            s.metrics.counters.incr(Counter::SetupRmiCalls);
            out
        };
        if !out.status.is_success() {
            self.nodes[src].rmm.migration_cancel(realm);
            let _ = self.nodes[src].resize_vm(vm, prev_active);
            return Err(ClusterError::ExportFailed(format!(
                "MIGRATION_EXPORT failed: {:?}",
                out.status
            )));
        }
        let mut blob = self.nodes[src]
            .rmm
            .take_migration_blob()
            .ok_or_else(|| ClusterError::Protocol("export produced no blob".to_owned()))?;

        // ---- downtime transfer: residual dirty pages + RECs + metadata
        let stopcopy = blob.delta + blob.recs.len() as u64 + 2;
        outcome.granules_stopcopy = stopcopy;
        let dropped = self.nodes[src].fault.migrate_frame_drops(stopcopy);
        outcome.frames_retransmitted += dropped;
        let mut dt = cfg.link.transfer_time(stopcopy + dropped);
        if let Some(stall) = self.nodes[src].fault.stall_migration_round() {
            outcome.rounds_stalled += 1;
            dt += stall;
        }
        if self.nodes[src].fault.tamper_migration_blob() {
            blob.tamper();
        }
        let deadline = self.now() + dt;
        self.run_until(deadline);

        // ---- import on the destination, resume there or roll back
        let spec = self.nodes[src].vm_spec_snapshot(vm);
        let expected = self.nodes[src]
            .rmm
            .realm(realm)
            .expect("the export just read this realm")
            .measurement();
        let guest = mem::replace(
            &mut self.nodes[src].vms[vm.0].guest,
            Box::new(MigratedOutGuest),
        );
        let peer = self.nodes[src].vms[vm.0].peer.take();
        match self.nodes[dst].add_imported_vm(spec, blob, expected, guest, peer) {
            Ok(_new_vm) => {
                // Mirror the attested IVC pair policy: measurements are
                // preserved by the import, so re-established channels
                // pass the same pair checks after the move.
                for (a, b) in self.nodes[src].rmm.ivc_pairs() {
                    self.nodes[dst].rmm.allow_ivc_pair(a, b);
                }
                let now = self.now();
                outcome.downtime = now.saturating_duration_since(t_quiesce);
                outcome.total = now.saturating_duration_since(t0);
                let s = &mut self.nodes[src];
                s.metrics
                    .migrate_downtime_hist
                    .record(outcome.downtime.as_nanos() as f64 / 1000.0);
                s.metrics.counters.incr(Counter::MigrateCompleted);
                s.metrics
                    .counters
                    .add(Counter::MigrateRounds, u64::from(outcome.rounds));
                s.metrics
                    .counters
                    .add(Counter::MigrateGranulesPrecopy, outcome.granules_precopy);
                s.metrics
                    .counters
                    .add(Counter::MigrateGranulesStopcopy, outcome.granules_stopcopy);
                s.metrics.counters.add(
                    Counter::MigrateFramesRetransmitted,
                    outcome.frames_retransmitted,
                );
                s.metrics
                    .counters
                    .add(Counter::MigrateRoundsStalled, outcome.rounds_stalled);
                self.nodes[src].forget_migrated_vm(vm)?;
                self.nodes[dst].metrics.counters.incr(Counter::MigrateVmsIn);
                self.sync();
                Ok(outcome)
            }
            Err((_why, guest, peer)) => {
                // Verified abort: the destination RMM rejected the blob
                // (audited there in `RmmStats::imports_rejected`). The
                // export left the source realm intact, so resume it via
                // the elastic scale-up path.
                self.nodes[dst]
                    .metrics
                    .counters
                    .incr(Counter::MigrateImportsRejected);
                let s = &mut self.nodes[src];
                s.vms[vm.0].guest = guest;
                s.vms[vm.0].peer = peer;
                s.rmm.migration_cancel(realm);
                s.metrics.counters.incr(Counter::MigrateAborted);
                s.resize_vm(vm, prev_active).map_err(|e| {
                    ClusterError::Protocol(format!("abort-resume on source failed: {e}"))
                })?;
                outcome.aborted = true;
                outcome.resumed_on_source = true;
                let now = self.now();
                outcome.downtime = now.saturating_duration_since(t_quiesce);
                outcome.total = now.saturating_duration_since(t0);
                self.sync();
                Ok(outcome)
            }
        }
    }
}
