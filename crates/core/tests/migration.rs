//! Cluster-level live migration: pre-copy rounds, sealed export/import,
//! fault-injected aborts, IVC re-establishment, and determinism.

use cg_core::{Cluster, System, SystemConfig, VmId, VmSpec};
use cg_migrate::MigrateConfig;
use cg_sim::{FaultPlan, SimDuration};
use cg_workloads::coremark::CoremarkPro;
use cg_workloads::dirtier::Dirtier;
use cg_workloads::kernel::GuestKernel;
use cg_workloads::GuestProgram;

const DATA_PAGES: u32 = 256;
const WORKING_SET: u32 = 16;

/// A VM whose guest keeps re-dirtying a small working set — the load
/// pre-copy has to chase.
fn dirtier_spec(vcpus: u32) -> VmSpec {
    VmSpec::core_gapped(vcpus).with_data_pages(DATA_PAGES)
}

fn dirtier_guest(vcpus: u32) -> Box<dyn GuestProgram> {
    Box::new(Dirtier::new(vcpus, WORKING_SET, SimDuration::micros(5)))
}

fn dirtier_writes(s: &System, vm: VmId) -> u64 {
    s.vm_report(vm).stats.counters.get("dirtier.writes")
}

fn two_nodes() -> Cluster {
    Cluster::homogeneous(SystemConfig::small(), 2)
}

fn settle_elastic(s: &mut System) {
    let deadline = s.now() + SimDuration::secs(1);
    while !s.elastic_idle() && s.now() < deadline {
        s.run_for(SimDuration::micros(250));
    }
    assert!(s.elastic_idle(), "elastic queue failed to drain");
}

#[test]
fn precopy_migration_moves_a_running_vm() {
    let mut cluster = two_nodes();
    let free_before = cluster.node(0).planner().free_cores();
    let vm = cluster
        .node_mut(0)
        .add_vm(dirtier_spec(2), dirtier_guest(2), None)
        .unwrap();
    let src_realm = cluster.node(0).vm_realm(vm);
    let measurement = cluster
        .node(0)
        .rmm()
        .realm(src_realm)
        .unwrap()
        .measurement();
    cluster.run_for(SimDuration::millis(5));
    let writes_src = dirtier_writes(cluster.node(0), vm);
    assert!(writes_src > 0, "the dirtier never ran on the source");

    let outcome = cluster.migrate_vm(vm, 0, 1, &MigrateConfig::new()).unwrap();
    assert!(!outcome.aborted);
    assert!(!outcome.resumed_on_source);
    assert!(outcome.rounds >= 1, "pre-copy never ran a round");
    assert!(
        outcome.granules_precopy >= u64::from(DATA_PAGES),
        "round 1 must ship at least the full image ({} granules), got {}",
        DATA_PAGES,
        outcome.granules_precopy
    );
    assert!(outcome.downtime < outcome.total);

    // The destination holds the VM: same measurement, vCPUs active, and
    // the guest program (its write counter survived the move) running.
    let moved = VmId(0);
    assert_eq!(cluster.node(1).vm_count(), 1);
    assert_eq!(cluster.node(1).active_vcpus(moved), 2);
    let dst_realm = cluster.node(1).vm_realm(moved);
    assert_eq!(
        cluster
            .node(1)
            .rmm()
            .realm(dst_realm)
            .unwrap()
            .measurement(),
        measurement,
        "the import must preserve the sealed source measurement"
    );
    let writes_after_move = dirtier_writes(cluster.node(1), moved);
    assert!(writes_after_move >= writes_src);
    cluster.run_for(SimDuration::millis(5));
    assert!(
        dirtier_writes(cluster.node(1), moved) > writes_after_move,
        "the migrated guest stopped dirtying on the destination"
    );

    // The source copy is gone and its cores are back in the free pool.
    assert_eq!(cluster.node(0).planner().free_cores(), free_before);
    assert_eq!(cluster.node(0).active_vcpus(vm), 0);
    assert_eq!(
        cluster.node(0).metrics().counters.get("migrate.completed"),
        1
    );
    assert_eq!(cluster.node(1).metrics().counters.get("migrate.vms_in"), 1);
    assert_eq!(cluster.node(1).rmm().stats().imported, 1);
}

#[test]
fn precopy_beats_stop_copy_only_on_downtime() {
    let run = |cfg: &MigrateConfig| {
        let mut cluster = two_nodes();
        let vm = cluster
            .node_mut(0)
            .add_vm(dirtier_spec(2), dirtier_guest(2), None)
            .unwrap();
        cluster.run_for(SimDuration::millis(5));
        cluster.migrate_vm(vm, 0, 1, cfg).unwrap()
    };
    let pre = run(&MigrateConfig::new());
    let stop = run(&MigrateConfig::new().stop_copy_only());

    assert!(!pre.aborted && !stop.aborted);
    assert_eq!(stop.rounds, 0, "stop-copy-only must skip pre-copy");
    assert_eq!(stop.granules_precopy, 0);
    // Stop-and-copy alone ships the whole image inside the downtime
    // window; pre-copy converges it to the residual working set.
    assert!(
        pre.granules_stopcopy < stop.granules_stopcopy,
        "pre-copy residual ({}) must undercut the full image ({})",
        pre.granules_stopcopy,
        stop.granules_stopcopy
    );
    assert!(
        pre.downtime < stop.downtime,
        "pre-copy downtime {:?} must beat stop-copy-only {:?}",
        pre.downtime,
        stop.downtime
    );
}

#[test]
fn tampered_blob_aborts_and_resumes_on_source() {
    let mut config = SystemConfig::small();
    config.fault = FaultPlan::migrate_tampering(1.0);
    let mut cluster = Cluster::homogeneous(config, 2);
    let vm = cluster
        .node_mut(0)
        .add_vm(dirtier_spec(2), dirtier_guest(2), None)
        .unwrap();
    cluster.run_for(SimDuration::millis(5));
    let dst_free = cluster.node(1).planner().free_cores();

    let outcome = cluster.migrate_vm(vm, 0, 1, &MigrateConfig::new()).unwrap();
    assert!(outcome.aborted, "a tampered blob must abort the migration");
    assert!(outcome.resumed_on_source);

    // The destination detected and audited the tamper, admitted
    // nothing, and its free-core count is untouched.
    assert_eq!(cluster.node(1).rmm().stats().imports_rejected, 1);
    assert_eq!(cluster.node(1).vm_count(), 0);
    assert_eq!(cluster.node(1).planner().free_cores(), dst_free);
    assert_eq!(
        cluster
            .node(1)
            .metrics()
            .counters
            .get("migrate.imports_rejected"),
        1
    );

    // The source VM is running again — same realm, guest still
    // dirtying.
    assert_eq!(cluster.node(0).metrics().counters.get("migrate.aborted"), 1);
    settle_elastic(cluster.node_mut(0));
    assert_eq!(cluster.node(0).active_vcpus(vm), 2);
    let writes = dirtier_writes(cluster.node(0), vm);
    cluster.run_for(SimDuration::millis(5));
    assert!(
        dirtier_writes(cluster.node(0), vm) > writes,
        "the source guest did not resume after the abort"
    );
}

#[test]
fn migrated_pair_reconnects_ivc_on_destination() {
    let mut cluster = two_nodes();
    let a = cluster
        .node_mut(0)
        .add_vm(dirtier_spec(1), dirtier_guest(1), None)
        .unwrap();
    let b = cluster
        .node_mut(0)
        .add_vm(dirtier_spec(1).with_ivc_peer(0, 3), dirtier_guest(1), None)
        .unwrap();
    cluster.run_for(SimDuration::millis(3));

    let cfg = MigrateConfig::new();
    assert!(!cluster.migrate_vm(a, 0, 1, &cfg).unwrap().aborted);
    assert!(!cluster.migrate_vm(b, 0, 1, &cfg).unwrap().aborted);

    // Measurements moved intact and the pair policy was mirrored, so
    // the attested channel re-establishes on the destination.
    cluster
        .node_mut(1)
        .connect_ivc(VmId(0), VmId(1), 3)
        .expect("the migrated pair must pass the destination's pair policy");
}

#[test]
fn migration_is_deterministic_across_runs() {
    let run = || {
        let mut cluster = two_nodes();
        let vm = cluster
            .node_mut(0)
            .add_vm(dirtier_spec(2), dirtier_guest(2), None)
            .unwrap();
        cluster.run_for(SimDuration::millis(3));
        let outcome = cluster.migrate_vm(vm, 0, 1, &MigrateConfig::new()).unwrap();
        cluster.run_for(SimDuration::millis(3));
        // The migration counters participate in both fingerprints.
        assert_eq!(
            cluster.node(0).metrics().counters.get("migrate.completed"),
            1
        );
        assert!(cluster.node(0).metrics().counters.get("migrate.rounds") >= 1);
        assert_eq!(cluster.node(1).metrics().counters.get("migrate.vms_in"), 1);
        (
            cluster.node(0).metrics().fingerprint(),
            cluster.node(1).metrics().fingerprint(),
            outcome.rounds,
            outcome.granules_precopy,
            outcome.granules_stopcopy,
            outcome.downtime,
        )
    };
    assert_eq!(run(), run(), "same-seed migrations must replay exactly");
}

/// Regression (planner reservations): a grow that the planner rejects
/// must leave the free-core count, the VM's active set, and the elastic
/// machinery exactly as they were.
#[test]
fn failed_grow_leaves_free_core_count_unchanged() {
    let mut s = System::new(SystemConfig::small()); // 7 dedicable cores
    let guest = |vcpus: u32| -> Box<dyn GuestProgram> {
        Box::new(GuestKernel::new(
            vcpus,
            250,
            Box::new(CoremarkPro::new(vcpus, SimDuration::micros(100))),
        ))
    };
    let vm = s.add_vm(VmSpec::core_gapped(4), guest(4), None).unwrap();
    s.add_vm(VmSpec::core_gapped(3), guest(3), None).unwrap();
    s.run_for(SimDuration::millis(2));
    assert_eq!(s.planner().free_cores(), 0);

    s.resize_vm(vm, 2).unwrap();
    settle_elastic(&mut s);
    assert_eq!(s.planner().free_cores(), 2);

    // Soak up the freed cores so the grow below cannot be satisfied.
    s.add_vm(VmSpec::core_gapped(2), guest(2), None).unwrap();
    assert_eq!(s.planner().free_cores(), 0);

    let err = s.resize_vm(vm, 4).unwrap_err();
    assert!(err.to_string().contains("insufficient cores"), "{err}");
    assert_eq!(
        s.planner().free_cores(),
        0,
        "failed grow must not leak cores"
    );
    assert_eq!(s.active_vcpus(vm), 2);
    assert!(s.elastic_idle(), "failed grow must not queue elastic work");

    // The VM is still healthy: it can shrink (and later re-grow once
    // capacity exists).
    s.resize_vm(vm, 1).unwrap();
    settle_elastic(&mut s);
    assert_eq!(s.planner().free_cores(), 1);
    s.resize_vm(vm, 2).unwrap();
    assert_eq!(s.planner().free_cores(), 0);
}
