//! Integration: elastic core reallocation — runtime VM resize, live
//! defragmentation rebinds, fault-healed kicks, and thread reaping
//! under churn.

use cg_core::{System, SystemConfig, VmSpec};
use cg_sim::{FaultPlan, SimDuration};
use cg_workloads::coremark::CoremarkPro;
use cg_workloads::kernel::GuestKernel;

/// A forever-computing guest with a configurable work-unit length (long
/// units keep the vCPU in-guest long enough to need a kick).
fn cpu_guest(vcpus: u32, unit: SimDuration) -> Box<GuestKernel> {
    Box::new(GuestKernel::new(
        vcpus,
        250,
        Box::new(CoremarkPro::new(vcpus, unit)),
    ))
}

/// A guest that shuts down after `remaining` work units.
#[derive(Debug)]
struct FiniteApp {
    remaining: u64,
}

impl cg_workloads::AppLogic for FiniteApp {
    fn next_op(&mut self, _vcpu: u32, _now: cg_sim::SimTime) -> cg_workloads::GuestOp {
        if self.remaining == 0 {
            return cg_workloads::GuestOp::Shutdown;
        }
        self.remaining -= 1;
        cg_workloads::GuestOp::Compute {
            work: SimDuration::micros(200),
        }
    }
    fn on_irq(&mut self, _vcpu: u32, _irq: cg_workloads::GuestIrq, _now: cg_sim::SimTime) {}
    fn stats(&self) -> cg_workloads::WorkloadStats {
        cg_workloads::WorkloadStats::new()
    }
}

fn finite_guest(vcpus: u32, remaining: u64) -> Box<GuestKernel> {
    Box::new(GuestKernel::new(
        vcpus,
        250,
        Box::new(FiniteApp { remaining }),
    ))
}

/// Scale-down retires the tail vCPUs and returns their cores to both
/// the RMM free pool and the planner; scale-up revives them on freshly
/// dedicated cores and the guest keeps computing.
#[test]
fn resize_scales_down_then_back_up() {
    let mut system = System::new(SystemConfig::paper_default());
    let vm = system
        .add_vm(
            VmSpec::core_gapped(4),
            cpu_guest(4, SimDuration::micros(100)),
            None,
        )
        .unwrap();
    system.run_for(SimDuration::millis(2));
    assert_eq!(system.active_vcpus(vm), 4);
    assert_eq!(system.rmm().coregap().dedicated_cores().len(), 4);

    system.resize_vm(vm, 2).unwrap();
    system.run_for(SimDuration::millis(2));
    assert!(system.elastic_idle());
    assert_eq!(system.active_vcpus(vm), 2);
    assert_eq!(system.rmm().coregap().dedicated_cores().len(), 2);
    let realm = system.planner().admitted_realms()[0];
    assert_eq!(system.planner().allocation(realm).unwrap().len(), 2);
    let c = &system.metrics().counters;
    assert_eq!(c.get("elastic.retires"), 2);
    assert_eq!(c.get("elastic.scale_downs"), 1);

    let iters_before = system
        .vm_report(vm)
        .stats
        .counters
        .get("coremark.total_iterations");
    system.resize_vm(vm, 4).unwrap();
    system.run_for(SimDuration::millis(2));
    assert_eq!(system.active_vcpus(vm), 4);
    assert_eq!(system.rmm().coregap().dedicated_cores().len(), 4);
    assert_eq!(system.planner().allocation(realm).unwrap().len(), 4);
    let iters_after = system
        .vm_report(vm)
        .stats
        .counters
        .get("coremark.total_iterations");
    assert!(
        iters_after > iters_before,
        "revived vCPUs must resume computing"
    );
    let c = &system.metrics().counters;
    assert_eq!(c.get("elastic.scale_ups"), 1);
    assert!(
        system.rmm().stats().rec_unbound >= 2,
        "retire unbinds the REC"
    );
}

/// Resizing is rejected for out-of-range targets and while another
/// elastic operation is still pending on the VM.
#[test]
fn resize_validates_its_target() {
    let mut system = System::new(SystemConfig::paper_default());
    let vm = system
        .add_vm(
            VmSpec::core_gapped(2),
            cpu_guest(2, SimDuration::millis(5)),
            None,
        )
        .unwrap();
    system.run_for(SimDuration::millis(1));
    assert!(system.resize_vm(vm, 0).is_err());
    assert!(system.resize_vm(vm, 3).is_err());
    system.resize_vm(vm, 1).unwrap();
    // The retire needs the vCPU kicked out of its 5 ms work unit; until
    // then the op is in flight and a second resize must be refused.
    assert!(system.resize_vm(vm, 2).is_err());
    system.run_for(SimDuration::millis(2));
    assert!(system.elastic_idle());
    assert_eq!(system.active_vcpus(vm), 1);
}

/// A lost rebind kick (`RebindInterrupted`) stalls the retire only
/// until the watchdog notices the vCPU still in its guest past the
/// recovery timeout and re-kicks, bypassing injection.
#[test]
fn lost_rebind_kick_is_healed_by_watchdog() {
    let run = |p: f64| {
        let mut config = SystemConfig::paper_default();
        config.fault = FaultPlan::rebind_interruption(p);
        let mut system = System::new(config);
        // 5 ms work units: a retire mid-unit *requires* the kick — the
        // natural exit would take far longer than the watchdog path.
        let vm = system
            .add_vm(
                VmSpec::core_gapped(3),
                cpu_guest(3, SimDuration::millis(5)),
                None,
            )
            .unwrap();
        system.run_for(SimDuration::millis(1));
        system.resize_vm(vm, 1).unwrap();
        system.run_for(SimDuration::millis(4));
        assert!(system.elastic_idle(), "retires must complete");
        assert_eq!(system.active_vcpus(vm), 1);
        (
            system.metrics().counters.get("fault.rebind_interrupted"),
            system.metrics().counters.get("elastic.watchdog_recovered"),
            system.metrics().fingerprint(),
        )
    };
    let (dropped, recovered, _) = run(1.0);
    assert!(dropped >= 2, "every kick must be lost at p=1.0");
    assert!(
        recovered >= 2,
        "the elastic watchdog must re-kick each stalled retire"
    );
    let (dropped, recovered, _) = run(0.0);
    assert_eq!(dropped, 0);
    assert_eq!(recovered, 0);
    // Same plan, same seed: the healed schedule replays identically.
    assert_eq!(run(1.0).2, run(1.0).2);
}

/// Shutting down a VM force-finishes every vCPU (kicking them out of
/// their guests), after which teardown reclaims the cores.
#[test]
fn shutdown_kills_a_running_vm() {
    let mut system = System::new(SystemConfig::paper_default());
    let vm = system
        .add_vm(
            VmSpec::core_gapped(2),
            cpu_guest(2, SimDuration::micros(100)),
            None,
        )
        .unwrap();
    system.run_for(SimDuration::millis(1));
    system.shutdown_vm(vm);
    system.run_for(SimDuration::millis(2));
    assert!(system.vm_report(vm).finished.is_some());
    assert_eq!(system.metrics().counters.get("elastic.kills"), 2);
    system.destroy_vm(vm).unwrap();
    assert_eq!(system.rmm().coregap().dedicated_cores().len(), 0);
}

/// Destroying a VM that was scaled down must not reclaim the retired
/// vCPUs' stale core ids (they may already belong to someone else).
#[test]
fn destroy_after_scale_down_skips_released_cores() {
    let mut system = System::new(SystemConfig::paper_default());
    let a = system
        .add_vm(
            VmSpec::core_gapped(4),
            cpu_guest(4, SimDuration::micros(100)),
            None,
        )
        .unwrap();
    system.run_for(SimDuration::millis(1));
    system.resize_vm(a, 2).unwrap();
    system.run_for(SimDuration::millis(2));
    // The two released cores go straight to a new VM.
    let b = system
        .add_vm(
            VmSpec::core_gapped(2),
            cpu_guest(2, SimDuration::micros(100)),
            None,
        )
        .unwrap();
    system.run_for(SimDuration::millis(1));
    system.shutdown_vm(a);
    system.run_for(SimDuration::millis(2));
    system.destroy_vm(a).unwrap();
    // B's cores must be untouched by A's teardown.
    assert_eq!(system.rmm().coregap().dedicated_cores().len(), 2);
    system.run_for(SimDuration::millis(1));
    assert!(
        system
            .vm_report(b)
            .stats
            .counters
            .get("coremark.total_iterations")
            > 0,
        "the new VM keeps running on the reused cores"
    );
}

/// The defragmentation pass closes the hole a departed VM leaves,
/// relocating a live VM's vCPUs with measured rebind cost.
#[test]
fn defrag_compacts_a_fragmented_pool() {
    let mut system = System::new(SystemConfig::paper_default());
    let _a = system
        .add_vm(
            VmSpec::core_gapped(4),
            cpu_guest(4, SimDuration::micros(100)),
            None,
        )
        .unwrap();
    let b = system
        .add_vm(
            VmSpec::core_gapped(4),
            cpu_guest(4, SimDuration::micros(100)),
            None,
        )
        .unwrap();
    let _c = system
        .add_vm(
            VmSpec::core_gapped(4),
            cpu_guest(4, SimDuration::micros(100)),
            None,
        )
        .unwrap();
    system.run_for(SimDuration::millis(1));
    system.shutdown_vm(b);
    system.run_for(SimDuration::millis(2));
    system.destroy_vm(b).unwrap();
    let frag_before = system.planner().fragmentation();
    assert!(frag_before > 0.0, "departure must fragment the pool");

    system.enable_defrag(SimDuration::millis(1));
    system.run_for(SimDuration::millis(10));
    let c = &system.metrics().counters;
    assert!(c.get("defrag.passes") > 0);
    assert!(c.get("elastic.rebinds") > 0, "compaction must move vCPUs");
    assert!(
        system.planner().fragmentation() < frag_before,
        "defragmentation must shrink fragmentation"
    );
    assert!(
        !system.metrics().rebind_hist.is_empty(),
        "every live rebind records its measured cost"
    );
}

/// Churning VMs through create → run → destroy must not accumulate
/// dead vCPU thread state: exited threads are reaped.
#[test]
fn thread_reap_keeps_live_set_bounded_under_churn() {
    let mut system = System::new(SystemConfig::paper_default());
    let mut high_water = 0usize;
    for _ in 0..40 {
        let vm = system
            .add_vm(VmSpec::core_gapped(2), finite_guest(2, 20), None)
            .unwrap();
        assert!(system.run_until_done(SimDuration::secs(1)));
        system.destroy_vm(vm).unwrap();
        high_water = high_water.max(system.live_threads());
    }
    // One wake-up thread survives; the per-VM vCPU threads must not.
    assert!(
        high_water <= 8,
        "live thread set grew to {high_water}: exited vCPU threads are not being reaped"
    );
}
