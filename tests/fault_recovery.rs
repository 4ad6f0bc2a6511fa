//! System-level fault-injection & recovery tests.
//!
//! The paper's §1 malicious host controls interrupt routing and memory,
//! so it can drop the single coalescing doorbell IPI, stall the wake-up
//! thread's core, or sit on a cache line. These tests drive the full
//! simulated stack (guest kernel → RMM run channel → KVM wake-up
//! thread) under seeded [`FaultPlan`]s and check the two properties the
//! recovery machinery promises: no vCPU is ever silently stranded, and
//! faulty runs stay byte-for-byte reproducible. Without a fault plan the
//! same machinery must stay idle: one watchdog, however many planes,
//! and no recovery at all.

use cg_core::config::{RecoveryConfig, SystemConfig, VmSpec};
use cg_core::counters::{SystemCounters, REGISTRY};
use cg_core::experiments::faults::run_fault_sweep;
use cg_core::experiments::io::{run_iozone_fastpath_obs, run_netpipe_fastpath_obs, IoPathMode};
use cg_core::experiments::ivc::{run_ivc_pingpong_obs, IvcMode};
use cg_core::{Obs, System};
use cg_host::DeviceKind;
use cg_rmm::RmmConfig;
use cg_sim::{FaultPlan, SimDuration};
use cg_workloads::coremark::CoremarkPro;
use cg_workloads::ivc::{IvcConsumer, IvcProducer};
use cg_workloads::kernel::GuestKernel;
use cg_workloads::redis::{RedisCommand, RedisServer};
use cg_workloads::RedisClientPool;

/// With retries + watchdog enabled, 10% doorbell loss must leave zero
/// wedged channels, and the recovery paths must actually fire.
#[test]
fn doorbell_loss_recovers_with_zero_wedged_channels() {
    let r = run_fault_sweep(
        FaultPlan::doorbell_loss(0.10),
        RecoveryConfig::paper_default(),
        SimDuration::millis(50),
        42,
    );
    assert!(r.doorbells_dropped > 0, "injector must bite");
    assert!(
        r.retries + r.watchdog_recovered > 0,
        "someone must recover the dropped doorbells"
    );
    assert_eq!(r.wedged_channels, 0);
    assert!(r.score > 0.0, "guest must keep making progress");
}

/// The ablation: with recovery disabled the very same fault plan
/// strands vCPUs — the silent-abandonment bug the machinery exists to
/// fix is real and observable.
#[test]
fn without_recovery_doorbell_loss_wedges_channels() {
    let r = run_fault_sweep(
        FaultPlan::doorbell_loss(0.10),
        RecoveryConfig::disabled(),
        SimDuration::millis(50),
        42,
    );
    assert!(r.doorbells_dropped > 0, "injector must bite");
    assert_eq!(r.retries, 0, "recovery is off");
    assert_eq!(r.watchdog_recovered, 0, "recovery is off");
    assert!(
        r.wedged_channels > 0,
        "a dropped doorbell with no recovery strands the vCPU forever"
    );
}

/// Same seed + same plan ⇒ the same run, down to the metrics
/// fingerprint (which folds in every counter, fault and recovery
/// included).
#[test]
fn faulty_runs_are_deterministic() {
    let run = || {
        run_fault_sweep(
            FaultPlan::doorbell_loss(0.05),
            RecoveryConfig::paper_default(),
            SimDuration::millis(30),
            1234,
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.doorbells_dropped, b.doorbells_dropped);
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.watchdog_recovered, b.watchdog_recovered);
    assert_eq!(a.score, b.score);
}

/// Different seeds at the same plan produce different fault schedules —
/// the determinism above is per-seed, not a degenerate constant run.
#[test]
fn different_seeds_produce_different_fault_schedules() {
    let run = |seed| {
        run_fault_sweep(
            FaultPlan::doorbell_loss(0.05),
            RecoveryConfig::paper_default(),
            SimDuration::millis(30),
            seed,
        )
    };
    let (a, b) = (run(1), run(2));
    assert_ne!(a.fingerprint, b.fingerprint);
}

/// Every fault class at once — drops, delays, host stalls, response
/// visibility delays, and wedged requests — and the run still completes
/// with nothing stranded.
#[test]
fn combined_fault_plan_still_completes() {
    let plan = FaultPlan {
        drop_doorbell_p: 0.05,
        delay_doorbell_p: 0.10,
        delay_doorbell: SimDuration::micros(50),
        stall_host_p: 0.05,
        stall_host: SimDuration::micros(100),
        delay_response_p: 0.10,
        delay_response: SimDuration::micros(20),
        wedge_request_p: 0.02,
        drop_completion_irq_p: 0.0,
        drop_ivc_doorbell_p: 0.0,
        dup_ivc_doorbell_p: 0.0,
        forge_ivc_doorbell_p: 0.0,
        rebind_interrupt_p: 0.0,
        migrate_frame_drop_p: 0.0,
        migrate_stall_p: 0.0,
        migrate_stall: SimDuration::ZERO,
        migrate_tamper_p: 0.0,
        request_burst_p: 0.0,
        request_burst: 0,
        frontend_stall_p: 0.0,
        frontend_stall: SimDuration::ZERO,
    };
    let r = run_fault_sweep(
        plan,
        RecoveryConfig::paper_default(),
        SimDuration::millis(50),
        7,
    );
    assert!(r.doorbells_dropped > 0);
    assert!(r.doorbells_delayed > 0);
    assert!(r.requests_wedged > 0);
    assert_eq!(r.wedged_channels, 0, "recovery must absorb every class");
    assert!(r.score > 0.0);
}

/// Watchdog-only recovery: with the client timeout pushed past the run
/// length, the periodic rescan is the sole safety net — and it alone
/// must catch every stranded exit.
#[test]
fn watchdog_alone_recovers_stranded_exits() {
    let recovery = RecoveryConfig {
        call_timeout: SimDuration::millis(500), // never fires in a 50 ms run
        ..RecoveryConfig::paper_default()
    };
    let r = run_fault_sweep(
        FaultPlan::doorbell_loss(0.10),
        recovery,
        SimDuration::millis(50),
        42,
    );
    assert!(r.doorbells_dropped > 0, "injector must bite");
    assert_eq!(r.retries, 0, "timeouts must never fire in this run");
    assert!(
        r.watchdog_recovered > 0,
        "the watchdog must be the one recovering"
    );
    assert_eq!(r.wedged_channels, 0);
}

/// Builds a 6-core system (one host core) holding a busy-wait fast-path
/// VM, whose guest kicks only the I/O plane, and an async core-gapped
/// VM, whose exits ring the exit plane, added in the given order.
fn two_plane_system(io_plane_first: bool) -> System {
    let mut config = SystemConfig::paper_default();
    config.machine.num_cores = 6;
    let mut system = System::new(config);
    let compute = |vcpus| {
        Box::new(
            GuestKernel::new(
                vcpus,
                250,
                Box::new(CoremarkPro::new(vcpus, SimDuration::micros(100))),
            )
            .with_console_writes(SimDuration::millis(1)),
        )
    };
    let io_vm = VmSpec::core_gapped(1)
        .with_busy_wait()
        .with_device(DeviceKind::VirtioNet)
        .with_io_fastpath();
    let exit_vm = VmSpec::core_gapped(2);
    let specs = if io_plane_first {
        [io_vm, exit_vm]
    } else {
        [exit_vm, io_vm]
    };
    for spec in specs {
        let vcpus = spec.vcpus;
        system.add_vm(spec, compute(vcpus), None).expect("vm");
    }
    system
}

/// Regression: one watchdog serves both planes, whichever is created
/// first; a watchdog armed per plane runs (and charges) both scans
/// twice per period.
#[test]
fn watchdog_is_armed_once_in_either_plane_order() {
    for io_plane_first in [true, false] {
        let mut system = two_plane_system(io_plane_first);
        system.run_for(SimDuration::millis(100));
        let c = &system.metrics().counters;
        // 100 ms at the default 500 µs period.
        assert_eq!(
            (c.get("wakeup.watchdog_scans"), c.get("io.watchdog_scans")),
            (200, 200),
            "io_plane_first={io_plane_first}"
        );
        assert!(system.wakeup_stats().is_some() && system.io_stats().is_some());
    }
}

/// Recovery must do nothing when nothing is wrong: on fault-free runs
/// of the bench configurations the watchdog rescans but never recovers,
/// no fault is counted, and no recovery mark is left.
///
/// Left out on purpose until their causes, two open model bugs listed
/// in ROADMAP.md, are fixed: `rpc.retries` and `rmm.response_reposts`,
/// which read 2 each on a fault-free 16-core undelegated 0.5 s CoreMark
/// run (the call timeout, re-armed while the guest serves, can fire in
/// the few µs between a response becoming visible and its doorbell
/// landing), and the check that no core's busy time exceeds the
/// elapsed time, which double-charged host busy time breaks.
#[test]
fn watchdog_stays_idle_on_healthy_runs() {
    let obs = Obs::spans();
    // (configuration, counters); a busy-wait guest rings no doorbell,
    // so it spawns no plane and, with no IVC channel or elastic work
    // either, arms no watchdog.
    let mut runs: Vec<(String, SystemCounters)> = Vec::new();

    for (label, rmm, busy_wait) in [
        ("coremark delegated", RmmConfig::core_gapped(), false),
        (
            "coremark undelegated",
            RmmConfig::core_gapped_no_delegation(),
            false,
        ),
        ("coremark busy-wait", RmmConfig::core_gapped(), true),
    ] {
        let mut config = SystemConfig::paper_default();
        config.machine.num_cores = 8;
        config.num_host_cores = 1;
        config.rmm = rmm;
        let mut system = System::new(config);
        system.attach_obs(&obs);
        let guest = GuestKernel::new(
            7,
            250,
            Box::new(CoremarkPro::new(7, SimDuration::micros(100))),
        )
        .with_console_writes(SimDuration::millis(70));
        let mut spec = VmSpec::core_gapped(7).with_device(DeviceKind::VirtioNet);
        if busy_wait {
            spec = spec.with_busy_wait();
        }
        system.add_vm(spec, Box::new(guest), None).expect("vm");
        system.run_for(SimDuration::millis(200));
        runs.push((label.to_string(), system.metrics().counters.clone()));
    }

    let mut config = SystemConfig::paper_default();
    config.machine.num_cores = 5;
    config.num_host_cores = 1;
    config.rmm = RmmConfig::core_gapped();
    let mut system = System::new(config);
    system.attach_obs(&obs);
    let guest = GuestKernel::new(4, 250, Box::new(RedisServer::new(RedisCommand::Get, 0)));
    let spec = VmSpec::core_gapped(4).with_device(DeviceKind::SriovNic);
    let pool = RedisClientPool::new(50, 512, 2_000);
    let vm = system
        .add_vm(spec, Box::new(guest), Some(Box::new(pool)))
        .expect("redis vm");
    assert!(system.run_until_peer_done(vm, SimDuration::secs(10)));
    runs.push(("redis sriov".to_string(), system.metrics().counters.clone()));

    for mode in [IoPathMode::Fastpath, IoPathMode::FastpathNoSuppression] {
        let netpipe = run_netpipe_fastpath_obs(mode, &[64, 1500, 65536], 100, 42, &obs);
        runs.push((format!("netpipe {}", mode.label()), netpipe.counters));
        let iozone = run_iozone_fastpath_obs(mode, &[4096, 262144], 20, 42, &obs);
        runs.push((format!("iozone {}", mode.label()), iozone.counters));
    }

    let ivc = run_ivc_pingpong_obs(IvcMode::Ivc, &[64, 4096, 65536], 100, 42, &obs);
    runs.push(("ivc pingpong".to_string(), ivc.counters));

    for (label, counters) in &runs {
        let scans = counters.get("wakeup.watchdog_scans") + counters.get("io.watchdog_scans");
        assert_eq!(
            scans > 0,
            !label.ends_with("busy-wait"),
            "{label}: the watchdog runs exactly when a plane exists"
        );
        for def in REGISTRY {
            let name = def.name;
            if name.ends_with(".watchdog_recovered")
                || name == "io.watchdog_kicks"
                || name.starts_with("fault.")
            {
                assert_eq!(counters.get(name), 0, "{label}: {name}");
            }
        }
    }
    assert_eq!(obs.profiler.recovery_marks(), Vec::new());
}

/// Regression: the watchdog is armed with the first thing it checks,
/// not only with a doorbell plane. Busy-wait core-gapped VMs spawn no
/// plane, so an IVC doorbell lost between two of them used to strand
/// the stream forever.
#[test]
fn busy_wait_ivc_pair_recovers_lost_doorbells() {
    let mut config = SystemConfig::paper_default();
    config.seed = 42;
    config.rmm = RmmConfig::core_gapped();
    config.num_host_cores = 1;
    config.machine.num_cores = 4;
    config.fault = FaultPlan::ivc_doorbell_loss(0.2);
    let mut system = System::new(config);
    let producer = IvcProducer::new(0, 4096, 100, SimDuration::micros(5));
    let guest = GuestKernel::new(1, 250, Box::new(producer));
    let spec = VmSpec::core_gapped(1).with_busy_wait();
    let a = system
        .add_vm(spec, Box::new(guest), None)
        .expect("producer");
    let guest = GuestKernel::new(1, 250, Box::new(IvcConsumer::new(0, 100)));
    let spec = VmSpec::core_gapped(1)
        .with_busy_wait()
        .with_ivc_peer(a.0 as u32, 0);
    let b = system
        .add_vm(spec, Box::new(guest), None)
        .expect("consumer");
    assert!(system.wakeup_stats().is_none() && system.io_stats().is_none());
    assert!(
        system.run_until_done(SimDuration::secs(2)),
        "the stream must finish"
    );
    let c = &system.metrics().counters;
    assert!(c.get("fault.ivc_doorbell_dropped") > 0);
    assert!(c.get("ivc.watchdog_recovered") > 0);
    assert_eq!(system.vm_report(b).stats.counters.get("ivc.consumed"), 100);
}
