//! Integration: simulations are bit-reproducible for a given seed.

use cg_core::experiments::latency::{run_vipi, IpiConfig};
use cg_core::experiments::scaling::{run_coremark, ScalingConfig};
use cg_core::{System, SystemConfig, TraceOptions, VmSpec};
use cg_sim::{SimDuration, TraceKind};
use cg_workloads::coremark::CoremarkPro;
use cg_workloads::kernel::GuestKernel;

#[test]
fn identical_seeds_produce_identical_runs() {
    let run = |seed| {
        let r = run_coremark(ScalingConfig::CoreGapped, 4, SimDuration::millis(200), seed);
        (r.score.to_bits(), r.exits_total, r.exits_interrupt)
    };
    assert_eq!(run(7), run(7));
    assert_eq!(run(1234), run(1234));
}

#[test]
fn vipi_measurements_are_reproducible() {
    let a = run_vipi(IpiConfig::CoreGappedDelegated, 50, 3);
    let b = run_vipi(IpiConfig::CoreGappedDelegated, 50, 3);
    assert_eq!(a.mean().to_bits(), b.mean().to_bits());
    assert_eq!(a.count(), b.count());
}

#[test]
fn event_interleaving_is_stable_across_vm_counts() {
    // Adding an unrelated VM must not panic or deadlock the original.
    let mut config = SystemConfig::small();
    config.num_host_cores = 1;
    let mut system = System::new(config);
    let mk = |n: u32| {
        Box::new(GuestKernel::new(
            n,
            250,
            Box::new(CoremarkPro::new(n, SimDuration::micros(100))),
        ))
    };
    let a = system.add_vm(VmSpec::core_gapped(2), mk(2), None).unwrap();
    let b = system.add_vm(VmSpec::core_gapped(3), mk(3), None).unwrap();
    system.run_for(SimDuration::millis(100));
    for vm in [a, b] {
        let r = system.vm_report(vm);
        assert!(r.stats.counters.get("coremark.total_iterations") > 0);
    }
}

#[test]
fn structured_traces_are_bit_identical_across_same_seed_runs() {
    // Pins the same-instant tie-break: events scheduled at the same
    // simulated time (here, both VMs' host kicks and the exits they
    // force) must pop in schedule order, so two same-seed runs produce
    // the exact same record stream — not merely the same aggregates.
    let run = || {
        let mut config = SystemConfig::small();
        config.num_host_cores = 1;
        let mut system = System::new(config);
        for n in [2u32, 3] {
            let guest = GuestKernel::new(
                n,
                250,
                Box::new(CoremarkPro::new(n, SimDuration::micros(100))),
            );
            let vm = system
                .add_vm(VmSpec::core_gapped(n), Box::new(guest), None)
                .unwrap();
            system.harass(vm, 0, SimDuration::millis(5));
        }
        system.configure_trace(TraceOptions::new().structured_capture());
        system.run_for(SimDuration::millis(150));
        system.structured_trace().snapshot()
    };
    let a = run();
    let b = run();
    assert!(a.len() > 1000, "the run produced a real trace");
    let pops: Vec<_> = a
        .iter()
        .filter(|r| r.kind == TraceKind::EventPop)
        .map(|r| r.time)
        .collect();
    let ties = pops.windows(2).filter(|p| p[0] == p[1]).count();
    assert!(ties > 0, "the run popped same-instant events");
    assert_eq!(a, b, "same-seed record streams must be bit-identical");
    // Within the stream, time is monotone and sequence numbers strictly
    // increase: same-instant events keep their schedule order.
    for pair in a.windows(2) {
        assert!(pair[0].time <= pair[1].time);
        assert!(pair[0].seq < pair[1].seq);
    }
}
