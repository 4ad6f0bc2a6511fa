//! The run-ahead tier against the single-step reference.
//!
//! Core-gapped CoreMark guests run twice per case: once normally, with
//! plain compute batched into run-ahead segments, and once with every op
//! forced onto its own segment. Random slice lengths and injected IPIs,
//! device interrupts and NAPI packet deliveries must leave the two runs
//! indistinguishable after every slice: workload statistics, exit counts,
//! the metrics fingerprint, every counter, every core's residency and
//! footprints, the unit in flight on every core, and the time-series
//! rows.
//!
//! Some injections land exactly on the end of the unit in flight, with
//! a `scheduled_at` before or after that unit's start, to pin the tie
//! rule: the next unit counts as started iff the unit before it started
//! earlier than the interrupt was scheduled.

use cg_core::system::HOST_KICK_SGI;
use cg_core::{Obs, System, SystemConfig, SystemEvent, VmId, VmSpec};
use cg_host::DeviceKind;
use cg_machine::{CoreId, Residency, Structure, TaintLabel};
use cg_sim::{SimDuration, SimTime, TraceCtx};
use cg_workloads::coremark::CoremarkPro;
use cg_workloads::kernel::GuestKernel;
use proptest::prelude::*;

/// The three core-gapped configurations of fig. 6 that differ in how
/// the guest leaves its core.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Async run calls, timer delegated to the RMM.
    Delegated,
    /// Async run calls, every timer tick exits to the host.
    NoDelegation,
    /// Busy-waiting run calls, timer delegated.
    BusyWait,
}

/// What an injection delivers to a vCPU's core.
#[derive(Debug, Clone, Copy)]
enum Irq {
    /// The host's kick SGI: the vCPU exits.
    Kick,
    /// The console device's SPI (delegated, or stolen host-side time).
    Device,
    /// An SR-IOV packet: NAPI hands it to the running guest directly.
    Packet,
}

/// When an injection arrives.
#[derive(Debug, Clone, Copy)]
enum Arrival {
    /// `offset_ns` after the slice's end, scheduled then.
    After { offset_ns: u64 },
    /// Exactly at the end of the unit in flight, scheduled `back_ns`
    /// before that unit started (the next unit must not have started).
    BoundaryBefore { back_ns: u64 },
    /// Exactly at the end of the unit in flight, scheduled `fwd_ns`
    /// after that unit started (the next unit must have started).
    BoundaryAfter { fwd_ns: u64 },
}

#[derive(Debug, Clone, Copy)]
struct Injection {
    vcpu: u32,
    irq: Irq,
    arrival: Arrival,
}

#[derive(Debug, Clone)]
struct Case {
    mode: Mode,
    direct_delivery: bool,
    vcpus: u32,
    console_us: u64,
    sample_us: u64,
    slices: Vec<(u64, Option<Injection>)>,
}

fn case() -> impl Strategy<Value = Case> {
    let mode = prop_oneof![
        Just(Mode::Delegated),
        Just(Mode::NoDelegation),
        Just(Mode::BusyWait)
    ];
    let irq = prop_oneof![Just(Irq::Kick), Just(Irq::Device), Just(Irq::Packet)];
    let arrival = prop_oneof![
        (0u64..400_000).prop_map(|offset_ns| Arrival::After { offset_ns }),
        (1u64..5_000).prop_map(|back_ns| Arrival::BoundaryBefore { back_ns }),
        (1u64..5_000).prop_map(|fwd_ns| Arrival::BoundaryAfter { fwd_ns }),
    ];
    let injection =
        (0u32..4, irq, arrival).prop_map(|(vcpu, irq, arrival)| Injection { vcpu, irq, arrival });
    let maybe = prop_oneof![
        1 => Just(None),
        3 => injection.prop_map(Some),
    ];
    (
        mode,
        prop::bool::ANY,
        1u32..5,
        500u64..6_000,
        80u64..900,
        prop::collection::vec((20u64..3_000, maybe), 4..20),
    )
        .prop_map(
            |(mode, direct_delivery, vcpus, console_us, sample_us, slices)| Case {
                mode,
                direct_delivery,
                vcpus,
                console_us,
                sample_us,
                slices,
            },
        )
}

fn build(case: &Case, single_step: bool) -> (System, VmId, Obs) {
    let mut config = SystemConfig::small();
    config.seed = 7;
    config.rmm = match case.mode {
        Mode::NoDelegation => cg_rmm::RmmConfig::core_gapped_no_delegation(),
        Mode::Delegated | Mode::BusyWait => cg_rmm::RmmConfig::core_gapped(),
    };
    config.rmm.direct_device_delivery = case.direct_delivery;
    let mut system = System::new(config);
    system.force_single_step(single_step);
    let obs = Obs::sampled(SimDuration::micros(case.sample_us));
    system.attach_obs(&obs);
    let app = CoremarkPro::new(case.vcpus, SimDuration::micros(100));
    let guest = GuestKernel::new(case.vcpus, 250, Box::new(app))
        .with_console_writes(SimDuration::micros(case.console_us));
    let mut spec = VmSpec::core_gapped(case.vcpus)
        .with_device(DeviceKind::VirtioNet)
        .with_device(DeviceKind::SriovNic);
    if matches!(case.mode, Mode::BusyWait) {
        spec = spec.with_busy_wait();
    }
    let vm = system
        .add_vm(spec, Box::new(guest), None)
        .expect("coremark VM admission");
    (system, vm, obs)
}

/// Everything a caller can observe of a run.
#[derive(Debug, PartialEq)]
struct Observed {
    now: SimTime,
    report: String,
    fingerprint: u64,
    counters: Vec<(String, u64)>,
    residency: Vec<Residency>,
    footprints: Vec<Vec<TaintLabel>>,
    llc_taints: usize,
    in_flight: Vec<Option<(SimTime, SimTime)>>,
    rows: Vec<(u64, Vec<f64>)>,
}

fn observe(system: &System, vm: VmId, obs: &Obs) -> Observed {
    let machine = system.machine();
    Observed {
        now: system.now(),
        report: format!("{:?}", system.vm_report(vm)),
        fingerprint: system.metrics().fingerprint(),
        counters: system
            .metrics()
            .counters
            .iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
        residency: machine
            .core_ids()
            .map(|c| machine.microarch(c).residency().clone())
            .collect(),
        footprints: machine
            .core_ids()
            .flat_map(|c| Structure::ALL.map(|s| machine.microarch(c).footprints(s)))
            .collect(),
        llc_taints: machine.llc_taint_count(),
        in_flight: machine
            .core_ids()
            .map(|c| system.segment_in_flight(c))
            .collect(),
        rows: obs.timeseries.rows(),
    }
}

/// The event an injection delivers, and when, as seen from `system`
/// (identical on both tiers once the slice's observations agree).
fn injected(
    system: &System,
    vm: VmId,
    vcpu_core: CoreId,
    inj: Injection,
) -> Option<(SimTime, SimTime, SystemEvent)> {
    let now = system.now();
    let (at, as_of) = match inj.arrival {
        Arrival::After { offset_ns } => (now + SimDuration::nanos(offset_ns), now),
        Arrival::BoundaryBefore { back_ns } => {
            let (start, end) = system.segment_in_flight(vcpu_core)?;
            if start.as_nanos() <= back_ns {
                return None;
            }
            (end, start - SimDuration::nanos(back_ns))
        }
        Arrival::BoundaryAfter { fwd_ns } => {
            let (start, end) = system.segment_in_flight(vcpu_core)?;
            (end, (start + SimDuration::nanos(fwd_ns)).min(end))
        }
    };
    let event = match inj.irq {
        Irq::Kick => SystemEvent::IpiArrive {
            core: vcpu_core,
            intid: HOST_KICK_SGI,
        },
        Irq::Device => SystemEvent::DeviceIrqArrive {
            core: vcpu_core,
            vm,
            device: 0,
            ctx: TraceCtx::NULL,
        },
        Irq::Packet => SystemEvent::WireToGuest {
            vm,
            device: 1,
            bytes: 512,
            flow: 1,
        },
    };
    Some((at, as_of, event))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn run_ahead_matches_single_step(case in case()) {
        let (mut tier, vm, tier_obs) = build(&case, false);
        let (mut reference, ref_vm, ref_obs) = build(&case, true);
        let cores = reference
            .planner()
            .allocation(reference.vm_realm(ref_vm))
            .expect("core-gapped VM holds cores")
            .to_vec();
        for (i, &(len_us, injection)) in case.slices.iter().enumerate() {
            tier.run_for(SimDuration::micros(len_us));
            reference.run_for(SimDuration::micros(len_us));
            let seen = observe(&tier, vm, &tier_obs);
            prop_assert_eq!(
                &seen,
                &observe(&reference, ref_vm, &ref_obs),
                "tiers diverged after slice {} of {:?}",
                i,
                case
            );
            let Some(inj) = injection else { continue };
            let core = cores[(inj.vcpu % case.vcpus) as usize];
            if let Some((at, as_of, event)) = injected(&tier, vm, core, inj) {
                tier.inject_event_as_of(at, as_of, event.clone());
                reference.inject_event_as_of(at, as_of, event);
            }
        }
        let iterations = tier.vm_report(vm).stats.counters.get("coremark.total_iterations");
        prop_assert!(iterations > 0, "no compute ran in {:?}", case);
    }
}
