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
//!
//! The same reference keeps every call timeout as a queued event, where
//! the normal path parks a chain while its channel is `Serving`; the
//! cases at the end compare the two under faults, on a fire instant and
//! through a teardown.

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

// ---------------- parked call timeouts against the eager chain ----------------
//
// Off the single-step reference, a vCPU's call-timeout chain is parked
// while its run channel is `Serving` and woken where a fire could see
// anything else. The cases below make the timeouts fire in `Requested`
// (wedged requests) and `Responded` (dropped exit doorbells, delayed
// responses), land a response exactly on a fire instant on both sides of
// the tie rule, and tear a VM down while a call is in flight.

/// What the call-timeout chain shows a caller.
#[derive(Debug, PartialEq)]
struct RpcObserved {
    now: SimTime,
    fingerprint: u64,
    timeout_serving: u64,
    timeout_stale: u64,
    retries: u64,
    counters: Vec<(String, u64)>,
}

fn observe_rpc(system: &System) -> RpcObserved {
    let c = &system.metrics().counters;
    RpcObserved {
        now: system.now(),
        fingerprint: system.metrics().fingerprint(),
        timeout_serving: c.get("rpc.timeout_serving"),
        timeout_stale: c.get("rpc.timeout_stale"),
        retries: c.get("rpc.retries"),
        counters: c.iter().map(|(k, v)| (k.to_owned(), v)).collect(),
    }
}

/// A core-gapped CoreMark VM on the async transport. Without `console`
/// the guest never exits on its own (its ticks are delegated).
fn gapped(
    config: SystemConfig,
    vcpus: u32,
    console: Option<SimDuration>,
    single_step: bool,
) -> (System, VmId) {
    let mut system = System::new(config);
    system.force_single_step(single_step);
    let app = CoremarkPro::new(vcpus, SimDuration::micros(100));
    let mut guest = GuestKernel::new(vcpus, 250, Box::new(app));
    if let Some(period) = console {
        guest = guest.with_console_writes(period);
    }
    let vm = system
        .add_vm(VmSpec::core_gapped(vcpus), Box::new(guest), None)
        .expect("coremark VM admission");
    (system, vm)
}

#[derive(Debug, Clone)]
struct FaultCase {
    delegated: bool,
    vcpus: u32,
    console_us: u64,
    timeout_us: u64,
    wedge_p: f64,
    drop_p: f64,
    delay_p: f64,
    delay_us: u64,
    /// Slice lengths; `true` runs the slice with `run_until_done`, which
    /// stops at the last event before its limit instead of at the limit.
    slices: Vec<(u64, bool)>,
}

fn fault_case() -> impl Strategy<Value = FaultCase> {
    (
        prop::bool::ANY,
        1u32..4,
        300u64..3_000,
        5u64..300,
        (0.0f64..0.5, 0.0f64..0.5, 0.0f64..0.5, 1u64..800),
        prop::collection::vec((20u64..2_000, prop::bool::ANY), 4..14),
    )
        .prop_map(
            |(delegated, vcpus, console_us, timeout_us, faults, slices)| FaultCase {
                delegated,
                vcpus,
                console_us,
                timeout_us,
                wedge_p: faults.0,
                drop_p: faults.1,
                delay_p: faults.2,
                delay_us: faults.3,
                slices,
            },
        )
}

fn run_slice(system: &mut System, (len_us, until_done): (u64, bool)) {
    let len = SimDuration::micros(len_us);
    if until_done {
        assert!(!system.run_until_done(len), "the guest runs for good");
    } else {
        system.run_for(len);
    }
}

fn fault_config(case: &FaultCase) -> SystemConfig {
    let mut config = SystemConfig::small();
    config.seed = 11;
    if !case.delegated {
        config.rmm = cg_rmm::RmmConfig::core_gapped_no_delegation();
    }
    config.recovery.call_timeout = SimDuration::micros(case.timeout_us);
    config.fault = cg_sim::FaultPlan {
        wedge_request_p: case.wedge_p,
        drop_doorbell_p: case.drop_p,
        delay_response_p: case.delay_p,
        delay_response: SimDuration::micros(case.delay_us),
        ..cg_sim::FaultPlan::none()
    };
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Wedged requests, lost exit doorbells and late responses make
    /// timeouts fire in `Requested` and `Responded` between long
    /// `Serving` stretches: the parked chain must count and retry
    /// exactly as the eager one.
    #[test]
    fn parked_timeouts_match_the_eager_chain(case in fault_case()) {
        let console = Some(SimDuration::micros(case.console_us));
        let (mut parked, vm) = gapped(fault_config(&case), case.vcpus, console, false);
        let (mut eager, _) = gapped(fault_config(&case), case.vcpus, console, true);
        for (i, &slice) in case.slices.iter().enumerate() {
            run_slice(&mut parked, slice);
            run_slice(&mut eager, slice);
            prop_assert_eq!(
                observe_rpc(&parked),
                observe_rpc(&eager),
                "timeout chains diverged after slice {} of {:?}",
                i,
                case
            );
        }
        prop_assert_eq!(
            format!("{:?}", parked.vm_report(vm)),
            format!("{:?}", eager.vm_report(vm))
        );
    }
}

/// Under heavy faults, timeouts fire in every channel state, and the
/// parked chain still matches the eager one after every slice.
#[test]
fn heavy_faults_fire_timeouts_in_every_state() {
    let case = FaultCase {
        delegated: false,
        vcpus: 3,
        console_us: 700,
        timeout_us: 40,
        wedge_p: 0.3,
        drop_p: 0.3,
        delay_p: 0.3,
        delay_us: 120,
        slices: [(900, false), (700, true)].repeat(6),
    };
    let console = Some(SimDuration::micros(case.console_us));
    let (mut parked, _) = gapped(fault_config(&case), case.vcpus, console, false);
    let (mut eager, _) = gapped(fault_config(&case), case.vcpus, console, true);
    for &slice in &case.slices {
        run_slice(&mut parked, slice);
        run_slice(&mut eager, slice);
        assert_eq!(observe_rpc(&parked), observe_rpc(&eager));
    }
    let c = &parked.metrics().counters;
    assert!(c.get("rpc.timeout_serving") > 0, "no Serving fires");
    assert!(c.get("fault.request_wedged") > 0, "no wedged request");
    assert!(c.get("rmm.response_reposts") > 0, "no Responded retry");
    assert!(
        c.get("rpc.retries") > c.get("rmm.response_reposts"),
        "no Requested retry"
    );
}

/// Keeps every trace record of `system`, which runs the eager chain.
fn traced(mut system: System) -> System {
    system.configure_trace(cg_core::TraceOptions::new().structured_capture());
    system
}

/// `(time, seq)` of every `CallTimeout` popped for `vm`.vcpu`vcpu`, from
/// an eager run's trace.
fn timeout_fires(system: &System, vm: VmId, vcpu: u32) -> Vec<(SimTime, u64)> {
    let prefix = format!("CallTimeout {{ vm: {vm:?}, vcpu: {vcpu}, seq: ");
    system
        .structured_trace()
        .snapshot()
        .iter()
        .filter(|r| r.kind == cg_sim::TraceKind::EventPop)
        .filter_map(|r| {
            let seq = r.detail.strip_prefix(&prefix)?.strip_suffix(" }")?;
            Some((r.time, seq.parse().expect("sequence number")))
        })
        .collect()
}

/// When `vm`.vcpu`vcpu`'s exits were posted, from a run's trace.
fn exit_posts(system: &System, vm: VmId, vcpu: u32) -> Vec<SimTime> {
    let prefix = format!("run.exit {vm}.vcpu{vcpu} ");
    system
        .structured_trace()
        .snapshot()
        .iter()
        .filter(|r| r.detail.starts_with(&prefix))
        .map(|r| r.time)
        .collect()
}

fn kick(system: &System, vm: VmId, vcpu: u32) -> SystemEvent {
    let core = system
        .planner()
        .allocation(system.vm_realm(vm))
        .expect("core-gapped VM holds cores")[vcpu as usize];
    SystemEvent::IpiArrive {
        core,
        intid: HOST_KICK_SGI,
    }
}

/// A host kick at `at` makes vCPU 0 post its exit `w` later, from the
/// start of the exit path: the posting event is ordered as of `at`.
/// Lands that post exactly on a timeout fire of the call in flight, and
/// returns whether the fire before it came earlier than the post's
/// `scheduled_at` (the fire then counts as handled before the post).
fn post_on_a_fire(timeout: SimDuration) -> bool {
    let mut config = SystemConfig::small();
    config.recovery.call_timeout = timeout;
    let lead = SimDuration::micros(700);
    // The exit path's length, from a probe.
    let (probe, vm) = gapped(config.clone(), 2, None, true);
    let mut probe = traced(probe);
    probe.run_for(lead);
    let probe_at = probe.now() + SimDuration::micros(3);
    let event = kick(&probe, vm, 0);
    probe.inject_event_as_of(probe_at, probe.now(), event);
    probe.run_for(SimDuration::micros(100));
    let w = *exit_posts(&probe, vm, 0)
        .iter()
        .find(|&&t| t >= probe_at)
        .expect("the kick forced an exit")
        - probe_at;

    let (mut parked, _) = gapped(config.clone(), 2, None, false);
    let mut eager = traced(gapped(config, 2, None, true).0);
    parked.run_for(lead);
    eager.run_for(lead);
    assert_eq!(observe_rpc(&parked), observe_rpc(&eager));
    let fires = timeout_fires(&eager, vm, 0);
    let &[.., (before, seq_a), (last, seq_b)] = fires.as_slice() else {
        panic!("the call in flight fired fewer than two timeouts: {fires:?}");
    };
    assert_eq!(seq_a, seq_b, "one call in flight");
    let period = last - before;
    let mut fire = last + period;
    while fire < eager.now() + w + SimDuration::micros(1) {
        fire += period;
    }
    let at = fire - w;
    let event = kick(&eager, vm, 0);
    parked.inject_event_as_of(at, eager.now(), event.clone());
    eager.inject_event_as_of(at, eager.now(), event);
    for _ in 0..6 {
        parked.run_for(SimDuration::micros(150));
        eager.run_for(SimDuration::micros(150));
        assert_eq!(observe_rpc(&parked), observe_rpc(&eager));
    }
    assert!(
        exit_posts(&eager, vm, 0).contains(&fire),
        "the exit was not posted on the fire at {fire}"
    );
    fire - period < at
}

/// The post's `scheduled_at` (the kick's arrival) comes after the fire
/// before the one it lands on: that fire pops first and finds `Serving`.
#[test]
fn response_on_a_fire_scheduled_after_the_previous_fire() {
    assert!(post_on_a_fire(SimDuration::micros(200)));
}

/// The post's `scheduled_at` comes before the previous fire: the fire it
/// lands on pops after it and finds `Responded`.
#[test]
fn response_on_a_fire_scheduled_before_the_previous_fire() {
    assert!(!post_on_a_fire(SimDuration::nanos(700)));
}

/// `shutdown_vm` while calls are in flight under faults, then
/// `destroy_vm`: the chains match through the kills, the teardown and
/// after it.
#[test]
fn teardown_with_a_call_in_flight_matches() {
    let mut config = SystemConfig::small();
    config.recovery.call_timeout = SimDuration::micros(30);
    config.fault = cg_sim::FaultPlan {
        wedge_request_p: 0.2,
        drop_doorbell_p: 0.2,
        ..cg_sim::FaultPlan::none()
    };
    let console = Some(SimDuration::micros(400));
    let (mut parked, vm) = gapped(config.clone(), 3, console, false);
    let (mut eager, _) = gapped(config, 3, console, true);
    for system in [&mut parked, &mut eager] {
        system.run_for(SimDuration::micros(1_730));
        system.shutdown_vm(vm);
    }
    assert_eq!(observe_rpc(&parked), observe_rpc(&eager));
    for system in [&mut parked, &mut eager] {
        assert!(system.run_until_done(SimDuration::millis(20)));
    }
    assert_eq!(observe_rpc(&parked), observe_rpc(&eager));
    parked.destroy_vm(vm).expect("finished VM tears down");
    eager.destroy_vm(vm).expect("finished VM tears down");
    assert_eq!(observe_rpc(&parked), observe_rpc(&eager));
    for _ in 0..4 {
        parked.run_for(SimDuration::micros(500));
        eager.run_for(SimDuration::micros(500));
        assert_eq!(observe_rpc(&parked), observe_rpc(&eager));
    }
}
