//! Integration tests for cross-plane causal tracing: trace trees must
//! stay connected (even when fault injection drops doorbells and the
//! watchdog heals the request), traced requests must span several
//! execution contexts, every recovery must leave a mark beside the
//! spans of the request it healed, and the latency attribution must
//! reconcile with the measured end-to-end time.

use std::collections::{BTreeMap, BTreeSet};

use cg_core::experiments::io::{run_netpipe_fastpath_obs, IoPathMode};
use cg_core::experiments::ivc::run_ivc_stream_obs;
use cg_core::{Obs, System, SystemConfig, VmSpec};
use cg_host::DeviceKind;
use cg_sim::{Counters, FaultPlan, Histogram, SimDuration, Span, SpanKind};
use cg_workloads::coremark::CoremarkPro;
use cg_workloads::iozone::Iozone;
use cg_workloads::kernel::GuestKernel;

/// Groups the traced spans of a snapshot by trace id.
fn by_trace(spans: &[Span]) -> BTreeMap<u64, Vec<&Span>> {
    let mut traces: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if s.trace != 0 {
            traces.entry(s.trace).or_default().push(s);
        }
    }
    traces
}

/// Asserts every trace in `spans` forms a single connected tree: one
/// root, every other span's parent inside the same trace.
fn assert_connected_trees(spans: &[Span]) -> BTreeMap<u64, Vec<&Span>> {
    let traces = by_trace(spans);
    assert!(!traces.is_empty(), "run produced no traced requests");
    for (trace, members) in &traces {
        let ids: BTreeSet<u64> = members.iter().map(|s| s.id).collect();
        let roots: Vec<_> = members.iter().filter(|s| s.parent == 0).collect();
        assert_eq!(
            roots.len(),
            1,
            "trace {trace} has {} roots: {:?}",
            roots.len(),
            members.iter().map(|s| s.kind.name()).collect::<Vec<_>>()
        );
        for s in members {
            if s.parent != 0 {
                assert!(
                    ids.contains(&s.parent),
                    "trace {trace}: span {} ({}) parents outside its trace",
                    s.id,
                    s.kind.name()
                );
            }
            assert!(
                s.end.is_some(),
                "trace {trace}: span {} ({}) left open",
                s.id,
                s.kind.name()
            );
        }
    }
    traces
}

/// With 10% of inter-realm doorbells dropped, every request the
/// watchdog heals must still form one connected trace tree, and the
/// spans recorded before each recovery mark must hold a traced publish
/// whose request reached the drain.
#[test]
fn doorbell_loss_heals_into_connected_trace_trees() {
    let obs = Obs::spans();
    let run = run_ivc_stream_obs(
        4096,
        120,
        SimDuration::micros(5),
        42,
        FaultPlan::ivc_doorbell_loss(0.1),
        &obs,
    );
    assert!(
        run.stats.watchdog_recovered > 0,
        "10% loss over 120 messages must trigger the watchdog"
    );
    assert_eq!(run.received, 120, "every message heals through");

    let spans = obs.profiler.snapshot();
    let traces = assert_connected_trees(&spans);
    // Healed or not, a delivered message's trace ends in a drain hop.
    let drained: BTreeSet<u64> = traces
        .iter()
        .filter(|(_, m)| m.iter().any(|s| s.kind == SpanKind::IvcDrain))
        .map(|(t, _)| *t)
        .collect();
    assert!(!drained.is_empty(), "no trace reached ivc.drain");

    // Every watchdog recovery left a mark, and the spans before it hold
    // the causal trail: a traced publish the profiler saw through to
    // the drain.
    let marks: Vec<_> = obs
        .profiler
        .recovery_marks()
        .into_iter()
        .filter(|m| m.reason == "ivc.watchdog_recovered")
        .collect();
    assert_eq!(marks.len() as u64, run.stats.watchdog_recovered);
    for mark in &marks {
        let healed = spans[..mark.spans]
            .iter()
            .any(|s| s.kind == SpanKind::IvcPublish && drained.contains(&s.trace));
        assert!(
            healed,
            "mark at {} ns follows no traced publish that reached the drain",
            mark.t.as_nanos()
        );
    }
}

/// Runs fault plans that fire every recovery path, observed through
/// `obs`, and returns the merged counters.
fn run_recovery_scenarios(obs: &Obs) -> Counters {
    let mut counters = Counters::new();
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

    // Lost exit doorbells heal through the wake-up watchdog before the
    // (long) call timeout fires; wedged run requests with a single
    // retry exhaust it.
    let mut config = SystemConfig::paper_default();
    config.machine.num_cores = 8;
    config.recovery.call_timeout = SimDuration::millis(2);
    config.recovery.max_retries = 1;
    config.fault = FaultPlan {
        drop_doorbell_p: 0.1,
        wedge_request_p: 0.3,
        ..FaultPlan::none()
    };
    let mut s = System::new(config);
    s.attach_obs(obs);
    s.add_vm(VmSpec::core_gapped(2), compute(2), None).unwrap();
    s.run_for(SimDuration::millis(30));
    counters.merge(&s.metrics().counters);

    // Lost fast-path completion interrupts heal through the I/O
    // watchdog.
    let mut config = SystemConfig::paper_default();
    config.machine.num_cores = 4;
    config.fault = FaultPlan::completion_irq_loss(0.3);
    let mut s = System::new(config);
    s.attach_obs(obs);
    let app = Iozone::new(vec![(4096, false, 8), (65536, true, 4)], 0);
    let spec = VmSpec::core_gapped(1)
        .with_device(DeviceKind::VirtioBlk)
        .with_io_fastpath();
    let guest = Box::new(GuestKernel::new(1, 250, Box::new(app)));
    s.add_vm(spec, guest, None).unwrap();
    assert!(s.run_until_done(SimDuration::secs(60)));
    counters.merge(&s.metrics().counters);

    // Lost, replayed and forged inter-realm doorbells.
    let plan = FaultPlan {
        drop_ivc_doorbell_p: 0.2,
        dup_ivc_doorbell_p: 0.2,
        forge_ivc_doorbell_p: 1.0,
        ..FaultPlan::none()
    };
    let run = run_ivc_stream_obs(4096, 40, SimDuration::micros(5), 1, plan, obs);
    counters.merge(&run.counters);

    // Lost rebind kicks heal through the elastic watchdog.
    let mut config = SystemConfig::paper_default();
    config.fault = FaultPlan::rebind_interruption(0.5);
    let mut s = System::new(config);
    s.attach_obs(obs);
    let vm = s.add_vm(VmSpec::core_gapped(4), compute(4), None).unwrap();
    s.run_for(SimDuration::millis(1));
    s.resize_vm(vm, 2).unwrap();
    s.run_for(SimDuration::millis(4));
    s.resize_vm(vm, 4).unwrap();
    s.run_for(SimDuration::millis(4));
    counters.merge(&s.metrics().counters);
    counters
}

/// Every recovery that bumps a counter leaves exactly one mark while
/// spans are captured, none while they are not, and marking changes no
/// simulated result.
#[test]
fn recovery_marks_match_recovery_counters() {
    const REASONS: [&str; 5] = [
        "wakeup.watchdog_recovered",
        "io.watchdog_recovered",
        "ivc.watchdog_recovered",
        "elastic.watchdog_recovered",
        "rpc.retries_exhausted",
    ];
    let spans = Obs::spans();
    let traced = run_recovery_scenarios(&spans);
    let marks = spans.profiler.recovery_marks();
    for reason in REASONS {
        let marked = marks.iter().filter(|m| m.reason == reason).count() as u64;
        assert!(traced.get(reason) > 0, "no scenario fired {reason}");
        assert_eq!(marked, traced.get(reason), "marks for {reason}");
    }

    let off = Obs::disabled();
    let untraced = run_recovery_scenarios(&off);
    assert!(off.profiler.recovery_marks().is_empty());
    assert_eq!(
        untraced.iter().collect::<Vec<_>>(),
        traced.iter().collect::<Vec<_>>(),
        "capturing spans changed the simulated run"
    );
}

/// A fast-path virtio request must stitch across at least three
/// execution contexts (distinct `(realm, core)` attributions — e.g.
/// guest vCPU, host I/O thread, completion plane), and the export must
/// carry matching flow-event pairs.
#[test]
fn fastpath_request_crosses_three_contexts() {
    let obs = Obs::spans();
    run_netpipe_fastpath_obs(IoPathMode::Fastpath, &[1500], 3, 42, &obs);
    let spans = obs.profiler.snapshot();
    let traces = assert_connected_trees(&spans);
    let best = traces
        .values()
        .map(|members| {
            members
                .iter()
                .map(|s| (s.realm, s.core))
                .collect::<BTreeSet<_>>()
                .len()
        })
        .max()
        .expect("at least one trace");
    assert!(
        best >= 3,
        "no request crossed 3 execution contexts (best: {best})"
    );

    let trace = obs.profiler.chrome_trace();
    let flow_starts = trace.matches("\"ph\":\"s\"").count();
    let flow_finishes = trace.matches("\"ph\":\"f\"").count();
    assert!(flow_starts > 0, "no flow events exported");
    assert_eq!(flow_starts, flow_finishes, "unbalanced flow events");
}

/// The per-plane attribution must reconcile: component p50s sum to the
/// measured end-to-end p50 within the histogram's relative error.
#[test]
fn attribution_components_sum_to_e2e() {
    let obs = Obs::spans();
    run_netpipe_fastpath_obs(IoPathMode::Fastpath, &[1500], 5, 42, &obs);
    let report = cg_sim::attribute(&obs.profiler.snapshot());
    let virtio = report
        .planes
        .iter()
        .find(|p| p.plane == "virtio")
        .expect("virtio plane attributed");
    assert!(virtio.requests > 0);
    let e2e = virtio.e2e_us.percentile(50.0);
    let sum = virtio.component_p50_sum();
    assert!(e2e > 0.0);
    // Each of the four components and the e2e are independently
    // bucketed, so the reconciliation tolerance is one relative error
    // per histogram.
    let tol = 5.0 * Histogram::RELATIVE_ERROR * e2e + 1e-9;
    assert!(
        (sum - e2e).abs() <= tol,
        "component sum {sum} µs vs e2e {e2e} µs (tol {tol})"
    );
}
