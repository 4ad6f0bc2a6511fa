//! Integration tests for the observability layer: same-seed runs must
//! export byte-identical artifacts, attaching the sinks must not
//! perturb the simulation, and the span taxonomy must cover the paths
//! the profiler instruments.

use cg_core::experiments::latency::{run_vipi_obs, IpiConfig};
use cg_core::{Obs, System, SystemConfig, TraceOptions, VmSpec};
use cg_host::DeviceKind;
use cg_sim::{Histogram, SimDuration};
use cg_workloads::coremark::CoremarkPro;
use cg_workloads::iozone::Iozone;
use cg_workloads::kernel::GuestKernel;

/// One fully-instrumented vIPI run; returns the exported artifacts.
fn instrumented_run() -> (Obs, Histogram) {
    let obs = Obs::full(SimDuration::micros(500));
    let hist = run_vipi_obs(IpiConfig::CoreGappedNoDelegation, 50, 7, &obs);
    (obs, hist)
}

#[test]
fn same_seed_runs_export_byte_identical_artifacts() {
    let (a, a_hist) = instrumented_run();
    let (b, b_hist) = instrumented_run();
    assert_eq!(a_hist, b_hist);
    assert_eq!(a.profiler.chrome_trace(), b.profiler.chrome_trace());
    assert_eq!(a.timeseries.to_csv(), b.timeseries.to_csv());
    assert_eq!(
        a.timeseries.to_json().render(),
        b.timeseries.to_json().render()
    );
}

#[test]
fn observability_does_not_perturb_the_simulation() {
    let (_, on_hist) = instrumented_run();
    let off_hist = run_vipi_obs(IpiConfig::CoreGappedNoDelegation, 50, 7, &Obs::disabled());
    assert_eq!(on_hist, off_hist);
}

#[test]
fn trace_covers_the_instrumented_paths() {
    let (obs, _) = instrumented_run();
    let stats = obs.profiler.label_stats();
    for kind in [
        "sched.slice",
        "rpc.request",
        "exit.roundtrip",
        "exit.handle",
    ] {
        assert!(
            stats.keys().any(|k| *k == kind),
            "span kind {kind} missing; have {:?}",
            stats.keys().collect::<Vec<_>>()
        );
    }
    let trace = obs.profiler.chrome_trace();
    assert!(trace.starts_with("{\"displayTimeUnit\":\"ns\""));
    assert!(trace.contains("\"ph\":\"X\""));
}

#[test]
fn world_switches_are_profiled_on_shared_core_cvms() {
    // Core-gapped guests never leave Realm world on their dedicated
    // cores; the trust-boundary crossings show up when a confidential
    // VM shares cores with the host.
    let obs = Obs::spans();
    cg_core::experiments::scaling::run_coremark_obs(
        cg_core::experiments::scaling::ScalingConfig::SharedCoreConfidential,
        2,
        SimDuration::millis(20),
        7,
        &obs,
    );
    let stats = obs.profiler.label_stats();
    assert!(
        stats.keys().any(|k| *k == "world.switch"),
        "no world.switch spans; have {:?}",
        stats.keys().collect::<Vec<_>>()
    );
}

#[test]
fn timeseries_samples_cover_the_run() {
    let (obs, _) = instrumented_run();
    assert!(!obs.timeseries.is_empty(), "no samples collected");
    let columns = obs.timeseries.columns();
    assert_eq!(
        columns,
        [
            "host_util",
            "chan_requests",
            "chan_responses",
            "exits_total",
            "l1_warm",
            "bp_warm",
            "llc_taints"
        ]
    );
    let rows = obs.timeseries.rows();
    assert!(
        rows.windows(2).all(|w| w[0].0 < w[1].0),
        "non-monotone time"
    );
    assert!(rows.iter().all(|(_, v)| v.len() == columns.len()));
    // Exit counts are cumulative gauges: they must never decrease.
    let exits: Vec<f64> = rows.iter().map(|(_, v)| v[3]).collect();
    assert!(exits.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn sequential_runs_rebase_onto_one_timeline() {
    let obs = Obs::spans();
    run_vipi_obs(IpiConfig::CoreGappedDelegated, 10, 7, &obs);
    let after_first = obs.profiler.span_count();
    run_vipi_obs(IpiConfig::CoreGappedDelegated, 10, 7, &obs);
    assert!(obs.profiler.span_count() > after_first);
    // Spans from the second run must sit after the first run's spans,
    // not overlap them at t=0 again.
    let spans = obs.profiler.snapshot();
    let first_max_end = spans[..after_first]
        .iter()
        .map(|s| s.end.unwrap_or(s.start))
        .max()
        .expect("first run produced spans");
    assert!(spans[after_first..]
        .iter()
        .all(|s| s.start >= first_max_end));
}

/// Replaces every `SpanId(n)` in `s` with `SpanId(_)`.
fn mask_span_ids(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find("SpanId(") {
        let (head, tail) = rest.split_at(i + "SpanId(".len());
        out.push_str(head);
        out.push('_');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Sinks attached after `add_vm` see exactly what sinks attached before
/// it see: every component records through the handle it was built
/// with, so turning a sink on hands nothing out again. Only the span
/// ids differ: an early attach also records the two zero-length
/// `sched.slice` spans `add_vm` opens and closes.
#[test]
fn sinks_attached_after_add_vm_see_every_component() {
    let run = |early: bool| {
        let mut config = SystemConfig::small();
        config.num_host_cores = 1;
        config.seed = 11;
        let mut s = System::new(config);
        let obs = Obs::spans();
        let attach = |s: &mut System| {
            s.attach_obs(&obs);
            s.configure_trace(TraceOptions::new().structured_capture());
        };
        if early {
            attach(&mut s);
        }
        let coremark = GuestKernel::new(
            2,
            250,
            Box::new(CoremarkPro::new(2, SimDuration::micros(100))),
        )
        .with_console_writes(SimDuration::millis(5));
        let spec = VmSpec::core_gapped(2).with_device(DeviceKind::VirtioNet);
        s.add_vm(spec, Box::new(coremark), None).unwrap();
        let app = Iozone::new(vec![(4096, false, 40)], 0);
        let iozone = GuestKernel::new(1, 250, Box::new(app));
        let spec = VmSpec::core_gapped(1)
            .with_device(DeviceKind::VirtioBlk)
            .with_io_fastpath();
        s.add_vm(spec, Box::new(iozone), None).unwrap();
        if early {
            s.structured_trace().clear();
        } else {
            attach(&mut s);
        }
        s.run_for(SimDuration::millis(20));
        let records: Vec<_> = s
            .structured_trace()
            .snapshot()
            .into_iter()
            .map(|r| {
                (
                    r.time,
                    r.kind,
                    r.core,
                    r.realm,
                    r.rec,
                    mask_span_ids(&r.detail),
                )
            })
            .collect();
        drop(s);
        (
            records,
            obs.profiler.label_stats().into_keys().collect::<Vec<_>>(),
        )
    };
    let (early, early_spans) = run(true);
    let (late, late_spans) = run(false);
    assert_eq!(early.len(), late.len());
    for (i, (a, b)) in early.iter().zip(&late).enumerate() {
        assert_eq!(a, b, "record {i}");
    }
    assert_eq!(early_spans, late_spans);
    assert_eq!(
        late_spans,
        [
            "exit.handle",
            "exit.roundtrip",
            "io.poll",
            "rmm.inject",
            "rpc.request",
            "rpc.response",
            "sched.slice",
            "timer.delegated_fire",
            "virtio.backend",
            "virtio.complete",
            "virtio.drain",
            "virtio.kick",
            "wakeup.scan",
            "wakeup.watchdog_scan",
        ]
    );
    for prefix in [
        "chan.", "vgic.", "gic.", "timer.", "sched.", "wakeup.", "io.",
    ] {
        assert!(
            late.iter().any(|r| r.5.starts_with(prefix)),
            "no `{prefix}` record"
        );
    }
}
