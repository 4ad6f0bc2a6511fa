//! The metric catalogue: names, units and directions. `BENCHMARK.json`
//! lists the same names; a test keeps the two in step.

use crate::stats::Better;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// The 14 `SystemEvent` variants, counted per variant in the traced pass.
pub const EVENT_VARIANTS: [&str; 14] = [
    "SegmentEnd",
    "PhysTimerFire",
    "IpiArrive",
    "DeviceIrqArrive",
    "RunRequestVisible",
    "EmulTimerFire",
    "WireToPeer",
    "WireToGuest",
    "HarassTick",
    "ObsSample",
    "CallTimeout",
    "WatchdogTick",
    "DefragTick",
    "DiskDone",
];

/// Structured-trace record kinds, as `TraceKind` displays them.
pub const RECORD_KINDS: [&str; 6] = ["pop", "sched", "irq", "rpc", "timer", "mark"];

/// Simulated span labels reported per layer.
pub const SPAN_LABELS: [&str; 9] = [
    "exit.roundtrip",
    "exit.handle",
    "rpc.request",
    "rpc.response",
    "world.switch",
    "sched.slice",
    "timer.delegated_fire",
    "wakeup.scan",
    "rmm.inject",
];

/// Counters of the modelled system reported per layer, with units and
/// directions (see `Sim::counters` for their sources).
const COUNTERS: [(&str, &str, Better); 22] = [
    ("rmm.rec_exits", "count", Better::Lower),
    ("rmm.rec_exits_irq", "count", Better::Lower),
    ("rmm.rec_enter", "count", Better::Lower),
    ("rmm.delegated_ipi_sent", "count", Better::Lower),
    ("rpc.run_calls", "count", Better::Lower),
    ("rpc.doorbell_rings", "count", Better::Lower),
    ("rpc.doorbell_ipis", "count", Better::Lower),
    ("rpc.retries", "count", Better::Lower),
    ("host.kicks", "count", Better::Lower),
    ("host.ipi_delivered", "count", Better::Lower),
    ("host.util_pct", "%", Better::Lower),
    ("host.watchdog_scans", "count", Better::Lower),
    ("fleet.offered", "count", Better::Higher),
    ("fleet.admitted", "count", Better::Higher),
    ("fleet.shed", "count", Better::Lower),
    ("fleet.completed", "count", Better::Higher),
    ("fleet.resize_up", "count", Better::Lower),
    ("fleet.resize_down", "count", Better::Lower),
    ("fleet.migrations", "count", Better::Lower),
    ("migrate.downtime_p99_us", "sim_us", Better::Lower),
    ("rpc.doorbell_ipi_ratio", "ratio", Better::Lower),
    ("rpc.timeout_pops_per_call", "ratio", Better::Lower),
];

/// Host-time microbenchmarks of single layers.
pub const MICRO: [(&str, &str); 11] = [
    ("sim.queue.schedule_pop_ns", "ns"),
    ("sim.queue.cancel_ns", "ns"),
    ("sim.counters.incr_ns", "ns"),
    ("sim.histogram.record_ns", "ns"),
    ("machine.run_compute_ns", "ns"),
    ("machine.rmm_call_cost_ns", "ns"),
    ("rmm.rmi_delegate_undelegate_ns", "ns"),
    ("rpc.channel_round_trip_ns", "ns"),
    ("host.planner_admit_release_ns", "ns"),
    ("host.frontend_admit_ns", "ns"),
    ("core.add_vm_4vcpu_us", "us"),
];

/// The end-to-end metrics, measured with tracing off.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("wall_s", "s", Better::Lower),
        def("setup_s", "s", Better::Lower),
        def("peak_rss_mb", "MB", Better::Lower),
        def("model_latency_us", "sim_us", Better::Lower),
        def("model_rate_per_s", "1/sim_s", Better::Higher),
    ]
}

/// The per-layer metrics, reported by the traced run.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::Lower;
    let mut out = vec![def("core.events", "count", Lower)];
    out.extend(
        EVENT_VARIANTS
            .iter()
            .map(|v| def(format!("core.events.{v}"), "count", Lower)),
    );
    for (name, unit) in [
        ("core.host_ns_per_event", "ns"),
        ("core.slice_p50_ms", "ms"),
        ("core.slice_p99_ms", "ms"),
        ("core.setup.system_new_ms", "ms"),
        ("core.setup.add_vms_ms", "ms"),
        ("core.tracing_overhead_pct", "%"),
        ("sim.queue.est_share_pct", "%"),
    ] {
        out.push(def(name, unit, Lower));
    }
    out.extend(
        RECORD_KINDS
            .iter()
            .map(|k| def(format!("sim.records.{k}"), "count", Lower)),
    );
    out.extend(MICRO.iter().map(|&(n, u)| def(n, u, Lower)));
    out.extend(COUNTERS.iter().map(|&(n, u, b)| def(n, u, b)));
    for label in SPAN_LABELS {
        out.push(def(format!("span.{label}.count"), "count", Lower));
        out.push(def(format!("span.{label}.mean_us"), "sim_us", Lower));
    }
    out
}
