//! # cg-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§5), each
//! printing paper-reported values next to measured values:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig3` | the vulnerability timeline (§2.2) |
//! | `table2` | null RMM call latencies (§4.3) |
//! | `table3` | virtual IPI latencies (§4.4) |
//! | `table4` | interrupt delegation effect on CoreMark-PRO exits |
//! | `fig6` | CoreMark-PRO scaling with guest core count |
//! | `fig7` | aggregate throughput of many 4-core VMs |
//! | `fig8` | NetPIPE latency/throughput, virtio vs SR-IOV |
//! | `fig9` | IOzone sync read/write throughput |
//! | `fig10` | parallel kernel build time |
//! | `table5` | Redis throughput and latency percentiles |
//! | `security_eval` | the leakage analysis backing the security claim |
//! | `fault_sweep` | doorbell-loss fault injection vs retry/watchdog recovery (§1 threat model) |
//! | `churn` | elastic multi-tenant churn: time-to-admit with defrag on vs off (§3 planner) |
//! | `cvm_comparison` | shared-core confidential VMs vs core-gapped CVMs (§5.1, §5.5) |
//! | `tdx_ablation` | CCA-style vs TDX-style page-table interfaces on the fault path (§6.1) |
//! | `planner_ablation` | coarse-grained replanning of core bindings against fragmentation (§3) |
//! | `io_fastpath` | shared-memory virtio fast path vs exit-per-kick, with the EVENT_IDX ablation |
//! | `ivc_pingpong` | attested inter-CVM channels vs host-relayed virtio |
//! | `migrate` | live-migration downtime, pre-copy vs stop-and-copy, and tampered-blob aborts |
//! | `fleet` | SLO attainment of the serving plane under overload, three ablations |
//! | `aggregate` | merges the histogram rows of several `--json` reports |
//!
//! Shared output helpers live here, together with the [`Report`]
//! accumulator every binary threads its results through. All binaries
//! accept the same observability flags:
//!
//! | flag | effect |
//! |---|---|
//! | `--quick` | smaller run (where the binary supports it) |
//! | `--json <path>` | machine-readable report of every printed row |
//! | `--trace-out <path>` | Chrome-trace span profile (load in Perfetto) |
//! | `--timeseries <path>` | periodic gauge samples as CSV |
//! | `--attrib` | per-plane latency attribution (queueing / backend / delivery / drain) |
//!
//! Everything is off by default; the simulation itself is byte-for-byte
//! identical whether or not the sinks are enabled.

#![warn(missing_docs)]

use std::fmt::Display;
use std::path::PathBuf;

use cg_core::obs::DEFAULT_SAMPLE_PERIOD;
use cg_core::Obs;
use cg_sim::{Histogram, Json};

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Prints a `measured vs paper` row with relative deviation.
pub fn row(name: &str, measured: f64, paper: f64, unit: &str) {
    let dev = if paper != 0.0 {
        format!("{:+6.1}%", (measured - paper) / paper * 100.0)
    } else {
        "   n/a".to_owned()
    };
    println!("{name:<52} measured {measured:>12.2} {unit:<5} paper {paper:>12.2} {unit:<5} {dev}");
}

/// Prints a plain measured row (no paper analogue).
pub fn row_measured(name: &str, measured: impl Display, unit: &str) {
    println!("{name:<52} measured {measured:>12} {unit:<5}");
}

/// Prints a table column header line.
pub fn columns(cols: &[&str]) {
    println!("{}", cols.join("\t"));
}

/// Relative deviation in percent, or `None` when the paper value is 0.
fn deviation_pct(measured: f64, paper: f64) -> Option<f64> {
    (paper != 0.0).then(|| (measured - paper) / paper * 100.0)
}

/// The per-binary experiment report.
///
/// Parses the shared observability CLI flags, owns the [`Obs`] bundle
/// that experiment runs record through, and mirrors every printed table
/// row into a machine-readable accumulator. [`Report::finish`] writes
/// whatever sinks the flags requested; with no flags it writes nothing,
/// so existing stdout-only usage is unchanged.
#[derive(Debug)]
pub struct Report {
    bench: String,
    quick: bool,
    json_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    timeseries_out: Option<PathBuf>,
    attrib: bool,
    obs: Obs,
    rows: Vec<Json>,
    notes: Vec<(String, Json)>,
}

impl Report {
    /// Builds a report named `bench` from the process arguments.
    pub fn from_args(bench: &str) -> Report {
        Report::from_iter(bench, std::env::args().skip(1))
    }

    /// Builds a report named `bench` from an explicit argument list
    /// (exposed for tests).
    pub fn from_iter(bench: &str, args: impl IntoIterator<Item = String>) -> Report {
        let mut quick = false;
        let mut json_out = None;
        let mut trace_out = None;
        let mut timeseries_out = None;
        let mut attrib = false;
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => quick = true,
                "--json" => json_out = it.next().map(PathBuf::from),
                "--trace-out" => trace_out = it.next().map(PathBuf::from),
                "--timeseries" => timeseries_out = it.next().map(PathBuf::from),
                "--attrib" => attrib = true,
                _ => {}
            }
        }
        // Attribution consumes causally-traced spans, so `--attrib`
        // turns the profiler on even without a trace file.
        let spans = trace_out.is_some() || attrib;
        let obs = match (spans, timeseries_out.is_some()) {
            (true, true) => Obs::full(DEFAULT_SAMPLE_PERIOD),
            (true, false) => Obs::spans(),
            (false, true) => Obs::sampled(DEFAULT_SAMPLE_PERIOD),
            (false, false) => Obs::disabled(),
        };
        Report {
            bench: bench.to_owned(),
            quick,
            json_out,
            trace_out,
            timeseries_out,
            attrib,
            obs,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Whether `--quick` was passed.
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// The observability bundle to pass to `run_*_obs` experiment
    /// entry points. Disabled (and free) unless `--trace-out` or
    /// `--timeseries` was given.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Prints a `measured vs paper` row and records it.
    pub fn row(&mut self, name: &str, measured: f64, paper: f64, unit: &str) {
        row(name, measured, paper, unit);
        self.record_row(name, measured, paper, unit);
    }

    /// Records a `measured vs paper` row without printing (for binaries
    /// with bespoke tabular output).
    pub fn record_row(&mut self, name: &str, measured: f64, paper: f64, unit: &str) {
        let dev = deviation_pct(measured, paper).map_or(Json::Null, Json::from);
        self.rows.push(Json::obj([
            ("name", Json::from(name)),
            ("measured", Json::from(measured)),
            ("paper", Json::from(paper)),
            ("unit", Json::from(unit)),
            ("deviation_pct", dev),
        ]));
    }

    /// Prints a plain measured row and records it.
    pub fn value(&mut self, name: &str, measured: f64, unit: &str) {
        row_measured(name, format!("{measured:.2}"), unit);
        self.record(name, measured, unit);
    }

    /// Records a measured value without printing.
    pub fn record(&mut self, name: &str, measured: f64, unit: &str) {
        self.rows.push(Json::obj([
            ("name", Json::from(name)),
            ("measured", Json::from(measured)),
            ("unit", Json::from(unit)),
        ]));
    }

    /// Prints a one-line percentile summary of a latency histogram and
    /// records the full percentile set (p50/p95/p99/p99.9, min/max,
    /// mean, count). `scale` divides every recorded sample (e.g. 1000.0
    /// to report a µs histogram in ms).
    pub fn histogram(&mut self, name: &str, hist: &Histogram, scale: f64, unit: &str) {
        if hist.is_empty() {
            return;
        }
        let p = |q: f64| hist.percentile(q) / scale;
        println!(
            "{name:<52} n {:>8}  p50 {:>8.3} p95 {:>8.3} p99 {:>8.3} p99.9 {:>8.3} {unit}",
            hist.count(),
            p(50.0),
            p(95.0),
            p(99.0),
            p(99.9)
        );
        // The raw (unscaled) distribution parts ride along so an
        // aggregator can rebuild the histogram with
        // [`Histogram::from_parts`] and merge it across runs — merged
        // percentiles come from merged buckets, not averaged p-values.
        let buckets = Json::arr(
            hist.nonzero_buckets()
                .map(|(idx, count)| Json::arr([Json::from(idx as u64), Json::from(count)])),
        );
        self.rows.push(Json::obj([
            ("name", Json::from(name)),
            ("kind", Json::from("histogram")),
            ("unit", Json::from(unit)),
            ("count", Json::from(hist.count())),
            ("mean", Json::from(hist.mean() / scale)),
            ("min", Json::from(hist.min() / scale)),
            ("max", Json::from(hist.max() / scale)),
            ("p50", Json::from(p(50.0))),
            ("p95", Json::from(p(95.0))),
            ("p99", Json::from(p(99.0))),
            ("p999", Json::from(p(99.9))),
            ("scale", Json::from(scale)),
            ("sum_raw", Json::from(hist.sum())),
            ("min_raw", Json::from(hist.min())),
            ("max_raw", Json::from(hist.max())),
            ("zero_count", Json::from(hist.zero_count())),
            ("buckets", buckets),
        ]));
    }

    /// Attaches a free-form metadata entry to the JSON report.
    pub fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_owned(), value));
    }

    /// Whether `--attrib` was passed.
    pub fn attrib(&self) -> bool {
        self.attrib
    }

    /// Records a run's counters grouped by execution plane (the
    /// [`cg_core::counters`] registry) into the JSON report.
    pub fn counters_by_plane(&mut self, counters: &cg_core::counters::SystemCounters) {
        let groups = cg_core::counters::group_by_plane(counters);
        let obj = Json::obj(groups.into_iter().map(|(plane, entries)| {
            (
                plane.name(),
                Json::obj(
                    entries
                        .into_iter()
                        .map(|(name, value)| (name.to_owned(), Json::from(value))),
                ),
            )
        }));
        self.notes.push(("counters".to_owned(), obj));
    }

    /// Prints and records the per-plane latency attribution over every
    /// request traced so far (no-op unless `--attrib` was passed).
    /// Call after the runs of interest, before [`Report::finish`].
    pub fn attribution(&mut self) {
        if !self.attrib {
            return;
        }
        let attrib = cg_sim::attribute(&self.obs.profiler.snapshot());
        if attrib.planes.is_empty() {
            println!("attribution: no traced requests");
            return;
        }
        header("latency attribution (p50 µs per component)");
        println!(
            "{:<10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>10}",
            "plane", "requests", "queueing", "backend", "delivery", "drain", "component-sum", "e2e"
        );
        let mut rows = Vec::new();
        for p in &attrib.planes {
            let q = p.queueing_us.percentile(50.0);
            let b = p.backend_us.percentile(50.0);
            let d = p.delivery_us.percentile(50.0);
            let dr = p.drain_us.percentile(50.0);
            let e2e = p.e2e_us.percentile(50.0);
            println!(
                "{:<10} {:>10} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>12.3} {:>10.3}",
                p.plane,
                p.requests,
                q,
                b,
                d,
                dr,
                p.component_p50_sum(),
                e2e
            );
            rows.push(Json::obj([
                ("plane", Json::from(p.plane)),
                ("requests", Json::from(p.requests)),
                ("queueing_p50_us", Json::from(q)),
                ("backend_p50_us", Json::from(b)),
                ("delivery_p50_us", Json::from(d)),
                ("drain_p50_us", Json::from(dr)),
                ("component_p50_sum_us", Json::from(p.component_p50_sum())),
                ("e2e_p50_us", Json::from(e2e)),
                ("e2e_p99_us", Json::from(p.e2e_us.percentile(99.0))),
            ]));
        }
        self.notes.push(("attrib".to_owned(), Json::arr(rows)));
    }

    /// Writes every sink requested on the command line. Consumes the
    /// report; call it last.
    pub fn finish(mut self) {
        // Unbalanced-span tripwire: every begin() must have met its
        // end() by the time the runs are over. A non-zero count means a
        // code path minted a root span and dropped it — the trace would
        // silently lose its flow arrows there.
        if self.obs.profiler.is_enabled() {
            let open = self.obs.profiler.open_count();
            self.notes
                .push(("open_spans".to_owned(), Json::from(open as u64)));
            if open > 0 {
                println!("WARNING: {open} span(s) still open at end of run");
            }
            debug_assert_eq!(open, 0, "unbalanced spans at end of run");
        }
        if let Some(path) = &self.json_out {
            let mut root = Json::obj([
                ("bench", Json::from(self.bench.as_str())),
                ("quick", Json::from(self.quick)),
                ("rows", Json::arr(self.rows)),
            ]);
            if !self.notes.is_empty() {
                root.push_field("notes", Json::obj(self.notes));
            }
            if self.obs.profiler.is_enabled() {
                root.push_field("spans", span_stats(&self.obs.profiler));
            }
            let mut text = root.render();
            text.push('\n');
            std::fs::write(path, text).expect("write --json report");
        }
        if let Some(path) = &self.trace_out {
            std::fs::write(path, self.obs.profiler.chrome_trace()).expect("write --trace-out");
        }
        if let Some(path) = &self.timeseries_out {
            std::fs::write(path, self.obs.timeseries.to_csv()).expect("write --timeseries");
        }
    }
}

/// Per-label span statistics for the JSON report: count, mean and max
/// duration in µs (the unit [`cg_sim::Profiler::label_stats`] reports).
fn span_stats(profiler: &cg_sim::Profiler) -> Json {
    Json::obj(profiler.label_stats().into_iter().map(|(label, s)| {
        (
            label,
            Json::obj([
                ("count", Json::from(s.count())),
                ("mean_us", Json::from(s.mean())),
                ("max_us", Json::from(s.max())),
            ]),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_sim::{Profiler, SimDuration, SpanKind, TraceHandle};

    #[test]
    fn span_stats_export_microseconds() {
        let (profiler, trace) = (Profiler::capture(), TraceHandle::disabled());
        trace.attach_spans(&profiler);
        trace.record_dur(
            SpanKind::WorldSwitch,
            Some(0),
            None,
            None,
            SimDuration::nanos(5_000),
        );
        let spans = span_stats(&profiler);
        let ws = spans.get("world.switch").expect("span exported");
        assert_eq!(ws.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(ws.get("mean_us").and_then(Json::as_f64), Some(5.0));
        assert_eq!(ws.get("max_us").and_then(Json::as_f64), Some(5.0));
    }
}
