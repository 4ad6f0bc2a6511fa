//! One benchmark run: one workload, repeated passes for a host-time
//! budget, every output checked, and the metrics reported.

use std::path::Path;
use std::time::{Duration, Instant};

use cg_sim::Json;

use crate::checks::{attempted_failed, check, headline};
use crate::layers::{microbenchmarks, per_layer_values};
use crate::metrics::{end_to_end, per_layer, MetricDef};
use crate::outputs::{drift, Goldens, Outputs};
use crate::spans::{host_spans, HostSpan};
use crate::stats::Summary;
use crate::workload::{run_pass, setup_only, Mode, Scenario};

/// Set-ups timed after each pass; they spread over the whole run so
/// that `setup_s`, their median, sees the machine as the passes do.
const SETUPS_PER_PASS: usize = 3;
/// Set-ups per run at least.
const MIN_SETUPS: usize = 21;
/// Host seconds of untraced budget per pass that `wall_s` is timed
/// over. A pass of the slowest workload takes about 0.9 s on a 2.0 GHz
/// x86-64 core, so the timed passes fill under half the budget and
/// still fit it when contention slows them 1.8×.
const BUDGET_S_PER_TIMED_PASS: f64 = 2.0;

/// How many passes `wall_s` is the fastest of. The number depends on the
/// budget alone: were it however many passes fit, faster code would
/// also get a larger sample, whose minimum is lower.
pub fn timed_passes(untraced_budget: Duration) -> usize {
    ((untraced_budget.as_secs_f64() / BUDGET_S_PER_TIMED_PASS) as usize).max(1)
}

/// What one run measured and checked.
#[derive(Debug)]
pub struct RunResult {
    /// The scenario run.
    pub scenario: Scenario,
    /// Untraced passes made.
    pub passes: usize,
    /// Host seconds of the run phase of each timed pass, the first
    /// [`timed_passes`] untraced ones.
    pub wall_s: Summary,
    /// Host seconds of each set-up.
    pub setup_s: Summary,
    /// End-to-end metrics, in catalogue order.
    pub end_to_end: Vec<(MetricDef, f64)>,
    /// Per-layer metrics (traced runs only), in catalogue order.
    pub per_layer: Option<Vec<(MetricDef, f64)>>,
    /// Host spans of the traced pass.
    pub spans: Option<Vec<HostSpan>>,
    /// The modelled outputs of the first pass.
    pub outputs: Outputs,
    /// The golden entry checked, as `size.seed`.
    pub golden: Option<String>,
    /// Outputs differing from the golden entry.
    pub drift: Vec<String>,
    /// Every failed check.
    pub problems: Vec<String>,
    /// Modelled operations attempted, over all untraced passes.
    pub attempted: u64,
    /// Modelled operations lost, over all untraced passes.
    pub failed: u64,
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Runs `scn` in untraced passes until `budget` of host time is spent
/// and the timed passes are made, then checks the outputs against the
/// golden file in `golden_dir`, which must exist. A traced run spends
/// half the budget untraced, then runs the microbenchmarks and one
/// traced pass.
pub fn run(
    scn: Scenario,
    budget: Duration,
    traced: bool,
    golden_dir: &Path,
) -> Result<RunResult, String> {
    let goldens = Goldens::load(golden_dir, scn.workload)?;
    let start = Instant::now();
    let untraced_budget = if traced { budget / 2 } else { budget };
    let timed = timed_passes(untraced_budget);
    let mut passes = vec![run_pass(&scn, Mode::Untraced)];
    // The peak of one pass: later passes only add allocator
    // fragmentation, which varies with how many passes fit the budget.
    let rss_mb = peak_rss_mb()?;
    // Passes after the timed ones add set-up samples spread over the
    // budget, and more determinism checks.
    let mut setups = Vec::new();
    loop {
        setups.extend((0..SETUPS_PER_PASS).map(|_| setup_only(&scn).as_secs_f64()));
        if passes.len() >= timed && start.elapsed() >= untraced_budget {
            break;
        }
        passes.push(run_pass(&scn, Mode::Untraced));
    }
    while setups.len() < MIN_SETUPS {
        setups.push(setup_only(&scn).as_secs_f64());
    }

    let outputs = passes[0].outputs.clone();
    let values = outputs.values();
    let mut problems = check(&scn, &outputs);
    for (i, p) in passes.iter().enumerate().skip(1) {
        let d = drift(&values, &p.outputs.values());
        if !d.is_empty() {
            problems.push(format!("pass {i} differs from pass 0 in {}", d.join(", ")));
        }
    }
    let golden = goldens.get(&scn);
    let golden_drift = golden.map(|g| drift(g, &values)).unwrap_or_default();
    if !golden_drift.is_empty() {
        problems.push(format!(
            "model_drift {}: {} differ from the golden entry",
            golden_drift.len(),
            golden_drift.join(", ")
        ));
    }
    let (mut attempted, mut failed) = (0, 0);
    for p in &passes {
        let (a, f) = attempted_failed(scn.workload, &p.outputs);
        attempted += a;
        failed += f;
    }

    let run_s: Vec<f64> = passes[..timed]
        .iter()
        .map(|p| p.timeline.run().as_secs_f64())
        .collect();
    let wall_s = Summary::of(&run_s);
    let setup_s = Summary::of(&setups);
    let (latency, rate) = headline(scn.workload);
    let value = |name: &str| outputs.get(name).expect("headline output present");
    let e2e_values = [
        wall_s.min,
        setup_s.median,
        rss_mb,
        value(latency),
        value(rate),
    ];
    let end_to_end = end_to_end().into_iter().zip(e2e_values).collect();

    let (per_layer, spans) = if traced {
        let micro = microbenchmarks();
        let pass = run_pass(&scn, Mode::Traced);
        let d = drift(&values, &pass.outputs.values());
        if !d.is_empty() {
            problems.push(format!(
                "the traced pass differs from the untraced ones in {}",
                d.join(", ")
            ));
        }
        let layers = per_layer_values(&passes, &pass, &micro, wall_s.min);
        let list = per_layer()
            .into_iter()
            .map(|def| {
                let v = layers[&def.name];
                (def, v)
            })
            .collect();
        (Some(list), Some(host_spans(&pass)))
    } else {
        (None, None)
    };

    Ok(RunResult {
        scenario: scn,
        passes: passes.len(),
        wall_s,
        setup_s,
        end_to_end,
        per_layer,
        spans,
        outputs,
        golden: golden.map(|_| format!("{}.{}", scn.size.name(), scn.seed)),
        drift: golden_drift,
        problems,
        attempted,
        failed,
    })
}

fn metric_json(list: &[(MetricDef, f64)]) -> Json {
    Json::obj(list.iter().map(|(d, v)| {
        (
            d.name.clone(),
            Json::obj([("value", Json::from(*v)), ("unit", Json::from(d.unit))]),
        )
    }))
}

impl RunResult {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The metrics this run reports: per-layer for a traced run,
    /// end-to-end otherwise.
    pub fn reported(&self) -> &[(MetricDef, f64)] {
        self.per_layer.as_deref().unwrap_or(&self.end_to_end)
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", metric_json(self.reported())),
        ])
    }

    /// Everything a suite run collects from a child run.
    pub fn detail_json(&self) -> Json {
        let scn = &self.scenario;
        let mut doc = Json::obj([
            ("workload", Json::from(scn.workload.name())),
            ("seed", Json::from(scn.seed)),
            ("size", Json::from(scn.size.name())),
            ("inputs", Json::from(scn.describe())),
            ("passes", Json::from(self.passes)),
            ("correct", Json::from(self.correct())),
            (
                "problems",
                Json::arr(self.problems.iter().map(|p| Json::from(p.as_str()))),
            ),
            (
                "golden",
                self.golden.as_deref().map_or(Json::Null, Json::from),
            ),
            ("model_drift", Json::from(self.drift.len())),
            ("end_to_end", metric_json(&self.end_to_end)),
            ("exact", self.outputs.to_json()),
        ]);
        if let Some(layers) = &self.per_layer {
            doc.push_field("per_layer", metric_json(layers));
        }
        doc
    }

    /// Prints the run for a reader: every metric by name with its unit,
    /// the modelled outputs, and the checks.
    pub fn print(&self) {
        let scn = &self.scenario;
        println!(
            "perf: {}, seed {}, {} size",
            scn.workload.name(),
            scn.seed,
            scn.size.name()
        );
        println!("  inputs  {}", scn.describe());
        println!("  load    {}", scn.workload.load());
        println!("end-to-end (host time, tracing off)");
        let (latency, rate) = headline(scn.workload);
        for (def, v) in &self.end_to_end {
            let how = match def.name.as_str() {
                "wall_s" => format!(
                    "fastest of the first {} of {} passes; median {:.6} q1 {:.6} q3 {:.6} max {:.6}",
                    self.wall_s.n,
                    self.passes,
                    self.wall_s.median,
                    self.wall_s.q1,
                    self.wall_s.q3,
                    self.wall_s.max
                ),
                "setup_s" => {
                    let s = &self.setup_s;
                    format!(
                        "median of {} set-ups; q1 {:.6} q3 {:.6} min {:.6} max {:.6}",
                        s.n, s.q1, s.q3, s.min, s.max
                    )
                }
                "peak_rss_mb" => "VmHWM after the first pass".to_owned(),
                "model_latency_us" => format!("= {latency}, simulated"),
                _ => format!("= {rate}, per simulated second"),
            };
            println!("  {:<18} {:>14.6} {:<4} {how}", def.name, v, def.unit);
        }
        if let Some(layers) = &self.per_layer {
            println!("per-layer (traced pass, microbenchmarks)");
            for (def, v) in layers {
                println!("  {:<36} {:>16.4} {}", def.name, v, def.unit);
            }
        }
        println!("modelled outputs (simulated; exact)");
        let scalars: Vec<_> = self.outputs.scalars().collect();
        for (name, unit, v) in &scalars {
            println!("  {name:<24} {v:>16.4} {unit}");
        }
        println!(
            "  ({} histogram buckets)",
            self.outputs.0.len() - scalars.len()
        );
        println!("checks");
        match &self.golden {
            Some(key) => println!(
                "  golden {key}: model_drift {} of {} outputs",
                self.drift.len(),
                self.outputs.0.len()
            ),
            None => println!(
                "  no golden entry for {} seed {}: invariants, paper band and determinism only",
                scn.size.name(),
                scn.seed
            ),
        }
        println!(
            "  {} modelled operations, {} lost",
            self.attempted, self.failed
        );
        for p in &self.problems {
            println!("  FAILED: {p}");
        }
        println!(
            "  {}",
            if self.correct() {
                "all checks pass"
            } else {
                "INCORRECT"
            }
        );
    }
}
