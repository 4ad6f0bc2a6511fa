//! `perf`: the repository benchmark. See `PERF.md` for the workloads,
//! the metrics and how to read a comparison.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use cg_sim::Json;
use coregap_perfbench::metrics::{end_to_end, per_layer};
use coregap_perfbench::outputs::{drift, golden_dir, is_bucket, Goldens};
use coregap_perfbench::run::run;
use coregap_perfbench::spans::chrome_trace;
use coregap_perfbench::stats::{verdict, Better, Summary, Verdict};
use coregap_perfbench::workload::{run_pass, Mode, Scenario, Size, Workload};

const USAGE: &str = "\
usage:
  perf [--repeat N] [--seconds S] [--seed N] [--smoke] [--json PATH]
       [--trace 0|1] [--trace-out DIR]
      every workload, one child process per (workload, repeat), round-robin
  perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       [--trace-out DIR] [--detail]
      one workload in this process; the last line of output is the result
  perf compare A.json B.json
      one row per (metric, workload): better, same, worse or unresolved
  perf golden
      rewrite the golden files (seeds 0-31 and each workload's default
      seed; smoke size at the default seed and 7)";

/// Command-line options of a run or a suite.
#[derive(Debug)]
struct Opts {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    smoke: bool,
    detail: bool,
    repeat: usize,
    json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("not a number: {s}"))
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            workload: None,
            seed: None,
            seconds: 4.0,
            trace: false,
            smoke: false,
            detail: false,
            repeat: 5,
            json: None,
            trace_out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    o.workload =
                        Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
                }
                "--seed" => o.seed = Some(parse_u64(value()?)?),
                "--seconds" => {
                    o.seconds = value()?
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && s.is_finite())
                        .ok_or("--seconds needs a positive number")?
                }
                "--trace" => {
                    o.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--repeat" => {
                    o.repeat = parse_u64(value()?)?
                        .try_into()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or("--repeat needs a positive number")?
                }
                "--json" => o.json = Some(value()?.into()),
                "--trace-out" => o.trace_out = Some(value()?.into()),
                "--smoke" => o.smoke = true,
                "--detail" => o.detail = true,
                "-h" | "--help" => return Err(USAGE.into()),
                _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
            }
        }
        Ok(o)
    }

    fn size(&self) -> Size {
        if self.smoke {
            Size::Smoke
        } else {
            Size::Full
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("golden") if args.len() == 1 => golden(),
        _ => Opts::parse(&args).and_then(|o| match o.workload {
            Some(w) => one(&o, w),
            None => suite(&o),
        }),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        ExitCode::from(2)
    })
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One workload in this process.
fn one(o: &Opts, w: Workload) -> Result<ExitCode, String> {
    let scn = Scenario::seeded(w, o.seed.unwrap_or(w.default_seed()), o.size());
    let r = run(
        scn,
        Duration::from_secs_f64(o.seconds),
        o.trace,
        &golden_dir(),
    )?;
    r.print();
    if let (Some(dir), Some(spans)) = (&o.trace_out, &r.spans) {
        let path = dir.join(format!("{}.spans.json", w.name()));
        write(&path, &chrome_trace(w, spans))?;
        println!("wrote {}", path.display());
    }
    if o.detail {
        println!("detail {}", r.detail_json().render());
    }
    println!("{}", r.result_json().render());
    Ok(if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, each run in a child process of its own so that its
/// peak memory is its own; repeats go round-robin across workloads so
/// that drift of the machine spreads evenly.
fn suite(o: &Opts) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let repeat = if o.trace { 1 } else { o.repeat };
    let mut details: BTreeMap<Workload, Vec<Json>> = BTreeMap::new();
    let mut ok = true;
    for r in 0..repeat {
        for w in Workload::ALL {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--detail"])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if o.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit());
            if let Some(seed) = o.seed {
                cmd.args(["--seed", &seed.to_string()]);
            }
            if o.smoke {
                cmd.arg("--smoke");
            }
            if let Some(dir) = &o.trace_out {
                cmd.arg("--trace-out").arg(dir);
            }
            let out = cmd
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let detail = stdout
                .lines()
                .find_map(|l| l.strip_prefix("detail "))
                .map(Json::parse);
            let Some(Ok(detail)) = detail else {
                print!("{stdout}");
                return Err(format!("{} run {} printed no result", w.name(), r + 1));
            };
            if !out.status.success() {
                ok = false;
                print!("{stdout}");
            }
            let e2e = &detail.get("end_to_end").expect("detail has end_to_end");
            let metric = |n: &str| {
                e2e.get(n)
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN)
            };
            println!(
                "[{}/{repeat}] {:<15} wall_s {:.4}  setup_s {:.6}  model_drift {}  {}",
                r + 1,
                w.name(),
                metric("wall_s"),
                metric("setup_s"),
                detail
                    .get("model_drift")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                if out.status.success() {
                    "ok"
                } else {
                    "INCORRECT"
                },
            );
            details.entry(w).or_default().push(detail);
        }
    }

    let mut report = Vec::new();
    let mut layers = Vec::new();
    for (&w, runs) in &details {
        let (entry, consistent) = summarise(w, runs);
        ok &= consistent;
        report.push((w.name(), entry));
        if let Some(l) = runs[0].get("per_layer") {
            layers.push((w.name(), l.clone()));
        }
    }
    print_summary(&report);
    if !layers.is_empty() {
        print_layers(&layers);
        if let Some(dir) = &o.trace_out {
            let path = dir.join("layers.json");
            write(&path, &Json::obj(layers).render())?;
            println!("wrote {}", path.display());
        }
    }
    if let Some(path) = &o.json {
        let doc = Json::obj([
            ("bench", Json::from("perf")),
            ("size", Json::from(o.size().name())),
            ("repeat", Json::from(repeat)),
            ("seconds", Json::from(o.seconds)),
            ("trace", Json::from(o.trace)),
            (
                "nproc",
                Json::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
            ),
            ("workloads", Json::obj(report)),
        ]);
        write(path, &(doc.render() + "\n"))?;
        println!("wrote {}", path.display());
    }
    println!(
        "{}",
        if ok {
            "all runs correct"
        } else {
            "SOME RUNS INCORRECT"
        }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Summarises one workload's runs; the flag is false when any run was
/// incorrect or two runs' modelled outputs differ.
fn summarise(w: Workload, runs: &[Json]) -> (Json, bool) {
    let first = &runs[0];
    let exact = |d: &Json| exact_values(d.get("exact").expect("detail has exact"));
    let mut consistent = runs
        .iter()
        .all(|d| d.get("correct") == Some(&Json::Bool(true)));
    for (i, d) in runs.iter().enumerate().skip(1) {
        let diff = drift(&exact(first), &exact(d));
        if !diff.is_empty() {
            consistent = false;
            println!(
                "{}: run {} outputs differ from run 1: {}",
                w.name(),
                i + 1,
                diff.join(", ")
            );
        }
    }
    let metrics = end_to_end().into_iter().map(|def| {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|d| d.get("end_to_end")?.get(&def.name)?.get("value")?.as_f64())
            .collect();
        let s = Summary::of(&values);
        let entry = Json::obj([
            ("unit", Json::from(def.unit)),
            ("better", Json::from(def.better.name())),
            ("median", Json::from(s.median)),
            ("q1", Json::from(s.q1)),
            ("q3", Json::from(s.q3)),
            ("min", Json::from(s.min)),
            ("max", Json::from(s.max)),
            ("n", Json::from(s.n)),
            ("values", Json::arr(values.into_iter().map(Json::from))),
        ]);
        (def.name, entry)
    });
    let field = |k: &str| first.get(k).cloned().unwrap_or(Json::Null);
    let entry = Json::obj([
        ("seed", field("seed")),
        ("inputs", field("inputs")),
        ("load", Json::from(w.load())),
        ("correct", Json::from(consistent)),
        (
            "model_drift",
            Json::arr(
                runs.iter()
                    .map(|d| d.get("model_drift").cloned().unwrap_or(Json::Null)),
            ),
        ),
        ("end_to_end", Json::obj(metrics)),
        ("exact", field("exact")),
    ]);
    (entry, consistent)
}

fn exact_values(exact: &Json) -> BTreeMap<String, f64> {
    match exact {
        Json::Obj(pairs) => pairs
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

fn print_summary(report: &[(&str, Json)]) {
    println!();
    println!(
        "{:<15} {:<17} {:>14} {:>14} {:>14} {:>14} {:>14} {:>3}  unit",
        "workload", "metric", "median", "q1", "q3", "min", "max", "n"
    );
    for (w, entry) in report {
        let Some(Json::Obj(metrics)) = entry.get("end_to_end") else {
            continue;
        };
        for (name, m) in metrics {
            let f = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            println!(
                "{w:<15} {name:<17} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>3}  {}",
                f("median"),
                f("q1"),
                f("q3"),
                f("min"),
                f("max"),
                f("n"),
                m.get("unit").and_then(Json::as_str).unwrap_or("")
            );
        }
    }
    println!();
    println!("modelled outputs (simulated time; exact, identical in every run)");
    for (w, entry) in report {
        let Some(Json::Obj(exact)) = entry.get("exact") else {
            continue;
        };
        let scalars: Vec<String> = exact
            .iter()
            .filter(|(k, _)| !is_bucket(k))
            .map(|(k, v)| format!("{k} {}", v.render()))
            .collect();
        println!("{w:<15} {}", scalars.join("  "));
    }
}

fn print_layers(layers: &[(&str, Json)]) {
    println!();
    print!("{:<36}", "per-layer metric");
    for (w, _) in layers {
        print!(" {w:>15}");
    }
    println!("  unit");
    for def in per_layer() {
        print!("{:<36}", def.name);
        for (_, l) in layers {
            let v = l
                .get(&def.name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            print!(" {v:>15.4}");
        }
        println!("  {}", def.unit);
    }
}

/// The bounds and directions `BENCHMARK.json` fixes for the end-to-end
/// metrics.
fn bounds() -> Result<Vec<(String, Better, f64)>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = read_json(path)?;
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no end_to_end list"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok((n.to_owned(), b, x)),
                _ => Err(format!("{path}: malformed end_to_end entry {}", m.render())),
            }
        })
        .collect()
}

/// `perf compare A.json B.json`: A is the parent, B the change.
fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.into());
    };
    let (da, db) = (read_json(a)?, read_json(b)?);
    let bounds = bounds()?;
    let workloads = |d: &Json| match d.get("workloads") {
        Some(Json::Obj(w)) => w.clone(),
        _ => Vec::new(),
    };
    let (wa, wb) = (workloads(&da), workloads(&db));
    let mut worse = false;
    println!(
        "{:<17} {:<15} {:>13} {:>13} {:>8} {:>6}  verdict",
        "metric", "workload", "A median", "B median", "change", "bound"
    );
    for (name, better, bound) in &bounds {
        for (w, ea) in &wa {
            let Some((_, eb)) = wb.iter().find(|(n, _)| n == w) else {
                continue;
            };
            let values = |e: &Json| -> Vec<f64> {
                e.get("end_to_end")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("values"))
                    .and_then(Json::as_arr)
                    .map(|v| v.iter().filter_map(Json::as_f64).collect())
                    .unwrap_or_default()
            };
            let (va, vb) = (values(ea), values(eb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, *better, *bound);
            worse |= v == Verdict::Worse;
            let (ma, mb) = (Summary::of(&va).median, Summary::of(&vb).median);
            println!(
                "{name:<17} {w:<15} {ma:>13.6} {mb:>13.6} {:>+7.2}% {:>5.0}%  {}",
                (mb - ma) / ma * 100.0,
                bound * 100.0,
                v.name()
            );
        }
    }
    for (w, ea) in &wa {
        let Some((_, eb)) = wb.iter().find(|(n, _)| n == w) else {
            continue;
        };
        let exact = |e: &Json| exact_values(e.get("exact").unwrap_or(&Json::Null));
        let diff = drift(&exact(ea), &exact(eb));
        if diff.is_empty() {
            println!("exact outputs     {w:<15} identical");
        } else {
            worse = true;
            println!("exact outputs     {w:<15} CHANGED: {}", diff.join(", "));
        }
    }
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Seeds `0..GOLDEN_SEEDS` have full-size golden entries.
const GOLDEN_SEEDS: u64 = 32;

/// `perf golden`: rewrites every golden file from the current build.
/// Only a change that edits the benchmark may do this.
fn golden() -> Result<ExitCode, String> {
    for w in Workload::ALL {
        let mut goldens = Goldens::default();
        let mut full: Vec<u64> = (0..GOLDEN_SEEDS).collect();
        full.push(w.default_seed());
        let entries = full
            .iter()
            .map(|&s| (Size::Full, s))
            .chain([w.default_seed(), 7].map(|s| (Size::Smoke, s)));
        for (size, seed) in entries {
            let scn = Scenario::seeded(w, seed, size);
            let pass = run_pass(&scn, Mode::Untraced);
            let problems = coregap_perfbench::checks::check(&scn, &pass.outputs);
            if !problems.is_empty() {
                return Err(format!("{} seed {seed}: {}", w.name(), problems.join("; ")));
            }
            let (lat, rate) = coregap_perfbench::checks::headline(w);
            let g = |n: &str| pass.outputs.get(n).unwrap_or(f64::NAN);
            println!(
                "{} {} seed {seed}: {lat} {:.4}  {rate} {:.2}  paper_dev_pct {:.2}",
                w.name(),
                size.name(),
                g(lat),
                g(rate),
                g("paper_dev_pct")
            );
            goldens.insert(&scn, &pass.outputs);
        }
        goldens.write(&golden_dir(), w)?;
    }
    Ok(ExitCode::SUCCESS)
}
