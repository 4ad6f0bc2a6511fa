//! The benchmark checks itself: every workload runs clean at smoke
//! size against its goldens, a run without its golden file fails,
//! `wall_s` is timed over a fixed pass count, the builders reproduce the paper
//! experiments they copy, slicing and tracing change no modelled
//! output, and `BENCHMARK.json` names exactly the metrics `perf`
//! reports.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output};
use std::time::Duration;

use cg_core::experiments::apps::run_redis_obs;
use cg_core::experiments::fleet::{run_fleet, FleetConfig};
use cg_core::experiments::scaling::{run_coremark_obs, ScalingConfig};
use cg_core::Obs;
use cg_sim::{Json, SimDuration};
use cg_workloads::redis::RedisCommand;
use coregap_perfbench::metrics::{end_to_end, per_layer, MetricDef};
use coregap_perfbench::outputs::{golden_dir, Outputs};
use coregap_perfbench::run::{run, timed_passes};
use coregap_perfbench::spans::{chrome_trace, host_spans};
use coregap_perfbench::workload::{
    fleet_fingerprint, run_pass, run_unsliced, Inputs, Mode, Scenario, Size, Workload,
};

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perf runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The result line and the detail line of a child run.
fn result_and_detail(out: &Output) -> (Json, Json) {
    let text = stdout(out);
    let last = text.lines().last().expect("some output");
    let detail = text
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .expect("detail line");
    (
        Json::parse(last).expect("result line is JSON"),
        Json::parse(detail).expect("detail line is JSON"),
    )
}

fn keys(obj: &Json) -> Vec<String> {
    match obj {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    }
}

fn names(defs: &[MetricDef]) -> Vec<String> {
    defs.iter().map(|d| d.name.clone()).collect()
}

#[test]
fn smoke_runs_are_correct_at_the_default_and_held_out_seeds() {
    for w in Workload::ALL {
        for seed in [w.default_seed(), 7] {
            let seed = seed.to_string();
            let out = perf(&[
                "--workload",
                w.name(),
                "--smoke",
                "--seconds",
                "0.01",
                "--seed",
                &seed,
                "--trace",
                "0",
                "--detail",
            ]);
            assert!(
                out.status.success(),
                "{} seed {seed}:\n{}",
                w.name(),
                stdout(&out)
            );
            let (result, detail) = result_and_detail(&out);
            assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64) > Some(0));
            assert_eq!(keys(result.get("metrics").unwrap()), names(&end_to_end()));
            assert_eq!(
                detail.get("golden").and_then(Json::as_str),
                Some(format!("smoke.{seed}").as_str()),
                "{} has no smoke golden for seed {seed}",
                w.name()
            );
            assert_eq!(detail.get("model_drift").and_then(Json::as_u64), Some(0));
            for m in end_to_end() {
                let v = result.get("metrics").unwrap().get(&m.name).unwrap();
                assert!(
                    v.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                    "{}",
                    m.name
                );
            }
        }
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    for w in Workload::ALL {
        let out = perf(&[
            "--workload",
            w.name(),
            "--smoke",
            "--seconds",
            "0.01",
            "--trace",
            "1",
        ]);
        assert!(out.status.success(), "{}:\n{}", w.name(), stdout(&out));
        let text = stdout(&out);
        let result = Json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(keys(result.get("metrics").unwrap()), names(&per_layer()));
    }
}

#[test]
fn an_unknown_workload_fails_without_a_result() {
    let out = perf(&["--workload", "no-such-workload"]);
    assert!(!out.status.success());
    assert!(stdout(&out).is_empty());
}

#[test]
fn a_run_without_its_golden_file_is_an_error() {
    let missing = Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-golden-files");
    let scn = Scenario::seeded(Workload::GappedCompute, 42, Size::Smoke);
    let err = run(scn, Duration::from_millis(1), false, &missing).unwrap_err();
    assert!(err.contains("golden file"), "{err}");
}

#[test]
fn wall_s_is_timed_over_a_pass_count_the_budget_fixes() {
    assert_eq!(timed_passes(Duration::from_secs(20)), 10);
    assert_eq!(timed_passes(Duration::from_millis(10)), 1);
    // Smoke passes are short, so many more than the timed ones fit.
    let scn = Scenario::seeded(Workload::RedisSriov, 42, Size::Smoke);
    let r = run(scn, Duration::from_secs(4), false, &golden_dir()).unwrap();
    assert_eq!(r.wall_s.n, 2);
    assert!(r.passes > 2, "{} passes", r.passes);
}

#[test]
fn fleet_accounting_identity_holds() {
    let scn = Scenario::seeded(Workload::FleetOverload, 3, Size::Smoke);
    let out = run_pass(&scn, Mode::Untraced).outputs;
    let g = |n: &str| out.get(n).unwrap();
    assert_eq!(g("offered"), g("admitted") + g("shed"));
    assert_eq!(g("admitted"), g("completed") + g("in_flight"));
    assert!(g("shed") > 0.0, "the overload workload must shed");
}

fn buckets(out: &Outputs, hist: &str) -> Vec<(usize, u64)> {
    out.0
        .iter()
        .filter_map(|(n, _, v)| {
            let idx = n.strip_prefix(hist)?.strip_prefix('.')?;
            Some((idx.parse().ok()?, *v as u64))
        })
        .collect()
}

#[test]
fn builders_reproduce_the_paper_experiments() {
    for (w, config) in [
        (Workload::GappedCompute, ScalingConfig::CoreGapped),
        (Workload::GappedExits, ScalingConfig::CoreGappedNoDelegation),
    ] {
        let scn = Scenario::paper(w, 42, Size::Smoke);
        let Inputs::Coremark { sim_ms, .. } = scn.inputs else {
            unreachable!()
        };
        let (expected, hist) = run_coremark_obs(
            config,
            64,
            SimDuration::millis(sim_ms),
            42,
            &Obs::disabled(),
        );
        let out = run_pass(&scn, Mode::Untraced).outputs;
        let g = |n: &str| out.get(n).unwrap();
        assert_eq!(g("score"), expected.score, "{}", w.name());
        assert_eq!(g("exits_total"), expected.exits_total as f64);
        assert_eq!(g("exits_irq"), expected.exits_interrupt as f64);
        assert_eq!(g("host_util_pct"), expected.host_utilization * 100.0);
        let rel = (g("run_to_run_mean_us") - expected.run_to_run_us_mean).abs()
            / expected.run_to_run_us_mean;
        assert!(rel < 1e-12, "run-to-run mean {rel}");
        let want: Vec<_> = hist.nonzero_buckets().collect();
        assert_eq!(buckets(&out, "run_to_run_hist"), want);
    }

    let scn = Scenario::paper(Workload::RedisSriov, 42, Size::Smoke);
    let Inputs::Redis { requests, .. } = scn.inputs else {
        unreachable!()
    };
    let (expected, hist) = run_redis_obs(RedisCommand::Get, true, requests, 42, &Obs::disabled());
    let out = run_pass(&scn, Mode::Untraced).outputs;
    let g = |n: &str| out.get(n).unwrap();
    assert_eq!(g("req_per_s") / 1_000.0, expected.krps);
    assert_eq!(g("req_mean_us") / 1_000.0, expected.mean_ms);
    assert_eq!(g("req_p95_us") / 1_000.0, expected.p95_ms);
    assert_eq!(g("req_p99_us") / 1_000.0, expected.p99_ms);
    let want: Vec<_> = hist.nonzero_buckets().collect();
    assert_eq!(buckets(&out, "req_hist"), want);

    let scn = Scenario::paper(Workload::FleetOverload, 0xF1EE7, Size::Smoke);
    let Inputs::Fleet { epochs } = scn.inputs else {
        unreachable!()
    };
    let expected = run_fleet(&FleetConfig {
        epochs,
        ..FleetConfig::paper_default()
    });
    assert_eq!(fleet_fingerprint(&scn), expected.fingerprint);
    let out = run_pass(&scn, Mode::Untraced).outputs;
    assert_eq!(out.get("offered"), Some(expected.offered as f64));
    assert_eq!(out.get("slo_attain_pct"), Some(expected.attainment * 100.0));
}

#[test]
fn sliced_runs_equal_unsliced_runs() {
    for w in Workload::ALL {
        let scn = Scenario::seeded(w, 11, Size::Smoke);
        assert_eq!(
            run_pass(&scn, Mode::Untraced).outputs,
            run_unsliced(&scn),
            "{}",
            w.name()
        );
    }
}

#[test]
fn tracing_changes_no_modelled_output() {
    for w in Workload::ALL {
        let scn = Scenario::seeded(w, w.default_seed(), Size::Smoke);
        let traced = run_pass(&scn, Mode::Traced);
        assert_eq!(
            traced.outputs,
            run_pass(&scn, Mode::Untraced).outputs,
            "{}",
            w.name()
        );
        let counts = traced.trace.as_ref().unwrap();
        let events: u64 = counts.events.values().sum();
        assert_eq!(events, counts.slice_events.iter().sum::<u64>());
        assert_eq!(Some(&events), counts.records.get("pop"));
    }
}

#[test]
fn span_means_are_microseconds() {
    // The profiler reports µs; an exit round trip is the run-to-run
    // latency seen from the span side, so the two agree.
    let scn = Scenario::seeded(Workload::GappedCompute, 42, Size::Smoke);
    let pass = run_pass(&scn, Mode::Traced);
    let spans = &pass.trace.as_ref().unwrap().spans;
    let roundtrip = spans["exit.roundtrip"].mean();
    let run_to_run = pass.outputs.get("run_to_run_mean_us").unwrap();
    let rel = (roundtrip - run_to_run).abs() / run_to_run;
    assert!(
        rel < 0.10,
        "exit.roundtrip {roundtrip} us vs run-to-run {run_to_run} us"
    );
}

#[test]
fn host_spans_form_one_closed_tree() {
    let scn = Scenario::seeded(Workload::RedisSriov, 42, Size::Smoke);
    let pass = run_pass(&scn, Mode::Traced);
    let spans = host_spans(&pass);
    let doc = Json::parse(&chrome_trace(scn.workload, &spans)).expect("trace parses");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert_eq!(events.len(), spans.len());
    let ids: BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    for e in events {
        let args = e.get("args").unwrap();
        let name = e.get("name").and_then(Json::as_str).unwrap();
        assert!(
            e.get("dur").and_then(Json::as_f64).unwrap() >= 0.0,
            "{name} closed"
        );
        assert_eq!(
            args.get("workload").and_then(Json::as_str),
            Some("redis-sriov")
        );
        match args.get("parent_id").and_then(Json::as_u64) {
            Some(p) => assert!(ids.contains(&p), "{name} has a known parent"),
            None => assert_eq!(name, "workload", "only the root has no parent"),
        }
    }
    let slices = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("run.slice"))
        .count();
    assert_eq!(slices, pass.timeline.slice_ends.len());
}

#[test]
fn benchmark_json_names_what_perf_reports() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let list = |k: &str| spec.get(k).and_then(Json::as_arr).unwrap().to_vec();
    let field = |e: &Json, k: &str| e.get(k).and_then(Json::as_str).unwrap().to_owned();
    let workloads: Vec<String> = list("workloads").iter().map(|e| field(e, "name")).collect();
    let want: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, want);
    for (key, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
        let got: Vec<(String, String, String)> = list(key)
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect();
        let want: Vec<(String, String, String)> = defs
            .iter()
            .map(|d| {
                (
                    d.name.clone(),
                    d.unit.to_owned(),
                    d.better.name().to_owned(),
                )
            })
            .collect();
        assert_eq!(got, want, "{key}");
    }
    let bounds: Vec<(String, f64)> = list("end_to_end")
        .iter()
        .map(|e| {
            (
                field(e, "name"),
                e.get("bound").and_then(Json::as_f64).unwrap(),
            )
        })
        .collect();
    let setup = bounds.iter().find(|(n, _)| n == "setup_s").unwrap().1;
    for (name, bound) in &bounds {
        assert!(*bound > 0.0 && *bound <= 0.25, "{name} bound {bound}");
        assert!(
            name == "setup_s" || *bound < setup,
            "setup_s has the largest bound"
        );
    }
}

fn suite_doc(wall: [f64; 5]) -> String {
    let metric =
        |values: &[f64]| Json::obj([("values", Json::arr(values.iter().map(|&v| Json::from(v))))]);
    let mut e2e = Json::obj::<&str>([]);
    for def in end_to_end() {
        let values = if def.name == "wall_s" {
            wall.to_vec()
        } else {
            vec![1.0; 5]
        };
        e2e.push_field(def.name, metric(&values));
    }
    let entry = Json::obj([
        ("end_to_end", e2e),
        ("exact", Json::obj([("score", Json::from(5.0))])),
    ]);
    Json::obj([("workloads", Json::obj([("gapped-compute", entry)]))]).render()
}

#[test]
fn compare_flags_a_regression_and_passes_a_rerun() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let write = |name: &str, wall: [f64; 5]| {
        let path = dir.join(name);
        std::fs::write(&path, suite_doc(wall)).unwrap();
        path.display().to_string()
    };
    let a = write("compare-a.json", [1.00, 1.01, 0.99, 1.00, 1.02]);
    let rerun = write("compare-rerun.json", [1.01, 1.00, 0.99, 1.02, 1.00]);
    let slower = write("compare-slower.json", [1.50, 1.51, 1.49, 1.50, 1.52]);

    let out = perf(&["compare", &a, &rerun]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(!stdout(&out).contains("worse"));
    assert!(stdout(&out).contains("identical"));

    let out = perf(&["compare", &a, &slower]);
    assert!(!out.status.success());
    let row = stdout(&out)
        .lines()
        .find(|l| l.starts_with("wall_s"))
        .unwrap()
        .to_owned();
    assert!(row.ends_with("worse"), "{row}");
}
