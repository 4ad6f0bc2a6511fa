//! Output checks that hold for every seed: invariants of the modelled
//! system and a band around the paper's numbers. Seeds with a golden
//! entry are also compared exactly (see [`crate::outputs`]).

use crate::outputs::Outputs;
use crate::workload::{Scenario, Size, Workload};

/// Largest mean deviation from the paper (percent) a full-size run may
/// show before the model counts as broken: about 1.5 times the largest
/// deviation over the golden seeds when the benchmark was defined
/// (`paper_dev_pct` in the golden files: 14.2%, 20.0%, 28.7%).
fn paper_band_pct(workload: Workload) -> Option<f64> {
    match workload {
        Workload::GappedCompute => Some(25.0),
        Workload::GappedExits => Some(30.0),
        Workload::RedisSriov => Some(45.0),
        // No paper reference: the fleet model is unvalidated.
        Workload::FleetOverload => None,
    }
}

/// The names of the two headline modelled outputs: the user-facing
/// mean latency (µs) and the completed-work rate (per simulated s).
pub fn headline(workload: Workload) -> (&'static str, &'static str) {
    match workload {
        Workload::GappedCompute | Workload::GappedExits => ("run_to_run_mean_us", "score"),
        Workload::RedisSriov | Workload::FleetOverload => ("req_mean_us", "req_per_s"),
    }
}

fn get(out: &Outputs, name: &str) -> f64 {
    out.get(name)
        .unwrap_or_else(|| panic!("output {name} missing"))
}

/// Modelled operations attempted and lost in one pass. Gapped: run
/// calls, and calls abandoned after their retries. Redis: requests, and
/// requests never completed. Fleet: requests offered, and requests
/// neither admitted nor shed, or admitted and neither completed nor
/// still in flight. Shed requests are the front-end's correct answer to
/// overload, not lost ones; they count against `slo_attain_pct`.
pub fn attempted_failed(workload: Workload, out: &Outputs) -> (u64, u64) {
    let g = |n: &str| get(out, n) as u64;
    match workload {
        Workload::GappedCompute | Workload::GappedExits => (g("run_calls"), g("retries_exhausted")),
        Workload::RedisSriov => (g("requests"), g("requests") - g("completed")),
        Workload::FleetOverload => {
            let lost = g("offered").abs_diff(g("admitted") + g("shed"))
                + g("admitted").abs_diff(g("completed") + g("in_flight"));
            (g("offered"), lost)
        }
    }
}

/// Every check the outputs fail, as one line each.
pub fn check(scn: &Scenario, out: &Outputs) -> Vec<String> {
    let mut problems = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            problems.push(what);
        }
    };
    let (attempted, failed) = attempted_failed(scn.workload, out);
    require(attempted > 0, "no modelled operations ran".into());
    require(
        failed == 0,
        format!("{failed} of {attempted} modelled operations lost"),
    );
    let (latency, rate) = headline(scn.workload);
    require(get(out, latency) > 0.0, format!("{latency} is zero"));
    require(get(out, rate) > 0.0, format!("{rate} is zero"));
    // Smoke passes end before the paper's steady state, so the band
    // applies at full size only.
    let band = paper_band_pct(scn.workload).filter(|_| scn.size == Size::Full);
    if let Some(band) = band {
        let dev = get(out, "paper_dev_pct");
        require(
            dev <= band,
            format!("paper_dev_pct {dev:.1}% outside the {band}% band"),
        );
    }
    if scn.workload == Workload::RedisSriov {
        require(
            get(out, "req_n") == get(out, "completed"),
            "a latency sample per completed request".into(),
        );
    }
    problems
}
