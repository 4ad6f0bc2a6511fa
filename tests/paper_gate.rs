//! Integration: every committed bench result that quotes the paper stays
//! within a stated band of the paper's value.
//!
//! The bands are read against the `--quick --json` goldens under
//! `tests/golden/` (which `scripts/check.sh` pins byte for byte), so a
//! re-bless that moves a row out of its band fails here. Each band is
//! the row's deviation when the band was set, plus one percentage point,
//! rounded up. A change that brings a row closer to the paper should
//! tighten its band; no change may widen one without saying why.

use std::collections::BTreeSet;
use std::path::Path;

use cg_sim::Json;

/// Per bin, `(row, band)`: `|measured − paper| / paper` must stay
/// within `band` percent. Each comment gives the deviation the band
/// starts from.
const BANDS: [(&str, &[(&str, f64)]); 4] = [
    (
        "table2", // cross-core call latency
        &[
            ("Core-gapped asynchronous (vCPU run calls)", 3.0), // −1.1%
            ("Core-gapped synchronous (e.g., page table update)", 2.0), // −0.7%
            ("Same-core synchronous (paper reports > 12.8 us)", 12.0), // +10.9%
        ],
    ),
    (
        // vIPI latency. The undelegated row is low: the model misses a
        // host-side cost the prototype pays.
        "table3",
        &[
            ("Core-gapped CVM, without delegation", 40.0), // −39.0%
            ("Core-gapped CVM, with delegation", 18.0),    // −16.4%
            ("Shared-core VM", 9.0),                       // +7.8%
        ],
    ),
    (
        "table4", // exit counts
        &[
            ("Interrupt-related exits, without delegation", 2.0), // +0.2%
            ("Interrupt-related exits, with delegation", 3.0),    // −1.3%
            ("Total exits, without delegation", 9.0),             // −7.3%
            ("Total exits, with delegation", 3.0),                // +1.9%
            ("Exit-count reduction factor", 9.0),                 // −7.4%
        ],
    ),
    (
        // redis. Mean latency is high because the closed-loop model
        // keeps every client outstanding.
        "table5",
        &[
            ("SET shared core throughput", 7.0),            // −5.2%
            ("SET shared core mean latency", 97.0),         // +96.0%
            ("SET shared core p95 latency", 72.0),          // +70.4%
            ("SET shared core p99 latency", 16.0),          // −14.8%
            ("SET core gapped throughput", 5.0),            // −3.4%
            ("SET core gapped mean latency", 48.0),         // +46.1%
            ("SET core gapped p95 latency", 6.0),           // −4.7%
            ("SET core gapped p99 latency", 37.0),          // −35.8%
            ("GET shared core throughput", 2.0),            // −0.5%
            ("GET shared core mean latency", 92.0),         // +90.6%
            ("GET shared core p95 latency", 63.0),          // +61.3%
            ("GET shared core p99 latency", 15.0),          // −13.9%
            ("GET core gapped throughput", 4.0),            // −2.9%
            ("GET core gapped mean latency", 65.0),         // +63.2%
            ("GET core gapped p95 latency", 21.0),          // +19.8%
            ("GET core gapped p99 latency", 26.0),          // −24.6%
            ("LRANGE 100 shared core throughput", 2.0),     // −0.0%
            ("LRANGE 100 shared core mean latency", 187.0), // +185.2%
            ("LRANGE 100 shared core p95 latency", 114.0),  // +112.5%
            ("LRANGE 100 shared core p99 latency", 83.0),   // +81.3%
            ("LRANGE 100 core gapped throughput", 19.0),    // −17.6%
            ("LRANGE 100 core gapped mean latency", 239.0), // +237.1%
            ("LRANGE 100 core gapped p95 latency", 170.0),  // +168.2%
            ("LRANGE 100 core gapped p99 latency", 132.0),  // +130.2%
        ],
    ),
];

/// The band for one row, if the test states one.
fn band(bin: &str, row: &str) -> Option<f64> {
    let (_, rows) = BANDS.iter().find(|(b, _)| *b == bin)?;
    rows.iter().find(|(r, _)| *r == row).map(|&(_, band)| band)
}

/// Every `(bin, row, measured, paper)` in the goldens that quotes the
/// paper.
fn paper_rows() -> Vec<(String, String, f64, f64)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("golden entry").path())
        .collect();
    files.sort();
    let mut rows = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("read golden");
        let report = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let bin = report.get("bench").and_then(Json::as_str).expect("bench");
        for row in report.get("rows").and_then(Json::as_arr).expect("rows") {
            let Some(paper) = row.get("paper").and_then(Json::as_f64) else {
                continue;
            };
            let name = row.get("name").and_then(Json::as_str).expect("name");
            let measured = row
                .get("measured")
                .and_then(Json::as_f64)
                .expect("measured");
            rows.push((bin.to_owned(), name.to_owned(), measured, paper));
        }
    }
    rows
}

#[test]
fn every_paper_row_stays_in_its_band() {
    let rows = paper_rows();
    let mut out_of_band = Vec::new();
    for (bin, name, measured, paper) in &rows {
        let band =
            band(bin, name).unwrap_or_else(|| panic!("{bin}: paper row `{name}` has no band"));
        let deviation = (measured - paper) / paper * 100.0;
        if deviation.abs() > band {
            out_of_band.push(format!(
                "{bin}: `{name}` {measured} vs paper {paper} ({deviation:+.1}%, band ±{band}%)"
            ));
        }
    }
    assert!(out_of_band.is_empty(), "{}", out_of_band.join("\n"));

    // A band whose row is gone gates nothing: drop it or rename it.
    let present: BTreeSet<(&str, &str)> = rows
        .iter()
        .map(|(b, n, _, _)| (b.as_str(), n.as_str()))
        .collect();
    for (bin, bands) in BANDS {
        for (name, _) in bands {
            assert!(
                present.contains(&(bin, *name)),
                "band for {bin} `{name}` matches no golden row"
            );
        }
    }
    let stated: usize = BANDS.iter().map(|(_, rows)| rows.len()).sum();
    assert_eq!(rows.len(), stated, "a paper row appears twice");
}
