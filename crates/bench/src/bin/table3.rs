//! Table 3: virtual inter-processor interrupt latency.

use cg_bench::{header, Report};
use cg_core::experiments::latency::{run_vipi_obs, IpiConfig};

fn main() {
    let mut report = Report::from_args("table3");
    header("Table 3: virtual IPI latency (2-vCPU guest, SGI ping)");
    for c in IpiConfig::ALL {
        let hist = run_vipi_obs(c, 200, 42, report.obs());
        report.row(c.label(), hist.mean(), c.paper_us(), "us");
        // The measured distribution behind the mean, so the deviation
        // on the undelegated row can be decomposed percentile by
        // percentile (and span by span with --trace-out).
        report.histogram(&format!("{} distribution", c.label()), &hist, 1.0, "us");
    }
    report.finish();
}
