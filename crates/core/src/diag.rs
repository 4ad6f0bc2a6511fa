//! Divergence diagnosis: compare two same-seed runs record-by-record.
//!
//! Determinism is the property every experiment in this workspace leans
//! on: two runs of the same configuration and seed must be
//! bit-reproducible. When that breaks (a `HashMap` iteration sneaks into
//! a scheduling decision, an event tie-break changes), the symptom is
//! usually a distant, baffling metrics mismatch. This module turns the
//! symptom into a diagnosis: build the same system twice, run both with
//! full structured capture, and report the **first** trace record where
//! the runs disagree — with simulated time, sequence number, and core
//! attribution — plus the shared history leading up to it.

use cg_sim::{Divergence, SimDuration, TraceDiff};

use crate::system::System;

/// The outcome of a same-seed pair run.
#[derive(Debug)]
pub struct DiffReport {
    /// The first trace disagreement, if the runs diverged.
    pub divergence: Option<Divergence>,
    /// Each run's [`crate::Metrics::fingerprint`].
    pub fingerprints: (u64, u64),
    /// Number of structured records each run produced.
    pub records: (u64, u64),
}

impl DiffReport {
    /// `true` when the traces matched record-for-record *and* the metric
    /// fingerprints agree.
    pub fn is_deterministic(&self) -> bool {
        self.divergence.is_none() && self.fingerprints.0 == self.fingerprints.1
    }

    /// Renders a human-readable summary (the divergence display names the
    /// first divergent event's time, sequence number, and core).
    pub fn render(&self) -> String {
        match &self.divergence {
            Some(d) => format!(
                "runs diverged ({} vs {} records, fingerprints {:#x} vs {:#x})\n{d}",
                self.records.0, self.records.1, self.fingerprints.0, self.fingerprints.1
            ),
            None if self.fingerprints.0 != self.fingerprints.1 => format!(
                "traces match but fingerprints differ ({:#x} vs {:#x}) — \
                 an untraced quantity diverged; add trace coverage",
                self.fingerprints.0, self.fingerprints.1
            ),
            None => format!(
                "runs identical: {} records, fingerprint {:#x}",
                self.records.0, self.fingerprints.0
            ),
        }
    }
}

/// How much matching history to attach before the first divergent record.
pub const DEFAULT_DIFF_CONTEXT: usize = 10;

/// Builds a system twice with `build`, runs both for `duration` under
/// full structured capture, and diffs the runs.
///
/// `build` must be a pure function of its (implicit) inputs — it is
/// called twice and any asymmetry between the calls shows up as a
/// (spurious) divergence.
pub fn diff_same_seed_runs<F>(build: F, duration: SimDuration) -> DiffReport
where
    F: Fn() -> System,
{
    let run = |mut system: System| {
        system.configure_trace(crate::TraceOptions::new().structured_capture());
        system.run_for(duration);
        let records = system.structured_trace().snapshot();
        let fingerprint = system.metrics().fingerprint();
        (records, fingerprint)
    };
    let (left, fp_left) = run(build());
    let (right, fp_right) = run(build());
    DiffReport {
        divergence: TraceDiff::first_divergence(&left, &right, DEFAULT_DIFF_CONTEXT),
        fingerprints: (fp_left, fp_right),
        records: (left.len() as u64, right.len() as u64),
    }
}
