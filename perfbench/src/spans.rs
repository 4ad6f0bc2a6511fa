//! Host-time spans of one pass, exported as a Chrome trace.
//!
//! The spans are recorded in the benchmark around each call it makes
//! into the program: `workload` → `setup` → one span per set-up call,
//! then `run` → `run.slice` per slice, then `report`. Each carries its
//! own id, its parent's id and the workload, so the tree can be rebuilt
//! from the file alone.

use std::time::Duration;

use cg_sim::Json;

use crate::workload::{Pass, Workload};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpan {
    /// Span id (1-based).
    pub id: u64,
    /// Parent span id; `None` only for the root `workload` span.
    pub parent: Option<u64>,
    /// Span name.
    pub name: &'static str,
    /// Start, from the beginning of the pass.
    pub start: Duration,
    /// End, from the beginning of the pass.
    pub end: Duration,
    /// Events popped during the span (slices of a traced pass only).
    pub events: Option<u64>,
}

/// The span tree of a pass, parents before children.
pub fn host_spans(pass: &Pass) -> Vec<HostSpan> {
    let tl = &pass.timeline;
    let mut spans = Vec::new();
    let mut add = |parent: Option<u64>, name, start, end, events| {
        let id = spans.len() as u64 + 1;
        spans.push(HostSpan {
            id,
            parent,
            name,
            start,
            end,
            events,
        });
        id
    };
    let root = add(None, "workload", Duration::ZERO, tl.report_end, None);
    let setup = add(Some(root), "setup", Duration::ZERO, tl.run_start, None);
    for &(name, start, end) in &tl.setup_calls {
        add(Some(setup), name, start, end, None);
    }
    let run_end = tl.slice_ends.last().copied().unwrap_or(tl.run_start);
    let run = add(Some(root), "run", tl.run_start, run_end, None);
    let slice_events = pass.trace.as_ref().map(|t| &t.slice_events);
    let mut start = tl.run_start;
    for (i, &end) in tl.slice_ends.iter().enumerate() {
        let events = slice_events.and_then(|e| e.get(i).copied());
        add(Some(run), "run.slice", start, end, events);
        start = end;
    }
    add(Some(root), "report", run_end, tl.report_end, None);
    spans
}

/// Renders the spans as Chrome trace-event JSON (complete `X` events,
/// timestamps in µs).
pub fn chrome_trace(workload: Workload, spans: &[HostSpan]) -> String {
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let events = spans.iter().map(|s| {
        let mut args = Json::obj([
            ("span_id", Json::from(s.id)),
            ("parent_id", s.parent.map_or(Json::Null, Json::from)),
            ("workload", Json::from(workload.name())),
        ]);
        if let Some(n) = s.events {
            args.push_field("events", Json::from(n));
        }
        Json::obj([
            ("name", Json::from(s.name)),
            ("ph", Json::from("X")),
            ("ts", Json::from(us(s.start))),
            ("dur", Json::from(us(s.end - s.start))),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(1u64)),
            ("args", args),
        ])
    });
    let doc = Json::obj([
        ("displayTimeUnit", Json::from("ms")),
        ("traceEvents", Json::arr(events)),
    ]);
    doc.render()
}
