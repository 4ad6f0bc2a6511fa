//! Per-plane latency attribution over causally-traced spans.
//!
//! [`attribute`] walks a span snapshot (see [`crate::Profiler::snapshot`]),
//! groups the causally-linked spans of each traced request, and splits
//! its end-to-end latency into four components:
//!
//! * **queueing** — root-span start until the first backend-class span
//!   begins (the request sat published/posted, waiting to be picked up);
//! * **backend** — the host-side service interval (exit handling, I/O
//!   backend work, wake-up scans, poll passes);
//! * **delivery** — backend completion until the consumer-side drain
//!   begins (completion/doorbell interrupts in flight);
//! * **drain** — the consumer-side drain until the last span of the
//!   trace ends.
//!
//! The split is a gap-based *exact partition* of `[t0, te]` — every
//! boundary is clamped monotonically between the trace's first start and
//! last end — so per-request the four components **sum exactly** to the
//! end-to-end time, and the per-plane component histograms reconcile
//! with the end-to-end histogram up to bucket quantisation.

use std::collections::BTreeMap;

use crate::histogram::Histogram;
use crate::profiler::{Span, SpanKind};

/// Span kinds counted as host-side backend service time.
fn is_backend(kind: SpanKind) -> bool {
    matches!(
        kind,
        SpanKind::ExitHandle | SpanKind::VirtioBackend | SpanKind::WakeupScan | SpanKind::IoPoll
    )
}

/// Span kinds counted as consumer-side drain time.
fn is_drain(kind: SpanKind) -> bool {
    matches!(kind, SpanKind::VirtioDrain | SpanKind::IvcDrain)
}

/// The plane a trace belongs to, derived from its root span's kind.
fn plane_of_root(kind: SpanKind) -> Option<&'static str> {
    match kind {
        SpanKind::ExitRoundTrip => Some("rpc"),
        SpanKind::VirtioKick => Some("virtio"),
        SpanKind::IvcPublish => Some("ivc"),
        _ => None,
    }
}

/// Latency attribution for one request plane (µs histograms).
#[derive(Debug, Clone, Default)]
pub struct PlaneAttrib {
    /// Plane name: `"rpc"`, `"virtio"`, or `"ivc"`.
    pub plane: &'static str,
    /// Fully-attributed requests in this plane.
    pub requests: u64,
    /// End-to-end time: root-span start to last linked span end.
    pub e2e_us: Histogram,
    /// Time the request waited before backend pickup.
    pub queueing_us: Histogram,
    /// Host-side backend service interval.
    pub backend_us: Histogram,
    /// Completion/doorbell delivery in flight.
    pub delivery_us: Histogram,
    /// Consumer-side drain.
    pub drain_us: Histogram,
}

impl PlaneAttrib {
    /// Sum of the four component histograms' p50s — reconciles with
    /// `e2e_us.percentile(50)` up to histogram bucket error.
    pub fn component_p50_sum(&self) -> f64 {
        self.queueing_us.percentile(50.0)
            + self.backend_us.percentile(50.0)
            + self.delivery_us.percentile(50.0)
            + self.drain_us.percentile(50.0)
    }
}

/// Attribution report over every traced plane seen in a snapshot, in
/// fixed plane order.
#[derive(Debug, Clone, Default)]
pub struct AttribReport {
    /// Non-empty planes, in `rpc`, `virtio`, `ivc` order.
    pub planes: Vec<PlaneAttrib>,
}

impl AttribReport {
    /// The attribution for `plane`, if any request was traced on it.
    pub fn plane(&self, plane: &str) -> Option<&PlaneAttrib> {
        self.planes.iter().find(|p| p.plane == plane)
    }
}

/// Groups the closed spans of `spans` by trace id and attributes each
/// complete request (see module docs). Traces whose root span is still
/// open, or whose root kind maps to no plane, are skipped.
pub fn attribute(spans: &[Span]) -> AttribReport {
    // Group closed spans per trace, in trace-id order for determinism.
    let mut traces: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if s.trace != 0 && s.end.is_some() {
            traces.entry(s.trace).or_default().push(s);
        }
    }
    let mut planes: BTreeMap<&'static str, PlaneAttrib> = BTreeMap::new();
    for group in traces.values() {
        let Some(root) = group.iter().find(|s| s.parent == 0) else {
            continue;
        };
        let Some(plane) = plane_of_root(root.kind) else {
            continue;
        };
        let t0 = root.start.as_nanos();
        let te = group
            .iter()
            .map(|s| s.end.expect("closed").as_nanos())
            .max()
            .expect("non-empty group");
        // Backend interval, clamped into [t0, te].
        let (mut b0, mut b1) = (t0, t0);
        let bs: Vec<&&Span> = group.iter().filter(|s| is_backend(s.kind)).collect();
        if !bs.is_empty() {
            b0 = bs
                .iter()
                .map(|s| s.start.as_nanos())
                .min()
                .expect("non-empty")
                .clamp(t0, te);
            b1 = bs
                .iter()
                .map(|s| s.end.expect("closed").as_nanos())
                .max()
                .expect("non-empty")
                .clamp(b0, te);
        }
        // Drain start, clamped to begin no earlier than the backend end.
        let d0 = group
            .iter()
            .filter(|s| is_drain(s.kind))
            .map(|s| s.start.as_nanos())
            .min()
            .map(|d| d.clamp(b1, te))
            .unwrap_or(te);
        let entry = planes.entry(plane).or_insert_with(|| PlaneAttrib {
            plane,
            ..PlaneAttrib::default()
        });
        entry.requests += 1;
        let us = |ns: u64| ns as f64 / 1000.0;
        entry.e2e_us.record(us(te - t0));
        entry.queueing_us.record(us(b0 - t0));
        entry.backend_us.record(us(b1 - b0));
        entry.delivery_us.record(us(d0 - b1));
        entry.drain_us.record(us(te - d0));
    }
    let mut out = AttribReport::default();
    for name in ["rpc", "virtio", "ivc"] {
        if let Some(p) = planes.remove(name) {
            out.planes.push(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::TraceCtx;
    use crate::profiler::Profiler;
    use crate::time::SimTime;
    use crate::trace::TraceHandle;

    fn ns(t: u64) -> SimTime {
        SimTime::from_nanos(t)
    }

    /// A span store and a handle recording into it.
    fn store() -> (Profiler, TraceHandle) {
        let (spans, h) = (Profiler::capture(), TraceHandle::disabled());
        h.attach_spans(&spans);
        (spans, h)
    }

    /// Builds one virtio-plane trace: kick [0,1000], backend
    /// [3000,5000], drain at 9000; e2e = 9000 ns.
    fn one_virtio_trace(h: &TraceHandle) -> TraceCtx {
        h.set_now(ns(0));
        let (root, ctx) = h.begin_traced(SpanKind::VirtioKick, Some(1), Some(1), Some(0));
        h.set_now(ns(1_000));
        h.end(root);
        let ctx = h.record_span_child(
            SpanKind::VirtioBackend,
            Some(0),
            None,
            None,
            ns(3_000),
            ns(5_000),
            ctx,
        );
        h.record_span_child(
            SpanKind::VirtioDrain,
            Some(1),
            Some(1),
            Some(0),
            ns(9_000),
            ns(9_000),
            ctx,
        )
    }

    #[test]
    fn components_partition_e2e_exactly() {
        let (spans, h) = store();
        one_virtio_trace(&h);
        let report = attribute(&spans.snapshot());
        let v = report.plane("virtio").expect("virtio plane present");
        assert_eq!(v.requests, 1);
        assert_eq!(v.e2e_us.max(), 9.0);
        assert_eq!(v.queueing_us.max(), 3.0);
        assert_eq!(v.backend_us.max(), 2.0);
        assert_eq!(v.delivery_us.max(), 4.0);
        assert_eq!(v.drain_us.max(), 0.0);
        let sum = v.queueing_us.max() + v.backend_us.max() + v.delivery_us.max() + v.drain_us.max();
        assert_eq!(sum, v.e2e_us.max());
    }

    #[test]
    fn trace_without_backend_spans_attributes_delivery() {
        let (spans, h) = store();
        h.set_now(ns(0));
        let (root, ctx) = h.begin_traced(SpanKind::IvcPublish, Some(2), Some(1), Some(0));
        h.set_now(ns(500));
        h.end(root);
        h.record_span_child(
            SpanKind::IvcDrain,
            Some(3),
            Some(2),
            Some(0),
            ns(4_500),
            ns(4_500),
            ctx,
        );
        let report = attribute(&spans.snapshot());
        let ivc = report.plane("ivc").expect("ivc plane");
        assert_eq!(ivc.queueing_us.max(), 0.0);
        assert_eq!(ivc.backend_us.max(), 0.0);
        assert_eq!(ivc.delivery_us.max(), 4.5);
        assert_eq!(ivc.e2e_us.max(), 4.5);
    }

    #[test]
    fn open_roots_and_untraced_spans_are_skipped() {
        let (spans, h) = store();
        let (_open, ctx) = h.begin_traced(SpanKind::VirtioKick, Some(0), Some(1), None);
        h.record_span_child(
            SpanKind::VirtioBackend,
            Some(0),
            None,
            None,
            ns(1),
            ns(2),
            ctx,
        );
        h.record_span_child(
            SpanKind::IoPoll,
            Some(0),
            None,
            None,
            ns(0),
            ns(5),
            TraceCtx::NULL,
        );
        let report = attribute(&spans.snapshot());
        assert!(report.planes.is_empty());
    }

    #[test]
    fn planes_appear_in_fixed_order() {
        let (spans, h) = store();
        one_virtio_trace(&h);
        h.set_now(ns(20_000));
        let (r, _) = h.begin_traced(SpanKind::ExitRoundTrip, Some(1), Some(1), Some(0));
        h.set_now(ns(25_000));
        h.end(r);
        let report = attribute(&spans.snapshot());
        let names: Vec<&str> = report.planes.iter().map(|pl| pl.plane).collect();
        assert_eq!(names, ["rpc", "virtio"]);
    }
}
