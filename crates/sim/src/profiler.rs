//! Simulated-time span store.
//!
//! Spans are recorded through the one observation handle,
//! [`TraceHandle`]: its span methods write begin/end spans, attributed
//! to `(core, realm, rec)`, into the [`Profiler`] attached with
//! [`TraceHandle::attach_spans`]. With none attached every span method
//! is an early-return no-op (one borrow, one test; no allocation, no
//! formatting). The profiler keeps the spans and exports them as Chrome
//! trace-event JSON loadable in Perfetto (`ui.perfetto.dev`). One
//! profiler may be attached to many handles (the sequential runs of one
//! bench, the nodes of a cluster): each handle's clock moves its clock.
//!
//! Span model: simulated time does not advance within one event handler,
//! so spans that cross events use explicit [`TraceHandle::begin_child`] /
//! [`TraceHandle::end`] with the [`SpanId`] stashed in runtime state;
//! costs known up front record as complete spans via
//! [`TraceHandle::record_dur`] or [`TraceHandle::record_span_child`].
//! Both `*_child` methods link the span under a [`TraceCtx`];
//! [`TraceCtx::NULL`] records it untraced.
//!
//! Recovery marks: when fault recovery fires (a watchdog rescan, a
//! retry-exhaustion abort, a forged-doorbell rejection) the system calls
//! [`TraceHandle::mark_recovery`]. A [`RecoveryMark`] stores the time, the
//! reason and how many spans were recorded before it, so the spans
//! leading up to the recovery are `snapshot()[..mark.spans]`. Marks sit
//! beside the spans, not among them, so they move no span id, flow id,
//! statistic or export.
//!
//! Determinism contract: span content derives only from simulated events
//! (ids are allocated in begin order, timestamps come from the event
//! loop's [`TraceHandle::set_now`], and export formatting is integer
//! arithmetic), so same-seed runs export byte-identical traces —
//! the export doubles as a determinism tripwire.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::causal::TraceCtx;
use crate::stats::OnlineStats;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceHandle;

/// What a span measures; determines its name in the exported trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// Full guest-exit round trip: exit posted by the RMM (or KVM) to
    /// the next `REC enter` request issued by the host thread.
    ExitRoundTrip,
    /// Host-side exit handling: the VMM thread reads a posted exit and
    /// works through its actions until it resumes, blocks, or finishes
    /// the vCPU.
    ExitHandle,
    /// Async RPC request leg: run-call request posted until the serving
    /// side observes it (cache-line transfer + polling).
    RpcRequest,
    /// Async RPC response leg: exit response posted until the client
    /// thread observes it (cache-line transfer + wakeup).
    RpcResponse,
    /// A world switch on one core, including any mitigation flush.
    WorldSwitch,
    /// A host scheduler slice: thread picked until it yields, blocks,
    /// or exits.
    SchedSlice,
    /// A delegated timer interrupt fired and handled entirely inside
    /// the realm world (no host involvement).
    TimerFire,
    /// One wake-up thread scan over the run channels.
    WakeupScan,
    /// One recovery retry of a timed-out async run call (client-side
    /// timeout fired; the call was re-kicked).
    RpcRetry,
    /// One periodic watchdog rescan of the run channels — the backstop
    /// that closes the dropped-doorbell lost-wakeup hole.
    WatchdogScan,
    /// Guest-side virtqueue submission: descriptor publish plus the
    /// kick decision (and doorbell ring, when not suppressed).
    VirtioKick,
    /// The I/O plane driving a device backend for one drained batch.
    VirtioBackend,
    /// A completion posted to a used ring with its delegated interrupt
    /// decision (zero-length: completion posting is event-edge work).
    VirtioComplete,
    /// One I/O-plane poll pass over every fast-path device's avail
    /// rings.
    IoPoll,
    /// Guest-side IVC message publish into a shared inter-realm ring,
    /// including the doorbell-suppression decision.
    IvcPublish,
    /// An inter-realm IVC doorbell in flight: SGI sent by the producer
    /// core until the consumer core takes the interrupt.
    IvcDoorbell,
    /// The consumer draining its IVC ring after a doorbell (or a
    /// watchdog rescan) — message delivery into the guest.
    IvcDrain,
    /// The guest draining a fast-path used ring after a delegated
    /// completion interrupt (zero-length: drain is event-edge work).
    VirtioDrain,
    /// The RMM's delegated interrupt injection decision at the guest
    /// core — the monitor-context hop of a traced request.
    RmmInject,
}

impl SpanKind {
    /// The stable name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::ExitRoundTrip => "exit.roundtrip",
            SpanKind::ExitHandle => "exit.handle",
            SpanKind::RpcRequest => "rpc.request",
            SpanKind::RpcResponse => "rpc.response",
            SpanKind::WorldSwitch => "world.switch",
            SpanKind::SchedSlice => "sched.slice",
            SpanKind::TimerFire => "timer.delegated_fire",
            SpanKind::WakeupScan => "wakeup.scan",
            SpanKind::RpcRetry => "rpc.retry",
            SpanKind::WatchdogScan => "wakeup.watchdog_scan",
            SpanKind::VirtioKick => "virtio.kick",
            SpanKind::VirtioBackend => "virtio.backend",
            SpanKind::VirtioComplete => "virtio.complete",
            SpanKind::IoPoll => "io.poll",
            SpanKind::IvcPublish => "ivc.publish",
            SpanKind::IvcDoorbell => "ivc.doorbell",
            SpanKind::IvcDrain => "ivc.drain",
            SpanKind::VirtioDrain => "virtio.drain",
            SpanKind::RmmInject => "rmm.inject",
        }
    }
}

/// Opaque handle to an open span; `NULL` when no span store is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SpanId(u64);

impl SpanId {
    /// The null id: returned while no span store is attached, ignored by
    /// [`TraceHandle::end`].
    pub const NULL: SpanId = SpanId(0);

    /// Returns `true` for the null id.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Sequential id (begin order, starting at 1).
    pub id: u64,
    /// What this span measures; [`SpanKind::name`] labels it.
    pub kind: SpanKind,
    /// Physical core, when the span is core-attributed.
    pub core: Option<u16>,
    /// Realm id, when the span belongs to a confidential VM.
    pub realm: Option<u32>,
    /// REC (vCPU) index within the realm.
    pub rec: Option<u32>,
    /// Begin time (timeline time: includes any rebase offset).
    pub start: SimTime,
    /// End time; `None` while the span is still open.
    pub end: Option<SimTime>,
    /// Causal trace id; `0` when the span is not part of a traced
    /// request.
    pub trace: u64,
    /// Parent span id within the trace; `0` for a root (or untraced)
    /// span.
    pub parent: u64,
}

impl Span {
    /// Duration of a closed span; `ZERO` while open.
    pub fn duration(&self) -> SimDuration {
        match self.end {
            Some(end) => end.saturating_duration_since(self.start),
            None => SimDuration::ZERO,
        }
    }
}

/// Fault recovery fired while spans were captured (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryMark {
    /// When recovery fired (timeline time: includes any rebase offset).
    pub t: SimTime,
    /// What recovered, e.g. `"io.watchdog_recovered"`.
    pub reason: &'static str,
    /// Spans recorded before the mark: `snapshot()[..spans]` is the
    /// history leading up to the recovery.
    pub spans: usize,
}

#[derive(Debug)]
struct ProfInner {
    enabled: bool,
    /// Timeline offset in ns: sequential experiment runs each restart
    /// simulated time at zero; rebase pushes later runs to the right so
    /// one export holds the whole bench timeline.
    offset_ns: u64,
    /// Current timeline time (offset applied).
    now_ns: u64,
    /// Last allocated causal trace id; ticks only while enabled, so a
    /// disabled run mints no ids.
    next_trace: u64,
    spans: Vec<Span>,
    marks: Vec<RecoveryMark>,
}

impl ProfInner {
    /// Appends a span linked under `ctx` — the one place a [`Span`] is
    /// built — and returns its id with `ctx` advanced to it. A null
    /// `ctx` records an untraced span and stays null.
    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        kind: SpanKind,
        core: Option<u16>,
        realm: Option<u32>,
        rec: Option<u32>,
        start: SimTime,
        end: Option<SimTime>,
        ctx: TraceCtx,
    ) -> (SpanId, TraceCtx) {
        let id = SpanId(self.spans.len() as u64 + 1);
        self.spans.push(Span {
            id: id.0,
            kind,
            core,
            realm,
            rec,
            start,
            end,
            trace: ctx.trace,
            parent: if ctx.is_null() { 0 } else { ctx.parent.0 },
        });
        let next = if ctx.is_null() {
            TraceCtx::NULL
        } else {
            TraceCtx {
                trace: ctx.trace,
                parent: id,
            }
        };
        (id, next)
    }

    /// Maps a raw simulated time of the current run onto the timeline.
    fn timeline(&self, t: SimTime) -> SimTime {
        SimTime::from_nanos(self.offset_ns + t.as_nanos())
    }

    /// Current timeline time.
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns)
    }
}

/// Cheap-clone handle to a span store (see module docs).
///
/// # Example
///
/// ```
/// use cg_sim::{Profiler, SimTime, SpanKind, TraceCtx, TraceHandle};
///
/// let spans = Profiler::capture();
/// let trace = TraceHandle::disabled();
/// trace.attach_spans(&spans);
/// trace.set_now(SimTime::from_nanos(100));
/// let (id, _) = trace.begin_child(SpanKind::ExitRoundTrip, Some(3), Some(1), Some(0), TraceCtx::NULL);
/// trace.set_now(SimTime::from_nanos(2_600));
/// trace.end(id);
/// assert_eq!(spans.open_count(), 0);
/// assert!(spans.chrome_trace().contains("exit.roundtrip"));
/// ```
#[derive(Debug, Clone)]
pub struct Profiler(Rc<RefCell<ProfInner>>);

impl Default for Profiler {
    fn default() -> Self {
        Profiler::disabled()
    }
}

impl Profiler {
    fn with(enabled: bool) -> Profiler {
        Profiler(Rc::new(RefCell::new(ProfInner {
            enabled,
            offset_ns: 0,
            now_ns: 0,
            next_trace: 0,
            spans: Vec::new(),
            marks: Vec::new(),
        })))
    }

    /// A disabled profiler: attaching it records nothing.
    pub fn disabled() -> Profiler {
        Profiler::with(false)
    }

    /// A capturing profiler that retains every span.
    pub fn capture() -> Profiler {
        Profiler::with(true)
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.borrow().enabled
    }

    /// Advances the clock to simulated time `t` of the current run, with
    /// the rebase offset applied on top (see [`TraceHandle::set_now`]).
    pub(crate) fn set_now(&self, t: SimTime) {
        let mut inner = self.0.borrow_mut();
        inner.now_ns = inner.timeline(t).as_nanos();
    }

    /// Re-anchors the timeline at the current time: the next experiment
    /// run's `t = 0` maps to "now", so sequential runs lay out
    /// side by side in one exported trace instead of overlapping.
    pub fn rebase(&self) {
        let mut inner = self.0.borrow_mut();
        inner.offset_ns = inner.now_ns;
    }

    /// The recovery marks, oldest first.
    pub fn recovery_marks(&self) -> Vec<RecoveryMark> {
        self.0.borrow().marks.clone()
    }

    /// Total spans recorded (open and closed).
    pub fn span_count(&self) -> usize {
        self.0.borrow().spans.len()
    }

    /// Number of spans still open — the unbalanced-span tripwire: a
    /// clean run ends with zero.
    pub fn open_count(&self) -> usize {
        self.0
            .borrow()
            .spans
            .iter()
            .filter(|s| s.end.is_none())
            .count()
    }

    /// A copy of all recorded spans, in begin order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.0.borrow().spans.clone()
    }

    /// Per-name ([`SpanKind::name`]) duration statistics (µs) over
    /// closed spans, in name order.
    pub fn label_stats(&self) -> std::collections::BTreeMap<&'static str, OnlineStats> {
        let inner = self.0.borrow();
        let mut out = std::collections::BTreeMap::new();
        for span in &inner.spans {
            if span.end.is_some() {
                out.entry(span.kind.name())
                    .or_insert_with(OnlineStats::new)
                    .record(span.duration().as_micros_f64());
            }
        }
        out
    }

    /// Exports closed spans as Chrome trace-event JSON (complete `"X"`
    /// events; `pid` = realm + 1 (0 = host/unattributed, so realm 0
    /// gets its own lane), `tid` = core).
    /// Timestamps are µs with three deterministic decimal places
    /// computed by integer arithmetic. Open spans are skipped.
    ///
    /// Causally-linked spans additionally emit **flow events**: for each
    /// closed child span whose parent is also closed, an `s` (flow
    /// start) event anchored in the parent's context and a matching `f`
    /// (flow finish, `bp:"e"`) anchored at the child's begin, with the
    /// child's span id as the flow id — so every flow id appears exactly
    /// twice and Perfetto draws the arrow stitching the request across
    /// contexts.
    pub fn chrome_trace(&self) -> String {
        let inner = self.0.borrow();
        let mut out = String::with_capacity(64 + inner.spans.len() * 128);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        for span in &inner.spans {
            let Some(end) = span.end else { continue };
            if !first {
                out.push(',');
            }
            first = false;
            let start_ns = span.start.as_nanos();
            let dur_ns = end.as_nanos().saturating_sub(start_ns);
            let name = span.kind.name();
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"{name}\",\"ph\":\"X\",\"ts\":"
            );
            write_us(start_ns, &mut out);
            out.push_str(",\"dur\":");
            write_us(dur_ns, &mut out);
            let _ = write!(
                out,
                ",\"pid\":{},\"tid\":{}",
                span.realm.map_or(0, |r| r + 1),
                span.core.unwrap_or(0)
            );
            match (span.rec, span.trace) {
                (Some(rec), 0) => {
                    let _ = write!(out, ",\"args\":{{\"rec\":{rec}}}");
                }
                (Some(rec), t) => {
                    let _ = write!(out, ",\"args\":{{\"rec\":{rec},\"trace\":{t}}}");
                }
                (None, t) if t != 0 => {
                    let _ = write!(out, ",\"args\":{{\"trace\":{t}}}");
                }
                (None, _) => {}
            }
            out.push('}');
        }
        // Flow arrows: child spans linked under a closed parent.
        for span in &inner.spans {
            if span.parent == 0 || span.end.is_none() {
                continue;
            }
            let parent = &inner.spans[(span.parent - 1) as usize];
            let Some(parent_end) = parent.end else {
                continue;
            };
            // The flow-start timestamp must sit inside the parent span
            // for renderers to bind it; the child usually begins there
            // already, but clamp against rebased cross-run edges.
            let s_ts = span
                .start
                .as_nanos()
                .clamp(parent.start.as_nanos(), parent_end.as_nanos());
            let _ = write!(
                out,
                ",{{\"name\":\"req\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{},\"ts\":",
                span.id
            );
            write_us(s_ts, &mut out);
            let _ = write!(
                out,
                ",\"pid\":{},\"tid\":{}}}",
                parent.realm.map_or(0, |r| r + 1),
                parent.core.unwrap_or(0)
            );
            let _ = write!(
                out,
                ",{{\"name\":\"req\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\"ts\":",
                span.id
            );
            write_us(span.start.as_nanos(), &mut out);
            let _ = write!(
                out,
                ",\"pid\":{},\"tid\":{}}}",
                span.realm.map_or(0, |r| r + 1),
                span.core.unwrap_or(0)
            );
        }
        out.push_str("]}");
        out
    }
}

/// Span recording: every method is a no-op returning the null id or
/// context while no span store is attached.
impl TraceHandle {
    /// Runs `f` on the attached span store; returns `off` when none is
    /// attached.
    fn with_spans<R>(&self, off: R, f: impl FnOnce(&mut ProfInner) -> R) -> R {
        match &self.0.borrow().spans {
            Some(spans) => f(&mut spans.0.borrow_mut()),
            None => off,
        }
    }

    /// Opens a **root** span of a new causal trace: mints a fresh trace
    /// id and returns it alongside a context whose parent is the new
    /// span, ready to carry into the next hop. `(NULL, NULL)` when no
    /// span store is attached.
    pub fn begin_traced(
        &self,
        kind: SpanKind,
        core: Option<u16>,
        realm: Option<u32>,
        rec: Option<u32>,
    ) -> (SpanId, TraceCtx) {
        self.with_spans((SpanId::NULL, TraceCtx::NULL), |s| {
            s.next_trace += 1;
            let root = TraceCtx {
                trace: s.next_trace,
                parent: SpanId::NULL,
            };
            let start = s.now();
            s.push(kind, core, realm, rec, start, None, root)
        })
    }

    /// Opens a span at the current time, linked under `ctx`, and
    /// returns its id with the context advanced to it, so the next hop
    /// parents under this one. [`TraceCtx::NULL`] opens an untraced
    /// span; `(NULL, NULL)` when no span store is attached.
    pub fn begin_child(
        &self,
        kind: SpanKind,
        core: Option<u16>,
        realm: Option<u32>,
        rec: Option<u32>,
        ctx: TraceCtx,
    ) -> (SpanId, TraceCtx) {
        self.with_spans((SpanId::NULL, TraceCtx::NULL), |s| {
            let start = s.now();
            s.push(kind, core, realm, rec, start, None, ctx)
        })
    }

    /// Records a complete span over raw simulated times of the current
    /// run (rebase offset applied to both ends), linked under `ctx`;
    /// returns the context advanced to the new span. [`TraceCtx::NULL`]
    /// records an untraced span and returns `NULL`.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span_child(
        &self,
        kind: SpanKind,
        core: Option<u16>,
        realm: Option<u32>,
        rec: Option<u32>,
        start: SimTime,
        end: SimTime,
        ctx: TraceCtx,
    ) -> TraceCtx {
        self.with_spans(TraceCtx::NULL, |s| {
            let (start, end) = (s.timeline(start), s.timeline(end));
            s.push(kind, core, realm, rec, start, Some(end), ctx).1
        })
    }

    /// Closes an open span at the current time; no-op for
    /// [`SpanId::NULL`] or an already-closed span.
    pub fn end(&self, id: SpanId) {
        if id.is_null() {
            return;
        }
        self.with_spans((), |s| {
            let now = s.now();
            let span = &mut s.spans[(id.0 - 1) as usize];
            if span.end.is_none() {
                span.end = Some(now);
            }
        });
    }

    /// Records a complete untraced span of length `dur` starting at the
    /// current time (for costs known up front, e.g. a world switch).
    pub fn record_dur(
        &self,
        kind: SpanKind,
        core: Option<u16>,
        realm: Option<u32>,
        rec: Option<u32>,
        dur: SimDuration,
    ) {
        self.with_spans((), |s| {
            let start = s.now();
            s.push(
                kind,
                core,
                realm,
                rec,
                start,
                Some(start + dur),
                TraceCtx::NULL,
            );
        });
    }

    /// Marks that fault recovery fired at raw simulated time `t` of the
    /// current run (see module docs).
    pub fn mark_recovery(&self, t: SimTime, reason: &'static str) {
        self.with_spans((), |s| {
            let mark = RecoveryMark {
                t: s.timeline(t),
                reason,
                spans: s.spans.len(),
            };
            s.marks.push(mark);
        });
    }
}

/// Writes `ns` as microseconds with exactly three decimals using integer
/// math only (e.g. `2500` ns → `2.500`).
fn write_us(ns: u64, out: &mut String) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A handle recording into `spans`.
    fn attached(spans: Profiler) -> (Profiler, TraceHandle) {
        let h = TraceHandle::disabled();
        h.attach_spans(&spans);
        (spans, h)
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let (p, h) = attached(Profiler::disabled());
        h.set_now(SimTime::from_nanos(10));
        let (id, _) = h.begin_child(SpanKind::ExitRoundTrip, Some(0), None, None, TraceCtx::NULL);
        assert!(id.is_null());
        h.end(id);
        h.record_dur(
            SpanKind::WorldSwitch,
            Some(0),
            None,
            None,
            SimDuration::micros(1),
        );
        h.mark_recovery(SimTime::from_nanos(20), "io.watchdog_recovered");
        assert_eq!(p.span_count(), 0);
        assert!(p.recovery_marks().is_empty());
        assert_eq!(
            p.chrome_trace(),
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}"
        );
    }

    #[test]
    fn begin_end_produces_closed_span() {
        let (p, h) = attached(Profiler::capture());
        h.set_now(SimTime::from_nanos(1_000));
        let (id, ctx) = h.begin_child(
            SpanKind::RpcRequest,
            Some(2),
            Some(7),
            Some(1),
            TraceCtx::NULL,
        );
        assert!(ctx.is_null());
        h.set_now(SimTime::from_nanos(3_500));
        h.end(id);
        let spans = p.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].duration(), SimDuration::nanos(2_500));
        assert_eq!(spans[0].realm, Some(7));
    }

    #[test]
    fn double_end_is_idempotent() {
        let (p, h) = attached(Profiler::capture());
        let (id, _) = h.begin_child(SpanKind::SchedSlice, Some(0), None, None, TraceCtx::NULL);
        h.set_now(SimTime::from_nanos(100));
        h.end(id);
        h.set_now(SimTime::from_nanos(999));
        h.end(id);
        assert_eq!(p.snapshot()[0].end, Some(SimTime::from_nanos(100)));
    }

    #[test]
    fn rebase_offsets_later_runs() {
        let (p, h) = attached(Profiler::capture());
        h.set_now(SimTime::from_nanos(5_000));
        p.rebase();
        h.set_now(SimTime::from_nanos(100));
        h.record_dur(
            SpanKind::WorldSwitch,
            Some(0),
            None,
            None,
            SimDuration::nanos(50),
        );
        let s = &p.snapshot()[0];
        assert_eq!(s.start, SimTime::from_nanos(5_100));
    }

    #[test]
    fn chrome_trace_is_integer_formatted() {
        let (p, h) = attached(Profiler::capture());
        h.set_now(SimTime::from_nanos(1_234));
        h.record_dur(
            SpanKind::WorldSwitch,
            Some(3),
            Some(1),
            None,
            SimDuration::nanos(2_001),
        );
        let json = p.chrome_trace();
        assert!(json.contains("\"ts\":1.234"), "{json}");
        assert!(json.contains("\"dur\":2.001"), "{json}");
        // pid = realm + 1 so realm 0 keeps its own lane next to the host.
        assert!(json.contains("\"pid\":2"), "{json}");
        assert!(json.contains("\"tid\":3"), "{json}");
    }

    #[test]
    fn open_spans_are_skipped_in_export() {
        let (p, h) = attached(Profiler::capture());
        let _open = h.begin_child(SpanKind::ExitHandle, Some(0), None, None, TraceCtx::NULL);
        h.record_dur(
            SpanKind::TimerFire,
            Some(1),
            Some(0),
            Some(0),
            SimDuration::ZERO,
        );
        assert_eq!((p.span_count(), p.open_count()), (2, 1));
        let json = p.chrome_trace();
        assert!(!json.contains("exit.handle"));
        assert!(json.contains("timer.delegated_fire"));
    }

    #[test]
    fn traced_spans_link_parent_to_child() {
        let (p, h) = attached(Profiler::capture());
        h.set_now(SimTime::from_nanos(100));
        let (root, ctx) = h.begin_traced(SpanKind::VirtioKick, Some(1), Some(1), Some(0));
        assert!(!root.is_null());
        assert_eq!(ctx.parent, root);
        h.set_now(SimTime::from_nanos(200));
        h.end(root);
        let ctx2 = h.record_span_child(
            SpanKind::VirtioBackend,
            Some(0),
            None,
            None,
            SimTime::from_nanos(250),
            SimTime::from_nanos(400),
            ctx,
        );
        let (child, ctx3) = h.begin_child(SpanKind::VirtioComplete, None, Some(1), Some(0), ctx2);
        h.end(child);
        assert_eq!(ctx3.trace, ctx.trace);
        let spans = p.snapshot();
        assert_eq!(spans[0].trace, spans[1].trace);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[1].id);
        assert_eq!(spans[0].parent, 0);
    }

    #[test]
    fn disabled_profiler_mints_no_trace_ids() {
        let (p, h) = attached(Profiler::disabled());
        let (id, ctx) = h.begin_traced(SpanKind::IvcPublish, Some(0), Some(1), None);
        assert!(id.is_null());
        assert!(ctx.is_null());
        let (id2, ctx2) = h.begin_child(SpanKind::IvcDrain, Some(1), Some(2), None, ctx);
        assert!(id2.is_null() && ctx2.is_null());
        assert_eq!(p.span_count(), 0);
    }

    #[test]
    fn null_ctx_child_records_untraced_span() {
        let (p, h) = attached(Profiler::capture());
        let ctx = h.record_span_child(
            SpanKind::VirtioBackend,
            Some(0),
            None,
            None,
            SimTime::ZERO,
            SimTime::from_nanos(10),
            TraceCtx::NULL,
        );
        assert!(ctx.is_null());
        let s = &p.snapshot()[0];
        assert_eq!((s.trace, s.parent), (0, 0));
    }

    #[test]
    fn chrome_trace_emits_matched_flow_events() {
        let (p, h) = attached(Profiler::capture());
        h.set_now(SimTime::from_nanos(1_000));
        let (root, ctx) = h.begin_traced(SpanKind::ExitRoundTrip, Some(1), Some(1), Some(0));
        h.set_now(SimTime::from_nanos(5_000));
        h.end(root);
        h.record_span_child(
            SpanKind::ExitHandle,
            Some(0),
            None,
            None,
            SimTime::from_nanos(2_000),
            SimTime::from_nanos(3_000),
            ctx,
        );
        let json = p.chrome_trace();
        let s_count = json.matches("\"ph\":\"s\"").count();
        let f_count = json.matches("\"ph\":\"f\"").count();
        assert_eq!(s_count, 1, "{json}");
        assert_eq!(f_count, 1, "{json}");
        // Flow start binds inside the parent (realm 1 → pid 2, tid 1),
        // finish at the child (host → pid 0, tid 0).
        assert!(
            json.contains("\"ph\":\"s\",\"id\":2,\"ts\":2.000,\"pid\":2,\"tid\":1"),
            "{json}"
        );
        assert!(
            json.contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":2,\"ts\":2.000,\"pid\":0,\"tid\":0"),
            "{json}"
        );
        assert!(json.contains("\"trace\":1"), "{json}");
    }

    #[test]
    fn flow_events_skip_open_parents() {
        let (p, h) = attached(Profiler::capture());
        let (_open_root, ctx) = h.begin_traced(SpanKind::ExitRoundTrip, Some(0), Some(1), None);
        h.record_span_child(
            SpanKind::ExitHandle,
            Some(1),
            None,
            None,
            SimTime::ZERO,
            SimTime::from_nanos(5),
            ctx,
        );
        let json = p.chrome_trace();
        assert!(!json.contains("\"ph\":\"s\""), "{json}");
        assert_eq!(p.open_count(), 1);
    }

    #[test]
    fn open_count_tracks_unbalanced_spans() {
        let (p, h) = attached(Profiler::capture());
        assert_eq!(p.open_count(), 0);
        let (a, _) = h.begin_child(SpanKind::SchedSlice, Some(0), None, None, TraceCtx::NULL);
        let _b = h.begin_child(SpanKind::ExitHandle, Some(1), None, None, TraceCtx::NULL);
        assert_eq!(p.open_count(), 2);
        h.end(a);
        assert_eq!(p.open_count(), 1);
    }

    #[test]
    fn label_stats_aggregate_durations() {
        let (p, h) = attached(Profiler::capture());
        h.record_dur(
            SpanKind::WorldSwitch,
            Some(0),
            None,
            None,
            SimDuration::micros(2),
        );
        h.record_dur(
            SpanKind::WorldSwitch,
            Some(1),
            None,
            None,
            SimDuration::micros(4),
        );
        let stats = p.label_stats();
        let ws = &stats["world.switch"];
        assert_eq!(ws.count(), 2);
        assert!((ws.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn recovery_marks_sit_beside_the_spans() {
        let (p, h) = attached(Profiler::capture());
        h.set_now(SimTime::from_nanos(5_000));
        p.rebase();
        let (root, ctx) = h.begin_traced(SpanKind::IvcPublish, Some(0), Some(1), Some(0));
        h.set_now(SimTime::from_nanos(100));
        h.end(root);
        let before = (p.chrome_trace(), p.snapshot());
        h.mark_recovery(SimTime::from_nanos(100), "ivc.watchdog_recovered");
        assert_eq!((p.chrome_trace(), p.snapshot()), before);
        h.record_span_child(
            SpanKind::IvcDrain,
            Some(1),
            Some(2),
            Some(0),
            SimTime::from_nanos(150),
            SimTime::from_nanos(150),
            ctx,
        );
        let marks = p.recovery_marks();
        assert_eq!(marks.len(), 1);
        assert_eq!(marks[0].t, SimTime::from_nanos(5_100), "rebased");
        assert_eq!(marks[0].reason, "ivc.watchdog_recovered");
        assert_eq!(marks[0].spans, 1);
        // The drain after the mark still takes the next span id.
        assert_eq!(p.snapshot()[1].id, 2);
        assert_eq!(p.snapshot()[1].parent, 1);
    }
}
