//! The structured trace harness for debugging simulations.
//!
//! [`TraceRecord`]s are tagged with a [`TraceKind`], a global sequence
//! number, and optional core/realm/REC attribution, and recorded through a
//! cheaply cloneable [`TraceHandle`] that every instrumented subsystem
//! shares. The same handle records spans into an attached
//! [`Profiler`], so a subsystem holds one observation handle for both. Two same-seed runs can then be compared
//! record-by-record with [`TraceDiff`] to pin down the *first divergent
//! event*, and [`TraceDumpGuard`] dumps the tail of the trace when a test
//! panics mid-run.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use crate::profiler::Profiler;
use crate::time::SimTime;

/// Category of a structured trace record.
///
/// The set is deliberately coarse: a record's `kind` answers "which layer
/// acted", and the free-form detail string answers "what exactly happened".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// The event loop popped an event from the [`crate::EventQueue`].
    EventPop,
    /// A host scheduler decision (enqueue, pick, block, wake).
    Sched,
    /// A physical or virtual interrupt transition (raise, inject, LR sync).
    Irq,
    /// A run-channel (RPC) protocol transition (post, take, respond).
    Rpc,
    /// A timer was programmed, cancelled, or fired.
    Timer,
    /// A free-form marker emitted by a test or experiment.
    Mark,
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceKind::EventPop => "pop",
            TraceKind::Sched => "sched",
            TraceKind::Irq => "irq",
            TraceKind::Rpc => "rpc",
            TraceKind::Timer => "timer",
            TraceKind::Mark => "mark",
        };
        f.write_str(s)
    }
}

/// One structured trace record.
///
/// Records compare with `==` across whole runs: two same-seed simulations
/// are behaviourally identical exactly when their record streams are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Position in the global record stream (0-based, never reused).
    pub seq: u64,
    /// Simulated time at which the record was made.
    pub time: SimTime,
    /// Which layer acted.
    pub kind: TraceKind,
    /// Physical core involved, if attributable.
    pub core: Option<u16>,
    /// Realm (confidential VM) involved, if attributable.
    pub realm: Option<u32>,
    /// REC (confidential vCPU) involved, if attributable.
    pub rec: Option<u32>,
    /// Human-readable description of the transition.
    pub detail: String,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:<6} [{:>12}] {:5}", self.seq, self.time, self.kind)?;
        match self.core {
            Some(c) => write!(f, " core={c}")?,
            None => f.write_str(" core=-")?,
        }
        if let Some(r) = self.realm {
            write!(f, " realm={r}")?;
        }
        if let Some(r) = self.rec {
            write!(f, " rec={r}")?;
        }
        write!(f, " {}", self.detail)
    }
}

/// The shared state behind a [`TraceHandle`].
///
/// Holds the ring of retained records, the global sequence counter, the
/// current simulated time (stamped onto records as they are made — the
/// instrumented subsystems themselves do not know the time; the event loop
/// calls [`TraceHandle::set_now`] as it advances), and the span store
/// spans are recorded into while one is attached.
#[derive(Debug)]
pub struct StructuredTrace {
    records: VecDeque<TraceRecord>,
    /// Retention limit; `usize::MAX` means capture everything.
    capacity: usize,
    enabled: bool,
    now: SimTime,
    next_seq: u64,
    /// The attached span store; `None` records no spans.
    pub(crate) spans: Option<Profiler>,
}

impl Default for StructuredTrace {
    fn default() -> Self {
        StructuredTrace {
            records: VecDeque::new(),
            capacity: 0,
            enabled: false,
            now: SimTime::ZERO,
            next_seq: 0,
            spans: None,
        }
    }
}

/// A cheaply cloneable handle onto a [`StructuredTrace`]: the one
/// observation handle, for structured records and for spans.
///
/// Every instrumented subsystem (scheduler, GIC, timers, run channels, ...)
/// is given a clone when it is created; the event loop owns the "primary"
/// clone and drives [`set_now`](TraceHandle::set_now). What the handle
/// keeps is changed in place ([`keep_records`](TraceHandle::keep_records),
/// [`attach_spans`](TraceHandle::attach_spans)), so every clone sees the
/// change. A default-constructed handle is disabled and recording through
/// it is a no-op costing one borrow and one test (the detail closure is
/// not even invoked), so instrumentation costs nothing unless a test opts
/// in.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle(pub(crate) Rc<RefCell<StructuredTrace>>);

impl TraceHandle {
    /// Creates a disabled handle (records nothing).
    pub fn disabled() -> TraceHandle {
        TraceHandle::default()
    }

    /// Creates an enabled handle retaining at most `capacity` records
    /// (oldest evicted first).
    pub fn ring(capacity: usize) -> TraceHandle {
        let handle = TraceHandle::default();
        handle.keep_records(capacity);
        handle
    }

    /// Creates an enabled handle that retains *every* record.
    ///
    /// Use for divergence diagnosis ([`TraceDiff`] needs the full stream);
    /// prefer [`ring`](TraceHandle::ring) for long runs.
    pub fn capture() -> TraceHandle {
        TraceHandle::ring(usize::MAX)
    }

    /// Starts the record stream over, retaining at most `capacity`
    /// records from now on (`usize::MAX` keeps every record, 0 none).
    /// Every clone of the handle sees the change.
    pub fn keep_records(&self, capacity: usize) {
        let mut inner = self.0.borrow_mut();
        inner.records.clear();
        inner.next_seq = 0;
        inner.capacity = capacity;
        inner.enabled = capacity > 0;
    }

    /// Records spans into `spans` from now on, or none if it is
    /// disabled. Every clone of the handle sees the change.
    pub fn attach_spans(&self, spans: &Profiler) {
        self.0.borrow_mut().spans = spans.is_enabled().then(|| spans.clone());
    }

    /// Whether records are currently being retained.
    pub fn is_enabled(&self) -> bool {
        self.0.borrow().enabled
    }

    /// Advances the time stamped onto subsequent records, and the clock
    /// of the attached span store.
    ///
    /// Called by the event loop; subsystems never call this.
    pub fn set_now(&self, now: SimTime) {
        let mut inner = self.0.borrow_mut();
        inner.now = now;
        if let Some(spans) = &inner.spans {
            spans.set_now(now);
        }
    }

    /// The time currently stamped onto records.
    pub fn now(&self) -> SimTime {
        self.0.borrow().now
    }

    /// Records an event with no realm/REC attribution.
    ///
    /// `detail` is only invoked when the handle is enabled, so callers can
    /// format eagerly-expensive strings without guarding on
    /// [`is_enabled`](TraceHandle::is_enabled).
    pub fn record(&self, kind: TraceKind, core: Option<u16>, detail: impl FnOnce() -> String) {
        self.record_vm(kind, core, None, None, detail);
    }

    /// Records an event attributed to a realm and/or REC.
    pub fn record_vm(
        &self,
        kind: TraceKind,
        core: Option<u16>,
        realm: Option<u32>,
        rec: Option<u32>,
        detail: impl FnOnce() -> String,
    ) {
        let mut inner = self.0.borrow_mut();
        if !inner.enabled {
            return;
        }
        let record = TraceRecord {
            seq: inner.next_seq,
            time: inner.now,
            kind,
            core,
            realm,
            rec,
            detail: detail(),
        };
        inner.next_seq += 1;
        if inner.records.len() == inner.capacity {
            inner.records.pop_front();
        }
        inner.records.push_back(record);
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.0.borrow().records.len()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of records ever made (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.0.borrow().next_seq
    }

    /// Clones out every retained record, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.0.borrow().records.iter().cloned().collect()
    }

    /// Clones out the last `n` retained records, oldest first.
    pub fn tail(&self, n: usize) -> Vec<TraceRecord> {
        let inner = self.0.borrow();
        let skip = inner.records.len().saturating_sub(n);
        inner.records.iter().skip(skip).cloned().collect()
    }

    /// Renders the last `n` retained records as a multi-line string.
    pub fn render_tail(&self, n: usize) -> String {
        let mut out = String::new();
        for r in self.tail(n) {
            out.push_str(&r.to_string());
            out.push('\n');
        }
        out
    }

    /// Drops all retained records (the sequence counter keeps running).
    pub fn clear(&self) {
        self.0.borrow_mut().records.clear();
    }
}

/// Number of trailing records a [`TraceDumpGuard`] dumps by default.
pub const DEFAULT_DUMP_RECORDS: usize = 100;

/// Dumps the tail of a trace when dropped during a panic.
///
/// The event loop constructs one of these at the top of each run method;
/// if an assertion fires while handling an event, the guard's `Drop` runs
/// during unwinding and prints the last [`DEFAULT_DUMP_RECORDS`] records —
/// the history leading up to the failure — to stderr (or to a test-provided
/// sink). On normal exit the guard does nothing.
#[derive(Debug)]
pub struct TraceDumpGuard {
    handle: TraceHandle,
    limit: usize,
    sink: Option<Rc<RefCell<String>>>,
}

impl TraceDumpGuard {
    /// Creates a guard dumping the last [`DEFAULT_DUMP_RECORDS`] records of
    /// `handle` on panic.
    pub fn new(handle: TraceHandle) -> TraceDumpGuard {
        TraceDumpGuard {
            handle,
            limit: DEFAULT_DUMP_RECORDS,
            sink: None,
        }
    }

    /// Overrides how many trailing records are dumped.
    pub fn with_limit(mut self, limit: usize) -> TraceDumpGuard {
        self.limit = limit;
        self
    }

    /// Redirects the dump into `sink` instead of stderr (for tests that
    /// assert on the dump-on-panic path itself).
    pub fn with_sink(mut self, sink: Rc<RefCell<String>>) -> TraceDumpGuard {
        self.sink = Some(sink);
        self
    }
}

impl Drop for TraceDumpGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() || !self.handle.is_enabled() {
            return;
        }
        let total = self.handle.recorded();
        let body = self.handle.render_tail(self.limit);
        let dump = format!(
            "=== trace dump: last {} of {} records ===\n{}=== end trace dump ===\n",
            self.handle.tail(self.limit).len(),
            total,
            body
        );
        match &self.sink {
            Some(sink) => sink.borrow_mut().push_str(&dump),
            None => eprintln!("{dump}"),
        }
    }
}

/// The first point at which two record streams disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index into both streams of the first disagreement.
    pub index: usize,
    /// The left run's record at that index (`None`: left ended early).
    pub left: Option<TraceRecord>,
    /// The right run's record at that index (`None`: right ended early).
    pub right: Option<TraceRecord>,
    /// Up to `context` matching records preceding the divergence.
    pub context: Vec<TraceRecord>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn side(f: &mut fmt::Formatter<'_>, label: &str, r: &Option<TraceRecord>) -> fmt::Result {
            match r {
                Some(r) => writeln!(
                    f,
                    "  {label}: {r}\n         (time={}, seq={}, core={})",
                    r.time,
                    r.seq,
                    r.core.map(|c| c.to_string()).unwrap_or_else(|| "-".into())
                ),
                None => writeln!(f, "  {label}: <stream ended>"),
            }
        }
        writeln!(f, "first divergence at stream index {}:", self.index)?;
        side(f, "left ", &self.left)?;
        side(f, "right", &self.right)?;
        if !self.context.is_empty() {
            writeln!(f, "  preceding context ({} records):", self.context.len())?;
            for r in &self.context {
                writeln!(f, "    {r}")?;
            }
        }
        Ok(())
    }
}

/// Record-stream comparison: find where two same-seed runs first disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceDiff;

impl TraceDiff {
    /// Compares two record streams and reports the first index at which
    /// they disagree, with up to `context` matching records of preceding
    /// history attached. Returns `None` when the streams are identical.
    ///
    /// Streams should come from [`TraceHandle::capture`] (or same-capacity
    /// rings) so indices line up.
    pub fn first_divergence(
        a: &[TraceRecord],
        b: &[TraceRecord],
        context: usize,
    ) -> Option<Divergence> {
        let shared = a.len().min(b.len());
        let index = (0..shared)
            .find(|&i| a[i] != b[i])
            .or_else(|| (a.len() != b.len()).then_some(shared))?;
        let start = index.saturating_sub(context);
        Some(Divergence {
            index,
            left: a.get(index).cloned(),
            right: b.get(index).cloned(),
            context: a[start..index].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(h: &TraceHandle, t: u64, core: u16, what: &str) {
        h.set_now(SimTime::from_nanos(t));
        let what = what.to_string();
        h.record(TraceKind::Mark, Some(core), move || what);
    }

    #[test]
    fn disabled_handle_skips_detail_closure() {
        let h = TraceHandle::disabled();
        let mut called = false;
        h.record(TraceKind::Mark, None, || {
            called = true;
            "x".into()
        });
        assert!(!called, "detail closure must not run when disabled");
        assert!(!h.is_enabled());
        assert_eq!(h.recorded(), 0);
    }

    #[test]
    fn ring_evicts_oldest_but_seq_keeps_running() {
        let h = TraceHandle::ring(3);
        for i in 0..5 {
            mark(&h, i, 0, &format!("m{i}"));
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.recorded(), 5);
        let snap = h.snapshot();
        assert_eq!(snap[0].seq, 2);
        assert_eq!(snap[2].seq, 4);
        assert_eq!(h.tail(2).len(), 2);
        assert_eq!(h.tail(2)[0].seq, 3);
    }

    #[test]
    fn clones_share_state() {
        let h = TraceHandle::capture();
        let h2 = h.clone();
        mark(&h, 10, 1, "via h");
        mark(&h2, 20, 2, "via h2");
        assert_eq!(h.len(), 2);
        let snap = h2.snapshot();
        assert_eq!(snap[0].detail, "via h");
        assert_eq!(snap[1].time, SimTime::from_nanos(20));
        assert_eq!(snap[1].core, Some(2));
    }

    #[test]
    fn record_display_includes_attribution() {
        let h = TraceHandle::capture();
        h.set_now(SimTime::from_nanos(1500));
        h.record_vm(TraceKind::Irq, Some(3), Some(7), Some(1), || {
            "inject".into()
        });
        let s = h.snapshot()[0].to_string();
        assert!(s.contains("irq"), "{s}");
        assert!(s.contains("core=3"), "{s}");
        assert!(s.contains("realm=7"), "{s}");
        assert!(s.contains("rec=1"), "{s}");
        assert!(s.contains("inject"), "{s}");
    }

    #[test]
    fn diff_identical_streams_is_none() {
        let h1 = TraceHandle::capture();
        let h2 = TraceHandle::capture();
        for h in [&h1, &h2] {
            mark(h, 1, 0, "a");
            mark(h, 2, 1, "b");
        }
        assert_eq!(
            TraceDiff::first_divergence(&h1.snapshot(), &h2.snapshot(), 4),
            None
        );
    }

    #[test]
    fn diff_reports_first_mismatch_with_context() {
        let h1 = TraceHandle::capture();
        let h2 = TraceHandle::capture();
        for h in [&h1, &h2] {
            mark(h, 1, 0, "same0");
            mark(h, 2, 0, "same1");
            mark(h, 3, 0, "same2");
        }
        mark(&h1, 4, 1, "left-only");
        mark(&h2, 4, 2, "right-only");
        let d = TraceDiff::first_divergence(&h1.snapshot(), &h2.snapshot(), 2)
            .expect("streams diverge");
        assert_eq!(d.index, 3);
        assert_eq!(d.left.as_ref().unwrap().detail, "left-only");
        assert_eq!(d.right.as_ref().unwrap().detail, "right-only");
        assert_eq!(d.context.len(), 2);
        assert_eq!(d.context[0].detail, "same1");
        let shown = d.to_string();
        assert!(shown.contains("index 3"), "{shown}");
        assert!(shown.contains("core=1"), "{shown}");
        assert!(shown.contains("core=2"), "{shown}");
    }

    #[test]
    fn diff_detects_length_mismatch() {
        let h1 = TraceHandle::capture();
        let h2 = TraceHandle::capture();
        mark(&h1, 1, 0, "a");
        mark(&h2, 1, 0, "a");
        mark(&h2, 2, 0, "extra");
        let d = TraceDiff::first_divergence(&h1.snapshot(), &h2.snapshot(), 8)
            .expect("length mismatch is a divergence");
        assert_eq!(d.index, 1);
        assert!(d.left.is_none());
        assert_eq!(d.right.as_ref().unwrap().detail, "extra");
    }

    #[test]
    fn dump_guard_is_silent_without_panic() {
        let h = TraceHandle::capture();
        mark(&h, 1, 0, "quiet");
        let sink = Rc::new(RefCell::new(String::new()));
        {
            let _guard = TraceDumpGuard::new(h.clone()).with_sink(sink.clone());
        }
        assert!(sink.borrow().is_empty());
    }

    #[test]
    fn dump_guard_writes_tail_on_panic() {
        let h = TraceHandle::capture();
        for i in 0..150 {
            mark(&h, i, 0, &format!("step{i}"));
        }
        let sink = Rc::new(RefCell::new(String::new()));
        let guard_handle = h.clone();
        let guard_sink = sink.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _guard = TraceDumpGuard::new(guard_handle).with_sink(guard_sink);
            panic!("boom");
        }));
        assert!(result.is_err());
        let dump = sink.borrow().clone();
        assert!(
            dump.contains("last 100 of 150 records"),
            "dump header wrong: {dump}"
        );
        assert!(!dump.contains("step49"), "only the tail is dumped: {dump}");
        assert!(dump.contains("step50"), "{dump}");
        assert!(dump.contains("step149"), "{dump}");
    }
}
