//! The host kernel scheduler: per-core run queues with FIFO and fair
//! classes.
//!
//! Deterministic by construction: ties break on enqueue order, and wake
//! placement picks the least-loaded allowed core (lowest id on ties).

use std::collections::{BTreeMap, VecDeque};

use cg_machine::CoreId;
use cg_sim::{SimDuration, SpanId, SpanKind, TraceCtx, TraceHandle, TraceKind};

use crate::thread::{SchedClass, Thread, ThreadId, ThreadKind, ThreadState};

/// Default fair-class timeslice.
pub const FAIR_TIMESLICE: SimDuration = SimDuration::millis(3);

/// Per-core run queues.
#[derive(Debug, Default)]
struct RunQueue {
    /// FIFO-class threads ordered by (priority desc, enqueue order).
    fifo: Vec<(u8, u64, ThreadId)>,
    /// Fair-class round robin.
    fair: VecDeque<ThreadId>,
    /// Currently running thread.
    current: Option<ThreadId>,
}

impl RunQueue {
    fn runnable_len(&self) -> usize {
        self.fifo.len() + self.fair.len()
    }
}

/// The scheduler: owns all host threads and their queues.
///
/// # Example
///
/// ```
/// use cg_host::{SchedClass, Scheduler, ThreadKind};
/// use cg_machine::CoreId;
///
/// let mut sched = Scheduler::new();
/// let tid = sched.spawn(ThreadKind::Housekeeping, SchedClass::Fair, [CoreId(0)]);
/// assert_eq!(sched.pick_next(CoreId(0)), Some(tid));
/// ```
#[derive(Debug, Default)]
pub struct Scheduler {
    threads: BTreeMap<ThreadId, Thread>,
    queues: BTreeMap<CoreId, RunQueue>,
    /// Where each thread last ran (wake placement affinity).
    last_core: BTreeMap<ThreadId, CoreId>,
    next_tid: u32,
    enqueue_seq: u64,
    /// Observation handle (disabled by default): records scheduling
    /// decisions, and each on-CPU slice — pick to yield/block/exit — as
    /// one span.
    trace: TraceHandle,
    /// Open slice span per core (only populated while spans are
    /// recorded).
    open_slices: BTreeMap<CoreId, SpanId>,
}

impl Scheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Scheduler {
        Scheduler::default()
    }

    /// Creates an empty scheduler recording through `trace`.
    pub fn with_trace(trace: TraceHandle) -> Scheduler {
        Scheduler {
            trace,
            ..Scheduler::default()
        }
    }

    /// Spawns a new runnable thread and enqueues it.
    pub fn spawn(
        &mut self,
        kind: ThreadKind,
        class: SchedClass,
        affinity: impl IntoIterator<Item = CoreId>,
    ) -> ThreadId {
        let id = ThreadId(self.next_tid);
        self.next_tid += 1;
        let thread = Thread::new(id, kind, class, affinity);
        self.threads.insert(id, thread);
        self.enqueue(id);
        id
    }

    /// Immutable access to a thread.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id (a dangling thread id is a logic bug).
    pub fn thread(&self, id: ThreadId) -> &Thread {
        self.threads.get(&id).expect("unknown thread id")
    }

    fn thread_mut(&mut self, id: ThreadId) -> &mut Thread {
        self.threads.get_mut(&id).expect("unknown thread id")
    }

    /// All thread ids.
    pub fn thread_ids(&self) -> Vec<ThreadId> {
        self.threads.keys().copied().collect()
    }

    /// Chooses the core to enqueue a runnable thread on: the core it
    /// last ran on if that queue is no longer than the shortest (cache
    /// affinity, as CFS prefers `prev_cpu`), else the allowed core with
    /// the fewest runnable threads (ties → lowest id).
    fn place(&self, id: ThreadId) -> CoreId {
        let t = self.thread(id);
        let load = |c: &CoreId| self.queues.get(c).map(|q| q.runnable_len()).unwrap_or(0);
        let best = t
            .affinity()
            .min_by_key(|c| (load(c), c.index()))
            .expect("affinity non-empty");
        match self.last_core.get(&id) {
            Some(&prev) if t.can_run_on(prev) && load(&prev) <= load(&best) => prev,
            _ => best,
        }
    }

    fn enqueue(&mut self, id: ThreadId) {
        let core = self.place(id);
        let class = self.thread(id).class();
        let seq = self.enqueue_seq;
        self.enqueue_seq += 1;
        let q = self.queues.entry(core).or_default();
        match class {
            SchedClass::Fifo(prio) => {
                q.fifo.push((prio, seq, id));
                // Highest priority first; FIFO within a priority.
                q.fifo.sort_by_key(|&(p, s, _)| (std::cmp::Reverse(p), s));
            }
            SchedClass::Fair => q.fair.push_back(id),
        }
        self.thread_mut(id).set_state(ThreadState::Runnable);
        self.trace.record(TraceKind::Sched, Some(core.0), || {
            format!("sched.enqueue {id} seq={seq}")
        });
    }

    /// Picks the next thread to run on `core` and marks it running.
    /// Returns `None` if the queue is empty (the core idles).
    pub fn pick_next(&mut self, core: CoreId) -> Option<ThreadId> {
        let q = self.queues.entry(core).or_default();
        debug_assert!(q.current.is_none(), "core already running a thread");
        let id = if !q.fifo.is_empty() {
            Some(q.fifo.remove(0).2)
        } else {
            q.fair.pop_front()
        }?;
        q.current = Some(id);
        self.last_core.insert(id, core);
        self.thread_mut(id).set_state(ThreadState::Running(core));
        self.trace.record(TraceKind::Sched, Some(core.0), || {
            format!("sched.pick {id}")
        });
        let (span, _) = self.trace.begin_child(
            SpanKind::SchedSlice,
            Some(core.0),
            None,
            None,
            TraceCtx::NULL,
        );
        if !span.is_null() {
            self.open_slices.insert(core, span);
        }
        Some(id)
    }

    /// The thread currently running on `core`.
    pub fn current(&self, core: CoreId) -> Option<ThreadId> {
        self.queues.get(&core).and_then(|q| q.current)
    }

    /// Number of runnable (queued, not running) threads on `core`.
    pub fn runnable_on(&self, core: CoreId) -> usize {
        self.queues
            .get(&core)
            .map(|q| q.runnable_len())
            .unwrap_or(0)
    }

    /// The running thread on `core` yields the CPU but stays runnable
    /// (end of timeslice): it is re-enqueued.
    pub fn yield_current(&mut self, core: CoreId) {
        if let Some(id) = self.take_current(core) {
            self.enqueue(id);
        }
    }

    /// The running thread on `core` blocks.
    ///
    /// # Panics
    ///
    /// Panics if nothing is running on `core`.
    pub fn block_current(&mut self, core: CoreId) -> ThreadId {
        let id = self.take_current(core).expect("no running thread to block");
        self.thread_mut(id).set_state(ThreadState::Blocked);
        self.trace.record(TraceKind::Sched, Some(core.0), || {
            format!("sched.block {id}")
        });
        id
    }

    /// The running thread on `core` exits and is reaped immediately:
    /// its `Thread` record and wake-placement hint are removed, so the
    /// scheduler's maps stay bounded by the number of *live* threads no
    /// matter how many threads churn through over the node's lifetime.
    /// The returned id is dangling from this point on.
    ///
    /// # Panics
    ///
    /// Panics if nothing is running on `core`.
    pub fn exit_current(&mut self, core: CoreId) -> ThreadId {
        let id = self.take_current(core).expect("no running thread to exit");
        self.trace.record(TraceKind::Sched, Some(core.0), || {
            format!("sched.exit {id}")
        });
        self.threads.remove(&id);
        self.last_core.remove(&id);
        id
    }

    /// Number of live (un-reaped) threads the scheduler tracks.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Number of wake-placement hints retained (≤ live threads).
    pub fn placement_hints(&self) -> usize {
        self.last_core.len()
    }

    /// Returns `true` if `id` refers to a live (un-reaped) thread.
    pub fn contains(&self, id: ThreadId) -> bool {
        self.threads.contains_key(&id)
    }

    fn take_current(&mut self, core: CoreId) -> Option<ThreadId> {
        let id = self.queues.entry(core).or_default().current.take();
        if id.is_some() {
            if let Some(span) = self.open_slices.remove(&core) {
                self.trace.end(span);
            }
        }
        id
    }

    /// Wakes a blocked thread, enqueueing it. Returns the core it was
    /// placed on and whether it should preempt that core's current
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics if the thread is not blocked (waking a runnable/running
    /// thread indicates a lost-wakeup style bug in the caller).
    pub fn wake(&mut self, id: ThreadId) -> (CoreId, bool) {
        assert_eq!(
            self.thread(id).state(),
            ThreadState::Blocked,
            "wake of non-blocked {id}"
        );
        let core = self.place(id);
        let class = self.thread(id).class();
        self.enqueue(id);
        let preempts = self
            .current(core)
            .map(|cur| class.preempts(self.thread(cur).class()))
            .unwrap_or(false);
        self.trace.record(TraceKind::Sched, Some(core.0), || {
            format!(
                "sched.wake {id} -> core{}{}",
                core.0,
                if preempts { " preempts" } else { "" }
            )
        });
        (core, preempts)
    }

    /// Returns `true` if the thread is blocked. Total over arbitrary
    /// ids: an exited (reaped) thread is simply not blocked, so stale
    /// wake sources (late doorbells, watchdog rescans) stay harmless.
    pub fn is_blocked(&self, id: ThreadId) -> bool {
        self.threads
            .get(&id)
            .map(|t| t.state() == ThreadState::Blocked)
            .unwrap_or(false)
    }

    /// Closes every open per-core slice span. Called when a run ends
    /// with threads still on CPU (a truncated run), so the
    /// unbalanced-span tripwire only counts genuinely leaked spans.
    pub fn finish_open_slices(&mut self) {
        for (_, span) in std::mem::take(&mut self.open_slices) {
            self.trace.end(span);
        }
    }

    /// Removes `core` from scheduling: the running thread (if any) and
    /// all queued threads are re-homed to their remaining affinity.
    /// Returns the migrated thread ids. Used by CPU hotplug.
    ///
    /// # Panics
    ///
    /// Panics if a thread's affinity becomes empty (hotplug of the last
    /// allowed core — the caller must re-affine such threads first).
    pub fn evacuate(&mut self, core: CoreId) -> Vec<ThreadId> {
        if let Some(span) = self.open_slices.remove(&core) {
            self.trace.end(span);
        }
        let q = self.queues.remove(&core).unwrap_or_default();
        let queued: Vec<ThreadId> = q
            .current
            .into_iter()
            .chain(q.fifo.into_iter().map(|(_, _, id)| id))
            .chain(q.fair)
            .collect();
        // *Every* thread loses the core from its mask — including blocked
        // ones, which would otherwise wake onto the offline core and be
        // stranded (Linux: cpu_active masking).
        let all: Vec<ThreadId> = self
            .threads
            .iter()
            .filter(|(_, t)| t.state() != ThreadState::Exited && t.can_run_on(core))
            .map(|(&id, _)| id)
            .collect();
        for id in all {
            let new_affinity: Vec<CoreId> =
                self.thread(id).affinity().filter(|&c| c != core).collect();
            self.thread_mut(id).set_affinity(new_affinity);
        }
        self.last_core.retain(|_, c| *c != core);
        let mut migrated = Vec::new();
        for id in queued {
            self.enqueue(id);
            migrated.push(id);
        }
        migrated
    }

    /// Narrows a thread's affinity, removing `core`; if the thread sits
    /// queued on `core` it is migrated immediately: pulled out of that
    /// core's run queue and re-enqueued through normal placement over
    /// the narrowed mask, so it can never be picked to run on `core`
    /// again. The wake-placement hint is also dropped if it pointed at
    /// `core`, so a later wake does not steer the thread back.
    ///
    /// The thread must not be *running* on `core` — use
    /// [`Scheduler::evacuate`] to clear a whole core.
    ///
    /// # Panics
    ///
    /// Panics if the affinity would become empty.
    pub fn remove_core_affinity(&mut self, id: ThreadId, core: CoreId) {
        let new_affinity: Vec<CoreId> = self.thread(id).affinity().filter(|&c| c != core).collect();
        self.thread_mut(id).set_affinity(new_affinity);
        if self.last_core.get(&id) == Some(&core) {
            self.last_core.remove(&id);
        }
        let queued_here = self.queues.get_mut(&core).is_some_and(|q| {
            debug_assert_ne!(
                q.current,
                Some(id),
                "remove_core_affinity on the thread running there"
            );
            let before = q.runnable_len();
            q.fifo.retain(|&(_, _, t)| t != id);
            q.fair.retain(|&t| t != id);
            before != q.runnable_len()
        });
        if queued_here {
            self.trace.record(TraceKind::Sched, Some(core.0), || {
                format!("sched.migrate {id} off core{}", core.0)
            });
            self.enqueue(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(1);

    #[test]
    fn fifo_beats_fair() {
        let mut s = Scheduler::new();
        let fair = s.spawn(ThreadKind::Housekeeping, SchedClass::Fair, [C0]);
        let fifo = s.spawn(ThreadKind::Wakeup, SchedClass::Fifo(1), [C0]);
        assert_eq!(s.pick_next(C0), Some(fifo));
        s.block_current(C0);
        assert_eq!(s.pick_next(C0), Some(fair));
    }

    #[test]
    fn fifo_priority_order_stable() {
        let mut s = Scheduler::new();
        let lo = s.spawn(ThreadKind::Housekeeping, SchedClass::Fifo(1), [C0]);
        let hi1 = s.spawn(ThreadKind::Housekeeping, SchedClass::Fifo(5), [C0]);
        let hi2 = s.spawn(ThreadKind::Housekeeping, SchedClass::Fifo(5), [C0]);
        assert_eq!(s.pick_next(C0), Some(hi1));
        s.block_current(C0);
        assert_eq!(s.pick_next(C0), Some(hi2));
        s.block_current(C0);
        assert_eq!(s.pick_next(C0), Some(lo));
    }

    #[test]
    fn fair_round_robin_via_yield() {
        let mut s = Scheduler::new();
        let a = s.spawn(ThreadKind::Housekeeping, SchedClass::Fair, [C0]);
        let b = s.spawn(ThreadKind::Housekeeping, SchedClass::Fair, [C0]);
        assert_eq!(s.pick_next(C0), Some(a));
        s.yield_current(C0);
        assert_eq!(s.pick_next(C0), Some(b));
        s.yield_current(C0);
        assert_eq!(s.pick_next(C0), Some(a));
    }

    #[test]
    fn wake_places_on_least_loaded_core() {
        let mut s = Scheduler::new();
        // Load up C0 with two runnable threads.
        s.spawn(ThreadKind::Housekeeping, SchedClass::Fair, [C0]);
        s.spawn(ThreadKind::Housekeeping, SchedClass::Fair, [C0]);
        let t = s.spawn(ThreadKind::Housekeeping, SchedClass::Fair, [C0, C1]);
        // t went to C1 (empty).
        assert_eq!(s.pick_next(C1), Some(t));
        s.block_current(C1);
        let (core, _) = s.wake(t);
        assert_eq!(core, C1);
    }

    #[test]
    fn wake_preempts_lower_class() {
        let mut s = Scheduler::new();
        let fair = s.spawn(ThreadKind::Housekeeping, SchedClass::Fair, [C0]);
        let hi = s.spawn(ThreadKind::Wakeup, SchedClass::Fifo(3), [C0]);
        // hi runs first, blocks; fair runs.
        assert_eq!(s.pick_next(C0), Some(hi));
        s.block_current(C0);
        assert_eq!(s.pick_next(C0), Some(fair));
        // Waking hi on C0 must report preemption of fair.
        let (core, preempt) = s.wake(hi);
        assert_eq!(core, C0);
        assert!(preempt);
    }

    #[test]
    fn block_and_exit_lifecycle() {
        let mut s = Scheduler::new();
        let t = s.spawn(ThreadKind::Housekeeping, SchedClass::Fair, [C0]);
        s.pick_next(C0);
        let blocked = s.block_current(C0);
        assert_eq!(blocked, t);
        assert!(s.is_blocked(t));
        s.wake(t);
        assert_eq!(s.pick_next(C0), Some(t));
        assert_eq!(s.exit_current(C0), t);
        // Exit reaps: the record is gone, stale queries stay harmless.
        assert!(!s.contains(t));
        assert!(!s.is_blocked(t));
        assert_eq!(s.thread_count(), 0);
        assert_eq!(s.pick_next(C0), None);
    }

    /// Regression: exited threads used to linger in `threads` and
    /// `last_core` forever — unbounded growth under VM churn. A node
    /// cycling through thousands of short-lived threads must keep both
    /// maps bounded by the number of *live* threads.
    #[test]
    fn spawn_exit_churn_keeps_maps_bounded() {
        let mut s = Scheduler::new();
        // One long-lived resident thread, parked blocked.
        let resident = s.spawn(ThreadKind::Housekeeping, SchedClass::Fair, [C0]);
        assert_eq!(s.pick_next(C0), Some(resident));
        s.block_current(C0);
        for _ in 0..1_000 {
            let t = s.spawn(ThreadKind::Housekeeping, SchedClass::Fair, [C0]);
            assert_eq!(s.pick_next(C0), Some(t));
            assert_eq!(s.exit_current(C0), t);
            assert!(s.thread_count() <= 2, "threads map grew: churn leaked");
            assert!(s.placement_hints() <= 2, "last_core map grew");
        }
        assert_eq!(s.thread_count(), 1);
        // The resident thread is unaffected by 1k reaps around it.
        s.wake(resident);
        assert_eq!(s.pick_next(C0), Some(resident));
    }

    /// Regression: `remove_core_affinity` only narrowed the mask, so a
    /// thread already queued on the removed core was later picked to
    /// run outside its affinity. It must be migrated out of the queue
    /// immediately.
    #[test]
    fn remove_core_affinity_migrates_queued_thread() {
        let mut s = Scheduler::new();
        // Occupy C1 so placement puts `t` on the (empty) core C0.
        s.spawn(ThreadKind::Housekeeping, SchedClass::Fair, [C1]);
        let t = s.spawn(ThreadKind::Housekeeping, SchedClass::Fair, [C0, C1]);
        assert_eq!(s.runnable_on(C0), 1);
        s.remove_core_affinity(t, C0);
        assert!(!s.thread(t).can_run_on(C0));
        // The queued thread moved to C1 *now*, not lazily.
        assert_eq!(s.runnable_on(C0), 0);
        assert_eq!(s.runnable_on(C1), 2);
        // C0 never picks it; C1 does.
        assert_eq!(s.pick_next(C0), None);
        let picked = [s.pick_next(C1).unwrap(), {
            s.block_current(C1);
            s.pick_next(C1).unwrap()
        }];
        assert!(picked.contains(&t));
    }

    /// `remove_core_affinity` also drops a stale wake-placement hint,
    /// so a blocked thread whose favourite core was removed wakes onto
    /// an allowed core.
    #[test]
    fn remove_core_affinity_clears_stale_placement_hint() {
        let mut s = Scheduler::new();
        let t = s.spawn(ThreadKind::Housekeeping, SchedClass::Fair, [C0, C1]);
        assert_eq!(s.pick_next(C0), Some(t));
        s.block_current(C0); // last ran on C0
        s.remove_core_affinity(t, C0);
        let (core, _) = s.wake(t);
        assert_eq!(core, C1);
        assert_eq!(s.pick_next(C1), Some(t));
    }

    #[test]
    #[should_panic(expected = "wake of non-blocked")]
    fn waking_runnable_thread_panics() {
        let mut s = Scheduler::new();
        let t = s.spawn(ThreadKind::Housekeeping, SchedClass::Fair, [C0]);
        s.wake(t);
    }

    #[test]
    fn profiler_records_slices() {
        let p = cg_sim::Profiler::capture();
        let trace = TraceHandle::disabled();
        trace.attach_spans(&p);
        let mut s = Scheduler::with_trace(trace);
        let t = s.spawn(ThreadKind::Housekeeping, SchedClass::Fair, [C0]);
        assert_eq!(s.pick_next(C0), Some(t));
        s.yield_current(C0);
        assert_eq!(s.pick_next(C0), Some(t));
        s.block_current(C0);
        assert_eq!((p.span_count(), p.open_count()), (2, 0));
        assert_eq!(p.snapshot()[0].kind, SpanKind::SchedSlice);
        assert_eq!(p.snapshot()[0].core, Some(0));
    }

    #[test]
    fn evacuate_migrates_everything() {
        let mut s = Scheduler::new();
        let a = s.spawn(ThreadKind::Housekeeping, SchedClass::Fair, [C0, C1]);
        let b = s.spawn(ThreadKind::Housekeeping, SchedClass::Fifo(1), [C0, C1]);
        // Make both sit on C0: spawn placed a on C0 (empty), b on C1?
        // Place is least-loaded; a→C0, b→C1. Run b on C1 so evacuation of
        // C0 moves only a.
        assert_eq!(s.pick_next(C1), Some(b));
        let migrated = s.evacuate(C0);
        assert_eq!(migrated, vec![a]);
        assert!(!s.thread(a).can_run_on(C0));
        assert_eq!(s.runnable_on(C1), 1);
    }

    #[test]
    fn evacuate_running_thread_requeues_it() {
        let mut s = Scheduler::new();
        let a = s.spawn(ThreadKind::Housekeeping, SchedClass::Fair, [C0, C1]);
        assert_eq!(s.pick_next(C0), Some(a));
        let migrated = s.evacuate(C0);
        assert_eq!(migrated, vec![a]);
        assert_eq!(s.thread(a).state(), ThreadState::Runnable);
        assert_eq!(s.pick_next(C1), Some(a));
    }
}
