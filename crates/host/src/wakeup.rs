//! The wake-up thread (paper fig. 4).
//!
//! One IPI number is all the prototype gets, so the doorbell conveys no
//! payload. The handler activates this FIFO-priority thread, which scans
//! for posted work, services it, re-scans until it finds nothing new
//! (doorbells arriving during the scan coalesce), and suspends until the
//! next IPI.
//!
//! `cg-core` runs two planes through this one state machine: the exit
//! plane, whose scan covers the run channels of every vCPU and wakes the
//! vCPU threads with a posted exit, and the I/O plane, whose scan polls
//! the shared-memory virtqueues of every fast-path device. Both share
//! the protocol's two obligations:
//!
//! * **Lost-wakeup race** — a doorbell ringing mid-scan sets a rescan
//!   request, which [`WakeupThread::try_suspend`] consumes by refusing
//!   to suspend, forcing one more scan.
//! * **Lost-doorbell hole** — a dropped IPI strands work forever; a
//!   periodic watchdog rescan re-activates the thread through
//!   [`WakeupThread::on_watchdog`].

use cg_sim::{SimDuration, TraceHandle, TraceKind};

use crate::thread::ThreadId;

/// Wake-up thread state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Suspended, waiting for the doorbell IPI.
    Suspended,
    /// Activated (IPI taken), waiting for CPU or scanning.
    Active,
}

/// The wake-up thread's bookkeeping.
///
/// The thread itself is a scheduler entity; this struct tracks its
/// activation state and how many channels it watches.
#[derive(Debug)]
pub struct WakeupThread {
    /// The plane's name, prefixing its trace records.
    name: &'static str,
    thread: ThreadId,
    state: State,
    /// Channels this thread scans.
    watched: usize,
    /// A doorbell rang while a scan was in progress: re-scan before
    /// suspending (closes the lost-wakeup race of fig. 4).
    rescan_requested: bool,
    activations: u64,
    /// Work items the scans serviced (vCPUs woken, descriptors taken).
    work: u64,
    /// Observation handle.
    trace: TraceHandle,
}

impl WakeupThread {
    /// Creates the bookkeeping for wake-up thread `thread`, whose trace
    /// records, made through `trace`, start with `name`.
    pub fn new(name: &'static str, thread: ThreadId, trace: TraceHandle) -> WakeupThread {
        WakeupThread {
            name,
            thread,
            state: State::Suspended,
            watched: 0,
            rescan_requested: false,
            activations: 0,
            work: 0,
            trace,
        }
    }

    /// The scheduler thread id.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// Registers `n` more channels to scan.
    pub fn watch(&mut self, n: u32) {
        self.watched += n as usize;
    }

    /// How many channels the thread scans.
    pub fn watched(&self) -> usize {
        self.watched
    }

    /// The doorbell IPI arrived. Returns `true` if the thread was
    /// suspended and must now be woken (scheduled); `false` if it is
    /// already active (the notification coalesces).
    pub fn on_doorbell(&mut self) -> bool {
        let must_wake = match self.state {
            State::Suspended => {
                self.state = State::Active;
                self.activations += 1;
                true
            }
            State::Active => {
                self.rescan_requested = true;
                false
            }
        };
        self.trace.record(TraceKind::Sched, None, || {
            format!(
                "{}.doorbell {}",
                self.name,
                if must_wake {
                    "activates"
                } else {
                    "coalesced -> rescan"
                }
            )
        });
        must_wake
    }

    /// Returns `true` while activated.
    pub fn is_active(&self) -> bool {
        self.state == State::Active
    }

    /// A scan serviced `count` work items.
    pub fn record_work(&mut self, count: u64) {
        self.work += count;
    }

    /// Attempts to suspend after a scan. Returns `false` (staying
    /// active) if a doorbell rang during the scan — the caller must scan
    /// again; `true` if the thread is now suspended.
    pub fn try_suspend(&mut self) -> bool {
        let suspended = if std::mem::replace(&mut self.rescan_requested, false) {
            false
        } else {
            self.state = State::Suspended;
            true
        };
        self.trace.record(TraceKind::Sched, None, || {
            format!(
                "{}.try_suspend {}",
                self.name,
                if suspended {
                    "suspended"
                } else {
                    "rescan pending"
                }
            )
        });
        suspended
    }

    /// The periodic watchdog found stranded work while the thread was
    /// suspended: the doorbell IPI that should have activated it was
    /// lost. Returns `true` if the thread was suspended and is now
    /// activated (the caller must schedule it); `false` if it is
    /// already active — the in-flight scan will pick the work up, so no
    /// rescan is forced and the watchdog simply checks again next
    /// period.
    pub fn on_watchdog(&mut self) -> bool {
        let must_wake = match self.state {
            State::Suspended => {
                self.state = State::Active;
                self.activations += 1;
                true
            }
            State::Active => false,
        };
        self.trace.record(TraceKind::Sched, None, || {
            format!(
                "{}.watchdog {}",
                self.name,
                if must_wake {
                    "recovers lost doorbell"
                } else {
                    "thread already active"
                }
            )
        });
        must_wake
    }

    /// Cost of scanning `n` channels (cache-line reads of shared state).
    pub fn scan_cost(n: usize, per_channel: SimDuration) -> SimDuration {
        per_channel * (n.max(1) as u64)
    }

    /// Total doorbell and watchdog activations.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Total work items serviced.
    pub fn work(&self) -> u64 {
        self.work
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread() -> WakeupThread {
        WakeupThread::new("wakeup", ThreadId(1), TraceHandle::disabled())
    }

    #[test]
    fn doorbell_coalesces_while_active() {
        let mut w = thread();
        assert!(w.on_doorbell());
        assert!(!w.on_doorbell());
        assert!(w.is_active());
        // The coalesced ring forces one rescan before suspension sticks.
        assert!(!w.try_suspend());
        assert!(w.try_suspend());
        assert!(w.on_doorbell());
        assert_eq!(w.activations(), 2);
    }

    #[test]
    fn watchdog_activates_only_when_suspended() {
        let mut w = thread();
        assert!(w.on_watchdog(), "suspended thread is recovered");
        assert!(w.is_active());
        assert!(!w.on_watchdog(), "active thread needs no recovery");
        // No stale rescan request is left behind by the watchdog path.
        assert!(w.try_suspend());
        assert_eq!(w.activations(), 1);
        assert!(w.on_doorbell());
        assert_eq!(w.activations(), 2);
    }

    #[test]
    fn coalesced_doorbell_forces_rescan() {
        let mut w = thread();
        assert!(w.on_doorbell());
        // A ring during the scan...
        assert!(!w.on_doorbell());
        // ...prevents suspension once, forcing another scan.
        assert!(!w.try_suspend());
        assert!(w.is_active());
        assert!(w.try_suspend());
        assert!(!w.is_active());
    }

    #[test]
    fn watch_counts_channels() {
        let mut w = thread();
        w.watch(2);
        w.watch(3);
        assert_eq!(w.watched(), 5);
    }

    #[test]
    fn scan_cost_scales_with_channels() {
        let per = SimDuration::nanos(80);
        assert_eq!(WakeupThread::scan_cost(0, per), per); // floor of one line
        assert_eq!(WakeupThread::scan_cost(4, per), per * 4);
    }

    #[test]
    fn multiple_coalesced_rings_cause_exactly_one_extra_scan() {
        // The fig. 4 lost-wakeup fix must not over-scan either: any number
        // of doorbells arriving during one scan collapse into a single
        // rescan request, so the thread performs exactly one extra scan
        // before suspending.
        let mut w = thread();
        assert!(w.on_doorbell(), "first ring activates");
        // Three more rings land while the scan is in flight.
        assert!(!w.on_doorbell());
        assert!(!w.on_doorbell());
        assert!(!w.on_doorbell());
        let mut scans = 0;
        while !w.try_suspend() {
            scans += 1;
            assert!(scans < 10, "rescan requests must not self-renew");
        }
        assert_eq!(scans, 1, "coalesced rings trigger exactly one rescan");
        assert!(!w.is_active());
        assert_eq!(w.activations(), 1);
    }

    #[test]
    fn work_accounting() {
        let mut w = thread();
        w.record_work(3);
        w.record_work(1);
        assert_eq!(w.work(), 4);
    }

    #[test]
    fn trace_records_carry_the_plane_name() {
        let trace = TraceHandle::ring(16);
        let mut w = WakeupThread::new("io", ThreadId(7), trace.clone());
        assert!(w.on_doorbell());
        assert!(w.try_suspend());
        assert!(w.on_watchdog());
        let details: Vec<String> = trace.snapshot().into_iter().map(|r| r.detail).collect();
        assert_eq!(
            details,
            [
                "io.doorbell activates",
                "io.try_suspend suspended",
                "io.watchdog recovers lost doorbell"
            ]
        );
    }
}
