//! Host threads: identity, scheduling class, and state.

use std::collections::BTreeSet;
use std::fmt;

use cg_cca::RecId;
use cg_machine::CoreId;

use crate::vmm::DeviceId;

/// Identifies a host thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tid{}", self.0)
    }
}

/// Scheduling class, mirroring Linux's split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedClass {
    /// Real-time FIFO with a priority (higher wins). The prototype runs
    /// vCPU threads and the wake-up thread here so they run to completion
    /// once woken (paper §4.3).
    Fifo(u8),
    /// The fair (CFS-like) class used by VMM I/O threads and everything
    /// else.
    Fair,
}

impl SchedClass {
    /// Returns `true` if `self` strictly preempts `other`.
    pub fn preempts(self, other: SchedClass) -> bool {
        match (self, other) {
            (SchedClass::Fifo(a), SchedClass::Fifo(b)) => a > b,
            (SchedClass::Fifo(_), SchedClass::Fair) => true,
            (SchedClass::Fair, _) => false,
        }
    }
}

/// What a thread does — the tag `cg-core` dispatches on when the thread
/// gets CPU time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadKind {
    /// A KVM vCPU thread: issues run calls for one vCPU.
    Vcpu(RecId),
    /// A fig. 4 wake-up thread, woken by one doorbell IPI: the exit
    /// plane's, which scans the run channels for posted CVM exits, or
    /// the I/O plane's, which polls the fast-path virtqueues and drives
    /// their backends so guest kicks are doorbells instead of exits.
    Wakeup,
    /// A VMM I/O emulation thread bound to one device.
    VmmIo(DeviceId),
    /// Generic host housekeeping / benchmark driver work.
    Housekeeping,
}

/// Thread run state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadState {
    /// On a run queue, waiting for CPU.
    Runnable,
    /// Executing on a core.
    Running(CoreId),
    /// Blocked (waiting on a run-call return, I/O, or a doorbell).
    Blocked,
    /// Finished.
    Exited,
}

/// One host thread.
#[derive(Debug, Clone)]
pub struct Thread {
    id: ThreadId,
    kind: ThreadKind,
    class: SchedClass,
    state: ThreadState,
    affinity: BTreeSet<CoreId>,
}

impl Thread {
    /// Creates a runnable thread with the given affinity set.
    ///
    /// # Panics
    ///
    /// Panics if `affinity` is empty — a thread must be runnable
    /// somewhere.
    pub fn new(
        id: ThreadId,
        kind: ThreadKind,
        class: SchedClass,
        affinity: impl IntoIterator<Item = CoreId>,
    ) -> Thread {
        let affinity: BTreeSet<CoreId> = affinity.into_iter().collect();
        assert!(!affinity.is_empty(), "thread affinity must be non-empty");
        Thread {
            id,
            kind,
            class,
            state: ThreadState::Runnable,
            affinity,
        }
    }

    /// Thread id.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// What the thread does.
    pub fn kind(&self) -> ThreadKind {
        self.kind
    }

    /// Scheduling class.
    pub fn class(&self) -> SchedClass {
        self.class
    }

    /// Current state.
    pub fn state(&self) -> ThreadState {
        self.state
    }

    pub(crate) fn set_state(&mut self, state: ThreadState) {
        self.state = state;
    }

    /// The cores this thread may run on.
    pub fn affinity(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.affinity.iter().copied()
    }

    /// Returns `true` if the thread may run on `core`.
    pub fn can_run_on(&self, core: CoreId) -> bool {
        self.affinity.contains(&core)
    }

    /// Replaces the affinity set (used when cores go offline).
    ///
    /// # Panics
    ///
    /// Panics if the new set is empty.
    pub fn set_affinity(&mut self, affinity: impl IntoIterator<Item = CoreId>) {
        let affinity: BTreeSet<CoreId> = affinity.into_iter().collect();
        assert!(!affinity.is_empty(), "thread affinity must be non-empty");
        self.affinity = affinity;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_machine::RealmId;

    #[test]
    fn fifo_preemption_rules() {
        assert!(SchedClass::Fifo(2).preempts(SchedClass::Fifo(1)));
        assert!(!SchedClass::Fifo(1).preempts(SchedClass::Fifo(1)));
        assert!(SchedClass::Fifo(0).preempts(SchedClass::Fair));
        assert!(!SchedClass::Fair.preempts(SchedClass::Fifo(0)));
        assert!(!SchedClass::Fair.preempts(SchedClass::Fair));
    }

    #[test]
    fn thread_construction_and_affinity() {
        let t = Thread::new(
            ThreadId(1),
            ThreadKind::Vcpu(RecId::new(RealmId(0), 0)),
            SchedClass::Fifo(2),
            [CoreId(0), CoreId(1)],
        );
        assert!(t.can_run_on(CoreId(0)));
        assert!(!t.can_run_on(CoreId(2)));
        assert_eq!(t.state(), ThreadState::Runnable);
        assert_eq!(t.affinity().count(), 2);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_affinity_panics() {
        Thread::new(
            ThreadId(1),
            ThreadKind::Housekeeping,
            SchedClass::Fair,
            std::iter::empty(),
        );
    }
}
