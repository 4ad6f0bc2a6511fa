//! Per-core generic timers.
//!
//! Each core has a virtual timer that raises PPI 27 ([`crate::IntId::VTIMER`])
//! when its compare value is reached. The guest programs the timer through
//! system registers that trap to the RMM; in the paper's prototype this is
//! one of the register accesses emulated *locally* by the RMM when timer
//! delegation is enabled (§4.4).
//!
//! The timer is a passive state machine: [`GenericTimer::program`] records
//! the deadline and the caller (the system event loop) schedules the firing
//! event; [`GenericTimer::fire`] validates that a firing event is still
//! current (reprogramming invalidates older deadlines by generation
//! counting).

use cg_sim::{SimTime, TraceHandle, TraceKind};

/// One core's generic timer.
///
/// # Example
///
/// ```
/// use cg_machine::GenericTimer;
/// use cg_sim::SimTime;
///
/// let mut t = GenericTimer::new();
/// let gen1 = t.program(SimTime::from_nanos(1000));
/// let gen2 = t.program(SimTime::from_nanos(2000)); // reprogram
/// assert!(!t.fire(gen1)); // stale deadline: ignored
/// assert!(t.fire(gen2)); // current deadline: raises the interrupt
/// ```
#[derive(Debug, Clone, Default)]
pub struct GenericTimer {
    deadline: Option<SimTime>,
    generation: u64,
    /// Observation handle (disabled by default).
    trace: TraceHandle,
    /// Owning core, for trace attribution.
    core: u16,
}

impl GenericTimer {
    /// Creates a disarmed timer.
    pub fn new() -> GenericTimer {
        GenericTimer::default()
    }

    /// A disarmed timer of core `core`, recording through `trace`.
    pub(crate) fn with_trace(trace: TraceHandle, core: u16) -> GenericTimer {
        GenericTimer {
            deadline: None,
            generation: 0,
            trace,
            core,
        }
    }

    /// Arms the timer for `deadline`, returning a generation token the
    /// caller must present when the deadline elapses. Any previously
    /// outstanding deadline is superseded.
    pub fn program(&mut self, deadline: SimTime) -> u64 {
        self.generation += 1;
        self.deadline = Some(deadline);
        self.trace.record(TraceKind::Timer, Some(self.core), || {
            format!("timer.program deadline={deadline} gen={}", self.generation)
        });
        self.generation
    }

    /// Disarms the timer.
    pub fn cancel(&mut self) {
        self.generation += 1;
        let was_armed = self.deadline.is_some();
        self.deadline = None;
        self.trace.record(TraceKind::Timer, Some(self.core), || {
            format!(
                "timer.cancel{}",
                if was_armed { "" } else { " (already disarmed)" }
            )
        });
    }

    /// Reports a firing event for generation `generation`.
    ///
    /// Returns `true` if this firing is current (the caller should then
    /// raise [`crate::IntId::VTIMER`] on the owning core); `false` if the
    /// timer was reprogrammed or cancelled in the meantime.
    pub fn fire(&mut self, generation: u64) -> bool {
        let current = generation == self.generation && self.deadline.is_some();
        if current {
            self.deadline = None;
        }
        self.trace.record(TraceKind::Timer, Some(self.core), || {
            format!(
                "timer.fire gen={generation} {}",
                if current { "current" } else { "stale" }
            )
        });
        current
    }

    /// The currently armed deadline, if any.
    pub fn deadline(&self) -> Option<SimTime> {
        self.deadline
    }

    /// Returns `true` if the timer is armed.
    pub fn is_armed(&self) -> bool {
        self.deadline.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_and_fire() {
        let mut t = GenericTimer::new();
        assert!(!t.is_armed());
        let g = t.program(SimTime::from_nanos(500));
        assert!(t.is_armed());
        assert_eq!(t.deadline(), Some(SimTime::from_nanos(500)));
        assert!(t.fire(g));
        assert!(!t.is_armed());
    }

    #[test]
    fn reprogram_invalidates_old_generation() {
        let mut t = GenericTimer::new();
        let g1 = t.program(SimTime::from_nanos(500));
        let g2 = t.program(SimTime::from_nanos(900));
        assert!(!t.fire(g1));
        assert!(t.is_armed());
        assert!(t.fire(g2));
    }

    #[test]
    fn cancel_invalidates() {
        let mut t = GenericTimer::new();
        let g = t.program(SimTime::from_nanos(500));
        t.cancel();
        assert!(!t.fire(g));
        assert!(!t.is_armed());
    }

    #[test]
    fn fire_twice_is_rejected() {
        let mut t = GenericTimer::new();
        let g = t.program(SimTime::from_nanos(500));
        assert!(t.fire(g));
        assert!(!t.fire(g));
    }
}
