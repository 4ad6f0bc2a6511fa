//! The IPI doorbell used by asynchronous run-call returns.
//!
//! Arm provides 16 SGI numbers and Linux already reserves 7, so the
//! prototype allocates exactly **one** additional IPI as the CVM-exit
//! notification (paper §4.3). One interrupt cannot convey *which* vCPU
//! exited, so the handler activates a wake-up thread that scans all run
//! channels — and consecutive exits coalesce onto an already-pending
//! doorbell. This module models that coalescing.

use cg_machine::CoreId;

/// A single-IPI doorbell with coalescing.
///
/// # Example
///
/// ```
/// use cg_machine::CoreId;
/// use cg_rpc::Doorbell;
///
/// let mut bell = Doorbell::new(CoreId(0));
/// assert!(bell.ring());       // first ring sends a physical IPI
/// assert!(!bell.ring());      // second ring coalesces
/// assert!(bell.acknowledge());
/// assert!(bell.ring());       // after ack, a new IPI is needed
/// ```
#[derive(Debug, Clone)]
pub struct Doorbell {
    target: CoreId,
    pending: bool,
}

impl Doorbell {
    /// Creates a doorbell targeting `target` (the host core running the
    /// wake-up thread).
    pub fn new(target: CoreId) -> Doorbell {
        Doorbell {
            target,
            pending: false,
        }
    }

    /// The core the doorbell IPI targets.
    pub fn target(&self) -> CoreId {
        self.target
    }

    /// Retargets the doorbell (e.g. after the wake-up thread migrates).
    pub fn set_target(&mut self, target: CoreId) {
        self.target = target;
    }

    /// Rings the doorbell. Returns `true` if a physical IPI must be sent
    /// (i.e. the doorbell was not already pending); `false` if this ring
    /// coalesced with a pending one.
    pub fn ring(&mut self) -> bool {
        if self.pending {
            false
        } else {
            self.pending = true;
            true
        }
    }

    /// The interrupt handler acknowledges the doorbell, allowing the next
    /// ring to raise a fresh IPI. Returns `true` if it was pending.
    pub fn acknowledge(&mut self) -> bool {
        std::mem::replace(&mut self.pending, false)
    }

    /// Returns `true` if an IPI is pending (rung, not yet acknowledged).
    pub fn is_pending(&self) -> bool {
        self.pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescing() {
        let mut b = Doorbell::new(CoreId(1));
        let sent: Vec<bool> = (0..3).map(|_| b.ring()).collect();
        assert_eq!(sent, [true, false, false], "one IPI for three rings");
        assert!(b.is_pending());
    }

    #[test]
    fn ack_rearms() {
        let mut b = Doorbell::new(CoreId(0));
        assert!(b.ring());
        assert!(b.acknowledge());
        assert!(!b.acknowledge());
        assert!(!b.is_pending());
        assert!(b.ring(), "after the ack a ring sends a fresh IPI");
    }

    #[test]
    fn retargeting() {
        let mut b = Doorbell::new(CoreId(0));
        assert_eq!(b.target(), CoreId(0));
        b.set_target(CoreId(5));
        assert_eq!(b.target(), CoreId(5));
    }
}
