//! A GIC-like interrupt controller model.
//!
//! Models the pieces of GICv3 behaviour the paper's mechanisms depend on:
//!
//! * **SGIs** (software-generated interrupts, INTIDs 0–15): inter-processor
//!   interrupts. Linux reserves 7; the core-gapping prototype allocates one
//!   more as the CVM-exit doorbell (paper §4.3).
//! * **PPIs** (private peripheral interrupts, INTIDs 16–31): per-core
//!   timers — the virtual timer is INTID 27.
//! * **SPIs** (shared peripheral interrupts, INTIDs 32+): devices (NIC,
//!   block), routed to a configurable core.
//! * **List registers** (`ich_lr<n>_el2`): the per-core array through which
//!   a hypervisor injects *virtual* interrupts into a guest. The RMM's
//!   filtered virtualization of this list is the paper's fig. 5.
//!
//! Physical delivery latency is charged by the caller (the system event
//! loop) using [`crate::HwParams::ipi_deliver`] and friends; this module is
//! the state machine only.

use std::collections::BTreeSet;
use std::fmt;

use cg_sim::{TraceHandle, TraceKind};

use crate::ids::CoreId;

/// An interrupt identifier (INTID).
///
/// # Example
///
/// ```
/// use cg_machine::IntId;
///
/// assert!(IntId::sgi(8).is_sgi());
/// assert!(IntId::VTIMER.is_ppi());
/// assert!(IntId::spi(3).is_spi());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IntId(pub u32);

impl IntId {
    /// The virtual timer PPI (INTID 27).
    pub const VTIMER: IntId = IntId(27);

    /// Creates an SGI INTID.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 16`.
    pub const fn sgi(n: u32) -> IntId {
        assert!(n < 16, "SGIs are INTIDs 0..16");
        IntId(n)
    }

    /// Creates a PPI INTID.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 16`.
    pub const fn ppi(n: u32) -> IntId {
        assert!(n < 16, "PPIs are INTIDs 16..32");
        IntId(16 + n)
    }

    /// Creates the `n`-th SPI INTID (INTID `32 + n`).
    pub const fn spi(n: u32) -> IntId {
        IntId(32 + n)
    }

    /// Returns `true` for SGIs (0–15).
    pub const fn is_sgi(self) -> bool {
        self.0 < 16
    }

    /// Returns `true` for PPIs (16–31).
    pub const fn is_ppi(self) -> bool {
        self.0 >= 16 && self.0 < 32
    }

    /// Returns `true` for SPIs (32+).
    pub const fn is_spi(self) -> bool {
        self.0 >= 32
    }
}

impl fmt::Display for IntId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "irq{}", self.0)
    }
}

/// State of a virtual interrupt in a list register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LrState {
    /// Injected, not yet acknowledged by the guest.
    Pending,
    /// Acknowledged, not yet completed (EOI).
    Active,
    /// Re-raised while still active.
    PendingActive,
}

/// One `ich_lr<n>_el2` list register: a virtual interrupt staged for a
/// guest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListRegister {
    /// The virtual INTID presented to the guest.
    pub vintid: IntId,
    /// Life-cycle state.
    pub state: LrState,
}

/// Per-core physical interrupt state.
#[derive(Debug, Clone, Default)]
struct CoreIrqState {
    /// Physically pending INTIDs, lowest INTID = highest priority.
    pending: BTreeSet<IntId>,
    /// Interrupts masked at the core (PSTATE.I set)?
    masked: bool,
    /// The list registers for virtual interrupt injection on this core.
    lrs: Vec<Option<ListRegister>>,
}

/// The interrupt controller.
///
/// # Example
///
/// ```
/// use cg_machine::{CoreId, Gic, IntId};
///
/// let mut gic = Gic::new(4, 16);
/// gic.raise(CoreId(2), IntId::sgi(9));
/// assert_eq!(gic.next_pending(CoreId(2)), Some(IntId::sgi(9)));
/// assert_eq!(gic.ack(CoreId(2)), Some(IntId::sgi(9)));
/// assert_eq!(gic.next_pending(CoreId(2)), None);
/// ```
#[derive(Debug)]
pub struct Gic {
    cores: Vec<CoreIrqState>,
    num_list_regs: usize,
    /// SPI routing: index = SPI number, value = target core.
    spi_routes: Vec<CoreId>,
    /// Observation handle (disabled by default).
    trace: TraceHandle,
}

impl Gic {
    /// Creates a controller for `num_cores` cores with `num_list_regs`
    /// list registers per core. All SPIs initially route to core 0.
    pub fn new(num_cores: u16, num_list_regs: usize) -> Gic {
        Gic::with_trace(num_cores, num_list_regs, TraceHandle::disabled())
    }

    /// As [`Gic::new`], recording interrupt transitions through `trace`.
    pub(crate) fn with_trace(num_cores: u16, num_list_regs: usize, trace: TraceHandle) -> Gic {
        Gic {
            cores: (0..num_cores)
                .map(|_| CoreIrqState {
                    pending: BTreeSet::new(),
                    masked: false,
                    lrs: vec![None; num_list_regs],
                })
                .collect(),
            num_list_regs,
            spi_routes: Vec::new(),
            trace,
        }
    }

    fn core(&self, core: CoreId) -> &CoreIrqState {
        &self.cores[core.index()]
    }

    fn core_mut(&mut self, core: CoreId) -> &mut CoreIrqState {
        &mut self.cores[core.index()]
    }

    /// Number of list registers per core.
    pub fn num_list_regs(&self) -> usize {
        self.num_list_regs
    }

    // ----- physical interrupts -----

    /// Marks an INTID physically pending on `core`. (Delivery latency is
    /// the caller's responsibility.)
    pub fn raise(&mut self, core: CoreId, intid: IntId) {
        let newly = self.core_mut(core).pending.insert(intid);
        self.trace.record(TraceKind::Irq, Some(core.0), || {
            format!(
                "gic.raise {intid}{}",
                if newly { "" } else { " (already pending)" }
            )
        });
    }

    /// Clears a pending INTID without acknowledging it (e.g. timer
    /// condition deasserted).
    pub fn rescind(&mut self, core: CoreId, intid: IntId) {
        self.core_mut(core).pending.remove(&intid);
    }

    /// The highest-priority pending INTID on `core`, if any and if the
    /// core is unmasked.
    pub fn next_pending(&self, core: CoreId) -> Option<IntId> {
        let c = self.core(core);
        if c.masked {
            None
        } else {
            c.pending.iter().next().copied()
        }
    }

    /// Returns `true` if any interrupt is pending regardless of masking.
    pub fn has_pending(&self, core: CoreId) -> bool {
        !self.core(core).pending.is_empty()
    }

    /// Acknowledges (and clears) the highest-priority pending INTID.
    pub fn ack(&mut self, core: CoreId) -> Option<IntId> {
        let next = self.next_pending(core)?;
        self.core_mut(core).pending.remove(&next);
        Some(next)
    }

    /// Masks or unmasks physical interrupt delivery on `core`.
    pub fn set_masked(&mut self, core: CoreId, masked: bool) {
        self.core_mut(core).masked = masked;
    }

    /// Returns `true` if `core` has interrupts masked.
    pub fn is_masked(&self, core: CoreId) -> bool {
        self.core(core).masked
    }

    /// Routes SPI number `n` (INTID `32 + n`) to `core`.
    pub fn route_spi(&mut self, n: u32, core: CoreId) {
        let idx = n as usize;
        if self.spi_routes.len() <= idx {
            self.spi_routes.resize(idx + 1, CoreId(0));
        }
        self.spi_routes[idx] = core;
    }

    /// The core SPI number `n` routes to (default core 0).
    pub fn spi_route(&self, n: u32) -> CoreId {
        self.spi_routes
            .get(n as usize)
            .copied()
            .unwrap_or(CoreId(0))
    }

    // ----- list registers (virtual interrupts) -----

    /// Reads list register `n` on `core`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn lr(&self, core: CoreId, n: usize) -> Option<ListRegister> {
        self.core(core).lrs[n]
    }

    /// Writes list register `n` on `core`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn set_lr(&mut self, core: CoreId, n: usize, lr: Option<ListRegister>) {
        self.core_mut(core).lrs[n] = lr;
    }

    /// Finds a free list-register slot on `core`.
    pub fn free_lr_slot(&self, core: CoreId) -> Option<usize> {
        self.core(core).lrs.iter().position(|l| l.is_none())
    }

    /// Injects a virtual interrupt into a free slot, returning the slot,
    /// or `None` if the list is full or `vintid` is already listed.
    pub fn inject_virtual(&mut self, core: CoreId, vintid: IntId) -> Option<usize> {
        if self.find_lr(core, vintid).is_some() {
            // Already staged; hardware would merge into pending state.
            let slot = self.find_lr(core, vintid).expect("just found");
            let lr = self.core(core).lrs[slot].expect("occupied");
            if lr.state == LrState::Active {
                self.core_mut(core).lrs[slot] = Some(ListRegister {
                    vintid,
                    state: LrState::PendingActive,
                });
            }
            self.trace.record(TraceKind::Irq, Some(core.0), || {
                format!("gic.inject {vintid} merged into lr{slot}")
            });
            return Some(slot);
        }
        let slot = self.free_lr_slot(core)?;
        self.core_mut(core).lrs[slot] = Some(ListRegister {
            vintid,
            state: LrState::Pending,
        });
        self.trace.record(TraceKind::Irq, Some(core.0), || {
            format!("gic.inject {vintid} -> lr{slot}")
        });
        Some(slot)
    }

    /// Finds the slot holding `vintid`, if staged.
    pub fn find_lr(&self, core: CoreId, vintid: IntId) -> Option<usize> {
        self.core(core)
            .lrs
            .iter()
            .position(|l| matches!(l, Some(lr) if lr.vintid == vintid))
    }

    /// The highest-priority *pending* virtual interrupt visible to the
    /// guest on `core`.
    pub fn next_virtual_pending(&self, core: CoreId) -> Option<IntId> {
        self.core(core)
            .lrs
            .iter()
            .flatten()
            .filter(|lr| matches!(lr.state, LrState::Pending | LrState::PendingActive))
            .map(|lr| lr.vintid)
            .min()
    }

    /// Guest acknowledges a virtual interrupt: pending → active.
    ///
    /// Returns `false` if `vintid` was not pending.
    pub fn virtual_ack(&mut self, core: CoreId, vintid: IntId) -> bool {
        if let Some(slot) = self.find_lr(core, vintid) {
            let lr = self.core(core).lrs[slot].expect("occupied");
            let new_state = match lr.state {
                LrState::Pending => LrState::Active,
                LrState::PendingActive => LrState::Active,
                LrState::Active => return false,
            };
            self.core_mut(core).lrs[slot] = Some(ListRegister {
                vintid,
                state: new_state,
            });
            true
        } else {
            false
        }
    }

    /// Guest completes (EOIs) a virtual interrupt: the slot is freed.
    ///
    /// Returns `false` if `vintid` was not active.
    pub fn virtual_eoi(&mut self, core: CoreId, vintid: IntId) -> bool {
        if let Some(slot) = self.find_lr(core, vintid) {
            let lr = self.core(core).lrs[slot].expect("occupied");
            match lr.state {
                LrState::Active => {
                    self.core_mut(core).lrs[slot] = None;
                    true
                }
                LrState::PendingActive => {
                    self.core_mut(core).lrs[slot] = Some(ListRegister {
                        vintid,
                        state: LrState::Pending,
                    });
                    true
                }
                LrState::Pending => false,
            }
        } else {
            false
        }
    }

    /// Snapshot of all occupied list registers on `core` (for the RMM's
    /// filtered-list synchronisation with the host, fig. 5).
    pub fn lr_snapshot(&self, core: CoreId) -> Vec<(usize, ListRegister)> {
        self.core(core)
            .lrs
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.map(|lr| (i, lr)))
            .collect()
    }

    /// Clears all list registers on `core` (vCPU context unload).
    pub fn clear_lrs(&mut self, core: CoreId) {
        let n = self.num_list_regs;
        self.core_mut(core).lrs = vec![None; n];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gic() -> Gic {
        Gic::new(4, 4)
    }

    const C0: CoreId = CoreId(0);

    #[test]
    fn intid_classification() {
        assert!(IntId::sgi(0).is_sgi());
        assert!(IntId::sgi(15).is_sgi());
        assert!(IntId::ppi(0).is_ppi());
        assert!(IntId::VTIMER.is_ppi());
        assert!(IntId::spi(0).is_spi());
        assert_eq!(IntId::spi(0), IntId(32));
    }

    #[test]
    fn pending_priority_is_lowest_intid() {
        let mut g = gic();
        g.raise(C0, IntId::spi(1));
        g.raise(C0, IntId::VTIMER);
        g.raise(C0, IntId::sgi(8));
        assert_eq!(g.ack(C0), Some(IntId::sgi(8)));
        assert_eq!(g.ack(C0), Some(IntId::VTIMER));
        assert_eq!(g.ack(C0), Some(IntId::spi(1)));
        assert_eq!(g.ack(C0), None);
    }

    #[test]
    fn masking_blocks_delivery_but_keeps_pending() {
        let mut g = gic();
        g.set_masked(C0, true);
        g.raise(C0, IntId::sgi(1));
        assert_eq!(g.next_pending(C0), None);
        assert!(g.has_pending(C0));
        g.set_masked(C0, false);
        assert_eq!(g.next_pending(C0), Some(IntId::sgi(1)));
    }

    #[test]
    fn rescind_clears_pending() {
        let mut g = gic();
        g.raise(C0, IntId::VTIMER);
        g.rescind(C0, IntId::VTIMER);
        assert_eq!(g.next_pending(C0), None);
    }

    #[test]
    fn spi_routing_defaults_to_core0() {
        let mut g = gic();
        assert_eq!(g.spi_route(5), CoreId(0));
        g.route_spi(5, CoreId(3));
        assert_eq!(g.spi_route(5), CoreId(3));
    }

    #[test]
    fn virtual_injection_lifecycle() {
        let mut g = gic();
        let slot = g.inject_virtual(C0, IntId::VTIMER).unwrap();
        assert_eq!(
            g.lr(C0, slot),
            Some(ListRegister {
                vintid: IntId::VTIMER,
                state: LrState::Pending
            })
        );
        assert_eq!(g.next_virtual_pending(C0), Some(IntId::VTIMER));
        assert!(g.virtual_ack(C0, IntId::VTIMER));
        assert_eq!(g.next_virtual_pending(C0), None);
        assert!(g.virtual_eoi(C0, IntId::VTIMER));
        assert_eq!(g.lr(C0, slot), None);
    }

    #[test]
    fn inject_while_active_becomes_pending_active() {
        let mut g = gic();
        g.inject_virtual(C0, IntId::sgi(1)).unwrap();
        g.virtual_ack(C0, IntId::sgi(1));
        let slot = g.inject_virtual(C0, IntId::sgi(1)).unwrap();
        assert_eq!(g.lr(C0, slot).unwrap().state, LrState::PendingActive);
        // EOI of a pending-active interrupt re-arms it as pending.
        assert!(g.virtual_eoi(C0, IntId::sgi(1)));
        assert_eq!(g.lr(C0, slot).unwrap().state, LrState::Pending);
    }

    #[test]
    fn list_fills_up() {
        let mut g = gic();
        for n in 0..4 {
            assert!(g.inject_virtual(C0, IntId::spi(n)).is_some());
        }
        assert_eq!(g.inject_virtual(C0, IntId::spi(99)), None);
        assert_eq!(g.lr_snapshot(C0).len(), 4);
        g.clear_lrs(C0);
        assert_eq!(g.lr_snapshot(C0).len(), 0);
    }

    #[test]
    fn eoi_of_pending_interrupt_fails() {
        let mut g = gic();
        g.inject_virtual(C0, IntId::sgi(2)).unwrap();
        assert!(!g.virtual_eoi(C0, IntId::sgi(2)));
        assert!(!g.virtual_ack(C0, IntId::sgi(9)));
    }

    #[test]
    fn cores_are_independent() {
        let mut g = gic();
        g.raise(CoreId(1), IntId::sgi(3));
        assert_eq!(g.next_pending(CoreId(0)), None);
        assert_eq!(g.next_pending(CoreId(1)), Some(IntId::sgi(3)));
    }
}
