//! Virtual interrupt management and the filtered list-register view.
//!
//! This implements the paper's fig. 5. The host believes it manages the
//! guest's virtual interrupts through the list the run call carries; the
//! RMM maintains the *true* set, into which it also injects delegated
//! sources (virtual timer, virtual IPIs) without host involvement. On exit
//! to the host, the RMM synchronises the physical list registers one last
//! time and returns only the *filtered* view, hiding delegated interrupts
//! so KVM's bookkeeping stays consistent.

use std::collections::BTreeSet;

use cg_machine::{CoreId, Gic, IntId};
use cg_sim::{TraceHandle, TraceKind};

/// Which interrupt sources the RMM emulates locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelegationConfig {
    /// Emulate the virtual timer in the RMM (≈150 added lines in the
    /// prototype).
    pub timer: bool,
    /// Emulate virtual IPIs (SGIs) in the RMM (≈70 added lines).
    pub ipi: bool,
}

impl DelegationConfig {
    /// Both delegations enabled (the paper's optimised configuration).
    pub const FULL: DelegationConfig = DelegationConfig {
        timer: true,
        ipi: true,
    };

    /// No delegation (the baseline RMM behaviour).
    pub const NONE: DelegationConfig = DelegationConfig {
        timer: false,
        ipi: false,
    };

    /// Returns `true` if `intid` is hidden from the host under this
    /// configuration.
    pub fn hides(&self, intid: IntId) -> bool {
        (self.timer && intid == IntId::VTIMER) || (self.ipi && intid.is_sgi())
    }
}

/// Result of synchronising pending interrupts into the physical list
/// registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterruptPlan {
    /// Interrupts newly staged into list registers.
    pub injected: Vec<IntId>,
    /// Interrupts left pending because the list was full.
    pub overflowed: Vec<IntId>,
}

/// The RMM-side virtual interrupt state of one REC.
///
/// # Example
///
/// ```
/// use cg_machine::{CoreId, Gic, IntId};
/// use cg_rmm::VirtualGic;
/// use cg_rmm::interrupts::DelegationConfig;
///
/// let mut gic = Gic::new(1, 16);
/// let mut vgic = VirtualGic::new();
/// // Host provides a device interrupt; RMM injects its own timer tick.
/// vgic.host_provides(&[IntId::spi(1)], DelegationConfig::FULL);
/// vgic.inject_local(IntId::VTIMER);
/// vgic.sync_to_lrs(CoreId(0), &mut gic);
/// // The host-visible view hides the delegated timer.
/// let visible = vgic.filtered_view(CoreId(0), &gic, DelegationConfig::FULL);
/// assert_eq!(visible, vec![IntId::spi(1)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VirtualGic {
    /// Pending virtual interrupts not yet staged in list registers.
    pending: BTreeSet<IntId>,
    /// Observation handle (disabled by default).
    trace: TraceHandle,
    /// Realm/REC owning this state, for trace attribution.
    owner: (u32, u32),
}

impl VirtualGic {
    /// Creates empty virtual interrupt state.
    pub fn new() -> VirtualGic {
        VirtualGic::default()
    }

    /// Records through `trace` from now on, attributed to realm `realm`
    /// / REC `rec`. The RMM calls this once for each REC it creates or
    /// imports.
    pub fn set_trace(&mut self, trace: TraceHandle, realm: u32, rec: u32) {
        self.trace = trace;
        self.owner = (realm, rec);
    }

    fn trace_irq(&self, core: Option<u16>, detail: impl FnOnce() -> String) {
        let (realm, rec) = self.owner;
        self.trace
            .record_vm(TraceKind::Irq, core, Some(realm), Some(rec), detail);
    }

    /// Step ① of fig. 5: the host's run call provides its interrupt list.
    ///
    /// Delegated INTIDs in the host list are ignored — the host cannot
    /// inject sources the RMM owns (a malicious hypervisor could otherwise
    /// forge timer interrupts).
    pub fn host_provides(&mut self, list: &[IntId], delegation: DelegationConfig) {
        for &intid in list {
            if !delegation.hides(intid) {
                self.pending.insert(intid);
            }
        }
    }

    /// Step ④ of fig. 5: the RMM injects a locally emulated interrupt
    /// (timer tick, delegated IPI).
    pub fn inject_local(&mut self, intid: IntId) {
        self.pending.insert(intid);
        self.trace_irq(None, || format!("vgic.inject_local {intid}"));
    }

    /// Steps ②/②′: move pending interrupts into free physical list
    /// registers on `core`.
    pub fn sync_to_lrs(&mut self, core: CoreId, gic: &mut Gic) -> InterruptPlan {
        let mut injected = Vec::new();
        let mut overflowed = Vec::new();
        let pending: Vec<IntId> = self.pending.iter().copied().collect();
        for intid in pending {
            if gic.inject_virtual(core, intid).is_some() {
                self.pending.remove(&intid);
                injected.push(intid);
            } else {
                overflowed.push(intid);
            }
        }
        if !injected.is_empty() || !overflowed.is_empty() {
            self.trace_irq(Some(core.0), || {
                format!("vgic.sync injected={injected:?} overflowed={overflowed:?}")
            });
        }
        InterruptPlan {
            injected,
            overflowed,
        }
    }

    /// Step ⑤: the host-visible interrupt list on exit — everything still
    /// staged in list registers or pending, minus delegated sources.
    pub fn filtered_view(
        &self,
        core: CoreId,
        gic: &Gic,
        delegation: DelegationConfig,
    ) -> Vec<IntId> {
        let mut view: BTreeSet<IntId> = self
            .pending
            .iter()
            .copied()
            .filter(|&i| !delegation.hides(i))
            .collect();
        for (_, lr) in gic.lr_snapshot(core) {
            if !delegation.hides(lr.vintid) {
                view.insert(lr.vintid);
            }
        }
        view.into_iter().collect()
    }

    /// Interrupts pending injection (not yet in list registers).
    pub fn pending(&self) -> Vec<IntId> {
        self.pending.iter().copied().collect()
    }

    /// Returns `true` if nothing is pending.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
    }

    /// Returns `true` if `intid` is pending or staged.
    pub fn has_pending(&self, core: CoreId, gic: &Gic, intid: IntId) -> bool {
        self.pending.contains(&intid) || gic.find_lr(core, intid).is_some()
    }

    /// Drops all pending state (REC destroyed).
    pub fn reset(&mut self) {
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: CoreId = CoreId(0);

    #[test]
    fn host_cannot_inject_delegated_sources() {
        let mut vgic = VirtualGic::new();
        vgic.host_provides(
            &[IntId::VTIMER, IntId::sgi(3), IntId::spi(0)],
            DelegationConfig::FULL,
        );
        assert_eq!(vgic.pending(), vec![IntId::spi(0)]);
    }

    #[test]
    fn host_can_inject_everything_without_delegation() {
        let mut vgic = VirtualGic::new();
        vgic.host_provides(&[IntId::VTIMER, IntId::sgi(3)], DelegationConfig::NONE);
        assert_eq!(vgic.pending().len(), 2);
    }

    #[test]
    fn sync_moves_pending_into_lrs() {
        let mut gic = Gic::new(1, 16);
        let mut vgic = VirtualGic::new();
        vgic.inject_local(IntId::VTIMER);
        vgic.inject_local(IntId::spi(4));
        let plan = vgic.sync_to_lrs(C0, &mut gic);
        assert_eq!(plan.injected.len(), 2);
        assert!(plan.overflowed.is_empty());
        assert!(vgic.is_idle());
        assert_eq!(gic.lr_snapshot(C0).len(), 2);
    }

    #[test]
    fn overflow_stays_pending() {
        let mut gic = Gic::new(1, 2);
        let mut vgic = VirtualGic::new();
        for n in 0..4 {
            vgic.inject_local(IntId::spi(n));
        }
        let plan = vgic.sync_to_lrs(C0, &mut gic);
        assert_eq!(plan.injected.len(), 2);
        assert_eq!(plan.overflowed.len(), 2);
        assert_eq!(vgic.pending().len(), 2);
    }

    #[test]
    fn filtered_view_hides_delegated() {
        let mut gic = Gic::new(1, 16);
        let mut vgic = VirtualGic::new();
        vgic.inject_local(IntId::VTIMER);
        vgic.inject_local(IntId::sgi(2));
        vgic.inject_local(IntId::spi(9));
        vgic.sync_to_lrs(C0, &mut gic);
        let full = vgic.filtered_view(C0, &gic, DelegationConfig::NONE);
        assert_eq!(full.len(), 3);
        let filtered = vgic.filtered_view(C0, &gic, DelegationConfig::FULL);
        assert_eq!(filtered, vec![IntId::spi(9)]);
    }

    #[test]
    fn filtered_view_includes_unstaged_pending() {
        let gic = Gic::new(1, 16);
        let mut vgic = VirtualGic::new();
        vgic.inject_local(IntId::spi(3));
        let view = vgic.filtered_view(C0, &gic, DelegationConfig::FULL);
        assert_eq!(view, vec![IntId::spi(3)]);
    }

    #[test]
    fn has_pending_checks_both_places() {
        let mut gic = Gic::new(1, 16);
        let mut vgic = VirtualGic::new();
        vgic.inject_local(IntId::spi(1));
        assert!(vgic.has_pending(C0, &gic, IntId::spi(1)));
        vgic.sync_to_lrs(C0, &mut gic);
        assert!(vgic.has_pending(C0, &gic, IntId::spi(1)));
        assert!(!vgic.has_pending(C0, &gic, IntId::spi(2)));
    }

    #[test]
    fn reset_clears() {
        let mut vgic = VirtualGic::new();
        vgic.inject_local(IntId::spi(1));
        vgic.reset();
        assert!(vgic.is_idle());
    }
}
