//! The KVM layer: VM/vCPU state and exit handling policy.
//!
//! KVM's job in the simulation: own the vCPU threads' view of the VM,
//! translate each REC exit into host work and follow-up actions, emulate
//! the timer and IPIs when the RMM does not (delegation off), queue
//! virtual interrupts for the next run call, and decide when to kick a
//! running vCPU. The *transport* of run calls (same-core SMC vs cross-core
//! async RPC) is the system layer's concern.

use std::fmt;

use cg_cca::{RecEntry, RecExit, RecExitReason, RecId};
use cg_machine::{IntId, RealmId};
use cg_sim::{SimDuration, SimTime};

use crate::params::HostParams;
use crate::thread::ThreadId;
use crate::vmm::DeviceId;

/// How a VM executes (the experiment configurations of §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmExecMode {
    /// Non-confidential shared-core VM: the paper's baseline. Exits are
    /// handled on the same core with no world switches.
    SharedCore,
    /// Confidential VM without core gapping: every exit pays world
    /// switches and mitigation flushes. (The comparison the paper could
    /// not run without RME hardware — our simulator can.)
    SharedCoreConfidential,
    /// The paper's contribution: vCPUs on dedicated cores, exits via
    /// cross-core RPC.
    CoreGapped,
}

impl VmExecMode {
    /// Returns `true` for the modes where the RMM mediates execution.
    pub fn is_confidential(self) -> bool {
        !matches!(self, VmExecMode::SharedCore)
    }
}

impl fmt::Display for VmExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VmExecMode::SharedCore => "shared-core",
            VmExecMode::SharedCoreConfidential => "shared-core-cvm",
            VmExecMode::CoreGapped => "core-gapped",
        };
        f.write_str(s)
    }
}

/// Follow-up actions KVM requests from the system layer after handling
/// an exit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostAction {
    /// Charge `cost` of host CPU work on the handling thread.
    Work {
        /// What the work is (for tracing/statistics).
        label: &'static str,
        /// CPU time to charge.
        cost: SimDuration,
    },
    /// Wake the VMM I/O thread for `device` (it has queued work).
    VmmKick {
        /// The device with pending queue work.
        device: DeviceId,
    },
    /// Arm the host-side emulated vtimer for `vcpu` (delegation off).
    ArmEmulTimer {
        /// Target vCPU index.
        vcpu: u32,
        /// Absolute expiry.
        deadline: SimTime,
    },
    /// Send the exit-request doorbell to a *running* vCPU so queued
    /// interrupts can be injected.
    KickVcpu {
        /// Target vCPU index.
        vcpu: u32,
    },
    /// Unblock the (WFI-blocked or idle) vCPU thread of `vcpu` and issue
    /// its next run call.
    UnblockVcpu {
        /// Target vCPU index.
        vcpu: u32,
    },
    /// Issue the next run call for this vCPU.
    Resume {
        /// Target vCPU index.
        vcpu: u32,
    },
    /// Block this vCPU thread (guest idle in WFI, shared-core mode).
    BlockVcpu {
        /// Target vCPU index.
        vcpu: u32,
    },
    /// Map a shared (unprotected) page at the faulting IPA via RMI calls.
    MapShared {
        /// Faulting guest-physical address.
        ipa: u64,
    },
    /// The vCPU finished; do not re-run it.
    VcpuFinished {
        /// Target vCPU index.
        vcpu: u32,
    },
}

/// The MMIO/hostcall routing table: which device a guest kick addresses.
#[derive(Debug, Clone, Default)]
pub struct DeviceMap {
    entries: Vec<(u32, DeviceId)>,
}

impl DeviceMap {
    /// Creates an empty map.
    pub fn new() -> DeviceMap {
        DeviceMap::default()
    }

    /// Routes hostcall immediate `imm` to `device`.
    pub fn route(&mut self, imm: u32, device: DeviceId) {
        self.entries.push((imm, device));
    }

    /// Looks up the device for `imm`.
    pub fn lookup(&self, imm: u32) -> Option<DeviceId> {
        self.entries
            .iter()
            .find(|(i, _)| *i == imm)
            .map(|(_, d)| *d)
    }
}

/// Per-vCPU host-side state.
#[derive(Debug)]
struct Vcpu {
    /// The KVM vCPU thread, once spawned.
    thread: Option<ThreadId>,
    /// Entry state accumulating for the next run call.
    entry: RecEntry,
    /// A run call is outstanding (the guest is executing or exiting).
    in_guest: bool,
    /// Thread is blocked in WFI (shared-core mode).
    wfi_blocked: bool,
    /// The vCPU shut down.
    finished: bool,
    /// Host-emulated virtual timer deadline (delegation off).
    emul_vtimer: Option<SimTime>,
    /// A kick doorbell is in flight to this vCPU.
    kick_inflight: bool,
}

impl Vcpu {
    fn new() -> Vcpu {
        Vcpu {
            thread: None,
            entry: RecEntry::default(),
            in_guest: false,
            wfi_blocked: false,
            finished: false,
            emul_vtimer: None,
            kick_inflight: false,
        }
    }
}

/// One VM as KVM sees it.
#[derive(Debug)]
pub struct KvmVm {
    realm: RealmId,
    mode: VmExecMode,
    vcpus: Vec<Vcpu>,
    devices: DeviceMap,
    exits_total: u64,
    exits_interrupt: u64,
}

impl KvmVm {
    /// Creates a VM with `num_vcpus` vCPUs.
    pub fn new(realm: RealmId, mode: VmExecMode, num_vcpus: u32) -> KvmVm {
        KvmVm {
            realm,
            mode,
            vcpus: (0..num_vcpus).map(|_| Vcpu::new()).collect(),
            devices: DeviceMap::new(),
            exits_total: 0,
            exits_interrupt: 0,
        }
    }

    /// The realm identifier of this VM.
    pub fn realm(&self) -> RealmId {
        self.realm
    }

    /// The execution mode.
    pub fn mode(&self) -> VmExecMode {
        self.mode
    }

    /// Number of vCPUs.
    pub fn num_vcpus(&self) -> u32 {
        self.vcpus.len() as u32
    }

    /// The REC id of vCPU `vcpu`.
    pub fn rec(&self, vcpu: u32) -> RecId {
        RecId::new(self.realm, vcpu)
    }

    /// Total exits handled (table 4's "total exits") of a
    /// non-confidential VM. A confidential VM's exits are counted per
    /// REC by the RMM (the paper's methodology), so this stays 0 for it.
    pub fn exits_total(&self) -> u64 {
        self.exits_total
    }

    /// Interrupt-related exits handled (table 4's first row) of a
    /// non-confidential VM; 0 for a confidential one, as
    /// [`KvmVm::exits_total`].
    pub fn exits_interrupt(&self) -> u64 {
        self.exits_interrupt
    }

    /// Mutable device routing table.
    pub fn devices_mut(&mut self) -> &mut DeviceMap {
        &mut self.devices
    }

    /// Associates the spawned thread with vCPU `vcpu`.
    pub fn set_thread(&mut self, vcpu: u32, thread: ThreadId) {
        self.vcpus[vcpu as usize].thread = Some(thread);
    }

    /// The thread driving vCPU `vcpu`.
    pub fn thread(&self, vcpu: u32) -> Option<ThreadId> {
        self.vcpus[vcpu as usize].thread
    }

    /// Marks a run call issued for `vcpu`.
    pub fn mark_entered(&mut self, vcpu: u32) {
        let v = &mut self.vcpus[vcpu as usize];
        v.in_guest = true;
        v.kick_inflight = false;
    }

    /// Returns `true` if the vCPU still intends to block on WFI (a
    /// racing interrupt clears this; the system layer re-checks at the
    /// moment it would actually block the thread).
    pub fn wfi_should_block(&self, vcpu: u32) -> bool {
        self.vcpus[vcpu as usize].wfi_blocked
    }

    /// Returns `true` while a run call is outstanding.
    pub fn in_guest(&self, vcpu: u32) -> bool {
        self.vcpus[vcpu as usize].in_guest
    }

    /// Returns `true` once the vCPU has shut down.
    pub fn is_finished(&self, vcpu: u32) -> bool {
        self.vcpus[vcpu as usize].finished
    }

    /// Returns `true` if every vCPU has shut down.
    pub fn all_finished(&self) -> bool {
        self.vcpus.iter().all(|v| v.finished)
    }

    /// Takes the accumulated entry state for the next run call.
    pub fn take_entry(&mut self, vcpu: u32) -> RecEntry {
        std::mem::take(&mut self.vcpus[vcpu as usize].entry)
    }

    /// Forcibly marks `vcpu` finished without a guest `Shutdown` exit:
    /// the host is tearing the vCPU down (VM departure or scale-down
    /// under churn). Accumulated entry state and queued interrupts are
    /// dropped.
    pub fn force_finish(&mut self, vcpu: u32) {
        let v = &mut self.vcpus[vcpu as usize];
        v.finished = true;
        v.in_guest = false;
        v.wfi_blocked = false;
        v.kick_inflight = false;
        v.entry = RecEntry::default();
    }

    /// Revives a vCPU previously retired via
    /// [`KvmVm::force_finish`] for a scale-up: clears the finished
    /// flag so run calls may be issued again. The caller re-dedicates
    /// a core and wakes the vCPU thread.
    pub fn revive(&mut self, vcpu: u32) {
        let v = &mut self.vcpus[vcpu as usize];
        v.finished = false;
        v.in_guest = false;
        v.wfi_blocked = false;
        v.kick_inflight = false;
    }

    /// Queues a virtual interrupt for `vcpu`'s next entry; returns the
    /// action needed to get it delivered *now* (kick if in guest, unblock
    /// if WFI-blocked, nothing if the vCPU is between runs).
    pub fn queue_irq(&mut self, vcpu: u32, intid: IntId) -> Option<HostAction> {
        let v = &mut self.vcpus[vcpu as usize];
        if v.finished {
            return None;
        }
        if !v.entry.pending_interrupts.contains(&intid) {
            v.entry.pending_interrupts.push(intid);
        }
        if v.in_guest {
            if v.kick_inflight {
                None
            } else {
                v.kick_inflight = true;
                Some(HostAction::KickVcpu { vcpu })
            }
        } else if v.wfi_blocked {
            v.wfi_blocked = false;
            Some(HostAction::UnblockVcpu { vcpu })
        } else {
            None
        }
    }

    /// The host-emulated timer for `vcpu` fired: queue the virtual timer
    /// interrupt and deliver it.
    pub fn emul_timer_fire(&mut self, vcpu: u32, now: SimTime) -> Vec<HostAction> {
        let v = &mut self.vcpus[vcpu as usize];
        match v.emul_vtimer {
            Some(deadline) if deadline <= now => {
                v.emul_vtimer = None;
                let mut actions = vec![HostAction::Work {
                    label: "timer-emulate-fire",
                    cost: SimDuration::nanos(600),
                }];
                actions.extend(self.queue_irq(vcpu, IntId::VTIMER));
                actions
            }
            _ => Vec::new(), // stale firing (reprogrammed meanwhile)
        }
    }

    /// Handles a REC exit for `vcpu`, returning the actions to perform.
    /// `params` provides the host work costs.
    ///
    /// # Panics
    ///
    /// Panics if no run call was outstanding for `vcpu`.
    pub fn handle_exit(
        &mut self,
        vcpu: u32,
        exit: &RecExit,
        params: &HostParams,
    ) -> Vec<HostAction> {
        assert!(
            self.vcpus[vcpu as usize].in_guest,
            "exit for vcpu {vcpu} without outstanding run call"
        );
        self.vcpus[vcpu as usize].in_guest = false;
        if !self.mode.is_confidential() {
            self.exits_total += 1;
            if exit.reason.is_interrupt_related() {
                self.exits_interrupt += 1;
            }
        }
        let base = if self.mode.is_confidential() {
            // Confidential exits surface to the userspace run loop and
            // re-synchronise interrupt state with the monitor.
            // Interrupt-caused exits are re-entered from the kernel and
            // skip most of the userspace round.
            if exit.reason == RecExitReason::HostInterrupt {
                params.kvm_exit_fixed + params.cvm_exit_overhead / 2
            } else {
                params.kvm_exit_fixed + params.cvm_exit_overhead
            }
        } else {
            params.kvm_exit_fixed
        };
        let mut actions = vec![HostAction::Work {
            label: "kvm-exit",
            cost: base,
        }];
        match exit.reason {
            RecExitReason::Shutdown => {
                self.vcpus[vcpu as usize].finished = true;
                actions.push(HostAction::VcpuFinished { vcpu });
            }
            RecExitReason::Wfi => {
                // Before blocking, KVM re-checks for pending interrupts
                // (kvm_arch_vcpu_runnable): one may have been queued
                // while the exit was in flight.
                if self.vcpus[vcpu as usize]
                    .entry
                    .pending_interrupts
                    .is_empty()
                {
                    self.vcpus[vcpu as usize].wfi_blocked = true;
                    actions.push(HostAction::Work {
                        label: "wfi-block",
                        cost: params.wfi_block,
                    });
                    actions.push(HostAction::BlockVcpu { vcpu });
                } else {
                    actions.push(HostAction::Resume { vcpu });
                }
            }
            RecExitReason::HostInterrupt => {
                // The kick did its job: queued interrupts ride the next
                // entry. Just resume.
                actions.push(HostAction::Resume { vcpu });
            }
            RecExitReason::SysregTrap { sysreg } => {
                actions.extend(self.handle_sysreg_trap(vcpu, sysreg, exit, params));
            }
            RecExitReason::MmioRead { .. } => {
                // Device register read: full userspace round trip.
                actions.push(HostAction::Work {
                    label: "mmio-read",
                    cost: params.kvm_userspace_round,
                });
                self.vcpus[vcpu as usize].entry.mmio_read_value = Some(0);
                actions.push(HostAction::Resume { vcpu });
            }
            RecExitReason::MmioWrite { .. } => {
                actions.push(HostAction::Work {
                    label: "mmio-write",
                    cost: params.kvm_userspace_round,
                });
                actions.push(HostAction::Resume { vcpu });
            }
            RecExitReason::HostCall { imm } => {
                // Virtio kick: hand to the VMM I/O thread and resume the
                // guest immediately (the kick is asynchronous).
                actions.push(HostAction::Work {
                    label: "hostcall",
                    cost: params.kvm_userspace_round,
                });
                if let Some(device) = self.devices.lookup(imm) {
                    actions.push(HostAction::VmmKick { device });
                }
                actions.push(HostAction::Resume { vcpu });
            }
            RecExitReason::Stage2Fault { ipa } => {
                // On the CCA-style interface every page-table change is
                // a monitor call; TDX-style insecure tables skip that
                // (paper §6.1).
                let transport = if self.mode.is_confidential() && !params.tdx_style_tables {
                    params.fault_rmi_transport
                } else {
                    SimDuration::ZERO
                };
                actions.push(HostAction::Work {
                    label: "stage2-fixup",
                    cost: params.stage2_fixup + transport,
                });
                actions.push(HostAction::MapShared { ipa });
                actions.push(HostAction::Resume { vcpu });
            }
        }
        actions
    }

    fn handle_sysreg_trap(
        &mut self,
        vcpu: u32,
        sysreg: u32,
        exit: &RecExit,
        params: &HostParams,
    ) -> Vec<HostAction> {
        match sysreg {
            // CNTV_CVAL: guest programmed its virtual timer.
            0x0E03 => {
                let deadline = SimTime::from_nanos(exit.gprs[0]);
                self.vcpus[vcpu as usize].emul_vtimer = Some(deadline);
                vec![
                    HostAction::Work {
                        label: "timer-emulate",
                        cost: params.timer_emulate,
                    },
                    HostAction::ArmEmulTimer { vcpu, deadline },
                    HostAction::Resume { vcpu },
                ]
            }
            // ICC_SGI1R: guest sent an IPI.
            0x0C0B => {
                let target = exit.gprs[0] as u32;
                let sgi = exit.gprs[1] as u32;
                let mut actions = vec![HostAction::Work {
                    label: "ipi-emulate",
                    cost: params.ipi_emulate,
                }];
                if (target as usize) < self.vcpus.len() {
                    actions.extend(self.queue_irq(target, IntId::sgi(sgi.min(15))));
                }
                actions.push(HostAction::Resume { vcpu });
                actions
            }
            _ => vec![
                HostAction::Work {
                    label: "sysreg-other",
                    cost: params.kvm_exit_fixed,
                },
                HostAction::Resume { vcpu },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm() -> (KvmVm, HostParams) {
        (
            KvmVm::new(RealmId(0), VmExecMode::CoreGapped, 2),
            HostParams::calibrated(),
        )
    }

    fn exit(reason: RecExitReason) -> RecExit {
        RecExit::new(reason)
    }

    #[test]
    fn shutdown_finishes_vcpu() {
        let (mut vm, p) = vm();
        vm.mark_entered(0);
        let actions = vm.handle_exit(0, &exit(RecExitReason::Shutdown), &p);
        assert!(actions.contains(&HostAction::VcpuFinished { vcpu: 0 }));
        assert!(vm.is_finished(0));
        assert!(!vm.all_finished());
        vm.mark_entered(1);
        vm.handle_exit(1, &exit(RecExitReason::Shutdown), &p);
        assert!(vm.all_finished());
    }

    #[test]
    fn wfi_blocks_vcpu_thread() {
        let (mut vm, p) = vm();
        vm.mark_entered(0);
        let actions = vm.handle_exit(0, &exit(RecExitReason::Wfi), &p);
        assert!(actions.contains(&HostAction::BlockVcpu { vcpu: 0 }));
        // A queued interrupt unblocks it.
        let action = vm.queue_irq(0, IntId::VTIMER);
        assert_eq!(action, Some(HostAction::UnblockVcpu { vcpu: 0 }));
        // The entry list carries the interrupt.
        let entry = vm.take_entry(0);
        assert_eq!(entry.pending_interrupts, vec![IntId::VTIMER]);
    }

    #[test]
    fn timer_trap_arms_emulated_timer() {
        let (mut vm, p) = vm();
        vm.mark_entered(0);
        let mut e = exit(RecExitReason::SysregTrap { sysreg: 0x0E03 });
        e.gprs[0] = 5_000_000;
        let actions = vm.handle_exit(0, &e, &p);
        assert!(actions.iter().any(|a| matches!(
            a,
            HostAction::ArmEmulTimer { vcpu: 0, deadline } if deadline.as_nanos() == 5_000_000
        )));
        assert!(actions.contains(&HostAction::Resume { vcpu: 0 }));
        // Firing queues the vtimer interrupt; the vCPU is between runs,
        // so no kick is needed — the next entry carries it.
        let fired = vm.emul_timer_fire(0, SimTime::from_nanos(5_000_000));
        assert!(!fired.is_empty());
        assert_eq!(vm.take_entry(0).pending_interrupts, vec![IntId::VTIMER]);
    }

    #[test]
    fn stale_timer_fire_is_ignored() {
        let (mut vm, _) = vm();
        assert!(vm.emul_timer_fire(0, SimTime::from_nanos(1)).is_empty());
    }

    #[test]
    fn ipi_trap_kicks_running_target() {
        let (mut vm, p) = vm();
        vm.mark_entered(0);
        vm.mark_entered(1); // target is in guest
        let mut e = exit(RecExitReason::SysregTrap { sysreg: 0x0C0B });
        e.gprs[0] = 1; // target vcpu 1
        e.gprs[1] = 4; // SGI 4
        let actions = vm.handle_exit(0, &e, &p);
        assert!(actions.contains(&HostAction::KickVcpu { vcpu: 1 }));
        assert!(actions.contains(&HostAction::Resume { vcpu: 0 }));
        // Second queue while kick in flight does not duplicate the kick.
        assert_eq!(vm.queue_irq(1, IntId::sgi(5)), None);
    }

    #[test]
    fn hostcall_routes_to_device() {
        let (mut vm, p) = vm();
        vm.devices_mut().route(7, DeviceId(3));
        vm.mark_entered(0);
        let actions = vm.handle_exit(0, &exit(RecExitReason::HostCall { imm: 7 }), &p);
        assert!(actions.contains(&HostAction::VmmKick {
            device: DeviceId(3)
        }));
        assert!(actions.contains(&HostAction::Resume { vcpu: 0 }));
    }

    #[test]
    fn unknown_hostcall_still_resumes() {
        let (mut vm, p) = vm();
        vm.mark_entered(0);
        let actions = vm.handle_exit(0, &exit(RecExitReason::HostCall { imm: 99 }), &p);
        assert!(!actions
            .iter()
            .any(|a| matches!(a, HostAction::VmmKick { .. })));
        assert!(actions.contains(&HostAction::Resume { vcpu: 0 }));
    }

    #[test]
    fn stage2_fault_maps_and_resumes() {
        let (mut vm, p) = vm();
        vm.mark_entered(0);
        let actions = vm.handle_exit(0, &exit(RecExitReason::Stage2Fault { ipa: 0x8000 }), &p);
        assert!(actions.contains(&HostAction::MapShared { ipa: 0x8000 }));
        assert!(actions.contains(&HostAction::Resume { vcpu: 0 }));
    }

    #[test]
    fn counters_track_interrupt_related_exits() {
        let p = HostParams::calibrated();
        let mut shared = KvmVm::new(RealmId(0), VmExecMode::SharedCore, 2);
        let (mut gapped, _) = vm();
        for vm in [&mut shared, &mut gapped] {
            vm.mark_entered(0);
            vm.handle_exit(0, &exit(RecExitReason::Wfi), &p);
            vm.mark_entered(1);
            vm.handle_exit(1, &exit(RecExitReason::HostCall { imm: 0 }), &p);
        }
        assert_eq!(shared.exits_total(), 2);
        assert_eq!(shared.exits_interrupt(), 1);
        // The RMM counts a confidential VM's exits.
        assert_eq!(gapped.exits_total(), 0);
        assert_eq!(gapped.exits_interrupt(), 0);
    }

    #[test]
    fn queue_irq_after_finish_is_dropped() {
        let (mut vm, p) = vm();
        vm.mark_entered(0);
        vm.handle_exit(0, &exit(RecExitReason::Shutdown), &p);
        assert_eq!(vm.queue_irq(0, IntId::VTIMER), None);
    }

    #[test]
    fn irq_queue_deduplicates() {
        let (mut vm, _) = vm();
        vm.queue_irq(0, IntId::spi(1));
        vm.queue_irq(0, IntId::spi(1));
        vm.queue_irq(0, IntId::spi(2));
        assert_eq!(
            vm.take_entry(0).pending_interrupts,
            vec![IntId::spi(1), IntId::spi(2)]
        );
    }
}
