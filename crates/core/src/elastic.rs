//! Elastic node operations: runtime scale-up/down of core-gapped VMs
//! and a periodic defragmentation pass with live vCPU→core rebinding.
//!
//! Core gapping trades cores for isolation, so a multi-tenant node
//! lives or dies by how well it reallocates them. This module makes the
//! planner's paper-§3 replanning real: [`System::resize_vm`] grows or
//! shrinks a running VM's dedicated-core footprint, and
//! [`System::enable_defrag`] periodically compacts the pool by
//! relocating vCPUs between dedicated cores while the VMs keep running.
//!
//! Every relocation follows the same safe sequence:
//!
//! 1. the planner **reserves** the target core so no concurrent
//!    admission can take it ([`cg_host::CorePlanner::reserve`]);
//! 2. the target is hotplug-offlined and pre-dedicated to the RMM;
//! 3. the vCPU is **kicked** out of its guest ([`HOST_KICK_SGI`]) — a
//!    binding can only change while the REC is exited;
//! 4. at the vCPU thread's next run-call issue point the binding moves
//!    (`REC_REBIND`, [`cg_rmm::Rmm::rebind_rec`]), the vacated core is
//!    reclaimed online for the host, and the planner commits the move
//!    ([`cg_host::CorePlanner::apply_move`]), clearing the reservation;
//! 5. the next run call lazily re-enters on the new core's first-entry
//!    binding.
//!
//! Operations are executed **strictly one at a time** (a queue plus a
//! single in-flight slot): the planner's move list is collision-free
//! when applied in order, and serialisation preserves that order even
//! though each rebind takes a round trip through the kicked vCPU.
//!
//! The kick IPI is host-sent and therefore hostile-host territory: the
//! `RebindInterrupted` fault class
//! ([`cg_sim::FaultPlan::rebind_interruption`]) models the host losing
//! it, which would stall the in-flight operation forever. The elastic
//! part of the watchdog tick ([`System::elastic_watchdog_scan`] via
//! [`crate::event::SystemEvent::WatchdogTick`]) re-kicks a vCPU that is
//! still in guest past the recovery timeout, healing the stall.

use cg_host::{HostAction, VmExecMode};
use cg_machine::CoreId;
use cg_sim::{SimDuration, SimTime};

use crate::counters::Counter;
use crate::error::SystemError;
use crate::event::SystemEvent;
use crate::system::{CoreRun, System, ThreadCont, VmId, HOST_KICK_SGI};

/// The hotplug cost model for elastic core handoffs (same figure the
/// builder charges at admission).
const HOTPLUG_COST: SimDuration = SimDuration::millis(2);

/// What an elastic operation does to its target vCPU, consumed at the
/// vCPU thread's next run-call issue point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ElasticKind {
    /// Relocate the vCPU currently bound to `from` onto `to` (a
    /// defragmentation move). The planner reserved `to`; the op start
    /// pre-dedicated it.
    Rebind {
        /// The core being vacated.
        from: CoreId,
        /// The reserved, pre-dedicated relocation target.
        to: CoreId,
    },
    /// Scale-down: park the vCPU thread indefinitely, release its core
    /// back to the planner, and mark the vCPU retired.
    Retire,
    /// VM shutdown: force the vCPU finished and reap its thread. The
    /// core stays allocated until [`System::destroy_vm`] reclaims it.
    Kill,
}

/// One queued/in-flight elastic operation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ElasticOp {
    /// The VM the operation targets.
    pub vm: VmId,
    /// The target vCPU. For `Rebind` ops this is resolved from the
    /// source core when the op *starts* (a two-phase scratch-core move
    /// changes a vCPU's core between plan time and its second move).
    pub vcpu: u32,
    /// What to do.
    pub kind: ElasticKind,
    /// When the op left the queue (base of the measured rebind cost).
    pub started_at: SimTime,
    /// When the kick IPI was (nominally) sent; the watchdog re-kick
    /// refreshes this stamp.
    pub kicked_at: Option<SimTime>,
}

impl System {
    /// Resizes a running core-gapped VM to `n` active vCPUs, within
    /// `[1, vcpus-at-creation]`.
    ///
    /// Scale-down queues one retire per surplus vCPU (highest index
    /// first, so the active set stays a prefix and the planner's
    /// tail-release [`cg_host::CorePlanner::shrink`] frees exactly the
    /// retired vCPU's core); each retire kicks the vCPU out of its
    /// guest, parks its thread, and returns its dedicated core to the
    /// host and the planner's free pool.
    ///
    /// Scale-up is synchronous: the planner grants cores
    /// ([`cg_host::CorePlanner::grow`]), each is hotplug-offlined and
    /// dedicated, and the retired vCPU threads (lowest index first) are
    /// revived — their RECs were unbound at retire, so the next run
    /// call establishes a fresh first-entry binding on the new core.
    ///
    /// # Errors
    ///
    /// Returns a typed [`SystemError`] when the VM is not core-gapped
    /// (or was explicitly placed, bypassing the planner), `n` is out of
    /// range, another elastic operation already targets this VM, or the
    /// planner lacks free cores for a grow.
    pub fn resize_vm(&mut self, vm: VmId, n: u32) -> Result<(), SystemError> {
        let v = &self.vms[vm.0];
        if v.kvm.mode() != VmExecMode::CoreGapped {
            return Err(SystemError::NotCoreGapped(vm));
        }
        let realm = v.kvm.realm();
        let max = v.kvm.num_vcpus();
        if n == 0 || n > max {
            return Err(SystemError::SizeOutOfRange { requested: n, max });
        }
        if self.planner.allocation(realm).is_none() {
            return Err(SystemError::ExplicitlyPlaced);
        }
        let busy = self.elastic_inflight.iter().any(|op| op.vm == vm)
            || self.elastic.iter().any(|op| op.vm == vm)
            || v.pending_elastic.iter().any(|p| p.is_some());
        if busy {
            return Err(SystemError::ElasticBusy(vm));
        }
        let active = (0..max).filter(|&i| !v.retired[i as usize]).count() as u32;
        if n == active {
            return Ok(());
        }
        let now = self.now();
        if n < active {
            for vcpu in (n..active).rev() {
                self.elastic.push_back(ElasticOp {
                    vm,
                    vcpu,
                    kind: ElasticKind::Retire,
                    started_at: now,
                    kicked_at: None,
                });
            }
            self.metrics.counters.incr(Counter::ElasticScaleDowns);
            self.maybe_start_elastic();
            return Ok(());
        }
        // Scale-up: all-or-nothing through the planner.
        let grown = self.planner.grow(realm, (n - active) as u16)?;
        for (j, vcpu) in (active..n).enumerate() {
            let core = grown[j];
            cg_host::hotplug::offline_for_dedication(
                core,
                &mut self.sched,
                &mut self.machine,
                HOTPLUG_COST,
            );
            self.rmm
                .dedicate_core(core, &mut self.machine)
                .expect("planner-granted cores are free and online");
            self.cores[core.index()].run = CoreRun::RmmPolling;
            self.vms[vm.0].kvm.revive(vcpu);
            self.vms[vm.0].retired[vcpu as usize] = false;
            self.vms[vm.0].vcpus[vcpu as usize].core = core;
            self.core_vcpu[core.index()] = Some((vm, vcpu));
            let tid = self.vms[vm.0].vcpus[vcpu as usize].thread;
            if self.sched.is_blocked(tid) {
                self.set_cont(tid, ThreadCont::VcpuIssue { vm, vcpu });
                let (c, preempts) = self.sched.wake(tid);
                self.after_wake(c, preempts);
            }
        }
        self.vms[vm.0].finished = None;
        self.metrics.counters.incr(Counter::ElasticScaleUps);
        Ok(())
    }

    /// Quiesces a running core-gapped VM to **zero** active vCPUs — the
    /// stop-and-copy phase of a live migration. Every active vCPU is
    /// queued for a retire (highest index first, matching the planner's
    /// tail release), which kicks it out of its guest, parks its thread
    /// and returns its dedicated core; the realm itself stays admitted,
    /// active and intact, so the VM can either be exported to another
    /// node or revived in place via [`System::resize_vm`] if the
    /// migration aborts.
    ///
    /// # Errors
    ///
    /// Same preconditions as [`System::resize_vm`]: a planner-placed
    /// core-gapped VM with no elastic operation already in flight.
    pub fn evacuate_vm(&mut self, vm: VmId) -> Result<(), String> {
        let v = &self.vms[vm.0];
        if v.kvm.mode() != VmExecMode::CoreGapped {
            return Err("only core-gapped VMs evacuate".into());
        }
        let realm = v.kvm.realm();
        if self.planner.allocation(realm).is_none() {
            return Err("explicitly placed VMs bypass the planner and cannot evacuate".into());
        }
        let busy = self.elastic_inflight.iter().any(|op| op.vm == vm)
            || self.elastic.iter().any(|op| op.vm == vm)
            || v.pending_elastic.iter().any(|p| p.is_some());
        if busy {
            return Err("an elastic operation is already in flight for this VM".into());
        }
        let max = v.kvm.num_vcpus();
        let now = self.now();
        let mut queued = false;
        for vcpu in (0..max).rev() {
            if self.vms[vm.0].retired[vcpu as usize] {
                continue;
            }
            self.elastic.push_back(ElasticOp {
                vm,
                vcpu,
                kind: ElasticKind::Retire,
                started_at: now,
                kicked_at: None,
            });
            queued = true;
        }
        if queued {
            self.metrics.counters.incr(Counter::ElasticEvacuations);
            self.maybe_start_elastic();
        }
        Ok(())
    }

    /// Initiates VM departure: every live vCPU is queued for a kill
    /// (kick → force-finish → thread reap), and retired vCPUs' parked
    /// threads are woken straight into the kill path so they are reaped
    /// too. Once [`cg_host::KvmVm::all_finished`] reports true, the
    /// caller tears state down with [`System::destroy_vm`].
    pub fn shutdown_vm(&mut self, vm: VmId) {
        let now = self.now();
        for vcpu in 0..self.vms[vm.0].kvm.num_vcpus() {
            if self.vms[vm.0].retired[vcpu as usize] {
                let tid = self.vms[vm.0].vcpus[vcpu as usize].thread;
                if self.sched.is_blocked(tid) {
                    self.vms[vm.0].pending_elastic[vcpu as usize] = Some(ElasticKind::Kill);
                    self.set_cont(tid, ThreadCont::VcpuIssue { vm, vcpu });
                    let (c, preempts) = self.sched.wake(tid);
                    self.after_wake(c, preempts);
                }
                continue;
            }
            if self.vms[vm.0].kvm.is_finished(vcpu) {
                continue;
            }
            self.elastic.push_back(ElasticOp {
                vm,
                vcpu,
                kind: ElasticKind::Kill,
                started_at: now,
                kicked_at: None,
            });
        }
        self.metrics.counters.incr(Counter::ElasticShutdowns);
        self.maybe_start_elastic();
    }

    /// Arms the periodic defragmentation pass: every `period`, if no
    /// elastic operation is pending, the planner plans a compaction
    /// ([`cg_host::CorePlanner::plan_compact`]) and its moves are
    /// queued as live rebinds in the plan's collision-free order, each
    /// target reserved up front so admissions cannot race the pass.
    pub fn enable_defrag(&mut self, period: SimDuration) {
        assert!(!period.is_zero(), "defrag period must be non-zero");
        self.queue.schedule_after(
            period,
            SystemEvent::DefragTick {
                period_ns: period.as_nanos(),
            },
        );
    }

    /// Number of active (non-retired) vCPUs of `vm`.
    pub fn active_vcpus(&self, vm: VmId) -> u32 {
        self.vms[vm.0].retired.iter().filter(|&&r| !r).count() as u32
    }

    /// `true` when no elastic operation is queued or in flight.
    pub fn elastic_idle(&self) -> bool {
        self.elastic_inflight.is_none() && self.elastic.is_empty()
    }

    // ================= internal machinery =================

    /// Starts queued operations until one is actually in flight (ops
    /// whose target vanished are skipped) or the queue is empty.
    pub(crate) fn maybe_start_elastic(&mut self) {
        if !self.elastic.is_empty() {
            self.arm_watchdog();
        }
        while self.elastic_inflight.is_none() {
            let Some(op) = self.elastic.pop_front() else {
                return;
            };
            if self.start_elastic(op) {
                return;
            }
        }
    }

    /// Starts one operation: validates it is still meaningful,
    /// pre-dedicates a rebind target, marks the vCPU's pending slot,
    /// and kicks the vCPU out of its guest if it is in one. Returns
    /// `false` when the op was skipped (target gone).
    fn start_elastic(&mut self, mut op: ElasticOp) -> bool {
        let now = self.now();
        match op.kind {
            ElasticKind::Rebind { from, to } => {
                // The VM may have finished (or been shut down) between
                // the defrag pass and now; drop the move and free its
                // reservation so the target is not leaked.
                let stale = match self.core_vcpu[from.index()] {
                    Some((ovm, vcpu)) if ovm == op.vm => {
                        op.vcpu = vcpu;
                        self.vms[op.vm.0].kvm.is_finished(vcpu)
                    }
                    _ => true,
                };
                if stale {
                    self.planner.unreserve(to);
                    self.metrics.counters.incr(Counter::ElasticSkipped);
                    return false;
                }
                // Take (or confirm) the target reservation now that the
                // earlier moves have freed it; failure means the plan
                // went stale underneath us.
                if !self.planner.reserve(to) {
                    self.metrics.counters.incr(Counter::ElasticSkipped);
                    return false;
                }
                // Pre-dedicate the target so the rebind at the vCPU's
                // issue point is a pure binding move.
                cg_host::hotplug::offline_for_dedication(
                    to,
                    &mut self.sched,
                    &mut self.machine,
                    HOTPLUG_COST,
                );
                self.rmm
                    .dedicate_core(to, &mut self.machine)
                    .expect("reserved targets are free and online");
                self.cores[to.index()].run = CoreRun::RmmPolling;
            }
            ElasticKind::Retire | ElasticKind::Kill => {
                if self.vms[op.vm.0].kvm.is_finished(op.vcpu) {
                    self.metrics.counters.incr(Counter::ElasticSkipped);
                    return false;
                }
            }
        }
        op.started_at = now;
        let (vm, vcpu) = (op.vm, op.vcpu);
        self.vms[vm.0].pending_elastic[vcpu as usize] = Some(op.kind);
        if self.vms[vm.0].kvm.in_guest(vcpu) {
            // A binding only changes while the REC is exited: kick the
            // vCPU out. The kick is a host-sent IPI, so the hostile
            // host can lose it (`RebindInterrupted`); the elastic
            // watchdog scan re-kicks on timeout.
            op.kicked_at = Some(now);
            if self.fault.interrupt_rebind() {
                self.metrics.counters.incr(Counter::FaultRebindInterrupted);
            } else {
                self.apply_host_action(vm, HostAction::KickVcpu { vcpu });
            }
        }
        // Otherwise the thread is already host-side and reaches its
        // issue point (where the pending op is consumed) on its own.
        self.elastic_inflight = Some(op);
        true
    }

    /// Clears the in-flight slot if it matches `(vm, vcpu)` and starts
    /// the next queued operation.
    fn elastic_op_done(&mut self, vm: VmId, vcpu: u32) {
        if self
            .elastic_inflight
            .is_some_and(|op| op.vm == vm && op.vcpu == vcpu)
        {
            self.elastic_inflight = None;
            self.maybe_start_elastic();
        }
    }

    /// Consumes the vCPU's pending elastic operation at its run-call
    /// issue point — the one moment the REC is guaranteed exited.
    ///
    /// Returns `Some(extra)` when the thread should continue into its
    /// normal issue (a completed rebind, whose RMM cost is charged on
    /// the issue segment), or `None` when the thread parked or exited
    /// (retire/kill) and the core was redispatched.
    pub(crate) fn elastic_intercept(
        &mut self,
        core: CoreId,
        tid: cg_host::ThreadId,
        vm: VmId,
        vcpu: u32,
    ) -> Option<SimDuration> {
        let kind = self.vms[vm.0].pending_elastic[vcpu as usize]
            .take()
            .expect("caller checked a pending op exists");
        let now = self.now();
        match kind {
            ElasticKind::Rebind { from, to } => {
                debug_assert_eq!(self.vms[vm.0].vcpus[vcpu as usize].core, from);
                let rec = self.vms[vm.0].kvm.rec(vcpu);
                let cost = self
                    .rmm
                    .rebind_rec(rec, to, &mut self.machine)
                    .expect("target pre-dedicated and vCPU exited");
                // The vacated core goes back online for the host; the
                // planner commits the move, clearing the reservation.
                self.rmm
                    .reclaim_core(from, &mut self.machine)
                    .expect("rebind unbound the source core");
                self.cores[from.index()].run = CoreRun::HostIdle;
                self.core_vcpu[from.index()] = None;
                self.core_vcpu[to.index()] = Some((vm, vcpu));
                self.vms[vm.0].vcpus[vcpu as usize].core = to;
                let realm = self.vms[vm.0].kvm.realm();
                self.planner
                    .apply_move(realm, from, to)
                    .expect("target reserved for this move");
                if let Some(op) = self.elastic_inflight {
                    if op.vm == vm && op.vcpu == vcpu {
                        self.metrics
                            .rebind_hist
                            .record(now.duration_since(op.started_at).as_micros_f64());
                    }
                }
                self.metrics.counters.incr(Counter::ElasticRebinds);
                self.elastic_op_done(vm, vcpu);
                Some(cost)
            }
            ElasticKind::Retire => {
                let old = self.vms[vm.0].vcpus[vcpu as usize].core;
                self.vms[vm.0].kvm.force_finish(vcpu);
                self.close_vcpu_spans(vm, vcpu);
                let rec = self.vms[vm.0].kvm.rec(vcpu);
                // The REC may never have entered (no binding yet); the
                // dedicated core is reclaimable either way.
                let _ = self.rmm.unbind_rec(rec, &mut self.machine);
                self.rmm
                    .reclaim_core(old, &mut self.machine)
                    .expect("retired vCPU's core is unbound");
                self.cores[old.index()].run = CoreRun::HostIdle;
                self.core_vcpu[old.index()] = None;
                let realm = self.vms[vm.0].kvm.realm();
                let released = self
                    .planner
                    .shrink(realm, 1)
                    .expect("allocation tracks active vCPUs");
                debug_assert_eq!(released, vec![old], "tail release must match retired core");
                self.vms[vm.0].retired[vcpu as usize] = true;
                self.metrics.counters.incr(Counter::ElasticRetires);
                self.elastic_op_done(vm, vcpu);
                self.set_cont(tid, ThreadCont::VcpuRetired { vm, vcpu });
                self.sched.block_current(core);
                self.cores[core.index()].run = CoreRun::HostIdle;
                self.dispatch(core);
                None
            }
            ElasticKind::Kill => {
                if !self.vms[vm.0].kvm.is_finished(vcpu) {
                    self.vms[vm.0].kvm.force_finish(vcpu);
                }
                self.close_vcpu_spans(vm, vcpu);
                if self.vms[vm.0].kvm.all_finished() && self.vms[vm.0].finished.is_none() {
                    self.vms[vm.0].finished = Some(now);
                }
                self.metrics.counters.incr(Counter::ElasticKills);
                self.elastic_op_done(vm, vcpu);
                self.sched.exit_current(core);
                self.threads.remove(&tid);
                self.cores[core.index()].run = CoreRun::HostIdle;
                self.dispatch(core);
                None
            }
        }
    }

    /// Closes a vCPU's open profiler spans and pending latency stamp
    /// (it will never issue another run call on this binding).
    fn close_vcpu_spans(&mut self, vm: VmId, vcpu: u32) {
        let rt = &mut self.vms[vm.0].vcpus[vcpu as usize];
        rt.exit_posted_at = None;
        let roundtrip = std::mem::take(&mut rt.roundtrip_span);
        let handle = std::mem::take(&mut rt.handle_span);
        self.profiler.end(roundtrip);
        self.profiler.end(handle);
    }

    /// Hook for a vCPU finishing *naturally* (guest shutdown): clears
    /// any pending elastic op and abandons a matching in-flight one,
    /// handing a pre-dedicated rebind target back to the host.
    pub(crate) fn on_vcpu_gone(&mut self, vm: VmId, vcpu: u32) {
        self.vms[vm.0].pending_elastic[vcpu as usize] = None;
        let Some(op) = self.elastic_inflight else {
            return;
        };
        if op.vm != vm || op.vcpu != vcpu {
            return;
        }
        if let ElasticKind::Rebind { to, .. } = op.kind {
            self.rmm
                .reclaim_core(to, &mut self.machine)
                .expect("pre-dedicated target never bound");
            self.cores[to.index()].run = CoreRun::HostIdle;
            self.planner.unreserve(to);
        }
        self.metrics.counters.incr(Counter::ElasticAbandoned);
        self.elastic_inflight = None;
        self.maybe_start_elastic();
    }

    /// The defragmentation tick: plan a compaction and queue its moves
    /// as live rebinds, unless elastic work is already pending (the
    /// serialised queue preserves the plan's collision-free order, so
    /// a new plan must wait for the old one to drain).
    pub(crate) fn on_defrag_tick(&mut self, period_ns: u64) {
        let period = SimDuration::nanos(period_ns);
        self.queue
            .schedule_after(period, SystemEvent::DefragTick { period_ns });
        // The planning pass itself is cheap host work (a pool scan) in
        // timer-interrupt context on the boot core.
        let scan_cost = self.config.machine.poll_iteration * self.planner.pool_size() as u64;
        self.host_irq_steal(CoreId(0), scan_cost);
        if self.elastic_inflight.is_some() || !self.elastic.is_empty() {
            self.metrics.counters.incr(Counter::DefragSkipped);
            return;
        }
        self.metrics.counters.incr(Counter::DefragPasses);
        let moves = self.planner.plan_compact();
        if moves.is_empty() {
            return;
        }
        self.metrics
            .counters
            .add(Counter::DefragMoves, moves.len() as u64);
        let now = self.now();
        for (realm, from, to) in moves {
            // Shield currently-free targets from admissions. A later
            // move's target can still be occupied (it is an earlier
            // move's source — that is what the collision-free ordering
            // means); it is reserved the instant its op starts, which
            // happens in the same call stack as the earlier move's
            // completion, before any admission can run.
            let got = self.planner.reserve(to);
            let Some(vm) = self.vms.iter().position(|v| v.kvm.realm() == realm) else {
                if got {
                    self.planner.unreserve(to);
                }
                continue;
            };
            self.elastic.push_back(ElasticOp {
                vm: VmId(vm),
                vcpu: 0, // resolved from `from` at op start
                kind: ElasticKind::Rebind { from, to },
                started_at: now,
                kicked_at: None,
            });
        }
        self.maybe_start_elastic();
    }

    /// The elastic part of the watchdog tick: if the in-flight
    /// operation's vCPU is still in its guest past the recovery
    /// timeout, the kick was lost (`RebindInterrupted`) — re-kick,
    /// bypassing injection, and refresh the stamp.
    pub(crate) fn elastic_watchdog_scan(&mut self, now: SimTime) {
        let Some(op) = self.elastic_inflight else {
            return;
        };
        let Some(kicked) = op.kicked_at else {
            return;
        };
        if now.duration_since(kicked) < self.config.recovery.call_timeout {
            return;
        }
        if !self.vms[op.vm.0].kvm.in_guest(op.vcpu) {
            return;
        }
        let target_core = self.vms[op.vm.0].vcpus[op.vcpu as usize].core;
        self.record_recovery(
            Counter::ElasticWatchdogRecovered,
            cg_sim::TraceKind::Irq,
            Some(target_core),
            || format!("elastic.watchdog re-kick {}.vcpu{}", op.vm, op.vcpu),
        );
        self.metrics.counters.incr(Counter::HostKicks);
        self.queue.schedule_after(
            self.config.machine.ipi_deliver,
            SystemEvent::IpiArrive {
                core: target_core,
                intid: HOST_KICK_SGI,
            },
        );
        if let Some(op) = &mut self.elastic_inflight {
            op.kicked_at = Some(now);
        }
    }
}
