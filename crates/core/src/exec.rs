//! The execution engine: core dispatch, thread steps, guest driving,
//! transports.

use cg_cca::{RecExit, RecExitReason};
use cg_host::{DeviceKind, HostAction, ThreadId, VmExecMode, WakeupThread};
use cg_machine::{CoreId, Domain, IntId, World};
use cg_rmm::{Disposition, GuestEvent, REALM_DOORBELL_SGI};
use cg_sim::{SimDuration, SimTime, TraceCtx};
use cg_workloads::{GuestIrq, GuestOp, PeerPacket};

use crate::config::RunTransport;
use crate::counters::Counter;
use crate::event::SystemEvent;
use crate::system::{
    CallTimer, CoreRun, PlaneId, RunMsg, StagedIo, System, ThreadCont, VmId, VmmEffect,
    HOST_KICK_SGI,
};

/// What happens when the current guest segment completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum GuestCont {
    /// A compute segment finished; clear the op and continue.
    ComputeDone,
    /// A timeslice-capped compute segment finished (shared-core mode):
    /// the guest exits so the host scheduler can run other threads.
    ComputeTimeslice,
    /// A locally handled operation finished; continue the guest loop.
    OpDone,
    /// As `OpDone`, but apply host actions first (shared-core inline
    /// emulation).
    OpDoneActions(Vec<HostAction>),
    /// An SR-IOV transmit completes: put the packet on the wire.
    NetTxDirect { bytes: u64, flow: u64 },
    /// A fast-path descriptor publish completes: ring the I/O doorbell
    /// if EVENT_IDX asked for a notification, then continue the guest.
    VirtioKick {
        device: u32,
        notify: bool,
        /// Causal trace context of the published descriptor; its
        /// `parent` is the open root span the kick arm closes.
        ctx: TraceCtx,
    },
    /// A delegated cross-core IPI completes: ring the target core.
    IpiSendDone { target_core: CoreId },
    /// An inter-CVM channel publish completes: ring the channel's
    /// doorbell SPI at the consumer's dedicated core (unless the
    /// consumer suppressed notifications) — no host exit either way.
    IvcPublish {
        channel: u32,
        spi: u32,
        notify: bool,
        target_core: CoreId,
        /// Causal trace context of the published message; its `parent`
        /// is the open root span the publish arm closes.
        ctx: TraceCtx,
    },
    /// The exit record is ready: hand it to the host.
    ExitPost { exit: RecExit },
}

/// The most compute units one run-ahead segment covers, the unit it
/// starts with included: more than one 4 ms guest tick of 100 µs units.
const RUN_AHEAD_UNITS: usize = 64;

/// The host's kick as the guest's core takes it: the SGI that forces a
/// shared-core vCPU out to the host.
const HOST_KICK: GuestEvent = GuestEvent::PhysIrq {
    intid: HOST_KICK_SGI,
};

/// One compute unit the run-ahead tier planned but has not started.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AheadUnit {
    /// When the unit starts: the previous unit's end.
    pub start: SimTime,
    /// Its ideal work.
    pub work: SimDuration,
    /// Its segment wall, as single-stepping would charge it.
    pub wall: SimDuration,
}

impl System {
    // ================= segments =================

    pub(crate) fn start_segment(&mut self, core: CoreId, wall: SimDuration, work: SimDuration) {
        let wall = wall.max(SimDuration::nanos(1));
        let cs = &mut self.cores[core.index()];
        debug_assert!(
            cs.seg_token.is_none(),
            "segment already in flight on {core}"
        );
        cs.seg_started = self.queue.now();
        cs.seg_wall = wall;
        cs.seg_work = work;
        self.schedule_segment_end(core);
    }

    /// Schedules the `SegmentEnd` of `core`'s segment: the end of its
    /// last unit, ordered as of that unit's start, which is where the
    /// single-step path would have scheduled it.
    fn schedule_segment_end(&mut self, core: CoreId) {
        let cs = &self.cores[core.index()];
        let (start, wall) = cs
            .ahead
            .back()
            .map_or((cs.seg_started, cs.seg_wall), |u| (u.start, u.wall));
        let epoch = cs.epoch;
        let token =
            self.queue
                .schedule_as_of(start + wall, start, SystemEvent::SegmentEnd { core, epoch });
        self.cores[core.index()].seg_token = Some(token);
    }

    // ================= the run-ahead tier =================
    //
    // A core-gapped vCPU's run of plain compute units becomes one
    // segment. Each unit's wall is worked out at planning time on a copy
    // of the core's residency; the unit itself starts (its `next_op` is
    // taken and the core's warmth advanced) only when single-stepping
    // would have started it: at the segment's end, or at a settle point
    // — an interrupt, a NAPI delivery, an observability sample, or the
    // end of a run loop. See DESIGN.md, "Execution tiers".

    /// Plans the units that follow the compute unit about to start on
    /// `core` with segment wall `wall`: consecutive plain compute the
    /// guest program promises (`peek_compute`), each starting before
    /// the core's armed timer deadline, up to [`RUN_AHEAD_UNITS`] in all.
    fn plan_run_ahead(&mut self, core: CoreId, vm: VmId, vcpu: u32, wall: SimDuration) {
        let stop = self.machine.timer(core).deadline().unwrap_or(SimTime::MAX);
        let domain = Domain::Realm(self.vms[vm.0].kvm.realm());
        let guest = &self.vms[vm.0].guest;
        let ahead = &mut self.cores[core.index()].ahead;
        debug_assert!(ahead.is_empty(), "run-ahead plan already on {core}");
        let residency = &mut self.plan_residency;
        let mut start = self.queue.now() + wall.max(SimDuration::nanos(1));
        while ahead.len() + 1 < RUN_AHEAD_UNITS && start < stop {
            let Some(work) = guest.peek_compute(vcpu, start) else {
                break;
            };
            if ahead.is_empty() {
                residency.clone_from(self.machine.microarch(core).residency());
            }
            let wall = residency
                .run_compute(domain, work, self.machine.params())
                .max(SimDuration::nanos(1));
            ahead.push_back(AheadUnit { start, work, wall });
            start += wall;
        }
    }

    /// Starts `core`'s next planned unit as single-stepping would have
    /// at its boundary: takes the guest's op, runs it on the core, and
    /// makes it the unit in flight.
    fn start_ahead_unit(&mut self, core: CoreId) {
        let CoreRun::Guest { vm, vcpu } = self.cores[core.index()].run else {
            unreachable!("run-ahead units on non-guest {core}")
        };
        let u = self.cores[core.index()]
            .ahead
            .pop_front()
            .expect("caller checked a planned unit");
        debug_assert!(
            self.machine.gic().next_pending(core).is_none()
                && self.machine.gic().next_virtual_pending(core).is_none(),
            "interrupt pending at a run-ahead boundary on {core}"
        );
        let op = self.vms[vm.0].guest.next_op(vcpu, u.start);
        assert_eq!(
            op,
            GuestOp::Compute { work: u.work },
            "{vm}.vcpu{vcpu} broke its peek_compute promise at {}",
            u.start
        );
        let domain = Domain::Realm(self.vms[vm.0].kvm.realm());
        let wall = self.machine.run_compute(core, domain, u.work);
        debug_assert_eq!(wall.max(SimDuration::nanos(1)), u.wall);
        self.vms[vm.0].cur_op[vcpu as usize] = Some((op, u.work));
        let cs = &mut self.cores[core.index()];
        cs.seg_started = u.start;
        cs.seg_wall = u.wall;
        cs.seg_work = u.work;
    }

    /// Starts every unit planned on `core` that single-stepping would
    /// have started before the event keyed `(at, scheduled_at)` is
    /// handled. A unit starting at `at` exactly counts as started iff
    /// the unit before it started earlier than `scheduled_at` (then its
    /// `SegmentEnd` sorts first); a tie on `scheduled_at` counts as not
    /// started. Returns the key of the last boundary crossed, the
    /// `SegmentEnd` single-stepping would have handled there, if any.
    fn settle_core(
        &mut self,
        core: CoreId,
        at: SimTime,
        scheduled_at: SimTime,
    ) -> Option<(SimTime, SimTime)> {
        let mut last = None;
        while let Some(u) = self.cores[core.index()].ahead.front() {
            let prev_start = self.cores[core.index()].seg_started;
            if u.start > at || (u.start == at && prev_start >= scheduled_at) {
                break;
            }
            last = Some((u.start, prev_start));
            self.start_ahead_unit(core);
        }
        last
    }

    /// [`System::settle_core`] on every core with planned units. Returns
    /// the latest key crossed, if any.
    pub(crate) fn settle_run_ahead(
        &mut self,
        at: SimTime,
        scheduled_at: SimTime,
    ) -> Option<(SimTime, SimTime)> {
        let mut latest = None;
        for i in 0..self.cores.len() {
            if !self.cores[i].ahead.is_empty() {
                latest = latest.max(self.settle_core(CoreId(i as u16), at, scheduled_at));
            }
        }
        latest
    }

    /// Settles `core` up to the event being handled and drops the rest
    /// of its plan: the unit in flight is all that remains.
    fn drop_run_ahead(&mut self, core: CoreId) {
        self.settle_core(core, self.queue.now(), self.queue.last_scheduled_at());
        self.cores[core.index()].ahead.clear();
    }

    /// As [`System::drop_run_ahead`], and ends the segment with the unit
    /// in flight, so the guest program is consulted again at its end.
    fn cut_run_ahead(&mut self, core: CoreId) {
        self.settle_core(core, self.queue.now(), self.queue.last_scheduled_at());
        if self.cores[core.index()].ahead.is_empty() {
            return; // the segment already ends with the unit in flight
        }
        self.cores[core.index()].ahead.clear();
        let token = self.cores[core.index()]
            .seg_token
            .take()
            .expect("run-ahead plan without a segment");
        self.queue.cancel(token);
        self.schedule_segment_end(core);
    }

    /// Truncates the in-flight segment. Returns `(elapsed_wall,
    /// remaining_wall, completed_work)`.
    pub(crate) fn truncate_segment(
        &mut self,
        core: CoreId,
    ) -> (SimDuration, SimDuration, SimDuration) {
        let now = self.queue.now();
        let cs = &mut self.cores[core.index()];
        let token = cs.seg_token.take().expect("no segment to truncate");
        self.queue.cancel(token);
        cs.epoch += 1;
        let elapsed = now.saturating_duration_since(cs.seg_started);
        let remaining = cs.seg_wall.saturating_sub(elapsed);
        let completed_work = if cs.seg_wall.is_zero() {
            SimDuration::ZERO
        } else {
            cs.seg_work
                .scaled(elapsed.as_nanos() as f64 / cs.seg_wall.as_nanos() as f64)
        };
        (elapsed, remaining, completed_work)
    }

    pub(crate) fn account_host_busy(&mut self, core: CoreId, wall: SimDuration) {
        if core.index() < self.config.num_host_cores as usize {
            self.metrics.add_host_busy(core.index(), wall);
        }
    }

    /// Charges interrupt-context work on a core: extends the in-flight
    /// segment (stolen time), or is absorbed if the core is idle.
    pub(crate) fn host_irq_steal(&mut self, core: CoreId, cost: SimDuration) {
        if cost.is_zero() {
            return;
        }
        // Stolen time stretches the unit in flight, moving every planned
        // unit behind it.
        self.drop_run_ahead(core);
        let now = self.queue.now();
        let cs = &mut self.cores[core.index()];
        if let Some(token) = cs.seg_token.take() {
            self.queue.cancel(token);
            cs.seg_wall += cost;
            let end = cs.seg_started + cs.seg_wall;
            let epoch = cs.epoch;
            let end = end.max(now);
            let token = self
                .queue
                .schedule_at(end, SystemEvent::SegmentEnd { core, epoch });
            self.cores[core.index()].seg_token = Some(token);
        }
        self.account_host_busy(core, cost);
    }

    // ================= host thread scheduling =================

    /// Makes `core` pick and run its next thread, if idle.
    pub(crate) fn dispatch(&mut self, core: CoreId) {
        if self.cores[core.index()].run != CoreRun::HostIdle {
            return;
        }
        if !self.machine.cpu(core).is_host_schedulable() {
            return;
        }
        match self.sched.pick_next(core) {
            Some(tid) => {
                self.cores[core.index()].run = CoreRun::HostThread { tid };
                self.begin_thread(core, tid);
            }
            None => {
                self.cores[core.index()].run = CoreRun::HostIdle;
            }
        }
    }

    /// Preempts the thread running on `core` (requeueing it) so a
    /// higher-priority wakeup can run.
    pub(crate) fn maybe_preempt(&mut self, core: CoreId) {
        match self.cores[core.index()].run {
            CoreRun::HostThread { tid } => {
                if self.cores[core.index()].seg_token.is_some() {
                    let (elapsed, remaining, _) = self.truncate_segment(core);
                    self.account_host_busy(core, elapsed);
                    let ctx = self.threads.get_mut(&tid).expect("running thread has ctx");
                    ctx.pending = remaining;
                }
                self.sched.yield_current(core);
                self.cores[core.index()].run = CoreRun::HostIdle;
                self.dispatch(core);
            }
            CoreRun::Guest { vm, vcpu }
                // Shared-core guest preempted by a host thread: force an
                // exit (scheduler IPI in real KVM).
                if self.vms[vm.0].kvm.mode() != VmExecMode::CoreGapped => {
                    self.preempt_shared_guest(core, vm, vcpu);
                }
            _ => {}
        }
    }

    /// Begins (or resumes) the current step of `tid` on `core`.
    /// Loops over instant transitions until a segment is started, the
    /// thread blocks, or the core is redispatched.
    pub(crate) fn begin_thread(&mut self, core: CoreId, tid: ThreadId) {
        loop {
            let pending = self.threads.get(&tid).expect("thread ctx").pending;
            if !pending.is_zero() {
                self.account_host_busy(core, pending);
                self.machine.run_fixed(core, Domain::Host, pending);
                self.start_segment(core, pending, SimDuration::ZERO);
                return;
            }
            // Begin a fresh step: set `pending` (and stage effects) based
            // on the continuation.
            let cont = &self.threads.get(&tid).expect("thread ctx").cont;
            match cont {
                ThreadCont::VcpuIssue { vm, vcpu } => {
                    let (vm, vcpu) = (*vm, *vcpu);
                    // A pending elastic op (rebind/retire/kill) is
                    // consumed here, the one point where the REC is
                    // guaranteed exited.
                    let mut elastic_cost = SimDuration::ZERO;
                    if self.vms[vm.0].pending_elastic[vcpu as usize].is_some() {
                        match self.elastic_intercept(core, tid, vm, vcpu) {
                            Some(extra) => elastic_cost = extra,
                            None => return, // parked or exited; core redispatched
                        }
                    }
                    if self.vms[vm.0].paused {
                        self.set_cont(tid, ThreadCont::VcpuPaused { vm, vcpu });
                        self.sched.block_current(core);
                        self.cores[core.index()].run = CoreRun::HostIdle;
                        self.dispatch(core);
                        return;
                    }
                    let cost = self.config.host.run_call_issue + elastic_cost;
                    self.threads.get_mut(&tid).expect("ctx").pending = cost;
                }
                ThreadCont::VcpuPoll { .. } => {
                    let cost = self.config.host.busywait_poll_slice;
                    self.threads.get_mut(&tid).expect("ctx").pending = cost;
                }
                ThreadCont::VcpuHandleExit { .. } => {
                    let cost = self.config.machine.cache_line_transfer;
                    self.threads.get_mut(&tid).expect("ctx").pending = cost;
                }
                ThreadCont::VcpuActions { .. } => {
                    if self.begin_vcpu_actions(core, tid) {
                        return; // blocked / exited / redispatched
                    }
                    continue;
                }
                ThreadCont::WakeupScan => {
                    let n = self.planes[PlaneId::Exit]
                        .thread
                        .as_ref()
                        .map_or(1, |w| w.watched());
                    let p = &self.config.machine;
                    let mut cost = p.cache_line_transfer * 2
                        + WakeupThread::scan_cost(n.saturating_sub(1), p.poll_iteration);
                    // Hostile host: the scan can be stalled mid-flight
                    // (host core preempted at hypervisor level).
                    if let Some(stall) = self.fault.host_stall() {
                        self.metrics.counters.incr(Counter::FaultHostStalls);
                        cost += stall;
                    }
                    self.threads.get_mut(&tid).expect("ctx").pending = cost;
                }
                ThreadCont::VmmDrain { .. } => {
                    if self.begin_vmm_drain(core, tid) {
                        return; // blocked
                    }
                    continue;
                }
                ThreadCont::IoPoll => {
                    // One pass over every fast-path avail ring: the
                    // doorbell cache line, then a bounded scan.
                    let n: usize = self
                        .vms
                        .iter()
                        .flat_map(|vm| vm.devices.iter())
                        .map(|d| d.queues.len())
                        .sum();
                    let p = &self.config.machine;
                    let mut cost =
                        p.cache_line_transfer * 2 + WakeupThread::scan_cost(n, p.poll_iteration);
                    // Hostile host: the poll can be stalled mid-flight
                    // exactly like the wake-up thread's scan.
                    if let Some(stall) = self.fault.host_stall() {
                        self.metrics.counters.incr(Counter::FaultHostStalls);
                        cost += stall;
                    }
                    self.threads.get_mut(&tid).expect("ctx").pending = cost;
                }
                ThreadCont::IoBackend { .. } => {
                    unreachable!("IoBackend begins with its segment pre-staged")
                }
                ThreadCont::VcpuInGuest { .. } => {
                    unreachable!("VcpuInGuest begins only via run-call issue")
                }
                ThreadCont::VcpuAwait { .. }
                | ThreadCont::VcpuBlocked { .. }
                | ThreadCont::VcpuPaused { .. }
                | ThreadCont::VcpuRetired { .. }
                | ThreadCont::WakeupIdle
                | ThreadCont::IoIdle
                | ThreadCont::VmmIdle { .. } => {
                    // Nothing to do: block until an event wakes us.
                    self.sched.block_current(core);
                    self.cores[core.index()].run = CoreRun::HostIdle;
                    self.dispatch(core);
                    return;
                }
                ThreadCont::VcpuDone => {
                    self.sched.exit_current(core);
                    // Reap the thread context: churn must not accumulate
                    // dead vCPU threads.
                    self.threads.remove(&tid);
                    self.cores[core.index()].run = CoreRun::HostIdle;
                    self.dispatch(core);
                    return;
                }
            }
        }
    }

    /// Handles completion of a host-thread segment.
    pub(crate) fn thread_segment_done(&mut self, core: CoreId, tid: ThreadId) {
        // The step's work is complete; decide what happens next.
        self.threads.get_mut(&tid).expect("ctx").pending = SimDuration::ZERO;
        let cont = std::mem::replace(
            &mut self.threads.get_mut(&tid).expect("ctx").cont,
            ThreadCont::VcpuDone, // placeholder, always overwritten below
        );
        match cont {
            ThreadCont::VcpuIssue { vm, vcpu } => self.complete_run_call_issue(core, tid, vm, vcpu),
            ThreadCont::VcpuPoll { vm, vcpu } => {
                let visible = {
                    let ch = &self.vms[vm.0].run_channels[vcpu as usize];
                    ch.has_response()
                        && ch
                            .response_visible_at(&self.config.machine)
                            .map(|t| t <= self.queue.now())
                            .unwrap_or(false)
                };
                if visible {
                    self.set_cont(tid, ThreadCont::VcpuHandleExit { vm, vcpu });
                    self.begin_thread(core, tid);
                } else {
                    // Yield-polling: requeue and let others run.
                    self.set_cont(tid, ThreadCont::VcpuPoll { vm, vcpu });
                    self.sched.yield_current(core);
                    self.cores[core.index()].run = CoreRun::HostIdle;
                    self.dispatch(core);
                }
            }
            ThreadCont::VcpuHandleExit { vm, vcpu } => {
                let resp_ctx = self.vms[vm.0].run_channels[vcpu as usize].response_ctx();
                let realm = self.vms[vm.0].kvm.realm().0;
                let (span, hctx) = self.trace.begin_child(
                    cg_sim::SpanKind::ExitHandle,
                    Some(core.0),
                    Some(realm),
                    Some(vcpu),
                    resp_ctx,
                );
                let rt = &mut self.vms[vm.0].vcpus[vcpu as usize];
                rt.handle_span = span;
                rt.handle_ctx = hctx;
                let exit = self.take_posted_exit(vm, vcpu);
                let actions = {
                    let host = self.config.host.clone();
                    self.vms[vm.0].kvm.handle_exit(vcpu, &exit, &host)
                };
                // Stamp VM completion the moment the last vCPU's
                // shutdown is recognised (before its final actions run).
                if self.vms[vm.0].kvm.all_finished() && self.vms[vm.0].finished.is_none() {
                    self.vms[vm.0].finished = Some(self.queue.now());
                }
                self.set_cont(
                    tid,
                    ThreadCont::VcpuActions {
                        vm,
                        vcpu,
                        queue: actions.into(),
                    },
                );
                self.begin_thread(core, tid);
            }
            ThreadCont::VcpuActions { vm, vcpu, queue } => {
                // A Work action's segment finished; continue the queue.
                self.set_cont(tid, ThreadCont::VcpuActions { vm, vcpu, queue });
                self.begin_thread(core, tid);
            }
            ThreadCont::WakeupScan => self.complete_wakeup_scan(core, tid),
            ThreadCont::IoPoll => self.complete_io_poll(core, tid),
            ThreadCont::IoBackend { staged } => {
                let seg_started = self.cores[core.index()].seg_started;
                let now = self.queue.now();
                self.trace.record_span_child(
                    cg_sim::SpanKind::VirtioBackend,
                    Some(core.0),
                    None,
                    None,
                    seg_started,
                    now,
                    TraceCtx::NULL,
                );
                for item in staged {
                    // Each traced item gets its own backend child span
                    // (same interval as the aggregate segment above)
                    // so the request's trace crosses onto this thread.
                    let ctx = if item.ctx.is_null() {
                        item.ctx
                    } else {
                        self.trace.record_span_child(
                            cg_sim::SpanKind::VirtioBackend,
                            Some(core.0),
                            None,
                            None,
                            seg_started,
                            now,
                            item.ctx,
                        )
                    };
                    self.apply_io_effect(item.vm, item.device, item.vcpu, item.effect, ctx);
                }
                self.next_plane_pass(PlaneId::Io, core, tid, true);
            }
            ThreadCont::VmmDrain { vm, device, staged } => {
                if let Some(effect) = staged {
                    self.apply_vmm_effect(vm, device, effect);
                }
                self.set_cont(
                    tid,
                    ThreadCont::VmmDrain {
                        vm,
                        device,
                        staged: None,
                    },
                );
                self.begin_thread(core, tid);
            }
            ThreadCont::VcpuInGuest { vm, vcpu } => {
                // Shared-mode entry cost elapsed: architecturally enter.
                self.set_cont(tid, ThreadCont::VcpuInGuest { vm, vcpu });
                self.enter_shared_guest(core, vm, vcpu);
            }
            other => unreachable!("segment completed for non-running cont {other:?}"),
        }
    }

    pub(crate) fn set_cont(&mut self, tid: ThreadId, cont: ThreadCont) {
        self.threads.get_mut(&tid).expect("ctx").cont = cont;
    }

    /// Closes the vCPU's open exit-handling span, if any (the handling
    /// step reached its terminal action).
    fn end_handle_span(&mut self, vm: VmId, vcpu: u32) {
        let span = std::mem::take(&mut self.vms[vm.0].vcpus[vcpu as usize].handle_span);
        self.trace.end(span);
    }

    /// Executes instant actions from a vCPU action queue until a Work
    /// action starts a segment or a terminal action ends the step.
    /// Returns `true` if the thread blocked/exited (core redispatched).
    fn begin_vcpu_actions(&mut self, core: CoreId, tid: ThreadId) -> bool {
        loop {
            let (vm, vcpu, action) = {
                let ctx = self.threads.get_mut(&tid).expect("ctx");
                let ThreadCont::VcpuActions { vm, vcpu, queue } = &mut ctx.cont else {
                    unreachable!("begin_vcpu_actions on wrong cont");
                };
                match queue.pop_front() {
                    Some(a) => (*vm, *vcpu, a),
                    None => {
                        // Handled exit with no resume decision: the vCPU
                        // stays parked until an interrupt wakes it (e.g.
                        // WFI block was queued as an action).
                        unreachable!("action queue drained without terminal action")
                    }
                }
            };
            match action {
                HostAction::Work { cost, .. } => {
                    self.threads.get_mut(&tid).expect("ctx").pending = cost;
                    return false;
                }
                HostAction::Resume { vcpu: v } => {
                    debug_assert_eq!(v, vcpu);
                    self.end_handle_span(vm, vcpu);
                    if self.vms[vm.0].paused {
                        self.set_cont(tid, ThreadCont::VcpuPaused { vm, vcpu });
                        self.sched.block_current(core);
                        self.cores[core.index()].run = CoreRun::HostIdle;
                        self.dispatch(core);
                        return true;
                    }
                    self.set_cont(tid, ThreadCont::VcpuIssue { vm, vcpu });
                    // Fair-class vCPU threads (shared-core modes) yield
                    // to other runnable threads before re-entering the
                    // guest, as CFS would.
                    if self.vms[vm.0].kvm.mode() != VmExecMode::CoreGapped
                        && self.sched.runnable_on(core) > 0
                    {
                        self.sched.yield_current(core);
                        self.cores[core.index()].run = CoreRun::HostIdle;
                        self.dispatch(core);
                        return true;
                    }
                    return false;
                }
                HostAction::BlockVcpu { vcpu: v } => {
                    debug_assert_eq!(v, vcpu);
                    self.end_handle_span(vm, vcpu);
                    // Last-moment re-check: an interrupt queued while we
                    // were tearing down cancels the block (the kernel's
                    // lost-wakeup guard).
                    if !self.vms[vm.0].kvm.wfi_should_block(vcpu) {
                        self.set_cont(tid, ThreadCont::VcpuIssue { vm, vcpu });
                        return false; // begin_thread proceeds with the issue
                    }
                    self.set_cont(tid, ThreadCont::VcpuBlocked { vm, vcpu });
                    self.sched.block_current(core);
                    self.cores[core.index()].run = CoreRun::HostIdle;
                    self.dispatch(core);
                    return true;
                }
                HostAction::VcpuFinished { vcpu: v } => {
                    debug_assert_eq!(v, vcpu);
                    self.end_handle_span(vm, vcpu);
                    // The final shutdown exit never issues another run
                    // call, so close its round trip here (the tripwire
                    // would otherwise count it as leaked).
                    let span =
                        std::mem::take(&mut self.vms[vm.0].vcpus[vcpu as usize].roundtrip_span);
                    self.trace.end(span);
                    if self.vms[vm.0].kvm.all_finished() && self.vms[vm.0].finished.is_none() {
                        self.vms[vm.0].finished = Some(self.queue.now());
                    }
                    self.sched.exit_current(core);
                    // Reap the thread context (churn keeps the live-thread
                    // set bounded) and let the elastic machinery abandon
                    // any operation targeting this vanished vCPU.
                    self.threads.remove(&tid);
                    self.cores[core.index()].run = CoreRun::HostIdle;
                    self.on_vcpu_gone(vm, vcpu);
                    self.dispatch(core);
                    return true;
                }
                other => {
                    self.apply_host_action(vm, other);
                }
            }
        }
    }

    /// Applies a non-terminal, non-work host action.
    pub(crate) fn apply_host_action(&mut self, vm: VmId, action: HostAction) {
        match action {
            HostAction::VmmKick { device } => {
                // Find the device instance and wake its I/O thread.
                let io_thread = self.vms[vm.0]
                    .devices
                    .iter()
                    .find(|d| d.id == device)
                    .and_then(|d| d.io_thread);
                if let Some(t) = io_thread {
                    self.wake_thread_if_blocked(t);
                }
            }
            HostAction::ArmEmulTimer { vcpu, deadline } => {
                self.queue.schedule_at(
                    deadline.max(self.queue.now()),
                    SystemEvent::EmulTimerFire {
                        vm,
                        vcpu,
                        deadline_ns: deadline.as_nanos(),
                    },
                );
            }
            HostAction::KickVcpu { vcpu } => {
                let target_core = self.vms[vm.0].vcpus[vcpu as usize].core;
                self.metrics.counters.incr(Counter::HostKicks);
                self.queue.schedule_after(
                    self.config.machine.ipi_deliver,
                    SystemEvent::IpiArrive {
                        core: target_core,
                        intid: HOST_KICK_SGI,
                    },
                );
            }
            HostAction::UnblockVcpu { vcpu } => {
                let tid = self.vms[vm.0].vcpus[vcpu as usize].thread;
                if self.sched.is_blocked(tid) {
                    self.set_cont(tid, ThreadCont::VcpuIssue { vm, vcpu });
                    let (core, preempts) = self.sched.wake(tid);
                    self.after_wake(core, preempts);
                }
            }
            HostAction::MapShared { ipa } => {
                // Resolve the fault by mapping a shared page, creating
                // any missing RTT tables first (the loop KVM performs).
                // Transport costs are charged by the surrounding Work
                // actions; the state changes apply here.
                let realm = self.vms[vm.0].kvm.realm();
                if self.vms[vm.0].kvm.mode().is_confidential() {
                    let missing = self
                        .rmm
                        .realm(realm)
                        .map(|r| r.rtt().missing_levels(ipa))
                        .unwrap_or_default();
                    for level in missing {
                        let g = self.alloc_fixup_granule();
                        let out = self.rmm.handle_rmi(
                            CoreId(0),
                            cg_cca::RmiCall::GranuleDelegate { addr: g },
                            &mut self.machine,
                        );
                        debug_assert!(out.status.is_success());
                        let out = self.rmm.handle_rmi(
                            CoreId(0),
                            cg_cca::RmiCall::RttCreate {
                                realm,
                                rtt: g,
                                ipa,
                                level,
                            },
                            &mut self.machine,
                        );
                        debug_assert!(out.status.is_success(), "RTT_CREATE: {:?}", out.status);
                    }
                    let backing = self.alloc_fixup_granule();
                    let out = self.rmm.handle_rmi(
                        CoreId(0),
                        cg_cca::RmiCall::RttMapUnprotected {
                            realm,
                            ipa,
                            addr: backing,
                        },
                        &mut self.machine,
                    );
                    debug_assert!(out.status.is_success(), "MAP_UNPROTECTED: {:?}", out.status);
                    self.metrics.counters.incr(Counter::HostMapShared);
                }
            }
            HostAction::Work { .. }
            | HostAction::Resume { .. }
            | HostAction::BlockVcpu { .. }
            | HostAction::VcpuFinished { .. } => {
                unreachable!("terminal/work actions handled by the action loop")
            }
        }
    }

    /// Post-wake policy: FIFO preemption as the scheduler reports, plus
    /// CFS-style wakeup preemption of a fair-class guest running on the
    /// placement core (a freshly woken thread's vruntime is far behind,
    /// so CFS preempts the long-running vCPU thread).
    pub(crate) fn after_wake(&mut self, core: CoreId, preempts: bool) {
        if preempts {
            self.maybe_preempt(core);
        } else if let CoreRun::Guest { vm, .. } = self.cores[core.index()].run {
            if self.vms[vm.0].kvm.mode() != VmExecMode::CoreGapped {
                self.maybe_preempt(core);
            }
        }
        self.dispatch(core);
    }

    /// Allocates a fresh host granule for stage-2 fault fixups.
    fn alloc_fixup_granule(&mut self) -> cg_machine::GranuleAddr {
        let n = self.metrics.counters[Counter::HostFixupGranules];
        self.metrics.counters.incr(Counter::HostFixupGranules);
        cg_machine::GranuleAddr::new(0x20_0000_0000 + n * 4096).expect("aligned")
    }

    pub(crate) fn wake_thread_if_blocked(&mut self, tid: ThreadId) {
        if self.sched.is_blocked(tid) {
            // Restore the VMM I/O thread's active continuation.
            let cont = &mut self.threads.get_mut(&tid).expect("ctx").cont;
            if let ThreadCont::VmmIdle { vm, device } = cont {
                let (vm, device) = (*vm, *device);
                *cont = ThreadCont::VmmDrain {
                    vm,
                    device,
                    staged: None,
                };
            }
            let (core, preempts) = self.sched.wake(tid);
            self.after_wake(core, preempts);
        }
    }

    // ================= run-call transports =================

    fn complete_run_call_issue(&mut self, core: CoreId, tid: ThreadId, vm: VmId, vcpu: u32) {
        let now = self.queue.now();
        // Run-to-run latency: exit posted → next run call issued.
        if let Some(t) = self.vms[vm.0].vcpus[vcpu as usize].exit_posted_at.take() {
            self.metrics
                .run_to_run_hist
                .record(now.duration_since(t).as_micros_f64());
        }
        let span = std::mem::take(&mut self.vms[vm.0].vcpus[vcpu as usize].roundtrip_span);
        self.trace.end(span);
        let entry = self.vms[vm.0].kvm.take_entry(vcpu);
        self.vms[vm.0].kvm.mark_entered(vcpu);
        match self.vms[vm.0].kvm.mode() {
            VmExecMode::CoreGapped => {
                // The next call's request leg links under the exit
                // handling that produced it.
                let hctx = std::mem::take(&mut self.vms[vm.0].vcpus[vcpu as usize].handle_ctx);
                self.vms[vm.0].run_channels[vcpu as usize]
                    .post_request(RunMsg { entry }, now)
                    .expect("run channel busy on issue");
                self.vms[vm.0].run_channels[vcpu as usize].set_request_ctx(hctx);
                let visible = self.vms[vm.0].run_channels[vcpu as usize]
                    .request_visible_at(&self.config.machine)
                    .expect("just posted");
                let notice = visible + self.config.machine.poll_iteration / 2;
                let async_ipi = self.vms[vm.0].transport == RunTransport::AsyncIpi;
                // Hostile host: the dedicated core's poll notice can be
                // wedged mid-protocol. Injected only on the async
                // transport, where the client-side timeout exists to
                // recover it (busy-wait polls the channel itself).
                let wedged = async_ipi && self.fault.wedge_request();
                if wedged {
                    self.metrics.counters.incr(Counter::FaultRequestWedged);
                } else {
                    self.queue
                        .schedule_at(notice, SystemEvent::RunRequestVisible { vm, vcpu });
                }
                self.metrics.counters.incr(Counter::RpcRunCalls);
                {
                    let rt = &mut self.vms[vm.0].vcpus[vcpu as usize];
                    rt.call_seq += 1;
                    rt.call_attempt = 0;
                    rt.call_issued_at = Some(now);
                }
                if async_ipi && self.config.recovery.enabled {
                    let seq = self.vms[vm.0].vcpus[vcpu as usize].call_seq;
                    let timeout = self.config.recovery.retry_policy().timeout_for(0);
                    self.arm_call_timeout(vm, vcpu, seq, now + timeout, now);
                }
                match self.vms[vm.0].transport {
                    RunTransport::AsyncIpi => {
                        self.set_cont(tid, ThreadCont::VcpuAwait { vm, vcpu });
                        self.sched.block_current(core);
                        self.cores[core.index()].run = CoreRun::HostIdle;
                        self.dispatch(core);
                    }
                    RunTransport::BusyWait => {
                        self.set_cont(tid, ThreadCont::VcpuPoll { vm, vcpu });
                        self.begin_thread(core, tid);
                    }
                }
            }
            VmExecMode::SharedCore | VmExecMode::SharedCoreConfidential => {
                // Same-core entry: charge the entry cost, then enter.
                let mode = self.vms[vm.0].kvm.mode();
                let entry_cost = if mode == VmExecMode::SharedCoreConfidential {
                    // World switches into realm mode plus RMM restore.
                    let mut c = self.machine.world_switch(core, World::Root);
                    c += self.machine.world_switch(core, World::Realm);
                    c + self.config.machine.context_restore + self.config.machine.realm_enter
                } else {
                    self.config.machine.realm_enter
                };
                self.vms[vm.0].vcpus[vcpu as usize].pending_entry = Some(entry);
                self.set_cont(tid, ThreadCont::VcpuInGuest { vm, vcpu });
                self.threads.get_mut(&tid).expect("ctx").pending = entry_cost;
                self.begin_thread(core, tid);
            }
        }
    }

    /// Architecturally enters a shared-mode guest on `core` (the vCPU
    /// thread remains current).
    fn enter_shared_guest(&mut self, core: CoreId, vm: VmId, vcpu: u32) {
        let entry = self.vms[vm.0].vcpus[vcpu as usize]
            .pending_entry
            .take()
            .unwrap_or_default();
        match self.vms[vm.0].kvm.mode() {
            VmExecMode::SharedCoreConfidential => {
                let rec = self.vms[vm.0].kvm.rec(vcpu);
                let out = self.rmm.rec_enter_with_list(
                    core,
                    rec,
                    &entry.pending_interrupts,
                    &mut self.machine,
                );
                assert!(
                    out.status.is_success(),
                    "shared-core CVM entry failed: {:?}",
                    out.status
                );
            }
            VmExecMode::SharedCore => {
                for intid in entry.pending_interrupts {
                    self.machine.gic_mut().inject_virtual(core, intid);
                }
                let domain = Domain::Realm(self.vms[vm.0].kvm.realm());
                self.machine.cpu_mut(core).set_current_domain(Some(domain));
            }
            VmExecMode::CoreGapped => unreachable!("gapped guests enter via RPC"),
        }
        self.cores[core.index()].guest_slice_used = SimDuration::ZERO;
        self.cores[core.index()].run = CoreRun::Guest { vm, vcpu };
        self.advance_guest(core);
    }

    fn take_posted_exit(&mut self, vm: VmId, vcpu: u32) -> RecExit {
        match self.vms[vm.0].kvm.mode() {
            VmExecMode::CoreGapped => {
                let now = self.queue.now();
                let machine = self.config.machine.clone();
                let resp = self.vms[vm.0].run_channels[vcpu as usize]
                    .take_response(now, &machine)
                    .expect("exit response must be visible when handled");
                // The call completed: bump the sequence so any in-flight
                // timeout for it is recognised as stale, and cancel the
                // armed one outright. (Posting the response woke a
                // parked chain.)
                let timer = {
                    let rt = &mut self.vms[vm.0].vcpus[vcpu as usize];
                    rt.call_seq += 1;
                    rt.call_attempt = 0;
                    rt.call_issued_at = None;
                    std::mem::take(&mut rt.call_timer)
                };
                debug_assert!(
                    !matches!(timer, CallTimer::Parked { .. }),
                    "{vm}.vcpu{vcpu}: call timeout still parked at its response"
                );
                if let CallTimer::Armed { token, .. } = timer {
                    self.queue.cancel(token);
                }
                resp
            }
            _ => self.vms[vm.0].vcpus[vcpu as usize]
                .pending_exit
                .take()
                .expect("shared-mode exit stored before handling"),
        }
    }

    /// The vCPUs whose exit is posted, visible, and whose thread still
    /// awaits it — the set the wake-up thread's scan will wake.
    pub(crate) fn wakeup_scan_candidates(&self, now: cg_sim::SimTime) -> Vec<(usize, u32)> {
        let machine = &self.config.machine;
        let mut candidates = Vec::new();
        for vm_idx in 0..self.vms.len() {
            for vcpu in 0..self.vms[vm_idx].kvm.num_vcpus() {
                let ch = &self.vms[vm_idx].run_channels[vcpu as usize];
                let visible = ch.has_response()
                    && ch
                        .response_visible_at(machine)
                        .map(|t| t <= now)
                        .unwrap_or(false);
                if !visible {
                    continue;
                }
                let vtid = self.vms[vm_idx].vcpus[vcpu as usize].thread;
                let awaiting = matches!(
                    self.threads.get(&vtid).map(|c| &c.cont),
                    Some(ThreadCont::VcpuAwait { .. })
                );
                if awaiting && self.sched.is_blocked(vtid) {
                    candidates.push((vm_idx, vcpu));
                }
            }
        }
        candidates
    }

    fn complete_wakeup_scan(&mut self, core: CoreId, tid: ThreadId) {
        let now = self.queue.now();
        // Find all posted-and-visible exits whose threads still await.
        let mut candidates = self.wakeup_scan_candidates(now);
        // The scan span links into the first woken request's trace (one
        // scan can wake several; the rest stay linked through their own
        // response legs). With no candidates it degrades to the plain
        // untraced span.
        let scan_ctx = candidates
            .first()
            .map(|&(vm_idx, vcpu)| self.vms[vm_idx].run_channels[vcpu as usize].response_ctx())
            .unwrap_or(TraceCtx::NULL);
        self.trace.record_span_child(
            cg_sim::SpanKind::WakeupScan,
            Some(core.0),
            None,
            None,
            self.cores[core.index()].seg_started,
            now,
            scan_ctx,
        );
        if self.config.inject_wakeup_nondeterminism {
            // Test-only fault injection: launder the candidate list
            // through a HashMap, whose iteration order depends on the
            // per-instance RandomState — two same-seed runs in the same
            // process will wake vCPUs in different orders whenever more
            // than one exit is visible. The trace records below make the
            // resulting divergence diagnosable.
            let map: std::collections::HashMap<(usize, u32), ()> =
                candidates.iter().map(|&c| (c, ())).collect();
            candidates = map.into_keys().collect();
        }
        // Record the scan order itself: if it ever differs between two
        // same-seed runs, TraceDiff flags this record as the first
        // divergence rather than some distant downstream effect.
        self.trace
            .record(cg_sim::TraceKind::Sched, Some(core.0), || {
                format!("wakeup.scan candidates={candidates:?}")
            });
        let mut woken = 0u64;
        for (vm_idx, vcpu) in candidates {
            let vtid = self.vms[vm_idx].vcpus[vcpu as usize].thread;
            // The thread leaves `VcpuAwait`: later fires find it gone.
            self.wake_call_timeout(VmId(vm_idx), vcpu);
            self.set_cont(
                vtid,
                ThreadCont::VcpuHandleExit {
                    vm: VmId(vm_idx),
                    vcpu,
                },
            );
            let (wcore, preempts) = self.sched.wake(vtid);
            woken += 1;
            if preempts {
                self.maybe_preempt(wcore);
            }
            // (No dispatch here: the wake-up thread holds this
            // core; woken vCPU threads run when it suspends.)
        }
        let w = self.planes[PlaneId::Exit].thread_mut();
        w.record_work(woken);
        let rescan = !w.try_suspend();
        self.next_plane_pass(PlaneId::Exit, core, tid, rescan);
    }

    // ================= doorbell planes (fig. 4) =================

    /// Activates plane `id`'s thread on its doorbell IPI, on host-side
    /// work, or — with `by_watchdog` — on a watchdog rescan that found
    /// work stranded behind a lost doorbell. A doorbell while the
    /// thread is active coalesces into one extra scan pass.
    pub(crate) fn activate_plane(&mut self, id: PlaneId, by_watchdog: bool) {
        let plane = &mut self.planes[id];
        let Some(thread) = &mut plane.thread else {
            return;
        };
        let woken = if by_watchdog {
            thread.on_watchdog()
        } else {
            thread.on_doorbell()
        };
        if woken {
            let (tid, busy) = (thread.thread(), plane.busy.clone());
            self.set_cont(tid, busy);
            let (wcore, preempts) = self.sched.wake(tid);
            self.after_wake(wcore, preempts);
        }
    }

    /// Rings plane `id`'s doorbell: a latch write plus a cross-core IPI,
    /// coalescing against a pending ring. The hostile host can drop the
    /// IPI after the latch is set (the hole the watchdog closes) and
    /// delay the exit doorbell's delivery.
    pub(crate) fn ring_plane(&mut self, id: PlaneId) {
        let now = self.queue.now();
        let plane = &mut self.planes[id];
        let [rings, ipis] = plane.ring_counters;
        self.metrics.counters.incr(rings);
        if !plane.doorbell.ring() {
            return;
        }
        // Stamp the latch write. The stamp is host-visible state (the
        // latch line itself), so it is written whether or not the IPI
        // survives.
        plane.rung_at = Some(now);
        let (core, intid) = (plane.doorbell.target(), plane.sgi);
        if self.fault.drop_doorbell() {
            // Lost after the latch was set: every later ring coalesces
            // against a pending bit nobody acknowledges until the
            // watchdog (or, for the exit plane, the call timeout)
            // heals it.
            self.metrics.counters.incr(Counter::FaultDoorbellDropped);
            return;
        }
        self.metrics.counters.incr(ipis);
        let mut delay = self.config.machine.mailbox_write + self.config.machine.ipi_deliver;
        if id == PlaneId::Exit {
            if let Some(d) = self.fault.doorbell_delay() {
                self.metrics.counters.incr(Counter::FaultDoorbellDelayed);
                delay += d;
            }
        }
        self.queue
            .schedule_after(delay, SystemEvent::IpiArrive { core, intid });
    }

    /// Starts the next scan pass of plane `id`'s thread on `core` when
    /// `rescan`, or parks the thread until its next doorbell.
    fn next_plane_pass(&mut self, id: PlaneId, core: CoreId, tid: ThreadId, rescan: bool) {
        if rescan {
            self.set_cont(tid, self.planes[id].busy.clone());
            self.begin_thread(core, tid);
        } else {
            self.set_cont(tid, self.planes[id].idle.clone());
            self.sched.block_current(core);
            self.cores[core.index()].run = CoreRun::HostIdle;
            self.dispatch(core);
        }
    }

    /// One poll pass over every fast-path ring: drains published
    /// descriptors into a staged backend batch (whose segment's
    /// completion applies the effects), or re-arms notifications and
    /// suspends when every ring is dry.
    fn complete_io_poll(&mut self, core: CoreId, tid: ThreadId) {
        let now = self.queue.now();
        self.trace.record_span_child(
            cg_sim::SpanKind::IoPoll,
            Some(core.0),
            None,
            None,
            self.cores[core.index()].seg_started,
            now,
            TraceCtx::NULL,
        );
        self.metrics.counters.incr(Counter::IoPolls);
        let host = self.config.host.clone();
        let mut staged: Vec<StagedIo> = Vec::new();
        let mut cost = SimDuration::ZERO;
        for vm_idx in 0..self.vms.len() {
            for di in 0..self.vms[vm_idx].devices.len() {
                if !self.vms[vm_idx].devices[di].fastpath() {
                    continue;
                }
                let kind = self.vms[vm_idx].devices[di].kind;
                // Inbound first (mirrors the legacy drain priority):
                // move waiting packets into guest-posted rx buffers.
                loop {
                    let d = &mut self.vms[vm_idx].devices[di];
                    if d.rx_pending.is_empty() || d.queues[0].rx.pop_avail().is_none() {
                        break;
                    }
                    let (bytes, flow) = d.rx_pending.pop_front().expect("checked non-empty");
                    cost += host.virtio_net_packet_cost(bytes);
                    staged.push(StagedIo {
                        vm: VmId(vm_idx),
                        device: di as u32,
                        vcpu: 0,
                        effect: VmmEffect::RxToGuest { bytes, flow },
                        ctx: TraceCtx::NULL,
                    });
                }
                // Submissions, per queue pair in vCPU order.
                for q in 0..self.vms[vm_idx].devices[di].queues.len() {
                    let batch = self.vms[vm_idx].devices[di].queues[q].tx.pop_avail_batch();
                    for d in batch {
                        let eff = match kind {
                            DeviceKind::VirtioBlk => {
                                cost += host.virtio_blk_request_cost(d.bytes);
                                let service = host.disk_latency + host.disk_transfer(d.bytes);
                                VmmEffect::DiskSubmit {
                                    tag: d.cookie,
                                    service_ns: service.as_nanos(),
                                }
                            }
                            _ => {
                                cost += host.virtio_net_packet_cost(d.bytes);
                                VmmEffect::TxToWire {
                                    bytes: d.bytes,
                                    flow: d.cookie,
                                }
                            }
                        };
                        staged.push(StagedIo {
                            vm: VmId(vm_idx),
                            device: di as u32,
                            vcpu: q as u32,
                            effect: eff,
                            ctx: d.ctx,
                        });
                    }
                }
            }
        }
        if staged.is_empty() {
            // Every ring dry: re-arm notifications (exactly one kick per
            // queue will wake us) and try to suspend.
            self.metrics.counters.incr(Counter::IoPollEmpty);
            for vm in &mut self.vms {
                for d in &mut vm.devices {
                    for pair in &mut d.queues {
                        pair.tx.enable_kicks();
                        pair.rx.enable_kicks();
                    }
                }
            }
            let mut rescan = !self.planes[PlaneId::Io].thread_mut().try_suspend();
            // Re-check after arm: a kick published between the final
            // poll's ring reads and the suspend commit would otherwise
            // strand until the watchdog grace period. Notifications are
            // armed above, so anything that slipped in is visible now —
            // take one more pass instead of sleeping on it.
            if !rescan && self.fastpath_work_pending() {
                self.metrics.counters.incr(Counter::IoSuspendRaces);
                // Flip straight back to Active.
                self.planes[PlaneId::Io].thread_mut().on_doorbell();
                rescan = true;
            }
            self.next_plane_pass(PlaneId::Io, core, tid, rescan);
        } else {
            let io = self.planes[PlaneId::Io].thread_mut();
            io.record_work(staged.len() as u64);
            let ctx = self.threads.get_mut(&tid).expect("ctx");
            ctx.cont = ThreadCont::IoBackend { staged };
            ctx.pending = cost;
            self.begin_thread(core, tid);
        }
    }

    /// Applies one staged I/O-plane effect: wire/disk scheduling plus
    /// the used-ring completion and its (possibly suppressed) delegated
    /// interrupt.
    fn apply_io_effect(
        &mut self,
        vm: VmId,
        device: u32,
        vcpu: u32,
        effect: VmmEffect,
        ctx: TraceCtx,
    ) {
        let host = self.config.host.clone();
        match effect {
            VmmEffect::TxToWire { bytes, flow } => {
                let delay = host.nic_serialize(bytes) + host.nic_wire_latency;
                self.queue.schedule_after(
                    delay,
                    SystemEvent::WireToPeer {
                        vm,
                        pkt: PeerPacket { bytes, flow },
                    },
                );
                // Recycle the descriptor: the guest frees the buffer at
                // its next completion interrupt.
                self.post_fastpath_completion(
                    vm,
                    device,
                    vcpu,
                    false,
                    cg_virtio::Descriptor::net(bytes, flow).with_ctx(ctx),
                );
            }
            VmmEffect::DiskSubmit { tag, service_ns } => {
                self.queue.schedule_after(
                    SimDuration::nanos(service_ns),
                    SystemEvent::DiskDone {
                        vm,
                        device,
                        tag,
                        ctx,
                    },
                );
            }
            VmmEffect::RxToGuest { bytes, flow } => {
                self.post_fastpath_completion(
                    vm,
                    device,
                    0,
                    true,
                    cg_virtio::Descriptor::net(bytes, flow).with_ctx(ctx),
                );
            }
        }
    }

    /// Posts a used-ring entry on `vcpu`'s (tx or rx) queue and raises
    /// the delegated completion interrupt at that vCPU's dedicated core
    /// — unless EVENT_IDX suppresses it, or the fault plan eats it after
    /// the used-ring post (the stranded completion the I/O watchdog's
    /// rescan heals).
    pub(crate) fn post_fastpath_completion(
        &mut self,
        vm: VmId,
        device: u32,
        vcpu: u32,
        rx: bool,
        d: cg_virtio::Descriptor,
    ) {
        let now = self.queue.now();
        self.metrics.counters.incr(Counter::VirtioCompletions);
        // Zero-length marker: completion posting is event-edge work; its
        // CPU cost is part of the backend segment already charged. The
        // returned ctx re-parents the rest of this completion's causal
        // chain (used-ring drain + interrupt delivery) under this span.
        let realm = self.vms[vm.0].kvm.realm().0;
        let ctx = self.trace.record_span_child(
            cg_sim::SpanKind::VirtioComplete,
            None,
            Some(realm),
            Some(vcpu),
            now,
            now,
            d.ctx,
        );
        let irq = {
            let dev = &mut self.vms[vm.0].devices[device as usize];
            let pair = &mut dev.queues[vcpu as usize];
            let q = if rx { &mut pair.rx } else { &mut pair.tx };
            q.push_used(d.with_ctx(ctx));
            let irq = q.should_interrupt();
            if dev.completion_posted_at.is_none() {
                dev.completion_posted_at = Some(now);
            }
            irq
        };
        if !irq {
            self.metrics.counters.incr(Counter::VirtioIrqsSuppressed);
            return;
        }
        if self.fault.drop_completion_irq() {
            // Lost after the used-ring post: the completion is visible
            // in shared memory but nobody announces it.
            self.metrics
                .counters
                .incr(Counter::FaultCompletionIrqDropped);
            return;
        }
        self.metrics.counters.incr(Counter::VirtioIrqs);
        let target = self.vms[vm.0].vcpus[vcpu as usize].core;
        self.queue.schedule_after(
            self.config.machine.device_irq_deliver,
            SystemEvent::DeviceIrqArrive {
                core: target,
                vm,
                device,
                ctx,
            },
        );
    }

    /// Any fast-path device with published submissions, or deliverable
    /// inbound packets with a posted rx buffer to land in?
    pub(crate) fn fastpath_work_pending(&self) -> bool {
        self.vms.iter().flat_map(|vm| vm.devices.iter()).any(|d| {
            d.fastpath()
                && (d.queues.iter().any(|p| p.tx.avail_len() > 0)
                    || (!d.rx_pending.is_empty() && d.queues[0].rx.avail_len() > 0))
        })
    }

    // ================= VMM I/O =================

    /// Picks the next emulation item for the VMM thread. Returns `true`
    /// if the thread blocked (no work).
    fn begin_vmm_drain(&mut self, core: CoreId, tid: ThreadId) -> bool {
        let (vm, device) = {
            let ctx = self.threads.get(&tid).expect("ctx");
            let ThreadCont::VmmDrain { vm, device, staged } = &ctx.cont else {
                unreachable!("begin_vmm_drain on wrong cont")
            };
            debug_assert!(staged.is_none());
            (*vm, *device)
        };
        let host = self.config.host.clone();
        let dev_id = self.vms[vm.0].devices[device as usize].id;

        // Priority: rx emulation, then tx, then disk.
        if let Some((bytes, flow)) = self.vms[vm.0].devices[device as usize]
            .rx_pending
            .pop_front()
        {
            let cost = {
                let vmm = &mut self.vms[vm.0].vmm;
                vmm.emulate_rx(dev_id, cg_host::NetPacket { bytes, flow }, &host)
            };
            let ctx = self.threads.get_mut(&tid).expect("ctx");
            ctx.cont = ThreadCont::VmmDrain {
                vm,
                device,
                staged: Some(VmmEffect::RxToGuest { bytes, flow }),
            };
            ctx.pending = cost;
            return false;
        }
        if let Some((pkt, cost)) = self.vms[vm.0].vmm.emulate_tx(dev_id, &host) {
            let ctx = self.threads.get_mut(&tid).expect("ctx");
            ctx.cont = ThreadCont::VmmDrain {
                vm,
                device,
                staged: Some(VmmEffect::TxToWire {
                    bytes: pkt.bytes,
                    flow: pkt.flow,
                }),
            };
            ctx.pending = cost;
            return false;
        }
        if let Some((req, cpu, service)) = self.vms[vm.0].vmm.emulate_disk(dev_id, &host) {
            let ctx = self.threads.get_mut(&tid).expect("ctx");
            ctx.cont = ThreadCont::VmmDrain {
                vm,
                device,
                staged: Some(VmmEffect::DiskSubmit {
                    tag: req.tag,
                    service_ns: service.as_nanos(),
                }),
            };
            ctx.pending = cpu;
            return false;
        }
        // Nothing to do: idle.
        self.set_cont(tid, ThreadCont::VmmIdle { vm, device });
        self.sched.block_current(core);
        self.cores[core.index()].run = CoreRun::HostIdle;
        self.dispatch(core);
        true
    }

    fn apply_vmm_effect(&mut self, vm: VmId, device: u32, effect: VmmEffect) {
        let host = self.config.host.clone();
        match effect {
            VmmEffect::TxToWire { bytes, flow } => {
                let delay = host.nic_serialize(bytes) + host.nic_wire_latency;
                self.queue.schedule_after(
                    delay,
                    SystemEvent::WireToPeer {
                        vm,
                        pkt: PeerPacket { bytes, flow },
                    },
                );
            }
            VmmEffect::DiskSubmit { tag, service_ns } => {
                self.queue.schedule_after(
                    SimDuration::nanos(service_ns),
                    SystemEvent::DiskDone {
                        vm,
                        device,
                        tag,
                        ctx: TraceCtx::NULL,
                    },
                );
            }
            VmmEffect::RxToGuest { bytes, flow } => {
                self.deliver_rx_to_guest(vm, device, bytes, flow);
            }
        }
    }

    /// Delivers an inbound packet to the guest: NAPI-style direct
    /// delivery if the target vCPU is actively running, the interrupt
    /// path otherwise.
    pub(crate) fn deliver_rx_to_guest(&mut self, vm: VmId, device: u32, bytes: u64, flow: u64) {
        let now = self.queue.now();
        let vcpu = 0u32; // network queues target vCPU 0 in all workloads
        let core = self.vms[vm.0].vcpus[vcpu as usize].core;
        let running = self.cores[core.index()].run == CoreRun::Guest { vm, vcpu };
        if self.config.napi && running {
            // NAPI: the payload is already in guest memory (DMA); the
            // busy guest picks it up by polling, no injection needed.
            // The guest program changes mid-unit, so no unit planned
            // past the one in flight can stand.
            self.cut_run_ahead(core);
            self.metrics.counters.incr(Counter::NetNapiRx);
            self.vms[vm.0].guest.on_irq(
                vcpu,
                GuestIrq::NetRx {
                    device,
                    bytes,
                    flow,
                },
                now,
            );
        } else {
            // Interrupt path: the payload waits in the inbox until the
            // completion SPI gets the guest's attention.
            self.vms[vm.0].devices[device as usize]
                .rx_inbox
                .push_back((bytes, flow));
        }
        // Either way the VF raises its *physical* interrupt at the routed
        // core (with 2:1 adaptive moderation under NAPI-suppressed load).
        // Under core gapping that is the (separate) host core; in shared
        // mode it is a guest core — the stealing and forced exits this
        // causes are the host interference core gapping removes.
        let d = &mut self.vms[vm.0].devices[device as usize];
        d.rx_count += 1;
        let must_inject = !d.rx_inbox.is_empty();
        let moderated = d.rx_count.is_multiple_of(2);
        if must_inject || moderated {
            let spi = self.vms[vm.0].devices[device as usize].spi;
            let route = self.machine.gic().spi_route(spi);
            self.queue.schedule_after(
                self.config.machine.device_irq_deliver,
                SystemEvent::DeviceIrqArrive {
                    core: route,
                    vm,
                    device,
                    ctx: TraceCtx::NULL,
                },
            );
        }
    }

    // ================= guest driving =================

    /// Drives the guest running on `core`: delivers staged virtual
    /// interrupts, gets the next op, and starts exactly one segment (or
    /// transitions to WFI idle / exit).
    pub(crate) fn advance_guest(&mut self, core: CoreId) {
        let CoreRun::Guest { vm, vcpu } = self.cores[core.index()].run else {
            unreachable!("advance_guest on non-guest core")
        };
        let now = self.queue.now();

        // Pending *physical* interrupt (raised while another segment was
        // in flight)?
        if let Some(intid) = self.machine.gic().next_pending(core) {
            self.machine.gic_mut().rescind(core, intid);
            self.handle_guest_phys_irq(core, vm, vcpu, intid);
            return;
        }

        // Deliver staged virtual interrupts to the guest.
        while let Some(vintid) = self.machine.gic().next_virtual_pending(core) {
            self.machine.gic_mut().virtual_ack(core, vintid);
            self.machine.gic_mut().virtual_eoi(core, vintid);
            self.deliver_virq(vm, vcpu, vintid, now);
        }

        // Continue an interrupted compute op, or fetch the next op.
        let (op, remaining) = match self.vms[vm.0].cur_op[vcpu as usize].take() {
            Some((op, remaining)) => (op, remaining),
            None => {
                let op = self.vms[vm.0].guest.next_op(vcpu, now);
                let work = match op {
                    GuestOp::Compute { work } | GuestOp::SecretCompute { work, .. } => work,
                    _ => SimDuration::ZERO,
                };
                (op, work)
            }
        };
        self.execute_guest_op(core, vm, vcpu, op, remaining);
    }

    fn deliver_virq(&mut self, vm: VmId, vcpu: u32, vintid: IntId, now: SimTime) {
        if vintid == IntId::VTIMER {
            self.vms[vm.0].guest.on_irq(vcpu, GuestIrq::Tick, now);
        } else if vintid.is_sgi() {
            // Virtual IPI acknowledged: table 3 sample.
            if let Some(t) = self.vms[vm.0].vcpus[vcpu as usize].vipi_sent_at.take() {
                self.metrics
                    .vipi_latency_hist
                    .record(now.duration_since(t).as_micros_f64());
            }
            self.vms[vm.0]
                .guest
                .on_irq(vcpu, GuestIrq::Ipi { sgi: vintid.0 }, now);
        } else if vintid.is_spi() {
            if self.deliver_ivc_virq(vm, vcpu, vintid, now) {
                return;
            }
            // Find the device and drain its queues.
            let dev_idx = self.vms[vm.0]
                .devices
                .iter()
                .position(|d| IntId::spi(d.spi) == vintid);
            if let Some(di) = dev_idx {
                self.vms[vm.0].devices[di].pending_notify = 0;
                if self.vms[vm.0].devices[di].fastpath() {
                    self.drain_fastpath_used(vm, vcpu, di, now);
                }
                loop {
                    let item = self.vms[vm.0].devices[di].rx_inbox.pop_front();
                    match item {
                        Some((bytes, flow)) => self.vms[vm.0].guest.on_irq(
                            vcpu,
                            GuestIrq::NetRx {
                                device: di as u32,
                                bytes,
                                flow,
                            },
                            now,
                        ),
                        None => break,
                    }
                }
                // Disk completions are delivered only to the vCPU taking
                // the interrupt: other vCPUs' completions stay queued for
                // *their* interrupts (each owner was kicked separately).
                let owned: Vec<u64> = {
                    let d = &self.vms[vm.0].devices[di];
                    d.done_queue
                        .iter()
                        .copied()
                        .filter(|t| d.tag_owner.get(t) == Some(&vcpu))
                        .collect()
                };
                for tag in owned {
                    let d = &mut self.vms[vm.0].devices[di];
                    d.done_queue.retain(|t| *t != tag);
                    d.tag_owner.remove(&tag);
                    self.vms[vm.0].guest.on_irq(
                        vcpu,
                        GuestIrq::DiskDone {
                            device: di as u32,
                            tag,
                        },
                        now,
                    );
                }
            }
        }
    }

    /// Guest-side drain of an inter-CVM channel ring when its doorbell
    /// SPI reaches the consumer. Returns `true` if `vintid` belonged to
    /// a channel this (vm, vcpu) is an endpoint of; every buffered
    /// message becomes a [`GuestIrq::IvcRecv`] and the ring is re-armed
    /// so the producer's next publish rings again.
    fn deliver_ivc_virq(&mut self, vm: VmId, vcpu: u32, vintid: IntId, now: SimTime) -> bool {
        let Some(slot) = self
            .ivc
            .iter()
            .position(|c| IntId::spi(c.spi) == vintid)
            .filter(|&i| self.ivc[i].dir_to_mut(vm, vcpu).is_some())
        else {
            return false;
        };
        let channel = self.ivc[slot].channel;
        let msgs = {
            let dir = self.ivc[slot].dir_to_mut(vm, vcpu).expect("checked above");
            let msgs = dir.ring.drain();
            dir.ring.arm();
            dir.published_at = None;
            msgs
        };
        if !msgs.is_empty() {
            self.metrics
                .counters
                .add(Counter::IvcMessagesDrained, msgs.len() as u64);
            let realm = self.vms[vm.0].kvm.realm();
            let core = self.vms[vm.0].vcpus[vcpu as usize].core;
            // One drain marker per doorbell, linked to the oldest
            // message's trace (the request the doorbell was rung for).
            let drain_ctx = msgs.first().map(|m| m.ctx).unwrap_or(TraceCtx::NULL);
            self.trace.record_span_child(
                cg_sim::SpanKind::IvcDrain,
                Some(core.0),
                Some(realm.0),
                Some(vcpu),
                now,
                now,
                drain_ctx,
            );
        }
        for m in msgs {
            self.vms[vm.0].guest.on_irq(
                vcpu,
                GuestIrq::IvcRecv {
                    channel,
                    bytes: m.bytes,
                    seq: m.seq,
                },
                now,
            );
        }
        true
    }

    /// Pick where a host-forged (misrouted) IVC doorbell lands: the
    /// first core running (or idling) a guest vCPU that is *not* an
    /// endpoint of `channel` — the attack the RMM's per-channel
    /// endpoint check must defeat. Falls back to the nominal target so
    /// a forge with no third party degenerates to a plain delivery.
    fn forged_doorbell_target(&self, channel: u32, nominal: CoreId) -> Option<CoreId> {
        let ch = self.ivc.iter().find(|c| c.channel == channel)?;
        let is_endpoint = |vm: VmId, vcpu: u32| {
            let ep = (vm, vcpu);
            ch.a_to_b.from == ep || ch.a_to_b.to == ep || ch.b_to_a.from == ep || ch.b_to_a.to == ep
        };
        for (i, c) in self.cores.iter().enumerate() {
            match c.run {
                CoreRun::Guest { vm, vcpu } | CoreRun::GuestWfi { vm, vcpu }
                    if !is_endpoint(vm, vcpu) =>
                {
                    return Some(CoreId(i as u16));
                }
                _ => {}
            }
        }
        Some(nominal)
    }

    /// Records the guest-side drain hop for one traced used-ring entry:
    /// a zero-length [`cg_sim::SpanKind::VirtioDrain`] child closing the
    /// request's causal chain. Untraced entries record nothing (the
    /// drain is part of the exit segment).
    fn record_fastpath_drain(
        &mut self,
        ctx: TraceCtx,
        core: CoreId,
        realm: u32,
        vcpu: u32,
        now: SimTime,
    ) {
        if ctx.is_null() {
            return;
        }
        self.trace.record_span_child(
            cg_sim::SpanKind::VirtioDrain,
            Some(core.0),
            Some(realm),
            Some(vcpu),
            now,
            now,
            ctx,
        );
    }

    /// Guest-side drain of `vcpu`'s used rings on a delegated completion
    /// interrupt: disk completions and rx payloads become guest events,
    /// net tx recycles free their buffers, and consumed rx buffers are
    /// re-posted (with a replenish kick only if the device is actually
    /// waiting for buffers).
    fn drain_fastpath_used(&mut self, vm: VmId, vcpu: u32, di: usize, now: SimTime) {
        let kind = self.vms[vm.0].devices[di].kind;
        if (vcpu as usize) >= self.vms[vm.0].devices[di].queues.len() {
            return;
        }
        let guest_core = self.vms[vm.0].vcpus[vcpu as usize].core;
        let realm = self.vms[vm.0].kvm.realm().0;
        let used_tx = self.vms[vm.0].devices[di].queues[vcpu as usize]
            .tx
            .consume_used();
        for d in used_tx {
            self.record_fastpath_drain(d.ctx, guest_core, realm, vcpu, now);
            if kind == DeviceKind::VirtioBlk {
                self.vms[vm.0].devices[di].tag_owner.remove(&d.cookie);
                self.vms[vm.0].guest.on_irq(
                    vcpu,
                    GuestIrq::DiskDone {
                        device: di as u32,
                        tag: d.cookie,
                    },
                    now,
                );
            }
            // Net tx recycle: the buffer is simply freed.
        }
        let used_rx = self.vms[vm.0].devices[di].queues[vcpu as usize]
            .rx
            .consume_used();
        let n_rx = used_rx.len();
        for d in used_rx {
            self.record_fastpath_drain(d.ctx, guest_core, realm, vcpu, now);
            self.vms[vm.0].guest.on_irq(
                vcpu,
                GuestIrq::NetRx {
                    device: di as u32,
                    bytes: d.bytes,
                    flow: d.cookie,
                },
                now,
            );
        }
        if n_rx > 0 {
            // Replenish the consumed rx buffers, kicking only if packets
            // are queued behind the buffer shortage.
            let waiting = !self.vms[vm.0].devices[di].rx_pending.is_empty();
            let pair = &mut self.vms[vm.0].devices[di].queues[vcpu as usize];
            for _ in 0..n_rx {
                let _ = pair.rx.push(cg_virtio::Descriptor {
                    bytes: 0,
                    cookie: 0,
                    is_write: true,
                    ctx: TraceCtx::NULL,
                });
            }
            if pair.rx.should_kick() && waiting {
                self.ring_plane(PlaneId::Io);
            }
        }
        // Every completion picked up? Clear the watchdog stamp.
        let drained = self.vms[vm.0].devices[di]
            .queues
            .iter()
            .all(|p| p.tx.used_len() == 0 && p.rx.used_len() == 0);
        if drained {
            self.vms[vm.0].devices[di].completion_posted_at = None;
        }
    }

    fn execute_guest_op(
        &mut self,
        core: CoreId,
        vm: VmId,
        vcpu: u32,
        op: GuestOp,
        remaining: SimDuration,
    ) {
        let mode = self.vms[vm.0].kvm.mode();
        let hw = self.config.machine.clone();
        let domain = Domain::Realm(self.vms[vm.0].kvm.realm());
        match op {
            GuestOp::Compute { .. } => {
                let wall = self.machine.run_compute(core, domain, remaining);
                self.start_compute_segment(core, vm, vcpu, op, remaining, wall, mode);
            }
            GuestOp::SecretCompute { secret, .. } => {
                let wall = self
                    .machine
                    .run_secret_compute(core, domain, secret, remaining);
                self.start_compute_segment(core, vm, vcpu, op, remaining, wall, mode);
            }
            GuestOp::ProgramTick { deadline } => {
                let deadline = deadline.max(self.queue.now() + SimDuration::nanos(1));
                if mode.is_confidential() {
                    let disp = self.guest_event_disposition(
                        core,
                        vm,
                        vcpu,
                        GuestEvent::TimerProgram { deadline },
                    );
                    match disp {
                        Disposition::Resume { cost } => {
                            self.arm_phys_timer(core, deadline);
                            self.start_guest_segment(
                                core,
                                cost,
                                SimDuration::ZERO,
                                GuestCont::OpDone,
                            );
                        }
                        Disposition::ExitToHost { mut exit, cost } => {
                            exit.gprs[0] = deadline.as_nanos();
                            self.start_guest_exit(core, vm, vcpu, exit, cost);
                        }
                        other => unreachable!("timer program disposition {other:?}"),
                    }
                } else {
                    // Hardware vtimer: no exit.
                    self.arm_phys_timer(core, deadline);
                    self.start_guest_segment(
                        core,
                        hw.timer_program + SimDuration::nanos(100),
                        SimDuration::ZERO,
                        GuestCont::OpDone,
                    );
                }
            }
            GuestOp::SendIpi { target, sgi } => {
                // Start the table-3 latency clock on the target.
                if (target as usize) < self.vms[vm.0].vcpus.len() {
                    self.vms[vm.0].vcpus[target as usize].vipi_sent_at = Some(self.queue.now());
                }
                if mode.is_confidential() {
                    let disp = self.guest_event_disposition(
                        core,
                        vm,
                        vcpu,
                        GuestEvent::SendIpi {
                            target_index: target,
                            sgi,
                        },
                    );
                    match disp {
                        Disposition::Resume { cost } => self.start_guest_segment(
                            core,
                            cost,
                            SimDuration::ZERO,
                            GuestCont::OpDone,
                        ),
                        Disposition::ResumeWithIpi { target_core, cost } => self
                            .start_guest_segment(
                                core,
                                cost,
                                SimDuration::ZERO,
                                GuestCont::IpiSendDone { target_core },
                            ),
                        Disposition::ExitToHost { mut exit, cost } => {
                            exit.gprs[0] = target as u64;
                            exit.gprs[1] = sgi as u64;
                            self.start_guest_exit(core, vm, vcpu, exit, cost);
                        }
                        other => unreachable!("ipi disposition {other:?}"),
                    }
                } else {
                    // Non-confidential: ICC_SGI1R traps to KVM on the
                    // same core (table 3's shared-core row).
                    let host = self.config.host.clone();
                    let cost = hw.realm_exit_trap + host.ipi_emulate + hw.realm_enter;
                    let actions = self.vms[vm.0]
                        .kvm
                        .queue_irq(target, IntId::sgi(sgi.min(15)))
                        .into_iter()
                        .collect::<Vec<_>>();
                    self.start_guest_segment(
                        core,
                        cost,
                        SimDuration::ZERO,
                        GuestCont::OpDoneActions(actions),
                    );
                }
            }
            GuestOp::Wfi => {
                if mode.is_confidential() {
                    let disp = self.guest_event_disposition(core, vm, vcpu, GuestEvent::Wfi);
                    match disp {
                        Disposition::Resume { cost } => self.start_guest_segment(
                            core,
                            cost,
                            SimDuration::ZERO,
                            GuestCont::OpDone,
                        ),
                        Disposition::Idle { .. } => {
                            self.cores[core.index()].run = CoreRun::GuestWfi { vm, vcpu };
                        }
                        Disposition::ExitToHost { exit, cost } => {
                            self.start_guest_exit(core, vm, vcpu, exit, cost)
                        }
                        other => unreachable!("wfi disposition {other:?}"),
                    }
                } else {
                    // Non-confidential: WFI with pending interrupts
                    // falls through, otherwise traps.
                    if self.machine.gic().next_virtual_pending(core).is_some() {
                        self.start_guest_segment(
                            core,
                            SimDuration::nanos(50),
                            SimDuration::ZERO,
                            GuestCont::OpDone,
                        );
                    } else {
                        let exit = RecExit::new(RecExitReason::Wfi);
                        self.start_guest_exit(core, vm, vcpu, exit, hw.realm_exit_trap);
                    }
                }
            }
            GuestOp::NetSend {
                device,
                bytes,
                flow,
            } => {
                let kind = self.vms[vm.0].devices[device as usize].kind;
                match kind {
                    DeviceKind::SriovNic => {
                        // Direct descriptor write: no exit.
                        self.metrics.counters.incr(Counter::NetSriovTx);
                        self.start_guest_segment(
                            core,
                            SimDuration::nanos(400),
                            SimDuration::ZERO,
                            GuestCont::NetTxDirect { bytes, flow },
                        );
                    }
                    _ => {
                        // Fast path: publish the descriptor on the shared
                        // virtqueue, no exit.
                        if self.try_fastpath_publish(
                            core,
                            vm,
                            vcpu,
                            device,
                            cg_virtio::Descriptor::net(bytes, flow),
                            Counter::VirtioTxFast,
                        ) {
                            return;
                        }
                        // Legacy virtio: queue + kick (exit).
                        let dev_id = self.vms[vm.0].devices[device as usize].id;
                        self.vms[vm.0]
                            .vmm
                            .queue_tx(dev_id, cg_host::NetPacket { bytes, flow });
                        self.trap_to_host(core, vm, vcpu, GuestEvent::HostCall { imm: device });
                    }
                }
            }
            GuestOp::DiskRead { device, bytes, tag }
            | GuestOp::DiskWrite { device, bytes, tag } => {
                let is_write = matches!(op, GuestOp::DiskWrite { .. });
                let dev_id = self.vms[vm.0].devices[device as usize].id;
                self.vms[vm.0].devices[device as usize]
                    .tag_owner
                    .insert(tag, vcpu);
                if self.try_fastpath_publish(
                    core,
                    vm,
                    vcpu,
                    device,
                    cg_virtio::Descriptor::disk(bytes, tag, is_write),
                    Counter::VirtioDiskFast,
                ) {
                    return;
                }
                self.vms[vm.0].vmm.queue_disk(
                    dev_id,
                    cg_host::DiskRequest {
                        bytes,
                        is_write,
                        tag,
                    },
                );
                self.trap_to_host(core, vm, vcpu, GuestEvent::HostCall { imm: device });
            }
            GuestOp::ConsoleWrite => {
                // Interrupt-driven console: a fraction of writes raise a
                // completion SPI later (table 4's residual
                // interrupt-related exits under delegation).
                self.vms[vm.0].console_writes += 1;
                if self.vms[vm.0].console_writes % 5 < 2 && !self.vms[vm.0].devices.is_empty() {
                    self.vms[vm.0].devices[0].pending_notify += 1;
                    let spi = self.vms[vm.0].devices[0].spi;
                    let route = self.machine.gic().spi_route(spi);
                    self.queue.schedule_after(
                        SimDuration::micros(150),
                        SystemEvent::DeviceIrqArrive {
                            core: route,
                            vm,
                            device: 0,
                            ctx: TraceCtx::NULL,
                        },
                    );
                }
                let event = GuestEvent::MmioWrite {
                    ipa: 0x0900_0000,
                    size: 4,
                    value: 0,
                };
                self.trap_to_host(core, vm, vcpu, event);
            }
            GuestOp::TouchShared { ipa } => {
                // Only unmapped IPAs fault; touches of mapped pages are
                // plain (fast) accesses.
                let mapped = if self.vms[vm.0].kvm.mode().is_confidential() {
                    {
                        self.rmm
                            .realm(self.vms[vm.0].kvm.realm())
                            .map(|r| r.rtt().translate(ipa).is_ok())
                            .unwrap_or(false)
                    }
                } else {
                    false
                };
                if mapped {
                    self.start_guest_segment(
                        core,
                        SimDuration::nanos(100),
                        SimDuration::ZERO,
                        GuestCont::OpDone,
                    );
                } else {
                    self.trap_to_host(core, vm, vcpu, GuestEvent::Stage2Fault { ipa });
                }
            }
            GuestOp::DirtyWrite { ipa } => {
                // An in-place store to a protected data page: no exit,
                // no fault — but migration dirty tracking must see it,
                // so a write during a pre-copy round lands in the next
                // round's set.
                if self.vms[vm.0].kvm.mode().is_confidential() {
                    let realm = self.vms[vm.0].kvm.realm();
                    self.rmm.note_guest_write(realm, ipa);
                }
                self.metrics.counters.incr(Counter::GuestDirtyWrites);
                self.start_guest_segment(
                    core,
                    SimDuration::nanos(100),
                    SimDuration::ZERO,
                    GuestCont::OpDone,
                );
            }
            GuestOp::Probe => {
                // Observe first (the measurement reads pre-existing
                // state), then charge the probe's own compute.
                let report = cg_attacks::leakage::probe_core(&self.machine, core, domain);
                self.metrics.counters.incr(Counter::AttackProbes);
                self.attack_report.merge(report);
                let wall = self
                    .machine
                    .run_compute(core, domain, SimDuration::micros(5));
                self.start_guest_segment(core, wall, SimDuration::ZERO, GuestCont::OpDone);
            }
            GuestOp::IvcSend {
                channel,
                bytes,
                seq,
            } => {
                // Publish into the channel's shared-window ring. The
                // window is realm-shared memory the RMM mapped into both
                // realms, so the write is an ordinary store plus a ring
                // index update — the payload copy is the guest's own
                // buffer work, already charged by the workload.
                let Some(slot) = self
                    .ivc
                    .iter()
                    .position(|c| c.channel == channel)
                    .filter(|&i| self.ivc[i].dir_from_mut(vm, vcpu).is_some())
                else {
                    // Not an endpoint (or no such channel): the op is a
                    // guest bug; drop it rather than wedge the vCPU.
                    self.metrics.counters.incr(Counter::IvcSendUnconnected);
                    self.start_guest_segment(
                        core,
                        SimDuration::nanos(50),
                        SimDuration::ZERO,
                        GuestCont::OpDone,
                    );
                    return;
                };
                let spi = self.ivc[slot].spi;
                let now = self.queue.now();
                // Check fullness before minting the trace root: a
                // backpressure drop must not leave an open span behind.
                let full = {
                    let dir = self.ivc[slot]
                        .dir_from_mut(vm, vcpu)
                        .expect("checked above");
                    dir.ring.pending() >= dir.ring.capacity()
                };
                if full {
                    // Backpressure: the consumer is far behind. Drop
                    // and count; the producer's pacing (or the test)
                    // must absorb this.
                    self.metrics.counters.incr(Counter::IvcRingFull);
                    self.start_guest_segment(
                        core,
                        SimDuration::nanos(50),
                        SimDuration::ZERO,
                        GuestCont::OpDone,
                    );
                    return;
                }
                // Trace root for the IVC plane: the publish segment is
                // the root span; everything downstream (doorbell SPI,
                // consumer drain) hangs off it.
                let realm = self.vms[vm.0].kvm.realm().0;
                let (_root, ctx) = self.trace.begin_traced(
                    cg_sim::SpanKind::IvcPublish,
                    Some(core.0),
                    Some(realm),
                    Some(vcpu),
                );
                let (notify, target) = {
                    let dir = self.ivc[slot]
                        .dir_from_mut(vm, vcpu)
                        .expect("checked above");
                    dir.ring
                        .publish(cg_ivc::IvcMsg::new(bytes, seq).with_ctx(ctx))
                        .expect("fullness checked above");
                    if dir.published_at.is_none() {
                        dir.published_at = Some(now);
                    }
                    (dir.ring.should_ring(), dir.to)
                };
                self.metrics.counters.incr(Counter::IvcMessagesSent);
                let target_core = self.vms[target.0 .0].vcpus[target.1 as usize].core;
                self.start_guest_segment(
                    core,
                    hw.mailbox_write,
                    SimDuration::ZERO,
                    GuestCont::IvcPublish {
                        channel,
                        spi,
                        notify,
                        target_core,
                        ctx,
                    },
                );
            }
            GuestOp::Shutdown => self.trap_to_host(core, vm, vcpu, GuestEvent::Shutdown),
        }
    }

    /// Starts a guest compute segment, applying CFS-like timeslice
    /// capping on shared cores when other host threads are runnable —
    /// without this, a long guest compute would starve colocated VMM
    /// threads, which real CFS never allows.
    #[allow(clippy::too_many_arguments)]
    fn start_compute_segment(
        &mut self,
        core: CoreId,
        vm: VmId,
        vcpu: u32,
        op: GuestOp,
        remaining: SimDuration,
        wall: SimDuration,
        mode: VmExecMode,
    ) {
        let slice = cg_host::sched::FAIR_TIMESLICE;
        let sharing = mode != VmExecMode::CoreGapped && self.sched.runnable_on(core) > 0;
        if sharing {
            let used = self.cores[core.index()].guest_slice_used;
            let cap = slice.saturating_sub(used);
            if cap.is_zero() {
                // Timeslice exhausted at an op boundary: exit now.
                self.cores[core.index()].guest_slice_used = SimDuration::ZERO;
                self.vms[vm.0].cur_op[vcpu as usize] = Some((op, remaining));
                self.preempt_shared_guest(core, vm, vcpu);
                return;
            }
            if wall > cap {
                let work_done = remaining.scaled(cap.as_nanos() as f64 / wall.as_nanos() as f64);
                self.cores[core.index()].guest_slice_used = SimDuration::ZERO;
                self.vms[vm.0].cur_op[vcpu as usize] = Some((op, remaining - work_done));
                self.start_guest_segment(core, cap, work_done, GuestCont::ComputeTimeslice);
                return;
            }
            self.cores[core.index()].guest_slice_used = used + wall;
        }
        self.vms[vm.0].cur_op[vcpu as usize] = Some((op, remaining));
        if mode == VmExecMode::CoreGapped
            && !self.single_step
            && matches!(op, GuestOp::Compute { .. })
        {
            self.plan_run_ahead(core, vm, vcpu, wall);
        }
        self.start_guest_segment(core, wall, remaining, GuestCont::ComputeDone);
    }

    /// Tries to publish a descriptor on `vcpu`'s fast-path tx ring,
    /// starting the (cheap) publish segment on success. Returns `false`
    /// — ring full, or device not on the fast path — when the caller
    /// must take the legacy exit-per-kick path instead.
    fn try_fastpath_publish(
        &mut self,
        core: CoreId,
        vm: VmId,
        vcpu: u32,
        device: u32,
        d: cg_virtio::Descriptor,
        counter: Counter,
    ) -> bool {
        if !self.vms[vm.0].io_fastpath || !self.vms[vm.0].devices[device as usize].fastpath() {
            return false;
        }
        // Check fullness before minting the trace root: a backpressure
        // fallback must not leave an open span behind.
        {
            let pair = &self.vms[vm.0].devices[device as usize].queues[vcpu as usize];
            if pair.tx.in_flight() >= pair.tx.size() {
                // Backpressure: fall back to the exit path, whose
                // host-side handling also lets the I/O plane catch up.
                self.metrics.counters.incr(Counter::VirtioRingFull);
                return false;
            }
        }
        // Trace root for the virtio plane: the publish segment is the
        // root span; the backend, completion and drain hops hang off it.
        let realm = self.vms[vm.0].kvm.realm().0;
        let (_root, ctx) = self.trace.begin_traced(
            cg_sim::SpanKind::VirtioKick,
            Some(core.0),
            Some(realm),
            Some(vcpu),
        );
        let pair = &mut self.vms[vm.0].devices[device as usize].queues[vcpu as usize];
        pair.tx
            .push(d.with_ctx(ctx))
            .expect("fullness checked above");
        let notify = pair.tx.should_kick();
        self.metrics.counters.incr(counter);
        self.start_guest_segment(
            core,
            self.config.host.virtio_desc_publish,
            SimDuration::ZERO,
            GuestCont::VirtioKick {
                device,
                notify,
                ctx,
            },
        );
        true
    }

    /// Traps `vcpu` out to the host on `event`. A confidential VM asks
    /// the RMM, which must exit to the host; any other VM takes a KVM
    /// trap costing `realm_exit_trap`.
    fn trap_to_host(&mut self, core: CoreId, vm: VmId, vcpu: u32, event: GuestEvent) {
        if self.vms[vm.0].kvm.mode().is_confidential() {
            match self.guest_event_disposition(core, vm, vcpu, event) {
                Disposition::ExitToHost { exit, cost } => {
                    self.start_guest_exit(core, vm, vcpu, exit, cost)
                }
                other => unreachable!("{event:?} disposition {other:?}"),
            }
            return;
        }
        let reason = match event {
            GuestEvent::MmioWrite { ipa, size, value } => {
                RecExitReason::MmioWrite { ipa, size, value }
            }
            GuestEvent::Stage2Fault { ipa } => RecExitReason::Stage2Fault { ipa },
            GuestEvent::Shutdown => RecExitReason::Shutdown,
            GuestEvent::HostCall { imm } => RecExitReason::HostCall { imm },
            GuestEvent::PhysIrq { .. } => RecExitReason::HostInterrupt,
            other => unreachable!("no KVM trap for {other:?}"),
        };
        let cost = self.config.machine.realm_exit_trap;
        self.start_guest_exit(core, vm, vcpu, RecExit::new(reason), cost);
    }

    fn guest_event_disposition(
        &mut self,
        core: CoreId,
        vm: VmId,
        vcpu: u32,
        event: GuestEvent,
    ) -> Disposition {
        let rec = self.vms[vm.0].kvm.rec(vcpu);
        self.rmm.on_guest_event(core, rec, event, &mut self.machine)
    }

    fn arm_phys_timer(&mut self, core: CoreId, deadline: SimTime) {
        let gen = self.machine.timer_mut(core).program(deadline);
        self.queue.schedule_at(
            deadline,
            SystemEvent::PhysTimerFire {
                core,
                generation: gen,
            },
        );
    }

    pub(crate) fn start_guest_segment(
        &mut self,
        core: CoreId,
        wall: SimDuration,
        work: SimDuration,
        cont: GuestCont,
    ) {
        self.cores[core.index()].guest_cont = Some(cont);
        self.start_segment(core, wall, work);
    }

    /// Starts the exit path: a segment covering the RMM/trap cost whose
    /// completion posts the exit to the host.
    fn start_guest_exit(
        &mut self,
        core: CoreId,
        vm: VmId,
        _vcpu: u32,
        exit: RecExit,
        mut cost: SimDuration,
    ) {
        if self.vms[vm.0].kvm.mode() == VmExecMode::SharedCoreConfidential {
            // World switches back to normal world (with mitigation
            // flush), on top of the RMM-side cost.
            cost += self.machine.world_switch(core, World::Root);
            cost += self.machine.world_switch(core, World::Normal);
        }
        self.start_guest_segment(core, cost, SimDuration::ZERO, GuestCont::ExitPost { exit });
    }

    /// Handles guest-segment completion.
    pub(crate) fn guest_segment_done(&mut self, core: CoreId) {
        let CoreRun::Guest { vm, vcpu } = self.cores[core.index()].run else {
            unreachable!("guest segment on non-guest core")
        };
        let cont = self.cores[core.index()]
            .guest_cont
            .take()
            .expect("guest segment without continuation");
        match cont {
            GuestCont::ComputeDone => {
                // Every planned unit started before this end.
                self.settle_core(core, self.queue.now(), self.queue.last_scheduled_at());
                debug_assert!(self.cores[core.index()].ahead.is_empty());
                self.vms[vm.0].cur_op[vcpu as usize] = None;
                self.advance_guest(core);
            }
            GuestCont::ComputeTimeslice => {
                // Scheduler-tick preemption: the shared-mode guest exits
                // so other host threads get the core (cur_op already
                // holds the remaining work).
                self.trap_to_host(core, vm, vcpu, HOST_KICK);
            }
            GuestCont::OpDone => self.advance_guest(core),
            GuestCont::OpDoneActions(actions) => {
                for a in actions {
                    self.apply_host_action(vm, a);
                }
                self.advance_guest(core);
            }
            GuestCont::NetTxDirect { bytes, flow } => {
                let host = self.config.host.clone();
                let delay = host.nic_serialize(bytes) + host.nic_wire_latency;
                self.queue.schedule_after(
                    delay,
                    SystemEvent::WireToPeer {
                        vm,
                        pkt: PeerPacket { bytes, flow },
                    },
                );
                self.advance_guest(core);
            }
            GuestCont::VirtioKick {
                device,
                notify,
                ctx,
            } => {
                let now = self.queue.now();
                let realm = self.vms[vm.0].kvm.realm().0;
                if ctx.is_null() {
                    self.trace.record_span_child(
                        cg_sim::SpanKind::VirtioKick,
                        Some(core.0),
                        Some(realm),
                        Some(vcpu),
                        self.cores[core.index()].seg_started,
                        now,
                        TraceCtx::NULL,
                    );
                } else {
                    // Close the root span opened at publish time; its
                    // interval is exactly the publish segment.
                    self.trace.end(ctx.parent);
                }
                self.trace.record(cg_sim::TraceKind::Irq, Some(core.0), || {
                    format!("virtio.kick dev{device} notify={notify}")
                });
                if notify {
                    self.metrics.counters.incr(Counter::VirtioKicks);
                    self.ring_plane(PlaneId::Io);
                } else {
                    self.metrics.counters.incr(Counter::VirtioKicksSuppressed);
                }
                self.advance_guest(core);
            }
            GuestCont::IpiSendDone { target_core } => {
                self.queue.schedule_after(
                    self.config.machine.ipi_deliver,
                    SystemEvent::IpiArrive {
                        core: target_core,
                        intid: REALM_DOORBELL_SGI,
                    },
                );
                self.metrics.counters.incr(Counter::RmmDelegatedIpiSent);
                self.advance_guest(core);
            }
            GuestCont::IvcPublish {
                channel,
                spi,
                notify,
                target_core,
                ctx,
            } => {
                let now = self.queue.now();
                let realm = self.vms[vm.0].kvm.realm().0;
                if ctx.is_null() {
                    self.trace.record_span_child(
                        cg_sim::SpanKind::IvcPublish,
                        Some(core.0),
                        Some(realm),
                        Some(vcpu),
                        self.cores[core.index()].seg_started,
                        now,
                        TraceCtx::NULL,
                    );
                } else {
                    // Close the root span opened at publish time.
                    self.trace.end(ctx.parent);
                }
                if notify {
                    // Zero-length doorbell marker: the SPI send itself is
                    // event-edge work inside the publish segment.
                    self.trace.record_span_child(
                        cg_sim::SpanKind::IvcDoorbell,
                        Some(core.0),
                        Some(realm),
                        Some(vcpu),
                        now,
                        now,
                        ctx,
                    );
                }
                self.trace.record(cg_sim::TraceKind::Irq, Some(core.0), || {
                    format!("ivc.publish ch{channel} notify={notify}")
                });
                if notify {
                    // Doorbell straight to the consumer realm's dedicated
                    // core — the RMM validated this (channel, endpoint)
                    // pairing at create time, so the SPI never transits
                    // the host. The fault plan can drop, duplicate, or
                    // forge (misroute) it here; the IVC watchdog heals
                    // the first two and the RMM rejects the third.
                    let dropped = self.fault.drop_ivc_doorbell();
                    let forged = !dropped && self.fault.forge_ivc_doorbell();
                    let target = if forged {
                        self.metrics.counters.incr(Counter::FaultIvcDoorbellForged);
                        self.forged_doorbell_target(channel, target_core)
                    } else {
                        Some(target_core)
                    };
                    if dropped {
                        self.metrics.counters.incr(Counter::FaultIvcDoorbellDropped);
                    } else if let Some(t) = target {
                        self.queue.schedule_after(
                            self.config.machine.ipi_deliver,
                            SystemEvent::IpiArrive {
                                core: t,
                                intid: IntId::spi(spi),
                            },
                        );
                        if self.fault.dup_ivc_doorbell() {
                            self.metrics
                                .counters
                                .incr(Counter::FaultIvcDoorbellDuplicated);
                            self.queue.schedule_after(
                                self.config.machine.ipi_deliver * 2,
                                SystemEvent::IpiArrive {
                                    core: t,
                                    intid: IntId::spi(spi),
                                },
                            );
                        }
                    }
                    self.metrics.counters.incr(Counter::IvcDoorbellsSent);
                } else {
                    self.metrics.counters.incr(Counter::IvcDoorbellsSuppressed);
                }
                self.advance_guest(core);
            }
            GuestCont::ExitPost { exit } => self.finish_guest_exit(core, vm, vcpu, exit),
        }
    }

    /// The exit record reaches the host.
    fn finish_guest_exit(&mut self, core: CoreId, vm: VmId, vcpu: u32, exit: RecExit) {
        let now = self.queue.now();
        self.trace.record(cg_sim::TraceKind::Rpc, Some(core.0), || {
            format!("run.exit {vm}.vcpu{vcpu} {}", exit.reason)
        });
        self.vms[vm.0].vcpus[vcpu as usize].exit_posted_at = Some(now);
        // Trace root for the RPC plane: the exit round trip is the root
        // span; the channel legs, host handling and re-entry hang off it.
        let realm = self.vms[vm.0].kvm.realm().0;
        let (root, exit_ctx) = self.trace.begin_traced(
            cg_sim::SpanKind::ExitRoundTrip,
            Some(core.0),
            Some(realm),
            Some(vcpu),
        );
        self.vms[vm.0].vcpus[vcpu as usize].roundtrip_span = root;
        match self.vms[vm.0].kvm.mode() {
            VmExecMode::CoreGapped => {
                // Hostile host: the response cache line's visibility can
                // be held back (interconnect interference), post-dating
                // the response.
                let mut post_at = now;
                if let Some(d) = self.fault.response_delay() {
                    self.metrics.counters.incr(Counter::FaultResponseDelayed);
                    post_at = now + d;
                }
                self.vms[vm.0].run_channels[vcpu as usize]
                    .post_response(exit, post_at)
                    .expect("run channel must be serving");
                self.wake_call_timeout(vm, vcpu);
                self.vms[vm.0].run_channels[vcpu as usize].set_response_ctx(exit_ctx);
                self.cores[core.index()].run = CoreRun::RmmPolling;
                self.machine
                    .cpu_mut(core)
                    .set_current_domain(Some(Domain::Monitor));
                if self.vms[vm.0].transport == RunTransport::AsyncIpi {
                    self.ring_plane(PlaneId::Exit);
                }
            }
            _ => {
                // Same-core: the vCPU thread (still current here) handles
                // the exit directly.
                let tid = self.vms[vm.0].vcpus[vcpu as usize].thread;
                self.vms[vm.0].vcpus[vcpu as usize].pending_exit = Some(exit);
                self.cores[core.index()].run = CoreRun::HostThread { tid };
                self.machine
                    .cpu_mut(core)
                    .set_current_domain(Some(Domain::Host));
                self.set_cont(tid, ThreadCont::VcpuHandleExit { vm, vcpu });
                self.begin_thread(core, tid);
            }
        }
    }

    /// A physical interrupt reached a core hosting a *running* guest.
    pub(crate) fn handle_guest_phys_irq(
        &mut self,
        core: CoreId,
        vm: VmId,
        vcpu: u32,
        intid: IntId,
    ) {
        let mode = self.vms[vm.0].kvm.mode();
        if mode == VmExecMode::CoreGapped || mode == VmExecMode::SharedCoreConfidential {
            self.machine.gic_mut().raise(core, intid);
            let rec = self.vms[vm.0].kvm.rec(vcpu);
            let disp = self.rmm.on_guest_event(
                core,
                rec,
                GuestEvent::PhysIrq { intid },
                &mut self.machine,
            );
            match disp {
                Disposition::Resume { cost } => {
                    self.start_guest_segment(core, cost, SimDuration::ZERO, GuestCont::OpDone)
                }
                Disposition::Rejected { cost } => {
                    // A refused IVC doorbell: the guest resumes as if
                    // nothing had arrived.
                    self.metrics.counters.incr(Counter::IvcDoorbellsRejected);
                    self.start_guest_segment(core, cost, SimDuration::ZERO, GuestCont::OpDone)
                }
                Disposition::ExitToHost { exit, cost } => {
                    self.start_guest_exit(core, vm, vcpu, exit, cost)
                }
                other => unreachable!("phys irq disposition {other:?}"),
            }
        } else {
            // Non-confidential shared guest.
            if intid == IntId::VTIMER {
                // Hardware vtimer: injected directly by the vGIC.
                self.machine.gic_mut().inject_virtual(core, IntId::VTIMER);
                self.start_guest_segment(
                    core,
                    SimDuration::nanos(200),
                    SimDuration::ZERO,
                    GuestCont::OpDone,
                );
            } else {
                // Host-directed interrupt: the guest exits.
                self.preempt_shared_guest(core, vm, vcpu);
            }
        }
    }

    /// Truncates a running shared-mode guest and exits it to the host.
    ///
    /// Only interruptible guest execution (compute) is preempted; if the
    /// guest is mid-transition (trap handling, exit path), it is left to
    /// reach the host on its own — the interrupt's payload is delivered
    /// through KVM regardless.
    pub(crate) fn preempt_shared_guest(&mut self, core: CoreId, vm: VmId, vcpu: u32) {
        let interruptible = matches!(
            self.cores[core.index()].guest_cont,
            Some(GuestCont::ComputeDone) | Some(GuestCont::ComputeTimeslice) | None
        );
        if !interruptible {
            return;
        }
        if self.cores[core.index()].seg_token.is_some() {
            let (_, _, completed) = self.truncate_segment(core);
            if let Some((op, remaining)) = self.vms[vm.0].cur_op[vcpu as usize].take() {
                let left = remaining.saturating_sub(completed);
                if !left.is_zero() {
                    self.vms[vm.0].cur_op[vcpu as usize] = Some((op, left));
                }
            }
            self.cores[core.index()].guest_cont = None;
        }
        self.trap_to_host(core, vm, vcpu, HOST_KICK);
    }

    /// Truncates a running (gapped) guest compute segment so the RMM can
    /// handle a physical interrupt, preserving remaining work.
    pub(crate) fn interrupt_gapped_guest(
        &mut self,
        core: CoreId,
        vm: VmId,
        vcpu: u32,
        intid: IntId,
    ) {
        let is_compute = matches!(
            self.cores[core.index()].guest_cont,
            Some(GuestCont::ComputeDone)
        );
        if is_compute {
            // The interrupt lands in the unit in flight.
            self.drop_run_ahead(core);
            let (_, _, completed) = self.truncate_segment(core);
            if let Some((op, remaining)) = self.vms[vm.0].cur_op[vcpu as usize].take() {
                let left = remaining.saturating_sub(completed);
                if !left.is_zero() {
                    self.vms[vm.0].cur_op[vcpu as usize] = Some((op, left));
                }
            }
            self.cores[core.index()].guest_cont = None;
            self.handle_guest_phys_irq(core, vm, vcpu, intid);
        } else {
            // Mid-transition: note the interrupt; the guest loop picks it
            // up at the next op boundary.
            self.machine.gic_mut().raise(core, intid);
        }
    }
}
