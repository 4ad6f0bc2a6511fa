//! Event dispatch: what each [`SystemEvent`] does.

use cg_host::{VmExecMode, WakeupThread};
use cg_machine::{CoreId, IntId};
use cg_rmm::Disposition;
use cg_sim::{SimDuration, SimTime, TraceKind};

use crate::counters::Counter;
use crate::event::SystemEvent;
use crate::exec::GuestCont;
use crate::system::{CallTimer, CoreRun, PlaneId, System, ThreadCont, VmId, CVM_EXIT_SGI};

impl System {
    /// Dispatches one event.
    pub(crate) fn handle(&mut self, ev: SystemEvent) {
        match ev {
            SystemEvent::SegmentEnd { core, epoch } => self.on_segment_end(core, epoch),
            SystemEvent::PhysTimerFire { core, generation } => self.on_phys_timer(core, generation),
            SystemEvent::IpiArrive { core, intid } => self.on_ipi(core, intid),
            SystemEvent::DeviceIrqArrive {
                core,
                vm,
                device,
                ctx,
            } => self.on_device_irq(core, vm, device, ctx),
            SystemEvent::RunRequestVisible { vm, vcpu } => self.on_run_request(vm, vcpu),
            SystemEvent::EmulTimerFire {
                vm,
                vcpu,
                deadline_ns,
            } => self.on_emul_timer(vm, vcpu, deadline_ns),
            SystemEvent::WireToPeer { vm, pkt } => self.on_wire_to_peer(vm, pkt),
            SystemEvent::WireToGuest {
                vm,
                device,
                bytes,
                flow,
            } => self.on_wire_to_guest(vm, device, bytes, flow),
            SystemEvent::ObsSample { period_ns } => self.on_obs_sample(period_ns),
            SystemEvent::DiskDone {
                vm,
                device,
                tag,
                ctx,
            } => self.on_disk_done(vm, device, tag, ctx),
            SystemEvent::HarassTick {
                vm,
                vcpu,
                period_ns,
            } => self.on_harass_tick(vm, vcpu, period_ns),
            SystemEvent::CallTimeout { vm, vcpu, seq } => self.on_call_timeout(vm, vcpu, seq),
            SystemEvent::WatchdogTick { period_ns } => self.on_watchdog_tick(period_ns),
            SystemEvent::DefragTick { period_ns } => self.on_defrag_tick(period_ns),
        }
    }

    fn on_segment_end(&mut self, core: CoreId, epoch: u64) {
        let cs = &mut self.cores[core.index()];
        if cs.epoch != epoch {
            return; // stale (truncated) segment
        }
        cs.seg_token = None;
        let wall = cs.seg_wall;
        match cs.run {
            CoreRun::HostThread { tid } => {
                self.account_host_busy(core, wall);
                self.thread_segment_done(core, tid);
            }
            CoreRun::Guest { .. } => self.guest_segment_done(core),
            other => unreachable!("segment completed on {core} in state {other:?}"),
        }
    }

    fn on_phys_timer(&mut self, core: CoreId, generation: u64) {
        if !self.machine.timer_mut(core).fire(generation) {
            return; // reprogrammed or cancelled
        }
        match self.cores[core.index()].run {
            CoreRun::Guest { vm, vcpu } => {
                self.interrupt_gapped_guest(core, vm, vcpu, IntId::VTIMER);
            }
            CoreRun::GuestWfi { vm, vcpu } => {
                self.wake_idle_guest(core, vm, vcpu, IntId::VTIMER);
            }
            _ => {
                // The vCPU that armed this timer is not on the core
                // (shared mode, thread blocked or handling an exit): the
                // host's timer interrupt queues the virtual interrupt.
                if let Some((vm, vcpu)) = self.core_vcpu[core.index()] {
                    if self.vms[vm.0].kvm.mode() == VmExecMode::SharedCore {
                        self.host_irq_steal(core, self.config.machine.irq_entry);
                        let actions = self.vms[vm.0]
                            .kvm
                            .queue_irq(vcpu, IntId::VTIMER)
                            .into_iter()
                            .collect::<Vec<_>>();
                        for a in actions {
                            self.apply_host_action(vm, a);
                        }
                    }
                }
            }
        }
    }

    fn wake_idle_guest(&mut self, core: CoreId, vm: VmId, vcpu: u32, intid: IntId) {
        let rec = self.vms[vm.0].kvm.rec(vcpu);
        self.machine.gic_mut().raise(core, intid);
        let disp = self
            .rmm
            .on_phys_irq(core, rec, intid, &mut self.machine, true);
        self.cores[core.index()].run = CoreRun::Guest { vm, vcpu };
        match disp {
            Disposition::Resume { cost } => {
                self.start_guest_segment(core, cost, SimDuration::ZERO, GuestCont::OpDone);
            }
            Disposition::ExitToHost { exit, cost } => {
                // Leaving WFI for the host: the REC exits.
                self.start_guest_segment(
                    core,
                    cost,
                    SimDuration::ZERO,
                    GuestCont::ExitPost { exit },
                );
            }
            Disposition::Rejected { .. } => {
                // The RMM refused to inject (a forged IVC doorbell for a
                // channel this vCPU is no endpoint of): the guest stays
                // in WFI — the victim must not even wake. Mark the
                // rejection beside the spans that led up to it.
                self.cores[core.index()].run = CoreRun::GuestWfi { vm, vcpu };
                self.metrics.counters.incr(Counter::IvcDoorbellsRejected);
                self.trace
                    .mark_recovery(self.queue.now(), "rmm.doorbell_rejected");
            }
            other => unreachable!("idle irq disposition {other:?}"),
        }
    }

    fn on_ipi(&mut self, core: CoreId, intid: IntId) {
        self.metrics.counters.incr(Counter::IpiDelivered);
        self.trace.record(cg_sim::TraceKind::Irq, Some(core.0), || {
            format!("ipi.arrive {intid}")
        });
        if let Some(id) = [PlaneId::Exit, PlaneId::Io]
            .into_iter()
            .find(|&id| self.planes[id].sgi == intid)
        {
            // A plane's doorbell at the host core.
            self.host_irq_steal(core, self.config.machine.irq_entry);
            let plane = &mut self.planes[id];
            plane.doorbell.acknowledge();
            plane.rung_at = None;
            self.activate_plane(id, false);
            return;
        }
        match self.cores[core.index()].run {
            CoreRun::Guest { vm, vcpu } => {
                self.interrupt_gapped_guest(core, vm, vcpu, intid);
            }
            CoreRun::GuestWfi { vm, vcpu } => {
                self.wake_idle_guest(core, vm, vcpu, intid);
            }
            CoreRun::RmmPolling => {
                // Kick for a vCPU that already exited: nothing to do.
            }
            _ => {
                // Host-core IPI with no special meaning here.
                self.host_irq_steal(core, self.config.machine.irq_entry);
            }
        }
    }

    fn on_device_irq(&mut self, core: CoreId, vm: VmId, device: u32, ctx: cg_sim::TraceCtx) {
        // Direct delivery: the SPI was routed to the CVM's dedicated
        // core and the RMM injects it without host involvement.
        // Fast-path completion interrupts are always delegated this way.
        if self.config.rmm.direct_device_delivery
            || self.vms[vm.0].devices[device as usize].fastpath()
        {
            let spi = self.vms[vm.0].devices[device as usize].spi;
            match self.cores[core.index()].run {
                CoreRun::Guest { vm: gvm, vcpu } if gvm == vm => {
                    self.record_rmm_inject(gvm, vcpu, core, ctx);
                    self.interrupt_gapped_guest(core, gvm, vcpu, IntId::spi(spi));
                    return;
                }
                CoreRun::GuestWfi { vm: gvm, vcpu } if gvm == vm => {
                    self.record_rmm_inject(gvm, vcpu, core, ctx);
                    self.wake_idle_guest(core, gvm, vcpu, IntId::spi(spi));
                    return;
                }
                CoreRun::RmmPolling => {
                    // The vCPU is between runs: ride the next entry list.
                    self.deliver_device_irq_actions(vm, device);
                    return;
                }
                _ => {}
            }
        }
        // The SPI reached its routed (host) core: in-kernel handling
        // queues the guest interrupt and kicks/unblocks the vCPU.
        let cost = self.config.machine.irq_entry + self.config.host.irq_inject;
        match self.cores[core.index()].run {
            CoreRun::Guest { vm: gvm, vcpu }
                if !matches!(self.vms[gvm.0].kvm.mode(), VmExecMode::CoreGapped) =>
            {
                // Shared-mode guest occupying the host core: the IRQ
                // forces an exit; interrupt handling happens in the exit
                // path.
                let _ = (vm, device);
                self.preempt_shared_guest(core, gvm, vcpu);
                self.deliver_device_irq_actions(vm, device);
            }
            _ => {
                self.host_irq_steal(core, cost);
                self.deliver_device_irq_actions(vm, device);
            }
        }
    }

    /// Records the RMM's direct-injection hop for a traced delegated
    /// interrupt: a zero-length [`cg_sim::SpanKind::RmmInject`] child
    /// (the injection is event-edge work inside delivery costs already
    /// charged). Untraced deliveries record nothing.
    fn record_rmm_inject(&mut self, vm: VmId, vcpu: u32, core: CoreId, ctx: cg_sim::TraceCtx) {
        if ctx.is_null() {
            return;
        }
        let now = self.queue.now();
        let realm = self.vms[vm.0].kvm.realm().0;
        self.trace.record_span_child(
            cg_sim::SpanKind::RmmInject,
            Some(core.0),
            Some(realm),
            Some(vcpu),
            now,
            now,
            ctx,
        );
    }

    fn deliver_device_irq_actions(&mut self, vm: VmId, device: u32) {
        // Inject only when the guest actually has something to pick up
        // (an irq whose work NAPI already consumed needs no forwarding).
        // Every vCPU with an outstanding completion gets its own
        // injection — delivering to only one would strand the others in
        // WFI.
        let targets = self.device_irq_targets(vm, device);
        if targets.is_empty() {
            return;
        }
        let spi = self.vms[vm.0].devices[device as usize].spi;
        for vcpu in targets {
            let actions = self.vms[vm.0]
                .kvm
                .queue_irq(vcpu, IntId::spi(spi))
                .into_iter()
                .collect::<Vec<_>>();
            for a in actions {
                self.apply_host_action(vm, a);
            }
        }
    }

    /// The vCPUs a device's completion interrupt targets: every owner of
    /// an outstanding disk tag, plus vCPU 0 for network payloads and
    /// payload-free notifications.
    fn device_irq_targets(&mut self, vm: VmId, device: u32) -> Vec<u32> {
        let d = &self.vms[vm.0].devices[device as usize];
        let mut targets: Vec<u32> = d
            .done_queue
            .iter()
            .filter_map(|tag| d.tag_owner.get(tag).copied())
            .collect();
        if !d.rx_inbox.is_empty() || d.pending_notify > 0 {
            targets.push(0);
        }
        // Fast path: every vCPU whose pair has unconsumed used entries.
        for (q, pair) in d.queues.iter().enumerate() {
            if pair.tx.used_len() > 0 || pair.rx.used_len() > 0 {
                targets.push(q as u32);
            }
        }
        targets.sort_unstable();
        targets.dedup();
        targets
    }

    fn on_run_request(&mut self, vm: VmId, vcpu: u32) {
        // Retries duplicate this notice: whichever fires first takes the
        // request, and later copies find the channel already past
        // `Requested`. Drop stale notices before asserting anything
        // about the core's state.
        if !self.vms[vm.0].run_channels[vcpu as usize].has_request() {
            self.metrics.counters.incr(Counter::RpcStaleRunNotice);
            return;
        }
        let core = self.vms[vm.0].vcpus[vcpu as usize].core;
        assert_eq!(
            self.cores[core.index()].run,
            CoreRun::RmmPolling,
            "run request arrived while {core} busy"
        );
        let now = self.queue.now();
        let machine_params = self.config.machine.clone();
        let msg = self.vms[vm.0].run_channels[vcpu as usize]
            .take_request(now, &machine_params)
            .expect("run request visible when scheduled");
        self.park_call_timeout(vm, vcpu);
        // The dedicated core's RMM re-enters the realm on behalf of the
        // host's request: a zero-length injection marker links the entry
        // into the request's trace (the REC_ENTER cost is the following
        // guest segment).
        let req_ctx = self.vms[vm.0].run_channels[vcpu as usize].request_ctx();
        let realm = self.vms[vm.0].kvm.realm().0;
        self.trace.record_span_child(
            cg_sim::SpanKind::RmmInject,
            Some(core.0),
            Some(realm),
            Some(vcpu),
            now,
            now,
            req_ctx,
        );
        let rec = self.vms[vm.0].kvm.rec(vcpu);
        let out = self.rmm.rec_enter_with_list(
            core,
            rec,
            &msg.entry.pending_interrupts,
            &mut self.machine,
        );
        assert!(
            out.status.is_success(),
            "REC_ENTER failed for {rec}: {:?}",
            out.status
        );
        self.metrics.counters.incr(Counter::RmmRecEnter);
        self.trace.record(cg_sim::TraceKind::Rpc, Some(core.0), || {
            format!("run.enter {vm}.vcpu{vcpu}")
        });
        self.cores[core.index()].run = CoreRun::Guest { vm, vcpu };
        self.start_guest_segment(core, out.cost, SimDuration::ZERO, GuestCont::OpDone);
    }

    fn on_emul_timer(&mut self, vm: VmId, vcpu: u32, deadline_ns: u64) {
        let now = SimTime::from_nanos(deadline_ns).max(self.queue.now());
        let actions = self.vms[vm.0].kvm.emul_timer_fire(vcpu, now);
        if actions.is_empty() {
            return; // stale
        }
        // The hrtimer fires in host interrupt context on the host core.
        let host_core = self.host_cores()[0];
        let mut steal = self.config.machine.irq_entry;
        for a in actions {
            match a {
                cg_host::HostAction::Work { cost, .. } => steal += cost,
                other => self.apply_host_action(vm, other),
            }
        }
        self.host_irq_steal(host_core, steal);
    }

    fn on_wire_to_peer(&mut self, vm: VmId, pkt: cg_workloads::PeerPacket) {
        let now = self.queue.now();
        let replies = match &mut self.vms[vm.0].peer {
            Some(p) => p.on_packet(pkt, now),
            None => Vec::new(),
        };
        let wire = self.config.host.nic_wire_latency;
        // Replies land on the VM's first network device.
        if let Some(device) = self.vms[vm.0].devices.iter().position(|d| {
            matches!(
                d.kind,
                cg_host::DeviceKind::VirtioNet | cg_host::DeviceKind::SriovNic
            )
        }) {
            for (delay, reply) in replies {
                self.queue.schedule_after(
                    delay + wire,
                    SystemEvent::WireToGuest {
                        vm,
                        device: device as u32,
                        bytes: reply.bytes,
                        flow: reply.flow,
                    },
                );
            }
        }
    }

    fn on_wire_to_guest(&mut self, vm: VmId, device: u32, bytes: u64, flow: u64) {
        let kind = self.vms[vm.0].devices[device as usize].kind;
        match kind {
            cg_host::DeviceKind::SriovNic => {
                // DMA directly into guest memory; delivery policy (NAPI
                // vs interrupt) decided in deliver_rx_to_guest.
                self.deliver_rx_to_guest(vm, device, bytes, flow);
            }
            _ => {
                // Emulated NIC: the VMM (or the I/O plane, on the fast
                // path) must process the packet first.
                self.vms[vm.0].devices[device as usize]
                    .rx_pending
                    .push_back((bytes, flow));
                if self.vms[vm.0].devices[device as usize].fastpath() {
                    self.activate_plane(PlaneId::Io, false);
                } else if let Some(tid) = self.vms[vm.0].devices[device as usize].io_thread {
                    self.wake_thread_if_blocked(tid);
                }
            }
        }
    }

    /// The malicious host forces the victim vCPU to exit, over and over
    /// (the paper's §1 threat: "interrupt guest execution at inopportune
    /// moments to attempt to leak microarchitectural state").
    fn on_harass_tick(&mut self, vm: VmId, vcpu: u32, period_ns: u64) {
        if self.vms[vm.0].kvm.is_finished(vcpu) {
            return;
        }
        self.metrics.counters.incr(Counter::HostHarassKicks);
        if self.vms[vm.0].kvm.in_guest(vcpu) {
            self.apply_host_action(vm, cg_host::HostAction::KickVcpu { vcpu });
        }
        self.queue.schedule_after(
            SimDuration::nanos(period_ns),
            SystemEvent::HarassTick {
                vm,
                vcpu,
                period_ns,
            },
        );
    }

    /// The client-side call timeout fired: decide whether the in-flight
    /// async run call needs a re-kick (poll notice lost), a re-ring
    /// (response doorbell lost), or nothing (stale / guest still
    /// executing), re-arming with exponential backoff.
    fn on_call_timeout(&mut self, vm: VmId, vcpu: u32, seq: u64) {
        use cg_rpc::ChannelState;
        let rt = &self.vms[vm.0].vcpus[vcpu as usize];
        if rt.call_seq != seq {
            self.metrics.counters.incr(Counter::RpcTimeoutStale);
            return;
        }
        let vtid = rt.thread;
        let awaiting = matches!(
            self.threads.get(&vtid).map(|t| &t.cont),
            Some(ThreadCont::VcpuAwait { .. })
        );
        if !awaiting {
            // The response was already delivered (e.g. by the watchdog)
            // and the thread moved on without bumping the sequence yet.
            self.metrics.counters.incr(Counter::RpcTimeoutStale);
            return;
        }
        let now = self.queue.now();
        let policy = self.config.recovery.retry_policy();
        let state = self.vms[vm.0].run_channels[vcpu as usize].state();
        let attempt = self.vms[vm.0].vcpus[vcpu as usize].call_attempt;
        match state {
            ChannelState::Idle => {
                self.metrics.counters.incr(Counter::RpcTimeoutStale);
            }
            ChannelState::Serving => {
                // The guest is executing: not a fault, the call is just
                // long-running. Keep watching at the same backoff step.
                // Only the single-step reference gets here: elsewhere the
                // chain is parked from `take_request` on.
                self.metrics.counters.incr(Counter::RpcTimeoutServing);
                self.arm_call_timeout(vm, vcpu, seq, now + policy.timeout_for(attempt), now);
            }
            ChannelState::Requested => {
                // The request is posted but the dedicated core never took
                // it: its poll notice was wedged. Re-kick it. The final
                // attempt bypasses injection (a real client's last resort
                // escalates to a synchronous call the host cannot
                // suppress), guaranteeing forward progress.
                let attempt = attempt + 1;
                let exhausted = attempt > policy.max_retries;
                self.vms[vm.0].vcpus[vcpu as usize].call_attempt = attempt;
                self.record_rpc_retry(vm, vcpu, attempt, "requested", now);
                if exhausted {
                    self.record_recovery(
                        Counter::RpcRetriesExhausted,
                        TraceKind::Rpc,
                        None,
                        || format!("rpc.retries_exhausted {vm}.vcpu{vcpu} stuck=requested"),
                    );
                }
                if exhausted || !self.fault.wedge_request() {
                    let notice = now + self.config.machine.poll_iteration / 2;
                    self.queue
                        .schedule_at(notice, SystemEvent::RunRequestVisible { vm, vcpu });
                } else {
                    self.metrics.counters.incr(Counter::FaultRequestWedged);
                }
                self.arm_call_timeout(vm, vcpu, seq, now + policy.timeout_for(attempt), now);
            }
            ChannelState::Responded => {
                // The exit is posted but the doorbell never arrived.
                // Idempotently refresh the response's visibility and
                // re-ring by scheduling the IPI directly: the doorbell
                // latch may be stuck pending from the lost ring, and
                // acknowledge() on arrival heals it for future rings.
                let attempt = attempt + 1;
                let exhausted = attempt > policy.max_retries;
                self.vms[vm.0].vcpus[vcpu as usize].call_attempt = attempt;
                self.record_rpc_retry(vm, vcpu, attempt, "responded", now);
                if exhausted {
                    self.record_recovery(
                        Counter::RpcRetriesExhausted,
                        TraceKind::Rpc,
                        None,
                        || format!("rpc.retries_exhausted {vm}.vcpu{vcpu} stuck=responded"),
                    );
                }
                self.metrics.counters.incr(Counter::RmmResponseReposts);
                let _ = self.vms[vm.0].run_channels[vcpu as usize].repost_response(now);
                if exhausted || !self.fault.drop_doorbell() {
                    let target = self.planes[PlaneId::Exit].doorbell.target();
                    self.queue.schedule_after(
                        self.config.machine.ipi_deliver,
                        SystemEvent::IpiArrive {
                            core: target,
                            intid: CVM_EXIT_SGI,
                        },
                    );
                } else {
                    self.metrics.counters.incr(Counter::FaultDoorbellDropped);
                }
                self.arm_call_timeout(vm, vcpu, seq, now + policy.timeout_for(attempt), now);
            }
        }
    }

    /// Queues `vcpu`'s timeout for call `seq` at `at`, ordered as of
    /// `as_of`, as its armed timer.
    pub(crate) fn arm_call_timeout(
        &mut self,
        vm: VmId,
        vcpu: u32,
        seq: u64,
        at: SimTime,
        as_of: SimTime,
    ) {
        let token =
            self.queue
                .schedule_as_of(at, as_of, SystemEvent::CallTimeout { vm, vcpu, seq });
        self.vms[vm.0].vcpus[vcpu as usize].call_timer = CallTimer::Armed { token, at, as_of };
    }

    /// The run channel just went `Serving`: takes `vcpu`'s armed timeout
    /// out of the queue and parks its chain. The single-step reference
    /// keeps the eager chain.
    pub(crate) fn park_call_timeout(&mut self, vm: VmId, vcpu: u32) {
        let rt = &self.vms[vm.0].vcpus[vcpu as usize];
        let CallTimer::Armed { token, at, as_of } = rt.call_timer else {
            return;
        };
        let period = self
            .config
            .recovery
            .retry_policy()
            .timeout_for(rt.call_attempt);
        // A zero period re-fires at one instant for good: no closed form.
        if self.single_step || period.is_zero() {
            return;
        }
        let seq = rt.call_seq;
        self.queue.cancel(token);
        self.vms[vm.0].vcpus[vcpu as usize].call_timer = CallTimer::Parked {
            at,
            as_of,
            period,
            seq,
        };
    }

    /// Counts the fires of `vcpu`'s parked chain that the eager chain
    /// would have handled before the event keyed `(at, scheduled_at)`,
    /// and moves the chain past them. Every such fire found the channel
    /// `Serving`. A fire at `at` exactly counts iff the fire before it
    /// came earlier than `scheduled_at` (DESIGN.md, "The tie rule").
    /// Returns the key of the last fire counted, if any.
    fn settle_call_timeout(
        &mut self,
        vm: VmId,
        vcpu: u32,
        at: SimTime,
        scheduled_at: SimTime,
    ) -> Option<(SimTime, SimTime)> {
        let timer = &mut self.vms[vm.0].vcpus[vcpu as usize].call_timer;
        let CallTimer::Parked {
            at: first,
            as_of,
            period,
            ..
        } = timer
        else {
            return None;
        };
        if *first > at {
            return None;
        }
        let p = period.as_nanos();
        // Fires strictly before `at`, then the one landing on it.
        let mut fired = (at.as_nanos() - first.as_nanos()).div_ceil(p);
        let next = *first + SimDuration::nanos(fired * p);
        let next_as_of = if fired == 0 { *as_of } else { next - *period };
        if next == at && next_as_of < scheduled_at {
            fired += 1;
        }
        if fired == 0 {
            return None;
        }
        let last = *first + SimDuration::nanos((fired - 1) * p);
        let last_as_of = if fired == 1 { *as_of } else { last - *period };
        *first = last + *period;
        *as_of = last;
        self.metrics.counters.add(Counter::RpcTimeoutServing, fired);
        Some((last, last_as_of))
    }

    /// The run channel is leaving `Serving`, or its thread is leaving
    /// `VcpuAwait`: counts the parked fires already due and queues the
    /// next one where the eager chain has it, ordered as of the fire
    /// before it.
    pub(crate) fn wake_call_timeout(&mut self, vm: VmId, vcpu: u32) {
        let (now, scheduled_at) = (self.queue.now(), self.queue.last_scheduled_at());
        self.settle_call_timeout(vm, vcpu, now, scheduled_at);
        if let CallTimer::Parked { at, as_of, seq, .. } =
            self.vms[vm.0].vcpus[vcpu as usize].call_timer
        {
            self.arm_call_timeout(vm, vcpu, seq, at, as_of);
        }
    }

    /// [`System::settle_call_timeout`] on every parked chain. Returns the
    /// latest key counted, if any.
    pub(crate) fn settle_call_timeouts(
        &mut self,
        at: SimTime,
        scheduled_at: SimTime,
    ) -> Option<(SimTime, SimTime)> {
        let mut latest = None;
        for vm in 0..self.vms.len() {
            for vcpu in 0..self.vms[vm].vcpus.len() as u32 {
                let key = self.settle_call_timeout(VmId(vm), vcpu, at, scheduled_at);
                latest = latest.max(key);
            }
        }
        latest
    }

    /// Counts, traces, and profiles one retry decision.
    fn record_rpc_retry(
        &mut self,
        vm: VmId,
        vcpu: u32,
        attempt: u32,
        why: &'static str,
        now: SimTime,
    ) {
        self.metrics.counters.incr(Counter::RpcRetries);
        let realm = self.vms[vm.0].kvm.realm().0;
        self.trace.record_vm(
            cg_sim::TraceKind::Rpc,
            None,
            Some(realm),
            Some(vcpu),
            || format!("rpc.retry attempt={attempt} stuck={why}"),
        );
        self.trace.record_span_child(
            cg_sim::SpanKind::RpcRetry,
            None,
            Some(realm),
            Some(vcpu),
            now,
            now,
            cg_sim::TraceCtx::NULL,
        );
    }

    /// The periodic watchdog (see [`System::arm_watchdog`]): a cheap
    /// timer-interrupt-context pass on the host core that heals every
    /// notification a hostile host can drop — a plane doorbell, a
    /// fast-path completion interrupt, an IVC doorbell, an elastic
    /// kick — which would otherwise strand its work forever.
    fn on_watchdog_tick(&mut self, period_ns: u64) {
        let period = SimDuration::nanos(period_ns);
        if self.config.recovery.enabled && !period.is_zero() {
            self.queue
                .schedule_after(period, SystemEvent::WatchdogTick { period_ns });
        }
        let now = self.queue.now();
        let grace = self.doorbell_grace();
        if let Some(w) = &self.planes[PlaneId::Exit].thread {
            // Rescan the run channels, in timer-interrupt context.
            let host_core = self.planes[PlaneId::Exit].doorbell.target();
            let suspended = !w.is_active();
            let cost = self.config.machine.irq_entry
                + WakeupThread::scan_cost(w.watched(), self.config.machine.poll_iteration);
            self.metrics.counters.incr(Counter::WakeupWatchdogScans);
            self.host_irq_steal(host_core, cost);
            // Zero-length marker: the scan's stolen time lands on the
            // host core via `host_irq_steal`, but dating the span's end
            // past the tick would break the profiler's rebase invariant
            // (spans never extend beyond the last popped event).
            self.trace.record_span_child(
                cg_sim::SpanKind::WatchdogScan,
                Some(host_core.0),
                None,
                None,
                now,
                now,
                cg_sim::TraceCtx::NULL,
            );
            // Only treat an exit as stranded once it has been visible
            // longer than any healthy doorbell delivery takes; probing
            // at `now` would race the in-flight IPI and burn an
            // activation that wakes nobody.
            let probe = SimTime::from_nanos(now.as_nanos().saturating_sub(grace.as_nanos()));
            if suspended && !self.wakeup_scan_candidates(probe).is_empty() {
                self.record_recovery(
                    Counter::WakeupWatchdogRecovered,
                    TraceKind::Sched,
                    Some(host_core),
                    || "wakeup.watchdog found stranded exit".to_string(),
                );
                // The doorbell was dropped (or its latch wedged): heal
                // the latch and activate the thread directly.
                self.planes[PlaneId::Exit].doorbell.acknowledge();
                self.activate_plane(PlaneId::Exit, true);
            }
        }
        if let Some(io) = &self.planes[PlaneId::Io].thread {
            let host_core = self.planes[PlaneId::Io].doorbell.target();
            let suspended = !io.is_active();
            self.metrics.counters.incr(Counter::IoWatchdogScans);
            self.host_irq_steal(host_core, self.config.machine.irq_entry);
            self.io_completion_watchdog(now);
            // Published-but-unserviced work with the I/O thread
            // suspended: the kick doorbell was dropped (or its latch
            // wedged) — but a latch younger than a healthy delivery
            // means the IPI is still in flight and the normal path will
            // service the work.
            let plane = &self.planes[PlaneId::Io];
            let kick_in_flight = plane.doorbell.is_pending()
                && plane.rung_at.is_some_and(|t| now.duration_since(t) < grace);
            if suspended && !kick_in_flight && self.fastpath_work_pending() {
                self.record_recovery(
                    Counter::IoWatchdogKicks,
                    TraceKind::Sched,
                    Some(host_core),
                    || "io.watchdog found stranded kick".to_string(),
                );
                self.planes[PlaneId::Io].doorbell.acknowledge();
                self.activate_plane(PlaneId::Io, true);
            }
        }
        self.ivc_watchdog_scan(now, grace);
        self.elastic_watchdog_scan(now);
    }

    /// How long a healthy doorbell takes to land (mailbox write, IPI
    /// delivery, interrupt entry), with 4× headroom. The watchdog treats
    /// work older than this as stranded, so a doorbell still in flight
    /// is never mistaken for a dropped one.
    fn doorbell_grace(&self) -> SimDuration {
        let p = &self.config.machine;
        (p.mailbox_write + p.ipi_deliver + p.irq_entry) * 4
    }

    /// Records one fault recovery: bumps the `reason` counter, leaves a
    /// recovery mark under its name beside the spans that led up to it,
    /// and writes the
    /// structured trace record `detail` on `core`.
    pub(crate) fn record_recovery(
        &mut self,
        reason: Counter,
        kind: TraceKind,
        core: Option<CoreId>,
        detail: impl FnOnce() -> String,
    ) {
        self.metrics.counters.incr(reason);
        self.trace.mark_recovery(self.queue.now(), reason.name());
        self.trace.record(kind, core.map(|c| c.0), detail);
    }

    /// The inter-CVM-channel part of the watchdog tick: rings the
    /// channel doorbell again for any direction with published messages
    /// that have sat unobserved longer than `grace` — healing dropped
    /// (or misrouted) doorbells without host involvement in the happy
    /// path.
    fn ivc_watchdog_scan(&mut self, now: SimTime, grace: SimDuration) {
        let mut stranded: Vec<(usize, bool)> = Vec::new();
        for (i, ch) in self.ivc.iter().enumerate() {
            for (a_to_b, dir) in [(true, &ch.a_to_b), (false, &ch.b_to_a)] {
                if dir.ring.pending() == 0 {
                    continue;
                }
                let Some(t) = dir.published_at else { continue };
                if now.duration_since(t) >= grace {
                    stranded.push((i, a_to_b));
                }
            }
        }
        for (i, a_to_b) in stranded {
            let (channel, spi) = (self.ivc[i].channel, self.ivc[i].spi);
            let dir = if a_to_b {
                &mut self.ivc[i].a_to_b
            } else {
                &mut self.ivc[i].b_to_a
            };
            // Refresh the stamp so the next tick doesn't re-fire while
            // this re-ring is still in flight.
            dir.published_at = Some(now);
            let to = dir.to;
            let core = self.vms[to.0 .0].vcpus[to.1 as usize].core;
            self.record_recovery(
                Counter::IvcWatchdogRecovered,
                TraceKind::Irq,
                Some(core),
                || format!("ivc.watchdog re-ring ch{channel}"),
            );
            self.queue.schedule_after(
                self.config.machine.ipi_deliver,
                SystemEvent::IpiArrive {
                    core,
                    intid: IntId::spi(spi),
                },
            );
        }
    }

    /// The I/O-plane part of the watchdog tick: re-announces stranded
    /// used-ring completions whose delegated interrupt was lost.
    fn io_completion_watchdog(&mut self, now: SimTime) {
        // Only treat a completion as stranded once it has sat in the
        // used ring longer than any healthy delegated delivery takes.
        let grace = {
            let p = &self.config.machine;
            (p.device_irq_deliver + p.irq_entry) * 4
        };
        let mut stranded: Vec<(VmId, u32, CoreId)> = Vec::new();
        for vm_idx in 0..self.vms.len() {
            for di in 0..self.vms[vm_idx].devices.len() {
                let d = &self.vms[vm_idx].devices[di];
                let Some(t) = d.completion_posted_at else {
                    continue;
                };
                if now.duration_since(t) < grace {
                    continue;
                }
                for (q, pair) in d.queues.iter().enumerate() {
                    if pair.tx.used_len() > 0 || pair.rx.used_len() > 0 {
                        let core = self.vms[vm_idx].vcpus[q].core;
                        stranded.push((VmId(vm_idx), di as u32, core));
                    }
                }
            }
        }
        for (vm, device, core) in stranded {
            self.record_recovery(
                Counter::IoWatchdogRecovered,
                TraceKind::Irq,
                Some(core),
                || format!("io.watchdog re-announce {vm} dev{device}"),
            );
            // Refresh the stamp so the next tick doesn't re-fire while
            // this re-announcement is still in flight.
            self.vms[vm.0].devices[device as usize].completion_posted_at = Some(now);
            self.queue.schedule_after(
                self.config.machine.device_irq_deliver,
                SystemEvent::DeviceIrqArrive {
                    core,
                    vm,
                    device,
                    ctx: cg_sim::TraceCtx::NULL,
                },
            );
        }
    }

    fn on_disk_done(&mut self, vm: VmId, device: u32, tag: u64, ctx: cg_sim::TraceCtx) {
        if self.vms[vm.0].devices[device as usize].fastpath() {
            // Fast path: the completion goes straight onto the owner's
            // used ring; the interrupt (if not suppressed) is delegated
            // to that vCPU's dedicated core.
            let owner = self.vms[vm.0].devices[device as usize]
                .tag_owner
                .get(&tag)
                .copied()
                .unwrap_or(0);
            self.post_fastpath_completion(
                vm,
                device,
                owner,
                false,
                cg_virtio::Descriptor::disk(0, tag, false).with_ctx(ctx),
            );
            return;
        }
        self.vms[vm.0].devices[device as usize]
            .done_queue
            .push_back(tag);
        let spi_core = {
            let spi = self.vms[vm.0].devices[device as usize].spi;
            self.machine.gic().spi_route(spi)
        };
        // The completion SPI travels to its routed core.
        self.queue.schedule_after(
            self.config.machine.device_irq_deliver,
            SystemEvent::DeviceIrqArrive {
                core: spi_core,
                vm,
                device,
                ctx: cg_sim::TraceCtx::NULL,
            },
        );
    }
}
