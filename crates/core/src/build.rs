//! VM construction: admission, core dedication, realm build, threads.

use std::collections::VecDeque;

use cg_cca::{RmiCall, RttLevel};
use cg_host::{DeviceKind, KvmVm, SchedClass, ThreadKind, VmExecMode, WakeupThread};
use cg_machine::{CoreId, GranuleAddr, RealmId};
use cg_rpc::SyncChannel;

use cg_workloads::{GuestProgram, NetPeer};

use crate::config::{RunTransport, VmSpec};
use crate::counters::Counter;
use crate::error::SystemError;
use crate::event::SystemEvent;
use crate::system::{
    CallTimer, DeviceInstance, PlaneId, System, ThreadCont, ThreadCtx, VcpuRt, Vm, VmId,
};

impl System {
    /// Adds a VM to the system: admits it, dedicates cores (core-gapped
    /// mode), builds the realm through the RMI (confidential modes),
    /// attaches devices, and spawns its host threads. The VM starts
    /// executing immediately.
    ///
    /// # Errors
    ///
    /// Returns a typed [`SystemError`] when admission fails (not enough
    /// cores) or the spec is inconsistent with the system configuration.
    pub fn add_vm(
        &mut self,
        spec: VmSpec,
        guest: Box<dyn GuestProgram>,
        peer: Option<Box<dyn NetPeer>>,
    ) -> Result<VmId, SystemError> {
        if spec.vcpus == 0 {
            return Err(SystemError::ZeroVcpus);
        }
        match spec.mode {
            VmExecMode::CoreGapped => {
                if !self.config.rmm.core_gapping {
                    return Err(SystemError::RmmModeMismatch(
                        "core-gapped VM on a non-core-gapping RMM",
                    ));
                }
            }
            VmExecMode::SharedCoreConfidential => {
                if self.config.rmm.core_gapping {
                    return Err(SystemError::RmmModeMismatch(
                        "shared-core CVM requires RmmConfig::shared_core()",
                    ));
                }
            }
            VmExecMode::SharedCore => {}
        }
        let vm_id = VmId(self.vms.len());

        // ----- placement -----
        let (realm, cores) = match spec.mode {
            VmExecMode::CoreGapped => {
                let realm = RealmId(self.rmm.realm_count());
                let cores = match &spec.vcpu_cores {
                    Some(c) => {
                        if c.len() != spec.vcpus as usize {
                            return Err(SystemError::PlacementMismatch);
                        }
                        c.clone()
                    }
                    None if spec.contiguous => {
                        self.planner.admit_contiguous(realm, spec.vcpus as u16)?
                    }
                    None => self.planner.admit(realm, spec.vcpus as u16)?,
                };
                // Hotplug each core offline and hand it to the RMM.
                for &core in &cores {
                    cg_host::hotplug::offline_for_dedication(
                        core,
                        &mut self.sched,
                        &mut self.machine,
                        cg_sim::SimDuration::millis(2),
                    );
                    self.rmm
                        .dedicate_core(core, &mut self.machine)
                        .map_err(|e| SystemError::Setup(e.to_string()))?;
                    self.cores[core.index()].run = crate::system::CoreRun::RmmPolling;
                }
                (realm, cores)
            }
            VmExecMode::SharedCoreConfidential => {
                let realm = RealmId(self.rmm.realm_count());
                (realm, self.shared_placement(&spec)?)
            }
            VmExecMode::SharedCore => {
                let realm = RealmId(self.next_fake_realm);
                self.next_fake_realm += 1;
                (realm, self.shared_placement(&spec)?)
            }
        };

        // ----- realm construction (confidential modes) -----
        if spec.mode.is_confidential() {
            if let Err(e) = self.build_realm(realm, spec.vcpus, vm_id, spec.data_pages) {
                self.rollback_placement(realm, &cores, spec.mode);
                return Err(SystemError::Setup(e));
            }
        }

        self.finish_vm_setup(vm_id, &spec, realm, cores, guest, peer);

        // Requested inter-CVM pairing: both realms are active by now (the
        // peer was built by an earlier add_vm, this one just above), so
        // the handshake binds to final measurements.
        if let Some(p) = spec.ivc_peer {
            let peer_vm = VmId(p.peer_vm as usize);
            if peer_vm == vm_id || peer_vm.0 >= self.vms.len() {
                return Err(SystemError::IvcPeerMissing(p.peer_vm));
            }
            self.allow_ivc_pair(vm_id, peer_vm)
                .map_err(SystemError::Setup)?;
            self.connect_ivc(vm_id, peer_vm, p.channel)?;
        }
        Ok(vm_id)
    }

    /// Unwinds the placement of a core-gapped VM whose realm
    /// construction (build or migration import) failed: the dedicated
    /// cores come back online under the host and the planner allocation
    /// is released, so a failed add leaves the free-core count
    /// unchanged.
    pub(crate) fn rollback_placement(
        &mut self,
        realm: RealmId,
        cores: &[CoreId],
        mode: VmExecMode,
    ) {
        if mode != VmExecMode::CoreGapped {
            return;
        }
        for &core in cores {
            let _ = self.rmm.reclaim_core(core, &mut self.machine);
            self.cores[core.index()].run = crate::system::CoreRun::HostIdle;
            self.core_vcpu[core.index()] = None;
        }
        // Explicitly placed VMs were never admitted by the planner.
        let _ = self.planner.release(realm);
    }

    /// Everything after the realm exists: KVM VM, devices, vCPU
    /// threads, the lazy wake-up/I/O-plane threads, peer bootstrap, and
    /// the first dispatch. Shared between [`System::add_vm`] (realm
    /// built through the standard RMI sequence) and the migration
    /// import path (realm rebuilt from a sealed blob).
    pub(crate) fn finish_vm_setup(
        &mut self,
        vm_id: VmId,
        spec: &VmSpec,
        realm: RealmId,
        cores: Vec<CoreId>,
        guest: Box<dyn GuestProgram>,
        peer: Option<Box<dyn NetPeer>>,
    ) {
        let now = self.now();

        // ----- KVM VM + devices -----
        let mut kvm = KvmVm::new(realm, spec.mode, spec.vcpus);
        let mut vmm = cg_host::Vmm::new();
        let mut devices = Vec::new();
        // VMM threads are restricted to the host cores in every mode: in
        // shared-core experiments the host cores *are* the workload's N
        // cores (§5.1); under core gapping they are the single extra core.
        let host_cores = self.host_cores();
        let vmm_affinity: Vec<CoreId> = host_cores.clone();
        // The fast path needs a dedicated core to ring the I/O doorbell
        // from, so it is core-gapped only; SR-IOV devices already bypass
        // the VMM and keep their direct path.
        let io_fastpath = spec.io_fastpath && spec.mode == VmExecMode::CoreGapped;
        // Virtqueue rings live in unprotected shared memory, above the
        // realm data granules (one region per VM, disjoint by VM index).
        let mut vq_next = 0x8_0000_0000u64 + (vm_id.0 as u64) * 0x1000_0000;
        for (idx, &kind) in spec.devices.iter().enumerate() {
            let dev_id = vmm.add_device(kind);
            let spi = self.alloc_spi();
            let fastpath_dev = io_fastpath && kind != DeviceKind::SriovNic;
            // Device SPIs normally route to the host core; with the
            // direct-delivery extension — and always on the fast path,
            // whose completion interrupts are delegated — they route to
            // the CVM's first dedicated core, where the RMM injects them
            // locally (§5.3).
            let route = if (self.config.rmm.direct_device_delivery || fastpath_dev)
                && spec.mode == VmExecMode::CoreGapped
            {
                cores[0]
            } else {
                host_cores[0]
            };
            self.machine.gic_mut().route_spi(spi, route);
            if fastpath_dev {
                // Register the completion SPI for delegated injection:
                // the RMM injects it at the dedicated core without a
                // host round-trip.
                self.rmm.delegate_spi(spi);
            }
            kvm.devices_mut().route(idx as u32, dev_id);
            let io_thread = if kind == DeviceKind::SriovNic || fastpath_dev {
                None
            } else {
                let tid = self.sched.spawn(
                    ThreadKind::VmmIo(dev_id),
                    SchedClass::Fair,
                    vmm_affinity.iter().copied(),
                );
                self.threads.insert(
                    tid,
                    ThreadCtx {
                        cont: ThreadCont::VmmDrain {
                            vm: vm_id,
                            device: idx as u32,
                            staged: None,
                        },
                        pending: cg_sim::SimDuration::ZERO,
                    },
                );
                Some(tid)
            };
            // Multi-queue: one pair per vCPU, rings granule-aligned in
            // the shared (NonSecure) region.
            let queues = if fastpath_dev {
                (0..spec.vcpus)
                    .map(|_| {
                        let base = GranuleAddr::new(vq_next).expect("granule aligned");
                        let pair = cg_virtio::QueuePair::new(base, 256, spec.io_event_idx);
                        vq_next += pair.granules() * 4096;
                        self.metrics.counters.incr(Counter::SetupVirtqueues);
                        pair
                    })
                    .collect()
            } else {
                Vec::new()
            };
            devices.push(DeviceInstance {
                id: dev_id,
                kind,
                spi,
                io_thread,
                rx_inbox: VecDeque::new(),
                rx_pending: VecDeque::new(),
                done_queue: VecDeque::new(),
                rx_count: 0,
                pending_notify: 0,
                tag_owner: std::collections::HashMap::new(),
                queues,
                completion_posted_at: None,
            });
        }

        // ----- vCPU threads -----
        let mut vcpus = Vec::new();
        let mut run_channels = Vec::new();
        for i in 0..spec.vcpus {
            let (class, affinity) = match spec.mode {
                VmExecMode::CoreGapped => (SchedClass::Fifo(2), host_cores.clone()),
                _ => (SchedClass::Fair, vec![cores[i as usize]]),
            };
            let tid = self.sched.spawn(
                ThreadKind::Vcpu(kvm.rec(i)),
                class,
                affinity.iter().copied(),
            );
            kvm.set_thread(i, tid);
            self.threads.insert(
                tid,
                ThreadCtx {
                    cont: ThreadCont::VcpuIssue { vm: vm_id, vcpu: i },
                    pending: cg_sim::SimDuration::ZERO,
                },
            );
            let core = cores[i as usize];
            self.core_vcpu[core.index()] = Some((vm_id, i));
            vcpus.push(VcpuRt {
                core,
                thread: tid,
                exit_posted_at: None,
                vipi_sent_at: None,
                pending_entry: None,
                pending_exit: None,
                roundtrip_span: cg_sim::SpanId::NULL,
                handle_span: cg_sim::SpanId::NULL,
                handle_ctx: cg_sim::TraceCtx::NULL,
                call_seq: 0,
                call_attempt: 0,
                call_timer: CallTimer::Off,
                call_issued_at: None,
            });
            run_channels.push(SyncChannel::new());
        }

        // ----- doorbell planes (one of each per system, created lazily) -----
        if spec.mode == VmExecMode::CoreGapped && spec.transport == RunTransport::AsyncIpi {
            self.spawn_plane(PlaneId::Exit, &host_cores);
        }
        if let Some(w) = &mut self.planes[PlaneId::Exit].thread {
            w.watch(spec.vcpus);
        }
        if io_fastpath && devices.iter().any(|d| d.fastpath()) {
            self.spawn_plane(PlaneId::Io, &host_cores);
        }

        // ----- peer bootstrap -----
        let mut peer = peer;
        if let Some(p) = &mut peer {
            let initial = p.initial_packets();
            if let Some(net_dev) = spec
                .devices
                .iter()
                .position(|k| matches!(k, DeviceKind::VirtioNet | DeviceKind::SriovNic))
            {
                for (t, pkt) in initial {
                    let at = t.max(now) + self.config.host.nic_wire_latency;
                    self.queue.schedule_at(
                        at,
                        SystemEvent::WireToGuest {
                            vm: vm_id,
                            device: net_dev as u32,
                            bytes: pkt.bytes,
                            flow: pkt.flow,
                        },
                    );
                }
            }
        }

        self.vms.push(Vm {
            kvm,
            guest,
            vmm,
            devices,
            peer,
            run_channels,
            vcpus,
            transport: spec.transport,
            paused: false,
            started: now,
            finished: None,
            cur_op: (0..spec.vcpus).map(|_| None).collect(),
            console_writes: 0,
            io_fastpath,
            pending_elastic: (0..spec.vcpus).map(|_| None).collect(),
            retired: vec![false; spec.vcpus as usize],
        });

        // Start executing: host cores pick up the new runnable threads.
        for core in self.host_cores() {
            self.dispatch(core);
        }
    }

    /// Spawns plane `id`'s FIFO thread on the host cores, aims its
    /// doorbell at the first of them, and arms the watchdog that
    /// backstops its doorbell. A no-op once the plane exists.
    fn spawn_plane(&mut self, id: PlaneId, host_cores: &[CoreId]) {
        if self.planes[id].thread.is_some() {
            return;
        }
        let tid = self.sched.spawn(
            ThreadKind::Wakeup,
            SchedClass::Fifo(3),
            host_cores.iter().copied(),
        );
        self.threads.insert(
            tid,
            ThreadCtx {
                cont: self.planes[id].idle.clone(),
                pending: cg_sim::SimDuration::ZERO,
            },
        );
        let plane = &mut self.planes[id];
        plane.thread = Some(WakeupThread::new(plane.name, tid));
        plane.doorbell.set_target(host_cores[0]);
        self.arm_watchdog();
    }

    /// Arms the periodic watchdog, once, with the first thing it
    /// checks: a plane's doorbell, an IVC channel or a queued elastic
    /// operation.
    pub(crate) fn arm_watchdog(&mut self) {
        let period = self.config.recovery.watchdog_period;
        if self.watchdog_armed || !self.config.recovery.enabled || period.is_zero() {
            return;
        }
        self.watchdog_armed = true;
        self.queue.schedule_after(
            period,
            SystemEvent::WatchdogTick {
                period_ns: period.as_nanos(),
            },
        );
    }

    fn shared_placement(&self, spec: &VmSpec) -> Result<Vec<CoreId>, SystemError> {
        if let Some(c) = &spec.vcpu_cores {
            if c.len() != spec.vcpus as usize {
                return Err(SystemError::PlacementMismatch);
            }
            return Ok(c.clone());
        }
        let hosts = self.host_cores();
        if (spec.vcpus as usize) > hosts.len() {
            return Err(SystemError::Setup(format!(
                "shared-core VM with {} vCPUs needs that many host cores (have {}); \
                 set SystemConfig::num_host_cores accordingly",
                spec.vcpus,
                hosts.len()
            )));
        }
        Ok(hosts[..spec.vcpus as usize].to_vec())
    }

    /// Builds a realm through the standard RMI sequence: granule
    /// delegation, realm/REC creation, RTT chain, initial data pages,
    /// activation. Setup is not on any measured path, so the calls apply
    /// instantly (their costs are recorded as counters).
    fn build_realm(
        &mut self,
        realm: RealmId,
        vcpus: u32,
        vm: VmId,
        num_data_pages: u32,
    ) -> Result<(), String> {
        let base = 0x1_0000_0000u64 + (vm.0 as u64) * 0x1000_0000;
        let mut next = base;
        let mut alloc = || {
            let g = GranuleAddr::new(next).expect("4 KiB aligned by construction");
            next += 4096;
            g
        };
        let host_core = CoreId(0);
        let rmi = |sys: &mut System, call: RmiCall| -> Result<(), String> {
            let out = sys.rmm.handle_rmi(host_core, call, &mut sys.machine);
            sys.metrics.counters.incr(Counter::SetupRmiCalls);
            if out.status.is_success() {
                Ok(())
            } else {
                Err(format!("{call} failed: {:?}", out.status))
            }
        };

        // Delegate a pool of granules: rd, rtt root, RTT tables (3),
        // the initial data pages, one per REC.
        let rd = alloc();
        let _rtt_root = alloc();
        let rtt_tables: Vec<GranuleAddr> = (0..3).map(|_| alloc()).collect();
        let data_pages: Vec<GranuleAddr> = (0..num_data_pages).map(|_| alloc()).collect();
        let rec_granules: Vec<GranuleAddr> = (0..vcpus).map(|_| alloc()).collect();
        let total = 2 + 3 + num_data_pages as u64 + vcpus as u64;
        for i in 0..total {
            rmi(self, RmiCall::GranuleDelegate { addr: rd.offset(i) })?;
        }

        rmi(
            self,
            RmiCall::RealmCreate {
                rd,
                num_recs: vcpus,
            },
        )?;
        for (lvl, &g) in rtt_tables.iter().enumerate() {
            rmi(
                self,
                RmiCall::RttCreate {
                    realm,
                    rtt: g,
                    ipa: 0,
                    level: RttLevel(lvl as u8 + 1),
                },
            )?;
        }
        for (i, &g) in data_pages.iter().enumerate() {
            rmi(
                self,
                RmiCall::DataCreate {
                    realm,
                    data: g,
                    ipa: (i as u64 + 1) * 4096,
                },
            )?;
        }
        for (i, &g) in rec_granules.iter().enumerate() {
            rmi(
                self,
                RmiCall::RecCreate {
                    realm,
                    index: i as u32,
                    rec: g,
                },
            )?;
        }
        rmi(self, RmiCall::RealmActivate { realm })?;
        Ok(())
    }

    /// Host-initiated suspend (paper §7: core-gapped VMs retain
    /// "host-initiated suspend/resume"): stops issuing run calls; vCPUs
    /// currently in guest are kicked out and park once their exits are
    /// handled. The realm state (and its dedicated cores) stay intact.
    pub fn pause_vm(&mut self, vm: VmId) {
        self.vms[vm.0].paused = true;
        for vcpu in 0..self.vms[vm.0].kvm.num_vcpus() {
            if self.vms[vm.0].kvm.in_guest(vcpu) {
                self.apply_host_action(vm, cg_host::HostAction::KickVcpu { vcpu });
            }
        }
        self.metrics.counters.incr(Counter::SystemPauses);
    }

    /// Resumes a paused VM: parked vCPU threads are woken and issue
    /// their next run calls.
    pub fn resume_vm(&mut self, vm: VmId) {
        if !std::mem::replace(&mut self.vms[vm.0].paused, false) {
            return;
        }
        for vcpu in 0..self.vms[vm.0].kvm.num_vcpus() {
            let tid = self.vms[vm.0].vcpus[vcpu as usize].thread;
            let parked = matches!(
                self.threads.get(&tid).map(|c| &c.cont),
                Some(ThreadCont::VcpuPaused { .. })
            );
            if parked && self.sched.is_blocked(tid) {
                self.set_cont(tid, ThreadCont::VcpuIssue { vm, vcpu });
                let (core, preempts) = self.sched.wake(tid);
                self.after_wake(core, preempts);
            }
        }
        self.metrics.counters.incr(Counter::SystemResumes);
    }

    /// Requests an attestation token for `vm` with the given challenge —
    /// what the guest owner verifies before trusting the CVM (§2.4). The
    /// token binds the (core-gapping) RMM measurement and the realm
    /// initial measurement.
    ///
    /// # Errors
    ///
    /// Returns an error for non-confidential VMs (nothing to attest).
    pub fn attest(&self, vm: VmId, challenge: u64) -> Result<cg_cca::AttestationToken, String> {
        let v = &self.vms[vm.0];
        if !v.kvm.mode().is_confidential() {
            return Err("non-confidential VMs have no attestation".into());
        }
        let realm = self
            .rmm
            .realm(v.kvm.realm())
            .ok_or_else(|| "realm not found".to_owned())?;
        Ok(cg_cca::AttestationToken::issue(
            &cg_cca::PlatformCert::example(),
            self.rmm.platform_measurement(),
            realm.measurement(),
            challenge,
        ))
    }

    /// Establishes the attestation-gated pairing policy entry for two
    /// confidential VMs: the RMM will only honour `IVC_CHANNEL_CREATE`
    /// for realm pairs whose *measurements* were explicitly allowed, so
    /// a host swapping in a different image voids the pairing.
    ///
    /// # Errors
    ///
    /// Returns an error if either VM is not confidential.
    pub fn allow_ivc_pair(&mut self, a: VmId, b: VmId) -> Result<(), String> {
        for &v in &[a, b] {
            if !self.vms[v.0].kvm.mode().is_confidential() {
                return Err(format!("{v} is not confidential: nothing to attest"));
            }
        }
        let ma = self
            .rmm
            .realm(self.vms[a.0].kvm.realm())
            .ok_or_else(|| "realm not found".to_owned())?
            .measurement();
        let mb = self
            .rmm
            .realm(self.vms[b.0].kvm.realm())
            .ok_or_else(|| "realm not found".to_owned())?
            .measurement();
        self.rmm.allow_ivc_pair(ma, mb);
        Ok(())
    }

    /// Establishes an attested inter-CVM shared-memory channel between
    /// two core-gapped VMs: builds the RTT chain covering the shared
    /// window in both realms' unprotected halves, then issues
    /// `IVC_CHANNEL_CREATE` so the RMM validates the measurement pair,
    /// maps the window into both realms, and delegates the doorbell SPI
    /// for realm-core → realm-core notification.
    ///
    /// Both realms must already be active (measurements final) — call
    /// after both `add_vm`s — and the pair must have been allowed via
    /// [`System::allow_ivc_pair`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`SystemError`] when either VM is not
    /// core-gapped, the channel id is in use, or any RMI step fails
    /// (e.g. the measurement pair was not allowed).
    pub fn connect_ivc(&mut self, a: VmId, b: VmId, channel: u32) -> Result<(), SystemError> {
        if a == b {
            return Err(SystemError::IvcSelfChannel);
        }
        for &v in &[a, b] {
            if self.vms[v.0].kvm.mode() != VmExecMode::CoreGapped {
                return Err(SystemError::NotCoreGapped(v));
            }
        }
        if self.ivc.iter().any(|c| c.channel == channel) {
            return Err(SystemError::IvcChannelBusy(channel));
        }
        // One shared-window region per channel, disjoint from realm data
        // (0x1_...) and virtqueue (0x8_...) regions. The ring window is
        // the first IVC_WINDOW_GRANULES granules; the RTT table granules
        // for both realms' unprotected chains follow it.
        let window_pa = 0xC_0000_0000u64 + (channel as u64) * 0x1000_0000;
        let window = GranuleAddr::new(window_pa).expect("granule aligned");
        let window_ipa = cg_rmm::rtt::UNPROTECTED_BIT | window_pa;
        let spi = self.alloc_spi();
        let rmi = |sys: &mut System, call: RmiCall| -> Result<(), SystemError> {
            let out = sys.rmm.handle_rmi(CoreId(0), call, &mut sys.machine);
            sys.metrics.counters.incr(Counter::SetupRmiCalls);
            if out.status.is_success() {
                Ok(())
            } else {
                Err(SystemError::Setup(format!(
                    "{call} failed: {:?}",
                    out.status
                )))
            }
        };
        let mut table = cg_ivc::IVC_WINDOW_GRANULES;
        for &v in &[a, b] {
            let realm = self.vms[v.0].kvm.realm();
            // Only build the levels this realm's unprotected chain is
            // actually missing: an earlier channel's window may already
            // share the upper tables.
            let missing = self
                .rmm
                .realm(realm)
                .ok_or_else(|| SystemError::Setup("realm not found".to_owned()))?
                .rtt()
                .missing_levels(window_ipa);
            for lvl in missing {
                let g = window.offset(table);
                table += 1;
                rmi(self, RmiCall::GranuleDelegate { addr: g })?;
                rmi(
                    self,
                    RmiCall::RttCreate {
                        realm,
                        rtt: g,
                        ipa: window_ipa,
                        level: lvl,
                    },
                )?;
            }
        }
        let realm_a = self.vms[a.0].kvm.realm();
        let realm_b = self.vms[b.0].kvm.realm();
        // The doorbell SPI's nominal GIC route: the exec layer signals
        // the consumer's dedicated core directly per message, so the
        // route only matters as a default.
        let route = self.vms[b.0].vcpus[0].core;
        self.machine.gic_mut().route_spi(spi, route);
        rmi(
            self,
            RmiCall::IvcChannelCreate {
                channel,
                realm_a,
                realm_b,
                window,
                spi,
            },
        )?;
        let ring_cap = 256u16;
        self.ivc.push(crate::system::IvcChannelRt {
            channel,
            spi,
            a_to_b: crate::system::IvcDirRt {
                from: (a, 0),
                to: (b, 0),
                ring: cg_ivc::MsgRing::new(ring_cap),
                published_at: None,
            },
            b_to_a: crate::system::IvcDirRt {
                from: (b, 0),
                to: (a, 0),
                ring: cg_ivc::MsgRing::new(ring_cap),
                published_at: None,
            },
        });
        self.metrics.counters.incr(Counter::SetupIvcChannels);
        self.arm_watchdog();
        Ok(())
    }

    /// Tears down a finished VM: destroys its inter-CVM channels and
    /// RECs and realm, undelegates its fast-path completion SPIs,
    /// reclaims dedicated cores (hotplugging them back online), and
    /// returns them to the planner pool.
    ///
    /// # Errors
    ///
    /// Returns an error if any vCPU is still live.
    pub fn destroy_vm(&mut self, vm: VmId) -> Result<(), String> {
        if !self.vms[vm.0].kvm.all_finished() {
            return Err("cannot destroy a VM with live vCPUs".into());
        }
        let realm = self.vms[vm.0].kvm.realm();
        let mode = self.vms[vm.0].kvm.mode();
        // Tear down the run channels through abort() so any call still
        // mid-protocol is counted and traced rather than silently
        // dropped with the channel storage.
        for i in 0..self.vms[vm.0].run_channels.len() {
            if self.vms[vm.0].run_channels[i].abort().is_some() {
                self.metrics.counters.incr(Counter::ChanAborts);
                self.wake_call_timeout(vm, i as u32);
            }
        }
        // Inter-CVM channels die with either endpoint: the RMM unmaps
        // the window from both realms and undelegates the doorbell SPI.
        let dead: Vec<u32> = self
            .ivc
            .iter()
            .filter(|c| c.a_to_b.from.0 == vm || c.a_to_b.to.0 == vm)
            .map(|c| c.channel)
            .collect();
        for channel in dead {
            let out = self.rmm.handle_rmi(
                CoreId(0),
                RmiCall::IvcChannelDestroy { channel },
                &mut self.machine,
            );
            if !out.status.is_success() {
                return Err(format!("IVC_CHANNEL_DESTROY failed: {:?}", out.status));
            }
            self.ivc.retain(|c| c.channel != channel);
        }
        // Undelegate fast-path completion SPIs: without this, a later
        // VM reusing the SPI number would inherit delegated injection.
        let fastpath_spis: Vec<u32> = self.vms[vm.0]
            .devices
            .iter()
            .filter(|d| d.fastpath())
            .map(|d| d.spi)
            .collect();
        for spi in fastpath_spis {
            self.rmm.undelegate_spi(spi);
        }
        if mode.is_confidential() {
            for i in 0..self.vms[vm.0].kvm.num_vcpus() {
                let rec = self.vms[vm.0].kvm.rec(i);
                let out =
                    self.rmm
                        .handle_rmi(CoreId(0), RmiCall::RecDestroy { rec }, &mut self.machine);
                if !out.status.is_success() {
                    return Err(format!("REC_DESTROY failed: {:?}", out.status));
                }
            }
            let out = self.rmm.handle_rmi(
                CoreId(0),
                RmiCall::RealmDestroy { realm },
                &mut self.machine,
            );
            if !out.status.is_success() {
                return Err(format!("REALM_DESTROY failed: {:?}", out.status));
            }
        }
        if mode == VmExecMode::CoreGapped {
            // Retired vCPUs already released their cores at scale-down;
            // their `core` field is a stale id that may belong to
            // another VM by now.
            let cores: Vec<CoreId> = self.vms[vm.0]
                .vcpus
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.vms[vm.0].retired[*i])
                .map(|(_, v)| v.core)
                .collect();
            for core in cores {
                self.rmm
                    .reclaim_core(core, &mut self.machine)
                    .map_err(|e| e.to_string())?;
                self.cores[core.index()].run = crate::system::CoreRun::HostIdle;
                self.core_vcpu[core.index()] = None;
            }
            // Explicitly placed VMs were never admitted by the planner.
            let _ = self.planner.release(realm);
        }
        self.metrics.counters.incr(Counter::SystemVmsDestroyed);
        Ok(())
    }

    fn alloc_spi(&mut self) -> u32 {
        let spi = self.metrics.counters[Counter::SetupSpis] as u32;
        self.metrics.counters.incr(Counter::SetupSpis);
        spi
    }
}
