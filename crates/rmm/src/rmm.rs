//! The RMM proper: RMI command handling and guest-event dispositions.

use cg_cca::{Measurement, RecExit, RecExitReason, RecId, RmiCall, RmiStatus};
use cg_ivc::{ChannelConfig, PairPolicy, IVC_WINDOW_GRANULES};
use cg_machine::{CoreId, Domain, GranuleAddr, GranuleState, IntId, Machine, RealmId};
use cg_sim::{SimDuration, SimTime};

use crate::coregap::{CoreGap, CoreGapError};
use crate::interrupts::DelegationConfig;
use crate::migrate::{GranuleFrame, MigrationBlob, RecFrame};
use crate::realm::{Realm, RealmState};
use crate::rec::{Rec, RecState};
use crate::rtt::{ipa_is_unprotected, Rtt, RttError};

/// The SGI number the RMM uses as its realm-to-realm doorbell on
/// dedicated cores (delegated IPI transport). Distinct from the host's
/// CVM-exit doorbell, which lives in the host's SGI allocation.
pub const REALM_DOORBELL_SGI: IntId = IntId::sgi(14);

/// Per-operation monitor work costs (time spent in RMM code, excluding
/// architectural transition costs which come from
/// [`cg_machine::HwParams`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RmmCosts {
    /// Trivial queries (RMI_VERSION).
    pub query: SimDuration,
    /// Granule delegation: GPT update plus cache/TLB maintenance.
    pub granule: SimDuration,
    /// Realm/REC object creation or destruction.
    pub object: SimDuration,
    /// RTT manipulation (table create, map, unmap).
    pub rtt_op: SimDuration,
    /// Bookkeeping on the REC-enter path beyond context restore.
    pub enter_extra: SimDuration,
    /// Bookkeeping on the exit path beyond context save (exit-record
    /// construction, list-register sync).
    pub exit_extra: SimDuration,
}

impl Default for RmmCosts {
    fn default() -> RmmCosts {
        RmmCosts {
            query: SimDuration::nanos(40),
            granule: SimDuration::nanos(450),
            object: SimDuration::nanos(700),
            rtt_op: SimDuration::nanos(400),
            enter_extra: SimDuration::nanos(250),
            exit_extra: SimDuration::nanos(250),
        }
    }
}

/// RMM configuration: which of the paper's mechanisms are active.
#[derive(Debug, Clone, PartialEq)]
pub struct RmmConfig {
    /// Enforce core gapping (dedicated cores, bindings, remote exits).
    /// When `false` the RMM behaves like the baseline shared-core RMM.
    pub core_gapping: bool,
    /// Interrupt delegation configuration (§4.4).
    pub delegation: DelegationConfig,
    /// Direct device-interrupt delivery (the §5.3 extension the
    /// prototype lacks): SPIs routed to a dedicated core are injected
    /// locally by the RMM instead of exiting to the host.
    pub direct_device_delivery: bool,
    /// Monitor work costs.
    pub costs: RmmCosts,
}

impl RmmConfig {
    /// The paper's full core-gapped configuration.
    pub fn core_gapped() -> RmmConfig {
        RmmConfig {
            core_gapping: true,
            delegation: DelegationConfig::FULL,
            direct_device_delivery: false,
            costs: RmmCosts::default(),
        }
    }

    /// Core gapping with the direct device-interrupt delivery extension
    /// (§5.3: "Direct interrupt delivery could be supported through
    /// further changes to KVM and RMM").
    pub fn core_gapped_direct_delivery() -> RmmConfig {
        RmmConfig {
            direct_device_delivery: true,
            ..RmmConfig::core_gapped()
        }
    }

    /// Core gapping without interrupt delegation (the ablation in
    /// table 4 / fig. 6).
    pub fn core_gapped_no_delegation() -> RmmConfig {
        RmmConfig {
            core_gapping: true,
            delegation: DelegationConfig::NONE,
            direct_device_delivery: false,
            costs: RmmCosts::default(),
        }
    }

    /// Baseline shared-core RMM (confidential VM without core gapping).
    pub fn shared_core() -> RmmConfig {
        RmmConfig {
            core_gapping: false,
            delegation: DelegationConfig::NONE,
            direct_device_delivery: false,
            costs: RmmCosts::default(),
        }
    }
}

impl Default for RmmConfig {
    fn default() -> RmmConfig {
        RmmConfig::core_gapped()
    }
}

/// The RMM's own counts, for the tests and experiments that read them.
/// Everything else the RMM does is counted by the system that drives
/// it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RmmStats {
    /// RECs unbound from their dedicated core by a scale-down.
    pub rec_unbound: u64,
    /// Realms admitted by `MIGRATION_IMPORT`.
    pub imported: u64,
    /// Migration blobs refused for a broken seal or a wrong
    /// measurement.
    pub imports_rejected: u64,
    /// `IVC_CHANNEL_CREATE` calls refused by the pair policy.
    pub ivc_pairs_rejected: u64,
    /// IVC channels created.
    pub ivc_channels_created: u64,
    /// IVC channels destroyed.
    pub ivc_channels_destroyed: u64,
}

/// Result of an RMI command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RmiOutcome {
    /// Status code returned to the host.
    pub status: RmiStatus,
    /// Monitor time consumed handling the call.
    pub cost: SimDuration,
    /// For `REC_ENTER` with `Success`: the guest is now running on the
    /// handling core and the caller must drive its execution.
    pub entered: Option<RecId>,
}

impl RmiOutcome {
    fn fail(status: RmiStatus, cost: SimDuration) -> RmiOutcome {
        RmiOutcome {
            status,
            cost,
            entered: None,
        }
    }

    fn ok(cost: SimDuration) -> RmiOutcome {
        RmiOutcome {
            status: RmiStatus::Success,
            cost,
            entered: None,
        }
    }
}

/// An architectural event raised while a guest vCPU executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestEvent {
    /// The guest programmed its virtual timer (CNTV_CVAL/CTL write).
    TimerProgram {
        /// Requested expiry time.
        deadline: SimTime,
    },
    /// The guest disarmed its virtual timer.
    TimerCancel,
    /// The guest sent a virtual IPI (ICC_SGI1R write).
    SendIpi {
        /// Target vCPU index within the same realm.
        target_index: u32,
        /// SGI number (0–15).
        sgi: u32,
    },
    /// The guest executed WFI.
    Wfi,
    /// Emulated MMIO read.
    MmioRead {
        /// Guest physical address.
        ipa: u64,
        /// Access size in bytes.
        size: u8,
    },
    /// Emulated MMIO write.
    MmioWrite {
        /// Guest physical address.
        ipa: u64,
        /// Access size in bytes.
        size: u8,
        /// Value written.
        value: u64,
    },
    /// Explicit hypercall to the host.
    HostCall {
        /// Hypercall immediate.
        imm: u32,
    },
    /// Stage-2 fault (unmapped IPA).
    Stage2Fault {
        /// Faulting address.
        ipa: u64,
    },
    /// The vCPU powered itself off.
    Shutdown,
    /// A physical interrupt arrived at the core while the guest ran.
    PhysIrq {
        /// The physical INTID taken by the RMM.
        intid: IntId,
    },
}

/// What happens after the RMM handles a guest event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Disposition {
    /// Handled locally; the guest resumes on the same core after `cost`.
    Resume {
        /// Time consumed by trap handling.
        cost: SimDuration,
    },
    /// Handled locally; additionally a physical IPI must be sent to
    /// `target_core` (delegated cross-vCPU IPI).
    ResumeWithIpi {
        /// The dedicated core of the target vCPU.
        target_core: CoreId,
        /// Time consumed on the sending core.
        cost: SimDuration,
    },
    /// The guest is idle in WFI with nothing pending; the core waits in
    /// the RMM until an interrupt arrives (core-gapped mode only — the
    /// core is dedicated, so there is nothing else to run).
    Idle {
        /// Time consumed before idling.
        cost: SimDuration,
    },
    /// An interrupt the RMM refused to inject (an IVC doorbell at a
    /// vCPU that is no endpoint of its channel): a running guest
    /// resumes and an idle one stays in WFI, as if nothing had arrived.
    Rejected {
        /// Time consumed validating and dropping the interrupt.
        cost: SimDuration,
    },
    /// The host must service this exit; the REC has been saved and the
    /// exit record is ready for transport (RPC under core gapping, world
    /// switch otherwise).
    ExitToHost {
        /// The exit record for the host.
        exit: RecExit,
        /// Time consumed saving context and building the record.
        cost: SimDuration,
    },
}

/// A registered inter-CVM channel: the host-provided configuration plus
/// the two endpoint vCPUs (vCPU 0 of each paired realm). Doorbell SPIs
/// arriving anywhere else are forged or misrouted and are rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IvcChannelReg {
    cfg: ChannelConfig,
    a: RecId,
    b: RecId,
}

impl IvcChannelReg {
    /// The IPA both realms see granule `i` of the shared window at: the
    /// window's physical address aliased into the unprotected half.
    fn window_ipa(&self, i: u64) -> u64 {
        crate::rtt::UNPROTECTED_BIT | self.cfg.window.offset(i).as_u64()
    }
}

/// The realm management monitor.
///
/// # Example
///
/// ```
/// use cg_cca::{RmiCall, RmiStatus};
/// use cg_machine::{CoreId, GranuleAddr, HwParams, Machine};
/// use cg_rmm::{Rmm, RmmConfig};
///
/// let mut rmm = Rmm::new(RmmConfig::core_gapped());
/// let mut machine = Machine::new(HwParams::small()).unwrap();
/// let out = rmm.handle_rmi(CoreId(0), RmiCall::Version, &mut machine);
/// assert_eq!(out.status, RmiStatus::Success);
/// // Delegating a granule makes it inaccessible to the host.
/// let g = GranuleAddr::new(0x10_0000).unwrap();
/// let out = rmm.handle_rmi(CoreId(0), RmiCall::GranuleDelegate { addr: g }, &mut machine);
/// assert!(out.status.is_success());
/// assert!(machine.memory().check_access(cg_machine::Domain::Host, g).is_err());
/// ```
#[derive(Debug)]
pub struct Rmm {
    config: RmmConfig,
    realms: Vec<Option<Realm>>,
    coregap: CoreGap,
    platform_measurement: Measurement,
    /// SPIs registered for local injection (fast-path completion
    /// interrupts): delegated like the timer and IPIs, independent of
    /// the blanket `direct_device_delivery` extension.
    delegated_spis: std::collections::BTreeSet<u32>,
    /// Which measurement pairs the realm owners have authorised to share
    /// an inter-CVM channel; `IVC_CHANNEL_CREATE` is refused for any
    /// pair not on this list.
    ivc_policy: PairPolicy,
    /// Registered inter-CVM channels: config plus the two owner vCPUs
    /// whose cores may legitimately receive the channel's doorbell SPI.
    ivc_channels: Vec<IvcChannelReg>,
    /// A sealed blob produced by `MIGRATION_EXPORT`, awaiting pickup by
    /// the host's migration driver (the out-of-band bulk transport).
    migration_outbox: Option<MigrationBlob>,
    /// A blob the host staged for the next `MIGRATION_IMPORT`.
    staged_import: Option<MigrationBlob>,
    stats: RmmStats,
    /// Observation handle (disabled by default), handed to each REC's
    /// virtual GIC; delegated timer fires record spans covering the
    /// in-realm handling cost.
    trace: cg_sim::TraceHandle,
}

impl Rmm {
    /// Creates an RMM with the given configuration.
    pub fn new(config: RmmConfig) -> Rmm {
        Rmm::with_trace(config, cg_sim::TraceHandle::disabled())
    }

    /// Creates an RMM recording through `trace`, which every REC it
    /// creates or imports records through too.
    pub fn with_trace(config: RmmConfig, trace: cg_sim::TraceHandle) -> Rmm {
        let image = if config.core_gapping {
            Measurement::of(b"cg-rmm core-gapped v0.3.0+cg")
        } else {
            Measurement::of(b"cg-rmm baseline v0.3.0")
        };
        Rmm {
            config,
            realms: Vec::new(),
            coregap: CoreGap::new(),
            platform_measurement: image,
            delegated_spis: std::collections::BTreeSet::new(),
            ivc_policy: PairPolicy::new(),
            ivc_channels: Vec::new(),
            migration_outbox: None,
            staged_import: None,
            stats: RmmStats::default(),
            trace,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &RmmConfig {
        &self.config
    }

    /// Registers `spi` for delegated (local, exit-free) injection: the
    /// host nominates a fast-path device's completion interrupt at
    /// setup, and the RMM thereafter injects it into the bound realm's
    /// vGIC without a host round-trip.
    pub fn delegate_spi(&mut self, spi: u32) {
        self.delegated_spis.insert(IntId::spi(spi).0);
    }

    /// Removes `spi` from the delegated set — the teardown mirror of
    /// [`Rmm::delegate_spi`], called when the device or channel that
    /// owned the interrupt is destroyed so a later tenant of the same
    /// SPI number starts from a clean slate.
    pub fn undelegate_spi(&mut self, spi: u32) {
        self.delegated_spis.remove(&IntId::spi(spi).0);
    }

    /// Is `intid` a locally injected (delegated or direct-delivery) SPI?
    fn spi_delegated(&self, intid: IntId) -> bool {
        intid.is_spi()
            && (self.config.direct_device_delivery || self.delegated_spis.contains(&intid.0))
    }

    // ----- inter-CVM channels (IVC) -----

    /// Authorises the measurement pair `(a, b)` for inter-CVM channel
    /// creation. In a real deployment this policy arrives signed by the
    /// realm owners; the model takes it directly.
    pub fn allow_ivc_pair(&mut self, a: Measurement, b: Measurement) {
        self.ivc_policy.allow(a, b);
    }

    /// The approved IVC measurement pairs, canonical order. A migration
    /// driver mirrors these onto the destination node so a migrated
    /// CVM's channels pass the same pair policy after the move.
    pub fn ivc_pairs(&self) -> Vec<(Measurement, Measurement)> {
        self.ivc_policy.pairs().collect()
    }

    /// The configuration of a registered IVC channel, if any.
    pub fn ivc_channel(&self, channel: u32) -> Option<ChannelConfig> {
        self.ivc_channels
            .iter()
            .find(|c| c.cfg.channel == channel)
            .map(|c| c.cfg)
    }

    /// The endpoint vCPUs of a registered IVC channel, if any.
    pub fn ivc_channel_endpoints(&self, channel: u32) -> Option<(RecId, RecId)> {
        self.ivc_channels
            .iter()
            .find(|c| c.cfg.channel == channel)
            .map(|c| (c.a, c.b))
    }

    /// The registered IVC channel owning doorbell SPI `intid`, if any.
    fn ivc_channel_for_spi(&self, intid: IntId) -> Option<IvcChannelReg> {
        if !intid.is_spi() {
            return None;
        }
        self.ivc_channels
            .iter()
            .find(|c| IntId::spi(c.cfg.spi) == intid)
            .copied()
    }

    /// The measured RMM image (goes into attestation tokens).
    pub fn platform_measurement(&self) -> Measurement {
        self.platform_measurement
    }

    /// Core-gapping state (dedications and bindings).
    pub fn coregap(&self) -> &CoreGap {
        &self.coregap
    }

    /// The RMM's own counts: unbinds, migration imports and IVC
    /// channel policy.
    pub fn stats(&self) -> &RmmStats {
        &self.stats
    }

    /// Number of realm slots ever created — the id the next
    /// `RMI_REALM_CREATE` will assign.
    pub fn realm_count(&self) -> u32 {
        self.realms.len() as u32
    }

    /// Immutable access to a realm.
    pub fn realm(&self, id: RealmId) -> Option<&Realm> {
        self.realms.get(id.index()).and_then(|r| r.as_ref())
    }

    fn realm_mut(&mut self, id: RealmId) -> Option<&mut Realm> {
        self.realms.get_mut(id.index()).and_then(|r| r.as_mut())
    }

    /// Immutable access to a REC.
    pub fn rec(&self, id: RecId) -> Option<&Rec> {
        self.realm(id.realm).and_then(|r| r.rec(id.index))
    }

    fn rec_mut(&mut self, id: RecId) -> Option<&mut Rec> {
        self.realm_mut(id.realm).and_then(|r| r.rec_mut(id.index))
    }

    // ----- core dedication (host hotplug handover) -----

    /// Accepts a core the host's hotplug path handed over
    /// (`CORE_DEDICATE`).
    ///
    /// # Errors
    ///
    /// Forwards [`CoreGapError`] on double dedication.
    pub fn dedicate_core(
        &mut self,
        core: CoreId,
        machine: &mut Machine,
    ) -> Result<(), CoreGapError> {
        self.coregap.dedicate(core)?;
        machine.cpu_mut(core).dedicate_to_rmm();
        Ok(())
    }

    /// Releases an unbound dedicated core back to the host
    /// (`CORE_RECLAIM`).
    ///
    /// # Errors
    ///
    /// Forwards [`CoreGapError`] if the core is bound or not dedicated.
    pub fn reclaim_core(
        &mut self,
        core: CoreId,
        machine: &mut Machine,
    ) -> Result<(), CoreGapError> {
        self.coregap.release(core)?;
        machine.cpu_mut(core).unbind_realm();
        machine.cpu_mut(core).online();
        Ok(())
    }

    /// Moves `rec`'s vCPU→core binding to `to` (`REC_REBIND`): the
    /// live-rebind primitive behind elastic reallocation. The target
    /// must already be dedicated and either unbound or owned by the
    /// same realm; the vCPU must not be mid-run (it exits first — the
    /// host kicks it out). Equivalent to a REC binding teardown plus a
    /// fresh first-entry bind, so the monitor cost is two object
    /// operations; the architectural transition costs ride the next
    /// `REC_ENTER` as usual.
    ///
    /// # Errors
    ///
    /// [`CoreGapError::RecRunning`] while a run call is outstanding;
    /// [`CoreGapError::NotDedicated`] / [`CoreGapError::CoreBusy`] when
    /// the target core is not rebind-eligible.
    pub fn rebind_rec(
        &mut self,
        rec: RecId,
        to: CoreId,
        machine: &mut Machine,
    ) -> Result<SimDuration, CoreGapError> {
        if self.rec(rec).map(|r| r.state()) == Some(RecState::Running) {
            return Err(CoreGapError::RecRunning);
        }
        if !self.coregap.is_dedicated(to) {
            return Err(CoreGapError::NotDedicated);
        }
        if let Some(owner) = self.coregap.core_owner(to) {
            if owner != rec.realm {
                return Err(CoreGapError::CoreBusy { owner });
            }
        }
        let old = self.coregap.binding(rec);
        self.coregap.unbind(rec);
        if let Some(core) = old {
            if self.coregap.core_owner(core).is_none() {
                machine.cpu_mut(core).unbind_realm();
            }
        }
        self.coregap
            .check_and_bind(rec, to)
            .expect("target validated rebind-eligible above");
        machine.cpu_mut(to).bind_realm(rec.realm);
        Ok(self.config.costs.object * 2)
    }

    /// Drops `rec`'s vCPU→core binding without destroying the REC
    /// (scale-down: the core is reclaimed, the REC lies dormant until a
    /// scale-up re-enters it on a fresh core). Returns the core the
    /// vCPU was bound to, or `None` if it was never bound.
    pub fn unbind_rec(&mut self, rec: RecId, machine: &mut Machine) -> Option<CoreId> {
        let core = self.coregap.binding(rec)?;
        self.coregap.unbind(rec);
        if self.coregap.core_owner(core).is_none() {
            machine.cpu_mut(core).unbind_realm();
        }
        self.stats.rec_unbound += 1;
        Some(core)
    }

    // ----- RMI handling -----

    /// Handles an RMI call arriving on `core` (via SMC in shared-core
    /// mode, via RPC in core-gapped mode — the transport cost is charged
    /// by the caller; `cost` here is monitor work only).
    pub fn handle_rmi(&mut self, core: CoreId, call: RmiCall, machine: &mut Machine) -> RmiOutcome {
        let costs = self.config.costs.clone();
        match call {
            RmiCall::Version => RmiOutcome::ok(costs.query),
            RmiCall::GranuleDelegate { addr } => match machine.memory_mut().delegate(addr) {
                Ok(()) => RmiOutcome::ok(costs.granule),
                Err(_) => RmiOutcome::fail(RmiStatus::ErrorGranule, costs.granule),
            },
            RmiCall::GranuleUndelegate { addr } => match machine.memory_mut().undelegate(addr) {
                Ok(()) => RmiOutcome::ok(costs.granule),
                Err(_) => RmiOutcome::fail(RmiStatus::ErrorGranule, costs.granule),
            },
            RmiCall::RealmCreate { rd, num_recs } => {
                self.realm_create(rd, num_recs, machine, costs)
            }
            RmiCall::RealmActivate { realm } => {
                if self.realm_mut(realm).is_some_and(|r| r.activate()) {
                    RmiOutcome::ok(costs.object)
                } else {
                    RmiOutcome::fail(RmiStatus::ErrorRealm, costs.object)
                }
            }
            RmiCall::RealmDestroy { realm } => self.realm_destroy(realm, machine, costs),
            RmiCall::RecCreate { realm, index, rec } => {
                self.rec_create(realm, index, rec, machine, costs)
            }
            RmiCall::RecDestroy { rec } => self.rec_destroy(rec, machine, costs),
            RmiCall::DataCreate { realm, data, ipa } => {
                self.data_create(realm, data, ipa, machine, costs)
            }
            RmiCall::DataDestroy { realm, ipa } => self.data_destroy(realm, ipa, machine, costs),
            RmiCall::RttCreate {
                realm,
                rtt,
                ipa,
                level,
            } => self.rtt_create(realm, rtt, ipa, level, machine, costs),
            RmiCall::RttMapUnprotected { realm, ipa, addr } => {
                self.rtt_map_unprotected(realm, ipa, addr, machine, costs)
            }
            RmiCall::RttUnmapUnprotected { realm, ipa } => match self.realm_mut(realm) {
                Some(r) => match r.rtt_mut().unmap(ipa) {
                    Ok(_) => RmiOutcome::ok(costs.rtt_op),
                    Err(_) => RmiOutcome::fail(RmiStatus::ErrorRtt, costs.rtt_op),
                },
                None => RmiOutcome::fail(RmiStatus::ErrorRealm, costs.rtt_op),
            },
            RmiCall::RecEnter { rec, .. } => self.rec_enter(core, rec, machine, costs),
            RmiCall::IvcChannelCreate {
                channel,
                realm_a,
                realm_b,
                window,
                spi,
            } => self.ivc_channel_create(channel, realm_a, realm_b, window, spi, machine, costs),
            RmiCall::IvcChannelDestroy { channel } => self.ivc_channel_destroy(channel, costs),
            RmiCall::MigrationExport { realm } => self.migration_export(realm, costs),
            RmiCall::MigrationImport { rd, src_lo, src_hi } => {
                self.migration_import(rd, Measurement([src_lo, src_hi]), machine, costs)
            }
        }
    }

    // ----- live migration (cg-migrate) -----

    /// Starts dirty tracking on `realm` for a pre-copy migration: every
    /// protected page is marked dirty (round 1 transfers the full
    /// image), and subsequent tracked guest writes re-dirty pages.
    /// Returns `false` if the realm doesn't exist or isn't active.
    pub fn migration_begin(&mut self, realm: RealmId) -> bool {
        match self.realm_mut(realm) {
            Some(r) if r.state() == RealmState::Active => {
                r.start_dirty_tracking();
                true
            }
            _ => false,
        }
    }

    /// Cuts one pre-copy round: takes the realm's dirty set (sorted by
    /// IPA) and resets it, so writes during the copy land in the next
    /// round. Returns `None` if the realm isn't under dirty tracking.
    pub fn migration_round(&mut self, realm: RealmId) -> Option<Vec<GranuleFrame>> {
        let r = self.realm_mut(realm)?;
        if !r.dirty_tracking() {
            return None;
        }
        let frames = r.take_dirty_frames();
        Some(frames)
    }

    /// Number of pages currently dirty on `realm` (0 if unknown).
    pub fn migration_dirty_count(&self, realm: RealmId) -> usize {
        self.realm(realm).map_or(0, |r| r.dirty_count())
    }

    /// Abandons an in-progress migration: stops dirty tracking and
    /// discards any exported blob, leaving the realm to keep running on
    /// this node as if the migration never started.
    pub fn migration_cancel(&mut self, realm: RealmId) {
        if let Some(r) = self.realm_mut(realm) {
            r.stop_dirty_tracking();
        }
        self.migration_outbox = None;
    }

    /// Records a guest write to protected page `ipa` of `realm` (the
    /// execution layer calls this for write-classified guest work so
    /// dirty tracking sees it).
    pub fn note_guest_write(&mut self, realm: RealmId, ipa: u64) {
        if let Some(r) = self.realm_mut(realm) {
            r.note_write(ipa);
        }
    }

    /// Hands the host the blob a `MIGRATION_EXPORT` sealed — the bulk
    /// payload travelling the inter-node link out of band.
    pub fn take_migration_blob(&mut self) -> Option<MigrationBlob> {
        self.migration_outbox.take()
    }

    /// Stages an inbound blob for the next `MIGRATION_IMPORT` (the
    /// destination host has finished receiving it from the link).
    pub fn stage_migration_blob(&mut self, blob: MigrationBlob) {
        self.staged_import = Some(blob);
    }

    /// `RMI_MIGRATION_EXPORT`: seals a quiesced, dirty-tracked realm
    /// into a migration blob. Every REC must have exited (the host's
    /// stop-and-copy quiesce) and `migration_begin` must have run; the
    /// realm itself is left intact so the host can abort and resume it
    /// locally if the destination rejects the import.
    fn migration_export(&mut self, realm_id: RealmId, costs: RmmCosts) -> RmiOutcome {
        let Some(r) = self.realm(realm_id) else {
            return RmiOutcome::fail(RmiStatus::ErrorRealm, costs.object);
        };
        if r.state() != RealmState::Active || !r.dirty_tracking() {
            return RmiOutcome::fail(RmiStatus::ErrorRealm, costs.object);
        }
        if r.recs().any(|(_, rec)| rec.state() == RecState::Running) {
            return RmiOutcome::fail(RmiStatus::ErrorInUse, costs.object);
        }
        let platform = self.platform_measurement;
        let r = self.realm_mut(realm_id).expect("checked above");
        let delta = r.dirty_count() as u64;
        let frames = r.all_frames();
        let recs: Vec<RecFrame> = r
            .recs()
            .map(|(index, rec)| RecFrame {
                index,
                rec: rec.clone(),
            })
            .collect();
        let blob = MigrationBlob::sealed(
            r.measurement(),
            platform,
            r.num_recs(),
            r.generation(),
            frames,
            delta,
            recs,
        );
        r.stop_dirty_tracking();
        self.migration_outbox = Some(blob);
        RmiOutcome::ok(costs.object * 2)
    }

    /// `RMI_MIGRATION_IMPORT`: rebuilds a realm from the staged blob.
    /// The seal must verify and the sealed realm measurement must equal
    /// `expected` (the owner-supplied source measurement) — a mismatch
    /// is audited and rejected with [`RmiStatus::ErrorMeasurement`],
    /// leaving no realm state behind. On success the realm comes up
    /// `Active` under a fresh id, claiming a contiguous delegated
    /// granule run starting at `rd` (rd, RTT root, then RTT tables,
    /// data pages, and REC granules in walk order).
    fn migration_import(
        &mut self,
        rd: GranuleAddr,
        expected: Measurement,
        machine: &mut Machine,
        costs: RmmCosts,
    ) -> RmiOutcome {
        let Some(blob) = self.staged_import.take() else {
            return RmiOutcome::fail(RmiStatus::ErrorInput, costs.object);
        };
        if !blob.verify_seal() || blob.realm_measurement != expected {
            self.stats.imports_rejected += 1;
            return RmiOutcome::fail(RmiStatus::ErrorMeasurement, costs.object);
        }
        // Size the granule run: rd + RTT root, the RTT tables the frame
        // walk needs, one granule per data page, one per REC.
        let rtt_root = rd.offset(1);
        let mut probe = Rtt::new(rtt_root);
        let mut tables_needed = 0u64;
        for f in &blob.frames {
            for level in probe.missing_levels(f.ipa) {
                probe
                    .create_table(level, f.ipa, rtt_root)
                    .expect("probe walk in level order");
                tables_needed += 1;
            }
        }
        let total = 2 + tables_needed + blob.frames.len() as u64 + blob.recs.len() as u64;
        for i in 0..total {
            match machine.memory().state(rd.offset(i)) {
                Ok(GranuleState::Delegated) => {}
                _ => {
                    // The run is short or dirty: not a measurement
                    // failure — re-stage the blob so the host can fix
                    // the delegation and retry.
                    self.staged_import = Some(blob);
                    return RmiOutcome::fail(RmiStatus::ErrorGranule, costs.object);
                }
            }
        }
        let id = RealmId(self.realms.len() as u32);
        let claim = |machine: &mut Machine, next: &mut u64, state: GranuleState| {
            let g = rd.offset(*next);
            *next += 1;
            machine
                .memory_mut()
                .assign(g, state)
                .expect("pre-checked delegated run");
            g
        };
        let mut next = 0u64;
        claim(machine, &mut next, GranuleState::RealmRd(id));
        claim(machine, &mut next, GranuleState::RealmRtt(id));
        let mut realm = Realm::import(id, rd, rtt_root, &blob);
        for f in &blob.frames {
            for level in realm.rtt().missing_levels(f.ipa) {
                let g = claim(machine, &mut next, GranuleState::RealmRtt(id));
                realm
                    .rtt_mut()
                    .create_table(level, f.ipa, g)
                    .expect("probe walk validated the chain");
            }
            let g = claim(machine, &mut next, GranuleState::RealmData(id));
            realm
                .rtt_mut()
                .map(f.ipa, g, true)
                .expect("frames are distinct protected IPAs");
        }
        for rf in &blob.recs {
            claim(machine, &mut next, GranuleState::RealmRec(id));
            let trace = self.trace.clone();
            if let Some(rec) = realm.rec_mut(rf.index) {
                rec.vgic_mut().set_trace(trace, id.0, rf.index);
            }
        }
        self.realms.push(Some(realm));
        self.stats.imported += 1;
        RmiOutcome::ok(costs.object * 2 + costs.rtt_op * (tables_needed + blob.frames.len() as u64))
    }

    /// `RMI_IVC_CHANNEL_CREATE`: the attested inter-CVM channel
    /// handshake. The host nominates two realms, a granule-aligned
    /// non-secure window, and a doorbell SPI; the RMM admits the channel
    /// only if the realms' measurement pair is on the owner-authorised
    /// policy list, then maps the window into both realms' unprotected
    /// halves and delegates the SPI so doorbells travel realm-core to
    /// realm-core with no host exit.
    #[allow(clippy::too_many_arguments)]
    fn ivc_channel_create(
        &mut self,
        channel: u32,
        realm_a: RealmId,
        realm_b: RealmId,
        window: GranuleAddr,
        spi: u32,
        machine: &mut Machine,
        costs: RmmCosts,
    ) -> RmiOutcome {
        if realm_a == realm_b {
            return RmiOutcome::fail(RmiStatus::ErrorInput, costs.object);
        }
        if self
            .ivc_channels
            .iter()
            .any(|c| c.cfg.channel == channel || c.cfg.spi == spi)
        {
            return RmiOutcome::fail(RmiStatus::ErrorInUse, costs.object);
        }
        let (Some(ra), Some(rb)) = (self.realm(realm_a), self.realm(realm_b)) else {
            return RmiOutcome::fail(RmiStatus::ErrorRealm, costs.object);
        };
        // Both realms must be activated: their measurements are final,
        // so the policy check below binds the channel to the code the
        // realms will actually run — not to an image the host could
        // still swap out underneath the pairing.
        if ra.state() != RealmState::Active || rb.state() != RealmState::Active {
            return RmiOutcome::fail(RmiStatus::ErrorRealm, costs.object);
        }
        let (ma, mb) = (ra.measurement(), rb.measurement());
        if !self.ivc_policy.permits(ma, mb) {
            self.stats.ivc_pairs_rejected += 1;
            return RmiOutcome::fail(RmiStatus::ErrorInput, costs.object);
        }
        // The window must be ordinary host memory: shared pages are
        // never delegated, matching RTT_MAP_UNPROTECTED semantics.
        for i in 0..IVC_WINDOW_GRANULES {
            match machine.memory().state(window.offset(i)) {
                Ok(GranuleState::NonSecure) => {}
                _ => return RmiOutcome::fail(RmiStatus::ErrorGranule, costs.object),
            }
        }
        let reg = IvcChannelReg {
            cfg: ChannelConfig {
                channel,
                spi,
                window,
            },
            a: RecId::new(realm_a, 0),
            b: RecId::new(realm_b, 0),
        };
        // Map the window into both realms at the same unprotected IPA
        // alias, unwinding completely if any leaf is already occupied.
        let mut mapped: Vec<(RealmId, u64)> = Vec::new();
        for rid in [realm_a, realm_b] {
            for i in 0..IVC_WINDOW_GRANULES {
                let ipa = reg.window_ipa(i);
                let r = self.realm_mut(rid).expect("checked above");
                if r.rtt_mut().map(ipa, window.offset(i), false).is_err() {
                    for (urid, uipa) in mapped {
                        let u = self.realm_mut(urid).expect("mapped moments ago");
                        u.rtt_mut().unmap(uipa).expect("unwinding own mapping");
                    }
                    return RmiOutcome::fail(RmiStatus::ErrorRtt, costs.rtt_op);
                }
                mapped.push((rid, ipa));
            }
        }
        self.delegate_spi(spi);
        self.ivc_channels.push(reg);
        self.stats.ivc_channels_created += 1;
        RmiOutcome::ok(costs.object + costs.rtt_op * (2 * IVC_WINDOW_GRANULES))
    }

    /// `RMI_IVC_CHANNEL_DESTROY`: unmaps the shared window from both
    /// realms, undelegates the doorbell SPI, and forgets the channel.
    fn ivc_channel_destroy(&mut self, channel: u32, costs: RmmCosts) -> RmiOutcome {
        let Some(pos) = self
            .ivc_channels
            .iter()
            .position(|c| c.cfg.channel == channel)
        else {
            return RmiOutcome::fail(RmiStatus::ErrorInput, costs.object);
        };
        let reg = self.ivc_channels.remove(pos);
        for rid in [reg.a.realm, reg.b.realm] {
            // A realm destroyed before its channel has no RTT left to
            // clean; skip it rather than fail the teardown.
            if let Some(r) = self.realm_mut(rid) {
                for i in 0..IVC_WINDOW_GRANULES {
                    let _ = r.rtt_mut().unmap(reg.window_ipa(i));
                }
            }
        }
        self.undelegate_spi(reg.cfg.spi);
        self.stats.ivc_channels_destroyed += 1;
        RmiOutcome::ok(costs.object + costs.rtt_op * (2 * IVC_WINDOW_GRANULES))
    }

    fn realm_create(
        &mut self,
        rd: GranuleAddr,
        num_recs: u32,
        machine: &mut Machine,
        costs: RmmCosts,
    ) -> RmiOutcome {
        if num_recs == 0 {
            return RmiOutcome::fail(RmiStatus::ErrorInput, costs.object);
        }
        // The RD granule and the adjacent RTT root granule must both be
        // delegated; the RMM claims rd and rd+1 (matching how the host
        // driver allocates them).
        let rtt_root = rd.offset(1);
        let id = RealmId(self.realms.len() as u32);
        if machine
            .memory_mut()
            .assign(rd, GranuleState::RealmRd(id))
            .is_err()
        {
            return RmiOutcome::fail(RmiStatus::ErrorGranule, costs.object);
        }
        if machine
            .memory_mut()
            .assign(rtt_root, GranuleState::RealmRtt(id))
            .is_err()
        {
            machine.memory_mut().unassign(rd).expect("just assigned");
            return RmiOutcome::fail(RmiStatus::ErrorGranule, costs.object);
        }
        self.realms
            .push(Some(Realm::new(id, rd, rtt_root, num_recs)));
        RmiOutcome {
            status: RmiStatus::Success,
            cost: costs.object,
            entered: None,
        }
    }

    fn realm_destroy(&mut self, id: RealmId, machine: &mut Machine, costs: RmmCosts) -> RmiOutcome {
        let Some(realm) = self.realm_mut(id) else {
            return RmiOutcome::fail(RmiStatus::ErrorRealm, costs.object);
        };
        if realm.rec_count() > 0 {
            return RmiOutcome::fail(RmiStatus::ErrorInUse, costs.object);
        }
        // Release all realm-side granules back to the delegated state.
        let leaves: Vec<(u64, crate::rtt::Mapping)> = realm.rtt().iter().collect();
        for (_, m) in &leaves {
            if m.protected {
                machine
                    .memory_mut()
                    .unassign(m.pa)
                    .expect("protected leaf granule must be realm-owned");
            }
        }
        let rd = realm.rd();
        if !realm.destroy() {
            return RmiOutcome::fail(RmiStatus::ErrorInUse, costs.object);
        }
        machine.memory_mut().unassign(rd).expect("rd assigned");
        machine
            .memory_mut()
            .unassign(rd.offset(1))
            .expect("rtt root assigned");
        self.realms[id.index()] = None;
        RmiOutcome::ok(costs.object)
    }

    fn rec_create(
        &mut self,
        realm: RealmId,
        index: u32,
        rec_granule: GranuleAddr,
        machine: &mut Machine,
        costs: RmmCosts,
    ) -> RmiOutcome {
        let Some(r) = self.realm_mut(realm) else {
            return RmiOutcome::fail(RmiStatus::ErrorRealm, costs.object);
        };
        if r.state() != RealmState::New {
            return RmiOutcome::fail(RmiStatus::ErrorRealm, costs.object);
        }
        if machine
            .memory_mut()
            .assign(rec_granule, GranuleState::RealmRec(realm))
            .is_err()
        {
            return RmiOutcome::fail(RmiStatus::ErrorGranule, costs.object);
        }
        let trace = self.trace.clone();
        let r = self.realm_mut(realm).expect("checked above");
        let mut rec = Rec::new();
        rec.vgic_mut().set_trace(trace, realm.0, index);
        if !r.add_rec(index, rec) {
            machine
                .memory_mut()
                .unassign(rec_granule)
                .expect("just assigned");
            return RmiOutcome::fail(RmiStatus::ErrorInput, costs.object);
        }
        RmiOutcome::ok(costs.object)
    }

    fn rec_destroy(&mut self, rec: RecId, machine: &mut Machine, costs: RmmCosts) -> RmiOutcome {
        let Some(r) = self.realm_mut(rec.realm) else {
            return RmiOutcome::fail(RmiStatus::ErrorRealm, costs.object);
        };
        let Some(state) = r.rec(rec.index).map(|x| x.state()) else {
            return RmiOutcome::fail(RmiStatus::ErrorRec, costs.object);
        };
        if state == RecState::Running {
            return RmiOutcome::fail(RmiStatus::ErrorInUse, costs.object);
        }
        r.remove_rec(rec.index);
        let bound_core = self.coregap.binding(rec);
        self.coregap.unbind(rec);
        if let Some(core) = bound_core {
            if self.coregap.core_owner(core).is_none() {
                machine.cpu_mut(core).unbind_realm();
            }
        }
        RmiOutcome::ok(costs.object)
    }

    fn data_create(
        &mut self,
        realm: RealmId,
        data: GranuleAddr,
        ipa: u64,
        machine: &mut Machine,
        costs: RmmCosts,
    ) -> RmiOutcome {
        let Some(r) = self.realm(realm) else {
            return RmiOutcome::fail(RmiStatus::ErrorRealm, costs.rtt_op);
        };
        if r.state() != RealmState::New {
            return RmiOutcome::fail(RmiStatus::ErrorRealm, costs.rtt_op);
        }
        if ipa_is_unprotected(ipa) {
            return RmiOutcome::fail(RmiStatus::ErrorInput, costs.rtt_op);
        }
        if machine
            .memory_mut()
            .assign(data, GranuleState::RealmData(realm))
            .is_err()
        {
            return RmiOutcome::fail(RmiStatus::ErrorGranule, costs.rtt_op);
        }
        let r = self.realm_mut(realm).expect("checked above");
        match r.rtt_mut().map(ipa, data, true) {
            Ok(()) => {
                r.add_data_page();
                r.note_data_page(ipa);
                r.extend_measurement(Measurement::of(&ipa.to_le_bytes()));
                RmiOutcome::ok(costs.rtt_op)
            }
            Err(_) => {
                machine.memory_mut().unassign(data).expect("just assigned");
                RmiOutcome::fail(RmiStatus::ErrorRtt, costs.rtt_op)
            }
        }
    }

    fn data_destroy(
        &mut self,
        realm: RealmId,
        ipa: u64,
        machine: &mut Machine,
        costs: RmmCosts,
    ) -> RmiOutcome {
        let Some(r) = self.realm_mut(realm) else {
            return RmiOutcome::fail(RmiStatus::ErrorRealm, costs.rtt_op);
        };
        match r.rtt_mut().unmap(ipa) {
            Ok(m) if m.protected => {
                r.remove_data_page();
                r.forget_data_page(ipa);
                machine
                    .memory_mut()
                    .unassign(m.pa)
                    .expect("protected page granule must be realm-owned");
                RmiOutcome::ok(costs.rtt_op)
            }
            Ok(m) => {
                // Shouldn't unmap unprotected memory through DATA_DESTROY;
                // put it back.
                r.rtt_mut()
                    .map(ipa, m.pa, false)
                    .expect("restoring just-unmapped entry");
                RmiOutcome::fail(RmiStatus::ErrorInput, costs.rtt_op)
            }
            Err(_) => RmiOutcome::fail(RmiStatus::ErrorRtt, costs.rtt_op),
        }
    }

    fn rtt_create(
        &mut self,
        realm: RealmId,
        rtt: GranuleAddr,
        ipa: u64,
        level: cg_cca::RttLevel,
        machine: &mut Machine,
        costs: RmmCosts,
    ) -> RmiOutcome {
        if self.realm(realm).is_none() {
            return RmiOutcome::fail(RmiStatus::ErrorRealm, costs.rtt_op);
        };
        if machine
            .memory_mut()
            .assign(rtt, GranuleState::RealmRtt(realm))
            .is_err()
        {
            return RmiOutcome::fail(RmiStatus::ErrorGranule, costs.rtt_op);
        }
        let r = self.realm_mut(realm).expect("checked above");
        match r.rtt_mut().create_table(level, ipa, rtt) {
            Ok(()) => RmiOutcome::ok(costs.rtt_op),
            Err(_) => {
                machine.memory_mut().unassign(rtt).expect("just assigned");
                RmiOutcome::fail(RmiStatus::ErrorRtt, costs.rtt_op)
            }
        }
    }

    fn rtt_map_unprotected(
        &mut self,
        realm: RealmId,
        ipa: u64,
        addr: GranuleAddr,
        machine: &mut Machine,
        costs: RmmCosts,
    ) -> RmiOutcome {
        let Some(r) = self.realm_mut(realm) else {
            return RmiOutcome::fail(RmiStatus::ErrorRealm, costs.rtt_op);
        };
        // The granule must be host memory (non-secure): shared pages are
        // never delegated.
        match machine.memory().state(addr) {
            Ok(GranuleState::NonSecure) => {}
            _ => return RmiOutcome::fail(RmiStatus::ErrorGranule, costs.rtt_op),
        }
        match r.rtt_mut().map(ipa, addr, false) {
            Ok(()) => RmiOutcome::ok(costs.rtt_op),
            Err(RttError::AlreadyMapped) => RmiOutcome::fail(RmiStatus::ErrorRtt, costs.rtt_op),
            Err(_) => RmiOutcome::fail(RmiStatus::ErrorRtt, costs.rtt_op),
        }
    }

    fn rec_enter(
        &mut self,
        core: CoreId,
        rec_id: RecId,
        machine: &mut Machine,
        costs: RmmCosts,
    ) -> RmiOutcome {
        let params = machine.params().clone();
        let enter_cost = costs.enter_extra + params.context_restore + params.realm_enter;
        let Some(realm_state) = self.realm(rec_id.realm).map(|r| r.state()) else {
            return RmiOutcome::fail(RmiStatus::ErrorRealm, costs.query);
        };
        if realm_state != RealmState::Active {
            return RmiOutcome::fail(RmiStatus::ErrorRealm, costs.query);
        }
        if self.config.core_gapping {
            match self.coregap.check_and_bind(rec_id, core) {
                Ok(()) => {}
                Err(CoreGapError::WrongCore { .. }) | Err(CoreGapError::CoreBusy { .. }) => {
                    return RmiOutcome::fail(RmiStatus::ErrorCoreBinding, costs.query);
                }
                Err(_) => return RmiOutcome::fail(RmiStatus::ErrorInput, costs.query),
            }
            machine.cpu_mut(core).bind_realm(rec_id.realm);
        }
        let delegation = self.config.delegation;
        let Some(rec) = self.rec_mut(rec_id) else {
            return RmiOutcome::fail(RmiStatus::ErrorRec, costs.query);
        };
        if !rec.enter() {
            return RmiOutcome::fail(RmiStatus::ErrorRec, costs.query);
        }
        // Stage pending virtual interrupts into the core's list registers.
        let vgic = rec.vgic_mut();
        vgic.sync_to_lrs(core, machine.gic_mut());
        let _ = delegation; // entry list merging happens in enter_with_list
        machine
            .cpu_mut(core)
            .set_current_domain(Some(Domain::Realm(rec_id.realm)));
        RmiOutcome {
            status: RmiStatus::Success,
            cost: enter_cost,
            entered: Some(rec_id),
        }
    }

    /// Variant of the `REC_ENTER` path that first merges the
    /// host-provided virtual-interrupt list (fig. 5 step ①). This is what
    /// the system layer calls with the [`cg_cca::RecEntry`] contents.
    pub fn rec_enter_with_list(
        &mut self,
        core: CoreId,
        rec_id: RecId,
        host_interrupts: &[IntId],
        machine: &mut Machine,
    ) -> RmiOutcome {
        let delegation = self.config.delegation;
        if let Some(rec) = self.rec_mut(rec_id) {
            rec.vgic_mut().host_provides(host_interrupts, delegation);
        }
        let costs = self.config.costs.clone();
        self.rec_enter(core, rec_id, machine, costs)
    }

    // ----- guest event handling -----

    /// Handles an architectural event from the guest running `rec_id` on
    /// `core`, returning the disposition.
    ///
    /// # Panics
    ///
    /// Panics if `rec_id` does not exist or is not running — the caller
    /// (the system layer) only reports events for entered vCPUs.
    pub fn on_guest_event(
        &mut self,
        core: CoreId,
        rec_id: RecId,
        event: GuestEvent,
        machine: &mut Machine,
    ) -> Disposition {
        assert_eq!(
            self.rec(rec_id).map(|r| r.state()),
            Some(RecState::Running),
            "guest event for non-running {rec_id}"
        );
        let params = machine.params().clone();
        let delegation = self.config.delegation;
        let costs = self.config.costs.clone();
        match event {
            GuestEvent::TimerProgram { deadline } => {
                if delegation.timer {
                    let rec = self.rec_mut(rec_id).expect("checked running");
                    rec.set_vtimer(Some(deadline));
                    machine.timer_mut(core).program(deadline);
                    Disposition::Resume {
                        cost: params.sysreg_trap_emulate + params.timer_program,
                    }
                } else {
                    // Expose the written deadline so the host can emulate
                    // the timer (KVM's vtimer emulation path).
                    let mut disp = self.exit_to_host(
                        core,
                        rec_id,
                        RecExitReason::SysregTrap { sysreg: 0x0E03 }, // CNTV_CVAL
                        machine,
                    );
                    if let Disposition::ExitToHost { exit, .. } = &mut disp {
                        exit.gprs[0] = deadline.as_nanos();
                    }
                    disp
                }
            }
            GuestEvent::TimerCancel => {
                if delegation.timer {
                    let rec = self.rec_mut(rec_id).expect("checked running");
                    rec.set_vtimer(None);
                    machine.timer_mut(core).cancel();
                    Disposition::Resume {
                        cost: params.sysreg_trap_emulate,
                    }
                } else {
                    self.exit_to_host(
                        core,
                        rec_id,
                        RecExitReason::SysregTrap { sysreg: 0x0E03 },
                        machine,
                    )
                }
            }
            GuestEvent::SendIpi { target_index, sgi } => {
                if delegation.ipi {
                    let target = RecId::new(rec_id.realm, target_index);
                    if self.rec(target).is_none() {
                        // Bad target: ignore, as hardware would for an
                        // unimplemented CPU target.
                        return Disposition::Resume {
                            cost: params.sysreg_trap_emulate,
                        };
                    }
                    self.rec_mut(target)
                        .expect("checked above")
                        .vgic_mut()
                        .inject_local(IntId::sgi(sgi.min(15)));
                    let target_core = self.coregap.core_of(target);
                    match target_core {
                        Some(tc) if tc != core => Disposition::ResumeWithIpi {
                            target_core: tc,
                            cost: params.sysreg_trap_emulate + params.mailbox_write,
                        },
                        _ => Disposition::Resume {
                            cost: params.sysreg_trap_emulate,
                        },
                    }
                } else {
                    // Expose target vCPU and SGI number for host emulation.
                    let mut disp = self.exit_to_host(
                        core,
                        rec_id,
                        RecExitReason::SysregTrap { sysreg: 0x0C0B }, // ICC_SGI1R
                        machine,
                    );
                    if let Disposition::ExitToHost { exit, .. } = &mut disp {
                        exit.gprs[0] = target_index as u64;
                        exit.gprs[1] = sgi as u64;
                    }
                    disp
                }
            }
            GuestEvent::Wfi => {
                // If anything is already pending, WFI falls through.
                let has_virq = machine.gic().next_virtual_pending(core).is_some()
                    || !self.rec(rec_id).expect("checked running").vgic().is_idle();
                if has_virq {
                    let rec = self.rec_mut(rec_id).expect("checked running");
                    rec.vgic_mut().sync_to_lrs(core, machine.gic_mut());
                    Disposition::Resume {
                        cost: params.sysreg_trap_emulate,
                    }
                } else if self.config.core_gapping && (delegation.timer || delegation.ipi) {
                    // Dedicated core with delegated interrupt sources:
                    // idle inside the RMM so local interrupts can wake
                    // the guest without the host. Without delegation the
                    // baseline RMM semantics apply: WFI exits to the
                    // host (RMI_EXIT_WFI), and the vCPU thread blocks.
                    Disposition::Idle {
                        cost: params.realm_exit_trap,
                    }
                } else {
                    self.exit_to_host(core, rec_id, RecExitReason::Wfi, machine)
                }
            }
            GuestEvent::MmioRead { ipa, size } => {
                self.exit_to_host(core, rec_id, RecExitReason::MmioRead { ipa, size }, machine)
            }
            GuestEvent::MmioWrite { ipa, size, value } => self.exit_to_host(
                core,
                rec_id,
                RecExitReason::MmioWrite { ipa, size, value },
                machine,
            ),
            GuestEvent::HostCall { imm } => {
                self.exit_to_host(core, rec_id, RecExitReason::HostCall { imm }, machine)
            }
            GuestEvent::Stage2Fault { ipa } => {
                self.exit_to_host(core, rec_id, RecExitReason::Stage2Fault { ipa }, machine)
            }
            GuestEvent::Shutdown => {
                self.rec_mut(rec_id).expect("checked running").halt();
                let mut disp =
                    self.exit_to_host_inner(core, rec_id, RecExitReason::Shutdown, machine, false);
                if let Disposition::ExitToHost { cost, .. } = &mut disp {
                    *cost += costs.object;
                }
                disp
            }
            GuestEvent::PhysIrq { intid } => self.on_phys_irq(core, rec_id, intid, machine, false),
        }
    }

    /// Handles a physical interrupt arriving at a dedicated core whose
    /// guest is running (`idle == false`) or idle in WFI inside the RMM
    /// (`idle == true`): a delegated vtimer, delegated IPI, IVC doorbell
    /// or delegated SPI is staged in the REC's vgic, anything else exits
    /// to the host. A running guest pays the realm exit trap on top of
    /// each in-realm cost. Returns the disposition for resuming,
    /// staying idle or exiting.
    pub fn on_phys_irq(
        &mut self,
        core: CoreId,
        rec_id: RecId,
        intid: IntId,
        machine: &mut Machine,
        idle: bool,
    ) -> Disposition {
        let params = machine.params().clone();
        let delegation = self.config.delegation;
        let trap = if idle {
            SimDuration::ZERO
        } else {
            params.realm_exit_trap
        };
        machine.gic_mut().rescind(core, intid);
        if intid == IntId::VTIMER && delegation.timer {
            // Delegated timer tick: inject the virtual timer interrupt
            // locally and resume — no host involvement (§4.4).
            let rec = self.rec_mut(rec_id).expect("interrupted rec exists");
            rec.set_vtimer(None);
            rec.vgic_mut().inject_local(IntId::VTIMER);
            rec.vgic_mut().sync_to_lrs(core, machine.gic_mut());
            let cost = trap + params.sysreg_trap_emulate + params.realm_enter;
            self.trace.record_dur(
                cg_sim::SpanKind::TimerFire,
                Some(core.0),
                Some(rec_id.realm.0),
                Some(rec_id.index),
                cost,
            );
            return Disposition::Resume { cost };
        }
        if intid == REALM_DOORBELL_SGI && delegation.ipi {
            // Delegated IPI arrival: pending SGIs were placed in our vgic
            // by the sender's core; stage and resume.
            let rec = self.rec_mut(rec_id).expect("interrupted rec exists");
            rec.vgic_mut().sync_to_lrs(core, machine.gic_mut());
            return Disposition::Resume {
                cost: trap + params.sysreg_trap_emulate + params.realm_enter,
            };
        }
        if let Some(reg) = self.ivc_channel_for_spi(intid) {
            // Inter-CVM doorbell. Only the two registered endpoint vCPUs
            // may receive this SPI: the host controls physical SPI
            // routing, so a malicious host can replay the interrupt onto
            // any core (Heckler-style). Validate the arriving vCPU
            // against the channel registration and silently drop
            // anything forged or misrouted — never surface it to the
            // victim guest, and never even wake an idle one.
            if rec_id == reg.a || rec_id == reg.b {
                let rec = self.rec_mut(rec_id).expect("interrupted rec exists");
                rec.vgic_mut().inject_local(intid);
                rec.vgic_mut().sync_to_lrs(core, machine.gic_mut());
                return Disposition::Resume {
                    cost: trap + params.sysreg_trap_emulate + params.realm_enter,
                };
            }
            return Disposition::Rejected {
                cost: if idle {
                    params.sysreg_trap_emulate
                } else {
                    trap + params.realm_enter
                },
            };
        }
        if self.spi_delegated(intid) {
            // Direct device-interrupt delivery: inject the SPI locally.
            let rec = self.rec_mut(rec_id).expect("interrupted rec exists");
            rec.vgic_mut().inject_local(intid);
            rec.vgic_mut().sync_to_lrs(core, machine.gic_mut());
            return Disposition::Resume {
                cost: trap + params.sysreg_trap_emulate + params.realm_enter,
            };
        }
        // Anything else concerns the host (its own devices, its kick
        // doorbell): exit. Idle-in-WFI is a sub-state of entered
        // execution, so an idle REC is still Running here.
        self.exit_to_host(core, rec_id, RecExitReason::HostInterrupt, machine)
    }

    fn exit_to_host(
        &mut self,
        core: CoreId,
        rec_id: RecId,
        reason: RecExitReason,
        machine: &mut Machine,
    ) -> Disposition {
        self.exit_to_host_inner(core, rec_id, reason, machine, true)
    }

    fn exit_to_host_inner(
        &mut self,
        core: CoreId,
        rec_id: RecId,
        reason: RecExitReason,
        machine: &mut Machine,
        mark_exited: bool,
    ) -> Disposition {
        let params = machine.params().clone();
        let delegation = self.config.delegation;
        let rec = self.rec_mut(rec_id).expect("guest event for live rec");
        rec.count_exit(reason.is_interrupt_related());
        if mark_exited {
            rec.exit();
        }
        let interrupts = rec.vgic().filtered_view(core, machine.gic(), delegation);
        machine
            .cpu_mut(core)
            .set_current_domain(Some(Domain::Monitor));
        let mut exit = RecExit::new(reason);
        exit.interrupts = interrupts;
        Disposition::ExitToHost {
            exit,
            cost: params.realm_exit_trap + params.context_save + self.config.costs.exit_extra,
        }
    }

    /// Handles a guest RSI call (the guest-facing interface): version
    /// queries, attestation-token requests, realm configuration, and
    /// host calls (which the caller forwards to the host as an exit).
    pub fn handle_rsi(&mut self, realm_id: RealmId, call: cg_cca::RsiCall) -> cg_cca::RsiResult {
        use cg_cca::{AttestationToken, PlatformCert, RsiCall, RsiResult};
        match call {
            RsiCall::Version => RsiResult::Version(1, 0),
            RsiCall::RealmConfig => RsiResult::RealmConfig {
                ipa_width: crate::rtt::IPA_WIDTH as u8,
            },
            RsiCall::AttestationToken { challenge } => match self.realm(realm_id) {
                Some(realm) => RsiResult::Token(AttestationToken::issue(
                    &PlatformCert::example(),
                    self.platform_measurement,
                    realm.measurement(),
                    challenge,
                )),
                None => RsiResult::Error,
            },
            RsiCall::HostCall { .. } => RsiResult::HostCallDone,
            RsiCall::IvcInfo { channel } => {
                // The guest-side half of the attested handshake: the
                // caller learns who it shares the window with (the
                // peer's measurement, checkable against an expected
                // value) and which SPI the doorbell arrives on. Only an
                // endpoint realm may query the channel.
                let Some(reg) = self
                    .ivc_channels
                    .iter()
                    .find(|c| c.cfg.channel == channel)
                    .copied()
                else {
                    return RsiResult::Error;
                };
                let peer = if reg.a.realm == realm_id {
                    reg.b.realm
                } else if reg.b.realm == realm_id {
                    reg.a.realm
                } else {
                    return RsiResult::Error;
                };
                match self.realm(peer) {
                    Some(p) => RsiResult::IvcChannel {
                        peer_measurement: p.measurement(),
                        spi: reg.cfg.spi,
                    },
                    None => RsiResult::Error,
                }
            }
            RsiCall::MigrationInfo => match self.realm(realm_id) {
                Some(r) => RsiResult::MigrationInfo {
                    generation: r.generation(),
                },
                None => RsiResult::Error,
            },
        }
    }

    /// The host (KVM) requests that a running vCPU exit (the "kick" used
    /// to inject device interrupts or deliver signals). Marks the request;
    /// the system layer also raises the physical doorbell.
    pub fn host_kick(&mut self, rec_id: RecId) {
        if let Some(rec) = self.rec_mut(rec_id) {
            rec.request_kick();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_machine::HwParams;

    fn setup() -> (Rmm, Machine) {
        (
            Rmm::new(RmmConfig::core_gapped()),
            Machine::new(HwParams::small()).unwrap(),
        )
    }

    fn g(n: u64) -> GranuleAddr {
        GranuleAddr::new(n * 4096).unwrap()
    }

    /// Drives `rec` (running on `core`) out to the host via an MMIO
    /// exit, leaving it Ready for rebind/unbind operations.
    fn exit_via_mmio(rmm: &mut Rmm, machine: &mut Machine, core: CoreId, rec: RecId) {
        let disp = rmm.on_guest_event(
            core,
            rec,
            GuestEvent::MmioWrite {
                ipa: 0x9000_0000,
                size: 4,
                value: 0,
            },
            machine,
        );
        assert!(matches!(disp, Disposition::ExitToHost { .. }), "{disp:?}");
        assert_eq!(rmm.rec(rec).unwrap().state(), RecState::Ready);
    }

    /// Builds an active 2-vCPU realm with granules 10.. delegated, and
    /// dedicates cores 4 and 5.
    fn build_realm(rmm: &mut Rmm, machine: &mut Machine) -> RealmId {
        for n in 10..30 {
            machine.memory_mut().delegate(g(n)).unwrap();
        }
        let c = CoreId(0);
        let out = rmm.handle_rmi(
            c,
            RmiCall::RealmCreate {
                rd: g(10),
                num_recs: 2,
            },
            machine,
        );
        assert!(out.status.is_success(), "{out:?}");
        let realm = RealmId(0);
        for (i, n) in [(0u32, 12u64), (1, 13)] {
            let out = rmm.handle_rmi(
                c,
                RmiCall::RecCreate {
                    realm,
                    index: i,
                    rec: g(n),
                },
                machine,
            );
            assert!(out.status.is_success(), "{out:?}");
        }
        assert!(rmm
            .handle_rmi(c, RmiCall::RealmActivate { realm }, machine)
            .status
            .is_success());
        // The host hotplugs the cores offline, then hands them over.
        for c in [CoreId(4), CoreId(5)] {
            machine.cpu_mut(c).offline();
            rmm.dedicate_core(c, machine).unwrap();
        }
        realm
    }

    #[test]
    fn realm_lifecycle_via_rmi() {
        let (mut rmm, mut machine) = setup();
        let realm = build_realm(&mut rmm, &mut machine);
        assert_eq!(rmm.realm(realm).unwrap().state(), RealmState::Active);
        // Destroy requires RECs gone.
        let out = rmm.handle_rmi(CoreId(0), RmiCall::RealmDestroy { realm }, &mut machine);
        assert_eq!(out.status, RmiStatus::ErrorInUse);
        for i in 0..2 {
            let out = rmm.handle_rmi(
                CoreId(0),
                RmiCall::RecDestroy {
                    rec: RecId::new(realm, i),
                },
                &mut machine,
            );
            assert!(out.status.is_success());
        }
        let out = rmm.handle_rmi(CoreId(0), RmiCall::RealmDestroy { realm }, &mut machine);
        assert!(out.status.is_success());
        // The RD granule is delegated again and can be undelegated.
        let out = rmm.handle_rmi(
            CoreId(0),
            RmiCall::GranuleUndelegate { addr: g(10) },
            &mut machine,
        );
        assert!(out.status.is_success());
    }

    #[test]
    fn rec_enter_binds_core_and_rejects_migration() {
        let (mut rmm, mut machine) = setup();
        let realm = build_realm(&mut rmm, &mut machine);
        let rec = RecId::new(realm, 0);
        let out = rmm.rec_enter_with_list(CoreId(4), rec, &[], &mut machine);
        assert_eq!(out.status, RmiStatus::Success);
        assert_eq!(out.entered, Some(rec));
        assert_eq!(rmm.coregap().binding(rec), Some(CoreId(4)));
        // Exit the guest so it could in principle re-enter.
        let disp = rmm.on_guest_event(
            CoreId(4),
            rec,
            GuestEvent::HostCall { imm: 1 },
            &mut machine,
        );
        assert!(matches!(disp, Disposition::ExitToHost { .. }));
        // Re-entry on another dedicated core fails with the binding error.
        let out = rmm.rec_enter_with_list(CoreId(5), rec, &[], &mut machine);
        assert_eq!(out.status, RmiStatus::ErrorCoreBinding);
        // Another realm's vCPU cannot use core 4 either — but here the
        // same realm's other vCPU *may* (architecturally).
        let out = rmm.rec_enter_with_list(CoreId(4), rec, &[], &mut machine);
        assert_eq!(out.status, RmiStatus::Success);
    }

    #[test]
    fn rec_enter_on_non_dedicated_core_fails() {
        let (mut rmm, mut machine) = setup();
        let realm = build_realm(&mut rmm, &mut machine);
        let out = rmm.rec_enter_with_list(CoreId(0), RecId::new(realm, 0), &[], &mut machine);
        assert_eq!(out.status, RmiStatus::ErrorInput);
    }

    #[test]
    fn delegated_timer_is_handled_locally() {
        let (mut rmm, mut machine) = setup();
        let realm = build_realm(&mut rmm, &mut machine);
        let rec = RecId::new(realm, 0);
        rmm.rec_enter_with_list(CoreId(4), rec, &[], &mut machine);
        let deadline = SimTime::from_nanos(4_000_000);
        let disp = rmm.on_guest_event(
            CoreId(4),
            rec,
            GuestEvent::TimerProgram { deadline },
            &mut machine,
        );
        assert!(matches!(disp, Disposition::Resume { .. }), "{disp:?}");
        assert!(machine.timer(CoreId(4)).is_armed());
        // Tick fires as a physical IRQ: still no host exit.
        let disp = rmm.on_guest_event(
            CoreId(4),
            rec,
            GuestEvent::PhysIrq {
                intid: IntId::VTIMER,
            },
            &mut machine,
        );
        assert!(matches!(disp, Disposition::Resume { .. }), "{disp:?}");
        // The vtimer interrupt is staged for the guest.
        assert_eq!(
            machine.gic().next_virtual_pending(CoreId(4)),
            Some(IntId::VTIMER)
        );
        assert_eq!(rmm.rec(rec).unwrap().exits_total(), 0);
    }

    #[test]
    fn timer_without_delegation_exits_to_host() {
        let mut rmm = Rmm::new(RmmConfig::core_gapped_no_delegation());
        let mut machine = Machine::new(HwParams::small()).unwrap();
        let realm = build_realm(&mut rmm, &mut machine);
        let rec = RecId::new(realm, 0);
        rmm.rec_enter_with_list(CoreId(4), rec, &[], &mut machine);
        let disp = rmm.on_guest_event(
            CoreId(4),
            rec,
            GuestEvent::TimerProgram {
                deadline: SimTime::from_nanos(100),
            },
            &mut machine,
        );
        match disp {
            Disposition::ExitToHost { exit, .. } => {
                assert!(matches!(exit.reason, RecExitReason::SysregTrap { .. }));
            }
            other => panic!("expected exit, got {other:?}"),
        }
        assert_eq!(rmm.rec(rec).unwrap().exits_interrupt(), 1);
    }

    #[test]
    fn delegated_ipi_crosses_cores_without_host() {
        let (mut rmm, mut machine) = setup();
        let realm = build_realm(&mut rmm, &mut machine);
        let sender = RecId::new(realm, 0);
        let receiver = RecId::new(realm, 1);
        rmm.rec_enter_with_list(CoreId(4), sender, &[], &mut machine);
        rmm.rec_enter_with_list(CoreId(5), receiver, &[], &mut machine);
        let disp = rmm.on_guest_event(
            CoreId(4),
            sender,
            GuestEvent::SendIpi {
                target_index: 1,
                sgi: 3,
            },
            &mut machine,
        );
        match disp {
            Disposition::ResumeWithIpi { target_core, .. } => {
                assert_eq!(target_core, CoreId(5));
            }
            other => panic!("expected ResumeWithIpi, got {other:?}"),
        }
        // Receiver core takes the doorbell: SGI 3 staged locally.
        let disp = rmm.on_guest_event(
            CoreId(5),
            receiver,
            GuestEvent::PhysIrq {
                intid: REALM_DOORBELL_SGI,
            },
            &mut machine,
        );
        assert!(matches!(disp, Disposition::Resume { .. }));
        assert_eq!(
            machine.gic().next_virtual_pending(CoreId(5)),
            Some(IntId::sgi(3))
        );
        assert_eq!(rmm.rec(sender).unwrap().exits_total(), 0);
        assert_eq!(rmm.rec(receiver).unwrap().exits_total(), 0);
    }

    #[test]
    fn wfi_idles_on_dedicated_core() {
        let (mut rmm, mut machine) = setup();
        let realm = build_realm(&mut rmm, &mut machine);
        let rec = RecId::new(realm, 0);
        rmm.rec_enter_with_list(CoreId(4), rec, &[], &mut machine);
        let disp = rmm.on_guest_event(CoreId(4), rec, GuestEvent::Wfi, &mut machine);
        assert!(matches!(disp, Disposition::Idle { .. }), "{disp:?}");
        // A delegated timer interrupt wakes it locally.
        let disp = rmm.on_phys_irq(CoreId(4), rec, IntId::VTIMER, &mut machine, true);
        assert!(matches!(disp, Disposition::Resume { .. }));
    }

    /// An IVC doorbell at a vCPU that is no endpoint of its channel is
    /// refused: at a running REC it costs the trap and the re-entry, at
    /// an idle one only the check. An endpoint's doorbell is injected.
    #[test]
    fn forged_ivc_doorbell_is_rejected() {
        let (mut rmm, mut machine) = setup();
        let realm = build_realm(&mut rmm, &mut machine);
        let (endpoint, victim) = (RecId::new(realm, 0), RecId::new(realm, 1));
        rmm.ivc_channels.push(IvcChannelReg {
            cfg: ChannelConfig {
                channel: 1,
                spi: 40,
                window: g(100),
            },
            a: endpoint,
            b: RecId::new(RealmId(1), 0),
        });
        rmm.rec_enter_with_list(CoreId(4), endpoint, &[], &mut machine);
        rmm.rec_enter_with_list(CoreId(5), victim, &[], &mut machine);
        let p = machine.params().clone();
        let doorbell = IntId::spi(40);
        for (idle, cost) in [
            (false, p.realm_exit_trap + p.realm_enter),
            (true, p.sysreg_trap_emulate),
        ] {
            let disp = rmm.on_phys_irq(CoreId(5), victim, doorbell, &mut machine, idle);
            assert_eq!(disp, Disposition::Rejected { cost }, "idle={idle}");
        }
        let disp = rmm.on_phys_irq(CoreId(4), endpoint, doorbell, &mut machine, false);
        assert!(matches!(disp, Disposition::Resume { .. }), "{disp:?}");
    }

    #[test]
    fn wfi_with_pending_interrupt_resumes() {
        let (mut rmm, mut machine) = setup();
        let realm = build_realm(&mut rmm, &mut machine);
        let rec = RecId::new(realm, 0);
        rmm.rec_enter_with_list(CoreId(4), rec, &[], &mut machine);
        rmm.rec_mut(rec)
            .unwrap()
            .vgic_mut()
            .inject_local(IntId::VTIMER);
        let disp = rmm.on_guest_event(CoreId(4), rec, GuestEvent::Wfi, &mut machine);
        assert!(matches!(disp, Disposition::Resume { .. }));
    }

    #[test]
    fn mmio_always_exits_and_filters_interrupts() {
        let (mut rmm, mut machine) = setup();
        let realm = build_realm(&mut rmm, &mut machine);
        let rec = RecId::new(realm, 0);
        rmm.rec_enter_with_list(CoreId(4), rec, &[IntId::spi(2)], &mut machine);
        // Delegated timer pending too — must not appear in the host view.
        rmm.rec_mut(rec)
            .unwrap()
            .vgic_mut()
            .inject_local(IntId::VTIMER);
        let disp = rmm.on_guest_event(
            CoreId(4),
            rec,
            GuestEvent::MmioWrite {
                ipa: 0x9000_0000,
                size: 4,
                value: 1,
            },
            &mut machine,
        );
        match disp {
            Disposition::ExitToHost { exit, .. } => {
                assert!(matches!(exit.reason, RecExitReason::MmioWrite { .. }));
                assert!(exit.interrupts.contains(&IntId::spi(2)));
                assert!(!exit.interrupts.contains(&IntId::VTIMER));
            }
            other => panic!("expected exit, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_halts_rec() {
        let (mut rmm, mut machine) = setup();
        let realm = build_realm(&mut rmm, &mut machine);
        let rec = RecId::new(realm, 0);
        rmm.rec_enter_with_list(CoreId(4), rec, &[], &mut machine);
        let disp = rmm.on_guest_event(CoreId(4), rec, GuestEvent::Shutdown, &mut machine);
        assert!(matches!(
            disp,
            Disposition::ExitToHost {
                exit: RecExit {
                    reason: RecExitReason::Shutdown,
                    ..
                },
                ..
            }
        ));
        assert_eq!(rmm.rec(rec).unwrap().state(), RecState::Halted);
        // A halted vCPU cannot be re-entered.
        let out = rmm.rec_enter_with_list(CoreId(4), rec, &[], &mut machine);
        assert_eq!(out.status, RmiStatus::ErrorRec);
    }

    #[test]
    fn reclaim_core_after_realm_teardown() {
        let (mut rmm, mut machine) = setup();
        let realm = build_realm(&mut rmm, &mut machine);
        let rec = RecId::new(realm, 0);
        rmm.rec_enter_with_list(CoreId(4), rec, &[], &mut machine);
        rmm.on_guest_event(CoreId(4), rec, GuestEvent::Shutdown, &mut machine);
        // While bound, reclaim fails.
        assert!(rmm.reclaim_core(CoreId(4), &mut machine).is_err());
        rmm.handle_rmi(CoreId(0), RmiCall::RecDestroy { rec }, &mut machine);
        rmm.reclaim_core(CoreId(4), &mut machine).unwrap();
        assert!(machine.cpu(CoreId(4)).is_host_schedulable());
    }

    #[test]
    fn rebind_moves_exited_rec_between_dedicated_cores() {
        let (mut rmm, mut machine) = setup();
        let realm = build_realm(&mut rmm, &mut machine);
        let rec = RecId::new(realm, 0);
        rmm.rec_enter_with_list(CoreId(4), rec, &[], &mut machine);
        // Mid-run the binding is immovable.
        assert_eq!(
            rmm.rebind_rec(rec, CoreId(5), &mut machine),
            Err(CoreGapError::RecRunning)
        );
        exit_via_mmio(&mut rmm, &mut machine, CoreId(4), rec);
        // Target must be dedicated.
        assert_eq!(
            rmm.rebind_rec(rec, CoreId(1), &mut machine),
            Err(CoreGapError::NotDedicated)
        );
        let cost = rmm.rebind_rec(rec, CoreId(5), &mut machine).unwrap();
        assert!(cost > SimDuration::ZERO);
        assert_eq!(rmm.coregap().binding(rec), Some(CoreId(5)));
        assert_eq!(rmm.coregap().core_owner(CoreId(4)), None);
        // The vacated core is reclaimable; the new one re-enters fine.
        rmm.reclaim_core(CoreId(4), &mut machine).unwrap();
        let out = rmm.rec_enter_with_list(CoreId(5), rec, &[], &mut machine);
        assert!(out.status.is_success(), "{out:?}");
        // Entering anywhere else keeps failing: the binding moved, it
        // did not loosen.
        exit_via_mmio(&mut rmm, &mut machine, CoreId(5), rec);
        machine.cpu_mut(CoreId(6)).offline();
        rmm.dedicate_core(CoreId(6), &mut machine).unwrap();
        let out = rmm.rec_enter_with_list(CoreId(6), rec, &[], &mut machine);
        assert_eq!(out.status, RmiStatus::ErrorCoreBinding);
    }

    #[test]
    fn unbind_rec_frees_core_without_destroying_rec() {
        let (mut rmm, mut machine) = setup();
        let realm = build_realm(&mut rmm, &mut machine);
        let rec = RecId::new(realm, 0);
        assert_eq!(rmm.unbind_rec(rec, &mut machine), None);
        rmm.rec_enter_with_list(CoreId(4), rec, &[], &mut machine);
        exit_via_mmio(&mut rmm, &mut machine, CoreId(4), rec);
        assert_eq!(rmm.unbind_rec(rec, &mut machine), Some(CoreId(4)));
        rmm.reclaim_core(CoreId(4), &mut machine).unwrap();
        // The REC lies dormant: a later entry on a fresh dedicated core
        // establishes a new first-entry binding (scale-up revival).
        machine.cpu_mut(CoreId(6)).offline();
        rmm.dedicate_core(CoreId(6), &mut machine).unwrap();
        let out = rmm.rec_enter_with_list(CoreId(6), rec, &[], &mut machine);
        assert!(out.status.is_success(), "{out:?}");
    }

    #[test]
    fn rsi_calls_serve_the_guest() {
        use cg_cca::{PlatformCert, RsiCall, RsiResult};
        let (mut rmm, mut machine) = setup();
        let realm = build_realm(&mut rmm, &mut machine);
        assert_eq!(
            rmm.handle_rsi(realm, RsiCall::Version),
            RsiResult::Version(1, 0)
        );
        match rmm.handle_rsi(realm, RsiCall::RealmConfig) {
            RsiResult::RealmConfig { ipa_width } => assert_eq!(ipa_width, 48),
            other => panic!("unexpected {other:?}"),
        }
        match rmm.handle_rsi(realm, RsiCall::AttestationToken { challenge: 7 }) {
            RsiResult::Token(token) => {
                assert!(token.verify(&PlatformCert::example(), rmm.platform_measurement(), 7));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Unknown realm → error.
        assert_eq!(
            rmm.handle_rsi(RealmId(99), RsiCall::AttestationToken { challenge: 1 }),
            RsiResult::Error
        );
    }

    /// Builds an active 1-vCPU realm at rd `g(10)` with an RTT chain and
    /// two protected data pages (ipa 0x1000, 0x2000), and dedicates
    /// core 4. Granules 10..60 are delegated.
    fn build_realm_with_data(rmm: &mut Rmm, machine: &mut Machine) -> RealmId {
        for n in 10..60 {
            machine.memory_mut().delegate(g(n)).unwrap();
        }
        let c = CoreId(0);
        let out = rmm.handle_rmi(
            c,
            RmiCall::RealmCreate {
                rd: g(10),
                num_recs: 1,
            },
            machine,
        );
        assert!(out.status.is_success(), "{out:?}");
        let realm = RealmId(0);
        for (lvl, n) in [(1u8, 20u64), (2, 21), (3, 22)] {
            let out = rmm.handle_rmi(
                c,
                RmiCall::RttCreate {
                    realm,
                    rtt: g(n),
                    ipa: 0,
                    level: cg_cca::RttLevel(lvl),
                },
                machine,
            );
            assert!(out.status.is_success(), "{out:?}");
        }
        for (ipa, n) in [(0x1000u64, 23u64), (0x2000, 24)] {
            let out = rmm.handle_rmi(
                c,
                RmiCall::DataCreate {
                    realm,
                    data: g(n),
                    ipa,
                },
                machine,
            );
            assert!(out.status.is_success(), "{out:?}");
        }
        let out = rmm.handle_rmi(
            c,
            RmiCall::RecCreate {
                realm,
                index: 0,
                rec: g(12),
            },
            machine,
        );
        assert!(out.status.is_success(), "{out:?}");
        assert!(rmm
            .handle_rmi(c, RmiCall::RealmActivate { realm }, machine)
            .status
            .is_success());
        machine.cpu_mut(CoreId(4)).offline();
        rmm.dedicate_core(CoreId(4), machine).unwrap();
        realm
    }

    /// Runs the source half of a migration: pre-copy rounds then an
    /// export, returning the sealed blob and the source measurement.
    fn export_blob(
        rmm: &mut Rmm,
        machine: &mut Machine,
    ) -> (crate::migrate::MigrationBlob, Measurement) {
        let realm = build_realm_with_data(rmm, machine);
        assert!(rmm.migration_begin(realm));
        // Round 1 carries the whole image.
        let round1 = rmm.migration_round(realm).unwrap();
        assert_eq!(round1.len(), 2);
        // The guest dirties one page during the copy; it shows up in
        // round 2 with a bumped version.
        rmm.note_guest_write(realm, 0x1000);
        let round2 = rmm.migration_round(realm).unwrap();
        assert_eq!((round2[0].ipa, round2[0].version), (0x1000, 1));
        // One more write before stop-and-copy: the export's delta.
        rmm.note_guest_write(realm, 0x2000);
        let out = rmm.handle_rmi(CoreId(0), RmiCall::MigrationExport { realm }, machine);
        assert!(out.status.is_success(), "{out:?}");
        let blob = rmm.take_migration_blob().unwrap();
        let src = rmm.realm(realm).unwrap().measurement();
        (blob, src)
    }

    #[test]
    fn migration_export_import_round_trip() {
        let (mut rmm, mut machine) = setup();
        let (blob, src) = export_blob(&mut rmm, &mut machine);
        assert!(blob.verify_seal());
        assert_eq!(blob.delta, 1, "one page dirty at stop-and-copy");
        assert_eq!(blob.frames.len(), 2);
        // Source realm is intact (abort-and-resume stays possible).
        assert_eq!(rmm.realm(RealmId(0)).unwrap().state(), RealmState::Active);
        assert!(!rmm.realm(RealmId(0)).unwrap().dirty_tracking());

        // Destination node: delegate a run and import.
        let (mut dst, mut dmachine) = setup();
        for n in 10..40 {
            dmachine.memory_mut().delegate(g(n)).unwrap();
        }
        dst.stage_migration_blob(blob);
        let out = dst.handle_rmi(
            CoreId(0),
            RmiCall::MigrationImport {
                rd: g(10),
                src_lo: src.0[0],
                src_hi: src.0[1],
            },
            &mut dmachine,
        );
        assert!(out.status.is_success(), "{out:?}");
        let imported = dst.realm(RealmId(0)).unwrap();
        assert_eq!(imported.state(), RealmState::Active);
        assert_eq!(imported.measurement(), src);
        assert_eq!(imported.generation(), 1);
        assert_eq!(imported.data_pages(), 2);
        assert_eq!(imported.rec_count(), 1);
        // The rebuilt RTT resolves the migrated pages.
        assert!(imported.rtt().translate(0x1000).is_ok());
        assert!(imported.rtt().translate(0x2000).is_ok());
        // The guest can see it moved.
        match dst.handle_rsi(RealmId(0), cg_cca::RsiCall::MigrationInfo) {
            cg_cca::RsiResult::MigrationInfo { generation } => assert_eq!(generation, 1),
            other => panic!("unexpected {other:?}"),
        }
        // And it can run: dedicate a core and enter the migrated vCPU.
        dmachine.cpu_mut(CoreId(4)).offline();
        dst.dedicate_core(CoreId(4), &mut dmachine).unwrap();
        let out = dst.rec_enter_with_list(CoreId(4), RecId::new(RealmId(0), 0), &[], &mut dmachine);
        assert!(out.status.is_success(), "{out:?}");
    }

    #[test]
    fn tampered_import_rejected_and_audited() {
        let (mut rmm, mut machine) = setup();
        let (mut blob, src) = export_blob(&mut rmm, &mut machine);
        blob.tamper();
        let (mut dst, mut dmachine) = setup();
        for n in 10..40 {
            dmachine.memory_mut().delegate(g(n)).unwrap();
        }
        dst.stage_migration_blob(blob);
        let out = dst.handle_rmi(
            CoreId(0),
            RmiCall::MigrationImport {
                rd: g(10),
                src_lo: src.0[0],
                src_hi: src.0[1],
            },
            &mut dmachine,
        );
        assert_eq!(out.status, RmiStatus::ErrorMeasurement);
        assert_eq!(dst.stats().imports_rejected, 1);
        assert_eq!(dst.realm_count(), 0, "no realm state left behind");
    }

    #[test]
    fn import_with_wrong_expected_measurement_rejected() {
        let (mut rmm, mut machine) = setup();
        let (blob, _) = export_blob(&mut rmm, &mut machine);
        let (mut dst, mut dmachine) = setup();
        for n in 10..40 {
            dmachine.memory_mut().delegate(g(n)).unwrap();
        }
        dst.stage_migration_blob(blob);
        let wrong = Measurement::of(b"not the source realm");
        let out = dst.handle_rmi(
            CoreId(0),
            RmiCall::MigrationImport {
                rd: g(10),
                src_lo: wrong.0[0],
                src_hi: wrong.0[1],
            },
            &mut dmachine,
        );
        assert_eq!(out.status, RmiStatus::ErrorMeasurement);
        assert_eq!(dst.stats().imports_rejected, 1);
    }

    #[test]
    fn import_with_short_granule_run_restages_blob() {
        let (mut rmm, mut machine) = setup();
        let (blob, src) = export_blob(&mut rmm, &mut machine);
        let (mut dst, mut dmachine) = setup();
        // No granules delegated yet: the import must fail on the run
        // check without consuming the blob.
        dst.stage_migration_blob(blob);
        let call = RmiCall::MigrationImport {
            rd: g(10),
            src_lo: src.0[0],
            src_hi: src.0[1],
        };
        let out = dst.handle_rmi(CoreId(0), call, &mut dmachine);
        assert_eq!(out.status, RmiStatus::ErrorGranule);
        // Fix the delegation and retry — the staged blob survived.
        for n in 10..40 {
            dmachine.memory_mut().delegate(g(n)).unwrap();
        }
        let out = dst.handle_rmi(CoreId(0), call, &mut dmachine);
        assert!(out.status.is_success(), "{out:?}");
    }

    #[test]
    fn export_requires_quiesce_and_tracking() {
        let (mut rmm, mut machine) = setup();
        let realm = build_realm_with_data(&mut rmm, &mut machine);
        // No migration_begin: refused.
        let out = rmm.handle_rmi(CoreId(0), RmiCall::MigrationExport { realm }, &mut machine);
        assert_eq!(out.status, RmiStatus::ErrorRealm);
        assert!(rmm.migration_begin(realm));
        // A running vCPU blocks the export until the host quiesces it.
        let rec = RecId::new(realm, 0);
        rmm.rec_enter_with_list(CoreId(4), rec, &[], &mut machine);
        let out = rmm.handle_rmi(CoreId(0), RmiCall::MigrationExport { realm }, &mut machine);
        assert_eq!(out.status, RmiStatus::ErrorInUse);
        exit_via_mmio(&mut rmm, &mut machine, CoreId(4), rec);
        let out = rmm.handle_rmi(CoreId(0), RmiCall::MigrationExport { realm }, &mut machine);
        assert!(out.status.is_success(), "{out:?}");
        // Cancelling after an abort discards the blob and tracking.
        rmm.migration_cancel(realm);
        assert!(rmm.take_migration_blob().is_none());
        assert!(!rmm.realm(realm).unwrap().dirty_tracking());
    }

    #[test]
    fn data_create_measures_and_maps() {
        let (mut rmm, mut machine) = setup();
        let realm = build_realm(&mut rmm, &mut machine);
        let rim_before = rmm.realm(realm).unwrap().measurement();
        // Need RTT chain before data can be mapped: create tables 1..3.
        for (lvl, n) in [(1u8, 20u64), (2, 21), (3, 22)] {
            let out = rmm.handle_rmi(
                CoreId(0),
                RmiCall::RttCreate {
                    realm,
                    rtt: g(n),
                    ipa: 0,
                    level: cg_cca::RttLevel(lvl),
                },
                &mut machine,
            );
            assert!(out.status.is_success(), "level {lvl}: {out:?}");
        }
        // Realm is already Active: DATA_CREATE must fail (post-activation
        // pages go through a different path not modelled here).
        let out = rmm.handle_rmi(
            CoreId(0),
            RmiCall::DataCreate {
                realm,
                data: g(23),
                ipa: 0x1000,
            },
            &mut machine,
        );
        assert_eq!(out.status, RmiStatus::ErrorRealm);
        let _ = rim_before;
    }
}
