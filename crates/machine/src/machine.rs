//! The aggregate machine: cores + microarchitectural state + memory +
//! interrupt controller + timers.

use std::collections::BTreeSet;

use cg_sim::{SimDuration, TraceHandle};

use crate::cpu::{Cpu, World};
use crate::gic::Gic;
use crate::ids::{CoreId, Domain, SecretId};
use crate::memory::GranuleMap;
use crate::microarch::{MicroArch, TaintLabel};
use crate::params::{HwParams, ParamError};
use crate::timer::GenericTimer;

/// The simulated server platform.
///
/// Passive state only: methods mutate state and return implied time costs;
/// the system event loop in `cg-core` schedules the corresponding events.
///
/// # Example
///
/// ```
/// use cg_machine::{CoreId, Domain, HwParams, Machine};
/// use cg_sim::SimDuration;
///
/// let mut m = Machine::new(HwParams::small()).unwrap();
/// let wall = m.run_compute(CoreId(0), Domain::Host, SimDuration::micros(10));
/// assert!(wall >= SimDuration::micros(10));
/// ```
#[derive(Debug)]
pub struct Machine {
    params: HwParams,
    cpus: Vec<Cpu>,
    microarch: Vec<MicroArch>,
    timers: Vec<GenericTimer>,
    gic: Gic,
    memory: GranuleMap,
    /// Footprints in the *shared* last-level cache — the one structure
    /// core gapping does not protect (out of scope per the threat model,
    /// §2.4; the paper recommends hardware cache partitioning).
    llc_taint: BTreeSet<TaintLabel>,
    /// Observation handle, shared with the GIC and every timer; world
    /// switches record their cost as complete spans.
    trace: TraceHandle,
}

impl Machine {
    /// Default physical memory size: 256 GiB, matching a large cloud host.
    pub const DEFAULT_MEMORY_BYTES: u64 = 256 << 30;

    /// Builds a machine from hardware parameters.
    ///
    /// # Errors
    ///
    /// Returns the [`ParamError`] if `params` fails
    /// [`HwParams::validate`]; nothing is constructed in that case.
    pub fn new(params: HwParams) -> Result<Machine, ParamError> {
        Machine::with_trace(params, TraceHandle::disabled())
    }

    /// Builds a machine whose interrupt controller, per-core timers and
    /// world switches record through `trace`.
    ///
    /// # Errors
    ///
    /// As [`Machine::new`].
    pub fn with_trace(params: HwParams, trace: TraceHandle) -> Result<Machine, ParamError> {
        params.validate()?;
        let n = params.num_cores;
        Ok(Machine {
            cpus: (0..n).map(|i| Cpu::new(CoreId(i))).collect(),
            microarch: (0..n).map(|_| MicroArch::new()).collect(),
            timers: (0..n)
                .map(|i| GenericTimer::with_trace(trace.clone(), i))
                .collect(),
            gic: Gic::with_trace(n, params.num_list_regs, trace.clone()),
            memory: GranuleMap::new(Machine::DEFAULT_MEMORY_BYTES),
            llc_taint: BTreeSet::new(),
            trace,
            params,
        })
    }

    /// The hardware parameters this machine was built with.
    pub fn params(&self) -> &HwParams {
        &self.params
    }

    /// Number of physical cores.
    pub fn num_cores(&self) -> u16 {
        self.cpus.len() as u16
    }

    /// Iterates over all core ids.
    pub fn core_ids(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.num_cores()).map(CoreId)
    }

    /// Immutable access to a core.
    pub fn cpu(&self, core: CoreId) -> &Cpu {
        &self.cpus[core.index()]
    }

    /// Mutable access to a core.
    pub fn cpu_mut(&mut self, core: CoreId) -> &mut Cpu {
        &mut self.cpus[core.index()]
    }

    /// Immutable access to a core's microarchitectural state.
    pub fn microarch(&self, core: CoreId) -> &MicroArch {
        &self.microarch[core.index()]
    }

    /// Mutable access to a core's microarchitectural state.
    pub fn microarch_mut(&mut self, core: CoreId) -> &mut MicroArch {
        &mut self.microarch[core.index()]
    }

    /// Immutable access to a core's generic timer.
    pub fn timer(&self, core: CoreId) -> &GenericTimer {
        &self.timers[core.index()]
    }

    /// Mutable access to a core's generic timer.
    pub fn timer_mut(&mut self, core: CoreId) -> &mut GenericTimer {
        &mut self.timers[core.index()]
    }

    /// Immutable access to the interrupt controller.
    pub fn gic(&self) -> &Gic {
        &self.gic
    }

    /// Mutable access to the interrupt controller.
    pub fn gic_mut(&mut self) -> &mut Gic {
        &mut self.gic
    }

    /// Immutable access to the granule protection table.
    pub fn memory(&self) -> &GranuleMap {
        &self.memory
    }

    /// Mutable access to the granule protection table.
    pub fn memory_mut(&mut self) -> &mut GranuleMap {
        &mut self.memory
    }

    /// Executes `work` of ideal compute for `domain` on `core`, updating
    /// warmth/taint and returning the wall-clock time consumed.
    pub fn run_compute(&mut self, core: CoreId, domain: Domain, work: SimDuration) -> SimDuration {
        self.cpus[core.index()].set_current_domain(Some(domain));
        self.llc_taint.insert(TaintLabel::plain(domain));
        self.microarch[core.index()].run_compute(domain, work, &self.params)
    }

    /// Fixed-cost work for `domain` on `core`: charges exactly `wall`
    /// (no warmth scaling) while still updating warmth and taint. Used
    /// for calibrated host and monitor code paths.
    pub fn run_fixed(&mut self, core: CoreId, domain: Domain, wall: SimDuration) {
        self.cpus[core.index()].set_current_domain(Some(domain));
        self.llc_taint.insert(TaintLabel::plain(domain));
        self.microarch[core.index()].run_fixed(domain, wall, &self.params);
    }

    /// Secret-dependent variant of [`Machine::run_compute`].
    pub fn run_secret_compute(
        &mut self,
        core: CoreId,
        domain: Domain,
        secret: SecretId,
        work: SimDuration,
    ) -> SimDuration {
        self.cpus[core.index()].set_current_domain(Some(domain));
        self.llc_taint.insert(TaintLabel::plain(domain));
        self.llc_taint.insert(TaintLabel::secret(domain, secret));
        self.microarch[core.index()].run_secret_compute(domain, secret, work, &self.params)
    }

    /// Performs a world switch on `core`, applying the mitigation flush
    /// when the switch crosses a trust boundary, and returns its time cost.
    ///
    /// Transitions between normal world and realm world are trust-boundary
    /// crossings; entering/leaving root world from either side is charged
    /// the base SMC cost (EL3 applies its own mitigations, folded into the
    /// flush cost when the overall transition crosses the boundary).
    pub fn world_switch(&mut self, core: CoreId, to: World) -> SimDuration {
        let from = self.cpus[core.index()].world();
        if from == to {
            return SimDuration::ZERO;
        }
        self.cpus[core.index()].set_world(to);
        let crosses_trust_boundary = matches!(
            (from, to),
            (World::Normal, World::Realm)
                | (World::Realm, World::Normal)
                | (World::Root, World::Normal)
                | (World::Root, World::Realm)
                | (World::Normal, World::Root)
                | (World::Realm, World::Root)
        );
        // A hop through EL3 costs half the SMC round trip; boundary hops
        // out of root world carry the mitigation flush applied on behalf
        // of the destination world.
        let base = self.params.smc_round_trip / 2;
        let cost = if crosses_trust_boundary && matches!(to, World::Normal | World::Realm) {
            self.microarch[core.index()].mitigation_flush();
            base + self.params.mitigation_flush
        } else {
            base
        };
        self.trace.record_dur(
            cg_sim::SpanKind::WorldSwitch,
            Some(core.0),
            None,
            None,
            cost,
        );
        cost
    }

    /// Number of distinct taint labels resident in the shared LLC (a
    /// cheap gauge for the telemetry sampler).
    pub fn llc_taint_count(&self) -> usize {
        self.llc_taint.len()
    }

    /// Probes the shared last-level cache from any core: returns the
    /// foreign footprints `observer` can learn. This channel crosses
    /// cores — core gapping does not close it (threat-model boundary).
    pub fn probe_llc(&self, observer: Domain) -> Vec<TaintLabel> {
        self.llc_taint
            .iter()
            .filter(|l| l.domain.leaks_to(observer))
            .copied()
            .collect()
    }

    /// Convenience: the full cost of a same-core null call into the RMM
    /// and back (normal → root → realm → root → normal), as the paper's
    /// table 2 lower-bounds with the EL3 null call.
    pub fn same_core_rmm_call_cost(&mut self, core: CoreId) -> SimDuration {
        let mut total = SimDuration::ZERO;
        total += self.world_switch(core, World::Root);
        total += self.world_switch(core, World::Realm);
        total += self.world_switch(core, World::Root);
        total += self.world_switch(core, World::Normal);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RealmId;
    use crate::microarch::Structure;

    fn machine() -> Machine {
        Machine::new(HwParams::small()).unwrap()
    }

    #[test]
    fn construction_sizes_everything() {
        let m = machine();
        assert_eq!(m.num_cores(), 8);
        assert_eq!(m.core_ids().count(), 8);
        assert_eq!(m.gic().num_list_regs(), m.params().num_list_regs);
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = HwParams::small();
        p.num_cores = 0;
        assert_eq!(Machine::new(p).unwrap_err(), ParamError::ZeroCores);
    }

    #[test]
    fn compute_charges_slowdown_and_warms() {
        let mut m = machine();
        let c = CoreId(0);
        let d = Domain::Realm(RealmId(0));
        let w1 = m.run_compute(c, d, SimDuration::micros(100));
        let w2 = m.run_compute(c, d, SimDuration::micros(100));
        assert!(w2 < w1);
        assert_eq!(m.cpu(c).current_domain(), Some(d));
    }

    #[test]
    fn world_switch_costs_and_flushes() {
        let mut m = machine();
        let c = CoreId(0);
        // Warm up the branch predictor as the host.
        for _ in 0..50 {
            m.run_compute(c, Domain::Host, SimDuration::micros(100));
        }
        assert!(m.microarch(c).bp_residency(Domain::Host) > 0.9);
        let into_root = m.world_switch(c, World::Root);
        assert!(into_root > SimDuration::ZERO);
        // Entering realm world from root applies the mitigation flush.
        let into_realm = m.world_switch(c, World::Realm);
        assert!(into_realm > into_root);
        assert_eq!(m.microarch(c).bp_residency(Domain::Host), 0.0);
    }

    #[test]
    fn same_world_switch_is_free() {
        let mut m = machine();
        assert_eq!(m.world_switch(CoreId(0), World::Normal), SimDuration::ZERO);
    }

    #[test]
    fn same_core_rmm_call_exceeds_el3_null_call() {
        let mut m = machine();
        let cost = m.same_core_rmm_call_cost(CoreId(1));
        // Table 2: the same-core path is lower-bounded by the EL3 null
        // call at > 12.8 µs.
        assert!(cost >= SimDuration::nanos(12_800), "cost was {cost}");
        assert_eq!(m.cpu(CoreId(1)).world(), World::Normal);
    }

    #[test]
    fn secret_compute_taints_core() {
        let mut m = machine();
        let c = CoreId(2);
        let d = Domain::Realm(RealmId(1));
        m.run_secret_compute(c, d, SecretId(5), SimDuration::micros(1));
        let seen = m.microarch(c).probe(Structure::L1d, Domain::Host);
        assert!(seen.iter().any(|l| l.secret == Some(SecretId(5))));
        // Other cores are untouched.
        assert!(m
            .microarch(CoreId(3))
            .probe(Structure::L1d, Domain::Host)
            .is_empty());
    }

    #[test]
    fn memory_is_shared_machine_state() {
        let mut m = machine();
        let g = crate::memory::GranuleAddr::new(0x100000).unwrap();
        m.memory_mut().delegate(g).unwrap();
        assert!(m.memory().check_access(Domain::Host, g).is_err());
    }
}
