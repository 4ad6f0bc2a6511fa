//! Per-core microarchitectural state: warmth (performance) and taint
//! (security).
//!
//! The same structures drive both halves of the reproduction:
//!
//! * **Warmth** models how much of a domain's working set is resident in
//!   per-core structures. It produces the locality effects behind the
//!   paper's performance results: a shared-core VM that exits to the host
//!   loses L1/TLB/branch-predictor residency, while a core-gapped vCPU
//!   keeps its structures warm (paper §2.3, §5.2).
//!
//! * **Taint** records which domains (and which secrets) have left
//!   observable footprints in each structure. The `cg-attacks` crate uses
//!   this to check the paper's central security claim: with core gapping,
//!   no same-core structure ever carries another domain's footprint when a
//!   distrusting domain runs.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use cg_sim::SimDuration;

use crate::ids::{Domain, SecretId};
use crate::params::HwParams;

/// A microarchitectural structure that can carry footprints.
///
/// The split mirrors the paper's threat model (§2.4): everything except
/// [`Structure::Llc`] is per-core and therefore protected by core gapping;
/// the LLC is shared across cores and explicitly out of scope (the paper
/// recommends hardware cache partitioning for it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Structure {
    /// Level-1 data cache (per core).
    L1d,
    /// Level-1 instruction cache (per core).
    L1i,
    /// Translation lookaside buffers (per core).
    Tlb,
    /// Branch predictor state: BTB, BHB, RSB (per core).
    BranchPredictor,
    /// Store/fill/staging buffers exploited by MDS-class attacks (per
    /// core).
    FillBuffer,
    /// Last-level cache (shared across cores; out of scope for core
    /// gapping).
    Llc,
}

impl Structure {
    /// All structures, per-core first.
    pub const ALL: [Structure; 6] = [
        Structure::L1d,
        Structure::L1i,
        Structure::Tlb,
        Structure::BranchPredictor,
        Structure::FillBuffer,
        Structure::Llc,
    ];

    /// The per-core structures protected by core gapping.
    pub const PER_CORE: [Structure; 5] = [
        Structure::L1d,
        Structure::L1i,
        Structure::Tlb,
        Structure::BranchPredictor,
        Structure::FillBuffer,
    ];

    /// Returns `true` if the structure is private to a core.
    pub fn is_per_core(self) -> bool {
        !matches!(self, Structure::Llc)
    }

    /// Returns `true` if the trust-boundary mitigation flush (as applied
    /// by firmware on world switches, cf. TDX's branch-history flush)
    /// clears this structure.
    ///
    /// Caches and TLBs are *not* cleared by such mitigations — flushing
    /// them wholesale is too expensive, which is exactly why cache-timing
    /// channels persist on shared cores.
    pub fn cleared_by_mitigation(self) -> bool {
        matches!(self, Structure::BranchPredictor | Structure::FillBuffer)
    }
}

/// A footprint label: which domain left state behind, and whether the
/// footprint depends on a secret.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaintLabel {
    /// The domain that created the footprint.
    pub domain: Domain,
    /// The secret the footprint depends on, if any. A `None` footprint
    /// still reveals *execution* of the domain (fingerprinting); a
    /// `Some` footprint reveals secret-dependent state — the payload of a
    /// transient-execution attack.
    pub secret: Option<SecretId>,
}

impl TaintLabel {
    /// A footprint that does not depend on any secret.
    pub fn plain(domain: Domain) -> TaintLabel {
        TaintLabel {
            domain,
            secret: None,
        }
    }

    /// A secret-dependent footprint.
    pub fn secret(domain: Domain, secret: SecretId) -> TaintLabel {
        TaintLabel {
            domain,
            secret: Some(secret),
        }
    }
}

/// Residency of one domain's working set in the per-core structures.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Warmth {
    l1: f64,
    tlb: f64,
    bp: f64,
}

impl Warmth {
    const COLD: Warmth = Warmth {
        l1: 0.0,
        tlb: 0.0,
        bp: 0.0,
    };

    fn decay(&mut self, factor: f64) {
        self.l1 *= factor;
        self.tlb *= factor;
        self.bp *= factor;
    }

    fn warm(&mut self, factor: f64) {
        // Exponential approach to fully resident.
        self.l1 += (1.0 - self.l1) * factor;
        self.tlb += (1.0 - self.tlb) * factor;
        self.bp += (1.0 - self.bp) * factor;
    }
}

/// Residency of every domain's working set in one core's per-core
/// structures: the warmth half of [`MicroArch`].
///
/// It is a plain value, so a caller can clone a core's residency and work
/// out the walls of compute that has not run yet. [`Residency::run_compute`]
/// is the arithmetic [`MicroArch::run_compute`] itself uses, so the same
/// sequence of calls on a copy and on the core yields bit-identical walls
/// and warmth. Equality compares the warmth alone.
///
/// # Example
///
/// ```
/// use cg_machine::{Domain, HwParams, MicroArch};
/// use cg_sim::SimDuration;
///
/// let params = HwParams::small();
/// let mut core = MicroArch::new();
/// let mut ahead = core.residency().clone();
/// let unit = SimDuration::micros(100);
/// let planned = [ahead.run_compute(Domain::Host, unit, &params),
///                ahead.run_compute(Domain::Host, unit, &params)];
/// // The core itself is untouched until the work really runs.
/// assert_ne!(core.residency(), &ahead);
/// assert_eq!(core.run_compute(Domain::Host, unit, &params), planned[0]);
/// assert_eq!(core.run_compute(Domain::Host, unit, &params), planned[1]);
/// assert_eq!(core.residency(), &ahead);
/// ```
#[derive(Debug, Default)]
pub struct Residency {
    /// Each domain's warmth, sorted by domain.
    warmth: Vec<(Domain, Warmth)>,
    /// Decay factors already worked out; not part of the value.
    memo: DecayMemo,
}

impl PartialEq for Residency {
    fn eq(&self, other: &Residency) -> bool {
        self.warmth == other.warmth
    }
}

impl Clone for Residency {
    fn clone(&self) -> Residency {
        Residency {
            warmth: self.warmth.clone(),
            memo: self.memo,
        }
    }

    /// Reuses `self`'s allocation: planning clones a core's residency
    /// for every run-ahead batch.
    fn clone_from(&mut self, source: &Residency) {
        self.warmth.clone_from(&source.warmth);
        self.memo = source.memo;
    }
}

impl Residency {
    /// The slowdown factor (≥ 1.0) `domain` currently experiences,
    /// given its structure residency.
    pub fn slowdown(&self, domain: Domain, params: &HwParams) -> f64 {
        let w = self.get(domain).unwrap_or(Warmth::COLD);
        1.0 + params.l1_penalty * (1.0 - w.l1)
            + params.tlb_penalty * (1.0 - w.tlb) * (1.0 + params.gpc_check_factor)
            + params.bp_penalty * (1.0 - w.bp)
    }

    /// Runs `work` of ideal (fully warm) compute for `domain`: returns
    /// the wall-clock time it takes, warms `domain` and evicts every other
    /// domain for that long.
    pub fn run_compute(
        &mut self,
        domain: Domain,
        work: SimDuration,
        params: &HwParams,
    ) -> SimDuration {
        let wall = work.scaled(self.slowdown(domain, params));
        self.advance(domain, wall, params);
        wall
    }

    /// Current residency of `domain` in the L1, in `[0, 1]`.
    pub fn l1(&self, domain: Domain) -> f64 {
        self.get(domain).map(|w| w.l1).unwrap_or(0.0)
    }

    /// Current residency of `domain` in the branch predictor, in `[0, 1]`.
    pub fn bp(&self, domain: Domain) -> f64 {
        self.get(domain).map(|w| w.bp).unwrap_or(0.0)
    }

    fn get(&self, domain: Domain) -> Option<Warmth> {
        self.warmth
            .iter()
            .find(|(d, _)| *d == domain)
            .map(|&(_, w)| w)
    }

    fn advance(&mut self, domain: Domain, wall: SimDuration, params: &HwParams) {
        let (warm_f, evict_f) = self.memo.factors(wall, params);
        let mut found = false;
        for (d, w) in &mut self.warmth {
            if *d == domain {
                w.warm(warm_f);
                found = true;
            } else {
                w.decay(evict_f);
            }
        }
        if !found {
            let mut w = Warmth::COLD;
            w.warm(warm_f);
            let at = self.warmth.partition_point(|(d, _)| *d < domain);
            self.warmth.insert(at, (domain, w));
        }
    }
}

/// The decay factors of the last few walls [`Residency::advance`] saw,
/// with the time constants they were worked out for. Each costs two
/// `exp` calls, and a core's compute mostly repeats a few walls.
#[derive(Debug, Clone, Copy, Default)]
struct DecayMemo {
    slots: [Option<Decay>; DecayMemo::SLOTS],
    /// The slot the next miss overwrites.
    next: usize,
}

/// The decay factors of one wall under one pair of time constants.
#[derive(Debug, Clone, Copy)]
struct Decay {
    /// `(wall, warmup_tau, evict_tau)` in ns.
    key: [u64; 3],
    /// The share of a domain's missing working set the wall warms.
    warm_f: f64,
    /// The share of every other domain's working set that survives it.
    evict_f: f64,
}

impl DecayMemo {
    const SLOTS: usize = 4;

    /// `(warm_f, evict_f)` for `wall` under `params`' time constants.
    fn factors(&mut self, wall: SimDuration, params: &HwParams) -> (f64, f64) {
        let key = [
            wall.as_nanos(),
            params.warmup_tau.as_nanos(),
            params.evict_tau.as_nanos(),
        ];
        if let Some(d) = self.slots.iter().flatten().find(|d| d.key == key) {
            return (d.warm_f, d.evict_f);
        }
        let warm_f = 1.0 - (-(wall.as_nanos() as f64) / params.warmup_tau.as_nanos() as f64).exp();
        let evict_f = (-(wall.as_nanos() as f64) / params.evict_tau.as_nanos() as f64).exp();
        self.slots[self.next] = Some(Decay {
            key,
            warm_f,
            evict_f,
        });
        self.next = (self.next + 1) % DecayMemo::SLOTS;
        (warm_f, evict_f)
    }
}

/// The microarchitectural state of one core.
///
/// # Example
///
/// ```
/// use cg_machine::{Domain, HwParams, MicroArch};
/// use cg_sim::SimDuration;
///
/// let params = HwParams::small();
/// let mut ua = MicroArch::new();
/// // A cold domain runs slower than ideal...
/// let wall = ua.run_compute(Domain::Host, SimDuration::micros(100), &params);
/// assert!(wall > SimDuration::micros(100));
/// // ...and warms up as it computes.
/// let wall2 = ua.run_compute(Domain::Host, SimDuration::micros(100), &params);
/// assert!(wall2 < wall);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MicroArch {
    residency: Residency,
    taint: BTreeMap<Structure, BTreeSet<TaintLabel>>,
    /// The domain whose plain footprint every structure is known to
    /// carry, so its repeated compute skips recording it again.
    /// Footprints are only ever added, except by a flush or a reset,
    /// which clear this.
    marked: Option<Domain>,
}

impl MicroArch {
    /// Creates cold, untainted state.
    pub fn new() -> MicroArch {
        MicroArch::default()
    }

    /// The slowdown factor (≥ 1.0) `domain` currently experiences on this
    /// core, given its structure residency.
    pub fn slowdown(&self, domain: Domain, params: &HwParams) -> f64 {
        self.residency.slowdown(domain, params)
    }

    /// The warmth of every domain on this core.
    pub fn residency(&self) -> &Residency {
        &self.residency
    }

    /// Executes `work` (ideal, fully-warm compute time) for `domain`,
    /// returning the wall-clock time consumed.
    ///
    /// Warms `domain`'s residency, evicts other domains' residency, and
    /// leaves plain footprints in every per-core structure and the LLC.
    pub fn run_compute(
        &mut self,
        domain: Domain,
        work: SimDuration,
        params: &HwParams,
    ) -> SimDuration {
        let wall = self.residency.run_compute(domain, work, params);
        self.leave_plain_footprints(domain);
        wall
    }

    /// Executes `wall` of *fixed-cost* work for `domain`: the time is
    /// charged at face value (used for calibrated host/monitor code paths
    /// whose measured costs already include their memory behaviour), but
    /// warmth and taint bookkeeping still applies — foreign working sets
    /// are evicted and footprints are left behind.
    pub fn run_fixed(&mut self, domain: Domain, wall: SimDuration, params: &HwParams) {
        self.residency.advance(domain, wall, params);
        self.leave_plain_footprints(domain);
    }

    /// Records `domain`'s plain footprint in every structure, unless it
    /// is known to be there already.
    fn leave_plain_footprints(&mut self, domain: Domain) {
        if self.marked == Some(domain) {
            return;
        }
        let label = TaintLabel::plain(domain);
        for s in Structure::ALL {
            self.touch(s, label);
        }
        self.marked = Some(domain);
    }

    /// Like [`MicroArch::run_compute`], but the computation is
    /// secret-dependent: footprints carry the secret label. This is how
    /// attack scenarios model a victim operating on sensitive data.
    pub fn run_secret_compute(
        &mut self,
        domain: Domain,
        secret: SecretId,
        work: SimDuration,
        params: &HwParams,
    ) -> SimDuration {
        let wall = self.run_compute(domain, work, params);
        let label = TaintLabel::secret(domain, secret);
        for s in Structure::ALL {
            self.touch(s, label);
        }
        wall
    }

    /// Applies the effects of a trust-boundary crossing *with* the
    /// firmware mitigation flush: branch predictor and fill buffers are
    /// cleared (warmth and taint), for **all** domains — the flush is
    /// indiscriminate, which is why it costs performance.
    pub fn mitigation_flush(&mut self) {
        for (_, w) in &mut self.residency.warmth {
            w.bp = 0.0;
        }
        for s in Structure::ALL {
            if s.cleared_by_mitigation() {
                self.taint.remove(&s);
            }
        }
        self.marked = None;
    }

    /// Records a footprint in `structure`.
    pub fn touch(&mut self, structure: Structure, label: TaintLabel) {
        self.taint.entry(structure).or_default().insert(label);
    }

    /// Returns the foreign footprints `observer` could learn by probing
    /// `structure` on this core (e.g. via prime+probe timing): every label
    /// whose originating domain leaks to `observer`.
    ///
    /// Probing is a pure observation: it does not alter state. The caller
    /// decides whether the observer can architecturally reach the
    /// structure (same core for per-core structures).
    pub fn probe(&self, structure: Structure, observer: Domain) -> Vec<TaintLabel> {
        self.taint
            .get(&structure)
            .map(|set| {
                set.iter()
                    .filter(|l| l.domain.leaks_to(observer))
                    .copied()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// All labels currently present in `structure`.
    pub fn footprints(&self, structure: Structure) -> Vec<TaintLabel> {
        self.taint
            .get(&structure)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Current residency of `domain` in the L1, in `[0, 1]`.
    pub fn l1_residency(&self, domain: Domain) -> f64 {
        self.residency.l1(domain)
    }

    /// Current residency of `domain` in the branch predictor, in `[0, 1]`.
    pub fn bp_residency(&self, domain: Domain) -> f64 {
        self.residency.bp(domain)
    }

    /// Clears all warmth and taint (power-on reset).
    pub fn reset(&mut self) {
        self.residency.warmth.clear();
        self.taint.clear();
        self.marked = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RealmId;

    fn params() -> HwParams {
        HwParams::small()
    }

    const HOST: Domain = Domain::Host;
    const R1: Domain = Domain::Realm(RealmId(1));

    #[test]
    fn cold_start_is_max_slowdown() {
        let ua = MicroArch::new();
        let p = params();
        let s = ua.slowdown(HOST, &p);
        assert!((s - p.max_slowdown()).abs() < 1e-9);
    }

    #[test]
    fn compute_warms_up_and_speeds_up() {
        let mut ua = MicroArch::new();
        let p = params();
        let work = SimDuration::micros(200);
        let first = ua.run_compute(R1, work, &p);
        let second = ua.run_compute(R1, work, &p);
        let third = ua.run_compute(R1, work, &p);
        assert!(second < first);
        assert!(third <= second);
        // After plenty of compute, slowdown approaches 1.
        for _ in 0..50 {
            ua.run_compute(R1, work, &p);
        }
        assert!(ua.slowdown(R1, &p) < 1.02);
    }

    #[test]
    fn foreign_compute_evicts_residency() {
        let mut ua = MicroArch::new();
        let p = params();
        for _ in 0..50 {
            ua.run_compute(R1, SimDuration::micros(100), &p);
        }
        let warm = ua.l1_residency(R1);
        ua.run_compute(HOST, SimDuration::micros(300), &p);
        let after = ua.l1_residency(R1);
        assert!(after < warm, "host compute should evict realm working set");
    }

    #[test]
    fn mitigation_flush_clears_bp_but_not_l1() {
        let mut ua = MicroArch::new();
        let p = params();
        for _ in 0..50 {
            ua.run_compute(R1, SimDuration::micros(100), &p);
        }
        assert!(ua.bp_residency(R1) > 0.9);
        let l1_before = ua.l1_residency(R1);
        ua.mitigation_flush();
        assert_eq!(ua.bp_residency(R1), 0.0);
        assert_eq!(ua.l1_residency(R1), l1_before);
    }

    #[test]
    fn compute_taints_all_structures() {
        let mut ua = MicroArch::new();
        let p = params();
        ua.run_compute(R1, SimDuration::micros(10), &p);
        for s in Structure::ALL {
            assert!(
                ua.footprints(s).contains(&TaintLabel::plain(R1)),
                "{s:?} should carry realm footprint"
            );
        }
    }

    #[test]
    fn probe_reveals_only_leaking_labels() {
        let mut ua = MicroArch::new();
        ua.touch(Structure::L1d, TaintLabel::plain(Domain::Monitor));
        ua.touch(Structure::L1d, TaintLabel::plain(R1));
        let seen = ua.probe(Structure::L1d, HOST);
        assert_eq!(seen, vec![TaintLabel::plain(R1)]);
        // The realm probing sees the host? There is no host label, and the
        // monitor label is trusted, so nothing leaks.
        let seen = ua.probe(Structure::Tlb, R1);
        assert!(seen.is_empty());
    }

    #[test]
    fn secret_compute_leaves_secret_footprint() {
        let mut ua = MicroArch::new();
        let p = params();
        let secret = SecretId(99);
        ua.run_secret_compute(R1, secret, SimDuration::micros(5), &p);
        let seen = ua.probe(Structure::FillBuffer, HOST);
        assert!(seen.contains(&TaintLabel::secret(R1, secret)));
    }

    #[test]
    fn mitigation_flush_clears_bp_and_fill_buffer_taint() {
        let mut ua = MicroArch::new();
        let p = params();
        ua.run_secret_compute(R1, SecretId(1), SimDuration::micros(5), &p);
        ua.mitigation_flush();
        assert!(ua.footprints(Structure::BranchPredictor).is_empty());
        assert!(ua.footprints(Structure::FillBuffer).is_empty());
        // Cache/TLB taint survives: mitigations do not flush caches.
        assert!(!ua.footprints(Structure::L1d).is_empty());
        assert!(!ua.footprints(Structure::Tlb).is_empty());
    }

    #[test]
    fn compute_after_a_flush_records_footprints_again() {
        let mut ua = MicroArch::new();
        let p = params();
        ua.run_compute(R1, SimDuration::micros(5), &p);
        ua.mitigation_flush();
        assert!(ua.footprints(Structure::BranchPredictor).is_empty());
        ua.run_compute(R1, SimDuration::micros(5), &p);
        assert_eq!(
            ua.footprints(Structure::BranchPredictor),
            vec![TaintLabel::plain(R1)]
        );
        ua.reset();
        ua.run_fixed(R1, SimDuration::micros(5), &p);
        assert_eq!(ua.footprints(Structure::L1d), vec![TaintLabel::plain(R1)]);
    }

    #[test]
    fn reset_clears_everything() {
        let mut ua = MicroArch::new();
        let p = params();
        ua.run_compute(R1, SimDuration::micros(5), &p);
        ua.reset();
        assert_eq!(ua.l1_residency(R1), 0.0);
        assert!(ua.footprints(Structure::L1d).is_empty());
    }

    #[test]
    fn residency_equality_is_by_warmth_alone() {
        let p = params();
        let (mut a, mut b) = (MicroArch::new(), MicroArch::new());
        // Zero walls add cold domains without warming or evicting.
        a.run_fixed(HOST, SimDuration::ZERO, &p);
        a.run_fixed(R1, SimDuration::ZERO, &p);
        b.run_fixed(R1, SimDuration::ZERO, &p);
        b.run_fixed(HOST, SimDuration::ZERO, &p);
        assert_eq!(a.residency(), b.residency(), "insertion order");
        let other = HwParams {
            warmup_tau: SimDuration::micros(7),
            ..p
        };
        b.run_fixed(R1, SimDuration::ZERO, &other);
        assert_eq!(a.residency(), b.residency(), "memoised factors");
    }

    #[test]
    fn gpc_factor_increases_tlb_cost() {
        let mut p = params();
        let ua = MicroArch::new();
        let base = ua.slowdown(R1, &p);
        p.gpc_check_factor = 0.5;
        let with_gpc = ua.slowdown(R1, &p);
        assert!(with_gpc > base);
    }
}
