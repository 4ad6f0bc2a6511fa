//! Property tests for the machine model's invariants.

use std::collections::BTreeMap;

use cg_machine::{
    CoreId, Domain, HwParams, Machine, MicroArch, RealmId, Residency, SecretId, Structure,
};
use cg_sim::SimDuration;
use proptest::prelude::*;

fn domain(i: u8) -> Domain {
    match i % 3 {
        0 => Domain::Host,
        1 => Domain::Realm(RealmId(1)),
        _ => Domain::Realm(RealmId(2)),
    }
}

proptest! {
    /// Wall time never undercuts ideal work, and slowdown is bounded by
    /// the parameterised maximum.
    #[test]
    fn compute_wall_time_is_bounded(
        ops in prop::collection::vec((0u8..3, 1u64..2_000), 1..80)
    ) {
        let params = HwParams::small();
        let mut m = Machine::new(params.clone()).unwrap();
        for (who, work_us) in ops {
            let work = SimDuration::micros(work_us);
            let wall = m.run_compute(CoreId(0), domain(who), work);
            prop_assert!(wall >= work);
            prop_assert!(wall <= work.scaled(params.max_slowdown()) + SimDuration::nanos(1));
        }
    }

    /// Residency warms monotonically under own compute and never leaves
    /// [0, 1].
    #[test]
    fn residency_stays_in_unit_interval(
        ops in prop::collection::vec((0u8..3, 1u64..500), 1..100)
    ) {
        let mut m = Machine::new(HwParams::small()).unwrap();
        for (who, work_us) in ops {
            let d = domain(who);
            let before = m.microarch(CoreId(0)).l1_residency(d);
            m.run_compute(CoreId(0), d, SimDuration::micros(work_us));
            let after = m.microarch(CoreId(0)).l1_residency(d);
            prop_assert!((0.0..=1.0).contains(&after));
            prop_assert!(after >= before, "own compute never cools own state");
        }
    }

    /// Taint only accumulates with execution (never appears on untouched
    /// cores), and the mitigation flush clears exactly the structures it
    /// claims to.
    #[test]
    fn taint_is_causal(cores in prop::collection::vec(0u16..4, 1..40)) {
        let mut m = Machine::new(HwParams::small()).unwrap();
        let victim = Domain::Realm(RealmId(7));
        let mut touched = std::collections::BTreeSet::new();
        for c in cores {
            m.run_secret_compute(CoreId(c), victim, SecretId(1), SimDuration::micros(10));
            touched.insert(c);
        }
        for c in 0..4u16 {
            let leaked = !m
                .microarch(CoreId(c))
                .probe(Structure::L1d, Domain::Host)
                .is_empty();
            prop_assert_eq!(leaked, touched.contains(&c), "core {}", c);
        }
        // Flush one touched core: BP/FillBuffer clean, caches not.
        if let Some(&c) = touched.iter().next() {
            m.microarch_mut(CoreId(c)).mitigation_flush();
            prop_assert!(m.microarch(CoreId(c)).probe(Structure::BranchPredictor, Domain::Host).is_empty());
            prop_assert!(m.microarch(CoreId(c)).probe(Structure::FillBuffer, Domain::Host).is_empty());
            prop_assert!(!m.microarch(CoreId(c)).probe(Structure::L1d, Domain::Host).is_empty());
        }
    }

    /// Granule delegate/undelegate sequences preserve the accounting
    /// invariant: delegated_count equals the live delegated set.
    #[test]
    fn granule_accounting_is_exact(
        ops in prop::collection::vec((0u64..32, prop::bool::ANY), 1..200)
    ) {
        let mut m = Machine::new(HwParams::small()).unwrap();
        let mut live = std::collections::BTreeSet::new();
        for (idx, delegate) in ops {
            let g = cg_machine::GranuleAddr::new(0x10_0000 + idx * 4096).unwrap();
            if delegate {
                if m.memory_mut().delegate(g).is_ok() {
                    prop_assert!(live.insert(idx));
                } else {
                    prop_assert!(live.contains(&idx));
                }
            } else if m.memory_mut().undelegate(g).is_ok() {
                prop_assert!(live.remove(&idx));
            } else {
                prop_assert!(!live.contains(&idx));
            }
            prop_assert_eq!(m.memory().delegated_count(), live.len() as u64);
        }
    }

    /// The residency's sorted list and memoised decay factors give walls
    /// and warmth bit-identical to the plain model kept here, on the core
    /// and on a planning copy refreshed with `clone_from`.
    #[test]
    fn residency_matches_the_plain_model(
        taus in prop::collection::vec((tau(), tau()), 1..4),
        penalties in (0.0f64..3.0, 0.0f64..3.0, 0.0f64..3.0, 0.0f64..1.0),
        ops in prop::collection::vec(residency_op(), 1..150),
    ) {
        let params: Vec<HwParams> = taus
            .iter()
            .map(|&(warm, evict)| HwParams {
                warmup_tau: SimDuration::nanos(warm),
                evict_tau: SimDuration::nanos(evict),
                l1_penalty: penalties.0,
                tlb_penalty: penalties.1,
                bp_penalty: penalties.2,
                gpc_check_factor: penalties.3,
                ..HwParams::small()
            })
            .collect();
        let mut ua = MicroArch::new();
        let mut model = PlainResidency::default();
        let mut plan = Residency::default();
        for op in ops {
            match op {
                ResidencyOp::Compute { who, work_ns, params: i } => {
                    let p = &params[i % params.len()];
                    let (d, work) = (residency_domain(who), SimDuration::nanos(work_ns));
                    plan.clone_from(ua.residency());
                    prop_assert!(&plan == ua.residency());
                    let planned = plan.run_compute(d, work, p);
                    let wall = ua.run_compute(d, work, p);
                    prop_assert_eq!(wall, model.run_compute(d, work, p));
                    prop_assert_eq!(planned, wall);
                    prop_assert!(&plan == ua.residency());
                }
                ResidencyOp::Fixed { who, wall_ns, params: i } => {
                    let p = &params[i % params.len()];
                    let (d, wall) = (residency_domain(who), SimDuration::nanos(wall_ns));
                    ua.run_fixed(d, wall, p);
                    model.advance(d, wall, p);
                }
                ResidencyOp::Flush => {
                    ua.mitigation_flush();
                    for w in model.0.values_mut() {
                        w.bp = 0.0;
                    }
                }
                ResidencyOp::Reset => {
                    ua.reset();
                    model.0.clear();
                }
            }
            for who in 0..4 {
                let d = residency_domain(who);
                let r = ua.residency();
                let w = model.0.get(&d).copied().unwrap_or_default();
                prop_assert_eq!(r.l1(d).to_bits(), w.l1.to_bits());
                prop_assert_eq!(r.bp(d).to_bits(), w.bp.to_bits());
                for p in &params {
                    prop_assert_eq!(r.slowdown(d, p).to_bits(), model.slowdown(d, p).to_bits());
                }
            }
        }
    }
}

/// One step the residency model is driven through.
#[derive(Debug, Clone, Copy)]
enum ResidencyOp {
    Compute {
        who: u8,
        work_ns: u64,
        params: usize,
    },
    Fixed {
        who: u8,
        wall_ns: u64,
        params: usize,
    },
    Flush,
    Reset,
}

fn residency_op() -> impl Strategy<Value = ResidencyOp> {
    // Works and fixed walls from a short list repeat walls, so the memo
    // hits as well as misses, under either parameter set.
    let work = prop_oneof![(1u64..4).prop_map(|k| k * 50_000), 1u64..400_000,];
    let fixed = prop_oneof![(0u64..3).prop_map(|k| k * 2_000), 0u64..20_000];
    prop_oneof![
        8 => (0u8..4, work, 0usize..3)
            .prop_map(|(who, work_ns, params)| ResidencyOp::Compute { who, work_ns, params }),
        4 => (0u8..4, fixed, 0usize..3)
            .prop_map(|(who, wall_ns, params)| ResidencyOp::Fixed { who, wall_ns, params }),
        1 => Just(ResidencyOp::Flush),
        1 => Just(ResidencyOp::Reset),
    ]
}

/// A time constant in ns, often one of a few shared values, so that
/// parameter sets agree on one constant and differ in the other.
fn tau() -> impl Strategy<Value = u64> {
    prop_oneof![Just(40_000u64), Just(60_000), 1u64..200_000]
}

fn residency_domain(i: u8) -> Domain {
    match i % 4 {
        0 => Domain::Host,
        1 => Domain::Monitor,
        2 => Domain::Realm(RealmId(3)),
        _ => Domain::Realm(RealmId(1)),
    }
}

/// The reference warmth of one domain.
#[derive(Debug, Clone, Copy, Default)]
struct PlainWarmth {
    l1: f64,
    tlb: f64,
    bp: f64,
}

/// The warmth model in its plainest form: a map, and both decay factors
/// worked out on every call.
#[derive(Debug, Default)]
struct PlainResidency(BTreeMap<Domain, PlainWarmth>);

impl PlainResidency {
    fn slowdown(&self, d: Domain, p: &HwParams) -> f64 {
        let w = self.0.get(&d).copied().unwrap_or_default();
        1.0 + p.l1_penalty * (1.0 - w.l1)
            + p.tlb_penalty * (1.0 - w.tlb) * (1.0 + p.gpc_check_factor)
            + p.bp_penalty * (1.0 - w.bp)
    }

    fn run_compute(&mut self, d: Domain, work: SimDuration, p: &HwParams) -> SimDuration {
        let wall = work.scaled(self.slowdown(d, p));
        self.advance(d, wall, p);
        wall
    }

    fn advance(&mut self, d: Domain, wall: SimDuration, p: &HwParams) {
        let ns = wall.as_nanos() as f64;
        let warm_f = 1.0 - (-ns / p.warmup_tau.as_nanos() as f64).exp();
        let evict_f = (-ns / p.evict_tau.as_nanos() as f64).exp();
        for (other, w) in self.0.iter_mut() {
            if *other != d {
                w.l1 *= evict_f;
                w.tlb *= evict_f;
                w.bp *= evict_f;
            }
        }
        let w = self.0.entry(d).or_default();
        w.l1 += (1.0 - w.l1) * warm_f;
        w.tlb += (1.0 - w.tlb) * warm_f;
        w.bp += (1.0 - w.bp) * warm_f;
    }
}
