//! Property tests for the RMM's RMI state machine: arbitrary host-issued
//! command sequences never corrupt granule accounting or core bindings.

use std::collections::BTreeSet;

use cg_cca::{RecId, RmiCall, RmiStatus};
use cg_machine::{CoreId, GranuleAddr, GranuleState, HwParams, Machine, RealmId};
use cg_rmm::{DirtyBitmap, Rmm, RmmConfig};
use proptest::prelude::*;

fn g(n: u64) -> GranuleAddr {
    GranuleAddr::new(0x100_0000 + n * 4096).unwrap()
}

proptest! {
    /// A hostile hypervisor replaying arbitrary granule delegate /
    /// undelegate / realm-create sequences gets exactly what a reference
    /// model of the 25 granules it can touch predicts. Delegate succeeds
    /// only from `NonSecure`, undelegate only from `Delegated`, and realm
    /// create only when `rd` and `rd + 1` are both `Delegated`, making
    /// them the RD and RTT root of the next realm. Every other call fails
    /// with `ErrorGranule` and changes nothing; after every call each
    /// granule's state, the delegated count and the realm count match
    /// the model.
    #[test]
    fn rmi_granule_fuzz(ops in prop::collection::vec((0u8..3, 0u64..24), 1..200)) {
        let mut rmm = Rmm::new(RmmConfig::core_gapped());
        let mut machine = Machine::new(HwParams::small()).unwrap();
        let core = CoreId(0);
        let mut model = [GranuleState::NonSecure; 25];
        let mut realms = 0;
        for (kind, idx) in ops {
            let i = idx as usize;
            let mut next = model;
            let (call, ok) = match kind {
                0 => {
                    next[i] = GranuleState::Delegated;
                    let ok = model[i] == GranuleState::NonSecure;
                    (RmiCall::GranuleDelegate { addr: g(idx) }, ok)
                }
                1 => {
                    next[i] = GranuleState::NonSecure;
                    let ok = model[i] == GranuleState::Delegated;
                    (RmiCall::GranuleUndelegate { addr: g(idx) }, ok)
                }
                _ => {
                    next[i] = GranuleState::RealmRd(RealmId(realms));
                    next[i + 1] = GranuleState::RealmRtt(RealmId(realms));
                    let ok = model[i..=i + 1] == [GranuleState::Delegated; 2];
                    (RmiCall::RealmCreate { rd: g(idx), num_recs: 1 }, ok)
                }
            };
            let out = rmm.handle_rmi(core, call, &mut machine);
            if ok {
                prop_assert_eq!(out.status, RmiStatus::Success, "{:?}", call);
                model = next;
                realms += u32::from(kind == 2);
            } else {
                prop_assert_eq!(out.status, RmiStatus::ErrorGranule, "{:?}", call);
            }
            for (n, want) in model.iter().enumerate() {
                prop_assert_eq!(machine.memory().state(g(n as u64)), Ok(*want), "granule {}", n);
            }
            let delegated = model.iter().filter(|s| **s != GranuleState::NonSecure).count();
            prop_assert_eq!(machine.memory().delegated_count(), delegated as u64);
            prop_assert_eq!(rmm.realm_count(), realms);
        }
    }

    /// Whatever dispatch order the host tries, the binding invariants
    /// hold: one core per vCPU, one realm per core — and a vCPU entered
    /// on the wrong core always gets ErrorCoreBinding, never entry.
    #[test]
    fn hostile_dispatch_never_coschedules(
        attempts in prop::collection::vec((0u32..3, 0u32..2, 0u16..4), 1..60)
    ) {
        let mut rmm = Rmm::new(RmmConfig::core_gapped());
        let mut machine = Machine::new(HwParams::small()).unwrap();
        // Three single-vCPU realms, two RECs each at most.
        for n in 0..40 {
            machine.memory_mut().delegate(g(n)).unwrap();
        }
        for r in 0..3u64 {
            let rd = g(r * 10);
            let out = rmm.handle_rmi(CoreId(0), RmiCall::RealmCreate { rd, num_recs: 2 }, &mut machine);
            prop_assert!(out.status.is_success());
            for i in 0..2u64 {
                let out = rmm.handle_rmi(
                    CoreId(0),
                    RmiCall::RecCreate {
                        realm: RealmId(r as u32),
                        index: i as u32,
                        rec: g(r * 10 + 2 + i),
                    },
                    &mut machine,
                );
                prop_assert!(out.status.is_success());
            }
            let out = rmm.handle_rmi(CoreId(0), RmiCall::RealmActivate { realm: RealmId(r as u32) }, &mut machine);
            prop_assert!(out.status.is_success());
        }
        for c in 4..8u16 {
            machine.cpu_mut(CoreId(c)).offline();
            rmm.dedicate_core(CoreId(c), &mut machine).unwrap();
        }
        for (realm, vcpu, core_off) in attempts {
            let rec = RecId::new(RealmId(realm), vcpu);
            let core = CoreId(4 + core_off);
            let out = rmm.rec_enter_with_list(core, rec, &[], &mut machine);
            if out.status == RmiStatus::Success {
                // Exit immediately so the REC can be re-entered later.
                rmm.on_guest_event(core, rec, cg_rmm::GuestEvent::HostCall { imm: 0 }, &mut machine);
            }
            // Invariants after every attempt:
            let bindings = rmm.coregap().bindings_snapshot();
            let mut per_core: std::collections::BTreeMap<CoreId, RealmId> = Default::default();
            for (r, c) in bindings {
                if let Some(owner) = per_core.insert(c, r.realm) {
                    prop_assert_eq!(owner, r.realm, "two realms bound to {}", c);
                }
                prop_assert_eq!(rmm.coregap().core_owner(c), Some(r.realm));
            }
        }
    }

    /// The dirty bitmap agrees with a reference set model under any
    /// interleaving of set / clear / snapshot-and-reset: membership,
    /// counts, and the return values of every mutation round-trip.
    #[test]
    fn dirty_bitmap_matches_set_model(ops in prop::collection::vec((0u8..3, 0u64..64), 1..300)) {
        let mut bitmap = DirtyBitmap::new();
        let mut model: BTreeSet<u64> = BTreeSet::new();
        for (kind, page) in ops {
            let ipa = page * 4096;
            match kind {
                0 => prop_assert_eq!(bitmap.set(ipa), model.insert(ipa)),
                1 => prop_assert_eq!(bitmap.clear(ipa), model.remove(&ipa)),
                _ => {
                    // A snapshot drains the live set sorted by IPA and
                    // leaves it empty — exactly what the model drains.
                    let snap = bitmap.snapshot_and_reset();
                    let expect: Vec<u64> = std::mem::take(&mut model).into_iter().collect();
                    prop_assert_eq!(snap, expect);
                    prop_assert!(bitmap.is_empty());
                }
            }
            prop_assert_eq!(bitmap.len(), model.len());
            prop_assert_eq!(bitmap.is_set(ipa), model.contains(&ipa));
        }
    }

    /// Pre-copy's convergence contract: writes landing *during* a copy
    /// round never appear in that round's transfer set, always in the
    /// next one — and every write appears in exactly one round (or the
    /// final residual) no matter how writes interleave with rounds.
    #[test]
    fn write_during_round_lands_in_next_round(
        rounds in prop::collection::vec(prop::collection::vec(0u64..32, 0..20), 1..10)
    ) {
        let mut bitmap = DirtyBitmap::new();
        let mut pending: BTreeSet<u64> = BTreeSet::new();
        for writes in rounds {
            // The round snapshot must be exactly the writes that landed
            // before it — none of the writes issued during it.
            let snap = bitmap.snapshot_and_reset();
            let expect: Vec<u64> = std::mem::take(&mut pending).into_iter().collect();
            prop_assert_eq!(snap, expect);
            for page in writes {
                let ipa = page * 4096;
                bitmap.set(ipa);
                pending.insert(ipa);
            }
        }
        // Whatever is still dirty is the stop-and-copy residual: the
        // writes of the last window, nothing more, nothing less.
        let residual = bitmap.snapshot_and_reset();
        let expect: Vec<u64> = pending.into_iter().collect();
        prop_assert_eq!(residual, expect);
        prop_assert!(bitmap.is_empty());
    }
}
