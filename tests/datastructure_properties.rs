//! Property tests on core data-structure invariants: the event queue,
//! realm translation tables, the core planner, and the vCPU bindings.

use cg_cca::{RecId, RttLevel};
use cg_host::CorePlanner;
use cg_machine::{CoreId, GranuleAddr, RealmId};
use cg_rmm::{CoreGap, Rtt};
use cg_sim::{EventQueue, SimTime};
use proptest::prelude::*;

proptest! {
    /// Events pop in `(time, scheduled_at, schedule order)` order, as a
    /// reference model predicts, whatever the interleaving of plain and
    /// as-of schedules, pops and cancels. Cancels include stale tokens
    /// whose slot a newer event may hold: they return `false` and leave
    /// that event live. `len()` tracks the model throughout, across the
    /// tombstone compactions that heavy cancelling triggers.
    #[test]
    fn event_queue_total_order(
        ops in prop::collection::vec((0u8..9, 0u64..10_000, 0u64..10_000, 0usize..1_000), 50..600)
    ) {
        let mut q = EventQueue::new();
        // Pending events as (time, scheduled_at, id); ids grow in
        // schedule order, so they break the model's ties as seqs do.
        let mut model: Vec<(SimTime, SimTime, usize)> = Vec::new();
        let mut tokens = Vec::new();
        for (id, &(op, t, shift, pick)) in ops.iter().enumerate() {
            let now = q.now();
            let at = SimTime::from_nanos(now.as_nanos() + t);
            match op {
                0..=3 => {
                    let as_of = match op {
                        0 | 1 => now,
                        // Earlier than now; an event due now must still
                        // sort after the one just popped.
                        2 => {
                            let back = SimTime::from_nanos(now.as_nanos().saturating_sub(shift));
                            if at == now { back.max(q.last_scheduled_at()) } else { back }
                        }
                        // Later than now, up to the firing time.
                        _ => SimTime::from_nanos(now.as_nanos() + shift.min(t)),
                    };
                    tokens.push((q.schedule_as_of(at, as_of, id), id));
                    model.push((at, as_of, id));
                }
                4..=7 => {
                    if tokens.is_empty() {
                        continue;
                    }
                    // Mostly one of the newest events, which piles up
                    // tombstones; otherwise any token, usually stale.
                    let i = if op < 7 {
                        tokens.len() - 1 - pick % tokens.len().min(4)
                    } else {
                        pick % tokens.len()
                    };
                    let (tok, victim) = tokens[i];
                    let live = model.iter().position(|e| e.2 == victim);
                    prop_assert_eq!(q.cancel(tok), live.is_some(), "cancel of event {}", victim);
                    if let Some(i) = live {
                        model.remove(i);
                    }
                }
                _ => {
                    let expected = model.iter().copied().enumerate().min_by_key(|(_, e)| *e);
                    let popped = q.pop();
                    prop_assert_eq!(popped, expected.map(|(_, e)| (e.0, e.2)));
                    if let Some((i, e)) = expected {
                        prop_assert_eq!(q.last_scheduled_at(), e.1);
                        model.remove(i);
                    }
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert!(q.heap_len() >= q.len());
        }
        model.sort();
        for (time, scheduled_at, id) in model {
            prop_assert_eq!(q.pop(), Some((time, id)));
            prop_assert_eq!(q.last_scheduled_at(), scheduled_at);
        }
        prop_assert!(q.pop().is_none() && q.is_empty());
    }

    /// RTT map/unmap round trips preserve translation consistency.
    #[test]
    fn rtt_map_unmap_consistency(
        pages in prop::collection::btree_set(0u64..512, 1..64)
    ) {
        let g = |n: u64| GranuleAddr::new(n * 4096).unwrap();
        let mut rtt = Rtt::new(g(0));
        rtt.create_table(RttLevel(1), 0, g(1)).unwrap();
        rtt.create_table(RttLevel(2), 0, g(2)).unwrap();
        rtt.create_table(RttLevel(3), 0, g(3)).unwrap();
        for &p in &pages {
            rtt.map(p * 4096, g(100 + p), true).unwrap();
        }
        prop_assert_eq!(rtt.mapping_count(), pages.len());
        for &p in &pages {
            prop_assert_eq!(rtt.translate(p * 4096).unwrap().pa, g(100 + p));
        }
        for &p in &pages {
            rtt.unmap(p * 4096).unwrap();
            prop_assert!(rtt.translate(p * 4096).is_err());
        }
        prop_assert_eq!(rtt.mapping_count(), 0);
    }

    /// The planner never double-allocates a core and conserves the pool.
    #[test]
    fn planner_conserves_cores(
        requests in prop::collection::vec(1u16..6, 1..20)
    ) {
        let pool_size = 16u16;
        let mut planner = CorePlanner::new((0..pool_size).map(CoreId));
        let mut allocated: Vec<(RealmId, Vec<CoreId>)> = Vec::new();
        for (i, &n) in requests.iter().enumerate() {
            let realm = RealmId(i as u32);
            match planner.admit(realm, n) {
                Ok(cores) => {
                    prop_assert_eq!(cores.len(), n as usize);
                    for c in &cores {
                        for (_, other) in &allocated {
                            prop_assert!(!other.contains(c), "double allocation of {c}");
                        }
                    }
                    allocated.push((realm, cores));
                }
                Err(_) => {
                    let used: usize = allocated.iter().map(|(_, c)| c.len()).sum();
                    prop_assert!(used + n as usize > pool_size as usize);
                }
            }
        }
        let used: usize = allocated.iter().map(|(_, c)| c.len()).sum();
        prop_assert_eq!(planner.free_cores() as usize, pool_size as usize - used);
        // Releasing everything restores the full pool.
        for (realm, _) in allocated {
            planner.release(realm).unwrap();
        }
        prop_assert_eq!(planner.free_cores(), pool_size);
    }

    /// EVENT_IDX notification predicate: `need_event(e, n, o)` must
    /// equal membership of `e` in the half-open window [o, n) mod 2^16
    /// for every combination of indices — in particular at the u16
    /// wraparound, where `new_idx` has advanced exactly once past the
    /// armed event index.
    #[test]
    fn need_event_equals_window_membership(
        event in 0u16..=u16::MAX,
        old in 0u16..=u16::MAX,
        advance in 0u16..1024,
    ) {
        let new = old.wrapping_add(advance);
        let in_window = event.wrapping_sub(old) < new.wrapping_sub(old);
        prop_assert_eq!(
            cg_virtio::need_event(event, new, old),
            in_window,
            "event={:#06x} old={:#06x} new={:#06x}", event, old, new
        );
    }

    /// The wrap boundary itself, pinned exhaustively: for every `old`,
    /// arming at `event = old` and advancing exactly one entry must
    /// notify; arming one behind must not.
    #[test]
    fn need_event_one_past_event_always_notifies(old in 0u16..=u16::MAX) {
        let new = old.wrapping_add(1);
        prop_assert!(cg_virtio::need_event(old, new, old));
        prop_assert!(!cg_virtio::need_event(old.wrapping_sub(1), new, old));
        prop_assert!(!cg_virtio::need_event(new, new, old));
    }

    /// State machine over admit/release/replan: no core is ever
    /// allocated to two realms, the pool is conserved
    /// (free + allocated == pool), fragmentation stays total and in
    /// [0, 1], and a cloned planner replaying the same operations stays
    /// byte-identical.
    #[test]
    fn planner_state_machine_invariants(
        ops in prop::collection::vec((0u8..4, 0u32..8, 1u16..6), 1..60)
    ) {
        let pool_size = 12u16;
        let mut planner = CorePlanner::new((0..pool_size).map(CoreId));
        let mut twin = planner.clone();
        for (op, realm, n) in ops {
            let realm = RealmId(realm);
            match op {
                0 | 1 => {
                    let a = planner.admit(realm, n);
                    let b = twin.admit(realm, n);
                    prop_assert_eq!(&a, &b, "clone diverged on admit");
                    if let Ok(cores) = a {
                        prop_assert_eq!(cores.len(), n as usize);
                    }
                }
                2 => {
                    prop_assert_eq!(planner.release(realm), twin.release(realm));
                }
                _ => {
                    prop_assert_eq!(
                        planner.replan_compact(),
                        twin.replan_compact()
                    );
                }
            }
            // Invariant 1: no double allocation across realms.
            let mut seen = std::collections::BTreeSet::new();
            let mut allocated = 0u16;
            for r in (0..8).map(RealmId) {
                if let Some(cores) = planner.allocation(r) {
                    allocated += cores.len() as u16;
                    for c in cores {
                        prop_assert!(seen.insert(*c), "core {c} double-allocated");
                    }
                }
            }
            // Invariant 2: pool conservation.
            prop_assert_eq!(planner.free_cores() + allocated, pool_size);
            // Invariant 3: fragmentation is total and bounded.
            let f = planner.fragmentation();
            prop_assert!(f.is_finite(), "fragmentation produced NaN/inf");
            prop_assert!((0.0..=1.0).contains(&f), "fragmentation {f} out of range");
        }
    }

    /// The binding state machine never lets two realms own one core and
    /// never lets one vCPU bind two cores.
    #[test]
    fn coregap_binding_invariants(
        attempts in prop::collection::vec((0u32..4, 0u32..3, 0u16..6), 1..80)
    ) {
        let mut cg = CoreGap::new();
        for c in 0..6u16 {
            cg.dedicate(CoreId(c)).unwrap();
        }
        for (realm, vcpu, core) in attempts {
            let rec = RecId::new(RealmId(realm), vcpu);
            let _ = cg.check_and_bind(rec, CoreId(core));
            // Invariant 1: every bound vCPU has exactly one core.
            let bindings = cg.bindings_snapshot();
            let mut seen = std::collections::BTreeSet::new();
            for (r, _) in &bindings {
                prop_assert!(seen.insert(*r), "duplicate binding for {r}");
            }
            // Invariant 2: a core's owner matches every vCPU bound to it.
            for (r, c) in &bindings {
                prop_assert_eq!(cg.core_owner(*c), Some(r.realm));
            }
        }
    }
}
