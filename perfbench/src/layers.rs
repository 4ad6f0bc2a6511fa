//! Per-layer metrics: host-time microbenchmarks of single layers, and
//! the traced pass's counts assembled into the per-layer catalogue.
//!
//! The microbenchmarks time one public operation of one crate in a
//! tight loop: the event queue, counters and histogram (`sim`), the
//! microarchitectural model (`machine`), RMI handling (`rmm`), the run
//! channel (`rpc`), the planner and serving front-end (`host`), and VM
//! admission (`core`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use cg_cca::RmiCall;
use cg_core::{System, SystemConfig, VmSpec};
use cg_host::{AdmissionPolicy, CorePlanner, FrontEnd};
use cg_machine::{CoreId, Domain, GranuleAddr, HwParams, Machine, RealmId};
use cg_rmm::{Rmm, RmmConfig};
use cg_rpc::SyncChannel;
use cg_sim::{Counters, EventQueue, Histogram, SimDuration, SimTime};
use cg_workloads::coremark::CoremarkPro;
use cg_workloads::kernel::GuestKernel;

use crate::metrics::{per_layer, EVENT_VARIANTS, RECORD_KINDS, SPAN_LABELS};
use crate::stats::Summary;
use crate::workload::{ratio, Pass};

/// Batches per microbenchmark; the median batch is reported.
const BATCHES: usize = 7;

/// Median over [`BATCHES`] of the host ns per operation of `run`. Each
/// batch gets fresh input from `prepare`, which is not timed, and the
/// batch's result is dropped outside the timed region.
fn time_ops<S, R>(ops: u64, mut prepare: impl FnMut() -> S, mut run: impl FnMut(S) -> R) -> f64 {
    let per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let input = prepare();
            let start = Instant::now();
            let result = black_box(run(black_box(input)));
            let ns = start.elapsed().as_nanos() as f64 / ops as f64;
            drop(result);
            ns
        })
        .collect();
    Summary::of(&per_op).median
}

/// Runs every microbenchmark; values are host ns (µs for
/// `core.add_vm_4vcpu_us`).
pub fn microbenchmarks() -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    const N: u64 = 1_000;
    let at = |i: u64| SimTime::from_nanos((i * 7_919) % 100_000 + 100_000);
    out.insert(
        "sim.queue.schedule_pop_ns",
        time_ops(N, EventQueue::<u64>::new, |mut q| {
            for i in 0..N {
                q.schedule_at(at(i), i);
            }
            while let Some(e) = q.pop() {
                black_box(e);
            }
            q
        }),
    );
    out.insert(
        "sim.queue.cancel_ns",
        time_ops(
            N,
            || {
                let mut q = EventQueue::<u64>::new();
                let tokens: Vec<_> = (0..N).map(|i| q.schedule_at(at(i), i)).collect();
                (q, tokens)
            },
            |(mut q, tokens)| {
                for t in tokens {
                    black_box(q.cancel(t));
                }
                q
            },
        ),
    );
    const M: u64 = 10_000;
    out.insert(
        "sim.counters.incr_ns",
        time_ops(M, Counters::new, |mut c| {
            for i in 0..M {
                c.incr(
                    ["rpc.run_calls", "rmm.rec_enter", "ipi.sent", "host.kicks"][i as usize % 4],
                );
            }
            c
        }),
    );
    out.insert(
        "sim.histogram.record_ns",
        time_ops(M, Histogram::new, |mut h| {
            for i in 0..M {
                h.record(1.0 + i as f64 * 1.37);
            }
            h
        }),
    );
    let machine = || Machine::new(HwParams::small()).expect("small machine");
    out.insert(
        "machine.run_compute_ns",
        time_ops(M, machine, |mut m| {
            for _ in 0..M {
                black_box(m.run_compute(
                    CoreId(0),
                    Domain::Realm(RealmId(0)),
                    SimDuration::micros(100),
                ));
            }
            m
        }),
    );
    out.insert(
        "machine.rmm_call_cost_ns",
        time_ops(M, machine, |mut m| {
            for _ in 0..M {
                black_box(m.same_core_rmm_call_cost(CoreId(0)));
            }
            m
        }),
    );
    out.insert(
        "rmm.rmi_delegate_undelegate_ns",
        time_ops(
            N,
            || (Rmm::new(RmmConfig::core_gapped()), machine()),
            |(mut rmm, mut m)| {
                let addr = GranuleAddr::new(0x10_0000).expect("aligned granule");
                for _ in 0..N {
                    black_box(rmm.handle_rmi(CoreId(0), RmiCall::GranuleDelegate { addr }, &mut m));
                    black_box(rmm.handle_rmi(
                        CoreId(0),
                        RmiCall::GranuleUndelegate { addr },
                        &mut m,
                    ));
                }
                (rmm, m)
            },
        ),
    );
    out.insert(
        "rpc.channel_round_trip_ns",
        time_ops(N, HwParams::small, |params| {
            for i in 0..N {
                let mut ch = SyncChannel::<u64, u64>::new();
                ch.post_request(i, SimTime::ZERO).expect("idle channel");
                let vis = ch.request_visible_at(&params).expect("posted");
                let req = ch.take_request(vis, &params).expect("visible");
                ch.post_response(req + 1, vis).expect("serving");
                let rvis = ch.response_visible_at(&params).expect("responded");
                black_box(ch.take_response(rvis, &params).expect("visible"));
            }
            params
        }),
    );
    out.insert(
        "host.planner_admit_release_ns",
        time_ops(
            N,
            || CorePlanner::new((1..64).map(CoreId)),
            |mut p| {
                for i in 0..N {
                    let realm = RealmId(i as u32);
                    black_box(p.admit(realm, 4).expect("free cores"));
                    black_box(p.release(realm).expect("admitted"));
                }
                p
            },
        ),
    );
    out.insert(
        "host.frontend_admit_ns",
        time_ops(
            M,
            || {
                let open = AdmissionPolicy {
                    rate_per_sec: 1e12,
                    burst: 1e12,
                    queue_cap: u32::MAX,
                };
                FrontEnd::new(&[open], u32::MAX)
            },
            |mut f| {
                for i in 0..M {
                    black_box(f.admit(0, SimTime::from_nanos(i * 1_000), true).ok());
                    f.gate_mut(0).complete();
                }
                f
            },
        ),
    );
    let add_vm_ns = time_ops(
        1,
        || {
            let guest = GuestKernel::new(
                4,
                250,
                Box::new(CoremarkPro::new(4, SimDuration::micros(100))),
            );
            (System::new(SystemConfig::small()), guest)
        },
        |(mut system, guest)| {
            system
                .add_vm(VmSpec::core_gapped(4), Box::new(guest), None)
                .expect("4-vCPU VM fits the small machine");
            system
        },
    );
    out.insert("core.add_vm_4vcpu_us", add_vm_ns / 1e3);
    out
}

/// Assembles every per-layer metric from the untraced passes (host
/// time), the traced pass (counts, spans), the microbenchmarks and the
/// run's `wall_s`.
pub fn per_layer_values(
    untraced: &[Pass],
    traced: &Pass,
    micro: &BTreeMap<&'static str, f64>,
    wall_s: f64,
) -> BTreeMap<String, f64> {
    let trace = traced.trace.as_ref().expect("traced pass has trace counts");
    let median = |f: &dyn Fn(&Pass) -> f64| {
        let v: Vec<f64> = untraced.iter().map(f).collect();
        Summary::of(&v).median
    };
    let wall_ns = wall_s * 1e9;
    let events: u64 = trace.events.values().sum();
    let event = |v: &str| trace.events.get(v).copied().unwrap_or(0) as f64;
    let mut slices: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.timeline.slice_ms())
        .collect();
    slices.sort_by(f64::total_cmp);
    let slice_pct = |p: f64| {
        let rank = (slices.len() as f64 * p).ceil() as usize;
        slices[rank.clamp(1, slices.len()) - 1]
    };
    let counters = &traced.counters;
    let counter = |n: &str| counters.get(n).copied().unwrap_or(0.0);

    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    out.insert("core.events".into(), events as f64);
    for v in EVENT_VARIANTS {
        out.insert(format!("core.events.{v}"), event(v));
    }
    out.insert(
        "core.host_ns_per_event".into(),
        ratio(wall_ns, events as f64),
    );
    out.insert("core.slice_p50_ms".into(), slice_pct(0.50));
    out.insert("core.slice_p99_ms".into(), slice_pct(0.99));
    out.insert(
        "core.setup.system_new_ms".into(),
        median(&|p| p.timeline.setup_ms("setup.system_new")),
    );
    // Adding the VMs: `add_vm`, or `FleetDriver::new`, which admits
    // every tenant and settles the cluster.
    out.insert(
        "core.setup.add_vms_ms".into(),
        median(&|p| p.timeline.setup_ms("setup.add_vm") + p.timeline.setup_ms("setup.driver_new")),
    );
    out.insert(
        "core.tracing_overhead_pct".into(),
        ratio(traced.timeline.run().as_secs_f64() * 1e9, wall_ns) * 100.0,
    );
    out.insert(
        "sim.queue.est_share_pct".into(),
        ratio(events as f64 * micro["sim.queue.schedule_pop_ns"], wall_ns) * 100.0,
    );
    for k in RECORD_KINDS {
        let n = trace.records.get(k).copied().unwrap_or(0);
        out.insert(format!("sim.records.{k}"), n as f64);
    }
    for (&name, &v) in micro {
        out.insert(name.into(), v);
    }
    for (&name, &v) in counters {
        out.insert(name.into(), v);
    }
    out.insert(
        "rpc.doorbell_ipi_ratio".into(),
        ratio(counter("rpc.doorbell_ipis"), counter("rpc.doorbell_rings")),
    );
    out.insert(
        "rpc.timeout_pops_per_call".into(),
        ratio(event("CallTimeout"), counter("rpc.run_calls")),
    );
    for label in SPAN_LABELS {
        let (count, mean) = trace
            .spans
            .get(label)
            .map_or((0.0, 0.0), |s| (s.count() as f64, s.mean()));
        out.insert(format!("span.{label}.count"), count);
        out.insert(format!("span.{label}.mean_us"), mean);
    }
    let mut names: Vec<String> = per_layer().into_iter().map(|d| d.name).collect();
    names.sort();
    assert!(
        out.keys().eq(names.iter()),
        "per-layer catalogue and values disagree"
    );
    out
}
