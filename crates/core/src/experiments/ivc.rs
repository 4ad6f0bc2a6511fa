//! The inter-CVM channel experiment: ping-pong latency over an attested
//! cg-ivc shared-memory channel between two core-gapped realms, against
//! the host-relayed baseline where every message transits the untrusted
//! host's network stack.

use std::collections::BTreeMap;

use cg_host::DeviceKind;
use cg_sim::{FaultPlan, SimDuration};
use cg_workloads::ivc::{IvcConsumer, IvcEcho, IvcPing, IvcProducer};
use cg_workloads::kernel::GuestKernel;
use cg_workloads::netpipe::Netpipe;
use cg_workloads::EchoPeer;

use crate::config::{SystemConfig, VmSpec};
use crate::system::System;

/// The channel id (and shared-window region selector) the experiments
/// use.
pub const IVC_CHANNEL: u32 = 0;

/// Which transport carries the inter-CVM messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IvcMode {
    /// The baseline: messages relayed through the untrusted host's
    /// virtio network path — every send is a hostcall exit serviced by
    /// the VMM I/O thread, modelled as the exit-per-kick NetPIPE loop
    /// against an in-host echo service.
    HostRelay,
    /// The attested shared-memory channel: publishes land in the
    /// RMM-mapped ring window and the doorbell SGI travels realm-core →
    /// realm-core with no host exit.
    Ivc,
}

impl IvcMode {
    /// Both ivc_pingpong sweep series.
    pub const ALL: [IvcMode; 2] = [IvcMode::HostRelay, IvcMode::Ivc];

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            IvcMode::HostRelay => "host-relay",
            IvcMode::Ivc => "cg-ivc",
        }
    }
}

/// One ping-pong sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IvcPoint {
    /// Median round-trip time, µs.
    pub p50_us: f64,
    /// Tail (99th percentile) round-trip time, µs.
    pub p99_us: f64,
    /// Throughput in megabits per second (`2 · size · 8 / p50`).
    pub mbps: f64,
}

/// The channel counters an ivc_pingpong run accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvcStats {
    /// Messages published into channel rings.
    pub messages_sent: u64,
    /// Messages drained on doorbells (or watchdog re-rings).
    pub messages_drained: u64,
    /// Doorbell SGIs sent realm-core → realm-core.
    pub doorbells_sent: u64,
    /// Doorbells the consumer's armed index suppressed.
    pub doorbells_suppressed: u64,
    /// Stranded publishes the IVC watchdog re-rang.
    pub watchdog_recovered: u64,
    /// Doorbells the RMM rejected at a non-endpoint (forged/misrouted).
    pub doorbells_rejected: u64,
    /// Total REC exits across all realms in the run.
    pub exits_total: u64,
    /// Deterministic run fingerprint (system metrics fold).
    pub fingerprint: u64,
}

/// An ivc_pingpong run: per-size points plus the channel counters.
#[derive(Debug, Clone, PartialEq)]
pub struct IvcRun {
    /// Message size → point.
    pub points: BTreeMap<u64, IvcPoint>,
    /// Run-wide channel counters.
    pub stats: IvcStats,
    /// Full counter snapshot (for plane-grouped report export).
    pub counters: cg_sim::Counters,
}

fn base_config(seed: u64) -> SystemConfig {
    let mut c = SystemConfig::paper_default();
    c.seed = seed;
    c.rmm = cg_rmm::RmmConfig::core_gapped();
    c.num_host_cores = 1;
    c.machine.num_cores = 4;
    c
}

fn ivc_stats(system: &System, exits_total: u64) -> IvcStats {
    let c = &system.metrics().counters;
    IvcStats {
        messages_sent: c.get("ivc.messages_sent"),
        messages_drained: c.get("ivc.messages_drained"),
        doorbells_sent: c.get("ivc.doorbells_sent"),
        doorbells_suppressed: c.get("ivc.doorbells_suppressed"),
        watchdog_recovered: c.get("ivc.watchdog_recovered"),
        doorbells_rejected: c.get("ivc.doorbells_rejected"),
        exits_total,
        fingerprint: system.metrics().fingerprint(),
    }
}

fn total_exits(system: &System, vms: &[crate::system::VmId]) -> u64 {
    vms.iter().map(|&vm| system.vm_report(vm).exits_total).sum()
}

/// Runs the ping-pong sweep over `sizes` with `reps` round trips each,
/// with an optional hostile-host fault plan, returning per-size
/// p50/p99/Mbps plus the channel counters.
pub fn run_ivc_pingpong_faults(
    mode: IvcMode,
    sizes: &[u64],
    reps: u32,
    seed: u64,
    fault: FaultPlan,
) -> IvcRun {
    run_ivc_pingpong_faults_obs(mode, sizes, reps, seed, fault, &crate::obs::Obs::disabled())
}

/// As [`run_ivc_pingpong_faults`], but records through the
/// observability bundle.
pub fn run_ivc_pingpong_faults_obs(
    mode: IvcMode,
    sizes: &[u64],
    reps: u32,
    seed: u64,
    fault: FaultPlan,
    obs: &crate::obs::Obs,
) -> IvcRun {
    let mut sys_config = base_config(seed);
    sys_config.fault = fault;
    let mut system = System::new(sys_config.clone());
    system.attach_obs(obs);
    match mode {
        IvcMode::HostRelay => {
            // Stand-in for realm-to-realm messaging through the host:
            // the exit-per-kick virtio loop against an in-host echo
            // service pays the same hostcall + relay costs per message.
            let app = Netpipe::new(sizes.to_vec(), reps, 0);
            let guest = GuestKernel::new(1, sys_config.host.guest_hz, Box::new(app));
            let spec = VmSpec::core_gapped(1).with_device(DeviceKind::VirtioNet);
            let peer = EchoPeer::new(SimDuration::micros(3));
            let vm = system
                .add_vm(spec, Box::new(guest), Some(Box::new(peer)))
                .expect("host-relay VM");
            assert!(
                system.run_until_done(SimDuration::secs(240)),
                "host-relay ping-pong did not complete"
            );
            let report = system.vm_report(vm);
            let mut points = BTreeMap::new();
            for &size in sizes {
                if let Some(samples) = report.stats.sample(&format!("rtt_us_{size}")) {
                    points.insert(size, point(samples.clone(), size));
                }
            }
            IvcRun {
                points,
                stats: ivc_stats(&system, total_exits(&system, &[vm])),
                counters: system.metrics().counters.clone(),
            }
        }
        IvcMode::Ivc => {
            let total_rounds = sizes.len() as u64 * reps as u64;
            let ping = IvcPing::new(IVC_CHANNEL, sizes.to_vec(), reps);
            let echo = IvcEcho::new(IVC_CHANNEL).with_limit(total_rounds);
            let ga = GuestKernel::new(1, sys_config.host.guest_hz, Box::new(ping));
            let gb = GuestKernel::new(1, sys_config.host.guest_hz, Box::new(echo));
            let vma = system
                .add_vm(VmSpec::core_gapped(1), Box::new(ga), None)
                .expect("ping VM");
            let vmb = system
                .add_vm(
                    VmSpec::core_gapped(1).with_ivc_peer(vma.0 as u32, IVC_CHANNEL),
                    Box::new(gb),
                    None,
                )
                .expect("echo VM");
            assert!(
                system.run_until_done(SimDuration::secs(240)),
                "cg-ivc ping-pong did not complete"
            );
            let report = system.vm_report(vma);
            let mut points = BTreeMap::new();
            for &size in sizes {
                if let Some(samples) = report.stats.sample(&format!("ivc_rtt_us_{size}")) {
                    points.insert(size, point(samples.clone(), size));
                }
            }
            IvcRun {
                points,
                stats: ivc_stats(&system, total_exits(&system, &[vma, vmb])),
                counters: system.metrics().counters.clone(),
            }
        }
    }
}

/// As [`run_ivc_pingpong_faults`] with no fault injection.
pub fn run_ivc_pingpong(mode: IvcMode, sizes: &[u64], reps: u32, seed: u64) -> IvcRun {
    run_ivc_pingpong_faults(mode, sizes, reps, seed, FaultPlan::none())
}

/// As [`run_ivc_pingpong`], but records through the observability
/// bundle.
pub fn run_ivc_pingpong_obs(
    mode: IvcMode,
    sizes: &[u64],
    reps: u32,
    seed: u64,
    obs: &crate::obs::Obs,
) -> IvcRun {
    run_ivc_pingpong_faults_obs(mode, sizes, reps, seed, FaultPlan::none(), obs)
}

fn point(mut samples: cg_sim::Samples, size: u64) -> IvcPoint {
    let p50 = samples.percentile(50.0);
    let p99 = samples.percentile(99.0);
    IvcPoint {
        p50_us: p50,
        p99_us: p99,
        mbps: 2.0 * size as f64 * 8.0 / p50,
    }
}

/// Results of the streaming producer/consumer run.
#[derive(Debug, Clone, PartialEq)]
pub struct IvcStreamRun {
    /// Messages the consumer drained.
    pub received: u64,
    /// Messages that arrived with a non-monotonic sequence number.
    pub out_of_order: u64,
    /// Median inter-arrival gap at the consumer, µs.
    pub gap_p50_us: f64,
    /// Run-wide channel counters.
    pub stats: IvcStats,
    /// Full counter snapshot (for plane-grouped report export).
    pub counters: cg_sim::Counters,
}

/// Runs the one-way streaming pair — producer publishing `count`
/// messages of `bytes` with `pace` compute between each, consumer
/// draining on doorbells — under an optional hostile-host fault plan.
pub fn run_ivc_stream(
    bytes: u64,
    count: u64,
    pace: SimDuration,
    seed: u64,
    fault: FaultPlan,
) -> IvcStreamRun {
    run_ivc_stream_obs(
        bytes,
        count,
        pace,
        seed,
        fault,
        &crate::obs::Obs::disabled(),
    )
}

/// As [`run_ivc_stream`], but records through the observability bundle.
pub fn run_ivc_stream_obs(
    bytes: u64,
    count: u64,
    pace: SimDuration,
    seed: u64,
    fault: FaultPlan,
    obs: &crate::obs::Obs,
) -> IvcStreamRun {
    let mut sys_config = base_config(seed);
    sys_config.fault = fault;
    let mut system = System::new(sys_config.clone());
    system.attach_obs(obs);
    let producer = IvcProducer::new(IVC_CHANNEL, bytes, count, pace);
    let consumer = IvcConsumer::new(IVC_CHANNEL, count);
    let ga = GuestKernel::new(1, sys_config.host.guest_hz, Box::new(producer));
    let gb = GuestKernel::new(1, sys_config.host.guest_hz, Box::new(consumer));
    let vma = system
        .add_vm(VmSpec::core_gapped(1), Box::new(ga), None)
        .expect("producer VM");
    let vmb = system
        .add_vm(
            VmSpec::core_gapped(1).with_ivc_peer(vma.0 as u32, IVC_CHANNEL),
            Box::new(gb),
            None,
        )
        .expect("consumer VM");
    if sys_config.fault.forge_ivc_doorbell_p > 0.0 {
        // Heckler-style misroutes need a victim: a third core-gapped
        // realm that is no endpoint of the channel, whose core the
        // forged doorbell SPI lands on. The RMM must refuse to inject
        // it. (The victim publishes into a channel that was never
        // paired, so its own sends are inert.)
        let victim = IvcProducer::new(IVC_CHANNEL + 1, 64, count, pace);
        let gv = GuestKernel::new(1, sys_config.host.guest_hz, Box::new(victim));
        system
            .add_vm(VmSpec::core_gapped(1), Box::new(gv), None)
            .expect("victim VM");
    }
    assert!(
        system.run_until_done(SimDuration::secs(240)),
        "ivc stream did not complete"
    );
    let report = system.vm_report(vmb);
    let gap_p50_us = report
        .stats
        .sample("ivc_gap_us")
        .map(|s| s.clone().percentile(50.0))
        .unwrap_or(0.0);
    IvcStreamRun {
        received: report.stats.counters.get("ivc.consumed"),
        out_of_order: report.stats.counters.get("ivc.out_of_order"),
        gap_p50_us,
        stats: ivc_stats(&system, total_exits(&system, &[vma, vmb])),
        counters: system.metrics().counters.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ivc_pingpong_completes_and_collects_all_sizes() {
        let sizes = [64u64, 4096, 65536];
        let run = run_ivc_pingpong(IvcMode::Ivc, &sizes, 3, 5);
        assert_eq!(run.points.len(), sizes.len());
        assert_eq!(run.stats.messages_sent, run.stats.messages_drained);
        assert_eq!(run.stats.messages_sent, 2 * 3 * sizes.len() as u64);
        assert!(run.stats.doorbells_sent > 0);
        assert_eq!(run.stats.doorbells_rejected, 0);
    }

    #[test]
    fn ivc_beats_host_relay_at_every_size() {
        let sizes = [64u64, 4096, 65536];
        let relay = run_ivc_pingpong(IvcMode::HostRelay, &sizes, 3, 5);
        let ivc = run_ivc_pingpong(IvcMode::Ivc, &sizes, 3, 5);
        for &size in &sizes {
            assert!(
                ivc.points[&size].p50_us < relay.points[&size].p50_us,
                "cg-ivc {} µs vs host-relay {} µs at {size} B",
                ivc.points[&size].p50_us,
                relay.points[&size].p50_us
            );
        }
    }

    #[test]
    fn ivc_data_path_takes_no_exits() {
        // Steady-state proof: scaling the round count must not scale
        // the exit count — everything rides the channel.
        let few = run_ivc_pingpong(IvcMode::Ivc, &[1024], 2, 5);
        let many = run_ivc_pingpong(IvcMode::Ivc, &[1024], 20, 5);
        assert!(many.stats.messages_sent > 5 * few.stats.messages_sent);
        assert_eq!(
            few.stats.exits_total, many.stats.exits_total,
            "data path leaked exits: {} → {}",
            few.stats.exits_total, many.stats.exits_total
        );
    }

    #[test]
    fn ivc_stream_delivers_in_order() {
        let run = run_ivc_stream(4096, 40, SimDuration::micros(5), 5, FaultPlan::none());
        assert_eq!(run.received, 40);
        assert_eq!(run.out_of_order, 0);
        assert_eq!(run.stats.watchdog_recovered, 0);
    }

    #[test]
    fn dropped_ivc_doorbells_heal_via_watchdog() {
        let run = run_ivc_stream(
            4096,
            40,
            SimDuration::micros(5),
            5,
            FaultPlan::ivc_doorbell_loss(0.5),
        );
        assert_eq!(run.received, 40, "stream did not heal");
        assert!(
            run.stats.watchdog_recovered > 0,
            "watchdog never re-rang a stranded publish"
        );
    }

    #[test]
    fn forged_doorbells_are_rejected_and_counted() {
        let run = run_ivc_stream(
            4096,
            40,
            SimDuration::micros(5),
            5,
            FaultPlan::ivc_forgery(0.3),
        );
        assert_eq!(run.received, 40, "stream did not heal after misroutes");
        assert!(
            run.stats.doorbells_rejected > 0,
            "no forged doorbell was rejected"
        );
    }

    #[test]
    fn ivc_runs_are_deterministic() {
        let a = run_ivc_pingpong(IvcMode::Ivc, &[1024], 5, 7);
        let b = run_ivc_pingpong(IvcMode::Ivc, &[1024], 5, 7);
        assert_eq!(a, b);
        let fa = run_ivc_stream(
            4096,
            30,
            SimDuration::micros(5),
            7,
            FaultPlan::ivc_forgery(0.3),
        );
        let fb = run_ivc_stream(
            4096,
            30,
            SimDuration::micros(5),
            7,
            FaultPlan::ivc_forgery(0.3),
        );
        assert_eq!(fa, fb);
        assert_eq!(fa.stats.fingerprint, fb.stats.fingerprint);
    }
}
