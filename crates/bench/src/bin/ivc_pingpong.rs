//! The attested inter-CVM channel sweep: ping-pong latency and
//! throughput per message size, host-relayed virtio vs cg-ivc
//! shared-memory channels, plus the channel counters that prove the
//! data path never exits and the streaming pair's fault-injection
//! resilience (dropped doorbells healed, forged doorbells rejected).

use cg_bench::{header, Report};
use cg_core::experiments::ivc::{run_ivc_pingpong_obs, run_ivc_stream, IvcMode, IvcRun};
use cg_sim::{FaultPlan, SimDuration};

fn main() {
    let mut report = Report::from_args("ivc_pingpong");
    let quick = report.quick();
    let sizes: &[u64] = if quick {
        &[64, 4096, 65536]
    } else {
        &[64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20]
    };
    let reps = if quick { 5 } else { 20 };

    let runs: Vec<IvcRun> = IvcMode::ALL
        .iter()
        .map(|&m| run_ivc_pingpong_obs(m, sizes, reps, 42, report.obs()))
        .collect();

    header("ivc_pingpong: round-trip p50 / p99 (us) per message size");
    print!("{:>9}", "bytes");
    for m in IvcMode::ALL {
        print!("\t{}", m.label());
    }
    println!();
    for &s in sizes {
        print!("{s:>9}");
        for (m, r) in IvcMode::ALL.iter().zip(&runs) {
            let p = r.points[&s];
            report.record(&format!("{} {s} B p50", m.label()), p.p50_us, "us");
            report.record(&format!("{} {s} B p99", m.label()), p.p99_us, "us");
            print!("\t{:.1} / {:.1}", p.p50_us, p.p99_us);
        }
        println!();
    }

    header("ivc_pingpong: throughput (Mbps) per message size");
    print!("{:>9}", "bytes");
    for m in IvcMode::ALL {
        print!("\t{}", m.label());
    }
    println!();
    for &s in sizes {
        print!("{s:>9}");
        for (m, r) in IvcMode::ALL.iter().zip(&runs) {
            let p = r.points[&s];
            report.record(&format!("{} {s} B throughput", m.label()), p.mbps, "Mbps");
            print!("\t{:.0}", p.mbps);
        }
        println!();
    }

    header("ivc_pingpong: channel counters");
    println!(
        "{:>11}\tsent\tdrained\tbells\tbell-sup\twdog\trejected\texits",
        "mode"
    );
    for (m, r) in IvcMode::ALL.iter().zip(&runs) {
        let s = r.stats;
        report.record(&format!("{} exits", m.label()), s.exits_total as f64, "");
        report.record(
            &format!("{} fingerprint", m.label()),
            s.fingerprint as f64,
            "",
        );
        println!(
            "{:>11}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            m.label(),
            s.messages_sent,
            s.messages_drained,
            s.doorbells_sent,
            s.doorbells_suppressed,
            s.watchdog_recovered,
            s.doorbells_rejected,
            s.exits_total,
        );
    }

    // The streaming pair under a hostile host: dropped inter-realm
    // doorbells must heal through the IVC watchdog rescan, and forged
    // (misrouted) doorbells must be rejected by the RMM's per-channel
    // endpoint check without waking the victim realm.
    let count = if quick { 40 } else { 200 };
    header("ivc_pingpong: streaming pair under doorbell faults");
    println!("{:>14}\trecvd\tooo\tgap p50\twdog\trejected", "fault plan");
    for (label, plan) in [
        ("none", FaultPlan::none()),
        ("drop 30%", FaultPlan::ivc_doorbell_loss(0.3)),
        ("forge 30%", FaultPlan::ivc_forgery(0.3)),
    ] {
        let run = run_ivc_stream(4096, count, SimDuration::micros(5), 42, plan);
        report.record(&format!("stream {label} received"), run.received as f64, "");
        report.record(
            &format!("stream {label} rejected"),
            run.stats.doorbells_rejected as f64,
            "",
        );
        report.record(
            &format!("stream {label} fingerprint"),
            run.stats.fingerprint as f64,
            "",
        );
        println!(
            "{:>14}\t{}\t{}\t{:.1}\t{}\t{}",
            label,
            run.received,
            run.out_of_order,
            run.gap_p50_us,
            run.stats.watchdog_recovered,
            run.stats.doorbells_rejected,
        );
    }

    println!();
    println!("Shape: cg-ivc wins at every size — the ring write replaces the");
    println!("hostcall exit and relay hop, and the doorbell SGI goes realm-core to");
    println!("realm-core, so the steady-state data path takes zero REC exits.");
    println!("Dropped doorbells heal via the watchdog rescan; forged doorbells are");
    println!("rejected at the RMM without waking the victim.");

    let mut totals = cg_core::counters::SystemCounters::new();
    for r in &runs {
        totals.merge(&r.counters);
    }
    report.counters_by_plane(&totals);
    report.attribution();
    report.finish();
}
