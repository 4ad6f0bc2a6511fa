//! The shared-memory fast-path sweep: NetPIPE latency/throughput and
//! IOzone read latency per size, exit-per-kick vs fast path vs the
//! EVENT_IDX-suppression ablation, plus the notification counters the
//! suppression comparison rests on.

use cg_bench::{header, Report};
use cg_core::experiments::apps::run_redis_virtio;
use cg_core::experiments::io::{
    run_iozone_fastpath_obs, run_netpipe_fastpath_obs, FastpathRun, IoPathMode,
};
use cg_workloads::redis::RedisCommand;

fn main() {
    let mut report = Report::from_args("io_fastpath");
    let quick = report.quick();
    let sizes: &[u64] = if quick {
        &[64, 1500, 65536]
    } else {
        &[64, 256, 1024, 1500, 4096, 16384, 65536, 262144, 1 << 20]
    };
    let records: &[u64] = if quick {
        &[4096, 262144]
    } else {
        &[4096, 65536, 262144, 1 << 20, 4 << 20]
    };
    let reps = if quick { 5 } else { 20 };

    let net: Vec<FastpathRun> = IoPathMode::ALL
        .iter()
        .map(|&m| run_netpipe_fastpath_obs(m, sizes, reps, 42, report.obs()))
        .collect();

    header("io_fastpath: NetPIPE round-trip p50 / p99 (us) per message size");
    print!("{:>9}", "bytes");
    for m in IoPathMode::ALL {
        print!("\t{}", m.label());
    }
    println!();
    for &s in sizes {
        print!("{s:>9}");
        for (m, r) in IoPathMode::ALL.iter().zip(&net) {
            let p = r.points[&s];
            report.record(&format!("net {} {s} B p50", m.label()), p.p50_us, "us");
            report.record(&format!("net {} {s} B p99", m.label()), p.p99_us, "us");
            print!("\t{:.1} / {:.1}", p.p50_us, p.p99_us);
        }
        println!();
    }

    header("io_fastpath: NetPIPE throughput (Mbps) per message size");
    print!("{:>9}", "bytes");
    for m in IoPathMode::ALL {
        print!("\t{}", m.label());
    }
    println!();
    for &s in sizes {
        print!("{s:>9}");
        for (m, r) in IoPathMode::ALL.iter().zip(&net) {
            let p = r.points[&s];
            report.record(
                &format!("net {} {s} B throughput", m.label()),
                p.throughput,
                "Mbps",
            );
            print!("\t{:.0}", p.throughput);
        }
        println!();
    }

    let disk: Vec<FastpathRun> = IoPathMode::ALL
        .iter()
        .map(|&m| run_iozone_fastpath_obs(m, records, reps, 42, report.obs()))
        .collect();

    header("io_fastpath: IOzone sync read p50 / p99 (us) per record size");
    print!("{:>9}", "bytes");
    for m in IoPathMode::ALL {
        print!("\t{}", m.label());
    }
    println!();
    for &s in records {
        print!("{s:>9}");
        for (m, r) in IoPathMode::ALL.iter().zip(&disk) {
            let p = r.points[&s];
            report.record(&format!("disk {} {s} B p50", m.label()), p.p50_us, "us");
            report.record(&format!("disk {} {s} B p99", m.label()), p.p99_us, "us");
            print!("\t{:.1} / {:.1}", p.p50_us, p.p99_us);
        }
        println!();
    }

    header("io_fastpath: notification counters (NetPIPE + IOzone)");
    println!("{:>22}\tkicks\tkick-sup\tirqs\tirq-sup\texits", "path");
    for (i, m) in IoPathMode::ALL.iter().enumerate() {
        let (n, d) = (net[i].stats, disk[i].stats);
        let label = m.label();
        report.record(&format!("{label} kicks"), (n.kicks + d.kicks) as f64, "");
        report.record(
            &format!("{label} exits"),
            (n.exits_total + d.exits_total) as f64,
            "",
        );
        println!(
            "{:>22}\t{}\t{}\t{}\t{}\t{}",
            label,
            n.kicks + d.kicks,
            n.kicks_suppressed + d.kicks_suppressed,
            n.irqs + d.irqs,
            n.irqs_suppressed + d.irqs_suppressed,
            n.exits_total + d.exits_total,
        );
    }
    for (i, m) in IoPathMode::ALL.iter().enumerate() {
        report.record(
            &format!("{} fingerprint", m.label()),
            net[i].stats.fingerprint as f64,
            "",
        );
    }

    // NetPIPE/IOzone are serial (one descriptor in flight), so EVENT_IDX
    // has nothing to coalesce there; Redis's 50-client pool is where the
    // suppression ablation bites.
    let requests = if quick { 2_000 } else { 10_000 };
    header("io_fastpath: Redis SET over virtio, suppression ablation");
    println!(
        "{:>22}\tkrps\tp99 ms\tkicks\tkick-sup\tirqs\tirq-sup",
        "path"
    );
    for m in [IoPathMode::Fastpath, IoPathMode::FastpathNoSuppression] {
        let (r, s) = run_redis_virtio(RedisCommand::Set, m, requests, 42);
        report.record(&format!("redis {} krps", m.label()), r.krps, "krps");
        report.record(&format!("redis {} p99", m.label()), r.p99_ms, "ms");
        report.record(
            &format!("redis {} notifications", m.label()),
            (s.kicks + s.irqs) as f64,
            "",
        );
        println!(
            "{:>22}\t{:.1}\t{:.2}\t{}\t{}\t{}\t{}",
            m.label(),
            r.krps,
            r.p99_ms,
            s.kicks,
            s.kicks_suppressed,
            s.irqs,
            s.irqs_suppressed,
        );
    }

    println!();
    println!("Paper shape (fig. 8): the fast path wins outright on small messages,");
    println!("where notification cost dominates; the gap narrows as wire/copy time");
    println!("swamps the per-message overhead. Suppression removes kicks and");
    println!("completion interrupts without adding latency.");

    let mut totals = cg_core::counters::SystemCounters::new();
    for r in net.iter().chain(&disk) {
        totals.merge(&r.counters);
    }
    report.counters_by_plane(&totals);
    report.attribution();
    report.finish();
}
