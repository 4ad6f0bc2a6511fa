//! Elastic multi-tenant churn: tenants arrive, resize, and depart on a
//! seeded schedule while the node reallocates dedicated cores live.
//!
//! The scenario the paper's static placement cannot handle: a
//! core-gapped node is a fixed pool of dedicable cores, and a stream of
//! CVM tenants with a *contiguity* placement constraint churns through
//! it. Departures punch holes in the pool; without compaction those
//! holes strand capacity (an arrival needing 4 contiguous cores can
//! starve while 10 scattered cores sit free). The experiment drives the
//! same schedule with the periodic defragmentation pass on and off and
//! reports time-to-admit percentiles and fragmentation over time — the
//! defrag-on run must buy its rebind cost back in admission latency.
//!
//! Everything is deterministic: the schedule is generated from the seed
//! ([`cg_workloads::churn::ChurnSchedule`]), the system replays it
//! exactly, and [`ChurnResult::fingerprint`] ties the whole run down.

use cg_sim::{Samples, SimDuration, SimTime};
use cg_workloads::churn::{ChurnAction, ChurnSchedule};
use cg_workloads::coremark::CoremarkPro;
use cg_workloads::kernel::GuestKernel;

use crate::config::{SystemConfig, VmSpec};
use crate::counters::Counter;
use crate::obs::Obs;
use crate::system::{System, VmId};

/// Parameters of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Tenant population (clamped to the paper range [16, 64]).
    pub tenants: u32,
    /// Machine size; `cores - 1` are dedicable. Sized so that peak
    /// tenant demand *exceeds* the pool — admission pressure is what
    /// makes the time-to-admit tail meaningful.
    pub cores: u16,
    /// Schedule horizon (simulated time the churn spans).
    pub horizon: SimDuration,
    /// Defragmentation period; `None` disables the pass (the ablation).
    pub defrag: Option<SimDuration>,
    /// Seed for both the schedule and the system.
    pub seed: u64,
}

impl ChurnConfig {
    /// The paper-style default: 64 tenants churning through a 64-core
    /// node over 40 ms of simulated time with a 1 ms defrag period.
    pub fn paper_default() -> ChurnConfig {
        ChurnConfig {
            tenants: 64,
            cores: 64,
            horizon: SimDuration::millis(40),
            defrag: Some(SimDuration::millis(1)),
            seed: 0xC0DE,
        }
    }

    /// The same run with defragmentation off.
    pub fn without_defrag(mut self) -> ChurnConfig {
        self.defrag = None;
        self
    }
}

/// Outcome of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnResult {
    /// Tenants admitted (immediately or after waiting).
    pub admitted: u64,
    /// Arrivals that could not be placed immediately and had to wait.
    pub deferred: u64,
    /// Arrivals still waiting when the run ended.
    pub never_admitted: u64,
    /// Tenants that departed (shutdown + destroyed).
    pub departed: u64,
    /// Resizes applied / skipped because an elastic op was in flight.
    pub resizes: u64,
    /// Resize requests skipped (tenant not yet admitted, or busy).
    pub resizes_skipped: u64,
    /// Time-to-admit p50 (µs) over all admissions.
    pub admit_p50_us: f64,
    /// Time-to-admit p99 (µs) over all admissions.
    pub admit_p99_us: f64,
    /// Mean pool fragmentation sampled at every schedule event.
    pub frag_mean: f64,
    /// Peak pool fragmentation.
    pub frag_max: f64,
    /// Live rebinds executed by the defrag pass.
    pub rebinds: u64,
    /// Mean measured rebind latency (µs); 0 when no rebind ran.
    pub rebind_us_mean: f64,
    /// vCPUs retired by scale-downs.
    pub retires: u64,
    /// vCPUs killed by departures.
    pub kills: u64,
    /// Defrag passes that planned (or skipped planning) a compaction.
    pub defrag_passes: u64,
    /// Individual compaction moves queued.
    pub defrag_moves: u64,
    /// High-water mark of live host threads (reap tripwire).
    pub threads_high_water: usize,
    /// Deterministic fingerprint of the run's metrics.
    pub fingerprint: u64,
}

struct Tenant {
    vm: Option<VmId>,
    gone: bool,
}

struct Driver {
    system: System,
    tenants: Vec<Tenant>,
    /// (tenant, vcpus, first requested at) — retried on every step.
    waiting: Vec<(u32, u32, SimTime)>,
    /// Shut-down VMs not yet torn down.
    dying: Vec<VmId>,
    admit_us: Samples,
    frag: Samples,
    deferred: u64,
    admitted: u64,
    departed: u64,
    resizes: u64,
    resizes_skipped: u64,
    threads_high_water: usize,
}

impl Driver {
    fn admit(&mut self, tenant: u32, vcpus: u32, requested_at: SimTime) -> bool {
        let spec = VmSpec::core_gapped(vcpus).with_contiguous();
        let guest = GuestKernel::new(
            vcpus,
            250,
            Box::new(CoremarkPro::new(vcpus, SimDuration::micros(100))),
        );
        match self.system.add_vm(spec, Box::new(guest), None) {
            Ok(vm) => {
                self.tenants[tenant as usize].vm = Some(vm);
                self.admitted += 1;
                let waited = self.system.now().duration_since(requested_at);
                self.admit_us.record(waited.as_micros_f64());
                true
            }
            Err(_) => false,
        }
    }

    /// Tears down finished shutdowns and retries waiting arrivals (in
    /// arrival order — the first tenant in line gets first pick).
    fn housekeeping(&mut self) {
        let mut still_dying = Vec::new();
        for vm in std::mem::take(&mut self.dying) {
            if self.system.vm_report(vm).finished.is_some() {
                self.system.destroy_vm(vm).expect("finished VM tears down");
                self.departed += 1;
            } else {
                still_dying.push(vm);
            }
        }
        self.dying = still_dying;
        let mut still_waiting = Vec::new();
        for (tenant, vcpus, at) in std::mem::take(&mut self.waiting) {
            if self.tenants[tenant as usize].gone {
                continue; // departed before ever being admitted
            }
            if !self.admit(tenant, vcpus, at) {
                still_waiting.push((tenant, vcpus, at));
            }
        }
        self.waiting = still_waiting;
        self.threads_high_water = self.threads_high_water.max(self.system.live_threads());
    }
}

/// Runs the churn schedule derived from `cfg` and reports the outcome.
pub fn run_churn(cfg: &ChurnConfig) -> ChurnResult {
    run_churn_obs(cfg, &Obs::disabled())
}

/// As [`run_churn`], but records through the observability bundle.
pub fn run_churn_obs(cfg: &ChurnConfig, obs: &Obs) -> ChurnResult {
    let schedule = ChurnSchedule::generate(cfg.seed, cfg.tenants, cfg.horizon);
    let mut config = SystemConfig::paper_default();
    config.machine.num_cores = cfg.cores;
    config.seed = cfg.seed;
    let mut system = System::new(config);
    system.attach_obs(obs);
    if let Some(period) = cfg.defrag {
        system.enable_defrag(period);
    }
    let tenants = (0..schedule.arrivals())
        .map(|_| Tenant {
            vm: None,
            gone: false,
        })
        .collect();
    let mut d = Driver {
        system,
        tenants,
        waiting: Vec::new(),
        dying: Vec::new(),
        admit_us: Samples::default(),
        frag: Samples::default(),
        deferred: 0,
        admitted: 0,
        departed: 0,
        resizes: 0,
        resizes_skipped: 0,
        threads_high_water: 0,
    };

    let start = d.system.now();
    for ev in &schedule.events {
        d.system.run_until(start + ev.at);
        d.housekeeping();
        match ev.action {
            ChurnAction::Arrive { vcpus } => {
                let now = d.system.now();
                if !d.admit(ev.tenant, vcpus, now) {
                    d.deferred += 1;
                    d.waiting.push((ev.tenant, vcpus, now));
                }
            }
            ChurnAction::Resize { vcpus } => match d.tenants[ev.tenant as usize].vm {
                Some(vm) if d.system.resize_vm(vm, vcpus).is_ok() => d.resizes += 1,
                _ => d.resizes_skipped += 1,
            },
            ChurnAction::Depart => {
                d.tenants[ev.tenant as usize].gone = true;
                if let Some(vm) = d.tenants[ev.tenant as usize].vm.take() {
                    d.system.shutdown_vm(vm);
                    d.dying.push(vm);
                }
            }
        }
        d.frag.record(d.system.planner().fragmentation());
    }
    // Drain: let in-flight kills/retires/rebinds finish and give every
    // waiting arrival a last chance as the stragglers depart.
    d.system.run_until(start + cfg.horizon);
    for _ in 0..20 {
        d.housekeeping();
        if d.dying.is_empty() {
            break;
        }
        d.system.run_for(SimDuration::micros(500));
    }
    d.frag.record(d.system.planner().fragmentation());

    let never_admitted = d.waiting.len() as u64;
    let c = d.system.metrics().counters.clone();
    ChurnResult {
        admitted: d.admitted,
        deferred: d.deferred,
        never_admitted,
        departed: d.departed,
        resizes: d.resizes,
        resizes_skipped: d.resizes_skipped,
        admit_p50_us: d.admit_us.percentile(50.0),
        admit_p99_us: d.admit_us.percentile(99.0),
        frag_mean: d.frag.to_online().mean(),
        frag_max: d.frag.to_online().max(),
        rebinds: c[Counter::ElasticRebinds],
        rebind_us_mean: d.system.metrics().rebind_hist.mean(),
        retires: c[Counter::ElasticRetires],
        kills: c[Counter::ElasticKills],
        defrag_passes: c[Counter::DefragPasses] + c[Counter::DefragSkipped],
        defrag_moves: c[Counter::DefragMoves],
        threads_high_water: d.threads_high_water,
        fingerprint: d.system.metrics().fingerprint(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(defrag: bool, seed: u64) -> ChurnConfig {
        ChurnConfig {
            tenants: 24,
            cores: 32,
            horizon: SimDuration::millis(10),
            defrag: if defrag {
                Some(SimDuration::millis(1))
            } else {
                None
            },
            seed,
        }
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let a = run_churn(&quick(true, 7));
        let b = run_churn(&quick(true, 7));
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.admit_p99_us, b.admit_p99_us);
        let c = run_churn(&quick(true, 8));
        assert_ne!(a.fingerprint, c.fingerprint);
    }

    #[test]
    fn churn_actually_churns() {
        let r = run_churn(&quick(true, 7));
        assert!(r.admitted >= 16, "most tenants must get in");
        assert!(r.departed > 0, "some must leave");
        assert!(r.kills > 0);
        assert!(
            r.threads_high_water < 200,
            "thread reaping must bound the live set"
        );
    }

    #[test]
    fn defrag_off_never_rebinds() {
        let r = run_churn(&quick(false, 7));
        assert_eq!(r.rebinds, 0);
        assert_eq!(r.defrag_passes, 0);
    }
}
