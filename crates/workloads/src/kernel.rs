//! The guest kernel model: ticks, interrupt handling work, op queueing.
//!
//! Every Linux-like guest shares this behaviour regardless of workload:
//! a periodic timer tick on each vCPU (CONFIG_HZ; the paper's dominant
//! exit source without delegation — two exits per tick, §4.4), a little
//! kernel work per tick and per interrupt, and an application driving the
//! time in between.

use std::collections::VecDeque;
use std::fmt;

use cg_sim::{SimDuration, SimTime};

use crate::guest::{GuestIrq, GuestOp, GuestProgram, WorkloadStats};

/// Application behaviour under the guest kernel.
///
/// Implementations never see timer management — the kernel owns the
/// tick. They receive all other interrupts (IPIs, I/O completions).
pub trait AppLogic: fmt::Debug {
    /// The next application operation for `vcpu`.
    fn next_op(&mut self, vcpu: u32, now: SimTime) -> GuestOp;

    /// The work of the op `next_op(vcpu, now)` would return, if it is a
    /// plain [`GuestOp::Compute`], under the same promise as
    /// [`GuestProgram::peek_compute`]. The default, `None`, makes the
    /// kernel answer `None` too.
    fn peek_compute(&self, vcpu: u32, now: SimTime) -> Option<SimDuration> {
        let _ = (vcpu, now);
        None
    }

    /// A non-tick interrupt was delivered to `vcpu`.
    fn on_irq(&mut self, vcpu: u32, irq: GuestIrq, now: SimTime);

    /// Final statistics.
    fn stats(&self) -> WorkloadStats;
}

#[derive(Debug)]
struct VcpuKernel {
    /// Ops queued by the kernel ahead of application ops.
    queue: VecDeque<GuestOp>,
    /// Next tick deadline (programmed lazily).
    next_tick: SimTime,
    /// Whether the tick timer is currently programmed.
    tick_armed: bool,
}

/// The guest kernel wrapping an application.
///
/// # Example
///
/// ```
/// use cg_sim::{SimDuration, SimTime};
/// use cg_workloads::{GuestOp, GuestProgram};
/// use cg_workloads::coremark::CoremarkPro;
/// use cg_workloads::kernel::GuestKernel;
///
/// let app = CoremarkPro::new(1, SimDuration::micros(100));
/// let mut guest = GuestKernel::new(1, 250, Box::new(app));
/// // The very first op programs the tick timer.
/// let op = guest.next_op(0, SimTime::ZERO);
/// assert!(matches!(op, GuestOp::ProgramTick { .. }));
/// ```
#[derive(Debug)]
pub struct GuestKernel {
    vcpus: Vec<VcpuKernel>,
    /// Tick frequency.
    hz: u32,
    /// Kernel work per tick (scheduler/timekeeping).
    tick_work: SimDuration,
    /// Kernel work per taken interrupt (entry + handler glue).
    irq_work: SimDuration,
    /// Period between background console writes (None = disabled).
    console_period: Option<SimDuration>,
    next_console: Vec<SimTime>,
    app: Box<dyn AppLogic>,
    ticks_handled: u64,
}

impl GuestKernel {
    /// Creates a guest with `num_vcpus` vCPUs ticking at `hz`.
    pub fn new(num_vcpus: u32, hz: u32, app: Box<dyn AppLogic>) -> GuestKernel {
        GuestKernel {
            vcpus: (0..num_vcpus)
                .map(|_| VcpuKernel {
                    queue: VecDeque::new(),
                    next_tick: SimTime::ZERO,
                    tick_armed: false,
                })
                .collect(),
            hz,
            tick_work: SimDuration::micros(3),
            irq_work: SimDuration::nanos(1_500),
            console_period: None,
            next_console: vec![SimTime::ZERO; num_vcpus as usize],
            app,
            ticks_handled: 0,
        }
    }

    /// Enables periodic console MMIO writes (background exits) every
    /// `period` per vCPU.
    pub fn with_console_writes(mut self, period: SimDuration) -> GuestKernel {
        self.console_period = Some(period);
        self
    }

    /// Number of vCPUs.
    pub fn num_vcpus(&self) -> u32 {
        self.vcpus.len() as u32
    }

    /// The tick period.
    pub fn tick_period(&self) -> SimDuration {
        SimDuration::nanos(1_000_000_000 / self.hz as u64)
    }

    /// Ticks handled across all vCPUs.
    pub fn ticks_handled(&self) -> u64 {
        self.ticks_handled
    }

    /// Immutable access to the application.
    pub fn app(&self) -> &dyn AppLogic {
        self.app.as_ref()
    }
}

impl GuestProgram for GuestKernel {
    fn next_op(&mut self, vcpu: u32, now: SimTime) -> GuestOp {
        let period = self.tick_period();
        let v = &mut self.vcpus[vcpu as usize];
        // Kernel-queued work first.
        if let Some(op) = v.queue.pop_front() {
            return op;
        }
        // Keep the tick armed. First arming staggers vCPUs across the
        // period (real guests do not tick in lockstep).
        let num_vcpus = self.vcpus.len();
        let v = &mut self.vcpus[vcpu as usize];
        if !v.tick_armed {
            v.tick_armed = true;
            if v.next_tick <= now {
                let stagger = period.scaled((vcpu as f64 + 1.0) / num_vcpus as f64);
                v.next_tick = now + stagger;
            }
            return GuestOp::ProgramTick {
                deadline: v.next_tick,
            };
        }
        // Background console traffic, staggered across vCPUs.
        if let Some(cp) = self.console_period {
            let nc = &mut self.next_console[vcpu as usize];
            if *nc == SimTime::ZERO {
                *nc = now
                    + cp.scaled((vcpu as f64 + 1.0) / self.vcpus.len() as f64)
                    + SimDuration::nanos(1);
            } else if *nc <= now {
                *nc = now + cp;
                return GuestOp::ConsoleWrite;
            }
        }
        self.app.next_op(vcpu, now)
    }

    /// Only application compute is batchable: kernel-queued work, tick
    /// arming and a console write (due, or not yet scheduled) all change
    /// kernel state when taken.
    fn peek_compute(&self, vcpu: u32, now: SimTime) -> Option<SimDuration> {
        let v = &self.vcpus[vcpu as usize];
        if !v.queue.is_empty() || !v.tick_armed {
            return None;
        }
        if self.console_period.is_some() {
            let nc = self.next_console[vcpu as usize];
            if nc == SimTime::ZERO || nc <= now {
                return None;
            }
        }
        self.app.peek_compute(vcpu, now)
    }

    fn on_irq(&mut self, vcpu: u32, irq: GuestIrq, now: SimTime) {
        let tick_work = self.tick_work;
        let irq_work = self.irq_work;
        let period = self.tick_period();
        let v = &mut self.vcpus[vcpu as usize];
        match irq {
            GuestIrq::Tick => {
                self.ticks_handled += 1;
                v.tick_armed = false;
                v.next_tick = now + period;
                // Tick handler work, then the next ProgramTick comes out
                // of the normal next_op flow.
                v.queue.push_back(GuestOp::Compute { work: tick_work });
            }
            other => {
                v.queue.push_back(GuestOp::Compute { work: irq_work });
                self.app.on_irq(vcpu, other, now);
            }
        }
    }

    fn stats(&self) -> WorkloadStats {
        let mut stats = self.app.stats();
        stats.counters.add("kernel.ticks", self.ticks_handled);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial app that computes forever.
    #[derive(Debug)]
    struct Spin;

    impl AppLogic for Spin {
        fn next_op(&mut self, _vcpu: u32, _now: SimTime) -> GuestOp {
            GuestOp::Compute {
                work: SimDuration::micros(50),
            }
        }
        fn on_irq(&mut self, _vcpu: u32, _irq: GuestIrq, _now: SimTime) {}
        fn stats(&self) -> WorkloadStats {
            WorkloadStats::new()
        }
    }

    fn guest(vcpus: u32) -> GuestKernel {
        GuestKernel::new(vcpus, 250, Box::new(Spin))
    }

    #[test]
    fn first_op_programs_tick() {
        let mut g = guest(1);
        match g.next_op(0, SimTime::ZERO) {
            GuestOp::ProgramTick { deadline } => {
                assert_eq!(deadline, SimTime::ZERO + SimDuration::millis(4));
            }
            other => panic!("expected ProgramTick, got {other:?}"),
        }
        // Then application ops.
        assert!(matches!(
            g.next_op(0, SimTime::ZERO),
            GuestOp::Compute { .. }
        ));
    }

    #[test]
    fn tick_irq_yields_tick_work_then_reprogram() {
        let mut g = guest(1);
        g.next_op(0, SimTime::ZERO); // arm
        let t = SimTime::from_nanos(4_000_000);
        g.on_irq(0, GuestIrq::Tick, t);
        // Tick handler work first.
        assert!(
            matches!(g.next_op(0, t), GuestOp::Compute { work } if work == SimDuration::micros(3))
        );
        // Then the timer is re-armed for one period later.
        match g.next_op(0, t) {
            GuestOp::ProgramTick { deadline } => {
                assert_eq!(deadline, t + SimDuration::millis(4))
            }
            other => panic!("expected ProgramTick, got {other:?}"),
        }
        assert_eq!(g.ticks_handled(), 1);
    }

    #[test]
    fn non_tick_irq_charges_irq_work() {
        let mut g = guest(1);
        g.next_op(0, SimTime::ZERO);
        g.on_irq(0, GuestIrq::Ipi { sgi: 3 }, SimTime::ZERO);
        assert!(matches!(
            g.next_op(0, SimTime::ZERO),
            GuestOp::Compute { work } if work == SimDuration::nanos(1_500)
        ));
    }

    #[test]
    fn console_writes_appear_periodically_after_stagger() {
        let mut g = guest(1).with_console_writes(SimDuration::millis(10));
        g.next_op(0, SimTime::ZERO); // arm timer
                                     // The first call initialises the staggered schedule — no write yet.
        assert!(matches!(
            g.next_op(0, SimTime::ZERO),
            GuestOp::Compute { .. }
        ));
        let later = SimTime::ZERO + SimDuration::millis(11);
        assert!(matches!(g.next_op(0, later), GuestOp::ConsoleWrite));
        // Immediately after, no console write until the period elapses.
        assert!(matches!(g.next_op(0, later), GuestOp::Compute { .. }));
        let even_later = later + SimDuration::millis(11);
        assert!(matches!(g.next_op(0, even_later), GuestOp::ConsoleWrite));
    }

    #[test]
    fn vcpus_tick_independently() {
        let mut g = guest(2);
        g.next_op(0, SimTime::ZERO);
        g.next_op(1, SimTime::ZERO);
        g.on_irq(0, GuestIrq::Tick, SimTime::from_nanos(4_000_000));
        // vCPU 1 is unaffected: its next op is still app compute.
        assert!(matches!(
            g.next_op(1, SimTime::from_nanos(4_000_000)),
            GuestOp::Compute { work } if work == SimDuration::micros(50)
        ));
        assert_eq!(g.ticks_handled(), 1);
    }

    /// An app whose every op is batchable compute.
    #[derive(Debug)]
    struct PeekableSpin;

    impl AppLogic for PeekableSpin {
        fn next_op(&mut self, _vcpu: u32, _now: SimTime) -> GuestOp {
            GuestOp::Compute {
                work: SimDuration::micros(50),
            }
        }
        fn peek_compute(&self, _vcpu: u32, _now: SimTime) -> Option<SimDuration> {
            Some(SimDuration::micros(50))
        }
        fn on_irq(&mut self, _vcpu: u32, _irq: GuestIrq, _now: SimTime) {}
        fn stats(&self) -> WorkloadStats {
            WorkloadStats::new()
        }
    }

    #[test]
    fn peek_matches_next_op_and_stops_at_kernel_work() {
        let mut g = GuestKernel::new(1, 250, Box::new(PeekableSpin))
            .with_console_writes(SimDuration::millis(10));
        let t0 = SimTime::ZERO;
        // Tick not armed yet, then the console schedule is uninitialised:
        // taking either changes kernel state, so neither is batchable.
        assert_eq!(g.peek_compute(0, t0), None);
        assert!(matches!(g.next_op(0, t0), GuestOp::ProgramTick { .. }));
        assert_eq!(g.peek_compute(0, t0), None);
        g.next_op(0, t0);
        // Steady state: the peek is the app's compute, and taking it
        // leaves the next answer unchanged.
        let t = SimTime::from_nanos(1_000);
        let work = SimDuration::micros(50);
        assert_eq!(g.peek_compute(0, t), Some(work));
        assert_eq!(g.next_op(0, t), GuestOp::Compute { work });
        assert_eq!(g.peek_compute(0, t), Some(work));
        // A due console write and queued interrupt work are not batchable.
        let due = SimTime::ZERO + SimDuration::millis(11);
        assert_eq!(g.peek_compute(0, due), None);
        g.on_irq(0, GuestIrq::Ipi { sgi: 1 }, t);
        assert_eq!(g.peek_compute(0, t), None);
        // An app without peek support is never batched.
        let mut plain = guest(1);
        plain.next_op(0, t0);
        assert_eq!(plain.peek_compute(0, t), None);
    }

    #[test]
    fn stats_include_kernel_ticks() {
        let mut g = guest(1);
        g.next_op(0, SimTime::ZERO);
        g.on_irq(0, GuestIrq::Tick, SimTime::from_nanos(4_000_000));
        assert_eq!(g.stats().counters.get("kernel.ticks"), 1);
    }
}
