//! # cg-sim — deterministic discrete-event simulation engine
//!
//! This crate provides the simulation substrate on which the whole
//! `coregap` system model runs: simulated time, a cancellable event queue
//! with deterministic ordering, a seeded random-number generator, online
//! statistics, and one observation handle, [`TraceHandle`], that records
//! structured trace records and spans, the latter into a span store whose
//! recovery marks note where fault recovery fired.
//!
//! Everything in the workspace is driven from a single event loop (owned by
//! `cg-core`), so simulations are **bit-reproducible** for a given seed:
//! events scheduled for the same instant fire in schedule order, and all
//! randomness flows through [`SimRng`].
//!
//! # Example
//!
//! ```
//! use cg_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! queue.schedule_after(SimDuration::micros(5), "second");
//! queue.schedule_after(SimDuration::micros(1), "first");
//! let (t, e) = queue.pop().unwrap();
//! assert_eq!(e, "first");
//! assert_eq!(t, SimTime::ZERO + SimDuration::micros(1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attrib;
mod causal;
mod export;
mod fault;
mod histogram;
mod profiler;
mod queue;
mod rng;
mod stats;
mod time;
mod timeseries;
mod trace;

pub use attrib::{attribute, AttribReport, PlaneAttrib};
pub use causal::TraceCtx;
pub use export::Json;
pub use fault::{FaultInjector, FaultPlan};
pub use histogram::Histogram;
pub use profiler::{Profiler, RecoveryMark, Span, SpanId, SpanKind};
pub use queue::{EventQueue, EventToken};
pub use rng::SimRng;
pub use stats::{Counters, OnlineStats, Samples};
pub use time::{SimDuration, SimTime};
pub use timeseries::TimeSeries;
pub use trace::{
    Divergence, StructuredTrace, TraceDiff, TraceDumpGuard, TraceHandle, TraceKind, TraceRecord,
    DEFAULT_DUMP_RECORDS,
};
