//! # cg-host — the untrusted host software stack
//!
//! Models the Linux/KVM/kvmtool side of the paper's prototype (§4):
//!
//! * A host **kernel scheduler** with FIFO and fair classes and per-core
//!   run queues ([`sched`]). vCPU threads and the wake-up thread run at
//!   FIFO priority (fig. 4), VMM I/O threads in the fair class.
//! * **CPU hotplug** with the paper's modification: migrate work away,
//!   retarget interrupts, skip the frequency ramp-down, and hand the core
//!   to the RMM instead of powering it off ([`hotplug`]).
//! * A **KVM layer** that turns REC exits into emulation actions, host
//!   timer/IPI emulation (when delegation is off), stage-2 fault fixups,
//!   and resume decisions ([`kvm`]).
//! * A **VMM** (kvmtool-like) with virtio-net and virtio-blk backends and
//!   an SR-IOV VF passthrough path ([`vmm`]).
//! * The **wake-up thread** state machine of fig. 4 ([`wakeup`]): one
//!   coalescing, payload-free doorbell IPI activates a thread that
//!   scans, rescans and suspends. `cg-core` runs both the CVM-exit
//!   plane and the fast-path I/O plane through it.
//! * The user-mode **core planner** performing admission control and
//!   dedicated-core assignment for CVMs (§3, [`planner`]).
//! * The serving **front-end** gating tenant request traffic with
//!   token buckets, queue-depth caps, and backpressure, shedding the
//!   overload with typed reasons ([`frontend`]).
//!
//! Everything is a passive state machine driven by the system event loop
//! in `cg-core`; methods return actions and costs instead of scheduling
//! events themselves.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod frontend;
pub mod hotplug;
pub mod kvm;
pub mod params;
pub mod planner;
pub mod sched;
pub mod thread;
pub mod vmm;
pub mod wakeup;

pub use frontend::{AdmissionPolicy, FrontEnd, ShedReason, TenantGate, TokenBucket};
pub use kvm::{HostAction, KvmVm, VmExecMode};
pub use params::HostParams;
pub use planner::{CorePlanner, PlannerError};
pub use sched::Scheduler;
pub use thread::{SchedClass, Thread, ThreadId, ThreadKind, ThreadState};
pub use vmm::{DeviceId, DeviceKind, DiskRequest, NetPacket, Vmm};
pub use wakeup::WakeupThread;
