//! The system event type driving the simulation.

use cg_machine::{CoreId, IntId};
use cg_sim::TraceCtx;
use cg_workloads::PeerPacket;

use crate::system::VmId;

/// All events the system event loop processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemEvent {
    /// The segment executing on `core` ends (stale if `epoch` mismatches).
    SegmentEnd {
        /// The core whose segment ends.
        core: CoreId,
        /// Epoch at scheduling time; a truncated segment bumps the
        /// core's epoch, invalidating the old event.
        epoch: u64,
    },
    /// A physical generic timer fires on `core`.
    PhysTimerFire {
        /// The core whose timer fires.
        core: CoreId,
        /// Generation token from [`cg_machine::GenericTimer::program`].
        generation: u64,
    },
    /// A software-generated interrupt (IPI) arrives at `core`.
    IpiArrive {
        /// Destination core.
        core: CoreId,
        /// The SGI INTID.
        intid: IntId,
    },
    /// A device SPI arrives at `core`.
    DeviceIrqArrive {
        /// Destination core (per SPI routing).
        core: CoreId,
        /// The owning VM.
        vm: VmId,
        /// Guest device index.
        device: u32,
        /// Causal context of the completion that raised the interrupt
        /// (observational only; `NULL` when tracing is off).
        ctx: TraceCtx,
    },
    /// A posted run call becomes visible to the polling dedicated core.
    RunRequestVisible {
        /// The VM.
        vm: VmId,
        /// The vCPU whose run call was posted.
        vcpu: u32,
    },
    /// A host-armed emulated vtimer fires (delegation off).
    EmulTimerFire {
        /// The VM.
        vm: VmId,
        /// The vCPU.
        vcpu: u32,
        /// The armed deadline (stale-check against KVM state).
        deadline_ns: u64,
    },
    /// A packet from the guest reaches the peer.
    WireToPeer {
        /// The VM whose NIC sent it.
        vm: VmId,
        /// The packet.
        pkt: PeerPacket,
    },
    /// A packet from the peer reaches the guest-facing NIC.
    WireToGuest {
        /// The destination VM.
        vm: VmId,
        /// Guest device index.
        device: u32,
        /// Payload bytes.
        bytes: u64,
        /// Flow tag.
        flow: u64,
    },
    /// A malicious-host harassment tick: kick the target vCPU and
    /// reschedule (security scenarios).
    HarassTick {
        /// The victim VM.
        vm: VmId,
        /// The victim vCPU.
        vcpu: u32,
        /// Kick period in nanoseconds.
        period_ns: u64,
    },
    /// A periodic observability sample is due: snapshot utilisation /
    /// channel / cache-state gauges into the time series and reschedule.
    ObsSample {
        /// Sampling period in nanoseconds.
        period_ns: u64,
    },
    /// The client-side timeout for an async run call fires. Stale (a
    /// no-op) unless the vCPU is still blocked awaiting call `seq`.
    CallTimeout {
        /// The VM.
        vm: VmId,
        /// The vCPU whose call is timing out.
        vcpu: u32,
        /// The call sequence number the timeout was armed for; the vCPU
        /// bumps its sequence when the call completes, invalidating
        /// in-flight timeouts.
        seq: u64,
    },
    /// The periodic watchdog pass, armed once with the first doorbell
    /// plane: rescan for work stranded behind a lost notification (a
    /// plane doorbell, a completion interrupt, an IVC doorbell, an
    /// elastic kick), then reschedule.
    WatchdogTick {
        /// Rescan period in nanoseconds.
        period_ns: u64,
    },
    /// The periodic defragmentation pass is due: if no elastic
    /// operation is in flight, plan a compaction and enqueue its moves
    /// as live rebinds, then reschedule.
    DefragTick {
        /// Defragmentation period in nanoseconds.
        period_ns: u64,
    },
    /// A disk request completes in the backing store.
    DiskDone {
        /// The VM.
        vm: VmId,
        /// Guest device index.
        device: u32,
        /// Completion tag.
        tag: u64,
        /// Causal context of the submitting request (observational
        /// only; `NULL` when tracing is off).
        ctx: TraceCtx,
    },
}
