//! # cg-rmm — the realm management monitor
//!
//! A model of Arm's RMM (the CVM security monitor of paper §2.1) with the
//! paper's core-gapping modifications. The baseline behaviour follows
//! TF-RMM / the RMM specification: granule delegation, realm and REC
//! lifecycle, stage-2 translation tables (RTTs), context save/restore on
//! every transition, and virtual-interrupt management through list
//! registers.
//!
//! The core-gapping extensions (paper §4) are:
//!
//! * **Core dedication** ([`coregap`]): cores handed over by the host's
//!   hotplug path are owned by the RMM until released; the RMM never
//!   returns control of a dedicated core to the host.
//! * **vCPU→core binding enforcement**: the first `REC_ENTER` of a vCPU on
//!   a dedicated core binds that core to the vCPU's realm; dispatching the
//!   vCPU elsewhere — or any other realm's vCPU on the same core — fails
//!   with [`cg_cca::RmiStatus::ErrorCoreBinding`].
//! * **Interrupt delegation** ([`interrupts`]): the virtual timer and
//!   virtual IPIs are emulated inside the RMM (≈150 + 70 added lines in
//!   the prototype), eliminating the dominant source of VM exits
//!   (table 4: 28× fewer exits) while staying transparent to KVM through
//!   a *filtered* virtual-interrupt list (fig. 5).
//! * **Attested live migration** ([`dirty`], [`migrate`]): dirty-granule
//!   tracking for pre-copy rounds, plus `RMI_MIGRATION_EXPORT` /
//!   `RMI_MIGRATION_IMPORT` moving a quiesced realm between nodes as a
//!   measurement-sealed blob the untrusted transport cannot splice.
//!
//! The RMM is a passive state machine: methods take the current time and
//! the [`cg_machine::Machine`], mutate state, and return dispositions +
//! costs. Transport (same-core SMC vs cross-core RPC) is chosen by the
//! system layer in `cg-core`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coregap;
pub mod dirty;
pub mod interrupts;
pub mod migrate;
pub mod realm;
pub mod rec;
pub mod rmm;
pub mod rtt;

pub use coregap::{CoreGap, CoreGapError};
pub use dirty::DirtyBitmap;
pub use interrupts::{InterruptPlan, VirtualGic};
pub use migrate::{GranuleFrame, MigrationBlob, RecFrame};
pub use realm::{Realm, RealmState};
pub use rec::{Rec, RecState};
pub use rmm::{Disposition, GuestEvent, RmiOutcome, Rmm, RmmConfig, RmmStats, REALM_DOORBELL_SGI};
pub use rtt::{Rtt, RttError};
