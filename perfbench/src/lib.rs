//! # coregap-perfbench — the repository benchmark
//!
//! Four workloads drive the simulator through its public API
//! (`System::new`, `add_vm`, `run_for` / `run_until_peer_done` in fixed
//! slices, `vm_report`, `metrics()`, `FleetDriver::new` / `step_epoch`),
//! time those calls from outside, and check every modelled output:
//! exactly against a committed golden entry where one exists, and
//! against invariants and a band around the paper's numbers for every
//! seed. The `perf` binary prints the metrics; `PERF.md` explains them.

pub mod checks;
pub mod layers;
pub mod metrics;
pub mod outputs;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;
