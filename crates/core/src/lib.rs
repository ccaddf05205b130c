//! # wlm-core — the workload management framework
//!
//! A working implementation of the complete taxonomy of workload management
//! techniques from Zhang, Martin, Powley & Chen, *Workload Management in
//! Database Management Systems: A Taxonomy*. The four technique classes map
//! directly onto modules:
//!
//! | taxonomy class            | module           |
//! |---------------------------|------------------|
//! | workload characterization | [`characterize`] |
//! | admission control         | [`admission`]    |
//! | scheduling                | [`scheduling`]   |
//! | execution control         | [`execution`]    |
//!
//! [`taxonomy`] holds the classification tree itself together with a
//! registry of every implemented technique — the paper's Figure 1 and
//! Tables 1–5 are regenerated from that registry, so the printed taxonomy
//! always reflects the living code.
//!
//! [`manager::WorkloadManager`] assembles the pipeline the paper describes
//! as an explicit staged control cycle — identify arriving requests
//! (characterization), impose admission control, order the wait queue
//! (scheduling), and manage running queries (execution control), then
//! monitor — with each stage a module under [`manager`]. Every stage emits
//! typed [`events::WlmEvent`] decision telemetry onto the manager's event
//! bus, which the facility emulations in `wlm-systems` consume. [`autonomic`]
//! closes the loop with a MAPE (monitor → analyze → plan → execute)
//! controller, the paper's §5.3 vision. [`resilience`] hardens the pipeline
//! against injected faults with retry budgets, per-workload circuit
//! breakers, and a staged degradation ladder.

pub mod admission;
pub mod api;
pub mod autonomic;
pub mod characterize;
pub mod dashboard;
pub mod error;
pub mod events;
pub mod execution;
pub mod manager;
pub mod policy;
pub mod registry;
pub mod resilience;
pub mod scheduling;
pub mod stats;
pub mod taxonomy;

#[cfg(test)]
pub(crate) mod testutil;

pub use api::{
    AdmissionController, AdmissionDecision, ControlAction, ExecutionController, ManagedRequest,
    RunningQuery, Scheduler, SystemSnapshot, WlmBuilder,
};
pub use error::Error;
pub use manager::{ManagerConfig, RunReport, WorkloadManager};
pub use taxonomy::{Classified, TaxonomyPath, TechniqueClass, TechniqueInfo};

/// SplitMix64 finalizer: a cheap, deterministic 64-bit mix with good
/// avalanche behaviour — the workspace's one hash for seeded draws, seed
/// derivation and affinity routing.
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
