//! # wlm-dbsim — a simulated DBMS engine substrate
//!
//! A deterministic, quantum-stepped simulation of a database server used as
//! the substrate for workload management experiments. The engine reproduces
//! the phenomena that make workload management necessary (Zhang et al.,
//! *Workload Management in DBMSs: A Taxonomy*):
//!
//! * **resource contention** — CPU, disk I/O and memory are shared among all
//!   running queries by weighted fair sharing, so an uncontrolled
//!   resource-intensive query degrades everyone else;
//! * **memory-overcommit thrashing** — beyond a workload-dependent
//!   multiprogramming level, paging overhead makes throughput *fall* as more
//!   queries are admitted (Denning's thrashing knee);
//! * **data-contention thrashing** — update transactions acquire locks on a
//!   hot key set; past a critical conflict ratio most transactions are
//!   blocked waiting (Moenkeberg & Weikum);
//! * **inaccurate optimizer estimates** — the cost model reports estimates
//!   with configurable multiplicative error, so "problematic" long-running
//!   queries can slip past naive admission thresholds.
//!
//! The engine itself deliberately performs **no** workload management: it
//! executes whatever it is given and exposes the control surface (kill,
//! throttle, suspend/resume, dynamic weights) and the monitor surface
//! (progress, conflict ratio, interval throughput, utilization) on which the
//! `wlm-core` techniques act.
//!
//! ## Quick example
//!
//! ```
//! use wlm_dbsim::{DbEngine, EngineConfig, plan::PlanBuilder};
//!
//! let mut engine = DbEngine::new(EngineConfig::default());
//! let plan = PlanBuilder::table_scan(10_000).filter(0.5).build();
//! let id = engine.submit(plan.into_spec());
//! let mut completions = Vec::new();
//! while engine.is_running(id) {
//!     completions.extend(engine.step());
//! }
//! assert_eq!(completions.len(), 1);
//! ```

pub mod bufferpool;
pub mod catalog;
pub mod engine;
pub mod error;
pub mod locks;
pub mod metrics;
pub mod optimizer;
pub mod plan;
pub mod resources;
pub mod suspend;
pub mod time;

pub use engine::{
    Completion, CompletionKind, DbEngine, EngineConfig, EngineFault, FaultState, QueryId,
    QueryProgress,
};
pub use error::EngineError;
pub use optimizer::{CostEstimate, CostModel};
pub use plan::{Operator, OperatorKind, Plan, PlanBuilder, QuerySpec, StatementType};
pub use suspend::{SuspendStrategy, SuspendedQuery};
pub use time::{SimDuration, SimTime};
