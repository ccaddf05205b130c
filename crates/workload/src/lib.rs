//! # wlm-workload — database workload model and generators
//!
//! A *database workload* is "a set of requests that have some common
//! characteristics such as application, source of request, type of query,
//! business priority, and/or performance objectives" (Zhang et al.). This
//! crate supplies:
//!
//! * the [`request::Request`] model — a query plus its origin ("who"),
//!   statement type ("what") and business importance;
//! * [`sla`] — service-level agreements expressed as average response time,
//!   percentile goals (*x% complete within y*), execution velocity or
//!   throughput floors;
//! * [`generators`] — synthetic OLTP, BI, batch-report, ad-hoc and
//!   administrative-utility workload sources with Poisson, bursty and
//!   closed-loop arrival processes, all seeded and deterministic;
//! * [`mix`] — time-varying compositions for server-consolidation
//!   scenarios;
//! * [`trace`] — a DBQL-style query log consumed by workload analyzers.

pub mod catalog_workloads;
pub mod generators;
pub mod mix;
pub mod request;
pub mod sla;
pub mod trace;

pub use catalog_workloads::CatalogSource;
pub use generators::{
    AdHocSource, BatchReportSource, BiSource, BurstySource, ClosedLoopOltpSource, OltpSource,
    PoisonSource, Source, SurgeHandle, SurgeRamp, SurgeSource, UniformSource, UtilitySource,
};
pub use mix::MixedSource;
pub use request::{Importance, Origin, Request, RequestId};
pub use sla::{PerformanceObjective, ServiceLevelAgreement, SlaEvaluation};
pub use trace::{CompletedQuery, QueryLog, QueryLogEntry, QueryTemplate};
