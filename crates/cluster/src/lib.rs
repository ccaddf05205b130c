//! # wlm-cluster — hierarchical workload management over engine shards
//!
//! A shared-nothing cluster of N independent [`DbEngine`] shards, each
//! under its own per-shard [`WorkloadManager`], below one **global
//! front-end** controller. The taxonomy's technique classes recur at the
//! cluster level, one layer up from where `wlm-core` applies them:
//!
//! | taxonomy class            | global front-end mechanism                  |
//! |---------------------------|---------------------------------------------|
//! | workload characterization | routing key extraction ([`Request::shard_key`]) |
//! | admission control         | cluster-wide load shedding ([`WlmEvent::ClusterShed`]) |
//! | scheduling                | request routing ([`RoutingPolicy`])          |
//! | execution control         | shard failover ([`FailoverPolicy`]) and the elastic shard lifecycle ([`elastic::Autoscaler`] spawn/warm/drain/retire) |
//! | monitoring                | link-fault detection ([`LinkLayer`](link) heartbeats → [`detector::FailureDetector`] gray/dead verdicts → hedged re-dispatch) |
//!
//! The two levels share the engine quantum: one [`Cluster::tick`] routes
//! the window's arrivals and then steps every shard exactly one control
//! cycle, so an N-shard cluster is as deterministic per seed as a single
//! manager — same seed, byte-identical shard checkpoints.
//!
//! The front-end makes three kinds of decisions, each published as a typed
//! [`WlmEvent`] on the cluster's own bus:
//!
//! - **Route** ([`WlmEvent::Routed`]): pick a live shard for each arriving
//!   request — round-robin, least-outstanding-cost, or partition affinity
//!   (consistent hashing on [`Request::shard_key`]).
//! - **Shed** ([`WlmEvent::ClusterShed`]): when *every* live shard's
//!   controller reports a saturated queue, turn arrivals away at the
//!   cluster door instead of deepening queues nobody can drain.
//! - **Re-route** ([`WlmEvent::Rerouted`]): when a shard's controller
//!   crashes, move its queued work onto the survivors, reusing the
//!   checkpoint/restore reconciliation of the crash-tolerant control
//!   plane (`wlm-core::manager::checkpoint`).
//! - **Hedge** ([`WlmEvent::Hedged`]): when the [`detector`] suspects a
//!   shard (gray from slow round trips, dead from silence), re-dispatch
//!   its in-flight work to a healthy peer over the [`link`]; the first
//!   completion wins and the loser is cancelled — exactly-once
//!   accounting end to end, even across partition heals
//!   ([`WlmEvent::PartitionHealed`]).
//!
//! [`DbEngine`]: wlm_dbsim::engine::DbEngine
//! [`WorkloadManager`]: wlm_core::manager::WorkloadManager
//! [`Request::shard_key`]: wlm_workload::request::Request::shard_key
//! [`WlmEvent`]: wlm_core::events::WlmEvent
//! [`WlmEvent::Routed`]: wlm_core::events::WlmEvent::Routed
//! [`WlmEvent::Rerouted`]: wlm_core::events::WlmEvent::Rerouted
//! [`WlmEvent::ClusterShed`]: wlm_core::events::WlmEvent::ClusterShed

pub mod cluster;
pub mod detector;
pub mod elastic;
pub mod inbox;
pub mod ledger;
pub mod link;
pub mod routing;
pub mod snapshot;
pub mod warm;

pub use cluster::{Cluster, ClusterBuilder, ClusterReport, FailoverPolicy};
pub use detector::{DetectorConfig, ShardHealth};
pub use elastic::{Autoscaler, ElasticConfig, ScaleDecision, ShardStage};
pub use inbox::InboxSource;
pub use ledger::HedgeConfig;
pub use link::{LinkConfig, MsgId};
pub use routing::RoutingPolicy;
pub use snapshot::{ClusterSnapshot, ShardView};
pub use warm::WarmCache;
