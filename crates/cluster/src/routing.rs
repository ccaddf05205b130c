//! Request routing policies — cluster-level scheduling.
//!
//! The front-end's routing decision is the cluster analogue of the
//! single-node scheduler's queue-ordering decision: it fixes *where* work
//! waits rather than *when* it runs. Three policies cover the classic
//! trade-off triangle:
//!
//! - [`RoutingPolicy::RoundRobin`] — even request counts, blind to both
//!   load imbalance and data placement. The ablation baseline.
//! - [`RoutingPolicy::LeastOutstandingCost`] — join the shard with the
//!   least estimated outstanding work (running + queued + routed this
//!   cycle, in optimizer timerons). Load-adaptive, placement-blind.
//! - [`RoutingPolicy::Affinity`] — consistent hashing on the request's
//!   partition key ([`Request::shard_key`]), probing past dead shards.
//!   Placement-aware: each partition's hot pages stay warm in one shard's
//!   buffer pool (see [`crate::warm::WarmCache`]).
//!
//! [`Request::shard_key`]: wlm_workload::request::Request::shard_key

use serde::Serialize;
use wlm_workload::request::Request;

/// How the front-end picks a live shard for each arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum RoutingPolicy {
    /// Cycle through live shards in index order.
    RoundRobin,
    /// Route to the live shard with the least estimated outstanding cost.
    LeastOutstandingCost,
    /// Hash the request's partition key to a home shard, probing forward
    /// past dead shards (consistent as long as the shard count is fixed:
    /// the same key always lands on the same live shard).
    Affinity,
}

impl RoutingPolicy {
    /// Short policy name (stable; used in experiment output).
    pub fn name(&self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round_robin",
            RoutingPolicy::LeastOutstandingCost => "least_outstanding_cost",
            RoutingPolicy::Affinity => "affinity",
        }
    }
}

/// The affinity key of a request: its partition key when the workload is
/// partitionable, otherwise a hash of its workload label (so scatter work
/// still spreads deterministically instead of piling on shard 0).
pub(crate) fn affinity_key(req: &Request) -> u64 {
    match req.shard_key {
        Some(key) => key,
        None => {
            // FNV-1a over the label bytes.
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for b in req.spec.label.as_bytes() {
                h ^= *b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            h
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlm_core::splitmix64;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(1), splitmix64(1));
        let shards = 4u64;
        let mut hits = [0u32; 4];
        for key in 0..64 {
            hits[(splitmix64(key) % shards) as usize] += 1;
        }
        assert!(
            hits.iter().all(|&h| h > 0),
            "64 keys must touch all 4 shards: {hits:?}"
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(RoutingPolicy::RoundRobin.name(), "round_robin");
        assert_eq!(
            RoutingPolicy::LeastOutstandingCost.name(),
            "least_outstanding_cost"
        );
        assert_eq!(RoutingPolicy::Affinity.name(), "affinity");
    }
}
