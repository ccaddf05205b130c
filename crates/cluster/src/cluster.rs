//! The cluster: N engine shards under one global front-end controller.
//!
//! [`Cluster::tick`] is the hierarchical control cycle. On the shared
//! engine quantum it (1) processes due shard outages and rejoins,
//! (2) applies due network-fabric faults (partitions, gray links, loss
//! windows) and heals partitions through the reconciliation path,
//! (3) pumps the [`LinkLayer`](crate::link::LinkLayer) — heartbeats out,
//! deliveries into shard inboxes, acks and pongs back into the
//! [`FailureDetector`](crate::detector::FailureDetector) — and hedges the
//! in-flight work of newly suspected shards, (4) polls the cluster-level
//! source for the window's arrivals, (5) passes each arrival through the
//! cluster admission gate (shedding when every live shard is saturated)
//! and routes the survivors toward shard inboxes, (6) steps every shard's
//! [`WorkloadManager`] exactly one control cycle (down shards advance via
//! [`WorkloadManager::tick_uncontrolled`] — the data plane outlives its
//! controller), and (7) forwards completion feedback to the source
//! through the [`Ledger`](crate::ledger) — the one per-request book that
//! decides which completion is a request's first. Every step is
//! deterministic, so an N-shard run is reproducible per seed down to
//! byte-identical shard checkpoints — link faults and all.
//!
//! Shard failure reuses the crash-tolerant control plane:
//! [`FailoverPolicy::Reroute`] checkpoints the dying controller, moves its
//! queued work (wait queue, admission gate, inbox, undelivered link
//! traffic, and the in-flight running/suspended sets) onto the survivors,
//! and restores a stripped checkpoint so the restore reconciliation
//! orphan-kills what the dead shard's engine was running — each moved
//! request runs again elsewhere, none is lost, none completes twice.
//! [`FailoverPolicy::WaitForRestart`] is the ablation baseline: the work
//! stays put and the shard restores its full checkpoint when it rejoins.
//!
//! Hedged re-dispatch extends the same exactly-once discipline to *gray*
//! failure. A suspected shard's unacknowledged (and, once it looks dead,
//! accepted-but-unfinished) requests are re-sent to a healthy peer; the
//! first completion to reach the front-end wins and the losing copies are
//! cancelled through the orphan-kill path ([`Cluster::report`] subtracts
//! nothing twice — duplicate completions of a won race are counted in
//! [`ClusterReport::duplicate_completions`] and excluded from
//! [`ClusterReport::completed`]). The ledger keeps a request's entry until
//! the last losing copy is cancelled and nothing after that.

use crate::detector::{DetectorConfig, FailureDetector, ShardHealth};
use crate::elastic::{Autoscaler, ElasticConfig, ScaleDecision, ShardStage};
use crate::inbox::{FeedbackBuffer, InboxSource};
use crate::ledger::{Completion, HedgeConfig, Ledger};
use crate::link::{LinkConfig, LinkLayer};
use crate::routing::{affinity_key, RoutingPolicy};
use crate::snapshot::{ClusterSnapshot, ShardView};
use crate::warm::WarmCache;
use serde::Serialize;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use wlm_chaos::{FaultPlan, NetFault, NetFaultEvent};
use wlm_core::api::WlmBuilder;
use wlm_core::events::{EventBus, EventSubscriber, WlmEvent};
use wlm_core::manager::store::{corrupt_bytes, open, seal, CorruptionKind};
use wlm_core::manager::{ControllerState, RunReport, WorkloadManager};
use wlm_core::{splitmix64, Error};
use wlm_dbsim::engine::EngineFault;
use wlm_dbsim::optimizer::CostModel;
use wlm_dbsim::time::{SimDuration, SimTime};
use wlm_workload::generators::Source;
use wlm_workload::request::{Request, RequestId};

/// What the front-end does with a failed shard's queued work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum FailoverPolicy {
    /// Move the dead shard's queued and in-flight work onto the surviving
    /// shards at crash time (bounded SLA damage, survivors absorb load).
    Reroute,
    /// Leave the work where it is; the shard restores its checkpoint when
    /// it rejoins (the work waits out the outage).
    WaitForRestart,
}

impl FailoverPolicy {
    /// Short policy name (stable; used in experiment output).
    pub fn name(&self) -> &'static str {
        match self {
            FailoverPolicy::Reroute => "reroute",
            FailoverPolicy::WaitForRestart => "wait_for_restart",
        }
    }
}

/// One shard: a per-shard workload manager plus its arrival inbox.
struct Shard {
    mgr: WorkloadManager,
    inbox: InboxSource,
    /// `Some(t)` while the shard's controller is down; it rejoins at `t`.
    down_until: Option<SimTime>,
    /// Estimated cost routed to this shard in the current tick, not yet
    /// visible in the manager's snapshot (least-outstanding-cost routing).
    routed_cost: f64,
}

impl Shard {
    fn alive(&self) -> bool {
        self.down_until.is_none()
    }
}

/// What becomes of a shard once [`Cluster::evacuate`] has moved its work.
enum Vacated {
    /// Its controller crashed and rejoins at `until`.
    Down { until: SimTime },
    /// The autoscaler retired it.
    Retired,
}

/// A scheduled shard-controller outage.
struct Outage {
    shard: usize,
    at: SimTime,
    duration: SimDuration,
    triggered: bool,
    /// The sealed crash-time checkpoint image, held for the shard's
    /// rejoin under [`FailoverPolicy::WaitForRestart`]. Verified when
    /// read back: a damaged image forces a cold restart instead of a
    /// garbage restore.
    saved: Option<Vec<u8>>,
}

/// End-of-run summary aggregated over every shard.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterReport {
    /// Simulated run length, seconds.
    pub elapsed_secs: f64,
    /// Total completions across shards, *excluding* duplicate completions
    /// of hedged races (see [`Self::duplicate_completions`]): each request
    /// the cluster accepted surfaces here exactly once.
    pub completed: u64,
    /// Total kills across shards, *excluding* crash-recovery reclaims
    /// and hedge-loser cancellations (those are resource housekeeping,
    /// not workload-management outcomes). After a *verified* recovery
    /// each reclaimed request still surfaces exactly once through its
    /// rerouted twin; after a failed checkpoint verification the
    /// reclaimed queries have no twins — their requests never surface
    /// again, which is exactly the work-loss signal the E27
    /// conservation invariant detects. The per-shard rows in
    /// [`Self::shards`] keep the raw counts.
    pub killed: u64,
    /// Total shard-level rejections.
    pub rejected: u64,
    /// Requests routed by the front-end.
    pub routed: u64,
    /// Requests moved off failed shards.
    pub rerouted: u64,
    /// Requests shed at the cluster door.
    pub shed: u64,
    /// Hedged re-dispatches issued against suspected shards.
    pub hedged: u64,
    /// Completions of already-won hedge races, absorbed by the
    /// exactly-once filter instead of reaching the source twice.
    pub duplicate_completions: u64,
    /// Link-layer data messages that arrived at a shard (0 without a
    /// link; includes redeliveries).
    pub delivered: u64,
    /// Link-layer messages lost to loss draws or partitions.
    pub link_dropped: u64,
    /// Deliveries the shard-side dedup dropped as already seen.
    pub redelivered: u64,
    /// Retransmissions the ack timeout triggered.
    pub retransmits: u64,
    /// Aggregate throughput, completions/second.
    pub throughput: f64,
    /// Shards the autoscaler spawned over the run (0 without
    /// [`ClusterBuilder::elastic`]).
    pub scale_ups: u64,
    /// Shards the autoscaler drained and retired over the run.
    pub scale_downs: u64,
    /// Shard-hours actually spent, in seconds: each tick charges one
    /// quantum per non-retired shard. A static cluster charges
    /// `shards * elapsed_secs`; an elastic one charges only for the
    /// capacity it kept up — the denominator of the provisioning-cost
    /// comparison in experiment E24.
    pub shard_seconds: f64,
    /// Per-shard run reports, in shard order.
    pub shards: Vec<RunReport>,
}

/// Typed facade for assembling a [`Cluster`] — the cluster-level
/// counterpart of [`WlmBuilder`].
pub struct ClusterBuilder {
    shards: usize,
    routing: RoutingPolicy,
    failover: FailoverPolicy,
    shed_threshold: Option<usize>,
    warm_cache: Option<(usize, u64)>,
    routing_cost_model: CostModel,
    link: Option<LinkConfig>,
    detector: Option<DetectorConfig>,
    hedging: Option<HedgeConfig>,
    elastic: Option<ElasticConfig>,
    factory: Option<Box<dyn Fn(usize) -> WlmBuilder>>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ClusterBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterBuilder")
            .field("shards", &self.shards)
            .field("routing", &self.routing)
            .field("failover", &self.failover)
            .field("shed_threshold", &self.shed_threshold)
            .field("warm_cache", &self.warm_cache)
            .field("link", &self.link)
            .field("detector", &self.detector.is_some())
            .field("hedging", &self.hedging.is_some())
            .field("elastic", &self.elastic.is_some())
            .finish_non_exhaustive()
    }
}

impl ClusterBuilder {
    /// A single-shard cluster with round-robin routing, re-route failover,
    /// no shed gate, no warm-partition model and a direct (in-memory)
    /// fabric.
    pub fn new() -> Self {
        ClusterBuilder {
            shards: 1,
            routing: RoutingPolicy::RoundRobin,
            failover: FailoverPolicy::Reroute,
            shed_threshold: None,
            warm_cache: None,
            routing_cost_model: CostModel::oracle(),
            link: None,
            detector: None,
            hedging: None,
            elastic: None,
            factory: None,
        }
    }

    /// Number of shards.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Routing policy for arriving requests.
    pub fn routing(mut self, policy: RoutingPolicy) -> Self {
        self.routing = policy;
        self
    }

    /// What happens to a failed shard's queued work.
    pub fn failover(mut self, policy: FailoverPolicy) -> Self {
        self.failover = policy;
        self
    }

    /// Open the cluster shed gate when every live shard's queue pressure
    /// (controller queue plus inbox) reaches `threshold`.
    pub fn shed_when_all_queued_at_least(mut self, threshold: usize) -> Self {
        self.shed_threshold = Some(threshold.max(1));
        self
    }

    /// Enable the warm-partition model: each shard keeps up to `capacity`
    /// partitions warm; a cold-routed partition charges its request a
    /// `cold_working_set_pages` working set (see [`WarmCache`]).
    pub fn warm_cache(mut self, capacity: usize, cold_working_set_pages: u64) -> Self {
        self.warm_cache = Some((capacity, cold_working_set_pages));
        self
    }

    /// Cost model the least-outstanding-cost router estimates arrivals
    /// with (default: a perfect oracle).
    pub fn routing_cost_model(mut self, model: CostModel) -> Self {
        self.routing_cost_model = model;
        self
    }

    /// Put a simulated [`LinkLayer`] between the front-end and the shard
    /// inboxes: enveloped delivery with seeded delay, jitter, loss,
    /// duplication and retransmission, plus partition/gray fault windows
    /// ([`Cluster::schedule_net_fault`]). The default config is a perfect
    /// link, under which a run is byte-identical to the direct fabric.
    pub fn link(mut self, cfg: LinkConfig) -> Self {
        self.link = Some(cfg);
        self
    }

    /// Run a [`FailureDetector`] over the link's ack/pong round trips and
    /// steer routing away from suspected shards. Requires [`Self::link`].
    pub fn failure_detector(mut self, cfg: DetectorConfig) -> Self {
        self.detector = Some(cfg);
        self
    }

    /// Hedge the in-flight work of suspected shards onto healthy peers,
    /// first completion wins, exactly-once accounting. Requires
    /// [`Self::failure_detector`].
    pub fn hedged_redispatch(mut self, cfg: HedgeConfig) -> Self {
        self.hedging = Some(cfg);
        self
    }

    /// Run the shard pool elastically: build all [`Self::shards`] shards
    /// but keep only [`ElasticConfig::min_shards`] active, letting the
    /// deterministic [`Autoscaler`] spawn (with a warm-up/cold-cache
    /// penalty) and drain-then-retire the rest as pressure moves. Without
    /// this, every shard is active for the whole run.
    pub fn elastic(mut self, cfg: ElasticConfig) -> Self {
        self.elastic = Some(cfg);
        self
    }

    /// Validate and assemble the cluster.
    ///
    /// Fails with [`Error::Config`] when the shard count is zero, a
    /// shard's own builder fails validation, the shards disagree on the
    /// engine quantum (the two-level controller steps one shared clock),
    /// or the fabric stack is inconsistent (a failure detector without a
    /// link, hedging without a detector).
    pub fn build(self) -> Result<Cluster, Error> {
        if self.shards == 0 {
            return Err(Error::Config("cluster needs at least one shard".into()));
        }
        if self.detector.is_some() && self.link.is_none() {
            return Err(Error::Config(
                "a failure detector needs a link layer to observe (ClusterBuilder::link)".into(),
            ));
        }
        if self.hedging.is_some() && self.detector.is_none() {
            return Err(Error::Config(
                "hedged re-dispatch needs a failure detector (ClusterBuilder::failure_detector)"
                    .into(),
            ));
        }
        if let Some(el) = &self.elastic {
            if el.min_shards == 0 || el.min_shards > self.shards {
                return Err(Error::Config(format!(
                    "elastic min_shards {} must be in 1..={} (the pool size)",
                    el.min_shards, self.shards
                )));
            }
        }
        let feedback: FeedbackBuffer = Rc::new(RefCell::new(Vec::new()));
        let mut shards = Vec::with_capacity(self.shards);
        let mut quantum = None;
        for i in 0..self.shards {
            let builder = match &self.factory {
                Some(f) => f(i),
                None => WlmBuilder::new(),
            };
            let mgr = builder.build()?;
            let q = mgr.engine().config().quantum;
            match quantum {
                None => quantum = Some(q),
                Some(q0) if q0 != q => {
                    return Err(Error::Config(format!(
                        "shard {i} quantum {}us disagrees with shard 0 quantum {}us",
                        q.as_micros(),
                        q0.as_micros()
                    )));
                }
                Some(_) => {}
            }
            shards.push(Shard {
                mgr,
                inbox: InboxSource::new(i, Rc::clone(&feedback)),
                down_until: None,
                routed_cost: 0.0,
            });
        }
        let quantum = quantum.ok_or_else(|| {
            // Unreachable given the zero-shard guard above, but a typed
            // error beats a panic if the guard ever drifts.
            Error::Config("cluster needs at least one shard".into())
        })?;
        let warm = self
            .warm_cache
            .map(|(capacity, cold)| WarmCache::new(self.shards, capacity, cold));
        let link = self.link.map(|cfg| LinkLayer::new(cfg, self.shards));
        let detector = self
            .detector
            .map(|cfg| FailureDetector::new(cfg, self.shards, SimTime::ZERO));
        // Without elasticity every shard is active for the whole run, so
        // the routable mask degenerates to plain liveness and a run is
        // byte-identical to the pre-elastic cluster.
        let stages: Vec<ShardStage> = match &self.elastic {
            Some(el) => (0..self.shards)
                .map(|i| {
                    if i < el.min_shards {
                        ShardStage::Active
                    } else {
                        ShardStage::Retired
                    }
                })
                .collect(),
            None => vec![ShardStage::Active; self.shards],
        };
        Ok(Cluster {
            shards,
            stages,
            elastic: self.elastic.map(Autoscaler::new),
            routing: self.routing,
            failover: self.failover,
            shed_threshold: self.shed_threshold,
            warm,
            routing_cost_model: self.routing_cost_model,
            rr_next: 0,
            quantum,
            events: Rc::new(RefCell::new(EventBus::with_thread_trace())),
            feedback,
            parked: VecDeque::new(),
            outages: Vec::new(),
            link,
            detector,
            ledger: Ledger::new(self.hedging),
            held_feedback: BTreeMap::new(),
            net_schedule: Vec::new(),
            routed: 0,
            rerouted: 0,
            shed: 0,
            redelivered: 0,
            scale_ups: 0,
            scale_downs: 0,
            shard_us: 0,
            armed_ckpt_faults: BTreeMap::new(),
            ckpt_torn_caught: 0,
            ckpt_rejected: 0,
        })
    }

    /// Per-shard manager configuration: `f(shard)` returns the
    /// [`WlmBuilder`] the shard's manager is built from. Without a
    /// factory, every shard gets `WlmBuilder::new()` defaults.
    pub fn shard_builder(mut self, f: Box<dyn Fn(usize) -> WlmBuilder>) -> Self {
        self.factory = Some(f);
        self
    }
}

/// The sharded cluster under hierarchical workload management.
pub struct Cluster {
    shards: Vec<Shard>,
    /// Elastic lifecycle stage per shard (all [`ShardStage::Active`]
    /// without [`ClusterBuilder::elastic`]).
    stages: Vec<ShardStage>,
    /// The deterministic scale controller, when the pool is elastic.
    elastic: Option<Autoscaler>,
    routing: RoutingPolicy,
    failover: FailoverPolicy,
    shed_threshold: Option<usize>,
    warm: Option<WarmCache>,
    routing_cost_model: CostModel,
    /// Round-robin cursor.
    rr_next: usize,
    /// The shared engine quantum every shard steps per cluster tick.
    quantum: SimDuration,
    /// The front-end's own decision-event bus.
    events: Rc<RefCell<EventBus>>,
    feedback: FeedbackBuffer,
    /// Arrivals held while no shard is live (flushed on rejoin).
    parked: VecDeque<Request>,
    outages: Vec<Outage>,
    /// The simulated fabric; `None` means direct in-memory delivery.
    link: Option<LinkLayer>,
    detector: Option<FailureDetector>,
    /// The one per-request book: every request from its first delivery
    /// until its completion is forwarded and its losing copies are
    /// cancelled, plus the exactly-once correction tallies.
    ledger: Ledger,
    /// Completion feedback that surfaced on a partitioned shard — from
    /// the front-end's chair it does not exist yet. Flushed through the
    /// ledger when the partition heals.
    held_feedback: BTreeMap<usize, Vec<(RequestId, String, SimTime)>>,
    /// Scheduled network-fabric faults, time-sorted, with applied flags.
    net_schedule: Vec<(NetFaultEvent, bool)>,
    routed: u64,
    rerouted: u64,
    shed: u64,
    redelivered: u64,
    /// Shards spawned by the autoscaler.
    scale_ups: u64,
    /// Shards drained and retired by the autoscaler.
    scale_downs: u64,
    /// Accumulated shard-microseconds: one quantum per non-retired shard
    /// per tick (the run's true capacity bill).
    shard_us: u64,
    /// One-shot checkpoint-media faults armed per shard, consumed by the
    /// next sealed checkpoint write on that shard.
    armed_ckpt_faults: BTreeMap<usize, CorruptionKind>,
    /// Torn staged checkpoint writes caught by the verify-back.
    ckpt_torn_caught: u64,
    /// Sealed shard checkpoints that failed verification when read back
    /// (at-rest corruption got past the write protocol).
    ckpt_rejected: u64,
}

impl Cluster {
    /// Cluster simulated time (every shard agrees — they step together).
    pub fn now(&self) -> SimTime {
        self.shards[0].mgr.now()
    }

    /// Number of shards, live or not.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one shard's manager.
    pub fn shard(&self, shard: usize) -> Result<&WorkloadManager, Error> {
        self.shards
            .get(shard)
            .map(|s| &s.mgr)
            .ok_or(Error::UnknownShard(shard))
    }

    /// Whether a shard's controller is currently up.
    pub fn shard_alive(&self, shard: usize) -> Result<bool, Error> {
        self.shards
            .get(shard)
            .map(Shard::alive)
            .ok_or(Error::UnknownShard(shard))
    }

    /// The failure detector's current verdict on `shard` (clusters built
    /// without a detector report every shard [`ShardHealth::Healthy`]).
    pub fn shard_health(&self, shard: usize) -> Result<ShardHealth, Error> {
        if shard >= self.shards.len() {
            return Err(Error::UnknownShard(shard));
        }
        Ok(self
            .detector
            .as_ref()
            .map_or(ShardHealth::Healthy, |d| d.health(shard)))
    }

    /// Requests routed by the front-end so far.
    pub fn routed(&self) -> u64 {
        self.routed
    }

    /// Requests moved off failed shards so far.
    pub fn rerouted(&self) -> u64 {
        self.rerouted
    }

    /// Requests shed at the cluster door so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Hedged re-dispatches issued so far.
    pub fn hedged(&self) -> u64 {
        self.ledger.hedged
    }

    /// Completions of already-won hedge races absorbed so far.
    pub fn duplicate_completions(&self) -> u64 {
        self.ledger.dup_completions
    }

    /// Hedged requests whose race has not been decided yet.
    pub fn open_hedge_races(&self) -> usize {
        self.ledger.races_open()
    }

    /// The shard's elastic lifecycle stage (always
    /// [`ShardStage::Active`] without [`ClusterBuilder::elastic`]).
    pub fn shard_stage(&self, shard: usize) -> Result<ShardStage, Error> {
        self.stages
            .get(shard)
            .copied()
            .ok_or(Error::UnknownShard(shard))
    }

    /// Shards the autoscaler has spawned so far.
    pub fn scale_ups(&self) -> u64 {
        self.scale_ups
    }

    /// Shards the autoscaler has drained and retired so far.
    pub fn scale_downs(&self) -> u64 {
        self.scale_downs
    }

    /// Shard-hours spent so far, in seconds (one quantum per non-retired
    /// shard per tick).
    pub fn shard_seconds(&self) -> f64 {
        self.shard_us as f64 / 1_000_000.0
    }

    /// Whether the front-end may route new arrivals to `shard`: its
    /// controller is up and its lifecycle stage takes traffic.
    fn routable(&self, shard: usize) -> bool {
        self.shards[shard].alive() && self.stages[shard].routable()
    }

    /// Shards currently taking traffic.
    fn routable_count(&self) -> usize {
        (0..self.shards.len()).filter(|&i| self.routable(i)).count()
    }

    /// Attach a subscriber to the front-end's decision-event bus
    /// ([`WlmEvent::Routed`] / [`WlmEvent::Rerouted`] /
    /// [`WlmEvent::ClusterShed`] / [`WlmEvent::LinkDropped`] /
    /// [`WlmEvent::Redelivered`] / [`WlmEvent::ShardSuspected`] /
    /// [`WlmEvent::Hedged`] / [`WlmEvent::PartitionHealed`] /
    /// [`WlmEvent::ShardSpawned`] / [`WlmEvent::ShardDraining`] /
    /// [`WlmEvent::ShardRetired`]). Per-shard pipeline events stay on
    /// each shard's own bus.
    pub fn subscribe(&mut self, sub: Box<dyn EventSubscriber>) {
        self.events.borrow_mut().subscribe(sub);
    }

    /// The aggregate monitor view the global controller decides against.
    pub fn snapshot(&self) -> ClusterSnapshot {
        ClusterSnapshot {
            at: self.now(),
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| ShardView {
                    shard: i,
                    alive: s.alive(),
                    stage: self.stages[i],
                    snapshot: s.mgr.live_snapshot().clone(),
                    inbox_depth: s.inbox.len(),
                })
                .collect(),
        }
    }

    /// Deterministic per-shard checkpoints (shard order) — the cluster's
    /// reproducibility fingerprint: same seed, same bytes.
    pub fn checkpoints(&self) -> Vec<ControllerState> {
        self.shards.iter().map(|s| s.mgr.checkpoint()).collect()
    }

    /// Sum of `workload`'s goal violations across shards.
    pub fn goal_violations_in(&self, workload: &str) -> u64 {
        self.shards
            .iter()
            .map(|s| s.mgr.goal_violations_in(workload))
            .sum()
    }

    /// Schedule a shard-controller crash at `at_secs`, lasting
    /// `dur_secs`. What happens to the shard's queued work is governed by
    /// the cluster's [`FailoverPolicy`].
    pub fn schedule_outage(
        &mut self,
        shard: usize,
        at_secs: f64,
        dur_secs: f64,
    ) -> Result<(), Error> {
        if shard >= self.shards.len() {
            return Err(Error::UnknownShard(shard));
        }
        self.outages.push(Outage {
            shard,
            at: SimTime::ZERO + SimDuration::from_secs_f64(at_secs.max(0.0)),
            duration: SimDuration::from_secs_f64(dur_secs.max(0.0)),
            triggered: false,
            saved: None,
        });
        self.outages.sort_by_key(|o| (o.at, o.shard));
        Ok(())
    }

    /// Schedule a network-fabric fault at `at_secs` of simulated time.
    /// Requires a cluster built with [`ClusterBuilder::link`]; the shard
    /// must exist. Fault windows from
    /// [`FaultPlanBuilder`](wlm_chaos::FaultPlanBuilder) schedule their
    /// own recovery; a fault scheduled directly holds until a later event
    /// reverses it.
    pub fn schedule_net_fault(&mut self, at_secs: f64, fault: NetFault) -> Result<(), Error> {
        if self.link.is_none() {
            return Err(Error::Config(
                "network faults need a link layer (ClusterBuilder::link)".into(),
            ));
        }
        let shard = fault.shard();
        if shard >= self.shards.len() {
            return Err(Error::UnknownShard(shard));
        }
        let at = SimTime::ZERO + SimDuration::from_secs_f64(at_secs.max(0.0));
        self.net_schedule.push((NetFaultEvent { at, fault }, false));
        self.net_schedule.sort_by_key(|(e, _)| e.at);
        Ok(())
    }

    /// Schedule every network fault of a chaos [`FaultPlan`] (the
    /// `FaultPlanBuilder::link_loss` / `partition` / `gray_shard`
    /// windows). Engine and control-plane events in the plan are ignored
    /// here — they target single-manager chaos runs.
    pub fn apply_net_plan(&mut self, plan: &FaultPlan) -> Result<(), Error> {
        for ev in plan.net_events() {
            self.schedule_net_fault(ev.at.as_secs_f64(), ev.fault)?;
        }
        Ok(())
    }

    /// Inject an engine-level fault into one shard (the chaos drivers'
    /// fault vocabulary applied shard-locally).
    pub fn apply_engine_fault(&mut self, shard: usize, fault: EngineFault) -> Result<(), Error> {
        self.shards
            .get_mut(shard)
            .ok_or(Error::UnknownShard(shard))?
            .mgr
            .apply_engine_fault(fault)
    }

    /// Advance the whole cluster one engine quantum: apply due faults,
    /// pump the link, hedge suspected shards, route the window's arrivals
    /// through the cluster admission gate, then step every shard one
    /// control cycle.
    pub fn tick(&mut self, source: &mut dyn Source) {
        let from = self.now();
        let to = from + self.quantum;
        self.process_outages(from);
        for shard in &mut self.shards {
            shard.routed_cost = 0.0;
        }
        self.apply_due_net_faults(from, source);
        if let Some(link) = self.link.as_mut() {
            link.heartbeat(from);
        }
        self.pump_link(from);
        self.evaluate_detector(from);
        self.autoscale_step(from);
        // The capacity bill: every non-retired shard charges one quantum
        // this tick, whether it is warming, active, draining or down.
        let billed = self
            .stages
            .iter()
            .filter(|s| !matches!(s, ShardStage::Retired))
            .count() as u64;
        self.shard_us += billed * self.quantum.as_micros();

        // Arrivals parked during a full outage get first claim on a
        // rejoined shard, ahead of this window's arrivals.
        if self.routable_count() > 0 {
            while let Some(req) = self.parked.pop_front() {
                self.admit_or_route(req);
            }
        }
        for req in source.poll(from, to) {
            self.admit_or_route(req);
        }
        // Second pump: zero-delay deliveries land in their inbox before
        // the shards step, matching the direct fabric's timing.
        self.pump_link(from);

        for (shard, stage) in self.shards.iter_mut().zip(&self.stages) {
            if shard.alive() && !matches!(stage, ShardStage::Retired) {
                // Split borrow: the manager ticks against its own inbox.
                let Shard { mgr, inbox, .. } = shard;
                mgr.tick(inbox);
            } else {
                // Down and retired shards alike advance uncontrolled so
                // every engine clock stays on the shared quantum.
                shard.mgr.tick_uncontrolled();
            }
        }

        let fed: Vec<(usize, RequestId, String, SimTime)> =
            self.feedback.borrow_mut().drain(..).collect();
        for (shard, request, label, at) in fed {
            self.process_completion(shard, request, label, at, source);
        }
    }

    /// Run for `duration` of simulated time and report.
    pub fn run(&mut self, source: &mut dyn Source, duration: SimDuration) -> ClusterReport {
        let deadline = self.now() + duration;
        while self.now() < deadline {
            self.tick(source);
        }
        self.report()
    }

    /// Build the aggregate end-of-run report at the current time.
    pub fn report(&self) -> ClusterReport {
        let shards: Vec<RunReport> = self.shards.iter().map(|s| s.mgr.report()).collect();
        let completed: u64 =
            shards.iter().map(|r| r.completed).sum::<u64>() - self.ledger.dup_completions;
        let elapsed = shards.first().map(|r| r.elapsed_secs).unwrap_or(0.0);
        ClusterReport {
            elapsed_secs: elapsed,
            completed,
            killed: shards.iter().map(|r| r.killed).sum::<u64>() - self.ledger.reclaimed,
            rejected: shards.iter().map(|r| r.rejected).sum(),
            routed: self.routed,
            rerouted: self.rerouted,
            shed: self.shed,
            hedged: self.ledger.hedged,
            duplicate_completions: self.ledger.dup_completions,
            delivered: self.link.as_ref().map_or(0, |l| l.delivered),
            link_dropped: self.link.as_ref().map_or(0, |l| l.dropped),
            redelivered: self.redelivered,
            retransmits: self.link.as_ref().map_or(0, |l| l.retransmits),
            throughput: if elapsed > 0.0 {
                completed as f64 / elapsed
            } else {
                0.0
            },
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            shard_seconds: self.shard_seconds(),
            shards,
        }
    }

    /// Whether every routable shard's queue pressure is at or above the
    /// shed threshold (no gate configured = never saturated).
    fn saturated(&self) -> bool {
        let Some(threshold) = self.shed_threshold else {
            return false;
        };
        let mut any_live = false;
        for (i, shard) in self.shards.iter().enumerate() {
            if !self.routable(i) {
                continue;
            }
            any_live = true;
            if shard.mgr.live_snapshot().queued + shard.inbox.len() < threshold {
                return false;
            }
        }
        any_live
    }

    fn emit(&self, event: WlmEvent) {
        let mut bus = self.events.borrow_mut();
        if bus.is_active() {
            bus.emit(event);
        }
    }

    /// Apply every scheduled network fault that is due at `now`.
    fn apply_due_net_faults(&mut self, now: SimTime, source: &mut dyn Source) {
        for idx in 0..self.net_schedule.len() {
            if self.net_schedule[idx].1 || self.net_schedule[idx].0.at > now {
                continue;
            }
            self.net_schedule[idx].1 = true;
            match self.net_schedule[idx].0.fault {
                NetFault::LinkLoss { shard, loss_p } => {
                    if let Some(link) = self.link.as_mut() {
                        link.set_loss(shard, if loss_p > 0.0 { Some(loss_p) } else { None });
                    }
                }
                NetFault::GrayShard {
                    shard,
                    delay_factor,
                } => {
                    if let Some(link) = self.link.as_mut() {
                        link.set_delay_factor(shard, delay_factor);
                    }
                }
                NetFault::Partition { shard, active } => {
                    if active {
                        if let Some(link) = self.link.as_mut() {
                            link.set_partitioned(shard, true);
                        }
                    } else {
                        self.heal_partition(shard, now, source);
                    }
                }
            }
        }
    }

    /// Heal a partition: reconnect the link, flush the completions that
    /// surfaced inside the partition through the ledger, and carry out
    /// the hedge-loser cancellations the ledger still owes the shard.
    fn heal_partition(&mut self, shard: usize, now: SimTime, source: &mut dyn Source) {
        let was_partitioned = self.link.as_ref().is_some_and(|l| l.is_partitioned(shard));
        if let Some(link) = self.link.as_mut() {
            link.set_partitioned(shard, false);
        }
        if !was_partitioned {
            return;
        }
        let held = self.held_feedback.remove(&shard).unwrap_or_default();
        let flushed = held.len() as u64;
        let dups_before = self.ledger.dup_completions;
        for (request, label, at) in held {
            self.process_completion(shard, request, label, at, source);
        }
        let duplicates = self.ledger.dup_completions - dups_before;
        let mut cancelled = 0u64;
        for request in self.ledger.cancels_owed(shard) {
            if self.cancel_copy(shard, request) {
                cancelled += 1;
            }
        }
        self.emit(WlmEvent::PartitionHealed {
            at: now,
            shard,
            flushed,
            duplicates,
            cancelled,
        });
    }

    /// Advance the link to `now` and absorb everything it surfaced:
    /// deliveries into shard inboxes (deduplicated by message id), acks
    /// into the ledger, round trips into the detector, and losses into
    /// events.
    fn pump_link(&mut self, now: SimTime) {
        let Some(link) = self.link.as_mut() else {
            return;
        };
        let out = link.pump(now);
        for d in &out.dropped {
            self.emit(WlmEvent::LinkDropped {
                at: now,
                request: d.request,
                workload: d.workload.clone(),
                shard: d.shard,
            });
        }
        let mut acks = Vec::with_capacity(out.deliveries.len());
        for d in out.deliveries {
            let request = d.req.id;
            let workload = d.req.spec.label.clone();
            let fresh = self.shards[d.shard].inbox.accept(d.msg, d.req);
            if !fresh {
                self.redelivered += 1;
                self.emit(WlmEvent::Redelivered {
                    at: now,
                    request,
                    workload,
                    shard: d.shard,
                });
            }
            // Ack fresh deliveries and re-ack redeliveries alike: the
            // front-end must learn the message landed either way.
            acks.push((d.msg, d.shard, d.sent_at));
        }
        if let Some(link) = self.link.as_mut() {
            for (msg, shard, sent_at) in acks {
                link.post_ack(msg, shard, sent_at, now);
            }
        }
        for (shard, req) in out.acked {
            self.ledger.acked(shard, req);
        }
        if let Some(det) = self.detector.as_mut() {
            for (shard, rtt) in out.rtt_samples {
                det.observe(shard, rtt, now);
            }
        }
        // With the acks absorbed, the link knows which message ids can
        // never be (re)delivered again — let every inbox forget them so
        // the dedup sets stay bounded by in-flight traffic.
        if let Some(link) = self.link.as_ref() {
            let floor = link.retired_before();
            for shard in &mut self.shards {
                shard.inbox.evict_seen_below(floor);
            }
        }
    }

    /// Re-classify every shard and hedge the in-flight work of newly
    /// suspected ones.
    fn evaluate_detector(&mut self, now: SimTime) {
        let Some(det) = self.detector.as_mut() else {
            return;
        };
        let transitions = det.evaluate(now);
        for (shard, health, score) in &transitions {
            self.emit(WlmEvent::ShardSuspected {
                at: now,
                shard: *shard,
                health: health.name(),
                score: *score,
            });
        }
        if !self.ledger.hedging() {
            return;
        }
        for (shard, health, _) in transitions {
            match health {
                // Gray: the shard still answers; only re-send what it has
                // not acknowledged.
                ShardHealth::Gray => self.hedge_shard(shard, now, false),
                // Dead: also re-dispatch what it accepted but never
                // finished — from here it may never finish.
                ShardHealth::Dead => self.hedge_shard(shard, now, true),
                ShardHealth::Healthy => {}
            }
        }
    }

    /// Hedge a suspected shard's in-flight work onto a healthy peer.
    fn hedge_shard(&mut self, from: usize, now: SimTime, include_accepted: bool) {
        let Some(to) = self.hedge_target(from) else {
            return;
        };
        let unacked = self
            .link
            .as_ref()
            .map(|l| l.unacked_to(from))
            .unwrap_or_default();
        for (msg, req) in unacked {
            if !self.ledger.hedged(req.id, from, to) {
                continue;
            }
            // Stop retransmitting toward the suspect; copies already in
            // flight still count — dedup and the ledger absorb whichever
            // side loses the race.
            if let Some(link) = self.link.as_mut() {
                link.abandon(msg);
            }
            self.send_hedge(req, from, to, now);
        }
        if include_accepted {
            for req in self.ledger.acked_on(from) {
                if self.ledger.hedged(req.id, from, to) {
                    self.send_hedge(req, from, to, now);
                }
            }
        }
    }

    /// Pick the hedge destination: the first trusted routable shard after
    /// the suspect, falling back to any routable shard. Never the suspect
    /// itself; `None` when it has no routable peer (a hedge to nowhere
    /// helps nobody — and a retired shard's controller is off).
    fn hedge_target(&self, from: usize) -> Option<usize> {
        let n = self.shards.len();
        let start = (from + 1) % n;
        if let Some(det) = self.detector.as_ref() {
            for probe in 0..n {
                let i = (start + probe) % n;
                if i != from && self.routable(i) && det.health(i) == ShardHealth::Healthy {
                    return Some(i);
                }
            }
        }
        (0..n)
            .map(|probe| (start + probe) % n)
            .find(|&i| i != from && self.routable(i))
    }

    /// Announce and deliver one hedged copy the ledger has booked.
    fn send_hedge(&mut self, req: Request, from: usize, to: usize, now: SimTime) {
        self.emit(WlmEvent::Hedged {
            at: now,
            request: req.id,
            workload: req.spec.label.clone(),
            from_shard: from,
            to_shard: to,
        });
        self.deliver(to, req);
    }

    /// Route one completion through the ledger: hold it if its shard is
    /// partitioned, forward the first completion of each request to the
    /// source, cancel hedge losers, absorb duplicates.
    fn process_completion(
        &mut self,
        shard: usize,
        request: RequestId,
        label: String,
        at: SimTime,
        source: &mut dyn Source,
    ) {
        if self.link.as_ref().is_some_and(|l| l.is_partitioned(shard)) {
            self.held_feedback
                .entry(shard)
                .or_default()
                .push((request, label, at));
            return;
        }
        // The choke point of exactly-once accounting: no matter which
        // path a completion arrives by (live drain, heal-time flush, a
        // hedge race), only a request's first one is forwarded.
        if let Completion::Forward { cancel } = self.ledger.completed(request, shard) {
            source.on_request_completion(request, &label, at);
            for loser in cancel {
                self.cancel_copy(loser, request);
            }
        }
    }

    /// Cancel the copy of `request` living on `shard` — on the wire, in
    /// the inbox, or inside the shard's controller
    /// ([`WorkloadManager::cancel`], which kills a running copy).
    /// Returns whether a copy was actually found and removed. A cancel
    /// cannot reach a partitioned shard: the ledger keeps owing it and
    /// [`Self::heal_partition`] comes back for it.
    fn cancel_copy(&mut self, shard: usize, request: RequestId) -> bool {
        if self.link.as_ref().is_some_and(|l| l.is_partitioned(shard)) {
            return false;
        }
        self.ledger.copy_cancelled(request, shard);
        if let Some(link) = self.link.as_mut() {
            link.cancel_request(request, shard);
        }
        if self.shards[shard].inbox.remove(request) {
            return true;
        }
        let Some(cancelled) = self.shards[shard].mgr.cancel(request) else {
            return false;
        };
        // Killing a running copy is housekeeping — the race's winner
        // already surfaced — so it is reclaimed out of the aggregate
        // `killed`.
        self.ledger.reclaimed += cancelled.killed_running as u64;
        true
    }

    /// Cluster admission then routing for one arrival.
    fn admit_or_route(&mut self, req: Request) {
        if self.saturated() {
            self.shed += 1;
            self.emit(WlmEvent::ClusterShed {
                at: self.now(),
                request: req.id,
                workload: req.spec.label.clone(),
            });
            return;
        }
        match self.route_target(&req) {
            Ok(target) => {
                self.routed += 1;
                self.ledger.routed(req.id, target);
                self.emit(WlmEvent::Routed {
                    at: self.now(),
                    request: req.id,
                    workload: req.spec.label.clone(),
                    shard: target,
                });
                self.deliver(target, req);
            }
            // No live shard: hold the arrival until one rejoins.
            Err(_) => self.parked.push_back(req),
        }
    }

    /// Charge the warm-partition model and put the request on its way to
    /// `target` — directly into the inbox, or onto the link when one is
    /// configured.
    fn deliver(&mut self, target: usize, mut req: Request) {
        let now = self.now();
        if let Some(cache) = &mut self.warm {
            cache.on_route(target, &mut req);
        }
        let est = self.routing_cost_model.estimate_spec(&req.spec);
        self.shards[target].routed_cost += est.timerons;
        match self.link.as_mut() {
            Some(link) => {
                link.send(now, target, req);
            }
            None => self.shards[target].inbox.push(req),
        }
    }

    /// Pick a live shard for the request per the routing policy. With a
    /// failure detector, shards it trusts are preferred; if none qualify,
    /// any live shard will do — suspicion degrades routing, it never
    /// deadlocks it.
    fn route_target(&mut self, req: &Request) -> Result<usize, Error> {
        if self.routable_count() == 0 {
            return Err(Error::NoLiveShards);
        }
        if let Some(det) = self.detector.as_ref() {
            let trusted: Vec<bool> = (0..self.shards.len())
                .map(|i| {
                    self.shards[i].alive()
                        && self.stages[i].routable()
                        && det.health(i) == ShardHealth::Healthy
                })
                .collect();
            if trusted.iter().any(|&t| t) {
                if let Some(target) = self.pick_target(req, &trusted) {
                    return Ok(target);
                }
            }
        }
        let routable: Vec<bool> = (0..self.shards.len()).map(|i| self.routable(i)).collect();
        self.pick_target(req, &routable).ok_or(Error::NoLiveShards)
    }

    /// The routing policy over an eligibility mask.
    fn pick_target(&mut self, req: &Request, allowed: &[bool]) -> Option<usize> {
        let n = self.shards.len();
        match self.routing {
            RoutingPolicy::RoundRobin => {
                for probe in 0..n {
                    let i = (self.rr_next + probe) % n;
                    if allowed[i] {
                        self.rr_next = (i + 1) % n;
                        return Some(i);
                    }
                }
                None
            }
            RoutingPolicy::LeastOutstandingCost => {
                let mut best: Option<(usize, f64)> = None;
                for (i, shard) in self.shards.iter().enumerate() {
                    if !allowed[i] {
                        continue;
                    }
                    let outstanding =
                        shard.mgr.live_snapshot().outstanding_cost() + shard.routed_cost;
                    // Strict `<` keeps ties on the lowest index.
                    if best.is_none_or(|(_, cost)| outstanding < cost) {
                        best = Some((i, outstanding));
                    }
                }
                best.map(|(i, _)| i)
            }
            RoutingPolicy::Affinity => {
                let home = (splitmix64(affinity_key(req)) % n as u64) as usize;
                (0..n).map(|probe| (home + probe) % n).find(|&i| allowed[i])
            }
        }
    }

    /// Trigger due outages and rejoin shards whose outage has elapsed.
    /// Arm a one-shot media fault against the next sealed checkpoint
    /// write on `shard` — the WaitForRestart freeze, the Reroute strip,
    /// or the autoscaler's retirement strip, whichever comes first.
    pub fn arm_checkpoint_fault(
        &mut self,
        shard: usize,
        kind: CorruptionKind,
    ) -> Result<(), Error> {
        if shard >= self.shards.len() {
            return Err(Error::UnknownShard(shard));
        }
        self.armed_ckpt_faults.insert(shard, kind);
        Ok(())
    }

    /// Sealed shard checkpoints that failed verification when read back.
    pub fn checkpoint_rejections(&self) -> u64 {
        self.ckpt_rejected
    }

    /// Torn staged checkpoint writes caught (and re-staged) by the
    /// write-verify step.
    pub fn checkpoint_torn_writes_caught(&self) -> u64 {
        self.ckpt_torn_caught
    }

    /// Write one sealed checkpoint image of `shard`'s controller through
    /// the simulated staged-write protocol. An armed torn write is
    /// caught by the verify-back and re-staged from memory; at-rest
    /// faults (bit flip, truncation) land after the swap and survive
    /// into the returned bytes.
    fn seal_shard_checkpoint(&mut self, shard: usize) -> Vec<u8> {
        let (state, payload) = self.shards[shard].mgr.checkpoint_bytes();
        let mut sealed = seal(&payload, 0, state.cycle);
        match self.armed_ckpt_faults.remove(&shard) {
            Some(CorruptionKind::TornWrite) => {
                corrupt_bytes(&mut sealed, CorruptionKind::TornWrite);
                if open(&sealed).is_err() {
                    sealed = seal(&payload, 0, state.cycle);
                    self.ckpt_torn_caught += 1;
                }
            }
            Some(kind) => corrupt_bytes(&mut sealed, kind),
            None => {}
        }
        sealed
    }

    /// Read a sealed shard image back. On verification failure, emit
    /// [`WlmEvent::CheckpointRejected`] and return `None` — the caller
    /// must fall back to a cold restart rather than restore garbage.
    fn open_shard_checkpoint(&mut self, bytes: &[u8]) -> Option<ControllerState> {
        match open(bytes).and_then(|(_, payload)| ControllerState::from_bytes(payload)) {
            Ok(state) => Some(state),
            Err(e) => {
                self.ckpt_rejected += 1;
                self.emit(WlmEvent::CheckpointRejected {
                    at: self.now(),
                    generation: 0,
                    reason: e.to_string(),
                });
                None
            }
        }
    }

    fn process_outages(&mut self, now: SimTime) {
        // Rejoins first: an outage scheduled for this instant on a shard
        // that just finished one sees the shard up, not down.
        for shard in &mut self.shards {
            if shard.down_until.is_some_and(|t| t <= now) {
                shard.down_until = None;
            }
        }
        for idx in 0..self.outages.len() {
            if self.outages[idx].triggered || self.outages[idx].at > now {
                continue;
            }
            self.outages[idx].triggered = true;
            let shard = self.outages[idx].shard;
            if !self.shards[shard].alive() {
                continue; // already down: overlapping outages collapse
            }
            let until = now + self.outages[idx].duration;
            match self.failover {
                FailoverPolicy::WaitForRestart => {
                    // Freeze the controller's state for the rejoin; the
                    // queued work waits out the outage in place.
                    self.outages[idx].saved = Some(self.seal_shard_checkpoint(shard));
                    self.shards[shard].down_until = Some(until);
                }
                FailoverPolicy::Reroute => self.evacuate(shard, now, Vacated::Down { until }),
            }
        }
        // WaitForRestart rejoin: restore the crash-time checkpoint. The
        // restore reconciliation re-queues whatever the engine finished or
        // lost while uncontrolled — at-least-once, never silently dropped.
        for idx in 0..self.outages.len() {
            let due = self.outages[idx].triggered
                && self.outages[idx].saved.is_some()
                && self.outages[idx].at + self.outages[idx].duration <= now;
            if due {
                let shard = self.outages[idx].shard;
                if let Some(bytes) = self.outages[idx].saved.take() {
                    match self.open_shard_checkpoint(&bytes) {
                        Some(ckpt) => {
                            self.shards[shard].mgr.restore(&ckpt);
                        }
                        None => {
                            // The frozen image is garbage: restoring it
                            // would wreck the books. The shard restarts
                            // cold — detectably, not silently. Its
                            // orphan kills are recovery housekeeping,
                            // not policy verdicts: the dead queries'
                            // requests simply never surface again.
                            let recovery = self.shards[shard].mgr.cold_restart();
                            self.ledger.reclaimed += recovery.orphans_killed as u64;
                        }
                    }
                }
            }
        }
    }

    /// Move everything `shard` holds onto the survivors and take it out
    /// of service — the one path behind a [`FailoverPolicy::Reroute`]
    /// crash and an elastic retirement. Seal the controller's checkpoint
    /// and read it back; collect the queued, deferred, running and
    /// suspended requests it lists, the inbox and the link traffic no copy
    /// of which was accepted yet (a retirement also takes the parked
    /// retries: a crashed shard rejoins and releases them itself, a
    /// retired controller never would); restore the stripped checkpoint so
    /// the reconciliation orphan-kills what the engine was still running;
    /// re-route every collected request and tell the ledger where its copy
    /// went. Each moved request runs again elsewhere, none is lost.
    ///
    /// If the sealed image fails verification the controller's contents
    /// are unrecoverable: only the work held outside the shard — inbox and
    /// undelivered link traffic — can still move, and the shard restarts
    /// cold. The rest is detectably lost (the conservation invariant the
    /// explorer checks).
    fn evacuate(&mut self, shard: usize, now: SimTime, then: Vacated) {
        let retiring = matches!(then, Vacated::Retired);
        let sealed = self.seal_shard_checkpoint(shard);
        let verified = self.open_shard_checkpoint(&sealed);
        let mut moved: Vec<Request> = Vec::new();
        if let Some(ckpt) = &verified {
            moved.extend(ckpt.wait_queue.iter().map(|m| m.request.clone()));
            moved.extend(ckpt.deferred.iter().map(|m| m.request.clone()));
            moved.extend(ckpt.running.iter().map(|rc| rc.req.request.clone()));
            moved.extend(ckpt.suspended.iter().map(|s| s.req.request.clone()));
        }
        moved.extend(self.shards[shard].inbox.drain_all());
        // Accepted messages are already covered by the checkpoint sets or
        // the inbox drain above.
        if let Some(link) = self.link.as_mut() {
            moved.extend(link.take_unaccepted(shard));
        }
        let recovery = match verified {
            Some(ckpt) => {
                let mut stripped = ControllerState {
                    wait_queue: Vec::new(),
                    deferred: Vec::new(),
                    running: Vec::new(),
                    suspended: Vec::new(),
                    ..ckpt
                };
                if retiring {
                    if let Some(res) = stripped.resilience.as_mut() {
                        moved.extend(res.retry_queue.drain(..).map(|r| r.req.request));
                    }
                }
                self.shards[shard].mgr.restore(&stripped)
            }
            None => self.shards[shard].mgr.cold_restart(),
        };
        // The orphan kills are housekeeping, not policy verdicts, so they
        // stay out of the cluster's `killed`. After a verified strip the
        // moved twins finish on the survivors; after a cold restart the
        // dead queries have no twins and their requests never surface
        // again — classing those kills as reclaims keeps that loss visible
        // to the work-conservation check instead of laundering it through
        // the kill books.
        self.ledger.reclaimed += recovery.orphans_killed as u64;
        match then {
            Vacated::Down { until } => self.shards[shard].down_until = Some(until),
            Vacated::Retired => self.stages[shard] = ShardStage::Retired,
        }

        let mut rerouted = 0usize;
        for req in moved {
            match self.route_target(&req) {
                Ok(target) => {
                    self.rerouted += 1;
                    rerouted += 1;
                    self.ledger.moved(req.id, target);
                    self.emit(WlmEvent::Rerouted {
                        at: now,
                        request: req.id,
                        workload: req.spec.label.clone(),
                        from_shard: shard,
                        to_shard: target,
                    });
                    self.deliver(target, req);
                }
                // No live shard: the request waits at the door and is
                // routed afresh on the next rejoin. A settled request's
                // leftover copy must not: the door would open a new entry
                // for it and forward its completion a second time.
                Err(_) if self.ledger.contains(req.id) => self.parked.push_back(req),
                Err(_) => {}
            }
        }
        if retiring {
            self.emit(WlmEvent::ShardRetired {
                at: now,
                shard,
                rerouted,
            });
        }
    }

    /// Advance every shard's lifecycle stage, then feed the autoscaler
    /// one pressure sample and act on its verdict. A no-op for clusters
    /// built without [`ClusterBuilder::elastic`].
    fn autoscale_step(&mut self, now: SimTime) {
        let Some(cfg) = self.elastic.as_ref().map(|a| *a.config()) else {
            return;
        };
        // Lifecycle first: spawned shards open for traffic, warmed shards
        // graduate, due drains retire.
        for i in 0..self.shards.len() {
            match self.stages[i] {
                ShardStage::Spawning => {
                    self.stages[i] = ShardStage::Warming {
                        until: now + SimDuration::from_secs_f64(cfg.warmup_secs.max(0.0)),
                    };
                }
                ShardStage::Warming { until } if until <= now => {
                    self.stages[i] = ShardStage::Active;
                }
                ShardStage::Draining { deadline }
                    // Early out the moment the shard is empty; otherwise
                    // the grace deadline force-moves the residue.
                    if (deadline <= now || self.shard_idle(i)) => {
                        self.evacuate(i, now, Vacated::Retired);
                    }
                _ => {}
            }
        }
        // The pressure signal: mean over routable shards of the max of
        // CPU utilization, disk utilization, and normalized queue depth.
        let mut sum = 0.0;
        let mut n = 0usize;
        for (i, shard) in self.shards.iter().enumerate() {
            if !self.routable(i) {
                continue;
            }
            let snap = shard.mgr.live_snapshot();
            let queue = (snap.queued + shard.inbox.len()) as f64 / cfg.queue_target.max(1.0);
            sum += snap.cpu_utilization.max(snap.io_utilization).max(queue);
            n += 1;
        }
        if n == 0 {
            // Nothing routable is failover's problem, not scaling's.
            return;
        }
        let decision = self
            .elastic
            .as_mut()
            .and_then(|a| a.observe(sum / n as f64));
        match decision {
            Some(ScaleDecision::Up) => self.spawn_shard(now),
            Some(ScaleDecision::Down) => self.drain_shard(now),
            None => {}
        }
    }

    /// Open the lowest-index retired shard: one tick of boot latency,
    /// then warming with an evicted buffer pool.
    fn spawn_shard(&mut self, now: SimTime) {
        let found = (0..self.shards.len())
            .find(|&i| matches!(self.stages[i], ShardStage::Retired) && self.shards[i].alive());
        let Some(i) = found else {
            return; // pool exhausted: the cluster is at full size
        };
        self.stages[i] = ShardStage::Spawning;
        // The spawned shard restarts cold: every partition routed to it
        // pays the full fault-in until the LRU refills — the scale-up tax
        // experiment E24 charges against the shard-hours saved.
        if let Some(cache) = self.warm.as_mut() {
            cache.evict_shard(i);
        }
        self.scale_ups += 1;
        self.emit(WlmEvent::ShardSpawned { at: now, shard: i });
    }

    /// Put the highest-index active shard into its drain: it stops
    /// receiving routes but keeps running until idle or the grace
    /// deadline. Never drains below [`ElasticConfig::min_shards`].
    fn drain_shard(&mut self, now: SimTime) {
        let Some(cfg) = self.elastic.as_ref().map(|a| *a.config()) else {
            return;
        };
        if self.routable_count() <= cfg.min_shards {
            return;
        }
        let found = (0..self.shards.len())
            .rev()
            .find(|&i| matches!(self.stages[i], ShardStage::Active) && self.shards[i].alive());
        let Some(i) = found else {
            return;
        };
        self.stages[i] = ShardStage::Draining {
            deadline: now + SimDuration::from_secs_f64(cfg.drain_grace_secs.max(0.0)),
        };
        self.scale_downs += 1;
        self.emit(WlmEvent::ShardDraining { at: now, shard: i });
    }

    /// Whether a draining shard has nothing left anywhere the front-end
    /// can see: controller queues, engine, inbox, unacked link traffic.
    /// (Optimistic about suspended queries and parked retries — both are
    /// invisible to the live snapshot — but that is safe: the retirement
    /// evacuation moves them with the checkpoint-strip either way.)
    fn shard_idle(&self, i: usize) -> bool {
        let snap = self.shards[i].mgr.live_snapshot();
        snap.queued == 0
            && snap.running == 0
            && snap.blocked == 0
            && self.shards[i].inbox.is_empty()
            && self
                .link
                .as_ref()
                .is_none_or(|l| l.unacked_to(i).is_empty())
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("shards", &self.shards.len())
            .field("routing", &self.routing)
            .field("failover", &self.failover)
            .field("link", &self.link.is_some())
            .field("now", &self.now())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlm_dbsim::engine::EngineConfig;
    use wlm_workload::generators::{BiSource, OltpSource};

    fn small_builder(_shard: usize) -> WlmBuilder {
        WlmBuilder::new()
            .engine(EngineConfig {
                cores: 2,
                disk_pages_per_sec: 20_000,
                memory_mb: 1_024,
                ..Default::default()
            })
            .cost_model(CostModel::oracle())
    }

    fn cluster(shards: usize, routing: RoutingPolicy) -> Cluster {
        ClusterBuilder::new()
            .shards(shards)
            .routing(routing)
            .shard_builder(Box::new(small_builder))
            .build()
            .expect("valid configuration")
    }

    #[test]
    fn builder_rejects_zero_shards() {
        let err = ClusterBuilder::new().shards(0).build().unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
    }

    #[test]
    fn builder_rejects_inconsistent_fabric_stack() {
        let err = ClusterBuilder::new()
            .shards(2)
            .failure_detector(DetectorConfig::default())
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
        let err = ClusterBuilder::new()
            .shards(2)
            .link(LinkConfig::default())
            .hedged_redispatch(HedgeConfig::default())
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
    }

    #[test]
    fn round_robin_spreads_and_completes_work() {
        let mut c = cluster(3, RoutingPolicy::RoundRobin);
        let mut src = OltpSource::new(60.0, 7);
        let report = c.run(&mut src, SimDuration::from_secs(5));
        assert!(report.completed > 0, "work flowed through the cluster");
        assert_eq!(report.routed, c.routed());
        for shard in &report.shards {
            assert!(
                shard.completed > 0,
                "round-robin must exercise every shard: {report:?}"
            );
        }
    }

    #[test]
    fn affinity_routing_is_a_stable_function_of_the_partition() {
        let mut c = cluster(4, RoutingPolicy::Affinity);
        // Same partition key, different requests: always the same shard.
        let mut gen = OltpSource::new(100.0, 3).with_partitions(8);
        let reqs = gen.poll(SimTime::ZERO, SimTime::ZERO + SimDuration::from_secs(1));
        assert!(!reqs.is_empty());
        let mut by_partition: std::collections::BTreeMap<u64, usize> = Default::default();
        for req in &reqs {
            let target = c.route_target(req).expect("all shards live");
            let partition = req.shard_key.expect("partitioned source");
            let prior = by_partition.entry(partition).or_insert(target);
            assert_eq!(*prior, target, "partition {partition} moved shards");
        }
        assert!(
            by_partition
                .values()
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                > 1,
            "8 partitions must spread over more than one of 4 shards"
        );
    }

    #[test]
    fn cluster_run_is_deterministic_per_seed() {
        let run = |routing| {
            let mut c = cluster(3, routing);
            let mut src = OltpSource::new(70.0, 42).with_partitions(6);
            c.run(&mut src, SimDuration::from_secs(3));
            c.checkpoints()
                .iter()
                .map(|ckpt| ckpt.to_bytes())
                .collect::<Vec<_>>()
        };
        for routing in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::LeastOutstandingCost,
            RoutingPolicy::Affinity,
        ] {
            assert_eq!(run(routing), run(routing), "{}", routing.name());
        }
    }

    #[test]
    fn perfect_link_is_byte_identical_to_direct_fabric() {
        // A default (zero-delay, zero-loss) link must not perturb the
        // simulation at all: same checkpoints, byte for byte.
        let run = |with_link: bool| {
            let mut b = ClusterBuilder::new()
                .shards(3)
                .routing(RoutingPolicy::LeastOutstandingCost)
                .shard_builder(Box::new(small_builder));
            if with_link {
                b = b.link(LinkConfig::default());
            }
            let mut c = b.build().expect("valid configuration");
            let mut src = OltpSource::new(70.0, 42).with_partitions(6);
            c.run(&mut src, SimDuration::from_secs(3));
            c.checkpoints()
                .iter()
                .map(|ckpt| ckpt.to_bytes())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn gray_shard_is_suspected_hedged_and_forgiven() {
        let mut c = ClusterBuilder::new()
            .shards(2)
            .routing(RoutingPolicy::RoundRobin)
            .shard_builder(Box::new(small_builder))
            .link(LinkConfig {
                delay_secs: 0.02,
                retransmit_secs: 5.0,
                seed: 3,
                ..LinkConfig::default()
            })
            .failure_detector(DetectorConfig {
                expected_rtt_secs: 0.05,
                gray_score: 4.0,
                recover_score: 2.0,
                dead_silence_secs: 60.0,
                ema_alpha: 0.4,
            })
            .hedged_redispatch(HedgeConfig::default())
            .build()
            .expect("valid configuration");
        // Shard 1's link turns into a straggler for t in [2, 8).
        c.schedule_net_fault(
            2.0,
            NetFault::GrayShard {
                shard: 1,
                delay_factor: 100.0,
            },
        )
        .expect("valid fault");
        c.schedule_net_fault(
            8.0,
            NetFault::GrayShard {
                shard: 1,
                delay_factor: 1.0,
            },
        )
        .expect("valid fault");
        let mut src = OltpSource::new(40.0, 5);
        let deadline = c.now() + SimDuration::from_secs(16);
        let mut saw_gray = false;
        while c.now() < deadline {
            c.tick(&mut src);
            if c.shard_health(1).expect("shard exists") == ShardHealth::Gray {
                saw_gray = true;
            }
        }
        assert!(saw_gray, "the straggler window must trip the detector");
        assert_eq!(
            c.shard_health(1).expect("shard exists"),
            ShardHealth::Healthy,
            "the verdict recovers after the window"
        );
        assert!(c.hedged() > 0, "suspicion must hedge in-flight work");
        let report = c.report();
        assert!(report.completed > 0);
        assert_eq!(report.hedged, c.hedged());
    }

    #[test]
    fn net_fault_scheduling_is_validated() {
        let mut direct = cluster(2, RoutingPolicy::RoundRobin);
        let err = direct
            .schedule_net_fault(
                1.0,
                NetFault::Partition {
                    shard: 0,
                    active: true,
                },
            )
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");

        let mut linked = ClusterBuilder::new()
            .shards(2)
            .shard_builder(Box::new(small_builder))
            .link(LinkConfig::default())
            .build()
            .expect("valid configuration");
        assert_eq!(
            linked
                .schedule_net_fault(
                    1.0,
                    NetFault::Partition {
                        shard: 7,
                        active: true
                    }
                )
                .unwrap_err(),
            Error::UnknownShard(7)
        );
        assert!(linked
            .schedule_net_fault(
                1.0,
                NetFault::LinkLoss {
                    shard: 1,
                    loss_p: 0.5
                }
            )
            .is_ok());
    }

    #[test]
    fn outage_on_unknown_shard_is_rejected() {
        let mut c = cluster(2, RoutingPolicy::RoundRobin);
        assert_eq!(
            c.schedule_outage(5, 1.0, 1.0).unwrap_err(),
            Error::UnknownShard(5)
        );
        assert!(matches!(c.shard(9), Err(Error::UnknownShard(9))));
    }

    #[test]
    fn reroute_failover_moves_queued_work_to_survivors() {
        let mut c = cluster(2, RoutingPolicy::RoundRobin);
        c.schedule_outage(0, 1.0, 2.0).expect("valid shard");
        // Enough concurrent work that the crash instant finds requests
        // in flight on shard 0 — sub-millisecond OLTP at low rates
        // leaves nothing to move.
        let mut src = OltpSource::new(4000.0, 11);
        let report = c.run(&mut src, SimDuration::from_secs(6));
        assert!(report.rerouted > 0, "crash moved work: {report:?}");
        assert!(c.shard_alive(0).unwrap(), "shard 0 rejoined");
        assert!(report.completed > 0);
    }

    #[test]
    fn shed_gate_drops_when_every_shard_is_saturated() {
        let mut c = ClusterBuilder::new()
            .shards(2)
            .shard_builder(Box::new(|_| {
                WlmBuilder::new().engine(EngineConfig {
                    cores: 1,
                    disk_pages_per_sec: 200,
                    memory_mb: 256,
                    ..Default::default()
                })
            }))
            .shed_when_all_queued_at_least(4)
            .build()
            .expect("valid configuration");
        // Far beyond two tiny shards' capacity: queues fill, the gate opens.
        let mut src = OltpSource::new(500.0, 5);
        let report = c.run(&mut src, SimDuration::from_secs(4));
        assert!(report.shed > 0, "saturation must shed: {report:?}");
    }

    #[test]
    fn elastic_validation_bounds_min_shards() {
        for bad in [0usize, 5] {
            let err = ClusterBuilder::new()
                .shards(4)
                .elastic(ElasticConfig {
                    min_shards: bad,
                    ..ElasticConfig::default()
                })
                .build()
                .unwrap_err();
            assert!(matches!(err, Error::Config(_)), "{err}");
        }
    }

    #[test]
    fn non_elastic_cluster_is_all_active() {
        let c = cluster(2, RoutingPolicy::RoundRobin);
        assert_eq!(c.shard_stage(0).unwrap(), ShardStage::Active);
        assert_eq!(c.shard_stage(1).unwrap(), ShardStage::Active);
        assert_eq!(c.shard_stage(9).unwrap_err(), Error::UnknownShard(9));
        assert_eq!(c.scale_ups(), 0);
        assert_eq!(c.scale_downs(), 0);
    }

    #[test]
    fn elastic_pool_scales_with_pressure_and_bills_fewer_shard_hours() {
        let el = ElasticConfig {
            min_shards: 1,
            sustain_ticks: 5,
            calm_ticks: 20,
            warmup_secs: 0.5,
            drain_grace_secs: 2.0,
            queue_target: 8.0,
            ..ElasticConfig::default()
        };
        let mut c = ClusterBuilder::new()
            .shards(4)
            .routing(RoutingPolicy::LeastOutstandingCost)
            .shard_builder(Box::new(small_builder))
            .elastic(el)
            .build()
            .expect("valid configuration");
        assert_eq!(c.shard_stage(0).unwrap(), ShardStage::Active);
        assert_eq!(
            c.shard_stage(3).unwrap(),
            ShardStage::Retired,
            "the pool beyond min_shards starts retired"
        );
        // A flash crowd one small shard cannot absorb: queues deepen,
        // pressure sustains, the pool opens up.
        let mut hot = BiSource::new(10.0, 9);
        c.run(&mut hot, SimDuration::from_secs(12));
        assert!(c.scale_ups() > 0, "surge must spawn shards: {c:?}");
        // Calm: the autoscaler drains back toward the floor.
        let mut quiet = OltpSource::new(0.5, 10);
        let report = c.run(&mut quiet, SimDuration::from_secs(40));
        assert!(c.scale_downs() > 0, "calm must drain shards: {report:?}");
        assert!(report.completed > 0);
        assert!(
            report.shard_seconds < 4.0 * report.elapsed_secs,
            "elasticity must bill fewer shard-hours than the static pool: {report:?}"
        );
        assert!(
            report.shard_seconds >= report.elapsed_secs,
            "the min_shards floor is always billed: {report:?}"
        );
        assert_eq!(report.scale_ups, c.scale_ups());
        assert_eq!(report.scale_downs, c.scale_downs());
    }

    #[test]
    fn elastic_run_is_deterministic_per_seed() {
        let run = || {
            let mut c = ClusterBuilder::new()
                .shards(3)
                .routing(RoutingPolicy::LeastOutstandingCost)
                .shard_builder(Box::new(small_builder))
                .elastic(ElasticConfig {
                    min_shards: 1,
                    sustain_ticks: 5,
                    calm_ticks: 20,
                    queue_target: 8.0,
                    ..ElasticConfig::default()
                })
                .build()
                .expect("valid configuration");
            let mut src = OltpSource::new(150.0, 21).with_partitions(6);
            c.run(&mut src, SimDuration::from_secs(8));
            (
                c.scale_ups(),
                c.scale_downs(),
                c.checkpoints()
                    .iter()
                    .map(|ckpt| ckpt.to_bytes())
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run(), "the scaling schedule is seed-deterministic");
    }

    #[test]
    fn cluster_snapshot_reflects_shard_state() {
        let mut c = cluster(2, RoutingPolicy::LeastOutstandingCost);
        let mut src = OltpSource::new(50.0, 9);
        c.run(&mut src, SimDuration::from_secs(1));
        let snap = c.snapshot();
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.live_shards(), 2);
        assert_eq!(snap.at, c.now());
    }

    #[test]
    fn armed_bitflip_forces_a_cold_rejoin_after_wait_for_restart() {
        let mut c = ClusterBuilder::new()
            .shards(2)
            .routing(RoutingPolicy::RoundRobin)
            .failover(FailoverPolicy::WaitForRestart)
            .shard_builder(Box::new(small_builder))
            .build()
            .expect("valid configuration");
        c.schedule_outage(0, 1.0, 2.0).expect("valid shard");
        c.arm_checkpoint_fault(0, CorruptionKind::BitFlip)
            .expect("valid shard");
        let trace = wlm_core::events::RingRecorder::new(1 << 16);
        c.subscribe(Box::new(trace.clone()));
        let mut src = OltpSource::new(2_000.0, 11);
        let report = c.run(&mut src, SimDuration::from_secs(6));
        assert_eq!(
            c.checkpoint_rejections(),
            1,
            "the bit-flipped rejoin image must fail verification"
        );
        assert!(
            trace
                .events()
                .iter()
                .any(|e| e.kind() == "checkpoint_rejected"),
            "the rejection must be visible on the event bus"
        );
        assert!(c.shard_alive(0).unwrap(), "shard 0 rejoined, cold");
        assert!(report.completed > 0, "survivors kept serving: {report:?}");
    }

    #[test]
    fn armed_torn_write_is_caught_by_the_verify_back() {
        let mut c = ClusterBuilder::new()
            .shards(2)
            .routing(RoutingPolicy::RoundRobin)
            .failover(FailoverPolicy::WaitForRestart)
            .shard_builder(Box::new(small_builder))
            .build()
            .expect("valid configuration");
        c.schedule_outage(0, 1.0, 2.0).expect("valid shard");
        c.arm_checkpoint_fault(0, CorruptionKind::TornWrite)
            .expect("valid shard");
        let mut src = OltpSource::new(2_000.0, 11);
        let report = c.run(&mut src, SimDuration::from_secs(6));
        assert_eq!(
            c.checkpoint_torn_writes_caught(),
            1,
            "the staged-write verify must catch the torn copy"
        );
        assert_eq!(
            c.checkpoint_rejections(),
            0,
            "a caught torn write never reaches the read path"
        );
        assert!(report.completed > 0);
    }

    #[test]
    fn reclaimed_orphan_kills_stay_out_of_killed_on_both_evacuation_outcomes() {
        // The seam PR 7 closed: the orphan kills of an evacuation are
        // housekeeping whether the strip image verified (the moved twins
        // finish elsewhere) or not (cold restart; the work is lost, and
        // must show as lost rather than as policy kills).
        for corrupt in [false, true] {
            let mut c = cluster(2, RoutingPolicy::RoundRobin);
            c.schedule_outage(0, 1.0, 2.0).expect("valid shard");
            if corrupt {
                c.arm_checkpoint_fault(0, CorruptionKind::BitFlip)
                    .expect("valid shard");
            }
            let mut src = OltpSource::new(4_000.0, 11);
            let report = c.run(&mut src, SimDuration::from_secs(6));
            assert_eq!(c.checkpoint_rejections(), u64::from(corrupt));
            let raw_kills: u64 = report.shards.iter().map(|r| r.killed).sum();
            assert!(raw_kills > 0, "the crash instant must find work running");
            assert_eq!(c.ledger.reclaimed, raw_kills);
            assert_eq!(
                report.killed, 0,
                "no execution controller is configured, so nothing was killed by policy"
            );
        }
    }

    /// Counts the requests issued and the completions the front-end
    /// forwards, and stops arrivals at `cutoff` so the tail of a run
    /// drains.
    struct CountingSource {
        inner: OltpSource,
        cutoff: SimTime,
        issued: u64,
        forwarded: u64,
    }

    impl CountingSource {
        fn new(inner: OltpSource, cutoff_secs: u64) -> Self {
            CountingSource {
                inner,
                cutoff: SimTime::ZERO + SimDuration::from_secs(cutoff_secs),
                issued: 0,
                forwarded: 0,
            }
        }
    }

    impl Source for CountingSource {
        fn poll(&mut self, from: SimTime, to: SimTime) -> Vec<Request> {
            if from >= self.cutoff {
                return Vec::new();
            }
            let arrivals = self.inner.poll(from, to.min(self.cutoff));
            self.issued += arrivals.len() as u64;
            arrivals
        }

        fn on_request_completion(&mut self, _request: RequestId, _label: &str, _at: SimTime) {
            self.forwarded += 1;
        }

        fn label(&self) -> &str {
            self.inner.label()
        }
    }

    #[test]
    fn ledger_stays_flat_across_100k_requests_through_a_lossy_hedging_fabric() {
        let mut c = ClusterBuilder::new()
            .shards(3)
            .routing(RoutingPolicy::RoundRobin)
            .shard_builder(Box::new(small_builder))
            .link(LinkConfig {
                delay_secs: 0.02,
                jitter_secs: 0.01,
                loss_p: 0.05,
                dup_p: 0.05,
                retransmit_secs: 0.3,
                seed: 0xfab,
            })
            .failure_detector(DetectorConfig {
                expected_rtt_secs: 0.05,
                gray_score: 4.0,
                recover_score: 2.0,
                dead_silence_secs: 1.0,
                ema_alpha: 0.4,
            })
            .hedged_redispatch(HedgeConfig::default())
            .build()
            .expect("valid configuration");
        // Two straggler windows (hedge what is unacked) and a partition
        // long enough for a dead verdict (hedge what was acked too; the
        // losers' cancels stay owed until the heal).
        for (at, shard) in [(5.0, 1), (25.0, 0)] {
            for (at, delay_factor) in [(at, 100.0), (at + 3.0, 1.0)] {
                c.schedule_net_fault(
                    at,
                    NetFault::GrayShard {
                        shard,
                        delay_factor,
                    },
                )
                .expect("valid fault");
            }
        }
        for (at, active) in [(15.0, true), (18.0, false)] {
            c.schedule_net_fault(at, NetFault::Partition { shard: 2, active })
                .expect("valid fault");
        }
        let mut src = CountingSource::new(OltpSource::new(2_600.0, 5), 40);
        let (mut peak, mut owed_seen) = (0, false);
        let deadline = c.now() + SimDuration::from_secs(50);
        while c.now() < deadline {
            c.tick(&mut src);
            // Exactly the requests in flight, plus the won races whose
            // loser sits behind the partition — never the run's history.
            let owed = c.ledger.cancels_owed(2).len();
            assert_eq!(
                c.ledger.len() as u64,
                c.routed() - src.forwarded + owed as u64,
                "at {:?}",
                c.now()
            );
            peak = peak.max(c.ledger.len());
            owed_seen |= owed > 0;
        }
        assert!(c.routed() >= 100_000, "routed {}", c.routed());
        assert!(c.hedged() > 100 && c.duplicate_completions() > 0 && owed_seen);
        assert!(
            peak < 5_000,
            "peak {peak} entries for {} requests",
            c.routed()
        );
        assert_eq!(src.forwarded, c.routed(), "every request completed once");
        assert_eq!(c.ledger.len(), 0, "nothing outlives its request");
    }

    /// Four shards behind a lossy link with the default detector and
    /// hedging on.
    fn hedging_cluster(seed: u64) -> Cluster {
        ClusterBuilder::new()
            .shards(4)
            .routing(RoutingPolicy::RoundRobin)
            .shard_builder(Box::new(small_builder))
            .link(LinkConfig {
                delay_secs: 0.01,
                jitter_secs: 0.005,
                loss_p: 0.02,
                dup_p: 0.01,
                retransmit_secs: 0.3,
                seed,
            })
            .failure_detector(DetectorConfig::default())
            .hedged_redispatch(HedgeConfig::default())
            .build()
            .expect("valid configuration")
    }

    #[test]
    fn hedge_loser_cancels_take_no_checkpoint_and_restore_nothing() {
        // Every bus built while the ring is installed feeds it: the
        // front-end's and all four shards'.
        let trace = wlm_core::events::install_thread_trace(1 << 20);
        let mut c = hedging_cluster(0xca);
        wlm_core::events::clear_thread_trace();
        for (at, delay_factor) in [(2.0, 40.0), (4.0, 1.0)] {
            c.schedule_net_fault(
                at,
                NetFault::GrayShard {
                    shard: 1,
                    delay_factor,
                },
            )
            .expect("valid fault");
        }
        let mut src = CountingSource::new(OltpSource::new(1_500.0, 9), 6);
        c.run(&mut src, SimDuration::from_secs(8));
        assert_eq!(trace.dropped(), 0, "the ring must hold the whole run");
        let events = trace.events();
        let count = |pick: fn(&WlmEvent) -> bool| events.iter().filter(|e| pick(e)).count() as u64;
        let cancel_kills = count(|e| matches!(e, WlmEvent::Killed { by: "cancel", .. }));
        assert!(c.hedged() > 100, "hedged {}", c.hedged());
        assert!(c.duplicate_completions() > 0);
        assert!(cancel_kills > 0, "a losing copy must be caught running");
        assert_eq!(
            c.ledger.reclaimed, cancel_kills,
            "nothing but cancels reclaims work in a run without outages"
        );
        // A cancel is not a recovery: no shard took a checkpoint and no
        // controller was restored, however many losers were cancelled.
        assert_eq!(count(|e| matches!(e, WlmEvent::CheckpointTaken { .. })), 0);
        assert_eq!(
            count(|e| matches!(e, WlmEvent::ControllerRestored { .. })),
            0
        );
        assert_eq!(src.forwarded, src.issued, "every request completed once");
    }

    #[test]
    fn two_second_partition_heals_and_accounts_for_every_request() {
        // Benchmark finding 2: silence as long as the default dead verdict
        // piles up a thousand unacknowledged requests, every one is hedged
        // at the verdict, and every hedge ends in a cancel — most of them
        // for a copy that never left the wire, which used to cost a whole
        // controller checkpoint each just to find nothing.
        for seed in [3, 17, 20_261_002] {
            let mut c = hedging_cluster(seed);
            for (at, active) in [(2.0, true), (4.0, false)] {
                c.schedule_net_fault(at, NetFault::Partition { shard: 2, active })
                    .expect("valid fault");
            }
            let mut src = CountingSource::new(OltpSource::new(2_000.0, seed), 6);
            let report = c.run(&mut src, SimDuration::from_secs(10));
            assert!(report.hedged > 500, "seed {seed}: hedged {}", report.hedged);
            assert_eq!(c.open_hedge_races(), 0, "seed {seed}");
            assert_eq!(c.ledger.len(), 0, "seed {seed}: every cancel carried out");
            assert_eq!(
                report.completed + report.killed + report.rejected + report.shed,
                src.issued,
                "seed {seed}: {report:?}"
            );
            assert_eq!(src.forwarded, src.issued, "seed {seed}");
        }
    }

    #[test]
    fn corrupted_reroute_strip_loses_queued_work_detectably() {
        let run = |corrupt: bool| {
            let mut c = cluster(2, RoutingPolicy::RoundRobin);
            c.schedule_outage(0, 1.0, 2.0).expect("valid shard");
            if corrupt {
                c.arm_checkpoint_fault(0, CorruptionKind::BitFlip)
                    .expect("valid shard");
            }
            let mut src = OltpSource::new(4_000.0, 11);
            let report = c.run(&mut src, SimDuration::from_secs(6));
            (report.rerouted, c.checkpoint_rejections())
        };
        let (clean_rerouted, clean_rejected) = run(false);
        let (bad_rerouted, bad_rejected) = run(true);
        assert_eq!(clean_rejected, 0);
        assert_eq!(bad_rejected, 1, "the strip image must fail verification");
        assert!(
            clean_rerouted > 0,
            "the crash instant must find work in flight"
        );
        assert!(
            bad_rerouted < clean_rerouted,
            "an unreadable strip image can only move work held outside the \
             controller ({bad_rerouted} rerouted vs {clean_rerouted} clean)"
        );
    }
}
