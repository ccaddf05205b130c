//! Typed decision telemetry for the control cycle.
//!
//! Every stage of the [`WorkloadManager`](crate::manager::WorkloadManager)
//! pipeline emits a [`WlmEvent`] describing *what it decided and why* —
//! the workload-management literature's event monitors (DB2 activity event
//! monitors, SQL Server performance counters, Teradata's exception log)
//! are all consumers of exactly this stream. Subscribers implement
//! [`EventSubscriber`] and attach with
//! [`WorkloadManager::subscribe`](crate::manager::WorkloadManager::subscribe);
//! external emitters (facility emulations, the MAPE loop) publish through a
//! clonable [`EventSink`].
//!
//! Two ready-made subscribers are provided: [`RingRecorder`], a bounded
//! ring buffer keeping the most recent events (the `--trace` surface of
//! the experiment harness), and [`WorkloadEventCounters`], per-workload
//! decision counts.
//!
//! Emission is free when nobody listens: the manager checks
//! [`EventBus::is_active`] once per cycle and skips event construction
//! entirely on the hot path when the bus has no subscribers.
//!
//! # Variants and their emitting stages
//!
//! | variant | emitting stage |
//! |---------|----------------|
//! | [`WlmEvent::Classified`] | identify |
//! | [`WlmEvent::Admitted`] | admit |
//! | [`WlmEvent::Deferred`] | admit |
//! | [`WlmEvent::Rejected`] | admit (admission controllers; degradation-ladder shedding) |
//! | [`WlmEvent::Scheduled`] | schedule |
//! | [`WlmEvent::Throttled`] | exec-control |
//! | [`WlmEvent::Reprioritized`] | exec-control |
//! | [`WlmEvent::Suspended`] | exec-control |
//! | [`WlmEvent::Resumed`] | monitor (suspended-query reinstatement) |
//! | [`WlmEvent::Killed`] | exec-control |
//! | [`WlmEvent::Resubmitted`] | exec-control (kill-with-resubmit); admit (retry release) |
//! | [`WlmEvent::Completed`] | monitor |
//! | [`WlmEvent::PolicyChanged`] | external (`set_policy` at run time) |
//! | [`WlmEvent::MapePlan`] | external (MAPE loop, via [`EventSink`]) |
//! | [`WlmEvent::FaultInjected`] | external (fault driver, via `apply_engine_fault`) |
//! | [`WlmEvent::RetryScheduled`] | exec-control (resilience layer) |
//! | [`WlmEvent::RetryExhausted`] | exec-control (resilience layer) |
//! | [`WlmEvent::BreakerTransition`] | exec-control (resilience layer) |
//! | [`WlmEvent::LadderStep`] | exec-control (resilience layer) |
//! | [`WlmEvent::CheckpointTaken`] | external (chaos driver / harness, via `checkpoint`) |
//! | [`WlmEvent::ControllerRestored`] | external (crash recovery, via `restore` / `cold_restart`) |
//! | [`WlmEvent::CheckpointRejected`] | external (checkpoint store: envelope failed verification) |
//! | [`WlmEvent::CheckpointFallback`] | external (checkpoint store: recovery walked back a generation) |
//! | [`WlmEvent::Quarantined`] | exec-control (runaway watchdog, at the kill site) |
//! | [`WlmEvent::QuarantineRejected`] | admit (quarantine gate; retry-release drop) |
//! | [`WlmEvent::Routed`] | external (cluster front-end routing, via its own bus) |
//! | [`WlmEvent::Rerouted`] | external (cluster front-end failover, via its own bus) |
//! | [`WlmEvent::ClusterShed`] | external (cluster front-end admission, via its own bus) |
//! | [`WlmEvent::LinkDropped`] | external (cluster link layer: a message lost in flight) |
//! | [`WlmEvent::Redelivered`] | external (cluster link layer: shard-side duplicate suppression) |
//! | [`WlmEvent::ShardSuspected`] | external (cluster failure detector, via its own bus) |
//! | [`WlmEvent::Hedged`] | external (cluster hedged re-dispatch, via its own bus) |
//! | [`WlmEvent::PartitionHealed`] | external (cluster partition-heal reconciliation) |
//! | [`WlmEvent::BackpressureStep`] | admit (adaptive backpressure gate adjustment) |
//! | [`WlmEvent::RetrySuppressed`] | admit (retry-budget bucket held matured retries) |
//! | [`WlmEvent::ShardSpawned`] | external (cluster autoscaler: shard provisioned, caches cold) |
//! | [`WlmEvent::ShardDraining`] | external (cluster autoscaler: shard stopped admitting) |
//! | [`WlmEvent::ShardRetired`] | external (cluster autoscaler: drain complete, residue rerouted) |

use serde::Serialize;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use wlm_dbsim::engine::{EngineEvent, QueryId};
use wlm_dbsim::time::SimTime;
use wlm_workload::request::RequestId;

/// Why admission control let a request into the wait queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum AdmitReason {
    /// Admitted on first arrival.
    Fresh,
    /// Re-admitted after being held at the admission gate.
    AfterDeferral,
}

/// A decision event from the control cycle. Every variant carries the
/// simulated time `at` which it was emitted; within one run the stream is
/// monotonically non-decreasing in `at`.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[serde(tag = "event", rename_all = "snake_case")]
pub enum WlmEvent {
    /// Identification mapped an arriving request to a workload.
    Classified {
        /// Emission time.
        at: SimTime,
        /// The classified request.
        request: RequestId,
        /// The workload it was assigned to.
        workload: String,
    },
    /// Admission control let a request into the scheduler wait queue.
    Admitted {
        /// Emission time.
        at: SimTime,
        /// The admitted request.
        request: RequestId,
        /// The request's workload.
        workload: String,
        /// Why it was admitted now.
        reason: AdmitReason,
        /// Pieces the request was restructured into (1 = not restructured).
        pieces: usize,
    },
    /// Admission control held the request at the gate for a later cycle.
    Deferred {
        /// Emission time.
        at: SimTime,
        /// The deferred request.
        request: RequestId,
        /// The request's workload.
        workload: String,
    },
    /// Admission control turned the request away.
    Rejected {
        /// Emission time.
        at: SimTime,
        /// The rejected request.
        request: RequestId,
        /// The request's workload.
        workload: String,
        /// The controller's stated reason.
        reason: String,
    },
    /// The scheduler released a request to the engine.
    Scheduled {
        /// Emission time.
        at: SimTime,
        /// The released request.
        request: RequestId,
        /// The request's workload.
        workload: String,
        /// The engine query id it now runs under.
        query: QueryId,
    },
    /// Execution control changed a query's duty-cycle throttle
    /// (`fraction` 1.0 = full pause, 0.0 = full speed).
    Throttled {
        /// Emission time.
        at: SimTime,
        /// The throttled query.
        query: QueryId,
        /// The query's workload.
        workload: String,
        /// Sleep fraction applied.
        fraction: f64,
        /// Technique that issued the action.
        by: &'static str,
    },
    /// Execution control changed a query's fair-share weight.
    Reprioritized {
        /// Emission time.
        at: SimTime,
        /// The reprioritized query.
        query: QueryId,
        /// The query's workload.
        workload: String,
        /// New weight.
        weight: f64,
        /// Technique that issued the action.
        by: &'static str,
    },
    /// Execution control suspended a query to disk.
    Suspended {
        /// Emission time.
        at: SimTime,
        /// The suspended query.
        query: QueryId,
        /// The query's workload.
        workload: String,
        /// Suspend + resume overhead charged, µs.
        overhead_us: u64,
        /// Technique that issued the action.
        by: &'static str,
    },
    /// A suspended query re-entered the engine.
    Resumed {
        /// Emission time.
        at: SimTime,
        /// The new engine id of the resumed query.
        query: QueryId,
        /// The query's workload.
        workload: String,
    },
    /// Execution control cancelled a query.
    Killed {
        /// Emission time.
        at: SimTime,
        /// The cancelled query.
        query: QueryId,
        /// The query's workload.
        workload: String,
        /// Technique that issued the kill; `"crash-recovery"` for an
        /// orphan reclaimed by a restore and `"cancel"` for the running
        /// copy of a withdrawn request, neither of which is a policy
        /// verdict.
        by: &'static str,
        /// Whether the request returns to the wait queue.
        resubmit: bool,
    },
    /// A killed request was re-queued for another attempt.
    Resubmitted {
        /// Emission time.
        at: SimTime,
        /// The re-queued request.
        request: RequestId,
        /// The request's workload.
        workload: String,
    },
    /// A request ran to completion.
    Completed {
        /// Emission time.
        at: SimTime,
        /// The completing engine query.
        query: QueryId,
        /// The completed request.
        request: RequestId,
        /// The request's workload.
        workload: String,
        /// Response time (arrival to completion), seconds.
        response_secs: f64,
    },
    /// A workload policy was installed or replaced at run time.
    PolicyChanged {
        /// Emission time.
        at: SimTime,
        /// The workload whose policy changed.
        workload: String,
    },
    /// The autonomic MAPE loop planned a control decision.
    MapePlan {
        /// Emission time.
        at: SimTime,
        /// The planned decision.
        decision: &'static str,
        /// The loop's escalation level after planning.
        escalation: u32,
    },
    /// An infrastructure fault (or its recovery) was injected into the
    /// engine through the manager.
    FaultInjected {
        /// Emission time.
        at: SimTime,
        /// Fault family tag (e.g. `"disk_degrade"`, `"lock_storm"`).
        kind: &'static str,
        /// Human-readable fault parameters.
        detail: String,
    },
    /// The resilience layer scheduled a failed query for another attempt
    /// after a backoff delay.
    RetryScheduled {
        /// Emission time.
        at: SimTime,
        /// The request being retried.
        request: RequestId,
        /// The request's workload.
        workload: String,
        /// Attempt number this retry will be (first run = attempt 0).
        attempt: u32,
        /// Backoff delay before the request re-enters the wait queue, µs.
        delay_us: u64,
    },
    /// A failed query had no retry budget left and was dropped for good.
    RetryExhausted {
        /// Emission time.
        at: SimTime,
        /// The dropped request.
        request: RequestId,
        /// The request's workload.
        workload: String,
        /// Retry attempts consumed before giving up.
        attempts: u32,
    },
    /// A per-workload circuit breaker changed state.
    BreakerTransition {
        /// Emission time.
        at: SimTime,
        /// The workload whose breaker moved.
        workload: String,
        /// State before (`"closed"`, `"open"` or `"half_open"`).
        from: &'static str,
        /// State after.
        to: &'static str,
    },
    /// The degradation ladder stepped up (shedding more) or down
    /// (restoring service).
    LadderStep {
        /// Emission time.
        at: SimTime,
        /// Ladder level before the step.
        from_level: u8,
        /// Ladder level after the step (0 = normal service, 3 = maximum
        /// degradation).
        to_level: u8,
    },
    /// A controller checkpoint was written.
    CheckpointTaken {
        /// Emission time.
        at: SimTime,
        /// Control cycle the checkpoint captures.
        cycle: u64,
        /// Size of the serialized checkpoint, bytes.
        bytes: usize,
    },
    /// A restarted controller finished reconciling a checkpoint (or an
    /// empty cold-restart state) against the live engine.
    ControllerRestored {
        /// Emission time.
        at: SimTime,
        /// Control cycle the restored checkpoint was taken at.
        from_cycle: u64,
        /// Running queries re-adopted from the checkpoint.
        readopted: usize,
        /// Checkpointed requests re-queued because their engine query
        /// vanished in the crash.
        requeued: usize,
        /// Live engine queries killed because no checkpoint entry owned
        /// them.
        orphans_killed: usize,
    },
    /// A stored checkpoint generation failed envelope verification
    /// (checksum mismatch, truncation, or a torn staged write) and was
    /// rejected rather than restored.
    CheckpointRejected {
        /// Emission time.
        at: SimTime,
        /// Generation number of the rejected envelope.
        generation: u64,
        /// Why verification failed.
        reason: String,
    },
    /// Recovery walked back the generation chain: the newest checkpoint
    /// was unusable, and an older verified generation was restored
    /// instead.
    CheckpointFallback {
        /// Emission time.
        at: SimTime,
        /// Newest (rejected) generation.
        from_generation: u64,
        /// Generation actually restored.
        to_generation: u64,
        /// Generations rejected before a verified one was found.
        rejected: usize,
    },
    /// The runaway watchdog moved a request into the poison quarantine.
    Quarantined {
        /// Emission time.
        at: SimTime,
        /// The quarantined request.
        request: RequestId,
        /// The request's workload.
        workload: String,
        /// Kill strikes accumulated when the threshold tripped.
        kills: u32,
    },
    /// A quarantined request tried to re-enter and was turned away.
    QuarantineRejected {
        /// Emission time.
        at: SimTime,
        /// The rejected request.
        request: RequestId,
        /// The request's workload.
        workload: String,
    },
    /// The cluster front-end routed an arriving request to a shard.
    Routed {
        /// Emission time.
        at: SimTime,
        /// The routed request.
        request: RequestId,
        /// The request's workload label.
        workload: String,
        /// The shard the request was sent to.
        shard: usize,
    },
    /// The cluster front-end moved queued work off a failed shard onto a
    /// survivor.
    Rerouted {
        /// Emission time.
        at: SimTime,
        /// The re-routed request.
        request: RequestId,
        /// The request's workload label.
        workload: String,
        /// The shard the request was originally routed to.
        from_shard: usize,
        /// The surviving shard that took the request over.
        to_shard: usize,
    },
    /// The cluster front-end shed an arriving request because every live
    /// shard reported saturation.
    ClusterShed {
        /// Emission time.
        at: SimTime,
        /// The shed request.
        request: RequestId,
        /// The request's workload label.
        workload: String,
    },
    /// The simulated link lost a routed message in flight (loss, or a
    /// partition swallowing it); the front-end's retransmit timer will
    /// re-send it.
    LinkDropped {
        /// Emission time.
        at: SimTime,
        /// The request the lost message carried.
        request: RequestId,
        /// The request's workload label.
        workload: String,
        /// The shard the message was addressed to.
        shard: usize,
    },
    /// A shard inbox received a message it had already accepted (a
    /// retransmit racing a lost ack, or link-level duplication) and
    /// suppressed the copy by its `MsgId`.
    Redelivered {
        /// Emission time.
        at: SimTime,
        /// The request the duplicate message carried.
        request: RequestId,
        /// The request's workload label.
        workload: String,
        /// The shard that deduplicated the redelivery.
        shard: usize,
    },
    /// The failure detector changed its verdict on a shard (healthy ↔
    /// gray ↔ dead) from heartbeat and ack latency evidence.
    ShardSuspected {
        /// Emission time.
        at: SimTime,
        /// The shard whose health classification changed.
        shard: usize,
        /// The new verdict (`"healthy"`, `"gray"` or `"dead"`).
        health: &'static str,
        /// The suspicion score at the transition (smoothed RTT over the
        /// expected RTT; higher = more suspect).
        score: f64,
    },
    /// The front-end re-dispatched an in-flight request from a suspected
    /// shard to a healthy one (first completion wins; the loser is
    /// cancelled through the orphan-kill path).
    Hedged {
        /// Emission time.
        at: SimTime,
        /// The hedged request.
        request: RequestId,
        /// The request's workload label.
        workload: String,
        /// The suspected shard the original copy was addressed to.
        from_shard: usize,
        /// The healthy shard the hedge copy was sent to.
        to_shard: usize,
    },
    /// A partition window around a shard ended and the front-end
    /// reconciled: buffered completion feedback flushed, duplicate
    /// completions discounted, stale hedged twins cancelled.
    PartitionHealed {
        /// Emission time.
        at: SimTime,
        /// The shard whose partition healed.
        shard: usize,
        /// Completion feedback entries flushed at the heal.
        flushed: u64,
        /// Flushed completions discounted as duplicates of hedge winners.
        duplicates: u64,
        /// Hedged twins cancelled because their winner completed in the
        /// partition.
        cancelled: u64,
    },
    /// The adaptive admission backpressure gate changed its door setting.
    BackpressureStep {
        /// Emission time.
        at: SimTime,
        /// Admit fraction before the adjustment.
        from_fraction: f64,
        /// Admit fraction after the adjustment.
        to_fraction: f64,
        /// The smoothed queue-depth signal that drove the adjustment.
        queue_ema: f64,
    },
    /// The retry-budget token bucket held matured retries back this cycle
    /// (retry-storm suppression).
    RetrySuppressed {
        /// Emission time.
        at: SimTime,
        /// Matured retries held parked for lack of tokens.
        held: usize,
    },
    /// The cluster autoscaler provisioned a shard out of the retired pool;
    /// its caches start cold (every partition routed to it pays the
    /// cold-working-set penalty until re-warmed).
    ShardSpawned {
        /// Emission time.
        at: SimTime,
        /// The shard entering service.
        shard: usize,
    },
    /// The cluster autoscaler took a shard out of the routable set; it
    /// finishes its residue before retiring.
    ShardDraining {
        /// Emission time.
        at: SimTime,
        /// The shard being drained.
        shard: usize,
    },
    /// A draining shard retired: any residue left at the drain deadline
    /// was checkpoint-stripped and rerouted through the exactly-once
    /// finished book.
    ShardRetired {
        /// Emission time.
        at: SimTime,
        /// The shard that retired.
        shard: usize,
        /// Requests rerouted to surviving shards at retirement.
        rerouted: usize,
    },
}

impl WlmEvent {
    /// The event's emission time.
    pub fn at(&self) -> SimTime {
        match self {
            WlmEvent::Classified { at, .. }
            | WlmEvent::Admitted { at, .. }
            | WlmEvent::Deferred { at, .. }
            | WlmEvent::Rejected { at, .. }
            | WlmEvent::Scheduled { at, .. }
            | WlmEvent::Throttled { at, .. }
            | WlmEvent::Reprioritized { at, .. }
            | WlmEvent::Suspended { at, .. }
            | WlmEvent::Resumed { at, .. }
            | WlmEvent::Killed { at, .. }
            | WlmEvent::Resubmitted { at, .. }
            | WlmEvent::Completed { at, .. }
            | WlmEvent::PolicyChanged { at, .. }
            | WlmEvent::MapePlan { at, .. }
            | WlmEvent::FaultInjected { at, .. }
            | WlmEvent::RetryScheduled { at, .. }
            | WlmEvent::RetryExhausted { at, .. }
            | WlmEvent::BreakerTransition { at, .. }
            | WlmEvent::LadderStep { at, .. }
            | WlmEvent::CheckpointTaken { at, .. }
            | WlmEvent::ControllerRestored { at, .. }
            | WlmEvent::CheckpointRejected { at, .. }
            | WlmEvent::CheckpointFallback { at, .. }
            | WlmEvent::Quarantined { at, .. }
            | WlmEvent::QuarantineRejected { at, .. }
            | WlmEvent::Routed { at, .. }
            | WlmEvent::Rerouted { at, .. }
            | WlmEvent::ClusterShed { at, .. }
            | WlmEvent::LinkDropped { at, .. }
            | WlmEvent::Redelivered { at, .. }
            | WlmEvent::ShardSuspected { at, .. }
            | WlmEvent::Hedged { at, .. }
            | WlmEvent::PartitionHealed { at, .. }
            | WlmEvent::BackpressureStep { at, .. }
            | WlmEvent::RetrySuppressed { at, .. }
            | WlmEvent::ShardSpawned { at, .. }
            | WlmEvent::ShardDraining { at, .. }
            | WlmEvent::ShardRetired { at, .. } => *at,
        }
    }

    /// The workload the event concerns, if any ([`WlmEvent::MapePlan`],
    /// [`WlmEvent::FaultInjected`] and [`WlmEvent::LadderStep`] are
    /// system-wide).
    pub fn workload(&self) -> Option<&str> {
        match self {
            WlmEvent::Classified { workload, .. }
            | WlmEvent::Admitted { workload, .. }
            | WlmEvent::Deferred { workload, .. }
            | WlmEvent::Rejected { workload, .. }
            | WlmEvent::Scheduled { workload, .. }
            | WlmEvent::Throttled { workload, .. }
            | WlmEvent::Reprioritized { workload, .. }
            | WlmEvent::Suspended { workload, .. }
            | WlmEvent::Resumed { workload, .. }
            | WlmEvent::Killed { workload, .. }
            | WlmEvent::Resubmitted { workload, .. }
            | WlmEvent::Completed { workload, .. }
            | WlmEvent::PolicyChanged { workload, .. }
            | WlmEvent::RetryScheduled { workload, .. }
            | WlmEvent::RetryExhausted { workload, .. }
            | WlmEvent::BreakerTransition { workload, .. }
            | WlmEvent::Quarantined { workload, .. }
            | WlmEvent::QuarantineRejected { workload, .. }
            | WlmEvent::Routed { workload, .. }
            | WlmEvent::Rerouted { workload, .. }
            | WlmEvent::ClusterShed { workload, .. }
            | WlmEvent::LinkDropped { workload, .. }
            | WlmEvent::Redelivered { workload, .. }
            | WlmEvent::Hedged { workload, .. } => Some(workload),
            WlmEvent::MapePlan { .. }
            | WlmEvent::FaultInjected { .. }
            | WlmEvent::LadderStep { .. }
            | WlmEvent::CheckpointTaken { .. }
            | WlmEvent::ControllerRestored { .. }
            | WlmEvent::CheckpointRejected { .. }
            | WlmEvent::CheckpointFallback { .. }
            | WlmEvent::ShardSuspected { .. }
            | WlmEvent::PartitionHealed { .. }
            | WlmEvent::BackpressureStep { .. }
            | WlmEvent::RetrySuppressed { .. }
            | WlmEvent::ShardSpawned { .. }
            | WlmEvent::ShardDraining { .. }
            | WlmEvent::ShardRetired { .. } => None,
        }
    }

    /// Short name of the variant (the `event` tag of the JSON encoding).
    pub fn kind(&self) -> &'static str {
        match self {
            WlmEvent::Classified { .. } => "classified",
            WlmEvent::Admitted { .. } => "admitted",
            WlmEvent::Deferred { .. } => "deferred",
            WlmEvent::Rejected { .. } => "rejected",
            WlmEvent::Scheduled { .. } => "scheduled",
            WlmEvent::Throttled { .. } => "throttled",
            WlmEvent::Reprioritized { .. } => "reprioritized",
            WlmEvent::Suspended { .. } => "suspended",
            WlmEvent::Resumed { .. } => "resumed",
            WlmEvent::Killed { .. } => "killed",
            WlmEvent::Resubmitted { .. } => "resubmitted",
            WlmEvent::Completed { .. } => "completed",
            WlmEvent::PolicyChanged { .. } => "policy_changed",
            WlmEvent::MapePlan { .. } => "mape_plan",
            WlmEvent::FaultInjected { .. } => "fault_injected",
            WlmEvent::RetryScheduled { .. } => "retry_scheduled",
            WlmEvent::RetryExhausted { .. } => "retry_exhausted",
            WlmEvent::BreakerTransition { .. } => "breaker_transition",
            WlmEvent::LadderStep { .. } => "ladder_step",
            WlmEvent::CheckpointTaken { .. } => "checkpoint_taken",
            WlmEvent::ControllerRestored { .. } => "controller_restored",
            WlmEvent::CheckpointRejected { .. } => "checkpoint_rejected",
            WlmEvent::CheckpointFallback { .. } => "checkpoint_fallback",
            WlmEvent::Quarantined { .. } => "quarantined",
            WlmEvent::QuarantineRejected { .. } => "quarantine_rejected",
            WlmEvent::Routed { .. } => "routed",
            WlmEvent::Rerouted { .. } => "rerouted",
            WlmEvent::ClusterShed { .. } => "cluster_shed",
            WlmEvent::LinkDropped { .. } => "link_dropped",
            WlmEvent::Redelivered { .. } => "redelivered",
            WlmEvent::ShardSuspected { .. } => "shard_suspected",
            WlmEvent::Hedged { .. } => "hedged",
            WlmEvent::PartitionHealed { .. } => "partition_healed",
            WlmEvent::BackpressureStep { .. } => "backpressure_step",
            WlmEvent::RetrySuppressed { .. } => "retry_suppressed",
            WlmEvent::ShardSpawned { .. } => "shard_spawned",
            WlmEvent::ShardDraining { .. } => "shard_draining",
            WlmEvent::ShardRetired { .. } => "shard_retired",
        }
    }
}

/// A consumer of the event stream.
///
/// `on_event` must not emit back into the bus it is subscribed to (the bus
/// is borrowed for the duration of the delivery).
pub trait EventSubscriber {
    /// A manager-level decision event.
    fn on_event(&mut self, event: &WlmEvent);

    /// A low-level engine lifecycle event (default: ignore).
    fn on_engine_event(&mut self, _event: &EngineEvent) {}
}

/// The manager's event bus: a list of subscribers plus an emission count.
#[derive(Default)]
pub struct EventBus {
    subscribers: Vec<Box<dyn EventSubscriber>>,
    emitted: u64,
}

impl EventBus {
    /// A bus pre-subscribed to the thread-local trace ring, if
    /// [`install_thread_trace`] installed one on this thread. External
    /// control planes with their own decision stream (the cluster
    /// front-end in `wlm-cluster`) build their bus through this so the
    /// experiment harness's `--trace` surface sees their events too.
    pub fn with_thread_trace() -> EventBus {
        let mut bus = EventBus::default();
        if let Some(recorder) = thread_trace_recorder() {
            bus.subscribe(Box::new(recorder));
        }
        bus
    }

    /// Attach a subscriber.
    pub fn subscribe(&mut self, sub: Box<dyn EventSubscriber>) {
        self.subscribers.push(sub);
    }

    /// Whether anyone is listening. The manager checks this once per cycle
    /// and skips event construction when false.
    pub fn is_active(&self) -> bool {
        !self.subscribers.is_empty()
    }

    /// Total decision events emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Deliver a decision event to every subscriber.
    pub fn emit(&mut self, event: WlmEvent) {
        self.emitted += 1;
        for sub in &mut self.subscribers {
            sub.on_event(&event);
        }
    }

    /// Deliver an engine event to every subscriber.
    pub fn emit_engine(&mut self, event: &EngineEvent) {
        for sub in &mut self.subscribers {
            sub.on_engine_event(event);
        }
    }
}

/// A clonable handle for publishing events onto a manager's bus from
/// outside the manager (facility emulations, the MAPE loop). Obtain one
/// with [`WorkloadManager::event_sink`](crate::manager::WorkloadManager::event_sink).
#[derive(Clone)]
pub struct EventSink {
    bus: Rc<RefCell<EventBus>>,
}

impl EventSink {
    pub(crate) fn new(bus: Rc<RefCell<EventBus>>) -> Self {
        EventSink { bus }
    }

    /// Whether the bus has subscribers (emission is pointless otherwise).
    pub fn is_active(&self) -> bool {
        self.bus.borrow().is_active()
    }

    /// Publish an event.
    pub fn emit(&self, event: WlmEvent) {
        self.bus.borrow_mut().emit(event);
    }
}

impl std::fmt::Debug for EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSink").finish_non_exhaustive()
    }
}

#[derive(Debug)]
struct RingState {
    buf: VecDeque<WlmEvent>,
    capacity: usize,
    dropped: u64,
    /// Record only events of this [`WlmEvent::kind`].
    only: Option<&'static str>,
}

/// A bounded ring-buffer recorder: keeps the most recent `capacity`
/// decision events. Clones share the same buffer, so keep one clone as the
/// reader and subscribe another:
///
/// ```
/// use wlm_core::api::WlmBuilder;
/// use wlm_core::events::RingRecorder;
///
/// let mut mgr = WlmBuilder::new().build().expect("valid configuration");
/// let trace = RingRecorder::new(1024);
/// mgr.subscribe(Box::new(trace.clone()));
/// // ... run ...
/// assert!(trace.events().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct RingRecorder {
    state: Rc<RefCell<RingState>>,
}

impl RingRecorder {
    /// A recorder holding up to `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            state: Rc::new(RefCell::new(RingState {
                buf: VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
                only: None,
            })),
        }
    }

    /// A recorder that keeps only events of one [`WlmEvent::kind`] — e.g.
    /// `"completed"`, for a consumer that wants individual completions
    /// (the manager's own books keep histograms, not samples).
    pub fn of_kind(kind: &'static str, capacity: usize) -> Self {
        let recorder = Self::new(capacity);
        recorder.state.borrow_mut().only = Some(kind);
        recorder
    }

    /// A copy of the recorded events, oldest first.
    pub fn events(&self) -> Vec<WlmEvent> {
        self.state.borrow().buf.iter().cloned().collect()
    }

    /// Drain the recorded events, oldest first, leaving the ring empty.
    pub fn take(&self) -> Vec<WlmEvent> {
        self.state.borrow_mut().buf.drain(..).collect()
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.state.borrow().buf.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.state.borrow().buf.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.state.borrow().dropped
    }
}

impl EventSubscriber for RingRecorder {
    fn on_event(&mut self, event: &WlmEvent) {
        let mut state = self.state.borrow_mut();
        if state.only.is_some_and(|kind| kind != event.kind()) {
            return;
        }
        if state.buf.len() == state.capacity {
            state.buf.pop_front();
            state.dropped += 1;
        }
        state.buf.push_back(event.clone());
    }
}

/// Per-workload decision counts maintained from the event stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct EventCounts {
    /// `Classified` events.
    pub classified: u64,
    /// `Admitted` events.
    pub admitted: u64,
    /// `Deferred` events.
    pub deferred: u64,
    /// `Rejected` events.
    pub rejected: u64,
    /// `Scheduled` events.
    pub scheduled: u64,
    /// `Throttled` events.
    pub throttled: u64,
    /// `Reprioritized` events.
    pub reprioritized: u64,
    /// `Suspended` events.
    pub suspended: u64,
    /// `Resumed` events.
    pub resumed: u64,
    /// `Killed` events.
    pub killed: u64,
    /// `Resubmitted` events.
    pub resubmitted: u64,
    /// `Completed` events.
    pub completed: u64,
    /// `RetryScheduled` events.
    pub retries_scheduled: u64,
    /// `RetryExhausted` events.
    pub retries_exhausted: u64,
    /// `BreakerTransition` events.
    pub breaker_transitions: u64,
    /// `Quarantined` events.
    pub quarantined: u64,
    /// `QuarantineRejected` events.
    pub quarantine_rejections: u64,
    /// `Routed` events (cluster front-end).
    pub routed: u64,
    /// `Rerouted` events (cluster front-end).
    pub rerouted: u64,
    /// `ClusterShed` events (cluster front-end).
    pub cluster_shed: u64,
    /// `LinkDropped` events (cluster link layer).
    pub link_dropped: u64,
    /// `Redelivered` events (cluster link layer).
    pub redelivered: u64,
    /// `Hedged` events (cluster hedged re-dispatch).
    pub hedged: u64,
}

/// A subscriber maintaining [`EventCounts`] per workload. Clones share the
/// same counters (subscribe one clone, read from another).
#[derive(Debug, Clone, Default)]
pub struct WorkloadEventCounters {
    counts: Rc<RefCell<BTreeMap<String, EventCounts>>>,
}

impl WorkloadEventCounters {
    /// Fresh, empty counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts for one workload (zeros if never seen).
    pub fn get(&self, workload: &str) -> EventCounts {
        self.counts
            .borrow()
            .get(workload)
            .copied()
            .unwrap_or_default()
    }

    /// All per-workload counts.
    pub fn all(&self) -> BTreeMap<String, EventCounts> {
        self.counts.borrow().clone()
    }
}

impl EventSubscriber for WorkloadEventCounters {
    fn on_event(&mut self, event: &WlmEvent) {
        let Some(workload) = event.workload() else {
            return;
        };
        let mut counts = self.counts.borrow_mut();
        let c = counts.entry(workload.to_string()).or_default();
        match event {
            WlmEvent::Classified { .. } => c.classified += 1,
            WlmEvent::Admitted { .. } => c.admitted += 1,
            WlmEvent::Deferred { .. } => c.deferred += 1,
            WlmEvent::Rejected { .. } => c.rejected += 1,
            WlmEvent::Scheduled { .. } => c.scheduled += 1,
            WlmEvent::Throttled { .. } => c.throttled += 1,
            WlmEvent::Reprioritized { .. } => c.reprioritized += 1,
            WlmEvent::Suspended { .. } => c.suspended += 1,
            WlmEvent::Resumed { .. } => c.resumed += 1,
            WlmEvent::Killed { .. } => c.killed += 1,
            WlmEvent::Resubmitted { .. } => c.resubmitted += 1,
            WlmEvent::Completed { .. } => c.completed += 1,
            WlmEvent::RetryScheduled { .. } => c.retries_scheduled += 1,
            WlmEvent::RetryExhausted { .. } => c.retries_exhausted += 1,
            WlmEvent::BreakerTransition { .. } => c.breaker_transitions += 1,
            WlmEvent::Quarantined { .. } => c.quarantined += 1,
            WlmEvent::QuarantineRejected { .. } => c.quarantine_rejections += 1,
            WlmEvent::Routed { .. } => c.routed += 1,
            WlmEvent::Rerouted { .. } => c.rerouted += 1,
            WlmEvent::ClusterShed { .. } => c.cluster_shed += 1,
            WlmEvent::LinkDropped { .. } => c.link_dropped += 1,
            WlmEvent::Redelivered { .. } => c.redelivered += 1,
            WlmEvent::Hedged { .. } => c.hedged += 1,
            WlmEvent::PolicyChanged { .. }
            | WlmEvent::MapePlan { .. }
            | WlmEvent::FaultInjected { .. }
            | WlmEvent::LadderStep { .. }
            | WlmEvent::CheckpointTaken { .. }
            | WlmEvent::ControllerRestored { .. }
            | WlmEvent::CheckpointRejected { .. }
            | WlmEvent::CheckpointFallback { .. }
            | WlmEvent::ShardSuspected { .. }
            | WlmEvent::PartitionHealed { .. }
            | WlmEvent::BackpressureStep { .. }
            | WlmEvent::RetrySuppressed { .. }
            | WlmEvent::ShardSpawned { .. }
            | WlmEvent::ShardDraining { .. }
            | WlmEvent::ShardRetired { .. } => {}
        }
    }
}

/// A bus-fed monitor keeping a bounded window of recent response times per
/// workload, built from `Completed` events — the MAPE monitor phase
/// consuming the bus instead of polling manager internals. Clones share
/// state.
#[derive(Debug, Clone)]
pub struct ResponseWindowMonitor {
    state: Rc<RefCell<BTreeMap<String, VecDeque<f64>>>>,
    window: usize,
}

impl ResponseWindowMonitor {
    /// A monitor keeping up to `window` samples per workload (at least 1).
    pub fn new(window: usize) -> Self {
        ResponseWindowMonitor {
            state: Rc::new(RefCell::new(BTreeMap::new())),
            window: window.max(1),
        }
    }

    /// Mean of the recent window for `workload`, if any samples exist.
    pub fn recent_mean(&self, workload: &str) -> Option<f64> {
        self.state
            .borrow()
            .get(workload)
            .filter(|v| !v.is_empty())
            .map(|v| v.iter().sum::<f64>() / v.len() as f64)
    }
}

impl EventSubscriber for ResponseWindowMonitor {
    fn on_event(&mut self, event: &WlmEvent) {
        if let WlmEvent::Completed {
            workload,
            response_secs,
            ..
        } = event
        {
            let mut state = self.state.borrow_mut();
            let window = state.entry(workload.clone()).or_default();
            window.push_back(*response_secs);
            while window.len() > self.window {
                window.pop_front();
            }
        }
    }
}

thread_local! {
    static THREAD_TRACE: RefCell<Option<RingRecorder>> = const { RefCell::new(None) };
}

/// Install a thread-local trace ring of the given capacity: every
/// [`WorkloadManager`](crate::manager::WorkloadManager) constructed on this
/// thread afterwards automatically subscribes a recorder feeding the
/// returned ring. The parallel experiment runner uses this to collect
/// traces from managers built deep inside experiment functions.
pub fn install_thread_trace(capacity: usize) -> RingRecorder {
    let recorder = RingRecorder::new(capacity);
    THREAD_TRACE.with(|t| *t.borrow_mut() = Some(recorder.clone()));
    recorder
}

/// Remove the thread-local trace ring, if one is installed.
pub fn clear_thread_trace() {
    THREAD_TRACE.with(|t| *t.borrow_mut() = None);
}

/// The recorder managers on this thread should auto-subscribe, if any.
pub(crate) fn thread_trace_recorder() -> Option<RingRecorder> {
    THREAD_TRACE.with(|t| t.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed(at: u64, workload: &str, response_secs: f64) -> WlmEvent {
        WlmEvent::Completed {
            at: SimTime(at),
            query: QueryId(1),
            request: RequestId(1),
            workload: workload.to_string(),
            response_secs,
        }
    }

    #[test]
    fn bus_counts_and_delivers() {
        let mut bus = EventBus::default();
        assert!(!bus.is_active());
        let ring = RingRecorder::new(8);
        bus.subscribe(Box::new(ring.clone()));
        assert!(bus.is_active());
        bus.emit(completed(1, "oltp", 0.5));
        assert_eq!(bus.emitted(), 1);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.events()[0].kind(), "completed");
    }

    #[test]
    fn ring_evicts_oldest_when_full() {
        let mut ring = RingRecorder::new(2);
        for i in 1..=3u64 {
            ring.on_event(&completed(i, "oltp", 0.1));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 1);
        let events = ring.take();
        assert_eq!(events[0].at(), SimTime(2));
        assert_eq!(events[1].at(), SimTime(3));
        assert!(ring.is_empty());
    }

    #[test]
    fn ring_of_one_kind_ignores_the_rest() {
        let mut ring = RingRecorder::of_kind("completed", 8);
        ring.on_event(&completed(1, "oltp", 0.1));
        ring.on_event(&WlmEvent::MapePlan {
            at: SimTime(2),
            decision: "steady",
            escalation: 0,
        });
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.events()[0].kind(), "completed");
    }

    #[test]
    fn counters_track_per_workload() {
        let mut counters = WorkloadEventCounters::new();
        counters.on_event(&completed(1, "oltp", 0.1));
        counters.on_event(&completed(2, "oltp", 0.2));
        counters.on_event(&completed(3, "bi", 9.0));
        counters.on_event(&WlmEvent::MapePlan {
            at: SimTime(4),
            decision: "steady",
            escalation: 0,
        });
        assert_eq!(counters.get("oltp").completed, 2);
        assert_eq!(counters.get("bi").completed, 1);
        assert_eq!(counters.all().len(), 2);
    }

    #[test]
    fn response_window_is_bounded() {
        let mut monitor = ResponseWindowMonitor::new(2);
        assert_eq!(monitor.recent_mean("oltp"), None);
        monitor.on_event(&completed(1, "oltp", 1.0));
        monitor.on_event(&completed(2, "oltp", 2.0));
        monitor.on_event(&completed(3, "oltp", 4.0));
        assert_eq!(monitor.recent_mean("oltp"), Some(3.0));
    }

    #[test]
    fn events_serialize_with_tag() {
        let json = serde_json::to_string(&completed(7, "oltp", 0.25)).unwrap();
        assert!(json.contains("\"event\":\"completed\""), "{json}");
        assert!(json.contains("\"workload\":\"oltp\""), "{json}");
    }
}
