//! Controller checkpoint/restore: the crash-tolerant control plane.
//!
//! The [`WorkloadManager`] is the single point of failure the rest of the
//! stack cannot tolerate losing: its queues, budgets, breaker episodes and
//! suspend tokens exist nowhere else. [`ControllerState`] is a complete,
//! versioned, serializable image of that state — everything a restarted
//! controller needs, and nothing the engine already knows.
//!
//! # Checkpoint format
//!
//! A checkpoint is the JSON encoding of [`ControllerState`] (see
//! [`ControllerState::to_bytes`]). All collections are ordered
//! (`BTreeMap`/`Vec` in insertion or key order), so the encoding is
//! **deterministic**: the same seed reaching the same cycle produces
//! byte-identical checkpoints. The leading `version` field gates
//! compatibility — [`ControllerState::from_bytes`] rejects any other
//! version rather than misinterpreting the bytes.
//!
//! Every field is bounded by the controller's live work or by a constant.
//! Since version 2 that includes the reporting state: the per-workload
//! books hold a response-time histogram instead of every sample, and the
//! query log weighted templates instead of every request (version 1
//! carried both in full, so an image grew with the requests ever served).
//!
//! "Aging clocks" survive because every queued [`ManagedRequest`] carries
//! its absolute arrival time and every parked retry its absolute due time;
//! after a restore, queueing delay and backoff age keep accruing from the
//! original instants rather than restarting from zero.
//!
//! # Recovery protocol
//!
//! [`WorkloadManager::restore`] reconciles a checkpoint against the live
//! engine (the data plane survives a controller crash):
//!
//! 1. every checkpointed running query whose engine query is still live is
//!    **re-adopted** (meta, throttle, restart count and chain reattached);
//! 2. every checkpointed running query the engine no longer knows is
//!    **re-queued** for another attempt — at-least-once semantics: work
//!    that completed between checkpoint and crash runs again rather than
//!    being silently lost (quarantined requests are dropped instead);
//! 3. every live engine query no checkpoint entry owns is an **orphan**
//!    (admitted after the checkpoint, its request state died with the
//!    controller) and is killed;
//! 4. queues, books, windows, counters and the resilience layer's runtime
//!    state are re-filled from the checkpoint; configuration (policies,
//!    schedulers, resilience tuning) is *not* checkpointed — the restarted
//!    controller is constructed with the same configuration and the
//!    checkpoint only re-fills runtime state.
//!
//! [`WorkloadManager::cold_restart`] is the ablation baseline: restoring
//! from an *empty* checkpoint, which kills every live query as an orphan
//! and forgets every queue — what a controller without checkpoints must do.
//!
//! # Cancellation is not recovery
//!
//! [`WorkloadManager::cancel`] lives here because it is *defined* by the
//! protocol above — it leaves the controller as restoring a checkpoint
//! with one request struck out would — but it takes no checkpoint and
//! restores nothing: its cost is the controller's live work, not its
//! history. The tests below hold the two to the same bytes.

use super::{RunningMeta, WorkloadManager};
use crate::api::ManagedRequest;
use crate::error::Error;
use crate::events::WlmEvent;
use crate::resilience::ResilienceCheckpoint;
use crate::stats::StatsBook;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use wlm_dbsim::engine::QueryId;
use wlm_dbsim::plan::QuerySpec;
use wlm_dbsim::suspend::SuspendedQuery;
use wlm_dbsim::time::SimTime;
use wlm_workload::request::RequestId;
use wlm_workload::trace::QueryLog;

/// Checkpoint format version accepted by [`ControllerState::from_bytes`].
pub const CHECKPOINT_VERSION: u32 = 2;

/// One running query as captured in a checkpoint: the engine id it runs
/// under plus the controller-side meta the engine does not hold.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunningCheckpoint {
    /// Engine query id.
    pub query: QueryId,
    /// The managed request.
    pub req: ManagedRequest,
    /// Duty-cycle throttle last applied.
    pub throttle: f64,
    /// Restart count so far.
    pub restarts: u32,
    /// Remaining pieces of a restructured query.
    pub chain: Vec<QuerySpec>,
    /// Suspend/resume overhead accumulated so far, µs.
    pub suspend_overhead_us: u64,
}

/// One suspended query as captured in a checkpoint (suspend/resume
/// banking: the resume token plus the overhead already paid).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuspendedCheckpoint {
    /// The engine resume token (checkpointed operator state).
    pub token: SuspendedQuery,
    /// The managed request.
    pub req: ManagedRequest,
    /// Restart count so far.
    pub restarts: u32,
    /// Suspend/resume overhead accumulated so far, µs.
    pub overhead_us: u64,
}

/// A complete, versioned image of the controller's runtime state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ControllerState {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Simulated time the checkpoint was taken.
    pub at: SimTime,
    /// Control cycle the checkpoint was taken at (provenance; the
    /// restored controller's own cycle counter is *not* rewound).
    pub cycle: u64,
    /// The scheduler wait queue, in queue order.
    pub wait_queue: Vec<ManagedRequest>,
    /// Requests held at the admission gate, in gate order.
    pub deferred: Vec<ManagedRequest>,
    /// The running set with its controller-side meta.
    pub running: Vec<RunningCheckpoint>,
    /// Suspended queries awaiting resumption, oldest first.
    pub suspended: Vec<SuspendedCheckpoint>,
    /// Per-workload books (MPL/budget counters live here; response times
    /// as fixed-size histograms).
    pub stats: StatsBook,
    /// Recent response windows per workload.
    pub recent: BTreeMap<String, VecDeque<f64>>,
    /// The DBQL-style query log, as weighted templates.
    pub query_log: QueryLog,
    /// Total completions so far.
    pub completed: u64,
    /// Total kills (not resubmitted) so far.
    pub killed: u64,
    /// Total rejections so far.
    pub rejected: u64,
    /// Total suspend+resume overhead paid, µs.
    pub suspend_overhead_us: u64,
    /// Goal violations per workload.
    pub goal_violations: BTreeMap<String, u64>,
    /// Remaining pieces of restructured queries, keyed by request id.
    pub pending_chains: Vec<(RequestId, Vec<QuerySpec>)>,
    /// Restart counts of re-queued requests.
    pub restart_counts: Vec<(RequestId, u32)>,
    /// The resilience layer's runtime state, when the layer is enabled.
    pub resilience: Option<ResilienceCheckpoint>,
}

impl ControllerState {
    /// Serialize to the canonical deterministic byte encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_vec(self)
            .expect("ControllerState contains no non-serializable values by construction")
    }

    /// Parse and version-check a checkpoint produced by
    /// [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<ControllerState, Error> {
        let state: ControllerState = serde_json::from_slice(bytes)
            .map_err(|e| Error::Checkpoint(format!("malformed checkpoint: {e}")))?;
        if state.version != CHECKPOINT_VERSION {
            return Err(Error::Checkpoint(format!(
                "unsupported checkpoint version {} (this controller reads version {})",
                state.version, CHECKPOINT_VERSION
            )));
        }
        Ok(state)
    }
}

/// What [`WorkloadManager::restore`] did to reconcile checkpoint and
/// engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RecoveryReport {
    /// Cycle the restored checkpoint was taken at.
    pub from_cycle: u64,
    /// Running queries re-adopted (checkpointed and still live).
    pub readopted: usize,
    /// Checkpointed running queries re-queued (engine no longer ran them).
    pub requeued: usize,
    /// Live engine queries killed as orphans (no checkpoint entry).
    pub orphans_killed: usize,
    /// Suspended queries restored with their resume tokens.
    pub suspended_restored: usize,
    /// Would-be re-queues dropped because the request was quarantined.
    pub quarantine_dropped: usize,
}

/// What [`WorkloadManager::cancel`] removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CancelOutcome {
    /// Copies taken out of the wait queue, the admission gate and the
    /// suspended set.
    pub dequeued: usize,
    /// Running copies whose engine query was killed.
    pub killed_running: usize,
}

impl WorkloadManager {
    /// Control cycles executed so far (monotonic; a [`Self::restore`] does
    /// not rewind it — it tracks the engine's quantum count, which
    /// survives controller crashes).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Engine completions that finished while no controller was listening
    /// (during [`Self::tick_uncontrolled`] windows) and were therefore
    /// never accounted.
    pub fn completions_unobserved(&self) -> u64 {
        self.completions_unobserved
    }

    /// Capture the controller's complete runtime state. Emits
    /// [`WlmEvent::CheckpointTaken`] when the bus has subscribers — the
    /// record's `bytes` is the only reason this ever serializes; a caller
    /// that needs the encoding anyway should take
    /// [`Self::checkpoint_bytes`].
    pub fn checkpoint(&self) -> ControllerState {
        if self.events.borrow().is_active() {
            self.checkpoint_bytes().0
        } else {
            self.capture()
        }
    }

    /// [`Self::checkpoint`] together with its canonical encoding,
    /// serialized once: the same bytes size the
    /// [`WlmEvent::CheckpointTaken`] record and go to the caller's store.
    pub fn checkpoint_bytes(&self) -> (ControllerState, Vec<u8>) {
        let state = self.capture();
        let bytes = state.to_bytes();
        if self.events.borrow().is_active() {
            self.emit(WlmEvent::CheckpointTaken {
                at: state.at,
                cycle: state.cycle,
                bytes: bytes.len(),
            });
        }
        (state, bytes)
    }

    fn capture(&self) -> ControllerState {
        ControllerState {
            version: CHECKPOINT_VERSION,
            at: self.engine.now(),
            cycle: self.cycle,
            wait_queue: self.wait_queue.clone(),
            deferred: self.deferred.iter().cloned().collect(),
            running: self
                .running
                .iter()
                .map(|(id, meta)| RunningCheckpoint {
                    query: *id,
                    req: meta.req.clone(),
                    throttle: meta.throttle,
                    restarts: meta.restarts,
                    chain: meta.chain.iter().cloned().collect(),
                    suspend_overhead_us: meta.suspend_overhead_us,
                })
                .collect(),
            suspended: self
                .suspended
                .iter()
                .map(|(sq, req, restarts, overhead_us)| SuspendedCheckpoint {
                    token: sq.clone(),
                    req: req.clone(),
                    restarts: *restarts,
                    overhead_us: *overhead_us,
                })
                .collect(),
            stats: self.stats.clone(),
            recent: self.recent.clone(),
            query_log: self.query_log.clone(),
            completed: self.completed,
            killed: self.killed,
            rejected: self.rejected,
            suspend_overhead_us: self.suspend_overhead_us,
            goal_violations: self.goal_violations.clone(),
            pending_chains: self
                .pending_chains
                .iter()
                .map(|(id, chain)| (*id, chain.clone()))
                .collect(),
            restart_counts: self
                .restart_counts
                .iter()
                .map(|(id, n)| (*id, *n))
                .collect(),
            resilience: self.resilience.as_ref().map(|l| l.checkpoint()),
        }
    }

    /// Restart the control plane from a checkpoint, reconciling it against
    /// the live engine (see the module docs for the protocol). The
    /// engine, configuration and event bus are untouched; only controller
    /// runtime state is replaced. Emits [`WlmEvent::ControllerRestored`].
    pub fn restore(&mut self, ckpt: &ControllerState) -> RecoveryReport {
        let trace = self.events.borrow().is_active();
        // Load the checkpointed control plane wholesale...
        self.wait_queue = ckpt.wait_queue.clone();
        self.deferred = ckpt.deferred.iter().cloned().collect();
        self.suspended = ckpt
            .suspended
            .iter()
            .map(|s| (s.token.clone(), s.req.clone(), s.restarts, s.overhead_us))
            .collect();
        self.stats = ckpt.stats.clone();
        self.recent = ckpt.recent.clone();
        self.query_log = ckpt.query_log.clone();
        self.completed = ckpt.completed;
        self.killed = ckpt.killed;
        self.rejected = ckpt.rejected;
        self.suspend_overhead_us = ckpt.suspend_overhead_us;
        self.goal_violations = ckpt.goal_violations.clone();
        self.pending_chains = ckpt.pending_chains.iter().cloned().collect();
        self.restart_counts = ckpt.restart_counts.iter().cloned().collect();
        match (self.resilience.as_mut(), ckpt.resilience.as_ref()) {
            (Some(layer), Some(rc)) => layer.restore(rc),
            // A checkpoint without resilience state (cold restart) resets
            // the layer to its just-constructed state.
            (Some(layer), None) => layer.restore(&ResilienceCheckpoint::default()),
            (None, _) => {}
        }

        // ...then reconcile the running set against the live engine.
        let overview = self.engine.live_overview();
        let live: BTreeSet<QueryId> = overview.iter().map(|info| info.id).collect();
        let mut report = RecoveryReport {
            from_cycle: ckpt.cycle,
            suspended_restored: ckpt.suspended.len(),
            ..RecoveryReport::default()
        };
        self.running = BTreeMap::new();
        for rc in &ckpt.running {
            if live.contains(&rc.query) {
                // Still running: re-adopt with its meta intact.
                self.running.insert(
                    rc.query,
                    RunningMeta {
                        req: rc.req.clone(),
                        throttle: rc.throttle,
                        restarts: rc.restarts,
                        chain: rc.chain.iter().cloned().collect(),
                        suspend_overhead_us: rc.suspend_overhead_us,
                    },
                );
                report.readopted += 1;
            } else if self
                .resilience
                .as_ref()
                .is_some_and(|l| l.is_quarantined(rc.req.request.id))
            {
                // Poison: its outcome was lost with the crash, but its
                // history was not — do not give it another lap.
                report.quarantine_dropped += 1;
            } else {
                // The engine finished or lost it between checkpoint and
                // crash; the controller cannot tell which. Re-queue for
                // another attempt (at-least-once work conservation).
                self.restart_counts.insert(rc.req.request.id, rc.restarts);
                if !rc.chain.is_empty() {
                    self.pending_chains
                        .insert(rc.req.request.id, rc.chain.clone());
                }
                self.wait_queue.push(rc.req.clone());
                report.requeued += 1;
            }
        }
        for info in &overview {
            if self.running.contains_key(&info.id) {
                continue;
            }
            // Orphan: live in the engine but owned by no checkpoint entry.
            // Its request state died with the controller, so nobody could
            // ever account its completion — reclaim the resources.
            if self.kill_unowned(info.id, "crash-recovery") {
                report.orphans_killed += 1;
            }
        }

        self.live_snap = self.snapshot();
        if trace {
            self.emit(WlmEvent::ControllerRestored {
                at: self.engine.now(),
                from_cycle: report.from_cycle,
                readopted: report.readopted,
                requeued: report.requeued,
                orphans_killed: report.orphans_killed,
            });
        }
        report
    }

    /// Kill an engine query whose controller-side meta is gone (an orphan
    /// found by [`Self::restore`], or the running copy of a request being
    /// [`Self::cancel`]led). Nobody is left to account a completion, so
    /// the kill is booked under the engine's own label for the query (a
    /// restructured piece keeps its `label#i`), the suspend overhead the
    /// meta carried is not banked, and the [`WlmEvent::Killed`] record
    /// counts as a failure in the breaker feed like any other kill.
    fn kill_unowned(&mut self, query: QueryId, by: &'static str) -> bool {
        let Ok(done) = self.engine.kill(query) else {
            return false;
        };
        self.killed += 1;
        self.stats.entry(&done.label).killed += 1;
        if self.events.borrow().is_active() {
            self.emit(WlmEvent::Killed {
                at: self.engine.now(),
                query,
                workload: done.label,
                by,
                resubmit: false,
            });
        }
        true
    }

    /// Withdraw one request from this controller: every copy of it leaves
    /// the scheduler wait queue, the admission gate and the suspended set,
    /// and every engine query running it is killed. This is what a
    /// checkpoint with the request struck out would [`Self::restore`] to,
    /// at the cost of the live work rather than of the whole controller:
    /// chain pieces and restart counts booked under the request id stay as
    /// they are, and a copy parked in the resilience layer's retry queue is
    /// out of reach. `None` when the controller held no copy. A cancel is
    /// not a recovery: no checkpoint is taken and nothing is restored.
    pub fn cancel(&mut self, request: RequestId) -> Option<CancelOutcome> {
        let held = self.wait_queue.len() + self.deferred.len() + self.suspended.len();
        self.wait_queue.retain(|m| m.request.id != request);
        self.deferred.retain(|m| m.request.id != request);
        self.suspended
            .retain(|(_, req, _, _)| req.request.id != request);
        let dequeued = held - (self.wait_queue.len() + self.deferred.len() + self.suspended.len());
        let running: Vec<QueryId> = self
            .running
            .iter()
            .filter(|(_, meta)| meta.req.request.id == request)
            .map(|(id, _)| *id)
            .collect();
        if dequeued == 0 && running.is_empty() {
            return None;
        }
        let mut outcome = CancelOutcome {
            dequeued,
            killed_running: 0,
        };
        for query in running {
            self.running.remove(&query);
            if self.kill_unowned(query, "cancel") {
                outcome.killed_running += 1;
            }
        }
        self.live_snap = self.snapshot();
        Some(outcome)
    }

    /// Restart the control plane with *no* checkpoint: every live engine
    /// query is an unowned orphan and is killed, and every queue, window
    /// and budget starts empty. The run epoch (`stats.started`) is kept so
    /// elapsed-time reporting stays comparable. This is the ablation
    /// baseline [`Self::restore`] is measured against.
    pub fn cold_restart(&mut self) -> RecoveryReport {
        let empty = ControllerState {
            version: CHECKPOINT_VERSION,
            at: self.engine.now(),
            cycle: self.cycle,
            wait_queue: Vec::new(),
            deferred: Vec::new(),
            running: Vec::new(),
            suspended: Vec::new(),
            stats: StatsBook::new(self.stats.started),
            recent: BTreeMap::new(),
            query_log: QueryLog::new(),
            completed: 0,
            killed: 0,
            rejected: 0,
            suspend_overhead_us: 0,
            goal_violations: BTreeMap::new(),
            pending_chains: Vec::new(),
            restart_counts: Vec::new(),
            resilience: None,
        };
        self.restore(&empty)
    }

    /// Advance one engine quantum with the controller absent (crashed or
    /// stalled): no arrivals are polled, no stages run, and completions
    /// land unobserved. The engine — the data plane — keeps working; only
    /// management stops.
    pub fn tick_uncontrolled(&mut self) {
        let completions = self.engine.step();
        if self.engine.events_enabled() {
            // Nobody is listening in a dead controller; drop the buffer so
            // it cannot grow without bound across a long outage.
            let _ = self.engine.drain_events();
        }
        for c in completions {
            if self.running.remove(&c.id).is_some() {
                self.completions_unobserved += 1;
            }
        }
        self.cycle += 1;
        self.live_snap = self.snapshot();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::ThresholdAdmission;
    use crate::api::WlmBuilder;
    use crate::execution::{LoadShedSuspender, ThresholdKiller};
    use crate::resilience::{BreakerConfig, ResilienceConfig, RetryPolicy};
    use crate::scheduling::{PriorityScheduler, Restructurer};
    use crate::splitmix64;
    use wlm_dbsim::engine::EngineConfig;
    use wlm_dbsim::optimizer::CostModel;
    use wlm_workload::generators::{BiSource, OltpSource};
    use wlm_workload::mix::MixedSource;

    /// A small overloaded engine behind every stage that can hold a
    /// request: an MPL-capped gate (deferred), a priority scheduler (wait
    /// queue), a restructurer (chained running pieces), a load-shed
    /// suspender (suspended), and a killer under retry + breakers (parked
    /// retries, restart counts, a breaker feed listening for kills).
    fn manager() -> WorkloadManager {
        let mut mgr = WlmBuilder::new()
            .engine(EngineConfig {
                cores: 2,
                memory_mb: 512,
                ..Default::default()
            })
            .cost_model(CostModel::oracle())
            .build()
            .expect("valid configuration");
        mgr.set_scheduler(Box::new(PriorityScheduler::new(3)));
        mgr.set_admission(Box::new(ThresholdAdmission::with_global_mpl(6)));
        mgr.set_restructurer(Restructurer {
            slice_threshold_timerons: 2_000_000.0,
            target_piece_timerons: 1_000_000.0,
            max_pieces: 6,
        });
        mgr.add_exec_controller(Box::new(LoadShedSuspender {
            pressure_threshold: 2,
            ..Default::default()
        }));
        mgr.add_exec_controller(Box::new(ThresholdKiller::new(0.5)));
        mgr.set_resilience(
            ResilienceConfig::new(0xCA)
                .with_timeout("oltp", 1.5)
                .with_timeout("bi", 20.0)
                .with_retry(RetryPolicy::aggressive())
                .with_breaker(BreakerConfig::default()),
        );
        mgr
    }

    fn mix(seed: u64) -> MixedSource {
        MixedSource::new()
            .with(Box::new(OltpSource::new(60.0, seed)))
            .with(Box::new(
                BiSource::new(3.0, seed + 1).with_size(20_000_000.0, 1.0),
            ))
    }

    /// What `Cluster::cancel_copy` did before [`WorkloadManager::cancel`]
    /// existed: strike the request out of a full checkpoint and restore
    /// it. Kept here as the reference the targeted removal must match.
    fn cancel_by_restore(mgr: &mut WorkloadManager, request: RequestId) -> Option<RecoveryReport> {
        let mut ckpt = mgr.checkpoint();
        let held = |c: &ControllerState| {
            c.wait_queue.len() + c.deferred.len() + c.running.len() + c.suspended.len()
        };
        let before = held(&ckpt);
        ckpt.wait_queue.retain(|m| m.request.id != request);
        ckpt.deferred.retain(|m| m.request.id != request);
        ckpt.running.retain(|rc| rc.req.request.id != request);
        ckpt.suspended.retain(|s| s.req.request.id != request);
        (held(&ckpt) != before).then(|| mgr.restore(&ckpt))
    }

    fn assert_same(a: &WorkloadManager, b: &WorkloadManager, when: &str) {
        assert_eq!(
            a.checkpoint_bytes().1,
            b.checkpoint_bytes().1,
            "controller state diverged {when}"
        );
        assert_eq!(
            serde_json::to_string(&a.report()).expect("report serializes"),
            serde_json::to_string(&b.report()).expect("report serializes"),
            "reports diverged {when}"
        );
        assert_eq!(
            a.engine().live_ids(),
            b.engine().live_ids(),
            "engines diverged {when}"
        );
        assert_eq!(a.live_snapshot(), b.live_snapshot(), "snapshots {when}");
    }

    /// Step two identical managers in lock-step; at random ticks cancel a
    /// request on one with [`WorkloadManager::cancel`] and on its twin by
    /// the checkpoint round trip. Returns how often the target sat in the
    /// wait queue, at the gate, in the engine, suspended, parked for a
    /// retry (out of a cancel's reach), and nowhere.
    fn differential_walk(seed: u64, ticks: usize) -> [usize; 6] {
        let mut state = seed;
        let mut draw = |n: u64| {
            state = splitmix64(state);
            state % n
        };
        let (mut a, mut b) = (manager(), manager());
        let (mut src_a, mut src_b) = (mix(seed), mix(seed));
        let mut hits = [0usize; 6];
        for tick in 0..ticks {
            a.tick(&mut src_a);
            b.tick(&mut src_b);
            if draw(16) != 0 {
                continue;
            }
            let parked = a.resilience.as_ref().expect("resilience is on");
            let residents: [Vec<RequestId>; 5] = [
                a.wait_queue.iter().map(|m| m.request.id).collect(),
                a.deferred.iter().map(|m| m.request.id).collect(),
                a.running.values().map(|meta| meta.req.request.id).collect(),
                a.suspended.iter().map(|s| s.1.request.id).collect(),
                parked
                    .checkpoint()
                    .retry_queue
                    .iter()
                    .map(|r| r.req.request.id)
                    .collect(),
            ];
            // Aim at each occupied residence equally often, whatever
            // their sizes, and one time in eight at an absent request.
            let occupied: Vec<&Vec<RequestId>> =
                residents.iter().filter(|ids| !ids.is_empty()).collect();
            let target = if occupied.is_empty() || draw(8) == 0 {
                RequestId(u64::MAX - draw(1 << 20))
            } else {
                let ids = occupied[draw(occupied.len() as u64) as usize];
                ids[draw(ids.len() as u64) as usize]
            };
            let place = residents.iter().position(|ids| ids.contains(&target));
            hits[place.unwrap_or(5)] += 1;
            let found = place.filter(|&p| p < 4);

            let emitted = a.events_emitted();
            let cancelled = a.cancel(target);
            let restored = cancel_by_restore(&mut b, target);
            let when = format!("cancelling {target:?} at tick {tick} (seed {seed})");
            assert_eq!(cancelled.is_some(), found.is_some(), "{when}");
            if cancelled.is_none() {
                assert_eq!(a.events_emitted(), emitted, "a miss emits nothing: {when}");
            }
            assert_eq!(cancelled.is_some(), restored.is_some(), "{when}");
            if let (Some(c), Some(r)) = (cancelled, restored) {
                assert_eq!(c.killed_running, r.orphans_killed, "{when}");
                assert_eq!(r.requeued + r.quarantine_dropped, 0, "{when}");
                let copies = residents[..4].iter().flatten().filter(|id| **id == target);
                assert_eq!(c.dequeued + c.killed_running, copies.count(), "{when}");
            }
            assert_same(&a, &b, &when);
        }
        for _ in 0..200 {
            a.tick(&mut src_a);
            b.tick(&mut src_b);
        }
        assert_same(&a, &b, &format!("200 ticks after the walk (seed {seed})"));
        hits
    }

    #[test]
    fn cancel_matches_the_checkpoint_strip_restore_it_replaces() {
        let mut hits = [0usize; 6];
        for seed in [1, 7, 42, 1_000_003] {
            for (total, n) in hits.iter_mut().zip(differential_walk(seed, 2_000)) {
                *total += n;
            }
        }
        assert!(
            hits.iter().all(|&n| n >= 15),
            "the walk must aim at every residence: {hits:?}"
        );
    }

    #[test]
    fn checkpoint_bytes_announces_the_length_of_the_bytes_it_returns() {
        let mut mgr = manager();
        let trace = crate::events::RingRecorder::new(1 << 16);
        mgr.subscribe(Box::new(trace.clone()));
        let mut src = mix(5);
        for _ in 0..200 {
            mgr.tick(&mut src);
        }
        trace.take();
        let (state, bytes) = mgr.checkpoint_bytes();
        assert_eq!(bytes, state.to_bytes());
        let announced: Vec<usize> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                WlmEvent::CheckpointTaken { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        assert_eq!(announced, vec![bytes.len()]);
    }
}
