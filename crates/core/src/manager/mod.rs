//! The workload manager: the paper's control cycle as an explicit staged
//! pipeline over the simulated engine.
//!
//! Each control cycle (one engine quantum) runs five stages, one module
//! each, sharing a [`CycleContext`](context) that carries the cycle's
//! arrival batch and the **incrementally maintained** system snapshot:
//!
//! ```text
//!   identify ──▶ admit ──▶ schedule ──▶ exec_control ──▶ monitor
//!   (classify)   (gate)    (release)    (act on running)  (step+account)
//!        │          │          │               │              │
//!        ▼          ▼          ▼               ▼              ▼
//!   Classified  Admitted/  Scheduled    Throttled/Killed  Completed/
//!               Deferred/               Reprioritized/    Resumed
//!               Rejected                Suspended
//! ```
//!
//! 1. **[`identify`]** — poll the workload sources and classify every
//!    arriving request into a workload (characterization);
//! 2. **[`admit`]** — decide admit / defer / reject, re-evaluating
//!    previously deferred requests first;
//! 3. **[`schedule`]** — let the scheduler release requests from the wait
//!    queue to the engine (optionally restructuring big queries into
//!    chained pieces first);
//! 4. **[`exec_control`]** — give every execution controller a view of
//!    the running set and apply the actions they return (reprioritize,
//!    throttle, pause/resume, kill, kill-and-resubmit, suspend);
//! 5. **[`monitor`]** — step the engine, account completions per workload,
//!    maintain the DBQL-style query log, feed closed-loop sources, resume
//!    suspended queries when the system quiets down.
//!
//! Every stage publishes [`WlmEvent`]s onto the manager's event bus (see
//! [`crate::events`]); attach observers with
//! [`WorkloadManager::subscribe`]. With no subscribers, emission costs
//! nothing.
//!
//! The snapshot is *maintained*, not rebuilt: admission applies queue
//! deltas, scheduling refreshes only the queue/running views its
//! dispatches changed, and the monitor stage refreshes everything after
//! the engine quantum. At every stage boundary the maintained snapshot is
//! bitwise-identical to a from-scratch [`WorkloadManager::snapshot`] —
//! the refresh helpers and `snapshot()` are the same code.

mod admit;
pub mod checkpoint;
mod context;
mod exec_control;
mod identify;
mod monitor;
mod resilience_stage;
mod schedule;
pub mod store;

pub use checkpoint::{
    CancelOutcome, ControllerState, RecoveryReport, RunningCheckpoint, SuspendedCheckpoint,
    CHECKPOINT_VERSION,
};
pub use store::{
    CheckpointStore, CommitReport, CorruptionKind, LoadOutcome, StoreConfig, ENVELOPE_VERSION,
};

use crate::admission::AdmitAll;
use crate::api::{
    AdmissionController, ExecutionController, ManagedRequest, Scheduler, SystemSnapshot,
};
use crate::characterize::{Characterizer, StaticCharacterizer};
use crate::dashboard::{Dashboard, WorkloadRow};
use crate::error::Error;
use crate::events::{EventBus, EventSink, EventSubscriber, WlmEvent};
use crate::policy::WorkloadPolicy;
use crate::resilience::{ResilienceConfig, ResilienceLayer, ResilienceReport};
use crate::scheduling::{FcfsScheduler, Restructurer};
use crate::stats::{StatsBook, WorkloadReport};
use context::CycleContext;
use serde::Serialize;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use wlm_dbsim::engine::{DbEngine, EngineConfig, EngineFault, QueryId};
use wlm_dbsim::optimizer::CostModel;
use wlm_dbsim::plan::QuerySpec;
use wlm_dbsim::suspend::SuspendedQuery;
use wlm_dbsim::time::{SimDuration, SimTime};
use wlm_workload::generators::Source;
use wlm_workload::trace::QueryLog;

/// Manager configuration.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Engine configuration.
    pub engine: EngineConfig,
    /// Optimizer cost model (estimation error level).
    pub cost_model: CostModel,
    /// Per-workload policies (importance, SLA, admission/execution rules).
    pub policies: Vec<WorkloadPolicy>,
    /// Auto-resume suspended queries when fewer than this many queries run.
    pub resume_when_running_below: usize,
    /// Response samples per workload kept for the recent-performance window.
    pub response_window: usize,
    /// Ignore business importance when assigning engine weights (every
    /// query weight 1.0 unless a policy overrides it). This models an
    /// *unmanaged* engine that cannot see request priority — the baseline
    /// the paper's techniques are measured against.
    pub uniform_weights: bool,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            engine: EngineConfig::default(),
            cost_model: CostModel::default(),
            policies: Vec::new(),
            resume_when_running_below: 4,
            response_window: 20,
            uniform_weights: false,
        }
    }
}

#[derive(Debug)]
struct RunningMeta {
    req: ManagedRequest,
    throttle: f64,
    restarts: u32,
    /// Remaining pieces of a restructured query.
    chain: VecDeque<QuerySpec>,
    /// Suspend/resume overhead already accumulated by this request, µs.
    suspend_overhead_us: u64,
}

/// A suspended query awaiting resumption: the resume token, the managed
/// request, its restart count and the suspend/resume overhead it has
/// accumulated so far (carried across the suspension so it survives into
/// the per-workload books when the request finally leaves the system).
type SuspendedEntry = (SuspendedQuery, ManagedRequest, u32, u64);

/// End-of-run summary.
#[derive(Debug, Clone, Serialize)]
pub struct RunReport {
    /// Simulated run length, seconds.
    pub elapsed_secs: f64,
    /// Per-workload outcomes and SLA evaluations.
    pub workloads: Vec<WorkloadReport>,
    /// Total completions.
    pub completed: u64,
    /// Total kills (not resubmitted).
    pub killed: u64,
    /// Total rejections.
    pub rejected: u64,
    /// Total suspend+resume overhead paid, µs.
    pub suspend_overhead_us: u64,
    /// Overall throughput, completions/second.
    pub throughput: f64,
}

impl RunReport {
    /// The report of one workload, if present.
    pub fn workload(&self, name: &str) -> Option<&WorkloadReport> {
        self.workloads.iter().find(|w| w.workload == name)
    }
}

/// The workload manager.
///
/// Assemble one with the typed facade, [`crate::api::WlmBuilder`]:
///
/// ```
/// use wlm_core::api::WlmBuilder;
/// use wlm_core::scheduling::PriorityScheduler;
/// use wlm_workload::generators::OltpSource;
/// use wlm_dbsim::time::SimDuration;
///
/// let mut manager = WlmBuilder::new()
///     .scheduler(Box::new(PriorityScheduler::new(16)))
///     .build()
///     .expect("valid configuration");
/// let mut source = OltpSource::new(20.0, 1);
/// let report = manager.run(&mut source, SimDuration::from_secs(5));
/// assert!(report.workload("oltp").is_some());
/// ```
pub struct WorkloadManager {
    engine: DbEngine,
    cost_model: CostModel,
    characterizer: Box<dyn Characterizer>,
    admission: Box<dyn AdmissionController>,
    scheduler: Box<dyn Scheduler>,
    exec_controllers: Vec<Box<dyn ExecutionController>>,
    restructurer: Option<Restructurer>,
    policies: BTreeMap<String, WorkloadPolicy>,
    wait_queue: Vec<ManagedRequest>,
    deferred: VecDeque<ManagedRequest>,
    running: BTreeMap<QueryId, RunningMeta>,
    suspended: Vec<SuspendedEntry>,
    stats: StatsBook,
    recent: BTreeMap<String, VecDeque<f64>>,
    query_log: QueryLog,
    resume_when_running_below: usize,
    response_window: usize,
    uniform_weights: bool,
    suspend_overhead_us: u64,
    completed: u64,
    killed: u64,
    rejected: u64,
    /// Goal violations per workload (completions over the tightest
    /// response-time objective).
    goal_violations: BTreeMap<String, u64>,
    /// Remaining pieces of restructured queries, keyed by request id.
    pending_chains: BTreeMap<wlm_workload::request::RequestId, Vec<QuerySpec>>,
    /// Restart counts of re-queued (killed-and-resubmitted) requests.
    restart_counts: BTreeMap<wlm_workload::request::RequestId, u32>,
    /// Retry budgets, circuit breakers and the degradation ladder
    /// (`None` = resilience off, the default).
    resilience: Option<ResilienceLayer>,
    /// The decision-event bus (shared with [`EventSink`] handles).
    events: Rc<RefCell<EventBus>>,
    /// The incrementally maintained monitor snapshot.
    live_snap: SystemSnapshot,
    /// Control cycles executed (one per engine quantum, including
    /// controller-absent [`Self::tick_uncontrolled`] quanta). Monotonic —
    /// [`Self::restore`] does not rewind it.
    cycle: u64,
    /// Completions that finished while the controller was absent.
    completions_unobserved: u64,
}

impl WorkloadManager {
    /// New manager with pass-through defaults: label-based identification,
    /// admit-all, FCFS at effectively unlimited MPL, no execution control —
    /// i.e. an unmanaged system. [`crate::api::WlmBuilder`] validates its
    /// inputs and then builds through this constructor.
    pub(crate) fn from_config(config: ManagerConfig) -> Self {
        let engine = DbEngine::new(config.engine);
        let stats = StatsBook::new(engine.now());
        let mut mgr = WorkloadManager {
            engine,
            cost_model: config.cost_model,
            characterizer: Box::new(
                StaticCharacterizer::new(Vec::new())
                    .with_default("default")
                    // Label-based identification: the generator's workload
                    // tag is the workload name unless definitions override.
                    .with_criteria_fn(Box::new(|req, _| {
                        (!req.spec.label.is_empty()).then(|| {
                            // Chained restructured pieces carry "label#i".
                            req.spec
                                .label
                                .split('#')
                                .next()
                                .unwrap_or(&req.spec.label)
                                .to_string()
                        })
                    })),
            ),
            admission: Box::new(AdmitAll),
            scheduler: Box::new(FcfsScheduler::new(usize::MAX / 2)),
            exec_controllers: Vec::new(),
            restructurer: None,
            policies: config
                .policies
                .into_iter()
                .map(|p| (p.workload.clone(), p))
                .collect(),
            wait_queue: Vec::new(),
            deferred: VecDeque::new(),
            running: BTreeMap::new(),
            suspended: Vec::new(),
            stats,
            recent: BTreeMap::new(),
            query_log: QueryLog::new(),
            resume_when_running_below: config.resume_when_running_below,
            response_window: config.response_window.max(1),
            uniform_weights: config.uniform_weights,
            suspend_overhead_us: 0,
            completed: 0,
            killed: 0,
            rejected: 0,
            goal_violations: BTreeMap::new(),
            pending_chains: BTreeMap::new(),
            restart_counts: BTreeMap::new(),
            resilience: None,
            events: Rc::new(RefCell::new(EventBus::default())),
            live_snap: SystemSnapshot::default(),
            cycle: 0,
            completions_unobserved: 0,
        };
        if let Some(trace) = crate::events::thread_trace_recorder() {
            mgr.subscribe(Box::new(trace));
        }
        mgr.live_snap = mgr.snapshot();
        mgr
    }

    /// Replace the characterizer.
    pub fn set_characterizer(&mut self, c: Box<dyn Characterizer>) {
        self.characterizer = c;
    }

    /// Replace the admission controller.
    pub fn set_admission(&mut self, a: Box<dyn AdmissionController>) {
        self.admission = a;
    }

    /// Replace the scheduler.
    pub fn set_scheduler(&mut self, s: Box<dyn Scheduler>) {
        self.scheduler = s;
    }

    /// Add an execution controller (they run in insertion order).
    pub fn add_exec_controller(&mut self, c: Box<dyn ExecutionController>) {
        self.exec_controllers.push(c);
    }

    /// Remove all execution controllers.
    pub fn clear_exec_controllers(&mut self) {
        self.exec_controllers.clear();
    }

    /// Enable query restructuring with the given policy.
    pub fn set_restructurer(&mut self, r: Restructurer) {
        self.restructurer = Some(r);
    }

    /// Enable the resilience layer (retry budgets, per-workload circuit
    /// breakers, the degradation ladder — each only if configured). When
    /// breakers are enabled this subscribes a feed on the event bus so
    /// breaker state tracks observed failure and timeout rates.
    pub fn set_resilience(&mut self, cfg: ResilienceConfig) {
        let layer = ResilienceLayer::new(cfg);
        if layer.breaker_enabled() {
            self.subscribe(Box::new(layer.breaker_feed()));
        }
        self.resilience = Some(layer);
    }

    /// Snapshot of the resilience layer's state, if the layer is enabled.
    pub fn resilience_report(&self) -> Option<ResilienceReport> {
        self.resilience.as_ref().map(ResilienceLayer::report)
    }

    /// Inject an engine-level fault (or recovery) into the underlying
    /// engine, publishing a [`WlmEvent::FaultInjected`] record. The fault
    /// drivers in `wlm-chaos` call this between control cycles.
    pub fn apply_engine_fault(&mut self, fault: EngineFault) -> Result<(), Error> {
        let kind = fault.kind();
        let detail = format!("{fault:?}");
        self.engine.apply_fault(fault)?;
        if self.events.borrow().is_active() {
            self.emit(WlmEvent::FaultInjected {
                at: self.engine.now(),
                kind,
                detail,
            });
        }
        Ok(())
    }

    /// The optimizer's current estimation-error level (sigma of its
    /// log-normal multiplicative error).
    pub fn cost_model_error(&self) -> f64 {
        self.cost_model.error_sigma
    }

    /// Set the optimizer's estimation-error level — the chaos driver's
    /// optimizer-misestimation fault.
    pub fn set_cost_model_error(&mut self, sigma: f64) {
        self.cost_model.error_sigma = sigma.max(0.0);
    }

    /// Completions of `workload` that violated its tightest response-time
    /// objective so far.
    pub fn goal_violations_in(&self, workload: &str) -> u64 {
        self.goal_violations.get(workload).copied().unwrap_or(0)
    }

    /// Add or replace a workload policy at run time.
    pub fn set_policy(&mut self, policy: WorkloadPolicy) {
        if self.events.borrow().is_active() {
            self.emit(WlmEvent::PolicyChanged {
                at: self.engine.now(),
                workload: policy.workload.clone(),
            });
        }
        self.policies.insert(policy.workload.clone(), policy);
    }

    /// Attach an event subscriber to this manager's bus. Also enables the
    /// engine's low-level event hooks, forwarded through
    /// [`EventSubscriber::on_engine_event`] each monitor stage.
    pub fn subscribe(&mut self, sub: Box<dyn EventSubscriber>) {
        self.engine.enable_events();
        self.events.borrow_mut().subscribe(sub);
    }

    /// A clonable handle for publishing onto this manager's event bus from
    /// outside the manager (facility emulations, the MAPE loop).
    pub fn event_sink(&self) -> EventSink {
        EventSink::new(Rc::clone(&self.events))
    }

    /// Decision events emitted so far.
    pub fn events_emitted(&self) -> u64 {
        self.events.borrow().emitted()
    }

    /// Whether the event bus has any subscribers.
    pub fn events_active(&self) -> bool {
        self.events.borrow().is_active()
    }

    /// Response-window length (samples per workload) this manager keeps.
    pub fn response_window(&self) -> usize {
        self.response_window
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// The engine (read access for experiments).
    pub fn engine(&self) -> &DbEngine {
        &self.engine
    }

    /// The DBQL-style query log of completed requests, compressed to
    /// weighted templates.
    pub fn query_log(&self) -> &QueryLog {
        &self.query_log
    }

    /// Requests waiting in the scheduler queue.
    pub fn queued(&self) -> usize {
        self.wait_queue.len()
    }

    /// Requests held at the admission gate.
    pub fn deferred(&self) -> usize {
        self.deferred.len()
    }

    /// Suspended queries awaiting resumption.
    pub fn suspended_count(&self) -> usize {
        self.suspended.len()
    }

    fn emit(&self, event: WlmEvent) {
        self.events.borrow_mut().emit(event);
    }

    /// Build the monitor snapshot from scratch. The cycle maintains
    /// [`Self::live_snapshot`] incrementally through the same refresh
    /// helpers, so the two always agree at cycle boundaries.
    pub fn snapshot(&self) -> SystemSnapshot {
        let mut snap = SystemSnapshot::default();
        self.refresh_engine_view(&mut snap);
        self.refresh_running_view(&mut snap);
        self.refresh_queue_view(&mut snap);
        self.refresh_recent_view(&mut snap);
        snap
    }

    /// The incrementally maintained snapshot, equal to a from-scratch
    /// [`Self::snapshot`] at cycle boundaries but free to read.
    pub fn live_snapshot(&self) -> &SystemSnapshot {
        &self.live_snap
    }

    /// A point-in-time dashboard over the live system — the monitoring
    /// surface (Teradata's dashboard workload monitor, DB2 table functions,
    /// SQL Server performance counters).
    pub fn dashboard(&self) -> Dashboard {
        let snap = self.snapshot();
        let total_cost: f64 = snap.running_cost.max(1e-9);
        let mut workloads: BTreeMap<String, WorkloadRow> = BTreeMap::new();
        let mut names: Vec<String> = self.stats.workloads().map(str::to_string).collect();
        names.extend(snap.running_by_workload.keys().cloned());
        names.extend(snap.queued_by_workload.keys().cloned());
        names.sort();
        names.dedup();
        for name in names {
            let stats = self.stats.get(&name).cloned().unwrap_or_default();
            workloads.insert(
                name.clone(),
                WorkloadRow {
                    active: snap.running_in(&name),
                    queued: snap.queued_in(&name),
                    running_cost_share: snap.running_cost_in(&name) / total_cost,
                    completed: stats.completed,
                    recent_response_secs: snap.recent_response_of(&name),
                    goal_violations: self.goal_violations.get(&name).copied().unwrap_or(0),
                    shed: stats.rejected + stats.killed,
                    workload: name,
                },
            );
        }
        Dashboard {
            at: snap.now,
            running: snap.running,
            waiting: snap.queued,
            suspended: self.suspended.len(),
            cpu_utilization: snap.cpu_utilization,
            io_utilization: snap.io_utilization,
            conflict_ratio: snap.conflict_ratio,
            workloads,
        }
    }

    /// Advance one control cycle (one engine quantum), pulling arrivals from
    /// `source`: the five pipeline stages in order, sharing one
    /// [`CycleContext`].
    pub fn tick(&mut self, source: &mut dyn Source) {
        let mut cx = CycleContext::begin(self);
        self.stage_identify(&mut cx, source);
        self.stage_admit(&mut cx);
        self.stage_schedule(&mut cx);
        self.stage_exec_control(&mut cx);
        self.stage_monitor(&mut cx, source);
        cx.finish(self);
        self.cycle += 1;
    }

    /// Run for `duration` of simulated time and report.
    pub fn run(&mut self, source: &mut dyn Source, duration: SimDuration) -> RunReport {
        let deadline = self.engine.now() + duration;
        while self.engine.now() < deadline {
            self.tick(source);
        }
        self.report()
    }

    /// Build the end-of-run report at the current time.
    pub fn report(&self) -> RunReport {
        let elapsed = self.engine.now().since(self.stats.started);
        RunReport {
            elapsed_secs: elapsed.as_secs_f64(),
            workloads: self.stats.report(
                |name| self.policies.get(name).map(|p| &p.sla),
                self.engine.now(),
            ),
            completed: self.completed,
            killed: self.killed,
            rejected: self.rejected,
            suspend_overhead_us: self.suspend_overhead_us,
            throughput: if elapsed.as_secs_f64() > 0.0 {
                self.completed as f64 / elapsed.as_secs_f64()
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::ThresholdAdmission;
    use crate::api::WlmBuilder;
    use crate::execution::{LoadShedSuspender, ThresholdKiller};
    use crate::scheduling::PriorityScheduler;
    use wlm_workload::generators::{BiSource, OltpSource};
    use wlm_workload::mix::MixedSource;
    use wlm_workload::request::Importance;
    use wlm_workload::sla::ServiceLevelAgreement;

    fn small_builder() -> WlmBuilder {
        WlmBuilder::new()
            .engine(EngineConfig {
                cores: 4,
                disk_pages_per_sec: 20_000,
                memory_mb: 4_096,
                ..Default::default()
            })
            .cost_model(CostModel::oracle())
    }

    #[test]
    fn unmanaged_pipeline_completes_work() {
        let mut mgr = small_builder().build().expect("valid configuration");
        let mut src = OltpSource::new(20.0, 1);
        let report = mgr.run(&mut src, SimDuration::from_secs(20));
        assert!(report.completed > 200, "completed {}", report.completed);
        assert!(report.rejected == 0);
        let oltp = report.workload("oltp").expect("oltp workload reported");
        assert!(oltp.summary.mean < 1.0, "oltp mean {}", oltp.summary.mean);
    }

    #[test]
    fn threshold_admission_rejects_big_queries() {
        let mut mgr = small_builder().build().expect("valid configuration");
        let adm = ThresholdAdmission::default().with_policy(
            "bi",
            crate::policy::AdmissionPolicy {
                max_cost_timerons: Some(100_000.0),
                on_violation: crate::policy::AdmissionViolationAction::Reject,
                ..Default::default()
            },
        );
        mgr.set_admission(Box::new(adm));
        let mut src = BiSource::new(2.0, 2);
        let report = mgr.run(&mut src, SimDuration::from_secs(30));
        assert!(report.rejected > 0, "big BI queries should be rejected");
    }

    #[test]
    fn killer_controller_kills_long_runners() {
        let mut mgr = small_builder().build().expect("valid configuration");
        mgr.add_exec_controller(Box::new(ThresholdKiller::new(2.0)));
        let mut src = BiSource::new(1.0, 3);
        let report = mgr.run(&mut src, SimDuration::from_secs(30));
        assert!(report.killed > 0, "long BI queries should be killed");
    }

    #[test]
    fn priority_scheduler_under_mpl_prefers_oltp() {
        let mut mgr = small_builder().build().expect("valid configuration");
        mgr.set_scheduler(Box::new(PriorityScheduler::new(4)));
        let mut mix = MixedSource::new()
            .with(Box::new(OltpSource::new(20.0, 1)))
            .with(Box::new(BiSource::new(2.0, 2)));
        let report = mgr.run(&mut mix, SimDuration::from_secs(30));
        let oltp = report.workload("oltp").expect("oltp workload reported");
        assert!(oltp.stats.completed > 0);
        // OLTP stays fast because it skips the queue.
        assert!(oltp.summary.p90 < 2.0, "p90 {}", oltp.summary.p90);
    }

    #[test]
    fn report_contains_sla_evaluation() {
        let mut mgr = small_builder()
            .policy(
                WorkloadPolicy::new("oltp", Importance::High)
                    .with_sla(ServiceLevelAgreement::avg_response(1.0)),
            )
            .build()
            .expect("valid configuration");
        let mut src = OltpSource::new(10.0, 4);
        let report = mgr.run(&mut src, SimDuration::from_secs(10));
        let oltp = report.workload("oltp").expect("oltp workload reported");
        assert!(!oltp.sla.results.is_empty());
        assert!(oltp.sla.met(), "idle system must meet the OLTP SLA");
    }

    #[test]
    fn live_snapshot_matches_from_scratch_rebuild() {
        for seed in [1u64, 7, 13] {
            let mut mgr = small_builder().build().expect("valid configuration");
            mgr.set_scheduler(Box::new(PriorityScheduler::new(4)));
            mgr.add_exec_controller(Box::new(ThresholdKiller::new(2.0)));
            let mut mix = MixedSource::new()
                .with(Box::new(OltpSource::new(20.0, seed)))
                .with(Box::new(BiSource::new(2.0, seed + 1)));
            for i in 0..2_000 {
                mgr.tick(&mut mix);
                assert_eq!(
                    mgr.live_snapshot(),
                    &mgr.snapshot(),
                    "divergence at tick {i} (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn live_snapshot_survives_suspend_restructure_and_deferral() {
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
        let mut mix = MixedSource::new()
            .with(Box::new(OltpSource::new(15.0, 21)))
            .with(Box::new(
                BiSource::new(1.5, 22).with_size(20_000_000.0, 1.0),
            ));
        for i in 0..4_000 {
            mgr.tick(&mut mix);
            assert_eq!(
                mgr.live_snapshot(),
                &mgr.snapshot(),
                "divergence at tick {i}"
            );
        }
        assert!(mgr.suspend_overhead_us > 0 || mgr.completed > 0);
    }
}
