//! Teradata Active System Management emulation (§4.1.3 of the paper).
//!
//! Components: the **workload analyzer** recommends workload definitions by
//! clustering the database query log (DBQL); the **dynamic workload
//! manager** holds the three rule families — *filters* (object-access and
//! query-resource rejections before execution), *throttles* (concurrency
//! limits on objects and utilities, overflow to a delay queue) and
//! *workload definitions* (who/where/what classification criteria,
//! execution behaviours, exception criteria & actions, SLGs); the
//! **regulator** applies the rules and monitors running queries for
//! exception conditions.

use crate::table4::{Facility, Table4Row};
use std::cell::RefCell;
use std::rc::Rc;
use wlm_core::api::WlmBuilder;
use wlm_core::api::{
    AdmissionController, AdmissionDecision, ControlAction, ExecutionController, ManagedRequest,
    RunningQuery, SystemSnapshot,
};
use wlm_core::characterize::StaticCharacterizer;
use wlm_core::events::{EventSubscriber, WlmEvent};
use wlm_core::manager::WorkloadManager;
use wlm_core::taxonomy::{Classified, TaxonomyPath, TechniqueClass};
use wlm_core::Error;
use wlm_dbsim::plan::StatementType;
use wlm_dbsim::time::SimTime;
use wlm_workload::request::Importance;
use wlm_workload::sla::ServiceLevelAgreement;
use wlm_workload::trace::QueryLog;

/// A filter: rejects unwanted work before execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Object-access filter: reject requests from this application.
    ObjectAccess {
        /// Application whose access is limited.
        application: String,
        /// Statement types rejected (empty = all).
        statements: Vec<StatementType>,
    },
    /// Query-resource filter: reject queries estimated to access "too many"
    /// rows or take "too long".
    QueryResource {
        /// Maximum estimated rows.
        max_est_rows: Option<u64>,
        /// Maximum estimated processing time, seconds.
        max_est_secs: Option<f64>,
    },
}

impl Filter {
    fn rejects(&self, req: &ManagedRequest) -> bool {
        match self {
            Filter::ObjectAccess {
                application,
                statements,
            } => {
                req.request.origin.application == *application
                    && (statements.is_empty() || statements.contains(&req.request.spec.statement))
            }
            Filter::QueryResource {
                max_est_rows,
                max_est_secs,
            } => {
                max_est_rows.is_some_and(|r| req.estimate.rows > r)
                    || max_est_secs.is_some_and(|s| req.estimate.exec_secs > s)
            }
        }
    }
}

/// A throttle: a concurrency rule; overflow goes to the delay queue.
#[derive(Debug, Clone, PartialEq)]
pub enum Throttle {
    /// Limit concurrent queries of one workload.
    Object {
        /// Workload the rule covers.
        workload: String,
        /// Concurrency limit.
        limit: usize,
    },
    /// Limit concurrently running utilities (load/export/backup...).
    Utility {
        /// Concurrency limit.
        limit: usize,
    },
}

/// Exception criteria checked while a query runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExceptionCriteria {
    /// Maximum elapsed (response) time before the exception fires, seconds.
    pub max_elapsed_secs: f64,
}

/// Exception actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExceptionAction {
    /// Abort the request.
    Abort,
    /// Move it to the penalty-box priority.
    Demote,
}

/// A Teradata workload definition.
#[derive(Debug, Clone)]
pub struct WorkloadDefinition {
    /// Definition name.
    pub name: String,
    /// "Who": source application (None = any).
    pub who_application: Option<String>,
    /// "What": minimum estimated processing time, seconds (None = any).
    pub what_min_est_secs: Option<f64>,
    /// "What": maximum estimated processing time, seconds (None = any).
    pub what_max_est_secs: Option<f64>,
    /// Execution behaviour: priority (resource allocation group weight).
    pub priority_weight: f64,
    /// Execution behaviour: workload concurrency throttle.
    pub concurrency_throttle: Option<usize>,
    /// Exception handling.
    pub exception: Option<(ExceptionCriteria, ExceptionAction)>,
    /// Service level goal.
    pub slg: Option<ServiceLevelAgreement>,
}

/// Admission side of the regulator: filters then throttles.
struct TeradataGate {
    filters: Vec<Filter>,
    throttles: Vec<Throttle>,
    definitions: Vec<WorkloadDefinition>,
}

impl Classified for TeradataGate {
    fn taxonomy(&self) -> TaxonomyPath {
        TaxonomyPath::new(TechniqueClass::AdmissionControl, "Threshold-based")
    }

    fn technique_name(&self) -> &'static str {
        "Filters & Throttles"
    }
}

impl AdmissionController for TeradataGate {
    fn decide(&mut self, req: &ManagedRequest, snap: &SystemSnapshot) -> AdmissionDecision {
        // Filters reject before execution.
        for f in &self.filters {
            if f.rejects(req) {
                return AdmissionDecision::Reject(format!("filter rule {f:?}"));
            }
        }
        // Throttles delay (the delay queue).
        for t in &self.throttles {
            match t {
                Throttle::Object { workload, limit } => {
                    if req.workload == *workload && snap.in_flight(workload) >= *limit {
                        return AdmissionDecision::Defer;
                    }
                }
                Throttle::Utility { limit } => {
                    if req.request.spec.statement == StatementType::Utility
                        && snap.in_flight(&req.workload) >= *limit
                    {
                        return AdmissionDecision::Defer;
                    }
                }
            }
        }
        // Per-definition concurrency throttle.
        if let Some(def) = self.definitions.iter().find(|d| d.name == req.workload) {
            if let Some(limit) = def.concurrency_throttle {
                if snap.in_flight(&req.workload) >= limit {
                    return AdmissionDecision::Defer;
                }
            }
        }
        AdmissionDecision::Admit
    }
}

/// Run-time side of the regulator: exception criteria and actions.
struct TeradataRegulator {
    definitions: Vec<WorkloadDefinition>,
    penalty_weight: f64,
}

impl Classified for TeradataRegulator {
    fn taxonomy(&self) -> TaxonomyPath {
        TaxonomyPath::new(TechniqueClass::ExecutionControl, "Query Cancellation")
    }

    fn technique_name(&self) -> &'static str {
        "Teradata Regulator"
    }
}

impl ExecutionController for TeradataRegulator {
    fn control(&mut self, running: &[RunningQuery], _snap: &SystemSnapshot) -> Vec<ControlAction> {
        let mut actions = Vec::new();
        for q in running {
            let Some(def) = self
                .definitions
                .iter()
                .find(|d| d.name == q.request.workload)
            else {
                continue;
            };
            let Some((criteria, action)) = def.exception else {
                continue;
            };
            if q.progress.elapsed.as_secs_f64() <= criteria.max_elapsed_secs {
                continue;
            }
            match action {
                ExceptionAction::Abort => actions.push(ControlAction::Kill {
                    id: q.id,
                    resubmit: false,
                }),
                ExceptionAction::Demote => {
                    if q.weight > self.penalty_weight {
                        actions.push(ControlAction::SetWeight(q.id, self.penalty_weight));
                    }
                }
            }
        }
        actions
    }
}

/// What the regulator did, reconstructed from the event bus.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegulatorLog {
    /// `(time, workload)` of exception aborts.
    pub aborts: Vec<(SimTime, String)>,
    /// `(time, workload, new_weight)` of exception demotions.
    pub demotes: Vec<(SimTime, String, f64)>,
    /// `(time, workload)` of requests sent to the delay queue.
    pub delayed: Vec<(SimTime, String)>,
}

/// Bus-fed monitor of regulator activity: records exception aborts and
/// demotions attributed to the regulator, plus delay-queue entries.
/// Clone the handle freely — all clones share one log.
#[derive(Debug, Clone, Default)]
pub struct RegulatorMonitor {
    state: Rc<RefCell<RegulatorLog>>,
}

impl RegulatorMonitor {
    /// New monitor with an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of the log so far.
    pub fn log(&self) -> RegulatorLog {
        self.state.borrow().clone()
    }
}

impl EventSubscriber for RegulatorMonitor {
    fn on_event(&mut self, event: &WlmEvent) {
        match event {
            WlmEvent::Killed {
                at, workload, by, ..
            } if *by == "Teradata Regulator" => {
                self.state.borrow_mut().aborts.push((*at, workload.clone()));
            }
            WlmEvent::Reprioritized {
                at,
                workload,
                weight,
                by,
                ..
            } if *by == "Teradata Regulator" => {
                self.state
                    .borrow_mut()
                    .demotes
                    .push((*at, workload.clone(), *weight));
            }
            WlmEvent::Deferred { at, workload, .. } => {
                self.state
                    .borrow_mut()
                    .delayed
                    .push((*at, workload.clone()));
            }
            _ => {}
        }
    }
}

/// The Teradata ASM facility.
pub struct TeradataAsm {
    /// Filter rules.
    pub filters: Vec<Filter>,
    /// Throttle rules.
    pub throttles: Vec<Throttle>,
    /// Workload definitions.
    pub definitions: Vec<WorkloadDefinition>,
    monitor: RegulatorMonitor,
}

impl TeradataAsm {
    /// New, empty facility.
    pub fn new() -> Self {
        TeradataAsm {
            filters: Vec::new(),
            throttles: Vec::new(),
            definitions: Vec::new(),
            monitor: RegulatorMonitor::new(),
        }
    }

    /// The regulator's activity monitor (shared handle; live during and
    /// after a run of any manager produced by [`TeradataAsm::build`]).
    pub fn regulator_monitor(&self) -> RegulatorMonitor {
        self.monitor.clone()
    }

    /// Wire the rules into the manager assembled from `builder` (the
    /// regulator).
    ///
    /// # Errors
    ///
    /// Fails with [`Error::Config`] when the builder's configuration is
    /// invalid.
    pub fn build(&self, builder: WlmBuilder) -> Result<WorkloadManager, Error> {
        let mut builder = builder;
        // SLGs become workload policies.
        for def in &self.definitions {
            let mut policy = wlm_core::policy::WorkloadPolicy::new(&def.name, Importance::Medium);
            policy.weight = Some(def.priority_weight);
            if let Some(slg) = &def.slg {
                policy.sla = slg.clone();
            }
            builder = builder.policy(policy);
        }
        let mut mgr = builder.build()?;

        // Classification: who/what criteria, first match wins.
        let defs = self.definitions.clone();
        let characterizer = StaticCharacterizer::new(Vec::new())
            .with_default("WD-Default")
            .with_criteria_fn(Box::new(move |req, est| {
                defs.iter()
                    .find(|d| {
                        let who = d
                            .who_application
                            .as_ref()
                            .is_none_or(|a| *a == req.origin.application);
                        let min = d.what_min_est_secs.is_none_or(|s| est.exec_secs >= s);
                        let max = d.what_max_est_secs.is_none_or(|s| est.exec_secs < s);
                        who && min && max
                    })
                    .map(|d| d.name.clone())
            }));
        mgr.set_characterizer(Box::new(characterizer));
        mgr.set_admission(Box::new(TeradataGate {
            filters: self.filters.clone(),
            throttles: self.throttles.clone(),
            definitions: self.definitions.clone(),
        }));
        mgr.add_exec_controller(Box::new(TeradataRegulator {
            definitions: self.definitions.clone(),
            penalty_weight: 0.1,
        }));

        // Monitoring: the regulator monitor subscribes to the manager's
        // event bus and reconstructs the regulator's activity from it.
        mgr.subscribe(Box::new(self.monitor.clone()));
        Ok(mgr)
    }

    /// A representative configuration: tactical vs. strategic vs. background
    /// definitions, a resource filter and a utility throttle.
    pub fn example() -> Self {
        let mut asm = TeradataAsm::new();
        asm.filters = vec![Filter::QueryResource {
            max_est_rows: None,
            max_est_secs: Some(600.0),
        }];
        asm.throttles = vec![Throttle::Utility { limit: 1 }];
        asm.definitions = vec![
            WorkloadDefinition {
                name: "WD-Tactical".into(),
                who_application: Some("pos_terminal".into()),
                what_min_est_secs: None,
                what_max_est_secs: None,
                priority_weight: 8.0,
                concurrency_throttle: None,
                exception: None,
                slg: Some(ServiceLevelAgreement::percentile(95.0, 1.0)),
            },
            WorkloadDefinition {
                name: "WD-Strategic".into(),
                who_application: None,
                what_min_est_secs: None,
                what_max_est_secs: Some(60.0),
                priority_weight: 3.0,
                concurrency_throttle: Some(8),
                exception: Some((
                    ExceptionCriteria {
                        max_elapsed_secs: 120.0,
                    },
                    ExceptionAction::Demote,
                )),
                slg: Some(ServiceLevelAgreement::avg_response(60.0)),
            },
            WorkloadDefinition {
                name: "WD-Background".into(),
                who_application: None,
                what_min_est_secs: Some(60.0),
                what_max_est_secs: None,
                priority_weight: 1.0,
                concurrency_throttle: Some(2),
                exception: Some((
                    ExceptionCriteria {
                        max_elapsed_secs: 900.0,
                    },
                    ExceptionAction::Abort,
                )),
                slg: None,
            },
        ];
        asm
    }
}

impl Default for TeradataAsm {
    fn default() -> Self {
        Self::new()
    }
}

impl Facility for TeradataAsm {
    fn table4_row(&self) -> Table4Row {
        Table4Row {
            system: "Teradata Active System Management",
            characterization:
                "Teradata workload analyzer recommends a workload for a class of queries",
            admission:
                "Filters & throttles reject requests and control request concurrency levels",
            execution:
                "Teradata DWM allocates resources per the workload definition; rules monitor and control execution behaviour",
            techniques: vec![
                ("Workload Definition", TechniqueClass::WorkloadCharacterization),
                ("Query Cost", TechniqueClass::AdmissionControl),
                ("MPLs", TechniqueClass::AdmissionControl),
                ("Query Kill", TechniqueClass::ExecutionControl),
            ],
        }
    }
}

/// The Teradata workload analyzer: recommends candidate workload
/// definitions by analyzing DBQL data — grouping the log's weighted query
/// templates along the dimensions application × processing-time band, and
/// supporting merge/split refinement of the candidates.
#[derive(Debug, Clone, Default)]
pub struct WorkloadAnalyzer {
    /// Band boundaries on true execution seconds.
    pub time_bands: Vec<f64>,
}

/// One candidate workload recommendation.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateWorkload {
    /// Suggested definition name.
    pub name: String,
    /// Source application dimension.
    pub application: String,
    /// Time-band index the group fell into.
    pub band: usize,
    /// Number of log entries backing the candidate.
    pub support: usize,
    /// Mean observed response, seconds (basis for a recommended SLG).
    pub mean_response_secs: f64,
}

impl WorkloadAnalyzer {
    /// Analyzer with the default 1s/60s bands (tactical / strategic /
    /// background).
    pub fn new() -> Self {
        WorkloadAnalyzer {
            time_bands: vec![1.0, 60.0],
        }
    }

    fn band_of(&self, exec_secs: f64) -> usize {
        self.time_bands
            .iter()
            .position(|b| exec_secs < *b)
            .unwrap_or(self.time_bands.len())
    }

    /// Recommend candidate workload definitions from a query log. The log
    /// holds weighted templates, each within a quarter octave of true work,
    /// so a template is banded as a whole by its mean work.
    pub fn recommend(&self, log: &QueryLog) -> Vec<CandidateWorkload> {
        use std::collections::BTreeMap;
        let mut groups: BTreeMap<(&str, usize), (u64, u64)> = BTreeMap::new();
        for t in log.templates() {
            let band = self.band_of(t.mean_work_secs());
            let (support, response_sum_us) = groups
                .entry((t.representative.origin.application.as_str(), band))
                .or_default();
            *support += t.weight;
            *response_sum_us += t.response_sum_us;
        }
        groups
            .into_iter()
            .map(
                |((application, band), (support, response_sum_us))| CandidateWorkload {
                    name: format!("WD-{application}-band{band}"),
                    application: application.to_string(),
                    band,
                    support: support as usize,
                    mean_response_secs: response_sum_us as f64 / support as f64 / 1e6,
                },
            )
            .collect()
    }

    /// Merge two candidates into one (user refinement).
    pub fn merge(a: &CandidateWorkload, b: &CandidateWorkload, name: &str) -> CandidateWorkload {
        let support = a.support + b.support;
        CandidateWorkload {
            name: name.into(),
            application: if a.application == b.application {
                a.application.clone()
            } else {
                "mixed".into()
            },
            band: a.band.min(b.band),
            support,
            mean_response_secs: (a.mean_response_secs * a.support as f64
                + b.mean_response_secs * b.support as f64)
                / support as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlm_dbsim::engine::EngineConfig;
    use wlm_dbsim::optimizer::CostModel;
    use wlm_dbsim::time::SimDuration;
    use wlm_workload::generators::{BiSource, OltpSource, UtilitySource};
    use wlm_workload::mix::MixedSource;

    fn builder() -> WlmBuilder {
        WlmBuilder::new()
            .engine(EngineConfig {
                cores: 4,
                ..Default::default()
            })
            .cost_model(CostModel::oracle())
    }

    #[test]
    fn classification_routes_by_who_and_what() {
        let asm = TeradataAsm::example();
        let mut mgr = asm.build(builder()).expect("valid configuration");
        let mut mix = MixedSource::new()
            .with(Box::new(OltpSource::new(10.0, 1)))
            .with(Box::new(BiSource::new(1.0, 2)));
        let report = mgr.run(&mut mix, SimDuration::from_secs(30));
        assert!(report.workload("WD-Tactical").is_some(), "pos -> tactical");
        // BI queries land in strategic or background depending on size.
        assert!(
            report.workload("WD-Strategic").is_some() || report.workload("WD-Background").is_some()
        );
    }

    #[test]
    fn resource_filter_rejects_monsters() {
        let mut asm = TeradataAsm::example();
        asm.filters = vec![Filter::QueryResource {
            max_est_rows: None,
            max_est_secs: Some(5.0),
        }];
        let mut mgr = asm.build(builder()).expect("valid configuration");
        let mut src = BiSource::new(2.0, 3);
        let report = mgr.run(&mut src, SimDuration::from_secs(30));
        assert!(report.rejected > 0);
    }

    #[test]
    fn utility_throttle_serializes_utilities() {
        let asm = TeradataAsm::example();
        let mut mgr = asm.build(builder()).expect("valid configuration");
        let mut mix = MixedSource::new()
            .with(Box::new(UtilitySource::new(
                wlm_dbsim::time::SimTime::ZERO,
                5.0,
                0,
            )))
            .with(Box::new(UtilitySource::new(
                wlm_dbsim::time::SimTime(1_000),
                5.0,
                0,
            )));
        // Both utilities map to the same workload; the throttle (limit 1)
        // must serialize them: peak utility MPL never exceeds 1.
        let mut peak = 0;
        let deadline = SimDuration::from_secs(30);
        let t0 = mgr.now();
        while mgr.now().since(t0) < deadline {
            mgr.tick(&mut mix);
            peak = peak.max(mgr.engine().mpl());
        }
        assert!(peak <= 1, "utilities must be serialized, peak {peak}");
        // The second utility went through the delay queue, and the monitor
        // saw it.
        assert!(
            !asm.regulator_monitor().log().delayed.is_empty(),
            "the throttle's delay queue shows up in the regulator log"
        );
    }

    #[test]
    fn exception_abort_kills_overdue_background_work() {
        let mut asm = TeradataAsm::example();
        // Tighten the background exception to fire within the test window.
        for d in &mut asm.definitions {
            if d.name == "WD-Background" {
                d.exception = Some((
                    ExceptionCriteria {
                        max_elapsed_secs: 5.0,
                    },
                    ExceptionAction::Abort,
                ));
            }
        }
        let mut mgr = asm.build(builder()).expect("valid configuration");
        let mut src = BiSource::new(1.0, 4).with_size(50_000_000.0, 0.3);
        let report = mgr.run(&mut src, SimDuration::from_secs(40));
        assert!(report.killed > 0, "background monsters must be aborted");
        // The bus-fed monitor reconstructs the same aborts.
        let log = asm.regulator_monitor().log();
        assert_eq!(
            log.aborts.len() as u64,
            report.killed,
            "the regulator log records every abort"
        );
        assert!(log
            .aborts
            .iter()
            .all(|(_, w)| w == "WD-Background" || w == "WD-Strategic"));
    }

    #[test]
    fn analyzer_recommends_candidates_from_dbql() {
        // Build a log through a short unmanaged run.
        let mut mgr = builder().build().expect("valid configuration");
        let mut mix = MixedSource::new()
            .with(Box::new(OltpSource::new(20.0, 5)))
            .with(Box::new(BiSource::new(2.0, 6)));
        mgr.run(&mut mix, SimDuration::from_secs(20));
        let wa = WorkloadAnalyzer::new();
        let candidates = wa.recommend(mgr.query_log());
        assert!(candidates.len() >= 2, "candidates: {candidates:?}");
        // OLTP work lands in band 0, BI in higher bands.
        let pos = candidates
            .iter()
            .find(|c| c.application == "pos_terminal")
            .expect("pos candidate");
        assert_eq!(pos.band, 0);
        let report_app = candidates
            .iter()
            .filter(|c| c.application == "report_studio")
            .max_by_key(|c| c.band)
            .expect("bi candidate");
        assert!(report_app.band >= 1, "some BI work is beyond band 0");
        // Merge refinement.
        let merged = WorkloadAnalyzer::merge(pos, report_app, "WD-Merged");
        assert_eq!(merged.support, pos.support + report_app.support);
        assert_eq!(merged.name, "WD-Merged");
    }
}
