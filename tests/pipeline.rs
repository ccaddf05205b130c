//! End-to-end integration tests: full workload-management pipelines over
//! the simulated engine, spanning every crate.

use wlm::core::admission::ThresholdAdmission;
use wlm::core::api::WlmBuilder;
use wlm::core::autonomic::{AutonomicController, GoalSpec};
use wlm::core::execution::{LoadShedSuspender, PriorityAging, ThresholdKiller};
use wlm::core::policy::{AdmissionPolicy, AdmissionViolationAction, WorkloadPolicy};
use wlm::core::scheduling::ServiceClassConfig;
use wlm::core::scheduling::{PriorityScheduler, Restructurer, UtilityScheduler};
use wlm::dbsim::engine::EngineConfig;
use wlm::dbsim::optimizer::CostModel;
use wlm::dbsim::time::SimDuration;
use wlm::workload::generators::{AdHocSource, BiSource, ClosedLoopOltpSource, OltpSource};
use wlm::workload::mix::MixedSource;
use wlm::workload::request::Importance;
use wlm::workload::sla::ServiceLevelAgreement;

fn base_builder() -> WlmBuilder {
    WlmBuilder::new()
        .engine(EngineConfig {
            cores: 8,
            memory_mb: 2_048,
            ..Default::default()
        })
        .cost_model(CostModel::oracle())
        .policies([
            WorkloadPolicy::new("oltp", Importance::High)
                .with_sla(ServiceLevelAgreement::percentile(95.0, 0.5)),
            WorkloadPolicy::new("bi", Importance::Medium),
        ])
}

#[test]
fn full_stack_protects_oltp_under_bi_pressure() {
    let mut mgr = base_builder().build().expect("valid configuration");
    mgr.set_scheduler(Box::new(PriorityScheduler::new(32)));
    mgr.set_admission(Box::new(ThresholdAdmission::default().with_policy(
        "bi",
        AdmissionPolicy {
            max_workload_mpl: Some(4),
            on_violation: AdmissionViolationAction::Defer,
            ..Default::default()
        },
    )));
    mgr.add_exec_controller(Box::new(PriorityAging::new(60.0)));
    let mut mix = MixedSource::new()
        .with(Box::new(OltpSource::new(40.0, 1)))
        .with(Box::new(BiSource::new(2.0, 2).with_size(10_000_000.0, 0.8)));
    let report = mgr.run(&mut mix, SimDuration::from_secs(60));
    let oltp = report.workload("oltp").expect("oltp present");
    assert!(oltp.sla.met(), "oltp SLA: {:?}", oltp.sla);
    assert!(report.workload("bi").is_some());
    assert!(report.completed > 1000);
}

#[test]
fn utility_scheduler_and_killer_compose() {
    let mut mgr = base_builder().build().expect("valid configuration");
    mgr.set_scheduler(Box::new(UtilityScheduler::new(
        vec![
            ServiceClassConfig {
                workload: "oltp".into(),
                goal_secs: 0.5,
                importance_weight: 8.0,
            },
            ServiceClassConfig {
                workload: "bi".into(),
                goal_secs: 60.0,
                importance_weight: 2.0,
            },
        ],
        30_000_000.0,
    )));
    mgr.add_exec_controller(Box::new(ThresholdKiller::new(15.0)));
    let mut mix = MixedSource::new()
        .with(Box::new(OltpSource::new(30.0, 3)))
        .with(Box::new(BiSource::new(1.5, 4).with_size(20_000_000.0, 1.0)));
    let report = mgr.run(&mut mix, SimDuration::from_secs(90));
    let oltp = report.workload("oltp").expect("oltp present");
    assert!(oltp.sla.met());
    assert!(report.killed > 0, "some monsters should have died");
}

#[test]
fn restructuring_pipeline_preserves_work_accounting() {
    let mut mgr = base_builder().build().expect("valid configuration");
    mgr.set_restructurer(Restructurer {
        slice_threshold_timerons: 2_000_000.0,
        target_piece_timerons: 1_000_000.0,
        max_pieces: 8,
    });
    let mut src = AdHocSource::new(0.5, 5);
    let report = mgr.run(&mut src, SimDuration::from_secs(120));
    let adhoc = report.workload("adhoc").expect("adhoc ran");
    // Each completed original query is recorded exactly once (the final
    // piece), despite running as several engine queries.
    assert!(adhoc.stats.completed > 0);
    assert_eq!(adhoc.stats.completed, adhoc.stats.responses.count());
    // Responses span the whole chain: no piece-level (tiny) responses.
    assert!(adhoc.summary.p50 > 1.0, "p50 {}", adhoc.summary.p50);
}

#[test]
fn suspension_pipeline_round_trips_queries() {
    let mut mgr = base_builder()
        .resume_when_running_below(8)
        .build()
        .expect("valid configuration");
    let shedder = LoadShedSuspender {
        pressure_threshold: 3,
        min_remaining_us: 500_000,
        ..Default::default()
    };
    mgr.add_exec_controller(Box::new(shedder));
    let mut mix = MixedSource::new()
        .with(Box::new(OltpSource::new(30.0, 6)))
        .with(Box::new(
            BiSource::new(1.0, 7)
                .with_size(8_000_000.0, 0.5)
                .with_importance(Importance::Low),
        ));
    let report = mgr.run(&mut mix, SimDuration::from_secs(90));
    let bi = report.workload("bi").expect("bi present");
    assert!(bi.stats.suspended > 0, "suspensions should have happened");
    assert!(report.suspend_overhead_us > 0);
    // Suspended queries come back: the system is not leaking work.
    assert!(bi.stats.completed > 0);
    // The overhead each suspended request paid lands in its workload's
    // book once the request leaves the system (this was once dropped on
    // the floor by a dead store at resume).
    assert!(
        bi.stats.suspend_overhead_us > 0,
        "per-workload suspend overhead must be banked"
    );
    let banked: u64 = report
        .workloads
        .iter()
        .map(|w| w.stats.suspend_overhead_us)
        .sum();
    assert!(
        banked <= report.suspend_overhead_us,
        "workload books ({banked}) only hold overhead already paid globally ({})",
        report.suspend_overhead_us
    );
}

#[test]
fn autonomic_loop_with_closed_loop_oltp() {
    let mut mgr = base_builder().build().expect("valid configuration");
    mgr.add_exec_controller(Box::new(AutonomicController::new(vec![GoalSpec {
        workload: "oltp_closed".into(),
        goal_secs: 0.5,
        importance_weight: 10.0,
    }])));
    let mut mix = MixedSource::new()
        .with(Box::new(ClosedLoopOltpSource::new(20, 0.2, 8)))
        .with(Box::new(BiSource::new(1.0, 9).with_size(15_000_000.0, 0.6)));
    let report = mgr.run(&mut mix, SimDuration::from_secs(60));
    let oltp = report.workload("oltp_closed").expect("closed loop ran");
    // Closed-loop sources recycle terminals, so completions must far exceed
    // the 20 terminals.
    assert!(
        oltp.stats.completed > 100,
        "completed {}",
        oltp.stats.completed
    );
}

#[test]
fn rejections_are_accounted_per_workload() {
    let mut mgr = base_builder().build().expect("valid configuration");
    mgr.set_admission(Box::new(ThresholdAdmission::default().with_policy(
        "bi",
        AdmissionPolicy {
            max_cost_timerons: Some(1_000.0), // rejects everything
            on_violation: AdmissionViolationAction::Reject,
            ..Default::default()
        },
    )));
    let mut mix = MixedSource::new()
        .with(Box::new(OltpSource::new(10.0, 10)))
        .with(Box::new(BiSource::new(2.0, 11)));
    let report = mgr.run(&mut mix, SimDuration::from_secs(30));
    let bi = report.workload("bi").expect("bi tracked");
    assert!(bi.stats.rejected > 0);
    assert_eq!(bi.stats.completed, 0);
    let oltp = report.workload("oltp").expect("oltp unaffected");
    assert_eq!(oltp.stats.rejected, 0);
    assert!(oltp.stats.completed > 0);
}

#[test]
fn query_log_feeds_the_workload_analyzer() {
    use wlm::systems::teradata::WorkloadAnalyzer;
    let mut mgr = base_builder().build().expect("valid configuration");
    let mut mix = MixedSource::new()
        .with(Box::new(OltpSource::new(30.0, 12)))
        .with(Box::new(BiSource::new(2.0, 13)));
    mgr.run(&mut mix, SimDuration::from_secs(30));
    assert!(!mgr.query_log().is_empty());
    let candidates = WorkloadAnalyzer::new().recommend(mgr.query_log());
    assert!(candidates.len() >= 2);
    let total_support: usize = candidates.iter().map(|c| c.support).sum();
    assert_eq!(total_support, mgr.query_log().len());
}

#[test]
fn dashboard_reflects_live_state_and_goal_violations() {
    // Same engine as `base_builder`, but the tight BI goal is the only
    // policy: the oltp row must stay violation-free.
    let mut mgr = WlmBuilder::new()
        .engine(EngineConfig {
            cores: 8,
            memory_mb: 2_048,
            ..Default::default()
        })
        .cost_model(CostModel::oracle())
        .policy(
            // An absurdly tight goal so violations definitely accrue.
            WorkloadPolicy::new("bi", Importance::Medium)
                .with_sla(ServiceLevelAgreement::avg_response(0.001)),
        )
        .build()
        .expect("valid configuration");
    let mut mix = MixedSource::new()
        .with(Box::new(OltpSource::new(20.0, 14)))
        .with(Box::new(BiSource::new(1.0, 15)));
    mgr.run(&mut mix, SimDuration::from_secs(20));
    let dash = mgr.dashboard();
    assert!(dash.workloads.contains_key("oltp"));
    assert!(dash.workloads.contains_key("bi"));
    let bi = &dash.workloads["bi"];
    assert!(
        bi.goal_violations > 0,
        "0.001s goal must be violated: {bi:?}"
    );
    let oltp = &dash.workloads["oltp"];
    assert_eq!(oltp.goal_violations, 0, "no goal configured, no violations");
    assert!(oltp.completed > 0);
    let rendered = dash.render();
    assert!(rendered.contains("oltp"));
    assert!(rendered.contains("VIOLATIONS"));
}

#[test]
fn policies_can_change_at_run_time() {
    let mut mgr = base_builder().build().expect("valid configuration");
    let mut src = BiSource::new(2.0, 16).with_size(2_000_000.0, 0.3);
    mgr.run(&mut src, SimDuration::from_secs(10));
    // Install a policy mid-run: future classifications pick up the weight.
    let mut policy = WorkloadPolicy::new("bi", Importance::Critical);
    policy.weight = Some(42.0);
    mgr.set_policy(policy);
    mgr.run(&mut src, SimDuration::from_secs(10));
    // The policy's SLA (none -> vacuously met) and classification applied
    // without a restart; the run just keeps going.
    let report = mgr.report();
    assert!(report.workload("bi").unwrap().stats.completed > 0);
}
