//! E16/E17 — resilience under injected faults.
//!
//! E16 is the ablation behind the taxonomy's execution-control claim that
//! *reactive* control (kill, hold, shed) must be paired with *recovery*
//! mechanisms to protect SLAs through a fault: the same faulted scenario
//! runs with timeouts only ("no-retry"), with retry budgets, and with the
//! full stack (retry + circuit breakers + degradation ladder), counting
//! SLA violations (goal misses, kills and rejections of the SLA-bearing
//! workloads) under each.
//!
//! E17 replays a compound fault (IO collapse + core loss + flash crowd +
//! lock storm) against the full stack and reports the three phases —
//! pre-fault, fault, recovery — to show degradation is bounded and
//! service is restored.

use serde::Serialize;
use wlm_chaos::{run_with_chaos, ChaosDriver, FaultPlan, FaultPlanBuilder};
use wlm_core::api::WlmBuilder;
use wlm_core::manager::{RunReport, WorkloadManager};
use wlm_core::policy::WorkloadPolicy;
use wlm_core::resilience::{BreakerConfig, LadderConfig, ResilienceConfig, RetryPolicy};
use wlm_core::scheduling::PriorityScheduler;
use wlm_dbsim::engine::EngineConfig;
use wlm_dbsim::metrics::DurationHistogram;
use wlm_dbsim::optimizer::CostModel;
use wlm_dbsim::time::{SimDuration, SimTime};
use wlm_workload::generators::{AdHocSource, BiSource, OltpSource, SurgeSource};
use wlm_workload::mix::MixedSource;
use wlm_workload::request::Importance;
use wlm_workload::sla::ServiceLevelAgreement;

/// One resilience stack's outcome under the shared fault plan.
#[derive(Debug, Clone, Serialize)]
pub struct E16Variant {
    /// Stack name (`no-retry`, `retry`, `retry+breaker+ladder`).
    pub variant: &'static str,
    /// Goal misses + kills + rejections across the SLA-bearing workloads
    /// (oltp and bi; best-effort ad-hoc sheds are free by definition).
    pub sla_violations: u64,
    /// Goal misses alone (completions over the tightest response target).
    pub goal_violations: u64,
    /// Kills (timeouts that exhausted or lacked a retry budget).
    pub killed: u64,
    /// Admission-gate and ladder rejections.
    pub rejected: u64,
    /// Total completions across all workloads.
    pub completed: u64,
    /// OLTP 95th-percentile response, seconds.
    pub oltp_p95: f64,
    /// Retries the stack scheduled (0 when retries are off).
    pub retries_scheduled: u64,
    /// Requests dropped after exhausting their budget.
    pub retries_exhausted: u64,
    /// Circuit-breaker state transitions (0 when breakers are off).
    pub breaker_transitions: u64,
    /// Degradation-ladder rung moves (0 when the ladder is off).
    pub ladder_steps: u64,
}

/// Result of E16.
#[derive(Debug, Clone, Serialize)]
pub struct E16Result {
    /// The seed behind the fault plan and arrival streams.
    pub seed: u64,
    /// Ablation variants, weakest stack first.
    pub variants: Vec<E16Variant>,
}

/// One phase of the E17 timeline.
#[derive(Debug, Clone, Serialize)]
pub struct E17Phase {
    /// Phase name (`pre-fault`, `fault`, `recovery`).
    pub phase: &'static str,
    /// OLTP completions inside the phase.
    pub oltp_completions: u64,
    /// Mean OLTP response over the phase, seconds.
    pub oltp_mean: f64,
    /// 95th-percentile OLTP response over the phase, seconds.
    pub oltp_p95: f64,
    /// Goal misses (oltp + bi) inside the phase.
    pub goal_violations: u64,
}

/// Result of E17.
#[derive(Debug, Clone, Serialize)]
pub struct E17Result {
    /// The seed behind the fault plan and arrival streams.
    pub seed: u64,
    /// Pre-fault / fault / recovery phases.
    pub phases: Vec<E17Phase>,
    /// Retries scheduled over the run.
    pub retries_scheduled: u64,
    /// Circuit-breaker state transitions over the run.
    pub breaker_transitions: u64,
    /// Degradation-ladder rung moves over the run.
    pub ladder_steps: u64,
    /// Fault-plan events applied.
    pub faults_applied: u64,
    /// Fault-plan events the engine rejected or that had no target.
    pub faults_skipped: u64,
}

fn manager() -> WorkloadManager {
    let mut mgr = WlmBuilder::new()
        .engine(EngineConfig {
            cores: 4,
            disk_pages_per_sec: 20_000,
            memory_mb: 4_096,
            ..Default::default()
        })
        .cost_model(CostModel::oracle())
        .policies(vec![
            WorkloadPolicy::new("oltp", Importance::High)
                .with_sla(ServiceLevelAgreement::percentile(95.0, 12.0)),
            WorkloadPolicy::new("bi", Importance::Medium)
                .with_sla(ServiceLevelAgreement::avg_response(60.0)),
            WorkloadPolicy::new("adhoc", Importance::Low)
                .with_sla(ServiceLevelAgreement::best_effort()),
        ])
        .build()
        .expect("valid configuration");
    mgr.set_scheduler(Box::new(PriorityScheduler::new(12)));
    mgr
}

fn mix(seed: u64) -> MixedSource {
    MixedSource::new()
        .with(Box::new(OltpSource::new(25.0, seed)))
        .with(Box::new(BiSource::new(1.0, seed + 1)))
        .with(Box::new(AdHocSource::new(2.0, seed + 2)))
}

/// The shared E16 fault window: disk collapses to 8% of nominal and three
/// of four cores go offline for eight seconds mid-run.
fn e16_plan(seed: u64) -> FaultPlan {
    FaultPlanBuilder::new(seed)
        .io_spike(15.0, 8.0, 0.08)
        .core_loss(15.0, 8.0, 3)
        .build()
}

/// Violations of the SLA-bearing workloads: goal misses plus kills plus
/// rejections for oltp and bi.
fn sla_violations(mgr: &WorkloadManager, report: &RunReport) -> (u64, u64, u64, u64) {
    let mut goals = 0;
    let mut killed = 0;
    let mut rejected = 0;
    for name in ["oltp", "bi"] {
        goals += mgr.goal_violations_in(name);
        if let Some(w) = report.workload(name) {
            killed += w.stats.killed;
            rejected += w.stats.rejected;
        }
    }
    (goals + killed + rejected, goals, killed, rejected)
}

fn run_variant(variant: &'static str, seed: u64, resilience: ResilienceConfig) -> E16Variant {
    let mut mgr = manager();
    mgr.set_resilience(resilience);
    let mut src = mix(seed);
    let mut driver = ChaosDriver::new(e16_plan(seed));
    let report = run_with_chaos(&mut mgr, &mut src, SimDuration::from_secs(45), &mut driver);
    let (sla_violations, goal_violations, killed, rejected) = sla_violations(&mgr, &report);
    let res = mgr.resilience_report().expect("resilience layer enabled");
    E16Variant {
        variant,
        sla_violations,
        goal_violations,
        killed,
        rejected,
        completed: report.completed,
        oltp_p95: report.workload("oltp").map_or(f64::NAN, |w| w.summary.p95),
        retries_scheduled: res.retries_scheduled,
        retries_exhausted: res.retries_exhausted,
        breaker_transitions: res.breaker_transitions,
        ladder_steps: res.ladder_steps,
    }
}

/// Run E16: the resilience ablation. Every variant sees the identical
/// fault plan, arrival streams and 3-second OLTP timeout; they differ
/// only in what happens after a timeout kill.
pub fn e16_resilience_ablation(seed: u64) -> E16Result {
    let base = || ResilienceConfig::new(seed).with_timeout("oltp", 3.0);
    let variants = vec![
        run_variant("no-retry", seed, base()),
        run_variant("retry", seed, base().with_retry(RetryPolicy::aggressive())),
        run_variant(
            "retry+breaker+ladder",
            seed,
            base()
                .with_retry(RetryPolicy::aggressive())
                .with_breaker(BreakerConfig::default())
                .with_ladder(LadderConfig::default()),
        ),
    ];
    E16Result { seed, variants }
}

impl E16Result {
    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "E16 — resilience ablation under an 8s IO+CPU fault (seed {})\n  stack                   violations   goals   kills   rejects   oltp p95   retries\n",
            self.seed
        );
        for v in &self.variants {
            out.push_str(&format!(
                "  {:<22}  {:>9}   {:>5}   {:>5}   {:>7}   {:>7.2}s   {:>7}\n",
                v.variant,
                v.sla_violations,
                v.goal_violations,
                v.killed,
                v.rejected,
                v.oltp_p95,
                v.retries_scheduled
            ));
        }
        out.push_str(
            "  retry turns timeout kills into delayed completions; the breaker and\n  ladder keep the retry storm off the degraded engine\n",
        );
        out
    }
}

/// Run E17: a compound fault (IO collapse + core loss + flash crowd +
/// lock storm) against the full resilience stack, reported in three
/// phases.
pub fn e17_fault_recovery(seed: u64) -> E17Result {
    let mut mgr = manager();
    mgr.set_resilience(
        ResilienceConfig::new(seed)
            .with_timeout("oltp", 3.0)
            .with_retry(RetryPolicy::aggressive())
            .with_breaker(BreakerConfig::default())
            .with_ladder(LadderConfig::default()),
    );
    let (mut src, handle) = SurgeSource::new(Box::new(mix(seed)), seed + 3);
    let plan = FaultPlanBuilder::new(seed)
        .io_spike(15.0, 10.0, 0.15)
        .core_loss(16.0, 8.0, 2)
        .flash_crowd(15.0, 10.0, 3.0)
        .lock_storm(18.0, 12, 4, 24, 1.5)
        .build();
    let mut driver = ChaosDriver::new(plan).with_surge(handle);
    let mut phases = Vec::new();
    // A phase is the difference of two snapshots of the cumulative books.
    let mut seen_responses = DurationHistogram::default();
    let mut seen_goals = 0u64;
    for (phase, until_secs) in [("pre-fault", 15u64), ("fault", 30), ("recovery", 60)] {
        let target = SimTime(until_secs * 1_000_000);
        let remaining = target.since(mgr.now());
        run_with_chaos(&mut mgr, &mut src, remaining, &mut driver);
        let report = mgr.report();
        let responses = report
            .workload("oltp")
            .map(|w| w.stats.responses.clone())
            .unwrap_or_default();
        let window = responses.since(&seen_responses);
        let goals = mgr.goal_violations_in("oltp") + mgr.goal_violations_in("bi");
        phases.push(E17Phase {
            phase,
            oltp_completions: window.count(),
            oltp_mean: window.mean_secs(),
            oltp_p95: window.percentile_secs(95.0),
            goal_violations: goals - seen_goals,
        });
        seen_responses = responses;
        seen_goals = goals;
    }
    let res = mgr.resilience_report().expect("resilience layer enabled");
    E17Result {
        seed,
        phases,
        retries_scheduled: res.retries_scheduled,
        breaker_transitions: res.breaker_transitions,
        ladder_steps: res.ladder_steps,
        faults_applied: driver.applied(),
        faults_skipped: driver.skipped(),
    }
}

impl E17Result {
    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "E17 — SLA recovery through a compound fault, full stack (seed {})\n  phase        oltp done   mean        p95        goal misses\n",
            self.seed
        );
        for p in &self.phases {
            out.push_str(&format!(
                "  {:<10}   {:>8}   {:>7.3}s   {:>7.3}s   {:>10}\n",
                p.phase, p.oltp_completions, p.oltp_mean, p.oltp_p95, p.goal_violations
            ));
        }
        out.push_str(&format!(
            "  {} retries, {} breaker transitions, {} ladder steps; {} fault events applied\n",
            self.retries_scheduled,
            self.breaker_transitions,
            self.ladder_steps,
            self.faults_applied
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_stack_strictly_beats_no_retry() {
        let r = e16_resilience_ablation(7);
        assert_eq!(r.variants.len(), 3);
        let none = &r.variants[0];
        let full = &r.variants[2];
        // The acceptance claim: the full stack achieves strictly fewer SLA
        // violations than timeouts alone under the same fault plan.
        assert!(
            full.sla_violations < none.sla_violations,
            "full {} vs no-retry {}",
            full.sla_violations,
            none.sla_violations
        );
        // The fault actually hurt the unprotected stack...
        assert!(none.sla_violations > 0, "fault plan must bite");
        // ...and each mechanism actually engaged.
        assert_eq!(none.retries_scheduled, 0);
        assert!(full.retries_scheduled > 0, "retries engaged");
        assert!(full.breaker_transitions > 0, "breaker engaged");
    }

    #[test]
    fn fault_phase_degrades_and_recovery_restores() {
        let r = e17_fault_recovery(11);
        assert_eq!(r.faults_skipped, 0, "every planned fault must land");
        assert_eq!(r.faults_applied, 7, "4 windows: 3 paired + 1 storm");
        let [pre, fault, post] = &r.phases[..] else {
            panic!("three phases expected");
        };
        assert!(pre.oltp_completions > 0 && post.oltp_completions > 0);
        // Degradation during the fault window...
        assert!(
            fault.oltp_mean > pre.oltp_mean * 2.0,
            "fault {} vs pre {}",
            fault.oltp_mean,
            pre.oltp_mean
        );
        // ...and recovery after it.
        assert!(
            post.oltp_mean < fault.oltp_mean,
            "post {} vs fault {}",
            post.oltp_mean,
            fault.oltp_mean
        );
    }

    #[test]
    fn e16_is_deterministic_per_seed() {
        let a = serde_json::to_string(&e16_resilience_ablation(3)).unwrap();
        let b = serde_json::to_string(&e16_resilience_ablation(3)).unwrap();
        assert_eq!(a, b);
    }
}
