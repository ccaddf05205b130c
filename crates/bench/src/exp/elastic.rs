//! E24/E25 — overload robustness under flash crowds.
//!
//! E24 is the elasticity claim: an autoscaled shard pool riding a
//! flash-crowd trapezoid should hold its SLA violation rate within a
//! small margin of a statically over-provisioned cluster that keeps the
//! whole pool active for the entire run — while billing strictly fewer
//! shard-hours. The autoscaler spins shards up through the
//! spawning → warming lifecycle as the ramp builds pressure, and
//! drain-then-retires them through the exactly-once finished book once
//! the crowd disperses.
//!
//! E25 is the retry-storm ablation: the same surge hits a deliberately
//! small engine twice, once with the retry-release token bucket
//! ([`RetryBudgetConfig`]) and once without. Without the budget, every
//! timeout kill re-injects a retry whose backoff is shorter than the
//! queue it rejoins, so the storm keeps the engine saturated after the
//! fresh surge has passed; with the budget, retry releases are capped at
//! a fraction of fresh admissions and post-surge goodput recovers.

use serde::Serialize;
use wlm_cluster::{ClusterBuilder, ElasticConfig, RoutingPolicy};
use wlm_core::api::WlmBuilder;
use wlm_core::manager::WorkloadManager;
use wlm_core::policy::WorkloadPolicy;
use wlm_core::resilience::{ResilienceConfig, RetryBudgetConfig, RetryPolicy};
use wlm_core::scheduling::FcfsScheduler;
use wlm_dbsim::engine::EngineConfig;
use wlm_dbsim::optimizer::CostModel;
use wlm_dbsim::time::{SimDuration, SimTime};
use wlm_workload::generators::{OltpSource, SurgeRamp, SurgeSource};
use wlm_workload::request::Importance;
use wlm_workload::sla::ServiceLevelAgreement;

/// Shards in the E24 pool (the static arm keeps all of them active).
const E24_POOL: usize = 6;
/// Floor the E24 autoscaler may not drain below.
const E24_MIN_SHARDS: usize = 2;
/// Simulated run length of each E24 arm, seconds.
const E24_RUN_SECS: u64 = 60;
/// Baseline OLTP arrivals per second, before surge amplification.
const E24_BASE_RATE: f64 = 15.0;
/// Partitions the E24 key space is split into.
const E24_PARTITIONS: u64 = 32;
/// The E24 flash crowd: a 6× trapezoid with a gradual 8-second build-up
/// (the hysteresis-friendly onset the autoscaler is tuned against) and a
/// 15-second calm tail after the decay for drain-then-retire.
const E24_RAMP: SurgeRamp = SurgeRamp {
    start_secs: 15.0,
    ramp_secs: 8.0,
    hold_secs: 12.0,
    decay_secs: 5.0,
    peak: 6.0,
};
/// The violation-rate margin the autoscaled arm must stay within.
const E24_VIOLATION_MARGIN: f64 = 0.05;

/// Simulated run length of each E25 arm, seconds.
const E25_RUN_SECS: u64 = 45;
/// End of the E25 pre-surge phase (= surge ramp start), seconds.
const E25_PRE_END: u64 = 10;
/// End of the E25 surge phase (= ramp + hold + decay), seconds.
const E25_SURGE_END: u64 = 22;
/// Baseline OLTP arrivals per second in E25.
const E25_BASE_RATE: f64 = 20.0;
/// The E25 flash crowd: sharp 8× spike, 12 seconds door to door.
const E25_RAMP: SurgeRamp = SurgeRamp {
    start_secs: 10.0,
    ramp_secs: 2.0,
    hold_secs: 8.0,
    decay_secs: 2.0,
    peak: 8.0,
};

/// One provisioning arm's outcome in E24.
#[derive(Debug, Clone, Serialize)]
pub struct E24Row {
    /// Arm name (`static-over-provisioned`, `autoscaled`).
    pub variant: &'static str,
    /// Completions over the run.
    pub completed: u64,
    /// Aggregate throughput, completions/second.
    pub throughput: f64,
    /// OLTP response-goal violations.
    pub goal_violations: u64,
    /// Violations per completion — compared across arms under the margin.
    pub violation_rate: f64,
    /// Shard-seconds billed (non-retired shards × elapsed time) — the
    /// cost the autoscaled arm must strictly undercut.
    pub shard_seconds: f64,
    /// Shards spun up by the autoscaler (0 for the static arm).
    pub scale_ups: u64,
    /// Shards drained and retired by the autoscaler (0 for the static arm).
    pub scale_downs: u64,
}

/// Result of E24.
#[derive(Debug, Clone, Serialize)]
pub struct E24Result {
    /// The seed behind the arrival streams.
    pub seed: u64,
    /// Shards in the pool.
    pub pool: usize,
    /// The autoscaled arm's shard floor.
    pub min_shards: usize,
    /// Static arm first, autoscaled arm second.
    pub rows: Vec<E24Row>,
}

/// One phase of an E25 arm's timeline.
#[derive(Debug, Clone, Serialize)]
pub struct E25Phase {
    /// Phase name (`pre-surge`, `surge`, `post-surge`).
    pub phase: &'static str,
    /// OLTP completions inside the phase.
    pub completed: u64,
    /// Completions per second of phase time — the goodput the claim
    /// compares across phases.
    pub goodput: f64,
}

/// One retry-budget arm's outcome in E25.
#[derive(Debug, Clone, Serialize)]
pub struct E25Arm {
    /// Arm name (`unsuppressed`, `suppressed`).
    pub variant: &'static str,
    /// Pre-surge / surge / post-surge phases.
    pub phases: Vec<E25Phase>,
    /// Post-surge goodput over pre-surge goodput: 1.0 = full recovery.
    pub recovery: f64,
    /// Retries scheduled over the run.
    pub retries_scheduled: u64,
    /// Retry releases held back by the suppression bucket.
    pub retries_suppressed: u64,
    /// Requests dropped after exhausting their retry budget.
    pub retries_exhausted: u64,
    /// Timeout kills over the run.
    pub killed: u64,
}

/// Result of E25.
#[derive(Debug, Clone, Serialize)]
pub struct E25Result {
    /// The seed behind the arrival streams.
    pub seed: u64,
    /// Unsuppressed arm first, suppressed arm second.
    pub arms: Vec<E25Arm>,
}

/// An E24 shard: the comfortable E20 provisioning, so the claim isolates
/// *when shards are active*, not how strong each one is.
fn e24_shard(_shard: usize) -> WlmBuilder {
    WlmBuilder::new()
        .engine(EngineConfig {
            cores: 2,
            disk_pages_per_sec: 10_000,
            memory_mb: 2_048,
            ..Default::default()
        })
        .cost_model(CostModel::oracle())
        .policy(
            WorkloadPolicy::new("oltp", Importance::High)
                .with_sla(ServiceLevelAgreement::percentile(95.0, 2.0)),
        )
}

/// The E24 autoscaler tuning: a fast debounce (0.2 s at the 10 ms engine
/// quantum) so spin-up tracks the 8-second ramp, a 3-second calm window
/// before each drain, and a raised scale-down threshold so the light
/// baseline load actually parks the surge capacity again.
fn e24_elastic_cfg() -> ElasticConfig {
    ElasticConfig {
        min_shards: E24_MIN_SHARDS,
        ema_alpha: 0.3,
        scale_up_pressure: 0.8,
        scale_down_pressure: 0.5,
        sustain_ticks: 20,
        calm_ticks: 300,
        warmup_secs: 0.5,
        drain_grace_secs: 2.0,
        queue_target: 16.0,
    }
}

fn e24_run(seed: u64, elastic: Option<ElasticConfig>) -> E24Row {
    let variant = if elastic.is_some() {
        "autoscaled"
    } else {
        "static-over-provisioned"
    };
    let mut builder = ClusterBuilder::new()
        .shards(E24_POOL)
        .routing(RoutingPolicy::LeastOutstandingCost)
        .shard_builder(Box::new(e24_shard));
    if let Some(cfg) = elastic {
        builder = builder.elastic(cfg);
    }
    let mut cluster = builder.build().expect("valid configuration");
    let inner = OltpSource::new(E24_BASE_RATE, seed).with_partitions(E24_PARTITIONS);
    let (src, _handle) = SurgeSource::new(Box::new(inner), seed + 1);
    let mut src = src.with_ramp(E24_RAMP);
    let report = cluster.run(&mut src, SimDuration::from_secs(E24_RUN_SECS));
    let goal_violations = cluster.goal_violations_in("oltp");
    E24Row {
        variant,
        completed: report.completed,
        throughput: report.throughput,
        goal_violations,
        violation_rate: if report.completed > 0 {
            goal_violations as f64 / report.completed as f64
        } else {
            0.0
        },
        shard_seconds: report.shard_seconds,
        scale_ups: report.scale_ups,
        scale_downs: report.scale_downs,
    }
}

/// Run E24: the same flash-crowd trapezoid against a statically
/// over-provisioned pool and an autoscaled one.
pub fn e24_elastic_flash_crowd(seed: u64) -> E24Result {
    E24Result {
        seed,
        pool: E24_POOL,
        min_shards: E24_MIN_SHARDS,
        rows: vec![e24_run(seed, None), e24_run(seed, Some(e24_elastic_cfg()))],
    }
}

impl E24Result {
    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "E24 — elastic pool vs static over-provisioning, 6x flash crowd (seed {})\n  arm                       done   thrpt    goals   rate     shard-s   ups   downs\n",
            self.seed
        );
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<24}  {:>5}   {:>5.1}   {:>5}   {:>5.3}   {:>7.1}   {:>3}   {:>5}\n",
                r.variant,
                r.completed,
                r.throughput,
                r.goal_violations,
                r.violation_rate,
                r.shard_seconds,
                r.scale_ups,
                r.scale_downs
            ));
        }
        out.push_str(&format!(
            "  claim: autoscaled violation rate within {E24_VIOLATION_MARGIN} of static at strictly fewer shard-seconds\n",
        ));
        out
    }
}

/// The E25 engine: two cores behind a wide-open MPL, so an 8× surge
/// stretches every running query's residence past the 1-second timeout.
fn e25_manager() -> WorkloadManager {
    WlmBuilder::new()
        .engine(EngineConfig {
            cores: 2,
            disk_pages_per_sec: 4_000,
            memory_mb: 2_048,
            ..Default::default()
        })
        .cost_model(CostModel::oracle())
        .scheduler(Box::new(FcfsScheduler::new(24)))
        .policy(
            WorkloadPolicy::new("oltp", Importance::High)
                .with_sla(ServiceLevelAgreement::percentile(95.0, 2.0)),
        )
        .build()
        .expect("valid configuration")
}

/// The storm-prone retry policy both E25 arms share: a deep attempt
/// budget with a backoff ceiling *shorter* than the overloaded queue's
/// wait, so each kill re-injects before the queue can drain — the
/// self-sustaining feedback loop suppression must break.
fn e25_storm_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 24,
        base_backoff_secs: 0.2,
        max_backoff_secs: 1.0,
        multiplier: 1.5,
        jitter_frac: 0.2,
    }
}

fn e25_arm(variant: &'static str, seed: u64, budget: Option<RetryBudgetConfig>) -> E25Arm {
    let mut mgr = e25_manager();
    let mut res = ResilienceConfig::new(seed)
        .with_timeout("oltp", 1.0)
        .with_retry(e25_storm_policy());
    if let Some(b) = budget {
        res = res.with_retry_budget(b);
    }
    mgr.set_resilience(res);
    let inner = OltpSource::new(E25_BASE_RATE, seed);
    let (src, _handle) = SurgeSource::new(Box::new(inner), seed + 1);
    let mut src = src.with_ramp(E25_RAMP);
    let mut phases = Vec::new();
    let mut seen = 0u64;
    for (phase, until_secs) in [
        ("pre-surge", E25_PRE_END),
        ("surge", E25_SURGE_END),
        ("post-surge", E25_RUN_SECS),
    ] {
        let start_secs = mgr.now().as_secs_f64();
        let target = SimTime(until_secs * 1_000_000);
        mgr.run(&mut src, target.since(mgr.now()));
        let completed = mgr
            .report()
            .workload("oltp")
            .map_or(0, |w| w.stats.completed);
        let span = (until_secs as f64 - start_secs).max(f64::EPSILON);
        phases.push(E25Phase {
            phase,
            completed: completed - seen,
            goodput: (completed - seen) as f64 / span,
        });
        seen = completed;
    }
    let report = mgr.report();
    let res = mgr.resilience_report().expect("resilience layer enabled");
    let pre = phases[0].goodput;
    let post = phases[2].goodput;
    E25Arm {
        variant,
        phases,
        recovery: if pre > 0.0 { post / pre } else { 0.0 },
        retries_scheduled: res.retries_scheduled,
        retries_suppressed: res.retries_suppressed,
        retries_exhausted: res.retries_exhausted,
        killed: report.workload("oltp").map_or(0, |w| w.stats.killed),
    }
}

/// Run E25: the retry-storm ablation — identical engine, surge and
/// storm-prone retry policy, with and without the suppression bucket.
pub fn e25_retry_storm(seed: u64) -> E25Result {
    E25Result {
        seed,
        arms: vec![
            e25_arm("unsuppressed", seed, None),
            e25_arm("suppressed", seed, Some(RetryBudgetConfig::default())),
        ],
    }
}

impl E25Result {
    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "E25 — retry-storm suppression through an 8x surge (seed {})\n  arm            pre g/s   surge g/s   post g/s   recovery   retries   held   kills\n",
            self.seed
        );
        for a in &self.arms {
            out.push_str(&format!(
                "  {:<12}   {:>7.1}   {:>9.1}   {:>8.1}   {:>8.2}   {:>7}   {:>4}   {:>5}\n",
                a.variant,
                a.phases[0].goodput,
                a.phases[1].goodput,
                a.phases[2].goodput,
                a.recovery,
                a.retries_scheduled,
                a.retries_suppressed,
                a.killed
            ));
        }
        out.push_str(
            "  the budget caps retry releases at a fraction of fresh admissions, so the\n  queue the surge built drains instead of refilling itself\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0x5eed;

    #[test]
    fn autoscaled_pool_matches_static_sla_at_fewer_shard_hours() {
        let r = e24_elastic_flash_crowd(SEED);
        let [stat, auto] = &r.rows[..] else {
            panic!("two arms expected");
        };
        assert_eq!(stat.variant, "static-over-provisioned");
        assert_eq!(auto.variant, "autoscaled");
        assert!(stat.completed > 0 && auto.completed > 0);
        // The static arm never scales; the autoscaled lifecycle engaged in
        // both directions.
        assert_eq!(stat.scale_ups + stat.scale_downs, 0);
        assert!(auto.scale_ups > 0, "surge must trigger spin-up");
        assert!(auto.scale_downs > 0, "calm tail must trigger drain");
        // The acceptance claim: SLA parity within the margin at strictly
        // fewer shard-hours.
        assert!(
            auto.shard_seconds < stat.shard_seconds,
            "autoscaled {} vs static {}",
            auto.shard_seconds,
            stat.shard_seconds
        );
        assert!(
            auto.violation_rate <= stat.violation_rate + E24_VIOLATION_MARGIN,
            "autoscaled {} vs static {}",
            auto.violation_rate,
            stat.violation_rate
        );
    }

    #[test]
    fn suppression_recovers_where_the_unsuppressed_storm_stays_collapsed() {
        let r = e25_retry_storm(SEED);
        let [unsup, sup] = &r.arms[..] else {
            panic!("two arms expected");
        };
        assert_eq!(unsup.variant, "unsuppressed");
        assert_eq!(sup.variant, "suppressed");
        // The surge actually bred a storm, and only the budgeted arm held
        // releases back.
        assert!(unsup.retries_scheduled > 0, "storm must ignite");
        assert!(unsup.killed > 0, "timeouts must fire");
        assert_eq!(unsup.retries_suppressed, 0);
        assert!(sup.retries_suppressed > 0, "the bucket must engage");
        // Both arms were healthy before the surge.
        assert!(unsup.phases[0].completed > 0 && sup.phases[0].completed > 0);
        // The acceptance claim: post-surge goodput recovers only under
        // suppression.
        assert!(
            sup.recovery > unsup.recovery,
            "suppressed {} vs unsuppressed {}",
            sup.recovery,
            unsup.recovery
        );
        assert!(
            sup.recovery > 0.5,
            "suppressed arm must recover: {}",
            sup.recovery
        );
    }

    #[test]
    fn e24_and_e25_are_deterministic_per_seed() {
        let a = serde_json::to_string(&e24_elastic_flash_crowd(3)).unwrap();
        let b = serde_json::to_string(&e24_elastic_flash_crowd(3)).unwrap();
        assert_eq!(a, b);
        let c = serde_json::to_string(&e25_retry_storm(3)).unwrap();
        let d = serde_json::to_string(&e25_retry_storm(3)).unwrap();
        assert_eq!(c, d);
    }
}
