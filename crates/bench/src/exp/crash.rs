//! E18/E19 — the crash-tolerant control plane.
//!
//! E18 measures what controller checkpoints buy when the control plane
//! crashes mid-run: the same faulted scenario runs uninterrupted, with a
//! crash recovered from a cadence checkpoint
//! ([`WorkloadManager::restore`]), and with a crash recovered cold (no
//! checkpoint — every queue forgotten, every live query orphaned). The
//! claims pinned by tests: the recovered run converges back to the
//! uninterrupted steady state, and its post-crash SLA violations are
//! bounded by the cold restart's.
//!
//! E19 is the runaway-query ("poison") ablation: a trickle of queries too
//! large to ever beat their timeout runs with and without the poison
//! quarantine. Without it, every poison query burns its full kill/retry
//! budget; with it, three strikes land the request in quarantine and the
//! admission gate turns away any resubmission. A controller crash in the
//! middle of the storm shows the quarantine surviving the crash — it is
//! checkpointed state, which is the point.

use serde::Serialize;
use wlm_chaos::{run_with_chaos, ChaosDriver, FaultPlanBuilder};
use wlm_core::api::WlmBuilder;
use wlm_core::manager::{ControllerState, RecoveryReport, RunReport, WorkloadManager};
use wlm_core::policy::WorkloadPolicy;
use wlm_core::resilience::{
    BreakerConfig, LadderConfig, QuarantineConfig, ResilienceConfig, RetryPolicy,
};
use wlm_core::scheduling::PriorityScheduler;
use wlm_dbsim::engine::EngineConfig;
use wlm_dbsim::metrics::DurationHistogram;
use wlm_dbsim::optimizer::CostModel;
use wlm_dbsim::time::{SimDuration, SimTime};
use wlm_workload::generators::{BiSource, OltpSource, PoisonSource, Source};
use wlm_workload::mix::MixedSource;
use wlm_workload::request::{Importance, Request};
use wlm_workload::sla::ServiceLevelAgreement;

/// Simulated run length, seconds.
const RUN_SECS: u64 = 45;
/// Engine quantum, milliseconds (one control cycle).
const QUANTUM_MS: u64 = 10;
/// Default crash cycle for E18 (16 s into the 45 s run, off the
/// checkpoint cadence so recovery has a real drift window to reconcile).
pub const E18_DEFAULT_CRASH_AT: u64 = 1_600;
/// Default checkpoint cadence for E18, control cycles.
pub const E18_DEFAULT_CHECKPOINT_EVERY: u64 = 250;

/// How the crash variant recovers.
#[derive(Debug, Clone, Copy)]
enum CrashMode {
    /// No crash: the uninterrupted baseline.
    None,
    /// Crash recovered from a cadence checkpoint taken every `n` cycles.
    Checkpointed(u64),
    /// Crash recovered cold (no checkpoint was ever taken).
    Cold,
}

/// One recovery strategy's outcome under the shared crash.
#[derive(Debug, Clone, Serialize)]
pub struct E18Variant {
    /// Strategy name (`uninterrupted`, `checkpoint-restore`, `cold-restart`).
    pub variant: &'static str,
    /// Goal misses + kills + rejections of the SLA-bearing workloads
    /// (oltp, bi) accrued *after* the crash point.
    pub sla_violations_post_crash: u64,
    /// Post-crash goal misses alone.
    pub goal_violations_post_crash: u64,
    /// Post-crash kills (includes recovery's orphan kills).
    pub killed_post_crash: u64,
    /// Post-crash admission rejections.
    pub rejected_post_crash: u64,
    /// Completions on the final books (a cold restart forgets its
    /// pre-crash books, so this is post-crash-only for that variant).
    pub completed: u64,
    /// Mean OLTP response over the last third of the run — the end-of-run
    /// steady state the recovered run must converge to.
    pub steady_oltp_mean: f64,
    /// What recovery did (absent for the uninterrupted baseline).
    pub recovery: Option<RecoveryReport>,
    /// Cadence checkpoints taken over the run.
    pub checkpoints_taken: u64,
}

/// Result of E18.
#[derive(Debug, Clone, Serialize)]
pub struct E18Result {
    /// The seed behind the arrival streams.
    pub seed: u64,
    /// Control cycle the crash lands on.
    pub crash_at_cycle: u64,
    /// Checkpoint cadence of the checkpointed variant, cycles.
    pub checkpoint_every: u64,
    /// Recovery strategies, baseline first.
    pub variants: Vec<E18Variant>,
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
            WorkloadPolicy::new("poison", Importance::Medium)
                .with_sla(ServiceLevelAgreement::best_effort()),
        ])
        .build()
        .expect("valid configuration");
    mgr.set_scheduler(Box::new(PriorityScheduler::new(12)));
    mgr
}

fn e18_mix(seed: u64) -> MixedSource {
    MixedSource::new()
        .with(Box::new(OltpSource::new(25.0, seed)))
        .with(Box::new(BiSource::new(1.0, seed + 1)))
}

/// (goal misses, kills, rejections) across the SLA-bearing workloads.
fn sla_counts(mgr: &WorkloadManager) -> (u64, u64, u64) {
    let report = mgr.report();
    let (mut goals, mut killed, mut rejected) = (0, 0, 0);
    for name in ["oltp", "bi"] {
        goals += mgr.goal_violations_in(name);
        if let Some(w) = report.workload(name) {
            killed += w.stats.killed;
            rejected += w.stats.rejected;
        }
    }
    (goals, killed, rejected)
}

/// The same counts as read from a checkpoint — the baseline the restored
/// controller's books rewind to.
fn sla_counts_in_state(state: &ControllerState) -> (u64, u64, u64) {
    let (mut goals, mut killed, mut rejected) = (0, 0, 0);
    for name in ["oltp", "bi"] {
        goals += state.goal_violations.get(name).copied().unwrap_or(0);
        if let Some(w) = state.stats.get(name) {
            killed += w.killed;
            rejected += w.rejected;
        }
    }
    (goals, killed, rejected)
}

fn run_crash_variant(
    variant: &'static str,
    seed: u64,
    crash_at: u64,
    mode: CrashMode,
) -> E18Variant {
    let mut mgr = manager();
    mgr.set_resilience(
        ResilienceConfig::new(seed)
            .with_timeout("oltp", 3.0)
            .with_retry(RetryPolicy::default())
            .with_breaker(BreakerConfig::default())
            .with_ladder(LadderConfig::default())
            .with_quarantine(QuarantineConfig::default()),
    );
    let mut src = e18_mix(seed);
    let plan = match mode {
        CrashMode::None => FaultPlanBuilder::new(seed).build(),
        _ => FaultPlanBuilder::new(seed)
            .controller_crash(crash_at)
            .build(),
    };
    let mut driver = ChaosDriver::new(plan);
    if let CrashMode::Checkpointed(every) = mode {
        driver = driver.with_checkpoint_every(every);
    }
    // Segment 1: up to (but not including) the crash cycle, so the
    // post-crash baseline can be read at the boundary.
    let total_ms = RUN_SECS * 1_000;
    let crash_ms = (crash_at * QUANTUM_MS).min(total_ms);
    run_with_chaos(
        &mut mgr,
        &mut src,
        SimDuration::from_millis(crash_ms),
        &mut driver,
    );
    // The books the run resumes from: the boundary books (uninterrupted),
    // the restored checkpoint's books, or nothing at all (cold restart).
    let pre = match mode {
        CrashMode::None => sla_counts(&mgr),
        CrashMode::Checkpointed(every) => {
            // The crash restores the latest cadence point at or before the
            // crash cycle; when the crash cycle is itself on the cadence,
            // the checkpoint taken right before the crash is the boundary
            // state itself.
            let state = if crash_at.is_multiple_of(every) {
                mgr.checkpoint()
            } else {
                driver
                    .last_checkpoint()
                    .expect("cadence includes cycle 0")
                    .clone()
            };
            sla_counts_in_state(&state)
        }
        CrashMode::Cold => (0, 0, 0),
    };
    // Segment 2: the crash fires on the first cycle, then the run plays
    // out. The steady-state window opens two thirds into the run — after
    // the crash cycle in any case, so both of its snapshots are of the
    // books the recovery left.
    let steady_ms = (total_ms * 2 / 3).max(crash_ms + QUANTUM_MS).min(total_ms);
    let oltp_responses = |report: &RunReport| -> DurationHistogram {
        report
            .workload("oltp")
            .map(|w| w.stats.responses.clone())
            .unwrap_or_default()
    };
    let before_steady = oltp_responses(&run_with_chaos(
        &mut mgr,
        &mut src,
        SimDuration::from_millis(steady_ms - crash_ms),
        &mut driver,
    ));
    let report = run_with_chaos(
        &mut mgr,
        &mut src,
        SimDuration::from_millis(total_ms - steady_ms),
        &mut driver,
    );
    let (goals, killed, rejected) = sla_counts(&mgr);
    let goal_violations_post_crash = goals.saturating_sub(pre.0);
    let killed_post_crash = killed.saturating_sub(pre.1);
    let rejected_post_crash = rejected.saturating_sub(pre.2);
    E18Variant {
        variant,
        sla_violations_post_crash: goal_violations_post_crash
            + killed_post_crash
            + rejected_post_crash,
        goal_violations_post_crash,
        killed_post_crash,
        rejected_post_crash,
        completed: report.completed,
        steady_oltp_mean: oltp_responses(&report).since(&before_steady).mean_secs(),
        recovery: driver.last_recovery(),
        checkpoints_taken: driver.checkpoints_taken(),
    }
}

/// Run E18: crash the controller at `crash_at` (default
/// [`E18_DEFAULT_CRASH_AT`]) and compare recovery from a cadence
/// checkpoint (default every [`E18_DEFAULT_CHECKPOINT_EVERY`] cycles)
/// against a cold restart and against the uninterrupted baseline.
pub fn e18_crash_recovery(
    seed: u64,
    crash_at: Option<u64>,
    checkpoint_every: Option<u64>,
) -> E18Result {
    let crash_at = crash_at.unwrap_or(E18_DEFAULT_CRASH_AT);
    let every = checkpoint_every
        .unwrap_or(E18_DEFAULT_CHECKPOINT_EVERY)
        .max(1);
    let variants = vec![
        run_crash_variant("uninterrupted", seed, crash_at, CrashMode::None),
        run_crash_variant(
            "checkpoint-restore",
            seed,
            crash_at,
            CrashMode::Checkpointed(every),
        ),
        run_crash_variant("cold-restart", seed, crash_at, CrashMode::Cold),
    ];
    E18Result {
        seed,
        crash_at_cycle: crash_at,
        checkpoint_every: every,
        variants,
    }
}

impl E18Result {
    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "E18 — controller crash at cycle {} (checkpoint every {} cycles, seed {})\n  strategy             post-crash viol.   goals   kills   rejects   steady oltp   readopt/requeue/orphans\n",
            self.crash_at_cycle, self.checkpoint_every, self.seed
        );
        for v in &self.variants {
            let rec = v.recovery.map_or("-".to_string(), |r| {
                format!("{}/{}/{}", r.readopted, r.requeued, r.orphans_killed)
            });
            out.push_str(&format!(
                "  {:<18}   {:>16}   {:>5}   {:>5}   {:>7}   {:>10.3}s   {}\n",
                v.variant,
                v.sla_violations_post_crash,
                v.goal_violations_post_crash,
                v.killed_post_crash,
                v.rejected_post_crash,
                v.steady_oltp_mean,
                rec
            ));
        }
        out.push_str(
            "  the checkpointed controller re-adopts its running set and converges;\n  the cold restart orphans every live query and rebuilds from nothing\n",
        );
        out
    }
}

/// One quarantine stance's outcome under the shared poison storm.
#[derive(Debug, Clone, Serialize)]
pub struct E19Variant {
    /// Stack name (`no-quarantine`, `quarantine`).
    pub variant: &'static str,
    /// Requests in the poison quarantine at end of run.
    pub quarantined: usize,
    /// Admissions and retry releases turned away by the quarantine
    /// (includes the post-run resubmission probe).
    pub quarantine_rejections: u64,
    /// Retries the resilience layer scheduled over the run.
    pub retries_scheduled: u64,
    /// Requests dropped after exhausting their retry budget.
    pub retries_exhausted: u64,
    /// Final kills charged to the poison workload.
    pub poison_killed: u64,
    /// Goal misses + kills + rejections of the SLA-bearing workloads.
    pub sla_violations: u64,
    /// Total completions across all workloads.
    pub completed: u64,
    /// OLTP 95th-percentile response, seconds.
    pub oltp_p95: f64,
}

/// Result of E19.
#[derive(Debug, Clone, Serialize)]
pub struct E19Result {
    /// The seed behind the arrival streams.
    pub seed: u64,
    /// Ablation variants, unprotected first.
    pub variants: Vec<E19Variant>,
}

/// Poison arrival rate for the E19 storm, queries per second.
const POISON_RATE: f64 = 0.4;

fn e19_mix(seed: u64) -> MixedSource {
    MixedSource::new()
        .with(Box::new(OltpSource::new(25.0, seed)))
        .with(Box::new(BiSource::new(1.0, seed + 1)))
        .with(Box::new(PoisonSource::new(POISON_RATE, seed + 3)))
}

/// Replays captured requests once, at their (rewritten) arrival times —
/// the stubborn client resubmitting the same request ids.
struct ReplaySource {
    label: String,
    reqs: Vec<Request>,
}

impl Source for ReplaySource {
    fn poll(&mut self, _from: SimTime, to: SimTime) -> Vec<Request> {
        let mut out = Vec::new();
        let mut rest = Vec::new();
        for r in self.reqs.drain(..) {
            if r.arrival <= to {
                out.push(r);
            } else {
                rest.push(r);
            }
        }
        self.reqs = rest;
        out
    }

    fn label(&self) -> &str {
        &self.label
    }
}

/// Resubmit the storm's first poison requests (same request ids) after the
/// run: the admission gate must turn the quarantined ones away.
fn poison_probe(mgr: &mut WorkloadManager, seed: u64) {
    let mut generator = PoisonSource::new(POISON_RATE, seed + 3);
    let mut reqs = generator.poll(
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::from_secs(RUN_SECS),
    );
    reqs.truncate(3);
    let now = mgr.now();
    for r in &mut reqs {
        r.arrival = now;
    }
    let mut src = ReplaySource {
        label: "poison".into(),
        reqs,
    };
    mgr.run(&mut src, SimDuration::from_millis(500));
}

fn run_poison_variant(variant: &'static str, seed: u64, quarantine: bool) -> E19Variant {
    let mut mgr = manager();
    let mut resilience = ResilienceConfig::new(seed)
        .with_timeout("oltp", 3.0)
        .with_timeout("poison", 2.0)
        .with_retry(RetryPolicy::aggressive());
    if quarantine {
        resilience = resilience.with_quarantine(QuarantineConfig::default());
    }
    mgr.set_resilience(resilience);
    let mut src = e19_mix(seed);
    // A crash mid-storm, recovered from a cadence checkpoint in both
    // variants: the quarantine is checkpointed state and must survive it.
    let plan = FaultPlanBuilder::new(seed).controller_crash(2_000).build();
    let mut driver = ChaosDriver::new(plan).with_checkpoint_every(250);
    run_with_chaos(
        &mut mgr,
        &mut src,
        SimDuration::from_secs(RUN_SECS),
        &mut driver,
    );
    poison_probe(&mut mgr, seed);
    let report = mgr.report();
    let res = mgr.resilience_report().expect("resilience layer enabled");
    let (goals, killed, rejected) = sla_counts(&mgr);
    E19Variant {
        variant,
        quarantined: res.quarantined,
        quarantine_rejections: res.quarantine_rejections,
        retries_scheduled: res.retries_scheduled,
        retries_exhausted: res.retries_exhausted,
        poison_killed: report.workload("poison").map_or(0, |w| w.stats.killed),
        sla_violations: goals + killed + rejected,
        completed: report.completed,
        oltp_p95: report.workload("oltp").map_or(0.0, |w| w.summary.p95),
    }
}

/// Run E19: the poison-storm quarantine ablation, crash included.
pub fn e19_poison_quarantine(seed: u64) -> E19Result {
    E19Result {
        seed,
        variants: vec![
            run_poison_variant("no-quarantine", seed, false),
            run_poison_variant("quarantine", seed, true),
        ],
    }
}

impl E19Result {
    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "E19 — poison storm with a mid-run crash, quarantine ablation (seed {})\n  stack            quarantined   rejections   retries   exhausted   poison kills   sla viol.   oltp p95\n",
            self.seed
        );
        for v in &self.variants {
            out.push_str(&format!(
                "  {:<14}   {:>11}   {:>10}   {:>7}   {:>9}   {:>12}   {:>9}   {:>7.2}s\n",
                v.variant,
                v.quarantined,
                v.quarantine_rejections,
                v.retries_scheduled,
                v.retries_exhausted,
                v.poison_killed,
                v.sla_violations,
                v.oltp_p95
            ));
        }
        out.push_str(
            "  three strikes quarantine a runaway for good — surviving the crash —\n  instead of burning its whole retry budget against a hopeless timeout\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_recovery_converges_and_bounds_violations() {
        let r = e18_crash_recovery(7, None, None);
        let [unint, ckpt, cold] = &r.variants[..] else {
            panic!("three variants expected");
        };
        // The recovery shapes are as designed.
        let ckpt_rec = ckpt.recovery.expect("checkpointed crash recovered");
        assert!(ckpt_rec.readopted > 0, "live queries re-adopted");
        assert_eq!(ckpt_rec.from_cycle, 1_500, "latest cadence before 1600");
        let cold_rec = cold.recovery.expect("cold crash recovered");
        assert_eq!(cold_rec.readopted, 0, "cold restart re-adopts nothing");
        assert!(
            cold_rec.orphans_killed > 0,
            "cold restart orphans the engine"
        );
        assert!(unint.recovery.is_none() && unint.checkpoints_taken == 0);
        assert!(ckpt.checkpoints_taken > 0);
        // The acceptance claims: the recovered run converges back to the
        // uninterrupted steady state, and checkpointed recovery bounds the
        // post-crash SLA damage a cold restart takes.
        assert!(unint.steady_oltp_mean > 0.0);
        assert!(
            ckpt.steady_oltp_mean <= unint.steady_oltp_mean * 2.0 + 0.1,
            "recovered steady state {} vs uninterrupted {}",
            ckpt.steady_oltp_mean,
            unint.steady_oltp_mean
        );
        assert!(cold.sla_violations_post_crash > 0, "the crash must bite");
        assert!(
            ckpt.sla_violations_post_crash <= cold.sla_violations_post_crash,
            "checkpointed {} vs cold {}",
            ckpt.sla_violations_post_crash,
            cold.sla_violations_post_crash
        );
    }

    #[test]
    fn quarantine_tames_the_poison_storm() {
        let r = e19_poison_quarantine(7);
        let [without, with] = &r.variants[..] else {
            panic!("two variants expected");
        };
        assert_eq!(without.quarantined, 0);
        assert_eq!(without.quarantine_rejections, 0);
        assert!(with.quarantined > 0, "poison lands in quarantine");
        assert!(
            with.quarantine_rejections > 0,
            "resubmitting a quarantined id is turned away"
        );
        assert!(
            with.retries_scheduled < without.retries_scheduled,
            "quarantine {} vs open retry budget {}",
            with.retries_scheduled,
            without.retries_scheduled
        );
        assert!(
            with.sla_violations <= without.sla_violations,
            "quarantine {} vs no-quarantine {}",
            with.sla_violations,
            without.sla_violations
        );
    }

    #[test]
    fn e18_is_deterministic_per_seed() {
        let a = serde_json::to_string(&e18_crash_recovery(3, Some(800), Some(100))).unwrap();
        let b = serde_json::to_string(&e18_crash_recovery(3, Some(800), Some(100))).unwrap();
        assert_eq!(a, b);
    }
}
