//! Crash tolerance across the controller checkpoint/restore boundary:
//! deterministic versioned checkpoint bytes, save→restore→continue
//! equivalence with an uninterrupted run, byte-identical crash-restart
//! runs per seed, work conservation through recovery, and the poison
//! quarantine surviving all of it.

use proptest::prelude::*;
use wlm::chaos::{run_with_chaos, ChaosDriver, FaultPlanBuilder};
use wlm::core::api::WlmBuilder;
use wlm::core::events::WlmEvent;
use wlm::core::manager::{ControllerState, RecoveryReport, WorkloadManager, CHECKPOINT_VERSION};
use wlm::core::policy::WorkloadPolicy;
use wlm::core::resilience::{QuarantineConfig, ResilienceConfig, RetryPolicy};
use wlm::core::scheduling::PriorityScheduler;
use wlm::core::stats::WorkloadStats;
use wlm::dbsim::engine::EngineConfig;
use wlm::dbsim::optimizer::CostModel;
use wlm::dbsim::time::{SimDuration, SimTime};
use wlm::workload::generators::{BiSource, OltpSource, PoisonSource, Source};
use wlm::workload::mix::MixedSource;
use wlm::workload::request::{Importance, Request};
use wlm::workload::sla::ServiceLevelAgreement;

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
    mgr.set_resilience(
        ResilienceConfig::new(0xC0)
            .with_timeout("oltp", 3.0)
            .with_timeout("poison", 1.0)
            .with_retry(RetryPolicy::aggressive())
            .with_quarantine(QuarantineConfig::default()),
    );
    mgr
}

fn mix(seed: u64) -> MixedSource {
    MixedSource::new()
        .with(Box::new(OltpSource::new(25.0, seed)))
        .with(Box::new(BiSource::new(1.0, seed + 1)))
}

fn checkpoint_after(seed: u64, secs: u64) -> ControllerState {
    let mut mgr = manager();
    let mut src = mix(seed);
    mgr.run(&mut src, SimDuration::from_secs(secs));
    mgr.checkpoint()
}

#[test]
fn checkpoints_are_byte_deterministic_and_version_gated() {
    let a = checkpoint_after(42, 8);
    let b = checkpoint_after(42, 8);
    assert_eq!(a.cycle, b.cycle, "same seed reaches the same cycle");
    assert_eq!(
        a.to_bytes(),
        b.to_bytes(),
        "same seed + same cycle must produce byte-identical checkpoints"
    );
    let other = checkpoint_after(43, 8);
    assert_ne!(
        a.to_bytes(),
        other.to_bytes(),
        "different history, different bytes"
    );

    // Round trip through the canonical encoding.
    assert_eq!(a.version, CHECKPOINT_VERSION);
    let rt = ControllerState::from_bytes(&a.to_bytes()).expect("own bytes parse");
    assert_eq!(rt.to_bytes(), a.to_bytes());

    // A future version must be rejected, not misread — and so must
    // version 1, whose books held per-request samples and log entries.
    for version in [CHECKPOINT_VERSION + 1, 1] {
        let mut tampered = a.clone();
        tampered.version = version;
        let err = ControllerState::from_bytes(&tampered.to_bytes()).unwrap_err();
        assert!(
            matches!(&err, wlm::core::Error::Checkpoint(reason) if reason.contains("version")),
            "version {version} got: {err}"
        );
    }
    assert!(ControllerState::from_bytes(b"not json").is_err());
}

/// Run `src` until cycle `ticks`, then cut the arrivals and let everything
/// in flight finish, so that the checkpoint holds no request, only books.
/// Returns (checkpoint bytes, serialised report bytes, completions).
fn sizes_once_drained(
    mgr: &mut WorkloadManager,
    src: &mut dyn Source,
    ticks: u64,
) -> (usize, usize, u64) {
    while mgr.cycle() < ticks {
        mgr.tick(src);
    }
    let mut no_arrivals = MixedSource::new();
    while mgr.engine().mpl() > 0
        || mgr.queued() + mgr.deferred() + mgr.suspended_count() > 0
        || mgr
            .resilience_report()
            .is_some_and(|r| r.pending_retries > 0)
    {
        mgr.tick(&mut no_arrivals);
    }
    let report = mgr.report();
    let json = serde_json::to_string(&report).expect("report serializes");
    (mgr.checkpoint_bytes().1.len(), json.len(), report.completed)
}

#[test]
fn checkpoint_and_report_sizes_are_flat_in_run_length() {
    // The books are histograms and weighted templates: ten times the
    // requests served must not be ten times the bytes (it was, at ≈ 245
    // bytes a request, when every response sample and query-log entry
    // rode along). Under steady OLTP the books have their shape within
    // 2 000 ticks and stay within a quarter of that size.
    let mut mgr = manager();
    let mut oltp = OltpSource::new(200.0, 42);
    let early = sizes_once_drained(&mut mgr, &mut oltp, 2_000);
    let late = sizes_once_drained(&mut mgr, &mut oltp, 20_000);
    assert!(late.2 > early.2 * 9, "{} -> {} requests", early.2, late.2);
    assert!(
        late.0 * 4 <= early.0 * 5,
        "checkpoint grew from {} to {} bytes",
        early.0,
        late.0
    );
    assert!(
        late.1 * 4 <= early.1 * 5,
        "report grew from {} to {} bytes",
        early.1,
        late.1
    );

    // A trickle of heavy-tailed BI keeps finding new work bands and
    // histogram buckets for thousands of requests — growth in the variety
    // seen, capped, and under 8 bytes a request where it was 245.
    let mut mgr = manager();
    let mut mixed = mix(42);
    let early = sizes_once_drained(&mut mgr, &mut mixed, 2_000);
    let late = sizes_once_drained(&mut mgr, &mut mixed, 20_000);
    let requests = (late.2 - early.2) as usize;
    assert!(requests > 4_000, "{requests} requests in between");
    assert!(
        late.0 < early.0 + 8 * requests && late.1 < early.1 + 8 * requests,
        "{requests} requests grew the checkpoint {} -> {} and the report {} -> {} bytes",
        early.0,
        late.0,
        early.1,
        late.1
    );
}

#[test]
fn future_version_restore_fails_typed_and_the_manager_keeps_serving() {
    // A checkpoint stamped one format version ahead must be refused
    // through the manager's own restore path — and the refusal must
    // leave the live controller untouched and serving.
    let mut tampered = checkpoint_after(42, 4);
    tampered.version = CHECKPOINT_VERSION + 1;
    let bytes = tampered.to_bytes();

    let mut mgr = manager();
    let mut src = mix(7);
    mgr.run(&mut src, SimDuration::from_secs(4));
    let before = mgr.report().completed;
    assert!(before > 0, "the manager served before the restore attempt");

    let err = mgr.restore_from_bytes(&bytes).unwrap_err();
    assert!(
        matches!(&err, wlm::core::Error::Checkpoint(reason) if reason.contains("version")),
        "a typed version error, got: {err}"
    );

    // The refused restore must not have disturbed the running books.
    assert_eq!(mgr.report().completed, before);
    mgr.run(&mut src, SimDuration::from_secs(4));
    assert!(
        mgr.report().completed > before,
        "the manager keeps serving after the refused restore"
    );
}

/// The history fingerprint compared across runs: every counter and the
/// per-workload books (response histogram, velocity sum, outcome counts).
type Fingerprint = (u64, u64, u64, Option<WorkloadStats>, Option<WorkloadStats>);

fn fingerprint(mgr: &WorkloadManager) -> Fingerprint {
    let report = mgr.report();
    let grab = |name: &str| report.workload(name).map(|w| w.stats.clone());
    (
        report.completed,
        report.killed,
        report.rejected,
        grab("oltp"),
        grab("bi"),
    )
}

#[test]
fn save_restore_continue_equals_uninterrupted() {
    let seed = 11;
    let mut uninterrupted = manager();
    uninterrupted.run(&mut mix(seed), SimDuration::from_secs(20));

    let mut restored = manager();
    let mut src = mix(seed);
    restored.run(&mut src, SimDuration::from_secs(10));
    let ckpt = restored.checkpoint();
    let rec = restored.restore(&ckpt);
    // A restore with zero drift re-adopts everything and loses nothing.
    assert_eq!(rec.readopted, ckpt.running.len());
    assert_eq!(rec.requeued, 0);
    assert_eq!(rec.orphans_killed, 0);
    assert_eq!(rec.suspended_restored, ckpt.suspended.len());
    restored.run(&mut src, SimDuration::from_secs(10));

    assert_eq!(
        fingerprint(&uninterrupted),
        fingerprint(&restored),
        "save→restore→continue must replay the uninterrupted history exactly"
    );
    assert_eq!(uninterrupted.cycle(), restored.cycle());
}

fn crashed_run(seed: u64) -> (Fingerprint, RecoveryReport, Vec<u8>) {
    let mut mgr = manager();
    let mut src = mix(seed);
    let plan = FaultPlanBuilder::new(seed)
        .io_spike(5.0, 3.0, 0.25)
        .controller_crash(700)
        .build();
    let mut driver = ChaosDriver::new(plan).with_checkpoint_every(200);
    run_with_chaos(&mut mgr, &mut src, SimDuration::from_secs(15), &mut driver);
    assert!(driver.done(), "the crash must have fired");
    let ckpt_bytes = driver
        .last_checkpoint()
        .expect("cadence checkpoints were taken")
        .to_bytes();
    (
        fingerprint(&mgr),
        driver.last_recovery().expect("crash recovered"),
        ckpt_bytes,
    )
}

#[test]
fn crash_restart_runs_are_byte_identical_per_seed() {
    let a = crashed_run(23);
    let b = crashed_run(23);
    assert_eq!(a.0, b.0, "post-recovery history must match bit for bit");
    assert_eq!(a.1, b.1, "recovery must reconcile identically");
    assert_eq!(a.2, b.2, "the restored checkpoint bytes must match");
    assert_eq!(a.1.from_cycle, 600, "latest cadence point before cycle 700");
}

#[test]
fn checkpoint_and_restore_emit_events() {
    let recorder = wlm::core::events::install_thread_trace(4_096);
    let mut mgr = manager();
    let mut src = mix(5);
    mgr.run(&mut src, SimDuration::from_secs(2));
    let ckpt = mgr.checkpoint();
    mgr.restore(&ckpt);
    let events = recorder.take();
    wlm::core::events::clear_thread_trace();
    assert!(events
        .iter()
        .any(|e| matches!(e, WlmEvent::CheckpointTaken { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, WlmEvent::ControllerRestored { .. })));
}

/// Replays captured requests once, at their (rewritten) arrival times.
struct ReplaySource {
    label: String,
    reqs: Vec<Request>,
}

impl Source for ReplaySource {
    fn poll(&mut self, _from: SimTime, to: SimTime) -> Vec<Request> {
        let (due, rest): (Vec<Request>, Vec<Request>) =
            self.reqs.drain(..).partition(|r| r.arrival <= to);
        self.reqs = rest;
        due
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[test]
fn quarantine_trips_after_repeat_kills_and_gates_readmission() {
    let recorder = wlm::core::events::install_thread_trace(65_536);
    let mut mgr = manager();
    let mut storm = PoisonSource::new(1.0, 9);
    mgr.run(&mut storm, SimDuration::from_secs(30));
    let mid = mgr.resilience_report().expect("resilience enabled");
    assert!(
        mid.quarantined > 0,
        "repeat kills must quarantine the runaways"
    );

    // The stubborn client resubmits the same request ids; the admission
    // gate must turn the quarantined ones away.
    let mut generator = PoisonSource::new(1.0, 9);
    let mut reqs = generator.poll(SimTime::ZERO, SimTime::ZERO + SimDuration::from_secs(30));
    reqs.truncate(2);
    let now = mgr.now();
    for r in &mut reqs {
        r.arrival = now;
    }
    let mut replay = ReplaySource {
        label: "poison".into(),
        reqs,
    };
    mgr.run(&mut replay, SimDuration::from_millis(300));
    let end = mgr.resilience_report().expect("resilience enabled");
    assert!(
        end.quarantine_rejections > mid.quarantine_rejections,
        "the gate must reject the resubmissions"
    );

    let events = recorder.take();
    wlm::core::events::clear_thread_trace();
    assert!(events
        .iter()
        .any(|e| matches!(e, WlmEvent::Quarantined { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, WlmEvent::QuarantineRejected { .. })));

    // The quarantine survives a crash: restore drops re-queues of
    // quarantined requests instead of giving them another lap.
    let ckpt = mgr.checkpoint();
    let rec = mgr.restore(&ckpt);
    let after = mgr.resilience_report().expect("resilience enabled");
    assert_eq!(after.quarantined, end.quarantined, "checkpointed state");
    assert_eq!(rec.suspended_restored, ckpt.suspended.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Work conservation across the crash boundary: every checkpointed
    /// running query is re-adopted, re-queued, or (only if quarantined)
    /// deliberately dropped; every live engine query is re-adopted or
    /// killed as an orphan; every suspended token is restored. Nothing is
    /// silently lost, however far the controller drifted past the
    /// checkpoint before crashing.
    #[test]
    fn recovery_conserves_every_checkpointed_query(
        seed in 0u64..500,
        pre_ticks in 200u64..800,
        drift_ticks in 0u64..300,
    ) {
        let mut mgr = manager();
        let mut src = mix(seed);
        mgr.run(&mut src, SimDuration::from_millis(pre_ticks * 10));
        let ckpt = mgr.checkpoint();
        mgr.run(&mut src, SimDuration::from_millis(drift_ticks * 10));
        let live_before = mgr.engine().live_overview().len();
        let rec = mgr.restore(&ckpt);
        prop_assert_eq!(
            rec.readopted + rec.requeued + rec.quarantine_dropped,
            ckpt.running.len(),
            "every checkpointed running query must be accounted for"
        );
        prop_assert_eq!(
            rec.readopted + rec.orphans_killed,
            live_before,
            "every live engine query must be re-adopted or reclaimed"
        );
        prop_assert_eq!(rec.suspended_restored, ckpt.suspended.len());
        prop_assert_eq!(rec.from_cycle, ckpt.cycle);
        if drift_ticks == 0 {
            prop_assert_eq!(rec.requeued, 0);
            prop_assert_eq!(rec.orphans_killed, 0);
        }
    }
}
