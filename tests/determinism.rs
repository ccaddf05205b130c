//! Reproducibility: identical seeds and configurations must produce
//! identical runs, across every component of the stack.

use wlm::core::api::WlmBuilder;
use wlm::core::scheduling::RankScheduler;
use wlm::dbsim::engine::EngineConfig;
use wlm::dbsim::metrics::DurationHistogram;
use wlm::dbsim::optimizer::CostModel;
use wlm::dbsim::time::SimDuration;
use wlm::workload::generators::{BiSource, OltpSource};
use wlm::workload::mix::MixedSource;

fn run_once(seed: u64) -> (u64, u64, DurationHistogram) {
    let mut mgr = WlmBuilder::new()
        .engine(EngineConfig {
            cores: 4,
            memory_mb: 1_024,
            ..Default::default()
        })
        .cost_model(CostModel::with_error(0.5, 77))
        .build()
        .expect("valid configuration");
    mgr.set_scheduler(Box::new(RankScheduler::new(16)));
    let mut mix = MixedSource::new()
        .with(Box::new(OltpSource::new(30.0, seed)))
        .with(Box::new(BiSource::new(1.5, seed + 1)));
    let report = mgr.run(&mut mix, SimDuration::from_secs(45));
    let oltp_responses = report
        .workload("oltp")
        .map(|w| w.stats.responses.clone())
        .unwrap_or_default();
    (report.completed, report.killed, oltp_responses)
}

#[test]
fn same_seed_same_history() {
    let a = run_once(42);
    let b = run_once(42);
    assert_eq!(a.0, b.0, "completion counts must match");
    assert_eq!(a.1, b.1);
    assert_eq!(
        a.2, b.2,
        "the response histogram must match bucket for bucket"
    );
}

#[test]
fn different_seed_different_history() {
    let a = run_once(42);
    let b = run_once(43);
    assert_ne!(a.2, b.2, "different arrivals must differ");
}

fn full_report(seed: u64, with_recorder: bool) -> (String, usize) {
    let mut mgr = WlmBuilder::new()
        .engine(EngineConfig {
            cores: 4,
            memory_mb: 1_024,
            ..Default::default()
        })
        .cost_model(CostModel::with_error(0.5, 77))
        .build()
        .expect("valid configuration");
    let recorder = wlm::core::events::RingRecorder::new(1 << 20);
    if with_recorder {
        mgr.subscribe(Box::new(recorder.clone()));
    }
    mgr.set_scheduler(Box::new(RankScheduler::new(16)));
    let mut mix = MixedSource::new()
        .with(Box::new(OltpSource::new(30.0, seed)))
        .with(Box::new(BiSource::new(1.5, seed + 1)));
    let report = mgr.run(&mut mix, SimDuration::from_secs(45));
    (
        serde_json::to_string(&report).expect("report serializes"),
        recorder.len(),
    )
}

#[test]
fn reports_serialize_byte_identically() {
    let (a, _) = full_report(42, false);
    let (b, _) = full_report(42, false);
    assert_eq!(a, b, "same seed must give a byte-identical RunReport");
}

#[test]
fn event_recording_does_not_perturb_the_run() {
    // Observability must be free: subscribing a recorder turns on event
    // emission throughout the stack, and the report must not change by a
    // single byte.
    let (plain, _) = full_report(42, false);
    let (traced, events) = full_report(42, true);
    assert!(events > 0, "the recorder saw the run");
    assert_eq!(plain, traced, "event emission must not change the outcome");
}

/// A full-stack faulted run: resilience layer on, fault plan covering an
/// IO spike, core loss, a flash crowd and a lock storm.
fn faulted_report(seed: u64) -> String {
    use wlm::chaos::{run_with_chaos, ChaosDriver, FaultPlanBuilder};
    use wlm::core::resilience::{BreakerConfig, LadderConfig, ResilienceConfig, RetryPolicy};
    use wlm::workload::generators::SurgeSource;

    let mut mgr = WlmBuilder::new()
        .engine(EngineConfig {
            cores: 4,
            memory_mb: 1_024,
            ..Default::default()
        })
        .cost_model(CostModel::with_error(0.5, 77))
        .build()
        .expect("valid configuration");
    mgr.set_scheduler(Box::new(RankScheduler::new(16)));
    mgr.set_resilience(
        ResilienceConfig::new(seed)
            .with_timeout("oltp", 3.0)
            .with_retry(RetryPolicy::aggressive())
            .with_breaker(BreakerConfig::default())
            .with_ladder(LadderConfig::default()),
    );
    let mix = MixedSource::new()
        .with(Box::new(OltpSource::new(30.0, seed)))
        .with(Box::new(BiSource::new(1.5, seed + 1)));
    let (mut src, handle) = SurgeSource::new(Box::new(mix), seed + 2);
    let plan = FaultPlanBuilder::new(seed)
        .io_spike(10.0, 8.0, 0.1)
        .core_loss(12.0, 6.0, 3)
        .flash_crowd(10.0, 8.0, 3.0)
        .lock_storm(14.0, 10, 4, 24, 1.5)
        .build();
    let mut driver = ChaosDriver::new(plan).with_surge(handle);
    let report = run_with_chaos(&mut mgr, &mut src, SimDuration::from_secs(40), &mut driver);
    assert!(driver.done(), "every fault fired inside the run");
    assert_eq!(driver.skipped(), 0, "every fault applied cleanly");
    let resilience = mgr
        .resilience_report()
        .expect("resilience layer was configured");
    format!(
        "{}\n{}",
        serde_json::to_string(&report).expect("report serializes"),
        serde_json::to_string(&resilience).expect("resilience report serializes"),
    )
}

#[test]
fn faulted_runs_serialize_byte_identically() {
    // The tentpole guarantee of wlm-chaos: a faulted run — engine faults,
    // arrival surge, lock storm, retries, breakers, the ladder — replays
    // byte for byte under the same seed.
    let a = faulted_report(42);
    let b = faulted_report(42);
    assert_eq!(a, b, "same seed + same fault plan must replay identically");
    let c = faulted_report(43);
    assert_ne!(a, c, "a different seed must actually change the run");
}

/// A cluster run over a faulted link: lossy, jittered, duplicated
/// transport, a gray window and a partition window, with the failure
/// detector and hedged re-dispatch on. Returns the serialized report and
/// every shard checkpoint.
fn link_faulted_cluster(seed: u64) -> (String, Vec<Vec<u8>>) {
    use wlm::chaos::NetFault;
    use wlm::cluster::{ClusterBuilder, DetectorConfig, HedgeConfig, LinkConfig, RoutingPolicy};

    let mut cluster = ClusterBuilder::new()
        .shards(3)
        .routing(RoutingPolicy::RoundRobin)
        .shard_builder(Box::new(|_| {
            WlmBuilder::new()
                .engine(EngineConfig {
                    cores: 2,
                    disk_pages_per_sec: 20_000,
                    memory_mb: 1_024,
                    ..Default::default()
                })
                .cost_model(CostModel::oracle())
        }))
        .link(LinkConfig {
            delay_secs: 0.02,
            jitter_secs: 0.01,
            loss_p: 0.1,
            dup_p: 0.1,
            retransmit_secs: 0.3,
            seed: seed ^ 0xfab,
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
    cluster
        .schedule_net_fault(
            2.0,
            NetFault::GrayShard {
                shard: 2,
                delay_factor: 40.0,
            },
        )
        .expect("valid fault");
    cluster
        .schedule_net_fault(
            4.0,
            NetFault::GrayShard {
                shard: 2,
                delay_factor: 1.0,
            },
        )
        .expect("valid fault");
    cluster
        .schedule_net_fault(
            5.0,
            NetFault::Partition {
                shard: 1,
                active: true,
            },
        )
        .expect("valid fault");
    cluster
        .schedule_net_fault(
            8.0,
            NetFault::Partition {
                shard: 1,
                active: false,
            },
        )
        .expect("valid fault");
    let mut src = OltpSource::new(40.0, seed);
    let report = cluster.run(&mut src, SimDuration::from_secs(12));
    let bytes = cluster.checkpoints().iter().map(|c| c.to_bytes()).collect();
    (
        serde_json::to_string(&report).expect("report serializes"),
        bytes,
    )
}

#[test]
fn link_faulted_cluster_runs_are_byte_identical_per_seed() {
    // The fabric tentpole's determinism guarantee: every loss, jitter,
    // duplication and retransmit draw, the detector's verdicts and the
    // hedger's races all replay bit-for-bit under the same seed.
    let (report_a, bytes_a) = link_faulted_cluster(42);
    let (report_b, bytes_b) = link_faulted_cluster(42);
    assert_eq!(
        report_a, report_b,
        "same seed must give a byte-identical cluster report"
    );
    assert_eq!(
        bytes_a, bytes_b,
        "same seed must give byte-identical shard checkpoints"
    );
}

/// An autoscaled cluster riding a flash-crowd trapezoid, with per-shard
/// resilience (timeouts + retries) in the loop: shards spawn, warm, drain
/// and retire mid-run, and retirement strips and reroutes residue —
/// parked retries included — through the exactly-once finished book.
/// Returns the serialized report, every shard checkpoint, and the scale
/// counters.
fn elastic_surge_cluster(seed: u64) -> (String, Vec<Vec<u8>>, u64, u64) {
    use wlm::cluster::{ClusterBuilder, ElasticConfig, RoutingPolicy};
    use wlm::core::resilience::{ResilienceConfig, RetryPolicy};
    use wlm::workload::generators::{SurgeRamp, SurgeSource};

    let mut cluster = ClusterBuilder::new()
        .shards(4)
        .routing(RoutingPolicy::LeastOutstandingCost)
        .shard_builder(Box::new(move |_| {
            WlmBuilder::new()
                .engine(EngineConfig {
                    cores: 2,
                    disk_pages_per_sec: 10_000,
                    memory_mb: 1_024,
                    ..Default::default()
                })
                .cost_model(CostModel::oracle())
                .resilience(
                    ResilienceConfig::new(seed)
                        .with_timeout("bi", 2.0)
                        .with_retry(RetryPolicy::default()),
                )
        }))
        .elastic(ElasticConfig {
            min_shards: 1,
            sustain_ticks: 10,
            calm_ticks: 50,
            warmup_secs: 0.5,
            drain_grace_secs: 1.0,
            scale_down_pressure: 0.5,
            ..Default::default()
        })
        .build()
        .expect("valid configuration");
    // Heavy scans, not OLTP point lookups: the surge has to genuinely
    // overload the one-shard floor for the pool to open up.
    let inner = BiSource::new(4.0, seed).with_size(300_000.0, 0.5);
    let (src, _handle) = SurgeSource::new(Box::new(inner), seed ^ 0xe1a);
    let mut src = src.with_ramp(SurgeRamp {
        start_secs: 2.0,
        ramp_secs: 1.0,
        hold_secs: 4.0,
        decay_secs: 1.0,
        peak: 5.0,
    });
    let report = cluster.run(&mut src, SimDuration::from_secs(16));
    let bytes = cluster.checkpoints().iter().map(|c| c.to_bytes()).collect();
    (
        serde_json::to_string(&report).expect("report serializes"),
        bytes,
        report.scale_ups,
        report.scale_downs,
    )
}

#[test]
fn autoscaled_cluster_runs_are_byte_identical_per_seed() {
    // The elastic tentpole's determinism guarantee: the pressure EMA, the
    // hysteresis streaks, every spawn/warm/drain/retire transition and
    // every retirement reroute replay bit-for-bit under the same seed.
    let (report_a, bytes_a, ups_a, downs_a) = elastic_surge_cluster(42);
    let (report_b, bytes_b, ups_b, downs_b) = elastic_surge_cluster(42);
    assert!(ups_a > 0, "the surge must spin shards up");
    assert!(downs_a > 0, "the calm tail must drain them again");
    assert_eq!((ups_a, downs_a), (ups_b, downs_b));
    assert_eq!(
        report_a, report_b,
        "same seed must give a byte-identical cluster report"
    );
    assert_eq!(
        bytes_a, bytes_b,
        "same seed must give byte-identical shard checkpoints"
    );
}

#[test]
fn experiments_are_reproducible() {
    // Spot-check a full experiment: two runs of E5 agree exactly.
    let a = wlm_bench::e5_suspend();
    let b = wlm_bench::e5_suspend();
    assert_eq!(a.plan_optimal_us, b.plan_optimal_us);
    assert_eq!(a.rows.len(), b.rows.len());
    for (x, y) in a.rows.iter().zip(&b.rows) {
        assert_eq!(x.dump_suspend_us, y.dump_suspend_us);
        assert_eq!(x.goback_resume_us, y.goback_resume_us);
    }
}

#[test]
fn fault_space_exploration_is_deterministic_per_seed() {
    use wlm::chaos::explore::enumerate;
    use wlm::chaos::ExploreConfig;

    // Same base seed and budget ⇒ byte-identical schedule lists, down to
    // every derived per-schedule workload seed.
    let cfg = ExploreConfig {
        seed: 11,
        budget: 36,
        ..ExploreConfig::default()
    };
    let (a, grid_a) = enumerate(&cfg);
    let (b, grid_b) = enumerate(&cfg);
    assert_eq!(grid_a, grid_b, "the grid size is fixed");
    assert_eq!(
        serde_json::to_string(&a).expect("schedules serialize"),
        serde_json::to_string(&b).expect("schedules serialize"),
        "same seed + budget must enumerate byte-identical schedules"
    );
    // A different base seed keeps the fault grid but re-derives every
    // schedule's workload seed.
    let (other, _) = enumerate(&ExploreConfig { seed: 12, ..cfg });
    assert_eq!(a.len(), other.len());
    assert_ne!(
        a[0].seed, other[0].seed,
        "workload seeds follow the base seed"
    );

    // And a budgeted sweep against the real two-shard cluster runner —
    // schedules, verdicts, known-bad reproducer and all — serializes
    // byte-identically across runs.
    let x = serde_json::to_string(&wlm_bench::e27_fault_sweep(11, Some(4))).expect("serializes");
    let y = serde_json::to_string(&wlm_bench::e27_fault_sweep(11, Some(4))).expect("serializes");
    assert_eq!(x, y, "the sweep's verdicts are a pure function of the seed");
}
