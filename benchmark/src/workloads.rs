//! The five workloads: what each builds, the frozen load levels and run
//! lengths, and why.
//!
//! A workload's *shape* (rates, mixes, policies, fault schedule) is frozen
//! here; only its length scales, linearly, with `--seconds`. Everything is
//! assembled through `WlmBuilder` / `ClusterBuilder` and the public
//! plug-in types, so `tests/api_hygiene.rs` of the root crate holds for
//! this package too.

use crate::probe::{
    Probes, SourceProbe, TimedAdmission, TimedCharacterizer, TimedExecController, TimedScheduler,
    TimedSubscriber,
};
use crate::system::{BareEngine, ChaosSchedule, Clustered, EngineClocks, Managed, System};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;
use wlm_chaos::FaultPlanBuilder;
use wlm_cluster::{
    Cluster, ClusterBuilder, DetectorConfig, ElasticConfig, FailoverPolicy, HedgeConfig,
    LinkConfig, RoutingPolicy,
};
use wlm_core::admission::ThresholdAdmission;
use wlm_core::api::{AdmissionController, ExecutionController, Scheduler, WlmBuilder};
use wlm_core::characterize::StaticCharacterizer;
use wlm_core::events::{EventSubscriber, RingRecorder, WorkloadEventCounters};
use wlm_core::execution::{PriorityAging, ThresholdKiller, UtilityThrottler};
use wlm_core::policy::{AdmissionPolicy, AdmissionViolationAction, WorkloadPolicy};
use wlm_core::resilience::{BreakerConfig, ResilienceConfig, RetryPolicy};
use wlm_core::scheduling::{ServiceClassConfig, UtilityScheduler};
use wlm_dbsim::engine::{DbEngine, EngineConfig};
use wlm_dbsim::optimizer::CostModel;
use wlm_dbsim::plan::{OperatorKind, PlanBuilder};
use wlm_dbsim::time::{SimDuration, SimTime};
use wlm_workload::generators::{
    AdHocSource, BiSource, ClosedLoopOltpSource, OltpSource, Source, SurgeRamp, SurgeSource,
};
use wlm_workload::mix::MixedSource;
use wlm_workload::request::{Importance, Origin, Request, RequestId};
use wlm_workload::sla::ServiceLevelAgreement;

/// Shards in the two cluster workloads.
pub const SHARDS: usize = 8;
/// Partitions the cluster key space is split into (as `bench_wall`).
const PARTITIONS: u64 = 64;
/// Simulated seconds per step: every engine here keeps the default 10 ms
/// quantum.
pub const STEP_SECS: f64 = 0.01;
/// `cluster8-chaos` repeats its surge and fault schedule with this period.
const CHAOS_PERIOD_SECS: u64 = 10;

/// One of the five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A bare `DbEngine` fed directly.
    EngineBare,
    /// `bench_wall`'s single-engine configuration.
    ManagedLight,
    /// One manager, full technique stack, request-dominated load.
    ManagedMixed,
    /// Eight `managed-mixed` shards, direct fabric.
    Cluster8Direct,
    /// The same shards with link, detector, hedging, elasticity, faults
    /// and subscribers all on.
    Cluster8Chaos,
}

/// What a traced run re-runs a workload as, to price one mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The workload as defined.
    Plain,
    /// `managed-mixed` with a ring recorder and event counters subscribed
    /// (`core.events.on_over_off`).
    EventsOn,
    /// `cluster8-direct` over `LinkConfig::default()`, a perfect link
    /// (`cluster.link.perfect_over_direct`).
    PerfectLink,
}

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::EngineBare,
        Workload::ManagedLight,
        Workload::ManagedMixed,
        Workload::Cluster8Direct,
        Workload::Cluster8Chaos,
    ];

    /// The workload's name (final; `BENCHMARK.json` lists the same).
    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineBare => "engine-bare",
            Workload::ManagedLight => "managed-light",
            Workload::ManagedMixed => "managed-mixed",
            Workload::Cluster8Direct => "cluster8-direct",
            Workload::Cluster8Chaos => "cluster8-chaos",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Steps of one repetition of the timed region per requested second
    /// of `--seconds`.
    ///
    /// Frozen so that the repetitions of a run (see `run::REPS`) together
    /// take about `--seconds` of wall time on the reference box (2 cores,
    /// see the README) at the commit that introduced the benchmark. The
    /// amount of simulated work is what is held fixed across commits, not
    /// the wall time: a faster program finishes the same region sooner.
    pub fn steps_per_second_asked(self) -> u64 {
        match self {
            Workload::EngineBare => 14_000,
            Workload::ManagedLight => 100_000,
            Workload::ManagedMixed => 1_800,
            Workload::Cluster8Direct => 200,
            Workload::Cluster8Chaos => 67,
        }
    }

    /// Shard-quanta per step.
    pub fn ticks_per_step(self) -> u64 {
        match self {
            Workload::Cluster8Direct | Workload::Cluster8Chaos => SHARDS as u64,
            _ => 1,
        }
    }
}

/// A built workload: the system, its (probed) source, and the clocks a
/// traced run reads.
pub struct Built {
    /// The system under test.
    pub system: Box<dyn System>,
    /// The arrival stream, counted (and timed when traced).
    pub source: SourceProbe,
    /// Decorator clocks; counting-only in untraced runs, where only the
    /// source is decorated.
    pub probes: Probes,
    /// Direct-call clocks of `engine-bare` (traced runs only).
    pub engine_clocks: Option<Rc<EngineClocks>>,
}

/// Build `workload` for `seed`. `traced` wraps every plug-in in a timing
/// decorator and times the direct engine calls; untraced, only the source
/// is wrapped, to count the requests issued.
pub fn build(workload: Workload, variant: Variant, seed: u64, traced: bool) -> Built {
    let probes = if traced {
        Probes::timed()
    } else {
        Probes::counting()
    };
    let plugins = traced.then(|| probes.clone());
    let mut engine_clocks = None;
    let (system, source): (Box<dyn System>, Box<dyn Source>) = match workload {
        Workload::EngineBare => {
            engine_clocks = traced.then(|| Rc::new(EngineClocks::default()));
            (
                Box::new(BareEngine::new(
                    DbEngine::new(EngineConfig::default()),
                    engine_clocks.clone(),
                )),
                Box::new(engine_bare_source(seed)),
            )
        }
        Workload::ManagedLight => (
            Box::new(Managed::new(
                light_builder(&plugins)
                    .build()
                    .expect("managed-light configuration is valid"),
            )),
            Box::new(OltpSource::new(LIGHT_OLTP_PER_SEC, seed)),
        ),
        Workload::ManagedMixed => {
            let mut mgr = mixed_builder(seed, &plugins)
                .build()
                .expect("managed-mixed configuration is valid");
            if variant == Variant::EventsOn {
                mgr.subscribe(subscriber(
                    Box::new(RingRecorder::new(EVENT_RING)),
                    &plugins,
                ));
                mgr.subscribe(subscriber(Box::new(WorkloadEventCounters::new()), &plugins));
            }
            (
                Box::new(Managed::new(mgr)),
                Box::new(mixed_source(seed, 1.0, None)),
            )
        }
        Workload::Cluster8Direct => {
            let mut b = cluster_builder(seed, &plugins);
            if variant == Variant::PerfectLink {
                b = b.link(LinkConfig::default());
            }
            let cluster = b.build().expect("cluster8-direct configuration is valid");
            (
                Box::new(Clustered::new(cluster, None)),
                Box::new(mixed_source(seed, SHARDS as f64, Some(PARTITIONS))),
            )
        }
        Workload::Cluster8Chaos => {
            // Installed before the build, so every shard manager and
            // the front-end bus subscribe a recorder feeding the ring.
            wlm_core::events::install_thread_trace(EVENT_RING);
            let built = cluster_builder(seed, &plugins)
                .link(LinkConfig {
                    delay_secs: 0.005,
                    jitter_secs: 0.005,
                    loss_p: 0.01,
                    dup_p: 0.005,
                    retransmit_secs: 0.25,
                    seed: seed.wrapping_add(20),
                })
                .failure_detector(DetectorConfig {
                    // The default 2 s of silence lets ~3 000 requests
                    // pile up unacknowledged toward a partitioned
                    // shard, and every one is hedged, then cancelled
                    // through a full controller checkpoint. 0.2 s
                    // keeps the mechanism working at a tenth of that.
                    dead_silence_secs: 0.2,
                    // Healthy round trips here are 10–20 ms (score
                    // 0.2–0.4). With the default 2.0 the stragglers of
                    // a gray window pushed a just-recovered shard back
                    // over the gray score on two seeds in five, each
                    // flap a second hedge burst worth a tenth of the run.
                    recover_score: 1.0,
                    ..DetectorConfig::default()
                })
                .hedged_redispatch(HedgeConfig::default())
                .elastic(ElasticConfig {
                    min_shards: 4,
                    // No scale-down inside a run: the load never falls
                    // until the drain cuts it, and a retire there can
                    // re-dispatch a request whose hedge race is still
                    // open and complete it twice (README, finding 5).
                    calm_ticks: u32::MAX,
                    ..ElasticConfig::default()
                })
                .failover(FailoverPolicy::Reroute)
                .build();
            wlm_core::events::clear_thread_trace();
            let mut cluster = built.expect("cluster8-chaos configuration is valid");
            cluster.subscribe(subscriber(Box::new(WorkloadEventCounters::new()), &plugins));
            let (surged, surge) = SurgeSource::new(
                Box::new(mixed_source(seed, SHARDS as f64, Some(PARTITIONS))),
                seed.wrapping_add(21),
            );
            let chaos = ChaosSchedule {
                surge,
                next_fault: 0,
                active: true,
            };
            (
                Box::new(Clustered::new(cluster, Some(chaos))),
                Box::new(surged),
            )
        }
    };
    Built {
        system,
        source: SourceProbe::new(source, probes.clone()),
        probes,
        engine_clocks,
    }
}

/// Events the recorder rings keep (`RingRecorder` evicts the oldest).
const EVENT_RING: usize = 4_096;

/// Wrap `inner` in its timing decorator when the run is traced
/// (`plugins` is `Some`), and hand it back untouched otherwise.
macro_rules! decorate {
    ($name:ident, $trait:path, $timed:ident) => {
        fn $name(inner: Box<dyn $trait>, plugins: &Option<Probes>) -> Box<dyn $trait> {
            match plugins {
                Some(p) => Box::new($timed::new(inner, p.clone())),
                None => inner,
            }
        }
    };
}
decorate!(subscriber, EventSubscriber, TimedSubscriber);
decorate!(admission_of, AdmissionController, TimedAdmission);
decorate!(scheduler_of, Scheduler, TimedScheduler);
decorate!(controller_of, ExecutionController, TimedExecController);

/// The default characterizer, decorated, for a traced builder; an
/// untraced one keeps the builder's own (identical) default.
fn characterized(b: WlmBuilder, plugins: &Option<Probes>) -> WlmBuilder {
    match plugins {
        Some(p) => b.characterizer(Box::new(TimedCharacterizer::new(
            Box::new(default_characterizer()),
            p.clone(),
        ))),
        None => b,
    }
}

// ---------------------------------------------------------------- engine-bare

/// Terminals of the closed-loop population that holds the engine's MPL up.
const BARE_TERMINALS: usize = 64;

/// `engine-bare` arrivals: open-loop OLTP and BI, plus a closed-loop
/// population of lock-hungry transactions on a small hot-key space.
///
/// An open system only reaches an MPL in the tens close to saturation,
/// where the level wanders by its own size between seeds. A closed
/// population pins it instead: 64 terminals contending for 4 hot keys
/// keep about as many transactions live — most of them blocked in the
/// lock table, which is the point — however the open streams fluctuate,
/// and memory stays far from overcommit because a blocked transaction
/// holds almost none.
fn engine_bare_source(seed: u64) -> MixedSource {
    MixedSource::new()
        .with(Box::new(OltpSource::new(20.0, seed).with_hot_keys(512)))
        .with(Box::new(
            BiSource::new(0.8, seed.wrapping_add(1)).with_size(600_000.0, 0.8),
        ))
        .with(Box::new(HotKeyTerminals::new(
            BARE_TERMINALS,
            0.05,
            4,
            seed.wrapping_add(2),
        )))
}

/// A closed-loop terminal population issuing single-key update
/// transactions on a hot-key space of its own. (`ClosedLoopOltpSource`
/// keeps its key space private at 100 000 keys, which never contends.)
struct HotKeyTerminals {
    rng: SmallRng,
    think_mean_secs: f64,
    hot_keys: u64,
    /// Terminals ready to submit at these times, ascending.
    ready: Vec<SimTime>,
    counter: u64,
}

const TERMINAL_LABEL: &str = "oltp_hot";
/// The terminals' keys sit above every key the open OLTP stream draws, so
/// the open stream never queues behind the closed population (it would
/// starve there: the lock table grants a freed key to whoever asks next).
const TERMINAL_KEY_BASE: u64 = 1 << 40;

impl HotKeyTerminals {
    fn new(users: usize, think_mean_secs: f64, hot_keys: u64, seed: u64) -> Self {
        let mut pool = HotKeyTerminals {
            rng: SmallRng::seed_from_u64(seed),
            think_mean_secs,
            hot_keys,
            ready: Vec::with_capacity(users),
            counter: 0,
        };
        for _ in 0..users {
            let at = SimTime::ZERO + pool.think();
            pool.ready.push(at);
        }
        pool.ready.sort_unstable();
        pool
    }

    fn think(&mut self) -> SimDuration {
        let u: f64 = 1.0 - self.rng.gen::<f64>();
        SimDuration::from_secs_f64(-u.ln() * self.think_mean_secs)
    }
}

impl Source for HotKeyTerminals {
    fn poll(&mut self, _from: SimTime, to: SimTime) -> Vec<Request> {
        let due = self.ready.partition_point(|at| *at <= to);
        let arrivals: Vec<SimTime> = self.ready.drain(..due).collect();
        arrivals
            .into_iter()
            .map(|arrival| {
                self.counter += 1;
                // One key per transaction: a transaction that blocks on
                // two different keys in its life leaves a stale entry in
                // the lock table's wait queue (see the README's findings),
                // and the queue scans would grow with the run's length.
                let key = TERMINAL_KEY_BASE + self.rng.gen_range(0..self.hot_keys);
                // 30-50 ms of CPU: the lock is held for several quanta.
                let spec = PlanBuilder::index_lookup(self.rng.gen_range(3..=20))
                    .write(OperatorKind::Update, self.rng.gen_range(15_000..=25_000))
                    .build()
                    .into_spec()
                    .labeled(TERMINAL_LABEL.to_string())
                    .with_write_keys(vec![key]);
                Request {
                    id: RequestId((0x0b << 48) | self.counter),
                    arrival,
                    origin: Origin::new("terminal_pool", "teller", self.counter % 64),
                    spec,
                    importance: Importance::High,
                    shard_key: None,
                }
            })
            .collect()
    }

    fn on_completion(&mut self, label: &str, at: SimTime) {
        if label == TERMINAL_LABEL {
            let next = at + self.think();
            let slot = self.ready.partition_point(|t| *t <= next);
            self.ready.insert(slot, next);
        }
    }

    fn label(&self) -> &str {
        TERMINAL_LABEL
    }
}

// -------------------------------------------------------------- managed-light

/// OLTP arrivals per second of `managed-light` (as `bench_wall`).
const LIGHT_OLTP_PER_SEC: f64 = 25.0;

fn default_characterizer() -> StaticCharacterizer {
    // What `WlmBuilder` installs by default: the generator's label is the
    // workload name (chained restructured pieces carry "label#i").
    StaticCharacterizer::new(Vec::new())
        .with_default("default")
        .with_criteria_fn(Box::new(|req, _| {
            (!req.spec.label.is_empty()).then(|| {
                req.spec
                    .label
                    .split('#')
                    .next()
                    .unwrap_or(&req.spec.label)
                    .to_string()
            })
        }))
}

/// `bench_wall`'s single-engine builder: 2 cores, 10 k pages/s, 2 GB,
/// oracle cost model, `oltp` p95 ≤ 2 s, every stage at its pass-through
/// default.
fn light_builder(plugins: &Option<Probes>) -> WlmBuilder {
    let b = WlmBuilder::new()
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
        );
    // The pass-through admission and scheduler defaults are private to the
    // builder, so only the characterizer can be decorated.
    characterized(b, plugins)
}

// -------------------------------------------------------------- managed-mixed

/// Open-loop OLTP arrivals per second per engine.
const MIXED_OLTP_PER_SEC: f64 = 1_500.0;
/// Open-loop BI arrivals per second per engine.
const MIXED_BI_PER_SEC: f64 = 0.8;
/// Open-loop ad-hoc arrivals per second per engine.
const MIXED_ADHOC_PER_SEC: f64 = 0.02;
/// Closed-loop OLTP terminals per engine.
const MIXED_TERMINALS: usize = 16;

/// The `benches/pipeline.rs` "full-stack" shape with resilience on and no
/// subscribers.
fn mixed_builder(seed: u64, plugins: &Option<Probes>) -> WlmBuilder {
    let admission = ThresholdAdmission::with_global_mpl(64).with_policy(
        "bi",
        AdmissionPolicy {
            max_workload_mpl: Some(6),
            // The cost cap is evaluated for every BI request but set above
            // anything `BiSource` can draw: a rejection of a *hedged*
            // request is booked once per copy and its race never closes
            // (README, finding 5), and `cluster8-chaos` must account
            // exactly on every seed.
            max_cost_timerons: Some(1e12),
            on_violation: AdmissionViolationAction::Reject,
            ..Default::default()
        },
    );
    let class = |workload: &str, goal_secs: f64, importance_weight: f64| ServiceClassConfig {
        workload: workload.into(),
        goal_secs,
        importance_weight,
    };
    let scheduler = UtilityScheduler::new(
        vec![
            class("oltp", 0.5, 8.0),
            class("oltp_closed", 0.5, 8.0),
            class("bi", 60.0, 2.0),
        ],
        30_000_000.0,
    );
    let resilience = ResilienceConfig::new(seed.wrapping_add(10))
        .with_retry(RetryPolicy::default())
        .with_timeout("adhoc", 45.0)
        .with_breaker(BreakerConfig::default());
    let b = WlmBuilder::new()
        .engine(EngineConfig {
            cores: 8,
            memory_mb: 2_048,
            ..Default::default()
        })
        .cost_model(CostModel::oracle())
        .policy(
            WorkloadPolicy::new("oltp", Importance::High)
                .with_sla(ServiceLevelAgreement::percentile(95.0, 0.5)),
        )
        .policy(
            WorkloadPolicy::new("oltp_closed", Importance::High)
                .with_sla(ServiceLevelAgreement::percentile(95.0, 0.5)),
        )
        .policy(
            WorkloadPolicy::new("bi", Importance::Medium)
                .with_sla(ServiceLevelAgreement::avg_response(60.0)),
        )
        .policy(WorkloadPolicy::new("adhoc", Importance::Low))
        .resilience(resilience);
    characterized(b, plugins)
        .admission(admission_of(Box::new(admission), plugins))
        .scheduler(scheduler_of(Box::new(scheduler), plugins))
        .exec_controller(controller_of(Box::new(PriorityAging::new(30.0)), plugins))
        .exec_controller(controller_of(
            Box::new(UtilityThrottler::new("oltp", 0.02, 0.3)),
            plugins,
        ))
        .exec_controller(controller_of(
            Box::new(ThresholdKiller::new(120.0)),
            plugins,
        ))
}

/// The `managed-mixed` arrival mix at `scale` times the per-engine open
/// rates and terminal count (`cluster8-*` run it at 8×: weak scaling).
fn mixed_source(seed: u64, scale: f64, partitions: Option<u64>) -> MixedSource {
    let mut oltp = OltpSource::new(MIXED_OLTP_PER_SEC * scale, seed);
    if let Some(p) = partitions {
        oltp = oltp.with_partitions(p);
    }
    MixedSource::new()
        .with(Box::new(oltp))
        .with(Box::new(BiSource::new(
            MIXED_BI_PER_SEC * scale,
            seed.wrapping_add(1),
        )))
        .with(Box::new(AdHocSource::new(
            MIXED_ADHOC_PER_SEC * scale,
            seed.wrapping_add(2),
        )))
        .with(Box::new(ClosedLoopOltpSource::new(
            (MIXED_TERMINALS as f64 * scale) as usize,
            0.5,
            seed.wrapping_add(3),
        )))
}

// ------------------------------------------------------------------ cluster8-*

fn cluster_builder(seed: u64, plugins: &Option<Probes>) -> ClusterBuilder {
    let plugins = plugins.clone();
    ClusterBuilder::new()
        .shards(SHARDS)
        .routing(RoutingPolicy::Affinity)
        .shard_builder(Box::new(move |shard| {
            mixed_builder(seed.wrapping_add(100 + shard as u64), &plugins)
        }))
}

/// The surge trapezoid of one chaos period: flat until 4.5 s, ramp to
/// 1.2× over 1 s, hold 3 s, decay over 1 s. (At 1.3× the shards' OLTP stream
/// starts to convoy on its hot keys and the admission backlog grows
/// without bound; 1.2× stays on the stable side.)
const SURGE: SurgeRamp = SurgeRamp {
    start_secs: 4.5,
    ramp_secs: 1.0,
    hold_secs: 3.0,
    decay_secs: 1.0,
    peak: 1.2,
};

/// What a chaos period injects, as `(offset into the period, fault)`, in
/// time order. The run is 10.5 simulated seconds with its warm-up, so it
/// sees every one of these once and the next period's first only if the
/// run is made longer.
const CHAOS_FAULTS: [(f64, ChaosFault); 3] = [
    // Nothing in the first 4 s: the elastic pool starts at 4 of 8 shards
    // under 8× load and needs that long to spawn and warm the other four;
    // an outage before then leaves three shards with the whole load and
    // tips them into the admission backlog of finding 3.
    (4.0, ChaosFault::Gray),
    (6.5, ChaosFault::Outage),
    (8.5, ChaosFault::Partition),
];

#[derive(Debug, Clone, Copy)]
enum ChaosFault {
    /// 2 s of ×20 link delay toward one shard: round trips of 0.2–0.4 s,
    /// well past the detector's gray score (0.2 s), so its unacknowledged
    /// requests are hedged. (At ×12 the smoothed round trip sat on the
    /// threshold: on one seed in five the shards convoyed (README,
    /// finding 3), and memory and speed came in two modes a tenth apart.)
    Gray,
    /// 0.15 s of partition: shorter than the detector's dead-silence, so
    /// the link drops, retransmits and reconciles at the heal without a
    /// mass hedge (README, finding 2).
    Partition,
    /// 1.5 s controller outage with `Reroute` failover.
    Outage,
}

/// Inject the part of the chaos schedule that is due. Each fault is
/// scheduled in the step its window opens (its recovery with it), so a
/// drain that begins between two faults meets neither a half-injected
/// period nor faults on an empty system. Every step, set the surge factor.
pub fn drive_chaos(cluster: &mut Cluster, chaos: &mut ChaosSchedule) {
    if !chaos.active {
        chaos.surge.set_factor(1.0);
        return;
    }
    let now_secs = cluster.now().as_secs_f64();
    let period_secs = CHAOS_PERIOD_SECS as f64;
    chaos
        .surge
        .set_factor(SURGE.factor_at(now_secs % period_secs));
    loop {
        let period = chaos.next_fault / CHAOS_FAULTS.len() as u64;
        let (offset, fault) = CHAOS_FAULTS[(chaos.next_fault % CHAOS_FAULTS.len() as u64) as usize];
        let at = period as f64 * period_secs + offset;
        if at > now_secs + STEP_SECS {
            break;
        }
        let pick = |k: u64| ((period * 3 + k) % SHARDS as u64) as usize;
        match fault {
            ChaosFault::Gray => apply(
                cluster,
                FaultPlanBuilder::new(period).gray_shard(at, 2.0, pick(0), 20.0),
            ),
            ChaosFault::Partition => apply(
                cluster,
                FaultPlanBuilder::new(period).partition(at, 0.15, pick(1)),
            ),
            // Round-robin over the always-on half of the pool.
            ChaosFault::Outage => cluster
                .schedule_outage((period % 4) as usize, at, 1.5)
                .expect("chaos outages name existing shards"),
        }
        chaos.next_fault += 1;
    }
}

fn apply(cluster: &mut Cluster, plan: FaultPlanBuilder) {
    cluster
        .apply_net_plan(&plan.build())
        .expect("chaos faults name existing shards on a linked cluster");
}
