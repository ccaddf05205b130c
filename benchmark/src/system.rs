//! The three shapes of system under test, behind one stepping interface.
//!
//! A *step* is one call into the outermost layer: `DbEngine::step` (plus
//! the submits that feed it), `WorkloadManager::tick` or `Cluster::tick`.
//! A *tick* is one shard-quantum, so a step of an 8-shard cluster is 8
//! ticks (the convention `bench_wall` uses).

use crate::probe::LayerClock;
use crate::stats::fnv1a64;
use std::collections::BTreeMap;
use std::time::Instant;
use wlm_cluster::Cluster;
use wlm_core::manager::{RunReport, WorkloadManager};
use wlm_dbsim::engine::{CompletionKind, DbEngine};
use wlm_dbsim::time::SimTime;
use wlm_workload::generators::{Source, SurgeHandle};

/// Per-workload (service class) simulated outcome counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassOutcome {
    /// Requests that ran to completion.
    pub completed: u64,
    /// Requests killed for good (not resubmitted or retried).
    pub killed: u64,
    /// Requests turned away at a shard's admission gate.
    pub rejected: u64,
    /// Completions that broke the class's tightest response-time goal.
    pub violations: u64,
}

/// Front-end counters of a cluster run (all zero for single engines).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterOutcome {
    /// Requests routed by the front-end.
    pub routed: u64,
    /// Requests moved off failed or retired shards.
    pub rerouted: u64,
    /// Requests shed at the cluster door.
    pub shed: u64,
    /// Hedged re-dispatches.
    pub hedged: u64,
    /// Completions of already-won hedge races, absorbed by the filter.
    pub dup_completions: u64,
    /// Link messages delivered to a shard.
    pub delivered: u64,
    /// Link messages lost.
    pub link_dropped: u64,
    /// Deliveries the shard-side dedup dropped.
    pub redelivered: u64,
    /// Retransmissions after an ack timeout.
    pub retransmits: u64,
    /// Shards the autoscaler spawned.
    pub scale_ups: u64,
    /// Shards the autoscaler retired.
    pub scale_downs: u64,
    /// Capacity bill, shard-seconds.
    pub shard_seconds: f64,
    /// Orphan kills (failover strips, hedge losers) the front-end takes
    /// back out of the shards' kill counts: their twins run elsewhere.
    pub reclaimed_kills: u64,
}

/// The simulated outcome of a run so far — what `sim_digest` hashes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Simulated time, µs.
    pub sim_us: u64,
    /// Outcomes per service class, by name.
    pub classes: BTreeMap<String, ClassOutcome>,
    /// Cluster front-end counters.
    pub cluster: ClusterOutcome,
    /// Retries the resilience layer scheduled.
    pub retries: u64,
    /// Circuit-breaker state transitions.
    pub breaker_trips: u64,
    /// Decision events emitted on the manager / front-end buses.
    pub events_emitted: u64,
}

impl Outcome {
    fn sum(&self, f: impl Fn(&ClassOutcome) -> u64) -> u64 {
        self.classes.values().map(f).sum()
    }

    /// Requests completed. For a cluster, duplicate completions of hedge
    /// races are excluded, as in `ClusterReport::completed`.
    pub fn completed(&self) -> u64 {
        self.sum(|c| c.completed) - self.cluster.dup_completions
    }

    /// Requests killed for good.
    pub fn killed(&self) -> u64 {
        self.sum(|c| c.killed) - self.cluster.reclaimed_kills
    }

    /// Requests rejected at a shard's admission gate.
    pub fn rejected(&self) -> u64 {
        self.sum(|c| c.rejected)
    }

    /// SLA goal violations.
    pub fn violations(&self) -> u64 {
        self.sum(|c| c.violations)
    }

    /// Requests that reached a terminal state.
    pub fn terminal(&self) -> u64 {
        self.completed() + self.killed() + self.rejected() + self.cluster.shed
    }

    /// FNV-1a 64 over the ordered counters: a speed-only change must
    /// leave it unchanged.
    pub fn digest(&self) -> u64 {
        let mut words = vec![self.sim_us];
        for (name, c) in &self.classes {
            words.push(fnv1a64(&name.bytes().map(u64::from).collect::<Vec<u64>>()));
            words.extend([c.completed, c.killed, c.rejected, c.violations]);
        }
        let k = &self.cluster;
        words.extend([
            k.routed,
            k.rerouted,
            k.shed,
            k.hedged,
            k.dup_completions,
            k.scale_ups,
            k.scale_downs,
            k.shard_seconds.to_bits(),
        ]);
        fnv1a64(&words)
    }
}

/// Clocks of the direct calls into `DbEngine` (`engine-bare`, traced).
#[derive(Debug, Default)]
pub struct EngineClocks {
    /// `DbEngine::submit`.
    pub submit: LayerClock,
    /// `DbEngine::step`; items = Σ live queries before the step.
    pub step: LayerClock,
    /// Allocation calls counted inside `DbEngine::step`.
    pub step_allocs: std::cell::Cell<u64>,
}

/// A system the harness can step.
pub trait System {
    /// Advance one step, pulling the window's arrivals from `source`.
    fn step(&mut self, source: &mut dyn Source);

    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// The simulated outcome so far. Not cheap (it builds full reports);
    /// the harness calls it at region boundaries only, clock stopped.
    fn outcome(&self) -> Outcome;

    /// Whether nothing is queued, running or in flight as far as the
    /// public accessors show — the drain's stop condition.
    fn looks_idle(&self) -> bool;

    /// Recent `(CPU, disk)` utilisation of the engine(s), each in `[0, 1]`
    /// (the mean over shards for a cluster).
    fn utilization(&self) -> (f64, f64);

    /// Stop injecting scheduled faults and surges (the drain calls this
    /// when it cuts the arrivals).
    fn stop_injecting(&mut self) {}

    /// Faults the harness has scheduled so far (`cluster8-chaos`).
    fn faults_scheduled(&self) -> u64 {
        0
    }

    /// The manager whose checkpoint path the traced run samples, if the
    /// system is a single managed engine.
    fn manager(&self) -> Option<&WorkloadManager> {
        None
    }
}

/// A bare `DbEngine`: the harness polls the source and submits specs.
pub struct BareEngine {
    engine: DbEngine,
    classes: BTreeMap<String, ClassOutcome>,
    /// `Some` in traced runs.
    clocks: Option<std::rc::Rc<EngineClocks>>,
}

impl BareEngine {
    /// Wrap `engine`; `clocks` switches on timing of the direct calls.
    pub fn new(engine: DbEngine, clocks: Option<std::rc::Rc<EngineClocks>>) -> Self {
        BareEngine {
            engine,
            classes: BTreeMap::new(),
            clocks,
        }
    }
}

impl System for BareEngine {
    fn step(&mut self, source: &mut dyn Source) {
        let from = self.engine.now();
        let to = from + self.engine.config().quantum;
        let arrivals = source.poll(from, to);
        let completions = match &self.clocks {
            None => {
                for req in arrivals {
                    self.engine.submit(req.spec);
                }
                self.engine.step()
            }
            Some(clocks) => {
                let n = arrivals.len() as u64;
                let t = Instant::now();
                for req in arrivals {
                    self.engine.submit(req.spec);
                }
                if n > 0 {
                    clocks.submit.add_span(t, n);
                }
                let live = self.engine.mpl() as u64;
                let allocs = crate::alloc::counted().0;
                let t = Instant::now();
                let done = self.engine.step();
                clocks.step.add_span(t, live);
                clocks
                    .step_allocs
                    .set(clocks.step_allocs.get() + crate::alloc::counted().0 - allocs);
                done
            }
        };
        for c in completions {
            if !self.classes.contains_key(&c.label) {
                self.classes
                    .insert(c.label.clone(), ClassOutcome::default());
            }
            let class = self.classes.get_mut(&c.label).expect("inserted above");
            match c.kind {
                CompletionKind::Completed => class.completed += 1,
                CompletionKind::Killed => class.killed += 1,
            }
            source.on_completion(&c.label, c.finished);
        }
    }

    fn now(&self) -> SimTime {
        self.engine.now()
    }

    fn outcome(&self) -> Outcome {
        Outcome {
            sim_us: self.engine.now().0,
            classes: self.classes.clone(),
            ..Outcome::default()
        }
    }

    fn looks_idle(&self) -> bool {
        self.engine.mpl() == 0
    }

    fn utilization(&self) -> (f64, f64) {
        self.engine
            .metrics()
            .intervals()
            .last()
            .map_or((0.0, 0.0), |i| (i.cpu_utilization(), i.io_utilization()))
    }
}

fn class_rows(
    report: &RunReport,
    mgr: &WorkloadManager,
    into: &mut BTreeMap<String, ClassOutcome>,
) {
    for w in &report.workloads {
        let class = into.entry(w.workload.clone()).or_default();
        class.completed += w.stats.completed;
        class.killed += w.stats.killed;
        class.rejected += w.stats.rejected;
        class.violations += mgr.goal_violations_in(&w.workload);
    }
}

fn manager_idle(mgr: &WorkloadManager) -> bool {
    mgr.queued() == 0
        && mgr.deferred() == 0
        && mgr.suspended_count() == 0
        && mgr.engine().mpl() == 0
        && mgr
            .resilience_report()
            .is_none_or(|r| r.pending_retries == 0)
}

/// One workload-managed engine.
pub struct Managed {
    mgr: WorkloadManager,
}

impl Managed {
    /// Wrap a built manager.
    pub fn new(mgr: WorkloadManager) -> Self {
        Managed { mgr }
    }
}

impl System for Managed {
    fn step(&mut self, source: &mut dyn Source) {
        self.mgr.tick(source);
    }

    fn now(&self) -> SimTime {
        self.mgr.now()
    }

    fn outcome(&self) -> Outcome {
        let report = self.mgr.report();
        let mut classes = BTreeMap::new();
        class_rows(&report, &self.mgr, &mut classes);
        let res = self.mgr.resilience_report();
        Outcome {
            sim_us: self.mgr.now().0,
            classes,
            cluster: ClusterOutcome::default(),
            retries: res.as_ref().map_or(0, |r| r.retries_scheduled),
            breaker_trips: res.as_ref().map_or(0, |r| r.breaker_transitions),
            events_emitted: self.mgr.events_emitted(),
        }
    }

    fn looks_idle(&self) -> bool {
        manager_idle(&self.mgr)
    }

    fn utilization(&self) -> (f64, f64) {
        let snap = self.mgr.live_snapshot();
        (snap.cpu_utilization, snap.io_utilization)
    }

    fn manager(&self) -> Option<&WorkloadManager> {
        Some(&self.mgr)
    }
}

/// The periodic fault and surge schedule of `cluster8-chaos`, injected by
/// the harness at fixed simulated times.
pub struct ChaosSchedule {
    /// Drives the surge trapezoid.
    pub surge: SurgeHandle,
    /// Faults scheduled so far (`chaos.faults_scheduled`); the next one
    /// is this index into the repeating period.
    pub next_fault: u64,
    /// Cleared by the drain: no new faults, surge back to 1.
    pub active: bool,
}

/// N shards under the cluster front-end.
pub struct Clustered {
    cluster: Cluster,
    /// `Some` for `cluster8-chaos`.
    pub chaos: Option<ChaosSchedule>,
}

impl Clustered {
    /// Wrap a built cluster.
    pub fn new(cluster: Cluster, chaos: Option<ChaosSchedule>) -> Self {
        Clustered { cluster, chaos }
    }
}

impl System for Clustered {
    fn step(&mut self, source: &mut dyn Source) {
        if let Some(chaos) = self.chaos.as_mut() {
            crate::workloads::drive_chaos(&mut self.cluster, chaos);
        }
        self.cluster.tick(source);
    }

    fn now(&self) -> SimTime {
        self.cluster.now()
    }

    fn outcome(&self) -> Outcome {
        let report = self.cluster.report();
        let mut classes = BTreeMap::new();
        let mut retries = 0;
        let mut breaker_trips = 0;
        let mut events_emitted = 0;
        for (i, shard_report) in report.shards.iter().enumerate() {
            let mgr = self.cluster.shard(i).expect("shard index from the report");
            class_rows(shard_report, mgr, &mut classes);
            if let Some(r) = mgr.resilience_report() {
                retries += r.retries_scheduled;
                breaker_trips += r.breaker_transitions;
            }
            events_emitted += mgr.events_emitted();
        }
        let raw_killed: u64 = classes.values().map(|c| c.killed).sum();
        Outcome {
            sim_us: self.cluster.now().0,
            classes,
            cluster: ClusterOutcome {
                routed: report.routed,
                rerouted: report.rerouted,
                shed: report.shed,
                hedged: report.hedged,
                dup_completions: report.duplicate_completions,
                delivered: report.delivered,
                link_dropped: report.link_dropped,
                redelivered: report.redelivered,
                retransmits: report.retransmits,
                scale_ups: report.scale_ups,
                scale_downs: report.scale_downs,
                shard_seconds: report.shard_seconds,
                reclaimed_kills: raw_killed - report.killed,
            },
            retries,
            breaker_trips,
            events_emitted,
        }
    }

    fn stop_injecting(&mut self) {
        if let Some(chaos) = self.chaos.as_mut() {
            chaos.active = false;
        }
    }

    fn faults_scheduled(&self) -> u64 {
        self.chaos.as_ref().map_or(0, |c| c.next_fault)
    }

    fn utilization(&self) -> (f64, f64) {
        let n = self.cluster.shard_count();
        let (cpu, io) = (0..n)
            .filter_map(|i| self.cluster.shard(i).ok())
            .map(|mgr| mgr.live_snapshot())
            .fold((0.0, 0.0), |(c, d), s| {
                (c + s.cpu_utilization, d + s.io_utilization)
            });
        (cpu / n as f64, io / n as f64)
    }

    fn looks_idle(&self) -> bool {
        self.cluster.open_hedge_races() == 0
            && self
                .cluster
                .snapshot()
                .shards
                .iter()
                .all(|s| s.inbox_depth == 0)
            && (0..self.cluster.shard_count())
                .all(|i| self.cluster.shard(i).is_ok_and(manager_idle))
    }
}
