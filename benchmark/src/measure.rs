//! One benchmark run of one workload: the untraced pass that yields the
//! end-to-end metrics, and the traced pass that yields the per-layer ones.
//! Both verify what they simulated before they report.

use crate::alloc;
use crate::names::{MetricDef, END_TO_END, PER_LAYER};
use crate::probe::LayerClock;
use crate::run::{
    drain, region_steps, run_region, run_repeated, Drained, Repeated, StepObserver, REPS,
};
use crate::stats::median;
use crate::workloads::{build, Built, Variant, Workload};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;
use wlm_core::manager::{CheckpointStore, StoreConfig};

/// Ticks (shard-quanta) per span chunk: the trace aggregates per (chunk,
/// layer). A cluster step is 8 ticks, so its chunks are 125 steps.
const CHUNK_TICKS: u64 = 1_000;
/// Checkpoint-path samples a traced `managed-mixed` run takes. Few,
/// because a checkpoint carries every response sample and query-log
/// entry so far: late in the region one sample costs about a second.
const CHECKPOINT_SAMPLES: u64 = 3;

/// The result of one run, in the shape the contract's last line needs.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Whether every built-in check passed.
    pub correct: bool,
    /// Requests issued over the run.
    pub attempted: u64,
    /// Requests not in exactly one terminal state after the drain.
    pub failed: u64,
    /// The metrics, in registry order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// `sim_digest` at the end of the timed region, hex.
    pub digest: String,
    /// Human-readable lines: what was checked, what failed.
    pub notes: Vec<String>,
}

fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Checks shared by both passes; returns whether all hold.
fn verify(drained: &Drained, requests: u64, notes: &mut Vec<String>) -> bool {
    let mut ok = true;
    if drained.failed() != 0 {
        ok = false;
        notes.push(format!(
            "FAILED accounting: issued {} but {} in a terminal state after a {:.0} sim-s drain",
            drained.issued, drained.terminal, drained.sim_secs
        ));
    }
    if requests > 1_000_000 {
        ok = false;
        notes.push(format!(
            "FAILED cap: {requests} requests in the timed region (cap 1000000)"
        ));
    }
    ok
}

fn finish(
    defs: &'static [MetricDef],
    values: &BTreeMap<&'static str, f64>,
    mut correct: bool,
    notes: &mut Vec<String>,
) -> (Vec<(&'static MetricDef, f64)>, bool) {
    let metrics: Vec<(&'static MetricDef, f64)> = defs
        .iter()
        .map(|d| (d, values.get(d.name).copied().unwrap_or(0.0)))
        .collect();
    for (d, v) in &metrics {
        if !v.is_finite() {
            correct = false;
            notes.push(format!("FAILED finite: {} = {v}", d.name));
        }
    }
    for name in values.keys() {
        if !defs.iter().any(|d| d.name == *name) {
            correct = false;
            notes.push(format!("FAILED names: `{name}` is not a registered metric"));
        }
    }
    (metrics, correct)
}

/// The untraced pass: system allocator path (counting off), no plug-in
/// decorators, a clock read per slice only.
pub fn untraced_run(workload: Workload, seed: u64, seconds: u64) -> RunOutput {
    let mut notes = Vec::new();
    let steps = region_steps(workload, seconds);
    let mut runs = run_repeated(workload, Variant::Plain, seed, steps, REPS);
    let mut correct = runs.deterministic;
    if !correct {
        notes.push("FAILED determinism: same-seed repetitions ended in different states".into());
    }
    let drained = drain(&mut runs.last);
    let region = &runs.first;
    correct &= verify(&drained, region.issued, &mut notes);

    let mut v = BTreeMap::new();
    v.insert("setup_s", runs.setup_secs);
    v.insert(
        "ticks_per_s",
        runs.steps_per_sec() * workload.ticks_per_step() as f64,
    );
    v.insert(
        "requests_per_s",
        region.terminal() as f64 / runs.best_wall_secs(),
    );
    v.insert("peak_rss_mb", runs.memory.peak_rss_mb);
    v.insert(
        "rss_growth_mb",
        runs.memory.rss_after_mb - runs.memory.rss_before_mb,
    );
    v.insert(
        "sim_goodput_per_s",
        region.completed() as f64 / region.sim_secs(),
    );
    notes.push(format!(
        "run_s {:.4} undisturbed ({:.4} first of {REPS} repetitions): {} steps, {:.0} sim-s, \
         {} requests issued, {} terminal; drain {:.0} sim-s",
        runs.best_wall_secs(),
        region.wall_secs(),
        region.steps,
        region.sim_secs(),
        region.issued,
        region.terminal(),
        drained.sim_secs
    ));
    let (metrics, correct) = finish(END_TO_END, &v, correct, &mut notes);
    RunOutput {
        correct,
        attempted: drained.issued.max(1),
        failed: drained.failed(),
        metrics,
        digest: hex(region.after.digest()),
        notes,
    }
}

/// One aggregated span of the trace: a layer's activity in one chunk.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// The span that caused it (`run` for the outermost layer).
    pub parent: &'static str,
    /// Chunk index (1 000 ticks each).
    pub chunk: u64,
    /// Chunk start, ns since the timed region began.
    pub start_ns: u64,
    /// Chunk end, ns since the timed region began.
    pub end_ns: u64,
    /// Calls into the layer during the chunk.
    pub calls: u64,
    /// Wall ns spent inside those calls.
    pub busy_ns: u64,
}

/// A log-linear histogram of step times (8 sub-buckets per power of two).
struct Histogram {
    buckets: Vec<u64>,
    count: u64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: vec![0; 64 * 8],
            count: 0,
        }
    }

    fn record(&mut self, nanos: u64) {
        let n = nanos.max(1);
        let exp = 63 - n.leading_zeros() as usize;
        let sub = if exp >= 3 { (n >> (exp - 3)) & 7 } else { 0 } as usize;
        self.buckets[exp * 8 + sub] += 1;
        self.count += 1;
    }

    /// The `p`-th percentile, µs (lower edge of the bucket it falls in).
    fn percentile_us(&self, p: f64) -> f64 {
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                let (exp, sub) = (i / 8, i % 8);
                let edge = (1u64 << exp)
                    + if exp >= 3 {
                        (sub as u64) << (exp - 3)
                    } else {
                        0
                    };
                return edge as f64 / 1e3;
            }
        }
        0.0
    }
}

/// Direct-call timings of the checkpoint path (`managed-mixed`, traced).
struct CheckpointSampler {
    store: CheckpointStore,
    every: u64,
    take_us: Vec<f64>,
    bytes: Vec<f64>,
    commit_us: Vec<f64>,
    load_us: Vec<f64>,
}

/// The traced pass's step observer: per-step histogram, per-chunk spans.
struct Tracer {
    tick_name: &'static str,
    /// Steps per chunk.
    chunk_steps: u64,
    region_started: Instant,
    hist: Histogram,
    tick_nanos: u64,
    chunk_tick_nanos: u64,
    chunk_start_ns: u64,
    /// `(calls, nanos)` of every clock at the start of the chunk.
    chunk_prev: Vec<(u64, u64)>,
    spans: Vec<Span>,
    checkpoints: Option<CheckpointSampler>,
    /// `(CPU, disk)` utilisation sampled at every chunk end.
    utilization: Vec<(f64, f64)>,
    /// Wall ns spent in the observer's own sampling (not the program's).
    sampling_nanos: u64,
    /// What the counters read when the timed region began.
    at_start: Option<Readings>,
}

/// Every counter a traced run differences over the timed region. The
/// decorators count from the first warm-up step on; the region's share is
/// the difference between two readings.
struct Readings {
    /// `(calls, nanos, items)` per clock, in [`clocks`] order.
    clocks: Vec<(u64, u64, u64)>,
    /// Σ queue length at `select`, Σ running-set size at `control`.
    gauges: [u64; 2],
    /// Allocation calls and bytes.
    allocs: (u64, u64),
    /// Allocation calls inside `DbEngine::step` (`engine-bare`).
    step_allocs: u64,
}

impl Readings {
    fn take(built: &Built) -> Self {
        Readings {
            clocks: clocks(built).iter().map(|(_, c)| c.read()).collect(),
            gauges: [built.probes.queue_len.items(), built.probes.running.items()],
            allocs: alloc::counted(),
            step_allocs: built
                .engine_clocks
                .as_ref()
                .map_or(0, |e| e.step_allocs.get()),
        }
    }
}

impl Tracer {
    fn new(workload: Workload, tick_name: &'static str, steps: u64) -> Self {
        let chunk_steps = CHUNK_TICKS / workload.ticks_per_step();
        Tracer {
            tick_name,
            chunk_steps,
            region_started: Instant::now(),
            hist: Histogram::new(),
            tick_nanos: 0,
            chunk_tick_nanos: 0,
            chunk_start_ns: 0,
            chunk_prev: Vec::new(),
            spans: Vec::new(),
            checkpoints: (workload == Workload::ManagedMixed).then(|| CheckpointSampler {
                store: CheckpointStore::new(StoreConfig::default()),
                every: (steps / chunk_steps / CHECKPOINT_SAMPLES).max(1),
                take_us: Vec::new(),
                bytes: Vec::new(),
                commit_us: Vec::new(),
                load_us: Vec::new(),
            }),
            utilization: Vec::new(),
            sampling_nanos: 0,
            at_start: None,
        }
    }
}

fn clocks(built: &Built) -> Vec<(&'static str, &LayerClock)> {
    let mut all: Vec<(&'static str, &LayerClock)> = built.probes.named().to_vec();
    if let Some(engine) = &built.engine_clocks {
        all.push(("dbsim.submit", &engine.submit));
        all.push(("dbsim.step", &engine.step));
    }
    all
}

impl StepObserver for Tracer {
    fn times_steps(&self) -> bool {
        true
    }

    fn region_starts(&mut self, built: &Built) {
        alloc::set_counting(true);
        let readings = Readings::take(built);
        self.chunk_prev = readings.clocks.iter().map(|c| (c.0, c.1)).collect();
        self.at_start = Some(readings);
        self.region_started = Instant::now();
    }

    fn after_step(&mut self, built: &Built, step: u64, nanos: u64) {
        self.hist.record(nanos);
        self.tick_nanos += nanos;
        self.chunk_tick_nanos += nanos;
        if !(step + 1).is_multiple_of(self.chunk_steps) {
            return;
        }
        let sampling = Instant::now();
        let end_ns = self.region_started.elapsed().as_nanos() as u64;
        let chunk = step / self.chunk_steps;
        self.spans.push(Span {
            name: self.tick_name,
            parent: "run",
            chunk,
            start_ns: self.chunk_start_ns,
            end_ns,
            calls: self.chunk_steps,
            busy_ns: self.chunk_tick_nanos,
        });
        for ((name, clock), prev) in clocks(built).iter().zip(self.chunk_prev.iter_mut()) {
            let (calls, nanos, _) = clock.read();
            self.spans.push(Span {
                name,
                parent: self.tick_name,
                chunk,
                start_ns: self.chunk_start_ns,
                end_ns,
                calls: calls - prev.0,
                busy_ns: nanos - prev.1,
            });
            *prev = (calls, nanos);
        }
        self.utilization.push(built.system.utilization());
        if let (Some(s), Some(mgr)) = (self.checkpoints.as_mut(), built.system.manager()) {
            if (chunk + 1).is_multiple_of(s.every) {
                let t = Instant::now();
                let state = mgr.checkpoint();
                s.take_us.push(t.elapsed().as_secs_f64() * 1e6);
                s.bytes.push(state.to_bytes().len() as f64);
                let t = Instant::now();
                s.store.commit(&state);
                s.commit_us.push(t.elapsed().as_secs_f64() * 1e6);
                let t = Instant::now();
                let loaded = s.store.load_latest();
                s.load_us.push(t.elapsed().as_secs_f64() * 1e6);
                assert!(
                    loaded.state.is_some(),
                    "a clean store loads what it committed"
                );
            }
        }
        self.chunk_tick_nanos = 0;
        self.chunk_start_ns = self.region_started.elapsed().as_nanos() as u64;
        self.sampling_nanos += sampling.elapsed().as_nanos() as u64;
    }
}

/// Repetitions of each untraced yardstick a traced run compares with.
const YARDSTICK_REPS: usize = 2;

/// Run `workload` untraced as `variant` over `steps`: the yardsticks a
/// traced pass compares itself with.
fn yardstick(workload: Workload, variant: Variant, seed: u64, steps: u64) -> Repeated {
    run_repeated(workload, variant, seed, steps, YARDSTICK_REPS)
}

/// The traced pass: counting allocator on, every plug-in decorated, a
/// clock read around every step; then the same region untraced, for the
/// tracing overhead and the digest comparison; then the workload's
/// mechanism re-runs. Returns the output and the spans.
pub fn traced_run(workload: Workload, seed: u64, seconds: u64) -> (RunOutput, Vec<Span>) {
    let mut notes = Vec::new();
    let steps = region_steps(workload, seconds);
    let ticks = workload.ticks_per_step() as f64;
    let clustered = workload.ticks_per_step() > 1;
    let tick_name = match workload {
        Workload::EngineBare => "harness.step",
        _ if clustered => "cluster.tick",
        _ => "core.tick",
    };

    let mut built = build(workload, Variant::Plain, seed, true);
    let mut tracer = Tracer::new(workload, tick_name, steps);
    let region = run_region(&mut built, steps, &mut tracer);
    alloc::set_counting(false);
    let at_end = Readings::take(&built);
    let at_start = tracer
        .at_start
        .take()
        .expect("run_region announces the region's start");
    let traced_run_s = region.wall_secs() - tracer.sampling_nanos as f64 / 1e9;
    let chaos_faults = built.system.faults_scheduled();
    let drained = drain(&mut built);
    let mut correct = verify(&drained, region.issued, &mut notes);

    // Region deltas of every clock, by name.
    let names: Vec<&'static str> = clocks(&built).iter().map(|(n, _)| *n).collect();
    let delta: BTreeMap<&'static str, (f64, f64, f64)> = names
        .iter()
        .zip(at_start.clocks.iter().zip(&at_end.clocks))
        .map(|(n, (a, b))| {
            (
                *n,
                (
                    (b.0 - a.0) as f64,
                    (b.1 - a.1) as f64 / 1e9,
                    (b.2 - a.2) as f64,
                ),
            )
        })
        .collect();
    let clock = |name: &str| delta.get(name).copied().unwrap_or((0.0, 0.0, 0.0));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let allocs = (at_end.allocs.0 - at_start.allocs.0) as f64;
    let alloc_bytes = (at_end.allocs.1 - at_start.allocs.1) as f64;
    let requests = region.issued as f64;
    let tick_s = tracer.tick_nanos as f64 / 1e9;

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert("traced_run_s", traced_run_s);
    let (_, poll_s, _) = clock("workload.poll");
    let (_, feedback_s, _) = clock("workload.feedback");
    v.insert("workload.poll_s", poll_s);
    v.insert("workload.requests", requests);
    v.insert(
        "workload.poll_ns_per_request",
        ratio(poll_s * 1e9, requests),
    );
    v.insert("workload.feedback_s", feedback_s);

    let (classify_calls, classify_s, _) = clock("core.identify.classify");
    let (decide_calls, decide_s, _) = clock("core.admit.decide");
    let (select_calls, select_s, _) = clock("core.schedule.select");
    let (control_calls, control_s, actions) = clock("core.exec_control.control");
    let (_, subscriber_s, _) = clock("core.events.subscriber");
    v.insert("core.identify.classify_s", classify_s);
    v.insert("core.identify.classify_calls", classify_calls);
    v.insert("core.admit.decide_s", decide_s);
    v.insert(
        "core.admit.decides_per_request",
        ratio(decide_calls, requests),
    );
    v.insert("core.schedule.select_s", select_s);
    v.insert(
        "core.schedule.mean_queue_len",
        ratio((at_end.gauges[0] - at_start.gauges[0]) as f64, select_calls),
    );
    v.insert("core.exec_control.control_s", control_s);
    v.insert(
        "core.exec_control.mean_running",
        ratio(
            (at_end.gauges[1] - at_start.gauges[1]) as f64,
            control_calls,
        ),
    );
    v.insert("core.exec_control.actions", actions);
    v.insert("core.events.subscriber_s", subscriber_s);
    v.insert(
        "core.resilience.retries",
        (region.after.retries - region.before.retries) as f64,
    );
    v.insert(
        "core.resilience.breaker_trips",
        (region.after.breaker_trips - region.before.breaker_trips) as f64,
    );
    v.insert(
        "core.events.emitted",
        (region.after.events_emitted - region.before.events_emitted) as f64,
    );

    // Everything the decorators can name inside a tick; the remainder is
    // the engine step plus manager (and front-end) bookkeeping, which
    // only spans inside the program could split.
    let named_s = classify_s + decide_s + select_s + control_s + subscriber_s + poll_s + feedback_s;
    match workload {
        Workload::EngineBare => {
            let (step_calls, step_s, live) = clock("dbsim.step");
            let (_, submit_s, _) = clock("dbsim.submit");
            v.insert("dbsim.step_s", step_s);
            v.insert("dbsim.submit_s", submit_s);
            v.insert("dbsim.mean_mpl", ratio(live, step_calls));
            v.insert("dbsim.step_ns_per_live_query", ratio(step_s * 1e9, live));
            v.insert(
                "dbsim.allocs_per_step",
                ratio(
                    (at_end.step_allocs - at_start.step_allocs) as f64,
                    step_calls,
                ),
            );
            v.insert("dbsim.completions", region.completed() as f64);
        }
        _ if clustered => {
            v.insert("cluster.tick_s", tick_s);
            v.insert("cluster.tick_us_p50", tracer.hist.percentile_us(50.0));
            v.insert("cluster.tick_us_p99", tracer.hist.percentile_us(99.0));
            v.insert("cluster.shard_plugin_s", named_s - poll_s - feedback_s);
            v.insert("cluster.tick_other_s", tick_s - named_s);
            v.insert("cluster.tick_named_frac", ratio(named_s, tick_s));
            v.insert("cluster.allocs_per_tick", allocs / (steps as f64 * ticks));
        }
        _ => {
            v.insert("core.tick_s", tick_s);
            v.insert("core.tick_us_p50", tracer.hist.percentile_us(50.0));
            v.insert("core.tick_us_p99", tracer.hist.percentile_us(99.0));
            v.insert("core.tick_other_s", tick_s - named_s);
            v.insert("core.tick_named_frac", ratio(named_s, tick_s));
            v.insert("core.allocs_per_tick", allocs / steps as f64);
        }
    }
    if workload != Workload::EngineBare {
        v.insert("core.alloc_bytes_per_request", ratio(alloc_bytes, requests));
    }

    let k = &region.after.cluster;
    let k0 = &region.before.cluster;
    v.insert("cluster.routed", (k.routed - k0.routed) as f64);
    v.insert("cluster.rerouted", (k.rerouted - k0.rerouted) as f64);
    v.insert("cluster.shed", (k.shed - k0.shed) as f64);
    let hedged = (k.hedged - k0.hedged) as f64;
    v.insert("cluster.hedge.hedged", hedged);
    v.insert(
        "cluster.hedge.dup_per_hedge",
        ratio((k.dup_completions - k0.dup_completions) as f64, hedged),
    );
    let delivered = (k.delivered - k0.delivered) as f64;
    v.insert("cluster.link.delivered", delivered);
    v.insert(
        "cluster.link.dropped",
        (k.link_dropped - k0.link_dropped) as f64,
    );
    v.insert(
        "cluster.link.retransmit_frac",
        ratio((k.retransmits - k0.retransmits) as f64, delivered),
    );
    v.insert(
        "cluster.inbox.redelivered",
        (k.redelivered - k0.redelivered) as f64,
    );
    v.insert(
        "cluster.elastic.scale_ups",
        (k.scale_ups - k0.scale_ups) as f64,
    );
    v.insert(
        "cluster.elastic.scale_downs",
        (k.scale_downs - k0.scale_downs) as f64,
    );
    v.insert(
        "cluster.elastic.shard_seconds",
        k.shard_seconds - k0.shard_seconds,
    );
    v.insert("chaos.faults_scheduled", chaos_faults as f64);

    let terminal = region.terminal() as f64;
    v.insert(
        "sim.completed_frac",
        ratio(region.completed() as f64, terminal),
    );
    v.insert(
        "sim.killed_frac",
        ratio(
            (region.after.killed() - region.before.killed()) as f64,
            terminal,
        ),
    );
    v.insert(
        "sim.rejected_frac",
        ratio(
            (region.after.rejected() - region.before.rejected()) as f64,
            terminal,
        ),
    );
    v.insert("sim.shed_frac", ratio((k.shed - k0.shed) as f64, terminal));
    v.insert(
        "sim.violation_frac",
        ratio(
            (region.after.violations() - region.before.violations()) as f64,
            region.completed() as f64,
        ),
    );

    let mean = |f: fn(&(f64, f64)) -> f64| {
        ratio(
            tracer.utilization.iter().map(f).sum(),
            tracer.utilization.len() as f64,
        )
    };
    v.insert("dbsim.cpu_util", mean(|u| u.0));
    v.insert("dbsim.io_util", mean(|u| u.1));

    if let Some(s) = &tracer.checkpoints {
        v.insert("core.checkpoint.take_us", median(&s.take_us));
        v.insert("core.checkpoint.bytes", median(&s.bytes));
        v.insert("core.store.commit_us", median(&s.commit_us));
        v.insert("core.store.load_us", median(&s.load_us));
    }

    // The same region, same seed, untraced: the tracing overhead, and the
    // check that decorators and the counting allocator changed nothing.
    let plain = yardstick(workload, Variant::Plain, seed, steps);
    v.insert("untraced_run_s", plain.best_wall_secs());
    v.insert(
        "trace_overhead_frac",
        traced_run_s / plain.best_wall_secs() - 1.0,
    );
    let digest = region.after.digest();
    if plain.first.after.digest() != digest {
        correct = false;
        notes.push(format!(
            "FAILED digest: traced {} != untraced {}",
            hex(digest),
            hex(plain.first.after.digest())
        ));
    }
    match workload {
        Workload::ManagedMixed => {
            let on = yardstick(workload, Variant::EventsOn, seed, steps);
            v.insert(
                "core.events.on_over_off",
                on.best_wall_secs() / plain.best_wall_secs(),
            );
            if on.first.after.digest() != digest {
                correct = false;
                notes.push("FAILED digest: subscribers changed the simulation".into());
            }
        }
        Workload::Cluster8Direct => {
            let linked = yardstick(workload, Variant::PerfectLink, seed, steps);
            v.insert(
                "cluster.link.perfect_over_direct",
                linked.best_wall_secs() / plain.best_wall_secs(),
            );
            if linked.first.after.digest() != digest {
                correct = false;
                notes.push(format!(
                    "FAILED digest: perfect link {} != direct fabric {}",
                    hex(linked.first.after.digest()),
                    hex(digest)
                ));
            }
            // Host time per shard-quantum here over the same on one
            // managed-mixed engine.
            let single = Workload::ManagedMixed;
            let one = yardstick(single, Variant::Plain, seed, region_steps(single, seconds));
            let per_quantum_cluster = 1.0 / (plain.steps_per_sec() * ticks);
            let per_quantum_single = 1.0 / one.steps_per_sec();
            v.insert(
                "cluster.overhead_factor",
                per_quantum_cluster / per_quantum_single,
            );
        }
        _ => {}
    }
    notes.push(format!(
        "traced {:.3}s vs untraced {:.3}s over {} steps; {} requests; named layers {:.1}% of {tick_name}",
        traced_run_s,
        plain.best_wall_secs(),
        steps,
        region.issued,
        100.0 * ratio(named_s, tick_s)
    ));

    let (metrics, correct) = finish(PER_LAYER, &v, correct, &mut notes);
    (
        RunOutput {
            correct,
            attempted: drained.issued.max(1),
            failed: drained.failed(),
            metrics,
            digest: hex(digest),
            notes,
        },
        tracer.spans,
    )
}
