//! Every metric the harness emits: name, unit, direction, bound.
//!
//! `BENCHMARK.json` lists the same names (a test keeps the two in step).
//! Layer names are the repository's modules: `workload`, `dbsim`, `core`
//! (with its stages), `cluster`, `chaos`; `sim.*` are simulated outcomes.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Share of the parent's median by which it may worsen before a change
    /// counts as a regression (end-to-end metrics only; 0 for per-layer).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what a user of the simulator pays (host time and
/// memory per unit of simulated work) and gets (simulated goodput).
/// Printed by `--trace 0` runs, for every workload.
pub const END_TO_END: &[MetricDef] = &[
    // Milliseconds or less: reported because work moved into set-up must
    // show, flagged low-resolution by the widest bound allowed.
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ticks_per_s", "1/s", Higher, 0.25),
    e2e("requests_per_s", "1/s", Higher, 0.25),
    // Same-seed runs repeat to 0.3 %; the bound is for `cluster8-chaos`,
    // where what the outage and the hedge burst leave behind differs by
    // 4 % between seeds.
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    e2e("rss_growth_mb", "MiB", Lower, 0.10),
    e2e("sim_goodput_per_s", "1/s", Higher, 0.03),
];

/// Per-layer metrics, printed by `--trace 1` runs. A metric that does not
/// apply to a workload (a `cluster.*` count on a single engine) reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("trace_overhead_frac", "frac", Lower),
    layer("traced_run_s", "s", Lower),
    layer("untraced_run_s", "s", Lower),
    // workload: the arrival sources.
    layer("workload.poll_s", "s", Lower),
    layer("workload.requests", "count", Higher),
    layer("workload.poll_ns_per_request", "ns", Lower),
    layer("workload.feedback_s", "s", Lower),
    // dbsim: engine utilisation (every workload; mean over shards)...
    layer("dbsim.cpu_util", "frac", Higher),
    layer("dbsim.io_util", "frac", Higher),
    // ...and direct calls, engine-bare only.
    layer("dbsim.step_s", "s", Lower),
    layer("dbsim.submit_s", "s", Lower),
    layer("dbsim.mean_mpl", "count", Higher),
    layer("dbsim.step_ns_per_live_query", "ns", Lower),
    layer("dbsim.allocs_per_step", "count", Lower),
    layer("dbsim.completions", "count", Higher),
    // core: one manager's control cycle, single-engine workloads.
    layer("core.tick_s", "s", Lower),
    layer("core.tick_us_p50", "us", Lower),
    layer("core.tick_us_p99", "us", Lower),
    layer("core.tick_other_s", "s", Lower),
    layer("core.tick_named_frac", "frac", Higher),
    layer("core.allocs_per_tick", "count", Lower),
    layer("core.alloc_bytes_per_request", "bytes", Lower),
    // core stages: decorator time, summed over shards in a cluster.
    layer("core.identify.classify_s", "s", Lower),
    layer("core.identify.classify_calls", "count", Higher),
    layer("core.admit.decide_s", "s", Lower),
    layer("core.admit.decides_per_request", "ratio", Lower),
    layer("core.schedule.select_s", "s", Lower),
    layer("core.schedule.mean_queue_len", "count", Lower),
    layer("core.exec_control.control_s", "s", Lower),
    layer("core.exec_control.mean_running", "count", Higher),
    layer("core.exec_control.actions", "count", Lower),
    layer("core.resilience.retries", "count", Lower),
    layer("core.resilience.breaker_trips", "count", Lower),
    layer("core.events.emitted", "count", Lower),
    layer("core.events.subscriber_s", "s", Lower),
    layer("core.events.on_over_off", "ratio", Lower),
    layer("core.checkpoint.take_us", "us", Lower),
    layer("core.checkpoint.bytes", "bytes", Lower),
    layer("core.store.commit_us", "us", Lower),
    layer("core.store.load_us", "us", Lower),
    // cluster: the front-end's cycle, cluster workloads.
    layer("cluster.tick_s", "s", Lower),
    layer("cluster.tick_us_p50", "us", Lower),
    layer("cluster.tick_us_p99", "us", Lower),
    layer("cluster.shard_plugin_s", "s", Lower),
    layer("cluster.tick_other_s", "s", Lower),
    layer("cluster.tick_named_frac", "frac", Higher),
    layer("cluster.allocs_per_tick", "count", Lower),
    layer("cluster.overhead_factor", "ratio", Lower),
    layer("cluster.link.perfect_over_direct", "ratio", Lower),
    layer("cluster.routed", "count", Higher),
    layer("cluster.rerouted", "count", Lower),
    layer("cluster.shed", "count", Lower),
    layer("cluster.hedge.hedged", "count", Lower),
    layer("cluster.hedge.dup_per_hedge", "ratio", Lower),
    layer("cluster.link.delivered", "count", Higher),
    layer("cluster.link.dropped", "count", Lower),
    layer("cluster.link.retransmit_frac", "frac", Lower),
    layer("cluster.inbox.redelivered", "count", Lower),
    layer("cluster.elastic.scale_ups", "count", Lower),
    layer("cluster.elastic.scale_downs", "count", Lower),
    layer("cluster.elastic.shard_seconds", "s", Lower),
    layer("chaos.faults_scheduled", "count", Higher),
    // sim: simulated outcomes over the timed region.
    layer("sim.completed_frac", "frac", Higher),
    layer("sim.killed_frac", "frac", Lower),
    layer("sim.rejected_frac", "frac", Lower),
    layer("sim.shed_frac", "frac", Lower),
    layer("sim.violation_frac", "frac", Lower),
];
