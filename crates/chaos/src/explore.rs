//! # Deterministic fault-space exploration (Jepsen-lite)
//!
//! The resilience experiments E16–E25 pin behaviour at *hand-picked*
//! fault schedules; this module sweeps a *budgeted grid* of them. An
//! [`Explorer`] enumerates [`Schedule`]s — combinations of controller
//! crash points, link-loss and partition windows, shard kills, and
//! checkpoint corruption — runs a short canonical workload per schedule
//! through a caller-supplied run function, and checks four machine
//! invariants on each [`RunOutcome`]:
//!
//! 1. **exactly-once** — no request completes twice;
//! 2. **work conservation** — every issued request is accounted for
//!    (completed, killed, rejected, shed, or still in flight); a
//!    shortfall means a fault *lost* work silently;
//! 3. **bounded recovery** — no shard stays unavailable longer than
//!    its scheduled outage plus a pinned grace bound;
//! 4. **no stuck requests** — work issued before the drain horizon must
//!    finish by the end of the run.
//!
//! A failing schedule is [shrunk](shrink) by greedy delta-debugging to a
//! minimal reproducer and printed as a seed + schedule literal, so a
//! regression found by the sweep becomes a one-line deterministic test.
//!
//! The run function is a closure rather than a hard-wired target because
//! `wlm-cluster` depends on this crate: the cluster-driving adapter
//! lives with the experiments (`wlm-bench`) and the workspace tests.

use serde::{Deserialize, Serialize};
use wlm_core::manager::store::CorruptionKind;
use wlm_core::splitmix64;

/// One fault in a schedule. Times are deciseconds of simulated time so
/// schedules stay integer-valued, totally ordered, and byte-stable
/// under serialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "fault", rename_all = "snake_case")]
pub enum ScheduleFault {
    /// Crash `shard`'s controller at `at_ds`, down for `dur_ds`.
    ShardCrash {
        /// The shard that goes down.
        shard: usize,
        /// Crash time, deciseconds.
        at_ds: u32,
        /// Outage length, deciseconds.
        dur_ds: u32,
    },
    /// Degrade the link toward `shard`: drop each message with
    /// probability `loss_pct`/100 for the window.
    LinkLoss {
        /// The shard whose link degrades.
        shard: usize,
        /// Window start, deciseconds.
        at_ds: u32,
        /// Window length, deciseconds.
        dur_ds: u32,
        /// Per-message loss probability, percent.
        loss_pct: u32,
    },
    /// Fully partition `shard` from the front-end for the window.
    Partition {
        /// The partitioned shard.
        shard: usize,
        /// Window start, deciseconds.
        at_ds: u32,
        /// Window length, deciseconds.
        dur_ds: u32,
    },
    /// Arm a one-shot media fault against `shard`'s next sealed
    /// checkpoint write (crash freeze, reroute strip, or retirement).
    CorruptCheckpoint {
        /// The shard whose checkpoint medium is damaged.
        shard: usize,
        /// The damage applied.
        kind: CorruptionKind,
    },
}

impl ScheduleFault {
    /// Deciseconds → seconds, for driving wall-clock-style cluster APIs.
    pub fn secs(ds: u32) -> f64 {
        f64::from(ds) / 10.0
    }
}

/// One point in the fault space: a workload seed plus the fault list
/// applied to the canonical run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    /// Seed for the canonical workload (and any stochastic fault, e.g.
    /// per-message link loss) of this run.
    pub seed: u64,
    /// The faults, in enumeration order.
    pub faults: Vec<ScheduleFault>,
}

impl Schedule {
    /// The schedule as a paste-able literal: seed + fault list. This is
    /// the one-line deterministic reproducer a failing sweep prints.
    pub fn reproducer(&self) -> String {
        format!("seed={} faults={:?}", self.seed, self.faults)
    }
}

/// What one canonical run under a schedule actually did, as counted by
/// the caller's run function. All invariants are checked against this.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Requests the source issued into the system.
    pub issued: u64,
    /// Requests that completed (each counted once).
    pub completed: u64,
    /// Requests killed by policy (timeouts, admission actions).
    pub killed: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Requests shed or permanently parked with an explicit verdict.
    pub shed: u64,
    /// Requests still queued/running when the run ended (accounted,
    /// just unfinished).
    pub in_flight: u64,
    /// Completions observed for an already-completed request id.
    pub duplicate_completions: u64,
    /// Requests issued before the drain horizon that never finished.
    pub stuck: u64,
    /// Worst ticks any shard stayed unavailable *past* its scheduled
    /// outage window.
    pub recovery_ticks: u64,
}

/// One invariant breach, with the numbers that witnessed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "violation", rename_all = "snake_case")]
pub enum Violation {
    /// A request id completed more than once.
    DuplicateCompletion {
        /// Extra completions observed.
        count: u64,
    },
    /// Issued work that no terminal or in-flight state accounts for.
    WorkLost {
        /// Requests issued.
        issued: u64,
        /// completed + killed + rejected + shed + in_flight.
        accounted: u64,
    },
    /// A shard stayed down longer than its window plus the grace bound.
    RecoveryExceeded {
        /// Observed ticks past the scheduled window.
        ticks: u64,
        /// The configured bound.
        bound: u64,
    },
    /// Requests issued before the drain horizon never finished.
    StuckRequests {
        /// How many.
        count: u64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::DuplicateCompletion { count } => {
                write!(f, "exactly-once broken: {count} duplicate completions")
            }
            Violation::WorkLost { issued, accounted } => {
                write!(f, "work lost: {issued} issued, only {accounted} accounted")
            }
            Violation::RecoveryExceeded { ticks, bound } => {
                write!(
                    f,
                    "recovery exceeded: {ticks} ticks past window (bound {bound})"
                )
            }
            Violation::StuckRequests { count } => {
                write!(f, "{count} requests permanently stuck")
            }
        }
    }
}

/// The explorer's verdict on one schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Verdict {
    /// The schedule that ran.
    pub schedule: Schedule,
    /// Every invariant it broke (empty ⇒ pass).
    pub violations: Vec<Violation>,
}

impl Verdict {
    /// Did the schedule hold every invariant?
    pub fn pass(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The sweep's result: one verdict per schedule run, in enumeration
/// order, plus the budget bookkeeping E27 reports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreReport {
    /// Grid points the budget admitted (and that therefore ran).
    pub verdicts: Vec<Verdict>,
    /// Size of the full grid before the budget cut it down.
    pub grid_size: usize,
}

impl ExploreReport {
    /// Total invariant violations across the sweep.
    pub fn violations(&self) -> usize {
        self.verdicts.iter().map(|v| v.violations.len()).sum()
    }

    /// The failing verdicts, in enumeration order.
    pub fn failures(&self) -> Vec<&Verdict> {
        self.verdicts.iter().filter(|v| !v.pass()).collect()
    }
}

/// Enumeration and invariant bounds for one sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExploreConfig {
    /// Base seed; each schedule's workload seed is derived from it.
    pub seed: u64,
    /// Maximum schedules to run (the grid is truncated, never sampled,
    /// so a budget is a deterministic prefix).
    pub budget: usize,
    /// Grace bound for the bounded-recovery invariant, in ticks.
    pub max_recovery_ticks: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            seed: 0xC0FFEE,
            budget: 48,
            max_recovery_ticks: 100,
        }
    }
}

/// Check one outcome against the four invariants.
pub fn check(cfg: &ExploreConfig, out: &RunOutcome) -> Vec<Violation> {
    let mut v = Vec::new();
    if out.duplicate_completions > 0 {
        v.push(Violation::DuplicateCompletion {
            count: out.duplicate_completions,
        });
    }
    let accounted = out.completed + out.killed + out.rejected + out.shed + out.in_flight;
    if accounted < out.issued {
        v.push(Violation::WorkLost {
            issued: out.issued,
            accounted,
        });
    }
    if out.recovery_ticks > cfg.max_recovery_ticks {
        v.push(Violation::RecoveryExceeded {
            ticks: out.recovery_ticks,
            bound: cfg.max_recovery_ticks,
        });
    }
    if out.stuck > 0 {
        v.push(Violation::StuckRequests { count: out.stuck });
    }
    v
}

/// The deterministic schedule grid: the cross product of crash points,
/// a second-shard kill, link-degradation windows, and a torn checkpoint
/// write, truncated to the budget. Per-schedule workload seeds are
/// SplitMix64-derived from the base seed and the grid index, so the
/// whole sweep is a pure function of [`ExploreConfig`].
///
/// The corruption axis stays inside the write protocol's guarantee
/// (torn writes are caught by the verify-back); at-rest damage of a
/// single crash-time image is *designed* to fail conservation — that is
/// the known-bad synthetic schedule of the E27 pin, not a grid point.
pub fn enumerate(cfg: &ExploreConfig) -> (Vec<Schedule>, usize) {
    const CRASHES: [Option<ScheduleFault>; 3] = [
        None,
        Some(ScheduleFault::ShardCrash {
            shard: 0,
            at_ds: 10,
            dur_ds: 20,
        }),
        Some(ScheduleFault::ShardCrash {
            shard: 0,
            at_ds: 25,
            dur_ds: 15,
        }),
    ];
    const KILLS: [Option<ScheduleFault>; 2] = [
        None,
        Some(ScheduleFault::ShardCrash {
            shard: 1,
            at_ds: 15,
            dur_ds: 15,
        }),
    ];
    const LINKS: [Option<ScheduleFault>; 3] = [
        None,
        Some(ScheduleFault::LinkLoss {
            shard: 0,
            at_ds: 5,
            dur_ds: 20,
            loss_pct: 30,
        }),
        Some(ScheduleFault::Partition {
            shard: 1,
            at_ds: 12,
            dur_ds: 10,
        }),
    ];
    const CORRUPTIONS: [Option<ScheduleFault>; 2] = [
        None,
        Some(ScheduleFault::CorruptCheckpoint {
            shard: 0,
            kind: CorruptionKind::TornWrite,
        }),
    ];

    let mut schedules = Vec::new();
    let mut idx = 0u64;
    let mut grid = 0usize;
    for crash in CRASHES {
        for kill in KILLS {
            for link in LINKS {
                for corrupt in CORRUPTIONS {
                    grid += 1;
                    if schedules.len() < cfg.budget {
                        let faults = [crash, kill, link, corrupt].into_iter().flatten().collect();
                        schedules.push(Schedule {
                            seed: splitmix64(cfg.seed ^ idx),
                            faults,
                        });
                    }
                    idx += 1;
                }
            }
        }
    }
    (schedules, grid)
}

/// Run the budgeted sweep: enumerate, run each schedule through `run`,
/// check invariants, and return every verdict. Deterministic given a
/// deterministic run function.
pub fn explore<F>(cfg: &ExploreConfig, mut run: F) -> ExploreReport
where
    F: FnMut(&Schedule) -> RunOutcome,
{
    let (schedules, grid_size) = enumerate(cfg);
    let verdicts = schedules
        .into_iter()
        .map(|schedule| {
            let outcome = run(&schedule);
            let violations = check(cfg, &outcome);
            Verdict {
                schedule,
                violations,
            }
        })
        .collect();
    ExploreReport {
        verdicts,
        grid_size,
    }
}

/// Shrink a failing schedule to a minimal reproducer by greedy
/// delta-debugging: repeatedly drop any single fault whose removal
/// keeps the schedule failing, until no single removal does. The result
/// is 1-minimal — every remaining fault is necessary — and the walk
/// order is fixed, so shrinking is deterministic.
///
/// `is_failing` must be a pure function of the schedule (re-running the
/// canonical workload qualifies; anything wall-clock does not).
pub fn shrink<F>(schedule: &Schedule, mut is_failing: F) -> Schedule
where
    F: FnMut(&Schedule) -> bool,
{
    let mut current = schedule.clone();
    loop {
        let mut reduced = None;
        for i in 0..current.faults.len() {
            let mut candidate = current.clone();
            candidate.faults.remove(i);
            if is_failing(&candidate) {
                reduced = Some(candidate);
                break;
            }
        }
        match reduced {
            Some(c) => current = c,
            None => return current,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn has(s: &Schedule, f: impl Fn(&ScheduleFault) -> bool) -> bool {
        s.faults.iter().any(f)
    }

    /// A stand-in run function: work is lost iff the schedule crashes
    /// shard 0 *and* at-rest-corrupts its checkpoint; everything else
    /// behaves. Pure, so exploration and shrinking are deterministic.
    fn model_run(s: &Schedule) -> RunOutcome {
        let crash0 = has(s, |f| {
            matches!(f, ScheduleFault::ShardCrash { shard: 0, .. })
        });
        let at_rest = has(s, |f| {
            matches!(
                f,
                ScheduleFault::CorruptCheckpoint {
                    kind: CorruptionKind::BitFlip | CorruptionKind::Truncate,
                    ..
                }
            )
        });
        let issued = 100;
        let lost = if crash0 && at_rest { 7 } else { 0 };
        RunOutcome {
            issued,
            completed: issued - lost,
            ..RunOutcome::default()
        }
    }

    #[test]
    fn enumeration_is_deterministic_and_budgeted() {
        let cfg = ExploreConfig::default();
        let (a, grid_a) = enumerate(&cfg);
        let (b, grid_b) = enumerate(&cfg);
        assert_eq!(a, b, "same config must enumerate identically");
        assert_eq!(grid_a, grid_b);
        assert_eq!(grid_a, 36, "3 crashes × 2 kills × 3 links × 2 corruptions");
        assert_eq!(a.len(), 36, "default budget admits the whole grid");

        let (cut, grid) = enumerate(&ExploreConfig { budget: 5, ..cfg });
        assert_eq!(cut.len(), 5, "the budget is a prefix");
        assert_eq!(grid, 36, "the grid size reports the uncut space");
        assert_eq!(cut, a[..5], "the prefix is the same grid walk");

        let (other, _) = enumerate(&ExploreConfig { seed: 1, ..cfg });
        assert_ne!(
            a[0].seed, other[0].seed,
            "the base seed must reach the per-schedule seeds"
        );
        assert_eq!(
            a.iter().map(|s| &s.faults).collect::<Vec<_>>(),
            other.iter().map(|s| &s.faults).collect::<Vec<_>>(),
            "the fault grid itself is seed-independent"
        );
    }

    #[test]
    fn a_clean_model_sweeps_with_zero_violations() {
        let report = explore(&ExploreConfig::default(), model_run);
        assert_eq!(report.verdicts.len(), 36);
        assert_eq!(report.violations(), 0, "{:?}", report.failures());
    }

    #[test]
    fn a_known_bad_schedule_is_caught_and_shrunk_to_its_core() {
        let cfg = ExploreConfig::default();
        // A noisy five-fault schedule whose failure core is the
        // crash + at-rest-corruption pair.
        let bad = Schedule {
            seed: 42,
            faults: vec![
                ScheduleFault::LinkLoss {
                    shard: 0,
                    at_ds: 5,
                    dur_ds: 20,
                    loss_pct: 30,
                },
                ScheduleFault::ShardCrash {
                    shard: 0,
                    at_ds: 10,
                    dur_ds: 20,
                },
                ScheduleFault::Partition {
                    shard: 1,
                    at_ds: 12,
                    dur_ds: 10,
                },
                ScheduleFault::CorruptCheckpoint {
                    shard: 0,
                    kind: CorruptionKind::BitFlip,
                },
                ScheduleFault::ShardCrash {
                    shard: 1,
                    at_ds: 15,
                    dur_ds: 15,
                },
            ],
        };
        let violations = check(&cfg, &model_run(&bad));
        assert!(
            matches!(violations[..], [Violation::WorkLost { .. }]),
            "the sweep must catch the loss: {violations:?}"
        );

        let minimal = shrink(&bad, |s| !check(&cfg, &model_run(s)).is_empty());
        assert_eq!(
            minimal.faults,
            vec![
                ScheduleFault::ShardCrash {
                    shard: 0,
                    at_ds: 10,
                    dur_ds: 20,
                },
                ScheduleFault::CorruptCheckpoint {
                    shard: 0,
                    kind: CorruptionKind::BitFlip,
                },
            ],
            "shrinking must strip the three innocent faults"
        );
        let repro = minimal.reproducer();
        assert!(
            repro.contains("seed=42") && repro.contains("ShardCrash"),
            "the reproducer is a seed + schedule literal: {repro}"
        );
    }

    #[test]
    fn verdicts_serialize_stably() {
        let cfg = ExploreConfig {
            budget: 3,
            ..Default::default()
        };
        let a = serde_json::to_string(&explore(&cfg, model_run)).unwrap();
        let b = serde_json::to_string(&explore(&cfg, model_run)).unwrap();
        assert_eq!(a, b, "the sweep report must be byte-stable");
    }
}
