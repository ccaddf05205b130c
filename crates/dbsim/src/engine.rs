//! The simulated database engine.
//!
//! A quantum-stepped simulator: [`DbEngine::step`] advances simulated time
//! by one quantum, sharing CPU and disk among the running queries by
//! weighted fair sharing, applying buffer-pool hits, lock acquisition and a
//! memory-overcommit paging penalty, and completing queries whose demands
//! are exhausted.
//!
//! The engine runs **everything it is given** — admission control,
//! scheduling and execution control live above it in `wlm-core`, acting
//! through this control surface:
//!
//! | control            | method                              |
//! |--------------------|-------------------------------------|
//! | cancellation       | [`DbEngine::kill`]                  |
//! | throttling (duty cycle) | [`DbEngine::set_throttle`]     |
//! | throttling (full pause) | [`DbEngine::pause`] / [`DbEngine::resume_paused`] |
//! | suspend & resume   | [`DbEngine::suspend`] / [`DbEngine::resume_suspended`] |
//! | reprioritization   | [`DbEngine::set_weight`]            |
//! | progress indicator | [`DbEngine::progress`]              |

use crate::bufferpool::BufferPool;
use crate::error::EngineError;
use crate::locks::{LockOutcome, LockTable};
use crate::metrics::EngineMetrics;
use crate::plan::{OperatorKind, PlanBuilder, QuerySpec};
use crate::resources::{fair_share, Claim};
use crate::suspend::{dump_cost_us, SuspendStrategy, SuspendedQuery, STATE_PAGE_US};
use crate::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifies one submitted query within an engine.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct QueryId(pub u64);

/// Engine configuration. Defaults model a mid-size departmental server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// CPU cores.
    pub cores: u32,
    /// Disk throughput, pages per second.
    pub disk_pages_per_sec: u64,
    /// Physical memory available for query working memory, MiB.
    pub memory_mb: u64,
    /// Buffer pool.
    pub buffer_pool: BufferPool,
    /// Simulation quantum.
    pub quantum: SimDuration,
    /// Paging-penalty steepness once working memory is overcommitted.
    pub paging_factor: f64,
    /// Operators checkpoint after this much combined work, µs-equivalent.
    pub checkpoint_every_us: u64,
    /// Metrics interval length.
    pub metrics_interval: SimDuration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cores: 8,
            disk_pages_per_sec: 40_000,
            memory_mb: 8_192,
            buffer_pool: BufferPool::default(),
            quantum: SimDuration::from_millis(10),
            paging_factor: 4.0,
            checkpoint_every_us: 2_000_000,
            metrics_interval: SimDuration::from_secs(1),
        }
    }
}

/// Why a query left the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompletionKind {
    /// Ran to completion.
    Completed,
    /// Cancelled by a control action.
    Killed,
}

/// Record of a query leaving the engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Completion {
    /// The query.
    pub id: QueryId,
    /// Its label (workload tag).
    pub label: String,
    /// How it ended.
    pub kind: CompletionKind,
    /// When the request entered the system (pre-admission submit time if the
    /// workload manager queued it; the engine records what it was given).
    pub submitted: SimTime,
    /// When it left.
    pub finished: SimTime,
    /// `finished - submitted`.
    pub response: SimDuration,
    /// True total work of the plan, µs-equivalent.
    pub work_total_us: u64,
    /// Work actually performed (differs from total when killed).
    pub work_done_us: u64,
}

/// Live progress of one query (the engine's *progress indicator* feed).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryProgress {
    /// Combined work done, µs-equivalent.
    pub work_done_us: u64,
    /// Combined total work, µs-equivalent.
    pub work_total_us: u64,
    /// `work_done / work_total` in `[0, 1]`.
    pub fraction: f64,
    /// Time spent in the engine so far.
    pub elapsed: SimDuration,
    /// Remaining-time estimate at the query's recent processing velocity;
    /// `None` until it has made any progress.
    pub est_remaining: Option<SimDuration>,
    /// Whether the query is currently blocked on a lock.
    pub blocked: bool,
    /// Index of the current operator.
    pub op_idx: usize,
    /// Kind of the current operator (last operator once finished).
    pub op_kind: OperatorKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    Running,
    Blocked,
    Paused,
}

#[derive(Debug, Clone)]
struct QueryRuntime {
    spec: QuerySpec,
    submitted: SimTime,
    started: SimTime,
    op_idx: usize,
    op_cpu_done: u64,
    op_io_done: u64,
    /// Extra demands that must be worked off before op progress counts
    /// (suspend-resume state reads).
    penalty_cpu_us: u64,
    penalty_io_pages: u64,
    /// Fractional resource credits: grants smaller than one unit accumulate
    /// here until they amount to a whole microsecond / page, so many-way
    /// sharing never truncates progress to zero.
    cpu_credit: f64,
    io_credit: f64,
    /// Checkpoint within the current operator.
    ckpt_cpu_done: u64,
    ckpt_io_done: u64,
    work_since_ckpt: u64,
    state: RunState,
    weight: f64,
    throttle_sleep_fraction: f64,
    throttle_credit: f64,
    /// Sorted, deduplicated lock keys.
    lock_keys: Vec<u64>,
}

impl QueryRuntime {
    fn total_work(&self) -> u64 {
        self.spec.plan.total_work() + self.penalty_cpu_us + self.penalty_io_pages * STATE_PAGE_US
    }

    fn work_done(&self) -> u64 {
        let done_ops: u64 = self.spec.plan.ops[..self.op_idx]
            .iter()
            .map(|o| o.total_work())
            .sum();
        done_ops + self.op_cpu_done + self.op_io_done * STATE_PAGE_US
    }

    fn finished_all_ops(&self) -> bool {
        self.op_idx >= self.spec.plan.ops.len()
    }

    fn fraction_done(&self) -> f64 {
        let total = self.total_work();
        if total == 0 {
            return 1.0;
        }
        (self.work_done() as f64 / total as f64).clamp(0.0, 1.0)
    }

    /// Lock keys that should be held before this quantum's work: two ahead
    /// of the fraction of work completed, so locks accrete early and are
    /// held until commit (front-loaded incremental 2PL — update statements
    /// take their locks near the start of a transaction). This is what
    /// makes the conflict ratio a meaningful thrashing signal: blocked
    /// transactions hold earlier locks while they wait.
    fn lock_target(&self) -> usize {
        if self.lock_keys.is_empty() {
            return 0;
        }
        let k = self.lock_keys.len();
        ((self.fraction_done() * k as f64).floor() as usize + 2).min(k)
    }

    fn current_mem_mb(&self) -> u64 {
        self.spec
            .plan
            .ops
            .get(self.op_idx.min(self.spec.plan.ops.len().saturating_sub(1)))
            .map_or(0, |o| o.mem_mb)
    }
}

/// Low-level engine lifecycle events. Disabled by default; a workload
/// manager (or any observer) turns them on with
/// [`DbEngine::enable_events`] and collects them with
/// [`DbEngine::drain_events`] after each quantum.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum EngineEvent {
    /// One quantum elapsed.
    Stepped {
        /// Clock after the quantum.
        at: SimTime,
        /// Live queries after the quantum.
        live: usize,
        /// Completions produced by the quantum.
        completed: usize,
    },
    /// A query was cancelled.
    Killed {
        /// Time of the kill.
        at: SimTime,
        /// The cancelled query.
        id: QueryId,
    },
    /// A query was fully paused (interrupt throttling).
    Paused {
        /// Time of the pause.
        at: SimTime,
        /// The paused query.
        id: QueryId,
    },
    /// A paused query resumed running.
    Resumed {
        /// Time of the resume.
        at: SimTime,
        /// The resumed query.
        id: QueryId,
    },
    /// A query was suspended to disk, releasing all resources.
    Suspended {
        /// Time of the suspension.
        at: SimTime,
        /// The suspended query.
        id: QueryId,
        /// Total suspend + resume overhead charged, µs.
        overhead_us: u64,
    },
    /// A suspended query was reinstated under a fresh id.
    Reinstated {
        /// Time of the reinstatement.
        at: SimTime,
        /// The new id of the reinstated query.
        id: QueryId,
    },
    /// A fault (or its recovery) was applied via [`DbEngine::apply_fault`].
    FaultApplied {
        /// Time of the injection.
        at: SimTime,
        /// The fault as applied.
        fault: EngineFault,
    },
}

/// An injectable infrastructure fault. Each variant both degrades and
/// recovers: re-applying with the neutral value (`factor: 1.0`, `cores: 0`,
/// `mb: 0`) restores the healthy configuration, so a fault plan is a series
/// of paired apply/recover events.
///
/// Applied through [`DbEngine::apply_fault`]; the current degradation is
/// readable via [`DbEngine::fault_state`]. The configured capacities in
/// [`EngineConfig`] are never mutated — faults scale the *effective*
/// capacities each quantum.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[serde(tag = "fault", rename_all = "snake_case")]
pub enum EngineFault {
    /// Scale disk throughput by `factor` (`0.1` = collapse to 10%;
    /// `1.0` = recover). Models an IO-latency spike / failing disk.
    DiskDegrade {
        /// Multiplier on `disk_pages_per_sec`, in `(0, 1]`.
        factor: f64,
    },
    /// Take `cores` CPU cores offline (`0` = restore all). At least one
    /// core always remains; taking every core offline is rejected.
    CoresOffline {
        /// Number of cores removed from service.
        cores: u32,
    },
    /// Scale the effective buffer-pool page count by `factor`
    /// (`1.0` = recover). Models a pool shrink / cache poisoning.
    BufferPoolDegrade {
        /// Multiplier on `buffer_pool.pages`, in `(0, 1]`.
        factor: f64,
    },
    /// Reserve `mb` MiB of working memory away from queries (`0` =
    /// release). Models an external memory hog; overcommit and paging are
    /// computed against the remaining memory.
    MemoryReserve {
        /// MiB withheld from the query memory budget.
        mb: u64,
    },
    /// Submit a burst of lock-hungry internal transactions (label
    /// `"chaos_storm"`) that write random keys in `0..key_space` and hold
    /// them for `hold_secs` of CPU work. Recovery is implicit: the storm
    /// drains as the transactions commit.
    LockStorm {
        /// Number of storm transactions submitted.
        txns: u32,
        /// Write keys per transaction (sampled, then deduplicated).
        keys_per_txn: u32,
        /// Keys are drawn uniformly from `0..key_space`.
        key_space: u64,
        /// CPU seconds each transaction works (and thus holds its locks).
        hold_secs: f64,
        /// Seed for the key sampling, so storms are reproducible.
        seed: u64,
    },
}

impl EngineFault {
    /// Short machine-readable tag for the fault family.
    pub fn kind(&self) -> &'static str {
        match self {
            EngineFault::DiskDegrade { .. } => "disk_degrade",
            EngineFault::CoresOffline { .. } => "cores_offline",
            EngineFault::BufferPoolDegrade { .. } => "buffer_pool_degrade",
            EngineFault::MemoryReserve { .. } => "memory_reserve",
            EngineFault::LockStorm { .. } => "lock_storm",
        }
    }
}

/// The engine's current degradation, as left by [`DbEngine::apply_fault`].
/// [`FaultState::default`] is the healthy state.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultState {
    /// Multiplier on disk throughput (1.0 = healthy).
    pub disk_factor: f64,
    /// Cores currently offline (0 = healthy).
    pub cores_offline: u32,
    /// Multiplier on buffer-pool pages (1.0 = healthy).
    pub buffer_pool_factor: f64,
    /// Working memory reserved away from queries, MiB (0 = healthy).
    pub reserved_memory_mb: u64,
}

impl Default for FaultState {
    fn default() -> Self {
        FaultState {
            disk_factor: 1.0,
            cores_offline: 0,
            buffer_pool_factor: 1.0,
            reserved_memory_mb: 0,
        }
    }
}

impl FaultState {
    /// Whether every injected degradation has been recovered.
    pub fn is_healthy(&self) -> bool {
        self.disk_factor == 1.0
            && self.cores_offline == 0
            && self.buffer_pool_factor == 1.0
            && self.reserved_memory_mb == 0
    }
}

/// One live query as seen by an external reconciler: identity, provenance
/// and progress, without exposing the engine's internal runtime record.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveQueryInfo {
    /// Engine-assigned query id.
    pub id: QueryId,
    /// The query's workload label.
    pub label: String,
    /// Original submission time (the request's arrival).
    pub submitted: SimTime,
    /// Combined work finished so far, µs-equivalent.
    pub work_done_us: u64,
    /// Total combined work demanded, µs-equivalent.
    pub work_total_us: u64,
}

/// The simulated DBMS engine. See the module docs for the model.
#[derive(Debug)]
pub struct DbEngine {
    cfg: EngineConfig,
    now: SimTime,
    next_id: u64,
    live: BTreeMap<QueryId, QueryRuntime>,
    locks: LockTable,
    metrics: EngineMetrics,
    events_enabled: bool,
    events: Vec<EngineEvent>,
    faults: FaultState,
}

impl DbEngine {
    /// Create an engine with the given configuration.
    pub fn new(cfg: EngineConfig) -> Self {
        let metrics = EngineMetrics::new(cfg.metrics_interval);
        DbEngine {
            cfg,
            now: SimTime::ZERO,
            next_id: 1,
            live: BTreeMap::new(),
            locks: LockTable::new(),
            metrics,
            events_enabled: false,
            events: Vec::new(),
            faults: FaultState::default(),
        }
    }

    /// Start buffering [`EngineEvent`]s. Once enabled, the buffer must be
    /// emptied regularly with [`Self::drain_events`] or it grows without
    /// bound.
    pub fn enable_events(&mut self) {
        self.events_enabled = true;
    }

    /// Whether engine-event buffering is on.
    pub fn events_enabled(&self) -> bool {
        self.events_enabled
    }

    /// Take all buffered events, oldest first.
    pub fn drain_events(&mut self) -> Vec<EngineEvent> {
        std::mem::take(&mut self.events)
    }

    fn push_event(&mut self, event: EngineEvent) {
        if self.events_enabled {
            self.events.push(event);
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The engine's current fault-induced degradation.
    pub fn fault_state(&self) -> &FaultState {
        &self.faults
    }

    /// Inject a fault (or its recovery). Parameters are validated — a
    /// rejected fault leaves the engine untouched. See [`EngineFault`] for
    /// the recovery convention of each variant.
    pub fn apply_fault(&mut self, fault: EngineFault) -> Result<(), EngineError> {
        match fault {
            EngineFault::DiskDegrade { factor } => {
                if !factor.is_finite() || factor <= 0.0 || factor > 1.0 {
                    return Err(EngineError::InvalidFault("disk factor must be in (0, 1]"));
                }
                self.faults.disk_factor = factor;
            }
            EngineFault::CoresOffline { cores } => {
                if cores >= self.cfg.cores {
                    return Err(EngineError::InvalidFault(
                        "at least one core must stay online",
                    ));
                }
                self.faults.cores_offline = cores;
            }
            EngineFault::BufferPoolDegrade { factor } => {
                if !factor.is_finite() || factor <= 0.0 || factor > 1.0 {
                    return Err(EngineError::InvalidFault(
                        "buffer-pool factor must be in (0, 1]",
                    ));
                }
                self.faults.buffer_pool_factor = factor;
            }
            EngineFault::MemoryReserve { mb } => {
                if mb >= self.cfg.memory_mb {
                    return Err(EngineError::InvalidFault(
                        "cannot reserve the entire memory budget",
                    ));
                }
                self.faults.reserved_memory_mb = mb;
            }
            EngineFault::LockStorm {
                txns,
                keys_per_txn,
                key_space,
                hold_secs,
                seed,
            } => {
                if txns == 0 || keys_per_txn == 0 || key_space == 0 {
                    return Err(EngineError::InvalidFault(
                        "lock storm needs txns, keys and a key space",
                    ));
                }
                if !hold_secs.is_finite() || hold_secs <= 0.0 {
                    return Err(EngineError::InvalidFault("hold_secs must be positive"));
                }
                let mut rng = SmallRng::seed_from_u64(seed);
                for _ in 0..txns {
                    let mut keys: Vec<u64> = (0..keys_per_txn)
                        .map(|_| rng.gen_range(0..key_space))
                        .collect();
                    keys.sort_unstable();
                    keys.dedup();
                    let spec = PlanBuilder::utility(hold_secs, 0)
                        .build()
                        .into_spec()
                        .labeled("chaos_storm")
                        .with_write_keys(keys);
                    self.submit(spec);
                }
            }
        }
        self.push_event(EngineEvent::FaultApplied {
            at: self.now,
            fault,
        });
        Ok(())
    }

    /// Submit a query for immediate execution; it first receives resources
    /// on the next [`step`](Self::step).
    pub fn submit(&mut self, spec: QuerySpec) -> QueryId {
        self.submit_at(spec, self.now)
    }

    /// Submit with an explicit original arrival time (the workload manager
    /// passes the request's true arrival so queueing delay counts against
    /// its response time).
    pub fn submit_at(&mut self, spec: QuerySpec, submitted: SimTime) -> QueryId {
        let id = QueryId(self.next_id);
        self.next_id += 1;
        let mut lock_keys = spec.write_keys.clone();
        lock_keys.sort_unstable();
        lock_keys.dedup();
        let weight = spec.weight;
        self.live.insert(
            id,
            QueryRuntime {
                spec,
                submitted,
                started: self.now,
                op_idx: 0,
                op_cpu_done: 0,
                op_io_done: 0,
                penalty_cpu_us: 0,
                penalty_io_pages: 0,
                cpu_credit: 0.0,
                io_credit: 0.0,
                ckpt_cpu_done: 0,
                ckpt_io_done: 0,
                work_since_ckpt: 0,
                state: RunState::Running,
                weight,
                throttle_sleep_fraction: 0.0,
                throttle_credit: 0.0,
                lock_keys,
            },
        );
        id
    }

    /// Number of live (running, blocked or paused) queries — the engine's
    /// actual multiprogramming level.
    pub fn mpl(&self) -> usize {
        self.live.len()
    }

    /// Whether the query is still in the engine.
    pub fn is_running(&self, id: QueryId) -> bool {
        self.live.contains_key(&id)
    }

    /// Ids of all live queries, ascending.
    pub fn live_ids(&self) -> Vec<QueryId> {
        self.live.keys().copied().collect()
    }

    /// Label of a live query.
    pub fn label(&self, id: QueryId) -> Option<&str> {
        self.live.get(&id).map(|r| r.spec.label.as_str())
    }

    /// Enumerate the live queries, ascending by id — the reconciliation
    /// surface a restarted controller walks to decide which engine work to
    /// re-adopt and which to kill as orphaned.
    pub fn live_overview(&self) -> Vec<LiveQueryInfo> {
        self.live
            .iter()
            .map(|(id, rt)| LiveQueryInfo {
                id: *id,
                label: rt.spec.label.clone(),
                submitted: rt.submitted,
                work_done_us: rt.work_done(),
                work_total_us: rt.total_work(),
            })
            .collect()
    }

    /// Number of live queries currently blocked on locks.
    pub fn blocked_count(&self) -> usize {
        self.live
            .values()
            .filter(|r| r.state == RunState::Blocked)
            .count()
    }

    /// Current conflict ratio from the lock manager.
    pub fn conflict_ratio(&self) -> f64 {
        self.locks.conflict_ratio()
    }

    /// Monitor metrics.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Cancel a running query, releasing its locks and memory immediately.
    pub fn kill(&mut self, id: QueryId) -> Result<Completion, EngineError> {
        let rt = self.live.remove(&id).ok_or(EngineError::UnknownQuery(id))?;
        self.locks.release_all(id.0);
        let completion = Completion {
            id,
            label: rt.spec.label.clone(),
            kind: CompletionKind::Killed,
            submitted: rt.submitted,
            finished: self.now,
            response: self.now.since(rt.submitted),
            work_total_us: rt.total_work(),
            work_done_us: rt.work_done(),
        };
        self.metrics.record_kill();
        self.push_event(EngineEvent::Killed { at: self.now, id });
        Ok(completion)
    }

    /// Set the duty-cycle throttle: the query sleeps this fraction of quanta
    /// (0 = full speed, 0.9 = runs 10% of the time). This is the
    /// "self-imposed sleep" of Parekh et al. / Powley et al.
    pub fn set_throttle(&mut self, id: QueryId, sleep_fraction: f64) -> Result<(), EngineError> {
        let rt = self
            .live
            .get_mut(&id)
            .ok_or(EngineError::UnknownQuery(id))?;
        rt.throttle_sleep_fraction = sleep_fraction.clamp(0.0, 1.0);
        Ok(())
    }

    /// Fully pause a query (interrupt throttling). It keeps memory and locks
    /// but receives no CPU or I/O.
    pub fn pause(&mut self, id: QueryId) -> Result<(), EngineError> {
        let rt = self
            .live
            .get_mut(&id)
            .ok_or(EngineError::UnknownQuery(id))?;
        if rt.state == RunState::Paused {
            return Err(EngineError::InvalidState { id, op: "pause" });
        }
        rt.state = RunState::Paused;
        self.push_event(EngineEvent::Paused { at: self.now, id });
        Ok(())
    }

    /// Resume a paused query.
    pub fn resume_paused(&mut self, id: QueryId) -> Result<(), EngineError> {
        let rt = self
            .live
            .get_mut(&id)
            .ok_or(EngineError::UnknownQuery(id))?;
        if rt.state != RunState::Paused {
            return Err(EngineError::InvalidState {
                id,
                op: "resume_paused",
            });
        }
        rt.state = RunState::Running;
        self.push_event(EngineEvent::Resumed { at: self.now, id });
        Ok(())
    }

    /// Change a query's resource-access weight (reprioritization).
    pub fn set_weight(&mut self, id: QueryId, weight: f64) -> Result<(), EngineError> {
        let rt = self
            .live
            .get_mut(&id)
            .ok_or(EngineError::UnknownQuery(id))?;
        rt.weight = weight.max(1e-6);
        Ok(())
    }

    /// Current weight of a live query.
    pub fn weight(&self, id: QueryId) -> Option<f64> {
        self.live.get(&id).map(|r| r.weight)
    }

    /// Suspend a query with the given strategy, releasing all of its
    /// resources (memory, locks, CPU). Returns the resume token with the
    /// overhead ledger filled in.
    pub fn suspend(
        &mut self,
        id: QueryId,
        strategy: SuspendStrategy,
    ) -> Result<SuspendedQuery, EngineError> {
        let rt = self.live.remove(&id).ok_or(EngineError::UnknownQuery(id))?;
        self.locks.release_all(id.0);
        let work_done = rt.work_done();
        let op = rt.spec.plan.ops.get(rt.op_idx);
        let op_total_work = op.map_or(1, |o| o.total_work()).max(1);
        let op_work_done = rt.op_cpu_done + rt.op_io_done * STATE_PAGE_US;
        let op_fraction = (op_work_done as f64 / op_total_work as f64).min(1.0);
        let (suspend_cost, resume_cost, cpu_done, io_done) = match strategy {
            SuspendStrategy::DumpState => {
                let state_mb = op.map_or(0.0, |o| o.state_mb) * op_fraction;
                let cost = dump_cost_us(state_mb);
                // Resume reads the state back: same device time.
                (cost, cost, rt.op_cpu_done, rt.op_io_done)
            }
            SuspendStrategy::GoBack => {
                // Only control state is written (one page); resume redoes
                // the work performed since the last checkpoint.
                let redo =
                    op_work_done.saturating_sub(rt.ckpt_cpu_done + rt.ckpt_io_done * STATE_PAGE_US);
                (STATE_PAGE_US, redo, rt.ckpt_cpu_done, rt.ckpt_io_done)
            }
        };
        self.push_event(EngineEvent::Suspended {
            at: self.now,
            id,
            overhead_us: suspend_cost + resume_cost,
        });
        Ok(SuspendedQuery {
            spec: rt.spec,
            submitted: rt.submitted,
            op_idx: rt.op_idx,
            op_cpu_done: cpu_done,
            op_io_done: io_done,
            strategy,
            suspend_cost_us: suspend_cost,
            resume_cost_us: resume_cost,
            work_done_at_suspend_us: work_done,
        })
    }

    /// Resume a previously suspended query. For `DumpState` the state read
    /// is charged as extra I/O before the operator makes further progress.
    pub fn resume_suspended(&mut self, sq: SuspendedQuery) -> QueryId {
        let id = QueryId(self.next_id);
        self.next_id += 1;
        let mut lock_keys = sq.spec.write_keys.clone();
        lock_keys.sort_unstable();
        lock_keys.dedup();
        let weight = sq.spec.weight;
        let penalty_io = match sq.strategy {
            SuspendStrategy::DumpState => sq.resume_cost_us / STATE_PAGE_US,
            SuspendStrategy::GoBack => 0, // redo is implicit in the rollback
        };
        self.live.insert(
            id,
            QueryRuntime {
                spec: sq.spec,
                submitted: sq.submitted,
                started: self.now,
                op_idx: sq.op_idx,
                op_cpu_done: sq.op_cpu_done,
                op_io_done: sq.op_io_done,
                penalty_cpu_us: 0,
                penalty_io_pages: penalty_io,
                cpu_credit: 0.0,
                io_credit: 0.0,
                ckpt_cpu_done: sq.op_cpu_done,
                ckpt_io_done: sq.op_io_done,
                work_since_ckpt: 0,
                state: RunState::Running,
                weight,
                throttle_sleep_fraction: 0.0,
                throttle_credit: 0.0,
                lock_keys,
            },
        );
        self.push_event(EngineEvent::Reinstated { at: self.now, id });
        id
    }

    /// Progress indicator for a live query.
    pub fn progress(&self, id: QueryId) -> Result<QueryProgress, EngineError> {
        let rt = self.live.get(&id).ok_or(EngineError::UnknownQuery(id))?;
        let done = rt.work_done();
        let total = rt.total_work();
        let elapsed = self.now.since(rt.started);
        let est_remaining = if done > 0 && elapsed.as_micros() > 0 {
            let velocity = done as f64 / elapsed.as_micros() as f64; // work µs per wall µs
            let remaining = (total - done.min(total)) as f64 / velocity.max(1e-9);
            Some(SimDuration(remaining as u64))
        } else {
            None
        };
        let op_idx = rt.op_idx.min(rt.spec.plan.ops.len().saturating_sub(1));
        Ok(QueryProgress {
            work_done_us: done,
            work_total_us: total,
            fraction: rt.fraction_done(),
            elapsed,
            est_remaining,
            blocked: rt.state == RunState::Blocked,
            op_idx,
            op_kind: rt
                .spec
                .plan
                .ops
                .get(op_idx)
                .map_or(OperatorKind::TableScan, |o| o.kind),
        })
    }

    /// Advance the simulation by one quantum. Returns the completions that
    /// occurred during it.
    pub fn step(&mut self) -> Vec<Completion> {
        let quantum = self.cfg.quantum;
        self.now += quantum;

        // Phase 1: decide participation (throttle duty cycle) and retry lock
        // acquisition, in ascending id order for determinism.
        let ids: Vec<QueryId> = self.live.keys().copied().collect();
        let mut active: Vec<QueryId> = Vec::with_capacity(ids.len());
        for &id in &ids {
            let rt = self.live.get_mut(&id).expect("live");
            if rt.state == RunState::Paused {
                continue;
            }
            // Duty-cycle throttle: accumulate run credit.
            let runs = if rt.throttle_sleep_fraction <= 0.0 {
                true
            } else {
                rt.throttle_credit += 1.0 - rt.throttle_sleep_fraction;
                if rt.throttle_credit >= 1.0 - 1e-12 {
                    rt.throttle_credit -= 1.0;
                    true
                } else {
                    false
                }
            };
            if !runs {
                continue;
            }
            // Incremental lock acquisition up to the current target.
            if !rt.lock_keys.is_empty() {
                let target = rt.lock_target();
                let keys = rt.lock_keys.clone();
                match self.locks.acquire_up_to(id.0, &keys, target) {
                    LockOutcome::Granted => {
                        let rt = self.live.get_mut(&id).expect("live");
                        rt.state = RunState::Running;
                    }
                    LockOutcome::Blocked(_) => {
                        let rt = self.live.get_mut(&id).expect("live");
                        rt.state = RunState::Blocked;
                        continue;
                    }
                }
            }
            active.push(id);
        }

        // Phase 2: memory pressure over all memory holders (everything live
        // except nothing — paused and blocked queries hold their memory).
        // Faults scale the effective capacities: reserved memory tightens
        // overcommit, offline cores and disk degradation shrink the shared
        // pools, and a degraded buffer pool lowers hit ratios.
        let effective_memory_mb = self
            .cfg
            .memory_mb
            .saturating_sub(self.faults.reserved_memory_mb)
            .max(1);
        let effective_cores = self
            .cfg
            .cores
            .saturating_sub(self.faults.cores_offline)
            .max(1);
        let mem_demand: u64 = self.live.values().map(|r| r.current_mem_mb()).sum();
        let overcommit = mem_demand as f64 / effective_memory_mb as f64;
        let paging_penalty = if overcommit > 1.0 {
            1.0 + self.cfg.paging_factor * (overcommit - 1.0).powf(1.5)
        } else {
            1.0
        };

        // Phase 3: buffer-pool shares and hit ratios for the active set.
        let effective_pool = BufferPool {
            pages: ((self.cfg.buffer_pool.pages as f64 * self.faults.buffer_pool_factor).round()
                as u64)
                .max(1),
            ..self.cfg.buffer_pool
        };
        let bp_weights: Vec<f64> = active.iter().map(|id| self.live[id].weight).collect();
        let bp_shares = effective_pool.shares(&bp_weights);
        let hit_ratios: Vec<f64> = active
            .iter()
            .zip(&bp_shares)
            .map(|(id, share)| {
                effective_pool.hit_ratio(*share, self.live[id].spec.working_set_pages)
            })
            .collect();

        // Phase 4: fair-share CPU and disk.
        let quantum_us = quantum.as_micros() as f64;
        let cpu_capacity = (effective_cores as f64 * quantum_us) / paging_penalty;
        let io_capacity =
            (self.cfg.disk_pages_per_sec as f64 * self.faults.disk_factor * quantum.as_secs_f64())
                / paging_penalty;

        let cpu_claims: Vec<Claim> = active
            .iter()
            .map(|id| {
                let rt = &self.live[id];
                let remaining = rt.remaining_cpu_us();
                Claim {
                    weight: rt.weight,
                    // A query runs on at most one core.
                    demand: (remaining as f64).min(quantum_us),
                }
            })
            .collect();
        let cpu_grants = fair_share(cpu_capacity, &cpu_claims);

        let io_claims: Vec<Claim> = active
            .iter()
            .zip(&hit_ratios)
            .map(|(id, hit)| {
                let rt = &self.live[id];
                let remaining_logical = rt.remaining_io_pages();
                // Only misses reach the disk.
                let miss = (remaining_logical as f64 * (1.0 - hit)).ceil();
                Claim {
                    weight: rt.weight,
                    demand: miss,
                }
            })
            .collect();
        let io_grants = fair_share(io_capacity, &io_claims);

        // Phase 5: apply progress and collect completions.
        let mut completed: Vec<Completion> = Vec::new();
        let mut cpu_used = 0.0;
        let mut io_used = 0.0;
        let checkpoint_every = self.cfg.checkpoint_every_us;
        for (idx, &id) in active.iter().enumerate() {
            let hit = hit_ratios[idx];
            let rt = self.live.get_mut(&id).expect("live");
            cpu_used += cpu_grants[idx];
            io_used += io_grants[idx];
            // Physical grant -> logical page progress.
            let logical_io = if hit >= 1.0 {
                rt.remaining_io_pages() as f64
            } else {
                io_grants[idx] / (1.0 - hit)
            };
            // Accumulate fractional grants so heavy sharing (grants < 1
            // unit per quantum) still makes forward progress.
            rt.cpu_credit += cpu_grants[idx];
            rt.io_credit += logical_io;
            let cpu_units = rt.cpu_credit.floor().max(0.0) as u64;
            let io_units = rt.io_credit.floor().max(0.0) as u64;
            rt.cpu_credit -= cpu_units as f64;
            rt.io_credit -= io_units as f64;
            rt.apply_progress(cpu_units, io_units, checkpoint_every);

            if rt.finished_all_ops() {
                // Completion gate: strict 2PL requires all locks held.
                if !rt.lock_keys.is_empty() {
                    let keys = rt.lock_keys.clone();
                    let n = keys.len();
                    if self.locks.acquire_up_to(id.0, &keys, n) != LockOutcome::Granted {
                        let rt = self.live.get_mut(&id).expect("live");
                        rt.state = RunState::Blocked;
                        continue;
                    }
                }
                let rt = self.live.get(&id).expect("live");
                completed.push(Completion {
                    id,
                    label: rt.spec.label.clone(),
                    kind: CompletionKind::Completed,
                    submitted: rt.submitted,
                    finished: self.now,
                    response: self.now.since(rt.submitted),
                    work_total_us: rt.total_work(),
                    work_done_us: rt.total_work(),
                });
            }
        }
        for c in &completed {
            self.live.remove(&c.id);
            self.locks.release_all(c.id.0);
            self.metrics.record_completion(c.response);
        }

        // Phase 6: metrics. Report *busy* time including paging overhead so
        // a thrashing system shows saturated resources with falling
        // throughput, as in the literature. Utilization is measured against
        // the fault-degraded capacity: a half-speed disk at full tilt reads
        // as 100% busy, which is what a monitor would observe.
        let cpu_capacity_total = effective_cores as f64 * quantum_us;
        let io_capacity_total =
            self.cfg.disk_pages_per_sec as f64 * self.faults.disk_factor * quantum.as_secs_f64();
        let cpu_busy = (cpu_used * paging_penalty).min(cpu_capacity_total);
        let io_busy = (io_used * paging_penalty).min(io_capacity_total);
        self.metrics.record_usage(
            cpu_busy as u64,
            cpu_capacity_total as u64,
            io_busy as u64,
            io_capacity_total as u64,
        );
        self.metrics.maybe_roll(self.now);

        self.push_event(EngineEvent::Stepped {
            at: self.now,
            live: self.live.len(),
            completed: completed.len(),
        });
        completed
    }

    /// Step until `deadline` (inclusive of the final partial quantum).
    pub fn run_until(&mut self, deadline: SimTime) -> Vec<Completion> {
        let mut all = Vec::new();
        while self.now < deadline {
            all.extend(self.step());
        }
        all
    }

    /// Step until the engine is idle or `max_quanta` elapsed.
    pub fn drain(&mut self, max_quanta: usize) -> Vec<Completion> {
        let mut all = Vec::new();
        for _ in 0..max_quanta {
            if self.live.is_empty() {
                break;
            }
            all.extend(self.step());
        }
        all
    }
}

impl QueryRuntime {
    fn remaining_cpu_us(&self) -> u64 {
        let op_rem = self
            .spec
            .plan
            .ops
            .get(self.op_idx)
            .map_or(0, |o| o.cpu_us.saturating_sub(self.op_cpu_done));
        op_rem + self.penalty_cpu_us
    }

    fn remaining_io_pages(&self) -> u64 {
        let op_rem = self
            .spec
            .plan
            .ops
            .get(self.op_idx)
            .map_or(0, |o| o.io_pages.saturating_sub(self.op_io_done));
        op_rem + self.penalty_io_pages
    }

    /// Consume grants, possibly crossing operator boundaries, updating
    /// checkpoints as work accumulates.
    fn apply_progress(&mut self, mut cpu: u64, mut io: u64, checkpoint_every: u64) {
        // Penalty work (resume state reads) is paid first.
        let pay_io = io.min(self.penalty_io_pages);
        self.penalty_io_pages -= pay_io;
        io -= pay_io;
        let pay_cpu = cpu.min(self.penalty_cpu_us);
        self.penalty_cpu_us -= pay_cpu;
        cpu -= pay_cpu;

        while !self.finished_all_ops() && (cpu > 0 || io > 0 || self.op_is_done()) {
            if self.op_is_done() {
                self.op_idx += 1;
                self.op_cpu_done = 0;
                self.op_io_done = 0;
                self.ckpt_cpu_done = 0;
                self.ckpt_io_done = 0;
                self.work_since_ckpt = 0;
                continue;
            }
            let op = &self.spec.plan.ops[self.op_idx];
            let take_cpu = cpu.min(op.cpu_us.saturating_sub(self.op_cpu_done));
            let take_io = io.min(op.io_pages.saturating_sub(self.op_io_done));
            if take_cpu == 0 && take_io == 0 {
                break; // grants exhausted for what this op still needs
            }
            self.op_cpu_done += take_cpu;
            self.op_io_done += take_io;
            cpu -= take_cpu;
            io -= take_io;
            self.work_since_ckpt += take_cpu + take_io * STATE_PAGE_US;
            if self.work_since_ckpt >= checkpoint_every {
                self.ckpt_cpu_done = self.op_cpu_done;
                self.ckpt_io_done = self.op_io_done;
                self.work_since_ckpt = 0;
            }
        }
        // Skip over any trailing zero-work operators.
        while !self.finished_all_ops() && self.op_is_done() {
            self.op_idx += 1;
            self.op_cpu_done = 0;
            self.op_io_done = 0;
            self.ckpt_cpu_done = 0;
            self.ckpt_io_done = 0;
            self.work_since_ckpt = 0;
        }
    }

    fn op_is_done(&self) -> bool {
        self.spec
            .plan
            .ops
            .get(self.op_idx)
            .is_none_or(|o| self.op_cpu_done >= o.cpu_us && self.op_io_done >= o.io_pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{OperatorKind, PlanBuilder};

    fn small_engine() -> DbEngine {
        DbEngine::new(EngineConfig {
            cores: 2,
            disk_pages_per_sec: 10_000,
            memory_mb: 1024,
            quantum: SimDuration::from_millis(10),
            ..Default::default()
        })
    }

    fn oltp_spec() -> QuerySpec {
        PlanBuilder::index_lookup(10)
            .write(OperatorKind::Update, 2)
            .build()
            .into_spec()
    }

    fn bi_spec(rows: u64) -> QuerySpec {
        PlanBuilder::table_scan(rows)
            .filter(0.2)
            .aggregate(50)
            .build()
            .into_spec()
    }

    #[test]
    fn single_query_completes() {
        let mut e = small_engine();
        let id = e.submit(bi_spec(100_000));
        let done = e.drain(100_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert_eq!(done[0].kind, CompletionKind::Completed);
        assert!(done[0].response.as_micros() > 0);
        assert!(!e.is_running(id));
    }

    #[test]
    fn response_time_tracks_service_demand() {
        // A query with ~1s of CPU on a 2-core machine alone should finish
        // in about 1 simulated second (it can use only one core).
        let mut e = small_engine();
        let plan = PlanBuilder::utility(1.0, 0).build();
        e.submit(plan.into_spec());
        let done = e.drain(1_000);
        assert_eq!(done.len(), 1);
        let resp = done[0].response.as_secs_f64();
        assert!((0.9..1.2).contains(&resp), "resp {resp}");
    }

    #[test]
    fn fair_sharing_slows_competitors() {
        let mut e = small_engine();
        // Two identical 1s-CPU queries on 2 cores: both finish ~1s.
        e.submit(PlanBuilder::utility(1.0, 0).build().into_spec());
        e.submit(PlanBuilder::utility(1.0, 0).build().into_spec());
        let done = e.drain(1_000);
        assert!(done.iter().all(|c| c.response.as_secs_f64() < 1.3));

        // Three of them on 2 cores: each can still only use 1 core, so the
        // 3 queries share 2 cores -> ~1.5s each.
        let mut e = small_engine();
        for _ in 0..3 {
            e.submit(PlanBuilder::utility(1.0, 0).build().into_spec());
        }
        let done = e.drain(1_000);
        assert_eq!(done.len(), 3);
        assert!(
            done.iter().all(|c| c.response.as_secs_f64() > 1.3),
            "sharing must slow everyone: {:?}",
            done.iter()
                .map(|c| c.response.as_secs_f64())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn weights_shift_resources() {
        let mut e = small_engine();
        let fast = e.submit(
            PlanBuilder::utility(1.0, 0)
                .build()
                .into_spec()
                .with_weight(8.0),
        );
        let _slow1 = e.submit(PlanBuilder::utility(1.0, 0).build().into_spec());
        let _slow2 = e.submit(PlanBuilder::utility(1.0, 0).build().into_spec());
        let _slow3 = e.submit(PlanBuilder::utility(1.0, 0).build().into_spec());
        let done = e.drain(10_000);
        let fast_resp = done.iter().find(|c| c.id == fast).unwrap().response;
        let max_slow = done
            .iter()
            .filter(|c| c.id != fast)
            .map(|c| c.response)
            .max()
            .unwrap();
        assert!(
            fast_resp < max_slow,
            "weighted query should finish first: {fast_resp} vs {max_slow}"
        );
    }

    #[test]
    fn kill_releases_immediately() {
        let mut e = small_engine();
        let victim = e.submit(bi_spec(10_000_000));
        e.step();
        let c = e.kill(victim).unwrap();
        assert_eq!(c.kind, CompletionKind::Killed);
        assert!(c.work_done_us < c.work_total_us);
        assert!(!e.is_running(victim));
        assert!(e.kill(victim).is_err());
    }

    #[test]
    fn throttle_halves_progress() {
        let run = |sleep: f64| {
            let mut e = small_engine();
            let id = e.submit(PlanBuilder::utility(0.5, 0).build().into_spec());
            e.set_throttle(id, sleep).unwrap();
            let done = e.drain(10_000);
            done[0].response.as_secs_f64()
        };
        let full = run(0.0);
        let half = run(0.5);
        assert!(
            half > full * 1.7,
            "50% throttle should ~double elapsed: {full} vs {half}"
        );
    }

    #[test]
    fn pause_stops_progress_resume_restores() {
        let mut e = small_engine();
        let id = e.submit(PlanBuilder::utility(0.1, 0).build().into_spec());
        e.pause(id).unwrap();
        for _ in 0..50 {
            e.step();
        }
        assert!(e.is_running(id), "paused query must not progress");
        assert_eq!(e.progress(id).unwrap().work_done_us, 0);
        e.resume_paused(id).unwrap();
        let done = e.drain(1_000);
        assert_eq!(done.len(), 1);
        // Errors on wrong-state transitions.
        assert!(e.resume_paused(QueryId(999)).is_err());
    }

    #[test]
    fn progress_indicator_advances() {
        let mut e = small_engine();
        let id = e.submit(bi_spec(2_000_000));
        e.step();
        let p1 = e.progress(id).unwrap();
        for _ in 0..20 {
            e.step();
        }
        let p2 = e.progress(id).unwrap();
        assert!(p2.fraction > p1.fraction);
        assert!(p2.est_remaining.is_some());
        assert!(p2.work_total_us > 0);
    }

    #[test]
    fn lock_conflict_blocks_second_writer() {
        let mut e = small_engine();
        let a = e.submit(
            PlanBuilder::utility(0.5, 0)
                .build()
                .into_spec()
                .with_write_keys(vec![42]),
        );
        let b = e.submit(
            PlanBuilder::utility(0.5, 0)
                .build()
                .into_spec()
                .with_write_keys(vec![42]),
        );
        e.step();
        e.step();
        assert_eq!(e.blocked_count(), 1);
        let done = e.drain(10_000);
        assert_eq!(done.len(), 2);
        let ra = done.iter().find(|c| c.id == a).unwrap().response;
        let rb = done.iter().find(|c| c.id == b).unwrap().response;
        assert!(rb > ra, "blocked writer must finish after the holder");
    }

    #[test]
    fn lock_table_is_empty_after_a_multi_key_closed_population_run() {
        // 16 terminals, each resubmitting a 3-key update on 8 hot keys the
        // moment its last one finishes: transactions block on one key,
        // get it, then block on the next — the pattern that used to leave
        // stale entries in the wait queues for good.
        let mut e = small_engine();
        let txn = |n: u64| {
            PlanBuilder::utility(0.02, 0)
                .build()
                .into_spec()
                .with_write_keys(vec![n % 8, (n * 3 + 1) % 8, (n * 5 + 2) % 8])
        };
        let mut issued = 16u64;
        for n in 0..issued {
            e.submit(txn(n));
        }
        let mut blocked_seen = 0;
        for _ in 0..20_000 {
            blocked_seen += e.blocked_count();
            for _ in e.step() {
                e.submit(txn(issued));
                issued += 1;
            }
        }
        assert!(issued > 500 && blocked_seen > 1_000, "the run must contend");
        e.drain(100_000);
        assert_eq!(e.mpl(), 0);
        assert!(e.locks.is_empty(), "{:?}", e.locks);
    }

    #[test]
    fn suspend_dumpstate_resumes_exactly() {
        let mut e = small_engine();
        let id = e.submit(bi_spec(2_000_000));
        for _ in 0..5 {
            e.step();
        }
        let before = e.progress(id).unwrap().work_done_us;
        assert!(before > 0);
        let sq = e.suspend(id, SuspendStrategy::DumpState).unwrap();
        assert!(!e.is_running(id));
        assert_eq!(sq.work_done_at_suspend_us, before);
        assert!(sq.suspend_cost_us > 0, "state write has a cost");
        let id2 = e.resume_suspended(sq);
        let after = e.progress(id2).unwrap().work_done_us;
        assert_eq!(after, before, "DumpState must not lose progress");
        let done = e.drain(100_000);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn suspend_goback_redoes_since_checkpoint() {
        let mut e = DbEngine::new(EngineConfig {
            checkpoint_every_us: 1_000_000_000, // effectively never
            ..small_engine().cfg
        });
        let id = e.submit(bi_spec(2_000_000));
        for _ in 0..5 {
            e.step();
        }
        let before = e.progress(id).unwrap().work_done_us;
        let sq = e.suspend(id, SuspendStrategy::GoBack).unwrap();
        assert!(
            sq.suspend_cost_us < dump_cost_us(1.0),
            "GoBack writes ~nothing"
        );
        assert!(sq.resume_cost_us > 0, "un-checkpointed work must be redone");
        let id2 = e.resume_suspended(sq);
        let after = e.progress(id2).unwrap().work_done_us;
        assert!(after < before, "GoBack rolls progress back");
    }

    #[test]
    fn memory_overcommit_creates_thrashing_knee() {
        // Throughput rises with MPL, then falls once memory overcommits.
        let throughput_at = |n: usize| {
            let mut e = DbEngine::new(EngineConfig {
                cores: 8,
                memory_mb: 2_048,
                ..Default::default()
            });
            // Each query wants ~512 MiB and 0.4s of CPU.
            for _ in 0..n {
                let mut plan = PlanBuilder::utility(0.4, 0).build();
                plan.ops[0].mem_mb = 512;
                e.submit(plan.into_spec());
            }
            let done = e.drain(20_000);
            let total_secs = e.now().as_secs_f64();
            done.len() as f64 / total_secs
        };
        let t2 = throughput_at(2);
        let t4 = throughput_at(4);
        let t16 = throughput_at(16);
        assert!(
            t4 > t2 * 1.2,
            "more concurrency helps below the knee: {t2} {t4}"
        );
        assert!(t16 < t4 * 0.8, "overcommit must thrash: {t4} {t16}");
    }

    #[test]
    fn oltp_txn_is_fast_alone() {
        let mut e = small_engine();
        let spec = oltp_spec().with_write_keys(vec![7]);
        e.submit(spec);
        let done = e.drain(100);
        assert_eq!(done.len(), 1);
        assert!(done[0].response.as_secs_f64() < 0.1);
    }

    #[test]
    fn submit_at_preserves_queueing_delay() {
        let mut e = small_engine();
        for _ in 0..100 {
            e.step();
        }
        let arrival = SimTime::ZERO; // arrived long before dispatch
        e.submit_at(PlanBuilder::utility(0.01, 0).build().into_spec(), arrival);
        let done = e.drain(1_000);
        assert!(done[0].response.as_secs_f64() > 1.0, "includes queue wait");
    }
}
