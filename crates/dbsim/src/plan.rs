//! Query plans: pipelines of operators with explicit resource demands.
//!
//! A [`Plan`] is a sequence of pipeline stages (operators) executed in
//! order, each with a *true* CPU demand, I/O demand, working-memory
//! requirement and intermediate-state size. The engine executes these true
//! demands; the [`crate::optimizer::CostModel`] reports *estimates* of them
//! with configurable error, which is exactly the information asymmetry that
//! workload management techniques must cope with.
//!
//! Representing a plan as a stage pipeline (the post-order of the operator
//! tree) rather than a full tree keeps the simulation simple while
//! preserving everything the taxonomy's techniques observe: total and
//! per-operator work, memory footprints, checkpointable state, and the
//! ability to slice a plan into independently schedulable sub-plans
//! (query restructuring, Bruno et al. / Meng et al.).

use serde::{Deserialize, Serialize};

/// Cost coefficients relating logical row/page counts to physical work.
/// Centralised so the whole simulation shares one calibration.
pub mod coeffs {
    /// CPU microseconds to scan one row.
    pub const SCAN_CPU_PER_ROW: f64 = 0.2;
    /// CPU microseconds to evaluate a filter predicate on one row.
    pub const FILTER_CPU_PER_ROW: f64 = 0.05;
    /// CPU microseconds per row on either side of a hash join.
    pub const HASH_JOIN_CPU_PER_ROW: f64 = 0.3;
    /// CPU microseconds per row for a nested-loop join *per inner row probed*.
    pub const NL_JOIN_CPU_PER_PROBE: f64 = 0.02;
    /// CPU microseconds per comparison in a sort (`n log2 n` comparisons).
    pub const SORT_CPU_PER_CMP: f64 = 0.02;
    /// CPU microseconds per row aggregated.
    pub const AGG_CPU_PER_ROW: f64 = 0.1;
    /// CPU microseconds per row inserted/updated (index maintenance etc.).
    pub const WRITE_CPU_PER_ROW: f64 = 2.0;
    /// Rows per 8 KiB page for the default 96-byte row.
    pub const ROWS_PER_PAGE: f64 = 85.0;
    /// Intermediate state bytes per output row (hash tables, sort runs).
    pub const STATE_BYTES_PER_ROW: f64 = 64.0;
}

/// What kind of work an operator performs. Carried for reporting, progress
/// estimation and restructuring decisions; the engine itself only consumes
/// the numeric demands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OperatorKind {
    /// Sequential scan of a base table.
    TableScan,
    /// Point/range lookup through a primary-key index.
    IndexLookup,
    /// Predicate evaluation over the input stream.
    Filter,
    /// Hash join (build + probe).
    HashJoin,
    /// Sort-merge join.
    MergeJoin,
    /// Nested-loop join.
    NestedLoopJoin,
    /// External or in-memory sort.
    Sort,
    /// Grouping/aggregation.
    Aggregate,
    /// Row insertion.
    Insert,
    /// Row update.
    Update,
    /// Row deletion.
    Delete,
    /// Bulk load.
    Load,
    /// An online administrative utility (backup, reorg, runstats...). Not a
    /// query operator in a real engine, but Parekh et al. throttle utilities
    /// with exactly the same mechanism as queries, so they share the model.
    Utility,
}

impl OperatorKind {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            OperatorKind::TableScan => "TableScan",
            OperatorKind::IndexLookup => "IndexLookup",
            OperatorKind::Filter => "Filter",
            OperatorKind::HashJoin => "HashJoin",
            OperatorKind::MergeJoin => "MergeJoin",
            OperatorKind::NestedLoopJoin => "NestedLoopJoin",
            OperatorKind::Sort => "Sort",
            OperatorKind::Aggregate => "Aggregate",
            OperatorKind::Insert => "Insert",
            OperatorKind::Update => "Update",
            OperatorKind::Delete => "Delete",
            OperatorKind::Load => "Load",
            OperatorKind::Utility => "Utility",
        }
    }

    /// Whether this operator writes data (and therefore needs exclusive
    /// locks in the lock manager).
    pub fn is_write(self) -> bool {
        matches!(
            self,
            OperatorKind::Insert | OperatorKind::Update | OperatorKind::Delete | OperatorKind::Load
        )
    }
}

/// One pipeline stage with its true resource demands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Operator {
    /// What the stage does.
    pub kind: OperatorKind,
    /// Total CPU service demand, in microseconds of one core at full speed.
    pub cpu_us: u64,
    /// Total page I/O demand before buffer-pool hits are applied.
    pub io_pages: u64,
    /// Working memory held while the stage is active, in MiB.
    pub mem_mb: u64,
    /// Size of the stage's intermediate state when complete, in MiB
    /// (determines the cost of a `DumpState` suspend checkpoint).
    pub state_mb: f64,
    /// Rows produced by the stage.
    pub rows_out: u64,
}

impl Operator {
    /// Combined work metric used for progress accounting: CPU microseconds
    /// plus I/O pages weighted by a nominal 100 µs/page device time.
    pub fn total_work(&self) -> u64 {
        self.cpu_us + self.io_pages * 100
    }

    /// Split this operator into `n >= 1` pieces with proportionally divided
    /// demands (query restructuring). Rounding remainders land on the last
    /// piece so the pieces always sum back to the original.
    pub fn split(&self, n: usize) -> Vec<Operator> {
        let n = n.max(1);
        let mut pieces = Vec::with_capacity(n);
        let mut cpu_left = self.cpu_us;
        let mut io_left = self.io_pages;
        let mut rows_left = self.rows_out;
        for i in 0..n {
            let remaining = (n - i) as u64;
            let cpu = cpu_left / remaining;
            let io = io_left / remaining;
            let rows = rows_left / remaining;
            let last = i == n - 1;
            pieces.push(Operator {
                kind: self.kind,
                cpu_us: if last { cpu_left } else { cpu },
                io_pages: if last { io_left } else { io },
                mem_mb: self.mem_mb,
                state_mb: self.state_mb / n as f64,
                rows_out: if last { rows_left } else { rows },
            });
            if !last {
                cpu_left -= cpu;
                io_left -= io;
                rows_left -= rows;
            }
        }
        pieces
    }
}

/// SQL statement classes, as used for workload identification ("what" the
/// request is) by DB2 work classes and Teradata classification criteria.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum StatementType {
    /// Read-only query (SELECT).
    Read,
    /// Data-modifying statement (historically grouped as WRITE).
    Write,
    /// Generic DML.
    Dml,
    /// Data definition (CREATE/ALTER/DROP).
    Ddl,
    /// Bulk load.
    Load,
    /// Stored-procedure call.
    Call,
    /// Administrative utility (backup, reorg, runstats).
    Utility,
}

impl StatementType {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            StatementType::Read => "READ",
            StatementType::Write => "WRITE",
            StatementType::Dml => "DML",
            StatementType::Ddl => "DDL",
            StatementType::Load => "LOAD",
            StatementType::Call => "CALL",
            StatementType::Utility => "UTILITY",
        }
    }
}

/// A complete query plan: an ordered pipeline of operators.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Plan {
    /// Pipeline stages, executed front to back.
    pub ops: Vec<Operator>,
}

impl Plan {
    /// Total true CPU demand across all stages, microseconds.
    pub fn total_cpu_us(&self) -> u64 {
        self.ops.iter().map(|o| o.cpu_us).sum()
    }

    /// Total true I/O demand across all stages, pages.
    pub fn total_io_pages(&self) -> u64 {
        self.ops.iter().map(|o| o.io_pages).sum()
    }

    /// Peak working memory across stages, MiB.
    pub fn peak_mem_mb(&self) -> u64 {
        self.ops.iter().map(|o| o.mem_mb).max().unwrap_or(0)
    }

    /// Combined work metric (see [`Operator::total_work`]).
    pub fn total_work(&self) -> u64 {
        self.ops.iter().map(Operator::total_work).sum()
    }

    /// Rows returned by the final stage.
    pub fn rows_out(&self) -> u64 {
        self.ops.last().map_or(0, |o| o.rows_out)
    }

    /// Whether any stage writes data.
    pub fn is_write(&self) -> bool {
        self.ops.iter().any(|o| o.kind.is_write())
    }

    /// Wrap into a [`QuerySpec`] with default execution attributes.
    pub fn into_spec(self) -> QuerySpec {
        let statement = if self.is_write() {
            StatementType::Dml
        } else {
            StatementType::Read
        };
        QuerySpec {
            working_set_pages: (self.total_io_pages() / 4).max(8),
            statement,
            plan: self,
            write_keys: Vec::new(),
            weight: 1.0,
            label: String::new(),
        }
    }
}

/// Everything the engine needs to run one request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuerySpec {
    /// The execution plan.
    pub plan: Plan,
    /// Statement class (identification input for workload definitions).
    pub statement: StatementType,
    /// Keys on which exclusive locks are acquired before the first stage
    /// runs and held until completion (strict two-phase locking).
    pub write_keys: Vec<u64>,
    /// Initial resource-access weight (fair-share priority). Higher is more.
    pub weight: f64,
    /// Hot working-set size for the buffer-pool hit model, in pages.
    pub working_set_pages: u64,
    /// Free-form tag used by observers (workload name, generator id...).
    pub label: String,
}

impl QuerySpec {
    /// Attach a label.
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Set the initial fair-share weight.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight.max(1e-6);
        self
    }

    /// Set the keys this request locks exclusively.
    pub fn with_write_keys(mut self, keys: Vec<u64>) -> Self {
        self.write_keys = keys;
        self
    }
}

/// Fluent constructor for common plan shapes.
///
/// Work demands are derived from logical row counts through the coefficients
/// in [`coeffs`], so generated workloads stay internally consistent.
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    ops: Vec<Operator>,
    rows: u64,
}

impl PlanBuilder {
    fn state_mb(rows: u64) -> f64 {
        rows as f64 * coeffs::STATE_BYTES_PER_ROW / (1024.0 * 1024.0)
    }

    /// Start with a sequential scan of `rows` rows.
    pub fn table_scan(rows: u64) -> Self {
        let io = (rows as f64 / coeffs::ROWS_PER_PAGE).ceil() as u64;
        let op = Operator {
            kind: OperatorKind::TableScan,
            cpu_us: (rows as f64 * coeffs::SCAN_CPU_PER_ROW).ceil() as u64,
            io_pages: io,
            mem_mb: 16,
            state_mb: Self::state_mb(rows),
            rows_out: rows,
        };
        PlanBuilder {
            ops: vec![op],
            rows,
        }
    }

    /// Start with an index lookup matching `rows` rows.
    pub fn index_lookup(rows: u64) -> Self {
        let op = Operator {
            kind: OperatorKind::IndexLookup,
            cpu_us: 20 + (rows as f64 * coeffs::SCAN_CPU_PER_ROW).ceil() as u64,
            io_pages: 3 + (rows as f64 / coeffs::ROWS_PER_PAGE).ceil() as u64,
            mem_mb: 1,
            state_mb: Self::state_mb(rows),
            rows_out: rows,
        };
        PlanBuilder {
            ops: vec![op],
            rows,
        }
    }

    /// Apply a filter with selectivity `sel` in `[0, 1]`.
    pub fn filter(mut self, sel: f64) -> Self {
        let sel = sel.clamp(0.0, 1.0);
        let out = (self.rows as f64 * sel).ceil() as u64;
        self.ops.push(Operator {
            kind: OperatorKind::Filter,
            cpu_us: (self.rows as f64 * coeffs::FILTER_CPU_PER_ROW).ceil() as u64,
            io_pages: 0,
            mem_mb: 1,
            state_mb: Self::state_mb(out),
            rows_out: out,
        });
        self.rows = out;
        self
    }

    /// Hash-join the pipeline against a build side of `build_rows` rows with
    /// join fan-out `fanout` (output rows per probe row).
    pub fn hash_join(mut self, build_rows: u64, fanout: f64) -> Self {
        let out = (self.rows as f64 * fanout.max(0.0)).ceil() as u64;
        let build_io = (build_rows as f64 / coeffs::ROWS_PER_PAGE).ceil() as u64;
        self.ops.push(Operator {
            kind: OperatorKind::HashJoin,
            cpu_us: ((self.rows + build_rows) as f64 * coeffs::HASH_JOIN_CPU_PER_ROW).ceil() as u64,
            io_pages: build_io,
            mem_mb: ((build_rows as f64 * 96.0) / (1024.0 * 1024.0)).ceil() as u64 + 4,
            state_mb: Self::state_mb(build_rows + out),
            rows_out: out,
        });
        self.rows = out;
        self
    }

    /// Sort-merge join against a pre-sorted build side of `build_rows` rows
    /// with join fan-out `fanout`. Cheaper CPU than a hash join, no build
    /// table in memory, but both inputs pay a sort-order scan.
    pub fn merge_join(mut self, build_rows: u64, fanout: f64) -> Self {
        let out = (self.rows as f64 * fanout.max(0.0)).ceil() as u64;
        let build_io = (build_rows as f64 / coeffs::ROWS_PER_PAGE).ceil() as u64;
        self.ops.push(Operator {
            kind: OperatorKind::MergeJoin,
            cpu_us: ((self.rows + build_rows) as f64 * coeffs::HASH_JOIN_CPU_PER_ROW * 0.6).ceil()
                as u64,
            io_pages: build_io,
            mem_mb: 8,
            state_mb: Self::state_mb(out),
            rows_out: out,
        });
        self.rows = out;
        self
    }

    /// Nested-loop join against an inner of `inner_rows` rows with join
    /// fan-out `fanout`. CPU grows with the probe product — the expensive
    /// plan shape optimizers try to avoid, and exactly what a bad estimate
    /// produces.
    pub fn nested_loop_join(mut self, inner_rows: u64, fanout: f64) -> Self {
        let out = (self.rows as f64 * fanout.max(0.0)).ceil() as u64;
        let probes = (self.rows as f64) * (inner_rows as f64);
        let inner_io = (inner_rows as f64 / coeffs::ROWS_PER_PAGE).ceil() as u64;
        self.ops.push(Operator {
            kind: OperatorKind::NestedLoopJoin,
            cpu_us: (probes * coeffs::NL_JOIN_CPU_PER_PROBE).ceil() as u64,
            io_pages: inner_io,
            mem_mb: 4,
            state_mb: Self::state_mb(out),
            rows_out: out,
        });
        self.rows = out;
        self
    }

    /// Sort the pipeline output.
    pub fn sort(mut self) -> Self {
        let n = self.rows.max(2) as f64;
        self.ops.push(Operator {
            kind: OperatorKind::Sort,
            cpu_us: (n * n.log2() * coeffs::SORT_CPU_PER_CMP).ceil() as u64,
            io_pages: 0,
            mem_mb: ((n * 96.0) / (1024.0 * 1024.0)).ceil() as u64 + 2,
            state_mb: Self::state_mb(self.rows),
            rows_out: self.rows,
        });
        self
    }

    /// Aggregate down to `groups` output rows.
    pub fn aggregate(mut self, groups: u64) -> Self {
        let out = groups.min(self.rows).max(1);
        self.ops.push(Operator {
            kind: OperatorKind::Aggregate,
            cpu_us: (self.rows as f64 * coeffs::AGG_CPU_PER_ROW).ceil() as u64,
            io_pages: 0,
            mem_mb: ((out as f64 * 96.0) / (1024.0 * 1024.0)).ceil() as u64 + 1,
            state_mb: Self::state_mb(out),
            rows_out: out,
        });
        self.rows = out;
        self
    }

    /// Append an insert/update stage writing `rows` rows.
    pub fn write(mut self, kind: OperatorKind, rows: u64) -> Self {
        debug_assert!(kind.is_write(), "write() requires a writing operator");
        self.ops.push(Operator {
            kind,
            cpu_us: (rows as f64 * coeffs::WRITE_CPU_PER_ROW).ceil() as u64,
            io_pages: (rows as f64 / coeffs::ROWS_PER_PAGE).ceil().max(1.0) as u64,
            mem_mb: 2,
            state_mb: 0.0,
            rows_out: rows,
        });
        self.rows = rows;
        self
    }

    /// A standalone administrative-utility "plan" with the given CPU seconds
    /// and I/O pages of total demand (backup, reorg, runstats...).
    pub fn utility(cpu_secs: f64, io_pages: u64) -> Self {
        let op = Operator {
            kind: OperatorKind::Utility,
            cpu_us: (cpu_secs * 1e6) as u64,
            io_pages,
            mem_mb: 64,
            state_mb: 0.0,
            rows_out: 0,
        };
        PlanBuilder {
            ops: vec![op],
            rows: 0,
        }
    }

    /// Finish building.
    pub fn build(self) -> Plan {
        Plan { ops: self.ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_derives_consistent_work() {
        let plan = PlanBuilder::table_scan(1_000_000)
            .filter(0.1)
            .hash_join(100_000, 1.0)
            .sort()
            .aggregate(100)
            .build();
        assert_eq!(plan.ops.len(), 5);
        assert!(plan.total_cpu_us() > 0);
        assert!(plan.total_io_pages() > 10_000);
        assert_eq!(plan.rows_out(), 100);
        assert!(!plan.is_write());
    }

    #[test]
    fn oltp_plan_is_small() {
        let plan = PlanBuilder::index_lookup(10)
            .write(OperatorKind::Update, 3)
            .build();
        assert!(plan.total_cpu_us() < 100);
        assert!(plan.total_io_pages() < 10);
        assert!(plan.is_write());
        assert_eq!(plan.clone().into_spec().statement, StatementType::Dml);
    }

    #[test]
    fn split_preserves_totals() {
        let op = Operator {
            kind: OperatorKind::TableScan,
            cpu_us: 1003,
            io_pages: 77,
            mem_mb: 8,
            state_mb: 3.0,
            rows_out: 500,
        };
        for n in [1, 2, 3, 7] {
            let pieces = op.split(n);
            assert_eq!(pieces.len(), n);
            assert_eq!(pieces.iter().map(|p| p.cpu_us).sum::<u64>(), 1003);
            assert_eq!(pieces.iter().map(|p| p.io_pages).sum::<u64>(), 77);
            assert_eq!(pieces.iter().map(|p| p.rows_out).sum::<u64>(), 500);
        }
    }

    #[test]
    fn split_zero_clamps_to_one() {
        let op = Operator {
            kind: OperatorKind::Filter,
            cpu_us: 10,
            io_pages: 0,
            mem_mb: 1,
            state_mb: 0.0,
            rows_out: 1,
        };
        assert_eq!(op.split(0).len(), 1);
    }

    #[test]
    fn spec_builders_apply() {
        let spec = PlanBuilder::table_scan(100)
            .build()
            .into_spec()
            .labeled("bi")
            .with_weight(4.0)
            .with_write_keys(vec![1, 2]);
        assert_eq!(spec.label, "bi");
        assert_eq!(spec.weight, 4.0);
        assert_eq!(spec.write_keys, vec![1, 2]);
        assert_eq!(spec.statement, StatementType::Read);
    }

    #[test]
    fn merge_join_is_cheaper_than_hash_join_in_cpu() {
        let hash = PlanBuilder::table_scan(100_000)
            .hash_join(50_000, 1.0)
            .build();
        let merge = PlanBuilder::table_scan(100_000)
            .merge_join(50_000, 1.0)
            .build();
        assert!(merge.ops[1].cpu_us < hash.ops[1].cpu_us);
        assert!(merge.ops[1].mem_mb < hash.ops[1].mem_mb, "no build table");
        assert_eq!(merge.rows_out(), hash.rows_out());
    }

    #[test]
    fn nested_loop_join_cpu_grows_with_probe_product() {
        let small = PlanBuilder::table_scan(1_000)
            .nested_loop_join(1_000, 1.0)
            .build();
        let big = PlanBuilder::table_scan(10_000)
            .nested_loop_join(1_000, 1.0)
            .build();
        assert!(
            big.ops[1].cpu_us >= small.ops[1].cpu_us * 9,
            "probe product scaling: {} vs {}",
            small.ops[1].cpu_us,
            big.ops[1].cpu_us
        );
    }

    #[test]
    fn utility_plan() {
        let plan = PlanBuilder::utility(10.0, 5_000).build();
        assert_eq!(plan.ops[0].kind, OperatorKind::Utility);
        assert_eq!(plan.total_cpu_us(), 10_000_000);
    }
}
