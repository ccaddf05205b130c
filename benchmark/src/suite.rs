//! The whole benchmark in one command: every workload, repeated, each run
//! in a fresh child process (the harness re-executes itself), with the
//! cross-run checks a single run cannot make, and a result file that
//! `--compare` reads.

use crate::names::{Better, END_TO_END};
use crate::stats::{mad, median, relative_spread};
use crate::workloads::Workload;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Median, range and samples of one metric over a workload's repetitions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricSummary {
    /// The metric's unit.
    pub unit: String,
    /// Median over the samples.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median absolute deviation.
    pub mad: f64,
    /// Every sample, in run order.
    pub samples: Vec<f64>,
}

impl MetricSummary {
    fn of(unit: &str, samples: Vec<f64>) -> Self {
        MetricSummary {
            unit: unit.to_string(),
            median: median(&samples),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mad: mad(&samples),
            samples,
        }
    }

    /// Interquartile distance over the median (max−min over the median
    /// below four samples, where quartiles mean little).
    pub fn spread(&self) -> f64 {
        if self.samples.len() >= 4 {
            relative_spread(&self.samples).unwrap_or(0.0)
        } else if self.median != 0.0 {
            (self.max - self.min) / self.median.abs()
        } else {
            0.0
        }
    }
}

/// One workload's results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// `sim_digest` every repetition (and the traced run) agreed on.
    pub sim_digest: String,
    /// Requests issued by the last repetition.
    pub attempted: u64,
    /// Requests not in exactly one terminal state, summed over the runs.
    pub failed: u64,
    /// End-to-end metrics over the untraced repetitions.
    pub end_to_end: BTreeMap<String, MetricSummary>,
    /// Per-layer metrics of the one traced run.
    pub per_layer: BTreeMap<String, MetricSummary>,
}

/// The result file `--out` names.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultFile {
    /// Seed every workload ran with.
    pub seed: u64,
    /// `--seconds` every run was sized for.
    pub seconds: u64,
    /// Untraced repetitions per workload.
    pub reps: u64,
    /// Hardware threads of the host (one is used).
    pub nproc: u64,
    /// Results by workload name.
    pub workloads: BTreeMap<String, WorkloadResult>,
}

/// What the suite is asked to run.
#[derive(Debug, Clone)]
pub struct SuiteSpec {
    /// Workloads to run.
    pub workloads: Vec<Workload>,
    /// Seed.
    pub seed: u64,
    /// `--seconds` for every run.
    pub seconds: u64,
    /// Untraced repetitions per workload (0 with `--traced-only`).
    pub reps: u64,
    /// Whether to make the traced run.
    pub traced: bool,
}

/// One child run, parsed.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    digest: String,
    metrics: Vec<(String, f64, String)>,
}

/// Re-execute this binary for one run and parse what it printed.
fn run_child(workload: Workload, seed: u64, seconds: u64, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("sim_digest "))
        .unwrap_or("")
        .to_string();
    let last = stdout.lines().last().unwrap_or("");
    let parsed: Value = serde_json::from_str(last).map_err(|e| {
        format!(
            "{} run of {} printed no result ({e}); stderr: {}",
            if traced { "traced" } else { "untraced" },
            workload.name(),
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let metrics = parsed
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
                m.get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect();
    for line in stdout.lines().filter(|l| l.contains("FAILED")) {
        eprintln!("  {line}");
    }
    Ok(Child {
        correct: parsed.get("correct").and_then(Value::as_bool) == Some(true)
            && output.status.success(),
        attempted: parsed.get("attempted").and_then(Value::as_u64).unwrap_or(0),
        failed: parsed.get("failed").and_then(Value::as_u64).unwrap_or(0),
        digest,
        metrics,
    })
}

/// Run the suite. Returns the results and whether every check passed.
pub fn run_suite(spec: &SuiteSpec) -> Result<(ResultFile, bool), String> {
    let mut ok = true;
    let mut workloads = BTreeMap::new();
    for &workload in &spec.workloads {
        let name = workload.name();
        let mut samples: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        let mut digests: Vec<String> = Vec::new();
        let (mut attempted, mut failed) = (0, 0);
        for rep in 0..spec.reps {
            eprintln!("{name}: untraced run {}/{}", rep + 1, spec.reps);
            let child = run_child(workload, spec.seed, spec.seconds, false)?;
            ok &= child.correct;
            attempted = child.attempted;
            failed += child.failed;
            digests.push(child.digest);
            for (metric, value, unit) in child.metrics {
                samples
                    .entry(metric)
                    .or_insert_with(|| (unit, Vec::new()))
                    .1
                    .push(value);
            }
        }
        let mut per_layer = BTreeMap::new();
        if spec.traced {
            eprintln!("{name}: traced run");
            let child = run_child(workload, spec.seed, spec.seconds, true)?;
            ok &= child.correct;
            failed += child.failed;
            attempted = attempted.max(child.attempted);
            digests.push(child.digest);
            for (metric, value, unit) in child.metrics {
                per_layer.insert(metric, MetricSummary::of(&unit, vec![value]));
            }
        }
        // Same seed, same simulation: across repetitions and between the
        // traced and untraced binaries' code paths.
        if digests.windows(2).any(|w| w[0] != w[1]) || digests.iter().any(String::is_empty) {
            ok = false;
            eprintln!("  FAILED digest: {name} runs disagree: {digests:?}");
        }
        workloads.insert(
            name.to_string(),
            WorkloadResult {
                sim_digest: digests.first().cloned().unwrap_or_default(),
                attempted,
                failed,
                end_to_end: samples
                    .into_iter()
                    .map(|(metric, (unit, values))| (metric, MetricSummary::of(&unit, values)))
                    .collect(),
                per_layer,
            },
        );
    }
    let file = ResultFile {
        seed: spec.seed,
        seconds: spec.seconds,
        reps: spec.reps,
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        workloads,
    };
    Ok((file, ok))
}

/// Print every metric by name with its unit.
pub fn print_results(file: &ResultFile) {
    for (name, w) in &file.workloads {
        println!(
            "\n== {name}  sim_digest {}  attempted {}  failed {}",
            w.sim_digest, w.attempted, w.failed
        );
        for (metric, s) in &w.end_to_end {
            println!(
                "  {metric:<34} {:>16.6} {:<6} min {:.6} max {:.6} n {} spread {:.2}%",
                s.median,
                s.unit,
                s.min,
                s.max,
                s.samples.len(),
                100.0 * s.spread()
            );
        }
        for (metric, s) in &w.per_layer {
            if s.median != 0.0 {
                println!("  {metric:<34} {:>16.6} {}", s.median, s.unit);
            }
        }
    }
}

/// Write the result file.
pub fn write_results(file: &ResultFile, path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(file).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `--compare A.json B.json`: per (workload, end-to-end metric), both
/// medians, B's change relative to A, the bound, and a verdict —
/// `regressed` when B is worse than A by more than the bound,
/// `unresolved` when either side's run-to-run spread exceeds the bound
/// (the difference cannot be told from noise), `ok` otherwise. Returns
/// whether nothing regressed and every digest matched.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let read = |p: &Path| -> Result<ResultFile, String> {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (read(a_path)?, read(b_path)?);
    let mut clean = true;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B vs A", "bound"
    );
    for (name, wa) in &a.workloads {
        let Some(wb) = b.workloads.get(name) else {
            println!("{name:<16} missing from B");
            clean = false;
            continue;
        };
        for def in END_TO_END {
            let (Some(ma), Some(mb)) = (wa.end_to_end.get(def.name), wb.end_to_end.get(def.name))
            else {
                continue;
            };
            let change = (mb.median - ma.median) / ma.median.abs().max(f64::MIN_POSITIVE);
            let worse_by = match def.better {
                Better::Higher => -change,
                Better::Lower => change,
            };
            let verdict = if ma.spread() > def.bound || mb.spread() > def.bound {
                "unresolved"
            } else if worse_by > def.bound {
                clean = false;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{name:<16} {:<18} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%  {verdict}",
                def.name,
                ma.median,
                mb.median,
                100.0 * change,
                100.0 * def.bound
            );
        }
        let same_inputs = a.seed == b.seed && a.seconds == b.seconds;
        if same_inputs && wa.sim_digest != wb.sim_digest {
            clean = false;
            println!(
                "{name:<16} sim_digest differs: {} vs {} — the simulation changed, not just its speed",
                wa.sim_digest, wb.sim_digest
            );
        }
    }
    Ok(clean)
}
