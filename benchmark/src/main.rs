//! Command line of the benchmark.
//!
//! ```text
//! wlm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload in this process; the last line of stdout
//!     is the result as one JSON object (the driver's contract)
//! wlm-benchmark [--seed <n>] [--workload <name>] [--reps <n>] [--seconds <s>]
//!               [--out <path>] [--traced-only | --untraced-only]
//!     the suite: every workload (or the one named), each run in a fresh
//!     child process; prints every metric and writes the result file
//! wlm-benchmark --compare A.json B.json
//!     compare two result files
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use wlm_benchmark::measure::{traced_run, untraced_run, RunOutput};
use wlm_benchmark::suite::{compare, print_results, run_suite, write_results, SuiteSpec};
use wlm_benchmark::workloads::Workload;

/// Where results go unless `--out` says otherwise: beside the executable,
/// that is inside the cargo target directory — never into the sources.
fn default_out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("wlm-benchmark-out")))
        .unwrap_or_else(|| PathBuf::from("wlm-benchmark-out"))
}

#[derive(Default)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    reps: Option<u64>,
    out: Option<PathBuf>,
    traced_only: bool,
    untraced_only: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("`{text}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(Workload::from_name(&name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}` (known: {})", known.join(", "))
                })?);
            }
            "--seed" => args.seed = Some(number(value("a seed")?)?),
            "--seconds" => {
                let s = number(value("a number of seconds")?)?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=60"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--reps" => {
                let n = number(value("a repetition count")?)?;
                if !(1..=100).contains(&n) {
                    return Err(format!("--reps {n} is outside 1..=100"));
                }
                args.reps = Some(n);
            }
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            "--traced-only" => args.traced_only = true,
            "--untraced-only" => args.untraced_only = true,
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value("two result files")?),
                    PathBuf::from(value("two result files")?),
                ))
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.traced_only && args.untraced_only {
        return Err("--traced-only and --untraced-only exclude each other".into());
    }
    Ok(args)
}

/// Print one run: notes, digest, every metric by name with its unit, and
/// as the last line the contract's JSON object.
fn print_run(out: &RunOutput) {
    for note in &out.notes {
        println!("# {note}");
    }
    println!("sim_digest {}", out.digest);
    for (def, value) in &out.metrics {
        println!("{:<36} {:>18.6} {}", def.name, value, def.unit);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(def, value)| {
            // JSON has no NaN or infinity; such a value already failed
            // the run's finiteness check.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if let Some((a, b)) = &args.compare {
        return compare(a, b);
    }
    let seed = args.seed.unwrap_or(1);
    let seconds = args.seconds.unwrap_or(10);
    if let Some(traced) = args.trace {
        let workload = args
            .workload
            .ok_or("--trace runs one workload: name it with --workload")?;
        let out = if traced {
            let (out, spans) = traced_run(workload, seed, seconds);
            let path = args.out.unwrap_or_else(|| {
                default_out_dir().join(format!("trace-{}.json", workload.name()))
            });
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            }
            let text = serde_json::to_string(&spans).map_err(|e| e.to_string())?;
            std::fs::write(&path, text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("# {} spans written to {}", spans.len(), path.display());
            out
        } else {
            untraced_run(workload, seed, seconds)
        };
        print_run(&out);
        return Ok(out.correct);
    }
    let spec = SuiteSpec {
        workloads: args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]),
        seed,
        seconds,
        reps: if args.traced_only {
            0
        } else {
            args.reps.unwrap_or(5)
        },
        traced: !args.untraced_only,
    };
    let (file, ok) = run_suite(&spec)?;
    print_results(&file);
    let path = args
        .out
        .unwrap_or_else(|| default_out_dir().join("results.json"));
    write_results(&file, &path)?;
    println!("\nresults written to {}", path.display());
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("wlm-benchmark: verification failed (see the FAILED lines)");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("wlm-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
