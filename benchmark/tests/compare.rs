//! `--compare`: regressions are caught, noise is called unresolved, and a
//! changed digest is reported.

use std::collections::BTreeMap;
use std::path::PathBuf;
use wlm_benchmark::names::END_TO_END;
use wlm_benchmark::suite::{compare, write_results, MetricSummary, ResultFile, WorkloadResult};

fn summary(unit: &str, samples: &[f64]) -> MetricSummary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    MetricSummary {
        unit: unit.into(),
        median: sorted[sorted.len() / 2],
        min: sorted[0],
        max: sorted[sorted.len() - 1],
        mad: 0.0,
        samples: samples.to_vec(),
    }
}

/// A result file whose every end-to-end metric is `scale` times 100,
/// with `jitter` of relative run-to-run scatter.
fn file(scale: f64, jitter: f64, digest: &str) -> ResultFile {
    let end_to_end: BTreeMap<String, MetricSummary> = END_TO_END
        .iter()
        .map(|d| {
            let samples: Vec<f64> = (0..5)
                .map(|i| 100.0 * scale * (1.0 + jitter * (i as f64 - 2.0)))
                .collect();
            (d.name.to_string(), summary(d.unit, &samples))
        })
        .collect();
    ResultFile {
        seed: 1,
        seconds: 15,
        reps: 5,
        nproc: 2,
        workloads: BTreeMap::from([(
            "managed-light".to_string(),
            WorkloadResult {
                sim_digest: digest.into(),
                attempted: 10,
                failed: 0,
                end_to_end,
                per_layer: BTreeMap::new(),
            },
        )]),
    }
}

fn saved(name: &str, f: &ResultFile) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    write_results(f, &path).expect("writable target tmp dir");
    path
}

#[test]
fn identical_sets_agree_and_round_trip() {
    let a = saved("same-a.json", &file(1.0, 0.001, "abc"));
    let b = saved("same-b.json", &file(1.0, 0.001, "abc"));
    assert_eq!(compare(&a, &b), Ok(true));
}

#[test]
fn a_change_beyond_every_bound_regresses_in_one_direction_only() {
    // Everything 40 % larger: worse for lower-is-better metrics, better
    // for higher-is-better ones. Either way something regressed, because
    // the list holds both kinds.
    let a = saved("reg-a.json", &file(1.0, 0.001, "abc"));
    let b = saved("reg-b.json", &file(1.4, 0.001, "abc"));
    assert_eq!(compare(&a, &b), Ok(false));
    assert_eq!(compare(&b, &a), Ok(false));
}

#[test]
fn scatter_wider_than_the_bound_is_unresolved_not_regressed() {
    // 30 % steps between samples swamp every bound: no verdict either way.
    let a = saved("noise-a.json", &file(1.0, 0.3, "abc"));
    let b = saved("noise-b.json", &file(1.4, 0.3, "abc"));
    assert_eq!(compare(&a, &b), Ok(true));
}

#[test]
fn a_changed_digest_is_not_a_speed_only_change() {
    let a = saved("dig-a.json", &file(1.0, 0.001, "abc"));
    let b = saved("dig-b.json", &file(1.0, 0.001, "abd"));
    assert_eq!(compare(&a, &b), Ok(false));
}
