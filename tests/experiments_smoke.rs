//! The experiments that read windows of the manager's reporting state —
//! E17 and E18 as differences of cumulative response histograms, E25 from
//! the completion counters, E4 from completions recorded off the event
//! bus — each run twice at one seed: byte-identical results, and the shape
//! each documents. Only relationships that hold for any arrival stream are
//! asserted here (the stream-dependent pins live in `wlm-bench`'s own
//! tests, which need the crate registry; these run wherever the workspace
//! builds).

use wlm::core::events::{clear_thread_trace, install_thread_trace, WlmEvent};
use wlm::dbsim::metrics::{percentile, summarize};

/// Evaluate an experiment twice, require byte-identical serialised
/// results, and yield the first.
macro_rules! twice {
    ($run:expr) => {{
        let (a, b) = ($run, $run);
        assert_eq!(
            serde_json::to_string(&a).expect("result serializes"),
            serde_json::to_string(&b).expect("result serializes"),
            "same seed, same bytes"
        );
        a
    }};
}

#[test]
fn e17_phase_windows_match_the_completions_they_cover() {
    let r = twice!(wlm_bench::e17_fault_recovery(11));
    assert_eq!(r.faults_skipped, 0, "every planned fault must land");
    assert_eq!(r.faults_applied, 7, "4 windows: 3 paired + 1 storm");

    // The same run once more under the thread trace: every completion,
    // individually, to hold the histogram differences against.
    let trace = install_thread_trace(1 << 20);
    let traced = wlm_bench::e17_fault_recovery(11);
    clear_thread_trace();
    assert_eq!(trace.dropped(), 0, "the ring holds the whole run");
    assert_eq!(
        serde_json::to_string(&traced).expect("result serializes"),
        serde_json::to_string(&r).expect("result serializes"),
        "tracing does not perturb the run"
    );
    let oltp: Vec<(f64, f64)> = trace
        .take()
        .into_iter()
        .filter_map(|e| match e {
            WlmEvent::Completed {
                at,
                workload,
                response_secs,
                ..
            } if workload == "oltp" => Some((at.as_secs_f64(), response_secs)),
            _ => None,
        })
        .collect();

    let names: Vec<&str> = r.phases.iter().map(|p| p.phase).collect();
    assert_eq!(names, ["pre-fault", "fault", "recovery"]);
    let mut from = 0.0;
    for (phase, until) in r.phases.iter().zip([15.0, 30.0, 60.0]) {
        let mut window: Vec<f64> = oltp
            .iter()
            .filter(|(at, _)| *at > from && *at <= until)
            .map(|(_, response)| *response)
            .collect();
        window.sort_by(f64::total_cmp);
        assert_eq!(phase.oltp_completions, window.len() as u64, "{phase:?}");
        let exact_mean = summarize(&window).mean;
        assert!(
            (phase.oltp_mean - exact_mean).abs() <= 1e-9 * exact_mean,
            "{phase:?} vs exact mean {exact_mean}"
        );
        let exact_p95 = percentile(&window, 95.0);
        assert!(
            phase.oltp_p95 >= exact_p95 && phase.oltp_p95 <= exact_p95 * 1.01,
            "{phase:?} vs exact p95 {exact_p95}"
        );
        from = until;
    }
    let [pre, fault, _] = &r.phases[..] else {
        panic!("three phases expected");
    };
    assert!(pre.oltp_completions > 0);
    assert!(
        fault.oltp_mean > pre.oltp_mean,
        "the fault window degrades: {} vs {}",
        fault.oltp_mean,
        pre.oltp_mean
    );
}

#[test]
fn e18_recovered_run_converges_to_the_uninterrupted_steady_state() {
    let r = twice!(wlm_bench::e18_crash_recovery(7, None, None));
    let [unint, ckpt, cold] = &r.variants[..] else {
        panic!("three variants expected");
    };
    assert!(unint.recovery.is_none() && unint.checkpoints_taken == 0);
    assert!(ckpt.checkpoints_taken > 0);
    let ckpt_rec = ckpt.recovery.expect("checkpointed crash recovered");
    assert_eq!(ckpt_rec.from_cycle, 1_500, "latest cadence before 1600");
    let cold_rec = cold.recovery.expect("cold crash recovered");
    assert_eq!(cold_rec.readopted, 0, "cold restart re-adopts nothing");
    // The last third of the run, read as a difference of two snapshots of
    // whichever books the recovery left (a cold restart's start empty).
    for v in &r.variants {
        assert!(v.steady_oltp_mean > 0.0, "{}: window is empty", v.variant);
    }
    assert!(
        ckpt.steady_oltp_mean <= unint.steady_oltp_mean * 2.0 + 0.1,
        "recovered steady state {} vs uninterrupted {}",
        ckpt.steady_oltp_mean,
        unint.steady_oltp_mean
    );
    assert!(
        ckpt.sla_violations_post_crash <= cold.sla_violations_post_crash,
        "checkpointed {} vs cold {}",
        ckpt.sla_violations_post_crash,
        cold.sla_violations_post_crash
    );
}

#[test]
fn e25_goodput_is_the_completion_counter_over_the_phase() {
    let r = twice!(wlm_bench::e25_retry_storm(0x5eed));
    let [unsup, sup] = &r.arms[..] else {
        panic!("two arms expected");
    };
    assert_eq!(unsup.variant, "unsuppressed");
    assert_eq!(sup.variant, "suppressed");
    assert_eq!(unsup.retries_suppressed, 0, "no budget, nothing held");
    for arm in &r.arms {
        let names: Vec<&str> = arm.phases.iter().map(|p| p.phase).collect();
        assert_eq!(names, ["pre-surge", "surge", "post-surge"]);
        // 0–10 s, 10–22 s, 22–45 s.
        for (phase, span) in arm.phases.iter().zip([10.0, 12.0, 23.0]) {
            assert_eq!(phase.goodput, phase.completed as f64 / span, "{phase:?}");
        }
        assert!(arm.phases[0].completed > 0, "healthy before the surge");
        assert_eq!(
            arm.recovery,
            arm.phases[2].goodput / arm.phases[0].goodput,
            "recovery is post over pre"
        );
    }
}

#[test]
fn e4_throttling_restores_production_and_costs_the_utility() {
    let r = twice!(wlm_bench::e4_throttling());
    assert!(
        r.oltp_mean_unthrottled > r.oltp_mean_baseline * 1.25,
        "utility must hurt: baseline {} with-utility {}",
        r.oltp_mean_baseline,
        r.oltp_mean_unthrottled
    );
    assert!(
        r.oltp_mean_throttled < r.oltp_mean_unthrottled * 0.92,
        "throttling must help: {} -> {}",
        r.oltp_mean_unthrottled,
        r.oltp_mean_throttled
    );
    assert!(
        r.oltp_mean_throttled < r.oltp_mean_baseline * (1.0 + r.allowed_degradation) * 1.15,
        "policy band: baseline {} throttled {}",
        r.oltp_mean_baseline,
        r.oltp_mean_throttled
    );
    assert!(
        r.utility_secs_throttled > r.utility_secs_unthrottled * 1.2,
        "the utility pays: {} -> {}",
        r.utility_secs_unthrottled,
        r.utility_secs_throttled
    );
}
