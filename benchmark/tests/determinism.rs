//! Decorators and the counting allocator observe; they must not steer.
//! A decorated, counted run has to end in exactly the simulated state an
//! undecorated one does, on every workload.

use wlm_benchmark::alloc::set_counting;
use wlm_benchmark::workloads::{build, Variant, Workload};

/// Steps a workload is run for here: past the first chaos faults, short
/// enough for an unoptimised build.
fn steps(workload: Workload) -> u64 {
    match workload {
        Workload::EngineBare | Workload::ManagedLight => 3_000,
        Workload::ManagedMixed => 400,
        Workload::Cluster8Direct => 100,
        Workload::Cluster8Chaos => 700,
    }
}

fn end_state(workload: Workload, variant: Variant, traced: bool) -> (u64, u64) {
    let mut built = build(workload, variant, 42, traced);
    for _ in 0..steps(workload) {
        built.system.step(&mut built.source);
    }
    (built.system.outcome().digest(), built.source.issued())
}

#[test]
fn decorators_and_counting_leave_the_digest_unchanged() {
    for workload in Workload::ALL {
        let plain = end_state(workload, Variant::Plain, false);
        set_counting(true);
        let traced = end_state(workload, Variant::Plain, true);
        set_counting(false);
        assert_eq!(plain, traced, "{} diverged under tracing", workload.name());
        assert!(plain.1 > 0, "{} issued nothing", workload.name());
    }
}

#[test]
fn same_seed_same_digest_and_other_seed_other_digest() {
    let w = Workload::ManagedMixed;
    assert_eq!(
        end_state(w, Variant::Plain, false),
        end_state(w, Variant::Plain, false)
    );
    let mut other = build(w, Variant::Plain, 43, false);
    for _ in 0..steps(w) {
        other.system.step(&mut other.source);
    }
    assert_ne!(
        other.system.outcome().digest(),
        end_state(w, Variant::Plain, false).0
    );
}

#[test]
fn subscribers_and_a_perfect_link_do_not_change_the_simulation() {
    assert_eq!(
        end_state(Workload::ManagedMixed, Variant::Plain, false),
        end_state(Workload::ManagedMixed, Variant::EventsOn, false)
    );
    assert_eq!(
        end_state(Workload::Cluster8Direct, Variant::Plain, false),
        end_state(Workload::Cluster8Direct, Variant::PerfectLink, false)
    );
}
