//! The manager's reporting state is fixed-size: response-time histograms
//! and a query log of weighted templates. Seeded walks hold both to the
//! exact per-sample bookkeeping they replaced.

use wlm_core::api::WlmBuilder;
use wlm_core::splitmix64;
use wlm_dbsim::metrics::{percentile, DurationHistogram};
use wlm_dbsim::plan::StatementType;
use wlm_dbsim::time::{SimDuration, SimTime};
use wlm_workload::generators::{AdHocSource, OltpSource};
use wlm_workload::mix::MixedSource;
use wlm_workload::request::{Importance, Origin};
use wlm_workload::trace::{CompletedQuery, QueryLog};

struct Draws(u64);

impl Draws {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = splitmix64(self.0);
        self.0 % n
    }

    /// Log-uniform over 1 µs … 2^34 µs (≈ 1.7 × 10⁴ s).
    fn duration_us(&mut self) -> u64 {
        let octave = self.below(34);
        (1 << octave) + self.below(1 << octave)
    }
}

fn histogram_of(samples: &[u64]) -> DurationHistogram {
    let mut h = DurationHistogram::default();
    for us in samples {
        h.record(SimDuration(*us));
    }
    h
}

/// Every tenth of a percent, so two histograms that agree here agree
/// bucket by bucket for all practical purposes.
fn percentile_grid() -> impl Iterator<Item = f64> {
    (0..=1_000).map(|tenths| f64::from(tenths) / 10.0)
}

#[test]
fn histogram_tracks_exact_nearest_rank_within_one_percent() {
    for seed in [1, 7, 42, 1_000_003] {
        let mut draws = Draws(seed);
        let samples: Vec<u64> = (0..50_000).map(|_| draws.duration_us()).collect();
        let h = histogram_of(&samples);

        let mut sorted: Vec<f64> = samples.iter().map(|us| *us as f64).collect();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(h.count(), 50_000);
        assert_eq!(h.sum_us(), samples.iter().sum::<u64>());
        assert_eq!(h.max_us() as f64, sorted[sorted.len() - 1]);
        assert_eq!(h.percentile_us(100.0), h.max_us(), "p100 is the exact max");
        for p in percentile_grid() {
            let exact = percentile(&sorted, p);
            let read = h.percentile_us(p) as f64;
            assert!(
                read >= exact && read <= exact * 1.01,
                "p{p}: read {read}, exact {exact} (seed {seed})"
            );
        }

        // A phase window is the difference of two cumulative snapshots.
        let cut = 1 + draws.below(49_998) as usize;
        let earlier = histogram_of(&samples[..cut]);
        let window = histogram_of(&samples[cut..]);
        let since = h.since(&earlier);
        assert_eq!(since.count(), window.count());
        assert_eq!(since.sum_us(), window.sum_us());
        assert!(since.max_us() >= window.max_us());
        assert!(since.max_us() as f64 <= window.max_us() as f64 * 1.01);
        for p in percentile_grid() {
            // Same buckets; only the clamp can differ, and only upwards.
            assert_eq!(
                since.percentile_us(p).min(window.max_us()),
                window.percentile_us(p),
                "p{p} of the window after sample {cut} (seed {seed})"
            );
        }
        // ...and `since` undoes `merge` exactly.
        let mut rejoined = earlier.clone();
        rejoined.merge(&since);
        assert_eq!(rejoined, h);

        // Merging is order-independent.
        let (a, rest) = samples.split_at(cut / 2);
        let (b, c) = rest.split_at(rest.len() / 3);
        let parts = [histogram_of(a), histogram_of(b), histogram_of(c)];
        for order in [[0, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let mut merged = DurationHistogram::default();
            for i in order {
                merged.merge(&parts[i]);
            }
            assert_eq!(merged, h, "merge order {order:?} (seed {seed})");
        }

        let bytes = serde_json::to_vec(&h).expect("histogram serializes");
        let back: DurationHistogram = serde_json::from_slice(&bytes).expect("own bytes parse");
        assert_eq!(back, h);
        assert_eq!(serde_json::to_vec(&back).expect("serializes"), bytes);
    }
}

const APPS: [&str; 3] = ["pos_terminal", "report_studio", "sql_console"];
const USERS: [&str; 2] = ["cashier", "analyst"];
const LABELS: [&str; 2] = ["oltp", "bi"];

#[test]
fn query_log_weighs_every_completion_and_ignores_unbounded_origins() {
    for seed in [1, 7, 42, 1_000_003] {
        let mut draws = Draws(seed);
        let mut log = QueryLog::new();
        let (mut responses, mut work) = (0u64, 0u64);
        for i in 0..50_000u64 {
            // Session ids and client addresses never repeat.
            let mut origin = Origin::new(
                APPS[draws.below(3) as usize],
                USERS[draws.below(2) as usize],
                i,
            );
            origin.client_ip = (i as u32).to_be_bytes();
            let q = CompletedQuery {
                arrival: SimTime(i),
                label: LABELS[draws.below(2) as usize],
                origin: &origin,
                statement: StatementType::Read,
                estimated_cost: 1.0,
                // Two octaves of work: eight quarter-octave bands.
                true_work_us: (1 << 20) + draws.below(3 << 20),
                response: SimDuration(draws.duration_us()),
                importance: Importance::ALL[draws.below(4) as usize],
            };
            responses += q.response.as_micros();
            work += q.true_work_us;
            log.record(q);
        }
        assert_eq!(log.len(), 50_000, "total weight is the completions");
        let templates: Vec<_> = log.templates().collect();
        assert_eq!(
            templates.len(),
            3 * 2 * 2 * 4 * 8,
            "the key space, seed {seed}"
        );
        assert_eq!(templates.iter().map(|t| t.weight).sum::<u64>(), 50_000);
        assert_eq!(
            templates.iter().map(|t| t.response_sum_us).sum::<u64>(),
            responses
        );
        assert_eq!(templates.iter().map(|t| t.work_sum_us).sum::<u64>(), work);
        for t in &templates {
            let rep = &t.representative;
            assert!(t.last_arrival >= rep.arrival, "the first member came first");
            // Members share the representative's quarter-octave band.
            let mean_work_us = t.work_sum_us as f64 / t.weight as f64;
            let ratio = mean_work_us / rep.true_work_us as f64;
            assert!(ratio > 0.8 && ratio < 1.25, "band ratio {ratio}");
        }

        let bytes = serde_json::to_vec(&log).expect("log serializes");
        let back: QueryLog = serde_json::from_slice(&bytes).expect("own bytes parse");
        assert_eq!(back, log);
        assert_eq!(serde_json::to_vec(&back).expect("serializes"), bytes);
    }
}

#[test]
fn query_log_folds_what_the_cap_turns_away_into_one_overflow_bucket() {
    let mut log = QueryLog::new();
    let extra = 88;
    let users: Vec<String> = (0..QueryLog::MAX_TEMPLATES + extra)
        .map(|i| format!("user{i:04}"))
        .collect();
    for round in 0..3 {
        for (i, user) in users.iter().enumerate() {
            let origin = Origin::new("app", user, 1);
            log.record(CompletedQuery {
                arrival: SimTime((round * users.len() + i) as u64),
                label: "w",
                origin: &origin,
                statement: StatementType::Read,
                estimated_cost: 1.0,
                true_work_us: 5_000,
                response: SimDuration::from_millis(2),
                importance: Importance::Medium,
            });
        }
    }
    assert_eq!(log.len(), 3 * users.len());
    assert_eq!(log.templates().count(), QueryLog::MAX_TEMPLATES + 1);
    let overflow = log
        .templates()
        .nth(QueryLog::MAX_TEMPLATES)
        .expect("the overflow bucket comes last");
    assert_eq!(overflow.weight, 3 * extra as u64);
    assert_eq!(
        overflow.representative.origin.user,
        users[QueryLog::MAX_TEMPLATES]
    );
    assert!(log
        .templates()
        .take(QueryLog::MAX_TEMPLATES)
        .all(|t| t.weight == 3));
}

#[test]
fn a_managed_run_logs_each_completion_once_into_a_handful_of_templates() {
    let mut mgr = WlmBuilder::new().build().expect("valid configuration");
    // Ad-hoc sessions are numbered without bound.
    let mut mix = MixedSource::new()
        .with(Box::new(OltpSource::new(40.0, 3)))
        .with(Box::new(AdHocSource::new(2.0, 4)));
    let report = mgr.run(&mut mix, SimDuration::from_secs(60));
    assert!(report.completed > 2_000, "completed {}", report.completed);
    assert_eq!(mgr.query_log().len() as u64, report.completed);
    let templates = mgr.query_log().templates().count();
    assert!(templates < 120, "{templates} templates");
    for w in &report.workloads {
        assert_eq!(w.stats.responses.count(), w.stats.completed);
        assert_eq!(w.stats.velocity_count, w.stats.completed);
    }
}
