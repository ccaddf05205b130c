//! Service-level agreements and their evaluation.
//!
//! Performance objectives are "normally derived from a formal service level
//! agreement" and "described in averages or percentiles, such as the average
//! response time of transactions in an OLTP workload, or x% queries in a
//! workload complete in y time units or less". This module expresses those
//! objective forms — plus *request execution velocity* (the ratio of
//! expected execution time to total time in system) — and evaluates them
//! against measured samples.

use serde::{Deserialize, Serialize};
use wlm_dbsim::metrics::DurationHistogram;

/// One performance objective.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PerformanceObjective {
    /// Mean response time must not exceed `target_secs`.
    AvgResponseTime {
        /// Goal, seconds.
        target_secs: f64,
    },
    /// `percent`% of requests must complete within `target_secs`.
    Percentile {
        /// The x in "x% within y" (0–100).
        percent: f64,
        /// The y in "x% within y", seconds.
        target_secs: f64,
    },
    /// Mean execution velocity (expected execution time / actual time in
    /// system, in `(0, 1]`) must be at least `min_velocity`.
    Velocity {
        /// Goal velocity in `(0, 1]`.
        min_velocity: f64,
    },
    /// Completions per second must be at least `min_per_sec`.
    Throughput {
        /// Goal throughput.
        min_per_sec: f64,
    },
}

impl PerformanceObjective {
    /// Short description for reports.
    pub fn describe(&self) -> String {
        match self {
            PerformanceObjective::AvgResponseTime { target_secs } => {
                format!("avg response <= {target_secs}s")
            }
            PerformanceObjective::Percentile {
                percent,
                target_secs,
            } => format!("{percent}% within {target_secs}s"),
            PerformanceObjective::Velocity { min_velocity } => {
                format!("velocity >= {min_velocity}")
            }
            PerformanceObjective::Throughput { min_per_sec } => {
                format!("throughput >= {min_per_sec}/s")
            }
        }
    }
}

/// The SLA of one workload: a set of objectives. (Business importance lives
/// on the workload definition; the SLA holds only measurable goals.)
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ServiceLevelAgreement {
    /// All objectives; the SLA is met when every one is.
    pub objectives: Vec<PerformanceObjective>,
}

impl ServiceLevelAgreement {
    /// An SLA with a single average-response-time goal.
    pub fn avg_response(target_secs: f64) -> Self {
        ServiceLevelAgreement {
            objectives: vec![PerformanceObjective::AvgResponseTime { target_secs }],
        }
    }

    /// An SLA with a single percentile goal.
    pub fn percentile(percent: f64, target_secs: f64) -> Self {
        ServiceLevelAgreement {
            objectives: vec![PerformanceObjective::Percentile {
                percent,
                target_secs,
            }],
        }
    }

    /// An SLA with a single velocity goal.
    pub fn velocity(min_velocity: f64) -> Self {
        ServiceLevelAgreement {
            objectives: vec![PerformanceObjective::Velocity { min_velocity }],
        }
    }

    /// A no-goal SLA (non-goal workloads: best effort).
    pub fn best_effort() -> Self {
        ServiceLevelAgreement::default()
    }

    /// Whether this SLA carries any objective.
    pub fn has_goals(&self) -> bool {
        !self.objectives.is_empty()
    }

    /// Evaluate the SLA against measurements.
    ///
    /// * `responses` — response times (arrival to completion); percentile
    ///   goals are judged at the histogram's resolution, which reads at
    ///   most 1 % above the exact sample and never below it;
    /// * `mean_velocity` — mean per-request execution velocity, `None`
    ///   when nothing was measured (a velocity goal is then not met);
    /// * `elapsed_secs` — measurement-window length, for throughput goals.
    pub fn evaluate(
        &self,
        responses: &DurationHistogram,
        mean_velocity: Option<f64>,
        elapsed_secs: f64,
    ) -> SlaEvaluation {
        let results = self
            .objectives
            .iter()
            .map(|obj| {
                let (met, measured) = match *obj {
                    PerformanceObjective::AvgResponseTime { target_secs } => {
                        let measured = responses.mean_secs();
                        (!responses.is_empty() && measured <= target_secs, measured)
                    }
                    PerformanceObjective::Percentile {
                        percent,
                        target_secs,
                    } => {
                        let measured = responses.percentile_secs(percent);
                        (!responses.is_empty() && measured <= target_secs, measured)
                    }
                    PerformanceObjective::Velocity { min_velocity } => {
                        let mean = mean_velocity.unwrap_or(0.0);
                        (mean_velocity.is_some() && mean >= min_velocity, mean)
                    }
                    PerformanceObjective::Throughput { min_per_sec } => {
                        let measured = if elapsed_secs > 0.0 {
                            responses.count() as f64 / elapsed_secs
                        } else {
                            0.0
                        };
                        (measured >= min_per_sec, measured)
                    }
                };
                ObjectiveResult {
                    objective: *obj,
                    met,
                    measured,
                }
            })
            .collect();
        SlaEvaluation { results }
    }
}

/// Measured outcome of one objective.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveResult {
    /// The objective evaluated.
    pub objective: PerformanceObjective,
    /// Whether it was met.
    pub met: bool,
    /// The measured value compared against the goal (seconds, velocity or
    /// per-second rate depending on the objective kind).
    pub measured: f64,
}

/// Outcome of evaluating a full SLA.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SlaEvaluation {
    /// Per-objective outcomes.
    pub results: Vec<ObjectiveResult>,
}

impl SlaEvaluation {
    /// The SLA is met when every objective is (vacuously true for no-goal
    /// workloads).
    pub fn met(&self) -> bool {
        self.results.iter().all(|r| r.met)
    }
}

/// Request execution velocity: `expected execution time / actual time in
/// system`. Close to 1 means negligible delay; close to 0 means the request
/// spent most of its life waiting. The expected time comes from historical
/// observations in the system's steady state.
pub fn velocity(expected_exec_secs: f64, actual_total_secs: f64) -> f64 {
    if actual_total_secs <= 0.0 {
        return 1.0;
    }
    (expected_exec_secs / actual_total_secs).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlm_dbsim::time::SimDuration;

    fn responses(secs: &[f64]) -> DurationHistogram {
        let mut h = DurationHistogram::default();
        for s in secs {
            h.record(SimDuration::from_secs_f64(*s));
        }
        h
    }

    #[test]
    fn avg_response_objective() {
        let sla = ServiceLevelAgreement::avg_response(1.0);
        assert!(sla.evaluate(&responses(&[0.5, 0.9, 1.1]), None, 10.0).met());
        assert!(!sla.evaluate(&responses(&[2.0, 2.0]), None, 10.0).met());
        // No samples: a goal with nothing measured is not met.
        assert!(!sla.evaluate(&responses(&[]), None, 10.0).met());
    }

    #[test]
    fn percentile_objective() {
        let sla = ServiceLevelAgreement::percentile(90.0, 1.0);
        let mostly_fast: Vec<f64> = (0..100).map(|i| if i < 95 { 0.5 } else { 5.0 }).collect();
        assert!(sla.evaluate(&responses(&mostly_fast), None, 10.0).met());
        let mostly_slow: Vec<f64> = (0..100).map(|i| if i < 50 { 0.5 } else { 5.0 }).collect();
        assert!(!sla.evaluate(&responses(&mostly_slow), None, 10.0).met());
    }

    #[test]
    fn velocity_objective_and_helper() {
        assert!((velocity(1.0, 4.0) - 0.25).abs() < 1e-9);
        assert_eq!(velocity(2.0, 1.0), 1.0, "clamped at 1");
        assert_eq!(velocity(1.0, 0.0), 1.0);
        let sla = ServiceLevelAgreement::velocity(0.5);
        let none = responses(&[]);
        assert!(sla.evaluate(&none, Some(0.65), 1.0).met());
        assert!(!sla.evaluate(&none, Some(0.15), 1.0).met());
        assert!(!sla.evaluate(&none, None, 1.0).met());
    }

    #[test]
    fn throughput_objective() {
        let sla = ServiceLevelAgreement {
            objectives: vec![PerformanceObjective::Throughput { min_per_sec: 2.0 }],
        };
        let thirty = responses(&[0.1; 30]);
        assert!(sla.evaluate(&thirty, None, 10.0).met());
        assert!(!sla.evaluate(&thirty, None, 100.0).met());
    }

    #[test]
    fn best_effort_is_vacuously_met() {
        let sla = ServiceLevelAgreement::best_effort();
        assert!(!sla.has_goals());
        assert!(sla.evaluate(&responses(&[]), None, 0.0).met());
    }

    #[test]
    fn combined_objectives_require_all() {
        let sla = ServiceLevelAgreement {
            objectives: vec![
                PerformanceObjective::AvgResponseTime { target_secs: 1.0 },
                PerformanceObjective::Throughput { min_per_sec: 100.0 },
            ],
        };
        let eval = sla.evaluate(&responses(&[0.1, 0.1]), None, 10.0);
        assert!(eval.results[0].met);
        assert!(!eval.results[1].met);
        assert!(!eval.met());
    }

    #[test]
    fn describe_is_informative() {
        assert!(ServiceLevelAgreement::percentile(90.0, 2.0).objectives[0]
            .describe()
            .contains("90"));
    }
}
