//! Per-workload performance accounting and SLA reporting.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use wlm_dbsim::metrics::{DurationHistogram, SummaryStats};
use wlm_dbsim::time::SimTime;
use wlm_workload::sla::{ServiceLevelAgreement, SlaEvaluation};

/// Accumulated outcomes for one workload. Fixed-size: its footprint does
/// not grow with the number of requests served.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkloadStats {
    /// Response times (arrival → completion).
    pub responses: DurationHistogram,
    /// Sum of the execution-velocity samples.
    pub velocity_sum: f64,
    /// Number of execution-velocity samples.
    pub velocity_count: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests killed (and not resubmitted).
    pub killed: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Kill-and-resubmit events.
    pub resubmitted: u64,
    /// Suspension events.
    pub suspended: u64,
    /// Suspend/resume overhead paid by this workload's requests that have
    /// left the system (completed, been killed, or moved to their next
    /// chained piece), µs.
    #[serde(default)]
    pub suspend_overhead_us: u64,
}

impl WorkloadStats {
    /// Response-time summary (percentiles at histogram resolution).
    pub fn summary(&self) -> SummaryStats {
        self.responses.summary()
    }

    /// Mean velocity (1.0 if no samples).
    pub fn mean_velocity(&self) -> f64 {
        self.measured_velocity().unwrap_or(1.0)
    }

    fn measured_velocity(&self) -> Option<f64> {
        (self.velocity_count > 0).then(|| self.velocity_sum / self.velocity_count as f64)
    }
}

/// `map[key]`, default-inserted first if absent. The key is cloned only
/// then: the per-completion look-ups almost always hit.
pub(crate) fn slot<'a, V: Default>(map: &'a mut BTreeMap<String, V>, key: &str) -> &'a mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), V::default());
    }
    map.get_mut(key).expect("present or just inserted")
}

/// SLA outcome for one workload over a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: String,
    /// Outcome counts and samples.
    pub stats: WorkloadStats,
    /// Response summary.
    pub summary: SummaryStats,
    /// SLA evaluation (empty SLA evaluates as met).
    pub sla: SlaEvaluation,
}

/// The book of per-workload stats for a run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StatsBook {
    workloads: BTreeMap<String, WorkloadStats>,
    /// When accounting started.
    pub started: SimTime,
}

impl StatsBook {
    /// Fresh book starting at `started`.
    pub fn new(started: SimTime) -> Self {
        StatsBook {
            workloads: BTreeMap::new(),
            started,
        }
    }

    /// Mutable stats for a workload (created on first touch).
    pub fn entry(&mut self, workload: &str) -> &mut WorkloadStats {
        slot(&mut self.workloads, workload)
    }

    /// Stats for a workload, if any were recorded.
    pub fn get(&self, workload: &str) -> Option<&WorkloadStats> {
        self.workloads.get(workload)
    }

    /// All workload names seen.
    pub fn workloads(&self) -> impl Iterator<Item = &str> {
        self.workloads.keys().map(String::as_str)
    }

    /// Build per-workload reports, evaluating each against the SLA
    /// `sla_of` finds for it (none evaluates as met).
    pub fn report<'a>(
        &self,
        sla_of: impl Fn(&str) -> Option<&'a ServiceLevelAgreement>,
        now: SimTime,
    ) -> Vec<WorkloadReport> {
        let elapsed = now.since(self.started).as_secs_f64();
        self.workloads
            .iter()
            .map(|(name, stats)| WorkloadReport {
                workload: name.clone(),
                summary: stats.summary(),
                sla: sla_of(name).map_or_else(SlaEvaluation::default, |sla| {
                    sla.evaluate(&stats.responses, stats.measured_velocity(), elapsed)
                }),
                stats: stats.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlm_dbsim::time::SimDuration;

    #[test]
    fn entry_accumulates_and_reports() {
        let mut book = StatsBook::new(SimTime::ZERO);
        {
            let s = book.entry("oltp");
            for ms in [100, 200, 300] {
                s.responses.record(SimDuration::from_millis(ms));
            }
            s.completed = 3;
        }
        book.entry("bi").rejected = 2;

        let oltp_sla = ServiceLevelAgreement::avg_response(1.0);
        let reports = book.report(
            |name| (name == "oltp").then_some(&oltp_sla),
            SimTime(10_000_000),
        );
        assert_eq!(reports.len(), 2);
        let oltp = reports.iter().find(|r| r.workload == "oltp").unwrap();
        assert!(oltp.sla.met());
        assert_eq!(oltp.summary.count, 3);
        let bi = reports.iter().find(|r| r.workload == "bi").unwrap();
        assert!(bi.sla.met(), "no-goal workload is vacuously met");
        assert_eq!(bi.stats.rejected, 2);
    }

    #[test]
    fn mean_velocity_defaults_to_one() {
        let s = WorkloadStats::default();
        assert_eq!(s.mean_velocity(), 1.0);
        let s2 = WorkloadStats {
            velocity_sum: 0.2 + 0.4,
            velocity_count: 2,
            ..Default::default()
        };
        assert!((s2.mean_velocity() - 0.3).abs() < 1e-9);
    }
}
