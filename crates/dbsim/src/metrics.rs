//! Engine monitor surface: interval statistics and response-time summaries.
//!
//! The workload-management literature surveyed by the paper drives its
//! controls off monitor metrics — throughput over recent intervals
//! (Heiss & Wagner), response times vs. objectives, utilization and queue
//! indicators (Zhang et al.). This module records them.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Summary statistics over a set of duration samples.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SummaryStats {
    /// Number of samples.
    pub count: u64,
    /// Mean, seconds.
    pub mean: f64,
    /// Median, seconds.
    pub p50: f64,
    /// 90th percentile, seconds.
    pub p90: f64,
    /// 95th percentile, seconds.
    pub p95: f64,
    /// 99th percentile, seconds.
    pub p99: f64,
    /// Maximum, seconds.
    pub max: f64,
}

/// Nearest-rank percentile of a **sorted ascending** slice. `p` in `[0,100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Compute [`SummaryStats`] from unsorted duration samples (seconds).
pub fn summarize(samples: &[f64]) -> SummaryStats {
    if samples.is_empty() {
        return SummaryStats::default();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    SummaryStats {
        count: sorted.len() as u64,
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        p50: percentile(&sorted, 50.0),
        p90: percentile(&sorted, 90.0),
        p95: percentile(&sorted, 95.0),
        p99: percentile(&sorted, 99.0),
        max: *sorted.last().unwrap(),
    }
}

/// Statistics for one measurement interval.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct IntervalStats {
    /// Interval start time.
    pub start: SimTime,
    /// Queries completed in the interval.
    pub completed: u64,
    /// Queries killed in the interval.
    pub killed: u64,
    /// CPU microseconds actually consumed.
    pub cpu_used_us: u64,
    /// CPU microseconds offered (cores × interval).
    pub cpu_capacity_us: u64,
    /// Disk pages actually read/written.
    pub io_used_pages: u64,
    /// Disk pages the device could have served.
    pub io_capacity_pages: u64,
    /// Sum of response times of completions in the interval, µs.
    pub resp_sum_us: u64,
}

impl IntervalStats {
    /// Completions per second over the interval of the given length.
    pub fn throughput(&self, interval: SimDuration) -> f64 {
        if interval.as_micros() == 0 {
            return 0.0;
        }
        self.completed as f64 / interval.as_secs_f64()
    }

    /// CPU utilization in `[0, 1]`.
    pub fn cpu_utilization(&self) -> f64 {
        if self.cpu_capacity_us == 0 {
            return 0.0;
        }
        self.cpu_used_us as f64 / self.cpu_capacity_us as f64
    }

    /// Disk utilization in `[0, 1]`.
    pub fn io_utilization(&self) -> f64 {
        if self.io_capacity_pages == 0 {
            return 0.0;
        }
        self.io_used_pages as f64 / self.io_capacity_pages as f64
    }
}

/// Rolling engine metrics: closed intervals plus the one being filled.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// Length of each measurement interval.
    pub interval: SimDuration,
    closed: Vec<IntervalStats>,
    current: IntervalStats,
}

impl EngineMetrics {
    /// New metrics with the given interval length.
    pub fn new(interval: SimDuration) -> Self {
        EngineMetrics {
            interval,
            closed: Vec::new(),
            current: IntervalStats::default(),
        }
    }

    /// Record a completed query's response time.
    pub fn record_completion(&mut self, response: SimDuration) {
        self.current.completed += 1;
        self.current.resp_sum_us += response.as_micros();
    }

    /// Record a killed query.
    pub fn record_kill(&mut self) {
        self.current.killed += 1;
    }

    /// Record one quantum's resource usage.
    pub fn record_usage(&mut self, cpu_used: u64, cpu_cap: u64, io_used: u64, io_cap: u64) {
        self.current.cpu_used_us += cpu_used;
        self.current.cpu_capacity_us += cpu_cap;
        self.current.io_used_pages += io_used;
        self.current.io_capacity_pages += io_cap;
    }

    /// Close the current interval if `now` has passed its end. Call once per
    /// quantum with the new clock.
    pub fn maybe_roll(&mut self, now: SimTime) {
        while now.since(self.current.start) >= self.interval {
            let next_start = self.current.start + self.interval;
            self.closed.push(self.current);
            self.current = IntervalStats {
                start: next_start,
                ..Default::default()
            };
        }
    }

    /// All closed intervals, oldest first.
    pub fn intervals(&self) -> &[IntervalStats] {
        &self.closed
    }

    /// Throughput of the most recently closed interval, completions/second.
    pub fn last_throughput(&self) -> f64 {
        self.closed
            .last()
            .map_or(0.0, |i| i.throughput(self.interval))
    }

    /// Throughput of the interval before the last (for feedback deltas).
    pub fn prev_throughput(&self) -> f64 {
        if self.closed.len() < 2 {
            return 0.0;
        }
        self.closed[self.closed.len() - 2].throughput(self.interval)
    }

    /// Mean CPU utilization over the last `n` closed intervals.
    pub fn recent_cpu_utilization(&self, n: usize) -> f64 {
        let tail = &self.closed[self.closed.len().saturating_sub(n)..];
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().map(IntervalStats::cpu_utilization).sum::<f64>() / tail.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 75.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn summarize_basic() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(s.count, 3);
        assert!((s.mean - 2.0).abs() < 1e-9);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(summarize(&[]).count, 0);
    }

    #[test]
    fn intervals_roll_on_time() {
        let mut m = EngineMetrics::new(SimDuration::from_secs(1));
        m.record_completion(SimDuration::from_millis(100));
        m.maybe_roll(SimTime(500_000));
        assert!(m.intervals().is_empty(), "not yet a full interval");
        m.maybe_roll(SimTime(1_000_000));
        assert_eq!(m.intervals().len(), 1);
        assert_eq!(m.intervals()[0].completed, 1);
        assert!((m.last_throughput() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn roll_skips_empty_gaps() {
        let mut m = EngineMetrics::new(SimDuration::from_secs(1));
        m.maybe_roll(SimTime(3_500_000));
        assert_eq!(m.intervals().len(), 3);
        assert_eq!(m.intervals()[2].start, SimTime(2_000_000));
    }

    #[test]
    fn utilization_accumulates() {
        let mut m = EngineMetrics::new(SimDuration::from_secs(1));
        m.record_usage(50, 100, 10, 100);
        m.record_usage(30, 100, 0, 100);
        m.maybe_roll(SimTime(1_000_000));
        let i = m.intervals()[0];
        assert!((i.cpu_utilization() - 0.4).abs() < 1e-9);
        assert!((i.io_utilization() - 0.05).abs() < 1e-9);
        assert!((m.recent_cpu_utilization(5) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn throughput_feedback_pair() {
        let mut m = EngineMetrics::new(SimDuration::from_secs(1));
        m.record_completion(SimDuration::from_millis(1));
        m.maybe_roll(SimTime(1_000_000));
        m.record_completion(SimDuration::from_millis(1));
        m.record_completion(SimDuration::from_millis(1));
        m.maybe_roll(SimTime(2_000_000));
        assert!((m.prev_throughput() - 1.0).abs() < 1e-9);
        assert!((m.last_throughput() - 2.0).abs() < 1e-9);
    }
}
