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

/// Index of the log-linear bucket holding `value`: every value below
/// `2^(sub_bits + 1)` has a bucket of its own, and each octave above is cut
/// into `2^sub_bits` equal buckets, so a bucket is never wider than
/// `2^-sub_bits` of the values in it. Indices ascend with the values.
pub fn log_bucket(value: u64, sub_bits: u32) -> u32 {
    let octave = 63 - (value | 1).leading_zeros();
    if octave <= sub_bits {
        return value as u32;
    }
    let shift = octave - sub_bits;
    (shift << sub_bits) + (value >> shift) as u32
}

/// The largest value [`log_bucket`] maps to `index`.
fn log_bucket_upper(index: u32, sub_bits: u32) -> u64 {
    if index < (2 << sub_bits) {
        return u64::from(index);
    }
    let shift = (index >> sub_bits) - 1;
    let mantissa = u64::from(index & ((1 << sub_bits) - 1)) | (1 << sub_bits);
    (mantissa << shift) + ((1 << shift) - 1)
}

/// A fixed-size histogram of durations on integer microseconds, HDR-style:
/// [`log_bucket`]s at 128 per octave. Its size follows the *spread* of the
/// samples (a few hundred non-empty buckets for responses between a
/// millisecond and a minute), never their number.
///
/// `count`, `sum_us` (so the mean) and `max_us` are exact. A percentile is
/// reported as the upper edge of the bucket its nearest-rank sample fell
/// in, clamped to the exact maximum: never below the exact nearest-rank
/// value and less than 1 % (1/128) above it.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DurationHistogram {
    count: u64,
    sum_us: u64,
    max_us: u64,
    /// `(bucket index, samples)` of every non-empty bucket, ascending; grown
    /// on first sample, so an unused histogram owns no heap.
    buckets: Vec<(u32, u64)>,
}

impl DurationHistogram {
    const SUB_BITS: u32 = 7;

    /// Add one sample.
    pub fn record(&mut self, sample: SimDuration) {
        let us = sample.as_micros();
        self.count += 1;
        self.sum_us += us;
        self.max_us = self.max_us.max(us);
        self.add(log_bucket(us, Self::SUB_BITS), 1);
    }

    fn add(&mut self, index: u32, samples: u64) {
        match self.buckets.binary_search_by_key(&index, |b| b.0) {
            Ok(at) => self.buckets[at].1 += samples,
            Err(at) => self.buckets.insert(at, (index, samples)),
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of the samples, µs.
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Exact largest sample, µs (0 when empty).
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Exact mean, seconds (0 when empty).
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_us as f64 / self.count as f64 / 1e6
    }

    /// Nearest-rank percentile at bucket resolution, µs. `p` in `[0,100]`;
    /// 0 when empty, and `p = 100` is the exact maximum.
    pub fn percentile_us(&self, p: f64) -> u64 {
        let rank = (((p / 100.0) * self.count as f64).ceil() as u64).clamp(1, self.count.max(1));
        let mut seen = 0;
        for &(index, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return log_bucket_upper(index, Self::SUB_BITS).min(self.max_us);
            }
        }
        0
    }

    /// [`Self::percentile_us`] in seconds.
    pub fn percentile_secs(&self, p: f64) -> f64 {
        self.percentile_us(p) as f64 / 1e6
    }

    /// The [`SummaryStats`] of the recorded samples.
    pub fn summary(&self) -> SummaryStats {
        SummaryStats {
            count: self.count,
            mean: self.mean_secs(),
            p50: self.percentile_secs(50.0),
            p90: self.percentile_secs(90.0),
            p95: self.percentile_secs(95.0),
            p99: self.percentile_secs(99.0),
            max: self.max_us as f64 / 1e6,
        }
    }

    /// Fold `other`'s samples into this histogram.
    pub fn merge(&mut self, other: &DurationHistogram) {
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.max_us = self.max_us.max(other.max_us);
        for &(index, samples) in &other.buckets {
            self.add(index, samples);
        }
    }

    /// The samples recorded since `earlier`, an earlier snapshot of this
    /// same histogram: a phase window is the difference of two cumulative
    /// snapshots. Counts and sum are exact. The window's maximum is exact
    /// when the window raised it; otherwise it is the upper edge of the
    /// window's highest bucket, like any other percentile. (A snapshot that
    /// is not an ancestor saturates towards empty instead of panicking.)
    pub fn since(&self, earlier: &DurationHistogram) -> DurationHistogram {
        let mut buckets = self.buckets.clone();
        for &(index, samples) in &earlier.buckets {
            if let Ok(at) = buckets.binary_search_by_key(&index, |b| b.0) {
                buckets[at].1 = buckets[at].1.saturating_sub(samples);
            }
        }
        buckets.retain(|b| b.1 > 0);
        let max_us = if self.max_us > earlier.max_us {
            self.max_us
        } else {
            buckets.last().map_or(0, |&(index, _)| {
                log_bucket_upper(index, Self::SUB_BITS).min(self.max_us)
            })
        };
        DurationHistogram {
            count: buckets.iter().map(|b| b.1).sum(),
            sum_us: self.sum_us.saturating_sub(earlier.sum_us),
            max_us,
            buckets,
        }
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

/// Rolling engine metrics: the most recent closed intervals plus the one
/// being filled.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// Length of each measurement interval.
    pub interval: SimDuration,
    /// The last [`Self::RETAINED`] closed intervals, oldest first.
    closed: Vec<IntervalStats>,
    current: IntervalStats,
}

impl EngineMetrics {
    /// Closed intervals kept. The feedback controllers read the last two
    /// throughputs and the last three utilizations; nothing reads further
    /// back, and a run of any length must hold flat memory.
    pub const RETAINED: usize = 8;

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
            if self.closed.len() == Self::RETAINED {
                self.closed.remove(0);
            }
            self.closed.push(self.current);
            self.current = IntervalStats {
                start: next_start,
                ..Default::default()
            };
        }
    }

    /// The retained closed intervals (at most [`Self::RETAINED`]), oldest
    /// first.
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
    fn log_buckets_tile_the_integers_in_order() {
        for sub_bits in [2, 7] {
            // Small values get a bucket each; above that a bucket's upper
            // edge is where the next bucket starts, at every octave seam.
            let mut value = 0u64;
            let mut index = 0u32;
            while value < 1 << 40 {
                assert_eq!(log_bucket(value, sub_bits), index, "value {value}");
                let upper = log_bucket_upper(index, sub_bits);
                assert_eq!(log_bucket(upper, sub_bits), index, "upper edge {upper}");
                assert!(upper - value <= value >> sub_bits, "width at {value}");
                value = upper + 1;
                index += 1;
            }
        }
        assert_eq!(log_bucket_upper(log_bucket(u64::MAX, 7), 7), u64::MAX);
    }

    #[test]
    fn histogram_percentiles_are_upper_edges_clamped_to_the_max() {
        let mut h = DurationHistogram::default();
        assert_eq!(h.summary(), SummaryStats::default());
        assert_eq!(h.percentile_us(50.0), 0);
        // Below 256 µs every value has its own bucket: exact.
        for us in [30, 10, 20, 40] {
            h.record(SimDuration(us));
        }
        assert_eq!(h.percentile_us(50.0), 20);
        assert_eq!(h.percentile_us(75.0), 30);
        assert_eq!(h.percentile_us(0.0), 10);
        // 1 s falls in the bucket [999_424, 1_003_519].
        h.record(SimDuration::from_secs(1));
        assert_eq!(h.percentile_us(100.0), 1_000_000, "clamped to the max");
        h.record(SimDuration::from_secs(2));
        assert_eq!(h.percentile_us(80.0), 1_003_519, "the bucket's upper edge");
        let s = h.summary();
        assert_eq!((s.count, s.max), (6, 2.0));
        assert!((s.mean - 3_000_100.0 / 6.0 / 1e6).abs() < 1e-12);
    }

    #[test]
    fn histogram_window_is_the_difference_of_two_snapshots() {
        let mut h = DurationHistogram::default();
        h.record(SimDuration::from_millis(5));
        h.record(SimDuration::from_secs(3));
        let earlier = h.clone();
        let mut window = DurationHistogram::default();
        for ms in [7, 7, 900] {
            h.record(SimDuration::from_millis(ms));
            window.record(SimDuration::from_millis(ms));
        }
        let since = h.since(&earlier);
        assert_eq!(since.count(), 3);
        assert_eq!(since.sum_us(), 914_000);
        assert_eq!(since.percentile_us(50.0), window.percentile_us(50.0));
        // The window did not raise the maximum, so its own is known only
        // to its bucket.
        assert!(since.max_us() >= 900_000 && since.max_us() < 909_000);
        let mut merged = earlier.clone();
        merged.merge(&window);
        assert_eq!(merged, h);
        assert!(h.since(&h).is_empty());
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
    fn a_long_roll_retains_a_constant_tail() {
        let mut m = EngineMetrics::new(SimDuration::from_secs(1));
        for second in 1..=100_000u64 {
            for _ in 0..second % 7 {
                m.record_completion(SimDuration::from_millis(1));
            }
            m.maybe_roll(SimTime(second * 1_000_000));
            assert_eq!(
                m.intervals().len(),
                (second as usize).min(EngineMetrics::RETAINED)
            );
        }
        assert_eq!(m.intervals().last().unwrap().start, SimTime(99_999_000_000));
        assert_eq!(m.last_throughput(), (100_000 % 7) as f64);
        assert_eq!(m.prev_throughput(), (99_999 % 7) as f64);
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
