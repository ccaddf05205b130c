//! Retry budgets with exponential backoff and deterministic jitter.
//!
//! A killed or timed-out query is not necessarily lost: within its
//! workload's attempt budget it re-enters the wait queue after a backoff
//! that doubles per attempt. The jitter that de-synchronizes retries is
//! *deterministic* — a hash of `(seed, request id, attempt)` — so a run
//! with a fixed seed replays byte-identically, which the chaos determinism
//! tests rely on.

use crate::splitmix64;
use serde::Serialize;
use wlm_dbsim::time::SimDuration;
use wlm_workload::request::RequestId;

/// Retry policy for one workload (or the whole system).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RetryPolicy {
    /// Maximum retry attempts per request beyond its first run.
    pub max_attempts: u32,
    /// Backoff before the first retry, seconds.
    pub base_backoff_secs: f64,
    /// Backoff ceiling, seconds.
    pub max_backoff_secs: f64,
    /// Backoff growth per attempt (2.0 = doubling).
    pub multiplier: f64,
    /// Jitter as a fraction of the backoff (0.2 = ±20%).
    pub jitter_frac: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_secs: 0.25,
            max_backoff_secs: 4.0,
            multiplier: 2.0,
            jitter_frac: 0.2,
        }
    }
}

impl RetryPolicy {
    /// A generous budget with fast initial backoff — suits short
    /// interactive queries that should survive a fault window.
    pub fn aggressive() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_backoff_secs: 0.25,
            max_backoff_secs: 4.0,
            multiplier: 2.0,
            jitter_frac: 0.2,
        }
    }

    /// The backoff before retry number `attempt` (1-based) of `request`,
    /// jittered deterministically from `seed`.
    pub fn backoff(&self, attempt: u32, seed: u64, request: RequestId) -> SimDuration {
        let exp = attempt.saturating_sub(1).min(30);
        let raw = self.base_backoff_secs * self.multiplier.powi(exp as i32);
        let capped = raw.min(self.max_backoff_secs).max(0.0);
        // Map a mixed hash into [1 - jitter, 1 + jitter].
        let h =
            splitmix64(seed ^ request.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(attempt));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        let jitter = 1.0 + self.jitter_frac.clamp(0.0, 1.0) * (2.0 * unit - 1.0);
        SimDuration::from_secs_f64((capped * jitter).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            jitter_frac: 0.0,
            ..Default::default()
        };
        let b1 = p.backoff(1, 0, RequestId(1)).as_secs_f64();
        let b2 = p.backoff(2, 0, RequestId(1)).as_secs_f64();
        let b3 = p.backoff(3, 0, RequestId(1)).as_secs_f64();
        let b9 = p.backoff(9, 0, RequestId(1)).as_secs_f64();
        assert!((b1 - 0.25).abs() < 1e-9);
        assert!((b2 - 0.5).abs() < 1e-9);
        assert!((b3 - 1.0).abs() < 1e-9);
        assert!((b9 - 4.0).abs() < 1e-9, "capped at max_backoff: {b9}");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        let a = p.backoff(2, 42, RequestId(7));
        let b = p.backoff(2, 42, RequestId(7));
        assert_eq!(a, b, "same inputs, same backoff");
        let c = p.backoff(2, 43, RequestId(7));
        let base = 0.5;
        for d in [a, c] {
            let secs = d.as_secs_f64();
            assert!(
                (base * 0.8..=base * 1.2).contains(&secs),
                "jitter stays within ±20%: {secs}"
            );
        }
        // Different requests de-synchronize.
        let spread: Vec<u64> = (0..16)
            .map(|i| p.backoff(2, 42, RequestId(i)).as_micros())
            .collect();
        let distinct: std::collections::BTreeSet<_> = spread.iter().collect();
        assert!(distinct.len() > 8, "jitter spreads retries: {spread:?}");
    }
}
