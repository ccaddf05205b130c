//! Adaptive admission backpressure: tighten the door before queues go
//! metastable.
//!
//! Classic admission control in this repo is threshold-based (reject when
//! a static limit is crossed). Under a flash crowd that is too late: by
//! the time the queue hits a hard limit, every queued request is already
//! destined to miss its SLA and — with retries enabled — to come back as
//! even more load. [`BackpressureGate`] is the CoDel-flavoured
//! alternative: it tracks an EWMA of queue depth (a standing-queue proxy
//! for queueing delay) and, whenever the smoothed depth sits above target
//! *while goodput is no longer rising*, multiplicatively shrinks the
//! fraction of fresh arrivals admitted. When the standing queue drains
//! back below target the gate relaxes additively toward fully open —
//! AIMD, so the door reopens gently rather than re-admitting the crowd
//! at once.
//!
//! The gate only judges *fresh* arrivals: deferred requests and matured
//! retries already passed the door once (retries are governed separately
//! by the retry-budget token bucket in
//! [`ResilienceLayer`](super::ResilienceLayer)). Which arrivals pass is
//! decided by a deterministic per-request hash, so a run is byte-identical
//! for a given seed regardless of wall-clock scheduling.

use crate::splitmix64;
use serde::{Deserialize, Serialize};
use wlm_workload::request::RequestId;

/// Tuning for the adaptive admission gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackpressureConfig {
    /// EWMA queue depth above which the door starts tightening (the
    /// CoDel "target": a standing queue longer than this is treated as
    /// excess delay, not burst absorption).
    pub queue_target: f64,
    /// EWMA smoothing factor for the queue-depth signal.
    pub ema_alpha: f64,
    /// Control cycles between gate adjustments.
    pub eval_cycles: u32,
    /// Multiplicative decrease applied to the admit fraction per
    /// tightening step.
    pub tighten_step: f64,
    /// Additive increase applied to the admit fraction per relaxing step.
    pub relax_step: f64,
    /// Floor on the admit fraction — the door never shuts completely.
    pub min_admit_fraction: f64,
}

impl Default for BackpressureConfig {
    fn default() -> Self {
        BackpressureConfig {
            queue_target: 48.0,
            ema_alpha: 0.2,
            eval_cycles: 10,
            tighten_step: 0.25,
            relax_step: 0.1,
            min_admit_fraction: 0.1,
        }
    }
}

/// The live gate state: smoothed queue signal plus the current admit
/// fraction.
#[derive(Debug, Clone)]
pub struct BackpressureGate {
    cfg: BackpressureConfig,
    ema_queue: f64,
    cycles_since_eval: u32,
    admit_fraction: f64,
    tighten_steps: u64,
    sheds: u64,
}

impl BackpressureGate {
    /// A fully open gate.
    pub fn new(cfg: BackpressureConfig) -> Self {
        BackpressureGate {
            cfg,
            ema_queue: 0.0,
            cycles_since_eval: 0,
            admit_fraction: 1.0,
            tighten_steps: 0,
            sheds: 0,
        }
    }

    /// Feed one control cycle's queue depth and goodput gradient. Every
    /// `eval_cycles` the gate re-judges the door; returns
    /// `(from, to)` admit fractions when the setting changed.
    pub fn observe(&mut self, queued: usize, goodput_rising: bool) -> Option<(f64, f64)> {
        let alpha = self.cfg.ema_alpha.clamp(0.0, 1.0);
        self.ema_queue = alpha * queued as f64 + (1.0 - alpha) * self.ema_queue;
        self.cycles_since_eval += 1;
        if self.cycles_since_eval < self.cfg.eval_cycles.max(1) {
            return None;
        }
        self.cycles_since_eval = 0;
        let from = self.admit_fraction;
        if self.ema_queue > self.cfg.queue_target && !goodput_rising {
            // Standing queue above target and goodput flat or falling:
            // more admissions only deepen the queue. Tighten.
            self.admit_fraction = (self.admit_fraction * (1.0 - self.cfg.tighten_step))
                .max(self.cfg.min_admit_fraction.clamp(0.0, 1.0));
            if self.admit_fraction < from {
                self.tighten_steps += 1;
            }
        } else if self.ema_queue <= self.cfg.queue_target {
            self.admit_fraction = (self.admit_fraction + self.cfg.relax_step).min(1.0);
        }
        (self.admit_fraction != from).then_some((from, self.admit_fraction))
    }

    /// Whether this fresh arrival passes the door. Deterministic: the
    /// verdict depends only on the seed, the request id, and the current
    /// admit fraction.
    pub fn admits(&mut self, seed: u64, id: RequestId) -> bool {
        if self.admit_fraction >= 1.0 {
            return true;
        }
        let draw = splitmix64(seed ^ id.0.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // Top 53 bits -> uniform in [0, 1).
        let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
        if unit < self.admit_fraction {
            true
        } else {
            self.sheds += 1;
            false
        }
    }

    /// The configuration this gate was built with.
    pub fn config(&self) -> &BackpressureConfig {
        &self.cfg
    }

    /// Current admit fraction (1.0 = door fully open).
    pub fn admit_fraction(&self) -> f64 {
        self.admit_fraction
    }

    /// Smoothed queue-depth signal.
    pub fn queue_ema(&self) -> f64 {
        self.ema_queue
    }

    /// Tightening steps taken over the run.
    pub fn tighten_steps(&self) -> u64 {
        self.tighten_steps
    }

    /// Fresh arrivals shed at the door over the run.
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// Serializable snapshot of the gate's runtime state (configuration
    /// excluded — the restarted controller re-installs it).
    pub fn checkpoint(&self) -> BackpressureCheckpoint {
        BackpressureCheckpoint {
            ema_queue: self.ema_queue,
            cycles_since_eval: self.cycles_since_eval,
            admit_fraction: self.admit_fraction,
            tighten_steps: self.tighten_steps,
            sheds: self.sheds,
        }
    }

    /// Replace the gate's runtime state with a checkpointed one, keeping
    /// the current configuration.
    pub fn restore(&mut self, ckpt: &BackpressureCheckpoint) {
        self.ema_queue = ckpt.ema_queue;
        self.cycles_since_eval = ckpt.cycles_since_eval;
        self.admit_fraction = ckpt.admit_fraction.clamp(0.0, 1.0);
        self.tighten_steps = ckpt.tighten_steps;
        self.sheds = ckpt.sheds;
    }
}

/// Serializable runtime state of a [`BackpressureGate`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BackpressureCheckpoint {
    /// Smoothed queue-depth signal.
    pub ema_queue: f64,
    /// Cycles since the last gate adjustment.
    pub cycles_since_eval: u32,
    /// Current admit fraction.
    pub admit_fraction: f64,
    /// Tightening steps so far.
    pub tighten_steps: u64,
    /// Fresh arrivals shed at the door so far.
    pub sheds: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> BackpressureConfig {
        BackpressureConfig {
            queue_target: 10.0,
            ema_alpha: 0.5,
            eval_cycles: 2,
            tighten_step: 0.5,
            relax_step: 0.25,
            min_admit_fraction: 0.2,
        }
    }

    #[test]
    fn tightens_under_standing_queue_and_relaxes_when_it_drains() {
        let mut gate = BackpressureGate::new(quick());
        // Deep queue, goodput flat: the door tightens multiplicatively.
        let mut steps = Vec::new();
        for _ in 0..6 {
            if let Some(step) = gate.observe(100, false) {
                steps.push(step);
            }
        }
        assert_eq!(steps.len(), 3, "one adjustment per eval window");
        assert!(gate.admit_fraction() < 0.3);
        assert!(gate.tighten_steps() >= 2);
        // Queue drains: the door relaxes additively back to fully open.
        for _ in 0..20 {
            gate.observe(0, true);
        }
        assert_eq!(gate.admit_fraction(), 1.0);
    }

    #[test]
    fn goodput_still_rising_defers_tightening() {
        let mut gate = BackpressureGate::new(quick());
        for _ in 0..10 {
            gate.observe(100, true);
        }
        assert_eq!(
            gate.admit_fraction(),
            1.0,
            "a deep queue with rising goodput is a burst being absorbed, not metastability"
        );
    }

    #[test]
    fn admit_fraction_floors_and_gate_is_deterministic() {
        let mut gate = BackpressureGate::new(quick());
        for _ in 0..100 {
            gate.observe(1_000, false);
        }
        assert_eq!(gate.admit_fraction(), 0.2, "floored at min_admit_fraction");
        let verdicts: Vec<bool> = (0..64).map(|i| gate.admits(7, RequestId(i))).collect();
        let mut replay = BackpressureGate::new(quick());
        for _ in 0..100 {
            replay.observe(1_000, false);
        }
        let again: Vec<bool> = (0..64).map(|i| replay.admits(7, RequestId(i))).collect();
        assert_eq!(verdicts, again, "verdicts are a pure function of seed+id");
        let admitted = verdicts.iter().filter(|v| **v).count();
        assert!(
            admitted > 0 && admitted < 40,
            "roughly the admit fraction passes"
        );
        assert_eq!(gate.sheds(), (64 - admitted) as u64);
    }

    #[test]
    fn checkpoint_round_trips() {
        let mut gate = BackpressureGate::new(quick());
        for _ in 0..9 {
            gate.observe(50, false);
        }
        gate.admits(3, RequestId(1));
        let ckpt = gate.checkpoint();
        let mut restored = BackpressureGate::new(quick());
        restored.restore(&ckpt);
        assert_eq!(restored.checkpoint(), ckpt, "round trip is lossless");
        assert_eq!(gate.observe(50, false), restored.observe(50, false));
    }
}
