//! The simulated link layer between the cluster front-end and the shard
//! inboxes.
//!
//! PR 4's fabric was a perfect, instantaneous network: the front-end
//! pushed routed requests straight into shard inboxes. This module makes
//! the fabric a first-class failure domain. Every routed request becomes
//! an enveloped message with a monotonically-assigned [`MsgId`]; the link
//! applies a deterministic per-seed model of delay, jitter, loss,
//! duplication and full partition windows; delivery is acknowledged back
//! to the front-end, which retransmits whatever stays unacknowledged past
//! the retransmit timeout. Shards deduplicate redeliveries by `MsgId`
//! (see [`InboxSource::accept`](crate::inbox::InboxSource::accept)), so
//! at-least-once transport composes into exactly-once ingestion.
//!
//! The link also carries the failure detector's evidence: the front-end
//! pings every shard each control cycle, and pong/ack round-trip times
//! feed [`FailureDetector`](crate::detector::FailureDetector).
//!
//! Everything is deterministic: per-shard seeded RNGs drawn in a fixed
//! order, and all in-flight traffic kept in `BTreeMap`s keyed by
//! `(due-time, sequence)`. Same seed, same message history, byte for
//! byte. The default [`LinkConfig`] is a *perfect* link — zero delay,
//! zero loss — under which a cluster run is tick-for-tick identical to
//! the direct-push fabric it replaces.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::BTreeMap;
use wlm_dbsim::time::{SimDuration, SimTime};
use wlm_workload::request::{Request, RequestId};

/// Identity of one enveloped message on the link. Monotonic across the
/// whole cluster run, so a retransmission of the same send attempt is
/// recognizable at the receiving shard no matter how the copies reorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct MsgId(pub u64);

/// The deterministic link model.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Base one-way delivery delay, seconds.
    pub delay_secs: f64,
    /// Seeded uniform extra delay in `[0, jitter_secs]` per transmission.
    pub jitter_secs: f64,
    /// Per-message loss probability on the forward path.
    pub loss_p: f64,
    /// Probability a delivered message is duplicated in flight.
    pub dup_p: f64,
    /// Retransmit a message this long after its last unacknowledged send.
    pub retransmit_secs: f64,
    /// Seed behind every loss/duplication/jitter draw.
    pub seed: u64,
}

impl Default for LinkConfig {
    /// A perfect link: zero delay, zero loss, zero duplication. A cluster
    /// over the default link behaves exactly like the direct-push fabric.
    fn default() -> Self {
        LinkConfig {
            delay_secs: 0.0,
            jitter_secs: 0.0,
            loss_p: 0.0,
            dup_p: 0.0,
            retransmit_secs: 0.25,
            seed: 0,
        }
    }
}

/// Per-shard mutable link state (fault windows move these).
#[derive(Debug)]
struct ShardLink {
    rng: SmallRng,
    /// Fully partitioned: everything in either direction is lost.
    partitioned: bool,
    /// Gray-shard multiplier on the base delay (1.0 = nominal).
    delay_factor: f64,
    /// Fault-window override of the configured loss probability.
    loss_override: Option<f64>,
}

/// A message sent but not yet acknowledged.
#[derive(Debug)]
struct OutMsg {
    req: Request,
    shard: usize,
    /// Last transmission time (the retransmit timer's reference).
    sent_at: SimTime,
    /// Whether any copy has been accepted by the shard (ack may still be
    /// in flight). Crash failover uses this: accepted messages are
    /// already in the shard's books, unaccepted ones must move with the
    /// rest of the stranded work.
    accepted: bool,
    attempts: u32,
}

/// A data message due to arrive at a shard inbox.
#[derive(Debug)]
pub(crate) struct Delivery {
    pub msg: MsgId,
    pub shard: usize,
    pub req: Request,
    /// The transmission this copy belongs to (echoed in its ack so the
    /// front-end measures that attempt's round trip).
    pub sent_at: SimTime,
}

/// A message the link lost (loss draw or partition), reported so the
/// front-end can publish [`WlmEvent::LinkDropped`](wlm_core::events::WlmEvent::LinkDropped).
#[derive(Debug)]
pub(crate) struct Drop {
    pub request: RequestId,
    pub workload: String,
    pub shard: usize,
}

/// Everything one [`LinkLayer::pump`] surfaced.
#[derive(Debug, Default)]
pub(crate) struct PumpOutput {
    /// Data messages due at their shard this pump.
    pub deliveries: Vec<Delivery>,
    /// Acks that resolved an outstanding message: `(shard, request)`.
    pub acked: Vec<(usize, Request)>,
    /// Round-trip samples (acks and heartbeat pongs) for the detector.
    pub rtt_samples: Vec<(usize, f64)>,
    /// Messages lost since the last pump.
    pub dropped: Vec<Drop>,
}

/// The link between the front-end and every shard inbox.
#[derive(Debug)]
pub(crate) struct LinkLayer {
    cfg: LinkConfig,
    shards: Vec<ShardLink>,
    next_msg: u64,
    /// Tie-breaker for same-instant schedule entries.
    seq: u64,
    /// Sent-but-unacked messages, by id.
    outstanding: BTreeMap<MsgId, OutMsg>,
    /// Data messages in flight toward a shard.
    deliveries: BTreeMap<(SimTime, u64), Delivery>,
    /// Acks in flight back to the front-end: `(msg, shard, sent_at)`.
    acks: BTreeMap<(SimTime, u64), (MsgId, usize, SimTime)>,
    /// Heartbeat pongs in flight back: `(shard, ping_sent)`.
    pongs: BTreeMap<(SimTime, u64), (usize, SimTime)>,
    /// Losses accumulated since the last pump.
    drop_log: Vec<Drop>,
    /// Messages delivered and accepted at least once.
    pub delivered: u64,
    /// Messages lost in flight (including retransmitted copies).
    pub dropped: u64,
    /// Extra copies the link spontaneously duplicated.
    pub duplicated: u64,
    /// Retransmissions triggered by the ack timeout.
    pub retransmits: u64,
}

impl ShardLink {
    /// Draw one one-way trip starting at `now`.
    fn one_way(&mut self, cfg: &LinkConfig, now: SimTime) -> SimTime {
        let mut secs = cfg.delay_secs * self.delay_factor;
        if cfg.jitter_secs > 0.0 {
            secs += self.rng.gen::<f64>() * cfg.jitter_secs * self.delay_factor;
        }
        now + SimDuration::from_secs_f64(secs)
    }

    /// Roll the forward path for one copy: `true` if it survives.
    fn forward_survives(&mut self, cfg: &LinkConfig) -> bool {
        if self.partitioned {
            return false;
        }
        let loss = self.loss_override.unwrap_or(cfg.loss_p);
        !(loss > 0.0 && self.rng.gen::<f64>() < loss)
    }
}

impl LinkLayer {
    pub(crate) fn new(cfg: LinkConfig, shards: usize) -> Self {
        let shard_links = (0..shards)
            .map(|i| ShardLink {
                rng: SmallRng::seed_from_u64(mix_seed(cfg.seed, i as u64)),
                partitioned: false,
                delay_factor: 1.0,
                loss_override: None,
            })
            .collect();
        LinkLayer {
            cfg,
            shards: shard_links,
            next_msg: 0,
            seq: 0,
            outstanding: BTreeMap::new(),
            deliveries: BTreeMap::new(),
            acks: BTreeMap::new(),
            pongs: BTreeMap::new(),
            drop_log: Vec::new(),
            delivered: 0,
            dropped: 0,
            duplicated: 0,
            retransmits: 0,
        }
    }

    pub(crate) fn is_partitioned(&self, shard: usize) -> bool {
        self.shards[shard].partitioned
    }

    /// Apply or heal a full partition. Activation swallows everything
    /// already in flight to or from the shard — sent messages go back on
    /// the retransmit timer, so nothing is silently lost forever.
    pub(crate) fn set_partitioned(&mut self, shard: usize, active: bool) {
        self.shards[shard].partitioned = active;
        if !active {
            return;
        }
        let (dropped, drop_log) = (&mut self.dropped, &mut self.drop_log);
        self.deliveries.retain(|_, d| {
            if d.shard != shard {
                return true;
            }
            *dropped += 1;
            drop_log.push(Drop {
                request: d.req.id,
                workload: d.req.spec.label.clone(),
                shard,
            });
            false
        });
        self.acks.retain(|_, (_, s, _)| *s != shard);
        self.pongs.retain(|_, (s, _)| *s != shard);
    }

    /// Move a gray-shard fault window: multiply the link delay to and
    /// from `shard` by `factor` (1.0 recovers).
    pub(crate) fn set_delay_factor(&mut self, shard: usize, factor: f64) {
        self.shards[shard].delay_factor = factor.max(0.0);
    }

    /// Override (or with `None` restore) the forward loss probability of
    /// one shard's link.
    pub(crate) fn set_loss(&mut self, shard: usize, loss_p: Option<f64>) {
        self.shards[shard].loss_override = loss_p;
    }

    fn next_key(&mut self, at: SimTime) -> (SimTime, u64) {
        self.seq += 1;
        (at, self.seq)
    }

    /// Transmit (or retransmit) an outstanding message; nothing to do for
    /// one that is no longer outstanding. The body is cloned once per copy
    /// actually put in flight: not at all for a lost transmission, a
    /// second time only when the duplicate draw fires.
    fn transmit(&mut self, msg: MsgId, now: SimTime) {
        let Some(m) = self.outstanding.get(&msg) else {
            return;
        };
        let link = &mut self.shards[m.shard];
        if !link.forward_survives(&self.cfg) {
            self.dropped += 1;
            self.drop_log.push(Drop {
                request: m.req.id,
                workload: m.req.spec.label.clone(),
                shard: m.shard,
            });
            return;
        }
        let due = link.one_way(&self.cfg, now);
        let dup_due = (self.cfg.dup_p > 0.0 && link.rng.gen::<f64>() < self.cfg.dup_p)
            .then(|| link.one_way(&self.cfg, now));
        self.duplicated += u64::from(dup_due.is_some());
        for due in std::iter::once(due).chain(dup_due) {
            self.seq += 1;
            self.deliveries.insert(
                (due, self.seq),
                Delivery {
                    msg,
                    shard: m.shard,
                    req: m.req.clone(),
                    sent_at: now,
                },
            );
        }
    }

    /// Envelope `req` and put it on the wire toward `shard`.
    pub(crate) fn send(&mut self, now: SimTime, shard: usize, req: Request) -> MsgId {
        self.next_msg += 1;
        let msg = MsgId(self.next_msg);
        self.outstanding.insert(
            msg,
            OutMsg {
                req,
                shard,
                sent_at: now,
                accepted: false,
                attempts: 1,
            },
        );
        self.transmit(msg, now);
        msg
    }

    /// Ping every shard (the heartbeat the failure detector lives on).
    /// Pongs travel both legs of the link, so a gray shard's pongs arrive
    /// late and a partitioned shard's not at all.
    pub(crate) fn heartbeat(&mut self, now: SimTime) {
        for shard in 0..self.shards.len() {
            let link = &mut self.shards[shard];
            if !link.forward_survives(&self.cfg) {
                continue;
            }
            let there = link.one_way(&self.cfg, now);
            let back = link.one_way(&self.cfg, there);
            let key = self.next_key(back);
            self.pongs.insert(key, (shard, now));
        }
    }

    /// The shard accepted (or re-acked) a delivered message: schedule the
    /// acknowledgement back to the front-end.
    pub(crate) fn post_ack(&mut self, msg: MsgId, shard: usize, sent_at: SimTime, now: SimTime) {
        if let Some(m) = self.outstanding.get_mut(&msg) {
            m.accepted = true;
        }
        if self.shards[shard].partitioned {
            return; // the ack dies in the partition
        }
        let due = self.shards[shard].one_way(&self.cfg, now);
        let key = self.next_key(due);
        self.acks.insert(key, (msg, shard, sent_at));
    }

    /// Advance the link to `now`: surface due deliveries, resolve due
    /// acks and pongs, retransmit what timed out.
    pub(crate) fn pump(&mut self, now: SimTime) -> PumpOutput {
        let mut out = PumpOutput {
            dropped: std::mem::take(&mut self.drop_log),
            ..PumpOutput::default()
        };
        // Retransmit first so a copy re-sent at `now` over a zero-delay
        // link is delivered by this same pump, not the next one.
        if self.cfg.retransmit_secs > 0.0 {
            let timeout = SimDuration::from_secs_f64(self.cfg.retransmit_secs);
            // Restart every expired timer, then re-send: a transmission
            // touches no other message's timer.
            let mut due = Vec::new();
            for (id, m) in &mut self.outstanding {
                if m.sent_at + timeout <= now {
                    m.sent_at = now;
                    m.attempts += 1;
                    due.push(*id);
                }
            }
            self.retransmits += due.len() as u64;
            for msg in due {
                self.transmit(msg, now);
            }
        }
        while let Some(first) = self.deliveries.first_entry() {
            if first.key().0 > now {
                break;
            }
            self.delivered += 1;
            out.deliveries.push(first.remove());
        }
        while let Some(first) = self.acks.first_entry() {
            let arrived = first.key().0;
            if arrived > now {
                break;
            }
            let (msg, shard, sent_at) = first.remove();
            // Round trips are measured at the scheduled arrival instant,
            // not at whatever later time the link happened to be pumped.
            out.rtt_samples
                .push((shard, arrived.since(sent_at).as_secs_f64()));
            if let Some(m) = self.outstanding.remove(&msg) {
                out.acked.push((shard, m.req));
            }
        }
        while let Some(first) = self.pongs.first_entry() {
            let arrived = first.key().0;
            if arrived > now {
                break;
            }
            let (shard, pinged) = first.remove();
            out.rtt_samples
                .push((shard, arrived.since(pinged).as_secs_f64()));
        }
        out
    }

    /// Unacknowledged messages addressed to `shard`, oldest first — the
    /// hedging candidates when the shard goes gray.
    pub(crate) fn unacked_to(&self, shard: usize) -> Vec<(MsgId, Request)> {
        self.outstanding
            .iter()
            .filter(|(_, m)| m.shard == shard)
            .map(|(id, m)| (*id, m.req.clone()))
            .collect()
    }

    /// Stop retransmitting `msg` (its request was hedged elsewhere).
    /// Copies already in flight still arrive — the shard-side dedup and
    /// the front-end's duplicate-completion accounting absorb them.
    pub(crate) fn abandon(&mut self, msg: MsgId) {
        self.outstanding.remove(&msg);
    }

    /// Drop every copy of `request` addressed to `shard` — the loser side
    /// of a hedge race is cancelled before it can be (re)delivered.
    pub(crate) fn cancel_request(&mut self, request: RequestId, shard: usize) {
        self.outstanding
            .retain(|_, m| !(m.shard == shard && m.req.id == request));
        self.deliveries
            .retain(|_, d| !(d.shard == shard && d.req.id == request));
    }

    /// Crash failover: take every message to `shard` that no copy of has
    /// been accepted yet (those requests exist nowhere but on the wire)
    /// and drop all in-flight copies. Accepted messages stay with the
    /// shard — the failover checkpoint machinery already owns them.
    pub(crate) fn take_unaccepted(&mut self, shard: usize) -> Vec<Request> {
        let ids: Vec<MsgId> = self
            .outstanding
            .iter()
            .filter(|(_, m)| m.shard == shard && !m.accepted)
            .map(|(id, _)| *id)
            .collect();
        let moved = ids
            .iter()
            .filter_map(|id| self.outstanding.remove(id))
            .map(|m| m.req)
            .collect();
        self.deliveries
            .retain(|_, d| !(d.shard == shard && ids.contains(&d.msg)));
        moved
    }

    /// The dedup watermark: every message id strictly below the returned
    /// bound is fully retired — it is no longer outstanding (so it will
    /// never be retransmitted) and has no copy in flight (so nothing
    /// already on the wire can still land). No shard will ever see such
    /// an id delivered again, which makes it safe for inboxes to forget
    /// it (see [`InboxSource::evict_seen_below`](crate::inbox::InboxSource::evict_seen_below)).
    pub(crate) fn retired_before(&self) -> MsgId {
        let mut floor = MsgId(self.next_msg + 1);
        if let Some((&id, _)) = self.outstanding.iter().next() {
            floor = floor.min(id);
        }
        if let Some(min) = self.deliveries.values().map(|d| d.msg).min() {
            floor = floor.min(min);
        }
        floor
    }

    /// Sent-but-unacked messages currently on the books.
    #[cfg(test)]
    pub(crate) fn outstanding_len(&self) -> usize {
        self.outstanding.len()
    }
}

/// SplitMix64 step, deriving one shard's RNG stream from the link seed.
fn mix_seed(seed: u64, lane: u64) -> u64 {
    let mut x = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(lane.wrapping_mul(0xD1B5_4A32_D192_ED03));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlm_dbsim::plan::PlanBuilder;
    use wlm_workload::request::{Importance, Origin};

    fn req(id: u64) -> Request {
        Request {
            id: RequestId(id),
            arrival: SimTime::ZERO,
            origin: Origin::new("test", "t", id),
            spec: PlanBuilder::table_scan(1_000)
                .build()
                .into_spec()
                .labeled("oltp"),
            importance: Importance::Medium,
            shard_key: None,
        }
    }

    fn secs(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn perfect_link_delivers_immediately_in_send_order() {
        let mut link = LinkLayer::new(LinkConfig::default(), 2);
        link.send(SimTime::ZERO, 0, req(1));
        link.send(SimTime::ZERO, 1, req(2));
        link.send(SimTime::ZERO, 0, req(3));
        let out = link.pump(SimTime::ZERO);
        let ids: Vec<u64> = out.deliveries.iter().map(|d| d.req.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3], "send order preserved");
        assert!(out.dropped.is_empty());
    }

    #[test]
    fn lost_messages_are_retransmitted_until_acked() {
        let cfg = LinkConfig {
            loss_p: 1.0,
            retransmit_secs: 0.1,
            ..LinkConfig::default()
        };
        let mut link = LinkLayer::new(cfg, 1);
        let msg = link.send(SimTime::ZERO, 0, req(7));
        assert_eq!(link.pump(SimTime::ZERO).deliveries.len(), 0);
        assert_eq!(link.dropped, 1);
        // Heal the loss; the retransmit timer re-sends and delivers.
        link.set_loss(0, Some(0.0));
        let out = link.pump(secs(0.2));
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(out.deliveries[0].msg, msg);
        assert!(link.retransmits >= 1);
        // Ack resolves the outstanding entry.
        link.post_ack(msg, 0, secs(0.2), secs(0.2));
        let out = link.pump(secs(0.2));
        assert_eq!(out.acked.len(), 1);
        assert_eq!(link.outstanding_len(), 0);
    }

    #[test]
    fn partition_swallows_in_flight_and_heals() {
        let cfg = LinkConfig {
            delay_secs: 0.05,
            retransmit_secs: 0.1,
            ..LinkConfig::default()
        };
        let mut link = LinkLayer::new(cfg, 1);
        link.send(SimTime::ZERO, 0, req(9));
        link.set_partitioned(0, true);
        let out = link.pump(secs(0.06));
        assert!(out.deliveries.is_empty(), "in-flight copy swallowed");
        assert_eq!(out.dropped.len(), 1);
        assert_eq!(out.dropped[0].request, RequestId(9));
        // While partitioned, retransmits keep dying.
        let out = link.pump(secs(0.2));
        assert!(out.deliveries.is_empty());
        // Heal: the next retransmit gets through, arriving one link
        // delay after the pump that re-sent it.
        link.set_partitioned(0, false);
        assert!(link.pump(secs(0.4)).deliveries.is_empty());
        let out = link.pump(secs(0.45));
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(out.deliveries[0].req.id, RequestId(9));
    }

    #[test]
    fn gray_delay_factor_stretches_pong_round_trips() {
        let cfg = LinkConfig {
            delay_secs: 0.02,
            ..LinkConfig::default()
        };
        let mut link = LinkLayer::new(cfg, 2);
        link.set_delay_factor(1, 10.0);
        link.heartbeat(SimTime::ZERO);
        let out = link.pump(secs(1.0));
        let mut rtts: BTreeMap<usize, f64> = BTreeMap::new();
        for (shard, rtt) in out.rtt_samples {
            rtts.insert(shard, rtt);
        }
        assert!((rtts[&0] - 0.04).abs() < 1e-9, "nominal rtt: {}", rtts[&0]);
        assert!((rtts[&1] - 0.4).abs() < 1e-9, "gray rtt: {}", rtts[&1]);
    }

    #[test]
    fn same_seed_same_history() {
        let run = || {
            let cfg = LinkConfig {
                delay_secs: 0.01,
                jitter_secs: 0.02,
                loss_p: 0.3,
                dup_p: 0.2,
                retransmit_secs: 0.05,
                seed: 11,
            };
            let mut link = LinkLayer::new(cfg, 3);
            let mut history = Vec::new();
            for i in 0..50u64 {
                let now = secs(i as f64 * 0.02);
                link.heartbeat(now);
                link.send(now, (i % 3) as usize, req(i));
                let out = link.pump(now);
                for d in &out.deliveries {
                    history.push((d.msg.0, d.shard, d.req.id.0));
                }
            }
            (history, link.dropped, link.duplicated, link.retransmits)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cancel_and_take_unaccepted_clear_every_copy() {
        let cfg = LinkConfig {
            delay_secs: 0.5,
            ..LinkConfig::default()
        };
        let mut link = LinkLayer::new(cfg, 2);
        let a = link.send(SimTime::ZERO, 0, req(1));
        link.send(SimTime::ZERO, 0, req(2));
        link.send(SimTime::ZERO, 1, req(3));
        link.cancel_request(RequestId(2), 0);
        assert_eq!(link.outstanding_len(), 2);
        // Mark request 1 accepted; only request 3 is unaccepted on shard 1.
        link.post_ack(a, 0, SimTime::ZERO, SimTime::ZERO);
        let moved = link.take_unaccepted(1);
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].id, RequestId(3));
        let out = link.pump(secs(1.0));
        let ids: Vec<u64> = out.deliveries.iter().map(|d| d.req.id.0).collect();
        assert_eq!(ids, vec![1], "cancelled and taken copies never arrive");
    }
}
