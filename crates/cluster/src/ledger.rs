//! The request ledger: the front-end's one per-request book.
//!
//! The cluster duplicates work on purpose — a suspected shard's requests
//! are hedged onto a healthy peer, a crashed or retired shard's requests
//! are moved to the survivors, the link redelivers — and still owes the
//! source exactly one completion per request. The `Ledger` is where that
//! is decided. It holds one entry per [`RequestId`] from the request's
//! first delivery until its completion has been forwarded *and* every
//! losing copy has been dealt with:
//!
//! ```text
//!             routed                      completed, nothing to cancel
//!   (no entry) ────► InFlight ─────────────────────────────────────────► (no entry)
//!                     │  ▲                                                   ▲
//!                     │  └─ acked / hedged / moved                           │
//!                     │                                                      │
//!                     │ completed, racing copies left     copy_cancelled     │
//!                     └────────────────────────────► Won ────────────────────┘
//!                                                    (lists the shards still
//!                                                     owed a cancel)
//! ```
//!
//! "Already forwarded" is therefore "no entry": a completion, an ack or an
//! evacuated copy that turns up for a request without an entry belongs to
//! a settled request and can never reopen it, and nothing is kept for a
//! request once it is settled. A cancel that cannot reach a partitioned
//! shard is simply a `Won` entry that still lists the shard;
//! `Ledger::cancels_owed` reads them back when the partition heals.
//!
//! Every transition is a method that answers what the front-end has to do
//! next; the ledger itself touches neither shards nor the link. Copies and
//! request bodies are only ever read by hedging, so a cluster built without
//! [`ClusterBuilder::hedged_redispatch`](crate::ClusterBuilder::hedged_redispatch)
//! keeps bare entries: no copy list, no body, no allocation per request
//! beyond the map node.

use std::collections::BTreeMap;
use wlm_workload::request::{Request, RequestId};

/// Tuning for hedged re-dispatch.
#[derive(Debug, Clone)]
pub struct HedgeConfig {
    /// Most hedged copies ever created for one request — a flapping
    /// detector cannot melt the cluster with clones.
    pub max_hedges: u32,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig { max_hedges: 1 }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No completion has been forwarded yet.
    InFlight,
    /// The completion has been forwarded; the entry lists exactly the
    /// losing shards whose cancel has not been carried out.
    Won,
}

/// One shard the front-end sent a copy of the request to.
#[derive(Debug, Clone, Copy)]
struct Copy {
    shard: usize,
    /// The shard acknowledged the delivery: the copy is in its books, so
    /// only a dead-shard hedge will re-dispatch it.
    acked: bool,
    /// The copy is the source or the target of a hedge. Racing copies are
    /// the ones cancelled when another copy wins.
    racing: bool,
}

#[derive(Debug)]
struct Entry {
    phase: Phase,
    hedges: u32,
    copies: Vec<Copy>,
    /// The request as first acknowledged, kept to re-send when the shard
    /// that holds it goes dead.
    body: Option<Box<Request>>,
}

impl Entry {
    /// The entry's record of `shard`, added if it is not listed yet.
    fn copy_on(&mut self, shard: usize) -> &mut Copy {
        let at = match self.copies.iter().position(|c| c.shard == shard) {
            Some(at) => at,
            None => {
                self.copies.push(Copy {
                    shard,
                    acked: false,
                    racing: false,
                });
                self.copies.len() - 1
            }
        };
        &mut self.copies[at]
    }
}

/// What the front-end does with a completion a shard surfaced.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Completion {
    /// First completion of the request: forward it to the source, then
    /// cancel the losing copies on these shards.
    Forward { cancel: Vec<usize> },
    /// The request's completion was already forwarded: absorb this one.
    Duplicate,
}

/// The front-end's per-request book and the correction tallies that turn
/// per-shard sums into exactly-once cluster totals.
#[derive(Debug)]
pub(crate) struct Ledger {
    /// `Some` when hedging is configured — the only reader of copies and
    /// bodies, so they are tracked only then.
    hedge: Option<HedgeConfig>,
    entries: BTreeMap<RequestId, Entry>,
    /// Hedged copies sent.
    pub(crate) hedged: u64,
    /// Completions of settled or already-won requests, absorbed instead of
    /// forwarded; the cluster's `completed` subtracts them from the shard
    /// sum.
    pub(crate) dup_completions: u64,
    /// Orphan kills done as housekeeping — cancelling a losing copy,
    /// stripping an evacuated shard, restarting one cold; the cluster's
    /// `killed` subtracts them from the shard sum.
    pub(crate) reclaimed: u64,
}

impl Ledger {
    pub(crate) fn new(hedge: Option<HedgeConfig>) -> Self {
        Ledger {
            hedge,
            entries: BTreeMap::new(),
            hedged: 0,
            dup_completions: 0,
            reclaimed: 0,
        }
    }

    /// Entries held: requests in flight plus won races still owed a cancel.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether hedging is configured.
    pub(crate) fn hedging(&self) -> bool {
        self.hedge.is_some()
    }

    /// Whether `id` is still open (in flight, or won and owed a cancel).
    pub(crate) fn contains(&self, id: RequestId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Hedged requests whose race has not been decided yet.
    pub(crate) fn races_open(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.phase == Phase::InFlight && e.hedges > 0)
            .count()
    }

    fn in_flight(&mut self, id: RequestId) -> Option<&mut Entry> {
        self.entries
            .get_mut(&id)
            .filter(|e| e.phase == Phase::InFlight)
    }

    /// The door routed `id` to `shard`. Opens the entry; for a request that
    /// is already open (an evacuee that had to wait for a live shard and
    /// comes back through the door) only the new copy is listed.
    pub(crate) fn routed(&mut self, id: RequestId, shard: usize) {
        let track = self.hedging();
        let entry = self.entries.entry(id).or_insert(Entry {
            phase: Phase::InFlight,
            hedges: 0,
            copies: Vec::new(),
            body: None,
        });
        if track && entry.phase == Phase::InFlight {
            entry.copy_on(shard);
        }
    }

    /// An evacuation re-routed a copy of `id` to `to`. A settled request
    /// stays settled: its leftover copy runs untracked and its completion
    /// is absorbed as a duplicate.
    ///
    /// The vacated shard stays listed, acked and racing flags included. The
    /// books this ledger replaces never struck it, and striking it changes
    /// simulated outcomes: a later dead verdict on that shard no longer
    /// re-dispatches the request, and the moved copy — which does not join
    /// the race — is what lets a request complete twice after a retire or
    /// a failover (benchmark finding 5). Fixing that is this transition.
    pub(crate) fn moved(&mut self, id: RequestId, to: usize) {
        if !self.hedging() {
            return;
        }
        if let Some(entry) = self.in_flight(id) {
            entry.copy_on(to);
        }
    }

    /// `shard` acknowledged a delivery of `req`. An ack that arrives after
    /// the completion was forwarded finds no in-flight entry and is
    /// dropped — it cannot make a finished request hedgeable again.
    pub(crate) fn acked(&mut self, shard: usize, req: Request) {
        if !self.hedging() {
            return;
        }
        if let Some(entry) = self.in_flight(req.id) {
            entry.copy_on(shard).acked = true;
            entry.body.get_or_insert_with(|| Box::new(req));
        }
    }

    /// In-flight requests `shard` has acknowledged, in id order: what a
    /// dead verdict on the shard re-dispatches on top of its unacked
    /// messages.
    pub(crate) fn acked_on(&self, shard: usize) -> Vec<Request> {
        self.entries
            .values()
            .filter(|e| {
                e.phase == Phase::InFlight && e.copies.iter().any(|c| c.shard == shard && c.acked)
            })
            .filter_map(|e| e.body.as_deref().cloned())
            .collect()
    }

    /// Try to hedge `id` from `from` onto `to`. Returns whether the copy
    /// may be sent: the request must be in flight with hedges to spare.
    /// Both shards join the race.
    pub(crate) fn hedged(&mut self, id: RequestId, from: usize, to: usize) -> bool {
        let max = self.hedge.as_ref().map_or(0, |h| h.max_hedges);
        let Some(entry) = self.in_flight(id).filter(|e| e.hedges < max) else {
            return false;
        };
        entry.copy_on(from).racing = true;
        entry.copy_on(to).racing = true;
        entry.hedges += 1;
        self.hedged += 1;
        true
    }

    /// A completion of `id` surfaced from `shard`. The first one of a
    /// request is forwarded and settles the entry, or — when other copies
    /// are racing — turns it into a `Won` entry listing the losers.
    /// Copies that never joined a race are not cancelled.
    pub(crate) fn completed(&mut self, id: RequestId, shard: usize) -> Completion {
        let Some(entry) = self.in_flight(id) else {
            self.dup_completions += 1;
            return Completion::Duplicate;
        };
        entry.copies.retain(|c| c.racing && c.shard != shard);
        let cancel: Vec<usize> = entry.copies.iter().map(|c| c.shard).collect();
        if cancel.is_empty() {
            self.entries.remove(&id);
        } else {
            entry.phase = Phase::Won;
            entry.body = None;
        }
        Completion::Forward { cancel }
    }

    /// The cancel of `id`'s losing copy on `shard` has been carried out
    /// (whether or not a copy was still there). The last one settles the
    /// entry.
    pub(crate) fn copy_cancelled(&mut self, id: RequestId, shard: usize) {
        let Some(entry) = self.entries.get_mut(&id) else {
            return;
        };
        if entry.phase == Phase::Won {
            entry.copies.retain(|c| c.shard != shard);
            if entry.copies.is_empty() {
                self.entries.remove(&id);
            }
        }
    }

    /// Won requests that still owe `shard` a cancel, in id order — the
    /// cancels that could not cross a partition.
    pub(crate) fn cancels_owed(&self, shard: usize) -> Vec<RequestId> {
        self.entries
            .iter()
            .filter(|(_, e)| e.phase == Phase::Won && e.copies.iter().any(|c| c.shard == shard))
            .map(|(id, _)| *id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use wlm_core::splitmix64;
    use wlm_dbsim::plan::PlanBuilder;
    use wlm_dbsim::time::SimTime;
    use wlm_workload::request::{Importance, Origin};

    fn req(id: u64) -> Request {
        Request {
            id: RequestId(id),
            arrival: SimTime::ZERO,
            origin: Origin::new("t", "t", 1),
            spec: PlanBuilder::index_lookup(5).build().into_spec(),
            importance: Importance::Medium,
            shard_key: None,
        }
    }

    fn hedging(max_hedges: u32) -> Ledger {
        Ledger::new(Some(HedgeConfig { max_hedges }))
    }

    #[test]
    fn an_unhedged_request_opens_at_the_door_and_settles_on_completion() {
        for mut l in [Ledger::new(None), hedging(1)] {
            l.routed(RequestId(1), 0);
            assert!(l.contains(RequestId(1)));
            assert_eq!(
                l.completed(RequestId(1), 0),
                Completion::Forward { cancel: vec![] }
            );
            assert_eq!(l.len(), 0, "nothing is kept for a settled request");
            assert_eq!(l.completed(RequestId(1), 0), Completion::Duplicate);
            assert_eq!(l.dup_completions, 1);
            assert_eq!(l.len(), 0);
        }
    }

    #[test]
    fn without_hedging_entries_carry_no_copies_and_no_body() {
        let mut l = Ledger::new(None);
        l.routed(RequestId(1), 0);
        l.acked(0, req(1));
        l.moved(RequestId(1), 2);
        let entry = &l.entries[&RequestId(1)];
        assert_eq!(entry.copies.capacity(), 0, "no allocation behind the entry");
        assert!(entry.body.is_none());
        assert!(!l.hedged(RequestId(1), 0, 1), "nothing to hedge with");
        assert!(l.acked_on(0).is_empty());
    }

    #[test]
    fn first_completion_wins_and_the_entry_lives_until_the_loser_is_cancelled() {
        let mut l = hedging(1);
        l.routed(RequestId(1), 0);
        assert!(l.hedged(RequestId(1), 0, 2));
        assert!(!l.hedged(RequestId(1), 0, 3), "max_hedges=1 is spent");
        assert_eq!((l.hedged, l.races_open()), (1, 1));
        assert_eq!(
            l.completed(RequestId(1), 2),
            Completion::Forward { cancel: vec![0] }
        );
        assert_eq!(l.races_open(), 0);
        assert_eq!(l.cancels_owed(0), vec![RequestId(1)]);
        assert!(l.cancels_owed(2).is_empty());
        // The loser finishes before its cancel lands: absorbed.
        assert_eq!(l.completed(RequestId(1), 0), Completion::Duplicate);
        assert!(!l.hedged(RequestId(1), 0, 3), "a won race is not re-hedged");
        l.copy_cancelled(RequestId(1), 0);
        assert_eq!(l.len(), 0);
        assert_eq!(l.completed(RequestId(1), 0), Completion::Duplicate);
        assert_eq!(l.dup_completions, 2);
    }

    #[test]
    fn fan_out_is_bounded_and_every_racing_copy_but_the_winner_is_cancelled() {
        let mut l = hedging(2);
        l.routed(RequestId(5), 1);
        assert!(l.hedged(RequestId(5), 1, 2));
        assert!(l.hedged(RequestId(5), 1, 3));
        assert!(!l.hedged(RequestId(5), 1, 4));
        assert_eq!(
            l.completed(RequestId(5), 1),
            Completion::Forward { cancel: vec![2, 3] }
        );
        l.copy_cancelled(RequestId(5), 3);
        assert_eq!(l.cancels_owed(2), vec![RequestId(5)]);
        assert!(l.cancels_owed(3).is_empty());
        l.copy_cancelled(RequestId(5), 2);
        assert_eq!(l.len(), 0);
    }

    #[test]
    fn a_dead_shard_hedge_re_sends_only_what_the_shard_acked() {
        let mut l = hedging(1);
        l.routed(RequestId(1), 0);
        l.routed(RequestId(2), 0);
        l.routed(RequestId(3), 1);
        l.acked(0, req(1));
        l.acked(1, req(3));
        let ids = |reqs: Vec<Request>| reqs.iter().map(|r| r.id.0).collect::<Vec<_>>();
        assert_eq!(ids(l.acked_on(0)), vec![1], "request 2 is still unacked");
        assert_eq!(ids(l.acked_on(1)), vec![3]);
        l.completed(RequestId(1), 0);
        assert!(
            l.acked_on(0).is_empty(),
            "a settled request is not a candidate"
        );
    }

    #[test]
    fn a_late_ack_does_not_recreate_a_settled_entry() {
        // The seam PR 5 closed: a fast query finishes before its delivery
        // ack makes the round trip. The ack must not make the finished
        // request look accepted-and-unfinished to a later dead-shard hedge.
        let mut l = hedging(1);
        l.routed(RequestId(1), 0);
        l.completed(RequestId(1), 0);
        l.acked(0, req(1));
        assert_eq!(l.len(), 0);
        assert!(l.acked_on(0).is_empty());
        assert!(!l.hedged(RequestId(1), 0, 1));
        assert_eq!(l.hedged, 0);
        // Same for the loser's ack arriving while its cancel is still owed.
        l.routed(RequestId(2), 0);
        assert!(l.hedged(RequestId(2), 0, 1));
        l.completed(RequestId(2), 0);
        l.acked(1, req(2));
        assert!(l.acked_on(1).is_empty());
        l.copy_cancelled(RequestId(2), 1);
        assert_eq!(l.len(), 0);
    }

    #[test]
    fn an_evacuated_copy_is_listed_but_a_settled_request_stays_settled() {
        let mut l = hedging(1);
        l.routed(RequestId(1), 0);
        l.moved(RequestId(1), 1);
        let shards: Vec<usize> = l.entries[&RequestId(1)]
            .copies
            .iter()
            .map(|c| c.shard)
            .collect();
        assert_eq!(shards, vec![0, 1]);
        // Moved copies do not join a race, so nothing is cancelled for them.
        assert_eq!(
            l.completed(RequestId(1), 1),
            Completion::Forward { cancel: vec![] }
        );
        l.moved(RequestId(1), 2);
        assert_eq!(l.len(), 0);
        assert_eq!(l.completed(RequestId(1), 2), Completion::Duplicate);
    }

    #[test]
    fn a_request_that_comes_back_through_the_door_keeps_its_entry() {
        let mut l = hedging(1);
        l.routed(RequestId(1), 0);
        l.acked(0, req(1));
        l.routed(RequestId(1), 1);
        assert_eq!(l.len(), 1);
        assert_eq!(l.acked_on(0).len(), 1, "the first copy's ack survives");
        // Through the door again while a cancel is owed: not a new copy.
        assert!(l.hedged(RequestId(1), 0, 2));
        l.completed(RequestId(1), 0);
        l.routed(RequestId(1), 3);
        assert_eq!(l.cancels_owed(2), vec![RequestId(1)]);
        assert!(l.cancels_owed(3).is_empty());
    }

    /// Drive one seeded random walk over the transitions the way the
    /// front-end calls them, against the accounting a reference model
    /// keeps: every routed request is in exactly one of {in flight, won
    /// with a cancel still owed, settled}.
    fn random_walk(seed: u64, steps: usize) {
        const SHARDS: u64 = 5;
        let mut state = seed;
        let mut draw = |n: u64| {
            state = splitmix64(state);
            state % n
        };
        let mut l = hedging(2);
        let mut next_id = 0u64;
        // The model: ids awaiting their first completion, cancels the
        // front-end still owes per won id, and ids fully settled.
        let mut in_flight: BTreeSet<u64> = BTreeSet::new();
        let mut owed: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
        let mut settled: Vec<u64> = Vec::new();
        let mut forwarded: BTreeMap<u64, u32> = BTreeMap::new();
        let mut hedges_sent = 0u64;
        let mut duplicates = 0u64;
        let mut healed = 0u64;

        for step in 0..steps {
            let shard = draw(SHARDS) as usize;
            // Mostly a recent id, sometimes any id ever routed: late
            // messages about long-finished requests must stay harmless.
            let id = match draw(4) {
                0 => draw(next_id.max(1)),
                _ => next_id.saturating_sub(1 + draw(24)),
            };
            match draw(8) {
                0 | 1 => {
                    l.routed(RequestId(next_id), shard);
                    in_flight.insert(next_id);
                    next_id += 1;
                }
                2 => {
                    // Back through the door: only a request that is still
                    // open is ever parked (see `Cluster::evacuate`).
                    if l.contains(RequestId(id)) {
                        l.routed(RequestId(id), shard);
                    }
                }
                3 => l.acked(shard, req(id)),
                4 => l.moved(RequestId(id), shard),
                5 => {
                    let to = (shard + 1) % SHARDS as usize;
                    if l.hedged(RequestId(id), shard, to) {
                        assert!(in_flight.contains(&id), "hedged a finished request {id}");
                        hedges_sent += 1;
                    }
                }
                6 => {
                    match l.completed(RequestId(id), shard) {
                        Completion::Forward { cancel } => {
                            *forwarded.entry(id).or_default() += 1;
                            assert!(in_flight.remove(&id), "forwarded {id} twice");
                            assert!(!cancel.contains(&shard), "the winner is not a loser");
                            // Like `cancel_copy`: a cancel either goes
                            // through now or stays owed (partitioned).
                            let mut left = BTreeSet::new();
                            for loser in cancel {
                                if draw(2) == 0 {
                                    l.copy_cancelled(RequestId(id), loser);
                                } else {
                                    left.insert(loser);
                                }
                            }
                            if left.is_empty() {
                                settled.push(id);
                            } else {
                                owed.insert(id, left);
                            }
                        }
                        Completion::Duplicate => {
                            assert!(!in_flight.contains(&id), "absorbed a first completion");
                            duplicates += 1;
                        }
                    }
                }
                _ => {
                    // A partition heals: carry out what is owed to `shard`.
                    for id in l.cancels_owed(shard) {
                        let left = owed.get_mut(&id.0).expect("the model owes it too");
                        assert!(left.remove(&shard));
                        l.copy_cancelled(id, shard);
                        if left.is_empty() {
                            owed.remove(&id.0);
                            settled.push(id.0);
                        }
                        healed += 1;
                    }
                    assert!(owed.values().all(|left| !left.contains(&shard)));
                }
            }

            assert_eq!(l.len(), in_flight.len() + owed.len());
            if step % 64 != 0 {
                continue;
            }
            let racing = l
                .entries
                .values()
                .filter(|e| {
                    e.phase == Phase::InFlight && e.copies.iter().filter(|c| c.racing).count() > 1
                })
                .count();
            assert_eq!(l.races_open(), racing);
        }

        for id in &in_flight {
            assert_eq!(l.entries[&RequestId(*id)].phase, Phase::InFlight);
        }
        for (id, left) in &owed {
            let entry = &l.entries[&RequestId(*id)];
            assert_eq!(entry.phase, Phase::Won);
            let listed: BTreeSet<usize> = entry.copies.iter().map(|c| c.shard).collect();
            assert_eq!(&listed, left);
        }
        for id in &settled {
            assert!(
                !l.contains(RequestId(*id)),
                "settled {id} still has an entry"
            );
        }
        assert!(forwarded.values().all(|&n| n == 1));
        assert_eq!(l.hedged, hedges_sent);
        assert_eq!(l.dup_completions, duplicates);
        assert!(
            hedges_sent > 100 && duplicates > 100 && healed > 100,
            "the walk must reach every transition: {hedges_sent} {duplicates} {healed}"
        );
    }

    #[test]
    fn random_transition_walks_keep_every_request_in_exactly_one_state() {
        for seed in [1, 7, 42, 1_000_003] {
            random_walk(seed, 12_000);
        }
    }
}
