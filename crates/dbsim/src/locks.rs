//! Exclusive lock manager with ordered incremental acquisition.
//!
//! Update transactions lock their keys *incrementally as they progress*, in
//! ascending key order (which rules out deadlock), and hold everything until
//! completion (strict two-phase locking). A transaction that needs a key
//! held by another blocks while keeping the locks it already owns — exactly
//! the regime in which Moenkeberg & Weikum's *conflict ratio*
//! (locks held by all transactions ÷ locks held by active transactions)
//! signals data-contention thrashing.

use std::collections::{BTreeMap, BTreeSet};

/// Identifies a lock-holding transaction (the engine uses its query ids).
pub type TxnId = u64;

/// Result of an acquisition attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// All requested locks up to the target are now held.
    Granted,
    /// The transaction is blocked waiting on this key. Already-held locks
    /// are retained (2PL), so contention compounds.
    Blocked(u64),
}

/// The lock table. Exclusive locks only: the workloads that matter for
/// data-contention thrashing are updates, and shared read locks would only
/// dilute the signal the admission controllers watch.
#[derive(Debug, Default)]
pub struct LockTable {
    /// key -> owner
    held: BTreeMap<u64, TxnId>,
    /// txn -> keys it holds (ascending)
    owned: BTreeMap<TxnId, Vec<u64>>,
    /// txn -> key it is blocked on
    blocked: BTreeMap<TxnId, u64>,
}

impl LockTable {
    /// Fresh, empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempt to extend `txn`'s holdings to the first `target` keys of
    /// `keys_sorted` (which must be ascending and deduplicated). Keys
    /// already held are skipped. On conflict the transaction is recorded as
    /// blocked on the contended key and `Blocked` is returned; it gets the
    /// key by asking again once the holder has released it (the engine
    /// retries every blocked query each quantum, in id order).
    pub fn acquire_up_to(&mut self, txn: TxnId, keys_sorted: &[u64], target: usize) -> LockOutcome {
        debug_assert!(
            keys_sorted.windows(2).all(|w| w[0] < w[1]),
            "keys must be strictly ascending"
        );
        let target = target.min(keys_sorted.len());
        let owned = self.owned.entry(txn).or_default();
        let already = owned.len();
        for &key in &keys_sorted[already..target] {
            match self.held.get(&key) {
                Some(&owner) if owner != txn => {
                    self.blocked.insert(txn, key);
                    return LockOutcome::Blocked(key);
                }
                Some(_) => {} // re-entrant; already ours
                None => {
                    self.held.insert(key, txn);
                    owned.push(key);
                }
            }
        }
        self.blocked.remove(&txn);
        LockOutcome::Granted
    }

    /// Release everything `txn` holds or waits for (commit, abort or kill).
    pub fn release_all(&mut self, txn: TxnId) {
        self.blocked.remove(&txn);
        for key in self.owned.remove(&txn).unwrap_or_default() {
            self.held.remove(&key);
        }
    }

    /// Whether the table holds nothing for any transaction.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.held.is_empty() && self.owned.is_empty() && self.blocked.is_empty()
    }

    /// Whether `txn` is currently blocked, and on which key.
    pub fn blocked_on(&self, txn: TxnId) -> Option<u64> {
        self.blocked.get(&txn).copied()
    }

    /// Number of locks `txn` holds.
    pub fn locks_held_by(&self, txn: TxnId) -> usize {
        self.owned.get(&txn).map_or(0, Vec::len)
    }

    /// Total locks held across all transactions.
    pub fn total_locks(&self) -> usize {
        self.held.len()
    }

    /// Number of currently blocked transactions.
    pub fn blocked_count(&self) -> usize {
        self.blocked.len()
    }

    /// Moenkeberg & Weikum's conflict ratio: locks held by *all*
    /// transactions divided by locks held by *active* (non-blocked)
    /// transactions. 1.0 means no contention. When every lock-holding
    /// transaction is blocked the ratio is unbounded; we report the total
    /// lock count plus one as a finite sentinel, which any sane critical
    /// threshold (the paper's literature uses ~1.3) is far below.
    pub fn conflict_ratio(&self) -> f64 {
        let total = self.held.len();
        if total == 0 {
            return 1.0;
        }
        let blocked_txns: BTreeSet<TxnId> = self.blocked.keys().copied().collect();
        let active_locks: usize = self
            .owned
            .iter()
            .filter(|(txn, _)| !blocked_txns.contains(txn))
            .map(|(_, keys)| keys.len())
            .sum();
        if active_locks == 0 {
            return (total + 1) as f64;
        }
        total as f64 / active_locks as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_and_reentrancy() {
        let mut lt = LockTable::new();
        assert_eq!(lt.acquire_up_to(1, &[5, 10], 2), LockOutcome::Granted);
        assert_eq!(lt.locks_held_by(1), 2);
        // Re-acquiring the same prefix is a no-op.
        assert_eq!(lt.acquire_up_to(1, &[5, 10], 2), LockOutcome::Granted);
        assert_eq!(lt.locks_held_by(1), 2);
    }

    #[test]
    fn conflict_blocks_until_the_holder_releases() {
        let mut lt = LockTable::new();
        assert_eq!(lt.acquire_up_to(1, &[5], 1), LockOutcome::Granted);
        assert_eq!(lt.acquire_up_to(2, &[5, 9], 2), LockOutcome::Blocked(5));
        assert_eq!(lt.blocked_on(2), Some(5));
        assert_eq!(lt.blocked_count(), 1);
        lt.release_all(1);
        assert_eq!(lt.acquire_up_to(2, &[5, 9], 2), LockOutcome::Granted);
        assert_eq!(lt.blocked_on(2), None);
    }

    #[test]
    fn blocked_txn_keeps_earlier_locks() {
        let mut lt = LockTable::new();
        lt.acquire_up_to(1, &[10], 1);
        assert_eq!(lt.acquire_up_to(2, &[3, 10], 2), LockOutcome::Blocked(10));
        assert_eq!(lt.locks_held_by(2), 1, "holds key 3 while waiting on 10");
        // Conflict ratio: 2 locks held total, 1 held by active txn 1 => 2.0.
        assert!((lt.conflict_ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn conflict_ratio_baseline_and_sentinel() {
        let mut lt = LockTable::new();
        assert_eq!(lt.conflict_ratio(), 1.0);
        lt.acquire_up_to(1, &[1], 1);
        assert_eq!(lt.conflict_ratio(), 1.0);
        // Two txns, each holding one lock, each blocked on the other's...
        // impossible with ordered acquisition, so emulate "all blocked" by
        // having the only holder block on another's key.
        lt.acquire_up_to(2, &[2], 1);
        lt.acquire_up_to(1, &[1, 2], 2); // blocks on 2
        lt.acquire_up_to(2, &[2, 3], 2); // fine, gets 3
        assert!(lt.conflict_ratio() > 1.0);
    }

    #[test]
    fn a_killed_waiter_leaves_nothing_behind() {
        let mut lt = LockTable::new();
        lt.acquire_up_to(1, &[7], 1);
        lt.acquire_up_to(2, &[7], 1);
        lt.acquire_up_to(3, &[7], 1);
        lt.release_all(2);
        assert_eq!(lt.blocked_on(2), None);
        assert_eq!(lt.blocked_count(), 1);
        lt.release_all(1);
        assert_eq!(lt.acquire_up_to(3, &[7], 1), LockOutcome::Granted);
        lt.release_all(3);
        assert!(lt.is_empty());
    }

    #[test]
    fn blocking_on_one_key_then_another_leaves_nothing_behind() {
        // Benchmark finding 1: a transaction that blocked on key 1, got
        // it, and then blocked on key 2 used to stay queued on key 1 for
        // the rest of the run.
        let mut lt = LockTable::new();
        lt.acquire_up_to(1, &[1], 1);
        lt.acquire_up_to(2, &[2], 1);
        assert_eq!(lt.acquire_up_to(3, &[1, 2], 2), LockOutcome::Blocked(1));
        lt.release_all(1);
        assert_eq!(lt.acquire_up_to(3, &[1, 2], 2), LockOutcome::Blocked(2));
        assert_eq!(lt.blocked_on(3), Some(2));
        lt.release_all(2);
        assert_eq!(lt.acquire_up_to(3, &[1, 2], 2), LockOutcome::Granted);
        lt.release_all(3);
        assert!(lt.is_empty());
    }

    #[test]
    fn ordered_acquisition_prevents_deadlock() {
        // Txn A holds 1 and wants 2; txn B holds 2. B can always finish
        // because it never waits on a *smaller* key it doesn't hold —
        // verify the scenario resolves.
        let mut lt = LockTable::new();
        assert_eq!(lt.acquire_up_to(1, &[1, 2], 1), LockOutcome::Granted);
        assert_eq!(lt.acquire_up_to(2, &[2, 3], 2), LockOutcome::Granted);
        assert_eq!(lt.acquire_up_to(1, &[1, 2], 2), LockOutcome::Blocked(2));
        lt.release_all(2);
        assert_eq!(lt.acquire_up_to(1, &[1, 2], 2), LockOutcome::Granted);
    }
}
