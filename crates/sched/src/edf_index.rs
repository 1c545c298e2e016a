//! Deadline-ordered incremental index for the EDF policy.
//!
//! The original MaxEDF/MinEDF implementations scanned the whole
//! [`JobQueue`](simmr_core::JobQueue) with `min_by_key(edf_key)` on every
//! map/reduce pick and every preemption check — O(active jobs) per
//! decision, O(n²) per run, the last quadratic policy in the tree
//! (`maxedf` ran ~85× slower than `fifo` at 10k jobs). This module
//! replaces the scans with **keyed lazy-deletion heaps** maintained in
//! O(log n) per queue mutation from the three `SchedulerPolicy` hooks
//! (`on_job_queued` / `on_entry_mutated` / `on_job_dequeued`).
//!
//! # Design
//!
//! A job's EDF key `(deadline, arrival, id)` is **immutable** for the
//! job's whole lifetime, so the index never re-prioritizes an entry —
//! the only thing that changes is whether the job currently *qualifies*
//! for a view (has a schedulable map, has a schedulable reduce, has a
//! running map to lose). Each view is an [`EdfHeap`]:
//!
//! * a binary heap of keys (min-order for the "most urgent schedulable"
//!   views, max-order for the "latest-deadline running victim" view),
//! * plus one membership flag per job id.
//!
//! **Insertion is edge-triggered:** the owning policy offers a job's key
//! whenever its qualifying predicate transitions false → true (the hook
//! delivers the entry before and after every mutation, so the edge is
//! always observable). The membership flag suppresses duplicates — a
//! job has at most one entry per heap at any time.
//!
//! **Deletion is lazy:** nothing is removed when a predicate turns false
//! or a job departs. Instead, [`EdfHeap::peek_valid`] re-validates the
//! top against the live queue through a caller-supplied predicate and
//! pops stale entries (clearing their membership) until a valid top
//! surfaces. Every pop is paid for by an earlier edge-triggered push,
//! so the amortized cost per queue mutation stays O(log n); a peek that
//! finds the top already valid is O(1).
//!
//! The key embeds the job id, which makes the order total — no two
//! entries compare equal — so both heap orders are deterministic, and
//! the valid top of a min view is *exactly* the job a full
//! `min_by_key(edf_key)` scan over qualifying entries would return.
//! [`DeadlineIndex::verify_against`] checks that equivalence's one
//! precondition (every qualifying job is a member) against a full-scan
//! oracle; the [`EdfPolicy::with_full_scan`](crate::EdfPolicy::with_full_scan)
//! reference mode and the `edf_incremental_matches_full_scan_reference`
//! differential proptest in `tests/` hold the schedules themselves to it.

use simmr_core::JobEntry;
use simmr_types::{JobId, SimTime};
use std::collections::BinaryHeap;

/// The EDF ordering key: `(deadline, arrival, id)`, jobs without a
/// deadline last. Identical to [`JobEntry::edf_key`] and immutable for
/// a job's lifetime.
pub type EdfKey = (SimTime, SimTime, JobId);

/// Heap slot wrapper: `MAX = false` builds a min-heap over [`EdfKey`]
/// (most urgent first), `MAX = true` a max-heap (latest deadline first).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Slot<const MAX: bool>(EdfKey);

impl<const MAX: bool> Ord for Slot<MAX> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if MAX {
            self.0.cmp(&other.0)
        } else {
            other.0.cmp(&self.0)
        }
    }
}

impl<const MAX: bool> PartialOrd for Slot<MAX> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One view of the index: a keyed heap with lazy deletion.
///
/// Membership invariant (maintained by the owning policy): **every job
/// whose qualifying predicate currently holds is a member.** Members
/// whose predicate has since turned false are stale and are skipped (and
/// evicted) by [`Self::peek_valid`] on contact.
#[derive(Debug, Clone, Default)]
pub struct EdfHeap<const MAX: bool> {
    heap: BinaryHeap<Slot<MAX>>,
    /// `member[id] == true` ⇔ the heap holds exactly one entry for `id`.
    member: Vec<bool>,
}

impl<const MAX: bool> EdfHeap<MAX> {
    /// Inserts `key` unless its job is already a member — O(log n), and
    /// a no-op for already-present jobs, so offering on every predicate
    /// edge is safe.
    pub fn offer(&mut self, key: EdfKey) {
        let i = key.2.index();
        if i >= self.member.len() {
            self.member.resize(i + 1, false);
        }
        if !self.member[i] {
            self.member[i] = true;
            self.heap.push(Slot(key));
        }
    }

    /// True if the heap currently holds an entry for `id` (which may be
    /// stale until the next validated peek evicts it).
    pub fn contains(&self, id: JobId) -> bool {
        self.member.get(id.index()).copied().unwrap_or(false)
    }

    /// Number of entries (valid + stale) currently in the heap.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when the heap holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The best key whose job still satisfies `valid`, evicting stale
    /// tops on the way. Does **not** remove the returned entry: the job
    /// keeps its heap slot until it actually stops qualifying.
    pub fn peek_valid(&mut self, mut valid: impl FnMut(JobId) -> bool) -> Option<EdfKey> {
        while let Some(top) = self.heap.peek() {
            let key = top.0;
            if valid(key.2) {
                return Some(key);
            }
            self.member[key.2.index()] = false;
            self.heap.pop();
        }
        None
    }

    /// Heap/membership consistency: exactly one heap entry per member
    /// flag. O(n); invariant-checker only.
    fn members_consistent(&self) -> bool {
        self.heap.len() == self.member.iter().filter(|&&m| m).count()
    }
}

/// The three views the EDF policy schedules from.
///
/// The map/reduce views order *schedulable* jobs most-urgent-first (what
/// `choose_next_map_task` / `choose_next_reduce_task` pop); the running
/// view orders jobs with running maps latest-deadline-first (the
/// preemption victim search). What "schedulable" means is the owning
/// policy's business — it layers its under-`wanted`-cap filter (vacuous
/// under MaxEDF) into the predicate it offers edges for and validates
/// peeks with; the index itself only sees the resulting booleans.
#[derive(Debug, Clone, Default)]
pub struct DeadlineIndex {
    /// Min view over jobs with a schedulable map.
    pub maps: EdfHeap<false>,
    /// Min view over jobs with a schedulable reduce.
    pub reduces: EdfHeap<false>,
    /// Max view over jobs with at least one running map (victim pool).
    pub running: EdfHeap<true>,
}

impl DeadlineIndex {
    /// Records one job's predicate transitions: each view receives the
    /// key when its predicate goes false → true. Pass the pre-mutation
    /// state as all-false for a freshly queued job.
    pub fn apply(
        &mut self,
        key: EdfKey,
        map: (bool, bool),
        reduce: (bool, bool),
        running: (bool, bool),
    ) {
        if !map.0 && map.1 {
            self.maps.offer(key);
        }
        if !reduce.0 && reduce.1 {
            self.reduces.offer(key);
        }
        if !running.0 && running.1 {
            self.running.offer(key);
        }
    }

    /// The latest-deadline job with a running map to lose on behalf of
    /// `urgent` — a job with a strictly later key than the urgent job,
    /// per the shared EDF preemption rule. `has_running_map` validates
    /// candidates against the live queue. A plain peek suffices: keys
    /// are a total order, so if the running-view top *is* the urgent job
    /// (or sorts at or before it) no other running job can sort strictly
    /// after the urgent one either.
    pub fn preemption_victim(
        &mut self,
        urgent: EdfKey,
        has_running_map: impl FnMut(JobId) -> bool,
    ) -> Option<JobId> {
        let victim = self.running.peek_valid(has_running_map)?;
        (victim > urgent).then_some(victim.2)
    }

    /// Cross-checks the index against a full scan of the live queue:
    /// every entry for which `map_ok` / `reduce_ok` / running-maps holds
    /// must be a member of the corresponding view, and each view's heap
    /// must agree with its membership flags. Stale members are legal —
    /// that is the lazy-deletion debt — so this is a one-sided check;
    /// the differential proptest pins the schedules themselves.
    ///
    /// # Panics
    ///
    /// Panics in the invariant checker's format on any violation.
    pub fn verify_against<'a>(
        &self,
        entries: impl Iterator<Item = (&'a JobEntry, bool, bool)>,
        policy: &str,
    ) {
        for (e, map_ok, reduce_ok) in entries {
            let views: [(&str, bool, bool); 3] = [
                ("map", map_ok, self.maps.contains(e.id)),
                ("reduce", reduce_ok, self.reduces.contains(e.id)),
                ("running", e.running_maps > 0, self.running.contains(e.id)),
            ];
            for (view, qualifies, member) in views {
                if qualifies && !member {
                    panic!(
                        "engine invariant violated [edf-index]: {policy} job {} qualifies for \
                         the {view} view but is not indexed (entry {e:?})",
                        e.id
                    );
                }
            }
        }
        for (view, consistent) in [
            ("map", self.maps.members_consistent()),
            ("reduce", self.reduces.members_consistent()),
            ("running", self.running.members_consistent()),
        ] {
            if !consistent {
                panic!(
                    "engine invariant violated [edf-index]: {policy} {view} view heap and \
                     membership flags disagree"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(id: u32, deadline: u64) -> EdfKey {
        (SimTime::from_millis(deadline), SimTime::ZERO, JobId(id))
    }

    #[test]
    fn min_heap_orders_by_deadline() {
        let mut h: EdfHeap<false> = EdfHeap::default();
        h.offer(key(0, 500));
        h.offer(key(1, 100));
        h.offer(key(2, 300));
        assert_eq!(h.peek_valid(|_| true), Some(key(1, 100)));
        // peeking does not remove
        assert_eq!(h.len(), 3);
        assert_eq!(h.peek_valid(|_| true), Some(key(1, 100)));
    }

    #[test]
    fn max_heap_orders_latest_first() {
        let mut h: EdfHeap<true> = EdfHeap::default();
        h.offer(key(0, 500));
        h.offer(key(1, 100));
        assert_eq!(h.peek_valid(|_| true), Some(key(0, 500)));
    }

    #[test]
    fn offer_deduplicates_by_membership() {
        let mut h: EdfHeap<false> = EdfHeap::default();
        h.offer(key(3, 100));
        h.offer(key(3, 100));
        h.offer(key(3, 100));
        assert_eq!(h.len(), 1);
        assert!(h.contains(JobId(3)));
        assert!(!h.contains(JobId(4)));
    }

    #[test]
    fn stale_tops_are_evicted_and_can_rejoin() {
        let mut h: EdfHeap<false> = EdfHeap::default();
        h.offer(key(1, 100));
        h.offer(key(2, 200));
        // job 1 no longer qualifies: evicted on contact, membership drops
        assert_eq!(h.peek_valid(|id| id != JobId(1)), Some(key(2, 200)));
        assert_eq!(h.len(), 1);
        assert!(!h.contains(JobId(1)));
        // a later false → true edge re-offers it
        h.offer(key(1, 100));
        assert_eq!(h.peek_valid(|_| true), Some(key(1, 100)));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn preemption_victim_requires_strictly_later_deadline() {
        let mut index = DeadlineIndex::default();
        index.running.offer(key(1, 500));
        index.running.offer(key(2, 900));
        // urgent at 100: job 2 (latest deadline) is the victim
        assert_eq!(index.preemption_victim(key(0, 100), |_| true), Some(JobId(2)));
        // the urgent job is itself the latest-deadline running job: no
        // other running job can sort strictly after it
        assert_eq!(index.preemption_victim(key(2, 900), |_| true), None);
        // no running job has a strictly later deadline than the urgent
        assert_eq!(index.preemption_victim(key(0, 1_000), |_| true), None);
        // equal deadline: the id tiebreak decides strictness both ways
        assert_eq!(index.preemption_victim(key(3, 900), |_| true), None);
        assert_eq!(index.preemption_victim(key(0, 900), |_| true), Some(JobId(2)));
        // victims must still be running; stale entries evict on contact
        assert_eq!(index.preemption_victim(key(0, 100), |id| id != JobId(2)), Some(JobId(1)));
        assert!(!index.running.contains(JobId(2)));
    }
}
