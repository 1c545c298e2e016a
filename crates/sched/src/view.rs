//! Exact ordered job views: the one index every built-in policy picks
//! from.
//!
//! SimMR's scheduler contract (§III-C) asks a policy for the best job
//! of the queue, by the policy's order, among the jobs that can take a
//! task of one kind. An [`OrderedView`] answers that in O(log n): a
//! `BTreeSet` that holds **exactly** the jobs whose predicate currently
//! holds, each under its policy key (a tuple ending in the job id, so
//! the order is total). The best job is [`OrderedView::first`] or
//! [`OrderedView::last`].
//!
//! Views are maintained from the engine's entry hooks, which report
//! every change to a queued entry with its state before and after
//! ([`SchedulerPolicy::on_job_queued`] /
//! [`on_entry_mutated`](SchedulerPolicy::on_entry_mutated) /
//! [`on_job_dequeued`](SchedulerPolicy::on_job_dequeued)). A policy
//! computes the entry's membership bits — whether it qualifies for each
//! of its views — before and after the change and hands both sides to
//! [`update_views`], which is flip-only: a view is touched, and a key
//! computed, only where a bit flips. Most mutations (a launch or a
//! departure that leaves work pending) flip nothing and cost a few
//! comparisons of bits. Only a policy whose key can change while a job
//! stays in a view (fair share orders by running tasks) passes
//! `keys_move`, which re-keys a member whose key changed.
//!
//! [`OrderedView::verify`] re-derives a view from the queue under the
//! invariant checker and panics in its format unless the sets are equal:
//! a missed or wrong hook shows up as a missing or extra member.
//! [`verify_decision`] then holds each decision a policy reads from its
//! views to the same decision re-derived by a queue scan, so a pick from
//! the wrong view or the wrong end of one shows up too.
//!
//! [`SchedulerPolicy::on_job_queued`]: simmr_core::SchedulerPolicy::on_job_queued

use simmr_core::JobEntry;
use std::collections::BTreeSet;
use std::fmt::{Debug, Display};

/// The jobs whose predicate holds, in policy-key order.
#[derive(Debug, Clone)]
pub struct OrderedView<K>(BTreeSet<K>);

impl<K> Default for OrderedView<K> {
    fn default() -> Self {
        OrderedView(BTreeSet::new())
    }
}

impl<K: Ord + Copy + Debug> OrderedView<K> {
    /// Moves one job from key `before` to key `after`, `None` meaning
    /// "not in the view": removes `before` and inserts `after`, unless
    /// the two are equal.
    pub fn update(&mut self, before: Option<K>, after: Option<K>) {
        if before == after {
            return;
        }
        if let Some(k) = before {
            self.0.remove(&k);
        }
        if let Some(k) = after {
            self.0.insert(k);
        }
    }

    /// The smallest key.
    pub fn first(&self) -> Option<K> {
        self.0.first().copied()
    }

    /// The largest key.
    pub fn last(&self) -> Option<K> {
        self.0.last().copied()
    }

    /// Checks the view against the keys re-derived from the queue.
    ///
    /// # Panics
    ///
    /// Panics in the invariant checker's format, naming the missing and
    /// extra members, unless the view holds exactly `expected`.
    pub fn verify(&self, expected: impl IntoIterator<Item = K>, view: &dyn Display) {
        let mut expected: Vec<K> = expected.into_iter().collect();
        expected.sort_unstable();
        if !expected.iter().eq(&self.0) {
            let missing: Vec<_> = expected.iter().filter(|k| !self.0.contains(k)).collect();
            let extra: Vec<_> =
                self.0.iter().filter(|k| expected.binary_search(k).is_err()).collect();
            panic!(
                "engine invariant violated [job-view]: {view} view is missing {missing:?} and \
                 holds extra {extra:?}"
            );
        }
    }
}

/// An entry's membership in a family of views: bit `i` is set where it
/// qualifies for `views[i]`. Policies build it with shifts and ors, so it
/// stays in a register.
pub type Members = u32;

/// Moves one job across a family of views, flip-only. Each side is the
/// entry and its [`Members`] bits (0 for a job not in the queue, so
/// queueing and dequeueing are changes too); `key(i, e)` is entry `e`'s
/// key in `views[i]`. A view whose bit flips gains or loses the job;
/// one whose bit stays set is left alone unless `keys_move`, where the
/// job is re-keyed if its key changed. With no flip and no moving key,
/// the call is one xor.
pub fn update_views<K: Ord + Copy + Debug, const N: usize>(
    views: &mut [OrderedView<K>; N],
    (before, was): (&JobEntry, Members),
    (after, is): (&JobEntry, Members),
    keys_move: bool,
    key: impl Fn(usize, &JobEntry) -> K,
) {
    // a moving key may have changed in any view the job stays in
    let touched = if keys_move { Members::MAX } else { was ^ is };
    if touched == 0 {
        return;
    }
    for (i, view) in views.iter_mut().enumerate() {
        let bit = 1 << i;
        if touched & bit != 0 {
            let old = (was & bit != 0).then(|| key(i, before));
            view.update(old, (is & bit != 0).then(|| key(i, after)));
        }
    }
}

/// An entry's keys across a family of views: `key(i, e)` where its bit
/// for view `i` is set, else `None` — the form [`verify_views`] takes.
pub fn keys_of<K, const N: usize>(
    e: &JobEntry,
    is: Members,
    key: impl Fn(usize, &JobEntry) -> K,
) -> [Option<K>; N] {
    std::array::from_fn(|i| (is >> i & 1 != 0).then(|| key(i, e)))
}

/// Verifies a family of views against the keys of every queued entry
/// (built by [`keys_of`]); the panic message names `views[i]` as
/// `"{owner} {names[i]}"`.
pub fn verify_views<K: Ord + Copy + Debug, const N: usize>(
    views: &[OrderedView<K>; N],
    keys: &[[Option<K>; N]],
    owner: &str,
    names: [&str; N],
) {
    for (i, view) in views.iter().enumerate() {
        view.verify(keys.iter().filter_map(|k| k[i]), &format_args!("{owner} {}", names[i]));
    }
}

/// Checks one decision a policy read from its views against the same
/// decision re-derived by a naive scan of the queue.
///
/// # Panics
///
/// Panics in the invariant checker's format, under the `check` name,
/// unless the two agree.
pub fn verify_decision<T: PartialEq + Debug>(check: &str, decision: &dyn Display, got: T, scan: T) {
    if got != scan {
        panic!(
            "engine invariant violated [{check}]: {decision} is {got:?}, but a queue scan gives \
             {scan:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(keys: &[u32]) -> OrderedView<u32> {
        let mut v = OrderedView::default();
        for &k in keys {
            v.update(None, Some(k));
        }
        v
    }

    #[test]
    fn equal_keys_are_a_no_op() {
        let mut v = view(&[3, 7]);
        v.update(Some(3), Some(3));
        v.update(None, None);
        v.verify([3, 7], &"test");
        // an equal pair never touches the set, even for a non-member
        v.update(Some(5), Some(5));
        v.verify([3, 7], &"test");
    }

    #[test]
    fn a_changed_key_moves_the_job() {
        let mut v = view(&[3, 7]);
        assert_eq!((v.first(), v.last()), (Some(3), Some(7)));
        v.update(Some(3), Some(9));
        assert_eq!((v.first(), v.last()), (Some(7), Some(9)));
        v.update(Some(9), None);
        v.update(Some(7), None);
        assert_eq!((v.first(), v.last()), (None, None));
        v.update(None, Some(1));
        v.verify([1], &"test");
    }

    fn entry(id: u32, running_maps: usize) -> JobEntry {
        JobEntry {
            id: simmr_types::JobId(id),
            arrival: simmr_types::SimTime::ZERO,
            deadline: None,
            pending_maps: 0,
            running_maps,
            completed_maps: 0,
            total_maps: 0,
            pending_reduces: 0,
            running_reduces: 0,
            completed_reduces: 0,
            total_reduces: 0,
            reduce_eligible: false,
        }
    }

    #[test]
    fn update_views_moves_each_view_independently() {
        // key: the job id, plus the running maps in view 1
        let key = |i: usize, e: &JobEntry| e.id.0 + if i == 1 { e.running_maps as u32 } else { 0 };
        let (before, after) = (entry(1, 0), entry(1, 1));
        let mut views = [view(&[]), view(&[1]), view(&[1])];
        // view 0 gains the job, view 1 keeps it, view 2 loses it
        let (was, is) = (0b110, 0b011);
        update_views(&mut views, (&before, was), (&after, is), false, key);
        verify_views(&views, &[[Some(1), Some(1), None]], "test", ["a", "b", "c"]);
        // a set bit that stays set is re-keyed only when keys move
        let mut views = [view(&[]), view(&[1]), view(&[1])];
        update_views(&mut views, (&before, was), (&after, is), true, key);
        verify_views(&views, &[keys_of(&after, is, key)], "test", ["a", "b", "c"]);
        assert_eq!(views[1].first(), Some(2));
    }

    #[test]
    #[should_panic(expected = "engine invariant violated [job-view]: test view is missing [5]")]
    fn verify_panics_on_a_missing_member() {
        view(&[3]).verify([3, 5], &"test");
    }

    #[test]
    #[should_panic(
        expected = "engine invariant violated [policy-pick]: test pick is Some(7), but a queue \
                    scan gives Some(3)"
    )]
    fn verify_decision_panics_on_a_different_answer() {
        let v = view(&[3, 7]);
        verify_decision("policy-pick", &"test pick", v.first(), Some(3));
        verify_decision("policy-pick", &"test pick", v.last(), Some(3));
    }

    #[test]
    #[should_panic(expected = "holds extra [5]")]
    fn verify_panics_on_an_extra_member() {
        view(&[3, 5]).verify([3], &"test");
    }
}
