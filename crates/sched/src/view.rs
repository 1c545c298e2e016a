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
//! computes the entry's key for each of its views before and after the
//! change — `None` where the view's predicate fails — and hands both to
//! [`update_views`]. Equal keys are a no-op, so a mutation that moves
//! nothing the view orders by costs one comparison. Keys may change
//! while a job stays in a view (fair share orders by running tasks).
//!
//! [`OrderedView::verify`] re-derives a view from the queue under the
//! invariant checker and panics in its format unless the sets are equal:
//! a missed or wrong hook shows up as a missing or extra member.
//! [`verify_decision`] then holds each decision a policy reads from its
//! views to the same decision re-derived by a queue scan, so a pick from
//! the wrong view or the wrong end of one shows up too.
//!
//! [`SchedulerPolicy::on_job_queued`]: simmr_core::SchedulerPolicy::on_job_queued

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

/// Moves one job across a family of views: `before[i]` and `after[i]`
/// are its keys in `views[i]` before and after a change.
pub fn update_views<K: Ord + Copy + Debug, const N: usize>(
    views: &mut [OrderedView<K>; N],
    before: [Option<K>; N],
    after: [Option<K>; N],
) {
    for i in 0..N {
        views[i].update(before[i], after[i]);
    }
}

/// Verifies a family of views against the keys of every queued entry
/// (`keys` as passed to [`update_views`]); the panic message names
/// `views[i]` as `"{owner} {names[i]}"`.
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

    #[test]
    fn update_views_moves_each_view_independently() {
        let mut views = [view(&[1]), view(&[1])];
        update_views(&mut views, [Some(1), Some(1)], [Some(2), None]);
        verify_views(&views, &[[Some(2), None]], "test", ["a", "b"]);
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
