//! Per-job policy state indexed by job id over the live span only.
//!
//! A policy that keeps a value per active job (MinEDF's wanted caps,
//! hier's job → leaf routing) reads it on every entry mutation. An
//! [`IdWindow`] makes that read one checked index, with no hashing, and
//! stores only the span from the oldest to the newest live id rather than
//! every id the trace ever admitted. Ids may come and go in any order (a
//! resume replays the queue in arrival order, and departures follow the
//! schedule). The span is held open by a job that stays active while
//! later ones come and go.

use simmr_types::JobId;
use std::collections::VecDeque;

/// A value per live job id, from the oldest live id to the newest.
#[derive(Debug, Clone)]
pub(crate) struct IdWindow<T> {
    /// Job id of `slots[0]`.
    pub(crate) base: usize,
    /// `None` marks a departed job inside the span; both ends are `Some`.
    pub(crate) slots: VecDeque<Option<T>>,
}

impl<T> Default for IdWindow<T> {
    fn default() -> Self {
        IdWindow { base: 0, slots: VecDeque::new() }
    }
}

impl<T: Copy> IdWindow<T> {
    /// The value of job `id`, if it is live.
    pub(crate) fn get(&self, id: JobId) -> Option<T> {
        self.slots.get(id.index().wrapping_sub(self.base)).copied().flatten()
    }

    /// Sets the value of job `id`, widening the span as needed.
    pub(crate) fn insert(&mut self, id: JobId, value: T) {
        let i = id.index();
        if self.slots.is_empty() {
            self.base = i;
        }
        while i < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        if i - self.base >= self.slots.len() {
            self.slots.resize(i - self.base + 1, None);
        }
        self.slots[i - self.base] = Some(value);
    }

    /// Drops job `id`'s value and trims the span at both ends.
    pub(crate) fn remove(&mut self, id: JobId) {
        if let Some(slot) = self.slots.get_mut(id.index().wrapping_sub(self.base)) {
            *slot = None;
        }
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        while matches!(self.slots.back(), Some(None)) {
            self.slots.pop_back();
        }
    }

    /// The live `(id, value)` pairs, sorted by id.
    pub(crate) fn live(&self) -> Vec<(u32, T)> {
        let base = self.base;
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| ((base + i) as u32, v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_in_any_order_and_both_ends_trim() {
        let mut w = IdWindow::default();
        for id in [7u32, 3, 9, 5] {
            w.insert(JobId(id), id * 10);
        }
        assert_eq!(w.live(), vec![(3, 30), (5, 50), (7, 70), (9, 90)]);
        assert_eq!((w.get(JobId(4)), w.get(JobId(9)), w.get(JobId(0))), (None, Some(90), None));
        w.remove(JobId(3));
        w.remove(JobId(9));
        assert_eq!((w.base, w.slots.len()), (5, 3));
        w.insert(JobId(5), 55);
        assert_eq!(w.get(JobId(5)), Some(55));
        w.remove(JobId(7));
        w.remove(JobId(5));
        assert!(w.slots.is_empty());
        // removing an id outside the span is a no-op
        w.remove(JobId(1));
        assert!(w.live().is_empty());
    }
}
