//! The event priority queue: a monotone radix queue on event time.
//!
//! Every pending event is at or after the queue's *base*, the time of the
//! last popped event. Events at the base wait in the *lane*, in `seq`
//! order: a `Vec` read from a head index and cleared once drained. Every
//! other event waits in bucket *i*, where *i* is the highest bit in which
//! its time differs from the base. All of bucket *i* is later than all of
//! bucket *j < i*, so the lowest occupied bucket (one `trailing_zeros` of
//! the `occupied` mask) holds the next instant. A pop from an empty lane
//! moves the base to that bucket's minimum (kept per bucket) and
//! redistributes the bucket: its events at the new base enter the lane and
//! the rest fall into lower buckets; a bucket of one event moves straight
//! to the lane. Buckets above it keep their index, since the new base
//! agrees with the old one on every bit above *i*. A push is one xor and a
//! leading-zeros count, and a peek reads the lane's head or the lowest
//! bucket's minimum.
//!
//! The lane needs no sort: the events of one instant always share one
//! container, in `seq` order. A push appends the largest `seq` yet, and a
//! refill (or a rebase) moves events in order into containers that hold
//! nothing of their instant, since the lane is drained and every bucket
//! below the refilled one is empty.
//!
//! The engine only pushes at or after the last popped time. A push earlier
//! than the base is still ordered correctly: it rebases the whole queue on
//! the new event's time, a cold path the engine never takes.

use crate::event::{Event, EventKind};
use simmr_types::{JobId, SimTime};

/// Bits in an event time, hence buckets.
const BUCKETS: usize = u64::BITS as usize;

/// A deterministic min-priority queue of [`Event`]s, ordered by
/// `(time, insertion sequence)`.
#[derive(Debug, Clone)]
pub struct EventQueue {
    /// The last popped time (or the earliest pushed one, after a rebase):
    /// no pending event is earlier.
    base: u64,
    /// The pending events at `base` are `lane[head..]`, in `seq` order.
    lane: Vec<Event>,
    head: usize,
    /// Bucket `i`: pending events whose time first differs from `base` in
    /// bit `i`.
    buckets: [Vec<Event>; BUCKETS],
    /// The earliest time in each bucket (`u64::MAX` when empty).
    mins: [u64; BUCKETS],
    /// Bit `i` set iff bucket `i` is non-empty.
    occupied: u64,
    len: usize,
    next_seq: u64,
    pushed: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            base: 0,
            lane: Vec::new(),
            head: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            mins: [u64::MAX; BUCKETS],
            occupied: 0,
            len: 0,
            next_seq: 0,
            pushed: 0,
        }
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules an event; insertion order breaks same-time ties.
    pub fn push(&mut self, time: SimTime, kind: EventKind, job: JobId, task_index: u32) {
        self.push_attempt(time, kind, job, task_index, 0);
    }

    /// Schedules an event carrying a task attempt generation.
    pub fn push_attempt(
        &mut self,
        time: SimTime,
        kind: EventKind,
        job: JobId,
        task_index: u32,
        attempt: u32,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        let event = Event { time, seq, kind, job, task_index, attempt };
        if time.as_millis() < self.base {
            self.rebase(event);
        } else {
            self.insert(event);
        }
        self.len += 1;
    }

    /// Files an event at or after `base` into the lane or its bucket. The
    /// lane stays in `seq` order because a new event's `seq` is the
    /// largest yet.
    fn insert(&mut self, event: Event) {
        let t = event.time.as_millis();
        let diff = t ^ self.base;
        if diff == 0 {
            self.lane.push(event);
            return;
        }
        let i = (u64::BITS - 1 - diff.leading_zeros()) as usize;
        self.buckets[i].push(event);
        self.mins[i] = self.mins[i].min(t);
        self.occupied |= 1 << i;
    }

    /// The cold path of a push earlier than `base`: refiles every pending
    /// event against the new event's time, which becomes the base and the
    /// lane's only event.
    fn rebase(&mut self, event: Event) {
        let mut pending: Vec<Event> = self.lane.drain(self.head..).collect();
        for bucket in &mut self.buckets {
            pending.append(bucket);
        }
        self.mins = [u64::MAX; BUCKETS];
        self.occupied = 0;
        self.base = event.time.as_millis();
        self.lane.clear();
        self.head = 0;
        self.lane.push(event);
        for e in pending {
            self.insert(e);
        }
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        if self.head == self.lane.len() {
            if self.occupied == 0 {
                return None;
            }
            self.lane.clear();
            self.head = 0;
            let i = self.occupied.trailing_zeros() as usize;
            self.base = self.mins[i];
            self.mins[i] = u64::MAX;
            self.occupied &= !(1 << i);
            if self.buckets[i].len() == 1 {
                // half the refills of a 64x64 FIFO replay (50.6% of 100k
                // at 700 jobs); moving the event straight to the lane cut
                // bench_engine's queue row from 9.4 to 7.7 ms per run
                // (2-vCPU Xeon VM, medians of 8 runs pinned to one core)
                self.lane.append(&mut self.buckets[i]);
            } else {
                // every bucket below `i` is empty, so the refiled events
                // land in the lane or in buckets that held nothing
                let mut bucket = std::mem::take(&mut self.buckets[i]);
                for e in bucket.drain(..) {
                    self.insert(e);
                }
                self.buckets[i] = bucket;
            }
            debug_assert!(self.lane.is_sorted_by_key(|e| e.seq), "lane out of seq order");
        }
        self.len -= 1;
        self.head += 1;
        Some(self.lane[self.head - 1])
    }

    /// Peeks at the earliest event's time. O(1).
    pub fn next_time(&self) -> Option<SimTime> {
        match self.lane.get(self.head) {
            Some(e) => Some(e.time),
            None => (self.occupied != 0)
                .then(|| SimTime::from_millis(self.mins[self.occupied.trailing_zeros() as usize])),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever pushed (the engine's event count).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// The pending events in deterministic `(time, seq)` order, plus the
    /// `(next_seq, pushed)` counters — everything a checkpoint needs to
    /// reconstruct a queue that behaves identically to this one.
    pub(crate) fn snapshot(&self) -> (Vec<Event>, u64, u64) {
        let mut events: Vec<Event> = self.lane[self.head..].to_vec();
        for bucket in &self.buckets {
            events.extend_from_slice(bucket);
        }
        events.sort_unstable();
        (events, self.next_seq, self.pushed)
    }

    /// Rebuilds a queue from a [`Self::snapshot`]: every event keeps its
    /// original sequence number, so same-time ties break exactly as they
    /// would have in the run that produced the snapshot. The rebuilt queue
    /// starts from base 0 and may file events in other buckets, but pop
    /// order is a total order over `(time, seq)`, so the difference is
    /// unobservable. `events` must be in `(time, seq)` order, as snapshots
    /// are and checkpoint decode checks.
    pub(crate) fn from_snapshot(events: Vec<Event>, next_seq: u64, pushed: u64) -> Self {
        debug_assert!(events.is_sorted(), "snapshot events out of (time, seq) order");
        let mut q = EventQueue { len: events.len(), next_seq, pushed, ..EventQueue::default() };
        for e in events {
            q.insert(e);
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), EventKind::JobArrival, JobId(0), 0);
        q.push(SimTime::from_millis(10), EventKind::JobArrival, JobId(1), 0);
        q.push(SimTime::from_millis(20), EventKind::JobArrival, JobId(2), 0);
        assert_eq!(q.pop().unwrap().job, JobId(1));
        assert_eq!(q.pop().unwrap().job, JobId(2));
        assert_eq!(q.pop().unwrap().job, JobId(0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_time_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.push(t, EventKind::MapTaskDeparture, JobId(i), 0);
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().job, JobId(i));
        }
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, EventKind::JobArrival, JobId(0), 0);
        q.push(SimTime::ZERO, EventKind::JobArrival, JobId(1), 0);
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_pushed(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.next_time(), Some(SimTime::ZERO));
    }

    #[test]
    fn push_before_the_last_pop_rebases() {
        let mut q = EventQueue::new();
        for t in [100, 100, 300, 200] {
            q.push(SimTime::from_millis(t), EventKind::JobArrival, JobId(t as u32), 0);
        }
        assert_eq!(q.pop().unwrap().seq, 0);
        // earlier than the last popped time, then a tie with a lane event
        q.push(SimTime::from_millis(50), EventKind::PolicyWakeup, JobId(0), 0);
        q.push(SimTime::from_millis(100), EventKind::PolicyWakeup, JobId(0), 0);
        assert_eq!(q.next_time(), Some(SimTime::from_millis(50)));
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop()).map(|e| (e.time.as_millis(), e.seq)).collect();
        assert_eq!(order, vec![(50, 4), (100, 1), (100, 5), (200, 3), (300, 2)]);
    }

    proptest! {
        /// Popped times are non-decreasing regardless of push order.
        #[test]
        fn monotone_pop(times in proptest::collection::vec(0u64..10_000, 1..300)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_millis(t), EventKind::JobArrival, JobId(i as u32), 0);
            }
            let mut last = SimTime::ZERO;
            while let Some(e) = q.pop() {
                prop_assert!(e.time >= last);
                last = e.time;
            }
        }

        /// The queue against a `BinaryHeap` reference model over random
        /// interleavings of push (ties, at the last popped time, ahead of
        /// it, and before it), pop, peek (also right after each pop, where
        /// the engine's same-instant test reads it) and a snapshot round
        /// trip.
        #[test]
        fn matches_a_binary_heap(ops in proptest::collection::vec((0u8..8, 0u64..64), 1..400)) {
            let mut q = EventQueue::new();
            let mut model: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
            let mut model_seq = 0u64;
            let mut last = 0u64;
            for (op, arg) in ops {
                match op {
                    0..=3 => {
                        let t = match op {
                            0 => last,
                            1 => last + arg,
                            2 => last + (arg << (arg % 40)),
                            _ => last.saturating_sub(arg),
                        };
                        let time = SimTime::from_millis(t);
                        q.push_attempt(time, EventKind::MapTaskDeparture, JobId(0), 0, op as u32);
                        model.push(Reverse(Event {
                            time,
                            seq: model_seq,
                            kind: EventKind::MapTaskDeparture,
                            job: JobId(0),
                            task_index: 0,
                            attempt: op as u32,
                        }));
                        model_seq += 1;
                    }
                    4 | 5 => {
                        let got = q.pop();
                        prop_assert_eq!(got, model.pop().map(|Reverse(e)| e));
                        if let Some(e) = got {
                            last = e.time.as_millis();
                        }
                        // the engine's same-instant batch test peeks here
                        prop_assert_eq!(q.next_time(), model.peek().map(|Reverse(e)| e.time));
                    }
                    6 => {
                        prop_assert_eq!(q.next_time(), model.peek().map(|Reverse(e)| e.time));
                    }
                    _ => {
                        let (events, next_seq, pushed) = q.snapshot();
                        let mut sorted: Vec<Event> = model.iter().map(|Reverse(e)| *e).collect();
                        sorted.sort_unstable();
                        prop_assert_eq!(&events, &sorted);
                        q = EventQueue::from_snapshot(events, next_seq, pushed);
                    }
                }
                prop_assert_eq!(q.len(), model.len());
            }
            while let Some(Reverse(e)) = model.pop() {
                prop_assert_eq!(q.pop(), Some(e));
            }
            prop_assert!(q.pop().is_none());
        }
    }
}
