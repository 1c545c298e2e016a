//! Running task attempts, one table per slot kind, indexed by the slot
//! each attempt occupies.
//!
//! A slot holds at most one attempt, so the engine keeps the live
//! attempts of every job in two cluster-wide tables (map and reduce)
//! with one entry per slot: a launch writes the entry of the slot it
//! popped from the free list, and a departure, a stale event, a
//! straggler timer or a speculation loser reads the task's record for
//! the slot of its newest live attempt and checks that one entry.
//!
//! Each job still sees its attempts in launch order, which decides the
//! preemption victim (the newest attempt), the order a host failure
//! kills attempts in, the order `AllMapsFinished` resolves first-wave
//! fillers in, the order timeline bars are recorded in and the order
//! SIMMRCKP stores them in. That order is a doubly linked list threaded
//! through the table entries, with its ends and length in the job's
//! [`Tasks`]. A task has at most a primary and a speculative duplicate
//! live at once; its record holds the slot of the newest, and each
//! entry links to the slot of the task's next older live attempt.
//!
//! Nothing here allocates after the tables are sized to the cluster: a
//! job's task records are sized once at admission, and the lists live
//! in the table entries.
//!
//! A [`SlotPool`] holds one kind's slots whole: the free list, the slots
//! lost to failed hosts, the table of running attempts and the per-slot
//! speed. Every slot of a pool is exactly one of free, running or lost;
//! [`SlotPool::check_partition`] is that rule, part of `RunState::check`
//! and run by the runtime invariant checker after every settled batch.

use simmr_types::{DurationMs, JobId, SimTime};

/// One slot kind's slots (§III-B's job master has a pool of map slots
/// and a pool of reduce slots). Slots are striped over the cluster's
/// hosts: slot `s` lives on host `s % hosts`.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotPool {
    /// Free slots; a launch pops from the back.
    pub(crate) free: Vec<u32>,
    /// Slots lost to a failed host: never free, never running, until the
    /// host recovers.
    pub(crate) dead: Vec<bool>,
    /// The running attempts, by the slot each occupies.
    pub(crate) running: SlotTable,
    /// Per-slot duration multipliers; empty when every slot runs at
    /// nominal speed (tasks then take their exact template durations).
    pub(crate) slowdown: Vec<f64>,
}

impl SlotPool {
    /// `n` free slots, live and idle, running at `slowdown` (empty, or
    /// one factor per slot).
    pub(crate) fn new(n: usize, slowdown: Vec<f64>) -> Self {
        SlotPool {
            free: (0..n as u32).rev().collect(),
            dead: vec![false; n],
            running: SlotTable::new(n),
            slowdown,
        }
    }

    /// Slots in the pool.
    pub(crate) fn len(&self) -> usize {
        self.running.len()
    }

    /// Marks every slot of `host` (of `hosts`) lost and takes them out of
    /// the free list. Attempts still running there are the caller's to
    /// kill.
    pub(crate) fn fail_host(&mut self, host: usize, hosts: usize) {
        for slot in (host..self.dead.len()).step_by(hosts) {
            self.dead[slot] = true;
        }
        let dead = &self.dead;
        self.free.retain(|&s| !dead[s as usize]);
    }

    /// Returns the lost slots of `host` (of `hosts`) to the free list,
    /// empty.
    pub(crate) fn recover_host(&mut self, host: usize, hosts: usize) {
        for slot in (host..self.dead.len()).step_by(hosts) {
            if self.dead[slot] {
                self.dead[slot] = false;
                self.free.push(slot as u32);
            }
        }
    }

    /// Widens the pool to `n` slots; the new ones join the free list
    /// alive and at nominal speed.
    pub(crate) fn grow(&mut self, n: usize) {
        self.free.extend(self.len() as u32..n as u32);
        self.dead.resize(n, false);
        self.running.grow(n);
        if !self.slowdown.is_empty() {
            self.slowdown.resize(n, 1.0);
        }
    }

    /// `base` as it runs on `slot`.
    #[inline]
    pub(crate) fn scaled(&self, slot: u32, base: DurationMs) -> DurationMs {
        scaled(&self.slowdown, slot, base)
    }

    /// Slots lost to failed hosts.
    pub(crate) fn lost(&self) -> usize {
        self.dead.iter().filter(|&&d| d).count()
    }

    /// Checks that the pool holds `n` slots (one dead flag per table
    /// entry, as `new`, `grow` and the decoder keep it) and that each is
    /// exactly one of free, running or lost: no slot is free twice, free
    /// and running, or free or running while lost, and none is missing.
    /// Returns the first breach, naming the slots `kind`.
    pub(crate) fn check_partition(&self, kind: &str, n: usize) -> Result<(), String> {
        if self.dead.len() != n {
            return Err(format!("{} dead-slot flags for {n} {kind} slots", self.dead.len()));
        }
        let mut booked = vec![false; n];
        for (slot, _) in self.running.occupied() {
            if self.dead[slot as usize] {
                return Err(format!("{kind} slot {slot} of a failed host runs an attempt"));
            }
            booked[slot as usize] = true;
        }
        for &slot in &self.free {
            let Some(b) = booked.get_mut(slot as usize) else {
                return Err(format!("free {kind} slot {slot} is out of range (bound {n})"));
            };
            if *b {
                let how = if self.running.get(slot).is_some() {
                    "both running and free"
                } else {
                    "free twice"
                };
                return Err(format!("{kind} slot {slot} is {how}"));
            }
            if self.dead[slot as usize] {
                return Err(format!("free {kind} slot {slot} belongs to a failed host"));
            }
            *b = true;
        }
        match (0..n).find(|&s| !booked[s] && !self.dead[s]) {
            Some(s) => Err(format!("{kind} slot {s} is neither free, running nor dead")),
            None => Ok(()),
        }
    }
}

/// `base` as it runs on `slot` of a pool with these slowdown factors:
/// [`SlotPool::scaled`] for a caller that holds the pool's slot table
/// mutably.
#[inline]
pub(crate) fn scaled(slowdown: &[f64], slot: u32, base: DurationMs) -> DurationMs {
    match slowdown.get(slot as usize) {
        Some(&f) => (base as f64 * f).round() as u64,
        None => base,
    }
}

/// No slot: a list or chain end, or a task with no live attempt.
pub(crate) const NONE: u32 = u32::MAX;

/// A task's record, as far as the table needs it: the slot of its newest
/// live attempt, or [`NONE`].
pub(crate) trait TaskRecord {
    /// Slot of the newest live attempt.
    fn newest(&self) -> u32;
    /// The same, writable.
    fn newest_mut(&mut self) -> &mut u32;
}

/// One job's tasks of one kind: a record per task, sized once, and the
/// job's live attempts of that kind in launch order (their ends and
/// count; the links live in the slot table).
#[derive(Debug, Clone)]
pub(crate) struct Tasks<T> {
    /// One record per task, indexed by task.
    pub(crate) recs: Box<[T]>,
    /// Slots of the oldest and newest live attempts.
    head: u32,
    tail: u32,
    /// Live attempts.
    running: u32,
}

impl<T> Tasks<T> {
    /// `recs` with no live attempt.
    pub(crate) fn new(recs: Box<[T]>) -> Self {
        Tasks { recs, head: NONE, tail: NONE, running: 0 }
    }

    /// Live attempts.
    pub(crate) fn running(&self) -> usize {
        self.running as usize
    }

    /// Slot of the most recently launched live attempt.
    pub(crate) fn newest_slot(&self) -> Option<u32> {
        (self.tail != NONE).then_some(self.tail)
    }
}

/// A live attempt occupying a slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Attempt {
    pub(crate) job: JobId,
    /// Task index within the job.
    pub(crate) task: u32,
    /// Launch counter of the task, unique per task.
    pub(crate) attempt: u32,
    pub(crate) start: SimTime,
    /// End of a reduce attempt's shuffle phase; [`SimTime::INFINITY`]
    /// while it is an unresolved first-wave filler. Unused for maps.
    pub(crate) shuffle_end: SimTime,
    /// Previous (older) and next (newer) slot in the job's launch order.
    prev: u32,
    next: u32,
    /// Slot of the task's next older live attempt.
    older: u32,
}

impl Attempt {
    /// An attempt about to be launched; the table fills in the links.
    pub(crate) fn new(
        job: JobId,
        task: u32,
        attempt: u32,
        start: SimTime,
        shuffle_end: SimTime,
    ) -> Self {
        Attempt { job, task, attempt, start, shuffle_end, prev: NONE, next: NONE, older: NONE }
    }
}

/// The live attempts of one slot kind, indexed by slot.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotTable {
    slots: Vec<Option<Attempt>>,
}

impl SlotTable {
    /// A table of `n` empty slots.
    pub(crate) fn new(n: usize) -> Self {
        SlotTable { slots: vec![None; n] }
    }

    /// Slots in the table.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Widens the table to `n` slots (the cluster grew); new slots are
    /// empty.
    pub(crate) fn grow(&mut self, n: usize) {
        if n > self.slots.len() {
            self.slots.resize(n, None);
        }
    }

    /// The attempt on `slot`, if one runs there.
    pub(crate) fn get(&self, slot: u32) -> Option<&Attempt> {
        self.slots.get(slot as usize)?.as_ref()
    }

    /// Occupied slots, in slot order.
    pub(crate) fn occupied(&self) -> impl Iterator<Item = (u32, &Attempt)> {
        self.slots.iter().enumerate().filter_map(|(s, a)| Some((s as u32, a.as_ref()?)))
    }

    /// Launches `a` on `slot`, which must be empty, as the newest attempt
    /// of `tasks` and of its task.
    pub(crate) fn launch<T: TaskRecord>(
        &mut self,
        tasks: &mut Tasks<T>,
        slot: u32,
        mut a: Attempt,
    ) {
        let newest = tasks.recs[a.task as usize].newest_mut();
        a.prev = tasks.tail;
        a.next = NONE;
        a.older = *newest;
        *newest = slot;
        let entry = &mut self.slots[slot as usize];
        debug_assert!(entry.is_none(), "launch onto occupied slot {slot}");
        *entry = Some(a);
        match tasks.tail {
            NONE => tasks.head = slot,
            t => self.link_mut(t).next = slot,
        }
        tasks.tail = slot;
        tasks.running += 1;
    }

    /// Slot of attempt `attempt` of `task`; `None` if it is not live (a
    /// stale event of a killed or finished attempt). Reads the task's
    /// record and the slots of its live attempts, newest first: one
    /// slot unless a speculative duplicate races the primary.
    pub(crate) fn find<T: TaskRecord>(
        &self,
        tasks: &Tasks<T>,
        task: u32,
        attempt: u32,
    ) -> Option<u32> {
        let mut s = tasks.recs.get(task as usize)?.newest();
        while s != NONE {
            let a = self.link(s);
            if a.attempt == attempt {
                return Some(s);
            }
            s = a.older;
        }
        None
    }

    /// The live attempts of a task, newest first, from the slot its
    /// record names as the newest ([`NONE`] for none), up to an empty
    /// slot. A chain [`Self::verify`] has not checked may loop, so its
    /// walker must bound the walk.
    pub(crate) fn chain(&self, newest: u32) -> impl Iterator<Item = &Attempt> {
        let mut s = newest;
        std::iter::from_fn(move || {
            let a = self.get(s)?;
            s = a.older;
            Some(a)
        })
    }

    /// Removes the attempt on `slot` from its job's launch order and its
    /// task's chain, emptying the slot.
    pub(crate) fn vacate<T: TaskRecord>(&mut self, tasks: &mut Tasks<T>, slot: u32) -> Attempt {
        let a = self.slots[slot as usize].take().expect("vacate of an empty slot");
        match a.prev {
            NONE => tasks.head = a.next,
            p => self.link_mut(p).next = a.next,
        }
        match a.next {
            NONE => tasks.tail = a.prev,
            n => self.link_mut(n).prev = a.prev,
        }
        let newest = tasks.recs[a.task as usize].newest_mut();
        if *newest == slot {
            *newest = a.older;
        } else {
            // a duplicate launched after this attempt is still live
            let mut s = *newest;
            while self.link(s).older != slot {
                s = self.link(s).older;
            }
            self.link_mut(s).older = a.older;
        }
        tasks.running -= 1;
        a
    }

    /// Removes every attempt `doomed` selects by slot, in launch order,
    /// handing each to `removed` with its slot and whether its task
    /// still has a live attempt right after the removal.
    pub(crate) fn vacate_where<T: TaskRecord>(
        &mut self,
        tasks: &mut Tasks<T>,
        mut doomed: impl FnMut(u32) -> bool,
        mut removed: impl FnMut(u32, Attempt, bool),
    ) {
        let mut s = tasks.head;
        while s != NONE {
            let next = self.link(s).next;
            if doomed(s) {
                let a = self.vacate(tasks, s);
                removed(s, a, tasks.recs[a.task as usize].newest() != NONE);
            }
            s = next;
        }
    }

    /// Removes every live attempt of `task`, oldest first, handing each
    /// to `removed` with its slot.
    pub(crate) fn vacate_task<T: TaskRecord>(
        &mut self,
        tasks: &mut Tasks<T>,
        task: u32,
        mut removed: impl FnMut(u32, Attempt),
    ) {
        loop {
            let mut s = tasks.recs[task as usize].newest();
            if s == NONE {
                return;
            }
            while self.link(s).older != NONE {
                s = self.link(s).older;
            }
            removed(s, self.vacate(tasks, s));
        }
    }

    /// The live attempts of `tasks` with their slots, in launch order.
    pub(crate) fn launch_order<'a, T>(
        &'a self,
        tasks: &Tasks<T>,
    ) -> impl Iterator<Item = (u32, &'a Attempt)> + 'a {
        let mut s = tasks.head;
        std::iter::from_fn(move || {
            let a = self.slots.get(s as usize)?.as_ref()?;
            let slot = s;
            s = a.next;
            Some((slot, a))
        })
    }

    /// Calls `f` on every live attempt of `tasks`, in launch order, with
    /// its slot. `f` must leave the task and attempt unchanged.
    pub(crate) fn for_each_mut<T>(
        &mut self,
        tasks: &Tasks<T>,
        mut f: impl FnMut(u32, &mut Attempt),
    ) {
        let mut s = tasks.head;
        while s != NONE {
            let a = self.link_mut(s);
            f(s, a);
            s = a.next;
        }
    }

    /// Checks one job's lists against the table: the launch order links
    /// exactly `tasks.running` occupied slots of job `job` both ways, and
    /// the chain of every task below `launched` links only live attempts
    /// of that task, newest first, all of them together covering the
    /// launch order. Tasks from `launched` on were never launched (the
    /// engine launches task indices in order), so their records are not
    /// walked. Returns the first discrepancy found.
    pub(crate) fn verify<T: TaskRecord>(
        &self,
        job: JobId,
        tasks: &Tasks<T>,
        launched: usize,
    ) -> Result<(), String> {
        let live = tasks.running();
        let (mut s, mut prev, mut listed) = (tasks.head, NONE, 0usize);
        while s != NONE {
            let a = match self.get(s) {
                Some(a) if a.job == job && a.prev == prev && listed < live => a,
                other => {
                    return Err(format!(
                        "the launch order is broken at slot {s} (holding {:?})",
                        other.map(|a| (a.job, a.task, a.attempt))
                    ))
                }
            };
            listed += 1;
            prev = s;
            s = a.next;
        }
        if listed != live || prev != tasks.tail {
            return Err(format!("the launch order links {listed} of {live} live attempts"));
        }
        let mut chained = 0usize;
        let launched = &tasks.recs[..launched.min(tasks.recs.len())];
        for (task, rec) in launched.iter().enumerate() {
            let mut s = rec.newest();
            while s != NONE {
                match self.get(s) {
                    Some(a) if a.job == job && a.task as usize == task && chained < live => {
                        s = a.older
                    }
                    other => {
                        return Err(format!(
                            "task {task}'s chain reaches slot {s} holding {:?}",
                            other.map(|a| (a.job, a.task, a.attempt))
                        ))
                    }
                }
                chained += 1;
            }
        }
        if chained != live {
            return Err(format!("the task chains link {chained} attempts, {live} are live"));
        }
        for (slot, a) in self.launch_order(tasks) {
            let found = self.find(tasks, a.task, a.attempt);
            if found != Some(slot) {
                return Err(format!(
                    "attempt {} of task {} sits on slot {slot}, the record finds {found:?}",
                    a.attempt, a.task
                ));
            }
        }
        Ok(())
    }

    /// The live entry on `slot`, which a list or chain links.
    fn link(&self, slot: u32) -> &Attempt {
        self.slots[slot as usize].as_ref().expect("a list links an empty slot")
    }

    fn link_mut(&mut self, slot: u32) -> &mut Attempt {
        self.slots[slot as usize].as_mut().expect("a list links an empty slot")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A task record holding only the slot of its newest live attempt.
    #[derive(Debug, Clone, Copy)]
    struct Rec(u32);

    impl TaskRecord for Rec {
        fn newest(&self) -> u32 {
            self.0
        }
        fn newest_mut(&mut self) -> &mut u32 {
            &mut self.0
        }
    }

    const JOB: JobId = JobId(7);

    fn tasks(n: usize) -> Tasks<Rec> {
        Tasks::new(vec![Rec(NONE); n].into_boxed_slice())
    }

    fn launch(t: &mut SlotTable, j: &mut Tasks<Rec>, (task, attempt, slot): (u32, u32, u32)) {
        t.launch(j, slot, Attempt::new(JOB, task, attempt, SimTime::ZERO, SimTime::ZERO));
    }

    /// A `slots`-slot table running `(task, attempt, slot)` attempts of a
    /// job of `n` tasks, launched in this order.
    fn launched(slots: usize, n: usize, attempts: &[(u32, u32, u32)]) -> (SlotTable, Tasks<Rec>) {
        let (mut t, mut j) = (SlotTable::new(slots), tasks(n));
        for &a in attempts {
            launch(&mut t, &mut j, a);
        }
        t.verify(JOB, &j, usize::MAX).unwrap();
        (t, j)
    }

    /// `(task, attempt, slot)` of every live attempt, in launch order.
    fn live(t: &SlotTable, j: &Tasks<Rec>) -> Vec<(u32, u32, u32)> {
        t.launch_order(j).map(|(s, a)| (a.task, a.attempt, s)).collect()
    }

    /// Removes attempt `attempt` of `task` the way a departure does.
    fn depart(
        t: &mut SlotTable,
        j: &mut Tasks<Rec>,
        task: u32,
        attempt: u32,
    ) -> Option<(u32, u32, u32)> {
        let s = t.find(j, task, attempt)?;
        let a = t.vacate(j, s);
        Some((a.task, a.attempt, s))
    }

    /// Removes the newest attempt the way a preemption does.
    fn preempt(t: &mut SlotTable, j: &mut Tasks<Rec>) -> Option<(u32, u32, u32)> {
        let s = j.newest_slot()?;
        let a = t.vacate(j, s);
        Some((a.task, a.attempt, s))
    }

    /// The first finisher of a speculation race wins: its departure is
    /// found by `(task, attempt)`, the task's record then names the
    /// duplicate as the one loser, and every other attempt keeps its
    /// launch order.
    #[test]
    fn speculation_loser_is_found_by_task() {
        let (mut t, mut j) =
            launched(16, 4, &[(0, 1, 10), (1, 1, 11), (2, 1, 12), (1, 2, 13), (3, 1, 14)]);
        assert_eq!(depart(&mut t, &mut j, 1, 2), Some((1, 2, 13)), "the duplicate finishes first");
        assert_ne!(j.recs[1].0, NONE);
        let mut losers = Vec::new();
        t.vacate_task(&mut j, 1, |s, a| losers.push((a.task, a.attempt, s)));
        assert_eq!(losers, vec![(1, 1, 11)]);
        assert_eq!(j.recs[1].0, NONE);
        t.vacate_task(&mut j, 1, |_, _| panic!("no attempt of task 1 is left"));
        assert_eq!(live(&t, &j), vec![(0, 1, 10), (2, 1, 12), (3, 1, 14)]);
        t.verify(JOB, &j, usize::MAX).unwrap();
        // both attempts of a task still racing come out oldest first
        let (mut t, mut j) = launched(4, 7, &[(5, 1, 0), (6, 1, 1), (5, 2, 2)]);
        let mut killed = Vec::new();
        t.vacate_task(&mut j, 5, |s, a| killed.push((a.task, a.attempt, s)));
        assert_eq!(killed, vec![(5, 1, 0), (5, 2, 2)]);
        assert_eq!(live(&t, &j), vec![(6, 1, 1)]);
        t.verify(JOB, &j, usize::MAX).unwrap();
    }

    /// A preempted attempt's departure stays stale after the task is
    /// relaunched on the same slot: only the new attempt number is live.
    #[test]
    fn stale_departure_after_preempt_and_relaunch() {
        let (mut t, mut j) = launched(2, 2, &[(0, 1, 0), (1, 1, 1)]);
        assert_eq!(preempt(&mut t, &mut j), Some((1, 1, 1)), "the newest attempt is the victim");
        assert_eq!(j.recs[1].0, NONE);
        launch(&mut t, &mut j, (1, 2, 1));
        assert_eq!(t.find(&j, 1, 1), None, "the killed attempt's departure is stale");
        assert_eq!(t.find(&j, 1, 2), Some(1));
        assert_eq!(live(&t, &j), vec![(0, 1, 0), (1, 2, 1)]);
        assert_eq!(depart(&mut t, &mut j, 1, 2), Some((1, 2, 1)));
        assert_eq!(preempt(&mut t, &mut j), Some((0, 1, 0)));
        assert_eq!(preempt(&mut t, &mut j), None);
        assert_eq!(t.occupied().count(), 0);
        t.verify(JOB, &j, usize::MAX).unwrap();
    }

    /// A host failure kills its attempts in launch order, and each kill
    /// sees the table as it stands right after it: a task whose two
    /// attempts both die reports a survivor only at the first kill.
    #[test]
    fn host_failure_kills_in_launch_order() {
        let (mut t, mut j) =
            launched(6, 5, &[(0, 1, 0), (1, 1, 1), (2, 1, 2), (1, 2, 3), (3, 1, 5), (4, 1, 4)]);
        let mut killed = Vec::new();
        t.vacate_where(
            &mut j,
            |s| s % 2 == 1,
            |s, a, survivor| killed.push(((a.task, a.attempt, s), survivor)),
        );
        assert_eq!(killed, vec![((1, 1, 1), true), ((1, 2, 3), false), ((3, 1, 5), false)]);
        assert_eq!(live(&t, &j), vec![(0, 1, 0), (2, 1, 2), (4, 1, 4)]);
        t.verify(JOB, &j, usize::MAX).unwrap();
    }

    /// A vacated slot takes the next launch in place: nothing shifts, a
    /// job's launch order survives heavy churn on few slots, and every
    /// lookup stays exact.
    #[test]
    fn vacated_slots_are_relaunched_in_place() {
        let first: Vec<_> = (0..8).map(|k| (k, 1, k)).collect();
        let (mut t, mut j) = launched(8, 10_013, &first);
        for task in [1, 2, 3, 5, 6] {
            depart(&mut t, &mut j, task, 1).unwrap();
            t.verify(JOB, &j, usize::MAX).unwrap();
        }
        assert_eq!((t.len(), j.running()), (8, 3));
        assert_eq!(live(&t, &j), vec![(0, 1, 0), (4, 1, 4), (7, 1, 7)]);
        for (task, slot) in (8..13).zip([1, 2, 3, 5, 6]) {
            launch(&mut t, &mut j, (task, 1, slot));
        }
        let tasks_of =
            |t: &SlotTable, j: &Tasks<Rec>| live(t, j).iter().map(|a| a.0).collect::<Vec<_>>();
        assert_eq!(tasks_of(&t, &j), [0, 4, 7, 8, 9, 10, 11, 12]);
        // churn: the oldest attempt leaves and a new task launches on its
        // slot, 10k times
        for round in 0..10_000u32 {
            let (task, attempt, slot) = live(&t, &j)[0];
            assert_eq!(depart(&mut t, &mut j, task, attempt), Some((task, attempt, slot)));
            launch(&mut t, &mut j, (13 + round, 1, slot));
        }
        assert_eq!((t.len(), j.running()), (8, 8));
        t.verify(JOB, &j, usize::MAX).unwrap();
        assert_eq!(tasks_of(&t, &j), (10_005..10_013).collect::<Vec<_>>());
        assert!(t.find(&j, 10_012, 1).is_some() && t.find(&j, 10_004, 1).is_none());
        assert_eq!(preempt(&mut t, &mut j).map(|a| a.0), Some(10_012));
        t.verify(JOB, &j, usize::MAX).unwrap();
    }

    /// Two jobs interleave their launches over one table; each keeps its
    /// own launch order and neither's lookups see the other's attempts.
    #[test]
    fn jobs_share_the_table_not_their_launch_order() {
        let (mut t, mut a, mut b) = (SlotTable::new(4), tasks(2), tasks(2));
        let other = JobId(8);
        launch(&mut t, &mut a, (0, 1, 3));
        t.launch(&mut b, 2, Attempt::new(other, 0, 1, SimTime::ZERO, SimTime::ZERO));
        launch(&mut t, &mut a, (1, 1, 0));
        t.launch(&mut b, 1, Attempt::new(other, 1, 1, SimTime::ZERO, SimTime::ZERO));
        assert_eq!(live(&t, &a), vec![(0, 1, 3), (1, 1, 0)]);
        assert_eq!(t.launch_order(&b).map(|(s, _)| s).collect::<Vec<_>>(), [2, 1]);
        assert_eq!(t.find(&a, 0, 1), Some(3));
        assert_eq!(t.find(&b, 0, 1), Some(2));
        t.verify(JOB, &a, usize::MAX).unwrap();
        t.verify(other, &b, usize::MAX).unwrap();
        assert!(t
            .verify(other, &a, usize::MAX)
            .unwrap_err()
            .contains("launch order is broken at slot 3"));
        assert_eq!(
            t.occupied().map(|(s, x)| (s, x.job)).collect::<Vec<_>>(),
            [(0, JOB), (1, other), (2, other), (3, JOB)]
        );
    }

    #[test]
    fn verify_reports_a_broken_chain() {
        let (t, mut j) = launched(2, 2, &[(0, 1, 0), (1, 1, 1)]);
        j.recs[1].0 = 0;
        assert!(t
            .verify(JOB, &j, usize::MAX)
            .unwrap_err()
            .contains("task 1's chain reaches slot 0"));
    }
}
