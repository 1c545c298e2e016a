//! The live attempts of one job's tasks of one kind: launch order plus an
//! O(1) index by `(task, attempt)`.
//!
//! The engine needs both views of a job's running attempts. Launch order
//! decides the preemption victim (the newest attempt), the order a host
//! failure kills attempts in, the order their timeline bars are recorded
//! in and the order SIMMRCKP stores them in. Every other access — a
//! departure, a straggler timer, a killed attempt's stale event, the
//! losers of a speculation race — names one task, and an [`AttemptList`]
//! answers those through an index instead of a scan.
//!
//! Attempts live in a slab of nodes threaded on a doubly linked list in
//! launch order. A removal unlinks its node in O(1) and puts it on a
//! free list for the next launch to reuse, so nothing shifts, nothing is
//! compacted, and the slab never holds more nodes than the job's peak
//! number of live attempts. The index is `newest[task]`, the node of the
//! task's newest live attempt, and each node links to the next older
//! live attempt of the same task (a task has at most a primary and a
//! speculative duplicate). `newest` grows to the highest task index
//! launched so far, never to the job's full task count up front.

/// A live task attempt: the task it runs and which launch of that task
/// it is.
pub(crate) trait Attempt: Copy {
    /// Task index within the job.
    fn task(&self) -> u32;
    /// Launch counter of the task, unique per task.
    fn attempt(&self) -> u32;
}

/// No node: a list or chain end, or a task with no live attempt.
const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node<T> {
    /// The attempt, or `None` while the node is on the free list.
    live: Option<T>,
    /// Previous (older) node in launch order.
    prev: u32,
    /// Next (newer) node in launch order; the free list's link while free.
    next: u32,
    /// Node of the next older live attempt of the same task.
    older: u32,
}

/// One job's live attempts of one task kind, in launch order.
#[derive(Debug, Clone)]
pub(crate) struct AttemptList<T> {
    /// Live and free nodes.
    nodes: Vec<Node<T>>,
    /// Oldest and newest live nodes.
    head: u32,
    tail: u32,
    /// First node of the free list.
    free: u32,
    /// Live attempts.
    live: usize,
    /// Node of each task's newest live attempt, `NONE` if it has none.
    newest: Vec<u32>,
}

impl<T> Default for AttemptList<T> {
    fn default() -> Self {
        AttemptList {
            nodes: Vec::new(),
            head: NONE,
            tail: NONE,
            free: NONE,
            live: 0,
            newest: Vec::new(),
        }
    }
}

impl<T: Attempt> AttemptList<T> {
    /// Live attempts.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Appends a newly launched attempt.
    pub(crate) fn push(&mut self, a: T) {
        let task = a.task() as usize;
        if task >= self.newest.len() {
            self.newest.resize(task + 1, NONE);
        }
        let node = Node { live: Some(a), prev: self.tail, next: NONE, older: self.newest[task] };
        let n = if self.free == NONE {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        match self.tail {
            NONE => self.head = n,
            t => self.nodes[t as usize].next = n,
        }
        self.tail = n;
        self.newest[task] = n;
        self.live += 1;
    }

    /// True if `task` has a live attempt.
    pub(crate) fn has_task(&self, task: u32) -> bool {
        self.newest.get(task as usize).is_some_and(|&n| n != NONE)
    }

    /// True if attempt `attempt` of `task` is live.
    pub(crate) fn contains(&self, task: u32, attempt: u32) -> bool {
        self.find(task, attempt).is_some()
    }

    /// Removes attempt `attempt` of `task`; `None` if it is not live (a
    /// stale event of a killed or finished attempt).
    pub(crate) fn remove(&mut self, task: u32, attempt: u32) -> Option<T> {
        let n = self.find(task, attempt)?;
        Some(self.unlink(n))
    }

    /// Removes every live attempt of `task`, returned in launch order.
    pub(crate) fn remove_task(&mut self, task: u32) -> Vec<T> {
        let mut removed = Vec::new();
        while let Some(&n) = self.newest.get(task as usize).filter(|&&n| n != NONE) {
            removed.push(self.unlink(n));
        }
        removed.reverse();
        removed
    }

    /// Removes the most recently launched live attempt.
    pub(crate) fn pop_newest(&mut self) -> Option<T> {
        (self.tail != NONE).then(|| self.unlink(self.tail))
    }

    /// Removes every attempt `doomed` selects, in launch order, handing
    /// each to `removed` together with the list as it stands right after
    /// that removal (so `removed` can ask whether the task still has a
    /// live attempt).
    pub(crate) fn remove_where(
        &mut self,
        mut doomed: impl FnMut(&T) -> bool,
        mut removed: impl FnMut(&Self, T),
    ) {
        let mut n = self.head;
        while n != NONE {
            let node = self.nodes[n as usize];
            if node.live.as_ref().is_some_and(&mut doomed) {
                let a = self.unlink(n);
                removed(self, a);
            }
            n = node.next;
        }
    }

    /// The live attempts in launch order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        let mut n = self.head;
        std::iter::from_fn(move || {
            let node = self.nodes.get(n as usize)?;
            n = node.next;
            node.live.as_ref()
        })
    }

    /// Calls `f` on every live attempt in launch order. The index is keyed
    /// by `(task, attempt)`, so `f` must leave both unchanged.
    pub(crate) fn for_each_mut(&mut self, mut f: impl FnMut(&mut T)) {
        let mut n = self.head;
        while n != NONE {
            let node = &mut self.nodes[n as usize];
            f(node.live.as_mut().expect("the launch-order list links live nodes"));
            n = node.next;
        }
    }

    /// Checks the index against a scan of the nodes: the launch-order
    /// list links exactly the live nodes both ways and the free list the
    /// rest; every chain links only live attempts of its task, newest
    /// first, and all of them together; and a `(task, attempt)` lookup
    /// finds every live attempt at its own node. Returns the first
    /// discrepancy found.
    pub(crate) fn verify_index(&self) -> Result<(), String> {
        let live = self.nodes.iter().filter(|s| s.live.is_some()).count();
        if live != self.live {
            return Err(format!("{live} live nodes but the count says {}", self.live));
        }
        let (mut n, mut prev, mut listed) = (self.head, NONE, 0usize);
        while n != NONE {
            match self.nodes.get(n as usize) {
                Some(node) if node.live.is_some() && node.prev == prev && listed < live => {}
                _ => return Err(format!("the launch-order list is broken at node {n}")),
            }
            listed += 1;
            prev = n;
            n = self.nodes[n as usize].next;
        }
        if listed != live || prev != self.tail {
            return Err(format!("the launch-order list links {listed} of {live} live nodes"));
        }
        let (mut n, mut freed) = (self.free, 0usize);
        while n != NONE {
            match self.nodes.get(n as usize) {
                Some(node) if node.live.is_none() && freed < self.nodes.len() => {}
                _ => return Err(format!("the free list is broken at node {n}")),
            }
            freed += 1;
            n = self.nodes[n as usize].next;
        }
        if live + freed != self.nodes.len() {
            return Err(format!("{live} live and {freed} free of {} nodes", self.nodes.len()));
        }
        let mut linked = 0usize;
        for (task, &head) in self.newest.iter().enumerate() {
            let (mut n, mut chained) = (head, 0usize);
            while n != NONE {
                match self.nodes.get(n as usize).and_then(|node| node.live) {
                    Some(a) if a.task() as usize == task && chained < live => {}
                    other => {
                        return Err(format!(
                            "task {task}'s chain reaches node {n} holding {:?}",
                            other.map(|a| (a.task(), a.attempt()))
                        ))
                    }
                }
                chained += 1;
                n = self.nodes[n as usize].older;
            }
            linked += chained;
        }
        if linked != live {
            return Err(format!("the chains link {linked} attempts, {live} are live"));
        }
        for (n, node) in self.nodes.iter().enumerate() {
            let Some(a) = node.live else { continue };
            let found = self.find(a.task(), a.attempt());
            if found != Some(n as u32) {
                return Err(format!(
                    "attempt {} of task {} sits at node {n}, the index finds {found:?}",
                    a.attempt(),
                    a.task()
                ));
            }
        }
        Ok(())
    }

    /// Node of attempt `attempt` of `task`, walking the task's chain (at
    /// most a primary and a duplicate).
    fn find(&self, task: u32, attempt: u32) -> Option<u32> {
        let mut n = *self.newest.get(task as usize)?;
        while n != NONE {
            let node = &self.nodes[n as usize];
            if node.live.is_some_and(|a| a.attempt() == attempt) {
                return Some(n);
            }
            n = node.older;
        }
        None
    }

    /// Unlinks live node `n` from the launch-order list and its task's
    /// chain and frees it.
    fn unlink(&mut self, n: u32) -> T {
        let Node { live, prev, next, older } = self.nodes[n as usize];
        let a = live.expect("unlink of a live node");
        match prev {
            NONE => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NONE => self.tail = prev,
            x => self.nodes[x as usize].prev = prev,
        }
        let task = a.task() as usize;
        let (mut newer, mut m) = (NONE, self.newest[task]);
        while m != n {
            newer = m;
            m = self.nodes[m as usize].older;
        }
        match newer {
            NONE => self.newest[task] = older,
            w => self.nodes[w as usize].older = older,
        }
        self.nodes[n as usize] = Node { live: None, prev: NONE, next: self.free, older: NONE };
        self.free = n;
        self.live -= 1;
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(task, attempt, slot)`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct A(u32, u32, u32);

    impl Attempt for A {
        fn task(&self) -> u32 {
            self.0
        }
        fn attempt(&self) -> u32 {
            self.1
        }
    }

    fn list(attempts: &[A]) -> AttemptList<A> {
        let mut l = AttemptList::default();
        for &a in attempts {
            l.push(a);
        }
        l.verify_index().unwrap();
        l
    }

    fn live(l: &AttemptList<A>) -> Vec<A> {
        l.iter().copied().collect()
    }

    /// The first finisher of a speculation race wins: removing it by
    /// `(task, attempt)` and then the task's other attempts yields the
    /// duplicate as the one loser, and every other attempt keeps its
    /// launch order.
    #[test]
    fn speculation_loser_is_found_by_task() {
        let mut l = list(&[A(0, 1, 10), A(1, 1, 11), A(2, 1, 12), A(1, 2, 13), A(3, 1, 14)]);
        assert_eq!(l.remove(1, 2), Some(A(1, 2, 13)), "the duplicate finishes first");
        assert!(l.has_task(1));
        assert_eq!(l.remove_task(1), vec![A(1, 1, 11)]);
        assert!(!l.has_task(1));
        assert_eq!(l.remove_task(1), vec![]);
        assert_eq!(live(&l), vec![A(0, 1, 10), A(2, 1, 12), A(3, 1, 14)]);
        l.verify_index().unwrap();
        // both attempts of a task still racing come out oldest first
        let mut l = list(&[A(5, 1, 0), A(6, 1, 1), A(5, 2, 2)]);
        assert_eq!(l.remove_task(5), vec![A(5, 1, 0), A(5, 2, 2)]);
        assert_eq!(live(&l), vec![A(6, 1, 1)]);
        l.verify_index().unwrap();
    }

    /// A preempted attempt's departure stays stale after the task is
    /// relaunched: only the new attempt number is live.
    #[test]
    fn stale_departure_after_preempt_and_relaunch() {
        let mut l = list(&[A(0, 1, 0), A(1, 1, 1)]);
        assert_eq!(l.pop_newest(), Some(A(1, 1, 1)), "the newest attempt is the victim");
        assert!(!l.has_task(1));
        l.push(A(1, 2, 1));
        assert!(!l.contains(1, 1));
        assert_eq!(l.remove(1, 1), None, "the killed attempt's departure is stale");
        assert!(l.contains(1, 2));
        assert_eq!(live(&l), vec![A(0, 1, 0), A(1, 2, 1)]);
        assert_eq!(l.remove(1, 2), Some(A(1, 2, 1)));
        assert_eq!(l.pop_newest(), Some(A(0, 1, 0)));
        assert_eq!(l.pop_newest(), None);
        l.verify_index().unwrap();
    }

    /// A host failure kills its attempts in launch order, and each kill
    /// sees the list as it stands right after it: a task whose two
    /// attempts both die reports a survivor only at the first kill.
    #[test]
    fn host_failure_kills_in_launch_order() {
        let mut l = list(&[A(0, 1, 0), A(1, 1, 1), A(2, 1, 2), A(1, 2, 3), A(3, 1, 5), A(4, 1, 4)]);
        let dead = |a: &A| a.2 % 2 == 1;
        let mut killed = Vec::new();
        l.remove_where(dead, |rest, a| killed.push((a, rest.has_task(a.task()))));
        assert_eq!(killed, vec![(A(1, 1, 1), true), (A(1, 2, 3), false), (A(3, 1, 5), false)]);
        assert_eq!(live(&l), vec![A(0, 1, 0), A(2, 1, 2), A(4, 1, 4)]);
        l.verify_index().unwrap();
    }

    /// Removal never compacts or shifts anything: a freed node is reused
    /// by the next launch, so heavy churn keeps the slab at the peak live
    /// count while launch order and lookups stay exact.
    #[test]
    fn freed_nodes_are_reused_without_compaction() {
        let mut l = list(&(0..8).map(|t| A(t, 1, t)).collect::<Vec<_>>());
        for t in [1, 2, 3, 5, 6] {
            l.remove(t, 1).unwrap();
            l.verify_index().unwrap();
        }
        assert_eq!((l.nodes.len(), l.len()), (8, 3));
        assert_eq!(live(&l), vec![A(0, 1, 0), A(4, 1, 4), A(7, 1, 7)]);
        for t in 8..13 {
            l.push(A(t, 1, t));
        }
        assert_eq!(l.nodes.len(), 8, "five launches reuse the five freed nodes");
        assert_eq!(live(&l).iter().map(|a| a.0).collect::<Vec<_>>(), [0, 4, 7, 8, 9, 10, 11, 12]);
        // churn: the oldest attempt leaves and a new one launches, 10k
        // times; the slab never grows past the eight live attempts
        for round in 0..10_000u32 {
            let oldest = l.iter().next().copied().unwrap();
            assert_eq!(l.remove(oldest.0, oldest.1), Some(oldest));
            l.push(A(13 + round, 1, round));
        }
        assert_eq!((l.nodes.len(), l.len()), (8, 8));
        l.verify_index().unwrap();
        let tasks: Vec<u32> = live(&l).iter().map(|a| a.0).collect();
        assert_eq!(tasks, (10_005..10_013).collect::<Vec<_>>());
        assert!(l.contains(10_012, 1) && !l.contains(10_004, 1));
        assert_eq!(l.pop_newest(), Some(A(10_012, 1, 9_999)));
        l.verify_index().unwrap();
    }

    #[test]
    fn verify_index_reports_a_broken_chain() {
        let mut l = list(&[A(0, 1, 0), A(1, 1, 1)]);
        l.newest[1] = 0;
        assert!(l.verify_index().unwrap_err().contains("task 1's chain reaches node 0"));
    }
}
