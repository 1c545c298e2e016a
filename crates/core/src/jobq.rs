//! The job-queue view and the pluggable scheduler interface.
//!
//! The engine communicates with scheduling policies *"using a very narrow
//! interface"* (§III-B): `CHOOSENEXTMAPTASK(jobQ)` and
//! `CHOOSENEXTREDUCETASK(jobQ)`, each returning the id of the job whose
//! task should be launched next. Policies see a read-only view of every
//! active job ([`JobEntry`]) and keep any additional state (EDF deadlines,
//! MinEDF wanted-slot caps, fair-share deficits, ...) internally.
//!
//! The [`JobQueue`] is maintained **incrementally** by the engine: entries
//! are inserted on job arrival, removed on job departure, and replaced in
//! place — re-derived from the job's state — whenever a task launches,
//! finishes, or is killed; the queue is *not* rebuilt per event. Entries
//! are kept sorted by `(arrival, id)`: arrivals are processed in time
//! order so insertion is a plain append, and removal advances a head
//! pointer (oldest job, the FIFO-service common case, O(1)) or shifts the
//! shorter side of the hole (mid-queue). Every selection must use a
//! total order over entry *fields* (job id as the final tie-breaker).
//! The built-in policies never scan the queue to decide: each keeps its
//! own ordered views of the jobs that qualify, maintained from the entry
//! hooks on [`SchedulerPolicy`].

use simmr_types::{DurationMs, JobId, SimTime};

/// Sentinel in the id→position table for jobs not currently in the queue.
const ABSENT: u32 = u32::MAX;

/// Read-only view of one active job, as visible to a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobEntry {
    /// Job id.
    pub id: JobId,
    /// Submission time.
    pub arrival: SimTime,
    /// Absolute deadline, if any.
    pub deadline: Option<SimTime>,
    /// Map tasks not yet launched.
    pub pending_maps: usize,
    /// Map tasks currently occupying a slot.
    pub running_maps: usize,
    /// Map tasks completed.
    pub completed_maps: usize,
    /// Total map tasks.
    pub total_maps: usize,
    /// Reduce tasks not yet launched.
    pub pending_reduces: usize,
    /// Reduce tasks currently occupying a slot.
    pub running_reduces: usize,
    /// Reduce tasks completed.
    pub completed_reduces: usize,
    /// Total reduce tasks.
    pub total_reduces: usize,
    /// True once the job has passed its slowstart threshold, making its
    /// reduce tasks schedulable.
    pub reduce_eligible: bool,
}

impl JobEntry {
    /// True if the policy may launch a map task of this job.
    pub fn has_schedulable_map(&self) -> bool {
        self.pending_maps > 0
    }

    /// True if the policy may launch a reduce task of this job.
    pub fn has_schedulable_reduce(&self) -> bool {
        self.reduce_eligible && self.pending_reduces > 0
    }

    /// The three facts a policy that does not read task counts bases its
    /// state on (see [`SchedulerPolicy::reads_task_counts`]): a
    /// schedulable map, a schedulable reduce, a running map.
    pub(crate) fn flags(&self) -> (bool, bool, bool) {
        (self.has_schedulable_map(), self.has_schedulable_reduce(), self.running_maps > 0)
    }

    /// Deadline key for EDF ordering: jobs without a deadline sort last.
    pub fn edf_key(&self) -> (SimTime, SimTime, JobId) {
        (self.deadline.unwrap_or(SimTime::INFINITY), self.arrival, self.id)
    }
}

/// The active-job queue passed to policies.
///
/// Lives for the whole simulation and is updated in place: the live view
/// is `entries[head..]`, kept sorted by `(arrival, id)`. `insert` appends
/// (arrivals come in time order); `remove` of the oldest job — the common
/// case under FIFO-like service — just advances `head` in O(1), while a
/// mid-queue removal shifts the (shorter) front segment right into the
/// hole. `get` / `get_mut` are O(1) through an id→position table that
/// spans the live job ids. The dead prefixes of `entries` and of the
/// table are dropped once they outgrow the rest, so memory stays
/// proportional to the active jobs and their id span, not to every job
/// ever admitted.
#[derive(Debug, Default)]
pub struct JobQueue {
    entries: Vec<JobEntry>,
    /// Start of the live region in `entries`.
    head: usize,
    /// Absolute position of each job in `entries`, indexed by `id - base`.
    /// The last entry is a queued job, and so is the first after
    /// `index_head` departed ones (or the table is empty).
    index: Vec<u32>,
    /// Job id of `index[0]`.
    base: usize,
    /// Departed jobs at the front of `index`.
    index_head: usize,
    /// Current simulated time at the moment of the scheduling decision.
    pub now: SimTime,
}

impl JobQueue {
    /// Builds a queue view from a ready-made entry list (sorted into the
    /// queue's canonical `(arrival, id)` order).
    pub fn new(mut entries: Vec<JobEntry>, now: SimTime) -> Self {
        entries.sort_by_key(|e| (e.arrival, e.id));
        let mut q = JobQueue { entries: Vec::with_capacity(entries.len()), now, ..Self::default() };
        for e in entries {
            q.insert(e);
        }
        q
    }

    /// An empty queue with room for `jobs` entries, spanning as many ids,
    /// without reallocating.
    pub fn with_capacity(jobs: usize) -> Self {
        JobQueue {
            entries: Vec::with_capacity(jobs),
            index: Vec::with_capacity(jobs),
            ..Self::default()
        }
    }

    /// The active jobs, sorted by `(arrival, id)`. The order is an API
    /// guarantee.
    pub fn entries(&self) -> &[JobEntry] {
        &self.entries[self.head..]
    }

    /// Number of active jobs.
    pub fn len(&self) -> usize {
        self.entries.len() - self.head
    }

    /// True when no job is active.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a job by id.
    pub fn get(&self, id: JobId) -> Option<&JobEntry> {
        Some(&self.entries[self.position(id)?])
    }

    /// An active job's entry, mutably: the engine re-derives the entry's
    /// counters in place after every mutation, so a scheduling loop sees
    /// its own placements. Only the counters may change; `id` and
    /// `arrival` fix the queue order.
    pub(crate) fn get_mut(&mut self, id: JobId) -> Option<&mut JobEntry> {
        let pos = self.position(id)?;
        Some(&mut self.entries[pos])
    }

    /// Position of a queued job in `entries`.
    fn position(&self, id: JobId) -> Option<usize> {
        let pos = *self.index.get(id.index().wrapping_sub(self.base))?;
        (pos != ABSENT).then_some(pos as usize)
    }

    /// Adds a job's entry (on arrival). Arrivals are processed in time
    /// order, so appending keeps the entries sorted by `(arrival, id)`.
    pub(crate) fn insert(&mut self, entry: JobEntry) {
        let id = entry.id.index();
        if self.index.is_empty() {
            self.base = id;
        }
        if id < self.base {
            // a job older than every queued one (a fork's surge admits
            // jobs with higher ids that can arrive before the trace's own)
            self.index.splice(..0, std::iter::repeat_n(ABSENT, self.base - id));
            self.base = id;
        }
        let i = id - self.base;
        if i >= self.index.len() {
            self.index.resize(i + 1, ABSENT);
        }
        self.index_head = self.index_head.min(i);
        debug_assert_eq!(self.index[i], ABSENT, "job {} inserted twice", entry.id);
        debug_assert!(
            self.entries[self.head..]
                .last()
                .is_none_or(|l| (l.arrival, l.id) < (entry.arrival, entry.id)),
            "job {} inserted out of arrival order",
            entry.id
        );
        self.index[i] = self.entries.len() as u32;
        self.entries.push(entry);
    }

    /// Removes a job's entry (on departure), preserving `(arrival, id)`
    /// order by shifting whichever side of the hole is shorter. Removing
    /// the oldest active job — the common case under FIFO-like service —
    /// is O(1): the head pointer just advances.
    pub(crate) fn remove(&mut self, id: JobId) -> Option<JobEntry> {
        let pos = self.position(id)?;
        self.index[id.index() - self.base] = ABSENT;
        let entry = self.entries[pos];
        if pos - self.head <= self.entries.len() - 1 - pos {
            // shift the front segment right into the hole
            self.entries.copy_within(self.head..pos, self.head + 1);
            for e in &self.entries[self.head + 1..=pos] {
                self.index[e.id.index() - self.base] += 1;
            }
            self.head += 1;
            if self.head > self.entries.len() - self.head {
                self.compact();
            }
        } else {
            // shift the (shorter) tail segment left over the hole
            self.entries.copy_within(pos + 1.., pos);
            self.entries.truncate(self.entries.len() - 1);
            for e in &self.entries[pos..] {
                self.index[e.id.index() - self.base] -= 1;
            }
        }
        // keep the table to the live ids, amortized O(1) per job: departed
        // jobs at the back are popped, and those at the front dropped once
        // they outnumber the rest
        while self.index.last() == Some(&ABSENT) {
            self.index.pop();
        }
        self.index_head = self.index_head.min(self.index.len());
        while self.index.get(self.index_head) == Some(&ABSENT) {
            self.index_head += 1;
        }
        if self.index_head > self.index.len() - self.index_head {
            self.index.drain(..self.index_head);
            self.base += self.index_head;
            self.index_head = 0;
        }
        Some(entry)
    }

    /// Drops the dead prefix, amortized O(1) per removal: runs only when
    /// dead entries outnumber live ones, and costs O(live).
    fn compact(&mut self) {
        self.entries.drain(..self.head);
        self.head = 0;
        for (pos, e) in self.entries.iter().enumerate() {
            self.index[e.id.index() - self.base] = pos as u32;
        }
    }

    /// Empties the queue, keeping its allocations. Used by the rebuild
    /// paths that reconstruct the queue from scratch: the debug-only
    /// snapshot oracle and checkpoint restore.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.head = 0;
        self.index.clear();
        self.index_head = 0;
    }
}

/// A pluggable scheduling policy (§III-C).
///
/// The two `choose_next_*` functions are the whole contract with the
/// engine; the remaining methods are optional lifecycle hooks that
/// stateful policies (e.g. MinEDF's per-job wanted-slot caps) can use.
///
/// # Determinism contract
///
/// The engine skips redundant scheduling passes: when no event since the
/// previous pass changed the job queue (or the policy's lifecycle hooks
/// fired), `choose_next_*` is **not** re-consulted. A policy's choices must
/// therefore be a pure function of the queue contents and its own state —
/// in particular `choose_next_*` must not depend on [`JobQueue::now`].
/// Time-based policies (min-share preemption timeouts) read `now` from the
/// sanctioned hooks instead: [`Self::map_preemptions`] and
/// [`Self::next_wakeup`], which the engine re-consults on every pass and
/// backs with a timer event so a deadline expiring *between* queue events
/// still fires at the right instant.
/// [`JobQueue::entries`] is guaranteed sorted by `(arrival, id)`, but a
/// policy must select by a total order over entry fields either way. All
/// built-in policies satisfy this.
pub trait SchedulerPolicy {
    /// Human-readable policy name, used in reports.
    fn name(&self) -> &str;

    /// Called once when a job arrives. `relative_deadline` carries the
    /// job's *relative* deadline (deadline − arrival) when present,
    /// `template` gives policies access to the job profile for model-based
    /// decisions, and `cluster` names the shape the run executes on
    /// (slot pools plus host count).
    fn on_job_arrival(
        &mut self,
        _id: JobId,
        _template: &simmr_types::JobTemplate,
        _relative_deadline: Option<DurationMs>,
        _cluster: simmr_types::ClusterSpec,
    ) {
    }

    /// Called when a job departs, letting policies drop per-job state.
    fn on_job_departure(&mut self, _id: JobId) {}

    /// Called right after a job's entry joins the queue view (on arrival,
    /// after [`Self::on_job_arrival`]), with the entry exactly as the
    /// policy will first observe it. Policies that keep incremental
    /// state over the queue (ordered job views, per-pool share counters)
    /// seed it here; the default keeps no such state.
    ///
    /// Together, this hook, [`Self::on_entry_mutated`] and
    /// [`Self::on_job_dequeued`] cover **every** entry mutation the
    /// engine performs, in order — incremental policy state may rely on
    /// observing each predicate change over an entry as an edge in this
    /// stream. (The debug-only snapshot oracle's queue rebuild is the
    /// one deliberate exception: it changes the queue's representation,
    /// never an entry's contents.)
    fn on_job_queued(&mut self, _entry: &JobEntry) {}

    /// Called right after the engine re-derives a job's entry in place —
    /// task launch, task completion, preemption kill, host-failure
    /// kill/re-run, speculative duplicate — with the entry state `before`
    /// and `after` the mutation. Fired once per mutation, from the one
    /// place the engine replaces an entry, including launches made
    /// mid-pass by the engine's own scheduling loop, so incremental
    /// aggregates stay exact between two `choose_next_*` calls of the
    /// same pass. A policy that declares [`Self::reads_task_counts`]
    /// false hears only of the mutations that flip a flag it reads. The
    /// default ignores it.
    fn on_entry_mutated(&mut self, _before: &JobEntry, _after: &JobEntry) {}

    /// Whether the policy's state reads an entry's task counts, or only
    /// three flags of it: [`JobEntry::has_schedulable_map`],
    /// [`JobEntry::has_schedulable_reduce`] and `running_maps > 0`.
    ///
    /// A policy that returns `false` promises that no mutation leaving
    /// all three flags as they were can change its state or its
    /// answers. The engine then calls [`Self::on_entry_mutated`] only for
    /// a mutation that flips at least one flag (flip-only), with
    /// `before` the entry just before that mutation: its flags are those
    /// of the last reported `after`, its counts may have moved since.
    /// [`Self::on_job_queued`] and [`Self::on_job_dequeued`] still fire
    /// for every job. FIFO (without fair share) and MaxEDF order jobs by
    /// fixed keys and file them by these flags, so they return `false`;
    /// a policy keyed or capped by running counts (fair share, MinEDF,
    /// the pool tree) must keep the default, `true`, under which every
    /// mutation is reported. The engine reads the declaration whenever
    /// it adopts a policy: at construction, on resume from a checkpoint
    /// and on a policy-swap fork. The invariant checker's view, pick and
    /// victim re-derivations verify it after every settled batch.
    fn reads_task_counts(&self) -> bool {
        true
    }

    /// Called right after a job's entry leaves the queue view (on
    /// departure, before [`Self::on_job_departure`]), with its final
    /// state so incremental aggregates can release whatever the entry
    /// still contributed. The default ignores it.
    fn on_job_dequeued(&mut self, _entry: &JobEntry) {}

    /// Returns the job whose next **map** task should be launched, or
    /// `None` to leave remaining map slots idle this round.
    fn choose_next_map_task(&mut self, jobq: &JobQueue) -> Option<JobId>;

    /// Returns the job whose next **reduce** task should be launched, or
    /// `None` to leave remaining reduce slots idle this round.
    fn choose_next_reduce_task(&mut self, jobq: &JobQueue) -> Option<JobId>;

    /// Called when every map slot is busy: the policy may push victim jobs
    /// into `victims`; each victim's most recently launched running map
    /// task will be **killed and requeued** (all progress lost — Hadoop
    /// kill semantics), freeing one slot per victim for more urgent work.
    /// `victims` arrives empty and is a scratch buffer reused across
    /// rounds. The default (like stock Hadoop, and like every policy in
    /// the paper) never preempts — §V-B attributes the "bump" in Figure
    /// 7(a) precisely to this. Unlike `choose_next_*`, this hook may read
    /// [`JobQueue::now`] (preemption timeouts are time-based by nature).
    fn map_preemptions(&mut self, _jobq: &JobQueue, _victims: &mut Vec<JobId>) {}

    /// The next instant the policy wants a scheduling pass even if no
    /// queue event occurs before then — e.g. a min-share preemption
    /// timeout expiring on an otherwise quiet cluster. Consulted at the
    /// end of every scheduling pass; a returned time in the future is
    /// backed by a timer event that re-runs the pass (and thus
    /// [`Self::map_preemptions`]) at that instant. Return `None` (the
    /// default) for purely event-driven policies. May read
    /// [`JobQueue::now`].
    fn next_wakeup(&mut self, _jobq: &JobQueue) -> Option<SimTime> {
        None
    }

    /// Policy-side self-check, called by the engine's opt-in invariant
    /// checker after every settled event batch. Implementations should
    /// re-derive their bookkeeping (queue routing tables, share
    /// accounting, starvation clocks, ordered views) from the queue view,
    /// and the decisions it answers (the next map and reduce pick, a
    /// preemption victim) by a naive scan of the queue, and panic in the
    /// checker's `engine invariant violated [name]: ...` format on a
    /// mismatch. The default checks nothing.
    fn verify_invariants(&self, _jobq: &JobQueue) {}

    /// Serializes the policy's internal state for an engine checkpoint.
    ///
    /// Restore replays the arrival hook stream first (see
    /// [`Self::restore`]), so the blob only needs state that replay
    /// cannot reconstruct — e.g. the hierarchical policy's starvation
    /// clocks, whose exact historical timestamps drive future preemption
    /// timing. Policies whose state is fully derivable may still encode a
    /// fingerprint of it here and cross-check on restore, turning a
    /// capture/resume configuration mismatch into a typed error instead
    /// of silent divergence. The default (stateless policy) returns an
    /// empty blob.
    fn snapshot(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores internal state from a [`Self::snapshot`] blob.
    ///
    /// The engine calls this at the end of a checkpoint resume, after it
    /// has replayed [`Self::on_job_arrival`] and then
    /// [`Self::on_job_queued`] for every live job in `(arrival, id)`
    /// order — exactly the order the original run fired them, restricted
    /// to still-active jobs. Derivable state (routing tables, wanted-slot
    /// caps, ordered job views, share counters) is therefore
    /// already rebuilt when this runs; implementations overlay or verify
    /// against it. Returns a human-readable error when the blob does not
    /// match this policy's shape or configuration. The default accepts
    /// only the empty blob a stateless policy produces.
    fn restore(&mut self, blob: &[u8]) -> Result<(), String> {
        if blob.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "policy '{}' keeps no snapshot state but the checkpoint carries a {}-byte blob",
                self.name(),
                blob.len()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u32, deadline: Option<u64>) -> JobEntry {
        JobEntry {
            id: JobId(id),
            arrival: SimTime::from_millis(id as u64),
            deadline: deadline.map(SimTime::from_millis),
            pending_maps: 1,
            running_maps: 0,
            completed_maps: 0,
            total_maps: 1,
            pending_reduces: 1,
            running_reduces: 0,
            completed_reduces: 0,
            total_reduces: 1,
            reduce_eligible: false,
        }
    }

    #[test]
    fn schedulable_predicates() {
        let mut e = entry(0, None);
        assert!(e.has_schedulable_map());
        assert!(!e.has_schedulable_reduce()); // not yet eligible
        e.reduce_eligible = true;
        assert!(e.has_schedulable_reduce());
        e.pending_reduces = 0;
        assert!(!e.has_schedulable_reduce());
        e.pending_maps = 0;
        assert!(!e.has_schedulable_map());
    }

    #[test]
    fn edf_key_orders_no_deadline_last() {
        let with = entry(1, Some(100));
        let without = entry(0, None);
        assert!(with.edf_key() < without.edf_key());
    }

    #[test]
    fn queue_lookup() {
        let q = JobQueue::new(vec![entry(3, None), entry(7, None)], SimTime::ZERO);
        assert_eq!(q.entries().len(), 2);
        assert!(q.get(JobId(7)).is_some());
        assert!(q.get(JobId(9)).is_none());
    }

    #[test]
    fn insert_remove_keeps_index_consistent() {
        let mut q = JobQueue::with_capacity(4);
        for id in 0..4 {
            q.insert(entry(id, None));
        }
        assert_eq!(q.len(), 4);
        // removing from the middle shifts the suffix left
        let removed = q.remove(JobId(1)).unwrap();
        assert_eq!(removed.id, JobId(1));
        assert_eq!(q.len(), 3);
        assert!(q.get(JobId(1)).is_none());
        for id in [0, 2, 3] {
            assert_eq!(q.get(JobId(id)).unwrap().id, JobId(id));
        }
        // double-remove is a no-op
        assert!(q.remove(JobId(1)).is_none());
        // a later arrival inserts after the survivors
        q.insert(entry(9, None));
        assert_eq!(q.get(JobId(9)).unwrap().id, JobId(9));
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn front_removals_advance_head_and_compact() {
        let mut q = JobQueue::with_capacity(8);
        for id in 0..8 {
            q.insert(entry(id, None));
        }
        // FIFO-style service: oldest jobs depart first
        for id in 0..6 {
            assert_eq!(q.remove(JobId(id)).unwrap().id, JobId(id));
            assert!(
                q.entries().windows(2).all(|w| (w[0].arrival, w[0].id) < (w[1].arrival, w[1].id)),
                "entries out of order after removing job {id}"
            );
        }
        let order: Vec<u32> = q.entries().iter().map(|e| e.id.0).collect();
        assert_eq!(order, vec![6, 7]);
        for id in [6, 7] {
            assert_eq!(q.get(JobId(id)).unwrap().id, JobId(id));
        }
        // inserts keep working after the dead prefix is compacted away
        q.insert(entry(8, None));
        assert_eq!(q.len(), 3);
        assert_eq!(q.get(JobId(8)).unwrap().id, JobId(8));
    }

    /// The id→position table spans the live ids only. Before, it was
    /// indexed by absolute id and held an entry for every job ever
    /// admitted: 50 000 jobs passing one at a time left 50 000 entries.
    #[test]
    fn index_stays_within_the_live_id_span() {
        let mut q = JobQueue::default();
        for id in 0..50_000 {
            q.insert(entry(id, None));
            assert_eq!(q.index.len(), 1);
            assert_eq!(q.remove(JobId(id)).map(|e| e.id), Some(JobId(id)));
        }
        assert!(q.index.is_empty());
        // oldest first, as under FIFO: the departed front is dropped once
        // it outgrows the live span
        for id in 0..100 {
            q.insert(entry(id, None));
        }
        for id in 0..99 {
            q.remove(JobId(id));
            assert!(q.index.len() <= 2 * (99 - id) as usize, "{} entries", q.index.len());
        }
        q.remove(JobId(99));
        assert!(q.index.is_empty());
        // a long-lived job while a thousand later ones come and go: the
        // table reaches from it to the newest
        q.insert(entry(50_000, None));
        for id in 50_001..51_000 {
            q.insert(entry(id, None));
            assert_eq!(q.index.len(), (id - 50_000 + 1) as usize);
            q.remove(JobId(id));
            assert_eq!(q.index.len(), 1);
        }
        // a job older than every queued one, arriving later (a fork's
        // surge does this): the table widens at the front
        let mut old = entry(7, None);
        old.arrival = SimTime::from_millis(60_000);
        q.insert(old);
        assert_eq!(q.index.len(), 50_000 - 7 + 1);
        assert_eq!(q.get(JobId(7)).map(|e| e.id), Some(JobId(7)));
        assert_eq!(q.get(JobId(50_000)).map(|e| e.id), Some(JobId(50_000)));
        assert!(q.get(JobId(6)).is_none() && q.get(JobId(8)).is_none());
        q.remove(JobId(50_000));
        assert_eq!(q.index.len(), 1);
        assert_eq!(q.entries().iter().map(|e| e.id).collect::<Vec<_>>(), [JobId(7)]);
    }

    #[test]
    fn tail_removal_shifts_suffix() {
        let mut q = JobQueue::with_capacity(4);
        for id in 0..4 {
            q.insert(entry(id, None));
        }
        // newest job departs first: the tail side of the hole is shorter
        assert_eq!(q.remove(JobId(3)).unwrap().id, JobId(3));
        assert_eq!(q.remove(JobId(2)).unwrap().id, JobId(2));
        let order: Vec<u32> = q.entries().iter().map(|e| e.id.0).collect();
        assert_eq!(order, vec![0, 1]);
        for id in [0, 1] {
            assert_eq!(q.get(JobId(id)).unwrap().id, JobId(id));
        }
    }

    /// Applies `f` to job `id`'s entry in place; returns the old entry.
    fn update(q: &mut JobQueue, id: u32, f: impl FnOnce(&mut JobEntry)) -> JobEntry {
        let e = q.get_mut(JobId(id)).unwrap();
        let before = *e;
        f(e);
        before
    }

    #[test]
    fn remove_preserves_arrival_order() {
        let mut q = JobQueue::with_capacity(5);
        for id in 0..5 {
            q.insert(entry(id, None));
        }
        q.remove(JobId(2));
        q.remove(JobId(0));
        let order: Vec<u32> = q.entries().iter().map(|e| e.id.0).collect();
        assert_eq!(order, vec![1, 3, 4]);
        assert!(q.entries().windows(2).all(|w| (w[0].arrival, w[0].id) < (w[1].arrival, w[1].id)));
        for id in [1, 3, 4] {
            assert_eq!(q.get(JobId(id)).unwrap().id, JobId(id));
        }
    }

    #[test]
    fn remove_last_and_clear() {
        let mut q = JobQueue::with_capacity(2);
        q.insert(entry(0, None));
        q.insert(entry(1, None));
        assert_eq!(q.remove(JobId(1)).unwrap().id, JobId(1));
        assert_eq!(q.entries().len(), 1);
        assert_eq!(q.entries()[0].id, JobId(0));
        q.clear();
        assert!(q.is_empty());
        assert!(q.get(JobId(0)).is_none());
        q.insert(entry(0, None));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn insert_beyond_capacity_grows() {
        let mut q = JobQueue::with_capacity(1);
        q.insert(entry(0, None));
        q.insert(entry(9, None)); // id beyond the pre-sized table
        assert_eq!(q.get(JobId(9)).unwrap().id, JobId(9));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn replace_updates_in_place() {
        let mut q = JobQueue::new(vec![entry(0, None), entry(1, None)], SimTime::ZERO);
        let before = update(&mut q, 0, |e| e.running_maps = 5);
        assert_eq!(before, entry(0, None));
        assert_eq!(q.get(JobId(0)).unwrap().running_maps, 5);
        let order: Vec<u32> = q.entries().iter().map(|e| e.id.0).collect();
        assert_eq!(order, vec![0, 1]);
    }
}
