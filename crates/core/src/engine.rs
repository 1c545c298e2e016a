//! The discrete-event Simulator Engine (§III-B).
//!
//! # Hot path
//!
//! The engine keeps a persistent, incrementally-maintained [`JobQueue`]:
//! entries are inserted on job arrival and removed on departure. Every
//! other change — launch, completion, preemption, speculation, host
//! failure — mutates the job's `JobState` and then calls `sync_entry`
//! once, which re-derives the entry's counters in place in the queue and
//! hands both sides to [`SchedulerPolicy::on_entry_mutated`] — scheduling
//! never rebuilds a snapshot of the active jobs. A dirty flag skips the
//! scheduling pass entirely for event batches that did not change the
//! queue. Task placements have no event kind of their own: a launch is
//! counted directly in `events_processed` and the end-of-batch scheduling
//! loop re-runs until no further task launches at the current instant,
//! which preserves the exact fixpoint semantics that per-launch marker
//! events would provide.
//!
//! # Failure and speculation model
//!
//! Beyond the paper's failure-free engine, three opt-in mechanisms model a
//! lossy cluster (all off by default and fully deterministic under a seed):
//!
//! * **Host failures** ([`crate::FaultSpec`] / [`SimulatorEngine::with_fault_plan`]):
//!   slots are striped over [`simmr_types::ClusterSpec::hosts`] workers;
//!   when a host fails its slots leave the pools, attempts running on
//!   them are killed and requeued, and — Hadoop semantics — completed map
//!   tasks whose output lived on the lost host are re-executed while the
//!   job's map stage is still open. Host 0 never fails (it models the
//!   master's worker), so every workload stays finishable. Failures are
//!   permanent for the run unless **host recovery**
//!   ([`crate::RecoverySpec`]) is armed, which brings each failed host
//!   back after a seeded exponential downtime, its slots rejoining the
//!   pools empty.
//! * **Speculative execution** ([`EngineConfig::with_speculation`]): a map
//!   attempt running past `factor ×` its job's median map duration gets a
//!   duplicate attempt; the first finisher wins and the losers are killed.
//! * **Per-slot slowdown** ([`EngineConfig::with_slowdown`]): each slot
//!   draws a multiplicative speed factor at startup, scaling every task
//!   duration it executes — the straggler source speculation exists for.
//!
//! Task identity is `(task index, attempt)`: every launch bumps the task's
//! attempt counter, and a departure whose pair no longer runs is stale
//! (killed by preemption, a host failure, or a lost speculation race)
//! and ignored. Each job keeps one record per task, sized at admission,
//! and the running attempts of every job live in the two cluster-wide
//! `SlotPool`s (map and reduce), in a table indexed by the slot each
//! occupies (`crate::slots`): a launch writes the slot it popped, and a
//! departure, straggler timer or stale event reads the task's record for
//! its newest live slot and checks that slot. Each job's attempts stay in launch order through
//! links in the table entries.

use crate::config::EngineConfig;
use crate::event::{Event, EventKind};
use crate::invariants::InvariantState;
use crate::jobq::{JobEntry, JobQueue, SchedulerPolicy};
use crate::queue::EventQueue;
use crate::slots::{self, Attempt, SlotPool, SlotTable, TaskRecord, Tasks, NONE};
use crate::source::{JobSource, SourceError, TraceJobSource};
use simmr_stats::{Dist, Distribution, SeededRng};
use simmr_types::{
    DurationMs, HostId, JobId, JobResult, JobTemplate, SimTime, SimulationReport, TimelineEntry,
    TimelinePhase, WorkloadTrace,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// One planned host failure: `host` is lost at time `at` (permanently,
/// unless the run arms [`crate::RecoverySpec`]).
///
/// Plans are normally derived from a seeded [`crate::FaultSpec`]; tests and
/// what-if runs can install an explicit plan with
/// [`SimulatorEngine::with_fault_plan`]. Failures naming host 0 or a host
/// outside the cluster, or a host that already failed, are ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostFailure {
    /// The failing host.
    pub host: HostId,
    /// When it fails.
    pub at: SimTime,
}

/// Most map slots an engine accepts: a map record keeps its output slot
/// in the low 30 bits of one word, next to its two flags.
pub(crate) const MAX_MAP_SLOTS: usize = 1 << 30;

/// [`MapTask::packed`] bit: the map completed.
const MAP_DONE: u32 = 1 << 31;
/// [`MapTask::packed`] bit: a speculative duplicate was requested.
const MAP_SPECULATED: u32 = 1 << 30;

/// One map task of a job (12 bytes).
#[derive(Debug, Clone, Copy)]
pub(crate) struct MapTask {
    /// Monotone launch counter; stamps each attempt so stale departures
    /// of killed attempts can be recognized.
    pub(crate) launches: u32,
    /// Map slot of the newest live attempt, [`NONE`] if none runs.
    pub(crate) newest: u32,
    /// The output slot in the low 30 bits, then [`MAP_SPECULATED`] and
    /// [`MAP_DONE`]; read through the accessors.
    packed: u32,
}

impl Default for MapTask {
    fn default() -> Self {
        MapTask { launches: 0, newest: NONE, packed: 0 }
    }
}

impl MapTask {
    /// Whether the map completed.
    pub(crate) fn done(&self) -> bool {
        self.packed & MAP_DONE != 0
    }

    pub(crate) fn set_done(&mut self, done: bool) {
        self.set_flag(MAP_DONE, done);
    }

    /// A speculative duplicate was already requested (reset when a
    /// failure forces the task to re-run from scratch).
    pub(crate) fn speculated(&self) -> bool {
        self.packed & MAP_SPECULATED != 0
    }

    pub(crate) fn set_speculated(&mut self, speculated: bool) {
        self.set_flag(MAP_SPECULATED, speculated);
    }

    /// Slot whose host stores the completed map's output (the winning
    /// attempt's slot); a host failure re-runs maps whose output it
    /// held. Kept when a rerun clears `done`.
    pub(crate) fn output_slot(&self) -> u32 {
        self.packed & (MAP_SPECULATED - 1)
    }

    /// Sets the output slot, which is below [`MAX_MAP_SLOTS`].
    pub(crate) fn set_output_slot(&mut self, slot: u32) {
        debug_assert!((slot as usize) < MAX_MAP_SLOTS, "map slot {slot} past the 30-bit field");
        self.packed = (self.packed & (MAP_DONE | MAP_SPECULATED)) | slot;
    }

    fn set_flag(&mut self, bit: u32, on: bool) {
        if on {
            self.packed |= bit;
        } else {
            self.packed &= !bit;
        }
    }
}

/// One reduce task of a job.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReduceTask {
    /// Monotone launch counter.
    pub(crate) launches: u32,
    /// Reduce slot of the live attempt, [`NONE`] if none runs.
    pub(crate) newest: u32,
}

impl Default for ReduceTask {
    fn default() -> Self {
        ReduceTask { launches: 0, newest: NONE }
    }
}

impl TaskRecord for MapTask {
    fn newest(&self) -> u32 {
        self.newest
    }
    fn newest_mut(&mut self) -> &mut u32 {
        &mut self.newest
    }
}

impl TaskRecord for ReduceTask {
    fn newest(&self) -> u32 {
        self.newest
    }
    fn newest_mut(&mut self) -> &mut u32 {
        &mut self.newest
    }
}

/// Runtime state of one job inside the engine. Fields are crate-visible so
/// the invariant checker (`crate::invariants`) can re-derive the policy
/// view from first principles, and so checkpoints (`crate::checkpoint`)
/// can serialize jobs field by field.
#[derive(Debug, Clone)]
pub(crate) struct JobState {
    /// The job's replayable profile. Shared, never copied: the same
    /// allocation as the trace's `JobSpec` or the source's interned
    /// template table.
    pub(crate) template: Arc<JobTemplate>,
    pub(crate) arrival: SimTime,
    pub(crate) deadline: Option<SimTime>,
    pub(crate) maps_total: usize,
    pub(crate) reduces_total: usize,
    /// Next never-launched map task index.
    pub(crate) fresh_maps: usize,
    /// Map tasks returned to the queue by a kill (LIFO relaunch).
    pub(crate) requeued_maps: Vec<u32>,
    /// One record per map task, and the live map attempts in launch
    /// order (the newest is the preemption victim of choice). A task has
    /// two live attempts while a speculative duplicate races its primary.
    pub(crate) maps: Tasks<MapTask>,
    pub(crate) maps_completed: usize,
    /// Next never-launched reduce task index.
    pub(crate) fresh_reduces: usize,
    /// Reduce tasks returned to the queue by a host failure.
    pub(crate) requeued_reduces: Vec<u32>,
    /// One record per reduce task, and the live reduce attempts in launch
    /// order (unresolved fillers carry an infinite `shuffle_end` until
    /// `AllMapsFinished`).
    pub(crate) reduces: Tasks<ReduceTask>,
    pub(crate) reduces_completed: usize,
    /// Map tasks completed before reduces become schedulable.
    pub(crate) reduce_threshold: usize,
    pub(crate) active: bool,
    pub(crate) first_map_start: Option<SimTime>,
    pub(crate) maps_finished: Option<SimTime>,
    /// Straggler threshold in ms (`speculation_factor ×` the job's median
    /// map duration, ≥ 1); 0 when speculation is disabled.
    pub(crate) spec_threshold: DurationMs,
    /// Tasks whose speculative duplicate is awaiting a slot. Every entry
    /// is flagged `speculated` and still has a live primary attempt.
    pub(crate) spec_pending: Vec<u32>,
}

impl JobState {
    /// Fresh (pre-arrival) runtime state for one job.
    fn new(
        template: Arc<JobTemplate>,
        arrival: SimTime,
        deadline: Option<SimTime>,
        config: &EngineConfig,
    ) -> Self {
        let spec_threshold = match config.speculation_factor {
            Some(factor) if template.num_maps > 0 => {
                let mut ds: Vec<DurationMs> =
                    (0..template.num_maps).map(|i| template.map_duration(i)).collect();
                let mid = ds.len() / 2;
                // upper median, selected in O(m); clamped ≥ 1ms so
                // zero-duration maps never trigger a duplicate
                let (_, &mut median, _) = ds.select_nth_unstable(mid);
                ((median as f64 * factor).round() as u64).max(1)
            }
            _ => 0,
        };
        let (num_maps, num_reduces) = (template.num_maps, template.num_reduces);
        JobState {
            arrival,
            deadline,
            maps_total: num_maps,
            reduces_total: num_reduces,
            fresh_maps: 0,
            requeued_maps: Vec::new(),
            maps: Tasks::new(vec![MapTask::default(); num_maps].into_boxed_slice()),
            maps_completed: 0,
            fresh_reduces: 0,
            requeued_reduces: Vec::new(),
            reduces: Tasks::new(vec![ReduceTask::default(); num_reduces].into_boxed_slice()),
            reduces_completed: 0,
            reduce_threshold: config.reduce_start_threshold(num_maps),
            active: false,
            first_map_start: None,
            maps_finished: None,
            spec_threshold,
            spec_pending: Vec::new(),
            template,
        }
    }

    /// Map launches the policy may still request: fresh or requeued tasks
    /// plus pending speculative duplicates.
    fn pending_maps(&self) -> usize {
        (self.maps_total - self.fresh_maps) + self.requeued_maps.len() + self.spec_pending.len()
    }

    /// Reduce tasks not yet launched (fresh or requeued by a host failure).
    fn pending_reduces(&self) -> usize {
        (self.reduces_total - self.fresh_reduces) + self.requeued_reduces.len()
    }

    /// Writes the entry fields a mutation can change — the task counters
    /// and reduce eligibility — into `e`. The others (id, arrival,
    /// deadline, totals) are fixed for the job's life.
    fn refresh_entry(&self, e: &mut JobEntry) {
        e.pending_maps = self.pending_maps();
        e.running_maps = self.maps.running();
        e.completed_maps = self.maps_completed;
        e.pending_reduces = self.pending_reduces();
        e.running_reduces = self.reduces.running();
        e.completed_reduces = self.reduces_completed;
        e.reduce_eligible = self.maps_completed >= self.reduce_threshold;
    }

    /// A killed map attempt was its task's last live one: the task goes
    /// back to the queue, and a duplicate still waiting for a slot is
    /// downgraded to that requeued primary.
    fn requeue_killed_map(&mut self, idx: u32) {
        // only a speculated task can have a pending duplicate
        let task = &mut self.maps.recs[idx as usize];
        if task.speculated() {
            if let Some(p) = self.spec_pending.iter().position(|&x| x == idx) {
                self.spec_pending.remove(p);
                task.set_speculated(false);
            }
        }
        self.requeued_maps.push(idx);
    }

    /// Every task of the job completed: its departure is due.
    fn finished(&self) -> bool {
        self.maps_completed == self.maps_total && self.reduces_completed == self.reduces_total
    }

    /// The rules of [`RunState::check_jobs`] for live job `id`. `marks` is
    /// scratch for spotting a task listed twice, zero between calls.
    fn check(
        &self,
        id: JobId,
        map_pool: &SlotPool,
        reduce_pool: &SlotPool,
        marks: &mut Vec<u8>,
    ) -> Result<(), String> {
        let (m, r, t) = (self.maps_total, self.reduces_total, &self.template);
        if (m, r) != (t.num_maps, t.num_reduces) {
            let (tm, tr) = (t.num_maps, t.num_reduces);
            return Err(format!("{m} maps and {r} reduces, of a template with {tm} and {tr}"));
        }
        let (fm, fr) = (self.fresh_maps, self.fresh_reduces);
        if fm > m || fr > r {
            return Err(format!("launched {fm} fresh maps of {m} and {fr} fresh reduces of {r}"));
        }
        if self.reduce_threshold > m {
            return Err(format!("reduces wait for {} of {m} maps", self.reduce_threshold));
        }
        if !self.active && (fm > 0 || fr > 0) {
            return Err("launched tasks before it arrived".into());
        }
        check_below("requeued map task", self.requeued_maps.iter().copied(), m)?;
        check_below("pending duplicate of map task", self.spec_pending.iter().copied(), m)?;
        check_below("requeued reduce task", self.requeued_reduces.iter().copied(), r)?;
        let (maps, reduces) = (&map_pool.running, &reduce_pool.running);
        // the chains of tasks past the fresh counters are checked empty below
        maps.verify(id, &self.maps, fm).map_err(|e| format!("map attempts: {e}"))?;
        reduces.verify(id, &self.reduces, fr).map_err(|e| format!("reduce attempts: {e}"))?;
        let output_bound = map_pool.len().max(1);
        let (mut running, mut done) = (0, 0);
        for (task, rec) in self.maps.recs.iter().enumerate() {
            check_below("map output slot", [rec.output_slot()], output_bound)?;
            let live = live_attempts("map", task, maps, rec.newest, rec.launches)?;
            if task >= fm && (rec.launches > 0 || rec.done() || rec.newest != NONE) {
                return Err(format!("map task {task} ran, past the fresh counter {fm}"));
            }
            if live > 1 && !(rec.speculated() && self.spec_threshold > 0) {
                return Err(format!("map task {task} runs {live} attempts, unspeculated"));
            }
            if rec.done() && live > 0 {
                return Err(format!("completed map task {task} still has a live attempt"));
            }
            running += (live > 0) as usize;
            done += rec.done() as usize;
        }
        if done != self.maps_completed {
            let c = self.maps_completed;
            return Err(format!("{done} map done flags but maps_completed = {c}"));
        }
        if self.maps_finished.is_some() && done != m {
            return Err(format!("the map stage closed with {done} of {m} maps done"));
        }
        marks.resize(marks.len().max(m.max(r)), 0);
        let recs = &self.maps.recs;
        check_listed("requeued map task", &self.requeued_maps, marks, |t| match &recs[t] {
            _ if t >= fm => Some("was never launched"),
            rec if rec.done() => Some("is done"),
            rec if rec.newest != NONE => Some("is running"),
            _ => None,
        })?;
        check_listed(
            "pending duplicate of map task",
            &self.spec_pending,
            marks,
            |t| match &recs[t] {
                rec if !rec.speculated() => Some("is not flagged speculated"),
                rec if rec.done() => Some("is done"),
                rec if rec.newest == NONE => Some("has no live primary attempt"),
                _ => None,
            },
        )?;
        let (fresh, requeued) = (m - fm, self.requeued_maps.len());
        if fresh + requeued + running + done != m {
            let sum =
                format!("{fresh} fresh + {requeued} requeued + {running} running + {done} done");
            return Err(format!("{sum} != {m} total maps"));
        }
        let mut running = 0;
        for (task, rec) in self.reduces.recs.iter().enumerate() {
            let live = live_attempts("reduce", task, reduces, rec.newest, rec.launches)?;
            if task >= fr && (rec.launches > 0 || rec.newest != NONE) {
                return Err(format!("reduce task {task} ran, past the fresh counter {fr}"));
            }
            if live > 1 {
                return Err(format!("reduce task {task} has {live} live attempts"));
            }
            running += live;
        }
        let recs = &self.reduces.recs;
        check_listed("requeued reduce task", &self.requeued_reduces, marks, |t| match &recs[t] {
            _ if t >= fr => Some("was never launched"),
            rec if rec.newest != NONE => Some("is running"),
            _ => None,
        })?;
        let (fresh, requeued, done) = (r - fr, self.requeued_reduces.len(), self.reduces_completed);
        if fresh + requeued + running + done != r {
            let sum =
                format!("{fresh} fresh + {requeued} requeued + {running} running + {done} done");
            return Err(format!("{sum} != {r} total reduces"));
        }
        let closed = self.maps_finished.is_some();
        for (slot, a) in reduces.launch_order(&self.reduces) {
            if a.shuffle_end.is_infinite() == closed {
                let task = a.task;
                let how = if closed { "waits for the closed" } else { "has resolved before the" };
                return Err(format!("reduce task {task} on slot {slot} {how} map stage"));
            }
        }
        Ok(())
    }
}

/// Counts the live attempts of a task whose newest runs on slot `newest`
/// of `table`, checking that their numbers fall from at most the task's
/// `launches` launches, which also bounds the walk.
fn live_attempts(
    kind: &str,
    task: usize,
    table: &SlotTable,
    newest: u32,
    launches: u32,
) -> Result<usize, String> {
    if newest == NONE {
        return Ok(0); // the common case: the task is not running
    }
    let (mut live, mut bound) = (0, launches);
    for a in table.chain(newest) {
        if a.attempt == 0 || a.attempt > bound {
            let n = a.attempt;
            return Err(format!("{kind} task {task} runs attempt {n} of {launches} out of order"));
        }
        bound = a.attempt - 1;
        live += 1;
    }
    Ok(live)
}

/// Checks that `why` finds nothing wrong with any task of `tasks` and that
/// none is listed twice, naming the list `what`; `marks` covers every task
/// and is zero on entry and on return.
fn check_listed(
    what: &str,
    tasks: &[u32],
    marks: &mut [u8],
    why: impl Fn(usize) -> Option<&'static str>,
) -> Result<(), String> {
    let mut result = Ok(());
    for &task in tasks {
        let twice = std::mem::replace(&mut marks[task as usize], 1) != 0;
        if let Some(why) = if twice { Some("is listed twice") } else { why(task as usize) } {
            result = Err(format!("{what} {task} {why}"));
            break;
        }
    }
    tasks.iter().for_each(|&task| marks[task as usize] = 0);
    result
}

/// The engine's job-state table, addressed by [`JobId`].
///
/// Jobs are appended in id order and **retired** on departure: a retired
/// slot drops its boxed state immediately and the window compacts from
/// the front, so resident memory tracks the span between the oldest live
/// job and the newest admission — not the trace length. A retired id
/// resolves to `None`, which is what makes stale in-flight events of
/// departed jobs (duplicate departures, straggler timers, killed-attempt
/// departures) cheap no-ops. Ids are never reused.
#[derive(Debug, Clone, Default)]
pub(crate) struct JobTable {
    /// Live window; index `i` holds the state of `JobId(base + i)`.
    slots: VecDeque<Option<Box<JobState>>>,
    /// Id of the oldest slot still in the window.
    base: usize,
}

impl JobTable {
    /// Jobs ever admitted (also the next id to be assigned).
    pub(crate) fn total(&self) -> usize {
        self.base + self.slots.len()
    }

    /// The id window `[lo, hi)` that may hold live jobs.
    pub(crate) fn id_range(&self) -> (usize, usize) {
        (self.base, self.base + self.slots.len())
    }

    /// Admits a job, assigning the next id.
    fn push(&mut self, state: Box<JobState>) -> JobId {
        let id = self.total();
        self.slots.push_back(Some(state));
        JobId(id as u32)
    }

    pub(crate) fn get(&self, job: JobId) -> Option<&JobState> {
        self.slots.get(job.index().checked_sub(self.base)?)?.as_deref()
    }

    pub(crate) fn get_mut(&mut self, job: JobId) -> Option<&mut JobState> {
        self.slots.get_mut(job.index().checked_sub(self.base)?)?.as_deref_mut()
    }

    /// Drops a departed job's state and compacts the window front.
    fn retire(&mut self, job: JobId) {
        if let Some(i) = job.index().checked_sub(self.base) {
            if let Some(slot) = self.slots.get_mut(i) {
                *slot = None;
            }
        }
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Iterates the live jobs in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (JobId, &JobState)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_deref().map(|state| (JobId((self.base + i) as u32), state)))
    }

    /// The raw window slots (including retired holes), for checkpointing.
    pub(crate) fn raw_slots(&self) -> impl Iterator<Item = Option<&JobState>> {
        self.slots.iter().map(|s| s.as_deref())
    }

    /// Reassembles a table from a checkpoint's `(base, slots)` capture.
    pub(crate) fn from_parts(base: usize, slots: Vec<Option<Box<JobState>>>) -> Self {
        JobTable { slots: slots.into(), base }
    }
}

/// Slot slowdown factors below this are clamped: a factor near zero would
/// make a slot's tasks effectively free.
const MIN_SLOWDOWN: f64 = 0.05;

/// RNG stream labels (forked off the user seed) for the derived plans.
/// Each plan draws from its own stream so enabling one never perturbs the
/// others.
const FAULT_STREAM: u64 = 1;
const SLOWDOWN_STREAM: u64 = 2;
const RECOVERY_STREAM: u64 = 3;

/// The state of a run at a settled batch boundary: everything the event
/// loop carries from one batch to the next, apart from the policy. A
/// checkpoint is a copy of it plus the policy's snapshot blob, so a field
/// added here is captured, resumed and checked with no other change; only
/// the SIMMRCKP codec (`crate::checkpoint`) lists the fields again.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunState {
    /// Time of the most recently popped event — the engine clock. After a
    /// settled batch this is the batch instant, which is what a checkpoint
    /// records as its boundary.
    pub(crate) clock: SimTime,
    /// Set when an event changed the job queue (or policy state) since the
    /// last completed scheduling pass; a clean queue makes `schedule` a
    /// no-op.
    pub(crate) jobq_dirty: bool,
    /// Earliest outstanding `PolicyWakeup` timer, if any: arming is
    /// deduplicated against it, and a popped timer that does not match is
    /// stale (superseded by an earlier one) and ignored.
    pub(crate) policy_wakeup_at: Option<SimTime>,
    pub(crate) events_processed: u64,
    pub(crate) makespan: SimTime,
    pub(crate) queue: EventQueue,
    pub(crate) jobs: JobTable,
    /// The map slots and the reduce slots: free, running every job's
    /// attempts, or lost to a failed host, each at its own speed.
    pub(crate) maps: SlotPool,
    pub(crate) reduces: SlotPool,
    /// Hosts that are down; one flag per host of the cluster.
    pub(crate) dead_hosts: Vec<bool>,
    /// Planned host failures, derived from `config.faults` or installed
    /// explicitly via [`SimulatorEngine::with_fault_plan`].
    pub(crate) fault_plan: Vec<HostFailure>,
    pub(crate) timeline: Vec<TimelineEntry>,
    /// The run collects per-job results (the configuration's
    /// `collect_job_results`).
    pub(crate) collected: bool,
    /// One entry per admitted job when the run collects results, filled
    /// at departure; empty otherwise.
    pub(crate) results: Vec<Option<JobResult>>,
}

/// [`RunState::check`]'s tally of a job's pending events.
const PENDING_ARRIVAL: u8 = 1;
const PENDING_DEPARTURE: u8 = 2;
const PENDING_ALL_MAPS: u8 = 4;

impl RunState {
    /// Checks every cross-field rule of a run state at a settled batch
    /// boundary and returns the first breach. These are the rules a
    /// resume relies on: a state that passes continues without panicking,
    /// and checkpoint decode and the invariant checker's resume both run
    /// this one function. The rules, in the order they are checked:
    ///
    /// * **Hosts and slots** — the cluster has a host, and host 0 (which
    ///   never fails) is up. Each pool has one dead flag per slot, and
    ///   every slot is exactly one of free, running or lost
    ///   ([`SlotPool::check_partition`]). A lost slot sits on a failed
    ///   host (slot `s` on host `s % hosts`), and a pool has one slowdown
    ///   factor per slot or none.
    /// * **Jobs** ([`Self::check_jobs`]) — each live job has its
    ///   template's task totals, has launched no more fresh tasks than it
    ///   has, and waits for at most all its maps before its reduces. A
    ///   job that has not arrived has launched nothing. Its launch orders
    ///   and task chains match the slot tables both ways, live attempts
    ///   are numbered below their task's launch count, a map's output
    ///   slot is a map slot, and no task past the fresh counter ever
    ///   ran. Every launched map is exactly one of requeued, running or
    ///   done, and `maps_completed` counts the done flags; a map runs
    ///   twice only as a speculated duplicate of a job that speculates,
    ///   and a pending duplicate shadows a live, undone, speculated map.
    ///   Fresh, requeued, running and completed reduces add up to the
    ///   total, a reduce runs at most once, and a reduce's shuffle is
    ///   resolved exactly when the job's map stage has closed, which it
    ///   has only once every map is done. Every running attempt is in
    ///   its job's launch order.
    /// * **Events** — each is below the queue's next sequence number and
    ///   not before the clock, and strictly after it once the run has
    ///   processed an event (the clock is then a settled batch). A job
    ///   event names an admitted job; an event of a retired job is stale
    ///   and ignored, unless it is an arrival or a departure. Each job
    ///   that has not arrived has exactly one pending `JobArrival`, at
    ///   its arrival time, and no other job has one; the arrivals pop in
    ///   `(arrival, id)` order, after every job that has arrived, which
    ///   arrived by the clock. A `JobDeparture`
    ///   names a live job that has finished every task, at most once, and
    ///   such a job has one. A job whose maps are all done has closed its
    ///   map stage or has `AllMapsFinished` pending. A task event of a
    ///   live job names one of its tasks and an attempt it launched, and
    ///   every running map attempt, and every reduce attempt with a
    ///   resolved shuffle, has its departure pending, at the instant the
    ///   attempt ends. A `HostFailure` matches a fault-plan entry (host
    ///   and instant) and a `HostRecovery` names a planned host.
    ///   `policy_wakeup_at` is `None`, or a `PolicyWakeup` is pending at
    ///   exactly that instant, later than the clock (else every later
    ///   timer at or after it would be dropped).
    /// * **Results** — one per admitted job when the run collects them
    ///   and none otherwise; a job has one exactly when it departed,
    ///   naming it, completing no earlier than its arrival and no later
    ///   than the clock, and the makespan is the latest completion.
    ///
    /// One pass over each table, with a few table-sized scratch vectors
    /// and no allocation per job. The queue keeps its events in
    /// `(time, seq)` order itself; decode checks the list it builds one
    /// from.
    pub(crate) fn check(&self) -> Result<(), String> {
        let hosts = self.dead_hosts.len();
        match self.dead_hosts.first() {
            None => return Err("the cluster has no host".into()),
            Some(true) => return Err("host 0, which never fails, is down".into()),
            Some(false) => {}
        }
        for (kind, pool) in [("map", &self.maps), ("reduce", &self.reduces)] {
            let n = pool.len();
            pool.check_partition(kind, n)?;
            if let Some(s) = (0..n).find(|&s| pool.dead[s] && !self.dead_hosts[s % hosts]) {
                return Err(format!("lost {kind} slot {s} is on host {}, which is up", s % hosts));
            }
            if !pool.slowdown.is_empty() && pool.slowdown.len() != n {
                let m = pool.slowdown.len();
                return Err(format!("{m} slowdown factors for {n} {kind} slots"));
            }
        }
        self.check_jobs()?;
        self.check_events()?;
        self.check_results()
    }

    /// The job rules of [`Self::check`], which the invariant checker also
    /// runs after every settled batch.
    pub(crate) fn check_jobs(&self) -> Result<(), String> {
        let mut marks = Vec::new();
        let (mut listed_maps, mut listed_reduces) = (0, 0);
        for (id, s) in self.jobs.iter() {
            s.check(id, &self.maps, &self.reduces, &mut marks)
                .map_err(|e| format!("job {}: {e}", id.0))?;
            listed_maps += s.maps.running();
            listed_reduces += s.reduces.running();
        }
        for (kind, pool, listed) in
            [("map", &self.maps, listed_maps), ("reduce", &self.reduces, listed_reduces)]
        {
            let occupied = pool.running.occupied().count();
            if occupied != listed {
                return Err(format!("{occupied} {kind} slots run, launch orders list {listed}"));
            }
        }
        Ok(())
    }

    /// The event rules of [`Self::check`]; the job tables are checked, so
    /// attempt lookups are safe.
    fn check_events(&self) -> Result<(), String> {
        use EventKind as K;
        let (events, next_seq, _) = self.queue.snapshot();
        let (lo, admitted) = (self.jobs.id_range().0, self.jobs.total());
        let mut pending = vec![0u8; admitted - lo];
        let mut map_due = vec![false; self.maps.len()];
        let mut reduce_due = vec![false; self.reduces.len()];
        let mut plan: Vec<(u32, SimTime)> =
            self.fault_plan.iter().map(|f| (f.host.0, f.at)).collect();
        plan.sort_unstable();
        let mut wakeup_pending = false;
        // the pending arrivals in pop order, by `(arrival, id)`: the job
        // queue takes each arriving job after every job already in it
        let (mut first_arrival, mut last_arrival) = (None, None);
        for e in &events {
            let (kind, job, task, t) = (e.kind, e.job, e.task_index, e.time);
            let j = job.0;
            if e.seq >= next_seq {
                return Err(format!("event seq {} not below {next_seq}", e.seq));
            }
            if t < self.clock || (t == self.clock && self.events_processed > 0) {
                let c = self.clock;
                return Err(format!("{kind:?} event at {t} before the clock {c} or at it"));
            }
            let state = match kind {
                K::HostFailure => {
                    if plan.binary_search(&(task, t)).is_err() {
                        return Err(format!(
                            "HostFailure of host {task} at {t} matches no fault-plan entry"
                        ));
                    }
                    continue;
                }
                K::HostRecovery => {
                    if plan.get(plan.partition_point(|p| p.0 < task)).is_none_or(|p| p.0 != task) {
                        let msg = "which no fault-plan entry fails";
                        return Err(format!("HostRecovery of host {task}, {msg}"));
                    }
                    continue;
                }
                K::PolicyWakeup => {
                    wakeup_pending |= self.policy_wakeup_at == Some(t);
                    continue;
                }
                _ if job.index() >= admitted => {
                    return Err(format!("{kind:?} event names job {j} of {admitted} admitted"));
                }
                _ => self.jobs.get(job),
            };
            // other events of a retired job are stale, which a resume
            // ignores; a departure would still move the makespan
            let s = match (kind, state) {
                (K::JobArrival, s) if s.is_none_or(|s| s.active) => {
                    return Err(format!("arrival of job {j}, which is retired or already arrived"));
                }
                (K::JobDeparture, None) => {
                    return Err(format!("departure of job {j}, which departed"));
                }
                (_, None) => continue,
                (_, Some(s)) => s,
            };
            let tally = &mut pending[job.index() - lo];
            match kind {
                K::JobArrival => {
                    if *tally & PENDING_ARRIVAL != 0 {
                        return Err(format!("job {j} has two pending arrivals"));
                    }
                    if t != s.arrival {
                        let at = s.arrival;
                        return Err(format!("arrival of job {j} at {t}, which arrives at {at}"));
                    }
                    if last_arrival.is_some_and(|last| last > (t, job)) {
                        return Err(format!("arrival of job {j} at {t} pops after a later job's"));
                    }
                    first_arrival = first_arrival.or(Some((t, job)));
                    last_arrival = Some((t, job));
                    *tally |= PENDING_ARRIVAL;
                }
                K::JobDeparture => {
                    if !s.active || !s.finished() {
                        return Err(format!("departure of job {j}, which has tasks left"));
                    }
                    if *tally & PENDING_DEPARTURE != 0 {
                        return Err(format!("job {j} has two pending departures"));
                    }
                    *tally |= PENDING_DEPARTURE;
                }
                K::AllMapsFinished => *tally |= PENDING_ALL_MAPS,
                K::MapTaskDeparture | K::SpeculationDue => {
                    check_task_event(e, &s.maps.recs, |r| r.launches)?;
                    let slot = self.maps.running.find(&s.maps, task, e.attempt);
                    if let (K::MapTaskDeparture, Some(slot)) = (kind, slot) {
                        let a = self.maps.running.get(slot).expect("a live attempt");
                        let base = s.template.map_duration(task as usize);
                        check_departure_time(e, a.start + self.maps.scaled(slot, base))?;
                        map_due[slot as usize] = true;
                    }
                }
                K::ReduceTaskDeparture => {
                    check_task_event(e, &s.reduces.recs, |r| r.launches)?;
                    if let Some(slot) = self.reduces.running.find(&s.reduces, task, e.attempt) {
                        let a = self.reduces.running.get(slot).expect("a live attempt");
                        let base = s.template.reduce_duration(task as usize);
                        check_departure_time(e, a.shuffle_end + self.reduces.scaled(slot, base))?;
                        reduce_due[slot as usize] = true;
                    }
                }
                K::HostFailure | K::HostRecovery | K::PolicyWakeup => {}
            }
        }
        if let Some(at) = self.policy_wakeup_at {
            if at <= self.clock || !wakeup_pending {
                let c = self.clock;
                return Err(format!(
                    "policy wakeup armed at {at} has no pending PolicyWakeup ({c})"
                ));
            }
        }
        for (job, s) in self.jobs.iter() {
            let (tally, id) = (pending[job.index() - lo], job.0);
            let maps_done = s.maps_completed == s.maps_total;
            if !s.active && tally & PENDING_ARRIVAL == 0 {
                return Err(format!("job {id} has not arrived and has no pending arrival"));
            }
            let after_pending = first_arrival.is_some_and(|f| (s.arrival, job) > f);
            if s.active && (s.arrival > self.clock || after_pending) {
                let at = s.arrival;
                return Err(format!("job {id} arrived at {at}, after the clock or an arrival"));
            }
            if s.active && maps_done && s.maps_finished.is_none() && tally & PENDING_ALL_MAPS == 0 {
                return Err(format!("job {id} finished its maps; no AllMapsFinished pending"));
            }
            if s.active && s.finished() && tally & PENDING_DEPARTURE == 0 {
                return Err(format!("job {id} finished every task and has no pending departure"));
            }
        }
        for (kind, pool, due) in
            [("map", &self.maps, &map_due), ("reduce", &self.reduces, &reduce_due)]
        {
            // a reduce with an unresolved shuffle departs once
            // AllMapsFinished resolves it
            let waiting = pool.running.occupied().find(|&(slot, a)| {
                !due[slot as usize] && (kind == "map" || !a.shuffle_end.is_infinite())
            });
            if let Some((slot, a)) = waiting {
                let (job, task, attempt) = (a.job.0, a.task, a.attempt);
                let attempt = format!("{kind} attempt {attempt} of job {job} task {task}");
                return Err(format!("{attempt} on slot {slot} has no pending departure"));
            }
        }
        Ok(())
    }

    /// The result rules of [`Self::check`].
    fn check_results(&self) -> Result<(), String> {
        let expected = if self.collected { self.jobs.total() } else { 0 };
        if self.results.len() != expected {
            return Err(format!("{} job results for {expected} expected", self.results.len()));
        }
        let mut latest = SimTime::ZERO;
        for (i, r) in self.results.iter().enumerate() {
            let departed = self.jobs.get(JobId(i as u32)).is_none();
            match r {
                None if departed => return Err(format!("job {i} departed without a result")),
                None => {}
                Some(_) if !departed => {
                    return Err(format!("job {i} has a result but has not departed"))
                }
                Some(r) => {
                    let (job, from, to) = (r.job.0, r.arrival, r.completion);
                    if job as usize != i || to < from || to > self.clock {
                        return Err(format!(
                            "result {i} names job {job} completing at {to} after arriving at \
                             {from}, by the clock {}",
                            self.clock
                        ));
                    }
                    latest = latest.max(to);
                }
            }
        }
        if self.collected && self.makespan != latest {
            let m = self.makespan;
            return Err(format!("makespan {m} is not the latest completion {latest}"));
        }
        Ok(())
    }
}

/// Fails unless task event `e` names a task in `recs` and an attempt no
/// later than that task's `launches`.
fn check_task_event<T>(e: &Event, recs: &[T], launches: impl Fn(&T) -> u32) -> Result<(), String> {
    let (kind, task, attempt) = (e.kind, e.task_index, e.attempt);
    check_below(format_args!("{kind:?} task"), [task], recs.len())?;
    let n = launches(&recs[task as usize]);
    if attempt > n {
        return Err(format!("{kind:?} names attempt {attempt} of task {task}, launched {n} times"));
    }
    Ok(())
}

/// Fails unless the departure `e` of a live attempt falls when the
/// attempt ends.
fn check_departure_time(e: &Event, end: SimTime) -> Result<(), String> {
    if e.time != end {
        let (kind, job, task, attempt, t) = (e.kind, e.job.0, e.task_index, e.attempt, e.time);
        return Err(format!(
            "{kind:?} of job {job} task {task} attempt {attempt} at {t}, which ends at {end}"
        ));
    }
    Ok(())
}

/// Fails unless every index in `indices` is below `bound`; `what` names
/// the field for the error.
pub(crate) fn check_below(
    what: impl std::fmt::Display,
    indices: impl IntoIterator<Item = u32>,
    bound: usize,
) -> Result<(), String> {
    match indices.into_iter().find(|&i| i as usize >= bound) {
        Some(i) => Err(format!("{what} {i} is out of range (bound {bound})")),
        None => Ok(()),
    }
}

/// The SimMR Simulator Engine.
///
/// Replays a [`WorkloadTrace`] against a slot-based job-master model under a
/// pluggable [`SchedulerPolicy`]. See the crate docs for the model and an
/// end-to-end example.
pub struct SimulatorEngine<'a> {
    pub(crate) config: EngineConfig,
    /// The job feed, pulled one arrival ahead. `None` once every job has
    /// been admitted: the source ran dry, or the engine was resumed from
    /// a checkpoint, which holds every job of the run.
    source: Option<Box<dyn JobSource + 'a>>,
    /// Arrival of the most recently pulled job, for enforcing the source's
    /// ordering contract.
    last_pulled_arrival: SimTime,
    /// Visible to the invariant checker, which runs the policy's own
    /// `verify_invariants` hook against the settled queue view.
    pub(crate) policy: Box<dyn SchedulerPolicy + 'a>,
    /// The policy's [`SchedulerPolicy::reads_task_counts`], read whenever
    /// a policy is adopted: when false, `sync_entry` reports a mutation
    /// only if it flipped one of the flags the policy reads.
    policy_reads_counts: bool,
    pub(crate) run: RunState,
    /// Persistent active-job view handed to the policy; kept in sync
    /// incrementally by every state transition, and rebuilt from the job
    /// table on resume.
    pub(crate) jobq: JobQueue,
    /// Scratch buffer for preemption victim lists, reused across rounds.
    victims: Vec<JobId>,
    /// Set once the initial events (arrivals, fault plan, recoveries) have
    /// been seeded; a resumed engine starts seeded (its event queue came
    /// from the checkpoint).
    seeded: bool,
    /// Opt-in runtime invariant checker (`None` on the production hot
    /// path). Boxed so a disabled engine pays one pointer of space and a
    /// predictable branch per event batch.
    invariants: Option<Box<InvariantState>>,
    /// Debug-only reference mode: rebuild the job view from scratch before
    /// every scheduling pass instead of trusting the incremental updates.
    #[cfg(any(test, debug_assertions))]
    snapshot_oracle: bool,
}

impl<'a> SimulatorEngine<'a> {
    /// Builds an engine that replays an in-memory trace: [`Self::from_source`]
    /// over a [`TraceJobSource`], so a materialized trace is admitted
    /// exactly like a streamed one.
    ///
    /// Jobs are numbered by stable arrival rank — sorted by
    /// `(arrival, trace position)` — which is the order the serve facade,
    /// the CLI and SIMMRBIN files already keep traces in. For an unsorted
    /// trace, `report.jobs[i]` is therefore the `i`-th job to arrive, not
    /// the `i`-th job of `trace.jobs`.
    ///
    /// A structurally invalid job template (impossible for traces built
    /// through [`simmr_types::JobTemplate::new`], possible for hand-edited
    /// serialized traces) fails the run when the job is pulled:
    /// [`Self::try_run`] returns the error and [`Self::run`] panics.
    pub fn new(
        config: EngineConfig,
        trace: &'a WorkloadTrace,
        policy: Box<dyn SchedulerPolicy + 'a>,
    ) -> Self {
        Self::from_source(config, Box::new(TraceJobSource::new(trace)), policy)
    }

    /// Builds an engine fed by a [`JobSource`].
    ///
    /// Exactly one arrival of lookahead is held in the event queue: the
    /// next job is pulled when the current arrival event pops, and a
    /// departed job's state is dropped immediately, so resident memory
    /// tracks the *active* job span rather than the source's job count.
    /// Source failures (I/O, decode, an out-of-order arrival, an invalid
    /// template) surface through [`Self::try_run`].
    pub fn from_source(
        config: EngineConfig,
        source: Box<dyn JobSource + 'a>,
        policy: Box<dyn SchedulerPolicy + 'a>,
    ) -> Self {
        let cluster = config.cluster;
        assert!(
            cluster.map_slots <= MAX_MAP_SLOTS,
            "{} map slots exceed the engine's {MAX_MAP_SLOTS}",
            cluster.map_slots
        );
        let (map_slowdown, reduce_slowdown) = match config.slowdown {
            Some(sd) => {
                let mut rng = SeededRng::new(sd.seed).fork(SLOWDOWN_STREAM);
                let mut draw =
                    |n: usize| (0..n).map(|_| sd.dist.sample(&mut rng).max(MIN_SLOWDOWN)).collect();
                let maps: Vec<f64> = draw(cluster.map_slots);
                let reduces: Vec<f64> = draw(cluster.reduce_slots);
                (maps, reduces)
            }
            None => (Vec::new(), Vec::new()),
        };
        let fault_plan: Vec<HostFailure> = match config.faults {
            Some(f) if cluster.hosts > 1 && f.count > 0 => {
                let mut rng = SeededRng::new(f.seed).fork(FAULT_STREAM);
                let gaps = Dist::Exponential { mean: f.mean_interval_ms.max(1) as f64 };
                let mut at = SimTime::ZERO;
                (0..f.count)
                    .map(|_| {
                        at += (gaps.sample(&mut rng).round() as u64).max(1);
                        // host 0 never fails, keeping every workload finishable
                        let host = HostId(1 + rng.index(cluster.hosts - 1) as u32);
                        HostFailure { host, at }
                    })
                    .collect()
            }
            _ => Vec::new(),
        };
        SimulatorEngine {
            config,
            source: Some(source),
            last_pulled_arrival: SimTime::ZERO,
            policy_reads_counts: policy.reads_task_counts(),
            policy,
            run: RunState {
                maps: SlotPool::new(cluster.map_slots, map_slowdown),
                reduces: SlotPool::new(cluster.reduce_slots, reduce_slowdown),
                dead_hosts: vec![false; cluster.hosts],
                fault_plan,
                collected: config.collect_job_results,
                ..RunState::default()
            },
            jobq: JobQueue::default(),
            victims: Vec::new(),
            seeded: false,
            invariants: config.invariants_enabled().then(|| Box::new(InvariantState::new(&config))),
            #[cfg(any(test, debug_assertions))]
            snapshot_oracle: false,
        }
    }

    /// Replaces the seeded fault plan with an explicit failure list (tests
    /// and what-if runs). Entries naming host 0, an unknown host, or an
    /// already-failed host are ignored at fire time.
    pub fn with_fault_plan(mut self, plan: Vec<HostFailure>) -> Self {
        self.run.fault_plan = plan;
        self
    }

    /// The host failures this run will inject, in plan order.
    pub fn fault_plan(&self) -> &[HostFailure] {
        &self.run.fault_plan
    }

    /// Debug-only reference mode: rebuilds the job view from the engine's
    /// per-job state before every scheduling pass (the pre-incremental
    /// behavior) and never skips a pass. Any divergence between a normal
    /// run and an oracle run is a bug in the incremental bookkeeping; the
    /// property tests compare the two report-for-report.
    #[cfg(any(test, debug_assertions))]
    pub fn with_snapshot_oracle(mut self) -> Self {
        self.snapshot_oracle = true;
        self
    }

    /// Runs the simulation to completion and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the job source fails mid-run (for an in-memory trace:
    /// only on an invalid job template); callers who want the failure as
    /// a value use [`Self::try_run`].
    pub fn run(self) -> SimulationReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Pulls one job from the source (if any is left) into the job table
    /// and schedules its arrival — the engine's one-event lookahead. Drops
    /// the source once it runs dry.
    fn pull_next_arrival(&mut self) -> Result<(), SourceError> {
        let Some(src) = self.source.as_deref_mut() else {
            return Ok(());
        };
        let Some(job) = src.next_job()? else {
            self.source = None;
            return Ok(());
        };
        if job.arrival < self.last_pulled_arrival {
            return Err(SourceError::new(format!(
                "out-of-order arrival {} after {} (sources must yield jobs in arrival order)",
                job.arrival.as_millis(),
                self.last_pulled_arrival.as_millis(),
            )));
        }
        job.template.validate().map_err(|e| SourceError::new(e.to_string()))?;
        self.last_pulled_arrival = job.arrival;
        self.admit(job.template, job.arrival, job.deadline);
        Ok(())
    }

    /// Adds a job to the table under the next id and queues its arrival.
    fn admit(&mut self, template: Arc<JobTemplate>, arrival: SimTime, deadline: Option<SimTime>) {
        let state = JobState::new(template, arrival, deadline, &self.config);
        let id = self.run.jobs.push(Box::new(state));
        if self.config.collect_job_results {
            self.run.results.push(None);
        }
        self.run.queue.push(arrival, EventKind::JobArrival, id, 0);
    }

    /// Runs the simulation to completion, surfacing streaming-source
    /// failures (I/O, decode, ordering violations) as errors.
    pub fn try_run(mut self) -> Result<SimulationReport, SourceError> {
        self.seed()?;
        self.run_loop(None)?;
        Ok(self.finish())
    }

    /// Pulls every job the source has left into the job table, each
    /// arrival queued. Checkpoints do this before capturing, so they are
    /// self-contained; an arrival surge does it before admitting its jobs,
    /// so surge jobs are numbered after every trace job however the trace
    /// is fed.
    fn admit_rest(&mut self) -> Result<(), SourceError> {
        while self.source.is_some() {
            self.pull_next_arrival()?;
        }
        Ok(())
    }

    /// Runs the shared prefix to the last settled batch at or before `t`
    /// and captures it as a checkpoint. The checkpoint holds every job the
    /// source had left, so [`Self::resume_materialized`] continues the run
    /// from it alone — no trace or source needed — byte-identically to
    /// never having stopped.
    pub fn checkpoint_at(mut self, t: SimTime) -> Result<crate::EngineCheckpoint, SourceError> {
        self.seed()?;
        self.run_loop(Some(t))?;
        self.admit_rest()?;
        Ok(self.capture(t))
    }

    /// Runs the engine to completion with `fork`'s divergences applied at
    /// the last settled batch at or before `fork.at` — the from-scratch
    /// reference a resumed-and-forked run must match byte for byte. Both
    /// paths go through the same [`Self::apply_fork`], so divergence
    /// semantics cannot drift between them.
    pub fn run_forked(mut self, fork: crate::ForkSpec) -> Result<SimulationReport, SourceError> {
        self.seed()?;
        self.run_loop(Some(fork.at))?;
        self.apply_fork(fork).map_err(|e| SourceError::new(e.to_string()))?;
        self.run_loop(None)?;
        Ok(self.finish())
    }

    /// Seeds the initial events: the first arrival of the one-event
    /// lookahead (the next is pulled each time an arrival pops), the fault
    /// plan and its recoveries. A no-op on resumed engines, whose event
    /// queue already carries everything still pending.
    fn seed(&mut self) -> Result<(), SourceError> {
        if self.seeded {
            return Ok(());
        }
        self.seeded = true;
        self.pull_next_arrival()?;
        for i in 0..self.run.fault_plan.len() {
            let f = self.run.fault_plan[i];
            self.run.queue.push(f.at, EventKind::HostFailure, JobId(0), f.host.0);
        }
        // One recovery per planned failure, after an exponential downtime
        // drawn from a dedicated stream: arming recovery never perturbs
        // the fault or slowdown plans.
        if let Some(rec) = self.config.recovery {
            let mut rng = SeededRng::new(rec.seed).fork(RECOVERY_STREAM);
            let downtime = Dist::Exponential { mean: rec.mean_ms.max(1) as f64 };
            for i in 0..self.run.fault_plan.len() {
                let f = self.run.fault_plan[i];
                let delay = (downtime.sample(&mut rng).round() as u64).max(1);
                self.run.queue.push(f.at + delay, EventKind::HostRecovery, JobId(0), f.host.0);
            }
        }
        Ok(())
    }

    /// The event loop. With `stop_after` set, stops at the first settled
    /// batch boundary past it: same-instant batching means the loop-top
    /// check only ever fires between batches, so a stopped engine is
    /// always in a checkpointable (fully settled) state.
    fn run_loop(&mut self, stop_after: Option<SimTime>) -> Result<(), SourceError> {
        loop {
            if let Some(stop) = stop_after {
                match self.run.queue.next_time() {
                    Some(next) if next <= stop => {}
                    _ => break,
                }
            }
            let Some(event) = self.run.queue.pop() else {
                break;
            };
            self.run.events_processed += 1;
            // Makespan tracks job completions only: stale events (a killed
            // attempt's in-flight departure, a lost speculation race, a
            // late fault or straggler timer) may pop after the last job
            // has departed.
            if event.kind == EventKind::JobDeparture {
                self.run.makespan = event.time;
            }
            let now = event.time;
            self.run.clock = now;
            let job = event.job;
            if let Some(inv) = self.invariants.as_deref_mut() {
                inv.on_event(now);
            }
            match event.kind {
                EventKind::JobArrival => {
                    self.on_job_arrival(job, now);
                    // Refill the lookahead before the batching check below:
                    // a same-instant next arrival must join this batch so
                    // the policy sees every job submitted at the instant.
                    self.pull_next_arrival()?;
                }
                EventKind::MapTaskDeparture => {
                    self.on_map_departure(job, event.task_index, event.attempt, now)
                }
                EventKind::AllMapsFinished => self.on_all_maps_finished(job, now),
                EventKind::ReduceTaskDeparture => {
                    self.on_reduce_departure(job, event.task_index, event.attempt, now)
                }
                EventKind::JobDeparture => self.on_job_departure(job, now),
                EventKind::HostFailure => self.on_host_failure(event.task_index, now),
                EventKind::SpeculationDue => {
                    self.on_speculation_due(job, event.task_index, event.attempt)
                }
                EventKind::HostRecovery => self.on_host_recovery(event.task_index),
                EventKind::PolicyWakeup => self.on_policy_wakeup(now),
            }
            // Make scheduling decisions only once every same-instant event
            // (simultaneous arrivals, departures, AllMapsFinished) has been
            // applied — the job master sees a consistent queue state, and
            // EDF-style policies observe all jobs submitted at that instant.
            if self.run.queue.next_time() == Some(now) {
                continue;
            }
            // Fixpoint at `now`: launches may complete instantly
            // (zero-duration tasks join the current batch) and unlock
            // further launches, so re-run until the instant is quiescent.
            loop {
                let launched = self.schedule(now);
                self.run.events_processed += launched;
                if let Some(inv) = self.invariants.as_deref_mut() {
                    inv.note_launches(launched);
                }
                if launched == 0 || self.run.queue.next_time() == Some(now) {
                    break;
                }
            }
            // The instant is quiescent (no further same-time events):
            // every engine invariant must hold on the settled state.
            if self.invariants.is_some() && self.run.queue.next_time() != Some(now) {
                let mut inv = self.invariants.take().expect("checked is_some");
                inv.check_batch(self, now);
                self.invariants = Some(inv);
            }
        }
        Ok(())
    }

    /// Assembles the final report from a drained engine, running the
    /// end-of-run invariant checks.
    fn finish(mut self) -> SimulationReport {
        let invariants = self.invariants.take();
        let jobs = if self.config.collect_job_results {
            self.run
                .results
                .into_iter()
                .enumerate()
                .map(|(i, r)| r.unwrap_or_else(|| panic!("job {i} never departed")))
                .collect()
        } else {
            Vec::new()
        };
        let report = SimulationReport {
            jobs,
            makespan: self.run.makespan,
            events_processed: self.run.events_processed,
            timeline: self.run.timeline,
        };
        if let Some(inv) = invariants {
            inv.check_report(&report, &self.run.maps, &self.run.reduces);
        }
        report
    }

    /// Asserts (when checking) that the dirty flag covers the queue
    /// mutation that just happened at `site` — every event handler and the
    /// preemption path must set `jobq_dirty` so the next scheduling pass
    /// cannot no-op against a silently changed queue. Task launches are
    /// exempt: they happen *inside* a pass, which re-consults the policy to
    /// a fixpoint before the flag matters again.
    fn note_mutation(&mut self, site: &'static str) {
        let dirty = self.run.jobq_dirty;
        if let Some(inv) = self.invariants.as_deref_mut() {
            inv.mutation_covered(dirty, site);
        }
    }

    /// Appends a timeline bar, running it through the online per-slot
    /// disjointness check when invariants are enabled.
    fn record_bar(
        &mut self,
        job: JobId,
        phase: TimelinePhase,
        slot: u32,
        start: SimTime,
        end: SimTime,
    ) {
        let bar = TimelineEntry { job, phase, slot, start, end };
        if let Some(inv) = self.invariants.as_deref_mut() {
            inv.check_bar(&bar);
        }
        self.run.timeline.push(bar);
    }

    /// Records the bar of map attempt `a`, which left `slot` at `now`, if
    /// the run records a timeline. Map bars are recorded when the attempt
    /// leaves its slot (departure or kill), not at launch: a killed
    /// attempt shows its true truncated extent, never a full-duration
    /// phantom bar overlapping the slot's next occupant.
    fn record_map_bar(&mut self, job: JobId, slot: u32, a: &Attempt, now: SimTime) {
        if self.config.record_timeline {
            self.record_bar(job, TimelinePhase::Map, slot, a.start, now);
        }
    }

    /// Records the bars of reduce attempt `a`, which left `slot` at `now`,
    /// if the run records a timeline: its shuffle, then its reduce phase
    /// from the shuffle's end. An attempt `killed` before its shuffle
    /// ended (a first-wave filler's end is infinite), or at that instant,
    /// records its shuffle alone, cut at `now`; a departing attempt
    /// records both, the reduce bar empty if the phase took no time.
    fn record_reduce_bars(
        &mut self,
        job: JobId,
        slot: u32,
        a: &Attempt,
        now: SimTime,
        killed: bool,
    ) {
        if !self.config.record_timeline {
            return;
        }
        if killed && a.shuffle_end >= now {
            self.record_bar(job, TimelinePhase::Shuffle, slot, a.start, now);
        } else {
            self.record_bar(job, TimelinePhase::Shuffle, slot, a.start, a.shuffle_end);
            self.record_bar(job, TimelinePhase::Reduce, slot, a.shuffle_end, now);
        }
    }

    /// The policy-visible entry equivalent to a job's current state.
    pub(crate) fn entry_of(&self, job: JobId) -> JobEntry {
        let s = self.run.jobs.get(job).expect("entry_of on a retired job");
        let mut e = JobEntry {
            id: job,
            arrival: s.arrival,
            deadline: s.deadline,
            pending_maps: 0,
            running_maps: 0,
            completed_maps: 0,
            total_maps: s.maps_total,
            pending_reduces: 0,
            running_reduces: 0,
            completed_reduces: 0,
            total_reduces: s.reduces_total,
            reduce_eligible: false,
        };
        s.refresh_entry(&mut e);
        e
    }

    /// Re-derives an active job's queue entry from its state and reports
    /// the change to the policy: the one way a queued entry changes.
    /// Every mutation site edits the `JobState`, then syncs once. The
    /// counters are rewritten in place in the queue, field by field, and
    /// the policy reads the new entry there. A policy that does not read
    /// task counts hears only of mutations that flip one of its flags.
    fn sync_entry(&mut self, job: JobId) {
        let state = self.run.jobs.get(job).expect("sync_entry on a retired job");
        let Some(entry) = self.jobq.get_mut(job) else {
            panic!("job {job} is not in the job queue");
        };
        let before = *entry;
        state.refresh_entry(entry);
        if self.policy_reads_counts || before.flags() != entry.flags() {
            self.policy.on_entry_mutated(&before, entry);
        }
    }

    fn on_job_arrival(&mut self, job: JobId, _now: SimTime) {
        let state = self.run.jobs.get_mut(job).expect("arrival of a retired job");
        state.active = true;
        let template = Arc::clone(&state.template);
        let relative_deadline = state.deadline.map(|d| d.since(state.arrival));
        let entry = self.entry_of(job);
        self.jobq.insert(entry);
        self.run.jobq_dirty = true;
        self.policy.on_job_arrival(job, &template, relative_deadline, self.config.cluster);
        // after on_job_arrival so routing-table state (pool assignment)
        // exists before the entry's counters are credited
        self.policy.on_job_queued(&entry);
        self.note_mutation("on_job_arrival");
    }

    fn on_map_departure(&mut self, job: JobId, task_index: u32, attempt: u32, now: SimTime) {
        let Some(state) = self.run.jobs.get_mut(job) else {
            // the job already departed and was retired; the attempt this
            // event named was accounted for then
            return;
        };
        let Some(slot) = self.run.maps.running.find(&state.maps, task_index, attempt) else {
            // stale departure from a killed attempt (preemption, host
            // failure, or a lost speculation race): its slot was already
            // handled at kill time, and nothing observable changed
            return;
        };
        let winner = self.run.maps.running.vacate(&mut state.maps, slot);
        let task = &mut state.maps.recs[task_index as usize];
        debug_assert!(!task.done(), "live attempt of an already-done map");
        task.set_done(true);
        task.set_output_slot(slot);
        state.maps_completed += 1;
        self.run.maps.free.push(slot);
        // First finisher wins: kill the losing duplicate attempts and
        // cancel a not-yet-launched duplicate. Only a speculated task can
        // have either.
        let mut losers: Vec<(u32, Attempt)> = Vec::new();
        if task.speculated() {
            if let Some(p) = state.spec_pending.iter().position(|&x| x == task_index) {
                state.spec_pending.remove(p);
            }
            let free = &mut self.run.maps.free;
            self.run.maps.running.vacate_task(&mut state.maps, task_index, |s, a| {
                free.push(s);
                losers.push((s, a));
            });
        }
        let all_done = state.maps_completed == state.maps_total;
        self.sync_entry(job);
        self.run.jobq_dirty = true;
        self.record_map_bar(job, slot, &winner, now);
        for (slot, loser) in losers {
            self.record_map_bar(job, slot, &loser, now);
        }
        if all_done {
            self.run.queue.push(now, EventKind::AllMapsFinished, job, 0);
        }
        self.note_mutation("on_map_departure");
    }

    /// Kills the victim job's most recently launched running map attempt:
    /// the slot frees immediately, all progress is lost, and the task
    /// returns to the pending queue for a later relaunch (Hadoop task-kill
    /// semantics) — unless another attempt of the same task is still alive
    /// or pending, in which case the survivor covers it. Returns false when
    /// the job had no running map.
    fn preempt_map(&mut self, job: JobId, now: SimTime) -> bool {
        let Some(state) = self.run.jobs.get_mut(job) else {
            return false;
        };
        let Some(slot) = state.maps.newest_slot() else {
            return false;
        };
        // The in-flight departure of (task, attempt) is now stale: the
        // pair no longer runs and attempts are never reused.
        let victim = self.run.maps.running.vacate(&mut state.maps, slot);
        if state.maps.recs[victim.task as usize].newest == NONE {
            state.requeue_killed_map(victim.task);
        }
        self.run.maps.free.push(slot);
        self.sync_entry(job);
        // The kill changed the policy-visible queue and freed a slot: the
        // next scheduling pass must not no-op behind a clean flag (a pass
        // that kills without relaunching would otherwise end that way).
        self.run.jobq_dirty = true;
        self.record_map_bar(job, slot, &victim, now);
        self.note_mutation("preempt_map");
        true
    }

    fn on_all_maps_finished(&mut self, job: JobId, now: SimTime) {
        // A host failure firing at the same instant can reopen the map
        // stage before this event pops, and a rerun wave can queue a second
        // AllMapsFinished later: only the first event of a truly closed
        // stage resolves the fillers.
        {
            let Some(state) = self.run.jobs.get_mut(job) else {
                return;
            };
            if state.maps_completed != state.maps_total || state.maps_finished.is_some() {
                return;
            }
            state.maps_finished = Some(now);
        }
        // Rewrite every in-flight first-wave filler's "infinite" duration to
        // (non-overlapping first shuffle) + (reduce phase), per §III-B, in
        // launch order. Resolving fillers changes neither the job queue
        // nor the free slots, so this handler leaves the dirty flag
        // untouched.
        let state = self.run.jobs.get_mut(job).expect("state fetched above");
        let template = &state.template;
        let slowdown = &self.run.reduces.slowdown;
        self.run.reduces.running.for_each_mut(&state.reduces, |slot, r| {
            if !r.shuffle_end.is_infinite() {
                // later-wave reduce already fully scheduled at launch
                return;
            }
            let shuffle = template.first_shuffle_duration(r.task as usize);
            let reduce = slots::scaled(slowdown, slot, template.reduce_duration(r.task as usize));
            r.shuffle_end = now + slots::scaled(slowdown, slot, shuffle);
            let finish = r.shuffle_end + reduce;
            self.run.queue.push_attempt(
                finish,
                EventKind::ReduceTaskDeparture,
                job,
                r.task,
                r.attempt,
            );
            // No bars yet: reduce bars are recorded at departure (or kill)
            // so a host failure can truncate them at the true extent.
        });
        if state.reduces_total == 0 {
            self.run.queue.push(now, EventKind::JobDeparture, job, 0);
        }
    }

    fn on_reduce_departure(&mut self, job: JobId, task_index: u32, attempt: u32, now: SimTime) {
        let Some(state) = self.run.jobs.get_mut(job) else {
            // the job already departed and was retired
            return;
        };
        let Some(slot) = self.run.reduces.running.find(&state.reduces, task_index, attempt) else {
            // stale departure from an attempt killed by a host failure
            return;
        };
        let done = self.run.reduces.running.vacate(&mut state.reduces, slot);
        state.reduces_completed += 1;
        let job_done = state.finished();
        self.run.reduces.free.push(slot);
        self.sync_entry(job);
        self.run.jobq_dirty = true;
        self.record_reduce_bars(job, slot, &done, now, false);
        if job_done {
            self.run.queue.push(now, EventKind::JobDeparture, job, 0);
        }
        self.note_mutation("on_reduce_departure");
    }

    fn on_job_departure(&mut self, job: JobId, now: SimTime) {
        let Some(state) = self.run.jobs.get_mut(job) else {
            // duplicate departure of an already-retired job
            return;
        };
        state.active = false;
        if let Some(removed) = self.jobq.remove(job) {
            // before on_job_departure, which may drop routing state the
            // policy needs to release the entry's counter contribution
            self.policy.on_job_dequeued(&removed);
        }
        self.run.jobq_dirty = true;
        if self.config.collect_job_results {
            let state = self.run.jobs.get(job).expect("state fetched above");
            self.run.results[job.index()] = Some(JobResult {
                job,
                name: state.template.name.clone(),
                arrival: state.arrival,
                first_map_start: state.first_map_start,
                maps_finished: state.maps_finished,
                completion: now,
                deadline: state.deadline,
                num_maps: state.maps_total,
                num_reduces: state.reduces_total,
            });
        }
        // Retire the state: later in-flight events naming this job (stale
        // attempt departures, straggler timers) resolve to `None` and
        // no-op, and the table's window compacts past it.
        self.run.jobs.retire(job);
        self.policy.on_job_departure(job);
        self.note_mutation("on_job_departure");
    }

    /// Removes a worker host (fail-stop, Hadoop semantics; permanent for
    /// the run unless a recovery model is armed):
    ///
    /// 1. every slot striped onto the host leaves the free pools forever;
    /// 2. attempts running on those slots are killed and the tasks requeued;
    /// 3. for jobs whose map stage is still open, *completed* map tasks
    ///    whose output lived on the host are re-executed (their output is
    ///    needed by reduces that have not shuffled it yet).
    ///
    /// Host 0 never fails: it always holds at least one slot of each kind
    /// under round-robin striping, so every workload remains finishable.
    /// This also shields against out-of-range hosts in a user fault plan.
    fn on_host_failure(&mut self, host: u32, now: SimTime) {
        let hosts = self.config.cluster.hosts;
        if host == 0 || host as usize >= hosts || self.run.dead_hosts[host as usize] {
            return;
        }
        self.run.dead_hosts[host as usize] = true;
        self.run.maps.fail_host(host as usize, hosts);
        self.run.reduces.fail_host(host as usize, hosts);

        let (lo, hi) = self.run.jobs.id_range();
        for j in lo..hi {
            let job = JobId(j as u32);
            let Some(state) = self.run.jobs.get_mut(job) else {
                continue;
            };
            if !state.active {
                continue;
            }
            let mut map_bars: Vec<(u32, Attempt)> = Vec::new();
            let mut reduce_bars: Vec<(u32, Attempt)> = Vec::new();
            let mut reruns = 0usize;
            // kill running map attempts placed on the dead host, in launch
            // order; the survivors keep theirs for the preemption victim
            // choice. A task whose last live attempt died is requeued in
            // kill order once the walk is done.
            let dead_maps = &self.run.maps.dead;
            let mut orphaned: Vec<u32> = Vec::new();
            self.run.maps.running.vacate_where(
                &mut state.maps,
                |slot| dead_maps[slot as usize],
                |slot, victim, survivor| {
                    if !survivor {
                        orphaned.push(victim.task);
                    }
                    map_bars.push((slot, victim));
                },
            );
            for task in orphaned {
                state.requeue_killed_map(task);
            }
            // Re-run completed maps whose output lived on the host — but
            // only while the map stage is still open. Once AllMapsFinished
            // has fired, every reduce has entered (or finished) its shuffle
            // and the model treats the map outputs as consumed; the stage
            // never re-opens.
            if state.maps_finished.is_none() {
                for (idx, task) in state.maps.recs.iter_mut().enumerate() {
                    if task.done() && dead_maps[task.output_slot() as usize] {
                        task.set_done(false);
                        task.set_speculated(false);
                        state.maps_completed -= 1;
                        state.requeued_maps.push(idx as u32);
                        reruns += 1;
                    }
                }
            }
            // kill running reduce attempts placed on the dead host
            let dead_reduces = &self.run.reduces.dead;
            let requeued = &mut state.requeued_reduces;
            self.run.reduces.running.vacate_where(
                &mut state.reduces,
                |slot| dead_reduces[slot as usize],
                |slot, victim, _| {
                    requeued.push(victim.task);
                    reduce_bars.push((slot, victim));
                },
            );
            if map_bars.is_empty() && reduce_bars.is_empty() && reruns == 0 {
                continue;
            }
            self.sync_entry(job);
            for (slot, m) in map_bars {
                self.record_map_bar(job, slot, &m, now);
            }
            for (slot, r) in reduce_bars {
                self.record_reduce_bars(job, slot, &r, now, true);
            }
        }
        self.run.jobq_dirty = true;
        self.note_mutation("on_host_failure");
    }

    /// Restores a failed worker host: the slots it lost rejoin the free
    /// pools, empty (no task state survives the downtime). Ignored for
    /// host 0, out-of-range ids, and hosts that are not currently dead
    /// (the matching failure was itself ignored, or the host already
    /// recovered); a recovered host may fail again if a later fault-plan
    /// entry names it.
    fn on_host_recovery(&mut self, host: u32) {
        let hosts = self.config.cluster.hosts;
        if host == 0 || host as usize >= hosts || !self.run.dead_hosts[host as usize] {
            return;
        }
        self.run.dead_hosts[host as usize] = false;
        self.run.maps.recover_host(host as usize, hosts);
        self.run.reduces.recover_host(host as usize, hosts);
        self.run.jobq_dirty = true;
        self.note_mutation("on_host_recovery");
    }

    /// Policy-requested timer (see [`SchedulerPolicy::next_wakeup`]): force
    /// a scheduling pass so time-based decisions (min-share preemption
    /// timeouts) fire at their exact instant instead of waiting for the
    /// next queue event. A timer that was superseded by an earlier one is
    /// stale and ignored.
    fn on_policy_wakeup(&mut self, now: SimTime) {
        if self.run.policy_wakeup_at != Some(now) {
            return;
        }
        self.run.policy_wakeup_at = None;
        self.run.jobq_dirty = true;
        self.note_mutation("on_policy_wakeup");
    }

    /// Straggler timer: the attempt launched `speculation_factor × median`
    /// ago is still running — make a duplicate attempt schedulable. The
    /// event is stale (ignored) when the attempt already finished or was
    /// killed; a task is speculated at most once per primary attempt.
    fn on_speculation_due(&mut self, job: JobId, task_index: u32, attempt: u32) {
        let Some(state) = self.run.jobs.get_mut(job) else {
            // the job departed (and was retired) before its timer fired
            return;
        };
        let task = &state.maps.recs[task_index as usize];
        if task.done() || task.speculated() {
            return;
        }
        if self.run.maps.running.find(&state.maps, task_index, attempt).is_none() {
            return;
        }
        state.maps.recs[task_index as usize].set_speculated(true);
        state.spec_pending.push(task_index);
        self.sync_entry(job);
        self.run.jobq_dirty = true;
        self.note_mutation("on_speculation_due");
    }

    /// Rebuilds the policy view from scratch, in the same `(arrival, id)`
    /// order the incremental queue guarantees. Shared by the debug-only
    /// snapshot oracle and the checkpoint-restore path, so the oracle's
    /// differential tests exercise the exact rebuild `resume_materialized`
    /// relies on.
    fn rebuild_jobq(&mut self) {
        let mut entries: Vec<crate::JobEntry> = self
            .run
            .jobs
            .iter()
            .filter(|(_, s)| s.active)
            .map(|(id, _)| self.entry_of(id))
            .collect();
        entries.sort_by_key(|e| (e.arrival, e.id));
        self.jobq.clear();
        for entry in entries {
            self.jobq.insert(entry);
        }
    }

    /// One scheduling pass: drains free slots through the policy against
    /// the incrementally-maintained job view. Returns the number of task
    /// launches (each counts as one processed event). Skipped outright when
    /// nothing changed since the previous pass.
    fn schedule(&mut self, now: SimTime) -> u64 {
        #[cfg(any(test, debug_assertions))]
        if self.snapshot_oracle {
            self.rebuild_jobq();
            self.run.jobq_dirty = true;
        }
        if !self.run.jobq_dirty {
            return 0;
        }
        self.run.jobq_dirty = false;
        // NOTE: no free-slot early return here. A fully busy cluster must
        // still reach the preemption rounds below — bailing out when no
        // slot of either kind is free silently disabled `map_preemptions`
        // exactly when preemption matters most.
        self.jobq.now = now;
        if self.jobq.is_empty() {
            // still consult the wakeup hook: time-based policies clear
            // their starvation clocks when the queue drains
            self.consult_wakeup(now);
            return 0;
        }
        let mut launched = 0u64;
        // Map launches, then preemption rounds: when the map slots are
        // exhausted, the policy may name victim jobs whose most recent map
        // task is killed and requeued, freeing slots for more urgent work,
        // which the next launch pass fills. Bounded by the cluster size so
        // a misbehaving policy cannot loop forever.
        let mut rounds = self.config.cluster.map_slots;
        loop {
            while !self.run.maps.free.is_empty() {
                let Some(id) = self.policy.choose_next_map_task(&self.jobq) else {
                    break;
                };
                let Some(entry) = self.jobq.get(id) else {
                    debug_assert!(false, "policy chose unknown job {id}");
                    break;
                };
                if !entry.has_schedulable_map() {
                    debug_assert!(false, "policy chose job {id} without pending maps");
                    break;
                }
                self.launch_map(id, now);
                launched += 1;
            }
            if !self.run.maps.free.is_empty() || rounds == 0 {
                break;
            }
            rounds -= 1;
            self.victims.clear();
            self.policy.map_preemptions(&self.jobq, &mut self.victims);
            let mut any = false;
            for i in 0..self.victims.len() {
                let victim = self.victims[i];
                if self.preempt_map(victim, now) {
                    any = true;
                }
            }
            if !any {
                break;
            }
        }

        while !self.run.reduces.free.is_empty() {
            let Some(id) = self.policy.choose_next_reduce_task(&self.jobq) else {
                break;
            };
            let Some(entry) = self.jobq.get(id) else {
                debug_assert!(false, "policy chose unknown job {id}");
                break;
            };
            if !entry.has_schedulable_reduce() {
                debug_assert!(false, "policy chose job {id} without schedulable reduces");
                break;
            }
            self.launch_reduce(id, now);
            launched += 1;
        }
        self.consult_wakeup(now);
        launched
    }

    /// Asks the policy for its next time-based deadline and arms a
    /// `PolicyWakeup` timer for it. Arming is deduplicated: a new timer is
    /// pushed only when it is strictly earlier than the outstanding one
    /// (the pop-side handler re-consults after every fired timer, so a
    /// later deadline is re-armed then).
    fn consult_wakeup(&mut self, now: SimTime) {
        if let Some(at) = self.policy.next_wakeup(&self.jobq) {
            if at > now && !at.is_infinite() && self.run.policy_wakeup_at.is_none_or(|p| at < p) {
                self.run.policy_wakeup_at = Some(at);
                self.run.queue.push(at, EventKind::PolicyWakeup, JobId(0), 0);
            }
        }
    }

    fn launch_map(&mut self, job: JobId, now: SimTime) {
        let slot = self.run.maps.free.pop().expect("launch_map called with no free map slot");
        let state = self.run.jobs.get_mut(job).expect("launch_map on a retired job");
        // Requeued tasks (kills, failure reruns) go first, then fresh tasks,
        // then speculative duplicates of running stragglers.
        let (idx, primary) = if let Some(idx) = state.requeued_maps.pop() {
            (idx, true)
        } else if state.fresh_maps < state.maps_total {
            let fresh = state.fresh_maps as u32;
            state.fresh_maps += 1;
            (fresh, true)
        } else {
            let idx = state
                .spec_pending
                .pop()
                .expect("launch_map called on a job with no pending map work");
            (idx, false)
        };
        let task = &mut state.maps.recs[idx as usize];
        task.launches += 1;
        let (attempt, already_speculated) = (task.launches, task.speculated());
        let a = Attempt::new(job, idx, attempt, now, SimTime::INFINITY);
        self.run.maps.running.launch(&mut state.maps, slot, a);
        state.first_map_start.get_or_insert(now);
        let spec_threshold = state.spec_threshold;
        let base = state.template.map_duration(idx as usize);
        self.sync_entry(job);
        let duration = self.run.maps.scaled(slot, base);
        self.run.queue.push_attempt(now + duration, EventKind::MapTaskDeparture, job, idx, attempt);
        // Arm the straggler timer only for primary attempts that will
        // actually outlive the threshold (the common fast case never
        // allocates a timer event).
        if primary && spec_threshold > 0 && duration > spec_threshold && !already_speculated {
            self.run.queue.push_attempt(
                now + spec_threshold,
                EventKind::SpeculationDue,
                job,
                idx,
                attempt,
            );
        }
        // No timeline bar yet: map bars are recorded when the attempt
        // leaves the slot (departure or kill), so killed attempts show
        // their true truncated extent.
    }

    fn launch_reduce(&mut self, job: JobId, now: SimTime) {
        let slot =
            self.run.reduces.free.pop().expect("launch_reduce called with no free reduce slot");
        let state = self.run.jobs.get_mut(job).expect("launch_reduce on a retired job");
        let maps_done = state.maps_finished.is_some();
        let idx = state.requeued_reduces.pop().unwrap_or_else(|| {
            let fresh = state.fresh_reduces as u32;
            state.fresh_reduces += 1;
            fresh
        });
        let task = &mut state.reduces.recs[idx as usize];
        task.launches += 1;
        let attempt = task.launches;
        let shuffle_end = if maps_done {
            // later-wave reduce: typical shuffle + reduce phase
            let shuffle = state.template.typical_shuffle_duration(idx as usize);
            let reduce =
                self.run.reduces.scaled(slot, state.template.reduce_duration(idx as usize));
            let shuffle_end = now + self.run.reduces.scaled(slot, shuffle);
            self.run.queue.push_attempt(
                shuffle_end + reduce,
                EventKind::ReduceTaskDeparture,
                job,
                idx,
                attempt,
            );
            shuffle_end
        } else {
            // first-wave filler of "infinite" duration; resolved by
            // AllMapsFinished
            SimTime::INFINITY
        };
        let a = Attempt::new(job, idx, attempt, now, shuffle_end);
        self.run.reduces.running.launch(&mut state.reduces, slot, a);
        // after the launch: the entry's running count is the job's
        self.sync_entry(job);
        // No timeline bars yet: reduce bars are recorded at departure (or
        // kill) so a host failure can truncate them at the true extent.
    }

    /// Turns the engine, stopped at a settled boundary, into a checkpoint:
    /// its run state and the policy's snapshot. `at` records the
    /// *requested* checkpoint instant; the actual boundary is the clock
    /// (the last settled batch at or before `at`).
    fn capture(self, at: SimTime) -> crate::EngineCheckpoint {
        crate::EngineCheckpoint {
            at,
            policy_name: self.policy.name().to_string(),
            policy_blob: self.policy.snapshot(),
            run: self.run,
        }
    }

    /// Resumes a checkpoint: the one way back into a captured run.
    ///
    /// [`Self::checkpoint_at`] admits every job the source had left before
    /// capturing, so the checkpoint carries the whole job table and no
    /// trace or source is needed to continue — which is what lets the
    /// serve layer replay suffixes from a memoized checkpoint alone.
    /// `config` must be the configuration of the original run (the cluster
    /// shape and result collection are validated; behavioral knobs like
    /// speculation are the caller's contract), and `policy` a fresh policy
    /// of the kind that captured the checkpoint — divergences are applied
    /// afterwards via [`Self::apply_fork`].
    pub fn resume_materialized(
        config: EngineConfig,
        ckpt: &crate::EngineCheckpoint,
        policy: Box<dyn SchedulerPolicy + 'a>,
    ) -> Result<Self, crate::CkptError> {
        use crate::CkptError;
        let c = config.cluster;
        let shape = (ckpt.run.maps.len(), ckpt.run.reduces.len(), ckpt.run.dead_hosts.len());
        if (c.map_slots, c.reduce_slots, c.hosts) != shape {
            return Err(CkptError::Mismatch(format!(
                "checkpoint cluster is {}m/{}r slots on {} hosts, resume config says {}m/{}r on {}",
                shape.0, shape.1, shape.2, c.map_slots, c.reduce_slots, c.hosts
            )));
        }
        if policy.name() != ckpt.policy_name {
            return Err(CkptError::Mismatch(format!(
                "checkpoint was captured under policy '{}', resume offers '{}'",
                ckpt.policy_name,
                policy.name()
            )));
        }
        if config.collect_job_results != ckpt.run.collected {
            return Err(CkptError::Mismatch(format!(
                "checkpoint {} job results, resume config {} them",
                if ckpt.run.collected { "collected" } else { "did not collect" },
                if config.collect_job_results { "collects" } else { "does not collect" }
            )));
        }
        let mut engine = SimulatorEngine {
            config,
            source: None,
            last_pulled_arrival: SimTime::ZERO,
            // set by `adopt_policy` below
            policy_reads_counts: true,
            policy,
            run: ckpt.run.clone(),
            jobq: JobQueue::with_capacity(ckpt.run.jobs.total().min(1024)),
            victims: Vec::new(),
            seeded: true,
            invariants: config
                .invariants_enabled()
                .then(|| Box::new(InvariantState::resume(&config, &ckpt.run))),
            #[cfg(any(test, debug_assertions))]
            snapshot_oracle: false,
        };
        engine.jobq.now = engine.run.clock;
        engine.rebuild_jobq();
        engine.adopt_policy();
        engine.policy.restore(&ckpt.policy_blob).map_err(CkptError::Mismatch)?;
        Ok(engine)
    }

    /// Replays the arrival-side policy hooks for every live job, in the
    /// `(arrival, id)` order the original run fired them, restricted to
    /// still-active jobs — used when a fresh policy object takes over a
    /// mid-run queue (checkpoint restore, the policy-swap divergence).
    /// Derivable policy state (routing tables, wanted-slot caps,
    /// ordered job views, share counters) is fully rebuilt by the
    /// replay; only non-derivable state (starvation clocks) needs the
    /// snapshot blob on top.
    fn adopt_policy(&mut self) {
        self.policy_reads_counts = self.policy.reads_task_counts();
        let entries: Vec<JobEntry> = self.jobq.entries().to_vec();
        for e in &entries {
            let state = self.run.jobs.get(e.id).expect("queued job must be live");
            let template = Arc::clone(&state.template);
            let relative_deadline = state.deadline.map(|d| d.since(state.arrival));
            self.policy.on_job_arrival(e.id, &template, relative_deadline, self.config.cluster);
        }
        for e in &entries {
            self.policy.on_job_queued(e);
        }
    }

    /// Applies a fork's divergences at the current settled boundary.
    /// Shared verbatim by the warm-start path (resume, then fork) and the
    /// from-scratch reference ([`Self::run_forked`]), which is what makes
    /// the two byte-identical by construction. Divergence-injected events
    /// land strictly after the boundary batch, which has already settled.
    pub fn apply_fork(&mut self, fork: crate::ForkSpec) -> Result<(), crate::CkptError> {
        use crate::{CkptError, Divergence};
        let horizon =
            if self.run.events_processed > 0 { self.run.clock + 1 } else { SimTime::ZERO };
        for d in fork.divergences {
            match d {
                Divergence::PolicySwap(new_policy) => {
                    // The incoming policy starts from scratch: it adopts
                    // the live queue through the same hook replay a
                    // restore uses, and owns scheduling from the next
                    // event on.
                    self.policy = new_policy;
                    self.adopt_policy();
                    self.run.jobq_dirty = true;
                }
                Divergence::AddSlots { map_slots, reduce_slots } => {
                    // Grow-only: new slots join the free pools alive and
                    // at nominal speed; the cluster never shrinks
                    // mid-run (occupied slots cannot be revoked here —
                    // that is what InjectFault models).
                    let old_m = self.config.cluster.map_slots;
                    if map_slots > MAX_MAP_SLOTS - old_m {
                        return Err(CkptError::Mismatch(format!(
                            "adding {map_slots} map slots to {old_m} exceeds the engine's \
                             {MAX_MAP_SLOTS}"
                        )));
                    }
                    self.config.cluster.map_slots += map_slots;
                    self.config.cluster.reduce_slots += reduce_slots;
                    let (new_m, new_r) =
                        (self.config.cluster.map_slots, self.config.cluster.reduce_slots);
                    self.run.maps.grow(new_m);
                    self.run.reduces.grow(new_r);
                    if let Some(inv) = self.invariants.as_deref_mut() {
                        inv.grow_cluster(new_m, new_r);
                    }
                    self.run.jobq_dirty = true;
                }
                Divergence::InjectFault { host, at } => {
                    if host.0 == 0 || host.0 as usize >= self.config.cluster.hosts {
                        return Err(CkptError::Mismatch(format!(
                            "fork fault names host {} of a {}-host cluster \
                             (host 0 never fails)",
                            host.0, self.config.cluster.hosts
                        )));
                    }
                    let t = at.max(horizon);
                    self.run.fault_plan.push(HostFailure { host, at: t });
                    self.run.queue.push(t, EventKind::HostFailure, JobId(0), host.0);
                }
                Divergence::ArrivalSurge(specs) => {
                    self.admit_rest().map_err(|e| {
                        CkptError::Mismatch(format!("job source failed before the surge: {e}"))
                    })?;
                    for spec in specs {
                        spec.template.validate().map_err(|e| {
                            CkptError::Mismatch(format!("surge job template invalid: {e}"))
                        })?;
                        self.admit(spec.template, spec.arrival.max(horizon), spec.deadline);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultSpec, RecoverySpec};
    use simmr_types::{JobSpec, JobTemplate};

    /// Minimal FIFO used to exercise the engine in isolation.
    struct TestFifo;
    impl SchedulerPolicy for TestFifo {
        fn name(&self) -> &str {
            "test-fifo"
        }
        fn choose_next_map_task(&mut self, q: &JobQueue) -> Option<JobId> {
            q.entries()
                .iter()
                .filter(|e| e.has_schedulable_map())
                .min_by_key(|e| (e.arrival, e.id))
                .map(|e| e.id)
        }
        fn choose_next_reduce_task(&mut self, q: &JobQueue) -> Option<JobId> {
            q.entries()
                .iter()
                .filter(|e| e.has_schedulable_reduce())
                .min_by_key(|e| (e.arrival, e.id))
                .map(|e| e.id)
        }
    }

    /// EDF with one preemption victim per round, mirroring `maxedf-p` —
    /// exercises the kill-and-requeue path without depending on simmr-sched.
    struct TestEdfPreempt;
    impl SchedulerPolicy for TestEdfPreempt {
        fn name(&self) -> &str {
            "test-edf-p"
        }
        fn choose_next_map_task(&mut self, q: &JobQueue) -> Option<JobId> {
            q.entries()
                .iter()
                .filter(|e| e.has_schedulable_map())
                .min_by_key(|e| e.edf_key())
                .map(|e| e.id)
        }
        fn choose_next_reduce_task(&mut self, q: &JobQueue) -> Option<JobId> {
            q.entries()
                .iter()
                .filter(|e| e.has_schedulable_reduce())
                .min_by_key(|e| e.edf_key())
                .map(|e| e.id)
        }
        fn map_preemptions(&mut self, q: &JobQueue, victims: &mut Vec<JobId>) {
            let Some(urgent) =
                q.entries().iter().filter(|e| e.has_schedulable_map()).min_by_key(|e| e.edf_key())
            else {
                return;
            };
            if let Some(victim) = q
                .entries()
                .iter()
                .filter(|e| {
                    e.id != urgent.id && e.running_maps > 0 && e.edf_key() > urgent.edf_key()
                })
                .max_by_key(|e| e.edf_key())
            {
                victims.push(victim.id);
            }
        }
    }

    fn run(config: EngineConfig, trace: &WorkloadTrace) -> SimulationReport {
        SimulatorEngine::new(config, trace, Box::new(TestFifo)).run()
    }

    fn uniform_job(
        maps: usize,
        reduces: usize,
        map_ms: u64,
        first_sh: u64,
        typ_sh: u64,
        red_ms: u64,
        arrival: SimTime,
    ) -> JobSpec {
        JobSpec::new(
            JobTemplate::new(
                "t",
                vec![map_ms; maps],
                if reduces > 0 { vec![first_sh] } else { vec![] },
                if reduces > 0 { vec![typ_sh; reduces] } else { vec![] },
                vec![red_ms; reduces],
            )
            .unwrap(),
            arrival,
        )
    }

    #[test]
    fn map_only_job_completion() {
        // 4 maps of 100ms on 2 slots -> 2 waves -> 200ms
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(4, 0, 100, 0, 0, 0, SimTime::ZERO));
        let report = run(EngineConfig::new(2, 2), &trace);
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(200));
        assert_eq!(report.jobs[0].maps_finished, Some(SimTime::from_millis(200)));
        assert_eq!(report.jobs[0].duration(), 200);
    }

    #[test]
    fn first_wave_fillers_use_first_shuffle() {
        // Maps of 50ms and 100ms on 2 map slots; 2 reduces on 2 slots.
        // Slowstart 5% (threshold 1 map): map 0 departs at t=50, reduces
        // become eligible and launch at t=50 as first-wave *fillers* (the
        // map stage is still running). Maps finish at t=100, so the fillers
        // resolve to 100 + first_shuffle(50) + reduce(30) = 180. The
        // typical-shuffle value (999) must NOT be used.
        let template =
            JobTemplate::new("t", vec![50, 100], vec![50], vec![999, 999], vec![30, 30]).unwrap();
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(JobSpec::new(template, SimTime::ZERO));
        let report = run(EngineConfig::new(2, 2), &trace);
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(180));
    }

    #[test]
    fn typical_shuffle_used_for_later_waves() {
        // 2 maps (100ms each) on 1 map slot => map stage ends at t=200.
        // 2 reduces on 1 reduce slot, slowstart 0.5 (threshold 1 map):
        // Wave 1: reduce 0 launches at t=100 as a filler; maps finish at
        //   t=200, so it departs at 200 + first_shuffle(20) + reduce(30)
        //   = 250.
        // Wave 2: reduce 1 launches at t=250 after the map stage — it uses
        //   the *typical* shuffle: 250 + 40 + 30 = 320.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(2, 2, 100, 20, 40, 30, SimTime::ZERO));
        let report = run(EngineConfig::new(1, 1).with_slowstart(0.5), &trace);
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(320));
    }

    #[test]
    fn slowstart_delays_reduce_launch() {
        // 4 maps of 100ms on 1 map slot; maps finish at t=400.
        // slowstart 1.0: the reduce only launches once AllMapsFinished has
        // been applied, so it runs as a later-wave task with the *typical*
        // shuffle: 400 + 40 + 30 = 470.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(4, 1, 100, 20, 40, 30, SimTime::ZERO));
        let report = run(EngineConfig::new(1, 1).with_slowstart(1.0), &trace);
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(470));

        // slowstart 0.05: the reduce launches right after the first map
        // (t=100) as a first-wave filler; it resolves with the
        // non-overlapping *first* shuffle: 400 + 20 + 30 = 450 — earlier,
        // because the overlapped part of its shuffle was already done.
        let report = run(EngineConfig::new(1, 1).with_slowstart(0.05), &trace);
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(450));
    }

    #[test]
    fn multi_wave_maps() {
        // 5 maps of 100ms on 2 slots: waves at 100,200,300 => 300ms total
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(5, 0, 100, 0, 0, 0, SimTime::ZERO));
        let report = run(EngineConfig::new(2, 2), &trace);
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(300));
    }

    #[test]
    fn fifo_two_jobs_share_cluster() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(2, 0, 100, 0, 0, 0, SimTime::ZERO));
        trace.push(uniform_job(2, 0, 100, 0, 0, 0, SimTime::ZERO));
        // 2 map slots: job 0 takes both (FIFO), finishes at 100; job 1 runs
        // 100..200.
        let report = run(EngineConfig::new(2, 2), &trace);
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(100));
        assert_eq!(report.jobs[1].completion, SimTime::from_millis(200));
    }

    #[test]
    fn late_arrival_waits() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(1, 0, 100, 0, 0, 0, SimTime::from_millis(500)));
        let report = run(EngineConfig::new(4, 4), &trace);
        assert_eq!(report.jobs[0].arrival, SimTime::from_millis(500));
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(600));
    }

    #[test]
    fn deterministic_replay() {
        let mut trace = WorkloadTrace::new("t", "test");
        for i in 0..20 {
            trace.push(uniform_job(
                3 + i % 5,
                1 + i % 3,
                50 + (i as u64 * 13) % 200,
                10,
                25,
                15,
                SimTime::from_millis((i as u64 * 37) % 400),
            ));
        }
        let r1 = run(EngineConfig::new(4, 3), &trace);
        let r2 = run(EngineConfig::new(4, 3), &trace);
        assert_eq!(r1, r2);
    }

    #[test]
    fn timeline_recording() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(2, 1, 100, 20, 40, 30, SimTime::ZERO));
        let report = run(EngineConfig::new(2, 1).with_timeline(), &trace);
        // 2 map bars + 1 shuffle bar + 1 reduce bar
        let maps = report.timeline.iter().filter(|t| t.phase == TimelinePhase::Map).count();
        let shuffles = report.timeline.iter().filter(|t| t.phase == TimelinePhase::Shuffle).count();
        let reduces = report.timeline.iter().filter(|t| t.phase == TimelinePhase::Reduce).count();
        assert_eq!((maps, shuffles, reduces), (2, 1, 1));
        for bar in &report.timeline {
            assert!(bar.start <= bar.end);
        }
        // without the flag the timeline stays empty
        let report = run(EngineConfig::new(2, 1), &trace);
        assert!(report.timeline.is_empty());
    }

    /// Groups bars by (kind-of-slot, slot id) and checks pairwise
    /// disjointness; shuffle+reduce of one task share a slot contiguously,
    /// so adjacent reduce-slot bars are merged first.
    fn assert_timeline_disjoint(report: &SimulationReport, map_slots: usize, reduce_slots: usize) {
        let mut map_bars: std::collections::HashMap<u32, Vec<(u64, u64)>> = Default::default();
        let mut red_bars: std::collections::HashMap<u32, Vec<(u64, u64)>> = Default::default();
        for bar in &report.timeline {
            let target = match bar.phase {
                TimelinePhase::Map => &mut map_bars,
                _ => &mut red_bars,
            };
            target.entry(bar.slot).or_default().push((bar.start.as_millis(), bar.end.as_millis()));
        }
        assert!(map_bars.len() <= map_slots);
        assert!(red_bars.len() <= reduce_slots);
        for bars in map_bars.values_mut() {
            bars.sort_unstable();
            for w in bars.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap on map slot: {w:?}");
            }
        }
        for bars in red_bars.values_mut() {
            bars.sort_unstable();
            let mut merged: Vec<(u64, u64)> = Vec::new();
            for &(s, e) in bars.iter() {
                match merged.last_mut() {
                    Some(last) if s == last.1 => last.1 = e,
                    _ => merged.push((s, e)),
                }
            }
            for w in merged.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap on reduce slot: {w:?}");
            }
        }
    }

    #[test]
    fn timeline_slots_never_oversubscribed() {
        let mut trace = WorkloadTrace::new("t", "test");
        for i in 0..10 {
            trace.push(uniform_job(6, 3, 90, 15, 35, 25, SimTime::from_millis(i * 40)));
        }
        let report = run(EngineConfig::new(3, 2).with_timeline(), &trace);
        assert_timeline_disjoint(&report, 3, 2);
    }

    #[test]
    fn timeline_slots_never_oversubscribed_under_preemption() {
        // Regression test for the preemption-path pair of bugs: killed map
        // attempts used to keep their full launch-time bar (overlapping the
        // slot's next occupant), and `preempt_map` left `jobq_dirty` unset.
        // Staggered arrivals with ever-tighter deadlines under 3 contended
        // map slots force repeated kills; invariants are armed so the
        // checker cross-examines every batch as well.
        let mut trace = WorkloadTrace::new("t", "test");
        for i in 0..10u64 {
            trace.push(
                uniform_job(6, 2, 200, 15, 35, 25, SimTime::from_millis(i * 60))
                    .with_deadline(SimTime::from_millis(20_000 - i * 1_800)),
            );
        }
        let report = SimulatorEngine::new(
            EngineConfig::new(3, 2).with_timeline().with_invariants(),
            &trace,
            Box::new(TestEdfPreempt),
        )
        .run();
        assert_eq!(report.jobs.len(), 10);
        assert_timeline_disjoint(&report, 3, 2);
        // preemption actually happened: killed attempts add extra map bars
        let total_maps: usize = trace.jobs.iter().map(|j| j.template.num_maps).sum();
        let map_bars = report.timeline.iter().filter(|t| t.phase == TimelinePhase::Map).count();
        assert!(
            map_bars > total_maps,
            "no preemption occurred ({map_bars} bars, {total_maps} maps)"
        );
    }

    #[test]
    fn preempted_map_bar_truncated_at_kill() {
        // Job 0 (loose deadline) holds the only map slot; job 1 arrives at
        // t=200 with a tight deadline and preempts it. The killed attempt
        // must leave a bar truncated at exactly t=200, and job 0's relaunch
        // restarts from scratch at t=300.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(
            uniform_job(2, 0, 1000, 0, 0, 0, SimTime::ZERO)
                .with_deadline(SimTime::from_millis(100_000)),
        );
        trace.push(
            uniform_job(1, 0, 100, 0, 0, 0, SimTime::from_millis(200))
                .with_deadline(SimTime::from_millis(300)),
        );
        let report = SimulatorEngine::new(
            EngineConfig::new(1, 1).with_timeline().with_invariants(),
            &trace,
            Box::new(TestEdfPreempt),
        )
        .run();
        assert_eq!(report.jobs[1].completion, SimTime::from_millis(300));
        // job 0: map 0 reruns 300..1300, map 1 runs 1300..2300
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(2300));
        let mut map_bars: Vec<(u32, u64, u64)> = report
            .timeline
            .iter()
            .filter(|t| t.phase == TimelinePhase::Map)
            .map(|t| (t.job.0, t.start.as_millis(), t.end.as_millis()))
            .collect();
        map_bars.sort_unstable_by_key(|&(_, s, _)| s);
        // 3 map tasks + 1 killed attempt = 4 bars, killed bar cut at t=200
        assert_eq!(map_bars, vec![(0, 0, 200), (1, 200, 300), (0, 300, 1300), (0, 1300, 2300)]);
        assert_timeline_disjoint(&report, 1, 1);
    }

    #[test]
    fn event_count_and_makespan() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(3, 2, 100, 10, 20, 15, SimTime::ZERO));
        let report = run(EngineConfig::new(2, 2), &trace);
        // At least: 1 job arrival + 3*2 map events + 2*2 reduce events +
        // all-maps + departure = 13
        assert!(report.events_processed >= 13, "{}", report.events_processed);
        assert_eq!(report.makespan, report.jobs[0].completion);
    }

    #[test]
    fn zero_duration_tasks() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(2, 1, 0, 0, 0, 0, SimTime::ZERO));
        let report = run(EngineConfig::new(1, 1), &trace);
        assert_eq!(report.jobs[0].completion, SimTime::ZERO);
    }

    #[test]
    fn deadline_carried_through() {
        let mut trace = WorkloadTrace::new("t", "test");
        let job =
            uniform_job(1, 0, 100, 0, 0, 0, SimTime::ZERO).with_deadline(SimTime::from_millis(50));
        trace.push(job);
        let report = run(EngineConfig::new(1, 1), &trace);
        assert_eq!(report.jobs[0].deadline, Some(SimTime::from_millis(50)));
        assert!(!report.jobs[0].met_deadline());
        assert_eq!(report.missed_deadlines(), 1);
        assert!((report.total_relative_deadline_exceeded() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace() {
        let trace = WorkloadTrace::new("t", "test");
        let report = run(EngineConfig::new(4, 4), &trace);
        assert!(report.jobs.is_empty());
        assert_eq!(report.events_processed, 0);
    }

    #[test]
    fn heavy_trace_all_jobs_complete() {
        let mut trace = WorkloadTrace::new("t", "test");
        for i in 0..200u64 {
            trace.push(uniform_job(
                1 + (i % 7) as usize,
                (i % 4) as usize,
                10 + i % 90,
                5,
                10,
                8,
                SimTime::from_millis(i * 7),
            ));
        }
        let report = run(EngineConfig::new(5, 3), &trace);
        assert_eq!(report.jobs.len(), 200);
        for r in &report.jobs {
            assert!(r.completion >= r.arrival);
        }
        // completions of FIFO'd jobs with same arrival pattern are monotone
        // in arrival for map-only jobs; at minimum makespan covers all
        assert_eq!(report.makespan, report.jobs.iter().map(|j| j.completion).max().unwrap());
    }

    #[test]
    fn incremental_view_matches_snapshot_oracle() {
        // mixed workload with simultaneous arrivals, zero-duration tasks,
        // multi-wave maps and fillers — the incremental queue must produce
        // the same report as a per-pass from-scratch rebuild
        let mut trace = WorkloadTrace::new("t", "test");
        for i in 0..60u64 {
            trace.push(uniform_job(
                1 + (i % 6) as usize,
                (i % 3) as usize,
                (i % 5) * 40,
                7,
                11,
                9,
                SimTime::from_millis((i / 3) * 50),
            ));
        }
        let fast = run(EngineConfig::new(4, 3), &trace);
        let oracle = SimulatorEngine::new(EngineConfig::new(4, 3), &trace, Box::new(TestFifo))
            .with_snapshot_oracle()
            .run();
        assert_eq!(fast, oracle);
    }

    #[test]
    fn events_counted_per_launch() {
        // 1 job, 3 maps, 2 reduces, no preemption: events = 1 arrival +
        // 3 launches + 3 departures (maps) + 2 launches + 2 departures
        // (reduces) + AllMapsFinished + JobDeparture = 13, matching the
        // old per-marker accounting exactly
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(3, 2, 100, 10, 20, 15, SimTime::ZERO));
        let report = run(EngineConfig::new(4, 4), &trace);
        assert_eq!(report.events_processed, 13);
    }

    #[test]
    fn saturated_cluster_preemption_still_runs() {
        // Regression for the preemption gap: with 1 map + 1 reduce slot and
        // the reduce slot occupied by job 0's filler, the old scheduling
        // pass early-returned ("no slot of either kind free") and never
        // consulted map_preemptions — job 1's tight-deadline map had to
        // wait for job 0's 1000 ms map to finish naturally.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(
            uniform_job(2, 1, 1000, 10, 20, 15, SimTime::ZERO)
                .with_deadline(SimTime::from_millis(100_000)),
        );
        trace.push(
            uniform_job(1, 0, 100, 0, 0, 0, SimTime::from_millis(1500))
                .with_deadline(SimTime::from_millis(1700)),
        );
        let config = EngineConfig::new(1, 1).with_slowstart(0.05).with_invariants();
        let report = SimulatorEngine::new(config, &trace, Box::new(TestEdfPreempt)).run();
        // job 0's second map (launched at 1000) is killed at 1500; job 1
        // runs 1500..1600 and meets its deadline
        assert_eq!(report.jobs[1].completion, SimTime::from_millis(1600));
        assert!(report.jobs[1].met_deadline());
    }

    #[test]
    fn host_failure_kills_and_reruns() {
        // 4 map + 2 reduce slots striped over 2 hosts: host 1 owns map
        // slots 1, 3 and reduce slot 1. Six 100 ms maps: wave 1 puts maps
        // 0-3 on slots 3,2,1,0 (free list pops from the back), wave 2 puts
        // map 4 on slot 0 and map 5 on slot 1 at t=100. The failure at
        // t=150 kills the running map 5 (slot 1) and re-runs completed
        // maps 0 (slot 3) and 2 (slot 1) whose output died with the host;
        // the filler reduce on dead reduce slot 1 is killed and relaunched
        // on slot 0.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(6, 1, 100, 20, 40, 30, SimTime::ZERO));
        let config = EngineConfig::new(4, 2).with_hosts(2).with_timeline().with_invariants();
        let report = SimulatorEngine::new(config, &trace, Box::new(TestFifo))
            .with_fault_plan(vec![HostFailure { host: HostId(1), at: SimTime::from_millis(150) }])
            .run();
        // surviving slots 0, 2 re-run the three lost tasks: only slot 2 is
        // free at 150 (map 2 runs 150..250), slot 0 frees at 200 (map 0
        // runs 200..300), slot 2 again at 250 (map 5 runs 250..350); the
        // filler reduce resolves with first shuffle 20 + reduce 30
        assert_eq!(report.jobs[0].maps_finished, Some(SimTime::from_millis(350)));
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(400));
        assert_eq!(report.makespan, SimTime::from_millis(400));
        // 6 originals + 1 killed attempt + 2 re-runs = 9 map bars, none on
        // the dead slots after t=150
        let map_bars: Vec<_> =
            report.timeline.iter().filter(|b| b.phase == TimelinePhase::Map).collect();
        assert_eq!(map_bars.len(), 9);
        for bar in &map_bars {
            if bar.slot % 2 == 1 {
                assert!(
                    bar.end <= SimTime::from_millis(150),
                    "bar on dead slot past the failure: {bar:?}"
                );
            }
        }
    }

    #[test]
    fn speculation_first_finisher_wins() {
        // maps [100, 100, 100, 1000] on 2 slots: median 100, threshold
        // 2.0 × 100 = 200. Map 3 (launched at 100 on slot 1) is still
        // running when its timer fires at 300; the duplicate launches at
        // 300 on slot 0. The original finishes first at 1100 and the
        // duplicate is killed (truncated bar 300..1100); its stale
        // departure at 1300 is ignored.
        let template =
            JobTemplate::new("t", vec![100, 100, 100, 1000], vec![], vec![], vec![]).unwrap();
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(JobSpec::new(template, SimTime::ZERO));
        let config =
            EngineConfig::new(2, 1).with_speculation(2.0).with_timeline().with_invariants();
        let report = run(config, &trace);
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(1100));
        assert_eq!(report.makespan, SimTime::from_millis(1100));
        let map_bars: Vec<_> =
            report.timeline.iter().filter(|b| b.phase == TimelinePhase::Map).collect();
        assert_eq!(map_bars.len(), 5, "4 primaries + 1 killed duplicate");
        let dup = map_bars
            .iter()
            .find(|b| b.start == SimTime::from_millis(300))
            .expect("duplicate attempt bar");
        assert_eq!(dup.end, SimTime::from_millis(1100));
    }

    #[test]
    fn host_0_failures_ignored() {
        // host 0 never fails (it anchors at least one slot of each kind);
        // out-of-range hosts in a hand-built plan are ignored too
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(4, 1, 100, 10, 20, 15, SimTime::ZERO));
        let config = EngineConfig::new(2, 1).with_hosts(2).with_invariants();
        let baseline = SimulatorEngine::new(config, &trace, Box::new(TestFifo)).run();
        let ignored = SimulatorEngine::new(config, &trace, Box::new(TestFifo))
            .with_fault_plan(vec![
                HostFailure { host: HostId(0), at: SimTime::from_millis(50) },
                HostFailure { host: HostId(9), at: SimTime::from_millis(60) },
            ])
            .run();
        assert_eq!(baseline.jobs, ignored.jobs);
        assert_eq!(baseline.makespan, ignored.makespan);
    }

    #[test]
    fn slowdown_scales_task_durations() {
        // constant 2× slowdown on every slot: 2 maps of 100 ms run
        // sequentially on the single map slot (200 + 200), the map stage
        // closes at 400, and the reduce (launched at 400 under full
        // slowstart) takes (40 + 30) × 2 = 140 → completion at 540
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(2, 1, 100, 20, 40, 30, SimTime::ZERO));
        let config = EngineConfig::new(1, 1)
            .with_slowstart(1.0)
            .with_slowdown(Dist::Constant { value: 2.0 }, 5)
            .with_invariants();
        let report = run(config, &trace);
        assert_eq!(report.jobs[0].maps_finished, Some(SimTime::from_millis(400)));
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(540));
    }

    #[test]
    fn failure_model_deterministic_across_reruns() {
        // the full perturbation stack — seeded faults, speculation and
        // per-slot slowdowns — must replay byte-identically
        let mut trace = WorkloadTrace::new("t", "test");
        for i in 0..20u64 {
            trace.push(uniform_job(
                1 + (i % 7) as usize,
                (i % 3) as usize,
                50 + (i % 5) * 90,
                15,
                25,
                35,
                SimTime::from_millis(i * 130),
            ));
        }
        let config = EngineConfig::new(6, 3)
            .with_hosts(3)
            .with_faults(FaultSpec { seed: 42, count: 3, mean_interval_ms: 400 })
            .with_speculation(1.5)
            .with_slowdown(Dist::LogNormal { mu: -0.125, sigma: 0.5 }, 7)
            .with_timeline()
            .with_invariants();
        let a = run(config, &trace);
        let b = run(config, &trace);
        assert_eq!(a, b);
        // the plan actually fired: some slots are lost, so at least one
        // host beyond host 0 died — all jobs still complete
        assert_eq!(a.jobs.len(), 20);
    }

    #[test]
    fn host_recovery_restores_slots() {
        // 40 maps of 100 ms on 4 slots over 2 hosts; host 1 (slots 1, 3)
        // dies at t=150. Permanently, the tail of the job runs on host 0's
        // two surviving slots. With recovery armed the host comes back
        // after a seeded exponential downtime and the run finishes
        // strictly earlier — and byte-identically across reruns. The
        // invariant checker's slot-conservation pass covers the restored
        // slots at every batch.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(40, 0, 100, 0, 0, 0, SimTime::ZERO));
        let plan = vec![HostFailure { host: HostId(1), at: SimTime::from_millis(150) }];
        let config = EngineConfig::new(4, 1).with_hosts(2).with_invariants();
        let permanent = SimulatorEngine::new(config, &trace, Box::new(TestFifo))
            .with_fault_plan(plan.clone())
            .run();
        let recovering = config.with_recovery(RecoverySpec { seed: 9, mean_ms: 300 });
        let a = SimulatorEngine::new(recovering, &trace, Box::new(TestFifo))
            .with_fault_plan(plan.clone())
            .run();
        let b = SimulatorEngine::new(recovering, &trace, Box::new(TestFifo))
            .with_fault_plan(plan)
            .run();
        assert_eq!(a, b);
        assert!(
            a.makespan < permanent.makespan,
            "recovery did not help: {} vs permanent {}",
            a.makespan,
            permanent.makespan
        );
    }

    #[test]
    fn recovery_deterministic_with_full_perturbation_stack() {
        // recovery draws from its own RNG stream, so arming it alongside
        // seeded faults, speculation and slowdowns stays deterministic —
        // and a recovered host may fail again under a later plan entry
        let mut trace = WorkloadTrace::new("t", "test");
        for i in 0..20u64 {
            trace.push(uniform_job(
                1 + (i % 7) as usize,
                (i % 3) as usize,
                50 + (i % 5) * 90,
                15,
                25,
                35,
                SimTime::from_millis(i * 130),
            ));
        }
        let config = EngineConfig::new(6, 3)
            .with_hosts(3)
            .with_faults(FaultSpec { seed: 42, count: 4, mean_interval_ms: 400 })
            .with_recovery(RecoverySpec { seed: 11, mean_ms: 500 })
            .with_speculation(1.5)
            .with_slowdown(Dist::LogNormal { mu: -0.125, sigma: 0.5 }, 7)
            .with_timeline()
            .with_invariants();
        let a = run(config, &trace);
        let b = run(config, &trace);
        assert_eq!(a, b);
        assert_eq!(a.jobs.len(), 20);
        // changing only the recovery seed must leave the fault plan intact
        // but may shift completions (different downtimes)
        let reseeded = config.with_recovery(RecoverySpec { seed: 12, mean_ms: 500 });
        let c = run(reseeded, &trace);
        assert_eq!(c.jobs.len(), 20);
    }

    /// Holds every map back until `release`, using the wakeup timer to get
    /// a scheduling pass at the release time (plus one more to launch,
    /// since `next_wakeup` runs after the pass's choose loop).
    struct GatedRelease {
        release: SimTime,
        open: bool,
    }
    impl SchedulerPolicy for GatedRelease {
        fn name(&self) -> &str {
            "test-gated"
        }
        fn choose_next_map_task(&mut self, q: &JobQueue) -> Option<JobId> {
            if !self.open {
                return None;
            }
            q.entries()
                .iter()
                .filter(|e| e.has_schedulable_map())
                .min_by_key(|e| (e.arrival, e.id))
                .map(|e| e.id)
        }
        fn choose_next_reduce_task(&mut self, q: &JobQueue) -> Option<JobId> {
            q.entries()
                .iter()
                .filter(|e| e.has_schedulable_reduce())
                .min_by_key(|e| (e.arrival, e.id))
                .map(|e| e.id)
        }
        fn next_wakeup(&mut self, q: &JobQueue) -> Option<SimTime> {
            if self.open || q.is_empty() {
                return None;
            }
            if q.now >= self.release {
                self.open = true;
                // one more pass so the now-open gate actually launches
                return Some(q.now + 1);
            }
            Some(self.release)
        }
    }

    #[test]
    fn policy_wakeup_drives_time_based_scheduling() {
        // One 100 ms map arriving at t=0, gate at t=500: without the
        // PolicyWakeup timer the engine would run out of events with the
        // job stuck. The wakeup fires the pass at 500, the follow-up pass
        // at 501 launches, and the job completes at 601.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(uniform_job(1, 0, 100, 0, 0, 0, SimTime::ZERO));
        let policy = GatedRelease { release: SimTime::from_millis(500), open: false };
        let report = SimulatorEngine::new(
            EngineConfig::new(2, 1).with_invariants(),
            &trace,
            Box::new(policy),
        )
        .run();
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(601));

        // a gate already open at arrival time needs only the follow-up pass
        let policy = GatedRelease { release: SimTime::ZERO, open: false };
        let report = SimulatorEngine::new(EngineConfig::new(2, 1), &trace, Box::new(policy)).run();
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(101));
    }

    #[test]
    fn map_record_packs_its_flags_into_the_output_slot() {
        assert_eq!(std::mem::size_of::<MapTask>(), 12);
        let mut t = MapTask::default();
        t.set_output_slot(MAX_MAP_SLOTS as u32 - 1);
        t.set_done(true);
        t.set_speculated(true);
        assert_eq!(
            (t.output_slot(), t.done(), t.speculated()),
            (MAX_MAP_SLOTS as u32 - 1, true, true)
        );
        t.set_done(false);
        t.set_output_slot(3);
        assert_eq!((t.output_slot(), t.done(), t.speculated()), (3, false, true));
        t.set_speculated(false);
        assert_eq!((t.output_slot(), t.done(), t.speculated()), (3, false, false));
    }

    #[test]
    #[should_panic(expected = "map slots exceed")]
    fn more_map_slots_than_the_record_can_name_are_refused() {
        // the check fires before any per-slot allocation
        let trace = WorkloadTrace::new("t", "test");
        let _ = SimulatorEngine::new(
            EngineConfig::new(MAX_MAP_SLOTS + 1, 1),
            &trace,
            Box::new(TestFifo),
        );
    }
}
