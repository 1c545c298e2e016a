//! Opt-in runtime invariant checking for the simulator engine.
//!
//! The engine keeps redundant incremental state: the persistent
//! [`crate::JobQueue`] (each entry re-derived by one `sync_entry` call per
//! mutation, so a mutation site that forgets it leaves a stale entry),
//! dirty-flag pass skipping, and slot free-lists. The snapshot oracle
//! ([`crate::SimulatorEngine::with_snapshot_oracle`]) defends the
//! *policy-visible* view, but only in debug builds and only by
//! whole-report comparison. This module is the continuous, field-level
//! defense: after every settled event batch the engine's redundant state
//! is re-derived from first principles and cross-checked, panicking with
//! a precise diagnosis on the first divergence.
//!
//! Checked invariants:
//!
//! * **Run state at resume** — a checker attached to a resumed engine
//!   first runs [`RunState::check`], the same rules checkpoint decode
//!   runs, and names the first broken one (`[run-state]`) before an event
//!   pops.
//! * **Slot conservation** — per slot kind, every configured slot is
//!   exactly one of free, running or lost to a failed host
//!   ([`SlotPool::check_partition`], part of [`RunState::check`]).
//! * **Jobs and slot tables** — [`RunState::check_jobs`], the job rules
//!   of [`RunState::check`] (`[run-state]`): per-job task accounting
//!   (`fresh + requeued + distinct running + done = total`, with
//!   duplicate attempts only as speculated duplicates), the speculation
//!   bookkeeping (`spec_pending` entries always shadow a live primary
//!   attempt), and each job's launch orders and task chains against the
//!   slot tables both ways, with no occupied slot outside every job's
//!   launch order. A task with two live attempts must be flagged
//!   speculated, which is what lets a departure skip the loser lookup
//!   for every other task.
//! * **Counter consistency** — every [`crate::JobEntry`] field of every
//!   active job is re-derivable from the engine's [`JobState`]; a mismatch
//!   reports the differing fields one by one (a strict generalization of
//!   the snapshot oracle, which only detects divergence after it changes a
//!   scheduling decision), and the queue itself must stay sorted by
//!   `(arrival, id)` and contain exactly the active jobs.
//! * **Event-time monotonicity** — popped events never go back in time,
//!   and settled batches are strictly increasing.
//! * **Timeline disjointness (online)** — every recorded bar must start at
//!   or after the previous bar recorded for the same slot ends, checked as
//!   bars are pushed (the preempted-map phantom-bar bug class).
//! * **Dirty-flag coverage** — every policy-visible queue mutation outside
//!   a scheduling pass's own launches must leave `jobq_dirty` set, so a
//!   later pass cannot no-op against a silently changed queue (the
//!   `preempt_map` bug class).
//! * **Policy-internal state** — each settled batch also calls
//!   [`crate::SchedulerPolicy::verify_invariants`], letting stateful
//!   policies cross-check their own books against the queue. Every
//!   built-in policy verifies its ordered job views; the hierarchical
//!   policy also re-derives per-pool share accounting (routing
//!   stability, subtree counters, starvation clocks); and EDF and the
//!   hierarchical policy re-derive each pick and preemption victim from
//!   a naive queue scan (`[policy-pick]` / `[policy-victim]`).
//! * **Report invariants (end of run)** — all slots returned, every
//!   completion ≥ its arrival, `makespan = max completion`, and
//!   `events_processed = popped events + counted launches`.
//!
//! Enabled by [`crate::EngineConfig::with_invariants`] (runtime, any build)
//! or the `check-invariants` cargo feature (forces it for every engine —
//! CI runs the whole test suite that way). Disabled, the engine carries
//! only a `None` option and a predictable branch per event; `bench_engine`
//! guards the release hot path.

use crate::engine::{RunState, SimulatorEngine};
use crate::jobq::JobEntry;
use crate::slots::SlotPool;
use crate::EngineConfig;
use simmr_types::{SimTime, SimulationReport, TimelineEntry, TimelinePhase};

/// Mutable state of the runtime invariant checker, owned by the engine.
#[derive(Debug)]
pub(crate) struct InvariantState {
    map_slots: usize,
    reduce_slots: usize,
    /// End of the last bar recorded per map slot.
    map_bar_end: Vec<SimTime>,
    /// End of the last bar recorded per reduce slot (shuffle and reduce
    /// bars of one task are contiguous, so a plain high-water mark works).
    reduce_bar_end: Vec<SimTime>,
    /// Time of the most recently popped event.
    last_event: Option<SimTime>,
    /// Time of the most recently settled (checked) batch.
    last_batch: Option<SimTime>,
    /// Events popped from the queue, counted independently of the engine.
    events_popped: u64,
    /// Task launches reported by the scheduling fixpoint loop.
    launches: u64,
    /// Events the run had already accounted for before this checker
    /// attached — zero for a from-scratch run, the checkpoint's event
    /// count for a resumed one, so `check_report` can still reconcile the
    /// report's total against an independent count.
    baseline_events: u64,
    /// Settled batches verified (for diagnostics).
    batches_checked: u64,
}

/// Panics with a uniformly formatted invariant-violation message.
macro_rules! violation {
    ($name:expr, $($arg:tt)*) => {
        panic!("engine invariant violated [{}]: {}", $name, format!($($arg)*))
    };
}

impl InvariantState {
    pub(crate) fn new(config: &EngineConfig) -> Self {
        InvariantState {
            map_slots: config.cluster.map_slots,
            reduce_slots: config.cluster.reduce_slots,
            map_bar_end: vec![SimTime::ZERO; config.cluster.map_slots],
            reduce_bar_end: vec![SimTime::ZERO; config.cluster.reduce_slots],
            last_event: None,
            last_batch: None,
            events_popped: 0,
            launches: 0,
            baseline_events: 0,
            batches_checked: 0,
        }
    }

    /// A checker attached to an engine resumed from `run`, a checkpoint's
    /// state, which must pass [`RunState::check`] (`[run-state]`): event
    /// accounting starts from its event count, time monotonicity from its
    /// settled boundary (every post-resume event is strictly later), and
    /// the per-slot bar high-water marks are re-derived from the recorded
    /// timeline prefix — exactly the state the original run's checker
    /// held at the boundary.
    pub(crate) fn resume(config: &EngineConfig, run: &RunState) -> Self {
        if let Err(e) = run.check() {
            violation!("run-state", "at resume: {e}");
        }
        let mut state = InvariantState::new(config);
        let boundary = (run.events_processed > 0).then_some(run.clock);
        state.baseline_events = run.events_processed;
        state.last_event = boundary;
        state.last_batch = boundary;
        for bar in &run.timeline {
            let ends = match bar.phase {
                TimelinePhase::Map => &mut state.map_bar_end,
                TimelinePhase::Shuffle | TimelinePhase::Reduce => &mut state.reduce_bar_end,
            };
            if let Some(end) = ends.get_mut(bar.slot as usize) {
                *end = (*end).max(bar.end);
            }
        }
        state
    }

    /// The cluster grew mid-run (the fork AddSlots divergence): widen the
    /// conservation counts and bar tables; new slots start free with no
    /// bar history.
    pub(crate) fn grow_cluster(&mut self, map_slots: usize, reduce_slots: usize) {
        self.map_slots = map_slots;
        self.reduce_slots = reduce_slots;
        self.map_bar_end.resize(map_slots, SimTime::ZERO);
        self.reduce_bar_end.resize(reduce_slots, SimTime::ZERO);
    }

    /// One event popped from the priority queue at `time`.
    pub(crate) fn on_event(&mut self, time: SimTime) {
        if let Some(prev) = self.last_event {
            if time < prev {
                violation!(
                    "event-time-monotonicity",
                    "event at {time} popped after an event at {prev}"
                );
            }
        }
        self.last_event = Some(time);
        self.events_popped += 1;
    }

    /// `n` task launches performed by one scheduling pass.
    pub(crate) fn note_launches(&mut self, n: u64) {
        self.launches += n;
    }

    /// A policy-visible queue mutation just completed at `site`; the dirty
    /// flag must cover it.
    pub(crate) fn mutation_covered(&self, dirty: bool, site: &'static str) {
        if !dirty {
            violation!(
                "dirty-flag-coverage",
                "{site} mutated the policy-visible job queue but left jobq_dirty unset; \
                 a later scheduling pass could incorrectly no-op"
            );
        }
    }

    /// A timeline bar is about to be recorded: it must not overlap the
    /// previous bar on the same slot.
    pub(crate) fn check_bar(&mut self, bar: &TimelineEntry) {
        if bar.start > bar.end {
            violation!("timeline-bar-shape", "bar {bar:?} ends before it starts");
        }
        let (kind, last_end) = match bar.phase {
            TimelinePhase::Map => ("map", &mut self.map_bar_end),
            TimelinePhase::Shuffle | TimelinePhase::Reduce => ("reduce", &mut self.reduce_bar_end),
        };
        let Some(slot_end) = last_end.get_mut(bar.slot as usize) else {
            violation!(
                "timeline-slot-range",
                "bar {bar:?} names {kind} slot {} of a {}-slot cluster",
                bar.slot,
                last_end.len()
            );
        };
        if bar.start < *slot_end {
            violation!(
                "timeline-slot-disjoint",
                "{kind} slot {}: bar {bar:?} starts before the previous bar ends at {}",
                bar.slot,
                *slot_end
            );
        }
        *slot_end = bar.end;
    }

    /// Full cross-check of the engine's redundant state at a settled
    /// instant (no further events at `now`).
    pub(crate) fn check_batch(&mut self, engine: &SimulatorEngine<'_>, now: SimTime) {
        if let Some(prev) = self.last_batch {
            if now <= prev {
                violation!(
                    "batch-monotonicity",
                    "batch settled at {now}, not after the previous batch at {prev}"
                );
            }
        }
        self.last_batch = Some(now);
        self.batches_checked += 1;
        self.check_slots(&engine.run.maps, &engine.run.reduces, now);
        self.check_entries(engine, now);
        // Stateful policies (notably the hierarchical pool tree) re-derive
        // their own share accounting against the queue they scheduled from.
        engine.policy.verify_invariants(&engine.jobq);
    }

    /// Slot conservation: per kind, every configured slot is exactly
    /// one of free, running or lost to a failed host.
    fn check_slots(&self, maps: &SlotPool, reduces: &SlotPool, now: SimTime) {
        for (kind, pool, n) in
            [("map", maps, self.map_slots), ("reduce", reduces, self.reduce_slots)]
        {
            if let Err(e) = pool.check_partition(kind, n) {
                violation!("slot-conservation", "at t={now}: {e}");
            }
        }
    }

    /// Per-job counter consistency: the policy-visible entry of every
    /// active job must be re-derivable from the engine's job state, and
    /// the queue must contain exactly the active jobs in arrival order.
    fn check_entries(&self, engine: &SimulatorEngine<'_>, now: SimTime) {
        // the jobs' records, counters and launch orders against the slot
        // tables, before anything below trusts them
        if let Err(e) = engine.run.check_jobs() {
            violation!("run-state", "at t={now}: {e}");
        }
        let mut active = 0usize;
        for (id, state) in engine.run.jobs.iter() {
            if !state.active {
                if engine.jobq.get(id).is_some() {
                    violation!(
                        "queue-membership",
                        "inactive job {id} still has a queue entry at t={now}"
                    );
                }
                continue;
            }
            active += 1;
            let expected = engine.entry_of(id);
            let Some(actual) = engine.jobq.get(id) else {
                violation!("queue-membership", "active job {id} missing from the queue at t={now}");
            };
            if let Some(diff) = diff_entries(&expected, actual) {
                violation!(
                    "counter-consistency",
                    "job {id} at t={now}: incremental entry diverged from re-derived state: {diff}"
                );
            }
        }
        if engine.jobq.len() != active {
            violation!(
                "queue-membership",
                "queue holds {} entries but {active} jobs are active at t={now}",
                engine.jobq.len()
            );
        }
        for pair in engine.jobq.entries().windows(2) {
            if (pair[0].arrival, pair[0].id) >= (pair[1].arrival, pair[1].id) {
                violation!(
                    "queue-order",
                    "queue entries out of (arrival, id) order at t={now}: {:?} before {:?}",
                    (pair[0].arrival, pair[0].id),
                    (pair[1].arrival, pair[1].id)
                );
            }
        }
    }

    /// End-of-run report invariants: every surviving slot returned free,
    /// every lost slot accounted to a failed host.
    pub(crate) fn check_report(
        &self,
        report: &SimulationReport,
        maps: &SlotPool,
        reduces: &SlotPool,
    ) {
        for (kind, pool, n) in
            [("map", maps, self.map_slots), ("reduce", reduces, self.reduce_slots)]
        {
            let (free, lost) = (pool.free.len(), pool.lost());
            if free + lost != n {
                violation!(
                    "slot-conservation",
                    "end of run: {free}+{lost}/{n} {kind} slots returned or lost"
                );
            }
        }
        let mut max_completion = SimTime::ZERO;
        for job in &report.jobs {
            if job.completion < job.arrival {
                violation!(
                    "report-completion",
                    "job {} completed at {} before its arrival at {}",
                    job.job,
                    job.completion,
                    job.arrival
                );
            }
            max_completion = max_completion.max(job.completion);
        }
        if !report.jobs.is_empty() && report.makespan != max_completion {
            violation!(
                "report-makespan",
                "makespan {} != max completion {max_completion}",
                report.makespan
            );
        }
        let accounted = self.baseline_events + self.events_popped + self.launches;
        if report.events_processed != accounted {
            violation!(
                "event-accounting",
                "events_processed = {} but the checker counted {} baseline + {} popped + {} \
                 launched = {accounted}",
                report.events_processed,
                self.baseline_events,
                self.events_popped,
                self.launches
            );
        }
    }
}

/// Field-by-field comparison of two job entries; `None` when identical,
/// otherwise a `field: expected X, got Y` list for the panic message.
fn diff_entries(expected: &JobEntry, actual: &JobEntry) -> Option<String> {
    macro_rules! diff {
        ($($field:ident),+ $(,)?) => {{
            let mut diffs: Vec<String> = Vec::new();
            $(
                if expected.$field != actual.$field {
                    diffs.push(format!(
                        "{}: expected {:?}, got {:?}",
                        stringify!($field), expected.$field, actual.$field
                    ));
                }
            )+
            diffs
        }};
    }
    let diffs = diff!(
        id,
        arrival,
        deadline,
        pending_maps,
        running_maps,
        completed_maps,
        total_maps,
        pending_reduces,
        running_reduces,
        completed_reduces,
        total_reduces,
        reduce_eligible,
    );
    if diffs.is_empty() {
        None
    } else {
        Some(diffs.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MapTask;
    use crate::slots::{Attempt, Tasks};
    use simmr_types::JobId;

    fn checker(maps: usize, reduces: usize) -> InvariantState {
        InvariantState::new(&EngineConfig::new(maps, reduces))
    }

    fn bar(phase: TimelinePhase, slot: u32, start: u64, end: u64) -> TimelineEntry {
        TimelineEntry {
            job: JobId(0),
            phase,
            slot,
            start: SimTime::from_millis(start),
            end: SimTime::from_millis(end),
        }
    }

    fn entry() -> JobEntry {
        JobEntry {
            id: JobId(0),
            arrival: SimTime::ZERO,
            deadline: None,
            pending_maps: 1,
            running_maps: 2,
            completed_maps: 3,
            total_maps: 6,
            pending_reduces: 1,
            running_reduces: 0,
            completed_reduces: 0,
            total_reduces: 1,
            reduce_eligible: true,
        }
    }

    #[test]
    fn event_monotonicity_accepts_equal_times() {
        let mut inv = checker(1, 1);
        inv.on_event(SimTime::from_millis(5));
        inv.on_event(SimTime::from_millis(5));
        inv.on_event(SimTime::from_millis(9));
        assert_eq!(inv.events_popped, 3);
    }

    #[test]
    #[should_panic(expected = "event-time-monotonicity")]
    fn event_going_backwards_panics() {
        let mut inv = checker(1, 1);
        inv.on_event(SimTime::from_millis(5));
        inv.on_event(SimTime::from_millis(4));
    }

    #[test]
    #[should_panic(expected = "dirty-flag-coverage")]
    fn uncovered_mutation_panics() {
        checker(1, 1).mutation_covered(false, "preempt_map");
    }

    #[test]
    fn disjoint_bars_pass_including_contiguous_shuffle_reduce() {
        let mut inv = checker(2, 2);
        inv.check_bar(&bar(TimelinePhase::Map, 0, 0, 100));
        inv.check_bar(&bar(TimelinePhase::Map, 0, 100, 130));
        inv.check_bar(&bar(TimelinePhase::Map, 1, 50, 60));
        // shuffle then reduce of the same task share the slot contiguously
        inv.check_bar(&bar(TimelinePhase::Shuffle, 0, 0, 40));
        inv.check_bar(&bar(TimelinePhase::Reduce, 0, 40, 90));
        // map and reduce slot namespaces are independent
        inv.check_bar(&bar(TimelinePhase::Shuffle, 1, 0, 10));
    }

    #[test]
    #[should_panic(expected = "timeline-slot-disjoint")]
    fn overlapping_bars_panic() {
        let mut inv = checker(2, 2);
        inv.check_bar(&bar(TimelinePhase::Map, 0, 0, 100));
        inv.check_bar(&bar(TimelinePhase::Map, 0, 99, 130));
    }

    #[test]
    #[should_panic(expected = "timeline-slot-range")]
    fn out_of_range_slot_panics() {
        checker(2, 2).check_bar(&bar(TimelinePhase::Map, 7, 0, 1));
    }

    #[test]
    #[should_panic(expected = "timeline-bar-shape")]
    fn inverted_bar_panics() {
        checker(1, 1).check_bar(&bar(TimelinePhase::Map, 0, 10, 5));
    }

    /// A 3-slot map pool and a 2-slot reduce pool; reduce slot 0 runs an
    /// attempt and reduce slot 1 is lost to a failed host.
    fn pools() -> (SlotPool, SlotPool) {
        let (maps, mut reduces) = (SlotPool::new(3, vec![]), SlotPool::new(2, vec![]));
        let mut tasks = Tasks::new(vec![MapTask::default()].into_boxed_slice());
        let slot = reduces.free.pop().expect("a free reduce slot");
        let a = Attempt::new(JobId(0), 0, 1, SimTime::ZERO, SimTime::ZERO);
        reduces.running.launch(&mut tasks, slot, a);
        reduces.fail_host(1, 2);
        checker(3, 2).check_slots(&maps, &reduces, SimTime::ZERO);
        (maps, reduces)
    }

    #[test]
    #[should_panic(expected = "[slot-conservation]: at t=0.000s: map slot 1 is free twice")]
    fn duplicated_free_slot_panics() {
        let (mut maps, reduces) = pools();
        maps.free.push(1);
        checker(3, 2).check_slots(&maps, &reduces, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "[slot-conservation]: at t=0.000s: reduce slot 0 of a failed host \
                               runs an attempt")]
    fn attempt_on_a_dead_slot_panics() {
        let (maps, mut reduces) = pools();
        reduces.dead[0] = true;
        checker(3, 2).check_slots(&maps, &reduces, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "[slot-conservation]: at t=0.000s: map slot 2 is neither free, \
                               running nor dead")]
    fn lost_slot_panics() {
        let (mut maps, reduces) = pools();
        maps.free.retain(|&s| s != 2);
        checker(3, 2).check_slots(&maps, &reduces, SimTime::ZERO);
    }

    #[test]
    fn entry_diff_reports_each_field() {
        let a = entry();
        assert_eq!(diff_entries(&a, &a), None);
        let mut b = a;
        b.running_maps = 5;
        b.reduce_eligible = false;
        let diff = diff_entries(&a, &b).unwrap();
        assert!(diff.contains("running_maps: expected 2, got 5"), "{diff}");
        assert!(diff.contains("reduce_eligible: expected true, got false"), "{diff}");
        assert!(!diff.contains("pending_maps"), "{diff}");
    }

    #[test]
    #[should_panic(expected = "report-makespan")]
    fn report_makespan_mismatch_panics() {
        let inv = checker(1, 1);
        let report = SimulationReport {
            jobs: vec![simmr_types::JobResult {
                job: JobId(0),
                name: "t".into(),
                arrival: SimTime::ZERO,
                first_map_start: None,
                maps_finished: None,
                completion: SimTime::from_millis(10),
                deadline: None,
                num_maps: 1,
                num_reduces: 0,
            }],
            makespan: SimTime::from_millis(99),
            events_processed: 0,
            timeline: vec![],
        };
        inv.check_report(&report, &SlotPool::new(1, vec![]), &SlotPool::new(1, vec![]));
    }

    #[test]
    #[should_panic(expected = "event-accounting")]
    fn event_accounting_mismatch_panics() {
        let mut inv = checker(1, 1);
        inv.on_event(SimTime::ZERO);
        inv.note_launches(2);
        let report = SimulationReport {
            jobs: vec![],
            makespan: SimTime::ZERO,
            events_processed: 7,
            timeline: vec![],
        };
        inv.check_report(&report, &SlotPool::new(1, vec![]), &SlotPool::new(1, vec![]));
    }
}
