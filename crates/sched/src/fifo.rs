//! The queue-order policies: FIFO and fair share.
//!
//! Both hand a free slot to the first job, in one total order, among
//! the jobs with a schedulable task of that kind:
//!
//! * **FIFO** ([`FifoPolicy::new`]) is Hadoop's default scheduler: it
//!   *"finds the earliest arriving job that needs a map (or reduce) task
//!   to be executed next"* (§III-C) — order `(arrival, id)`.
//! * **Fair share** ([`FifoPolicy::fair`], an extension beyond the
//!   paper) follows the Hadoop Fair Scheduler's core idea that every
//!   active job should hold roughly the same number of slots: the job
//!   with the fewest *running* tasks of that kind goes first, ties by
//!   arrival — order `(running, arrival, id)`. Starvation-free and, with
//!   equal-size jobs, converges to an equal split.
//!
//! FIFO is fair share with the running count fixed at 0, so one policy
//! implements both. It keeps one `OrderedView` per slot kind over the
//! jobs with a schedulable task of that kind, maintained from the entry
//! hooks; a pick reads the view's first key. A FIFO key never changes, so
//! only a flip of a job's schedulable bit touches a view (O(log n)); fair
//! share also re-keys a job whose running count moved.

use crate::view::{keys_of, update_views, verify_views, Members, OrderedView};
use simmr_core::{JobEntry, JobQueue, SchedulerPolicy};
use simmr_types::{JobId, SimTime};

/// `(running tasks of the kind, arrival, id)`; FIFO fixes the count at 0.
type Key = (usize, SimTime, JobId);

/// FIFO, or deficit-first fair sharing across active jobs.
#[derive(Debug, Default, Clone)]
pub struct FifoPolicy {
    /// Order by running tasks first (fair share).
    fair: bool,
    /// Jobs with a schedulable map and with a schedulable reduce.
    views: [OrderedView<Key>; 2],
}

impl FifoPolicy {
    /// Hadoop's default FIFO: earliest-arrived job first.
    pub fn new() -> Self {
        FifoPolicy::default()
    }

    /// Fair share: fewest running tasks of the kind first.
    pub fn fair() -> Self {
        FifoPolicy { fair: true, ..FifoPolicy::default() }
    }
}

/// Whether the entry has a schedulable task of each kind: its membership
/// in the map (bit 0) and reduce (bit 1) views.
fn members(e: &JobEntry) -> Members {
    e.has_schedulable_map() as Members | (e.has_schedulable_reduce() as Members) << 1
}

/// The entry's key in view `view` (0 map, 1 reduce).
fn key(fair: bool) -> impl Fn(usize, &JobEntry) -> Key {
    move |view, e| {
        let running = if view == 0 { e.running_maps } else { e.running_reduces };
        (if fair { running } else { 0 }, e.arrival, e.id)
    }
}

impl SchedulerPolicy for FifoPolicy {
    fn name(&self) -> &str {
        if self.fair {
            "fair"
        } else {
            "fifo"
        }
    }

    /// FIFO files a job by its schedulable bits under a fixed key; fair
    /// share keys it by its running counts.
    fn reads_task_counts(&self) -> bool {
        self.fair
    }

    fn on_job_queued(&mut self, entry: &JobEntry) {
        let (absent, is) = ((entry, 0), (entry, members(entry)));
        update_views(&mut self.views, absent, is, self.fair, key(self.fair));
    }

    fn on_entry_mutated(&mut self, before: &JobEntry, after: &JobEntry) {
        let (was, is) = ((before, members(before)), (after, members(after)));
        update_views(&mut self.views, was, is, self.fair, key(self.fair));
    }

    fn on_job_dequeued(&mut self, entry: &JobEntry) {
        let (was, absent) = ((entry, members(entry)), (entry, 0));
        update_views(&mut self.views, was, absent, self.fair, key(self.fair));
    }

    fn choose_next_map_task(&mut self, _jobq: &JobQueue) -> Option<JobId> {
        self.views[0].first().map(|k| k.2)
    }

    fn choose_next_reduce_task(&mut self, _jobq: &JobQueue) -> Option<JobId> {
        self.views[1].first().map(|k| k.2)
    }

    fn verify_invariants(&self, jobq: &JobQueue) {
        let keys: Vec<_> =
            jobq.entries().iter().map(|e| keys_of(e, members(e), key(self.fair))).collect();
        verify_views(&self.views, &keys, self.name(), ["map", "reduce"]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmr_core::{EngineConfig, SimulatorEngine};
    use simmr_types::{JobSpec, JobTemplate, WorkloadTrace};

    fn job(maps: usize, map_ms: u64, arrival_ms: u64) -> JobSpec {
        JobSpec::new(
            JobTemplate::new("j", vec![map_ms; maps], vec![], vec![], vec![]).unwrap(),
            SimTime::from_millis(arrival_ms),
        )
    }

    fn run(
        trace: &WorkloadTrace,
        slots: usize,
        policy: FifoPolicy,
    ) -> simmr_types::SimulationReport {
        SimulatorEngine::new(
            EngineConfig::new(slots, slots).with_invariants(),
            trace,
            Box::new(policy),
        )
        .run()
    }

    #[test]
    fn earliest_arrival_runs_first() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(job(2, 100, 50)); // job 0 arrives later
        trace.push(job(2, 100, 0)); // job 1 arrives first
        let report = run(&trace, 2, FifoPolicy::new());
        // the engine numbers jobs by arrival, so find them by arrival:
        // trace job 1 occupies both slots at t=0 and finishes at 100;
        // trace job 0 runs 100..200
        let completion = |arrival_ms| {
            let arrival = SimTime::from_millis(arrival_ms);
            report.jobs.iter().find(|j| j.arrival == arrival).unwrap().completion
        };
        assert_eq!(completion(0), SimTime::from_millis(100));
        assert_eq!(completion(50), SimTime::from_millis(200));
    }

    #[test]
    fn ties_break_by_job_id() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(job(1, 100, 0));
        trace.push(job(1, 100, 0));
        let report = run(&trace, 1, FifoPolicy::new());
        assert!(report.jobs[0].completion < report.jobs[1].completion);
    }

    #[test]
    fn empty_queue_returns_none() {
        let q = JobQueue::new(vec![], SimTime::ZERO);
        for mut p in [FifoPolicy::new(), FifoPolicy::fair()] {
            assert_eq!(p.choose_next_map_task(&q), None);
            assert_eq!(p.choose_next_reduce_task(&q), None);
        }
    }

    #[test]
    fn concurrent_jobs_share_evenly() {
        // two identical jobs, 4 slots: each should get 2 slots and finish
        // at the same time — unlike FIFO where job 0 hogs all 4.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(job(4, 1000, 0));
        trace.push(job(4, 1000, 0));
        let report = run(&trace, 4, FifoPolicy::fair());
        assert_eq!(report.jobs[0].completion, report.jobs[1].completion);
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(2000));
        let fifo = run(&trace, 4, FifoPolicy::new());
        assert_eq!(fifo.jobs[0].completion, SimTime::from_millis(1000));
    }

    #[test]
    fn single_job_gets_everything() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(job(4, 1000, 0));
        let report = run(&trace, 4, FifoPolicy::fair());
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(1000));
    }

    #[test]
    fn late_arrival_catches_up() {
        // job 0 holds all 2 slots; when job 1 arrives its deficit (0 running)
        // wins every slot that frees until parity.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(job(6, 1000, 0));
        trace.push(job(2, 1000, 500));
        let report = run(&trace, 2, FifoPolicy::fair());
        // job 1's two tasks run at t=1000 and t=2000 at the latest
        assert!(report.jobs[1].completion <= SimTime::from_millis(3000));
        // job 0 still finishes (no starvation)
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(4000));
    }
}
