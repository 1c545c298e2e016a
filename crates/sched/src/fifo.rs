//! The default FIFO policy.

use simmr_core::{JobQueue, SchedulerPolicy};
use simmr_types::JobId;

/// Hadoop's default FIFO scheduler: *"finds the earliest arriving job that
/// needs a map (or reduce) task to be executed next"* (§III-C).
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoPolicy;

impl FifoPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        FifoPolicy
    }
}

impl SchedulerPolicy for FifoPolicy {
    fn name(&self) -> &str {
        "fifo"
    }

    // `JobQueue::entries` guarantees (arrival, id) order, so the first
    // schedulable entry IS the FIFO choice; the queue's cursor-backed
    // accessors find it in amortized O(1) instead of re-scanning the
    // backlog on every free slot, which is what keeps per-event cost flat
    // on saturated 10k-job traces.
    fn choose_next_map_task(&mut self, jobq: &JobQueue) -> Option<JobId> {
        jobq.first_schedulable_map().map(|e| e.id)
    }

    fn choose_next_reduce_task(&mut self, jobq: &JobQueue) -> Option<JobId> {
        jobq.first_schedulable_reduce().map(|e| e.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmr_core::{EngineConfig, SimulatorEngine};
    use simmr_types::{JobSpec, JobTemplate, SimTime, WorkloadTrace};

    fn job(maps: usize, map_ms: u64, arrival_ms: u64) -> JobSpec {
        JobSpec::new(
            JobTemplate::new("j", vec![map_ms; maps], vec![], vec![], vec![]).unwrap(),
            SimTime::from_millis(arrival_ms),
        )
    }

    #[test]
    fn earliest_arrival_runs_first() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(job(2, 100, 50)); // job 0 arrives later
        trace.push(job(2, 100, 0)); // job 1 arrives first
        let report =
            SimulatorEngine::new(EngineConfig::new(2, 2), &trace, Box::new(FifoPolicy::new()))
                .run();
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
        let report =
            SimulatorEngine::new(EngineConfig::new(1, 1), &trace, Box::new(FifoPolicy::new()))
                .run();
        assert!(report.jobs[0].completion < report.jobs[1].completion);
    }

    #[test]
    fn empty_queue_returns_none() {
        let mut p = FifoPolicy::new();
        let q = JobQueue::new(vec![], SimTime::ZERO);
        assert_eq!(p.choose_next_map_task(&q), None);
        assert_eq!(p.choose_next_reduce_task(&q), None);
    }
}
