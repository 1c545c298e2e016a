//! A fair-share policy (extension beyond the paper).
//!
//! Modeled after the Hadoop Fair Scheduler's core idea: every active job
//! should hold roughly the same number of slots. The policy always hands the
//! next slot to the job with the fewest *running* tasks of that kind
//! (deficit-first), breaking ties by arrival. Starvation-free and, with
//! equal-size jobs, converges to an equal split.

use simmr_core::{JobQueue, SchedulerPolicy};
use simmr_types::JobId;

/// Deficit-first fair sharing across active jobs.
#[derive(Debug, Default, Clone, Copy)]
pub struct FairSharePolicy;

impl FairSharePolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        FairSharePolicy
    }
}

impl SchedulerPolicy for FairSharePolicy {
    fn name(&self) -> &str {
        "fair"
    }

    fn choose_next_map_task(&mut self, jobq: &JobQueue) -> Option<JobId> {
        jobq.entries()
            .iter()
            .filter(|e| e.has_schedulable_map())
            .min_by_key(|e| (e.running_maps, e.arrival, e.id))
            .map(|e| e.id)
    }

    fn choose_next_reduce_task(&mut self, jobq: &JobQueue) -> Option<JobId> {
        jobq.entries()
            .iter()
            .filter(|e| e.has_schedulable_reduce())
            .min_by_key(|e| (e.running_reduces, e.arrival, e.id))
            .map(|e| e.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmr_core::{EngineConfig, SimulatorEngine};
    use simmr_types::{JobSpec, JobTemplate, SimTime, WorkloadTrace};

    fn map_job(maps: usize, map_ms: u64, arrival_ms: u64) -> JobSpec {
        JobSpec::new(
            JobTemplate::new("j", vec![map_ms; maps], vec![], vec![], vec![]).unwrap(),
            SimTime::from_millis(arrival_ms),
        )
    }

    #[test]
    fn concurrent_jobs_share_evenly() {
        // two identical jobs, 4 slots: each should get 2 slots and finish
        // at the same time — unlike FIFO where job 0 hogs all 4.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(map_job(4, 1000, 0));
        trace.push(map_job(4, 1000, 0));
        let report =
            SimulatorEngine::new(EngineConfig::new(4, 4), &trace, Box::new(FairSharePolicy::new()))
                .run();
        assert_eq!(report.jobs[0].completion, report.jobs[1].completion);
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(2000));
    }

    #[test]
    fn single_job_gets_everything() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(map_job(4, 1000, 0));
        let report =
            SimulatorEngine::new(EngineConfig::new(4, 4), &trace, Box::new(FairSharePolicy::new()))
                .run();
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(1000));
    }

    #[test]
    fn late_arrival_catches_up() {
        // job 0 holds all 2 slots; when job 1 arrives its deficit (0 running)
        // wins every slot that frees until parity.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(map_job(6, 1000, 0));
        trace.push(map_job(2, 1000, 500));
        let report =
            SimulatorEngine::new(EngineConfig::new(2, 2), &trace, Box::new(FairSharePolicy::new()))
                .run();
        // job 1's two tasks run at t=1000 and t=2000 at the latest
        assert!(report.jobs[1].completion <= SimTime::from_millis(3000));
        // job 0 still finishes (no starvation)
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(4000));
    }
}
