//! A capacity-scheduler-style policy (extension beyond the paper).
//!
//! Mirrors the essentials of Hadoop's Capacity Scheduler (the paper's ref. 2): jobs are
//! routed to named queues; each queue carries a weight (its capacity
//! share); the next free slot goes to the most under-served queue (lowest
//! running-tasks/weight ratio) and, inside a queue, to the
//! earliest-arrived job.
//!
//! Queue routing uses the job's template name: a job is routed to the
//! queue with the **longest** name that is a prefix of the job name (e.g.
//! queue `prod` captures `prod-wordcount`; with both `prod` and
//! `prod-etl` configured, `prod-etl-daily` lands in `prod-etl`), falling
//! back to the last queue when no name matches. An empty-named queue is a
//! prefix of everything and therefore a catch-all. Longest-prefix routing
//! makes the listed queue *order* carry no routing semantics, which is
//! what lets `capacity:` spec strings normalize their parameter order
//! into a canonical cache-key form (see [`crate::PolicySpec`]).

use simmr_core::codec::{put_u32, Reader};
use simmr_core::{JobQueue, SchedulerPolicy};
use simmr_types::{DurationMs, JobId, JobTemplate, TaskKind};
use std::collections::HashMap;

/// One capacity queue.
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// Queue name; also the job-name prefix that routes into it.
    pub name: String,
    /// Relative capacity weight (> 0).
    pub weight: f64,
}

/// Weighted-queue capacity scheduling.
#[derive(Debug)]
pub struct CapacityPolicy {
    queues: Vec<QueueConfig>,
    assignment: HashMap<JobId, usize>,
}

impl CapacityPolicy {
    /// Builds the policy from an ordered queue list.
    ///
    /// # Panics
    ///
    /// Panics if `queues` is empty or any weight is not positive.
    pub fn new(queues: Vec<QueueConfig>) -> Self {
        assert!(!queues.is_empty(), "capacity policy needs at least one queue");
        assert!(queues.iter().all(|q| q.weight > 0.0), "queue weights must be positive");
        CapacityPolicy { queues, assignment: HashMap::new() }
    }

    /// Two equal queues, `prod` and a catch-all — a convenient default.
    pub fn two_tier() -> Self {
        CapacityPolicy::new(vec![
            QueueConfig { name: "prod".into(), weight: 2.0 },
            QueueConfig { name: String::new(), weight: 1.0 },
        ])
    }

    /// Queue index a job name routes to: longest matching prefix, ties
    /// (only possible between distinctly-named queues of equal length
    /// where at most one can match) broken toward the earlier queue.
    fn route(&self, job_name: &str) -> usize {
        self.queues
            .iter()
            .enumerate()
            .filter(|(_, q)| job_name.starts_with(&q.name))
            .max_by_key(|(i, q)| (q.name.len(), std::cmp::Reverse(*i)))
            .map(|(i, _)| i)
            .unwrap_or(self.queues.len() - 1)
    }

    /// The queue a job was assigned to (for tests/diagnostics).
    pub fn queue_of(&self, id: JobId) -> Option<&str> {
        self.assignment.get(&id).map(|&q| self.queues[q].name.as_str())
    }

    fn choose(&self, jobq: &JobQueue, kind: TaskKind) -> Option<JobId> {
        // per-queue running-task load
        let mut load = vec![0usize; self.queues.len()];
        for e in jobq.entries() {
            if let Some(&q) = self.assignment.get(&e.id) {
                load[q] += match kind {
                    TaskKind::Map => e.running_maps,
                    TaskKind::Reduce => e.running_reduces,
                };
            }
        }
        // candidate queues: those containing a schedulable job
        let mut best: Option<(f64, usize)> = None;
        for (qi, q) in self.queues.iter().enumerate() {
            let has_work = jobq.entries().iter().any(|e| {
                self.assignment.get(&e.id) == Some(&qi)
                    && match kind {
                        TaskKind::Map => e.has_schedulable_map(),
                        TaskKind::Reduce => e.has_schedulable_reduce(),
                    }
            });
            if !has_work {
                continue;
            }
            let ratio = load[qi] as f64 / q.weight;
            if best.is_none_or(|(b, _)| ratio < b) {
                best = Some((ratio, qi));
            }
        }
        let (_, qi) = best?;
        jobq.entries()
            .iter()
            .filter(|e| {
                self.assignment.get(&e.id) == Some(&qi)
                    && match kind {
                        TaskKind::Map => e.has_schedulable_map(),
                        TaskKind::Reduce => e.has_schedulable_reduce(),
                    }
            })
            .min_by_key(|e| (e.arrival, e.id))
            .map(|e| e.id)
    }
}

impl SchedulerPolicy for CapacityPolicy {
    fn name(&self) -> &str {
        "capacity"
    }

    fn on_job_arrival(
        &mut self,
        id: JobId,
        template: &JobTemplate,
        _relative_deadline: Option<DurationMs>,
        _cluster: simmr_types::ClusterSpec,
    ) {
        let q = self.route(&template.name);
        self.assignment.insert(id, q);
    }

    fn on_job_departure(&mut self, id: JobId) {
        self.assignment.remove(&id);
    }

    fn choose_next_map_task(&mut self, jobq: &JobQueue) -> Option<JobId> {
        self.choose(jobq, TaskKind::Map)
    }

    fn choose_next_reduce_task(&mut self, jobq: &JobQueue) -> Option<JobId> {
        self.choose(jobq, TaskKind::Reduce)
    }

    /// The whole assignment map is derivable (routing is a pure function
    /// of the job name), so the blob is a cross-check fingerprint, sorted
    /// by job id for deterministic bytes.
    fn snapshot(&self) -> Vec<u8> {
        let mut pairs: Vec<(JobId, usize)> =
            self.assignment.iter().map(|(&j, &q)| (j, q)).collect();
        pairs.sort_unstable();
        let mut out = Vec::with_capacity(4 + pairs.len() * 8);
        put_u32(&mut out, pairs.len() as u32);
        for (job, queue) in pairs {
            put_u32(&mut out, job.0);
            put_u32(&mut out, queue as u32);
        }
        out
    }

    /// Verifies the assignment rebuilt by the arrival-hook replay against
    /// the captured one — a resume under a different queue list parses
    /// fine but routes differently, and this is what catches it.
    fn restore(&mut self, blob: &[u8]) -> Result<(), String> {
        let mut r = Reader::new(blob);
        let n = r.count(8)?;
        let mut captured = Vec::with_capacity(n);
        for _ in 0..n {
            let job = JobId(r.u32()?);
            let queue = r.u32()? as usize;
            captured.push((job, queue));
        }
        r.finish()?;
        let mut rebuilt: Vec<(JobId, usize)> =
            self.assignment.iter().map(|(&j, &q)| (j, q)).collect();
        rebuilt.sort_unstable();
        if rebuilt != captured {
            return Err(format!(
                "capacity queue assignments diverged from the checkpoint (rebuilt {} \
                 assignments, captured {n}) — was the policy built with the same queue list?",
                rebuilt.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmr_core::{EngineConfig, SimulatorEngine};
    use simmr_types::{JobSpec, JobTemplate, SimTime, WorkloadTrace};

    fn named_job(name: &str, maps: usize, map_ms: u64, arrival_ms: u64) -> JobSpec {
        JobSpec::new(
            JobTemplate::new(name, vec![map_ms; maps], vec![], vec![], vec![]).unwrap(),
            SimTime::from_millis(arrival_ms),
        )
    }

    #[test]
    fn routing_by_prefix() {
        let p = CapacityPolicy::two_tier();
        assert_eq!(p.route("prod-wordcount"), 0);
        assert_eq!(p.route("adhoc-sort"), 1);
    }

    #[test]
    #[should_panic(expected = "at least one queue")]
    fn rejects_empty_queues() {
        CapacityPolicy::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_weight() {
        CapacityPolicy::new(vec![QueueConfig { name: "q".into(), weight: 0.0 }]);
    }

    #[test]
    fn weighted_split_between_queues() {
        // prod (weight 2) and adhoc (weight 1) each submit one long job on
        // 6 slots: prod should hold ~4 slots, adhoc ~2, so prod finishes
        // its 12 tasks around when adhoc finishes its 6.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(named_job("prod-big", 12, 1000, 0));
        trace.push(named_job("adhoc-big", 6, 1000, 0));
        let report = SimulatorEngine::new(
            EngineConfig::new(6, 6),
            &trace,
            Box::new(CapacityPolicy::two_tier()),
        )
        .run();
        // prod: 12 tasks / 4 slots = 3s; adhoc: 6 / 2 = 3s
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(3000));
        assert_eq!(report.jobs[1].completion, SimTime::from_millis(3000));
    }

    #[test]
    fn idle_capacity_flows_to_busy_queue() {
        // only adhoc has work: it should get ALL slots despite weight 1.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(named_job("adhoc-only", 4, 1000, 0));
        let report = SimulatorEngine::new(
            EngineConfig::new(4, 4),
            &trace,
            Box::new(CapacityPolicy::two_tier()),
        )
        .run();
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(1000));
    }

    #[test]
    fn fifo_within_queue() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(named_job("adhoc-late", 1, 1000, 10));
        trace.push(named_job("adhoc-early", 1, 1000, 0));
        let report = SimulatorEngine::new(
            EngineConfig::new(1, 1),
            &trace,
            Box::new(CapacityPolicy::two_tier()),
        )
        .run();
        assert!(report.jobs[1].completion < report.jobs[0].completion);
    }
}
