//! The deadline-driven schedulers: MaxEDF and MinEDF (§V-A).
//!
//! Both order jobs by Earliest Deadline First and differ only in *how
//! many* slots they hand a job, so one [`EdfPolicy`] implements both:
//!
//! * **MaxEDF** ([`EdfPolicy::maxedf`]) allocates the maximum available
//!   slots (FIFO-style greed, EDF order). Jobs often finish well before
//!   their deadline, but an urgent later arrival may find all slots
//!   taken — and tasks are never preempted.
//! * **MinEDF** ([`EdfPolicy::minedf`]) computes, at arrival, the
//!   **minimal** `(S_M, S_R)` that the ARIA bounds model predicts will
//!   meet the job's deadline, and caps the job's concurrently running
//!   tasks at that amount, leaving spare slots for later arrivals.
//!
//! A job without a cap is schedulable whenever it has a pending task,
//! so MaxEDF is MinEDF with every cap lifted: it computes none.
//!
//! # Deadline views
//!
//! The policy schedules from three exact `OrderedView`s over
//! [`JobEntry::edf_key`], maintained in O(log n) per queue mutation from
//! the `on_job_queued` / `on_entry_mutated` / `on_job_dequeued` hooks:
//! jobs with an under-cap schedulable map, jobs with an under-cap
//! schedulable reduce, and jobs with a running map. A pick is the first
//! key of its view; the preemption victim is the last running-map key,
//! taken only if it sorts strictly after the urgent job. A job's key
//! never changes, only whether it qualifies for a view, so a hook
//! touches a view only when a membership bit flips. After every
//! settled batch the invariant checker has `verify_invariants` verify
//! each view against the queue and re-derive the map pick, the reduce
//! pick and the victim from a scan of `jobq.entries()`.

use crate::view::{keys_of, update_views, verify_decision, verify_views, Members, OrderedView};
use crate::window::IdWindow;
use simmr_core::codec::{put_u32, Reader};
use simmr_core::{JobEntry, JobQueue, SchedulerPolicy};
use simmr_model::{min_slots_for_deadline, JobProfileSummary, SlotAllocation};
use simmr_types::{DurationMs, JobId, JobTemplate, SimTime, TaskKind};
use std::collections::HashMap;

/// [`JobEntry::edf_key`]: `(deadline, arrival, id)`, no deadline last.
type EdfKey = (SimTime, SimTime, JobId);

/// Whether the entry qualifies for each view — under-cap schedulable
/// map (bit 0), under-cap schedulable reduce (bit 1), running map (bit
/// 2) — under its wanted `cap`. Under cap means one more launch stays
/// within the cap.
fn members(cap: Option<SlotAllocation>, e: &JobEntry) -> Members {
    let map = e.has_schedulable_map() && cap.is_none_or(|w| e.running_maps < w.maps);
    let reduce = e.has_schedulable_reduce() && cap.is_none_or(|w| e.running_reduces < w.reduces);
    map as Members | (reduce as Members) << 1 | ((e.running_maps > 0) as Members) << 2
}

/// The entry's key in every view: its deadline order, which never
/// changes.
fn key(_view: usize, e: &JobEntry) -> EdfKey {
    e.edf_key()
}

/// EDF ordering; MinEDF additionally caps each job at its model-derived
/// minimal allocation.
#[derive(Debug, Default)]
pub struct EdfPolicy {
    /// Compute a wanted cap per arriving job (MinEDF); MaxEDF computes
    /// none, which leaves every job uncapped.
    caps: bool,
    /// Per-job wanted slot counts, computed on arrival, over the live job
    /// ids.
    wanted: IdWindow<SlotAllocation>,
    /// Allocations supplied up front (e.g. from a shared ARIA profile
    /// database) that take precedence over the model computation.
    /// Consulted once per arrival, so a map is fine here.
    presets: HashMap<JobId, SlotAllocation>,
    preemptive: bool,
    /// The deadline views, in [`members`] order.
    views: [OrderedView<EdfKey>; 3],
}

impl EdfPolicy {
    /// MaxEDF: EDF ordering with maximum resource allocation, as
    /// evaluated in the paper (non-preemptive).
    pub fn maxedf() -> Self {
        EdfPolicy::default()
    }

    /// MinEDF: EDF ordering with model-derived minimal resource
    /// allocation.
    pub fn minedf() -> Self {
        EdfPolicy { caps: true, ..EdfPolicy::default() }
    }

    /// MinEDF with preset per-job allocations. In the paper both the
    /// real cluster's MinEDF and the simulated one consult the same
    /// profile database; presets let a harness reproduce that setup (any
    /// job without a preset falls back to the bounds model).
    pub fn with_presets(presets: HashMap<JobId, SlotAllocation>) -> Self {
        EdfPolicy { presets, ..EdfPolicy::minedf() }
    }

    /// Arms preemption: when a job with an earlier deadline has pending
    /// maps and no slot is free, the running job with the latest
    /// deadline loses its most recent map task (killed and requeued).
    /// The paper attributes the "bump" near 100 s inter-arrival in
    /// Figure 7(a) to the lack of exactly this; the
    /// `ablation_preemption` binary quantifies it.
    pub fn preemptive(mut self) -> Self {
        self.preemptive = true;
        self
    }

    /// The wanted allocation for a job (visible for tests/diagnostics);
    /// always `None` under MaxEDF.
    pub fn wanted(&self, id: JobId) -> Option<SlotAllocation> {
        self.wanted.get(id)
    }

    /// The most urgent job that can take a task of `kind`: the first key
    /// of its view.
    fn pick(&self, kind: TaskKind) -> Option<EdfKey> {
        match kind {
            TaskKind::Map => self.views[0].first(),
            TaskKind::Reduce => self.views[1].first(),
        }
    }

    /// The latest-deadline job with a running map, provided it sorts
    /// strictly after `urgent`. Keys are a total order, so if the last one
    /// *is* the urgent job (or sorts before it) no other running job sorts
    /// after the urgent one either.
    fn victim(&self, urgent: EdfKey) -> Option<JobId> {
        self.views[2].last().filter(|&victim| victim > urgent).map(|victim| victim.2)
    }
}

impl SchedulerPolicy for EdfPolicy {
    fn name(&self) -> &str {
        if self.caps {
            "minedf"
        } else {
            "maxedf"
        }
    }

    fn on_job_arrival(
        &mut self,
        id: JobId,
        template: &JobTemplate,
        relative_deadline: Option<DurationMs>,
        cluster: simmr_types::ClusterSpec,
    ) {
        if !self.caps {
            return;
        }
        let (max_maps, max_reduces) = (cluster.map_slots, cluster.reduce_slots);
        let alloc = if let Some(&preset) = self.presets.get(&id) {
            preset
        } else {
            match relative_deadline {
                Some(deadline) => {
                    let profile = JobProfileSummary::from_template(template);
                    min_slots_for_deadline(&profile, deadline, max_maps, max_reduces)
                }
                // no deadline: behave like MaxEDF for this job
                None => SlotAllocation {
                    maps: max_maps.min(template.num_maps),
                    reduces: max_reduces.min(template.num_reduces),
                },
            }
        };
        self.wanted.insert(id, alloc);
    }

    fn on_job_departure(&mut self, id: JobId) {
        self.wanted.remove(id);
    }

    /// MaxEDF's views file a job by its schedulable bits and whether it
    /// runs a map, under a fixed key; MinEDF's caps compare running
    /// counts.
    fn reads_task_counts(&self) -> bool {
        self.caps
    }

    fn on_job_queued(&mut self, entry: &JobEntry) {
        // on_job_arrival has already run: the cap exists before the
        // entry's first membership is computed
        let is = members(self.wanted.get(entry.id), entry);
        update_views(&mut self.views, (entry, 0), (entry, is), false, key);
    }

    fn on_entry_mutated(&mut self, before: &JobEntry, after: &JobEntry) {
        let cap = self.wanted.get(after.id);
        let (was, is) = (members(cap, before), members(cap, after));
        update_views(&mut self.views, (before, was), (after, is), false, key);
    }

    fn on_job_dequeued(&mut self, entry: &JobEntry) {
        // before on_job_departure drops the cap the membership was taken
        // under
        let was = members(self.wanted.get(entry.id), entry);
        update_views(&mut self.views, (entry, was), (entry, 0), false, key);
    }

    fn choose_next_map_task(&mut self, _jobq: &JobQueue) -> Option<JobId> {
        self.pick(TaskKind::Map).map(|key| key.2)
    }

    fn choose_next_reduce_task(&mut self, _jobq: &JobQueue) -> Option<JobId> {
        self.pick(TaskKind::Reduce).map(|key| key.2)
    }

    /// Kills one map of the latest-deadline running job, provided it
    /// sorts strictly after the urgent job. The urgent job is the one
    /// `choose_next_map_task` would launch once the kill frees a slot —
    /// the under-cap EDF minimum, not the global one: an at-cap job
    /// cannot use the freed slot, so killing on its behalf would hand
    /// the slot to a job with a later deadline than the victim's; see
    /// `minedf_preemption_gate_respects_wanted_caps`.
    fn map_preemptions(&mut self, _jobq: &JobQueue, victims: &mut Vec<JobId>) {
        if !self.preemptive {
            return;
        }
        if let Some(urgent) = self.pick(TaskKind::Map) {
            victims.extend(self.victim(urgent));
        }
    }

    /// Checks the caps cover exactly the active jobs (MinEDF), every view
    /// against the queue, and each decision the views answer against a
    /// scan of the queue's keys.
    fn verify_invariants(&self, jobq: &JobQueue) {
        if self.caps {
            let live = self.wanted.live().len();
            if live != jobq.len() || jobq.entries().iter().any(|e| self.wanted(e.id).is_none()) {
                panic!(
                    "engine invariant violated [minedf-wanted]: {live} wanted allocations do not \
                     cover exactly the {} active jobs",
                    jobq.len()
                );
            }
        }
        let keys: Vec<_> = jobq
            .entries()
            .iter()
            .map(|e| keys_of(e, members(self.wanted.get(e.id), e), key))
            .collect();
        verify_views(&self.views, &keys, self.name(), ["map", "reduce", "running"]);
        let scan = |view: usize| keys.iter().filter_map(move |k| k[view]);
        let name = self.name();
        let map = self.pick(TaskKind::Map);
        verify_decision("policy-pick", &format_args!("{name} map pick"), map, scan(0).min());
        let reduce = self.pick(TaskKind::Reduce);
        verify_decision("policy-pick", &format_args!("{name} reduce pick"), reduce, scan(1).min());
        if let Some(urgent) = map {
            let latest = scan(2).filter(|&k| k > urgent).max().map(|k| k.2);
            let victim = &format_args!("{name} preemption victim for {urgent:?}");
            verify_decision("policy-victim", victim, self.victim(urgent), latest);
        }
    }

    /// Variant flags, then for MinEDF the live wanted allocations sorted
    /// by job id. The second flag byte belonged to a retired variant and
    /// is always 0. The deadline views are rebuilt by the hook replay,
    /// and so are the allocations (the arrival replay recomputes them
    /// from the bounds model), so the blob is a cross-check: a resume
    /// with different presets routes every job through the same replay
    /// but lands on different caps, and this is what catches it.
    fn snapshot(&self) -> Vec<u8> {
        let mut out = vec![self.preemptive as u8, 0];
        if self.caps {
            let live = self.wanted.live();
            put_u32(&mut out, live.len() as u32);
            for (job, w) in live {
                put_u32(&mut out, job);
                put_u32(&mut out, w.maps as u32);
                put_u32(&mut out, w.reduces as u32);
            }
        }
        out
    }

    fn restore(&mut self, blob: &[u8]) -> Result<(), String> {
        let mut r = Reader::new(blob);
        let (preemptive, retired) = (r.bool()?, r.u8()?);
        if retired != 0 {
            return Err(format!(
                "{} checkpoint sets the retired flag byte to {retired}; no policy writes it",
                self.name()
            ));
        }
        if preemptive != self.preemptive {
            return Err(format!(
                "{} variant mismatch: checkpoint taken with preemptive={preemptive}, resuming \
                 policy has preemptive={}",
                self.name(),
                self.preemptive
            ));
        }
        if self.caps {
            let n = r.count(12)?;
            let mut captured = Vec::with_capacity(n);
            for _ in 0..n {
                let job = r.u32()?;
                let maps = r.u32()? as usize;
                let reduces = r.u32()? as usize;
                captured.push((job, SlotAllocation { maps, reduces }));
            }
            let rebuilt = self.wanted.live();
            if rebuilt != captured {
                return Err(format!(
                    "minedf wanted allocations diverged from the checkpoint (rebuilt {}, \
                     captured {n}) — was the policy built with the same presets?",
                    rebuilt.len()
                ));
            }
        }
        Ok(r.finish()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmr_core::{EngineConfig, SimulatorEngine};
    use simmr_types::{JobSpec, JobTemplate, SimTime, WorkloadTrace};

    fn map_job(maps: usize, map_ms: u64, arrival_ms: u64, deadline_ms: u64) -> JobSpec {
        JobSpec::new(
            JobTemplate::new("j", vec![map_ms; maps], vec![], vec![], vec![]).unwrap(),
            SimTime::from_millis(arrival_ms),
        )
        .with_deadline(SimTime::from_millis(deadline_ms))
    }

    #[test]
    fn maxedf_prefers_urgent_job() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(map_job(2, 100, 0, 10_000)); // relaxed deadline
        trace.push(map_job(2, 100, 0, 500)); // urgent
        let report =
            SimulatorEngine::new(EngineConfig::new(2, 2), &trace, Box::new(EdfPolicy::maxedf()))
                .run();
        // urgent job 1 grabs both slots first
        assert_eq!(report.jobs[1].completion, SimTime::from_millis(100));
        assert_eq!(report.jobs[0].completion, SimTime::from_millis(200));
    }

    #[test]
    fn maxedf_no_deadline_sorts_last() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(JobSpec::new(
            JobTemplate::new("nodl", vec![100; 2], vec![], vec![], vec![]).unwrap(),
            SimTime::ZERO,
        ));
        trace.push(map_job(2, 100, 0, 50_000));
        let report =
            SimulatorEngine::new(EngineConfig::new(2, 2), &trace, Box::new(EdfPolicy::maxedf()))
                .run();
        assert!(report.jobs[1].completion < report.jobs[0].completion);
    }

    #[test]
    fn minedf_computes_wanted_on_arrival() {
        let mut p = EdfPolicy::minedf();
        let t = JobTemplate::new("j", vec![1000; 16], vec![10], vec![10; 8], vec![10; 8]).unwrap();
        // very relaxed deadline: minimal slots
        p.on_job_arrival(JobId(0), &t, Some(1_000_000), simmr_types::ClusterSpec::new(64, 64));
        let w = p.wanted(JobId(0)).unwrap();
        assert!(w.maps <= 2, "{w:?}");
        // tight deadline: lots of slots
        p.on_job_arrival(JobId(1), &t, Some(2_000), simmr_types::ClusterSpec::new(64, 64));
        let w_tight = p.wanted(JobId(1)).unwrap();
        assert!(w_tight.maps > w.maps);
        // no deadline: max
        p.on_job_arrival(JobId(2), &t, None, simmr_types::ClusterSpec::new(64, 64));
        assert_eq!(p.wanted(JobId(2)).unwrap().maps, 16);
        p.on_job_departure(JobId(0));
        assert!(p.wanted(JobId(0)).is_none());
    }

    #[test]
    fn minedf_leaves_spare_slots_for_late_urgent_job() {
        // Job 0: 8 maps x 1s, relaxed deadline (8s for 1 slot's worth of
        // work on an 8-slot cluster => MinEDF gives it ~2 slots).
        // Job 1 arrives at t=100ms: 2 maps x 1s, tight deadline.
        // Under MinEDF job 1 finds free slots instantly; under MaxEDF it
        // waits for job 0's first wave to drain (non-preemption).
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(map_job(8, 1000, 0, 9_000));
        trace.push(map_job(2, 1000, 100, 1_200));

        let min_report =
            SimulatorEngine::new(EngineConfig::new(8, 8), &trace, Box::new(EdfPolicy::minedf()))
                .run();
        let max_report =
            SimulatorEngine::new(EngineConfig::new(8, 8), &trace, Box::new(EdfPolicy::maxedf()))
                .run();

        // MaxEDF: job 1 waits until t=1000, finishes 2000 (missed).
        assert_eq!(max_report.jobs[1].completion, SimTime::from_millis(2000));
        // MinEDF: job 1 starts at arrival, finishes 1100 (met).
        assert_eq!(min_report.jobs[1].completion, SimTime::from_millis(1100));
        assert!(min_report.jobs[1].met_deadline());
        assert!(!max_report.jobs[1].met_deadline());
        // and job 0 still meets its own deadline under MinEDF
        assert!(min_report.jobs[0].met_deadline());
        assert!(
            min_report.total_relative_deadline_exceeded()
                < max_report.total_relative_deadline_exceeded()
        );
    }

    #[test]
    fn minedf_caps_running_tasks() {
        // one job, wanted == 2 map slots on an 8-slot cluster: completion
        // should reflect 2-at-a-time waves, not 8.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(map_job(8, 1000, 0, 9_000)); // deadline allows ~1 slot
        let report =
            SimulatorEngine::new(EngineConfig::new(8, 8), &trace, Box::new(EdfPolicy::minedf()))
                .run();
        // with k slots the job takes ceil(8/k) seconds; wanted k is small,
        // so completion must be well beyond the 1s that MaxEDF would give
        assert!(
            report.jobs[0].completion >= SimTime::from_millis(4000),
            "completion {} suggests the cap was ignored",
            report.jobs[0].completion
        );
        assert!(report.jobs[0].met_deadline());
    }

    #[test]
    fn preemptive_maxedf_kills_for_urgent_arrival() {
        // Job 0 (relaxed deadline) occupies both slots with long maps; job 1
        // (urgent) arrives mid-flight. Non-preemptive MaxEDF makes it wait a
        // full map duration; the preemptive variant kills one of job 0's
        // maps immediately.
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(map_job(4, 10_000, 0, 60_000));
        trace.push(map_job(1, 1_000, 2_000, 4_000));

        let plain =
            SimulatorEngine::new(EngineConfig::new(2, 2), &trace, Box::new(EdfPolicy::maxedf()))
                .run();
        let preempt = SimulatorEngine::new(
            EngineConfig::new(2, 2),
            &trace,
            Box::new(EdfPolicy::maxedf().preemptive()),
        )
        .run();
        // plain: job 1 waits until t=10s, done 11s (missed)
        assert_eq!(plain.jobs[1].completion, SimTime::from_millis(11_000));
        // preemptive: job 1 starts at arrival, done 3s (met)
        assert_eq!(preempt.jobs[1].completion, SimTime::from_millis(3_000));
        assert!(preempt.jobs[1].met_deadline());
        // the preempted map restarts from scratch, so job 0 finishes later
        assert!(preempt.jobs[0].completion > plain.jobs[0].completion);
        // ...but every task still completes exactly once
        assert_eq!(preempt.jobs[0].num_maps, 4);
    }

    #[test]
    fn preemption_is_deterministic_and_conserves_tasks() {
        let mut trace = WorkloadTrace::new("t", "test");
        for i in 0..12u64 {
            trace.push(map_job(
                3 + (i % 4) as usize,
                500 + i * 97,
                i * 800,
                i * 800 + 4_000 + i * 321,
            ));
        }
        let run = |_: u32| {
            SimulatorEngine::new(
                EngineConfig::new(3, 3),
                &trace,
                Box::new(EdfPolicy::maxedf().preemptive()),
            )
            .run()
        };
        let a = run(0);
        assert_eq!(a, run(1));
        for (result, spec) in a.jobs.iter().zip(&trace.jobs) {
            assert_eq!(result.num_maps, spec.template.num_maps);
            assert!(result.completion >= result.arrival);
        }
    }

    #[test]
    fn equal_deadline_factor_one_degenerates_to_maxedf() {
        // df=1 deadlines equal the all-slots runtime: MinEDF's model must
        // request (nearly) everything, so both policies coincide (§V-B).
        let mut trace = WorkloadTrace::new("t", "test");
        // 8 maps of 1s on 4 slots => 2 waves => 2s standalone
        trace.push(map_job(8, 1000, 0, 2_000));
        let min_r =
            SimulatorEngine::new(EngineConfig::new(4, 4), &trace, Box::new(EdfPolicy::minedf()))
                .run();
        let max_r =
            SimulatorEngine::new(EngineConfig::new(4, 4), &trace, Box::new(EdfPolicy::maxedf()))
                .run();
        assert_eq!(min_r.jobs[0].completion, max_r.jobs[0].completion);
    }

    /// Regression test for the preemption gate mismatch: the earliest-
    /// deadline job is *at its wanted cap*, a mid-deadline job is running
    /// with nothing pending, and a late-deadline under-cap job is
    /// waiting. The old gate named the capped job as urgent and killed
    /// the mid-deadline job's map — freeing a slot the capped job could
    /// not use, which then went to the *later*-deadline waiter: a
    /// deadline inversion. The fixed gate takes the under-cap EDF
    /// minimum as urgent, finds no running job with a strictly later
    /// deadline, and kills nothing.
    #[test]
    fn minedf_preemption_gate_respects_wanted_caps() {
        let mut presets = HashMap::new();
        presets.insert(JobId(0), SlotAllocation { maps: 1, reduces: 1 });
        let mut trace = WorkloadTrace::new("t", "test");
        // job 0: earliest deadline, 2 maps, capped at 1 running => at cap
        // with one pending map from t=0
        trace.push(map_job(2, 10_000, 0, 20_000));
        // job 1: mid deadline, occupies the second slot, nothing pending
        trace.push(map_job(1, 10_000, 0, 30_000));
        // job 2: latest deadline, arrives once all slots are busy
        trace.push(map_job(1, 1_000, 500, 60_000));
        let run = |policy: Box<dyn SchedulerPolicy>| {
            SimulatorEngine::new(EngineConfig::new(2, 2).with_timeline(), &trace, policy).run()
        };
        let preemptive = run(Box::new(EdfPolicy::with_presets(presets.clone()).preemptive()));
        let plain = run(Box::new(EdfPolicy::with_presets(presets)));
        // no kill on behalf of a job that cannot use the slot: the
        // preemptive run matches the non-preemptive one task for task
        assert_eq!(preemptive, plain);
        // and job 1's map ran exactly once, uninterrupted
        assert_eq!(preemptive.jobs[1].completion, SimTime::from_millis(10_000));
    }

    /// The fixed gate still preempts when the under-cap urgent job has
    /// the earlier deadline: the latest-deadline running job loses a map.
    #[test]
    fn minedf_preemption_still_fires_for_under_cap_urgent() {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(map_job(4, 10_000, 0, 60_000));
        trace.push(map_job(1, 1_000, 2_000, 4_000)); // urgent, under cap
        let report = SimulatorEngine::new(
            EngineConfig::new(2, 2),
            &trace,
            Box::new(EdfPolicy::minedf().preemptive()),
        )
        .run();
        // job 1 preempts at arrival and meets its deadline
        assert_eq!(report.jobs[1].completion, SimTime::from_millis(3_000));
        assert!(report.jobs[1].met_deadline());
    }

    #[test]
    fn preemption_victim_requires_strictly_later_deadline() {
        let key = |id, deadline| (SimTime::from_millis(deadline), SimTime::ZERO, JobId(id));
        let mut p = EdfPolicy::maxedf();
        p.views[2].update(None, Some(key(1, 500)));
        p.views[2].update(None, Some(key(2, 900)));
        // urgent at 100: job 2 (latest deadline) is the victim
        assert_eq!(p.victim(key(0, 100)), Some(JobId(2)));
        // the urgent job is itself the latest-deadline running job: no
        // other running job can sort strictly after it
        assert_eq!(p.victim(key(2, 900)), None);
        // no running job has a strictly later deadline than the urgent
        assert_eq!(p.victim(key(0, 1_000)), None);
        // equal deadline: the id tiebreak decides strictness both ways
        assert_eq!(p.victim(key(3, 900)), None);
        assert_eq!(p.victim(key(0, 900)), Some(JobId(2)));
        // a job whose last running map ends leaves the view at once
        p.views[2].update(Some(key(2, 900)), None);
        assert_eq!(p.victim(key(0, 100)), Some(JobId(1)));
    }

    /// MinEDF keeps caps for the active jobs only: 100k arrivals with at
    /// most 10 jobs active at once leave storage the size of that window,
    /// not of the trace, and departures in any order shrink it.
    #[test]
    fn minedf_caps_storage_follows_the_active_window() {
        let mut p = EdfPolicy::minedf();
        let t = JobTemplate::new("j", vec![1000; 4], vec![10], vec![10; 2], vec![10; 2]).unwrap();
        let cluster = simmr_types::ClusterSpec::new(64, 64);
        for i in 0..100_000u32 {
            p.on_job_arrival(JobId(i), &t, Some(60_000), cluster);
            if i >= 9 {
                p.on_job_departure(JobId(i - 9));
            }
            assert!(p.wanted.slots.capacity() <= 32, "caps stored: {}", p.wanted.slots.capacity());
        }
        assert_eq!(
            p.wanted.live().iter().map(|c| c.0).collect::<Vec<_>>(),
            (99_991..100_000).collect::<Vec<_>>()
        );
        // ids may come and go out of order: a resume replays arrivals in
        // arrival order, and departures follow the schedule
        let mut p = EdfPolicy::minedf();
        for id in [7, 3, 9, 5] {
            p.on_job_arrival(JobId(id), &t, Some(60_000), cluster);
        }
        assert!([3, 5, 7, 9].iter().all(|&id| p.wanted(JobId(id)).is_some()));
        assert!([2, 4, 8, 10].iter().all(|&id| p.wanted(JobId(id)).is_none()));
        p.on_job_departure(JobId(3));
        p.on_job_departure(JobId(9));
        assert_eq!((p.wanted.base, p.wanted.slots.len()), (5, 3));
        p.on_job_departure(JobId(7));
        p.on_job_departure(JobId(5));
        assert!(p.wanted.slots.is_empty());
    }
}
