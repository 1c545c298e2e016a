//! Differential harness over the engine's runtime invariant checker
//! (`EngineConfig::with_invariants`):
//!
//! * single-job traces must land inside the ARIA bounds model of eq. 1
//!   across randomized templates and slot counts, with every batch
//!   invariant armed;
//! * random preemption-heavy traces sweep all eight policies (both
//!   preemptive EDF variants and the hierarchical pool tree included)
//!   with the checker on — any slot leak, counter drift, phantom
//!   timeline bar, uncovered queue mutation or per-pool share-accounting
//!   drift panics inside the engine;
//! * random traces under the full failure model (host failures,
//!   speculation, per-slot slowdowns) sweep all eight policies with the
//!   checker on, and every run must replay byte-identically;
//! * random pool trees replay random multi-tenant workloads under `hier`
//!   (and `capacity`) while the checker re-aggregates the per-pool
//!   counters and re-derives every pick and victim from a queue scan
//!   after every batch; a second run, checkpointed at half the makespan
//!   and resumed through the SIMMRCKP codec, must match byte for byte;
//! * random deadline-heavy traces (faults, speculation and preemption
//!   included) replay under the four EDF variants while the checker
//!   verifies the deadline views and re-derives every pick and victim
//!   from a queue scan after every batch; a checkpointed and resumed
//!   second run must match byte for byte;
//! * random traces under the full failure model replay under `fifo` and
//!   `fair`, scheduling from their ordered views, and under test-local
//!   policies that scan the whole queue per decision — byte-identical
//!   reports required, with the views verified after every batch;
//! * a deterministic preemption scenario is cross-checked against the
//!   snapshot oracle. With the two preemption fixes reverted
//!   (`preempt_map` not setting `jobq_dirty`; map bars recorded at launch
//!   with full duration) this suite fails — the checker provably catches
//!   that bug class.

use proptest::prelude::*;
use simmr_core::{
    Divergence, EngineCheckpoint, EngineConfig, FaultSpec, ForkSpec, HostFailure, JobQueue,
    RecoverySpec, SchedulerPolicy, SimulatorEngine, TraceJobSource,
};
use simmr_model::{estimate_completion, JobProfileSummary};
use simmr_sched::{parse_policy, EdfPolicy, HierPolicy, PolicySpec};
use simmr_stats::Dist;
use simmr_trace::{encode_trace, BinTraceSource, MultiTenantWorkload};
use simmr_types::{
    HostId, JobId, JobSpec, JobTemplate, SimTime, SimulationReport, TimelinePhase, WorkloadTrace,
};

const POLICIES: [&str; 8] = [
    "fifo",
    "maxedf",
    "minedf",
    "fair",
    "maxedf-p",
    "minedf-p",
    "capacity",
    "hier:j[w=2,min=1,timeout=0.5],spare[w=1]",
];

/// The paper's §V validation error band (~10–15%) covers the engine
/// nuances the bounds model ignores (slowstart overlap, first-shuffle
/// crediting).
const SLACK: f64 = 1.15;

fn uniform_template(
    maps: usize,
    reduces: usize,
    map_ms: u64,
    sh_ms: u64,
    red_ms: u64,
) -> JobTemplate {
    JobTemplate::new(
        "j",
        vec![map_ms; maps],
        if reduces > 0 { vec![sh_ms] } else { vec![] },
        if reduces > 0 { vec![sh_ms; reduces] } else { vec![] },
        vec![red_ms; reduces],
    )
    .expect("generated template is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) Single-job differential: the simulated makespan lies within the
    /// `simmr-model` bounds of eq. 1, with all runtime invariants checked
    /// along the way.
    #[test]
    fn single_job_makespan_within_model_bounds(
        maps in 1usize..50,
        reduces in 0usize..24,
        map_ms in 50u64..4_000,
        sh_ms in 20u64..2_000,
        red_ms in 20u64..2_000,
        map_slots in 1usize..12,
        reduce_slots in 1usize..12,
        slowstart_pick in 0usize..3,
    ) {
        let template = uniform_template(maps, reduces, map_ms, sh_ms, red_ms);
        let profile = JobProfileSummary::from_template(&template);
        let est = estimate_completion(&profile, map_slots, reduce_slots);
        let mut trace = WorkloadTrace::new("single", "invariant-harness");
        trace.push(JobSpec::new(template, SimTime::ZERO));
        let config = EngineConfig::new(map_slots, reduce_slots)
            .with_slowstart([0.0, 0.05, 1.0][slowstart_pick])
            .with_timeline()
            .with_invariants();
        let report =
            SimulatorEngine::new(config, &trace, parse_policy("fifo").unwrap()).run();
        let actual = report.jobs[0].duration() as f64;
        prop_assert!(
            est.contains(actual, SLACK),
            "makespan {actual} outside model bounds [{}, {}] at slack {SLACK}",
            est.low, est.up
        );
    }

    /// (b) Preemption-heavy sweep: contended slots, staggered arrivals and
    /// ever-tighter deadlines force the preemptive EDF variants through
    /// repeated kill/requeue/relaunch cycles; all eight policies replay
    /// the same trace with the checker armed.
    #[test]
    fn preemption_heavy_sweep_all_policies(
        jobs in proptest::collection::vec(
            // (maps, reduces, map_ms, sh_ms, red_ms, arrival, deadline_rel)
            (1usize..7, 0usize..4, 50u64..600, 1u64..60, 1u64..80,
             0u64..800, 50u64..2_500),
            2..14,
        ),
        map_slots in 1usize..4,
        reduce_slots in 1usize..4,
    ) {
        let mut trace = WorkloadTrace::new("preempt", "invariant-harness");
        for &(maps, reduces, map_ms, sh_ms, red_ms, arrival, deadline_rel) in &jobs {
            trace.push(
                JobSpec::new(
                    uniform_template(maps, reduces, map_ms, sh_ms, red_ms),
                    SimTime::from_millis(arrival),
                )
                .with_deadline(SimTime::from_millis(arrival + deadline_rel)),
            );
        }
        for policy in POLICIES {
            let config = EngineConfig::new(map_slots, reduce_slots)
                .with_timeline()
                .with_invariants();
            let report =
                SimulatorEngine::new(config, &trace, parse_policy(policy).unwrap()).run();
            prop_assert_eq!(report.jobs.len(), jobs.len(), "policy {} lost jobs", policy);
            for job in &report.jobs {
                prop_assert!(
                    job.completion >= job.arrival,
                    "policy {}: job {} finished before arriving", policy, job.job
                );
            }
        }
    }

    /// (c) Failure-model sweep: host failures, speculative re-execution and
    /// per-slot slowdowns together, across all eight policies, invariants
    /// and timeline armed — and every configuration must replay
    /// byte-identically from the same seeds.
    #[test]
    fn failure_model_sweep_all_policies(
        jobs in proptest::collection::vec(
            // (maps, reduces, map_ms, sh_ms, red_ms, arrival)
            (1usize..7, 0usize..4, 50u64..600, 1u64..60, 1u64..80, 0u64..1_000),
            2..10,
        ),
        map_slots in 2usize..8,
        reduce_slots in 1usize..4,
        hosts in 2usize..5,
        fault_count in 0u32..4,
        fault_seed in 0u64..1_000,
        speculation_on in proptest::bool::ANY,
        slowdown_on in proptest::bool::ANY,
    ) {
        let mut trace = WorkloadTrace::new("failures", "invariant-harness");
        for &(maps, reduces, map_ms, sh_ms, red_ms, arrival) in &jobs {
            trace.push(JobSpec::new(
                uniform_template(maps, reduces, map_ms, sh_ms, red_ms),
                SimTime::from_millis(arrival),
            ));
        }
        let mut config = EngineConfig::new(map_slots, reduce_slots)
            .with_hosts(hosts)
            .with_faults(FaultSpec {
                seed: fault_seed,
                count: fault_count,
                mean_interval_ms: 700,
            })
            .with_timeline()
            .with_invariants();
        if speculation_on {
            config = config.with_speculation(1.5);
        }
        if slowdown_on {
            config = config.with_slowdown(
                Dist::LogNormal { mu: -0.125, sigma: 0.5 },
                fault_seed ^ 0x5eed,
            );
        }
        for policy in POLICIES {
            let run = || {
                SimulatorEngine::new(config, &trace, parse_policy(policy).unwrap()).run()
            };
            let report = run();
            prop_assert_eq!(report.jobs.len(), jobs.len(), "policy {} lost jobs", policy);
            for job in &report.jobs {
                prop_assert!(
                    job.completion >= job.arrival,
                    "policy {}: job {} finished before arriving", policy, job.job
                );
            }
            prop_assert_eq!(report, run(), "policy {} replay diverged", policy);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (d) Differential oracle for the incremental share view: a random
    /// pool tree — a `hier:` tree, or `capacity:` queues with nested
    /// names routed by longest prefix — replays a random multi-tenant
    /// workload (failures and speculation included). After every settled
    /// batch the armed invariant checker re-aggregates the per-pool
    /// counters from the queue and holds each pick and victim to the
    /// naive one: the descent over the re-aggregated counts, then a scan
    /// of the leaf. A second run, checkpointed at half the makespan,
    /// passed through the SIMMRCKP codec and resumed under a freshly
    /// built policy (starvation clocks restored from its blob), must
    /// report byte for byte the same, event timelines included.
    #[test]
    fn hier_incremental_matches_full_reaggregation_reference(
        shape in 0usize..7,
        w0 in 1u32..6,
        w1 in 1u32..6,
        w2 in 1u32..6,
        min0 in 0usize..5,
        max0 in 2usize..7,
        timeout_ds in 0u64..12, // deciseconds; 0 = same-pass preemption
        with_timeout in proptest::bool::ANY,
        jobs in 8usize..48,
        interarrival in 200u64..4_000,
        seed in 0u64..1_000,
        map_slots in 2usize..10,
        reduce_slots in 1usize..6,
        fault_count in 0u32..3,
        speculation_on in proptest::bool::ANY,
    ) {
        let t = if with_timeout {
            format!(",timeout={}", timeout_ds as f64 / 10.0)
        } else {
            String::new()
        };
        // pool-tree shapes over the three_tenant routing prefixes, from
        // flat weighted splits to nested min/max/timeout combinations,
        // then capacity queues whose names nest (longest prefix wins), a
        // tenant matching no queue (last-queue fallback) and a catch-all
        let spec = match shape {
            0 => format!("hier:prod[w={w0},min={min0}{t}]{{etl,serving}},adhoc[w={w1}]"),
            1 => format!(
                "hier:prod[w={w0}]{{etl[min={min0}{t}],serving[max={max0}]}},adhoc[w={w1}]"
            ),
            2 => format!(
                "hier:prod-etl[w={w0},min={min0}{t}],prod-serving[w={w1}],adhoc[max={max0}]"
            ),
            3 => format!("hier:prod[w={w0}]{{etl[min={min0}{t}],serving{{a,b}}}},adhoc[w={w1}]"),
            4 => format!("capacity:prod={w0},prod-etl={w1},adhoc={w2}"),
            5 => format!("capacity:prod={w0},prod-etl={w1},prod-etl-fb-1={w2}"),
            _ => format!("capacity:={w0},prod-serving={w1},prod-etl-fb-2={w2}"),
        };
        let build = || match spec.parse::<PolicySpec>().expect("generated spec parses") {
            PolicySpec::Hier { pools } => HierPolicy::new(pools),
            PolicySpec::Capacity { queues } => HierPolicy::capacity(&queues),
            other => unreachable!("not a pool-tree spec: {other}"),
        };
        let trace = MultiTenantWorkload::three_tenant(interarrival as f64)
            .generate(jobs, seed);
        let mut config = EngineConfig::new(map_slots, reduce_slots)
            .with_hosts(2)
            .with_faults(FaultSpec { seed, count: fault_count, mean_interval_ms: 5_000 })
            .with_timeline()
            .with_invariants();
        if speculation_on {
            config = config.with_speculation(1.5);
        }
        let report = SimulatorEngine::new(config, &trace, Box::new(build())).run();
        let resumed = resumed_from_half(config, &trace, &report, || Box::new(build()));
        prop_assert_eq!(report, resumed, "resumed run diverged on {}", spec);
    }

    /// (e) Differential oracle for the EDF deadline views: random
    /// deadline-heavy traces (a mix of tight, relaxed and absent
    /// deadlines) replay under every EDF variant — plain and preemptive,
    /// MaxEDF and MinEDF — with host failures and speculation in play.
    /// After every settled batch the armed invariant checker verifies
    /// each view against the live queue and holds the map pick, the
    /// reduce pick and the preemption victim to a scan of the queue. A
    /// second run, checkpointed at half the makespan, passed through the
    /// SIMMRCKP codec and resumed under a freshly built policy (MinEDF's
    /// caps checked against its blob), must report byte for byte the
    /// same, event timelines included.
    #[test]
    fn edf_incremental_matches_full_scan_reference(
        jobs in proptest::collection::vec(
            // (maps, reduces, map_ms, sh_ms, red_ms, arrival, deadline_rel, has_deadline)
            (1usize..7, 0usize..4, 50u64..600, 1u64..60, 1u64..80,
             0u64..1_200, 50u64..3_000, proptest::bool::ANY),
            2..16,
        ),
        map_slots in 1usize..6,
        reduce_slots in 1usize..4,
        hosts in 2usize..4,
        fault_count in 0u32..3,
        seed in 0u64..1_000,
        speculation_on in proptest::bool::ANY,
    ) {
        let mut trace = WorkloadTrace::new("edf-diff", "invariant-harness");
        for &(maps, reduces, map_ms, sh_ms, red_ms, arrival, deadline_rel, has_deadline) in &jobs {
            let mut spec = JobSpec::new(
                uniform_template(maps, reduces, map_ms, sh_ms, red_ms),
                SimTime::from_millis(arrival),
            );
            if has_deadline {
                spec = spec.with_deadline(SimTime::from_millis(arrival + deadline_rel));
            }
            trace.push(spec);
        }
        let mut config = EngineConfig::new(map_slots, reduce_slots)
            .with_hosts(hosts)
            .with_faults(FaultSpec { seed, count: fault_count, mean_interval_ms: 900 })
            .with_timeline()
            .with_invariants();
        if speculation_on {
            config = config.with_speculation(1.5);
        }
        let build = |variant: &str| -> Box<dyn SchedulerPolicy> {
            Box::new(match variant {
                "maxedf" => EdfPolicy::maxedf(),
                "maxedf-p" => EdfPolicy::maxedf().preemptive(),
                "minedf" => EdfPolicy::minedf(),
                "minedf-p" => EdfPolicy::minedf().preemptive(),
                _ => unreachable!("unknown EDF variant {variant}"),
            })
        };
        for variant in ["maxedf", "maxedf-p", "minedf", "minedf-p"] {
            let report = SimulatorEngine::new(config, &trace, build(variant)).run();
            let resumed = resumed_from_half(config, &trace, &report, || build(variant));
            prop_assert_eq!(report, resumed, "resumed {} diverged", variant);
        }
    }

    /// (f) Differential oracle for the queue-order policies' ordered
    /// views: random traces (arrivals on a coarse grid, so ties are
    /// common) replay under `fifo` and `fair`, scheduling from their
    /// views, and under test-local naive policies that scan the whole
    /// queue per decision, with host failures, recovery, speculation and
    /// slowdowns in play. Reports (event timelines included) must match
    /// byte for byte, and the armed invariant checker verifies the views
    /// against the live queue after every settled batch.
    #[test]
    fn queue_order_policies_match_naive_scan_reference(
        jobs in proptest::collection::vec(
            // (maps, reduces, map_ms, sh_ms, red_ms, arrival in 100 ms)
            (1usize..7, 0usize..4, 50u64..600, 1u64..60, 1u64..80, 0u64..12),
            2..16,
        ),
        map_slots in 1usize..6,
        reduce_slots in 1usize..4,
        hosts in 2usize..4,
        fault_count in 0u32..3,
        seed in 0u64..1_000,
        speculation_on in proptest::bool::ANY,
    ) {
        let mut trace = WorkloadTrace::new("queue-order-diff", "invariant-harness");
        for &(maps, reduces, map_ms, sh_ms, red_ms, arrival) in &jobs {
            trace.push(JobSpec::new(
                uniform_template(maps, reduces, map_ms, sh_ms, red_ms),
                SimTime::from_millis(100 * arrival),
            ));
        }
        let mut config = EngineConfig::new(map_slots, reduce_slots)
            .with_hosts(hosts)
            .with_faults(FaultSpec { seed, count: fault_count, mean_interval_ms: 900 })
            .with_recovery(RecoverySpec { seed, mean_ms: 1_500 })
            .with_slowdown(Dist::LogNormal { mu: -0.125, sigma: 0.5 }, seed)
            .with_timeline()
            .with_invariants();
        if speculation_on {
            config = config.with_speculation(1.5);
        }
        let naive: [(&str, Box<dyn SchedulerPolicy>); 2] =
            [("fifo", Box::new(NaiveFifo)), ("fair", Box::new(NaiveFair))];
        for (spec, reference) in naive {
            let views =
                SimulatorEngine::new(config, &trace, parse_policy(spec).expect("known policy")).run();
            let naive = SimulatorEngine::new(config, &trace, reference).run();
            prop_assert_eq!(views, naive, "{} diverged from its naive scan", spec);
        }
    }
}

/// Reruns `trace` to half of `report`'s makespan, passes the checkpoint
/// through the SIMMRCKP codec and resumes it under a freshly built policy
/// to the end.
fn resumed_from_half(
    config: EngineConfig,
    trace: &WorkloadTrace,
    report: &SimulationReport,
    policy: impl Fn() -> Box<dyn SchedulerPolicy>,
) -> SimulationReport {
    let at = SimTime::from_millis(report.makespan.as_millis() / 2);
    let ckpt = SimulatorEngine::new(config, trace, policy()).checkpoint_at(at).unwrap();
    let decoded = EngineCheckpoint::decode(&ckpt.encode()).unwrap();
    SimulatorEngine::resume_materialized(config, &decoded, policy()).unwrap().run()
}

/// Test-local FIFO reference: the minimal FIFO of the `simmr_core` crate
/// docs, a scan of the whole queue per decision.
struct NaiveFifo;

impl SchedulerPolicy for NaiveFifo {
    fn name(&self) -> &str {
        "fifo"
    }

    fn choose_next_map_task(&mut self, q: &JobQueue) -> Option<JobId> {
        q.entries()
            .iter()
            .filter(|e| e.pending_maps > 0)
            .min_by_key(|e| (e.arrival, e.id))
            .map(|e| e.id)
    }

    fn choose_next_reduce_task(&mut self, q: &JobQueue) -> Option<JobId> {
        q.entries()
            .iter()
            .filter(|e| e.reduce_eligible && e.pending_reduces > 0)
            .min_by_key(|e| (e.arrival, e.id))
            .map(|e| e.id)
    }
}

/// Test-local fair-share reference: fewest running tasks first, by a
/// `min_by_key` scan of the whole queue per decision.
struct NaiveFair;

impl SchedulerPolicy for NaiveFair {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// (g) Fork differential oracle for the time-travel checkpoints: for
    /// every policy, a run under the full perturbation stack (host
    /// failures, recovery, speculation, per-slot slowdowns) is
    /// checkpointed at a random instant — through the full binary codec —
    /// resumed, and a random divergence applied (policy swap, slot grow,
    /// injected fault, arrival surge). The warm-started report must be
    /// byte-identical to a from-scratch `run_forked` applying the same
    /// divergence at the same instant, with the invariant checker armed
    /// on both sides. This is the `fork-differential` CI step.
    #[test]
    fn fork_matches_from_scratch_reference(
        jobs in proptest::collection::vec(
            // (maps, reduces, map_ms, sh_ms, red_ms, arrival, deadline_rel, has_deadline)
            (1usize..6, 0usize..4, 50u64..600, 1u64..60, 1u64..80,
             0u64..1_200, 50u64..3_000, proptest::bool::ANY),
            2..12,
        ),
        map_slots in 2usize..6,
        reduce_slots in 1usize..4,
        hosts in 2usize..5,
        fault_count in 0u32..3,
        seed in 0u64..1_000,
        speculation_on in proptest::bool::ANY,
        slowdown_on in proptest::bool::ANY,
        ckpt_percent in 0u64..120, // of the unforked makespan; >100 = past the end
        divergence_pick in 0usize..4,
    ) {
        let mut trace = WorkloadTrace::new("fork-diff", "invariant-harness");
        for &(maps, reduces, map_ms, sh_ms, red_ms, arrival, deadline_rel, has_deadline) in &jobs {
            let mut spec = JobSpec::new(
                uniform_template(maps, reduces, map_ms, sh_ms, red_ms),
                SimTime::from_millis(arrival),
            );
            if has_deadline {
                spec = spec.with_deadline(SimTime::from_millis(arrival + deadline_rel));
            }
            trace.push(spec);
        }
        let mut config = EngineConfig::new(map_slots, reduce_slots)
            .with_hosts(hosts)
            .with_faults(FaultSpec { seed, count: fault_count, mean_interval_ms: 900 })
            .with_recovery(RecoverySpec { seed: seed ^ 0xeca, mean_ms: 600 })
            .with_timeline()
            .with_invariants();
        if speculation_on {
            config = config.with_speculation(1.5);
        }
        if slowdown_on {
            config = config.with_slowdown(
                Dist::LogNormal { mu: -0.125, sigma: 0.5 },
                seed ^ 0x5eed,
            );
        }
        for (pi, policy) in POLICIES.iter().enumerate() {
            let base = SimulatorEngine::new(config, &trace, parse_policy(policy).unwrap()).run();
            let at = SimTime::from_millis(base.makespan.as_millis() * ckpt_percent / 100);
            // both sides get an identically-built fork (Divergence holds a
            // boxed policy, so the spec is rebuilt rather than cloned)
            let make_fork = || {
                let divergences = match divergence_pick {
                    0 => vec![Divergence::PolicySwap(
                        parse_policy(POLICIES[(pi + 1) % POLICIES.len()]).unwrap(),
                    )],
                    1 => vec![Divergence::AddSlots { map_slots: 2, reduce_slots: 1 }],
                    2 => vec![Divergence::InjectFault {
                        host: HostId(1 + (seed % (hosts as u64 - 1)) as u32),
                        at, // at the boundary: clamped to strictly after it
                    }],
                    _ => vec![Divergence::ArrivalSurge(vec![JobSpec::new(
                        uniform_template(3, 1, 120, 10, 20),
                        SimTime::ZERO, // before the boundary: clamped
                    )])],
                };
                ForkSpec::new(at, divergences)
            };
            let reference = SimulatorEngine::new(config, &trace, parse_policy(policy).unwrap())
                .run_forked(make_fork())
                .unwrap();
            let ckpt = SimulatorEngine::new(config, &trace, parse_policy(policy).unwrap())
                .checkpoint_at(at)
                .unwrap();
            let bytes = ckpt.encode();
            let decoded = EngineCheckpoint::decode(&bytes).unwrap();
            prop_assert_eq!(&decoded.encode(), &bytes, "codec not canonical for {}", policy);
            let mut warm =
                SimulatorEngine::resume_materialized(config, &decoded, parse_policy(policy).unwrap())
                    .unwrap();
            warm.apply_fork(make_fork()).unwrap();
            let warm = warm.try_run().unwrap();
            prop_assert_eq!(
                warm, reference,
                "policy {}: warm-started fork at t={} diverged from from-scratch", policy, at
            );
        }
    }
}

/// An arrival surge must not depend on how the trace was fed. Six jobs
/// arrive 300 ms apart on a 2×2 cluster; a fork at 350 ms adds one surge
/// job at 900 ms, while trace jobs 2..6 have not arrived yet. The fork
/// replayed from the in-memory trace (`new`), from a `TraceJobSource` and
/// from a SIMMRBIN file streamed off disk must produce byte-identical
/// reports, with the surge job numbered after every trace job.
#[test]
fn surge_fork_is_independent_of_how_the_trace_is_fed() {
    let mut trace = WorkloadTrace::new("surge", "invariant-harness");
    for i in 0..6u64 {
        let arrival = 300 * i;
        trace.push(
            JobSpec::new(uniform_template(2, 1, 200, 10, 20), SimTime::from_millis(arrival))
                .with_deadline(SimTime::from_millis(arrival + 2_000 - 150 * i)),
        );
    }
    let dir = std::env::temp_dir().join(format!("simmr-it-surge-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bin_path = dir.join("surge.trace.bin");
    std::fs::write(&bin_path, encode_trace(&trace).unwrap()).unwrap();

    let config = EngineConfig::new(2, 2).with_timeline().with_invariants();
    let fork = || {
        let surge = JobTemplate::new("surge", vec![100; 2], vec![10], vec![10], vec![20]).unwrap();
        ForkSpec::new(
            SimTime::from_millis(350),
            vec![Divergence::ArrivalSurge(vec![JobSpec::new(surge, SimTime::from_millis(900))
                .with_deadline(SimTime::from_millis(1_000))])],
        )
    };
    for policy in ["fifo", "maxedf", "fair"] {
        let policy = || parse_policy(policy).unwrap();
        let reference = SimulatorEngine::new(config, &trace, policy()).run_forked(fork()).unwrap();
        assert_eq!(&*reference.jobs[6].name, "surge", "surge job follows every trace job");
        let streamed =
            SimulatorEngine::from_source(config, Box::new(TraceJobSource::new(&trace)), policy())
                .run_forked(fork())
                .unwrap();
        let from_file = SimulatorEngine::from_source(
            config,
            Box::new(BinTraceSource::open(&bin_path).unwrap()),
            policy(),
        )
        .run_forked(fork())
        .unwrap();
        let json = |r: &simmr_types::SimulationReport| serde_json::to_string(r).unwrap();
        assert_eq!(json(&streamed), json(&reference), "{}: TraceJobSource", policy().name());
        assert_eq!(json(&from_file), json(&reference), "{}: SIMMRBIN source", policy().name());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deterministic host-failure scenario: killing a host mid-stage re-runs
/// the completed maps whose output it held (Hadoop semantics) and the
/// report still balances under the invariant checker. Mirrors the unit
/// test inside simmr-core but drives the public crate API end to end.
#[test]
fn host_failure_reruns_completed_maps_and_balances() {
    let mut trace = WorkloadTrace::new("host-failure", "invariant-harness");
    trace.push(JobSpec::new(uniform_template(6, 1, 100, 20, 30), SimTime::ZERO));
    let config = EngineConfig::new(4, 2).with_hosts(2).with_timeline().with_invariants();
    let run = |fail: bool| {
        let engine = SimulatorEngine::new(config, &trace, parse_policy("fifo").unwrap());
        let engine = if fail {
            engine.with_fault_plan(vec![HostFailure {
                host: HostId(1),
                at: SimTime::from_millis(150),
            }])
        } else {
            engine
        };
        engine.run()
    };
    let healthy = run(false);
    let failed = run(true);
    // losing half the cluster mid-stage must delay completion, not lose
    // work: the job still finishes, later than the healthy run
    assert_eq!(failed.jobs.len(), 1);
    assert!(failed.jobs[0].completion > healthy.jobs[0].completion);
    // re-runs visible in the timeline: strictly more map bars than tasks
    let map_bars = |r: &simmr_types::SimulationReport| {
        r.timeline.iter().filter(|t| t.phase == TimelinePhase::Map).count()
    };
    assert_eq!(map_bars(&healthy), 6);
    assert!(map_bars(&failed) > 6, "expected re-run bars, got {}", map_bars(&failed));
    // no bar on a dead slot extends past the failure instant
    for bar in failed.timeline.iter().filter(|t| t.slot % 2 == 1) {
        assert!(bar.end <= SimTime::from_millis(150), "bar on dead slot after failure: {bar:?}");
    }
    // deterministic replay
    assert_eq!(failed, run(true));
}

/// Deterministic host-recovery scenario through the public crate API:
/// a seeded fault plan with the recovery model armed restores dead hosts
/// after an exponential repair delay. The run completes, replays
/// byte-identically, and cannot be slower than leaving the hosts dead.
#[test]
fn host_recovery_restores_capacity_end_to_end() {
    let mut trace = WorkloadTrace::new("host-recovery", "invariant-harness");
    for i in 0..4u64 {
        trace
            .push(JobSpec::new(uniform_template(8, 1, 200, 20, 30), SimTime::from_millis(i * 100)));
    }
    let base = EngineConfig::new(6, 2)
        .with_hosts(3)
        .with_faults(FaultSpec { seed: 7, count: 2, mean_interval_ms: 400 })
        .with_timeline()
        .with_invariants();
    let run = |recovery: Option<RecoverySpec>| {
        let config = match recovery {
            Some(r) => base.with_recovery(r),
            None => base,
        };
        SimulatorEngine::new(config, &trace, parse_policy("fifo").unwrap()).run()
    };
    let permanent = run(None);
    let rec = RecoverySpec { seed: 3, mean_ms: 500 };
    let recovered = run(Some(rec));
    assert_eq!(recovered.jobs.len(), 4);
    assert!(
        recovered.makespan <= permanent.makespan,
        "repaired hosts made the run slower: {} vs {}",
        recovered.makespan,
        permanent.makespan
    );
    // byte-identical replay, repair delays included
    assert_eq!(recovered, run(Some(rec)));
    // a different repair seed is a different (but still complete) schedule
    let reseeded = run(Some(RecoverySpec { seed: 99, mean_ms: 500 }));
    assert_eq!(reseeded.jobs.len(), 4);
}

/// Deterministic kill-and-requeue scenario cross-checked against the
/// snapshot oracle, with invariants and timeline recording on. On the
/// pre-fix engine this dies inside the checker: the killed attempt's
/// launch-time bar overlaps the slot's next occupant
/// (`timeline-slot-disjoint`), and `preempt_map` leaves the dirty flag
/// unset (`dirty-flag-coverage`).
#[cfg(debug_assertions)] // with_snapshot_oracle is debug/test-only
#[test]
fn preemption_matches_snapshot_oracle_under_invariants() {
    let mut trace = WorkloadTrace::new("preempt-oracle", "invariant-harness");
    trace.push(
        JobSpec::new(uniform_template(2, 0, 1000, 0, 0), SimTime::ZERO)
            .with_deadline(SimTime::from_millis(100_000)),
    );
    trace.push(
        JobSpec::new(uniform_template(1, 0, 100, 0, 0), SimTime::from_millis(200))
            .with_deadline(SimTime::from_millis(300)),
    );
    let config = EngineConfig::new(1, 1).with_timeline().with_invariants();
    let run = |oracle: bool| {
        let engine = SimulatorEngine::new(config, &trace, parse_policy("maxedf-p").unwrap());
        let engine = if oracle { engine.with_snapshot_oracle() } else { engine };
        engine.run()
    };
    let fast = run(false);
    let oracle = run(true);
    assert_eq!(fast, oracle);
    // the urgent job preempts at t=200 and meets its deadline
    assert_eq!(fast.jobs[1].completion, SimTime::from_millis(300));
    // 3 map tasks + 1 killed attempt = 4 bars, the killed one cut at t=200
    let mut bars: Vec<(u64, u64)> = fast
        .timeline
        .iter()
        .filter(|t| t.phase == TimelinePhase::Map)
        .map(|t| (t.start.as_millis(), t.end.as_millis()))
        .collect();
    bars.sort_unstable();
    assert_eq!(bars, vec![(0, 200), (200, 300), (300, 1300), (1300, 2300)]);
}
