//! The incremental scheduler view must be observationally identical to a
//! from-scratch snapshot rebuild: random traces replayed under every
//! policy produce reports that are equal — and serialize byte-for-byte —
//! whether the engine keeps its job queue by re-deriving each changed
//! entry in place (one `sync_entry` per mutation) or rebuilds the whole
//! job queue before every scheduling pass (the snapshot oracle).

// with_snapshot_oracle is compiled under cfg(any(test, debug_assertions)),
// which for this (external) test crate means debug builds only
#![cfg(debug_assertions)]

use proptest::prelude::*;
use simmr_core::{EngineConfig, SimulatorEngine};
use simmr_sched::parse_policy;
use simmr_types::{JobSpec, JobTemplate, SimTime, SimulationReport, WorkloadTrace};

/// Both preemptive EDF variants included: preemption exercises the
/// trickiest incremental updates (kill, requeue, relaunch within one
/// pass), and MinEDF layers its wanted-cap filter on top.
const POLICIES: [&str; 6] = ["fifo", "maxedf", "minedf", "fair", "maxedf-p", "minedf-p"];

type JobParams = (usize, usize, u64, u64, u64, u64, u64, u64);

fn build_trace(jobs: &[JobParams]) -> WorkloadTrace {
    let mut trace = WorkloadTrace::new("oracle", "property-test");
    for &(maps, reduces, map_ms, first_sh, typ_sh, red_ms, arrival, deadline_rel) in jobs {
        let template = JobTemplate::new(
            "j",
            vec![map_ms; maps],
            if reduces > 0 { vec![first_sh] } else { vec![] },
            if reduces > 0 { vec![typ_sh; reduces] } else { vec![] },
            vec![red_ms; reduces],
        )
        .expect("generated template is valid");
        let mut spec = JobSpec::new(template, SimTime::from_millis(arrival));
        if deadline_rel > 0 {
            spec = spec.with_deadline(SimTime::from_millis(arrival + deadline_rel));
        }
        trace.push(spec);
    }
    trace
}

fn run(
    trace: &WorkloadTrace,
    config: EngineConfig,
    policy: &str,
    oracle: bool,
) -> SimulationReport {
    let engine = SimulatorEngine::new(config, trace, parse_policy(policy).expect("policy exists"));
    let engine = if oracle { engine.with_snapshot_oracle() } else { engine };
    engine.run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random contended workloads (zero-duration tasks, simultaneous
    /// arrivals, deadlines present and absent) across all policies.
    #[test]
    fn incremental_view_equals_snapshot_oracle(
        jobs in proptest::collection::vec(
            (1usize..7, 0usize..4, 0u64..250, 1u64..40, 1u64..40, 0u64..60,
             0u64..1500, 0u64..3000),
            1..16,
        ),
        map_slots in 1usize..5,
        reduce_slots in 1usize..4,
        slowstart_pick in 0usize..3,
    ) {
        let trace = build_trace(&jobs);
        let slowstart = [0.0, 0.05, 1.0][slowstart_pick];
        for policy in POLICIES {
            let config = EngineConfig::new(map_slots, reduce_slots)
                .with_slowstart(slowstart)
                .with_timeline()
                .with_invariants();
            let fast = run(&trace, config, policy, false);
            let oracle = run(&trace, config, policy, true);
            prop_assert_eq!(&fast, &oracle, "policy {} diverged from the oracle", policy);
            let fast_json = serde_json::to_string(&fast).expect("report serializes");
            let oracle_json = serde_json::to_string(&oracle).expect("report serializes");
            prop_assert_eq!(
                fast_json, oracle_json,
                "policy {} reports serialize differently", policy
            );
        }
    }
}
