//! Cross-crate scheduler behaviour: the §V case-study claims as tests,
//! plus property-based engine invariants.

use proptest::prelude::*;
use simmr_core::codec::Crc64;
use simmr_core::{EngineConfig, FaultSpec, RecoverySpec, SimulatorEngine};
use simmr_sched::parse_policy;
use simmr_serve::{attach_deadlines, attach_deadlines_with};
use simmr_stats::{Dist, SeededRng};
use simmr_trace::{FacebookWorkload, MultiTenantWorkload};
use simmr_types::{JobSpec, JobTemplate, SimTime, WorkloadTrace};

fn run(trace: &WorkloadTrace, policy: &str, slots: usize) -> simmr_types::SimulationReport {
    SimulatorEngine::new(
        EngineConfig::new(slots, slots),
        trace,
        parse_policy(policy).expect("known policy"),
    )
    .run()
}

/// The §V-C headline: MinEDF beats (or ties) MaxEDF on the relative
/// deadline-exceeded metric, on average across seeds.
#[test]
fn minedf_beats_maxedf_on_average() {
    let mut min_total = 0.0;
    let mut max_total = 0.0;
    for seed in 0..8u64 {
        let mut trace = FacebookWorkload { mean_interarrival_ms: 30_000.0 }.generate(60, seed);
        attach_deadlines(&mut trace, 2.0, 32, 32, seed ^ 0xD00D);
        min_total += run(&trace, "minedf", 32).total_relative_deadline_exceeded();
        max_total += run(&trace, "maxedf", 32).total_relative_deadline_exceeded();
    }
    assert!(
        min_total < max_total,
        "MinEDF ({min_total:.2}) should beat MaxEDF ({max_total:.2}) at df=2"
    );
}

/// With deadline factor 1 the policies coincide (§V-B, Figure 7a).
///
/// The claim holds for regular task durations (the paper's testbed apps):
/// with df=1 the bounds model concludes the maximum allocation is needed,
/// so MinEDF degenerates to MaxEDF. (Heavy-tailed Facebook-style jobs are
/// a different regime — the paper's own Figure 8 starts at df=1.1.)
#[test]
fn df_one_policies_coincide() {
    let mut rng = SeededRng::new(0xDF1);
    let mut trace = WorkloadTrace::new("df1", "test");
    let mut clock = SimTime::ZERO;
    for i in 0..20 {
        let maps = 4 + (i % 5) * 3;
        let reduces = 2 + i % 3;
        let template = JobTemplate::new(
            format!("regular-{i}"),
            vec![2_000; maps],
            vec![500],
            vec![1_000; reduces],
            vec![700; reduces],
        )
        .unwrap();
        trace.push(JobSpec::new(template, clock));
        clock += rng.uniform_u64(1_000, 20_000);
    }
    attach_deadlines_with(&mut trace, 1.0, 16, 16, &mut rng);
    let min = run(&trace, "minedf", 16);
    let max = run(&trace, "maxedf", 16);
    let completions =
        |r: &simmr_types::SimulationReport| r.jobs.iter().map(|j| j.completion).collect::<Vec<_>>();
    assert_eq!(
        completions(&min),
        completions(&max),
        "df=1 should make MinEDF degenerate to MaxEDF"
    );
}

/// Relaxing deadlines never hurts any deadline policy.
#[test]
fn relaxed_deadlines_monotone() {
    for policy in ["maxedf", "minedf"] {
        let base = FacebookWorkload { mean_interarrival_ms: 20_000.0 }.generate(40, 9);
        let mut at: Vec<f64> = Vec::new();
        for df in [1.0, 1.5, 3.0] {
            let mut trace = base.clone();
            attach_deadlines(&mut trace, df, 16, 16, 42);
            at.push(run(&trace, policy, 16).total_relative_deadline_exceeded());
        }
        assert!(
            at[0] >= at[1] && at[1] >= at[2],
            "{policy}: metric should fall as deadlines relax: {at:?}"
        );
    }
}

/// Sparser arrivals reduce deadline pressure (the Figure 7 x-axis trend).
/// Heavy-tailed job mixes are noisy at intermediate rates, so this checks
/// the two endpoints of the sweep over several seeds.
#[test]
fn sparser_arrivals_reduce_pressure() {
    let mut values = Vec::new();
    for mean_ia in [2_000.0, 50_000_000.0] {
        let mut total = 0.0;
        for seed in 0..6u64 {
            let mut trace = FacebookWorkload { mean_interarrival_ms: mean_ia }.generate(40, seed);
            attach_deadlines(&mut trace, 1.5, 16, 16, seed);
            total += run(&trace, "maxedf", 16).total_relative_deadline_exceeded();
        }
        values.push(total);
    }
    assert!(
        values[0] > values[1],
        "deadline metric should decay with sparser arrivals: {values:?}"
    );
}

/// FIFO ignores deadlines entirely: permuting deadlines cannot change
/// completions.
#[test]
fn fifo_is_deadline_blind() {
    let mut trace = FacebookWorkload { mean_interarrival_ms: 10_000.0 }.generate(30, 3);
    let a = run(&trace, "fifo", 8);
    attach_deadlines(&mut trace, 2.0, 8, 8, 1);
    let b = run(&trace, "fifo", 8);
    let completions =
        |r: &simmr_types::SimulationReport| r.jobs.iter().map(|j| j.completion).collect::<Vec<_>>();
    assert_eq!(completions(&a), completions(&b));
}

// ---- hierarchical pool-tree policy ----------------------------------------

/// A map-only job with one tenant-prefixed name.
fn tenant_job(name: &str, maps: usize, map_ms: u64, arrival_ms: u64) -> JobSpec {
    JobSpec::new(
        JobTemplate::new(name, vec![map_ms; maps], vec![], vec![], vec![]).unwrap(),
        SimTime::from_millis(arrival_ms),
    )
}

fn run_invariant_checked(
    trace: &WorkloadTrace,
    policy: &str,
    slots: usize,
) -> simmr_types::SimulationReport {
    SimulatorEngine::new(
        EngineConfig::new(slots, 2).with_invariants(),
        trace,
        parse_policy(policy).expect("known policy"),
    )
    .run()
}

/// The ISSUE acceptance scenario: three tenants under
/// `hier:prod[w=3,min=4,timeout=30]{etl,serving},adhoc[w=1]`. An adhoc job
/// hogs all 8 map slots; prod jobs arrive and sit below prod's 4-slot
/// minimum share; 30 s later the min-share preemption pass kills the
/// youngest adhoc tasks — exactly enough to restore the guarantee — and
/// the whole run replays byte-identically with the extended invariant
/// checker (per-pool share accounting) armed.
#[test]
fn hier_three_tenant_preemption_restores_min_share() {
    let mut trace = WorkloadTrace::new("three-tenant", "hier-acceptance");
    trace.push(tenant_job("adhoc-hog", 8, 120_000, 0));
    trace.push(tenant_job("prod-etl-urgent", 4, 10_000, 5_000));
    trace.push(tenant_job("prod-serving-urgent", 2, 10_000, 6_000));
    let spec = "hier:prod[w=3,min=4,timeout=30]{etl,serving},adhoc[w=1]";

    let report = run_invariant_checked(&trace, spec, 8);
    // prod starves from t=5s; the wakeup fires at t=35s and four adhoc
    // tasks die: etl gets 2 slots (waves at 45s and 55s), serving 2 (45s)
    assert_eq!(report.jobs[1].completion, SimTime::from_millis(55_000));
    assert_eq!(report.jobs[2].completion, SimTime::from_millis(45_000));
    // adhoc's 4 surviving tasks still finish at 120s; the 4 killed ones
    // relaunch only after prod drains (2 at 45s, 2 at 55s)
    assert_eq!(report.jobs[0].completion, SimTime::from_millis(175_000));

    // byte-identical same-seed rerun, preemption decisions included
    assert_eq!(report, run_invariant_checked(&trace, spec, 8));

    // without the timeout the same tree never preempts: prod waits for
    // the hog to finish at 120s
    let no_timeout =
        run_invariant_checked(&trace, "hier:prod[w=3,min=4]{etl,serving},adhoc[w=1]", 8);
    assert_eq!(no_timeout.jobs[1].completion, SimTime::from_millis(130_000));
    assert_eq!(no_timeout.jobs[0].completion, SimTime::from_millis(120_000));
}

/// A flat `hier:` tree (leaves only, no mins/timeouts) is the capacity
/// scheduler: same weights, same prefix routing, byte-identical reports —
/// the snapshot oracle for the `capacity:` spec stays unchanged.
#[test]
fn flat_hier_tree_matches_capacity_byte_identically() {
    let trace = MultiTenantWorkload::three_tenant(8_000.0).generate(40, 17);
    for (hier, capacity) in [
        // the hier leaves are listed in name order because `capacity:`
        // params normalize to name order at parse time (PolicySpec
        // canonicalization) — equal orders keep tie-breaking identical
        (
            "hier:adhoc[w=3],prod-etl[w=2],prod-serving",
            "capacity:prod-etl=2,prod-serving=1,adhoc=3",
        ),
        // single leaf degenerates to one queue holding everything
        ("hier:only", "capacity:only=1"),
    ] {
        let h = run_invariant_checked(&trace, hier, 6);
        let c = run_invariant_checked(&trace, capacity, 6);
        assert_eq!(h, c, "{hier} diverged from {capacity}");
    }
}

/// Golden digests pinning `capacity:` schedules: CRC-64 of each serialized
/// report (timeline included) for nine queue layouts × three cluster
/// shapes over one seeded three-tenant trace, with the invariant checker
/// armed. The layouts cover the default queues, nested prefixes routed
/// by longest match, three nesting levels, an empty-name catch-all and a
/// tenant that matches no queue (last-queue fallback). Any change to
/// capacity routing, tie-breaking or slot assignment moves a digest.
#[test]
fn capacity_schedules_match_golden_digests() {
    const SPECS: [&str; 9] = [
        "capacity",
        "capacity:adhoc=1,prod=3",
        "capacity:prod=1,prod-etl=4,adhoc=2",
        "capacity:prod=1,prod-etl=2,prod-etl-fb-1=5,adhoc=1",
        "capacity:=1,prod-serving=3",
        "capacity:=2,prod=1,prod-etl=1",
        "capacity:prod-etl=2,zzz=1",
        "capacity:only=1",
        "capacity:adhoc=0.5,prod-etl=2.5,prod-serving=1.5",
    ];
    const SHAPES: [(usize, usize); 3] = [(3, 2), (8, 4), (21, 9)];
    const GOLDEN: [[u64; 3]; 9] = [
        [0xc9c6_085e_01a9_02e2, 0xd459_9290_76e9_64c9, 0x0ddb_62e6_f825_c9f9],
        [0xc9c6_085e_01a9_02e2, 0x35ff_8d7c_9dc6_c155, 0xee3d_d725_f07f_f772],
        [0xb02e_b98b_6af2_0cbb, 0x6db8_3e66_7601_6a7f, 0xebd2_11bf_a09d_16f3],
        [0x9147_4abe_bca4_987c, 0x9c9b_4ead_9035_3938, 0x52f8_a5fc_4fb8_4f7d],
        [0x12f5_2ff9_125b_5991, 0x2723_9623_5c89_acb4, 0x5e38_8488_85d7_3a97],
        [0xd1ef_f345_8420_de69, 0x4f17_69ba_6c41_39d5, 0x9141_dcba_3115_22bb],
        [0xb404_f6eb_4c7b_7049, 0x283d_cd57_ff35_a8f9, 0x1abf_8736_8876_d552],
        [0x24c0_afdf_5d6f_4069, 0x1898_6d5c_ae83_5b13, 0x77ba_28db_dc4e_089e],
        [0x72b7_b1ee_9d11_aa4e, 0x7a74_6aee_8b6c_2e86, 0x8cc6_3d5f_d56d_4409],
    ];
    let trace = MultiTenantWorkload::three_tenant(2_500.0).generate(40, 25);
    let mut got = [[0u64; 3]; 9];
    for (i, spec) in SPECS.iter().enumerate() {
        for (j, &(maps, reduces)) in SHAPES.iter().enumerate() {
            let report = SimulatorEngine::new(
                EngineConfig::new(maps, reduces).with_invariants().with_timeline(),
                &trace,
                parse_policy(spec).expect("known policy"),
            )
            .run();
            let json = serde_json::to_string(&report).expect("report serializes");
            got[i][j] = Crc64::checksum(json.as_bytes());
        }
    }
    assert_eq!(got, GOLDEN, "capacity schedules moved: {got:#018x?}");
}

/// Golden pin for the four EDF variants: each replays one seeded,
/// deadline-stamped Facebook trace on a plain 16×16 cluster and on a
/// 12×8, 4-host cluster with host failures, speculation and per-slot
/// slowdowns, with the invariant checker armed. Asserts the CRC-64 of
/// each serialized report (timeline included) and the checkpoint digest
/// at half that run's makespan: the CRC-64 the codec appends to the
/// encoding, which covers the policy's snapshot blob byte for byte. The
/// report constants were captured before MaxEDF and MinEDF became one
/// `EdfPolicy`; the checkpoint constants were re-captured with SIMMRCKP
/// version 4, when arrivals began to be pulled one at a time (which
/// renumbers queued events) and the streaming flag and last pulled
/// arrival left the encoding.
#[test]
fn edf_schedules_match_golden_digests() {
    const SPECS: [&str; 4] = ["maxedf", "minedf", "maxedf-p", "minedf-p"];
    const REPORTS: [[u64; 2]; 4] = [
        [0xb8d9_aa45_70c7_c2e9, 0x9339_a818_df3d_10dc],
        [0x3133_d415_9034_ba17, 0x95df_cd9c_e580_5429],
        [0xf184_6681_19e5_44f1, 0x86d2_9b19_2459_b2ea],
        [0xbb81_f0a2_ead5_12b5, 0xc80f_87fd_5937_e97f],
    ];
    const CHECKPOINTS: [[u64; 2]; 4] = [
        [0x4002_6b81_5ca2_f971, 0xc320_5173_f6da_5f63],
        [0x132b_c566_140c_5eb5, 0xe54c_ebef_aa5d_5306],
        [0x4efd_7e3b_0f14_0669, 0xc7a5_f569_1ac4_657f],
        [0xa780_93b7_1a92_2d2d, 0xa636_6933_5ab6_2c85],
    ];
    let mut trace = FacebookWorkload { mean_interarrival_ms: 6_000.0 }.generate(50, 14);
    attach_deadlines(&mut trace, 1.6, 16, 16, 0xEDF);
    let shapes = [
        EngineConfig::new(16, 16),
        EngineConfig::new(12, 8)
            .with_hosts(4)
            .with_faults(FaultSpec { seed: 21, count: 3, mean_interval_ms: 40_000 })
            .with_speculation(1.5)
            .with_slowdown(Dist::LogNormal { mu: -0.125, sigma: 0.5 }, 22),
    ];
    let (mut reports, mut checkpoints) = ([[0u64; 2]; 4], [[0u64; 2]; 4]);
    for (i, spec) in SPECS.iter().enumerate() {
        for (j, shape) in shapes.iter().enumerate() {
            let config = shape.with_invariants().with_timeline();
            let policy = || parse_policy(spec).expect("known policy");
            let report = SimulatorEngine::new(config, &trace, policy()).run();
            let json = serde_json::to_string(&report).expect("report serializes");
            reports[i][j] = Crc64::checksum(json.as_bytes());
            let mid = SimTime::from_millis(report.makespan.as_millis() / 2);
            let ckpt = SimulatorEngine::new(config, &trace, policy())
                .checkpoint_at(mid)
                .expect("materialized trace");
            let bytes = ckpt.encode();
            checkpoints[i][j] = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        }
    }
    assert_eq!(reports, REPORTS, "EDF schedules moved: {reports:#018x?}");
    assert_eq!(checkpoints, CHECKPOINTS, "EDF checkpoints moved: {checkpoints:#018x?}");
}

/// An arrival-sorted trace built to make same-instant ordering matter:
/// arrivals sit on a 1 s grid (several jobs often share one) and every
/// task duration is a multiple of 250 ms, so arrivals collide with each
/// other and with task departures. Names route to every `hier`/`capacity`
/// leaf; two jobs in three carry a deadline for the EDF policies.
fn grid_trace() -> WorkloadTrace {
    const NAMES: [&str; 4] = ["j-etl", "spare-adhoc", "prod-serving", "adhoc-query"];
    let mut rng = SeededRng::new(0xA221);
    let mut trace = WorkloadTrace::new("arrival-grid", "golden");
    let mut arrival = 0;
    for i in 0..48 {
        arrival += 1_000 * rng.uniform_u64(0, 2);
        let mut quarter_seconds = |n: usize, hi: u64| -> Vec<u64> {
            (0..n).map(|_| 250 * rng.uniform_u64(1, hi)).collect()
        };
        let maps = quarter_seconds(1 + i % 9, 12);
        let reduces = quarter_seconds(i % 4, 8);
        let (first, typical) = if reduces.is_empty() {
            (vec![], vec![])
        } else {
            (quarter_seconds(1, 4), quarter_seconds(reduces.len(), 4))
        };
        let template = JobTemplate::new(NAMES[i % NAMES.len()], maps, first, typical, reduces)
            .expect("grid template is valid");
        let mut spec = JobSpec::new(template, SimTime::from_millis(arrival));
        if i % 3 != 0 {
            spec =
                spec.with_deadline(SimTime::from_millis(arrival + 1_000 * rng.uniform_u64(4, 40)));
        }
        trace.push(spec);
    }
    trace
}

/// Golden pin for the engine's arrival path: all eight policies replay
/// [`grid_trace`] on a plain 16×16 cluster and on a 12×8, 4-host cluster
/// with host failures, recovery, speculation and per-slot slowdowns,
/// with the timeline on and the invariant checker armed. Asserts the
/// CRC-64 of each serialized report. The constants were captured while
/// `SimulatorEngine::new` still built the whole job table and pushed
/// every arrival up front; the engine now pulls one arrival of lookahead
/// at a time, and same-instant batching must keep the schedules equal.
#[test]
fn arrival_path_reports_match_golden_digests() {
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
    const GOLDEN: [[u64; 2]; 8] = [
        [0x4376_ba54_3aba_48c0, 0x836b_6cf6_28c7_fd1b],
        [0xb072_358c_7d00_5189, 0x2394_5c40_5932_8da9],
        [0x9c3a_e5bf_06b5_cb2f, 0xeb11_2c13_4126_de41],
        [0x94c1_f193_deea_45ca, 0xdbb8_1d62_2259_9eef],
        [0x12d4_4a68_f2c4_2dc6, 0x88c1_3cc7_f785_25cb],
        [0x7c38_de02_5dbb_8ff1, 0x45c7_5ba6_ff51_4996],
        [0x3a83_a435_db92_bbe3, 0xa965_f972_0cef_8f2d],
        [0xf59f_5a39_3240_7d89, 0x6b34_179d_0122_e541],
    ];
    let trace = grid_trace();
    let shapes = [
        EngineConfig::new(16, 16),
        EngineConfig::new(12, 8)
            .with_hosts(4)
            .with_faults(FaultSpec { seed: 31, count: 3, mean_interval_ms: 9_000 })
            .with_recovery(RecoverySpec { seed: 32, mean_ms: 6_000 })
            .with_speculation(1.5)
            .with_slowdown(Dist::LogNormal { mu: -0.125, sigma: 0.5 }, 33),
    ];
    let mut got = [[0u64; 2]; 8];
    for (i, spec) in POLICIES.iter().enumerate() {
        for (j, shape) in shapes.iter().enumerate() {
            let config = shape.with_invariants().with_timeline();
            let report =
                SimulatorEngine::new(config, &trace, parse_policy(spec).expect("known policy"))
                    .run();
            let json = serde_json::to_string(&report).expect("report serializes");
            got[i][j] = Crc64::checksum(json.as_bytes());
        }
    }
    assert_eq!(got, GOLDEN, "arrival-path schedules moved: {got:#018x?}");
}

/// Golden pin for the queue-order policies on a deep backlog: `fifo`
/// and `fair` replay a seeded 400-job Facebook trace at 2 s mean
/// inter-arrival — far more work than the cluster drains, so hundreds of
/// jobs wait at once — on a plain 16×16 cluster and on a 12×8, 4-host
/// cluster with host failures, recovery, speculation and per-slot
/// slowdowns. Asserts the CRC-64 of each serialized report (timeline
/// included) and the checkpoint digest at half that run's makespan. The
/// checker is not armed here: on this backlog it costs over half a
/// minute per debug run. The `check-invariants` CI step arms it, and
/// `queue_order_policies_match_naive_scan_reference` arms it on small
/// random workloads. The constants were captured while fifo scanned the
/// queue behind a cursor and fair scanned it whole.
#[test]
fn queue_order_schedules_match_golden_digests() {
    const POLICIES: [&str; 2] = ["fifo", "fair"];
    const REPORTS: [[u64; 2]; 2] = [
        [0xdc4f_44e0_b002_bd52, 0x2bab_f8df_c891_84dc],
        [0x453a_754b_e8e5_47a5, 0xbf82_7fee_047b_75ba],
    ];
    const CHECKPOINTS: [[u64; 2]; 2] = [
        [0x8502_bc36_5198_1228, 0x48a2_ebbc_9c4d_e5f5],
        [0x60fd_e383_9766_cb3b, 0xc178_8cc6_7561_659c],
    ];
    let trace = FacebookWorkload { mean_interarrival_ms: 2_000.0 }.generate(400, 17);
    let shapes = [
        EngineConfig::new(16, 16),
        EngineConfig::new(12, 8)
            .with_hosts(4)
            .with_faults(FaultSpec { seed: 41, count: 4, mean_interval_ms: 120_000 })
            .with_recovery(RecoverySpec { seed: 42, mean_ms: 60_000 })
            .with_speculation(1.5)
            .with_slowdown(Dist::LogNormal { mu: -0.125, sigma: 0.5 }, 43),
    ];
    let (mut reports, mut checkpoints) = ([[0u64; 2]; 2], [[0u64; 2]; 2]);
    for (i, spec) in POLICIES.iter().enumerate() {
        for (j, shape) in shapes.iter().enumerate() {
            let config = shape.with_timeline();
            let policy = || parse_policy(spec).expect("known policy");
            let report = SimulatorEngine::new(config, &trace, policy()).run();
            let json = serde_json::to_string(&report).expect("report serializes");
            reports[i][j] = Crc64::checksum(json.as_bytes());
            let mid = SimTime::from_millis(report.makespan.as_millis() / 2);
            let ckpt = SimulatorEngine::new(config, &trace, policy())
                .checkpoint_at(mid)
                .expect("materialized trace");
            let bytes = ckpt.encode();
            checkpoints[i][j] = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        }
    }
    assert_eq!(reports, REPORTS, "queue-order schedules moved: {reports:#018x?}");
    assert_eq!(checkpoints, CHECKPOINTS, "queue-order checkpoints moved: {checkpoints:#018x?}");
}

/// A min share larger than the whole cluster cannot over-kill: preemption
/// stops as soon as the starved pool has no pending work left, so the
/// number of kills is bounded by the pool's own demand.
#[test]
fn hier_min_share_beyond_cluster_capacity_is_bounded_by_demand() {
    let mut trace = WorkloadTrace::new("min-overcommit", "hier-edge");
    trace.push(tenant_job("other-hog", 4, 10_000, 0));
    trace.push(tenant_job("greedy-small", 2, 1_000, 200));
    let spec = "hier:greedy[w=1,min=100,timeout=0.1],other";
    let report = run_invariant_checked(&trace, spec, 4);
    // due at t=300: exactly 2 kills (greedy only has 2 tasks), both
    // relaunched immediately -> greedy completes at 1300
    assert_eq!(report.jobs[1].completion, SimTime::from_millis(1_300));
    // the 2 killed hog tasks restart at 1200/1300 after greedy drains
    assert_eq!(report.jobs[0].completion, SimTime::from_millis(11_300));
    assert_eq!(report, run_invariant_checked(&trace, spec, 4));
}

/// A preemption timeout of zero fires in the very scheduling pass that
/// sees the deficit — the starved pool claims its min share instantly.
#[test]
fn hier_zero_timeout_preempts_in_the_arrival_pass() {
    let mut trace = WorkloadTrace::new("timeout-zero", "hier-edge");
    trace.push(tenant_job("bg-hog", 4, 50_000, 0));
    trace.push(tenant_job("fg-urgent", 2, 1_000, 500));
    let report = run_invariant_checked(&trace, "hier:fg[w=1,min=2,timeout=0],bg", 4);
    assert_eq!(report.jobs[1].completion, SimTime::from_millis(1_500));
}

/// A pool that never receives a job is inert: it draws no share, its
/// min-share clock never starts (no pending work), and the schedule is
/// identical to the tree without it.
#[test]
fn hier_empty_pool_is_inert() {
    let mut trace = WorkloadTrace::new("empty-pool", "hier-edge");
    for i in 0..6u64 {
        trace.push(tenant_job(&format!("busy-{i}"), 3, 2_000, i * 700));
    }
    let with_idle = run_invariant_checked(&trace, "hier:idle[w=5,min=2,timeout=0.1],busy", 3);
    let without = run_invariant_checked(&trace, "hier:busy", 3);
    assert_eq!(with_idle, without);
}

/// Restores into a fresh `policy` its own empty snapshot with the trailing
/// `u32` pair count rewritten to `u32::MAX`: a blob that declares ~4G
/// entries in zero bytes must be rejected as an error, not sized into an
/// allocation.
fn restore_crafted_pair_count(spec: &str) -> Result<(), String> {
    let mut blob = parse_policy(spec).unwrap().snapshot();
    let count_at = blob.len() - 4;
    blob[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
    parse_policy(spec).unwrap().restore(&blob)
}

#[test]
fn crafted_capacity_blob_count_is_an_error() {
    assert!(restore_crafted_pair_count("capacity").is_err());
}

#[test]
fn crafted_minedf_blob_count_is_an_error() {
    // 6 bytes: the two variant flags, then the declared allocation count
    assert!(restore_crafted_pair_count("minedf").is_err());
}

// EDF blobs open with two flag bytes: `preemptive`, then a retired flag
// that is always 0. A blob restores only into the variant that wrote it.

#[test]
fn edf_blob_variant_mismatch_is_an_error() {
    let blob = parse_policy("maxedf-p").unwrap().snapshot();
    assert!(parse_policy("maxedf").unwrap().restore(&blob).is_err());
}

#[test]
fn edf_blob_retired_flag_is_an_error() {
    for spec in ["maxedf", "minedf"] {
        let mut blob = parse_policy(spec).unwrap().snapshot();
        assert_eq!(blob[1], 0, "{spec} writes the retired flag as 0");
        blob[1] = 1;
        assert!(parse_policy(spec).unwrap().restore(&blob).is_err(), "{spec}");
    }
}

#[test]
fn edf_blob_untouched_restores() {
    for spec in ["maxedf", "minedf", "maxedf-p", "minedf-p"] {
        let blob = parse_policy(spec).unwrap().snapshot();
        assert_eq!(parse_policy(spec).unwrap().restore(&blob), Ok(()), "{spec}");
    }
}

#[test]
fn crafted_hier_blob_count_is_an_error() {
    assert!(restore_crafted_pair_count("hier").is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same-seed determinism / rerun-stability sweep for the hierarchical
    /// policy over randomized multi-tenant workloads and cluster widths,
    /// with the extended invariant checker armed on every run.
    #[test]
    fn hier_replay_deterministic_across_reruns(
        seed in 0u64..30,
        slots in 2usize..10,
        jobs in 8usize..30,
    ) {
        let trace = MultiTenantWorkload::three_tenant(3_000.0).generate(jobs, seed);
        let spec = "hier:prod[w=3,min=2,timeout=1]{etl,serving},adhoc[w=1]";
        let run = || run_invariant_checked(&trace, spec, slots);
        let report = run();
        prop_assert_eq!(report.jobs.len(), jobs);
        for job in &report.jobs {
            prop_assert!(job.completion >= job.arrival);
        }
        prop_assert_eq!(report, run());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engine invariants hold for arbitrary small workloads under every
    /// policy: all jobs complete after arrival, the makespan covers the
    /// last completion, and a job is never faster than its critical path.
    #[test]
    fn engine_invariants(
        jobs in proptest::collection::vec(
            (1usize..12, 0usize..6, 10u64..2_000, 0u64..5_000),
            1..12,
        ),
        slots in 1usize..8,
        policy_idx in 0usize..5,
    ) {
        let policy = [
            "fifo",
            "maxedf",
            "minedf",
            "fair",
            "hier:x[w=3],p[w=1,min=1,timeout=0.2]",
        ][policy_idx];
        let mut trace = WorkloadTrace::new("prop", "test");
        for (maps, reduces, dur, arrival) in jobs {
            let template = JobTemplate::new(
                "p",
                vec![dur; maps],
                if reduces > 0 { vec![dur / 2] } else { vec![] },
                if reduces > 0 { vec![dur; reduces] } else { vec![] },
                vec![dur / 3; reduces],
            ).unwrap();
            let mut spec = JobSpec::new(template, SimTime::from_millis(arrival));
            if arrival % 2 == 0 {
                spec = spec.with_deadline(SimTime::from_millis(arrival + dur * 20));
            }
            trace.push(spec);
        }
        let report = run(&trace, policy, slots);
        prop_assert_eq!(report.jobs.len(), trace.len());
        for (result, spec) in report.jobs.iter().zip(&trace.jobs) {
            prop_assert!(result.completion >= result.arrival);
            // critical path: longest map + (if reduces) longest shuffle+reduce
            let t = &spec.template;
            let mut critical = *t.map_durations.iter().max().unwrap();
            if t.num_reduces > 0 {
                critical += t.reduce_durations.iter().max().copied().unwrap_or(0);
            }
            prop_assert!(
                result.duration() >= critical.min(result.duration()),
                "job faster than critical path"
            );
        }
        let max_completion = report.jobs.iter().map(|j| j.completion).max().unwrap();
        prop_assert_eq!(report.makespan, max_completion);
    }

    /// More slots never increase the FIFO makespan.
    #[test]
    fn makespan_monotone_in_slots(
        seed in 0u64..50,
        slots in 2usize..16,
    ) {
        let trace = FacebookWorkload { mean_interarrival_ms: 5_000.0 }.generate(15, seed);
        let small = run(&trace, "fifo", slots);
        let big = run(&trace, "fifo", slots * 2);
        prop_assert!(
            big.makespan <= small.makespan,
            "doubling slots increased makespan: {} -> {}",
            small.makespan, big.makespan
        );
    }
}
