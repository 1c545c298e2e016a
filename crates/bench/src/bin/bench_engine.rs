//! Engine throughput check: the §I claim that *"SimMR can process over one
//! million events per second"* — measured at 100-, 1 000- and 10 000-job
//! scale on the synthetic Facebook workload, under FIFO, MaxEDF, MinEDF,
//! fair share and the hierarchical pool tree (`hier`, the heaviest
//! scheduler: every slot assignment walks the tree and the min-share
//! clocks). This binary is the one measurement of that claim: the `fifo`
//! 1k-job row sets `claim_1m_events_per_sec_fifo_1k` in the report.
//!
//! A streaming section runs first: 100k- and 1M-job pooled binary traces
//! (`SIMMR_BENCH_STREAM_JOBS` overrides, empty disables) are generated
//! straight to disk and replayed through `SimulatorEngine::from_source`,
//! recording throughput *and* peak RSS per row — the evidence that the
//! streaming path's memory is O(backlog), not O(trace).
//!
//! For each trace size the binary runs the simulation repeatedly for at
//! least `SIMMR_BENCH_SECS` seconds (default 2) per policy, reports the
//! median events/second, and writes the machine-readable summary to
//! `BENCH_engine.json` at the workspace root. The interesting comparison
//! is *across sizes*: with the incremental scheduler view the per-event
//! cost must stay flat as the number of jobs grows.
//!
//! With `SIMMR_BENCH_ASSERT=1` the binary turns into a regression gate
//! (used by CI to verify the invariant checker costs nothing when
//! disabled): it exits nonzero unless the paper's claim and the scaling
//! bound hold *and* FIFO/`hier`/`minedf` 1k-job and `maxedf` 10k-job
//! throughput, each taken as a ratio to the `queue` row's rate measured
//! in the same run, stay within a noise band of the same ratio in the
//! committed `BENCH_engine.json` (default ≥ 50% of it, for noisy shared
//! runners; tune with `SIMMR_BENCH_NOISE_FRAC`). Both sides of a ratio
//! scale with the host's speed, so the gate holds on a slower or faster
//! host than the one that wrote the baseline. The `hier` floor keeps
//! the incremental share view's ~2-orders-of-magnitude speedup from
//! silently regressing to the full-queue re-aggregation cost; the EDF
//! floors do the same for the deadline views (the old full-scan
//! `maxedf` ran 10k jobs ~85x slower). A ratio gate keeps
//! `fair` at 10k jobs at no less than a third of `fifo`'s rate: both
//! pick from ordered views, and the old full-queue scan put fair ~45x
//! behind. The baseline is read before the file is overwritten.
//!
//! Two more sections cover load the size sweep does not. A deep-backlog
//! row per policy (`<policy>-deep`: 4 000 jobs arriving every 2 s on
//! average, so the queue holds hundreds of jobs) keeps every ordered view
//! under a deep queue. A perturbed row for `fifo` and `hier`
//! (`<policy>-perturbed`, 1 000 jobs with host failures and recovery,
//! speculation and slot slowdown) drives the running-attempt index:
//! kills, speculative duplicates and their losers, and stale departures.
//! These rows are measured and recorded but not gated.
//!
//! A `queue` row times the event queue alone: a fixed, seeded op stream
//! drawn from a recorded 64x64 FIFO replay (128 events pending, each pop
//! answered by one push, its distance ahead drawn from the replay's
//! measured distribution, with the engine's same-instant test after every
//! pop). Its `events` are pops. It is not gated itself: it is the
//! yardstick the policy rows' noise gates divide by.
//!
//! A fork-sweep section measures the time-travel checkpoint claim: ten
//! what-if variants diverging at 90% of the makespan, replayed from
//! scratch (`fork-cold`) vs warm-started from one shared prefix
//! checkpoint (`fork-warm`, capture included). Both loops are serial so
//! the speedup is machine-independent; under `SIMMR_BENCH_ASSERT=1` the
//! warm sweep must run at least 2x faster than the cold one, and every
//! warm report is asserted equal to its cold counterpart first.
//!
//! Three sections time what the paper's experiments run around the
//! engine. The testbed heartbeat ablation (`testbed-hb300`, `-hb600`,
//! `-hb1200`) runs one 64x16-task WordCount job on the 8-node testbed
//! at that heartbeat interval; its `events` are the testbed's events.
//! `profile-parse` is the MRProfiler parse of a six-job testbed history;
//! its `events` are history lines. `kl` is the Table I symmetric KL
//! divergence of two 100-job Facebook map-duration samples; its `events`
//! are samples. These rows are recorded, not gated.

use simmr_apps::{AppKind, JobModel};
use simmr_bench::csvout::workspace_root;
use simmr_cluster::{ClusterConfig, ClusterPolicy, ClusterSim};
use simmr_core::{
    Divergence, EngineConfig, EventKind, EventQueue, FaultSpec, ForkSpec, RecoverySpec,
    SimulatorEngine,
};
use simmr_sched::parse_policy;
use simmr_stats::kl::symmetric_kl_ms;
use simmr_stats::{Dist, KlOptions, SeededRng};
use simmr_trace::{profile_history, BinTraceSource, FacebookWorkload, SyntheticWorkload};
use simmr_types::{JobId, SimTime, WorkloadTrace};
use std::path::{Path, PathBuf};
use std::time::Instant;

const SIZES: [usize; 3] = [100, 1_000, 10_000];
/// (JSON label, parse spec, largest size measured). The regression gates
/// read the `fifo`, `fair`, `hier`, `maxedf` and `minedf` rows. Every
/// policy picks from ordered job views, which keeps its per-event cost
/// flat in the backlog depth, so all run the full 10k point.
const POLICIES: [(&str, &str, usize); 5] = [
    ("fifo", "fifo", 10_000),
    ("maxedf", "maxedf", 10_000),
    ("minedf", "minedf", 10_000),
    ("fair", "fair", 10_000),
    ("hier", "hier:prod[w=3,min=4]{etl,serving},adhoc[w=1]", 10_000),
];

/// The deep-backlog section: job count and mean inter-arrival (ms).
const DEEP_JOBS: usize = 4_000;
const DEEP_IA_MS: f64 = 2_000.0;
/// (JSON label, parse spec) of the deep-backlog rows: every policy of
/// [`POLICIES`].
const DEEP: [(&str, &str); 5] = [
    ("fifo-deep", "fifo"),
    ("maxedf-deep", "maxedf"),
    ("minedf-deep", "minedf"),
    ("fair-deep", "fair"),
    ("hier-deep", "hier:prod[w=3,min=4]{etl,serving},adhoc[w=1]"),
];

/// The perturbed section's job count and (JSON label, parse spec) rows.
const PERTURBED_JOBS: usize = 1_000;
const PERTURBED: [(&str, &str); 2] = [
    ("fifo-perturbed", "fifo"),
    ("hier-perturbed", "hier:prod[w=3,min=4]{etl,serving},adhoc[w=1]"),
];

/// The queue row: events in flight (one per slot of the 64x64 cluster;
/// the recorded replay below holds 128 at the median pop, 118-122 on
/// average) and pops per run.
const QUEUE_PENDING: usize = 128;
const QUEUE_POPS: usize = 200_000;

/// How far ahead of the popped instant the recorded replay pushed: entry
/// `b` counts the pushes whose distance in ms has bit length `b` (so `0`
/// is a push at the popped instant, 1.4%). Recorded from the 101 863
/// pushes after the first pop of a 700-job stratified Facebook-mix FIFO
/// replay on 64x64 (the end-to-end benchmark's `fb-bin` trace at seed
/// 190); seed 11 and this binary's 1k-job trace give the same shares to
/// within 0.3 points per entry. 92% land 2^10 to 2^20 ms ahead, with the
/// mode at 2^14 to 2^15.
const QUEUE_AHEAD_BITS: [f64; 29] = [
    1400.0, 0.0, 0.0, 0.0, 0.0, 5.0, 17.0, 77.0, 292.0, 818.0, 2039.0, 4112.0, 7352.0, 11137.0,
    14127.0, 15090.0, 14001.0, 11375.0, 8368.0, 5347.0, 3236.0, 1681.0, 828.0, 371.0, 129.0, 35.0,
    21.0, 3.0, 2.0,
];

/// The queue row's op stream: how far ahead of the popped instant each
/// pop's answering push lands, drawn from [`QUEUE_AHEAD_BITS`] (uniform
/// within a bit length).
fn queue_ops() -> Vec<u64> {
    let mut rng = SeededRng::new(0xE0);
    (0..QUEUE_PENDING + QUEUE_POPS)
        .map(|_| match rng.weighted_index(&QUEUE_AHEAD_BITS) {
            0 => 0,
            b => rng.uniform_u64(1 << (b - 1), (1 << b) - 1),
        })
        .collect()
}

/// One pass of [`queue_ops`] through an [`EventQueue`]; returns the pops.
fn queue_run(ahead: &[u64]) -> u64 {
    let (seed, ops) = ahead.split_at(QUEUE_PENDING);
    let mut q = EventQueue::new();
    for &d in seed {
        q.push(SimTime::from_millis(d), EventKind::MapTaskDeparture, JobId(0), 0);
    }
    let mut same_instant = 0u64;
    for &d in ops {
        let e = q.pop().expect("a push answers every pop");
        // the engine's same-instant batch test
        same_instant += (q.next_time() == Some(e.time)) as u64;
        q.push(e.time + d, EventKind::MapTaskDeparture, e.job, e.task_index);
    }
    // keep the same-instant tests from being optimized away
    std::hint::black_box(same_instant);
    ops.len() as u64
}

/// The measured cluster: 64 map and 64 reduce slots.
fn base_config() -> EngineConfig {
    EngineConfig::new(64, 64)
}

/// The perturbed rows' cluster: 16 hosts, 6 host failures (one every
/// ~20 min) each recovered after ~10 min, speculation at 1.5x the
/// median map, and log-normal slot slowdowns (sigma 0.4, mean 1).
fn perturbed_config() -> EngineConfig {
    let sigma: f64 = 0.4;
    base_config()
        .with_hosts(16)
        .with_faults(FaultSpec { seed: 0xBE, count: 6, mean_interval_ms: 1_200_000 })
        .with_recovery(RecoverySpec { seed: 0xBE, mean_ms: 600_000 })
        .with_speculation(1.5)
        .with_slowdown(Dist::LogNormal { mu: -sigma * sigma / 2.0, sigma }, 0xBE)
}

fn min_secs() -> f64 {
    std::env::var("SIMMR_BENCH_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(2.0)
}

fn assert_mode() -> bool {
    std::env::var("SIMMR_BENCH_ASSERT").map(|v| v == "1").unwrap_or(false)
}

fn noise_frac() -> f64 {
    std::env::var("SIMMR_BENCH_NOISE_FRAC").ok().and_then(|v| v.parse().ok()).unwrap_or(0.5)
}

/// `policy` events/sec at `jobs` scale from a previously written
/// `BENCH_engine.json`, if one exists and parses.
fn baseline_rate(path: &std::path::Path, policy: &str, jobs: u64) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc: serde_json::Value = serde_json::from_str(&text).ok()?;
    let serde_json::Value::Array(rows) = doc.get("results")? else {
        return None;
    };
    rows.iter()
        .find(|r| {
            r.get("jobs") == Some(&serde_json::Value::U64(jobs))
                && r.get("policy") == Some(&serde_json::Value::Str(policy.to_owned()))
        })
        .and_then(|r| match r.get("events_per_sec") {
            Some(serde_json::Value::F64(v)) => Some(*v),
            Some(serde_json::Value::U64(v)) => Some(*v as f64),
            _ => None,
        })
}

fn trace_of(jobs: usize) -> WorkloadTrace {
    FacebookWorkload { mean_interarrival_ms: 10_000.0 }.generate(jobs, 0xBE)
}

fn deep_trace() -> WorkloadTrace {
    FacebookWorkload { mean_interarrival_ms: DEEP_IA_MS }.generate(DEEP_JOBS, 0xBE)
}

/// Job counts for the streaming (binary-trace) section; override with a
/// comma list in `SIMMR_BENCH_STREAM_JOBS`, disable with an empty value.
fn stream_sizes() -> Vec<usize> {
    match std::env::var("SIMMR_BENCH_STREAM_JOBS") {
        Err(_) => vec![100_000, 1_000_000],
        Ok(v) => v
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .filter_map(|s| s.parse().ok())
            .collect(),
    }
}

/// The streaming section's workload: the small-job head of the Facebook
/// mix (1-map, 2-map and 10x3 jobs — already >2/3 of the job *count* in
/// the full mix) at a mean inter-arrival that keeps the cluster around
/// half-utilized, so the backlog — and therefore the streaming engine's
/// resident memory — stays bounded no matter how long the trace is. The
/// full mix's 2 400-map tail would make a million-job replay about task
/// volume instead of job-stream volume.
fn stream_workload() -> SyntheticWorkload {
    let mut w = FacebookWorkload { mean_interarrival_ms: 20_000.0 }.workload();
    w.classes.truncate(3);
    w
}

/// Peak resident set size of this process (Linux `VmHWM`), in KiB.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// One streaming replay of a binary trace file: jobs are pulled from the
/// reader one arrival ahead, per-job results are not collected, so memory
/// is O(backlog), not O(trace).
fn one_stream_run(path: &Path) -> u64 {
    let source = BinTraceSource::open(path).expect("stream trace opens");
    SimulatorEngine::from_source(
        EngineConfig::new(64, 64).without_job_results(),
        Box::new(source),
        parse_policy("fifo").expect("policy exists"),
    )
    .try_run()
    .expect("stream replay succeeds")
    .events_processed
}

/// Streams `jobs` pooled jobs into a binary trace file under the target
/// directory and returns its path. Generation is O(pool) memory.
fn write_stream_trace(jobs: usize) -> PathBuf {
    let dir = workspace_root().join("target");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("bench_stream_{jobs}.trace.bin"));
    let start = Instant::now();
    let file = std::fs::File::create(&path).expect("stream trace file creates");
    stream_workload()
        .write_bin(jobs, 8, 0xBE, None, std::io::BufWriter::new(file))
        .expect("stream trace writes")
        .into_inner()
        .expect("stream trace flushes");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "[bench_engine] generated {jobs}-job binary trace ({:.1} MiB, {:.2} s, {:.1} B/job)",
        bytes as f64 / (1 << 20) as f64,
        start.elapsed().as_secs_f64(),
        bytes as f64 / jobs as f64
    );
    path
}

/// Fork-sweep scale: enough jobs that the 90% prefix dominates a full
/// replay, small enough to keep the gate fast.
const FORK_JOBS: usize = 1_000;
const FORK_VARIANTS: usize = 10;

/// The `i`-th what-if variant of the fork sweep: a capacity-growth
/// divergence (the cheapest kind to apply, so the measurement isolates
/// prefix replay vs resume cost rather than divergence cost).
fn fork_of(at: SimTime, i: usize) -> ForkSpec {
    ForkSpec::new(at, vec![Divergence::AddSlots { map_slots: i + 1, reduce_slots: i % 3 + 1 }])
}

/// Measures the fork sweep both ways — every variant replayed from
/// scratch vs all variants warm-started from one shared checkpoint
/// (capture included in the warm time) — and returns the two rows plus
/// the warm-start speedup. Asserts warm == cold byte-for-byte first.
fn measure_fork_sweep(min_secs: f64) -> (Measurement, Measurement, f64) {
    let trace = trace_of(FORK_JOBS);
    let config = base_config();
    let policy = || parse_policy("fifo").expect("policy exists");
    let base = SimulatorEngine::new(config, &trace, policy()).run();
    let at = SimTime::from_millis(base.makespan.as_millis() / 10 * 9);
    let one_cold = || -> u64 {
        (0..FORK_VARIANTS)
            .map(|i| {
                SimulatorEngine::new(config, &trace, policy())
                    .run_forked(fork_of(at, i))
                    .expect("cold fork runs")
                    .events_processed
            })
            .sum()
    };
    let one_warm = || -> u64 {
        let ckpt = SimulatorEngine::new(config, &trace, policy())
            .checkpoint_at(at)
            .expect("prefix checkpoints");
        (0..FORK_VARIANTS)
            .map(|i| {
                let mut engine = SimulatorEngine::resume_materialized(config, &ckpt, policy())
                    .expect("checkpoint resumes");
                engine.apply_fork(fork_of(at, i)).expect("divergence applies");
                engine.try_run().expect("warm fork runs").events_processed
            })
            .sum()
    };
    // correctness before speed: the warm path must be byte-identical
    let ckpt =
        SimulatorEngine::new(config, &trace, policy()).checkpoint_at(at).expect("checkpoint");
    for i in 0..FORK_VARIANTS {
        let cold = SimulatorEngine::new(config, &trace, policy())
            .run_forked(fork_of(at, i))
            .expect("cold fork runs");
        let mut engine = SimulatorEngine::resume_materialized(config, &ckpt, policy())
            .expect("checkpoint resumes");
        engine.apply_fork(fork_of(at, i)).expect("divergence applies");
        let warm = engine.try_run().expect("warm fork runs");
        assert_eq!(warm, cold, "warm fork diverged from cold replay (variant {i})");
    }
    let cold = measure_fn(FORK_JOBS, "fork-cold", min_secs, one_cold);
    let warm = measure_fn(FORK_JOBS, "fork-warm", min_secs, one_warm);
    let speedup = cold.median_secs / warm.median_secs;
    (cold, warm, speedup)
}

/// Jobs per Facebook sample of the KL row.
const KL_JOBS: usize = 100;

/// The testbed heartbeat ablation's (interval in ms, JSON label) rows.
const HEARTBEATS: [(u64, &str); 3] =
    [(300, "testbed-hb300"), (600, "testbed-hb600"), (1200, "testbed-hb1200")];

/// The heartbeat rows, the MRProfiler row and the KL row (see the module
/// doc): measured and recorded, not gated.
fn measure_tools(min_secs: f64) -> Vec<Measurement> {
    let mut rows = Vec::new();
    for (hb, label) in HEARTBEATS {
        // one 64x16 WordCount job of constant task times on 8 nodes
        let run = || {
            let config = ClusterConfig { heartbeat_ms: hb, ..ClusterConfig::tiny(8) };
            let mut sim = ClusterSim::new(config, ClusterPolicy::Fifo, hb);
            let mut job = JobModel::with_task_counts(AppKind::WordCount, 64, 16);
            job.map_time_s = Dist::Constant { value: 5.0 };
            job.reduce_time_s = Dist::Constant { value: 2.0 };
            sim.submit(job, SimTime::ZERO, None);
            sim.run().events
        };
        rows.push(measure_fn(1, label, min_secs, run));
    }

    // the history of the six apps at 200 maps each, 30 s apart
    let mut sim = ClusterSim::new(ClusterConfig::tiny(16), ClusterPolicy::Fifo, 0x77);
    let models = simmr_apps::standard_suite(&[0]);
    let jobs = models.len();
    for (i, mut model) in models.into_iter().enumerate() {
        model.num_maps = 200;
        sim.submit(model, SimTime::from_secs(i as u64 * 30), None);
    }
    let history = sim.run().history;
    let lines = history.lines().count() as u64;
    rows.push(measure_fn(jobs, "profile-parse", min_secs, || {
        std::hint::black_box(profile_history(&history).expect("history parses"));
        lines
    }));

    let maps = |seed| -> Vec<u64> {
        let trace = FacebookWorkload { mean_interarrival_ms: 0.0 }.generate(KL_JOBS, seed);
        trace.jobs.iter().flat_map(|j| j.template.map_durations.clone()).collect()
    };
    let (a, b) = (maps(3), maps(4));
    let samples = (a.len() + b.len()) as u64;
    rows.push(measure_fn(KL_JOBS, "kl", min_secs, || {
        std::hint::black_box(symmetric_kl_ms(&a, &b, KlOptions::default()));
        samples
    }));
    rows
}

/// Repeats `run` (which returns its event count) until `min_secs` of
/// wall time accumulate, at least 3 reps after a warm-up, and returns the
/// median per-run duration.
fn measure_fn(
    jobs: usize,
    label: &'static str,
    min_secs: f64,
    run: impl Fn() -> u64,
) -> Measurement {
    let events = run(); // warm-up + event count
    let mut samples = Vec::new();
    let mut total = 0.0;
    while total < min_secs || samples.len() < 3 {
        let start = Instant::now();
        let n = run();
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(n, events, "simulation is not deterministic");
        samples.push(secs);
        total += secs;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let median_secs = samples[samples.len() / 2];
    Measurement {
        jobs,
        policy: label,
        events,
        reps: samples.len(),
        median_secs,
        events_per_sec: events as f64 / median_secs,
        peak_rss_kb: None,
    }
}

fn one_run(trace: &WorkloadTrace, policy: &str, config: EngineConfig) -> u64 {
    SimulatorEngine::new(config, trace, parse_policy(policy).expect("policy exists"))
        .run()
        .events_processed
}

struct Measurement {
    jobs: usize,
    policy: &'static str,
    events: u64,
    reps: usize,
    median_secs: f64,
    events_per_sec: f64,
    /// Peak RSS after the run (streaming rows only) — the flat-memory
    /// evidence for the streaming engine.
    peak_rss_kb: Option<u64>,
}

/// Repeats the simulation of `trace` under `config` until `min_secs` of
/// wall time accumulate (at least 3 reps) and returns the median per-run
/// duration.
fn measure(
    trace: &WorkloadTrace,
    (label, spec): (&'static str, &'static str),
    config: EngineConfig,
    min_secs: f64,
) -> Measurement {
    measure_fn(trace.jobs.len(), label, min_secs, || one_run(trace, spec, config))
}

fn print_row(m: &Measurement) {
    println!(
        "{:>8} {:>8} {:>12} {:>6} {:>12.3} {:>14.0}",
        m.jobs,
        m.policy,
        m.events,
        m.reps,
        m.median_secs * 1e3,
        m.events_per_sec
    );
}

fn main() {
    let min_secs = min_secs();
    let out_path = workspace_root().join("BENCH_engine.json");
    // read the committed baselines before this run overwrites the file
    let baseline_fifo_1k = baseline_rate(&out_path, "fifo", 1_000);
    let baseline_hier_1k = baseline_rate(&out_path, "hier", 1_000);
    let baseline_maxedf_10k = baseline_rate(&out_path, "maxedf", 10_000);
    let baseline_minedf_1k = baseline_rate(&out_path, "minedf", 1_000);
    let baseline_queue = baseline_rate(&out_path, "queue", QUEUE_PENDING as u64);
    eprintln!("[bench_engine] >= {min_secs} s per point; set SIMMR_BENCH_SECS to change");
    println!(
        "{:>8} {:>8} {:>12} {:>6} {:>12} {:>14}",
        "jobs", "policy", "events", "reps", "median_ms", "events/sec"
    );
    let mut rows = Vec::new();
    // The streaming section runs first so the process's peak RSS (the
    // flat-memory evidence recorded per row) reflects the streaming
    // engine, not the materialized traces benchmarked below.
    for jobs in stream_sizes() {
        let path = write_stream_trace(jobs);
        let m = measure_fn(jobs, "fifo-stream", min_secs, || one_stream_run(&path));
        // read after the rows so far: the high-water mark of this process
        let m = Measurement { peak_rss_kb: peak_rss_kb(), ..m };
        println!(
            "{:>8} {:>11} {:>12} {:>6} {:>12.3} {:>14.0}   peak_rss {} MiB",
            m.jobs,
            m.policy,
            m.events,
            m.reps,
            m.median_secs * 1e3,
            m.events_per_sec,
            m.peak_rss_kb.map(|kb| (kb / 1024).to_string()).unwrap_or_else(|| "?".into())
        );
        rows.push(m);
    }
    for &jobs in &SIZES {
        let trace = trace_of(jobs);
        for (label, spec, max_jobs) in POLICIES {
            if jobs > max_jobs {
                continue;
            }
            let m = measure(&trace, (label, spec), base_config(), min_secs);
            print_row(&m);
            rows.push(m);
        }
    }
    let trace = deep_trace();
    for row in DEEP {
        let m = measure(&trace, row, base_config(), min_secs);
        print_row(&m);
        rows.push(m);
    }
    let trace = trace_of(PERTURBED_JOBS);
    for row in PERTURBED {
        let m = measure(&trace, row, perturbed_config(), min_secs);
        print_row(&m);
        rows.push(m);
    }

    let ahead = queue_ops();
    let m = measure_fn(QUEUE_PENDING, "queue", min_secs, || queue_run(&ahead));
    print_row(&m);
    rows.push(m);

    // Fork sweep: ten late-diverging what-if variants, cold vs warm.
    let (fork_cold, fork_warm, fork_speedup) = measure_fork_sweep(min_secs);
    for m in [&fork_cold, &fork_warm] {
        print_row(m);
    }
    println!(
        "fork warm-start speedup ({FORK_VARIANTS} variants at 90% of makespan): {fork_speedup:.2}x"
    );
    rows.push(fork_cold);
    rows.push(fork_warm);

    for m in measure_tools(min_secs) {
        print_row(&m);
        rows.push(m);
    }

    // The paper's claim, checked at 1k-job scale, plus the scaling bound:
    // 10k jobs may cost at most 2x the per-event time of 1k jobs.
    let rate = |jobs: usize, policy: &str| {
        rows.iter()
            .find(|m| m.jobs == jobs && m.policy == policy)
            .map(|m| m.events_per_sec)
            .unwrap_or(0.0)
    };
    let fifo_1k = rate(1_000, "fifo");
    let fifo_10k = rate(10_000, "fifo");
    let claim_met = fifo_1k >= 1.0e6;
    let scaling_ok = fifo_10k * 2.0 >= fifo_1k;
    println!(
        "\n1M events/sec claim (fifo, 1k jobs): {} ({:.2} M events/sec)",
        if claim_met { "MET" } else { "NOT MET" },
        fifo_1k / 1e6
    );
    println!(
        "10k within 2x of 1k (fifo): {} ({:.2} M events/sec at 10k)",
        if scaling_ok { "OK" } else { "DEGRADED" },
        fifo_10k / 1e6
    );

    let json_rows: Vec<serde_json::Value> = rows
        .iter()
        .map(|m| {
            let mut fields = vec![
                ("jobs".to_owned(), serde_json::Value::U64(m.jobs as u64)),
                ("policy".to_owned(), serde_json::Value::Str(m.policy.to_owned())),
                ("events".to_owned(), serde_json::Value::U64(m.events)),
                ("reps".to_owned(), serde_json::Value::U64(m.reps as u64)),
                ("median_secs".to_owned(), serde_json::Value::F64(m.median_secs)),
                ("events_per_sec".to_owned(), serde_json::Value::F64(m.events_per_sec)),
            ];
            if let Some(kb) = m.peak_rss_kb {
                fields.push(("peak_rss_kb".to_owned(), serde_json::Value::U64(kb)));
            }
            serde_json::Value::Object(fields)
        })
        .collect();
    let doc = serde_json::Value::Object(vec![
        ("benchmark".to_owned(), serde_json::Value::Str("engine_events_per_sec".to_owned())),
        ("workload".to_owned(), serde_json::Value::Str("facebook_ia10s_seed0xBE".to_owned())),
        ("cluster".to_owned(), serde_json::Value::Str("64x64".to_owned())),
        ("claim_1m_events_per_sec_fifo_1k".to_owned(), serde_json::Value::Bool(claim_met)),
        ("scaling_10k_within_2x_of_1k".to_owned(), serde_json::Value::Bool(scaling_ok)),
        ("fork_warm_speedup".to_owned(), serde_json::Value::F64(fork_speedup)),
        ("results".to_owned(), serde_json::Value::Array(json_rows)),
    ]);
    let text = serde_json::to_string_pretty(&doc).expect("report serializes") + "\n";
    match std::fs::write(&out_path, text) {
        Ok(()) => eprintln!("[bench_engine] wrote {}", out_path.display()),
        Err(e) => eprintln!("[bench_engine] cannot write {}: {e}", out_path.display()),
    }

    if assert_mode() {
        let mut failures = Vec::new();
        if !claim_met {
            failures.push(format!(
                "1M events/sec claim not met (fifo 1k: {:.2} M events/sec)",
                fifo_1k / 1e6
            ));
        }
        if !scaling_ok {
            failures.push(format!(
                "scaling degraded: fifo 10k ({:.2} M/s) below half of 1k ({:.2} M/s)",
                fifo_10k / 1e6,
                fifo_1k / 1e6
            ));
        }
        // Flat-memory gate for the streaming engine: peak RSS is sampled
        // after each streaming row (which run first and in increasing
        // size). A 10x-longer trace materialized would cost ~10x the
        // memory; the streaming path's high-water mark may only grow with
        // the deepest transient backlog (the heavy-tailed durations make
        // that mildly size-dependent — observed ~2x from 100k to 1M jobs,
        // at single-digit MiB), so anything past 4x means the engine is
        // holding onto O(trace) state again. VmHWM is monotone, so the
        // ratio is always >= 1.
        let stream_rss: Vec<(usize, u64)> = rows
            .iter()
            .filter(|m| m.policy == "fifo-stream")
            .filter_map(|m| m.peak_rss_kb.map(|kb| (m.jobs, kb)))
            .collect();
        if let [.., (small_jobs, small_kb), (big_jobs, big_kb)] = stream_rss[..] {
            let ratio = big_kb as f64 / small_kb.max(1) as f64;
            if ratio > 4.0 {
                failures.push(format!(
                    "streaming memory not flat: peak RSS grew {ratio:.2}x \
                     ({small_kb} KiB at {small_jobs} jobs -> {big_kb} KiB at {big_jobs} jobs)"
                ));
            } else {
                eprintln!(
                    "[bench_engine] streaming peak RSS flat: {small_kb} KiB at {small_jobs} \
                     jobs vs {big_kb} KiB at {big_jobs} jobs ({ratio:.2}x)"
                );
            }
        }
        // fair picks from ordered views like fifo; the old full-queue
        // scan ran it ~45x behind fifo at 10k jobs
        let fair_10k = rate(10_000, "fair");
        if fair_10k * 3.0 < fifo_10k {
            failures.push(format!(
                "fair 10k ({:.2} M/s) below a third of fifo 10k ({:.2} M/s)",
                fair_10k / 1e6,
                fifo_10k / 1e6
            ));
        } else {
            eprintln!(
                "[bench_engine] fair 10k {:.2} M/s within 3x of fifo 10k {:.2} M/s",
                fair_10k / 1e6,
                fifo_10k / 1e6
            );
        }
        // the time-travel claim: warm-starting a late-divergence sweep
        // from one shared checkpoint must clearly beat replaying every
        // variant from scratch. Both loops are serial, so the ratio is
        // machine-independent; the ideal here is ~5x (prefix 0.9 of the
        // work, run once instead of ten times), 2x leaves room for
        // resume/capture overhead on noisy runners.
        if fork_speedup < 2.0 {
            let median_ms = |label: &str| {
                rows.iter().find(|m| m.policy == label).map(|m| m.median_secs * 1e3).unwrap_or(0.0)
            };
            failures.push(format!(
                "fork warm-start speedup {fork_speedup:.2}x below the 2x floor \
                 (cold {:.1} ms vs warm {:.1} ms for {FORK_VARIANTS} variants)",
                median_ms("fork-cold"),
                median_ms("fork-warm")
            ));
        } else {
            eprintln!("[bench_engine] fork warm-start speedup {fork_speedup:.2}x (floor 2x)");
        }
        // Each policy's rate as a multiple of the queue row's, against
        // the same ratio in the baseline file: host speed cancels out.
        let queue_rate = rate(QUEUE_PENDING, "queue");
        let mut noise_gate = |policy: &str, jobs: usize, at: &str, baseline: Option<f64>| {
            let measured = rate(jobs, policy) / queue_rate;
            match (baseline, baseline_queue) {
                (Some(base), Some(queue)) => {
                    let base = base / queue;
                    let floor = base * noise_frac();
                    if measured < floor {
                        failures.push(format!(
                            "{policy} {at} throughput fell to {measured:.3}x the queue row's \
                             rate, below the noise floor {floor:.3}x ({}% of the baseline \
                             ratio {base:.3}x)",
                            (noise_frac() * 100.0) as u32,
                        ));
                    } else {
                        eprintln!(
                            "[bench_engine] {policy} {at} at {measured:.3}x the queue row's \
                             rate, within noise of the baseline ratio {base:.3}x"
                        );
                    }
                }
                _ => eprintln!(
                    "[bench_engine] no {policy} {at} or queue baseline in BENCH_engine.json; \
                     skipping noise gate"
                ),
            }
        };
        noise_gate("fifo", 1_000, "1k", baseline_fifo_1k);
        // keeps the incremental share view's speedup: a regression to the
        // old full-reaggregation cost sits ~100x under this floor
        noise_gate("hier", 1_000, "1k", baseline_hier_1k);
        // likewise for the deadline views: the old full-scan maxedf sat
        // ~85x under its 10k floor
        noise_gate("maxedf", 10_000, "10k", baseline_maxedf_10k);
        noise_gate("minedf", 1_000, "1k", baseline_minedf_1k);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("[bench_engine] ASSERT FAILED: {f}");
            }
            std::process::exit(1);
        }
        eprintln!("[bench_engine] all throughput assertions passed");
    }
}
