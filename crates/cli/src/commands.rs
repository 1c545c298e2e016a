//! Subcommand implementations.

use crate::args::Args;
use crate::{load_trace, print_run_timing, save_trace};
use simmr_cluster::{ClusterConfig, ClusterPolicy, ClusterSim};
use simmr_serve::{DivergenceSpec, ScenarioSpec, ServeConfig, Server, SimFacade, TraceRef};
use simmr_stats::fit_best;
use simmr_trace::{
    encode_trace, trace_from_history, FacebookWorkload, TraceDatabase, TraceFormat, TraceStatus,
};
use simmr_types::{ClusterSpec, SimTime};

/// Resolves a `--format json|bin` flag; `None` when absent.
fn format_flag(args: &Args, flag: &str) -> Result<Option<TraceFormat>, String> {
    match args.get(flag) {
        None => Ok(None),
        Some("json") => Ok(Some(TraceFormat::Json)),
        Some("bin") => Ok(Some(TraceFormat::Bin)),
        Some(other) => Err(format!("flag --{flag}: expected `json` or `bin`, got `{other}`")),
    }
}

/// Infers a trace format from a file extension (`.bin` means binary).
fn format_from_extension(path: &str) -> Option<TraceFormat> {
    if path.ends_with(".bin") {
        Some(TraceFormat::Bin)
    } else if path.ends_with(".json") {
        Some(TraceFormat::Json)
    } else {
        None
    }
}

/// Sniffs a trace file's on-disk format by its magic bytes.
fn sniff_format(path: &str) -> Result<TraceFormat, String> {
    TraceFormat::sniff(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// `simmr generate`: synthetic Facebook-like trace to JSON or binary.
pub fn generate(args: &Args) -> Result<(), String> {
    let jobs: usize = args.parse_or("jobs", 100)?;
    let mean_ia: f64 = args.parse_or("mean-ia-ms", 60_000.0)?;
    let seed: u64 = args.parse_or("seed", 1)?;
    let out = args.require("out")?;
    let format = match format_flag(args, "format")? {
        Some(f) => f,
        None => format_from_extension(out).unwrap_or(TraceFormat::Json),
    };
    let variants: Option<usize> = match args.get("variants") {
        None => None,
        Some(v) => {
            let v: usize = v.parse().map_err(|_| format!("flag --variants: cannot parse `{v}`"))?;
            if v == 0 {
                return Err("--variants must be at least 1".into());
            }
            Some(v)
        }
    };
    let workload = FacebookWorkload { mean_interarrival_ms: mean_ia };

    // The pooled + binary combination streams straight to disk with
    // O(pool) memory — the million-job path.
    if let (TraceFormat::Bin, Some(v)) = (format, variants) {
        let file = std::fs::File::create(out).map_err(|e| format!("cannot write `{out}`: {e}"))?;
        let writer = workload
            .write_bin(jobs, v, seed, std::io::BufWriter::new(file))
            .map_err(|e| format!("cannot write `{out}`: {e}"))?;
        // into_inner flushes the buffered tail
        writer.into_inner().map_err(|e| format!("cannot write `{out}`: {e}"))?;
        println!("generated {jobs} pooled jobs ({v} variants/class, streamed) -> {out}");
        return Ok(());
    }

    let trace = match variants {
        Some(v) => workload.generate_pooled(jobs, v, seed),
        None => workload.generate(jobs, seed),
    };
    match format {
        TraceFormat::Json => save_trace(out, &trace)?,
        TraceFormat::Bin => {
            let bytes = encode_trace(&trace).map_err(|e| e.to_string())?;
            std::fs::write(out, bytes).map_err(|e| format!("cannot write `{out}`: {e}"))?;
        }
    }
    println!(
        "generated {} jobs ({} tasks, {:.1}h serial work) -> {out}",
        trace.len(),
        trace.total_tasks(),
        trace.total_serial_work_ms() as f64 / 3.6e6
    );
    Ok(())
}

/// `simmr testbed`: run the application suite on the testbed simulator.
pub fn testbed(args: &Args) -> Result<(), String> {
    let out = args.require("out")?;
    let seed: u64 = args.parse_or("seed", 1)?;
    let policy = match args.get("policy").unwrap_or("fifo") {
        "fifo" => ClusterPolicy::Fifo,
        "maxedf" => ClusterPolicy::MaxEdf,
        "minedf" => ClusterPolicy::MinEdf,
        other => return Err(format!("unknown testbed policy `{other}`")),
    };
    let datasets: Vec<usize> = args
        .get("datasets")
        .unwrap_or("1")
        .split(',')
        .map(|d| d.parse::<usize>().map_err(|e| format!("--datasets: {e}")))
        .collect::<Result<_, _>>()?;
    let mut sim = ClusterSim::new(ClusterConfig::paper_testbed(), policy, seed);
    let mut clock = SimTime::ZERO;
    for model in simmr_apps::standard_suite(&datasets) {
        sim.submit(model, clock, None);
        clock += 300_000;
    }
    let run = sim.run();
    std::fs::write(out, &run.history).map_err(|e| format!("cannot write `{out}`: {e}"))?;
    println!("testbed run complete: {} jobs, makespan {}", run.results.len(), run.makespan);
    for r in &run.results {
        println!("  {:<22} {:>9.1}s", r.name, r.duration_ms() as f64 / 1000.0);
    }
    println!("history log -> {out}");
    Ok(())
}

/// `simmr profile`: history log -> replayable trace.
pub fn profile(args: &Args) -> Result<(), String> {
    let log_path = args.positional(0).ok_or("usage: simmr profile HISTORY.log --out T.json")?;
    let out = args.require("out")?;
    let log =
        std::fs::read_to_string(log_path).map_err(|e| format!("cannot read `{log_path}`: {e}"))?;
    let trace = trace_from_history(&log, &format!("profiled from {log_path}"))
        .map_err(|e| e.to_string())?;
    save_trace(out, &trace)?;
    println!("profiled {} jobs ({} tasks) -> {out}", trace.len(), trace.total_tasks());
    Ok(())
}

/// Builds the [`ScenarioSpec`] the replay flags describe. Only a flag that
/// does not parse fails here; the facade checks the spec as a whole
/// ([`ScenarioSpec::validate`]) when it resolves or runs it.
fn scenario_from_args(args: &Args, trace: TraceRef) -> Result<ScenarioSpec, String> {
    let policy: simmr_sched::PolicySpec = if let Some(pools_path) = args.get("pools") {
        match args.get("policy") {
            None | Some("hier") => {}
            Some(other) => {
                return Err(format!(
                    "--pools picks the hierarchical policy; drop --policy or set it to \
                     `hier` (got `{other}`)"
                ));
            }
        }
        let text = std::fs::read_to_string(pools_path)
            .map_err(|e| format!("cannot read `{pools_path}`: {e}"))?;
        let pools =
            simmr_sched::pools_from_json(&text).map_err(|e| format!("`{pools_path}`: {e}"))?;
        simmr_sched::PolicySpec::Hier { pools }
    } else {
        args.get("policy")
            .unwrap_or("fifo")
            .parse()
            .map_err(|e: simmr_sched::PolicyParseError| e.to_string())?
    };
    let mut spec = ScenarioSpec::new(trace, policy);
    let map_slots: usize = args.parse_or("map-slots", 64)?;
    let reduce_slots: usize = args.parse_or("reduce-slots", 64)?;
    let hosts: usize = args.parse_or("hosts", 1)?;
    spec.cluster = ClusterSpec::new(map_slots, reduce_slots).with_hosts(hosts);
    spec.seed = args.parse_or("seed", 1)?;
    spec.aggregate = args.has("aggregate");
    spec.timeline = args.has("timeline");
    spec.check_invariants = args.has("check-invariants");
    if let Some(failures) = args.get("failures") {
        spec.failures = Some(failures.parse().map_err(|e| format!("--failures: {e}"))?);
        spec.failure_mtbf_s = args.parse_or("failure-mtbf-s", 3600.0)?;
    }
    if let Some(rec_s) = args.get("failure-recovery-s") {
        let rec_s = rec_s.parse().map_err(|e| format!("--failure-recovery-s: {e}"))?;
        spec.failure_recovery_s = Some(rec_s);
    }
    if let Some(factor) = args.get("speculation") {
        spec.speculation = Some(factor.parse().map_err(|e| format!("--speculation: {e}"))?);
    }
    if let Some(sigma) = args.get("slowdown") {
        spec.slowdown_sigma = Some(sigma.parse().map_err(|e| format!("--slowdown: {e}"))?);
    }
    if let Some(df) = args.get("deadline-factor") {
        spec.deadline_factor = Some(df.parse().map_err(|e| format!("--deadline-factor: {e}"))?);
    }
    if let Some(at) = args.get("fork-at") {
        spec.fork_at = Some(at.parse().map_err(|e| format!("--fork-at: {e}"))?);
    }
    if let Some(policy) = args.get("fork-policy") {
        spec.divergences.push(DivergenceSpec::Policy(
            policy.parse().map_err(|e: simmr_sched::PolicyParseError| e.to_string())?,
        ));
    }
    let add_maps: usize = args.parse_or("fork-add-map-slots", 0)?;
    let add_reduces: usize = args.parse_or("fork-add-reduce-slots", 0)?;
    if add_maps > 0 || add_reduces > 0 {
        spec.divergences
            .push(DivergenceSpec::AddSlots { map_slots: add_maps, reduce_slots: add_reduces });
    }
    if let Some(fault) = args.get("fork-fault") {
        let (host, at_ms) = match fault.split_once('@') {
            Some((h, t)) => (h, t.parse().map_err(|e| format!("--fork-fault: bad instant: {e}"))?),
            None => (fault, 0),
        };
        let host: u32 = host.parse().map_err(|e| format!("--fork-fault: bad host: {e}"))?;
        spec.divergences.push(DivergenceSpec::Fault { host, at_ms });
    }
    if let Some(path) = args.get("fork-surge") {
        spec.divergences.push(DivergenceSpec::Surge(load_trace(path)?.jobs));
    }
    Ok(spec)
}

/// `simmr replay`: trace -> scenario spec -> facade -> per-job report.
///
/// The facade sniffs the file's magic bytes: JSON traces are materialized;
/// binary traces stream through the engine one arrival at a time unless
/// deadline stamping or a fork needs the materialized trace.
pub fn replay(args: &Args) -> Result<(), String> {
    let path = args.positional(0).ok_or("usage: simmr replay TRACE.{json,bin} [flags]")?;
    let spec = scenario_from_args(args, TraceRef::Path(path.to_owned()))?;
    let facade = SimFacade::new();
    let start = std::time::Instant::now();
    let run = facade.run(&spec).map_err(|e| e.message().to_string())?;
    print_run_timing(&run, start.elapsed());
    let report = run.report;
    if !report.jobs.is_empty() {
        println!(
            "{:<24} {:>10} {:>10} {:>10} {:>8}",
            "job", "arrival_s", "finish_s", "dur_s", "met?"
        );
    }
    for job in &report.jobs {
        println!(
            "{:<24} {:>10.1} {:>10.1} {:>10.1} {:>8}",
            job.name,
            job.arrival.as_secs_f64(),
            job.completion.as_secs_f64(),
            job.duration() as f64 / 1000.0,
            if job.deadline.is_none() {
                "-"
            } else if job.met_deadline() {
                "yes"
            } else {
                "NO"
            }
        );
    }
    println!(
        "makespan {}  missed deadlines {}/{}  relative-deadline-exceeded {:.2}",
        report.makespan,
        report.missed_deadlines(),
        report.jobs.len(),
        report.total_relative_deadline_exceeded()
    );
    if args.has("timeline") {
        println!("timeline entries: {}", report.timeline.len());
    }
    Ok(())
}

/// `simmr checkpoint`: capture an engine checkpoint at a settled batch
/// boundary, or decode and summarize an existing checkpoint file.
///
/// The captured file feeds `simmr replay --fork-at` experiments and the
/// serve layer's warm-start cache; `--info` prints the header of a file
/// without running anything.
pub fn checkpoint(args: &Args) -> Result<(), String> {
    if let Some(path) = args.get("info") {
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        let ckpt = simmr_core::EngineCheckpoint::decode(&bytes).map_err(|e| e.to_string())?;
        println!(
            "checkpoint @ {} (settled boundary {}): policy {}, {} jobs admitted, \
             {} pending events, {} events processed, digest {:016x}",
            ckpt.at(),
            ckpt.boundary(),
            ckpt.policy_name(),
            ckpt.jobs_admitted(),
            ckpt.pending_events(),
            ckpt.events_processed(),
            ckpt.digest()
        );
        return Ok(());
    }
    let path = args.positional(0).ok_or(
        "usage: simmr checkpoint TRACE.{json,bin} --at MS --out C.ckpt [engine flags]\n       \
         simmr checkpoint --info C.ckpt",
    )?;
    let at: u64 = args.require("at")?.parse().map_err(|e| format!("--at: {e}"))?;
    let out = args.require("out")?;
    let spec = scenario_from_args(args, TraceRef::Inline(load_trace(path)?))?;
    if spec.fork_at.is_some() {
        return Err("`simmr checkpoint` captures the shared prefix; fork flags belong to \
             `simmr replay --fork-at`"
            .into());
    }
    let resolved = SimFacade::new().resolve(&spec).map_err(|e| e.message().to_string())?;
    let ckpt = resolved.checkpoint(SimTime::from_millis(at));
    let bytes = ckpt.encode();
    std::fs::write(out, &bytes).map_err(|e| format!("cannot write `{out}`: {e}"))?;
    println!(
        "checkpoint @ {} (settled boundary {}): {} jobs admitted, {} pending events, \
         {} bytes, digest {:016x} -> {out}",
        ckpt.at(),
        ckpt.boundary(),
        ckpt.jobs_admitted(),
        ckpt.pending_events(),
        bytes.len(),
        ckpt.digest()
    );
    Ok(())
}

/// `simmr compare`: one trace, several policies, the §V utility metric.
///
/// All policies go through the facade as one batch: the trace is loaded
/// and deadline-stamped once, and the runs fan out across cores.
pub fn compare(args: &Args) -> Result<(), String> {
    let path = args.positional(0).ok_or("usage: simmr compare TRACE.json [flags]")?;
    let map_slots: usize = args.parse_or("map-slots", 64)?;
    let reduce_slots: usize = args.parse_or("reduce-slots", 64)?;
    let df: f64 = args.parse_or("deadline-factor", 1.5)?;
    let seed: u64 = args.parse_or("seed", 1)?;
    let policies: Vec<&str> =
        args.get("policies").unwrap_or("fifo,maxedf,minedf").split(',').map(str::trim).collect();
    let specs: Vec<ScenarioSpec> = policies
        .iter()
        .map(|name| {
            let policy = name.parse().map_err(|e: simmr_sched::PolicyParseError| e.to_string())?;
            let mut spec = ScenarioSpec::new(TraceRef::Path(path.to_owned()), policy);
            spec.cluster = ClusterSpec::new(map_slots, reduce_slots);
            spec.seed = seed;
            spec.deadline_factor = Some(df);
            Ok(spec)
        })
        .collect::<Result<_, String>>()?;
    let facade = SimFacade::new();
    let start = std::time::Instant::now();
    let runs = facade.run_batch(&specs);
    eprintln!(
        "[simmr] compared {} policies in {:.3}s",
        policies.len(),
        start.elapsed().as_secs_f64()
    );
    println!(
        "{:<10} {:>12} {:>10} {:>14} {:>12}",
        "policy", "makespan_s", "missed", "rel_exceeded", "mean_dur_s"
    );
    for (policy, run) in policies.iter().zip(runs) {
        let report = run.map_err(|e| e.message().to_string())?.report;
        println!(
            "{:<10} {:>12.1} {:>7}/{:<2} {:>14.2} {:>12.1}",
            policy,
            report.makespan.as_secs_f64(),
            report.missed_deadlines(),
            report.jobs.len(),
            report.total_relative_deadline_exceeded(),
            report.mean_duration_ms() / 1000.0
        );
    }
    Ok(())
}

/// `simmr serve`: the long-running what-if HTTP service.
pub fn serve(args: &Args) -> Result<(), String> {
    let config = ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:4601").to_owned(),
        workers: args.parse_or("workers", 0)?,
        db_dir: args.get("db").map(str::to_owned),
        cache_shard_cap: args.parse_or("cache-cap", 256)?,
        ..ServeConfig::default()
    };
    let server = Server::bind(config)?;
    eprintln!(
        "[simmr serve] listening on http://{} (POST /v1/run, /v1/sweep, /v1/shutdown)",
        server.local_addr()
    );
    server.run()
}

const TRACE_USAGE: &str = "usage: simmr trace convert IN OUT [--format json|bin]
       simmr trace store NAME FILE --db DIR [--format json|bin]
       simmr trace list --db DIR
       simmr trace remove NAME --db DIR";

/// `simmr trace`: trace-database housekeeping and format conversion.
pub fn trace(args: &Args) -> Result<(), String> {
    match args.positional(0) {
        Some("convert") => trace_convert(args),
        Some("store") => trace_store(args),
        Some("list") => trace_list(args),
        Some("remove") => trace_remove(args),
        Some(other) => Err(format!("unknown trace subcommand `{other}`\n{TRACE_USAGE}")),
        None => Err(TRACE_USAGE.into()),
    }
}

/// `simmr trace convert`: JSON <-> binary. The output format comes from
/// `--format`, else the output extension, else the opposite of the input.
fn trace_convert(args: &Args) -> Result<(), String> {
    let input = args.positional(1).ok_or(TRACE_USAGE)?;
    let out = args.positional(2).ok_or(TRACE_USAGE)?;
    let input_format = sniff_format(input)?;
    let out_format = match format_flag(args, "format")? {
        Some(f) => f,
        None => format_from_extension(out).unwrap_or(match input_format {
            TraceFormat::Json => TraceFormat::Bin,
            TraceFormat::Bin => TraceFormat::Json,
        }),
    };
    let trace = load_trace(input)?;
    let bytes = match out_format {
        TraceFormat::Json => {
            let mut json = serde_json::to_string_pretty(&trace).map_err(|e| e.to_string())?;
            json.push('\n');
            json.into_bytes()
        }
        TraceFormat::Bin => encode_trace(&trace).map_err(|e| e.to_string())?,
    };
    std::fs::write(out, &bytes).map_err(|e| format!("cannot write `{out}`: {e}"))?;
    println!(
        "converted {} jobs: {input} ({input_format}) -> {out} ({out_format}, {} bytes)",
        trace.len(),
        bytes.len()
    );
    Ok(())
}

/// `simmr trace store`: file -> named entry in a trace database.
fn trace_store(args: &Args) -> Result<(), String> {
    let name = args.positional(1).ok_or(TRACE_USAGE)?;
    let file = args.positional(2).ok_or(TRACE_USAGE)?;
    let db = TraceDatabase::open(args.require("db")?).map_err(|e| e.to_string())?;
    let trace = load_trace(file)?;
    let format = format_flag(args, "format")?.unwrap_or(TraceFormat::Json);
    match format {
        TraceFormat::Json => db.store(name, &trace).map_err(|e| e.to_string())?,
        TraceFormat::Bin => db.store_bin(name, &trace).map_err(|e| e.to_string())?,
    }
    println!("stored `{name}` ({format}, {} jobs)", trace.len());
    Ok(())
}

/// `simmr trace list`: one row per stored trace, corruption surfaced.
fn trace_list(args: &Args) -> Result<(), String> {
    let db = TraceDatabase::open(args.require("db")?).map_err(|e| e.to_string())?;
    let listing = db.list().map_err(|e| e.to_string())?;
    if listing.is_empty() {
        println!("(empty database)");
        return Ok(());
    }
    println!("{:<24} {:<6} {:>8}  {:<19} {:<16}", "name", "format", "jobs", "arrivals", "digest");
    for (name, status) in &listing {
        match status {
            TraceStatus::Ok { format, jobs, span, digest } => {
                let arrivals = match span {
                    Some((first, last)) => {
                        format!("{:.1}s..{:.1}s", first.as_secs_f64(), last.as_secs_f64())
                    }
                    None => "-".to_owned(),
                };
                println!("{name:<24} {format:<6} {jobs:>8}  {arrivals:<19} {digest}");
            }
            TraceStatus::Corrupt { format, error } => {
                println!("{name:<24} {format:<6}  CORRUPT: {error}");
            }
        }
    }
    Ok(())
}

/// `simmr trace remove`: drop a stored trace (all formats).
fn trace_remove(args: &Args) -> Result<(), String> {
    let name = args.positional(1).ok_or(TRACE_USAGE)?;
    let db = TraceDatabase::open(args.require("db")?).map_err(|e| e.to_string())?;
    db.remove(name).map_err(|e| e.to_string())?;
    println!("removed `{name}`");
    Ok(())
}

/// `simmr scale`: trace scaling (§VII).
pub fn scale(args: &Args) -> Result<(), String> {
    let path = args.positional(0).ok_or("usage: simmr scale TRACE.json --factor F --out O")?;
    let factor: f64 = args.require("factor")?.parse().map_err(|e| format!("--factor: {e}"))?;
    if !(factor.is_finite() && factor > 0.0) {
        return Err("--factor must be positive".into());
    }
    let out = args.require("out")?;
    let mut trace = load_trace(path)?;
    for job in trace.jobs.iter_mut() {
        job.template = simmr_trace::scale_template(&job.template, factor).into();
    }
    trace.meta.description = format!("{} (scaled x{factor})", trace.meta.description);
    save_trace(out, &trace)?;
    println!("scaled {} jobs by {factor} -> {out} ({} tasks)", trace.len(), trace.total_tasks());
    Ok(())
}

/// `simmr stats`: characterize a workload trace (§V-C methodology).
pub fn stats(args: &Args) -> Result<(), String> {
    let path = args.positional(0).ok_or("usage: simmr stats TRACE.json")?;
    let trace = crate::load_trace(path)?;
    print!("{}", simmr_trace::characterize(&trace).render());
    Ok(())
}

/// `simmr fit`: §V-C distribution-fitting methodology on a sample file.
pub fn fit(args: &Args) -> Result<(), String> {
    let path = args.positional(0).ok_or("usage: simmr fit SAMPLES.txt")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let samples: Vec<f64> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse::<f64>().map_err(|e| format!("bad sample `{l}`: {e}")))
        .collect::<Result<_, _>>()?;
    if samples.len() < 2 {
        return Err("need at least 2 samples".into());
    }
    let reports = fit_best(&samples);
    if reports.is_empty() {
        return Err("no candidate distribution could be fitted".into());
    }
    println!("{:>10}  distribution", "K-S");
    for r in &reports {
        println!("{:>10.4}  {:?}", r.ks, r.dist);
    }
    println!("\nbest fit: {:?} (K-S = {:.4})", reports[0].dist, reports[0].ks);
    Ok(())
}
