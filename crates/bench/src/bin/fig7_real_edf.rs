//! Figure 7 (§V-B): MaxEDF vs MinEDF on the real testbed workload.
//!
//! The 18 suite jobs (6 applications × 3 datasets) are profiled on the
//! testbed; each simulation draws a random permutation with exponential
//! inter-arrivals, assigns each job a deadline uniform in `[T_J, df·T_J]`
//! (T_J = all-slots standalone runtime), and replays under both schedulers.
//! The metric is the paper's *sum of relative deadlines exceeded*,
//! averaged over many repetitions (400 in the paper; set `SIMMR_REPS` to
//! override).
//!
//! Expected shape: identical curves at df=1; MinEDF strictly better at
//! df=1.5 and better still at df=3; the metric decays as the mean
//! inter-arrival grows; a non-preemption "bump" near 100 s.

use simmr_bench::csvout::write_csv;
use simmr_bench::workloads::permute_with_exponential_arrivals;
use simmr_cluster::{ClusterConfig, ClusterPolicy, ClusterSim};
use simmr_core::{EngineConfig, SimulatorEngine};
use simmr_sched::parse_policy;
use simmr_serve::attach_deadlines_with;
use simmr_stats::SeededRng;
use simmr_trace::profile_history;
use simmr_types::{JobSpec, JobTemplate, SimTime, WorkloadTrace};

fn reps() -> usize {
    std::env::var("SIMMR_REPS").ok().and_then(|v| v.parse().ok()).unwrap_or(400)
}

/// Profiles the 18 suite jobs (one standalone testbed run each).
fn suite_templates() -> Vec<JobTemplate> {
    let mut out = Vec::new();
    for (i, model) in simmr_bench::suite_models(&[0, 1, 2]).into_iter().enumerate() {
        let mut sim =
            ClusterSim::new(ClusterConfig::paper_testbed(), ClusterPolicy::Fifo, 0x700 + i as u64);
        sim.submit(model, SimTime::ZERO, None);
        let run = sim.run();
        out.push(profile_history(&run.history).expect("profiles")[0].template.clone());
    }
    out
}

/// One simulation: permute, draw arrivals and deadlines, run `policy`.
fn one_run(templates: &[JobTemplate], mean_ia_ms: f64, df: f64, policy: &str, seed: u64) -> f64 {
    let mut rng = SeededRng::new(seed);
    let mut trace = WorkloadTrace::new("fig7", "edf-study");
    for t in templates {
        trace.push(JobSpec::new(t.clone(), SimTime::ZERO));
    }
    permute_with_exponential_arrivals(&mut trace, mean_ia_ms, &mut rng);
    attach_deadlines_with(&mut trace, df, 64, 64, &mut rng);
    let report = SimulatorEngine::new(
        EngineConfig::new(64, 64),
        &trace,
        parse_policy(policy).expect("policy exists"),
    )
    .run();
    report.total_relative_deadline_exceeded()
}

/// Averages `reps` runs, fanned out across threads.
fn average(templates: &[JobTemplate], mean_ia_ms: f64, df: f64, policy: &str, reps: usize) -> f64 {
    simmr_stats::parallel_mean(reps, |r| {
        one_run(templates, mean_ia_ms, df, policy, 0xF17_0000 + r as u64 * 7919)
    })
}

fn main() {
    eprintln!("[fig7] profiling the 18 suite jobs ...");
    let templates = suite_templates();
    let reps = reps();
    eprintln!("[fig7] {reps} repetitions per point");

    let mean_ias = [1.0e3, 1.0e4, 1.0e5, 1.0e6, 1.0e7, 1.0e8];
    for (panel, df) in [("a", 1.0), ("b", 1.5), ("c", 3.0)] {
        println!("\n== Figure 7({panel}): deadline factor = {df} ==");
        println!("{:>16} {:>12} {:>12}", "mean_ia_s", "MaxEDF", "MinEDF");
        let mut rows = Vec::new();
        let mut max_series = Vec::new();
        let mut min_series = Vec::new();
        for &ia in &mean_ias {
            let maxedf = average(&templates, ia, df, "maxedf", reps);
            let minedf = average(&templates, ia, df, "minedf", reps);
            println!("{:>16.0} {:>12.2} {:>12.2}", ia / 1000.0, maxedf, minedf);
            rows.push(format!("{},{},{}", ia / 1000.0, maxedf, minedf));
            max_series.push((ia / 1000.0, maxedf));
            min_series.push((ia / 1000.0, minedf));
        }
        print!(
            "{}",
            simmr_bench::plot::render(
                &[
                    simmr_bench::plot::Series { name: "X MaxEDF".into(), points: max_series },
                    simmr_bench::plot::Series { name: "o MinEDF".into(), points: min_series },
                ],
                64,
                14,
                true,
            )
        );
        write_csv(
            &format!("fig7{panel}_real_edf_df{df}"),
            "mean_interarrival_s,maxedf_rel_deadline_exceeded,minedf_rel_deadline_exceeded",
            &rows,
        );
    }
    println!(
        "\nExpected shape (paper): curves coincide at df=1; MinEDF beats MaxEDF at\n\
         df=1.5 and the gap widens at df=3; the metric decays with the arrival rate."
    );
}
