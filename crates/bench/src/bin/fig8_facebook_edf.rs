//! Figure 8 (§V-C): MaxEDF vs MinEDF on the synthetic Facebook workload.
//!
//! Traces come from the Synthetic TraceGen's Facebook model (LogNormal task
//! durations fitted in the paper, Table-3-style job mix). Deadline factors
//! {1.1, 1.5, 2}, mean inter-arrival swept as in Figure 7, metric = sum of
//! relative deadlines exceeded, averaged over repetitions (`SIMMR_REPS`,
//! default 400).
//!
//! Expected shape: MinEDF consistently and significantly outperforms
//! MaxEDF, consistent with the real-trace study.

use simmr_bench::csvout::write_csv;
use simmr_core::{EngineConfig, SimulatorEngine};
use simmr_sched::parse_policy;
use simmr_serve::attach_deadlines;
use simmr_trace::FacebookWorkload;

const JOBS_PER_TRACE: usize = 100;

fn reps() -> usize {
    std::env::var("SIMMR_REPS").ok().and_then(|v| v.parse().ok()).unwrap_or(400)
}

fn one_run(mean_ia_ms: f64, df: f64, policy: &str, seed: u64) -> f64 {
    let mut trace =
        FacebookWorkload { mean_interarrival_ms: mean_ia_ms }.generate(JOBS_PER_TRACE, seed);
    attach_deadlines(&mut trace, df, 64, 64, seed ^ 0xDEAD);
    let report = SimulatorEngine::new(
        EngineConfig::new(64, 64),
        &trace,
        parse_policy(policy).expect("policy exists"),
    )
    .run();
    report.total_relative_deadline_exceeded()
}

fn average(mean_ia_ms: f64, df: f64, policy: &str, reps: usize) -> f64 {
    simmr_stats::parallel_mean(reps, |r| {
        one_run(mean_ia_ms, df, policy, 0xF8_0000 + r as u64 * 6271)
    })
}

fn main() {
    let reps = reps();
    eprintln!("[fig8] {reps} repetitions per point, {JOBS_PER_TRACE} Facebook jobs per trace");
    let mean_ias = [1.0e3, 1.0e4, 1.0e5, 1.0e6, 1.0e7, 1.0e8];
    for (panel, df) in [("a", 1.1), ("b", 1.5), ("c", 2.0)] {
        println!("\n== Figure 8({panel}): deadline factor = {df} ==");
        println!("{:>16} {:>12} {:>12}", "mean_ia_s", "MaxEDF", "MinEDF");
        let mut rows = Vec::new();
        let mut max_series = Vec::new();
        let mut min_series = Vec::new();
        for &ia in &mean_ias {
            let maxedf = average(ia, df, "maxedf", reps);
            let minedf = average(ia, df, "minedf", reps);
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
            &format!("fig8{panel}_facebook_edf_df{df}"),
            "mean_interarrival_s,maxedf_rel_deadline_exceeded,minedf_rel_deadline_exceeded",
            &rows,
        );
    }
    println!(
        "\nExpected shape (paper): MinEDF significantly outperforms MaxEDF across\n\
         the sweep, consistent with the real-testbed study of Figure 7."
    );
}
