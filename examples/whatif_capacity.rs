//! What-if capacity planning: the use case from the paper's introduction.
//!
//! "When there is a need to expand the set of production jobs ... one has
//! to evaluate whether additional resources are required." This example
//! profiles a production-like job mix once, then replays it at several
//! hypothetical cluster sizes in milliseconds of wall-clock time — the
//! kind of question that would take days on a real testbed. The what-ifs
//! are phrased as `ScenarioSpec`s and run as one batch through the
//! `simmr-serve` facade — exactly what `simmr serve` does for a
//! `POST /v1/sweep` request.
//!
//! ```sh
//! cargo run --release -p simmr-examples --bin whatif_capacity
//! ```

use simmr_sched::PolicySpec;
use simmr_serve::{ScenarioSpec, SimFacade, TraceRef};
use simmr_stats::SeededRng;
use simmr_trace::FacebookWorkload;
use simmr_types::{ClusterSpec, WorkloadTrace};

const SLOT_SIZES: [usize; 5] = [16, 32, 64, 128, 256];

fn scenario(trace: &WorkloadTrace, slots: usize) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(TraceRef::Inline(trace.clone()), PolicySpec::Fifo);
    spec.cluster = ClusterSpec::new(slots, slots);
    spec
}

fn main() {
    // A production-like mix: 200 Facebook-style jobs arriving over ~3.3 h.
    let mut trace = FacebookWorkload { mean_interarrival_ms: 60_000.0 }.generate(200, 7);
    println!(
        "workload: {} jobs, {} tasks, {:.1} h serial work\n",
        trace.len(),
        trace.total_tasks(),
        trace.total_serial_work_ms() as f64 / 3.6e6
    );

    let facade = SimFacade::new();
    let specs: Vec<ScenarioSpec> = SLOT_SIZES.iter().map(|&s| scenario(&trace, s)).collect();
    let runs = facade.run_batch(&specs);

    println!("{:>7} {:>14} {:>16}", "slots", "makespan_h", "mean_job_dur_s");
    let mut prev: Option<f64> = None;
    for (slots, run) in SLOT_SIZES.iter().zip(runs) {
        let report = run.expect("capacity scenario runs").report;
        let makespan_s = report.makespan.as_secs_f64();
        let delta = prev
            .map(|p| format!("  ({:+.0}% vs previous)", (makespan_s / p - 1.0) * 100.0))
            .unwrap_or_default();
        println!(
            "{:>4}x{:<3} {:>13.2}h {:>15.1}s{delta}",
            slots,
            slots,
            makespan_s / 3600.0,
            report.mean_duration_ms() / 1000.0
        );
        prev = Some(makespan_s);
    }

    // Second what-if: what happens when the input data doubles (§VII trace
    // scaling)? Scale every job and re-ask the 64-slot question.
    let mut rng = SeededRng::new(99);
    for job in trace.jobs.iter_mut() {
        // production datasets rarely double uniformly — jitter the factor
        let f = rng.uniform(1.8, 2.2);
        job.template = simmr_trace::scale_template(&job.template, f).into();
    }
    let report = facade.run(&scenario(&trace, 64)).expect("scaled scenario runs").report;
    println!(
        "\nafter ~2x data growth on 64x64 slots: makespan {:.2} h, mean job {:.1}s",
        report.makespan.as_secs_f64() / 3600.0,
        report.mean_duration_ms() / 1000.0
    );
    println!("=> decide whether to buy nodes before the data arrives, not after.");
}
