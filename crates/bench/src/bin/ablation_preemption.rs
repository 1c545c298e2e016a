//! Ablation: task preemption vs the Figure 7(a) "bump".
//!
//! §V-B: *"There is a slight 'bump' around the mean arrival time of 100s.
//! On closer inspection we found that this is caused because the scheduler
//! does not pre-empt tasks themselves."* We add kill-and-requeue map
//! preemption to MaxEDF (`maxedf-p`) and rerun the Figure 7(a) sweep: if
//! the paper's diagnosis is right, the preemptive variant should flatten
//! the bump (at the cost of wasted, re-executed work).

use simmr_bench::csvout::write_csv;
use simmr_bench::workloads::permute_with_exponential_arrivals;
use simmr_cluster::{ClusterConfig, ClusterPolicy, ClusterSim};
use simmr_serve::{attach_deadlines_with, ScenarioSpec, SimFacade, TraceRef};
use simmr_stats::SeededRng;
use simmr_trace::profile_history;
use simmr_types::{JobSpec, JobTemplate, SimTime, WorkloadTrace};

fn reps() -> usize {
    std::env::var("SIMMR_REPS").ok().and_then(|v| v.parse().ok()).unwrap_or(200)
}

fn suite_templates() -> Vec<JobTemplate> {
    let mut out = Vec::new();
    for (i, model) in simmr_bench::suite_models(&[0, 1, 2]).into_iter().enumerate() {
        let mut sim =
            ClusterSim::new(ClusterConfig::paper_testbed(), ClusterPolicy::Fifo, 0xAB7 + i as u64);
        sim.submit(model, SimTime::ZERO, None);
        let run = sim.run();
        out.push(profile_history(&run.history).expect("profiles")[0].template.clone());
    }
    out
}

fn one_run(templates: &[JobTemplate], mean_ia_ms: f64, policy: &str, seed: u64) -> f64 {
    let mut rng = SeededRng::new(seed);
    let mut trace = WorkloadTrace::new("preemption", "ablation");
    for t in templates {
        trace.push(JobSpec::new(t.clone(), SimTime::ZERO));
    }
    permute_with_exponential_arrivals(&mut trace, mean_ia_ms, &mut rng);
    attach_deadlines_with(&mut trace, 1.0, 64, 64, &mut rng);
    // deadlines are stamped above, so the spec carries no deadline_factor
    let spec = ScenarioSpec::new(TraceRef::Inline(trace), policy.parse().expect("policy exists"));
    SimFacade::new().run(&spec).expect("scenario runs").report.total_relative_deadline_exceeded()
}

fn average(templates: &[JobTemplate], mean_ia_ms: f64, policy: &str, reps: usize) -> f64 {
    simmr_stats::parallel_mean(reps, |r| {
        one_run(templates, mean_ia_ms, policy, 0xAB7_0000 + r as u64 * 31)
    })
}

fn main() {
    eprintln!("[preemption] profiling suite jobs ...");
    let templates = suite_templates();
    let reps = reps();
    eprintln!("[preemption] {reps} repetitions per point (df = 1, the Figure 7a setup)");

    println!("{:>12} {:>14} {:>16} {:>9}", "mean_ia_s", "maxedf", "maxedf_preempt", "change%");
    let mut rows = Vec::new();
    for &ia in &[1.0e3, 1.0e4, 1.0e5, 1.0e6, 1.0e7] {
        let plain = average(&templates, ia, "maxedf", reps);
        let preempt = average(&templates, ia, "maxedf-p", reps);
        let change = if plain > 0.0 { (preempt / plain - 1.0) * 100.0 } else { 0.0 };
        println!("{:>12.0} {:>14.2} {:>16.2} {:>+9.1}", ia / 1000.0, plain, preempt, change);
        rows.push(format!("{},{plain},{preempt}", ia / 1000.0));
    }
    write_csv("ablation_preemption", "mean_interarrival_s,maxedf,maxedf_preemptive", &rows);
    println!(
        "\nThe paper's diagnosis predicts the largest improvement at ~100 s mean\n\
         inter-arrival (the bump), shrinking elsewhere; preemption trades the\n\
         improvement against re-executed (killed) work at high arrival rates."
    );
}
