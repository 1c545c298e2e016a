//! Figure 5 (§IV-D): simulator accuracy. A workload of three executions of
//! the six applications runs on the testbed under FIFO / MinEDF / MaxEDF;
//! the collected history is profiled and replayed in SimMR (all three
//! policies) and in Mumak (FIFO). Reported per application: actual
//! completion time and the simulators' relative error.
//!
//! Paper reference: SimMR ≤ 2.7% avg / 6.6% max error under FIFO (≤ 3.7% /
//! 8.6% MaxEDF, ≤ 1.1% / 2.7% MinEDF); Mumak 37% avg / 51.7% max,
//! always underestimating.

use simmr_bench::csvout::write_csv;
use simmr_bench::pipeline::{
    accuracy_rows, max_abs_error, mean_abs_error, replay_in_mumak, replay_in_simmr,
    replay_in_simmr_with, run_testbed, AccuracyRow,
};
use simmr_cluster::{ClusterConfig, ClusterPolicy};
use simmr_mumak::MumakConfig;
use simmr_stats::SeededRng;
use simmr_types::SimTime;

/// Builds the 18-job workload (6 apps × 3 datasets = "three executions of
/// the six applications") with spaced arrivals and §V-B deadlines.
fn workload(seed: u64) -> Vec<(simmr_apps::JobModel, SimTime, Option<SimTime>)> {
    let mut rng = SeededRng::new(seed);
    let mut models = simmr_bench::suite_models(&[0, 1, 2]);
    rng.shuffle(&mut models);
    let mut jobs = Vec::new();
    let mut clock = SimTime::ZERO;
    for model in models {
        // deadline: df=2 over the model-estimated standalone runtime; the
        // exact value only matters for the EDF policies' ordering
        let profile = simmr_cluster::estimate_profile(&model, &ClusterConfig::paper_testbed());
        let est = simmr_model::estimate_completion(&profile, 64, 64).predicted() as u64;
        let rel = rng.uniform_u64(est, 2 * est.max(1));
        jobs.push((model, clock, Some(clock + rel)));
        // the paper's validation jobs run mostly in isolation: space the
        // arrivals so queueing delay doesn't mask per-job modeling error
        clock += rng.uniform_u64(400_000, 900_000);
    }
    jobs
}

fn policy_pair(p: ClusterPolicy) -> &'static str {
    match p {
        ClusterPolicy::Fifo => "fifo",
        ClusterPolicy::MaxEdf => "maxedf",
        ClusterPolicy::MinEdf => "minedf",
    }
}

/// Aggregates rows per application (mean actual + mean error).
fn per_app(rows: &[AccuracyRow]) -> Vec<(String, f64, f64)> {
    let mut apps: Vec<String> =
        rows.iter().map(|r| r.name.split('-').next().unwrap_or(&r.name).to_string()).collect();
    apps.sort();
    apps.dedup();
    apps.into_iter()
        .map(|app| {
            let mine: Vec<&AccuracyRow> =
                rows.iter().filter(|r| r.name.starts_with(&app)).collect();
            let actual = mine.iter().map(|r| r.actual_ms as f64).sum::<f64>() / mine.len() as f64;
            let err = mine.iter().map(|r| r.error_pct()).sum::<f64>() / mine.len() as f64;
            (app, actual / 1000.0, err)
        })
        .collect()
}

fn main() {
    let config = ClusterConfig::paper_testbed();
    for (panel, policy) in
        [("a", ClusterPolicy::Fifo), ("b", ClusterPolicy::MinEdf), ("c", ClusterPolicy::MaxEdf)]
    {
        let jobs = workload(0x515 + panel.as_bytes()[0] as u64);
        let deadlines: Vec<Option<SimTime>> = jobs.iter().map(|(_, _, d)| *d).collect();
        // For MinEDF, both sides must size allocations from the same
        // profile source (the paper's shared ARIA profile database): feed
        // SimMR's MinEDF the allocations the testbed derived.
        let presets: std::collections::HashMap<simmr_types::JobId, simmr_model::SlotAllocation> =
            jobs.iter()
                .enumerate()
                .filter_map(|(i, (model, arrival, deadline))| {
                    deadline.map(|d| {
                        let profile = simmr_cluster::estimate_profile(model, &config);
                        let alloc = simmr_model::min_slots_for_deadline(
                            &profile,
                            d.since(*arrival),
                            64,
                            64,
                        );
                        (simmr_types::JobId(i as u32), alloc)
                    })
                })
                .collect();
        let run = run_testbed(jobs, policy, config, 0xACC0 + panel.as_bytes()[0] as u64);
        let simmr = if policy == ClusterPolicy::MinEdf {
            replay_in_simmr_with(
                &run.history,
                Box::new(simmr_sched::EdfPolicy::with_presets(presets)),
                64,
                64,
                &deadlines,
            )
        } else {
            replay_in_simmr(&run.history, policy_pair(policy), 64, 64, &deadlines)
        };
        let simmr_rows = accuracy_rows(&run, &simmr);

        println!("\n== Figure 5({panel}): {} ==", policy.name());
        let mumak_rows = if policy == ClusterPolicy::Fifo {
            let mumak = replay_in_mumak(&run.history, MumakConfig::default());
            Some(accuracy_rows(&run, &mumak))
        } else {
            None
        };

        println!("{:<12} {:>10} {:>11} {:>11}", "app", "actual_s", "simmr_err%", "mumak_err%");
        let mut rows = Vec::new();
        let simmr_apps_agg = per_app(&simmr_rows);
        let mumak_apps_agg = mumak_rows.as_deref().map(per_app);
        for (i, (app, actual, err)) in simmr_apps_agg.iter().enumerate() {
            let mumak_err = mumak_apps_agg
                .as_ref()
                .map(|m| format!("{:+11.2}", m[i].2))
                .unwrap_or_else(|| format!("{:>11}", "-"));
            println!("{app:<12} {actual:>10.1} {err:>+11.2} {mumak_err}");
            rows.push(format!(
                "{app},{actual},{err},{}",
                mumak_apps_agg.as_ref().map(|m| m[i].2.to_string()).unwrap_or_default()
            ));
        }
        println!(
            "SimMR: avg |err| {:.2}%  max |err| {:.2}%",
            mean_abs_error(&simmr_rows),
            max_abs_error(&simmr_rows)
        );
        if let Some(m) = &mumak_rows {
            println!(
                "Mumak: avg |err| {:.2}%  max |err| {:.2}%  (underestimates: {}/{})",
                mean_abs_error(m),
                max_abs_error(m),
                m.iter().filter(|r| r.error_pct() < 0.0).count(),
                m.len()
            );
        }
        write_csv(
            &format!("fig5{panel}_accuracy_{}", policy.name()),
            "app,actual_s,simmr_err_pct,mumak_err_pct",
            &rows,
        );
    }
    // a sanity line used by EXPERIMENTS.md
    let t = simmr_bench::suite_models(&[1])[0].clone();
    let profile = simmr_cluster::estimate_profile(&t, &config);
    let est = simmr_model::estimate_completion(&profile, 64, 64).predicted();
    eprintln!("[model] WordCount-40GB predicted standalone: {:.1}s", est / 1000.0);
}
