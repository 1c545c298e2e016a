//! End-to-end validation pipeline tests (§IV methodology):
//! testbed execution → MRProfiler → SimMR / Mumak replay → accuracy.

use simmr_bench::pipeline::{
    accuracy_rows, mean_abs_error, replay_in_mumak, replay_in_simmr, run_testbed,
};
use simmr_cluster::{ClusterConfig, ClusterPolicy};
use simmr_integration::small_job;
use simmr_mumak::MumakConfig;
use simmr_trace::{profile_history, RumenTrace};
use simmr_types::SimTime;

fn config() -> ClusterConfig {
    ClusterConfig::tiny(8)
}

fn workload() -> Vec<(simmr_apps::JobModel, SimTime, Option<SimTime>)> {
    vec![
        (small_job(simmr_apps::AppKind::WordCount, 24, 8), SimTime::ZERO, None),
        (small_job(simmr_apps::AppKind::Sort, 16, 8), SimTime::from_secs(5), None),
        (small_job(simmr_apps::AppKind::Bayes, 12, 4), SimTime::from_secs(40), None),
    ]
}

#[test]
fn simmr_replay_accuracy_under_fifo() {
    let run = run_testbed(workload(), ClusterPolicy::Fifo, config(), 101);
    let report = replay_in_simmr(&run.history, "fifo", 8, 8, &[None, None, None]);
    let rows = accuracy_rows(&run, &report);
    assert_eq!(rows.len(), 3);
    let err = mean_abs_error(&rows);
    assert!(err < 10.0, "FIFO replay error {err:.2}% too large: {rows:?}");
}

#[test]
fn simmr_replay_accuracy_under_edf_policies() {
    for (policy, name) in [(ClusterPolicy::MaxEdf, "maxedf"), (ClusterPolicy::MinEdf, "minedf")] {
        let deadline = Some(SimTime::from_secs(600));
        let jobs: Vec<_> = workload().into_iter().map(|(m, a, _)| (m, a, deadline)).collect();
        let deadlines: Vec<Option<SimTime>> = jobs.iter().map(|(_, _, d)| *d).collect();
        let run = run_testbed(jobs, policy, config(), 202);
        let report = replay_in_simmr(&run.history, name, 8, 8, &deadlines);
        let rows = accuracy_rows(&run, &report);
        let err = mean_abs_error(&rows);
        // EDF replays can differ more when the two sides size allocations
        // from different profile sources — but must stay in the ballpark
        assert!(err < 25.0, "{name} replay error {err:.2}%: {rows:?}");
    }
}

#[test]
fn mumak_always_underestimates_and_simmr_beats_it() {
    let run = run_testbed(workload(), ClusterPolicy::Fifo, config(), 303);
    let simmr = replay_in_simmr(&run.history, "fifo", 8, 8, &[None, None, None]);
    let mumak =
        replay_in_mumak(&run.history, MumakConfig { num_trackers: 8, ..MumakConfig::default() });
    let simmr_rows = accuracy_rows(&run, &simmr);
    let mumak_rows = accuracy_rows(&run, &mumak);
    for row in &mumak_rows {
        assert!(
            row.error_pct() <= 0.5,
            "Mumak overestimated {}: {:+.2}%",
            row.name,
            row.error_pct()
        );
    }
    assert!(
        mean_abs_error(&simmr_rows) < mean_abs_error(&mumak_rows),
        "SimMR ({:.2}%) should beat Mumak ({:.2}%)",
        mean_abs_error(&simmr_rows),
        mean_abs_error(&mumak_rows)
    );
}

#[test]
fn profiler_and_rumen_agree_on_task_counts() {
    let run = run_testbed(workload(), ClusterPolicy::Fifo, config(), 404);
    let profiled = profile_history(&run.history).unwrap();
    let rumen = RumenTrace::from_history(&run.history).unwrap();
    assert_eq!(profiled.len(), rumen.jobs.len());
    for (p, r) in profiled.iter().zip(&rumen.jobs) {
        assert_eq!(p.template.num_maps, r.maps().len());
        assert_eq!(p.template.num_reduces, r.reduces().len());
        assert_eq!(p.submit, r.submit);
    }
}

#[test]
fn simmr_simulation_loop_is_faster_than_mumaks() {
    // compare the simulation loops alone (parsing excluded, both traces
    // pre-built); SimMR must win — it processes no heartbeat events
    use simmr_core::{EngineConfig, SimulatorEngine};
    use simmr_sched::FifoPolicy;
    let run = run_testbed(workload(), ClusterPolicy::Fifo, config(), 505);
    let trace = simmr_trace::trace_from_history(&run.history, "perf").unwrap();
    let rumen = RumenTrace::from_history(&run.history).unwrap();
    let mumak =
        simmr_mumak::MumakSim::new(MumakConfig { num_trackers: 8, ..MumakConfig::default() });
    let config = EngineConfig::new(8, 8);
    let reps = 20;
    let t0 = std::time::Instant::now();
    let mut simmr_events = 0;
    for _ in 0..reps {
        simmr_events = SimulatorEngine::new(config, &trace, Box::new(FifoPolicy::new()))
            .run()
            .events_processed;
    }
    let simmr_t = t0.elapsed();
    let t0 = std::time::Instant::now();
    let mut mumak_events = 0;
    for _ in 0..reps {
        mumak_events = mumak.run(&rumen).events_processed;
    }
    let mumak_t = t0.elapsed();
    if config.invariants_enabled() {
        // The `check-invariants` feature arms the checker in every SimMR
        // engine (Mumak has none), so the clocks would race an audited
        // loop against a bare one. The claim behind the race holds
        // deterministically: SimMR simulates fewer events.
        assert!(
            simmr_events < mumak_events,
            "with the invariant checker forced on, SimMR's event count ({simmr_events}) should \
             stay below Mumak's ({mumak_events}); wall clocks are not compared"
        );
    } else {
        assert!(
            simmr_t < mumak_t,
            "SimMR ({simmr_t:?}) should simulate faster than Mumak ({mumak_t:?})"
        );
    }
}

#[test]
fn event_counts_reflect_architectures() {
    let run = run_testbed(workload(), ClusterPolicy::Fifo, config(), 606);
    let simmr = replay_in_simmr(&run.history, "fifo", 8, 8, &[None, None, None]);
    let mumak =
        replay_in_mumak(&run.history, MumakConfig { num_trackers: 8, ..MumakConfig::default() });
    // Mumak simulates heartbeats: it must process far more events than
    // SimMR's task-level queue (§IV-E's root cause)
    assert!(
        mumak.events_processed > 3 * simmr.events_processed,
        "mumak {} vs simmr {}",
        mumak.events_processed,
        simmr.events_processed
    );
}
