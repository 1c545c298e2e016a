//! Workload construction shared by the experiment binaries.

use simmr_stats::{Dist, Distribution, SeededRng};
use simmr_types::{DurationMs, SimTime, WorkloadTrace};

/// The 18 application-on-dataset job models of §IV-C (6 apps × 3 datasets),
/// or a subset by dataset index.
pub fn suite_models(datasets: &[usize]) -> Vec<simmr_apps::JobModel> {
    simmr_apps::standard_suite(datasets)
}

/// Randomly permutes job order and re-draws exponential arrivals with the
/// given mean (the §V-B workload construction: *"an equally probable random
/// permutation of arrival of these jobs ... inter-arrival time of the jobs
/// is exponential"*).
pub fn permute_with_exponential_arrivals(
    trace: &mut WorkloadTrace,
    mean_interarrival_ms: f64,
    rng: &mut SeededRng,
) {
    rng.shuffle(&mut trace.jobs);
    let dist = Dist::Exponential { mean: mean_interarrival_ms.max(0.0) };
    let mut clock = SimTime::ZERO;
    for job in trace.jobs.iter_mut() {
        job.arrival = clock;
        if mean_interarrival_ms > 0.0 {
            clock += dist.sample(rng).max(0.0) as DurationMs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmr_types::{JobSpec, JobTemplate};

    fn template(maps: usize, map_ms: u64) -> JobTemplate {
        JobTemplate::new("t", vec![map_ms; maps], vec![10], vec![20; 2], vec![30; 2]).unwrap()
    }

    /// A job's deadline at factor 1 from the one stamping function.
    fn df_one_deadline_ms(template: &JobTemplate, m: usize, r: usize) -> u64 {
        let mut trace = WorkloadTrace::new("t", "test");
        trace.push(JobSpec::new(template.clone(), SimTime::ZERO));
        simmr_serve::attach_deadlines_with(&mut trace, 1.0, m, r, &mut SeededRng::new(2));
        trace.jobs[0].deadline.unwrap().as_millis()
    }

    /// At factor 1 the stamped deadline is the standalone runtime, which
    /// for map-only jobs is wave math.
    #[test]
    fn standalone_runtime_matches_wave_math() {
        // 8 maps of 1000ms on 4 slots = 2 waves = 2000ms, plus reduces
        let rt = df_one_deadline_ms(&template(8, 1000), 4, 4);
        assert!(rt >= 2000, "{rt}");
        // map-only exact check
        let t = JobTemplate::new("m", vec![1000; 8], vec![], vec![], vec![]).unwrap();
        assert_eq!(df_one_deadline_ms(&t, 4, 4), 2000);
        assert_eq!(df_one_deadline_ms(&t, 8, 8), 1000);
    }

    /// At factor 1 the stamped deadline equals a standalone FIFO run of
    /// the job computed apart from the stamping.
    #[test]
    fn df_one_pins_deadline_to_runtime() {
        let t = template(4, 500);
        let mut single = WorkloadTrace::new("standalone", "test");
        single.push(JobSpec::new(t.clone(), SimTime::ZERO));
        let t_j = simmr_core::SimulatorEngine::new(
            simmr_core::EngineConfig::new(4, 4),
            &single,
            Box::new(simmr_sched::FifoPolicy::new()),
        )
        .run()
        .jobs[0]
            .duration();
        assert_eq!(df_one_deadline_ms(&t, 4, 4), t_j);
    }

    #[test]
    fn permutation_rewrites_arrivals() {
        let mut trace = WorkloadTrace::new("t", "test");
        for i in 0..50 {
            trace.push(JobSpec::new(template(1 + i % 3, 100), SimTime::from_secs(999)));
        }
        let mut rng = SeededRng::new(3);
        permute_with_exponential_arrivals(&mut trace, 10_000.0, &mut rng);
        assert_eq!(trace.jobs[0].arrival, SimTime::ZERO);
        let mut prev = SimTime::ZERO;
        for job in &trace.jobs {
            assert!(job.arrival >= prev);
            prev = job.arrival;
        }
        // mean gap should be in the vicinity of 10s
        let span = trace.last_arrival().unwrap().as_millis() as f64 / 49.0;
        assert!((span / 10_000.0 - 1.0).abs() < 0.5, "mean gap {span}");
    }

    #[test]
    fn suite_has_expected_shape() {
        assert_eq!(suite_models(&[0, 1, 2]).len(), 18);
        assert_eq!(suite_models(&[1]).len(), 6);
    }
}
