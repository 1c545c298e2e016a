//! Ablation: the MinEDF sizing basis (lower bound / mean of bounds / upper
//! bound of the ARIA model). Lower is aggressive and overruns; Upper is
//! conservative and converges to MaxEDF under tight deadlines; the mean
//! (the paper's choice) balances the two.

use simmr_bench::csvout::write_csv;
use simmr_core::{EngineConfig, JobQueue, SchedulerPolicy, SimulatorEngine};
use simmr_model::{min_slots_for_deadline_with, BoundBasis, JobProfileSummary, SlotAllocation};
use simmr_serve::attach_deadlines;
use simmr_trace::FacebookWorkload;
use simmr_types::{DurationMs, JobId, JobTemplate};
use std::collections::HashMap;

/// MinEDF with a configurable sizing basis (the library default is
/// `Estimate`; this harness-local policy exposes all three).
struct BasisMinEdf {
    basis: BoundBasis,
    wanted: HashMap<JobId, SlotAllocation>,
}

impl SchedulerPolicy for BasisMinEdf {
    fn name(&self) -> &str {
        "minedf-basis"
    }
    fn on_job_arrival(
        &mut self,
        id: JobId,
        template: &JobTemplate,
        relative_deadline: Option<DurationMs>,
        cluster: simmr_types::ClusterSpec,
    ) {
        let alloc = match relative_deadline {
            Some(d) => min_slots_for_deadline_with(
                &JobProfileSummary::from_template(template),
                d,
                cluster.map_slots,
                cluster.reduce_slots,
                self.basis,
            ),
            None => SlotAllocation {
                maps: cluster.map_slots.min(template.num_maps),
                reduces: cluster.reduce_slots.min(template.num_reduces),
            },
        };
        self.wanted.insert(id, alloc);
    }
    fn on_job_departure(&mut self, id: JobId) {
        self.wanted.remove(&id);
    }
    fn choose_next_map_task(&mut self, q: &JobQueue) -> Option<JobId> {
        q.entries()
            .iter()
            .filter(|e| {
                e.has_schedulable_map()
                    && self.wanted.get(&e.id).is_none_or(|w| e.running_maps < w.maps)
            })
            .min_by_key(|e| e.edf_key())
            .map(|e| e.id)
    }
    fn choose_next_reduce_task(&mut self, q: &JobQueue) -> Option<JobId> {
        q.entries()
            .iter()
            .filter(|e| {
                e.has_schedulable_reduce()
                    && self.wanted.get(&e.id).is_none_or(|w| e.running_reduces < w.reduces)
            })
            .min_by_key(|e| e.edf_key())
            .map(|e| e.id)
    }
}

fn main() {
    println!("== Ablation: MinEDF bound basis (df = 1.5, 100 Facebook jobs, 20 reps) ==");
    println!("{:>10} {:>10} {:>14} {:>12}", "basis", "missed", "rel_exceeded", "mean_dur_s");
    let mut rows = Vec::new();
    for (label, basis) in [
        ("lower", BoundBasis::Lower),
        ("estimate", BoundBasis::Estimate),
        ("upper", BoundBasis::Upper),
    ] {
        let mut missed = 0usize;
        let mut exceeded = 0.0;
        let mut dur = 0.0;
        let reps = 20;
        for rep in 0..reps {
            let mut trace = FacebookWorkload { mean_interarrival_ms: 60_000.0 }.generate(100, rep);
            attach_deadlines(&mut trace, 1.5, 64, 64, rep ^ 0xBA515);
            let report = SimulatorEngine::new(
                EngineConfig::new(64, 64),
                &trace,
                Box::new(BasisMinEdf { basis, wanted: HashMap::new() }),
            )
            .run();
            missed += report.missed_deadlines();
            exceeded += report.total_relative_deadline_exceeded();
            dur += report.mean_duration_ms();
        }
        let reps_f = reps as f64;
        println!(
            "{:>10} {:>10} {:>14.2} {:>12.1}",
            label,
            missed,
            exceeded / reps_f,
            dur / reps_f / 1000.0
        );
        rows.push(format!("{label},{missed},{},{}", exceeded / reps_f, dur / reps_f));
    }
    write_csv("ablation_basis", "basis,missed_total,rel_exceeded_avg,mean_dur_ms", &rows);
    println!(
        "\nLower sizes too few slots (more misses); Upper over-allocates (behaves\n\
         like MaxEDF under pressure); Estimate — the paper's mean of bounds —\n\
         balances deadline safety against slot conservation."
    );
}
