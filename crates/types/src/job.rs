//! Job templates and job specifications.
//!
//! A [`JobTemplate`] is the paper's replayable *job profile* (§III-A): the
//! number of map/reduce tasks plus the recorded durations of every map task,
//! the non-overlapping part of the first-wave shuffle, the typical shuffle,
//! and the reduce phase. A [`JobSpec`] pairs a template with an arrival time
//! and an optional deadline, forming one entry of a workload trace.

use crate::time::{DurationMs, SimTime};
use serde::impl_serde_struct;
use std::fmt;
use std::sync::Arc;

/// Errors raised when constructing a malformed [`JobTemplate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplateError {
    /// A job must have at least one map task.
    NoMapTasks,
    /// `map_durations.len()` must equal `num_maps` (same for reduces).
    LengthMismatch {
        /// Which array is inconsistent.
        field: &'static str,
        /// Expected number of entries.
        expected: usize,
        /// Observed number of entries.
        actual: usize,
    },
    /// Jobs with reduce tasks need at least one shuffle sample of each kind.
    MissingShuffleSamples,
}

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateError::NoMapTasks => write!(f, "job template has no map tasks"),
            TemplateError::LengthMismatch { field, expected, actual } => {
                write!(f, "{field}: expected {expected} entries, got {actual}")
            }
            TemplateError::MissingShuffleSamples => {
                write!(f, "job with reduce tasks needs first- and typical-shuffle samples")
            }
        }
    }
}

impl std::error::Error for TemplateError {}

/// Average/maximum summary of one execution phase, used by the ARIA bounds
/// model (`simmr-model`) to predict completion times.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseStats {
    /// Mean task duration in milliseconds.
    pub avg: f64,
    /// Maximum task duration in milliseconds.
    pub max: DurationMs,
    /// Number of samples the summary was computed over.
    pub count: usize,
}

impl PhaseStats {
    /// Summarises a slice of durations; all-zero for an empty slice.
    pub fn from_durations(durations: &[DurationMs]) -> Self {
        if durations.is_empty() {
            return PhaseStats::default();
        }
        let sum: u128 = durations.iter().map(|&d| d as u128).sum();
        PhaseStats {
            avg: sum as f64 / durations.len() as f64,
            max: durations.iter().copied().max().unwrap_or(0),
            count: durations.len(),
        }
    }
}

impl_serde_struct!(PhaseStats { avg, max, count });

/// The paper's *job template*: everything needed to replay one job.
///
/// Durations are in simulated milliseconds. `first_shuffle_durations` holds
/// the **non-overlapping** portion of the first-wave shuffle (the part that
/// extends past the end of the map stage — see §II/§III-A), and
/// `typical_shuffle_durations` holds full shuffle durations for later waves.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTemplate {
    /// Human-readable application name (e.g. `"WordCount-32GB"`).
    ///
    /// Interned as `Arc<str>` so that cloning a template — and stamping
    /// the name onto every per-job result the engine emits — is a
    /// reference-count bump rather than a heap copy.
    pub name: Arc<str>,
    /// Number of map tasks `N_M^J`.
    pub num_maps: usize,
    /// Number of reduce tasks `N_R^J`.
    pub num_reduces: usize,
    /// Duration of each map task (`M^J`), length `num_maps`.
    pub map_durations: Vec<DurationMs>,
    /// Non-overlapping first-wave shuffle durations (`Sh_1^J`).
    pub first_shuffle_durations: Vec<DurationMs>,
    /// Typical (later-wave) shuffle durations (`Sh_typ^J`).
    pub typical_shuffle_durations: Vec<DurationMs>,
    /// Reduce-phase durations (`R^J`), length `num_reduces`.
    pub reduce_durations: Vec<DurationMs>,
}

impl_serde_struct!(JobTemplate {
    name,
    num_maps,
    num_reduces,
    map_durations,
    first_shuffle_durations,
    typical_shuffle_durations,
    reduce_durations,
});

impl JobTemplate {
    /// Validates and builds a template.
    ///
    /// Invariants enforced:
    /// * at least one map task, with exactly `num_maps` recorded durations;
    /// * exactly `num_reduces` reduce durations;
    /// * if `num_reduces > 0`, at least one first-shuffle and one
    ///   typical-shuffle sample (the engine indexes them cyclically).
    pub fn new(
        name: impl Into<Arc<str>>,
        map_durations: Vec<DurationMs>,
        first_shuffle_durations: Vec<DurationMs>,
        typical_shuffle_durations: Vec<DurationMs>,
        reduce_durations: Vec<DurationMs>,
    ) -> Result<Self, TemplateError> {
        if map_durations.is_empty() {
            return Err(TemplateError::NoMapTasks);
        }
        if !reduce_durations.is_empty()
            && (first_shuffle_durations.is_empty() || typical_shuffle_durations.is_empty())
        {
            return Err(TemplateError::MissingShuffleSamples);
        }
        Ok(JobTemplate {
            name: name.into(),
            num_maps: map_durations.len(),
            num_reduces: reduce_durations.len(),
            map_durations,
            first_shuffle_durations,
            typical_shuffle_durations,
            reduce_durations,
        })
    }

    /// Re-checks the structural invariants (used after deserialization).
    pub fn validate(&self) -> Result<(), TemplateError> {
        if self.num_maps == 0 {
            return Err(TemplateError::NoMapTasks);
        }
        if self.map_durations.len() != self.num_maps {
            return Err(TemplateError::LengthMismatch {
                field: "map_durations",
                expected: self.num_maps,
                actual: self.map_durations.len(),
            });
        }
        if self.reduce_durations.len() != self.num_reduces {
            return Err(TemplateError::LengthMismatch {
                field: "reduce_durations",
                expected: self.num_reduces,
                actual: self.reduce_durations.len(),
            });
        }
        if self.num_reduces > 0
            && (self.first_shuffle_durations.is_empty()
                || self.typical_shuffle_durations.is_empty())
        {
            return Err(TemplateError::MissingShuffleSamples);
        }
        Ok(())
    }

    /// Map-task duration for task `index` (replay order).
    pub fn map_duration(&self, index: usize) -> DurationMs {
        self.map_durations[index % self.map_durations.len()]
    }

    /// Reduce-phase duration for reduce task `index`.
    pub fn reduce_duration(&self, index: usize) -> DurationMs {
        self.reduce_durations[index % self.reduce_durations.len()]
    }

    /// Non-overlapping first-wave shuffle duration for reduce task `index`.
    pub fn first_shuffle_duration(&self, index: usize) -> DurationMs {
        if self.first_shuffle_durations.is_empty() {
            0
        } else {
            self.first_shuffle_durations[index % self.first_shuffle_durations.len()]
        }
    }

    /// Typical shuffle duration for reduce task `index`.
    pub fn typical_shuffle_duration(&self, index: usize) -> DurationMs {
        if self.typical_shuffle_durations.is_empty() {
            0
        } else {
            self.typical_shuffle_durations[index % self.typical_shuffle_durations.len()]
        }
    }

    /// Summary statistics of the map phase.
    pub fn map_stats(&self) -> PhaseStats {
        PhaseStats::from_durations(&self.map_durations)
    }

    /// Summary statistics of the typical shuffle phase.
    pub fn shuffle_stats(&self) -> PhaseStats {
        PhaseStats::from_durations(&self.typical_shuffle_durations)
    }

    /// Summary statistics of the first (non-overlapping) shuffle phase.
    pub fn first_shuffle_stats(&self) -> PhaseStats {
        PhaseStats::from_durations(&self.first_shuffle_durations)
    }

    /// Summary statistics of the reduce phase.
    pub fn reduce_stats(&self) -> PhaseStats {
        PhaseStats::from_durations(&self.reduce_durations)
    }

    /// Total serial work in the job (sum of all task durations), useful as a
    /// normalization constant in reports.
    pub fn total_work_ms(&self) -> u128 {
        self.map_durations.iter().map(|&d| d as u128).sum::<u128>()
            + self.typical_shuffle_durations.iter().map(|&d| d as u128).sum::<u128>()
            + self.reduce_durations.iter().map(|&d| d as u128).sum::<u128>()
    }
}

/// One job of a workload trace: a template plus arrival time and deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The replayable profile, shared: a trace's jobs, the engine's job
    /// table and a decoded SIMMRBIN's interned templates all hold the same
    /// allocation, and [`Arc::make_mut`] copies one only when it is edited.
    pub template: Arc<JobTemplate>,
    /// Submission time.
    pub arrival: SimTime,
    /// Optional completion-time goal, as an *absolute* instant.
    ///
    /// The deadline-driven schedulers (MinEDF/MaxEDF) order jobs by this
    /// field; `None` means "no deadline" and sorts last.
    pub deadline: Option<SimTime>,
}

impl_serde_struct!(JobSpec { template, arrival, deadline });

impl JobSpec {
    /// A job arriving at `arrival` with no deadline.
    pub fn new(template: impl Into<Arc<JobTemplate>>, arrival: SimTime) -> Self {
        JobSpec { template: template.into(), arrival, deadline: None }
    }

    /// Attaches an absolute deadline.
    pub fn with_deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Deadline as a relative duration from arrival (None if no deadline).
    pub fn relative_deadline(&self) -> Option<DurationMs> {
        self.deadline.map(|d| d.since(self.arrival))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_template() -> JobTemplate {
        JobTemplate::new("test", vec![10, 20, 30], vec![5], vec![7, 9], vec![4, 6]).unwrap()
    }

    #[test]
    fn constructor_fills_counts() {
        let t = simple_template();
        assert_eq!(t.num_maps, 3);
        assert_eq!(t.num_reduces, 2);
        t.validate().unwrap();
    }

    #[test]
    fn rejects_empty_maps() {
        let err = JobTemplate::new("x", vec![], vec![], vec![], vec![]).unwrap_err();
        assert_eq!(err, TemplateError::NoMapTasks);
    }

    #[test]
    fn rejects_reduces_without_shuffle_samples() {
        let err = JobTemplate::new("x", vec![10], vec![], vec![], vec![5]).unwrap_err();
        assert_eq!(err, TemplateError::MissingShuffleSamples);
    }

    #[test]
    fn map_only_job_is_fine() {
        let t = JobTemplate::new("maponly", vec![10, 10], vec![], vec![], vec![]).unwrap();
        assert_eq!(t.num_reduces, 0);
        assert_eq!(t.first_shuffle_duration(0), 0);
        assert_eq!(t.typical_shuffle_duration(3), 0);
    }

    #[test]
    fn cyclic_indexing() {
        let t = simple_template();
        assert_eq!(t.map_duration(0), 10);
        assert_eq!(t.map_duration(4), 20); // 4 % 3 == 1
        assert_eq!(t.first_shuffle_duration(5), 5);
        assert_eq!(t.typical_shuffle_duration(3), 9); // 3 % 2 == 1
    }

    #[test]
    fn phase_stats() {
        let s = PhaseStats::from_durations(&[10, 20, 30]);
        assert_eq!(s.avg, 20.0);
        assert_eq!(s.max, 30);
        assert_eq!(s.count, 3);
        let empty = PhaseStats::from_durations(&[]);
        assert_eq!(empty.avg, 0.0);
        assert_eq!(empty.count, 0);
    }

    #[test]
    fn total_work() {
        let t = simple_template();
        // maps 60 + typical shuffles 16 + reduces 10
        assert_eq!(t.total_work_ms(), 86);
    }

    #[test]
    fn validate_detects_tampering() {
        let mut t = simple_template();
        t.num_maps = 5;
        assert!(matches!(
            t.validate(),
            Err(TemplateError::LengthMismatch { field: "map_durations", .. })
        ));
    }

    #[test]
    fn job_spec_deadlines() {
        let spec = JobSpec::new(simple_template(), SimTime::from_secs(10));
        assert_eq!(spec.relative_deadline(), None);
        let spec = spec.with_deadline(SimTime::from_secs(25));
        assert_eq!(spec.relative_deadline(), Some(15_000));
    }

    #[test]
    fn serde_round_trip() {
        let spec = JobSpec::new(simple_template(), SimTime::from_secs(1))
            .with_deadline(SimTime::from_secs(2));
        let json = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
