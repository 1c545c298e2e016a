//! Synthetic TraceGen (§III-A, §V-C).
//!
//! Generates replayable workloads from statistical descriptions instead of
//! recorded logs — *"this can help evaluate hypothetical workloads and
//! consider what-if scenarios"*. Two layers:
//!
//! * [`SyntheticWorkload`] — fully parametric: distributions for map /
//!   shuffle / reduce durations, job shapes, and an exponential arrival
//!   process;
//! * [`FacebookWorkload`] — the paper's §V-C instantiation: per-task
//!   durations follow the LogNormals fitted to the Facebook production
//!   workload of Zaharia et al. (map `LN(9.9511, 1.6764)` ms, reduce
//!   `LN(12.375, 1.6262)` ms), with job sizes drawn from a binned
//!   approximation of their Table 3 job-size mix.

use std::io;
use std::sync::Arc;

use simmr_stats::{Dist, Distribution, SeededRng};
use simmr_types::{JobSpec, JobTemplate, SimTime, TraceMeta, WorkloadTrace};

use crate::binfmt::{BinError, BinTraceWriter};

/// Shape of one synthetic job class.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticJobSpec {
    /// Class label (becomes part of the job name).
    pub name: String,
    /// Number of map tasks.
    pub num_maps: usize,
    /// Number of reduce tasks.
    pub num_reduces: usize,
    /// Relative frequency of this class in the mix.
    pub weight: f64,
}

/// A parametric workload description.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticWorkload {
    /// Job classes and their mix weights.
    pub classes: Vec<SyntheticJobSpec>,
    /// Per-map-task duration distribution (milliseconds).
    pub map_ms: Dist,
    /// Per-reduce-task *total* duration distribution (milliseconds); split
    /// into shuffle and reduce phases by `shuffle_fraction`.
    pub reduce_ms: Dist,
    /// Fraction of a reduce task's duration spent in the shuffle phase.
    pub shuffle_fraction: f64,
    /// Mean of the exponential job inter-arrival time (milliseconds).
    pub mean_interarrival_ms: f64,
}

impl SyntheticWorkload {
    /// Generates `num_jobs` jobs.
    pub fn generate(&self, num_jobs: usize, seed: u64) -> WorkloadTrace {
        assert!(!self.classes.is_empty(), "workload needs at least one job class");
        let mut rng = SeededRng::new(seed);
        let weights: Vec<f64> = self.classes.iter().map(|c| c.weight).collect();
        let arrival_dist = Dist::Exponential { mean: self.mean_interarrival_ms.max(0.0) };
        let frac = self.shuffle_fraction.clamp(0.0, 1.0);

        let mut trace = WorkloadTrace {
            meta: TraceMeta {
                description: format!(
                    "synthetic workload ({} classes, mean inter-arrival {} ms)",
                    self.classes.len(),
                    self.mean_interarrival_ms
                ),
                source: "synthetic".into(),
                seed: Some(seed),
            },
            jobs: Vec::with_capacity(num_jobs),
        };
        let mut clock = SimTime::ZERO;
        for i in 0..num_jobs {
            let class = &self.classes[rng.weighted_index(&weights)];
            let template =
                self.sample_template(class, format!("{}-{:04}", class.name, i), frac, &mut rng);
            trace.push(JobSpec::new(template, clock));
            if self.mean_interarrival_ms > 0.0 {
                clock += arrival_dist.sample(&mut rng).max(0.0) as u64;
            }
        }
        trace
    }

    /// Samples one concrete template for `class` from the duration
    /// distributions.
    fn sample_template(
        &self,
        class: &SyntheticJobSpec,
        name: String,
        shuffle_fraction: f64,
        rng: &mut SeededRng,
    ) -> JobTemplate {
        let map_durations: Vec<u64> =
            (0..class.num_maps.max(1)).map(|_| self.map_ms.sample(rng).max(1.0) as u64).collect();
        let mut typical = Vec::with_capacity(class.num_reduces);
        let mut first = Vec::with_capacity(class.num_reduces);
        let mut reduce = Vec::with_capacity(class.num_reduces);
        for _ in 0..class.num_reduces {
            let total = self.reduce_ms.sample(rng).max(1.0);
            let shuffle = (total * shuffle_fraction).round() as u64;
            typical.push(shuffle.max(1));
            // first-wave non-overlapping shuffle: roughly half of the
            // typical shuffle remains after the map stage ends
            first.push((shuffle / 2).max(1));
            reduce.push((total as u64).saturating_sub(shuffle).max(1));
        }
        JobTemplate::new(name, map_durations, first, typical, reduce)
            .expect("generated template is structurally valid")
    }

    /// Builds the pooled template table: `variants_per_class` concrete
    /// templates sampled per class, named `{class}-v{variant:02}`.
    ///
    /// Unlike [`Self::generate`] — which samples a fresh template for every
    /// job and therefore defeats the binary format's template interning —
    /// a pool bounds the number of distinct templates regardless of trace
    /// length, so a million-job binary trace stores each class variant once
    /// and every job record is a fixed-stride few-dozen-byte row.
    ///
    /// The pool is drawn from a dedicated RNG stream, so re-generating a
    /// trace with a different job count reuses the identical pool.
    pub fn template_pool(&self, variants_per_class: usize, seed: u64) -> Vec<JobTemplate> {
        assert!(!self.classes.is_empty(), "workload needs at least one job class");
        assert!(variants_per_class > 0, "pool needs at least one variant per class");
        let mut rng = SeededRng::new(seed).fork(POOL_STREAM);
        let frac = self.shuffle_fraction.clamp(0.0, 1.0);
        let mut pool = Vec::with_capacity(self.classes.len() * variants_per_class);
        for class in &self.classes {
            for v in 0..variants_per_class {
                pool.push(self.sample_template(
                    class,
                    format!("{}-v{:02}", class.name, v),
                    frac,
                    &mut rng,
                ));
            }
        }
        pool
    }

    /// Drives the pooled job schedule: for each job, picks a class by mix
    /// weight and a variant uniformly, and advances the exponential arrival
    /// clock. Shared by [`Self::generate_pooled`] and [`Self::write_bin`]
    /// so the materialized and streamed forms of a seed are identical.
    fn each_pooled_job(
        &self,
        num_jobs: usize,
        variants_per_class: usize,
        seed: u64,
        mut emit: impl FnMut(usize, SimTime),
    ) {
        let mut rng = SeededRng::new(seed);
        let weights: Vec<f64> = self.classes.iter().map(|c| c.weight).collect();
        let arrival_dist = Dist::Exponential { mean: self.mean_interarrival_ms.max(0.0) };
        let mut clock = SimTime::ZERO;
        for _ in 0..num_jobs {
            let class = rng.weighted_index(&weights);
            let variant = rng.index(variants_per_class);
            emit(class * variants_per_class + variant, clock);
            if self.mean_interarrival_ms > 0.0 {
                clock += arrival_dist.sample(&mut rng).max(0.0) as u64;
            }
        }
    }

    /// Default metadata for pooled generation.
    fn pooled_meta(&self, variants_per_class: usize, seed: u64) -> TraceMeta {
        TraceMeta {
            description: format!(
                "pooled synthetic workload ({} classes x {variants_per_class} variants, \
                 mean inter-arrival {} ms)",
                self.classes.len(),
                self.mean_interarrival_ms
            ),
            source: "synthetic-pooled".into(),
            seed: Some(seed),
        }
    }

    /// Generates `num_jobs` jobs drawn from a bounded template pool,
    /// materialized as a [`WorkloadTrace`].
    ///
    /// Byte-for-byte equivalent to decoding the output of
    /// [`Self::write_bin`] with the same arguments.
    pub fn generate_pooled(
        &self,
        num_jobs: usize,
        variants_per_class: usize,
        seed: u64,
    ) -> WorkloadTrace {
        let pool: Vec<Arc<JobTemplate>> =
            self.template_pool(variants_per_class, seed).into_iter().map(Arc::new).collect();
        let mut trace = WorkloadTrace {
            meta: self.pooled_meta(variants_per_class, seed),
            jobs: Vec::with_capacity(num_jobs),
        };
        self.each_pooled_job(num_jobs, variants_per_class, seed, |idx, arrival| {
            trace.push(JobSpec::new(Arc::clone(&pool[idx]), arrival));
        });
        trace
    }

    /// Streams `num_jobs` pooled jobs straight into the binary trace format
    /// without ever materializing the trace: memory use is O(pool), not
    /// O(jobs), which is what makes million-job trace generation cheap.
    ///
    /// Pass `meta: None` for the default pooled metadata. Returns the
    /// writer's output (positioned after the trailing record).
    pub fn write_bin<W: io::Write + io::Seek>(
        &self,
        num_jobs: usize,
        variants_per_class: usize,
        seed: u64,
        meta: Option<&TraceMeta>,
        out: W,
    ) -> Result<W, BinError> {
        let pool = self.template_pool(variants_per_class, seed);
        let default_meta = self.pooled_meta(variants_per_class, seed);
        let mut writer = BinTraceWriter::new(out, meta.unwrap_or(&default_meta));
        let ids: Vec<u32> =
            pool.iter().map(|t| writer.intern_template(t)).collect::<Result<_, BinError>>()?;
        let mut failed = None;
        self.each_pooled_job(num_jobs, variants_per_class, seed, |idx, arrival| {
            if failed.is_none() {
                if let Err(e) = writer.push_job(ids[idx], arrival, None) {
                    failed = Some(e);
                }
            }
        });
        match failed {
            Some(e) => Err(e),
            None => writer.finish(),
        }
    }
}

/// Dedicated RNG stream for sampling the template pool, so the pool is
/// independent of the per-job schedule stream.
const POOL_STREAM: u64 = 2;

/// The §V-C Facebook-like workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FacebookWorkload {
    /// Mean exponential inter-arrival time in milliseconds.
    pub mean_interarrival_ms: f64,
}

impl FacebookWorkload {
    /// Job-size mix approximating Table 3 of Zaharia et al. (EuroSys'10):
    /// `(maps, reduces, % of jobs)`. Small jobs dominate; the tail is huge.
    pub const JOB_MIX: [(usize, usize, f64); 9] = [
        (1, 0, 38.0),
        (2, 0, 16.0),
        (10, 3, 14.0),
        (50, 10, 9.0),
        (100, 20, 6.0),
        (200, 50, 6.0),
        (400, 80, 5.0),
        (800, 120, 4.0),
        (2400, 180, 2.0),
    ];

    /// Builds the underlying parametric description.
    pub fn workload(&self) -> SyntheticWorkload {
        SyntheticWorkload {
            classes: Self::JOB_MIX
                .iter()
                .map(|&(m, r, w)| SyntheticJobSpec {
                    name: format!("fb-{m}x{r}"),
                    num_maps: m,
                    num_reduces: r,
                    weight: w,
                })
                .collect(),
            map_ms: Dist::FACEBOOK_MAP_MS,
            reduce_ms: Dist::FACEBOOK_REDUCE_MS,
            // reduce tasks spend most of their time shuffling in the
            // Facebook mix (large fan-in, small reduce functions)
            shuffle_fraction: 0.6,
            mean_interarrival_ms: self.mean_interarrival_ms,
        }
    }

    /// Generates `num_jobs` Facebook-like jobs.
    pub fn generate(&self, num_jobs: usize, seed: u64) -> WorkloadTrace {
        let mut trace = self.workload().generate(num_jobs, seed);
        trace.meta.description = format!(
            "Facebook-like LogNormal workload (mean inter-arrival {} ms)",
            self.mean_interarrival_ms
        );
        trace.meta.source = "synthetic-facebook".into();
        trace
    }

    /// Metadata shared by [`Self::generate_pooled`] and [`Self::write_bin`].
    pub fn pooled_meta(&self, variants_per_class: usize, seed: u64) -> TraceMeta {
        TraceMeta {
            description: format!(
                "pooled Facebook-like LogNormal workload \
                 ({variants_per_class} variants/class, mean inter-arrival {} ms)",
                self.mean_interarrival_ms
            ),
            source: "synthetic-facebook-pooled".into(),
            seed: Some(seed),
        }
    }

    /// Generates `num_jobs` Facebook-like jobs from a bounded template pool
    /// (see [`SyntheticWorkload::template_pool`]).
    pub fn generate_pooled(
        &self,
        num_jobs: usize,
        variants_per_class: usize,
        seed: u64,
    ) -> WorkloadTrace {
        let mut trace = self.workload().generate_pooled(num_jobs, variants_per_class, seed);
        trace.meta = self.pooled_meta(variants_per_class, seed);
        trace
    }

    /// Streams `num_jobs` pooled Facebook-like jobs into the binary trace
    /// format with O(pool) memory. Decodes to exactly the trace
    /// [`Self::generate_pooled`] materializes.
    pub fn write_bin<W: io::Write + io::Seek>(
        &self,
        num_jobs: usize,
        variants_per_class: usize,
        seed: u64,
        out: W,
    ) -> Result<W, BinError> {
        self.workload().write_bin(
            num_jobs,
            variants_per_class,
            seed,
            Some(&self.pooled_meta(variants_per_class, seed)),
            out,
        )
    }
}

/// A multi-tenant workload: Facebook-like jobs tagged with tenant prefixes.
///
/// Each generated job is assigned to a tenant by a seeded weighted choice
/// drawn from a dedicated RNG stream (so adding or re-weighting tenants
/// never perturbs the job shapes or arrivals), and the tenant's name is
/// prepended to the job name. The prefixes line up with the leaf routing
/// of the hierarchical pool-tree policy (`simmr-sched`'s `hier:` spec):
/// a tenant named `prod-etl` produces jobs like `prod-etl-fb-10x3-0042`,
/// which route to the `etl` leaf of `hier:prod{etl,serving},adhoc`.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTenantWorkload {
    /// `(tenant prefix, relative share of jobs)` — weights need not sum
    /// to anything in particular.
    pub tenants: Vec<(String, f64)>,
    /// Mean exponential inter-arrival time in milliseconds.
    pub mean_interarrival_ms: f64,
}

/// Dedicated RNG stream for the tenant assignment.
const TENANT_STREAM: u64 = 1;

impl MultiTenantWorkload {
    /// The three-tenant mix used by the `multi_tenant` example and the
    /// hierarchy acceptance tests: two production tenants plus a noisy
    /// ad-hoc tenant submitting half of all jobs.
    pub fn three_tenant(mean_interarrival_ms: f64) -> Self {
        MultiTenantWorkload {
            tenants: vec![
                ("prod-etl".into(), 3.0),
                ("prod-serving".into(), 2.0),
                ("adhoc".into(), 5.0),
            ],
            mean_interarrival_ms,
        }
    }

    /// Generates `num_jobs` tenant-tagged Facebook-like jobs.
    pub fn generate(&self, num_jobs: usize, seed: u64) -> WorkloadTrace {
        assert!(!self.tenants.is_empty(), "multi-tenant workload needs at least one tenant");
        let mut trace = FacebookWorkload { mean_interarrival_ms: self.mean_interarrival_ms }
            .generate(num_jobs, seed);
        let mut rng = SeededRng::new(seed).fork(TENANT_STREAM);
        let weights: Vec<f64> = self.tenants.iter().map(|&(_, w)| w).collect();
        for job in trace.jobs.iter_mut() {
            let (tenant, _) = &self.tenants[rng.weighted_index(&weights)];
            let template = Arc::make_mut(&mut job.template);
            template.name = format!("{tenant}-{}", template.name).into();
        }
        trace.meta.description = format!(
            "{} tenants ({}) over a {}",
            self.tenants.len(),
            self.tenants.iter().map(|(t, _)| t.as_str()).collect::<Vec<_>>().join(", "),
            trace.meta.description
        );
        trace.meta.source = "synthetic-multi-tenant".into();
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmr_stats::{fit_lognormal, EmpiricalCdf};

    #[test]
    fn generates_requested_count_and_validates() {
        let trace = FacebookWorkload { mean_interarrival_ms: 1000.0 }.generate(100, 1);
        assert_eq!(trace.len(), 100);
        trace.validate().unwrap();
        assert_eq!(trace.meta.seed, Some(1));
    }

    #[test]
    fn deterministic_per_seed() {
        let w = FacebookWorkload { mean_interarrival_ms: 500.0 };
        assert_eq!(w.generate(50, 9), w.generate(50, 9));
        assert_ne!(w.generate(50, 9), w.generate(50, 10));
    }

    #[test]
    fn arrivals_monotone_with_expected_spacing() {
        let trace = FacebookWorkload { mean_interarrival_ms: 2000.0 }.generate(400, 3);
        let mut arrivals: Vec<SimTime> = trace.jobs.iter().map(|j| j.arrival).collect();
        let sorted = {
            let mut s = arrivals.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(arrivals, sorted, "generator emits jobs in arrival order");
        let span = arrivals.pop().unwrap().as_millis() as f64;
        let mean_gap = span / 399.0;
        assert!((mean_gap / 2000.0 - 1.0).abs() < 0.25, "mean gap {mean_gap}");
    }

    #[test]
    fn map_durations_follow_the_fitted_lognormal() {
        let trace = FacebookWorkload { mean_interarrival_ms: 0.0 }.generate(300, 5);
        let all_maps: Vec<f64> = trace
            .jobs
            .iter()
            .flat_map(|j| j.template.map_durations.iter().map(|&d| d as f64))
            .collect();
        assert!(all_maps.len() > 1000);
        match fit_lognormal(&all_maps).unwrap() {
            Dist::LogNormal { mu, sigma } => {
                assert!((mu - 9.9511).abs() < 0.15, "mu={mu}");
                assert!((sigma - 1.6764).abs() < 0.15, "sigma={sigma}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn small_jobs_dominate_the_mix() {
        let trace = FacebookWorkload { mean_interarrival_ms: 0.0 }.generate(1000, 6);
        let tiny = trace.jobs.iter().filter(|j| j.template.num_maps <= 2).count();
        let frac = tiny as f64 / 1000.0;
        assert!((0.46..0.62).contains(&frac), "tiny-job fraction {frac}");
    }

    #[test]
    fn shuffle_reduce_split() {
        let w = SyntheticWorkload {
            classes: vec![SyntheticJobSpec {
                name: "c".into(),
                num_maps: 1,
                num_reduces: 4,
                weight: 1.0,
            }],
            map_ms: Dist::Constant { value: 100.0 },
            reduce_ms: Dist::Constant { value: 1000.0 },
            shuffle_fraction: 0.6,
            mean_interarrival_ms: 0.0,
        };
        let trace = w.generate(1, 0);
        let t = &trace.jobs[0].template;
        assert_eq!(t.typical_shuffle_durations, vec![600; 4]);
        assert_eq!(t.first_shuffle_durations, vec![300; 4]);
        assert_eq!(t.reduce_durations, vec![400; 4]);
    }

    #[test]
    fn zero_interarrival_means_batch() {
        let trace = FacebookWorkload { mean_interarrival_ms: 0.0 }.generate(10, 2);
        assert!(trace.jobs.iter().all(|j| j.arrival == SimTime::ZERO));
    }

    #[test]
    fn multi_tenant_tags_every_job_with_a_tenant_prefix() {
        let w = MultiTenantWorkload::three_tenant(1000.0);
        let trace = w.generate(200, 4);
        assert_eq!(trace.len(), 200);
        trace.validate().unwrap();
        let mut counts = [0usize; 3];
        for job in &trace.jobs {
            let i = w
                .tenants
                .iter()
                .position(|(t, _)| job.template.name.starts_with(&format!("{t}-fb-")))
                .unwrap_or_else(|| panic!("untagged job {}", job.template.name));
            counts[i] += 1;
        }
        // adhoc holds half the weight; a 200-job sample lands near it
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        assert!((0.35..0.65).contains(&(counts[2] as f64 / 200.0)), "{counts:?}");
    }

    #[test]
    fn multi_tenant_deterministic_and_shape_preserving() {
        let w = MultiTenantWorkload::three_tenant(500.0);
        assert_eq!(w.generate(60, 9), w.generate(60, 9));
        // the tenant stream is separate: job shapes and arrivals match the
        // underlying Facebook workload exactly
        let tagged = w.generate(60, 9);
        let plain = FacebookWorkload { mean_interarrival_ms: 500.0 }.generate(60, 9);
        for (t, p) in tagged.jobs.iter().zip(&plain.jobs) {
            assert_eq!(t.arrival, p.arrival);
            assert_eq!(t.template.map_durations, p.template.map_durations);
            assert!(t.template.name.ends_with(&*p.template.name));
        }
    }

    #[test]
    fn pooled_generation_bounds_distinct_templates() {
        let w = FacebookWorkload { mean_interarrival_ms: 1000.0 };
        let trace = w.generate_pooled(500, 4, 11);
        assert_eq!(trace.len(), 500);
        trace.validate().unwrap();
        let distinct: std::collections::BTreeSet<&str> =
            trace.jobs.iter().map(|j| &*j.template.name).collect();
        assert!(
            distinct.len() <= FacebookWorkload::JOB_MIX.len() * 4,
            "{} distinct templates",
            distinct.len()
        );
        assert!(distinct.len() > FacebookWorkload::JOB_MIX.len(), "variants are used");
    }

    #[test]
    fn pooled_generation_deterministic_per_seed() {
        let w = FacebookWorkload { mean_interarrival_ms: 700.0 };
        assert_eq!(w.generate_pooled(80, 3, 5), w.generate_pooled(80, 3, 5));
        assert_ne!(w.generate_pooled(80, 3, 5), w.generate_pooled(80, 3, 6));
    }

    #[test]
    fn streamed_bin_decodes_to_the_materialized_pooled_trace() {
        let w = FacebookWorkload { mean_interarrival_ms: 400.0 };
        let cursor = w.write_bin(250, 4, 13, std::io::Cursor::new(Vec::new())).unwrap();
        let decoded = crate::binfmt::decode_trace(&cursor.into_inner()).unwrap();
        assert_eq!(decoded, w.generate_pooled(250, 4, 13));
    }

    #[test]
    fn decoded_pooled_bin_shares_one_template_per_variant() {
        let w = FacebookWorkload { mean_interarrival_ms: 400.0 };
        let cursor = w.write_bin(400, 8, 17, std::io::Cursor::new(Vec::new())).unwrap();
        let decoded = crate::binfmt::decode_trace(&cursor.into_inner()).unwrap();
        let mut variants: std::collections::HashMap<&str, &Arc<JobTemplate>> = Default::default();
        for job in &decoded.jobs {
            let first = variants.entry(&job.template.name).or_insert(&job.template);
            assert!(Arc::ptr_eq(first, &job.template), "{} copied", job.template.name);
        }
        assert!(variants.len() > FacebookWorkload::JOB_MIX.len(), "variants are used");
    }

    #[test]
    fn pool_is_independent_of_job_count() {
        let w = FacebookWorkload { mean_interarrival_ms: 300.0 }.workload();
        assert_eq!(w.template_pool(3, 21), w.template_pool(3, 21));
        let short = w.generate_pooled(20, 3, 21);
        let long = w.generate_pooled(60, 3, 21);
        assert_eq!(&long.jobs[..20], &short.jobs[..]);
    }

    #[test]
    fn facebook_cdf_matches_reference_lognormal() {
        // the generated reduce durations should track LN(12.375, 1.6262)
        let trace = FacebookWorkload { mean_interarrival_ms: 0.0 }.generate(600, 7);
        let all: Vec<f64> = trace
            .jobs
            .iter()
            .flat_map(|j| {
                j.template
                    .typical_shuffle_durations
                    .iter()
                    .zip(&j.template.reduce_durations)
                    .map(|(&s, &r)| (s + r) as f64)
            })
            .collect();
        if all.len() < 500 {
            return; // unlucky mix seed; other tests cover the mix
        }
        let cdf = EmpiricalCdf::new(&all);
        let median = cdf.quantile(0.5).unwrap();
        let expected = 12.375f64.exp();
        assert!((median / expected).ln().abs() < 0.35, "median {median} vs expected {expected}");
    }
}
