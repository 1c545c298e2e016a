//! # simmr-stats
//!
//! Statistics substrate for SimMR-RS.
//!
//! The paper leans on a handful of statistical tools:
//!
//! * **synthetic trace generation** needs parametric samplers — most
//!   importantly the LogNormal distributions fitted to the Facebook workload
//!   in §V-C (`LN(9.9511, 1.6764)` for maps, `LN(12.375, 1.6262)` for
//!   reduces, milliseconds);
//! * **Table I** compares task-duration distributions across executions with
//!   the *symmetric Kullback-Leibler divergence*;
//! * **Figure 3** plots empirical CDFs of task durations;
//! * the Facebook fit is selected by the *Kolmogorov-Smirnov* statistic over
//!   a family of candidate distributions.
//!
//! All of these live here, self-contained on the seeded RNG ([`rng`]): samplers
//! ([`dist`]), empirical CDFs ([`cdf`]), histogram-based symmetric KL
//! ([`kl`]), K-S statistics ([`ks`]), maximum-likelihood/method-of-moments
//! fitting ([`fit`]), and scalar summaries ([`summary`]). The
//! scoped-thread sweep fan-out ([`par`]) also lives here so both the
//! experiment harness and the serve layer can share it.

pub mod cdf;
pub mod dist;
pub mod fit;
pub mod kl;
pub mod ks;
pub mod par;
pub mod rng;
pub mod summary;

pub use cdf::EmpiricalCdf;
pub use dist::{Dist, Distribution};
pub use fit::{fit_best, fit_exponential, fit_lognormal, fit_normal, FitReport};
pub use kl::{symmetric_kl, KlOptions};
pub use ks::{ks_two_sample, ks_vs_dist};
pub use par::{parallel_mean, parallel_sweep};
pub use rng::SeededRng;
pub use summary::{percentile, Summary};
