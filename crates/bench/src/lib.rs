//! # simmr-bench
//!
//! The experiment harness: shared plumbing for regenerating every table and
//! figure of the paper. Each figure/table has a binary in `src/bin/`
//! (`fig1_2_waves`, `fig3_cdfs`, `table1_kl`, `fig5_accuracy`, `fig6_perf`,
//! `fig7_real_edf`, `fig8_facebook_edf`), and `bench_engine` measures
//! the performance claims (engine throughput, recorded in
//! `BENCH_engine.json`).
//!
//! The central abstraction is the validation [`pipeline`]: execute jobs on
//! the fine-grained testbed (`simmr-cluster`), profile its history logs
//! with MRProfiler, replay the extracted trace in SimMR and in Mumak, and
//! compare the three completion times — exactly the paper's §IV
//! methodology.

pub mod csvout;
pub mod pipeline;
pub mod plot;
pub mod workloads;

pub use pipeline::{mean_abs_error, replay_in_mumak, replay_in_simmr, run_testbed, AccuracyRow};
pub use workloads::suite_models;
