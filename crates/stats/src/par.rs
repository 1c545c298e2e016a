//! Thread fan-out for embarrassingly parallel sweeps.
//!
//! The figure harnesses repeat a simulation hundreds of times with
//! different seeds, and the serve layer fans batched scenario queries out
//! over all cores. [`parallel_sweep`] is the one shared implementation of
//! that pattern (it used to be hand-rolled per binary): repetitions are
//! split into contiguous chunks, one per available core; the calling
//! thread runs the first chunk and scoped threads run the rest. It lives
//! here, below both `simmr-bench` and `simmr-serve`, so either side can
//! use it without depending on the other.

use std::thread;

/// Runs `f(rep)` for every `rep in 0..reps` across all available cores and
/// returns the results in repetition order. The calling thread runs the
/// first chunk itself, so a sweep that fits one chunk spawns no thread.
///
/// `f` must be deterministic per `rep` (seed derived from the index) for
/// sweeps to be reproducible regardless of thread count.
pub fn parallel_sweep<R, F>(reps: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if reps == 0 {
        return Vec::new();
    }
    let threads = thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(reps);
    let chunk = reps.div_ceil(threads);
    let f = &f;
    let run = move |t: usize| (t * chunk..((t + 1) * chunk).min(reps)).map(f).collect::<Vec<R>>();
    thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|t| scope.spawn(move || run(t))).collect();
        let mut out = run(0);
        out.reserve_exact(reps - out.len());
        for h in handles {
            out.extend(h.join().expect("sweep worker panicked"));
        }
        out
    })
}

/// Mean of `f(rep)` over `reps` repetitions, fanned out with
/// [`parallel_sweep`]. Returns 0.0 for `reps == 0`.
pub fn parallel_mean<F>(reps: usize, f: F) -> f64
where
    F: Fn(usize) -> f64 + Sync,
{
    if reps == 0 {
        return 0.0;
    }
    parallel_sweep(reps, f).iter().sum::<f64>() / reps as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_rep_order() {
        let v = parallel_sweep(100, |r| r * 2);
        assert_eq!(v, (0..100).map(|r| r * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_sweep() {
        assert!(parallel_sweep(0, |r| r).is_empty());
        assert_eq!(parallel_mean(0, |_| 1.0), 0.0);
    }

    #[test]
    fn mean_matches_serial() {
        let mean = parallel_mean(37, |r| r as f64);
        assert!((mean - 18.0).abs() < 1e-9);
    }

    #[test]
    fn a_single_rep_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        assert_eq!(parallel_sweep(1, |_| thread::current().id()), vec![caller]);
        // the first chunk of a wider sweep runs there too
        assert_eq!(parallel_sweep(8, |_| thread::current().id())[0], caller);
    }

    #[test]
    fn more_reps_than_cores() {
        let v = parallel_sweep(3, |r| r + 1);
        assert_eq!(v, vec![1, 2, 3]);
    }
}
