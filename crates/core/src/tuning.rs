//! Autotuning glue: the real micro-trial runner for `lqcd-tune` and the
//! policy resolution the solve entry points take.
//!
//! `lqcd-tune`'s [`Tuner`] is closure-based — it knows nothing about
//! operators or communicators. This module supplies the Wilson-clover
//! dslash trial: one round launches a fresh in-process world on the
//! candidate partition scheme, applies the candidate's interior thread
//! count, bit-compares one overlapped apply against the blocking
//! reference path, and times `applies` applies of the real overlapped
//! pipeline after warm-up, behind barriers, max over ranks. A staggered
//! request takes no tuned parameter, so no asqtad trial exists. On top
//! sit [`tune_wilson`] (the one-phase search, decided by the tuner's
//! alternating-rounds rule) and [`resolve`], which turns a
//! [`TunePolicy`] into the grid and the [`TuneParam`] a
//! [`WilsonSolve::tuned`](crate::WilsonSolve::tuned) request applies.
//! See DESIGN.md, "Autotuning".

use crate::problem::WilsonProblem;
use lqcd_comms::{run_on_grid, Communicator};
use lqcd_dirac::{BoundaryMode, OverlapHost};
use lqcd_lattice::{PartitionScheme, ProcessGrid};
use lqcd_tune::{TrialOutcome, TuneCache, TuneKey, TuneParam, TunePolicy, TuneReport, Tuner};
use lqcd_util::trace::MetricsRegistry;
use lqcd_util::Result;
use std::time::Instant;

/// The tune key of the Wilson-clover dslash.
pub fn wilson_dslash_key(problem: &WilsonProblem, ranks: usize) -> TuneKey {
    TuneKey::new("wilson_clover/dslash", problem.global, ranks)
}

/// Resolve `policy` for the solve `key` names: the process grid to run
/// on and the tuned configuration to apply. `Off` (or a cache miss under
/// `Tuned`) gives the hardcoded defaults — ZT partitioning and no
/// [`TuneParam`]; `Fixed` and a `Tuned` hit give the parameter's own
/// scheme.
pub fn resolve(policy: &TunePolicy, key: &TuneKey) -> Result<(ProcessGrid, Option<TuneParam>)> {
    let param = policy.resolve(key)?;
    let scheme = param.map_or(PartitionScheme::ZT, |p| p.scheme);
    Ok((scheme.grid(key.global_dims(), key.ranks)?, param))
}

/// One round of the Wilson-clover dslash micro-trial (see [`Tuner`]):
/// launch `param.scheme`'s world, build each rank's operator and source,
/// apply the candidate interior thread count, and time `tuner.applies`
/// applies of the real overlapped pipeline after `tuner.warmup` untimed
/// ones. The trial unit is one dslash apply; the bitwise guard compares
/// one overlapped apply against `dslash_sequential` on every rank.
pub fn wilson_dslash_trial(
    problem: &WilsonProblem,
    ranks: usize,
    tuner: &Tuner,
    param: &TuneParam,
) -> Result<TrialOutcome> {
    let grid = param.scheme.grid(problem.global, ranks)?;
    let (warmup, applies) = (tuner.warmup, tuner.applies);
    let results = run_on_grid(grid.clone(), |mut comm| -> Result<(f64, bool)> {
        let op = problem.build_operator(&mut comm, &grid)?;
        let mut src = problem.rhs(&op);
        op.set_interior_threads(param.interior_threads);
        let mut out = op.alloc(src.parity().other());
        let mut reference = op.alloc(src.parity().other());
        op.dslash_sequential(&mut reference, &mut src, &mut comm, BoundaryMode::Full)?;
        op.dslash(&mut out, &mut src, &mut comm, BoundaryMode::Full)?;
        let identical =
            reference.body().iter().zip(out.body()).all(|(a, b)| a.to_bits() == b.to_bits());
        for _ in 0..warmup {
            op.dslash(&mut out, &mut src, &mut comm, BoundaryMode::Full)?;
        }
        comm.barrier()?;
        let t = Instant::now();
        for _ in 0..applies {
            op.dslash(&mut out, &mut src, &mut comm, BoundaryMode::Full)?;
        }
        comm.barrier()?;
        let mut wall = [t.elapsed().as_secs_f64()];
        comm.allreduce_max(&mut wall)?;
        Ok((wall[0] / applies as f64, identical))
    });
    let per_rank = results.into_iter().collect::<Result<Vec<_>>>()?;
    let bit_identical = per_rank.iter().all(|&(_, id)| id);
    Ok(TrialOutcome { secs_per_unit: per_rank[0].0, bit_identical })
}

/// The most interior workers one of `ranks` co-resident ranks can run
/// without oversubscribing the host: its share of the cores,
/// `max(1, cores / ranks)`.
pub fn interior_thread_cap(ranks: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cores / ranks.max(1)).max(1)
}

/// The tuner of a `ranks`-rank world: the thread axis goes up to
/// `max_threads`, but no further than [`interior_thread_cap`].
fn dslash_tuner(ranks: usize, max_threads: usize) -> Tuner {
    Tuner::new(TuneParam::baseline(1), max_threads.min(interior_thread_cap(ranks)))
}

/// Tune the Wilson-clover dslash's partition scheme and interior threads
/// on a `ranks`-rank world. The thread axis stops at each rank's share
/// of the host's cores ([`interior_thread_cap`]). The cache is consulted
/// first — a warm cache runs zero trials.
pub fn tune_wilson(
    problem: &WilsonProblem,
    ranks: usize,
    max_threads: usize,
    cache: &mut TuneCache,
    metrics: &mut MetricsRegistry,
) -> Result<TuneReport> {
    let tuner = dslash_tuner(ranks, max_threads);
    tuner.tune(&wilson_dslash_key(problem, ranks), cache, metrics, |param| {
        wilson_dslash_trial(problem, ranks, &tuner, param)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::{solve_wilson, LadderChoice, WilsonSolve};
    use lqcd_tune::host_fingerprint;

    fn quick_problem() -> WilsonProblem {
        let mut p = WilsonProblem::small();
        p.tol = 1e-6;
        p.gcr.tol = 1e-6;
        p
    }

    /// The request a policy resolves to, solved on 4 ranks.
    fn solve_under(p: &WilsonProblem, policy: &TunePolicy) -> Vec<crate::WilsonSolveOutcome> {
        let (grid, param) = resolve(policy, &wilson_dslash_key(p, 4)).unwrap();
        let request = param.map_or(WilsonSolve::gcr_dd(LadderChoice::Double), WilsonSolve::tuned);
        solve_wilson(p, grid, request).into_result().unwrap()
    }

    fn plain(p: &WilsonProblem, grid: ProcessGrid) -> Vec<crate::WilsonSolveOutcome> {
        solve_wilson(p, grid, WilsonSolve::gcr_dd(LadderChoice::Double)).into_result().unwrap()
    }

    #[test]
    fn off_policy_matches_the_plain_driver_bitwise() {
        let p = quick_problem();
        let grid = PartitionScheme::ZT.grid(p.global, 4).unwrap();
        let plain = plain(&p, grid);
        let tuned = solve_under(&p, &TunePolicy::Off);
        for (a, b) in plain.iter().zip(&tuned) {
            assert_eq!(a.solution_norm2.to_bits(), b.solution_norm2.to_bits());
        }
    }

    #[test]
    fn fixed_baseline_policy_is_bit_identical() {
        let p = quick_problem();
        // The thread count is scheduling-only, so a Fixed policy at the
        // baseline point must reproduce the plain driver bit for bit.
        let param = TuneParam::baseline(2);
        let grid = param.scheme.grid(p.global, 4).unwrap();
        let plain = plain(&p, grid);
        let tuned = solve_under(&p, &TunePolicy::Fixed(param));
        for (a, b) in plain.iter().zip(&tuned) {
            assert!(b.stats.converged);
            assert_eq!(a.solution_norm2.to_bits(), b.solution_norm2.to_bits());
        }
    }

    #[test]
    fn dslash_trial_guards_and_times_real_applies() {
        let p = quick_problem();
        let mut tuner = Tuner::new(TuneParam::baseline(1), 2);
        tuner.warmup = 1;
        tuner.applies = 3;
        let param = TuneParam::baseline(2);
        let out = wilson_dslash_trial(&p, 4, &tuner, &param).unwrap();
        assert!(out.bit_identical, "overlap must stay bit-identical to the reference");
        assert!(out.secs_per_unit > 0.0 && out.secs_per_unit.is_finite());
    }

    #[test]
    fn thread_axis_stops_at_the_rank_core_share() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(interior_thread_cap(1), cores);
        assert_eq!(interior_thread_cap(2 * cores), 1);
        for ranks in [1, 2, 4, 16] {
            let cap = interior_thread_cap(ranks);
            assert!(cap >= 1 && cap * ranks <= cores.max(ranks));
            let threads = dslash_tuner(ranks, 64).space.threads;
            assert!(threads.iter().all(|&t| t <= cap), "{ranks} ranks: {threads:?} past {cap}");
            assert!(threads.contains(&1));
        }
    }

    #[test]
    fn tune_keys_separate_operator_and_host() {
        let p = quick_problem();
        let dk = wilson_dslash_key(&p, 4).cache_key();
        assert!(dk.starts_with("wilson_clover/dslash@8x8x8x8/r4/"), "{dk}");
        assert_ne!(dk, wilson_dslash_key(&p, 2).cache_key());
        assert!(dk.contains(&host_fingerprint()));
    }
}
