//! Autotuning glue: real micro-trial runners for `lqcd-tune` and the
//! policy resolution the solve entry points take.
//!
//! `lqcd-tune`'s [`Tuner`] is closure-based — it knows nothing about
//! operators or communicators. This module supplies the two Wilson-clover
//! closures: a dslash trial that launches a fresh in-process world per
//! candidate partition scheme, applies the candidate's interior thread
//! count, times the real overlapped pipeline (min-of-rounds behind
//! barriers, max over ranks), and bit-compares one apply against the
//! blocking reference path; and a GCR-DD trial that times whole
//! preconditioned solves under candidate `mr_steps`/`n_kv`. A staggered
//! request takes no tuned parameter, so no asqtad trial exists. On top
//! sit [`tune_wilson`] (the two-phase dslash-then-solver search) and
//! [`resolve`], which turns a [`TunePolicy`] into the grid and the
//! [`TuneParam`] a [`WilsonSolve::tuned`] request applies. See
//! DESIGN.md, "Autotuning".

use crate::drivers::{solve_wilson, WilsonSolve};
use crate::problem::WilsonProblem;
use lqcd_comms::{run_on_grid, Communicator};
use lqcd_dirac::{BoundaryMode, OverlapHost};
use lqcd_lattice::{PartitionScheme, ProcessGrid};
use lqcd_tune::{TrialOutcome, TuneCache, TuneKey, TuneParam, TunePolicy, TuneReport, Tuner};
use lqcd_util::trace::MetricsRegistry;
use lqcd_util::Result;
use std::time::Instant;

/// The tune key of the Wilson-clover dslash phase.
pub fn wilson_dslash_key(problem: &WilsonProblem, ranks: usize) -> TuneKey {
    TuneKey::new("wilson_clover/dslash", problem.global, ranks)
}

/// The tune key of the Wilson-clover GCR-DD solver phase.
pub fn wilson_solver_key(problem: &WilsonProblem, ranks: usize) -> TuneKey {
    TuneKey::new("wilson_clover/gcr_dd", problem.global, ranks)
}

/// Resolve `policy` for the solve `key` names: the process grid to run
/// on and the tuned configuration to apply. `Off` (or a cache miss under
/// `Tuned`) gives the hardcoded defaults — ZT partitioning and no
/// [`TuneParam`], so the problem's own solver parameters run; `Fixed`
/// and a `Tuned` hit give the parameter's own scheme.
pub fn resolve(policy: &TunePolicy, key: &TuneKey) -> Result<(ProcessGrid, Option<TuneParam>)> {
    let param = policy.resolve(key)?;
    let scheme = param.map_or(PartitionScheme::ZT, |p| p.scheme);
    Ok((scheme.grid(key.global_dims(), key.ranks)?, param))
}

/// The Wilson-clover dslash micro-trial (see [`Tuner`]): launch
/// `param.scheme`'s world, build each rank's operator and source, apply
/// the candidate interior thread count, and measure the real overlapped
/// pipeline. The trial unit is one dslash apply; the bitwise guard
/// compares one overlapped apply against `dslash_sequential` on every
/// rank.
pub fn wilson_dslash_trial(
    problem: &WilsonProblem,
    ranks: usize,
    tuner: &Tuner,
    param: &TuneParam,
) -> Result<TrialOutcome> {
    let grid = param.scheme.grid(problem.global, ranks)?;
    let (warmup, rounds, applies) = (tuner.warmup, tuner.rounds, tuner.applies);
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
        let mut best = f64::INFINITY;
        for _ in 0..rounds {
            comm.barrier()?;
            let t = Instant::now();
            for _ in 0..applies {
                op.dslash(&mut out, &mut src, &mut comm, BoundaryMode::Full)?;
            }
            comm.barrier()?;
            let mut wall = [t.elapsed().as_secs_f64()];
            comm.allreduce_max(&mut wall)?;
            best = best.min(wall[0]);
        }
        Ok((best / applies as f64, identical))
    });
    let per_rank = results.into_iter().collect::<Result<Vec<_>>>()?;
    let bit_identical = per_rank.iter().all(|&(_, id)| id);
    Ok(TrialOutcome { secs_per_unit: per_rank[0].0, bit_identical })
}

/// One GCR-DD micro-trial: whole preconditioned solves of `problem`
/// under `param`'s solver axes. The trial unit is one solve. Exact
/// bit-identity against a reference cannot hold here — different
/// `mr_steps`/`n_kv` legitimately change the iterates — so the guard
/// checks what *must* hold: every solve converges, all ranks agree
/// bit-exactly on the global solution norm, and repeated solves of the
/// same candidate are bit-identical run to run (the determinism the
/// warm-cache contract relies on).
pub fn wilson_gcr_trial(
    problem: &WilsonProblem,
    ranks: usize,
    tuner: &Tuner,
    param: &TuneParam,
) -> Result<TrialOutcome> {
    let grid = param.scheme.grid(problem.global, ranks)?;
    let mut best = f64::INFINITY;
    let mut sound = true;
    let mut norms: Vec<f64> = Vec::new();
    for i in 0..tuner.warmup + tuner.rounds * tuner.applies {
        let t = Instant::now();
        let out = solve_wilson(problem, grid.clone(), WilsonSolve::tuned(*param)).into_result()?;
        let wall = t.elapsed().as_secs_f64();
        sound &= out.iter().all(|o| o.stats.converged);
        let n0 = out[0].solution_norm2;
        sound &= out.iter().all(|o| o.solution_norm2.to_bits() == n0.to_bits());
        norms.push(n0);
        if i >= tuner.warmup {
            best = best.min(wall);
        }
    }
    sound &= norms.windows(2).all(|w| w[0].to_bits() == w[1].to_bits());
    Ok(TrialOutcome { secs_per_unit: best, bit_identical: sound })
}

/// Everything the two-phase Wilson tune produced.
#[derive(Clone, Debug)]
pub struct WilsonTuneOutcome {
    /// Phase 1: partition scheme / interior threads, decided on dslash
    /// micro-trials.
    pub dslash: TuneReport,
    /// Phase 2: `mr_steps` / `n_kv`, decided on whole-solve trials
    /// around the phase-1 winner.
    pub solver: TuneReport,
}

impl WilsonTuneOutcome {
    /// The fully tuned configuration (phase-2 winner, which carries the
    /// phase-1 axes as its baseline).
    pub fn best(&self) -> TuneParam {
        self.solver.decision.param
    }
}

/// The most interior workers one of `ranks` co-resident ranks can run
/// without oversubscribing the host: its share of the cores,
/// `max(1, cores / ranks)`.
pub fn interior_thread_cap(ranks: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cores / ranks.max(1)).max(1)
}

/// The dslash-phase tuner of a `ranks`-rank world: the thread axis goes
/// up to `max_threads`, but no further than [`interior_thread_cap`].
fn dslash_tuner(ranks: usize, max_threads: usize) -> Tuner {
    Tuner::dslash(TuneParam::baseline(1), max_threads.min(interior_thread_cap(ranks)))
}

/// Two-phase Wilson-clover tune: dslash axes first (scheme, threads),
/// then the solver axes around that winner. The thread axis stops at
/// each rank's share of the host's cores ([`interior_thread_cap`]).
/// Each phase consults `cache` first — a warm cache runs zero trials.
pub fn tune_wilson(
    problem: &WilsonProblem,
    ranks: usize,
    max_threads: usize,
    cache: &mut TuneCache,
    metrics: &mut MetricsRegistry,
) -> Result<WilsonTuneOutcome> {
    let dslash_tuner = dslash_tuner(ranks, max_threads);
    let dslash =
        dslash_tuner.tune(&wilson_dslash_key(problem, ranks), cache, metrics, |param| {
            wilson_dslash_trial(problem, ranks, &dslash_tuner, param)
        })?;
    let solver_tuner = Tuner::solver(dslash.decision.param);
    let solver =
        solver_tuner.tune(&wilson_solver_key(problem, ranks), cache, metrics, |param| {
            wilson_gcr_trial(problem, ranks, &solver_tuner, param)
        })?;
    Ok(WilsonTuneOutcome { dslash, solver })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqcd_tune::{host_fingerprint, LadderChoice};

    fn quick_problem() -> WilsonProblem {
        let mut p = WilsonProblem::small();
        p.tol = 1e-6;
        p.gcr.tol = 1e-6;
        p
    }

    /// The request a policy resolves to, solved on 4 ranks.
    fn solve_under(p: &WilsonProblem, policy: &TunePolicy) -> Vec<crate::WilsonSolveOutcome> {
        let (grid, param) = resolve(policy, &wilson_solver_key(p, 4)).unwrap();
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
    fn fixed_policy_with_baseline_solver_axes_is_bit_identical() {
        let p = quick_problem();
        // Baseline solver axes (mr 8, kv 16) match WilsonProblem::small,
        // and the thread count is scheduling-only — so a
        // Fixed policy at the baseline point must reproduce the plain
        // driver bit for bit.
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
        let mut tuner = Tuner::dslash(TuneParam::baseline(1), 2);
        tuner.warmup = 1;
        tuner.rounds = 2;
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
        let sk = wilson_solver_key(&p, 4).cache_key();
        assert_ne!(dk, sk);
        assert!(dk.contains(&host_fingerprint()));
    }
}
