//! Chaos tests for the supervised checkpoint/restart driver: a rank is
//! killed mid-solve by fault injection and the supervisor must tear the
//! world down, rebuild it, restore the newest common checkpoint, and
//! resume to the same tolerance an undisturbed solve reaches.

use lqcd_comms::{CommConfig, FaultPlan, FaultRule};
use lqcd_core::supervise::{
    rung_code, SolveCheckpointMeta, SupervisorConfig, META_SECTION, SOLUTION_SECTION,
};
use lqcd_core::LadderChoice;
use lqcd_core::{solve_wilson, WilsonProblem, WilsonSolve};
use lqcd_field::{decode_field_into, LatticeField};
use lqcd_lattice::{Dims, FaceGeometry, Parity, ProcessGrid, SubLattice};
use lqcd_su3::WilsonSpinor;
use lqcd_util::{BreakdownKind, CheckpointStore, Error};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// The small chaos problem: single-precision-friendly tolerance and a
/// short GCR cycle so restart boundaries (= checkpoint opportunities)
/// come up every few outer iterations.
fn chaos_problem() -> (WilsonProblem, ProcessGrid) {
    let mut p = WilsonProblem::small();
    p.tol = 3e-5;
    p.gcr.tol = 3e-5;
    p.gcr.kmax = 8;
    let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), p.global).unwrap();
    (p, grid)
}

/// A fresh checkpoint root per test so suites can run concurrently.
fn ckpt_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lqcd-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn fault_free_supervised_solve_matches_plain_driver() {
    let (p, grid) = chaos_problem();
    let dir = ckpt_dir("fault-free");
    let plain = solve_wilson(&p, grid.clone(), WilsonSolve::gcr_dd(LadderChoice::Double))
        .into_result()
        .unwrap();
    let sup = SupervisorConfig::new(&dir);
    let out = solve_wilson(
        &p,
        grid,
        WilsonSolve::gcr_dd(LadderChoice::Double)
            .with_comm(CommConfig::resilient())
            .supervised(sup),
    );
    assert_eq!(out.attempts, 1, "an undisturbed solve needs exactly one world launch");
    assert_eq!(out.resumed_generations, vec![None]);
    for (slot, r) in out.outcomes.iter().enumerate() {
        let o = r.as_ref().unwrap_or_else(|e| panic!("rank {slot}: {e}"));
        assert!(o.stats.converged);
        assert!(o.stats.residual <= p.tol);
        // Checkpoints were cut at the restart boundaries along the way.
        assert!(o.checkpoints_written > 0, "rank {slot} wrote no checkpoints");
        // Identical Krylov trajectory to the unsupervised driver.
        let rel =
            (o.solution_norm2 - plain[slot].solution_norm2).abs() / plain[slot].solution_norm2;
        assert!(rel < 1e-10, "rank {slot} diverged from the plain driver: {rel}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The headline chaos test: rank 2 is killed mid-solve on the first
/// world launch, after checkpoints exist. The supervisor rebuilds the
/// world, every rank restores the newest *common* checkpoint generation,
/// and the resumed solve converges to the same tolerance as an
/// uninterrupted one — with the restart and the resume recorded on the
/// run.
#[test]
fn rank_death_mid_solve_is_supervised_back_to_convergence() {
    let (p, grid) = chaos_problem();
    let dir = ckpt_dir("rank-death");
    let config = CommConfig::resilient().with_timeout(Duration::from_secs(2));
    let sup = SupervisorConfig::new(&dir);
    // Kill rank 2 well into the solve (past several restart boundaries)
    // on the first launch only: FaultPlan counters are per-world, so the
    // supervisor must be handed a fresh, fault-free plan for the retry.
    let started = std::time::Instant::now();
    let out = solve_wilson(
        &p,
        grid,
        WilsonSolve::gcr_dd(LadderChoice::Double).with_comm(config).supervised(sup).with_faults(
            |attempt| {
                (attempt == 0).then(|| {
                    FaultPlan::new(47)
                        .with_rule(FaultRule::die_rank().on_rank(2).after(62).times(1))
                })
            },
        ),
    );
    assert!(started.elapsed() < Duration::from_secs(120), "supervision must not hang");
    assert_eq!(out.attempts, 2, "one death, one supervised restart");
    assert_eq!(out.resumed_generations[0], None);
    let resumed = out.resumed_generations[1]
        .expect("the retry must resume from a checkpoint, not start from scratch");
    assert!(resumed >= 1);
    for (slot, r) in out.outcomes.iter().enumerate() {
        let o = r.as_ref().unwrap_or_else(|e| panic!("rank {slot}: {e}"));
        assert!(o.stats.converged, "rank {slot}: {:?}", o.stats);
        assert!(
            o.stats.residual <= p.tol,
            "rank {slot} resumed solve missed tolerance: {} > {}",
            o.stats.residual,
            p.tol
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The reduced-precision checkpoint path: a GCR-DD solve that starts on
/// the Single rung writes its checkpoints through the f32 monitor, and
/// those store the solution in f64 whatever rung produced it. Rank 2
/// dies after checkpoints exist; the retry resumes from a generation
/// and converges, and every checkpoint left on disk carries the Single
/// rung's code and an f64 solution section that decodes into an f64
/// field of the rank's geometry.
#[test]
fn single_start_checkpoints_store_f64_and_resume_after_rank_death() {
    let (p, grid) = chaos_problem();
    let dir = ckpt_dir("single-start");
    let config = CommConfig::resilient().with_timeout(Duration::from_secs(2));
    let sup = SupervisorConfig::new(&dir);
    let keep = sup.keep;
    let out = solve_wilson(
        &p,
        grid.clone(),
        WilsonSolve::gcr_dd(LadderChoice::Single).with_comm(config).supervised(sup).with_faults(
            |attempt| {
                (attempt == 0).then(|| {
                    FaultPlan::new(47)
                        .with_rule(FaultRule::die_rank().on_rank(2).after(62).times(1))
                })
            },
        ),
    );
    assert_eq!(out.attempts, 2, "one death, one supervised restart");
    let resumed = out.resumed_generations[1]
        .expect("the retry must resume from a checkpoint, not start from scratch");
    assert!(resumed >= 1);
    for (slot, r) in out.outcomes.iter().enumerate() {
        let o = r.as_ref().unwrap_or_else(|e| panic!("rank {slot}: {e}"));
        assert!(o.stats.converged, "rank {slot}: {:?}", o.stats);
        assert!(o.stats.residual <= p.tol, "rank {slot}: {} > {}", o.stats.residual, p.tol);
        assert!(o.checkpoints_written > 0, "rank {slot} wrote no checkpoints");
    }
    for rank in 0..grid.num_ranks() {
        let store = CheckpointStore::new(dir.join(format!("rank{rank:03}")), keep).unwrap();
        let generations = store.valid_generations();
        assert!(!generations.is_empty(), "rank {rank} kept no checkpoint");
        let sub = Arc::new(SubLattice::for_rank(&grid, rank));
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        for generation in generations {
            let ckpt = store.load(generation).unwrap();
            let meta =
                SolveCheckpointMeta::decode(ckpt.require(META_SECTION).unwrap(), "meta").unwrap();
            assert_eq!(meta.rung, rung_code(LadderChoice::Single), "generation {generation}");
            let mut x =
                LatticeField::<f64, WilsonSpinor<f64>>::zeros(sub.clone(), &faces, Parity::Odd, 0);
            decode_field_into(ckpt.require(SOLUTION_SECTION).unwrap(), &mut x, "solution")
                .unwrap_or_else(|e| panic!("rank {rank} generation {generation}: {e}"));
            assert!(x.body().iter().all(|v| v.is_finite()));
            assert!(x.body().iter().any(|&v| v != 0.0), "an all-zero solution was stored");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A death so early that no checkpoint exists yet: the supervisor still
/// recovers — the retry simply starts from a zero guess.
#[test]
fn death_before_any_checkpoint_restarts_from_scratch() {
    let (p, grid) = chaos_problem();
    let dir = ckpt_dir("early-death");
    let config = CommConfig::resilient().with_timeout(Duration::from_secs(2));
    let sup = SupervisorConfig::new(&dir);
    let out = solve_wilson(
        &p,
        grid,
        WilsonSolve::gcr_dd(LadderChoice::Double).with_comm(config).supervised(sup).with_faults(
            |attempt| {
                (attempt == 0).then(|| {
                    FaultPlan::new(53).with_rule(FaultRule::die_rank().on_rank(1).after(2).times(1))
                })
            },
        ),
    );
    assert_eq!(out.attempts, 2);
    assert_eq!(out.resumed_generations, vec![None, None]);
    for (slot, r) in out.outcomes.iter().enumerate() {
        let o = r.as_ref().unwrap_or_else(|e| panic!("rank {slot}: {e}"));
        assert!(o.stats.converged);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression for the per-attempt wall-clock reset: the watchdog budget
/// covers the *logical* solve, so a solve that exhausts it across two
/// supervised attempts must break down with `WallClock` — not get a
/// fresh budget per world launch. Attempt 0 burns well past the budget
/// (a 500 ms rank stall against a 200 ms budget); with the carry in
/// place, attempt 1's watchdogs inherit that elapsed time and trip at
/// their very first observation, deterministically.
#[test]
fn wall_clock_budget_spans_supervised_attempts() {
    let (mut p, grid) = chaos_problem();
    let dir = ckpt_dir("wall-clock-carry");
    let config = CommConfig::resilient().with_timeout(Duration::from_secs(2));
    let mut sup = SupervisorConfig::new(&dir);
    sup.max_restarts = 1;
    p.watchdog.wall_clock = Some(Duration::from_millis(200));
    let out = solve_wilson(
        &p,
        grid,
        WilsonSolve::gcr_dd(LadderChoice::Double).with_comm(config).supervised(sup).with_faults(
            |a| {
                (a == 0).then(|| {
                    FaultPlan::new(77).with_rule(
                        FaultRule::stall_rank(Duration::from_millis(500))
                            .on_rank(2)
                            .after(10)
                            .times(1),
                    )
                })
            },
        ),
    );
    assert_eq!(out.attempts, 2, "attempt 0 trips the budget, attempt 1 inherits it");
    for (slot, r) in out.outcomes.iter().enumerate() {
        match r {
            Err(Error::Breakdown { kind: BreakdownKind::WallClock, .. }) => {}
            other => panic!(
                "rank {slot}: the carried budget must force a wall-clock breakdown, got {other:?}"
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An exhausted restart budget surfaces the underlying failure instead
/// of looping forever: with `max_restarts = 0` and a watchdog wall-clock
/// budget of zero, every rank reports the structured wall-clock
/// breakdown from its own watchdog.
#[test]
fn watchdog_trip_with_no_restart_budget_is_a_structured_failure() {
    let (mut p, grid) = chaos_problem();
    let dir = ckpt_dir("watchdog-trip");
    let mut sup = SupervisorConfig::new(&dir);
    sup.max_restarts = 0;
    p.watchdog.wall_clock = Some(Duration::ZERO);
    let out = solve_wilson(
        &p,
        grid,
        WilsonSolve::gcr_dd(LadderChoice::Double)
            .with_comm(CommConfig::resilient())
            .supervised(sup),
    );
    assert_eq!(out.attempts, 1);
    for (slot, r) in out.outcomes.iter().enumerate() {
        match r {
            Err(Error::Breakdown { kind: BreakdownKind::WallClock, .. }) => {}
            other => panic!("rank {slot}: expected a wall-clock breakdown, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
