//! A NaN in a staggered multi-shift solve's reductions is a structured
//! `NonFinite` breakdown on every rank: inside the recurrence it stops
//! the solve at once instead of burning the iteration budget, and in a
//! final per-shift ‖x_σ‖² it is no converged solve.
//!
//! The faults target logical reductions by sequence number. The numbers
//! come from a traced fault-free run of the same request, so the tests
//! follow the solve's reduction count rather than a pinned constant.

use lqcd_comms::{CommConfig, FaultPlan, FaultRule};
use lqcd_core::{solve_staggered, StaggeredProblem, StaggeredSolve};
use lqcd_lattice::{Dims, ProcessGrid};
use lqcd_util::{trace, BreakdownKind, Error};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tracing is process-wide: a test holds this while it runs, so no
/// other test's ranks record into its trace.
static TRACED: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    TRACED.lock().unwrap_or_else(|e| e.into_inner())
}

fn problem() -> (StaggeredProblem, ProcessGrid) {
    let p = StaggeredProblem::small();
    let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), p.global).unwrap();
    (p, grid)
}

/// The logical reductions rank 0 performs in a fault-free solve.
fn fault_free_reductions(p: &StaggeredProblem, grid: &ProcessGrid) -> u64 {
    trace::clear();
    trace::enable();
    let run = solve_staggered(p, grid.clone(), StaggeredSolve::multishift());
    trace::disable();
    let ranks = trace::take();
    for (slot, r) in run.outcomes.iter().enumerate() {
        assert!(r.is_ok(), "fault-free rank {slot}: {r:?}");
    }
    let (_, events) = ranks.iter().find(|(rank, _)| *rank == 0).expect("rank 0 traced");
    let begins: Vec<i64> = events
        .iter()
        .filter(|e| e.name == "allreduce" && e.kind == trace::EventKind::Begin)
        .map(|e| e.arg)
        .collect();
    // Each span carries its reduction's sequence number, 0, 1, 2, ...
    assert!(begins.iter().enumerate().all(|(k, &seq)| seq == k as i64), "{begins:?}");
    begins.len() as u64
}

/// Corrupt rank 1's part of reduction `seq`; every rank must report a
/// `NonFinite` breakdown, well inside the deadline.
fn assert_non_finite_breakdown(p: &StaggeredProblem, grid: &ProcessGrid, seq: u64) {
    let plan =
        FaultPlan::new(41).with_rule(FaultRule::corrupt_payload().on_rank(1).for_reduction(seq));
    let started = Instant::now();
    let run = solve_staggered(
        p,
        grid.clone(),
        StaggeredSolve::multishift()
            .with_comm(CommConfig::resilient())
            .with_faults(move |_| Some(plan.clone())),
    );
    assert!(started.elapsed() < Duration::from_secs(30), "reduction {seq}: not fast");
    for (slot, r) in run.outcomes.iter().enumerate() {
        match r {
            Err(Error::Breakdown { kind: BreakdownKind::NonFinite, .. }) => {}
            other => panic!("reduction {seq} rank {slot}: expected NonFinite, got {other:?}"),
        }
    }
}

/// A NaN in the recurrence's ⟨p, (A+σ₀)p⟩ or ‖r‖² stops the solve: no
/// comparison with a NaN is true, so without the check the solve ran
/// its whole budget and reported `NoConvergence` at residual 0.
#[test]
fn nan_in_a_multishift_recurrence_reduction_fails_fast() {
    let _one = one_at_a_time();
    let (p, grid) = problem();
    let n = fault_free_reductions(&p, &grid);
    let nshift = p.shifts.len() as u64;
    // Reduction 0 is ‖b‖²; the last `nshift` are the solution norms.
    let (first, last) = (1, n - nshift - 1);
    assert!(first < last, "{n} reductions");
    // Reductions alternate ⟨p, Ap⟩, ‖r‖²: cover one of each.
    for seq in [first, first + 1, (first + last) / 2, last] {
        assert_non_finite_breakdown(&p, &grid, seq);
    }
}

/// A NaN in any shift's final ‖x_σ‖² is a `NonFinite` breakdown, not an
/// `Ok` that carries the NaN in `solution_norms`.
#[test]
fn nan_in_a_final_shift_norm_is_a_breakdown() {
    let _one = one_at_a_time();
    let (p, grid) = problem();
    let n = fault_free_reductions(&p, &grid);
    for seq in n - p.shifts.len() as u64..n {
        assert_non_finite_breakdown(&p, &grid, seq);
    }
}
