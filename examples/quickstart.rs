//! Quickstart: solve a Wilson-clover system three ways on a virtual
//! 4-GPU cluster and compare — the 30-second tour of the library.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use lqcd::prelude::*;

fn main() -> Result<()> {
    // A small, well-conditioned Wilson-clover problem: 8⁴ lattice,
    // disordered SU(3) gauge field, m = 0.15, c_sw = 1.
    let problem = WilsonProblem::small();
    println!("lattice {}  mass {}  disorder {}", problem.global, problem.mass, problem.disorder);

    // Partition Z and T over a 2×2 process grid: four "GPUs", each a
    // thread exchanging ghost zones through the QMP-like layer.
    let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), problem.global)?;
    println!(
        "process grid {} ({} ranks, local volume {})",
        grid.shape,
        grid.num_ranks(),
        grid.local
    );

    // 1. The production baseline: even-odd preconditioned BiCGstab.
    let bicg = solve_wilson(&problem, grid.clone(), WilsonSolve::bicgstab()).into_result()?;
    let b0 = &bicg[0];
    println!(
        "\nBiCGstab     : {:4} iterations, {:5} matvecs, |r|/|b| = {:.2e}",
        b0.stats.iterations, b0.stats.matvecs, b0.stats.residual
    );

    // 2. GCR-DD: flexible GCR with the non-overlapping additive-Schwarz
    //    preconditioner (each rank's domain solved with a few MR steps,
    //    communication switched off — paper §8.1).
    let gcr = solve_wilson(&problem, grid.clone(), WilsonSolve::gcr_dd(LadderChoice::Double))
        .into_result()?;
    let g0 = &gcr[0];
    println!(
        "GCR-DD       : {:4} outer iters, {:5} comm matvecs + {:5} block matvecs, |r|/|b| = {:.2e}",
        g0.stats.iterations, g0.stats.matvecs, g0.stats.precond_matvecs, g0.stats.residual
    );

    // 3. The paper's production configuration: single-half-half — GCR
    //    restarted in single precision, Krylov space and block solves in
    //    16-bit fixed point.
    let mut half_problem = problem.clone();
    half_problem.tol = 3e-5; // single-precision accuracy suffices (§8.1)
    half_problem.gcr.tol = 3e-5;
    let half =
        solve_wilson(&half_problem, grid, WilsonSolve::gcr_dd(LadderChoice::Half)).into_result()?;
    let h0 = &half[0];
    println!(
        "GCR-DD (S/H/H): {:4} outer iters, |r|/|b| = {:.2e} (single-precision target)",
        h0.stats.iterations, h0.stats.residual
    );

    // The two full-precision solvers found the same solution.
    let rel = (b0.solution_norm2 - g0.solution_norm2).abs() / b0.solution_norm2;
    println!("\nsolution norms agree to {rel:.2e}");
    assert!(rel < 1e-6);
    Ok(())
}
