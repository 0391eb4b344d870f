//! The analysis-phase workload: one staggered multi-shift solve producing
//! quark propagators at several masses from a single Krylov pass
//! (paper §3.1, Eq. 4). The matvec economy against sequential per-shift
//! CG is a row of the `figures` binary's "In-text claims".
//!
//! ```sh
//! cargo run --release --example multishift_spectrum
//! ```

use lqcd::prelude::*;

fn main() -> Result<()> {
    let mut problem = StaggeredProblem::small();
    problem.shifts = vec![0.0, 0.05, 0.2, 0.8, 3.2];
    println!(
        "asqtad multi-shift on {}: m = {}, shifts {:?}",
        problem.global, problem.mass, problem.shifts
    );

    // Distributed solve over a 2×2 (Z,T) grid.
    let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), problem.global)?;
    let out = solve_staggered(&problem, grid, StaggeredSolve::multishift()).into_result()?;
    let o = &out[0];
    println!(
        "\nsolved {} shifted systems in {} shared matvecs ({} iterations)",
        problem.shifts.len(),
        o.stats.matvecs,
        o.stats.iterations
    );
    println!("{:>10} {:>14} {:>16}", "shift", "‖x_σ‖²", "converged@iter");
    for (i, &sigma) in problem.shifts.iter().enumerate() {
        println!("{:>10.3} {:>14.4} {:>16}", sigma, o.solution_norms[i], o.converged_at[i]);
    }
    Ok(())
}
