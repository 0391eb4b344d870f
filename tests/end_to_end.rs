//! Workspace-level integration tests through the `lqcd` facade: whole
//! distributed solves, cross-scheme solution equivalence, and the
//! mixed-precision stack end to end.

use lqcd::prelude::*;

#[test]
fn gcr_dd_solution_is_partition_invariant() {
    // The same physical problem solved on different process grids must
    // produce the same solution (global norms compared; sitewise
    // equivalence is covered in the dirac/solver crates).
    let problem = WilsonProblem::small();
    let mut norms = Vec::new();
    for shape in [Dims([1, 1, 1, 1]), Dims([1, 1, 1, 2]), Dims([1, 1, 2, 2]), Dims([1, 2, 2, 2])] {
        let grid = ProcessGrid::new(shape, problem.global).unwrap();
        let out = solve_wilson(&problem, grid, WilsonSolve::gcr_dd(LadderChoice::Double))
            .into_result()
            .unwrap();
        assert!(out.iter().all(|o| o.stats.converged), "{shape:?} failed to converge");
        norms.push(out[0].solution_norm2);
    }
    for w in norms.windows(2) {
        let rel = (w[0] - w[1]).abs() / w[0];
        assert!(rel < 1e-7, "solution norm varies across grids: {norms:?}");
    }
}

#[test]
fn bicgstab_matches_gcr_dd_distributed() {
    let problem = WilsonProblem::small();
    let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), problem.global).unwrap();
    let b = solve_wilson(&problem, grid.clone(), WilsonSolve::bicgstab()).into_result().unwrap();
    let g = solve_wilson(&problem, grid, WilsonSolve::gcr_dd(LadderChoice::Double))
        .into_result()
        .unwrap();
    let rel = (b[0].solution_norm2 - g[0].solution_norm2).abs() / b[0].solution_norm2;
    assert!(rel < 1e-6, "different solvers, different answers: {rel}");
}

#[test]
fn single_half_half_production_configuration() {
    // The paper's §8.1 configuration end to end: single-precision
    // restarts, half-precision Krylov space and Schwarz blocks.
    let mut problem = WilsonProblem::small();
    problem.tol = 3e-5;
    problem.gcr.tol = 3e-5;
    let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), problem.global).unwrap();
    let out = solve_wilson(&problem, grid, WilsonSolve::gcr_dd(LadderChoice::Half))
        .into_result()
        .unwrap();
    for (rank, o) in out.iter().enumerate() {
        assert!(o.stats.converged, "rank {rank}: {:?}", o.stats);
        assert!(o.stats.residual <= 3e-5);
        assert!(o.stats.precond_matvecs > 0, "half-precision blocks never solved");
    }
}

#[test]
fn staggered_multishift_full_pipeline() {
    let problem = StaggeredProblem::small();
    let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), problem.global).unwrap();
    let out = solve_staggered(&problem, grid, StaggeredSolve::multishift()).into_result().unwrap();
    let o = &out[0];
    assert!(o.stats.converged);
    assert_eq!(o.solution_norms.len(), problem.shifts.len());
    // Every rank agrees on every global norm.
    for r in 1..out.len() {
        for (a, b) in o.solution_norms.iter().zip(&out[r].solution_norms) {
            assert!((a - b).abs() < 1e-9 * a.max(1.0));
        }
    }
}

#[test]
fn partition_schemes_produce_valid_grids_for_paper_volumes() {
    // Every (scheme, GPU count) combination used in Figs. 5–10 must be
    // constructible on the paper's volumes with even local extents.
    let wilson = Dims::symm(32, 256);
    for gpus in [4usize, 8, 16, 32, 64, 128, 256] {
        let g = PartitionScheme::XYZT.grid(wilson, gpus).unwrap();
        assert_eq!(g.num_ranks(), gpus);
    }
    let staggered = Dims::symm(64, 192);
    for scheme in [PartitionScheme::ZT, PartitionScheme::YZT, PartitionScheme::XYZT] {
        for gpus in [32usize, 64, 128, 256] {
            let g = scheme.grid(staggered, gpus).unwrap();
            assert_eq!(g.num_ranks(), gpus);
            // Deep enough for the 3-hop Naik stencil everywhere.
            for mu in 0..4 {
                if g.shape.0[mu] > 1 {
                    assert!(g.local.0[mu] >= 3, "{scheme:?}/{gpus}: dim {mu} too thin");
                }
            }
        }
    }
}
