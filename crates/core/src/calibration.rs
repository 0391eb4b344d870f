//! Measured-iteration calibration experiments.
//!
//! The performance model's iteration inputs (EXPERIMENTS.md) come from
//! running the *real* solvers here at laptop scale: the DD block-size
//! dependence of GCR-DD outer iterations and the BiCGstab baseline
//! count. The multi-shift matvec economy (§3.1) is measured here too.
//! The `figures` binary prints both: the first as its calibration
//! section, the second as a row of "In-text claims".

use crate::problem::{StaggeredProblem, WilsonProblem};
use lqcd_comms::run_on_grid;
use lqcd_lattice::{Dims, PartitionScheme, ProcessGrid, SubLattice};
use lqcd_solvers::spaces::{EoWilsonSpace, StaggeredNormalSpace};
use lqcd_solvers::{bicgstab, cg, gcr, multishift_cg, SchwarzMR, SolverSpace};
use lqcd_util::Result;
use serde::{Deserialize, Serialize};

/// One measured GCR-DD data point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DdCalibrationPoint {
    /// Partitioning used.
    pub scheme: String,
    /// Ranks (= Schwarz blocks).
    pub ranks: usize,
    /// Checkerboard block volume.
    pub block_cb: usize,
    /// Measured GCR-DD outer iterations.
    pub outer_iterations: usize,
    /// Measured BiCGstab iterations on the same system.
    pub bicgstab_iterations: usize,
}

/// Measure GCR-DD outer iterations vs. block size on a real lattice:
/// the data behind the `block_exponent` of the performance model.
pub fn measure_dd_block_dependence(
    problem: &WilsonProblem,
    rank_counts: &[usize],
) -> Result<Vec<DdCalibrationPoint>> {
    let mut out = Vec::new();
    for &ranks in rank_counts {
        let scheme = PartitionScheme::XYZT;
        let grid = scheme.grid(problem.global, ranks)?;
        let block_cb = SubLattice::for_rank(&grid, 0).volume_cb();
        let p = problem.clone();
        let g = grid.clone();
        let per_rank = run_on_grid(grid, move |mut comm| -> Result<(usize, usize)> {
            let op = p.build_operator(&mut comm, &g)?;
            let mut space = EoWilsonSpace::new(op, comm)?;
            let b = p.rhs(&space.op);
            let mut x = space.alloc();
            let gcr_stats = gcr(&mut space, &mut SchwarzMR::new(p.mr_steps), &mut x, &b, &p.gcr)?;
            let mut x2 = space.alloc();
            let bi = bicgstab(&mut space, &mut x2, &b, p.tol, p.maxiter)?;
            Ok((gcr_stats.iterations, bi.iterations))
        });
        let (outer, bicg) = per_rank.into_iter().next().expect("at least one rank")?;
        out.push(DdCalibrationPoint {
            scheme: scheme.label().into(),
            ranks,
            block_cb,
            outer_iterations: outer,
            bicgstab_iterations: bicg,
        });
    }
    Ok(out)
}

/// Fit the block exponent `q` of `outer ∝ block^{-q}` from measured
/// points (least squares in log-log).
pub fn fit_block_exponent(points: &[DdCalibrationPoint]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let xs: Vec<f64> = points.iter().map(|p| (p.block_cb as f64).ln()).collect();
    let ys: Vec<f64> = points.iter().map(|p| (p.outer_iterations as f64).ln()).collect();
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    // outer ∝ block^{slope}; q = −slope.
    -(sxy / sxx)
}

/// Measured multishift-vs-sequential matvec economy: the multi-shift
/// solver produces all N solutions in one Krylov pass (§3.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultishiftEconomy {
    /// Matvecs used by the multi-shift solve.
    pub multishift_matvecs: usize,
    /// Matvecs a sequential per-shift CG would use.
    pub sequential_matvecs: usize,
}

/// Measure matvec counts multishift vs sequential CG.
pub fn measure_multishift_economy(problem: &StaggeredProblem) -> Result<MultishiftEconomy> {
    let grid = ProcessGrid::new(Dims([1, 1, 1, 1]), problem.global)?;
    let op = problem.build_operator(&grid, 0)?;
    let comm = lqcd_comms::SingleComm::new(problem.global)?;
    let mut space = StaggeredNormalSpace::new(op, comm);
    let b = problem.rhs(&space.op);
    let ms = multishift_cg(&mut space, &problem.shifts, &b, problem.tol, problem.maxiter)?;
    // Sequential: one CG per shift via the shifted view.
    let mut seq = 0usize;
    for &sigma in &problem.shifts {
        let mut view = lqcd_solvers::mixed::ShiftedSpace { base: &mut space, sigma };
        let mut x = view.alloc();
        let st = cg(&mut view, &mut x, &b, problem.tol, problem.maxiter)?;
        seq += st.matvecs;
    }
    Ok(MultishiftEconomy { multishift_matvecs: ms.stats.matvecs, sequential_matvecs: seq })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dd_block_dependence_and_fit() {
        let mut p = WilsonProblem::small();
        p.tol = 1e-7;
        p.gcr.tol = 1e-7;
        let points = measure_dd_block_dependence(&p, &[1, 4, 16]).unwrap();
        assert_eq!(points.len(), 3);
        // Blocks shrink with more ranks; iterations don't decrease.
        assert!(points[2].block_cb < points[0].block_cb);
        assert!(points[2].outer_iterations >= points[0].outer_iterations);
        // BiCGstab count is partition-independent (same linear system).
        let b0 = points[0].bicgstab_iterations as f64;
        for pt in &points {
            let rel = (pt.bicgstab_iterations as f64 - b0).abs() / b0;
            assert!(rel < 0.05, "BiCGstab count varies with partitioning: {points:?}");
        }
        let q = fit_block_exponent(&points);
        assert!((-0.05..0.6).contains(&q), "block exponent {q}");
    }

    #[test]
    fn multishift_saves_matvecs() {
        let p = StaggeredProblem::small();
        let e = measure_multishift_economy(&p).unwrap();
        assert!(
            e.multishift_matvecs * 2 < e.sequential_matvecs,
            "multishift {} vs sequential {}",
            e.multishift_matvecs,
            e.sequential_matvecs
        );
    }
}
