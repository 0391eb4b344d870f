//! Analysis-phase observables: propagators and the pion correlator.
//!
//! The paper's capacity phase (§2) evaluates observables on gauge
//! configurations; the canonical first observable is the Goldstone pion
//! two-point function from a staggered point-source propagator:
//!
//! `C(t) = Σ_x̄ |G(x̄, t; 0)|²` with `M G = δ₀`.
//!
//! The solve uses the parity trick the solvers are built around:
//! `x = M† y` with `(M M†) y = b`, and `M M† = m² − D²/4` decouples the
//! parities (§3.1) — so one even-parity normal solve plus one dslash
//! reconstructs the full propagator.

use crate::problem::StaggeredProblem;
use lqcd_comms::Communicator;
use lqcd_dirac::staggered::StaggeredField;
use lqcd_dirac::{BoundaryMode, StaggeredOp};
use lqcd_field::blas;
use lqcd_lattice::{Parity, ProcessGrid};
use lqcd_solvers::spaces::StaggeredNormalSpace;
use lqcd_solvers::{cg, SolveStats, SolverSpace};
use lqcd_su3::ColorVector;
use lqcd_util::{Complex, Error, Result};

/// A unit point source at global coordinate `origin`, color component
/// `color`, placed on whichever rank owns it (zero elsewhere).
pub fn point_source(
    op: &StaggeredOp<f64>,
    origin: [usize; 4],
    color: usize,
) -> Result<StaggeredField<f64>> {
    let sub = op.sublattice().clone();
    let mut local = [0usize; 4];
    let mut mine = true;
    for d in 0..4 {
        if origin[d] < sub.origin[d] || origin[d] >= sub.origin[d] + sub.dims.0[d] {
            mine = false;
            break;
        }
        local[d] = origin[d] - sub.origin[d];
    }
    let parity = Parity::of_sum(origin.iter().sum());
    if parity != Parity::Even {
        return Err(Error::Config("point_source expects an even origin site".into()));
    }
    let mut b = op.alloc(Parity::Even);
    if mine {
        let mut v = ColorVector::zero();
        v.c[color] = Complex::one();
        b.set_site(sub.cb_index(local), v);
    }
    Ok(b)
}

/// The full staggered propagator from an even-parity source:
/// solve `(M M†) y = b` on the even parity, then `x = M† y = m·y + D y/2`.
/// Returns `(x_even, x_odd, solve stats)`.
pub fn staggered_propagator<C: Communicator>(
    op: &StaggeredOp<f64>,
    comm: C,
    b: &StaggeredField<f64>,
    tol: f64,
    maxiter: usize,
) -> Result<(StaggeredField<f64>, StaggeredField<f64>, SolveStats)> {
    let mut space = StaggeredNormalSpace::new(op.clone(), comm);
    let mut y = space.alloc();
    let stats = cg(&mut space, &mut y, b, tol, maxiter)?;
    // x_e = m y ; x_o = (1/2) D_oe y.
    let m = space.op.mass;
    let mut x_e = space.alloc();
    blas::copy(&mut x_e, &y);
    blas::scale(&mut x_e, m);
    let mut x_o = space.op.alloc(Parity::Odd);
    {
        let StaggeredNormalSpace { op, comm, .. } = &mut space;
        op.dslash(&mut x_o, &mut y, comm, BoundaryMode::Full)?;
    }
    blas::scale(&mut x_o, 0.5);
    Ok((x_e, x_o, stats))
}

/// Zero-momentum timeslice sums `C(t) = Σ_x̄ |x(x̄, t)|²`, globally
/// reduced (identical on all ranks).
pub fn pion_correlator<C: Communicator>(
    x_e: &StaggeredField<f64>,
    x_o: &StaggeredField<f64>,
    global_t: usize,
    comm: &mut C,
) -> Result<Vec<f64>> {
    let sub = x_e.sublattice().clone();
    let mut local = vec![0.0f64; global_t];
    for (field, parity) in [(x_e, Parity::Even), (x_o, Parity::Odd)] {
        for (idx, c) in sub.sites(parity) {
            let t = c[3] + sub.origin[3];
            local[t] += field.site(idx).norm_sqr();
        }
    }
    comm.allreduce_sum(&mut local)?;
    Ok(local)
}

/// Effective mass `m_eff(t) = ln[C(t) / C(t+1)]` (valid away from the
/// midpoint of the periodic lattice).
pub fn effective_mass(correlator: &[f64]) -> Vec<f64> {
    correlator
        .windows(2)
        .map(|w| if w[1] > 0.0 && w[0] > 0.0 { (w[0] / w[1]).ln() } else { f64::NAN })
        .collect()
}

/// Verify the propagator by applying the full operator: `‖M x − b‖/‖b‖`.
pub fn verify_propagator<C: Communicator>(
    op: &StaggeredOp<f64>,
    comm: &mut C,
    x_e: &StaggeredField<f64>,
    x_o: &StaggeredField<f64>,
    b: &StaggeredField<f64>,
) -> Result<f64> {
    let mut xe = x_e.clone();
    let mut xo = x_o.clone();
    let mut me = op.alloc(Parity::Even);
    let mut mo = op.alloc(Parity::Odd);
    op.apply_full(&mut me, &mut mo, &mut xe, &mut xo, comm, BoundaryMode::Full)?;
    blas::axpy(-1.0, b, &mut me);
    let num = comm.sum_scalar(blas::norm2_local(&me) + blas::norm2_local(&mo))?;
    let den = comm.sum_scalar(blas::norm2_local(b))?;
    Ok((num / den).sqrt())
}

/// Solve one column of the Wilson propagator `M x = b` through the Schur
/// complement: `b̂ = b_o + (1/4) D̂_oe T_ee⁻¹ b_e`, BiCGstab on `M̂`, then
/// even reconstruction. Returns `(x_e, x_o, stats)`.
pub fn wilson_propagator_column<C: Communicator>(
    op: &lqcd_dirac::WilsonCloverOp<f64>,
    comm: &mut C,
    b_e: &lqcd_dirac::wilson::SpinorField<f64>,
    b_o: &lqcd_dirac::wilson::SpinorField<f64>,
    tol: f64,
    maxiter: usize,
) -> Result<(lqcd_dirac::wilson::SpinorField<f64>, lqcd_dirac::wilson::SpinorField<f64>, SolveStats)>
{
    use lqcd_solvers::{bicgstab, spaces::EoWilsonSpace};
    // b̂ = b_o + (1/4) D̂_oe T⁻¹ b_e.
    let mut tinv_be = op.alloc(Parity::Even);
    op.t_inv_apply(&mut tinv_be, b_e)?;
    let mut bhat = op.alloc(Parity::Odd);
    op.dslash(&mut bhat, &mut tinv_be, comm, BoundaryMode::Full)?;
    blas::scale(&mut bhat, 0.25);
    blas::axpy(1.0, b_o, &mut bhat);
    // Schur solve (EoWilsonSpace takes the operator by value).
    let mut space = EoWilsonSpace::new(op.clone(), &mut *comm)?;
    let mut x_o = space.alloc();
    let stats = bicgstab(&mut space, &mut x_o, &bhat, tol, maxiter)?;
    // Reconstruct the even part.
    let mut x_e = op.alloc(Parity::Even);
    op.reconstruct_even(&mut x_e, b_e, &mut x_o, comm, BoundaryMode::Full)?;
    Ok((x_e, x_o, stats))
}

/// The Wilson pseudoscalar (pion) correlator from a point source at the
/// origin: by γ₅-hermiticity the γ₅–γ₅ contraction reduces to
/// `C(t) = Σ_x̄ Σ_{s,c;s₀,c₀} |S(x̄,t; 0)|²` — twelve propagator columns,
/// one per source spin-color.
pub fn wilson_pion_correlator<C: Communicator>(
    problem: &crate::problem::WilsonProblem,
    grid: &ProcessGrid,
    comm: &mut C,
) -> Result<(Vec<f64>, usize)> {
    use lqcd_su3::WilsonSpinor;
    let op = problem.build_operator(comm, grid)?;
    let sub = op.sublattice().clone();
    let global_t = problem.global.0[3];
    let mut corr = vec![0.0f64; global_t];
    let mut total_iters = 0usize;
    let origin = [0usize; 4];
    let origin_local =
        (0..4).all(|d| origin[d] >= sub.origin[d] && origin[d] < sub.origin[d] + sub.dims.0[d]);
    for spin in 0..4 {
        for color in 0..3 {
            let mut b_e = op.alloc(Parity::Even);
            let b_o = op.alloc(Parity::Odd);
            if origin_local {
                let mut s = WilsonSpinor::zero();
                s.s[spin].c[color] = Complex::one();
                let mut local = origin;
                for d in 0..4 {
                    local[d] = origin[d] - sub.origin[d];
                }
                b_e.set_site(sub.cb_index(local), s);
            }
            let (x_e, x_o, stats) =
                wilson_propagator_column(&op, comm, &b_e, &b_o, problem.tol, problem.maxiter)?;
            total_iters += stats.iterations;
            for (field, parity) in [(&x_e, Parity::Even), (&x_o, Parity::Odd)] {
                for (idx, c) in sub.sites(parity) {
                    corr[c[3] + sub.origin[3]] += field.site(idx).norm_sqr();
                }
            }
        }
    }
    comm.allreduce_sum(&mut corr)?;
    Ok((corr, total_iters))
}

/// Convenience: the whole pipeline for a problem on one grid rank.
pub fn pion_from_problem<C: Communicator>(
    problem: &StaggeredProblem,
    grid: &ProcessGrid,
    mut comm: C,
) -> Result<(Vec<f64>, SolveStats)> {
    let rank = comm.rank();
    let op = problem.build_operator(grid, rank)?;
    let b = point_source(&op, [0, 0, 0, 0], 0)?;
    let (x_e, x_o, stats) = staggered_propagator(&op, &mut comm, &b, problem.tol, problem.maxiter)?;
    let corr = pion_correlator(&x_e, &x_o, problem.global.0[3], &mut comm)?;
    Ok((corr, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqcd_comms::SingleComm;
    use lqcd_lattice::Dims;

    fn setup() -> (StaggeredProblem, ProcessGrid) {
        let mut p = StaggeredProblem::small();
        p.global = Dims([4, 4, 4, 16]); // long T for a clean decay
        p.mass = 0.5;
        p.disorder = 0.15;
        p.tol = 1e-9;
        let grid = ProcessGrid::new(Dims([1, 1, 1, 1]), p.global).unwrap();
        (p, grid)
    }

    #[test]
    fn propagator_satisfies_the_dirac_equation() {
        let (p, grid) = setup();
        let op = p.build_operator(&grid, 0).unwrap();
        let b = point_source(&op, [0, 0, 0, 0], 0).unwrap();
        let comm = SingleComm::new(p.global).unwrap();
        let (x_e, x_o, stats) = staggered_propagator(&op, comm, &b, p.tol, p.maxiter).unwrap();
        assert!(stats.converged);
        let mut comm = SingleComm::new(p.global).unwrap();
        let resid = verify_propagator(&op, &mut comm, &x_e, &x_o, &b).unwrap();
        assert!(resid < 1e-7, "M x ≠ b: {resid}");
    }

    #[test]
    fn pion_correlator_is_positive_and_decays() {
        let (p, grid) = setup();
        let comm = SingleComm::new(p.global).unwrap();
        let (corr, stats) = pion_from_problem(&p, &grid, comm).unwrap();
        assert!(stats.converged);
        assert_eq!(corr.len(), 16);
        assert!(corr.iter().all(|&c| c > 0.0), "correlator must be positive: {corr:?}");
        // Decay away from the source up to the periodic midpoint.
        for t in 0..7 {
            assert!(
                corr[t + 1] < corr[t],
                "C(t) must decay toward the midpoint: C({})={} C({})={}",
                t,
                corr[t],
                t + 1,
                corr[t + 1]
            );
        }
        // Approximate time-reflection symmetry of the periodic lattice.
        for t in 1..8 {
            let ratio = corr[t] / corr[16 - t];
            assert!((0.2..5.0).contains(&ratio), "gross asymmetry at t={t}: {ratio}");
        }
        // Effective mass positive in the decay region.
        let meff = effective_mass(&corr);
        assert!(meff[1] > 0.0 && meff[5] > 0.0);
    }

    #[test]
    fn odd_origin_is_rejected() {
        let (p, grid) = setup();
        let op = p.build_operator(&grid, 0).unwrap();
        assert!(point_source(&op, [1, 0, 0, 0], 0).is_err());
    }

    #[test]
    fn correlator_is_partition_invariant() {
        use lqcd_comms::run_on_grid;
        let (p, _) = setup();
        let serial = {
            let grid = ProcessGrid::new(Dims([1, 1, 1, 1]), p.global).unwrap();
            let comm = SingleComm::new(p.global).unwrap();
            pion_from_problem(&p, &grid, comm).unwrap().0
        };
        let grid = ProcessGrid::new(Dims([1, 1, 1, 2]), p.global).unwrap();
        let grid2 = grid.clone();
        let p2 = p.clone();
        let dist = run_on_grid(grid, move |comm| pion_from_problem(&p2, &grid2, comm).unwrap().0);
        for (a, b) in serial.iter().zip(&dist[0]) {
            assert!((a - b).abs() < 1e-8 * a.max(1e-30), "correlators differ: {a} vs {b}");
        }
    }
}

#[cfg(test)]
mod wilson_tests {
    use super::*;
    use crate::problem::WilsonProblem;
    use lqcd_comms::SingleComm;
    use lqcd_lattice::Dims;

    #[test]
    fn wilson_pion_correlator_is_positive_and_decays() {
        let mut p = WilsonProblem::small();
        p.global = Dims([4, 4, 4, 16]);
        p.mass = 0.4;
        p.disorder = 0.15;
        p.tol = 1e-9;
        let grid = ProcessGrid::new(Dims([1, 1, 1, 1]), p.global).unwrap();
        let mut comm = SingleComm::new(p.global).unwrap();
        let (corr, iters) = wilson_pion_correlator(&p, &grid, &mut comm).unwrap();
        assert!(iters > 0);
        assert_eq!(corr.len(), 16);
        assert!(corr.iter().all(|&c| c > 0.0), "pion correlator must be positive: {corr:?}");
        for t in 0..6 {
            assert!(corr[t + 1] < corr[t], "decay violated at t={t}: {corr:?}");
        }
        // Periodic backward image: approximate reflection symmetry.
        for t in 1..8 {
            let r = corr[t] / corr[16 - t];
            assert!((0.2..5.0).contains(&r), "asymmetry at t={t}: {r}");
        }
    }

    #[test]
    fn wilson_and_staggered_pions_share_qualitative_shape() {
        // Cross-discretization consistency: both correlators are positive
        // and decay; their effective masses differ (different actions and
        // masses) but both plateau at positive values.
        let mut pw = WilsonProblem::small();
        pw.global = Dims([4, 4, 4, 16]);
        pw.mass = 0.4;
        pw.disorder = 0.15;
        let grid = ProcessGrid::new(Dims([1, 1, 1, 1]), pw.global).unwrap();
        let mut comm = SingleComm::new(pw.global).unwrap();
        let (cw, _) = wilson_pion_correlator(&pw, &grid, &mut comm).unwrap();
        let mut ps = StaggeredProblem::small();
        ps.global = Dims([4, 4, 4, 16]);
        ps.mass = 0.5;
        ps.disorder = 0.15;
        let comm = SingleComm::new(ps.global).unwrap();
        let (cs, _) = pion_from_problem(&ps, &grid, comm).unwrap();
        for corr in [&cw, &cs] {
            let meff = effective_mass(corr);
            assert!(meff[2] > 0.0 && meff[4] > 0.0, "no decay plateau: {meff:?}");
        }
    }
}
