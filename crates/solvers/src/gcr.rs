//! Flexible GCR with restarts — Algorithm 1 of the paper — and the
//! additive-Schwarz preconditioner that turns it into GCR-DD.
//!
//! Structure follows the paper exactly (§8.1):
//!
//! * the preconditioner `K` may be a (nonlinear, iteration-dependent)
//!   approximate solve, so the outer method must be *flexible*;
//! * the Krylov space is explicitly orthogonalized (`β_{i,k}` stored) and
//!   capped at `kmax`, after which the algorithm restarts;
//! * the solution is updated **implicitly** at restart by the triangular
//!   back-substitution for `χ` (the scheme of Lüscher \[20\] adopted by the
//!   paper to cut orthogonalization overhead);
//! * an **early restart** triggers when the iterated (low-precision)
//!   residual has dropped by more than δ since the Krylov space was
//!   started — guarding against the half-precision iterated residual
//!   straying from the true one;
//! * every restart recomputes the true residual with a full-precision
//!   matvec, which is where mixed precision enters: "the Krylov space is
//!   built up in low precision and restarted in high precision".

use crate::mr::mr as mr_steps;
use crate::space::{DirichletMatvec, SolveStats, SolverSpace};
use crate::watchdog::{NullMonitor, SolveMonitor};
use lqcd_util::{trace, BreakdownKind, Complex, Error, Result};

/// Tunables of the GCR solver.
#[derive(Clone, Copy, Debug)]
pub struct GcrParams {
    /// Target relative residual.
    pub tol: f64,
    /// Maximum Krylov-space size before a restart (`kmax`).
    pub kmax: usize,
    /// Early-restart threshold δ: restart once `‖r̂‖/‖r₀‖ < δ` within a
    /// cycle.
    pub delta: f64,
    /// Total outer-iteration budget.
    pub maxiter: usize,
    /// Store Krylov vectors in 16-bit fixed point (the "half" of
    /// single-half-half; a no-op in double-precision spaces).
    pub quantize_krylov: bool,
}

impl Default for GcrParams {
    fn default() -> Self {
        GcrParams { tol: 1e-6, kmax: 16, delta: 0.1, maxiter: 2000, quantize_krylov: false }
    }
}

/// A (possibly approximate / nonlinear) preconditioner.
pub trait Preconditioner<S: SolverSpace> {
    /// `out ≈ A⁻¹ r`.
    fn apply(&mut self, space: &mut S, out: &mut S::V, r: &S::V) -> Result<()>;
    /// Dirichlet matvecs consumed so far (for stats).
    fn precond_matvecs(&self) -> usize {
        0
    }
}

/// The identity preconditioner (plain flexible GCR).
pub struct IdentityPrecond;

impl<S: SolverSpace> Preconditioner<S> for IdentityPrecond {
    fn apply(&mut self, space: &mut S, out: &mut S::V, r: &S::V) -> Result<()> {
        space.copy(out, r);
        Ok(())
    }
}

/// The non-overlapping additive-Schwarz preconditioner: a fixed number of
/// MR steps on the rank-local Dirichlet operator, with rank-local
/// reductions — "essentially, we just have to switch off the
/// communications between GPUs" (§8.1).
pub struct SchwarzMR {
    /// MR steps per application (the paper's figures use 10).
    pub steps: usize,
    /// MR relaxation.
    pub omega: f64,
    /// Quantize the block iterates (preconditioner solved in half
    /// precision, §8.1).
    pub quantize: bool,
    matvecs: usize,
}

impl SchwarzMR {
    /// Preconditioner with `steps` block-MR iterations.
    pub fn new(steps: usize) -> Self {
        SchwarzMR { steps, omega: 1.0, quantize: false, matvecs: 0 }
    }

    /// Enable half-precision block solves.
    pub fn quantized(mut self) -> Self {
        self.quantize = true;
        self
    }
}

/// Adapter: view a space through its Dirichlet operator with local
/// reductions so the generic [`mr_steps`] loop can drive block solves.
struct DirichletView<'a, S: DirichletMatvec>(&'a mut S);

impl<'a, S: DirichletMatvec> SolverSpace for DirichletView<'a, S> {
    type V = S::V;

    fn alloc(&mut self) -> Self::V {
        self.0.alloc()
    }
    fn matvec(&mut self, out: &mut Self::V, x: &mut Self::V) -> Result<()> {
        self.0.matvec_dirichlet(out, x)
    }
    fn dot(&mut self, a: &Self::V, b: &Self::V) -> Result<Complex<f64>> {
        Ok(self.0.dot_local(a, b))
    }
    fn norm2(&mut self, a: &Self::V) -> Result<f64> {
        Ok(self.0.norm2_local(a))
    }
    fn copy(&mut self, dst: &mut Self::V, src: &Self::V) {
        self.0.copy(dst, src)
    }
    fn zero(&mut self, v: &mut Self::V) {
        self.0.zero(v)
    }
    fn axpy(&mut self, a: f64, x: &Self::V, y: &mut Self::V) {
        self.0.axpy(a, x, y)
    }
    fn caxpy(&mut self, a: Complex<f64>, x: &Self::V, y: &mut Self::V) {
        self.0.caxpy(a, x, y)
    }
    fn xpay(&mut self, x: &Self::V, a: f64, y: &mut Self::V) {
        self.0.xpay(x, a, y)
    }
    fn cxpay(&mut self, x: &Self::V, a: Complex<f64>, y: &mut Self::V) {
        self.0.cxpay(x, a, y)
    }
    fn scale(&mut self, v: &mut Self::V, a: f64) {
        self.0.scale(v, a)
    }
    fn quantize(&mut self, v: &mut Self::V) {
        self.0.quantize(v)
    }
}

impl<S: DirichletMatvec> Preconditioner<S> for SchwarzMR {
    fn apply(&mut self, space: &mut S, out: &mut S::V, r: &S::V) -> Result<()> {
        let _sp = trace::span_arg(trace::Track::Precond, "schwarz_mr", self.steps as i64);
        let mut view = DirichletView(space);
        if self.quantize {
            // Block solve in half precision: quantize the incoming
            // residual once, and the iterate after the solve.
            let mut rq = view.alloc();
            view.copy(&mut rq, r);
            view.quantize(&mut rq);
            let st = mr_steps(&mut view, out, &rq, self.steps, self.omega)?;
            self.matvecs += st.matvecs;
            view.quantize(out);
        } else {
            let st = mr_steps(&mut view, out, r, self.steps, self.omega)?;
            self.matvecs += st.matvecs;
        }
        Ok(())
    }

    fn precond_matvecs(&self) -> usize {
        self.matvecs
    }
}

/// NaN/Inf residuals mean corrupted data is circulating (a damaged ghost
/// zone, an overflowed half-precision value): report a structured
/// breakdown instead of iterating on garbage until the budget runs out.
fn check_finite(norm: f64, what: &str) -> Result<()> {
    if norm.is_finite() {
        Ok(())
    } else {
        Err(Error::Breakdown {
            solver: "gcr",
            kind: BreakdownKind::NonFinite,
            detail: format!("{what} norm is not finite ({norm})"),
        })
    }
}

/// Solve `A x = b` by preconditioned flexible GCR (Algorithm 1).
pub fn gcr<S: SolverSpace, P: Preconditioner<S>>(
    space: &mut S,
    precond: &mut P,
    x: &mut S::V,
    b: &S::V,
    params: &GcrParams,
) -> Result<SolveStats> {
    gcr_monitored(space, precond, x, b, params, &mut NullMonitor)
}

/// [`gcr`] with [`SolveMonitor`] hooks threaded through the outer
/// iteration: `observe` fires once per iteration with the iterated
/// relative residual (plus once up front with the initial true residual),
/// `at_restart` fires after every high-precision restart with the solution
/// freshly updated — the point where a checkpoint is consistent.
pub fn gcr_monitored<S: SolverSpace, P: Preconditioner<S>, M: SolveMonitor<S>>(
    space: &mut S,
    precond: &mut P,
    x: &mut S::V,
    b: &S::V,
    params: &GcrParams,
    monitor: &mut M,
) -> Result<SolveStats> {
    let mut stats = SolveStats::new();
    let kmax = params.kmax.max(1);
    let bnorm = space.norm2(b)?.sqrt();
    if !bnorm.is_finite() {
        return Err(Error::Breakdown {
            solver: "gcr",
            kind: BreakdownKind::NonFinite,
            detail: format!("right-hand-side norm is not finite ({bnorm})"),
        });
    }
    if bnorm == 0.0 {
        space.zero(x);
        stats.converged = true;
        stats.residual = 0.0;
        return Ok(stats);
    }
    // r0 = b − A x (high precision).
    let mut r0 = space.alloc();
    space.matvec(&mut r0, x)?;
    stats.matvecs += 1;
    space.xpay(b, -1.0, &mut r0);
    let mut r0_norm = space.norm2(&r0)?.sqrt();
    check_finite(r0_norm, "initial residual")?;
    monitor.observe(0, r0_norm / bnorm)?;

    // Krylov storage, allocated when a cycle first reaches each index:
    // with early restarts a cycle rarely fills kmax.
    let mut p: Vec<S::V> = Vec::with_capacity(kmax);
    let mut z: Vec<S::V> = Vec::with_capacity(kmax);
    let mut beta = vec![vec![Complex::<f64>::zero(); kmax]; kmax];
    let mut gamma = vec![0.0f64; kmax];
    let mut alpha = vec![Complex::<f64>::zero(); kmax];
    // Low-precision iterated residual.
    let mut r_hat = space.alloc();
    space.copy(&mut r_hat, &r0);
    space.quantize(&mut r_hat);
    let mut k = 0usize;

    while stats.iterations < params.maxiter {
        if r0_norm <= params.tol * bnorm {
            stats.converged = true;
            break;
        }
        let _iter_sp = trace::span_arg(trace::Track::Solver, "gcr_iter", stats.iterations as i64);
        if k == p.len() {
            p.push(space.alloc());
            z.push(space.alloc());
        }
        // p̂_k = K r̂_k ; ẑ_k = A p̂_k.
        precond.apply(space, &mut p[k], &r_hat)?;
        if params.quantize_krylov {
            space.quantize(&mut p[k]);
        }
        // Split borrow: z[k] out of the z vector.
        {
            let (zk, _rest) = {
                let (head, tail) = z.split_at_mut(k);
                (&mut tail[0], head)
            };
            space.matvec(zk, &mut p[k])?;
            stats.matvecs += 1;
        }
        // Orthogonalize against the existing basis.
        for i in 0..k {
            let (zi, zk) = {
                let (head, tail) = z.split_at_mut(k);
                (&head[i], &mut tail[0])
            };
            let bik = space.dot(zi, zk)?;
            beta[i][k] = bik;
            space.caxpy(-bik, zi, zk);
        }
        if params.quantize_krylov {
            space.quantize(&mut z[k]);
        }
        let gk = space.norm2(&z[k])?.sqrt();
        if !gk.is_finite() {
            // A NaN/Inf here means corrupted data (e.g. a damaged ghost
            // zone) has entered the Krylov space: fail fast so callers
            // can retry, possibly at higher precision.
            return Err(Error::Breakdown {
                solver: "gcr",
                kind: BreakdownKind::NonFinite,
                detail: format!("Krylov vector norm is not finite ({gk})"),
            });
        }
        if gk < 1e-300 {
            return Err(Error::Breakdown {
                solver: "gcr",
                kind: BreakdownKind::ZeroPivot,
                detail: "Krylov vector vanished after orthogonalization".into(),
            });
        }
        gamma[k] = gk;
        space.scale(&mut z[k], 1.0 / gk);
        let ak = space.dot(&z[k], &r_hat)?;
        alpha[k] = ak;
        space.caxpy(-ak, &z[k], &mut r_hat);
        k += 1;
        stats.iterations += 1;

        let rhat_norm = space.norm2(&r_hat)?.sqrt();
        check_finite(rhat_norm, "iterated residual")?;
        monitor.observe(stats.iterations, rhat_norm / bnorm)?;
        let cycle_drop = rhat_norm / r0_norm;
        if k == kmax || cycle_drop < params.delta || rhat_norm <= params.tol * bnorm {
            // Implicit solution update: back-substitute
            // γ_l χ_l + Σ_{i>l} β_{l,i} χ_i = α_l.
            let mut chi = vec![Complex::<f64>::zero(); k];
            for l in (0..k).rev() {
                let mut acc = alpha[l];
                for i in (l + 1)..k {
                    acc -= beta[l][i] * chi[i];
                }
                chi[l] = acc / Complex::from_re(gamma[l]);
            }
            for (l, c) in chi.iter().enumerate() {
                space.caxpy(*c, &p[l], x);
            }
            // High-precision restart.
            space.matvec(&mut r0, x)?;
            stats.matvecs += 1;
            space.xpay(b, -1.0, &mut r0);
            r0_norm = space.norm2(&r0)?.sqrt();
            check_finite(r0_norm, "restart residual")?;
            space.copy(&mut r_hat, &r0);
            space.quantize(&mut r_hat);
            k = 0;
            stats.restarts += 1;
            trace::instant(trace::Track::Solver, "gcr_restart", stats.restarts as i64);
            monitor.at_restart(space, x, &stats, r0_norm / bnorm)?;
        }
    }
    stats.residual = r0_norm / bnorm;
    stats.precond_matvecs = precond.precond_matvecs();
    if stats.residual <= params.tol {
        stats.converged = true;
    }
    if !stats.converged {
        return Err(Error::NoConvergence {
            solver: "gcr",
            iterations: stats.iterations,
            residual: stats.residual,
            target: params.tol,
        });
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{DenseDdSpace, DenseSpace};

    fn rand_b(n: usize) -> Vec<Complex<f64>> {
        (0..n).map(|k| Complex::new((k as f64 * 1.1).sin(), (k as f64 * 0.6).cos())).collect()
    }

    #[allow(clippy::ptr_arg)]
    fn true_resid(space: &mut DenseSpace, x: &Vec<Complex<f64>>, b: &Vec<Complex<f64>>) -> f64 {
        let mut ax = space.alloc();
        let mut xc = x.clone();
        space.matvec(&mut ax, &mut xc).unwrap();
        space.xpay(b, -1.0, &mut ax);
        (space.norm2(&ax).unwrap() / space.norm2(b).unwrap()).sqrt()
    }

    #[test]
    fn plain_gcr_solves_nonsymmetric_system() {
        let mut s = DenseSpace::random_general(24, 1);
        let b = rand_b(24);
        let mut x = s.alloc();
        let params = GcrParams { tol: 1e-10, kmax: 8, ..Default::default() };
        let stats = gcr(&mut s, &mut IdentityPrecond, &mut x, &b, &params).unwrap();
        assert!(stats.converged);
        assert!(true_resid(&mut s, &x, &b) < 1e-9);
        assert!(stats.restarts >= 1, "kmax=8 on a 24-dim system should restart");
    }

    #[test]
    fn gcr_exact_in_n_steps_without_restart() {
        // With kmax ≥ n, GCR is a direct method (up to rounding).
        let n = 10;
        let mut s = DenseSpace::random_general(n, 2);
        let b = rand_b(n);
        let mut x = s.alloc();
        let params = GcrParams { tol: 1e-12, kmax: n + 2, delta: 0.0, ..Default::default() };
        let stats = gcr(&mut s, &mut IdentityPrecond, &mut x, &b, &params).unwrap();
        assert!(stats.iterations <= n + 1, "took {} iterations", stats.iterations);
    }

    #[test]
    fn schwarz_preconditioner_cuts_iterations() {
        // A block-structured system: strong couplings inside 8×8 blocks,
        // weak coupling between blocks — the regime where block solves
        // capture most of the operator and GCR-DD needs far fewer outer
        // iterations (the lattice analogue: local physics inside a rank's
        // domain dominates).
        use lqcd_util::rng::{normal_pair, SeedTree};
        let n = 32;
        let block = 8;
        let t = SeedTree::new(33);
        let mut rng = t.rng();
        let mut a = vec![vec![Complex::<f64>::zero(); n]; n];
        for i in 0..n {
            for j in 0..n {
                let (xr, xi) = normal_pair(&mut rng);
                let same_block = i / block == j / block;
                a[i][j] = if i == j {
                    Complex::from_re(4.0 + xr.abs())
                } else if same_block {
                    Complex::new(0.7 * xr, 0.7 * xi)
                } else {
                    Complex::new(0.02 * xr, 0.02 * xi)
                };
            }
        }
        let mut s = DenseDdSpace { full: DenseSpace::new(a), block, dcount: 0 };
        let b = rand_b(n);
        let params = GcrParams { tol: 1e-9, kmax: 12, ..Default::default() };
        let mut x_plain = s.alloc();
        let plain = gcr(&mut s, &mut IdentityPrecond, &mut x_plain, &b, &params).unwrap();
        let mut x_dd = s.alloc();
        let mut dd = SchwarzMR::new(6);
        let dd_stats = gcr(&mut s, &mut dd, &mut x_dd, &b, &params).unwrap();
        assert!(
            dd_stats.iterations < plain.iterations,
            "DD {} vs plain {}",
            dd_stats.iterations,
            plain.iterations
        );
        assert!(dd_stats.precond_matvecs > 0);
        assert!(true_resid(&mut s.full, &x_dd, &b) < 1e-8);
    }

    #[test]
    fn schwarz_equals_block_jacobi_in_the_many_step_limit() {
        // §3.2: "an additive Schwarz solver with non-overlapping blocks is
        // equivalent to a block-Jacobi solver" — with enough MR steps the
        // preconditioner application inverts the block-diagonal part:
        // A_D · (K r) ≈ r.
        let n = 24;
        let mut s = DenseDdSpace { full: DenseSpace::random_general(n, 9), block: 6, dcount: 0 };
        let r = rand_b(n);
        let mut kr = s.alloc();
        let mut precond = SchwarzMR::new(400);
        precond.apply(&mut s, &mut kr, &r).unwrap();
        // Apply the Dirichlet (block-diagonal) operator to K r.
        use crate::space::DirichletMatvec;
        let mut adkr = s.alloc();
        let mut krc = kr.clone();
        s.matvec_dirichlet(&mut adkr, &mut krc).unwrap();
        s.xpay(&r, -1.0, &mut adkr); // r − A_D K r
        let rel = (s.norm2(&adkr).unwrap() / s.norm2(&r).unwrap()).sqrt();
        assert!(rel < 1e-6, "Schwarz application is not the block inverse: {rel}");
    }

    #[test]
    fn zero_start_block_solve_equals_the_matvec_start_on_a_quantized_wilson_view() {
        use crate::mr::mr_from_matvec;
        use crate::spaces::{cast_wilson_op, EoWilsonSpace};
        use lqcd_comms::{run_on_grid, Communicator};
        use lqcd_dirac::{WilsonCloverOp, WILSON_DEPTH};
        use lqcd_gauge::{clover_build::build_clover, field::GaugeStart, GaugeField};
        use lqcd_lattice::{Dims, FaceGeometry, ProcessGrid, SubLattice};
        use lqcd_su3::WilsonSpinor;
        use lqcd_util::rng::SeedTree;
        use std::sync::Arc;

        // Two ranks, so the Dirichlet operator really cuts the T links.
        let global = Dims([4, 4, 4, 8]);
        let grid = ProcessGrid::new(Dims([1, 1, 1, 2]), global).unwrap();
        run_on_grid(grid.clone(), |mut comm| {
            let rank = comm.rank();
            let sub = Arc::new(SubLattice::for_rank(&grid, rank));
            let faces = FaceGeometry::new(&sub, WILSON_DEPTH).unwrap();
            let start = GaugeStart::Disordered(0.3);
            let mut gauge = GaugeField::generate(sub, &faces, global, &SeedTree::new(21), start);
            let clover = build_clover(&gauge.exchange_halo(&mut comm).unwrap(), 1.0);
            let op = WilsonCloverOp::new(gauge, Some(clover), 0.1).unwrap();
            let op = cast_wilson_op::<f32>(&op).unwrap();
            let mut space = EoWilsonSpace::new(op, comm).unwrap().with_half_storage();
            let mut view = DirichletView(&mut space);
            // A half-precision right-hand side, as `SchwarzMR` passes it.
            let mut b = view.alloc();
            let mut rng = SeedTree::new(40 + rank as u64).rng();
            b.fill(|_| WilsonSpinor::random(&mut rng));
            view.quantize(&mut b);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for steps in [1, 3, 8] {
                let mut x = view.alloc();
                view.copy(&mut x, &b); // overwritten by the zero start
                let st = mr_steps(&mut view, &mut x, &b, steps, 1.0).unwrap();
                let mut want = view.alloc();
                let oracle = mr_from_matvec(&mut view, &mut want, &b, steps, 1.0).unwrap();
                assert_eq!(bits(x.body()), bits(want.body()), "rank {rank}, {steps} steps");
                assert_eq!(st.iterations, steps, "rank {rank}");
                assert_eq!(st.matvecs + 1, oracle.matvecs, "rank {rank}");
            }
            assert_eq!(space.dirichlet_matvecs(), 2 * (1 + 3 + 8) + 3, "rank {rank}");
        });
    }

    #[test]
    fn delta_restart_triggers() {
        let mut s = DenseSpace::random_general(24, 4);
        let b = rand_b(24);
        let mut x = s.alloc();
        // Huge δ forces a restart every iteration.
        let params =
            GcrParams { tol: 1e-8, kmax: 16, delta: 1.1, maxiter: 4000, ..Default::default() };
        let stats = gcr(&mut s, &mut IdentityPrecond, &mut x, &b, &params).unwrap();
        assert_eq!(stats.restarts, stats.iterations, "δ > 1 must restart each step");
        assert!(true_resid(&mut s, &x, &b) < 1e-7);
    }

    #[test]
    fn zero_rhs() {
        let mut s = DenseSpace::random_general(8, 5);
        let b = s.alloc();
        let mut x = s.alloc();
        x[1] = Complex::one();
        let stats = gcr(&mut s, &mut IdentityPrecond, &mut x, &b, &GcrParams::default()).unwrap();
        assert!(stats.converged);
        assert_eq!(s.norm2(&x).unwrap(), 0.0);
    }

    #[test]
    fn nan_in_rhs_is_a_structured_breakdown() {
        // Corrupted input (the chaos suites inject NaN payloads) must
        // surface as Breakdown, not hang or return a "converged" lie.
        let mut s = DenseSpace::random_general(8, 3);
        let mut b = rand_b(8);
        b[3] = Complex::new(f64::NAN, 0.0);
        let mut x = s.alloc();
        match gcr(&mut s, &mut IdentityPrecond, &mut x, &b, &GcrParams::default()) {
            Err(Error::Breakdown { solver: "gcr", detail, .. }) => {
                assert!(detail.contains("not finite"), "detail: {detail}");
            }
            other => panic!("expected Breakdown, got {other:?}"),
        }
    }

    #[test]
    fn nan_in_initial_guess_is_a_structured_breakdown() {
        let mut s = DenseSpace::random_general(8, 3);
        let b = rand_b(8);
        let mut x = s.alloc();
        x[0] = Complex::new(0.0, f64::INFINITY);
        assert!(matches!(
            gcr(&mut s, &mut IdentityPrecond, &mut x, &b, &GcrParams::default()),
            Err(Error::Breakdown { solver: "gcr", .. })
        ));
    }

    #[test]
    fn budget_exhaustion_errors() {
        let mut s = DenseSpace::random_general(32, 6);
        let b = rand_b(32);
        let mut x = s.alloc();
        let params = GcrParams { tol: 1e-14, maxiter: 2, ..Default::default() };
        assert!(matches!(
            gcr(&mut s, &mut IdentityPrecond, &mut x, &b, &params),
            Err(Error::NoConvergence { solver: "gcr", .. })
        ));
    }

    #[test]
    fn monitor_hooks_fire_with_a_consistent_solution() {
        // `at_restart` must see the *updated* x: re-deriving the true
        // residual from (space, x, b) has to reproduce the reported one.
        struct Probe {
            observes: usize,
            restarts: Vec<(f64, f64)>, // (reported, recomputed)
            b: Vec<Complex<f64>>,
        }
        impl SolveMonitor<DenseSpace> for Probe {
            fn observe(&mut self, _i: usize, rel: f64) -> lqcd_util::Result<()> {
                assert!(rel.is_finite());
                self.observes += 1;
                Ok(())
            }
            fn at_restart(
                &mut self,
                space: &mut DenseSpace,
                x: &Vec<Complex<f64>>,
                stats: &SolveStats,
                rel: f64,
            ) -> lqcd_util::Result<()> {
                assert!(stats.restarts > self.restarts.len());
                let b = self.b.clone();
                let recomputed = true_resid(space, x, &b);
                self.restarts.push((rel, recomputed));
                Ok(())
            }
        }
        let mut s = DenseSpace::random_general(24, 1);
        let b = rand_b(24);
        let mut x = s.alloc();
        let params = GcrParams { tol: 1e-10, kmax: 8, ..Default::default() };
        let mut probe = Probe { observes: 0, restarts: Vec::new(), b: b.clone() };
        let stats =
            gcr_monitored(&mut s, &mut IdentityPrecond, &mut x, &b, &params, &mut probe).unwrap();
        assert!(stats.converged);
        assert_eq!(probe.observes, stats.iterations + 1);
        assert_eq!(probe.restarts.len(), stats.restarts);
        for (reported, recomputed) in &probe.restarts {
            assert!(
                (reported - recomputed).abs() <= 1e-12 + 1e-6 * reported,
                "reported {reported}, recomputed {recomputed}"
            );
        }
    }

    #[test]
    fn watchdog_wall_clock_trip_aborts_the_solve() {
        use crate::watchdog::{SolveWatchdog, WatchdogConfig};
        let mut s = DenseSpace::random_general(32, 4);
        let b = rand_b(32);
        let mut x = s.alloc();
        let cfg =
            WatchdogConfig { wall_clock: Some(std::time::Duration::ZERO), ..Default::default() };
        let mut dog = SolveWatchdog::new("gcr", cfg);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let params = GcrParams { tol: 1e-12, ..Default::default() };
        assert!(matches!(
            gcr_monitored(&mut s, &mut IdentityPrecond, &mut x, &b, &params, &mut dog),
            Err(Error::Breakdown { kind: BreakdownKind::WallClock, .. })
        ));
    }
}
