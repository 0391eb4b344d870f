//! Independent f64 true-residual checks of returned solutions.
//!
//! The solvers report their own (iterated, possibly reduced-precision)
//! residual; the benchmark does not trust it. Every solution is cast to
//! f64 and `‖b − M x‖ / ‖b‖` is recomputed here from the operator's own
//! apply, on an f64 operator the solver never touched.

use lqcd_comms::Communicator;
use lqcd_dirac::staggered::StaggeredField;
use lqcd_dirac::wilson::SpinorField;
use lqcd_dirac::{BoundaryMode, StaggeredOp, WilsonCloverOp};
use lqcd_field::blas;
use lqcd_lattice::Parity;
use lqcd_util::Result;

/// Relative residual from local partials: `sqrt(Σ‖b − Mx‖² / Σ‖b‖²)`.
fn relative<C: Communicator>(comm: &mut C, diff2_local: f64, b2_local: f64) -> Result<f64> {
    let mut v = [diff2_local, b2_local];
    comm.allreduce_sum(&mut v)?;
    Ok((v[0] / v[1]).sqrt())
}

/// True residual of the even-odd preconditioned Wilson-clover system
/// `M̂ x = b` on the odd parity.
pub struct WilsonVerifier {
    /// The f64 operator the residual is computed with.
    pub op: WilsonCloverOp<f64>,
    /// The solution under test, cast to f64.
    pub x: SpinorField<f64>,
    mx: SpinorField<f64>,
    se: SpinorField<f64>,
    se2: SpinorField<f64>,
}

impl WilsonVerifier {
    /// Verifier over `op` (its `T⁻¹` must be built).
    pub fn new(op: WilsonCloverOp<f64>) -> Self {
        let x = op.alloc(Parity::Odd);
        let mx = op.alloc(Parity::Odd);
        let se = op.alloc(Parity::Even);
        let se2 = op.alloc(Parity::Even);
        WilsonVerifier { op, x, mx, se, se2 }
    }

    /// `‖b − M̂ x‖ / ‖b‖` for the solution already cast into `self.x`.
    pub fn residual<C: Communicator>(&mut self, comm: &mut C, b: &SpinorField<f64>) -> Result<f64> {
        let (x, mx) = (&mut self.x, &mut self.mx);
        self.op.apply_eo_prec(mx, x, &mut self.se, &mut self.se2, comm, BoundaryMode::Full)?;
        relative(comm, blas::diff_norm2_local(b, mx), blas::norm2_local(b))
    }
}

/// True residuals of the shifted staggered normal systems
/// `(M†M + σ_i) x_i = b` on the even parity.
pub struct StaggeredVerifier {
    /// The f64 operator the residuals are computed with.
    pub op: StaggeredOp<f64>,
    mx: StaggeredField<f64>,
    xc: StaggeredField<f64>,
    so: StaggeredField<f64>,
}

impl StaggeredVerifier {
    /// Verifier over `op`.
    pub fn new(op: StaggeredOp<f64>) -> Self {
        let mx = op.alloc(Parity::Even);
        let xc = op.alloc(Parity::Even);
        let so = op.alloc(Parity::Odd);
        StaggeredVerifier { op, mx, xc, so }
    }

    /// The largest `‖b − (M†M + σ_i) x_i‖ / ‖b‖` over the shifts.
    pub fn max_residual<C: Communicator>(
        &mut self,
        comm: &mut C,
        shifts: &[f64],
        xs: &[StaggeredField<f64>],
        b: &StaggeredField<f64>,
    ) -> Result<f64> {
        if xs.len() != shifts.len() {
            return Ok(f64::INFINITY);
        }
        let mut worst = 0.0f64;
        for (&sigma, x) in shifts.iter().zip(xs) {
            // The apply refreshes the source's ghost zones, so it runs on
            // a copy and leaves the solver's output untouched.
            blas::copy(&mut self.xc, x);
            self.op.apply_normal(
                &mut self.mx,
                &mut self.xc,
                &mut self.so,
                comm,
                BoundaryMode::Full,
            )?;
            blas::axpy(sigma, x, &mut self.mx);
            let r = relative(comm, blas::diff_norm2_local(b, &self.mx), blas::norm2_local(b))?;
            // NaN-propagating maximum: a NaN residual must never verify.
            if r.is_nan() || r > worst {
                worst = r;
            }
        }
        Ok(worst)
    }
}

/// Whether a solve counts as verified: it returned, and its recomputed
/// true residual meets the tolerance. A solver error never verifies.
pub fn verified<T>(solve: &Result<T>, true_residual: f64, tol: f64) -> bool {
    solve.is_ok() && true_residual <= tol
}
