//! Mixed-precision solver drivers.
//!
//! Two of the paper's three mixed-precision strategies live here as
//! generic drivers (the third — half-precision Krylov storage inside
//! GCR-DD — is a [`crate::GcrParams`] flag):
//!
//! * [`defect_correction`] — the outer/inner split behind the paper's
//!   "double-single" solvers: the outer loop computes true residuals at
//!   high precision, an inner low-precision solve produces a correction,
//!   and the cycle repeats (the reliable-update scheme of \[3\] in its
//!   defect-correction form);
//! * [`multishift_refined`] — §8.2's staggered strategy: "solve Equation
//!   (4) using a pure single-precision multi-shift CG solver and then use
//!   mixed-precision sequential CG, refining each of the x_i solution
//!   vectors until the desired tolerance has been reached."

use crate::cg::cg;
use crate::multishift::{multishift_cg, MultishiftResult};
use crate::space::{SolveStats, SolverSpace};
use crate::watchdog::{NullMonitor, SolveMonitor};
use lqcd_util::{Complex, Error, Result};

/// Moves vectors between a high-precision and a low-precision space.
pub trait Bridge<HI: SolverSpace + ?Sized, LO: SolverSpace + ?Sized> {
    /// Convert (truncate) `hi` into `lo`.
    fn down(&self, hi: &HI::V, lo: &mut LO::V);
    /// Convert (widen) `lo` into `hi`.
    fn up(&self, lo: &LO::V, hi: &mut HI::V);
}

/// Solve `A x = b` to high-precision tolerance `tol` by repeated
/// low-precision correction solves: each cycle computes `r = b − A x` at
/// high precision, solves `A e = r` in the low space to `inner_tol`, and
/// applies `x += e`.
#[allow(clippy::too_many_arguments)]
pub fn defect_correction<HI, LO, B, F>(
    hi: &mut HI,
    lo: &mut LO,
    bridge: &B,
    x: &mut HI::V,
    b: &HI::V,
    tol: f64,
    max_cycles: usize,
    inner: F,
) -> Result<SolveStats>
where
    HI: SolverSpace,
    LO: SolverSpace,
    B: Bridge<HI, LO>,
    F: FnMut(&mut LO, &mut LO::V, &LO::V) -> Result<SolveStats>,
{
    defect_correction_monitored(hi, lo, bridge, x, b, tol, max_cycles, inner, &mut NullMonitor)
}

/// [`defect_correction`] with [`SolveMonitor`] hooks: `observe` fires on
/// every true-residual recomputation (so a watchdog sees the outer
/// convergence trajectory), `at_restart` after every applied correction —
/// the mixed-precision ladder's consistent-checkpoint points.
#[allow(clippy::too_many_arguments)]
pub fn defect_correction_monitored<HI, LO, B, F, M>(
    hi: &mut HI,
    lo: &mut LO,
    bridge: &B,
    x: &mut HI::V,
    b: &HI::V,
    tol: f64,
    max_cycles: usize,
    mut inner: F,
    monitor: &mut M,
) -> Result<SolveStats>
where
    HI: SolverSpace,
    LO: SolverSpace,
    B: Bridge<HI, LO>,
    F: FnMut(&mut LO, &mut LO::V, &LO::V) -> Result<SolveStats>,
    M: SolveMonitor<HI>,
{
    let mut stats = SolveStats::new();
    let bnorm = hi.norm2(b)?.sqrt();
    if bnorm == 0.0 {
        hi.zero(x);
        stats.converged = true;
        stats.residual = 0.0;
        return Ok(stats);
    }
    let mut r = hi.alloc();
    let mut e_hi = hi.alloc();
    let mut r_lo = lo.alloc();
    let mut e_lo = lo.alloc();
    for cycle in 0..max_cycles {
        // True residual at high precision.
        hi.matvec(&mut r, x)?;
        stats.matvecs += 1;
        hi.xpay(b, -1.0, &mut r);
        let rnorm = hi.norm2(&r)?.sqrt();
        stats.residual = rnorm / bnorm;
        monitor.observe(cycle, stats.residual)?;
        if stats.residual <= tol {
            stats.converged = true;
            return Ok(stats);
        }
        // Inner correction solve in low precision.
        bridge.down(&r, &mut r_lo);
        lo.zero(&mut e_lo);
        let inner_stats = inner(lo, &mut e_lo, &r_lo)?;
        stats.absorb(&inner_stats);
        stats.restarts += 1;
        bridge.up(&e_lo, &mut e_hi);
        hi.axpy(1.0, &e_hi, x);
        monitor.at_restart(hi, x, &stats, stats.residual)?;
    }
    // Final check.
    hi.matvec(&mut r, x)?;
    stats.matvecs += 1;
    hi.xpay(b, -1.0, &mut r);
    stats.residual = hi.norm2(&r)?.sqrt() / bnorm;
    stats.converged = stats.residual <= tol;
    if !stats.converged {
        return Err(Error::NoConvergence {
            solver: "defect_correction",
            iterations: max_cycles,
            residual: stats.residual,
            target: tol,
        });
    }
    Ok(stats)
}

/// A shifted view of a space: `matvec = A + σ`.
pub struct ShiftedSpace<'a, S: SolverSpace> {
    /// The unshifted space.
    pub base: &'a mut S,
    /// The shift σ.
    pub sigma: f64,
}

impl<'a, S: SolverSpace> SolverSpace for ShiftedSpace<'a, S> {
    type V = S::V;

    fn alloc(&mut self) -> Self::V {
        self.base.alloc()
    }
    fn matvec(&mut self, out: &mut Self::V, x: &mut Self::V) -> Result<()> {
        self.base.matvec(out, x)?;
        let s = self.sigma;
        if s != 0.0 {
            self.base.axpy(s, x, out);
        }
        Ok(())
    }
    fn dot(&mut self, a: &Self::V, b: &Self::V) -> Result<Complex<f64>> {
        self.base.dot(a, b)
    }
    fn norm2(&mut self, a: &Self::V) -> Result<f64> {
        self.base.norm2(a)
    }
    fn copy(&mut self, d: &mut Self::V, s: &Self::V) {
        self.base.copy(d, s)
    }
    fn zero(&mut self, v: &mut Self::V) {
        self.base.zero(v)
    }
    fn axpy(&mut self, a: f64, x: &Self::V, y: &mut Self::V) {
        self.base.axpy(a, x, y)
    }
    fn caxpy(&mut self, a: Complex<f64>, x: &Self::V, y: &mut Self::V) {
        self.base.caxpy(a, x, y)
    }
    fn xpay(&mut self, x: &Self::V, a: f64, y: &mut Self::V) {
        self.base.xpay(x, a, y)
    }
    fn cxpay(&mut self, x: &Self::V, a: Complex<f64>, y: &mut Self::V) {
        self.base.cxpay(x, a, y)
    }
    fn scale(&mut self, v: &mut Self::V, a: f64) {
        self.base.scale(v, a)
    }
    fn quantize(&mut self, v: &mut Self::V) {
        self.base.quantize(v)
    }
}

/// §8.2 end-to-end: single-precision multi-shift CG for every shift, then
/// per-shift defect-corrected CG refinement to `tol` at high precision.
///
/// The initial multi-shift runs entirely in the low space at
/// `initial_tol`; refinement runs `defect_correction` per shift with CG
/// inner solves at `inner_tol`. (Half precision is *not* usable here —
/// "the solutions produced from the initial multi-shift solver would be
/// too inaccurate", §8.2 footnote 3.)
#[allow(clippy::too_many_arguments)]
pub fn multishift_refined<HI, LO, B>(
    hi: &mut HI,
    lo: &mut LO,
    bridge: &B,
    shifts: &[f64],
    b: &HI::V,
    tol: f64,
    initial_tol: f64,
    inner_tol: f64,
    maxiter: usize,
) -> Result<(Vec<HI::V>, SolveStats)>
where
    HI: SolverSpace,
    LO: SolverSpace,
    B: Bridge<HI, LO>,
{
    let mut stats = SolveStats::new();
    // Stage 1: low-precision multi-shift.
    let mut b_lo = lo.alloc();
    bridge.down(b, &mut b_lo);
    let MultishiftResult { solutions: lo_solutions, stats: ms_stats, .. } =
        multishift_cg(lo, shifts, &b_lo, initial_tol, maxiter)?;
    stats.absorb(&ms_stats);
    // Stage 2: per-shift sequential refinement.
    let mut out = Vec::with_capacity(shifts.len());
    for (i, &sigma) in shifts.iter().enumerate() {
        let mut x = hi.alloc();
        bridge.up(&lo_solutions[i], &mut x);
        let mut hi_shift = ShiftedSpace { base: hi, sigma };
        // Inner CG on the shifted low-precision operator.
        let refine = {
            let mut lo_view = ShiftedSpace { base: lo, sigma };
            defect_correction(
                &mut hi_shift,
                &mut lo_view,
                &ShiftedBridgeAdapter(bridge),
                &mut x,
                b,
                tol,
                maxiter,
                |space, e, r| cg(space, e, r, inner_tol, maxiter),
            )?
        };
        stats.absorb(&refine);
        out.push(x);
    }
    stats.converged = true;
    stats.residual = tol;
    Ok((out, stats))
}

/// Adapter making a `Bridge<HI, LO>` usable between the *shifted* views
/// of the same spaces (vector types are unchanged by shifting).
pub struct ShiftedBridgeAdapter<'b, B>(pub &'b B);

impl<'a, 'c, 'b, HI, LO, B> Bridge<ShiftedSpace<'a, HI>, ShiftedSpace<'c, LO>>
    for ShiftedBridgeAdapter<'b, B>
where
    HI: SolverSpace,
    LO: SolverSpace,
    B: Bridge<HI, LO>,
{
    fn down(&self, hi: &HI::V, lo: &mut LO::V) {
        self.0.down(hi, lo);
    }
    fn up(&self, lo: &LO::V, hi: &mut HI::V) {
        self.0.up(lo, hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicgstab::bicgstab;
    use crate::space::DenseSpace;

    fn rand_b(n: usize) -> Vec<Complex<f64>> {
        (0..n).map(|k| Complex::new((k as f64 * 0.5).sin(), (k as f64 * 1.7).cos())).collect()
    }

    /// A lossy bridge simulating f32 truncation on a dense space.
    struct TruncatingBridge;

    fn trunc(z: Complex<f64>) -> Complex<f64> {
        Complex::new(z.re as f32 as f64, z.im as f32 as f64)
    }

    impl Bridge<DenseSpace, DenseSpace> for TruncatingBridge {
        fn down(&self, hi: &Vec<Complex<f64>>, lo: &mut Vec<Complex<f64>>) {
            lo.clear();
            lo.extend(hi.iter().map(|&z| trunc(z)));
        }
        fn up(&self, lo: &Vec<Complex<f64>>, hi: &mut Vec<Complex<f64>>) {
            hi.clear();
            hi.extend_from_slice(lo);
        }
    }

    #[test]
    fn defect_correction_reaches_beyond_inner_precision() {
        let n = 20;
        let mut hi = DenseSpace::random_general(n, 1);
        let mut lo = DenseSpace::random_general(n, 1); // same matrix
        let b = rand_b(n);
        let mut x = hi.alloc();
        // Inner tolerance only 1e-4, outer demands 1e-12.
        let stats = defect_correction(
            &mut hi,
            &mut lo,
            &TruncatingBridge,
            &mut x,
            &b,
            1e-12,
            50,
            |space, e, r| bicgstab(space, e, r, 1e-4, 500),
        )
        .unwrap();
        assert!(stats.converged);
        assert!(stats.restarts >= 2, "should need multiple cycles");
        let mut ax = hi.alloc();
        let mut xc = x.clone();
        hi.matvec(&mut ax, &mut xc).unwrap();
        hi.xpay(&b, -1.0, &mut ax);
        let res = (hi.norm2(&ax).unwrap() / hi.norm2(&b).unwrap()).sqrt();
        assert!(res < 1e-11, "true residual {res}");
    }

    #[test]
    fn shifted_space_matches_manual_shift() {
        let n = 8;
        let mut s = DenseSpace::random_hpd(n, 2);
        let mut x = rand_b(n);
        let mut want = s.alloc();
        let mut xc = x.clone();
        s.matvec(&mut want, &mut xc).unwrap();
        s.axpy(2.5, &x, &mut want);
        let mut shifted = ShiftedSpace { base: &mut s, sigma: 2.5 };
        let mut got = shifted.alloc();
        shifted.matvec(&mut got, &mut x).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert!((*g - *w).abs() < 1e-13);
        }
    }

    #[test]
    fn multishift_refined_end_to_end() {
        let n = 16;
        let shifts = [0.0, 0.5, 2.0];
        let mut hi = DenseSpace::random_hpd(n, 3);
        let mut lo = DenseSpace::random_hpd(n, 3);
        let b = rand_b(n);
        let (solutions, stats) = multishift_refined(
            &mut hi,
            &mut lo,
            &TruncatingBridge,
            &shifts,
            &b,
            1e-11,
            1e-4,
            1e-4,
            1000,
        )
        .unwrap();
        assert!(stats.converged);
        for (i, &sigma) in shifts.iter().enumerate() {
            let mut shifted = ShiftedSpace { base: &mut hi, sigma };
            let mut ax = shifted.alloc();
            let mut xc = solutions[i].clone();
            shifted.matvec(&mut ax, &mut xc).unwrap();
            shifted.xpay(&b, -1.0, &mut ax);
            let res = (shifted.norm2(&ax).unwrap() / shifted.norm2(&b).unwrap()).sqrt();
            assert!(res < 1e-10, "shift {sigma}: residual {res}");
        }
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let mut hi = DenseSpace::random_hpd(6, 4);
        let mut lo = DenseSpace::random_hpd(6, 4);
        let b = hi.alloc();
        let mut x = hi.alloc();
        x[0] = Complex::one();
        let stats = defect_correction(
            &mut hi,
            &mut lo,
            &TruncatingBridge,
            &mut x,
            &b,
            1e-12,
            5,
            |space, e, r| bicgstab(space, e, r, 1e-4, 100),
        )
        .unwrap();
        assert!(stats.converged);
        assert_eq!(hi.norm2(&x).unwrap(), 0.0);
    }
}
