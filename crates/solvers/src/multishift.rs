//! Multi-shift (multi-mass) conjugate gradients.
//!
//! Solves `(A + σ_i) x_i = b` for all shifts simultaneously in the
//! iteration count of the hardest (smallest) shift (§3.1, Eq. 4), using
//! the shifted-polynomial recurrences of Jegerlehner \[12\]: the base CG on
//! `A + σ_0` generates residuals `r_k`; each shifted system's residual is
//! `ζ_k^σ · r_k` with scalar recurrences for `ζ`, so every extra shift
//! costs only BLAS-1 work — no extra matvecs.
//!
//! Restrictions the paper leans on (§8.2): multi-shift CG **cannot be
//! restarted**, so no mixed precision inside; the extra linear algebra is
//! bandwidth-heavy; and all `N` solution + direction vectors stay live.

use crate::space::{SolveStats, SolverSpace};
use lqcd_util::{BreakdownKind, Error, Result};

/// Result of a multi-shift solve.
pub struct MultishiftResult<V> {
    /// One solution per input shift (same order).
    pub solutions: Vec<V>,
    /// Combined statistics (matvecs are shared across shifts).
    pub stats: SolveStats,
    /// Iteration at which each shift converged.
    pub converged_at: Vec<usize>,
}

/// A NaN or infinite reduction means corrupted data is circulating: a
/// structured breakdown, not an iteration budget burned on garbage (no
/// comparison with a NaN is true, so no other test would stop it).
fn check_finite(v: f64, what: &str) -> Result<()> {
    if v.is_finite() {
        return Ok(());
    }
    Err(Error::Breakdown {
        solver: "multishift_cg",
        kind: BreakdownKind::NonFinite,
        detail: format!("{what} is not finite ({v})"),
    })
}

/// Solve `(A + σ_i) x_i = b` for every `shifts[i] = σ_i ≥ 0` (sorted or
/// not) to relative residual `tol`, from zero initial guesses.
pub fn multishift_cg<S: SolverSpace>(
    space: &mut S,
    shifts: &[f64],
    b: &S::V,
    tol: f64,
    maxiter: usize,
) -> Result<MultishiftResult<S::V>> {
    if shifts.is_empty() {
        return Err(Error::Config("multishift_cg needs at least one shift".into()));
    }
    let nshift = shifts.len();
    // Base system: the smallest shift (worst conditioned) drives CG.
    let base_idx = (0..nshift).min_by(|&a, &b| shifts[a].total_cmp(&shifts[b])).expect("nonempty");
    let sigma0 = shifts[base_idx];

    let mut stats = SolveStats::new();
    let bnorm2 = space.norm2(b)?;
    let mut solutions: Vec<S::V> = (0..nshift).map(|_| space.alloc()).collect();
    let mut converged_at = vec![usize::MAX; nshift];
    if bnorm2 == 0.0 {
        stats.converged = true;
        stats.residual = 0.0;
        return Ok(MultishiftResult { solutions, stats, converged_at: vec![0; nshift] });
    }
    let target2 = tol * tol * bnorm2;

    // Base CG state (on A + σ0).
    let mut r = space.alloc();
    space.copy(&mut r, b); // x0 = 0 ⇒ r = b
    let mut p = space.alloc();
    space.copy(&mut p, b);
    let mut ap = space.alloc();
    let mut rr = bnorm2;
    // Per-shift state (relative shifts σ_i − σ0).
    let mut ps: Vec<S::V> = (0..nshift)
        .map(|_| {
            let mut v = space.alloc();
            space.copy(&mut v, b);
            v
        })
        .collect();
    let mut zeta_prev = vec![1.0f64; nshift];
    let mut zeta_cur = vec![1.0f64; nshift];
    let mut alpha_prev = 1.0f64;
    let mut beta_prev = 1.0f64;
    let mut done = vec![false; nshift];

    let mut iter = 0usize;
    while iter < maxiter {
        // Convergence bookkeeping: shifted residual i is ζ_i·r.
        let mut all_done = true;
        for i in 0..nshift {
            if !done[i] {
                let res2 = zeta_cur[i] * zeta_cur[i] * rr;
                if res2 <= target2 {
                    done[i] = true;
                    converged_at[i] = iter;
                } else {
                    all_done = false;
                }
            }
        }
        if all_done {
            break;
        }
        // Base matvec: Ap + σ0 p.
        space.matvec(&mut ap, &mut p)?;
        stats.matvecs += 1;
        if sigma0 != 0.0 {
            space.axpy(sigma0, &p, &mut ap);
        }
        let pap = space.dot(&p, &ap)?.re;
        check_finite(pap, "⟨p, (A+σ₀)p⟩")?;
        if pap <= 0.0 {
            return Err(Error::Breakdown {
                solver: "multishift_cg",
                kind: BreakdownKind::ZeroPivot,
                detail: format!("⟨p, (A+σ₀)p⟩ = {pap} not positive"),
            });
        }
        let alpha = rr / pap;
        // Base solution update.
        space.axpy(alpha, &p, &mut solutions[base_idx]);
        space.axpy(-alpha, &ap, &mut r);
        let rr_new = space.norm2(&r)?;
        check_finite(rr_new, "‖r‖²")?;
        let beta = rr_new / rr;

        // Shifted updates (Jegerlehner recurrences; relative shift
        // dσ = σ_i − σ0).
        for i in 0..nshift {
            if i == base_idx || done[i] {
                continue;
            }
            let dsigma = shifts[i] - sigma0;
            let denom = alpha * beta_prev * (zeta_prev[i] - zeta_cur[i])
                + zeta_prev[i] * alpha_prev * (1.0 + dsigma * alpha);
            if denom.abs() < 1e-300 {
                return Err(Error::Breakdown {
                    solver: "multishift_cg",
                    kind: BreakdownKind::ZeroPivot,
                    detail: format!("ζ recurrence denominator vanished for shift {i}"),
                });
            }
            let zeta_next = zeta_cur[i] * zeta_prev[i] * alpha_prev / denom;
            let alpha_i = alpha * zeta_next / zeta_cur[i];
            let beta_i = beta * (zeta_next / zeta_cur[i]) * (zeta_next / zeta_cur[i]);
            // x_i += α_i p_i ; p_i = ζ_next·r_{k+1} + β_i p_i
            // (r is already r_{k+1} here).
            space.axpy(alpha_i, &ps[i], &mut solutions[i]);
            space.scale(&mut ps[i], beta_i);
            space.axpy(zeta_next, &r, &mut ps[i]);
            zeta_prev[i] = zeta_cur[i];
            zeta_cur[i] = zeta_next;
        }
        // Base direction update.
        space.xpay(&r, beta, &mut p);
        alpha_prev = alpha;
        beta_prev = beta;
        rr = rr_new;
        iter += 1;
        stats.iterations += 1;
    }
    // Final convergence check.
    let mut worst: f64 = 0.0;
    for i in 0..nshift {
        let res = (zeta_cur[i] * zeta_cur[i] * rr / bnorm2).sqrt();
        worst = worst.max(res);
        if converged_at[i] == usize::MAX && res <= tol {
            converged_at[i] = iter;
            done[i] = true;
        }
    }
    stats.residual = worst;
    stats.converged = done.iter().all(|&d| d);
    if !stats.converged {
        return Err(Error::NoConvergence {
            solver: "multishift_cg",
            iterations: iter,
            residual: worst,
            target: tol,
        });
    }
    Ok(MultishiftResult { solutions, stats, converged_at })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::cg;
    use crate::space::DenseSpace;
    use lqcd_util::Complex;

    fn rand_b(n: usize) -> Vec<Complex<f64>> {
        (0..n).map(|k| Complex::new((k as f64 * 0.8).sin(), (k as f64 * 0.3).cos())).collect()
    }

    /// Shifted wrapper for verification solves.
    struct Shifted<'a> {
        base: &'a mut DenseSpace,
        sigma: f64,
    }

    impl<'a> SolverSpace for Shifted<'a> {
        type V = Vec<Complex<f64>>;
        fn alloc(&mut self) -> Self::V {
            self.base.alloc()
        }
        fn matvec(&mut self, out: &mut Self::V, x: &mut Self::V) -> Result<()> {
            self.base.matvec(out, x)?;
            let s = self.sigma;
            self.base.axpy(s, x, out);
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
    }

    #[test]
    fn matches_individual_shifted_solves() {
        let n = 20;
        let shifts = [0.0, 0.05, 0.25, 1.0, 4.0];
        let mut s = DenseSpace::random_hpd(n, 1);
        let b = rand_b(n);
        let ms = multishift_cg(&mut s, &shifts, &b, 1e-10, 500).unwrap();
        assert!(ms.stats.converged);
        for (i, &sigma) in shifts.iter().enumerate() {
            let mut shifted = Shifted { base: &mut s, sigma };
            let mut x_ref = shifted.alloc();
            cg(&mut shifted, &mut x_ref, &b, 1e-12, 500).unwrap();
            let mut diff = ms.solutions[i].clone();
            for (d, r) in diff.iter_mut().zip(&x_ref) {
                *d -= *r;
            }
            let err: f64 = diff.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
            let norm: f64 = x_ref.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
            assert!(err / norm < 1e-8, "shift {sigma}: relative error {}", err / norm);
        }
    }

    #[test]
    fn larger_shifts_converge_earlier() {
        let n = 24;
        let shifts = [0.0, 2.0, 16.0];
        let mut s = DenseSpace::random_hpd(n, 2);
        let b = rand_b(n);
        let ms = multishift_cg(&mut s, &shifts, &b, 1e-10, 500).unwrap();
        assert!(
            ms.converged_at[2] <= ms.converged_at[1] && ms.converged_at[1] <= ms.converged_at[0],
            "convergence order: {:?}",
            ms.converged_at
        );
    }

    #[test]
    fn matvec_count_is_independent_of_shift_count() {
        let n = 16;
        let mut s1 = DenseSpace::random_hpd(n, 3);
        let b = rand_b(n);
        let one = multishift_cg(&mut s1, &[0.0], &b, 1e-10, 500).unwrap();
        let mut s5 = DenseSpace::random_hpd(n, 3);
        let five = multishift_cg(&mut s5, &[0.0, 0.1, 0.5, 2.0, 8.0], &b, 1e-10, 500).unwrap();
        // "in the same number of iterations as the smallest shift" (§3.1).
        assert_eq!(one.stats.matvecs, five.stats.matvecs);
    }

    #[test]
    fn base_shift_need_not_be_first() {
        let n = 12;
        let shifts = [3.0, 0.0, 1.0]; // smallest in the middle
        let mut s = DenseSpace::random_hpd(n, 4);
        let b = rand_b(n);
        let ms = multishift_cg(&mut s, &shifts, &b, 1e-10, 500).unwrap();
        for (i, &sigma) in shifts.iter().enumerate() {
            let mut shifted = Shifted { base: &mut s, sigma };
            let mut ax = shifted.alloc();
            let mut xc = ms.solutions[i].clone();
            shifted.matvec(&mut ax, &mut xc).unwrap();
            shifted.xpay(&b, -1.0, &mut ax);
            let res = (shifted.norm2(&ax).unwrap() / shifted.norm2(&b).unwrap()).sqrt();
            assert!(res < 1e-8, "shift {sigma}: residual {res}");
        }
    }

    #[test]
    fn empty_shift_list_is_config_error() {
        let mut s = DenseSpace::random_hpd(4, 5);
        let b = rand_b(4);
        assert!(matches!(multishift_cg(&mut s, &[], &b, 1e-8, 10), Err(Error::Config(_))));
    }
}
