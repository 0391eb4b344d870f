//! Minimum residual (MR) iteration.
//!
//! The workhorse *inside* Schwarz blocks (§8.1): cheap, no long
//! recurrences, needs only "a small number of steps ... to achieve
//! satisfactory accuracy". Also usable as a standalone smoother.

use crate::space::{SolveStats, SolverSpace};
use lqcd_util::Result;

/// Run `steps` MR iterations on `A x = b` from `x = 0`, with relaxation
/// `omega` (QUDA defaults to ω = 1): `x ← x + ω·(⟨Ar, r⟩/‖Ar‖²)·r`.
///
/// Runs a *fixed* number of steps with no convergence test — exactly how
/// the Schwarz preconditioner uses it. `x` is overwritten: the start is
/// always zero, as QUDA runs MR as a preconditioner, so the first residual
/// is `b` itself and costs no matvec. Returns the stats (residual left
/// unset unless the caller computes it).
pub fn mr<S: SolverSpace>(
    space: &mut S,
    x: &mut S::V,
    b: &S::V,
    steps: usize,
    omega: f64,
) -> Result<SolveStats> {
    let mut stats = SolveStats::new();
    space.zero(x);
    let mut r = space.alloc();
    space.copy(&mut r, b);
    let mut ar = space.alloc();
    for _ in 0..steps {
        space.matvec(&mut ar, &mut r)?;
        stats.matvecs += 1;
        let num = space.dot(&ar, &r)?;
        let den = space.norm2(&ar)?;
        if den <= f64::MIN_POSITIVE {
            break; // residual (numerically) zero: nothing left to minimize
        }
        let alpha = num.scale(omega / den);
        if !alpha.is_finite() {
            break; // denormal-range breakdown; x is already converged
        }
        space.caxpy(alpha, &r, x);
        // r −= α·Ar.
        space.caxpy(-alpha, &ar, &mut r);
        stats.iterations += 1;
    }
    stats.converged = true; // fixed-step smoother: "done" by definition
    Ok(stats)
}

/// The start [`mr`] had before it began from zero: `r = b − A·x` with a
/// matvec, from whatever `x` holds. Test-only oracle for the zero start.
#[cfg(test)]
pub(crate) fn mr_from_matvec<S: SolverSpace>(
    space: &mut S,
    x: &mut S::V,
    b: &S::V,
    steps: usize,
    omega: f64,
) -> Result<SolveStats> {
    let mut stats = SolveStats::new();
    let mut r = space.alloc();
    space.matvec(&mut r, x)?;
    stats.matvecs += 1;
    space.xpay(b, -1.0, &mut r);
    let mut ar = space.alloc();
    for _ in 0..steps {
        space.matvec(&mut ar, &mut r)?;
        stats.matvecs += 1;
        let num = space.dot(&ar, &r)?;
        let den = space.norm2(&ar)?;
        if den <= f64::MIN_POSITIVE {
            break;
        }
        let alpha = num.scale(omega / den);
        if !alpha.is_finite() {
            break;
        }
        space.caxpy(alpha, &r, x);
        space.caxpy(-alpha, &ar, &mut r);
        stats.iterations += 1;
    }
    stats.converged = true;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DenseSpace;
    use lqcd_util::Complex;

    #[allow(clippy::ptr_arg)]
    fn resid(space: &mut DenseSpace, x: &Vec<Complex<f64>>, b: &Vec<Complex<f64>>) -> f64 {
        let mut ax = space.alloc();
        let mut xc = x.clone();
        space.matvec(&mut ax, &mut xc).unwrap();
        space.xpay(b, -1.0, &mut ax);
        (space.norm2(&ax).unwrap() / space.norm2(b).unwrap()).sqrt()
    }

    #[test]
    fn each_step_reduces_the_residual() {
        let mut s = DenseSpace::random_general(16, 1);
        let b: Vec<Complex<f64>> = (0..16).map(|k| Complex::new((k as f64).cos(), 0.5)).collect();
        let mut last = 1.0;
        for steps in 1..=5 {
            let mut x = s.alloc();
            mr(&mut s, &mut x, &b, steps, 1.0).unwrap();
            let r = resid(&mut s, &x, &b);
            assert!(r < last, "MR step {steps} increased residual: {r} ≥ {last}");
            last = r;
        }
        assert!(last < 0.5, "five MR steps should reduce noticeably, got {last}");
    }

    #[test]
    fn zero_start_equals_the_matvec_start_bit_for_bit() {
        let mut s = DenseSpace::random_general(16, 5);
        let b: Vec<Complex<f64>> =
            (0..16).map(|k| Complex::new((k as f64 * 0.7).sin(), (k as f64).cos())).collect();
        for omega in [1.0, 0.8] {
            for steps in 0..=8 {
                // Whatever x holds on entry is overwritten.
                let mut x: Vec<Complex<f64>> =
                    (0..16).map(|k| Complex::from_re(k as f64)).collect();
                let st = mr(&mut s, &mut x, &b, steps, omega).unwrap();
                let mut want = s.alloc();
                let oracle = mr_from_matvec(&mut s, &mut want, &b, steps, omega).unwrap();
                let bits = |v: &Vec<Complex<f64>>| {
                    v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect::<Vec<_>>()
                };
                assert_eq!(bits(&x), bits(&want), "{steps} steps, ω = {omega}");
                assert_eq!(st.iterations, oracle.iterations);
                assert_eq!(st.matvecs + 1, oracle.matvecs, "the zero start saves one matvec");
            }
        }
    }

    #[test]
    fn many_steps_solve_well_conditioned_system() {
        let mut s = DenseSpace::random_general(12, 2);
        let b: Vec<Complex<f64>> =
            (0..12).map(|k| Complex::from_re(1.0 / (k + 1) as f64)).collect();
        let mut x = s.alloc();
        mr(&mut s, &mut x, &b, 200, 1.0).unwrap();
        assert!(resid(&mut s, &x, &b) < 1e-8);
    }

    #[test]
    fn underrelaxation_still_converges() {
        let mut s = DenseSpace::random_general(12, 3);
        let b: Vec<Complex<f64>> = (0..12).map(|k| Complex::from_re((k as f64).sin())).collect();
        let mut x = s.alloc();
        mr(&mut s, &mut x, &b, 600, 0.8).unwrap();
        let r = resid(&mut s, &x, &b);
        assert!(r < 1e-5, "residual after 600 underrelaxed MR steps: {r}");
    }

    #[test]
    fn exact_start_is_stable() {
        let mut s = DenseSpace::random_general(8, 4);
        let b = s.alloc(); // zero rhs: r = b = 0
        let mut x = vec![Complex::from_re(1.0); 8];
        let st = mr(&mut s, &mut x, &b, 5, 1.0).unwrap();
        assert_eq!(s.norm2(&x).unwrap(), 0.0);
        // Breaks out immediately on the zero residual, with no matvec
        // left over from a start.
        assert_eq!(st.iterations, 0);
        assert_eq!(st.matvecs, 1);
    }
}
