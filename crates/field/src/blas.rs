//! BLAS-1 kernels over field bodies.
//!
//! These are the "BLAS-like routines" of paper §6.1, striding over the
//! body of the allocation only. All reductions accumulate in `f64`
//! regardless of storage precision — the solvers' convergence logic relies
//! on accurate inner products even when fields are single or half
//! precision (QUDA likewise reduces in double).
//!
//! Reductions return the *local* (per-rank) partial; distributed callers
//! combine partials with an allreduce through `lqcd-comms`.
//!
//! [`norm2_local`] and [`cdot_local`] sum in one fixed order, the same at
//! every SIMD lane width. For a body of `n` reals `x_k`, eight f64
//! partials `p0..p7` each sum the terms with `k ≡ p (mod 8)` for
//! `k < 8⌊n/8⌋`, in increasing `k`: `x_k²` for the norm, `x_k·y_k` for
//! the real part of the dot product and `x_k·y_{k^1}` for its imaginary
//! part. The partials fold in the tree
//! `((p0 + p1) + (p2 + p3)) + ((p4 + p5) + (p6 + p7))`, the imaginary
//! part subtracting its odd partials (its odd terms are `x_im·y_re`):
//! `((q0 − q1) + (q2 − q3)) + ((q4 − q5) + (q6 − q7))`. Then the tail
//! `k ≥ 8⌊n/8⌋` is added in sequence, the imaginary part's odd terms
//! subtracted. On x86_64 the sums run as eight SIMD lanes
//! (`lqcd_su3::kernels::{norm2, cdot}` at [`Width::detect`]); elsewhere as
//! scalar code in the same order. So `cdot_local(x, x).re` is
//! `norm2_local(x)` bit for bit, and a solve's bits do not depend on the
//! CPU's lane width.
//!
//! [`diff_norm2_local`] and [`max_abs_diff`] deliberately stay sequential
//! scalar loops: they are verification aids that no solver calls.
//!
//! [`Width::detect`]: lqcd_su3::kernels::Width::detect

use crate::field::LatticeField;
use crate::site::SiteObject;
use lqcd_util::{Complex, Real, Reals};

/// `y = 0`.
pub fn zero<R: Real, S: SiteObject<R>>(y: &mut LatticeField<R, S>) {
    for v in y.body_mut() {
        *v = R::ZERO;
    }
}

/// `y = x`.
pub fn copy<R: Real, S: SiteObject<R>>(y: &mut LatticeField<R, S>, x: &LatticeField<R, S>) {
    y.check_compatible(x).expect("copy: incompatible fields");
    y.body_mut().copy_from_slice(x.body());
}

/// `y *= a`.
pub fn scale<R: Real, S: SiteObject<R>>(y: &mut LatticeField<R, S>, a: R) {
    for v in y.body_mut() {
        *v *= a;
    }
}

/// `y += a·x` (real coefficient).
pub fn axpy<R: Real, S: SiteObject<R>>(a: R, x: &LatticeField<R, S>, y: &mut LatticeField<R, S>) {
    y.check_compatible(x).expect("axpy: incompatible fields");
    for (yv, xv) in y.body_mut().iter_mut().zip(x.body()) {
        *yv += a * *xv;
    }
}

/// `y = x + a·y`.
pub fn xpay<R: Real, S: SiteObject<R>>(x: &LatticeField<R, S>, a: R, y: &mut LatticeField<R, S>) {
    y.check_compatible(x).expect("xpay: incompatible fields");
    for (yv, xv) in y.body_mut().iter_mut().zip(x.body()) {
        *yv = *xv + a * *yv;
    }
}

/// `y = a·x + b·y`.
pub fn axpby<R: Real, S: SiteObject<R>>(
    a: R,
    x: &LatticeField<R, S>,
    b: R,
    y: &mut LatticeField<R, S>,
) {
    y.check_compatible(x).expect("axpby: incompatible fields");
    for (yv, xv) in y.body_mut().iter_mut().zip(x.body()) {
        *yv = a * *xv + b * *yv;
    }
}

/// `y += a·x` with a complex coefficient (fields are interleaved re/im, so
/// sites are processed as complex pairs).
pub fn caxpy<R: Real, S: SiteObject<R>>(
    a: Complex<R>,
    x: &LatticeField<R, S>,
    y: &mut LatticeField<R, S>,
) {
    y.check_compatible(x).expect("caxpy: incompatible fields");
    let yb = y.body_mut();
    let xb = x.body();
    for k in (0..xb.len()).step_by(2) {
        let xr = xb[k];
        let xi = xb[k + 1];
        yb[k] += a.re * xr - a.im * xi;
        yb[k + 1] += a.re * xi + a.im * xr;
    }
}

/// `y = x + a·y` with complex `a`.
pub fn cxpay<R: Real, S: SiteObject<R>>(
    x: &LatticeField<R, S>,
    a: Complex<R>,
    y: &mut LatticeField<R, S>,
) {
    y.check_compatible(x).expect("cxpay: incompatible fields");
    let yb = y.body_mut();
    let xb = x.body();
    for k in (0..xb.len()).step_by(2) {
        let yr = yb[k];
        let yi = yb[k + 1];
        yb[k] = xb[k] + a.re * yr - a.im * yi;
        yb[k + 1] = xb[k + 1] + a.re * yi + a.im * yr;
    }
}

/// Local partial of `⟨x, y⟩` (conjugate-linear in `x`), accumulated in
/// `f64` in the order of the module docs.
pub fn cdot_local<R: Real, S: SiteObject<R>>(
    x: &LatticeField<R, S>,
    y: &LatticeField<R, S>,
) -> Complex<f64> {
    x.check_compatible(y).expect("cdot: incompatible fields");
    let (re, im) = match (R::reals(x.body()), R::reals(y.body())) {
        (Reals::F32(x), Reals::F32(y)) => lanes::cdot(x, y),
        (Reals::F64(x), Reals::F64(y)) => lanes::cdot(x, y),
        _ => unreachable!("two fields of one precision"),
    };
    Complex::new(re, im)
}

/// Local partial of `‖x‖²`, accumulated in `f64` in the order of the
/// module docs.
pub fn norm2_local<R: Real, S: SiteObject<R>>(x: &LatticeField<R, S>) -> f64 {
    match R::reals(x.body()) {
        Reals::F32(x) => lanes::norm2(x),
        Reals::F64(x) => lanes::norm2(x),
    }
}

/// The reductions at the widest lane width the CPU has.
#[cfg(target_arch = "x86_64")]
mod lanes {
    use lqcd_su3::kernels::{self, ReduceLanes, Width};

    pub(super) fn norm2<R: ReduceLanes>(x: &[R]) -> f64 {
        kernels::norm2(Width::detect(), x)
    }

    pub(super) fn cdot<R: ReduceLanes>(x: &[R], y: &[R]) -> (f64, f64) {
        kernels::cdot(Width::detect(), x, y)
    }
}

#[cfg(not(target_arch = "x86_64"))]
use ordered as lanes;

/// The reductions as scalar code in the order of the module docs: the
/// path where no SIMD kernels exist, and the tests' oracle.
#[cfg(any(test, not(target_arch = "x86_64")))]
mod ordered {
    use lqcd_util::Real;

    fn fold(p: [f64; 8]) -> f64 {
        ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]))
    }

    pub(super) fn norm2<R: Real>(x: &[R]) -> f64 {
        let m = x.len() / 8 * 8;
        let mut p = [0.0f64; 8];
        for (k, v) in x[..m].iter().enumerate() {
            p[k % 8] += v.to_f64() * v.to_f64();
        }
        let mut sum = fold(p);
        for v in &x[m..] {
            sum += v.to_f64() * v.to_f64();
        }
        sum
    }

    pub(super) fn cdot<R: Real>(x: &[R], y: &[R]) -> (f64, f64) {
        assert_eq!(x.len(), y.len(), "cdot: bodies of different lengths");
        let m = x.len() / 8 * 8;
        let term = |k: usize, l: usize| x[k].to_f64() * y[l].to_f64();
        let (mut p, mut q) = ([0.0f64; 8], [0.0f64; 8]);
        for k in 0..m {
            p[k % 8] += term(k, k);
            q[k % 8] += term(k, k ^ 1);
        }
        let mut re = fold(p);
        let mut im = ((q[0] - q[1]) + (q[2] - q[3])) + ((q[4] - q[5]) + (q[6] - q[7]));
        for k in m..x.len() {
            re += term(k, k);
            if k % 2 == 0 {
                im += term(k, k + 1);
            } else {
                im -= term(k, k - 1);
            }
        }
        (re, im)
    }
}

/// Local partial of `‖x − y‖²` without forming the difference, summed
/// in sequence (a verification aid; see the module docs).
pub fn diff_norm2_local<R: Real, S: SiteObject<R>>(
    x: &LatticeField<R, S>,
    y: &LatticeField<R, S>,
) -> f64 {
    x.check_compatible(y).expect("diff_norm2: incompatible fields");
    x.body()
        .iter()
        .zip(y.body())
        .map(|(a, b)| {
            let d = a.to_f64() - b.to_f64();
            d * d
        })
        .sum()
}

/// Maximum absolute component difference (a verification aid; see the
/// module docs).
pub fn max_abs_diff<R: Real, S: SiteObject<R>>(
    x: &LatticeField<R, S>,
    y: &LatticeField<R, S>,
) -> f64 {
    x.body().iter().zip(y.body()).map(|(a, b)| (a.to_f64() - b.to_f64()).abs()).fold(0.0, f64::max)
}

/// Fused multi-shift CG update: `z = x + b·z; x += a·p` is *not* what we
/// need — the shifted-system update is `x_σ += a_σ·p_σ; p_σ = z + b_σ·p_σ`
/// per shift. This fuses the per-shift vector update to one pass.
pub fn shift_update<R: Real, S: SiteObject<R>>(
    a: R,
    b: R,
    z: &LatticeField<R, S>,
    x: &mut LatticeField<R, S>,
    p: &mut LatticeField<R, S>,
) {
    x.check_compatible(z).expect("shift_update: incompatible fields");
    p.check_compatible(z).expect("shift_update: incompatible fields");
    let xb = x.body_mut();
    let pb = p.body_mut();
    let zb = z.body();
    for k in 0..zb.len() {
        xb[k] += a * pb[k];
        pb[k] = zb[k] + b * pb[k];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqcd_lattice::{Dims, FaceGeometry, Parity, SubLattice};
    use lqcd_su3::{ColorVector, WilsonSpinor};
    use lqcd_util::rng::SeedTree;
    use rand::Rng;
    use std::sync::Arc;

    type F = LatticeField<f64, ColorVector<f64>>;

    fn rand_field(seed: u64) -> F {
        let sub = Arc::new(SubLattice::single(Dims([4, 4, 4, 4])).unwrap());
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        let mut f = F::zeros(sub, &faces, Parity::Even, 2);
        let t = SeedTree::new(seed);
        let mut rng = t.rng();
        f.fill(|_| ColorVector::random(&mut rng));
        f
    }

    #[test]
    fn axpy_family_consistency() {
        let x = rand_field(1);
        let mut y1 = rand_field(2);
        let mut y2 = y1.clone();
        // xpay(x, a, y) == y_new = x + a*y
        xpay(&x, 0.5, &mut y1);
        // Same through axpby.
        axpby(1.0, &x, 0.5, &mut y2);
        assert!(max_abs_diff(&y1, &y2) < 1e-15);
    }

    #[test]
    fn caxpy_matches_complex_sitewise() {
        let x = rand_field(3);
        let mut y = rand_field(4);
        let yref = y.clone();
        let a = Complex::new(0.3, -0.8);
        caxpy(a, &x, &mut y);
        for idx in 0..x.num_sites() {
            let want = yref.site(idx).add(&x.site(idx).scale_c(a));
            assert!(y.site(idx).sub(&want).norm_sqr() < 1e-24);
        }
    }

    #[test]
    fn cxpay_matches_definition() {
        let x = rand_field(5);
        let mut y = rand_field(6);
        let yref = y.clone();
        let a = Complex::new(-1.1, 0.4);
        cxpay(&x, a, &mut y);
        for idx in 0..x.num_sites() {
            let want = x.site(idx).add(&yref.site(idx).scale_c(a));
            assert!(y.site(idx).sub(&want).norm_sqr() < 1e-24);
        }
    }

    #[test]
    fn dot_and_norm_agree() {
        let x = rand_field(7);
        let d = cdot_local(&x, &x);
        assert_eq!(d.re.to_bits(), norm2_local(&x).to_bits());
        assert!(d.im.abs() < 1e-9);
        let y = rand_field(8);
        // ⟨x,y⟩ = conj(⟨y,x⟩)
        let xy = cdot_local(&x, &y);
        let yx = cdot_local(&y, &x);
        assert!((xy - yx.conj()).abs() < 1e-9);
    }

    #[test]
    fn diff_norm2_matches_manual() {
        let x = rand_field(9);
        let mut y = x.clone();
        scale(&mut y, 0.9);
        let mut z = x.clone();
        axpy(-1.0, &y, &mut z); // z = x - y
        assert!((diff_norm2_local(&x, &y) - norm2_local(&z)).abs() < 1e-9);
    }

    #[test]
    fn shift_update_fused_matches_unfused() {
        let z = rand_field(10);
        let mut x1 = rand_field(11);
        let mut p1 = rand_field(12);
        let mut x2 = x1.clone();
        let mut p2 = p1.clone();
        let (a, b) = (0.7, -0.2);
        shift_update(a, b, &z, &mut x1, &mut p1);
        // Unfused: x += a p; p = z + b p.
        axpy(a, &p2, &mut x2);
        xpay(&z, b, &mut p2);
        assert!(max_abs_diff(&x1, &x2) < 1e-15);
        assert!(max_abs_diff(&p1, &p2) < 1e-15);
    }

    #[test]
    fn zero_and_copy() {
        let x = rand_field(13);
        let mut y = rand_field(14);
        copy(&mut y, &x);
        assert!(max_abs_diff(&x, &y) == 0.0);
        zero(&mut y);
        assert_eq!(norm2_local(&y), 0.0);
    }

    /// A field of `S` sites on a 4×4×2×2 even checkerboard (32 sites),
    /// Gaussian or, with `special`, drawing ±0.0, subnormals and values
    /// whose products underflow.
    fn field<R: Real, S: SiteObject<R>>(seed: u64, special: bool) -> LatticeField<R, S> {
        let sub = Arc::new(SubLattice::single(Dims([4, 4, 2, 2])).unwrap());
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        let mut f = LatticeField::zeros(sub, &faces, Parity::Even, 1);
        let mut rng = SeedTree::new(seed).rng();
        let subnormal = if R::EPSILON.to_f64() > 1e-10 { 1e-40 } else { 1e-310 };
        for v in f.body_mut() {
            let (x, _) = lqcd_util::rng::normal_pair(&mut rng);
            *v = R::from_f64(match (special, rng.gen::<u32>() % 4) {
                (true, 0) => 0.0 * x.signum(),
                (true, 1) => subnormal * x,
                (true, 2) => 1e-160 * x,
                _ => x,
            });
        }
        f
    }

    /// `(‖x‖², ⟨x, y⟩)` through the public entry points and, on x86_64,
    /// the kernels at every lane width the CPU has.
    fn reductions<R: Real, S: SiteObject<R>>(
        x: &LatticeField<R, S>,
        y: &LatticeField<R, S>,
    ) -> Vec<(u64, u64, u64)> {
        let bits = |n: f64, (re, im): (f64, f64)| (n.to_bits(), re.to_bits(), im.to_bits());
        let d = cdot_local(x, y);
        #[allow(unused_mut)]
        let mut all = vec![bits(norm2_local(x), (d.re, d.im))];
        #[cfg(target_arch = "x86_64")]
        {
            use lqcd_su3::kernels::{cdot, norm2, Width};
            for w in Width::supported() {
                all.push(match (R::reals(x.body()), R::reals(y.body())) {
                    (Reals::F32(x), Reals::F32(y)) => bits(norm2(w, x), cdot(w, x, y)),
                    (Reals::F64(x), Reals::F64(y)) => bits(norm2(w, x), cdot(w, x, y)),
                    _ => unreachable!(),
                });
            }
        }
        all
    }

    fn check_order<R: Real, S: SiteObject<R>>(seed: u64) {
        for special in [false, true] {
            let x: LatticeField<R, S> = field(seed, special);
            let y = field(seed + 1, special);
            let want = (
                ordered::norm2(x.body()).to_bits(),
                ordered::cdot(x.body(), y.body()).0.to_bits(),
                ordered::cdot(x.body(), y.body()).1.to_bits(),
            );
            for got in reductions(&x, &y) {
                assert_eq!(got, want, "{} special = {special}", R::NAME);
            }
            let xx = cdot_local(&x, &x);
            assert_eq!(xx.re.to_bits(), norm2_local(&x).to_bits(), "{}", R::NAME);
        }
    }

    /// The public reductions, and the kernels at every supported width,
    /// equal the scalar statement of the documented order bit for bit,
    /// on Wilson and staggered bodies in both precisions.
    #[test]
    fn reductions_follow_the_documented_order_at_every_width() {
        check_order::<f32, WilsonSpinor<f32>>(21);
        check_order::<f64, WilsonSpinor<f64>>(23);
        check_order::<f32, ColorVector<f32>>(25);
        check_order::<f64, ColorVector<f64>>(27);
    }

    /// `Σ a_k·b_k` and `Σ |a_k·b_k|`, the first to about twice f64
    /// precision: each product's rounding error recovered with an FMA,
    /// everything summed with Neumaier compensation.
    fn compensated(terms: impl Iterator<Item = (f64, f64)>) -> (f64, f64) {
        let (mut sum, mut comp, mut abs) = (0.0f64, 0.0f64, 0.0f64);
        let mut add = |v: f64| {
            let t = sum + v;
            comp += if sum.abs() >= v.abs() { (sum - t) + v } else { (v - t) + sum };
            sum = t;
        };
        for (a, b) in terms {
            let p = a * b;
            add(p);
            add(a.mul_add(b, -p));
            abs += p.abs();
        }
        (sum + comp, abs)
    }

    fn check_accuracy<R: Real, S: SiteObject<R>>(seed: u64) {
        let x: LatticeField<R, S> = field(seed, false);
        let y = field(seed + 1, false);
        let (xb, yb) = (x.body(), y.body());
        let n = xb.len() as f64;
        let at = |b: &[R], k: usize| b[k].to_f64();
        let within = |got: f64, (want, abs): (f64, f64), what: &str| {
            let bound = n * f64::EPSILON * abs;
            assert!((got - want).abs() <= bound, "{what} {}: {got} vs {want}", R::NAME);
        };
        let norm = compensated((0..xb.len()).map(|k| (at(xb, k), at(xb, k))));
        within(norm2_local(&x), norm, "norm2");
        let d = cdot_local(&x, &y);
        within(d.re, compensated((0..xb.len()).map(|k| (at(xb, k), at(yb, k)))), "re");
        let im = (0..xb.len()).map(|k| {
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            (sign * at(xb, k), at(yb, k ^ 1))
        });
        within(d.im, compensated(im), "im");
    }

    /// Every reduction is within `n·ε·Σ|term|` of a compensated-sum
    /// reference.
    #[test]
    fn reductions_are_accurate_to_n_eps() {
        check_accuracy::<f32, WilsonSpinor<f32>>(31);
        check_accuracy::<f64, WilsonSpinor<f64>>(33);
        check_accuracy::<f32, ColorVector<f32>>(35);
        check_accuracy::<f64, ColorVector<f64>>(37);
    }

    #[test]
    fn reductions_accumulate_in_f64_for_f32_fields() {
        // A sum that would lose precision in f32 accumulation.
        let sub = Arc::new(SubLattice::single(Dims([8, 8, 8, 8])).unwrap());
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        let mut f: LatticeField<f32, ColorVector<f32>> =
            LatticeField::zeros(sub, &faces, Parity::Even, 0);
        f.fill(|_| ColorVector::from_fn(|_| Complex::new(1.0f32 + 1e-4, 0.0)));
        let n = f.num_sites() as f64 * 3.0;
        let want = n * (1.0 + 1_f64).powi(2);
        // f32 accumulation would drift by far more than this bound.
        let got = norm2_local(&f);
        let per_term = (1.0f32 + 1e-4).to_f64() * (1.0f32 + 1e-4).to_f64();
        assert!((got - n * per_term).abs() < 1e-6, "got {got}, want ≈ {want}");
    }
}
