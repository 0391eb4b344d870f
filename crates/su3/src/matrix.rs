//! 3×3 complex color matrices and the SU(3) group operations on them.

use crate::vector::ColorVector;
use crate::NCOLOR;
use lqcd_util::{Complex, Real};
use rand::Rng;

/// A 3×3 complex matrix in color space.
///
/// Gauge links `Uµ(x)` are elements of SU(3); smeared ("fat") staggered
/// links are general 3×3 complex matrices, so `Su3` does not enforce
/// unitarity — [`Su3::reunitarize`] projects back onto the group when
/// needed.
#[derive(Copy, Clone, Debug, PartialEq)]
#[repr(C)]
pub struct Su3<R> {
    /// Row-major storage: `m[row][col]`.
    pub m: [[Complex<R>; NCOLOR]; NCOLOR],
}

impl<R: Real> Default for Su3<R> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<R: Real> Su3<R> {
    /// The zero matrix.
    pub fn zero() -> Self {
        Self { m: [[Complex::zero(); NCOLOR]; NCOLOR] }
    }

    /// The identity matrix (the "cold" gauge link).
    pub fn identity() -> Self {
        let mut u = Self::zero();
        for i in 0..NCOLOR {
            u.m[i][i] = Complex::one();
        }
        u
    }

    /// Build from a row-major closure.
    pub fn from_fn(mut f: impl FnMut(usize, usize) -> Complex<R>) -> Self {
        let mut u = Self::zero();
        for (i, row) in u.m.iter_mut().enumerate() {
            for (j, e) in row.iter_mut().enumerate() {
                *e = f(i, j);
            }
        }
        u
    }

    /// Matrix product `self · rhs`.
    #[inline]
    pub fn mul(&self, rhs: &Self) -> Self {
        let mut out = Self::zero();
        for i in 0..NCOLOR {
            for k in 0..NCOLOR {
                let a = self.m[i][k];
                for j in 0..NCOLOR {
                    out.m[i][j] = Complex::mul_acc(out.m[i][j], a, rhs.m[k][j]);
                }
            }
        }
        out
    }

    /// `self · rhs†` without forming the adjoint (bit-identical to
    /// `self.mul(&rhs.adjoint())`).
    #[inline]
    pub fn mul_adj(&self, rhs: &Self) -> Self {
        let mut out = Self::zero();
        for i in 0..NCOLOR {
            for k in 0..NCOLOR {
                let a = self.m[i][k];
                for j in 0..NCOLOR {
                    out.m[i][j] = Complex::mul_acc(out.m[i][j], a, rhs.m[j][k].conj());
                }
            }
        }
        out
    }

    /// `self† · rhs` without forming the adjoint (bit-identical to
    /// `self.adjoint().mul(rhs)`).
    #[inline]
    pub fn adj_mul(&self, rhs: &Self) -> Self {
        let mut out = Self::zero();
        for i in 0..NCOLOR {
            for k in 0..NCOLOR {
                let a = self.m[k][i].conj();
                for j in 0..NCOLOR {
                    out.m[i][j] = Complex::mul_acc(out.m[i][j], a, rhs.m[k][j]);
                }
            }
        }
        out
    }

    /// Hermitian conjugate (adjoint) `U†`.
    #[inline]
    pub fn adjoint(&self) -> Self {
        Self::from_fn(|i, j| self.m[j][i].conj())
    }

    /// `self · v` on a color vector.
    #[inline(always)]
    pub fn mul_vec(&self, v: &ColorVector<R>) -> ColorVector<R> {
        let mut out = ColorVector::zero();
        for i in 0..NCOLOR {
            let mut acc = Complex::zero();
            for j in 0..NCOLOR {
                acc = Complex::mul_acc(acc, self.m[i][j], v.c[j]);
            }
            out.c[i] = acc;
        }
        out
    }

    /// `self† · v` without forming the adjoint.
    #[inline(always)]
    pub fn adj_mul_vec(&self, v: &ColorVector<R>) -> ColorVector<R> {
        let mut out = ColorVector::zero();
        for i in 0..NCOLOR {
            let mut acc = Complex::zero();
            for j in 0..NCOLOR {
                acc = Complex::mul_acc(acc, self.m[j][i].conj(), v.c[j]);
            }
            out.c[i] = acc;
        }
        out
    }

    /// Sum of two matrices.
    #[inline]
    pub fn add(&self, rhs: &Self) -> Self {
        Self::from_fn(|i, j| self.m[i][j] + rhs.m[i][j])
    }

    /// Difference of two matrices.
    #[inline]
    pub fn sub(&self, rhs: &Self) -> Self {
        Self::from_fn(|i, j| self.m[i][j] - rhs.m[i][j])
    }

    /// Scale by a real factor.
    #[inline]
    pub fn scale(&self, s: R) -> Self {
        Self::from_fn(|i, j| self.m[i][j].scale(s))
    }

    /// Scale by a complex factor.
    #[inline]
    pub fn scale_c(&self, s: Complex<R>) -> Self {
        Self::from_fn(|i, j| self.m[i][j] * s)
    }

    /// Matrix trace.
    #[inline]
    pub fn trace(&self) -> Complex<R> {
        self.m[0][0] + self.m[1][1] + self.m[2][2]
    }

    /// Determinant (Laplace expansion along the first row).
    pub fn det(&self) -> Complex<R> {
        let m = &self.m;
        let c0 = m[1][1] * m[2][2] - m[1][2] * m[2][1];
        let c1 = m[1][0] * m[2][2] - m[1][2] * m[2][0];
        let c2 = m[1][0] * m[2][1] - m[1][1] * m[2][0];
        m[0][0] * c0 - m[0][1] * c1 + m[0][2] * c2
    }

    /// Frobenius norm squared `Σ |m_ij|²`.
    pub fn norm_sqr(&self) -> R {
        let mut s = R::ZERO;
        for row in &self.m {
            for e in row {
                s += e.norm_sqr();
            }
        }
        s
    }

    /// Deviation from unitarity: `‖U U† − 1‖_F`.
    pub fn unitarity_error(&self) -> R {
        let uu = self.mul(&self.adjoint());
        let mut s = R::ZERO;
        for i in 0..NCOLOR {
            for j in 0..NCOLOR {
                let target = if i == j { Complex::one() } else { Complex::zero() };
                s += (uu.m[i][j] - target).norm_sqr();
            }
        }
        s.sqrt()
    }

    /// Project onto SU(3) by Gram–Schmidt on the rows followed by fixing
    /// the third row to `conj(row0 × row1)`, which enforces `det = 1`.
    pub fn reunitarize(&self) -> Self {
        let mut r0 = [self.m[0][0], self.m[0][1], self.m[0][2]];
        let n0 = (r0[0].norm_sqr() + r0[1].norm_sqr() + r0[2].norm_sqr()).sqrt();
        for e in &mut r0 {
            *e /= n0;
        }
        let mut r1 = [self.m[1][0], self.m[1][1], self.m[1][2]];
        // r1 -= (r1 · r0*) r0
        let mut dot = Complex::zero();
        for k in 0..NCOLOR {
            dot = Complex::mul_acc(dot, r1[k], r0[k].conj());
        }
        for k in 0..NCOLOR {
            r1[k] -= dot * r0[k];
        }
        let n1 = (r1[0].norm_sqr() + r1[1].norm_sqr() + r1[2].norm_sqr()).sqrt();
        for e in &mut r1 {
            *e /= n1;
        }
        // r2 = conj(r0 × r1)
        let r2 = [
            (r0[1] * r1[2] - r0[2] * r1[1]).conj(),
            (r0[2] * r1[0] - r0[0] * r1[2]).conj(),
            (r0[0] * r1[1] - r0[1] * r1[0]).conj(),
        ];
        Self { m: [r0, r1, r2] }
    }

    /// A Haar-ish random SU(3) element: random complex Gaussian entries,
    /// reunitarized. Used for "hot" gauge starts.
    pub fn random<G: Rng>(rng: &mut G) -> Self {
        let mut u = Self::zero();
        for row in &mut u.m {
            for e in row.iter_mut() {
                let (a, b) = lqcd_util::rng::normal_pair(rng);
                *e = Complex::new(R::from_f64(a), R::from_f64(b));
            }
        }
        u.reunitarize()
    }

    /// A random SU(3) element near the identity: `exp`-like small
    /// perturbation of strength `eps ∈ [0, 1]`, reunitarized. `eps = 0`
    /// yields the identity; `eps = 1` approaches a fully random element.
    /// Used for tunable-disorder gauge fields (our stand-in for ensembles
    /// at different couplings).
    pub fn random_near_identity<G: Rng>(rng: &mut G, eps: f64) -> Self {
        let mut u = Self::identity();
        for row in &mut u.m {
            for e in row.iter_mut() {
                let (a, b) = lqcd_util::rng::normal_pair(rng);
                *e += Complex::new(R::from_f64(eps * a), R::from_f64(eps * b));
            }
        }
        u.reunitarize()
    }

    /// Convert to another precision through `f64`.
    pub fn cast<S: Real>(&self) -> Su3<S> {
        Su3::from_fn(|i, j| self.m[i][j].cast())
    }

    /// Flatten to 18 reals (row-major, re/im interleaved).
    pub fn to_reals(&self) -> [R; 18] {
        let mut out = [R::ZERO; 18];
        let mut k = 0;
        for row in &self.m {
            for e in row {
                out[k] = e.re;
                out[k + 1] = e.im;
                k += 2;
            }
        }
        out
    }

    /// Rebuild from 18 reals (inverse of [`Su3::to_reals`]).
    pub fn from_reals(r: &[R; 18]) -> Self {
        let mut u = Self::zero();
        let mut k = 0;
        for row in &mut u.m {
            for e in row.iter_mut() {
                *e = Complex::new(r[k], r[k + 1]);
                k += 2;
            }
        }
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqcd_util::rng::SeedTree;

    type M = Su3<f64>;

    fn rand_su3(seed: u64) -> M {
        let tree = SeedTree::new(seed);
        M::random(&mut tree.rng())
    }

    #[test]
    fn identity_is_identity() {
        let i = M::identity();
        let u = rand_su3(1);
        assert!(i.mul(&u).sub(&u).norm_sqr() < 1e-28);
        assert!(u.mul(&i).sub(&u).norm_sqr() < 1e-28);
        assert_eq!(i.trace().re, 3.0);
    }

    #[test]
    fn random_elements_are_special_unitary() {
        for seed in 0..20 {
            let u = rand_su3(seed);
            assert!(u.unitarity_error() < 1e-12, "seed {seed}");
            let d = u.det();
            assert!((d.re - 1.0).abs() < 1e-12 && d.im.abs() < 1e-12, "seed {seed}: det {d}");
        }
    }

    #[test]
    fn group_closure() {
        let a = rand_su3(3);
        let b = rand_su3(4);
        let ab = a.mul(&b);
        assert!(ab.unitarity_error() < 1e-12);
        assert!((ab.det().abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn adjoint_is_inverse_on_group() {
        let u = rand_su3(5);
        let prod = u.mul(&u.adjoint());
        assert!(prod.sub(&M::identity()).norm_sqr() < 1e-24);
    }

    #[test]
    fn adj_mul_vec_matches_explicit_adjoint() {
        let u = rand_su3(6);
        let tree = SeedTree::new(99);
        let v = ColorVector::<f64>::random(&mut tree.rng());
        let a = u.adj_mul_vec(&v);
        let b = u.adjoint().mul_vec(&v);
        assert!(a.sub(&b).norm_sqr() < 1e-28);
    }

    #[test]
    fn fused_adjoint_products_match_explicit_adjoint_bitwise() {
        let tree = SeedTree::new(98);
        let mut rng = tree.rng();
        // General (non-unitary) complex matrices, as for smeared links.
        let mut gen = || M::from_fn(|_, _| Complex::new(rng.gen::<f64>() - 0.5, rng.gen()));
        let (a, b) = (gen(), gen());
        let bits = |u: M| u.to_reals().map(f64::to_bits);
        assert_eq!(bits(a.mul_adj(&b)), bits(a.mul(&b.adjoint())));
        assert_eq!(bits(a.adj_mul(&b)), bits(a.adjoint().mul(&b)));
    }

    #[test]
    fn mul_vec_is_linear_and_norm_preserving() {
        let u = rand_su3(7);
        let tree = SeedTree::new(100);
        let mut rng = tree.rng();
        let v = ColorVector::<f64>::random(&mut rng);
        let w = ColorVector::<f64>::random(&mut rng);
        let lin = u.mul_vec(&v.add(&w));
        let sum = u.mul_vec(&v).add(&u.mul_vec(&w));
        assert!(lin.sub(&sum).norm_sqr() < 1e-24);
        assert!((u.mul_vec(&v).norm_sqr() - v.norm_sqr()).abs() < 1e-12);
    }

    #[test]
    fn near_identity_interpolates() {
        let tree = SeedTree::new(8);
        let u0 = M::random_near_identity(&mut tree.rng(), 0.0);
        assert!(u0.sub(&M::identity()).norm_sqr() < 1e-24);
        let usmall = M::random_near_identity(&mut tree.rng(), 0.05);
        assert!(usmall.sub(&M::identity()).norm_sqr() < 0.2);
        assert!(usmall.unitarity_error() < 1e-12);
    }

    #[test]
    fn reals_roundtrip() {
        let u = rand_su3(9);
        assert_eq!(M::from_reals(&u.to_reals()), u);
    }

    #[test]
    fn det_of_product_is_product_of_dets() {
        let a = rand_su3(10);
        let b = rand_su3(11);
        let lhs = a.mul(&b).det();
        let rhs = a.det() * b.det();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn cast_to_f32_and_back_is_close() {
        let u = rand_su3(12);
        let v: Su3<f32> = u.cast();
        let back: Su3<f64> = v.cast();
        assert!(u.sub(&back).norm_sqr() < 1e-12);
    }

    #[test]
    fn reunitarize_fixes_perturbation() {
        let mut u = rand_su3(13);
        u.m[1][2] += Complex::new(0.1, -0.05);
        assert!(u.unitarity_error() > 1e-3);
        let v = u.reunitarize();
        assert!(v.unitarity_error() < 1e-12);
        assert!((v.det().abs() - 1.0).abs() < 1e-12);
    }
}
