//! Complex arithmetic over any [`Real`] precision.
//!
//! A deliberately small, `#[repr(C)]`, `Copy` complex type: every lattice
//! quantity (color matrices, spinors) is built from contiguous arrays of
//! these, so layout and copyability matter more than a rich API.

use crate::real::Real;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i·im` over real type `R`.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
#[repr(C)]
pub struct Complex<R> {
    /// Real part.
    pub re: R,
    /// Imaginary part.
    pub im: R,
}

impl<R: Real> Complex<R> {
    /// The additive identity.
    pub const fn zero() -> Self
    where
        R: Copy,
    {
        Self { re: R::ZERO, im: R::ZERO }
    }

    /// The multiplicative identity.
    pub const fn one() -> Self {
        Self { re: R::ONE, im: R::ZERO }
    }

    /// The imaginary unit.
    pub const fn i() -> Self {
        Self { re: R::ZERO, im: R::ONE }
    }

    /// Construct from parts.
    #[inline(always)]
    pub const fn new(re: R, im: R) -> Self {
        Self { re, im }
    }

    /// Construct a purely real value.
    #[inline(always)]
    pub fn from_re(re: R) -> Self {
        Self { re, im: R::ZERO }
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Self { re: self.re, im: -self.im }
    }

    /// Squared modulus `|z|²`.
    #[inline(always)]
    pub fn norm_sqr(self) -> R {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline(always)]
    pub fn abs(self) -> R {
        self.norm_sqr().sqrt()
    }

    /// Multiply by the imaginary unit: `i·z = -im + i·re`.
    #[inline(always)]
    pub fn mul_i(self) -> Self {
        Self { re: -self.im, im: self.re }
    }

    /// Multiply by `-i`: `-i·z = im - i·re`.
    #[inline(always)]
    pub fn mul_neg_i(self) -> Self {
        Self { re: self.im, im: -self.re }
    }

    /// Scale by a real factor.
    #[inline(always)]
    pub fn scale(self, s: R) -> Self {
        Self { re: self.re * s, im: self.im * s }
    }

    /// Fused multiply-accumulate: `acc + a * b`.
    #[inline(always)]
    pub fn mul_acc(acc: Self, a: Self, b: Self) -> Self {
        Self { re: acc.re + a.re * b.re - a.im * b.im, im: acc.im + a.re * b.im + a.im * b.re }
    }

    /// Multiplicative inverse. Returns `None` for (exact) zero.
    pub fn inv(self) -> Option<Self> {
        let n = self.norm_sqr();
        if n == R::ZERO {
            return None;
        }
        Some(Self { re: self.re / n, im: -self.im / n })
    }

    /// Convert to another precision through `f64`.
    #[inline(always)]
    pub fn cast<S: Real>(self) -> Complex<S> {
        Complex { re: S::from_f64(self.re.to_f64()), im: S::from_f64(self.im.to_f64()) }
    }

    /// True if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl<R: Real> Add for Complex<R> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl<R: Real> Sub for Complex<R> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl<R: Real> Mul for Complex<R> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self { re: self.re * rhs.re - self.im * rhs.im, im: self.re * rhs.im + self.im * rhs.re }
    }
}

impl<R: Real> Mul<R> for Complex<R> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: R) -> Self {
        self.scale(rhs)
    }
}

impl<R: Real> Div for Complex<R> {
    type Output = Self;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let n = rhs.norm_sqr();
        Self {
            re: (self.re * rhs.re + self.im * rhs.im) / n,
            im: (self.im * rhs.re - self.re * rhs.im) / n,
        }
    }
}

impl<R: Real> Div<R> for Complex<R> {
    type Output = Self;
    #[inline(always)]
    fn div(self, rhs: R) -> Self {
        Self { re: self.re / rhs, im: self.im / rhs }
    }
}

impl<R: Real> Neg for Complex<R> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self { re: -self.re, im: -self.im }
    }
}

impl<R: Real> AddAssign for Complex<R> {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl<R: Real> SubAssign for Complex<R> {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl<R: Real> MulAssign for Complex<R> {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<R: Real> MulAssign<R> for Complex<R> {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: R) {
        self.re *= rhs;
        self.im *= rhs;
    }
}

impl<R: Real> DivAssign<R> for Complex<R> {
    #[inline(always)]
    fn div_assign(&mut self, rhs: R) {
        self.re /= rhs;
        self.im /= rhs;
    }
}

impl<R: Real> Sum for Complex<R> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::zero(), |a, b| a + b)
    }
}

impl<R: Real> std::fmt::Display for Complex<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}{:+}i)", self.re, self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type C = Complex<f64>;

    fn c(re: f64, im: f64) -> C {
        C::new(re, im)
    }

    fn close(a: C, b: C, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn identities() {
        let z = c(2.0, -3.0);
        assert_eq!(z + C::zero(), z);
        assert_eq!(z * C::one(), z);
        assert_eq!(z * C::i(), z.mul_i());
        assert_eq!(z.mul_i().mul_neg_i(), z);
    }

    #[test]
    fn conjugation_and_norm() {
        let z = c(3.0, 4.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!((z * z.conj()).re, 25.0);
        assert_eq!((z * z.conj()).im, 0.0);
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = c(1.5, -2.25);
        let b = c(-0.5, 0.75);
        assert!(close(a * b / b, a, 1e-12));
        assert!(close(b * b.inv().unwrap(), C::one(), 1e-12));
        assert_eq!(C::zero().inv(), None);
    }

    #[test]
    fn mul_acc_matches_expanded() {
        let acc = c(0.1, 0.2);
        let a = c(1.0, -1.0);
        let b = c(2.0, 3.0);
        assert!(close(C::mul_acc(acc, a, b), acc + a * b, 1e-15));
    }

    #[test]
    fn cast_roundtrips_within_f32() {
        let z = c(1.25, -7.5);
        let w: Complex<f32> = z.cast();
        assert_eq!(w.cast::<f64>(), z);
    }

    proptest! {
        #[test]
        fn prop_field_axioms(ar in -1e3f64..1e3, ai in -1e3f64..1e3,
                             br in -1e3f64..1e3, bi in -1e3f64..1e3,
                             cr in -1e3f64..1e3, ci in -1e3f64..1e3) {
            let a = c(ar, ai);
            let b = c(br, bi);
            let d = c(cr, ci);
            // commutativity
            prop_assert!(close(a + b, b + a, 1e-9));
            prop_assert!(close(a * b, b * a, 1e-6));
            // associativity (with tolerance)
            prop_assert!(close((a + b) + d, a + (b + d), 1e-9));
            // distributivity
            prop_assert!(close(a * (b + d), a * b + a * d, 1e-5));
            // conj is an involution and a homomorphism
            prop_assert_eq!(a.conj().conj(), a);
            prop_assert!(close((a * b).conj(), a.conj() * b.conj(), 1e-6));
            // |ab| = |a||b|
            prop_assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-6 * (1.0 + a.abs() * b.abs()));
        }

        #[test]
        fn prop_mul_i_is_rotation(ar in -1e3f64..1e3, ai in -1e3f64..1e3) {
            let a = c(ar, ai);
            prop_assert_eq!(a.mul_i(), a * C::i());
            prop_assert_eq!(a.mul_i().mul_i(), -a);
            prop_assert_eq!(a.mul_i().abs(), a.abs());
        }
    }
}
