//! The floating-point precision abstraction.
//!
//! All lattice algebra in this workspace is generic over [`Real`], so the
//! Wilson-clover and staggered operators, BLAS-1 kernels, and Krylov
//! solvers are each written once and instantiated in double (`f64`) and
//! single (`f32`) precision. The 16-bit "half" format of the paper is a
//! *storage* format only (computation always happens in `f32` registers, as
//! on the GPU) and lives in [`crate::half`].

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A real scalar type usable throughout the lattice stack.
///
/// This is deliberately a small trait: just the arithmetic surface the
/// operators and solvers need, plus lossless-ish conversions through `f64`
/// used at mixed-precision boundaries.
pub trait Real:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon for this precision.
    const EPSILON: Self;
    /// Human-readable precision label used in experiment output
    /// (`"double"` / `"single"`).
    const NAME: &'static str;

    /// Widen to `f64` (exact for both supported precisions).
    fn to_f64(self) -> f64;
    /// Narrow from `f64` (rounds for `f32`).
    fn from_f64(x: f64) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Fused (or at least composed) multiply-add `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Maximum of two values.
    fn max(self, other: Self) -> Self;
    /// Minimum of two values.
    fn min(self, other: Self) -> Self;
    /// True if the value is finite (not NaN/inf).
    fn is_finite(self) -> bool;

    /// Values of this precision carried in each `f64` wire word of a
    /// ghost exchange (`1` for double, `2` for single: two bit-packed
    /// `f32`s per word, so messages ship at the field's true width).
    const WIRE_PER_WORD: usize;

    /// Wire words needed to carry `n` values of this precision.
    #[inline]
    fn wire_words(n: usize) -> usize {
        n.div_ceil(Self::WIRE_PER_WORD)
    }

    /// Bit-pack `src` into `wire` (`wire.len() == wire_words(src.len())`).
    /// Lossless: `unpack_wire` recovers `src` bit-for-bit.
    fn pack_wire(src: &[Self], wire: &mut [f64]);

    /// Inverse of [`Real::pack_wire`].
    fn unpack_wire(wire: &[f64], dst: &mut [Self]);

    /// Convenience: convert a `usize` count into this precision.
    #[inline]
    fn from_usize(n: usize) -> Self {
        Self::from_f64(n as f64)
    }

    /// `s` at its concrete precision, for kernels written per precision.
    fn reals(s: &[Self]) -> Reals<'_>;
}

/// A slice of reals at its concrete precision.
#[derive(Clone, Copy, Debug)]
pub enum Reals<'a> {
    /// Single precision.
    F32(&'a [f32]),
    /// Double precision.
    F64(&'a [f64]),
}

macro_rules! impl_real {
    ($t:ty, $reals:ident, $name:literal, $wire_per_word:expr, $pack:item, $unpack:item) => {
        impl Real for $t {
            const WIRE_PER_WORD: usize = $wire_per_word;
            $pack
            $unpack
            #[inline(always)]
            fn reals(s: &[Self]) -> Reals<'_> {
                Reals::$reals(s)
            }
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const EPSILON: Self = <$t>::EPSILON;
            const NAME: &'static str = $name;

            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                self * a + b
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
        }
    };
}

impl_real!(
    f32,
    F32,
    "single",
    2,
    fn pack_wire(src: &[f32], wire: &mut [f64]) {
        assert_eq!(wire.len(), src.len().div_ceil(2), "wire buffer size");
        for (w, pair) in wire.iter_mut().zip(src.chunks(2)) {
            let lo = pair[0].to_bits() as u64;
            let hi = if pair.len() > 1 { pair[1].to_bits() as u64 } else { 0 };
            *w = f64::from_bits(lo | (hi << 32));
        }
    },
    fn unpack_wire(wire: &[f64], dst: &mut [f32]) {
        assert_eq!(wire.len(), dst.len().div_ceil(2), "wire buffer size");
        for (pair, w) in dst.chunks_mut(2).zip(wire) {
            let bits = w.to_bits();
            pair[0] = f32::from_bits(bits as u32);
            if pair.len() > 1 {
                pair[1] = f32::from_bits((bits >> 32) as u32);
            }
        }
    }
);
impl_real!(
    f64,
    F64,
    "double",
    1,
    fn pack_wire(src: &[f64], wire: &mut [f64]) {
        assert_eq!(wire.len(), src.len(), "wire buffer size");
        wire.copy_from_slice(src);
    },
    fn unpack_wire(wire: &[f64], dst: &mut [f64]) {
        assert_eq!(wire.len(), dst.len(), "wire buffer size");
        dst.copy_from_slice(wire);
    }
);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<R: Real>() {
        for x in [-3.5f64, 0.0, 1.0, 123.25] {
            let r = R::from_f64(x);
            assert_eq!(r.to_f64(), x, "{x} should roundtrip exactly in {}", R::NAME);
        }
    }

    #[test]
    fn f32_roundtrip_exact_for_representable() {
        roundtrip::<f32>();
    }

    #[test]
    fn f64_roundtrip_exact() {
        roundtrip::<f64>();
    }

    #[test]
    fn constants_behave() {
        fn check<R: Real>() {
            assert_eq!(R::ZERO + R::ONE, R::ONE);
            assert_eq!(R::ONE * R::ONE, R::ONE);
            assert!(R::EPSILON > R::ZERO);
            assert!((R::ONE / R::from_f64(2.0)).to_f64() == 0.5);
        }
        check::<f32>();
        check::<f64>();
    }

    #[test]
    fn minmax_and_abs() {
        fn check<R: Real>() {
            let a = R::from_f64(-2.0);
            let b = R::from_f64(3.0);
            assert_eq!(a.abs().to_f64(), 2.0);
            assert_eq!(a.max(b).to_f64(), 3.0);
            assert_eq!(a.min(b).to_f64(), -2.0);
            assert!(b.sqrt().to_f64() > 1.73 && b.sqrt().to_f64() < 1.74);
        }
        check::<f32>();
        check::<f64>();
    }

    #[test]
    fn from_usize_matches() {
        assert_eq!(<f32 as Real>::from_usize(7), 7.0f32);
        assert_eq!(<f64 as Real>::from_usize(7), 7.0f64);
    }

    #[test]
    fn wire_words_count_by_precision() {
        assert_eq!(<f64 as Real>::wire_words(6), 6);
        assert_eq!(<f32 as Real>::wire_words(6), 3);
        assert_eq!(<f32 as Real>::wire_words(7), 4, "odd counts round up");
        assert_eq!(<f32 as Real>::wire_words(0), 0);
    }

    #[test]
    fn wire_pack_roundtrips_bit_exactly() {
        // Include values that do NOT survive an f32→f64→f32 cast of bits
        // (subnormals, negative zero) and odd lengths.
        let src32: Vec<f32> = vec![1.5, -0.0, f32::MIN_POSITIVE / 2.0, 3.25e-7, -9.75, 42.0, 0.1];
        for len in [0, 1, 2, 6, 7] {
            let s = &src32[..len];
            let mut wire = vec![0.0f64; <f32 as Real>::wire_words(len)];
            f32::pack_wire(s, &mut wire);
            let mut back = vec![0.0f32; len];
            f32::unpack_wire(&wire, &mut back);
            for (a, b) in s.iter().zip(&back) {
                assert_eq!(a.to_bits(), b.to_bits(), "f32 wire must be lossless");
            }
        }
        let src64 = [1.0f64, -2.5, 1e-300, 0.1];
        let mut wire = vec![0.0f64; 4];
        f64::pack_wire(&src64, &mut wire);
        let mut back = [0.0f64; 4];
        f64::unpack_wire(&wire, &mut back);
        assert_eq!(src64, back);
    }

    #[test]
    fn corrupted_wire_word_stays_detectable() {
        // The chaos layer corrupts wire words to NaN; an unpacked f32
        // pair must still contain a non-finite value so downstream
        // breakdown detection fires.
        let wire = [f64::NAN];
        let mut pair = [0.0f32; 2];
        f32::unpack_wire(&wire, &mut pair);
        assert!(pair.iter().any(|x| !x.is_finite()), "corruption must survive unpacking");
    }
}
