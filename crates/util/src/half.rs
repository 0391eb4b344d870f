//! 16-bit fixed-point "half precision" storage, after QUDA.
//!
//! The paper (§5) describes a custom 16-bit fixed-point storage format used
//! together with mixed-precision solvers: fields are stored as 16-bit
//! integers and expanded to 32-bit floats in registers at load time. For
//! spinor fields, whose per-site magnitude varies across the lattice, QUDA
//! stores an auxiliary per-site `f32` norm and normalizes the 16-bit
//! mantissas by it; gauge links have entries bounded by 1 in magnitude (for
//! unitary links) so a global scale suffices.
//!
//! We reproduce both schemes:
//!
//! * [`Fixed16`] — one 16-bit fixed-point value with a compile-time-free
//!   dynamic scale handled by the caller;
//! * [`encode_block`] / [`decode_block`] — per-site block conversion with
//!   an explicit stored norm, exactly the per-site-normalized spinor scheme.
//!
//! Round-trip error is bounded by `norm / 2^15` per component, which the
//! property tests below pin down.

use serde::{Deserialize, Serialize};

/// A single 16-bit fixed-point mantissa in `[-1, 1]`.
///
/// `Fixed16(i16::MAX)` represents `+1.0` under a unit scale. Values are
/// saturated on encode so out-of-range inputs clamp instead of wrapping.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[repr(transparent)]
pub struct Fixed16(pub i16);

/// The encoding scale: the largest representable magnitude maps to `i16::MAX`.
const SCALE: f32 = i16::MAX as f32;

impl Fixed16 {
    /// Encode a value already normalized to `[-1, 1]`; saturates outside.
    /// Rounds half away from zero, exactly as `f32::round`.
    #[inline(always)]
    pub fn encode_unit(x: f32) -> Self {
        Fixed16(round_half_away(x.clamp(-1.0, 1.0) * SCALE) as i16)
    }

    /// Decode back to `f32` under a unit scale.
    #[inline(always)]
    pub fn decode_unit(self) -> f32 {
        self.0 as f32 / SCALE
    }

    /// Worst-case absolute round-trip error under a unit scale.
    pub const fn unit_eps() -> f32 {
        // Half a quantization step.
        0.5 / SCALE
    }
}

/// `y.round() as i32` for |y| < 2²³, without the libm call `f32::round`
/// compiles to on baseline x86-64: truncate, then step outward when the
/// dropped fraction is at least one half. `y − t` is exact in that range.
/// (`(|y| + 0.5) as i32` is not equivalent: the sum rounds up to 1 for
/// y = 0.49999997.) NaN maps to 0, as `NaN as i32` does.
#[inline(always)]
fn round_half_away(y: f32) -> i32 {
    let t = y as i32;
    let frac = y - t as f32;
    t + (frac >= 0.5) as i32 - (frac <= -0.5) as i32
}

/// Encode a block of `f32` values (e.g. the 24 reals of one Wilson spinor
/// site) into 16-bit mantissas plus a stored norm.
///
/// The stored norm is the max-abs of the block (QUDA uses the site norm; the
/// max-abs gives the tightest quantization bound and identical asymptotics).
/// Returns the norm; `out` receives one mantissa per input value.
///
/// # Panics
/// Panics if `out.len() != block.len()`.
pub fn encode_block(block: &[f32], out: &mut [Fixed16]) -> f32 {
    assert_eq!(block.len(), out.len(), "mantissa buffer must match block");
    let mut norm = 0.0f32;
    for &x in block {
        norm = norm.max(x.abs());
    }
    if norm == 0.0 || !norm.is_finite() {
        for o in out.iter_mut() {
            *o = Fixed16(0);
        }
        return if norm.is_finite() { 0.0 } else { norm };
    }
    let inv = 1.0 / norm;
    for (o, &x) in out.iter_mut().zip(block) {
        *o = Fixed16::encode_unit(x * inv);
    }
    norm
}

/// Decode a block previously produced by [`encode_block`].
///
/// # Panics
/// Panics if `out.len() != block.len()`.
pub fn decode_block(block: &[Fixed16], norm: f32, out: &mut [f32]) {
    assert_eq!(block.len(), out.len(), "output buffer must match block");
    for (o, &m) in out.iter_mut().zip(block) {
        *o = m.decode_unit() * norm;
    }
}

/// Worst-case absolute error of a block round-trip with the given norm.
#[inline]
pub fn block_eps(norm: f32) -> f32 {
    // encode_unit introduces ≤ 0.5/SCALE on the normalized value; scaling by
    // the norm gives the absolute bound. One extra ulp covers the division
    // and multiplication rounding.
    norm * (0.5 / SCALE) + norm * f32::EPSILON * 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_block_is_exact() {
        let block = [0.0f32; 8];
        let mut enc = [Fixed16(0); 8];
        let norm = encode_block(&block, &mut enc);
        assert_eq!(norm, 0.0);
        let mut dec = [1.0f32; 8];
        decode_block(&enc, norm, &mut dec);
        assert_eq!(dec, [0.0f32; 8]);
    }

    #[test]
    fn unit_values_roundtrip_tightly() {
        for &x in &[1.0f32, -1.0, 0.5, -0.25, 0.125] {
            let e = Fixed16::encode_unit(x);
            assert!((e.decode_unit() - x).abs() <= Fixed16::unit_eps(), "x={x}");
        }
    }

    #[test]
    fn saturation_clamps() {
        assert_eq!(Fixed16::encode_unit(10.0), Fixed16::encode_unit(1.0));
        assert_eq!(Fixed16::encode_unit(-10.0), Fixed16::encode_unit(-1.0));
    }

    #[test]
    fn max_component_survives() {
        // The block max maps to exactly ±1 mantissa, so it round-trips to
        // within one decode scaling of itself.
        let block = [3.0f32, -1.5, 0.75];
        let mut enc = [Fixed16(0); 3];
        let norm = encode_block(&block, &mut enc);
        assert_eq!(norm, 3.0);
        let mut dec = [0.0f32; 3];
        decode_block(&enc, norm, &mut dec);
        assert!((dec[0] - 3.0).abs() < 1e-3);
    }

    /// The encoding before the truncating rewrite.
    fn encode_by_round(x: f32) -> Fixed16 {
        Fixed16((x.clamp(-1.0, 1.0) * SCALE).round() as i16)
    }

    /// `f(tie)` and `f` at up to 4 ulps either side of it.
    fn around(tie: f32, mut f: impl FnMut(f32)) {
        let (mut lo, mut hi) = (tie, tie);
        for _ in 0..=4 {
            f(lo);
            f(hi);
            (lo, hi) = (lo.next_down(), hi.next_up());
        }
    }

    #[test]
    fn encode_matches_round_half_away_from_zero_at_every_tie() {
        for k in -(SCALE as i32) - 1..=SCALE as i32 {
            around((k as f32 + 0.5) / SCALE, |x| {
                assert_eq!(Fixed16::encode_unit(x), encode_by_round(x), "x = {x:e}");
            });
            // The scaled ties themselves, which x·SCALE does not reach
            // exactly for every k (0.49999997 among them).
            around(k as f32 + 0.5, |y| {
                assert_eq!(round_half_away(y), y.round() as i32, "y = {y:e}");
            });
        }
    }

    #[test]
    fn encode_matches_round_on_a_dense_sweep() {
        const N: i32 = 1 << 22;
        for i in -N..=N {
            let x = i as f32 / N as f32;
            assert_eq!(Fixed16::encode_unit(x), encode_by_round(x), "x = {x:e}");
        }
        for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 2.0, -2.0] {
            assert_eq!(Fixed16::encode_unit(x), encode_by_round(x), "x = {x:e}");
        }
    }

    proptest! {
        #[test]
        fn prop_block_roundtrip_error_bounded(
            block in proptest::collection::vec(-1e6f32..1e6, 1..64)
        ) {
            let mut enc = vec![Fixed16(0); block.len()];
            let norm = encode_block(&block, &mut enc);
            let mut dec = vec![0.0f32; block.len()];
            decode_block(&enc, norm, &mut dec);
            let bound = block_eps(norm);
            for (i, (&orig, &back)) in block.iter().zip(&dec).enumerate() {
                prop_assert!(
                    (orig - back).abs() <= bound,
                    "component {i}: {orig} vs {back}, bound {bound}"
                );
            }
        }

        #[test]
        fn prop_encode_is_monotone(a in -1.0f32..1.0, b in -1.0f32..1.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(Fixed16::encode_unit(lo).0 <= Fixed16::encode_unit(hi).0);
        }
    }
}
