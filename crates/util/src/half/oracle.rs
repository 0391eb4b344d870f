//! The scalar half-precision codec: the reference the SSE2 bodies in
//! `lqcd_util::half` match bit for bit. Test-only, and free of crate
//! paths so `lqcd-field`'s tests can include the same file.
//!
//! `Fixed16` is resolved from the including module.

use super::Fixed16;

/// The encoding scale: the largest representable magnitude maps to `i16::MAX`.
pub const SCALE: f32 = i16::MAX as f32;

/// Encode a value already normalized to `[-1, 1]`; saturates outside.
/// Rounds half away from zero, exactly as `f32::round`.
pub fn encode_unit(x: f32) -> Fixed16 {
    Fixed16(round_half_away(x.clamp(-1.0, 1.0) * SCALE) as i16)
}

/// Decode back to `f32` under a unit scale.
pub fn decode_unit(m: Fixed16) -> f32 {
    m.0 as f32 / SCALE
}

/// `y.round() as i32` for |y| < 2²³ without a libm call: truncate, then
/// step outward when the dropped fraction is at least one half. `y − t` is
/// exact in that range. (`(|y| + 0.5) as i32` is not equivalent: the sum
/// rounds up to 1 for y = 0.49999997.) NaN maps to 0, as `NaN as i32` does.
pub fn round_half_away(y: f32) -> i32 {
    let t = y as i32;
    let frac = y - t as f32;
    t + (frac >= 0.5) as i32 - (frac <= -0.5) as i32
}

/// Norm = max-abs of the block (NaN dropped by `f32::max`), then one
/// mantissa per value of `x · (1/norm)`. A zero or non-finite norm gives
/// all-zero mantissas.
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
        *o = encode_unit(x * inv);
    }
    norm
}

/// `(m / SCALE) · norm` per mantissa.
pub fn decode_block(block: &[Fixed16], norm: f32, out: &mut [f32]) {
    assert_eq!(block.len(), out.len(), "output buffer must match block");
    for (o, &m) in out.iter_mut().zip(block) {
        *o = decode_unit(m) * norm;
    }
}

/// `decode(encode(block))` in place.
pub fn quantize_block(block: &mut [f32]) {
    let mut mant = vec![Fixed16(0); block.len()];
    let norm = encode_block(block, &mut mant);
    decode_block(&mant, norm, block);
}
