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
//!   an explicit stored norm, exactly the per-site-normalized spinor scheme;
//! * [`quantize_block`] — `decode(encode(x))` in place, the store a
//!   mixed-precision solver makes when it keeps a vector in half.
//!
//! # The codec
//!
//! A block's norm is the max-abs of its values. A value `x` becomes the
//! mantissa `round(clamp(x · (1/norm), −1, 1) · 32767)`, rounded half away
//! from zero, and a mantissa `m` decodes to `(m / 32767) · norm`.
//! Round-trip error is bounded by `norm / 2^15` per component
//! ([`block_eps`]), which the property tests below pin down.
//!
//! The three block functions are SSE2, four values per step. A block whose
//! length is not a multiple of four (the 6 reals of a staggered colour
//! vector) ends with one zero-padded step through the same body. Each lane
//! performs the scalar operations in the scalar order, with no FMA and no
//! reciprocal estimate in place of a divide, so the results equal the
//! scalar codec (kept as the test oracle, `half/oracle.rs`) bit for bit,
//! signed zeros, subnormals, infinities and NaNs included:
//!
//! * the norm accumulates `maxps(|x|, acc)`: the second operand wins when
//!   either is NaN, so NaN values drop out exactly as `f32::max` drops them;
//! * the clamp `minps(1, maxps(−1, u))` propagates NaN as `f32::clamp` does;
//! * rounding truncates (`cvttps2dq`) and steps outward when the dropped
//!   fraction is at least one half; NaN lanes are set to 0 first, as
//!   `NaN as i32` is 0;
//! * decoding divides by 32767 with a true `divps`.
//!
//! A zero or infinite norm needs no branch: `1/norm` is `Inf` or 0, every
//! `x · (1/norm)` is then NaN or ±0, and every mantissa is 0.
//!
//! SSE2 is part of the x86_64 baseline, so there is no runtime detection
//! and no build flag.
//!
//! # Non-finite values
//!
//! Half storage keeps neither NaN nor infinity, and can drop a NaN
//! silently:
//!
//! * a NaN inside a block with a finite norm is left out of the norm and
//!   stored as mantissa 0: it decodes to `+0.0`;
//! * a block holding ±Inf has norm `+Inf` and all-zero mantissas: every
//!   value decodes to `0 · Inf = NaN`;
//! * an all-NaN block has norm 0: every value decodes to `+0.0`.
//!
//! A second round trip is therefore not the identity on non-finite blocks
//! (Inf → NaN → +0.0). Solvers detect corruption from the norms they
//! reduce, not by expecting a NaN to survive a store.

use serde::{Deserialize, Serialize};
use std::arch::x86_64::*;

#[cfg(test)]
mod oracle;

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
    /// Worst-case absolute round-trip error under a unit scale.
    pub const fn unit_eps() -> f32 {
        // Half a quantization step.
        0.5 / SCALE
    }
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
#[inline]
pub fn encode_block(block: &[f32], out: &mut [Fixed16]) -> f32 {
    assert_eq!(block.len(), out.len(), "mantissa buffer must match block");
    // SAFETY: SSE2 is part of the x86_64 baseline; every load and store
    // goes through a chunk of at most four values.
    unsafe {
        let norm = block_norm(block);
        let inv = _mm_set1_ps(1.0 / norm);
        for (x, m) in block.chunks(4).zip(out.chunks_mut(4)) {
            store_mantissas(m, encode(load(x), inv));
        }
        norm
    }
}

/// Decode a block previously produced by [`encode_block`].
///
/// # Panics
/// Panics if `out.len() != block.len()`.
#[inline]
pub fn decode_block(block: &[Fixed16], norm: f32, out: &mut [f32]) {
    assert_eq!(block.len(), out.len(), "output buffer must match block");
    // SAFETY: as in `encode_block`.
    unsafe {
        let norm = _mm_set1_ps(norm);
        for (m, x) in block.chunks(4).zip(out.chunks_mut(4)) {
            store(x, decode(load_mantissas(m), norm));
        }
    }
}

/// Round-trip a block through half storage in place:
/// `decode(encode(block))`, bit for bit, without the mantissa buffer.
#[inline]
pub fn quantize_block(block: &mut [f32]) {
    // SAFETY: as in `encode_block`.
    unsafe {
        let norm = block_norm(block);
        let inv = _mm_set1_ps(1.0 / norm);
        let norm = _mm_set1_ps(norm);
        for x in block.chunks_mut(4) {
            store(x, decode(encode(load(x), inv), norm));
        }
    }
}

/// Worst-case absolute error of a block round-trip with the given norm.
#[inline]
pub fn block_eps(norm: f32) -> f32 {
    // Encoding introduces ≤ 0.5/SCALE on the normalized value; scaling by
    // the norm gives the absolute bound. One extra ulp covers the division
    // and multiplication rounding.
    norm * (0.5 / SCALE) + norm * f32::EPSILON * 2.0
}

/// Up to four values, zero-padded to four lanes.
///
/// # Safety
/// SSE2 must be available, which it is on every x86_64 target.
#[inline(always)]
unsafe fn load(x: &[f32]) -> __m128 {
    if let Ok(x) = <&[f32; 4]>::try_from(x) {
        _mm_loadu_ps(x.as_ptr())
    } else {
        let mut pad = [0.0f32; 4];
        pad[..x.len()].copy_from_slice(x);
        _mm_loadu_ps(pad.as_ptr())
    }
}

/// Store the first `x.len()` (at most four) lanes of `v`.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn store(x: &mut [f32], v: __m128) {
    if let Ok(x) = <&mut [f32; 4]>::try_from(&mut *x) {
        _mm_storeu_ps(x.as_mut_ptr(), v)
    } else {
        let mut pad = [0.0f32; 4];
        _mm_storeu_ps(pad.as_mut_ptr(), v);
        let n = x.len();
        x.copy_from_slice(&pad[..n]);
    }
}

/// Up to four mantissas, sign-extended to `i32` lanes and zero-padded.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn load_mantissas(m: &[Fixed16]) -> __m128i {
    let mut pad = [Fixed16(0); 4];
    let m = match <&[Fixed16; 4]>::try_from(m) {
        Ok(m) => m,
        Err(_) => {
            pad[..m.len()].copy_from_slice(m);
            &pad
        }
    };
    // `Fixed16` is a transparent `i16`: four of them are 8 bytes.
    let v = _mm_loadl_epi64(m.as_ptr().cast());
    _mm_srai_epi32::<16>(_mm_unpacklo_epi16(v, v))
}

/// Narrow four `i32` lanes in `[−32767, 32767]` to mantissas and store the
/// first `m.len()` (at most four).
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn store_mantissas(m: &mut [Fixed16], v: __m128i) {
    let v = _mm_packs_epi32(v, v);
    if let Ok(m) = <&mut [Fixed16; 4]>::try_from(&mut *m) {
        _mm_storel_epi64(m.as_mut_ptr().cast(), v)
    } else {
        let mut pad = [Fixed16(0); 4];
        _mm_storel_epi64(pad.as_mut_ptr().cast(), v);
        let n = m.len();
        m.copy_from_slice(&pad[..n]);
    }
}

/// The max-abs of a block, NaN values dropped (0 for an empty or all-NaN
/// block).
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn block_norm(block: &[f32]) -> f32 {
    let abs = _mm_castsi128_ps(_mm_set1_epi32(i32::MAX));
    let mut acc = _mm_setzero_ps();
    for x in block.chunks(4) {
        // `acc` second: maxps returns it when either operand is NaN.
        acc = _mm_max_ps(_mm_and_ps(load(x), abs), acc);
    }
    // The lanes are now non-negative and NaN-free, so any order of the
    // horizontal max gives the same value.
    let acc = _mm_max_ps(acc, _mm_movehl_ps(acc, acc));
    _mm_cvtss_f32(_mm_max_ss(acc, _mm_shuffle_ps::<1>(acc, acc)))
}

/// Four mantissas, as `i32` lanes, of `x · inv`: clamp to `[−1, 1]`, scale
/// by 32767 and round half away from zero (NaN to 0).
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn encode(x: __m128, inv: __m128) -> __m128i {
    let u = _mm_mul_ps(x, inv);
    let y = _mm_mul_ps(
        _mm_min_ps(_mm_set1_ps(1.0), _mm_max_ps(_mm_set1_ps(-1.0), u)),
        _mm_set1_ps(SCALE),
    );
    let y = _mm_and_ps(y, _mm_cmpord_ps(y, y));
    let t = _mm_cvttps_epi32(y);
    // Exact for |y| < 2²³.
    let frac = _mm_sub_ps(y, _mm_cvtepi32_ps(t));
    // Comparison masks are −1 where true: t + (frac ≥ ½) − (frac ≤ −½).
    let up = _mm_castps_si128(_mm_cmpge_ps(frac, _mm_set1_ps(0.5)));
    let down = _mm_castps_si128(_mm_cmple_ps(frac, _mm_set1_ps(-0.5)));
    _mm_add_epi32(_mm_sub_epi32(t, up), down)
}

/// `(m / 32767) · norm` on four `i32` mantissa lanes.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn decode(m: __m128i, norm: __m128) -> __m128 {
    _mm_mul_ps(_mm_div_ps(_mm_cvtepi32_ps(m), _mm_set1_ps(SCALE)), norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bit patterns of a block, for `to_bits()` equality that also
    /// compares NaNs and signed zeros.
    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// `encode_block`, `decode_block` and `quantize_block` on `block`
    /// equal the scalar oracle bit for bit: norm, mantissas and values.
    fn assert_matches_oracle(block: &[f32]) {
        let n = block.len();
        let (mut got, mut want) = (vec![Fixed16(7); n], vec![Fixed16(7); n]);
        let norm = encode_block(block, &mut got);
        let oracle_norm = oracle::encode_block(block, &mut want);
        assert_eq!(norm.to_bits(), oracle_norm.to_bits(), "norm of {block:?}");
        assert_eq!(got, want, "mantissas of {block:?}");
        let (mut dec, mut oracle_dec) = (vec![1.0f32; n], vec![1.0f32; n]);
        decode_block(&got, norm, &mut dec);
        oracle::decode_block(&want, oracle_norm, &mut oracle_dec);
        assert_eq!(bits(&dec), bits(&oracle_dec), "decoded {block:?}");
        let (mut q, mut oracle_q) = (block.to_vec(), block.to_vec());
        quantize_block(&mut q);
        oracle::quantize_block(&mut oracle_q);
        assert_eq!(bits(&q), bits(&oracle_q), "quantized {block:?}");
        assert_eq!(bits(&q), bits(&dec), "quantize is decode∘encode on {block:?}");
    }

    /// Check `values` in blocks of `len` (the last one may be shorter),
    /// each led by `lead`, so a lead of ±1 at least as large as every
    /// value fixes the norm at 1 and the normalized value at `x` itself.
    fn sweep_in_blocks(values: &[f32], len: usize, lead: f32) {
        for chunk in values.chunks(len - 1) {
            let mut block = vec![lead];
            block.extend_from_slice(chunk);
            assert_matches_oracle(&block);
        }
    }

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
            let e = oracle::encode_unit(x);
            assert!((oracle::decode_unit(e) - x).abs() <= Fixed16::unit_eps(), "x={x}");
        }
    }

    #[test]
    fn saturation_clamps() {
        assert_eq!(oracle::encode_unit(10.0), oracle::encode_unit(1.0));
        assert_eq!(oracle::encode_unit(-10.0), oracle::encode_unit(-1.0));
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
        Fixed16((x.clamp(-1.0, 1.0) * oracle::SCALE).round() as i16)
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
        let scale = oracle::SCALE as i32;
        let (mut unit, mut scaled) = (Vec::new(), Vec::new());
        for k in -scale - 1..=scale {
            around((k as f32 + 0.5) / oracle::SCALE, |x| {
                assert_eq!(oracle::encode_unit(x), encode_by_round(x), "x = {x:e}");
                if x.abs() <= 1.0 {
                    unit.push(x);
                }
            });
            // The scaled ties themselves, which x·SCALE does not reach
            // exactly for every k (0.49999997 among them).
            around(k as f32 + 0.5, |y| {
                assert_eq!(oracle::round_half_away(y), y.round() as i32, "y = {y:e}");
                if y.abs() <= oracle::SCALE {
                    scaled.push(y);
                }
            });
        }
        // The SSE2 codec on the same values: at norm 1 they are the
        // normalized values themselves; at norm 32767 their scaled images
        // land within an ulp or two of the ties.
        for len in [6, 24] {
            for lead in [1.0, -1.0] {
                sweep_in_blocks(&unit, len, lead);
            }
            sweep_in_blocks(&scaled, len, oracle::SCALE);
        }
    }

    #[test]
    fn encode_matches_round_on_a_dense_sweep() {
        const N: i32 = 1 << 22;
        let values: Vec<f32> = (-N..=N).map(|i| i as f32 / N as f32).collect();
        for &x in &values {
            assert_eq!(oracle::encode_unit(x), encode_by_round(x), "x = {x:e}");
        }
        for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 2.0, -2.0] {
            assert_eq!(oracle::encode_unit(x), encode_by_round(x), "x = {x:e}");
        }
        sweep_in_blocks(&values, 24, 1.0);
        sweep_in_blocks(&values[..1 << 20], 6, -1.0);
    }

    #[test]
    fn decode_matches_oracle_for_every_mantissa() {
        let all: Vec<Fixed16> = (i16::MIN..=i16::MAX).map(Fixed16).collect();
        for norm in [1.0f32, 3.7, 1e-3, 2.5e30, 1e-40, 0.0, f32::INFINITY, f32::NAN] {
            for len in [6, 24] {
                for m in all.chunks(len) {
                    let (mut got, mut want) = (vec![0.0f32; m.len()], vec![0.0f32; m.len()]);
                    decode_block(m, norm, &mut got);
                    oracle::decode_block(m, norm, &mut want);
                    assert_eq!(bits(&got), bits(&want), "norm {norm:e}, mantissas {m:?}");
                }
            }
        }
    }

    #[test]
    fn edge_case_blocks_match_oracle() {
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        let sub = f32::from_bits(1); // smallest subnormal
        let one_down = 1.0f32.next_down();
        let shapes: [&[f32]; 10] = [
            &[0.0; 24],
            &[0.0, -0.0, 0.0, -0.0, -0.0, 0.0],
            &[sub, -sub, 0.0, 3.0 * sub, -0.0, sub],
            &[1e-39, -7e-40, 2e-45, 0.0, -1e-39, 5e-41],
            &[1.0, -1.0, one_down, -one_down, 1.0 + f32::EPSILON, -0.5],
            &[inf, 1.0, -2.0, 0.0, -0.0, 3.0],
            &[-inf, inf, 1.0, nan, -0.0, 2.0],
            &[nan; 24],
            &[nan, -nan, nan, nan, nan, nan],
            &[f32::MAX, -f32::MAX, 1.0, f32::MIN_POSITIVE, -0.0, 1e30],
        ];
        for shape in shapes {
            assert_matches_oracle(shape);
        }
        // A NaN at every position of a finite block, both lengths; and
        // every block length from 1 to 25, for the zero-padded tail.
        for len in [6, 24] {
            for at in 0..len {
                let mut block: Vec<f32> = (0..len).map(|k| (k as f32 - 2.5) * 0.37).collect();
                block[at] = if at % 2 == 0 { nan } else { -nan };
                assert_matches_oracle(&block);
            }
        }
        for len in 1..=25 {
            let block: Vec<f32> = (0..len).map(|k| (k as f32 * 1.7).sin() * 4.0).collect();
            assert_matches_oracle(&block);
        }
    }

    #[test]
    fn a_nan_in_a_finite_block_is_stored_as_plus_zero() {
        let mut block = [0.5f32, f32::NAN, -2.0, 1.0, 0.25, -f32::NAN];
        quantize_block(&mut block);
        assert_eq!(block[1].to_bits(), 0.0f32.to_bits());
        assert_eq!(block[5].to_bits(), 0.0f32.to_bits());
        assert_eq!(block[2], -2.0);
    }

    #[test]
    fn an_infinite_block_decodes_to_all_nan() {
        for inf in [f32::INFINITY, f32::NEG_INFINITY] {
            let mut block = [1.0f32, inf, -3.0, 0.0, 2.0, 0.5];
            quantize_block(&mut block);
            assert!(block.iter().all(|x| x.is_nan()), "{block:?}");
        }
    }

    #[test]
    fn an_all_nan_block_decodes_to_plus_zero() {
        let mut block = [f32::NAN; 6];
        let mut mant = [Fixed16(1); 6];
        assert_eq!(encode_block(&block, &mut mant).to_bits(), 0.0f32.to_bits());
        quantize_block(&mut block);
        assert!(block.iter().all(|x| x.to_bits() == 0), "{block:?}");
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
            prop_assert!(oracle::encode_unit(lo).0 <= oracle::encode_unit(hi).0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn prop_sse2_matches_oracle_on_random_bits(
            raw in proptest::collection::vec(0u32..u32::MAX, 24..25),
            narrow in 0u32..2,
            short in 0usize..2,
        ) {
            // Whole bit patterns are mostly huge, tiny or NaN; narrowed
            // ones keep every magnitude in [2⁻¹⁵, 2), so the values
            // quantize to mantissas of every size.
            let block: Vec<f32> = raw
                .iter()
                .map(|&b| if narrow == 1 { b & 0x87ff_ffff | 0x3800_0000 } else { b })
                .map(f32::from_bits)
                .collect();
            assert_matches_oracle(&block[..if short == 1 { 6 } else { 24 }]);
        }
    }
}
