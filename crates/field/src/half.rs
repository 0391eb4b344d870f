//! Whole-field 16-bit fixed-point storage.
//!
//! The paper's mixed-precision solvers keep the Krylov space and the
//! preconditioner fields in "half" precision (§8.1: "the Krylov space is
//! built up in low precision"). On the GPU that is a storage format:
//! values live as 16-bit fixed point in memory and are expanded to `f32`
//! in registers. We reproduce the same semantics: [`HalfField`] is the
//! storage form (one `f32` norm + `REALS` 16-bit mantissas per site);
//! computation happens on a decoded `f32` [`LatticeField`], and every
//! store back through [`HalfField::encode_from`] re-quantizes — which is
//! exactly where half precision loses information on the GPU too.
//!
//! Every site goes through the SSE2 block codec of [`lqcd_util::half`]
//! (`encode_block`, `decode_block`, and `quantize_block` for
//! [`Quantize::quantize_in_place`]), bit-identical to the scalar codec.
//!
//! Half storage keeps neither NaN nor infinity, per site: a NaN at a site
//! whose other values are finite is stored as `+0.0`, a site holding ±Inf
//! decodes to all NaN, and an all-NaN site decodes to `+0.0`. So a NaN
//! can vanish silently in a store; see [`lqcd_util::half`].

use crate::field::LatticeField;
use crate::site::SiteObject;
use lqcd_util::half::{decode_block, encode_block, quantize_block};
use lqcd_util::Fixed16;
use std::marker::PhantomData;

#[cfg(test)]
#[path = "../../util/src/half/oracle.rs"]
mod oracle;

/// A body-only field stored in per-site-normalized 16-bit fixed point.
#[derive(Clone, Debug)]
pub struct HalfField<S> {
    mantissas: Vec<Fixed16>,
    norms: Vec<f32>,
    sites: usize,
    reals_per_site: usize,
    _site: PhantomData<S>,
}

impl<S: SiteObject<f32>> HalfField<S> {
    /// Encode the body of an `f32` field.
    pub fn encode(src: &LatticeField<f32, S>) -> Self {
        let sites = src.num_sites();
        let mut h = Self {
            mantissas: vec![Fixed16(0); sites * S::REALS],
            norms: vec![0.0; sites],
            sites,
            reals_per_site: S::REALS,
            _site: PhantomData,
        };
        h.encode_from(src);
        h
    }

    /// Re-encode from an `f32` field into this existing storage.
    pub fn encode_from(&mut self, src: &LatticeField<f32, S>) {
        assert_eq!(src.num_sites(), self.sites, "site count mismatch");
        let sites =
            src.body().chunks_exact(S::REALS).zip(self.mantissas.chunks_exact_mut(S::REALS));
        for ((block, mantissas), norm) in sites.zip(&mut self.norms) {
            *norm = encode_block(block, mantissas);
        }
    }

    /// Decode into an existing `f32` field's body (ghosts untouched).
    pub fn decode_into(&self, dst: &mut LatticeField<f32, S>) {
        assert_eq!(dst.num_sites(), self.sites, "site count mismatch");
        let sites = self.mantissas.chunks_exact(S::REALS).zip(&self.norms);
        for ((mantissas, &norm), block) in sites.zip(dst.body_mut().chunks_exact_mut(S::REALS)) {
            decode_block(mantissas, norm, block);
        }
    }

    /// Number of body sites.
    pub fn num_sites(&self) -> usize {
        self.sites
    }

    /// Bytes this field occupies (2 per mantissa + 4 per site norm) —
    /// used by the performance model to price half-precision traffic.
    pub fn storage_bytes(&self) -> usize {
        self.mantissas.len() * 2 + self.norms.len() * 4
    }

    /// Number of reals per site (mirror of `S::REALS`).
    pub fn reals_per_site(&self) -> usize {
        self.reals_per_site
    }
}

/// Precision-dispatched in-place quantization: a no-op at double
/// precision, a 16-bit fixed-point round trip at single.
///
/// This is how the mixed-precision solvers express "this vector is
/// *stored* in half precision": every store boundary passes through
/// [`Quantize::quantize_in_place`], reproducing exactly the information
/// loss the GPU's half-precision fields suffer.
pub trait Quantize<R: lqcd_util::Real>: SiteObject<R> {
    /// Quantize the body of `field` in place (ghosts untouched).
    fn quantize_in_place(field: &mut LatticeField<R, Self>)
    where
        Self: Sized;
}

impl<S: SiteObject<f64>> Quantize<f64> for S {
    fn quantize_in_place(_field: &mut LatticeField<f64, Self>) {}
}

impl<S: SiteObject<f32>> Quantize<f32> for S {
    fn quantize_in_place(field: &mut LatticeField<f32, Self>) {
        for block in field.body_mut().chunks_exact_mut(S::REALS) {
            quantize_block(block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas;
    use lqcd_lattice::{Dims, FaceGeometry, Parity, SubLattice};
    use lqcd_su3::{ColorVector, WilsonSpinor};
    use lqcd_util::rng::SeedTree;
    use std::sync::Arc;

    type F32 = LatticeField<f32, WilsonSpinor<f32>>;

    fn rand_field(seed: u64) -> F32 {
        let sub = Arc::new(SubLattice::single(Dims([4, 4, 4, 4])).unwrap());
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        let mut f = F32::zeros(sub, &faces, Parity::Even, 0);
        let t = SeedTree::new(seed);
        let mut rng = t.rng();
        f.fill(|_| WilsonSpinor::random(&mut rng));
        f
    }

    #[test]
    fn roundtrip_error_is_half_precision_sized() {
        let f = rand_field(1);
        let h = HalfField::encode(&f);
        let mut back = F32::zeros_like(&f);
        h.decode_into(&mut back);
        // Relative error per site bounded by ~2^-15 of the site norm.
        let rel = blas::diff_norm2_local(&f, &back).sqrt() / blas::norm2_local(&f).sqrt();
        assert!(rel < 1e-4, "relative error {rel} too large for 16-bit storage");
        assert!(rel > 1e-7, "relative error {rel} suspiciously small — not quantizing?");
    }

    #[test]
    fn encode_is_idempotent_after_one_quantization() {
        // decode(encode(x)) is a fixed point of encode∘decode.
        let f = rand_field(2);
        let h = HalfField::encode(&f);
        let mut once = F32::zeros_like(&f);
        h.decode_into(&mut once);
        let h2 = HalfField::encode(&once);
        let mut twice = F32::zeros_like(&f);
        h2.decode_into(&mut twice);
        let drift = blas::max_abs_diff(&once, &twice);
        // One extra round trip may wiggle by a quantization step at most.
        assert!(drift < 1e-3, "drift {drift}");
    }

    #[test]
    fn storage_is_half_of_f32() {
        let f = rand_field(3);
        let h = HalfField::encode(&f);
        let f32_bytes = f.num_sites() * 24 * 4;
        // 2 bytes per real + 4-byte norm per site.
        assert_eq!(h.storage_bytes(), f.num_sites() * 24 * 2 + f.num_sites() * 4);
        assert!(h.storage_bytes() < f32_bytes * 6 / 10);
        assert_eq!(h.reals_per_site(), 24);
    }

    /// A field of varied site magnitudes whose first sites are the edge
    /// cases of the codec: zero, a NaN among finite values, ±Inf, all
    /// NaN, subnormal, signed zeros, values at the ±1 saturation bound.
    fn edge_field<S: SiteObject<f32>>() -> LatticeField<f32, S> {
        let sub = Arc::new(SubLattice::single(Dims([4, 4, 4, 2])).unwrap());
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        let mut f = LatticeField::<f32, S>::zeros(sub, &faces, Parity::Odd, 0);
        let n = S::REALS;
        for (site, block) in f.body_mut().chunks_exact_mut(n).enumerate() {
            let scale = 10f32.powi(site as i32 % 9 - 4);
            for (k, x) in block.iter_mut().enumerate() {
                *x = ((site * n + k) as f32 * 0.618).sin() * scale;
            }
            match site {
                0 => block.fill(0.0),
                1 => block[n - 1] = f32::NAN,
                2 => block[1] = f32::NEG_INFINITY,
                3 => block.fill(f32::NAN),
                4 => block.iter_mut().for_each(|x| *x *= 1e-38),
                5 => block.iter_mut().enumerate().for_each(|(k, x)| *x = [0.0, -0.0][k % 2]),
                6 => block.iter_mut().for_each(|x| *x = x.signum()),
                _ => {}
            }
        }
        f
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// `encode`, `decode_into` and `quantize_in_place` equal the scalar
    /// oracle site by site, bit for bit.
    fn assert_field_matches_oracle<S: SiteObject<f32>>() {
        let f = edge_field::<S>();
        let n = S::REALS;
        let h = HalfField::encode(&f);
        let mut back = LatticeField::zeros_like(&f);
        h.decode_into(&mut back);
        let mut q = f.clone();
        S::quantize_in_place(&mut q);
        for (site, block) in f.body().chunks_exact(n).enumerate() {
            let mut mant = vec![Fixed16(0); n];
            let norm = oracle::encode_block(block, &mut mant);
            let mut dec = vec![0.0f32; n];
            oracle::decode_block(&mant, norm, &mut dec);
            let at = site * n..(site + 1) * n;
            assert_eq!(h.norms[site].to_bits(), norm.to_bits(), "site {site}");
            assert_eq!(h.mantissas[at.clone()], mant[..], "site {site}");
            assert_eq!(bits(&back.body()[at.clone()]), bits(&dec), "site {site}");
            let mut quantized = block.to_vec();
            oracle::quantize_block(&mut quantized);
            assert_eq!(bits(&q.body()[at]), bits(&quantized), "site {site}");
        }
    }

    #[test]
    fn half_codec_matches_the_scalar_oracle_on_every_site() {
        assert_field_matches_oracle::<WilsonSpinor<f32>>();
        assert_field_matches_oracle::<ColorVector<f32>>();
    }

    #[test]
    fn half_storage_drops_nans_as_documented() {
        let mut f = edge_field::<ColorVector<f32>>();
        ColorVector::quantize_in_place(&mut f);
        let site = |s: usize| &f.body()[s * 6..(s + 1) * 6];
        assert_eq!(site(1)[5].to_bits(), 0, "a NaN among finite values is stored as +0.0");
        assert!(site(1)[..5].iter().all(|x| x.is_finite()));
        assert!(site(2).iter().all(|x| x.is_nan()), "a ±Inf site decodes to all NaN");
        assert!(site(3).iter().all(|x| x.to_bits() == 0), "an all-NaN site decodes to +0.0");
    }

    #[test]
    fn zero_field_encodes_to_zero() {
        let sub = Arc::new(SubLattice::single(Dims([2, 2, 2, 2])).unwrap());
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        let z = F32::zeros(sub, &faces, Parity::Even, 0);
        let h = HalfField::encode(&z);
        let mut back = F32::zeros_like(&z);
        h.decode_into(&mut back);
        assert_eq!(blas::norm2_local(&back), 0.0);
    }
}
