//! Versioned, checksummed binary snapshots of lattice fields.
//!
//! A snapshot is the body of one field — ghosts are deliberately excluded,
//! they are rebuilt by the first exchange after restore — serialized
//! bit-exactly: every real is stored by its IEEE bit pattern
//! (little-endian), so `decode(encode(f)) == f` down to the last bit,
//! including negative zeros and NaN payloads. Fields are stored in `f64`
//! only: a solver checkpoint stores its solution in `f64` whatever
//! precision produced it. The header still carries a precision byte, so
//! bytes of any other precision are refused rather than misread.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic "LQFS" | version u8 | precision u8 | parity u8 | pad u8
//! reals_per_site u32 | dims 4×u32 | origin 4×u32 | num_sites u64
//! payload (raw bit patterns)
//! crc64(everything above)
//! ```
//!
//! The geometry in the header is what makes restore *safe*: a snapshot
//! taken on one rank of an 8⁴ run cannot be silently restored into a
//! different subvolume, parity, or precision — that is an [`Error::Shape`].
//! Damage (bad magic, checksum mismatch, truncation) is [`Error::Corrupt`];
//! neither ever panics.

use crate::field::LatticeField;
use crate::site::SiteObject;
use lqcd_util::checkpoint::ByteReader;
use lqcd_util::checksum::crc64;
use lqcd_util::{Error, Result};

/// Snapshot magic: "LQ Field Snapshot".
pub const FIELD_MAGIC: &[u8; 4] = b"LQFS";
/// Snapshot format version.
pub const FIELD_VERSION: u8 = 1;

/// Precision byte stored in a snapshot header: the bytes per real.
pub const TAG_F64: u8 = 8;

struct Header {
    precision: u8,
    parity: u8,
    reals_per_site: u32,
    dims: [u32; 4],
    origin: [u32; 4],
    num_sites: u64,
}

fn put_header(out: &mut Vec<u8>, h: &Header) {
    out.extend_from_slice(FIELD_MAGIC);
    out.push(FIELD_VERSION);
    out.push(h.precision);
    out.push(h.parity);
    out.push(0); // pad for alignment of what follows
    out.extend_from_slice(&h.reals_per_site.to_le_bytes());
    for d in h.dims {
        out.extend_from_slice(&d.to_le_bytes());
    }
    for o in h.origin {
        out.extend_from_slice(&o.to_le_bytes());
    }
    out.extend_from_slice(&h.num_sites.to_le_bytes());
}

/// Split off and verify the CRC trailer, returning a reader positioned
/// just past the magic/version, plus the decoded header.
fn open_snapshot<'a>(bytes: &'a [u8], what: &'a str) -> Result<(ByteReader<'a>, Header)> {
    let corrupt = |detail: String| Error::Corrupt { what: what.to_string(), detail };
    if bytes.len() < 8 {
        return Err(corrupt(format!("truncated: {} bytes", bytes.len())));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte split"));
    if crc64(body) != stored {
        return Err(corrupt("snapshot crc mismatch".into()));
    }
    let mut r = ByteReader::new(body, what);
    if r.take(4)? != FIELD_MAGIC {
        return Err(corrupt("bad field-snapshot magic".into()));
    }
    let version = r.take(1)?[0];
    if version != FIELD_VERSION {
        return Err(corrupt(format!("unsupported snapshot version {version}")));
    }
    let precision = r.take(1)?[0];
    let parity = r.take(1)?[0];
    let _pad = r.take(1)?;
    let reals_per_site = r.take_u32()?;
    let mut dims = [0u32; 4];
    for d in &mut dims {
        *d = r.take_u32()?;
    }
    let mut origin = [0u32; 4];
    for o in &mut origin {
        *o = r.take_u32()?;
    }
    let num_sites = r.take_u64()?;
    Ok((r, Header { precision, parity, reals_per_site, dims, origin, num_sites }))
}

fn field_header<S: SiteObject<f64>>(f: &LatticeField<f64, S>) -> Header {
    let sub = f.sublattice();
    let mut dims = [0u32; 4];
    let mut origin = [0u32; 4];
    for mu in 0..4 {
        dims[mu] = sub.dims.extent(mu) as u32;
        origin[mu] = sub.origin[mu] as u32;
    }
    Header {
        precision: TAG_F64,
        parity: f.parity().index() as u8,
        reals_per_site: S::REALS as u32,
        dims,
        origin,
        num_sites: f.num_sites() as u64,
    }
}

/// Serialize a field body bit-exactly.
pub fn encode_field<S: SiteObject<f64>>(f: &LatticeField<f64, S>) -> Vec<u8> {
    let body = f.body();
    let mut out = Vec::with_capacity(48 + std::mem::size_of_val(body) + 8);
    put_header(&mut out, &field_header(f));
    for &x in body {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&crc64(&out).to_le_bytes());
    out
}

/// Restore a snapshot into an existing field of identical geometry
/// (ghosts untouched — refresh them with the next exchange).
pub fn decode_field_into<S: SiteObject<f64>>(
    bytes: &[u8],
    dst: &mut LatticeField<f64, S>,
    what: &str,
) -> Result<()> {
    let (mut r, h) = open_snapshot(bytes, what)?;
    check_geometry(&h, &field_header(dst), what)?;
    // Decode into a scratch buffer first so a truncated payload cannot
    // leave `dst` half-overwritten.
    let mut scratch = Vec::with_capacity(dst.body().len());
    for _ in 0..dst.body().len() {
        scratch.push(r.take_f64()?);
    }
    expect_empty(&r, what)?;
    dst.body_mut().copy_from_slice(&scratch);
    Ok(())
}

fn check_geometry(snap: &Header, dst: &Header, what: &str) -> Result<()> {
    let shape = |detail: String| Error::Shape(format!("{what}: {detail}"));
    if snap.precision != dst.precision {
        return Err(shape(format!(
            "snapshot precision tag {} does not match destination tag {}",
            snap.precision, dst.precision
        )));
    }
    if snap.reals_per_site != dst.reals_per_site {
        return Err(shape(format!(
            "snapshot has {} reals/site, destination {}",
            snap.reals_per_site, dst.reals_per_site
        )));
    }
    if snap.parity != dst.parity {
        return Err(shape(format!(
            "snapshot parity {} does not match destination parity {}",
            snap.parity, dst.parity
        )));
    }
    if snap.dims != dst.dims || snap.origin != dst.origin {
        return Err(shape(format!(
            "snapshot subvolume {:?}@{:?} does not match destination {:?}@{:?}",
            snap.dims, snap.origin, dst.dims, dst.origin
        )));
    }
    if snap.num_sites != dst.num_sites {
        return Err(shape(format!(
            "snapshot has {} sites, destination {}",
            snap.num_sites, dst.num_sites
        )));
    }
    Ok(())
}

fn expect_empty(r: &ByteReader<'_>, what: &str) -> Result<()> {
    if r.is_empty() {
        Ok(())
    } else {
        Err(Error::Corrupt {
            what: what.to_string(),
            detail: format!("{} trailing bytes after payload", r.remaining()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqcd_lattice::{Dims, FaceGeometry, Parity, SubLattice};
    use lqcd_su3::WilsonSpinor;
    use lqcd_util::rng::SeedTree;
    use std::sync::Arc;

    fn rand_field(seed: u64) -> LatticeField<f64, WilsonSpinor<f64>> {
        let sub = Arc::new(SubLattice::single(Dims([4, 4, 4, 4])).unwrap());
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        let mut f = LatticeField::zeros(sub, &faces, Parity::Even, 0);
        let mut rng = SeedTree::new(seed).rng();
        f.fill(|_| WilsonSpinor::random(&mut rng));
        f
    }

    #[test]
    fn f64_roundtrip_is_bit_exact() {
        let f = rand_field(11);
        let bytes = encode_field(&f);
        let mut back = LatticeField::zeros_like(&f);
        decode_field_into(&bytes, &mut back, "test").unwrap();
        let (a, b) = (f.body(), back.body());
        assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn special_values_survive() {
        let mut f = rand_field(13);
        f.body_mut()[0] = -0.0;
        f.body_mut()[1] = f64::MIN_POSITIVE / 2.0; // subnormal
        let bytes = encode_field(&f);
        let mut back = LatticeField::zeros_like(&f);
        decode_field_into(&bytes, &mut back, "test").unwrap();
        assert_eq!(back.body()[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.body()[1], f64::MIN_POSITIVE / 2.0);
    }

    #[test]
    fn precision_mismatch_is_a_shape_error() {
        // An intact snapshot whose header says single precision (byte 4
        // after the magic and version), with a valid CRC over it.
        let f = rand_field(15);
        let mut bytes = encode_field(&f);
        bytes[5] = 4;
        let body = bytes.len() - 8;
        let crc = crc64(&bytes[..body]).to_le_bytes();
        bytes[body..].copy_from_slice(&crc);
        let mut dst = LatticeField::zeros_like(&f);
        assert!(matches!(decode_field_into(&bytes, &mut dst, "test"), Err(Error::Shape(_))));
    }

    #[test]
    fn flipped_byte_is_corrupt_never_a_panic() {
        let f = rand_field(16);
        let bytes = encode_field(&f);
        for pos in [0usize, 5, 50, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x08;
            let mut dst = LatticeField::zeros_like(&f);
            assert!(
                matches!(decode_field_into(&bad, &mut dst, "test"), Err(Error::Corrupt { .. })),
                "flip at {pos} accepted"
            );
        }
    }

    #[test]
    fn truncation_is_corrupt_and_leaves_destination_untouched() {
        let f = rand_field(17);
        let bytes = encode_field(&f);
        let mut dst = LatticeField::zeros_like(&f);
        for len in [0, 7, 48, bytes.len() - 9, bytes.len() - 1] {
            assert!(matches!(
                decode_field_into(&bytes[..len], &mut dst, "test"),
                Err(Error::Corrupt { .. })
            ));
        }
        assert!(dst.body().iter().all(|&x| x == 0.0), "failed decode wrote into destination");
    }
}
