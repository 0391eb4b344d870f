//! Streaming CRC-64 for checkpoint integrity.
//!
//! Field snapshots and solver checkpoints are written by ranks that may die
//! mid-campaign; on restart we must distinguish a *valid* checkpoint from a
//! torn or bit-rotted one before trusting it as an initial guess. An
//! additive checksum detects gross corruption but is blind to reordering
//! and cancellation; checkpoints use a real CRC instead.
//!
//! This is CRC-64/XZ (ECMA-182 polynomial, reflected, init/xorout all-ones),
//! implemented with a single 256-entry table — small enough to build at
//! startup, fast enough for multi-MB field payloads.

/// Reflected ECMA-182 polynomial.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// Streaming CRC-64/XZ hasher.
#[derive(Clone, Debug)]
pub struct Crc64 {
    state: u64,
}

impl Default for Crc64 {
    fn default() -> Self {
        Self::new()
    }
}

fn table() -> &'static [u64; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u64; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u64; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut crc = i as u64;
            for _ in 0..8 {
                crc = if crc & 1 == 1 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
            *slot = crc;
        }
        t
    })
}

impl Crc64 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Absorb a byte slice.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = table();
        for &b in bytes {
            self.state = t[((self.state ^ b as u64) & 0xff) as usize] ^ (self.state >> 8);
        }
    }

    /// Finish and return the digest (the hasher can keep absorbing; this
    /// just reports the digest of everything seen so far).
    pub fn finish(&self) -> u64 {
        !self.state
    }
}

/// One-shot CRC-64/XZ of a byte slice.
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut h = Crc64::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_vector() {
        // The standard CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut h = Crc64::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc64(&data));
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let mut data = vec![0u8; 4096];
        let base = crc64(&data);
        for pos in [0usize, 1, 2047, 4095] {
            data[pos] ^= 0x10;
            assert_ne!(crc64(&data), base, "flip at {pos} not detected");
            data[pos] ^= 0x10;
        }
        assert_eq!(crc64(&data), base);
    }
}
