//! Versioned, checksummed checkpoint container with atomic persistence.
//!
//! A [`Checkpoint`] is a named bag of binary sections (field snapshots,
//! solver metadata, ...) serialized as
//!
//! ```text
//! magic "LQCKPT01" | format u32 | nsections u32
//! per section: name_len u32 | name | payload_len u64 | payload | crc64(payload)
//! trailer: crc64(everything above)
//! ```
//!
//! all little-endian. Every payload carries its own CRC-64 so a flipped byte
//! is pinned to a section; the trailer CRC catches truncation and header
//! damage. Decoding never panics: any malformed input is reported as
//! [`Error::Corrupt`].
//!
//! Persistence is crash-safe: [`Checkpoint::save_atomic`] writes to a
//! sibling `*.tmp` file, re-reads and re-validates it, then `rename`s into
//! place — so a rank that dies mid-write leaves either the previous valid
//! checkpoint or a stray tmp file, never a torn checkpoint at the real
//! path. [`CheckpointStore`] layers rotating generations on top, and
//! [`CheckpointStore::valid_generations`] skips corrupt generations instead
//! of failing, which is what a supervisor restoring after a crash wants.

use crate::checksum::{crc64, Crc64};
use crate::error::{Error, Result};
use std::path::{Path, PathBuf};

/// File magic: "LQCKPT" + 2-digit container revision.
pub const MAGIC: &[u8; 8] = b"LQCKPT01";
/// Container format version (bump on incompatible layout changes).
pub const FORMAT_VERSION: u32 = 1;

/// A named bag of checksummed binary sections.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checkpoint {
    sections: Vec<(String, Vec<u8>)>,
}

impl Checkpoint {
    /// Empty checkpoint.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or replace) a section.
    pub fn insert(&mut self, name: &str, payload: Vec<u8>) {
        if let Some(slot) = self.sections.iter_mut().find(|(n, _)| n == name) {
            slot.1 = payload;
        } else {
            self.sections.push((name.to_string(), payload));
        }
    }

    /// Payload of a section, if present.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.sections.iter().find(|(n, _)| n == name).map(|(_, p)| p.as_slice())
    }

    /// Payload of a required section, as a typed error if missing.
    pub fn require(&self, name: &str) -> Result<&[u8]> {
        self.get(name).ok_or_else(|| Error::Corrupt {
            what: "checkpoint".into(),
            detail: format!("missing section '{name}'"),
        })
    }

    /// Serialize to the on-disk byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let body: usize = self.sections.iter().map(|(n, p)| 4 + n.len() + 8 + p.len() + 8).sum();
        let mut out = Vec::with_capacity(8 + 4 + 4 + body + 8);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
            out.extend_from_slice(&crc64(payload).to_le_bytes());
        }
        let mut trailer = Crc64::new();
        trailer.update(&out);
        out.extend_from_slice(&trailer.finish().to_le_bytes());
        out
    }

    /// Decode and fully validate a checkpoint. `what` names the source
    /// (usually the file path) for error messages.
    pub fn from_bytes(bytes: &[u8], what: &str) -> Result<Self> {
        let corrupt = |detail: String| Error::Corrupt { what: what.to_string(), detail };
        if bytes.len() < 8 + 4 + 4 + 8 {
            return Err(corrupt(format!(
                "truncated: {} bytes is below the minimum header size",
                bytes.len()
            )));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte split"));
        if crc64(body) != stored {
            return Err(corrupt("trailer crc mismatch (torn or bit-rotted file)".into()));
        }
        let mut r = ByteReader::new(body, what);
        let magic = r.take(8)?;
        if magic != MAGIC {
            return Err(corrupt(format!("bad magic {:02x?}, expected {:?}", magic, MAGIC)));
        }
        let version = r.take_u32()?;
        if version != FORMAT_VERSION {
            return Err(corrupt(format!(
                "unsupported container version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        let nsections = r.take_u32()? as usize;
        let mut sections = Vec::with_capacity(nsections.min(64));
        for i in 0..nsections {
            let name_len = r.take_u32()? as usize;
            let name = std::str::from_utf8(r.take(name_len)?)
                .map_err(|e| corrupt(format!("section {i} name is not utf-8: {e}")))?
                .to_string();
            let payload_len = r.take_u64()? as usize;
            let payload = r.take(payload_len)?.to_vec();
            let stored_crc = r.take_u64()?;
            if crc64(&payload) != stored_crc {
                return Err(corrupt(format!("section '{name}' crc mismatch")));
            }
            sections.push((name, payload));
        }
        if !r.is_empty() {
            return Err(corrupt(format!("{} trailing bytes after last section", r.remaining())));
        }
        Ok(Self { sections })
    }

    /// Atomically persist: write a sibling tmp file, re-read and validate
    /// the round trip, then rename into place.
    pub fn save_atomic(&self, path: &Path) -> Result<()> {
        let io = |detail: std::io::Error| Error::Io {
            path: path.display().to_string(),
            detail: detail.to_string(),
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(io)?;
        }
        let bytes = self.to_bytes();
        let tmp = tmp_sibling(path);
        std::fs::write(&tmp, &bytes).map_err(io)?;
        // Round-trip verification: decode what actually hit the disk before
        // letting it shadow the previous generation.
        let written = std::fs::read(&tmp).map_err(io)?;
        let reread = Checkpoint::from_bytes(&written, &tmp.display().to_string())?;
        if reread != *self {
            let _ = std::fs::remove_file(&tmp);
            return Err(Error::Corrupt {
                what: tmp.display().to_string(),
                detail: "round-trip verification failed after write".into(),
            });
        }
        std::fs::rename(&tmp, path).map_err(io)?;
        Ok(())
    }

    /// Load and fully validate a checkpoint file.
    pub fn load(path: &Path) -> Result<Self> {
        let bytes = std::fs::read(path)
            .map_err(|e| Error::Io { path: path.display().to_string(), detail: e.to_string() })?;
        Self::from_bytes(&bytes, &path.display().to_string())
    }
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// A directory of rotating checkpoint generations
/// (`ckpt-<generation>.lqcp`), keeping the newest `keep` on disk.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointStore {
    /// Open (creating if needed) a store rooted at `dir`, retaining the
    /// newest `keep >= 1` generations.
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::Io { path: dir.display().to_string(), detail: e.to_string() })?;
        Ok(Self { dir, keep: keep.max(1) })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// On-disk path of a generation.
    pub fn path_for(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{generation:08}.lqcp"))
    }

    /// Atomically write `generation`, then prune old generations beyond
    /// the retention count.
    pub fn save(&self, generation: u64, ckpt: &Checkpoint) -> Result<PathBuf> {
        let path = self.path_for(generation);
        ckpt.save_atomic(&path)?;
        let gens = self.generations_on_disk();
        if gens.len() > self.keep {
            for old in &gens[..gens.len() - self.keep] {
                let _ = std::fs::remove_file(self.path_for(*old));
            }
        }
        Ok(path)
    }

    /// Load and validate one generation.
    pub fn load(&self, generation: u64) -> Result<Checkpoint> {
        Checkpoint::load(&self.path_for(generation))
    }

    /// Generations present on disk (unvalidated), ascending.
    pub fn generations_on_disk(&self) -> Vec<u64> {
        let mut gens: Vec<u64> = std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|entry| {
                let name = entry.file_name();
                let name = name.to_str()?;
                let gen = name.strip_prefix("ckpt-")?.strip_suffix(".lqcp")?;
                gen.parse::<u64>().ok()
            })
            .collect();
        gens.sort_unstable();
        gens
    }

    /// Generations that decode and pass all checksums, ascending.
    pub fn valid_generations(&self) -> Vec<u64> {
        self.generations_on_disk().into_iter().filter(|g| self.load(*g).is_ok()).collect()
    }
}

/// Bounds-checked little-endian cursor used by checkpoint and snapshot
/// decoders; every overrun is an [`Error::Corrupt`], never a panic.
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    what: &'a str,
}

impl<'a> ByteReader<'a> {
    /// Wrap a byte slice; `what` names the source for error messages.
    pub fn new(bytes: &'a [u8], what: &'a str) -> Self {
        Self { bytes, pos: 0, what }
    }

    /// Take the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Corrupt {
                what: self.what.to_string(),
                detail: format!(
                    "truncated: wanted {n} bytes at offset {}, only {} left",
                    self.pos,
                    self.remaining()
                ),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Next little-endian u32.
    pub fn take_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Next little-endian u64.
    pub fn take_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Next little-endian f64 (by bit pattern — exact).
    pub fn take_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Unconsumed byte count.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut c = Checkpoint::new();
        c.insert("meta", vec![1, 2, 3, 4]);
        c.insert("solution", (0..512u16).flat_map(|x| x.to_le_bytes()).collect());
        c
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lqcd-ckpt-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn byte_roundtrip_is_exact() {
        let c = sample();
        let bytes = c.to_bytes();
        let back = Checkpoint::from_bytes(&bytes, "test").unwrap();
        assert_eq!(back, c);
        assert_eq!(back.get("meta"), Some(&[1u8, 2, 3, 4][..]));
        assert!(back.get("missing").is_none());
        assert!(matches!(back.require("missing"), Err(Error::Corrupt { .. })));
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let bytes = sample().to_bytes();
        // Flip a byte in the header, a section payload, and the trailer.
        for pos in [0usize, 9, 40, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            assert!(
                matches!(Checkpoint::from_bytes(&bad, "test"), Err(Error::Corrupt { .. })),
                "flip at {pos} accepted"
            );
        }
    }

    #[test]
    fn truncation_is_a_typed_error_never_a_panic() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            let r = Checkpoint::from_bytes(&bytes[..len], "test");
            assert!(matches!(r, Err(Error::Corrupt { .. })), "prefix of {len} bytes accepted");
        }
    }

    #[test]
    fn save_atomic_then_load() {
        let dir = tmpdir("atomic");
        let path = dir.join("a.lqcp");
        let c = sample();
        c.save_atomic(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), c);
        // No tmp residue after a successful save.
        assert!(!tmp_sibling(&path).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_rotates_and_skips_corrupt_generations() {
        let dir = tmpdir("store");
        let store = CheckpointStore::new(&dir, 2).unwrap();
        for gen in 1..=4u64 {
            let mut c = Checkpoint::new();
            c.insert("meta", vec![gen as u8]);
            store.save(gen, &c).unwrap();
        }
        // Retention: only the newest two survive.
        assert_eq!(store.generations_on_disk(), vec![3, 4]);
        // Corrupt the newest; only generation 3 stays valid.
        let p4 = store.path_for(4);
        let mut bytes = std::fs::read(&p4).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&p4, &bytes).unwrap();
        assert_eq!(store.valid_generations(), vec![3]);
        assert_eq!(store.load(3).unwrap().get("meta"), Some(&[3u8][..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let r = Checkpoint::load(Path::new("/nonexistent/dir/x.lqcp"));
        assert!(matches!(r, Err(Error::Io { .. })));
    }
}
