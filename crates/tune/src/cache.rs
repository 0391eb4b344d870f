//! The persistent tune cache.
//!
//! A versioned JSON file mapping [`TuneKey`]s to [`TuneDecision`]s.
//! Writes go through the same discipline as the checkpoint container
//! (`lqcd_util::checkpoint`): serialize, write a sibling tmp file,
//! re-read and fully re-validate what hit the disk, then rename into
//! place. The payload is guarded by a CRC-64 (stored as hex — JSON
//! numbers are f64 and cannot carry 64 significant bits) computed over
//! the canonical entry serialization, so a bit flip that survives the
//! JSON grammar still fails validation. Corruption is always a
//! structured [`Error::Corrupt`]; a stale `version` is the documented
//! invalidation rule and reads as an empty cache (retune), never as a
//! silent stale hit.

use crate::key::TuneKey;
use crate::param::TuneParam;
use crate::tuner::MIN_WINS;
use lqcd_lattice::PartitionScheme;
use lqcd_util::checksum::crc64;
use lqcd_util::{Error, Result};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// File magic; first field of every cache file.
pub const MAGIC: &str = "LQTUNE01";

/// Current cache format version. Bumping it invalidates every cache on
/// disk (they reload as empty → retune), which is the upgrade path when
/// the parameter space or trial methodology changes incompatibly
/// (version 2 dropped the ghost-completion-order axis; version 3 cut the
/// space to scheme × threads and records the decision rule's evidence).
pub const VERSION: u32 = 3;

/// One cached tuning outcome: the chosen parameter point plus the
/// evidence of the decision rule ([`Tuner::tune`](crate::Tuner::tune)).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TuneDecision {
    /// The chosen configuration (the baseline when the default stands).
    pub param: TuneParam,
    /// Alternating rounds the chosen candidate won against the
    /// incumbent (0 when the default stands).
    pub wins: usize,
    /// Alternating rounds run.
    pub rounds: usize,
    /// Median µs per unit of trial work of the chosen configuration.
    pub tuned_us: f64,
    /// Median µs per unit of the incumbent over the same rounds.
    pub default_us: f64,
    /// Interquartile range of the incumbent's rounds, µs.
    pub default_iqr_us: f64,
    /// Stream-model prior for the chosen configuration, µs.
    pub model_us: f64,
}

impl TuneDecision {
    /// Incumbent median over the chosen one: exactly 1.0 when the
    /// default stands.
    pub fn speedup(&self) -> f64 {
        self.default_us / self.tuned_us
    }

    /// Whether this evidence passes the decision rule: at least
    /// [`MIN_WINS`] wins, and a median gap wider than the incumbent's
    /// IQR.
    pub fn significant(&self) -> bool {
        self.wins >= MIN_WINS && self.default_us - self.tuned_us > self.default_iqr_us
    }

    /// The verdict the report prints.
    pub fn verdict(&self) -> &'static str {
        if self.significant() {
            "significant win"
        } else {
            "no significant difference"
        }
    }
}

/// Cache-file entry: flat key string plus the decision.
#[derive(Clone, Debug, Serialize)]
struct Entry {
    key: String,
    decision: TuneDecision,
}

/// The persistent key → decision map bound to one file path.
#[derive(Debug)]
pub struct TuneCache {
    path: PathBuf,
    entries: BTreeMap<String, TuneDecision>,
}

fn corrupt(what: &Path, detail: impl Into<String>) -> Error {
    Error::Corrupt { what: what.display().to_string(), detail: detail.into() }
}

fn io_err(path: &Path, e: std::io::Error) -> Error {
    Error::Io { path: path.display().to_string(), detail: e.to_string() }
}

fn field<'a>(v: &'a Value, name: &str, what: &Path) -> Result<&'a Value> {
    v.get(name).ok_or_else(|| corrupt(what, format!("missing field '{name}'")))
}

fn field_str(v: &Value, name: &str, what: &Path) -> Result<String> {
    Ok(field(v, name, what)?
        .as_str()
        .ok_or_else(|| corrupt(what, format!("field '{name}' is not a string")))?
        .to_string())
}

fn field_usize(v: &Value, name: &str, what: &Path) -> Result<usize> {
    let n = field(v, name, what)?
        .as_i64()
        .ok_or_else(|| corrupt(what, format!("field '{name}' is not an integer")))?;
    usize::try_from(n).map_err(|_| corrupt(what, format!("field '{name}' is negative")))
}

fn field_f64(v: &Value, name: &str, what: &Path) -> Result<f64> {
    field(v, name, what)?
        .as_f64()
        .ok_or_else(|| corrupt(what, format!("field '{name}' is not a number")))
}

fn param_from_value(v: &Value, what: &Path) -> Result<TuneParam> {
    let scheme_name = field_str(v, "scheme", what)?;
    let scheme = PartitionScheme::ALL
        .into_iter()
        .find(|s| s.label() == scheme_name)
        .ok_or_else(|| corrupt(what, format!("unknown partition scheme '{scheme_name}'")))?;
    let interior_threads = field_usize(v, "interior_threads", what)?;
    if interior_threads == 0 {
        return Err(corrupt(what, "interior_threads is 0"));
    }
    Ok(TuneParam { scheme, interior_threads })
}

fn decision_from_value(v: &Value, what: &Path) -> Result<TuneDecision> {
    Ok(TuneDecision {
        param: param_from_value(field(v, "param", what)?, what)?,
        wins: field_usize(v, "wins", what)?,
        rounds: field_usize(v, "rounds", what)?,
        tuned_us: field_f64(v, "tuned_us", what)?,
        default_us: field_f64(v, "default_us", what)?,
        default_iqr_us: field_f64(v, "default_iqr_us", what)?,
        model_us: field_f64(v, "model_us", what)?,
    })
}

impl TuneCache {
    /// An empty cache bound to `path` (nothing touches the disk yet).
    pub fn empty(path: impl Into<PathBuf>) -> Self {
        TuneCache { path: path.into(), entries: BTreeMap::new() }
    }

    /// Open the cache at `path`. A missing file or a stale (older
    /// `version`) file reads as empty — the caller retunes. A present
    /// file that fails *any* validation step (grammar, magic, CRC,
    /// entry schema) is [`Error::Corrupt`]: the caller must decide to
    /// retune, it is never silently treated as a hit source.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Self::empty(path));
            }
            Err(e) => return Err(io_err(&path, e)),
        };
        let entries = Self::parse(&text, &path)?;
        Ok(TuneCache { path, entries: entries.unwrap_or_default() })
    }

    /// Parse and validate cache-file text. `Ok(None)` means a valid
    /// file of a different version (invalidated, retune).
    fn parse(text: &str, what: &Path) -> Result<Option<BTreeMap<String, TuneDecision>>> {
        let v = serde_json::from_str(text)
            .map_err(|e| corrupt(what, format!("invalid JSON: {e:?}")))?;
        let magic = field_str(&v, "magic", what)?;
        if magic != MAGIC {
            return Err(corrupt(what, format!("bad magic '{magic}'")));
        }
        let version = field_usize(&v, "version", what)?;
        if version != VERSION as usize {
            return Ok(None);
        }
        let crc_hex = field_str(&v, "payload_crc64", what)?;
        let stored_crc = u64::from_str_radix(&crc_hex, 16)
            .map_err(|_| corrupt(what, format!("payload_crc64 '{crc_hex}' is not hex")))?;
        let entries_v = field(&v, "entries", what)?
            .as_array()
            .ok_or_else(|| corrupt(what, "entries is not an array"))?;
        let mut entries = BTreeMap::new();
        for e in entries_v {
            let key = field_str(e, "key", what)?;
            let decision = decision_from_value(field(e, "decision", what)?, what)?;
            if entries.insert(key.clone(), decision).is_some() {
                return Err(corrupt(what, format!("duplicate key '{key}'")));
            }
        }
        let canonical = Self::canonical_payload(&entries);
        let actual = crc64(canonical.as_bytes());
        if actual != stored_crc {
            return Err(corrupt(
                what,
                format!("payload crc mismatch: stored {stored_crc:016x}, computed {actual:016x}"),
            ));
        }
        Ok(Some(entries))
    }

    /// The canonical (deterministic, key-sorted) serialization the CRC
    /// covers.
    fn canonical_payload(entries: &BTreeMap<String, TuneDecision>) -> String {
        let rows: Vec<Entry> =
            entries.iter().map(|(k, d)| Entry { key: k.clone(), decision: *d }).collect();
        serde_json::to_string(&rows).expect("entry serialization is infallible")
    }

    /// Render the full cache file.
    fn render(&self) -> String {
        let rows: Vec<Entry> =
            self.entries.iter().map(|(k, d)| Entry { key: k.clone(), decision: *d }).collect();
        let crc = crc64(Self::canonical_payload(&self.entries).as_bytes());

        #[derive(Serialize)]
        struct FileForm {
            magic: String,
            version: u32,
            payload_crc64: String,
            entries: Vec<Entry>,
        }
        let form = FileForm {
            magic: MAGIC.into(),
            version: VERSION,
            payload_crc64: format!("{crc:016x}"),
            entries: rows,
        };
        serde_json::to_string_pretty(&form).expect("cache serialization is infallible")
    }

    /// Atomically persist: write a sibling tmp file, re-read and fully
    /// re-validate the round trip, then rename into place.
    pub fn save(&self) -> Result<()> {
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| io_err(&self.path, e))?;
            }
        }
        let mut tmp_name = self.path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
        tmp_name.push(".tmp");
        let tmp = self.path.with_file_name(tmp_name);
        std::fs::write(&tmp, self.render()).map_err(|e| io_err(&tmp, e))?;
        let written = std::fs::read_to_string(&tmp).map_err(|e| io_err(&tmp, e))?;
        match Self::parse(&written, &tmp) {
            Ok(Some(reread)) if reread == self.entries => {}
            other => {
                let _ = std::fs::remove_file(&tmp);
                return Err(corrupt(
                    &tmp,
                    format!("round-trip verification failed after write: {other:?}"),
                ));
            }
        }
        std::fs::rename(&tmp, &self.path).map_err(|e| io_err(&self.path, e))?;
        Ok(())
    }

    /// Look a decision up.
    pub fn lookup(&self, key: &TuneKey) -> Option<&TuneDecision> {
        self.entries.get(&key.cache_key())
    }

    /// Insert (or replace) a decision. Call [`TuneCache::save`] to
    /// persist.
    pub fn insert(&mut self, key: &TuneKey, decision: TuneDecision) {
        self.entries.insert(key.cache_key(), decision);
    }

    /// Number of cached decisions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no decisions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The file this cache persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}
