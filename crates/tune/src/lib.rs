//! Benchmark-driven autotuning with a persistent tune cache.
//!
//! The paper's throughput hinges on execution parameters the rest of
//! the workspace exposes but hardcodes: which dimensions to partition
//! ([`PartitionScheme`]) and how many interior workers overlap the ghost
//! exchange. Its QUDA lineage (arXiv:1011.0024) made *measured*
//! autotuning with a persistent cache a core library feature; this
//! crate is that subsystem:
//!
//! * [`TuneParam`] — one point in the search space (scheme, interior
//!   threads); [`TuneSpace`] enumerates scheme × threads.
//! * [`TuneKey`] — what a decision is keyed on: operator kind, global
//!   volume, world geometry, and a host capability fingerprint. A
//!   decision never silently applies to a different problem shape or
//!   machine.
//! * [`Tuner`] — one dslash phase of measured rounds of the *real*
//!   pipeline through a caller-supplied trial closure. The hardcoded
//!   default is the incumbent; after one discarded warm-up round of
//!   each side, a candidate displaces it only if it wins at least
//!   [`MIN_WINS`] of [`ROUNDS`] alternating rounds and its median beats
//!   the incumbent's by more than the incumbent's IQR.
//!   Otherwise the report reads "no significant difference" at exactly
//!   1.00×. A bitwise-equality guard rejects a candidate whose output
//!   differs from the reference path, no matter how fast it ran. The
//!   `lqcd-perf` stream model's price is printed next to each candidate
//!   and decides nothing.
//! * [`TuneCache`] — versioned JSON persistence (serde shims out,
//!   hand-rolled `serde_json::Value` parsing back), written with the
//!   same tmp-write → re-read/validate → rename discipline as the
//!   checkpoint container and guarded by a CRC-64 over the payload.
//!   Corruption is a structured [`Error::Corrupt`] that callers answer
//!   with a retune — never a panic, never a silent stale hit.
//!
//! Consumers choose behaviour through [`TunePolicy`]: `Off` (hardcoded
//! defaults), `Fixed` (apply a given configuration), or `Tuned`
//! (consult/populate a cache file). See DESIGN.md, "Autotuning".
//!
//! [`Error::Corrupt`]: lqcd_util::Error::Corrupt
//! [`PartitionScheme`]: lqcd_lattice::PartitionScheme

pub mod cache;
pub mod key;
pub mod param;
pub mod tuner;

pub use cache::{TuneCache, TuneDecision};
pub use key::{host_fingerprint, TuneKey};
pub use param::{TuneParam, TuneSpace};
pub use tuner::{TrialOutcome, TrialRow, TuneReport, Tuner, MIN_WINS, ROUNDS};

use std::path::PathBuf;

/// How a driver resolves its execution parameters.
#[derive(Clone, Debug, PartialEq)]
pub enum TunePolicy {
    /// Hardcoded defaults; the tuner is never consulted.
    Off,
    /// Apply exactly this configuration, no trials.
    Fixed(TuneParam),
    /// Consult the tune cache at this path; a hit applies instantly, a
    /// miss is answered by whoever owns the tuner (drivers themselves
    /// never launch trial worlds mid-solve).
    Tuned(PathBuf),
}

impl TunePolicy {
    /// Resolve this policy against a cache on disk: the fixed parameter,
    /// a cache hit, or `None` (Off, cache miss, or unreadable cache —
    /// corruption is surfaced to the caller as the `Err` arm so it can
    /// retune rather than silently fall back).
    pub fn resolve(&self, key: &TuneKey) -> lqcd_util::Result<Option<TuneParam>> {
        match self {
            TunePolicy::Off => Ok(None),
            TunePolicy::Fixed(p) => Ok(Some(*p)),
            TunePolicy::Tuned(path) => {
                let cache = TuneCache::open(path)?;
                Ok(cache.lookup(key).map(|d| d.param))
            }
        }
    }
}
