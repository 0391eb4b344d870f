//! What a tuning decision is keyed on.

use lqcd_lattice::Dims;
use serde::{Deserialize, Serialize};

/// Identity of a host for tuning purposes: architecture, OS, and the
/// core count the scheduler exposes. Decisions measured on one machine
/// shape never silently apply to another.
pub fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("{}-{}-{}c", std::env::consts::ARCH, std::env::consts::OS, cores)
}

/// The lookup key of one tuning decision. Two solves share a decision
/// only when every field matches — operator, global volume, rank count,
/// and host capability.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TuneKey {
    /// What was tuned, e.g. `wilson_clover/dslash` (operator plus trial
    /// kind).
    pub operator: String,
    /// Global lattice extents.
    pub global: [usize; 4],
    /// World size the decision was measured on.
    pub ranks: usize,
    /// Host capability fingerprint ([`host_fingerprint`]).
    pub host: String,
}

impl TuneKey {
    /// Key for `operator` on this host.
    pub fn new(operator: &str, global: Dims, ranks: usize) -> Self {
        TuneKey { operator: operator.into(), global: global.0, ranks, host: host_fingerprint() }
    }

    /// The flat string the cache indexes by, e.g.
    /// `wilson_clover/dslash@8x8x8x8/r4/x86_64-linux-8c`.
    pub fn cache_key(&self) -> String {
        let vol: Vec<String> = self.global.iter().map(|x| x.to_string()).collect();
        format!("{}@{}/r{}/{}", self.operator, vol.join("x"), self.ranks, self.host)
    }

    /// The global volume as [`Dims`].
    pub fn global_dims(&self) -> Dims {
        Dims(self.global)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_keys_separate_every_axis() {
        let base = TuneKey::new("wilson_clover/dslash", Dims([8, 8, 8, 8]), 4);
        assert!(base.cache_key().starts_with("wilson_clover/dslash@8x8x8x8/r4/"));
        let mut other = base.clone();
        other.ranks = 8;
        assert_ne!(base.cache_key(), other.cache_key());
        let mut host = base.clone();
        host.host = "other-machine-2c".into();
        assert_ne!(base.cache_key(), host.cache_key());
    }
}
