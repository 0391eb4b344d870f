//! The tunable parameter space.

use lqcd_lattice::PartitionScheme;
use lqcd_util::checksum::crc64;
use serde::{Deserialize, Serialize};

/// One point in the tuning search space: the two dslash axes. Solver
/// parameters (`mr_steps`, GCR `kmax`) belong to the problem, not the
/// tuner: they change the iterates, so a tuned value would move the
/// solution bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TuneParam {
    /// Which dimensions the rank grid splits (also fixes the Schwarz
    /// block geometry: blocks are the rank-local subdomains).
    pub scheme: PartitionScheme,
    /// Interior-kernel worker threads overlapping the exchange.
    pub interior_threads: usize,
}

impl TuneParam {
    /// The workspace's hardcoded configuration, the incumbent every
    /// candidate must beat: ZT partitioning.
    pub fn baseline(interior_threads: usize) -> Self {
        TuneParam { scheme: PartitionScheme::ZT, interior_threads: interior_threads.max(1) }
    }

    /// Compact human-readable identity, e.g. `XYZT t2`.
    pub fn label(&self) -> String {
        format!("{} t{}", self.scheme.label(), self.interior_threads)
    }

    /// Stable 64-bit identity of this configuration (CRC-64 of the
    /// label; 0 is never produced, so 0 can mean "untuned").
    pub fn fingerprint(&self) -> u64 {
        crc64(self.label().as_bytes()).max(1)
    }
}

/// The candidate axes a [`Tuner`](crate::Tuner) enumerates: the
/// cartesian product of the listed values.
#[derive(Clone, Debug)]
pub struct TuneSpace {
    /// Partition schemes to try.
    pub schemes: Vec<PartitionScheme>,
    /// Interior worker counts to try.
    pub threads: Vec<usize>,
}

impl TuneSpace {
    /// Every partition scheme, and worker counts up to `max_threads`
    /// (powers of two).
    pub fn new(max_threads: usize) -> Self {
        let mut threads = vec![1usize];
        let mut t = 2;
        while t <= max_threads.max(1) {
            threads.push(t);
            t *= 2;
        }
        TuneSpace { schemes: PartitionScheme::ALL.to_vec(), threads }
    }

    /// Enumerate scheme × threads.
    pub fn enumerate(&self) -> Vec<TuneParam> {
        let mut out = Vec::new();
        for &scheme in &self.schemes {
            for &interior_threads in &self.threads {
                out.push(TuneParam { scheme, interior_threads });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_fingerprints_are_stable_and_distinct() {
        let a = TuneParam::baseline(2);
        assert_eq!(a.label(), "ZT t2");
        let mut b = a;
        b.interior_threads = 4;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), TuneParam::baseline(2).fingerprint());
        assert_ne!(a.fingerprint(), 0);
    }

    #[test]
    fn spaces_enumerate_the_cartesian_product() {
        let space = TuneSpace::new(4);
        // 4 schemes × {1,2,4} threads.
        assert_eq!(space.enumerate().len(), 4 * 3);
        assert!(space.enumerate().contains(&TuneParam::baseline(1)));
    }
}
