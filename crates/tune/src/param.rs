//! The tunable parameter space.

use lqcd_lattice::PartitionScheme;
use lqcd_util::checksum::crc64;
use serde::{Deserialize, Serialize};

/// Which rung of the precision ladder a solve starts on (the
/// graceful-degradation choice): lower rungs are faster per iteration
/// but may pay fallback restarts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LadderChoice {
    /// f64 operator — the last resort; a breakdown here is final.
    Double,
    /// f32 operator, single-precision Krylov storage.
    Single,
    /// f32 operator with 16-bit quantized Krylov/block storage — the
    /// paper's single-half-half configuration.
    Half,
}

impl LadderChoice {
    /// The next-higher rung, if any.
    pub fn escalate(self) -> Option<LadderChoice> {
        match self {
            LadderChoice::Half => Some(LadderChoice::Single),
            LadderChoice::Single => Some(LadderChoice::Double),
            LadderChoice::Double => None,
        }
    }

    /// Every choice, cheapest storage last.
    pub const ALL: [LadderChoice; 3] =
        [LadderChoice::Double, LadderChoice::Single, LadderChoice::Half];

    /// Short label used in keys and tables.
    pub fn label(self) -> &'static str {
        match self {
            LadderChoice::Double => "double",
            LadderChoice::Single => "single",
            LadderChoice::Half => "half",
        }
    }
}

/// One point in the tuning search space. Axes that do not apply to a
/// given trial (e.g. solver knobs during a dslash-only trial) are
/// simply held at the baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TuneParam {
    /// Which dimensions the rank grid splits (also fixes the Schwarz
    /// block geometry: blocks are the rank-local subdomains).
    pub scheme: PartitionScheme,
    /// Interior-kernel worker threads overlapping the exchange.
    pub interior_threads: usize,
    /// MR smoother steps inside each Schwarz block.
    pub mr_steps: usize,
    /// GCR restart length (`n_kv` in the paper, `GcrParams::kmax` here).
    pub n_kv: usize,
    /// Precision-ladder starting rung.
    pub ladder: LadderChoice,
}

impl TuneParam {
    /// The workspace's historical hardcoded configuration: ZT
    /// partitioning, 8 MR steps, `n_kv` = 16,
    /// full double precision.
    pub fn baseline(interior_threads: usize) -> Self {
        TuneParam {
            scheme: PartitionScheme::ZT,
            interior_threads: interior_threads.max(1),
            mr_steps: 8,
            n_kv: 16,
            ladder: LadderChoice::Double,
        }
    }

    /// Compact human-readable identity, e.g.
    /// `XYZT t2 mr8 kv16 double`.
    pub fn label(&self) -> String {
        format!(
            "{} t{} mr{} kv{} {}",
            self.scheme.label(),
            self.interior_threads,
            self.mr_steps,
            self.n_kv,
            self.ladder.label()
        )
    }

    /// Stable 64-bit identity of this configuration (CRC-64 of the
    /// label; 0 is never produced, so 0 can mean "untuned").
    pub fn fingerprint(&self) -> u64 {
        crc64(self.label().as_bytes()).max(1)
    }
}

/// The candidate axes a [`Tuner`](crate::Tuner) enumerates: the
/// cartesian product of the listed values. Axes left as a single value
/// are held fixed.
#[derive(Clone, Debug)]
pub struct TuneSpace {
    /// Partition schemes to try.
    pub schemes: Vec<PartitionScheme>,
    /// Interior worker counts to try.
    pub threads: Vec<usize>,
    /// Schwarz MR step counts to try.
    pub mr_steps: Vec<usize>,
    /// GCR restart lengths to try.
    pub n_kv: Vec<usize>,
    /// Ladder choices to try.
    pub ladders: Vec<LadderChoice>,
}

impl TuneSpace {
    /// The dslash-level space around a baseline: every partition scheme,
    /// worker counts up to `max_threads` (powers of two). Solver axes
    /// stay at the baseline.
    pub fn dslash(baseline: &TuneParam, max_threads: usize) -> Self {
        let mut threads = vec![1usize];
        let mut t = 2;
        while t <= max_threads.max(1) {
            threads.push(t);
            t *= 2;
        }
        TuneSpace {
            schemes: PartitionScheme::ALL.to_vec(),
            threads,
            mr_steps: vec![baseline.mr_steps],
            n_kv: vec![baseline.n_kv],
            ladders: vec![baseline.ladder],
        }
    }

    /// The solver-level space around a (dslash-tuned) baseline: Schwarz
    /// block work and restart length vary, the dslash axes stay fixed.
    pub fn solver(baseline: &TuneParam) -> Self {
        TuneSpace {
            schemes: vec![baseline.scheme],
            threads: vec![baseline.interior_threads],
            mr_steps: vec![4, 8, 12],
            n_kv: vec![8, 16, 24],
            ladders: vec![baseline.ladder],
        }
    }

    /// Enumerate the cartesian product, baseline-compatible axes first.
    pub fn enumerate(&self) -> Vec<TuneParam> {
        let mut out = Vec::new();
        for &scheme in &self.schemes {
            for &interior_threads in &self.threads {
                for &mr_steps in &self.mr_steps {
                    for &n_kv in &self.n_kv {
                        for &ladder in &self.ladders {
                            out.push(TuneParam {
                                scheme,
                                interior_threads,
                                mr_steps,
                                n_kv,
                                ladder,
                            });
                        }
                    }
                }
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
        assert_eq!(a.label(), "ZT t2 mr8 kv16 double");
        let mut b = a;
        b.interior_threads = 4;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), TuneParam::baseline(2).fingerprint());
        assert_ne!(a.fingerprint(), 0);
    }

    #[test]
    fn spaces_enumerate_the_cartesian_product() {
        let base = TuneParam::baseline(1);
        let space = TuneSpace::dslash(&base, 4);
        // 4 schemes × {1,2,4} threads.
        assert_eq!(space.enumerate().len(), 4 * 3);
        assert!(space.enumerate().contains(&TuneParam::baseline(1)));
        let solver = TuneSpace::solver(&base);
        assert_eq!(solver.enumerate().len(), 9);
    }

    #[test]
    fn ladder_escalates_half_single_double() {
        assert_eq!(LadderChoice::Half.escalate(), Some(LadderChoice::Single));
        assert_eq!(LadderChoice::Single.escalate(), Some(LadderChoice::Double));
        assert_eq!(LadderChoice::Double.escalate(), None);
    }
}
