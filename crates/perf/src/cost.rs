//! Per-site flop/byte costs of the Dirac operators.
//!
//! Flop counts are the community-standard figures QUDA reports against
//! (1320 flops/site for Wilson dslash, etc.), so our model Gflops are
//! directly comparable to the paper's axes. Byte counts follow from the
//! field encodings in `lqcd-su3`/`lqcd-field`.

use lqcd_lattice::{ProcessGrid, SubLattice, NDIM};
use serde::{Deserialize, Serialize};

/// Which discretization.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OperatorKind {
    /// Wilson (no clover term).
    Wilson,
    /// Wilson-clover.
    WilsonClover,
    /// Improved staggered (asqtad): fat + long links, 3-hop stencil.
    Asqtad,
}

/// Storage precision.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Precision {
    /// 64-bit IEEE.
    Double,
    /// 32-bit IEEE.
    Single,
    /// 16-bit fixed point with per-site norms (compute still in f32).
    Half,
}

impl Precision {
    /// Bytes per stored real number.
    pub fn bytes(self) -> f64 {
        match self {
            Precision::Double => 8.0,
            Precision::Single => 4.0,
            Precision::Half => 2.0,
        }
    }

    /// Label used in figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Precision::Double => "DP",
            Precision::Single => "SP",
            Precision::Half => "HP",
        }
    }
}

/// Gauge-link compression (paper §5 strategy (a)).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Recon {
    /// 18 reals per link (required for non-unitary fat links).
    None,
    /// 12 reals, third row reconstructed.
    Twelve,
    /// 8 reals, minimal parameterization.
    Eight,
}

impl Recon {
    /// Reals stored per link.
    pub fn reals(self) -> f64 {
        match self {
            Recon::None => 18.0,
            Recon::Twelve => 12.0,
            Recon::Eight => 8.0,
        }
    }

    /// Extra flops per link spent reconstructing.
    pub fn extra_flops(self) -> f64 {
        match self {
            Recon::None => 0.0,
            Recon::Twelve => 42.0,
            Recon::Eight => 106.0,
        }
    }
}

/// The standard flops/site of the Wilson dslash (8 SU(3) mat-vecs on
/// half spinors + spin projection/reconstruction + accumulation).
pub const WILSON_DSLASH_FLOPS: f64 = 1320.0;
/// Extra flops/site for the clover term (two 6×6 Hermitian mat-vecs).
pub const CLOVER_FLOPS: f64 = 504.0;
/// Flops/site of the asqtad dslash (16 SU(3) mat-vecs on color vectors +
/// accumulation), the MILC counting.
pub const ASQTAD_DSLASH_FLOPS: f64 = 1146.0;

/// A fully specified operator configuration for costing.
#[derive(Copy, Clone, Debug, Serialize, Deserialize)]
pub struct OpConfig {
    /// Discretization.
    pub kind: OperatorKind,
    /// Storage precision.
    pub precision: Precision,
    /// Link compression.
    pub recon: Recon,
}

impl OpConfig {
    /// Nominal flops per site — the community counting used on figure
    /// axes (reconstruction flops are *not* credited, matching QUDA's
    /// reporting).
    pub fn nominal_flops_per_site(&self) -> f64 {
        match self.kind {
            OperatorKind::Wilson => WILSON_DSLASH_FLOPS,
            OperatorKind::WilsonClover => WILSON_DSLASH_FLOPS + CLOVER_FLOPS,
            OperatorKind::Asqtad => ASQTAD_DSLASH_FLOPS,
        }
    }

    /// Flops per lattice site actually executed (including link
    /// reconstruction), used for the kernel flop-rate floor.
    pub fn flops_per_site(&self) -> f64 {
        match self.kind {
            OperatorKind::Wilson => WILSON_DSLASH_FLOPS + 8.0 * self.recon.extra_flops(),
            OperatorKind::WilsonClover => {
                WILSON_DSLASH_FLOPS + CLOVER_FLOPS + 8.0 * self.recon.extra_flops()
            }
            // Fat links can't be compressed; recon is ignored for asqtad.
            OperatorKind::Asqtad => ASQTAD_DSLASH_FLOPS,
        }
    }

    /// Device-memory bytes per site of one dslash application
    /// (links + neighbour spinors read, result written). Half precision
    /// pays an extra 4-byte `f32` norm per site-object touched (the
    /// per-site normalization of the fixed-point format).
    pub fn bytes_per_site(&self) -> f64 {
        let b = self.precision.bytes();
        let norm = if self.precision == Precision::Half { 4.0 } else { 0.0 };
        match self.kind {
            OperatorKind::Wilson => {
                8.0 * self.recon.reals() * b + 8.0 * (24.0 * b + norm) + 24.0 * b + norm
            }
            OperatorKind::WilsonClover => {
                8.0 * self.recon.reals() * b
                    + 8.0 * (24.0 * b + norm)
                    + 24.0 * b
                    + norm
                    + 72.0 * b
                    + norm
            }
            OperatorKind::Asqtad => {
                // 8 fat + 8 long links (18 reals each), 16 neighbour color
                // vectors, one write.
                16.0 * 18.0 * b + 16.0 * (6.0 * b + norm) + 6.0 * b + norm
            }
        }
    }

    /// Ghost bytes per face site per direction actually shipped: Wilson
    /// ships projected *half* spinors (12 reals), staggered full color
    /// vectors (6 reals).
    pub fn ghost_reals_per_site(&self) -> f64 {
        match self.kind {
            OperatorKind::Wilson | OperatorKind::WilsonClover => 12.0,
            OperatorKind::Asqtad => 6.0,
        }
    }

    /// Stencil depth (ghost layers).
    pub fn depth(&self) -> usize {
        match self.kind {
            OperatorKind::Wilson | OperatorKind::WilsonClover => 1,
            OperatorKind::Asqtad => 3,
        }
    }

    /// Ghost-zone bytes for one (dimension, direction) message of one
    /// parity, computed from the real geometry.
    pub fn ghost_bytes(&self, sub: &SubLattice, mu: usize) -> f64 {
        let face_cb = sub.face_vol_cb(mu) as f64;
        face_cb * self.depth() as f64 * self.ghost_site_bytes()
    }

    /// Wire bytes per ghost site (including the half-precision norm).
    pub fn ghost_site_bytes(&self) -> f64 {
        let norm = if self.precision == Precision::Half { 4.0 } else { 0.0 };
        self.ghost_reals_per_site() * self.precision.bytes() + norm
    }

    /// Per-site reals of the solution vector (BLAS costing).
    pub fn spinor_reals(&self) -> f64 {
        match self.kind {
            OperatorKind::Wilson | OperatorKind::WilsonClover => 24.0,
            OperatorKind::Asqtad => 6.0,
        }
    }
}

/// Geometry summary the stream simulator needs, extracted from the real
/// partitioning code.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PartitionGeometry {
    /// Checkerboard body volume per rank.
    pub vol_cb: usize,
    /// Per-dimension partitioned flag.
    pub partitioned: [bool; NDIM],
    /// Per-dimension checkerboard face volume.
    pub face_vol_cb: [usize; NDIM],
    /// Total number of ranks.
    pub ranks: usize,
}

impl PartitionGeometry {
    /// Extract from a process grid (rank 0's subvolume — all ranks are
    /// congruent).
    pub fn of(grid: &ProcessGrid) -> Self {
        let sub = SubLattice::for_rank(grid, 0);
        let mut face_vol_cb = [0usize; NDIM];
        for (mu, f) in face_vol_cb.iter_mut().enumerate() {
            *f = sub.face_vol_cb(mu);
        }
        PartitionGeometry {
            vol_cb: sub.volume_cb(),
            partitioned: sub.partitioned,
            face_vol_cb,
            ranks: grid.num_ranks(),
        }
    }

    /// Number of partitioned dimensions.
    pub fn num_partitioned(&self) -> usize {
        self.partitioned.iter().filter(|&&p| p).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqcd_lattice::{Dims, PartitionScheme};

    #[test]
    fn precision_and_recon_tables() {
        assert_eq!(Precision::Double.bytes(), 8.0);
        assert_eq!(Precision::Half.bytes(), 2.0);
        assert_eq!(Recon::Twelve.reals(), 12.0);
        assert!(Recon::Eight.extra_flops() > Recon::Twelve.extra_flops());
    }

    #[test]
    fn compression_cuts_bytes_adds_flops() {
        let full = OpConfig {
            kind: OperatorKind::WilsonClover,
            precision: Precision::Single,
            recon: Recon::None,
        };
        let r12 = OpConfig { recon: Recon::Twelve, ..full };
        assert!(r12.bytes_per_site() < full.bytes_per_site());
        assert!(r12.flops_per_site() > full.flops_per_site());
        // 12-recon saves 8 links × 6 reals × 4 B = 192 B/site.
        assert!((full.bytes_per_site() - r12.bytes_per_site() - 192.0).abs() < 1e-9);
    }

    #[test]
    fn asqtad_is_three_deep_and_uncompressed() {
        let cfg = OpConfig {
            kind: OperatorKind::Asqtad,
            precision: Precision::Double,
            recon: Recon::None,
        };
        assert_eq!(cfg.depth(), 3);
        // Ghost traffic on the paper's 64³×192 volume, ZT split over 64.
        let grid = PartitionScheme::ZT.grid(Dims::symm(64, 192), 64).unwrap();
        let sub = SubLattice::for_rank(&grid, 0);
        let mu = 3;
        let want = sub.face_vol_cb(mu) as f64 * 3.0 * 6.0 * 8.0;
        assert_eq!(cfg.ghost_bytes(&sub, mu), want);
    }

    #[test]
    fn arithmetic_intensity_is_below_one_flop_per_byte() {
        // "approximately 1 byte/flop in single precision" (§1).
        let cfg = OpConfig {
            kind: OperatorKind::Wilson,
            precision: Precision::Single,
            recon: Recon::None,
        };
        let intensity = cfg.flops_per_site() / cfg.bytes_per_site();
        assert!((0.7..1.3).contains(&intensity), "intensity {intensity}");
    }

    #[test]
    fn geometry_extraction_matches_lattice_code() {
        let grid = PartitionScheme::XYZT.grid(Dims::symm(32, 256), 256).unwrap();
        let geo = PartitionGeometry::of(&grid);
        assert_eq!(geo.ranks, 256);
        assert_eq!(geo.vol_cb * 2 * 256, 32 * 32 * 32 * 256);
        assert_eq!(geo.num_partitioned(), grid.num_partitioned());
    }
}
