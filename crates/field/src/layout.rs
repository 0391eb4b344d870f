//! Offsets of body, pad, and ghost zones within one field allocation.

use lqcd_lattice::{FaceGeometry, SubLattice, NDIM};

/// Memory layout of one parity field (paper Figs. 2–3).
///
/// All offsets are in *sites*; multiply by the site's real count to get
/// scalar offsets. Ghost zones exist only for partitioned dimensions —
/// "allocation of ghost zones and data exchange in a given dimension only
/// takes place when that dimension is partitioned, so as to ensure that
/// GPU memory ... \[is\] not wasted" (§6.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldLayout {
    /// Sites in the body (`Vh`).
    pub body_sites: usize,
    /// Pad region, in sites (tunable; reduces partition camping on the
    /// hardware the paper targets — kept for layout fidelity).
    pub pad_sites: usize,
    /// Site offset of each ghost zone: `ghost_offset[mu][dir]`, with
    /// `dir = 0` for the backward (−µ) ghost and `1` for forward (+µ).
    /// `usize::MAX` marks an absent zone (unpartitioned dimension).
    pub ghost_offset: [[usize; 2]; NDIM],
    /// Sites per ghost zone (`depth × face_vol_cb`), zero when absent.
    pub ghost_sites: [usize; NDIM],
    /// Total allocation size in sites.
    pub total_sites: usize,
}

impl FieldLayout {
    /// Compute the layout for one parity of `sub` at stencil `depth`,
    /// with `pad_sites` of padding between body and ghosts.
    pub fn new(sub: &SubLattice, faces: &FaceGeometry, pad_sites: usize) -> Self {
        let body = sub.volume_cb();
        let mut ghost_offset = [[usize::MAX; 2]; NDIM];
        let mut ghost_sites = [0usize; NDIM];
        let mut cursor = body + pad_sites;
        for mu in 0..NDIM {
            if !sub.partitioned[mu] {
                continue;
            }
            let n = faces.ghost_sites(mu);
            ghost_sites[mu] = n;
            ghost_offset[mu][0] = cursor;
            cursor += n;
            ghost_offset[mu][1] = cursor;
            cursor += n;
        }
        FieldLayout { body_sites: body, pad_sites, ghost_offset, ghost_sites, total_sites: cursor }
    }

    /// Site offset of the ghost zone for `(mu, forward)`.
    ///
    /// # Panics
    /// Panics if the dimension has no ghost zone (callers must only hop
    /// into ghosts of partitioned dimensions — the geometry layer
    /// guarantees this for stencil-generated accesses).
    #[inline(always)]
    pub fn ghost_base(&self, mu: usize, forward: bool) -> usize {
        let off = self.ghost_offset[mu][forward as usize];
        assert!(off != usize::MAX, "no ghost zone for dimension {mu}");
        off
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqcd_lattice::{Dims, ProcessGrid};

    fn layout_for(grid: &ProcessGrid, depth: usize, pad: usize) -> (SubLattice, FieldLayout) {
        let sub = SubLattice::for_rank(grid, 0);
        let faces = FaceGeometry::new(&sub, depth).unwrap();
        let l = FieldLayout::new(&sub, &faces, pad);
        (sub, l)
    }

    #[test]
    fn unpartitioned_field_is_body_plus_pad_only() {
        let grid = ProcessGrid::new(Dims([1, 1, 1, 1]), Dims([4, 4, 4, 8])).unwrap();
        let (sub, l) = layout_for(&grid, 1, 16);
        assert_eq!(l.body_sites, sub.volume_cb());
        assert_eq!(l.total_sites, sub.volume_cb() + 16);
        assert_eq!(l.ghost_sites, [0; 4]);
    }

    #[test]
    fn ghosts_follow_body_and_pad_in_order() {
        // Partition Z and T; Wilson depth.
        let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), Dims([4, 4, 8, 8])).unwrap();
        let (sub, l) = layout_for(&grid, 1, 8);
        let body = sub.volume_cb();
        let fz = sub.face_vol_cb(2);
        let ft = sub.face_vol_cb(3);
        assert_eq!(l.ghost_base(2, false), body + 8);
        assert_eq!(l.ghost_base(2, true), body + 8 + fz);
        assert_eq!(l.ghost_base(3, false), body + 8 + 2 * fz);
        assert_eq!(l.ghost_base(3, true), body + 8 + 2 * fz + ft);
        assert_eq!(l.total_sites, body + 8 + 2 * fz + 2 * ft);
        assert_eq!(l.ghost_sites[..2], [0, 0]);
    }

    #[test]
    fn naik_depth_triples_ghosts() {
        let grid = ProcessGrid::new(Dims([1, 1, 1, 4]), Dims([4, 4, 4, 16])).unwrap();
        let (sub, l1) = layout_for(&grid, 1, 0);
        let faces3 = FaceGeometry::new(&sub, 3).unwrap();
        let l3 = FieldLayout::new(&sub, &faces3, 0);
        assert_eq!(l3.ghost_sites[3], 3 * l1.ghost_sites[3]);
    }

    #[test]
    #[should_panic(expected = "no ghost zone")]
    fn ghost_base_panics_for_unpartitioned() {
        let grid = ProcessGrid::new(Dims([1, 1, 1, 2]), Dims([4, 4, 4, 8])).unwrap();
        let (_, l) = layout_for(&grid, 1, 0);
        let _ = l.ghost_base(0, true);
    }
}
