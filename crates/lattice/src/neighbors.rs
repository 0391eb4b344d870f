//! Precomputed nearest-neighbour tables for depth-1 stencils.
//!
//! [`SubLattice::neighbor`] resolves a hop from coordinates, which costs
//! a checkerboard decode plus index arithmetic per hop. The Wilson
//! stencil makes eight hops per site on every apply, so the operator
//! resolves them once, at construction, into a [`NeighborTable`].

use crate::dims::NDIM;
use crate::local::{Neighbor, Parity, SubLattice};
use lqcd_util::{Error, Result};

/// The eight nearest-neighbour hops of every site of one subvolume.
///
/// For a site of parity `p`, entry `2µ` is the `+µ̂` hop and entry
/// `2µ + 1` the `−µ̂` hop: the checkerboard index of the neighbour (of the
/// other parity), or [`NeighborTable::GHOST`] when the hop crosses a
/// partitioned boundary and reads a ghost zone. A depth-1 ghost hop of
/// the `k`-th site in a [`FaceGeometry`](crate::FaceGeometry) face list
/// reads ghost slot `k`, so exterior kernels walk the face lists and need
/// no per-hop resolution either.
#[derive(Clone, Debug)]
pub struct NeighborTable {
    /// `hops[parity][idx]`.
    hops: [Vec<[u32; 2 * NDIM]>; 2],
}

impl NeighborTable {
    /// Sentinel for a hop that leaves the body.
    pub const GHOST: u32 = u32::MAX;

    /// Resolve every nearest-neighbour hop of `sub`.
    ///
    /// Errors if a checkerboard index does not fit below the sentinel.
    pub fn new(sub: &SubLattice) -> Result<Self> {
        if sub.volume_cb() >= Self::GHOST as usize {
            return Err(Error::Geometry(format!(
                "{} sites per parity overflow the neighbour table",
                sub.volume_cb()
            )));
        }
        let table = |p: Parity| -> Vec<[u32; 2 * NDIM]> {
            sub.sites(p)
                .map(|(_, c)| {
                    let mut hops = [Self::GHOST; 2 * NDIM];
                    for mu in 0..NDIM {
                        for (k, step) in [1, -1].into_iter().enumerate() {
                            if let Neighbor::Interior { idx } = sub.neighbor(c, mu, step, 1) {
                                hops[2 * mu + k] = idx as u32;
                            }
                        }
                    }
                    hops
                })
                .collect()
        };
        Ok(NeighborTable { hops: [table(Parity::Even), table(Parity::Odd)] })
    }

    /// The hops of site `idx` of parity `p`.
    #[inline(always)]
    pub fn hops(&self, p: Parity, idx: usize) -> &[u32; 2 * NDIM] {
        &self.hops[p.index()][idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::Dims;
    use crate::face::FaceGeometry;
    use crate::grid::ProcessGrid;

    fn check_against_neighbor(sub: &SubLattice) {
        let t = NeighborTable::new(sub).unwrap();
        for p in Parity::BOTH {
            for (idx, c) in sub.sites(p) {
                for mu in 0..NDIM {
                    for (k, step) in [1, -1].into_iter().enumerate() {
                        let want = match sub.neighbor(c, mu, step, 1) {
                            Neighbor::Interior { idx } => idx as u32,
                            Neighbor::Ghost { .. } => NeighborTable::GHOST,
                        };
                        assert_eq!(t.hops(p, idx)[2 * mu + k], want, "{c:?} µ={mu} step {step}");
                    }
                }
            }
        }
    }

    #[test]
    fn table_matches_neighbor_resolution() {
        check_against_neighbor(&SubLattice::single(Dims([4, 6, 2, 8])).unwrap());
        let grid = ProcessGrid::new(Dims([2, 1, 2, 2]), Dims([8, 4, 4, 8])).unwrap();
        for rank in 0..grid.num_ranks() {
            check_against_neighbor(&SubLattice::for_rank(&grid, rank));
        }
    }

    #[test]
    fn face_position_is_the_ghost_slot() {
        let grid = ProcessGrid::new(Dims([1, 2, 1, 2]), Dims([4, 8, 4, 8])).unwrap();
        let sub = SubLattice::for_rank(&grid, 3);
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        let t = NeighborTable::new(&sub).unwrap();
        for mu in 0..NDIM {
            for p in Parity::BOTH {
                for (list, step) in [(faces.high_face(mu, p), 1), (faces.low_face(mu, p), -1)] {
                    for (k, &idx) in list.iter().enumerate() {
                        let c = sub.cb_coords(p, idx as usize);
                        let Neighbor::Ghost { offset, .. } = sub.neighbor(c, mu, step, 1) else {
                            panic!("face site {c:?} hops inside (µ={mu}, step {step})");
                        };
                        assert_eq!(offset, k);
                        let entry = 2 * mu + usize::from(step < 0);
                        assert_eq!(t.hops(p, idx as usize)[entry], NeighborTable::GHOST);
                    }
                }
            }
        }
    }
}
