//! Precomputed stencil-hop tables.
//!
//! [`SubLattice::neighbor`] resolves a hop from coordinates, which costs
//! a checkerboard decode plus index arithmetic per hop. The Wilson
//! stencil makes eight hops per site on every apply and the asqtad
//! stencil sixteen, so each operator resolves them once, at
//! construction, into a [`NeighborTable`] of its stencil depth.

use crate::dims::NDIM;
use crate::local::{Neighbor, Parity, SubLattice};
use lqcd_util::{Error, Result};

/// The stencil hops and staggered phases of every site of one subvolume.
///
/// A depth-1 table holds `2·NDIM` entries per site: entry `2µ` is the
/// `+µ̂` hop and entry `2µ + 1` the `−µ̂` hop. A depth-3 table (the asqtad
/// stencil with its Naik term) holds `4·NDIM`: entries `4µ .. 4µ + 4` are
/// the `+1, −1, +3, −3` hops along µ.
///
/// Each entry is what [`SubLattice::neighbor`] returns for that hop:
/// the checkerboard index of the neighbour (of the other parity), or
/// [`NeighborTable::GHOST`] set over the ghost offset when the hop crosses
/// a partitioned boundary. The crossed dimension is the entry's µ and the
/// side is the sign of its step, so the offset alone locates the ghost.
/// At depth 1 the offset of the `k`-th site in a
/// [`FaceGeometry`](crate::FaceGeometry) face list is `k`, so exterior
/// kernels can walk the face lists instead; at depth 3 it is not, and they
/// read it here.
#[derive(Clone, Debug)]
pub struct NeighborTable {
    /// Entries per site.
    width: usize,
    /// `hops[parity]`: `width` entries per site, site-major.
    hops: [Vec<u32>; 2],
    /// `eta[parity][idx]`: bit µ set where `η_µ(x) = −1`.
    eta: [Vec<u8>; 2],
}

impl NeighborTable {
    /// Flag bit of a ghost entry; the bits below it are the ghost offset.
    pub const GHOST: u32 = 1 << 31;

    /// The hop steps along one direction, in entry order.
    fn steps(depth: usize) -> Result<&'static [isize]> {
        match depth {
            1 => Ok(&[1, -1]),
            3 => Ok(&[1, -1, 3, -3]),
            _ => Err(Error::Geometry(format!("no neighbour table for stencil depth {depth}"))),
        }
    }

    /// Resolve every hop of a depth-1 (Wilson) or depth-3 (asqtad)
    /// stencil on `sub`.
    ///
    /// Errors on another depth, or if a checkerboard index does not fit
    /// below the ghost flag.
    pub fn new(sub: &SubLattice, depth: usize) -> Result<Self> {
        let steps = Self::steps(depth)?;
        if sub.volume_cb() >= Self::GHOST as usize {
            return Err(Error::Geometry(format!(
                "{} sites per parity overflow the neighbour table",
                sub.volume_cb()
            )));
        }
        let width = steps.len() * NDIM;
        let hops = |p: Parity| -> Vec<u32> {
            let mut out = Vec::with_capacity(width * sub.volume_cb());
            for (_, c) in sub.sites(p) {
                for mu in 0..NDIM {
                    for &step in steps {
                        // Ghost offsets are below depth · face volume,
                        // itself at most the volume checked above.
                        out.push(match sub.neighbor(c, mu, step, depth) {
                            Neighbor::Interior { idx } => idx as u32,
                            Neighbor::Ghost { offset, .. } => Self::GHOST | offset as u32,
                        });
                    }
                }
            }
            out
        };
        // η_µ(x) = (−1)^(x_0 + … + x_{µ−1}) at global coordinates.
        let eta = |p: Parity| -> Vec<u8> {
            sub.sites(p)
                .map(|(_, c)| {
                    let mut sum = 0;
                    let mut mask = 0;
                    for mu in 0..NDIM {
                        mask |= ((sum % 2) as u8) << mu;
                        sum += c[mu] + sub.origin[mu];
                    }
                    mask
                })
                .collect()
        };
        Ok(NeighborTable {
            width,
            hops: [hops(Parity::Even), hops(Parity::Odd)],
            eta: [eta(Parity::Even), eta(Parity::Odd)],
        })
    }

    /// The `N` hop entries of site `idx` of parity `p`.
    ///
    /// Panics unless `N` is the table's width (8 at depth 1, 16 at depth 3).
    #[inline(always)]
    pub fn hops<const N: usize>(&self, p: Parity, idx: usize) -> &[u32; N] {
        assert_eq!(N, self.width, "neighbour table width");
        self.hops[p.index()][N * idx..].first_chunk().expect("site index inside the table")
    }

    /// The staggered phases of site `idx` of parity `p`: bit µ is set
    /// where `η_µ(x) = −1`.
    #[inline(always)]
    pub fn eta(&self, p: Parity, idx: usize) -> u8 {
        self.eta[p.index()][idx]
    }

    /// The neighbour's checkerboard index, or `None` for a ghost entry.
    #[inline(always)]
    pub fn interior(entry: u32) -> Option<usize> {
        (entry & Self::GHOST == 0).then_some(entry as usize)
    }

    /// The ghost offset, or `None` for an interior entry.
    #[inline(always)]
    pub fn ghost(entry: u32) -> Option<usize> {
        (entry & Self::GHOST != 0).then_some((entry & !Self::GHOST) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::Dims;
    use crate::face::FaceGeometry;
    use crate::grid::ProcessGrid;

    fn check_against_neighbor(sub: &SubLattice, depth: usize) {
        let t = NeighborTable::new(sub, depth).unwrap();
        let steps = NeighborTable::steps(depth).unwrap();
        for p in Parity::BOTH {
            for (idx, c) in sub.sites(p) {
                let row: &[u32] = match depth {
                    1 => t.hops::<8>(p, idx),
                    _ => t.hops::<16>(p, idx),
                };
                for mu in 0..NDIM {
                    for (k, &step) in steps.iter().enumerate() {
                        let entry = row[steps.len() * mu + k];
                        match sub.neighbor(c, mu, step, depth) {
                            Neighbor::Interior { idx } => {
                                assert_eq!(NeighborTable::interior(entry), Some(idx));
                                assert_eq!(NeighborTable::ghost(entry), None);
                            }
                            Neighbor::Ghost { mu: gmu, forward, offset } => {
                                assert_eq!((gmu, forward), (mu, step > 0));
                                assert_eq!(NeighborTable::ghost(entry), Some(offset));
                                assert_eq!(NeighborTable::interior(entry), None);
                            }
                        }
                    }
                }
            }
        }
    }

    /// An unpartitioned box, a thin rank along T (`L_t = 4 < 2·3`, so the
    /// depth-3 face lists overlap), and a multi-dimensional partition.
    fn cases() -> Vec<SubLattice> {
        let mut subs = vec![SubLattice::single(Dims([4, 6, 2, 8])).unwrap()];
        let thin = ProcessGrid::new(Dims([1, 1, 1, 2]), Dims([4, 4, 4, 8])).unwrap();
        let multi = ProcessGrid::new(Dims([2, 1, 2, 2]), Dims([8, 4, 8, 8])).unwrap();
        for grid in [thin, multi] {
            subs.extend((0..grid.num_ranks()).map(|rank| SubLattice::for_rank(&grid, rank)));
        }
        subs
    }

    #[test]
    fn table_matches_neighbor_resolution() {
        for sub in cases() {
            check_against_neighbor(&sub, 1);
            check_against_neighbor(&sub, 3);
        }
    }

    #[test]
    fn only_stencil_depths_have_tables() {
        let sub = SubLattice::single(Dims([4, 4, 4, 4])).unwrap();
        for depth in [0, 2, 4] {
            assert!(NeighborTable::new(&sub, depth).is_err(), "depth {depth}");
        }
    }

    #[test]
    fn eta_mask_is_the_global_staggered_phase() {
        // An odd origin in X and Y flips η_y, η_z and η_t relative to
        // local coordinates.
        let mut sub = SubLattice::single(Dims([4, 4, 2, 4])).unwrap();
        sub.origin = [1, 3, 0, 2];
        let t = NeighborTable::new(&sub, 3).unwrap();
        let mut flipped = 0;
        for p in Parity::BOTH {
            for (idx, c) in sub.sites(p) {
                for mu in 0..NDIM {
                    let sum: usize = (0..mu).map(|d| c[d] + sub.origin[d]).sum();
                    let local: usize = c[..mu].iter().sum();
                    assert_eq!(t.eta(p, idx) >> mu & 1, (sum % 2) as u8, "{c:?} µ={mu}");
                    flipped += usize::from(sum % 2 != local % 2);
                }
                assert_eq!(t.eta(p, idx) & 1, 0, "η_x = 1");
            }
        }
        assert!(flipped > 0, "the origin must matter");
    }

    #[test]
    fn face_position_is_the_ghost_slot() {
        let grid = ProcessGrid::new(Dims([1, 2, 1, 2]), Dims([4, 8, 4, 8])).unwrap();
        let sub = SubLattice::for_rank(&grid, 3);
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        let t = NeighborTable::new(&sub, 1).unwrap();
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
                        assert_eq!(
                            NeighborTable::ghost(t.hops::<8>(p, idx as usize)[entry]),
                            Some(k)
                        );
                    }
                }
            }
        }
    }
}
