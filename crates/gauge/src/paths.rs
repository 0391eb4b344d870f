//! Products of links along lattice paths, per site and per field.
//!
//! Staples, plaquettes, improved-action terms, and the clover leaves are
//! all path products. Everything here operates on *single-rank* (global)
//! gauge fields with periodic wrap — precomputation of smeared links and
//! clover terms happens globally and is then restricted per rank (see
//! crate docs). Two access patterns:
//!
//! * [`path_product`] walks one arbitrary path from one site, resolving
//!   each hop's coordinate as it goes. The plaquette, the heatbath staple
//!   sum and the test oracles use it.
//! * `LexLinks` copies the field once into lexicographic per-direction
//!   arrays with ±µ̂ neighbour tables. The whole-field builders (asqtad
//!   staple recursion, clover leaves) index it directly, so a hop costs a
//!   table lookup rather than a coordinate decode.

use crate::field::GaugeField;
use lqcd_lattice::{Dims, Parity, NDIM};
use lqcd_su3::Su3;
use lqcd_util::Real;

/// One step of a path: direction µ, sign ±.
///
/// `Step(mu, true)` hops +µ̂ multiplying by `U_µ(x)`;
/// `Step(mu, false)` hops −µ̂ multiplying by `U_µ(x−µ̂)†`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Step(pub usize, pub bool);

impl Step {
    /// The reversed step (undoes this one).
    pub fn reverse(self) -> Step {
        Step(self.0, !self.1)
    }
}

/// Fetch `U_µ` at an arbitrary global coordinate (wrapped).
#[inline]
pub fn link_at<R: Real>(g: &GaugeField<R>, _global: Dims, c: [usize; NDIM], mu: usize) -> Su3<R> {
    let sub = g.sublattice();
    debug_assert!(sub.partitioned.iter().all(|&x| !x), "link_at requires a global field");
    let p = sub.parity(c);
    g.link(mu, p, sub.cb_index(c))
}

/// Product of links along `path` starting at `start` (global coordinates,
/// periodic wrap). Returns the ordered product and ends wherever the path
/// ends.
pub fn path_product<R: Real>(
    g: &GaugeField<R>,
    global: Dims,
    start: [usize; NDIM],
    path: &[Step],
) -> Su3<R> {
    let mut acc = Su3::identity();
    let mut pos = start;
    for &Step(mu, fwd) in path {
        if fwd {
            acc = acc.mul(&link_at(g, global, pos, mu));
            pos = global.displace(pos, mu, 1);
        } else {
            pos = global.displace(pos, mu, -1);
            acc = acc.mul(&link_at(g, global, pos, mu).adjoint());
        }
    }
    acc
}

/// A global gauge field in lexicographic site order (X fastest, the order
/// of [`Dims::index`]) with ±µ̂ neighbour tables.
pub(crate) struct LexLinks<R: Real> {
    dims: Dims,
    /// `u[µ][i] = U_µ(x_i)`.
    pub u: [Vec<Su3<R>>; NDIM],
    fwd: [Vec<usize>; NDIM],
    bwd: [Vec<usize>; NDIM],
}

impl<R: Real> LexLinks<R> {
    /// Copy a global field; panics if `g` is one rank's piece of a larger
    /// lattice or does not cover `global`.
    pub fn new(g: &GaugeField<R>, global: Dims) -> Self {
        let sub = g.sublattice();
        assert!(
            sub.partitioned.iter().all(|&x| !x),
            "asqtad links and the clover term are precomputed on the global lattice (see crate docs)"
        );
        assert_eq!(sub.dims, global, "gauge field does not cover the global lattice");
        let v = global.volume();
        let u = std::array::from_fn(|mu| {
            (0..v)
                .map(|i| {
                    let c = global.coords(i);
                    g.link(mu, sub.parity(c), sub.cb_index(c))
                })
                .collect()
        });
        let table = |mu: usize, step: isize| -> Vec<usize> {
            (0..v).map(|i| global.index(global.displace(global.coords(i), mu, step))).collect()
        };
        Self {
            dims: global,
            u,
            fwd: std::array::from_fn(|mu| table(mu, 1)),
            bwd: std::array::from_fn(|mu| table(mu, -1)),
        }
    }

    /// Number of sites.
    pub fn volume(&self) -> usize {
        self.dims.volume()
    }

    /// Index of `x_i + µ̂`.
    #[inline(always)]
    pub fn up(&self, mu: usize, i: usize) -> usize {
        self.fwd[mu][i]
    }

    /// Index of `x_i − µ̂`.
    #[inline(always)]
    pub fn dn(&self, mu: usize, i: usize) -> usize {
        self.bwd[mu][i]
    }

    /// Parity and checkerboard index of site `i` (the storage address of
    /// [`GaugeField`] and `LatticeField`).
    #[inline]
    pub fn cb_site(&self, i: usize) -> (Parity, usize) {
        let c = self.dims.coords(i);
        (Parity::of_sum(c.iter().sum()), i / 2)
    }

    /// Store a lexicographic field as direction `mu` of `out`.
    pub fn scatter(&self, field: &[Su3<R>], mu: usize, out: &mut GaugeField<R>) {
        for (i, u) in field.iter().enumerate() {
            let (p, idx) = self.cb_site(i);
            out.set_link(mu, p, idx, *u);
        }
    }
}

/// The sum of the six staples around `U_µ(x)` (used by the heatbath):
/// for each ν ≠ µ, the up staple `U_ν(x+µ̂) U_µ(x+ν̂)† U_ν(x)†` and the
/// down staple `U_ν(x+µ̂−ν̂)† U_µ(x−ν̂)† U_ν(x−ν̂)`.
pub fn staple_sum<R: Real>(g: &GaugeField<R>, global: Dims, x: [usize; NDIM], mu: usize) -> Su3<R> {
    let mut sum = Su3::zero();
    let xpmu = global.displace(x, mu, 1);
    for nu in 0..NDIM {
        if nu == mu {
            continue;
        }
        // Up: from x+µ̂ walk +ν, −µ, −ν back to x.
        let up = path_product(g, global, xpmu, &[Step(nu, true), Step(mu, false), Step(nu, false)]);
        // Down: from x+µ̂ walk −ν, −µ, +ν back to x.
        let down =
            path_product(g, global, xpmu, &[Step(nu, false), Step(mu, false), Step(nu, true)]);
        sum = sum.add(&up).add(&down);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::GaugeStart;
    use lqcd_lattice::{FaceGeometry, SubLattice};
    use lqcd_util::rng::SeedTree;
    use std::sync::Arc;

    fn hot_field(global: Dims, seed: u64) -> GaugeField<f64> {
        let sub = Arc::new(SubLattice::single(global).unwrap());
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        GaugeField::generate(sub, &faces, global, &SeedTree::new(seed), GaugeStart::Hot)
    }

    #[test]
    fn closed_path_of_step_and_reverse_is_identity() {
        let global = Dims([4, 4, 4, 4]);
        let g = hot_field(global, 1);
        let x = [1, 2, 3, 0];
        for mu in 0..4 {
            let prod = path_product(&g, global, x, &[Step(mu, true), Step(mu, false)]);
            assert!(prod.sub(&Su3::identity()).norm_sqr() < 1e-24, "µ={mu}");
        }
    }

    #[test]
    fn plaquette_path_is_unitary_with_unit_det() {
        let global = Dims([4, 4, 4, 4]);
        let g = hot_field(global, 2);
        let x = [0, 1, 2, 3];
        let loop_path = [Step(0, true), Step(1, true), Step(0, false), Step(1, false)];
        let u = path_product(&g, global, x, &loop_path);
        assert!(u.unitarity_error() < 1e-12);
        assert!((u.det().abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reversed_loop_is_adjoint() {
        let global = Dims([4, 4, 4, 4]);
        let g = hot_field(global, 3);
        let x = [2, 0, 1, 3];
        let fwd = [Step(2, true), Step(3, true), Step(2, false), Step(3, false)];
        let rev: Vec<Step> = fwd.iter().rev().map(|s| s.reverse()).collect();
        let a = path_product(&g, global, x, &fwd);
        let b = path_product(&g, global, x, &rev);
        assert!(a.mul(&b).sub(&Su3::identity()).norm_sqr() < 1e-22);
        assert!(a.adjoint().sub(&b).norm_sqr() < 1e-22);
    }

    #[test]
    fn cold_staple_sum_is_six_identities() {
        let global = Dims([4, 4, 4, 4]);
        let sub = Arc::new(SubLattice::single(global).unwrap());
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        let g =
            GaugeField::<f64>::generate(sub, &faces, global, &SeedTree::new(4), GaugeStart::Cold);
        let s = staple_sum(&g, global, [0, 0, 0, 0], 0);
        assert!(s.sub(&Su3::identity().scale(6.0)).norm_sqr() < 1e-24);
    }
}
