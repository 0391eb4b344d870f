//! Products of links along lattice paths, per site and per field.
//!
//! Staples, plaquettes, improved-action terms, and the clover leaves are
//! all path products. Two access patterns:
//!
//! * [`path_product`] walks one arbitrary path from one site of a
//!   *single-rank* (global) field, resolving each hop's coordinate with
//!   periodic wrap as it goes. The plaquette, the heatbath staple sum and
//!   the test oracles use it.
//! * [`LexLinks`] copies one rank's links once into lexicographic
//!   per-direction arrays over its body plus a one-site halo in every
//!   partitioned dimension, with ±µ̂ neighbour tables. The whole-field
//!   builders (asqtad staple recursion on a global field, the clover
//!   leaves on a rank or a global field) index it directly, so a hop
//!   costs a table lookup rather than a coordinate decode.

use crate::field::GaugeField;
use lqcd_comms::Communicator;
use lqcd_field::SiteObject;
use lqcd_lattice::{Dims, Parity, SubLattice, NDIM};
use lqcd_su3::Su3;
use lqcd_util::{Real, Result};
use std::sync::Arc;

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

/// One rank's links in lexicographic order (X fastest, the order of
/// [`Dims::index`]) over a *box*: the rank's body plus a one-site halo on
/// both sides of every partitioned dimension, with ±µ̂ neighbour tables.
/// Unpartitioned dimensions wrap periodically inside the box; a hop out
/// of the box has no neighbour. A single-rank (global) field is the box
/// with no halo.
///
/// The halo is filled by [`GaugeField::exchange_halo`]: one partitioned
/// dimension at a time in ascending µ, each rank sends its low body layer
/// backward and its high body layer forward. A layer spans the full box
/// in the dimensions already exchanged, so edges and corners arrive with
/// the faces and no extra messages are needed.
pub struct LexLinks<R: Real> {
    sub: Arc<SubLattice>,
    /// Box extents.
    dims: Dims,
    /// Halo width per dimension: 1 if partitioned, else 0.
    halo: [usize; NDIM],
    /// `u[µ][i] = U_µ(x_i)`.
    pub(crate) u: [Vec<Su3<R>>; NDIM],
    /// Box index of `x_i ± µ̂`, `usize::MAX` where the hop leaves the box.
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
            "a global build needs a single-rank field (use GaugeField::exchange_halo on a rank)"
        );
        assert_eq!(sub.dims, global, "gauge field does not cover the global lattice");
        Self::with_body(g)
    }

    /// The box around `g`'s body with the body links copied in and the
    /// halo zero until [`LexLinks::exchange`] fills it.
    pub(crate) fn with_body(g: &GaugeField<R>) -> Self {
        let sub = g.sublattice().clone();
        let halo = std::array::from_fn(|mu| usize::from(sub.partitioned[mu]));
        let dims = Dims(std::array::from_fn(|mu| sub.dims.extent(mu) + 2 * halo[mu]));
        let v = dims.volume();
        let mut u: [Vec<Su3<R>>; NDIM] = std::array::from_fn(|_| vec![Su3::zero(); v]);
        for p in Parity::BOTH {
            for (idx, c) in sub.sites(p) {
                let i = dims.index(std::array::from_fn(|d| c[d] + halo[d]));
                for (mu, um) in u.iter_mut().enumerate() {
                    um[i] = g.link(mu, p, idx);
                }
            }
        }
        let table = |mu: usize, step: isize| -> Vec<usize> {
            let e = dims.extent(mu) as isize;
            (0..v)
                .map(|i| {
                    let mut b = dims.coords(i);
                    let t = b[mu] as isize + step;
                    if halo[mu] == 0 {
                        b[mu] = t.rem_euclid(e) as usize;
                    } else if (0..e).contains(&t) {
                        b[mu] = t as usize;
                    } else {
                        return usize::MAX;
                    }
                    dims.index(b)
                })
                .collect()
        };
        Self {
            sub,
            dims,
            halo,
            u,
            fwd: std::array::from_fn(|mu| table(mu, 1)),
            bwd: std::array::from_fn(|mu| table(mu, -1)),
        }
    }

    /// The body's subvolume.
    pub(crate) fn sublattice(&self) -> &Arc<SubLattice> {
        &self.sub
    }

    /// Number of sites in the box (body plus halo).
    pub fn volume(&self) -> usize {
        self.dims.volume()
    }

    /// Index of `x_i + µ̂`.
    #[inline(always)]
    pub(crate) fn up(&self, mu: usize, i: usize) -> usize {
        self.fwd[mu][i]
    }

    /// Index of `x_i − µ̂`.
    #[inline(always)]
    pub(crate) fn dn(&self, mu: usize, i: usize) -> usize {
        self.bwd[mu][i]
    }

    /// The body sites as `(box index, local coordinates)`, in the body's
    /// lexicographic order.
    pub(crate) fn body(&self) -> impl Iterator<Item = (usize, [usize; NDIM])> + '_ {
        (0..self.sub.dims.volume()).map(move |j| {
            let c = self.sub.dims.coords(j);
            (self.dims.index(std::array::from_fn(|d| c[d] + self.halo[d])), c)
        })
    }

    /// Store the body of a lexicographic box field as direction `mu` of
    /// `out`.
    pub(crate) fn scatter(&self, field: &[Su3<R>], mu: usize, out: &mut GaugeField<R>) {
        for (i, c) in self.body() {
            out.set_link(mu, self.sub.parity(c), self.sub.cb_index(c), field[i]);
        }
    }

    /// Fill the halo from the neighbouring ranks: two shifts per
    /// partitioned dimension, in ascending µ (see the type docs).
    pub(crate) fn exchange<C: Communicator>(&mut self, comm: &mut C) -> Result<()> {
        let halo = self.halo;
        for mu in (0..NDIM).filter(|&mu| halo[mu] == 1) {
            let top = self.dims.extent(mu) - 1;
            // The low body layer lands in the −µ neighbour's high halo;
            // ours comes from the +µ neighbour.
            self.shift(comm, mu, false, 1, top)?;
            // The high body layer lands in the +µ neighbour's low halo.
            self.shift(comm, mu, true, top - 1, 0)?;
        }
        Ok(())
    }

    /// Box indices of the layer `x_µ = at` of what is known before the
    /// exchange along µ: the full box in the dimensions below µ, the body
    /// in those above. Sender and receiver enumerate it in the same order.
    fn layer(&self, mu: usize, at: usize) -> Vec<usize> {
        let in_body = |b: &[usize; NDIM], d: usize| {
            (self.halo[d]..self.dims.extent(d) - self.halo[d]).contains(&b[d])
        };
        (0..self.volume())
            .filter(|&i| {
                let b = self.dims.coords(i);
                b[mu] == at && (mu + 1..NDIM).all(|d| in_body(&b, d))
            })
            .collect()
    }

    /// Send layer `from` (all four link directions) toward (`mu`,
    /// `forward`) and store what arrives from the opposite neighbour in
    /// layer `into`.
    fn shift<C: Communicator>(
        &mut self,
        comm: &mut C,
        mu: usize,
        forward: bool,
        from: usize,
        into: usize,
    ) -> Result<()> {
        let reals = <Su3<R> as SiteObject<R>>::REALS;
        let (src, dst) = (self.layer(mu, from), self.layer(mu, into));
        let mut site = vec![R::ZERO; reals];
        let mut send = Vec::with_capacity(src.len() * NDIM * reals);
        for &i in &src {
            for u in &self.u {
                u[i].write(&mut site);
                send.extend(site.iter().map(|x| x.to_f64()));
            }
        }
        let mut recv = vec![0.0f64; send.len()];
        comm.send_recv(mu, forward, &send, &mut recv)?;
        for (&i, links) in dst.iter().zip(recv.chunks_exact(NDIM * reals)) {
            for (u, link) in self.u.iter_mut().zip(links.chunks_exact(reals)) {
                for (s, x) in site.iter_mut().zip(link) {
                    *s = R::from_f64(*x);
                }
                u[i] = Su3::read(&site);
            }
        }
        Ok(())
    }

    /// Copy `U_µ(x − µ̂)` for the body's `x_µ = 0` face from the low halo
    /// into `g`'s backward ghost zones, for every partitioned µ: exactly
    /// what [`GaugeField::exchange_ghosts`] receives.
    pub(crate) fn fill_backward_ghosts(&self, g: &mut GaugeField<R>) {
        assert_eq!(g.depth(), 1, "the extended halo is one layer deep");
        let reals = <Su3<R> as SiteObject<R>>::REALS;
        for mu in (0..NDIM).filter(|&mu| self.halo[mu] == 1) {
            for (i, c) in self.body().filter(|(_, c)| c[mu] == 0) {
                // The link lives on x − µ̂, of the other parity.
                let p = self.sub.parity(c).other();
                let slot = self.sub.face_slot(c, mu);
                let zone = g.links[mu][p.index()].ghost_zone_mut(mu, false);
                self.u[mu][self.dn(mu, i)].write(&mut zone[slot * reals..(slot + 1) * reals]);
            }
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
pub(crate) mod tests {
    use super::*;
    use crate::field::GaugeStart;
    use lqcd_comms::run_on_grid;
    use lqcd_lattice::{FaceGeometry, ProcessGrid};
    use lqcd_util::rng::SeedTree;

    /// `(process grid, global lattice)` pairs of the rank-local checks: one
    /// rank, one, two and three cuts, and 2⁴ ranks on 4⁴, where the halo
    /// is the whole neighbour.
    pub(crate) const GRIDS: [([usize; NDIM], [usize; NDIM]); 5] = [
        ([1, 1, 1, 1], [4, 4, 4, 8]),
        ([1, 1, 1, 2], [4, 4, 4, 8]),
        ([1, 1, 2, 2], [4, 4, 8, 8]),
        ([2, 1, 2, 2], [8, 4, 8, 8]),
        ([2, 2, 2, 2], [4, 4, 4, 4]),
    ];

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

    #[test]
    fn rank_local_halo_holds_the_global_links_at_wrapped_coordinates() {
        for (dims, global) in GRIDS {
            let global = Dims(global);
            let whole = hot_field(global, 5);
            let whole = &whole;
            let gsub = whole.sublattice();
            run_on_grid(ProcessGrid::new(Dims(dims), global).unwrap(), |mut comm| {
                let sub = Arc::new(SubLattice::for_rank(comm.grid(), comm.rank()));
                let faces = FaceGeometry::new(&sub, 1).unwrap();
                let seed = SeedTree::new(5);
                let mut mine = GaugeField::<f64>::generate(
                    sub.clone(),
                    &faces,
                    global,
                    &seed,
                    GaugeStart::Hot,
                );
                let mut ghosts = mine.clone();
                ghosts.exchange_ghosts(&mut comm, &faces).unwrap();
                let l = mine.exchange_halo(&mut comm).unwrap();
                // Every box site: body, faces, edges and corners.
                for i in 0..l.volume() {
                    let b = l.dims.coords(i);
                    let gc: [usize; NDIM] = std::array::from_fn(|d| {
                        (b[d] + sub.origin[d] + global.extent(d) - l.halo[d]) % global.extent(d)
                    });
                    for mu in 0..NDIM {
                        let want = whole.link(mu, gsub.parity(gc), gsub.cb_index(gc));
                        assert_eq!(l.u[mu][i], want, "{dims:?} box site {b:?} µ={mu}");
                    }
                }
                for mu in (0..NDIM).filter(|&mu| sub.partitioned[mu]) {
                    for p in Parity::BOTH {
                        assert_eq!(
                            mine.links[mu][p.index()].ghost_zone(mu, false),
                            ghosts.links[mu][p.index()].ghost_zone(mu, false),
                            "{dims:?} backward ghost µ={mu} {p:?}"
                        );
                    }
                }
            });
        }
    }
}
