//! The 4-direction gauge (link) field.

use crate::paths::LexLinks;
use lqcd_comms::Communicator;
use lqcd_field::{LatticeField, SiteObject};
use lqcd_lattice::{Dims, FaceGeometry, Neighbor, Parity, SubLattice, NDIM};
use lqcd_su3::Su3;
use lqcd_util::rng::SeedTree;
use lqcd_util::{Real, Result};
use std::sync::Arc;

/// How to initialize a gauge field.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum GaugeStart {
    /// All links set to the identity ("cold": free field).
    Cold,
    /// Haar-random links ("hot": maximal disorder).
    Hot,
    /// Links `exp`-close to the identity with spread `eps ∈ [0, 1]` — our
    /// tunable stand-in for ensembles at different couplings.
    Disordered(f64),
}

/// A gauge field on one rank's subvolume: `U_µ(x)` for µ = 0..4, stored
/// per parity with ghost zones (paper Fig. 3).
#[derive(Clone, Debug)]
pub struct GaugeField<R: Real> {
    /// `links[mu][parity]`.
    pub links: [[LatticeField<R, Su3<R>>; 2]; NDIM],
    sub: Arc<SubLattice>,
    depth: usize,
}

impl<R: Real> GaugeField<R> {
    /// Allocate an all-zero field (links must be filled before use).
    pub fn zeros(sub: Arc<SubLattice>, faces: &FaceGeometry, pad: usize) -> Self {
        let make = || {
            [
                LatticeField::zeros(sub.clone(), faces, Parity::Even, pad),
                LatticeField::zeros(sub.clone(), faces, Parity::Odd, pad),
            ]
        };
        Self { links: [make(), make(), make(), make()], sub, depth: faces.depth }
    }

    /// Generate deterministically from a seed. Each link's RNG stream is
    /// keyed on its **global** lexicographic site index and direction, so
    /// any process grid over the same global lattice sees the same
    /// physical field — the property the distributed-equals-serial
    /// operator tests rely on.
    pub fn generate(
        sub: Arc<SubLattice>,
        faces: &FaceGeometry,
        global: Dims,
        seed: &SeedTree,
        start: GaugeStart,
    ) -> Self {
        let mut g = Self::zeros(sub.clone(), faces, 0);
        let tree = seed.child("gauge");
        for mu in 0..NDIM {
            for p in Parity::BOTH {
                let field = &mut g.links[mu][p.index()];
                for (idx, c) in sub.sites(p) {
                    let mut gc = [0usize; NDIM];
                    for d in 0..NDIM {
                        gc[d] = c[d] + sub.origin[d];
                    }
                    let key = (global.index(gc) * NDIM + mu) as u64;
                    let mut rng = tree.stream(key);
                    let u = match start {
                        GaugeStart::Cold => Su3::identity(),
                        GaugeStart::Hot => Su3::random(&mut rng),
                        GaugeStart::Disordered(eps) => Su3::random_near_identity(&mut rng, eps),
                    };
                    field.set_site(idx, u);
                }
            }
        }
        g
    }

    /// The subvolume this field lives on.
    pub fn sublattice(&self) -> &Arc<SubLattice> {
        &self.sub
    }

    /// Ghost-zone depth the field was allocated with.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Read link `U_µ` at a body site of parity `p`.
    #[inline(always)]
    pub fn link(&self, mu: usize, p: Parity, idx: usize) -> Su3<R> {
        self.links[mu][p.index()].site(idx)
    }

    /// Write link `U_µ`.
    #[inline(always)]
    pub fn set_link(&mut self, mu: usize, p: Parity, idx: usize, u: Su3<R>) {
        self.links[mu][p.index()].set_site(idx, u);
    }

    /// Read a link resolved through [`SubLattice::neighbor`]: interior
    /// links come from the body, ghost links from the (previously
    /// exchanged) ghost zone of the same direction.
    #[inline(always)]
    pub fn link_resolved(&self, mu: usize, p: Parity, n: Neighbor) -> Su3<R> {
        match n {
            Neighbor::Interior { idx } => self.link(mu, p, idx),
            Neighbor::Ghost { mu: gmu, forward, offset } => {
                self.links[mu][p.index()].ghost(gmu, forward, offset)
            }
        }
    }

    /// Exchange gauge ghost zones: for every partitioned dimension µ, send
    /// the *high* face of `U_µ` forward so each rank's backward ghost
    /// holds its −µ neighbour's edge links. (Only backward gauge ghosts
    /// are ever read: the forward hop uses the local `U_µ(x)`, the
    /// backward hop `U_µ(x−µ̂)`.) Done once per solve, per §6.1.
    pub fn exchange_ghosts<C: Communicator>(
        &mut self,
        comm: &mut C,
        faces: &FaceGeometry,
    ) -> Result<()> {
        let reals = <Su3<R> as SiteObject<R>>::REALS;
        for mu in 0..NDIM {
            if !self.sub.partitioned[mu] {
                continue;
            }
            for p in Parity::BOTH {
                let table = faces.high_face(mu, p);
                let mut send = vec![R::ZERO; table.len() * reals];
                self.links[mu][p.index()].gather(table, &mut send);
                let send64: Vec<f64> = send.iter().map(|x| x.to_f64()).collect();
                let mut recv64 = vec![0.0f64; send64.len()];
                comm.send_recv(mu, true, &send64, &mut recv64)?;
                let zone = self.links[mu][p.index()].ghost_zone_mut(mu, false);
                for (z, v) in zone.iter_mut().zip(&recv64) {
                    *z = R::from_f64(*v);
                }
            }
        }
        Ok(())
    }

    /// Exchange the depth-1 extended halo with the neighbouring ranks and
    /// return the rank's [`LexLinks`] box, the input of the rank-local
    /// clover build. The same two messages per partitioned dimension also
    /// fill this field's backward ghosts, bit-identical to
    /// [`GaugeField::exchange_ghosts`]. Panics unless the field has
    /// depth-1 ghost zones.
    pub fn exchange_halo<C: Communicator>(&mut self, comm: &mut C) -> Result<LexLinks<R>> {
        let mut links = LexLinks::with_body(self);
        links.exchange(comm)?;
        links.fill_backward_ghosts(self);
        Ok(links)
    }

    /// Convert the whole field (bodies and ghost zones) to another
    /// precision — used to instantiate lower-precision operators for the
    /// mixed-precision solvers.
    pub fn cast<R2: Real>(&self) -> GaugeField<R2>
    where
        Su3<R>: lqcd_field::CastSite<R, R2> + lqcd_field::CastSiteAny<R2, Target = Su3<R2>>,
    {
        let mk =
            |mu: usize| [self.links[mu][0].cast_all::<R2>(), self.links[mu][1].cast_all::<R2>()];
        GaugeField { links: [mk(0), mk(1), mk(2), mk(3)], sub: self.sub.clone(), depth: self.depth }
    }

    /// Restrict a *global* (single-rank) field to this rank's subvolume,
    /// filling both body and the backward gauge ghosts directly (no
    /// communication; used for precomputed smeared links — see module
    /// docs).
    pub fn restrict_from_global(
        global_field: &GaugeField<R>,
        sub: Arc<SubLattice>,
        faces: &FaceGeometry,
        global: Dims,
    ) -> Self {
        let gsub = global_field.sublattice();
        assert!(
            gsub.partitioned.iter().all(|&x| !x),
            "source of a restriction must be a single-rank field"
        );
        assert_eq!(gsub.dims, global, "global field does not cover the global lattice");
        let mut out = Self::zeros(sub.clone(), faces, 0);
        out.depth = faces.depth;
        let lookup = |gc: [usize; NDIM], mu: usize| -> Su3<R> {
            let p = gsub.parity(gc);
            global_field.link(mu, p, gsub.cb_index(gc))
        };
        for mu in 0..NDIM {
            for p in Parity::BOTH {
                // Body.
                let mut staged: Vec<(usize, Su3<R>)> = Vec::with_capacity(sub.volume_cb());
                for (idx, c) in sub.sites(p) {
                    let mut gc = [0usize; NDIM];
                    for d in 0..NDIM {
                        gc[d] = c[d] + sub.origin[d];
                    }
                    staged.push((idx, lookup(gc, mu)));
                }
                for (idx, u) in staged {
                    out.links[mu][p.index()].set_site(idx, u);
                }
                // Backward ghost along µ: the −µ neighbour's high face.
                // The −µ neighbour has identical local dims, so *our* own
                // high-face gather table enumerates exactly the ghost
                // order; translate each entry by the neighbour's origin
                // (ours shifted −L in µ, with global wrap).
                if sub.partitioned[mu] {
                    let l = sub.dims.extent(mu) as isize;
                    let reals = <Su3<R> as SiteObject<R>>::REALS;
                    let table = faces.high_face(mu, p);
                    let mut ghost_vals = vec![R::ZERO; table.len() * reals];
                    for (k, &scb) in table.iter().enumerate() {
                        let sc = sub.cb_coords(p, scb as usize);
                        let mut gc = [0usize; NDIM];
                        for d in 0..NDIM {
                            gc[d] = sc[d] + sub.origin[d];
                        }
                        let gc = global.displace(gc, mu, -l);
                        let u = lookup(gc, mu);
                        u.write(&mut ghost_vals[k * reals..(k + 1) * reals]);
                    }
                    let zone = out.links[mu][p.index()].ghost_zone_mut(mu, false);
                    zone.copy_from_slice(&ghost_vals);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqcd_lattice::ProcessGrid;

    fn single(global: Dims) -> (Arc<SubLattice>, FaceGeometry) {
        let sub = Arc::new(SubLattice::single(global).unwrap());
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        (sub, faces)
    }

    #[test]
    fn cold_start_is_identity() {
        let global = Dims([4, 4, 4, 4]);
        let (sub, faces) = single(global);
        let g =
            GaugeField::<f64>::generate(sub, &faces, global, &SeedTree::new(1), GaugeStart::Cold);
        for mu in 0..4 {
            for p in Parity::BOTH {
                for idx in 0..g.links[mu][p.index()].num_sites() {
                    assert_eq!(g.link(mu, p, idx), Su3::identity());
                }
            }
        }
    }

    #[test]
    fn hot_start_links_are_unitary_and_seed_stable() {
        let global = Dims([4, 4, 4, 4]);
        let (sub, faces) = single(global);
        let g1 = GaugeField::<f64>::generate(
            sub.clone(),
            &faces,
            global,
            &SeedTree::new(7),
            GaugeStart::Hot,
        );
        let g2 =
            GaugeField::<f64>::generate(sub, &faces, global, &SeedTree::new(7), GaugeStart::Hot);
        for mu in 0..4 {
            for p in Parity::BOTH {
                for idx in 0..g1.links[mu][p.index()].num_sites() {
                    let u = g1.link(mu, p, idx);
                    assert!(u.unitarity_error() < 1e-12);
                    assert_eq!(u, g2.link(mu, p, idx), "same seed must reproduce");
                }
            }
        }
    }

    #[test]
    fn generation_is_partition_invariant() {
        // The same (seed, global lattice) generated on a 1-rank grid and
        // on each rank of a 2x2 grid must agree link-by-link.
        let global = Dims([4, 4, 8, 8]);
        let seed = SeedTree::new(42);
        let (gsub, gfaces) = single(global);
        let whole =
            GaugeField::<f64>::generate(gsub.clone(), &gfaces, global, &seed, GaugeStart::Hot);
        let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), global).unwrap();
        for rank in 0..grid.num_ranks() {
            let sub = Arc::new(SubLattice::for_rank(&grid, rank));
            let faces = FaceGeometry::new(&sub, 1).unwrap();
            let local =
                GaugeField::<f64>::generate(sub.clone(), &faces, global, &seed, GaugeStart::Hot);
            for mu in 0..4 {
                for p in Parity::BOTH {
                    for (idx, c) in sub.sites(p) {
                        let mut gc = [0usize; 4];
                        for d in 0..4 {
                            gc[d] = c[d] + sub.origin[d];
                        }
                        let want = whole.link(mu, gsub.parity(gc), gsub.cb_index(gc));
                        assert_eq!(local.link(mu, p, idx), want, "rank {rank} µ={mu} {c:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn restriction_fills_backward_ghosts_correctly() {
        let global = Dims([4, 4, 8, 8]);
        let seed = SeedTree::new(3);
        let (gsub, gfaces) = single(global);
        let whole =
            GaugeField::<f64>::generate(gsub.clone(), &gfaces, global, &seed, GaugeStart::Hot);
        let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), global).unwrap();
        for rank in 0..grid.num_ranks() {
            let sub = Arc::new(SubLattice::for_rank(&grid, rank));
            let faces = FaceGeometry::new(&sub, 1).unwrap();
            let local = GaugeField::restrict_from_global(&whole, sub.clone(), &faces, global);
            // Every backward hop from an x_µ = 0 site must see the link the
            // global field holds at the wrapped coordinate.
            for p in Parity::BOTH {
                for (_, c) in sub.sites(p) {
                    for mu in 2..4 {
                        if c[mu] != 0 {
                            continue;
                        }
                        let hop = sub.neighbor(c, mu, -1, 1);
                        let Neighbor::Ghost { .. } = hop else { panic!("expected ghost") };
                        // Link parity is the parity of the *neighbour* site.
                        let got = local.link_resolved(mu, p.other(), hop);
                        let mut gc = [0usize; 4];
                        for d in 0..4 {
                            gc[d] = c[d] + sub.origin[d];
                        }
                        let ggc = global.displace(gc, mu, -1);
                        let want = whole.link(mu, gsub.parity(ggc), gsub.cb_index(ggc));
                        assert_eq!(got, want, "rank {rank} µ={mu} {c:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn comm_exchange_matches_restriction() {
        use lqcd_comms::run_on_grid;
        let global = Dims([4, 4, 8, 8]);
        let seed = SeedTree::new(11);
        let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), global).unwrap();
        let (gsub, gfaces) = single(global);
        let whole =
            GaugeField::<f64>::generate(gsub.clone(), &gfaces, global, &seed, GaugeStart::Hot);
        let grid2 = grid.clone();
        let whole_ref = &whole;
        let ok = run_on_grid(grid.clone(), move |mut comm| {
            let sub = Arc::new(SubLattice::for_rank(&grid2, comm.rank()));
            let faces = FaceGeometry::new(&sub, 1).unwrap();
            // Generate per rank, then exchange ghosts over comms.
            let mut mine =
                GaugeField::<f64>::generate(sub.clone(), &faces, global, &seed, GaugeStart::Hot);
            mine.exchange_ghosts(&mut comm, &faces).unwrap();
            // Compare against the no-comm restriction.
            let reference =
                GaugeField::restrict_from_global(whole_ref, sub.clone(), &faces, global);
            let mut same = true;
            for mu in 2..4 {
                for p in Parity::BOTH {
                    let a = mine.links[mu][p.index()].ghost_zone(mu, false);
                    let b = reference.links[mu][p.index()].ghost_zone(mu, false);
                    same &= a == b;
                }
            }
            same
        });
        assert!(ok.iter().all(|&x| x));
    }
}
