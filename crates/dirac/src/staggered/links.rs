//! The asqtad operator's link store.
//!
//! A [`StaggeredLinks`] holds one link field (fat or long) of one rank.
//! Each (µ, parity) body is stored *lane-major*: consecutive checkerboard
//! sites go in groups of [`LANES`], and a group of sites with `N` reals
//! each holds real `r` of lane `k` at `LANES·r + k`, so one SIMD load
//! reads one real of four sites. The backward ghost zones stay
//! site-major, as the exteriors read them. A body of even extents holds
//! a multiple of eight sites per parity, so every group is whole.

use lqcd_gauge::GaugeField;
use lqcd_lattice::Parity;
use lqcd_su3::Su3;
use lqcd_util::Real;

/// Sites per lane-major group, whatever the lane width.
pub(crate) const LANES: usize = 4;

/// Site `s`'s real `r` in a lane-major body of `n` reals per site.
#[inline(always)]
fn lane_index(n: usize, s: usize, r: usize) -> usize {
    n * (s - s % LANES) + LANES * r + s % LANES
}

/// Copy the site-major body `sites` (`N` reals per site) into `lanes`,
/// lane-major.
fn to_lanes<R: Copy, const N: usize>(sites: &[R], lanes: &mut [R]) {
    assert!(sites.len() == lanes.len() && sites.len().is_multiple_of(N * LANES), "whole groups");
    for (src, dst) in sites.chunks_exact(N * LANES).zip(lanes.chunks_exact_mut(N * LANES)) {
        for (k, site) in src.chunks_exact(N).enumerate() {
            for (r, &x) in site.iter().enumerate() {
                dst[LANES * r + k] = x;
            }
        }
    }
}

/// The inverse of [`to_lanes`].
#[cfg(test)]
fn from_lanes<R: Copy, const N: usize>(lanes: &[R], sites: &mut [R]) {
    assert!(sites.len() == lanes.len() && sites.len().is_multiple_of(N * LANES), "whole groups");
    for (src, dst) in lanes.chunks_exact(N * LANES).zip(sites.chunks_exact_mut(N * LANES)) {
        for (k, site) in dst.chunks_exact_mut(N).enumerate() {
            for (r, x) in site.iter_mut().enumerate() {
                *x = src[LANES * r + k];
            }
        }
    }
}

/// One link field of the asqtad operator with lane-major bodies (see the
/// module docs). It is the operator's only copy of those links.
#[derive(Clone, Debug)]
pub(crate) struct StaggeredLinks<R: Real>(
    /// Bodies lane-major, ghost zones site-major: read it only here.
    GaugeField<R>,
);

impl<R: Real> StaggeredLinks<R> {
    /// Take `field` and convert its bodies in place, one (µ, parity) at
    /// a time, so the conversion holds one site-major body besides.
    pub(crate) fn new(mut field: GaugeField<R>) -> Self {
        let mut sites = Vec::new();
        for links in field.links.iter_mut().flatten() {
            let body = links.body_mut();
            sites.clear();
            sites.extend_from_slice(body);
            to_lanes::<R, 18>(&sites, body);
        }
        StaggeredLinks(field)
    }

    /// The link `U_µ` at body site `idx` of parity `p`.
    #[inline(always)]
    pub(crate) fn link(&self, mu: usize, p: Parity, idx: usize) -> Su3<R> {
        let body = self.body(mu, p);
        Su3::from_reals(&std::array::from_fn(|r| body[lane_index(18, idx, r)]))
    }

    /// The lane-major body of `U_µ` at parity `p`.
    #[inline(always)]
    pub(crate) fn body(&self, mu: usize, p: Parity) -> &[R] {
        self.0.links[mu][p.index()].body()
    }

    /// The backward ghost zone of `U_µ` at parity `p` across dimension
    /// µ, site-major (the only ghost links the stencil reads).
    #[inline(always)]
    pub(crate) fn ghost_zone(&self, mu: usize, p: Parity) -> &[R] {
        self.0.links[mu][p.index()].ghost_zone(mu, false)
    }

    /// Ghost link `g` of [`StaggeredLinks::ghost_zone`].
    #[inline(always)]
    pub(crate) fn ghost(&self, mu: usize, p: Parity, g: usize) -> Su3<R> {
        self.0.links[mu][p.index()].ghost(mu, false, g)
    }

    /// The links as the site-major field they were built from, bit for
    /// bit, bodies and ghost zones.
    #[cfg(test)]
    pub(crate) fn to_gauge(&self) -> GaugeField<R> {
        let mut field = self.0.clone();
        for (mu, links) in field.links.iter_mut().enumerate() {
            for p in Parity::BOTH {
                from_lanes::<R, 18>(self.body(mu, p), links[p.index()].body_mut());
            }
        }
        field
    }

    /// The store at precision `R2`, cast elementwise (a lane-major body
    /// stays lane-major).
    pub(crate) fn cast<R2: Real>(&self) -> StaggeredLinks<R2>
    where
        Su3<R>: lqcd_field::CastSite<R, R2> + lqcd_field::CastSiteAny<R2, Target = Su3<R2>>,
    {
        StaggeredLinks(self.0.cast())
    }

    /// Every (µ, parity) field, bodies lane-major.
    #[cfg(test)]
    pub(crate) fn fields(&self) -> impl Iterator<Item = &lqcd_field::LatticeField<R, Su3<R>>> {
        self.0.links.iter().flatten()
    }
}
