//! Per-site kernels of the asqtad operator.
//!
//! The interior and the exteriors are written once over [`SiteKernels`].
//! [`Generic`] is the typed per-site code: every precision and
//! architecture. [`Simd`](simd::Simd) (x86_64, f64) runs the
//! bit-identical colour hops of `lqcd_su3::kernels` on flat reals. Its
//! interior runs at the width the operator picked (`Width::detect`):
//! consecutive sites go in groups of `W::SITES` when their sixteen hops
//! agree in which are interior and their phases agree, and the rest one
//! by one. The exteriors run one site per call. Both kernel sets read the
//! sixteen hops and the phases of a site from the operator's depth-3
//! [`NeighborTable`] and keep one hop order: per µ, fat `+1`, fat `−1`,
//! long `+3`, long `−3`. The exteriors read the ghost offsets from the
//! same table, since at depth 3 a face-list position is not a ghost slot.

use super::{StaggeredField, StaggeredOp};
#[cfg(target_arch = "x86_64")]
use crate::dispatch::{site, site_mut};
use lqcd_field::{BodyView, SiteObject};
#[cfg(target_arch = "x86_64")]
use lqcd_gauge::GaugeField;
use lqcd_lattice::{NeighborTable, Parity, NDIM};
use lqcd_su3::ColorVector;
use lqcd_util::Real;

/// Hop entries per site in the depth-3 table: `+1, −1, +3, −3` per µ.
const HOPS: usize = 4 * NDIM;

/// The site kernels one apply runs (see the module docs).
pub(super) trait SiteKernels<R: Real>: Copy + Send + Sync {
    /// Interior hops of sites `lo_site ..` written to `out_chunk`.
    fn interior(
        self,
        op: &StaggeredOp<R>,
        out_chunk: &mut [R],
        lo_site: usize,
        src: BodyView<'_, R, ColorVector<R>>,
        out_parity: Parity,
        src_parity: Parity,
    );

    /// Ghost hops across dimension `mu`, added to the face sites of `out`.
    fn exterior(
        self,
        op: &StaggeredOp<R>,
        out: &mut StaggeredField<R>,
        src: &StaggeredField<R>,
        mu: usize,
    );
}

/// The sites of parity `p` with a ghost hop across `mu`, each once: the
/// low face list, then the high face list past the layers the low list
/// already holds (the two overlap on ranks thinner than twice the depth).
fn face_sites<R: Real>(
    op: &StaggeredOp<R>,
    p: Parity,
    mu: usize,
) -> impl Iterator<Item = usize> + '_ {
    let faces = &op.faces;
    let shared = (2 * faces.depth).saturating_sub(op.sub.dims.extent(mu)) * faces.face_vol_cb(mu);
    let high = &faces.high_face(mu, p)[shared..];
    faces.low_face(mu, p).iter().chain(high).map(|&cb| cb as usize)
}

/// `η_µ` from a site's phase mask.
#[inline(always)]
fn eta<R: Real>(mask: u8, mu: usize) -> R {
    if mask >> mu & 1 == 1 {
        -R::ONE
    } else {
        R::ONE
    }
}

/// The typed per-site code.
#[derive(Clone, Copy)]
pub(super) struct Generic;

impl<R: Real> SiteKernels<R> for Generic {
    fn interior(
        self,
        op: &StaggeredOp<R>,
        out_chunk: &mut [R],
        lo_site: usize,
        src: BodyView<'_, R, ColorVector<R>>,
        out_parity: Parity,
        src_parity: Parity,
    ) {
        let reals = <ColorVector<R> as SiteObject<R>>::REALS;
        for (k, slot) in out_chunk.chunks_exact_mut(reals).enumerate() {
            let idx = lo_site + k;
            let hops = op.nbrs.hops::<HOPS>(out_parity, idx);
            let mask = op.nbrs.eta(out_parity, idx);
            let mut acc = ColorVector::zero();
            for mu in 0..NDIM {
                let eta = eta::<R>(mask, mu);
                for (e, links) in [(4 * mu, &op.fat), (4 * mu + 2, &op.long)] {
                    // Forward: U_µ(x) ψ(x + dµ̂).
                    if let Some(n) = NeighborTable::interior(hops[e]) {
                        let v = links.link(mu, out_parity, idx).mul_vec(&src.site(n));
                        acc = acc.add(&v.scale(eta));
                    }
                    // Backward: −U†_µ(x − dµ̂) ψ(x − dµ̂), the link at the
                    // neighbour (of the source parity: d is odd).
                    if let Some(n) = NeighborTable::interior(hops[e + 1]) {
                        let v =
                            links.link(mu, src_parity, n).adj_mul_vec(&src.site(n)).scale(-R::ONE);
                        acc = acc.add(&v.scale(eta));
                    }
                }
            }
            acc.write(slot);
        }
    }

    fn exterior(
        self,
        op: &StaggeredOp<R>,
        out: &mut StaggeredField<R>,
        src: &StaggeredField<R>,
        mu: usize,
    ) {
        let (out_parity, src_parity) = (out.parity(), src.parity());
        for idx in face_sites(op, out_parity, mu) {
            let hops = op.nbrs.hops::<HOPS>(out_parity, idx);
            let eta = eta::<R>(op.nbrs.eta(out_parity, idx), mu);
            let mut acc = out.site(idx);
            for (e, links) in [(4 * mu, &op.fat), (4 * mu + 2, &op.long)] {
                // Forward hops read the forward ghost with the local link;
                // backward hops the backward ghost with its ghost link.
                if let Some(g) = NeighborTable::ghost(hops[e]) {
                    let v = links.link(mu, out_parity, idx).mul_vec(&src.ghost(mu, true, g));
                    acc = acc.add(&v.scale(eta));
                }
                if let Some(g) = NeighborTable::ghost(hops[e + 1]) {
                    let u = links.links[mu][src_parity.index()].ghost(mu, false, g);
                    let v = u.adj_mul_vec(&src.ghost(mu, false, g)).scale(-R::ONE);
                    acc = acc.add(&v.scale(eta));
                }
            }
            out.set_site(idx, acc);
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(super) use simd::fast;

/// The SIMD kernels (x86_64, f64).
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::*;
    use crate::dispatch::{group_site, same_hop_mask};
    use lqcd_su3::kernels::{ColorAcc, LaneWidth, Sse2, Width, WidthLoop};

    /// The SIMD kernels at one lane width.
    #[derive(Clone, Copy)]
    pub(in crate::staggered) struct Simd(Width);

    /// The SIMD kernels at the operator's width.
    pub(in crate::staggered) fn fast(op: &StaggeredOp<f64>) -> Simd {
        Simd(op.width)
    }

    impl SiteKernels<f64> for Simd {
        fn interior(
            self,
            op: &StaggeredOp<f64>,
            out_chunk: &mut [f64],
            lo_site: usize,
            src: BodyView<'_, f64, ColorVector<f64>>,
            out_parity: Parity,
            src_parity: Parity,
        ) {
            let psi = src.reals();
            self.0.run(Interior { op, out: out_chunk, lo_site, psi, out_parity, src_parity })
        }

        fn exterior(
            self,
            op: &StaggeredOp<f64>,
            out: &mut StaggeredField<f64>,
            src: &StaggeredField<f64>,
            mu: usize,
        ) {
            let (out_parity, src_parity) = (out.parity(), src.parity());
            let (fwd, bwd) = (src.ghost_zone(mu, true), src.ghost_zone(mu, false));
            // Per link field: the local links and the backward ghost links.
            let (po, ps) = (out_parity.index(), src_parity.index());
            let fat = (op.fat.links[mu][po].body(), op.fat.links[mu][ps].ghost_zone(mu, false));
            let long = (op.long.links[mu][po].body(), op.long.links[mu][ps].ghost_zone(mu, false));
            let body = out.body_mut();
            for idx in face_sites(op, out_parity, mu) {
                let hops = op.nbrs.hops::<HOPS>(out_parity, idx);
                let neg = op.nbrs.eta(out_parity, idx) >> mu & 1 == 1;
                let o = site_mut(body, idx);
                let mut acc = ColorAcc::load(Sse2, [&*o]);
                for (e, (local, ghost)) in [(4 * mu, fat), (4 * mu + 2, long)] {
                    if let Some(g) = NeighborTable::ghost(hops[e]) {
                        acc.hop(false, neg, [site(fwd, g)], [site(local, idx)]);
                    }
                    if let Some(g) = NeighborTable::ghost(hops[e + 1]) {
                        acc.hop(true, !neg, [site(bwd, g)], [site(ghost, g)]);
                    }
                }
                acc.store([o]);
            }
        }
    }

    /// One link field's bodies per direction, at the output parity (the
    /// forward hops' links) and at the source parity (the backward ones').
    #[derive(Clone, Copy)]
    struct Links<'a> {
        out: [&'a [f64]; NDIM],
        src: [&'a [f64]; NDIM],
    }

    impl<'a> Links<'a> {
        fn new(links: &'a GaugeField<f64>, out: Parity, src: Parity) -> Self {
            let body = |p: Parity, mu: usize| links.links[mu][p.index()].body();
            Links {
                out: std::array::from_fn(|mu| body(out, mu)),
                src: std::array::from_fn(|mu| body(src, mu)),
            }
        }
    }

    /// The interior hops of the sites `lo_site ..` whose outputs `out` holds.
    struct Interior<'a> {
        op: &'a StaggeredOp<f64>,
        out: &'a mut [f64],
        lo_site: usize,
        psi: &'a [f64],
        out_parity: Parity,
        src_parity: Parity,
    }

    impl WidthLoop for Interior<'_> {
        type Output = ();

        #[inline(always)]
        fn run<W: LaneWidth>(self, w: W) {
            let Interior { op, out, lo_site, psi, out_parity, src_parity } = self;
            let fat = Links::new(&op.fat, out_parity, src_parity);
            let long = Links::new(&op.long, out_parity, src_parity);
            let hops = |idx| op.nbrs.hops::<HOPS>(out_parity, idx);
            let eta = |idx| op.nbrs.eta(out_parity, idx);
            let sites = out.len() / 6;
            let mut k = 0;
            while k < sites {
                let idx = lo_site + k;
                // A group needs one hop mask and one η mask: every site
                // takes the same hops with the same signs.
                let group = k + W::SITES <= sites
                    && (1..W::SITES).all(|j| {
                        eta(idx) == eta(idx + j) && same_hop_mask(hops(idx), hops(idx + j))
                    });
                if group {
                    let out = &mut out[6 * k..6 * (k + W::SITES)];
                    let hops = W::sites(|j| hops(idx + j));
                    hop_sites(w, hops, eta(idx), idx, psi, fat, long, out);
                    k += W::SITES;
                } else {
                    let out = &mut out[6 * k..6 * (k + 1)];
                    hop_sites(Sse2, [hops(idx)], eta(idx), idx, psi, fat, long, out);
                    k += 1;
                }
            }
        }
    }

    /// The interior hops of the `W::SITES` sites `idx ..` (one hop mask and
    /// one η mask `eta`), summed from zero into `out`. Per µ: fat `+1`,
    /// fat `−1`, long `+3`, long `−3`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn hop_sites<W: LaneWidth>(
        w: W,
        hops: W::Sites<&[u32; HOPS]>,
        eta: u8,
        idx: usize,
        psi: &[f64],
        fat: Links<'_>,
        long: Links<'_>,
        out: &mut [f64],
    ) {
        let mut acc = ColorAcc::zero(w);
        for mu in 0..NDIM {
            // η_µ = −1 subtracts a forward hop and adds a backward one.
            let neg = eta >> mu & 1 == 1;
            for (e, links) in [(4 * mu, fat), (4 * mu + 2, long)] {
                // Forward: U_µ(x) ψ(x + dµ̂).
                if NeighborTable::interior(hops[0][e]).is_some() {
                    let n = W::sites(|k| group_site(hops[k][e]));
                    let (v, u) =
                        (W::sites(|k| site(psi, n[k])), W::sites(|k| site(links.out[mu], idx + k)));
                    acc.hop(false, neg, v, u);
                }
                // Backward: −U†_µ(x − dµ̂) ψ(x − dµ̂), the link at the
                // neighbour (of the source parity: d is odd).
                if NeighborTable::interior(hops[0][e + 1]).is_some() {
                    let n = W::sites(|k| group_site(hops[k][e + 1]));
                    let (v, u) =
                        (W::sites(|k| site(psi, n[k])), W::sites(|k| site(links.src[mu], n[k])));
                    acc.hop(true, !neg, v, u);
                }
            }
        }
        acc.store(W::split_mut(out));
    }
}
