//! Per-site kernels of the asqtad operator.
//!
//! The interior and the exteriors are written once over [`SiteKernels`].
//! [`Generic`] is the typed per-site code: every precision and
//! architecture. [`Simd`](simd::Simd) (x86_64, f64) runs the
//! bit-identical colour hops of `lqcd_su3::kernels` on flat reals. Its
//! interior is lane-major: each apply first copies the source body into
//! lane-major groups of four sites (`stage`), and one `LaneAcc` call
//! then runs one hop for the four sites of a group, at the width the
//! operator picked (`Width::detect`). Where a group's neighbours are one
//! source group, as is, or with its lanes rotated, the hop loads whole
//! registers; otherwise it reads its lanes one by one, and lanes whose
//! hop is a ghost keep their sums. [`GroupHops`], built once per
//! operator, says which case each hop of each group is. The SIMD
//! exteriors also run the four sites of a group per call: they load the
//! group's partial sums, read the ghost spinors and ghost links site by
//! site, and keep the lanes without a ghost hop out of it. [`Generic`]
//! runs one site per call. Both kernel sets read the sixteen hops and the
//! phases of a site from the operator's depth-3 [`NeighborTable`] and
//! keep one hop order: per µ, fat `+1`, fat `−1`, long `+3`, long `−3`.
//! The exteriors read the ghost offsets from the same table, since at
//! depth 3 a face-list position is not a ghost slot.

use super::{StaggeredField, StaggeredOp};
use lqcd_field::{BodyView, SiteObject};
use lqcd_lattice::{NeighborTable, Parity, NDIM};
use lqcd_su3::ColorVector;
use lqcd_util::Real;

/// Hop entries per site in the depth-3 table: `+1, −1, +3, −3` per µ.
const HOPS: usize = 4 * NDIM;

/// The site kernels one apply runs (see the module docs).
pub(super) trait SiteKernels<R: Real>: Copy + Send + Sync {
    /// Copy the source body into the form the interior reads, before the
    /// interior runs.
    fn stage(self, _src: &[R], _staged: &mut Vec<R>) {}

    /// Interior hops of sites `lo_site ..` written to `out_chunk`;
    /// `staged` is what [`SiteKernels::stage`] left.
    #[allow(clippy::too_many_arguments)]
    fn interior(
        self,
        op: &StaggeredOp<R>,
        out_chunk: &mut [R],
        lo_site: usize,
        src: BodyView<'_, R, ColorVector<R>>,
        staged: &[R],
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
        _staged: &[R],
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
                    let u = links.ghost(mu, src_parity, g);
                    let v = u.adj_mul_vec(&src.ghost(mu, false, g)).scale(-R::ONE);
                    acc = acc.add(&v.scale(eta));
                }
            }
            out.set_site(idx, acc);
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(super) use simd::{fast, GroupHops};

/// The SIMD kernels (x86_64, f64).
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::*;
    use crate::staggered::links::{StaggeredLinks, LANES};
    use lqcd_su3::kernels::{LaneAcc, LaneWidth, Lanes, Width, WidthLoop};

    /// How the four lanes of each lane-major group of one parity take each
    /// of the sixteen hops, from the [`NeighborTable`] (see the module docs).
    /// Built once per operator; the SIMD interior reads it instead of
    /// comparing the lanes' hops on every apply.
    #[derive(Debug)]
    pub(in crate::staggered) struct GroupHops {
        /// `hops[parity]`: [`HOPS`] entries per group, each [`GroupHops::SKIP`],
        /// [`GroupHops::PER_LANE`], or `src_group << 2 | rot` when lane `k`
        /// reads lane `(k + rot) % 4` of source group `src_group`.
        hops: [Vec<u32>; 2],
        /// `neg[parity]`: per group and µ, bit `k` set where lane `k` has
        /// `η_µ = −1`.
        neg: [Vec<[u8; NDIM]>; 2],
    }

    impl GroupHops {
        /// Every lane's hop is a ghost: the interior skips it.
        pub(in crate::staggered) const SKIP: u32 = u32::MAX;
        /// The lanes read their own sites from the [`NeighborTable`].
        pub(in crate::staggered) const PER_LANE: u32 = u32::MAX - 1;

        pub(in crate::staggered) fn new(nbrs: &NeighborTable, volume_cb: usize) -> Self {
            let groups = volume_cb / LANES;
            let hops = |p: Parity| -> Vec<u32> {
                let mut out = Vec::with_capacity(groups * HOPS);
                for g in 0..groups {
                    for e in 0..HOPS {
                        let entry = |k: usize| nbrs.hops::<HOPS>(p, LANES * g + k)[e];
                        let first = NeighborTable::interior(entry(0));
                        let rotated = first.filter(|&n| {
                            (0..LANES).all(|k| entry(k) as usize == n - n % LANES + (n + k) % LANES)
                        });
                        out.push(match rotated {
                            Some(n) => (((n / LANES) << 2) | (n % LANES)) as u32,
                            None if (0..LANES)
                                .all(|k| NeighborTable::ghost(entry(k)).is_some()) =>
                            {
                                Self::SKIP
                            }
                            None => Self::PER_LANE,
                        });
                    }
                }
                out
            };
            let neg = |p: Parity| -> Vec<[u8; NDIM]> {
                (0..groups)
                    .map(|g| {
                        std::array::from_fn(|mu| {
                            (0..LANES)
                                .fold(0, |m, k| m | (nbrs.eta(p, LANES * g + k) >> mu & 1) << k)
                        })
                    })
                    .collect()
            };
            GroupHops {
                hops: [hops(Parity::Even), hops(Parity::Odd)],
                neg: [neg(Parity::Even), neg(Parity::Odd)],
            }
        }

        /// The hop kinds of group `g` of parity `p`.
        #[inline(always)]
        pub(in crate::staggered) fn hops(&self, p: Parity, g: usize) -> &[u32; HOPS] {
            self.hops[p.index()][HOPS * g..].first_chunk().expect("group index inside the table")
        }

        /// The per-lane `η_µ` sign bits of group `g` of parity `p`.
        #[inline(always)]
        pub(in crate::staggered) fn neg(&self, p: Parity, g: usize) -> [u8; NDIM] {
            self.neg[p.index()][g]
        }
    }

    /// The SIMD kernels at one lane width.
    #[derive(Clone, Copy)]
    pub(in crate::staggered) struct Simd(Width);

    /// The SIMD kernels at the operator's width.
    pub(in crate::staggered) fn fast(op: &StaggeredOp<f64>) -> Simd {
        Simd(op.width)
    }

    impl SiteKernels<f64> for Simd {
        fn stage(self, src: &[f64], staged: &mut Vec<f64>) {
            staged.resize(src.len(), 0.0);
            self.0.run(Stage { src, staged })
        }

        fn interior(
            self,
            op: &StaggeredOp<f64>,
            out_chunk: &mut [f64],
            lo_site: usize,
            _src: BodyView<'_, f64, ColorVector<f64>>,
            staged: &[f64],
            out_parity: Parity,
            src_parity: Parity,
        ) {
            let psi = staged;
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
            let out = out.body_mut();
            self.0.run(Exterior { op, out, fwd, bwd, mu, out_parity, src_parity })
        }
    }

    /// Lane-major group `g` of a body of `M / 4` reals per site.
    #[inline(always)]
    fn group<const M: usize>(body: &[f64], g: usize) -> &[f64; M] {
        body[M * g..].first_chunk().expect("group index inside the body")
    }

    /// Where the lanes of one hop of one group read.
    #[derive(Clone, Copy)]
    enum Source {
        /// Lane `k` reads lane `(k + rot) % 4` of source group `src`.
        Rotated { src: usize, rot: usize },
        /// Lane `k` reads site `sites[k]`, or nothing where bit `k` of
        /// `live` is clear (a ghost hop; `sites[k]` is then 0).
        Sites { sites: [usize; LANES], live: u8 },
    }

    impl Source {
        /// Hop `e` of group `g` of parity `p`, or `None` when no lane
        /// takes it in the interior.
        #[inline(always)]
        fn of(op: &StaggeredOp<f64>, kind: u32, p: Parity, g: usize, e: usize) -> Option<Source> {
            match kind {
                GroupHops::SKIP => None,
                GroupHops::PER_LANE => {
                    let entry = |k: usize| op.nbrs.hops::<HOPS>(p, LANES * g + k)[e];
                    let n = |k: usize| NeighborTable::interior(entry(k));
                    let live = (0..LANES).fold(0, |m, k| m | (n(k).is_some() as u8) << k);
                    let sites = std::array::from_fn(|k| n(k).unwrap_or(0));
                    Some(Source::Sites { sites, live })
                }
                _ => Some(Source::Rotated { src: (kind >> 2) as usize, rot: (kind & 3) as usize }),
            }
        }

        /// The lanes that take the hop.
        #[inline(always)]
        fn live(self) -> u8 {
            match self {
                Source::Rotated { .. } => 0b1111,
                Source::Sites { live, .. } => live,
            }
        }

        /// The lanes' operands in a lane-major body.
        #[inline(always)]
        fn lanes<const M: usize>(self, body: &[f64]) -> Lanes<'_, M> {
            match self {
                Source::Rotated { src, rot } => Lanes::Rotated(group(body, src), rot),
                Source::Sites { sites, .. } => Lanes::PerLane(std::array::from_fn(|k| {
                    (group(body, sites[k] / LANES), sites[k] % LANES)
                })),
            }
        }
    }

    /// One link field's lane-major bodies per direction, at the output
    /// parity (the forward hops' links) and at the source parity (the
    /// backward ones').
    #[derive(Clone, Copy)]
    struct Links<'a> {
        out: [&'a [f64]; NDIM],
        src: [&'a [f64]; NDIM],
    }

    impl<'a> Links<'a> {
        fn new(links: &'a StaggeredLinks<f64>, out: Parity, src: Parity) -> Self {
            Links {
                out: std::array::from_fn(|mu| links.body(mu, out)),
                src: std::array::from_fn(|mu| links.body(mu, src)),
            }
        }
    }

    /// The interior hops of the groups of sites `lo_site ..` whose outputs
    /// `out` holds, from the lane-major source `psi`.
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
            assert!(
                lo_site.is_multiple_of(LANES) && out.len().is_multiple_of(6 * LANES),
                "whole groups"
            );
            let fat = Links::new(&op.fat, out_parity, src_parity);
            let long = Links::new(&op.long, out_parity, src_parity);
            for (j, out) in out.chunks_exact_mut(6 * LANES).enumerate() {
                let g = lo_site / LANES + j;
                let kinds = op.groups.hops(out_parity, g);
                let neg = op.groups.neg(out_parity, g);
                let mut acc = LaneAcc::zero(w);
                for mu in 0..NDIM {
                    for (e, links) in [(4 * mu, fat), (4 * mu + 2, long)] {
                        // Forward: U_µ(x) ψ(x + dµ̂), η_µ per lane.
                        if let Some(s) = Source::of(op, kinds[e], out_parity, g, e) {
                            let u = Lanes::Rotated(group(links.out[mu], g), 0);
                            acc.hop(false, neg[mu], s.live(), s.lanes(psi), u);
                        }
                        // Backward: −U†_µ(x − dµ̂) ψ(x − dµ̂), the link at
                        // the neighbour (of the source parity: d is odd).
                        if let Some(s) = Source::of(op, kinds[e + 1], out_parity, g, e + 1) {
                            let (v, u) = (s.lanes(psi), s.lanes(links.src[mu]));
                            acc.hop(true, !neg[mu] & 0b1111, s.live(), v, u);
                        }
                    }
                }
                acc.store(out.first_chunk_mut().expect("a whole group"));
            }
        }
    }

    /// The lanes of group `g` of parity `p` whose hop `e` is a ghost, and
    /// their ghost offsets (0 for the other lanes), or `None` when no
    /// lane's is.
    #[inline(always)]
    fn ghosts(
        op: &StaggeredOp<f64>,
        p: Parity,
        g: usize,
        e: usize,
    ) -> Option<(u8, [usize; LANES])> {
        let ghost = |k: usize| NeighborTable::ghost(op.nbrs.hops::<HOPS>(p, LANES * g + k)[e]);
        let live = (0..LANES).fold(0, |m, k| m | (ghost(k).is_some() as u8) << k);
        (live != 0).then(|| (live, std::array::from_fn(|k| ghost(k).unwrap_or(0))))
    }

    /// The ghost hops across `mu`, added to the groups of `out` that have
    /// one, four sites per call: lanes without a ghost hop keep their
    /// sums. The ghost zones `fwd` and `bwd` are site-major.
    struct Exterior<'a> {
        op: &'a StaggeredOp<f64>,
        out: &'a mut [f64],
        fwd: &'a [f64],
        bwd: &'a [f64],
        mu: usize,
        out_parity: Parity,
        src_parity: Parity,
    }

    impl WidthLoop for Exterior<'_> {
        type Output = ();

        #[inline(always)]
        fn run<W: LaneWidth>(self, w: W) {
            let Exterior { op, out, fwd, bwd, mu, out_parity, src_parity } = self;
            for (g, out) in out.chunks_exact_mut(6 * LANES).enumerate() {
                // A group whose hops across µ are all interior has no
                // face site.
                let kinds = &op.groups.hops(out_parity, g)[4 * mu..4 * mu + 4];
                if kinds.iter().all(|&kind| kind < GroupHops::PER_LANE) {
                    continue;
                }
                let out = out.first_chunk_mut().expect("a whole group");
                let neg = op.groups.neg(out_parity, g)[mu];
                let mut acc = LaneAcc::load(w, out);
                for (e, links) in [(4 * mu, &op.fat), (4 * mu + 2, &op.long)] {
                    // Forward hops read the forward ghost with the local
                    // link; backward hops the backward ghost with its
                    // ghost link.
                    if let Some((live, at)) = ghosts(op, out_parity, g, e) {
                        let v = Lanes::Sites(std::array::from_fn(|k| &fwd[6 * at[k]..]));
                        let u = Lanes::Rotated(group(links.body(mu, out_parity), g), 0);
                        acc.hop(false, neg, live, v, u);
                    }
                    if let Some((live, at)) = ghosts(op, out_parity, g, e + 1) {
                        let zone = links.ghost_zone(mu, src_parity);
                        let v = Lanes::Sites(std::array::from_fn(|k| &bwd[6 * at[k]..]));
                        let u = Lanes::Sites(std::array::from_fn(|k| &zone[18 * at[k]..]));
                        acc.hop(true, !neg & 0b1111, live, v, u);
                    }
                }
                acc.store(out);
            }
        }
    }

    /// The site-major source body `src` copied into `staged` lane-major,
    /// one group per register transpose.
    struct Stage<'a> {
        src: &'a [f64],
        staged: &'a mut [f64],
    }

    impl WidthLoop for Stage<'_> {
        type Output = ();

        #[inline(always)]
        fn run<W: LaneWidth>(self, w: W) {
            let n = 6 * LANES;
            assert!(
                self.src.len() == self.staged.len() && self.src.len().is_multiple_of(n),
                "whole groups"
            );
            for (src, dst) in self.src.chunks_exact(n).zip(self.staged.chunks_exact_mut(n)) {
                let (src, dst) = (src.first_chunk().expect("n"), dst.first_chunk_mut().expect("n"));
                LaneAcc::load(w, src).store_lanes(dst);
            }
        }
    }
}
