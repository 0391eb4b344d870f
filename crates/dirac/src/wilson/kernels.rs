//! Per-site kernels of the Wilson-clover operator.
//!
//! The operator's passes (interior, exteriors, the site-diagonal `T`
//! and `T⁻¹` passes) are written once over [`SiteKernels`]. [`Generic`]
//! is the typed per-site code: every precision and architecture, and the
//! oracle the SIMD kernels are tested against. [`Simd`](simd::Simd)
//! (x86_64, f32 and f64) runs the bit-identical kernels of
//! `lqcd_su3::kernels` on flat reals; its loops exist once, over the
//! precision's `WilsonLanes` and the lane width. The interior and the diagonal passes run at the width the
//! operator picked (`Width::detect`): consecutive sites go in groups of
//! `W::SITES` when their interior hops agree, and the rest one by one.
//! The exteriors run one site per call. Both read hops from the
//! operator's [`NeighborTable`], and the exteriors walk the face lists,
//! whose position `k` is the ghost slot.

use super::{Diag, SpinorField, WilsonCloverOp, SPINOR};
use crate::dispatch::{site, site_mut};
use lqcd_field::{BodyView, SiteObject};
use lqcd_lattice::{NeighborTable, Parity, NDIM};
use lqcd_su3::{CloverSite, Projector, WilsonSpinor};
use lqcd_util::Real;

/// The site kernels one apply runs (see the module docs).
pub(super) trait SiteKernels<R: Real>: Copy + Send + Sync {
    /// Interior hops of sites `lo_site ..` written to `out_chunk`.
    fn interior(
        self,
        op: &WilsonCloverOp<R>,
        out_chunk: &mut [R],
        lo_site: usize,
        src: BodyView<'_, R, WilsonSpinor<R>>,
        out_parity: Parity,
        src_parity: Parity,
    );

    /// Ghost hops across dimension `mu`, added to the face sites of `out`.
    fn exterior(
        self,
        op: &WilsonCloverOp<R>,
        out: &mut SpinorField<R>,
        src: &SpinorField<R>,
        mu: usize,
    );

    /// One site-diagonal pass over the sites of parity `p`: `out` and
    /// `src` are flat bodies of one length, and `t_inv` is the packed `T⁻¹`
    /// of parity `p` (read by the `T⁻¹` passes only).
    fn diag(
        self,
        op: &WilsonCloverOp<R>,
        p: Parity,
        pass: Diag,
        t_inv: &[R],
        out: &mut [R],
        src: &[R],
    );
}

/// `out = (4 + m + A) ψ` at site `idx` of parity `p`, typed.
fn t_site<R: Real>(
    op: &WilsonCloverOp<R>,
    p: Parity,
    idx: usize,
    psi: &[R; 24],
    out: &mut [R; 24],
) {
    let s = WilsonSpinor::read(psi);
    let shift = op.diag_shift();
    let v = match &op.clover {
        Some(cl) => cl[p.index()].site(idx).apply(&s).add(&s.scale(shift)),
        None => s.scale(shift),
    };
    v.write(out);
}

/// The typed per-site code.
#[derive(Clone, Copy)]
pub(super) struct Generic;

impl<R: Real> SiteKernels<R> for Generic {
    fn interior(
        self,
        op: &WilsonCloverOp<R>,
        out_chunk: &mut [R],
        lo_site: usize,
        src: BodyView<'_, R, WilsonSpinor<R>>,
        out_parity: Parity,
        src_parity: Parity,
    ) {
        for (k, slot) in out_chunk.chunks_exact_mut(SPINOR).enumerate() {
            let idx = lo_site + k;
            let hops = op.nbrs.hops::<{ 2 * NDIM }>(out_parity, idx);
            let mut acc = WilsonSpinor::zero();
            for mu in 0..NDIM {
                // Forward hop: U_µ(x) (1 − γµ) ψ(x + µ̂).
                if let Some(fwd) = NeighborTable::interior(hops[2 * mu]) {
                    let proj = Projector { mu, plus: false };
                    let h =
                        proj.project(&src.site(fwd)).color_mul(&op.gauge.link(mu, out_parity, idx));
                    proj.accumulate(&mut acc, &h);
                }
                // Backward hop: U†_µ(x − µ̂) (1 + γµ) ψ(x − µ̂).
                if let Some(bwd) = NeighborTable::interior(hops[2 * mu + 1]) {
                    let proj = Projector { mu, plus: true };
                    let h = proj
                        .project(&src.site(bwd))
                        .color_adj_mul(&op.gauge.link(mu, src_parity, bwd));
                    proj.accumulate(&mut acc, &h);
                }
            }
            acc.write(slot);
        }
    }

    fn exterior(
        self,
        op: &WilsonCloverOp<R>,
        out: &mut SpinorField<R>,
        src: &SpinorField<R>,
        mu: usize,
    ) {
        let (out_parity, src_parity) = (out.parity(), src.parity());
        // High face: the forward hop reads the forward ghost.
        let proj = Projector { mu, plus: false };
        for (k, &cb) in op.faces.high_face(mu, out_parity).iter().enumerate() {
            let idx = cb as usize;
            let h = proj
                .project(&src.ghost(mu, true, k))
                .color_mul(&op.gauge.link(mu, out_parity, idx));
            let mut acc = out.site(idx);
            proj.accumulate(&mut acc, &h);
            out.set_site(idx, acc);
        }
        // Low face: the backward hop reads the backward ghost; its link
        // comes from the gauge ghost of the same dimension.
        let proj = Projector { mu, plus: true };
        let links = &op.gauge.links[mu][src_parity.index()];
        for (k, &cb) in op.faces.low_face(mu, out_parity).iter().enumerate() {
            let idx = cb as usize;
            let h =
                proj.project(&src.ghost(mu, false, k)).color_adj_mul(&links.ghost(mu, false, k));
            let mut acc = out.site(idx);
            proj.accumulate(&mut acc, &h);
            out.set_site(idx, acc);
        }
    }

    fn diag(
        self,
        op: &WilsonCloverOp<R>,
        p: Parity,
        pass: Diag,
        t_inv: &[R],
        out: &mut [R],
        src: &[R],
    ) {
        let t_inv_site = |a: &[R; 72], psi: &[R; 24], out: &mut [R; 24]| {
            CloverSite::read(a).apply(&WilsonSpinor::read(psi)).write(out)
        };
        let sites = out.chunks_exact_mut(SPINOR).zip(src.chunks_exact(SPINOR));
        for (idx, (o, s)) in sites.enumerate() {
            let (o, s) = (site_mut(o, 0), site(s, 0));
            match pass {
                Diag::T => t_site(op, p, idx, s, o),
                Diag::TPlus(c) => {
                    let c = R::from_f64(c);
                    let mut t = [R::ZERO; SPINOR];
                    t_site(op, p, idx, s, &mut t);
                    for (o, t) in o.iter_mut().zip(t) {
                        *o = t + *o * c;
                    }
                }
                Diag::TInv => t_inv_site(site(t_inv, idx), s, o),
                Diag::TInvOf(c) => {
                    let c = R::from_f64(c);
                    let y = std::array::from_fn(|i| o[i] * c + s[i]);
                    t_inv_site(site(t_inv, idx), &y, o);
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(super) use simd::fast;

/// The SIMD kernels (x86_64).
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::*;
    use crate::dispatch::{group_site, same_hop_mask};
    use lqcd_su3::kernels::{
        clover_apply, clover_apply_shifted, LaneWidth, SpinorAcc, Sse2, Width, WidthLoop,
        WilsonLanes,
    };

    /// The SIMD kernels, written once over both precisions (the
    /// [`WilsonLanes`] of `R` supply the accumulator and the clover block)
    /// and every lane width.
    #[derive(Clone, Copy)]
    pub(in crate::wilson) struct Simd(Width);

    /// The SIMD kernels at the operator's width.
    pub(in crate::wilson) fn fast<R: Real>(op: &WilsonCloverOp<R>) -> Simd {
        Simd(op.width)
    }

    impl<R: Real + WilsonLanes> SiteKernels<R> for Simd {
        fn interior(
            self,
            op: &WilsonCloverOp<R>,
            out_chunk: &mut [R],
            lo_site: usize,
            src: BodyView<'_, R, WilsonSpinor<R>>,
            out_parity: Parity,
            src_parity: Parity,
        ) {
            let psi = src.reals();
            self.0.run(Interior { op, out: out_chunk, lo_site, psi, out_parity, src_parity })
        }

        fn exterior(
            self,
            op: &WilsonCloverOp<R>,
            out: &mut SpinorField<R>,
            src: &SpinorField<R>,
            mu: usize,
        ) {
            let (out_parity, src_parity) = (out.parity(), src.parity());
            let body = out.body_mut();
            let mut add_hop = |idx: usize, proj, adjoint, psi, u| {
                let o = site_mut(body, idx);
                let mut acc = SpinorAcc::load(Sse2, [&*o]);
                acc.hop(proj, adjoint, [psi], [u]);
                acc.store([o]);
            };
            let (ghost, links) =
                (src.ghost_zone(mu, true), op.gauge.links[mu][out_parity.index()].body());
            for (k, &cb) in op.faces.high_face(mu, out_parity).iter().enumerate() {
                let idx = cb as usize;
                add_hop(
                    idx,
                    Projector { mu, plus: false },
                    false,
                    site(ghost, k),
                    site(links, idx),
                );
            }
            let (ghost, links) = (
                src.ghost_zone(mu, false),
                op.gauge.links[mu][src_parity.index()].ghost_zone(mu, false),
            );
            for (k, &cb) in op.faces.low_face(mu, out_parity).iter().enumerate() {
                add_hop(
                    cb as usize,
                    Projector { mu, plus: true },
                    true,
                    site(ghost, k),
                    site(links, k),
                );
            }
        }

        fn diag(
            self,
            op: &WilsonCloverOp<R>,
            p: Parity,
            pass: Diag,
            t_inv: &[R],
            out: &mut [R],
            src: &[R],
        ) {
            self.0.run(DiagPass { op, p, pass, t_inv, out, src })
        }
    }

    /// The interior hops of the sites `lo_site ..` whose outputs `out` holds.
    struct Interior<'a, R: Real> {
        op: &'a WilsonCloverOp<R>,
        out: &'a mut [R],
        lo_site: usize,
        psi: &'a [R],
        out_parity: Parity,
        src_parity: Parity,
    }

    impl<R: Real + WilsonLanes> WidthLoop for Interior<'_, R> {
        type Output = ();

        #[inline(always)]
        fn run<W: LaneWidth>(self, w: W) {
            let Interior { op, out, lo_site, psi, out_parity, src_parity } = self;
            let links_out: [&[R]; NDIM] =
                std::array::from_fn(|mu| op.gauge.links[mu][out_parity.index()].body());
            let links_src: [&[R]; NDIM] =
                std::array::from_fn(|mu| op.gauge.links[mu][src_parity.index()].body());
            let hops = |idx| op.nbrs.hops::<{ 2 * NDIM }>(out_parity, idx);
            let sites = out.len() / SPINOR;
            let mut k = 0;
            while k < sites {
                let idx = lo_site + k;
                // A group needs one hop mask: every site takes the same hops.
                let group = k + W::SITES <= sites
                    && (1..W::SITES).all(|j| same_hop_mask(hops(idx), hops(idx + j)));
                if group {
                    let out = &mut out[SPINOR * k..SPINOR * (k + W::SITES)];
                    hop_sites(
                        w,
                        W::sites(|j| hops(idx + j)),
                        idx,
                        psi,
                        &links_out,
                        &links_src,
                        out,
                    );
                    k += W::SITES;
                } else {
                    let out = &mut out[SPINOR * k..SPINOR * (k + 1)];
                    hop_sites(Sse2, [hops(idx)], idx, psi, &links_out, &links_src, out);
                    k += 1;
                }
            }
        }
    }

    /// The interior hops of the `W::SITES` sites `idx ..` (one hop mask),
    /// summed from zero into `out`.
    #[inline(always)]
    fn hop_sites<R: Real + WilsonLanes, W: LaneWidth>(
        w: W,
        hops: W::Sites<&[u32; 2 * NDIM]>,
        idx: usize,
        psi: &[R],
        links_out: &[&[R]; NDIM],
        links_src: &[&[R]; NDIM],
        out: &mut [R],
    ) {
        let mut acc = SpinorAcc::zero(w);
        for mu in 0..NDIM {
            // Forward hop: U_µ(x) (1 − γµ) ψ(x + µ̂).
            if NeighborTable::interior(hops[0][2 * mu]).is_some() {
                let fwd = W::sites(|k| group_site(hops[k][2 * mu]));
                let (n, u) =
                    (W::sites(|k| site(psi, fwd[k])), W::sites(|k| site(links_out[mu], idx + k)));
                acc.hop(Projector { mu, plus: false }, false, n, u);
            }
            // Backward hop: U†_µ(x − µ̂) (1 + γµ) ψ(x − µ̂).
            if NeighborTable::interior(hops[0][2 * mu + 1]).is_some() {
                let bwd = W::sites(|k| group_site(hops[k][2 * mu + 1]));
                let (n, u) =
                    (W::sites(|k| site(psi, bwd[k])), W::sites(|k| site(links_src[mu], bwd[k])));
                acc.hop(Projector { mu, plus: true }, true, n, u);
            }
        }
        acc.store(W::split_mut(out));
    }

    /// One site-diagonal pass (see [`SiteKernels::diag`]).
    struct DiagPass<'a, R: Real> {
        op: &'a WilsonCloverOp<R>,
        p: Parity,
        pass: Diag,
        t_inv: &'a [R],
        out: &'a mut [R],
        src: &'a [R],
    }

    impl<R: Real + WilsonLanes> WidthLoop for DiagPass<'_, R> {
        type Output = ();

        #[inline(always)]
        fn run<W: LaneWidth>(self, w: W) {
            let DiagPass { op, p, pass, t_inv, out, src } = self;
            let sites = out.len() / SPINOR;
            let grouped = sites - sites % W::SITES;
            let mut idx = 0;
            while idx < grouped {
                let out = &mut out[SPINOR * idx..SPINOR * (idx + W::SITES)];
                diag_sites(w, op, p, pass, t_inv, idx, out, src);
                idx += W::SITES;
            }
            while idx < sites {
                let out = &mut out[SPINOR * idx..SPINOR * (idx + 1)];
                diag_sites(Sse2, op, p, pass, t_inv, idx, out, src);
                idx += 1;
            }
        }
    }

    /// One diagonal pass over the `W::SITES` sites `idx ..`, whose outputs
    /// `out` holds; `src` is the whole source body.
    #[inline(always)]
    fn diag_sites<R: Real + WilsonLanes, W: LaneWidth>(
        w: W,
        op: &WilsonCloverOp<R>,
        p: Parity,
        pass: Diag,
        t_inv: &[R],
        idx: usize,
        out: &mut [R],
        src: &[R],
    ) {
        let s = W::sites(|k| site(src, idx + k));
        let a = || W::sites(|k| site(t_inv, idx + k));
        // Room for the sites of the widest group.
        let mut tmp = [R::ZERO; 2 * SPINOR];
        match pass {
            Diag::T => t_sites(w, op, p, idx, s, W::split_mut(out)),
            Diag::TPlus(c) => {
                let c = R::from_f64(c);
                let t = &mut tmp[..out.len()];
                t_sites(w, op, p, idx, s, W::split_mut(t));
                for (o, &t) in out.iter_mut().zip(t.iter()) {
                    *o = t + *o * c;
                }
            }
            Diag::TInv => clover_apply(w, a(), s, W::split_mut(out)),
            Diag::TInvOf(c) => {
                let c = R::from_f64(c);
                let y = &mut tmp[..out.len()];
                for ((y, &o), &s) in y.iter_mut().zip(out.iter()).zip(&src[SPINOR * idx..]) {
                    *y = o * c + s;
                }
                clover_apply(w, a(), W::sites(|k| site(y, k)), W::split_mut(out));
            }
        }
    }

    /// `out = (4 + m + A) ψ` at the `W::SITES` sites `idx ..` of parity `p`.
    #[inline(always)]
    fn t_sites<R: Real + WilsonLanes, W: LaneWidth>(
        w: W,
        op: &WilsonCloverOp<R>,
        p: Parity,
        idx: usize,
        psi: W::Sites<&[R; 24]>,
        mut out: W::Sites<&mut [R; 24]>,
    ) {
        match &op.clover {
            Some(cl) => {
                let a = W::sites(|k| site(cl[p.index()].body(), idx + k));
                clover_apply_shifted(w, a, psi, op.diag_shift(), out)
            }
            None => {
                for k in 0..W::SITES {
                    t_site(op, p, idx + k, psi[k], &mut *out[k]);
                }
            }
        }
    }
}
