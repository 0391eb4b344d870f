//! Per-site kernels of the Wilson-clover operator.
//!
//! The operator's passes (interior, exteriors, the site-diagonal `T`
//! and `T⁻¹`) are written once over [`SiteKernels`]. [`Generic`] is the
//! typed per-site code: every precision and architecture, and the oracle
//! the SIMD kernels are tested against. [`Sse2`] (x86_64, f32 and f64)
//! runs the bit-identical SSE2 kernels of `lqcd_su3::kernels` on flat
//! reals; its loops exist once, over the precision's `WilsonLanes`.
//! Both read hops from the operator's [`NeighborTable`], and the
//! exteriors walk the face lists, whose position `k` is the ghost slot.

use super::{SpinorField, WilsonCloverOp, SPINOR};
use crate::dispatch::{site, site_mut};
use lqcd_field::{BodyView, SiteObject};
use lqcd_lattice::{NeighborTable, Parity, NDIM};
#[cfg(target_arch = "x86_64")]
use lqcd_su3::kernels::{clover_apply, clover_apply_shifted, SpinorAcc, WilsonLanes};
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

    /// `out = (4 + m + A) ψ` at site `idx` of parity `p`.
    fn t(self, op: &WilsonCloverOp<R>, p: Parity, idx: usize, psi: &[R; 24], out: &mut [R; 24]);

    /// `out = T⁻¹ ψ` with the packed inverse site `t_inv`.
    fn t_inv(self, t_inv: &[R; 72], psi: &[R; 24], out: &mut [R; 24]);
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

    fn t(self, op: &WilsonCloverOp<R>, p: Parity, idx: usize, psi: &[R; 24], out: &mut [R; 24]) {
        let s = WilsonSpinor::read(psi);
        let shift = op.diag_shift();
        let v = match &op.clover {
            Some(cl) => cl[p.index()].site(idx).apply(&s).add(&s.scale(shift)),
            None => s.scale(shift),
        };
        v.write(out);
    }

    fn t_inv(self, t_inv: &[R; 72], psi: &[R; 24], out: &mut [R; 24]) {
        CloverSite::read(t_inv).apply(&WilsonSpinor::read(psi)).write(out);
    }
}

/// The SSE2 kernels, written once over both precisions: the
/// [`WilsonLanes`] of `R` supply the accumulator and the clover block.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(super) struct Sse2;

#[cfg(target_arch = "x86_64")]
impl<R: Real + WilsonLanes> SiteKernels<R> for Sse2 {
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
        let links_out: [&[R]; NDIM] =
            std::array::from_fn(|mu| op.gauge.links[mu][out_parity.index()].body());
        let links_src: [&[R]; NDIM] =
            std::array::from_fn(|mu| op.gauge.links[mu][src_parity.index()].body());
        for (k, slot) in out_chunk.chunks_exact_mut(SPINOR).enumerate() {
            let idx = lo_site + k;
            let hops = op.nbrs.hops::<{ 2 * NDIM }>(out_parity, idx);
            let mut acc = SpinorAcc::zero();
            for mu in 0..NDIM {
                if let Some(fwd) = NeighborTable::interior(hops[2 * mu]) {
                    let (n, u) = (site(psi, fwd), site(links_out[mu], idx));
                    acc.hop(Projector { mu, plus: false }, false, n, u);
                }
                if let Some(bwd) = NeighborTable::interior(hops[2 * mu + 1]) {
                    let (n, u) = (site(psi, bwd), site(links_src[mu], bwd));
                    acc.hop(Projector { mu, plus: true }, true, n, u);
                }
            }
            acc.store(site_mut(slot, 0));
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
        let body = out.body_mut();
        let mut add_hop = |idx: usize, proj, adjoint, psi, u| {
            let o = site_mut(body, idx);
            let mut acc = SpinorAcc::load(o);
            acc.hop(proj, adjoint, psi, u);
            acc.store(o);
        };
        let (ghost, links) =
            (src.ghost_zone(mu, true), op.gauge.links[mu][out_parity.index()].body());
        for (k, &cb) in op.faces.high_face(mu, out_parity).iter().enumerate() {
            let idx = cb as usize;
            add_hop(idx, Projector { mu, plus: false }, false, site(ghost, k), site(links, idx));
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

    fn t(self, op: &WilsonCloverOp<R>, p: Parity, idx: usize, psi: &[R; 24], out: &mut [R; 24]) {
        match &op.clover {
            Some(cl) => {
                clover_apply_shifted(site(cl[p.index()].body(), idx), psi, op.diag_shift(), out)
            }
            None => Generic.t(op, p, idx, psi, out),
        }
    }

    fn t_inv(self, t_inv: &[R; 72], psi: &[R; 24], out: &mut [R; 24]) {
        clover_apply(t_inv, psi, out);
    }
}
