//! Naive, formula-level reference implementations of the Dirac operators.
//!
//! These follow Eqs. (2) and (3) of the paper as directly as possible —
//! plain coordinate arithmetic, dense γ-matrix application, no
//! checkerboard cleverness, no half-spinor trick, no interior/exterior
//! split — and exist purely to cross-check the optimized operators.
//! Slow by design; global (single-rank) lattices only. Test-only.

use crate::staggered::StaggeredOp;
use crate::wilson::WilsonCloverOp;
use lqcd_gauge::GaugeField;
use lqcd_lattice::{Dims, Parity, NDIM};
use lqcd_su3::gamma::project_reference;
use lqcd_su3::{ColorVector, Su3, WilsonSpinor};
use lqcd_util::Real;

/// A full-lattice Wilson spinor vector indexed by global lexicographic
/// site index.
pub type DenseSpinorVec = Vec<WilsonSpinor<f64>>;
/// A full-lattice staggered vector indexed by global lexicographic index.
pub type DenseColorVec = Vec<ColorVector<f64>>;

fn link_at(g: &GaugeField<f64>, _global: Dims, c: [usize; NDIM], mu: usize) -> Su3<f64> {
    let sub = g.sublattice();
    g.link(mu, sub.parity(c), sub.cb_index(c))
}

/// Apply the full Wilson-clover matrix `M = −(1/2)D + (4 + m + A)` of
/// Eq. (2) to a dense vector.
pub fn wilson_reference_apply(
    op: &WilsonCloverOp<f64>,
    global: Dims,
    src: &DenseSpinorVec,
) -> DenseSpinorVec {
    let sub = op.sublattice().clone();
    assert!(sub.partitioned.iter().all(|&p| !p), "reference runs on global lattices");
    assert_eq!(src.len(), global.volume());
    let mut out = vec![WilsonSpinor::zero(); global.volume()];
    for (lex, o) in out.iter_mut().enumerate() {
        let c = global.coords(lex);
        let s = &src[lex];
        // Site-diagonal term (4 + m + A).
        let mut acc = s.scale(4.0 + op.mass);
        if let Some(cl) = &op.clover {
            let a = cl[sub.parity(c).index()].site(sub.cb_index(c));
            acc = acc.add(&a.apply(s));
        }
        // −(1/2) Σ_µ [P−µ U ψ(x+µ̂) + P+µ U† ψ(x−µ̂)]; our projector
        // helpers compute (1 ± γ)ψ = 2P±ψ, hence the −1/4.
        for mu in 0..NDIM {
            let cp = global.displace(c, mu, 1);
            let cm = global.displace(c, mu, -1);
            let fwd = project_reference(mu, false, &src[global.index(cp)]);
            let u = link_at(&op.gauge, global, c, mu);
            let fwd = WilsonSpinor::from_fn(|sp| u.mul_vec(&fwd.s[sp]));
            let bwd = project_reference(mu, true, &src[global.index(cm)]);
            let um = link_at(&op.gauge, global, cm, mu);
            let bwd = WilsonSpinor::from_fn(|sp| um.adj_mul_vec(&bwd.s[sp]));
            acc = acc.add(&fwd.add(&bwd).scale(-0.25));
        }
        *o = acc;
    }
    out
}

/// Staggered phase η_µ(x) (global coordinates).
fn eta(c: [usize; NDIM], mu: usize) -> f64 {
    let s: usize = c[..mu].iter().sum();
    if s.is_multiple_of(2) {
        1.0
    } else {
        -1.0
    }
}

/// Apply the full improved-staggered matrix `M = m − (1/2)D` of Eq. (3)
/// (with explicit phases and the anti-Hermitian sign convention of
/// [`crate::staggered`]) to a dense vector.
pub fn staggered_reference_apply(
    op: &StaggeredOp<f64>,
    global: Dims,
    src: &DenseColorVec,
) -> DenseColorVec {
    let sub = op.sublattice().clone();
    assert!(sub.partitioned.iter().all(|&p| !p), "reference runs on global lattices");
    assert_eq!(src.len(), global.volume());
    let (fat, long) = op.to_gauge();
    let mut out = vec![ColorVector::zero(); global.volume()];
    for (lex, o) in out.iter_mut().enumerate() {
        let c = global.coords(lex);
        let mut d = ColorVector::zero();
        for mu in 0..NDIM {
            let e = eta(c, mu);
            for (links, hop) in [(&fat, 1isize), (&long, 3)] {
                let cp = global.displace(c, mu, hop);
                let cm = global.displace(c, mu, -hop);
                let fwd = link_at(links, global, c, mu).mul_vec(&src[global.index(cp)]);
                let bwd = link_at(links, global, cm, mu).adj_mul_vec(&src[global.index(cm)]);
                d = d.add(&fwd.sub(&bwd).scale(e));
            }
        }
        *o = src[lex].scale(op.mass).add(&d.scale(-0.5));
    }
    out
}

/// Gather a parity-split pair of optimized-layout fields into a dense
/// lexicographic vector, for comparisons.
pub fn gather_dense_staggered<R: Real>(
    e: &crate::staggered::StaggeredField<R>,
    o: &crate::staggered::StaggeredField<R>,
    global: Dims,
) -> DenseColorVec {
    let sub = e.sublattice().clone();
    let mut out = vec![ColorVector::zero(); global.volume()];
    for (f, p) in [(e, Parity::Even), (o, Parity::Odd)] {
        for (idx, c) in sub.sites(p) {
            out[global.index(c)] = f.site(idx).cast::<f64>();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BoundaryMode;
    use lqcd_comms::SingleComm;
    use lqcd_gauge::asqtad::{AsqtadCoeffs, AsqtadLinks};
    use lqcd_gauge::field::GaugeStart;
    use lqcd_lattice::{FaceGeometry, SubLattice};
    use lqcd_util::rng::SeedTree;
    use std::sync::Arc;

    const GLOBAL: Dims = Dims([4, 4, 4, 8]);

    #[test]
    fn staggered_optimized_matches_the_paper_formula() {
        // The asqtad operator (checkerboarded, half-spinorless, with its
        // exterior-kernel machinery) against the direct Eq. (3) loop.
        let seed = SeedTree::new(99);
        let sub = Arc::new(SubLattice::single(GLOBAL).unwrap());
        let faces = FaceGeometry::new(&sub, 3).unwrap();
        let thin = GaugeField::<f64>::generate(
            sub.clone(),
            &faces,
            GLOBAL,
            &seed,
            GaugeStart::Disordered(0.3),
        );
        let links = AsqtadLinks::compute(&thin, GLOBAL, &AsqtadCoeffs::default());
        let op = StaggeredOp::new(links.fat, links.long, 0.17).unwrap();
        // Random source.
        let mut rng = seed.child("src").rng();
        let mut se = op.alloc(Parity::Even);
        se.fill(|_| ColorVector::random(&mut rng));
        let mut so = op.alloc(Parity::Odd);
        so.fill(|_| ColorVector::random(&mut rng));
        let dense_src = gather_dense_staggered(&se, &so, GLOBAL);
        // Optimized.
        let mut comm = SingleComm::new(GLOBAL).unwrap();
        let mut oe = op.alloc(Parity::Even);
        let mut oo = op.alloc(Parity::Odd);
        op.apply_full(&mut oe, &mut oo, &mut se, &mut so, &mut comm, BoundaryMode::Full).unwrap();
        let dense_opt = gather_dense_staggered(&oe, &oo, GLOBAL);
        // Reference.
        let dense_ref = staggered_reference_apply(&op, GLOBAL, &dense_src);
        let mut max_err = 0.0f64;
        for (a, b) in dense_opt.iter().zip(&dense_ref) {
            max_err = max_err.max(a.sub(b).norm_sqr().sqrt());
        }
        assert!(max_err < 1e-12, "optimized vs Eq. (3): max deviation {max_err}");
    }

    #[test]
    fn wilson_reference_is_linear_and_local() {
        // Sanity of the reference itself: linearity and 9-point support.
        let seed = SeedTree::new(100);
        let sub = Arc::new(SubLattice::single(GLOBAL).unwrap());
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        let gauge =
            GaugeField::<f64>::generate(sub, &faces, GLOBAL, &seed, GaugeStart::Disordered(0.2));
        let op = WilsonCloverOp::new(gauge, None, 0.1).unwrap();
        let mut delta = vec![WilsonSpinor::zero(); GLOBAL.volume()];
        let origin = GLOBAL.index([1, 2, 3, 4]);
        let mut s = WilsonSpinor::zero();
        s.s[2].c[1] = lqcd_util::Complex::one();
        delta[origin] = s;
        let out = wilson_reference_apply(&op, GLOBAL, &delta);
        let support = out.iter().filter(|v| v.norm_sqr() > 1e-24).count();
        assert_eq!(support, 9, "Wilson stencil touches source + 8 neighbours");
        // Linearity: M(2ψ) = 2Mψ.
        let doubled: DenseSpinorVec = delta.iter().map(|v| v.scale(2.0)).collect();
        let out2 = wilson_reference_apply(&op, GLOBAL, &doubled);
        for (a, b) in out2.iter().zip(&out) {
            assert!(a.sub(&b.scale(2.0)).norm_sqr() < 1e-24);
        }
    }
}
