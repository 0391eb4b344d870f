//! The improved staggered (asqtad) operator.
//!
//! Conventions (paper §2.3, with the staggered phases written explicitly):
//!
//! `(D ψ)(x) = Σ_µ η_µ(x) [ Û_µ(x) ψ(x+µ̂) − Û†_µ(x−µ̂) ψ(x−µ̂)
//!                        + Ǔ_µ(x) ψ(x+3µ̂) − Ǔ†_µ(x−3µ̂) ψ(x−3µ̂) ]`
//!
//! with fat links `Û` and long links `Ǔ` (Naik coefficient folded in) and
//! phases `η_x = 1`, `η_y = (−1)^x`, `η_z = (−1)^{x+y}`, `η_t = (−1)^{x+y+z}`
//! evaluated at **global** coordinates. `D` is anti-Hermitian, so
//! `M = m − (1/2) D` satisfies `M†M = m² − D²/4`, which decouples the
//! parities — the property multi-shift CG relies on (§3.1).
//!
//! The 3-hop Naik term makes the ghost zones three sites deep
//! ([`STAGGERED_DEPTH`]), which is what makes single-dimension partitioning
//! scale so poorly for asqtad (§5, end) and multi-dimensional partitioning
//! essential.
//!
//! The sixteen hops and the phases of every site come from a depth-3
//! [`NeighborTable`] built once per operator. The fat and long links are
//! held once, in `links::StaggeredLinks` stores whose bodies are
//! lane-major (groups of four consecutive checkerboard sites, one real
//! of the four sites side by side). The per-site work runs through
//! `kernels::SiteKernels`: on x86_64 an f64 operator takes bit-identical
//! SIMD colour hops (chosen by a safe `Any` downcast, so every signature
//! stays generic over `R: Real`), four sites of a lane-major group per
//! call in its interior, at the lane width it picked when it was built;
//! everything else takes the generic per-site code.

mod kernels;
mod links;

use crate::dispatch::with_kernels;
use crate::overlap::{self, OverlapHost, OverlapPipeline, Stencil};
use crate::BoundaryMode;
use kernels::SiteKernels;
use links::StaggeredLinks;
use lqcd_comms::Communicator;
use lqcd_field::{blas, BodyView, LatticeField};
use lqcd_gauge::GaugeField;
use lqcd_lattice::{FaceGeometry, NeighborTable, Parity, SubLattice};
#[cfg(target_arch = "x86_64")]
use lqcd_su3::kernels::Width;
use lqcd_su3::ColorVector;
use lqcd_util::{Error, Real, Result};
use std::sync::{Arc, Mutex};

/// Ghost-zone depth of the asqtad stencil (the 3-hop Naik term).
pub const STAGGERED_DEPTH: usize = 3;

/// A staggered "spinor" (color-vector) field.
pub type StaggeredField<R> = LatticeField<R, ColorVector<R>>;

/// The asqtad operator bound to one rank's fat+long link fields.
pub struct StaggeredOp<R: Real> {
    /// Fat links with depth-3 backward ghosts.
    fat: StaggeredLinks<R>,
    /// Long links (Naik coefficient included) with depth-3 backward ghosts.
    long: StaggeredLinks<R>,
    /// Quark mass `m`.
    pub mass: f64,
    sub: Arc<SubLattice>,
    faces: FaceGeometry,
    /// The sixteen hops and the staggered phases of every site.
    nbrs: Arc<NeighborTable>,
    /// How each lane-major group takes each hop (the SIMD interior's).
    #[cfg(target_arch = "x86_64")]
    groups: Arc<kernels::GroupHops>,
    /// Exchange buffers, apply counters, interior worker count.
    overlap: Mutex<OverlapPipeline<R>>,
    /// The lane width of the SIMD site kernels: the widest the CPU runs.
    #[cfg(target_arch = "x86_64")]
    width: Width,
}

impl<R: Real> Clone for StaggeredOp<R> {
    fn clone(&self) -> Self {
        let threads = self.interior_threads();
        StaggeredOp {
            fat: self.fat.clone(),
            long: self.long.clone(),
            mass: self.mass,
            sub: self.sub.clone(),
            faces: self.faces.clone(),
            nbrs: self.nbrs.clone(),
            #[cfg(target_arch = "x86_64")]
            groups: self.groups.clone(),
            overlap: Mutex::new(OverlapPipeline::with_threads(threads)),
            #[cfg(target_arch = "x86_64")]
            width: self.width,
        }
    }
}

impl<R: Real> OverlapHost<R> for StaggeredOp<R> {
    fn overlap_state(&self) -> &Mutex<OverlapPipeline<R>> {
        &self.overlap
    }
}

impl<R: Real> StaggeredOp<R> {
    /// Bind the operator to precomputed fat/long links. The links move
    /// into the operator's lane-major stores, one (µ, parity) field at a
    /// time; nothing keeps the site-major fields.
    pub fn new(fat: GaugeField<R>, long: GaugeField<R>, mass: f64) -> Result<Self> {
        let sub = fat.sublattice().clone();
        if **long.sublattice() != *sub {
            return Err(Error::Shape(format!(
                "fat links live on {sub:?}, long links on {:?}",
                long.sublattice()
            )));
        }
        if fat.depth() < STAGGERED_DEPTH || long.depth() < STAGGERED_DEPTH {
            return Err(Error::Geometry(
                "asqtad links need depth-3 ghost zones (Naik term)".into(),
            ));
        }
        let faces = FaceGeometry::new(&sub, STAGGERED_DEPTH)?;
        let nbrs = Arc::new(NeighborTable::new(&sub, STAGGERED_DEPTH)?);
        Ok(Self {
            fat: StaggeredLinks::new(fat),
            long: StaggeredLinks::new(long),
            mass,
            #[cfg(target_arch = "x86_64")]
            groups: Arc::new(kernels::GroupHops::new(&nbrs, sub.volume_cb())),
            sub,
            faces,
            nbrs,
            overlap: Mutex::new(OverlapPipeline::default()),
            #[cfg(target_arch = "x86_64")]
            width: Width::detect(),
        })
    }

    /// The operator at precision `R2`: the link stores cast elementwise,
    /// the tables shared.
    pub fn cast<R2: Real>(&self) -> StaggeredOp<R2>
    where
        lqcd_su3::Su3<R>:
            lqcd_field::CastSite<R, R2> + lqcd_field::CastSiteAny<R2, Target = lqcd_su3::Su3<R2>>,
    {
        StaggeredOp {
            fat: self.fat.cast(),
            long: self.long.cast(),
            mass: self.mass,
            sub: self.sub.clone(),
            faces: self.faces.clone(),
            nbrs: self.nbrs.clone(),
            #[cfg(target_arch = "x86_64")]
            groups: self.groups.clone(),
            overlap: Mutex::new(OverlapPipeline::default()),
            #[cfg(target_arch = "x86_64")]
            width: self.width,
        }
    }

    /// The fat and long links as the site-major fields `new` took, bit
    /// for bit.
    #[cfg(test)]
    pub(crate) fn to_gauge(&self) -> (GaugeField<R>, GaugeField<R>) {
        (self.fat.to_gauge(), self.long.to_gauge())
    }

    /// Run the SIMD site kernels at `width` instead of the detected one.
    #[cfg(all(test, target_arch = "x86_64"))]
    pub(crate) fn force_width(&mut self, width: Width) {
        self.width = width;
    }

    /// The subvolume the operator acts on.
    pub fn sublattice(&self) -> &Arc<SubLattice> {
        &self.sub
    }

    /// The face geometry (depth 3).
    pub fn faces(&self) -> &FaceGeometry {
        &self.faces
    }

    /// Allocate a compatible field.
    pub fn alloc(&self, parity: Parity) -> StaggeredField<R> {
        LatticeField::zeros(self.sub.clone(), &self.faces, parity, 0)
    }

    /// The raw anti-Hermitian stencil `out = D src`, pipelined as in the
    /// paper's Fig. 4: face gathers are packed and posted as nonblocking
    /// exchanges, the interior kernel runs while they are in flight
    /// (optionally on worker threads), each dimension's ghosts complete
    /// as they land, and the exterior kernels run last. Output is
    /// bit-identical to [`StaggeredOp::dslash_sequential`] for every
    /// thread count.
    pub fn dslash<C: Communicator>(
        &self,
        out: &mut StaggeredField<R>,
        src: &mut StaggeredField<R>,
        comm: &mut C,
        mode: BoundaryMode,
    ) -> Result<()> {
        with_kernels!(self as StaggeredOp<f64>, |op, k| [out, src] op
            .dslash_with(k, out, src, comm, mode))
    }

    /// [`StaggeredOp::dslash`] with the given site kernels.
    fn dslash_with<K: SiteKernels<R>, C: Communicator>(
        &self,
        k: K,
        out: &mut StaggeredField<R>,
        src: &mut StaggeredField<R>,
        comm: &mut C,
        mode: BoundaryMode,
    ) -> Result<()> {
        overlap::dslash(&Bound(self, k), out, src, comm, mode)
    }

    /// The same stencil with blocking communication: exchange every
    /// ghost zone up front, then interior, then exteriors. Kept as the
    /// baseline the overlapped path is measured (and bit-compared)
    /// against.
    pub fn dslash_sequential<C: Communicator>(
        &self,
        out: &mut StaggeredField<R>,
        src: &mut StaggeredField<R>,
        comm: &mut C,
        mode: BoundaryMode,
    ) -> Result<()> {
        with_kernels!(self as StaggeredOp<f64>, |op, k| [out, src] overlap::dslash_sequential(
            &Bound(op, k),
            out,
            src,
            comm,
            mode
        ))
    }

    /// Full operator: `out = M src = m·src − (1/2) D src` (two parities).
    #[allow(clippy::too_many_arguments)]
    pub fn apply_full<C: Communicator>(
        &self,
        out_e: &mut StaggeredField<R>,
        out_o: &mut StaggeredField<R>,
        src_e: &mut StaggeredField<R>,
        src_o: &mut StaggeredField<R>,
        comm: &mut C,
        mode: BoundaryMode,
    ) -> Result<()> {
        with_kernels!(self as StaggeredOp<f64>, |op, k| [out_e, out_o, src_e, src_o] op
            .apply_full_with(k, out_e, out_o, src_e, src_o, comm, mode))
    }

    #[allow(clippy::too_many_arguments)]
    fn apply_full_with<K: SiteKernels<R>, C: Communicator>(
        &self,
        k: K,
        out_e: &mut StaggeredField<R>,
        out_o: &mut StaggeredField<R>,
        src_e: &mut StaggeredField<R>,
        src_o: &mut StaggeredField<R>,
        comm: &mut C,
        mode: BoundaryMode,
    ) -> Result<()> {
        self.dslash_with(k, out_e, src_o, comm, mode)?;
        self.dslash_with(k, out_o, src_e, comm, mode)?;
        // One in-place pass per parity, `out = m·src + (−1/2)·out`: the
        // products and the (commutative) sum of `scale` then `axpy`.
        let m = R::from_f64(self.mass);
        let half = -R::from_f64(0.5);
        blas::axpby(m, src_e, half, out_e);
        blas::axpby(m, src_o, half, out_o);
        Ok(())
    }

    /// The parity-decoupled normal operator on one parity:
    /// `out = (M†M)_pp src = m² src − (1/4) D_po D_op src`.
    ///
    /// This (shifted by σ) is what the multi-shift CG solves (§3.1, Eq. 4).
    pub fn apply_normal<C: Communicator>(
        &self,
        out: &mut StaggeredField<R>,
        src: &mut StaggeredField<R>,
        scratch: &mut StaggeredField<R>,
        comm: &mut C,
        mode: BoundaryMode,
    ) -> Result<()> {
        with_kernels!(self as StaggeredOp<f64>, |op, k| [out, src, scratch] op
            .apply_normal_with(k, out, src, scratch, comm, mode))
    }

    fn apply_normal_with<K: SiteKernels<R>, C: Communicator>(
        &self,
        k: K,
        out: &mut StaggeredField<R>,
        src: &mut StaggeredField<R>,
        scratch: &mut StaggeredField<R>,
        comm: &mut C,
        mode: BoundaryMode,
    ) -> Result<()> {
        self.dslash_with(k, scratch, src, comm, mode)?;
        self.dslash_with(k, out, scratch, comm, mode)?;
        // One in-place pass, `out = m²·src + (−1/4)·out` (see apply_full).
        let m2 = R::from_f64(self.mass * self.mass);
        blas::axpby(m2, src, -R::from_f64(0.25), out);
        Ok(())
    }
}

/// The operator bound to site kernels `K`, as the dslash drivers see it.
struct Bound<'a, R: Real, K>(&'a StaggeredOp<R>, K);

impl<R: Real, K: SiteKernels<R>> Stencil<R> for Bound<'_, R, K> {
    type Site = ColorVector<R>;
    const GROUP: usize = links::LANES;

    fn sub(&self) -> &SubLattice {
        &self.0.sub
    }

    fn faces(&self) -> &FaceGeometry {
        &self.0.faces
    }

    fn state(&self) -> &Mutex<OverlapPipeline<R>> {
        &self.0.overlap
    }

    fn stage(&self, src: BodyView<'_, R, ColorVector<R>>, staged: &mut Vec<R>) {
        self.1.stage(src.reals(), staged);
    }

    fn interior(
        &self,
        out_chunk: &mut [R],
        lo_site: usize,
        src: BodyView<'_, R, ColorVector<R>>,
        staged: &[R],
        out_parity: Parity,
        src_parity: Parity,
    ) {
        self.1.interior(self.0, out_chunk, lo_site, src, staged, out_parity, src_parity);
    }

    fn exterior(&self, out: &mut StaggeredField<R>, src: &StaggeredField<R>, mu: usize) {
        self.1.exterior(self.0, out, src, mu);
    }
}

// After the operator: `with_kernels!` resolves `kernels` here.
#[cfg(test)]
mod kernel_equality;

#[cfg(test)]
mod tests {
    use super::*;
    use lqcd_comms::SingleComm;
    use lqcd_field::blas::{cdot_local, max_abs_diff, norm2_local};
    use lqcd_gauge::asqtad::{AsqtadCoeffs, AsqtadLinks};
    use lqcd_gauge::field::GaugeStart;
    use lqcd_lattice::Dims;
    use lqcd_util::rng::SeedTree;
    use lqcd_util::Complex;

    const GLOBAL: Dims = Dims([4, 4, 4, 8]);

    fn make_op(start: GaugeStart, mass: f64) -> StaggeredOp<f64> {
        let sub = Arc::new(SubLattice::single(GLOBAL).unwrap());
        let faces = FaceGeometry::new(&sub, STAGGERED_DEPTH).unwrap();
        let thin = GaugeField::<f64>::generate(sub, &faces, GLOBAL, &SeedTree::new(8), start);
        let links = AsqtadLinks::compute(&thin, GLOBAL, &AsqtadCoeffs::default());
        StaggeredOp::new(links.fat, links.long, mass).unwrap()
    }

    /// Random depth-3 links of rank `rank` of a 1×1×1×2 grid of 8⁴.
    fn rank_links(rank: usize, seed: u64) -> GaugeField<f64> {
        let global = Dims([8, 8, 8, 8]);
        let grid = lqcd_lattice::ProcessGrid::new(Dims([1, 1, 1, 2]), global).unwrap();
        let sub = Arc::new(SubLattice::for_rank(&grid, rank));
        let faces = FaceGeometry::new(&sub, STAGGERED_DEPTH).unwrap();
        let start = GaugeStart::Disordered(0.2);
        GaugeField::<f64>::generate(sub, &faces, global, &SeedTree::new(seed), start)
    }

    #[test]
    fn new_rejects_long_links_of_another_subvolume() {
        let (fat, long) = (rank_links(0, 1), rank_links(1, 2));
        assert_eq!(fat.sublattice().dims, long.sublattice().dims);
        let err = StaggeredOp::new(fat.clone(), long, 0.1).err();
        assert!(matches!(err, Some(Error::Shape(_))), "{err:?}");
        assert!(StaggeredOp::new(fat, rank_links(0, 2), 0.1).is_ok());
    }

    fn rand_pair(op: &StaggeredOp<f64>, seed: u64) -> (StaggeredField<f64>, StaggeredField<f64>) {
        let t = SeedTree::new(seed);
        let mut rng = t.rng();
        let mut e = op.alloc(Parity::Even);
        e.fill(|_| ColorVector::random(&mut rng));
        let mut o = op.alloc(Parity::Odd);
        o.fill(|_| ColorVector::random(&mut rng));
        (e, o)
    }

    #[test]
    fn dslash_is_antihermitian() {
        // ⟨w, D v⟩ = −⟨D w, v⟩ over the full lattice.
        let op = make_op(GaugeStart::Disordered(0.3), 0.0);
        let (mut ve, mut vo) = rand_pair(&op, 1);
        let (mut we, mut wo) = rand_pair(&op, 2);
        let mut comm = SingleComm::new(GLOBAL).unwrap();
        let mut dv_e = op.alloc(Parity::Even);
        let mut dv_o = op.alloc(Parity::Odd);
        op.dslash(&mut dv_e, &mut vo, &mut comm, BoundaryMode::Full).unwrap();
        op.dslash(&mut dv_o, &mut ve, &mut comm, BoundaryMode::Full).unwrap();
        let mut dw_e = op.alloc(Parity::Even);
        let mut dw_o = op.alloc(Parity::Odd);
        op.dslash(&mut dw_e, &mut wo, &mut comm, BoundaryMode::Full).unwrap();
        op.dslash(&mut dw_o, &mut we, &mut comm, BoundaryMode::Full).unwrap();
        let lhs = cdot_local(&we, &dv_e) + cdot_local(&wo, &dv_o);
        let rhs = cdot_local(&dw_e, &ve) + cdot_local(&dw_o, &vo);
        assert!(
            (lhs + rhs).abs() < 1e-9 * (lhs.abs() + 1.0),
            "anti-hermiticity violated: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn free_field_dispersion_normalization() {
        // Cold links, plane wave at small momentum: the asqtad derivative
        // (9/8)·sin(p) − (1/24)·sin(3p)·... acts like i·sin-combination; at
        // p = 2π/L the eigenvalue of D on the wave must be ≈ i·p (the
        // improvement conditions kill the p³ term).
        let op = make_op(GaugeStart::Cold, 0.0);
        let sub = op.sublattice().clone();
        let lt = GLOBAL.0[3] as f64;
        let p = 2.0 * std::f64::consts::PI / lt;
        // Staggered phases for µ = T depend on x, y, z; pick a plane wave
        // in T modulated to be an η-eigenvector: χ(x) = e^{ipt}·φ(x,y,z)
        // with φ = 1 (η_t(x) multiplies the wave but D_t also carries it —
        // use sites with x+y+z even only via projection below).
        let mut se = op.alloc(Parity::Even);
        let mut so = op.alloc(Parity::Odd);
        let wave = |c: [usize; 4]| -> Complex<f64> {
            let phase = p * c[3] as f64;
            Complex::new(phase.cos(), phase.sin())
        };
        let subc = sub.clone();
        se.fill(|idx| {
            let c = subc.cb_coords(Parity::Even, idx);
            ColorVector::from_fn(|k| if k == 0 { wave(c) } else { Complex::zero() })
        });
        let subc = sub.clone();
        so.fill(|idx| {
            let c = subc.cb_coords(Parity::Odd, idx);
            ColorVector::from_fn(|k| if k == 0 { wave(c) } else { Complex::zero() })
        });
        let mut comm = SingleComm::new(GLOBAL).unwrap();
        let mut de = op.alloc(Parity::Even);
        let mut d_o = op.alloc(Parity::Odd);
        op.dslash(&mut de, &mut so, &mut comm, BoundaryMode::Full).unwrap();
        op.dslash(&mut d_o, &mut se, &mut comm, BoundaryMode::Full).unwrap();
        // At a site with x+y+z even, η_t = +1 and
        // (Dψ)(x) = [9/8·2i·sin p − 1/24·2i·sin 3p]·ψ(x) — wait: forward −
        // backward gives 2i sin; fat coefficient 9/8 and long −1/24 are in
        // the links, so eigenvalue = i[ (9/8)·2 sin p + (−1/24)·2 sin 3p ].
        let eig = 2.0 * ((9.0 / 8.0) * p.sin() - (1.0 / 24.0) * (3.0 * p).sin());
        let c0 = [0, 0, 2, 3]; // x+y+z = 2 even, odd site overall
        assert_eq!(sub.parity(c0), Parity::Odd);
        let got = d_o.site(sub.cb_index(c0)).c[0];
        let want = wave(c0).mul_i().scale(eig);
        assert!(
            (got - want).abs() < 1e-12,
            "dispersion: got {got}, want {want} (eig {eig}, 2p would be {})",
            2.0 * p
        );
        // The derivative normalization is M = m − D/2, so D ≈ 2i·p on a
        // plane wave; the improvement kills the p³ error, leaving only the
        // small O(p⁵) residue (the *unimproved* operator would miss by
        // |sin p − p| ≈ 0.078 here — an order of magnitude worse).
        assert!((eig / 2.0 - p).abs() < 0.1 * p.powi(5), "eig/2 {} vs p {p}", eig / 2.0);
    }

    #[test]
    fn normal_operator_is_hermitian_positive() {
        let op = make_op(GaugeStart::Disordered(0.25), 0.1);
        let (mut ve, _) = rand_pair(&op, 3);
        let (mut we, _) = rand_pair(&op, 4);
        let mut comm = SingleComm::new(GLOBAL).unwrap();
        let mut nv = op.alloc(Parity::Even);
        let mut nw = op.alloc(Parity::Even);
        let mut scratch = op.alloc(Parity::Odd);
        op.apply_normal(&mut nv, &mut ve, &mut scratch, &mut comm, BoundaryMode::Full).unwrap();
        op.apply_normal(&mut nw, &mut we, &mut scratch, &mut comm, BoundaryMode::Full).unwrap();
        let lhs = cdot_local(&we, &nv);
        let rhs = cdot_local(&nw, &ve);
        assert!((lhs - rhs).abs() < 1e-9 * (lhs.abs() + 1.0), "not Hermitian");
        // Positivity: ⟨v, M†M v⟩ ≥ m²‖v‖².
        let vv = cdot_local(&ve, &nv).re;
        let m2 = 0.1f64 * 0.1;
        assert!(vv >= m2 * norm2_local(&ve) * 0.999, "not positive definite");
    }

    #[test]
    fn full_vs_normal_consistency() {
        // M†M computed via apply_normal must equal applying M twice with a
        // sign flip on the mass (M† = m + D/2 = M with D → −D ... easier:
        // M†(Mv) where M† = 2m − M acting as m + D/2).
        let op = make_op(GaugeStart::Disordered(0.2), 0.25);
        let (mut ve, mut vo) = rand_pair(&op, 5);
        let mut comm = SingleComm::new(GLOBAL).unwrap();
        // Mv.
        let mut mv_e = op.alloc(Parity::Even);
        let mut mv_o = op.alloc(Parity::Odd);
        op.apply_full(&mut mv_e, &mut mv_o, &mut ve, &mut vo, &mut comm, BoundaryMode::Full)
            .unwrap();
        // M†(Mv) = m(Mv) + (1/2)D(Mv).
        let mut d_e = op.alloc(Parity::Even);
        let mut d_o = op.alloc(Parity::Odd);
        op.dslash(&mut d_e, &mut mv_o, &mut comm, BoundaryMode::Full).unwrap();
        op.dslash(&mut d_o, &mut mv_e, &mut comm, BoundaryMode::Full).unwrap();
        let m = 0.25f64;
        blas::scale(&mut d_e, 0.5);
        blas::axpy(m, &mv_e, &mut d_e);
        blas::scale(&mut d_o, 0.5);
        blas::axpy(m, &mv_o, &mut d_o);
        // Via apply_normal (even parity only; vo contributes nothing to
        // the even block of M†M... it does through D², so compare evens of
        // the full computation against normal applied to ve only when
        // vo = 0). Regenerate with vo = 0.
        let mut vo0 = op.alloc(Parity::Odd);
        let mut mv_e2 = op.alloc(Parity::Even);
        let mut mv_o2 = op.alloc(Parity::Odd);
        let mut ve2 = ve.clone();
        op.apply_full(&mut mv_e2, &mut mv_o2, &mut ve2, &mut vo0, &mut comm, BoundaryMode::Full)
            .unwrap();
        let mut d2_e = op.alloc(Parity::Even);
        let mut d2_o = op.alloc(Parity::Odd);
        op.dslash(&mut d2_e, &mut mv_o2, &mut comm, BoundaryMode::Full).unwrap();
        op.dslash(&mut d2_o, &mut mv_e2, &mut comm, BoundaryMode::Full).unwrap();
        blas::scale(&mut d2_e, 0.5);
        blas::axpy(m, &mv_e2, &mut d2_e);
        let mut normal = op.alloc(Parity::Even);
        let mut scratch = op.alloc(Parity::Odd);
        let mut ve3 = ve.clone();
        op.apply_normal(&mut normal, &mut ve3, &mut scratch, &mut comm, BoundaryMode::Full)
            .unwrap();
        assert!(max_abs_diff(&normal, &d2_e) < 1e-12);
    }

    #[test]
    fn stencil_support_is_one_and_three_hops() {
        // Needs extents > 6 so the ±3 hops don't alias the ∓1 hops
        // (on L = 4, x+3 ≡ x−1 and the supports merge).
        let global = Dims([8, 8, 8, 8]);
        let sub = Arc::new(SubLattice::single(global).unwrap());
        let faces = FaceGeometry::new(&sub, STAGGERED_DEPTH).unwrap();
        let thin = GaugeField::<f64>::generate(
            sub.clone(),
            &faces,
            global,
            &SeedTree::new(8),
            GaugeStart::Cold,
        );
        let links = AsqtadLinks::compute(&thin, global, &AsqtadCoeffs::default());
        let op = StaggeredOp::new(links.fat, links.long, 0.0).unwrap();
        let sub = op.sublattice().clone();
        let mut so = op.alloc(Parity::Odd);
        let c0 = [1, 2, 3, 5];
        assert_eq!(sub.parity(c0), Parity::Odd);
        let mut v = ColorVector::zero();
        v.c[0] = Complex::one();
        so.set_site(sub.cb_index(c0), v);
        let mut comm = SingleComm::new(global).unwrap();
        let mut de = op.alloc(Parity::Even);
        op.dslash(&mut de, &mut so, &mut comm, BoundaryMode::Full).unwrap();
        let mut support = Vec::new();
        for (idx, c) in sub.sites(Parity::Even) {
            if de.site(idx).norm_sqr() > 1e-20 {
                support.push(c);
            }
        }
        // 8 one-hop + 8 three-hop neighbours.
        assert_eq!(support.len(), 16);
        for c in support {
            let dist: usize = (0..4)
                .map(|d| {
                    let l = global.0[d] as isize;
                    let diff = (c[d] as isize - c0[d] as isize).rem_euclid(l);
                    diff.min(l - diff) as usize
                })
                .sum();
            assert!(dist == 1 || dist == 3, "unexpected support at {c:?}");
        }
    }
}
