//! The Wilson and Wilson-clover Dirac operators.
//!
//! Conventions (paper §2.2): the full matrix is
//! `M = −(1/2) D + (4 + m + A)` with the hopping term
//! `D_{x,x'} = Σ_µ [P−µ ⊗ U_µ(x) δ_{x+µ̂,x'} + P+µ ⊗ U†_µ(x−µ̂) δ_{x−µ̂,x'}]`.
//! Internally we compute the *doubled* stencil `D̂ = 2D` (our projectors
//! return `(1 ± γµ)ψ`, twice `P±ψ`, saving the halving until the final
//! axpy), so `M ψ = T ψ − (1/4) D̂ ψ` with `T = 4 + m + A` site-diagonal.
//!
//! Even-odd (red-black) preconditioning solves the Schur complement
//! `M̂_oo = T_oo − (1/16) D̂_oe T_ee⁻¹ D̂_eo` (§3.1).
//!
//! The per-site work runs through `kernels::SiteKernels`: on x86_64 an
//! f32 or f64 operator takes bit-identical SIMD kernels (chosen by a safe
//! `Any` downcast of the operator and its fields, so every signature
//! stays generic over `R: Real`) at the lane width it picked when it was
//! built; everything else takes the generic per-site code, which is also
//! the oracle the kernels are tested against.

mod kernels;

use crate::dispatch::with_kernels;
use crate::overlap::{self, OverlapHost, OverlapPipeline, Stencil};
use crate::BoundaryMode;
use kernels::SiteKernels;
use lqcd_comms::Communicator;
use lqcd_field::{BodyView, LatticeField};
use lqcd_gauge::GaugeField;
use lqcd_lattice::{FaceGeometry, NeighborTable, Parity, SubLattice};
#[cfg(target_arch = "x86_64")]
use lqcd_su3::kernels::Width;
use lqcd_su3::{CloverSite, WilsonSpinor};
use lqcd_util::{Error, Real, Result};
use std::sync::{Arc, Mutex};

/// Ghost-zone depth of the Wilson stencil (nearest neighbour).
pub const WILSON_DEPTH: usize = 1;

/// A Wilson spinor field.
pub type SpinorField<R> = LatticeField<R, WilsonSpinor<R>>;

/// Reals of one Wilson spinor.
const SPINOR: usize = 24;

/// A site-diagonal pass over one parity, `T = 4 + m + A`.
#[derive(Clone, Copy)]
enum Diag {
    /// `out = T src`.
    T,
    /// `out = T src + c·out`.
    TPlus(f64),
    /// `out = T⁻¹ src`.
    TInv,
    /// `out = T⁻¹ (src + c·out)`.
    TInvOf(f64),
}

/// The Wilson(-clover) operator bound to one rank's gauge field.
pub struct WilsonCloverOp<R: Real> {
    /// Gauge links with depth-1 backward ghosts.
    pub gauge: GaugeField<R>,
    /// The clover term `A` per parity (*without* the `4 + m` shift);
    /// `None` gives the plain Wilson operator.
    pub clover: Option<[LatticeField<R, CloverSite<R>>; 2]>,
    /// Precomputed `(4 + m + A)⁻¹` per parity (needed for even-odd
    /// preconditioning); built by [`WilsonCloverOp::build_t_inverse`].
    pub t_inv: Option<[LatticeField<R, CloverSite<R>>; 2]>,
    /// Quark mass parameter `m`.
    pub mass: f64,
    sub: Arc<SubLattice>,
    faces: FaceGeometry,
    /// Nearest-neighbour hops of every site.
    nbrs: Arc<NeighborTable>,
    /// Exchange buffers, apply counters, interior worker count.
    overlap: Mutex<OverlapPipeline<R>>,
    /// The lane width of the SIMD site kernels: the widest the CPU runs.
    #[cfg(target_arch = "x86_64")]
    width: Width,
}

impl<R: Real> Clone for WilsonCloverOp<R> {
    fn clone(&self) -> Self {
        // Fresh pipeline state (buffers are lazily re-sized; counters
        // start at zero), same interior worker count.
        let threads = self.interior_threads();
        WilsonCloverOp {
            gauge: self.gauge.clone(),
            clover: self.clover.clone(),
            t_inv: self.t_inv.clone(),
            mass: self.mass,
            sub: self.sub.clone(),
            faces: self.faces.clone(),
            nbrs: self.nbrs.clone(),
            overlap: Mutex::new(OverlapPipeline::with_threads(threads)),
            #[cfg(target_arch = "x86_64")]
            width: self.width,
        }
    }
}

impl<R: Real> OverlapHost<R> for WilsonCloverOp<R> {
    fn overlap_state(&self) -> &Mutex<OverlapPipeline<R>> {
        &self.overlap
    }
}

impl<R: Real> WilsonCloverOp<R> {
    /// Bind the operator to a gauge field (and optional clover term).
    pub fn new(
        gauge: GaugeField<R>,
        clover: Option<[LatticeField<R, CloverSite<R>>; 2]>,
        mass: f64,
    ) -> Result<Self> {
        let sub = gauge.sublattice().clone();
        if let Some(clover) = &clover {
            for (field, parity) in clover.iter().zip(Parity::BOTH) {
                if field.parity() != parity {
                    return Err(Error::Shape(format!(
                        "clover field {} holds parity {:?}, expected {parity:?}",
                        parity.index(),
                        field.parity()
                    )));
                }
                if **field.sublattice() != *sub {
                    return Err(Error::Shape(format!(
                        "gauge links live on {sub:?}, the {parity:?} clover term on {:?}",
                        field.sublattice()
                    )));
                }
            }
        }
        let faces = FaceGeometry::new(&sub, WILSON_DEPTH)?;
        if gauge.depth() < WILSON_DEPTH {
            return Err(Error::Geometry(
                "gauge field ghost depth too small for the Wilson stencil".into(),
            ));
        }
        let nbrs = Arc::new(NeighborTable::new(&sub, WILSON_DEPTH)?);
        Ok(Self {
            gauge,
            clover,
            t_inv: None,
            mass,
            sub,
            faces,
            nbrs,
            overlap: Mutex::new(OverlapPipeline::default()),
            #[cfg(target_arch = "x86_64")]
            width: Width::detect(),
        })
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

    /// The face geometry (depth 1).
    pub fn faces(&self) -> &FaceGeometry {
        &self.faces
    }

    /// Allocate a compatible spinor field.
    pub fn alloc(&self, parity: Parity) -> SpinorField<R> {
        LatticeField::zeros(self.sub.clone(), &self.faces, parity, 0)
    }

    /// The diagonal shift `4 + m`.
    #[inline]
    pub fn diag_shift(&self) -> R {
        R::from_f64(4.0 + self.mass)
    }

    /// Precompute `T⁻¹ = (4 + m + A)⁻¹` for even-odd preconditioning.
    pub fn build_t_inverse(&mut self) -> Result<()> {
        let shift = self.diag_shift();
        let mut out = [
            LatticeField::zeros(self.sub.clone(), &self.faces, Parity::Even, 0),
            LatticeField::zeros(self.sub.clone(), &self.faces, Parity::Odd, 0),
        ];
        for p in Parity::BOTH {
            let n = out[p.index()].num_sites();
            for idx in 0..n {
                let a = match &self.clover {
                    Some(c) => c[p.index()].site(idx),
                    None => CloverSite::default(),
                };
                out[p.index()].set_site(idx, a.add_diag(shift).inverse()?);
            }
        }
        self.t_inv = Some(out);
        Ok(())
    }

    /// The doubled hopping stencil `out = D̂ src` (`D̂ = 2D`), pipelined
    /// as in the paper's Fig. 4: face gathers are packed and posted as
    /// nonblocking exchanges, the interior kernel runs while they are in
    /// flight (optionally on worker threads — see
    /// [`OverlapHost::set_interior_threads`]), the partitioned
    /// dimensions' ghosts are completed in ascending µ, and the exterior
    /// kernels run last.
    ///
    /// `src` is mutable because its ghost zones are refreshed in `Full`
    /// mode. `out` must have the opposite parity of `src`. Output is
    /// bit-identical to [`WilsonCloverOp::dslash_sequential`] for every
    /// thread count.
    pub fn dslash<C: Communicator>(
        &self,
        out: &mut SpinorField<R>,
        src: &mut SpinorField<R>,
        comm: &mut C,
        mode: BoundaryMode,
    ) -> Result<()> {
        with_kernels!(self as WilsonCloverOp<f32> | WilsonCloverOp<f64>, |op, k| [out, src] op
            .dslash_with(k, out, src, comm, mode))
    }

    /// [`WilsonCloverOp::dslash`] with the given site kernels.
    fn dslash_with<K: SiteKernels<R>, C: Communicator>(
        &self,
        k: K,
        out: &mut SpinorField<R>,
        src: &mut SpinorField<R>,
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
        out: &mut SpinorField<R>,
        src: &mut SpinorField<R>,
        comm: &mut C,
        mode: BoundaryMode,
    ) -> Result<()> {
        with_kernels!(self as WilsonCloverOp<f32> | WilsonCloverOp<f64>, |op, k| [out, src] overlap::dslash_sequential(
            &Bound(op, k),
            out,
            src,
            comm,
            mode
        ))
    }

    /// Site-diagonal term: `out = (4 + m) src + A src`.
    pub fn t_apply(&self, out: &mut SpinorField<R>, src: &SpinorField<R>) {
        with_kernels!(self as WilsonCloverOp<f32> | WilsonCloverOp<f64>, |op, k| [out, src] op
            .diag_with(k, out, src, Diag::T)
            .expect("T apply: out and src differ in site count"))
    }

    /// Apply the precomputed `T⁻¹` (requires
    /// [`WilsonCloverOp::build_t_inverse`]).
    pub fn t_inv_apply(&self, out: &mut SpinorField<R>, src: &SpinorField<R>) -> Result<()> {
        with_kernels!(self as WilsonCloverOp<f32> | WilsonCloverOp<f64>, |op, k| [out, src] op
            .diag_with(k, out, src, Diag::TInv))
    }

    /// The precomputed `T⁻¹` of parity `p`.
    fn t_inv_field(&self, p: Parity) -> Result<&LatticeField<R, CloverSite<R>>> {
        let t_inv = self.t_inv.as_ref().ok_or_else(|| {
            Error::Config(
                "T-inverse not built; call build_t_inverse() before even-odd preconditioning"
                    .into(),
            )
        })?;
        Ok(&t_inv[p.index()])
    }

    /// One site-diagonal pass over the parity of `src`.
    fn diag_with<K: SiteKernels<R>>(
        &self,
        k: K,
        out: &mut SpinorField<R>,
        src: &SpinorField<R>,
        pass: Diag,
    ) -> Result<()> {
        if out.num_sites() != src.num_sites() {
            return Err(Error::Shape(format!(
                "site-diagonal pass: out has {} sites, src {}",
                out.num_sites(),
                src.num_sites()
            )));
        }
        let p = src.parity();
        let t_inv = match pass {
            Diag::TInv | Diag::TInvOf(_) => self.t_inv_field(p)?.body(),
            Diag::T | Diag::TPlus(_) => &[],
        };
        k.diag(self, p, pass, t_inv, out.body_mut(), src.body());
        Ok(())
    }

    /// Full (two-parity) operator: `out = M src = T src − (1/4) D̂ src`.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_full<C: Communicator>(
        &self,
        out_e: &mut SpinorField<R>,
        out_o: &mut SpinorField<R>,
        src_e: &mut SpinorField<R>,
        src_o: &mut SpinorField<R>,
        comm: &mut C,
        mode: BoundaryMode,
    ) -> Result<()> {
        with_kernels!(self as WilsonCloverOp<f32> | WilsonCloverOp<f64>, |op, k| [out_e, out_o, src_e, src_o] op
            .apply_full_with(k, out_e, out_o, src_e, src_o, comm, mode))
    }

    fn apply_full_with<K: SiteKernels<R>, C: Communicator>(
        &self,
        k: K,
        out_e: &mut SpinorField<R>,
        out_o: &mut SpinorField<R>,
        src_e: &mut SpinorField<R>,
        src_o: &mut SpinorField<R>,
        comm: &mut C,
        mode: BoundaryMode,
    ) -> Result<()> {
        // Hopping parts first (they overwrite `out`), then one in-place
        // pass per parity: `out = T src − (1/4) out`.
        self.dslash_with(k, out_e, src_o, comm, mode)?;
        self.dslash_with(k, out_o, src_e, comm, mode)?;
        self.diag_with(k, out_e, src_e, Diag::TPlus(-0.25))?;
        self.diag_with(k, out_o, src_o, Diag::TPlus(-0.25))
    }

    /// Even-odd preconditioned operator on the odd parity:
    /// `out = M̂ src = T_oo src − (1/16) D̂_oe T_ee⁻¹ D̂_eo src`.
    pub fn apply_eo_prec<C: Communicator>(
        &self,
        out: &mut SpinorField<R>,
        src: &mut SpinorField<R>,
        scratch_e: &mut SpinorField<R>,
        scratch_e2: &mut SpinorField<R>,
        comm: &mut C,
        mode: BoundaryMode,
    ) -> Result<()> {
        with_kernels!(self as WilsonCloverOp<f32> | WilsonCloverOp<f64>, |op, k| [out, src, scratch_e, scratch_e2] op
            .apply_eo_prec_with(k, out, src, scratch_e, scratch_e2, comm, mode))
    }

    fn apply_eo_prec_with<K: SiteKernels<R>, C: Communicator>(
        &self,
        k: K,
        out: &mut SpinorField<R>,
        src: &mut SpinorField<R>,
        scratch_e: &mut SpinorField<R>,
        scratch_e2: &mut SpinorField<R>,
        comm: &mut C,
        mode: BoundaryMode,
    ) -> Result<()> {
        if src.parity() != Parity::Odd {
            return Err(Error::Shape("eo-preconditioned operator acts on odd parity".into()));
        }
        self.dslash_with(k, scratch_e, src, comm, mode)?;
        self.diag_with(k, scratch_e2, scratch_e, Diag::TInv)?;
        self.dslash_with(k, out, scratch_e2, comm, mode)?;
        self.diag_with(k, out, src, Diag::TPlus(-1.0 / 16.0))
    }

    /// Reconstruct the even solution after an odd-parity Schur solve:
    /// `x_e = T_ee⁻¹ (b_e + (1/4) D̂_eo x_o)`.
    pub fn reconstruct_even<C: Communicator>(
        &self,
        x_e: &mut SpinorField<R>,
        b_e: &SpinorField<R>,
        x_o: &mut SpinorField<R>,
        comm: &mut C,
        mode: BoundaryMode,
    ) -> Result<()> {
        with_kernels!(self as WilsonCloverOp<f32> | WilsonCloverOp<f64>, |op, k| [x_e, b_e, x_o] op
            .reconstruct_even_with(k, x_e, b_e, x_o, comm, mode))
    }

    fn reconstruct_even_with<K: SiteKernels<R>, C: Communicator>(
        &self,
        k: K,
        x_e: &mut SpinorField<R>,
        b_e: &SpinorField<R>,
        x_o: &mut SpinorField<R>,
        comm: &mut C,
        mode: BoundaryMode,
    ) -> Result<()> {
        // Fail before `x_e` is overwritten when `T⁻¹` is missing.
        self.t_inv_field(b_e.parity())?;
        self.dslash_with(k, x_e, x_o, comm, mode)?;
        self.diag_with(k, x_e, b_e, Diag::TInvOf(0.25))
    }
}

/// The operator bound to site kernels `K`, as the dslash drivers see it.
struct Bound<'a, R: Real, K>(&'a WilsonCloverOp<R>, K);

impl<R: Real, K: SiteKernels<R>> Stencil<R> for Bound<'_, R, K> {
    type Site = WilsonSpinor<R>;

    fn sub(&self) -> &SubLattice {
        &self.0.sub
    }

    fn faces(&self) -> &FaceGeometry {
        &self.0.faces
    }

    fn state(&self) -> &Mutex<OverlapPipeline<R>> {
        &self.0.overlap
    }

    fn interior(
        &self,
        out_chunk: &mut [R],
        lo_site: usize,
        src: BodyView<'_, R, WilsonSpinor<R>>,
        _staged: &[R],
        out_parity: Parity,
        src_parity: Parity,
    ) {
        self.1.interior(self.0, out_chunk, lo_site, src, out_parity, src_parity);
    }

    fn exterior(&self, out: &mut SpinorField<R>, src: &SpinorField<R>, mu: usize) {
        self.1.exterior(self.0, out, src, mu);
    }
}

/// Apply γ₅ to every site of a spinor field in place. With the
/// γ₅-hermiticity of the Wilson operator (`γ₅ M γ₅ = M†`, likewise for
/// the even-odd Schur complement), this makes adjoint applications free —
/// the basis of CGNR/CGNE (§3.1).
pub fn gamma5_in_place<R: Real>(f: &mut SpinorField<R>) {
    for idx in 0..f.num_sites() {
        f.set_site(idx, lqcd_su3::gamma::gamma5(&f.site(idx)));
    }
}

// After `with_kernels!`: macro_rules scope is textual.
#[cfg(test)]
mod kernel_equality;

#[cfg(test)]
mod tests {
    use super::*;
    use lqcd_comms::SingleComm;
    use lqcd_field::blas::{self, cdot_local, max_abs_diff, norm2_local};
    use lqcd_gauge::clover_build::build_clover_field;
    use lqcd_gauge::field::GaugeStart;
    use lqcd_lattice::Dims;
    use lqcd_su3::gamma::{gamma5, project_reference};
    use lqcd_util::rng::SeedTree;
    use lqcd_util::Complex;

    const GLOBAL: Dims = Dims([4, 4, 4, 8]);

    fn make_op(start: GaugeStart, mass: f64, with_clover: bool) -> WilsonCloverOp<f64> {
        let sub = Arc::new(SubLattice::single(GLOBAL).unwrap());
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        let gauge = GaugeField::<f64>::generate(sub, &faces, GLOBAL, &SeedTree::new(5), start);
        let clover = with_clover.then(|| build_clover_field(&gauge, GLOBAL, 1.0));
        WilsonCloverOp::new(gauge, clover, mass).unwrap()
    }

    /// Rank `rank`'s gauge field and clover pair on a 1×1×1×2 grid of 8⁴.
    fn rank_fields(rank: usize) -> (GaugeField<f64>, [LatticeField<f64, CloverSite<f64>>; 2]) {
        let global = Dims([8, 8, 8, 8]);
        let grid = lqcd_lattice::ProcessGrid::new(Dims([1, 1, 1, 2]), global).unwrap();
        let sub = Arc::new(SubLattice::for_rank(&grid, rank));
        let faces = FaceGeometry::new(&sub, WILSON_DEPTH).unwrap();
        let start = GaugeStart::Disordered(0.2);
        let gauge =
            GaugeField::<f64>::generate(sub.clone(), &faces, global, &SeedTree::new(5), start);
        let clover = Parity::BOTH.map(|p| LatticeField::zeros(sub.clone(), &faces, p, 0));
        (gauge, clover)
    }

    #[test]
    fn new_rejects_a_clover_term_of_another_subvolume() {
        let ((gauge, clover), (_, other)) = (rank_fields(0), rank_fields(1));
        assert_eq!(gauge.sublattice().dims, other[0].sublattice().dims);
        let err = WilsonCloverOp::new(gauge.clone(), Some(other), 0.1).err();
        assert!(matches!(err, Some(Error::Shape(_))), "{err:?}");
        assert!(WilsonCloverOp::new(gauge, Some(clover), 0.1).is_ok());
    }

    #[test]
    fn new_rejects_a_clover_pair_with_swapped_parities() {
        let (gauge, [even, odd]) = rank_fields(0);
        let err = WilsonCloverOp::new(gauge, Some([odd, even]), 0.1).err();
        assert!(matches!(err, Some(Error::Shape(_))), "{err:?}");
    }

    fn rand_pair(op: &WilsonCloverOp<f64>, seed: u64) -> (SpinorField<f64>, SpinorField<f64>) {
        let t = SeedTree::new(seed);
        let mut rng = t.rng();
        let mut e = op.alloc(Parity::Even);
        e.fill(|_| WilsonSpinor::random(&mut rng));
        let mut o = op.alloc(Parity::Odd);
        o.fill(|_| WilsonSpinor::random(&mut rng));
        (e, o)
    }

    /// Independent reference: apply M to a full-lattice vector indexed by
    /// global coordinates using the dense projector formula.
    fn reference_apply(
        op: &WilsonCloverOp<f64>,
        src_e: &SpinorField<f64>,
        src_o: &SpinorField<f64>,
    ) -> (SpinorField<f64>, SpinorField<f64>) {
        let sub = op.sublattice().clone();
        let fetch = |c: [usize; 4]| -> WilsonSpinor<f64> {
            let p = sub.parity(c);
            let f = if p == Parity::Even { src_e } else { src_o };
            f.site(sub.cb_index(c))
        };
        let link = |c: [usize; 4], mu: usize| -> lqcd_su3::Su3<f64> {
            op.gauge.link(mu, sub.parity(c), sub.cb_index(c))
        };
        let mut out_e = op.alloc(Parity::Even);
        let mut out_o = op.alloc(Parity::Odd);
        for p in Parity::BOTH {
            for (idx, c) in sub.sites(p) {
                // T part.
                let s = fetch(c);
                let mut acc = s.scale(4.0 + op.mass);
                if let Some(cl) = &op.clover {
                    acc = acc.add(&cl[p.index()].site(idx).apply(&s));
                }
                // Hopping: −(1/2) Σ [P−µ U ψ(x+µ̂) + P+µ U† ψ(x−µ̂)]
                //        = −(1/4) Σ [(1−γµ) ... ] with doubled projectors.
                for mu in 0..4 {
                    let cp = GLOBAL.displace(c, mu, 1);
                    let cm = GLOBAL.displace(c, mu, -1);
                    let fwd = project_reference(mu, false, &fetch(cp));
                    let fwd = WilsonSpinor::from_fn(|sp| link(c, mu).mul_vec(&fwd.s[sp]));
                    let bwd = project_reference(mu, true, &fetch(cm));
                    let bwd = WilsonSpinor::from_fn(|sp| link(cm, mu).adj_mul_vec(&bwd.s[sp]));
                    acc = acc.add(&fwd.add(&bwd).scale(-0.25));
                }
                if p == Parity::Even {
                    out_e.set_site(idx, acc);
                } else {
                    out_o.set_site(idx, acc);
                }
            }
        }
        (out_e, out_o)
    }

    #[test]
    fn matches_reference_plain_wilson() {
        let op = make_op(GaugeStart::Disordered(0.3), 0.1, false);
        let (mut se, mut so) = rand_pair(&op, 1);
        let (want_e, want_o) = reference_apply(&op, &se, &so);
        let mut comm = SingleComm::new(GLOBAL).unwrap();
        let mut oe = op.alloc(Parity::Even);
        let mut oo = op.alloc(Parity::Odd);
        op.apply_full(&mut oe, &mut oo, &mut se, &mut so, &mut comm, BoundaryMode::Full).unwrap();
        assert!(max_abs_diff(&oe, &want_e) < 1e-12);
        assert!(max_abs_diff(&oo, &want_o) < 1e-12);
    }

    #[test]
    fn matches_reference_with_clover() {
        let op = make_op(GaugeStart::Disordered(0.25), -0.2, true);
        let (mut se, mut so) = rand_pair(&op, 2);
        let (want_e, want_o) = reference_apply(&op, &se, &so);
        let mut comm = SingleComm::new(GLOBAL).unwrap();
        let mut oe = op.alloc(Parity::Even);
        let mut oo = op.alloc(Parity::Odd);
        op.apply_full(&mut oe, &mut oo, &mut se, &mut so, &mut comm, BoundaryMode::Full).unwrap();
        assert!(max_abs_diff(&oe, &want_e) < 1e-12);
        assert!(max_abs_diff(&oo, &want_o) < 1e-12);
    }

    #[test]
    fn free_field_point_source_stencil() {
        // Cold links, source δ at one even site: M δ = (4+m)δ at the site
        // and −(1/2)P∓ at the eight neighbours.
        let op = make_op(GaugeStart::Cold, 0.5, false);
        let sub = op.sublattice().clone();
        let mut se = op.alloc(Parity::Even);
        let mut so = op.alloc(Parity::Odd);
        let c0 = [2, 2, 2, 4];
        assert_eq!(sub.parity(c0), Parity::Even);
        let mut point = WilsonSpinor::zero();
        point.s[0].c[0] = Complex::one();
        se.set_site(sub.cb_index(c0), point);
        let mut comm = SingleComm::new(GLOBAL).unwrap();
        let mut oe = op.alloc(Parity::Even);
        let mut oo = op.alloc(Parity::Odd);
        op.apply_full(&mut oe, &mut oo, &mut se, &mut so, &mut comm, BoundaryMode::Full).unwrap();
        // At the source: (4 + 0.5)·δ.
        let at_src = oe.site(sub.cb_index(c0));
        assert!((at_src.s[0].c[0].re - 4.5).abs() < 1e-13);
        // At the +T neighbour: −(1/2)(P+t ψ)... the neighbour receives the
        // backward-hop term −(1/2) P+µ δ; for t: P+t point has norm² 1/2.
        let ct = GLOBAL.displace(c0, 3, 1);
        let at_t = oo.site(sub.cb_index(ct));
        let expect = project_reference(3, true, &point).scale(-0.25);
        assert!(at_t.sub(&expect).norm_sqr() < 1e-26);
        // Total support: exactly 9 sites (source + 8 neighbours).
        let mut support = 0;
        for idx in 0..oe.num_sites() {
            if oe.site(idx).norm_sqr() > 1e-20 {
                support += 1;
            }
        }
        for idx in 0..oo.num_sites() {
            if oo.site(idx).norm_sqr() > 1e-20 {
                support += 1;
            }
        }
        assert_eq!(support, 9);
    }

    #[test]
    fn gamma5_hermiticity() {
        // γ₅ M γ₅ = M†, i.e. ⟨w, M v⟩ = ⟨γ₅ M γ₅ w, v⟩.
        let op = make_op(GaugeStart::Disordered(0.3), 0.05, true);
        let (mut ve, mut vo) = rand_pair(&op, 3);
        let (we, wo) = rand_pair(&op, 4);
        let mut comm = SingleComm::new(GLOBAL).unwrap();
        let mut mv_e = op.alloc(Parity::Even);
        let mut mv_o = op.alloc(Parity::Odd);
        op.apply_full(&mut mv_e, &mut mv_o, &mut ve, &mut vo, &mut comm, BoundaryMode::Full)
            .unwrap();
        let lhs = cdot_local(&we, &mv_e) + cdot_local(&wo, &mv_o);
        // γ₅ w.
        let g5 = |f: &SpinorField<f64>| {
            let mut out = LatticeField::zeros_like(f);
            for idx in 0..f.num_sites() {
                out.set_site(idx, gamma5(&f.site(idx)));
            }
            out
        };
        let mut g5we = g5(&we);
        let mut g5wo = g5(&wo);
        let mut mg_e = op.alloc(Parity::Even);
        let mut mg_o = op.alloc(Parity::Odd);
        op.apply_full(&mut mg_e, &mut mg_o, &mut g5we, &mut g5wo, &mut comm, BoundaryMode::Full)
            .unwrap();
        let g5mg_e = g5(&mg_e);
        let g5mg_o = g5(&mg_o);
        let rhs = cdot_local(&g5mg_e, &ve) + cdot_local(&g5mg_o, &vo);
        assert!(
            (lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0),
            "γ₅-hermiticity violated: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn schur_complement_identity() {
        // For b = M x: M̂ x_o == b_o + (1/4) D̂_oe T_ee⁻¹ b_e.
        let mut op = make_op(GaugeStart::Disordered(0.3), 0.2, true);
        op.build_t_inverse().unwrap();
        let (mut xe, mut xo) = rand_pair(&op, 5);
        let mut comm = SingleComm::new(GLOBAL).unwrap();
        let mut be = op.alloc(Parity::Even);
        let mut bo = op.alloc(Parity::Odd);
        op.apply_full(&mut be, &mut bo, &mut xe, &mut xo, &mut comm, BoundaryMode::Full).unwrap();
        // LHS: M̂ x_o.
        let mut lhs = op.alloc(Parity::Odd);
        let mut s1 = op.alloc(Parity::Even);
        let mut s2 = op.alloc(Parity::Even);
        op.apply_eo_prec(&mut lhs, &mut xo, &mut s1, &mut s2, &mut comm, BoundaryMode::Full)
            .unwrap();
        // RHS: b_o + (1/4) D̂_oe T⁻¹ b_e.
        let mut tinv_be = op.alloc(Parity::Even);
        op.t_inv_apply(&mut tinv_be, &be).unwrap();
        let mut rhs = op.alloc(Parity::Odd);
        op.dslash(&mut rhs, &mut tinv_be, &mut comm, BoundaryMode::Full).unwrap();
        blas::scale(&mut rhs, 0.25);
        blas::axpy(1.0, &bo, &mut rhs);
        assert!(max_abs_diff(&lhs, &rhs) < 1e-11);
    }

    #[test]
    fn even_reconstruction_completes_the_solve() {
        // If x solves Mx = b then reconstruct_even recovers x_e from
        // (b_e, x_o).
        let mut op = make_op(GaugeStart::Disordered(0.2), 0.3, true);
        op.build_t_inverse().unwrap();
        let (mut xe, mut xo) = rand_pair(&op, 6);
        let mut comm = SingleComm::new(GLOBAL).unwrap();
        let mut be = op.alloc(Parity::Even);
        let mut bo = op.alloc(Parity::Odd);
        op.apply_full(&mut be, &mut bo, &mut xe, &mut xo, &mut comm, BoundaryMode::Full).unwrap();
        let mut xe_rec = op.alloc(Parity::Even);
        op.reconstruct_even(&mut xe_rec, &be, &mut xo, &mut comm, BoundaryMode::Full).unwrap();
        assert!(max_abs_diff(&xe_rec, &xe) < 1e-11);
    }

    #[test]
    fn dirichlet_equals_full_on_unpartitioned_lattice() {
        let op = make_op(GaugeStart::Disordered(0.3), 0.1, false);
        let (_, mut so) = rand_pair(&op, 7);
        let mut comm = SingleComm::new(GLOBAL).unwrap();
        let mut a = op.alloc(Parity::Even);
        let mut b = op.alloc(Parity::Even);
        op.dslash(&mut a, &mut so, &mut comm, BoundaryMode::Full).unwrap();
        op.dslash(&mut b, &mut so, &mut comm, BoundaryMode::Dirichlet).unwrap();
        assert_eq!(max_abs_diff(&a, &b), 0.0);
        assert!(norm2_local(&a) > 0.0);
    }
}
