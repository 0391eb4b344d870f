//! [`SolverSpace`] implementations for the distributed lattice operators.
//!
//! * [`EoWilsonSpace`] — the even-odd preconditioned Wilson-clover
//!   operator `M̂_oo` (what BiCGstab and GCR-DD solve in §9.1);
//! * [`StaggeredNormalSpace`] — the parity-decoupled staggered normal
//!   operator `(M†M)_ee` (what multi-shift CG solves in §9.2);
//! * [`FieldBridge`] — the double↔single precision bridge for the
//!   mixed-precision drivers.
//!
//! Reductions compute rank-local partials in `f64` and combine them with
//! one allreduce; the Dirichlet (Schwarz-block) paths use local partials
//! only.

use crate::mixed::Bridge;
use crate::space::{DirichletMatvec, SolverSpace};
use lqcd_comms::Communicator;
use lqcd_dirac::staggered::StaggeredField;
use lqcd_dirac::wilson::SpinorField;
use lqcd_dirac::{BoundaryMode, StaggeredOp, WilsonCloverOp};
use lqcd_field::blas;
use lqcd_field::half::Quantize;
use lqcd_lattice::Parity;
use lqcd_util::{Complex, Real, Result};

/// Shared BLAS delegation for spaces whose vectors are lattice fields.
macro_rules! field_space_blas {
    ($site:ident) => {
        fn dot(&mut self, a: &Self::V, b: &Self::V) -> Result<Complex<f64>> {
            let local = blas::cdot_local(a, b);
            let (re, im) = self.comm.sum_complex(local.re, local.im)?;
            Ok(Complex::new(re, im))
        }

        fn norm2(&mut self, a: &Self::V) -> Result<f64> {
            self.comm.sum_scalar(blas::norm2_local(a))
        }

        fn copy(&mut self, dst: &mut Self::V, src: &Self::V) {
            blas::copy(dst, src);
        }

        fn zero(&mut self, v: &mut Self::V) {
            blas::zero(v);
        }

        fn axpy(&mut self, a: f64, x: &Self::V, y: &mut Self::V) {
            blas::axpy(R::from_f64(a), x, y);
        }

        fn caxpy(&mut self, a: Complex<f64>, x: &Self::V, y: &mut Self::V) {
            blas::caxpy(a.cast::<R>(), x, y);
        }

        fn xpay(&mut self, x: &Self::V, a: f64, y: &mut Self::V) {
            blas::xpay(x, R::from_f64(a), y);
        }

        fn cxpay(&mut self, x: &Self::V, a: Complex<f64>, y: &mut Self::V) {
            blas::cxpay(x, a.cast::<R>(), y);
        }

        fn scale(&mut self, v: &mut Self::V, a: f64) {
            blas::scale(v, R::from_f64(a));
        }

        fn quantize(&mut self, v: &mut Self::V) {
            if self.half_storage {
                <$site<R> as Quantize<R>>::quantize_in_place(v);
            }
        }

        fn matvec_count(&self) -> usize {
            self.matvecs
        }
    };
}

/// The even-odd preconditioned Wilson-clover system
/// `M̂ x = T_oo x − (1/16) D̂_oe T_ee⁻¹ D̂_eo x` on the odd parity.
pub struct EoWilsonSpace<R: Real, C: Communicator> {
    /// The bound operator (must have its T-inverse built).
    pub op: WilsonCloverOp<R>,
    /// This rank's communicator.
    pub comm: C,
    /// Store Krylov vectors in 16-bit fixed point when asked to quantize
    /// (meaningful at single precision only).
    pub half_storage: bool,
    scratch_e: SpinorField<R>,
    scratch_e2: SpinorField<R>,
    matvecs: usize,
    dmatvecs: usize,
}

impl<R: Real, C: Communicator> EoWilsonSpace<R, C> {
    /// Wrap an operator (builds the `T⁻¹` tables if missing).
    pub fn new(mut op: WilsonCloverOp<R>, comm: C) -> Result<Self> {
        if op.t_inv.is_none() {
            op.build_t_inverse()?;
        }
        let scratch_e = op.alloc(Parity::Even);
        let scratch_e2 = op.alloc(Parity::Even);
        Ok(Self { op, comm, half_storage: false, scratch_e, scratch_e2, matvecs: 0, dmatvecs: 0 })
    }

    /// Enable half-precision Krylov storage semantics.
    pub fn with_half_storage(mut self) -> Self {
        self.half_storage = true;
        self
    }

    /// Dirichlet matvec count (preconditioner work).
    pub fn dirichlet_matvecs(&self) -> usize {
        self.dmatvecs
    }
}

impl<R: Real, C: Communicator> SolverSpace for EoWilsonSpace<R, C>
where
    lqcd_su3::WilsonSpinor<R>: Quantize<R>,
{
    type V = SpinorField<R>;

    fn alloc(&mut self) -> Self::V {
        self.op.alloc(Parity::Odd)
    }

    fn matvec(&mut self, out: &mut Self::V, x: &mut Self::V) -> Result<()> {
        self.matvecs += 1;
        self.op.apply_eo_prec(
            out,
            x,
            &mut self.scratch_e,
            &mut self.scratch_e2,
            &mut self.comm,
            BoundaryMode::Full,
        )
    }

    field_space_blas!(WilsonSpinorAlias);
}

use lqcd_su3::ColorVector as ColorVectorAlias;
/// Alias so the macro can name the site type generically.
use lqcd_su3::WilsonSpinor as WilsonSpinorAlias;

impl<R: Real, C: Communicator> DirichletMatvec for EoWilsonSpace<R, C>
where
    lqcd_su3::WilsonSpinor<R>: Quantize<R>,
{
    fn matvec_dirichlet(&mut self, out: &mut Self::V, x: &mut Self::V) -> Result<()> {
        self.dmatvecs += 1;
        self.op.apply_eo_prec(
            out,
            x,
            &mut self.scratch_e,
            &mut self.scratch_e2,
            &mut self.comm,
            BoundaryMode::Dirichlet,
        )
    }

    fn dot_local(&mut self, a: &Self::V, b: &Self::V) -> Complex<f64> {
        blas::cdot_local(a, b)
    }

    fn norm2_local(&mut self, a: &Self::V) -> f64 {
        blas::norm2_local(a)
    }

    fn dirichlet_count(&self) -> usize {
        self.dmatvecs
    }
}

/// The staggered normal system `(M†M)_ee x = m² x − (1/4)(D_eo D_oe) x`
/// on the even parity.
pub struct StaggeredNormalSpace<R: Real, C: Communicator> {
    /// The bound operator.
    pub op: StaggeredOp<R>,
    /// This rank's communicator.
    pub comm: C,
    /// Half-precision storage semantics for `quantize`.
    pub half_storage: bool,
    scratch_o: StaggeredField<R>,
    matvecs: usize,
    dmatvecs: usize,
}

impl<R: Real, C: Communicator> StaggeredNormalSpace<R, C> {
    /// Wrap an operator.
    pub fn new(op: StaggeredOp<R>, comm: C) -> Self {
        let scratch_o = op.alloc(Parity::Odd);
        Self { op, comm, half_storage: false, scratch_o, matvecs: 0, dmatvecs: 0 }
    }
}

impl<R: Real, C: Communicator> SolverSpace for StaggeredNormalSpace<R, C>
where
    lqcd_su3::ColorVector<R>: Quantize<R>,
{
    type V = StaggeredField<R>;

    fn alloc(&mut self) -> Self::V {
        self.op.alloc(Parity::Even)
    }

    fn matvec(&mut self, out: &mut Self::V, x: &mut Self::V) -> Result<()> {
        self.matvecs += 1;
        self.op.apply_normal(out, x, &mut self.scratch_o, &mut self.comm, BoundaryMode::Full)
    }

    field_space_blas!(ColorVectorAlias);
}

impl<R: Real, C: Communicator> DirichletMatvec for StaggeredNormalSpace<R, C>
where
    lqcd_su3::ColorVector<R>: Quantize<R>,
{
    fn matvec_dirichlet(&mut self, out: &mut Self::V, x: &mut Self::V) -> Result<()> {
        self.dmatvecs += 1;
        self.op.apply_normal(out, x, &mut self.scratch_o, &mut self.comm, BoundaryMode::Dirichlet)
    }

    fn dot_local(&mut self, a: &Self::V, b: &Self::V) -> Complex<f64> {
        blas::cdot_local(a, b)
    }

    fn norm2_local(&mut self, a: &Self::V) -> f64 {
        blas::norm2_local(a)
    }

    fn dirichlet_count(&self) -> usize {
        self.dmatvecs
    }
}

/// The *unpreconditioned* Wilson-clover system on the full lattice
/// (both parities). Exists to quantify what even-odd preconditioning
/// buys — §3.1: "Even-odd (also known as red-black) preconditioning is
/// almost always used to accelerate the solution finding process".
pub struct FullWilsonSpace<R: Real, C: Communicator> {
    /// The bound operator.
    pub op: WilsonCloverOp<R>,
    /// This rank's communicator.
    pub comm: C,
    matvecs: usize,
}

impl<R: Real, C: Communicator> FullWilsonSpace<R, C> {
    /// Wrap an operator.
    pub fn new(op: WilsonCloverOp<R>, comm: C) -> Self {
        Self { op, comm, matvecs: 0 }
    }
}

impl<R: Real, C: Communicator> SolverSpace for FullWilsonSpace<R, C> {
    /// `(even, odd)` field pair.
    type V = (SpinorField<R>, SpinorField<R>);

    fn alloc(&mut self) -> Self::V {
        (self.op.alloc(Parity::Even), self.op.alloc(Parity::Odd))
    }

    fn matvec(&mut self, out: &mut Self::V, x: &mut Self::V) -> Result<()> {
        self.matvecs += 1;
        self.op.apply_full(
            &mut out.0,
            &mut out.1,
            &mut x.0,
            &mut x.1,
            &mut self.comm,
            BoundaryMode::Full,
        )
    }

    fn dot(&mut self, a: &Self::V, b: &Self::V) -> Result<Complex<f64>> {
        let local = blas::cdot_local(&a.0, &b.0) + blas::cdot_local(&a.1, &b.1);
        let (re, im) = self.comm.sum_complex(local.re, local.im)?;
        Ok(Complex::new(re, im))
    }

    fn norm2(&mut self, a: &Self::V) -> Result<f64> {
        self.comm.sum_scalar(blas::norm2_local(&a.0) + blas::norm2_local(&a.1))
    }

    fn copy(&mut self, dst: &mut Self::V, src: &Self::V) {
        blas::copy(&mut dst.0, &src.0);
        blas::copy(&mut dst.1, &src.1);
    }

    fn zero(&mut self, v: &mut Self::V) {
        blas::zero(&mut v.0);
        blas::zero(&mut v.1);
    }

    fn axpy(&mut self, a: f64, x: &Self::V, y: &mut Self::V) {
        blas::axpy(R::from_f64(a), &x.0, &mut y.0);
        blas::axpy(R::from_f64(a), &x.1, &mut y.1);
    }

    fn caxpy(&mut self, a: Complex<f64>, x: &Self::V, y: &mut Self::V) {
        blas::caxpy(a.cast::<R>(), &x.0, &mut y.0);
        blas::caxpy(a.cast::<R>(), &x.1, &mut y.1);
    }

    fn xpay(&mut self, x: &Self::V, a: f64, y: &mut Self::V) {
        blas::xpay(&x.0, R::from_f64(a), &mut y.0);
        blas::xpay(&x.1, R::from_f64(a), &mut y.1);
    }

    fn cxpay(&mut self, x: &Self::V, a: Complex<f64>, y: &mut Self::V) {
        blas::cxpay(&x.0, a.cast::<R>(), &mut y.0);
        blas::cxpay(&x.1, a.cast::<R>(), &mut y.1);
    }

    fn scale(&mut self, v: &mut Self::V, a: f64) {
        blas::scale(&mut v.0, R::from_f64(a));
        blas::scale(&mut v.1, R::from_f64(a));
    }

    fn matvec_count(&self) -> usize {
        self.matvecs
    }
}

impl<R: Real, C: Communicator> crate::cgnr::AdjointMatvec for EoWilsonSpace<R, C>
where
    lqcd_su3::WilsonSpinor<R>: Quantize<R>,
{
    /// `M̂† = γ₅ M̂ γ₅` (γ₅-hermiticity of the Schur complement; the
    /// clover term is chirality-block-diagonal so it commutes with γ₅).
    fn matvec_adj(&mut self, out: &mut Self::V, x: &mut Self::V) -> Result<()> {
        lqcd_dirac::wilson::gamma5_in_place(x);
        let status = self.matvec(out, x);
        // Restore the caller's vector regardless of the matvec outcome.
        lqcd_dirac::wilson::gamma5_in_place(x);
        status?;
        lqcd_dirac::wilson::gamma5_in_place(out);
        Ok(())
    }
}

/// The double↔single bridge for lattice fields.
pub struct FieldBridge;

impl<C1, C2> Bridge<EoWilsonSpace<f64, C1>, EoWilsonSpace<f32, C2>> for FieldBridge
where
    C1: Communicator,
    C2: Communicator,
{
    fn down(&self, hi: &SpinorField<f64>, lo: &mut SpinorField<f32>) {
        hi.convert_body_into::<f32>(lo);
    }
    fn up(&self, lo: &SpinorField<f32>, hi: &mut SpinorField<f64>) {
        lo.convert_body_into::<f64>(hi);
    }
}

impl<C1, C2> Bridge<StaggeredNormalSpace<f64, C1>, StaggeredNormalSpace<f32, C2>> for FieldBridge
where
    C1: Communicator,
    C2: Communicator,
{
    fn down(&self, hi: &StaggeredField<f64>, lo: &mut StaggeredField<f32>) {
        hi.convert_body_into::<f32>(lo);
    }
    fn up(&self, lo: &StaggeredField<f32>, hi: &mut StaggeredField<f64>) {
        lo.convert_body_into::<f64>(hi);
    }
}

/// Cast a Wilson-clover operator to another precision (gauge, clover and
/// `T⁻¹` fields converted with ghosts intact).
pub fn cast_wilson_op<R2: Real>(op: &WilsonCloverOp<f64>) -> Result<WilsonCloverOp<R2>>
where
    lqcd_su3::Su3<f64>:
        lqcd_field::CastSite<f64, R2> + lqcd_field::CastSiteAny<R2, Target = lqcd_su3::Su3<R2>>,
    lqcd_su3::CloverSite<f64>: lqcd_field::CastSite<f64, R2>
        + lqcd_field::CastSiteAny<R2, Target = lqcd_su3::CloverSite<R2>>,
{
    let gauge = op.gauge.cast::<R2>();
    let clover = op.clover.as_ref().map(|c| [c[0].cast_all::<R2>(), c[1].cast_all::<R2>()]);
    let mut out = WilsonCloverOp::new(gauge, clover, op.mass)?;
    out.build_t_inverse()?;
    Ok(out)
}

/// Cast a staggered operator to another precision.
pub fn cast_staggered_op<R2: Real>(op: &StaggeredOp<f64>) -> Result<StaggeredOp<R2>>
where
    lqcd_su3::Su3<f64>:
        lqcd_field::CastSite<f64, R2> + lqcd_field::CastSiteAny<R2, Target = lqcd_su3::Su3<R2>>,
{
    Ok(op.cast())
}
