//! The DeGrand–Rossi γ-matrix basis and Wilson spin projectors.
//!
//! In this (chiral) basis every γµ has exactly one nonzero entry per row,
//! with phase in `{±1, ±i}`, and maps the upper spin pair {0,1} to the
//! lower pair {2,3} and vice versa. Consequently the projected spinor
//! `P±µ ψ = (1 ± γµ)ψ / 2` has only two independent spin components — the
//! "half spinor" trick QUDA uses to halve spinor traffic in the Dirac
//! stencil (paper §5, strategy (b): similarity transforms that increase
//! sparsity). We implement both the generic dense application (used as a
//! reference in tests) and the optimized project/reconstruct pair used by
//! the operators.

use crate::spinor::WilsonSpinor;
use crate::vector::ColorVector;
use lqcd_util::{Complex, Real};

/// A quartic phase `i^k` represented exactly.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    /// `+1`
    One,
    /// `+i`
    I,
    /// `-1`
    MinusOne,
    /// `-i`
    MinusI,
}

impl Phase {
    /// Multiply a complex number by this phase (exact, no rounding).
    #[inline(always)]
    pub fn apply<R: Real>(self, z: Complex<R>) -> Complex<R> {
        match self {
            Phase::One => z,
            Phase::I => z.mul_i(),
            Phase::MinusOne => -z,
            Phase::MinusI => z.mul_neg_i(),
        }
    }

    /// Apply to every component of a color vector.
    #[inline(always)]
    pub fn apply_vec<R: Real>(self, v: &ColorVector<R>) -> ColorVector<R> {
        ColorVector::from_fn(|i| self.apply(v.c[i]))
    }

    /// Phase product.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Phase) -> Phase {
        let k = (self.quarter() + other.quarter()) % 4;
        Phase::from_quarter(k)
    }

    /// Negation.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Phase {
        self.mul(Phase::MinusOne)
    }

    fn quarter(self) -> u8 {
        match self {
            Phase::One => 0,
            Phase::I => 1,
            Phase::MinusOne => 2,
            Phase::MinusI => 3,
        }
    }

    fn from_quarter(k: u8) -> Phase {
        match k % 4 {
            0 => Phase::One,
            1 => Phase::I,
            2 => Phase::MinusOne,
            _ => Phase::MinusI,
        }
    }

    /// The complex value of this phase in a given precision.
    pub fn value<R: Real>(self) -> Complex<R> {
        self.apply(Complex::one())
    }
}

/// A monomial spin matrix: one nonzero entry per row.
///
/// `(Γψ)_s = phase[s] · ψ_{col[s]}`. All DeGrand–Rossi γ-matrices, their
/// products, and γ₅ have this form.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SpinMatrix {
    /// Column of the nonzero entry in each row.
    pub col: [usize; 4],
    /// Phase of the nonzero entry in each row.
    pub phase: [Phase; 4],
}

impl SpinMatrix {
    /// The spin-space identity.
    pub const IDENTITY: SpinMatrix = SpinMatrix { col: [0, 1, 2, 3], phase: [Phase::One; 4] };

    /// Apply to a spinor.
    #[inline(always)]
    pub fn apply<R: Real>(&self, p: &WilsonSpinor<R>) -> WilsonSpinor<R> {
        WilsonSpinor::from_fn(|s| self.phase[s].apply_vec(&p.s[self.col[s]]))
    }

    /// Matrix product `self · rhs` (both monomial, so the product is too).
    pub fn mul(&self, rhs: &SpinMatrix) -> SpinMatrix {
        let mut col = [0usize; 4];
        let mut phase = [Phase::One; 4];
        for s in 0..4 {
            // (A·B)ψ |_s = phaseA[s] (Bψ)_{colA[s]}
            //            = phaseA[s] phaseB[colA[s]] ψ_{colB[colA[s]]}
            col[s] = rhs.col[self.col[s]];
            phase[s] = self.phase[s].mul(rhs.phase[self.col[s]]);
        }
        SpinMatrix { col, phase }
    }

    /// Hermitian conjugate.
    pub fn adjoint(&self) -> SpinMatrix {
        let mut col = [0usize; 4];
        let mut phase = [Phase::One; 4];
        for s in 0..4 {
            // entry (s, col[s]) with phase p  ⇒  adjoint has entry
            // (col[s], s) with phase conj(p).
            col[self.col[s]] = s;
            phase[self.col[s]] = match self.phase[s] {
                Phase::I => Phase::MinusI,
                Phase::MinusI => Phase::I,
                p => p,
            };
        }
        SpinMatrix { col, phase }
    }
}

/// The four Euclidean γ-matrices in the DeGrand–Rossi basis, indexed
/// µ = 0(X), 1(Y), 2(Z), 3(T).
pub const GAMMA: [SpinMatrix; 4] = [
    // γ_x: rows (0→3:+i), (1→2:+i), (2→1:−i), (3→0:−i)
    SpinMatrix { col: [3, 2, 1, 0], phase: [Phase::I, Phase::I, Phase::MinusI, Phase::MinusI] },
    // γ_y: rows (0→3:−1), (1→2:+1), (2→1:+1), (3→0:−1)
    SpinMatrix {
        col: [3, 2, 1, 0],
        phase: [Phase::MinusOne, Phase::One, Phase::One, Phase::MinusOne],
    },
    // γ_z: rows (0→2:+i), (1→3:−i), (2→0:−i), (3→1:+i)
    SpinMatrix { col: [2, 3, 0, 1], phase: [Phase::I, Phase::MinusI, Phase::MinusI, Phase::I] },
    // γ_t: rows (0→2:+1), (1→3:+1), (2→0:+1), (3→1:+1)
    SpinMatrix { col: [2, 3, 0, 1], phase: [Phase::One; 4] },
];

/// γ₅ = γ_x γ_y γ_z γ_t, computed from the table (diagonal ±1 in this
/// basis; see the unit test pinning the signs).
pub fn gamma5_matrix() -> SpinMatrix {
    GAMMA[0].mul(&GAMMA[1]).mul(&GAMMA[2]).mul(&GAMMA[3])
}

/// Apply γµ to a spinor.
#[inline]
pub fn gamma_mul<R: Real>(mu: usize, p: &WilsonSpinor<R>) -> WilsonSpinor<R> {
    GAMMA[mu].apply(p)
}

/// Apply γ₅ to a spinor.
#[inline]
pub fn gamma5<R: Real>(p: &WilsonSpinor<R>) -> WilsonSpinor<R> {
    gamma5_matrix().apply(p)
}

/// The two independent spin components of a projected spinor
/// `P±µ ψ`: 2 spins × 3 colors = 6 complex numbers.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct HalfSpinor<R> {
    /// Upper-pair components (spins 0 and 1 of the projected spinor).
    pub h: [ColorVector<R>; 2],
}

impl<R: Real> Default for HalfSpinor<R> {
    fn default() -> Self {
        Self { h: [ColorVector::zero(); 2] }
    }
}

impl<R: Real> HalfSpinor<R> {
    /// Apply a color matrix to both spin components (spin and color
    /// rotations commute).
    #[inline(always)]
    pub fn color_mul(&self, u: &crate::matrix::Su3<R>) -> HalfSpinor<R> {
        HalfSpinor { h: [u.mul_vec(&self.h[0]), u.mul_vec(&self.h[1])] }
    }

    /// Apply the adjoint of a color matrix to both spin components.
    #[inline(always)]
    pub fn color_adj_mul(&self, u: &crate::matrix::Su3<R>) -> HalfSpinor<R> {
        HalfSpinor { h: [u.adj_mul_vec(&self.h[0]), u.adj_mul_vec(&self.h[1])] }
    }
}

/// A spin projector `P±µ = (1 ± γµ)/2` identified by direction and sign.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Projector {
    /// Direction µ ∈ 0..4 (X, Y, Z, T).
    pub mu: usize,
    /// `true` for `P+µ`, `false` for `P−µ`.
    pub plus: bool,
}

impl Projector {
    /// Project a full spinor to its two independent components.
    ///
    /// `(P±ψ)_s = (ψ_s ± phase[s]·ψ_{col[s]}) / 2` for s = 0, 1. The factor
    /// 1/2 is *not* applied here — QUDA folds it into the −1/2 in front of
    /// the derivative term; callers of the raw stencil get `(1 ± γµ)ψ`
    /// restricted to the upper pair.
    #[inline(always)]
    pub fn project<R: Real>(&self, p: &WilsonSpinor<R>) -> HalfSpinor<R> {
        let g = &GAMMA[self.mu];
        let mut out = HalfSpinor::default();
        for s in 0..2 {
            let rotated = g.phase[s].apply_vec(&p.s[g.col[s]]);
            out.h[s] = if self.plus { p.s[s].add(&rotated) } else { p.s[s].sub(&rotated) };
        }
        out
    }

    /// Reconstruct the full `(1 ± γµ)ψ` from its two stored components.
    ///
    /// Uses `γµ P± = ±P±`, which fixes the lower pair as a phase of the
    /// upper pair: `f_{s'} = ± phase[s']·h_{col[s']}` for s' = 2, 3.
    #[inline(always)]
    pub fn reconstruct<R: Real>(&self, h: &HalfSpinor<R>) -> WilsonSpinor<R> {
        let g = &GAMMA[self.mu];
        let mut out = WilsonSpinor::zero();
        out.s[0] = h.h[0];
        out.s[1] = h.h[1];
        for sp in 2..4 {
            let v = g.phase[sp].apply_vec(&h.h[g.col[sp]]);
            out.s[sp] = if self.plus { v } else { v.scale(-R::ONE) };
        }
        out
    }

    /// Accumulate the reconstruction into an existing spinor: the
    /// reference for the Wilson stencil's hop (the generic kernels run it
    /// directly; the SIMD hop of `kernels` matches it bit for bit).
    #[inline(always)]
    pub fn accumulate<R: Real>(&self, acc: &mut WilsonSpinor<R>, h: &HalfSpinor<R>) {
        let g = &GAMMA[self.mu];
        acc.s[0] = acc.s[0].add(&h.h[0]);
        acc.s[1] = acc.s[1].add(&h.h[1]);
        for sp in 2..4 {
            let v = g.phase[sp].apply_vec(&h.h[g.col[sp]]);
            acc.s[sp] = if self.plus { acc.s[sp].add(&v) } else { acc.s[sp].sub(&v) };
        }
    }
}

/// Dense reference implementation of `(1 ± γµ)ψ`, used to validate the
/// half-spinor fast path.
pub fn project_reference<R: Real>(mu: usize, plus: bool, p: &WilsonSpinor<R>) -> WilsonSpinor<R> {
    let gp = gamma_mul(mu, p);
    if plus {
        p.add(&gp)
    } else {
        p.sub(&gp)
    }
}

/// Convenience free function mirroring [`Projector::project`].
#[inline]
pub fn project<R: Real>(mu: usize, plus: bool, p: &WilsonSpinor<R>) -> HalfSpinor<R> {
    Projector { mu, plus }.project(p)
}

/// Convenience free function mirroring [`Projector::reconstruct`].
#[inline]
pub fn reconstruct<R: Real>(mu: usize, plus: bool, h: &HalfSpinor<R>) -> WilsonSpinor<R> {
    Projector { mu, plus }.reconstruct(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqcd_util::rng::SeedTree;

    type P = WilsonSpinor<f64>;

    fn rand_spinor(seed: u64) -> P {
        P::random(&mut SeedTree::new(seed).rng())
    }

    fn close(a: &P, b: &P, tol: f64) -> bool {
        a.sub(b).norm_sqr() < tol
    }

    #[test]
    fn gammas_square_to_identity() {
        for mu in 0..4 {
            let sq = GAMMA[mu].mul(&GAMMA[mu]);
            assert_eq!(sq, SpinMatrix::IDENTITY, "γ_{mu}² ≠ 1");
        }
    }

    #[test]
    fn gammas_are_hermitian() {
        for mu in 0..4 {
            assert_eq!(GAMMA[mu].adjoint(), GAMMA[mu], "γ_{mu} not Hermitian");
        }
    }

    #[test]
    fn gammas_anticommute() {
        let p = rand_spinor(1);
        for mu in 0..4 {
            for nu in 0..4 {
                if mu == nu {
                    continue;
                }
                let ab = GAMMA[mu].mul(&GAMMA[nu]).apply(&p);
                let ba = GAMMA[nu].mul(&GAMMA[mu]).apply(&p);
                assert!(close(&ab, &ba.scale(-1.0), 1e-24), "γ_{mu}γ_{nu} ≠ −γ_{nu}γ_{mu}");
            }
        }
    }

    #[test]
    fn gamma5_is_diagonal_chiral() {
        let g5 = gamma5_matrix();
        assert_eq!(g5.col, [0, 1, 2, 3], "γ₅ must be diagonal in a chiral basis");
        // Squares to identity and anticommutes with every γµ.
        assert_eq!(g5.mul(&g5), SpinMatrix::IDENTITY);
        // Upper/lower pairs carry opposite chirality.
        assert_eq!(g5.phase[0], g5.phase[1]);
        assert_eq!(g5.phase[2], g5.phase[3]);
        assert_eq!(g5.phase[0], g5.phase[2].neg());
        let p = rand_spinor(2);
        for mu in 0..4 {
            let ab = g5.mul(&GAMMA[mu]).apply(&p);
            let ba = GAMMA[mu].mul(&g5).apply(&p);
            assert!(close(&ab, &ba.scale(-1.0), 1e-24), "γ₅ must anticommute with γ_{mu}");
        }
    }

    #[test]
    fn projector_matches_dense_reference() {
        let p = rand_spinor(3);
        for mu in 0..4 {
            for &plus in &[false, true] {
                let fast = reconstruct(mu, plus, &project(mu, plus, &p));
                let reference = project_reference(mu, plus, &p);
                assert!(
                    close(&fast, &reference, 1e-24),
                    "half-spinor path diverges at µ={mu}, plus={plus}"
                );
            }
        }
    }

    #[test]
    fn projectors_are_complementary() {
        // P+ + P− = 1 (recall our projectors carry an extra factor 2:
        // they compute (1 ± γ)ψ, so the sum is 2ψ).
        let p = rand_spinor(4);
        for mu in 0..4 {
            let plusr = reconstruct(mu, true, &project(mu, true, &p));
            let minusr = reconstruct(mu, false, &project(mu, false, &p));
            assert!(close(&plusr.add(&minusr), &p.scale(2.0), 1e-24));
        }
    }

    #[test]
    fn projectors_are_idempotent_up_to_factor2() {
        // (1±γ)(1±γ) = 2(1±γ)
        let p = rand_spinor(5);
        for mu in 0..4 {
            for &plus in &[false, true] {
                let once = reconstruct(mu, plus, &project(mu, plus, &p));
                let twice = reconstruct(mu, plus, &project(mu, plus, &once));
                assert!(close(&twice, &once.scale(2.0), 1e-22));
            }
        }
    }

    #[test]
    fn accumulate_matches_add_reconstruct() {
        let p = rand_spinor(6);
        let q = rand_spinor(7);
        for mu in 0..4 {
            for &plus in &[false, true] {
                let h = project(mu, plus, &q);
                let mut acc = p;
                Projector { mu, plus }.accumulate(&mut acc, &h);
                let want = p.add(&reconstruct(mu, plus, &h));
                assert!(close(&acc, &want, 1e-24));
            }
        }
    }

    #[test]
    fn color_mul_commutes_with_reconstruct() {
        use crate::matrix::Su3;
        let p = rand_spinor(8);
        let u = Su3::<f64>::random(&mut SeedTree::new(9).rng());
        for mu in 0..4 {
            for &plus in &[false, true] {
                let h = project(mu, plus, &p).color_mul(&u);
                let a = reconstruct(mu, plus, &h);
                // Apply U to the full reconstructed spinor instead.
                let full = reconstruct(mu, plus, &project(mu, plus, &p));
                let b = P::from_fn(|sp| u.mul_vec(&full.s[sp]));
                assert!(close(&a, &b, 1e-22));
            }
        }
    }
}
