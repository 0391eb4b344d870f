//! The packed per-site clover term.
//!
//! The clover matrix `A_x` is a 12×12 matrix in spin⊗color space. In a
//! chiral basis (ours — see [`crate::gamma`]) `σµν Fµν` is block diagonal
//! in chirality: two 6×6 **Hermitian** blocks, one acting on spins {0,1}
//! and one on spins {2,3}, each over the 3 colors. A Hermitian 6×6 block
//! has 6 real diagonal entries and 15 complex lower-triangle entries = 36
//! reals, so the full site term is described by 72 real numbers — exactly
//! the count the paper quotes (§2.2, footnote 1).
//!
//! Even-odd preconditioning of the Wilson-clover operator needs
//! `(4 + m + A)⁻¹` on one parity, so the block type carries a dense
//! inverse via Gauss–Jordan elimination with partial pivoting.

use crate::spinor::WilsonSpinor;
use crate::vector::ColorVector;
use lqcd_util::{BreakdownKind, Complex, Error, Real, Result};
use rand::Rng;

/// Number of rows/cols of one chiral block (2 spins × 3 colors).
pub const BLOCK_DIM: usize = 6;
/// Number of packed lower-triangle complex entries.
pub const BLOCK_OFF: usize = 15;

/// One 6×6 Hermitian chiral block in packed storage.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct HermBlock<R> {
    /// Real diagonal.
    pub diag: [R; BLOCK_DIM],
    /// Strict lower triangle, row-major: entry `(i, j)` with `i > j` lives
    /// at `i(i−1)/2 + j`.
    pub off: [Complex<R>; BLOCK_OFF],
}

/// Index of lower-triangle entry `(i, j)`, `i > j`.
#[inline(always)]
pub(crate) fn tri(i: usize, j: usize) -> usize {
    debug_assert!(i > j && i < BLOCK_DIM);
    i * (i - 1) / 2 + j
}

impl<R: Real> Default for HermBlock<R> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<R: Real> HermBlock<R> {
    /// The zero block.
    pub fn zero() -> Self {
        Self { diag: [R::ZERO; BLOCK_DIM], off: [Complex::zero(); BLOCK_OFF] }
    }

    /// A multiple of the identity.
    pub fn scaled_identity(s: R) -> Self {
        let mut b = Self::zero();
        b.diag = [s; BLOCK_DIM];
        b
    }

    /// Add `s·1` to the block (folds the `4 + m` Wilson diagonal in).
    pub fn add_diag(&self, s: R) -> Self {
        let mut b = *self;
        for d in &mut b.diag {
            *d += s;
        }
        b
    }

    /// Expand to a dense 6×6 complex matrix.
    pub fn dense(&self) -> [[Complex<R>; BLOCK_DIM]; BLOCK_DIM] {
        let mut m = [[Complex::zero(); BLOCK_DIM]; BLOCK_DIM];
        for i in 0..BLOCK_DIM {
            m[i][i] = Complex::from_re(self.diag[i]);
            for j in 0..i {
                m[i][j] = self.off[tri(i, j)];
                m[j][i] = self.off[tri(i, j)].conj();
            }
        }
        m
    }

    /// Pack a dense Hermitian matrix (the upper triangle is ignored; the
    /// imaginary part of the diagonal is dropped — callers are expected to
    /// pass genuinely Hermitian input).
    pub fn from_dense(m: &[[Complex<R>; BLOCK_DIM]; BLOCK_DIM]) -> Self {
        let mut b = Self::zero();
        for i in 0..BLOCK_DIM {
            b.diag[i] = m[i][i].re;
            for j in 0..i {
                b.off[tri(i, j)] = m[i][j];
            }
        }
        b
    }

    /// Dense matrix-vector product `self · v`.
    #[inline]
    pub fn apply(&self, v: &[Complex<R>; BLOCK_DIM]) -> [Complex<R>; BLOCK_DIM] {
        let mut out = [Complex::zero(); BLOCK_DIM];
        for i in 0..BLOCK_DIM {
            let mut acc = v[i].scale(self.diag[i]);
            for j in 0..i {
                acc = Complex::mul_acc(acc, self.off[tri(i, j)], v[j]);
            }
            for j in (i + 1)..BLOCK_DIM {
                acc = Complex::mul_acc(acc, self.off[tri(j, i)].conj(), v[j]);
            }
            out[i] = acc;
        }
        out
    }

    /// Invert the block. Errors with [`Error::Breakdown`] on singular input.
    pub fn inverse(&self) -> Result<Self> {
        let a = self.dense();
        let inv = invert6(&a)?;
        Ok(Self::from_dense(&inv))
    }

    /// Random Hermitian block, shifted to be safely positive definite
    /// (diagonal dominance), for tests.
    pub fn random_spd<G: Rng>(rng: &mut G) -> Self {
        let mut b = Self::zero();
        for d in &mut b.diag {
            let (x, _) = lqcd_util::rng::normal_pair(rng);
            *d = R::from_f64(8.0 + x);
        }
        for o in &mut b.off {
            let (x, y) = lqcd_util::rng::normal_pair(rng);
            *o = Complex::new(R::from_f64(0.3 * x), R::from_f64(0.3 * y));
        }
        b
    }

    /// Frobenius norm of the dense block.
    pub fn norm(&self) -> R {
        let mut s = R::ZERO;
        for d in &self.diag {
            s += *d * *d;
        }
        for o in &self.off {
            s += o.norm_sqr() + o.norm_sqr(); // both triangles
        }
        s.sqrt()
    }
}

/// Gauss–Jordan inverse of a dense 6×6 complex matrix with partial
/// pivoting.
pub fn invert6<R: Real>(
    a: &[[Complex<R>; BLOCK_DIM]; BLOCK_DIM],
) -> Result<[[Complex<R>; BLOCK_DIM]; BLOCK_DIM]> {
    let mut m = *a;
    let mut inv = [[Complex::zero(); BLOCK_DIM]; BLOCK_DIM];
    for (i, row) in inv.iter_mut().enumerate() {
        row[i] = Complex::one();
    }
    for col in 0..BLOCK_DIM {
        // Partial pivot.
        let mut pivot_row = col;
        let mut best = m[col][col].norm_sqr();
        for r in (col + 1)..BLOCK_DIM {
            let mag = m[r][col].norm_sqr();
            if mag > best {
                best = mag;
                pivot_row = r;
            }
        }
        if best.to_f64() < 1e-300 {
            return Err(Error::Breakdown {
                solver: "invert6",
                kind: BreakdownKind::ZeroPivot,
                detail: format!("singular matrix at column {col}"),
            });
        }
        m.swap(col, pivot_row);
        inv.swap(col, pivot_row);
        let p = m[col][col].inv().ok_or_else(|| Error::Breakdown {
            solver: "invert6",
            kind: BreakdownKind::ZeroPivot,
            detail: "zero pivot".into(),
        })?;
        for j in 0..BLOCK_DIM {
            m[col][j] *= p;
            inv[col][j] *= p;
        }
        for r in 0..BLOCK_DIM {
            if r == col {
                continue;
            }
            let factor = m[r][col];
            if factor == Complex::zero() {
                continue;
            }
            for j in 0..BLOCK_DIM {
                let mc = m[col][j];
                let ic = inv[col][j];
                m[r][j] -= factor * mc;
                inv[r][j] -= factor * ic;
            }
        }
    }
    Ok(inv)
}

/// The full per-site clover term: one Hermitian block per chirality.
///
/// Block 0 acts on spins {0, 1}; block 1 on spins {2, 3}.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CloverSite<R> {
    /// The two chiral blocks.
    pub blocks: [HermBlock<R>; 2],
}

impl<R: Real> Default for CloverSite<R> {
    fn default() -> Self {
        Self { blocks: [HermBlock::zero(), HermBlock::zero()] }
    }
}

impl<R: Real> CloverSite<R> {
    /// A multiple of the identity (e.g. `4 + m` with no field-strength
    /// contribution — the free-field clover term).
    pub fn scaled_identity(s: R) -> Self {
        Self { blocks: [HermBlock::scaled_identity(s), HermBlock::scaled_identity(s)] }
    }

    /// Add `s·1` across both chiralities.
    pub fn add_diag(&self, s: R) -> Self {
        Self { blocks: [self.blocks[0].add_diag(s), self.blocks[1].add_diag(s)] }
    }

    /// Apply to a spinor: each chirality pair (2 spins × 3 colors) is a
    /// 6-vector hit by its block.
    pub fn apply(&self, p: &WilsonSpinor<R>) -> WilsonSpinor<R> {
        let mut out = WilsonSpinor::zero();
        for (chi, block) in self.blocks.iter().enumerate() {
            let s0 = 2 * chi;
            let mut v = [Complex::zero(); BLOCK_DIM];
            for sp in 0..2 {
                for c in 0..3 {
                    v[sp * 3 + c] = p.s[s0 + sp].c[c];
                }
            }
            let w = block.apply(&v);
            for sp in 0..2 {
                out.s[s0 + sp] = ColorVector::from_fn(|c| w[sp * 3 + c]);
            }
        }
        out
    }

    /// Inverse clover term (both blocks inverted).
    pub fn inverse(&self) -> Result<CloverSite<R>> {
        Ok(CloverSite { blocks: [self.blocks[0].inverse()?, self.blocks[1].inverse()?] })
    }

    /// Random positive-definite site term for tests.
    pub fn random_spd<G: Rng>(rng: &mut G) -> Self {
        Self { blocks: [HermBlock::random_spd(rng), HermBlock::random_spd(rng)] }
    }

    /// Pack to the canonical 72 reals (block 0 then block 1; each block:
    /// 6 diagonal reals then 15 lower-triangle complex pairs).
    pub fn to_reals(&self) -> [R; 72] {
        let mut out = [R::ZERO; 72];
        let mut k = 0;
        for b in &self.blocks {
            for d in &b.diag {
                out[k] = *d;
                k += 1;
            }
            for o in &b.off {
                out[k] = o.re;
                out[k + 1] = o.im;
                k += 2;
            }
        }
        out
    }

    /// Rebuild from 72 reals (inverse of [`CloverSite::to_reals`]).
    pub fn from_reals(r: &[R; 72]) -> Self {
        let mut site = CloverSite::default();
        let mut k = 0;
        for b in &mut site.blocks {
            for d in &mut b.diag {
                *d = r[k];
                k += 1;
            }
            for o in &mut b.off {
                *o = Complex::new(r[k], r[k + 1]);
                k += 2;
            }
        }
        site
    }

    /// Convert precision through `f64`.
    pub fn cast<S: Real>(&self) -> CloverSite<S> {
        let mut out = CloverSite::<S>::default();
        for (dst, src) in out.blocks.iter_mut().zip(&self.blocks) {
            for (d, s) in dst.diag.iter_mut().zip(&src.diag) {
                *d = S::from_f64(s.to_f64());
            }
            for (o, s) in dst.off.iter_mut().zip(&src.off) {
                *o = s.cast();
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqcd_util::rng::SeedTree;

    #[test]
    fn tri_indexing_is_a_bijection() {
        let mut seen = [false; BLOCK_OFF];
        for i in 1..BLOCK_DIM {
            for j in 0..i {
                let k = tri(i, j);
                assert!(!seen[k], "duplicate index {k}");
                seen[k] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn dense_pack_roundtrip() {
        let b = HermBlock::<f64>::random_spd(&mut SeedTree::new(1).rng());
        assert_eq!(HermBlock::from_dense(&b.dense()), b);
    }

    #[test]
    fn apply_matches_dense_matvec() {
        let t = SeedTree::new(2);
        let mut rng = t.rng();
        let b = HermBlock::<f64>::random_spd(&mut rng);
        let dense = b.dense();
        let mut v = [Complex::zero(); BLOCK_DIM];
        for e in &mut v {
            let (x, y) = lqcd_util::rng::normal_pair(&mut rng);
            *e = Complex::new(x, y);
        }
        let fast = b.apply(&v);
        for i in 0..BLOCK_DIM {
            let mut acc = Complex::zero();
            for j in 0..BLOCK_DIM {
                acc = Complex::mul_acc(acc, dense[i][j], v[j]);
            }
            assert!((fast[i] - acc).abs() < 1e-12);
        }
    }

    #[test]
    fn hermiticity_of_apply() {
        // ⟨w, A v⟩ = ⟨A w, v⟩ for Hermitian A.
        let t = SeedTree::new(3);
        let mut rng = t.rng();
        let a = CloverSite::<f64>::random_spd(&mut rng);
        let v = WilsonSpinor::random(&mut rng);
        let w = WilsonSpinor::random(&mut rng);
        let lhs = w.dot(&a.apply(&v));
        let rhs = a.apply(&w).dot(&v);
        assert!((lhs - rhs).abs() < 1e-10);
    }

    #[test]
    fn inverse_really_inverts() {
        let t = SeedTree::new(4);
        let mut rng = t.rng();
        let a = CloverSite::<f64>::random_spd(&mut rng);
        let ainv = a.inverse().unwrap();
        let v = WilsonSpinor::random(&mut rng);
        let back = ainv.apply(&a.apply(&v));
        assert!(back.sub(&v).norm_sqr() < 1e-18);
    }

    #[test]
    fn invert6_rejects_singular() {
        let m = [[Complex::<f64>::zero(); BLOCK_DIM]; BLOCK_DIM];
        assert!(invert6(&m).is_err());
    }

    #[test]
    fn scaled_identity_applies_as_scale() {
        let t = SeedTree::new(5);
        let v = WilsonSpinor::<f64>::random(&mut t.rng());
        let a = CloverSite::scaled_identity(2.5);
        assert!(a.apply(&v).sub(&v.scale(2.5)).norm_sqr() < 1e-24);
    }

    #[test]
    fn reals_roundtrip_is_exact() {
        let t = SeedTree::new(6);
        let a = CloverSite::<f64>::random_spd(&mut t.rng());
        assert_eq!(CloverSite::from_reals(&a.to_reals()), a);
        // And the count is the paper's 72.
        assert_eq!(a.to_reals().len(), crate::CLOVER_REALS);
    }

    #[test]
    fn add_diag_shifts_spectrum() {
        let t = SeedTree::new(7);
        let mut rng = t.rng();
        let a = CloverSite::<f64>::random_spd(&mut rng);
        let v = WilsonSpinor::random(&mut rng);
        let shifted = a.add_diag(1.5).apply(&v);
        let manual = a.apply(&v).add(&v.scale(1.5));
        assert!(shifted.sub(&manual).norm_sqr() < 1e-20);
    }
}
