//! SSE2 site kernels, each bit-identical to the scalar code it stands in
//! for.
//!
//! For the Wilson-clover operator, in both precisions (`R` = f32 or f64,
//! the [`WilsonLanes`]):
//!
//! * [`SpinorAcc::hop`] — one fused stencil hop: project `(1 ± γµ)ψ` to
//!   its two independent spins, rotate them by `U` or `U†`, and
//!   accumulate the reconstructed 4-spinor. Reference:
//!   [`Projector::project`] → [`HalfSpinor::color_mul`] or
//!   [`HalfSpinor::color_adj_mul`] → [`Projector::accumulate`].
//! * [`clover_apply`] / [`clover_apply_shifted`] — the two Hermitian 6×6
//!   chiral blocks of one packed clover site. Reference:
//!   [`CloverSite::apply`], plus `ψ·shift` for the Wilson diagonal.
//!
//! For the asqtad operator, in double precision:
//!
//! * [`ColorAcc::hop`] — one colour hop: `U·v` or `U†·v`, added to or
//!   subtracted from a colour-vector accumulator. Reference:
//!   [`Su3::mul_vec`] or [`Su3::adj_mul_vec`], then `acc.add(&w.scale(±1))`.
//!
//! Vectorisation is *within a site*. In single precision one `__m128`
//! holds two complex numbers as `[re, im, re, im]` — the two projected
//! spins of one colour in the hop kernel, the same row of both chiral
//! blocks in the clover kernel. In double precision one `__m128d` holds
//! one complex number as `[re, im]`, and the colour rotation of the
//! Wilson hop and of the asqtad hop is one from-zero complex
//! multiply-accumulate body. Each lane performs the scalar
//! operations in the scalar order: a complex multiply-accumulate is
//! `acc + ur·h`, then `+ (ui·swap(h) ^ sign)`, with no FMA and no
//! reassociation. Signs are applied by flipping sign bits or by trading an
//! add for a subtract, which is exact (`a − b ≡ a + (−b)`,
//! `(−u)·h ≡ −(u·h)`, `1·h ≡ h`), so results agree bit for bit with the
//! scalar code, signed zeros and subnormals included.
//!
//! SSE2 is part of the x86_64 baseline, so there is no runtime detection
//! and no build flag: each entry point makes one `unsafe` call into an
//! `#[inline(always)]` body, whose loads and stores are bounds-checked
//! against fixed-size arrays.
//!
//! [`Projector::project`]: crate::Projector::project
//! [`Projector::accumulate`]: crate::Projector::accumulate
//! [`HalfSpinor::color_mul`]: crate::HalfSpinor::color_mul
//! [`HalfSpinor::color_adj_mul`]: crate::HalfSpinor::color_adj_mul
//! [`CloverSite::apply`]: crate::CloverSite::apply
//! [`Su3::mul_vec`]: crate::Su3::mul_vec
//! [`Su3::adj_mul_vec`]: crate::Su3::adj_mul_vec

use crate::clover::tri;
use crate::gamma::{Phase, GAMMA};
use crate::Projector;
use regs::{Complexes, Pairs};
use std::arch::x86_64::*;

/// `_mm_shuffle_ps` immediate selecting lanes `[a[l0], a[l1], b[h0], b[h1]]`.
const fn sel(l0: i32, l1: i32, h0: i32, h1: i32) -> i32 {
    l0 | (l1 << 2) | (h0 << 4) | (h1 << 6)
}

/// Four lanes of `a` starting at `at`.
///
/// # Safety
/// SSE2 must be available, which it is on every x86_64 target.
#[inline(always)]
unsafe fn load<const N: usize>(a: &[f32; N], at: usize) -> __m128 {
    assert!(at + 4 <= N);
    _mm_loadu_ps(a.as_ptr().add(at))
}

/// Write four lanes to `a` starting at `at`.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn store<const N: usize>(a: &mut [f32; N], at: usize, v: __m128) {
    assert!(at + 4 <= N);
    _mm_storeu_ps(a.as_mut_ptr().add(at), v)
}

/// Sign-bit mask: lane `k` is `−0.0` where `neg[k]`, else `+0.0`.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn signs(neg: [bool; 4]) -> __m128 {
    let s = |n: bool| if n { -0.0 } else { 0.0 };
    _mm_setr_ps(s(neg[0]), s(neg[1]), s(neg[2]), s(neg[3]))
}

/// `[re, im, re', im']` → `[re', im', re, im]`.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn swap_pair(x: __m128) -> __m128 {
    _mm_shuffle_ps::<{ sel(2, 3, 0, 1) }>(x, x)
}

/// `[re, im, re', im']` → `[im, re, im', re']`.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn swap_reim(x: __m128) -> __m128 {
    _mm_shuffle_ps::<{ sel(1, 0, 3, 2) }>(x, x)
}

/// Two rows `r, r + 1` of `±γµ` acting on a spin pair. In the
/// DeGrand–Rossi basis both rows read the same pair of spins (possibly
/// crossed) with phases that are both real or both imaginary, so one
/// shuffle recipe and one sign mask cover both.
#[derive(Clone, Copy)]
struct RowPair {
    /// Row `r` reads the second spin of the pair (the pair is crossed).
    cross: bool,
    /// The phases are `±i`: swap real and imaginary parts.
    imaginary: bool,
    /// Lanes negated afterwards (phase signs, and the overall `−`):
    /// `[re, im]` of row `r`, then of row `r + 1`.
    neg: [bool; 4],
}

/// The recipe of rows `r, r + 1` of `γµ`, negated when `negate`.
const fn row_pair(mu: usize, r: usize, negate: bool) -> RowPair {
    let g = &GAMMA[mu];
    let mut neg = [false; 4];
    let mut k = 0;
    while k < 2 {
        // Phase · (re, im) after the optional re/im swap.
        let (re, im) = match g.phase[r + k] {
            Phase::One => (false, false),
            Phase::MinusOne => (true, true),
            Phase::I => (true, false),
            Phase::MinusI => (false, true),
        };
        neg[2 * k] = re != negate;
        neg[2 * k + 1] = im != negate;
        k += 1;
    }
    RowPair {
        cross: g.col[r] % 2 == 1,
        imaginary: matches!(g.phase[r], Phase::I | Phase::MinusI),
        neg,
    }
}

/// Apply a row recipe to a spin-pair vector.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn apply_rows(rp: RowPair, x: __m128) -> __m128 {
    let x = if rp.cross { swap_pair(x) } else { x };
    let x = if rp.imaginary { swap_reim(x) } else { x };
    _mm_xor_ps(x, signs(rp.neg))
}

/// The register forms of one 4-spinor, and the seal of [`WilsonLanes`]:
/// public types in a private module, so no caller can name them.
mod regs {
    use std::arch::x86_64::{__m128, __m128d};

    /// f32, as colour-pair vectors: `up[c] = [ψ₀c, ψ₁c]`,
    /// `lo[c] = [ψ₂c, ψ₃c]`.
    #[derive(Clone, Copy)]
    pub struct Pairs {
        pub up: [__m128; 3],
        pub lo: [__m128; 3],
    }

    /// f64, one complex per register: `[spin][colour]`.
    #[derive(Clone, Copy)]
    pub struct Complexes(pub [[__m128d; 3]; 4]);

    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// Spins `s, s + 1` (flat reals `[v0 v1 v2]`, spin-major) as colour pairs.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn to_pairs(v0: __m128, v1: __m128, v2: __m128) -> [__m128; 3] {
    [
        _mm_shuffle_ps::<{ sel(0, 1, 2, 3) }>(v0, v1),
        _mm_shuffle_ps::<{ sel(2, 3, 0, 1) }>(v0, v2),
        _mm_shuffle_ps::<{ sel(0, 1, 2, 3) }>(v1, v2),
    ]
}

/// Inverse of [`to_pairs`].
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn from_pairs(c: [__m128; 3]) -> [__m128; 3] {
    [
        _mm_shuffle_ps::<{ sel(0, 1, 0, 1) }>(c[0], c[1]),
        _mm_shuffle_ps::<{ sel(0, 1, 2, 3) }>(c[2], c[0]),
        _mm_shuffle_ps::<{ sel(2, 3, 2, 3) }>(c[1], c[2]),
    ]
}

/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn load_pairs(p: &[f32; 24]) -> Pairs {
    Pairs {
        up: to_pairs(load(p, 0), load(p, 4), load(p, 8)),
        lo: to_pairs(load(p, 12), load(p, 16), load(p, 20)),
    }
}

/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn store_pairs(pairs: &Pairs, out: &mut [f32; 24]) {
    let up = from_pairs(pairs.up);
    let lo = from_pairs(pairs.lo);
    for k in 0..3 {
        store(out, 4 * k, up[k]);
        store(out, 12 + 4 * k, lo[k]);
    }
}

/// `v` shuffled by the immediate `M`.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn splat<const M: i32>(v: __m128) -> __m128 {
    _mm_shuffle_ps::<M>(v, v)
}

/// Link entry `k = 3·row + col` as broadcast `(re, im)`, from the rows
/// loaded at reals 0, 4, 8, 12 and 14.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn link_entry(l: &[__m128; 5], k: usize) -> (__m128, __m128) {
    let (v, high) = if k == 8 { (l[4], true) } else { (l[k / 2], k % 2 == 1) };
    if high {
        (splat::<0xAA>(v), splat::<0xFF>(v))
    } else {
        (splat::<0x00>(v), splat::<0x55>(v))
    }
}

/// One f32 hop in direction `MU`.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn hop_mu<const MU: usize>(
    acc: &mut Pairs,
    plus: bool,
    adjoint: bool,
    psi: &[f32; 24],
    u: &[f32; 18],
) {
    let p = load_pairs(psi);
    // Project: h_c = ψ_up,c ± γ-rows(0, 1) ψ_lo,c.
    let proj = row_pair(MU, 0, !plus);
    let h = [0, 1, 2].map(|c| _mm_add_ps(p.up[c], apply_rows(proj, p.lo[c])));
    // Colour-rotate: r_i = Σ_j U'_ij h_j with U' = U or U†. The
    // imaginary part of U'_ij meets swap(h_j) with the sign of its lane.
    let ui_sign =
        signs(if adjoint { [false, true, false, true] } else { [true, false, true, false] });
    let hs = h.map(|x| _mm_xor_ps(swap_reim(x), ui_sign));
    let l = [load(u, 0), load(u, 4), load(u, 8), load(u, 12), load(u, 14)];
    let mut r = [_mm_setzero_ps(); 3];
    for i in 0..3 {
        for j in 0..3 {
            let (ur, ui) = link_entry(&l, if adjoint { 3 * j + i } else { 3 * i + j });
            r[i] = _mm_add_ps(r[i], _mm_mul_ps(ur, h[j]));
            r[i] = _mm_add_ps(r[i], _mm_mul_ps(ui, hs[j]));
        }
    }
    // Accumulate: upper spins take r, lower spins ±γ-rows(2, 3) r.
    let recon = row_pair(MU, 2, !plus);
    for c in 0..3 {
        acc.up[c] = _mm_add_ps(acc.up[c], r[c]);
        acc.lo[c] = _mm_add_ps(acc.lo[c], apply_rows(recon, r[c]));
    }
}

/// Row `I` of both chiral blocks of a packed f32 clover site applied to
/// `v[j] = [ψ⁰_j, ψ¹_j]`, element `j` of the chirality-0 (spins 0, 1) and
/// chirality-1 (spins 2, 3) 6-vectors; `vs[j] = swap(v[j])`. The scalar
/// order: the diagonal term, then every `j ≠ I` ascending.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn clover_row<const I: usize>(a: &[f32; 72], v: &[__m128; 6], vs: &[__m128; 6]) -> __m128 {
    // Lower-triangle entries A_Ij = off(I, j) meet swap(v_j) with a
    // negated real lane; upper ones A_Ij = conj(off(j, I)) with a negated
    // imaginary lane.
    let lower = signs([true, false, true, false]);
    let upper = signs([false, true, false, true]);
    // [d⁰_I, d⁰_I, d¹_I, d¹_I]: the diagonals sit at reals 0 and 36.
    let d = _mm_shuffle_ps::<{ sel(0, 0, 0, 0) }>(load(a, I), load(a, 36 + I));
    let mut acc = _mm_mul_ps(v[I], d);
    let mut mac = |t: usize, j: usize, sign: __m128| {
        // [off⁰_t, off¹_t]: off-diagonals start at reals 6 and 42.
        let c = _mm_shuffle_ps::<{ sel(0, 1, 2, 3) }>(load(a, 6 + 2 * t), load(a, 40 + 2 * t));
        let cr = splat::<{ sel(0, 0, 2, 2) }>(c);
        let ci = splat::<{ sel(1, 1, 3, 3) }>(c);
        acc = _mm_add_ps(acc, _mm_mul_ps(cr, v[j]));
        acc = _mm_add_ps(acc, _mm_xor_ps(_mm_mul_ps(ci, vs[j]), sign));
    };
    for j in 0..I {
        mac(tri(I, j), j, lower);
    }
    for j in I + 1..6 {
        mac(tri(j, I), j, upper);
    }
    acc
}

/// Both chiral blocks of a packed f32 clover site applied to a flat
/// spinor, plus `shift·ψ` when `shift` is given.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn clover(a: &[f32; 72], psi: &[f32; 24], shift: Option<f32>, out: &mut [f32; 24]) {
    let (x0, x4, x8) = (load(psi, 0), load(psi, 4), load(psi, 8));
    let (y0, y4, y8) = (load(psi, 12), load(psi, 16), load(psi, 20));
    let v = [
        _mm_movelh_ps(x0, y0),
        _mm_movehl_ps(y0, x0),
        _mm_movelh_ps(x4, y4),
        _mm_movehl_ps(y4, x4),
        _mm_movelh_ps(x8, y8),
        _mm_movehl_ps(y8, x8),
    ];
    let vs = v.map(|x| swap_reim(x));
    let mut w = [
        clover_row::<0>(a, &v, &vs),
        clover_row::<1>(a, &v, &vs),
        clover_row::<2>(a, &v, &vs),
        clover_row::<3>(a, &v, &vs),
        clover_row::<4>(a, &v, &vs),
        clover_row::<5>(a, &v, &vs),
    ];
    if let Some(shift) = shift {
        let s = _mm_set1_ps(shift);
        for (w, v) in w.iter_mut().zip(v) {
            *w = _mm_add_ps(*w, _mm_mul_ps(v, s));
        }
    }
    for k in 0..3 {
        store(out, 4 * k, _mm_movelh_ps(w[2 * k], w[2 * k + 1]));
        store(out, 12 + 4 * k, _mm_movehl_ps(w[2 * k + 1], w[2 * k]));
    }
}

/// Two lanes of `a` starting at `at`.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn load_pd<const N: usize>(a: &[f64; N], at: usize) -> __m128d {
    assert!(at + 2 <= N);
    _mm_loadu_pd(a.as_ptr().add(at))
}

/// Write two lanes to `a` starting at `at`.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn store_pd<const N: usize>(a: &mut [f64; N], at: usize, v: __m128d) {
    assert!(at + 2 <= N);
    _mm_storeu_pd(a.as_mut_ptr().add(at), v)
}

/// Sign-bit mask `[re, im]`: a lane is `−0.0` where negated, else `+0.0`.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn signs_pd(re: bool, im: bool) -> __m128d {
    let s = |n: bool| if n { -0.0 } else { 0.0 };
    _mm_setr_pd(s(re), s(im))
}

/// `[re, im]` → `[im, re]`.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn swap_pd(x: __m128d) -> __m128d {
    _mm_shuffle_pd::<0b01>(x, x)
}

/// Row `r + k` of a row-pair recipe applied to the one complex it reads
/// (spin `cross ^ k` of the pair).
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn apply_row_pd(rp: RowPair, k: usize, x: __m128d) -> __m128d {
    let x = if rp.imaginary { swap_pd(x) } else { x };
    _mm_xor_pd(x, signs_pd(rp.neg[2 * k], rp.neg[2 * k + 1]))
}

/// `U'·b` for `N` colour vectors, with `U' = U†` when `adjoint` and `U`
/// otherwise, one complex per register: every output starts from `+0.0`
/// and takes `j` ascending, the real part of `U'_ij` before the imaginary
/// one — the order of [`Su3::mul_vec`](crate::Su3::mul_vec) and
/// [`Su3::adj_mul_vec`](crate::Su3::adj_mul_vec). Each link entry is
/// loaded once for all `N` vectors.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn color_rotate<const N: usize>(
    adjoint: bool,
    b: &[[__m128d; 3]; N],
    u: &[f64; 18],
) -> [[__m128d; 3]; N] {
    // The imaginary part of U'_ij meets swap(b_j) with the sign of its
    // lane: U gives [−im, +re], U† (conjugated entries) [+im, −re].
    let ui_sign = signs_pd(!adjoint, adjoint);
    let bs = b.map(|v| v.map(|x| _mm_xor_pd(swap_pd(x), ui_sign)));
    let mut r = [[_mm_setzero_pd(); 3]; N];
    for i in 0..3 {
        for j in 0..3 {
            let e = load_pd(u, 2 * if adjoint { 3 * j + i } else { 3 * i + j });
            let (er, ei) = (_mm_unpacklo_pd(e, e), _mm_unpackhi_pd(e, e));
            for n in 0..N {
                r[n][i] = _mm_add_pd(r[n][i], _mm_mul_pd(er, b[n][j]));
                r[n][i] = _mm_add_pd(r[n][i], _mm_mul_pd(ei, bs[n][j]));
            }
        }
    }
    r
}

/// `acc ± U'·v` with `U' = U†` when `adjoint` and `U` otherwise, one
/// complex per register.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn color_hop(
    acc: &mut [__m128d; 3],
    adjoint: bool,
    negate: bool,
    v: &[f64; 6],
    u: &[f64; 18],
) {
    let [r] = color_rotate(adjoint, &[[load_pd(v, 0), load_pd(v, 2), load_pd(v, 4)]], u);
    for (acc, r) in acc.iter_mut().zip(r) {
        *acc = if negate { _mm_sub_pd(*acc, r) } else { _mm_add_pd(*acc, r) };
    }
}

/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn load_complexes(p: &[f64; 24]) -> Complexes {
    let mut out = [[_mm_setzero_pd(); 3]; 4];
    for (s, spin) in out.iter_mut().enumerate() {
        for (c, z) in spin.iter_mut().enumerate() {
            *z = load_pd(p, 6 * s + 2 * c);
        }
    }
    Complexes(out)
}

/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn store_complexes(spinor: &Complexes, out: &mut [f64; 24]) {
    for (s, spin) in spinor.0.iter().enumerate() {
        for (c, &z) in spin.iter().enumerate() {
            store_pd(out, 6 * s + 2 * c, z);
        }
    }
}

/// One f64 hop in direction `MU`.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn hop_mu_pd<const MU: usize>(
    acc: &mut Complexes,
    plus: bool,
    adjoint: bool,
    psi: &[f64; 24],
    u: &[f64; 18],
) {
    let p = load_complexes(psi).0;
    // Project: h_k = ψ_k ± γ-row(k) ψ_lo for the upper spins k = 0, 1.
    let proj = row_pair(MU, 0, !plus);
    let mut h = [[_mm_setzero_pd(); 3]; 2];
    for (k, h) in h.iter_mut().enumerate() {
        let lo = &p[2 + (proj.cross as usize ^ k)];
        for c in 0..3 {
            h[c] = _mm_add_pd(p[k][c], apply_row_pd(proj, k, lo[c]));
        }
    }
    let r = color_rotate(adjoint, &h, u);
    // Accumulate: upper spins take r, lower spins ±γ-rows(2, 3) r.
    let recon = row_pair(MU, 2, !plus);
    let acc = &mut acc.0;
    for k in 0..2 {
        let from = &r[recon.cross as usize ^ k];
        for c in 0..3 {
            acc[k][c] = _mm_add_pd(acc[k][c], r[k][c]);
            acc[2 + k][c] = _mm_add_pd(acc[2 + k][c], apply_row_pd(recon, k, from[c]));
        }
    }
}

/// Row `I` of chiral block `B` of a packed f64 clover site applied to
/// that block's 6-vector `v` (`vs[j] = swap(v[j])`). The scalar order: the
/// diagonal term, then every `j ≠ I` ascending.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn clover_row_pd<const B: usize, const I: usize>(
    a: &[f64; 72],
    v: &[__m128d; 6],
    vs: &[__m128d; 6],
) -> __m128d {
    // As in `clover_row`: lower-triangle entries negate the real lane of
    // the im·swap(v) product, upper (conjugated) ones the imaginary lane.
    let (lower, upper) = (signs_pd(true, false), signs_pd(false, true));
    // Block B's diagonal sits at reals 36B.., its off-diagonals at 36B + 6...
    let mut acc = _mm_mul_pd(v[I], _mm_set1_pd(a[36 * B + I]));
    let mut mac = |t: usize, j: usize, sign: __m128d| {
        let e = load_pd(a, 36 * B + 6 + 2 * t);
        acc = _mm_add_pd(acc, _mm_mul_pd(_mm_unpacklo_pd(e, e), v[j]));
        acc = _mm_add_pd(acc, _mm_xor_pd(_mm_mul_pd(_mm_unpackhi_pd(e, e), vs[j]), sign));
    };
    for j in 0..I {
        mac(tri(I, j), j, lower);
    }
    for j in I + 1..6 {
        mac(tri(j, I), j, upper);
    }
    acc
}

/// Chiral block `B` (spins 2B, 2B + 1: element `j` at reals 12B + 2j) of
/// a packed f64 clover site applied to a flat spinor, plus `shift·ψ` when
/// `shift` is given.
///
/// # Safety
/// As for [`load`].
#[inline(always)]
unsafe fn clover_block_pd<const B: usize>(
    a: &[f64; 72],
    psi: &[f64; 24],
    shift: Option<f64>,
    out: &mut [f64; 24],
) {
    let mut v = [_mm_setzero_pd(); 6];
    for (j, v) in v.iter_mut().enumerate() {
        *v = load_pd(psi, 12 * B + 2 * j);
    }
    let vs = v.map(|x| swap_pd(x));
    let mut w = [
        clover_row_pd::<B, 0>(a, &v, &vs),
        clover_row_pd::<B, 1>(a, &v, &vs),
        clover_row_pd::<B, 2>(a, &v, &vs),
        clover_row_pd::<B, 3>(a, &v, &vs),
        clover_row_pd::<B, 4>(a, &v, &vs),
        clover_row_pd::<B, 5>(a, &v, &vs),
    ];
    if let Some(shift) = shift {
        let s = _mm_set1_pd(shift);
        for (w, v) in w.iter_mut().zip(v) {
            *w = _mm_add_pd(*w, _mm_mul_pd(v, s));
        }
    }
    for (i, w) in w.into_iter().enumerate() {
        store_pd(out, 12 * B + 2 * i, w);
    }
}

/// A precision with SSE2 Wilson-clover kernels: `f32` (two complex
/// numbers per `__m128`) and `f64` (one per `__m128d`). The trait is
/// sealed; its items are the per-precision bodies behind [`SpinorAcc`],
/// [`clover_apply`] and [`clover_apply_shifted`].
pub trait WilsonLanes: Copy + regs::Sealed {
    #[doc(hidden)]
    type Spinor: Copy;
    #[doc(hidden)]
    fn zero() -> Self::Spinor;
    #[doc(hidden)]
    fn load(s: &[Self; 24]) -> Self::Spinor;
    #[doc(hidden)]
    fn store(s: &Self::Spinor, out: &mut [Self; 24]);
    #[doc(hidden)]
    fn hop(
        acc: &mut Self::Spinor,
        proj: Projector,
        adjoint: bool,
        psi: &[Self; 24],
        u: &[Self; 18],
    );
    #[doc(hidden)]
    fn clover(a: &[Self; 72], psi: &[Self; 24], shift: Option<Self>, out: &mut [Self; 24]);
}

/// Run `$hop::<µ>` with the direction as a constant.
macro_rules! by_direction {
    ($hop:ident, $proj:expr, $($arg:expr),*) => {
        match $proj.mu {
            0 => $hop::<0>($($arg),*),
            1 => $hop::<1>($($arg),*),
            2 => $hop::<2>($($arg),*),
            3 => $hop::<3>($($arg),*),
            mu => panic!("direction {mu} out of range"),
        }
    };
}

impl WilsonLanes for f32 {
    type Spinor = Pairs;

    #[inline(always)]
    fn zero() -> Pairs {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        let z = unsafe { _mm_setzero_ps() };
        Pairs { up: [z; 3], lo: [z; 3] }
    }

    #[inline(always)]
    fn load(s: &[f32; 24]) -> Pairs {
        // SAFETY: SSE2 is part of the x86_64 baseline; loads and stores are
        // bounds-checked against the fixed-size arrays.
        unsafe { load_pairs(s) }
    }

    #[inline(always)]
    fn store(s: &Pairs, out: &mut [f32; 24]) {
        // SAFETY: SSE2 is part of the x86_64 baseline; loads and stores are
        // bounds-checked against the fixed-size arrays.
        unsafe { store_pairs(s, out) }
    }

    #[inline(always)]
    fn hop(acc: &mut Pairs, proj: Projector, adjoint: bool, psi: &[f32; 24], u: &[f32; 18]) {
        // SAFETY: SSE2 is part of the x86_64 baseline; loads and stores are
        // bounds-checked against the fixed-size arrays.
        unsafe { by_direction!(hop_mu, proj, acc, proj.plus, adjoint, psi, u) }
    }

    #[inline(always)]
    fn clover(a: &[f32; 72], psi: &[f32; 24], shift: Option<f32>, out: &mut [f32; 24]) {
        // SAFETY: SSE2 is part of the x86_64 baseline; loads and stores are
        // bounds-checked against the fixed-size arrays.
        unsafe { clover(a, psi, shift, out) }
    }
}

impl WilsonLanes for f64 {
    type Spinor = Complexes;

    #[inline(always)]
    fn zero() -> Complexes {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        Complexes([[unsafe { _mm_setzero_pd() }; 3]; 4])
    }

    #[inline(always)]
    fn load(s: &[f64; 24]) -> Complexes {
        // SAFETY: SSE2 is part of the x86_64 baseline; loads and stores are
        // bounds-checked against the fixed-size arrays.
        unsafe { load_complexes(s) }
    }

    #[inline(always)]
    fn store(s: &Complexes, out: &mut [f64; 24]) {
        // SAFETY: SSE2 is part of the x86_64 baseline; loads and stores are
        // bounds-checked against the fixed-size arrays.
        unsafe { store_complexes(s, out) }
    }

    #[inline(always)]
    fn hop(acc: &mut Complexes, proj: Projector, adjoint: bool, psi: &[f64; 24], u: &[f64; 18]) {
        // SAFETY: SSE2 is part of the x86_64 baseline; loads and stores are
        // bounds-checked against the fixed-size arrays.
        unsafe { by_direction!(hop_mu_pd, proj, acc, proj.plus, adjoint, psi, u) }
    }

    #[inline(always)]
    fn clover(a: &[f64; 72], psi: &[f64; 24], shift: Option<f64>, out: &mut [f64; 24]) {
        // SAFETY: SSE2 is part of the x86_64 baseline; loads and stores are
        // bounds-checked against the fixed-size arrays.
        unsafe {
            clover_block_pd::<0>(a, psi, shift, out);
            clover_block_pd::<1>(a, psi, shift, out);
        }
    }
}

/// The output spinor of one site while its hops are summed, held in
/// SSE registers. Flat spinors are the 24 reals of
/// [`WilsonSpinor`](crate::WilsonSpinor), spin-major, `[re, im]` per
/// colour.
#[derive(Clone, Copy)]
pub struct SpinorAcc<R: WilsonLanes>(R::Spinor);

impl<R: WilsonLanes> SpinorAcc<R> {
    /// The zero spinor.
    #[inline(always)]
    pub fn zero() -> Self {
        SpinorAcc(R::zero())
    }

    /// Start from an existing spinor.
    #[inline(always)]
    pub fn load(s: &[R; 24]) -> Self {
        SpinorAcc(R::load(s))
    }

    /// Write the sum out.
    #[inline(always)]
    pub fn store(&self, out: &mut [R; 24]) {
        R::store(&self.0, out)
    }

    /// Add one hop, `(1 ± γµ) ⊗ U'` applied to `psi` with `U' = U†` when
    /// `adjoint` (the backward hop) and `U` otherwise; `u` holds the 18
    /// reals of [`Su3::to_reals`](crate::Su3::to_reals). Bit-identical
    /// to `proj.accumulate(acc, &proj.project(ψ).color_mul(U))` (or
    /// `color_adj_mul`).
    #[inline(always)]
    pub fn hop(&mut self, proj: Projector, adjoint: bool, psi: &[R; 24], u: &[R; 18]) {
        R::hop(&mut self.0, proj, adjoint, psi, u)
    }
}

/// `out = A ψ` for one packed clover site `a` (the 72 reals of
/// [`CloverSite::to_reals`](crate::CloverSite::to_reals)); bit-identical
/// to [`CloverSite::apply`](crate::CloverSite::apply).
#[inline(always)]
pub fn clover_apply<R: WilsonLanes>(a: &[R; 72], psi: &[R; 24], out: &mut [R; 24]) {
    R::clover(a, psi, None, out)
}

/// `out = A ψ + shift·ψ`; bit-identical to
/// `a.apply(ψ).add(&ψ.scale(shift))`.
#[inline(always)]
pub fn clover_apply_shifted<R: WilsonLanes>(
    a: &[R; 72],
    psi: &[R; 24],
    shift: R,
    out: &mut [R; 24],
) {
    R::clover(a, psi, Some(shift), out)
}

/// A colour vector while the hops of one site are summed, held in SSE
/// registers. Flat vectors are the 6 reals of
/// [`ColorVector`](crate::ColorVector), `[re, im]` per colour.
#[derive(Clone, Copy)]
pub struct ColorAcc([__m128d; 3]);

impl ColorAcc {
    /// The zero vector.
    #[inline(always)]
    pub fn zero() -> Self {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        ColorAcc([unsafe { _mm_setzero_pd() }; 3])
    }

    /// Start from an existing vector.
    #[inline(always)]
    pub fn load(v: &[f64; 6]) -> Self {
        // SAFETY: SSE2 is part of the x86_64 baseline; loads stay in `v`.
        unsafe { ColorAcc([load_pd(v, 0), load_pd(v, 2), load_pd(v, 4)]) }
    }

    /// Write the sum out.
    #[inline(always)]
    pub fn store(&self, out: &mut [f64; 6]) {
        // SAFETY: SSE2 is part of the x86_64 baseline; stores stay in `out`.
        unsafe {
            for (k, &c) in self.0.iter().enumerate() {
                store_pd(out, 2 * k, c);
            }
        }
    }

    /// Add `U'·v`, or subtract it when `negate`, with `U' = U†` when
    /// `adjoint` and `U` otherwise; `u` holds the 18 reals of
    /// [`Su3::to_reals`](crate::Su3::to_reals). Bit-identical to
    /// `acc.add(&U.mul_vec(v).scale(s))` (or `adj_mul_vec`) with `s = −1`
    /// when `negate` and `s = 1` otherwise.
    #[inline(always)]
    pub fn hop(&mut self, adjoint: bool, negate: bool, v: &[f64; 6], u: &[f64; 18]) {
        // SAFETY: SSE2 is part of the x86_64 baseline; loads are
        // bounds-checked against the fixed-size arrays.
        unsafe { color_hop(&mut self.0, adjoint, negate, v, u) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::HalfSpinor;
    use crate::{CloverSite, ColorVector, Su3, WilsonSpinor};
    use lqcd_util::rng::SeedTree;
    use lqcd_util::{Complex, Real};
    use rand::Rng;

    /// A precision under test, with its own subnormals and a magnitude
    /// whose products underflow.
    trait Lane: Real + WilsonLanes {
        const TINY: f64;
        fn subnormal<G: Rng>(rng: &mut G) -> Self;
    }

    impl Lane for f32 {
        const TINY: f64 = 1e-20;
        fn subnormal<G: Rng>(rng: &mut G) -> f32 {
            f32::from_bits(1 + rng.gen::<u32>() % 0x007f_ffff)
        }
    }

    impl Lane for f64 {
        const TINY: f64 = 1e-160;
        fn subnormal<G: Rng>(rng: &mut G) -> f64 {
            f64::from_bits(1 + rng.gen::<u64>() % 0x000f_ffff_ffff_ffff)
        }
    }

    fn flat<R: Real>(s: &WilsonSpinor<R>) -> [R; 24] {
        std::array::from_fn(|k| {
            let z = s.s[k / 6].c[k % 6 / 2];
            if k % 2 == 0 {
                z.re
            } else {
                z.im
            }
        })
    }

    /// Bits through the exact widening to f64, which keeps signed zeros
    /// and subnormals apart.
    fn bits<R: Real, const N: usize>(a: &[R; N]) -> [u64; N] {
        a.map(|x| x.to_f64().to_bits())
    }

    /// Gaussian values, or with `special` a mix that also draws ±0.0,
    /// subnormals and magnitudes whose products underflow.
    fn value<R: Lane, G: Rng>(rng: &mut G, special: bool) -> R {
        let (x, _) = lqcd_util::rng::normal_pair(rng);
        if !special {
            return R::from_f64(x);
        }
        let sign = if rng.gen::<bool>() { -R::ONE } else { R::ONE };
        match rng.gen::<u32>() % 6 {
            0 => sign * R::ZERO,
            1 => sign * R::subnormal(rng),
            2 => sign * R::from_f64(R::TINY * (1.0 + x.abs())),
            _ => R::from_f64(x),
        }
    }

    fn spinor<R: Lane, G: Rng>(rng: &mut G, special: bool) -> WilsonSpinor<R> {
        WilsonSpinor::from_fn(|_| {
            ColorVector::from_fn(|_| Complex::new(value(rng, special), value(rng, special)))
        })
    }

    /// A general complex matrix (not unitary, like a fat link).
    fn matrix<R: Lane, G: Rng>(rng: &mut G, special: bool) -> Su3<R> {
        Su3::from_fn(|_, _| Complex::new(value(rng, special), value(rng, special)))
    }

    fn scalar_hop<R: Real>(
        acc: &WilsonSpinor<R>,
        proj: Projector,
        adjoint: bool,
        psi: &WilsonSpinor<R>,
        u: &Su3<R>,
    ) -> WilsonSpinor<R> {
        let h: HalfSpinor<R> = proj.project(psi);
        let h = if adjoint { h.color_adj_mul(u) } else { h.color_mul(u) };
        let mut out = *acc;
        proj.accumulate(&mut out, &h);
        out
    }

    #[test]
    fn row_recipes_reproduce_gamma() {
        // Both rows of each pair share one spin crossing and one
        // real/imaginary kind — the property the pair recipe relies on.
        for g in &GAMMA {
            for r in [0, 2] {
                assert_eq!(g.col[r] ^ 1, g.col[r + 1]);
                let imag = |p: Phase| matches!(p, Phase::I | Phase::MinusI);
                assert_eq!(imag(g.phase[r]), imag(g.phase[r + 1]));
            }
        }
    }

    /// Every (µ, ±) in both the `U` and `U†` forms, from zero and from a
    /// random accumulator.
    fn hop_matches_scalar<R: Lane>(seed: u64) {
        let tree = SeedTree::new(seed);
        let mut rng = tree.rng();
        for trial in 0..400 {
            let special = trial % 2 == 1;
            let psi = spinor::<R, _>(&mut rng, special);
            let u = matrix(&mut rng, special);
            let acc0 =
                if trial % 4 == 0 { WilsonSpinor::zero() } else { spinor(&mut rng, special) };
            for mu in 0..4 {
                for plus in [false, true] {
                    for adjoint in [false, true] {
                        let proj = Projector { mu, plus };
                        let want = scalar_hop(&acc0, proj, adjoint, &psi, &u);
                        let mut acc = SpinorAcc::load(&flat(&acc0));
                        acc.hop(proj, adjoint, &flat(&psi), &u.to_reals());
                        let mut got = [R::ZERO; 24];
                        acc.store(&mut got);
                        assert_eq!(
                            bits(&got),
                            bits(&flat(&want)),
                            "{}: trial {trial}, µ={mu}, plus={plus}, adjoint={adjoint}",
                            R::NAME
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hop_matches_scalar_bitwise() {
        hop_matches_scalar::<f32>(41);
        hop_matches_scalar::<f64>(48);
    }

    /// The interior-kernel pattern: eight hops summed into a zero
    /// accumulator, forward with U and backward with U†.
    fn chained_hops_match_scalar<R: Lane>(seed: u64) {
        let tree = SeedTree::new(seed);
        let mut rng = tree.rng();
        for trial in 0..50 {
            let special = trial % 2 == 0;
            let mut want = WilsonSpinor::zero();
            let mut acc = SpinorAcc::zero();
            for mu in 0..4 {
                for (plus, adjoint) in [(false, false), (true, true)] {
                    let psi = spinor::<R, _>(&mut rng, special);
                    let u = matrix(&mut rng, special);
                    let proj = Projector { mu, plus };
                    want = scalar_hop(&want, proj, adjoint, &psi, &u);
                    acc.hop(proj, adjoint, &flat(&psi), &u.to_reals());
                }
            }
            let mut got = [R::ZERO; 24];
            acc.store(&mut got);
            assert_eq!(bits(&got), bits(&flat(&want)), "{}: trial {trial}", R::NAME);
        }
    }

    #[test]
    fn chained_hops_from_zero_match_scalar_bitwise() {
        chained_hops_match_scalar::<f32>(42);
        chained_hops_match_scalar::<f64>(49);
    }

    fn zero_load_store_roundtrip<R: Lane>(seed: u64) {
        let mut got = [R::ONE; 24];
        SpinorAcc::zero().store(&mut got);
        assert_eq!(bits(&got), [0u64; 24], "{}", R::NAME);
        let s = flat(&spinor::<R, _>(&mut SeedTree::new(seed).rng(), true));
        SpinorAcc::load(&s).store(&mut got);
        assert_eq!(bits(&got), bits(&s), "{}", R::NAME);
    }

    #[test]
    fn zero_load_store_roundtrip_is_exact() {
        zero_load_store_roundtrip::<f32>(43);
        zero_load_store_roundtrip::<f64>(50);
    }

    /// The plain and the shifted block, on positive-definite sites and on
    /// general packed reals (special values included).
    fn clover_matches_scalar<R: Lane>(seed: u64) {
        let tree = SeedTree::new(seed);
        let mut rng = tree.rng();
        for trial in 0..400 {
            let special = trial % 2 == 1;
            let a = if trial % 3 == 0 {
                CloverSite::<f64>::random_spd(&mut rng).cast::<R>()
            } else {
                CloverSite::from_reals(&std::array::from_fn(|_| value(&mut rng, special)))
            };
            let psi = spinor(&mut rng, special);
            let mut got = [R::ZERO; 24];
            clover_apply(&a.to_reals(), &flat(&psi), &mut got);
            assert_eq!(bits(&got), bits(&flat(&a.apply(&psi))), "{}: trial {trial}", R::NAME);
            let shift = value(&mut rng, special);
            clover_apply_shifted(&a.to_reals(), &flat(&psi), shift, &mut got);
            let want = a.apply(&psi).add(&psi.scale(shift));
            assert_eq!(bits(&got), bits(&flat(&want)), "{}: trial {trial} (shifted)", R::NAME);
        }
    }

    #[test]
    fn clover_matches_scalar_bitwise() {
        clover_matches_scalar::<f32>(44);
        clover_matches_scalar::<f64>(51);
    }

    fn vector64<G: Rng>(rng: &mut G, special: bool) -> ColorVector<f64> {
        ColorVector::from_fn(|_| Complex::new(value(rng, special), value(rng, special)))
    }

    fn flat64(v: &ColorVector<f64>) -> [f64; 6] {
        std::array::from_fn(|k| if k % 2 == 0 { v.c[k / 2].re } else { v.c[k / 2].im })
    }

    fn bits64(v: &ColorVector<f64>) -> [u64; 6] {
        flat64(v).map(f64::to_bits)
    }

    /// The scalar staggered hop: `acc + (U'·v)·s`, `s = ±1`.
    fn scalar_color_hop(
        acc: &ColorVector<f64>,
        adjoint: bool,
        negate: bool,
        v: &ColorVector<f64>,
        u: &Su3<f64>,
    ) -> ColorVector<f64> {
        let w = if adjoint { u.adj_mul_vec(v) } else { u.mul_vec(v) };
        acc.add(&w.scale(if negate { -1.0 } else { 1.0 }))
    }

    #[test]
    fn color_hop_matches_scalar_bitwise() {
        let tree = SeedTree::new(45);
        let mut rng = tree.rng();
        for trial in 0..400 {
            let special = trial % 2 == 1;
            let v = vector64(&mut rng, special);
            let u = matrix(&mut rng, special);
            let acc0 =
                if trial % 4 == 0 { ColorVector::zero() } else { vector64(&mut rng, special) };
            for adjoint in [false, true] {
                for negate in [false, true] {
                    let want = scalar_color_hop(&acc0, adjoint, negate, &v, &u);
                    let mut acc = ColorAcc::load(&flat64(&acc0));
                    acc.hop(adjoint, negate, &flat64(&v), &u.to_reals());
                    let mut got = [0.0; 6];
                    acc.store(&mut got);
                    assert_eq!(
                        got.map(f64::to_bits),
                        bits64(&want),
                        "trial {trial}, adjoint={adjoint}, negate={negate}"
                    );
                }
            }
        }
    }

    #[test]
    fn chained_color_hops_from_zero_match_scalar_bitwise() {
        // The asqtad interior pattern: sixteen signed hops summed into a
        // zero accumulator, forward with U and backward with U†.
        let tree = SeedTree::new(46);
        let mut rng = tree.rng();
        for trial in 0..50 {
            let special = trial % 2 == 0;
            let mut want = ColorVector::zero();
            let mut acc = ColorAcc::zero();
            for hop in 0..16 {
                let (adjoint, negate) = (hop % 2 == 1, rng.gen::<bool>());
                let v = vector64(&mut rng, special);
                let u = matrix(&mut rng, special);
                want = scalar_color_hop(&want, adjoint, negate, &v, &u);
                acc.hop(adjoint, negate, &flat64(&v), &u.to_reals());
            }
            let mut got = [0.0; 6];
            acc.store(&mut got);
            assert_eq!(got.map(f64::to_bits), bits64(&want), "trial {trial}");
        }
    }

    #[test]
    fn color_acc_zero_load_store_roundtrip_is_exact() {
        let mut got = [1.0; 6];
        ColorAcc::zero().store(&mut got);
        assert_eq!(got.map(f64::to_bits), [0u64; 6]);
        let v = flat64(&vector64(&mut SeedTree::new(47).rng(), true));
        ColorAcc::load(&v).store(&mut got);
        assert_eq!(got.map(f64::to_bits), v.map(f64::to_bits));
    }
}
