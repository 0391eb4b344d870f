//! SIMD site kernels, each bit-identical to the scalar code it stands in
//! for.
//!
//! For the Wilson-clover operator, in both precisions (`R` = f32 or f64,
//! the [`WilsonLanes`]) and at every [`LaneWidth`]:
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
//! For the asqtad operator, in double precision at every [`LaneWidth`]:
//!
//! * [`LaneAcc::hop`] — one colour hop for the four sites of a lane-major
//!   group: `U·v` or `U†·v` per lane, each lane with its own sign, added
//!   to the lanes that take the hop. Reference: [`Su3::mul_vec`] or
//!   [`Su3::adj_mul_vec`], then `acc.add(&w.scale(±1))`.
//!
//! For the Krylov reductions, over f32 or f64 bodies and in f64 at every
//! [`LaneWidth`]:
//!
//! * [`norm2`] / [`cdot`] — `‖x‖²` and `⟨x, y⟩` of a flat body in one
//!   fixed order that does not depend on the width. For a body of `n`
//!   reals, eight f64 partials `p0..p7` each sum the terms with
//!   `k ≡ p (mod 8)` for `k < 8⌊n/8⌋`, in increasing `k`: `x_k²` for the
//!   norm, `x_k·y_k` for the real part and `x_k·y_{k^1}` for the
//!   imaginary part. The partials fold in the tree
//!   `((p0 + p1) + (p2 + p3)) + ((p4 + p5) + (p6 + p7))`; the imaginary
//!   part subtracts its odd partials, `((q0 − q1) + (q2 − q3)) + …`,
//!   since its odd terms are `x_im·y_re`. Then the tail `k ≥ 8⌊n/8⌋` is
//!   added in sequence (the imaginary part's odd terms subtracted).
//!   Reference: the same order in scalar f64. [`Sse2`] keeps the
//!   partials in four `__m128d` and [`Avx2`] in two `__m256d`, partial
//!   `p` in lane `p` either way, so every width gives the same bits by
//!   construction; f32 bodies widen exactly with `cvtps2pd`.
//!
//! Vectorisation of the site kernels is *within a site* and *across
//! sites*. Within a site,
//! in single precision one 128-bit group holds two complex numbers as
//! `[re, im, re, im]` — the two projected spins of one colour in the hop
//! kernel, the same row of both chiral blocks in the clover kernel. In
//! double precision one 128-bit group holds one complex number as
//! `[re, im]`, and the colour rotation of the Wilson hop is one from-zero
//! complex multiply-accumulate body. Across sites, a [`LaneWidth`] runs
//! [`LaneWidth::SITES`] sites side by side, one per 128-bit group:
//! [`Sse2`] one site in `__m128`/`__m128d`, [`Avx2`] two in
//! `__m256`/`__m256d`. Every body is written once over the width, and
//! each group repeats the width-1 operations in the same order — in-lane
//! shuffles and unpacks, sign-bit xors, no FMA — so every width is
//! bit-identical to SSE2 and to the scalar code by construction.
//!
//! The asqtad hop is *lane-major* instead: one register holds one real
//! of the [`LANES`] sites of a group (reals outermost, [`Lanes`]), in one
//! `__m256d` at [`Avx2`] and two `__m128d` halves at [`Sse2`], so every
//! width runs the same four lanes and each lane does the scalar
//! operations on its own site. Lane rotations, per-lane gathers, the
//! transposes of [`LaneAcc::load`] and [`LaneAcc::store`] and the blend
//! that keeps a lane out of a hop only move bits: a lane that does not
//! take a hop keeps its sum, rather than adding `±0` to it (`−0.0 + 0.0`
//! is `+0.0`).
//!
//! Each lane performs the scalar operations in the scalar order: a
//! complex multiply-accumulate is `acc + ur·h`, then
//! `+ (ui·swap(h) ^ sign)`, with no FMA and no reassociation. Signs are
//! applied by flipping sign bits or by trading an add for a subtract,
//! which is exact (`a − b ≡ a + (−b)`, `(−u)·h ≡ −(u·h)`, `1·h ≡ h`), so
//! results agree bit for bit with the scalar code, signed zeros and
//! subnormals included.
//!
//! SSE2 is part of the x86_64 baseline. The wider instances are picked at
//! run time: an [`Avx2`] value exists only once `is_x86_feature_detected!`
//! has seen AVX2 ([`Width::detect`]), and every accumulator and clover
//! call takes that value, so the safe API cannot reach an instruction the
//! CPU lacks. The bodies are `#[inline(always)]` and contain no closures:
//! a closure is compiled without the caller's `#[target_feature]`, which
//! turns every intrinsic in it into an out-of-line call. A site loop
//! compiles at a width through [`Width::run`], which calls a
//! [`WidthLoop`] from a `#[target_feature(enable = "avx2")]` function.
//! Loads and stores are bounds-checked against fixed-size arrays.
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
use regs::{Complexes, Pairs, Pd, Ps, Qd};
use std::arch::x86_64::*;
use std::ops::IndexMut;

/// `_mm_shuffle_ps` immediate selecting lanes `[a[l0], a[l1], b[h0], b[h1]]`
/// (of every 128-bit group).
const fn sel(l0: i32, l1: i32, h0: i32, h1: i32) -> i32 {
    l0 | (l1 << 2) | (h0 << 4) | (h1 << 6)
}

/// One site per call, in 128-bit registers. SSE2 is part of the x86_64
/// baseline, so this width always runs.
#[derive(Clone, Copy, Debug)]
pub struct Sse2;

/// Two sites per call, one per 128-bit group of a 256-bit register. A
/// value exists only where the CPU has AVX2 ([`Avx2::detect`]).
#[derive(Clone, Copy, Debug)]
pub struct Avx2(());

impl Avx2 {
    /// The width, when the running CPU has AVX2.
    pub fn detect() -> Option<Avx2> {
        is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }
}

/// A site loop compiled once per lane width; [`Width::run`] calls it.
pub trait WidthLoop {
    /// What the loop returns.
    type Output;

    /// The loop at width `W`. Mark it `#[inline(always)]` and call the
    /// kernels outside closures, so that the wide instance is compiled
    /// with the width's instructions (see the module docs).
    fn run<W: LaneWidth>(self, w: W) -> Self::Output;
}

/// A lane width: how many sites one kernel call serves, and the
/// registers and loads that serve them. Sealed; the implementors are
/// [`Sse2`] and [`Avx2`].
pub trait LaneWidth: Copy + Send + Sync + regs::Sealed {
    /// Sites per call.
    const SITES: usize;

    /// One item per site of a call, `[T; SITES]`.
    type Sites<T>: IndexMut<usize, Output = T>;

    /// `[f(0), …, f(SITES − 1)]`.
    fn sites<T>(f: impl FnMut(usize) -> T) -> Self::Sites<T>;

    /// The first `SITES` consecutive sites of `N` values each in `reals`.
    fn split_mut<T, const N: usize>(reals: &mut [T]) -> Self::Sites<&mut [T; N]>;

    /// Run `l` compiled for this width.
    fn run<L: WidthLoop>(self, l: L) -> L::Output;

    #[doc(hidden)]
    type Ps: Ps;
    #[doc(hidden)]
    type Pd: Pd;
    #[doc(hidden)]
    type Qd: Qd;

    /// Four f32 lanes at `at` of every site.
    ///
    /// # Safety
    /// The CPU runs this width's instructions.
    #[doc(hidden)]
    unsafe fn load_ps<const N: usize>(s: &Self::Sites<&[f32; N]>, at: usize) -> Self::Ps;

    /// # Safety
    /// As for [`LaneWidth::load_ps`].
    #[doc(hidden)]
    unsafe fn store_ps<const N: usize>(s: &mut Self::Sites<&mut [f32; N]>, at: usize, v: Self::Ps);

    /// Two f64 lanes at `at` of every site.
    ///
    /// # Safety
    /// As for [`LaneWidth::load_ps`].
    #[doc(hidden)]
    unsafe fn load_pd<const N: usize>(s: &Self::Sites<&[f64; N]>, at: usize) -> Self::Pd;

    /// # Safety
    /// As for [`LaneWidth::load_ps`].
    #[doc(hidden)]
    unsafe fn store_pd<const N: usize>(s: &mut Self::Sites<&mut [f64; N]>, at: usize, v: Self::Pd);
}

/// `N` values at the head of `reals`.
fn head<T, const N: usize>(reals: &mut [T]) -> &mut [T; N] {
    reals.first_chunk_mut().expect("a whole site")
}

impl LaneWidth for Sse2 {
    const SITES: usize = 1;
    type Sites<T> = [T; 1];
    type Ps = __m128;
    type Pd = __m128d;
    type Qd = regs::Halves;

    #[inline(always)]
    fn sites<T>(mut f: impl FnMut(usize) -> T) -> [T; 1] {
        [f(0)]
    }

    #[inline(always)]
    fn split_mut<T, const N: usize>(reals: &mut [T]) -> [&mut [T; N]; 1] {
        [head(reals)]
    }

    #[inline(always)]
    fn run<L: WidthLoop>(self, l: L) -> L::Output {
        l.run(self)
    }

    #[inline(always)]
    unsafe fn load_ps<const N: usize>(s: &[&[f32; N]; 1], at: usize) -> __m128 {
        assert!(at + 4 <= N);
        _mm_loadu_ps(s[0].as_ptr().add(at))
    }

    #[inline(always)]
    unsafe fn store_ps<const N: usize>(s: &mut [&mut [f32; N]; 1], at: usize, v: __m128) {
        assert!(at + 4 <= N);
        _mm_storeu_ps(s[0].as_mut_ptr().add(at), v)
    }

    #[inline(always)]
    unsafe fn load_pd<const N: usize>(s: &[&[f64; N]; 1], at: usize) -> __m128d {
        assert!(at + 2 <= N);
        _mm_loadu_pd(s[0].as_ptr().add(at))
    }

    #[inline(always)]
    unsafe fn store_pd<const N: usize>(s: &mut [&mut [f64; N]; 1], at: usize, v: __m128d) {
        assert!(at + 2 <= N);
        _mm_storeu_pd(s[0].as_mut_ptr().add(at), v)
    }
}

/// `l` at width [`Avx2`], compiled with AVX2.
#[target_feature(enable = "avx2")]
fn run_avx2<L: WidthLoop>(w: Avx2, l: L) -> L::Output {
    l.run(w)
}

impl LaneWidth for Avx2 {
    const SITES: usize = 2;
    type Sites<T> = [T; 2];
    type Ps = __m256;
    type Pd = __m256d;
    type Qd = __m256d;

    #[inline(always)]
    fn sites<T>(mut f: impl FnMut(usize) -> T) -> [T; 2] {
        [f(0), f(1)]
    }

    #[inline(always)]
    fn split_mut<T, const N: usize>(reals: &mut [T]) -> [&mut [T; N]; 2] {
        let (a, b) = reals.split_at_mut(N);
        [head(a), head(b)]
    }

    #[inline(always)]
    fn run<L: WidthLoop>(self, l: L) -> L::Output {
        // SAFETY: an `Avx2` value exists only where the CPU has AVX2.
        unsafe { run_avx2(self, l) }
    }

    #[inline(always)]
    unsafe fn load_ps<const N: usize>(s: &[&[f32; N]; 2], at: usize) -> __m256 {
        assert!(at + 4 <= N);
        _mm256_loadu2_m128(s[1].as_ptr().add(at), s[0].as_ptr().add(at))
    }

    #[inline(always)]
    unsafe fn store_ps<const N: usize>(s: &mut [&mut [f32; N]; 2], at: usize, v: __m256) {
        assert!(at + 4 <= N);
        _mm256_storeu2_m128(s[1].as_mut_ptr().add(at), s[0].as_mut_ptr().add(at), v)
    }

    #[inline(always)]
    unsafe fn load_pd<const N: usize>(s: &[&[f64; N]; 2], at: usize) -> __m256d {
        assert!(at + 2 <= N);
        _mm256_loadu2_m128d(s[1].as_ptr().add(at), s[0].as_ptr().add(at))
    }

    #[inline(always)]
    unsafe fn store_pd<const N: usize>(s: &mut [&mut [f64; N]; 2], at: usize, v: __m256d) {
        assert!(at + 2 <= N);
        _mm256_storeu2_m128d(s[1].as_mut_ptr().add(at), s[0].as_mut_ptr().add(at), v)
    }
}

/// The lane width an operator picks once, at construction.
#[derive(Clone, Copy, Debug)]
pub enum Width {
    /// [`Sse2`]: one site per call.
    Sse2,
    /// [`Avx2`]: two sites per call.
    Avx2(Avx2),
}

impl Width {
    /// The widest width the running CPU supports.
    pub fn detect() -> Width {
        Avx2::detect().map_or(Width::Sse2, Width::Avx2)
    }

    /// Every width the running CPU supports, narrowest first.
    pub fn supported() -> Vec<Width> {
        std::iter::once(Width::Sse2).chain(Avx2::detect().map(Width::Avx2)).collect()
    }

    /// Run `l` compiled for this width.
    #[inline]
    pub fn run<L: WidthLoop>(self, l: L) -> L::Output {
        match self {
            Width::Sse2 => Sse2.run(l),
            Width::Avx2(w) => w.run(l),
        }
    }
}

/// The register forms, and the seals of [`LaneWidth`] and
/// [`WilsonLanes`]: public items in a private module, so no caller can
/// name them.
mod regs {
    use std::arch::x86_64::*;

    /// f32 registers of one or more 128-bit groups; every operation acts
    /// on each group alone.
    pub trait Ps: Copy {
        /// # Safety
        /// The CPU runs the register's instructions (for every item).
        unsafe fn zero() -> Self;
        unsafe fn splat(x: f32) -> Self;
        /// Sign-bit mask: lane `k` of every group is `−0.0` where
        /// `neg[k]`, else `+0.0`.
        unsafe fn signs(neg: [bool; 4]) -> Self;
        unsafe fn add(self, b: Self) -> Self;
        unsafe fn mul(self, b: Self) -> Self;
        unsafe fn xor(self, b: Self) -> Self;
        /// `_mm_shuffle_ps::<M>(self, b)` on every group.
        unsafe fn shuffle<const M: i32>(self, b: Self) -> Self;
    }

    /// f64 registers of one or more 128-bit groups, `[re, im]` each.
    pub trait Pd: Copy {
        /// # Safety
        /// As for [`Ps::zero`].
        unsafe fn zero() -> Self;
        unsafe fn splat(x: f64) -> Self;
        /// Sign-bit mask `[re, im]` of every group.
        unsafe fn signs(re: bool, im: bool) -> Self;
        unsafe fn add(self, b: Self) -> Self;
        unsafe fn mul(self, b: Self) -> Self;
        unsafe fn xor(self, b: Self) -> Self;
        /// `[re, im]` → `[im, re]`.
        unsafe fn swap(self) -> Self;
        /// `[self.re, b.re]`.
        unsafe fn unpacklo(self, b: Self) -> Self;
        /// `[self.im, b.im]`.
        unsafe fn unpackhi(self, b: Self) -> Self;
        /// The lanes `x[at..]`, one group after another.
        unsafe fn load_at(x: &[f64; 8], at: usize) -> Self;
        /// The lanes `x[at..]` widened to f64 (`cvtps2pd`).
        unsafe fn widen_at(x: &[f32; 8], at: usize) -> Self;
        /// Write the lanes to `out[at..]`.
        unsafe fn store_at(self, out: &mut [f64; 8], at: usize);
    }

    const fn sign(n: bool) -> f32 {
        if n {
            -0.0
        } else {
            0.0
        }
    }

    const fn sign_pd(n: bool) -> f64 {
        if n {
            -0.0
        } else {
            0.0
        }
    }

    impl Ps for __m128 {
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            _mm_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn signs(n: [bool; 4]) -> Self {
            _mm_setr_ps(sign(n[0]), sign(n[1]), sign(n[2]), sign(n[3]))
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            _mm_add_ps(self, b)
        }
        #[inline(always)]
        unsafe fn mul(self, b: Self) -> Self {
            _mm_mul_ps(self, b)
        }
        #[inline(always)]
        unsafe fn xor(self, b: Self) -> Self {
            _mm_xor_ps(self, b)
        }
        #[inline(always)]
        unsafe fn shuffle<const M: i32>(self, b: Self) -> Self {
            _mm_shuffle_ps::<M>(self, b)
        }
    }

    impl Ps for __m256 {
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm256_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            _mm256_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn signs(n: [bool; 4]) -> Self {
            let (a, b, c, d) = (sign(n[0]), sign(n[1]), sign(n[2]), sign(n[3]));
            _mm256_setr_ps(a, b, c, d, a, b, c, d)
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            _mm256_add_ps(self, b)
        }
        #[inline(always)]
        unsafe fn mul(self, b: Self) -> Self {
            _mm256_mul_ps(self, b)
        }
        #[inline(always)]
        unsafe fn xor(self, b: Self) -> Self {
            _mm256_xor_ps(self, b)
        }
        #[inline(always)]
        unsafe fn shuffle<const M: i32>(self, b: Self) -> Self {
            _mm256_shuffle_ps::<M>(self, b)
        }
    }

    impl Pd for __m128d {
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm_setzero_pd()
        }
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            _mm_set1_pd(x)
        }
        #[inline(always)]
        unsafe fn signs(re: bool, im: bool) -> Self {
            _mm_setr_pd(sign_pd(re), sign_pd(im))
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            _mm_add_pd(self, b)
        }
        #[inline(always)]
        unsafe fn mul(self, b: Self) -> Self {
            _mm_mul_pd(self, b)
        }
        #[inline(always)]
        unsafe fn xor(self, b: Self) -> Self {
            _mm_xor_pd(self, b)
        }
        #[inline(always)]
        unsafe fn swap(self) -> Self {
            _mm_shuffle_pd::<0b01>(self, self)
        }
        #[inline(always)]
        unsafe fn unpacklo(self, b: Self) -> Self {
            _mm_unpacklo_pd(self, b)
        }
        #[inline(always)]
        unsafe fn unpackhi(self, b: Self) -> Self {
            _mm_unpackhi_pd(self, b)
        }
        #[inline(always)]
        unsafe fn load_at(x: &[f64; 8], at: usize) -> Self {
            assert!(at + 2 <= 8);
            _mm_loadu_pd(x.as_ptr().add(at))
        }
        #[inline(always)]
        unsafe fn widen_at(x: &[f32; 8], at: usize) -> Self {
            assert!(at + 2 <= 8);
            // An unaligned 64-bit load: the f32 pair is only 4-aligned.
            _mm_cvtps_pd(_mm_castsi128_ps(_mm_loadl_epi64(x.as_ptr().add(at).cast())))
        }
        #[inline(always)]
        unsafe fn store_at(self, out: &mut [f64; 8], at: usize) {
            assert!(at + 2 <= 8);
            _mm_storeu_pd(out.as_mut_ptr().add(at), self)
        }
    }

    impl Pd for __m256d {
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm256_setzero_pd()
        }
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            _mm256_set1_pd(x)
        }
        #[inline(always)]
        unsafe fn signs(re: bool, im: bool) -> Self {
            let (a, b) = (sign_pd(re), sign_pd(im));
            _mm256_setr_pd(a, b, a, b)
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            _mm256_add_pd(self, b)
        }
        #[inline(always)]
        unsafe fn mul(self, b: Self) -> Self {
            _mm256_mul_pd(self, b)
        }
        #[inline(always)]
        unsafe fn xor(self, b: Self) -> Self {
            _mm256_xor_pd(self, b)
        }
        #[inline(always)]
        unsafe fn swap(self) -> Self {
            // Bit k of the immediate picks lane k's element of its group.
            _mm256_shuffle_pd::<0b0101>(self, self)
        }
        #[inline(always)]
        unsafe fn unpacklo(self, b: Self) -> Self {
            _mm256_unpacklo_pd(self, b)
        }
        #[inline(always)]
        unsafe fn unpackhi(self, b: Self) -> Self {
            _mm256_unpackhi_pd(self, b)
        }
        #[inline(always)]
        unsafe fn load_at(x: &[f64; 8], at: usize) -> Self {
            assert!(at + 4 <= 8);
            _mm256_loadu_pd(x.as_ptr().add(at))
        }
        #[inline(always)]
        unsafe fn widen_at(x: &[f32; 8], at: usize) -> Self {
            assert!(at + 4 <= 8);
            _mm256_cvtps_pd(_mm_loadu_ps(x.as_ptr().add(at)))
        }
        #[inline(always)]
        unsafe fn store_at(self, out: &mut [f64; 8], at: usize) {
            assert!(at + 4 <= 8);
            _mm256_storeu_pd(out.as_mut_ptr().add(at), self)
        }
    }

    /// f32, as colour-pair vectors: `up[c] = [ψ₀c, ψ₁c]`,
    /// `lo[c] = [ψ₂c, ψ₃c]`.
    #[derive(Clone, Copy)]
    pub struct Pairs<V> {
        pub up: [V; 3],
        pub lo: [V; 3],
    }

    /// f64, one complex per 128-bit group: `[spin][colour]`.
    #[derive(Clone, Copy)]
    pub struct Complexes<V>(pub [[V; 3]; 4]);

    /// Four f64 lanes, one per site of a lane-major group. Arithmetic
    /// acts on each lane alone; `rotate`, `select` and the loads and
    /// stores only move bits.
    pub trait Qd: Copy {
        /// # Safety
        /// As for [`Ps::zero`].
        unsafe fn zero() -> Self;
        /// The lanes `x[at..at + 4]`.
        unsafe fn load<const M: usize>(x: &[f64; M], at: usize) -> Self;
        /// Write the lanes to `x[at..at + 4]`.
        unsafe fn store<const M: usize>(self, x: &mut [f64; M], at: usize);
        /// `[l[0], l[1], l[2], l[3]]`.
        unsafe fn set(l: [f64; 4]) -> Self;
        unsafe fn add(self, b: Self) -> Self;
        unsafe fn sub(self, b: Self) -> Self;
        unsafe fn mul(self, b: Self) -> Self;
        unsafe fn xor(self, b: Self) -> Self;
        /// Lane `k` of `b` where lane `k` of `mask` is all ones, else
        /// lane `k` of `self`.
        unsafe fn select(self, b: Self, mask: Self) -> Self;
        /// Lane `k` takes lane `(k + R) % 4`.
        unsafe fn rotate<const R: i32>(self) -> Self;
        /// Colour `c` (`re`, `im`) of the four sites, written site-major:
        /// lane `k` to `out[6k + 2c ..][..2]`.
        unsafe fn store_sites(re: Self, im: Self, out: &mut [f64; 24], c: usize);
        /// The inverse of `store_sites`: colour `c` (`re`, `im`) of the
        /// four sites of `sites`.
        unsafe fn load_sites(sites: &[f64; 24], c: usize) -> (Self, Self);
    }

    /// [`Qd`] at width 1: lanes 0–1 and lanes 2–3.
    #[derive(Clone, Copy)]
    pub struct Halves(__m128d, __m128d);

    impl Qd for Halves {
        #[inline(always)]
        unsafe fn zero() -> Self {
            Halves(_mm_setzero_pd(), _mm_setzero_pd())
        }
        #[inline(always)]
        unsafe fn load<const M: usize>(x: &[f64; M], at: usize) -> Self {
            assert!(at + 4 <= M);
            let p = x.as_ptr().add(at);
            Halves(_mm_loadu_pd(p), _mm_loadu_pd(p.add(2)))
        }
        #[inline(always)]
        unsafe fn store<const M: usize>(self, x: &mut [f64; M], at: usize) {
            assert!(at + 4 <= M);
            let p = x.as_mut_ptr().add(at);
            _mm_storeu_pd(p, self.0);
            _mm_storeu_pd(p.add(2), self.1);
        }
        #[inline(always)]
        unsafe fn set(l: [f64; 4]) -> Self {
            Halves(_mm_setr_pd(l[0], l[1]), _mm_setr_pd(l[2], l[3]))
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            Halves(_mm_add_pd(self.0, b.0), _mm_add_pd(self.1, b.1))
        }
        #[inline(always)]
        unsafe fn sub(self, b: Self) -> Self {
            Halves(_mm_sub_pd(self.0, b.0), _mm_sub_pd(self.1, b.1))
        }
        #[inline(always)]
        unsafe fn mul(self, b: Self) -> Self {
            Halves(_mm_mul_pd(self.0, b.0), _mm_mul_pd(self.1, b.1))
        }
        #[inline(always)]
        unsafe fn xor(self, b: Self) -> Self {
            Halves(_mm_xor_pd(self.0, b.0), _mm_xor_pd(self.1, b.1))
        }
        #[inline(always)]
        unsafe fn select(self, b: Self, mask: Self) -> Self {
            Halves(
                _mm_or_pd(_mm_and_pd(mask.0, b.0), _mm_andnot_pd(mask.0, self.0)),
                _mm_or_pd(_mm_and_pd(mask.1, b.1), _mm_andnot_pd(mask.1, self.1)),
            )
        }
        #[inline(always)]
        unsafe fn rotate<const R: i32>(self) -> Self {
            let Halves(lo, hi) = self;
            match R & 3 {
                0 => self,
                // [l1, l2], [l3, l0]
                1 => Halves(_mm_shuffle_pd::<0b01>(lo, hi), _mm_shuffle_pd::<0b01>(hi, lo)),
                2 => Halves(hi, lo),
                // [l3, l0], [l1, l2]
                _ => Halves(_mm_shuffle_pd::<0b01>(hi, lo), _mm_shuffle_pd::<0b01>(lo, hi)),
            }
        }
        #[inline(always)]
        unsafe fn store_sites(re: Self, im: Self, out: &mut [f64; 24], c: usize) {
            assert!(c < 3);
            let p = out.as_mut_ptr().add(2 * c);
            _mm_storeu_pd(p, _mm_unpacklo_pd(re.0, im.0));
            _mm_storeu_pd(p.add(6), _mm_unpackhi_pd(re.0, im.0));
            _mm_storeu_pd(p.add(12), _mm_unpacklo_pd(re.1, im.1));
            _mm_storeu_pd(p.add(18), _mm_unpackhi_pd(re.1, im.1));
        }
        #[inline(always)]
        unsafe fn load_sites(sites: &[f64; 24], c: usize) -> (Self, Self) {
            assert!(c < 3);
            let p = sites.as_ptr().add(2 * c);
            let (s0, s1) = (_mm_loadu_pd(p), _mm_loadu_pd(p.add(6)));
            let (s2, s3) = (_mm_loadu_pd(p.add(12)), _mm_loadu_pd(p.add(18)));
            (
                Halves(_mm_unpacklo_pd(s0, s1), _mm_unpacklo_pd(s2, s3)),
                Halves(_mm_unpackhi_pd(s0, s1), _mm_unpackhi_pd(s2, s3)),
            )
        }
    }

    impl Qd for __m256d {
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm256_setzero_pd()
        }
        #[inline(always)]
        unsafe fn load<const M: usize>(x: &[f64; M], at: usize) -> Self {
            assert!(at + 4 <= M);
            _mm256_loadu_pd(x.as_ptr().add(at))
        }
        #[inline(always)]
        unsafe fn store<const M: usize>(self, x: &mut [f64; M], at: usize) {
            assert!(at + 4 <= M);
            _mm256_storeu_pd(x.as_mut_ptr().add(at), self)
        }
        #[inline(always)]
        unsafe fn set(l: [f64; 4]) -> Self {
            _mm256_setr_pd(l[0], l[1], l[2], l[3])
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            _mm256_add_pd(self, b)
        }
        #[inline(always)]
        unsafe fn sub(self, b: Self) -> Self {
            _mm256_sub_pd(self, b)
        }
        #[inline(always)]
        unsafe fn mul(self, b: Self) -> Self {
            _mm256_mul_pd(self, b)
        }
        #[inline(always)]
        unsafe fn xor(self, b: Self) -> Self {
            _mm256_xor_pd(self, b)
        }
        #[inline(always)]
        unsafe fn select(self, b: Self, mask: Self) -> Self {
            _mm256_blendv_pd(self, b, mask)
        }
        #[inline(always)]
        unsafe fn rotate<const R: i32>(self) -> Self {
            // Two bits of the immediate per destination lane name its
            // source lane.
            match R & 3 {
                0 => self,
                1 => _mm256_permute4x64_pd::<0b00_11_10_01>(self),
                2 => _mm256_permute4x64_pd::<0b01_00_11_10>(self),
                _ => _mm256_permute4x64_pd::<0b10_01_00_11>(self),
            }
        }
        #[inline(always)]
        unsafe fn store_sites(re: Self, im: Self, out: &mut [f64; 24], c: usize) {
            assert!(c < 3);
            let p = out.as_mut_ptr().add(2 * c);
            // [re0, im0, re2, im2] and [re1, im1, re3, im3].
            let (even, odd) = (_mm256_unpacklo_pd(re, im), _mm256_unpackhi_pd(re, im));
            _mm256_storeu2_m128d(p.add(12), p, even);
            _mm256_storeu2_m128d(p.add(18), p.add(6), odd);
        }
        #[inline(always)]
        unsafe fn load_sites(sites: &[f64; 24], c: usize) -> (Self, Self) {
            assert!(c < 3);
            let p = sites.as_ptr().add(2 * c);
            let (even, odd) =
                (_mm256_loadu2_m128d(p.add(12), p), _mm256_loadu2_m128d(p.add(18), p.add(6)));
            (_mm256_unpacklo_pd(even, odd), _mm256_unpackhi_pd(even, odd))
        }
    }

    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
    impl Sealed for super::Sse2 {}
    impl Sealed for super::Avx2 {}
}

/// `[re, im, re', im']` → `[re', im', re, im]`.
///
/// # Safety
/// The CPU runs the register's instructions (for every item below).
#[inline(always)]
unsafe fn swap_pair<V: Ps>(x: V) -> V {
    x.shuffle::<{ sel(2, 3, 0, 1) }>(x)
}

/// `[re, im, re', im']` → `[im, re, im', re']`.
///
/// # Safety
/// As for [`swap_pair`].
#[inline(always)]
unsafe fn swap_reim<V: Ps>(x: V) -> V {
    x.shuffle::<{ sel(1, 0, 3, 2) }>(x)
}

/// `[a₀, a₁, b₀, b₁]` (`_mm_movelh_ps`).
///
/// # Safety
/// As for [`swap_pair`].
#[inline(always)]
unsafe fn movelh<V: Ps>(a: V, b: V) -> V {
    a.shuffle::<{ sel(0, 1, 0, 1) }>(b)
}

/// `[b₂, b₃, a₂, a₃]` (`_mm_movehl_ps`).
///
/// # Safety
/// As for [`swap_pair`].
#[inline(always)]
unsafe fn movehl<V: Ps>(a: V, b: V) -> V {
    b.shuffle::<{ sel(2, 3, 2, 3) }>(a)
}

/// `v` shuffled by the immediate `M`.
///
/// # Safety
/// As for [`swap_pair`].
#[inline(always)]
unsafe fn splat<V: Ps, const M: i32>(v: V) -> V {
    v.shuffle::<M>(v)
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
/// As for [`swap_pair`].
#[inline(always)]
unsafe fn apply_rows<V: Ps>(rp: RowPair, x: V) -> V {
    let x = if rp.cross { swap_pair(x) } else { x };
    let x = if rp.imaginary { swap_reim(x) } else { x };
    x.xor(V::signs(rp.neg))
}

/// Spins `s, s + 1` (flat reals `[v0 v1 v2]`, spin-major) as colour pairs.
///
/// # Safety
/// As for [`swap_pair`].
#[inline(always)]
unsafe fn to_pairs<V: Ps>(v0: V, v1: V, v2: V) -> [V; 3] {
    [
        v0.shuffle::<{ sel(0, 1, 2, 3) }>(v1),
        v0.shuffle::<{ sel(2, 3, 0, 1) }>(v2),
        v1.shuffle::<{ sel(0, 1, 2, 3) }>(v2),
    ]
}

/// Inverse of [`to_pairs`].
///
/// # Safety
/// As for [`swap_pair`].
#[inline(always)]
unsafe fn from_pairs<V: Ps>(c: [V; 3]) -> [V; 3] {
    [
        c[0].shuffle::<{ sel(0, 1, 0, 1) }>(c[1]),
        c[2].shuffle::<{ sel(0, 1, 2, 3) }>(c[0]),
        c[1].shuffle::<{ sel(2, 3, 2, 3) }>(c[2]),
    ]
}

/// # Safety
/// The CPU runs `W`'s instructions (for every item below).
#[inline(always)]
unsafe fn load_pairs<W: LaneWidth>(p: &W::Sites<&[f32; 24]>) -> Pairs<W::Ps> {
    Pairs {
        up: to_pairs(W::load_ps(p, 0), W::load_ps(p, 4), W::load_ps(p, 8)),
        lo: to_pairs(W::load_ps(p, 12), W::load_ps(p, 16), W::load_ps(p, 20)),
    }
}

/// # Safety
/// As for [`load_pairs`].
#[inline(always)]
unsafe fn store_pairs<W: LaneWidth>(pairs: &Pairs<W::Ps>, out: &mut W::Sites<&mut [f32; 24]>) {
    let up = from_pairs(pairs.up);
    let lo = from_pairs(pairs.lo);
    for k in 0..3 {
        W::store_ps(out, 4 * k, up[k]);
        W::store_ps(out, 12 + 4 * k, lo[k]);
    }
}

/// Link entry `k = 3·row + col` as broadcast `(re, im)`, from the rows
/// loaded at reals 0, 4, 8, 12 and 14.
///
/// # Safety
/// As for [`swap_pair`].
#[inline(always)]
unsafe fn link_entry<V: Ps>(l: &[V; 5], k: usize) -> (V, V) {
    let (v, high) = if k == 8 { (l[4], true) } else { (l[k / 2], k % 2 == 1) };
    if high {
        (splat::<V, 0xAA>(v), splat::<V, 0xFF>(v))
    } else {
        (splat::<V, 0x00>(v), splat::<V, 0x55>(v))
    }
}

/// One f32 hop in direction `MU`.
///
/// # Safety
/// As for [`load_pairs`].
#[inline(always)]
unsafe fn hop_mu<W: LaneWidth, const MU: usize>(
    acc: &mut Pairs<W::Ps>,
    plus: bool,
    adjoint: bool,
    psi: &W::Sites<&[f32; 24]>,
    u: &W::Sites<&[f32; 18]>,
) {
    let p = load_pairs::<W>(psi);
    // Project: h_c = ψ_up,c ± γ-rows(0, 1) ψ_lo,c.
    let proj = row_pair(MU, 0, !plus);
    let mut h = p.up;
    for c in 0..3 {
        h[c] = p.up[c].add(apply_rows(proj, p.lo[c]));
    }
    // Colour-rotate: r_i = Σ_j U'_ij h_j with U' = U or U†. The
    // imaginary part of U'_ij meets swap(h_j) with the sign of its lane.
    let ui_sign =
        W::Ps::signs(if adjoint { [false, true, false, true] } else { [true, false, true, false] });
    let mut hs = h;
    for c in 0..3 {
        hs[c] = swap_reim(h[c]).xor(ui_sign);
    }
    let l = [
        W::load_ps(u, 0),
        W::load_ps(u, 4),
        W::load_ps(u, 8),
        W::load_ps(u, 12),
        W::load_ps(u, 14),
    ];
    let mut r = [W::Ps::zero(); 3];
    for i in 0..3 {
        for j in 0..3 {
            let (ur, ui) = link_entry(&l, if adjoint { 3 * j + i } else { 3 * i + j });
            r[i] = r[i].add(ur.mul(h[j]));
            r[i] = r[i].add(ui.mul(hs[j]));
        }
    }
    // Accumulate: upper spins take r, lower spins ±γ-rows(2, 3) r.
    let recon = row_pair(MU, 2, !plus);
    for c in 0..3 {
        acc.up[c] = acc.up[c].add(r[c]);
        acc.lo[c] = acc.lo[c].add(apply_rows(recon, r[c]));
    }
}

/// One off-diagonal term of an f32 clover row: `acc + cr·v + (ci·vs ^ sign)`
/// with `[cr, ci]` the packed entry `t` of both blocks.
///
/// # Safety
/// As for [`load_pairs`].
#[inline(always)]
unsafe fn clover_mac<W: LaneWidth>(
    acc: W::Ps,
    a: &W::Sites<&[f32; 72]>,
    t: usize,
    v: W::Ps,
    vs: W::Ps,
    sign: W::Ps,
) -> W::Ps {
    // [off⁰_t, off¹_t]: off-diagonals start at reals 6 and 42.
    let c = W::load_ps(a, 6 + 2 * t).shuffle::<{ sel(0, 1, 2, 3) }>(W::load_ps(a, 40 + 2 * t));
    let cr = splat::<W::Ps, { sel(0, 0, 2, 2) }>(c);
    let ci = splat::<W::Ps, { sel(1, 1, 3, 3) }>(c);
    let acc = acc.add(cr.mul(v));
    acc.add(ci.mul(vs).xor(sign))
}

/// Row `I` of both chiral blocks of a packed f32 clover site applied to
/// `v[j] = [ψ⁰_j, ψ¹_j]`, element `j` of the chirality-0 (spins 0, 1) and
/// chirality-1 (spins 2, 3) 6-vectors; `vs[j] = swap(v[j])`. The scalar
/// order: the diagonal term, then every `j ≠ I` ascending.
///
/// # Safety
/// As for [`load_pairs`].
#[inline(always)]
unsafe fn clover_row<W: LaneWidth, const I: usize>(
    a: &W::Sites<&[f32; 72]>,
    v: &[W::Ps; 6],
    vs: &[W::Ps; 6],
) -> W::Ps {
    // Lower-triangle entries A_Ij = off(I, j) meet swap(v_j) with a
    // negated real lane; upper ones A_Ij = conj(off(j, I)) with a negated
    // imaginary lane.
    let lower = W::Ps::signs([true, false, true, false]);
    let upper = W::Ps::signs([false, true, false, true]);
    // [d⁰_I, d⁰_I, d¹_I, d¹_I]: the diagonals sit at reals 0 and 36.
    let d = W::load_ps(a, I).shuffle::<{ sel(0, 0, 0, 0) }>(W::load_ps(a, 36 + I));
    let mut acc = v[I].mul(d);
    for j in 0..I {
        acc = clover_mac::<W>(acc, a, tri(I, j), v[j], vs[j], lower);
    }
    for j in I + 1..6 {
        acc = clover_mac::<W>(acc, a, tri(j, I), v[j], vs[j], upper);
    }
    acc
}

/// Both chiral blocks of a packed f32 clover site applied to a flat
/// spinor, plus `shift·ψ` when `shift` is given.
///
/// # Safety
/// As for [`load_pairs`].
#[inline(always)]
unsafe fn clover<W: LaneWidth>(
    a: &W::Sites<&[f32; 72]>,
    psi: &W::Sites<&[f32; 24]>,
    shift: Option<f32>,
    out: &mut W::Sites<&mut [f32; 24]>,
) {
    let (x0, x4, x8) = (W::load_ps(psi, 0), W::load_ps(psi, 4), W::load_ps(psi, 8));
    let (y0, y4, y8) = (W::load_ps(psi, 12), W::load_ps(psi, 16), W::load_ps(psi, 20));
    let v = [
        movelh(x0, y0),
        movehl(y0, x0),
        movelh(x4, y4),
        movehl(y4, x4),
        movelh(x8, y8),
        movehl(y8, x8),
    ];
    let mut vs = v;
    for j in 0..6 {
        vs[j] = swap_reim(v[j]);
    }
    let mut w = [
        clover_row::<W, 0>(a, &v, &vs),
        clover_row::<W, 1>(a, &v, &vs),
        clover_row::<W, 2>(a, &v, &vs),
        clover_row::<W, 3>(a, &v, &vs),
        clover_row::<W, 4>(a, &v, &vs),
        clover_row::<W, 5>(a, &v, &vs),
    ];
    if let Some(shift) = shift {
        let s = W::Ps::splat(shift);
        for j in 0..6 {
            w[j] = w[j].add(v[j].mul(s));
        }
    }
    for k in 0..3 {
        W::store_ps(out, 4 * k, movelh(w[2 * k], w[2 * k + 1]));
        W::store_ps(out, 12 + 4 * k, movehl(w[2 * k + 1], w[2 * k]));
    }
}

/// Row `r + k` of a row-pair recipe applied to the one complex it reads
/// (spin `cross ^ k` of the pair).
///
/// # Safety
/// As for [`swap_pair`].
#[inline(always)]
unsafe fn apply_row_pd<V: Pd>(rp: RowPair, k: usize, x: V) -> V {
    let x = if rp.imaginary { x.swap() } else { x };
    x.xor(V::signs(rp.neg[2 * k], rp.neg[2 * k + 1]))
}

/// `U'·b` for `N` colour vectors, with `U' = U†` when `adjoint` and `U`
/// otherwise, one complex per 128-bit group: every output starts from
/// `+0.0` and takes `j` ascending, the real part of `U'_ij` before the
/// imaginary one — the order of [`Su3::mul_vec`](crate::Su3::mul_vec) and
/// [`Su3::adj_mul_vec`](crate::Su3::adj_mul_vec). Each link entry is
/// loaded once for all `N` vectors.
///
/// # Safety
/// As for [`load_pairs`].
#[inline(always)]
unsafe fn color_rotate<W: LaneWidth, const N: usize>(
    adjoint: bool,
    b: &[[W::Pd; 3]; N],
    u: &W::Sites<&[f64; 18]>,
) -> [[W::Pd; 3]; N] {
    // The imaginary part of U'_ij meets swap(b_j) with the sign of its
    // lane: U gives [−im, +re], U† (conjugated entries) [+im, −re].
    let ui_sign = W::Pd::signs(!adjoint, adjoint);
    let mut bs = *b;
    for n in 0..N {
        for j in 0..3 {
            bs[n][j] = b[n][j].swap().xor(ui_sign);
        }
    }
    let mut r = [[W::Pd::zero(); 3]; N];
    for i in 0..3 {
        for j in 0..3 {
            let e = W::load_pd(u, 2 * if adjoint { 3 * j + i } else { 3 * i + j });
            let (er, ei) = (e.unpacklo(e), e.unpackhi(e));
            for n in 0..N {
                r[n][i] = r[n][i].add(er.mul(b[n][j]));
                r[n][i] = r[n][i].add(ei.mul(bs[n][j]));
            }
        }
    }
    r
}

/// # Safety
/// As for [`load_pairs`].
#[inline(always)]
unsafe fn load_complexes<W: LaneWidth>(p: &W::Sites<&[f64; 24]>) -> Complexes<W::Pd> {
    let mut out = [[W::Pd::zero(); 3]; 4];
    for (s, spin) in out.iter_mut().enumerate() {
        for (c, z) in spin.iter_mut().enumerate() {
            *z = W::load_pd(p, 6 * s + 2 * c);
        }
    }
    Complexes(out)
}

/// # Safety
/// As for [`load_pairs`].
#[inline(always)]
unsafe fn store_complexes<W: LaneWidth>(
    spinor: &Complexes<W::Pd>,
    out: &mut W::Sites<&mut [f64; 24]>,
) {
    for (s, spin) in spinor.0.iter().enumerate() {
        for (c, &z) in spin.iter().enumerate() {
            W::store_pd(out, 6 * s + 2 * c, z);
        }
    }
}

/// One f64 hop in direction `MU`.
///
/// # Safety
/// As for [`load_pairs`].
#[inline(always)]
unsafe fn hop_mu_pd<W: LaneWidth, const MU: usize>(
    acc: &mut Complexes<W::Pd>,
    plus: bool,
    adjoint: bool,
    psi: &W::Sites<&[f64; 24]>,
    u: &W::Sites<&[f64; 18]>,
) {
    let p = load_complexes::<W>(psi).0;
    // Project: h_k = ψ_k ± γ-row(k) ψ_lo for the upper spins k = 0, 1.
    let proj = row_pair(MU, 0, !plus);
    let mut h = [[W::Pd::zero(); 3]; 2];
    for (k, h) in h.iter_mut().enumerate() {
        let lo = &p[2 + (proj.cross as usize ^ k)];
        for c in 0..3 {
            h[c] = p[k][c].add(apply_row_pd(proj, k, lo[c]));
        }
    }
    let r = color_rotate::<W, 2>(adjoint, &h, u);
    // Accumulate: upper spins take r, lower spins ±γ-rows(2, 3) r.
    let recon = row_pair(MU, 2, !plus);
    let acc = &mut acc.0;
    for k in 0..2 {
        let from = &r[recon.cross as usize ^ k];
        for c in 0..3 {
            acc[k][c] = acc[k][c].add(r[k][c]);
            acc[2 + k][c] = acc[2 + k][c].add(apply_row_pd(recon, k, from[c]));
        }
    }
}

/// One off-diagonal term of an f64 clover row: `acc + er·v + (ei·vs ^ sign)`
/// with `[er, ei]` the packed entry `t` of block `B`.
///
/// # Safety
/// As for [`load_pairs`].
#[inline(always)]
unsafe fn clover_mac_pd<W: LaneWidth, const B: usize>(
    acc: W::Pd,
    a: &W::Sites<&[f64; 72]>,
    t: usize,
    v: W::Pd,
    vs: W::Pd,
    sign: W::Pd,
) -> W::Pd {
    let e = W::load_pd(a, 36 * B + 6 + 2 * t);
    let acc = acc.add(e.unpacklo(e).mul(v));
    acc.add(e.unpackhi(e).mul(vs).xor(sign))
}

/// Row `I` of chiral block `B` of a packed f64 clover site applied to
/// that block's 6-vector `v` (`vs[j] = swap(v[j])`). The scalar order: the
/// diagonal term, then every `j ≠ I` ascending.
///
/// # Safety
/// As for [`load_pairs`].
#[inline(always)]
unsafe fn clover_row_pd<W: LaneWidth, const B: usize, const I: usize>(
    a: &W::Sites<&[f64; 72]>,
    v: &[W::Pd; 6],
    vs: &[W::Pd; 6],
) -> W::Pd {
    // As in `clover_row`: lower-triangle entries negate the real lane of
    // the im·swap(v) product, upper (conjugated) ones the imaginary lane.
    let (lower, upper) = (W::Pd::signs(true, false), W::Pd::signs(false, true));
    // Block B's diagonal sits at reals 36B.., its off-diagonals at 36B + 6...
    let d = W::load_pd(a, 36 * B + I);
    let mut acc = v[I].mul(d.unpacklo(d));
    for j in 0..I {
        acc = clover_mac_pd::<W, B>(acc, a, tri(I, j), v[j], vs[j], lower);
    }
    for j in I + 1..6 {
        acc = clover_mac_pd::<W, B>(acc, a, tri(j, I), v[j], vs[j], upper);
    }
    acc
}

/// Chiral block `B` (spins 2B, 2B + 1: element `j` at reals 12B + 2j) of
/// a packed f64 clover site applied to a flat spinor, plus `shift·ψ` when
/// `shift` is given.
///
/// # Safety
/// As for [`load_pairs`].
#[inline(always)]
unsafe fn clover_block_pd<W: LaneWidth, const B: usize>(
    a: &W::Sites<&[f64; 72]>,
    psi: &W::Sites<&[f64; 24]>,
    shift: Option<f64>,
    out: &mut W::Sites<&mut [f64; 24]>,
) {
    let mut v = [W::Pd::zero(); 6];
    for (j, v) in v.iter_mut().enumerate() {
        *v = W::load_pd(psi, 12 * B + 2 * j);
    }
    let mut vs = v;
    for j in 0..6 {
        vs[j] = v[j].swap();
    }
    let mut w = [
        clover_row_pd::<W, B, 0>(a, &v, &vs),
        clover_row_pd::<W, B, 1>(a, &v, &vs),
        clover_row_pd::<W, B, 2>(a, &v, &vs),
        clover_row_pd::<W, B, 3>(a, &v, &vs),
        clover_row_pd::<W, B, 4>(a, &v, &vs),
        clover_row_pd::<W, B, 5>(a, &v, &vs),
    ];
    if let Some(shift) = shift {
        let s = W::Pd::splat(shift);
        for j in 0..6 {
            w[j] = w[j].add(v[j].mul(s));
        }
    }
    for (i, &w) in w.iter().enumerate() {
        W::store_pd(out, 12 * B + 2 * i, w);
    }
}

/// A precision with SIMD Wilson-clover kernels: `f32` (two complex
/// numbers per 128-bit group) and `f64` (one per group). The trait is
/// sealed; its items are the per-precision bodies behind [`SpinorAcc`],
/// [`clover_apply`] and [`clover_apply_shifted`], each generic over the
/// [`LaneWidth`] and unsafe with the contract of
/// [`LaneWidth::load_ps`].
pub trait WilsonLanes: Copy + regs::Sealed {
    #[doc(hidden)]
    type Spinor<W: LaneWidth>: Copy;
    #[doc(hidden)]
    unsafe fn zero<W: LaneWidth>() -> Self::Spinor<W>;
    #[doc(hidden)]
    unsafe fn load<W: LaneWidth>(s: &W::Sites<&[Self; 24]>) -> Self::Spinor<W>;
    #[doc(hidden)]
    unsafe fn store<W: LaneWidth>(s: &Self::Spinor<W>, out: &mut W::Sites<&mut [Self; 24]>);
    #[doc(hidden)]
    unsafe fn hop<W: LaneWidth>(
        acc: &mut Self::Spinor<W>,
        proj: Projector,
        adjoint: bool,
        psi: &W::Sites<&[Self; 24]>,
        u: &W::Sites<&[Self; 18]>,
    );
    #[doc(hidden)]
    unsafe fn clover<W: LaneWidth>(
        a: &W::Sites<&[Self; 72]>,
        psi: &W::Sites<&[Self; 24]>,
        shift: Option<Self>,
        out: &mut W::Sites<&mut [Self; 24]>,
    );
}

/// Run `$hop::<W, µ>` with the direction as a constant.
macro_rules! by_direction {
    ($hop:ident::<$w:ty>, $proj:expr, $($arg:expr),*) => {
        match $proj.mu {
            0 => $hop::<$w, 0>($($arg),*),
            1 => $hop::<$w, 1>($($arg),*),
            2 => $hop::<$w, 2>($($arg),*),
            3 => $hop::<$w, 3>($($arg),*),
            mu => panic!("direction {mu} out of range"),
        }
    };
}

impl WilsonLanes for f32 {
    type Spinor<W: LaneWidth> = Pairs<W::Ps>;

    #[inline(always)]
    unsafe fn zero<W: LaneWidth>() -> Pairs<W::Ps> {
        let z = W::Ps::zero();
        Pairs { up: [z; 3], lo: [z; 3] }
    }

    #[inline(always)]
    unsafe fn load<W: LaneWidth>(s: &W::Sites<&[f32; 24]>) -> Pairs<W::Ps> {
        load_pairs::<W>(s)
    }

    #[inline(always)]
    unsafe fn store<W: LaneWidth>(s: &Pairs<W::Ps>, out: &mut W::Sites<&mut [f32; 24]>) {
        store_pairs::<W>(s, out)
    }

    #[inline(always)]
    unsafe fn hop<W: LaneWidth>(
        acc: &mut Pairs<W::Ps>,
        proj: Projector,
        adjoint: bool,
        psi: &W::Sites<&[f32; 24]>,
        u: &W::Sites<&[f32; 18]>,
    ) {
        by_direction!(hop_mu::<W>, proj, acc, proj.plus, adjoint, psi, u)
    }

    #[inline(always)]
    unsafe fn clover<W: LaneWidth>(
        a: &W::Sites<&[f32; 72]>,
        psi: &W::Sites<&[f32; 24]>,
        shift: Option<f32>,
        out: &mut W::Sites<&mut [f32; 24]>,
    ) {
        clover::<W>(a, psi, shift, out)
    }
}

impl WilsonLanes for f64 {
    type Spinor<W: LaneWidth> = Complexes<W::Pd>;

    #[inline(always)]
    unsafe fn zero<W: LaneWidth>() -> Complexes<W::Pd> {
        Complexes([[W::Pd::zero(); 3]; 4])
    }

    #[inline(always)]
    unsafe fn load<W: LaneWidth>(s: &W::Sites<&[f64; 24]>) -> Complexes<W::Pd> {
        load_complexes::<W>(s)
    }

    #[inline(always)]
    unsafe fn store<W: LaneWidth>(s: &Complexes<W::Pd>, out: &mut W::Sites<&mut [f64; 24]>) {
        store_complexes::<W>(s, out)
    }

    #[inline(always)]
    unsafe fn hop<W: LaneWidth>(
        acc: &mut Complexes<W::Pd>,
        proj: Projector,
        adjoint: bool,
        psi: &W::Sites<&[f64; 24]>,
        u: &W::Sites<&[f64; 18]>,
    ) {
        by_direction!(hop_mu_pd::<W>, proj, acc, proj.plus, adjoint, psi, u)
    }

    #[inline(always)]
    unsafe fn clover<W: LaneWidth>(
        a: &W::Sites<&[f64; 72]>,
        psi: &W::Sites<&[f64; 24]>,
        shift: Option<f64>,
        out: &mut W::Sites<&mut [f64; 24]>,
    ) {
        clover_block_pd::<W, 0>(a, psi, shift, out);
        clover_block_pd::<W, 1>(a, psi, shift, out);
    }
}

/// The output spinors of `W::SITES` sites while their hops are summed,
/// held in SIMD registers. Flat spinors are the 24 reals of
/// [`WilsonSpinor`](crate::WilsonSpinor), spin-major, `[re, im]` per
/// colour; site `k` of every argument goes to 128-bit group `k`.
#[derive(Clone, Copy)]
pub struct SpinorAcc<R: WilsonLanes, W: LaneWidth>(R::Spinor<W>);

impl<R: WilsonLanes, W: LaneWidth> SpinorAcc<R, W> {
    /// The zero spinors.
    #[inline(always)]
    pub fn zero(_: W) -> Self {
        // SAFETY: a `W` value exists only where the CPU runs W's
        // instructions.
        SpinorAcc(unsafe { R::zero::<W>() })
    }

    /// Start from existing spinors.
    #[inline(always)]
    pub fn load(_: W, s: W::Sites<&[R; 24]>) -> Self {
        // SAFETY: as for `zero`; loads are bounds-checked against the
        // fixed-size arrays.
        SpinorAcc(unsafe { R::load::<W>(&s) })
    }

    /// Write the sums out.
    #[inline(always)]
    pub fn store(&self, mut out: W::Sites<&mut [R; 24]>) {
        // SAFETY: `self` was built from a `W` value (see `zero`); stores
        // are bounds-checked against the fixed-size arrays.
        unsafe { R::store::<W>(&self.0, &mut out) }
    }

    /// Add one hop per site, `(1 ± γµ) ⊗ U'` applied to `psi` with
    /// `U' = U†` when `adjoint` (the backward hop) and `U` otherwise; `u`
    /// holds the 18 reals of [`Su3::to_reals`](crate::Su3::to_reals).
    /// Bit-identical, site by site, to
    /// `proj.accumulate(acc, &proj.project(ψ).color_mul(U))` (or
    /// `color_adj_mul`).
    #[inline(always)]
    pub fn hop(
        &mut self,
        proj: Projector,
        adjoint: bool,
        psi: W::Sites<&[R; 24]>,
        u: W::Sites<&[R; 18]>,
    ) {
        // SAFETY: as for `store`.
        unsafe { R::hop::<W>(&mut self.0, proj, adjoint, &psi, &u) }
    }
}

/// `out = A ψ` per site for packed clover sites `a` (the 72 reals of
/// [`CloverSite::to_reals`](crate::CloverSite::to_reals)); bit-identical
/// to [`CloverSite::apply`](crate::CloverSite::apply).
#[inline(always)]
pub fn clover_apply<R: WilsonLanes, W: LaneWidth>(
    _: W,
    a: W::Sites<&[R; 72]>,
    psi: W::Sites<&[R; 24]>,
    mut out: W::Sites<&mut [R; 24]>,
) {
    // SAFETY: a `W` value exists only where the CPU runs W's
    // instructions; loads and stores are bounds-checked against the
    // fixed-size arrays.
    unsafe { R::clover::<W>(&a, &psi, None, &mut out) }
}

/// `out = A ψ + shift·ψ` per site; bit-identical to
/// `a.apply(ψ).add(&ψ.scale(shift))`.
#[inline(always)]
pub fn clover_apply_shifted<R: WilsonLanes, W: LaneWidth>(
    _: W,
    a: W::Sites<&[R; 72]>,
    psi: W::Sites<&[R; 24]>,
    shift: R,
    mut out: W::Sites<&mut [R; 24]>,
) {
    // SAFETY: as for `clover_apply`.
    unsafe { R::clover::<W>(&a, &psi, Some(shift), &mut out) }
}

/// Sites per lane-major group, at every width.
pub const LANES: usize = 4;

/// Where the four lanes of a lane-major operand come from. A lane-major
/// group of four sites of `M / 4` reals each holds real `r` of lane `k`
/// at `4r + k`: 24 reals for colour vectors, 72 for links
/// ([`Su3::to_reals`](crate::Su3::to_reals) order per lane).
#[derive(Clone, Copy, Debug)]
pub enum Lanes<'a, const M: usize> {
    /// One group with its lanes rotated: lane `k` reads lane
    /// `(k + rot) % 4`.
    Rotated(&'a [f64; M], usize),
    /// Lane `k` reads lane `at[k].1` of group `at[k].0`.
    PerLane([(&'a [f64; M], usize); LANES]),
    /// Lane `k` reads the `M / 4` site-major reals at the head of
    /// `sites[k]`.
    Sites([&'a [f64]; LANES]),
}

/// Sign-bit masks: lane `k` of entry `n` is `−0.0` where bit `k` of `n`
/// is set, else `+0.0`.
const LANE_SIGNS: [[f64; LANES]; 16] = lane_table(-0.0, 0.0);

/// Lane masks: lane `k` of entry `n` is all ones where bit `k` of `n`
/// is set, else all zeros.
const LANE_MASKS: [[f64; LANES]; 16] = lane_table(f64::from_bits(u64::MAX), 0.0);

const fn lane_table(set: f64, clear: f64) -> [[f64; LANES]; 16] {
    let mut t = [[clear; LANES]; 16];
    let mut n = 0;
    while n < 16 {
        let mut k = 0;
        while k < LANES {
            if n >> k & 1 == 1 {
                t[n][k] = set;
            }
            k += 1;
        }
        n += 1;
    }
    t
}

/// The `N` lane-major reals of a rotated group, lane `k` from lane
/// `(k + R) % 4`.
///
/// # Safety
/// As for [`load_pairs`].
#[inline(always)]
unsafe fn rotated<Q: Qd, const M: usize, const N: usize, const R: i32>(g: &[f64; M]) -> [Q; N] {
    let mut out = [Q::zero(); N];
    for (q, o) in out.iter_mut().enumerate() {
        *o = Q::load(g, LANES * q).rotate::<R>();
    }
    out
}

/// The `N` lane-major reals of an operand (`M = 4N`).
///
/// # Safety
/// As for [`load_pairs`].
#[inline(always)]
unsafe fn lanes<Q: Qd, const M: usize, const N: usize>(x: &Lanes<'_, M>) -> [Q; N] {
    const { assert!(M == LANES * N) };
    match *x {
        Lanes::Rotated(g, rot) => match rot % LANES {
            0 => rotated::<Q, M, N, 0>(g),
            1 => rotated::<Q, M, N, 1>(g),
            2 => rotated::<Q, M, N, 2>(g),
            _ => rotated::<Q, M, N, 3>(g),
        },
        Lanes::PerLane(at) => {
            let mut out = [Q::zero(); N];
            for (q, o) in out.iter_mut().enumerate() {
                let lane = |k: usize| at[k].0[LANES * q + at[k].1];
                *o = Q::set([lane(0), lane(1), lane(2), lane(3)]);
            }
            out
        }
        Lanes::Sites(sites) => {
            let sites = sites.map(|s| s.first_chunk::<N>().expect("a whole site"));
            let mut out = [Q::zero(); N];
            for (q, o) in out.iter_mut().enumerate() {
                *o = Q::set([sites[0][q], sites[1][q], sites[2][q], sites[3][q]]);
            }
            out
        }
    }
}

/// `acc + (U'·v)·s` per live lane (see [`LaneAcc::hop`]).
///
/// # Safety
/// As for [`load_pairs`].
#[inline(always)]
unsafe fn lane_hop<Q: Qd>(
    acc: &mut [Q; 6],
    adjoint: bool,
    neg: u8,
    live: u8,
    v: &Lanes<'_, 24>,
    u: &Lanes<'_, 72>,
) {
    let b: [Q; 6] = lanes(v);
    let e: [Q; 18] = lanes(u);
    let sign = Q::load(&LANE_SIGNS[usize::from(neg & 15)], 0);
    for i in 0..3 {
        // `mul_vec` (`adj_mul_vec`) order: from `+0.0`, `j` ascending,
        // `re + ur·br − ui·bi` and `im + ur·bi + ui·br`; the conjugated
        // entries of U† trade the signs of the `ui` terms.
        let (mut re, mut im) = (Q::zero(), Q::zero());
        for j in 0..3 {
            let k = 2 * if adjoint { 3 * j + i } else { 3 * i + j };
            let (ur, ui, br, bi) = (e[k], e[k + 1], b[2 * j], b[2 * j + 1]);
            re = re.add(ur.mul(br));
            im = im.add(ur.mul(bi));
            if adjoint {
                re = re.add(ui.mul(bi));
                im = im.sub(ui.mul(br));
            } else {
                re = re.sub(ui.mul(bi));
                im = im.add(ui.mul(br));
            }
        }
        let sum_re = acc[2 * i].add(re.xor(sign));
        let sum_im = acc[2 * i + 1].add(im.xor(sign));
        if live & 15 == 15 {
            acc[2 * i] = sum_re;
            acc[2 * i + 1] = sum_im;
        } else {
            let mask = Q::load(&LANE_MASKS[usize::from(live & 15)], 0);
            acc[2 * i] = acc[2 * i].select(sum_re, mask);
            acc[2 * i + 1] = acc[2 * i + 1].select(sum_im, mask);
        }
    }
}

/// The colour vectors of the four sites of one lane-major group while
/// their hops are summed, one SIMD register (or two halves) per real: a
/// group is four lanes at every width, [`Sse2`] running it as two
/// 2-lane halves and [`Avx2`] in one `__m256d`.
#[derive(Clone, Copy)]
pub struct LaneAcc<W: LaneWidth>([W::Qd; 6]);

impl<W: LaneWidth> LaneAcc<W> {
    /// The zero vectors.
    #[inline(always)]
    pub fn zero(_: W) -> Self {
        // SAFETY: a `W` value exists only where the CPU runs W's
        // instructions.
        LaneAcc([unsafe { W::Qd::zero() }; 6])
    }

    /// Add `(U'·v)·s` to every lane `k` whose bit is set in `live`, with
    /// `U' = U†` when `adjoint` and `U` otherwise, and `s = −1` where bit
    /// `k` of `neg` is set and `s = 1` elsewhere. A lane outside `live`
    /// keeps its sum bit for bit (it is not added `±0`). Bit-identical,
    /// lane by lane, to `acc.add(&U.mul_vec(v).scale(s))` (or
    /// `adj_mul_vec`).
    #[inline(always)]
    pub fn hop(&mut self, adjoint: bool, neg: u8, live: u8, v: Lanes<'_, 24>, u: Lanes<'_, 72>) {
        // SAFETY: as for `zero`; loads are bounds-checked against the
        // fixed-size arrays.
        unsafe { lane_hop::<W::Qd>(&mut self.0, adjoint, neg, live, &v, &u) }
    }

    /// Write the sums out site-major: site `k`'s 6 reals at `6k`.
    #[inline(always)]
    pub fn store(&self, out: &mut [f64; 24]) {
        // SAFETY: as for `hop`.
        unsafe {
            for c in 0..3 {
                W::Qd::store_sites(self.0[2 * c], self.0[2 * c + 1], out, c);
            }
        }
    }

    /// Write the sums out lane-major: lane `k`'s real `r` at `4r + k`.
    #[inline(always)]
    pub fn store_lanes(&self, out: &mut [f64; 24]) {
        // SAFETY: as for `hop`.
        unsafe {
            for (r, x) in self.0.iter().enumerate() {
                x.store(out, LANES * r);
            }
        }
    }

    /// Start from the site-major sums `sites`, as [`LaneAcc::store`]
    /// writes them.
    #[inline(always)]
    pub fn load(_: W, sites: &[f64; 24]) -> Self {
        // SAFETY: as for `hop`.
        unsafe {
            let mut acc = [W::Qd::zero(); 6];
            for c in 0..3 {
                (acc[2 * c], acc[2 * c + 1]) = W::Qd::load_sites(sites, c);
            }
            LaneAcc(acc)
        }
    }
}

/// A precision the Krylov reductions read: f32 bodies widen to f64 as
/// they load (`cvtps2pd`), f64 bodies load as they are. Sealed; the
/// item is the per-precision load behind [`norm2`] and [`cdot`].
pub trait ReduceLanes: Copy + Into<f64> + regs::Sealed {
    /// The lanes of `V` from `x[at..]`, as f64.
    ///
    /// # Safety
    /// The CPU runs `V`'s instructions.
    #[doc(hidden)]
    unsafe fn lanes<V: Pd>(x: &[Self; 8], at: usize) -> V;
}

impl ReduceLanes for f32 {
    #[inline(always)]
    unsafe fn lanes<V: Pd>(x: &[f32; 8], at: usize) -> V {
        V::widen_at(x, at)
    }
}

impl ReduceLanes for f64 {
    #[inline(always)]
    unsafe fn lanes<V: Pd>(x: &[f64; 8], at: usize) -> V {
        V::load_at(x, at)
    }
}

/// The eight f64 partials of a reduction, `p0..p7` in order: four
/// `__m128d` at [`Sse2`], two `__m256d` at [`Avx2`] (registers past
/// `4 / W::SITES` stay unused).
type Partials<W> = [<W as LaneWidth>::Pd; 4];

/// `p[k] += a_k · b_k` for the eight lanes of one chunk; `swap` pairs
/// `a_k` with `b_{k^1}` instead.
///
/// # Safety
/// As for [`load_pairs`].
#[inline(always)]
unsafe fn partials_mac<R: ReduceLanes, W: LaneWidth>(
    p: &mut Partials<W>,
    a: &[R; 8],
    b: &[R; 8],
    swap: bool,
) {
    for (r, p) in p.iter_mut().enumerate().take(4 / W::SITES) {
        let at = 2 * W::SITES * r;
        let (a, b): (W::Pd, W::Pd) = (R::lanes(a, at), R::lanes(b, at));
        *p = p.add(a.mul(if swap { b.swap() } else { b }));
    }
}

/// The partials in order.
///
/// # Safety
/// As for [`load_pairs`].
#[inline(always)]
unsafe fn partials_out<W: LaneWidth>(p: &Partials<W>) -> [f64; 8] {
    let mut out = [0.0; 8];
    for (r, p) in p.iter().enumerate().take(4 / W::SITES) {
        p.store_at(&mut out, 2 * W::SITES * r);
    }
    out
}

/// `((p0 + p1) + (p2 + p3)) + ((p4 + p5) + (p6 + p7))`.
fn fold(p: [f64; 8]) -> f64 {
    ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]))
}

/// `((q0 − q1) + (q2 − q3)) + ((q4 − q5) + (q6 − q7))`.
fn fold_alternating(q: [f64; 8]) -> f64 {
    ((q[0] - q[1]) + (q[2] - q[3])) + ((q[4] - q[5]) + (q[6] - q[7]))
}

/// # Safety
/// As for [`load_pairs`].
#[inline(always)]
unsafe fn norm2_at<R: ReduceLanes, W: LaneWidth>(x: &[R]) -> f64 {
    let (body, tail) = x.as_chunks::<8>();
    let mut p: Partials<W> = [W::Pd::zero(); 4];
    for c in body {
        partials_mac::<R, W>(&mut p, c, c, false);
    }
    let mut sum = fold(partials_out::<W>(&p));
    for &t in tail {
        sum += t.into() * t.into();
    }
    sum
}

/// # Safety
/// As for [`load_pairs`].
#[inline(always)]
unsafe fn cdot_at<R: ReduceLanes, W: LaneWidth>(x: &[R], y: &[R]) -> (f64, f64) {
    let ((xb, xt), (yb, yt)) = (x.as_chunks::<8>(), y.as_chunks::<8>());
    let (mut p, mut q): (Partials<W>, Partials<W>) = ([W::Pd::zero(); 4], [W::Pd::zero(); 4]);
    for (a, b) in xb.iter().zip(yb) {
        partials_mac::<R, W>(&mut p, a, b, false);
        partials_mac::<R, W>(&mut q, a, b, true);
    }
    let (mut re, mut im) = (fold(partials_out::<W>(&p)), fold_alternating(partials_out::<W>(&q)));
    for (a, b) in xt.chunks_exact(2).zip(yt.chunks_exact(2)) {
        let (ar, ai, br, bi) = (a[0].into(), a[1].into(), b[0].into(), b[1].into());
        re += ar * br;
        re += ai * bi;
        im += ar * bi;
        im -= ai * br;
    }
    (re, im)
}

struct Norm2<'a, R>(&'a [R]);

impl<R: ReduceLanes> WidthLoop for Norm2<'_, R> {
    type Output = f64;

    #[inline(always)]
    fn run<W: LaneWidth>(self, _: W) -> f64 {
        // SAFETY: a `W` value exists only where the CPU runs W's
        // instructions; loads and stores are bounds-checked against the
        // fixed-size chunks.
        unsafe { norm2_at::<R, W>(self.0) }
    }
}

struct Cdot<'a, R>(&'a [R], &'a [R]);

impl<R: ReduceLanes> WidthLoop for Cdot<'_, R> {
    type Output = (f64, f64);

    #[inline(always)]
    fn run<W: LaneWidth>(self, _: W) -> (f64, f64) {
        // SAFETY: as for `Norm2`.
        unsafe { cdot_at::<R, W>(self.0, self.1) }
    }
}

/// `‖x‖² = Σ x_k²` of a flat body, in f64, in the fixed order of the
/// module docs at every width.
pub fn norm2<R: ReduceLanes>(width: Width, x: &[R]) -> f64 {
    width.run(Norm2(x))
}

/// `⟨x, y⟩ = Σ conj(x)·y` of two flat bodies of interleaved
/// `[re, im]` pairs, as `(re, im)` in f64, in the fixed order of the
/// module docs at every width.
pub fn cdot<R: ReduceLanes>(width: Width, x: &[R], y: &[R]) -> (f64, f64) {
    assert_eq!(x.len(), y.len(), "cdot: bodies of different lengths");
    assert!(x.len().is_multiple_of(2), "cdot: a body of complex pairs");
    width.run(Cdot(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::HalfSpinor;
    use crate::{CloverSite, ColorVector, Su3, WilsonSpinor};
    use lqcd_util::rng::SeedTree;
    use lqcd_util::{Complex, Real};
    use rand::Rng;
    use std::marker::PhantomData;

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
    fn bits<R: Real>(a: &[R]) -> Vec<u64> {
        a.iter().map(|x| x.to_f64().to_bits()).collect()
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

    /// Site `k` of a flat multi-site output.
    fn at<R>(reals: &[R], k: usize) -> &[R] {
        &reals[24 * k..24 * (k + 1)]
    }

    /// The width's name, for failure messages.
    fn name<W>() -> &'static str {
        std::any::type_name::<W>().rsplit("::").next().unwrap_or("?")
    }

    /// One kernel check in precision `R`, run at every width the CPU
    /// supports through [`Width::run`] — the same `#[target_feature]`
    /// entry the operators use. The colour-hop checks are f64 only.
    #[derive(Clone, Copy)]
    enum Check {
        Hop,
        ChainedHops,
        Clover,
        RoundTrip,
        LaneHop,
        ChainedLaneHops,
        LaneRoundTrip,
    }

    #[derive(Clone, Copy)]
    struct AtWidth<R>(Check, u64, PhantomData<R>);

    impl<R: Lane> WidthLoop for AtWidth<R> {
        type Output = ();

        fn run<W: LaneWidth>(self, w: W) {
            let AtWidth(check, seed, _) = self;
            match check {
                Check::Hop => hop_matches_scalar::<R, W>(w, seed),
                Check::ChainedHops => chained_hops_match_scalar::<R, W>(w, seed),
                Check::Clover => clover_matches_scalar::<R, W>(w, seed),
                Check::RoundTrip => zero_load_store_roundtrip::<R, W>(w, seed),
                Check::LaneHop => lane_hop_matches_scalar::<W>(w, seed),
                Check::ChainedLaneHops => chained_lane_hops_match_scalar::<W>(w, seed),
                Check::LaneRoundTrip => lane_acc_roundtrip::<W>(w, seed),
            }
        }
    }

    fn at_every_width(check: Check, seed32: u64, seed64: u64) {
        for width in Width::supported() {
            width.run(AtWidth::<f32>(check, seed32, PhantomData));
            width.run(AtWidth::<f64>(check, seed64, PhantomData));
        }
    }

    #[test]
    fn detect_picks_the_widest_supported_width() {
        let avx2 = is_x86_feature_detected!("avx2");
        assert_eq!(Avx2::detect().is_some(), avx2);
        assert!(matches!(Width::supported()[..], [Width::Sse2, ..]));
        assert_eq!(Width::supported().len(), 1 + avx2 as usize);
        assert_eq!(matches!(Width::detect(), Width::Avx2(_)), avx2);
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
    /// random accumulator. Every site of a call draws its own spinor,
    /// link and accumulator, so a kernel that swaps or mixes lanes fails.
    fn hop_matches_scalar<R: Lane, W: LaneWidth>(w: W, seed: u64) {
        let tree = SeedTree::new(seed);
        let mut rng = tree.rng();
        for trial in 0..400 {
            let special = trial % 2 == 1;
            let mut psi = Vec::new();
            let mut u = Vec::new();
            let mut acc0 = Vec::new();
            for _ in 0..W::SITES {
                psi.push(spinor::<R, _>(&mut rng, special));
                u.push(matrix::<R, _>(&mut rng, special));
                acc0.push(if trial % 4 == 0 {
                    WilsonSpinor::zero()
                } else {
                    spinor(&mut rng, special)
                });
            }
            let psi_flat: Vec<_> = psi.iter().map(flat).collect();
            let u_flat: Vec<_> = u.iter().map(Su3::to_reals).collect();
            let acc0_flat: Vec<_> = acc0.iter().map(flat).collect();
            for mu in 0..4 {
                for plus in [false, true] {
                    for adjoint in [false, true] {
                        let proj = Projector { mu, plus };
                        let mut acc = SpinorAcc::load(w, W::sites(|k| &acc0_flat[k]));
                        acc.hop(
                            proj,
                            adjoint,
                            W::sites(|k| &psi_flat[k]),
                            W::sites(|k| &u_flat[k]),
                        );
                        let mut got = vec![R::ZERO; 24 * W::SITES];
                        acc.store(W::split_mut(&mut got));
                        for k in 0..W::SITES {
                            let want = scalar_hop(&acc0[k], proj, adjoint, &psi[k], &u[k]);
                            assert_eq!(
                                bits(at(&got, k)),
                                bits(&flat(&want)),
                                "{} {}: trial {trial}, site {k}, µ={mu}, plus={plus}, \
                                 adjoint={adjoint}",
                                R::NAME,
                                name::<W>()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hop_matches_scalar_bitwise() {
        at_every_width(Check::Hop, 41, 48);
    }

    /// The interior-kernel pattern: eight hops summed into a zero
    /// accumulator, forward with U and backward with U†, each site with
    /// its own data.
    fn chained_hops_match_scalar<R: Lane, W: LaneWidth>(w: W, seed: u64) {
        let tree = SeedTree::new(seed);
        let mut rng = tree.rng();
        for trial in 0..50 {
            let special = trial % 2 == 0;
            let mut want = vec![WilsonSpinor::zero(); W::SITES];
            let mut acc = SpinorAcc::zero(w);
            for mu in 0..4 {
                for (plus, adjoint) in [(false, false), (true, true)] {
                    let proj = Projector { mu, plus };
                    let mut psi = Vec::new();
                    let mut u = Vec::new();
                    for want in want.iter_mut() {
                        let s = spinor::<R, _>(&mut rng, special);
                        let m = matrix::<R, _>(&mut rng, special);
                        *want = scalar_hop(want, proj, adjoint, &s, &m);
                        psi.push(flat(&s));
                        u.push(m.to_reals());
                    }
                    acc.hop(proj, adjoint, W::sites(|k| &psi[k]), W::sites(|k| &u[k]));
                }
            }
            let mut got = vec![R::ZERO; 24 * W::SITES];
            acc.store(W::split_mut(&mut got));
            for (k, want) in want.iter().enumerate() {
                assert_eq!(
                    bits(at(&got, k)),
                    bits(&flat(want)),
                    "{} {}: trial {trial}, site {k}",
                    R::NAME,
                    name::<W>()
                );
            }
        }
    }

    #[test]
    fn chained_hops_from_zero_match_scalar_bitwise() {
        at_every_width(Check::ChainedHops, 42, 49);
    }

    fn zero_load_store_roundtrip<R: Lane, W: LaneWidth>(w: W, seed: u64) {
        let mut got = vec![R::ONE; 24 * W::SITES];
        SpinorAcc::<R, W>::zero(w).store(W::split_mut(&mut got));
        assert!(got.iter().all(|x| x.to_f64().to_bits() == 0), "{} {}", R::NAME, name::<W>());
        let mut rng = SeedTree::new(seed).rng();
        let s: Vec<_> = (0..W::SITES).map(|_| flat(&spinor::<R, _>(&mut rng, true))).collect();
        SpinorAcc::load(w, W::sites(|k| &s[k])).store(W::split_mut(&mut got));
        assert_eq!(bits(&got), bits(&s.concat()), "{} {}", R::NAME, name::<W>());
    }

    #[test]
    fn zero_load_store_roundtrip_is_exact() {
        at_every_width(Check::RoundTrip, 43, 50);
    }

    /// The plain and the shifted block, on positive-definite sites and on
    /// general packed reals (special values included), each site of a
    /// call with its own clover site and spinor.
    fn clover_matches_scalar<R: Lane, W: LaneWidth>(w: W, seed: u64) {
        let tree = SeedTree::new(seed);
        let mut rng = tree.rng();
        for trial in 0..400 {
            let special = trial % 2 == 1;
            let mut a = Vec::new();
            let mut psi = Vec::new();
            for k in 0..W::SITES {
                a.push(if (trial + k) % 3 == 0 {
                    CloverSite::<f64>::random_spd(&mut rng).cast::<R>()
                } else {
                    CloverSite::from_reals(&std::array::from_fn(|_| value(&mut rng, special)))
                });
                psi.push(spinor::<R, _>(&mut rng, special));
            }
            let a_flat: Vec<_> = a.iter().map(CloverSite::to_reals).collect();
            let psi_flat: Vec<_> = psi.iter().map(flat).collect();
            let mut got = vec![R::ZERO; 24 * W::SITES];
            clover_apply(
                w,
                W::sites(|k| &a_flat[k]),
                W::sites(|k| &psi_flat[k]),
                W::split_mut(&mut got),
            );
            for k in 0..W::SITES {
                let want = a[k].apply(&psi[k]);
                assert_eq!(
                    bits(at(&got, k)),
                    bits(&flat(&want)),
                    "{} {}: trial {trial}, site {k}",
                    R::NAME,
                    name::<W>()
                );
            }
            let shift = value(&mut rng, special);
            clover_apply_shifted(
                w,
                W::sites(|k| &a_flat[k]),
                W::sites(|k| &psi_flat[k]),
                shift,
                W::split_mut(&mut got),
            );
            for k in 0..W::SITES {
                let want = a[k].apply(&psi[k]).add(&psi[k].scale(shift));
                assert_eq!(
                    bits(at(&got, k)),
                    bits(&flat(&want)),
                    "{} {}: trial {trial}, site {k} (shifted)",
                    R::NAME,
                    name::<W>()
                );
            }
        }
    }

    #[test]
    fn clover_matches_scalar_bitwise() {
        at_every_width(Check::Clover, 44, 51);
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

    fn f64_at_every_width(check: Check, seed: u64) {
        for width in Width::supported() {
            width.run(AtWidth::<f64>(check, seed, PhantomData));
        }
    }

    /// Site `k` of a flat multi-site colour output.
    fn at6(reals: &[f64], k: usize) -> [u64; 6] {
        std::array::from_fn(|i| reals[6 * k + i].to_bits())
    }

    /// Four lane-major groups of colour vectors and of links, every lane
    /// with its own data, and the same sites site-major.
    struct LaneData {
        v: Vec<ColorVector<f64>>,
        u: Vec<Su3<f64>>,
        v_sites: Vec<[f64; 6]>,
        u_sites: Vec<[f64; 18]>,
        v_groups: Vec<[f64; 24]>,
        u_groups: Vec<[f64; 72]>,
    }

    impl LaneData {
        fn draw<G: Rng>(rng: &mut G, special: bool) -> LaneData {
            let n = LANES * LANES;
            let v: Vec<_> = (0..n).map(|_| vector64(rng, special)).collect();
            let u: Vec<_> = (0..n).map(|_| matrix::<f64, _>(rng, special)).collect();
            let v_sites: Vec<_> = v.iter().map(flat64).collect();
            let u_sites: Vec<_> = u.iter().map(Su3::to_reals).collect();
            let v_groups = (0..LANES)
                .map(|g| std::array::from_fn(|i| v_sites[LANES * g + i % LANES][i / LANES]))
                .collect();
            let u_groups = (0..LANES)
                .map(|g| std::array::from_fn(|i| u_sites[LANES * g + i % LANES][i / LANES]))
                .collect();
            LaneData { v, u, v_sites, u_sites, v_groups, u_groups }
        }

        /// A source for the four lanes, drawn at random: one group with
        /// each rotation, every lane from its own group and lane, or every
        /// lane from its own site-major site. Returns the operands and the
        /// site each lane reads.
        fn pick<G: Rng>(&self, rng: &mut G) -> (Lanes<'_, 24>, Lanes<'_, 72>, [usize; LANES]) {
            let site: [usize; LANES] = std::array::from_fn(|_| below(rng, LANES * LANES));
            let at = |k: usize| (site[k] / LANES, site[k] % LANES);
            match below(rng, 3) {
                0 => {
                    let (g, rot) = (below(rng, LANES), below(rng, LANES));
                    let site = std::array::from_fn(|k| LANES * g + (k + rot) % LANES);
                    let (v, u) = (&self.v_groups[g], &self.u_groups[g]);
                    (Lanes::Rotated(v, rot), Lanes::Rotated(u, rot), site)
                }
                1 => (
                    Lanes::PerLane(std::array::from_fn(|k| (&self.v_groups[at(k).0], at(k).1))),
                    Lanes::PerLane(std::array::from_fn(|k| (&self.u_groups[at(k).0], at(k).1))),
                    site,
                ),
                _ => (
                    Lanes::Sites(std::array::from_fn(|k| &self.v_sites[site[k]][..])),
                    Lanes::Sites(std::array::from_fn(|k| &self.u_sites[site[k]][..])),
                    site,
                ),
            }
        }
    }

    /// A uniform draw from `0..n`.
    fn below<G: Rng>(rng: &mut G, n: usize) -> usize {
        rng.gen::<u32>() as usize % n
    }

    fn sites24(v: &[ColorVector<f64>]) -> [f64; 24] {
        std::array::from_fn(|i| flat64(&v[i / 6])[i % 6])
    }

    /// One lane-major hop, both forms, every sign and live mask, each
    /// operand rotated or gathered per lane, from random accumulators
    /// that include `−0.0`: every lane against the scalar hop on its own
    /// data, and a lane outside the live mask keeps its bits.
    fn lane_hop_matches_scalar<W: LaneWidth>(w: W, seed: u64) {
        let mut rng = SeedTree::new(seed).rng();
        for trial in 0..300 {
            let special = trial % 2 == 1;
            let data = LaneData::draw(&mut rng, special);
            let mut acc0: Vec<_> = (0..LANES).map(|_| vector64(&mut rng, special)).collect();
            // A masked lane holding −0.0 shows any add of ±0.
            acc0[trial % LANES] = ColorVector::from_fn(|_| Complex::new(-0.0, -0.0));
            for adjoint in [false, true] {
                let (v, u, site) = data.pick(&mut rng);
                let (neg, live) = (below(&mut rng, 16) as u8, below(&mut rng, 16) as u8);
                let mut acc = LaneAcc::load(w, &sites24(&acc0));
                acc.hop(adjoint, neg, live, v, u);
                let mut got = [0.0; 24];
                acc.store(&mut got);
                for k in 0..LANES {
                    let want = if live >> k & 1 == 1 {
                        let (v, u) = (&data.v[site[k]], &data.u[site[k]]);
                        scalar_color_hop(&acc0[k], adjoint, neg >> k & 1 == 1, v, u)
                    } else {
                        acc0[k]
                    };
                    assert_eq!(
                        at6(&got, k),
                        bits64(&want),
                        "{}: trial {trial}, lane {k}, adjoint={adjoint}, neg={neg:04b}, \
                         live={live:04b}",
                        name::<W>()
                    );
                }
            }
        }
    }

    #[test]
    fn lane_hop_matches_scalar_bitwise() {
        f64_at_every_width(Check::LaneHop, 48);
    }

    /// The asqtad interior pattern on a lane-major group: sixteen hops
    /// summed from zero, forward with U and backward with U†, each lane
    /// with its own sign, some hops taken by some lanes only.
    fn chained_lane_hops_match_scalar<W: LaneWidth>(w: W, seed: u64) {
        let mut rng = SeedTree::new(seed).rng();
        for trial in 0..50 {
            let special = trial % 2 == 0;
            let mut want = [ColorVector::zero(); LANES];
            let mut acc = LaneAcc::zero(w);
            for hop in 0..16 {
                let data = LaneData::draw(&mut rng, special);
                let (v, u, site) = data.pick(&mut rng);
                let adjoint = hop % 2 == 1;
                let neg = below(&mut rng, 16) as u8;
                let live = if below(&mut rng, 4) == 0 { below(&mut rng, 16) as u8 } else { 15 };
                for (k, want) in want.iter_mut().enumerate() {
                    if live >> k & 1 == 1 {
                        let (x, m) = (&data.v[site[k]], &data.u[site[k]]);
                        *want = scalar_color_hop(want, adjoint, neg >> k & 1 == 1, x, m);
                    }
                }
                acc.hop(adjoint, neg, live, v, u);
            }
            let mut got = [0.0; 24];
            acc.store(&mut got);
            for (k, want) in want.iter().enumerate() {
                assert_eq!(at6(&got, k), bits64(want), "{}: trial {trial}, lane {k}", name::<W>());
            }
        }
    }

    #[test]
    fn chained_lane_hops_from_zero_match_scalar_bitwise() {
        f64_at_every_width(Check::ChainedLaneHops, 49);
    }

    fn lane_acc_roundtrip<W: LaneWidth>(w: W, seed: u64) {
        let mut got = [1.0; 24];
        LaneAcc::zero(w).store(&mut got);
        assert!(got.iter().all(|x| x.to_bits() == 0), "{}", name::<W>());
        let mut rng = SeedTree::new(seed).rng();
        let v: Vec<_> = (0..LANES).map(|_| vector64(&mut rng, true)).collect();
        let sites = sites24(&v);
        LaneAcc::load(w, &sites).store(&mut got);
        assert_eq!(bits(&got), bits(&sites), "{}", name::<W>());
        // Lane-major: real r of lane k at 4r + k.
        LaneAcc::load(w, &sites).store_lanes(&mut got);
        let want: Vec<f64> = (0..24).map(|i| sites[6 * (i % LANES) + i / LANES]).collect();
        assert_eq!(bits(&got), bits(&want), "{}", name::<W>());
    }

    #[test]
    fn lane_acc_load_store_round_trips_and_transposes_exactly() {
        f64_at_every_width(Check::LaneRoundTrip, 50);
    }

    /// `‖x‖²` in the documented order, term by term in scalar f64.
    fn oracle_norm2<R: Real>(x: &[R]) -> f64 {
        let m = x.len() / 8 * 8;
        let mut p = [0.0f64; 8];
        for k in 0..m {
            p[k % 8] += x[k].to_f64() * x[k].to_f64();
        }
        let mut sum = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]));
        for v in &x[m..] {
            sum += v.to_f64() * v.to_f64();
        }
        sum
    }

    /// `⟨x, y⟩` in the documented order: `re` sums `x_k·y_k`, `im` adds
    /// `x_k·y_{k^1}` for even `k` and subtracts it for odd `k`.
    fn oracle_cdot<R: Real>(x: &[R], y: &[R]) -> (f64, f64) {
        let m = x.len() / 8 * 8;
        let term = |k: usize, l: usize| x[k].to_f64() * y[l].to_f64();
        let (mut p, mut q) = ([0.0f64; 8], [0.0f64; 8]);
        for k in 0..m {
            p[k % 8] += term(k, k);
            q[k % 8] += term(k, k ^ 1);
        }
        let mut re = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]));
        let mut im = ((q[0] - q[1]) + (q[2] - q[3])) + ((q[4] - q[5]) + (q[6] - q[7]));
        for k in m..x.len() {
            re += term(k, k);
            if k % 2 == 0 {
                im += term(k, k + 1);
            } else {
                im -= term(k, k - 1);
            }
        }
        (re, im)
    }

    /// Body lengths in reals: Wilson bodies (24 per site), staggered
    /// bodies with odd site counts (6 per site, so a 6-real tail), and
    /// bodies shorter than one chunk of 8.
    const BODY_LENGTHS: [usize; 14] = [0, 2, 4, 6, 8, 24, 48, 72, 240, 6, 18, 30, 42, 606];

    fn body<R: Lane, G: Rng>(rng: &mut G, n: usize, special: bool) -> Vec<R> {
        (0..n).map(|_| value(rng, special)).collect()
    }

    /// Large terms that cancel around small ones, so any other order
    /// rounds differently.
    fn cancelling<R: Lane, G: Rng>(rng: &mut G, n: usize) -> Vec<R> {
        (0..n)
            .map(|k| {
                let big = if k % 4 < 2 { 1e6 } else { -1e6 };
                R::from_f64(
                    big * (1.0 + 1e-3 * (k % 3) as f64) + value::<R, G>(rng, false).to_f64(),
                )
            })
            .collect()
    }

    fn signed_zeros<R: Lane, G: Rng>(rng: &mut G, n: usize) -> Vec<R> {
        (0..n).map(|_| if rng.gen::<bool>() { -R::ZERO } else { R::ZERO }).collect()
    }

    /// The reductions at every width against the oracle, bit for bit:
    /// Gaussian bodies; mixes of ±0.0, subnormals and underflowing
    /// products; cancelling terms; and all-zero bodies of either sign.
    /// `cdot(x, x).re` is `norm2(x)` bit for bit.
    fn reductions_match_oracle<R: Lane + ReduceLanes>(seed: u64) {
        let mut rng = SeedTree::new(seed).rng();
        for n in BODY_LENGTHS {
            for case in 0..4 {
                let (x, y): (Vec<R>, Vec<R>) = match case {
                    0 => (body(&mut rng, n, false), body(&mut rng, n, false)),
                    1 => (body(&mut rng, n, true), body(&mut rng, n, true)),
                    2 => (cancelling(&mut rng, n), cancelling(&mut rng, n)),
                    _ => (signed_zeros(&mut rng, n), signed_zeros(&mut rng, n)),
                };
                let (want_n, want_d) = (oracle_norm2(&x), oracle_cdot(&x, &y));
                for width in Width::supported() {
                    let what = format!("{width:?} {} n = {n} case {case}", R::NAME);
                    assert_eq!(norm2(width, &x).to_bits(), want_n.to_bits(), "norm2 {what}");
                    let (re, im) = cdot(width, &x, &y);
                    assert_eq!(re.to_bits(), want_d.0.to_bits(), "cdot re {what}");
                    assert_eq!(im.to_bits(), want_d.1.to_bits(), "cdot im {what}");
                    let (self_re, _) = cdot(width, &x, &x);
                    assert_eq!(self_re.to_bits(), want_n.to_bits(), "cdot(x, x).re {what}");
                }
            }
        }
    }

    #[test]
    fn reductions_match_the_documented_order_bitwise() {
        reductions_match_oracle::<f32>(53);
        reductions_match_oracle::<f64>(59);
    }
}
