//! Safe selection of an operator's SIMD site kernels, and flat site
//! access and site grouping for them.
//!
//! The operators are generic over `R: Real`, but the SIMD kernel sets
//! serve fixed precisions: f32 and f64 for Wilson-clover, f64 for
//! asqtad. Every public entry point runs its body through
//! [`with_kernels!`]: when the operator is one of the concrete types the
//! fast kernels serve, an `Any` downcast re-binds the operator and the
//! listed fields at that type and the body runs with the kernels
//! `kernels::fast(op)` returns; otherwise it runs with `kernels::Generic`.
//! No signature changes and no `unsafe`.
//!
//! SSE2 is part of the x86_64 baseline. The Wilson-clover kernels also
//! run two sites per AVX2 register, grouped by [`same_hop_mask`], and the
//! asqtad kernels run the four sites of a lane-major group per call, in
//! one AVX2 register or two SSE2 halves: each operator detects the widest
//! lane width once, when it is built (`is_x86_feature_detected!`), and
//! its fast kernels carry that width into `#[target_feature]` site loops.

/// A reference re-bound at the concrete type it is known to have.
#[cfg(target_arch = "x86_64")]
pub(crate) trait Retype<T> {
    /// Panics if the referent is not a `T`.
    fn retype(self) -> T;
}

#[cfg(target_arch = "x86_64")]
const SAME_PRECISION: &str = "an operator applies to fields of its own precision";

#[cfg(target_arch = "x86_64")]
impl<'a, X: std::any::Any, T: std::any::Any> Retype<&'a mut T> for &'a mut X {
    fn retype(self) -> &'a mut T {
        (self as &mut dyn std::any::Any).downcast_mut().expect(SAME_PRECISION)
    }
}

#[cfg(target_arch = "x86_64")]
impl<'a, X: std::any::Any, T: std::any::Any> Retype<&'a T> for &'a X {
    fn retype(self) -> &'a T {
        (self as &dyn std::any::Any).downcast_ref().expect(SAME_PRECISION)
    }
}

/// Run `$body` with `$op` the operator and `$k` its site kernels. On
/// x86_64 an operator of one of the types `$fast` (separated by `|`)
/// takes `kernels::fast($op)`, with the fields listed in `[..]` re-bound at
/// their concrete types (the body `return`s from the enclosing method);
/// everything else takes `kernels::Generic`. Both paths name the
/// `kernels` module in scope at the call site.
macro_rules! with_kernels {
    (@sse2 $self:ident as $fast:ty, |$op:ident, $k:ident| [$($field:ident),*] $body:expr) => {
        #[cfg(target_arch = "x86_64")]
        if let Some($op) = ($self as &dyn std::any::Any).downcast_ref::<$fast>() {
            $(let $field = $crate::dispatch::Retype::retype($field);)*
            let $k = kernels::fast($op);
            return $body;
        }
    };
    ($self:ident as $($fast:ty)|+, |$op:ident, $k:ident| $fields:tt $body:expr) => {{
        $(with_kernels!(@sse2 $self as $fast, |$op, $k| $fields $body);)+
        let ($op, $k) = ($self, kernels::Generic);
        $body
    }};
}

pub(crate) use with_kernels;

/// Site `idx` of a flat field of `N` reals per site.
#[inline(always)]
pub(crate) fn site<R, const N: usize>(reals: &[R], idx: usize) -> &[R; N] {
    reals[N * idx..].first_chunk().expect("site index inside the field")
}

/// Mutable site `idx` of a flat field of `N` reals per site.
#[inline(always)]
pub(crate) fn site_mut<R, const N: usize>(reals: &mut [R], idx: usize) -> &mut [R; N] {
    reals[N * idx..].first_chunk_mut().expect("site index inside the field")
}

/// Two sites' hop lists take their interior and their ghost hops in the
/// same entries, so one group of sites runs one sequence of hops.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn same_hop_mask(a: &[u32], b: &[u32]) -> bool {
    a.iter().zip(b).all(|(x, y)| (x ^ y) & lqcd_lattice::NeighborTable::GHOST == 0)
}

/// The interior site an entry names, in a group whose sites share one hop
/// mask ([`same_hop_mask`]).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn group_site(entry: u32) -> usize {
    lqcd_lattice::NeighborTable::interior(entry).expect("the sites of a group share one hop mask")
}
