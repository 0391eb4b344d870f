//! SU(3) color algebra for lattice QCD.
//!
//! This crate provides the per-site dense linear algebra that every Dirac
//! operator is built from:
//!
//! * [`Su3`] — 3×3 special-unitary color (link) matrices with products,
//!   adjoints, projection back onto SU(3), and random group elements;
//! * [`ColorVector`] — 3-component complex color vectors (the staggered
//!   per-site degrees of freedom);
//! * [`WilsonSpinor`] — 4 spins × 3 colors = 12 complex components (the
//!   Wilson-clover per-site degrees of freedom);
//! * [`gamma`] — the DeGrand–Rossi γ-matrix basis and the spin projectors
//!   `P±µ = (1 ± γµ)/2`, including the half-spinor (two-spin) projection
//!   trick QUDA uses to halve spinor traffic;
//! * [`compress`] — the 12-real and 8-real compressed gauge-link storage
//!   formats with exact SU(3) reconstruction (paper §5, "strategy (a)");
//! * [`clover`] — the packed 72-real clover term (two 6×6 Hermitian
//!   chiral blocks) with apply and inverse;
//! * `kernels` (x86_64) — bit-identical SIMD site kernels: the Wilson
//!   hop and clover block in single and double precision, one site per
//!   SSE2 call or two per AVX2 call, the double-precision asqtad
//!   colour hop, and the f64 Krylov reductions in one width-independent
//!   order.

pub mod clover;
pub mod compress;
pub mod gamma;
#[cfg(target_arch = "x86_64")]
pub mod kernels;
pub mod matrix;
pub mod spinor;
pub mod vector;

pub use clover::CloverSite;
pub use compress::{Reconstruct, Su3Compressed12, Su3Compressed8};
pub use gamma::{HalfSpinor, Projector};
pub use matrix::Su3;
pub use spinor::WilsonSpinor;
pub use vector::ColorVector;

/// Number of colors. Fixed to 3 for QCD throughout the workspace.
pub const NCOLOR: usize = 3;
/// Number of spin components of a Wilson spinor.
pub const NSPIN: usize = 4;
/// Real degrees of freedom of the packed clover term per site.
pub const CLOVER_REALS: usize = 72;
