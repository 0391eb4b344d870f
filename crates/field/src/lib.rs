//! Lattice field containers with the QUDA memory layout.
//!
//! A field lives on one parity (checkerboard) of a rank's subvolume, in a
//! single contiguous allocation laid out as the paper's Figs. 2 and 3
//! describe: the local body first, then an adjustable padding region, then
//! one ghost zone per partitioned dimension and direction:
//!
//! ```text
//! [ body: Vh sites ][ pad ][ ghost X− ][ ghost X+ ][ ghost Y− ] ...
//! ```
//!
//! BLAS-1 kernels and reductions stride over the body only — placing the
//! ghosts *after* the body is exactly what makes that possible (paper
//! §6.1: "Ghost zones for the spinor field are placed in memory after the
//! local spinor field so that BLAS-like routines, including global
//! reductions, may be carried out efficiently").
//!
//! * [`SiteObject`] — trait tying a typed per-site object (spinor, color
//!   vector, link matrix, clover term) to its flat real-number encoding;
//! * [`FieldLayout`] — offsets of body/pad/ghosts for a subvolume;
//! * [`LatticeField`] — the container, with typed site access, ghost
//!   access, and the BLAS-1 surface the solvers use;
//! * [`blas`] — free-standing fused kernels (axpy/caxpy/dot/norm²/...)
//!   including the multi-shift update kernels;
//! * [`half`] — whole-field 16-bit fixed-point encode/decode used by the
//!   mixed-precision solvers;
//! * [`snapshot`] — versioned, checksummed, bit-exact binary snapshots of
//!   field bodies (`f64` and `f32`) for checkpoint/restart.

pub mod blas;
pub mod field;
pub mod half;
pub mod layout;
pub mod site;
pub mod snapshot;

pub use field::{BodyView, CastSite, CastSiteAny, GhostZonesMut, LatticeField};
pub use half::HalfField;
pub use layout::FieldLayout;
pub use site::SiteObject;
pub use snapshot::{decode_field_into, encode_field};
