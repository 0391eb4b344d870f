//! 4-D lattice geometry for multi-rank lattice QCD.
//!
//! Everything the Dirac operators and the communication layer need to agree
//! on lives here:
//!
//! * [`Dims`] — global/local lattice extents with lexicographic indexing
//!   (X fastest, T slowest, the paper's memory order);
//! * [`ProcessGrid`] / [`PartitionScheme`] — how ranks tile the lattice in
//!   1–4 dimensions (the paper's T, ZT, YZT, XYZT schemes) and neighbour
//!   rank arithmetic with periodic wrap;
//! * [`SubLattice`] — one rank's subvolume: even-odd (checkerboard) site
//!   indexing, local↔global coordinate maps, and neighbour resolution that
//!   classifies each stencil hop as interior or ghost;
//! * [`FaceGeometry`] — gather tables and ghost-slot indexing for the
//!   boundary faces, at arbitrary stencil depth (1 for Wilson, 3 for the
//!   improved-staggered Naik term);
//! * [`NeighborTable`] — the stencil hops (8 at depth 1, 16 at depth 3) and
//!   staggered phases of every site, resolved once per operator.
//!
//! The invariant the whole workspace rests on: **the sender's gather order
//! and the receiver's ghost-slot arithmetic are derived from the same
//! functions here**, so a spinor gathered on one rank is read back at the
//! right offset on its neighbour by construction.

pub mod dims;
pub mod face;
pub mod grid;
pub mod local;
pub mod neighbors;

pub use dims::{Dims, NDIM};
pub use face::FaceGeometry;
pub use grid::{PartitionScheme, ProcessGrid};
pub use local::{Neighbor, Parity, SubLattice};
pub use neighbors::NeighborTable;
