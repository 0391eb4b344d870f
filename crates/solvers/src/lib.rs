//! Krylov solvers for lattice Dirac systems.
//!
//! The solver stack the paper builds and benchmarks (§3, §8):
//!
//! * [`cg`](mod@cg) — conjugate gradients for Hermitian positive-definite systems
//!   (the staggered normal operator);
//! * [`bicgstab`](mod@bicgstab) — the production Wilson-clover solver being outscaled
//!   in Figs. 7–8;
//! * [`mr`](mod@mr) — minimum residual, the cheap smoother used *inside* Schwarz
//!   blocks ("only a small number of steps of MR", §8.1);
//! * [`gcr`](mod@gcr) — flexible GCR with explicit orthogonalization, restarts,
//!   the δ early-restart criterion and the implicit solution update:
//!   Algorithm 1 verbatim;
//! * [`SchwarzMR`] — the non-overlapping additive-Schwarz preconditioner:
//!   a few MR steps on the rank-local Dirichlet operator with *local*
//!   reductions only;
//! * [`multishift_cg`] — the shifted-system CG (Eq. 4) with Jegerlehner
//!   recurrences;
//! * [`mixed`] — mixed-precision drivers: double-single defect-correction
//!   (reliable-update analogue) and the staggered strategy of §8.2
//!   (single-precision multi-shift followed by sequential refinement);
//! * [`watchdog`] — [`SolveMonitor`] hooks through the outer iterations
//!   ([`gcr_monitored`], [`mixed::defect_correction_monitored`]) and the
//!   [`SolveWatchdog`] that turns NaN contamination, stagnation,
//!   divergence, and wall-clock overrun into structured breakdowns.
//!
//! All solvers are generic over [`SolverSpace`] — implemented by the
//! distributed lattice operators in [`spaces`] and by a dense test matrix
//! in [`space::DenseSpace`], so every algorithm is also unit-tested
//! against exactly solvable systems.

pub mod bicgstab;
pub mod cg;
pub mod cgnr;
pub mod gcr;
pub mod lanczos;
pub mod mixed;
pub mod mr;
pub mod multishift;
pub mod space;
pub mod spaces;
pub mod watchdog;

pub use bicgstab::bicgstab;
pub use cg::cg;
pub use cgnr::{cgnr, AdjointMatvec};
pub use gcr::{gcr, gcr_monitored, GcrParams, IdentityPrecond, Preconditioner, SchwarzMR};
pub use lanczos::{lanczos_extremes, Spectrum};
pub use mr::mr;
pub use multishift::multishift_cg;
pub use space::{DirichletMatvec, SolveStats, SolverSpace};
pub use watchdog::{NullMonitor, SolveMonitor, SolveWatchdog, WatchdogConfig};
