//! Discretized Dirac operators with multi-dimensional partitioning.
//!
//! This crate implements the two discretizations the paper evaluates —
//! Wilson-clover (§2.2) and improved staggered / asqtad (§2.3) — in the
//! decomposition its multi-GPU strategy prescribes (§6):
//!
//! * ghost-zone **exchange** of source-field faces for every partitioned
//!   dimension ([`exchange`]);
//! * an **interior kernel** computing every contribution that needs no
//!   ghost data, plus one **exterior kernel per partitioned dimension**
//!   adding the boundary contributions (corner sites receive from several
//!   exterior kernels, which is why they run after communication and in
//!   sequence — §6.2);
//! * a **Dirichlet mode** that switches communication off entirely and
//!   drops boundary contributions, which is precisely the non-overlapping
//!   additive-Schwarz block operator of §8.1.
//!
//! The same code paths run on one rank (ghosts wrap periodically on-rank)
//! and on many (ghosts filled by [`lqcd_comms`]); the integration tests
//! pin distributed-equals-serial for every partitioning scheme.

mod dispatch;
pub mod exchange;
pub mod overlap;
pub mod staggered;
pub mod wilson;

pub use overlap::{DslashCounters, OverlapHost};
pub use staggered::{StaggeredOp, STAGGERED_DEPTH};
pub use wilson::{WilsonCloverOp, WILSON_DEPTH};

/// Whether the operator communicates across rank boundaries.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BoundaryMode {
    /// Full operator: ghost zones exchanged and applied.
    Full,
    /// Dirichlet (zero) boundaries at rank cuts: no communication, no
    /// boundary contributions — the additive-Schwarz block operator.
    Dirichlet,
}

/// Formula-level reference operators (Eqs. 2 and 3), the oracle the
/// optimized operators are checked against.
#[cfg(test)]
mod reference;
