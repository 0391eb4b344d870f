//! # lqcd — *Scaling Lattice QCD beyond 100 GPUs*, in Rust
//!
//! A pure-Rust reproduction of Babich, Clark, Joó, Shi, Brower &
//! Gottlieb, SC '11 (arXiv:1109.2935): multi-dimensionally partitioned
//! Wilson-clover and improved-staggered (asqtad) Dirac operators, the
//! additive-Schwarz domain-decomposed GCR solver (GCR-DD) with
//! single/half mixed precision, multi-shift CG, and a calibrated
//! simulated-GPU-cluster performance model that regenerates every
//! evaluation figure of the paper.
//!
//! ## Quick start
//!
//! ```
//! use lqcd::prelude::*;
//!
//! // A small Wilson-clover problem, solved with GCR-DD on a 2×2 grid of
//! // simulated "GPUs" (threads).
//! let problem = WilsonProblem::small();
//! let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), problem.global).unwrap();
//! let run = solve_wilson(&problem, grid, WilsonSolve::gcr_dd(LadderChoice::Double));
//! let outcomes = run.into_result().unwrap();
//! assert!(outcomes.iter().all(|o| o.stats.converged));
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! figure-regeneration harness. The crate is a facade: the implementation
//! lives in the `lqcd-*` workspace members re-exported below.

pub use lqcd_comms as comms;
pub use lqcd_core as core;
pub use lqcd_dirac as dirac;
pub use lqcd_field as field;
pub use lqcd_gauge as gauge;
pub use lqcd_lattice as lattice;
pub use lqcd_perf as perf;
pub use lqcd_solvers as solvers;
pub use lqcd_su3 as su3;
pub use lqcd_tune as tune;
pub use lqcd_util as util;

/// The items most programs need.
pub mod prelude {
    pub use lqcd_comms::{
        run_on_grid, run_on_grid_fallible, run_world_fallible, CommConfig, Communicator, FaultPlan,
        FaultRule, MsgClass, SharedComm, SingleComm, ThreadedComm,
    };
    pub use lqcd_core::{
        solve_staggered, solve_wilson, tune_wilson, LadderChoice, StaggeredProblem, StaggeredRun,
        StaggeredSolve, SupervisorConfig, WilsonProblem, WilsonRun, WilsonSolve,
    };
    pub use lqcd_dirac::{BoundaryMode, StaggeredOp, WilsonCloverOp};
    pub use lqcd_gauge::{average_plaquette, AsqtadLinks, GaugeField};
    pub use lqcd_lattice::{Dims, Parity, PartitionScheme, ProcessGrid, SubLattice};
    pub use lqcd_perf::{edge, simulate_dslash, OperatorKind, Precision, Recon};
    pub use lqcd_solvers::{
        bicgstab, cg, cgnr, gcr, lanczos_extremes, mr, multishift_cg, GcrParams, IdentityPrecond,
        SchwarzMR, SolveStats, SolverSpace, Spectrum,
    };
    pub use lqcd_su3::{ColorVector, Su3, WilsonSpinor};
    pub use lqcd_tune::{TuneCache, TuneParam, TunePolicy};
    pub use lqcd_util::rng::SeedTree;
    pub use lqcd_util::{Complex, Error, Real, Result};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        use crate::prelude::*;
        let d = Dims::symm(8, 16);
        assert_eq!(d.volume(), 8 * 8 * 8 * 16);
        let _ = edge();
    }
}
