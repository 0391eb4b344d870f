//! The paper's system, assembled: high-level problem builders and solver
//! drivers that put the multi-dimensionally partitioned operators, the
//! GCR-DD solver stack, and the simulated cluster together behind a small
//! API. This is the crate examples and benches program against.
//!
//! * [`WilsonProblem`] / [`StaggeredProblem`] — declarative descriptions
//!   of a solve (volume, process grid, gauge disorder, mass, solver
//!   parameters) that any rank can instantiate;
//! * [`drivers`] — one SPMD entry point per operator over one launch
//!   body: [`solve_wilson`] runs a [`WilsonSolve`] request (BiCGstab, or
//!   GCR-DD climbing the precision ladder from a start rung, optionally
//!   under a tuned configuration) and [`solve_staggered`] a
//!   [`StaggeredSolve`] (asqtad multi-shift CG). Both are a
//!   [`SolveRequest`] with a comms policy, a fault plan per world launch
//!   and an optional supervisor; both share the supervisor loop, the
//!   world launch and the ladder climb, and return a [`SolveRun`] of
//!   per-rank results that never panics;
//! * [`supervise`] — checkpoint/restart for long solves: periodic field
//!   snapshots at GCR restart boundaries and watchdog monitoring, which
//!   let a supervised request rebuild a dead world and resume from the
//!   newest common checkpoint;
//! * [`tuning`] — autotuner micro-trials and the policy resolution a
//!   tuned request takes;
//! * [`calibration`] — measured-iteration experiments linking the real
//!   solvers to the performance model's iteration inputs (the
//!   EXPERIMENTS.md data).

pub mod calibration;
pub mod drivers;
pub mod problem;
pub mod supervise;
pub mod tuning;

pub use drivers::{
    solve_staggered, solve_wilson, LadderChoice, SolveOutcome, SolveRequest, SolveRun,
    StaggeredRun, StaggeredSolve, StaggeredSolveOutcome, WilsonRun, WilsonSolve,
    WilsonSolveOutcome,
};
pub use problem::{StaggeredProblem, WilsonProblem};
pub use supervise::{CheckpointingMonitor, SolveCheckpointMeta, SupervisorConfig};
pub use tuning::tune_wilson;
