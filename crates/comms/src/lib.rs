//! QMP-like message passing for the virtual GPU cluster.
//!
//! The paper's implementation can sit on either MPI or QMP, the "QCD
//! message-passing" standard offering exactly the primitives lattice codes
//! need (§6.1). This crate provides the same narrow surface:
//!
//! * [`Communicator`] — rank identity, neighbour `send_recv` along a
//!   process-grid dimension, and global reductions;
//! * [`SingleComm`] — the trivial single-rank backend;
//! * [`ThreadedComm`] — the multi-rank backend: every "GPU" is a thread,
//!   messages travel over std mpsc channels with MPI-style
//!   `(source, tag)` matching;
//! * [`run_on_grid`] — SPMD launcher: one thread per rank, each handed its
//!   own communicator, results collected in rank order.
//!
//! Layered on top is the fault-tolerance surface (see `DESIGN.md`,
//! "Fault model & recovery"):
//!
//! * [`CommConfig`] — per-world deadline, retry, and backoff policy;
//!   receives return [`lqcd_util::Error::Timeout`] instead of blocking
//!   forever, and with `retries > 0` exchanges run a stop-and-wait
//!   ack/retransmit protocol that survives dropped, duplicated, delayed,
//!   and reordered messages;
//! * [`run_on_grid_fallible`] / [`run_world_fallible`] — panic-safe SPMD
//!   launchers: a panicking rank poisons the world (waking blocked peers
//!   with [`lqcd_util::Error::RankFailure`]) and is reported in its
//!   result slot rather than tearing down the process;
//! * [`FaultPlan`] / [`FaultRule`] — deterministic, seeded fault
//!   injection (message drop, duplication, delay, corruption; rank
//!   stall and death) for chaos testing, attached to a world by
//!   [`ThreadedComm::world_with`], so every message of a world, faulty
//!   or not, takes the one `ThreadedComm` path.
//!
//! Payloads are `f64` slices; fields convert their storage precision at
//! the boundary. (The *performance model* prices messages at their true
//! storage width — the correctness path here is deliberately simple.)

pub mod comm;
pub mod faulty;
pub mod single;
pub mod threaded;

pub use comm::{Communicator, ExchangeHandle, SharedComm};
pub use faulty::{FaultKind, FaultPlan, FaultRule, MsgClass};
pub use single::SingleComm;
pub use threaded::{
    run_on_grid, run_on_grid_fallible, run_world_fallible, CommConfig, ThreadedComm,
};
