//! Foundations for the `lqcd` workspace.
//!
//! This crate holds the small, dependency-free building blocks everything
//! else is written against:
//!
//! * [`Real`] — the floating-point precision abstraction (`f32` / `f64`)
//!   used by all field and solver code, so each algorithm is written once
//!   and instantiated per precision, mirroring the paper's double / single
//!   split.
//! * [`Complex`] — complex arithmetic over any [`Real`].
//! * [`half`] — the 16-bit fixed-point storage format ("half precision" in
//!   QUDA terminology, §5 of the paper) together with block conversion
//!   helpers.
//! * [`rng`] — deterministic, seedable random-number plumbing so gauge
//!   configurations and sources are reproducible across runs.
//! * [`Error`] — the shared error type.

pub mod checkpoint;
pub mod checksum;
pub mod complex;
pub mod error;
pub mod half;
pub mod real;
pub mod rng;
pub mod stats;
pub mod trace;

pub use checkpoint::{ByteReader, Checkpoint, CheckpointStore};
pub use checksum::{crc64, Crc64};
pub use complex::Complex;
pub use error::{BreakdownKind, Error, Result};
pub use half::Fixed16;
pub use real::{Real, Reals};
