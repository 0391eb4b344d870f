//! Gauge fields: storage, generation, observables, and link improvement.
//!
//! The paper consumes production gauge configurations; this crate is our
//! substitute substrate (see DESIGN.md):
//!
//! * [`GaugeField`] — the 4-direction, 2-parity link field with ghost
//!   zones and comm-based ghost exchange ("transferred once at the
//!   beginning of a solve", §6.1). Deterministic generators (cold / hot /
//!   tunable disorder) key every link on its *global* coordinates, so the
//!   same seed yields bit-identical physics on any process grid.
//! * [`plaquette`] — the standard gauge observable, used to validate the
//!   heatbath and smearing code.
//! * [`heatbath`] — quenched Cabibbo–Marinari SU(2)-subgroup heatbath to
//!   produce equilibrated configurations at coupling β.
//! * [`paths`] — products of links along arbitrary lattice paths, the
//!   building block for staples and improved actions.
//! * [`asqtad`] — fat-link (3/5/7-staple + Lepage) and long-link (Naik)
//!   construction with the standard asqtad path coefficients (§2.3: these
//!   fields "are pre-calculated before the application of M", which is why
//!   we compute them globally and restrict per rank, as MILC does for
//!   QUDA).
//! * [`clover_build`] — clover-leaf field strength and the packed clover
//!   term for the Wilson-clover operator, built by each rank on its own
//!   sites from the extended gauge halo of [`GaugeField::exchange_halo`].

pub mod asqtad;
pub mod clover_build;
pub mod field;
pub mod heatbath;
pub mod paths;
pub mod plaquette;

pub use asqtad::{AsqtadCoeffs, AsqtadLinks};
pub use field::GaugeField;
pub use plaquette::average_plaquette;
