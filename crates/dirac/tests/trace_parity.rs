//! Both operators run the same traced dslash pipeline: a traced asqtad
//! apply records the same span names on the same tracks as a traced
//! Wilson apply — the pipeline stages (`interior`, `exchange_inflight`,
//! one `exterior` per partitioned dimension) and the ghost exchange.

use lqcd_comms::{run_on_grid, Communicator, ThreadedComm};
use lqcd_dirac::{BoundaryMode, StaggeredOp, WilsonCloverOp, STAGGERED_DEPTH, WILSON_DEPTH};
use lqcd_gauge::field::GaugeStart;
use lqcd_gauge::GaugeField;
use lqcd_lattice::{Dims, FaceGeometry, Parity, ProcessGrid, SubLattice};
use lqcd_util::rng::SeedTree;
use lqcd_util::trace::{self, EventKind, Track};
use std::collections::BTreeSet;
use std::sync::Arc;

const GLOBAL: Dims = Dims([4, 4, 4, 8]);

/// Links for a depth-`depth` operator on this rank. Ghost links stay
/// zero: building them would trace an exchange, and the spans, not the
/// values, are under test.
fn links<C: Communicator>(comm: &C, grid: &ProcessGrid, depth: usize) -> GaugeField<f64> {
    let sub = Arc::new(SubLattice::for_rank(grid, comm.rank()));
    let faces = FaceGeometry::new(&sub, depth).unwrap();
    GaugeField::generate(sub, &faces, GLOBAL, &SeedTree::new(3), GaugeStart::Disordered(0.2))
}

/// The `(track, name)` pairs of every span one traced apply per rank
/// records.
fn spans(apply: impl Fn(&mut ThreadedComm) + Sync) -> BTreeSet<(Track, &'static str)> {
    let grid = ProcessGrid::new(Dims([1, 1, 1, 2]), GLOBAL).unwrap();
    trace::clear();
    trace::enable();
    run_on_grid(grid, move |mut comm| apply(&mut comm));
    trace::disable();
    let ranks = trace::take();
    assert_eq!(ranks.len(), 2, "one buffer per rank");
    ranks
        .iter()
        .flat_map(|(_, events)| events)
        .filter(|e| e.kind == EventKind::Begin)
        .map(|e| (e.track, e.name))
        .collect()
}

#[test]
fn traced_asqtad_apply_matches_wilson_spans() {
    let grid = ProcessGrid::new(Dims([1, 1, 1, 2]), GLOBAL).unwrap();
    let g = grid.clone();
    let wilson = spans(move |comm| {
        let op = WilsonCloverOp::new(links(comm, &g, WILSON_DEPTH), None, 0.1).unwrap();
        let (mut out, mut src) = (op.alloc(Parity::Even), op.alloc(Parity::Odd));
        op.dslash(&mut out, &mut src, comm, BoundaryMode::Full).unwrap();
    });
    let g = grid.clone();
    let asqtad = spans(move |comm| {
        let fat = links(comm, &g, STAGGERED_DEPTH);
        let op = StaggeredOp::new(fat.clone(), fat, 0.1).unwrap();
        let (mut out, mut src) = (op.alloc(Parity::Even), op.alloc(Parity::Odd));
        op.dslash(&mut out, &mut src, comm, BoundaryMode::Full).unwrap();
    });
    for stage in [
        (Track::Interior, "interior"),
        (Track::Comm, "exchange_inflight"),
        (Track::Exterior, "exterior"),
    ] {
        assert!(wilson.contains(&stage), "Wilson apply lacks {stage:?}: {wilson:?}");
    }
    assert_eq!(asqtad, wilson);
}
