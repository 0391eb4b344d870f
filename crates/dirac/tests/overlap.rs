//! Overlap-pipeline equivalence: the overlapped dslash (nonblocking
//! exchange + interior kernel concurrent with completion + per-dimension
//! exteriors) must be *bit-identical* to the blocking sequential path —
//! for every precision, partitioning, interior thread count, and under
//! injected communication faults. Overlap is a scheduling optimization;
//! it may never change the physics.

use lqcd_comms::{
    run_on_grid, run_world_fallible, CommConfig, Communicator, FaultPlan, FaultRule, MsgClass,
    SingleComm, ThreadedComm,
};
use lqcd_dirac::{
    BoundaryMode, OverlapHost, StaggeredOp, WilsonCloverOp, STAGGERED_DEPTH, WILSON_DEPTH,
};
use lqcd_field::{HalfField, LatticeField};
use lqcd_gauge::field::GaugeStart;
use lqcd_gauge::GaugeField;
use lqcd_lattice::{Dims, FaceGeometry, Parity, ProcessGrid, SubLattice};
use lqcd_su3::WilsonSpinor;
use lqcd_util::rng::SeedTree;
use lqcd_util::{Error, Real};
use std::sync::Arc;

const GLOBAL: Dims = Dims([4, 4, 8, 8]);
const SEED: u64 = 20260807;

/// Build one rank's plain Wilson operator with exchanged gauge ghosts.
fn build_wilson<C: Communicator>(
    comm: &mut C,
    grid: &ProcessGrid,
    seed: u64,
) -> WilsonCloverOp<f64> {
    let sub = Arc::new(SubLattice::for_rank(grid, comm.rank()));
    let faces = FaceGeometry::new(&sub, WILSON_DEPTH).unwrap();
    let mut gauge = GaugeField::<f64>::generate(
        sub,
        &faces,
        GLOBAL,
        &SeedTree::new(seed),
        GaugeStart::Disordered(0.3),
    );
    gauge.exchange_ghosts(comm, &faces).unwrap();
    WilsonCloverOp::new(gauge, None, 0.1).unwrap()
}

/// Deterministic odd-parity source keyed on global coordinates.
fn fill_source(op: &WilsonCloverOp<f64>, seed: u64) -> lqcd_dirac::wilson::SpinorField<f64> {
    let sub = op.sublattice().clone();
    let tree = SeedTree::new(seed);
    let mut src = op.alloc(Parity::Odd);
    src.fill(|idx| {
        let c = sub.cb_coords(Parity::Odd, idx);
        let mut gc = c;
        for d in 0..4 {
            gc[d] = c[d] + sub.origin[d];
        }
        WilsonSpinor::random(&mut tree.child("src").stream(GLOBAL.index(gc) as u64))
    });
    src
}

/// Sequential-vs-overlapped bitwise comparison at one precision. Returns
/// the number of body reals that differ (must be 0).
fn diff_bits<R: Real, C: Communicator>(
    op: &WilsonCloverOp<R>,
    src: &mut lqcd_dirac::wilson::SpinorField<R>,
    comm: &mut C,
    threads: &[usize],
) -> usize {
    let mut out_seq = op.alloc(Parity::Even);
    op.dslash_sequential(&mut out_seq, src, comm, BoundaryMode::Full).unwrap();
    let mut mismatches = 0usize;
    for &t in threads {
        op.set_interior_threads(t);
        let mut out_ovl = op.alloc(Parity::Even);
        op.dslash(&mut out_ovl, src, comm, BoundaryMode::Full).unwrap();
        mismatches += out_seq
            .body()
            .iter()
            .zip(out_ovl.body())
            .filter(|(a, b)| a.to_f64().to_bits() != b.to_f64().to_bits())
            .count();
    }
    mismatches
}

#[test]
fn wilson_overlapped_bitwise_equals_sequential_all_precisions() {
    for shape in [Dims([1, 1, 2, 2]), Dims([2, 2, 2, 2])] {
        let grid = ProcessGrid::new(shape, GLOBAL).unwrap();
        let g = grid.clone();
        let mismatches = run_on_grid(grid, move |mut comm| {
            let op = build_wilson(&mut comm, &g, SEED);
            let mut src = fill_source(&op, SEED);
            let mut bad = diff_bits(&op, &mut src, &mut comm, &[1, 2, 3]);

            // f32: cast operator and source, same bit-identity contract
            // (ghosts travel in wire precision, so f32 stays exact too).
            let op32 = WilsonCloverOp::<f32>::new(op.gauge.cast::<f32>(), None, op.mass).unwrap();
            let mut src32 = src.cast_all::<f32>();
            bad += diff_bits(&op32, &mut src32, &mut comm, &[1, 2, 3]);

            // Half: quantize the f32 source through the 16-bit fixed-point
            // round trip, then compare the two paths on the quantized
            // input — the mixed-precision solvers feed the operator
            // exactly such fields.
            let mut src_half = op32.alloc(Parity::Odd);
            HalfField::encode(&src32).decode_into(&mut src_half);
            bad += diff_bits(&op32, &mut src_half, &mut comm, &[1, 2]);
            bad
        });
        let total: usize = mismatches.iter().sum();
        assert_eq!(total, 0, "scheme {shape:?}: {total} reals differ between paths");
    }
}

#[test]
fn staggered_overlapped_bitwise_equals_sequential() {
    // Random (non-physical) fat/long links suffice for bit-equality of
    // the two schedules; depth-3 ghosts exercise the thick-face path.
    let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), GLOBAL).unwrap();
    let g = grid.clone();
    let mismatches = run_on_grid(grid, move |mut comm| {
        let sub = Arc::new(SubLattice::for_rank(&g, comm.rank()));
        let faces = FaceGeometry::new(&sub, STAGGERED_DEPTH).unwrap();
        let seed = SeedTree::new(SEED + 1);
        let mut fat = GaugeField::<f64>::generate(
            sub.clone(),
            &faces,
            GLOBAL,
            &seed.child("fat"),
            GaugeStart::Disordered(0.25),
        );
        fat.exchange_ghosts(&mut comm, &faces).unwrap();
        let mut long = GaugeField::<f64>::generate(
            sub.clone(),
            &faces,
            GLOBAL,
            &seed.child("long"),
            GaugeStart::Disordered(0.15),
        );
        long.exchange_ghosts(&mut comm, &faces).unwrap();
        let op = StaggeredOp::new(fat, long, 0.2).unwrap();
        let mut src = op.alloc(Parity::Odd);
        let subc = sub.clone();
        src.fill(|idx| {
            let c = subc.cb_coords(Parity::Odd, idx);
            let mut gc = c;
            for d in 0..4 {
                gc[d] = c[d] + subc.origin[d];
            }
            lqcd_su3::ColorVector::random(&mut seed.child("src").stream(GLOBAL.index(gc) as u64))
        });
        let mut out_seq = op.alloc(Parity::Even);
        op.dslash_sequential(&mut out_seq, &mut src, &mut comm, BoundaryMode::Full).unwrap();
        let mut bad = 0usize;
        for t in [1usize, 2, 3] {
            op.set_interior_threads(t);
            let mut out_ovl = op.alloc(Parity::Even);
            op.dslash(&mut out_ovl, &mut src, &mut comm, BoundaryMode::Full).unwrap();
            bad += out_seq
                .body()
                .iter()
                .zip(out_ovl.body())
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count();
        }
        bad
    });
    let total: usize = mismatches.iter().sum();
    assert_eq!(total, 0, "{total} reals differ between staggered paths");
}

#[test]
fn overlapped_bitwise_identical_under_chaos() {
    // Clean world, sequential path → reference bits.
    let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), GLOBAL).unwrap();
    let g = grid.clone();
    let config = CommConfig::resilient();
    let comms = ThreadedComm::world_with(grid.clone(), config, None);
    let clean: Vec<Vec<u64>> = run_world_fallible(comms, move |mut comm| {
        let op = build_wilson(&mut comm, &g, SEED + 2);
        let mut src = fill_source(&op, SEED + 2);
        let mut out = op.alloc(Parity::Even);
        op.dslash_sequential(&mut out, &mut src, &mut comm, BoundaryMode::Full).unwrap();
        comm.barrier().unwrap();
        out.body().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    })
    .into_iter()
    .map(|r| r.unwrap())
    .collect();

    // Chaotic world, overlapped path with parallel interior: dropped
    // data and acks (the ARQ absorbs both), duplicates, and delays.
    // Reduce traffic has no retransmit protocol, so every drop rule is
    // scoped to data or ack messages.
    let plan = FaultPlan::new(SEED ^ 0x0d5)
        .with_rule(FaultRule::drop_message().data_only().with_probability(0.15))
        .with_rule(FaultRule::drop_message().for_class(MsgClass::Ack).with_probability(0.15))
        .with_rule(FaultRule::duplicate_message().data_only().with_probability(0.2))
        .with_rule(
            FaultRule::delay_message(std::time::Duration::from_millis(10))
                .data_only()
                .with_probability(0.2),
        );
    let g = grid.clone();
    let comms = ThreadedComm::world_with(grid, config, Some(plan));
    let chaotic: Vec<(Vec<u64>, u64, u64)> = run_world_fallible(comms, move |mut comm| {
        let op = build_wilson(&mut comm, &g, SEED + 2);
        op.set_interior_threads(2);
        let mut src = fill_source(&op, SEED + 2);
        let mut out = op.alloc(Parity::Even);
        for _ in 0..3 {
            op.dslash(&mut out, &mut src, &mut comm, BoundaryMode::Full).unwrap();
        }
        // The closing barrier keeps every rank's mailbox live until the
        // last stop-and-wait ack has landed (a peer that exits early
        // cannot re-ack a retransmitted final exchange).
        comm.barrier().unwrap();
        let bits = out.body().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (bits, comm.faults_survived(), comm.exchange_retries())
    })
    .into_iter()
    .enumerate()
    .map(|(rank, r)| r.unwrap_or_else(|e| panic!("rank {rank} failed under chaos: {e}")))
    .collect();

    for (rank, (reference, (bits, _, _))) in clean.iter().zip(&chaotic).enumerate() {
        assert_eq!(reference, bits, "rank {rank}: overlapped-under-faults deviates");
    }
    let survived: u64 = chaotic.iter().map(|(_, f, _)| *f).sum();
    assert!(survived > 0, "fault plan never fired");
}

#[test]
fn interior_thread_count_never_changes_bits() {
    // Determinism across a spread of worker counts, including counts
    // larger than the core count and odd chunk remainders.
    let grid = ProcessGrid::new(Dims([1, 1, 1, 2]), GLOBAL).unwrap();
    let g = grid.clone();
    let mismatches = run_on_grid(grid, move |mut comm| {
        let op = build_wilson(&mut comm, &g, SEED + 3);
        let mut src = fill_source(&op, SEED + 3);
        op.set_interior_threads(1);
        let mut reference = op.alloc(Parity::Even);
        op.dslash(&mut reference, &mut src, &mut comm, BoundaryMode::Full).unwrap();
        let mut bad = 0usize;
        for t in [2usize, 3, 5, 8] {
            op.set_interior_threads(t);
            assert_eq!(op.interior_threads(), t);
            let mut out = op.alloc(Parity::Even);
            op.dslash(&mut out, &mut src, &mut comm, BoundaryMode::Full).unwrap();
            bad += reference
                .body()
                .iter()
                .zip(out.body())
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count();
        }
        bad
    });
    let total: usize = mismatches.iter().sum();
    assert_eq!(total, 0, "{total} reals vary with interior thread count");
}

#[test]
fn overlap_counters_accumulate_per_apply() {
    let grid = ProcessGrid::new(Dims([1, 1, 1, 2]), GLOBAL).unwrap();
    let g = grid.clone();
    let ok = run_on_grid(grid, move |mut comm| {
        let op = build_wilson(&mut comm, &g, SEED + 4);
        let mut src = fill_source(&op, SEED + 4);
        let mut out = op.alloc(Parity::Even);
        assert_eq!(op.dslash_counters().applies, 0);
        for _ in 0..4 {
            op.dslash(&mut out, &mut src, &mut comm, BoundaryMode::Full).unwrap();
        }
        let c = op.dslash_counters();
        assert_eq!(c.applies, 4);
        assert!(c.total_ns > 0 && c.interior_ns > 0);
        assert!(c.total_ns >= c.interior_ns);
        let eff = c.overlap_efficiency().unwrap();
        assert!((0.0..=1.0).contains(&eff), "efficiency {eff} out of range");
        op.reset_dslash_counters();
        assert_eq!(op.dslash_counters().applies, 0);
        true
    });
    assert!(ok.into_iter().all(|b| b));
}

#[test]
fn geometry_mismatch_is_a_shape_error_not_a_panic() {
    // Field allocated for the wrong subvolume.
    let sub = Arc::new(SubLattice::single(GLOBAL).unwrap());
    let faces = FaceGeometry::new(&sub, WILSON_DEPTH).unwrap();
    let gauge = GaugeField::<f64>::generate(
        sub.clone(),
        &faces,
        GLOBAL,
        &SeedTree::new(SEED + 5),
        GaugeStart::Cold,
    );
    let op = WilsonCloverOp::new(gauge, None, 0.1).unwrap();
    let other = Arc::new(SubLattice::single(Dims([4, 4, 4, 8])).unwrap());
    let other_faces = FaceGeometry::new(&other, WILSON_DEPTH).unwrap();
    let mut src: LatticeField<f64, WilsonSpinor<f64>> =
        LatticeField::zeros(other, &other_faces, Parity::Odd, 0);
    let mut out = op.alloc(Parity::Even);
    let mut comm = SingleComm::new(GLOBAL).unwrap();
    let err = op.dslash(&mut out, &mut src, &mut comm, BoundaryMode::Full).unwrap_err();
    assert!(matches!(err, Error::Shape(_)), "wrong error class: {err:?}");

    // Ghost depth mismatch on a partitioned grid: a depth-3 allocation
    // handed to the depth-1 Wilson stencil.
    let grid = ProcessGrid::new(Dims([1, 1, 1, 2]), GLOBAL).unwrap();
    let g = grid.clone();
    let ok = run_on_grid(grid, move |mut comm| {
        let op = build_wilson(&mut comm, &g, SEED + 5);
        let sub = op.sublattice().clone();
        let deep_faces = FaceGeometry::new(&sub, 3).unwrap();
        let mut src: LatticeField<f64, WilsonSpinor<f64>> =
            LatticeField::zeros(sub, &deep_faces, Parity::Odd, 0);
        let mut out = op.alloc(Parity::Even);
        let err = op.dslash(&mut out, &mut src, &mut comm, BoundaryMode::Full).unwrap_err();
        matches!(err, Error::Shape(_))
    });
    assert!(ok.into_iter().all(|b| b));
}
