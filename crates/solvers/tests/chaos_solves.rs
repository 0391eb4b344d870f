//! Chaos suite at the solver level: a distributed Wilson GCR-DD solve
//! under injected comm faults must either converge to the bit-identical
//! fault-free answer (the ARQ layer absorbs the fault) or return a clean
//! structured error (corruption surfaces as a breakdown, loss without
//! retries as a timeout) — never hang, never silently corrupt.

use lqcd_comms::{
    run_world_fallible, CommConfig, Communicator, FaultPlan, FaultRule, MsgClass, ThreadedComm,
};
use lqcd_dirac::{WilsonCloverOp, WILSON_DEPTH};
use lqcd_gauge::clover_build::build_clover_field;
use lqcd_gauge::field::GaugeStart;
use lqcd_gauge::GaugeField;
use lqcd_lattice::{Dims, FaceGeometry, Parity, ProcessGrid, SubLattice};
use lqcd_solvers::spaces::EoWilsonSpace;
use lqcd_solvers::{gcr, GcrParams, SchwarzMR, SolveStats, SolverSpace};
use lqcd_su3::WilsonSpinor;
use lqcd_util::rng::SeedTree;
use lqcd_util::{Error, Result};
use std::sync::Arc;
use std::time::Duration;

const GLOBAL: Dims = Dims([8, 8, 8, 8]);
const SEED: u64 = 424242;

fn grid() -> ProcessGrid {
    ProcessGrid::new(Dims([1, 1, 2, 2]), GLOBAL).unwrap()
}

/// Build this rank's operator; ghost exchange goes over the (possibly
/// faulty) wire, so failures must propagate, not panic.
fn wilson_op_for_rank<C: Communicator>(
    comm: &mut C,
    grid: &ProcessGrid,
) -> Result<WilsonCloverOp<f64>> {
    let seed = SeedTree::new(SEED);
    let sub = Arc::new(SubLattice::for_rank(grid, comm.rank()));
    let faces = FaceGeometry::new(&sub, WILSON_DEPTH)?;
    let mut gauge = GaugeField::<f64>::generate(
        sub.clone(),
        &faces,
        GLOBAL,
        &seed,
        GaugeStart::Disordered(0.25),
    );
    gauge.exchange_ghosts(comm, &faces)?;
    let gsub = Arc::new(SubLattice::single(GLOBAL)?);
    let gfaces = FaceGeometry::new(&gsub, WILSON_DEPTH)?;
    let ggauge =
        GaugeField::<f64>::generate(gsub, &gfaces, GLOBAL, &seed, GaugeStart::Disordered(0.25));
    let gclover = build_clover_field(&ggauge, GLOBAL, 1.0);
    let clover = lqcd_gauge::clover_build::restrict_clover(&gclover, sub, &faces);
    WilsonCloverOp::new(gauge, Some(clover), 0.15)
}

/// One rank's GCR-DD solve; returns (stats, global ‖x‖², faults seen).
fn gcr_dd_solve<C: Communicator>(
    mut comm: C,
    grid: &ProcessGrid,
) -> Result<(SolveStats, f64, u64)> {
    let op = wilson_op_for_rank(&mut comm, grid)?;
    let sub = op.sublattice().clone();
    let mut space = EoWilsonSpace::new(op, comm)?;
    let seedb = SeedTree::new(SEED).child("rhs");
    let mut b = space.alloc();
    let subc = sub.clone();
    b.fill(|idx| {
        let c = subc.cb_coords(Parity::Odd, idx);
        let mut gc = c;
        for d in 0..4 {
            gc[d] = c[d] + subc.origin[d];
        }
        WilsonSpinor::random(&mut seedb.stream(GLOBAL.index(gc) as u64))
    });
    let mut x = space.alloc();
    let params =
        GcrParams { tol: 1e-8, kmax: 16, delta: 0.05, maxiter: 4000, quantize_krylov: false };
    let stats = gcr(&mut space, &mut SchwarzMR::new(6), &mut x, &b, &params)?;
    let norm = space.norm2(&x)?;
    Ok((stats, norm, space.comm.faults_survived()))
}

fn run_solves(
    config: CommConfig,
    plan: Option<FaultPlan>,
) -> Vec<Result<Result<(SolveStats, f64, u64)>>> {
    let g = grid();
    let g2 = g.clone();
    let comms = ThreadedComm::world_with(g.clone(), config, plan);
    run_world_fallible(comms, move |c| gcr_dd_solve(c, &g2))
}

/// Drop, duplicate, delay, and short stalls are absorbed by the ARQ
/// protocol: the solve converges to the *bit-identical* solution the
/// fault-free world produces.
#[test]
fn arq_absorbed_faults_leave_the_solve_bit_identical() {
    let clean: Vec<_> = run_solves(CommConfig::resilient(), None)
        .into_iter()
        .map(|r| r.unwrap().unwrap())
        .collect();
    assert!(clean.iter().all(|(s, _, _)| s.converged));
    for (name, rule) in [
        ("drop", FaultRule::drop_message().on_rank(1).data_only().times(3)),
        ("dup", FaultRule::duplicate_message().on_rank(2).times(4)),
        ("delay", FaultRule::delay_message(Duration::from_millis(30)).on_rank(0).times(3)),
        ("stall", FaultRule::stall_rank(Duration::from_millis(40)).on_rank(3).times(2)),
    ] {
        let chaotic = run_solves(CommConfig::resilient(), Some(FaultPlan::new(97).with_rule(rule)));
        let mut survived = 0;
        for (slot, r) in chaotic.into_iter().enumerate() {
            let (stats, norm, faults) =
                r.unwrap().unwrap_or_else(|e| panic!("[{name}] rank {slot}: {e}"));
            assert!(stats.converged, "[{name}] rank {slot}: {stats:?}");
            assert_eq!(stats.iterations, clean[slot].0.iterations, "[{name}] rank {slot}");
            assert_eq!(
                norm.to_bits(),
                clean[slot].1.to_bits(),
                "[{name}] rank {slot}: solution differs under faults"
            );
            survived = survived.max(faults);
        }
        assert!(survived > 0, "[{name}] fault plan never fired");
    }
}

/// A NaN injected into a reduction is *not* silently absorbed: every
/// rank reports a structured breakdown (the NaN reaches all ranks via
/// the reduce broadcast), and nobody hangs.
#[test]
fn corrupted_reduction_is_a_collective_breakdown_not_a_hang() {
    // The operator build performs no reductions, so this fires on the
    // solver's first global norm.
    let plan = FaultPlan::new(29)
        .with_rule(FaultRule::corrupt_payload().on_rank(1).for_class(MsgClass::Reduce).times(1));
    let started = std::time::Instant::now();
    let results = run_solves(CommConfig::resilient(), Some(plan));
    assert!(started.elapsed() < Duration::from_secs(30));
    for (slot, r) in results.iter().enumerate() {
        match r {
            Ok(Err(Error::Breakdown { .. })) => {}
            other => panic!("rank {slot}: expected a structured breakdown, got {other:?}"),
        }
    }
}

/// With retries disabled, sustained message loss surfaces as structured
/// timeouts on every rank within the deadline — the pre-deadline
/// behaviour was an unbounded hang.
#[test]
fn message_loss_without_retries_times_out_structurally() {
    let config = CommConfig::default().with_timeout(Duration::from_millis(400)).with_retries(0);
    let plan =
        FaultPlan::new(53).with_rule(FaultRule::drop_message().on_rank(1).data_only().times(1_000));
    let started = std::time::Instant::now();
    let results = run_solves(config, Some(plan));
    assert!(started.elapsed() < Duration::from_secs(30), "loss must not hang the solve");
    for (slot, r) in results.iter().enumerate() {
        match r {
            Ok(Err(Error::Timeout { .. } | Error::RankFailure { .. })) => {}
            other => panic!("rank {slot}: expected a structured unwind, got {other:?}"),
        }
    }
}
