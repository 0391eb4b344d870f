//! The three workloads and what one rank does for each.
//!
//! Every workload runs one process with a 1×1×1×2 grid: two rank
//! threads, one interior thread each. A rank builds its operator from
//! the workload seed (timed, several times), then solves a closed loop of
//! fresh seeded Gaussian sources on it until the time budget is spent —
//! the propagator pattern. Each solution is checked by the f64 verifier.
//! The traced run repeats the loop through the wrappers of [`crate::wrap`]
//! and adds the set-up split and per-layer micro-timings.

use crate::host::thread_cpu_ns;
use crate::micro::{self, Micro};
use crate::verify::{verified, StaggeredVerifier, WilsonVerifier};
use crate::wrap::{
    BenchSpace, CommProbe, CommTotals, CountingComm, SpaceTimes, TimedPrecond, TimedSpace,
};
use lqcd_comms::{Communicator, ThreadedComm};
use lqcd_core::{StaggeredProblem, WilsonProblem};
use lqcd_dirac::staggered::StaggeredField;
use lqcd_dirac::wilson::SpinorField;
use lqcd_dirac::{
    DslashCounters, OverlapHost, StaggeredOp, WilsonCloverOp, STAGGERED_DEPTH, WILSON_DEPTH,
};
use lqcd_field::half::Quantize;
use lqcd_gauge::asqtad::{AsqtadCoeffs, AsqtadLinks};
use lqcd_gauge::clover_build::{build_clover_field, restrict_clover};
use lqcd_gauge::field::GaugeStart;
use lqcd_gauge::GaugeField;
use lqcd_lattice::{Dims, FaceGeometry, ProcessGrid, SubLattice};
use lqcd_perf::cost::OpConfig;
use lqcd_perf::{OperatorKind, Precision, Recon};
use lqcd_solvers::spaces::{cast_wilson_op, EoWilsonSpace, StaggeredNormalSpace};
use lqcd_solvers::{
    bicgstab, gcr, multishift_cg, DirichletMatvec, Preconditioner, SchwarzMR, SolveStats,
};
use lqcd_su3::WilsonSpinor;
use lqcd_util::rng::SeedTree;
use lqcd_util::{Real, Result};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Wilson-clover single-half-half GCR-DD on 16×8×8×16.
    GcrddHalf,
    /// Wilson-clover f64 BiCGstab on 8⁴ (local 8×8×8×4).
    BicgstabHalo,
    /// Asqtad multi-shift CG on 8⁴, four shifts.
    MultishiftAsqtad,
}

/// Every workload, in report order.
pub const ALL: [Workload; 3] =
    [Workload::GcrddHalf, Workload::BicgstabHalo, Workload::MultishiftAsqtad];

/// Process grid of every workload: two ranks along T.
pub const GRID: Dims = Dims([1, 1, 1, 2]);

/// Operator builds per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Solves averaged for the per-layer counts: a fixed, always-solved
/// prefix of the source sequence, so the counts repeat exactly.
pub const COUNT_SOLVES: usize = 10;

/// Untimed solves before the measured loop starts.
const WARMUP_SOLVES: usize = 3;

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name as `BENCHMARK.json` lists it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GcrddHalf => "gcrdd_half",
            Workload::BicgstabHalo => "bicgstab_halo",
            Workload::MultishiftAsqtad => "multishift_asqtad",
        }
    }

    /// Why the workload exists (one line, as `BENCHMARK.json` says it).
    pub fn why(self) -> &'static str {
        match self {
            Workload::GcrddHalf => {
                "production GCR-DD: rank-local Schwarz block solves and half storage do the work, comms little"
            }
            Workload::BicgstabHalo => {
                "Fig. 8 baseline on a half-surface partition: ghost exchange, allreduces and exteriors dominate"
            }
            Workload::MultishiftAsqtad => {
                "asqtad: depth-3 ghosts, per-shift BLAS, and a global fat/long-link set-up that moves setup_s and RSS"
            }
        }
    }

    /// Fewest measured solves per phase, whatever the time budget. The
    /// tail percentile is fixed from it (see [`crate::host::tail_rank`]),
    /// so every run reports the same percentile.
    pub fn min_solves(self) -> usize {
        match self {
            Workload::GcrddHalf => 40,
            Workload::BicgstabHalo | Workload::MultishiftAsqtad => 100,
        }
    }

    /// Global lattice extents.
    pub fn global(self) -> Dims {
        match self {
            Workload::GcrddHalf => Dims([16, 8, 8, 16]),
            Workload::BicgstabHalo | Workload::MultishiftAsqtad => Dims([8, 8, 8, 8]),
        }
    }

    /// Target relative residual (also the verification threshold).
    pub fn tol(self) -> f64 {
        match self {
            Workload::GcrddHalf => 1e-7,
            Workload::BicgstabHalo | Workload::MultishiftAsqtad => 1e-8,
        }
    }

    /// The process grid the workload runs on.
    pub fn grid(self) -> ProcessGrid {
        ProcessGrid::new(GRID, self.global()).expect("workload geometry is valid")
    }

    /// The operator configuration the `lqcd-perf` cost model prices.
    pub fn op_config(self) -> OpConfig {
        let (kind, precision) = match self {
            Workload::GcrddHalf => (OperatorKind::WilsonClover, Precision::Single),
            Workload::BicgstabHalo => (OperatorKind::WilsonClover, Precision::Double),
            Workload::MultishiftAsqtad => (OperatorKind::Asqtad, Precision::Double),
        };
        OpConfig { kind, precision, recon: Recon::None }
    }
}

/// The Wilson-clover problem of a workload, gauge seeded from `seed`.
pub fn wilson_problem(w: Workload, seed: u64) -> WilsonProblem {
    let mut p = WilsonProblem::small();
    p.global = w.global();
    p.seed = SeedTree::new(seed).child("gauge").seed();
    p.tol = w.tol();
    p.gcr.tol = w.tol();
    p.gcr.quantize_krylov = w == Workload::GcrddHalf;
    p
}

/// The staggered problem of a workload, gauge seeded from `seed`.
pub fn staggered_problem(w: Workload, seed: u64) -> StaggeredProblem {
    let mut p = StaggeredProblem::small();
    p.global = w.global();
    p.seed = SeedTree::new(seed).child("gauge").seed();
    p.tol = w.tol();
    p
}

/// The master seed of source `k` of a run seeded with `seed`.
pub fn source_seed(seed: u64, k: u64) -> u64 {
    SeedTree::new(seed).child("source").child(&k.to_string()).seed()
}

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// The workload.
    pub workload: Workload,
    /// Workload seed (gauge configuration and sources).
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Traced run: per-layer split instead of end-to-end metrics.
    pub trace: bool,
}

/// One measured solve, as one rank saw it.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveRecord {
    /// Source index.
    pub source: u64,
    /// Wall time from the solve call to its return.
    pub wall_ns: u64,
    /// This rank thread's on-CPU time over the same interval.
    pub cpu_ns: u64,
    /// Recomputed f64 true residual (the largest over shifts).
    pub residual: f64,
    /// The solve returned and its true residual met the tolerance.
    pub verified: bool,
    /// Solver-reported outer iterations.
    pub iterations: u64,
    /// Solver-reported restarts.
    pub restarts: u64,
    /// Space-call split (zero when unwrapped).
    pub space: SpaceTimes,
    /// Message totals (zero when unwrapped).
    pub comm: CommTotals,
    /// Dslash counter deltas.
    pub dslash: DslashCounters,
}

/// Everything one rank measured.
#[derive(Debug, Default)]
pub struct RankReport {
    /// Wall time of each operator build.
    pub setup_s: Vec<f64>,
    /// Traced run: the set-up split, `(metric, seconds)`.
    pub setup_split: Vec<(&'static str, f64)>,
    /// Solves with tracing off.
    pub untraced: Vec<SolveRecord>,
    /// Solves through the wrappers (traced run only).
    pub traced: Vec<SolveRecord>,
    /// Micro-timings (traced run only).
    pub micro: Option<Micro>,
    /// The rank thread ran pinned to its own CPU.
    pub pinned: bool,
}

/// Run `cfg`'s workload on this rank.
pub fn rank_main(cfg: &RunCfg, comm: ThreadedComm) -> Result<RankReport> {
    let pinned = crate::awake::pin(comm.rank());
    let report = match cfg.workload {
        Workload::GcrddHalf => wilson_rank::<f32>(cfg, comm),
        Workload::BicgstabHalo => wilson_rank::<f64>(cfg, comm),
        Workload::MultishiftAsqtad => staggered_rank(cfg, comm),
    };
    report.map(|r| RankReport { pinned, ..r })
}

/// Solve sources `first, first+1, …` until rank 0's deadline has passed
/// and at least `min` solves are done; rank 0 decides for both ranks.
fn run_phase<S: BenchSpace>(
    space: &mut S,
    first: u64,
    budget: Duration,
    min: usize,
    mut solve: impl FnMut(&mut S, u64) -> Result<SolveRecord>,
) -> Result<Vec<SolveRecord>> {
    let deadline = Instant::now() + budget;
    let rank0 = space.comm().rank() == 0;
    let mut out = Vec::new();
    loop {
        out.push(solve(space, first + out.len() as u64)?);
        let go = rank0 && (out.len() < min || Instant::now() < deadline);
        let mut flag = [if go { 1.0 } else { 0.0 }];
        space.comm().allreduce_max(&mut flag)?;
        if flag[0] == 0.0 {
            return Ok(out);
        }
    }
}

/// Run `solve` between two synchronised clock readings and return its
/// result with a record of the interval (verification fields unset).
fn timed<S: BenchSpace, T>(
    space: &mut S,
    source: u64,
    solve: impl FnOnce(&mut S) -> T,
) -> Result<(T, SolveRecord)> {
    space.comm().barrier()?;
    let (s0, c0, d0) = (space.space_times(), space.comm().comm_totals(), space.dslash_counters());
    let cpu0 = thread_cpu_ns().unwrap_or(0);
    let t0 = Instant::now();
    let out = solve(space);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let cpu_ns = thread_cpu_ns().unwrap_or(0).saturating_sub(cpu0);
    let mut dslash = space.dslash_counters();
    for (a, b) in [
        (&mut dslash.applies, d0.applies),
        (&mut dslash.total_ns, d0.total_ns),
        (&mut dslash.gather_ns, d0.gather_ns),
        (&mut dslash.interior_ns, d0.interior_ns),
        (&mut dslash.exterior_ns, d0.exterior_ns),
        (&mut dslash.exposed_comm_ns, d0.exposed_comm_ns),
    ] {
        *a -= b;
    }
    let rec = SolveRecord {
        source,
        wall_ns,
        cpu_ns,
        space: space.space_times().since(&s0),
        comm: space.comm().comm_totals().since(&c0),
        dslash,
        ..SolveRecord::default()
    };
    Ok((out, rec))
}

fn stats_counts(rec: &mut SolveRecord, stats: &Result<SolveStats>) {
    if let Ok(s) = stats {
        rec.iterations = s.iterations as u64;
        rec.restarts = s.restarts as u64;
    }
}

/// Time `reps` operator builds (barrier to barrier) and keep the last.
fn timed_builds<C: Communicator, T>(
    comm: &mut C,
    reps: usize,
    mut build: impl FnMut(&mut C) -> Result<T>,
) -> Result<(T, Vec<f64>)> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        comm.barrier()?;
        let t = Instant::now();
        let built = build(comm)?;
        comm.barrier()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok((last.expect("at least one build"), times))
}

/// Seconds `f` takes, with its result.
fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The precision a Wilson workload solves in.
pub trait RunReal: Real {
    /// Bring a freshly built f64 operator to run precision. Returns the
    /// run operator and, when it is a copy, the f64 original.
    fn run_op(
        op: WilsonCloverOp<f64>,
    ) -> Result<(WilsonCloverOp<Self>, Option<WilsonCloverOp<f64>>)>;
    /// The f64 operator the verifier uses.
    fn verifier_op(
        run: &WilsonCloverOp<Self>,
        kept: Option<WilsonCloverOp<f64>>,
    ) -> WilsonCloverOp<f64>;
    /// Cast a field to run precision.
    fn from64(src: &SpinorField<f64>, dst: &mut SpinorField<Self>);
    /// Cast a run-precision field to f64.
    fn to64(src: &SpinorField<Self>, dst: &mut SpinorField<f64>);
    /// Whether Krylov storage is 16-bit (single-half-half).
    const HALF: bool;
}

impl RunReal for f64 {
    fn run_op(
        op: WilsonCloverOp<f64>,
    ) -> Result<(WilsonCloverOp<f64>, Option<WilsonCloverOp<f64>>)> {
        Ok((op, None))
    }
    fn verifier_op(
        run: &WilsonCloverOp<f64>,
        kept: Option<WilsonCloverOp<f64>>,
    ) -> WilsonCloverOp<f64> {
        kept.unwrap_or_else(|| run.clone())
    }
    fn from64(src: &SpinorField<f64>, dst: &mut SpinorField<f64>) {
        src.convert_body_into::<f64>(dst);
    }
    fn to64(src: &SpinorField<f64>, dst: &mut SpinorField<f64>) {
        src.convert_body_into::<f64>(dst);
    }
    const HALF: bool = false;
}

impl RunReal for f32 {
    fn run_op(
        op: WilsonCloverOp<f64>,
    ) -> Result<(WilsonCloverOp<f32>, Option<WilsonCloverOp<f64>>)> {
        Ok((cast_wilson_op::<f32>(&op)?, Some(op)))
    }
    fn verifier_op(
        _run: &WilsonCloverOp<f32>,
        kept: Option<WilsonCloverOp<f64>>,
    ) -> WilsonCloverOp<f64> {
        kept.expect("the f32 run keeps its f64 operator")
    }
    fn from64(src: &SpinorField<f64>, dst: &mut SpinorField<f32>) {
        src.convert_body_into::<f32>(dst);
    }
    fn to64(src: &SpinorField<f32>, dst: &mut SpinorField<f64>) {
        src.convert_body_into::<f64>(dst);
    }
    const HALF: bool = true;
}

/// The Wilson set-up, step by step, in the order of
/// `WilsonProblem::build_operator` followed by the precision cast.
fn wilson_setup_split<R: RunReal, C: Communicator>(
    p: &WilsonProblem,
    comm: &mut C,
    grid: &ProcessGrid,
) -> Result<Vec<(&'static str, f64)>>
where
    WilsonSpinor<R>: Quantize<R>,
{
    comm.barrier()?;
    let seed = SeedTree::new(p.seed);
    let sub = Arc::new(SubLattice::for_rank(grid, comm.rank()));
    let faces = FaceGeometry::new(&sub, WILSON_DEPTH)?;
    let start = GaugeStart::Disordered(p.disorder);
    let (mut gauge, generate) =
        secs(|| GaugeField::<f64>::generate(sub.clone(), &faces, p.global, &seed, start));
    let (r, ghosts) = secs(|| gauge.exchange_ghosts(comm, &faces));
    r?;
    let csw = p.csw.expect("the Wilson workloads use a clover term");
    let (clover, clover_s) = secs(|| -> Result<_> {
        let gsub = Arc::new(SubLattice::single(p.global)?);
        let gfaces = FaceGeometry::new(&gsub, WILSON_DEPTH)?;
        let ggauge = GaugeField::<f64>::generate(gsub, &gfaces, p.global, &seed, start);
        let whole = build_clover_field(&ggauge, p.global, csw);
        Ok(restrict_clover(&whole, sub.clone(), &faces))
    });
    let (op, t_inv) = secs(|| -> Result<_> {
        let mut op = WilsonCloverOp::new(gauge, Some(clover?), p.mass)?;
        op.build_t_inverse()?;
        Ok(op)
    });
    let (run, cast) = secs(|| R::run_op(op?));
    drop(run?);
    Ok(vec![
        ("gauge.generate_s", generate),
        ("gauge.ghost_exchange_s", ghosts),
        ("gauge.clover_s", clover_s),
        ("gauge.asqtad_s", 0.0),
        ("dirac.t_inverse_s", t_inv),
        ("solvers.cast_s", cast),
    ])
}

/// Solve one Wilson source and verify it.
#[allow(clippy::too_many_arguments)]
fn wilson_solve<R: RunReal, S, P>(
    space: &mut S,
    precond: Option<&mut P>,
    verifier: &mut WilsonVerifier,
    p: &WilsonProblem,
    seed: u64,
    k: u64,
) -> Result<SolveRecord>
where
    WilsonSpinor<R>: Quantize<R>,
    S: BenchSpace<V = SpinorField<R>>,
    P: Preconditioner<S>,
{
    let pk = WilsonProblem { seed: source_seed(seed, k), ..p.clone() };
    let b64 = pk.rhs::<f64>(&verifier.op);
    let mut b = space.alloc();
    R::from64(&b64, &mut b);
    let mut x = space.alloc();
    let (stats, mut rec) = timed(space, k, |s| match precond {
        Some(precond) => gcr(s, precond, &mut x, &b, &p.gcr),
        None => bicgstab(s, &mut x, &b, p.tol, p.maxiter),
    })?;
    stats_counts(&mut rec, &stats);
    R::to64(&x, &mut verifier.x);
    rec.residual = verifier.residual(space.comm(), &b64)?;
    rec.verified = verified(&stats, rec.residual, p.tol);
    Ok(rec)
}

/// The even-odd Wilson space at run precision (16-bit Krylov storage
/// for single-half-half).
pub fn eo_space<R: RunReal, C: Communicator>(
    op: WilsonCloverOp<R>,
    comm: C,
) -> Result<EoWilsonSpace<R, C>> {
    let s = EoWilsonSpace::new(op, comm)?;
    Ok(if R::HALF { s.with_half_storage() } else { s })
}

fn wilson_rank<R: RunReal>(cfg: &RunCfg, mut comm: ThreadedComm) -> Result<RankReport>
where
    WilsonSpinor<R>: Quantize<R>,
    EoWilsonSpace<R, ThreadedComm>: DirichletMatvec<V = SpinorField<R>>,
    EoWilsonSpace<R, CountingComm<ThreadedComm>>: DirichletMatvec<V = SpinorField<R>>,
{
    let p = wilson_problem(cfg.workload, cfg.seed);
    let grid = comm.grid().clone();
    let mut report = RankReport::default();
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let ((op, kept), setup) =
        timed_builds(&mut comm, reps, |c| R::run_op(p.build_operator(c, &grid)?))?;
    report.setup_s = setup;
    op.set_interior_threads(1);
    let mut verifier = WilsonVerifier::new(R::verifier_op(&op, kept));
    let gcr_dd = cfg.workload == Workload::GcrddHalf;
    let schwarz = || {
        let k = SchwarzMR::new(p.mr_steps);
        if R::HALF {
            k.quantized()
        } else {
            k
        }
    };
    let mut space = eo_space(op, comm)?;
    let mut k = schwarz();
    let mut precond = gcr_dd.then_some(&mut k);
    let mut solve = |s: &mut EoWilsonSpace<R, ThreadedComm>, src| {
        wilson_solve::<R, _, _>(s, precond.as_deref_mut(), &mut verifier, &p, cfg.seed, src)
    };
    let (warm, phase) = budgets(cfg);
    run_phase(&mut space, WARMUP_SOURCE, warm, WARMUP_SOLVES, &mut solve)?;
    report.untraced = run_phase(&mut space, 0, phase, cfg.workload.min_solves(), &mut solve)?;
    if !cfg.trace {
        return Ok(report);
    }

    let mut space = TimedSpace::new(eo_space(space.op, CountingComm::new(space.comm))?);
    let mut k = TimedPrecond(schwarz());
    let mut precond = gcr_dd.then_some(&mut k);
    report.traced = run_phase(&mut space, 0, phase, cfg.workload.min_solves(), |s, src| {
        wilson_solve::<R, _, _>(s, precond.as_deref_mut(), &mut verifier, &p, cfg.seed, src)
    })?;
    let inner = &mut space.inner;
    report.micro = Some(micro::wilson(cfg.workload, &inner.op, &mut inner.comm)?);
    report.setup_split = wilson_setup_split::<R, _>(&p, &mut inner.comm, &grid)?;
    Ok(report)
}

/// First source index of the warm-up solves (disjoint from the measured
/// sources, which start at 0).
const WARMUP_SOURCE: u64 = 1 << 40;

/// `(warm-up, measured phase)` budgets. A traced run splits its budget
/// between an untraced and a traced phase.
fn budgets(cfg: &RunCfg) -> (Duration, Duration) {
    let phase = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    (Duration::from_secs_f64(0.5), Duration::from_secs_f64(phase))
}

/// The asqtad set-up, step by step, in the order of
/// `StaggeredProblem::build_operator`.
fn staggered_setup_split<C: Communicator>(
    p: &StaggeredProblem,
    comm: &mut C,
    grid: &ProcessGrid,
) -> Result<Vec<(&'static str, f64)>> {
    comm.barrier()?;
    let seed = SeedTree::new(p.seed);
    let gsub = Arc::new(SubLattice::single(p.global)?);
    let gfaces = FaceGeometry::new(&gsub, STAGGERED_DEPTH)?;
    let start = GaugeStart::Disordered(p.disorder);
    let (thin, generate) =
        secs(|| GaugeField::<f64>::generate(gsub, &gfaces, p.global, &seed, start));
    let (links, asqtad) = secs(|| AsqtadLinks::compute(&thin, p.global, &AsqtadCoeffs::default()));
    let (op, ghosts) = secs(|| -> Result<_> {
        let sub = Arc::new(SubLattice::for_rank(grid, comm.rank()));
        let faces = FaceGeometry::new(&sub, STAGGERED_DEPTH)?;
        let fat = GaugeField::restrict_from_global(&links.fat, sub.clone(), &faces, p.global);
        let long = GaugeField::restrict_from_global(&links.long, sub, &faces, p.global);
        StaggeredOp::new(fat, long, p.mass)
    });
    drop(op?);
    Ok(vec![
        ("gauge.generate_s", generate),
        ("gauge.ghost_exchange_s", ghosts),
        ("gauge.clover_s", 0.0),
        ("gauge.asqtad_s", asqtad),
        ("dirac.t_inverse_s", 0.0),
        ("solvers.cast_s", 0.0),
    ])
}

/// Solve one multi-shift source and verify every shift.
pub fn staggered_solve<S>(
    space: &mut S,
    verifier: &mut StaggeredVerifier,
    p: &StaggeredProblem,
    seed: u64,
    k: u64,
) -> Result<SolveRecord>
where
    S: BenchSpace<V = StaggeredField<f64>>,
{
    let pk = StaggeredProblem { seed: source_seed(seed, k), ..p.clone() };
    let b = pk.rhs(&verifier.op);
    let (ms, mut rec) = timed(space, k, |s| multishift_cg(s, &p.shifts, &b, p.tol, p.maxiter))?;
    let (stats, solutions) = match ms {
        Ok(m) => (Ok(m.stats), m.solutions),
        Err(e) => (Err(e), Vec::new()),
    };
    stats_counts(&mut rec, &stats);
    rec.residual = if stats.is_ok() {
        verifier.max_residual(space.comm(), &p.shifts, &solutions, &b)?
    } else {
        f64::INFINITY
    };
    rec.verified = verified(&stats, rec.residual, p.tol);
    Ok(rec)
}

fn staggered_rank(cfg: &RunCfg, mut comm: ThreadedComm) -> Result<RankReport> {
    let p = staggered_problem(cfg.workload, cfg.seed);
    let grid = comm.grid().clone();
    let rank = comm.rank();
    let mut report = RankReport::default();
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let (op, setup) = timed_builds(&mut comm, reps, |_| p.build_operator(&grid, rank))?;
    report.setup_s = setup;
    op.set_interior_threads(1);
    let mut verifier = StaggeredVerifier::new(op.clone());

    let mut space = StaggeredNormalSpace::new(op, comm);
    let mut solve = |s: &mut StaggeredNormalSpace<f64, ThreadedComm>, src| {
        staggered_solve(s, &mut verifier, &p, cfg.seed, src)
    };
    let (warm, phase) = budgets(cfg);
    run_phase(&mut space, WARMUP_SOURCE, warm, WARMUP_SOLVES, &mut solve)?;
    report.untraced = run_phase(&mut space, 0, phase, cfg.workload.min_solves(), &mut solve)?;
    if !cfg.trace {
        return Ok(report);
    }

    let mut space =
        TimedSpace::new(StaggeredNormalSpace::new(space.op, CountingComm::new(space.comm)));
    report.traced = run_phase(&mut space, 0, phase, cfg.workload.min_solves(), |s, src| {
        staggered_solve(s, &mut verifier, &p, cfg.seed, src)
    })?;
    let inner = &mut space.inner;
    report.micro = Some(micro::staggered(cfg.workload, &inner.op, &mut inner.comm, &p)?);
    report.setup_split = staggered_setup_split(&p, &mut inner.comm, &grid)?;
    Ok(report)
}
