//! SPMD solve entry points: one request-driven call per operator runs a
//! whole distributed solve, and both operators run one launch body.
//!
//! [`solve_wilson`] runs a [`WilsonSolve`] request: BiCGstab, or GCR-DD
//! from a start rung of the precision ladder ([`LadderChoice`]), or GCR-DD
//! under a resolved [`TuneParam`]. [`solve_staggered`] runs a
//! [`StaggeredSolve`] request: asqtad multi-shift CG. Both are a [`SolveRequest`], which adds the
//! comms policy, a fault plan per world launch and an optional
//! [`SupervisorConfig`], and both return a [`SolveRun`] of per-rank
//! results. Each operator supplies only its operator build, its start
//! rung and one rung's attempt (space, right-hand side, solve, summary);
//! the rest is shared:
//!
//! * the supervisor loop: a request without a supervisor is one world
//!   launch; with one, a failed world is rebuilt and resumed from the
//!   newest common checkpoint;
//! * the world launch, where a failed rank reports in its own slot;
//! * the ladder climb: when an attempt breaks down or fails to converge
//!   it restarts one rung higher (half → single → double), and the failed
//!   rungs' work is folded into the final record.
//!
//! Multi-shift CG cannot restart (§8.2) and writes no checkpoint, so a
//! supervised staggered relaunch re-solves from zero. See DESIGN.md,
//! "Fault model & recovery".

use crate::problem::{StaggeredProblem, WilsonProblem};
use crate::supervise::{common_generation, CheckpointingMonitor, SupervisorConfig};
use lqcd_comms::{
    run_world_fallible, CommConfig, Communicator, FaultPlan, SharedComm, ThreadedComm,
};
use lqcd_dirac::wilson::SpinorField;
use lqcd_dirac::{OverlapHost, StaggeredOp, WilsonCloverOp};
use lqcd_field::half::Quantize;
use lqcd_lattice::ProcessGrid;
use lqcd_solvers::spaces::{cast_wilson_op, EoWilsonSpace, StaggeredNormalSpace};
use lqcd_solvers::{
    bicgstab, gcr_monitored, multishift_cg, SchwarzMR, SolveMonitor, SolveStats, SolverSpace,
};
use lqcd_su3::WilsonSpinor;
use lqcd_tune::TuneParam;
use lqcd_util::{trace, BreakdownKind, Error, Real, Result};
use std::ops::Deref;
use std::time::{Duration, Instant};

/// Which rung of the precision ladder a solve starts on (the
/// graceful-degradation choice): lower rungs are faster per iteration
/// but may pay fallback restarts. Every request climbs it the same way,
/// and a checkpoint records the rung by its
/// [`rung_code`](crate::supervise::rung_code).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LadderChoice {
    /// f64 operator — the last resort; a breakdown here is final.
    Double,
    /// f32 operator, single-precision Krylov storage.
    Single,
    /// f32 operator with 16-bit quantized Krylov/block storage — the
    /// paper's single-half-half configuration.
    Half,
}

impl LadderChoice {
    /// The next-higher rung, if any.
    pub fn escalate(self) -> Option<LadderChoice> {
        match self {
            LadderChoice::Half => Some(LadderChoice::Single),
            LadderChoice::Single => Some(LadderChoice::Double),
            LadderChoice::Double => None,
        }
    }
}

/// Per-rank outcome of a solve: what the solver measured, the request
/// facts, and the operator's summary `S` of the solution. The summary's
/// fields read through the outcome (`outcome.solution_norm2`).
#[derive(Debug, Clone)]
pub struct SolveOutcome<S> {
    /// Solver statistics, summed over every rung this rank ran.
    pub stats: SolveStats,
    /// The operator's summary of the solution.
    pub summary: S,
    /// Times the solve restarted one rung higher on the precision ladder
    /// after a breakdown or a stall.
    pub precision_fallbacks: usize,
    /// Ghost-exchange retransmissions the communicator performed under
    /// the deadline/retry protocol.
    pub exchange_retries: u64,
    /// Injected faults the communication world absorbed (nonzero only
    /// under a fault plan).
    pub faults_survived: u64,
}

impl<S> Deref for SolveOutcome<S> {
    type Target = S;

    fn deref(&self) -> &S {
        &self.summary
    }
}

/// What a Wilson-clover solve reports of its solution.
#[derive(Debug, Clone)]
pub struct WilsonSummary {
    /// Global solution norm² (identical on all ranks).
    pub solution_norm2: f64,
    /// Checkpoints this rank wrote in the final world launch.
    pub checkpoints_written: usize,
}

/// What a multi-shift solve reports of its solutions. It writes no
/// checkpoint.
#[derive(Debug, Clone)]
pub struct StaggeredSummary {
    /// Iteration at which each shift converged.
    pub converged_at: Vec<usize>,
    /// Global norm² of each shifted solution.
    pub solution_norms: Vec<f64>,
}

/// Per-rank outcome of a Wilson solve.
pub type WilsonSolveOutcome = SolveOutcome<WilsonSummary>;
/// Per-rank outcome of a staggered multi-shift solve (its matvecs are
/// shared across shifts).
pub type StaggeredSolveOutcome = SolveOutcome<StaggeredSummary>;

/// The Krylov method a Wilson request runs on the even-odd
/// preconditioned system.
#[derive(Clone, Copy, Debug)]
enum Krylov {
    /// BiCGstab at f64 (Fig. 8's baseline): no ladder, no checkpoints.
    BiCgStab,
    /// Additive-Schwarz preconditioned flexible GCR (Algorithm 1), with
    /// the interior thread count a tuned request sets.
    GcrDd(Option<usize>),
}

/// What a Wilson request solves with; [`WilsonSolve::bicgstab`],
/// [`WilsonSolve::gcr_dd`] and [`WilsonSolve::tuned`] build it.
#[derive(Clone, Copy, Debug)]
pub struct WilsonMethod(Krylov);

/// One solve request for [`solve_wilson`] ([`WilsonSolve`]) or
/// [`solve_staggered`] ([`StaggeredSolve`]). The operator's constructor
/// sets the method and the ladder rung it starts on.
pub struct SolveRequest<M> {
    method: M,
    start: LadderChoice,
    comm: CommConfig,
    faults: Box<dyn FnMut(usize) -> Option<FaultPlan>>,
    sup: Option<SupervisorConfig>,
}

/// A Wilson-clover request.
pub type WilsonSolve = SolveRequest<WilsonMethod>;
/// An asqtad multi-shift request: multi-shift CG at f64 has no method
/// to choose.
pub type StaggeredSolve = SolveRequest<()>;

impl<M> SolveRequest<M> {
    /// `method` from rung `start`, with default comms, no faults, no
    /// supervisor.
    fn new(method: M, start: LadderChoice) -> Self {
        Self { method, start, comm: Default::default(), faults: Box::new(|_| None), sup: None }
    }

    /// Deadline/retry policy of every world launch.
    pub fn with_comm(mut self, config: CommConfig) -> Self {
        self.comm = config;
        self
    }

    /// `plan_for_launch(i)` supplies the fault plan of world launch `i`
    /// (0-based). This is a closure rather than a single plan because
    /// [`FaultPlan`] counters are per-world: rebuilding from the same
    /// plan would re-fire a `die_rank` rule on every launch and a
    /// supervised run could never recover. Chaos tests inject on launch
    /// 0 and return `None` afterwards.
    pub fn with_faults(
        mut self,
        plan_for_launch: impl FnMut(usize) -> Option<FaultPlan> + 'static,
    ) -> Self {
        self.faults = Box::new(plan_for_launch);
        self
    }

    /// Rebuild a failed world, up to `sup.max_restarts` times. GCR-DD
    /// checkpoints at its restart boundaries, and a relaunch resumes
    /// from the newest checkpoint common to all ranks. Multi-shift CG
    /// cannot restart (§8.2) and writes no checkpoint (nor does
    /// BiCGstab), so for it `common_generation` finds nothing and a
    /// relaunch re-solves from zero.
    pub fn supervised(mut self, sup: SupervisorConfig) -> Self {
        self.sup = Some(sup);
        self
    }
}

impl WilsonSolve {
    /// BiCGstab at f64.
    pub fn bicgstab() -> Self {
        Self::new(WilsonMethod(Krylov::BiCgStab), LadderChoice::Double)
    }

    /// GCR-DD starting on rung `start` of the precision ladder.
    pub fn gcr_dd(start: LadderChoice) -> Self {
        Self::new(WilsonMethod(Krylov::GcrDd(None)), start)
    }

    /// GCR-DD from Double under a resolved tuned configuration: it sets
    /// `param`'s interior thread count on every rung's operator, and
    /// nothing else. The partition scheme is the caller's grid (see
    /// [`tuning::resolve`](crate::tuning::resolve)).
    pub fn tuned(param: TuneParam) -> Self {
        let threads = Some(param.interior_threads);
        Self::new(WilsonMethod(Krylov::GcrDd(threads)), LadderChoice::Double)
    }
}

impl StaggeredSolve {
    /// Multi-shift CG at f64 on every shift of the problem.
    pub fn multishift() -> Self {
        Self::new((), LadderChoice::Double)
    }
}

/// What a solve request reports.
#[derive(Debug)]
pub struct SolveRun<S> {
    /// Final per-rank results (rank order), from the last world launch.
    /// A rank that dies, stalls past the deadline, or breaks down beyond
    /// recovery reports a structured error ([`Error::RankFailure`],
    /// [`Error::Timeout`], [`Error::Breakdown`], …) in its own slot.
    pub outcomes: Vec<Result<SolveOutcome<S>>>,
    /// World launches performed (1 = no supervised restart needed).
    pub attempts: usize,
    /// Per launch: the checkpoint generation it resumed from (`None` =
    /// fresh start).
    pub resumed_generations: Vec<Option<u64>>,
}

/// What a Wilson request reports.
pub type WilsonRun = SolveRun<WilsonSummary>;
/// What a staggered request reports.
pub type StaggeredRun = SolveRun<StaggeredSummary>;

impl<S> SolveRun<S> {
    /// Every rank's outcome, or the first rank's error.
    pub fn into_result(self) -> Result<Vec<SolveOutcome<S>>> {
        self.outcomes.into_iter().collect()
    }
}

/// Run a distributed Wilson-clover solve of `problem` over `grid` as
/// `request` says. It never panics and never hangs: each rank's slot
/// carries its own result, and peers of a failed rank unwind cleanly.
pub fn solve_wilson(problem: &WilsonProblem, grid: ProcessGrid, request: WilsonSolve) -> WilsonRun {
    request.solve(problem, grid)
}

/// Run a distributed multi-shift CG solve of `(M†M + σ_i) x_i = b` over
/// `grid` as `request` says, with the guarantees of [`solve_wilson`].
pub fn solve_staggered(
    problem: &StaggeredProblem,
    grid: ProcessGrid,
    request: StaggeredSolve,
) -> StaggeredRun {
    request.solve(problem, grid)
}

/// The steps a request leaves to its operator. The supervisor loop
/// ([`SolveRequest::solve`]), the world launch and the ladder climb
/// ([`Launch::rank_solve`]) are the same for every operator.
trait Operator: Sized + Sync {
    /// What a request of this operator solves with.
    type Method: Copy + Sync;
    /// A rank's state across the rungs of one launch: its f64 operator,
    /// and what its rungs share.
    type Rank;
    /// The operator's per-rank summary of the solution.
    type Summary: Send;

    /// Build this rank's operator (and, resuming, restore its solution).
    fn build<C: Communicator>(l: &Launch<Self>, comm: &SharedComm<C>) -> Result<Self::Rank>;

    /// One attempt on `rung`. A failed attempt returns the work it did.
    fn attempt<C: Communicator>(
        l: &Launch<Self>,
        rank: &mut Self::Rank,
        rung: LadderChoice,
        comm: SharedComm<C>,
    ) -> AttemptResult<Self::Summary>;
}

impl<M: Copy + Sync> SolveRequest<M> {
    /// The supervisor loop every request runs.
    fn solve<P: Operator<Method = M>>(self, p: &P, grid: ProcessGrid) -> SolveRun<P::Summary> {
        let SolveRequest { method, start, comm, mut faults, sup } = self;
        let sup = sup.as_ref();
        let mut resumed_generations = Vec::new();
        let mut attempt = 0usize;
        // Wall time earlier world launches spent solving (backoff sleeps
        // excluded): the watchdog's wall-clock budget covers the logical
        // solve, so a supervised restart must not reset the clock.
        let mut consumed = Duration::ZERO;
        // Control-plane events (launches, failures, backoffs) land on
        // their own pseudo-rank track; rank threads install their own.
        let _ctl = trace::rank_scope(trace::CONTROL_RANK);
        loop {
            let resumed = sup.and_then(|s| common_generation(&s.dir, grid.num_ranks(), s.keep));
            resumed_generations.push(resumed);
            let event =
                if resumed.is_some() { "world_launch_resumed" } else { "world_launch_fresh" };
            trace::instant(trace::Track::Supervisor, event, attempt as i64);
            let launched = Instant::now();
            let l =
                Launch { p, grid: &grid, method, start, sup, resumed, prior: consumed, launched };
            let world = ThreadedComm::world_with(grid.clone(), comm, faults(attempt));
            let outcomes: Vec<_> = run_world_fallible(world, |c| l.rank_solve(c))
                .into_iter()
                .map(|r| r.and_then(|inner| inner))
                .collect();
            consumed += launched.elapsed();
            let all_ok = outcomes.iter().all(|r| r.is_ok());
            if all_ok || attempt >= sup.map_or(0, |s| s.max_restarts) {
                let event = if all_ok { "supervision_converged" } else { "supervision_exhausted" };
                trace::instant(trace::Track::Supervisor, event, attempt as i64);
                return SolveRun { outcomes, attempts: attempt + 1, resumed_generations };
            }
            attempt += 1;
            trace::instant(trace::Track::Supervisor, "world_failed", attempt as i64);
            let doubling = 1u32 << (attempt - 1).min(16) as u32;
            let delay = sup
                .map_or(Duration::ZERO, |s| s.backoff.saturating_mul(doubling).min(s.backoff_max));
            let _backoff = trace::span_arg(trace::Track::Supervisor, "backoff", attempt as i64);
            std::thread::sleep(delay);
        }
    }
}

/// One world launch of a request: what every rank body needs.
struct Launch<'a, P: Operator> {
    p: &'a P,
    grid: &'a ProcessGrid,
    method: P::Method,
    start: LadderChoice,
    sup: Option<&'a SupervisorConfig>,
    /// Checkpoint generation this launch resumes from.
    resumed: Option<u64>,
    /// Wall time earlier launches of the same logical solve consumed.
    prior: Duration,
    /// When this launch started.
    launched: Instant,
}

/// Outcome of one ladder attempt: the rung's stats and summary, or the
/// error paired with the salvaged partial stats of the failed rung (what
/// the ladder folds into the final record instead of discarding).
type AttemptResult<S> = std::result::Result<(SolveStats, S), (Error, SolveStats)>;

impl<P: Operator> Launch<'_, P> {
    /// The per-rank body: build the operator, then climb the precision
    /// ladder from the start rung until an attempt converges or the
    /// ladder (or the error class) runs out.
    fn rank_solve<C: Communicator>(&self, comm: C) -> Result<SolveOutcome<P::Summary>> {
        // One endpoint, shared across attempts (and across the operator
        // build): the mixed-precision stack multiplexes it.
        let shared = SharedComm::new(comm);
        let mut rank = P::build(self, &shared)?;
        let mut rung = self.start;
        let mut fallbacks = 0usize;
        // Work the failed rungs performed, folded into the final record.
        let mut carried = SolveStats::new();
        loop {
            match P::attempt(self, &mut rank, rung, shared.clone()) {
                Ok((mut stats, summary)) => {
                    stats.absorb(&carried);
                    return Ok(SolveOutcome {
                        stats,
                        summary,
                        precision_fallbacks: fallbacks,
                        exchange_retries: shared.exchange_retries(),
                        faults_survived: shared.faults_survived(),
                    });
                }
                // Numerical breakdowns (NaN from corruption, quantization
                // overflow) and convergence stalls are worth retrying at a
                // higher precision. Communication failures (timeout, dead
                // rank) are not: more precision will not resurrect a peer.
                Err((e @ (Error::Breakdown { .. } | Error::NoConvergence { .. }), partial)) => {
                    let Some(next) = rung.escalate() else { return Err(e) };
                    carried.absorb(&partial);
                    fallbacks += 1;
                    rung = next;
                }
                Err((e, _)) => return Err(e),
            }
        }
    }
}

/// A Wilson rank's state across rungs: the f64 operator every rung casts
/// from, the watchdog/checkpoint monitor, and the solution it resumes
/// from.
struct WilsonRank {
    op64: WilsonCloverOp<f64>,
    monitor: CheckpointingMonitor,
    resume: Option<SpinorField<f64>>,
}

impl Operator for WilsonProblem {
    type Method = WilsonMethod;
    type Rank = WilsonRank;
    type Summary = WilsonSummary;

    fn build<C: Communicator>(l: &Launch<Self>, comm: &SharedComm<C>) -> Result<WilsonRank> {
        let op64 = l.p.build_operator(&mut comm.clone(), l.grid)?;
        let (monitor, resume) =
            CheckpointingMonitor::for_rank(l.p, l.grid, &op64, comm.rank(), l.sup, l.resumed)?;
        Ok(WilsonRank { op64, monitor, resume })
    }

    /// The rung's operator precision and storage, cast from the f64
    /// operator, which later rungs reuse.
    fn attempt<C: Communicator>(
        l: &Launch<Self>,
        rank: &mut WilsonRank,
        rung: LadderChoice,
        comm: SharedComm<C>,
    ) -> AttemptResult<WilsonSummary> {
        let fail = |e| (e, SolveStats::new());
        if rung == LadderChoice::Double {
            let space = EoWilsonSpace::new(cast_wilson_op::<f64>(&rank.op64).map_err(fail)?, comm);
            return wilson_rung(l, space.map_err(fail)?, rung, rank);
        }
        let space = EoWilsonSpace::new(cast_wilson_op::<f32>(&rank.op64).map_err(fail)?, comm);
        wilson_rung(l, space.map_err(fail)?, rung, rank)
    }
}

/// Solve on one Wilson rung's space. Every rank makes the same decisions:
/// the breakdown/convergence tests all hang off *global* reductions, so
/// either every rank succeeds or every rank sees the same recoverable
/// error and climbs the ladder in lockstep. A failed attempt returns the
/// work it *did* perform alongside the error.
fn wilson_rung<R: Real, C: Communicator>(
    l: &Launch<WilsonProblem>,
    space: EoWilsonSpace<R, SharedComm<C>>,
    rung: LadderChoice,
    rank: &mut WilsonRank,
) -> AttemptResult<WilsonSummary>
where
    WilsonSpinor<R>: Quantize<R>,
    CheckpointingMonitor: SolveMonitor<EoWilsonSpace<R, SharedComm<C>>>,
{
    let (p, monitor) = (l.p, &mut rank.monitor);
    // Half: 16-bit Krylov storage and half-precision blocks.
    let half = rung == LadderChoice::Half;
    let mut space = if half { space.with_half_storage() } else { space };
    let b = p.rhs(&space.op);
    let mut x = space.alloc();
    if let Some(x64) = &rank.resume {
        for (xi, &v) in x.body_mut().iter_mut().zip(x64.body()) {
            *xi = R::from_f64(v);
        }
    }
    let result = match l.method.0 {
        Krylov::BiCgStab => bicgstab(&mut space, &mut x, &b, p.tol, p.maxiter),
        Krylov::GcrDd(threads) => {
            let mut params = p.gcr;
            params.quantize_krylov |= half;
            if let Some(t) = threads {
                // Set on the rung's own operator: a cast operator does
                // not inherit the f64 operator's thread count.
                space.op.set_interior_threads(t);
            }
            let precond = SchwarzMR::new(p.mr_steps);
            let mut precond = if half { precond.quantized() } else { precond };
            // The watchdog rides every rung, its wall-clock budget
            // counting from the first launch: a NaN or a stagnating
            // attempt becomes a structured breakdown the ladder can
            // escalate instead of a burned iteration budget.
            monitor.start_rung(rung, l.prior + l.launched.elapsed());
            gcr_monitored(&mut space, &mut precond, &mut x, &b, &params, monitor)
        }
    };
    // What a rung that did not finish salvages: the space counts its
    // matvecs, the monitor saw every completed iteration and restart.
    let partial = |space: &EoWilsonSpace<R, SharedComm<C>>, (iterations, restarts)| SolveStats {
        iterations,
        matvecs: space.matvec_count(),
        precond_matvecs: space.dirichlet_matvecs(),
        restarts,
        ..SolveStats::new()
    };
    let stats = result.map_err(|e| (e, partial(&space, monitor.rung_progress())))?;
    let n2 = space.norm2(&x).map_err(|e| (e, stats))?;
    if !n2.is_finite() {
        // A corrupted final norm is no converged solve: a breakdown the
        // ladder climbs, carrying this rung's work.
        let detail = format!("solution norm² is {n2}");
        let kind = BreakdownKind::NonFinite;
        let e = Error::Breakdown { solver: "solve_wilson", kind, detail };
        return Err((e, partial(&space, (stats.iterations, stats.restarts))));
    }
    Ok((stats, WilsonSummary { solution_norm2: n2, checkpoints_written: monitor.written() }))
}

impl Operator for StaggeredProblem {
    type Method = ();
    type Rank = StaggeredOp<f64>;
    type Summary = StaggeredSummary;

    fn build<C: Communicator>(l: &Launch<Self>, comm: &SharedComm<C>) -> Result<Self::Rank> {
        l.p.build_operator(l.grid, comm.rank())
    }

    /// Multi-shift CG on a copy of the f64 operator. Double is the only
    /// rung, so a failure ends the solve and no partial work is folded.
    fn attempt<C: Communicator>(
        l: &Launch<Self>,
        op: &mut StaggeredOp<f64>,
        _rung: LadderChoice,
        comm: SharedComm<C>,
    ) -> AttemptResult<StaggeredSummary> {
        let fail = |e| (e, SolveStats::new());
        let mut space = StaggeredNormalSpace::new(op.clone(), comm);
        let b = l.p.rhs(&space.op);
        let ms = multishift_cg(&mut space, &l.p.shifts, &b, l.p.tol, l.p.maxiter).map_err(fail)?;
        let solution_norms: Vec<f64> = ms
            .solutions
            .iter()
            .map(|s| space.norm2(s))
            .collect::<Result<_>>()
            .map_err(|e| (e, ms.stats))?;
        if let Some((i, n2)) = solution_norms.iter().enumerate().find(|(_, n)| !n.is_finite()) {
            // As on a Wilson rung: a corrupted final norm is no converged
            // solve, but a breakdown carrying the solve's work.
            let detail = format!("shift {i} solution norm² is {n2}");
            let kind = BreakdownKind::NonFinite;
            let e = Error::Breakdown { solver: "solve_staggered", kind, detail };
            return Err((e, ms.stats));
        }
        Ok((ms.stats, StaggeredSummary { converged_at: ms.converged_at, solution_norms }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqcd_lattice::Dims;

    #[test]
    fn ladder_escalates_half_single_double() {
        assert_eq!(LadderChoice::Half.escalate(), Some(LadderChoice::Single));
        assert_eq!(LadderChoice::Single.escalate(), Some(LadderChoice::Double));
        assert_eq!(LadderChoice::Double.escalate(), None);
    }

    #[test]
    fn bicgstab_and_gcr_dd_agree_on_solution_norm() {
        let p = WilsonProblem::small();
        let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), p.global).unwrap();
        let b = solve_wilson(&p, grid.clone(), WilsonSolve::bicgstab()).into_result().unwrap();
        let g = solve_wilson(&p, grid, WilsonSolve::gcr_dd(LadderChoice::Double))
            .into_result()
            .unwrap();
        assert!(b[0].stats.converged && g[0].stats.converged);
        let rel = (b[0].solution_norm2 - g[0].solution_norm2).abs() / b[0].solution_norm2;
        assert!(rel < 1e-6, "solvers disagree: {rel}");
        // All ranks report identical global norms.
        for r in 1..4 {
            assert!((b[r].solution_norm2 - b[0].solution_norm2).abs() < 1e-9);
        }
        // GCR-DD did block work; BiCGstab did none.
        assert!(g[0].stats.precond_matvecs > 0);
        assert_eq!(b[0].stats.precond_matvecs, 0);
    }

    #[test]
    fn half_precision_gcr_dd_reaches_single_accuracy() {
        let mut p = WilsonProblem::small();
        p.tol = 3e-5;
        p.gcr.tol = 3e-5;
        let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), p.global).unwrap();
        let out =
            solve_wilson(&p, grid, WilsonSolve::gcr_dd(LadderChoice::Half)).into_result().unwrap();
        assert!(out.iter().all(|o| o.stats.converged));
        assert!(out[0].stats.residual <= 3e-5);
    }

    #[test]
    fn multishift_driver_distributed() {
        let p = StaggeredProblem::small();
        let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), p.global).unwrap();
        let out = solve_staggered(&p, grid, StaggeredSolve::multishift()).into_result().unwrap();
        assert!(out[0].stats.converged);
        // Shift ordering: larger shifts converge no later.
        let ca = &out[0].converged_at;
        for w in ca.windows(2) {
            assert!(w[1] <= w[0], "larger shift converged later: {ca:?}");
        }
        // Norm decreases with shift (more regularized system).
        let n = &out[0].solution_norms;
        for w in n.windows(2) {
            assert!(w[1] < w[0], "shifted solutions should shrink: {n:?}");
        }
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use lqcd_lattice::Dims;
    use lqcd_util::Error;

    #[test]
    fn exhausted_iteration_budget_surfaces_no_convergence() {
        let mut p = WilsonProblem::small();
        p.maxiter = 1;
        p.tol = 1e-14;
        let grid = ProcessGrid::new(Dims([1, 1, 1, 2]), p.global).unwrap();
        match solve_wilson(&p, grid, WilsonSolve::bicgstab()).into_result() {
            Err(Error::NoConvergence { solver: "bicgstab", iterations, .. }) => {
                assert_eq!(iterations, 1);
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn gcr_budget_exhaustion_surfaces_too() {
        let mut p = WilsonProblem::small();
        p.gcr.maxiter = 2;
        p.gcr.tol = 1e-14;
        let grid = ProcessGrid::new(Dims([1, 1, 1, 2]), p.global).unwrap();
        assert!(matches!(
            solve_wilson(&p, grid, WilsonSolve::gcr_dd(LadderChoice::Double)).into_result(),
            Err(Error::NoConvergence { solver: "gcr", .. })
        ));
    }

    #[test]
    fn invalid_grid_is_rejected_before_any_solve() {
        let p = WilsonProblem::small();
        // 3 ranks cannot divide an 8-extent dimension evenly.
        assert!(ProcessGrid::new(Dims([1, 1, 1, 3]), p.global).is_err());
        // Odd local extents break checkerboarding.
        assert!(ProcessGrid::new(Dims([1, 1, 1, 4]), Dims([8, 8, 8, 12])).is_err());
    }

    #[test]
    fn thin_partition_rejects_the_naik_stencil() {
        // Local T extent 2 < depth 3: the staggered operator must refuse.
        let mut p = StaggeredProblem::small();
        p.global = Dims([8, 8, 8, 8]);
        let grid = ProcessGrid::new(Dims([1, 1, 1, 4]), p.global).unwrap();
        assert!(matches!(p.build_operator(&grid, 0), Err(Error::Geometry(_))));
    }
}

#[cfg(test)]
mod resilient_tests {
    use super::*;
    use crate::tuning;
    use lqcd_comms::{FaultRule, MsgClass};
    use lqcd_lattice::Dims;
    use lqcd_tune::TunePolicy;
    use std::time::Duration;

    fn small_problem() -> (WilsonProblem, ProcessGrid) {
        let mut p = WilsonProblem::small();
        p.tol = 3e-5;
        p.gcr.tol = 3e-5;
        let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), p.global).unwrap();
        (p, grid)
    }

    /// The fault-free request every comparison below is made against.
    fn fault_free(p: &WilsonProblem, grid: &ProcessGrid) -> Vec<WilsonSolveOutcome> {
        solve_wilson(p, grid.clone(), WilsonSolve::gcr_dd(LadderChoice::Double))
            .into_result()
            .unwrap()
    }

    /// This rank's GCR-DD solve of `p` at precision `R` (half storage and
    /// blocks when `half`), as a rung runs it, widened into `x64`.
    fn gcr_dd_solution<R: Real, C: Communicator>(
        p: &WilsonProblem,
        op64: &WilsonCloverOp<f64>,
        comm: SharedComm<C>,
        half: bool,
        x64: &mut SpinorField<f64>,
    ) -> Result<()>
    where
        WilsonSpinor<R>: Quantize<R>,
    {
        let space = EoWilsonSpace::new(cast_wilson_op::<R>(op64)?, comm)?;
        let mut space = if half { space.with_half_storage() } else { space };
        let b = p.rhs(&space.op);
        let mut x = space.alloc();
        let mut params = p.gcr;
        params.quantize_krylov |= half;
        let precond = SchwarzMR::new(p.mr_steps);
        let mut precond = if half { precond.quantized() } else { precond };
        lqcd_solvers::gcr(&mut space, &mut precond, &mut x, &b, &params)?;
        for (w, &v) in x64.body_mut().iter_mut().zip(x.body()) {
            *w = v.to_f64();
        }
        Ok(())
    }

    /// The solve a request runs, replayed outside the driver, whose
    /// records hold no solution: every rank checks that the solution's
    /// f64 true residual ‖b − M̂x‖/‖b‖ meets `p.tol` and that its norm²
    /// has the pinned bits. `rung` `None` replays BiCGstab.
    fn assert_verified(
        p: &WilsonProblem,
        grid: &ProcessGrid,
        rung: Option<LadderChoice>,
        bits: u64,
    ) {
        let world = ThreadedComm::world_with(grid.clone(), CommConfig::default(), None);
        let out = run_world_fallible(world, |comm| -> Result<(f64, u64)> {
            let comm = SharedComm::new(comm);
            let op64 = p.build_operator(&mut comm.clone(), grid)?;
            let mut check = EoWilsonSpace::new(cast_wilson_op::<f64>(&op64)?, comm.clone())?;
            let b = p.rhs(&check.op);
            let mut x = check.alloc();
            match rung {
                None => bicgstab(&mut check, &mut x, &b, p.tol, p.maxiter).map(|_| ())?,
                Some(LadderChoice::Double) => {
                    gcr_dd_solution::<f64, _>(p, &op64, comm, false, &mut x)?
                }
                Some(r) => {
                    gcr_dd_solution::<f32, _>(p, &op64, comm, r == LadderChoice::Half, &mut x)?
                }
            }
            let mut r = check.alloc();
            check.matvec(&mut r, &mut x)?;
            check.axpy(-1.0, &b, &mut r);
            let res = (check.norm2(&r)? / check.norm2(&b)?).sqrt();
            Ok((res, check.norm2(&x)?.to_bits()))
        });
        for (slot, r) in out.into_iter().enumerate() {
            let (res, got) = r.unwrap().unwrap_or_else(|e| panic!("{rung:?} rank {slot}: {e}"));
            assert_eq!(got, bits, "{rung:?} rank {slot}: replay is not the pinned solve");
            assert!(res <= p.tol, "{rung:?} rank {slot}: true residual {res:e} > {:e}", p.tol);
        }
    }

    /// The exact bits of the solve this module's problem pins: every
    /// way of running it — with or without a supervisor, untuned or
    /// under the baseline tuned configuration — gives these on every
    /// rank, so folding the drivers into one path moved nothing.
    #[test]
    fn one_path_pins_the_solution_bits_on_every_rank() {
        let (p, grid) = small_problem();
        let dir = std::env::temp_dir().join(format!("lqcd-pin-bits-{}", std::process::id()));
        for (rung, bits) in [
            (LadderChoice::Double, 0x40a8ae9c841b9661u64),
            (LadderChoice::Half, 0x40a8ae9c6ee3485e),
        ] {
            let _ = std::fs::remove_dir_all(&dir);
            let plain = solve_wilson(&p, grid.clone(), WilsonSolve::gcr_dd(rung));
            let sup = solve_wilson(
                &p,
                grid.clone(),
                WilsonSolve::gcr_dd(rung).supervised(SupervisorConfig::new(&dir)),
            );
            assert_eq!(sup.attempts, 1);
            for run in [plain, sup] {
                for (slot, r) in run.outcomes.iter().enumerate() {
                    let o = r.as_ref().unwrap_or_else(|e| panic!("{rung:?} rank {slot}: {e}"));
                    assert_eq!(o.solution_norm2.to_bits(), bits, "{rung:?} rank {slot}");
                    assert_eq!(o.stats.iterations, 4, "{rung:?} rank {slot}");
                    assert_eq!(o.stats.matvecs, 9, "{rung:?} rank {slot}");
                    assert_eq!(o.stats.precond_matvecs, 32, "{rung:?} rank {slot}");
                    assert_eq!(o.precision_fallbacks, 0);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert_verified(&p, &grid, Some(LadderChoice::Double), 0x40a8ae9c841b9661);
        assert_verified(&p, &grid, Some(LadderChoice::Half), 0x40a8ae9c6ee3485e);
        // A Fixed baseline configuration on ZT is the untuned solve bit
        // for bit.
        let param = TuneParam::baseline(1);
        let (zt, resolved) =
            tuning::resolve(&TunePolicy::Fixed(param), &tuning::wilson_dslash_key(&p, 4)).unwrap();
        assert_eq!(resolved, Some(param));
        let untuned = fault_free(&p, &zt);
        let tuned = solve_wilson(&p, zt, WilsonSolve::tuned(param)).into_result().unwrap();
        for (a, b) in untuned.iter().zip(&tuned) {
            assert_eq!(a.solution_norm2.to_bits(), 0x40a8ae9c841b9661);
            assert_eq!(b.solution_norm2.to_bits(), a.solution_norm2.to_bits());
        }
    }

    /// The exact bits of the f64 BiCGstab solve (Fig. 8's baseline) of
    /// this module's problem, on every rank.
    #[test]
    fn bicgstab_pins_the_solution_bits_on_every_rank() {
        let (p, grid) = small_problem();
        let run = solve_wilson(&p, grid.clone(), WilsonSolve::bicgstab());
        for (slot, r) in run.outcomes.iter().enumerate() {
            let o = r.as_ref().unwrap_or_else(|e| panic!("rank {slot}: {e}"));
            assert_eq!(o.solution_norm2.to_bits(), 0x40a8ae9a4d2a1d37, "rank {slot}");
            assert_eq!(o.stats.iterations, 5, "rank {slot}");
            assert_eq!(o.stats.matvecs, 11, "rank {slot}");
            assert_eq!(o.stats.precond_matvecs, 0, "rank {slot}");
            assert!(o.stats.converged, "rank {slot}");
        }
        assert_verified(&p, &grid, None, 0x40a8ae9a4d2a1d37);
    }

    #[test]
    fn fault_free_resilient_solve_matches_plain_driver() {
        let (p, grid) = small_problem();
        let plain = fault_free(&p, &grid);
        let res = solve_wilson(
            &p,
            grid,
            WilsonSolve::gcr_dd(LadderChoice::Double).with_comm(CommConfig::default()),
        );
        for (slot, r) in res.outcomes.iter().enumerate() {
            let out = r.as_ref().unwrap_or_else(|e| panic!("rank {slot}: {e}"));
            assert!(out.stats.converged);
            assert_eq!(out.precision_fallbacks, 0);
            let rel = (out.solution_norm2 - plain[slot].solution_norm2).abs()
                / plain[slot].solution_norm2;
            assert!(rel < 1e-10, "resilient driver diverged from plain: {rel}");
        }
    }

    #[test]
    fn corruption_at_half_precision_falls_back_and_converges() {
        let (p, grid) = small_problem();
        // Corrupt the first reduction contribution rank 1 sends: the
        // operator build performs no reductions, so this lands on the
        // half-precision attempt's ‖b‖ — the NaN reaches every rank via
        // the broadcast, GCR reports Breakdown, and the ladder climbs.
        let plan = FaultPlan::new(11).with_rule(
            FaultRule::corrupt_payload().on_rank(1).for_class(MsgClass::Reduce).times(1),
        );
        let res = solve_wilson(
            &p,
            grid,
            WilsonSolve::gcr_dd(LadderChoice::Half)
                .with_comm(CommConfig::resilient())
                .with_faults(move |_| Some(plan.clone())),
        );
        for (slot, r) in res.outcomes.iter().enumerate() {
            let out = r.as_ref().unwrap_or_else(|e| panic!("rank {slot}: {e}"));
            assert!(out.stats.converged);
            assert!(out.stats.residual <= 3e-5);
            assert!(out.precision_fallbacks >= 1, "rank {slot} should have climbed the ladder");
        }
        // The fault plan actually fired somewhere.
        assert!(res.outcomes.iter().flatten().any(|o| o.faults_survived > 0));
    }

    /// The ladder folds every rung's work into the final record exactly
    /// once. Corrupted reductions break the lower rungs; the ladder
    /// climbs to a rung that then runs exactly the solve a request
    /// starting there runs. So the final bits equal that request's, and
    /// every folded count is that request's plus the failed rungs' pinned
    /// work.
    #[test]
    fn ladder_fold_counts_every_rung_exactly_once() {
        let (p, grid) = small_problem();
        let counts = |st: &SolveStats| (st.iterations, st.matvecs, st.precond_matvecs, st.restarts);
        // Logical reductions count on across rungs. Reduction 10 is the
        // Half rung's ‖z‖² in its third iteration: two iterations and
        // two restarts completed, and the third iteration's block solve
        // (8 Dirichlet matvecs) and matvec ran. Reduction 12 is the
        // Single rung's initial ‖r‖², after one matvec and before any
        // iteration — the record must not carry the Half rung's counts
        // over into it.
        for (reductions, reference, bits, failed) in [
            (&[10][..], LadderChoice::Single, 0x40a8ae9c6f2bd74cu64, (2, 6, 24, 2)),
            (&[10, 12][..], LadderChoice::Double, 0x40a8ae9c841b9661, (2, 7, 24, 2)),
        ] {
            let plain = solve_wilson(&p, grid.clone(), WilsonSolve::gcr_dd(reference))
                .into_result()
                .unwrap();
            assert_verified(&p, &grid, Some(reference), bits);
            // Each fault is scoped to rank 1's part of one logical
            // reduction, so every copy — a retransmit included — carries
            // the NaN; a count of wire messages could instead land on a
            // stale retransmit of an earlier reduction, which the root
            // drops.
            let plan = reductions.iter().fold(FaultPlan::new(11), |plan, &seq| {
                plan.with_rule(FaultRule::corrupt_payload().on_rank(1).for_reduction(seq))
            });
            let res = solve_wilson(
                &p,
                grid.clone(),
                WilsonSolve::gcr_dd(LadderChoice::Half)
                    .with_comm(CommConfig::resilient())
                    .with_faults(move |_| Some(plan.clone())),
            )
            .into_result()
            .unwrap();
            for (slot, (out, s)) in res.iter().zip(&plain).enumerate() {
                let case = format!("{reference:?} rank {slot}");
                assert_eq!(s.solution_norm2.to_bits(), bits, "{case}");
                assert!(out.stats.converged, "{case}");
                assert_eq!(out.precision_fallbacks, reductions.len(), "{case}");
                assert_eq!(out.solution_norm2.to_bits(), bits, "{case}");
                let (it, mv, pm, rs) = counts(&s.stats);
                let want = (it + failed.0, mv + failed.1, pm + failed.2, rs + failed.3);
                assert_eq!(counts(&out.stats), want, "{case}");
            }
        }
    }

    /// A non-finite solution norm is a breakdown, not a converged solve.
    /// Reduction 18 is the Half rung's final ‖x‖², after its solve
    /// converged: rank 1's NaN reaches every rank through the broadcast,
    /// so the ladder climbs to Single, which runs exactly the plain
    /// Single request's solve, and the record folds in the Half rung's
    /// whole solve. The same fault one reduction earlier (inside the
    /// solve) or later (after it) reads as it always did.
    #[test]
    fn non_finite_solution_norm_climbs_the_ladder() {
        let (p, grid) = small_problem();
        let plain =
            |rung| solve_wilson(&p, grid.clone(), WilsonSolve::gcr_dd(rung)).into_result().unwrap();
        let (single, half) = (plain(LadderChoice::Single), plain(LadderChoice::Half));
        for (seq, fallbacks, bits) in [
            (17, 1, 0x40a8ae9c6f2bd74cu64),
            (18, 1, 0x40a8ae9c6f2bd74c),
            (19, 0, 0x40a8ae9c6ee3485e),
        ] {
            let plan = FaultPlan::new(11)
                .with_rule(FaultRule::corrupt_payload().on_rank(1).for_reduction(seq));
            let res = solve_wilson(
                &p,
                grid.clone(),
                WilsonSolve::gcr_dd(LadderChoice::Half)
                    .with_comm(CommConfig::resilient())
                    .with_faults(move |_| Some(plan.clone())),
            )
            .into_result()
            .unwrap();
            for (slot, out) in res.iter().enumerate() {
                let case = format!("reduction {seq} rank {slot}");
                assert!(out.stats.converged, "{case}");
                assert_eq!(out.precision_fallbacks, fallbacks, "{case}");
                assert_eq!(out.solution_norm2.to_bits(), bits, "{case}");
                if seq != 18 {
                    continue;
                }
                let (s, h) = (&single[slot], &half[slot]);
                let st = &out.stats;
                assert_eq!(st.iterations, s.stats.iterations + h.stats.iterations, "{case}");
                assert_eq!(st.matvecs, s.stats.matvecs + h.stats.matvecs, "{case}");
                assert_eq!(
                    st.precond_matvecs,
                    s.stats.precond_matvecs + h.stats.precond_matvecs,
                    "{case}"
                );
                assert_eq!(st.restarts, s.stats.restarts + h.stats.restarts, "{case}");
            }
        }
    }

    /// Every ARQ-absorbable fault class — loss, duplication, delay, and
    /// a short stall — leaves the resilient solve converged and in exact
    /// agreement with the plain driver, without touching the ladder.
    #[test]
    fn drop_dup_delay_stall_are_invisible_to_the_resilient_solve() {
        let (p, grid) = small_problem();
        let plain = fault_free(&p, &grid);
        for (name, rule) in [
            ("drop", FaultRule::drop_message().on_rank(1).data_only().times(3)),
            ("dup", FaultRule::duplicate_message().on_rank(2).times(4)),
            ("delay", FaultRule::delay_message(Duration::from_millis(30)).on_rank(0).times(3)),
            ("stall", FaultRule::stall_rank(Duration::from_millis(40)).on_rank(3).times(2)),
        ] {
            let plan = FaultPlan::new(23).with_rule(rule);
            let res = solve_wilson(
                &p,
                grid.clone(),
                WilsonSolve::gcr_dd(LadderChoice::Double)
                    .with_comm(CommConfig::resilient())
                    .with_faults(move |_| Some(plan.clone())),
            );
            let mut survived = 0;
            for (slot, r) in res.outcomes.iter().enumerate() {
                let out = r.as_ref().unwrap_or_else(|e| panic!("[{name}] rank {slot}: {e}"));
                assert!(out.stats.converged, "[{name}] rank {slot}: {:?}", out.stats);
                assert_eq!(out.precision_fallbacks, 0, "[{name}] rank {slot}");
                let rel = (out.solution_norm2 - plain[slot].solution_norm2).abs()
                    / plain[slot].solution_norm2;
                assert!(rel < 1e-10, "[{name}] rank {slot} diverged from plain: {rel}");
                survived = survived.max(out.faults_survived);
            }
            assert!(survived > 0, "[{name}] fault plan never fired");
        }
    }

    /// A rank dying mid-run is reported in its own slot; every peer
    /// unwinds with a structured error within the deadline — never a
    /// hang, never a fabricated result.
    #[test]
    fn rank_death_mid_solve_unwinds_every_rank_within_the_deadline() {
        let (p, grid) = small_problem();
        let config = CommConfig::resilient().with_timeout(Duration::from_secs(2));
        let plan = FaultPlan::new(31).with_rule(FaultRule::die_rank().on_rank(2).after(6).times(1));
        let started = std::time::Instant::now();
        let res = solve_wilson(
            &p,
            grid,
            WilsonSolve::gcr_dd(LadderChoice::Double)
                .with_comm(config)
                .with_faults(move |_| Some(plan.clone())),
        )
        .outcomes;
        assert!(started.elapsed() < Duration::from_secs(30), "death must not hang the solve");
        match &res[2] {
            Err(Error::RankFailure { rank: 2, detail }) => {
                assert!(detail.contains("injected fault"), "detail: {detail}");
            }
            other => panic!("expected rank 2's own death, got {other:?}"),
        }
        for (slot, r) in res.iter().enumerate() {
            if slot == 2 {
                continue;
            }
            match r {
                Err(Error::Timeout { .. } | Error::RankFailure { .. }) => {}
                other => panic!("rank {slot}: expected a structured unwind, got {other:?}"),
            }
        }
    }
}

#[cfg(test)]
mod staggered_tests {
    use super::*;
    use lqcd_comms::FaultRule;
    use lqcd_lattice::Dims;

    /// The fault-free multi-shift solve of `StaggeredProblem::small()` on
    /// 1×1×2×2, on every rank: each shift's solution norm² bits, and the
    /// shared iteration and matvec counts.
    const PIN_NORMS: [u64; 4] =
        [0x40e3f33d073e8508, 0x40c4558f2e24183e, 0x40b1e229ffbc0eca, 0x40943038d12dd77c];
    const PIN_ITERATIONS: usize = 55;

    fn problem() -> (StaggeredProblem, ProcessGrid) {
        let p = StaggeredProblem::small();
        let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), p.global).unwrap();
        (p, grid)
    }

    fn assert_pinned(run: &StaggeredRun, case: &str) {
        for (slot, r) in run.outcomes.iter().enumerate() {
            let o = r.as_ref().unwrap_or_else(|e| panic!("{case} rank {slot}: {e}"));
            let bits: Vec<u64> = o.solution_norms.iter().map(|n| n.to_bits()).collect();
            assert_eq!(bits, PIN_NORMS, "{case} rank {slot}");
            assert_eq!(o.stats.iterations, PIN_ITERATIONS, "{case} rank {slot}");
            assert_eq!(o.stats.matvecs, PIN_ITERATIONS, "{case} rank {slot}");
            assert!(o.stats.converged, "{case} rank {slot}");
            assert_eq!(o.precision_fallbacks, 0, "{case} rank {slot}");
        }
    }

    /// The pinned solve replayed outside the driver, whose records hold
    /// no solution: on every rank, each shift's f64 true residual
    /// ‖b − (A + σ)x_σ‖/‖b‖ meets the tolerance and its norm² has the
    /// pinned bits.
    #[test]
    fn pinned_staggered_solutions_meet_the_tolerance() {
        let (p, grid) = problem();
        let world = ThreadedComm::world_with(grid.clone(), CommConfig::default(), None);
        let out = run_world_fallible(world, |comm| -> Result<Vec<(f64, u64)>> {
            let mut space = StaggeredNormalSpace::new(p.build_operator(&grid, comm.rank())?, comm);
            let b = p.rhs(&space.op);
            let ms = multishift_cg(&mut space, &p.shifts, &b, p.tol, p.maxiter)?;
            let b2 = space.norm2(&b)?;
            let mut out = Vec::new();
            for (&sigma, x) in p.shifts.iter().zip(&ms.solutions) {
                let (mut x, mut r) = (x.clone(), space.alloc());
                space.matvec(&mut r, &mut x)?;
                space.axpy(sigma, &x, &mut r);
                space.axpy(-1.0, &b, &mut r);
                out.push(((space.norm2(&r)? / b2).sqrt(), space.norm2(&x)?.to_bits()));
            }
            Ok(out)
        });
        for (slot, r) in out.into_iter().enumerate() {
            let shifts = r.unwrap().unwrap_or_else(|e| panic!("rank {slot}: {e}"));
            let bits: Vec<u64> = shifts.iter().map(|s| s.1).collect();
            assert_eq!(bits, PIN_NORMS, "rank {slot}: replay is not the pinned solve");
            for (i, (res, _)) in shifts.iter().enumerate() {
                assert!(*res <= p.tol, "rank {slot} shift {i}: true residual {res:e}");
            }
        }
    }

    fn ckpt_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lqcd-staggered-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The multi-shift request gives the pinned bits on every rank, with
    /// or without a supervisor, in one world launch.
    #[test]
    fn staggered_pins_the_solution_bits_on_every_rank() {
        let (p, grid) = problem();
        let plain = solve_staggered(&p, grid.clone(), StaggeredSolve::multishift());
        assert_eq!(plain.attempts, 1);
        assert_pinned(&plain, "plain");
        let dir = ckpt_dir("pin");
        let sup = solve_staggered(
            &p,
            grid,
            StaggeredSolve::multishift().supervised(SupervisorConfig::new(&dir)),
        );
        assert_eq!((sup.attempts, sup.resumed_generations.clone()), (1, vec![None]));
        assert_pinned(&sup, "supervised");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A rank dying mid-solve is reported in its own slot; every peer
    /// unwinds with a structured error within the deadline.
    #[test]
    fn staggered_rank_death_unwinds_every_rank_within_the_deadline() {
        let (p, grid) = problem();
        let config = CommConfig::resilient().with_timeout(Duration::from_secs(2));
        let plan = FaultPlan::new(31).with_rule(FaultRule::die_rank().on_rank(2).after(6).times(1));
        let started = Instant::now();
        let run = solve_staggered(
            &p,
            grid,
            StaggeredSolve::multishift().with_comm(config).with_faults(move |_| Some(plan.clone())),
        );
        assert!(started.elapsed() < Duration::from_secs(30), "death must not hang the solve");
        assert_eq!(run.attempts, 1);
        match &run.outcomes[2] {
            Err(Error::RankFailure { rank: 2, detail }) => {
                assert!(detail.contains("injected fault"), "detail: {detail}");
            }
            other => panic!("expected rank 2's own death, got {other:?}"),
        }
        for (slot, r) in run.outcomes.iter().enumerate().filter(|(slot, _)| *slot != 2) {
            match r {
                Err(Error::Timeout { .. } | Error::RankFailure { .. }) => {}
                other => panic!("rank {slot}: expected a structured unwind, got {other:?}"),
            }
        }
    }

    /// Multi-shift CG writes no checkpoint, so a supervised relaunch
    /// after a death on launch 0 resumes from nothing and re-solves from
    /// zero: the pinned solve.
    #[test]
    fn supervised_staggered_death_re_solves_from_zero() {
        let (p, grid) = problem();
        let dir = ckpt_dir("death");
        let config = CommConfig::resilient().with_timeout(Duration::from_secs(2));
        let plan = FaultPlan::new(31).with_rule(FaultRule::die_rank().on_rank(2).after(6).times(1));
        let run = solve_staggered(
            &p,
            grid,
            StaggeredSolve::multishift()
                .with_comm(config)
                .with_faults(move |launch| (launch == 0).then(|| plan.clone()))
                .supervised(SupervisorConfig::new(&dir)),
        );
        assert_eq!(run.attempts, 2);
        assert_eq!(run.resumed_generations, vec![None, None]);
        assert_pinned(&run, "supervised after death");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Loss, duplication and delay are absorbed by the resilient comms:
    /// the solve converges to the pin.
    #[test]
    fn drop_dup_delay_are_invisible_to_the_staggered_solve() {
        let (p, grid) = problem();
        for (name, rule) in [
            ("drop", FaultRule::drop_message().on_rank(1).data_only().times(3)),
            ("dup", FaultRule::duplicate_message().on_rank(2).times(4)),
            ("delay", FaultRule::delay_message(Duration::from_millis(30)).on_rank(0).times(3)),
        ] {
            let plan = FaultPlan::new(23).with_rule(rule);
            let run = solve_staggered(
                &p,
                grid.clone(),
                StaggeredSolve::multishift()
                    .with_comm(CommConfig::resilient())
                    .with_faults(move |_| Some(plan.clone())),
            );
            let mut survived = 0;
            for (slot, r) in run.outcomes.iter().enumerate() {
                let o = r.as_ref().unwrap_or_else(|e| panic!("[{name}] rank {slot}: {e}"));
                assert!(o.stats.converged, "[{name}] rank {slot}: {:?}", o.stats);
                for (n, &pin) in o.solution_norms.iter().zip(&PIN_NORMS) {
                    let pin = f64::from_bits(pin);
                    let rel = (n - pin).abs() / pin;
                    assert!(rel < 1e-10, "[{name}] rank {slot} diverged from the pin: {rel}");
                }
                survived = survived.max(o.faults_survived);
            }
            assert!(survived > 0, "[{name}] fault plan never fired");
        }
    }
}
