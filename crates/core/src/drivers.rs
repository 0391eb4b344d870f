//! SPMD solve entry points: one request-driven call per operator runs a
//! whole distributed solve.
//!
//! [`solve_wilson`] is the one Wilson-clover path. A [`WilsonSolve`]
//! request names the method (BiCGstab, or GCR-DD from a start rung of
//! the precision ladder), the comms policy, a fault plan per world
//! launch, an optional [`SupervisorConfig`] and an optional resolved
//! [`TuneParam`]. Every GCR-DD request climbs the graceful-degradation
//! ladder: when an attempt breaks down or fails to converge it restarts
//! one rung higher (half → single → double) — the recovery story for
//! corrupted data or an overly aggressive precision choice. A request
//! without a supervisor is one world launch with no checkpoints; with
//! one, a failed world is rebuilt and resumed from the newest common
//! checkpoint. See DESIGN.md, "Fault model & recovery".
//!
//! [`solve_staggered`] is the asqtad multi-shift entry point.

use crate::problem::{StaggeredProblem, WilsonProblem};
use crate::supervise::{common_generation, CheckpointingMonitor, SupervisorConfig};
use lqcd_comms::{
    run_on_grid, run_world_fallible, CommConfig, Communicator, FaultPlan, SharedComm, ThreadedComm,
};
use lqcd_dirac::wilson::SpinorField;
use lqcd_dirac::{OverlapHost, WilsonCloverOp};
use lqcd_field::half::Quantize;
use lqcd_lattice::ProcessGrid;
use lqcd_solvers::spaces::{cast_wilson_op, EoWilsonSpace, StaggeredNormalSpace};
use lqcd_solvers::{
    bicgstab, gcr_monitored, multishift_cg, SchwarzMR, SolveMonitor, SolveStats, SolverSpace,
};
use lqcd_su3::WilsonSpinor;
use lqcd_tune::{LadderChoice, TuneParam};
use lqcd_util::{trace, BreakdownKind, Error, Real, Result};
use std::time::{Duration, Instant};

/// Per-rank outcome of a Wilson solve.
#[derive(Debug, Clone)]
pub struct WilsonSolveOutcome {
    /// Solver statistics.
    pub stats: SolveStats,
    /// Global solution norm² (identical on all ranks).
    pub solution_norm2: f64,
    /// Communicating matvecs this rank performed.
    pub matvecs: usize,
    /// Dirichlet (Schwarz-block) matvecs this rank performed.
    pub dirichlet_matvecs: usize,
    /// Times the solve restarted one rung higher on the precision ladder
    /// after a breakdown or a stall.
    pub precision_fallbacks: usize,
    /// Ghost-exchange retransmissions the communicator performed under
    /// the deadline/retry protocol.
    pub exchange_retries: u64,
    /// Injected faults the communication world absorbed (nonzero only
    /// under a fault plan).
    pub faults_survived: u64,
    /// Checkpoints this rank wrote in the final world launch.
    pub checkpoints_written: usize,
}

/// The Krylov method a Wilson request runs on the even-odd
/// preconditioned system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WilsonMethod {
    /// BiCGstab at f64 (Fig. 8's baseline): no ladder, no checkpoints.
    BiCgStab,
    /// Additive-Schwarz preconditioned flexible GCR (Algorithm 1),
    /// climbing the precision ladder from the given rung.
    GcrDd(LadderChoice),
}

/// One Wilson-clover solve request for [`solve_wilson`].
pub struct WilsonSolve {
    method: WilsonMethod,
    comm: CommConfig,
    faults: Box<dyn FnMut(usize) -> Option<FaultPlan>>,
    supervisor: Option<SupervisorConfig>,
    tune: Option<TuneParam>,
}

impl WilsonSolve {
    /// `method` with default comms, no faults, no supervisor, untuned.
    fn new(method: WilsonMethod) -> Self {
        WilsonSolve {
            method,
            comm: CommConfig::default(),
            faults: Box::new(|_| None),
            supervisor: None,
            tune: None,
        }
    }

    /// BiCGstab at f64.
    pub fn bicgstab() -> Self {
        Self::new(WilsonMethod::BiCgStab)
    }

    /// GCR-DD starting on rung `start` of the precision ladder.
    pub fn gcr_dd(start: LadderChoice) -> Self {
        Self::new(WilsonMethod::GcrDd(start))
    }

    /// GCR-DD under a resolved tuned configuration: it starts on
    /// `param.ladder`, applies `param`'s interior thread count to every
    /// rung's operator and its `mr_steps` and `n_kv` (GCR `kmax`) to the
    /// problem. The partition scheme is the caller's grid (see
    /// [`tuning::resolve`](crate::tuning::resolve)).
    pub fn tuned(param: TuneParam) -> Self {
        WilsonSolve { tune: Some(param), ..Self::gcr_dd(param.ladder) }
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

    /// Checkpoint at GCR restart boundaries and rebuild a failed world,
    /// resuming from the newest checkpoint common to all ranks.
    pub fn supervised(mut self, sup: SupervisorConfig) -> Self {
        self.supervisor = Some(sup);
        self
    }
}

/// What a Wilson solve request reports.
#[derive(Debug)]
pub struct WilsonRun {
    /// Final per-rank results (rank order), from the last world launch.
    /// A rank that dies, stalls past the deadline, or breaks down beyond
    /// recovery reports a structured error ([`Error::RankFailure`],
    /// [`Error::Timeout`], [`Error::Breakdown`], …) in its own slot.
    pub outcomes: Vec<Result<WilsonSolveOutcome>>,
    /// World launches performed (1 = no supervised restart needed).
    pub attempts: usize,
    /// Per launch: the checkpoint generation it resumed from (`None` =
    /// fresh start).
    pub resumed_generations: Vec<Option<u64>>,
}

impl WilsonRun {
    /// Every rank's outcome, or the first rank's error.
    pub fn into_result(self) -> Result<Vec<WilsonSolveOutcome>> {
        self.outcomes.into_iter().collect()
    }
}

/// Run a distributed Wilson-clover solve of `problem` over `grid` as
/// `request` says. It never panics and never hangs: each rank's slot
/// carries its own result, and peers of a failed rank unwind cleanly.
pub fn solve_wilson(problem: &WilsonProblem, grid: ProcessGrid, request: WilsonSolve) -> WilsonRun {
    let WilsonSolve { method, comm, mut faults, supervisor, tune } = request;
    let sup = supervisor.as_ref();
    let mut p = problem.clone();
    if let Some(t) = &tune {
        p.mr_steps = t.mr_steps;
        p.gcr.kmax = t.n_kv;
    }
    let mut resumed_generations = Vec::new();
    let mut attempt = 0usize;
    // Wall time earlier world launches spent solving (backoff sleeps
    // excluded): the watchdog's wall-clock budget covers the logical
    // solve, so a supervised restart must not reset the clock.
    let mut consumed = Duration::ZERO;
    // Control-plane events (launches, failures, backoffs) land on their
    // own pseudo-rank track; rank threads install their own scopes.
    let _ctl = trace::rank_scope(trace::CONTROL_RANK);
    loop {
        let resumed = sup.and_then(|s| common_generation(&s.dir, grid.num_ranks(), s.keep));
        resumed_generations.push(resumed);
        trace::instant(
            trace::Track::Supervisor,
            if resumed.is_some() { "world_launch_resumed" } else { "world_launch_fresh" },
            attempt as i64,
        );
        let launch = Launch { p: &p, grid: &grid, method, sup, tune, resumed, prior: consumed };
        let launched = Instant::now();
        let outcomes = launch.run(ThreadedComm::world_with(grid.clone(), comm, faults(attempt)));
        consumed += launched.elapsed();
        let all_ok = outcomes.iter().all(|r| r.is_ok());
        if all_ok || attempt >= sup.map_or(0, |s| s.max_restarts) {
            trace::instant(
                trace::Track::Supervisor,
                if all_ok { "supervision_converged" } else { "supervision_exhausted" },
                attempt as i64,
            );
            return WilsonRun { outcomes, attempts: attempt + 1, resumed_generations };
        }
        attempt += 1;
        trace::instant(trace::Track::Supervisor, "world_failed", attempt as i64);
        let doubling = 1u32 << (attempt - 1).min(16) as u32;
        let delay =
            sup.map_or(Duration::ZERO, |s| s.backoff.saturating_mul(doubling).min(s.backoff_max));
        let _backoff = trace::span_arg(trace::Track::Supervisor, "backoff", attempt as i64);
        std::thread::sleep(delay);
    }
}

/// One world launch of a Wilson request: what every rank body needs.
struct Launch<'a> {
    p: &'a WilsonProblem,
    grid: &'a ProcessGrid,
    method: WilsonMethod,
    sup: Option<&'a SupervisorConfig>,
    tune: Option<TuneParam>,
    /// Checkpoint generation this launch resumes from.
    resumed: Option<u64>,
    /// Wall time earlier launches of the same logical solve consumed.
    prior: Duration,
}

/// Outcome of one ladder attempt: success, or the error paired with the
/// salvaged partial stats of the failed rung (what the ladder folds into
/// the final record instead of discarding).
type AttemptResult = std::result::Result<WilsonSolveOutcome, (Error, SolveStats)>;

/// Errors worth retrying at a higher precision: numerical breakdowns
/// (NaN from corruption, quantization overflow) and convergence stalls.
/// Communication failures (timeout, dead rank) are not — more precision
/// will not resurrect a peer.
fn recoverable(e: &Error) -> bool {
    matches!(e, Error::Breakdown { .. } | Error::NoConvergence { .. })
}

impl Launch<'_> {
    fn run(&self, comms: Vec<ThreadedComm>) -> Vec<Result<WilsonSolveOutcome>> {
        run_world_fallible(comms, |comm| self.rank_solve(comm))
            .into_iter()
            .map(|r| r.and_then(|inner| inner))
            .collect()
    }

    /// The per-rank body: build the operator, restore the common
    /// checkpoint (when resuming), then climb the precision ladder from
    /// the start rung until an attempt converges or the ladder (or the
    /// error class) runs out.
    fn rank_solve<C: Communicator>(&self, comm: C) -> Result<WilsonSolveOutcome> {
        let started = Instant::now();
        // One endpoint, shared across attempts (and across the operator
        // build): the mixed-precision stack multiplexes it.
        let shared = SharedComm::new(comm);
        let op64 = self.p.build_operator(&mut shared.clone(), self.grid)?;
        let (mut monitor, resume) = CheckpointingMonitor::for_rank(
            self.p,
            self.grid,
            &op64,
            shared.rank(),
            self.sup,
            self.resumed,
        )?;
        let mut rung = match self.method {
            WilsonMethod::BiCgStab => LadderChoice::Double,
            WilsonMethod::GcrDd(start) => start,
        };
        let mut fallbacks = 0usize;
        // Work the failed rungs performed, folded into the final record.
        let mut carried = SolveStats::new();
        loop {
            let prior = self.prior + started.elapsed();
            match self.attempt(rung, prior, &op64, shared.clone(), &mut monitor, resume.as_ref()) {
                Ok(mut out) => {
                    out.stats.absorb(&carried);
                    out.precision_fallbacks = fallbacks;
                    out.exchange_retries = shared.exchange_retries();
                    out.faults_survived = shared.faults_survived();
                    out.checkpoints_written = monitor.written();
                    return Ok(out);
                }
                Err((e, partial)) if recoverable(&e) => match rung.escalate() {
                    Some(next) => {
                        carried.absorb(&partial);
                        fallbacks += 1;
                        rung = next;
                    }
                    None => return Err(e),
                },
                Err((e, _)) => return Err(e),
            }
        }
    }

    /// One attempt on `rung`: the rung's operator precision and storage,
    /// cast from the f64 operator, which later rungs reuse.
    fn attempt<C: Communicator>(
        &self,
        rung: LadderChoice,
        prior: Duration,
        op64: &WilsonCloverOp<f64>,
        comm: SharedComm<C>,
        monitor: &mut CheckpointingMonitor,
        resume: Option<&SpinorField<f64>>,
    ) -> AttemptResult {
        let fail = |e| (e, SolveStats::new());
        match rung {
            LadderChoice::Double => {
                let space = EoWilsonSpace::new(cast_wilson_op::<f64>(op64).map_err(fail)?, comm);
                self.solve_on(space.map_err(fail)?, rung, prior, monitor, resume)
            }
            LadderChoice::Single | LadderChoice::Half => {
                let op = cast_wilson_op::<f32>(op64).map_err(fail)?;
                let space = EoWilsonSpace::new(op, comm).map_err(fail)?;
                let space =
                    if rung == LadderChoice::Half { space.with_half_storage() } else { space };
                self.solve_on(space, rung, prior, monitor, resume)
            }
        }
    }

    /// Solve on one rung's space. Every rank makes the same decisions:
    /// the breakdown/convergence tests all hang off *global* reductions,
    /// so either every rank succeeds or every rank sees the same
    /// recoverable error and climbs the ladder in lockstep. A failed
    /// attempt returns the work it *did* perform alongside the error.
    fn solve_on<R: Real, C: Communicator>(
        &self,
        mut space: EoWilsonSpace<R, SharedComm<C>>,
        rung: LadderChoice,
        prior: Duration,
        monitor: &mut CheckpointingMonitor,
        resume: Option<&SpinorField<f64>>,
    ) -> AttemptResult
    where
        WilsonSpinor<R>: Quantize<R>,
        CheckpointingMonitor: SolveMonitor<EoWilsonSpace<R, SharedComm<C>>>,
    {
        // Set on the rung's own operator: a cast operator does not
        // inherit the f64 operator's thread count.
        if let Some(t) = &self.tune {
            space.op.set_interior_threads(t.interior_threads);
        }
        let b = self.p.rhs(&space.op);
        let mut x = space.alloc();
        if let Some(x64) = resume {
            for (xi, &v) in x.body_mut().iter_mut().zip(x64.body()) {
                *xi = R::from_f64(v);
            }
        }
        let result = match self.method {
            WilsonMethod::BiCgStab => bicgstab(&mut space, &mut x, &b, self.p.tol, self.p.maxiter),
            WilsonMethod::GcrDd(_) => {
                // Half: 16-bit Krylov storage and half-precision blocks.
                let half = rung == LadderChoice::Half;
                let mut params = self.p.gcr;
                params.quantize_krylov |= half;
                let precond = SchwarzMR::new(self.p.mr_steps);
                let mut precond = if half { precond.quantized() } else { precond };
                // The watchdog rides every rung: a NaN or a stagnating
                // attempt becomes a structured breakdown the ladder can
                // escalate instead of a burned iteration budget.
                monitor.start_rung(rung, prior);
                gcr_monitored(&mut space, &mut precond, &mut x, &b, &params, monitor)
            }
        };
        match result {
            Ok(stats) => {
                let n2 = space.norm2(&x).map_err(|e| (e, stats))?;
                if !n2.is_finite() {
                    // A corrupted final norm is no converged solve: a
                    // breakdown the ladder climbs, carrying this rung's
                    // work.
                    let partial = SolveStats {
                        iterations: stats.iterations,
                        matvecs: space.matvec_count(),
                        precond_matvecs: space.dirichlet_matvecs(),
                        restarts: stats.restarts,
                        ..SolveStats::new()
                    };
                    let detail = format!("solution norm² is {n2}");
                    let kind = BreakdownKind::NonFinite;
                    return Err((
                        Error::Breakdown { solver: "solve_wilson", kind, detail },
                        partial,
                    ));
                }
                Ok(WilsonSolveOutcome {
                    stats,
                    solution_norm2: n2,
                    matvecs: space.matvec_count(),
                    dirichlet_matvecs: space.dirichlet_matvecs(),
                    // Request-level facts: `rank_solve` sets them.
                    precision_fallbacks: 0,
                    exchange_retries: 0,
                    faults_survived: 0,
                    checkpoints_written: 0,
                })
            }
            Err(e) => {
                // Salvage what the failed rung actually did: the space
                // counts its matvecs, the monitor saw every completed
                // iteration and restart.
                let (iterations, restarts) = monitor.rung_progress();
                let partial = SolveStats {
                    iterations,
                    matvecs: space.matvec_count(),
                    precond_matvecs: space.dirichlet_matvecs(),
                    restarts,
                    ..SolveStats::new()
                };
                Err((e, partial))
            }
        }
    }
}

/// Per-rank outcome of a staggered multi-shift solve.
#[derive(Debug, Clone)]
pub struct StaggeredSolveOutcome {
    /// Solver statistics (matvecs shared across shifts).
    pub stats: SolveStats,
    /// Iteration at which each shift converged.
    pub converged_at: Vec<usize>,
    /// Global norm² of each shifted solution.
    pub solution_norms: Vec<f64>,
}

/// Run a distributed multi-shift CG solve of `(M†M + σ_i) x_i = b` over
/// `grid`. A resolved `tune` applies its interior thread count;
/// multi-shift CG has no Schwarz/GCR knobs.
pub fn solve_staggered(
    problem: &StaggeredProblem,
    grid: ProcessGrid,
    tune: Option<TuneParam>,
) -> Result<Vec<StaggeredSolveOutcome>> {
    let g = grid.clone();
    let results = run_on_grid(grid, |comm| -> Result<StaggeredSolveOutcome> {
        let op = problem.build_operator(&g, comm.rank())?;
        if let Some(t) = &tune {
            op.set_interior_threads(t.interior_threads);
        }
        let mut space = StaggeredNormalSpace::new(op, comm);
        let b = problem.rhs(&space.op);
        let ms = multishift_cg(&mut space, &problem.shifts, &b, problem.tol, problem.maxiter)?;
        let solution_norms = ms.solutions.iter().map(|s| space.norm2(s)).collect::<Result<_>>()?;
        Ok(StaggeredSolveOutcome { stats: ms.stats, converged_at: ms.converged_at, solution_norms })
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqcd_lattice::Dims;

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
        assert!(g[0].dirichlet_matvecs > 0);
        assert_eq!(b[0].dirichlet_matvecs, 0);
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
        let out = solve_staggered(&p, grid, None).unwrap();
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
            (LadderChoice::Half, 0x40a8ae9c6ee348d2),
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
                    assert_eq!(o.matvecs, 9, "{rung:?} rank {slot}");
                    assert_eq!(o.dirichlet_matvecs, 32, "{rung:?} rank {slot}");
                    assert_eq!(o.precision_fallbacks, 0);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        // A Fixed baseline configuration on ZT is the untuned solve bit
        // for bit.
        let param = TuneParam::baseline(1);
        let (zt, resolved) =
            tuning::resolve(&TunePolicy::Fixed(param), &tuning::wilson_solver_key(&p, 4)).unwrap();
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
        let run = solve_wilson(&p, grid, WilsonSolve::bicgstab());
        for (slot, r) in run.outcomes.iter().enumerate() {
            let o = r.as_ref().unwrap_or_else(|e| panic!("rank {slot}: {e}"));
            assert_eq!(o.solution_norm2.to_bits(), 0x40a8ae9a4d2a1d2c, "rank {slot}");
            assert_eq!(o.stats.iterations, 5, "rank {slot}");
            assert_eq!(o.matvecs, 11, "rank {slot}");
            assert_eq!(o.dirichlet_matvecs, 0, "rank {slot}");
            assert!(o.stats.converged, "rank {slot}");
        }
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
    /// starting there runs. So the final rung's own counts and bits equal
    /// that request's, and every folded count is that request's plus the
    /// failed rungs' pinned work.
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
            (&[10][..], LadderChoice::Single, 0x40a8ae9c6f2bd7b7u64, (2, 6, 24, 2)),
            (&[10, 12][..], LadderChoice::Double, 0x40a8ae9c841b9661, (2, 7, 24, 2)),
        ] {
            let plain = solve_wilson(&p, grid.clone(), WilsonSolve::gcr_dd(reference))
                .into_result()
                .unwrap();
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
                assert_eq!(out.matvecs, s.matvecs, "{case}");
                assert_eq!(out.dirichlet_matvecs, s.dirichlet_matvecs, "{case}");
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
            (17, 1, 0x40a8ae9c6f2bd7b7u64),
            (18, 1, 0x40a8ae9c6f2bd7b7),
            (19, 0, 0x40a8ae9c6ee348d2),
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
                assert_eq!(out.matvecs, s.matvecs, "{case}");
                assert_eq!(out.dirichlet_matvecs, s.dirichlet_matvecs, "{case}");
                let st = &out.stats;
                assert_eq!(st.iterations, s.stats.iterations + h.stats.iterations, "{case}");
                assert_eq!(st.matvecs, s.stats.matvecs + h.matvecs, "{case}");
                assert_eq!(
                    st.precond_matvecs,
                    s.stats.precond_matvecs + h.dirichlet_matvecs,
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
