//! Self-tests: the wrappers change nothing, the message count matches the
//! geometry, and the verifier rejects what it must.

use crate::verify::{verified, StaggeredVerifier, WilsonVerifier};
use crate::workloads::{
    eo_space, staggered_problem, staggered_solve, wilson_problem, RunReal, Workload, ALL,
};
use crate::wrap::{CountingComm, TimedPrecond, TimedSpace};
use lqcd_comms::{run_on_grid, Communicator, ThreadedComm};
use lqcd_core::StaggeredProblem;
use lqcd_dirac::wilson::SpinorField;
use lqcd_field::half::Quantize;
use lqcd_field::{blas, SiteObject};
use lqcd_lattice::SubLattice;
use lqcd_solvers::spaces::{EoWilsonSpace, StaggeredNormalSpace};
use lqcd_solvers::{bicgstab, gcr, multishift_cg, DirichletMatvec, SchwarzMR, SolverSpace};
use lqcd_su3::{ColorVector, WilsonSpinor};
use lqcd_util::Error;

/// What one rank saw solving the same source unwrapped and wrapped.
#[derive(Debug, PartialEq)]
struct Pair {
    /// Solution norm² bits, one per solution.
    norms: Vec<u64>,
    iterations: usize,
    matvecs: usize,
    dirichlet: usize,
}

/// `(unwrapped, wrapped, exchange bytes, expected bytes)` per rank.
type PairResult = (Pair, Pair, u64, f64);

/// Bytes the wrapped solve should have shipped: two faces per dslash,
/// two dslashes per matvec, each face the perf model's `ghost_bytes`
/// rescaled from the reals per site the model prices to the reals per
/// site the exchange actually ships.
fn expected_bytes(w: Workload, matvecs: usize, shipped_reals: usize) -> f64 {
    let cfg = w.op_config();
    let sub = SubLattice::for_rank(&w.grid(), 0);
    let per_face = cfg.ghost_bytes(&sub, 3) * shipped_reals as f64 / cfg.ghost_reals_per_site();
    (matvecs * 2 * 2) as f64 * per_face
}

fn wilson_pair<R: RunReal>(w: Workload) -> Vec<PairResult>
where
    WilsonSpinor<R>: Quantize<R>,
    EoWilsonSpace<R, ThreadedComm>: DirichletMatvec<V = SpinorField<R>>,
    EoWilsonSpace<R, CountingComm<ThreadedComm>>: DirichletMatvec<V = SpinorField<R>>,
{
    let p = wilson_problem(w, 3);
    let grid = w.grid();
    let gcr_dd = w == Workload::GcrddHalf;
    let schwarz = || {
        let k = SchwarzMR::new(p.mr_steps);
        if R::HALF {
            k.quantized()
        } else {
            k
        }
    };
    run_on_grid(grid.clone(), |mut comm| {
        let (op, _) = R::run_op(p.build_operator(&mut comm, &grid).unwrap()).unwrap();
        let op2 = op.clone();
        let b = p.rhs::<R>(&op);

        let mut s = eo_space(op, comm).unwrap();
        let mut x = s.alloc();
        let st = if gcr_dd {
            gcr(&mut s, &mut schwarz(), &mut x, &b, &p.gcr)
        } else {
            bicgstab(&mut s, &mut x, &b, p.tol, p.maxiter)
        }
        .unwrap();
        let plain = Pair {
            norms: vec![s.norm2(&x).unwrap().to_bits()],
            iterations: st.iterations,
            matvecs: s.matvec_count(),
            dirichlet: s.dirichlet_matvecs(),
        };

        let mut t = TimedSpace::new(eo_space(op2, CountingComm::new(s.comm)).unwrap());
        let mut y = t.alloc();
        let st = if gcr_dd {
            gcr(&mut t, &mut TimedPrecond(schwarz()), &mut y, &b, &p.gcr)
        } else {
            bicgstab(&mut t, &mut y, &b, p.tol, p.maxiter)
        }
        .unwrap();
        let wrapped = Pair {
            norms: vec![t.norm2(&y).unwrap().to_bits()],
            iterations: st.iterations,
            matvecs: t.times.matvecs as usize,
            dirichlet: t.times.dirichlet_matvecs as usize,
        };
        assert_eq!(t.inner.matvec_count(), wrapped.matvecs);
        assert_eq!(t.inner.dirichlet_matvecs(), wrapped.dirichlet);
        let shipped = <WilsonSpinor<R> as SiteObject<R>>::REALS;
        let bytes = t.inner.comm.totals.exchange_bytes;
        (plain, wrapped, bytes, expected_bytes(w, t.times.matvecs as usize, shipped))
    })
}

fn staggered_pair(w: Workload) -> Vec<PairResult> {
    let p = staggered_problem(w, 3);
    let grid = w.grid();
    run_on_grid(grid.clone(), |comm| {
        let op = p.build_operator(&grid, comm.rank()).unwrap();
        let op2 = op.clone();
        let b = p.rhs(&op);

        let mut s = StaggeredNormalSpace::new(op, comm);
        let ms = multishift_cg(&mut s, &p.shifts, &b, p.tol, p.maxiter).unwrap();
        let plain = Pair {
            norms: ms.solutions.iter().map(|x| s.norm2(x).unwrap().to_bits()).collect(),
            iterations: ms.stats.iterations,
            matvecs: s.matvec_count(),
            dirichlet: 0,
        };

        let mut t = TimedSpace::new(StaggeredNormalSpace::new(op2, CountingComm::new(s.comm)));
        let ms = multishift_cg(&mut t, &p.shifts, &b, p.tol, p.maxiter).unwrap();
        let wrapped = Pair {
            norms: ms.solutions.iter().map(|x| t.norm2(x).unwrap().to_bits()).collect(),
            iterations: ms.stats.iterations,
            matvecs: t.times.matvecs as usize,
            dirichlet: t.times.dirichlet_matvecs as usize,
        };
        assert_eq!(t.inner.matvec_count(), wrapped.matvecs);
        let shipped = <ColorVector<f64> as SiteObject<f64>>::REALS;
        let bytes = t.inner.comm.totals.exchange_bytes;
        (plain, wrapped, bytes, expected_bytes(w, t.times.matvecs as usize, shipped))
    })
}

#[test]
fn wrapped_solves_match_unwrapped_on_every_workload() {
    for w in ALL {
        let ranks = match w {
            Workload::GcrddHalf => wilson_pair::<f32>(w),
            Workload::BicgstabHalo => wilson_pair::<f64>(w),
            Workload::MultishiftAsqtad => staggered_pair(w),
        };
        for (plain, wrapped, bytes, expected) in &ranks {
            assert_eq!(plain, wrapped, "{}: wrapping changed the solve", w.name());
            assert!(plain.matvecs > 0 && plain.iterations > 0);
            assert_eq!(plain.dirichlet > 0, w == Workload::GcrddHalf, "{}", w.name());
            assert_eq!(*bytes as f64, *expected, "{}: exchange bytes off the geometry", w.name());
        }
        assert_eq!(ranks[0].0, ranks[1].0, "{}: ranks disagree", w.name());
    }
}

#[test]
fn exchange_bytes_against_the_cost_model() {
    // The staggered exchange ships exactly what `ghost_bytes` prices.
    // The Wilson exchange ships full 24-real spinors where the model
    // prices projected 12-real half spinors: twice the model's bytes.
    let sub = SubLattice::for_rank(&Workload::BicgstabHalo.grid(), 0);
    let model = Workload::BicgstabHalo.op_config().ghost_bytes(&sub, 3) * 4.0;
    assert_eq!(expected_bytes(Workload::BicgstabHalo, 1, 24), 2.0 * model);
    let sub = SubLattice::for_rank(&Workload::MultishiftAsqtad.grid(), 0);
    let model = Workload::MultishiftAsqtad.op_config().ghost_bytes(&sub, 3) * 4.0;
    assert_eq!(expected_bytes(Workload::MultishiftAsqtad, 1, 6), model);
}

#[test]
fn verifier_rejects_a_perturbed_solution_and_a_solver_error() {
    let w = Workload::BicgstabHalo;
    let p = wilson_problem(w, 5);
    let grid = w.grid();
    let out = run_on_grid(grid.clone(), |mut comm| {
        let op = p.build_operator(&mut comm, &grid).unwrap();
        let mut v = WilsonVerifier::new(op.clone());
        let b = p.rhs::<f64>(&op);
        let mut s = EoWilsonSpace::new(op, comm).unwrap();
        let mut x = s.alloc();
        let st = bicgstab(&mut s, &mut x, &b, p.tol, p.maxiter);
        blas::copy(&mut v.x, &x);
        let good = v.residual(&mut s.comm, &b).unwrap();
        // A relative 1e-6 error in the solution is far above tolerance.
        blas::scale(&mut v.x, 1.0 + 1e-6);
        let bad = v.residual(&mut s.comm, &b).unwrap();
        (verified(&st, good, p.tol), verified(&st, bad, p.tol), good, bad)
    });
    for (ok, perturbed, good, bad) in out {
        assert!(ok, "the true solution must verify ({good:e})");
        assert!(!perturbed, "a perturbed solution must fail ({bad:e})");
    }
    let err: lqcd_util::Result<()> = Err(Error::Config("solver failed".into()));
    assert!(!verified(&err, 0.0, 1.0), "a solver error never verifies");
}

#[test]
fn staggered_verifier_checks_every_shift_and_counts_errors() {
    let w = Workload::MultishiftAsqtad;
    let p = staggered_problem(w, 5);
    let grid = w.grid();
    let out = run_on_grid(grid.clone(), |comm| {
        let op = p.build_operator(&grid, comm.rank()).unwrap();
        let mut v = StaggeredVerifier::new(op.clone());
        let b = p.rhs(&op);
        let mut s = StaggeredNormalSpace::new(op, comm);
        let mut ms = multishift_cg(&mut s, &p.shifts, &b, p.tol, p.maxiter).unwrap();
        let good = v.max_residual(&mut s.comm, &p.shifts, &ms.solutions, &b).unwrap();
        // Perturb only the last (best-conditioned) shift's solution.
        blas::scale(ms.solutions.last_mut().unwrap(), 1.0 + 1e-6);
        let bad = v.max_residual(&mut s.comm, &p.shifts, &ms.solutions, &b).unwrap();
        // No shifts: the solver returns an error, which must count as an
        // unverified solve rather than abort the run.
        let empty = StaggeredProblem { shifts: Vec::new(), ..p.clone() };
        let mut t = TimedSpace::new(s);
        let rec = staggered_solve(&mut t, &mut v, &empty, 5, 0).unwrap();
        (good, bad, rec.verified)
    });
    for (good, bad, errored) in out {
        assert!(good <= p.tol, "{good:e}");
        assert!(bad > p.tol, "{bad:e}");
        assert!(!errored);
    }
}
