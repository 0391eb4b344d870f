//! Fault-tolerant solve demo: a distributed Wilson GCR-DD solve under a
//! deterministic fault plan — dropped messages absorbed by the ARQ
//! layer, a corrupted reduction kicking the half-precision attempt up
//! the fallback ladder — plus a rank death showing the structured
//! unwind. See DESIGN.md, "Fault model & recovery".

use lqcd::prelude::*;
use std::time::{Duration, Instant};

fn report(label: &str, outcomes: &[Result<lqcd::core::WilsonSolveOutcome>], elapsed: Duration) {
    println!("\n── {label} ({elapsed:.2?}) ──");
    for (rank, r) in outcomes.iter().enumerate() {
        match r {
            Ok(out) => println!(
                "  rank {rank}: converged={} iters={} residual={:.2e} fallbacks={} retries={} faults={}",
                out.stats.converged,
                out.stats.iterations,
                out.stats.residual,
                out.precision_fallbacks,
                out.exchange_retries,
                out.faults_survived,
            ),
            Err(e) => println!("  rank {rank}: ERROR {e}"),
        }
    }
}

fn main() {
    let mut problem = WilsonProblem::small();
    problem.tol = 3e-5;
    problem.gcr.tol = 3e-5;
    let grid = || ProcessGrid::new(Dims([1, 1, 2, 2]), problem.global).unwrap();

    // 1. Message loss + a corrupted reduction: the ARQ retransmits
    //    absorb the drops bit-identically, and the NaN that reaches the
    //    half-precision attempt's global norm triggers a collective
    //    breakdown — the ladder restarts the solve at single precision.
    let plan = FaultPlan::new(11)
        .with_rule(FaultRule::drop_message().on_rank(0).data_only().times(3))
        .with_rule(FaultRule::corrupt_payload().on_rank(1).for_class(MsgClass::Reduce).times(1));
    let t = Instant::now();
    let outcomes = solve_wilson(
        &problem,
        grid(),
        WilsonSolve::gcr_dd(LadderChoice::Half)
            .with_comm(CommConfig::resilient())
            .with_faults(move |_| Some(plan.clone())),
    )
    .outcomes;
    report("drop + corrupt: recovered via the precision ladder", &outcomes, t.elapsed());
    assert!(outcomes.iter().all(|r| r.as_ref().is_ok_and(|o| o.stats.converged)));

    // 2. The same solve with a rank dying mid-run: the dead rank is
    //    reported in its own slot, every peer unwinds with a structured
    //    error within the deadline — nobody hangs.
    let plan = FaultPlan::new(31).with_rule(FaultRule::die_rank().on_rank(2).after(6).times(1));
    let t = Instant::now();
    let outcomes = solve_wilson(
        &problem,
        grid(),
        WilsonSolve::gcr_dd(LadderChoice::Double)
            .with_comm(CommConfig::resilient().with_timeout(Duration::from_secs(2)))
            .with_faults(move |_| Some(plan.clone())),
    )
    .outcomes;
    report("rank death: structured unwind, no hang", &outcomes, t.elapsed());
    assert!(outcomes.iter().all(|r| r.is_err()), "every rank must surface an error");
}
