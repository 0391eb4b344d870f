//! Autotune the Wilson-clover dslash + GCR-DD stack on a 4-rank
//! in-process world and report the tuned configuration against the
//! hardcoded defaults.
//!
//! First run (cold cache): both tuning phases run measured micro-trials
//! and persist their decisions to `target/figures/TUNE_CACHE.json`.
//! Second run (warm cache): zero micro-trials, identical decisions, and
//! — because the tuned axes are scheduling-only or deterministic solver
//! parameters — bit-identical solver results, which
//! `solution_norm2_bits` in `BENCH_tune.json` lets a script assert.
//!
//! `--threads N` caps the tuner's thread axis; `--trace` records the
//! flight recorder across the tuning trials (exported as
//! `TRACE_tune.json`); `--json PATH` redirects the primary artifact.

use lqcd_bench::{artifact_dir, BenchArgs};
use lqcd_core::problem::WilsonProblem;
use lqcd_core::tuning;
use lqcd_core::{solve_wilson, WilsonSolve, WilsonSolveOutcome};
use lqcd_tune::{LadderChoice, TuneCache, TunePolicy, TuneReport};
use lqcd_util::trace::{self, MetricsRegistry};
use serde::Serialize;
use std::time::Instant;

const RANKS: usize = 4;

#[derive(Serialize)]
struct PhaseSummary {
    key: String,
    cache_hit: bool,
    trials_run: usize,
    chosen: String,
    default_us: f64,
    tuned_us: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct BenchTune {
    global: [usize; 4],
    ranks: usize,
    cache_path: String,
    dslash: PhaseSummary,
    solver: PhaseSummary,
    /// True when *both* phases came straight from the persisted cache.
    cache_hit: bool,
    /// Micro-trials measured across both phases (0 on a warm cache).
    trials_run: usize,
    /// The fully tuned configuration.
    tuned: String,
    /// `TuneParam::fingerprint()` of the tuned configuration, hex.
    tuned_config: String,
    /// Combined measured speedup of the tuned configuration over the
    /// hardcoded defaults (product of the per-phase min-of-N measured
    /// ratios; ≥ 1 because each phase's argmin includes its baseline).
    speedup: f64,
    /// One-shot verification solves (informational; single-shot wall
    /// time, not min-of-N).
    verify_default_s: f64,
    verify_tuned_s: f64,
    converged: bool,
    solution_norm2: f64,
    /// Bit pattern of `solution_norm2`, hex — compare across runs to
    /// assert warm-cache solves are bit-identical.
    solution_norm2_bits: String,
}

fn phase(report: &TuneReport) -> PhaseSummary {
    PhaseSummary {
        key: report.key.cache_key(),
        cache_hit: report.cache_hit,
        trials_run: report.trials_run,
        chosen: report.decision.param.label(),
        default_us: report.decision.default_us,
        tuned_us: report.decision.tuned_us,
        speedup: report.decision.speedup(),
    }
}

/// Solve `p` on `RANKS` ranks under `policy`, resolved for the GCR-DD
/// solver key.
fn solve_under(p: &WilsonProblem, policy: &TunePolicy) -> Vec<WilsonSolveOutcome> {
    let (grid, param) =
        tuning::resolve(policy, &tuning::wilson_solver_key(p, RANKS)).expect("resolve policy");
    let request = param.map_or(WilsonSolve::gcr_dd(LadderChoice::Double), WilsonSolve::tuned);
    solve_wilson(p, grid, request).into_result().expect("verification solve")
}

fn main() {
    let args = BenchArgs::parse();
    if args.trace {
        trace::enable();
    }
    let mut p = WilsonProblem::small();
    // Micro-trial solves: a looser tolerance keeps each trial short
    // without changing the relative ordering of candidates.
    p.tol = 1e-6;
    p.gcr.tol = 1e-6;
    let max_threads =
        args.threads_or(std::thread::available_parallelism().map_or(1, |n| n.get()).min(4));

    let cache_path = artifact_dir().join("TUNE_CACHE.json");
    let mut cache = match TuneCache::open(&cache_path) {
        Ok(c) => c,
        Err(e) => {
            println!("tune cache unreadable ({e}); discarding and retuning");
            TuneCache::empty(&cache_path)
        }
    };
    let mut metrics = MetricsRegistry::new();

    println!(
        "lqcd-tune — Wilson-clover on {:?}, {RANKS} ranks, thread axis ≤ {}",
        p.global.0,
        max_threads.min(tuning::interior_thread_cap(RANKS))
    );
    println!("cache: {} ({} prior decisions)\n", cache_path.display(), cache.len());

    let started = Instant::now();
    let outcome = tuning::tune_wilson(&p, RANKS, max_threads, &mut cache, &mut metrics)
        .expect("tuning failed");
    let tune_s = started.elapsed().as_secs_f64();

    for (name, report) in [("dslash", &outcome.dslash), ("gcr_dd", &outcome.solver)] {
        if report.cache_hit {
            println!(
                "phase {name}: cache hit — {} ({:.1} µs, speedup {:.2}x), 0 trials",
                report.decision.param.label(),
                report.decision.tuned_us,
                report.decision.speedup()
            );
        } else {
            println!("phase {name}: {} micro-trials", report.trials_run);
            print!("{}", report.table());
            println!(
                "  -> {} ({:.1} µs vs default {:.1} µs, speedup {:.2}x)",
                report.decision.param.label(),
                report.decision.tuned_us,
                report.decision.default_us,
                report.decision.speedup()
            );
        }
        println!();
    }

    let best = outcome.best();
    let speedup = outcome.dslash.decision.speedup() * outcome.solver.decision.speedup();

    // Verification solves: defaults vs the tuned configuration.
    let t = Instant::now();
    let default_out = solve_under(&p, &TunePolicy::Off);
    let verify_default_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let tuned_out = solve_under(&p, &TunePolicy::Fixed(best));
    let verify_tuned_s = t.elapsed().as_secs_f64();
    let converged = tuned_out.iter().all(|o| o.stats.converged)
        && default_out.iter().all(|o| o.stats.converged);
    let n2 = tuned_out[0].solution_norm2;
    assert!(
        tuned_out.iter().all(|o| o.solution_norm2.to_bits() == n2.to_bits()),
        "ranks disagree on the tuned solution norm"
    );

    println!("tuned configuration : {} (fingerprint {:016x})", best.label(), best.fingerprint());
    println!("measured speedup    : {speedup:.2}x vs hardcoded defaults (min-of-N trials)");
    println!(
        "verification solve  : default {verify_default_s:.2} s, tuned {verify_tuned_s:.2} s \
         (single shot), converged: {converged}"
    );
    println!("solution ‖x‖²       : {n2:.12e} (bits {:016x})", n2.to_bits());
    println!("tuning wall time    : {tune_s:.1} s");
    print!("{}", metrics.text_report());

    let report = BenchTune {
        global: p.global.0,
        ranks: RANKS,
        cache_path: cache_path.display().to_string(),
        dslash: phase(&outcome.dslash),
        solver: phase(&outcome.solver),
        cache_hit: outcome.dslash.cache_hit && outcome.solver.cache_hit,
        trials_run: outcome.dslash.trials_run + outcome.solver.trials_run,
        tuned: best.label(),
        tuned_config: format!("{:016x}", best.fingerprint()),
        speedup,
        verify_default_s,
        verify_tuned_s,
        converged,
        solution_norm2: n2,
        solution_norm2_bits: format!("{:016x}", n2.to_bits()),
    };
    args.write_primary("BENCH_tune", &report);
    assert!(report.speedup >= 1.0, "tuned config slower than baseline: {:.3}x", report.speedup);

    if args.trace {
        trace::disable();
        let ranks_trace = trace::take();
        let json = trace::export_chrome_json(&ranks_trace);
        let path = artifact_dir().join("TRACE_tune.json");
        std::fs::write(&path, &json).expect("write trace artifact");
        println!("[artifact] {}", path.display());
    }
}
