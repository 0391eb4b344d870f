//! Autotune the Wilson-clover dslash on a 4-rank in-process world: the
//! partition scheme and interior thread count, against the hardcoded
//! default (ZT t1).
//!
//! First run (cold cache): one dslash phase runs every runnable
//! candidate against the default for 10 alternating rounds. A candidate
//! displaces the default only if it wins at least 9 rounds and its
//! median beats the default's by more than the default's IQR; otherwise
//! the verdict is "no significant difference" at exactly 1.00×. The
//! decision and its evidence persist to `target/figures/TUNE_CACHE.json`.
//! Second run (warm cache): zero micro-trials, the identical decision,
//! and — because the solution depends only on the scheme — a
//! bit-identical solve, which `solution_norm2_bits` in `BENCH_tune.json`
//! lets a script assert.
//!
//! `--threads N` caps the tuner's thread axis; `--trace` records the
//! flight recorder across the tuning trials (exported as
//! `TRACE_tune.json`); `--json PATH` redirects the primary artifact.

use lqcd_bench::{artifact_dir, BenchArgs};
use lqcd_core::problem::WilsonProblem;
use lqcd_core::tuning;
use lqcd_core::{solve_wilson, WilsonSolve};
use lqcd_tune::TuneCache;
use lqcd_util::trace::{self, MetricsRegistry};
use serde::Serialize;
use std::time::Instant;

const RANKS: usize = 4;

#[derive(Serialize)]
struct BenchTune {
    global: [usize; 4],
    ranks: usize,
    cache_path: String,
    key: String,
    /// True when the decision came straight from the persisted cache.
    cache_hit: bool,
    /// Micro-trials measured (0 on a warm cache).
    trials_run: usize,
    /// Wall seconds of the tune (cache lookup included).
    tune_s: f64,
    /// The chosen configuration.
    tuned: String,
    /// `TuneParam::fingerprint()` of the chosen configuration, hex.
    tuned_config: String,
    /// "significant win" or "no significant difference".
    verdict: &'static str,
    /// Default median over the chosen one: exactly 1.0 when the default
    /// stands.
    speedup: f64,
    /// Rounds the chosen candidate won (0 when the default stands).
    wins: usize,
    rounds: usize,
    tuned_us: f64,
    default_us: f64,
    default_iqr_us: f64,
    model_us: f64,
    converged: bool,
    solution_norm2: f64,
    /// Bit pattern of `solution_norm2`, hex — compare across runs to
    /// assert warm-cache solves are bit-identical.
    solution_norm2_bits: String,
}

fn main() {
    let args = BenchArgs::parse();
    if args.trace {
        trace::enable();
    }
    let mut p = WilsonProblem::small();
    // The verification solve: a looser tolerance keeps it short.
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
        "lqcd-tune — Wilson-clover dslash on {:?}, {RANKS} ranks, thread axis ≤ {}",
        p.global.0,
        max_threads.min(tuning::interior_thread_cap(RANKS))
    );
    println!("cache: {} ({} prior decisions)\n", cache_path.display(), cache.len());

    let started = Instant::now();
    let report = tuning::tune_wilson(&p, RANKS, max_threads, &mut cache, &mut metrics)
        .expect("tuning failed");
    let tune_s = started.elapsed().as_secs_f64();
    let d = report.decision;

    if report.cache_hit {
        println!("cache hit: 0 trials");
    } else {
        println!("{} micro-trials", report.trials_run);
        print!("{}", report.table());
    }
    if d.significant() {
        println!(
            "  -> {}: {}, {}/{} wins, median {:.1} µs vs default {:.1} µs (IQR {:.1} µs), \
             speedup {:.2}x\n",
            d.param.label(),
            d.verdict(),
            d.wins,
            d.rounds,
            d.tuned_us,
            d.default_us,
            d.default_iqr_us,
            d.speedup()
        );
    } else {
        println!(
            "  -> {} (default): {}, median {:.1} µs (IQR {:.1} µs), speedup {:.2}x\n",
            d.param.label(),
            d.verdict(),
            d.default_us,
            d.default_iqr_us,
            d.speedup()
        );
    }

    // Verification solve under the decided configuration.
    let grid = d.param.scheme.grid(p.global, RANKS).expect("the decided scheme factors the world");
    let out = solve_wilson(&p, grid, WilsonSolve::tuned(d.param))
        .into_result()
        .expect("verification solve");
    let converged = out.iter().all(|o| o.stats.converged);
    let n2 = out[0].solution_norm2;
    assert!(
        out.iter().all(|o| o.solution_norm2.to_bits() == n2.to_bits()),
        "ranks disagree on the tuned solution norm"
    );

    println!(
        "tuned configuration : {} (fingerprint {:016x})",
        d.param.label(),
        d.param.fingerprint()
    );
    println!("verdict             : {} ({:.2}x vs hardcoded default)", d.verdict(), d.speedup());
    println!(
        "solution ‖x‖²       : {n2:.12e} (bits {:016x}), converged: {converged}",
        n2.to_bits()
    );
    println!("tuning wall time    : {tune_s:.1} s");
    print!("{}", metrics.text_report());

    let bench = BenchTune {
        global: p.global.0,
        ranks: RANKS,
        cache_path: cache_path.display().to_string(),
        key: report.key.cache_key(),
        cache_hit: report.cache_hit,
        trials_run: report.trials_run,
        tune_s,
        tuned: d.param.label(),
        tuned_config: format!("{:016x}", d.param.fingerprint()),
        verdict: d.verdict(),
        speedup: d.speedup(),
        wins: d.wins,
        rounds: d.rounds,
        tuned_us: d.tuned_us,
        default_us: d.default_us,
        default_iqr_us: d.default_iqr_us,
        model_us: d.model_us,
        converged,
        solution_norm2: n2,
        solution_norm2_bits: format!("{:016x}", n2.to_bits()),
    };
    args.write_primary("BENCH_tune", &bench);

    if args.trace {
        trace::disable();
        let ranks_trace = trace::take();
        let json = trace::export_chrome_json(&ranks_trace);
        let path = artifact_dir().join("TRACE_tune.json");
        std::fs::write(&path, &json).expect("write trace artifact");
        println!("[artifact] {}", path.display());
    }
}
