//! `lqcd-solvebench`: the end-to-end solve benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path solvebench/Cargo.toml -- \
//!     --workload gcrdd_half --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload in this process on two rank threads, checks every
//! solution with an independent f64 residual, and prints a fingerprint
//! line, one line per metric (name, value, unit, direction), and as the
//! last line a JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! the per-layer split. See `NOTES.md`.

mod awake;
#[cfg(test)]
mod checks;
mod host;
mod micro;
mod schema;
mod verify;
mod workloads;
mod wrap;

use host::{mean, median};
use lqcd_comms::{run_on_grid_fallible, CommConfig};
use schema::{Metric, END_TO_END, PER_LAYER};
use workloads::{RankReport, RunCfg, SolveRecord, Workload, COUNT_SOLVES, GRID};

fn main() {
    if let Err(e) = run() {
        eprintln!("solvebench: {e}");
        std::process::exit(1);
    }
}

fn parse_args() -> Result<RunCfg, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(RunCfg { workload, seed, seconds, trace })
}

/// A JSON string literal.
fn js(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Per-solve values across ranks: the slowest rank's wall time (the
/// solution exists once every rank has its part), summed CPU time, and
/// whether every rank verified.
struct Solves {
    wall: Vec<f64>,
    core: Vec<f64>,
    verified: Vec<bool>,
}

fn combine(ranks: &[&[SolveRecord]]) -> Result<Solves, String> {
    let n = ranks[0].len();
    if ranks.iter().any(|r| r.len() != n) {
        return Err("ranks disagree on the number of solves".into());
    }
    let per = |i: usize| ranks.iter().map(move |r| &r[i]);
    Ok(Solves {
        wall: (0..n).map(|i| per(i).map(|r| r.wall_ns).max().unwrap_or(0) as f64 * 1e-9).collect(),
        core: (0..n).map(|i| per(i).map(|r| r.cpu_ns).sum::<u64>() as f64 * 1e-9).collect(),
        verified: (0..n).map(|i| per(i).all(|r| r.verified)).collect(),
    })
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(reports: &[RankReport], s: &Solves, tail_p: usize) -> Vec<f64> {
    let ok = s.verified.iter().filter(|&&v| v).count();
    vec![
        median(&s.wall),
        host::percentile(&s.wall, tail_p),
        median(&s.core),
        median(&reports[0].setup_s),
        ok as f64 / s.verified.len() as f64,
        host::peak_rss_mb(),
    ]
}

/// The per-layer metrics of a traced run, from rank 0's records.
fn per_layer(
    r0: &RankReport,
    untraced: &Solves,
    traced: &Solves,
    steal: f64,
) -> Result<Vec<f64>, String> {
    let tr = &r0.traced;
    let counted = &tr[..COUNT_SOLVES.min(tr.len())];
    let count = |f: &dyn Fn(&SolveRecord) -> u64| {
        mean(&counted.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
    };
    let secs = |f: &dyn Fn(&SolveRecord) -> u64| {
        mean(&tr.iter().map(|r| f(r) as f64 * 1e-9).collect::<Vec<_>>())
    };
    let solve_s = secs(&|r| r.wall_ns);
    let parts = [
        secs(&|r| r.space.matvec_ns),
        secs(&|r| r.space.dirichlet_ns),
        secs(&|r| r.space.precond_ns),
        secs(&|r| r.space.dot_ns),
        secs(&|r| r.space.blas_ns),
        secs(&|r| r.space.quantize_ns),
    ];
    let applied: u64 = tr.iter().map(|r| r.dslash.total_ns).sum();
    let exposed: u64 = tr.iter().map(|r| r.dslash.exposed_comm_ns).sum();
    let tts_untraced = median(&untraced.wall);
    let mut named: Vec<(&str, f64)> = r0.micro.as_ref().map(|m| m.0.clone()).unwrap_or_default();
    named.extend(r0.setup_split.iter().copied());
    named.extend([
        ("dirac.interior_s", secs(&|r| r.dslash.interior_ns)),
        ("dirac.exposed_comm_s", secs(&|r| r.dslash.exposed_comm_ns)),
        (
            "dirac.overlap_eff",
            if applied > 0 { 1.0 - exposed as f64 / applied as f64 } else { 0.0 },
        ),
        ("comms.exchanges", count(&|r| r.comm.exchanges)),
        ("comms.exchange_mb", count(&|r| r.comm.exchange_bytes) * 1e-6),
        ("comms.exchange_wait_s", secs(&|r| r.comm.exchange_wait_ns)),
        ("comms.allreduces", count(&|r| r.comm.allreduces)),
        ("comms.allreduce_s", secs(&|r| r.comm.allreduce_ns)),
        ("solvers.iterations", count(&|r| r.iterations)),
        ("solvers.matvecs", count(&|r| r.space.matvecs)),
        ("solvers.dirichlet_matvecs", count(&|r| r.space.dirichlet_matvecs)),
        ("solvers.restarts", count(&|r| r.restarts)),
        ("solvers.solve_s", solve_s),
        ("solvers.matvec_s", parts[0]),
        ("solvers.dirichlet_s", parts[1]),
        ("solvers.precond_s", parts[2]),
        ("solvers.dot_s", parts[3]),
        ("solvers.blas_s", parts[4]),
        ("solvers.quantize_s", parts[5]),
        ("solvers.other_s", solve_s - parts.iter().sum::<f64>()),
        (
            "solvers.busy_frac",
            median(&untraced.core) / (GRID.0.iter().product::<usize>() as f64 * tts_untraced),
        ),
        ("host.steal_frac", steal),
        ("bench.trace_overhead", median(&traced.wall) / tts_untraced),
        ("bench.tts_untraced_s", tts_untraced),
    ]);
    PER_LAYER
        .iter()
        .map(|m| {
            named
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|&(_, v)| v)
                .ok_or(format!("{} not measured", m.name))
        })
        .collect()
}

/// Wrapped and unwrapped solves of the same source must agree exactly.
fn traced_matches_untraced(r: &RankReport) -> bool {
    r.traced.iter().all(|t| {
        r.untraced.iter().find(|u| u.source == t.source).is_none_or(|u| {
            u.iterations == t.iterations && u.residual.to_bits() == t.residual.to_bits()
        })
    })
}

fn run() -> Result<(), String> {
    let cfg = parse_args()?;
    let w = cfg.workload;
    // The report must say what BENCHMARK.json promises (when run from
    // the repository root, where it lives).
    if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
        schema::check(&text).map_err(|e| format!("schema self-check failed: {e}"))?;
    }
    let awake = awake::KeepAwake::start(host::nproc());
    let steal0 = host::cpu_jiffies();
    let results = run_on_grid_fallible(cfg.workload.grid(), CommConfig::default(), |comm| {
        workloads::rank_main(&cfg, comm)
    });
    let reports = results
        .into_iter()
        .map(|r| r.and_then(|x| x))
        .collect::<lqcd_util::Result<Vec<_>>>()
        .map_err(|e| e.to_string())?;
    let steal = host::steal_frac(steal0, host::cpu_jiffies());
    let idle_spin = awake.stop();
    let pinned = reports.iter().all(|r| r.pinned);

    let untraced = combine(&reports.iter().map(|r| r.untraced.as_slice()).collect::<Vec<_>>())?;
    let mut attempted = untraced.verified.len();
    let mut failed = untraced.verified.iter().filter(|&&v| !v).count();
    let mut correct = failed == 0;
    let (metrics, values, tail_p): (&[Metric], Vec<f64>, Option<usize>) = if cfg.trace {
        let traced = combine(&reports.iter().map(|r| r.traced.as_slice()).collect::<Vec<_>>())?;
        attempted += traced.verified.len();
        failed += traced.verified.iter().filter(|&&v| !v).count();
        let same = reports.iter().all(traced_matches_untraced);
        if !same {
            eprintln!(
                "solvebench: a wrapped solve differs from the unwrapped solve of the same source"
            );
        }
        correct = failed == 0 && same;
        (&PER_LAYER, per_layer(&reports[0], &untraced, &traced, steal)?, None)
    } else {
        let p = host::tail_rank(w.min_solves());
        (&END_TO_END, end_to_end(&reports, &untraced, p), Some(p))
    };
    if let Some(bad) = metrics.iter().zip(&values).find(|(_, v)| !v.is_finite()) {
        return Err(format!("{} is not finite", bad.0.name));
    }

    let dims = |d: lqcd_lattice::Dims| js(&d.0.map(|x| x.to_string()).join("x"));
    println!(
        "{{\"fingerprint\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cpu_model\": {}, \"nproc\": {}, \"ranks\": {}, \"threads_per_rank\": 1, \
         \"grid\": {}, \"lattice\": {}, \"commit\": {}, \"source_crc64\": {}, \
         \"solves\": {}, \"traced_solves\": {}, \"min_solves\": {}, \"setup_reps\": {}, \
         \"tail_percentile\": {}, \"idle_spin\": {idle_spin}, \"pinned\": {pinned}, \"steal_frac\": {}}}}}",
        js(w.name()),
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        js(&host::cpu_model()),
        host::nproc(),
        reports.len(),
        dims(GRID),
        dims(w.global()),
        js(&host::commit()),
        js(&host::source_digest(&["crates", "solvebench"])),
        untraced.wall.len(),
        reports[0].traced.len(),
        w.min_solves(),
        reports[0].setup_s.len(),
        tail_p.map_or("null".into(), |p| p.to_string()),
        steal,
    );
    for (m, v) in metrics.iter().zip(&values) {
        let note = match (m.name, tail_p) {
            ("tts_tail_s", Some(p)) => format!("  (p{p} of {} solves)", untraced.wall.len()),
            _ => String::new(),
        };
        println!("# {:<28} {:>14.6e} {:<8} {} is better{note}", m.name, v, m.unit, m.better);
    }
    let body: Vec<String> = metrics
        .iter()
        .zip(&values)
        .map(|(m, v)| format!("{}: {{\"value\": {:?}, \"unit\": {}}}", js(m.name), v, js(m.unit)))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}
