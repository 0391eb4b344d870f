//! Weak-scaling probe of the Wilson-clover operator set-up: a fixed
//! 8×8×8×4 local volume per rank on 1, 2, 4 and 8 rank threads.
//!
//! Per rank it reports the thread-CPU seconds of
//! `WilsonProblem::build_operator` (first field of
//! `/proc/thread-self/schedstat`, median of a few builds), the clover
//! sites the build computed, and the links its extended gauge box holds.
//! For contrast it times, on the same thread, the global clover step a
//! rank would otherwise run: regenerate the whole gauge field, build the
//! clover term on every site, keep its own.
//!
//! No wall-time ratios: the rank threads of the larger worlds share the
//! host's cores, so only per-rank CPU time compares across rank counts.
//! Emits `BENCH_setup.json`; `--json PATH` redirects it.

use lqcd_bench::{row, BenchArgs};
use lqcd_comms::{run_on_grid, Communicator};
use lqcd_core::problem::WilsonProblem;
use lqcd_dirac::WILSON_DEPTH;
use lqcd_gauge::clover_build::{build_clover_field, restrict_clover};
use lqcd_gauge::field::GaugeStart;
use lqcd_gauge::GaugeField;
use lqcd_lattice::{Dims, FaceGeometry, ProcessGrid, SubLattice};
use lqcd_util::rng::SeedTree;
use serde::Serialize;
use std::sync::Arc;

/// The local volume every rank holds.
const LOCAL: [usize; 4] = [8, 8, 8, 4];
/// Process grids of the sweep (1, 2, 4 and 8 ranks).
const GRIDS: [[usize; 4]; 4] = [[1, 1, 1, 1], [1, 1, 1, 2], [1, 1, 2, 2], [1, 2, 2, 2]];
/// Timed repetitions per step; the median is reported.
const REPS: usize = 3;

#[derive(Serialize)]
struct RankRow {
    rank: usize,
    /// Thread-CPU seconds of one `build_operator`.
    build_cpu_s: f64,
    /// Clover sites the build computed (both parities).
    clover_sites: usize,
    /// Links in the rank's extended gauge box (4 per box site).
    links_held: usize,
    /// Thread-CPU seconds of the global clover step on this rank.
    global_clover_cpu_s: f64,
    /// Clover sites the global step computes.
    global_clover_sites: usize,
    /// Links the global step holds.
    global_links_held: usize,
}

#[derive(Serialize)]
struct SweepRow {
    ranks: usize,
    grid: [usize; 4],
    global: [usize; 4],
    local_volume: usize,
    per_rank: Vec<RankRow>,
}

#[derive(Serialize)]
struct BenchSetup {
    local: [usize; 4],
    reps: usize,
    cpu_clock: &'static str,
    rows: Vec<SweepRow>,
}

/// On-CPU seconds of the calling thread so far.
fn thread_cpu_s() -> f64 {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("setup_scaling reads /proc/thread-self/schedstat");
    let ns: u64 = s.split_whitespace().next().and_then(|x| x.parse().ok()).expect("schedstat");
    ns as f64 * 1e-9
}

/// Median thread-CPU seconds of `REPS` calls of `f`, and its last result.
fn cpu_median<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        drop(last.take());
        let t = thread_cpu_s();
        last = Some(f());
        times.push(thread_cpu_s() - t);
    }
    times.sort_by(f64::total_cmp);
    (times[REPS / 2], last.expect("at least one rep"))
}

fn rank_row(p: &WilsonProblem, grid: &ProcessGrid, mut comm: impl Communicator) -> RankRow {
    let (build_cpu_s, op) = cpu_median(|| p.build_operator(&mut comm, grid).expect("build"));
    let clover_sites = op.clover.as_ref().map_or(0, |c| c[0].num_sites() + c[1].num_sites());
    drop(op);

    let seed = SeedTree::new(p.seed);
    let start = GaugeStart::Disordered(p.disorder);
    let sub = Arc::new(SubLattice::for_rank(grid, comm.rank()));
    let faces = FaceGeometry::new(&sub, WILSON_DEPTH).expect("faces");
    let mut gauge = GaugeField::<f64>::generate(sub.clone(), &faces, p.global, &seed, start);
    let links_held = 4 * gauge.exchange_halo(&mut comm).expect("halo").volume();

    let csw = p.csw.expect("a clover problem");
    let (global_clover_cpu_s, _) = cpu_median(|| {
        let gsub = Arc::new(SubLattice::single(p.global).expect("global lattice"));
        let gfaces = FaceGeometry::new(&gsub, WILSON_DEPTH).expect("faces");
        let whole = GaugeField::<f64>::generate(gsub, &gfaces, p.global, &seed, start);
        restrict_clover(&build_clover_field(&whole, p.global, csw), sub.clone(), &faces)
    });
    RankRow {
        rank: comm.rank(),
        build_cpu_s,
        clover_sites,
        links_held,
        global_clover_cpu_s,
        global_clover_sites: p.global.volume(),
        global_links_held: 4 * p.global.volume(),
    }
}

fn main() {
    let args = BenchArgs::parse();
    println!("Wilson-clover set-up at fixed local {LOCAL:?} (thread-CPU, median of {REPS})");
    let head = ["ranks", "rank", "build_cpu_ms", "clover_sites", "links_held", "global_cpu_ms"];
    println!("{}", row(&head.map(String::from)));
    let mut rows = Vec::new();
    for shape in GRIDS {
        let global = Dims(std::array::from_fn(|d| LOCAL[d] * shape[d]));
        let grid = ProcessGrid::new(Dims(shape), global).expect("grid");
        let p = WilsonProblem { global, ..WilsonProblem::small() };
        let per_rank = run_on_grid(grid.clone(), |comm| rank_row(&p, &grid, comm));
        for r in &per_rank {
            println!(
                "{}",
                row(&[
                    grid.num_ranks().to_string(),
                    r.rank.to_string(),
                    format!("{:.1}", r.build_cpu_s * 1e3),
                    r.clover_sites.to_string(),
                    r.links_held.to_string(),
                    format!("{:.1}", r.global_clover_cpu_s * 1e3),
                ])
            );
        }
        rows.push(SweepRow {
            ranks: grid.num_ranks(),
            grid: shape,
            global: global.0,
            local_volume: grid.local.volume(),
            per_rank,
        });
    }
    let out =
        BenchSetup { local: LOCAL, reps: REPS, cpu_clock: "/proc/thread-self/schedstat", rows };
    args.write_primary("BENCH_setup", &out);
}
