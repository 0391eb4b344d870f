//! Regenerate the paper's evaluation figures (Figs. 5–10) in one run,
//! paper-vs-model, plus the measured-iteration calibration data that
//! feeds the model and the paper's in-text claims, each measured by a
//! real solve (or, for weak scaling, the model) and given a verdict.
//! This is the binary EXPERIMENTS.md is produced from; Fig. 4's measured
//! timeline is the `fig4` binary.

use lqcd_bench::{paper, write_artifact, BenchArgs};
use lqcd_comms::SingleComm;
use lqcd_core::calibration::{
    fit_block_exponent, measure_dd_block_dependence, measure_multishift_economy,
};
use lqcd_core::{StaggeredProblem, WilsonProblem};
use lqcd_dirac::{BoundaryMode, WilsonCloverOp};
use lqcd_field::blas;
use lqcd_lattice::{Dims, Parity, PartitionScheme, ProcessGrid};
use lqcd_perf::cost::{OpConfig, OperatorKind, Precision, Recon};
use lqcd_perf::solver_model::{StaggeredIterModel, WilsonIterModel};
use lqcd_perf::sweep::ThroughputPoint;
use lqcd_perf::{edge, sweep, ClusterModel};
use lqcd_solvers::spaces::{EoWilsonSpace, FullWilsonSpace, StaggeredNormalSpace};
use lqcd_solvers::{bicgstab, cg, cgnr, lanczos_extremes, SolverSpace};
use lqcd_su3::WilsonSpinor;
use lqcd_util::rng::SeedTree;
use lqcd_util::Result;
use serde::Serialize;

fn section(title: &str) {
    println!("\n{}\n{}", title, "─".repeat(title.len().min(100)));
}

fn main() {
    // Multi-artifact bin: the flags parse for consistency, but there is
    // no single primary artifact for --json to redirect — each figure
    // keeps its standard target/figures/<name>.json location.
    let _args = BenchArgs::parse();
    let model = edge();
    let im = WilsonIterModel::default();
    let sm = StaggeredIterModel::default();

    section("Calibration: measured GCR-DD block dependence (real solves, 8⁴ lattice)");
    let mut problem = WilsonProblem::small();
    problem.disorder = 0.35;
    problem.mass = 0.05;
    problem.tol = 1e-7;
    problem.gcr.tol = 1e-7;
    match measure_dd_block_dependence(&problem, &[1, 4, 16]) {
        Ok(points) => {
            println!("{:>8} {:>10} {:>12} {:>12}", "ranks", "block_cb", "GCR-DD outer", "BiCGstab");
            for p in &points {
                println!(
                    "{:>8} {:>10} {:>12} {:>12}",
                    p.ranks, p.block_cb, p.outer_iterations, p.bicgstab_iterations
                );
            }
            let q = fit_block_exponent(&points);
            println!("fitted block exponent q = {q:.3} (model uses {})", im.block_exponent);
            write_artifact("calibration_dd", &points);
        }
        Err(e) => println!("calibration run skipped: {e}"),
    }

    section("Fig. 5 — Wilson-clover dslash, V = 32³×256, 12-recon, Gflops/GPU");
    let f5 = sweep::fig5(&model).expect("fig5");
    println!("{:>6} {:>6} {:>12} {:>12} {:>9}", "GPUs", "prec", "paper≈", "model", "ratio");
    for p in &f5 {
        let table = if p.precision == "SP" { &paper::FIG5_SP } else { &paper::FIG5_HP };
        let r = table.iter().find(|(g, _)| *g == p.gpus).expect("paper point per GPU count").1;
        println!(
            "{:>6} {:>6} {:>12.0} {:>12.1} {:>9.2}",
            p.gpus,
            p.precision,
            r,
            p.gflops_per_gpu,
            p.gflops_per_gpu / r
        );
    }
    let f5_at = |prec: &str, gpus: usize| {
        f5.iter().find(|p| p.precision == prec && p.gpus == gpus).unwrap().gflops_per_gpu
    };
    println!(
        "\nHP/SP advantage: {:.2}x at 8 GPUs -> {:.2}x at 256 GPUs (paper: ~1.6x -> ~1.1x)",
        f5_at("HP", 8) / f5_at("SP", 8),
        f5_at("HP", 256) / f5_at("SP", 256)
    );
    write_artifact("fig5", &f5);

    section("Fig. 6 — asqtad dslash, V = 64³×192, Gflops/GPU by partitioning");
    let f6 = sweep::fig6(&model).expect("fig6");
    println!("{:>6} {:>6} {:>6} {:>12}", "GPUs", "dims", "prec", "Gflops/GPU");
    for p in &f6 {
        println!("{:>6} {:>6} {:>6} {:>12.1}", p.gpus, p.scheme, p.precision, p.gflops_per_gpu);
    }
    // The paper's observation: the scheme with the worst kernel speed
    // (XYZT, most exterior kernels) has the best 256-GPU throughput.
    let f6_at = |scheme: &str| {
        f6.iter()
            .find(|p| p.scheme == scheme && p.gpus == 256 && p.precision == "SP")
            .unwrap()
            .gflops_per_gpu
    };
    let (x256, y256) = (f6_at("XYZT"), f6_at("YZT"));
    println!(
        "\nat 256 GPUs (SP): XYZT {x256:.1} vs YZT {y256:.1} — {}",
        if x256 > y256 {
            "minimal surface-to-volume wins at scale (paper §7.3)"
        } else {
            "unexpected ordering"
        }
    );
    write_artifact("fig6", &f6);

    section("Fig. 7 — Wilson-clover solver sustained Tflops (V = 32³×256)");
    let f78 = sweep::fig7_fig8(&model, &im).expect("fig7/8");
    let f78_at = |solver: &str, gpus: usize| {
        f78.iter().find(|p| p.solver == solver && p.gpus == gpus).unwrap()
    };
    println!("{:>6} {:>10} {:>10} {:>8}", "GPUs", "solver", "Tflops", "iters");
    for p in &f78 {
        println!("{:>6} {:>10} {:>10.2} {:>8.0}", p.gpus, p.solver, p.tflops, p.iterations);
    }
    println!(
        "\nGCR-DD at 128 GPUs: {:.1} Tflops (paper: exceeds {} Tflops at >=128)",
        f78_at("GCR-DD", 128).tflops,
        paper::GCR_TFLOPS_AT_128
    );
    // Effective-BiCGstab numbers: GCR time scaled into BiCGstab flop terms
    // (the paper quotes 9.95 / 11.5 Tflops at 128 / 256).
    for (gpus, quoted) in [(128usize, "9.95"), (256, "11.5")] {
        let (b, g) = (f78_at("BiCGstab", gpus), f78_at("GCR-DD", gpus));
        println!(
            "effective BiCGstab performance of GCR-DD at {gpus} GPUs: {:.2} Tflops (paper: \
             {quoted}; the ratio matches — the absolute level scales with our lower modeled \
             BiCGstab sustained rate, see EXPERIMENTS.md)",
            b.tflops * b.time_to_solution / g.time_to_solution
        );
    }

    section("Fig. 8 — time to solution (s), V = 32³×256");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "GPUs", "BiCG paper≈", "BiCG model", "GCR paper≈", "GCR model", "win paper", "win model"
    );
    for &(gpus, b_ref, g_ref) in &paper::FIG8 {
        let (b, g) =
            (f78_at("BiCGstab", gpus).time_to_solution, f78_at("GCR-DD", gpus).time_to_solution);
        println!(
            "{:>6} {:>12.1} {:>12.2} {:>12.1} {:>12.2} {:>10.2} {:>10.2}",
            gpus,
            b_ref,
            b,
            g_ref,
            g,
            b_ref / g_ref,
            b / g
        );
    }
    println!("\n(paper quotes improvement factors 1.52x / 1.63x / 1.64x at 64 / 128 / 256 GPUs;");
    println!(" crossover between 32 and 64 GPUs — 'at 32 GPUs BiCGstab is a superior solver')");
    write_artifact("fig7_fig8", &f78);

    section("Fig. 9 — capability machines, V = 32³×256, sustained solver Tflops");
    let f9 = sweep::fig9();
    println!("{:>8} {:>16} {:>30} {:>10}", "cores", "machine", "solver", "Tflops");
    for p in &f9 {
        println!("{:>8} {:>16} {:>30} {:>10.2}", p.cores, p.machine, p.solver, p.tflops);
    }
    let max = f9.iter().map(|p| p.tflops).fold(0.0f64, f64::max);
    println!(
        "\npeak sustained: {max:.1} Tflops (paper: 'the performance range of 10-17 Tflops is \
         attained on partitions of size greater than 16,384 cores')"
    );
    println!(
        "GPU comparison: the GCR-DD solves reach >10 Tflops on 128 GPUs (Fig. 7) — 'on par \
         with capability-class systems'."
    );
    write_artifact("fig9", &f9);

    section("Fig. 10 — asqtad mixed-precision multi-shift solver, V = 64³×192");
    let f10 = sweep::fig10(&model, &sm).expect("fig10");
    println!("{:>6} {:>6} {:>14}", "GPUs", "dims", "total Tflops");
    for p in &f10 {
        println!("{:>6} {:>6} {:>14.2}", p.gpus, p.scheme, p.total_tflops);
    }
    let xyzt = |gpus: usize| {
        f10.iter().find(|p| p.scheme == "XYZT" && p.gpus == gpus).unwrap().total_tflops
    };
    println!(
        "\nXYZT 64→256 speedup: {:.2}x (paper: 2.56x); 256-GPU total: {:.2} Tflops (paper: {:.2})",
        xyzt(256) / xyzt(64),
        xyzt(256),
        paper::FIG10_XYZT[1].1
    );
    println!(
        "CPU comparison point: MILC on Kraken sustains {:.0} Gflops with 4096 cores (§9.2), so \
         one GPU ≈ {:.0} CPU cores here.",
        paper::KRAKEN_GFLOPS,
        xyzt(256) * 1000.0 / 256.0 / (paper::KRAKEN_GFLOPS / 4096.0)
    );
    write_artifact("fig10", &f10);

    section("In-text claims (real solves)");
    let claims = [
        (
            "§3.1 even-odd",
            "even-odd (red-black) preconditioning is almost always used to accelerate the solve",
            even_odd(),
        ),
        ("§3.1 normal equations", "CGNE/CGNR is used, or more commonly BiCGstab", normal_equations()),
        (
            "§3.1 conditioning",
            "the quark mass controls the condition number, and hence the convergence",
            conditioning(),
        ),
        ("§3.1 multi-shift", "a multi-shift solver solves all shifts in one Krylov pass", multishift()),
        (
            "§5 weak scaling (model)",
            "predecessor work showed excellent (artificial) weak scaling; strong scaling is the test",
            weak_scaling(&model, &f5),
        ),
    ]
    .map(|(section, paper, measured)| {
        let (measured, verdict) = match measured {
            Ok((text, true)) => (text, "holds"),
            Ok((text, false)) => (text, "FAILS"),
            Err(e) => (format!("measurement failed: {e}"), "FAILS"),
        };
        println!("{section} [{verdict}]\n  paper:    {paper}\n  measured: {measured}");
        Claim { section, paper, measured, verdict }
    });
    write_artifact("in_text", &claims);
}

/// One in-text claim: the paper's statement, what this repository
/// measures for it, and whether the measurement bears it out.
#[derive(Serialize)]
struct Claim {
    section: &'static str,
    paper: &'static str,
    measured: String,
    verdict: &'static str,
}

/// Each measurement below returns its printed form and whether it
/// bears the paper's statement out.
type Measured = Result<(String, bool)>;

/// The small Wilson-clover problem's operator on one rank.
fn serial_wilson(p: &WilsonProblem) -> Result<(WilsonCloverOp<f64>, SingleComm)> {
    let grid = ProcessGrid::new(Dims([1, 1, 1, 1]), p.global)?;
    let mut comm = SingleComm::new(p.global)?;
    Ok((p.build_operator(&mut comm, &grid)?, comm))
}

/// §3.1 even-odd: one two-parity system solved by full-lattice BiCGstab
/// and through the Schur complement, to the same tolerance, counted in
/// half-lattice dslash applications.
fn even_odd() -> Measured {
    let p = WilsonProblem::small();
    let (op, comm) = serial_wilson(&p)?;
    // The problem's odd source, plus an even half from its own stream.
    let b_o = p.rhs(&op);
    let mut b_e = op.alloc(Parity::Even);
    let seed = SeedTree::new(p.seed).child("rhs-even");
    b_e.fill(|idx| WilsonSpinor::random(&mut seed.stream(idx as u64)));
    let mut full = FullWilsonSpace::new(op, comm);
    let b = (b_e, b_o);
    let mut x = full.alloc();
    let full_stats = bicgstab(&mut full, &mut x, &b, p.tol, p.maxiter)?;
    // Schur path: b̂ = b_o + ¼ D̂_oe T_ee⁻¹ b_e, solve M̂ x_o = b̂, then
    // reconstruct x_e: one dslash each around the solve.
    let mut eo = EoWilsonSpace::new(full.op, full.comm)?;
    let mut t_b = eo.op.alloc(Parity::Even);
    eo.op.t_inv_apply(&mut t_b, &b.0)?;
    let mut b_hat = eo.alloc();
    eo.op.dslash(&mut b_hat, &mut t_b, &mut eo.comm, BoundaryMode::Full)?;
    blas::scale(&mut b_hat, 0.25);
    blas::axpy(1.0, &b.1, &mut b_hat);
    let mut x_o = eo.alloc();
    let eo_stats = bicgstab(&mut eo, &mut x_o, &b_hat, p.tol, p.maxiter)?;
    let mut x_e = eo.op.alloc(Parity::Even);
    eo.op.reconstruct_even(&mut x_e, &b.0, &mut x_o, &mut eo.comm, BoundaryMode::Full)?;
    blas::axpy(-1.0, &x.0, &mut x_e);
    blas::axpy(-1.0, &x.1, &mut x_o);
    let diff = (blas::norm2_local(&x_e) + blas::norm2_local(&x_o))
        / (blas::norm2_local(&x.0) + blas::norm2_local(&x.1));
    // Both matvecs apply two half-lattice dslashes.
    let (full_d, eo_d) = (2 * full_stats.matvecs, 2 * eo_stats.matvecs + 2);
    Ok((
        format!(
            "full-lattice BiCGstab {full_d} dslash ({} matvecs) vs Schur path {eo_d} ({} \
             matvecs + source and reconstruction), {:.2}x fewer, tol {:.0e}, solutions agree \
             to {:.0e}",
            full_stats.matvecs,
            eo_stats.matvecs,
            full_d as f64 / eo_d as f64,
            p.tol,
            diff.sqrt()
        ),
        eo_d < full_d,
    ))
}

/// §3.1 normal equations: CGNR against BiCGstab on one even-odd system.
fn normal_equations() -> Measured {
    let p = WilsonProblem::small();
    let (op, comm) = serial_wilson(&p)?;
    let b = p.rhs(&op);
    let mut space = EoWilsonSpace::new(op, comm)?;
    let mut x = space.alloc();
    let normal = cgnr(&mut space, &mut x, &b, p.tol, p.maxiter)?;
    let mut x = space.alloc();
    let bicg = bicgstab(&mut space, &mut x, &b, p.tol, p.maxiter)?;
    Ok((
        format!(
            "CGNR {} matvecs vs BiCGstab {} on the even-odd system, {:.2}x as many, tol {:.0e}",
            normal.matvecs,
            bicg.matvecs,
            normal.matvecs as f64 / bicg.matvecs as f64,
            p.tol
        ),
        normal.matvecs > bicg.matvecs,
    ))
}

/// §3.1 conditioning: Lanczos extremes of the staggered normal operator
/// and CG iterations as the quark mass falls.
fn conditioning() -> Measured {
    let mut p = StaggeredProblem::small();
    let grid = ProcessGrid::new(Dims([1, 1, 1, 1]), p.global)?;
    let mut rows = Vec::new();
    for mass in [0.5, 0.1] {
        p.mass = mass;
        let op = p.build_operator(&grid, 0)?;
        let b = p.rhs(&op);
        let mut space = StaggeredNormalSpace::new(op, SingleComm::new(p.global)?);
        let spectrum = lanczos_extremes(&mut space, &b, 40)?;
        let mut x = space.alloc();
        let stats = cg(&mut space, &mut x, &b, p.tol, p.maxiter)?;
        rows.push((mass, spectrum, stats.iterations));
    }
    let text = rows
        .iter()
        .map(|(m, s, iters)| {
            format!(
                "m {m}: λ_min {:.4} (m² {:.4}), λ_max {:.2}, κ {:.0}, CG {iters} iters",
                s.lambda_min,
                m * m,
                s.lambda_max,
                s.kappa()
            )
        })
        .collect::<Vec<_>>()
        .join("; ");
    let (heavy, light) = (&rows[0], &rows[1]);
    Ok((text, light.1.kappa() > heavy.1.kappa() && light.2 > heavy.2))
}

/// §3.1 multi-shift: every shift of Eq. 4 in one Krylov pass against one
/// CG per shift.
fn multishift() -> Measured {
    let p = StaggeredProblem::small();
    let e = measure_multishift_economy(&p)?;
    Ok((
        format!(
            "{} shifts: multi-shift {} matvecs vs sequential CG {}, {:.2}x fewer",
            p.shifts.len(),
            e.multishift_matvecs,
            e.sequential_matvecs,
            e.sequential_matvecs as f64 / e.multishift_matvecs as f64
        ),
        e.multishift_matvecs < e.sequential_matvecs,
    ))
}

/// §5 weak scaling (model): T-only partitioning at a fixed local volume
/// next to Fig. 5's strong-scaling curve.
fn weak_scaling(model: &ClusterModel, f5: &[ThroughputPoint]) -> Measured {
    let cfg = OpConfig {
        kind: OperatorKind::WilsonClover,
        precision: Precision::Single,
        recon: Recon::Twelve,
    };
    let local = Dims([16, 16, 16, 32]);
    let weak = sweep::weak_scaling(model, local, PartitionScheme::T, &[2, 4, 8, 16, 32], &cfg)?;
    let (w0, w1) = (&weak[0], &weak[weak.len() - 1]);
    let strong =
        |gpus| f5.iter().find(|p| p.precision == "SP" && p.gpus == gpus).unwrap().gflops_per_gpu;
    let (s8, s256) = (strong(8), strong(256));
    let drift = w1.gflops_per_gpu / w0.gflops_per_gpu - 1.0;
    Ok((
        format!(
            "weak (T-only, local {local}): {:.1} -> {:.1} Gflops/GPU from {} to {} GPUs ({:+.1} \
             %); strong (Fig. 5 SP): {s8:.1} -> {s256:.1} from 8 to 256 ({:.2}x)",
            w0.gflops_per_gpu,
            w1.gflops_per_gpu,
            w0.gpus,
            w1.gpus,
            100.0 * drift,
            s256 / s8
        ),
        drift.abs() < 0.05 && s256 < 0.35 * s8,
    ))
}
