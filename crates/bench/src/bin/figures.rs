//! Regenerate the paper's evaluation figures (Figs. 5–10) in one run,
//! paper-vs-model, plus the measured-iteration calibration data that
//! feeds the model. This is the binary EXPERIMENTS.md is produced from;
//! Fig. 4's measured timeline is the `fig4` binary.

use lqcd_bench::{paper, write_artifact, BenchArgs};
use lqcd_core::calibration::{fit_block_exponent, measure_dd_block_dependence};
use lqcd_core::WilsonProblem;
use lqcd_perf::solver_model::{StaggeredIterModel, WilsonIterModel};
use lqcd_perf::{edge, sweep};

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
}
