//! Quenched gauge-field generation, the paper's "configuration
//! generation" phase (§2): the Cabibbo–Marinari heatbath plaquette
//! against β, then a β = 5.7 configuration equilibrated with heatbath +
//! microcanonical overrelaxation and fed to the Wilson-clover solver.
//!
//! ```sh
//! cargo run --release --example gauge_generation
//! ```

use lqcd::gauge::clover_build::build_clover_field;
use lqcd::gauge::field::GaugeStart;
use lqcd::gauge::heatbath::{heatbath_sweep, overrelax_sweep};
use lqcd::prelude::*;
use std::sync::Arc;

fn main() -> Result<()> {
    let global = Dims([4, 4, 4, 8]);
    let sub = Arc::new(SubLattice::single(global)?);
    let faces = lqcd::lattice::FaceGeometry::new(&sub, 1)?;
    let seeds = SeedTree::new(42);

    println!("quenched SU(3) heatbath on {global}");
    println!("{:>6} {:>12} {:>14}", "β", "plaquette", "(strong-coupl.)");
    for beta in [0.9, 2.0, 5.7, 12.0] {
        let mut g =
            GaugeField::<f64>::generate(sub.clone(), &faces, global, &seeds, GaugeStart::Hot);
        for sweep in 0..10 {
            heatbath_sweep(&mut g, global, beta, &seeds, sweep);
        }
        let p = average_plaquette(&g, global);
        let strong = beta / 18.0;
        println!("{:>6.2} {:>12.4} {:>14.4}", beta, p, strong);
    }

    // Equilibrate a β = 5.7 configuration with heatbath + overrelaxation.
    let mut g = GaugeField::<f64>::generate(sub.clone(), &faces, global, &seeds, GaugeStart::Hot);
    for sweep in 0..10 {
        heatbath_sweep(&mut g, global, 5.7, &seeds, sweep);
        overrelax_sweep(&mut g, global);
    }
    println!(
        "\nβ = 5.7 after 10 heatbath + OR sweeps: plaquette {:.4}",
        average_plaquette(&g, global)
    );

    let clover = build_clover_field(&g, global, 1.0);
    let mut op = WilsonCloverOp::new(g, Some(clover), 0.3)?;
    op.build_t_inverse()?;

    // Solve a point source on it.
    let mut space = lqcd::solvers::spaces::EoWilsonSpace::new(op, SingleComm::new(global)?)?;
    let mut b = space.alloc();
    let mut point = WilsonSpinor::zero();
    point.s[0].c[0] = Complex::one();
    b.set_site(0, point);
    let mut x = space.alloc();
    let stats = bicgstab(&mut space, &mut x, &b, 1e-8, 4000)?;
    println!(
        "\nWilson-clover point-source solve on the β=5.7 configuration: {} iterations, |r|/|b| = {:.1e}",
        stats.iterations, stats.residual
    );
    Ok(())
}
