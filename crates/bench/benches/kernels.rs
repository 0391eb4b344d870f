//! Criterion benchmarks of the real Rust kernels: the per-site algebra,
//! the Dirac stencils, the operator set-up builds, BLAS, and the
//! precision machinery.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use lqcd_comms::{run_on_grid, Communicator, SingleComm};
use lqcd_dirac::{BoundaryMode, StaggeredOp, WilsonCloverOp, STAGGERED_DEPTH, WILSON_DEPTH};
use lqcd_field::half::Quantize;
use lqcd_field::{blas, HalfField, LatticeField};
use lqcd_gauge::asqtad::{AsqtadCoeffs, AsqtadLinks};
use lqcd_gauge::clover_build::{build_clover, build_clover_field};
use lqcd_gauge::field::GaugeStart;
use lqcd_gauge::GaugeField;
use lqcd_lattice::{Dims, FaceGeometry, Parity, ProcessGrid, SubLattice};
use lqcd_su3::{gamma, ColorVector, Su3, WilsonSpinor};
use lqcd_util::rng::SeedTree;
use std::sync::Arc;

const GLOBAL: Dims = Dims([8, 8, 8, 8]);

fn su3_algebra(c: &mut Criterion) {
    let seed = SeedTree::new(1);
    let mut rng = seed.rng();
    let a = Su3::<f64>::random(&mut rng);
    let b = Su3::<f64>::random(&mut rng);
    let v = ColorVector::<f64>::random(&mut rng);
    let mut g = c.benchmark_group("su3");
    g.bench_function("mat_mul", |bch| bch.iter(|| black_box(a.mul(black_box(&b)))));
    g.bench_function("mat_vec", |bch| bch.iter(|| black_box(a.mul_vec(black_box(&v)))));
    g.bench_function("adj_mat_vec", |bch| bch.iter(|| black_box(a.adj_mul_vec(black_box(&v)))));
    g.bench_function("reunitarize", |bch| bch.iter(|| black_box(a.reunitarize())));
    // One asqtad colour hop, `acc = 0 − U†·v`, for the four sites of one
    // lane-major group per call, at the widest width the CPU runs, through
    // the `#[target_feature]` entry the operators use.
    #[cfg(target_arch = "x86_64")]
    {
        use lqcd_su3::kernels::{LaneAcc, LaneWidth, Lanes, Width, WidthLoop, LANES};

        /// `acc = 0 − U_k†·v_k` at the four lanes of one lane-major group.
        struct LaneHop<'a> {
            v: &'a [f64; 24],
            u: &'a [f64; 72],
            out: &'a mut [f64; 24],
        }

        impl WidthLoop for LaneHop<'_> {
            type Output = ();

            #[inline(always)]
            fn run<W: LaneWidth>(self, w: W) {
                let mut acc = LaneAcc::zero(w);
                let (v, u) = (Lanes::Rotated(self.v, 0), Lanes::Rotated(self.u, 0));
                acc.hop(true, 0b1111, 0b1111, v, u);
                acc.store(self.out);
            }
        }

        // Four sites' vectors and links, lane-major: real r of lane k at
        // 4r + k.
        let v: [[f64; 6]; LANES] = std::array::from_fn(|_| {
            let v = ColorVector::<f64>::random(&mut rng);
            std::array::from_fn(|k| if k % 2 == 0 { v.c[k / 2].re } else { v.c[k / 2].im })
        });
        let u: [[f64; 18]; LANES] =
            std::array::from_fn(|_| Su3::<f64>::random(&mut rng).to_reals());
        let v: [f64; 24] = std::array::from_fn(|i| v[i % LANES][i / LANES]);
        let u: [f64; 72] = std::array::from_fn(|i| u[i % LANES][i / LANES]);
        let mut out = [0.0; 24];
        let width = Width::detect();
        g.bench_function("color_hop_f64_four_sites_lane_major", |bch| {
            bch.iter(|| {
                width.run(LaneHop { v: black_box(&v), u: black_box(&u), out: &mut out });
                black_box(&out);
            })
        });
    }
    // One Wilson backward hop on flat reals, `acc + (1 + γ_t) ⊗ U†`
    // applied to ψ: one site per call (SSE2), and two sites per call (AVX2,
    // where the CPU has it) through the `#[target_feature]` entry the
    // operators use.
    #[cfg(target_arch = "x86_64")]
    {
        use lqcd_su3::kernels::{Avx2, LaneWidth, SpinorAcc, Sse2, Width, WidthLoop, WilsonLanes};
        use lqcd_su3::Projector;
        use lqcd_util::Real;

        /// `acc = 0 + hop(ψ_k, U_k)` at every site of one call.
        struct Hop<'a, R> {
            psi: &'a [[R; 24]; 2],
            u: &'a [[R; 18]; 2],
            out: &'a mut [R; 48],
        }

        impl<R: Real + WilsonLanes> WidthLoop for Hop<'_, R> {
            type Output = ();

            #[inline(always)]
            fn run<W: LaneWidth>(self, w: W) {
                let mut acc = SpinorAcc::zero(w);
                let proj = Projector { mu: 3, plus: true };
                acc.hop(proj, true, W::sites(|k| &self.psi[k]), W::sites(|k| &self.u[k]));
                acc.store(W::split_mut(self.out));
            }
        }

        fn rows<R: Real + WilsonLanes>(
            name: &str,
            g: &mut criterion::BenchmarkGroup<'_>,
            rng: &mut impl rand::Rng,
        ) {
            let psi: [[R; 24]; 2] = std::array::from_fn(|_| {
                let s = WilsonSpinor::<f64>::random(rng).cast::<R>();
                std::array::from_fn(|k| {
                    let z = s.s[k / 6].c[k % 6 / 2];
                    if k % 2 == 0 {
                        z.re
                    } else {
                        z.im
                    }
                })
            });
            let u: [[R; 18]; 2] =
                std::array::from_fn(|_| Su3::<f64>::random(rng).cast::<R>().to_reals());
            let mut out = [R::ZERO; 48];
            g.bench_function(&format!("wilson_hop_{name}"), |bch| {
                bch.iter(|| {
                    Sse2.run(Hop { psi: black_box(&psi), u: black_box(&u), out: &mut out });
                    black_box(&out);
                })
            });
            if let Some(avx2) = Avx2::detect() {
                let width = Width::Avx2(avx2);
                g.bench_function(&format!("wilson_hop_{name}_two_sites"), |bch| {
                    bch.iter(|| {
                        width.run(Hop { psi: black_box(&psi), u: black_box(&u), out: &mut out });
                        black_box(&out);
                    })
                });
            }
        }

        rows::<f32>("f32", &mut g, &mut rng);
        rows::<f64>("f64", &mut g, &mut rng);
    }
    g.finish();
}

fn spin_projection(c: &mut Criterion) {
    let seed = SeedTree::new(2);
    let mut rng = seed.rng();
    let psi = WilsonSpinor::<f64>::random(&mut rng);
    let u = Su3::<f64>::random(&mut rng);
    let mut g = c.benchmark_group("projector");
    g.bench_function("project_colorrot_reconstruct", |bch| {
        bch.iter(|| {
            let h = gamma::project(black_box(0), false, black_box(&psi)).color_mul(&u);
            black_box(gamma::reconstruct(0, false, &h))
        })
    });
    g.bench_function("dense_reference", |bch| {
        bch.iter(|| {
            let full = gamma::project_reference(black_box(0), false, black_box(&psi));
            black_box(WilsonSpinor::from_fn(|sp| u.mul_vec(&full.s[sp])))
        })
    });
    g.finish();
}

fn wilson_dslash(c: &mut Criterion) {
    let seed = SeedTree::new(3);
    let sub = Arc::new(SubLattice::single(GLOBAL).unwrap());
    let faces = FaceGeometry::new(&sub, WILSON_DEPTH).unwrap();
    let gauge = GaugeField::<f64>::generate(
        sub.clone(),
        &faces,
        GLOBAL,
        &seed,
        GaugeStart::Disordered(0.3),
    );
    let clover = build_clover_field(&gauge, GLOBAL, 1.0);
    let op = WilsonCloverOp::new(gauge, Some(clover), 0.1).unwrap();
    let mut comm = SingleComm::new(GLOBAL).unwrap();
    let mut src = op.alloc(Parity::Odd);
    let mut rng = seed.rng();
    src.fill(|_| WilsonSpinor::random(&mut rng));
    let mut out = op.alloc(Parity::Even);
    let mut g = c.benchmark_group("wilson");
    g.throughput(Throughput::Elements(sub.volume_cb() as u64));
    g.bench_function("dslash_8x8x8x8", |bch| {
        bch.iter(|| op.dslash(&mut out, &mut src, &mut comm, BoundaryMode::Full).unwrap())
    });
    let mut t = op.alloc(Parity::Odd);
    g.bench_function("clover_t_apply", |bch| bch.iter(|| op.t_apply(&mut t, &src)));

    // Single precision on one rank's volume of the GCR-DD workload: the
    // SIMD site kernels at the widest width the CPU runs.
    let global = Dims([16, 8, 8, 8]);
    let sub = Arc::new(SubLattice::single(global).unwrap());
    let faces = FaceGeometry::new(&sub, WILSON_DEPTH).unwrap();
    let gauge = GaugeField::<f32>::generate(
        sub.clone(),
        &faces,
        global,
        &seed,
        GaugeStart::Disordered(0.3),
    );
    let clover = build_clover_field(&gauge, global, 1.0);
    let mut op = WilsonCloverOp::new(gauge, Some(clover), 0.1).unwrap();
    op.build_t_inverse().unwrap();
    let mut comm = SingleComm::new(global).unwrap();
    let mut src = op.alloc(Parity::Odd);
    src.fill(|_| WilsonSpinor::random(&mut rng));
    let (mut out, mut out_o) = (op.alloc(Parity::Even), op.alloc(Parity::Odd));
    let (mut s1, mut s2) = (op.alloc(Parity::Even), op.alloc(Parity::Even));
    g.throughput(Throughput::Elements(sub.volume_cb() as u64));
    g.bench_function("dslash_16x8x8x8_f32", |bch| {
        bch.iter(|| op.dslash(&mut out, &mut src, &mut comm, BoundaryMode::Full).unwrap())
    });
    g.bench_function("t_inv_apply_f32", |bch| bch.iter(|| op.t_inv_apply(&mut s1, &out).unwrap()));
    g.bench_function("eo_prec_dirichlet_f32", |bch| {
        bch.iter(|| {
            op.apply_eo_prec(
                &mut out_o,
                &mut src,
                &mut s1,
                &mut s2,
                &mut comm,
                BoundaryMode::Dirichlet,
            )
            .unwrap()
        })
    });

    // Double precision on one rank's volume of the BiCGstab workload
    // (8×8×8×8 on two ranks along T): the f64 SIMD site kernels.
    let global = Dims([8, 8, 8, 4]);
    let sub = Arc::new(SubLattice::single(global).unwrap());
    let faces = FaceGeometry::new(&sub, WILSON_DEPTH).unwrap();
    let gauge = GaugeField::<f64>::generate(
        sub.clone(),
        &faces,
        global,
        &seed,
        GaugeStart::Disordered(0.3),
    );
    let clover = build_clover_field(&gauge, global, 1.0);
    let mut op = WilsonCloverOp::new(gauge, Some(clover), 0.1).unwrap();
    op.build_t_inverse().unwrap();
    let mut comm = SingleComm::new(global).unwrap();
    let mut src = op.alloc(Parity::Odd);
    src.fill(|_| WilsonSpinor::random(&mut rng));
    let (mut out, mut out_o) = (op.alloc(Parity::Even), op.alloc(Parity::Odd));
    let (mut s1, mut s2) = (op.alloc(Parity::Even), op.alloc(Parity::Even));
    op.dslash(&mut out, &mut src, &mut comm, BoundaryMode::Full).unwrap();
    g.throughput(Throughput::Elements(sub.volume_cb() as u64));
    g.bench_function("t_inv_apply_f64", |bch| bch.iter(|| op.t_inv_apply(&mut s1, &out).unwrap()));
    g.bench_function("eo_prec_f64_8x8x8x4", |bch| {
        bch.iter(|| {
            op.apply_eo_prec(&mut out_o, &mut src, &mut s1, &mut s2, &mut comm, BoundaryMode::Full)
                .unwrap()
        })
    });
    g.finish();
}

fn staggered_dslash(c: &mut Criterion) {
    let seed = SeedTree::new(4);
    let sub = Arc::new(SubLattice::single(GLOBAL).unwrap());
    let faces = FaceGeometry::new(&sub, STAGGERED_DEPTH).unwrap();
    let thin = GaugeField::<f64>::generate(
        sub.clone(),
        &faces,
        GLOBAL,
        &seed,
        GaugeStart::Disordered(0.2),
    );
    let links = AsqtadLinks::compute(&thin, GLOBAL, &AsqtadCoeffs::default());
    let op = StaggeredOp::new(links.fat, links.long, 0.2).unwrap();
    let mut comm = SingleComm::new(GLOBAL).unwrap();
    let mut src = op.alloc(Parity::Odd);
    let mut rng = seed.rng();
    src.fill(|_| ColorVector::random(&mut rng));
    let mut out = op.alloc(Parity::Even);
    let mut g = c.benchmark_group("staggered");
    g.throughput(Throughput::Elements(sub.volume_cb() as u64));
    g.bench_function("asqtad_dslash_8x8x8x8", |bch| {
        bch.iter(|| op.dslash(&mut out, &mut src, &mut comm, BoundaryMode::Full).unwrap())
    });
    g.bench_function("asqtad_dslash_dirichlet_8x8x8x8", |bch| {
        bch.iter(|| op.dslash(&mut out, &mut src, &mut comm, BoundaryMode::Dirichlet).unwrap())
    });
    g.finish();
}

fn setup_kernels(c: &mut Criterion) {
    let seed = SeedTree::new(7);
    let sub = Arc::new(SubLattice::single(GLOBAL).unwrap());
    let faces = FaceGeometry::new(&sub, STAGGERED_DEPTH).unwrap();
    let thin = GaugeField::<f64>::generate(sub, &faces, GLOBAL, &seed, GaugeStart::Disordered(0.2));
    let coeffs = AsqtadCoeffs::default();
    let mut g = c.benchmark_group("setup");
    g.sample_size(10);
    g.bench_function("asqtad_links_8x8x8x8", |bch| {
        bch.iter(|| black_box(AsqtadLinks::compute(black_box(&thin), GLOBAL, &coeffs)))
    });
    g.bench_function("clover_build_8x8x8x8", |bch| {
        bch.iter(|| black_box(build_clover_field(black_box(&thin), GLOBAL, 1.0)))
    });
    // One rank of `gcrdd_half`'s 1×1×1×2 split: the rank-local clover
    // build on its 16×8×8×8 body from the exchanged halo box.
    let global = Dims([16, 8, 8, 16]);
    let grid = ProcessGrid::new(Dims([1, 1, 1, 2]), global).unwrap();
    let mut boxes = run_on_grid(grid.clone(), |mut comm| {
        let sub = Arc::new(SubLattice::for_rank(&grid, comm.rank()));
        let faces = FaceGeometry::new(&sub, WILSON_DEPTH).unwrap();
        let start = GaugeStart::Disordered(0.2);
        let mut gauge = GaugeField::<f64>::generate(sub, &faces, global, &seed, start);
        gauge.exchange_halo(&mut comm).unwrap()
    });
    let links = boxes.swap_remove(0);
    g.bench_function("clover_build_local_16x8x8x8", |bch| {
        bch.iter(|| black_box(build_clover(black_box(&links), 1.0)))
    });
    g.finish();
}

fn blas_kernels(c: &mut Criterion) {
    let sub = Arc::new(SubLattice::single(GLOBAL).unwrap());
    let faces = FaceGeometry::new(&sub, 1).unwrap();
    let seed = SeedTree::new(5);
    let mut rng = seed.rng();
    let mut x: LatticeField<f64, WilsonSpinor<f64>> =
        LatticeField::zeros(sub.clone(), &faces, Parity::Even, 0);
    x.fill(|_| WilsonSpinor::random(&mut rng));
    let mut y = x.clone();
    let mut g = c.benchmark_group("blas");
    g.throughput(Throughput::Bytes((x.body().len() * 8) as u64));
    g.bench_function("axpy", |bch| bch.iter(|| blas::axpy(black_box(0.5), &x, &mut y)));
    g.bench_function("cdot", |bch| bch.iter(|| black_box(blas::cdot_local(&x, &y))));
    g.bench_function("norm2", |bch| bch.iter(|| black_box(blas::norm2_local(&x))));
    // The Krylov reductions on solvebench's rank bodies: `gcrdd_half`'s
    // f32 odd-parity body on a 16×8×8×8 rank (98,304 reals), and
    // `bicgstab_halo`'s f64 one on an 8×8×8×4 rank (24,576 reals).
    fn rank_rows<R: lqcd_util::Real>(
        g: &mut criterion::BenchmarkGroup<'_>,
        local: Dims,
        name: &str,
        rng: &mut impl rand::Rng,
    ) {
        let sub = Arc::new(SubLattice::single(local).unwrap());
        let faces = FaceGeometry::new(&sub, 1).unwrap();
        let mut x: LatticeField<R, WilsonSpinor<R>> =
            LatticeField::zeros(sub, &faces, Parity::Odd, 0);
        x.fill(|_| WilsonSpinor::random(rng));
        let y = x.clone();
        g.throughput(Throughput::Bytes(std::mem::size_of_val(x.body()) as u64));
        g.bench_function(&format!("norm2_{name}_rank"), |bch| {
            bch.iter(|| black_box(blas::norm2_local(black_box(&x))))
        });
        g.bench_function(&format!("cdot_{name}_rank"), |bch| {
            bch.iter(|| black_box(blas::cdot_local(black_box(&x), black_box(&y))))
        });
    }
    rank_rows::<f32>(&mut g, Dims([16, 8, 8, 8]), "f32", &mut rng);
    rank_rows::<f64>(&mut g, Dims([8, 8, 8, 4]), "f64", &mut rng);
    g.finish();
}

fn half_precision(c: &mut Criterion) {
    let sub = Arc::new(SubLattice::single(GLOBAL).unwrap());
    let faces = FaceGeometry::new(&sub, 1).unwrap();
    let seed = SeedTree::new(6);
    let mut rng = seed.rng();
    let mut x: LatticeField<f32, WilsonSpinor<f32>> =
        LatticeField::zeros(sub.clone(), &faces, Parity::Even, 0);
    x.fill(|_| WilsonSpinor::random(&mut rng));
    let mut g = c.benchmark_group("half");
    g.bench_function("encode", |bch| bch.iter(|| black_box(HalfField::encode(&x))));
    let h = HalfField::encode(&x);
    let mut back = LatticeField::zeros_like(&x);
    g.bench_function("decode", |bch| bch.iter(|| h.decode_into(&mut back)));
    // The half-precision store of one `gcrdd_half` rank: its 16×8×8×8
    // odd-parity body (4096 sites of 24 reals), quantized in place.
    let sub = Arc::new(SubLattice::single(Dims([16, 8, 8, 8])).unwrap());
    let faces = FaceGeometry::new(&sub, 1).unwrap();
    let mut q: LatticeField<f32, WilsonSpinor<f32>> =
        LatticeField::zeros(sub, &faces, Parity::Odd, 0);
    q.fill(|_| WilsonSpinor::random(&mut rng));
    g.bench_function("quantize_f32_16x8x8x8", |bch| {
        bch.iter(|| WilsonSpinor::quantize_in_place(black_box(&mut q)))
    });
    g.finish();
}

fn whole_solves(c: &mut Criterion) {
    use lqcd_core::LadderChoice;
    use lqcd_core::{solve_wilson, WilsonProblem, WilsonSolve};
    let p = WilsonProblem::small();
    let mut g = c.benchmark_group("solves");
    g.sample_size(10);
    g.bench_function("bicgstab_4ranks_8x8x8x8", |b| {
        b.iter(|| {
            let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), p.global).unwrap();
            black_box(solve_wilson(&p, grid, WilsonSolve::bicgstab()).into_result().unwrap())
        })
    });
    g.bench_function("gcr_dd_4ranks_8x8x8x8", |b| {
        b.iter(|| {
            let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), p.global).unwrap();
            let request = WilsonSolve::gcr_dd(LadderChoice::Double);
            black_box(solve_wilson(&p, grid.clone(), request).into_result().unwrap())
        })
    });
    g.finish();
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = su3_algebra, spin_projection, wilson_dslash, staggered_dslash, setup_kernels,
              blas_kernels, half_precision, whole_solves
}
criterion_main!(kernels);
