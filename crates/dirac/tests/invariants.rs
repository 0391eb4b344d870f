//! Physics invariants of the Wilson-clover operator on every partition
//! and in both precisions: γ₅-hermiticity of `apply_full` and
//! `apply_eo_prec`, and covariance of both under a random local SU(3)
//! transform. Links, clover term, sources and the transform Ω(x) are all
//! keyed on global coordinates, so every grid sees the same physics.

use lqcd_comms::{run_on_grid, Communicator};
use lqcd_dirac::wilson::{gamma5_in_place, SpinorField};
use lqcd_dirac::{BoundaryMode, WilsonCloverOp, WILSON_DEPTH};
use lqcd_field::blas::cdot_local;
use lqcd_gauge::clover_build::{build_clover_field, restrict_clover};
use lqcd_gauge::field::GaugeStart;
use lqcd_gauge::GaugeField;
use lqcd_lattice::{Dims, FaceGeometry, Parity, ProcessGrid, SubLattice, NDIM};
use lqcd_su3::{Su3, WilsonSpinor};
use lqcd_util::rng::SeedTree;
use lqcd_util::Real;
use std::sync::Arc;

const GLOBAL: Dims = Dims([4, 4, 4, 8]);
const GRIDS: [[usize; NDIM]; 3] = [[1, 1, 1, 1], [1, 1, 1, 2], [1, 1, 2, 2]];
const SEED: u64 = 20261017;

/// The random local transform Ω(x) at global site `x`.
fn omega(x: [usize; NDIM]) -> Su3<f64> {
    Su3::random(&mut SeedTree::new(SEED).child("omega").stream(GLOBAL.index(x) as u64))
}

/// A source spinor keyed on the global site `x`.
fn source(stream: &str, x: [usize; NDIM]) -> WilsonSpinor<f64> {
    WilsonSpinor::random(&mut SeedTree::new(SEED).child(stream).stream(GLOBAL.index(x) as u64))
}

/// `(Ωψ)(x) = Ω(x) ψ(x)`, colour-rotating every spin.
fn rotate(x: [usize; NDIM], s: &WilsonSpinor<f64>) -> WilsonSpinor<f64> {
    let g = omega(x);
    WilsonSpinor::from_fn(|sp| g.mul_vec(&s.s[sp]))
}

/// Global coordinates of a rank-local site.
fn global_coords(sub: &SubLattice, c: [usize; NDIM]) -> [usize; NDIM] {
    std::array::from_fn(|d| c[d] + sub.origin[d])
}

/// One rank's clover operator in precision `R`: the global disordered
/// field, gauge-rotated `U_µ(x) → Ω(x) U_µ(x) Ω(x + µ̂)†` when `rotated`,
/// restricted to the rank; the clover term built globally from it and
/// restricted; and `T⁻¹`.
fn rank_op<R: Real>(grid: &ProcessGrid, rank: usize, rotated: bool) -> WilsonCloverOp<R> {
    let seed = SeedTree::new(SEED);
    let gsub = Arc::new(SubLattice::single(GLOBAL).unwrap());
    let gfaces = FaceGeometry::new(&gsub, WILSON_DEPTH).unwrap();
    let thin = GaugeField::<f64>::generate(
        gsub.clone(),
        &gfaces,
        GLOBAL,
        &seed,
        GaugeStart::Disordered(0.3),
    );
    let mut global = GaugeField::<R>::zeros(gsub.clone(), &gfaces, 0);
    for mu in 0..NDIM {
        for p in Parity::BOTH {
            for (idx, x) in gsub.sites(p) {
                let mut u = thin.link(mu, p, idx);
                if rotated {
                    u = omega(x).mul(&u).mul_adj(&omega(GLOBAL.displace(x, mu, 1)));
                }
                global.set_link(mu, p, idx, u.cast());
            }
        }
    }
    let sub = Arc::new(SubLattice::for_rank(grid, rank));
    let faces = FaceGeometry::new(&sub, WILSON_DEPTH).unwrap();
    let clover = restrict_clover(&build_clover_field(&global, GLOBAL, 1.0), sub.clone(), &faces);
    let gauge = GaugeField::restrict_from_global(&global, sub, &faces, GLOBAL);
    let mut op = WilsonCloverOp::new(gauge, Some(clover), 0.1).unwrap();
    op.build_t_inverse().unwrap();
    op
}

/// A field of parity `p` holding `f(global site)` in precision `R`.
fn field<R: Real>(
    op: &WilsonCloverOp<R>,
    p: Parity,
    f: impl Fn([usize; NDIM]) -> WilsonSpinor<f64>,
) -> SpinorField<R> {
    let sub = op.sublattice().clone();
    let mut out = op.alloc(p);
    out.fill(|idx| f(global_coords(&sub, sub.cb_coords(p, idx))).cast());
    out
}

fn gamma5<R: Real>(f: &SpinorField<R>) -> SpinorField<R> {
    let mut out = f.clone();
    gamma5_in_place(&mut out);
    out
}

/// Global `⟨x, y⟩` summed over field pairs.
fn dot<R: Real, C: Communicator>(
    comm: &mut C,
    pairs: &[(&SpinorField<R>, &SpinorField<R>)],
) -> (f64, f64) {
    let (re, im) = pairs.iter().fold((0.0, 0.0), |(re, im), (x, y)| {
        let z = cdot_local(x, y);
        (re + z.re, im + z.im)
    });
    comm.sum_complex(re, im).unwrap()
}

/// Global `‖x‖` over a set of fields.
fn norm<R: Real, C: Communicator>(comm: &mut C, fields: &[&SpinorField<R>]) -> f64 {
    dot(comm, &fields.iter().map(|f| (*f, *f)).collect::<Vec<_>>()).0.sqrt()
}

/// `out = M src` for `M` = `apply_full` on `[even, odd]`, or
/// `apply_eo_prec` on `[odd]`.
fn apply<R: Real, C: Communicator>(
    op: &WilsonCloverOp<R>,
    comm: &mut C,
    src: &[SpinorField<R>],
) -> Vec<SpinorField<R>> {
    let full = BoundaryMode::Full;
    let mut src = src.to_vec();
    match &mut src[..] {
        [e, o] => {
            let (mut me, mut mo) = (op.alloc(Parity::Even), op.alloc(Parity::Odd));
            op.apply_full(&mut me, &mut mo, e, o, comm, full).unwrap();
            vec![me, mo]
        }
        [o] => {
            let (mut s1, mut s2) = (op.alloc(Parity::Even), op.alloc(Parity::Even));
            let mut mo = op.alloc(Parity::Odd);
            op.apply_eo_prec(&mut mo, o, &mut s1, &mut s2, comm, full).unwrap();
            vec![mo]
        }
        _ => unreachable!("one or two parities"),
    }
}

/// The parities `apply_full` (`[even, odd]`) and `apply_eo_prec`
/// (`[odd]`) act on.
const OPERATORS: [&[Parity]; 2] = [&[Parity::Even, Parity::Odd], &[Parity::Odd]];

/// `|⟨w, M v⟩ − ⟨γ₅ M γ₅ w, v⟩| / (‖w‖·‖M v‖)` for `M` = `apply_full`,
/// then `apply_eo_prec`.
fn gamma5_defects<R: Real, C: Communicator>(op: &WilsonCloverOp<R>, comm: &mut C) -> [f64; 2] {
    OPERATORS.map(|parities| {
        let v: Vec<_> = parities.iter().map(|&p| field(op, p, |x| source("v", x))).collect();
        let w: Vec<_> = parities.iter().map(|&p| field(op, p, |x| source("w", x))).collect();
        let mv = apply(op, comm, &v);
        let mg = apply(op, comm, &w.iter().map(gamma5).collect::<Vec<_>>());
        let g5mg: Vec<_> = mg.iter().map(gamma5).collect();
        let lhs = dot(comm, &w.iter().zip(&mv).collect::<Vec<_>>());
        let rhs = dot(comm, &g5mg.iter().zip(&v).collect::<Vec<_>>());
        let scale =
            norm(comm, &w.iter().collect::<Vec<_>>()) * norm(comm, &mv.iter().collect::<Vec<_>>());
        (lhs.0 - rhs.0).hypot(lhs.1 - rhs.1) / scale
    })
}

/// `max |M[U^Ω](Ωψ) − Ω M[U]ψ| / max |M[U]ψ|` for `M` = `apply_full`,
/// then `apply_eo_prec`, with `op` built on `U` and `rot` on `U^Ω`.
fn covariance_defects<R: Real, C: Communicator>(
    op: &WilsonCloverOp<R>,
    rot: &WilsonCloverOp<R>,
    comm: &mut C,
) -> [f64; 2] {
    let sub = op.sublattice().clone();
    OPERATORS.map(|parities| {
        let psi: Vec<_> = parities.iter().map(|&p| field(op, p, |x| source("psi", x))).collect();
        let rot_psi: Vec<_> =
            parities.iter().map(|&p| field(rot, p, |x| rotate(x, &source("psi", x)))).collect();
        let plain = apply(op, comm, &psi);
        let gauged = apply(rot, comm, &rot_psi);
        let mut worst = [0.0f64; 2];
        for ((&p, a), b) in parities.iter().zip(&plain).zip(&gauged) {
            for (idx, c) in sub.sites(p) {
                let want = rotate(global_coords(&sub, c), &a.site(idx).cast());
                let got: WilsonSpinor<f64> = b.site(idx).cast();
                worst[0] = worst[0].max(got.sub(&want).norm_sqr().sqrt());
                worst[1] = worst[1].max(want.norm_sqr().sqrt());
            }
        }
        comm.allreduce_max(&mut worst).unwrap();
        worst[0] / worst[1]
    })
}

/// Both invariants of precision `R` on every grid, each defect checked
/// against `tol` on every rank.
fn check_invariants<R: Real>(tol: f64) {
    for dims in GRIDS {
        let grid = ProcessGrid::new(Dims(dims), GLOBAL).unwrap();
        let g = grid.clone();
        let per_rank = run_on_grid(grid, move |mut comm| {
            let op = rank_op::<R>(&g, comm.rank(), false);
            let rot = rank_op::<R>(&g, comm.rank(), true);
            (gamma5_defects(&op, &mut comm), covariance_defects(&op, &rot, &mut comm))
        });
        for (rank, (g5, cov)) in per_rank.iter().enumerate() {
            for (name, d) in ["apply_full", "apply_eo_prec"].iter().zip(g5) {
                assert!(
                    *d < tol,
                    "{} {dims:?} rank {rank}: γ₅-hermiticity of {name}: {d:e}",
                    R::NAME
                );
            }
            for (name, d) in ["apply_full", "apply_eo_prec"].iter().zip(cov) {
                assert!(*d < tol, "{} {dims:?} rank {rank}: covariance of {name}: {d:e}", R::NAME);
            }
        }
    }
}

#[test]
fn f64_operator_is_gamma5_hermitian_and_gauge_covariant_on_every_partition() {
    check_invariants::<f64>(1e-13);
}

#[test]
fn f32_operator_is_gamma5_hermitian_and_gauge_covariant_on_every_partition() {
    check_invariants::<f32>(1e-6);
}
