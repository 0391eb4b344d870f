//! Per-layer micro-timings on the workload's own operator and fields
//! (traced run only). Collective timings run on both ranks in lockstep;
//! each value is the median over repeated calls.

use crate::workloads::Workload;
use lqcd_comms::Communicator;
use lqcd_core::StaggeredProblem;
use lqcd_dirac::{BoundaryMode, StaggeredOp, WilsonCloverOp};
use lqcd_field::{blas, HalfField, LatticeField, SiteObject};
use lqcd_lattice::{FaceGeometry, Parity, ProcessGrid, SubLattice};
use lqcd_perf::cost::{OpConfig, PartitionGeometry};
use lqcd_perf::{edge, simulate_dslash};
use lqcd_su3::{gamma, ColorVector, Su3, WilsonSpinor};
use lqcd_util::rng::SeedTree;
use lqcd_util::{Real, Result};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Calls timed per micro-benchmark.
const REPS: usize = 40;

/// Named micro-timing results.
#[derive(Clone, Debug, Default)]
pub struct Micro(pub Vec<(&'static str, f64)>);

/// Median seconds per call of `f` over [`REPS`] calls.
fn per_call(mut f: impl FnMut() -> Result<()>) -> Result<f64> {
    let mut t = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let s = Instant::now();
        f()?;
        t.push(s.elapsed().as_secs_f64());
    }
    Ok(crate::host::median(&t))
}

/// One project → colour-rotate → reconstruct hop, nanoseconds.
fn hop_ns<R: Real>() -> f64 {
    const HOPS: u32 = 20_000;
    let mut rng = SeedTree::new(7).rng();
    let psi = WilsonSpinor::<f64>::random(&mut rng).cast::<R>();
    let u = Su3::<f64>::random(&mut rng).cast::<R>();
    let mut t = Vec::new();
    for _ in 0..5 {
        let s = Instant::now();
        for i in 0..HOPS {
            let mu = (i % 4) as usize;
            let h = gamma::project(mu, i % 2 == 0, black_box(&psi)).color_mul(black_box(&u));
            black_box(gamma::reconstruct(mu, i % 2 == 0, &h));
        }
        t.push(s.elapsed().as_nanos() as f64 / HOPS as f64);
    }
    crate::host::median(&t)
}

/// Half-precision encode and decode of an f32 field shaped like the
/// workload's spinor, seconds per field.
fn half_round_trip<S: SiteObject<f32>>(
    mut f: LatticeField<f32, S>,
    mut site: impl FnMut() -> S,
) -> Result<(f64, f64)> {
    f.fill(|_| site());
    let mut h = HalfField::encode(&f);
    let enc = per_call(|| {
        h.encode_from(black_box(&f));
        Ok(())
    })?;
    let dec = per_call(|| {
        h.decode_into(&mut f);
        Ok(())
    })?;
    Ok((enc, dec))
}

/// `y += a x` bandwidth on run-precision fields, computed GB/s (three
/// streams of the field body per call).
fn axpy_gbs<R: Real, S: SiteObject<R>>(x: &LatticeField<R, S>) -> Result<f64> {
    let mut y = LatticeField::zeros_like(x);
    let t = per_call(|| {
        blas::axpy(R::from_f64(0.5), black_box(x), &mut y);
        Ok(())
    })?;
    let bytes = 3.0 * x.body().len() as f64 * std::mem::size_of::<R>() as f64;
    Ok(bytes / t / 1e9)
}

/// Collective timings shared by both operators: the three dslash modes
/// (through `apply`), their cost-model ratios, and comms latencies.
fn dslash_and_comms<C: Communicator>(
    cfg: &OpConfig,
    grid: &ProcessGrid,
    sub: &SubLattice,
    comm: &mut C,
    mut apply: impl FnMut(&mut C, BoundaryMode, bool) -> Result<()>,
) -> Result<Vec<(&'static str, f64)>> {
    comm.barrier()?;
    let full = per_call(|| apply(comm, BoundaryMode::Full, false))?;
    let dirichlet = per_call(|| apply(comm, BoundaryMode::Dirichlet, false))?;
    let seq = per_call(|| apply(comm, BoundaryMode::Full, true))?;
    let vol_cb = sub.volume_cb() as f64;
    let model = simulate_dslash(&edge(), &PartitionGeometry::of(grid), cfg).total;
    let mut red = [1.0f64, 2.0];
    let allreduce = per_call(|| comm.allreduce_sum(&mut red))?;
    // One ghost message of the partitioned T face, in f64 wire words.
    let words = (cfg.ghost_bytes(sub, 3) / 8.0).ceil() as usize;
    let send = vec![1.0f64; words];
    let mut recv = vec![0.0f64; words];
    let halo = per_call(|| comm.send_recv(3, true, &send, &mut recv))?;
    Ok(vec![
        ("dirac.dslash_full_s", full),
        ("dirac.dslash_dirichlet_s", dirichlet),
        ("dirac.dslash_seq_s", seq),
        ("dirac.gflops", cfg.nominal_flops_per_site() * vol_cb / full / 1e9),
        ("dirac.gbs_computed", cfg.bytes_per_site() * vol_cb / full / 1e9),
        ("dirac.model_ratio", full / model),
        ("comms.allreduce_lat_s", allreduce),
        ("comms.halo_lat_s", halo),
    ])
}

/// Micro-timings of a Wilson workload on its run-precision operator.
pub fn wilson<R: Real, C: Communicator>(
    w: Workload,
    op: &WilsonCloverOp<R>,
    comm: &mut C,
) -> Result<Micro> {
    let sub = op.sublattice().clone();
    let mut rng = SeedTree::new(5).rng();
    let mut src = op.alloc(Parity::Odd);
    src.fill(|_| WilsonSpinor::<f64>::random(&mut rng).cast::<R>());
    let mut out = op.alloc(Parity::Even);
    let mut v = dslash_and_comms(&w.op_config(), &w.grid(), &sub, comm, |c, mode, seq| {
        if seq {
            op.dslash_sequential(&mut out, &mut src, c, mode)
        } else {
            op.dslash(&mut out, &mut src, c, mode)
        }
    })?;
    let (enc, dec) = half_round_trip(f32_field::<WilsonSpinor<f32>>(&sub, op.faces()), || {
        WilsonSpinor::<f64>::random(&mut rng).cast::<f32>()
    })?;
    v.extend([
        ("su3.hop_ns", hop_ns::<R>()),
        ("field.half_encode_s", enc),
        ("field.half_decode_s", dec),
        ("field.axpy_gbs", axpy_gbs(&src)?),
    ]);
    Ok(Micro(v))
}

/// Micro-timings of the asqtad workload on its operator.
pub fn staggered<C: Communicator>(
    w: Workload,
    op: &StaggeredOp<f64>,
    comm: &mut C,
    p: &StaggeredProblem,
) -> Result<Micro> {
    let sub = op.sublattice().clone();
    let src = p.rhs(op);
    let mut src_mut = src.clone();
    let mut out = op.alloc(Parity::Odd);
    let mut v = dslash_and_comms(&w.op_config(), &w.grid(), &sub, comm, |c, mode, seq| {
        if seq {
            op.dslash_sequential(&mut out, &mut src_mut, c, mode)
        } else {
            op.dslash(&mut out, &mut src_mut, c, mode)
        }
    })?;
    let mut rng = SeedTree::new(5).rng();
    let (enc, dec) = half_round_trip(f32_field::<ColorVector<f32>>(&sub, op.faces()), || {
        ColorVector::<f64>::random(&mut rng).cast::<f32>()
    })?;
    v.extend([
        ("su3.hop_ns", hop_ns::<f64>()),
        ("field.half_encode_s", enc),
        ("field.half_decode_s", dec),
        ("field.axpy_gbs", axpy_gbs(&src)?),
    ]);
    Ok(Micro(v))
}

/// A zero f32 body-only field over `sub`.
fn f32_field<S: SiteObject<f32>>(
    sub: &Arc<SubLattice>,
    faces: &FaceGeometry,
) -> LatticeField<f32, S> {
    LatticeField::zeros(sub.clone(), faces, Parity::Odd, 0)
}
