//! Operator-level bit identity of the SIMD site kernels: every entry
//! point — `dslash` and `dslash_sequential` (Full and Dirichlet),
//! `t_apply`, `t_inv_apply`, `apply_eo_prec`, `apply_full` and
//! `reconstruct_even` — in f32 and f64 against the same pass run through
//! the generic per-site kernels, at every lane width the CPU supports,
//! with and without clover, on an unpartitioned lattice, on two ranks
//! split along T, on a 1×1×2×2 grid and on two ranks split along X (where
//! neighbouring sites differ in their ghost hops, so the wide loops fall
//! back to one site), with one, two and three interior threads (three
//! start chunks on odd sites).

use super::kernels::Generic;
use super::*;
use lqcd_comms::{run_on_grid, SingleComm};
use lqcd_field::blas;
use lqcd_gauge::field::GaugeStart;
use lqcd_lattice::{Dims, ProcessGrid};
#[cfg(target_arch = "x86_64")]
use lqcd_su3::kernels::Width;
use lqcd_util::rng::SeedTree;

const GLOBAL: Dims = Dims([4, 4, 4, 8]);

impl<R: Real> WilsonCloverOp<R> {
    /// The site kernels the dispatching entry points pick.
    fn kernels_name(&self) -> &'static str {
        use std::any::type_name_of_val as name;
        with_kernels!(self as WilsonCloverOp<f32> | WilsonCloverOp<f64>, |_op, k| [] name(&k))
    }
}

/// One rank's operator: disordered links with exchanged ghosts, random
/// positive-definite clover sites when `clover`, and `T⁻¹`.
fn build_op<R: Real, C: Communicator>(
    comm: &mut C,
    grid: &ProcessGrid,
    clover: bool,
) -> WilsonCloverOp<R> {
    let sub = Arc::new(SubLattice::for_rank(grid, comm.rank()));
    let faces = FaceGeometry::new(&sub, WILSON_DEPTH).unwrap();
    let seed = SeedTree::new(2026);
    let mut gauge = GaugeField::<R>::generate(
        sub.clone(),
        &faces,
        grid.global,
        &seed,
        GaugeStart::Disordered(0.3),
    );
    gauge.exchange_ghosts(comm, &faces).unwrap();
    let clover = clover.then(|| {
        let mut rng = seed.child("clover").stream(comm.rank() as u64);
        Parity::BOTH.map(|p| {
            let mut f = LatticeField::zeros(sub.clone(), &faces, p, 0);
            f.fill(|_| CloverSite::<f64>::random_spd(&mut rng).cast());
            f
        })
    });
    let mut op = WilsonCloverOp::new(gauge, clover, 0.1).unwrap();
    op.build_t_inverse().unwrap();
    op
}

fn bits<R: Real>(f: &SpinorField<R>) -> Vec<u64> {
    assert!(f.body().iter().any(|&x| x != R::ZERO), "an all-zero output proves nothing");
    f.body().iter().map(|x| x.to_f64().to_bits()).collect()
}

/// Run every entry point both ways; returns the names of those whose
/// outputs differ in any bit.
fn mismatches<R: Real, C: Communicator>(op: &WilsonCloverOp<R>, comm: &mut C) -> Vec<String> {
    let mut rng = SeedTree::new(7).child("src").stream(comm.rank() as u64);
    let mut random = |p: Parity| {
        let mut f = op.alloc(p);
        f.fill(|_| WilsonSpinor::<f64>::random(&mut rng).cast());
        f
    };
    let (mut se, mut so) = (random(Parity::Even), random(Parity::Odd));
    let mut bad = Vec::new();
    let mut check = |name: String, a: &SpinorField<R>, b: &SpinorField<R>| {
        if bits(a) != bits(b) {
            bad.push(name);
        }
    };
    let even = || op.alloc(Parity::Even);
    let odd = || op.alloc(Parity::Odd);

    for mode in [BoundaryMode::Full, BoundaryMode::Dirichlet] {
        let (mut a, mut b) = (even(), even());
        op.dslash(&mut a, &mut so, comm, mode).unwrap();
        op.dslash_with(Generic, &mut b, &mut so, comm, mode).unwrap();
        check(format!("dslash {mode:?}"), &a, &b);

        let (mut a, mut b) = (even(), even());
        op.dslash_sequential(&mut a, &mut so, comm, mode).unwrap();
        overlap::dslash_sequential(&Bound(op, Generic), &mut b, &mut so, comm, mode).unwrap();
        check(format!("dslash_sequential {mode:?}"), &a, &b);

        let (mut a, mut b) = (odd(), odd());
        let (mut s1, mut s2) = (even(), even());
        op.apply_eo_prec(&mut a, &mut so, &mut s1, &mut s2, comm, mode).unwrap();
        op.apply_eo_prec_with(Generic, &mut b, &mut so, &mut s1, &mut s2, comm, mode).unwrap();
        check(format!("apply_eo_prec {mode:?}"), &a, &b);
    }

    let (mut a, mut b) = (even(), even());
    op.t_apply(&mut a, &se);
    op.diag_with(Generic, &mut b, &se, Diag::T).unwrap();
    check("t_apply".into(), &a, &b);

    let (mut a, mut b) = (odd(), odd());
    op.t_inv_apply(&mut a, &so).unwrap();
    op.diag_with(Generic, &mut b, &so, Diag::TInv).unwrap();
    check("t_inv_apply".into(), &a, &b);

    let (mut ae, mut ao, mut be, mut bo) = (even(), odd(), even(), odd());
    op.apply_full(&mut ae, &mut ao, &mut se, &mut so, comm, BoundaryMode::Full).unwrap();
    op.apply_full_with(Generic, &mut be, &mut bo, &mut se, &mut so, comm, BoundaryMode::Full)
        .unwrap();
    check("apply_full even".into(), &ae, &be);
    check("apply_full odd".into(), &ao, &bo);

    let (mut a, mut b) = (even(), even());
    op.reconstruct_even(&mut a, &se, &mut so, comm, BoundaryMode::Full).unwrap();
    op.reconstruct_even_with(Generic, &mut b, &se, &mut so, comm, BoundaryMode::Full).unwrap();
    check("reconstruct_even".into(), &a, &b);
    bad
}

/// Run `f` with `op` at every lane width the CPU supports, naming the
/// width (once with the operator's own kernels off x86_64).
fn at_every_width<R: Real>(
    op: &mut WilsonCloverOp<R>,
    mut f: impl FnMut(&WilsonCloverOp<R>, &str),
) {
    #[cfg(target_arch = "x86_64")]
    for width in Width::supported() {
        op.force_width(width);
        f(op, &format!("{width:?}"));
    }
    #[cfg(not(target_arch = "x86_64"))]
    f(op, "generic");
}

/// Every entry point in precision `R` on process grid `dims` over
/// `global`, at every lane width, with and without clover, with 1, 2 and
/// 3 interior threads; returns the mismatches of every rank.
fn grid_mismatches<R: Real>(global: Dims, dims: [usize; 4]) -> Vec<String> {
    let grid = ProcessGrid::new(Dims(dims), global).unwrap();
    let per_rank = run_on_grid(grid.clone(), move |mut comm| {
        let mut bad = Vec::new();
        for clover in [true, false] {
            let mut op = build_op::<R, _>(&mut comm, &grid, clover);
            at_every_width(&mut op, |op, width| {
                for threads in [1, 2, 3] {
                    op.set_interior_threads(threads);
                    for name in mismatches(op, &mut comm) {
                        bad.push(format!(
                            "{}, rank {}, {width}: clover {clover}, {threads} threads: {name}",
                            R::NAME,
                            comm.rank()
                        ));
                    }
                }
            });
        }
        bad
    });
    per_rank.concat()
}

#[test]
fn dispatch_picks_the_widest_detected_width() {
    let grid = ProcessGrid::new(Dims([1, 1, 1, 1]), GLOBAL).unwrap();
    let mut comm = SingleComm::new(GLOBAL).unwrap();
    let want = if cfg!(target_arch = "x86_64") { "Simd" } else { "Generic" };
    for clover in [true, false] {
        let op = build_op::<f32, _>(&mut comm, &grid, clover);
        assert!(op.kernels_name().ends_with(want), "{}", op.kernels_name());
        let op64 = build_op::<f64, _>(&mut comm, &grid, clover);
        assert!(op64.kernels_name().ends_with(want), "{}", op64.kernels_name());
        // The widest width the CPU supports: AVX2 where it exists.
        #[cfg(target_arch = "x86_64")]
        for width in [op.width, op64.width] {
            assert_eq!(matches!(width, Width::Avx2(_)), is_x86_feature_detected!("avx2"));
        }
    }
}

#[test]
fn unpartitioned_f32_entry_points_match_generic_bitwise() {
    let bad = grid_mismatches::<f32>(GLOBAL, [1, 1, 1, 1]);
    assert!(bad.is_empty(), "{bad:?}");
}

#[test]
fn two_rank_f32_entry_points_match_generic_bitwise() {
    let bad = grid_mismatches::<f32>(GLOBAL, [1, 1, 1, 2]);
    assert!(bad.is_empty(), "{bad:?}");
}

#[test]
fn unpartitioned_f64_entry_points_match_generic_bitwise() {
    let bad = grid_mismatches::<f64>(GLOBAL, [1, 1, 1, 1]);
    assert!(bad.is_empty(), "{bad:?}");
}

#[test]
fn two_rank_f64_entry_points_match_generic_bitwise() {
    let bad = grid_mismatches::<f64>(GLOBAL, [1, 1, 1, 2]);
    assert!(bad.is_empty(), "{bad:?}");
}

#[test]
fn four_rank_entry_points_match_generic_bitwise_in_both_precisions() {
    let mut bad = grid_mismatches::<f32>(GLOBAL, [1, 1, 2, 2]);
    bad.extend(grid_mismatches::<f64>(GLOBAL, [1, 1, 2, 2]));
    assert!(bad.is_empty(), "{bad:?}");
}

/// Two ranks split along X, each 4⁴: a checkerboard row holds two sites,
/// of which the one at x = 0 or x = 3 takes a ghost hop, so neighbouring
/// sites often differ in their hop masks.
const X_SPLIT: Dims = Dims([8, 4, 4, 4]);

#[test]
fn mixed_hop_masks_exercise_both_group_paths() {
    // The geometry holds neighbouring sites with one hop mask (grouped)
    // and with different masks (one site at a time).
    let grid = ProcessGrid::new(Dims([2, 1, 1, 1]), X_SPLIT).unwrap();
    let sub = SubLattice::for_rank(&grid, 0);
    let nbrs = NeighborTable::new(&sub, WILSON_DEPTH).unwrap();
    let ghosts = |idx| nbrs.hops::<8>(Parity::Even, idx).map(|e| e & NeighborTable::GHOST);
    let (mut same, mut differ) = (0, 0);
    for idx in 0..sub.volume_cb() - 1 {
        if ghosts(idx) == ghosts(idx + 1) {
            same += 1;
        } else {
            differ += 1;
        }
    }
    assert!(same > 0 && differ > 0, "{same} equal, {differ} differing neighbour masks");
}

#[test]
fn x_split_entry_points_match_generic_bitwise_in_both_precisions() {
    let mut bad = grid_mismatches::<f32>(X_SPLIT, [2, 1, 1, 1]);
    bad.extend(grid_mismatches::<f64>(X_SPLIT, [2, 1, 1, 1]));
    assert!(bad.is_empty(), "{bad:?}");
}

/// The in-place passes of `apply_eo_prec`, `apply_full` and
/// `reconstruct_even` against the composition they fold — separate
/// dslash, `t_apply`/`t_inv_apply`, `blas::scale` and `blas::axpy` passes
/// over temporaries — bit for bit, in both precisions.
fn fused_matches_composition<R: Real>(op: &WilsonCloverOp<R>) {
    let mut comm = SingleComm::new(GLOBAL).unwrap();
    let comm = &mut comm;
    let mut rng = SeedTree::new(8).rng();
    let mut random = |p: Parity| {
        let mut f = op.alloc(p);
        f.fill(|_| WilsonSpinor::<f64>::random(&mut rng).cast());
        f
    };
    let (mut se, mut so) = (random(Parity::Even), random(Parity::Odd));
    let full = BoundaryMode::Full;
    let bits =
        |f: &SpinorField<R>| f.body().iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();

    let (mut got, mut want) = (op.alloc(Parity::Odd), op.alloc(Parity::Odd));
    let (mut s1, mut s2) = (op.alloc(Parity::Even), op.alloc(Parity::Even));
    op.apply_eo_prec(&mut got, &mut so, &mut s1, &mut s2, comm, full).unwrap();
    op.dslash(&mut s1, &mut so, comm, full).unwrap();
    op.t_inv_apply(&mut s2, &s1).unwrap();
    op.dslash(&mut want, &mut s2, comm, full).unwrap();
    blas::scale(&mut want, R::from_f64(-1.0 / 16.0));
    let mut t = LatticeField::zeros_like(&so);
    op.t_apply(&mut t, &so);
    blas::axpy(R::ONE, &t, &mut want);
    assert_eq!(bits(&got), bits(&want), "apply_eo_prec");

    let (mut ge, mut go) = (op.alloc(Parity::Even), op.alloc(Parity::Odd));
    op.apply_full(&mut ge, &mut go, &mut se, &mut so, comm, full).unwrap();
    for (got, out_parity) in [(&ge, Parity::Even), (&go, Parity::Odd)] {
        let (src, hop_src) =
            if out_parity == Parity::Even { (&se, &mut so) } else { (&so, &mut se) };
        let mut want = op.alloc(out_parity);
        op.dslash(&mut want, hop_src, comm, full).unwrap();
        blas::scale(&mut want, -R::from_f64(0.25));
        let mut t = LatticeField::zeros_like(src);
        op.t_apply(&mut t, src);
        blas::axpy(R::ONE, &t, &mut want);
        assert_eq!(bits(got), bits(&want), "apply_full {out_parity:?}");
    }

    let mut got = op.alloc(Parity::Even);
    op.reconstruct_even(&mut got, &se, &mut so, comm, full).unwrap();
    let mut tmp = LatticeField::zeros_like(&se);
    op.dslash(&mut tmp, &mut so, comm, full).unwrap();
    blas::scale(&mut tmp, R::from_f64(0.25));
    blas::axpy(R::ONE, &se, &mut tmp);
    let mut want = op.alloc(Parity::Even);
    op.t_inv_apply(&mut want, &tmp).unwrap();
    assert_eq!(bits(&got), bits(&want), "reconstruct_even");
}

#[test]
fn in_place_passes_match_the_unfused_composition() {
    let grid = ProcessGrid::new(Dims([1, 1, 1, 1]), GLOBAL).unwrap();
    let mut comm = SingleComm::new(GLOBAL).unwrap();
    for clover in [true, false] {
        fused_matches_composition(&build_op::<f32, _>(&mut comm, &grid, clover));
        fused_matches_composition(&build_op::<f64, _>(&mut comm, &grid, clover));
    }
}
