//! Operator-level bit identity of the table-driven asqtad kernels.
//!
//! The oracle is the per-site code the tables replaced: it decodes each
//! site's coordinates, resolves every hop through
//! [`SubLattice::neighbor`], forms `η_µ` from global coordinates, and
//! ends `apply_full`/`apply_normal` with separate `blas::scale` and
//! `blas::axpy` passes. Every entry point — `dslash` (Full and
//! Dirichlet), `dslash_sequential`, `apply_normal` and `apply_full` —
//! must match it bit for bit in f32 and in f64 at every lane width the
//! CPU supports, on one rank, on two ranks split along T (`L_t = 4`, so
//! the depth-3 face lists overlap), on a 1×2×1×2 grid, on two ranks with
//! odd checkerboard rows (where a lane-major group straddles two rows and
//! its lanes differ in η), on two ranks split along X (where the lanes of
//! a group differ in their ghost hops) and on two 8×8×8×4 ranks (one row
//! per group, the X hops rotated), with one and two interior threads.

use super::kernels::SiteKernels;
use super::*;
use lqcd_comms::{run_on_grid, SingleComm};
use lqcd_field::{LatticeField, SiteObject};
use lqcd_gauge::field::GaugeStart;
use lqcd_lattice::{Dims, Neighbor, ProcessGrid, NDIM};
#[cfg(target_arch = "x86_64")]
use lqcd_su3::kernels::Width;
use lqcd_util::rng::SeedTree;

const GLOBAL: Dims = Dims([4, 8, 4, 8]);

fn type_name_of<K>(_: K) -> &'static str {
    std::any::type_name::<K>()
}

impl<R: Real> StaggeredOp<R> {
    /// The site kernels the dispatching entry points pick.
    fn kernels_name(&self) -> &'static str {
        with_kernels!(self as StaggeredOp<f64>, |_op, k| [] type_name_of(k))
    }
}

/// The per-site interior and exterior code the tables replaced.
#[derive(Clone, Copy)]
struct Oracle;

/// Staggered phase `η_µ(x)` at *global* coordinates.
fn eta<R: Real>(sub: &SubLattice, c: [usize; NDIM], mu: usize) -> R {
    let s: usize = (0..mu).map(|d| c[d] + sub.origin[d]).sum();
    if s.is_multiple_of(2) {
        R::ONE
    } else {
        -R::ONE
    }
}

impl<R: Real> SiteKernels<R> for Oracle {
    fn interior(
        self,
        op: &StaggeredOp<R>,
        out_chunk: &mut [R],
        lo_site: usize,
        src: BodyView<'_, R, ColorVector<R>>,
        _staged: &[R],
        out_parity: Parity,
        src_parity: Parity,
    ) {
        let (fat, long) = op.to_gauge();
        for (k, slot) in out_chunk.chunks_exact_mut(6).enumerate() {
            let idx = lo_site + k;
            let c = op.sub.cb_coords(out_parity, idx);
            let mut acc = ColorVector::zero();
            for mu in 0..NDIM {
                let eta = eta::<R>(&op.sub, c, mu);
                for (links, dist) in [(&fat, 1isize), (&long, 3)] {
                    for step in [dist, -dist] {
                        let hop = op.sub.neighbor(c, mu, step, STAGGERED_DEPTH);
                        let Neighbor::Interior { idx: nidx } = hop else { continue };
                        let v = src.site(nidx);
                        let v = if step > 0 {
                            links.link(mu, out_parity, idx).mul_vec(&v)
                        } else {
                            links.link(mu, src_parity, nidx).adj_mul_vec(&v).scale(-R::ONE)
                        };
                        acc = acc.add(&v.scale(eta));
                    }
                }
            }
            acc.write(slot);
        }
    }

    fn exterior(
        self,
        op: &StaggeredOp<R>,
        out: &mut StaggeredField<R>,
        src: &StaggeredField<R>,
        mu: usize,
    ) {
        let out_parity = out.parity();
        let (fat, long) = op.to_gauge();
        let mut update = |cb: u32| {
            let idx = cb as usize;
            let c = op.sub.cb_coords(out_parity, idx);
            let eta = eta::<R>(&op.sub, c, mu);
            let mut acc = out.site(idx);
            let mut touched = false;
            for (links, dist) in [(&fat, 1isize), (&long, 3)] {
                for step in [dist, -dist] {
                    let hop = op.sub.neighbor(c, mu, step, STAGGERED_DEPTH);
                    let g @ Neighbor::Ghost { forward, offset, .. } = hop else { continue };
                    let v = src.ghost(mu, forward, offset);
                    let v = if step > 0 {
                        links.link(mu, out_parity, idx).mul_vec(&v)
                    } else {
                        links.link_resolved(mu, src.parity(), g).adj_mul_vec(&v).scale(-R::ONE)
                    };
                    acc = acc.add(&v.scale(eta));
                    touched = true;
                }
            }
            if touched {
                out.set_site(idx, acc);
            }
        };
        for &cb in op.faces.low_face(mu, out_parity) {
            update(cb);
        }
        // Thin ranks: skip high-face sites the low-face pass visited.
        for &cb in op.faces.high_face(mu, out_parity) {
            if op.sub.cb_coords(out_parity, cb as usize)[mu] >= op.faces.depth {
                update(cb);
            }
        }
    }
}

/// One rank's random (non-physical) fat and long links with exchanged
/// ghosts; random links suffice for bit identity.
fn build_links<C: Communicator>(comm: &mut C, grid: &ProcessGrid) -> [GaugeField<f64>; 2] {
    let global = grid.global;
    let sub = Arc::new(SubLattice::for_rank(grid, comm.rank()));
    let faces = FaceGeometry::new(&sub, STAGGERED_DEPTH).unwrap();
    let seed = SeedTree::new(2027);
    let mut links = [("fat", 0.25), ("long", 0.15)].map(|(name, spread)| {
        let start = GaugeStart::Disordered(spread);
        GaugeField::<f64>::generate(sub.clone(), &faces, global, &seed.child(name), start)
    });
    for l in &mut links {
        l.exchange_ghosts(comm, &faces).unwrap();
    }
    links
}

/// One rank's f64 operator on [`build_links`].
fn build_op<C: Communicator>(comm: &mut C, grid: &ProcessGrid) -> StaggeredOp<f64> {
    let [fat, long] = build_links(comm, grid);
    StaggeredOp::new(fat, long, 0.1).unwrap()
}

/// Every bit of a field's allocation past the pad: body and ghost zones.
fn all_bits<R: Real>(f: &LatticeField<R, lqcd_su3::Su3<R>>) -> Vec<u64> {
    let mut bits: Vec<u64> = f.body().iter().map(|x| x.to_f64().to_bits()).collect();
    for mu in (0..NDIM).filter(|&mu| f.layout().ghost_sites[mu] > 0) {
        for forward in [false, true] {
            bits.extend(f.ghost_zone(mu, forward).iter().map(|x| x.to_f64().to_bits()));
        }
    }
    bits
}

/// The link stores give back the constructor's fields bit for bit,
/// bodies and ghost zones; and they hold the same reals as those fields
/// in allocations of the same size, the bodies permuted, so the operator
/// keeps one copy.
fn links_round_trip<R: Real>(fat: GaugeField<R>, long: GaugeField<R>) {
    let op = StaggeredOp::new(fat.clone(), long.clone(), 0.1).unwrap();
    let (got_fat, got_long) = op.to_gauge();
    for (got, want, store) in [(got_fat, fat, &op.fat), (got_long, long, &op.long)] {
        let fields = got.links.iter().flatten().zip(want.links.iter().flatten());
        for ((g, w), s) in fields.zip(store.fields()) {
            assert_eq!(g.layout(), w.layout());
            assert_eq!(all_bits(g), all_bits(w), "to_gauge");
            assert_eq!(s.layout(), w.layout(), "one allocation of the same size");
            let (mut held, mut given) = (all_bits(s), all_bits(w));
            assert_ne!(held, given, "the bodies are lane-major");
            held.sort_unstable();
            given.sort_unstable();
            assert_eq!(held, given, "the store holds the given reals");
        }
    }
}

#[test]
fn link_stores_hold_one_copy_and_round_trip_bitwise() {
    // Two ranks along T: ghost zones filled by the exchange.
    let grid = ProcessGrid::new(Dims([1, 1, 1, 2]), Dims([8, 8, 8, 8])).unwrap();
    let g = grid.clone();
    run_on_grid(grid, move |mut comm| {
        let [fat, long] = build_links(&mut comm, &g);
        links_round_trip(fat.cast::<f32>(), long.cast::<f32>());
        links_round_trip(fat, long);
    });
}

fn bits<R: Real>(f: &StaggeredField<R>) -> Vec<u64> {
    assert!(f.body().iter().any(|&x| x != R::ZERO), "an all-zero output proves nothing");
    f.body().iter().map(|x| x.to_f64().to_bits()).collect()
}

/// Run every entry point against the oracle; returns the names of those
/// whose outputs differ in any bit.
fn mismatches<R: Real, C: Communicator>(op: &StaggeredOp<R>, comm: &mut C) -> Vec<String> {
    let mut rng = SeedTree::new(9).child("src").stream(comm.rank() as u64);
    let mut random = |p: Parity| {
        let mut f = op.alloc(p);
        f.fill(|_| ColorVector::<f64>::random(&mut rng).cast());
        f
    };
    let (mut se, mut so) = (random(Parity::Even), random(Parity::Odd));
    let mut bad = Vec::new();
    let mut check = |name: String, a: &StaggeredField<R>, b: &StaggeredField<R>| {
        if bits(a) != bits(b) {
            bad.push(name);
        }
    };
    let even = || op.alloc(Parity::Even);
    let odd = || op.alloc(Parity::Odd);
    let oracle = Bound(op, Oracle);

    for mode in [BoundaryMode::Full, BoundaryMode::Dirichlet] {
        let mut want = even();
        overlap::dslash_sequential(&oracle, &mut want, &mut so, comm, mode).unwrap();
        let mut got = even();
        op.dslash(&mut got, &mut so, comm, mode).unwrap();
        check(format!("dslash {mode:?}"), &got, &want);
        let mut got = even();
        op.dslash_sequential(&mut got, &mut so, comm, mode).unwrap();
        check(format!("dslash_sequential {mode:?}"), &got, &want);

        // M†M: two oracle dslashes, then scale and axpy.
        let (mut got, mut scratch) = (even(), odd());
        op.apply_normal(&mut got, &mut se, &mut scratch, comm, mode).unwrap();
        let mut want = even();
        overlap::dslash_sequential(&oracle, &mut scratch, &mut se, comm, mode).unwrap();
        overlap::dslash_sequential(&oracle, &mut want, &mut scratch, comm, mode).unwrap();
        blas::scale(&mut want, -R::from_f64(0.25));
        blas::axpy(R::from_f64(op.mass * op.mass), &se, &mut want);
        check(format!("apply_normal {mode:?}"), &got, &want);
    }

    let (mut ge, mut go) = (even(), odd());
    op.apply_full(&mut ge, &mut go, &mut se, &mut so, comm, BoundaryMode::Full).unwrap();
    for (got, out_parity) in [(&ge, Parity::Even), (&go, Parity::Odd)] {
        let (src, hop_src) =
            if out_parity == Parity::Even { (&se, &mut so) } else { (&so, &mut se) };
        let mut want = op.alloc(out_parity);
        overlap::dslash_sequential(&oracle, &mut want, hop_src, comm, BoundaryMode::Full).unwrap();
        blas::scale(&mut want, -R::from_f64(0.5));
        blas::axpy(R::from_f64(op.mass), src, &mut want);
        check(format!("apply_full {out_parity:?}"), got, &want);
    }
    bad
}

/// Run `f` with `op` at every lane width the CPU supports, naming the
/// width (once with the operator's own kernels off x86_64).
fn at_every_width<R: Real>(op: &mut StaggeredOp<R>, mut f: impl FnMut(&StaggeredOp<R>, &str)) {
    #[cfg(target_arch = "x86_64")]
    for width in Width::supported() {
        op.force_width(width);
        f(op, &format!("{width:?}"));
    }
    #[cfg(not(target_arch = "x86_64"))]
    f(op, "generic");
}

/// The rank's operator in f64 at every lane width and in f32, at 1 and 2
/// interior threads.
fn all_mismatches<C: Communicator>(comm: &mut C, grid: &ProcessGrid) -> Vec<String> {
    let mut op64 = build_op(comm, grid);
    let (fat, long) = op64.to_gauge();
    let op32 = StaggeredOp::new(fat.cast::<f32>(), long.cast::<f32>(), op64.mass).unwrap();
    let rank = comm.rank();
    let mut bad = Vec::new();
    for threads in [1, 2] {
        let tag = |name| format!("rank {rank}, {threads} threads: {name}");
        at_every_width(&mut op64, |op64, width| {
            op64.set_interior_threads(threads);
            bad.extend(mismatches(op64, comm).into_iter().map(|n| tag(format!("f64 {width} {n}"))));
        });
        op32.set_interior_threads(threads);
        bad.extend(mismatches(&op32, comm).into_iter().map(|n| tag(format!("f32 {n}"))));
    }
    bad
}

/// Every entry point on process grid `dims` over `global`; returns the
/// mismatches of every rank.
fn grid_mismatches(global: Dims, dims: [usize; 4]) -> Vec<String> {
    let grid = ProcessGrid::new(Dims(dims), global).unwrap();
    let g = grid.clone();
    run_on_grid(grid, move |mut comm| all_mismatches(&mut comm, &g)).concat()
}

#[test]
fn dispatch_picks_the_widest_width_for_f64_only() {
    let grid = ProcessGrid::new(Dims([1, 1, 1, 1]), GLOBAL).unwrap();
    let mut comm = SingleComm::new(GLOBAL).unwrap();
    let op = build_op(&mut comm, &grid);
    let want = if cfg!(target_arch = "x86_64") { "Simd" } else { "Generic" };
    assert!(op.kernels_name().ends_with(want), "{}", op.kernels_name());
    // The widest width the CPU supports: AVX2 where it exists.
    #[cfg(target_arch = "x86_64")]
    {
        assert_eq!(matches!(op.width, Width::Avx2(_)), is_x86_feature_detected!("avx2"));
        // `Clone` carries the width rather than detecting it again.
        let mut narrow = op.clone();
        narrow.force_width(Width::Sse2);
        assert!(matches!(narrow.clone().width, Width::Sse2));
    }
    let (fat, long) = op.to_gauge();
    let op32 = StaggeredOp::new(fat.cast::<f32>(), long.cast::<f32>(), 0.1).unwrap();
    assert!(op32.kernels_name().ends_with("Generic"), "{}", op32.kernels_name());
}

#[test]
fn unpartitioned_entry_points_match_oracle_bitwise() {
    let bad = grid_mismatches(GLOBAL, [1, 1, 1, 1]);
    assert!(bad.is_empty(), "{bad:?}");
}

#[test]
fn partitioned_entry_points_match_oracle_bitwise() {
    // Two ranks along T (L_t = 4 < 2·3: overlapping face lists), then a
    // 1×2×1×2 grid (thin in Y and T, corner sites in both).
    for shape in [[1, 1, 1, 2], [1, 2, 1, 2]] {
        let bad = grid_mismatches(GLOBAL, shape);
        assert!(bad.is_empty(), "{shape:?}: {bad:?}");
    }
}

/// Two ranks along T, each 6×4×4×4: a checkerboard row holds three
/// sites, so a group of four straddles two rows, where `x` changes
/// parity and with it `η_y`.
const ODD_ROWS: (Dims, [usize; 4]) = (Dims([6, 4, 4, 8]), [1, 1, 1, 2]);

/// Two ranks along X, each 4×4×4×8: the sites of a group differ in which
/// of their X hops are ghosts.
const X_SPLIT: (Dims, [usize; 4]) = (Dims([8, 4, 4, 8]), [2, 1, 1, 1]);

/// The geometry of `multishift_asqtad`: two ranks along T, each 8×8×8×4,
/// so a lane-major group is one checkerboard row.
const T_SPLIT_8: (Dims, [usize; 4]) = (Dims([8, 8, 8, 8]), [1, 1, 1, 2]);

/// How the lane-major groups of rank 0 take their interior hops, both
/// parities: `[uniform, rotated, per-lane, per-lane with ghost lanes]`
/// (the last also counted in the third).
fn group_kinds((global, dims): (Dims, [usize; 4])) -> [usize; 4] {
    let grid = ProcessGrid::new(Dims(dims), global).unwrap();
    let sub = SubLattice::for_rank(&grid, 0);
    let nbrs = NeighborTable::new(&sub, STAGGERED_DEPTH).unwrap();
    let groups = kernels::GroupHops::new(&nbrs, sub.volume_cb());
    let mut kinds = [0; 4];
    for p in Parity::BOTH {
        for g in 0..sub.volume_cb() / 4 {
            for (e, &kind) in groups.hops(p, g).iter().enumerate() {
                match kind {
                    kernels::GroupHops::SKIP => {}
                    kernels::GroupHops::PER_LANE => {
                        kinds[2] += 1;
                        let ghost = |k| nbrs.hops::<16>(p, 4 * g + k)[e] & NeighborTable::GHOST;
                        kinds[3] += (0..4).any(|k| ghost(k) != 0) as usize;
                    }
                    _ if kind & 3 == 0 => kinds[0] += 1,
                    _ => kinds[1] += 1,
                }
            }
        }
    }
    kinds
}

#[test]
fn geometries_reach_every_group_kind() {
    // One row per group: every hop loads whole registers, the X hops
    // with their lanes rotated.
    let [uniform, rotated, per_lane, _] = group_kinds(T_SPLIT_8);
    assert!(
        uniform > 0 && rotated > 0 && per_lane == 0,
        "8⁴ on 1×1×1×2: {uniform} {rotated} {per_lane}"
    );
    // Rows of three sites: groups straddle rows and read lane by lane.
    let [_, _, per_lane, _] = group_kinds(ODD_ROWS);
    assert!(per_lane > 0, "odd rows: {per_lane} per-lane");
    // The X split: some lanes of a group hop into the ghost zone.
    let [_, _, _, blended] = group_kinds(X_SPLIT);
    assert!(blended > 0, "X split: {blended} per-lane with ghost lanes");
}

#[test]
fn odd_row_and_x_split_entry_points_match_oracle_bitwise() {
    for (global, dims) in [ODD_ROWS, X_SPLIT] {
        let bad = grid_mismatches(global, dims);
        assert!(bad.is_empty(), "{global:?} on {dims:?}: {bad:?}");
    }
}

#[test]
fn row_group_entry_points_match_oracle_bitwise() {
    let (global, dims) = T_SPLIT_8;
    let bad = grid_mismatches(global, dims);
    assert!(bad.is_empty(), "{global:?} on {dims:?}: {bad:?}");
}

/// The in-place passes of `apply_normal` and `apply_full` against the
/// scale-then-axpy composition they fold, through the dispatching
/// dslash, bit for bit.
fn fused_matches_composition<R: Real>(op: &StaggeredOp<R>) {
    let mut comm = SingleComm::new(GLOBAL).unwrap();
    let comm = &mut comm;
    let mut rng = SeedTree::new(10).rng();
    let mut random = |p: Parity| {
        let mut f = op.alloc(p);
        f.fill(|_| ColorVector::<f64>::random(&mut rng).cast());
        f
    };
    let (mut se, mut so) = (random(Parity::Even), random(Parity::Odd));
    let full = BoundaryMode::Full;

    let (mut got, mut scratch) = (op.alloc(Parity::Even), op.alloc(Parity::Odd));
    op.apply_normal(&mut got, &mut se, &mut scratch, comm, full).unwrap();
    let mut want = op.alloc(Parity::Even);
    op.dslash(&mut scratch, &mut se, comm, full).unwrap();
    op.dslash(&mut want, &mut scratch, comm, full).unwrap();
    blas::scale(&mut want, -R::from_f64(0.25));
    blas::axpy(R::from_f64(op.mass * op.mass), &se, &mut want);
    assert_eq!(bits(&got), bits(&want), "apply_normal");

    let (mut ge, mut go) = (op.alloc(Parity::Even), op.alloc(Parity::Odd));
    op.apply_full(&mut ge, &mut go, &mut se, &mut so, comm, full).unwrap();
    for (got, out_parity) in [(&ge, Parity::Even), (&go, Parity::Odd)] {
        let (src, hop_src) =
            if out_parity == Parity::Even { (&se, &mut so) } else { (&so, &mut se) };
        let mut want = op.alloc(out_parity);
        op.dslash(&mut want, hop_src, comm, full).unwrap();
        blas::scale(&mut want, -R::from_f64(0.5));
        blas::axpy(R::from_f64(op.mass), src, &mut want);
        assert_eq!(bits(got), bits(&want), "apply_full {out_parity:?}");
    }
}

#[test]
fn in_place_passes_match_the_unfused_composition() {
    let grid = ProcessGrid::new(Dims([1, 1, 1, 1]), GLOBAL).unwrap();
    let mut comm = SingleComm::new(GLOBAL).unwrap();
    let op = build_op(&mut comm, &grid);
    fused_matches_composition(&op);
    let (fat, long) = op.to_gauge();
    fused_matches_composition(
        &StaggeredOp::new(fat.cast::<f32>(), long.cast::<f32>(), op.mass).unwrap(),
    );
}
