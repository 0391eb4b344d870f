//! The disabled flight recorder must stay off the dslash hot path: with
//! tracing off (the default), a warmed-up dslash apply of either operator
//! performs zero heap allocations. A counting global allocator makes the check exact —
//! any gated trace call that allocates while disabled fails this test.

use lqcd_comms::SingleComm;
use lqcd_dirac::{BoundaryMode, StaggeredOp, WilsonCloverOp, STAGGERED_DEPTH};
use lqcd_gauge::field::GaugeStart;
use lqcd_gauge::GaugeField;
use lqcd_lattice::{Dims, FaceGeometry, Parity, SubLattice};
use lqcd_util::rng::SeedTree;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[test]
fn disabled_recorder_adds_no_allocations_to_dslash() {
    assert!(!lqcd_util::trace::is_enabled(), "tracing must be off for this test");
    let global = Dims([4, 4, 4, 8]);
    let sub = Arc::new(SubLattice::single(global).unwrap());
    let faces = FaceGeometry::new(&sub, 1).unwrap();
    let gauge = GaugeField::<f64>::generate(
        sub,
        &faces,
        global,
        &SeedTree::new(5),
        GaugeStart::Disordered(0.3),
    );
    let op = WilsonCloverOp::new(gauge, None, 0.1).unwrap();
    let mut comm = SingleComm::new(global).unwrap();
    let mut src = op.alloc(Parity::Even);
    let mut out = op.alloc(Parity::Odd);
    // Warm up: first applies may size internal buffers.
    for _ in 0..3 {
        op.dslash(&mut out, &mut src, &mut comm, BoundaryMode::Full).unwrap();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..10 {
        op.dslash(&mut out, &mut src, &mut comm, BoundaryMode::Full).unwrap();
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(delta, 0, "warmed-up dslash with tracing disabled must not allocate");

    // The asqtad operator runs the same pipeline; same check, in the same
    // test so no concurrent test thread shares the counter.
    let sub = Arc::new(SubLattice::single(global).unwrap());
    let faces = FaceGeometry::new(&sub, STAGGERED_DEPTH).unwrap();
    let start = GaugeStart::Disordered(0.3);
    let fat = GaugeField::<f64>::generate(sub, &faces, global, &SeedTree::new(6), start);
    let op = StaggeredOp::new(fat.clone(), fat, 0.1).unwrap();
    let mut src = op.alloc(Parity::Even);
    let mut out = op.alloc(Parity::Odd);
    for _ in 0..3 {
        op.dslash(&mut out, &mut src, &mut comm, BoundaryMode::Full).unwrap();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..10 {
        op.dslash(&mut out, &mut src, &mut comm, BoundaryMode::Full).unwrap();
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(delta, 0, "warmed-up asqtad dslash with tracing disabled must not allocate");
}
