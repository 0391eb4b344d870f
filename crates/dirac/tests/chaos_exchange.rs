//! Chaos property test: ghost-zone exchange under injected message loss
//! (with the deadline/retry protocol absorbing it) must be *bit-identical*
//! to the fault-free exchange — dropped, retransmitted, and reordered
//! traffic may never change the physics.

use lqcd_comms::{
    run_world_fallible, CommConfig, Communicator, FaultPlan, FaultRule, ThreadedComm,
};
use lqcd_dirac::exchange::exchange_ghosts;
use lqcd_field::LatticeField;
use lqcd_lattice::{Dims, FaceGeometry, Parity, ProcessGrid, SubLattice, NDIM};
use lqcd_su3::ColorVector;
use lqcd_util::rng::SeedTree;
use proptest::prelude::*;
use std::sync::Arc;

const GLOBAL: Dims = Dims([4, 4, 8, 8]);

/// 2-rank and 4-rank partitionings of the global lattice.
const SHAPES: [[usize; 4]; 5] =
    [[1, 1, 1, 2], [1, 1, 2, 1], [1, 1, 2, 2], [1, 1, 1, 4], [1, 2, 1, 2]];

/// One rank's exchange: fill a deterministic field keyed on global site
/// indices, exchange, and return every ghost zone plus the fault count.
fn rank_exchange<C: Communicator>(
    mut comm: C,
    grid: &ProcessGrid,
    parity: Parity,
    seed: u64,
) -> (Vec<Vec<f64>>, u64) {
    let sub = Arc::new(SubLattice::for_rank(grid, comm.rank()));
    let faces = FaceGeometry::new(&sub, 1).unwrap();
    let mut field: LatticeField<f64, ColorVector<f64>> =
        LatticeField::zeros(sub.clone(), &faces, parity, 0);
    let subc = sub.clone();
    let tree = SeedTree::new(seed);
    field.fill(|idx| {
        let c = subc.cb_coords(parity, idx);
        let mut gc = c;
        for d in 0..4 {
            gc[d] = c[d] + subc.origin[d];
        }
        ColorVector::random(&mut tree.child("src").stream(GLOBAL.index(gc) as u64))
    });
    exchange_ghosts(&mut field, &faces, &mut comm).unwrap();
    let mut zones = Vec::new();
    for mu in 0..NDIM {
        if !sub.partitioned[mu] {
            continue;
        }
        for fwd in [false, true] {
            zones.push(field.ghost_zone(mu, fwd).to_vec());
        }
    }
    (zones, comm.faults_survived())
}

/// Run one exchange per rank of `grid` (optionally under a fault plan)
/// and return the per-rank ghost zones in rank order.
fn exchanged_ghosts(
    grid: &ProcessGrid,
    parity: Parity,
    seed: u64,
    plan: Option<FaultPlan>,
) -> Vec<(Vec<Vec<f64>>, u64)> {
    let config = CommConfig::resilient();
    let g = grid.clone();
    let comms = ThreadedComm::world_with(grid.clone(), config, plan);
    let results = run_world_fallible(comms, move |c| rank_exchange(c, &g, parity, seed));
    results
        .into_iter()
        .enumerate()
        .map(|(rank, r)| r.unwrap_or_else(|e| panic!("rank {rank} failed: {e}")))
        .collect()
}

fn assert_bit_identical(clean: &[(Vec<Vec<f64>>, u64)], chaotic: &[(Vec<Vec<f64>>, u64)]) {
    for (rank, (c, f)) in clean.iter().zip(chaotic).enumerate() {
        assert_eq!(c.0.len(), f.0.len(), "rank {rank} ghost-zone count differs");
        for (zc, zf) in c.0.iter().zip(&f.0) {
            assert!(
                zc.iter().zip(zf).all(|(a, b)| a.to_bits() == b.to_bits()),
                "rank {rank} ghost zone differs under faults"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Any bounded burst of dropped data messages, on any rank of any
    // partitioning, at either parity, is invisible after retries.
    #[test]
    fn dropped_messages_leave_ghosts_bit_identical(
        shape_idx in 0usize..5,
        parity_idx in 0usize..2,
        victim in 0usize..4,
        after in 0u64..4,
        burst in 1u64..4,
        seed in 0u64..1000,
    ) {
        let shape = Dims(SHAPES[shape_idx]);
        let grid = ProcessGrid::new(shape, GLOBAL).unwrap();
        let parity = if parity_idx == 0 { Parity::Even } else { Parity::Odd };
        let victim = victim % grid.num_ranks();
        // The victim sends exactly 2 data messages per partitioned dim;
        // keep the skip count inside that budget so the rule must fire.
        let sends = 2 * shape.0.iter().filter(|&&e| e > 1).count() as u64;
        let after = after % sends;

        let clean = exchanged_ghosts(&grid, parity, seed, None);
        let plan = FaultPlan::new(seed ^ 0xc4a05).with_rule(
            FaultRule::drop_message()
                .on_rank(victim)
                .data_only()
                .after(after)
                .times(burst),
        );
        let chaotic = exchanged_ghosts(&grid, parity, seed, Some(plan));

        assert_bit_identical(&clean, &chaotic);
        let survived: u64 = chaotic.iter().map(|(_, f)| *f).sum();
        prop_assert!(survived > 0, "fault plan never fired");
    }
}

/// Duplicated and delayed (reordered) traffic must equally be invisible —
/// the per-edge sequence numbers dedup and reorder on the receive side.
#[test]
fn duplicates_and_delays_leave_ghosts_bit_identical() {
    for (kind_idx, rule) in [
        FaultRule::duplicate_message().on_rank(0).data_only().times(4),
        FaultRule::delay_message(std::time::Duration::from_millis(30))
            .on_rank(1)
            .data_only()
            .times(3),
    ]
    .into_iter()
    .enumerate()
    {
        let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), GLOBAL).unwrap();
        let clean = exchanged_ghosts(&grid, Parity::Even, 7, None);
        let chaotic =
            exchanged_ghosts(&grid, Parity::Even, 7, Some(FaultPlan::new(41).with_rule(rule)));
        assert_bit_identical(&clean, &chaotic);
        assert!(
            chaotic.iter().map(|(_, f)| *f).sum::<u64>() > 0,
            "kind {kind_idx}: fault plan never fired"
        );
    }
}
