//! Flight-recorder coverage under chaos: a lossy `ThreadedComm` world runs
//! traced exchanges and reductions; the collected per-rank buffers must
//! stay well-formed (every span `Begin` closed by an `End` on its track)
//! and must record the ARQ retransmissions the fault plan forces.

use lqcd_comms::{
    run_world_fallible, CommConfig, Communicator, FaultPlan, FaultRule, MsgClass, ThreadedComm,
};
use lqcd_lattice::{Dims, ProcessGrid};
use lqcd_util::trace;
use std::collections::BTreeMap;

#[test]
fn chaos_world_spans_stay_balanced_and_record_retries() {
    trace::clear();
    trace::enable();
    let plan = FaultPlan::new(23)
        .with_rule(FaultRule::drop_message().data_only().with_probability(0.3))
        .with_rule(FaultRule::drop_message().for_class(MsgClass::Ack).with_probability(0.2));
    let config = CommConfig::resilient();
    let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), Dims([4, 4, 8, 8])).unwrap();
    let comms = ThreadedComm::world_with(grid, config, Some(plan));
    let results = run_world_fallible(comms, |mut comm| {
        let me = comm.rank() as f64;
        for round in 0..4 {
            let h = comm.start_send_recv(3, true, &[me, round as f64]).unwrap();
            let mut r = [0.0; 2];
            comm.complete_send_recv(h, &mut r).unwrap();
            let mut v = [me];
            comm.allreduce_sum(&mut v).unwrap();
        }
        comm.barrier().unwrap();
        comm.exchange_retries()
    });
    trace::disable();
    let retries: u64 = results.into_iter().map(|r| r.unwrap()).sum();
    assert!(retries > 0, "the fault plan must force at least one retransmission");

    let ranks = trace::take();
    assert_eq!(ranks.len(), 4, "one merged buffer per rank");
    let mut retry_instants = 0u64;
    for (rank, events) in &ranks {
        assert!(!events.is_empty(), "rank {rank} recorded nothing");
        assert!(
            events.iter().any(|e| e.name == "allreduce"),
            "rank {rank}: no allreduce span recorded"
        );
        // Per-track span balance, in timestamp order as `take` returns it.
        let mut depth: BTreeMap<u64, i64> = BTreeMap::new();
        for e in events {
            match e.kind {
                trace::EventKind::Begin => *depth.entry(e.track.tid()).or_default() += 1,
                trace::EventKind::End => {
                    let d = depth.entry(e.track.tid()).or_default();
                    *d -= 1;
                    assert!(*d >= 0, "rank {rank}: End without Begin on {:?}", e.track);
                }
                _ => {}
            }
            if e.name == "arq_retry" {
                retry_instants += 1;
            }
        }
        for (tid, d) in depth {
            assert_eq!(d, 0, "rank {rank}: track {tid} finished with open spans");
        }
    }
    assert!(retry_instants > 0, "retries happened but no arq_retry instants were recorded");
}
