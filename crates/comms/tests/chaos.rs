//! Chaos suite for the comms world: under every injected fault class the
//! system either completes with the correct values (after retries) or
//! returns a clean structured error — it never hangs and never silently
//! corrupts an exchange the ARQ layer is responsible for.

use lqcd_comms::{
    run_world_fallible, CommConfig, Communicator, FaultPlan, FaultRule, MsgClass, ThreadedComm,
};
use lqcd_lattice::{Dims, ProcessGrid};
use lqcd_util::Error;
use std::time::Duration;

fn ring(n: usize) -> ProcessGrid {
    ProcessGrid::new(Dims([1, 1, 1, n]), Dims([4, 4, 4, (4 * n).max(8)])).unwrap()
}

/// The regression the deadline protocol exists for: before it, a dropped
/// message meant the receiver blocked forever. Now it must surface a
/// structured timeout naming the missing edge, within the deadline.
#[test]
fn dropped_message_times_out_cleanly_without_retries() {
    let grid = ring(2);
    let config = CommConfig::default().with_timeout(Duration::from_millis(250)).with_retries(0);
    let plan =
        FaultPlan::new(3).with_rule(FaultRule::drop_message().on_rank(0).data_only().times(1));
    let comms = ThreadedComm::world_with(grid, config, Some(plan));
    let started = std::time::Instant::now();
    let results = run_world_fallible(comms, |mut comm| {
        let mut recv = [0.0f64; 2];
        comm.send_recv(3, true, &[comm.rank() as f64; 2], &mut recv)
    });
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "timeout path took far longer than the deadline"
    );
    // Rank 0's message to rank 1 was dropped: rank 1 must report a
    // timeout naming that edge; rank 0 received fine.
    match &results[1] {
        Ok(Err(Error::Timeout { rank: 1, peer: 0, mu: Some(3), .. })) => {}
        other => panic!("expected rank 1 timeout on peer 0, got {other:?}"),
    }
    assert!(matches!(&results[0], Ok(Ok(()))), "rank 0 should have completed");
}

/// Drop, duplicate, and delay are all absorbed by the retry protocol:
/// repeated exchanges and reductions still produce exact values.
#[test]
fn drop_dup_delay_are_invisible_under_arq() {
    for (name, rule) in [
        ("drop", FaultRule::drop_message().on_rank(1).data_only().times(3)),
        ("dup", FaultRule::duplicate_message().on_rank(2).times(5)),
        ("delay", FaultRule::delay_message(Duration::from_millis(40)).on_rank(0).times(3)),
        ("drop-reduce", FaultRule::drop_message().on_rank(2).for_class(MsgClass::Reduce).times(2)),
        ("drop-ack", FaultRule::drop_message().on_rank(0).for_class(MsgClass::Ack).times(2)),
    ] {
        let grid = ring(4);
        let plan = Some(FaultPlan::new(17).with_rule(rule));
        let comms = ThreadedComm::world_with(grid, CommConfig::resilient(), plan);
        let results = run_world_fallible(comms, |mut comm| {
            let n = comm.size();
            let mut ghost_sum = 0.0;
            for round in 0..4u64 {
                let me = (comm.rank() as u64 * 100 + round) as f64;
                let mut recv = [0.0f64; 3];
                comm.send_recv(3, true, &[me; 3], &mut recv).unwrap();
                let from = (comm.rank() + n - 1) % n;
                assert_eq!(recv, [(from as u64 * 100 + round) as f64; 3]);
                ghost_sum += recv[0];
                let total = comm.sum_scalar(1.0).unwrap();
                assert_eq!(total, n as f64);
            }
            (ghost_sum, comm.faults_survived(), comm.exchange_retries())
        });
        let mut survived_any = 0;
        for (slot, r) in results.into_iter().enumerate() {
            let (_, survived, _) = r.unwrap_or_else(|e| panic!("[{name}] rank {slot}: {e}"));
            survived_any = survived_any.max(survived);
        }
        assert!(survived_any > 0, "[{name}] fault plan never fired");
    }
}

/// Corruption is *not* the comm layer's to detect: the payload must be
/// delivered (exactly one NaN) and counted, with detection left to the
/// numerics above (see the solver breakdown tests).
#[test]
fn corruption_is_delivered_and_counted() {
    let grid = ring(2);
    let plan =
        FaultPlan::new(5).with_rule(FaultRule::corrupt_payload().on_rank(0).data_only().times(1));
    let comms = ThreadedComm::world_with(grid, CommConfig::default(), Some(plan));
    let results = run_world_fallible(comms, |mut comm| {
        let mut recv = [0.0f64; 8];
        comm.send_recv(3, true, &[2.5f64; 8], &mut recv).unwrap();
        let nans = recv.iter().filter(|v| v.is_nan()).count();
        let intact = recv.iter().filter(|&&v| v == 2.5).count();
        (nans, intact, comm.faults_survived())
    });
    let out: Vec<_> = results.into_iter().map(|r| r.unwrap()).collect();
    // Rank 1 received the corrupted payload; rank 0 received clean data.
    assert_eq!((out[1].0, out[1].1), (1, 7), "rank 1 should see exactly one NaN");
    assert_eq!((out[0].0, out[0].1), (0, 8), "rank 0's receive should be clean");
    assert!(out.iter().all(|o| o.2 == 1), "the corruption must be counted");
}

/// A stall shorter than the deadline is invisible; one longer than the
/// deadline surfaces as a timeout on the peers — never a hang.
#[test]
fn stalls_respect_the_deadline() {
    // Short stall, generous deadline: completes.
    let grid = ring(2);
    let plan = FaultPlan::new(9)
        .with_rule(FaultRule::stall_rank(Duration::from_millis(50)).on_rank(1).times(1));
    let comms = ThreadedComm::world_with(grid, CommConfig::resilient(), Some(plan));
    let results = run_world_fallible(comms, |mut comm| {
        let mut recv = [0.0f64];
        comm.send_recv(3, true, &[1.0], &mut recv).unwrap();
        comm.sum_scalar(1.0).unwrap()
    });
    for r in results {
        assert_eq!(r.unwrap(), 2.0);
    }

    // Stall far past the deadline, no retries: the healthy rank times
    // out with a structured error instead of waiting forever.
    let grid = ring(2);
    let config = CommConfig::default().with_timeout(Duration::from_millis(200)).with_retries(0);
    let plan = FaultPlan::new(9)
        .with_rule(FaultRule::stall_rank(Duration::from_millis(800)).on_rank(1).times(1));
    let comms = ThreadedComm::world_with(grid, config, Some(plan));
    let started = std::time::Instant::now();
    let results = run_world_fallible(comms, |mut comm| {
        let mut recv = [0.0f64];
        comm.send_recv(3, true, &[1.0], &mut recv)
    });
    assert!(started.elapsed() < Duration::from_secs(5));
    assert!(
        matches!(&results[0], Ok(Err(Error::Timeout { rank: 0, peer: 1, .. }))),
        "rank 0 should time out on the stalled rank, got {:?}",
        results[0]
    );
}

/// A dying rank is reported in its own slot; every peer unwinds with a
/// structured error (timeout or rank-failure) instead of hanging.
#[test]
fn rank_death_is_reported_and_peers_unwind() {
    let grid = ring(4);
    let config = CommConfig::resilient().with_timeout(Duration::from_secs(2));
    let plan = FaultPlan::new(13).with_rule(FaultRule::die_rank().on_rank(2).after(2).times(1));
    let comms = ThreadedComm::world_with(grid, config, Some(plan));
    let started = std::time::Instant::now();
    let results = run_world_fallible(comms, |mut comm| -> lqcd_util::Result<f64> {
        let mut total = 0.0;
        for _ in 0..4 {
            let mut recv = [0.0f64];
            comm.send_recv(3, true, &[1.0], &mut recv)?;
            total += comm.sum_scalar(1.0)?;
        }
        Ok(total)
    });
    assert!(started.elapsed() < Duration::from_secs(30), "death must not hang the world");
    match &results[2] {
        Err(Error::RankFailure { rank: 2, detail }) => {
            assert!(detail.contains("injected fault"), "detail: {detail}");
        }
        other => panic!("expected rank 2's own failure, got {other:?}"),
    }
    for (slot, r) in results.iter().enumerate() {
        if slot == 2 {
            continue;
        }
        match r {
            Ok(Err(Error::Timeout { .. } | Error::RankFailure { .. })) => {}
            Ok(Ok(_)) | Ok(Err(_)) | Err(_) => {
                panic!("rank {slot}: expected a structured unwind, got {r:?}")
            }
        }
    }
}
