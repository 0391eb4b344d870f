//! Deterministic fault injection for the threaded comms world.
//!
//! A [`FaultPlan`] is a declarative, seeded list of [`FaultRule`]s,
//! attached to a world by
//! [`ThreadedComm::world_with`](crate::ThreadedComm::world_with). Wire-level
//! faults (drop, duplicate, delay, corrupt) are applied by the world's
//! message-post path; rank-level faults (stall, death) fire once per
//! posted exchange (blocking or not) and once per reduction, before any
//! of its traffic. All randomness comes from the plan's seed, so a
//! chaos test replays identically on every run.
//!
//! ```
//! use lqcd_comms::{CommConfig, Communicator, FaultPlan, FaultRule, ThreadedComm,
//!                  run_world_fallible};
//! use lqcd_lattice::{Dims, ProcessGrid};
//!
//! let grid = ProcessGrid::new(Dims([1, 1, 1, 2]), Dims([4, 4, 4, 8])).unwrap();
//! // Drop the first data message rank 0 sends; the ARQ layer retransmits.
//! let plan = FaultPlan::new(7)
//!     .with_rule(FaultRule::drop_message().on_rank(0).data_only().times(1));
//! let comms = ThreadedComm::world_with(grid, CommConfig::resilient(), Some(plan));
//! let results = run_world_fallible(comms, |mut comm| {
//!     let me = comm.rank() as f64;
//!     let mut recv = [0.0f64];
//!     comm.send_recv(3, true, &[me], &mut recv).unwrap();
//!     (recv[0], comm.faults_survived())
//! });
//! for (slot, r) in results.into_iter().enumerate() {
//!     let (got, survived) = r.unwrap();
//!     assert_eq!(got, (1 - slot) as f64);
//!     assert_eq!(survived, 1);
//! }
//! ```

use crate::threaded::{self, TAG_ACK, TAG_EXCHANGE};
use std::sync::Mutex;
use std::time::Duration;

/// The fault taxonomy. `Drop`/`Duplicate`/`Delay`/`Corrupt` act on
/// messages in flight; `Stall`/`Die` act on a rank itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The message is never delivered.
    Drop,
    /// The message is delivered twice.
    Duplicate,
    /// Delivery is deferred by the given duration (reordering it behind
    /// later traffic).
    Delay(Duration),
    /// One payload element is overwritten with NaN — an undetected
    /// transmission error that must be caught numerically downstream.
    Corrupt,
    /// The rank sleeps for the given duration before its next
    /// communicator operation.
    Stall(Duration),
    /// The rank panics at its next communicator operation.
    Die,
}

impl FaultKind {
    fn is_wire(&self) -> bool {
        matches!(
            self,
            FaultKind::Drop | FaultKind::Duplicate | FaultKind::Delay(_) | FaultKind::Corrupt
        )
    }
}

/// Message classes a rule can be scoped to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgClass {
    /// Ghost-zone exchange data.
    Exchange,
    /// ARQ acknowledgements.
    Ack,
    /// Reduction traffic (gather and broadcast).
    Reduce,
}

fn classify(tag: u64) -> MsgClass {
    match threaded::tag_class(tag) {
        TAG_EXCHANGE => MsgClass::Exchange,
        TAG_ACK => MsgClass::Ack,
        _ => MsgClass::Reduce,
    }
}

/// One fault rule: what to inject, where, and how often.
#[derive(Clone, Debug)]
pub struct FaultRule {
    kind: FaultKind,
    rank: Option<usize>,
    peer: Option<usize>,
    mu: Option<usize>,
    class: Option<MsgClass>,
    reduction: Option<u64>,
    probability: f64,
    after: u64,
    max_hits: Option<u64>,
}

impl FaultRule {
    /// A rule injecting `kind` on every eligible event (scope it down
    /// with the builder methods).
    pub fn new(kind: FaultKind) -> Self {
        FaultRule {
            kind,
            rank: None,
            peer: None,
            mu: None,
            class: None,
            reduction: None,
            probability: 1.0,
            after: 0,
            max_hits: None,
        }
    }

    /// Drop messages.
    pub fn drop_message() -> Self {
        Self::new(FaultKind::Drop)
    }

    /// Deliver messages twice.
    pub fn duplicate_message() -> Self {
        Self::new(FaultKind::Duplicate)
    }

    /// Defer delivery by `delay`.
    pub fn delay_message(delay: Duration) -> Self {
        Self::new(FaultKind::Delay(delay))
    }

    /// Overwrite one payload element with NaN.
    pub fn corrupt_payload() -> Self {
        Self::new(FaultKind::Corrupt)
    }

    /// Sleep the rank for `pause` before an operation.
    pub fn stall_rank(pause: Duration) -> Self {
        Self::new(FaultKind::Stall(pause))
    }

    /// Panic the rank at an operation.
    pub fn die_rank() -> Self {
        Self::new(FaultKind::Die)
    }

    /// Restrict to events originated by `rank` (the sender for wire
    /// faults, the acting rank for stall/death).
    pub fn on_rank(mut self, rank: usize) -> Self {
        self.rank = Some(rank);
        self
    }

    /// Restrict wire faults to messages destined for `peer`.
    pub fn to_peer(mut self, peer: usize) -> Self {
        self.peer = Some(peer);
        self
    }

    /// Restrict wire faults to exchanges along grid dimension `mu`.
    pub fn for_mu(mut self, mu: usize) -> Self {
        self.mu = Some(mu);
        self
    }

    /// Restrict wire faults to one message class.
    pub fn for_class(mut self, class: MsgClass) -> Self {
        self.class = Some(class);
        self
    }

    /// Shorthand for [`Self::for_class`] with [`MsgClass::Exchange`].
    pub fn data_only(self) -> Self {
        self.for_class(MsgClass::Exchange)
    }

    /// Restrict wire faults to one logical reduction: the traffic of the
    /// communicator's `seq`-th reduction (0-based), every copy of it. A
    /// retransmitted contribution carries the same sequence number, so
    /// the fault follows the reduction rather than a wire-message count
    /// that a retransmit of an earlier reduction could take.
    pub fn for_reduction(mut self, seq: u64) -> Self {
        self.reduction = Some(seq);
        self
    }

    /// Fire with probability `p` per eligible event instead of always.
    pub fn with_probability(mut self, p: f64) -> Self {
        self.probability = p.clamp(0.0, 1.0);
        self
    }

    /// Skip the first `n` eligible events before becoming active.
    pub fn after(mut self, n: u64) -> Self {
        self.after = n;
        self
    }

    /// Fire at most `n` times in total.
    pub fn times(mut self, n: u64) -> Self {
        self.max_hits = Some(n);
        self
    }

    fn matches_wire(&self, from: usize, to: usize, tag: u64) -> bool {
        self.kind.is_wire()
            && self.rank.is_none_or(|r| r == from)
            && self.peer.is_none_or(|p| p == to)
            && self.class.is_none_or(|c| c == classify(tag))
            && self
                .mu
                .is_none_or(|m| classify(tag) != MsgClass::Reduce && m == threaded::tag_mu(tag))
            && self
                .reduction
                .is_none_or(|s| classify(tag) == MsgClass::Reduce && s == threaded::tag_seq(tag))
    }

    fn matches_rank(&self, rank: usize) -> bool {
        !self.kind.is_wire() && self.rank.is_none_or(|r| r == rank)
    }
}

/// A seeded, declarative set of fault rules.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan drawing randomness from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, rules: Vec::new() }
    }

    /// Add a rule.
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }
}

#[derive(Default)]
struct RuleCounter {
    seen: u64,
    hits: u64,
}

/// Shared runtime state of a plan: rule counters plus the seeded RNG.
/// One instance is shared by every rank of the world, so `hits()` is a
/// world-global count of injected faults.
pub(crate) struct FaultState {
    rules: Vec<FaultRule>,
    rng: Mutex<u64>,
    counters: Mutex<Vec<RuleCounter>>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let counters = plan.rules.iter().map(|_| RuleCounter::default()).collect();
        FaultState {
            rules: plan.rules,
            rng: Mutex::new(plan.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1),
            counters: Mutex::new(counters),
        }
    }

    fn next_unit(&self) -> f64 {
        // SplitMix64 behind a mutex: cross-rank ordering of draws is
        // scheduling-dependent, but deterministic rules (p = 1.0, times
        // bounds) never consult it — those are the reproducible ones
        // chaos tests rely on.
        let mut state = self.rng.lock().unwrap_or_else(|e| e.into_inner());
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Whether rule `i` fires for one eligible event.
    fn fire(&self, i: usize) -> Option<FaultKind> {
        let rule = &self.rules[i];
        {
            let mut counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
            let c = &mut counters[i];
            c.seen += 1;
            if c.seen <= rule.after {
                return None;
            }
            if rule.max_hits.is_some_and(|m| c.hits >= m) {
                return None;
            }
            if rule.probability >= 1.0 {
                c.hits += 1;
                return Some(rule.kind);
            }
        }
        // Probabilistic rules draw outside the counter lock.
        if self.next_unit() < self.rules[i].probability {
            let mut counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
            counters[i].hits += 1;
            Some(self.rules[i].kind)
        } else {
            None
        }
    }

    /// First wire fault (if any) to apply to a message `from → to`.
    pub(crate) fn wire_action(&self, from: usize, to: usize, tag: u64) -> Option<FaultKind> {
        (0..self.rules.len())
            .filter(|&i| self.rules[i].matches_wire(from, to, tag))
            .find_map(|i| self.fire(i))
    }

    /// First rank fault (if any) to apply before an operation of `rank`.
    pub(crate) fn rank_action(&self, rank: usize) -> Option<FaultKind> {
        (0..self.rules.len())
            .filter(|&i| self.rules[i].matches_rank(rank))
            .find_map(|i| self.fire(i))
    }

    /// Overwrite one payload element with NaN.
    pub(crate) fn corrupt(&self, payload: &mut [f64]) {
        if payload.is_empty() {
            return;
        }
        let idx = (self.next_unit() * payload.len() as f64) as usize;
        payload[idx.min(payload.len() - 1)] = f64::NAN;
    }

    /// Total faults injected so far, across all ranks of the world.
    pub(crate) fn hits(&self) -> u64 {
        let counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        counters.iter().map(|c| c.hits).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_scoping_matches_expected_events() {
        let exchange_tag = (2u64 << 57) | (1 << 56) | 5; // mu 2, fwd, seq 5
        let reduce_tag = 1u64 << 60;
        let r = FaultRule::drop_message().on_rank(1).to_peer(2).for_mu(2).data_only();
        assert!(r.matches_wire(1, 2, exchange_tag));
        assert!(!r.matches_wire(0, 2, exchange_tag), "wrong sender");
        assert!(!r.matches_wire(1, 3, exchange_tag), "wrong peer");
        assert!(!r.matches_wire(1, 2, reduce_tag), "wrong class");
        assert!(!r.matches_rank(1), "wire rules never match rank events");

        let s = FaultRule::die_rank().on_rank(3);
        assert!(s.matches_rank(3));
        assert!(!s.matches_rank(2));
        assert!(!s.matches_wire(3, 0, exchange_tag));
    }

    #[test]
    fn reduction_scope_matches_every_copy_of_one_reduction() {
        let up = |seq: u64| threaded::TAG_REDUCE_UP | seq;
        let down = |seq: u64| threaded::TAG_REDUCE_DOWN | seq;
        let r = FaultRule::corrupt_payload().on_rank(1).for_reduction(4);
        assert!(r.matches_wire(1, 0, up(4)));
        assert!(r.matches_wire(1, 0, down(4)), "both legs belong to the reduction");
        assert!(!r.matches_wire(1, 0, up(3)), "an earlier reduction's retransmit");
        assert!(!r.matches_wire(1, 0, up(5)));
        assert!(!r.matches_wire(1, 0, 4), "exchange data with sequence 4");
        // Every copy of the reduction fires: a retransmit carries the
        // same tag as the original.
        let state = FaultState::new(FaultPlan::new(1).with_rule(r));
        assert!(state.wire_action(1, 0, up(4)).is_some());
        assert!(state.wire_action(1, 0, up(4)).is_some());
        assert_eq!(state.hits(), 2);
    }

    #[test]
    fn after_and_times_bound_the_rule() {
        let plan = FaultPlan::new(1).with_rule(FaultRule::drop_message().after(2).times(2));
        let state = FaultState::new(plan);
        let fired: Vec<bool> = (0..6).map(|_| state.wire_action(0, 1, 0).is_some()).collect();
        assert_eq!(fired, [false, false, true, true, false, false]);
        assert_eq!(state.hits(), 2);
    }

    #[test]
    fn probabilistic_rules_fire_at_roughly_their_rate() {
        let plan = FaultPlan::new(42).with_rule(FaultRule::drop_message().with_probability(0.3));
        let state = FaultState::new(plan);
        let fired = (0..2000).filter(|_| state.wire_action(0, 1, 0).is_some()).count();
        assert!((450..750).contains(&fired), "fired {fired}/2000");
    }

    #[test]
    fn corrupt_writes_a_nan() {
        let plan = FaultPlan::new(3).with_rule(FaultRule::corrupt_payload());
        let state = FaultState::new(plan);
        let mut payload = vec![1.0f64; 16];
        state.corrupt(&mut payload);
        assert_eq!(payload.iter().filter(|v| v.is_nan()).count(), 1);
    }
}
