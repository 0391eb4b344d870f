//! The threaded multi-rank backend: one thread per "GPU".
//!
//! Each rank owns a mailbox (an unbounded `std::sync::mpsc` channel).
//! Sends are non-blocking; receives match on `(source, tag)` with a
//! pending queue to tolerate out-of-order arrival across tags — the same
//! matching semantics MPI gives the paper's implementation. Reductions
//! run as gather-to-root + broadcast over the same mailboxes.
//!
//! On top of that sits the fault-tolerance layer this crate's chaos
//! tests exercise:
//!
//! * **Deadline receives** — every receive polls in short
//!   `recv_timeout` slices against a [`CommConfig`] deadline and returns
//!   [`Error::Timeout`] instead of blocking forever;
//! * **Retry/ack protocol** — with `retries > 0`, exchanges become a
//!   stop-and-wait ARQ: data messages are acknowledged, retransmitted on
//!   backoff expiry, and deduplicated by sequence number, so dropped or
//!   duplicated messages are survived transparently (reductions use the
//!   root's broadcast as the implicit ack and retransmit their upward
//!   contributions);
//! * **World poisoning** — when a rank dies, [`run_world_fallible`]
//!   marks the shared world; every other rank's receive loop notices
//!   within one poll slice and returns [`Error::RankFailure`] instead of
//!   waiting out its deadline;
//! * **Fault injection** — a [`FaultPlan`] attached at world
//!   construction intercepts messages on the wire (drop, duplicate,
//!   delay, corrupt) and stalls or kills a rank at its next posted
//!   exchange or reduction, deterministically.

use crate::comm::{Communicator, ExchangeHandle, HandleState};
use crate::faulty::{FaultKind, FaultPlan, FaultState};
use lqcd_lattice::ProcessGrid;
use lqcd_util::{trace, Error, Result};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Message tags: exchanges carry `(mu, dir, sequence)`, acks mirror the
/// data tag they acknowledge, reductions use reserved tag spaces.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
struct Tag(u64);

pub(crate) const TAG_CLASS_MASK: u64 = 3 << 60;
pub(crate) const TAG_EXCHANGE: u64 = 0;
pub(crate) const TAG_REDUCE_UP: u64 = 1 << 60;
pub(crate) const TAG_REDUCE_DOWN: u64 = 2 << 60;
pub(crate) const TAG_ACK: u64 = 3 << 60;
const TAG_MU_SHIFT: u32 = 57;
const TAG_DIR_SHIFT: u32 = 56;
const TAG_SEQ_MASK: u64 = (1 << 56) - 1;

pub(crate) fn tag_class(tag: u64) -> u64 {
    tag & TAG_CLASS_MASK
}

pub(crate) fn tag_mu(tag: u64) -> usize {
    ((tag >> TAG_MU_SHIFT) & 0b11) as usize
}

fn tag_dir(tag: u64) -> usize {
    ((tag >> TAG_DIR_SHIFT) & 1) as usize
}

pub(crate) fn tag_seq(tag: u64) -> u64 {
    tag & TAG_SEQ_MASK
}

/// Encode a reduction tag: `class | seq`, with `seq` masked into the
/// 56-bit sequence field so a long-running world's counter can never
/// bleed into the class/mu/dir bits and corrupt the tag class.
fn reduce_tag(class: u64, seq: u64) -> Tag {
    debug_assert!(
        seq <= TAG_SEQ_MASK,
        "reduction sequence 0x{seq:x} overflows the 56-bit tag field"
    );
    Tag(class | (seq & TAG_SEQ_MASK))
}

/// Encode an exchange tag from its `(mu, dir, seq)` coordinates, with
/// the same sequence-field masking as [`reduce_tag`].
fn exchange_tag(mu: usize, dir: usize, seq: u64) -> Tag {
    debug_assert!(
        seq <= TAG_SEQ_MASK,
        "exchange sequence 0x{seq:x} overflows the 56-bit tag field"
    );
    Tag(TAG_EXCHANGE
        | ((mu as u64) << TAG_MU_SHIFT)
        | ((dir as u64) << TAG_DIR_SHIFT)
        | (seq & TAG_SEQ_MASK))
}

/// Granularity of the receive poll: how often a blocked receive checks
/// the poison flag and retransmit schedule.
const POLL_SLICE: Duration = Duration::from_millis(20);

/// Deadline/retry policy for a threaded world.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommConfig {
    /// Hard deadline per receive operation; when it expires the receive
    /// returns [`Error::Timeout`] instead of blocking further.
    pub timeout: Duration,
    /// Number of retransmissions per exchange (`0` disables the
    /// ack/retransmit protocol entirely: sends are fire-and-forget and a
    /// lost message surfaces as a timeout).
    pub retries: u32,
    /// How long to wait for an ack before retransmitting.
    pub backoff: Duration,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            timeout: Duration::from_secs(30),
            retries: 0,
            backoff: Duration::from_millis(40),
        }
    }
}

impl CommConfig {
    /// A config suited to chaos tests: short deadline, ARQ enabled.
    pub fn resilient() -> Self {
        CommConfig {
            timeout: Duration::from_secs(10),
            retries: 8,
            backoff: Duration::from_millis(25),
        }
    }

    /// Override the receive deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Override the retransmission budget.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }
}

struct Message {
    from: usize,
    tag: Tag,
    payload: Vec<f64>,
}

/// Shared state for a world of ranks: the grid, the deadline policy,
/// the poison flag raised when a rank dies, and the optional fault
/// plan. (Mailbox senders are cloned per rank rather than shared here.)
struct World {
    grid: ProcessGrid,
    config: CommConfig,
    poisoned: AtomicBool,
    dead: Mutex<Vec<(usize, String)>>,
    faults: Option<FaultState>,
}

impl World {
    /// Record that `rank` died with `detail`. Blocked peers observe the
    /// flag within one poll slice and fail their pending operation with
    /// [`Error::RankFailure`].
    fn poison(&self, rank: usize, detail: String) {
        self.dead.lock().unwrap_or_else(|e| e.into_inner()).push((rank, detail));
        self.poisoned.store(true, Ordering::Release);
    }
}

/// Per-rank handle to the threaded world.
pub struct ThreadedComm {
    world: Arc<World>,
    senders: Vec<Sender<Message>>,
    rank: usize,
    inbox: Receiver<Message>,
    pending: VecDeque<Message>,
    /// Per-(mu, dir) sequence numbers so repeated exchanges on the same
    /// edge match in order. Assigned when an exchange *starts*.
    seq: [[u64; 2]; 4],
    /// Per-(mu, dir) completion watermark: sequence numbers below it are
    /// finished, so a matching arrival is a stale retransmit to dedup.
    /// Distinct from `seq` because nonblocking exchanges can be started
    /// (counter bumped) long before they complete — their data must not
    /// be mistaken for a stale duplicate while they are in flight.
    done: [[u64; 2]; 4],
    reduce_seq: u64,
    /// Root's cached result of the last completed reduction, re-sent
    /// when a stale upward retransmit shows the original broadcast was
    /// lost.
    last_reduce: Option<(u64, Vec<f64>)>,
    /// Retransmissions performed (exchanges and reductions).
    retries_performed: u64,
}

impl ThreadedComm {
    /// Create communicators for every rank of `grid` under the
    /// deadline/retry policy `config` and, optionally, a fault plan.
    /// Index `i` of the returned vector belongs to rank `i`; hand each
    /// to its own thread (see [`run_world_fallible`]).
    pub fn world_with(
        grid: ProcessGrid,
        config: CommConfig,
        faults: Option<FaultPlan>,
    ) -> Vec<ThreadedComm> {
        let n = grid.num_ranks();
        let mut senders = Vec::with_capacity(n);
        let mut inboxes = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            senders.push(tx);
            inboxes.push(rx);
        }
        let world = Arc::new(World {
            grid,
            config,
            poisoned: AtomicBool::new(false),
            dead: Mutex::new(Vec::new()),
            faults: faults.map(FaultState::new),
        });
        inboxes
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| ThreadedComm {
                world: world.clone(),
                senders: senders.clone(),
                rank,
                inbox,
                pending: VecDeque::new(),
                seq: [[0; 2]; 4],
                done: [[0; 2]; 4],
                reduce_seq: 0,
                last_reduce: None,
                retries_performed: 0,
            })
            .collect()
    }

    fn config(&self) -> CommConfig {
        self.world.config
    }

    fn check_poison(&self) -> Result<()> {
        if self.world.poisoned.load(Ordering::Acquire) {
            let dead = self.world.dead.lock().unwrap_or_else(|e| e.into_inner());
            let (rank, detail) =
                dead.first().cloned().unwrap_or((usize::MAX, "world poisoned".to_string()));
            return Err(Error::RankFailure { rank, detail });
        }
        Ok(())
    }

    /// Apply the plan's rank fault (stall or death), if one fires. Called
    /// once per posted exchange and once per reduction, before any of
    /// its traffic.
    fn rank_fault(&self) {
        let Some(faults) = &self.world.faults else { return };
        match faults.rank_action(self.rank) {
            Some(FaultKind::Stall(pause)) => std::thread::sleep(pause),
            Some(FaultKind::Die) => panic!("injected fault: rank {} death", self.rank),
            _ => {}
        }
    }

    /// Deliver a message, applying any wire faults the plan injects.
    fn post(&mut self, to: usize, tag: Tag, payload: Vec<f64>) -> Result<()> {
        self.check_poison()?;
        if trace::is_enabled() {
            let name = match tag_class(tag.0) {
                TAG_ACK => "send_ack",
                TAG_REDUCE_UP | TAG_REDUCE_DOWN => "send_reduce",
                _ => "send_exchange",
            };
            trace::instant(trace::Track::Comm, name, to as i64);
        }
        let mut payload = payload;
        let mut copies = 1usize;
        if let Some(faults) = &self.world.faults {
            match faults.wire_action(self.rank, to, tag.0) {
                None => {}
                Some(FaultKind::Drop) => return Ok(()),
                Some(FaultKind::Duplicate) => copies = 2,
                Some(FaultKind::Corrupt) => faults.corrupt(&mut payload),
                Some(FaultKind::Delay(delay)) => {
                    let sender = self.senders[to].clone();
                    let from = self.rank;
                    std::thread::spawn(move || {
                        std::thread::sleep(delay);
                        // The world may have shut down meanwhile; a
                        // closed mailbox just swallows the late message.
                        let _ = sender.send(Message { from, tag, payload });
                    });
                    return Ok(());
                }
                // Rank-level faults fire in `rank_fault`, not on the wire.
                Some(FaultKind::Stall(_)) | Some(FaultKind::Die) => {}
            }
        }
        for i in 0..copies {
            let body = if i + 1 == copies { std::mem::take(&mut payload) } else { payload.clone() };
            // Sends are fire-and-forget: a closed mailbox means the peer
            // already exited. If it *completed* (e.g. the reduction root
            // posted its broadcast and returned while our retransmission
            // was in flight) nothing is owed to us; if it *died*, the
            // poison flag reports it at our next receive. Either way the
            // deadline bounds us — erroring here would turn a benign
            // shutdown race into a spurious failure.
            let _ = self.senders[to].send(Message { from: self.rank, tag, payload: body });
        }
        Ok(())
    }

    /// One bounded poll of the inbox.
    fn recv_slice(&mut self, dur: Duration) -> Result<Option<Message>> {
        match self.inbox.recv_timeout(dur) {
            Ok(msg) => Ok(Some(msg)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => {
                Err(Error::Comms(format!("rank {} inbox closed", self.rank)))
            }
        }
    }

    /// Take a matching message out of the pending queue, dropping any
    /// duplicate copies of it.
    fn take_pending(&mut self, from: usize, tag: Tag) -> Option<Vec<f64>> {
        let pos = self.pending.iter().position(|m| m.from == from && m.tag == tag)?;
        let msg = self.pending.remove(pos).expect("position valid");
        self.pending.retain(|m| !(m.from == from && m.tag == tag));
        Some(msg.payload)
    }

    /// File a message that doesn't match the operation in progress:
    /// future messages are queued for later matching; stale retransmits
    /// (sequence number below the edge's counter) are deduplicated and —
    /// under the ack protocol — re-acknowledged so their sender stops
    /// retransmitting.
    fn stash(&mut self, msg: Message) -> Result<()> {
        let t = msg.tag.0;
        let arq = self.config().retries > 0;
        match tag_class(t) {
            TAG_EXCHANGE => {
                let (mu, dir, seq) = (tag_mu(t), tag_dir(t), tag_seq(t));
                if seq < self.done[mu][dir] {
                    // Stale retransmit of an exchange we already
                    // completed: our ack was lost — re-ack and drop.
                    if arq {
                        let ack = Tag(TAG_ACK | (t & !TAG_CLASS_MASK));
                        self.post(msg.from, ack, Vec::new())?;
                    }
                } else {
                    self.pending.push_back(msg);
                }
            }
            TAG_ACK => {
                // An ack for an exchange still outstanding (several can
                // be in flight at once under the nonblocking API) must
                // be queued for that exchange's completion loop, or its
                // sender would retransmit for nothing. Only acks below
                // the completion watermark are droppable duplicates.
                let (mu, dir, seq) = (tag_mu(t), tag_dir(t), tag_seq(t));
                if seq >= self.done[mu][dir] {
                    self.pending.push_back(msg);
                }
            }
            TAG_REDUCE_UP => {
                // Contributions at or beyond the last *completed*
                // reduction belong to one in progress (they arrive out
                // of rank order while the root collects sequentially) —
                // queue them. Anything older is a stale retransmit whose
                // sender never saw our broadcast: re-send the cached
                // result if it's the most recent one.
                let seq = tag_seq(t);
                match &self.last_reduce {
                    Some((done, vals)) if seq <= *done => {
                        if seq == *done {
                            let vals = vals.clone();
                            self.post(msg.from, reduce_tag(TAG_REDUCE_DOWN, seq), vals)?;
                        }
                        // else: older than the cache — drop.
                    }
                    _ => self.pending.push_back(msg),
                }
            }
            _ => {
                // TAG_REDUCE_DOWN: the broadcast for the reduction in
                // progress (sequence `reduce_seq - 1`) is consumed by
                // the reduce loop itself, so anything strictly older is
                // a stale duplicate.
                if tag_seq(t) + 1 >= self.reduce_seq {
                    self.pending.push_back(msg);
                }
                // else: stale duplicate broadcast — drop.
            }
        }
        Ok(())
    }

    /// Deadline receive matching `(from, tag)`, polling in short slices
    /// so poisoning is observed promptly. `mu` only labels the error.
    fn recv_deadline(&mut self, from: usize, tag: Tag, mu: Option<usize>) -> Result<Vec<f64>> {
        if let Some(payload) = self.take_pending(from, tag) {
            return Ok(payload);
        }
        let timeout = self.config().timeout;
        let start = Instant::now();
        loop {
            self.check_poison()?;
            let waited = start.elapsed();
            if waited >= timeout {
                return Err(Error::Timeout { rank: self.rank, peer: from, mu, tag: tag.0, waited });
            }
            let slice = (timeout - waited).min(POLL_SLICE);
            if let Some(msg) = self.recv_slice(slice)? {
                if msg.from == from && msg.tag == tag {
                    return Ok(msg.payload);
                }
                self.stash(msg)?;
            }
        }
    }

    /// Completion half of a stop-and-wait ARQ exchange whose initial
    /// transmission went out at `posted_at` (see `start_send_recv`):
    /// retransmit on backoff expiry until acked, receive with dedup and
    /// acknowledgement, all under one deadline clocked from *this* call.
    fn complete_arq(
        &mut self,
        to: usize,
        from: usize,
        tag: Tag,
        posted_at: Instant,
        send: &[f64],
    ) -> Result<Vec<f64>> {
        let cfg = self.config();
        let ack_tag = Tag(TAG_ACK | (tag.0 & !TAG_CLASS_MASK));
        // Drain whatever already landed while the caller was computing
        // (the whole point of the nonblocking split), so an ack sitting
        // unread in the mailbox can't trigger a pointless retransmit.
        while let Some(msg) = self.recv_slice(Duration::ZERO)? {
            self.stash(msg)?;
        }
        let start = Instant::now();
        let mut next_send = posted_at + cfg.backoff;
        let mut sends_left = cfg.retries as u64;
        let mut got: Option<Vec<f64>> = None;
        let mut got_ack = false;
        loop {
            self.check_poison()?;
            // Harvest anything that arrived during earlier operations.
            if got.is_none() {
                if let Some(payload) = self.take_pending(from, tag) {
                    self.post(from, ack_tag, Vec::new())?;
                    got = Some(payload);
                }
            }
            if !got_ack && self.take_pending(to, ack_tag).is_some() {
                got_ack = true;
            }
            if let Some(payload) = got {
                if got_ack {
                    return Ok(payload);
                }
                got = Some(payload);
            }
            let waited = start.elapsed();
            if waited >= cfg.timeout {
                // Whichever message is still missing names the culprit.
                let (peer, tag) = if got.is_none() { (from, tag) } else { (to, ack_tag) };
                return Err(Error::Timeout {
                    rank: self.rank,
                    peer,
                    mu: Some(tag_mu(tag.0)),
                    tag: tag.0,
                    waited,
                });
            }
            let now = Instant::now();
            if !got_ack && now >= next_send && sends_left > 0 {
                self.retries_performed += 1;
                trace::instant(trace::Track::Comm, "arq_retry", tag_seq(tag.0) as i64);
                sends_left -= 1;
                next_send = now + cfg.backoff;
                self.post(to, tag, send.to_vec())?;
            }
            let mut slice = (cfg.timeout - waited).min(POLL_SLICE);
            if !got_ack && sends_left > 0 {
                slice = slice.min(next_send.saturating_duration_since(Instant::now()));
            }
            let Some(msg) = self.recv_slice(slice.max(Duration::from_millis(1)))? else {
                continue;
            };
            if msg.from == from && msg.tag == tag {
                // Data (or a duplicate of it): ack in both cases — a
                // duplicate means our previous ack was lost.
                self.post(from, ack_tag, Vec::new())?;
                if got.is_none() {
                    got = Some(msg.payload);
                }
            } else if msg.from == to && msg.tag == ack_tag {
                got_ack = true;
            } else {
                self.stash(msg)?;
            }
        }
    }

    fn reduce(&mut self, vals: &mut [f64], combine: fn(f64, f64) -> f64) -> Result<()> {
        // Gather to rank 0 then broadcast: adequate for the correctness
        // path (the perf model prices reductions independently). The
        // broadcast doubles as the ack of each upward contribution.
        let _sp = trace::span_arg(trace::Track::Comm, "allreduce", self.reduce_seq as i64);
        let n = self.world.grid.num_ranks();
        let cfg = self.config();
        let seq = self.reduce_seq;
        self.reduce_seq += 1;
        let up = reduce_tag(TAG_REDUCE_UP, seq);
        let down = reduce_tag(TAG_REDUCE_DOWN, seq);
        if self.rank == 0 {
            for from in 1..n {
                let part = self.recv_deadline(from, up, None)?;
                if part.len() != vals.len() {
                    return Err(Error::Comms(format!(
                        "reduction length mismatch at root: rank {from} sent {} values, \
                         expected {} (seq {seq})",
                        part.len(),
                        vals.len()
                    )));
                }
                for (v, p) in vals.iter_mut().zip(part) {
                    *v = combine(*v, p);
                }
            }
            for to in 1..n {
                self.post(to, down, vals.to_vec())?;
            }
            // Cache so a lost broadcast can be re-sent on a stale
            // upward retransmit.
            self.last_reduce = Some((seq, vals.to_vec()));
        } else {
            let start = Instant::now();
            let mut next_send = start;
            let mut sends_left = cfg.retries as u64 + 1;
            let result = loop {
                self.check_poison()?;
                if let Some(payload) = self.take_pending(0, down) {
                    break payload;
                }
                let waited = start.elapsed();
                if waited >= cfg.timeout {
                    return Err(Error::Timeout {
                        rank: self.rank,
                        peer: 0,
                        mu: None,
                        tag: down.0,
                        waited,
                    });
                }
                let now = Instant::now();
                if now >= next_send && sends_left > 0 {
                    if sends_left <= cfg.retries as u64 {
                        self.retries_performed += 1;
                        trace::instant(trace::Track::Comm, "arq_retry", seq as i64);
                    }
                    sends_left -= 1;
                    next_send = now + cfg.backoff;
                    self.post(0, up, vals.to_vec())?;
                }
                let mut slice = (cfg.timeout - waited).min(POLL_SLICE);
                if sends_left > 0 {
                    slice = slice.min(next_send.saturating_duration_since(Instant::now()));
                }
                let Some(msg) = self.recv_slice(slice.max(Duration::from_millis(1)))? else {
                    continue;
                };
                if msg.from == 0 && msg.tag == down {
                    break msg.payload;
                }
                self.stash(msg)?;
            };
            if result.len() != vals.len() {
                return Err(Error::Comms(format!(
                    "reduction length mismatch: root broadcast {} values, expected {} \
                     (rank {}, seq {seq})",
                    result.len(),
                    vals.len(),
                    self.rank
                )));
            }
            vals.copy_from_slice(&result);
        }
        // Drop leftover duplicates of this (or older) reductions that
        // retransmission may have queued.
        self.pending.retain(|m| {
            let t = m.tag.0;
            let class = tag_class(t);
            (class != TAG_REDUCE_UP && class != TAG_REDUCE_DOWN) || tag_seq(t) > seq
        });
        Ok(())
    }
}

impl Communicator for ThreadedComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.world.grid.num_ranks()
    }

    fn grid(&self) -> &ProcessGrid {
        &self.world.grid
    }

    fn send_recv(
        &mut self,
        mu: usize,
        forward: bool,
        send: &[f64],
        recv: &mut [f64],
    ) -> Result<()> {
        let handle = self.start_send_recv(mu, forward, send)?;
        self.complete_send_recv(handle, recv)
    }

    fn start_send_recv(
        &mut self,
        mu: usize,
        forward: bool,
        send: &[f64],
    ) -> Result<ExchangeHandle> {
        // Blocking `send_recv` posts through here too, so an exchange
        // meets the rank fault once; its completion never does.
        self.rank_fault();
        let grid = &self.world.grid;
        let to = grid.neighbor_rank(self.rank, mu, forward);
        let from = grid.neighbor_rank(self.rank, mu, !forward);
        let dir = forward as usize;
        let seq = self.seq[mu][dir];
        self.seq[mu][dir] += 1;
        // Tag layout: [class:2][_:1][mu:2][dir:1][seq:rest].
        let tag = exchange_tag(mu, dir, seq);
        // The payload is retained only when the ARQ protocol may need to
        // retransmit it; the fire-and-forget path stays allocation-lean.
        let resend = (self.config().retries > 0).then(|| send.to_vec());
        self.post(to, tag, send.to_vec())?;
        Ok(ExchangeHandle::posted(mu, forward, to, from, tag.0, Instant::now(), resend))
    }

    fn complete_send_recv(&mut self, handle: ExchangeHandle, recv: &mut [f64]) -> Result<()> {
        let (mu, forward) = (handle.mu, handle.forward);
        match handle.state {
            // A deferred handle (started on some other backend): honour
            // it with the blocking path.
            HandleState::Deferred(payload) => self.send_recv(mu, forward, &payload, recv),
            HandleState::Posted { to, from, tag, posted_at, resend } => {
                let t = Tag(tag);
                let payload = match &resend {
                    Some(send) => self.complete_arq(to, from, t, posted_at, send)?,
                    None => self.recv_deadline(from, t, Some(mu))?,
                };
                let (tmu, tdir, seq) = (tag_mu(tag), tag_dir(tag), tag_seq(tag));
                // Raise the completion watermark so stale retransmits of
                // this exchange dedup, and drop any duplicate acks it
                // queued.
                self.done[tmu][tdir] = self.done[tmu][tdir].max(seq + 1);
                let ack_tag = TAG_ACK | (tag & !TAG_CLASS_MASK);
                self.pending.retain(|m| m.tag.0 != ack_tag);
                if payload.len() != recv.len() {
                    return Err(Error::Comms(format!(
                        "exchange length mismatch: rank {} got {} values from peer {from}, \
                         expected {} (mu {mu}, dir {}, seq {seq})",
                        self.rank,
                        payload.len(),
                        recv.len(),
                        if forward { "fwd" } else { "bwd" },
                    )));
                }
                recv.copy_from_slice(&payload);
                Ok(())
            }
        }
    }

    fn allreduce_sum(&mut self, vals: &mut [f64]) -> Result<()> {
        self.rank_fault();
        self.reduce(vals, |a, b| a + b)
    }

    fn allreduce_max(&mut self, vals: &mut [f64]) -> Result<()> {
        self.rank_fault();
        self.reduce(vals, f64::max)
    }

    fn exchange_retries(&self) -> u64 {
        self.retries_performed
    }

    fn faults_survived(&self) -> u64 {
        self.world.faults.as_ref().map_or(0, |f| f.hits())
    }
}

fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Panic-safe SPMD launcher over a pre-built world: run `body` once per
/// rank, each on its own thread. A panicking rank poisons the world —
/// so peers blocked on it fail fast with [`Error::RankFailure`] instead
/// of hanging — and its slot reports the rank and panic payload.
pub fn run_world_fallible<T, F>(comms: Vec<ThreadedComm>, body: F) -> Vec<Result<T>>
where
    T: Send,
    F: Fn(ThreadedComm) -> T + Sync,
{
    let mut out: Vec<Result<T>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (rank, comm) in comms.into_iter().enumerate() {
            let body = &body;
            let world = comm.world.clone();
            handles.push(scope.spawn(move || {
                // Route this rank thread's trace events to its own track
                // set for the lifetime of the body.
                let _trace = trace::rank_scope(rank);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(comm)));
                if let Err(payload) = &result {
                    // `comm` died inside the closure; wake everyone else.
                    world.poison(rank, format!("panicked: {}", panic_payload(payload.as_ref())));
                }
                result
            }));
        }
        for (rank, h) in handles.into_iter().enumerate() {
            out.push(match h.join().expect("launcher thread infrastructure failed") {
                Ok(v) => Ok(v),
                Err(payload) => Err(Error::RankFailure {
                    rank,
                    detail: format!("panicked: {}", panic_payload(payload.as_ref())),
                }),
            });
        }
    });
    out
}

/// Fallible SPMD launcher over a fresh [`ThreadedComm`] world with the
/// given deadline/retry policy.
pub fn run_on_grid_fallible<T, F>(grid: ProcessGrid, config: CommConfig, body: F) -> Vec<Result<T>>
where
    T: Send,
    F: Fn(ThreadedComm) -> T + Sync,
{
    run_world_fallible(ThreadedComm::world_with(grid, config, None), body)
}

/// SPMD launcher: run `body` once per rank of `grid`, each on its own
/// thread with its own communicator; returns the per-rank results in
/// rank order. A panic in any rank propagates, naming the rank that
/// panicked and its payload (see [`run_on_grid_fallible`] for the
/// non-panicking variant).
pub fn run_on_grid<T, F>(grid: ProcessGrid, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(ThreadedComm) -> T + Sync,
{
    run_on_grid_fallible(grid, CommConfig::default(), body)
        .into_iter()
        .enumerate()
        .map(|(slot, r)| match r {
            Ok(v) => v,
            Err(Error::RankFailure { rank, detail }) => {
                panic!("rank {rank} {detail}")
            }
            Err(e) => panic!("rank {slot} failed: {e}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqcd_lattice::Dims;

    fn grid_1d(n: usize) -> ProcessGrid {
        ProcessGrid::new(Dims([1, 1, 1, n]), Dims([4, 4, 4, (4 * n).max(8)])).unwrap()
    }

    #[test]
    fn tag_round_trips_near_the_sequence_boundary() {
        // Regression: sequences at or past 2^56 must never bleed into
        // the class/mu/dir bits. The encode helpers mask, so the decoded
        // coordinates round-trip for every boundary-adjacent sequence.
        for seq in [0, 1, TAG_SEQ_MASK - 1, TAG_SEQ_MASK] {
            for (class, name) in [(TAG_REDUCE_UP, "up"), (TAG_REDUCE_DOWN, "down")] {
                let t = reduce_tag(class, seq).0;
                assert_eq!(tag_class(t), class, "class corrupted for {name} seq 0x{seq:x}");
                assert_eq!(tag_seq(t), seq & TAG_SEQ_MASK);
            }
            for mu in 0..4 {
                for dir in 0..2 {
                    let t = exchange_tag(mu, dir, seq).0;
                    assert_eq!(tag_class(t), TAG_EXCHANGE, "seq 0x{seq:x} bled into the class");
                    assert_eq!(tag_mu(t), mu);
                    assert_eq!(tag_dir(t), dir);
                    assert_eq!(tag_seq(t), seq & TAG_SEQ_MASK);
                }
            }
        }
        // Past the boundary the masked encode still yields a valid tag
        // of the right class (the sequence wraps; release builds must
        // not corrupt the class bits). debug_assert guards the invariant
        // in debug builds, so exercise the wrap in release terms here.
        #[cfg(not(debug_assertions))]
        {
            let t = reduce_tag(TAG_REDUCE_DOWN, TAG_SEQ_MASK + 5).0;
            assert_eq!(tag_class(t), TAG_REDUCE_DOWN);
            assert_eq!(tag_seq(t), 4);
            let e = exchange_tag(2, 1, TAG_SEQ_MASK + 5).0;
            assert_eq!(tag_class(e), TAG_EXCHANGE);
            assert_eq!(tag_mu(e), 2);
            assert_eq!(tag_seq(e), 4);
        }
    }

    #[test]
    fn ring_shift_forward() {
        let n = 4;
        let results = run_on_grid(grid_1d(n), |mut comm| {
            let me = comm.rank() as f64;
            let mut recv = [0.0f64];
            comm.send_recv(3, true, &[me], &mut recv).unwrap();
            recv[0]
        });
        // Receiving from the backward neighbour: rank r gets r−1 (mod n).
        for (r, &got) in results.iter().enumerate() {
            let want = ((r + n - 1) % n) as f64;
            assert_eq!(got, want, "rank {r}");
        }
    }

    #[test]
    fn ring_shift_backward() {
        let n = 3;
        let results = run_on_grid(grid_1d(n), |mut comm| {
            let me = comm.rank() as f64;
            let mut recv = [0.0f64];
            comm.send_recv(3, false, &[me], &mut recv).unwrap();
            recv[0]
        });
        for (r, &got) in results.iter().enumerate() {
            assert_eq!(got, ((r + 1) % n) as f64, "rank {r}");
        }
    }

    #[test]
    fn allreduce_sum_and_max() {
        let n = 5;
        let results = run_on_grid(grid_1d(n), |mut comm| {
            let r = comm.rank() as f64;
            let sum = comm.sum_scalar(r).unwrap();
            let mut mx = [r];
            comm.allreduce_max(&mut mx).unwrap();
            (sum, mx[0])
        });
        for &(sum, mx) in &results {
            assert_eq!(sum, (0..n).sum::<usize>() as f64);
            assert_eq!(mx, (n - 1) as f64);
        }
    }

    #[test]
    fn interleaved_exchanges_match_in_order() {
        // Two back-to-back exchanges on the same edge must not cross.
        let n = 2;
        let results = run_on_grid(grid_1d(n), |mut comm| {
            let me = comm.rank() as f64;
            let mut r1 = [0.0f64];
            let mut r2 = [0.0f64];
            comm.send_recv(3, true, &[me * 10.0], &mut r1).unwrap();
            comm.send_recv(3, true, &[me * 10.0 + 1.0], &mut r2).unwrap();
            (r1[0], r2[0])
        });
        assert_eq!(results[0], (10.0, 11.0));
        assert_eq!(results[1], (0.0, 1.0));
    }

    #[test]
    fn multi_dim_exchange_2x2() {
        let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), Dims([4, 4, 8, 8])).unwrap();
        let results = run_on_grid(grid.clone(), |mut comm| {
            let me = comm.rank() as f64;
            let mut rz = [0.0f64];
            let mut rt = [0.0f64];
            // Exchange in Z then T.
            comm.send_recv(2, true, &[me], &mut rz).unwrap();
            comm.send_recv(3, false, &[me], &mut rt).unwrap();
            (rz[0], rt[0])
        });
        for rank in 0..grid.num_ranks() {
            let from_z = grid.neighbor_rank(rank, 2, false) as f64;
            let from_t = grid.neighbor_rank(rank, 3, true) as f64;
            assert_eq!(results[rank], (from_z, from_t), "rank {rank}");
        }
    }

    #[test]
    fn mismatched_lengths_error_names_the_edge() {
        let results = run_on_grid(grid_1d(2), |mut comm| {
            let mut recv = [0.0f64; 2];
            comm.send_recv(3, true, &[1.0], &mut recv).err().map(|e| e.to_string())
        });
        for (rank, err) in results.iter().enumerate() {
            let msg = err.as_deref().expect("mismatch must error");
            assert!(msg.contains(&format!("rank {rank}")), "{msg}");
            assert!(msg.contains("mu 3"), "{msg}");
            assert!(msg.contains("seq 0"), "{msg}");
        }
    }

    #[test]
    fn barrier_completes() {
        let results = run_on_grid(grid_1d(3), |mut comm| comm.barrier().is_ok());
        assert!(results.iter().all(|&ok| ok));
    }

    #[test]
    fn exchanges_work_with_arq_enabled() {
        // The ack/retransmit protocol must be transparent when no faults
        // are injected.
        let config = CommConfig::resilient();
        let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), Dims([4, 4, 8, 8])).unwrap();
        let results = run_on_grid_fallible(grid, config, |mut comm| {
            let me = comm.rank() as f64;
            let mut r1 = [0.0f64];
            let mut r2 = [0.0f64];
            comm.send_recv(2, true, &[me], &mut r1).unwrap();
            comm.send_recv(2, true, &[me + 0.5], &mut r2).unwrap();
            let sum = comm.sum_scalar(1.0).unwrap();
            (r1[0], r2[0], sum, comm.exchange_retries())
        });
        for r in results {
            let (a, b, sum, retries) = r.unwrap();
            assert_eq!(b, a + 0.5);
            assert_eq!(sum, 4.0);
            assert_eq!(retries, 0, "no faults, no retransmissions");
        }
    }

    #[test]
    fn nonblocking_exchanges_overlap_across_dims() {
        // The overlapped dslash posting pattern: one exchange per face
        // started before any completes, then completion out of start
        // order across edges.
        let dims = (Dims([1, 1, 2, 2]), Dims([4, 4, 8, 8]));
        let grid = ProcessGrid::new(dims.0, dims.1).unwrap();
        let results = run_on_grid(grid, |mut comm| {
            let me = comm.rank() as f64;
            let h2 = comm.start_send_recv(2, true, &[me, me]).unwrap();
            let h3f = comm.start_send_recv(3, true, &[10.0 + me]).unwrap();
            let h3b = comm.start_send_recv(3, false, &[20.0 + me]).unwrap();
            assert_eq!((h3b.mu(), h3b.forward()), (3, false));
            let (mut r3b, mut r3f, mut r2) = ([0.0], [0.0], [0.0; 2]);
            comm.complete_send_recv(h3b, &mut r3b).unwrap();
            comm.complete_send_recv(h2, &mut r2).unwrap();
            comm.complete_send_recv(h3f, &mut r3f).unwrap();
            (r2, r3f[0], r3b[0])
        });
        let grid = ProcessGrid::new(dims.0, dims.1).unwrap();
        for (rank, (r2, r3f, r3b)) in results.iter().enumerate() {
            let from2 = grid.neighbor_rank(rank, 2, false) as f64;
            let from3f = grid.neighbor_rank(rank, 3, false) as f64;
            let from3b = grid.neighbor_rank(rank, 3, true) as f64;
            assert_eq!(*r2, [from2, from2], "rank {rank}");
            assert_eq!(*r3f, 10.0 + from3f, "rank {rank}");
            assert_eq!(*r3b, 20.0 + from3b, "rank {rank}");
        }
    }

    #[test]
    fn nonblocking_conforms_under_arq() {
        // Several outstanding exchanges under the ack/retransmit
        // protocol: acks for other in-flight edges must be queued, not
        // dropped, and a fault-free run performs zero retransmissions.
        let config = CommConfig::resilient();
        let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), Dims([4, 4, 8, 8])).unwrap();
        let results = run_on_grid_fallible(grid, config, |mut comm| {
            let mut seen = Vec::new();
            let me = comm.rank() as f64;
            for round in 0..3 {
                let h2 = comm.start_send_recv(2, true, &[me]).unwrap();
                let h3 = comm.start_send_recv(3, true, &[me + 0.25]).unwrap();
                let (mut r2, mut r3) = ([0.0], [0.0]);
                // Alternate completion order across rounds.
                if round % 2 == 0 {
                    comm.complete_send_recv(h3, &mut r3).unwrap();
                    comm.complete_send_recv(h2, &mut r2).unwrap();
                } else {
                    comm.complete_send_recv(h2, &mut r2).unwrap();
                    comm.complete_send_recv(h3, &mut r3).unwrap();
                }
                seen.push((r2[0], r3[0]));
            }
            comm.barrier().unwrap();
            (seen, comm.exchange_retries())
        });
        let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), Dims([4, 4, 8, 8])).unwrap();
        for (rank, r) in results.into_iter().enumerate() {
            let (seen, retries) = r.unwrap();
            let from2 = grid.neighbor_rank(rank, 2, false) as f64;
            let from3 = grid.neighbor_rank(rank, 3, false) as f64;
            for (r2, r3) in seen {
                assert_eq!((r2, r3), (from2, from3 + 0.25), "rank {rank}");
            }
            assert_eq!(retries, 0, "no faults, no retransmissions");
        }
    }

    #[test]
    fn nonblocking_survives_injected_faults() {
        // Drop + duplicate on the wire while exchanges are in flight:
        // the ARQ completion must still deliver every payload exactly
        // once, in order, on every rank.
        use crate::faulty::{FaultRule, MsgClass};
        // Drops are scoped to data and ack traffic: reductions have no
        // retransmit protocol (the perf model prices them separately),
        // so only the ARQ-protected classes may lose messages.
        let plan = FaultPlan::new(11)
            .with_rule(FaultRule::drop_message().data_only().with_probability(0.2))
            .with_rule(FaultRule::drop_message().for_class(MsgClass::Ack).with_probability(0.2))
            .with_rule(FaultRule::duplicate_message().data_only().with_probability(0.2));
        let config = CommConfig::resilient();
        let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), Dims([4, 4, 8, 8])).unwrap();
        let comms = ThreadedComm::world_with(grid, config, Some(plan));
        let results = run_world_fallible(comms, |mut comm| {
            let me = comm.rank() as f64;
            let mut seen = Vec::new();
            for round in 0..4 {
                let h2 = comm.start_send_recv(2, true, &[me, round as f64]).unwrap();
                let h3 = comm.start_send_recv(3, false, &[me - round as f64]).unwrap();
                let (mut r2, mut r3) = ([0.0; 2], [0.0]);
                comm.complete_send_recv(h3, &mut r3).unwrap();
                comm.complete_send_recv(h2, &mut r2).unwrap();
                seen.push((r2, r3[0]));
            }
            // Keep every rank polling until all peers' final acks are
            // delivered (stop-and-wait needs a live peer; workloads end
            // in reductions, tests end in a barrier).
            comm.barrier().unwrap();
            seen
        });
        let grid = ProcessGrid::new(Dims([1, 1, 2, 2]), Dims([4, 4, 8, 8])).unwrap();
        for (rank, r) in results.into_iter().enumerate() {
            let from2 = grid.neighbor_rank(rank, 2, false) as f64;
            let from3 = grid.neighbor_rank(rank, 3, true) as f64;
            for (round, (r2, r3)) in r.unwrap().into_iter().enumerate() {
                assert_eq!(r2, [from2, round as f64], "rank {rank} round {round}");
                assert_eq!(r3, from3 - round as f64, "rank {rank} round {round}");
            }
        }
    }

    #[test]
    fn rank_faults_fire_once_per_posted_exchange_and_reduction() {
        // A zero-length stall on every rank-fault event of rank 0 counts
        // those events: a blocking exchange, a posted exchange, and each
        // reduction (barrier and sums included) count once; completing a
        // posted exchange counts zero times.
        use crate::faulty::FaultRule;
        let plan = FaultPlan::new(5).with_rule(FaultRule::stall_rank(Duration::ZERO).on_rank(0));
        let comms = ThreadedComm::world_with(grid_1d(2), CommConfig::default(), Some(plan));
        let results = run_world_fallible(comms, |mut comm| {
            let mut seen = Vec::new();
            let mut recv = [0.0f64];
            comm.send_recv(3, true, &[1.0], &mut recv).unwrap();
            seen.push(comm.faults_survived());
            let h = comm.start_send_recv(3, false, &[2.0]).unwrap();
            seen.push(comm.faults_survived());
            comm.complete_send_recv(h, &mut recv).unwrap();
            seen.push(comm.faults_survived());
            comm.allreduce_sum(&mut [1.0]).unwrap();
            seen.push(comm.faults_survived());
            comm.allreduce_max(&mut [1.0]).unwrap();
            seen.push(comm.faults_survived());
            comm.sum_scalar(1.0).unwrap();
            seen.push(comm.faults_survived());
            comm.barrier().unwrap();
            (seen, comm.faults_survived())
        });
        let results: Vec<_> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(results[0].0, [1, 2, 2, 3, 4, 5]);
        // Rank 0's barrier event fires before its broadcast, so every
        // rank reads the world's six hits after the barrier.
        assert!(results.iter().all(|(_, hits)| *hits == 6), "{results:?}");
    }

    #[test]
    fn panicking_rank_is_reported_and_peers_survive() {
        let config = CommConfig::default().with_timeout(Duration::from_secs(20));
        let results = run_on_grid_fallible(grid_1d(3), config, |mut comm| {
            if comm.rank() == 1 {
                panic!("injected test panic");
            }
            // Rank 1 never arrives: peers must fail fast, not wait out
            // the 20 s deadline.
            comm.barrier()
        });
        match &results[1] {
            Err(Error::RankFailure { rank, detail }) => {
                assert_eq!(*rank, 1);
                assert!(detail.contains("injected test panic"), "{detail}");
            }
            other => panic!("expected rank 1 failure, got {other:?}"),
        }
        for rank in [0, 2] {
            match &results[rank] {
                Ok(Err(Error::RankFailure { rank: dead, .. })) => assert_eq!(*dead, 1),
                other => panic!("rank {rank}: expected RankFailure, got {other:?}"),
            }
        }
    }

    #[test]
    fn run_on_grid_names_panicking_rank() {
        let caught = std::panic::catch_unwind(|| {
            run_on_grid(grid_1d(2), |comm| {
                if comm.rank() == 1 {
                    panic!("boom at rank one");
                }
                0u8
            });
        });
        let payload = caught.expect_err("must propagate");
        let msg = payload.downcast_ref::<String>().cloned().expect("string payload");
        assert!(msg.contains("rank 1"), "{msg}");
        assert!(msg.contains("boom at rank one"), "{msg}");
    }

    #[test]
    fn timeout_replaces_block_forever() {
        // One rank sends nothing: its peer's receive must end in a
        // structured Timeout naming the edge, not hang.
        let config = CommConfig::default().with_timeout(Duration::from_millis(200));
        let results = run_on_grid_fallible(grid_1d(2), config, |mut comm| {
            if comm.rank() == 0 {
                let mut recv = [0.0f64];
                comm.send_recv(3, true, &[1.0], &mut recv)
            } else {
                Ok(())
            }
        });
        match results[0].as_ref().unwrap() {
            Err(Error::Timeout { rank, peer, mu, waited, .. }) => {
                assert_eq!((*rank, *peer, *mu), (0, 1, Some(3)));
                assert!(*waited >= Duration::from_millis(200));
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }
}
