//! Per-rank flight recorder: the observability layer of the workspace.
//!
//! The paper's argument is a *timeline* argument — Fig. 4 is nine streams
//! of interior compute overlapped with staged ghost traffic, Fig. 7
//! attributes solver time to kernels vs. exposed communication. The
//! cumulative per-stage totals the overlap pipeline keeps are too coarse
//! to validate that stage mapping, so this module records the stages
//! themselves:
//!
//! * a per-rank [`TraceBuffer`] of typed [`TraceEvent`]s — span
//!   begin/end, instants, counters — with monotonic nanosecond timestamps
//!   off one process-wide epoch (so ranks align on a common time axis);
//! * recording is *lock-free on the hot path*: each rank thread owns its
//!   buffer through a thread-local installed by [`rank_scope`], pushes
//!   are plain `Vec` appends, and the buffer only crosses a lock once,
//!   when the scope drops and flushes it to the global sink;
//! * when tracing is disabled (the default) every recording call is one
//!   relaxed atomic load and a branch — no timestamps, no thread-local
//!   access, no allocation;
//! * collected buffers export as Chrome `trace_event` JSON
//!   ([`export_chrome_json`]: one *process* per rank, one *thread* track
//!   per pipeline stage — load the file in `chrome://tracing` or
//!   Perfetto) or aggregate into a text report ([`summarize`]);
//! * [`MetricsRegistry`] is a registry of named counters; the autotuner
//!   counts its trials, cache hits and decisions there.
//!
//! Instrumentation sites pick a [`Track`] matching the Fig. 4 stream the
//! work belongs to; see DESIGN.md, "Observability".

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Pipeline stage a trace event belongs to. Exported as one Chrome
/// thread track per stage within each rank's process group.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// Wire traffic: link sends/receives, ARQ retries, acks, reductions,
    /// and the in-flight window of posted ghost exchanges.
    Comm,
    /// Face gathers + nonblocking posts (Fig. 4 gather kernels).
    Gather,
    /// Interior stencil kernel (runs concurrently with `Comm`).
    Interior,
    /// Per-dimension exterior (boundary) kernels.
    Exterior,
    /// Outer solver iterations and restarts.
    Solver,
    /// Schwarz-block preconditioner applications.
    Precond,
    /// Checkpoint writes.
    Checkpoint,
    /// Supervisor control plane: world teardown/rebuild, resume.
    Supervisor,
}

impl Track {
    /// Every track, in export order.
    pub const ALL: [Track; 8] = [
        Track::Comm,
        Track::Gather,
        Track::Interior,
        Track::Exterior,
        Track::Solver,
        Track::Precond,
        Track::Checkpoint,
        Track::Supervisor,
    ];

    /// Stable Chrome `tid` for the track.
    pub fn tid(self) -> u64 {
        match self {
            Track::Comm => 0,
            Track::Gather => 1,
            Track::Interior => 2,
            Track::Exterior => 3,
            Track::Solver => 4,
            Track::Precond => 5,
            Track::Checkpoint => 6,
            Track::Supervisor => 7,
        }
    }

    /// Human-readable track label.
    pub fn label(self) -> &'static str {
        match self {
            Track::Comm => "comm",
            Track::Gather => "gather",
            Track::Interior => "interior",
            Track::Exterior => "exterior",
            Track::Solver => "solver",
            Track::Precond => "precond",
            Track::Checkpoint => "checkpoint",
            Track::Supervisor => "supervisor",
        }
    }
}

/// What a [`TraceEvent`] marks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// Span opens (Chrome `B`).
    Begin,
    /// Span closes (Chrome `E`).
    End,
    /// Point event (Chrome `i`).
    Instant,
    /// Sampled counter value (Chrome `C`).
    Counter(f64),
}

/// One recorded event. `name` is static so recording never allocates;
/// `arg` carries one small payload (a dimension, sequence, iteration…).
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Nanoseconds since the process-wide trace epoch.
    pub t_ns: u64,
    /// Pipeline stage track.
    pub track: Track,
    /// Event name (span and its end share the name).
    pub name: &'static str,
    /// Begin/End/Instant/Counter.
    pub kind: EventKind,
    /// Small integer payload; meaning is per event name.
    pub arg: i64,
}

/// One rank's recorded events, in record order.
pub type TraceBuffer = Vec<TraceEvent>;

/// Pseudo-rank for control-plane events recorded outside any rank thread
/// (the supervisor). Exported under its own process group.
pub const CONTROL_RANK: usize = usize::MAX;

static ENABLED: AtomicBool = AtomicBool::new(false);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the process-wide trace epoch. All ranks
/// (threads) share the epoch, so timestamps are directly comparable.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Switch recording on. Call before launching the world whose ranks
/// should record; typically paired with [`take`] afterwards.
pub fn enable() {
    // Pin the epoch before the first event so early timestamps are small.
    let _ = epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Switch recording off (recording calls return to the one-load path).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether recording is switched on.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

struct LocalBuf {
    rank: usize,
    events: TraceBuffer,
}

thread_local! {
    static LOCAL: RefCell<Option<LocalBuf>> = const { RefCell::new(None) };
}

static SINK: Mutex<Vec<(usize, TraceBuffer)>> = Mutex::new(Vec::new());

/// Install this thread as recorder for `rank` until the guard drops, at
/// which point the buffer is flushed to the global sink (readable via
/// [`take`]). Scopes nest: the previous recorder (if any) is restored on
/// drop, so a supervisor scope survives worlds launched inside it. A
/// no-op (and cost-free) when tracing is disabled at creation.
pub fn rank_scope(rank: usize) -> RankScope {
    if !is_enabled() {
        return RankScope { prev: None, armed: false };
    }
    let prev = LOCAL.with(|l| l.replace(Some(LocalBuf { rank, events: Vec::with_capacity(1024) })));
    RankScope { prev, armed: true }
}

/// Guard returned by [`rank_scope`]; flushes the rank's buffer on drop
/// (including during panic unwinding, so a dying rank's events survive).
pub struct RankScope {
    prev: Option<LocalBuf>,
    armed: bool,
}

impl Drop for RankScope {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let buf = LOCAL.with(|l| l.replace(self.prev.take()));
        if let Some(b) = buf {
            if !b.events.is_empty() {
                SINK.lock().unwrap().push((b.rank, b.events));
            }
        }
    }
}

/// Drain every flushed buffer, merged per rank and ordered by timestamp
/// (rank order first). Buffers of scopes still alive are not included.
pub fn take() -> Vec<(usize, TraceBuffer)> {
    let drained = std::mem::take(&mut *SINK.lock().unwrap());
    let mut by_rank: BTreeMap<usize, TraceBuffer> = BTreeMap::new();
    for (rank, events) in drained {
        by_rank.entry(rank).or_default().extend(events);
    }
    by_rank
        .into_iter()
        .map(|(rank, mut events)| {
            // Stable: equal timestamps keep record order (B before E).
            events.sort_by_key(|e| e.t_ns);
            (rank, events)
        })
        .collect()
}

/// Discard everything flushed so far.
pub fn clear() {
    SINK.lock().unwrap().clear();
}

#[inline]
fn record_at(t_ns: u64, track: Track, name: &'static str, kind: EventKind, arg: i64) {
    LOCAL.with(|l| {
        if let Some(buf) = l.borrow_mut().as_mut() {
            buf.events.push(TraceEvent { t_ns, track, name, kind, arg });
        }
    });
}

#[inline]
fn record(track: Track, name: &'static str, kind: EventKind, arg: i64) {
    if !is_enabled() {
        return;
    }
    record_at(now_ns(), track, name, kind, arg);
}

/// Record a point event.
#[inline]
pub fn instant(track: Track, name: &'static str, arg: i64) {
    record(track, name, EventKind::Instant, arg);
}

/// Record a counter sample.
#[inline]
pub fn counter(track: Track, name: &'static str, value: f64) {
    record(track, name, EventKind::Counter(value), 0);
}

/// Open a span; it closes when the returned guard drops. When disabled
/// the guard is inert (no timestamp is even read).
#[inline]
pub fn span(track: Track, name: &'static str) -> Span {
    span_arg(track, name, 0)
}

/// [`span`] with a payload on the begin event.
#[inline]
pub fn span_arg(track: Track, name: &'static str, arg: i64) -> Span {
    if !is_enabled() {
        return Span { track, name, armed: false };
    }
    record_at(now_ns(), track, name, EventKind::Begin, arg);
    Span { track, name, armed: true }
}

/// Record an already-measured span retroactively (both endpoints at
/// once) — used for stages timed on other threads, like the interior
/// kernel, whose duration is known only after the fact.
#[inline]
pub fn span_at(track: Track, name: &'static str, start_ns: u64, end_ns: u64, arg: i64) {
    if !is_enabled() {
        return;
    }
    record_at(start_ns, track, name, EventKind::Begin, arg);
    record_at(end_ns.max(start_ns), track, name, EventKind::End, arg);
}

/// RAII span guard from [`span`]; records the matching end on drop (also
/// during unwinding, keeping per-rank begin/end balanced).
pub struct Span {
    track: Track,
    name: &'static str,
    armed: bool,
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            record_at(now_ns(), self.track, self.name, EventKind::End, 0);
        }
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn chrome_pid(rank: usize) -> u64 {
    if rank == CONTROL_RANK {
        999_999
    } else {
        rank as u64
    }
}

fn push_ts(out: &mut String, t_ns: u64) {
    // Chrome expects microseconds; keep nanosecond resolution as the
    // fractional part.
    let _ = write!(out, "{}.{:03}", t_ns / 1_000, t_ns % 1_000);
}

/// Render collected buffers as Chrome `trace_event` JSON (the
/// `{"traceEvents": [...]}` object form): one process per rank, one
/// thread track per [`Track`]. Guaranteed well-formed even for buffers
/// truncated by a dying rank: stray `E`s are dropped and unclosed `B`s
/// are closed at the buffer's last timestamp, so every `B` has a
/// matching `E`.
pub fn export_chrome_json(ranks: &[(usize, TraceBuffer)]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    let meta = |out: &mut String, first: &mut bool, pid: u64, tid: Option<u64>, name: &str| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        let field = if tid.is_some() { "thread_name" } else { "process_name" };
        let _ = write!(out, "{{\"ph\":\"M\",\"pid\":{pid},");
        if let Some(tid) = tid {
            let _ = write!(out, "\"tid\":{tid},");
        }
        let _ = write!(out, "\"name\":\"{field}\",\"args\":{{\"name\":\"");
        escape_into(out, name);
        out.push_str("\"}}");
    };
    for (rank, events) in ranks {
        let pid = chrome_pid(*rank);
        let pname =
            if *rank == CONTROL_RANK { "control".to_string() } else { format!("rank {rank}") };
        meta(&mut out, &mut first, pid, None, &pname);
        let mut tracks: Vec<Track> = events.iter().map(|e| e.track).collect();
        tracks.sort();
        tracks.dedup();
        for track in &tracks {
            meta(&mut out, &mut first, pid, Some(track.tid()), track.label());
        }
        // Per-track open-span stacks, for balance repair.
        let mut open: BTreeMap<u64, Vec<&'static str>> = BTreeMap::new();
        let mut last_ns = 0u64;
        for e in events {
            last_ns = last_ns.max(e.t_ns);
            let tid = e.track.tid();
            let ph = match e.kind {
                EventKind::Begin => {
                    open.entry(tid).or_default().push(e.name);
                    "B"
                }
                EventKind::End => {
                    // A stray end (begin lost to a truncated buffer)
                    // would unbalance the track: drop it.
                    if open.get_mut(&tid).and_then(Vec::pop).is_none() {
                        continue;
                    }
                    "E"
                }
                EventKind::Instant => "i",
                EventKind::Counter(_) => "C",
            };
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(out, "{{\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":");
            push_ts(&mut out, e.t_ns);
            out.push_str(",\"name\":\"");
            escape_into(&mut out, e.name);
            out.push('"');
            match e.kind {
                EventKind::Instant => {
                    let _ = write!(out, ",\"s\":\"t\",\"args\":{{\"arg\":{}}}", e.arg);
                }
                EventKind::Counter(v) => {
                    let _ = write!(out, ",\"args\":{{\"value\":{v}}}");
                }
                EventKind::Begin => {
                    let _ = write!(out, ",\"args\":{{\"arg\":{}}}", e.arg);
                }
                EventKind::End => {}
            }
            out.push('}');
        }
        // Close anything a truncated buffer left open.
        for (tid, stack) in open {
            for name in stack.into_iter().rev() {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let _ = write!(out, "{{\"ph\":\"E\",\"pid\":{pid},\"tid\":{tid},\"ts\":");
                push_ts(&mut out, last_ns);
                out.push_str(",\"name\":\"");
                escape_into(&mut out, name);
                out.push_str("\"}");
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Aggregate collected buffers into an aligned text report: per
/// (track, span name) the call count and total/mean wall time across all
/// ranks, plus instant counts and counter sums.
pub fn summarize(ranks: &[(usize, TraceBuffer)]) -> String {
    #[derive(Default)]
    struct Agg {
        spans: u64,
        span_ns: u64,
        instants: u64,
        counter_sum: f64,
    }
    let mut agg: BTreeMap<(Track, &'static str), Agg> = BTreeMap::new();
    for (_, events) in ranks {
        let mut open: BTreeMap<u64, Vec<(&'static str, u64)>> = BTreeMap::new();
        for e in events {
            let a = agg.entry((e.track, e.name)).or_default();
            match e.kind {
                EventKind::Begin => open.entry(e.track.tid()).or_default().push((e.name, e.t_ns)),
                EventKind::End => {
                    if let Some((name, begin)) = open.get_mut(&e.track.tid()).and_then(Vec::pop) {
                        let a = agg.entry((e.track, name)).or_default();
                        a.spans += 1;
                        a.span_ns += e.t_ns.saturating_sub(begin);
                    }
                }
                EventKind::Instant => a.instants += 1,
                EventKind::Counter(v) => a.counter_sum += v,
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<24} {:>9} {:>12} {:>10} {:>8}",
        "track", "event", "spans", "total µs", "mean µs", "points"
    );
    for ((track, name), a) in &agg {
        let mean = if a.spans > 0 { a.span_ns as f64 / a.spans as f64 / 1e3 } else { 0.0 };
        let _ = writeln!(
            out,
            "{:<12} {:<24} {:>9} {:>12.1} {:>10.2} {:>8}",
            track.label(),
            name,
            a.spans,
            a.span_ns as f64 / 1e3,
            mean,
            a.instants + if a.counter_sum != 0.0 { 1 } else { 0 },
        );
    }
    out
}

/// A registry of named counters. The autotuner counts its decisions
/// here (`tune.*`), and the `tune` bench bin prints the report.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter (created at zero).
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Aligned text report of every counter.
    pub fn text_report(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<36} {:>14}", "counter", "value");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "{name:<36} {v:>14}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global enable flag and sink are process-wide; trace tests
    /// serialize on this lock so `cargo test`'s parallel runner cannot
    /// interleave two recording sessions.
    pub(super) fn session_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _g = session_lock();
        disable();
        clear();
        {
            let _s = rank_scope(0);
            let _sp = span(Track::Solver, "iter");
            instant(Track::Comm, "send", 1);
            counter(Track::Comm, "bytes", 10.0);
        }
        assert!(take().is_empty());
    }

    #[test]
    fn spans_nest_and_flush_per_rank() {
        let _g = session_lock();
        enable();
        clear();
        {
            let _s = rank_scope(3);
            let _outer = span_arg(Track::Solver, "outer", 7);
            {
                let _inner = span(Track::Solver, "inner");
                instant(Track::Solver, "tick", 0);
            }
        }
        disable();
        let got = take();
        assert_eq!(got.len(), 1);
        let (rank, events) = &got[0];
        assert_eq!(*rank, 3);
        let kinds: Vec<(&str, bool)> =
            events.iter().map(|e| (e.name, matches!(e.kind, EventKind::Begin))).collect();
        assert_eq!(
            kinds,
            vec![
                ("outer", true),
                ("inner", true),
                ("tick", false),
                ("inner", false),
                ("outer", false)
            ]
        );
        // Timestamps are monotone within the buffer.
        assert!(events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn nested_scopes_restore_the_outer_recorder() {
        let _g = session_lock();
        enable();
        clear();
        {
            let _outer = rank_scope(CONTROL_RANK);
            instant(Track::Supervisor, "launch", 0);
            {
                let _inner = rank_scope(5);
                instant(Track::Solver, "inner-evt", 0);
            }
            // Back on the control recorder.
            instant(Track::Supervisor, "relaunch", 1);
        }
        disable();
        let got = take();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 5);
        assert_eq!(got[1].0, CONTROL_RANK);
        assert_eq!(got[1].1.len(), 2);
    }

    #[test]
    fn retroactive_spans_clamp_and_order() {
        let _g = session_lock();
        enable();
        clear();
        {
            let _s = rank_scope(0);
            span_at(Track::Interior, "interior", 1_000, 5_000, 2);
            // end < start must not produce a negative-length span.
            span_at(Track::Interior, "degenerate", 9_000, 8_000, 0);
        }
        disable();
        let got = take();
        let events = &got[0].1;
        assert_eq!(events[0].t_ns, 1_000);
        assert_eq!(events[1].t_ns, 5_000);
        assert_eq!(events[2].t_ns, 9_000);
        assert_eq!(events[3].t_ns, 9_000);
    }

    #[test]
    fn chrome_export_repairs_truncated_buffers() {
        let buf = vec![
            TraceEvent {
                t_ns: 10,
                track: Track::Solver,
                name: "a",
                kind: EventKind::Begin,
                arg: 0,
            },
            TraceEvent {
                t_ns: 20,
                track: Track::Solver,
                name: "b",
                kind: EventKind::Begin,
                arg: 0,
            },
            // Buffer truncated here: both spans left open, plus a stray
            // end on another track.
            TraceEvent { t_ns: 30, track: Track::Comm, name: "x", kind: EventKind::End, arg: 0 },
        ];
        let json = export_chrome_json(&[(1, buf)]);
        let b = json.matches("\"ph\":\"B\"").count();
        let e = json.matches("\"ph\":\"E\"").count();
        assert_eq!(b, 2);
        assert_eq!(e, 2, "unclosed spans must be closed, stray ends dropped: {json}");
    }

    #[test]
    fn summarize_reports_span_totals() {
        let buf = vec![
            TraceEvent {
                t_ns: 0,
                track: Track::Interior,
                name: "interior",
                kind: EventKind::Begin,
                arg: 0,
            },
            TraceEvent {
                t_ns: 4_000,
                track: Track::Interior,
                name: "interior",
                kind: EventKind::End,
                arg: 0,
            },
            TraceEvent {
                t_ns: 100,
                track: Track::Comm,
                name: "retry",
                kind: EventKind::Instant,
                arg: 0,
            },
        ];
        let report = summarize(&[(0, buf)]);
        assert!(report.contains("interior"), "{report}");
        assert!(report.contains("4.0"), "span total µs missing: {report}");
        assert!(report.contains("retry"), "{report}");
    }

    #[test]
    fn metrics_registry_counts_merges_and_reports() {
        let mut a = MetricsRegistry::new();
        a.add("solve.iterations", 10);
        a.add("solve.iterations", 5);
        a.add("solve.iterations", 3);
        assert_eq!(a.counter("solve.iterations"), 18);
        let report = a.text_report();
        assert!(report.contains("solve.iterations"));
        assert!(report.contains("18"));
        assert_eq!(a.counter("never.touched"), 0);
        assert!(MetricsRegistry::new().text_report().is_empty());
    }
}
