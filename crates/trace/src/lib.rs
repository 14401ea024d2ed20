//! # ddrs-trace — request-lifecycle tracing and unified metrics
//!
//! The paper's contribution is a *cost model* — O(1) communication
//! rounds, `h = s/p` words per h-relation — and the serving stack above
//! the simulator grew aggregate telemetry (`RunStatsRollup`, latency
//! histograms) that can verify those bounds in bulk but cannot say where
//! one request's p99 actually went: queue wait, coalescing window,
//! machine run, cross-shard merge, or wakeup. This crate is the missing
//! attribution layer, in four pieces:
//!
//! * **Span recording** ([`SpanId`], [`Stage`], [`begin`]/[`end`]/
//!   [`transition`]): every request op carries a `SpanId` from admission
//!   to resolution, and the front-ends mark its stage boundaries as
//!   nanosecond-timestamped events in per-thread bounded ring buffers.
//!   Recording is compiled to no-ops unless `debug_assertions` or the
//!   `trace` feature is on (the same plumbing as `ddrs-check`'s
//!   `lock-check`): the hot path of a default release build pays
//!   nothing, not even a branch on an atomic.
//! * **Stage aggregates** ([`StageBreakdown`]): always-on O(1)-space
//!   per-stage sums/maxima the serving stats embed, so `BENCH_*.json`
//!   can report a `stage_breakdown_us` section even in default release
//!   builds.
//! * **A unified registry** ([`MetricsRegistry`]): counters, gauges and
//!   the (relocated) [`Histogram`] under one namespace with one
//!   `snapshot()`, which `ShardedStats`, `NetStats` and
//!   `RunStatsRollup` register into.
//! * **Exporters**: [`Trace::export_chrome`] renders captured spans (and
//!   per-rank machine timelines) as chrome://tracing / Perfetto JSON;
//!   [`StageBreakdown::render_table`] prints the plain-text breakdown
//!   the repro harness embeds.
//!
//! The crate depends only on `ddrs-check` (its ring and registry locks
//! are [`TrackedMutex`](ddrs_check::TrackedMutex)es under the classes
//! `trace.ring` and `metrics.registry`, the two innermost classes of
//! the workspace lock order — recording is legal under any other held
//! lock, and must itself hold nothing while acquiring).

#![warn(missing_docs)]

mod hist;
mod metrics;
mod stage;

#[cfg(any(debug_assertions, feature = "trace"))]
mod ring;

pub mod chrome;

pub use hist::Histogram;
pub use metrics::{MetricValue, MetricsRegistry};
pub use stage::{StageAgg, StageBreakdown};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// True when span recording is compiled in (debug builds, or any build
/// with the `trace` feature). When false, [`SpanId::fresh`] returns
/// [`SpanId::NONE`], [`now_ns`] returns 0 and every recording entry
/// point is a no-op the optimizer deletes.
pub const fn enabled() -> bool {
    cfg!(any(debug_assertions, feature = "trace"))
}

/// Identity of one request op's lifecycle span, assigned at ticket
/// creation and carried through every stage transition. `NONE` (0) is
/// the inert identity: recording against it is a no-op, so spans thread
/// through the stack unconditionally and cost nothing when tracing is
/// compiled out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The inert span: recording against it does nothing.
    pub const NONE: SpanId = SpanId(0);

    /// Allocate a fresh process-unique span id ([`SpanId::NONE`] when
    /// recording is compiled out).
    pub fn fresh() -> SpanId {
        if !enabled() {
            return SpanId::NONE;
        }
        static NEXT: AtomicU64 = AtomicU64::new(1);
        // ddrs-check: allow(relaxed) — a pure id allocator: uniqueness
        // needs only the RMW's atomicity, no ordering with other data.
        SpanId(NEXT.fetch_add(1, Ordering::Relaxed))
    }

    /// True for the inert span.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// The lifecycle stages a request op moves through, front-end agnostic:
/// the sharded router and the network front-end decompose into the same
/// five stages (per-stage meanings are documented on each variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Admission → window fire: time spent pending in the scheduler
    /// queue (includes the deliberate coalescing delay).
    Queue,
    /// Window fire → dispatch to the machine(s): carve, read gating,
    /// routing/planning, epoch validation.
    Window,
    /// Machine execution: the SPMD run(s) answering this op — for a
    /// cross-shard read, from scatter until the last shard's arrival.
    MachineRun,
    /// Run completion → resolution decided: stats absorption, partial
    /// merging (`CrossOp` countdown), commit-sequence assignment.
    Merge,
    /// Ticket resolution: waker/condvar signalling and callback
    /// delivery.
    Resolve,
    /// Wire serialization of a request or response (`ddrs-net` codec).
    /// Only networked requests pass through the three wire stages; for
    /// in-process backends they simply never appear on a span.
    Encode,
    /// Bytes in flight: from the frame's write on one side until its
    /// demultiplexed arrival on the other (includes kernel socket
    /// queues and the peer's reader wakeup).
    Transport,
    /// Wire deserialization of a request or response.
    Decode,
}

impl Stage {
    /// All stages in lifecycle order (the three wire stages trail the
    /// five serving stages; they wrap the serving lifecycle on
    /// networked requests).
    pub const ALL: [Stage; 8] = [
        Stage::Queue,
        Stage::Window,
        Stage::MachineRun,
        Stage::Merge,
        Stage::Resolve,
        Stage::Encode,
        Stage::Transport,
        Stage::Decode,
    ];

    /// Stable lowercase label (used by the exporters and bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Window => "window",
            Stage::MachineRun => "machine_run",
            Stage::Merge => "merge",
            Stage::Resolve => "resolve",
            Stage::Encode => "encode",
            Stage::Transport => "transport",
            Stage::Decode => "decode",
        }
    }

    /// Position in lifecycle order (0-based).
    pub fn index(self) -> usize {
        match self {
            Stage::Queue => 0,
            Stage::Window => 1,
            Stage::MachineRun => 2,
            Stage::Merge => 3,
            Stage::Resolve => 4,
            Stage::Encode => 5,
            Stage::Transport => 6,
            Stage::Decode => 7,
        }
    }
}

/// Whether an event opens or closes a stage interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The stage interval opens at this event's timestamp.
    Begin,
    /// The stage interval closes at this event's timestamp.
    End,
}

/// One recorded span event: a stage boundary of one request op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The op's lifecycle span.
    pub span: SpanId,
    /// Which stage this boundary belongs to.
    pub stage: Stage,
    /// Opening or closing boundary.
    pub kind: EventKind,
    /// Error tag: a closing boundary recorded on a failure path (the
    /// op resolved with an error, expired, or hit a poisoned shard).
    pub err: bool,
    /// Nanoseconds since the process trace epoch (see [`now_ns`]).
    pub t_ns: u64,
}

/// One per-rank slice of a machine-run timeline: for one collective
/// call (superstep), how long this rank computed since the previous
/// collective and how long it waited at the exchange barrier.
/// Timestamps share the span clock ([`now_ns`]), so request spans and
/// machine timelines land on one chrome://tracing timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankStep {
    /// The simulated processor's rank.
    pub rank: usize,
    /// Superstep index within the run.
    pub round: usize,
    /// Label of the collective that closed this slice.
    pub label: &'static str,
    /// When the compute slice started (end of the previous collective).
    pub start_ns: u64,
    /// Local computation time before entering the collective.
    pub compute_ns: u64,
    /// Time blocked in the collective's exchange barrier.
    pub barrier_ns: u64,
}

/// Nanoseconds since the process trace epoch (a lazily initialised
/// monotonic base shared by all threads), or 0 when recording is
/// compiled out.
pub fn now_ns() -> u64 {
    if !enabled() {
        return 0;
    }
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[inline]
fn record(ev: Event) {
    #[cfg(any(debug_assertions, feature = "trace"))]
    ring::push(ev);
    #[cfg(not(any(debug_assertions, feature = "trace")))]
    let _ = ev;
}

/// Open `stage` on `span` now. No-op for [`SpanId::NONE`] or when
/// recording is compiled out.
#[inline]
pub fn begin(span: SpanId, stage: Stage) {
    if !enabled() || span.is_none() {
        return;
    }
    record(Event { span, stage, kind: EventKind::Begin, err: false, t_ns: now_ns() });
}

/// Close `stage` on `span` now.
#[inline]
pub fn end(span: SpanId, stage: Stage) {
    if !enabled() || span.is_none() {
        return;
    }
    record(Event { span, stage, kind: EventKind::End, err: false, t_ns: now_ns() });
}

/// Close `stage` on `span` now with the error tag set (failure paths:
/// deadline expiry, shutdown rejection, poisoned shards, machine
/// errors).
#[inline]
pub fn end_err(span: SpanId, stage: Stage) {
    if !enabled() || span.is_none() {
        return;
    }
    record(Event { span, stage, kind: EventKind::End, err: true, t_ns: now_ns() });
}

/// Close `from` and open `to` with one shared timestamp, so adjacent
/// stages are exactly contiguous (no gap, no overlap).
#[inline]
pub fn transition(span: SpanId, from: Stage, to: Stage) {
    if !enabled() || span.is_none() {
        return;
    }
    let t_ns = now_ns();
    record(Event { span, stage: from, kind: EventKind::End, err: false, t_ns });
    record(Event { span, stage: to, kind: EventKind::Begin, err: false, t_ns });
}

/// Record a complete (already elapsed) stage: a `Begin` at `t0_ns` and
/// an `End` now, the latter carrying `err`. Used for stages measured
/// around a call rather than marked incrementally (e.g. `Resolve`).
#[inline]
pub fn complete(span: SpanId, stage: Stage, t0_ns: u64, err: bool) {
    if !enabled() || span.is_none() {
        return;
    }
    record(Event { span, stage, kind: EventKind::Begin, err: false, t_ns: t0_ns });
    record(Event { span, stage, kind: EventKind::End, err, t_ns: now_ns() });
}

/// A captured snapshot of recorded span events, ordered by timestamp.
///
/// Capturing copies (does not drain) the per-thread rings, so
/// concurrent captures — e.g. parallel tests in one binary — never
/// steal each other's events; filter by the [`SpanId`]s you own.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The captured events, ascending by `t_ns` (ties keep per-ring
    /// order: a `transition`'s End sorts before its Begin's successor).
    pub events: Vec<Event>,
}

impl Trace {
    /// Snapshot every thread's ring. Empty when recording is compiled
    /// out.
    pub fn capture() -> Trace {
        #[cfg(any(debug_assertions, feature = "trace"))]
        {
            let mut events = ring::snapshot();
            events.sort_by_key(|e| (e.t_ns, e.span, e.stage.index(), e.kind == EventKind::Begin));
            Trace { events }
        }
        #[cfg(not(any(debug_assertions, feature = "trace")))]
        {
            Trace::default()
        }
    }

    /// The events of one span, in timestamp order.
    pub fn span_events(&self, span: SpanId) -> Vec<Event> {
        self.events.iter().filter(|e| e.span == span).copied().collect()
    }

    /// Render the captured spans (plus optional per-rank machine
    /// timeline steps) as a chrome://tracing "trace events" JSON array —
    /// load it at chrome://tracing or <https://ui.perfetto.dev>.
    pub fn export_chrome(&self, timeline: &[RankStep]) -> String {
        chrome::export(&self.events, timeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_span_records_nothing() {
        begin(SpanId::NONE, Stage::Queue);
        end(SpanId::NONE, Stage::Queue);
        let t = Trace::capture();
        assert!(t.span_events(SpanId::NONE).is_empty());
    }

    #[test]
    fn fresh_spans_are_unique_when_enabled() {
        let a = SpanId::fresh();
        let b = SpanId::fresh();
        if enabled() {
            assert!(!a.is_none() && !b.is_none());
            assert_ne!(a, b);
        } else {
            assert!(a.is_none() && b.is_none());
        }
    }

    #[test]
    fn transition_shares_one_timestamp() {
        if !enabled() {
            return;
        }
        let s = SpanId::fresh();
        begin(s, Stage::Queue);
        transition(s, Stage::Queue, Stage::Window);
        end(s, Stage::Window);
        let evs = Trace::capture().span_events(s);
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[1].t_ns, evs[2].t_ns, "transition must share its timestamp");
        assert_eq!((evs[1].stage, evs[1].kind), (Stage::Queue, EventKind::End));
        assert_eq!((evs[2].stage, evs[2].kind), (Stage::Window, EventKind::Begin));
    }

    #[test]
    fn complete_records_a_closed_interval_with_err() {
        if !enabled() {
            return;
        }
        let s = SpanId::fresh();
        let t0 = now_ns();
        complete(s, Stage::Resolve, t0, true);
        let evs = Trace::capture().span_events(s);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, EventKind::Begin);
        assert!(evs[1].err, "the closing boundary carries the error tag");
        assert!(evs[1].t_ns >= evs[0].t_ns);
    }

    #[test]
    fn stage_order_and_names_are_stable() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        assert_eq!(Stage::MachineRun.name(), "machine_run");
    }
}
