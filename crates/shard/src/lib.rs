//! # ddrs-shard — the serving front-end and scatter-gather router
//!
//! This crate turns many small concurrent client requests into the few
//! big fused machine runs the engine is fast at. The id/key domain is
//! partitioned across `S` *shard groups*, each owning its own
//! [`Machine`], its own [`DynamicDistRangeTree`] and its own worker
//! thread, behind a single [`ShardedService`] façade that hands out
//! `Ticket`s resolving to `Commit { value, seq }`. A single store is
//! served as `S = 1` (one machine, [`PartitionPolicy::Hash`]), with the
//! same write-ahead log and [`ShardedService::recover_shard`] as any
//! other shard count:
//!
//! ```text
//!  client threads        router thread                 shard groups
//!  ──────────────   ┌──────────────────────┐   ┌───────────────────────┐
//!  count(q) ───┐    │ group-commit window  │   │ shard 0: Machine +    │
//!  insert(b) ──┼──▶ │  (ddrs-sched core:   │──▶│  tree + worker thread │
//!  report(q) ──┘    │   max_batch /        │   ├───────────────────────┤
//!     │             │   max_delay)         │   │ shard 1: Machine + …  │
//!     ▼             │                      │   ├───────────────────────┤
//!  Ticket::wait ◀───│ reads → routed fused │   │ …                     │
//!  (value, global   │  sub-batches, async  │   ├───────────────────────┤
//!   commit seq)     │  scatter-gather      │   │ shard S-1             │
//!                   │ writes → routed      │   └───────────────────────┘
//!                   │  sub-epoch barrier   │     each sub-batch: ≤ 1
//!                   └──────────────────────┘     Machine::run per shard
//! ```
//!
//! ## Routing and merging
//!
//! * **Reads.** A coalesced read window is planned into at most one fused
//!   sub-batch per *touched* shard ([`ddrs_engine::QueryBatch`]), so a
//!   mixed cross-shard read batch costs **at most one machine run per
//!   shard it overlaps** however many queries it coalesced. Under the
//!   range policy a query is enqueued only on the slabs its first-axis
//!   interval overlaps, clipped at the shard boundaries; under hash
//!   placement a degenerate (point) query routes to exactly the shard
//!   the placement mix chose, while wider hash-policy scans — the one
//!   genuinely unroutable shape — still fan out to every shard.
//!   Partials merge deterministically: counts sum, aggregates fold with
//!   the (commutative) semigroup, report ids concatenate and sort
//!   ascending — byte-identical to the unsharded answer.
//! * **Writes.** Each write routes by key: inserts to the placement
//!   policy's shard, deletes to the owning shard (the router keeps the
//!   authoritative id → shard index). A write window applies as one
//!   sub-epoch per touched shard, scattered in parallel and gathered as
//!   a barrier before the next window dispatches.
//! * **Concurrency.** Read windows never block the router: each shard's
//!   fused sub-batch executes on that shard's own worker thread, which
//!   also resolves the tickets (single-shard directly; cross-shard via a
//!   shared countdown merging the partials). The router carves and
//!   scatters the next window while earlier reads are still running, so
//!   shards with independent work proceed in parallel. Read sub-batches
//!   that queue up behind a busy shard ride its next machine run
//!   together (group commit at the shard), so a burst becomes a few
//!   large runs rather than a backlog of small ones — on one shard this
//!   is the classic group-commit loop. Write epochs and splits stay
//!   synchronous on the router thread — that barrier *is* the epoch
//!   protocol.
//! * **Global sequence.** The router assigns every committed response a
//!   position in one *global* commit order at planning time: replaying
//!   committed requests in `seq` order through a sequential oracle
//!   reproduces every response. The invariant survives concurrent reads
//!   because each worker executes its jobs in FIFO order and every
//!   write epoch is a router barrier: a read planned between write
//!   epochs `W_k` and `W_{k+1}` reaches every shard after `W_k`'s
//!   sub-epochs and before `W_{k+1}`'s, so it observes exactly the
//!   post-`W_k` state its pre-assigned seq claims.
//!
//! ## Failure containment
//!
//! A simulated-processor panic during a *read* fails only the requests
//! that needed the failing shard. A panic during a *write sub-epoch*
//! aborts the whole epoch: every request in it fails, sub-epochs already
//! applied on healthy shards are **rolled back** (their extracted points
//! re-inserted, their fresh inserts deleted), and the failing shard is
//! **poisoned** — quarantined from all further traffic while its
//! siblings keep serving. Committed history is never contradicted.
//!
//! ## Rebalancing
//!
//! [`ShardedService::split_shard`] migrates the upper or lower half of a
//! shard's points (split on the first axis, ties kept together) to a
//! sibling, updating the ownership index — and, under the range policy,
//! the slab boundary — atomically between dispatches, so in-flight
//! requests commit before or after the migration, never astride it. A
//! skew trigger ([`ShardedConfig::rebalance_factor`]) runs the same
//! migration automatically after a write epoch leaves a shard holding
//! more than `factor ×` the mean. Under hash placement a migration
//! breaks the coordinate-mix residency invariant, so from the first
//! hash-policy split onward degenerate point *reads* stop routing to a
//! single shard and fan out fully — correctness over routing
//! minimality; key-routed deletes still hit one shard via the ownership
//! index.
//!
//! ## Example
//!
//! ```
//! use ddrs_cgm::Machine;
//! use ddrs_client::RangeStore;
//! use ddrs_rangetree::{Point, Rect, Sum};
//! use ddrs_shard::{PartitionPolicy, ShardedConfig, ShardedService};
//!
//! let machines: Vec<Machine> = (0..2).map(|_| Machine::new(2).unwrap()).collect();
//! let pts: Vec<Point<2>> =
//!     (0..64).map(|i| Point::weighted([i, 63 - i], i as u32, 1)).collect();
//! let service = ShardedService::start(
//!     machines,
//!     16,
//!     &pts,
//!     Sum,
//!     PartitionPolicy::range_uniform(2, 0, 64),
//!     ShardedConfig::default(),
//! )
//! .unwrap();
//! // Cross-shard scatter-gather: the rect spans both slabs.
//! let c = service.count(Rect::new([0, 0], [63, 63])).unwrap();
//! assert_eq!(c.wait().unwrap().value, 64);
//! let parts = service.shutdown();
//! assert_eq!(parts.iter().map(|(_, t)| t.len()).sum::<usize>(), 64);
//! ```

#![warn(missing_docs)]

mod partition;
mod stats;
mod worker;

pub use partition::PartitionPolicy;
pub use stats::{ShardSnapshot, ShardedStats};

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ddrs_cgm::{Machine, RunStats};
use ddrs_check::{TrackedGuard, TrackedMutex};
use ddrs_client::{
    ticket, Commit, PlannedOp, RangeStore, Request, Resolver, Response, ServiceError, SubmitError,
    Ticket,
};
use ddrs_engine::{BatchResults, QueryBatch};
use ddrs_rangetree::semigroup::comb_opt;
use ddrs_rangetree::{BuildError, DynamicDistRangeTree, Point, Rect, Semigroup, PAD_ID};
use ddrs_sched::{gate_reads, Pending, SchedConfig, SchedCore, StopMode, Window};
use ddrs_trace::{SpanId, Stage};
use ddrs_wal::{EpochRecord, EpochWal, LogSink, LogTail, MemSink, RecordKind};

use partition::Partitioner;
use worker::{
    spawn_worker, ReadComplete, RecoverReply, ShardJob, SplitReply, WorkerHandle, WriteReply,
};

/// Tuning knobs of the sharded serving layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedConfig {
    /// Dispatch as soon as this many requests are pending. Must be ≥ 1.
    /// One multi-op request's contiguous run is never split by this
    /// cap: a request carrying more reads than `max_batch` still
    /// dispatches as one fused window per shard.
    pub max_batch: usize,
    /// Dispatch once the oldest pending request has waited this long.
    pub max_delay: Duration,
    /// Admission bound: submissions beyond this queue depth are rejected
    /// with [`SubmitError::Overloaded`]; a single request carrying more
    /// ops than the whole capacity is rejected with the permanent
    /// [`SubmitError::RequestTooLarge`] instead. Must be ≥ 1.
    pub queue_capacity: usize,
    /// Skew trigger: after a committed write epoch, if the largest shard
    /// holds more than `rebalance_factor ×` the mean live-point count
    /// (and at least [`rebalance_min`](Self::rebalance_min) points), the
    /// router splits it toward a lighter sibling. `0.0` disables
    /// automatic rebalancing; values ≤ 1.0 make no sense and are treated
    /// as disabled.
    pub rebalance_factor: f64,
    /// Minimum donor size for an automatic split.
    pub rebalance_min: usize,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            max_batch: 64,
            max_delay: Duration::from_micros(500),
            queue_capacity: 4096,
            rebalance_factor: 0.0,
            rebalance_min: 64,
        }
    }
}

/// Outcome of a completed shard-split migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitReport {
    /// The shard that shrank.
    pub from: usize,
    /// The sibling that received the migrated points.
    pub to: usize,
    /// How many points moved.
    pub moved: usize,
    /// The axis-0 split coordinate. Under the range policy this is also
    /// the new slab boundary between the two shards.
    pub boundary: i64,
}

/// Outcome of a completed shard recovery: a quarantined shard rebuilt
/// from its write-ahead log and returned to service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The shard that was rebuilt.
    pub shard: usize,
    /// Committed WAL records replayed into the fresh store.
    pub replayed_records: usize,
    /// Live points in the rebuilt store.
    pub live_points: usize,
    /// `false` when the log ended in a torn or corrupt tail (expected
    /// after a crash mid-append): recovery stopped at the last complete
    /// record.
    pub clean_tail: bool,
    /// Wall-clock duration of the rebuild (decode + replay + rejoin).
    pub duration: Duration,
}

/// One request as it sits in the router queue: a client-contract op, or
/// one of the router's own commands (split / recover — the ops with no
/// `RangeStore` spelling).
enum Op<S: Semigroup, const D: usize> {
    Client(PlannedOp<S, D>),
    Split(usize, Resolver<SplitReport>),
    Recover(usize, Resolver<RecoveryReport>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Write,
    Split,
    Recover,
}

impl<S: Semigroup, const D: usize> Op<S, D> {
    fn kind(&self) -> Kind {
        match self {
            Op::Client(op) if op.is_read() => Kind::Read,
            Op::Client(_) => Kind::Write,
            Op::Split(..) => Kind::Split,
            Op::Recover(..) => Kind::Recover,
        }
    }

    fn fail(self, e: ServiceError) {
        match self {
            Op::Client(op) => op.fail(e),
            Op::Split(_, r) => r.resolve(Err(e)),
            Op::Recover(_, r) => r.resolve(Err(e)),
        }
    }

    fn span(&self) -> SpanId {
        match self {
            Op::Client(op) => op.span(),
            Op::Split(_, r) => r.span(),
            Op::Recover(_, r) => r.span(),
        }
    }
}

/// Whole microseconds between two instants (saturating at zero).
fn us_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_micros() as u64
}

struct Inner<S: Semigroup, const D: usize> {
    cfg: ShardedConfig,
    sg: S,
    /// The shared group-commit scheduler core (admission, window firing,
    /// group-preserving carve, deadline expiry — see `ddrs-sched`).
    core: SchedCore<Op<S, D>>,
    /// Lock class `stats` — taken after `sched.queue`, before
    /// `shard.faults` and `shard.cross` (see `ddrs_check`'s canonical
    /// order).
    stats: TrackedMutex<ShardedStats>,
    /// Shards whose next write sub-epoch should suffer an injected
    /// mid-epoch processor panic (deterministic fault injection for the
    /// test harness). Lock class `shard.faults`.
    faults: TrackedMutex<HashSet<usize>>,
}

/// The per-shard state handed back by [`ShardedService::dismantle`]:
/// the group's machine, its store, and its quarantine reason if a write
/// sub-epoch failed mid-apply (a poisoned store may be inconsistent).
#[derive(Debug)]
pub struct ShardParts<const D: usize> {
    /// The shard group's machine.
    pub machine: Machine,
    /// The shard group's store.
    pub tree: DynamicDistRangeTree<D>,
    /// `Some(reason)` if the shard was poisoned.
    pub poisoned: Option<String>,
}

/// The sharded serving front-end: `S` shard groups behind one
/// serializable façade.
///
/// Submission methods take `&self` from any thread and return
/// [`Ticket`]s; every committed response carries a position in one
/// *global* commit order (see the crate docs for the serializability
/// contract).
pub struct ShardedService<S: Semigroup, const D: usize> {
    inner: Arc<Inner<S, D>>,
    router: Option<JoinHandle<Vec<ShardParts<D>>>>,
    shards: usize,
}

impl<S: Semigroup, const D: usize> ShardedService<S, D> {
    /// Start the service: one shard group per machine, bulk-loading
    /// `initial` (partitioned by `policy`) in parallel across the
    /// groups, each store with rebuild unit `capacity`.
    ///
    /// Returns the same validation errors a sequential `insert_batch` of
    /// `initial` would (duplicate or reserved ids).
    ///
    /// # Panics
    /// Panics if `machines` is empty, a config bound is zero, or a range
    /// policy's boundary list does not match the machine count.
    pub fn start(
        machines: Vec<Machine>,
        capacity: usize,
        initial: &[Point<D>],
        sg: S,
        policy: PartitionPolicy,
        cfg: ShardedConfig,
    ) -> Result<Self, BuildError> {
        let sinks =
            (0..machines.len()).map(|_| Box::new(MemSink::new()) as Box<dyn LogSink>).collect();
        Self::start_with_sinks(machines, capacity, initial, sg, policy, cfg, sinks)
    }

    /// [`start`](ShardedService::start) with one caller-provided
    /// write-ahead-log sink per shard (e.g. `ddrs_wal::FileSink` for a
    /// log that survives the process). `start` itself uses in-memory
    /// sinks: the crash domain the service defends against is a
    /// processor panic inside one shard, and the log only has to
    /// outlive the quarantined *store*, not the process.
    ///
    /// # Panics
    /// As [`start`](ShardedService::start), plus if `sinks` does not
    /// match the machine count, or an initial-load record cannot be
    /// appended to its sink.
    pub fn start_with_sinks(
        machines: Vec<Machine>,
        capacity: usize,
        initial: &[Point<D>],
        sg: S,
        policy: PartitionPolicy,
        cfg: ShardedConfig,
        sinks: Vec<Box<dyn LogSink>>,
    ) -> Result<Self, BuildError> {
        assert!(!machines.is_empty(), "need at least one shard machine");
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        assert!(cfg.queue_capacity >= 1, "queue_capacity must be at least 1");
        assert_eq!(sinks.len(), machines.len(), "need exactly one WAL sink per shard");
        let shards = machines.len();
        let part = Partitioner::new(policy, shards);

        let mut owner: HashMap<u32, usize> = HashMap::with_capacity(initial.len());
        let mut parts: Vec<Vec<Point<D>>> = vec![Vec::new(); shards];
        for p in initial {
            if p.id == PAD_ID {
                return Err(BuildError::ReservedId);
            }
            let sh = part.place(p);
            if owner.insert(p.id, sh).is_some() {
                return Err(BuildError::DuplicateId(p.id));
            }
            parts[sh].push(*p);
        }
        let shard_len: Vec<usize> = parts.iter().map(Vec::len).collect();

        let workers: Vec<WorkerHandle<S, D>> = machines
            .into_iter()
            .enumerate()
            .map(|(i, m)| spawn_worker(i, m, DynamicDistRangeTree::<D>::new(capacity), sg))
            .collect();

        // One write-ahead log per shard. Non-empty shards log their
        // initial bulk load as the first record, so a recovery replay
        // starts from the same state the worker does.
        let wals: Vec<EpochWal<D>> = sinks.into_iter().map(EpochWal::with_sink).collect();

        // Parallel bulk load; construction statistics are not part of
        // the service telemetry, which covers exactly its own
        // dispatches.
        let (tx, rx) = mpsc::channel();
        let mut loading = 0usize;
        for (sh, pts) in parts.into_iter().enumerate() {
            if pts.is_empty() {
                continue;
            }
            loading += 1;
            wals[sh]
                .append_record(&EpochRecord::event(RecordKind::Load, 0, Vec::new(), pts.clone()))
                // ddrs-check: allow(unwrap) — construction-time append:
                // no clients exist yet, and a service whose log cannot
                // record its own initial state must not start.
                .expect("initial WAL append failed");
            workers[sh]
                .tx
                .send(ShardJob::Write {
                    deletes: Vec::new(),
                    inserts: pts,
                    inject_fault: false,
                    reply: tx.clone(),
                })
                // ddrs-check: allow(unwrap) — construction-time bulk
                // load: no clients exist yet, and a worker dying before
                // the service is even built is unrecoverable.
                .expect("shard worker died during bulk load");
        }
        drop(tx);
        for _ in 0..loading {
            // ddrs-check: allow(unwrap) — same construction-time path.
            let reply: WriteReply<D> = rx.recv().expect("shard worker died during bulk load");
            if let Err(e) = reply.result {
                panic!("initial bulk load failed on shard {}: {e}", reply.shard);
            }
        }

        let inner = Arc::new(Inner {
            cfg,
            sg,
            core: SchedCore::new(SchedConfig {
                max_batch: cfg.max_batch,
                max_delay: cfg.max_delay,
                queue_capacity: cfg.queue_capacity,
            }),
            stats: TrackedMutex::new(
                "shard.stats",
                ShardedStats {
                    per_shard: shard_len
                        .iter()
                        .map(|&n| ShardSnapshot { live_points: n, ..Default::default() })
                        .collect(),
                    range_bounds: part.bounds(),
                    ..Default::default()
                },
            ),
            faults: TrackedMutex::new("shard.faults", HashSet::new()),
        });
        let router_state = Router {
            workers,
            part,
            owner,
            shard_len,
            poisoned: vec![None; shards],
            next_seq: 0,
            wals,
            capacity,
        };
        let sched_inner = Arc::clone(&inner);
        let router = std::thread::Builder::new()
            .name("ddrs-shard-router".into())
            .spawn(move || router_loop(&sched_inner, router_state))
            // ddrs-check: allow(unwrap) — OS thread-spawn failure at
            // startup; there is no running service to keep alive.
            .expect("spawning the shard router");
        Ok(ShardedService { inner, router: Some(router), shards })
    }

    /// Number of shard groups.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Request a split of shard `donor`: half its points (split on the
    /// first axis) migrate to a lighter sibling between two dispatches,
    /// so no in-flight request observes a half-migrated store. Resolves
    /// with the migration report, or [`ServiceError::Machine`] if the
    /// split is impossible (single-point shard, all points sharing one
    /// coordinate, no healthy sibling). Under [`PartitionPolicy::Hash`]
    /// the migrated points no longer live where the placement mix says,
    /// so the first split permanently widens degenerate point reads from
    /// single-shard routing to full fan-out (answers stay exact; only
    /// the routing minimality is given up).
    pub fn split_shard(&self, donor: usize) -> Result<Ticket<SplitReport>, SubmitError> {
        assert!(donor < self.shards, "split_shard: no shard {donor}");
        let (t, r) = ticket();
        self.enqueue_ops(1, || (vec![Op::Split(donor, r)], None, None))?;
        Ok(t)
    }

    /// Request recovery of quarantined shard `shard`: between two
    /// dispatches, the router replays the shard's write-ahead log into
    /// a fresh store on the shard's own machine (stopping cleanly at
    /// any torn log tail), re-derives the id→shard ownership index from
    /// the rebuilt live ids, clears the quarantine, and the shard
    /// rejoins the service in place of its poisoned predecessor.
    ///
    /// Resolves with the [`RecoveryReport`], or
    /// [`ServiceError::Machine`] if the shard is not poisoned or the
    /// replay itself fails (the shard then stays quarantined and the
    /// call can be retried). Requests in flight against the dead shard
    /// are unaffected: recovery dispatches exclusively, so every
    /// earlier op has already resolved — committed, rejected, or failed
    /// with the quarantine error — by the time the rebuild runs.
    pub fn recover_shard(&self, shard: usize) -> Result<Ticket<RecoveryReport>, SubmitError> {
        assert!(shard < self.shards, "recover_shard: no shard {shard}");
        let (t, r) = ticket();
        self.enqueue_ops(1, || (vec![Op::Recover(shard, r)], None, None))?;
        Ok(t)
    }

    /// Admission shared by [`split_shard`](ShardedService::split_shard)
    /// and the [`RangeStore`] `submit` impl, delegated to the shared
    /// scheduler core: ops of one request are admitted all-or-nothing
    /// and enqueued contiguously under one fresh group id. `make` lowers
    /// the request only once admission is certain; it runs under the
    /// core's queue lock and must not take locks of its own.
    fn enqueue_ops(
        &self,
        n_ops: usize,
        make: impl FnOnce() -> (Vec<Op<S, D>>, Option<Duration>, Option<u64>),
    ) -> Result<(), SubmitError> {
        self.inner.core.submit_ops(
            n_ops,
            || {
                let (ops, deadline, min_seq) = make();
                // Lifecycle spans open here — admission is certain, so
                // every Queue begin is matched by an End on some
                // dispatch or failure path.
                for op in &ops {
                    ddrs_trace::begin(op.span(), Stage::Queue);
                }
                (ops, deadline, min_seq)
            },
            || self.inner.stats.lock().submitted += n_ops as u64,
            || self.inner.stats.lock().overloaded += 1,
        )
    }

    /// Deterministic fault injection for tests and harnesses: the next
    /// write sub-epoch dispatched to `shard` executes an SPMD program in
    /// which one simulated processor panics *between* the delete and
    /// insert cascades (via `Machine::try_run`), poisoning that shard
    /// while its siblings keep serving.
    pub fn fail_next_write_epoch(&self, shard: usize) {
        assert!(shard < self.shards, "fail_next_write_epoch: no shard {shard}");
        self.inner.faults.lock().insert(shard);
    }

    /// Snapshot the service telemetry.
    pub fn stats(&self) -> ShardedStats {
        let depth = self.inner.core.depth();
        let mut snap = self.inner.stats.lock().clone();
        snap.queue_depth = depth;
        snap
    }

    fn stop(&mut self, mode: StopMode) -> Vec<ShardParts<D>> {
        self.inner.core.begin_stop(mode);
        self.router
            .take()
            // ddrs-check: allow(unwrap) — invariant: every caller either
            // consumes `self` or checks `router.is_some()` first.
            .expect("sharded service already stopped")
            .join()
            // ddrs-check: allow(unwrap) — a panic escaping the router
            // loop is a router bug; fabricating parts would hide it.
            .expect("shard router panicked")
    }

    /// Begin a graceful shutdown without blocking: new submissions fail
    /// from this point on while already queued requests are served.
    pub fn begin_shutdown(&self) {
        self.inner.core.begin_stop(StopMode::Drain);
    }

    /// Stop accepting work, serve everything queued, then hand back each
    /// group's machine and store, in shard order.
    ///
    /// # Panics
    /// Panics if any shard was poisoned (a failed write sub-epoch left
    /// its store possibly inconsistent); use
    /// [`dismantle`](ShardedService::dismantle) to recover the healthy
    /// shards around a poisoned one.
    pub fn shutdown(mut self) -> Vec<(Machine, DynamicDistRangeTree<D>)> {
        let parts = self.stop(StopMode::Drain);
        parts
            .into_iter()
            .map(|p| {
                if let Some(reason) = p.poisoned {
                    panic!("shard store poisoned: {reason}");
                }
                (p.machine, p.tree)
            })
            .collect()
    }

    /// Stop accepting work and reject everything queued, then hand back
    /// each group's machine and store.
    ///
    /// # Panics
    /// Panics if any shard was poisoned, as with
    /// [`shutdown`](ShardedService::shutdown).
    pub fn abort(mut self) -> Vec<(Machine, DynamicDistRangeTree<D>)> {
        let parts = self.stop(StopMode::Reject);
        parts
            .into_iter()
            .map(|p| {
                if let Some(reason) = p.poisoned {
                    panic!("shard store poisoned: {reason}");
                }
                (p.machine, p.tree)
            })
            .collect()
    }

    /// Stop (rejecting queued work) and hand back *every* shard's parts,
    /// poisoned or not — the forensic exit the fault harness uses to
    /// inspect healthy siblings around a quarantined shard.
    pub fn dismantle(mut self) -> Vec<ShardParts<D>> {
        self.stop(StopMode::Reject)
    }
}

impl<S: Semigroup, const D: usize> RangeStore<S, D> for ShardedService<S, D> {
    /// Submit a composed multi-op request as one unit (the single-op
    /// `count`/`insert`/… conveniences are the trait's default methods
    /// over this).
    ///
    /// Admission is all-or-nothing: either every op of the request is
    /// enqueued contiguously (writes first, then reads — so the reads
    /// coalesce into one fused window per shard and observe the
    /// request's own writes), or the whole request is rejected. Each op
    /// counts toward the queue capacity and the submission telemetry
    /// individually.
    fn submit(&self, req: Request<S, D>) -> Result<Ticket<Response<S>>, SubmitError> {
        assert!(!req.is_empty(), "submitted an empty request");
        let n_ops = req.len();
        let mut ticket = None;
        self.enqueue_ops(n_ops, || {
            let planned = req.plan();
            let ops = planned.ops.into_iter().map(Op::Client).collect();
            ticket = Some(planned.ticket);
            (ops, planned.deadline, planned.min_seq)
        })?;
        // ddrs-check: allow(unwrap) — on the Ok path `submit_ops` always
        // ran `make`, which fills the slot.
        Ok(ticket.expect("admission ran the lowering closure"))
    }
}

impl<S: Semigroup, const D: usize> Drop for ShardedService<S, D> {
    fn drop(&mut self) {
        if self.router.is_some() {
            let _ = self.stop(StopMode::Drain);
        }
    }
}

impl<S: Semigroup, const D: usize> std::fmt::Debug for ShardedService<S, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedService")
            .field("shards", &self.shards)
            .field("d", &D)
            .field("queue_depth", &self.inner.core.depth())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------

struct Router<S: Semigroup, const D: usize> {
    workers: Vec<WorkerHandle<S, D>>,
    part: Partitioner,
    /// Authoritative id → owning shard index for every live point.
    owner: HashMap<u32, usize>,
    shard_len: Vec<usize>,
    poisoned: Vec<Option<String>>,
    next_seq: u64,
    /// One write-ahead log per shard (lock class `wal.append`): every
    /// committed epoch, bulk load and migration is appended before any
    /// of its tickets resolve, so a quarantined shard can always be
    /// rebuilt to its last committed state by `recover_shard`.
    wals: Vec<EpochWal<D>>,
    /// The rebuild-unit capacity every shard store was built with —
    /// recovery rebuilds with the same value.
    capacity: usize,
}

impl<S: Semigroup, const D: usize> Router<S, D> {
    fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Publish per-shard health, sizes and WAL counters into the shared
    /// stats.
    fn publish(&self, inner: &Inner<S, D>) {
        let mut st = inner.stats.lock();
        for (i, snap) in st.per_shard.iter_mut().enumerate() {
            snap.live_points = self.shard_len[i];
            snap.poisoned = self.poisoned[i].clone();
            // `stats` precedes `wal.append` in the canonical order, so
            // reading the log counters under the stats guard is legal.
            let ws = self.wals[i].stats();
            snap.wal_records = ws.records;
            snap.wal_bytes = ws.bytes;
        }
        st.range_bounds = self.part.bounds();
    }
}

fn router_loop<S: Semigroup, const D: usize>(
    inner: &Arc<Inner<S, D>>,
    mut router: Router<S, D>,
) -> Vec<ShardParts<D>> {
    loop {
        // The shared scheduler core decides when and what to dispatch;
        // splits and recoveries are the exclusive kinds (they dispatch
        // alone, between windows, so no in-flight request observes a
        // half-migrated or half-rebuilt store).
        let window = inner.core.next_window(Op::kind, |k| matches!(k, Kind::Split | Kind::Recover));
        let (batch, expired) = match window {
            Window::Shutdown { rejected } => {
                inner.stats.lock().completed += rejected.len() as u64;
                for p in rejected {
                    ddrs_trace::end_err(p.op.span(), Stage::Queue);
                    p.op.fail(ServiceError::ShuttingDown);
                }
                // stop_workers joins every worker thread, so all
                // in-flight read callbacks finish before we return the
                // shard parts.
                return stop_workers(router);
            }
            Window::Dispatch { batch, expired } => (batch, expired),
        };

        if !expired.is_empty() {
            {
                let mut st = inner.stats.lock();
                st.expired += expired.len() as u64;
                st.completed += expired.len() as u64;
            }
            for p in expired {
                ddrs_trace::end_err(p.op.span(), Stage::Queue);
                p.op.fail(ServiceError::DeadlineExpired);
            }
        }
        // Consistency bounds gate reads only (a write observes
        // nothing), judged at dispatch time against the global commit
        // counter.
        let (batch, unmet) = gate_reads(batch, router.next_seq, |op| op.kind() == Kind::Read);
        if !unmet.is_empty() {
            inner.stats.lock().completed += unmet.len() as u64;
            for p in unmet {
                // ddrs-check: allow(unwrap) — `gate_reads` puts an op in
                // `unmet` only when it carries a `min_seq` bound.
                let required = p.min_seq.expect("partitioned on min_seq");
                ddrs_trace::end_err(p.op.span(), Stage::Queue);
                p.op.fail(ServiceError::Consistency { required, committed: router.next_seq });
            }
        }
        let Some(first) = batch.first() else { continue };
        match first.op.kind() {
            Kind::Read => dispatch_reads(inner, &mut router, batch),
            Kind::Write => dispatch_write_epoch(inner, &mut router, batch),
            Kind::Split => {
                debug_assert_eq!(batch.len(), 1);
                let Some(Pending { op: Op::Split(donor, resolver), submitted, .. }) =
                    batch.into_iter().next()
                else {
                    unreachable!("split batch without a split op")
                };
                ddrs_trace::transition(resolver.span(), Stage::Queue, Stage::Window);
                let outcome = do_split(inner, &mut router, donor);
                {
                    let mut st = inner.stats.lock();
                    st.completed += 1;
                    st.latency_us.record(submitted.elapsed().as_micros() as u64);
                }
                // Publish before resolution: the split's effects must be
                // visible in the telemetry by the time its ticket resolves.
                router.publish(inner);
                match outcome {
                    Ok(report) => {
                        let seq = router.next_seq;
                        router.next_seq += 1;
                        ddrs_trace::end(resolver.span(), Stage::Window);
                        resolver.resolve(Ok(Commit { value: report, seq }));
                    }
                    Err(e) => {
                        ddrs_trace::end_err(resolver.span(), Stage::Window);
                        resolver.resolve(Err(ServiceError::Machine(e)));
                    }
                }
            }
            Kind::Recover => {
                debug_assert_eq!(batch.len(), 1);
                let Some(Pending { op: Op::Recover(shard, resolver), submitted, .. }) =
                    batch.into_iter().next()
                else {
                    unreachable!("recover batch without a recover op")
                };
                ddrs_trace::transition(resolver.span(), Stage::Queue, Stage::Window);
                let outcome = do_recover(inner, &mut router, shard);
                {
                    let mut st = inner.stats.lock();
                    st.completed += 1;
                    st.latency_us.record(submitted.elapsed().as_micros() as u64);
                    if let Ok(report) = &outcome {
                        // The rebuild is the recovery's window work —
                        // surfaced through the always-on breakdown so
                        // BENCH_recovery.json and the metrics registry
                        // see the duration without span recording.
                        st.stages.window.record(report.duration.as_micros() as u64);
                    }
                }
                // Publish before resolution: the recovery's effects
                // (health, sizes, counters) must be visible in the
                // telemetry by the time its ticket resolves.
                router.publish(inner);
                match outcome {
                    Ok(report) => {
                        let seq = router.next_seq;
                        router.next_seq += 1;
                        ddrs_trace::end(resolver.span(), Stage::Window);
                        resolver.resolve(Ok(Commit { value: report, seq }));
                    }
                    Err(e) => {
                        ddrs_trace::end_err(resolver.span(), Stage::Window);
                        resolver.resolve(Err(ServiceError::Machine(e)));
                    }
                }
            }
        }
    }
}

fn stop_workers<S: Semigroup, const D: usize>(router: Router<S, D>) -> Vec<ShardParts<D>> {
    let Router { workers, poisoned, .. } = router;
    let mut parts = Vec::with_capacity(workers.len());
    for (handle, poison) in workers.into_iter().zip(poisoned) {
        let (tx, rx) = mpsc::channel();
        // ddrs-check: allow(unwrap) — shutdown: workers only exit via
        // this very Stop job, so a dead channel means a worker panicked
        // outside the poisoning protocol; we must not fabricate the
        // `ShardParts` handed back to the caller.
        handle.tx.send(ShardJob::Stop { reply: tx }).expect("shard worker died before stop");
        // ddrs-check: allow(unwrap) — same shutdown invariant.
        let (machine, tree) = rx.recv().expect("shard worker dropped its stop reply");
        // ddrs-check: allow(unwrap) — a worker panic is a worker bug;
        // surfacing it beats returning an inconsistent store silently.
        handle.join.join().expect("shard worker panicked");
        parts.push(ShardParts { machine, tree, poisoned: poison });
    }
    parts
}

/// A cross-shard read in flight: partials accumulate under `state` as
/// each touched shard's worker completes its sub-batch; the last arrival
/// takes the resolver and commits (or fails) the op with its
/// pre-assigned global sequence number.
struct CrossOp<V> {
    seq: u64,
    submitted: Instant,
    /// The request's trace span (the resolver's, cached outside the
    /// state lock so non-final arrivals never need the mutex for it).
    span: SpanId,
    /// Lock class `shard.cross` — the innermost shard lock: workers take
    /// it while folding partials, sometimes with `stats` already held.
    state: TrackedMutex<CrossState<V>>,
}

struct CrossState<V> {
    remaining: usize,
    acc: V,
    error: Option<String>,
    resolver: Option<Resolver<V>>,
}

impl<V: Default> CrossOp<V> {
    fn new(
        fanout: usize,
        acc: V,
        resolver: Resolver<V>,
        submitted: Instant,
        seq: u64,
    ) -> Arc<Self> {
        Arc::new(CrossOp {
            seq,
            submitted,
            span: resolver.span(),
            state: TrackedMutex::new(
                "shard.cross",
                CrossState { remaining: fanout, acc, error: None, resolver: Some(resolver) },
            ),
        })
    }

    fn settle(mut st: TrackedGuard<'_, CrossState<V>>) -> Option<(Resolver<V>, V, Option<String>)> {
        st.remaining -= 1;
        if st.remaining == 0 {
            // ddrs-check: allow(unwrap) — `remaining` hits zero exactly
            // once, so the resolver is still present on the last arrival.
            let r = st.resolver.take().expect("cross-shard op resolved twice");
            Some((r, std::mem::take(&mut st.acc), st.error.take()))
        } else {
            None
        }
    }

    /// Fold one shard's partial into the accumulator. Returns the
    /// resolution duty iff this arrival was the last one.
    fn fold(&self, fold: impl FnOnce(&mut V)) -> Option<(Resolver<V>, V, Option<String>)> {
        let mut st = self.state.lock();
        if st.error.is_none() {
            fold(&mut st.acc);
        }
        Self::settle(st)
    }

    /// Record one shard's failure (the first error wins). Returns the
    /// resolution duty iff this arrival was the last one.
    fn fail(&self, e: String) -> Option<(Resolver<V>, V, Option<String>)> {
        let mut st = self.state.lock();
        if st.error.is_none() {
            st.error = Some(e);
        }
        Self::settle(st)
    }
}

/// Where one query of a shard's fused sub-batch delivers its result: a
/// single-shard op resolves its ticket directly on the worker thread; a
/// cross-shard op folds into its shared countdown.
enum Slot<V> {
    Solo(Resolver<V>, u64, Instant),
    Cross(Arc<CrossOp<V>>),
}

/// One shard's share of a read window: clipped rects per query mode,
/// with a result slot aligned to each rect.
struct ShardPlan<S: Semigroup, const D: usize> {
    counts: Vec<Rect<D>>,
    count_slots: Vec<Slot<u64>>,
    aggs: Vec<Rect<D>>,
    agg_slots: Vec<Slot<Option<S::Val>>>,
    reports: Vec<Rect<D>>,
    report_slots: Vec<Slot<Vec<u32>>>,
}

impl<S: Semigroup, const D: usize> ShardPlan<S, D> {
    fn empty() -> Self {
        ShardPlan {
            counts: Vec::new(),
            count_slots: Vec::new(),
            aggs: Vec::new(),
            agg_slots: Vec::new(),
            reports: Vec::new(),
            report_slots: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.counts.len() + self.aggs.len() + self.reports.len()
    }
}

/// Window-level read telemetry, shared by every shard callback of one
/// scattered window: `dispatches` counts *windows* that reached at least
/// one machine (not sub-batches), and the batch-size histogram records
/// client queries per window, so coalescing numbers stay comparable
/// across shard counts. The first shard to finish with a real run
/// claims the count.
struct WindowTally {
    routed: u64,
    counted: AtomicBool,
    /// When the router carved this window (Queue → Window boundary of
    /// every op it routed) — the always-on stage-breakdown clock shared
    /// by all shard callbacks.
    carve: Instant,
    /// When the router finished planning and began the scatter
    /// (Window → MachineRun boundary).
    scatter: Instant,
}

/// Plan a coalesced read window into at most one fused sub-batch per
/// *touched* shard and scatter the sub-batches to the shard workers —
/// without waiting for any of them. Sequence numbers are pre-assigned
/// here on the router thread (planning order is the global order);
/// ticket resolution happens on the worker threads as each shard
/// finishes, so the router is immediately free to carve the next window.
fn dispatch_reads<S: Semigroup, const D: usize>(
    inner: &Arc<Inner<S, D>>,
    router: &mut Router<S, D>,
    batch: Vec<Pending<Op<S, D>>>,
) {
    let t_carve = Instant::now();
    let shards = router.shards();
    let mut plans: Vec<ShardPlan<S, D>> = (0..shards).map(|_| ShardPlan::empty()).collect();
    // Ops settled at planning time (degenerate rects answered locally,
    // poisoned fan-outs failed) and routing telemetry, accounted in one
    // stats acquisition below.
    let mut settled: Vec<Instant> = Vec::new();
    let mut routed_spans: Vec<SpanId> = Vec::new();
    let mut routed_ops = 0u64;
    let mut shards_touched = 0u64;

    for p in batch {
        ddrs_trace::transition(p.op.span(), Stage::Queue, Stage::Window);
        let Op::Client(op) = p.op else { unreachable!("carve() mixed non-reads into a read run") };
        // ddrs-check: allow(unwrap) — carve() emits kind-homogeneous
        // runs, and every read op carries an interval.
        let rect = *op.interval().expect("read run contains a non-read op");
        let fan = router.part.read_fanout(&rect);
        let n = fan.clone().count();
        if n == 0 {
            // Empty rect: answer locally, holding its place in the
            // global commit order without touching any shard.
            let seq = router.next_seq;
            router.next_seq += 1;
            ddrs_trace::end(op.span(), Stage::Window);
            match op {
                PlannedOp::Count(_, r) => r.resolve(Ok(Commit { value: 0, seq })),
                PlannedOp::Aggregate(_, r) => r.resolve(Ok(Commit { value: None, seq })),
                PlannedOp::Report(_, r) => r.resolve(Ok(Commit { value: Vec::new(), seq })),
                _ => unreachable!("read run contains a non-read op"),
            }
            settled.push(p.submitted);
            continue;
        }
        if let Some(bad) = fan.clone().find(|&s| router.poisoned[s].is_some()) {
            let reason = router.poisoned[bad].clone().unwrap_or_default();
            ddrs_trace::end_err(op.span(), Stage::Window);
            op.fail(ServiceError::Machine(format!("shard {bad} is poisoned: {reason}")));
            settled.push(p.submitted);
            continue;
        }
        let seq = router.next_seq;
        router.next_seq += 1;
        routed_spans.push(op.span());
        routed_ops += 1;
        shards_touched += n as u64;
        match op {
            PlannedOp::Count(_, r) => {
                if n == 1 {
                    let s = *fan.start();
                    plans[s].counts.push(router.part.clip(s, &rect));
                    plans[s].count_slots.push(Slot::Solo(r, seq, p.submitted));
                } else {
                    let cross = CrossOp::new(n, 0u64, r, p.submitted, seq);
                    for s in fan {
                        plans[s].counts.push(router.part.clip(s, &rect));
                        plans[s].count_slots.push(Slot::Cross(Arc::clone(&cross)));
                    }
                }
            }
            PlannedOp::Aggregate(_, r) => {
                if n == 1 {
                    let s = *fan.start();
                    plans[s].aggs.push(router.part.clip(s, &rect));
                    plans[s].agg_slots.push(Slot::Solo(r, seq, p.submitted));
                } else {
                    let cross = CrossOp::new(n, None, r, p.submitted, seq);
                    for s in fan {
                        plans[s].aggs.push(router.part.clip(s, &rect));
                        plans[s].agg_slots.push(Slot::Cross(Arc::clone(&cross)));
                    }
                }
            }
            PlannedOp::Report(_, r) => {
                if n == 1 {
                    let s = *fan.start();
                    plans[s].reports.push(router.part.clip(s, &rect));
                    plans[s].report_slots.push(Slot::Solo(r, seq, p.submitted));
                } else {
                    let cross = CrossOp::new(n, Vec::new(), r, p.submitted, seq);
                    for s in fan {
                        plans[s].reports.push(router.part.clip(s, &rect));
                        plans[s].report_slots.push(Slot::Cross(Arc::clone(&cross)));
                    }
                }
            }
            _ => unreachable!("read run contains a non-read op"),
        }
    }

    {
        let mut st = inner.stats.lock();
        st.read_ops_routed += routed_ops;
        st.read_shards_touched += shards_touched;
        st.completed += settled.len() as u64;
        for t0 in settled {
            st.latency_us.record(t0.elapsed().as_micros() as u64);
            st.stages.queue.record(us_between(t0, t_carve));
        }
    }

    // Scatter every touched shard's sub-batch; the workers run them
    // concurrently and resolve the tickets themselves.
    for sp in &routed_spans {
        ddrs_trace::transition(*sp, Stage::Window, Stage::MachineRun);
    }
    let tally = Arc::new(WindowTally {
        routed: routed_ops,
        counted: AtomicBool::new(false),
        carve: t_carve,
        scatter: Instant::now(),
    });
    for (s, plan) in plans.into_iter().enumerate() {
        if plan.len() == 0 {
            continue;
        }
        let ShardPlan { counts, count_slots, aggs, agg_slots, reports, report_slots } = plan;
        let qb = QueryBatch::from_parts(inner.sg, counts, aggs, reports);
        let cb_inner = Arc::clone(inner);
        let cb_tally = Arc::clone(&tally);
        let complete: ReadComplete<S> = Box::new(move |result, run_stats, ran| {
            finish_shard_reads(
                &cb_inner,
                s,
                result,
                run_stats,
                ran,
                count_slots,
                agg_slots,
                report_slots,
                &cb_tally,
            );
        });
        router.workers[s]
            .tx
            .send(ShardJob::Reads { batch: qb, complete })
            // ddrs-check: allow(unwrap) — workers only exit via the Stop
            // job the router itself sends at shutdown; a dead channel
            // here means a worker panicked outside the poisoning
            // protocol, which must stay loud.
            .expect("shard worker died");
    }
}

/// Worker-thread completion of one shard's fused read sub-batch: absorb
/// the run's stats (`ran` says whether the run it rode reached the
/// machine; sub-batches that shared a run carry its stats only once),
/// resolve single-shard tickets directly, and fold
/// cross-shard partials into their shared countdowns (the last shard to
/// arrive resolves). Stats mutation and partial-folding happen in one
/// critical section — so a final cross arrival always observes every
/// earlier shard's run already absorbed, and counters are bumped
/// *before* each resolution (a client that has observed its response
/// also observes it as completed in any telemetry snapshot) — but the
/// resolutions themselves are deferred until the guard is dropped:
/// client wakeups must not serialize other shards' read completions on
/// the global stats mutex under high fan-in.
#[allow(clippy::too_many_arguments)]
fn finish_shard_reads<S: Semigroup, const D: usize>(
    inner: &Inner<S, D>,
    shard: usize,
    result: Result<BatchResults<S>, String>,
    run_stats: RunStats,
    ran: bool,
    count_slots: Vec<Slot<u64>>,
    agg_slots: Vec<Slot<Option<S::Val>>>,
    report_slots: Vec<Slot<Vec<u32>>>,
    tally: &WindowTally,
) {
    let sg = inner.sg;
    let settle_now = Instant::now();
    // Ticket resolutions decided in the critical section below, run
    // after it ends.
    let mut resolutions: Vec<Box<dyn FnOnce()>> = Vec::new();
    let mut st = inner.stats.lock();
    st.machine.absorb(&run_stats);
    st.per_shard[shard].machine.absorb(&run_stats);
    // ddrs-check: allow(relaxed) — telemetry-only once-flag: it orders
    // no data (all stats mutate under the `stats` lock held here).
    if ran && !tally.counted.swap(true, Ordering::Relaxed) {
        st.dispatches += 1;
        st.queries_coalesced += tally.routed;
        st.batch_sizes.record(tally.routed);
    }
    // Account one op as completed (and record its latency) exactly when
    // its ticket's resolution is decided here — i.e. for every solo
    // slot, and for a cross slot only on its final arrival.
    macro_rules! done {
        ($submitted:expr) => {
            st.completed += 1;
            st.latency_us.record($submitted.elapsed().as_micros() as u64);
            st.stages.queue.record(us_between($submitted, tally.carve));
            st.stages.window.record(us_between(tally.carve, tally.scatter));
            st.stages.machine_run.record(us_between(tally.scatter, settle_now));
        };
    }
    match result {
        Ok(out) => {
            let BatchResults { counts, aggregates, reports } = out;
            for (part, slot) in counts.into_iter().zip(count_slots) {
                match slot {
                    Slot::Solo(r, seq, t0) => {
                        done!(t0);
                        ddrs_trace::transition(r.span(), Stage::MachineRun, Stage::Merge);
                        resolutions.push(Box::new(move || {
                            ddrs_trace::end(r.span(), Stage::Merge);
                            r.resolve(Ok(Commit { value: part, seq }));
                        }));
                    }
                    Slot::Cross(cross) => {
                        if let Some((r, acc, err)) = cross.fold(|acc| *acc += part) {
                            done!(cross.submitted);
                            ddrs_trace::transition(cross.span, Stage::MachineRun, Stage::Merge);
                            let seq = cross.seq;
                            resolutions.push(Box::new(move || match err {
                                None => {
                                    ddrs_trace::end(r.span(), Stage::Merge);
                                    r.resolve(Ok(Commit { value: acc, seq }));
                                }
                                Some(e) => {
                                    ddrs_trace::end_err(r.span(), Stage::Merge);
                                    r.resolve(Err(ServiceError::Machine(e)));
                                }
                            }));
                        }
                    }
                }
            }
            for (part, slot) in aggregates.into_iter().zip(agg_slots) {
                match slot {
                    Slot::Solo(r, seq, t0) => {
                        done!(t0);
                        ddrs_trace::transition(r.span(), Stage::MachineRun, Stage::Merge);
                        resolutions.push(Box::new(move || {
                            ddrs_trace::end(r.span(), Stage::Merge);
                            r.resolve(Ok(Commit { value: part, seq }));
                        }));
                    }
                    Slot::Cross(cross) => {
                        let fold =
                            |acc: &mut Option<S::Val>| *acc = comb_opt(&sg, acc.take(), part);
                        if let Some((r, acc, err)) = cross.fold(fold) {
                            done!(cross.submitted);
                            ddrs_trace::transition(cross.span, Stage::MachineRun, Stage::Merge);
                            let seq = cross.seq;
                            resolutions.push(Box::new(move || match err {
                                None => {
                                    ddrs_trace::end(r.span(), Stage::Merge);
                                    r.resolve(Ok(Commit { value: acc, seq }));
                                }
                                Some(e) => {
                                    ddrs_trace::end_err(r.span(), Stage::Merge);
                                    r.resolve(Err(ServiceError::Machine(e)));
                                }
                            }));
                        }
                    }
                }
            }
            for (part, slot) in reports.into_iter().zip(report_slots) {
                match slot {
                    Slot::Solo(r, seq, t0) => {
                        done!(t0);
                        ddrs_trace::transition(r.span(), Stage::MachineRun, Stage::Merge);
                        resolutions.push(Box::new(move || {
                            ddrs_trace::end(r.span(), Stage::Merge);
                            r.resolve(Ok(Commit { value: part, seq }));
                        }));
                    }
                    Slot::Cross(cross) => {
                        if let Some((r, mut acc, err)) = cross.fold(|acc| acc.extend(part)) {
                            done!(cross.submitted);
                            ddrs_trace::transition(cross.span, Stage::MachineRun, Stage::Merge);
                            let seq = cross.seq;
                            resolutions.push(Box::new(move || match err {
                                None => {
                                    // Shards are disjoint, so a sort
                                    // restores exactly the unsharded
                                    // ascending order.
                                    acc.sort_unstable();
                                    ddrs_trace::end(r.span(), Stage::Merge);
                                    r.resolve(Ok(Commit { value: acc, seq }));
                                }
                                Some(e) => {
                                    ddrs_trace::end_err(r.span(), Stage::Merge);
                                    r.resolve(Err(ServiceError::Machine(e)));
                                }
                            }));
                        }
                    }
                }
            }
        }
        Err(e) => {
            let msg = format!("shard {shard}: {e}");
            macro_rules! fail_slots {
                ($slots:expr) => {
                    for slot in $slots {
                        match slot {
                            Slot::Solo(r, _, t0) => {
                                done!(t0);
                                ddrs_trace::transition(r.span(), Stage::MachineRun, Stage::Merge);
                                let m = msg.clone();
                                resolutions.push(Box::new(move || {
                                    ddrs_trace::end_err(r.span(), Stage::Merge);
                                    r.resolve(Err(ServiceError::Machine(m)));
                                }));
                            }
                            Slot::Cross(cross) => {
                                if let Some((r, _, err)) = cross.fail(msg.clone()) {
                                    done!(cross.submitted);
                                    ddrs_trace::transition(
                                        cross.span,
                                        Stage::MachineRun,
                                        Stage::Merge,
                                    );
                                    resolutions.push(Box::new(move || {
                                        ddrs_trace::end_err(r.span(), Stage::Merge);
                                        r.resolve(Err(ServiceError::Machine(
                                            // ddrs-check: allow(unwrap) —
                                            // `cross.fail` just recorded
                                            // an error, so the final
                                            // arrival always sees Some.
                                            err.expect("failed cross op without an error"),
                                        )));
                                    }));
                                }
                            }
                        }
                    }
                };
            }
            fail_slots!(count_slots);
            fail_slots!(agg_slots);
            fail_slots!(report_slots);
        }
    }
    drop(st);
    let t_merge1 = Instant::now();
    let n_res = resolutions.len() as u64;
    for resolve in resolutions {
        resolve();
    }
    if n_res > 0 {
        let t_resolve1 = Instant::now();
        // Merge/resolve durations are only knowable after the resolutions
        // ran, so they land in a second stats acquisition — a deliberate
        // relaxation of the stats-before-resolve rule: their duration IS
        // the resolution work itself.
        let mut st = inner.stats.lock();
        for _ in 0..n_res {
            st.stages.merge.record(us_between(settle_now, t_merge1));
            st.stages.resolve.record(us_between(t_merge1, t_resolve1));
        }
    }
}

/// Per-request validation verdict inside a write epoch.
enum Verdict {
    Commit,
    Rejected(BuildError),
    /// The request needed a poisoned shard; it fails before any routing
    /// and mutates nothing.
    Unavailable(String),
}

/// Validate a run of writes sequentially, scatter them as one sub-epoch
/// per touched shard, and either commit all of them under the global
/// sequence or abort the whole epoch (rolling back healthy shards,
/// poisoning failed ones).
fn dispatch_write_epoch<S: Semigroup, const D: usize>(
    inner: &Inner<S, D>,
    router: &mut Router<S, D>,
    batch: Vec<Pending<Op<S, D>>>,
) {
    let t_carve = Instant::now();
    // Epoch delta: Some((pt, shard)) = live, inserted this epoch at
    // `shard`; None = dead. Ids absent defer to the ownership index.
    let mut delta: BTreeMap<u32, Option<(Point<D>, usize)>> = BTreeMap::new();
    let mut tree_deleted: Vec<Vec<u32>> = vec![Vec::new(); router.shards()];
    let mut outcomes: Vec<(Resolver<()>, Verdict, Instant)> = Vec::with_capacity(batch.len());

    for p in batch {
        ddrs_trace::transition(p.op.span(), Stage::Queue, Stage::Window);
        match p.op {
            Op::Client(PlannedOp::Insert(pts, r)) => {
                let mut verdict = Verdict::Commit;
                let mut seen: HashSet<u32> = HashSet::with_capacity(pts.len());
                let mut placements: Vec<usize> = Vec::with_capacity(pts.len());
                for pt in &pts {
                    if pt.id == PAD_ID {
                        verdict = Verdict::Rejected(BuildError::ReservedId);
                        break;
                    }
                    let live = match delta.get(&pt.id) {
                        Some(Some(_)) => true,
                        Some(None) => false,
                        None => router.owner.contains_key(&pt.id),
                    };
                    if live || !seen.insert(pt.id) {
                        verdict = Verdict::Rejected(BuildError::DuplicateId(pt.id));
                        break;
                    }
                    let sh = router.part.place(pt);
                    if let Some(reason) = &router.poisoned[sh] {
                        verdict = Verdict::Unavailable(format!("shard {sh} is poisoned: {reason}"));
                        break;
                    }
                    placements.push(sh);
                }
                if matches!(verdict, Verdict::Commit) {
                    for (pt, sh) in pts.into_iter().zip(placements) {
                        delta.insert(pt.id, Some((pt, sh)));
                    }
                }
                outcomes.push((r, verdict, p.submitted));
            }
            Op::Client(PlannedOp::Delete(ids, r)) => {
                // First pass: the delete must not touch a poisoned
                // shard; if it would, it fails atomically (no partial
                // application anywhere).
                let bad = ids.iter().find_map(|id| match delta.get(id) {
                    Some(_) => None,
                    None => {
                        router.owner.get(id).filter(|&&sh| router.poisoned[sh].is_some()).copied()
                    }
                });
                if let Some(sh) = bad {
                    let reason = router.poisoned[sh].clone().unwrap_or_default();
                    outcomes.push((
                        r,
                        Verdict::Unavailable(format!("shard {sh} is poisoned: {reason}")),
                        p.submitted,
                    ));
                    continue;
                }
                for id in ids {
                    match delta.get(&id) {
                        Some(Some(_)) => {
                            delta.insert(id, None);
                        }
                        Some(None) => {}
                        None => {
                            if let Some(&sh) = router.owner.get(&id) {
                                tree_deleted[sh].push(id);
                                delta.insert(id, None);
                            }
                        }
                    }
                }
                outcomes.push((r, Verdict::Commit, p.submitted));
            }
            _ => unreachable!("carve() mixed non-writes into a write run"),
        }
    }

    // Route the net effect: one sub-epoch per touched shard.
    let mut inserts: Vec<Vec<Point<D>>> = vec![Vec::new(); router.shards()];
    for (pt, sh) in delta.values().flatten() {
        inserts[*sh].push(*pt);
    }
    let involved: Vec<usize> = (0..router.shards())
        .filter(|&s| !tree_deleted[s].is_empty() || !inserts[s].is_empty())
        .collect();

    // `end_stage` is the lifecycle stage the ops' spans are in when the
    // epoch's fate is decided: Window on the validation-only path (no
    // machine ever ran), Merge once a machine run happened.
    let resolve_all = |outcomes: Vec<(Resolver<()>, Verdict, Instant)>,
                       router: &mut Router<S, D>,
                       epoch_error: Option<&String>,
                       end_stage: Stage| {
        for (r, verdict, _) in outcomes {
            match (epoch_error, verdict) {
                (Some(e), Verdict::Commit | Verdict::Rejected(_)) => {
                    // The epoch aborted: nothing in it committed, and a
                    // sequential rejection computed against the aborted
                    // prefix is void too.
                    ddrs_trace::end_err(r.span(), end_stage);
                    r.resolve(Err(ServiceError::Machine(format!("write epoch aborted: {e}"))));
                }
                (None, Verdict::Commit) => {
                    let seq = router.next_seq;
                    router.next_seq += 1;
                    ddrs_trace::end(r.span(), end_stage);
                    r.resolve(Ok(Commit { value: (), seq }));
                }
                (None, Verdict::Rejected(e)) => {
                    ddrs_trace::end_err(r.span(), end_stage);
                    r.resolve(Err(ServiceError::Rejected(e)));
                }
                (_, Verdict::Unavailable(msg)) => {
                    ddrs_trace::end_err(r.span(), end_stage);
                    r.resolve(Err(ServiceError::Machine(msg)));
                }
            }
        }
    };

    let record_latency = |inner: &Inner<S, D>, outcomes: &[(Resolver<()>, Verdict, Instant)]| {
        let mut st = inner.stats.lock();
        st.completed += outcomes.len() as u64;
        for (_, _, submitted) in outcomes {
            st.latency_us.record(submitted.elapsed().as_micros() as u64);
            st.stages.queue.record(us_between(*submitted, t_carve));
        }
    };

    if involved.is_empty() {
        // Nothing reaches any machine: validation-only outcomes (empty
        // batches, rejections, no-op deletes) still commit/fail in order.
        record_latency(inner, &outcomes);
        {
            let t_window1 = Instant::now();
            let mut st = inner.stats.lock();
            for _ in 0..outcomes.len() {
                st.stages.window.record(us_between(t_carve, t_window1));
            }
        }
        resolve_all(outcomes, router, None, Stage::Window);
        router.publish(inner);
        return;
    }

    // Scatter the sub-epochs (consuming any injected faults), then
    // gather.
    // The rollback path only needs the *ids* of what each shard was
    // asked to insert; collect them up front so the scatter can move
    // the point payloads instead of cloning them.
    let insert_ids: Vec<Vec<u32>> =
        inserts.iter().map(|pts| pts.iter().map(|p| p.id).collect()).collect();
    // WAL capital: the scatter below moves the batches into the jobs,
    // so the per-shard log copies (and the epoch's verdict list) are
    // taken before it. Every involved shard's record carries the full
    // verdict list — the epoch is global — plus its own sub-batches.
    let mut wal_deletes: Vec<Vec<u32>> = tree_deleted.clone();
    let mut wal_inserts: Vec<Vec<Point<D>>> = inserts.clone();
    let wal_verdicts: Vec<ddrs_wal::Verdict> = outcomes
        .iter()
        .map(|(_, v, _)| match v {
            Verdict::Commit => ddrs_wal::Verdict::Commit,
            Verdict::Rejected(_) => ddrs_wal::Verdict::Rejected,
            Verdict::Unavailable(_) => ddrs_wal::Verdict::Unavailable,
        })
        .collect();
    // The whole run shares the epoch's fate — even a sequentially
    // rejected op's resolution waits on the machine run — so every span
    // advances through MachineRun together.
    let t_scatter = Instant::now();
    for (r, _, _) in &outcomes {
        ddrs_trace::transition(r.span(), Stage::Window, Stage::MachineRun);
    }
    let (tx, rx) = mpsc::channel::<WriteReply<D>>();
    for &s in &involved {
        let inject_fault = inner.faults.lock().remove(&s);
        router.workers[s]
            .tx
            .send(ShardJob::Write {
                deletes: std::mem::take(&mut tree_deleted[s]),
                inserts: std::mem::take(&mut inserts[s]),
                inject_fault,
                reply: tx.clone(),
            })
            // ddrs-check: allow(unwrap) — workers only exit via the Stop
            // protocol; a dead channel means a worker panicked.
            .expect("shard worker died");
    }
    drop(tx);
    let mut replies: Vec<Option<Result<Vec<Point<D>>, String>>> =
        (0..router.shards()).map(|_| None).collect();
    let mut runs_total = 0u64;
    for _ in 0..involved.len() {
        // ddrs-check: allow(unwrap) — every involved worker replies
        // exactly once per sub-epoch (failures travel as Err *data*);
        // a dropped channel means a worker panicked.
        let reply = rx.recv().expect("shard worker dropped a write reply");
        runs_total += reply.stats.runs as u64;
        {
            let mut st = inner.stats.lock();
            st.machine.absorb(&reply.stats);
            st.per_shard[reply.shard].machine.absorb(&reply.stats);
        }
        replies[reply.shard] = Some(reply.result);
    }
    let t_gather = Instant::now();
    for (r, _, _) in &outcomes {
        ddrs_trace::transition(r.span(), Stage::MachineRun, Stage::Merge);
    }
    {
        let mut st = inner.stats.lock();
        if runs_total > 0 {
            st.write_epochs += 1;
            st.write_shards_touched += involved.len() as u64;
        }
        for _ in 0..outcomes.len() {
            st.stages.window.record(us_between(t_carve, t_scatter));
            st.stages.machine_run.record(us_between(t_scatter, t_gather));
        }
    }
    record_latency(inner, &outcomes);
    let n_ops = outcomes.len() as u64;
    // Merge/resolve durations are only knowable after the resolutions
    // ran, so they land in a second stats acquisition — a deliberate
    // relaxation of the stats-before-resolve rule: their duration IS the
    // resolution work itself.
    let record_tail = |inner: &Inner<S, D>, t_merge1: Instant, t_resolve1: Instant| {
        let mut st = inner.stats.lock();
        for _ in 0..n_ops {
            st.stages.merge.record(us_between(t_gather, t_merge1));
            st.stages.resolve.record(us_between(t_merge1, t_resolve1));
        }
    };

    let mut epoch_error: Option<String> = involved.iter().find_map(|&s| match &replies[s] {
        Some(Err(e)) => Some(format!("shard {s}: {e}")),
        _ => None,
    });

    // Log-before-resolve: a committed epoch reaches every involved
    // shard's WAL before any of its tickets resolve, so a crash between
    // commit and resolution never yields a response the log cannot
    // reproduce. The in-memory sink is infallible; a file sink's IO
    // failure aborts the epoch, and any sibling whose log already
    // carries the aborted record is quarantined (its log is ahead of
    // the epoch outcome, so only an operator-driven recovery may touch
    // it again).
    if epoch_error.is_none() {
        let mut appended: Vec<usize> = Vec::with_capacity(involved.len());
        for &s in &involved {
            let rec = EpochRecord {
                kind: RecordKind::Epoch,
                first_seq: router.next_seq,
                verdicts: wal_verdicts.clone(),
                deletes: std::mem::take(&mut wal_deletes[s]),
                inserts: std::mem::take(&mut wal_inserts[s]),
            };
            match router.wals[s].append_record(&rec) {
                Ok(_) => appended.push(s),
                Err(e) => {
                    epoch_error = Some(format!("shard {s}: wal append failed: {e}"));
                    router.poisoned[s] = Some(format!("wal append failed: {e}"));
                    for &a in &appended {
                        router.poisoned[a] = Some(
                            "wal carries an epoch that aborted on a sibling's log failure".into(),
                        );
                    }
                    break;
                }
            }
        }
    }

    match epoch_error {
        None => {
            // Commit: fold the delta into the ownership index.
            for (id, v) in delta {
                match v {
                    Some((_, sh)) => {
                        if let Some(old) = router.owner.insert(id, sh) {
                            router.shard_len[old] -= 1;
                        }
                        router.shard_len[sh] += 1;
                    }
                    None => {
                        if let Some(old) = router.owner.remove(&id) {
                            router.shard_len[old] -= 1;
                        }
                    }
                }
            }
            // Rebalance (and publish) before resolution: a client that
            // has observed its write response must also observe the
            // epoch's effects — including any skew-triggered migration
            // it caused — in the telemetry.
            maybe_rebalance(inner, router);
            router.publish(inner);
            let t_merge1 = Instant::now();
            resolve_all(outcomes, router, None, Stage::Merge);
            record_tail(inner, t_merge1, Instant::now());
        }
        Some(err) => {
            // Abort: poison the failed shards, roll the healthy
            // participants back to their pre-epoch state.
            for &s in &involved {
                if let Some(Err(e)) = &replies[s] {
                    router.poisoned[s] = Some(e.clone());
                }
            }
            let (rtx, rrx) = mpsc::channel::<WriteReply<D>>();
            let mut rolling = 0usize;
            for &s in &involved {
                if router.poisoned[s].is_some() {
                    // Already quarantined (machine failure, or a log
                    // that carries the aborted epoch): never roll the
                    // store out from under a log that disagrees.
                    continue;
                }
                let Some(Ok(extracted)) = &replies[s] else { continue };
                let undo_inserts = insert_ids[s].clone();
                if undo_inserts.is_empty() && extracted.is_empty() {
                    continue;
                }
                router.workers[s]
                    .tx
                    .send(ShardJob::Write {
                        deletes: undo_inserts,
                        inserts: extracted.clone(),
                        inject_fault: false,
                        reply: rtx.clone(),
                    })
                    // ddrs-check: allow(unwrap) — rollback targets only
                    // healthy shards (their workers are alive).
                    .expect("shard worker died");
                rolling += 1;
            }
            drop(rtx);
            for _ in 0..rolling {
                // ddrs-check: allow(unwrap) — one reply per rollback
                // job, as in the forward path above.
                let reply = rrx.recv().expect("shard worker dropped a rollback reply");
                {
                    let mut st = inner.stats.lock();
                    st.machine.absorb(&reply.stats);
                    st.per_shard[reply.shard].machine.absorb(&reply.stats);
                }
                if let Err(e) = reply.result {
                    router.poisoned[reply.shard] =
                        Some(format!("rollback after epoch abort failed: {e}"));
                }
            }
            // Publish before resolution (mirroring the commit path): a
            // client that has observed the abort must also observe the
            // quarantine in the telemetry.
            router.publish(inner);
            let t_merge1 = Instant::now();
            resolve_all(outcomes, router, Some(&err), Stage::Merge);
            record_tail(inner, t_merge1, Instant::now());
        }
    }
}

/// Run the skew trigger after a committed write epoch.
fn maybe_rebalance<S: Semigroup, const D: usize>(inner: &Inner<S, D>, router: &mut Router<S, D>) {
    if inner.cfg.rebalance_factor <= 1.0 || router.shards() < 2 {
        return;
    }
    let total: usize = router.shard_len.iter().sum();
    if total == 0 {
        return;
    }
    let (donor, &max) = router
        .shard_len
        .iter()
        .enumerate()
        .max_by_key(|(_, &n)| n)
        // ddrs-check: allow(unwrap) — guarded: `router.shards() < 2`
        // already returned, so `shard_len` is non-empty.
        .expect("shards >= 2");
    let mean = total as f64 / router.shards() as f64;
    if max < inner.cfg.rebalance_min || (max as f64) <= inner.cfg.rebalance_factor * mean {
        return;
    }
    // A failed automatic split (no healthy sibling, degenerate
    // coordinates) is not an error — the trigger just stays armed.
    let _ = do_split(inner, router, donor);
    router.publish(inner);
}

/// Migrate half of `donor`'s points to a lighter sibling. Runs between
/// dispatches on the router thread, so no in-flight request observes a
/// half-migrated store and the global commit order is untouched.
fn do_split<S: Semigroup, const D: usize>(
    inner: &Inner<S, D>,
    router: &mut Router<S, D>,
    donor: usize,
) -> Result<SplitReport, String> {
    if router.shards() < 2 {
        return Err("split impossible: only one shard".into());
    }
    if let Some(reason) = &router.poisoned[donor] {
        return Err(format!("split impossible: donor {donor} is poisoned: {reason}"));
    }
    if router.shard_len[donor] < 2 {
        return Err(format!(
            "split impossible: donor {donor} holds {} point(s)",
            router.shard_len[donor]
        ));
    }
    // Pick the recipient: under the range policy only an adjacent shard
    // keeps slabs contiguous; under hash placement any shard works, so
    // take the lightest.
    let candidates: Vec<usize> = if router.part.bounds().is_some() {
        [donor.checked_sub(1), (donor + 1 < router.shards()).then_some(donor + 1)]
            .into_iter()
            .flatten()
            .filter(|&s| router.poisoned[s].is_none())
            .collect()
    } else {
        (0..router.shards()).filter(|&s| s != donor && router.poisoned[s].is_none()).collect()
    };
    let Some(&to) = candidates.iter().min_by_key(|&&s| router.shard_len[s]) else {
        return Err(format!("split impossible: donor {donor} has no healthy sibling"));
    };
    let upper = to > donor;

    let (tx, rx) = mpsc::channel::<SplitReply<D>>();
    router.workers[donor]
        .tx
        .send(ShardJob::SplitHalf { upper, reply: tx })
        // ddrs-check: allow(unwrap) — the donor was just checked healthy;
        // split failures travel as Err data in the reply.
        .expect("shard worker died");
    // ddrs-check: allow(unwrap) — one reply per split job.
    let reply = rx.recv().expect("shard worker dropped a split reply");
    {
        let mut st = inner.stats.lock();
        st.machine.absorb(&reply.stats);
        st.per_shard[donor].machine.absorb(&reply.stats);
    }
    let (moved, boundary) = match reply.result {
        Ok(ok) => ok,
        Err(e) => {
            if !e.starts_with("split impossible") {
                // The donor mutated (extraction failed mid-rebuild).
                router.poisoned[donor] = Some(format!("split extraction failed: {e}"));
            }
            return Err(e);
        }
    };

    // Land the migrated points on the recipient.
    let (wtx, wrx) = mpsc::channel::<WriteReply<D>>();
    router.workers[to]
        .tx
        .send(ShardJob::Write {
            deletes: Vec::new(),
            inserts: moved.clone(),
            inject_fault: false,
            reply: wtx,
        })
        // ddrs-check: allow(unwrap) — the recipient was chosen among
        // healthy shards; landing failures travel as Err data.
        .expect("shard worker died");
    // ddrs-check: allow(unwrap) — one reply per landing job.
    let landed = wrx.recv().expect("shard worker dropped a migration reply");
    {
        let mut st = inner.stats.lock();
        st.machine.absorb(&landed.stats);
        st.per_shard[to].machine.absorb(&landed.stats);
    }
    if let Err(e) = landed.result {
        router.poisoned[to] = Some(format!("migration landing failed: {e}"));
        // Try to put the extracted points back so the donor stays whole.
        let (btx, brx) = mpsc::channel::<WriteReply<D>>();
        router.workers[donor]
            .tx
            .send(ShardJob::Write {
                deletes: Vec::new(),
                inserts: moved,
                inject_fault: false,
                reply: btx,
            })
            // ddrs-check: allow(unwrap) — the donor survived extraction;
            // restore failures travel as Err data.
            .expect("shard worker died");
        // ddrs-check: allow(unwrap) — one reply per restore job.
        let back = brx.recv().expect("shard worker dropped a restore reply");
        {
            let mut st = inner.stats.lock();
            st.machine.absorb(&back.stats);
            st.per_shard[donor].machine.absorb(&back.stats);
        }
        if let Err(e2) = back.result {
            router.poisoned[donor] = Some(format!("restore after failed migration failed: {e2}"));
        }
        return Err(format!("split failed landing on shard {to}: {e}"));
    }

    // Log the migration on both shards' WALs before the routing state
    // changes (the same log-before-resolve discipline as write epochs:
    // by the time the split ticket resolves, both logs reproduce their
    // stores). A failed landing or restore logs nothing — the logs then
    // still describe the consistent pre-split state recovery targets.
    // An append IO failure quarantines both ends: whichever log kept
    // the record no longer agrees with a store the other end rolled
    // forward, so neither may serve until an operator recovers them.
    let migrated_ids: Vec<u32> = moved.iter().map(|p| p.id).collect();
    let out_rec =
        EpochRecord::event(RecordKind::MigrateOut, router.next_seq, migrated_ids, Vec::new());
    let in_rec =
        EpochRecord::event(RecordKind::MigrateIn, router.next_seq, Vec::new(), moved.clone());
    let append = router.wals[donor]
        .append_record(&out_rec)
        .and_then(|_| router.wals[to].append_record(&in_rec));
    if let Err(e) = append {
        router.poisoned[donor] = Some(format!("wal append failed during migration: {e}"));
        router.poisoned[to] = Some(format!("wal append failed during migration: {e}"));
        return Err(format!("split failed: wal append: {e}"));
    }

    // Commit the migration in the routing state. Under the range policy
    // the shifted boundary re-describes residency exactly; under hash
    // placement the moved points no longer live where the placement mix
    // says, so degenerate-read routing must fall back to full fan-out
    // from now on (the ownership index is keyed by id, which a
    // coordinate rect cannot consult).
    for p in &moved {
        router.owner.insert(p.id, to);
    }
    router.shard_len[donor] -= moved.len();
    router.shard_len[to] += moved.len();
    if router.part.bounds().is_some() {
        debug_assert!(donor.abs_diff(to) == 1, "range split picked a non-adjacent sibling");
        router.part.shift_boundary(donor, to, boundary);
    } else {
        router.part.note_hash_migration();
    }
    {
        let mut st = inner.stats.lock();
        st.rebalances += 1;
        st.rebalance_moved += moved.len() as u64;
    }
    Ok(SplitReport { from: donor, to, moved: moved.len(), boundary })
}

/// Rebuild quarantined shard `shard` from its write-ahead log and
/// return it to service. Runs between dispatches on the router thread
/// (recovery is an exclusive kind), so no in-flight request observes a
/// half-rebuilt shard:
///
/// 1. decode the shard's log, stopping cleanly at any torn or corrupt
///    tail — exactly the committed records survive;
/// 2. replay them into a fresh store on the shard's own machine (the
///    worker swaps it in only if the whole replay succeeds);
/// 3. re-derive the id→shard ownership index: drop every id still
///    mapped to the dead shard, claim the rebuilt store's live ids;
/// 4. clear the quarantine and republish health.
///
/// On any failure the shard stays quarantined, the ownership index is
/// untouched, and the call can be retried.
fn do_recover<S: Semigroup, const D: usize>(
    inner: &Inner<S, D>,
    router: &mut Router<S, D>,
    shard: usize,
) -> Result<RecoveryReport, String> {
    if router.poisoned[shard].is_none() {
        return Err(format!("recover impossible: shard {shard} is not poisoned"));
    }
    let t0 = Instant::now();
    let (records, tail) =
        router.wals[shard].replay().map_err(|e| format!("recover failed: wal unreadable: {e}"))?;
    let replayed = records.len();
    let clean_tail = matches!(tail, LogTail::Clean);
    let (tx, rx) = mpsc::channel::<RecoverReply>();
    router.workers[shard]
        .tx
        .send(ShardJob::Recover { capacity: router.capacity, records, reply: tx })
        .map_err(|_| "recover failed: shard worker is gone".to_string())?;
    let reply =
        rx.recv().map_err(|_| "recover failed: shard worker dropped its reply".to_string())?;
    {
        let mut st = inner.stats.lock();
        st.machine.absorb(&reply.stats);
        st.per_shard[shard].machine.absorb(&reply.stats);
    }
    let live = reply.result?;
    router.owner.retain(|_, sh| *sh != shard);
    for id in &live {
        router.owner.insert(*id, shard);
    }
    router.shard_len[shard] = live.len();
    router.poisoned[shard] = None;
    let duration = t0.elapsed();
    {
        let mut st = inner.stats.lock();
        st.recoveries += 1;
        st.recovered_points += live.len() as u64;
        st.recovery_us.record(duration.as_micros() as u64);
    }
    Ok(RecoveryReport {
        shard,
        replayed_records: replayed,
        live_points: live.len(),
        clean_tail,
        duration,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddrs_rangetree::Sum;

    fn pts(range: std::ops::Range<u32>) -> Vec<Point<2>> {
        range
            .map(|i| Point::weighted([((i * 193) % 777) as i64, ((i * 71) % 555) as i64], i, 2))
            .collect()
    }

    fn machines(s: usize, p: usize) -> Vec<Machine> {
        (0..s).map(|_| Machine::new(p).unwrap()).collect()
    }

    fn quick(s: usize, policy: PartitionPolicy) -> ShardedService<Sum, 2> {
        ShardedService::start(
            machines(s, 2),
            16,
            &pts(0..60),
            Sum,
            policy,
            ShardedConfig { max_delay: Duration::from_micros(100), ..Default::default() },
        )
        .unwrap()
    }

    #[test]
    fn serves_all_read_modes_across_shards() {
        for policy in [PartitionPolicy::Hash, PartitionPolicy::range_uniform(3, 0, 777)] {
            let service = quick(3, policy);
            let all = Rect::new([0, 0], [800, 600]);
            let c = service.count(all).unwrap();
            let a = service.aggregate(all).unwrap();
            let r = service.report(Rect::new([0, 0], [0, 0])).unwrap();
            assert_eq!(c.wait().unwrap().value, 60);
            assert_eq!(a.wait().unwrap().value, Some(120));
            assert_eq!(r.wait().unwrap().value, vec![0]);
            let stats = service.stats();
            assert_eq!(stats.submitted, 3);
            assert_eq!(stats.completed, 3);
            assert_eq!(stats.total_points(), 60);
        }
    }

    #[test]
    fn writes_route_and_reads_observe_them() {
        let service = quick(2, PartitionPolicy::range_uniform(2, 0, 777));
        let all = Rect::new([0, 0], [800, 600]);
        service.insert(pts(100..110)).unwrap().wait().unwrap();
        assert_eq!(service.count(all).unwrap().wait().unwrap().value, 70);
        service.delete((100..105).collect()).unwrap().wait().unwrap();
        assert_eq!(service.count(all).unwrap().wait().unwrap().value, 65);
        let parts = service.shutdown();
        assert_eq!(parts.iter().map(|(_, t)| t.len()).sum::<usize>(), 65);
    }

    #[test]
    fn duplicate_insert_is_rejected_sequentially() {
        let service = quick(2, PartitionPolicy::Hash);
        let verdict = service.insert(pts(5..6)).unwrap().wait();
        assert_eq!(verdict, Err(ServiceError::Rejected(BuildError::DuplicateId(5))));
        assert_eq!(service.count(Rect::new([0, 0], [800, 600])).unwrap().wait().unwrap().value, 60);
    }

    // A single store is served as a one-shard group: these pin the S = 1
    // instance of the contract.

    #[test]
    fn serves_all_three_read_modes() {
        let service = quick(1, PartitionPolicy::Hash);
        let all = Rect::new([0, 0], [800, 600]);
        let c = service.count(all).unwrap();
        let a = service.aggregate(all).unwrap();
        let r = service.report(Rect::new([0, 0], [0, 0])).unwrap();
        assert_eq!(c.wait().unwrap().value, 60);
        assert_eq!(a.wait().unwrap().value, Some(120));
        assert_eq!(r.wait().unwrap().value, vec![0]); // point (0,0) is id 0
        let stats = service.stats();
        assert_eq!((stats.submitted, stats.completed), (3, 3));
        assert_eq!(stats.mean_read_fanout(), 1.0);
    }

    #[test]
    fn writes_commit_and_reads_observe_them() {
        let service = quick(1, PartitionPolicy::Hash);
        let all = Rect::new([0, 0], [800, 600]);
        service.insert(pts(100..110)).unwrap().wait().unwrap();
        assert_eq!(service.count(all).unwrap().wait().unwrap().value, 70);
        service.delete((100..105).collect()).unwrap().wait().unwrap();
        assert_eq!(service.count(all).unwrap().wait().unwrap().value, 65);
        let parts = service.shutdown();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].1.len(), 65);
    }

    #[test]
    fn insert_delete_reinsert_in_one_epoch() {
        // Both writes queue before the router can wake: they land in one
        // epoch and must still behave sequentially.
        let service = ShardedService::start(
            machines(1, 2),
            8,
            &pts(0..8),
            Sum,
            PartitionPolicy::Hash,
            ShardedConfig { max_delay: Duration::from_millis(50), ..Default::default() },
        )
        .unwrap();
        // Delete id 3, then re-insert it at a new location.
        let t1 = service.delete(vec![3]).unwrap();
        let t2 = service.insert(vec![Point::weighted([700, 500], 3, 9)]).unwrap();
        let s1 = t1.wait().unwrap().seq;
        let s2 = t2.wait().unwrap().seq;
        assert!(s1 < s2, "epoch preserves arrival order in commit seqs");
        let hit = service.report(Rect::new([700, 500], [700, 500])).unwrap().wait().unwrap();
        assert_eq!(hit.value, vec![3]);
        assert_eq!(service.shutdown()[0].1.len(), 8);
    }

    #[test]
    fn commit_seqs_are_dense_and_ordered() {
        let service = quick(1, PartitionPolicy::Hash);
        let seqs: Vec<u64> = (0..5)
            .map(|_| service.count(Rect::new([0, 0], [800, 600])).unwrap().wait().unwrap().seq)
            .collect();
        assert_eq!(seqs, (seqs[0]..seqs[0] + 5).collect::<Vec<u64>>(), "dense and in order");
    }

    #[test]
    fn stats_snapshot_shape() {
        let service = quick(1, PartitionPolicy::Hash);
        for _ in 0..10 {
            service.count(Rect::new([0, 0], [800, 600])).unwrap().wait().unwrap();
        }
        let stats = service.stats();
        assert_eq!((stats.submitted, stats.completed), (10, 10));
        assert!(stats.machine.runs >= 1);
        assert!(stats.dispatches >= 1 && stats.dispatches <= 10);
        assert_eq!(stats.queries_coalesced, 10);
        assert!(stats.mean_batch_size() >= 1.0);
        assert_eq!(stats.latency_us.count(), 10);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn initial_load_validates_ids() {
        let mut bad = pts(0..4);
        bad.push(bad[1]);
        let err = ShardedService::start(
            machines(2, 1),
            8,
            &bad,
            Sum,
            PartitionPolicy::Hash,
            ShardedConfig::default(),
        )
        .err();
        assert_eq!(err, Some(BuildError::DuplicateId(1)));
    }

    #[test]
    fn explicit_split_moves_points_and_boundary() {
        // Everything starts on shard 0: the boundary is far right.
        let service = ShardedService::start(
            machines(2, 2),
            8,
            &pts(0..40),
            Sum,
            PartitionPolicy::Range { bounds: vec![10_000] },
            ShardedConfig { max_delay: Duration::from_micros(100), ..Default::default() },
        )
        .unwrap();
        assert_eq!(service.stats().per_shard[0].live_points, 40);
        let report = service.split_shard(0).unwrap().wait().unwrap().value;
        assert_eq!((report.from, report.to), (0, 1));
        assert!(report.moved >= 10 && report.moved <= 30, "roughly half: {report:?}");
        let stats = service.stats();
        assert_eq!(stats.rebalances, 1);
        assert_eq!(stats.per_shard[0].live_points + stats.per_shard[1].live_points, 40);
        assert_eq!(stats.range_bounds, Some(vec![report.boundary]));
        // Cross-shard reads still see everything, exactly.
        assert_eq!(service.count(Rect::new([0, 0], [800, 600])).unwrap().wait().unwrap().value, 40);
        // New inserts route by the *new* boundary.
        let left = vec![Point::weighted([report.boundary - 1, 0], 9000, 1)];
        let right = vec![Point::weighted([report.boundary, 0], 9001, 1)];
        service.insert(left).unwrap().wait().unwrap();
        service.insert(right).unwrap().wait().unwrap();
        let parts = service.shutdown();
        assert!(parts[0].1.contains_id(9000));
        assert!(parts[1].1.contains_id(9001));
    }

    /// Regression: a splittable shard whose lower half is a plateau of
    /// one coordinate must still split (the boundary retreats past the
    /// plateau instead of spuriously reporting "all points share the
    /// splitting coordinate").
    #[test]
    fn split_retreats_past_a_median_plateau() {
        let initial: Vec<Point<2>> =
            (0..10u32).map(|i| Point::new([if i < 7 { 5 } else { 9 }, i as i64], i)).collect();
        let service = ShardedService::start(
            machines(2, 1),
            8,
            &initial,
            Sum,
            PartitionPolicy::Range { bounds: vec![10_000] },
            ShardedConfig { max_delay: Duration::from_micros(100), ..Default::default() },
        )
        .unwrap();
        let report = service.split_shard(0).unwrap().wait().unwrap().value;
        assert_eq!(report.boundary, 9, "boundary must retreat past the x = 5 plateau");
        assert_eq!(report.moved, 3, "exactly the points above the plateau move");
        let stats = service.stats();
        assert_eq!(stats.per_shard[0].live_points, 7);
        assert_eq!(stats.per_shard[1].live_points, 3);
        assert_eq!(service.count(Rect::new([0, 0], [100, 100])).unwrap().wait().unwrap().value, 10);
        // A single-coordinate shard is still a clean error, not a panic.
        let verdict = service.split_shard(0).unwrap().wait();
        match verdict {
            Err(ServiceError::Machine(msg)) => {
                assert!(msg.contains("split impossible"), "{msg}")
            }
            other => panic!("expected split-impossible, got {other:?}"),
        }
        service.shutdown();
    }

    /// Regression (review): a hash-policy split migrates points away
    /// from their placement shard; degenerate reads used to keep
    /// trusting the placement mix and silently answered 0/None/empty
    /// for every migrated point. Post-split they must fall back to full
    /// fan-out and stay byte-identical to the unsharded answer.
    #[test]
    fn hash_split_widens_point_routing_but_stays_exact() {
        let service = quick(2, PartitionPolicy::Hash);
        let report = service.split_shard(0).unwrap().wait().unwrap().value;
        assert_eq!(report.from, 0);
        assert!(report.moved > 0, "hash split must migrate points: {report:?}");
        // Every point — including every migrated one — is still found
        // by a degenerate lookup at its coordinate.
        for i in 0..60u32 {
            let at = [((i * 193) % 777) as i64, ((i * 71) % 555) as i64];
            let ids = service.report(Rect::new(at, at)).unwrap().wait().unwrap().value;
            assert!(ids.contains(&i), "point {i} lost after a hash-policy split");
        }
        let stats = service.stats();
        // The fallback is visible in the routing telemetry: 60 point
        // reads × both shards, not ×1.
        assert_eq!(stats.read_ops_routed, 60);
        assert_eq!(stats.read_shards_touched, 120);
        assert_eq!(stats.total_points(), 60);
        service.shutdown();
    }

    #[test]
    fn skew_trigger_rebalances_automatically() {
        let service = ShardedService::start(
            machines(2, 1),
            8,
            &[],
            Sum,
            PartitionPolicy::Range { bounds: vec![10_000] },
            ShardedConfig {
                max_delay: Duration::from_micros(100),
                rebalance_factor: 1.5,
                rebalance_min: 16,
                ..Default::default()
            },
        )
        .unwrap();
        // All inserts land left of the boundary → shard 0 holds 100% of
        // the points (skew 2.0 > 1.5) → the trigger must fire.
        service.insert(pts(0..32)).unwrap().wait().unwrap();
        let stats = service.stats();
        assert!(stats.rebalances >= 1, "skew trigger did not fire: {stats:?}");
        assert!(stats.per_shard[1].live_points > 0);
        assert_eq!(stats.total_points(), 32);
        assert_eq!(service.count(Rect::new([0, 0], [800, 600])).unwrap().wait().unwrap().value, 32);
        service.shutdown();
    }

    #[test]
    fn empty_store_and_empty_writes_cost_zero_runs() {
        let service = ShardedService::start(
            machines(2, 2),
            8,
            &[],
            Sum,
            PartitionPolicy::Hash,
            ShardedConfig { max_delay: Duration::from_micros(100), ..Default::default() },
        )
        .unwrap();
        let q = Rect::new([0, 0], [800, 600]);
        assert_eq!(service.count(q).unwrap().wait().unwrap().value, 0);
        assert_eq!(service.aggregate(q).unwrap().wait().unwrap().value, None);
        service.insert(Vec::new()).unwrap().wait().unwrap();
        service.delete(vec![7]).unwrap().wait().unwrap();
        let stats = service.stats();
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.machine.runs, 0, "empty traffic must not run any machine");
        assert_eq!(stats.dispatches, 0);
        assert_eq!(stats.write_epochs, 0);
        service.shutdown();
    }

    #[test]
    fn empty_rect_answers_locally() {
        let service = quick(2, PartitionPolicy::Hash);
        let degenerate = Rect::new([5, 5], [4, 4]);
        assert_eq!(service.count(degenerate).unwrap().wait().unwrap().value, 0);
        assert_eq!(service.aggregate(degenerate).unwrap().wait().unwrap().value, None);
        assert!(service.report(degenerate).unwrap().wait().unwrap().value.is_empty());
    }

    #[test]
    fn commit_seqs_are_global_and_ordered() {
        let service = quick(2, PartitionPolicy::range_uniform(2, 0, 777));
        let seqs = vec![
            service.count(Rect::new([0, 0], [800, 600])).unwrap().wait().unwrap().seq,
            service.insert(pts(500..504)).unwrap().wait().unwrap().seq,
            service.count(Rect::new([0, 0], [800, 600])).unwrap().wait().unwrap().seq,
            service.delete(vec![500]).unwrap().wait().unwrap().seq,
        ];
        let sorted = {
            let mut s = seqs.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(seqs, sorted, "sequential submission commits in order");
        assert_eq!(seqs, (seqs[0]..seqs[0] + 4).collect::<Vec<u64>>(), "seqs are dense");
        service.shutdown();
    }

    #[test]
    fn abort_rejects_pending_requests() {
        let service = ShardedService::start(
            machines(2, 1),
            8,
            &pts(0..16),
            Sum,
            PartitionPolicy::Hash,
            ShardedConfig {
                max_batch: 1024,
                max_delay: Duration::from_secs(5),
                ..Default::default()
            },
        )
        .unwrap();
        let tickets: Vec<_> =
            (0..10).map(|_| service.count(Rect::new([0, 0], [800, 600])).unwrap()).collect();
        let parts = service.abort();
        for t in tickets {
            assert_eq!(t.wait(), Err(ServiceError::ShuttingDown));
        }
        assert_eq!(parts.iter().map(|(_, t)| t.len()).sum::<usize>(), 16);
    }

    #[test]
    fn queued_deadline_expires_without_touching_any_machine() {
        let service = ShardedService::start(
            machines(2, 1),
            8,
            &pts(0..16),
            Sum,
            PartitionPolicy::Hash,
            ShardedConfig {
                max_batch: 1024,
                max_delay: Duration::from_millis(80),
                ..Default::default()
            },
        )
        .unwrap();
        let doomed = service
            .count_within(Rect::new([0, 0], [800, 600]), Some(Duration::from_millis(1)))
            .unwrap();
        assert_eq!(doomed.wait(), Err(ServiceError::DeadlineExpired));
        let stats = service.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.machine.runs, 0);
        assert_eq!(service.count(Rect::new([0, 0], [800, 600])).unwrap().wait().unwrap().value, 16);
        service.shutdown();
    }

    #[test]
    fn backpressure_rejects_beyond_capacity() {
        let service = ShardedService::start(
            machines(2, 1),
            8,
            &pts(0..16),
            Sum,
            PartitionPolicy::Hash,
            ShardedConfig {
                max_batch: 1024,
                max_delay: Duration::from_millis(300),
                queue_capacity: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let q = Rect::new([0, 0], [800, 600]);
        let mut admitted = Vec::new();
        let mut overloaded = 0;
        for _ in 0..6 {
            match service.count(q) {
                Ok(t) => admitted.push(t),
                Err(SubmitError::Overloaded { depth }) => {
                    assert_eq!(depth, 4);
                    overloaded += 1;
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        assert_eq!((admitted.len(), overloaded), (4, 2));
        for t in admitted {
            assert_eq!(t.wait().unwrap().value, 16);
        }
        assert_eq!(service.stats().overloaded, 2);
        service.shutdown();
    }
}
