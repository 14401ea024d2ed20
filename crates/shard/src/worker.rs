//! The per-shard scheduler thread: one `Machine` + one
//! `DynamicDistRangeTree`, executing the sub-batches the router plans.
//!
//! A worker is deliberately dumb: it owns its group's machine and store,
//! receives fully planned jobs over a channel, executes them in order
//! with panic containment (read sub-batches queued back to back share
//! one machine run), and replies with the result plus the run's
//! [`RunStats`] so the router can account machine work per shard. All
//! cross-shard reasoning (planning, merging, ordering, rollback,
//! poisoning) lives in the router — the worker has no idea siblings
//! exist.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread::JoinHandle;

use ddrs_cgm::{panic_message, CgmError, Machine, RunStats};
use ddrs_engine::{BatchResults, QueryBatch};
use ddrs_rangetree::{DynamicDistRangeTree, Point, Semigroup};
use ddrs_wal::EpochRecord;

/// What a read sub-batch does with its outcome: invoked on the worker
/// thread with the fused results (or the failure), the stats of the
/// machine run it rode (empty for all but the first of the sub-batches
/// sharing one run) and whether that run reached the machine at all.
/// The router builds these to resolve tickets and account telemetry
/// without ever blocking on the read — reads gather asynchronously,
/// while writes and splits keep their synchronous reply channels
/// (the router *must* barrier on those to order the epoch protocol).
pub(crate) type ReadComplete<S> =
    Box<dyn FnOnce(Result<BatchResults<S>, String>, RunStats, bool) + Send>;

/// One planned unit of work for a shard group.
pub(crate) enum ShardJob<S: Semigroup, const D: usize> {
    /// Execute a fused read sub-batch: at most one `Machine::run` (zero
    /// when the sub-batch or the shard's store is empty), shared with
    /// every read sub-batch queued right behind it, then hand the
    /// outcome to `complete` on this worker thread.
    Reads { batch: QueryBatch<S, D>, complete: ReadComplete<S> },
    /// Apply one write sub-epoch: extract `deletes` (returning the
    /// removed points so the router can roll the epoch back on sibling
    /// failure), then insert `inserts`. `inject_fault` makes a simulated
    /// processor panic *between* the two cascades via
    /// [`Machine::try_run`] — the deterministic mid-epoch fault the test
    /// harness injects.
    Write {
        deletes: Vec<u32>,
        inserts: Vec<Point<D>>,
        inject_fault: bool,
        reply: mpsc::Sender<WriteReply<D>>,
    },
    /// Extract one half of the store, split by the first coordinate
    /// (ties kept together), for migration to a sibling group.
    SplitHalf { upper: bool, reply: mpsc::Sender<SplitReply<D>> },
    /// Rebuild the store from the shard's write-ahead log: replay
    /// `records` into a fresh tree and swap it in place of the current
    /// (possibly inconsistent) one. On failure the old store is kept
    /// untouched, so the router can leave the shard quarantined and
    /// retry later.
    Recover { capacity: usize, records: Vec<EpochRecord<D>>, reply: mpsc::Sender<RecoverReply> },
    /// Hand the machine and store back and exit the thread.
    Stop { reply: mpsc::Sender<(Machine, DynamicDistRangeTree<D>)> },
}

pub(crate) struct WriteReply<const D: usize> {
    pub shard: usize,
    /// On success, the points removed by the delete cascade (rollback
    /// capital). On failure, the shard's store may be inconsistent.
    pub result: Result<Vec<Point<D>>, String>,
    pub stats: RunStats,
}

pub(crate) struct SplitReply<const D: usize> {
    /// The migrated points and the axis-0 boundary separating them from
    /// the points the donor kept.
    pub result: Result<(Vec<Point<D>>, i64), String>,
    pub stats: RunStats,
}

pub(crate) struct RecoverReply {
    /// On success, the live point ids of the rebuilt store (the router
    /// re-derives the ownership index from them).
    pub result: Result<Vec<u32>, String>,
    pub stats: RunStats,
}

pub(crate) struct WorkerHandle<S: Semigroup, const D: usize> {
    pub tx: mpsc::Sender<ShardJob<S, D>>,
    pub join: JoinHandle<()>,
}

pub(crate) fn spawn_worker<S: Semigroup, const D: usize>(
    shard: usize,
    machine: Machine,
    tree: DynamicDistRangeTree<D>,
    sg: S,
) -> WorkerHandle<S, D> {
    let (tx, rx) = mpsc::channel::<ShardJob<S, D>>();
    let join = std::thread::Builder::new()
        .name(format!("ddrs-shard-{shard}"))
        .spawn(move || worker_loop(shard, machine, tree, sg, &rx))
        // ddrs-check: allow(unwrap) — OS thread-spawn failure at service
        // construction; there is nothing to degrade gracefully yet.
        .expect("spawning a shard worker");
    WorkerHandle { tx, join }
}

/// Execute a group of read sub-batches as one fused batch (query `i` of
/// each sub-batch keeps its place, offset by the sub-batches before it)
/// and hand each its slice of the results. The run's stats go to the
/// first completion only, so no run is counted twice; a failed run
/// fails every sub-batch that rode it.
fn run_reads<S: Semigroup, const D: usize>(
    sg: S,
    machine: &Machine,
    tree: &DynamicDistRangeTree<D>,
    group: Vec<(QueryBatch<S, D>, ReadComplete<S>)>,
) {
    let (mut counts, mut aggs, mut reports) = (Vec::new(), Vec::new(), Vec::new());
    let mut sizes = Vec::with_capacity(group.len());
    for (batch, _) in &group {
        let (c, a, r) = batch.parts();
        counts.extend_from_slice(c);
        aggs.extend_from_slice(a);
        reports.extend_from_slice(r);
        sizes.push((c.len(), a.len(), r.len()));
    }
    let batch = QueryBatch::from_parts(sg, counts, aggs, reports);
    let outcome = catch_unwind(AssertUnwindSafe(|| batch.try_execute_dynamic(machine, tree)));
    let mut stats = machine.take_stats();
    let ran = stats.runs > 0;
    let mut result = match outcome {
        Ok(Ok(out)) => Ok(out),
        Ok(Err(e)) => Err(cgm_error_string(&e)),
        Err(payload) => Err(panic_message(&*payload)),
    };
    for ((_, complete), (nc, na, nr)) in group.into_iter().zip(sizes) {
        let part = match &mut result {
            Ok(out) => Ok(BatchResults {
                counts: out.counts.drain(..nc).collect(),
                aggregates: out.aggregates.drain(..na).collect(),
                reports: out.reports.drain(..nr).collect(),
            }),
            Err(e) => Err(e.clone()),
        };
        complete(part, std::mem::take(&mut stats), ran);
    }
}

/// Render a machine failure so the structured kind survives into the
/// string the router quarantines and reports (`ProcessorPanicked` is
/// what the fault-injection harness greps for).
fn cgm_error_string(e: &CgmError) -> String {
    match e {
        CgmError::ProcessorPanicked { rank, payload } => {
            format!("ProcessorPanicked: rank {rank}: {payload}")
        }
        other => other.to_string(),
    }
}

fn worker_loop<S: Semigroup, const D: usize>(
    shard: usize,
    machine: Machine,
    mut tree: DynamicDistRangeTree<D>,
    sg: S,
    rx: &mpsc::Receiver<ShardJob<S, D>>,
) {
    // Start clean so every reply's stats cover exactly its own job.
    machine.take_stats();
    // A non-read job that ended a group of reads; it runs next.
    let mut held: Option<ShardJob<S, D>> = None;
    while let Some(job) = held.take().or_else(|| rx.recv().ok()) {
        match job {
            ShardJob::Reads { batch, complete } => {
                // Group commit at the shard: the read sub-batches that
                // queued up while the machine was busy ride one run.
                // The first other job ends the group and runs right
                // after it, so jobs still execute in arrival order.
                let mut group = vec![(batch, complete)];
                while let Ok(next) = rx.try_recv() {
                    match next {
                        ShardJob::Reads { batch, complete } => group.push((batch, complete)),
                        other => {
                            held = Some(other);
                            break;
                        }
                    }
                }
                run_reads(sg, &machine, &tree, group);
            }
            ShardJob::Write { deletes, inserts, inject_fault, reply } => {
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| -> Result<Vec<Point<D>>, String> {
                        let extracted = if deletes.is_empty() {
                            Vec::new()
                        } else {
                            tree.extract_batch(&machine, &deletes).map_err(|e| e.to_string())?
                        };
                        if inject_fault {
                            machine
                                .try_run(|ctx| {
                                    if ctx.rank() == ctx.p() - 1 {
                                        panic!("injected fault: processor panic mid-epoch");
                                    }
                                    ctx.barrier();
                                })
                                .map_err(|e| cgm_error_string(&e))?;
                        }
                        if !inserts.is_empty() {
                            tree.insert_batch(&machine, &inserts).map_err(|e| e.to_string())?;
                        }
                        Ok(extracted)
                    }));
                let stats = machine.take_stats();
                let result = match outcome {
                    Ok(r) => r,
                    Err(payload) => Err(panic_message(&*payload)),
                };
                let _ = reply.send(WriteReply { shard, result, stats });
            }
            ShardJob::SplitHalf { upper, reply } => {
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| split_half(&machine, &mut tree, upper)));
                let stats = machine.take_stats();
                let result = match outcome {
                    Ok(r) => r,
                    Err(payload) => Err(panic_message(&*payload)),
                };
                let _ = reply.send(SplitReply { result, stats });
            }
            ShardJob::Recover { capacity, records, reply } => {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    ddrs_wal::replay_into_store(&machine, capacity, &records)
                }));
                let stats = machine.take_stats();
                let result = match outcome {
                    Ok(Ok(fresh)) => {
                        let live = fresh.points().map(|p| p.id).collect();
                        tree = fresh;
                        Ok(live)
                    }
                    Ok(Err(e)) => Err(e),
                    Err(payload) => Err(panic_message(&*payload)),
                };
                let _ = reply.send(RecoverReply { result, stats });
            }
            ShardJob::Stop { reply } => {
                let _ = reply.send((machine, tree));
                return;
            }
        }
    }
}

/// Extract the upper (or lower) half of the store by axis 0, keeping
/// equal first coordinates together so the result is a clean slab split:
/// every migrated point is `>= b` (upper) or `< b` (lower) on axis 0,
/// where `b` is the returned boundary.
fn split_half<const D: usize>(
    machine: &Machine,
    tree: &mut DynamicDistRangeTree<D>,
    upper: bool,
) -> Result<(Vec<Point<D>>, i64), String> {
    let mut pts: Vec<Point<D>> = tree.points().copied().collect();
    if pts.len() < 2 {
        return Err(format!("split impossible: shard holds {} point(s)", pts.len()));
    }
    pts.sort_unstable_by_key(|p| (p.coords[0], p.id));
    let mut b = pts[pts.len() / 2].coords[0];
    let moved_of = |b: i64| -> Vec<u32> {
        if upper {
            pts.iter().filter(|p| p.coords[0] >= b).map(|p| p.id).collect()
        } else {
            pts.iter().filter(|p| p.coords[0] < b).map(|p| p.id).collect()
        }
    };
    let mut moved_ids = moved_of(b);
    if moved_ids.is_empty() || moved_ids.len() == pts.len() {
        // The median coordinate is a plateau reaching one end of the
        // shard (upper: everything >= b; lower: nothing < b). The split
        // is still possible as long as a second distinct coordinate
        // exists: retreat the boundary to the smallest coordinate
        // strictly above the plateau, which peels a non-empty proper
        // subset off the right end (upper) or moves the plateau itself
        // (lower).
        match pts.iter().map(|p| p.coords[0]).find(|&c| c > b) {
            Some(next) => {
                b = next;
                moved_ids = moved_of(b);
            }
            None => {
                return Err(format!(
                    "split impossible: all {} points share the splitting coordinate {b}",
                    pts.len()
                ));
            }
        }
    }
    debug_assert!(!moved_ids.is_empty() && moved_ids.len() < pts.len());
    let moved = tree.extract_batch(machine, &moved_ids).map_err(|e| e.to_string())?;
    Ok((moved, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddrs_rangetree::{Rect, Sum};
    use std::sync::{Arc, Mutex};

    type Delivered = Vec<(BatchResults<Sum>, usize, bool)>;

    #[test]
    fn grouped_reads_get_their_own_slices_and_one_run() {
        let machine = Machine::new(2).unwrap();
        let mut tree = DynamicDistRangeTree::<2>::new(8);
        let pts: Vec<Point<2>> = (0..40)
            .map(|i| Point::weighted([i as i64, (i * 7 % 40) as i64], i, 1 + i as u64))
            .collect();
        tree.insert_batch(&machine, &pts).unwrap();
        let rect = |lo: i64, hi: i64| Rect::new([lo, 0], [hi, 39]);
        let batches = vec![
            QueryBatch::from_parts(Sum, vec![rect(0, 9)], vec![rect(5, 5)], vec![]),
            QueryBatch::from_parts(Sum, vec![], vec![rect(0, 39)], vec![rect(3, 4), rect(7, 7)]),
            QueryBatch::from_parts(Sum, vec![rect(10, 19), rect(30, 39)], vec![], vec![rect(0, 1)]),
        ];
        machine.take_stats();
        let expected: Vec<BatchResults<Sum>> =
            batches.iter().map(|b| b.execute_dynamic(&machine, &tree)).collect();
        machine.take_stats();

        let delivered: Arc<Mutex<Delivered>> = Arc::default();
        let group = batches
            .into_iter()
            .map(|b| {
                let sink = Arc::clone(&delivered);
                let complete: ReadComplete<Sum> = Box::new(move |result, stats, ran| {
                    sink.lock().unwrap().push((result.unwrap(), stats.runs, ran));
                });
                (b, complete)
            })
            .collect();
        run_reads(Sum, &machine, &tree, group);

        let delivered = delivered.lock().unwrap();
        let runs: Vec<usize> = delivered.iter().map(|d| d.1).collect();
        assert_eq!(runs, vec![1, 0, 0], "one shared run, counted once");
        assert!(delivered.iter().all(|d| d.2), "every sub-batch rode a real run");
        for ((got, _, _), want) in delivered.iter().zip(&expected) {
            assert_eq!(got.counts, want.counts);
            assert_eq!(got.aggregates, want.aggregates);
            assert_eq!(got.reports, want.reports);
        }
    }
}
