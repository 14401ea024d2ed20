//! Direct layer probes for the traced run: each times public calls of
//! one layer on the workload's own inputs (one shard's log and points,
//! a read batch, a request and its response).

use std::path::Path;
use std::time::Instant;

use ddrs_cgm::model::{predict_report, predict_search, CostParams};
use ddrs_cgm::{Machine, RunStats};
use ddrs_client::{Commit, Request};
use ddrs_engine::QueryBatch;
use ddrs_net::codec::{decode_request, decode_server_msg, encode_request, encode_response};
use ddrs_rangetree::{DynamicDistRangeTree, Point, SeqRangeTree, Sum};
use ddrs_trace::RankStep;
use ddrs_wal::{decode_log, replay_into_store, EpochWal, FileSink};
use ddrs_workloads::{MixedQuery, QueryMode};

use crate::common::{points, Expected, CAPACITY};
use crate::report::{mean, median, Run};
use crate::spans::span;
use crate::workload::Ctx;

/// Points inserted per write probe, and ids deleted.
const PROBE_INSERT: usize = 1024;
const PROBE_DELETE: usize = 512;
/// Write probes per run (insert then delete, on one store).
const WRITE_REPS: usize = 3;
/// Ids of probe-inserted points start here, clear of every workload's.
const PROBE_FIRST_ID: u32 = 1 << 28;

/// What the probes run on.
pub struct Inputs<'a> {
    /// Processors per shard in the workload.
    pub p: usize,
    /// One shard's write-ahead log, as the service wrote it.
    pub log: Vec<u8>,
    /// Reads of the workload (at most a batch's worth).
    pub batch: &'a [MixedQuery<2>],
    /// A request the workload sends, the answers it gets, and how many
    /// writes it carries.
    pub request: Request<Sum, 2>,
    pub answer: Expected,
    pub writes: usize,
}

/// Time `f` repeatedly: at least `min` reps, then until `budget_s` has
/// passed or `max` reps ran. Returns each rep's milliseconds and the
/// last result.
fn reps<R>(min: usize, max: usize, budget_s: f64, mut f: impl FnMut() -> R) -> (Vec<f64>, R) {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let r = std::hint::black_box(f());
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        let done =
            times.len() >= max || (times.len() >= min && start.elapsed().as_secs_f64() >= budget_s);
        if done {
            return (times, r);
        }
    }
}

/// Run every probe and add its per-layer metrics to `run`; the machine
/// timelines the engine probe produced go to `ctx.timeline`.
pub fn all(run: &mut Run, ctx: &mut Ctx<'_>, inp: Inputs<'_>) {
    let pts = wal(run, &inp, ctx.out);
    let store = engine(run, &inp, &pts, &mut ctx.timeline);
    writes(run, inp.p, store, &pts, ctx.seed);
    codec(run, &inp);
}

/// Decode, re-append and replay the shard's log; returns its live
/// points.
fn wal(run: &mut Run, inp: &Inputs<'_>, scratch: &Path) -> Vec<Point<2>> {
    let (times, (records, _tail)) =
        reps(3, 50, 0.3, || span("wal.decode", || decode_log::<2>(&inp.log)));
    run.layer("wal.decode_ms", median(&times), "ms", times.len());
    run.layer("wal.records", records.len() as f64, "count", 1);
    run.layer("wal.bytes_per_record", inp.log.len() as f64 / records.len() as f64, "B", 1);

    let path = scratch.join("probe.wal");
    let sink = FileSink::create(&path).expect("creating the probe log");
    let log = EpochWal::<2>::with_sink(Box::new(sink));
    let mut append_us = Vec::with_capacity(records.len());
    for rec in &records {
        let t0 = Instant::now();
        let ok = span("wal.append", || log.append_record(rec)).is_ok();
        append_us.push(t0.elapsed().as_secs_f64() * 1e6);
        run.check(ok);
    }
    drop(log);
    let _ = std::fs::remove_file(&path);
    run.layer("wal.append_us", mean(&append_us), "us", append_us.len());

    let machine = Machine::new(inp.p).expect("machine size");
    let t0 = Instant::now();
    let replayed =
        span("wal.replay", || replay_into_store(&machine, CAPACITY, &records)).expect("wal replay");
    run.layer("wal.replay_ms", t0.elapsed().as_secs_f64() * 1e3, "ms", 1);
    replayed.points().copied().collect()
}

/// One machine's measurements of the probe batch.
struct EngineRun {
    batch_ms: Vec<f64>,
    stats: RunStats,
}

impl EngineRun {
    fn per_run(&self, total: u64) -> f64 {
        total as f64 / self.stats.runs.max(1) as f64
    }

    fn compute_ms(&self) -> f64 {
        let ns: u64 = self.stats.timeline.iter().map(|s| s.compute_ns).sum();
        self.per_run(ns) / 1e6
    }

    fn barrier_ms(&self) -> f64 {
        let ns: u64 = self.stats.timeline.iter().map(|s| s.barrier_ns).sum();
        self.per_run(ns) / 1e6
    }
}

/// Execute the batch directly at p=2 and p=1 and sequentially; returns
/// the bulk-loaded store at the workload's `p` for the write probes.
fn engine(
    run: &mut Run,
    inp: &Inputs<'_>,
    pts: &[Point<2>],
    timeline: &mut Vec<RankStep>,
) -> (Machine, DynamicDistRangeTree<2>) {
    let seq = SeqRangeTree::build(pts).expect("building the sequential oracle");
    let (seq_times, expected) =
        reps(3, 200, 0.3, || span("rangetree.seq", || Expected::from_oracle(&seq, inp.batch)));
    drop(seq);

    let mut batch = QueryBatch::new(Sum);
    for q in inp.batch {
        match q.mode {
            QueryMode::Count => batch.count(q.rect),
            QueryMode::Aggregate => batch.aggregate(q.rect),
            QueryMode::Report => batch.report(q.rect),
        };
    }
    let mut kept = None;
    let mut measured = Vec::new();
    for p in [2, 1] {
        let machine = Machine::new(p).expect("machine size");
        let mut tree = DynamicDistRangeTree::new(CAPACITY);
        tree.insert_batch(&machine, pts).expect("bulk-loading the probe store");
        for _ in 0..2 {
            let _ = batch.try_execute_dynamic(&machine, &tree);
        }
        machine.take_stats();
        let (times, out) = reps(5, 100, 0.6, || {
            span("engine.execute", || batch.try_execute_dynamic(&machine, &tree))
        });
        let ok = out.is_ok_and(|o| {
            o.counts == expected.counts
                && o.aggregates == expected.aggregates
                && o.reports == expected.reports
        });
        run.check(ok);
        let stats = machine.take_stats();
        timeline.extend(stats.timeline.iter().copied());
        measured.push(EngineRun { batch_ms: times, stats });
        if p == inp.p {
            kept = Some((machine, tree));
        }
    }
    let (p2, p1) = (&measured[0], &measured[1]);
    let (ms2, ms1, seq_ms) = (median(&p2.batch_ms), median(&p1.batch_ms), median(&seq_times));
    run.layer("engine.batch_ms", ms2, "ms", p2.batch_ms.len());
    run.layer("engine.batch_ms_p1", ms1, "ms", p1.batch_ms.len());
    run.layer("engine.speedup_vs_p1", ms1 / ms2, "ratio", 1);
    run.layer("rangetree.seq_ms", seq_ms, "ms", seq_times.len());
    run.layer("engine.efficiency", seq_ms / (2.0 * ms2), "ratio", 1);
    run.layer("cgm.compute_ms", p2.compute_ms(), "ms", p2.stats.runs);
    run.layer("cgm.barrier_ms", p2.barrier_ms(), "ms", p2.stats.runs);
    run.layer("cgm.work_inflation", p2.compute_ms() / p1.compute_ms(), "ratio", 1);
    let steps = p2.per_run(p2.stats.supersteps() as u64);
    let words = p2.per_run(p2.stats.total_traffic());
    let max_h = p2.stats.max_h() as f64;
    run.layer("cgm.supersteps_per_run", steps, "count", p2.stats.runs);
    run.layer("cgm.words_per_run", words, "words", p2.stats.runs);
    run.layer("cgm.max_h", max_h, "words", p2.stats.runs);

    // Cost-model cross-check: measured against the paper's predictions
    // for this batch at p=2. Reported, not gated.
    let c = CostParams { p: 2, n: pts.len().next_power_of_two(), d: 2 };
    let m_search = expected.counts.len() + expected.aggregates.len();
    let search = predict_search(&c, m_search);
    let report = predict_report(&c, expected.reports.len(), expected.reported_ids() as u64);
    run.layer("model.supersteps_ratio", steps / search.supersteps as f64, "ratio", 1);
    run.layer("model.h_ratio", max_h / report.max_volume, "ratio", 1);
    run.notes.push(format!(
        "model p=2 n={} m={}: supersteps/run {steps} vs predict_search {} ({:.3}x) and \
         predict_report {} ({:.3}x); max_h {max_h} words vs predict_report max_volume {:.1} \
         records ({:.3}x); efficiency {:.4} vs T_seq/p ideal 1 (T_seq {seq_ms:.4} ms, \
         p*batch {:.4} ms)",
        c.n,
        inp.batch.len(),
        search.supersteps,
        steps / search.supersteps as f64,
        report.supersteps,
        steps / report.supersteps as f64,
        report.max_volume,
        max_h / report.max_volume,
        seq_ms / (2.0 * ms2),
        2.0 * ms2,
    ));
    kept.expect("the workload's processor count is 1 or 2")
}

/// Insert fresh points and delete existing ids directly on a shard-sized
/// store.
fn writes(
    run: &mut Run,
    p: usize,
    store: (Machine, DynamicDistRangeTree<2>),
    pts: &[Point<2>],
    seed: u64,
) {
    let (machine, mut tree) = store;
    let fresh = points(seed ^ 0x7072_6f62, PROBE_INSERT * WRITE_REPS, PROBE_FIRST_ID);
    let (mut ins, mut del) = (Vec::new(), Vec::new());
    for (rep, chunk) in fresh.chunks(PROBE_INSERT).enumerate() {
        let t0 = Instant::now();
        let ok = span("rangetree.insert", || tree.insert_batch(&machine, chunk)).is_ok();
        ins.push(t0.elapsed().as_secs_f64() * 1e3);
        run.check(ok);
        let ids: Vec<u32> =
            pts.iter().skip(rep * PROBE_DELETE).take(PROBE_DELETE).map(|q| q.id).collect();
        let t0 = Instant::now();
        let ok = span("rangetree.delete", || tree.delete_batch(&machine, &ids)).is_ok();
        del.push(t0.elapsed().as_secs_f64() * 1e3);
        run.check(ok);
    }
    let expect_len = pts.len() + (PROBE_INSERT - PROBE_DELETE) * WRITE_REPS;
    run.check(tree.len() == expect_len);
    let (ins_ms, del_ms) = (median(&ins), median(&del));
    run.layer("rangetree.insert_ms", ins_ms, "ms", ins.len());
    run.layer("rangetree.delete_ms", del_ms, "ms", del.len());
    run.layer("rangetree.insert_us_per_point", ins_ms * 1e3 / PROBE_INSERT as f64, "us", ins.len());
    run.layer("rangetree.delete_us_per_point", del_ms * 1e3 / PROBE_DELETE as f64, "us", del.len());
    run.notes.push(format!(
        "write probe p={p} on {} points: insert {PROBE_INSERT} = {ins_ms:.3} ms, delete \
         {PROBE_DELETE} = {del_ms:.3} ms; per point delete/insert = {:.1}x",
        pts.len(),
        (del_ms / PROBE_DELETE as f64) / (ins_ms / PROBE_INSERT as f64)
    ));
}

/// Encode and decode the workload's request and its response with the
/// wire codec's public functions.
fn codec(run: &mut Run, inp: &Inputs<'_>) {
    let writes = (0..inp.writes).map(|_| Ok(())).collect();
    let outcome = Ok(Commit { value: inp.answer.response(writes), seq: 1 });
    let (enc, (req_frame, resp_frame)) = reps(5, 20_000, 0.3, || {
        span("codec.encode", || {
            (encode_request(1, &inp.request), encode_response::<Sum>(1, &outcome))
        })
    });
    let (dec, decoded) = reps(5, 20_000, 0.3, || {
        span("codec.decode", || {
            let req = decode_request::<Sum, 2>(&req_frame[ddrs_net::codec::FRAME_HEADER..]);
            let resp = decode_server_msg::<Sum>(&resp_frame[ddrs_net::codec::FRAME_HEADER..]);
            (req.map(|(_, r)| r.len()), resp.is_ok())
        })
    });
    run.check(decoded == (Ok(inp.request.len()), true));
    run.layer("net.encode_us", median(&enc) * 1e3, "us", enc.len());
    run.layer("net.decode_us", median(&dec) * 1e3, "us", dec.len());
    let bytes = (req_frame.len() + resp_frame.len()) as f64;
    run.layer("net.bytes_per_op", bytes / inp.request.len() as f64, "B", 1);
}
