//! `serve-remote`: online single reads over TCP, open loop. One
//! generator thread sends Poisson arrivals at a fixed rate through a
//! two-connection `RemoteStore` to a loopback `NetServer` in front of
//! S=2 × p=1 shards over 2^14 points (a store that fits in cache).
//! Latency runs from each request's scheduled send time.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ddrs_client::{Outcome, RangeStore, SubmitError, Ticket};
use ddrs_net::{NetConfig, NetServer, RemoteConfig, RemoteStore};
use ddrs_rangetree::{Point, SeqRangeTree, Sum};
use ddrs_wal::LogSink;
use ddrs_workloads::{ArrivalProcess, ArrivalTrace, MixedQuery, QueryMode};

use crate::common::{self, Expected, Service, TapSink, SIDE};
use crate::probe::{self, Inputs};
use crate::report::{median, quantile, Run, Window};
use crate::workload::{layer_from_service, layer_loadgen, layer_net, Ctx, SETUPS, WINDOW_S};

const POINTS: usize = 1 << 14;
const SHARDS: usize = 2;
const P: usize = 1;
const RATE_HZ: f64 = 6000.0;
const SELECTIVITY: f64 = 0.0005;
const WEIGHTS: (u32, u32, u32) = (2, 1, 1);
const CONNECTIONS: usize = 2;
/// Arrivals sent before the measured ones, to warm the path.
const WARMUP_S: f64 = 0.5;
/// How long to wait for stragglers after the last send.
const DRAIN: Duration = Duration::from_secs(30);
/// Crash-and-heal cycles after the loop; `recovery_s` is their median.
const HEALS: usize = 15;
/// Reads in the post-heal check and the probe batch.
const CHECK_READS: usize = 128;

const PENDING: u8 = 0;
const OK: u8 = 1;
const WRONG: u8 = 2;
const FAILED: u8 = 3;

/// The expected answer of one single-op read.
enum Answer {
    Count(u64),
    Aggregate(Option<u64>),
    Report(Vec<u32>),
}

/// Completion records the resolve callbacks fill in.
struct Board {
    origin: Instant,
    /// Completion time in ns since `origin`, plus one (0 = pending).
    done_ns: Vec<AtomicU64>,
    status: Vec<AtomicU8>,
}

impl Board {
    fn finish(&self, i: usize, status: u8) {
        let ns = self.origin.elapsed().as_nanos() as u64 + 1;
        self.done_ns[i].store(ns, Ordering::SeqCst);
        self.status[i].store(status, Ordering::SeqCst);
    }
}

/// Submit read `i` and have its resolution checked against `answer`.
fn send(
    store: &RemoteStore<Sum, 2>,
    q: &MixedQuery<2>,
    i: usize,
    answers: &Arc<Vec<Answer>>,
    board: &Arc<Board>,
) -> Result<(), SubmitError> {
    fn watch<T: Send + 'static>(
        t: Ticket<T>,
        i: usize,
        answers: &Arc<Vec<Answer>>,
        board: &Arc<Board>,
        ok: fn(&T, &Answer) -> bool,
    ) {
        let (answers, board) = (Arc::clone(answers), Arc::clone(board));
        t.on_resolve(move |out: Outcome<T>| {
            let status = match out {
                Ok(c) if ok(&c.value, &answers[i]) => OK,
                Ok(_) => WRONG,
                Err(_) => FAILED,
            };
            board.finish(i, status);
        });
    }
    match q.mode {
        QueryMode::Count => watch(
            store.count(q.rect)?,
            i,
            answers,
            board,
            |v, a| matches!(a, Answer::Count(e) if e == v),
        ),
        QueryMode::Aggregate => watch(
            store.aggregate(q.rect)?,
            i,
            answers,
            board,
            |v, a| matches!(a, Answer::Aggregate(e) if e == v),
        ),
        QueryMode::Report => watch(
            store.report(q.rect)?,
            i,
            answers,
            board,
            |v, a| matches!(a, Answer::Report(e) if e == v),
        ),
    }
    Ok(())
}

struct Stack {
    service: Arc<Service>,
    server: NetServer<Sum, 2>,
    remote: RemoteStore<Sum, 2>,
    taps: Vec<TapSink>,
}

fn start(pts: &[Point<2>]) -> Stack {
    let taps: Vec<TapSink> = (0..SHARDS).map(|_| TapSink::default()).collect();
    let sinks = taps.iter().map(|t| Box::new(t.clone()) as Box<dyn LogSink>).collect();
    let service = Arc::new(common::start_service(SHARDS, P, pts, sinks));
    let server =
        NetServer::serve(Box::new(Arc::clone(&service)), "127.0.0.1:0", NetConfig::default())
            .expect("binding the loopback server");
    let remote =
        RemoteStore::connect(server.local_addr(), RemoteConfig { connections: CONNECTIONS })
            .expect("connecting to the loopback server");
    Stack { service, server, remote, taps }
}

fn stop(stack: Stack) {
    drop(stack.remote);
    stack.server.shutdown();
    drop(stack.service);
}

pub fn run(ctx: &mut Ctx<'_>) -> Run {
    let mut run = Run::default();
    ctx.connections = CONNECTIONS;
    let pts = common::points(ctx.seed, POINTS, 0);
    let warm = (RATE_HZ * WARMUP_S) as usize;
    let n = warm + (RATE_HZ * ctx.seconds) as usize;
    let arrivals =
        ArrivalTrace::generate(ctx.seed, ArrivalProcess::Poisson { rate_hz: RATE_HZ }, n);
    let qs = common::reads(&pts, ctx.seed ^ 0x5e27e, SELECTIVITY, WEIGHTS, n);
    let seq = SeqRangeTree::build(&pts).expect("building the sequential oracle");
    let answers: Arc<Vec<Answer>> = Arc::new(
        qs.iter()
            .map(|q| match q.mode {
                QueryMode::Count => Answer::Count(seq.count(&q.rect)),
                QueryMode::Aggregate => Answer::Aggregate(seq.aggregate(&Sum, &q.rect)),
                QueryMode::Report => Answer::Report(seq.report(&q.rect)),
            })
            .collect(),
    );
    let check = &qs[warm..warm + CHECK_READS];
    let check_answer = Expected::from_oracle(&seq, check);

    let rss0 = crate::sys::rss_mb();
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(stack) = kept.take() {
            stop(stack);
        }
        let t0 = Instant::now();
        let stack = crate::spans::span("setup", || start(&pts));
        setups.push(t0.elapsed().as_secs_f64());
        kept = Some(stack);
    }
    let stack = kept.expect("at least one setup");
    ctx.store_mb = crate::sys::rss_mb() - rss0;

    let board = Arc::new(Board {
        origin: Instant::now() + Duration::from_millis(20),
        done_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
        status: (0..n).map(|_| AtomicU8::new(PENDING)).collect(),
    });
    let mut late_ms = Vec::with_capacity(n);
    let mut submit_us = Vec::with_capacity(n);
    for (i, q) in qs.iter().enumerate() {
        let due = board.origin + arrivals.at[i];
        while Instant::now() < due {
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        let t0_ns = ddrs_trace::now_ns();
        if send(&stack.remote, q, i, &answers, &board).is_err() {
            board.finish(i, FAILED);
        }
        crate::spans::record("submit", 0, t0_ns);
        submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if i >= warm {
            late_ms.push(t0.saturating_duration_since(due).as_secs_f64() * 1e3);
        }
        if i == n / 2 {
            ctx.threads = crate::sys::threads();
        }
    }
    let deadline = Instant::now() + DRAIN;
    while Instant::now() < deadline
        && board.status.iter().any(|s| s.load(Ordering::SeqCst) == PENDING)
    {
        std::thread::sleep(Duration::from_millis(2));
    }

    // Latencies fall into one-second windows by scheduled send time.
    let mut windows = vec![Window { secs: WINDOW_S, ..Default::default() }; ctx.windows()];
    let last_w = windows.len() - 1;
    let (mut ok, mut ids, mut last_ns) = (0usize, 0usize, 0u64);
    for i in warm..n {
        let status = board.status[i].load(Ordering::SeqCst);
        run.check(status == OK);
        if status == PENDING {
            continue;
        }
        let done = board.done_ns[i].load(Ordering::SeqCst) - 1;
        last_ns = last_ns.max(done);
        let since = (arrivals.at[i] - arrivals.at[warm]).as_secs_f64();
        let w = ((since / WINDOW_S) as usize).min(last_w);
        let lat_ms = (done as f64 - arrivals.at[i].as_nanos() as f64) / 1e6;
        windows[w].lat_ms.push(lat_ms);
        if status == OK {
            ok += 1;
            if let Answer::Report(r) = &answers[i] {
                ids += r.len();
            }
        }
    }
    let span_s = (last_ns as f64 - arrivals.at[warm].as_nanos() as f64) / 1e9;
    let stats = stack.service.stats();
    let net = stack.server.stats();

    // Crash and heal the upper-slab shard, then check end to end.
    let mut heals = Vec::new();
    for h in 0..HEALS {
        let poison = Point::weighted([SIDE - 1, SIDE - 1], POINTS as u32 + h as u32, 1);
        let healed = common::crash_and_heal(&stack.service, 1, poison);
        run.check(healed.is_some());
        heals.extend(healed);
        run.check(common::verify_total(&stack.remote, POINTS));
        run.check(common::verify_reads(&stack.remote, check, &check_answer));
    }

    run.e2e("setup_s", median(&setups), "s", setups.len());
    run.e2e("queries_per_s", ok as f64 / span_s, "1/s", n - warm);
    run.e2e("achieved_rps", ok as f64 / span_s, "1/s", n - warm);
    run.e2e("points_per_s", ids as f64 / span_s, "1/s", n - warm);
    run.window_latencies(&windows);
    let per_s: Vec<String> = windows
        .iter()
        .map(|w| {
            let mut v = w.lat_ms.clone();
            v.sort_by(f64::total_cmp);
            format!("{:.2}/{:.2}", quantile(&v, 0.5), quantile(&v, 0.99))
        })
        .collect();
    run.notes.push(format!("p50/p99 ms by window: {}", per_s.join(" ")));
    run.e2e("recovery_s", median(&heals), "s", heals.len());
    let wal_bytes: usize = stack.taps.iter().map(|t| t.bytes().len()).sum();
    run.e2e("wal_bytes_per_point", wal_bytes as f64 / POINTS as f64, "B", 1);
    late_ms.sort_by(f64::total_cmp);
    let late_p99_ms = quantile(&late_ms, 0.99);
    run.notes.push(format!(
        "offered {RATE_HZ} req/s for {} s ({} measured arrivals after {} warm-up); the \
         generator sent {late_p99_ms:.4} ms late at p99",
        ctx.seconds,
        n - warm,
        warm
    ));

    if ctx.traced {
        layer_from_service(&mut run, &stats, &submit_us);
        let trace = ddrs_trace::Trace::capture();
        let transport = crate::spans::stage_durations_us(&trace, ddrs_trace::Stage::Transport);
        layer_net(&mut run, Some((net, &transport)));
        layer_loadgen(&mut run, late_p99_ms);
        let one = &qs[warm..warm + 1];
        let answer = Expected::from_oracle(&seq, one);
        let request = common::read_request(one);
        let inputs =
            Inputs { p: P, log: stack.taps[0].bytes(), batch: check, request, answer, writes: 0 };
        probe::all(&mut run, ctx, inputs);
    }
    stop(stack);
    run
}
