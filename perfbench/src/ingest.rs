//! `ingest-recover`: writes beside reads, then a crash and a heal. One
//! writer client (closed loop) sends inserts of 1024 fresh points plus a
//! full-domain count; every other request also deletes 512 of its
//! earlier ids. The store is S=2 × p=1 shards over 2^16 initial points,
//! each shard logging to a file. After a fixed number of requests the
//! upper-slab shard is crashed and healed from its log.
//!
//! A run is a sequence of identical rounds (fresh store, the same
//! requests, crash, heal) until `--seconds` has passed: the log that
//! recovery replays has the same length whatever the write speed, so
//! `recovery_s` compares like with like across commits.

use std::path::Path;
use std::time::Instant;

use ddrs_client::{RangeStore, Request};
use ddrs_rangetree::{Point, SeqRangeTree};
use ddrs_wal::{FileSink, LogSink};

use crate::common::{self, Expected, Service, EVERYTHING, SIDE};
use crate::probe::{self, Inputs};
use crate::report::{median, Run, Window};
use crate::workload::{layer_from_service, layer_loadgen, layer_net, Ctx, SETUPS};

const INITIAL: usize = 1 << 16;
const SHARDS: usize = 2;
const P: usize = 1;
const INSERT: usize = 1024;
const DELETE: usize = 512;
/// Write requests per round.
const REQUESTS: usize = 24;
/// Sampled reads checked before the crash and after the heal.
const CHECK_READS: usize = 128;
/// The crashed and healed shard (the upper slab of the first axis).
const CRASHED: usize = 1;
/// Crash-and-heal cycles per round; each replays the same log.
const HEALS: usize = 2;

/// splitmix64: the benchmark's choice of which earlier ids to delete.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What one round measured.
#[derive(Default)]
struct Round {
    setup_s: f64,
    lat_ms: Vec<f64>,
    /// Requests answered correctly.
    ok: usize,
    submit_us: Vec<f64>,
    write_s: f64,
    /// Inserted points plus deleted ids.
    moved: usize,
    wal_bytes: u64,
    logged: usize,
    recovery_s: Vec<f64>,
}

/// Check the full-domain count and a sample of reads against the oracle
/// of the live points.
fn verify(run: &mut Run, store: &Service, live: &[Point<2>], seed: u64) {
    run.check(common::verify_total(store, live.len()));
    let qs = common::reads(live, seed, 0.001, (1, 1, 1), CHECK_READS);
    let seq = SeqRangeTree::build(live).expect("building the sequential oracle");
    run.check(common::verify_reads(store, &qs, &Expected::from_oracle(&seq, &qs)));
}

fn round(
    run: &mut Run,
    ctx: &mut Ctx<'_>,
    dir: &Path,
    initial: &[Point<2>],
    fresh: &[Point<2>],
) -> (Round, Service) {
    let mut r = Round::default();
    let t0 = Instant::now();
    let service = crate::spans::span("setup", || {
        let sinks = (0..SHARDS)
            .map(|s| {
                let sink = FileSink::create(dir.join(format!("shard-{s}.wal")));
                Box::new(sink.expect("creating a shard log")) as Box<dyn LogSink>
            })
            .collect();
        common::start_service(SHARDS, P, initial, sinks)
    });
    r.setup_s = t0.elapsed().as_secs_f64();

    let mut rng = ctx.seed;
    let mut mine: Vec<u32> = Vec::new();
    let mut total = initial.len();
    let start = Instant::now();
    for (k, batch) in fresh.chunks(INSERT).enumerate() {
        let mut req = Request::new();
        req.insert(batch.to_vec());
        let mut writes = 1;
        if k % 2 == 1 {
            let ids: Vec<u32> = (0..DELETE)
                .map(|_| mine.swap_remove((next(&mut rng) % mine.len() as u64) as usize))
                .collect();
            req.delete(ids);
            total -= DELETE;
            r.moved += DELETE;
            writes += 1;
        }
        mine.extend(batch.iter().map(|p| p.id));
        total += batch.len();
        r.moved += batch.len();
        let h = req.count(EVERYTHING);
        let t0 = Instant::now();
        let t0_ns = ddrs_trace::now_ns();
        let ticket = service.submit(req);
        crate::spans::record("submit", 0, t0_ns);
        r.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let t1_ns = ddrs_trace::now_ns();
        let out = ticket.map(|t| t.wait());
        crate::spans::record("wait", 0, t1_ns);
        r.lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let ok = matches!(&out, Ok(Ok(c))
            if c.value.count(h) == total as u64
                && c.value.writes.len() == writes
                && c.value.writes.iter().all(Result::is_ok));
        run.check(ok);
        r.ok += usize::from(ok);
        if k == 0 {
            ctx.threads = crate::sys::threads();
        }
    }
    r.write_s = start.elapsed().as_secs_f64();
    r.wal_bytes = (0..SHARDS)
        .map(|s| std::fs::metadata(dir.join(format!("shard-{s}.wal"))).map_or(0, |m| m.len()))
        .sum();
    r.logged = initial.len() + r.moved;

    let kept: std::collections::HashSet<u32> = mine.iter().copied().collect();
    let live: Vec<Point<2>> =
        initial.iter().chain(fresh.iter().filter(|p| kept.contains(&p.id))).copied().collect();
    verify(run, &service, &live, ctx.seed ^ 0xbef0);
    for h in 0..HEALS {
        let poison = Point::weighted([SIDE - 1, SIDE - 1], u32::MAX - 1 - h as u32, 1);
        let healed = common::crash_and_heal(&service, CRASHED, poison);
        run.check(healed.is_some());
        r.recovery_s.extend(healed);
        verify(run, &service, &live, ctx.seed ^ 0xaf7e ^ h as u64);
    }
    (r, service)
}

pub fn run(ctx: &mut Ctx<'_>) -> Run {
    let mut run = Run::default();
    let initial = common::points(ctx.seed, INITIAL, 0);
    let fresh = common::points(ctx.seed ^ 0xf4e5, REQUESTS * INSERT, INITIAL as u32);
    let dir = ctx.out.join(format!("wal-{}", std::process::id()));
    let rss0 = crate::sys::rss_mb();

    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    while rounds.len() < SETUPS || start.elapsed().as_secs_f64() < ctx.seconds {
        std::fs::create_dir_all(&dir).expect("creating the log directory");
        let (r, service) = round(&mut run, ctx, &dir, &initial, &fresh);
        if rounds.is_empty() {
            ctx.store_mb = crate::sys::rss_mb() - rss0;
        }
        rounds.push(r);
        let last = start.elapsed().as_secs_f64() >= ctx.seconds && rounds.len() >= SETUPS;
        if last && ctx.traced {
            let stats = service.stats();
            let log =
                std::fs::read(dir.join(format!("shard-{CRASHED}.wal"))).expect("reading the log");
            drop(service);
            let submit_us: Vec<f64> = rounds.iter().flat_map(|r| r.submit_us.clone()).collect();
            layer_from_service(&mut run, &stats, &submit_us);
            layer_net(&mut run, None);
            layer_loadgen(&mut run, 0.0);
            let qs = common::reads(&initial, ctx.seed ^ 0x9b0b, 0.001, (1, 1, 1), CHECK_READS);
            let mut req = Request::new();
            req.insert(fresh[..INSERT].to_vec());
            req.delete(initial[..DELETE].iter().map(|p| p.id).collect());
            req.count(EVERYTHING);
            let answer = Expected { counts: vec![INITIAL as u64], ..Default::default() };
            let inputs = Inputs { p: P, log, batch: &qs, request: req, answer, writes: 2 };
            probe::all(&mut run, ctx, inputs);
        } else {
            drop(service);
        }
        std::fs::remove_dir_all(&dir).expect("removing the log directory");
    }

    // Each round is one window: rates and latency quantiles are medians
    // across rounds.
    let windows: Vec<Window> = rounds
        .iter()
        .map(|r| Window {
            secs: r.write_s,
            lat_ms: r.lat_ms.clone(),
            requests: r.ok as f64,
            queries: r.ok as f64,
            points: r.moved as f64,
        })
        .collect();
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let heals: Vec<f64> = rounds.iter().flat_map(|r| r.recovery_s.clone()).collect();
    let last = rounds.last().expect("at least one round");
    run.e2e("setup_s", median(&setups), "s", setups.len());
    run.window_rates(&windows);
    run.window_latencies(&windows);
    run.e2e("recovery_s", median(&heals), "s", heals.len());
    run.e2e("wal_bytes_per_point", last.wal_bytes as f64 / last.logged as f64, "B", 1);
    let show = |v: &[f64]| v.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ");
    run.notes.push(format!(
        "{} rounds of {REQUESTS} write requests; the crashed shard's log holds the initial \
         load plus one record per request; recovery_s by round: {}; setup_s by round: {}",
        rounds.len(),
        show(&heals),
        show(&setups)
    ));
    run
}
