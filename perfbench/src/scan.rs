//! `scan-batch`: analytic reads. One client thread sends one 128-read
//! request at a time (closed loop) to S=1 × p=2 shards holding 2^17
//! points, so nearly all of the time is the fused kernel and its
//! collectives.

use std::time::Instant;

use ddrs_client::RangeStore;
use ddrs_rangetree::{Point, SeqRangeTree};
use ddrs_wal::LogSink;

use crate::common::{self, Expected, TapSink};
use crate::probe::{self, Inputs};
use crate::report::{median, Run, Window};
use crate::workload::{layer_from_service, layer_loadgen, layer_net, Ctx, SETUPS, WINDOW_S};

const POINTS: usize = 1 << 17;
const P: usize = 2;
const READS: usize = 128;
const SELECTIVITY: f64 = 0.001;
/// Distinct request bodies the loop cycles through.
const BATCHES: usize = 16;
const WARMUP: usize = 4;
/// Crash-and-heal cycles after the loop; `recovery_s` is their median.
const HEALS: usize = 9;

pub fn run(ctx: &mut Ctx<'_>) -> Run {
    let mut run = Run::default();
    let pts = common::points(ctx.seed, POINTS, 0);
    let batches: Vec<_> = (0..BATCHES as u64)
        .map(|b| common::reads(&pts, ctx.seed ^ (b + 1) << 20, SELECTIVITY, (1, 1, 1), READS))
        .collect();
    let seq = SeqRangeTree::build(&pts).expect("building the sequential oracle");
    let expected: Vec<Expected> =
        batches.iter().map(|qs| Expected::from_oracle(&seq, qs)).collect();
    drop(seq);

    let rss0 = crate::sys::rss_mb();
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let tap = TapSink::default();
        let t0 = Instant::now();
        let service = crate::spans::span("setup", || {
            common::start_service(1, P, &pts, vec![Box::new(tap.clone()) as Box<dyn LogSink>])
        });
        setups.push(t0.elapsed().as_secs_f64());
        kept = Some((service, tap));
    }
    let (service, tap) = kept.expect("at least one setup");
    ctx.store_mb = crate::sys::rss_mb() - rss0;

    for i in 0..WARMUP {
        let ok = common::verify_reads(&service, &batches[i % BATCHES], &expected[i % BATCHES]);
        run.check(ok);
    }

    // One window per whole second of the loop; a batch counts in the
    // window it completes in, and a window's rate is over the loop time
    // of its own batches.
    let mut windows = vec![Window::default(); ctx.windows()];
    let mut submit_us = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let it0 = Instant::now();
        let b = i % BATCHES;
        let req = common::read_request(&batches[b]);
        let t0 = Instant::now();
        let t0_ns = ddrs_trace::now_ns();
        let ticket = service.submit(req);
        crate::spans::record("submit", 0, t0_ns);
        submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let t1_ns = ddrs_trace::now_ns();
        let out = ticket.map(|t| t.wait());
        crate::spans::record("wait", 0, t1_ns);
        let lat_ms = t0.elapsed().as_secs_f64() * 1e3;
        let ok = matches!(&out, Ok(Ok(c)) if expected[b].matches(&c.value));
        run.check(ok);
        if let Some(w) = windows.get_mut((start.elapsed().as_secs_f64() / WINDOW_S) as usize) {
            w.secs += it0.elapsed().as_secs_f64();
            w.lat_ms.push(lat_ms);
            if ok {
                w.requests += 1.0;
                w.queries += READS as f64;
                w.points += expected[b].reported_ids() as f64;
            }
        }
        if i == 0 {
            ctx.threads = crate::sys::threads();
        }
        i += 1;
    }
    let stats = service.stats();

    // Crash and heal the one shard, then check the answers again.
    let mut heals = Vec::new();
    for h in 0..HEALS {
        let poison = Point::weighted([0, 0], POINTS as u32 + h as u32, 1);
        let healed = common::crash_and_heal(&service, 0, poison);
        run.check(healed.is_some());
        heals.extend(healed);
        run.check(common::verify_total(&service, POINTS));
        run.check(common::verify_reads(&service, &batches[h], &expected[h]));
    }

    run.e2e("setup_s", median(&setups), "s", setups.len());
    run.window_rates(&windows);
    run.window_latencies(&windows);
    run.e2e("recovery_s", median(&heals), "s", heals.len());
    run.e2e("wal_bytes_per_point", tap.bytes().len() as f64 / POINTS as f64, "B", 1);

    if ctx.traced {
        layer_from_service(&mut run, &stats, &submit_us);
        layer_net(&mut run, None);
        layer_loadgen(&mut run, 0.0);
        let request = common::read_request(&batches[0]);
        let answer = expected[0].clone();
        let inputs =
            Inputs { p: P, log: tap.bytes(), batch: &batches[0], request, answer, writes: 0 };
        probe::all(&mut run, ctx, inputs);
    }
    drop(service);
    run
}
