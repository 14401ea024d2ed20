//! Criterion benches for the unified client API.
//!
//! The contrast that justifies multi-op requests (ISSUE 5 / experiment
//! `e4`): 8 concurrent clients each needing a block of 64 query answers
//! from the same service, through
//!
//! * `client/multi_op` — ONE composed `Request` per block: one
//!   submission, one ticket, reads guaranteed to fuse into one dispatch
//!   per window;
//! * `client/individual_pipelined` — 64 separate submissions per block,
//!   tickets all waited at the end (the request-less best case: the
//!   coalescer can still merge across ops, but every op pays its own
//!   queue transaction and ticket);
//! * `client/individual_sequential` — 64 separate submissions, each
//!   waited before the next (the dependent-flow shape the old per-op
//!   API forced): every op pays a full dispatch round trip.
//!
//! The acceptance bar is ≥ 2× throughput for `multi_op` over the
//! sequential individual shape at 8 clients; the repro binary's `e4`
//! measures the same contrast and writes `BENCH_client.json`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use ddrs_bench::uniform_points;
use ddrs_cgm::Machine;
use ddrs_client::{RangeStore, Request};
use ddrs_rangetree::{Point, Rect, Sum};
use ddrs_shard::{PartitionPolicy, ShardedConfig, ShardedService};
use ddrs_workloads::{QueryDistribution, QueryWorkload};

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 64;

fn start_service() -> (ShardedService<Sum, 2>, Vec<Vec<Rect<2>>>) {
    let pts: Vec<Point<2>> = uniform_points(51, 1 << 12);
    let cfg = ShardedConfig {
        max_batch: 512,
        max_delay: Duration::from_micros(200),
        ..ShardedConfig::default()
    };
    let machines = vec![Machine::new(8).unwrap()];
    let service =
        ShardedService::start(machines, 1 << 9, &pts, Sum, PartitionPolicy::Hash, cfg).unwrap();
    let qw = QueryWorkload::from_points(&pts, 77);
    let all =
        qw.queries(QueryDistribution::Selectivity { fraction: 0.01 }, CLIENTS * QUERIES_PER_CLIENT);
    let per_client = all.chunks(QUERIES_PER_CLIENT).map(<[Rect<2>]>::to_vec).collect();
    (service, per_client)
}

fn bench_multi_op_vs_individual(c: &mut Criterion) {
    let (service, per_client) = start_service();

    let mut g = c.benchmark_group("client");
    g.sample_size(10);
    g.bench_function("multi_op", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                for queries in &per_client {
                    let service = &service;
                    s.spawn(move || {
                        let mut req = Request::new();
                        let handles: Vec<_> = queries.iter().map(|q| req.count(*q)).collect();
                        let resp = service.submit(req).unwrap().wait().unwrap().value;
                        handles.into_iter().map(|h| resp.count(h)).sum::<u64>()
                    });
                }
            });
        });
    });
    g.bench_function("individual_pipelined", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                for queries in &per_client {
                    let service = &service;
                    s.spawn(move || {
                        let tickets: Vec<_> =
                            queries.iter().map(|q| service.count(*q).unwrap()).collect();
                        tickets.into_iter().map(|t| t.wait().unwrap().value).sum::<u64>()
                    });
                }
            });
        });
    });
    g.bench_function("individual_sequential", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                for queries in &per_client {
                    let service = &service;
                    s.spawn(move || {
                        queries
                            .iter()
                            .map(|q| service.count(*q).unwrap().wait().unwrap().value)
                            .sum::<u64>()
                    });
                }
            });
        });
    });
    g.finish();

    let stats = service.stats();
    println!(
        "client api: mean batch {:.1}, {:.1} queries/run, p50 {}µs p99 {}µs",
        stats.mean_batch_size(),
        stats.coalescing_factor(),
        stats.p50_latency_us(),
        stats.p99_latency_us(),
    );
}

criterion_group!(benches, bench_multi_op_vs_individual);
criterion_main!(benches);
