//! Criterion benches for the serving layer.
//!
//! The contrast that justifies the service's existence: `8` concurrent
//! clients issuing small independent queries through
//!
//! * `service/coalesced` — the serving front-end, which group-commits
//!   the concurrent queries into few fused `Machine::run`s, vs
//! * `service/one_run_per_query` — the naive shape, where every client
//!   query pays its own full machine submission (the pre-service cost).
//!
//! The acceptance bar (ISSUE 3 / experiment `e2`) is ≥ 3× throughput for
//! the coalesced path at 8 clients with mean batch size > 1; the repro
//! binary's `e2` experiment measures the same contrast open-loop and
//! writes `BENCH_service.json`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use ddrs_bench::uniform_points;
use ddrs_cgm::Machine;
use ddrs_client::RangeStore;
use ddrs_rangetree::{DynamicDistRangeTree, Point, Rect, Sum};
use ddrs_shard::{PartitionPolicy, ShardedConfig, ShardedService};
use ddrs_workloads::{QueryDistribution, QueryWorkload};

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 64;

fn client_queries(pts: &[Point<2>]) -> Vec<Vec<Rect<2>>> {
    let qw = QueryWorkload::from_points(pts, 77);
    let all =
        qw.queries(QueryDistribution::Selectivity { fraction: 0.01 }, CLIENTS * QUERIES_PER_CLIENT);
    all.chunks(QUERIES_PER_CLIENT).map(<[Rect<2>]>::to_vec).collect()
}

fn bench_service_vs_naive(c: &mut Criterion) {
    let p = 8;

    // The coalescing side: one long-lived one-shard service, clients
    // submit waves.
    let pts: Vec<Point<2>> = uniform_points(51, 1 << 12);
    let per_client = client_queries(&pts);
    let cfg = ShardedConfig {
        max_batch: 128,
        max_delay: Duration::from_micros(200),
        ..ShardedConfig::default()
    };
    let machines = vec![Machine::new(p).unwrap()];
    let service =
        ShardedService::start(machines, 1 << 9, &pts, Sum, PartitionPolicy::Hash, cfg).unwrap();

    // The naive side: same store, every query its own machine run.
    let naive_machine = Machine::new(p).unwrap();
    let mut naive_tree = DynamicDistRangeTree::<2>::new(1 << 9);
    naive_tree.insert_batch(&naive_machine, &pts).unwrap();

    let mut g = c.benchmark_group("service");
    g.sample_size(10);
    g.bench_function("coalesced", |b| {
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
    g.bench_function("one_run_per_query", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                for queries in &per_client {
                    let machine = &naive_machine;
                    let tree = &naive_tree;
                    s.spawn(move || {
                        queries.iter().map(|q| tree.count_batch(machine, &[*q])[0]).sum::<u64>()
                    });
                }
            });
        });
    });
    g.finish();

    let stats = service.stats();
    assert!(
        stats.mean_batch_size() > 1.0,
        "coalescing must be visible: mean batch size {}",
        stats.mean_batch_size()
    );
    println!(
        "service coalescing: mean batch size {:.1}, {:.1} queries/run, p50 {}µs p99 {}µs",
        stats.mean_batch_size(),
        stats.coalescing_factor(),
        stats.p50_latency_us(),
        stats.p99_latency_us(),
    );
}

criterion_group!(benches, bench_service_vs_naive);
criterion_main!(benches);
