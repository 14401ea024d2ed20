//! The network front-end end to end: a served store behind a TCP
//! socket, and remote clients that cannot tell the difference.
//!
//! A one-shard `ShardedService` fronting a dynamic distributed range
//! tree is wrapped in a `NetServer` on an ephemeral loopback port. Four
//! client threads each connect a pooled, pipelining `RemoteStore` and
//! fire composed multi-op requests — writes plus fused reads in one
//! unit — over the wire. The example ends with the two stats surfaces
//! side by side:
//! the service's coalescing leverage (unchanged by the network hop)
//! and the server's connection/frame accounting, published through the
//! unified metrics registry.
//!
//! ```sh
//! cargo run --release --example network
//! ```

use std::time::Duration;

use ddrs::prelude::*;
use ddrs::trace::MetricsRegistry;

fn main() {
    let p = 8;

    // Seed the store, keeping fresh ids aside for remote writes.
    let all: Vec<Point<2>> =
        WorkloadBuilder::new(3, 5120).points(PointDistribution::UniformCube { side: 1 << 16 });
    let (seed_pts, fresh) = all.split_at(4096);

    // The served store (one shard), behind an Arc so we keep a stats
    // handle to the exact instance on the far side of the socket.
    let service = ShardedService::start(
        vec![Machine::new(p).unwrap()],
        1 << 8,
        seed_pts,
        Sum,
        PartitionPolicy::Hash,
        ShardedConfig {
            max_batch: 96,
            max_delay: Duration::from_micros(250),
            ..ShardedConfig::default()
        },
    )
    .unwrap();
    let service = std::sync::Arc::new(service);
    let server = NetServer::serve(
        Box::new(std::sync::Arc::clone(&service)),
        "127.0.0.1:0",
        NetConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();
    println!("serving on {addr}\n");

    // Four remote clients, each with its own two-connection pool,
    // submitting composed requests: one insert batch plus three reads.
    let qw = QueryWorkload::from_points(seed_pts, 11);
    let queries =
        qw.queries(ddrs::workloads::QueryDistribution::Selectivity { fraction: 0.01 }, 64);
    std::thread::scope(|s| {
        for (client_id, chunk) in fresh.chunks(fresh.len() / 4).take(4).enumerate() {
            let queries = &queries;
            s.spawn(move || {
                let store: RemoteStore<Sum, 2> =
                    RemoteStore::connect(addr, RemoteConfig::default()).unwrap();
                let mut inserted = 0usize;
                let mut answered = 0usize;
                for (i, batch) in chunk.chunks(16).enumerate() {
                    let mut req = Request::new();
                    let w = req.insert(batch.to_vec());
                    let q = queries[(client_id * 16 + i) % queries.len()];
                    let c = req.count(q);
                    let a = req.aggregate(q);
                    let r = req.report(q);
                    let commit = store.submit(req).unwrap().wait().unwrap();
                    assert_eq!(commit.value.write(w), &Ok(()));
                    assert_eq!(commit.value.report(r).len() as u64, commit.value.count(c));
                    let _ = commit.value.aggregate(a);
                    inserted += batch.len();
                    answered += 3;
                }
                println!(
                    "client {client_id}: inserted {inserted} points, \
                     {answered} reads answered over the wire"
                );
            });
        }
    });

    // Both stats surfaces, through the one registry.
    let registry = MetricsRegistry::new();
    service.stats().register_into(&registry, "service");
    server.register_into(&registry, "net");
    println!("\n{}", registry.render());

    server.shutdown();
    std::sync::Arc::try_unwrap(service).unwrap_or_else(|_| panic!("sole owner")).shutdown();
}
