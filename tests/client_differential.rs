//! The generic differential test of the unified client API: ONE driver,
//! written entirely against `Box<dyn RangeStore>`, proves
//!
//! ```text
//!   InlineStore ≡ ShardedService (S = 1 and S > 1) ≡ RemoteStore ≡ sequential oracle
//! ```
//!
//! on the same mixed request stream — same values, same write verdicts,
//! same **absolute** commit sequence numbers — including composed
//! multi-op `Request`s (writes + fused reads in one unit), which the
//! per-backend predecessor (`shard_vs_single`) could not express. The
//! driver never names a concrete backend type: the trait object IS the
//! test surface. The remote backends run the same driver **over a real
//! TCP loopback connection** — encode, frame, decode, submit, resolve,
//! encode, frame, decode — and must be bit-identical to the in-process
//! stores, absolute seqs included.

use std::collections::HashSet;
use std::time::Duration;

use proptest::prelude::*;

use ddrs::client::{Request, Ticket};
use ddrs::net::{NetConfig, NetServer, RemoteConfig, RemoteStore};
use ddrs::prelude::*;
use ddrs::rangetree::BuildError;

type RawPoint = (i64, i64, u64);
type RawRect = ((i64, i64), (i64, i64));

fn to_point(raw: RawPoint, id: u32) -> Point<2> {
    let (x, y, w) = raw;
    Point::weighted([x, y], id, 1 + w % 9)
}

fn to_rect(raw: RawRect) -> Rect<2> {
    let ((x0, y0), (x1, y1)) = raw;
    Rect::new([x0.min(x1), y0.min(y1)], [x0.max(x1), y0.max(y1)])
}

/// The flat sequential oracle, tracking the same serial commit counter
/// the backends expose, so seqs are compared absolutely.
struct Oracle {
    pts: Vec<Point<2>>,
    ids: HashSet<u32>,
    next_seq: u64,
}

impl Oracle {
    fn new(initial: &[Point<2>]) -> Self {
        Oracle { pts: initial.to_vec(), ids: initial.iter().map(|p| p.id).collect(), next_seq: 0 }
    }

    fn count(&self, q: &Rect<2>) -> u64 {
        self.pts.iter().filter(|p| q.contains(p)).count() as u64
    }

    fn aggregate(&self, q: &Rect<2>) -> Option<u64> {
        self.pts.iter().filter(|p| q.contains(p)).map(|p| p.weight).reduce(|a, b| a + b)
    }

    fn report(&self, q: &Rect<2>) -> Vec<u32> {
        let mut ids: Vec<u32> = self.pts.iter().filter(|p| q.contains(p)).map(|p| p.id).collect();
        ids.sort_unstable();
        ids
    }

    fn insert(&mut self, batch: &[Point<2>]) -> Result<u64, BuildError> {
        let mut seen = HashSet::new();
        for p in batch {
            if self.ids.contains(&p.id) || !seen.insert(p.id) {
                return Err(BuildError::DuplicateId(p.id));
            }
        }
        self.ids.extend(seen);
        self.pts.extend_from_slice(batch);
        let seq = self.next_seq;
        self.next_seq += 1;
        Ok(seq)
    }

    fn delete(&mut self, ids: &[u32]) -> u64 {
        let dead: HashSet<u32> = ids.iter().copied().collect();
        self.pts.retain(|p| !dead.contains(&p.id));
        self.ids.retain(|id| !dead.contains(id));
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    fn read_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }
}

/// A served store plus the client that reaches it over loopback; keeps
/// the server alive for the store's lifetime. Declared client-first so
/// the pool closes before the server drains.
struct RemoteBackend {
    client: RemoteStore<Sum, 2>,
    _server: NetServer<Sum, 2>,
}

impl RangeStore<Sum, 2> for RemoteBackend {
    fn submit(&self, req: Request<Sum, 2>) -> Result<Ticket<Response<Sum>>, SubmitError> {
        self.client.submit(req)
    }
}

/// Serve `store` on an ephemeral loopback port and connect a client.
fn remote(store: Box<dyn RangeStore<Sum, 2> + Send + Sync>) -> RemoteBackend {
    let server = NetServer::serve(store, "127.0.0.1:0", NetConfig::default()).unwrap();
    let client = RemoteStore::connect(server.local_addr(), RemoteConfig::default()).unwrap();
    RemoteBackend { client, _server: server }
}

/// Every backend, behind the one trait the test drives.
fn backends(
    p: usize,
    s: usize,
    initial: &[Point<2>],
) -> Vec<(&'static str, Box<dyn RangeStore<Sum, 2>>)> {
    let machine = Machine::new(p).unwrap();
    let mut tree = DynamicDistRangeTree::<2>::new(8);
    if !initial.is_empty() {
        tree.insert_batch(&machine, initial).unwrap();
    }
    let inline = InlineStore::new(machine, tree, Sum);

    // Every served backend is a `ShardedService`; "service" is a single
    // store, served as one shard.
    let start = |shards: usize, policy: PartitionPolicy| {
        let machines: Vec<Machine> = (0..shards).map(|_| Machine::new(p).unwrap()).collect();
        let cfg = ShardedConfig {
            max_batch: 16,
            max_delay: Duration::from_micros(100),
            ..Default::default()
        };
        ShardedService::start(machines, 8, initial, Sum, policy, cfg).unwrap()
    };
    let service = start(1, PartitionPolicy::Hash);
    let sharded_range = start(s, PartitionPolicy::range_from_sample(s, initial));
    let sharded_hash = start(s, PartitionPolicy::Hash);
    let remote_service = remote(Box::new(start(1, PartitionPolicy::Hash)));
    let remote_sharded = remote(Box::new(start(s, PartitionPolicy::Hash)));

    vec![
        ("inline", Box::new(inline)),
        ("service", Box::new(service)),
        ("sharded-range", Box::new(sharded_range)),
        ("sharded-hash", Box::new(sharded_hash)),
        ("remote-service", Box::new(remote_service)),
        ("remote-sharded", Box::new(remote_sharded)),
    ]
}

/// One differential case: single ops and composed multi-op requests,
/// interleaved, every outcome compared across all backends and the
/// oracle — values, verdicts and absolute commit seqs.
fn run_case(p: usize, s: usize, raw_pts: Vec<RawPoint>, ops: Vec<(u8, RawRect, usize)>) {
    let all_pts: Vec<Point<2>> =
        raw_pts.iter().enumerate().map(|(i, &r)| to_point(r, i as u32)).collect();
    let half = all_pts.len() / 2;
    let initial = &all_pts[..half];
    let mut fresh = all_pts[half..].iter();

    let mut oracle = Oracle::new(initial);
    let stores = backends(p, s, initial);

    for (kind, raw_rect, pick) in ops {
        let q = to_rect(raw_rect);
        match kind % 6 {
            0 => {
                let want = (oracle.count(&q), oracle.read_seq());
                for (name, store) in &stores {
                    let got = store.count(q).unwrap().wait().unwrap();
                    assert_eq!((got.value, got.seq), want, "{name}: count diverged");
                }
            }
            1 => {
                let want = (oracle.aggregate(&q), oracle.read_seq());
                for (name, store) in &stores {
                    let got = store.aggregate(q).unwrap().wait().unwrap();
                    assert_eq!((got.value, got.seq), want, "{name}: aggregate diverged");
                }
            }
            2 => {
                let want = (oracle.report(&q), oracle.read_seq());
                for (name, store) in &stores {
                    let got = store.report(q).unwrap().wait().unwrap();
                    assert_eq!(
                        (got.value, got.seq),
                        (want.0.clone(), want.1),
                        "{name}: report diverged"
                    );
                }
            }
            3 => {
                // Single-op write through the convenience path.
                let batch: Vec<Point<2>> = fresh.by_ref().take(1 + pick % 3).copied().collect();
                let batch = if batch.is_empty() && !oracle.pts.is_empty() {
                    // Starved: re-insert a live id, a guaranteed rejection.
                    vec![oracle.pts[pick % oracle.pts.len()]]
                } else {
                    batch
                };
                if batch.is_empty() {
                    continue;
                }
                let want = oracle.insert(&batch);
                for (name, store) in &stores {
                    let got = store.insert(batch.clone()).unwrap().wait();
                    match &want {
                        Ok(seq) => {
                            assert_eq!(
                                got.as_ref().map(|c| c.seq),
                                Ok(*seq),
                                "{name}: insert commit diverged"
                            );
                        }
                        Err(e) => assert_eq!(
                            got,
                            Err(ServiceError::Rejected(e.clone())),
                            "{name}: insert verdict diverged"
                        ),
                    }
                }
            }
            4 => {
                if oracle.pts.is_empty() {
                    continue;
                }
                let n = oracle.pts.len();
                let mut ids: Vec<u32> =
                    [pick % n, (pick + 5) % n].iter().map(|&i| oracle.pts[i].id).collect();
                ids.push(u32::MAX - 1); // missing id: a no-op everywhere
                let want = oracle.delete(&ids);
                for (name, store) in &stores {
                    let got = store.delete(ids.clone()).unwrap().wait().unwrap();
                    assert_eq!(got.seq, want, "{name}: delete commit diverged");
                }
            }
            5 => {
                // A composed multi-op request: a write, then three reads
                // of different modes, submitted as one unit.
                let batch: Vec<Point<2>> = fresh.by_ref().take(1 + pick % 2).copied().collect();
                let grow = to_rect(((raw_rect.0 .0 - 8, raw_rect.0 .1 - 8), raw_rect.1));
                // Oracle, in request order: the write first, then the
                // reads against the post-write state.
                let w_want = if batch.is_empty() {
                    None
                } else {
                    Some(match oracle.insert(&batch) {
                        Ok(_) => Ok(()),
                        Err(e) => Err(ServiceError::Rejected(e)),
                    })
                };
                let want_count = oracle.count(&q);
                let want_agg = oracle.aggregate(&grow);
                let want_report = oracle.report(&q);
                let mut last_seq = 0;
                for _ in 0..3 {
                    last_seq = oracle.read_seq();
                }
                for (name, store) in &stores {
                    let mut req = Request::new();
                    let w = w_want.as_ref().map(|_| req.insert(batch.clone()));
                    let c = req.count(q);
                    let a = req.aggregate(grow);
                    let r = req.report(q);
                    let got = store.submit(req).unwrap().wait().unwrap();
                    if let (Some(w), Some(want)) = (w, &w_want) {
                        assert_eq!(got.value.write(w), want, "{name}: request write verdict");
                    }
                    assert_eq!(got.value.count(c), want_count, "{name}: request count");
                    assert_eq!(got.value.aggregate(a), &want_agg, "{name}: request aggregate");
                    assert_eq!(got.value.report(r), want_report, "{name}: request report");
                    assert_eq!(got.seq, last_seq, "{name}: request commit position");
                }
            }
            _ => unreachable!(),
        }
    }

    // Final state: every backend's full id set equals the oracle's, read
    // through the trait itself.
    let everything = Rect::new([i64::MIN, i64::MIN], [i64::MAX, i64::MAX]);
    let want = oracle.report(&everything);
    for (name, store) in &stores {
        let got = store.report(everything).unwrap().wait().unwrap();
        assert_eq!(got.value, want, "{name}: final store diverged");
    }
}

fn arb_raw_points() -> impl Strategy<Value = Vec<RawPoint>> {
    prop::collection::vec((0i64..64, 0i64..64, 0u64..50), 8..32)
}

fn arb_ops() -> impl Strategy<Value = Vec<(u8, RawRect, usize)>> {
    prop::collection::vec(
        (0u8..255, ((0i64..64, 0i64..64), (0i64..64, 0i64..64)), 0usize..1000),
        10..22,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn all_backends_equal_the_oracle(
        shape in (0usize..2, 0usize..2),
        pts in arb_raw_points(),
        ops in arb_ops(),
    ) {
        let (pi, si) = shape;
        run_case([1usize, 2][pi], [2usize, 3][si], pts, ops);
    }
}
