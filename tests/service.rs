//! Serving-layer integration tests on a single store (a one-shard
//! `ShardedService`): batch serializability under concurrent clients and
//! interleaved updates, shutdown under load, deadlines, backpressure and
//! the zero-run short-circuit pins.
//!
//! The central instrument is a *sequential oracle*: a naive, obviously
//! correct model of the store (a flat vector of points). Every committed
//! response the service hands out carries a commit sequence number;
//! replaying all committed requests in seq order through the oracle must
//! reproduce every response exactly. That is the service's
//! serializability contract — whatever coalescing, batching and epoch
//! merging happened inside, the observable history is equivalent to some
//! serial one, and the service tells us which.

use std::collections::HashSet;
use std::sync::Mutex;
use std::time::Duration;

use ddrs::prelude::*;
use ddrs::rangetree::{BuildError, PAD_ID};

fn pts(range: std::ops::Range<u32>) -> Vec<Point<2>> {
    range
        .map(|i| {
            Point::weighted(
                [((i * 193) % 777) as i64, ((i * 71) % 555) as i64],
                i,
                1 + i as u64 % 5,
            )
        })
        .collect()
}

/// A tiny deterministic generator (splitmix64) so client threads can
/// produce varied-but-reproducible query boxes without sharing state.
struct TestRng(u64);

impl TestRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn rect(&mut self) -> Rect<2> {
        let x = (self.next() % 700) as i64;
        let y = (self.next() % 500) as i64;
        let w = (self.next() % 400) as i64;
        let h = (self.next() % 300) as i64;
        Rect::new([x, y], [x + w, y + h])
    }
}

/// The sequential oracle: a flat, obviously correct model of the store
/// with the same validation rules as `DynamicDistRangeTree`.
struct Oracle {
    pts: Vec<Point<2>>,
    ids: HashSet<u32>,
}

impl Oracle {
    fn new(initial: &[Point<2>]) -> Self {
        Oracle { pts: initial.to_vec(), ids: initial.iter().map(|p| p.id).collect() }
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

    fn insert(&mut self, batch: &[Point<2>]) -> Result<(), BuildError> {
        let mut seen = HashSet::new();
        for p in batch {
            if p.id == PAD_ID {
                return Err(BuildError::ReservedId);
            }
            if self.ids.contains(&p.id) || !seen.insert(p.id) {
                return Err(BuildError::DuplicateId(p.id));
            }
        }
        self.ids.extend(seen);
        self.pts.extend_from_slice(batch);
        Ok(())
    }

    fn delete(&mut self, ids: &[u32]) {
        let dead: HashSet<u32> = ids.iter().copied().collect();
        self.pts.retain(|p| !dead.contains(&p.id));
        self.ids.retain(|id| !dead.contains(id));
    }
}

/// One committed request as observed by a client, for seq-ordered replay.
enum Event {
    Count(Rect<2>, u64),
    Aggregate(Rect<2>, Option<u64>),
    Report(Rect<2>, Vec<u32>),
    Insert(Vec<Point<2>>),
    Delete(Vec<u32>),
}

/// Replay committed events in commit order through the oracle, asserting
/// every observed response.
fn replay(initial: &[Point<2>], mut events: Vec<(u64, Event)>) {
    events.sort_by_key(|(seq, _)| *seq);
    let mut oracle = Oracle::new(initial);
    for (i, w) in events.windows(2).enumerate() {
        assert_ne!(w[0].0, w[1].0, "duplicate commit seq at replay index {i}");
    }
    for (seq, ev) in events {
        match ev {
            Event::Count(q, observed) => {
                assert_eq!(oracle.count(&q), observed, "count diverged at seq {seq}")
            }
            Event::Aggregate(q, observed) => {
                assert_eq!(oracle.aggregate(&q), observed, "aggregate diverged at seq {seq}")
            }
            Event::Report(q, observed) => {
                assert_eq!(oracle.report(&q), observed, "report diverged at seq {seq}")
            }
            Event::Insert(batch) => {
                oracle.insert(&batch).unwrap_or_else(|e| {
                    panic!("committed insert rejected by oracle at seq {seq}: {e}")
                });
            }
            Event::Delete(ids) => oracle.delete(&ids),
        }
    }
}

fn start_service(p: usize, initial: &[Point<2>], cfg: ShardedConfig) -> ShardedService<Sum, 2> {
    let machine = Machine::new(p).unwrap();
    ShardedService::start(vec![machine], 32, initial, Sum, PartitionPolicy::Hash, cfg).unwrap()
}

/// 8 query-only client threads; every response must match the oracle (no
/// writes, so the oracle never changes), and coalescing must be visible
/// in the stats.
#[test]
fn concurrent_readers_match_oracle() {
    let initial = pts(0..300);
    let service = start_service(
        4,
        &initial,
        ShardedConfig {
            max_batch: 32,
            max_delay: Duration::from_micros(300),
            ..Default::default()
        },
    );
    let events: Mutex<Vec<(u64, Event)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let service = &service;
            let events = &events;
            s.spawn(move || {
                let mut rng = TestRng(t * 7919 + 1);
                let mut local = Vec::new();
                for i in 0..40 {
                    let q = rng.rect();
                    match i % 3 {
                        0 => {
                            let c = service.count(q).unwrap().wait().unwrap();
                            local.push((c.seq, Event::Count(q, c.value)));
                        }
                        1 => {
                            let a = service.aggregate(q).unwrap().wait().unwrap();
                            local.push((a.seq, Event::Aggregate(q, a.value)));
                        }
                        _ => {
                            let r = service.report(q).unwrap().wait().unwrap();
                            local.push((r.seq, Event::Report(q, r.value)));
                        }
                    }
                }
                events.lock().unwrap().extend(local);
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.completed, 8 * 40);
    assert_eq!(stats.queries_coalesced, 8 * 40);
    assert!(stats.machine.runs as usize <= 8 * 40, "never more runs than queries");
    replay(&initial, events.into_inner().unwrap());
}

/// The flagship test: 8 threads mixing reads, inserts and deletes.
/// Every committed response must equal the sequential oracle replayed in
/// the service's reported commit order — across write epochs.
#[test]
fn interleaved_updates_are_batch_serializable() {
    let initial = pts(0..200);
    let service = start_service(
        4,
        &initial,
        ShardedConfig {
            max_batch: 24,
            max_delay: Duration::from_micros(200),
            ..Default::default()
        },
    );
    let events: Mutex<Vec<(u64, Event)>> = Mutex::new(Vec::new());
    let rejections: Mutex<Vec<ServiceError>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for t in 0..8u32 {
            let service = &service;
            let events = &events;
            let rejections = &rejections;
            s.spawn(move || {
                let mut rng = TestRng(t as u64 * 6151 + 11);
                let mut local = Vec::new();
                // Per-thread private id range keeps inserts conflict-free;
                // conflicts are exercised separately below.
                let base = 10_000 + t * 1_000;
                let mut owned: Vec<u32> = Vec::new();
                let mut next_id = base;
                for i in 0u32..36 {
                    if i % 6 == 5 {
                        // Insert a small batch of fresh points.
                        let batch: Vec<Point<2>> = (0..4)
                            .map(|k| {
                                let id = next_id + k;
                                Point::weighted(
                                    [(rng.next() % 777) as i64, (rng.next() % 555) as i64],
                                    id,
                                    1 + id as u64 % 7,
                                )
                            })
                            .collect();
                        next_id += 4;
                        let c = service.insert(batch.clone()).unwrap().wait().unwrap();
                        owned.extend(batch.iter().map(|p| p.id));
                        local.push((c.seq, Event::Insert(batch)));
                    } else if i % 9 == 8 && owned.len() >= 3 {
                        // Delete some of this thread's own earlier inserts
                        // (their commits happened-before this submission).
                        let victims: Vec<u32> = owned.drain(..3).collect();
                        let c = service.delete(victims.clone()).unwrap().wait().unwrap();
                        local.push((c.seq, Event::Delete(victims)));
                    } else {
                        let q = rng.rect();
                        match i % 3 {
                            0 => {
                                let c = service.count(q).unwrap().wait().unwrap();
                                local.push((c.seq, Event::Count(q, c.value)));
                            }
                            1 => {
                                let a = service.aggregate(q).unwrap().wait().unwrap();
                                local.push((a.seq, Event::Aggregate(q, a.value)));
                            }
                            _ => {
                                let r = service.report(q).unwrap().wait().unwrap();
                                local.push((r.seq, Event::Report(q, r.value)));
                            }
                        }
                    }
                }
                // A deliberate conflict: everyone races to insert id 999.
                match service.insert(vec![Point::weighted([1, 1], 999, 1)]).unwrap().wait() {
                    Ok(c) => {
                        local.push((c.seq, Event::Insert(vec![Point::weighted([1, 1], 999, 1)])))
                    }
                    Err(e) => rejections.lock().unwrap().push(e),
                }
                events.lock().unwrap().extend(local);
            });
        }
    });
    // Exactly one racer wins id 999; the rest are sequential rejections.
    let rejections = rejections.into_inner().unwrap();
    assert_eq!(rejections.len(), 7, "one insert of id 999 must win");
    for e in &rejections {
        assert_eq!(*e, ServiceError::Rejected(BuildError::DuplicateId(999)));
    }
    let stats = service.stats();
    assert!(stats.write_epochs >= 1, "updates must have applied in epochs");
    let (machine, tree) = service.shutdown().pop().unwrap();
    let events = events.into_inner().unwrap();
    // The final store must agree with the oracle end-state, too.
    let mut oracle = Oracle::new(&initial);
    let mut ordered: Vec<&(u64, Event)> = events.iter().collect();
    ordered.sort_by_key(|(seq, _)| *seq);
    for (_, ev) in ordered {
        match ev {
            Event::Insert(batch) => oracle.insert(batch).unwrap(),
            Event::Delete(ids) => oracle.delete(ids),
            _ => {}
        }
    }
    assert_eq!(tree.len(), oracle.pts.len());
    let everything = Rect::new([i64::MIN, i64::MIN], [i64::MAX, i64::MAX]);
    assert_eq!(tree.count_batch(&machine, &[everything])[0], oracle.pts.len() as u64);
    replay(&initial, events);
}

/// Shutdown under load: clients keep submitting while another thread
/// begins the shutdown. Every accepted ticket resolves (drain), every
/// post-shutdown submission fails fast, and nothing hangs.
#[test]
fn shutdown_under_load_drains_accepted_work() {
    let initial = pts(0..150);
    let service = start_service(
        2,
        &initial,
        ShardedConfig {
            max_batch: 16,
            max_delay: Duration::from_micros(200),
            ..Default::default()
        },
    );
    let accepted: Mutex<Vec<Ticket<u64>>> = Mutex::new(Vec::new());
    let shut_out = Mutex::new(0u64);
    std::thread::scope(|s| {
        for t in 0..6u64 {
            let service = &service;
            let accepted = &accepted;
            let shut_out = &shut_out;
            s.spawn(move || {
                let mut rng = TestRng(t + 100);
                for _ in 0..80 {
                    match service.count(rng.rect()) {
                        Ok(ticket) => accepted.lock().unwrap().push(ticket),
                        Err(SubmitError::ShutDown) => {
                            *shut_out.lock().unwrap() += 1;
                        }
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                }
            });
        }
        let service = &service;
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            service.begin_shutdown();
        });
    });
    let accepted = accepted.into_inner().unwrap();
    let shut_out = shut_out.into_inner().unwrap();
    assert_eq!(accepted.len() as u64 + shut_out, 6 * 80, "every submission accounted for");
    let oracle = Oracle::new(&initial);
    let mut served = 0u64;
    for ticket in accepted {
        // Drain mode: accepted work is served, not rejected.
        let ddrs::prelude::WaitFor::Ready(c) = ticket.wait_for(Duration::from_secs(10)) else {
            panic!("drain left a ticket hanging");
        };
        let c = c.expect("drained ticket must resolve successfully");
        served += 1;
        assert!(c.value <= oracle.pts.len() as u64);
    }
    let (_, tree) = service.shutdown().pop().unwrap();
    assert_eq!(tree.len(), 150, "read-only load leaves the store unchanged");
    assert!(served > 0);
}

/// Abort rejects queued work with ShuttingDown instead of serving it.
#[test]
fn abort_rejects_pending_requests() {
    let initial = pts(0..64);
    // A huge delay window so submissions are still queued when we abort.
    let service = start_service(
        2,
        &initial,
        ShardedConfig {
            max_batch: 1024,
            max_delay: Duration::from_secs(5),
            queue_capacity: 1024,
            ..Default::default()
        },
    );
    let tickets: Vec<_> =
        (0..20).map(|_| service.count(Rect::new([0, 0], [800, 600])).unwrap()).collect();
    let (_, tree) = service.abort().pop().unwrap();
    for t in tickets {
        assert_eq!(t.wait(), Err(ServiceError::ShuttingDown));
    }
    assert_eq!(tree.len(), 64);
}

/// A request whose deadline passes while queued is failed at dispatch
/// time and never reaches the machine.
#[test]
fn queued_deadline_expires_without_touching_the_machine() {
    let initial = pts(0..64);
    let service = start_service(
        2,
        &initial,
        ShardedConfig {
            max_batch: 1024,
            max_delay: Duration::from_millis(80),
            ..Default::default()
        },
    );
    // Deadline far shorter than the group-commit window, and no other
    // traffic to fill the batch early.
    let doomed = service
        .count_within(Rect::new([0, 0], [800, 600]), Some(Duration::from_millis(1)))
        .unwrap();
    assert_eq!(doomed.wait(), Err(ServiceError::DeadlineExpired));
    let stats = service.stats();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.machine.runs, 0, "expired request must not reach the machine");
    // The service keeps serving afterwards.
    assert_eq!(service.count(Rect::new([0, 0], [800, 600])).unwrap().wait().unwrap().value, 64);
}

/// Admission control: a full queue rejects with Overloaded and recovers
/// once drained.
#[test]
fn backpressure_rejects_beyond_capacity() {
    let initial = pts(0..64);
    let service = start_service(
        2,
        &initial,
        ShardedConfig {
            max_batch: 1024,
            max_delay: Duration::from_millis(300),
            queue_capacity: 4,
            ..Default::default()
        },
    );
    let q = Rect::new([0, 0], [800, 600]);
    let mut tickets = Vec::new();
    let mut overloaded = 0;
    // The scheduler holds dispatch for 300ms, so these all hit the queue.
    for _ in 0..6 {
        match service.count(q) {
            Ok(t) => tickets.push(t),
            Err(SubmitError::Overloaded { depth }) => {
                assert_eq!(depth, 4);
                overloaded += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert_eq!(tickets.len(), 4, "exactly queue_capacity submissions are admitted");
    assert_eq!(overloaded, 2);
    for t in tickets {
        assert_eq!(t.wait().unwrap().value, 64);
    }
    let stats = service.stats();
    assert_eq!(stats.overloaded, 2);
    // Queue drained: admission recovers.
    assert!(service.count(q).is_ok());
}

/// The zero-run short-circuit pin: queries against an empty store and
/// empty write batches must cost no machine runs and no dispatches —
/// identical to the engine- and store-level short-circuits.
#[test]
fn empty_store_and_empty_writes_cost_zero_runs() {
    let service = start_service(
        2,
        &[],
        ShardedConfig { max_batch: 8, max_delay: Duration::from_micros(100), ..Default::default() },
    );
    let q = Rect::new([0, 0], [800, 600]);
    assert_eq!(service.count(q).unwrap().wait().unwrap().value, 0);
    assert_eq!(service.aggregate(q).unwrap().wait().unwrap().value, None);
    assert!(service.report(q).unwrap().wait().unwrap().value.is_empty());
    // Empty write batches are committed no-ops.
    service.insert(Vec::new()).unwrap().wait().unwrap();
    service.delete(Vec::new()).unwrap().wait().unwrap();
    let stats = service.stats();
    assert_eq!(stats.completed, 5);
    assert_eq!(stats.machine.runs, 0, "empty-store traffic must not run the machine");
    assert_eq!(stats.dispatches, 0, "short-circuited batches are not dispatches");
    assert_eq!(stats.write_epochs, 0, "empty writes are not epochs");
    assert_eq!(stats.machine.supersteps, 0);
}

/// Deterministic coalescing: pre-staged traffic exactly filling one
/// batch window is served in a single fused dispatch.
#[test]
fn a_full_window_coalesces_into_one_dispatch() {
    let initial = pts(0..128);
    let service = start_service(
        4,
        &initial,
        ShardedConfig { max_batch: 32, max_delay: Duration::from_secs(2), ..Default::default() },
    );
    let mut rng = TestRng(42);
    let tickets: Vec<_> = (0..32)
        .map(|i| match i % 3 {
            0 => {
                let q = rng.rect();
                let t = service.count(q).unwrap();
                (q, Some(t), None, None)
            }
            1 => {
                let q = rng.rect();
                (q, None, Some(service.aggregate(q).unwrap()), None)
            }
            _ => {
                let q = rng.rect();
                (q, None, None, Some(service.report(q).unwrap()))
            }
        })
        .collect();
    let oracle = Oracle::new(&initial);
    for (q, c, a, r) in tickets {
        if let Some(t) = c {
            assert_eq!(t.wait().unwrap().value, oracle.count(&q));
        }
        if let Some(t) = a {
            assert_eq!(t.wait().unwrap().value, oracle.aggregate(&q));
        }
        if let Some(t) = r {
            assert_eq!(t.wait().unwrap().value, oracle.report(&q));
        }
    }
    let stats = service.stats();
    assert_eq!(stats.dispatches, 1, "32 queries, one batch window, one dispatch");
    assert_eq!(stats.machine.runs, 1, "one dispatch is one fused machine run");
    assert_eq!(stats.mean_batch_size(), 32.0);
    assert_eq!(stats.coalescing_factor(), 32.0);
}

/// Group commit under a backlog: with `max_batch = 1` every request is
/// its own window, and the windows carved while the machine is busy
/// queue up behind it and share its next run instead of paying one
/// run each.
#[test]
fn windows_queued_behind_a_busy_store_share_one_run() {
    let initial = pts(0..128);
    let service = start_service(
        2,
        &initial,
        ShardedConfig { max_batch: 1, max_delay: Duration::from_micros(50), ..Default::default() },
    );
    let mut rng = TestRng(9);
    let queries: Vec<Rect<2>> = (0..64).map(|_| rng.rect()).collect();
    let tickets: Vec<_> = queries.iter().map(|q| service.count(*q).unwrap()).collect();
    let oracle = Oracle::new(&initial);
    for (q, t) in queries.iter().zip(tickets) {
        assert_eq!(t.wait().unwrap().value, oracle.count(q));
    }
    let stats = service.stats();
    assert_eq!((stats.dispatches, stats.queries_coalesced), (64, 64));
    assert!(stats.machine.runs < 64, "queued windows must share runs: {} runs", stats.machine.runs);
}

/// What a single store gains from being served as one shard: a write
/// epoch that fails mid-apply poisons the only shard, every later
/// request fails typed instead of hanging, and `recover_shard` rebuilds
/// the store from its write-ahead log to exactly the committed state.
#[test]
fn poisoned_single_store_fails_typed_then_recovers_from_its_log() {
    let initial = pts(0..96);
    let service = start_service(
        2,
        &initial,
        ShardedConfig { max_delay: Duration::from_micros(100), ..Default::default() },
    );
    let mut oracle = Oracle::new(&initial);
    let fresh = pts(200..216);
    service.insert(fresh.clone()).unwrap().wait().unwrap();
    oracle.insert(&fresh).unwrap();
    let dead: Vec<u32> = (0..10).collect();
    service.delete(dead.clone()).unwrap().wait().unwrap();
    oracle.delete(&dead);

    service.fail_next_write_epoch(0);
    let doomed = service.insert(pts(300..310)).unwrap().wait();
    assert!(matches!(doomed, Err(ServiceError::Machine(_))), "{doomed:?}");
    assert!(service.stats().per_shard[0].poisoned.is_some());

    // Reads and writes against the quarantined store fail typed.
    let all = Rect::new([0, 0], [800, 600]);
    let outcomes = [
        service.count(all).unwrap().map(|_| ()).wait_for(Duration::from_secs(10)),
        service.report(all).unwrap().map(|_| ()).wait_for(Duration::from_secs(10)),
        service.delete(vec![50]).unwrap().wait_for(Duration::from_secs(10)),
    ];
    for outcome in outcomes {
        let WaitFor::Ready(result) = outcome else {
            panic!("a poisoned store left a request hanging")
        };
        assert!(matches!(result, Err(ServiceError::Machine(_))), "{result:?}");
    }

    // Recovery replays exactly the committed writes.
    let report = service.recover_shard(0).unwrap().wait().unwrap().value;
    assert_eq!(report.live_points, oracle.pts.len());
    assert!(report.clean_tail);
    assert_eq!(service.report(all).unwrap().wait().unwrap().value, oracle.report(&all));
    let mut rng = TestRng(5);
    for _ in 0..16 {
        let q = rng.rect();
        assert_eq!(service.count(q).unwrap().wait().unwrap().value, oracle.count(&q));
        assert_eq!(service.aggregate(q).unwrap().wait().unwrap().value, oracle.aggregate(&q));
    }
    let (_, tree) = service.shutdown().pop().unwrap();
    assert_eq!(tree.len(), oracle.pts.len());
}
