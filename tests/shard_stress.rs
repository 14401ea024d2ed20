//! Seeded-deterministic concurrency stress: the 8-thread interleaving
//! scenario of `tests/service.rs` run against the *sharded* service with
//! a fixed RNG seed per thread, pinning the exact commit-seq replay
//! transcript:
//!
//! * commit sequences are duplicate-free and **dense** — every seq in
//!   `0..N` appears exactly once across all committed responses (no
//!   request slips through uncommitted, none commits twice),
//! * replaying the transcript in seq order through the sequential
//!   oracle reproduces every committed response exactly, and
//! * the final store (which depends only on the set of committed writes,
//!   not on the OS interleaving) is identical across two runs with the
//!   same seed.

use std::collections::HashSet;
use std::sync::Mutex;
use std::time::Duration;

use ddrs::prelude::*;
use ddrs::rangetree::BuildError;

/// splitmix64, as in tests/service.rs — fixed seeds, reproducible boxes.
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

    fn insert(&mut self, batch: &[Point<2>]) {
        for p in batch {
            assert!(self.ids.insert(p.id), "committed insert of live id {}", p.id);
        }
        self.pts.extend_from_slice(batch);
    }

    fn delete(&mut self, ids: &[u32]) {
        let dead: HashSet<u32> = ids.iter().copied().collect();
        self.pts.retain(|p| !dead.contains(&p.id));
        self.ids.retain(|id| !dead.contains(id));
    }
}

enum Event {
    Count(Rect<2>, u64),
    Aggregate(Rect<2>, Option<u64>),
    Report(Rect<2>, Vec<u32>),
    Insert(Vec<Point<2>>),
    Delete(Vec<u32>),
}

/// One full 8-thread run with the given seed base; returns the sorted
/// final id set of the sharded store.
fn stress_run(seed_base: u64) -> Vec<u32> {
    let initial = pts(0..200);
    let machines: Vec<Machine> = (0..4).map(|_| Machine::new(2).unwrap()).collect();
    let service = ShardedService::start(
        machines,
        32,
        &initial,
        Sum,
        PartitionPolicy::range_from_sample(4, &initial),
        ShardedConfig {
            max_batch: 24,
            max_delay: Duration::from_micros(200),
            ..Default::default()
        },
    )
    .unwrap();

    let events: Mutex<Vec<(u64, Event)>> = Mutex::new(Vec::new());
    let rejections: Mutex<Vec<ServiceError>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for t in 0..8u32 {
            let service = &service;
            let events = &events;
            let rejections = &rejections;
            s.spawn(move || {
                let mut rng = TestRng(t as u64 * 6151 + seed_base);
                let mut local = Vec::new();
                // Per-thread private id range keeps inserts conflict-free;
                // the deliberate conflict races id 999 below.
                let base = 10_000 + t * 1_000;
                let mut owned: Vec<u32> = Vec::new();
                let mut next_id = base;
                for i in 0u32..36 {
                    if i % 6 == 5 {
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
                // The deliberate conflict: everyone races to insert id 999.
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

    // Exactly one racer wins id 999.
    let rejections = rejections.into_inner().unwrap();
    assert_eq!(rejections.len(), 7, "one insert of id 999 must win");
    for e in &rejections {
        assert_eq!(*e, ServiceError::Rejected(BuildError::DuplicateId(999)));
    }

    let stats = service.stats();
    assert!(stats.write_epochs >= 1, "updates must have applied in epochs");
    assert!(stats.machine.runs >= 1);
    for snap in &stats.per_shard {
        assert!(snap.poisoned.is_none(), "no faults were injected");
    }

    let parts = service.shutdown();
    let mut events = events.into_inner().unwrap();

    // ── The pinned transcript ────────────────────────────────────────
    // Dense, duplicate-free seqs: every committed response occupies
    // exactly one slot of 0..N. (Requests were 8 × 37, minus the 7
    // losing racers which commit nothing.)
    events.sort_by_key(|(seq, _)| *seq);
    assert_eq!(events.len(), 8 * 37 - 7);
    for (expect, (seq, _)) in events.iter().enumerate() {
        assert_eq!(*seq, expect as u64, "commit seqs must be dense from 0");
    }

    // Seq-ordered oracle replay reproduces every committed response.
    let mut oracle = Oracle::new(&initial);
    for (seq, ev) in &events {
        match ev {
            Event::Count(q, observed) => {
                assert_eq!(oracle.count(q), *observed, "count diverged at seq {seq}")
            }
            Event::Aggregate(q, observed) => {
                assert_eq!(oracle.aggregate(q), *observed, "aggregate diverged at seq {seq}")
            }
            Event::Report(q, observed) => {
                assert_eq!(oracle.report(q), *observed, "report diverged at seq {seq}")
            }
            Event::Insert(batch) => oracle.insert(batch),
            Event::Delete(ids) => oracle.delete(ids),
        }
    }

    // The sharded union equals the oracle end state.
    let mut ids: Vec<u32> = parts.iter().flat_map(|(_, t)| t.points().map(|p| p.id)).collect();
    ids.sort_unstable();
    let mut oracle_ids: Vec<u32> = oracle.ids.into_iter().collect();
    oracle_ids.sort_unstable();
    assert_eq!(ids, oracle_ids);
    ids
}

/// The interleaving scenario, seeded. The OS may schedule differently
/// across runs, but the committed-write set is seed-deterministic, so
/// the final store must be bit-for-bit reproducible.
#[test]
fn seeded_stress_pins_the_replay_transcript() {
    let first = stress_run(11);
    let second = stress_run(11);
    assert_eq!(first, second, "same seed ⇒ same final store, whatever the interleaving");
    // Under `lock-check` (or any debug build) the tracked-lock runtime
    // watched every acquisition above; the stress run must not have
    // recorded a single lock-order inversion.
    let reports = ddrs::check::lock_order_reports();
    assert!(reports.is_empty(), "lock-order inversions under stress:\n{}", reports.join("\n"));
}

/// The hash-policy variant: every read is a *point lookup* (degenerate
/// interval), which the router must route to exactly one shard — so the
/// whole 8-client run finishes with a mean read fan-out of exactly 1.0
/// while the same seq-order oracle replay holds. This is the concurrent
/// serializability pin for single-shard routing: lookups race against
/// key-routed inserts and deletes on every shard at once, and each
/// committed response must still match the oracle at its commit seq.
#[test]
fn hash_point_lookup_stress_routes_singly_and_replays() {
    let initial = pts(0..200);
    let machines: Vec<Machine> = (0..4).map(|_| Machine::new(2).unwrap()).collect();
    let service = ShardedService::start(
        machines,
        32,
        &initial,
        Sum,
        PartitionPolicy::Hash,
        ShardedConfig {
            max_batch: 24,
            max_delay: Duration::from_micros(200),
            ..Default::default()
        },
    )
    .unwrap();

    let events: Mutex<Vec<(u64, Event)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for t in 0..8u32 {
            let service = &service;
            let events = &events;
            s.spawn(move || {
                let mut rng = TestRng(t as u64 * 9173 + 29);
                let mut local = Vec::new();
                let base = 20_000 + t * 1_000;
                let mut owned: Vec<Point<2>> = Vec::new();
                let mut next_id = base;
                for i in 0u32..32 {
                    if i % 8 == 3 {
                        // Insert two points at fresh private coordinates.
                        let batch: Vec<Point<2>> = (0..2)
                            .map(|k| {
                                let id = next_id + k;
                                Point::weighted(
                                    [1_000 + id as i64, (rng.next() % 555) as i64],
                                    id,
                                    1 + id as u64 % 7,
                                )
                            })
                            .collect();
                        next_id += 2;
                        let c = service.insert(batch.clone()).unwrap().wait().unwrap();
                        owned.extend(batch.iter().copied());
                        local.push((c.seq, Event::Insert(batch)));
                    } else if i % 8 == 7 && owned.len() >= 2 {
                        let victims: Vec<u32> = owned.drain(..2).map(|p| p.id).collect();
                        let c = service.delete(victims.clone()).unwrap().wait().unwrap();
                        local.push((c.seq, Event::Delete(victims)));
                    } else {
                        // A point lookup: at a base coordinate, at one of
                        // our own (possibly already deleted) points, or
                        // at a vacant spot — all degenerate intervals.
                        let at = match rng.next() % 3 {
                            0 => {
                                let j = (rng.next() % 200) as u32;
                                [((j * 193) % 777) as i64, ((j * 71) % 555) as i64]
                            }
                            1 if !owned.is_empty() => {
                                owned[rng.next() as usize % owned.len()].coords
                            }
                            _ => [(rng.next() % 5_000) as i64, (rng.next() % 5_000) as i64],
                        };
                        let q = Rect::new(at, at);
                        if i % 2 == 0 {
                            let c = service.count(q).unwrap().wait().unwrap();
                            local.push((c.seq, Event::Count(q, c.value)));
                        } else {
                            let r = service.report(q).unwrap().wait().unwrap();
                            local.push((r.seq, Event::Report(q, r.value)));
                        }
                    }
                }
                events.lock().unwrap().extend(local);
            });
        }
    });

    // Every routed read was a point lookup, so routing must be minimal.
    let stats = service.stats();
    assert!(stats.read_ops_routed >= 8 * 20, "expected a lookup-heavy run: {stats:?}");
    assert_eq!(
        stats.mean_read_fanout(),
        1.0,
        "hash point lookups must touch exactly one shard each"
    );

    let parts = service.shutdown();
    let mut events = events.into_inner().unwrap();

    // Dense, duplicate-free seqs and an exact oracle replay, as in the
    // range-policy scenario.
    events.sort_by_key(|(seq, _)| *seq);
    assert_eq!(events.len(), 8 * 32);
    for (expect, (seq, _)) in events.iter().enumerate() {
        assert_eq!(*seq, expect as u64, "commit seqs must be dense from 0");
    }
    let mut oracle = Oracle::new(&initial);
    for (seq, ev) in &events {
        match ev {
            Event::Count(q, observed) => {
                assert_eq!(oracle.count(q), *observed, "count diverged at seq {seq}")
            }
            Event::Aggregate(q, observed) => {
                assert_eq!(oracle.aggregate(q), *observed, "aggregate diverged at seq {seq}")
            }
            Event::Report(q, observed) => {
                assert_eq!(oracle.report(q), *observed, "report diverged at seq {seq}")
            }
            Event::Insert(batch) => oracle.insert(batch),
            Event::Delete(ids) => oracle.delete(ids),
        }
    }
    let mut ids: Vec<u32> = parts.iter().flat_map(|(_, t)| t.points().map(|p| p.id)).collect();
    ids.sort_unstable();
    let mut oracle_ids: Vec<u32> = oracle.ids.into_iter().collect();
    oracle_ids.sort_unstable();
    assert_eq!(ids, oracle_ids);
}
