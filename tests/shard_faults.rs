//! Fault-injection harness for the sharded service: a simulated
//! processor panics *mid-epoch* in one shard (injected through
//! `Machine::try_run` between the delete and insert cascades), and the
//! blast radius must stop at that shard's boundary:
//!
//! * sibling shards keep serving reads and writes,
//! * the poisoned shard reports `ProcessorPanicked` and rejects traffic,
//! * sub-epochs already applied on healthy shards are rolled back, and
//! * no ticket ever resolves with a value that replaying the committed
//!   requests in commit-seq order through a sequential oracle
//!   contradicts.

use std::collections::HashSet;
use std::time::Duration;

use ddrs::prelude::*;

fn machines(s: usize, p: usize) -> Vec<Machine> {
    (0..s).map(|_| Machine::new(p).unwrap()).collect()
}

/// Initial layout: three range slabs on axis 0 — shard 0 owns x < 100,
/// shard 1 owns 100 ≤ x < 200, shard 2 owns x ≥ 200. 20 points per slab.
fn initial() -> Vec<Point<2>> {
    (0..60u32)
        .map(|i| {
            let slab = (i / 20) as i64;
            Point::weighted(
                [slab * 100 + (i % 20) as i64 * 5, (i % 20) as i64],
                i,
                1 + i as u64 % 3,
            )
        })
        .collect()
}

fn slab_rect(s: i64) -> Rect<2> {
    Rect::new([s * 100, 0], [s * 100 + 99, 100])
}

/// The flat sequential oracle (same validation rules as the store).
struct Oracle {
    pts: Vec<Point<2>>,
}

impl Oracle {
    fn count(&self, q: &Rect<2>) -> u64 {
        self.pts.iter().filter(|p| q.contains(p)).count() as u64
    }

    fn report(&self, q: &Rect<2>) -> Vec<u32> {
        let mut ids: Vec<u32> = self.pts.iter().filter(|p| q.contains(p)).map(|p| p.id).collect();
        ids.sort_unstable();
        ids
    }

    fn insert(&mut self, batch: &[Point<2>]) {
        self.pts.extend_from_slice(batch);
    }

    fn delete(&mut self, ids: &[u32]) {
        let dead: HashSet<u32> = ids.iter().copied().collect();
        self.pts.retain(|p| !dead.contains(&p.id));
    }
}

enum Event {
    Count(Rect<2>, u64),
    Report(Rect<2>, Vec<u32>),
    Insert(Vec<Point<2>>),
    Delete(Vec<u32>),
}

/// Replay committed events in commit order; every observed read value
/// must match the oracle at its commit position.
fn replay(initial_pts: &[Point<2>], mut events: Vec<(u64, Event)>) {
    events.sort_by_key(|(seq, _)| *seq);
    for w in events.windows(2) {
        assert_ne!(w[0].0, w[1].0, "duplicate commit seq");
    }
    let mut oracle = Oracle { pts: initial_pts.to_vec() };
    for (seq, ev) in events {
        match ev {
            Event::Count(q, observed) => {
                assert_eq!(oracle.count(&q), observed, "count diverged at seq {seq}")
            }
            Event::Report(q, observed) => {
                assert_eq!(oracle.report(&q), observed, "report diverged at seq {seq}")
            }
            Event::Insert(batch) => oracle.insert(&batch),
            Event::Delete(ids) => oracle.delete(&ids),
        }
    }
}

fn start(cfg: ShardedConfig) -> ShardedService<Sum, 2> {
    ShardedService::start(
        machines(3, 2),
        16,
        &initial(),
        Sum,
        PartitionPolicy::Range { bounds: vec![100, 200] },
        cfg,
    )
    .unwrap()
}

/// The flagship fault test: a mid-epoch processor panic in shard 1
/// poisons exactly shard 1; the epoch aborts atomically (its healthy
/// sub-epoch on shard 0 is rolled back); siblings keep serving; the
/// committed history replays cleanly.
#[test]
fn mid_epoch_panic_poisons_one_shard_and_siblings_keep_serving() {
    let base = initial();
    let mut events: Vec<(u64, Event)> = Vec::new();
    let service = start(ShardedConfig {
        max_batch: 16,
        max_delay: Duration::from_millis(100),
        ..Default::default()
    });

    // Healthy traffic first, across all shards.
    let all = Rect::new([0, 0], [800, 600]);
    let c = service.count(all).unwrap().wait().unwrap();
    assert_eq!(c.value, 60);
    events.push((c.seq, Event::Count(all, c.value)));

    // Arm the fault, then submit one epoch that spans shard 0 (healthy)
    // and shard 1 (faulted): two inserts and a delete coalesced into the
    // same write window thanks to the wide delay.
    service.fail_next_write_epoch(1);
    let ins0 = vec![Point::weighted([10, 50], 1000, 2)]; // → shard 0
    let ins1 = vec![Point::weighted([150, 50], 1001, 2)]; // → shard 1
    let t_del = service.delete(vec![0, 20]).unwrap(); // shard 0 + shard 1
    let t0 = service.insert(ins0).unwrap();
    let t1 = service.insert(ins1).unwrap();
    let e_del = t_del.wait().unwrap_err();
    let e0 = t0.wait().unwrap_err();
    let e1 = t1.wait().unwrap_err();
    for e in [&e_del, &e0, &e1] {
        match e {
            ServiceError::Machine(msg) => {
                assert!(msg.contains("write epoch aborted"), "unexpected message: {msg}");
            }
            other => panic!("expected a machine error, got {other:?}"),
        }
    }
    // The injected failure is a structured processor panic.
    assert!(
        e1.to_string().contains("ProcessorPanicked"),
        "fault must surface as ProcessorPanicked: {e1:?}"
    );

    // Shard 1 is quarantined…
    let stats = service.stats();
    assert!(stats.per_shard[1].poisoned.as_deref().unwrap_or("").contains("ProcessorPanicked"));
    assert!(stats.per_shard[0].poisoned.is_none());
    assert!(stats.per_shard[2].poisoned.is_none());

    // …reads touching it fail…
    match service.count(all).unwrap().wait() {
        Err(ServiceError::Machine(msg)) => assert!(msg.contains("poisoned"), "{msg}"),
        other => panic!("cross-shard read over a poisoned shard must fail, got {other:?}"),
    }
    // …and writes routed to it fail fast without mutating anything.
    match service.insert(vec![Point::weighted([150, 60], 2000, 1)]).unwrap().wait() {
        Err(ServiceError::Machine(msg)) => assert!(msg.contains("poisoned"), "{msg}"),
        other => panic!("write into a poisoned shard must fail, got {other:?}"),
    }

    // Sibling shards keep serving reads — and the aborted epoch's
    // shard-0 sub-epoch must have been rolled back: slab 0 still holds
    // exactly its initial 20 points (id 0 un-deleted, id 1000 absent).
    let s0 = service.count(slab_rect(0)).unwrap().wait().unwrap();
    assert_eq!(s0.value, 20, "healthy shard must be rolled back to its pre-epoch state");
    events.push((s0.seq, Event::Count(slab_rect(0), s0.value)));
    let r0 = service.report(slab_rect(0)).unwrap().wait().unwrap();
    assert_eq!(r0.value, (0..20).collect::<Vec<u32>>());
    events.push((r0.seq, Event::Report(slab_rect(0), r0.value.clone())));

    // Sibling shards keep serving writes.
    let w2 = vec![Point::weighted([250, 50], 3000, 4)];
    let cw = service.insert(w2.clone()).unwrap().wait().unwrap();
    events.push((cw.seq, Event::Insert(w2)));
    let s2 = service.count(slab_rect(2)).unwrap().wait().unwrap();
    assert_eq!(s2.value, 21);
    events.push((s2.seq, Event::Count(slab_rect(2), s2.value)));
    let cd = service.delete(vec![40]).unwrap().wait().unwrap();
    events.push((cd.seq, Event::Delete(vec![40])));
    let s2b = service.count(slab_rect(2)).unwrap().wait().unwrap();
    assert_eq!(s2b.value, 20);
    events.push((s2b.seq, Event::Count(slab_rect(2), s2b.value)));

    // Nothing committed contradicts the seq-ordered oracle replay.
    replay(&base, events);

    // Forensics: dismantle hands back healthy trees and the quarantine
    // reason; shutdown() would have panicked.
    let parts = service.dismantle();
    assert!(parts[0].poisoned.is_none());
    assert!(parts[1].poisoned.as_deref().unwrap().contains("ProcessorPanicked"));
    assert!(parts[2].poisoned.is_none());
    assert_eq!(parts[0].tree.len(), 20);
    assert_eq!(parts[2].tree.len(), 20); // +3000, −40
    assert!(parts[2].tree.contains_id(3000));
}

/// A processor panic during a *read* sub-batch is not poisoning: reads
/// mutate nothing, so only the requests needing the panicked run fail
/// and the shard keeps serving afterwards. (The panic is induced by
/// poisoning a write first, then verifying reads on the *other* shards
/// — plus the converse: a healthy machine read after a failed read.)
#[test]
fn reads_fail_without_poisoning_on_write_fault_elsewhere() {
    let service = start(ShardedConfig {
        max_batch: 8,
        max_delay: Duration::from_micros(200),
        ..Default::default()
    });
    service.fail_next_write_epoch(2);
    let _ = service.insert(vec![Point::weighted([250, 50], 5000, 1)]).unwrap().wait();
    // Slab 0 and slab 1 reads are untouched by shard 2's quarantine.
    assert_eq!(service.count(slab_rect(0)).unwrap().wait().unwrap().value, 20);
    assert_eq!(service.count(slab_rect(1)).unwrap().wait().unwrap().value, 20);
    let r = service.report(Rect::new([0, 0], [199, 100])).unwrap().wait().unwrap();
    assert_eq!(r.value.len(), 40);
    // The un-poisoned shards still accept writes.
    service.insert(vec![Point::weighted([50, 50], 6000, 1)]).unwrap().wait().unwrap();
    assert_eq!(service.count(slab_rect(0)).unwrap().wait().unwrap().value, 21);
    let parts = service.dismantle();
    assert!(parts[2].poisoned.is_some());
    assert_eq!(parts[0].tree.len(), 21);
}

/// The concurrency variant of the flagship test: the failing epoch is
/// submitted while eight reader threads hammer all three slabs with
/// concurrent windows. The write barrier must still abort the epoch
/// atomically — shard 0's sub-epoch rolled back, shard 1 quarantined —
/// and every read that *succeeded* must have observed either the intact
/// pre-epoch state (the epoch never commits, so there is no post-state),
/// no matter how its window interleaved with the epoch.
#[test]
fn mid_epoch_fault_amid_concurrent_reads_rolls_back_atomically() {
    let service = start(ShardedConfig {
        max_batch: 8,
        max_delay: Duration::from_micros(200),
        ..Default::default()
    });
    service.fail_next_write_epoch(1);

    let writer_done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        // Readers: point the three slab rects plus the full box, from
        // eight threads, while the epoch fails in the middle of it all.
        for t in 0..8u32 {
            let service = &service;
            let writer_done = &writer_done;
            s.spawn(move || {
                let rects =
                    [slab_rect(0), slab_rect(1), slab_rect(2), Rect::new([0, 0], [800, 600])];
                let mut i = t;
                // Keep reading until the writer has settled, then once more.
                loop {
                    let finished = writer_done.load(std::sync::atomic::Ordering::Relaxed);
                    let q = rects[(i % 4) as usize];
                    i += 1;
                    match service.count(q).unwrap().wait() {
                        Ok(c) => {
                            // The epoch aborts, so the store never leaves
                            // its initial state: any successful count sees
                            // exactly the initial occupancy of its rect.
                            let want = if q == rects[3] { 60 } else { 20 };
                            assert_eq!(c.value, want, "read observed a half-applied epoch");
                        }
                        Err(ServiceError::Machine(msg)) => {
                            // Reads planned after the quarantine (or raced
                            // against it) fail loudly; never wrongly.
                            assert!(msg.contains("poisoned"), "unexpected read error: {msg}");
                        }
                        Err(other) => panic!("unexpected read error: {other:?}"),
                    }
                    if finished {
                        break;
                    }
                }
            });
        }
        // The writer: one epoch spanning shard 0 (healthy) and shard 1
        // (armed), submitted mid-storm.
        let service = &service;
        let writer_done = &writer_done;
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            // Both writes touch the armed shard 1, so they abort whether
            // they coalesce into one epoch or land in two: the first
            // epoch trips the fault, a straggler hits the quarantine.
            let t_del = service.delete(vec![0, 20]).unwrap(); // shards 0 + 1
            let t_ins = service.insert(vec![Point::weighted([150, 50], 1001, 2)]).unwrap();
            let e = t_del.wait().unwrap_err();
            assert!(matches!(e, ServiceError::Machine(_)), "epoch must abort: {e:?}");
            assert!(t_ins.wait().is_err(), "no write touching the armed shard may commit");
            writer_done.store(true, std::sync::atomic::Ordering::Relaxed);
        });
    });

    // Post-mortem: exactly shard 1 is poisoned, and the healthy shards
    // hold exactly their initial points — the rollback survived the
    // concurrent read storm.
    let stats = service.stats();
    assert!(stats.per_shard[1].poisoned.as_deref().unwrap_or("").contains("ProcessorPanicked"));
    assert!(stats.per_shard[0].poisoned.is_none());
    assert!(stats.per_shard[2].poisoned.is_none());
    assert_eq!(service.count(slab_rect(0)).unwrap().wait().unwrap().value, 20);
    assert_eq!(service.count(slab_rect(2)).unwrap().wait().unwrap().value, 20);
    let parts = service.dismantle();
    assert_eq!(parts[0].tree.len(), 20, "shard 0 sub-epoch must be rolled back");
    assert!(parts[0].tree.contains_id(0), "deleted id 0 must be restored");
    assert_eq!(parts[2].tree.len(), 20);
    // Under `lock-check` (or any debug build) the tracked-lock runtime
    // watched the fault, rollback and read-storm paths above; none of
    // them may have recorded a lock-order inversion.
    let reports = ddrs::check::lock_order_reports();
    assert!(reports.is_empty(), "lock-order inversions under faults:\n{}", reports.join("\n"));
}

/// The fault hook only fires when an epoch actually reaches the armed
/// shard: epochs routed elsewhere are unaffected, and the flag stays
/// armed until consumed.
#[test]
fn armed_fault_waits_for_an_epoch_touching_its_shard() {
    let service = start(ShardedConfig {
        max_batch: 8,
        max_delay: Duration::from_micros(200),
        ..Default::default()
    });
    service.fail_next_write_epoch(2);
    // An epoch touching only shard 0 sails through.
    service.insert(vec![Point::weighted([10, 80], 7000, 1)]).unwrap().wait().unwrap();
    assert!(service.stats().per_shard[2].poisoned.is_none());
    // The next epoch touching shard 2 consumes the flag.
    let err = service.insert(vec![Point::weighted([250, 80], 7001, 1)]).unwrap().wait();
    assert!(err.is_err());
    assert!(service.stats().per_shard[2].poisoned.is_some());
    let parts = service.dismantle();
    assert!(parts[0].tree.contains_id(7000));
}
