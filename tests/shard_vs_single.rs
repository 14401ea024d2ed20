//! Differential tests: the sharded service must be observationally
//! identical to a single store (served as one shard) and to a flat
//! sequential oracle —
//! same values, same rejection verdicts, same dense global commit
//! sequences — across shard counts S ∈ {1, 2, 4}, machine sizes
//! p ∈ {1, 2, 4}, dimensions d ∈ {1, 2, 3}, both partition policies, and
//! mixed read/write streams with racing duplicate inserts.
//!
//! Plus the router cost pin: a mixed cross-shard read window coalesces
//! into at most one fused sub-batch per shard, so it costs ≤ S machine
//! runs however many queries it carried (asserted via `RunStats`).

use std::collections::HashSet;
use std::sync::Mutex;
use std::time::Duration;

use proptest::prelude::*;

use ddrs::prelude::*;
use ddrs::rangetree::BuildError;

type RawPoint = (i64, i64, i64, u64);
type RawRect = ((i64, i64, i64), (i64, i64, i64));

fn to_point<const D: usize>(raw: RawPoint, id: u32) -> Point<D> {
    let (x, y, z, w) = raw;
    let all = [x, y, z];
    let mut coords = [0i64; D];
    coords.copy_from_slice(&all[..D]);
    Point::weighted(coords, id, 1 + w % 9)
}

fn to_rect<const D: usize>(raw: RawRect) -> Rect<D> {
    let (lo, hi) = raw;
    let lo_all = [lo.0, lo.1, lo.2];
    let hi_all = [hi.0, hi.1, hi.2];
    let mut a = [0i64; D];
    let mut b = [0i64; D];
    for j in 0..D {
        a[j] = lo_all[j].min(hi_all[j]);
        b[j] = lo_all[j].max(hi_all[j]);
    }
    Rect::new(a, b)
}

/// The flat oracle: a vector of points with the store's validation rules.
struct Oracle<const D: usize> {
    pts: Vec<Point<D>>,
    ids: HashSet<u32>,
}

impl<const D: usize> Oracle<D> {
    fn new(initial: &[Point<D>]) -> Self {
        Oracle { pts: initial.to_vec(), ids: initial.iter().map(|p| p.id).collect() }
    }

    fn count(&self, q: &Rect<D>) -> u64 {
        self.pts.iter().filter(|p| q.contains(p)).count() as u64
    }

    fn aggregate(&self, q: &Rect<D>) -> Option<u64> {
        self.pts.iter().filter(|p| q.contains(p)).map(|p| p.weight).reduce(|a, b| a + b)
    }

    fn report(&self, q: &Rect<D>) -> Vec<u32> {
        let mut ids: Vec<u32> = self.pts.iter().filter(|p| q.contains(p)).map(|p| p.id).collect();
        ids.sort_unstable();
        ids
    }

    fn insert(&mut self, batch: &[Point<D>]) -> Result<(), BuildError> {
        let mut seen = HashSet::new();
        for p in batch {
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

fn sharded_start<const D: usize>(
    s: usize,
    p: usize,
    range_policy: bool,
    initial: &[Point<D>],
) -> ShardedService<Sum, D> {
    let machines: Vec<Machine> = (0..s).map(|_| Machine::new(p).unwrap()).collect();
    let policy = if range_policy {
        PartitionPolicy::range_from_sample(s, initial)
    } else {
        PartitionPolicy::Hash
    };
    ShardedService::start(
        machines,
        8,
        initial,
        Sum,
        policy,
        ShardedConfig {
            max_batch: 16,
            max_delay: Duration::from_micros(100),
            ..Default::default()
        },
    )
    .unwrap()
}

/// One differential case: a sequential mixed stream (exact three-way
/// equality, committed responses *and* commit seqs), then a racing
/// duplicate-insert phase, then final-state equality.
fn run_case<const D: usize>(
    s: usize,
    p: usize,
    range_policy: bool,
    raw_pts: Vec<RawPoint>,
    ops: Vec<(u8, RawRect, usize)>,
) {
    let all_pts: Vec<Point<D>> =
        raw_pts.iter().enumerate().map(|(i, &r)| to_point(r, i as u32)).collect();
    let half = all_pts.len() / 2;
    let initial = &all_pts[..half];
    let mut fresh = all_pts[half..].iter();

    let mut oracle = Oracle::new(initial);
    let sharded = sharded_start(s, p, range_policy, initial);
    let single = sharded_start(1, p, false, initial);

    for (kind, raw_rect, pick) in ops {
        match kind % 5 {
            0 | 1 => {
                let q = to_rect::<D>(raw_rect);
                let a = sharded.count(q).unwrap().wait().unwrap();
                let b = single.count(q).unwrap().wait().unwrap();
                assert_eq!(a.value, oracle.count(&q), "sharded count diverged");
                assert_eq!(b.value, a.value, "single count diverged");
                assert_eq!(a.seq, b.seq, "global seqs diverged");
            }
            2 => {
                let q = to_rect::<D>(raw_rect);
                let a = sharded.aggregate(q).unwrap().wait().unwrap();
                let b = single.aggregate(q).unwrap().wait().unwrap();
                assert_eq!(a.value, oracle.aggregate(&q), "sharded aggregate diverged");
                assert_eq!(b.value, a.value, "single aggregate diverged");
                assert_eq!(a.seq, b.seq);
            }
            3 => {
                let q = to_rect::<D>(raw_rect);
                let a = sharded.report(q).unwrap().wait().unwrap();
                let b = single.report(q).unwrap().wait().unwrap();
                assert_eq!(a.value, oracle.report(&q), "sharded report diverged");
                assert_eq!(b.value, a.value, "single report diverged");
                assert_eq!(a.seq, b.seq);
            }
            4 => {
                if pick % 3 == 2 && !oracle.pts.is_empty() {
                    // Delete a few live ids plus one certainly-dead one.
                    let n = oracle.pts.len();
                    let mut ids: Vec<u32> =
                        [pick % n, (pick + 7) % n].iter().map(|&i| oracle.pts[i].id).collect();
                    ids.push(u32::MAX - 1); // missing id: a no-op everywhere
                    let a = sharded.delete(ids.clone()).unwrap().wait().unwrap();
                    let b = single.delete(ids.clone()).unwrap().wait().unwrap();
                    assert_eq!(a.seq, b.seq);
                    oracle.delete(&ids);
                } else {
                    // Insert 1–3 fresh points, or re-insert a live id
                    // (a guaranteed sequential rejection) when starved.
                    let batch: Vec<Point<D>> = fresh.by_ref().take(1 + pick % 3).copied().collect();
                    let batch = if batch.is_empty() && !oracle.pts.is_empty() {
                        vec![oracle.pts[pick % oracle.pts.len()]]
                    } else {
                        batch
                    };
                    if batch.is_empty() {
                        continue;
                    }
                    let a = sharded.insert(batch.clone()).unwrap().wait();
                    let b = single.insert(batch.clone()).unwrap().wait();
                    match oracle.insert(&batch) {
                        Ok(()) => {
                            let (a, b) = (a.unwrap(), b.unwrap());
                            assert_eq!(a.seq, b.seq);
                        }
                        Err(e) => {
                            assert_eq!(a, Err(ServiceError::Rejected(e.clone())));
                            assert_eq!(b, Err(ServiceError::Rejected(e)));
                        }
                    }
                }
            }
            _ => unreachable!(),
        }
    }

    // Racing duplicate inserts: three threads per service race the same
    // point; exactly one wins in each system, the rest are sequential
    // duplicate rejections, and the end state is identical either way.
    let race_pt: Point<D> = to_point((13, 21, 34, 5), 50_000);
    let ok_sharded = Mutex::new(0usize);
    let ok_single = Mutex::new(0usize);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let (sharded, single) = (&sharded, &single);
            let (ok_sharded, ok_single) = (&ok_sharded, &ok_single);
            scope.spawn(move || {
                match sharded.insert(vec![race_pt]).unwrap().wait() {
                    Ok(_) => *ok_sharded.lock().unwrap() += 1,
                    Err(e) => {
                        assert_eq!(e, ServiceError::Rejected(BuildError::DuplicateId(50_000)))
                    }
                }
                match single.insert(vec![race_pt]).unwrap().wait() {
                    Ok(_) => *ok_single.lock().unwrap() += 1,
                    Err(e) => {
                        assert_eq!(e, ServiceError::Rejected(BuildError::DuplicateId(50_000)))
                    }
                }
            });
        }
    });
    assert_eq!(*ok_sharded.lock().unwrap(), 1, "exactly one racer wins in the sharded service");
    assert_eq!(*ok_single.lock().unwrap(), 1, "exactly one racer wins in the single service");
    oracle.insert(&[race_pt]).unwrap();

    // Final state: all three agree, in aggregate and point-by-point.
    let everything = Rect::new([i64::MIN; D], [i64::MAX; D]);
    assert_eq!(sharded.count(everything).unwrap().wait().unwrap().value, oracle.pts.len() as u64);
    assert_eq!(single.count(everything).unwrap().wait().unwrap().value, oracle.pts.len() as u64);
    let parts = sharded.shutdown();
    assert_eq!(parts.len(), s);
    let mut sharded_ids: Vec<u32> =
        parts.iter().flat_map(|(_, t)| t.points().map(|p| p.id)).collect();
    sharded_ids.sort_unstable();
    let mut oracle_ids: Vec<u32> = oracle.ids.iter().copied().collect();
    oracle_ids.sort_unstable();
    assert_eq!(sharded_ids, oracle_ids, "sharded union must equal the oracle id set");
    let (_, tree) = single.shutdown().pop().unwrap();
    assert_eq!(tree.len(), oracle.pts.len());
}

fn arb_raw_points() -> impl Strategy<Value = Vec<RawPoint>> {
    prop::collection::vec((0i64..64, 0i64..64, 0i64..64, 0u64..50), 8..40)
}

fn arb_ops() -> impl Strategy<Value = Vec<(u8, RawRect, usize)>> {
    prop::collection::vec(
        (0u8..255, ((0i64..64, 0i64..64, 0i64..64), (0i64..64, 0i64..64, 0i64..64)), 0usize..1000),
        12..28,
    )
}

fn arb_shape() -> impl Strategy<Value = (usize, usize, bool)> {
    (0usize..3, 0usize..3, 0u8..2)
        .prop_map(|(si, pi, pol)| ([1usize, 2, 4][si], [1usize, 2, 4][pi], pol == 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn sharded_equals_single_equals_oracle_d1(
        shape in arb_shape(),
        pts in arb_raw_points(),
        ops in arb_ops(),
    ) {
        let (s, p, pol) = shape;
        run_case::<1>(s, p, pol, pts, ops);
    }

    #[test]
    fn sharded_equals_single_equals_oracle_d2(
        shape in arb_shape(),
        pts in arb_raw_points(),
        ops in arb_ops(),
    ) {
        let (s, p, pol) = shape;
        run_case::<2>(s, p, pol, pts, ops);
    }

    #[test]
    fn sharded_equals_single_equals_oracle_d3(
        shape in arb_shape(),
        pts in arb_raw_points(),
        ops in arb_ops(),
    ) {
        let (s, p, pol) = shape;
        run_case::<3>(s, p, pol, pts, ops);
    }
}

/// The acceptance pin for router cost: one coalesced window of mixed
/// count/aggregate/report queries spanning all four range slabs is
/// planned into exactly one fused sub-batch per shard — at most S = 4
/// machine runs for 12 queries, asserted via the RunStats rollup.
#[test]
fn mixed_cross_shard_window_costs_at_most_s_runs() {
    let s = 4;
    let initial: Vec<Point<2>> = (0..128u32)
        .map(|i| Point::weighted([(i % 64) as i64, (i / 2) as i64], i, 1 + i as u64 % 4))
        .collect();
    let machines: Vec<Machine> = (0..s).map(|_| Machine::new(2).unwrap()).collect();
    let service = ShardedService::start(
        machines,
        16,
        &initial,
        Sum,
        PartitionPolicy::range_uniform(s, 0, 64),
        ShardedConfig { max_batch: 12, max_delay: Duration::from_secs(2), ..Default::default() },
    )
    .unwrap();
    let spans = [
        Rect::new([0, 0], [63, 63]),  // all four slabs
        Rect::new([0, 0], [31, 63]),  // two slabs
        Rect::new([20, 0], [60, 63]), // three slabs
        Rect::new([50, 0], [63, 63]), // one slab
    ];
    let mut tickets_c = Vec::new();
    let mut tickets_a = Vec::new();
    let mut tickets_r = Vec::new();
    for i in 0..12usize {
        let q = spans[i % 4];
        match i % 3 {
            0 => tickets_c.push((q, service.count(q).unwrap())),
            1 => tickets_a.push((q, service.aggregate(q).unwrap())),
            _ => tickets_r.push((q, service.report(q).unwrap())),
        }
    }
    let oracle = Oracle::new(&initial);
    for (q, t) in tickets_c {
        assert_eq!(t.wait().unwrap().value, oracle.count(&q));
    }
    for (q, t) in tickets_a {
        assert_eq!(t.wait().unwrap().value, oracle.aggregate(&q));
    }
    for (q, t) in tickets_r {
        assert_eq!(t.wait().unwrap().value, oracle.report(&q));
    }
    let stats = service.stats();
    assert_eq!(stats.dispatches, 1, "12 queries, one window, one scatter-gather dispatch");
    assert!(
        stats.machine.runs as usize <= s,
        "a cross-shard read window must cost at most S = {s} machine runs, measured {}",
        stats.machine.runs
    );
    assert_eq!(stats.machine.runs, 4, "every slab was hit, so exactly one fused run per shard");
    assert_eq!(stats.queries_coalesced, 12);
    assert_eq!(stats.mean_batch_size(), 12.0);
    service.shutdown();
}
