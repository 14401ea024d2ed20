//! Shared forest entries and the per-level fold memo.
//!
//! A congestion copy is the owner's forest entry behind an `Arc`, yet the
//! h-relation metering still charges its full words. The fold memo each
//! entry carries must give the same answers as a fresh fold, whatever the
//! order of semigroups and update epochs, and must spare a repeated batch
//! any fold over the whole level.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ddrs_cgm::{Machine, Payload};
use ddrs_rangetree::dist::search::{balance_visits, hat_stage, QueryRec};
use ddrs_rangetree::semigroup::{MaxWeight, Semigroup, Sum};
use ddrs_rangetree::{DistRangeTree, DynamicDistRangeTree, Point, Rect, SeqRangeTree};

/// Deterministic pseudo-random points with distinct ids from `id0`.
fn points(seed: u64, n: u32, id0: u32) -> Vec<Point<2>> {
    let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (s >> 33) as i64
    };
    (0..n)
        .map(|i| Point::weighted([next() % 4096, next() % 4096], id0 + i, (next() % 1000) as u64))
        .collect()
}

fn boxes(seed: u64, n: usize, side: i64) -> Vec<Rect<2>> {
    points(seed, n as u32, 0)
        .iter()
        .map(|p| Rect::new(p.coords, [p.coords[0] + side, p.coords[1] + side]))
        .collect()
}

/// On a hot-spot batch every shipped congestion copy is the owner's entry
/// itself, and the shipping superstep is charged exactly the copies' full
/// `words()`: sharing saves the deep copy, not the model cost.
#[test]
fn congestion_copies_share_the_owner_entry_and_are_charged_in_full() {
    let p = 4;
    let machine = Machine::new(p).unwrap();
    let pts = points(7, 2048, 0);
    let tree = DistRangeTree::<2>::build(&machine, &pts).unwrap();
    let hot: Vec<QueryRec<2>> = (0..256u32)
        .map(|i| {
            let q = Rect::new([100 + (i % 8) as i64, 0], [140 + (i % 8) as i64, 4095]);
            (i, tree.ranks().translate(&q))
        })
        .collect();
    machine.take_stats();
    let shipped = machine.run(|ctx| {
        let state = &tree.states()[ctx.rank()];
        let mine: Vec<QueryRec<2>> =
            hot.iter().filter(|(qid, _)| *qid as usize % p == ctx.rank()).copied().collect();
        let (copies, _items) = balance_visits(ctx, state, hat_stage(state, &mine).visits);
        copies.into_iter().collect::<Vec<_>>()
    });
    let stats = machine.take_stats();

    let owner =
        |fid: u64| (0..p).find(|&r| tree.states()[r].forest.contains_key(&(fid as u32))).unwrap();
    let (mut sent, mut recv) = (vec![0u64; p], vec![0u64; p]);
    let mut copies = 0;
    for (rank, received) in shipped.iter().enumerate() {
        for (fid, entry) in received {
            let own = owner(*fid);
            assert_ne!(own, rank, "owners serve their own originals");
            assert!(
                Arc::ptr_eq(entry, &tree.states()[own].forest[&(*fid as u32)]),
                "copy of forest tree {fid} is not its owner's entry"
            );
            // Each shipped record is `(forest id, entry)`, and the entry
            // is charged its header plus the whole subtree.
            let words = 1 + 2 + entry.tree.payload_words();
            assert_eq!(words, (*fid, Arc::clone(entry)).words());
            sent[own] += words;
            recv[rank] += words;
            copies += 1;
        }
    }
    assert!(copies >= p - 1, "a hot spot at p={p} must ship copies, got {copies}");
    let round = stats.rounds.iter().find(|r| r.label == "balance_resources").unwrap();
    assert_eq!(round.total_words, sent.iter().sum::<u64>());
    assert_eq!(round.total_words, recv.iter().sum::<u64>());
    assert_eq!(round.max_sent_words, *sent.iter().max().unwrap());
    assert_eq!(round.max_recv_words, *recv.iter().max().unwrap());
    assert_eq!(stats.max_h(), round.h(), "copy shipping is the run's largest h-relation");
}

/// Alternating two semigroups with the same value type over the same
/// levels, with insert and delete epochs in between: a memo keyed by value
/// type, or one that outlived its level, would answer from stale folds.
#[test]
fn memoized_folds_match_the_oracle_across_semigroups_and_epochs() {
    for p in [1, 2, 4] {
        let machine = Machine::new(p).unwrap();
        let mut store = DynamicDistRangeTree::<2>::new(64);
        let mut live = points(11, 300, 0);
        store.insert_batch(&machine, &live).unwrap();
        let mut next_id = 300;
        for round in 0..4u64 {
            let oracle = SeqRangeTree::build(&live).unwrap();
            let stat = DistRangeTree::<2>::build(&machine, &live).unwrap();
            let qs = boxes(round + 40, 24, 300 + 200 * round as i64);
            for pass in 0..2 {
                let ctx = format!("p={p} round={round} pass={pass}");
                let want: Vec<_> = qs.iter().map(|q| oracle.aggregate(&Sum, q)).collect();
                assert_eq!(store.aggregate_batch(&machine, Sum, &qs), want, "fused Sum {ctx}");
                assert_eq!(stat.aggregate_batch(&machine, Sum, &qs), want, "per-mode Sum {ctx}");
                let want: Vec<_> = qs.iter().map(|q| oracle.aggregate(&MaxWeight, q)).collect();
                assert_eq!(
                    store.aggregate_batch(&machine, MaxWeight, &qs),
                    want,
                    "fused Max {ctx}"
                );
                assert_eq!(stat.aggregate_batch(&machine, MaxWeight, &qs), want, "per-mode {ctx}");
            }
            // Epochs: a cascade-triggering insert, then a delete rebuild.
            let fresh = points(round + 90, 70, next_id);
            next_id += 70;
            store.insert_batch(&machine, &fresh).unwrap();
            live.extend(fresh);
            let dead: Vec<u32> =
                live.iter().map(|pt| pt.id).filter(|id| id % 7 == round as u32).collect();
            store.delete_batch(&machine, &dead).unwrap();
            live.retain(|pt| !dead.contains(&pt.id));
        }
    }
}

static LIFTS: AtomicU64 = AtomicU64::new(0);

/// [`Sum`] that counts its `lift` calls.
#[derive(Debug, Clone, Copy)]
struct CountedSum;

impl Semigroup for CountedSum {
    type Val = u64;
    fn lift(&self, _id: u32, weight: u64) -> u64 {
        LIFTS.fetch_add(1, Ordering::SeqCst);
        weight
    }
    fn comb(&self, a: u64, b: u64) -> u64 {
        a + b
    }
}

/// A repeated aggregate batch over an unchanged level lifts only the
/// points it selects one by one: the forest-root folds and the node values
/// of every touched tree come from the memo, not from an O(n) fold.
#[test]
fn repeated_batch_makes_no_linear_fold() {
    let n = 4096;
    let machine = Machine::new(2).unwrap();
    let pts = points(5, n, 0);
    let mut store = DynamicDistRangeTree::<2>::new(n as usize);
    store.insert_batch(&machine, &pts).unwrap();
    assert_eq!(store.occupied_levels(), 1);
    let qs = boxes(6, 16, 400);
    let oracle = SeqRangeTree::build(&pts).unwrap();
    let matched: u64 = qs.iter().map(|q| oracle.count(q)).sum();
    assert!(matched < n as u64 / 4, "queries must select a small part of the level");

    LIFTS.store(0, Ordering::SeqCst);
    let first = store.aggregate_batch(&machine, CountedSum, &qs);
    let first_lifts = LIFTS.swap(0, Ordering::SeqCst);
    let second = store.aggregate_batch(&machine, CountedSum, &qs);
    let second_lifts = LIFTS.load(Ordering::SeqCst);

    let want: Vec<_> = qs.iter().map(|q| oracle.aggregate(&Sum, q)).collect();
    assert_eq!(first, want);
    assert_eq!(second, want);
    assert!(first_lifts >= n as u64, "the first batch fills the memo: {first_lifts} lifts");
    assert!(
        second_lifts <= matched,
        "repeated batch lifted {second_lifts} points, more than the {matched} it selects"
    );
}
