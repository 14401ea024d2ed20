//! # ddrs-engine — the one-submission-per-batch query engine
//!
//! The serving layer of the reproduction: clients accumulate
//! heterogeneous range queries — counts, semigroup aggregations and
//! reports — into a [`QueryBatch`], and the whole batch is planned into a
//! **single** SPMD program on the CGM machine, whatever the mix of modes
//! and (for a [`DynamicDistRangeTree`]) however many logarithmic-method
//! levels are occupied. This matches the paper's shape: a constant number
//! of communication rounds per batch, end to end.
//!
//! ```text
//!   client queries            engine                      machine
//!   ──────────────   ┌─────────────────────┐   ┌──────────────────────┐
//!   count(q1) ──┐    │ QueryBatch          │   │ one Machine::run:    │
//!   sum(q2)   ──┼──▶ │  counts: [q1, …]    │──▶│  value fill (agg)    │
//!   report(q3)──┘    │  aggs:   [q2, …]    │   │  hat stages (all     │
//!                    │  reports:[q3, …]    │   │   modes × levels)    │
//!                    └─────────────────────┘   │  ONE balancing round │
//!                            ▲                 │  sort + seg. fold    │
//!                            │ results mapped  │  report rebalance    │
//!                            ▼ back per mode   └──────────────────────┘
//!   BatchResults { counts, aggregates, reports }
//! ```
//!
//! The executor underneath is persistent (see `ddrs-cgm`): submitting a
//! batch wakes a pool of rank-pinned workers, it does not spawn threads.
//!
//! ## Example
//!
//! ```
//! use ddrs_cgm::Machine;
//! use ddrs_engine::QueryBatch;
//! use ddrs_rangetree::{DistRangeTree, Point, Rect, Sum};
//!
//! let machine = Machine::new(4).unwrap();
//! let pts: Vec<Point<2>> =
//!     (0..128).map(|i| Point::weighted([i, 127 - i], i as u32, 2)).collect();
//! let tree = DistRangeTree::<2>::build(&machine, &pts).unwrap();
//!
//! let mut batch = QueryBatch::new(Sum);
//! let c = batch.count(Rect::new([0, 0], [63, 127]));
//! let a = batch.aggregate(Rect::new([0, 0], [127, 127]));
//! let r = batch.report(Rect::new([5, 120], [7, 124]));
//! let out = batch.execute(&machine, &tree);
//! assert_eq!(out.counts[c], 64);
//! assert_eq!(out.aggregates[a], Some(256)); // 128 points × weight 2
//! assert_eq!(out.reports[r], vec![5, 6, 7]);
//! ```

#![warn(missing_docs)]

use ddrs_cgm::{CgmError, Machine};
use ddrs_rangetree::{
    fused_query_batch, try_fused_query_batch, DistRangeTree, DynamicDistRangeTree, FusedOutputs,
    Rect, Semigroup,
};

/// Results of one executed [`QueryBatch`], per mode, indexed by the
/// handles the builder methods returned.
pub type BatchResults<S> = FusedOutputs<S>;

/// Builder for a heterogeneous query batch: any mix of count, aggregate
/// and report queries, executed in one machine submission.
///
/// Each builder method returns the query's index into the corresponding
/// [`BatchResults`] vector. The batch is reusable: `execute*` borrows it,
/// so one batch can be replayed against several trees or machines.
#[derive(Debug, Clone)]
pub struct QueryBatch<S: Semigroup, const D: usize> {
    sg: S,
    counts: Vec<Rect<D>>,
    aggs: Vec<Rect<D>>,
    reports: Vec<Rect<D>>,
}

impl<S: Semigroup, const D: usize> QueryBatch<S, D> {
    /// An empty batch whose aggregate queries fold with `sg`.
    pub fn new(sg: S) -> Self {
        QueryBatch { sg, counts: Vec::new(), aggs: Vec::new(), reports: Vec::new() }
    }

    /// Add a counting query; returns its index into
    /// [`BatchResults::counts`].
    pub fn count(&mut self, q: Rect<D>) -> usize {
        self.counts.push(q);
        self.counts.len() - 1
    }

    /// Add an associative-function query; returns its index into
    /// [`BatchResults::aggregates`].
    pub fn aggregate(&mut self, q: Rect<D>) -> usize {
        self.aggs.push(q);
        self.aggs.len() - 1
    }

    /// Add a report query; returns its index into
    /// [`BatchResults::reports`].
    pub fn report(&mut self, q: Rect<D>) -> usize {
        self.reports.push(q);
        self.reports.len() - 1
    }

    /// Assemble a batch from pre-split per-mode query lists. Query `i`
    /// of each list lands at index `i` of the corresponding
    /// [`BatchResults`] vector — the contract the sharded router relies
    /// on when it splits one client batch into per-shard sub-batches
    /// and maps partial results back by index.
    pub fn from_parts(
        sg: S,
        counts: Vec<Rect<D>>,
        aggs: Vec<Rect<D>>,
        reports: Vec<Rect<D>>,
    ) -> Self {
        QueryBatch { sg, counts, aggs, reports }
    }

    /// The per-mode query lists `(counts, aggregates, reports)` in
    /// result-index order — the inverse of
    /// [`from_parts`](QueryBatch::from_parts), for planners that need to
    /// introspect an assembled batch.
    pub fn parts(&self) -> (&[Rect<D>], &[Rect<D>], &[Rect<D>]) {
        (&self.counts, &self.aggs, &self.reports)
    }

    /// Total queries across all modes.
    pub fn len(&self) -> usize {
        self.counts.len() + self.aggs.len() + self.reports.len()
    }

    /// True when no queries have been added (executing such a batch is
    /// free: no machine dispatch happens).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Execute against a static tree: one [`Machine::run`] for the whole
    /// batch (zero for an empty batch).
    ///
    /// # Panics
    /// Panics when a simulated processor panics mid-program; use
    /// [`try_execute`](QueryBatch::try_execute) to handle the failure
    /// instead.
    pub fn execute(&self, machine: &Machine, tree: &DistRangeTree<D>) -> BatchResults<S> {
        fused_query_batch(machine, &[tree], self.sg, &self.counts, &self.aggs, &self.reports)
    }

    /// Fallible counterpart of [`execute`](QueryBatch::execute): routed
    /// through [`Machine::try_run`], so a panicked simulated processor
    /// surfaces as [`CgmError::ProcessorPanicked`] and the machine stays
    /// usable. This is the entry point long-lived callers (the
    /// `ddrs-shard` workers) use so one poisoned batch cannot take the
    /// dispatcher down with it.
    pub fn try_execute(
        &self,
        machine: &Machine,
        tree: &DistRangeTree<D>,
    ) -> Result<BatchResults<S>, CgmError> {
        try_fused_query_batch(machine, &[tree], self.sg, &self.counts, &self.aggs, &self.reports)
    }

    /// Execute against a dynamic store: all occupied logarithmic-method
    /// levels are fused into the same single [`Machine::run`] (zero for
    /// an empty batch or an empty store).
    ///
    /// # Panics
    /// Panics when a simulated processor panics mid-program; use
    /// [`try_execute_dynamic`](QueryBatch::try_execute_dynamic) to handle
    /// the failure instead.
    pub fn execute_dynamic(
        &self,
        machine: &Machine,
        tree: &DynamicDistRangeTree<D>,
    ) -> BatchResults<S> {
        fused_query_batch(
            machine,
            &tree.level_trees(),
            self.sg,
            &self.counts,
            &self.aggs,
            &self.reports,
        )
    }

    /// Fallible counterpart of
    /// [`execute_dynamic`](QueryBatch::execute_dynamic), routed through
    /// [`Machine::try_run`] like [`try_execute`](QueryBatch::try_execute).
    pub fn try_execute_dynamic(
        &self,
        machine: &Machine,
        tree: &DynamicDistRangeTree<D>,
    ) -> Result<BatchResults<S>, CgmError> {
        try_fused_query_batch(
            machine,
            &tree.level_trees(),
            self.sg,
            &self.counts,
            &self.aggs,
            &self.reports,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddrs_rangetree::{Point, Sum};

    fn pts(range: std::ops::Range<u32>) -> Vec<Point<2>> {
        range
            .map(|i| Point::weighted([((i * 193) % 777) as i64, ((i * 71) % 555) as i64], i, 3))
            .collect()
    }

    #[test]
    fn batch_indices_map_to_results() {
        let machine = Machine::new(2).unwrap();
        let tree = DistRangeTree::<2>::build(&machine, &pts(0..50)).unwrap();
        let mut batch = QueryBatch::new(Sum);
        let all = Rect::new([0, 0], [800, 600]);
        let none = Rect::new([900, 900], [901, 901]);
        let c0 = batch.count(all);
        let c1 = batch.count(none);
        let a0 = batch.aggregate(all);
        let r0 = batch.report(none);
        assert_eq!(batch.len(), 4);
        assert!(!batch.is_empty());
        let out = batch.execute(&machine, &tree);
        assert_eq!(out.counts[c0], 50);
        assert_eq!(out.counts[c1], 0);
        assert_eq!(out.aggregates[a0], Some(150));
        assert!(out.reports[r0].is_empty());
    }

    #[test]
    fn dynamic_execution_is_one_run() {
        let machine = Machine::new(4).unwrap();
        let mut t = DynamicDistRangeTree::<2>::new(8);
        t.insert_batch(&machine, &pts(0..32)).unwrap();
        t.insert_batch(&machine, &pts(40..56)).unwrap();
        t.insert_batch(&machine, &pts(60..67)).unwrap();
        assert_eq!(t.occupied_levels(), 3);
        let mut batch = QueryBatch::new(Sum);
        batch.count(Rect::new([0, 0], [800, 600]));
        batch.aggregate(Rect::new([0, 0], [400, 300]));
        batch.report(Rect::new([0, 0], [100, 100]));
        machine.take_stats();
        let out = batch.execute_dynamic(&machine, &t);
        let stats = machine.take_stats();
        assert_eq!(stats.runs, 1);
        assert_eq!(out.counts[0], 55);
    }

    #[test]
    fn try_execute_agrees_with_execute() {
        let machine = Machine::new(4).unwrap();
        let tree = DistRangeTree::<2>::build(&machine, &pts(0..80)).unwrap();
        let mut dynamic = DynamicDistRangeTree::<2>::new(8);
        dynamic.insert_batch(&machine, &pts(0..40)).unwrap();
        dynamic.insert_batch(&machine, &pts(50..70)).unwrap();
        let mut batch = QueryBatch::new(Sum);
        batch.count(Rect::new([0, 0], [800, 600]));
        batch.aggregate(Rect::new([0, 0], [400, 300]));
        batch.report(Rect::new([0, 0], [100, 100]));
        let (a, b) = (batch.execute(&machine, &tree), batch.try_execute(&machine, &tree).unwrap());
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.aggregates, b.aggregates);
        assert_eq!(a.reports, b.reports);
        let (a, b) = (
            batch.execute_dynamic(&machine, &dynamic),
            batch.try_execute_dynamic(&machine, &dynamic).unwrap(),
        );
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.aggregates, b.aggregates);
        assert_eq!(a.reports, b.reports);
    }

    #[test]
    fn from_parts_round_trips_and_matches_builder() {
        let machine = Machine::new(2).unwrap();
        let tree = DistRangeTree::<2>::build(&machine, &pts(0..40)).unwrap();
        let all = Rect::new([0, 0], [800, 600]);
        let corner = Rect::new([0, 0], [100, 100]);
        let batch = QueryBatch::from_parts(Sum, vec![all, corner], vec![all], vec![corner]);
        let (c, a, r) = batch.parts();
        assert_eq!((c.len(), a.len(), r.len()), (2, 1, 1));
        assert_eq!(c[1], corner);
        let mut built = QueryBatch::new(Sum);
        built.count(all);
        built.count(corner);
        built.aggregate(all);
        built.report(corner);
        let (x, y) = (batch.execute(&machine, &tree), built.execute(&machine, &tree));
        assert_eq!(x.counts, y.counts);
        assert_eq!(x.aggregates, y.aggregates);
        assert_eq!(x.reports, y.reports);
    }

    #[test]
    fn empty_batch_costs_nothing() {
        let machine = Machine::new(2).unwrap();
        let tree = DistRangeTree::<2>::build(&machine, &pts(0..20)).unwrap();
        machine.take_stats();
        let batch: QueryBatch<Sum, 2> = QueryBatch::new(Sum);
        assert!(batch.is_empty());
        let out = batch.execute(&machine, &tree);
        assert!(out.counts.is_empty());
        assert_eq!(machine.take_stats().runs, 0);
    }
}
