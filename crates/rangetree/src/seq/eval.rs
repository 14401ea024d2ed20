//! Evaluating selections: count, report, and semigroup folds.

use std::collections::HashMap;
use std::sync::Arc;

use crate::heap;
use crate::point::RPoint;
use crate::semigroup::{comb_opt, Semigroup};
use crate::seq::tree::{DimTree, Sel};

/// Number of real points under a selection.
pub fn sel_count<const D: usize>(sel: &Sel<'_, D>) -> u64 {
    match sel {
        Sel::Node { tree, v } => tree.real_count(*v),
        Sel::Point { .. } => 1,
    }
}

/// Append the point ids under a selection to `out`.
pub fn sel_report<const D: usize>(sel: &Sel<'_, D>, out: &mut Vec<u32>) {
    match sel {
        Sel::Node { tree, v } => {
            let (a, b) = tree.real_span(*v);
            out.extend(tree.leaves[a..b].iter().map(|p| p.id));
        }
        Sel::Point { pt } => out.push(pt.id),
    }
}

/// Iterate the real points `(id, weight)` under a selection.
pub fn sel_points<'t, const D: usize>(
    sel: &Sel<'t, D>,
) -> impl Iterator<Item = &'t RPoint<D>> + 't {
    let slice: &'t [RPoint<D>] = match sel {
        Sel::Node { tree, v } => {
            let (a, b) = tree.real_span(*v);
            &tree.leaves[a..b]
        }
        Sel::Point { pt } => std::slice::from_ref(*pt),
    };
    slice.iter()
}

/// Bottom-up `f` values of the internal nodes of a final-dimension tree,
/// the sequential analog of Algorithm AssociativeFunction step 1
/// ("compute f(v) bottom-up for each node v in dimension d of T"). Slot
/// `v` holds `f(v)` for internal node `1 ≤ v < m`; slot 0 is unused.
/// Leaf values are one `lift` each and are not stored.
pub(crate) fn internal_folds<S: Semigroup, const D: usize>(
    sg: &S,
    tree: &DimTree<D>,
) -> Arc<[Option<S::Val>]> {
    let m = tree.m as usize;
    let mut vals: Vec<Option<S::Val>> = vec![None; m];
    // Parents of leaves read the points; higher nodes read their children.
    for v in ((m / 2).max(1)..m).rev() {
        vals[v] = comb_opt(sg, leaf_fold(sg, tree, 2 * v), leaf_fold(sg, tree, 2 * v + 1));
    }
    for v in (1..m / 2).rev() {
        vals[v] = comb_opt(sg, vals[2 * v].clone(), vals[2 * v + 1].clone());
    }
    vals.into()
}

/// `f` of leaf node `v` of `tree`: its point lifted, or `None` for a pad.
fn leaf_fold<S: Semigroup, const D: usize>(sg: &S, tree: &DimTree<D>, v: usize) -> Option<S::Val> {
    let i = v - tree.m as usize;
    (i < tree.r as usize).then(|| sg.lift(tree.leaves[i].id, tree.leaves[i].weight))
}

/// Bottom-up `f` values of the internal nodes of the final-dimension
/// trees one evaluation touches (Algorithm AssociativeFunction step 1),
/// keyed by tree address; the cache must not outlive the tree borrow it
/// serves. The sequential tree fills it per call; the distributed kernel
/// fills it per batch from each forest entry's memo, which outlives the
/// batch. Slot `v` of a tree's array holds `f(v)` for internal node
/// `1 ≤ v < m`.
pub struct AggCache<S: Semigroup> {
    map: HashMap<usize, Arc<[Option<S::Val>]>>,
}

impl<S: Semigroup> AggCache<S> {
    /// Empty cache.
    pub fn new() -> Self {
        AggCache { map: HashMap::new() }
    }

    /// Internal-node values of `tree`, computed on its first use through
    /// this cache.
    pub fn values_for<const D: usize>(&mut self, sg: &S, tree: &DimTree<D>) -> &[Option<S::Val>] {
        self.values_with(tree, || internal_folds(sg, tree))
    }

    /// Internal-node values of `tree`, taken from `fill` on its first use
    /// through this cache.
    pub(crate) fn values_with<const D: usize>(
        &mut self,
        tree: &DimTree<D>,
        fill: impl FnOnce() -> Arc<[Option<S::Val>]>,
    ) -> &[Option<S::Val>] {
        let key = tree as *const DimTree<D> as usize;
        self.map.entry(key).or_insert_with(fill)
    }
}

impl<S: Semigroup> Default for AggCache<S> {
    fn default() -> Self {
        Self::new()
    }
}

/// `⊗` of `f` over the points under a selection, using the cache for
/// canonical-node selections.
pub fn sel_fold<S: Semigroup, const D: usize>(
    sg: &S,
    sel: &Sel<'_, D>,
    cache: &mut AggCache<S>,
) -> Option<S::Val> {
    sel_fold_with(sg, sel, cache, |tree| internal_folds(sg, tree))
}

/// [`sel_fold`] whose cache misses are served by `fill` instead of a
/// fresh [`internal_folds`].
pub(crate) fn sel_fold_with<S: Semigroup, const D: usize>(
    sg: &S,
    sel: &Sel<'_, D>,
    cache: &mut AggCache<S>,
    fill: impl FnOnce(&DimTree<D>) -> Arc<[Option<S::Val>]>,
) -> Option<S::Val> {
    match *sel {
        Sel::Node { tree, v } if heap::is_leaf(tree.m as usize, v) => leaf_fold(sg, tree, v),
        Sel::Node { tree, v } => cache.values_with(tree, || fill(tree))[v].clone(),
        Sel::Point { pt } => Some(sg.lift(pt.id, pt.weight)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{RPoint, RRect, PAD_ID};
    use crate::semigroup::{Count, Sum};

    fn tree1d(n: u32, m: u32) -> DimTree<1> {
        let mut pts: Vec<RPoint<1>> =
            (0..n).map(|i| RPoint { ranks: [i], id: i, weight: (i + 1) as u64 }).collect();
        for t in 0..(m - n) {
            pts.push(RPoint { ranks: [n + t], id: PAD_ID, weight: 0 });
        }
        DimTree::build(0, pts)
    }

    #[test]
    fn counts_and_reports_clip_pads() {
        let t = tree1d(5, 8);
        let q = RRect { lo: [0], hi: [7] };
        let mut sels = Vec::new();
        t.search(&q, &mut sels);
        let total: u64 = sels.iter().map(sel_count).sum();
        assert_eq!(total, 5);
        let mut ids = Vec::new();
        for s in &sels {
            sel_report(s, &mut ids);
        }
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cached_fold_equals_direct_fold() {
        let t = tree1d(7, 8);
        let q = RRect { lo: [2], hi: [6] };
        let mut sels = Vec::new();
        t.search(&q, &mut sels);
        let mut cache = AggCache::new();
        let mut total: Option<u64> = None;
        for s in &sels {
            total = comb_opt(&Sum, total, sel_fold(&Sum, s, &mut cache));
        }
        // weights are i+1 → ranks 2..=6 have weights 3+4+5+6+7 = 25.
        assert_eq!(total, Some(25));
        // Count via the same machinery.
        let mut cache = AggCache::new();
        let mut cnt: Option<u64> = None;
        for s in &sels {
            cnt = comb_opt(&Count, cnt, sel_fold(&Count, s, &mut cache));
        }
        assert_eq!(cnt, Some(5));
    }

    #[test]
    fn cache_reuses_computed_arrays() {
        let t = tree1d(8, 8);
        let mut cache: AggCache<Count> = AggCache::new();
        let v1 = cache.values_for(&Count, &t)[1];
        let v2 = cache.values_for(&Count, &t)[1];
        assert_eq!(v1, Some(8));
        assert_eq!(v2, Some(8));
        assert_eq!(cache.map.len(), 1);
    }
}
