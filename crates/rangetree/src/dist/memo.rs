//! The fold memo of a static level's forest entries.
//!
//! A level of the distributed structure never changes once Algorithm
//! Construct has built it: inserts and deletes replace whole levels. So
//! the bottom-up `f` values of its final-dimension trees — the forest-root
//! folds step 1 of Algorithm AssociativeFunction all-gathers and the node
//! values the forest finishes read — are the same for every batch. Each
//! [`ForestEntry`](super::ForestEntry) carries a [`FoldMemo`] that
//! computes them on first use, per semigroup, and keeps them until the
//! level is dropped. Congestion copies share their owner's entry by `Arc`,
//! so a copy reads the same memo.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use crate::semigroup::Semigroup;
use crate::seq::{internal_folds, DimTree};

/// Internal-node values ([`internal_folds`]) of one final-dimension tree.
type TreeFolds<V> = Arc<[Option<V>]>;

/// Lazily filled [`internal_folds`] of the final-dimension trees inside
/// one forest entry, keyed by the semigroup's `TypeId` and then by tree
/// address. Keying by type is sound because a [`Semigroup`]'s `lift` and
/// `comb` are functions of its type alone. The memo holds at most one
/// value per internal final-dimension node per semigroup type, so it is
/// bounded by the entry's size, not by the number of batches served.
#[derive(Default)]
pub struct FoldMemo {
    by_sg: Mutex<HashMap<TypeId, Box<dyn Any + Send + Sync>>>,
}

impl FoldMemo {
    /// [`internal_folds`] of `tree` under `S`, computed on first use.
    /// `tree` must live inside the entry that owns this memo, which keeps
    /// its address stable and unique for the memo's lifetime.
    pub(crate) fn tree_folds<S: Semigroup, const D: usize>(
        &self,
        sg: &S,
        tree: &DimTree<D>,
    ) -> TreeFolds<S::Val> {
        // A panicking `lift`/`comb` poisons the lock before anything is
        // inserted, so the map is always consistent.
        let mut by_sg = self.by_sg.lock().unwrap_or_else(PoisonError::into_inner);
        let trees = by_sg
            .entry(TypeId::of::<S>())
            .or_insert_with(|| Box::new(HashMap::<usize, TreeFolds<S::Val>>::new()))
            .downcast_mut::<HashMap<usize, TreeFolds<S::Val>>>()
            .expect("memo slots are keyed by their semigroup type");
        let key = tree as *const DimTree<D> as usize;
        trees.entry(key).or_insert_with(|| internal_folds(sg, tree)).clone()
    }
}

impl std::fmt::Debug for FoldMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let semigroups = self.by_sg.lock().unwrap_or_else(PoisonError::into_inner).len();
        f.debug_struct("FoldMemo").field("semigroups", &semigroups).finish()
    }
}
