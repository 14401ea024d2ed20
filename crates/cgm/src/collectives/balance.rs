//! Weighted load balancing with resource replication (the *multisearch*
//! balancing step).
//!
//! Algorithm Search (steps 2–4 of the paper) must even out query load over
//! forest trees whose demand is arbitrarily skewed: it computes, for every
//! forest shard `F_j`, the congestion `c_j = ⌈|QF_j| / (|Q|/p)⌉`, makes
//! `c_j` **copies** of the shard, distributes the copies evenly, and then
//! routes every query to a processor holding a copy of the tree it wants to
//! visit. The paper cites the balancing procedure of the multisearch paper
//! (Atallah–Dehne–Miller–Rau-Chaplin–Tsay) as a black box with the
//! guarantee that each processor ends up with O(1) copies and an O(total/p)
//! share of the demand; this module implements and tests that contract.

use std::collections::BTreeMap;

use crate::ctx::Ctx;
use crate::payload::Payload;

/// Result of [`Ctx::load_balance`]: the resource copies shipped to this
/// processor and the work items routed to it.
///
/// Contract: every routed item's resource is either among the shipped
/// `resources` **or already owned by this processor** (owners serve as
/// copy 0 from their originals, so uncongested resources never move).
#[derive(Debug)]
pub struct BalanceOutcome<R, W> {
    /// `(resource id, copy)` pairs shipped to this processor.
    pub resources: Vec<(u64, R)>,
    /// `(resource id, item)` pairs to process locally.
    pub items: Vec<(u64, W)>,
}

impl Ctx<'_> {
    /// Balance `items` (each demanding the resource with its id) across
    /// processors, replicating congested resources.
    ///
    /// * `owned` — resources this processor currently owns (ids must be
    ///   globally unique; ownership is not consumed — owners retain their
    ///   originals independently of the copies shipped here).
    /// * `items` — local work items, each tagged with the resource id it
    ///   must be co-located with.
    ///
    /// Three supersteps: demand histogram (all-gather), resource shipping
    /// (all-to-all), item routing (all-to-all).
    ///
    /// Deterministic: all processors compute the same copy assignment from
    /// the shared histogram; copies of resource `j` are laid out round-robin
    /// starting at the cumulative copy count, and the `g`-th global item of
    /// resource `j` goes to copy `⌊g·c_j/d_j⌋`.
    pub fn load_balance<R, W>(
        &mut self,
        owned: &[(u64, R)],
        items: Vec<(u64, W)>,
    ) -> BalanceOutcome<R, W>
    where
        R: Payload + Clone,
        W: Payload,
    {
        let ids: Vec<u64> = owned.iter().map(|(rid, _)| *rid).collect();
        // Index the owned resources once: resolving each demanded shard
        // with a linear scan is quadratic when many owned shards are
        // demanded.
        let index: BTreeMap<u64, &R> = owned.iter().map(|(rid, r)| (*rid, r)).collect();
        let weighted = items.into_iter().map(|(rid, w)| (rid, w, 1)).collect();
        self.load_balance_weighted_with(
            &ids,
            |rid| (*index.get(&rid).expect("owned resource")).clone(),
            weighted,
        )
    }

    /// [`load_balance`](Ctx::load_balance) with owner-side lazy resource
    /// lookup (`get` runs once per shipped copy, only for demanded
    /// resources; with `R = Arc<_>` a copy is a refcount bump, still
    /// charged the pointee's full [`Payload`] words) and per-item weights:
    /// congestion `c_j` and item routing are computed over total *weight*
    /// rather than item count, which is what Algorithm Report needs (its
    /// items are selected segment trees weighed by their leaf counts).
    pub fn load_balance_weighted_with<R, W, F>(
        &mut self,
        owned_ids: &[u64],
        get: F,
        items: Vec<(u64, W, u64)>,
    ) -> BalanceOutcome<R, W>
    where
        R: Payload + Clone,
        W: Payload,
        F: Fn(u64) -> R,
    {
        let p = self.p();
        let me = self.rank();

        // --- Superstep 1: global demand histogram (by weight), plus
        //     resource ownership (owners keep copy 0 in place, so
        //     uncongested resources are never shipped at all — only the
        //     *congested* trees are copied, as in the paper) ------------
        let mut local_counts: BTreeMap<u64, u64> = BTreeMap::new();
        for (rid, _, w) in &items {
            *local_counts.entry(*rid).or_insert(0) += (*w).max(1);
        }
        // Entries: (rid, count, is_ownership). Ownership entries carry 0.
        let mut local_hist: Vec<(u64, u64, bool)> =
            local_counts.iter().map(|(&k, &v)| (k, v, false)).collect();
        local_hist.extend(owned_ids.iter().map(|&rid| (rid, 0, true)));
        let per_rank_hists: Vec<Vec<(u64, u64, bool)>> = self.all_gather(local_hist);

        // Global demand per resource, this processor's item offset within
        // each resource's global item sequence, and the owner map.
        let mut demand: BTreeMap<u64, u64> = BTreeMap::new();
        let mut my_offset: BTreeMap<u64, u64> = BTreeMap::new();
        let mut owner: BTreeMap<u64, usize> = BTreeMap::new();
        for (r, hist) in per_rank_hists.iter().enumerate() {
            for &(rid, cnt, is_owner) in hist {
                if is_owner {
                    let prev = owner.insert(rid, r);
                    debug_assert!(prev.is_none(), "resource {rid} has two owners");
                } else {
                    if r < me {
                        *my_offset.entry(rid).or_insert(0) += cnt;
                    }
                    *demand.entry(rid).or_insert(0) += cnt;
                }
            }
        }
        let total: u64 = demand.values().sum();

        // --- Deterministic copy assignment (computed identically
        //     everywhere from the shared histogram) ----------------------
        // c_j = ceil(d_j * p / total), clamped to [1, p]. Copy 0 stays
        // with the owner *while the owner's pinned demand stays under
        // twice the even share* (avoiding shipment of uncongested trees —
        // the paper only copies congested ones); past that the copy is
        // placed round-robin like the rest, preserving the O(total/p)
        // per-processor bound even when one owner holds many demanded
        // resources. Copies t ≥ 1 go round-robin over the other ranks,
        // offset by the cumulative slot (consecutive values mod (p-1) are
        // distinct for c-1 ≤ p-1 and never hit the copy-0 rank's slot 0).
        let share = if total == 0 { 1 } else { total.div_ceil(p as u64) };
        let mut plan: BTreeMap<u64, (u64, u64, usize)> = BTreeMap::new(); // rid -> (first_slot, c_j, copy0_rank)
        let mut cum_copies: u64 = 0;
        let mut pinned: Vec<u64> = vec![0; p];
        for (&rid, &d) in &demand {
            let c =
                if total == 0 { 1 } else { ((d * p as u64).div_ceil(total)).clamp(1, p as u64) };
            let own = *owner.get(&rid).expect("demanded resource has an owner");
            let quota = d / c;
            let copy0 = if pinned[own] + quota <= 2 * share {
                pinned[own] += quota;
                own
            } else {
                let slot = (cum_copies % p as u64) as usize;
                pinned[slot] += quota;
                slot
            };
            plan.insert(rid, (cum_copies, c, copy0));
            cum_copies += c;
        }
        let rank_of_copy = |first_slot: u64, c0: usize, t: u64| -> usize {
            if t == 0 {
                c0
            } else {
                debug_assert!(p > 1, "extra copies require p > 1");
                (c0 + 1 + ((first_slot + t - 1) % (p as u64 - 1)) as usize) % p
            }
        };

        // --- Superstep 2: ship copies (only displaced copy-0s and the
        //     extra copies of congested resources move) ------------------
        let mut res_out: Vec<Vec<(u64, R)>> = (0..p).map(|_| Vec::new()).collect();
        for &rid in owned_ids {
            if let Some(&(first, c, c0)) = plan.get(&rid) {
                for t in 0..c {
                    let dst = rank_of_copy(first, c0, t);
                    if dst != me {
                        res_out[dst].push((rid, get(rid)));
                    }
                }
            }
        }
        let resources: Vec<(u64, R)> =
            self.exchange("balance_resources", res_out).into_iter().flatten().collect();

        // --- Superstep 3: route items to their assigned copies ----------
        // The g-th unit of global weight of resource j goes to copy
        // ⌊g·c_j/d_j⌋; an item is routed by the weight-prefix of its first
        // unit.
        let mut item_out: Vec<Vec<(u64, W)>> = (0..p).map(|_| Vec::new()).collect();
        let mut next_local: BTreeMap<u64, u64> = BTreeMap::new();
        for (rid, item, w) in items {
            let &(first, c, c0) = plan.get(&rid).expect("demanded resource has a plan");
            let d = demand[&rid];
            let local_pos = next_local.entry(rid).or_insert(0);
            let g = my_offset.get(&rid).copied().unwrap_or(0) + *local_pos;
            *local_pos += w.max(1);
            let t = (g * c / d).min(c - 1);
            item_out[rank_of_copy(first, c0, t)].push((rid, item));
        }
        let items: Vec<(u64, W)> =
            self.exchange("balance_items", item_out).into_iter().flatten().collect();

        BalanceOutcome { resources, items }
    }
}

#[cfg(test)]
mod tests {
    use crate::Machine;

    /// Run a balance and return (per-rank resource ids, per-rank item counts,
    /// violations of co-location).
    fn run_balance(
        p: usize,
        owner_of: impl Fn(u64) -> usize + Sync,
        n_resources: u64,
        items_for_rank: impl Fn(usize) -> Vec<u64> + Sync,
    ) -> (Vec<Vec<u64>>, Vec<usize>, usize) {
        let m = Machine::new(p).unwrap();
        let outs = m.run(|ctx| {
            let owned: Vec<(u64, u64)> = (0..n_resources)
                .filter(|&rid| owner_of(rid) == ctx.rank())
                .map(|rid| (rid, rid * 1000)) // resource payload
                .collect();
            let items: Vec<(u64, u64)> =
                items_for_rank(ctx.rank()).into_iter().map(|rid| (rid, rid)).collect();
            let out = ctx.load_balance(&owned, items);
            (out.resources, out.items)
        });
        let mut violations = 0;
        let mut rids_per_rank = Vec::new();
        let mut items_per_rank = Vec::new();
        for (rank, (res, its)) in outs.iter().enumerate() {
            let rids: Vec<u64> = res.iter().map(|(rid, _)| *rid).collect();
            for (rid, _) in its {
                // Contract: a shipped copy arrived, or this rank owns it.
                if !rids.contains(rid) && owner_of(*rid) != rank {
                    violations += 1;
                }
            }
            // Owners never receive shipped self-copies.
            for rid in &rids {
                assert_ne!(owner_of(*rid), rank, "owner received a self-copy of {rid}");
            }
            // Resource payloads must be the owner's.
            for (rid, payload) in res {
                assert_eq!(*payload, rid * 1000);
            }
            items_per_rank.push(its.len());
            rids_per_rank.push(rids);
        }
        (rids_per_rank, items_per_rank, violations)
    }

    #[test]
    fn items_colocated_with_resources() {
        let (_, _, violations) = run_balance(
            4,
            |rid| (rid % 4) as usize,
            16,
            |r| (0..50).map(|i| ((r * 50 + i) % 16) as u64).collect(),
        );
        assert_eq!(violations, 0);
    }

    #[test]
    fn hot_spot_resource_is_replicated_and_split() {
        // Every item demands resource 0, owned by rank 3.
        let (rids, items, violations) = run_balance(8, |_| 3, 1, |_| vec![0u64; 100]);
        assert_eq!(violations, 0);
        // Resource 0 must be copied to every processor except its owner
        // (rank 3 serves from the original)...
        for (rank, r) in rids.iter().enumerate() {
            if rank == 3 {
                assert!(r.is_empty(), "owner got a self-copy");
            } else {
                assert!(r.contains(&0), "rank {rank} missing the hot copy");
            }
        }
        // ...and each processor gets exactly 100 items.
        assert!(items.iter().all(|&n| n == 100), "items per rank: {items:?}");
    }

    #[test]
    fn balanced_demand_stays_balanced() {
        let p = 4;
        let (_, items, violations) = run_balance(
            p,
            |rid| (rid % 4) as usize,
            4,
            |r| vec![r as u64; 25], // each rank demands "its" resource
        );
        assert_eq!(violations, 0);
        let total: usize = items.iter().sum();
        assert_eq!(total, 100);
        let max = *items.iter().max().unwrap();
        assert!(max <= 2 * (total / p) + 1, "max per-rank items {max} too high: {items:?}");
    }

    #[test]
    fn empty_demand_is_a_no_op() {
        let (rids, items, violations) = run_balance(4, |_| 0, 4, |_| Vec::new());
        assert_eq!(violations, 0);
        assert!(items.iter().all(|&n| n == 0));
        assert!(rids.iter().all(Vec::is_empty));
    }

    #[test]
    fn skewed_two_resource_demand() {
        // 90% of demand on resource 0, 10% on resource 1.
        let (_, items, violations) = run_balance(
            4,
            |rid| rid as usize,
            2,
            |r| {
                let mut v = vec![0u64; 90];
                if r == 0 {
                    v.extend(vec![1u64; 40]);
                }
                v
            },
        );
        assert_eq!(violations, 0);
        let total: usize = items.iter().sum();
        assert_eq!(total, 4 * 90 + 40);
        let max = *items.iter().max().unwrap();
        // Contract: no processor carries more than ~2x the even share.
        assert!(max <= 2 * total / 4 + 1, "items: {items:?}");
    }
}
