//! GAS — the additive-tree batch baseline (Zeng et al. \[33\]).
//!
//! Per batch, GAS considers the pooled requests (new plus carried-over) and
//! lets every vehicle — visited in a seeded random order, as in the paper —
//! enumerate its feasible request groups with the additive tree and grab the
//! most *profitable* one, where profit is the total direct length of the
//! served requests (ties broken by smaller added travel cost).  Unlike SARD it
//! neither prunes combinations with the shareability graph nor reasons about
//! the structure left behind, which is why it enumerates far more candidates
//! (slower) and achieves slightly lower service rates in the paper.

use crate::complete_graph;
use structride_core::{
    enumerate_groups, BatchOutcome, DispatchContext, Dispatcher, PendingPool, PendingSnapshot,
};
use structride_model::{Request, Vehicle};

/// The GAS batch dispatcher.
#[derive(Debug)]
pub struct Gas {
    /// Requests waiting to be assigned (the pool carried across batches).
    pending: PendingPool,
    /// Seed for the random vehicle visiting order.
    seed: u64,
    /// Peak number of enumerated groups (memory accounting for Fig. 14).
    peak_groups: usize,
}

impl Gas {
    /// Creates the dispatcher with the given ordering seed.
    pub fn new(seed: u64) -> Self {
        Gas {
            pending: PendingPool::default(),
            seed,
            peak_groups: 0,
        }
    }

    /// A deterministic pseudo-random permutation of `0..n` (xorshift-based
    /// Fisher–Yates) — enough randomness for the batch ordering without
    /// pulling a full RNG dependency into the baseline.
    fn vehicle_order(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        let mut state = self.seed | 1;
        for i in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = (state as usize) % (i + 1);
            order.swap(i, j);
        }
        self.seed = state;
        order
    }
}

impl Default for Gas {
    fn default() -> Self {
        Self::new(0x5EED)
    }
}

impl Dispatcher for Gas {
    fn name(&self) -> &'static str {
        "GAS"
    }

    fn dispatch_batch(
        &mut self,
        ctx: &DispatchContext<'_>,
        vehicles: &mut [Vehicle],
        new_requests: &[Request],
    ) -> BatchOutcome {
        // Pool maintenance: add the batch, drop expired requests.
        self.pending.admit(new_requests, ctx.now);
        if self.pending.is_empty() || vehicles.is_empty() {
            return BatchOutcome::empty();
        }

        // The additive tree enumerates all combinations; the complete graph
        // disables clique pruning.  Its members all have equal degree, so one
        // graph over the admitted pool serves every vehicle's sub-pool.
        let graph = complete_graph(&self.pending.ids());
        let mut outcome = BatchOutcome::empty();
        let order = self.vehicle_order(vehicles.len());
        for vi in order {
            if self.pending.is_empty() {
                break;
            }
            let mut pool_ids = self.pending.ids();
            let vehicle = &vehicles[vi];
            if let Some(index) = ctx.fleet_index {
                // Certified prescreen: a request whose pickup deadline cannot
                // be met even at the network-wide fastest speed from the
                // vehicle's position would fail level-1 insertion feasibility
                // anyway, so dropping it leaves the enumerated groups — and
                // their count — unchanged.
                let min_tpm = index.min_time_per_meter();
                if min_tpm > 0.0 {
                    let network = ctx.engine.network();
                    let vp = network.coord(vehicle.node);
                    let before = pool_ids.len();
                    pool_ids.retain(|rid| {
                        let r = &self.pending.requests()[rid];
                        let dist = network.coord(r.source).distance(&vp);
                        vehicle.free_at + min_tpm * dist
                            <= r.pickup_deadline + structride_core::REACH_GRACE
                    });
                    ctx.scratch
                        .count_prescreen_pruned((before - pool_ids.len()) as u64);
                }
            }
            let groups = enumerate_groups(
                ctx,
                &graph,
                self.pending.requests(),
                &pool_ids,
                vehicle,
                vehicle.capacity as usize,
            );
            self.peak_groups = self.peak_groups.max(groups.len());
            // Profit = total direct length of the served requests.
            let best = groups.into_iter().max_by(|a, b| {
                a.members_direct_cost
                    .total_cmp(&b.members_direct_cost)
                    .then_with(|| b.added_cost.total_cmp(&a.added_cost))
            });
            if let Some(best) = best {
                vehicles[vi].commit_schedule(best.schedule.clone());
                for &rid in &best.members {
                    self.pending.remove(rid);
                    outcome.assigned.push(rid);
                }
            }
        }
        outcome.assigned.sort_unstable();
        outcome
    }

    fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    fn memory_bytes(&self) -> usize {
        // The pool plus the peak additive-tree size (groups hold a schedule of
        // a handful of way-points each).
        self.pending.peak_bytes() + self.peak_groups * 256
    }

    fn take_pending(&mut self) -> Vec<Request> {
        self.pending.take()
    }

    fn checkpoint_pending(&self) -> PendingSnapshot {
        self.pending.snapshot()
    }

    fn restore_snapshot(&mut self, snapshot: PendingSnapshot) {
        self.pending.restore(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, line_engine, req};

    #[test]
    fn picks_the_most_profitable_group() {
        let engine = line_engine(6);
        let mut vehicles = vec![Vehicle::new(0, 0, 4)];
        // A long request plus a compatible short one versus a lone medium one:
        // the pair has the larger total length, so GAS serves the pair.
        let requests = vec![
            req(1, 0, 5, 50.0, 1.8),
            req(2, 1, 4, 30.0, 1.8),
            req(3, 5, 2, 30.0, 1.1),
        ];
        let mut gas = Gas::default();
        let out = gas.dispatch_batch(&ctx(&engine, 0.0), &mut vehicles, &requests);
        assert!(out.assigned.contains(&1));
        assert!(out.assigned.contains(&2));
        // Request 3 (reverse direction, tight deadline) stays pending.
        assert!(!out.assigned.contains(&3));
        assert_eq!(gas.pending_requests(), 1);
    }

    #[test]
    fn pending_requests_retry_and_expire() {
        let engine = line_engine(6);
        // No vehicles at all: everything stays pending.
        let mut gas = Gas::default();
        let r = req(1, 0, 2, 20.0, 2.0);
        let out = gas.dispatch_batch(&ctx(&engine, 0.0), &mut [], std::slice::from_ref(&r));
        assert!(out.assigned.is_empty());
        assert_eq!(gas.pending_requests(), 1);
        // Later, with a vehicle and before expiry, the request is served.
        let mut vehicles = vec![Vehicle::new(0, 0, 4)];
        let out = gas.dispatch_batch(&ctx(&engine, 5.0), &mut vehicles, &[]);
        assert_eq!(out.assigned, vec![1]);
        assert_eq!(gas.pending_requests(), 0);
        // Expired requests are silently dropped from the pool.
        let stale = req(2, 0, 2, 20.0, 1.5);
        let out = gas.dispatch_batch(&ctx(&engine, 10_000.0), &mut vehicles, &[stale]);
        assert!(out.assigned.is_empty());
        assert_eq!(gas.pending_requests(), 0);
    }

    #[test]
    fn vehicle_order_is_a_permutation() {
        let mut gas = Gas::new(7);
        let order = gas.vehicle_order(10);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        // Subsequent calls reshuffle.
        let order2 = gas.vehicle_order(10);
        let mut sorted2 = order2.clone();
        sorted2.sort_unstable();
        assert_eq!(sorted2, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn memory_grows_with_enumeration() {
        let engine = line_engine(6);
        let mut vehicles = vec![Vehicle::new(0, 0, 4)];
        let mut gas = Gas::default();
        let base = gas.memory_bytes();
        let requests: Vec<Request> = (0..5)
            .map(|i| req(i, i % 3, (i % 3) + 2, 20.0, 2.0))
            .collect();
        gas.dispatch_batch(&ctx(&engine, 0.0), &mut vehicles, &requests);
        assert!(gas.memory_bytes() > base);
    }
}
