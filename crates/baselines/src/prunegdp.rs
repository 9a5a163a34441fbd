//! pruneGDP — the online insertion baseline (Tong et al. \[37\]).
//!
//! Requests are handled strictly in arrival order: each one is inserted into
//! the current schedule of the vehicle whose total travel cost increases the
//! least (linear insertion, no reordering).  A request that fits nowhere is
//! rejected immediately — the online methods have no working pool, which is
//! exactly why their service rates trail the batch methods in the paper.

use structride_core::{BatchOutcome, DispatchContext, Dispatcher};
use structride_model::{insertion, InsertionOutcome, Request, Vehicle};

/// The pruneGDP online greedy dispatcher.
#[derive(Debug, Default)]
pub struct PruneGdp {
    rejected: usize,
}

impl PruneGdp {
    /// Creates the dispatcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of requests that could not be inserted anywhere.
    pub fn rejected(&self) -> usize {
        self.rejected
    }
}

impl Dispatcher for PruneGdp {
    fn name(&self) -> &'static str {
        "pruneGDP"
    }

    fn dispatch_batch(
        &mut self,
        ctx: &DispatchContext<'_>,
        vehicles: &mut [Vehicle],
        new_requests: &[Request],
    ) -> BatchOutcome {
        let engine = ctx.engine;
        let mut outcome = BatchOutcome::empty();
        for request in new_requests {
            let mut best: Option<(usize, InsertionOutcome)> = None;
            let mut consider = |vi: usize| {
                let vehicle = &vehicles[vi];
                if let Some(out) = insertion::insert_request(engine, vehicle, request) {
                    let better = best
                        .as_ref()
                        .map(|(_, b)| out.added_cost < b.added_cost - 1e-12)
                        .unwrap_or(true);
                    if better {
                        best = Some((vi, out));
                    }
                }
            };
            if let Some(index) = ctx.fleet_index {
                // Certified prescreen: vehicles failing the reachability
                // bound provably cannot meet the pickup deadline, so
                // skipping them cannot change which insertion wins (the
                // survivors keep ascending fleet order, preserving the
                // first-within-epsilon tie-break).
                let network = engine.network();
                let p = network.coord(request.source);
                let survivors = index.certified_candidates(
                    network,
                    vehicles,
                    p.x,
                    p.y,
                    request.pickup_deadline,
                );
                ctx.scratch
                    .count_prescreen_pruned((vehicles.len() - survivors.len()) as u64);
                ctx.scratch
                    .count_insertion_evaluations(survivors.len() as u64);
                for vi in survivors {
                    consider(vi);
                }
            } else {
                ctx.scratch
                    .count_insertion_evaluations(vehicles.len() as u64);
                for vi in 0..vehicles.len() {
                    consider(vi);
                }
            }
            match best {
                Some((vi, out)) => {
                    vehicles[vi].commit_schedule(out.schedule);
                    outcome.assigned.push(request.id);
                }
                None => self.rejected += 1,
            }
        }
        outcome
    }

    fn memory_bytes(&self) -> usize {
        // Online first-come-first-serve: no batch structures beyond the
        // vehicles' own schedules.
        std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, line_engine, req};

    #[test]
    fn assigns_to_cheapest_vehicle() {
        let engine = line_engine(5);
        let mut vehicles = vec![Vehicle::new(0, 4, 4), Vehicle::new(1, 1, 4)];
        let mut gdp = PruneGdp::new();
        let r = req(1, 1, 3, 20.0, 1.5);
        let out = gdp.dispatch_batch(&ctx(&engine, 0.0), &mut vehicles, &[r]);
        assert_eq!(out.assigned, vec![1]);
        // Vehicle 1 is already at the pickup, so it gets the job.
        assert!(vehicles[1].schedule.contains_request(1));
        assert!(vehicles[0].schedule.is_empty());
        assert_eq!(gdp.rejected(), 0);
    }

    #[test]
    fn rejects_infeasible_requests_immediately() {
        let engine = line_engine(5);
        let mut vehicles = vec![Vehicle::new(0, 4, 4)];
        let mut gdp = PruneGdp::new();
        // Pickup deadline too tight for a vehicle 40 s away.
        let r = req(1, 0, 2, 20.0, 1.1);
        let out = gdp.dispatch_batch(&ctx(&engine, 0.0), &mut vehicles, &[r]);
        assert!(out.assigned.is_empty());
        assert_eq!(gdp.rejected(), 1);
    }

    #[test]
    fn later_requests_share_existing_schedules() {
        let engine = line_engine(5);
        let mut vehicles = vec![Vehicle::new(0, 0, 4)];
        let mut gdp = PruneGdp::new();
        let r1 = req(1, 0, 4, 40.0, 1.6);
        let r2 = req(2, 1, 3, 20.0, 1.6);
        let out = gdp.dispatch_batch(&ctx(&engine, 0.0), &mut vehicles, &[r1, r2]);
        assert_eq!(out.assigned, vec![1, 2]);
        let v = &vehicles[0];
        assert!(v.schedule.contains_request(1) && v.schedule.contains_request(2));
        // Sharing costs no extra distance on the straight line.
        assert!((v.planned_cost(&engine) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn memory_footprint_is_negligible() {
        assert!(PruneGdp::new().memory_bytes() < 1024);
    }
}
