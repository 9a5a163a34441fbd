//! pruneGDP — the online insertion baseline (Tong et al. \[37\]).
//!
//! Requests are handled strictly in arrival order: each one is inserted into
//! the current schedule of the vehicle whose total travel cost increases the
//! least (linear insertion, no reordering).  A request that fits nowhere is
//! rejected immediately — the online methods have no working pool, which is
//! exactly why their service rates trail the batch methods in the paper.

use structride_core::{BatchOutcome, DispatchContext, Dispatcher};
use structride_model::{Request, Vehicle};

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
        let assigned = crate::insert_cheapest(ctx, vehicles, new_requests, 1e-12);
        self.rejected += new_requests.len() - assigned.len();
        BatchOutcome {
            assigned,
            solver: None,
        }
    }

    fn memory_bytes(&self) -> usize {
        // A constant on purpose: online first-come-first-serve holds one
        // candidate insertion at a time and no batch structure beyond the
        // vehicles' own schedules, so nothing grows with the run.
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
