//! TicketAssign+ — parallel online insertion with per-vehicle tickets
//! (Pan & Li \[54\]).
//!
//! Several logical workers process the batch's requests concurrently, worker
//! `t` owning the `t`-th contiguous chunk.  The batch runs in rounds: round
//! `k` takes each worker's `k`-th request and ranks the fleet by the cost its
//! cheapest insertion adds, cheapest first and ties in fleet order, in one
//! scoring pass over the round's requests
//! ([`DispatchContext::score_pool`]) that reads the fleet as the round found
//! it.  The requests then commit in worker order: each walks its ranked
//! vehicles and "takes the ticket" of the first that can still absorb it,
//! re-running that vehicle's insertion for the schedule.  A vehicle that took
//! no commit this round still has the schedule its ranking read, so it
//! absorbs the request; one that already took a commit is a ticket conflict
//! and is re-evaluated against its new schedule.  A round holds one
//! `(cost, vehicle)` entry per ranked vehicle and no schedule.  This
//! reproduces the paper's observation that TicketAssign+ improves on
//! pruneGDP's service rate through simultaneous decision making.  Where Pan &
//! Li's threads race on per-vehicle locks, the commit order here is fixed, so
//! decisions are a pure function of the fleet and the batch.

use structride_core::{BatchOutcome, DispatchContext, Dispatcher};
use structride_model::{insertion, Request, Vehicle};

/// The TicketAssign+ parallel online dispatcher.
#[derive(Debug)]
pub struct TicketAssignPlus {
    threads: usize,
    /// Number of ticket conflicts observed (re-evaluations of a vehicle that
    /// already took a commit in the same round).
    conflicts: usize,
    /// Peak bytes of the ranked vehicles one round holds (Fig. 14).
    peak_ranked_bytes: usize,
}

impl TicketAssignPlus {
    /// Creates the dispatcher with the given logical worker count (at least 1).
    pub fn new(threads: usize) -> Self {
        TicketAssignPlus {
            threads: threads.max(1),
            conflicts: 0,
            peak_ranked_bytes: 0,
        }
    }

    /// Number of ticket conflicts (commit-time re-evaluations) so far.
    pub fn conflicts(&self) -> usize {
        self.conflicts
    }
}

impl Default for TicketAssignPlus {
    fn default() -> Self {
        Self::new(4)
    }
}

impl Dispatcher for TicketAssignPlus {
    fn name(&self) -> &'static str {
        "TicketAssign+"
    }

    fn dispatch_batch(
        &mut self,
        ctx: &DispatchContext<'_>,
        vehicles: &mut [Vehicle],
        new_requests: &[Request],
    ) -> BatchOutcome {
        if new_requests.is_empty() || vehicles.is_empty() {
            return BatchOutcome::empty();
        }
        let chunk = new_requests.len().div_ceil(self.threads);
        // Round (1-based) of each vehicle's latest commit, 0 before any.
        let mut committed_in = vec![0u64; vehicles.len()];
        let mut assigned = Vec::new();
        for round in 0..chunk {
            let requests: Vec<&Request> = new_requests
                .chunks(chunk)
                .filter_map(|worker| worker.get(round))
                .collect();
            let ranked = ctx.score_pool(vehicles, &requests, vehicles.len());
            // Fig. 14: one `(cost, vehicle)` entry per ranked vehicle.
            let held: usize = ranked.iter().map(Vec::len).sum();
            self.peak_ranked_bytes = self.peak_ranked_bytes.max(held * size_of::<(f64, usize)>());
            let stamp = round as u64 + 1;
            for (request, ranked) in requests.into_iter().zip(ranked) {
                for (_, vi) in ranked {
                    if committed_in[vi] == stamp {
                        self.conflicts += 1;
                    }
                    if let Some(out) = insertion::insert_request(ctx.engine, &vehicles[vi], request)
                    {
                        vehicles[vi].commit_schedule(out.schedule);
                        committed_in[vi] = stamp;
                        assigned.push(request.id);
                        break;
                    }
                }
            }
        }
        assigned.sort_unstable();
        BatchOutcome {
            assigned,
            solver: None,
        }
    }

    fn memory_bytes(&self) -> usize {
        self.peak_ranked_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, line_engine, req};

    #[test]
    fn assigns_requests_in_parallel_without_violating_schedules() {
        let engine = line_engine(8);
        let mut vehicles: Vec<Vehicle> = (0..4).map(|i| Vehicle::new(i, i * 2, 4)).collect();
        let requests: Vec<Request> = (0..12)
            .map(|i| req(i, i % 6, (i % 6) + 2, 20.0, 2.0))
            .collect();
        let mut ticket = TicketAssignPlus::new(3);
        let out = ticket.dispatch_batch(&ctx(&engine, 0.0), &mut vehicles, &requests);
        assert!(!out.assigned.is_empty());
        // No request is assigned twice.
        let mut ids = out.assigned.clone();
        ids.dedup();
        assert_eq!(ids.len(), out.assigned.len());
        // Every committed schedule is feasible from the vehicle's state.
        for v in &vehicles {
            if !v.schedule.is_empty() {
                assert!(v.evaluate_current(&engine).feasible);
                assert!(v.schedule.is_well_formed());
            }
        }
        // Every assigned request appears in exactly one schedule.
        for id in &out.assigned {
            let holders = vehicles
                .iter()
                .filter(|v| v.schedule.contains_request(*id))
                .count();
            assert_eq!(holders, 1, "request {id} held by {holders} vehicles");
        }
    }

    #[test]
    fn single_thread_matches_sequential_greedy_semantics() {
        let engine = line_engine(8);
        let mut vehicles = vec![Vehicle::new(0, 0, 4)];
        let requests = vec![req(1, 0, 4, 40.0, 1.6), req(2, 1, 3, 20.0, 1.6)];
        let mut ticket = TicketAssignPlus::new(1);
        let out = ticket.dispatch_batch(&ctx(&engine, 0.0), &mut vehicles, &requests);
        assert_eq!(out.assigned, vec![1, 2]);
        assert!((vehicles[0].planned_cost(&engine) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn second_worker_on_a_taken_vehicle_conflicts_and_falls_through() {
        // Two workers, one request each, both 1 -> 2: the single-seat vehicle
        // at node 0 is both requests' cheapest, the one at node 3 their next.
        // After worker 0 commits, carrying request 2 as well would drop it at
        // t = 40, past its deadline of 35, so worker 1 falls through.
        let engine = line_engine(8);
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            pool.install(|| {
                let mut vehicles = vec![Vehicle::new(0, 0, 1), Vehicle::new(1, 3, 1)];
                let requests = vec![req(1, 1, 2, 10.0, 3.5), req(2, 1, 2, 10.0, 3.5)];
                let mut ticket = TicketAssignPlus::new(2);
                let out = ticket.dispatch_batch(&ctx(&engine, 0.0), &mut vehicles, &requests);
                let schedules: Vec<_> = vehicles.into_iter().map(|v| v.schedule).collect();
                (out.assigned, schedules, ticket.conflicts())
            })
        };
        let (assigned, schedules, conflicts) = run(1);
        assert_eq!(assigned, vec![1, 2]);
        assert_eq!(conflicts, 1);
        assert!(schedules[0].contains_request(1));
        assert!(schedules[1].contains_request(2));
        assert_eq!(run(4), (assigned, schedules, conflicts));
    }

    #[test]
    fn memory_grows_with_the_fleet() {
        // Every vehicle can absorb every request, so a round ranks the whole
        // fleet per request: four times the fleet, four times the entries.
        let engine = line_engine(8);
        let requests: Vec<Request> = (0..4).map(|i| req(i, 1, 3, 20.0, 3.0)).collect();
        let memory = |fleet: u32| {
            let mut vehicles: Vec<Vehicle> = (0..fleet).map(|i| Vehicle::new(i, 1, 4)).collect();
            let mut ticket = TicketAssignPlus::new(4);
            ticket.dispatch_batch(&ctx(&engine, 0.0), &mut vehicles, &requests);
            ticket.memory_bytes()
        };
        let (small, large) = (memory(2), memory(8));
        assert!(small > 0);
        assert_eq!(large, 4 * small);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let engine = line_engine(8);
        let mut vehicles = vec![Vehicle::new(0, 0, 4)];
        let mut ticket = TicketAssignPlus::default();
        let out = ticket.dispatch_batch(&ctx(&engine, 0.0), &mut vehicles, &[]);
        assert!(out.assigned.is_empty());
        assert_eq!(ticket.conflicts(), 0);
    }
}
