//! TicketAssign+ — parallel online insertion with per-vehicle ticket locks
//! (Pan & Li \[54\]).
//!
//! Several worker threads process the batch's requests concurrently.  Each
//! thread computes the cheapest feasible insertion across the fleet and then
//! "takes a ticket" on the chosen vehicle (a per-vehicle mutex): if the
//! vehicle's schedule changed since the evaluation, the thread re-evaluates
//! against the fresh state and either commits or falls back to the next-best
//! vehicle.  This reproduces the paper's observation that TicketAssign+
//! improves on pruneGDP's service rate through simultaneous decision making,
//! at the price of contention overhead on the runtime side.

use parking_lot::Mutex;
use structride_core::{BatchOutcome, DispatchContext, Dispatcher};
use structride_model::{insertion, Request, RequestId, Vehicle};

/// The TicketAssign+ parallel online dispatcher.
#[derive(Debug)]
pub struct TicketAssignPlus {
    threads: usize,
    /// Number of ticket conflicts observed (re-evaluations after a lock).
    conflicts: std::sync::atomic::AtomicUsize,
}

impl TicketAssignPlus {
    /// Creates the dispatcher with the given worker-thread count (at least 1).
    pub fn new(threads: usize) -> Self {
        TicketAssignPlus {
            threads: threads.max(1),
            conflicts: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Number of ticket conflicts (commit-time re-evaluations) so far.
    pub fn conflicts(&self) -> usize {
        self.conflicts.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl Default for TicketAssignPlus {
    fn default() -> Self {
        Self::new(4)
    }
}

/// Generation-stamped vehicle slot: the generation counter tells a committing
/// thread whether its evaluation is stale.
struct Slot<'a> {
    vehicle: &'a mut Vehicle,
    generation: u64,
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
        let engine = ctx.engine;
        if new_requests.is_empty() || vehicles.is_empty() {
            return BatchOutcome::empty();
        }
        let slots: Vec<Mutex<Slot<'_>>> = vehicles
            .iter_mut()
            .map(|v| {
                Mutex::new(Slot {
                    vehicle: v,
                    generation: 0,
                })
            })
            .collect();
        let assigned: Mutex<Vec<RequestId>> = Mutex::new(Vec::new());
        let conflicts = &self.conflicts;

        let chunk = new_requests.len().div_ceil(self.threads);
        crossbeam::scope(|scope| {
            for chunk_requests in new_requests.chunks(chunk.max(1)) {
                let slots = &slots;
                let assigned = &assigned;
                scope.spawn(move |_| {
                    for request in chunk_requests {
                        // Evaluate every vehicle under its ticket lock, keep a
                        // ranked list of feasible insertions.
                        let mut ranked: Vec<(f64, usize, u64)> = Vec::new();
                        for (vi, slot) in slots.iter().enumerate() {
                            let guard = slot.lock();
                            if let Some(out) =
                                insertion::insert_request(engine, guard.vehicle, request)
                            {
                                ranked.push((out.added_cost, vi, guard.generation));
                            }
                        }
                        ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite costs"));
                        // Try to commit to the cheapest vehicle; on a stale
                        // generation re-evaluate under the lock before falling
                        // through to the next candidate.
                        for (_, vi, seen_gen) in ranked {
                            let mut guard = slots[vi].lock();
                            if guard.generation != seen_gen {
                                conflicts.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            if let Some(out) =
                                insertion::insert_request(engine, guard.vehicle, request)
                            {
                                guard.vehicle.commit_schedule(out.schedule);
                                guard.generation += 1;
                                assigned.lock().push(request.id);
                                break;
                            }
                        }
                    }
                });
            }
        })
        .expect("ticket workers never panic");

        let mut ids = assigned.into_inner();
        ids.sort_unstable();
        BatchOutcome {
            assigned: ids,
            solver: None,
        }
    }

    fn memory_bytes(&self) -> usize {
        // Per-vehicle ticket locks are the only extra state.
        std::mem::size_of::<Self>() + self.threads * std::mem::size_of::<Mutex<u64>>()
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
    fn empty_batch_is_a_noop() {
        let engine = line_engine(8);
        let mut vehicles = vec![Vehicle::new(0, 0, 4)];
        let mut ticket = TicketAssignPlus::default();
        let out = ticket.dispatch_batch(&ctx(&engine, 0.0), &mut vehicles, &[]);
        assert!(out.assigned.is_empty());
        assert_eq!(ticket.conflicts(), 0);
    }
}
