//! RTV — trip-vehicle assignment (Alonso-Mora et al. \[27\]).
//!
//! The original method builds, per batch, the RV graph (which requests each
//! vehicle can serve and which request pairs are shareable), expands it into
//! the RTV graph of feasible *trips* per vehicle, and solves an integer linear
//! program that assigns at most one trip per vehicle and at most one vehicle
//! per request, minimising travel cost plus penalties for unassigned requests.
//!
//! This reproduction keeps the expensive part — the per-vehicle trip
//! enumeration over pairwise-shareable requests — and solves the trip choice
//! *exactly*: the deterministic branch-and-bound of
//! [`structride_core::lap::solve_group_choice`] over the same candidate set
//! replaces the glpk ILP, seeded with the earlier greedy + pairwise-swap
//! heuristic as its incumbent (kept as `Rtv::greedy_swap_reference`, the
//! test reference and the floor the exact answer can never fall below).  The
//! committed assignment is therefore the true ILP optimum whenever the node
//! budget holds — restoring the original method's optimality while staying
//! in-workspace — and `BatchOutcome::solver` reports the proof state.

use std::collections::{HashMap, HashSet};
use structride_core::lap::{self, SolverStats};
use structride_core::{
    enumerate_groups, BatchOutcome, CandidateGroup, DispatchContext, Dispatcher, PendingSnapshot,
};
use structride_model::{Request, RequestId, Vehicle};
use structride_sharegraph::{ShareabilityCheck, ShareabilityGraph};

/// One candidate assignment: a trip (request group) served by a vehicle.
#[derive(Debug, Clone)]
struct TripCandidate {
    vehicle: usize,
    group: CandidateGroup,
    /// Net objective gain of taking this trip: avoided penalties minus the
    /// added travel cost (larger is better).
    gain: f64,
}

/// The RTV batch dispatcher.
#[derive(Debug)]
pub struct Rtv {
    /// Penalty coefficient used in the assignment objective (the same `p_r`
    /// the unified cost uses).
    penalty_coefficient: f64,
    /// Pool of requests carried across batches.
    pending: HashMap<RequestId, Request>,
    /// Peak number of trip candidates (memory accounting, Fig. 14 — the RTV
    /// graph is by far the largest structure among the tested methods).
    peak_candidates: usize,
}

impl Rtv {
    /// Branch-and-bound node budget for the exact trip choice.  Generous for
    /// the reproduced batch sizes; if it ever trips, the commit falls back to
    /// the best solution found (≥ the greedy incumbent) and
    /// `BatchOutcome::solver` reports `optimal: false`.
    const NODE_BUDGET: u64 = 1 << 20;

    /// Creates the dispatcher with the given penalty coefficient.
    pub fn new(penalty_coefficient: f64) -> Self {
        Rtv {
            penalty_coefficient,
            pending: HashMap::new(),
            peak_candidates: 0,
        }
    }

    /// Greedy assignment + pairwise improvement over the trip candidates —
    /// the pre-exact commit path, kept as the branch-and-bound's incumbent
    /// seed and as the reference the exact answer is tested against.
    fn greedy_swap_reference(candidates: &[TripCandidate], n_vehicles: usize) -> Vec<usize> {
        // Greedy: take candidates by descending gain, respecting vehicle and
        // request exclusivity.
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by(|&a, &b| {
            candidates[b]
                .gain
                .partial_cmp(&candidates[a].gain)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut vehicle_used = vec![false; n_vehicles];
        let mut request_used: HashSet<RequestId> = HashSet::new();
        let mut chosen: Vec<usize> = Vec::new();
        for idx in order {
            let c = &candidates[idx];
            if c.gain <= 0.0 {
                continue;
            }
            if vehicle_used[c.vehicle] {
                continue;
            }
            if c.group.members.iter().any(|r| request_used.contains(r)) {
                continue;
            }
            vehicle_used[c.vehicle] = true;
            request_used.extend(c.group.members.iter().copied());
            chosen.push(idx);
        }
        // One pass of pairwise improvement: try replacing each chosen trip by
        // an unchosen one on the same vehicle that frees/serves requests with
        // a better total gain.  (A stand-in for the ILP's global optimality.)
        let mut improved = true;
        let mut guard = 0;
        while improved && guard < 8 {
            improved = false;
            guard += 1;
            for (pos, &chosen_idx) in chosen.clone().iter().enumerate() {
                let current = &candidates[chosen_idx];
                for (alt_idx, alt) in candidates.iter().enumerate() {
                    if alt.vehicle != current.vehicle || alt_idx == chosen_idx {
                        continue;
                    }
                    // Requests of the alternative must be free apart from the
                    // ones the current trip already holds.
                    let current_members: HashSet<RequestId> =
                        current.group.members.iter().copied().collect();
                    let conflict = alt
                        .group
                        .members
                        .iter()
                        .any(|r| !current_members.contains(r) && request_used.contains(r));
                    if conflict {
                        continue;
                    }
                    if alt.gain > current.gain + 1e-9 {
                        // Swap.
                        for r in &current.group.members {
                            request_used.remove(r);
                        }
                        request_used.extend(alt.group.members.iter().copied());
                        chosen[pos] = alt_idx;
                        improved = true;
                        break;
                    }
                }
            }
        }
        chosen
    }
}

impl Default for Rtv {
    fn default() -> Self {
        Self::new(10.0)
    }
}

impl Dispatcher for Rtv {
    fn name(&self) -> &'static str {
        "RTV"
    }

    fn dispatch_batch(
        &mut self,
        ctx: &DispatchContext<'_>,
        vehicles: &mut [Vehicle],
        new_requests: &[Request],
    ) -> BatchOutcome {
        let engine = ctx.engine;
        let now = ctx.now;
        for r in new_requests {
            self.pending.insert(r.id, r.clone());
        }
        self.pending.retain(|_, r| !r.is_expired(now));
        if self.pending.is_empty() || vehicles.is_empty() {
            return BatchOutcome::empty();
        }

        let pool_ids: Vec<RequestId> = {
            let mut ids: Vec<RequestId> = self.pending.keys().copied().collect();
            ids.sort_unstable();
            ids
        };

        // --- RV graph: pairwise-shareable requests (no angle pruning), one
        //     screened check for the whole batch. ---------------------------
        let max_capacity = vehicles.iter().map(|v| v.capacity).max().unwrap_or(4);
        let check = ShareabilityCheck::new(engine, max_capacity);
        let mut rv = ShareabilityGraph::new();
        for &id in &pool_ids {
            rv.add_node(id);
        }
        for i in 0..pool_ids.len() {
            for j in (i + 1)..pool_ids.len() {
                let a = &self.pending[&pool_ids[i]];
                let b = &self.pending[&pool_ids[j]];
                if check.shareable(a, b) {
                    rv.add_edge(a.id, b.id);
                }
            }
        }

        // --- RTV graph: feasible trips per vehicle. -------------------------
        let mut candidates: Vec<TripCandidate> = Vec::new();
        for (vi, vehicle) in vehicles.iter().enumerate() {
            let groups = enumerate_groups(
                ctx,
                &rv,
                &self.pending,
                &pool_ids,
                vehicle,
                vehicle.capacity as usize,
            );
            for group in groups {
                let gain = self.penalty_coefficient * group.members_direct_cost - group.added_cost;
                candidates.push(TripCandidate {
                    vehicle: vi,
                    group,
                    gain,
                });
            }
        }
        self.peak_candidates = self.peak_candidates.max(candidates.len());

        // --- exact assignment (branch-and-bound over the LAP relaxation). ---
        // The greedy+swap heuristic seeds the incumbent, so the exact answer
        // can never fall below the pre-exact commit path even on node-budget
        // exhaustion.
        let incumbent = Self::greedy_swap_reference(&candidates, vehicles.len());
        let group_candidates: Vec<lap::GroupCandidate> = candidates
            .iter()
            .map(|c| lap::GroupCandidate {
                vehicle: c.vehicle,
                requests: c.group.members.clone(),
                gain: c.gain,
            })
            .collect();
        // The per-batch deadline budget, when the fault injector carries one,
        // overrides the generous default — the B&B then trips early and the
        // commit degrades to the greedy+swap incumbent (never worse, by the
        // seeding contract).
        let budget = ctx
            .config
            .faults
            .solver_budget_at(ctx.batch_index)
            .unwrap_or(Self::NODE_BUDGET);
        let choice = lap::solve_group_choice(&group_candidates, &incumbent, budget);
        let mut outcome = BatchOutcome::empty();
        for &idx in &choice.chosen {
            let c = &candidates[idx];
            vehicles[c.vehicle].commit_schedule(c.group.schedule.clone());
            for rid in &c.group.members {
                self.pending.remove(rid);
                outcome.assigned.push(*rid);
            }
        }
        outcome.assigned.sort_unstable();
        outcome.solver = Some(SolverStats {
            rows: vehicles.len(),
            cols: candidates.len(),
            bb_nodes: choice.nodes,
            rounds: 1,
            optimal: choice.optimal,
            fallbacks: u64::from(!choice.optimal),
        });
        outcome
    }

    fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    fn memory_bytes(&self) -> usize {
        // The RTV graph (trip candidates, each holding a schedule) dominates —
        // the paper reports RTV using a multiple of the other methods' memory.
        self.pending.capacity() * (std::mem::size_of::<Request>() + 16) + self.peak_candidates * 512
    }

    fn take_pending(&mut self) -> Vec<Request> {
        let mut pool: Vec<Request> = self.pending.drain().map(|(_, r)| r).collect();
        pool.sort_unstable_by_key(|r| r.id);
        pool
    }

    fn restore_pending(&mut self, pool: Vec<Request>) {
        for r in pool {
            self.pending.insert(r.id, r);
        }
    }

    fn checkpoint_pending(&self) -> PendingSnapshot {
        let mut pool: Vec<Request> = self.pending.values().cloned().collect();
        pool.sort_unstable_by_key(|r| r.id);
        PendingSnapshot {
            pool,
            edges: Vec::new(),
        }
    }

    fn restore_snapshot(&mut self, snapshot: PendingSnapshot) {
        for r in snapshot.pool {
            self.pending.insert(r.id, r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, line_engine, req};

    #[test]
    fn assigns_shareable_requests_to_one_vehicle() {
        let engine = line_engine(6);
        let mut vehicles = vec![Vehicle::new(0, 0, 4), Vehicle::new(1, 5, 4)];
        let requests = vec![req(1, 0, 4, 40.0, 1.6), req(2, 1, 3, 20.0, 1.6)];
        let mut rtv = Rtv::default();
        let out = rtv.dispatch_batch(&ctx(&engine, 0.0), &mut vehicles, &requests);
        assert_eq!(out.assigned, vec![1, 2]);
        // Both requests ride the vehicle that starts at their corridor.
        assert!(vehicles[0].schedule.contains_request(1));
        assert!(vehicles[0].schedule.contains_request(2));
        assert!(vehicles[1].schedule.is_empty());
        // The exact solve reports its telemetry and proved optimality.
        let solver = out.solver.expect("exact RTV reports solver stats");
        assert_eq!(solver.rows, 2);
        assert!(solver.cols >= 1);
        assert!(solver.optimal);
    }

    #[test]
    fn each_request_and_vehicle_used_at_most_once() {
        let engine = line_engine(6);
        let mut vehicles = vec![Vehicle::new(0, 0, 2), Vehicle::new(1, 2, 2)];
        let requests = vec![
            req(1, 0, 3, 30.0, 1.6),
            req(2, 1, 4, 30.0, 1.6),
            req(3, 2, 5, 30.0, 1.6),
            req(4, 3, 5, 20.0, 1.6),
        ];
        let mut rtv = Rtv::default();
        let out = rtv.dispatch_batch(&ctx(&engine, 0.0), &mut vehicles, &requests);
        // No duplicates among assigned requests.
        let mut ids = out.assigned.clone();
        ids.dedup();
        assert_eq!(ids.len(), out.assigned.len());
        // Each assigned request sits in exactly one schedule.
        for id in &out.assigned {
            let holders = vehicles
                .iter()
                .filter(|v| v.schedule.contains_request(*id))
                .count();
            assert_eq!(holders, 1);
        }
        // Feasibility of all committed schedules.
        for v in &vehicles {
            if !v.schedule.is_empty() {
                assert!(v.evaluate_current(&engine).feasible);
            }
        }
    }

    #[test]
    fn pending_pool_carries_and_expires() {
        let engine = line_engine(6);
        let mut rtv = Rtv::default();
        // Nothing can be served without vehicles.
        let r = req(1, 0, 2, 20.0, 2.0);
        let out = rtv.dispatch_batch(&ctx(&engine, 0.0), &mut [], &[r]);
        assert!(out.assigned.is_empty());
        assert_eq!(rtv.pending_requests(), 1);
        // After its pickup deadline the request silently leaves the pool.
        let out = rtv.dispatch_batch(&ctx(&engine, 10_000.0), &mut [], &[]);
        assert!(out.assigned.is_empty());
        assert_eq!(rtv.pending_requests(), 0);
    }

    fn trip(vehicle: usize, members: Vec<RequestId>, gain: f64) -> TripCandidate {
        let direct = members.len() as f64 * 10.0;
        TripCandidate {
            vehicle,
            group: CandidateGroup {
                members,
                schedule: structride_model::Schedule::new(),
                travel_cost: 1.0,
                added_cost: 1.0,
                members_direct_cost: direct,
            },
            gain,
        }
    }

    /// The classic instance where greedy blocks itself: the pair trip on
    /// vehicle 0 (gain 288) beats either singleton alone, but the two
    /// singletons across both vehicles total 291.
    fn blocking_candidates() -> Vec<TripCandidate> {
        vec![
            trip(0, vec![1], 95.0),
            trip(0, vec![1, 2], 288.0),
            trip(1, vec![2], 196.0),
        ]
    }

    #[test]
    fn greedy_reference_prefers_higher_gain_trips() {
        // The retained pre-exact path: takes the dominant pair on vehicle 0
        // and correctly refuses to also hand r2 to vehicle 1 — but stops at
        // total gain 288, which is what the exact path must beat.
        let candidates = blocking_candidates();
        let chosen = Rtv::greedy_swap_reference(&candidates, 2);
        assert_eq!(chosen.len(), 1);
        assert_eq!(candidates[chosen[0]].group.members, vec![1, 2]);
    }

    #[test]
    fn exact_choice_beats_the_greedy_reference() {
        let candidates = blocking_candidates();
        let incumbent = Rtv::greedy_swap_reference(&candidates, 2);
        let group_candidates: Vec<lap::GroupCandidate> = candidates
            .iter()
            .map(|c| lap::GroupCandidate {
                vehicle: c.vehicle,
                requests: c.group.members.clone(),
                gain: c.gain,
            })
            .collect();
        let choice = lap::solve_group_choice(&group_candidates, &incumbent, Rtv::NODE_BUDGET);
        assert_eq!(choice.chosen, vec![0, 2], "the two singletons win");
        assert!((choice.gain - 291.0).abs() < 1e-9);
        assert!(choice.optimal);
    }

    #[test]
    fn exact_assignment_never_trails_the_reference() {
        // Deterministic LCG-generated candidate sets: across many shapes the
        // exact branch-and-bound's total gain must always be at least the
        // greedy+swap reference's (incumbent seeding makes this structural,
        // but the test guards the wiring).
        let mut state: u64 = 0x5eed_cafe;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for _ in 0..60 {
            let n = next(9) as usize;
            let candidates: Vec<TripCandidate> = (0..n)
                .map(|_| {
                    let vehicle = next(4) as usize;
                    let a = next(5) as RequestId;
                    let b = next(5) as RequestId;
                    let members = if a == b { vec![a] } else { vec![a, b] };
                    let gain = next(120) as f64 - 20.0;
                    trip(vehicle, members, gain)
                })
                .collect();
            let incumbent = Rtv::greedy_swap_reference(&candidates, 4);
            let reference_gain: f64 = incumbent.iter().map(|&i| candidates[i].gain).sum();
            let group_candidates: Vec<lap::GroupCandidate> = candidates
                .iter()
                .map(|c| lap::GroupCandidate {
                    vehicle: c.vehicle,
                    requests: c.group.members.clone(),
                    gain: c.gain,
                })
                .collect();
            let choice = lap::solve_group_choice(&group_candidates, &incumbent, Rtv::NODE_BUDGET);
            assert!(
                choice.gain >= reference_gain - 1e-9,
                "exact {} < reference {} on {:?}",
                choice.gain,
                reference_gain,
                candidates
                    .iter()
                    .map(|c| (c.vehicle, &c.group.members, c.gain))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn injected_deadline_budget_degrades_to_the_incumbent_and_counts_it() {
        use structride_core::{FaultConfig, StructRideConfig};
        // A 1-node budget on the greedy-blocking fixture trips before the
        // exact answer (291) can be proven: the commit stays at the seeded
        // incumbent — the pair trip with gain 288, the anytime floor.
        let candidates = blocking_candidates();
        let incumbent = Rtv::greedy_swap_reference(&candidates, 2);
        let group_candidates: Vec<lap::GroupCandidate> = candidates
            .iter()
            .map(|c| lap::GroupCandidate {
                vehicle: c.vehicle,
                requests: c.group.members.clone(),
                gain: c.gain,
            })
            .collect();
        let choice = lap::solve_group_choice(&group_candidates, &incumbent, 1);
        assert!(!choice.optimal, "a 1-node budget cannot prove optimality");
        assert!((choice.gain - 288.0).abs() < 1e-9, "incumbent floor holds");
        // The dispatch path reads the same budget from the fault config in
        // the context, and SolverStats counts one fallback exactly when the
        // solve lost its optimality proof.
        let engine = line_engine(6);
        let requests = vec![req(1, 0, 4, 40.0, 1.6), req(2, 1, 3, 40.0, 1.6)];
        let config = StructRideConfig::default().with_faults(FaultConfig {
            solver_node_budget: 1,
            ..FaultConfig::default()
        });
        let mut vehicles = vec![Vehicle::new(0, 0, 4), Vehicle::new(1, 1, 4)];
        let degraded_ctx = DispatchContext::new(&engine, config, 0.0);
        let mut rtv = Rtv::default();
        let out = rtv.dispatch_batch(&degraded_ctx, &mut vehicles, &requests);
        let solver = out.solver.expect("telemetry");
        assert_eq!(solver.fallbacks, u64::from(!solver.optimal));
        // Whatever the degraded mode committed is feasible — the incumbent
        // floor, never a dropped batch.
        for v in &vehicles {
            if !v.schedule.is_empty() {
                assert!(v.evaluate_current(&engine).feasible);
            }
        }
        // Without the injected budget the same batch is exact and reports
        // zero fallbacks — the inert default changes nothing.
        let mut vehicles = vec![Vehicle::new(0, 0, 4), Vehicle::new(1, 1, 4)];
        let mut exact = Rtv::default();
        let out = exact.dispatch_batch(&ctx(&engine, 0.0), &mut vehicles, &requests);
        let solver = out.solver.expect("telemetry");
        assert!(solver.optimal);
        assert_eq!(solver.fallbacks, 0);
    }

    #[test]
    fn memory_reflects_rtv_graph_size() {
        let engine = line_engine(6);
        let mut vehicles = vec![Vehicle::new(0, 0, 4)];
        let mut rtv = Rtv::default();
        let requests: Vec<Request> = (0..5)
            .map(|i| req(i, i % 3, (i % 3) + 2, 20.0, 2.0))
            .collect();
        rtv.dispatch_batch(&ctx(&engine, 0.0), &mut vehicles, &requests);
        assert!(rtv.memory_bytes() > 512);
    }
}
