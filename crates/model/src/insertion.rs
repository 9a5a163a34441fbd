//! The linear insertion operator (§IV-A, following Tong et al. \[37\] and
//! Xu et al. \[36\]).
//!
//! Linear insertion places the pickup and drop-off of a *new* request into an
//! existing schedule **without reordering** the way-points already planned,
//! choosing the pair of positions that minimises the increase in total travel
//! cost while keeping the schedule feasible.  The paper uses it everywhere:
//! for the shareability test, inside the grouping tree (Algorithm 2), in SARD
//! itself and in the pruneGDP / GAS / TicketAssign+ baselines.
//!
//! The search tries every `(pickup, dropoff)` position pair and walks the
//! candidate — the base schedule's slices with the two new stops spliced in
//! (`Schedule::splice`) — through the one feasibility [`Walk`], without
//! building it; only the winning candidate is materialised as a
//! [`Schedule`].  Buffer times (Definition 3) are used to skip position
//! pairs that cannot possibly absorb the extra detour, which keeps the
//! common case close to the linear behaviour the paper describes while
//! remaining exact.
//!
//! Before any shortest-path query a position is screened on the engine's
//! certified [`LegBound`](structride_roadnet::LegBound), read once per
//! call: the pickup-deadline and buffer tests run first on bound legs, and
//! each candidate's suffix is walked on bound legs before its exact walk.
//! A bound leg is never above the exact `cost`, and every test is monotone
//! in its legs, so the screen skips only what the exact tests reject: the
//! outcome is bit-identical, and most failing insertions issue no query
//! beyond the base schedule's own legs.

use crate::request::Request;
use crate::schedule::{Schedule, Walk, Waypoint, TIME_EPS};
use crate::vehicle::Vehicle;
use structride_roadnet::{NodeId, SpEngine};

/// The result of a successful insertion.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertionOutcome {
    /// Index at which the pickup way-point was inserted.
    pub pickup_pos: usize,
    /// Index at which the drop-off way-point ended up (after the pickup was
    /// inserted, so `dropoff_pos > pickup_pos`).
    pub dropoff_pos: usize,
    /// The new schedule including the request.
    pub schedule: Schedule,
    /// Increase in travel cost relative to the base schedule.
    pub added_cost: f64,
    /// Total travel cost of the new schedule.
    pub new_travel_cost: f64,
}

/// Inserts `request` into `base`, starting from an explicit vehicle state.
///
/// Returns `None` if no feasible position pair exists (or the base schedule is
/// itself infeasible from this state).
pub fn insert_into(
    engine: &SpEngine,
    start_node: NodeId,
    start_time: f64,
    onboard: u32,
    capacity: u32,
    base: &Schedule,
    request: &Request,
) -> Option<InsertionOutcome> {
    if request.riders > capacity {
        return None;
    }
    // An empty base evaluates feasible, with no travel and no buffers.
    let base_eval = base.evaluate(engine, start_node, start_time, onboard, capacity);
    if !base_eval.feasible {
        return None;
    }
    let buffers = base.buffer_times(&base_eval);
    let (wps, n) = (base.waypoints(), base.len());
    let pickup = Waypoint::pickup(request);
    let dropoff = Waypoint::dropoff(request);
    let start = Walk::new(start_node, start_time, onboard, capacity);
    // Read once, from the engine whose `cost` the exact tests below use.
    let bound = engine.leg_bound();
    let lower = |u, v| bound.lower_bound(u, v);
    let deadline = request.pickup_deadline + TIME_EPS;
    // The cheapest feasible candidate so far: `(i, j, added, travel)`.
    let mut best: Option<(usize, usize, f64, f64)> = None;
    for i in 0..=n {
        // Cheap pruning: the earliest the vehicle could reach the pickup when
        // it is placed at position i is the service time of way-point i-1 plus
        // the direct leg; if that already misses the pickup deadline, no j can
        // fix it for this i.  The bound leg is never above the exact one, so
        // a miss on it is a miss on the exact leg too, found without a query.
        let (prev_node, prev_time) = match i {
            0 => (start_node, start_time),
            _ => (wps[i - 1].node, base_eval.service_times[i - 1]),
        };
        if prev_time + lower(prev_node, request.source) > deadline {
            continue;
        }
        let to_source = engine.cost(prev_node, request.source);
        let reach = prev_time + to_source;
        if reach > deadline {
            continue;
        }
        // Extra delay caused just by visiting the pickup between i-1 and i:
        // the detour distance plus any waiting for the request release at the
        // new pickup.  `buffers[i]` is the exact maximum arrival delay
        // way-point i can take (downstream waiting absorption included, see
        // `Schedule::buffer_times`), and inserting the drop-off can only add
        // further delay, so exceeding the buffer rules out every j for this i.
        // The wait is never negative, so the detour on a bound second leg
        // screens first, as above.
        if let Some(next) = wps.get(i) {
            let direct = engine.cost(prev_node, next.node);
            let slack = buffers[i] + TIME_EPS;
            if (to_source + lower(request.source, next.node)) - direct > slack {
                continue;
            }
            let via = to_source + engine.cost(request.source, next.node);
            let delay = (via - direct) + (request.release - reach).max(0.0);
            if delay > slack {
                continue;
            }
        }
        // Each candidate's exact walk reaches way-point i-1 at its base
        // service time, so the candidate's suffix walked from there on bound
        // legs arrives no later anywhere: a deadline it misses is missed on
        // exact legs too.  Capacity is left to the exact walk.
        let suffix = Walk::new(prev_node, prev_time, 0, u32::MAX);
        for j in i..=n {
            let stops = base
                .splice(i, j, &pickup, &dropoff)
                .skip(i)
                .map(|wp| (wp.node, wp));
            if suffix.through(stops, lower, |_, _| {}).is_none() {
                continue;
            }
            let Some(end) = start.on_roads(engine, base.splice(i, j, &pickup, &dropoff)) else {
                continue;
            };
            let added = end.travel - base_eval.travel_cost;
            if best.is_none_or(|(_, _, best_added, _)| added < best_added - 1e-12) {
                best = Some((i, j, added, end.travel));
            }
        }
    }
    best.map(|(i, j, added_cost, new_travel_cost)| InsertionOutcome {
        pickup_pos: i,
        dropoff_pos: j + 1,
        schedule: Schedule::from_waypoints(base.splice(i, j, &pickup, &dropoff).copied().collect()),
        added_cost,
        new_travel_cost,
    })
}

/// Inserts `request` into `vehicle`'s planned schedule (without committing).
pub fn insert_request(
    engine: &SpEngine,
    vehicle: &Vehicle,
    request: &Request,
) -> Option<InsertionOutcome> {
    insert_into(
        engine,
        vehicle.node,
        vehicle.free_at,
        vehicle.onboard,
        vehicle.capacity,
        &vehicle.schedule,
        request,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use structride_roadnet::{Point, RoadNetworkBuilder};

    /// 0 -10- 1 -10- 2 -10- 3 -10- 4 (bidirectional line).
    fn line_engine() -> SpEngine {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..5 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 1..5u32 {
            b.add_bidirectional(i - 1, i, 10.0).unwrap();
        }
        SpEngine::new(b.build().unwrap())
    }

    fn req(id: u32, s: NodeId, e: NodeId, cost: f64, gamma: f64) -> Request {
        Request::with_detour(id, s, e, 1, 0.0, cost, gamma, 300.0)
    }

    #[test]
    fn insert_into_empty_schedule_gives_direct_route() {
        let engine = line_engine();
        let r = req(1, 1, 3, 20.0, 1.5);
        let out = insert_into(&engine, 0, 0.0, 0, 4, &Schedule::new(), &r).unwrap();
        assert_eq!(out.pickup_pos, 0);
        assert_eq!(out.dropoff_pos, 1);
        // Travel includes the deadhead leg 0->1.
        assert_eq!(out.new_travel_cost, 30.0);
        assert_eq!(out.added_cost, 30.0);
        assert!(out.schedule.is_well_formed());
    }

    #[test]
    fn shares_trip_when_on_the_way() {
        let engine = line_engine();
        // Vehicle at 0 already serving 0 -> 4; new request 1 -> 3 lies on the way.
        let r1 = req(1, 0, 4, 40.0, 1.6);
        let r2 = req(2, 1, 3, 20.0, 1.6);
        let base = Schedule::direct(&r1);
        let out = insert_into(&engine, 0, 0.0, 0, 4, &base, &r2).unwrap();
        // No extra distance is needed: 0,1,3,4 is on the straight line.
        assert!(out.added_cost.abs() < 1e-9);
        assert_eq!(out.new_travel_cost, 40.0);
        assert_eq!(out.schedule.to_string(), "⟨s1, s2, e2, e1⟩");
    }

    #[test]
    fn infeasible_when_capacity_exhausted() {
        let engine = line_engine();
        let r1 = Request::with_detour(1, 0, 4, 2, 0.0, 40.0, 1.6, 300.0);
        let r2 = Request::with_detour(2, 1, 3, 1, 0.0, 20.0, 1.6, 300.0);
        let base = Schedule::direct(&r1);
        // Capacity 2 is already full while r1 is on board and the overlap is
        // unavoidable (r2 lies strictly inside r1's trip).
        assert!(insert_into(&engine, 0, 0.0, 0, 2, &base, &r2).is_none());
        // One more seat makes it possible.
        assert!(insert_into(&engine, 0, 0.0, 0, 3, &base, &r2).is_some());
    }

    #[test]
    fn infeasible_when_rider_count_exceeds_capacity() {
        let engine = line_engine();
        let r = Request::with_detour(1, 0, 2, 5, 0.0, 20.0, 1.5, 300.0);
        assert!(insert_into(&engine, 0, 0.0, 0, 4, &Schedule::new(), &r).is_none());
    }

    #[test]
    fn respects_existing_deadlines() {
        let engine = line_engine();
        // r1 has zero detour budget beyond gamma=1.2 -> 8s slack on a 40s trip.
        let r1 = req(1, 0, 4, 40.0, 1.2);
        // r2 goes the other way: picking it up would require a detour.
        let r2 = req(2, 3, 1, 20.0, 3.0);
        let base = Schedule::direct(&r1);
        let out = insert_into(&engine, 0, 0.0, 0, 4, &base, &r2);
        // The only way to serve r2 with r1 would blow r1's 8-second budget.
        assert!(out.is_none());
    }

    #[test]
    fn picks_cheapest_among_feasible_positions() {
        let engine = line_engine();
        let r1 = req(1, 0, 2, 20.0, 2.0);
        let r2 = req(2, 2, 4, 20.0, 2.0);
        let base = Schedule::direct(&r1);
        let out = insert_into(&engine, 0, 0.0, 0, 4, &base, &r2).unwrap();
        // Chaining the trips costs nothing extra beyond r2's own trip (several
        // orderings tie at +20; any of them is acceptable).
        assert!((out.added_cost - 20.0).abs() < 1e-9);
        assert!(out.schedule.is_well_formed());
        assert!(out.schedule.contains_request(1) && out.schedule.contains_request(2));
    }

    #[test]
    fn vehicle_wrapper_uses_vehicle_state() {
        let engine = line_engine();
        let mut v = Vehicle::new(1, 4, 4);
        v.free_at = 5.0;
        let r = req(1, 3, 1, 20.0, 2.0);
        let out = insert_request(&engine, &v, &r).unwrap();
        // Deadhead 4->3 (10s) plus the trip (20s).
        assert_eq!(out.new_travel_cost, 30.0);
    }

    #[test]
    fn release_boundary_insertion_with_absorbed_detour_is_not_pruned() {
        let engine = line_engine();
        // Vehicle idles at node 1.  Base: r1 from 2 to 4, released at t=100 —
        // the vehicle reaches the pickup at t=10 and waits 90 s, and that
        // waiting can absorb a detour taken beforehand.
        let r1 = Request::new(1, 2, 4, 1, 100.0, 130.0, 112.0, 20.0);
        let base = Schedule::direct(&r1);
        assert!(base.evaluate(&engine, 1, 0.0, 0, 4).feasible);
        // r2 starts behind the vehicle (detour 1->0->2 costs 20 s extra) and
        // is released at t=10 — exactly when the vehicle can reach it.  This
        // is the boundary case the old guard (`reach >= release` switches the
        // naive slack cutoff on) wrongly pruned: 20 s exceeds r1's 10–12 s of
        // naive slack, but the 90 s wait at r1's pickup absorbs it entirely.
        let r2 = Request::new(2, 0, 2, 1, 10.0, 90.0, 40.0, 20.0);
        let out = insert_into(&engine, 1, 0.0, 0, 4, &base, &r2)
            .expect("feasible insertion at the release boundary must not be pruned");
        assert!(out.schedule.is_well_formed());
        assert!(out.schedule.contains_request(2));
        let eval = out.schedule.evaluate(&engine, 1, 0.0, 0, 4);
        assert!(eval.feasible);
        // The cheapest placement serves r2 on the way to r1's pickup.
        assert_eq!(out.pickup_pos, 0);
        assert!((out.added_cost - 20.0).abs() < 1e-9);
    }

    #[test]
    fn pruning_still_rejects_unabsorbable_detours() {
        let engine = line_engine();
        // Same shape as above but r1 is released immediately: no waiting, so
        // a 20 s detour genuinely breaks r1's deadlines and the guard (and
        // the exact evaluation) must reject every placement.
        let r1 = Request::new(1, 2, 4, 1, 0.0, 35.0, 15.0, 20.0);
        let base = Schedule::direct(&r1);
        assert!(base.evaluate(&engine, 1, 0.0, 0, 4).feasible);
        let r2 = Request::new(2, 0, 2, 1, 10.0, 90.0, 40.0, 20.0);
        assert!(insert_into(&engine, 1, 0.0, 0, 4, &base, &r2).is_none());
    }

    #[test]
    fn a_screened_position_issues_no_shortest_path_query() {
        let engine = line_engine();
        // The vehicle at 0 serves r1 from 0 to 1; r2 waits at the far end,
        // due in 5 s, and every pickup position misses it by the bound.
        let r1 = req(1, 0, 1, 10.0, 2.0);
        let base = Schedule::direct(&r1);
        let r2 = Request::new(2, 4, 3, 1, 0.0, 60.0, 5.0, 10.0);
        let queries = || engine.stats().total_queries;
        let before = queries();
        assert!(base.evaluate(&engine, 0, 0.0, 0, 4).feasible);
        let base_legs = queries() - before;
        let before = queries();
        assert!(insert_into(&engine, 0, 0.0, 0, 4, &base, &r2).is_none());
        assert_eq!(queries() - before, base_legs);
        // Every candidate, built and evaluated exactly, is infeasible too.
        let (pickup, dropoff) = (Waypoint::pickup(&r2), Waypoint::dropoff(&r2));
        for i in 0..=base.len() {
            for j in i..=base.len() {
                let cand = base.splice(i, j, &pickup, &dropoff).copied().collect();
                let cand = Schedule::from_waypoints(cand);
                assert!(!cand.evaluate(&engine, 0, 0.0, 0, 4).feasible);
            }
        }
        assert!(queries() - before > base_legs);
    }

    #[test]
    fn insertion_result_always_well_formed_and_feasible() {
        let engine = line_engine();
        let r1 = req(1, 0, 4, 40.0, 1.8);
        let r2 = req(2, 1, 3, 20.0, 1.8);
        let r3 = req(3, 2, 4, 20.0, 1.8);
        let mut sched = Schedule::direct(&r1);
        for r in [&r2, &r3] {
            if let Some(out) = insert_into(&engine, 0, 0.0, 0, 6, &sched, r) {
                assert!(out.schedule.is_well_formed());
                let eval = out.schedule.evaluate(&engine, 0, 0.0, 0, 6);
                assert!(eval.feasible);
                assert!((eval.travel_cost - out.new_travel_cost).abs() < 1e-9);
                sched = out.schedule;
            }
        }
        assert!(sched.contains_request(2) || sched.contains_request(3));
    }
}
