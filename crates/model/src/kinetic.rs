//! Kinetic-tree schedule maintenance (Huang et al. \[7\], discussed in §IV-A).
//!
//! The kinetic tree keeps **every** feasible way-point ordering for a vehicle
//! instead of a single one, so inserting a new request explores all orderings
//! and the minimum-cost schedule is always exact.  The paper chooses linear
//! insertion for StructRide because the kinetic tree can hold up to
//! `(2m)!/2^m` schedules; we implement it anyway because it is (a) one of the
//! two schedule-maintenance strategies the paper discusses, and (b) the exact
//! optimality oracle against which the linear-insertion and degree-reordering
//! heuristics are measured (the 85 %–91 % optimality probabilities of §IV-A).

use crate::request::Request;
use crate::schedule::{Schedule, Walk, Waypoint};
use structride_roadnet::{NodeId, SpEngine};

/// All feasible schedules of one vehicle, refreshed on every insertion.
#[derive(Debug, Clone)]
pub struct KineticTree {
    /// The vehicle's state, from which every ordering is walked.
    start: Walk<NodeId>,
    /// Every feasible ordering currently known, with its travel cost.
    schedules: Vec<(Schedule, f64)>,
}

impl KineticTree {
    /// Creates a kinetic tree for a vehicle standing at `start_node`, free at
    /// `start_time`, with `onboard` riders and `capacity` seats.
    pub fn new(start_node: NodeId, start_time: f64, onboard: u32, capacity: u32) -> Self {
        KineticTree {
            start: Walk::new(start_node, start_time, onboard, capacity),
            schedules: vec![(Schedule::new(), 0.0)],
        }
    }

    /// Seeds the tree from an already-planned schedule (it becomes the only
    /// ordering; subsequent insertions branch from it).
    pub fn from_schedule(
        engine: &SpEngine,
        start_node: NodeId,
        start_time: f64,
        onboard: u32,
        capacity: u32,
        schedule: Schedule,
    ) -> Option<Self> {
        let start = Walk::new(start_node, start_time, onboard, capacity);
        let end = start.on_roads(engine, schedule.iter())?;
        let schedules = vec![(schedule, end.travel)];
        Some(KineticTree { start, schedules })
    }

    /// Number of feasible orderings currently maintained.
    #[cfg(test)]
    fn size(&self) -> usize {
        self.schedules.len()
    }

    /// Inserts a request, regenerating every feasible ordering that extends an
    /// existing one with the new pickup/drop-off pair (in any positions).
    ///
    /// Returns `true` if at least one feasible ordering remains; on `false`
    /// the tree is left unchanged.
    pub fn insert(&mut self, engine: &SpEngine, request: &Request) -> bool {
        if request.riders > self.start.capacity {
            return false;
        }
        let pickup = Waypoint::pickup(request);
        let dropoff = Waypoint::dropoff(request);
        let mut next: Vec<(Schedule, f64)> = Vec::new();
        for (sched, _) in &self.schedules {
            let n = sched.len();
            for i in 0..=n {
                for j in i..=n {
                    let cand: Vec<_> = sched.splice(i, j, &pickup, &dropoff).copied().collect();
                    if let Some(end) = self.start.on_roads(engine, &cand) {
                        next.push((Schedule::from_waypoints(cand), end.travel));
                    }
                }
            }
        }
        if next.is_empty() {
            return false;
        }
        self.schedules = next;
        true
    }

    /// The minimum-travel-cost feasible ordering, if any requests were added.
    pub fn best(&self) -> Option<(&Schedule, f64)> {
        self.schedules
            .iter()
            .filter(|(s, _)| !s.is_empty())
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(s, cost)| (s, *cost))
    }

    /// Travel cost of the best ordering (infinity if none).
    #[cfg(test)]
    fn best_cost(&self) -> f64 {
        self.best().map(|(_, c)| c).unwrap_or(f64::INFINITY)
    }
}

/// Exhaustively computes the optimal schedule serving exactly `requests` from
/// the given vehicle state (a convenience wrapper that feeds a fresh kinetic
/// tree).  Returns the best schedule and its travel cost.
pub fn optimal_schedule(
    engine: &SpEngine,
    start_node: NodeId,
    start_time: f64,
    onboard: u32,
    capacity: u32,
    requests: &[&Request],
) -> Option<(Schedule, f64)> {
    let mut tree = KineticTree::new(start_node, start_time, onboard, capacity);
    for r in requests {
        if !tree.insert(engine, r) {
            return None;
        }
    }
    tree.best().map(|(s, c)| (s.clone(), c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insertion::insert_into;
    use structride_roadnet::{Point, RoadNetworkBuilder};

    fn line_engine() -> SpEngine {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..6 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 1..6u32 {
            b.add_bidirectional(i - 1, i, 10.0).unwrap();
        }
        SpEngine::new(b.build().unwrap())
    }

    fn req(id: u32, s: NodeId, e: NodeId, cost: f64, gamma: f64) -> Request {
        Request::with_detour(id, s, e, 1, 0.0, cost, gamma, 300.0)
    }

    #[test]
    fn single_request_best_is_direct() {
        let engine = line_engine();
        let r = req(1, 1, 3, 20.0, 2.0);
        let best = optimal_schedule(&engine, 0, 0.0, 0, 4, &[&r]).unwrap();
        assert_eq!(best.1, 30.0); // deadhead + trip
        assert!(best.0.is_well_formed());
    }

    #[test]
    fn kinetic_tree_never_worse_than_linear_insertion() {
        let engine = line_engine();
        let r1 = req(1, 0, 5, 50.0, 1.8);
        let r2 = req(2, 1, 4, 30.0, 1.8);
        let r3 = req(3, 2, 3, 10.0, 4.0);
        // Linear insertion in release order.
        let mut sched = Schedule::new();
        for r in [&r1, &r2, &r3] {
            if let Some(out) = insert_into(&engine, 0, 0.0, 0, 6, &sched, r) {
                sched = out.schedule;
            }
        }
        let linear_cost = sched.evaluate(&engine, 0, 0.0, 0, 6).travel_cost;
        let best = optimal_schedule(&engine, 0, 0.0, 0, 6, &[&r1, &r2, &r3]).unwrap();
        assert!(best.1 <= linear_cost + 1e-9);
    }

    #[test]
    fn insertion_failure_leaves_tree_unchanged() {
        let engine = line_engine();
        let mut tree = KineticTree::new(0, 0.0, 0, 4);
        let r1 = req(1, 0, 2, 20.0, 1.5);
        assert!(tree.insert(&engine, &r1));
        let size_before = tree.size();
        // Impossible request (more riders than seats).
        let heavy = Request::with_detour(2, 1, 3, 9, 0.0, 20.0, 1.5, 300.0);
        assert!(!tree.insert(&engine, &heavy));
        assert_eq!(tree.size(), size_before);
        assert!(tree.best_cost().is_finite());
    }

    #[test]
    fn tree_size_grows_with_orderings() {
        let engine = line_engine();
        let mut tree = KineticTree::new(0, 0.0, 0, 6);
        let r1 = req(1, 0, 5, 50.0, 2.0);
        let r2 = req(2, 1, 4, 30.0, 2.0);
        assert!(tree.insert(&engine, &r1));
        assert_eq!(tree.size(), 1);
        assert!(tree.insert(&engine, &r2));
        // At least the two classic interleavings survive.
        assert!(tree.size() >= 2);
    }

    #[test]
    fn from_schedule_rejects_infeasible_seed() {
        let engine = line_engine();
        let r = req(1, 0, 2, 20.0, 1.1);
        let sched = Schedule::direct(&r);
        // Starting from node 5 the pickup deadline cannot be met.
        assert!(KineticTree::from_schedule(&engine, 5, 0.0, 0, 4, sched.clone()).is_none());
        assert!(KineticTree::from_schedule(&engine, 0, 0.0, 0, 4, sched).is_some());
    }

    #[test]
    fn empty_tree_has_no_best() {
        let tree = KineticTree::new(0, 0.0, 0, 4);
        assert!(tree.best().is_none());
        assert!(tree.best_cost().is_infinite());
    }
}
