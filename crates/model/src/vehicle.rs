//! Vehicles and their dynamic state.
//!
//! A [`Vehicle`] carries its capacity, the node where it will next be free,
//! the riders currently on board and its planned [`Schedule`].  The batched
//! simulator advances vehicles between batches with [`Vehicle::advance_to`],
//! which executes every way-point whose service time falls before the new
//! simulation time — this is the "vehicles keep moving over time" behaviour
//! that the grid index has to keep up with (§II-B).

use crate::request::RequestId;
use crate::schedule::{Schedule, ScheduleEval, WaypointKind};
use structride_roadnet::{NodeId, SpEngine};

/// Identifier of a vehicle.
pub type VehicleId = u32;

/// A vehicle (the paper's worker `w_j`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Vehicle {
    /// Unique identifier.
    pub id: VehicleId,
    /// Seat capacity `c_j`.
    pub capacity: u32,
    /// Node where the vehicle is (or will be once it finishes its current
    /// leg); all planning starts from here.
    pub node: NodeId,
    /// Time at which the vehicle is available at [`Vehicle::node`].
    pub free_at: f64,
    /// Riders currently on board.
    pub onboard: u32,
    /// The planned, not-yet-executed part of the schedule.
    pub schedule: Schedule,
    /// Requests currently assigned (picked up or scheduled).
    pub assigned: Vec<RequestId>,
    /// Requests fully served (dropped off).
    pub completed: Vec<RequestId>,
    /// Total driving time accumulated by executed way-points.
    pub executed_travel: f64,
}

impl Vehicle {
    /// Creates an idle vehicle at `node` with the given seat capacity.
    pub fn new(id: VehicleId, node: NodeId, capacity: u32) -> Self {
        Vehicle {
            id,
            capacity,
            node,
            free_at: 0.0,
            onboard: 0,
            schedule: Schedule::new(),
            assigned: Vec::new(),
            completed: Vec::new(),
            executed_travel: 0.0,
        }
    }

    /// True if the vehicle has no planned way-points and no riders on board.
    pub fn is_idle(&self) -> bool {
        self.schedule.is_empty() && self.onboard == 0
    }

    /// Evaluates a candidate schedule from this vehicle's current state.
    pub fn evaluate(&self, engine: &SpEngine, schedule: &Schedule) -> ScheduleEval {
        schedule.evaluate(engine, self.node, self.free_at, self.onboard, self.capacity)
    }

    /// Evaluates the vehicle's own planned schedule.
    pub fn evaluate_current(&self, engine: &SpEngine) -> ScheduleEval {
        self.evaluate(engine, &self.schedule)
    }

    /// Travel cost of the currently planned schedule (0 for an idle vehicle).
    pub fn planned_cost(&self, engine: &SpEngine) -> f64 {
        if self.schedule.is_empty() {
            0.0
        } else {
            let eval = self.evaluate_current(engine);
            if eval.feasible {
                eval.travel_cost
            } else {
                f64::INFINITY
            }
        }
    }

    /// Replaces the planned schedule and records newly assigned requests.
    ///
    /// The caller is responsible for having validated feasibility; this method
    /// only updates bookkeeping.
    pub fn commit_schedule(&mut self, schedule: Schedule) {
        for id in schedule.request_ids() {
            if !self.assigned.contains(&id) {
                self.assigned.push(id);
            }
        }
        self.schedule = schedule;
    }

    /// Advances the vehicle's execution to simulation time `now`: every
    /// way-point whose service time is `≤ now` is executed (riders board or
    /// alight, travel cost is accumulated) and removed from the planned
    /// schedule.  Returns the requests completed during this advance.
    pub fn advance_to(&mut self, engine: &SpEngine, now: f64) -> Vec<RequestId> {
        let mut newly_completed = Vec::new();
        if self.schedule.is_empty() {
            if self.free_at < now {
                self.free_at = now;
            }
            return newly_completed;
        }
        let eval = self.evaluate_current(engine);
        if !eval.feasible {
            // A committed schedule should stay feasible; if numerical drift
            // breaks it we freeze the vehicle rather than teleporting it.
            return newly_completed;
        }
        let mut executed = 0usize;
        let mut node = self.node;
        let mut time = self.free_at;
        for (idx, wp) in self.schedule.waypoints().iter().enumerate() {
            let service = eval.service_times[idx];
            if service > now {
                break;
            }
            self.executed_travel += engine.cost(node, wp.node);
            node = wp.node;
            time = service;
            match wp.kind {
                WaypointKind::Pickup => {
                    self.onboard += wp.riders;
                }
                WaypointKind::Dropoff => {
                    self.onboard = self.onboard.saturating_sub(wp.riders);
                    self.completed.push(wp.request);
                    newly_completed.push(wp.request);
                }
            }
            executed = idx + 1;
        }
        if executed > 0 {
            let remaining = self.schedule.waypoints()[executed..].to_vec();
            self.schedule = Schedule::from_waypoints(remaining);
            self.node = node;
            self.free_at = time;
        }
        if self.schedule.is_empty() && self.free_at < now {
            self.free_at = now;
        }
        newly_completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use crate::schedule::Waypoint;
    use structride_roadnet::{Point, RoadNetworkBuilder};

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

    fn req(id: RequestId, s: NodeId, e: NodeId, cost: f64) -> Request {
        Request::with_detour(id, s, e, 1, 0.0, cost, 2.0, 300.0)
    }

    #[test]
    fn new_vehicle_is_idle() {
        let v = Vehicle::new(1, 3, 4);
        assert!(v.is_idle());
        assert_eq!(v.capacity - v.onboard, 4);
    }

    #[test]
    fn commit_and_advance_executes_waypoints() {
        let engine = line_engine();
        let mut v = Vehicle::new(1, 0, 4);
        let r = req(1, 1, 3, 20.0);
        let sched = Schedule::direct(&r);
        assert!(v.evaluate(&engine, &sched).feasible);
        v.commit_schedule(sched);
        assert_eq!(v.assigned, vec![1]);

        // At t=15 the pickup (t=10) has happened but not the drop-off (t=30).
        let done = v.advance_to(&engine, 15.0);
        assert!(done.is_empty());
        assert_eq!(v.onboard, 1);
        assert_eq!(v.node, 1);
        assert_eq!(v.schedule.len(), 1);

        // At t=100 everything is done.
        let done = v.advance_to(&engine, 100.0);
        assert_eq!(done, vec![1]);
        assert_eq!(v.onboard, 0);
        assert_eq!(v.node, 3);
        assert!(v.is_idle());
        assert_eq!(v.executed_travel, 30.0);
        assert_eq!(v.completed, vec![1]);
        // Idle vehicles drift forward in time.
        assert_eq!(v.free_at, 100.0);
    }

    #[test]
    fn advance_without_schedule_just_updates_time() {
        let engine = line_engine();
        let mut v = Vehicle::new(1, 2, 4);
        let done = v.advance_to(&engine, 50.0);
        assert!(done.is_empty());
        assert_eq!(v.free_at, 50.0);
        assert_eq!(v.node, 2);
    }

    #[test]
    fn planned_cost_reflects_schedule() {
        let engine = line_engine();
        let mut v = Vehicle::new(1, 0, 4);
        assert_eq!(v.planned_cost(&engine), 0.0);
        let r = req(1, 0, 2, 20.0);
        v.commit_schedule(Schedule::direct(&r));
        assert_eq!(v.planned_cost(&engine), 20.0);
    }

    #[test]
    fn multi_request_schedule_tracks_onboard() {
        let engine = line_engine();
        let mut v = Vehicle::new(7, 0, 2);
        let r1 = req(1, 0, 4, 40.0);
        let r2 = req(2, 1, 3, 20.0);
        let sched = Schedule::from_waypoints(vec![
            Waypoint::pickup(&r1),
            Waypoint::pickup(&r2),
            Waypoint::dropoff(&r2),
            Waypoint::dropoff(&r1),
        ]);
        let eval = v.evaluate(&engine, &sched);
        assert!(eval.feasible);
        v.commit_schedule(sched);
        let done = v.advance_to(&engine, 1000.0);
        assert_eq!(done, vec![2, 1]);
        assert_eq!(v.executed_travel, 40.0);
    }
}
