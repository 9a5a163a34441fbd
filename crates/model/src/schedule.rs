//! Vehicle schedules and their feasibility rules (Definitions 2 and 3).
//!
//! A [`Schedule`] is an ordered sequence of [`Waypoint`]s — the pickup and
//! drop-off locations of the requests assigned to one vehicle.  A schedule is
//! feasible iff it satisfies the four constraints of Definition 2 (coverage,
//! order, capacity, deadline).  A [`Walk`] applies the capacity and deadline
//! rules stop by stop, failing at the first violation; [`Schedule::evaluate`]
//! walks the sequence with engine legs, recording arrival times and total
//! travel cost, and [`Schedule::buffer_times`] computes the maximum detour slack
//! of Definition 3 that the linear-insertion operator uses for pruning.

use crate::request::{Request, RequestId};
use structride_roadnet::{NodeId, SpEngine};

/// Numerical tolerance for deadline comparisons (seconds).
pub const TIME_EPS: f64 = 1e-7;

/// Whether a way-point picks riders up or drops them off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WaypointKind {
    /// The source of a request: riders board here.
    #[default]
    Pickup,
    /// The destination of a request: riders alight here.
    Dropoff,
}

/// One stop of a vehicle schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Waypoint {
    /// The request served at this stop.
    pub request: RequestId,
    /// Road-network node of the stop.
    pub node: NodeId,
    /// Pickup or drop-off.
    pub kind: WaypointKind,
    /// `ddl(o_x)`: latest feasible service time at this stop.
    pub deadline: f64,
    /// Earliest feasible service time (the request release for pickups,
    /// 0 for drop-offs — a drop-off can never happen "too early").
    pub earliest: f64,
    /// Number of riders boarding (pickup) or alighting (drop-off).
    pub riders: u32,
}

impl Waypoint {
    /// The pickup way-point of a request.
    pub fn pickup(r: &Request) -> Self {
        Waypoint {
            request: r.id,
            node: r.source,
            kind: WaypointKind::Pickup,
            deadline: r.pickup_deadline,
            earliest: r.release,
            riders: r.riders,
        }
    }

    /// The drop-off way-point of a request.
    pub fn dropoff(r: &Request) -> Self {
        Waypoint {
            request: r.id,
            node: r.destination,
            kind: WaypointKind::Dropoff,
            deadline: r.deadline,
            earliest: 0.0,
            riders: r.riders,
        }
    }

    /// True if this is a pickup.
    pub fn is_pickup(&self) -> bool {
        self.kind == WaypointKind::Pickup
    }
}

/// The outcome of evaluating a schedule from a concrete vehicle state.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleEval {
    /// True if every constraint holds.
    pub feasible: bool,
    /// Service time at each way-point (arrival plus any waiting for release).
    pub service_times: Vec<f64>,
    /// Waiting time at each way-point (service minus arrival; positive only
    /// at pickups the vehicle reaches before the request release).
    pub waiting: Vec<f64>,
    /// Total driving time over the schedule (waiting excluded).
    pub travel_cost: f64,
}

/// A vehicle part way through a sequence of way-points: the one place the
/// capacity, deadline and wait-for-release rules of Definition 2 are written.
/// `K` keys a stop for the caller's legs: a road node, or a stop index for
/// the shareability check's leg memo.
#[derive(Debug, Clone, Copy)]
pub struct Walk<K> {
    at: K,
    now: f64,
    onboard: u32,
    pub(crate) capacity: u32,
    pub(crate) travel: f64,
}

impl<K: Copy> Walk<K> {
    /// A vehicle at `at`, free at `now`, with `onboard` of `capacity` seats taken.
    pub fn new(at: K, now: f64, onboard: u32, capacity: u32) -> Self {
        Walk {
            at,
            now,
            onboard,
            capacity,
            travel: 0.0,
        }
    }

    /// Serves `stops` in order with legs from `leg`: `arrive = now + leg`,
    /// `service = arrive.max(earliest)`, the deadline test (`service >
    /// deadline + TIME_EPS` fails), then the capacity test at a pickup.
    /// Driving time (waiting excluded) adds up in `travel`, and
    /// `visit(arrive, service)` sees each stop served.  Returns the end
    /// state, or `None` when a stop breaks a rule.
    pub fn through<'w>(
        mut self,
        stops: impl IntoIterator<Item = (K, &'w Waypoint)>,
        mut leg: impl FnMut(K, K) -> f64,
        mut visit: impl FnMut(f64, f64),
    ) -> Option<Self> {
        for (key, wp) in stops {
            let leg = leg(self.at, key);
            if !leg.is_finite() {
                return None;
            }
            self.travel += leg;
            let arrive = self.now + leg;
            let service = arrive.max(wp.earliest);
            if service > wp.deadline + TIME_EPS {
                return None;
            }
            match wp.kind {
                WaypointKind::Pickup => {
                    self.onboard += wp.riders;
                    if self.onboard > self.capacity {
                        return None;
                    }
                }
                WaypointKind::Dropoff => self.onboard = self.onboard.saturating_sub(wp.riders),
            }
            visit(arrive, service);
            self.now = service;
            self.at = key;
        }
        Some(self)
    }
}

impl Walk<NodeId> {
    /// [`Walk::through`] `stops` at their road nodes, with engine legs.
    pub(crate) fn on_roads<'w>(
        self,
        engine: &SpEngine,
        stops: impl IntoIterator<Item = &'w Waypoint>,
    ) -> Option<Self> {
        let stops = stops.into_iter().map(|wp| (wp.node, wp));
        self.through(stops, |u, v| engine.cost(u, v), |_, _| {})
    }
}

/// An ordered sequence of way-points planned for one vehicle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    waypoints: Vec<Waypoint>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Schedule {
            waypoints: Vec::new(),
        }
    }

    /// Builds a schedule from way-points (validity is *not* checked here; use
    /// [`Schedule::is_well_formed`] / [`Schedule::evaluate`]).
    pub fn from_waypoints(waypoints: Vec<Waypoint>) -> Self {
        Schedule { waypoints }
    }

    /// The schedule serving a single request directly: `⟨s, e⟩`.
    pub fn direct(r: &Request) -> Self {
        Schedule {
            waypoints: vec![Waypoint::pickup(r), Waypoint::dropoff(r)],
        }
    }

    /// Number of way-points.
    pub fn len(&self) -> usize {
        self.waypoints.len()
    }

    /// True if the schedule has no way-points.
    pub fn is_empty(&self) -> bool {
        self.waypoints.is_empty()
    }

    /// The way-points in order.
    pub fn waypoints(&self) -> &[Waypoint] {
        &self.waypoints
    }

    /// Iterator over the way-points.
    pub fn iter(&self) -> impl Iterator<Item = &Waypoint> {
        self.waypoints.iter()
    }

    /// Appends a way-point at the end.
    pub fn push(&mut self, wp: Waypoint) {
        self.waypoints.push(wp);
    }

    /// Inserts a way-point at `pos`.
    pub fn insert(&mut self, pos: usize, wp: Waypoint) {
        self.waypoints.insert(pos, wp);
    }

    /// Distinct requests appearing in the schedule.
    pub fn request_ids(&self) -> Vec<RequestId> {
        let mut ids: Vec<RequestId> = self.waypoints.iter().map(|w| w.request).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// True if the request appears in the schedule.
    pub fn contains_request(&self, id: RequestId) -> bool {
        self.waypoints.iter().any(|w| w.request == id)
    }

    /// Structural validity: the coverage and order constraints of Definition 2
    /// (every request has exactly one pickup and one drop-off, pickup first).
    pub fn is_well_formed(&self) -> bool {
        use std::collections::HashMap;
        let mut state: HashMap<RequestId, u8> = HashMap::new();
        for wp in &self.waypoints {
            let entry = state.entry(wp.request).or_insert(0);
            match wp.kind {
                WaypointKind::Pickup => {
                    if *entry != 0 {
                        return false;
                    }
                    *entry = 1;
                }
                WaypointKind::Dropoff => {
                    if *entry != 1 {
                        return false;
                    }
                    *entry = 2;
                }
            }
        }
        state.values().all(|&v| v == 2)
    }

    /// Evaluates the schedule starting from a vehicle at `start_node`, free at
    /// `start_time`, with `initial_onboard` riders already in the car and a
    /// total capacity of `capacity` seats: the [`Walk`] over its way-points
    /// with engine legs, recording each stop's service and waiting time.
    pub fn evaluate(
        &self,
        engine: &SpEngine,
        start_node: NodeId,
        start_time: f64,
        initial_onboard: u32,
        capacity: u32,
    ) -> ScheduleEval {
        let mut service_times = Vec::with_capacity(self.waypoints.len());
        let mut waiting = Vec::with_capacity(self.waypoints.len());
        let walked = Walk::new(start_node, start_time, initial_onboard, capacity).through(
            self.waypoints.iter().map(|wp| (wp.node, wp)),
            |u, v| engine.cost(u, v),
            |arrive, service| {
                service_times.push(service);
                waiting.push(service - arrive);
            },
        );
        match walked {
            Some(end) => ScheduleEval {
                feasible: true,
                service_times,
                waiting,
                travel_cost: end.travel,
            },
            None => ScheduleEval {
                feasible: false,
                service_times: Vec::new(),
                waiting: Vec::new(),
                travel_cost: f64::INFINITY,
            },
        }
    }

    /// The way-points with `pickup` inserted before index `i` and `dropoff`
    /// before index `j` (`i ≤ j`): linear insertion's candidate at `(i, j)`,
    /// in which the drop-off lands at index `j + 1`.
    pub(crate) fn splice<'a>(
        &'a self,
        i: usize,
        j: usize,
        pickup: &'a Waypoint,
        dropoff: &'a Waypoint,
    ) -> impl Iterator<Item = &'a Waypoint> + 'a {
        let wps = &self.waypoints;
        wps[..i]
            .iter()
            .chain(std::iter::once(pickup))
            .chain(&wps[i..j])
            .chain(std::iter::once(dropoff))
            .chain(&wps[j..])
    }

    /// Buffer times of Definition 3, extended with waiting absorption:
    /// `buf[x]` is the maximum extra *arrival delay* at way-point `o_x` that
    /// keeps every deadline from `o_x` onwards satisfiable.
    ///
    /// A way-point whose base service waits for a release
    /// (`service > arrival`) absorbs delay before any of it propagates to
    /// later way-points, so the recursion adds the waiting at each step:
    ///
    /// ```text
    /// buf[n-1] = slack(n-1) + wait(n-1)
    /// buf[x]   = min(slack(x), buf[x+1]) + wait(x)
    /// ```
    ///
    /// where `slack(x) = ddl(o_x) − service(o_x)` and
    /// `wait(x) = service(o_x) − arrival(o_x)`.  This is exact: a delay `d`
    /// in the arrival at `o_x` is feasible for `o_x..` iff `d ≤ buf[x]`
    /// (delays up to `wait(x)` vanish entirely; beyond that the remainder
    /// must fit both `o_x`'s own slack and the downstream buffer).  Requires
    /// a feasible evaluation of this schedule.
    pub fn buffer_times(&self, eval: &ScheduleEval) -> Vec<f64> {
        debug_assert!(eval.feasible);
        let mut buf = vec![0.0; self.waypoints.len()];
        for x in (0..buf.len()).rev() {
            let slack = self.waypoints[x].deadline - eval.service_times[x];
            let downstream = buf.get(x + 1).map_or(slack, |&next| slack.min(next));
            buf[x] = downstream + eval.waiting[x];
        }
        buf
    }

    /// Approximate heap footprint in bytes (used by the Fig. 14 accounting).
    pub fn approx_bytes(&self) -> usize {
        self.waypoints.capacity() * std::mem::size_of::<Waypoint>()
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨")?;
        for (i, wp) in self.waypoints.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let tag = if wp.is_pickup() { "s" } else { "e" };
            write!(f, "{}{}", tag, wp.request)?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use structride_roadnet::{Point, RoadNetworkBuilder};

    /// A simple 4-node line: 0 -10s- 1 -10s- 2 -10s- 3.
    fn line_engine() -> SpEngine {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..4 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 1..4u32 {
            b.add_bidirectional(i - 1, i, 10.0).unwrap();
        }
        SpEngine::new(b.build().unwrap())
    }

    fn request(
        id: RequestId,
        s: NodeId,
        e: NodeId,
        release: f64,
        cost: f64,
        gamma: f64,
    ) -> Request {
        Request::with_detour(id, s, e, 1, release, cost, gamma, 300.0)
    }

    #[test]
    fn direct_schedule_is_well_formed_and_feasible() {
        let engine = line_engine();
        let r = request(1, 0, 2, 0.0, 20.0, 1.5);
        let s = Schedule::direct(&r);
        assert!(s.is_well_formed());
        let eval = s.evaluate(&engine, 0, 0.0, 0, 4);
        assert!(eval.feasible);
        assert_eq!(eval.travel_cost, 20.0);
        assert_eq!(s.to_string(), "⟨s1, e1⟩");
    }

    #[test]
    fn order_and_coverage_violations_detected() {
        let r = request(1, 0, 2, 0.0, 20.0, 1.5);
        // Drop-off before pickup.
        let bad = Schedule::from_waypoints(vec![Waypoint::dropoff(&r), Waypoint::pickup(&r)]);
        assert!(!bad.is_well_formed());
        // Missing drop-off.
        let partial = Schedule::from_waypoints(vec![Waypoint::pickup(&r)]);
        assert!(!partial.is_well_formed());
        // Duplicate pickup.
        let dup = Schedule::from_waypoints(vec![
            Waypoint::pickup(&r),
            Waypoint::pickup(&r),
            Waypoint::dropoff(&r),
        ]);
        assert!(!dup.is_well_formed());
    }

    #[test]
    fn capacity_violation_detected() {
        let engine = line_engine();
        let r1 = Request::with_detour(1, 0, 3, 3, 0.0, 30.0, 2.0, 300.0);
        let r2 = Request::with_detour(2, 1, 3, 2, 0.0, 20.0, 2.0, 300.0);
        let s = Schedule::from_waypoints(vec![
            Waypoint::pickup(&r1),
            Waypoint::pickup(&r2),
            Waypoint::dropoff(&r1),
            Waypoint::dropoff(&r2),
        ]);
        // Capacity 4 cannot hold 3 + 2 riders.
        let eval = s.evaluate(&engine, 0, 0.0, 0, 4);
        assert!(!eval.feasible);
        // Capacity 5 can.
        let eval = s.evaluate(&engine, 0, 0.0, 0, 5);
        assert!(eval.feasible);
    }

    #[test]
    fn deadline_violation_detected() {
        let engine = line_engine();
        // Tight deadline: cost 20, gamma 1.05 -> deadline = 21, but starting
        // from node 3 the vehicle needs 30s just to reach the pickup at 0.
        let r = request(1, 0, 2, 0.0, 20.0, 1.05);
        let s = Schedule::direct(&r);
        let eval = s.evaluate(&engine, 3, 0.0, 0, 4);
        assert!(!eval.feasible);
    }

    #[test]
    fn vehicle_waits_for_release() {
        let engine = line_engine();
        let r = request(1, 1, 2, 100.0, 10.0, 2.0);
        let s = Schedule::direct(&r);
        // Vehicle is adjacent and free at t=0: it arrives at the pickup at t=10
        // but must wait until the release at t=100.
        let eval = s.evaluate(&engine, 0, 0.0, 0, 4);
        assert!(eval.feasible);
        assert_eq!(eval.service_times, vec![100.0, 110.0]);
        // Waiting is not travel.
        assert_eq!(eval.travel_cost, 20.0);
    }

    #[test]
    fn buffer_times_match_definition() {
        let engine = line_engine();
        let r1 = request(1, 0, 3, 0.0, 30.0, 2.0); // deadline 60
        let r2 = request(2, 1, 2, 0.0, 10.0, 3.0); // deadline 30
        let s = Schedule::from_waypoints(vec![
            Waypoint::pickup(&r1),
            Waypoint::pickup(&r2),
            Waypoint::dropoff(&r2),
            Waypoint::dropoff(&r1),
        ]);
        let eval = s.evaluate(&engine, 0, 0.0, 0, 4);
        assert!(eval.feasible);
        // service times: 0, 10, 20, 30; deadlines: pickup1=300cap? pickup ddl
        // is release+min(wait, slack): r1 slack=30 -> 30; r2 slack=20 -> 20.
        // dropoff ddls: 60 and 30.
        let buf = s.buffer_times(&eval);
        // No waiting anywhere, so buf[x] = min slack over way-points x..:
        // slacks are [30, 10, 10, 30] -> buf[3] = 30; buf[2] = min(10, 30);
        // buf[1] = min(10, 10); buf[0] = min(30, 10).
        assert_eq!(buf, vec![10.0, 10.0, 10.0, 30.0]);
    }

    #[test]
    fn buffer_times_absorb_downstream_waiting() {
        let engine = line_engine();
        // r released at t=100: the vehicle arrives at the pickup at t=10 and
        // waits 90 s.  That waiting absorbs up to 90 s of upstream delay
        // before any deadline from the pickup onwards is threatened.
        let r = request(1, 1, 2, 100.0, 10.0, 2.0);
        let s = Schedule::direct(&r);
        let eval = s.evaluate(&engine, 0, 0.0, 0, 4);
        assert!(eval.feasible);
        assert_eq!(eval.waiting, vec![90.0, 0.0]);
        let buf = s.buffer_times(&eval);
        // Slacks: pickup ddl−service, drop-off ddl−service; the pickup's
        // buffer additionally gains the 90 s of absorbed waiting.
        let pickup_slack = s.waypoints()[0].deadline - 100.0;
        let dropoff_slack = s.waypoints()[1].deadline - 110.0;
        assert_eq!(buf[1], dropoff_slack);
        assert_eq!(buf[0], pickup_slack.min(buf[1]) + 90.0);
        assert!(buf[0] > 90.0, "waiting must enlarge the buffer");
    }

    #[test]
    fn unreachable_leg_is_infeasible() {
        // Two disconnected nodes.
        let mut b = RoadNetworkBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(100.0, 0.0));
        let engine = SpEngine::new(b.build().unwrap());
        let r = request(1, 0, 1, 0.0, 10.0, 2.0);
        let eval = Schedule::direct(&r).evaluate(&engine, 0, 0.0, 0, 4);
        assert!(!eval.feasible);
    }

    #[test]
    fn request_ids_dedup_and_contains() {
        let r1 = request(5, 0, 2, 0.0, 20.0, 1.5);
        let r2 = request(3, 1, 2, 0.0, 10.0, 1.5);
        let mut s = Schedule::direct(&r1);
        s.insert(1, Waypoint::pickup(&r2));
        s.insert(2, Waypoint::dropoff(&r2));
        assert_eq!(s.request_ids(), vec![3, 5]);
        assert!(s.contains_request(5));
        assert!(!s.contains_request(9));
        assert!(s.is_well_formed());
    }
}
