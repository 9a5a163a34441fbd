//! Property-based tests of the schedule-maintenance invariants.

use proptest::prelude::*;
use structride_model::insertion::{insert_into, InsertionOutcome};
use structride_model::kinetic::optimal_schedule;
use structride_model::schedule::TIME_EPS;
use structride_model::{Request, Schedule, Waypoint};
use structride_roadnet::{NodeId, Point, RoadNetworkBuilder, SpEngine};

#[path = "../../sharegraph/tests/support/engines.rs"]
mod engines;

/// A 12-node bidirectional line with 10-second hops.
fn line_engine() -> SpEngine {
    let mut b = RoadNetworkBuilder::new();
    for i in 0..12 {
        b.add_node(Point::new(i as f64 * 100.0, 0.0));
    }
    for i in 1..12u32 {
        b.add_bidirectional(i - 1, i, 10.0).unwrap();
    }
    SpEngine::new(b.build().unwrap())
}

fn build_request(engine: &SpEngine, id: u32, raw: (u32, u32, f64, f64)) -> Option<Request> {
    let n = engine.node_count() as u32;
    let (s, e, release, gamma_extra) = raw;
    let source = s % n;
    let destination = e % n;
    if source == destination {
        return None;
    }
    let cost = engine.cost(source, destination);
    Some(Request::with_detour(
        id,
        source,
        destination,
        1,
        release,
        cost,
        1.0 + gamma_extra,
        300.0,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Linear insertion, applied greedily in any order, never produces an
    /// infeasible or malformed schedule, and never beats the kinetic-tree
    /// optimum over the same served set.
    #[test]
    fn linear_insertion_is_feasible_and_never_beats_kinetic(
        raw in proptest::collection::vec((0u32..100, 0u32..100, 0.0f64..30.0, 0.2f64..1.2), 1..5),
        start in 0u32..12,
        capacity in 1u32..5,
    ) {
        let engine = line_engine();
        let requests: Vec<Request> = raw
            .iter()
            .enumerate()
            .filter_map(|(i, r)| build_request(&engine, i as u32, *r))
            .collect();
        prop_assume!(!requests.is_empty());

        let mut schedule = Schedule::new();
        let mut inserted: Vec<&Request> = Vec::new();
        for r in &requests {
            if let Some(out) = insert_into(&engine, start, 0.0, 0, capacity, &schedule, r) {
                // The outcome accounting is consistent.
                let eval = out.schedule.evaluate(&engine, start, 0.0, 0, capacity);
                prop_assert!(eval.feasible);
                prop_assert!(out.schedule.is_well_formed());
                prop_assert!((eval.travel_cost - out.new_travel_cost).abs() < 1e-6);
                prop_assert!(out.added_cost >= -1e-9);
                schedule = out.schedule;
                inserted.push(r);
            }
        }
        prop_assume!(!inserted.is_empty());
        let linear_cost = schedule.evaluate(&engine, start, 0.0, 0, capacity).travel_cost;
        // The kinetic tree over the same request set is exact, so it can only
        // be at least as good.
        if let Some((best, optimal_cost)) =
            optimal_schedule(&engine, start, 0.0, 0, capacity, &inserted)
        {
            prop_assert!(best.is_well_formed());
            prop_assert!(optimal_cost <= linear_cost + 1e-6);
        }
    }

    /// Buffer times are exact: for a feasible schedule, `buf[0]` is
    /// precisely the largest extra departure delay that keeps every deadline
    /// satisfiable — delaying by `buf[0]` stays feasible, delaying by any
    /// visible margin more does not (waiting absorption included).
    #[test]
    fn buffer_times_bound_the_tolerable_delay(
        raw in proptest::collection::vec((0u32..100, 0u32..100, 0.0f64..20.0, 0.3f64..1.5), 1..4),
        start in 0u32..12,
    ) {
        let engine = line_engine();
        let requests: Vec<Request> = raw
            .iter()
            .enumerate()
            .filter_map(|(i, r)| build_request(&engine, i as u32, *r))
            .collect();
        prop_assume!(!requests.is_empty());
        let mut schedule = Schedule::new();
        for r in &requests {
            if let Some(out) = insert_into(&engine, start, 0.0, 0, 4, &schedule, r) {
                schedule = out.schedule;
            }
        }
        prop_assume!(!schedule.is_empty());
        let eval = schedule.evaluate(&engine, start, 0.0, 0, 4);
        prop_assert!(eval.feasible);
        let buffers = schedule.buffer_times(&eval);
        prop_assert_eq!(buffers.len(), schedule.len());
        for (x, b) in buffers.iter().enumerate() {
            // Never negative (modulo the feasibility tolerance), and at least
            // the waiting already present at the way-point.
            prop_assert!(*b >= -1e-7);
            prop_assert!(*b + 1e-9 >= eval.waiting[x]);
        }
        // Monotone once each way-point's own absorbed waiting is taken out:
        // buf[x] − wait(x) = min(slack(x), buf[x+1]) ≤ buf[x+1].
        for (x, w) in buffers.windows(2).enumerate() {
            prop_assert!(w[0] - eval.waiting[x] <= w[1] + 1e-9);
        }
        // Delaying departure by exactly buf[0] keeps every deadline…
        let delay = buffers[0].max(0.0);
        let delayed = schedule.evaluate(&engine, start, delay, 0, 4);
        prop_assert!(delayed.feasible, "delay {delay} broke the schedule");
        // …and the bound is tight: any visible margin beyond it breaks one.
        let broken = schedule.evaluate(&engine, start, delay + 1e-3, 0, 4);
        prop_assert!(!broken.feasible, "delay {delay} + 1e-3 should violate a deadline");
    }
}

/// The search before the walk, kept as the reference: the same prunes,
/// then every surviving `(i, j)` candidate materialised as a `Schedule`
/// and evaluated in full by `Schedule::evaluate`.
fn reference_insert(
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
    let base_eval = base.evaluate(engine, start_node, start_time, onboard, capacity);
    if !base.is_empty() && !base_eval.feasible {
        return None;
    }
    let base_cost = if base.is_empty() {
        0.0
    } else {
        base_eval.travel_cost
    };
    let buffers = if base.is_empty() {
        Vec::new()
    } else {
        base.buffer_times(&base_eval)
    };
    let wps = base.waypoints();
    let n = base.len();
    let mut best: Option<InsertionOutcome> = None;
    for i in 0..=n {
        let (prev_node, prev_time) = match i {
            0 => (start_node, start_time),
            _ => (wps[i - 1].node, base_eval.service_times[i - 1]),
        };
        let reach = prev_time + engine.cost(prev_node, request.source);
        if reach > request.pickup_deadline + TIME_EPS {
            continue;
        }
        if i < n {
            let direct = engine.cost(prev_node, wps[i].node);
            let via =
                engine.cost(prev_node, request.source) + engine.cost(request.source, wps[i].node);
            let delay = (via - direct) + (request.release - reach).max(0.0);
            if delay > buffers[i] + TIME_EPS {
                continue;
            }
        }
        for j in i..=n {
            let mut cand = wps.to_vec();
            cand.insert(j, Waypoint::dropoff(request));
            cand.insert(i, Waypoint::pickup(request));
            let cand = Schedule::from_waypoints(cand);
            let eval = cand.evaluate(engine, start_node, start_time, onboard, capacity);
            if !eval.feasible {
                continue;
            }
            let added = eval.travel_cost - base_cost;
            if best.as_ref().is_none_or(|b| added < b.added_cost - 1e-12) {
                best = Some(InsertionOutcome {
                    pickup_pos: i,
                    dropoff_pos: j + 1,
                    schedule: cand,
                    added_cost: added,
                    new_travel_cost: eval.travel_cost,
                });
            }
        }
    }
    best
}

/// Nodes of the main grid of [`engines::engines`]' networks; node `GRID`
/// is on the island, which no grid node reaches.
const GRID: usize = 25;

/// A request released at `release` with 1–2 riders, between grid nodes
/// or (rarely) from the island, with a detour factor in 1–3.
fn random_request(engine: &SpEngine, gen: &mut Gen, id: u32, release: f64) -> Request {
    let source = if gen.next_f64() < 0.05 {
        GRID as NodeId
    } else {
        gen.usize_in(0, GRID) as NodeId
    };
    let destination = gen.usize_in(0, GRID) as NodeId;
    let direct = engine.cost(source, destination);
    let nominal = if direct.is_finite() { direct } else { 60.0 };
    let deadline = release + nominal * (1.0 + 2.0 * gen.next_f64());
    let pickup_deadline = release + (deadline - release - nominal).max(0.0) + 30.0;
    let riders = gen.usize_in(1, 3) as u32;
    Request::new(
        id,
        source,
        destination,
        riders,
        release,
        deadline,
        pickup_deadline,
        nominal,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// `insert_into` walks each candidate without building it and screens
    /// pickup positions and candidates on the engine's leg bound; the
    /// reference builds and evaluates every one on exact legs alone.  Both
    /// agree bit for bit on empty bases, already infeasible bases, full
    /// vehicles, bases whose pickups wait for a later release, and mixed
    /// bases, on every engine of [`engines::engines`]: static, a zoned
    /// rush-hour epoch (`ratio` > 1), a zoned free-flow epoch (`ratio` < 1),
    /// each with the island's infinite legs and bounds.
    #[test]
    fn insertion_matches_the_materialising_reference(seed in 0u64..1_000_000) {
        let mut gen = Gen::new(seed);
        for engine in engines::engines(seed) {
            insertion_matches_the_reference_on(&engine, &mut gen);
        }
    }
}

/// One case of `insertion_matches_the_materialising_reference` on `engine`.
fn insertion_matches_the_reference_on(engine: &SpEngine, gen: &mut Gen) {
    let mut found = 0;
    for shape in 0..5 {
        let node = gen.usize_in(0, GRID) as NodeId;
        let mut time = 50.0;
        let capacity = gen.usize_in(2, 5) as u32;
        let mut onboard = 0;
        // Up to `count` requests released at `release`, each placed
        // by the reference search: a feasible base.
        let base_of = |gen: &mut Gen, count: usize, release: f64| {
            let mut base = Schedule::new();
            for id in 0..count as u32 {
                let r = random_request(engine, gen, 100 + id, release);
                if let Some(out) = reference_insert(engine, node, time, 0, capacity, &base, &r) {
                    base = out.schedule;
                }
            }
            base
        };
        let base = match shape {
            0 => Schedule::new(),
            1 => {
                let base = base_of(gen, 2, time);
                // The vehicle is free only after every deadline.
                time += 10_000.0;
                base
            }
            2 => {
                // Every seat is taken by riders dropped off before
                // the base's first pickup.
                let mut base = base_of(gen, 2, time);
                let r = random_request(engine, gen, 99, 0.0);
                let mut seated = Waypoint::dropoff(&r);
                (seated.riders, seated.deadline) = (capacity, f64::INFINITY);
                let first_pickup = base.iter().position(|w| w.is_pickup()).unwrap_or(0);
                base.insert(gen.usize_in(0, first_pickup + 1), seated);
                onboard = capacity;
                base
            }
            // Released later than the vehicle can arrive: it waits.
            3 => base_of(gen, 2, time + 300.0),
            _ => {
                let count = gen.usize_in(1, 4);
                base_of(gen, count, time)
            }
        };
        let eval = base.evaluate(engine, node, time, onboard, capacity);
        match shape {
            1 => assert!(base.is_empty() || !eval.feasible),
            3 if eval.feasible => {
                assert!(base.is_empty() || eval.waiting.iter().any(|&w| w > 0.0))
            }
            _ => {}
        }
        for id in 0..8 {
            let release = time + (gen.usize_in(0, 40) * 10) as f64;
            let r = random_request(engine, gen, id, release);
            let got = insert_into(engine, node, time, onboard, capacity, &base, &r);
            let want = reference_insert(engine, node, time, onboard, capacity, &base, &r);
            let bits = |o: &Option<InsertionOutcome>| {
                o.as_ref().map(|o| {
                    (
                        o.pickup_pos,
                        o.dropoff_pos,
                        o.schedule.clone(),
                        o.added_cost.to_bits(),
                        o.new_travel_cost.to_bits(),
                    )
                })
            };
            assert_eq!(
                bits(&got),
                bits(&want),
                "shape {} base {} request {:?}",
                shape,
                base,
                r
            );
            found += usize::from(got.is_some());
        }
    }
    assert!(found > 0, "no insertion succeeded");
}
