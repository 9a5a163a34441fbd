//! Property-based integration tests: randomly generated mini-instances must
//! never drive any dispatcher into violating the BDRP constraints.

use proptest::prelude::*;
use std::collections::HashSet;
use structride::prelude::*;

/// A deterministic small engine: a 6×6 grid street network.
fn grid_engine() -> SpEngine {
    use structride::datagen::network::{synthetic_city_network, NetworkParams};
    SpEngine::new(synthetic_city_network(&NetworkParams {
        rows: 6,
        cols: 6,
        seed: 99,
        ..Default::default()
    }))
}

/// A 6×6 grid street network whose nodes all sit on one coordinate: the
/// shareability builder's maximum straight-line speed is 0 there, which
/// turns its source-distance prefilter off.
fn colocated_engine() -> SpEngine {
    let mut b = RoadNetworkBuilder::new();
    for _ in 0..36 {
        b.add_node(Point::new(0.0, 0.0));
    }
    let weight = |k: u32| 20.0 + (k * 7 % 11) as f64;
    for v in 0..36u32 {
        if v % 6 < 5 {
            b.add_bidirectional(v, v + 1, weight(v)).unwrap();
        }
        if v < 30 {
            b.add_bidirectional(v, v + 6, weight(v + 3)).unwrap();
        }
    }
    SpEngine::new(b.build().unwrap())
}

/// Builds a request from raw proptest inputs, clamping everything to the
/// engine's node range and sane deadline parameters.
fn build_request(engine: &SpEngine, id: u32, raw: (u32, u32, f64, f64)) -> Option<Request> {
    let n = engine.node_count() as u32;
    let (s, e, release, gamma) = raw;
    let source = s % n;
    let destination = e % n;
    if source == destination {
        return None;
    }
    let cost = engine.cost(source, destination);
    if !cost.is_finite() || cost <= 0.0 {
        return None;
    }
    Some(Request::with_detour(
        id,
        source,
        destination,
        1,
        release,
        cost,
        1.0 + gamma,
        300.0,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Whatever the request mix, every dispatcher produces schedules that are
    /// feasible, serve each request at most once, and report metrics that add
    /// up.
    #[test]
    fn dispatchers_never_violate_constraints(
        raw_requests in proptest::collection::vec(
            (0u32..1000, 0u32..1000, 0.0f64..120.0, 0.1f64..1.0),
            1..25
        ),
        raw_vehicles in proptest::collection::vec((0u32..1000, 2u32..5), 1..6),
        algo in 0usize..3,
    ) {
        let engine = grid_engine();
        let requests: Vec<Request> = raw_requests
            .iter()
            .enumerate()
            .filter_map(|(i, raw)| build_request(&engine, i as u32, *raw))
            .collect();
        let vehicles: Vec<Vehicle> = raw_vehicles
            .iter()
            .enumerate()
            .map(|(i, &(node, cap))| Vehicle::new(i as u32, node % engine.node_count() as u32, cap))
            .collect();
        let config = StructRideConfig::default();
        let mut dispatcher: Box<dyn Dispatcher> = match algo {
            0 => Box::new(SardDispatcher::new(config)),
            1 => Box::new(PruneGdp::new()),
            _ => Box::new(Gas::default()),
        };
        let report = Simulator::new(config).run(
            &engine,
            &requests,
            vehicles,
            dispatcher.as_mut(),
            "proptest",
        );
        let m = &report.metrics;
        prop_assert!(m.served_requests <= requests.len());
        prop_assert!((0.0..=1.0).contains(&m.service_rate()));
        prop_assert!(m.total_travel.is_finite() && m.total_travel >= 0.0);
        // Served requests were delivered exactly once.
        let delivered: Vec<RequestId> = report
            .vehicles
            .iter()
            .flat_map(|v| v.completed.iter().copied())
            .collect();
        let unique: HashSet<RequestId> = delivered.iter().copied().collect();
        prop_assert_eq!(unique.len(), delivered.len());
        prop_assert_eq!(unique.len(), report.served.len());
        for id in &report.served {
            prop_assert!(unique.contains(id));
        }
        // Unified cost identity.
        let expected = m.total_travel + config.cost.penalty_coefficient * m.unserved_direct_cost;
        prop_assert!((m.unified_cost - expected).abs() < 1e-6);
    }

    /// The dynamic shareability-graph builder — fed two batches with a
    /// removal between them, released in no particular order — keeps
    /// exactly the live pairs that Definition 5's exact check accepts, and
    /// degrees are consistent with the edge set.  With angle pruning off
    /// its prefilter may only drop pairs the check rejects, back-to-back
    /// trips included.  It runs on the grid city and on a network whose
    /// nodes share one coordinate, where the builder's distance prefilter
    /// is off.
    #[test]
    fn shareability_graph_edges_are_sound(
        raw_requests in proptest::collection::vec(
            (0u32..1000, 0u32..1000, 0.0f64..60.0, 0.1f64..1.0),
            2..16
        ),
        victim in 0usize..16,
    ) {
        for engine in [grid_engine(), colocated_engine()] {
            let requests: Vec<Request> = raw_requests
                .iter()
                .enumerate()
                .filter_map(|(i, raw)| build_request(&engine, i as u32, *raw))
                .collect();
            prop_assume!(requests.len() >= 2);
            let (first, second) = requests.split_at(requests.len() / 2);
            let mut builder = ShareabilityGraphBuilder::new(
                &engine,
                BuilderConfig { vehicle_capacity: 4, angle: AnglePruning::disabled() },
            );
            builder.add_batch(&engine, first);
            let removed = first[victim % first.len()].id;
            prop_assert!(builder.remove_request(removed));
            builder.add_batch(&engine, second);

            let live: std::collections::HashMap<RequestId, &Request> = requests
                .iter()
                .filter(|r| r.id != removed)
                .map(|r| (r.id, r))
                .collect();
            let graph = builder.graph();
            // The edge set is the brute-force set of live pairs shareable
            // under Definition 5, checked as the builder does: the later
            // arrival (the higher id) against the earlier one.
            let mut shareable = Vec::new();
            for (i, earlier) in requests.iter().enumerate() {
                for later in &requests[i + 1..] {
                    let pair_live = live.contains_key(&earlier.id) && live.contains_key(&later.id);
                    if pair_live
                        && structride::sharegraph::pairwise_shareable(&engine, later, earlier, 4)
                    {
                        shareable.push((earlier.id, later.id));
                    }
                }
            }
            prop_assert_eq!(graph.edges_sorted(), shareable);
            let degree_sum: usize = live.keys().map(|&id| graph.degree(id)).sum();
            prop_assert_eq!(degree_sum, 2 * graph.edge_count());
        }
    }
}
