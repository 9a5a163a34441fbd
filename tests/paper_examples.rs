//! Integration tests replaying the worked examples of the paper
//! (Example 1 / Table I / Figure 1, Example 2, Example 3, Example 4).

use structride::prelude::*;
use structride::sharegraph::{clique, loss};

/// The Figure 1(a) road network with nodes a..g = 0..6.
fn figure1_engine() -> SpEngine {
    let coords = [
        (0.0, 0.0),
        (200.0, 0.0),
        (500.0, 0.0),
        (0.0, 400.0),
        (500.0, 400.0),
        (700.0, 100.0),
        (700.0, -100.0),
    ];
    let mut b = RoadNetworkBuilder::new();
    for (x, y) in coords {
        b.add_node(Point::new(x, y));
    }
    let (a, bb, c, d, e, f, g) = (0, 1, 2, 3, 4, 5, 6);
    for (u, v, w) in [
        (a, bb, 2.0),
        (bb, c, 3.0),
        (bb, e, 17.0),
        (c, f, 2.0),
        (a, d, 13.0),
        (d, e, 2.0),
        (e, f, 12.0),
        (f, g, 6.0),
        (c, g, 2.0),
        (c, e, 18.0),
    ] {
        b.add_bidirectional(u, v, w).unwrap();
    }
    SpEngine::new(b.build().unwrap())
}

fn table1_requests(engine: &SpEngine) -> Vec<Request> {
    let (a, bb, c, d, e, f, g) = (0u32, 1, 2, 3, 4, 5, 6);
    [
        (1u32, a, d, 0.0, 30.0),
        (2, c, f, 1.0, 19.0),
        (3, bb, e, 2.0, 21.0),
        (4, c, g, 3.0, 21.0),
    ]
    .into_iter()
    .map(|(id, s, t, release, deadline)| {
        let cost = engine.cost(s, t);
        Request::new(id, s, t, 1, release, deadline, deadline - cost, cost)
    })
    .collect()
}

#[test]
fn figure1_shareability_graph_contains_the_papers_edges() {
    let engine = figure1_engine();
    let requests = table1_requests(&engine);
    let mut builder = ShareabilityGraphBuilder::new(
        &engine,
        BuilderConfig {
            vehicle_capacity: 3,
            angle: AnglePruning::disabled(),
        },
    );
    builder.add_batch(&engine, &requests);
    let g = builder.graph();
    // The edges drawn in Figure 1(b).
    assert!(g.has_edge(1, 2));
    assert!(g.has_edge(1, 3));
    assert!(g.has_edge(2, 3));
    assert!(g.has_edge(2, 4));
    // r3–r4 cannot share: r3 must be picked up at b within 4 seconds, which a
    // vehicle leaving from c (r4's source) cannot do after serving r4 first,
    // and the joint deadlines rule out every interleaving.
    assert!(!g.has_edge(3, 4));
    // r2 is the highest-degree (most shareable) request, r4 the lowest among
    // the connected ones — the ordering SARD's heuristics rely on.
    assert!(g.degree(2) >= g.degree(1));
    assert!(g.degree(4) <= g.degree(1));
}

#[test]
fn example3_shareability_loss_ranking() {
    // The Figure 1(b) graph, as in Example 3.
    let mut g = ShareabilityGraph::new();
    g.add_edge(1, 2);
    g.add_edge(1, 3);
    g.add_edge(2, 3);
    g.add_edge(2, 4);
    assert_eq!(loss::shareability_loss(&g, &[1, 3]), 2.0);
    assert_eq!(loss::shareability_loss(&g, &[1, 2]), 3.0);
    // Substituting {r1, r3} is the more structure-friendly choice.
    assert!(loss::shareability_loss(&g, &[1, 3]) < loss::shareability_loss(&g, &[1, 2]));
    // Observation 2: served groups must be cliques.
    assert!(clique::is_clique(&g, &[1, 2, 3]));
    assert!(!clique::is_clique(&g, &[1, 2, 4]));
    // Theorem IV.2: the degree-1 node r4 pairs with its only neighbor r2.
    assert_eq!(loss::forced_pairs(&g), vec![(4, 2)]);
}

#[test]
fn example2_grouping_tree_prunes_infeasible_combinations() {
    use std::collections::HashMap;
    use structride::core::enumerate_groups;

    let engine = figure1_engine();
    let requests = table1_requests(&engine);
    let map: HashMap<RequestId, Request> = requests.iter().map(|r| (r.id, r.clone())).collect();

    let mut builder = ShareabilityGraphBuilder::new(
        &engine,
        BuilderConfig {
            vehicle_capacity: 3,
            angle: AnglePruning::disabled(),
        },
    );
    builder.add_batch(&engine, &requests);

    // A hypothetical vehicle at node a with capacity 3, as in Example 2.
    let vehicle = Vehicle::new(1, 0, 3);
    let ctx = DispatchContext::new(&engine, StructRideConfig::default(), 0.0);
    let groups = enumerate_groups(&ctx, builder.graph(), &map, &[1, 2, 3, 4], &vehicle, 3);
    // Every group is a clique of the shareability graph (Lemma IV.1b)…
    for g in &groups {
        assert!(clique::is_clique(builder.graph(), &g.members));
        assert!(g.schedule.is_well_formed());
        assert!(vehicle.evaluate(&engine, &g.schedule).feasible);
    }
    // …so no group contains the non-shareable pair {r3, r4}.
    assert!(groups
        .iter()
        .all(|g| !(g.members.contains(&3) && g.members.contains(&4))));
    // The example's key group {r1, r3} exists and shares the trip efficiently.
    let pair = groups
        .iter()
        .find(|g| g.members == vec![1, 3])
        .expect("{r1, r3} is feasible");
    assert!(pair.sharing_ratio() <= 1.0);
}

#[test]
fn example1_sard_serves_all_four_requests() {
    let engine = figure1_engine();
    let requests = table1_requests(&engine);
    let mut vehicles = vec![Vehicle::new(1, 0, 3), Vehicle::new(2, 2, 3)];
    let config = StructRideConfig {
        shareability_capacity: 3,
        angle: AnglePruning::disabled(),
        ..Default::default()
    };
    let mut sard = SardDispatcher::new(config);
    let ctx = DispatchContext::new(&engine, config, 5.0);
    let out = sard.dispatch_batch(&ctx, &mut vehicles, &requests);
    assert_eq!(
        out.assigned,
        vec![1, 2, 3, 4],
        "SARD serves every request of Example 1"
    );
    for v in &vehicles {
        assert!(v.evaluate_current(&engine).feasible);
    }

    // The online insertion baseline never serves more than SARD here (on the
    // paper's exact edge weights it serves strictly fewer — our reconstructed
    // weights are close but not identical, so only the ordering is asserted).
    let mut vehicles = vec![Vehicle::new(1, 0, 3), Vehicle::new(2, 2, 3)];
    let mut gdp = PruneGdp::new();
    let gdp_out = gdp.dispatch_batch(&ctx, &mut vehicles, &requests);
    assert!(gdp_out.assigned.len() <= out.assigned.len());
}
