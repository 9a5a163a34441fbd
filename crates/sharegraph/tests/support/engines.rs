//! Test engines over small random networks, shared by the shareability
//! screen's property tests and the fleet index's fused-screen tests.
//! Include it with `#[path]`; it is not a test target of its own.

use std::sync::Arc;
use structride_roadnet::{
    CongestionZone, EpochStore, HubLabels, Point, RoadNetwork, RoadNetworkBuilder, SpEngine,
    SpEngineBuilder, TrafficConfig, TrafficProfile,
};

/// Nodes per side of the main grid; the island is a second, smaller grid
/// with no edge to the first.
const SIDE: u32 = 5;
const ISLAND_SIDE: u32 = 2;

/// A jittered `SIDE × SIDE` grid with random per-direction speeds (so
/// legs are asymmetric), two nodes sharing one coordinate, a disconnected
/// island, and a detached two-node street faster than every other edge,
/// drawn from `seed`.  The street sets `min_time_per_meter`, and it is
/// drawn so that `rate × length` rounds *above* its weight: the rounding
/// `LOWER_BOUND_GRACE` exists for.
fn random_network(seed: u64) -> RoadNetwork {
    let mut gen = proptest::Gen::new(seed);
    let mut coords: Vec<Point> = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut grid = |coords: &mut Vec<Point>, side: u32, x0: f64| {
        let first = coords.len() as u32;
        for i in 0..side * side {
            let (x, y) = ((i % side) as f64 * 100.0, (i / side) as f64 * 100.0);
            coords.push(Point::new(
                x0 + x + gen.next_f64() * 30.0,
                y + gen.next_f64() * 30.0,
            ));
            if i % side + 1 < side {
                edges.push((first + i, first + i + 1));
            }
            if i + side < side * side {
                edges.push((first + i, first + i + side));
            }
        }
    };
    grid(&mut coords, SIDE, 0.0);
    grid(&mut coords, ISLAND_SIDE, 5_000.0);
    let mut b = RoadNetworkBuilder::new();
    for &p in &coords {
        b.add_node(p);
    }
    for (u, v) in edges {
        let len = coords[u as usize].distance(&coords[v as usize]);
        // 5–20 m/s per direction: awkward quotients on purpose.
        b.add_edge(u, v, len / (5.0 + 15.0 * gen.next_f64()))
            .unwrap();
        b.add_edge(v, u, len / (5.0 + 15.0 * gen.next_f64()))
            .unwrap();
    }
    // A twin of node 0 on its exact coordinate: a zero-length edge.
    let twin = b.add_node(coords[0]);
    b.add_bidirectional(0, twin, 3.0).unwrap();
    let (p, q, weight) = loop {
        let p = Point::new(2_500.0, gen.next_f64() * 100.0);
        let q = Point::new(2_600.0 + gen.next_f64() * 100.0, gen.next_f64() * 100.0);
        let len = p.distance(&q);
        let weight = len / (25.0 + gen.next_f64());
        if weight / len * len > weight {
            break (p, q, weight);
        }
    };
    let (p, q) = (b.add_node(p), b.add_node(q));
    b.add_bidirectional(p, q, weight).unwrap();
    b.build().unwrap()
}

/// The engine shapes the builder meets: static, a rush-hour traffic
/// engine rolled into its congested epoch, a free-flow epoch whose zone
/// halves edge weights (`min_ratio` 0.5), a halo-clipped engine
/// answering half its queries through the fallback, and a halo-clipped
/// rush engine (the store's free-flow landmark table behind a clip).
pub fn engines(seed: u64) -> Vec<SpEngine> {
    let net = random_network(seed);
    let labels = Arc::new(HubLabels::build(&net));
    let halo: Vec<u32> = (0..SIDE * SIDE / 2).collect();
    let zoned = |factor: f64| {
        TrafficConfig {
            profile: TrafficProfile::Rush,
            epoch_seconds: 40.0,
            hour_scale: 20.0,
            ..TrafficConfig::default()
        }
        .with_zone(CongestionZone {
            min_x: 0.0,
            min_y: 0.0,
            max_x: 250.0,
            max_y: 250.0,
            factor,
            active_from: 0.0,
            active_until: 1e9,
        })
    };
    let rush = SpEngineBuilder::new()
        .traffic(zoned(2.5))
        .build(net.clone());
    assert!(rush.roll_epoch_to(8.0 * 20.0));
    let fast_lane = SpEngineBuilder::new()
        .traffic(zoned(0.5))
        .build(net.clone());
    assert!(fast_lane.roll_epoch_to(2.0 * 20.0));
    let net = Arc::new(net);
    let store = EpochStore::new(net.clone(), zoned(2.5), true);
    let clipped_rush = SpEngineBuilder::new().build_traffic_clipped(store, &halo);
    assert!(clipped_rush.roll_epoch_to(8.0 * 20.0));
    vec![
        SpEngineBuilder::new().build_with_index(net.clone(), labels.clone()),
        rush,
        fast_lane,
        SpEngineBuilder::new().build_clipped(net, labels, &halo),
        clipped_rush,
    ]
}
