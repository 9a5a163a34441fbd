//! Synthetic city road networks.
//!
//! The generator produces a rectangular street grid with perturbed per-edge
//! speeds plus a few faster arterial rows/columns, which is enough to exercise
//! every code path the paper's road networks exercise: non-uniform travel
//! times, directionality, shortest paths that deviate from straight lines, and
//! coordinates for the grid index / angle pruning.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use structride_roadnet::{Point, RoadNetwork, RoadNetworkBuilder};

/// Parameters of the synthetic road-network generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkParams {
    /// Number of intersection rows.
    pub rows: u32,
    /// Number of intersection columns.
    pub cols: u32,
    /// Distance between neighbouring intersections, in meters.
    pub spacing_m: f64,
    /// Base street speed in m/s.
    pub base_speed_mps: f64,
    /// Relative speed jitter per edge (0.2 = ±20 %).
    pub speed_jitter: f64,
    /// Every `arterial_every`-th row/column is an arterial with
    /// `arterial_speedup` × the base speed (0 disables arterials).
    pub arterial_every: u32,
    /// Speed multiplier on arterial edges.
    pub arterial_speedup: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NetworkParams {
    fn default() -> Self {
        NetworkParams {
            rows: 24,
            cols: 24,
            spacing_m: 250.0,
            base_speed_mps: 8.0,
            speed_jitter: 0.2,
            arterial_every: 6,
            arterial_speedup: 1.8,
            seed: 1,
        }
    }
}

impl NetworkParams {
    /// Total number of nodes the generated network will have.
    pub fn node_count(&self) -> usize {
        (self.rows * self.cols) as usize
    }
}

/// Generates a synthetic grid city network.
///
/// All streets are bidirectional; travel times are `spacing / speed` with the
/// configured jitter and arterial speed-ups, so the network is connected and
/// strongly connected by construction.
pub fn synthetic_city_network(params: &NetworkParams) -> RoadNetwork {
    assert!(
        params.rows >= 2 && params.cols >= 2,
        "need at least a 2x2 grid"
    );
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut b = RoadNetworkBuilder::with_capacity(params.node_count(), params.node_count() * 4);
    for r in 0..params.rows {
        for c in 0..params.cols {
            b.add_node(Point::new(
                c as f64 * params.spacing_m,
                r as f64 * params.spacing_m,
            ));
        }
    }
    let id = |r: u32, c: u32| r * params.cols + c;
    let edge_speed = |rng: &mut StdRng, arterial: bool| {
        let jitter = 1.0 + params.speed_jitter * (rng.gen::<f64>() * 2.0 - 1.0);
        let mut speed = params.base_speed_mps * jitter.max(0.1);
        if arterial && params.arterial_every > 0 {
            speed *= params.arterial_speedup.max(1.0);
        }
        speed
    };
    for r in 0..params.rows {
        for c in 0..params.cols {
            // Eastward street.
            if c + 1 < params.cols {
                let arterial = params.arterial_every > 0 && r % params.arterial_every == 0;
                let speed = edge_speed(&mut rng, arterial);
                let w = params.spacing_m / speed;
                b.add_bidirectional(id(r, c), id(r, c + 1), w)
                    .expect("valid grid edge");
            }
            // Northward street.
            if r + 1 < params.rows {
                let arterial = params.arterial_every > 0 && c % params.arterial_every == 0;
                let speed = edge_speed(&mut rng, arterial);
                let w = params.spacing_m / speed;
                b.add_bidirectional(id(r, c), id(r + 1, c), w)
                    .expect("valid grid edge");
            }
        }
    }
    b.build().expect("grid network is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use structride_roadnet::dijkstra;

    #[test]
    fn generates_expected_size() {
        let p = NetworkParams {
            rows: 5,
            cols: 7,
            ..Default::default()
        };
        let net = synthetic_city_network(&p);
        assert_eq!(net.node_count(), 35);
        // A 5x7 grid has 5*6 + 4*7 = 58 undirected streets = 116 directed edges.
        assert_eq!(net.edge_count(), 116);
    }

    #[test]
    fn network_is_strongly_connected() {
        let p = NetworkParams {
            rows: 6,
            cols: 6,
            seed: 3,
            ..Default::default()
        };
        let net = synthetic_city_network(&p);
        let d = dijkstra::sssp(&net, 0);
        assert!(d.iter().all(|x| x.is_finite()));
        let back = dijkstra::sssp_reverse(&net, 0);
        assert!(back.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = NetworkParams {
            rows: 4,
            cols: 4,
            seed: 9,
            ..Default::default()
        };
        let a = synthetic_city_network(&p);
        let b = synthetic_city_network(&p);
        let da = dijkstra::sssp(&a, 0);
        let db = dijkstra::sssp(&b, 0);
        assert_eq!(da, db);
    }

    #[test]
    fn arterials_speed_up_travel() {
        let slow = NetworkParams {
            rows: 10,
            cols: 10,
            arterial_every: 0,
            speed_jitter: 0.0,
            seed: 5,
            ..Default::default()
        };
        let fast = NetworkParams {
            arterial_every: 3,
            arterial_speedup: 2.0,
            ..slow
        };
        let net_slow = synthetic_city_network(&slow);
        let net_fast = synthetic_city_network(&fast);
        let d_slow = dijkstra::p2p(&net_slow, 0, 99);
        let d_fast = dijkstra::p2p(&net_fast, 0, 99);
        assert!(d_fast < d_slow);
    }

    #[test]
    #[should_panic(expected = "2x2")]
    fn rejects_degenerate_grids() {
        let p = NetworkParams {
            rows: 1,
            cols: 5,
            ..Default::default()
        };
        synthetic_city_network(&p);
    }
}
