//! Landmark lower bounds on travel time (ALT: Goldberg & Harrelson,
//! "Computing the shortest path: A* search meets graph theory", SODA 2005).
//!
//! A [`Landmarks`] table stores, for [`LANDMARKS`] chosen nodes `L`, the
//! exact distances `d(L, v)` and `d(v, L)` to and from every node `v`.  The
//! triangle inequality then bounds any pair from below in a few array reads:
//!
//! ```text
//! d(u, v) ≥ d(L, v) − d(L, u)      (a path L → u → v is a path L → v)
//! d(u, v) ≥ d(u, L) − d(v, L)      (a path u → v → L is a path u → L)
//! lb(u, v) = max over L of both, and of 0
//! ```
//!
//! Infinite distances follow the same logic: `d(L, v) = ∞` with `d(L, u)`
//! finite proves `v` unreachable from `u`, so the bound is `∞`.  When both
//! sides are infinite the difference is `NaN`, and the fold with `f64::max`
//! drops it.
//!
//! The bound is on the network the table was built on.  The engine scales it
//! to a traffic epoch with the epoch's smallest weight ratio and gives the
//! result the usual floating-point grace; see [`LegBound`](crate::engine::LegBound).
//!
//! # Choosing the landmarks
//!
//! Farthest-point selection on round-trip distance: the first landmark is
//! node 0, and each next one is the node whose round trip `d(L, v) + d(v, L)`
//! to its nearest chosen landmark is largest, ties to the lowest id.  A node
//! no chosen landmark reaches has an infinite round trip, so every strongly
//! connected piece gets a landmark before any piece gets a second one.  Each
//! landmark costs one forward and one backward Dijkstra, and the choice
//! reads only the distances those searches return, so the table is a pure
//! function of the network.  A network with fewer nodes than landmarks
//! repeats landmarks, which only repeats bounds.

use crate::dijkstra;
use crate::graph::{NodeId, RoadNetwork};
use std::fmt;

/// Number of landmarks in a [`Landmarks`] table.
pub const LANDMARKS: usize = 8;

/// One node's distances: `from[i] = d(L_i, v)`, `to[i] = d(v, L_i)`.  A
/// bound reads two of these 128-byte rows.
#[derive(Clone, Copy)]
struct Row {
    from: [f64; LANDMARKS],
    to: [f64; LANDMARKS],
}

/// Node-major landmark distances and the ALT lower bound they give.  See the
/// module docs.
#[derive(Clone)]
pub struct Landmarks {
    chosen: [NodeId; LANDMARKS],
    rows: Vec<Row>,
}

impl fmt::Debug for Landmarks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Landmarks")
            .field("chosen", &self.chosen)
            .field("nodes", &self.rows.len())
            .finish()
    }
}

impl Landmarks {
    /// Chooses the landmarks of `net` and records their distances: one
    /// forward and one backward Dijkstra per landmark.
    pub fn build(net: &RoadNetwork) -> Self {
        let n = net.node_count();
        let unset = Row {
            from: [f64::INFINITY; LANDMARKS],
            to: [f64::INFINITY; LANDMARKS],
        };
        let mut rows = vec![unset; n];
        let mut chosen = [0; LANDMARKS];
        // Round trip from each node to its nearest chosen landmark.
        let mut nearest = vec![f64::INFINITY; n];
        let mut next: NodeId = 0;
        for (i, slot) in chosen.iter_mut().enumerate() {
            if n == 0 {
                break;
            }
            *slot = next;
            let from = dijkstra::sssp(net, next);
            let to = dijkstra::sssp_reverse(net, next);
            for (v, row) in rows.iter_mut().enumerate() {
                row.from[i] = from[v];
                row.to[i] = to[v];
                nearest[v] = nearest[v].min(from[v] + to[v]);
            }
            let mut best = f64::NEG_INFINITY;
            for (v, &round_trip) in nearest.iter().enumerate() {
                if round_trip > best {
                    best = round_trip;
                    next = v as NodeId;
                }
            }
        }
        Landmarks { chosen, rows }
    }

    /// The landmark nodes, in the order they were chosen.
    pub fn chosen(&self) -> &[NodeId; LANDMARKS] {
        &self.chosen
    }

    /// The ALT lower bound on `d(u, v)` over the table's network, in exact
    /// arithmetic: `max(0, max over L of d(L, v) − d(L, u), d(u, L) −
    /// d(v, L))`, `∞` when the table proves `v` unreachable from `u`.
    /// Compare it with computed costs only after giving away
    /// [`LOWER_BOUND_GRACE`](crate::LOWER_BOUND_GRACE).
    pub fn lower_bound(&self, u: NodeId, v: NodeId) -> f64 {
        let (u, v) = (&self.rows[u as usize], &self.rows[v as usize]);
        let mut bound = 0.0f64;
        for i in 0..LANDMARKS {
            bound = bound.max(v.from[i] - u.from[i]).max(u.to[i] - v.to[i]);
        }
        bound
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<Row>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Point, RoadNetworkBuilder};

    /// `0 - 1 - … - (n-1)` with unit-free weights `10 × (i + 1)` on the
    /// edge into node `i + 1`, both ways, plus an unreachable island node.
    fn line_with_island(n: u32) -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..=n {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 1..n {
            b.add_bidirectional(i - 1, i, 10.0 * i as f64).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn the_choice_is_farthest_first_and_deterministic() {
        let net = line_with_island(5);
        let table = Landmarks::build(&net);
        // Node 0 first; the island (unreachable, infinite round trip) next;
        // then the far end of the line, then the node farthest from both
        // ends by round trip.
        assert_eq!(table.chosen()[..4], [0, 5, 4, 3]);
        assert_eq!(Landmarks::build(&net).chosen(), table.chosen());
    }

    #[test]
    fn the_bound_is_zero_on_the_diagonal_exact_on_a_line_and_infinite_across_islands() {
        let net = line_with_island(5);
        let table = Landmarks::build(&net);
        for u in net.nodes() {
            assert_eq!(table.lower_bound(u, u), 0.0, "{u}");
            let exact = dijkstra::sssp(&net, u);
            for v in net.nodes() {
                let bound = table.lower_bound(u, v);
                if exact[v as usize].is_finite() {
                    // A landmark at an end of the line sees every pair
                    // exactly.
                    assert_eq!(bound, exact[v as usize], "{u}->{v}");
                } else {
                    assert_eq!(bound, f64::INFINITY, "{u}->{v}");
                }
            }
        }
    }

    #[test]
    fn a_network_smaller_than_the_table_repeats_landmarks() {
        let mut b = RoadNetworkBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(10.0, 0.0));
        b.add_edge(0, 1, 4.0).unwrap();
        let net = b.build().unwrap();
        let table = Landmarks::build(&net);
        assert!(table.chosen().iter().all(|&l| l < 2));
        assert_eq!(table.lower_bound(0, 1), 4.0);
        assert_eq!(table.lower_bound(1, 0), f64::INFINITY);
    }
}
