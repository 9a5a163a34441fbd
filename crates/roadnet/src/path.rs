//! Shortest-path *route* reconstruction.
//!
//! The dispatchers only need travel times, but executing a schedule on a real
//! map (and the route-level diagnostics in the examples) needs the actual node
//! sequence a vehicle drives.  This module adds a predecessor-tracking
//! Dijkstra and a helper that expands a sequence of way-point nodes into the
//! full driven route.

use crate::graph::{NodeId, RoadNetwork};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}
impl Eq for HeapEntry {}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A reconstructed shortest path.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// The node sequence from source to target (inclusive).
    pub nodes: Vec<NodeId>,
    /// Total travel time along the path.
    pub cost: f64,
}

/// Computes the shortest path from `source` to `target` with its node
/// sequence.  Returns `None` if the target is unreachable.
pub fn shortest_path(net: &RoadNetwork, source: NodeId, target: NodeId) -> Option<Path> {
    if source == target {
        return Some(Path {
            nodes: vec![source],
            cost: 0.0,
        });
    }
    let n = net.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![u32::MAX; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node }) = heap.pop() {
        if settled[node as usize] {
            continue;
        }
        settled[node as usize] = true;
        if node == target {
            break;
        }
        for (to, w) in net.out_edges(node) {
            let nd = d + w;
            if nd < dist[to as usize] {
                dist[to as usize] = nd;
                prev[to as usize] = node;
                heap.push(HeapEntry { dist: nd, node: to });
            }
        }
    }
    if !dist[target as usize].is_finite() {
        return None;
    }
    let mut nodes = vec![target];
    let mut cur = target;
    while cur != source {
        cur = prev[cur as usize];
        debug_assert_ne!(cur, u32::MAX, "reachable target must have predecessors");
        nodes.push(cur);
    }
    nodes.reverse();
    Some(Path {
        nodes,
        cost: dist[target as usize],
    })
}

/// Expands an ordered list of way-point nodes (e.g. a vehicle schedule's
/// stops) into the full driven route.  Consecutive duplicate nodes are kept
/// once.  Returns `None` if any leg is unreachable.
pub fn expand_route(net: &RoadNetwork, waypoints: &[NodeId]) -> Option<Path> {
    match waypoints {
        [] => Some(Path {
            nodes: Vec::new(),
            cost: 0.0,
        }),
        [single] => Some(Path {
            nodes: vec![*single],
            cost: 0.0,
        }),
        _ => {
            let mut nodes = vec![waypoints[0]];
            let mut cost = 0.0;
            for pair in waypoints.windows(2) {
                let leg = shortest_path(net, pair[0], pair[1])?;
                cost += leg.cost;
                nodes.extend(leg.nodes.into_iter().skip(1));
            }
            Some(Path { nodes, cost })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra;
    use crate::graph::{Point, RoadNetworkBuilder};

    fn grid3() -> RoadNetwork {
        // 3x3 grid, unit weights.
        let mut b = RoadNetworkBuilder::new();
        for r in 0..3 {
            for c in 0..3 {
                b.add_node(Point::new(c as f64, r as f64));
            }
        }
        let id = |r: u32, c: u32| r * 3 + c;
        for r in 0..3 {
            for c in 0..3 {
                if c + 1 < 3 {
                    b.add_bidirectional(id(r, c), id(r, c + 1), 1.0).unwrap();
                }
                if r + 1 < 3 {
                    b.add_bidirectional(id(r, c), id(r + 1, c), 1.0).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn path_cost_matches_dijkstra_distance() {
        let g = grid3();
        for s in 0..9u32 {
            let d = dijkstra::sssp(&g, s);
            for t in 0..9u32 {
                let p = shortest_path(&g, s, t).unwrap();
                assert!((p.cost - d[t as usize]).abs() < 1e-12);
                assert_eq!(p.nodes.first(), Some(&s));
                assert_eq!(p.nodes.last(), Some(&t));
                assert_eq!((p.nodes.len() - 1) as f64, p.cost);
                // Consecutive nodes are actually connected.
                for w in p.nodes.windows(2) {
                    assert!(g.out_edges(w[0]).any(|(to, _)| to == w[1]));
                }
            }
        }
    }

    #[test]
    fn unreachable_target_returns_none() {
        let mut b = RoadNetworkBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(1.0, 0.0));
        let g = b.build().unwrap();
        assert!(shortest_path(&g, 0, 1).is_none());
        assert!(expand_route(&g, &[0, 1]).is_none());
    }

    #[test]
    fn expand_route_concatenates_legs() {
        let g = grid3();
        let route = expand_route(&g, &[0, 2, 8]).unwrap();
        assert_eq!(route.cost, 2.0 + 2.0);
        assert_eq!(route.nodes.first(), Some(&0));
        assert_eq!(route.nodes.last(), Some(&8));
        // No duplicated junction node where the legs meet.
        assert_eq!(route.nodes.iter().filter(|&&n| n == 2).count(), 1);
        // Degenerate inputs.
        assert_eq!(expand_route(&g, &[]).unwrap().nodes.len(), 0);
        assert_eq!(expand_route(&g, &[4]).unwrap().cost, 0.0);
    }
}
