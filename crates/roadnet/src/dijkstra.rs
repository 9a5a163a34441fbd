//! Dijkstra shortest-path searches on the road network.
//!
//! These routines are the exact reference for travel costs.  The
//! [`SpEngine`](crate::engine::SpEngine) never calls them — it answers from
//! hub labels, whose build runs its own pruned search.  Their users are the
//! landmark table (one forward and one reverse [`sssp`] per landmark), route
//! reconstruction in [`crate::path`] and the tests, which use them as the
//! correctness oracle.

use crate::graph::{NodeId, RoadNetwork};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Heap entry ordered by smallest distance first (ties to the lower node),
/// shared by every Dijkstra of this crate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HeapEntry {
    pub(crate) dist: f64,
    pub(crate) node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: BinaryHeap is a max-heap and we want the minimum.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-source shortest path distances to all nodes (forward search).
///
/// Unreachable nodes get `f64::INFINITY`.
pub fn sssp(net: &RoadNetwork, source: NodeId) -> Vec<f64> {
    search(net, source, None, Direction::Forward, None)
}

/// Single-source shortest path distances over the reverse graph, i.e.
/// `result[u] = dist(u -> source)` in the original graph.
pub fn sssp_reverse(net: &RoadNetwork, source: NodeId) -> Vec<f64> {
    search(net, source, None, Direction::Backward, None)
}

/// Point-to-point distance with early termination once the target is settled.
pub fn p2p(net: &RoadNetwork, source: NodeId, target: NodeId) -> f64 {
    if source == target {
        return 0.0;
    }
    let dist = search(net, source, Some(target), Direction::Forward, None);
    dist[target as usize]
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    Forward,
    Backward,
}

/// Dijkstra from `source` over `dir`'s edges, stopping once `target` (if
/// any) is settled; returns the distances.  With `prev` it also records,
/// for every node whose distance it improved, the node it was reached from.
pub(crate) fn search(
    net: &RoadNetwork,
    source: NodeId,
    target: Option<NodeId>,
    dir: Direction,
    mut prev: Option<&mut [NodeId]>,
) -> Vec<f64> {
    let n = net.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::with_capacity(64);
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
        if Some(node) == target {
            break;
        }
        let mut relax = |(to, w): (NodeId, f64)| {
            let nd = d + w;
            if nd < dist[to as usize] {
                dist[to as usize] = nd;
                if let Some(prev) = prev.as_deref_mut() {
                    prev[to as usize] = node;
                }
                heap.push(HeapEntry { dist: nd, node: to });
            }
        };
        match dir {
            Direction::Forward => net.out_edges(node).for_each(&mut relax),
            Direction::Backward => net.in_edges(node).for_each(&mut relax),
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Point, RoadNetworkBuilder};

    /// Builds the 7-node road network of the paper's Figure 1(a).
    ///
    /// Nodes: a=0, b=1, c=2, d=3, e=4, f=5, g=6.  Edge weights follow the
    /// figure; edges are bidirectional.
    pub(crate) fn figure1_network() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..7 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        let (a, bb, c, d, e, f, g) = (0, 1, 2, 3, 4, 5, 6);
        // Weights from Fig. 1(a): a-b 2, b-c 3, b-e 17, c-f 2, c-e 18(via?), a-d 13,
        // d-e 2, e-f 12, f-g 6, c-g 2 (approximate reading of the figure; the exact
        // values only matter for the motivating example tests which use this helper).
        b.add_bidirectional(a, bb, 2.0).unwrap();
        b.add_bidirectional(bb, c, 3.0).unwrap();
        b.add_bidirectional(bb, e, 17.0).unwrap();
        b.add_bidirectional(c, f, 2.0).unwrap();
        b.add_bidirectional(a, d, 13.0).unwrap();
        b.add_bidirectional(d, e, 2.0).unwrap();
        b.add_bidirectional(e, f, 12.0).unwrap();
        b.add_bidirectional(f, g, 6.0).unwrap();
        b.add_bidirectional(c, g, 2.0).unwrap();
        b.add_bidirectional(c, e, 18.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn sssp_matches_hand_computed() {
        let g = figure1_network();
        let d = sssp(&g, 0);
        assert_eq!(d[0], 0.0);
        assert_eq!(d[1], 2.0); // a->b
        assert_eq!(d[2], 5.0); // a->b->c
        assert_eq!(d[5], 7.0); // a->b->c->f
        assert_eq!(d[6], 7.0); // a->b->c->g
        assert_eq!(d[3], 13.0); // a->d
        assert_eq!(d[4], 15.0); // a->d->e
    }

    #[test]
    fn p2p_matches_sssp() {
        let g = figure1_network();
        let d = sssp(&g, 2);
        for t in 0..7u32 {
            assert_eq!(p2p(&g, 2, t), d[t as usize]);
        }
    }

    #[test]
    fn reverse_search_matches_forward_on_transpose() {
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(1.0, 0.0));
        let n2 = b.add_node(Point::new(2.0, 0.0));
        b.add_edge(n0, n1, 1.0).unwrap();
        b.add_edge(n1, n2, 1.0).unwrap();
        let g = b.build().unwrap();
        // dist(u -> 2)
        let back = sssp_reverse(&g, 2);
        assert_eq!(back[0], 2.0);
        assert_eq!(back[1], 1.0);
        assert_eq!(back[2], 0.0);
        // 2 cannot reach 0 going forward.
        assert!(p2p(&g, 2, 0).is_infinite());
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut b = RoadNetworkBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(1.0, 0.0));
        let g = b.build().unwrap();
        assert!(p2p(&g, 0, 1).is_infinite());
        assert_eq!(p2p(&g, 1, 1), 0.0);
    }
}
