//! Directed weighted road network in compressed-sparse-row (CSR) form.
//!
//! Nodes are road intersections with planar coordinates; each directed edge
//! carries the average travel time in seconds (the paper's `cost(u, v)` edge
//! weight, §II).  Both the forward and the reverse adjacency are materialised
//! because hub-label construction needs backward searches.

use crate::error::RoadNetError;
use crate::Result;

/// Identifier of a road-network node (intersection).
pub type NodeId = u32;

/// Identifier of a directed edge (index into the CSR edge arrays).
pub type EdgeId = u32;

/// Planar coordinate of a node, in meters (projected), used by the grid index
/// and the angle-pruning geometry.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Easting in meters.
    pub x: f64,
    /// Northing in meters.
    pub y: f64,
}

impl Point {
    /// Creates a new point.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point, in meters.
    pub fn distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// Seconds of slack every certified travel-time lower bound gives away to
/// floating-point rounding: a caller compares `min_time_per_meter ×
/// euclid(u, v)` with exact costs only after subtracting this grace from the
/// bound (or adding it to the deadline the bound is tested against).
///
/// [`RoadNetwork::min_time_per_meter`]'s guarantee holds in exact arithmetic.
/// In `f64` the rate is a quotient over a rounded square root, the Euclidean
/// distance is another rounded square root, and their product rounds once
/// more: a few units of 2⁻⁵³ of relative error.  A shortest-path cost is a
/// sum of at most `|V|` rounded edge weights, or two such sums for a hub-label
/// answer, so its error is at most `|V|` × 2⁻⁵³ of the cost.  For travel times
/// below 10⁶ s on networks below 10⁶ nodes both errors stay under a
/// millisecond.  One second is therefore a huge margin.  It is still far
/// below any slack the deadlines leave, so the bound keeps nearly all of its
/// pruning power.  The shareability screen, the fleet index's reachability
/// certificate, the pickup reach screen, the handoff shortlist and GAS's pool
/// prescreen all use it.  The landmark bound ([`crate::LegBound`]) is a
/// difference of two such rounded sums, scaled by one rounded ratio, so the
/// same argument covers it.
pub const LOWER_BOUND_GRACE: f64 = 1.0;

/// A directed weighted road network with planar node coordinates.
///
/// The adjacency is stored in CSR form for cache-friendly traversal; the
/// reverse adjacency is stored as well so backward Dijkstra searches (needed
/// by hub labeling and by "which vehicles can reach this pickup in time"
/// queries) are as cheap as forward ones.
#[derive(Debug, Clone, PartialEq)]
pub struct RoadNetwork {
    coords: Vec<Point>,
    // forward CSR
    fwd_offsets: Vec<u32>,
    fwd_targets: Vec<NodeId>,
    fwd_weights: Vec<f64>,
    // reverse CSR
    rev_offsets: Vec<u32>,
    rev_targets: Vec<NodeId>,
    rev_weights: Vec<f64>,
}

impl RoadNetwork {
    /// A network without nodes, which the builder refuses to produce: for
    /// tests of code that must not assume a node exists.
    #[cfg(test)]
    pub(crate) fn empty() -> RoadNetwork {
        RoadNetwork {
            coords: Vec::new(),
            fwd_offsets: vec![0],
            fwd_targets: Vec::new(),
            fwd_weights: Vec::new(),
            rev_offsets: vec![0],
            rev_targets: Vec::new(),
            rev_weights: Vec::new(),
        }
    }

    /// Number of nodes (intersections).
    pub fn node_count(&self) -> usize {
        self.coords.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.fwd_targets.len()
    }

    /// Coordinate of a node.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn coord(&self, node: NodeId) -> Point {
        self.coords[node as usize]
    }

    /// Returns true if `node` is a valid node id.
    pub fn contains(&self, node: NodeId) -> bool {
        (node as usize) < self.coords.len()
    }

    /// Iterator over the outgoing edges `(target, weight)` of `node`.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let lo = self.fwd_offsets[node as usize] as usize;
        let hi = self.fwd_offsets[node as usize + 1] as usize;
        self.fwd_targets[lo..hi]
            .iter()
            .copied()
            .zip(self.fwd_weights[lo..hi].iter().copied())
    }

    /// Iterator over the incoming edges `(source, weight)` of `node`.
    pub fn in_edges(&self, node: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let lo = self.rev_offsets[node as usize] as usize;
        let hi = self.rev_offsets[node as usize + 1] as usize;
        self.rev_targets[lo..hi]
            .iter()
            .copied()
            .zip(self.rev_weights[lo..hi].iter().copied())
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.coords.len() as NodeId
    }

    /// The axis-aligned bounding box `(min_x, min_y, max_x, max_y)` of all
    /// node coordinates — what the spatial indexes and the region
    /// partitioner cover.
    ///
    /// # Panics
    /// Panics if the network has no nodes (`build` never produces one).
    pub fn bounding_box(&self) -> (f64, f64, f64, f64) {
        assert!(!self.coords.is_empty(), "bounding box of an empty network");
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in &self.coords {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        (min_x, min_y, max_x, max_y)
    }

    /// The minimum travel time per meter of geometric edge length over all
    /// edges (seconds per meter), ignoring edges of (near-)zero length.
    ///
    /// This is the certified lower-bound rate behind geometric reachability
    /// pruning: for any pair of nodes, `travel_time(u, v) >=
    /// min_time_per_meter() * euclidean(u, v)` holds in exact arithmetic,
    /// because every path is at least as long as the straight line and every
    /// edge costs at least this rate per meter of its own length.  In `f64`,
    /// compare it with exact costs only with [`LOWER_BOUND_GRACE`] of slack.
    /// Returns `0.0` (a trivially sound bound) when no edge has positive
    /// length.
    pub fn min_time_per_meter(&self) -> f64 {
        let mut best = f64::INFINITY;
        for node in self.nodes() {
            let from = self.coord(node);
            for (to, w) in self.out_edges(node) {
                let len = from.distance(&self.coord(to));
                if len > 1e-9 {
                    let rate = w / len;
                    if rate < best {
                        best = rate;
                    }
                }
            }
        }
        if best.is_finite() {
            best
        } else {
            0.0
        }
    }

    /// The smallest factor by which this network's edge weights exceed
    /// `base`'s, `min(w / w_base)` over the edges in edge order, skipping
    /// edges of zero base weight.  `self` must be a reweighted copy of
    /// `base` ([`RoadNetwork::reweighted`]): same topology, same edge order.
    /// Then every path costs at least this factor times its cost in `base`,
    /// so `d(u, v) ≥ ratio × d_base(u, v)` holds in exact arithmetic.
    /// Returns `0.0` (a trivially sound factor) when no edge has positive
    /// base weight.
    pub fn min_weight_ratio(&self, base: &RoadNetwork) -> f64 {
        debug_assert_eq!(self.fwd_targets, base.fwd_targets, "same topology");
        let best = self
            .fwd_weights
            .iter()
            .zip(&base.fwd_weights)
            .filter(|&(_, &b)| b > 0.0)
            .fold(f64::INFINITY, |best, (&w, &b)| best.min(w / b));
        if best.is_finite() {
            best
        } else {
            0.0
        }
    }

    /// Returns a copy of the network with every edge weight multiplied by
    /// `multiplier(from_coord, to_coord)` — the substrate of per-epoch
    /// zone reweighting ([`crate::traffic::TrafficEpoch::zone_multiplier`]).
    ///
    /// Topology, coordinates, and edge order are untouched; only the weight
    /// arrays change.  The forward and reverse copy of each edge are scaled
    /// by the *same* `w * multiplier(from, to)` product (identical operands,
    /// identical rounding), so the two CSR views stay bit-consistent and a
    /// backward search sees exactly the weights a forward search does.
    /// Non-finite or negative products are clamped to `0.0` so a reweighted
    /// network always satisfies the builder's weight invariants.
    pub fn reweighted(&self, multiplier: impl Fn(Point, Point) -> f64) -> RoadNetwork {
        let scale = |from: Point, to: Point, w: f64| {
            let scaled = w * multiplier(from, to);
            if scaled.is_finite() && scaled >= 0.0 {
                scaled
            } else {
                0.0
            }
        };
        let mut out = self.clone();
        for node in self.nodes() {
            let from = self.coord(node);
            let lo = self.fwd_offsets[node as usize] as usize;
            let hi = self.fwd_offsets[node as usize + 1] as usize;
            for i in lo..hi {
                let to = self.coord(self.fwd_targets[i]);
                out.fwd_weights[i] = scale(from, to, self.fwd_weights[i]);
            }
        }
        for node in self.nodes() {
            let to = self.coord(node);
            let lo = self.rev_offsets[node as usize] as usize;
            let hi = self.rev_offsets[node as usize + 1] as usize;
            for i in lo..hi {
                let from = self.coord(self.rev_targets[i]);
                out.rev_weights[i] = scale(from, to, self.rev_weights[i]);
            }
        }
        out
    }

    /// Approximate heap footprint of the graph in bytes (used by the memory
    /// accounting of Fig. 14).
    pub fn approx_bytes(&self) -> usize {
        self.coords.len() * std::mem::size_of::<Point>()
            + (self.fwd_offsets.len() + self.rev_offsets.len()) * 4
            + (self.fwd_targets.len() + self.rev_targets.len()) * 4
            + (self.fwd_weights.len() + self.rev_weights.len()) * 8
    }
}

/// Incremental builder for [`RoadNetwork`].
///
/// ```
/// use structride_roadnet::{RoadNetworkBuilder, Point};
/// let mut b = RoadNetworkBuilder::new();
/// let a = b.add_node(Point::new(0.0, 0.0));
/// let c = b.add_node(Point::new(100.0, 0.0));
/// b.add_edge(a, c, 12.0).unwrap();
/// b.add_edge(c, a, 12.0).unwrap();
/// let net = b.build().unwrap();
/// assert_eq!(net.node_count(), 2);
/// assert_eq!(net.edge_count(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct RoadNetworkBuilder {
    coords: Vec<Point>,
    edges: Vec<(NodeId, NodeId, f64)>,
}

impl RoadNetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-sized for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        RoadNetworkBuilder {
            coords: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Adds a node at the given coordinate and returns its id.
    pub fn add_node(&mut self, coord: Point) -> NodeId {
        let id = self.coords.len() as NodeId;
        self.coords.push(coord);
        id
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.coords.len()
    }

    /// Adds a directed edge with travel time `weight` (seconds).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, weight: f64) -> Result<()> {
        let n = self.coords.len();
        if from as usize >= n {
            return Err(RoadNetError::InvalidNode {
                node: from,
                node_count: n,
            });
        }
        if to as usize >= n {
            return Err(RoadNetError::InvalidNode {
                node: to,
                node_count: n,
            });
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(RoadNetError::InvalidWeight { from, to, weight });
        }
        self.edges.push((from, to, weight));
        Ok(())
    }

    /// Adds a pair of directed edges `from <-> to`, both with the same weight.
    pub fn add_bidirectional(&mut self, a: NodeId, b: NodeId, weight: f64) -> Result<()> {
        self.add_edge(a, b, weight)?;
        self.add_edge(b, a, weight)
    }

    /// Finalises the CSR representation.
    pub fn build(self) -> Result<RoadNetwork> {
        if self.coords.is_empty() {
            return Err(RoadNetError::EmptyGraph);
        }
        let n = self.coords.len();
        let m = self.edges.len();

        let mut fwd_offsets = vec![0u32; n + 1];
        let mut rev_offsets = vec![0u32; n + 1];
        for &(from, to, _) in &self.edges {
            fwd_offsets[from as usize + 1] += 1;
            rev_offsets[to as usize + 1] += 1;
        }
        for i in 0..n {
            fwd_offsets[i + 1] += fwd_offsets[i];
            rev_offsets[i + 1] += rev_offsets[i];
        }

        let mut fwd_targets = vec![0u32; m];
        let mut fwd_weights = vec![0f64; m];
        let mut rev_targets = vec![0u32; m];
        let mut rev_weights = vec![0f64; m];
        let mut fwd_cursor = fwd_offsets.clone();
        let mut rev_cursor = rev_offsets.clone();
        for &(from, to, w) in &self.edges {
            let fi = fwd_cursor[from as usize] as usize;
            fwd_targets[fi] = to;
            fwd_weights[fi] = w;
            fwd_cursor[from as usize] += 1;

            let ri = rev_cursor[to as usize] as usize;
            rev_targets[ri] = from;
            rev_weights[ri] = w;
            rev_cursor[to as usize] += 1;
        }

        Ok(RoadNetwork {
            coords: self.coords,
            fwd_offsets,
            fwd_targets,
            fwd_weights,
            rev_offsets,
            rev_targets,
            rev_weights,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(1.0, 0.0));
        let n2 = b.add_node(Point::new(0.0, 1.0));
        b.add_edge(n0, n1, 1.0).unwrap();
        b.add_edge(n1, n2, 2.0).unwrap();
        b.add_edge(n2, n0, 3.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_csr_adjacency() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        let out0: Vec<_> = g.out_edges(0).collect();
        assert_eq!(out0, vec![(1, 1.0)]);
        let in0: Vec<_> = g.in_edges(0).collect();
        assert_eq!(in0, vec![(2, 3.0)]);
        assert_eq!(g.out_edges(1).count(), 1);
        assert_eq!(g.in_edges(1).count(), 1);
    }

    #[test]
    fn rejects_invalid_edges() {
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        assert!(matches!(
            b.add_edge(n0, 5, 1.0),
            Err(RoadNetError::InvalidNode { .. })
        ));
        assert!(matches!(
            b.add_edge(5, n0, 1.0),
            Err(RoadNetError::InvalidNode { .. })
        ));
        assert!(matches!(
            b.add_edge(n0, n0, f64::NAN),
            Err(RoadNetError::InvalidWeight { .. })
        ));
        assert!(matches!(
            b.add_edge(n0, n0, -1.0),
            Err(RoadNetError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn rejects_empty_graph() {
        assert!(matches!(
            RoadNetworkBuilder::new().build(),
            Err(RoadNetError::EmptyGraph)
        ));
    }

    #[test]
    fn bidirectional_adds_two_edges() {
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 1.0));
        b.add_bidirectional(a, c, 5.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_edges(a).next(), Some((c, 5.0)));
        assert_eq!(g.out_edges(c).next(), Some((a, 5.0)));
    }

    #[test]
    fn point_distance() {
        let p = Point::new(0.0, 0.0);
        let q = Point::new(3.0, 4.0);
        assert!((p.distance(&q) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn contains_is_range_checked() {
        let g = triangle();
        assert!(g.contains(0));
        assert!(!g.contains(3));
    }

    #[test]
    fn approx_bytes_is_positive_and_scales() {
        let g = triangle();
        assert!(g.approx_bytes() > 0);
    }

    #[test]
    fn min_time_per_meter_lower_bounds_every_shortest_path() {
        let g = triangle();
        // Edges: 0->1 len 1 w 1, 1->2 len sqrt(2) w 2, 2->0 len 1 w 3.
        let rate = g.min_time_per_meter();
        assert!((rate - 1.0).abs() < 1e-12);
        let d = crate::dijkstra::sssp(&g, 0);
        for t in g.nodes() {
            let lb = rate * g.coord(0).distance(&g.coord(t));
            assert!(
                d[t as usize] + 1e-9 >= lb,
                "lb {lb} exceeds true distance {}",
                d[t as usize]
            );
        }
    }

    #[test]
    fn reweighted_scales_forward_and_reverse_views_identically() {
        let g = triangle();
        let doubled = g.reweighted(|_, _| 2.0);
        assert_eq!(doubled.node_count(), g.node_count());
        assert_eq!(doubled.edge_count(), g.edge_count());
        for node in g.nodes() {
            assert_eq!(doubled.coord(node), g.coord(node));
            let base: Vec<_> = g.out_edges(node).collect();
            let scaled: Vec<_> = doubled.out_edges(node).collect();
            for ((bt, bw), (st, sw)) in base.iter().zip(scaled.iter()) {
                assert_eq!(bt, st);
                assert_eq!(sw.to_bits(), (bw * 2.0).to_bits());
            }
            // Reverse view carries the same scaled weight bits.
            for (source, w) in doubled.in_edges(node) {
                let fwd = doubled
                    .out_edges(source)
                    .find(|&(t, _)| t == node)
                    .map(|(_, w)| w)
                    .expect("reverse edge must exist forward");
                assert_eq!(w.to_bits(), fwd.to_bits());
            }
        }
        // A positional multiplier scales the per-meter floor coherently.
        let positional = g.reweighted(|from, _| if from.x < 0.5 { 3.0 } else { 1.0 });
        assert!(positional.min_time_per_meter() >= g.min_time_per_meter());
        // Pathological multipliers clamp to zero instead of poisoning CSR.
        let clamped = g.reweighted(|_, _| f64::NAN);
        assert!(clamped.out_edges(0).all(|(_, w)| w == 0.0));
    }

    #[test]
    fn min_time_per_meter_ignores_zero_length_edges() {
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(0.0, 0.0)); // coincident
        let d = b.add_node(Point::new(10.0, 0.0));
        b.add_edge(a, c, 5.0).unwrap(); // zero length: no per-meter rate
        b.add_edge(c, d, 20.0).unwrap();
        let g = b.build().unwrap();
        assert!((g.min_time_per_meter() - 2.0).abs() < 1e-12);
        // A graph with only zero-length edges degrades to the trivial bound.
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(Point::new(1.0, 1.0));
        let c = b.add_node(Point::new(1.0, 1.0));
        b.add_edge(a, c, 7.0).unwrap();
        assert_eq!(b.build().unwrap().min_time_per_meter(), 0.0);
    }
}
