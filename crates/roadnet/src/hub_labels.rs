//! Pruned-landmark hub labeling for exact point-to-point travel-time queries.
//!
//! The paper (§V-A) answers all shortest-path queries through the hub-labeling
//! index of Li et al. \[50\].  We implement the classic pruned landmark labeling
//! (Akiba et al.) generalised to directed weighted graphs: vertices are
//! processed in a nested-dissection order; for each landmark `v` a *pruned*
//! forward Dijkstra adds `(v, d)` to the **in-labels** of every vertex it
//! settles, and a pruned backward Dijkstra adds `(v, d)` to the **out-labels**.
//! A query `dist(s, t)` is then the minimum of `out(s)[h] + in(t)[h]` over the
//! hubs `h` common to both label sets.  The labeling is exact.
//!
//! # Hub order
//!
//! Label size is set by the order: a vertex ranked early covers every
//! shortest path through it, so the best early hubs are the ones that many
//! paths must cross.  Recursive coordinate bisection finds them on the
//! near-planar road networks: the separator between the two halves of the
//! network comes first, then the separators of each half, and so on down
//! (nested dissection, the order behind customizable contraction
//! hierarchies and hierarchical hub labelings).  On the benchmark's
//! 1 764-node grid city that is 4.2 MB of labels, against 33.4 MB for the
//! degree-descending order it replaced, whose ties made it close to row-major
//! node order.  The order reads coordinates and adjacency only, never
//! weights, so every zone reweighting of a network builds its labels in
//! the same order.
//!
//! # Parallel construction
//!
//! [`HubLabels::build`] runs the forward and backward searches of each root
//! in parallel ([`rayon::join`]) and merges their results in a fixed order
//! (forward entries, then backward entries).  This is **bit-identical** to
//! the sequential reference (a test-only build that runs each root's two
//! searches one after the other) for every worker count, because the two
//! searches of one root are independent:
//!
//! * the forward search reads `out(root)` and the `in` labels of the nodes it
//!   settles, and writes only `in` labels;
//! * the backward search reads `in(root)` and the `out` labels of the nodes
//!   it settles, and writes only `out` labels;
//! * the only overlap — the root's own `(root, 0)` self-entries — cannot
//!   influence either search's pruning, since a self-entry only certifies a
//!   distance once the *matching* side carries the same hub, which each
//!   search writes strictly after its own prune check.
//!
//! Neither search ever re-reads a label vector it has already extended (each
//! node is settled at most once, and the prune check precedes the label
//! push), so running both against the immutable snapshot of the labels from
//! all previous roots produces exactly the sequential result.  The
//! equivalence is pinned by the `parallel_build_matches_sequential` test.

use crate::dijkstra::HeapEntry;
use crate::graph::{NodeId, RoadNetwork};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One label entry: a hub and the distance to/from it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LabelEntry {
    hub: u32,
    dist: f64,
}

/// A 2-hop hub labeling of a directed weighted graph.
#[derive(Debug, Clone, PartialEq)]
pub struct HubLabels {
    /// `out_labels[v]` — hubs reachable *from* v, sorted by hub rank.
    out_labels: Vec<Vec<LabelEntry>>,
    /// `in_labels[v]` — hubs that can reach v, sorted by hub rank.
    in_labels: Vec<Vec<LabelEntry>>,
}

thread_local! {
    /// The dense per-hub bucket of [`HubLabels::many_to_many`], indexed by
    /// hub rank and kept per thread so a call neither allocates nor looks
    /// for the largest rank.  Every slot reads `INFINITY` between calls:
    /// a call overwrites exactly the hubs of the label it scatters and
    /// restores them before it returns, and growth fills with `INFINITY`.
    static M2M_BUCKET: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// `min(e.dist + bucket[e.hub])` over `label` (∞ when empty), through four
/// independent running minima so consecutive entries do not wait on one
/// loop-carried compare.
#[inline]
fn min_plus(label: &[LabelEntry], bucket: &[f64]) -> f64 {
    let mut best = [f64::INFINITY; 4];
    let mut quads = label.chunks_exact(4);
    for quad in &mut quads {
        for (b, e) in best.iter_mut().zip(quad) {
            let d = e.dist + bucket[e.hub as usize];
            if d < *b {
                *b = d;
            }
        }
    }
    for e in quads.remainder() {
        let d = e.dist + bucket[e.hub as usize];
        if d < best[0] {
            best[0] = d;
        }
    }
    best[0].min(best[1]).min(best[2].min(best[3]))
}

/// Reusable per-search scratch: a distance array reset via the touched list.
struct SearchScratch {
    dist: Vec<f64>,
    touched: Vec<NodeId>,
    /// `(node, settled distance)` pairs in settle order — the label entries
    /// the search produced, merged into the labeling after the join.
    settled: Vec<(NodeId, f64)>,
    /// Root-label scatter, indexed by hub rank: before each search the
    /// root's own label vector is scattered here so the per-pop prune check
    /// scans only the settled node's labels with O(1) root lookups instead
    /// of merging two sorted vectors.  The candidate set and the addition
    /// per candidate are exactly those of [`HubLabels::query_with`], so the
    /// prune decisions — and hence the labeling — are bit-identical.
    dense: Vec<f64>,
    /// Priority queue reused across roots (capacity survives the drain).
    heap: BinaryHeap<HeapEntry>,
}

impl SearchScratch {
    fn new(n: usize) -> Self {
        SearchScratch {
            dist: vec![f64::INFINITY; n],
            touched: Vec::new(),
            settled: Vec::new(),
            dense: vec![f64::INFINITY; n],
            heap: BinaryHeap::new(),
        }
    }
}

impl HubLabels {
    /// The nested-dissection processing order and its inverse rank array.
    ///
    /// Recursive coordinate bisection: a part splits at the median of its
    /// longer coordinate extent (ties broken by node id), and the vertices
    /// of the lower half with an edge into the upper half are its
    /// separator.  Every separator of one level is ranked before the next
    /// level's; the two halves, less the separator, recurse.  The order
    /// reads coordinates and adjacency only, never weights, so every
    /// reweighting of a network gets the same order.
    fn ordering(net: &RoadNetwork) -> (Vec<NodeId>, Vec<u32>) {
        let n = net.node_count();
        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        // Marks the upper half of the part being split.
        let mut in_upper = vec![false; n];
        let mut level: Vec<Vec<NodeId>> = vec![(0..n as NodeId).collect()];
        while !level.is_empty() {
            let mut next = Vec::with_capacity(2 * level.len());
            for mut part in level {
                if part.len() <= 1 {
                    order.extend(part);
                    continue;
                }
                let (mut lo, mut hi) = ([f64::INFINITY; 2], [f64::NEG_INFINITY; 2]);
                for &v in &part {
                    let p = net.coord(v);
                    for (axis, c) in [p.x, p.y].into_iter().enumerate() {
                        lo[axis] = lo[axis].min(c);
                        hi[axis] = hi[axis].max(c);
                    }
                }
                let axis = usize::from(hi[1] - lo[1] > hi[0] - lo[0]);
                let key = |v: NodeId| {
                    let p = net.coord(v);
                    [p.x, p.y][axis]
                };
                part.sort_unstable_by(|&a, &b| key(a).total_cmp(&key(b)).then(a.cmp(&b)));
                let upper = part.split_off(part.len() / 2);
                for &v in &upper {
                    in_upper[v as usize] = true;
                }
                let (cut, lower): (Vec<NodeId>, Vec<NodeId>) = part.into_iter().partition(|&v| {
                    net.out_edges(v)
                        .chain(net.in_edges(v))
                        .any(|(u, _)| in_upper[u as usize])
                });
                for &v in &upper {
                    in_upper[v as usize] = false;
                }
                order.extend(cut);
                next.extend([lower, upper].into_iter().filter(|h| !h.is_empty()));
            }
            level = next;
        }
        // rank[v] = position of v in the processing order (smaller = earlier).
        let mut rank = vec![0u32; n];
        for (i, &v) in order.iter().enumerate() {
            rank[v as usize] = i as u32;
        }
        (order, rank)
    }

    /// Builds the labeling for `net`.
    ///
    /// Construction cost is roughly `O(n · (m + n log n))` in the worst case
    /// but heavily pruned in practice; for the road networks used in this
    /// repository (thousands of nodes) it takes well under a second.
    ///
    /// The forward and backward pruned searches of each root run in parallel
    /// (see the module docs for why that is exactly equivalent to the
    /// sequential reference); the result is bit-identical to the test-only
    /// sequential build under every rayon worker count.
    pub fn build(net: &RoadNetwork) -> HubLabels {
        let n = net.node_count();
        let (order, rank) = Self::ordering(net);

        let mut labels = HubLabels {
            out_labels: vec![Vec::new(); n],
            in_labels: vec![Vec::new(); n],
        };

        // One scratch per search direction, reused across roots.
        let mut fwd = SearchScratch::new(n);
        let mut bwd = SearchScratch::new(n);

        for &landmark in &order {
            let lrank = rank[landmark as usize];
            {
                // Both searches read the labels of all *previous* roots; the
                // snapshot borrow ends before the merge below mutates them.
                let snapshot = &labels;
                let (fwd, bwd) = (&mut fwd, &mut bwd);
                rayon::join(
                    || Self::collect_search(net, landmark, true, snapshot, fwd),
                    || Self::collect_search(net, landmark, false, snapshot, bwd),
                );
            }
            // Deterministic merge order: forward entries (in-labels) first,
            // then backward entries (out-labels) — the sequential order.
            for &(node, d) in &fwd.settled {
                labels.in_labels[node as usize].push(LabelEntry {
                    hub: lrank,
                    dist: d,
                });
            }
            for &(node, d) in &bwd.settled {
                labels.out_labels[node as usize].push(LabelEntry {
                    hub: lrank,
                    dist: d,
                });
            }
        }
        labels
    }

    /// The sequential reference construction: identical output to
    /// [`HubLabels::build`], kept (and tested) as the baseline the parallel
    /// build must reproduce bit for bit.
    #[cfg(test)]
    fn build_sequential(net: &RoadNetwork) -> HubLabels {
        let n = net.node_count();
        let (order, rank) = Self::ordering(net);

        let mut labels = HubLabels {
            out_labels: vec![Vec::new(); n],
            in_labels: vec![Vec::new(); n],
        };

        // Scratch buffers reused across landmarks.
        let mut dist = vec![f64::INFINITY; n];
        let mut touched: Vec<NodeId> = Vec::new();

        for &landmark in &order {
            // Forward pruned Dijkstra: adds landmark to in-labels of settled nodes.
            Self::pruned_search(
                net,
                landmark,
                &rank,
                true,
                &mut labels,
                &mut dist,
                &mut touched,
            );
            // Backward pruned Dijkstra: adds landmark to out-labels of settled nodes.
            Self::pruned_search(
                net,
                landmark,
                &rank,
                false,
                &mut labels,
                &mut dist,
                &mut touched,
            );
        }
        labels
    }

    /// The read-only form of the sequential reference's `pruned_search`:
    /// identical search, but the produced label entries are recorded into
    /// `scratch.settled` instead of being pushed into `labels` — the caller
    /// merges them after both directions of the root complete.  A pruned
    /// search never reads a label vector it extends (the prune check
    /// precedes the push and every node settles at most once), so recording
    /// instead of pushing cannot change the search.
    fn collect_search(
        net: &RoadNetwork,
        landmark: NodeId,
        forward: bool,
        labels: &HubLabels,
        scratch: &mut SearchScratch,
    ) {
        scratch.settled.clear();
        let SearchScratch {
            dist,
            touched,
            settled,
            dense,
            heap,
        } = scratch;
        // Scatter the root's own label vector into the rank-indexed dense
        // array.  Each prune check below then scans only the popped node's
        // labels: a hub the root lacks reads `INFINITY` and can never win,
        // so the candidate minimum is over exactly the common hubs — the
        // same pairs, added in the same operand order, as the sorted-merge
        // [`HubLabels::query_with`] computes.  Bit-identical, just O(|node|)
        // per pop instead of O(|root| + |node|).
        let root_labels = if forward {
            &labels.out_labels[landmark as usize]
        } else {
            &labels.in_labels[landmark as usize]
        };
        for e in root_labels {
            dense[e.hub as usize] = e.dist;
        }
        heap.clear();
        dist[landmark as usize] = 0.0;
        touched.push(landmark);
        heap.push(HeapEntry {
            dist: 0.0,
            node: landmark,
        });

        while let Some(HeapEntry { dist: d, node }) = heap.pop() {
            if d > dist[node as usize] {
                continue;
            }
            // The prune decision is `min(candidates) <= d`, which is true
            // iff *some* candidate is `<= d` — so stop at the first
            // certifying hub.  Decision-identical to comparing the full
            // minimum, hence the labeling stays bit-identical.
            let pruned = if forward {
                labels.in_labels[node as usize]
                    .iter()
                    .any(|e| dense[e.hub as usize] + e.dist <= d)
            } else {
                labels.out_labels[node as usize]
                    .iter()
                    .any(|e| e.dist + dense[e.hub as usize] <= d)
            };
            if pruned {
                continue;
            }
            settled.push((node, d));
            let mut relax = |to: NodeId, w: f64| {
                let nd = d + w;
                if nd < dist[to as usize] {
                    dist[to as usize] = nd;
                    touched.push(to);
                    heap.push(HeapEntry { dist: nd, node: to });
                }
            };
            if forward {
                for (to, w) in net.out_edges(node) {
                    relax(to, w);
                }
            } else {
                for (to, w) in net.in_edges(node) {
                    relax(to, w);
                }
            }
        }
        for e in root_labels {
            dense[e.hub as usize] = f64::INFINITY;
        }
        for &v in touched.iter() {
            dist[v as usize] = f64::INFINITY;
        }
        touched.clear();
    }

    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    fn pruned_search(
        net: &RoadNetwork,
        landmark: NodeId,
        rank: &[u32],
        forward: bool,
        labels: &mut HubLabels,
        dist: &mut [f64],
        touched: &mut Vec<NodeId>,
    ) {
        let lrank = rank[landmark as usize];
        let mut heap = BinaryHeap::new();
        dist[landmark as usize] = 0.0;
        touched.push(landmark);
        heap.push(HeapEntry {
            dist: 0.0,
            node: landmark,
        });

        while let Some(HeapEntry { dist: d, node }) = heap.pop() {
            if d > dist[node as usize] {
                continue;
            }
            // Prune: if the current labels already certify a distance <= d from
            // the landmark to this node (or node to landmark for backward),
            // nothing new is learned by continuing through `node`.
            let certified = if forward {
                labels.query_with(
                    &labels.out_labels[landmark as usize],
                    &labels.in_labels[node as usize],
                )
            } else {
                labels.query_with(
                    &labels.out_labels[node as usize],
                    &labels.in_labels[landmark as usize],
                )
            };
            if certified <= d {
                continue;
            }
            // Record the label on `node`.
            if forward {
                labels.in_labels[node as usize].push(LabelEntry {
                    hub: lrank,
                    dist: d,
                });
            } else {
                labels.out_labels[node as usize].push(LabelEntry {
                    hub: lrank,
                    dist: d,
                });
            }
            // Relax.
            let edges: Box<dyn Iterator<Item = (NodeId, f64)>> = if forward {
                Box::new(net.out_edges(node))
            } else {
                Box::new(net.in_edges(node))
            };
            for (to, w) in edges {
                let nd = d + w;
                if nd < dist[to as usize] {
                    dist[to as usize] = nd;
                    touched.push(to);
                    heap.push(HeapEntry { dist: nd, node: to });
                }
            }
        }
        // Reset scratch distances.
        for &v in touched.iter() {
            dist[v as usize] = f64::INFINITY;
        }
        touched.clear();
    }

    fn query_with(&self, out: &[LabelEntry], inn: &[LabelEntry]) -> f64 {
        // Labels are pushed in increasing hub-rank order, so a merge works.
        let mut best = f64::INFINITY;
        let (mut i, mut j) = (0, 0);
        while i < out.len() && j < inn.len() {
            match out[i].hub.cmp(&inn[j].hub) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    let d = out[i].dist + inn[j].dist;
                    if d < best {
                        best = d;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        best
    }

    /// Exact shortest travel time from `source` to `target`.
    pub fn query(&self, source: NodeId, target: NodeId) -> f64 {
        if source == target {
            return 0.0;
        }
        self.query_with(
            &self.out_labels[source as usize],
            &self.in_labels[target as usize],
        )
    }

    /// Batched exact |S|×|T| travel-time matrix (row-major: entry
    /// `i * targets.len() + j` is `query(sources[i], targets[j])`).
    ///
    /// A min-plus join over a dense per-hub bucket.  **Orientation rule:**
    /// the *smaller* side is scattered — each of its labels once — and every
    /// label of the larger side is scanned against it, so the matrix costs
    /// `2·min(|S|,|T|) + |S|·|T|` label passes.  Dispatch sends ≈ 30 vehicle
    /// nodes against one pickup: the pickup's in-label is scattered once and
    /// each vehicle's out-label is read once.  A scan stops at the scattered
    /// label's last (largest) hub rank — labels are sorted by rank, and a
    /// hub beyond it cannot be common — which is also all the bucket has to
    /// cover, so the bucket grows to that rank and never needs resetting.
    ///
    /// Every entry is **bit-identical** to [`HubLabels::query`] (including
    /// its `source == target → 0.0` case).  Each common hub contributes the
    /// same `out.dist + in.dist` sum the merge in `HubLabels::query_with`
    /// forms (IEEE addition is commutative, so which operand came out of the
    /// bucket does not matter); a hub the scattered side lacks reads `∞`,
    /// and `d + ∞ = ∞` never wins.  The scan keeps four independent running
    /// minima instead of one, so the candidates are compared in a different
    /// order than the merge — but distances are non-negative, NaN-free and
    /// never `-0.0`, and the minimum of such a multiset is one bit pattern
    /// whatever the order.
    ///
    /// # Panics
    /// Panics if any id is out of range.
    pub fn many_to_many(&self, sources: &[NodeId], targets: &[NodeId]) -> Vec<f64> {
        // Checked before anything is scattered: a panic must not leave the
        // thread's bucket dirty.
        let n = self.out_labels.len();
        assert!(
            sources.iter().chain(targets).all(|&v| (v as usize) < n),
            "many_to_many: node id out of range"
        );
        let mut out = vec![0.0; sources.len() * targets.len()];
        let by_target = targets.len() <= sources.len();
        let ((scatter_ids, scatter_labels), (scan_ids, scan_labels)) = if by_target {
            ((targets, &self.in_labels), (sources, &self.out_labels))
        } else {
            ((sources, &self.out_labels), (targets, &self.in_labels))
        };
        M2M_BUCKET.with_borrow_mut(|bucket| {
            for (a, &u) in scatter_ids.iter().enumerate() {
                let label = &scatter_labels[u as usize];
                let limit = label.last().map_or(0, |e| e.hub as usize + 1);
                if bucket.len() < limit {
                    bucket.resize(limit, f64::INFINITY);
                }
                for e in label {
                    bucket[e.hub as usize] = e.dist;
                }
                for (b, &v) in scan_ids.iter().enumerate() {
                    // `u == v` keeps the pre-filled 0.0, as `query` answers.
                    if u != v {
                        let other = &scan_labels[v as usize];
                        let end = other.partition_point(|e| (e.hub as usize) < limit);
                        let (i, j) = if by_target { (b, a) } else { (a, b) };
                        out[i * targets.len() + j] = min_plus(&other[..end], &bucket[..limit]);
                    }
                }
                for e in label {
                    bucket[e.hub as usize] = f64::INFINITY;
                }
            }
        });
        out
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        let entries: usize = self
            .out_labels
            .iter()
            .map(Vec::len)
            .chain(self.in_labels.iter().map(Vec::len))
            .sum();
        entries * std::mem::size_of::<LabelEntry>()
            + (self.out_labels.len() + self.in_labels.len())
                * std::mem::size_of::<Vec<LabelEntry>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra;
    use crate::graph::{Point, RoadNetworkBuilder};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_graph(n: usize, extra_edges: usize, seed: u64) -> RoadNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = RoadNetworkBuilder::new();
        for i in 0..n {
            b.add_node(Point::new(i as f64, 0.0));
        }
        // A random spanning path keeps most of the graph connected.
        for i in 1..n {
            let w = rng.gen_range(1.0..10.0);
            b.add_bidirectional(i as u32 - 1, i as u32, w).unwrap();
        }
        for _ in 0..extra_edges {
            let u = rng.gen_range(0..n) as u32;
            let v = rng.gen_range(0..n) as u32;
            if u != v {
                b.add_edge(u, v, rng.gen_range(1.0..10.0)).unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn matches_dijkstra_on_random_graphs() {
        for seed in 0..4u64 {
            let g = random_graph(60, 120, seed);
            let labels = HubLabels::build(&g);
            for s in (0..60u32).step_by(7) {
                let d = dijkstra::sssp(&g, s);
                for t in 0..60u32 {
                    let hl = labels.query(s, t);
                    let dj = d[t as usize];
                    if dj.is_infinite() {
                        assert!(hl.is_infinite(), "s={s} t={t}");
                    } else {
                        assert!((hl - dj).abs() < 1e-9, "s={s} t={t} hl={hl} dj={dj}");
                    }
                }
            }
        }
    }

    /// Two random islands (`0..split` and `split..n`) with no edge between
    /// them, so cross-island pairs are unreachable.
    fn random_islands(n: usize, split: usize, extra_edges: usize, seed: u64) -> RoadNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = RoadNetworkBuilder::new();
        for i in 0..n {
            b.add_node(Point::new(i as f64, 0.0));
        }
        for i in (1..n).filter(|&i| i != split) {
            let w = rng.gen_range(1.0..10.0);
            b.add_bidirectional(i as u32 - 1, i as u32, w).unwrap();
        }
        for _ in 0..extra_edges {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v && (u < split) == (v < split) {
                b.add_edge(u as u32, v as u32, rng.gen_range(1.0..10.0))
                    .unwrap();
            }
        }
        b.build().unwrap()
    }

    /// Every entry of `index.many_to_many(sources, targets)` must carry the
    /// bits of `index.query`.
    fn assert_matrix_matches_queries(index: &HubLabels, sources: &[NodeId], targets: &[NodeId]) {
        let matrix = index.many_to_many(sources, targets);
        assert_eq!(matrix.len(), sources.len() * targets.len());
        for (i, &s) in sources.iter().enumerate() {
            for (j, &t) in targets.iter().enumerate() {
                let batched = matrix[i * targets.len() + j];
                let single = index.query(s, t);
                assert_eq!(
                    batched.to_bits(),
                    single.to_bits(),
                    "{}x{} ({s},{t}): batched={batched} single={single}",
                    sources.len(),
                    targets.len()
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The min-plus kernel must reproduce the two-pointer merge bit for
        /// bit in both orientations and at every shape: |S|×1 (what dispatch
        /// sends), 1×|T|, |S|<|T|, |S|=|T| with `s == t` on the diagonal,
        /// empty sides, duplicate ids (drawn with replacement) and
        /// unreachable pairs (∞ across the islands).
        #[test]
        fn many_to_many_is_bit_identical_to_pairwise_queries(
            seed in 0u64..1_000,
            sources in proptest::collection::vec(0u32..60, 0..40),
            targets in proptest::collection::vec(0u32..60, 0..40),
        ) {
            let labels = HubLabels::build(&random_islands(60, 41, 120, seed));
            let check = |s: &[NodeId], t: &[NodeId]| {
                assert_matrix_matches_queries(&labels, s, t)
            };
            check(&sources, &targets);
            check(&targets, &sources);
            check(&sources, &targets[..targets.len().min(1)]);
            check(&sources[..sources.len().min(1)], &targets);
            check(&sources, &sources);
            check(&sources, &[]);
            check(&[], &targets);
        }

        /// The per-thread bucket can be neither stale nor undersized: on one
        /// thread, back to back, the labels of a small network and of a
        /// larger one answer correctly in either order — including the
        /// small index going first on a fresh thread, whose bucket is still
        /// empty, and again after the large one grew it.
        #[test]
        fn many_to_many_scratch_survives_alternating_indexes_on_one_thread(
            seed in 0u64..1_000,
            picks in proptest::collection::vec(0u32..6, 1..7),
        ) {
            let small = HubLabels::build(&random_graph(6, 8, seed));
            let large = HubLabels::build(&random_islands(60, 41, 120, seed));
            let all: Vec<NodeId> = (0..60).collect();
            let few: Vec<NodeId> = (0..6).collect();
            let small_then_large = || {
                assert_matrix_matches_queries(&small, &few, &picks);
                assert_matrix_matches_queries(&large, &all, &picks);
                assert_matrix_matches_queries(&small, &picks, &few[..1]);
                assert_matrix_matches_queries(&large, &picks, &all);
                assert_matrix_matches_queries(&small, &few, &few);
            };
            small_then_large();
            std::thread::scope(|scope| {
                scope.spawn(small_then_large);
            });
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn many_to_many_rejects_out_of_range_ids() {
        let g = random_graph(10, 10, 3);
        HubLabels::build(&g).many_to_many(&[0, 1], &[99]);
    }

    #[test]
    fn identical_source_target_is_zero() {
        let g = random_graph(10, 10, 1);
        let labels = HubLabels::build(&g);
        for v in 0..10u32 {
            assert_eq!(labels.query(v, v), 0.0);
        }
    }

    #[test]
    fn label_bytes_reported() {
        let g = random_graph(30, 60, 2);
        let labels = HubLabels::build(&g);
        assert!(labels.approx_bytes() > 0);
    }

    /// The parallel fwd/bwd-joined build must reproduce the sequential
    /// reference bit for bit, whatever the worker count — the property the
    /// replay invariant (and every committed trace) rests on.
    #[test]
    fn parallel_build_matches_sequential_across_worker_counts() {
        for seed in 0..6u64 {
            let g = random_graph(70, 150, seed);
            let reference = HubLabels::build_sequential(&g);
            for threads in [1usize, 4, 8] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool");
                let parallel = pool.install(|| HubLabels::build(&g));
                assert_eq!(
                    parallel, reference,
                    "seed {seed}: parallel build ({threads} workers) drifted from sequential"
                );
            }
        }
    }

    /// A road-network-like random graph: a 2-D street grid with random edge
    /// weights.
    fn random_grid_graph(w: usize, h: usize, seed: u64) -> RoadNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = RoadNetworkBuilder::new();
        for y in 0..h {
            for x in 0..w {
                b.add_node(Point::new(x as f64, y as f64));
            }
        }
        let id = |x: usize, y: usize| (y * w + x) as u32;
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    b.add_bidirectional(id(x, y), id(x + 1, y), rng.gen_range(1.0..10.0))
                        .unwrap();
                }
                if y + 1 < h {
                    b.add_bidirectional(id(x, y), id(x, y + 1), rng.gen_range(1.0..10.0))
                        .unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    /// `ordering`'s output must be a permutation with `rank` its inverse.
    fn assert_permutation(net: &RoadNetwork) -> Vec<NodeId> {
        let (order, rank) = HubLabels::ordering(net);
        let n = net.node_count();
        assert_eq!(order.len(), n);
        assert_eq!(rank.len(), n);
        let mut seen = vec![false; n];
        for (i, &v) in order.iter().enumerate() {
            assert!(!seen[v as usize], "{v} ranked twice");
            seen[v as usize] = true;
            assert_eq!(rank[v as usize] as usize, i);
        }
        order
    }

    /// The order is a permutation, the same on every call, and the same for
    /// every reweighting of the network.
    #[test]
    fn ordering_is_a_weight_free_deterministic_permutation() {
        for seed in 0..4u64 {
            for g in [random_grid_graph(9, 6, seed), random_graph(50, 90, seed)] {
                let order = assert_permutation(&g);
                assert_eq!(HubLabels::ordering(&g).0, order, "seed {seed}");
                let mut rng = StdRng::seed_from_u64(seed);
                let factors: Vec<f64> = (0..64).map(|_| rng.gen_range(0.2..5.0)).collect();
                let reweighted = g.reweighted(|from, to| {
                    factors[(from.x + 7.0 * to.y).abs() as usize % factors.len()]
                });
                assert_ne!(reweighted, g);
                assert_eq!(HubLabels::ordering(&reweighted).0, order, "seed {seed}");
            }
        }
    }

    /// Degenerate inputs still give a permutation: no nodes, one and two
    /// nodes, every node on one point (each split falls back to node ids)
    /// and islands with no edge between them (empty separators).
    #[test]
    fn ordering_terminates_on_degenerate_networks() {
        assert_permutation(&RoadNetwork::empty());
        for n in 1..=2u32 {
            let mut b = RoadNetworkBuilder::new();
            for i in 0..n {
                b.add_node(Point::new(i as f64, 0.0));
            }
            if n == 2 {
                b.add_bidirectional(0, 1, 1.0).unwrap();
            }
            assert_permutation(&b.build().unwrap());
        }
        let mut b = RoadNetworkBuilder::new();
        for _ in 0..9 {
            b.add_node(Point::new(3.0, 3.0));
        }
        for i in 1..9 {
            b.add_bidirectional(i - 1, i, 1.0).unwrap();
        }
        let colocated = b.build().unwrap();
        assert_permutation(&colocated);
        let labels = HubLabels::build(&colocated);
        assert_eq!(labels.query(0, 8), 8.0);
        assert_permutation(&random_islands(40, 17, 60, 5));
        let mut b = RoadNetworkBuilder::new();
        for i in 0..12 {
            b.add_node(Point::new((i % 4) as f64, (i / 4) as f64));
        }
        assert_permutation(&b.build().unwrap());
    }

    #[test]
    fn handles_disconnected_components() {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..4 {
            b.add_node(Point::new(i as f64, 0.0));
        }
        b.add_bidirectional(0, 1, 1.0).unwrap();
        b.add_bidirectional(2, 3, 1.0).unwrap();
        let g = b.build().unwrap();
        let labels = HubLabels::build(&g);
        assert_eq!(labels.query(0, 1), 1.0);
        assert!(labels.query(0, 2).is_infinite());
        assert!(labels.query(3, 1).is_infinite());
    }
}
