//! Pruned-landmark hub labeling for exact point-to-point travel-time queries.
//!
//! The paper (§V-A) answers all shortest-path queries through the hub-labeling
//! index of Li et al. \[50\].  We implement the classic pruned landmark labeling
//! (Akiba et al.) generalised to directed weighted graphs: vertices are
//! processed in descending degree order; for each landmark `v` a *pruned*
//! forward Dijkstra adds `(v, d)` to the **in-labels** of every vertex it
//! settles, and a pruned backward Dijkstra adds `(v, d)` to the **out-labels**.
//! A query `dist(s, t)` is then the minimum of `out(s)[h] + in(t)[h]` over the
//! hubs `h` common to both label sets.  The labeling is exact.
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
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
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

/// Per-root record of a recorded build: the settled `(node, dist)` lists of
/// both directions (exactly the label entries the root produced) plus the
/// sorted union of every vertex either search assigned a tentative distance.
/// The touched set is what [`BuildPlan::repair`] intersects against the
/// flagged vertices to decide whether the root's searches can be skipped:
/// every edge the searches scanned has both endpoints in `touched`, and every
/// label vector a prune certificate consulted belongs to a touched vertex
/// (the root itself is touched too).
#[derive(Debug, Clone)]
struct RootPlan {
    fwd: Vec<(NodeId, f64)>,
    bwd: Vec<(NodeId, f64)>,
    touched: Vec<NodeId>,
}

/// Observer hook for the pruned search; the no-op impl compiles away in the
/// plain builds, the recording impl captures the per-root touched set.  The
/// hook is strictly passive — it never influences the search.
trait SettleRecorder {
    fn on_finish(&mut self, touched: &[NodeId]);
}

/// The passive recorder used by the plain builds.
struct NoRecord;
impl SettleRecorder for NoRecord {
    #[inline(always)]
    fn on_finish(&mut self, _: &[NodeId]) {}
}

/// Captures the touched set of one search before the scratch resets it.
#[derive(Default)]
struct TouchRecorder {
    touched: Vec<NodeId>,
}

impl SettleRecorder for TouchRecorder {
    fn on_finish(&mut self, touched: &[NodeId]) {
        self.touched.extend_from_slice(touched);
    }
}

impl HubLabels {
    /// The degree-descending processing order and its inverse rank array.
    fn ordering(net: &RoadNetwork) -> (Vec<NodeId>, Vec<u32>) {
        let n = net.node_count();
        // Order vertices by total degree descending — a standard, effective
        // ordering heuristic for road networks.
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(net.out_degree(v) + net.in_degree(v)));
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
                    || Self::collect_search(net, landmark, true, snapshot, fwd, &mut NoRecord),
                    || Self::collect_search(net, landmark, false, snapshot, bwd, &mut NoRecord),
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

    /// [`HubLabels::build`], additionally recording the [`BuildPlan`]: for
    /// every root and direction, the settled `(node, dist)` list (exactly the
    /// entries the root contributed) plus the per-root touched set.  The
    /// recorder hook is passive, so the returned labeling is bit-identical to
    /// [`HubLabels::build`] on the same network.
    pub fn build_with_plan(net: &RoadNetwork) -> (HubLabels, BuildPlan) {
        let n = net.node_count();
        let (order, rank) = Self::ordering(net);

        let mut labels = HubLabels {
            out_labels: vec![Vec::new(); n],
            in_labels: vec![Vec::new(); n],
        };

        let mut fwd = SearchScratch::new(n);
        let mut bwd = SearchScratch::new(n);
        let mut roots = Vec::with_capacity(n);

        for &landmark in &order {
            let lrank = rank[landmark as usize];
            let mut fwd_rec = TouchRecorder::default();
            let mut bwd_rec = TouchRecorder::default();
            {
                let snapshot = &labels;
                let (fwd, bwd) = (&mut fwd, &mut bwd);
                let (fwd_rec, bwd_rec) = (&mut fwd_rec, &mut bwd_rec);
                rayon::join(
                    || Self::collect_search(net, landmark, true, snapshot, fwd, fwd_rec),
                    || Self::collect_search(net, landmark, false, snapshot, bwd, bwd_rec),
                );
            }
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
            let mut touched = fwd_rec.touched;
            touched.extend(bwd_rec.touched);
            touched.sort_unstable();
            touched.dedup();
            roots.push(RootPlan {
                fwd: std::mem::take(&mut fwd.settled),
                bwd: std::mem::take(&mut bwd.settled),
                touched,
            });
        }
        (
            labels,
            BuildPlan {
                order,
                roots,
                node_count: n,
            },
        )
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
        rec: &mut impl SettleRecorder,
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
        rec.on_finish(touched);
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
    /// cover: hub ids are *global* ranks even in a [`HubLabels::restrict_to`]
    /// slice, so the bucket is sized by that rank, never by vertex count.
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

    /// Restricts the labeling to the vertex subset `nodes`, producing a
    /// compact index over local ids `0..nodes.len()` where local id `i`
    /// stands for global vertex `nodes[i]`.
    ///
    /// The per-vertex label vectors are copied **verbatim** (hub ids keep
    /// their global ranks), so a query through the restriction returns the
    /// *bit-identical* float the full index returns for the corresponding
    /// global pair — the property the halo-clipped per-shard engines rely on
    /// to keep sharded runs replay-exact.
    ///
    /// # Panics
    /// Panics if any id in `nodes` is out of range.
    pub fn restrict_to(&self, nodes: &[NodeId]) -> HubLabels {
        HubLabels {
            out_labels: nodes
                .iter()
                .map(|&g| self.out_labels[g as usize].clone())
                .collect(),
            in_labels: nodes
                .iter()
                .map(|&g| self.in_labels[g as usize].clone())
                .collect(),
        }
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

/// A recording of the pruned-landmark construction at one **reference**
/// epoch that re-derives the labeling of a *locally* perturbed copy of the
/// reference network — same weights everywhere except a flagged set of edges
/// (a congestion zone flipping on or off) — without re-running most searches.
///
/// [`BuildPlan::repair`] keeps every root whose recorded touched set avoids
/// all flagged vertices: such a root's searches scan only edges whose weights
/// are **bitwise identical** to the reference and consult only label vectors
/// that are bitwise identical to the reference's, so re-running them would
/// retrace the recorded execution step for step — the recorded entries are
/// copied verbatim instead.  Dirty roots re-run the real pruned searches
/// against the new weights, and every vertex whose resulting entries differ
/// from the recorded ones joins the flagged set before later roots decide.
/// A single rank-order pass is sound because prune certificates only consult
/// labels of earlier-rank roots.
///
/// Note there is deliberately **no** "rescale the recorded distances by a
/// factor" repair: the prune check compares two floating-point sums of the
/// same exact path length accumulated in different association orders, and
/// multiplying every weight by a factor re-rounds both sides independently —
/// the knife-edge settle/prune decisions flip, so a rescaled replay is *not*
/// bit-identical to a wholesale rebuild.  Uniform factors never reach the
/// labels at all: a traffic epoch's profile factor multiplies the answer
/// (see `roadnet::engine::EpochStore`), and plans repair zone reweightings
/// of the free-flow base only.
#[derive(Debug, Clone)]
pub struct BuildPlan {
    /// Degree-descending root order (root `i` has hub rank `i`);
    /// topology-only, hence identical for every reweighting of the network.
    order: Vec<NodeId>,
    roots: Vec<RootPlan>,
    node_count: usize,
}

/// The result of a scoped [`BuildPlan::repair`].
#[derive(Debug)]
pub struct LabelRepair {
    pub labels: HubLabels,
    /// `changed[v]` — `v`'s label vectors differ from the reference labeling,
    /// or `v` is an endpoint of an edge whose weight differs from the
    /// reference.  Everything outside this set kept its reference vectors
    /// verbatim *and* all its incident edges kept their reference weights.
    pub changed: Vec<bool>,
    /// Roots whose searches were skipped by copying the recorded entries.
    pub roots_kept: usize,
    /// Roots that re-ran the real pruned searches.
    pub roots_rebuilt: usize,
}

impl BuildPlan {
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Approximate heap footprint of the recording in bytes.
    pub fn approx_bytes(&self) -> usize {
        let entries: usize = self.roots.iter().map(|r| r.fwd.len() + r.bwd.len()).sum();
        let touched: usize = self.roots.iter().map(|r| r.touched.len()).sum();
        entries * std::mem::size_of::<(NodeId, f64)>()
            + touched * std::mem::size_of::<NodeId>()
            + self.order.len() * std::mem::size_of::<NodeId>()
    }

    /// Flags every vertex whose actual settled entries differ from the
    /// recorded ones (missing, extra, or different bits).
    fn diff_settled(
        recorded: &[(NodeId, f64)],
        actual: &[(NodeId, f64)],
        expected: &mut [f64],
        in_expected: &mut [bool],
        flagged: &mut [bool],
    ) {
        for &(node, d) in recorded {
            expected[node as usize] = d;
            in_expected[node as usize] = true;
        }
        for &(node, d) in actual {
            if !in_expected[node as usize] || expected[node as usize].to_bits() != d.to_bits() {
                flagged[node as usize] = true;
            }
            in_expected[node as usize] = false;
        }
        for &(node, _) in recorded {
            if in_expected[node as usize] {
                flagged[node as usize] = true;
                in_expected[node as usize] = false;
            }
        }
    }

    /// Scoped rebuild: the labeling of `net` — the reference network with a
    /// flagged set of edges reweighted — bit-identical to
    /// `HubLabels::build(net)`.
    ///
    /// `seeds[v]` must be set for both endpoints of every edge whose weight
    /// differs bitwise from the reference network's
    /// ([`RoadNetwork::reweighted_with_flags`] of the reference produces
    /// exactly this).
    pub fn repair(&self, net: &RoadNetwork, seeds: &[bool]) -> LabelRepair {
        assert_eq!(net.node_count(), self.node_count, "plan/network mismatch");
        assert_eq!(seeds.len(), self.node_count, "seed flags sized by nodes");
        let n = self.node_count;
        let mut flagged = seeds.to_vec();
        let mut labels = HubLabels {
            out_labels: vec![Vec::new(); n],
            in_labels: vec![Vec::new(); n],
        };
        let mut fwd = SearchScratch::new(n);
        let mut bwd = SearchScratch::new(n);
        let mut expected = vec![f64::INFINITY; n];
        let mut in_expected = vec![false; n];
        let mut roots_kept = 0usize;
        let mut roots_rebuilt = 0usize;

        for (ridx, root) in self.roots.iter().enumerate() {
            let hub = ridx as u32;
            if root.touched.iter().all(|&v| !flagged[v as usize]) {
                roots_kept += 1;
                for &(node, d) in &root.fwd {
                    labels.in_labels[node as usize].push(LabelEntry { hub, dist: d });
                }
                for &(node, d) in &root.bwd {
                    labels.out_labels[node as usize].push(LabelEntry { hub, dist: d });
                }
                continue;
            }
            roots_rebuilt += 1;
            let landmark = self.order[ridx];
            {
                let snapshot = &labels;
                let (fwd, bwd) = (&mut fwd, &mut bwd);
                rayon::join(
                    || HubLabels::collect_search(net, landmark, true, snapshot, fwd, &mut NoRecord),
                    || {
                        HubLabels::collect_search(
                            net,
                            landmark,
                            false,
                            snapshot,
                            bwd,
                            &mut NoRecord,
                        )
                    },
                );
            }
            Self::diff_settled(
                &root.fwd,
                &fwd.settled,
                &mut expected,
                &mut in_expected,
                &mut flagged,
            );
            Self::diff_settled(
                &root.bwd,
                &bwd.settled,
                &mut expected,
                &mut in_expected,
                &mut flagged,
            );
            for &(node, d) in &fwd.settled {
                labels.in_labels[node as usize].push(LabelEntry { hub, dist: d });
            }
            for &(node, d) in &bwd.settled {
                labels.out_labels[node as usize].push(LabelEntry { hub, dist: d });
            }
        }
        LabelRepair {
            labels,
            changed: flagged,
            roots_kept,
            roots_rebuilt,
        }
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
    /// bits of `reference.query` on the ids `global` maps the local ones to.
    fn assert_matrix_matches_queries(
        index: &HubLabels,
        sources: &[NodeId],
        targets: &[NodeId],
        reference: &HubLabels,
        global: impl Fn(NodeId) -> NodeId,
    ) {
        let matrix = index.many_to_many(sources, targets);
        assert_eq!(matrix.len(), sources.len() * targets.len());
        for (i, &s) in sources.iter().enumerate() {
            for (j, &t) in targets.iter().enumerate() {
                let batched = matrix[i * targets.len() + j];
                let single = reference.query(global(s), global(t));
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
                assert_matrix_matches_queries(&labels, s, t, &labels, |v| v)
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
        /// thread, back to back, a full index and a `restrict_to` slice whose
        /// hub ranks exceed its local vertex count answer correctly in either
        /// order — including the slice going first on a fresh thread, whose
        /// bucket is still empty.
        #[test]
        fn many_to_many_scratch_survives_full_then_slice_on_one_thread(
            seed in 0u64..1_000,
            picks in proptest::collection::vec(0u32..60, 1..7),
        ) {
            let labels = HubLabels::build(&random_islands(60, 41, 120, seed));
            let mut subset = picks.clone();
            subset.sort_unstable();
            subset.dedup();
            let slice = labels.restrict_to(&subset);
            let max_hub = slice
                .out_labels
                .iter()
                .chain(&slice.in_labels)
                .flatten()
                .map(|e| e.hub as usize)
                .max()
                .unwrap_or(0);
            prop_assume!(max_hub >= subset.len());
            let all: Vec<NodeId> = (0..60).collect();
            let local: Vec<NodeId> = (0..subset.len() as NodeId).collect();
            let full_then_slice = || {
                assert_matrix_matches_queries(&labels, &all, &picks, &labels, |v| v);
                assert_matrix_matches_queries(&slice, &local, &local, &labels, |v| {
                    subset[v as usize]
                });
                assert_matrix_matches_queries(&slice, &local, &local[..1], &labels, |v| {
                    subset[v as usize]
                });
                assert_matrix_matches_queries(&labels, &picks, &all, &labels, |v| v);
            };
            full_then_slice();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    assert_matrix_matches_queries(&slice, &local, &local[..1], &labels, |v| {
                        subset[v as usize]
                    });
                    full_then_slice();
                });
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

    #[test]
    fn restriction_answers_bit_identically_to_the_full_index() {
        let g = random_graph(50, 100, 7);
        let labels = HubLabels::build(&g);
        // An arbitrary, non-contiguous vertex subset.
        let subset: Vec<NodeId> = (0..50u32).filter(|v| v % 3 != 1).collect();
        let slice = labels.restrict_to(&subset);
        for (ls, &gs) in subset.iter().enumerate().map(|(i, g)| (i as NodeId, g)) {
            for (lt, &gt) in subset.iter().enumerate().map(|(i, g)| (i as NodeId, g)) {
                let full = labels.query(gs, gt);
                let restricted = slice.query(ls, lt);
                if full.is_infinite() {
                    assert!(restricted.is_infinite(), "{gs}->{gt}");
                } else {
                    assert_eq!(
                        restricted.to_bits(),
                        full.to_bits(),
                        "{gs}->{gt}: restriction must be bit-identical"
                    );
                }
            }
        }
        assert!(slice.approx_bytes() < labels.approx_bytes());
    }

    #[test]
    #[should_panic]
    fn restriction_rejects_out_of_range_ids() {
        let g = random_graph(10, 10, 3);
        HubLabels::build(&g).restrict_to(&[0, 99]);
    }

    /// The recorder hook is passive: the recorded build returns the same
    /// labeling as the plain build, and a repair with no flagged edges keeps
    /// every root and reproduces it bit for bit.
    #[test]
    fn recorded_build_is_passive_and_repairs_to_itself() {
        for seed in 0..4u64 {
            let g = random_graph(60, 120, seed);
            let plain = HubLabels::build(&g);
            let (labels, plan) = HubLabels::build_with_plan(&g);
            assert_eq!(labels, plain, "seed {seed}: recording changed the build");
            let repair = plan.repair(&g, &[false; 60]);
            assert_eq!(repair.labels, plain, "seed {seed}: identity repair drifted");
            assert_eq!(repair.roots_kept, 60);
            assert_eq!(repair.roots_rebuilt, 0);
            assert!(repair.changed.iter().all(|&c| !c));
            assert!(plan.approx_bytes() > 0);
            assert_eq!(plan.node_count(), 60);
        }
    }

    /// Tier 2 soundness: the scoped repair must be bit-identical to a
    /// wholesale rebuild when a zone scales part of the reference network
    /// differently, across random zone placements and 1/4/8 workers — and it
    /// must actually keep some roots (the scoping is not a disguised full
    /// rebuild).
    /// A road-network-like random graph: a 2-D street grid with random edge
    /// weights, so a spatial congestion zone perturbs a *local*
    /// neighbourhood that shortest paths can route around.
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

    #[test]
    fn scoped_repair_matches_wholesale_rebuild_across_worker_counts() {
        for seed in 0..6u64 {
            let g = random_grid_graph(10, 7, seed);
            // The reference: the free-flow network.
            let (ref_labels, plan) = HubLabels::build_with_plan(&g);
            // A congestion zone over the far corner of the grid.
            let (zx, zy) = (7.5 - (seed as f64) * 0.5, 4.5);
            let mult = |from: Point, to: Point| {
                let mx = 0.5 * (from.x + to.x);
                let my = 0.5 * (from.y + to.y);
                if mx >= zx && my >= zy {
                    2.5
                } else {
                    1.0
                }
            };
            let (net, seeds) = g.reweighted_with_flags(mult);
            assert_eq!(net, g.reweighted(mult), "flag variant changed weights");
            let wholesale = HubLabels::build(&net);
            let repair = plan.repair(&net, &seeds);
            assert_eq!(
                repair.labels, wholesale,
                "seed {seed}: scoped repair drifted from rebuild"
            );
            assert!(
                repair.roots_kept > 0,
                "seed {seed}: a localised zone should leave some roots untouched"
            );
            assert_eq!(repair.roots_kept + repair.roots_rebuilt, 70);
            // The changed set is what shard-selective refresh trusts: every
            // vertex outside it must hold its reference vectors verbatim.
            for v in 0..70usize {
                if !repair.changed[v] {
                    assert_eq!(
                        repair.labels.out_labels[v], ref_labels.out_labels[v],
                        "seed {seed}: unflagged vertex {v} changed out-labels"
                    );
                    assert_eq!(
                        repair.labels.in_labels[v], ref_labels.in_labels[v],
                        "seed {seed}: unflagged vertex {v} changed in-labels"
                    );
                }
            }
            // Worker counts must not matter (rayon::join inside repair).
            for threads in [1usize, 4, 8] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool");
                let under_pool = pool.install(|| plan.repair(&net, &seeds));
                assert_eq!(
                    under_pool.labels, wholesale,
                    "seed {seed}: repair drifted under {threads} workers"
                );
            }
        }
    }

    /// Random sequences of zone flips over random free-flow networks: each
    /// epoch picks its own zone window and factor (or no zone), and the
    /// repair against the network's plan must match a wholesale rebuild
    /// every time — including the no-zone epochs, which repair to the
    /// reference itself.
    #[test]
    fn repair_matches_rebuild_across_random_flip_sequences() {
        let mut rng = StdRng::seed_from_u64(99);
        for seed in 11..15u64 {
            let g = random_grid_graph(8, 8, seed);
            let (ref_labels, plan) = HubLabels::build_with_plan(&g);
            for _ in 0..4 {
                let zoned = rng.gen_range(0u32..3) > 0;
                if !zoned {
                    let repair = plan.repair(&g, &[false; 64]);
                    assert_eq!(repair.labels, ref_labels);
                    continue;
                }
                let lo_x: f64 = rng.gen_range(0.0..6.0);
                let hi_x = lo_x + rng.gen_range(1.0..4.0);
                let lo_y: f64 = rng.gen_range(0.0..6.0);
                let hi_y = lo_y + rng.gen_range(1.0..4.0);
                let zone_factor: f64 = rng.gen_range(0.5..3.0);
                let mult = |from: Point, to: Point| {
                    let mx = 0.5 * (from.x + to.x);
                    let my = 0.5 * (from.y + to.y);
                    if mx >= lo_x && mx <= hi_x && my >= lo_y && my <= hi_y {
                        zone_factor
                    } else {
                        1.0
                    }
                };
                let (net, seeds) = g.reweighted_with_flags(mult);
                let repair = plan.repair(&net, &seeds);
                assert_eq!(
                    repair.labels,
                    HubLabels::build(&net),
                    "flip at [{lo_x},{hi_x}]x[{lo_y},{hi_y}] x{zone_factor} drifted"
                );
            }
        }
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
