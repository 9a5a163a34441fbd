//! The shareability graph data structure (Definition 5).
//!
//! Nodes are request identifiers, edges are undirected "can share a trip"
//! relations.  The structure is deliberately simple — a hash map of adjacency
//! sets — because batches hold at most a few thousand live requests and the
//! dispatcher constantly adds/removes nodes as requests arrive, get assigned
//! or expire.

use std::collections::{HashMap, HashSet};
use structride_model::RequestId;

/// An undirected graph over request ids.
#[derive(Debug, Clone, Default)]
pub struct ShareabilityGraph {
    adjacency: HashMap<RequestId, HashSet<RequestId>>,
    edge_count: usize,
}

impl ShareabilityGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes (live requests).
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// True if the node exists.
    pub fn contains(&self, id: RequestId) -> bool {
        self.adjacency.contains_key(&id)
    }

    /// Adds a node (no-op if already present).
    pub fn add_node(&mut self, id: RequestId) {
        self.adjacency.entry(id).or_default();
    }

    /// Adds an undirected edge, creating missing endpoints.  Self-loops are
    /// ignored.  Returns true if the edge was new.
    pub fn add_edge(&mut self, a: RequestId, b: RequestId) -> bool {
        if a == b {
            return false;
        }
        self.add_node(a);
        self.add_node(b);
        let inserted = self.adjacency.get_mut(&a).expect("node a exists").insert(b);
        self.adjacency.get_mut(&b).expect("node b exists").insert(a);
        if inserted {
            self.edge_count += 1;
        }
        inserted
    }

    /// True if the undirected edge exists.
    pub fn has_edge(&self, a: RequestId, b: RequestId) -> bool {
        self.adjacency
            .get(&a)
            .map(|n| n.contains(&b))
            .unwrap_or(false)
    }

    /// Removes a node and all incident edges.  Returns true if it existed.
    pub fn remove_node(&mut self, id: RequestId) -> bool {
        match self.adjacency.remove(&id) {
            Some(neighbors) => {
                self.edge_count -= neighbors.len();
                for n in neighbors {
                    if let Some(set) = self.adjacency.get_mut(&n) {
                        set.remove(&id);
                    }
                }
                true
            }
            None => false,
        }
    }

    /// Degree of a node — the request's *shareability* (Observation 1).
    /// Missing nodes have degree 0.
    pub fn degree(&self, id: RequestId) -> usize {
        self.adjacency.get(&id).map(HashSet::len).unwrap_or(0)
    }

    /// Neighbor set of a node (empty for missing nodes).
    pub fn neighbors(&self, id: RequestId) -> impl Iterator<Item = RequestId> + '_ {
        self.adjacency
            .get(&id)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Neighbor set as a `HashSet` clone (handy for set algebra in the
    /// shareability-loss computation).
    pub fn neighbor_set(&self, id: RequestId) -> HashSet<RequestId> {
        self.adjacency.get(&id).cloned().unwrap_or_default()
    }

    /// All node ids (unordered).
    pub fn nodes(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.adjacency.keys().copied()
    }

    /// Nodes whose id is in the graph, in the common neighborhood of every
    /// member of `group` (i.e. the nodes that would stay connected to the
    /// supernode after substitution), excluding the group members themselves.
    pub fn common_neighbors(&self, group: &[RequestId]) -> HashSet<RequestId> {
        let mut iter = group.iter();
        let mut acc = match iter.next() {
            Some(&first) => self.neighbor_set(first),
            None => return HashSet::new(),
        };
        for &member in iter {
            let set = match self.adjacency.get(&member) {
                Some(s) => s,
                None => return HashSet::new(),
            };
            acc.retain(|x| set.contains(x));
        }
        for member in group {
            acc.remove(member);
        }
        acc
    }

    /// Substitutes a supernode for `group` (the operation underlying
    /// Definition 6): the group members are removed and a new node `super_id`
    /// is connected to exactly the former common neighbors of all members.
    ///
    /// Returns the number of edges lost by the substitution (removed incident
    /// edges minus the new supernode edges), which for a clique group equals
    /// the intuition behind the shareability loss.
    pub fn substitute_supernode(&mut self, group: &[RequestId], super_id: RequestId) -> isize {
        let common = self.common_neighbors(group);
        let mut removed = 0usize;
        // Count internal edges only once.
        let group_set: HashSet<RequestId> = group.iter().copied().collect();
        let mut internal = 0usize;
        for &g in group {
            for n in self.neighbors(g) {
                if group_set.contains(&n) {
                    internal += 1;
                } else {
                    removed += 1;
                }
            }
        }
        removed += internal / 2;
        for &g in group {
            self.remove_node(g);
        }
        self.add_node(super_id);
        for n in &common {
            self.add_edge(super_id, *n);
        }
        removed as isize - common.len() as isize
    }

    /// Every undirected edge exactly once, as `(low, high)` id pairs in
    /// ascending order — the canonical listing the checkpoint codec
    /// serializes (the adjacency sets themselves iterate in hash order, so
    /// this is the only deterministic view of the edge set).
    pub fn edges_sorted(&self) -> Vec<(RequestId, RequestId)> {
        let mut edges: Vec<(RequestId, RequestId)> = Vec::with_capacity(self.edge_count);
        for (&a, neighbors) in &self.adjacency {
            for &b in neighbors {
                if a < b {
                    edges.push((a, b));
                }
            }
        }
        edges.sort_unstable();
        edges
    }

    /// Approximate heap footprint in bytes (Fig. 14 accounting), counted
    /// from the adjacency sets' lengths, not their capacities.
    pub fn approx_bytes(&self) -> usize {
        let per_entry = std::mem::size_of::<RequestId>() + 8;
        let adjacency: usize = self.adjacency.values().map(|s| s.len() * per_entry).sum();
        adjacency + self.adjacency.len() * (std::mem::size_of::<HashSet<RequestId>>() + 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shareability graph of the paper's Figure 1(b):
    /// edges r1–r2, r1–r3, r2–r3, r2–r4.
    pub(crate) fn figure1_graph() -> ShareabilityGraph {
        let mut g = ShareabilityGraph::new();
        g.add_edge(1, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g.add_edge(2, 4);
        g
    }

    #[test]
    fn basic_structure() {
        let g = figure1_graph();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(4), 1);
        assert!(g.has_edge(1, 3));
        assert!(g.has_edge(3, 1));
        assert!(!g.has_edge(1, 4));
        let mut n2: Vec<_> = g.neighbors(2).collect();
        n2.sort_unstable();
        assert_eq!(n2, vec![1, 3, 4]);
    }

    #[test]
    fn duplicate_edges_and_self_loops_ignored() {
        let mut g = ShareabilityGraph::new();
        assert!(g.add_edge(1, 2));
        assert!(!g.add_edge(2, 1));
        assert!(!g.add_edge(1, 1));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn remove_node_updates_edges_and_degrees() {
        let mut g = figure1_graph();
        assert!(g.remove_node(2));
        assert!(!g.remove_node(2));
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 1); // only r1-r3 remains
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.degree(4), 0);
        assert!(!g.has_edge(2, 4));
    }

    #[test]
    fn common_neighbors_of_groups() {
        let g = figure1_graph();
        let c = g.common_neighbors(&[1, 3]);
        assert_eq!(c, [2].into_iter().collect());
        let c = g.common_neighbors(&[1, 2]);
        assert_eq!(c, [3].into_iter().collect());
        let c = g.common_neighbors(&[1, 4]);
        assert_eq!(c, [2].into_iter().collect());
        assert!(g.common_neighbors(&[]).is_empty());
        assert!(g.common_neighbors(&[99]).is_empty());
    }

    #[test]
    fn supernode_substitution_matches_example3() {
        // Example 3(a): substitute {r1, r3}; 3 incident edges are removed and
        // one new edge (supernode–r2) is created -> loss 2.
        let mut g = figure1_graph();
        g.remove_node(4); // the example assumes r4 is unavailable
        let loss = g.substitute_supernode(&[1, 3], 100);
        assert_eq!(loss, 2);
        assert!(g.contains(100));
        assert!(g.has_edge(100, 2));
        assert_eq!(g.node_count(), 2);

        // Example 3(b): substitute {r1, r2} in the full graph; 4 edges removed,
        // one new edge to r3 -> loss 3.
        let mut g = figure1_graph();
        let loss = g.substitute_supernode(&[1, 2], 100);
        assert_eq!(loss, 3);
        assert!(g.has_edge(100, 3));
        assert!(!g.has_edge(100, 4));
    }

    #[test]
    fn edges_sorted_lists_each_edge_once_in_order() {
        let g = figure1_graph();
        assert_eq!(g.edges_sorted(), vec![(1, 2), (1, 3), (2, 3), (2, 4)]);
        assert!(ShareabilityGraph::new().edges_sorted().is_empty());
    }

    #[test]
    fn approx_bytes_positive() {
        assert!(figure1_graph().approx_bytes() > 0);
    }
}
