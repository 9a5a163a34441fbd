//! Sub-network extraction: clipped road networks with an old↔new id mapping.
//!
//! A [`SubNetwork`] is the subgraph of a parent [`RoadNetwork`] induced by a
//! vertex set (for the sharded pipeline: a shard's region plus its handoff
//! halo), re-indexed to dense local ids `0..len`.  It carries both direction
//! maps — [`SubNetwork::local`] (global → local, `None` outside the clip) and
//! [`SubNetwork::global`] (local → global) — so an engine can translate
//! vertex ids at the query boundary while callers keep using global ids.
//!
//! The **frontier** is the set of clip vertices with at least one parent
//! edge crossing the cut.  It characterises where the clipped graph's
//! metric can fall short of the parent's: a shortest path between two clip
//! vertices that detours outside the clip must leave and re-enter through
//! frontier vertices.  The per-shard engines therefore never answer queries
//! from an independently built clipped index; they restrict the parent's
//! hub labels to the clip ([`crate::HubLabels::restrict_to`]), which keeps every
//! answer bit-identical to the whole-network index, and fall back to the
//! shared parent index for endpoints outside the clip.

use crate::error::RoadNetError;
use crate::graph::{NodeId, RoadNetwork, RoadNetworkBuilder};
use crate::Result;

/// Sentinel marking a global vertex as outside the clip.
const NOT_IN_CLIP: u32 = u32::MAX;

/// An induced subgraph of a [`RoadNetwork`] with dense local vertex ids and
/// the old↔new mapping.
#[derive(Debug, Clone)]
pub struct SubNetwork {
    /// The clipped graph over local ids (coordinates copied from the parent).
    network: RoadNetwork,
    /// `to_global[local]` — the parent id of each clip vertex, ascending.
    to_global: Vec<NodeId>,
    /// `to_local[global]` — the local id, or [`NOT_IN_CLIP`].
    to_local: Vec<u32>,
    /// Local ids of clip vertices with a parent edge crossing the cut,
    /// ascending.
    frontier: Vec<NodeId>,
    /// Parent edges dropped because exactly one endpoint is in the clip.
    cut_edges: usize,
}

impl SubNetwork {
    /// Extracts the subgraph of `parent` induced by `vertices` (duplicates
    /// are ignored; local ids follow ascending global id order, so the
    /// extraction is deterministic for any input order).
    ///
    /// Returns [`RoadNetError::EmptyGraph`] for an empty vertex set and
    /// [`RoadNetError::InvalidNode`] when an id is out of range.
    pub fn extract(parent: &RoadNetwork, vertices: &[NodeId]) -> Result<SubNetwork> {
        let n = parent.node_count();
        let mut to_global: Vec<NodeId> = vertices.to_vec();
        to_global.sort_unstable();
        to_global.dedup();
        if to_global.is_empty() {
            return Err(RoadNetError::EmptyGraph);
        }
        if let Some(&bad) = to_global.last().filter(|&&v| v as usize >= n) {
            return Err(RoadNetError::InvalidNode {
                node: bad,
                node_count: n,
            });
        }

        let mut to_local = vec![NOT_IN_CLIP; n];
        for (local, &global) in to_global.iter().enumerate() {
            to_local[global as usize] = local as u32;
        }

        let mut b = RoadNetworkBuilder::with_capacity(to_global.len(), to_global.len() * 4);
        for &global in &to_global {
            b.add_node(parent.coord(global));
        }
        let mut frontier = Vec::new();
        let mut cut_edges = 0usize;
        for (local, &global) in to_global.iter().enumerate() {
            let mut crosses = false;
            for (to, w) in parent.out_edges(global) {
                match to_local[to as usize] {
                    NOT_IN_CLIP => {
                        crosses = true;
                        cut_edges += 1;
                    }
                    lt => b
                        .add_edge(local as NodeId, lt, w)
                        .expect("mapped edge endpoints are in range"),
                }
            }
            // Incoming cut edges also make a vertex a frontier vertex (the
            // counted `cut_edges` tally only counts each parent edge once,
            // from its source side).
            if !crosses {
                crosses = parent
                    .in_edges(global)
                    .any(|(from, _)| to_local[from as usize] == NOT_IN_CLIP);
            }
            if crosses {
                frontier.push(local as NodeId);
            }
        }

        Ok(SubNetwork {
            network: b.build().expect("clip has at least one vertex"),
            to_global,
            to_local,
            frontier,
            cut_edges,
        })
    }

    /// The clipped graph (local vertex ids).
    pub fn network(&self) -> &RoadNetwork {
        &self.network
    }

    /// Number of vertices in the clip.
    pub fn len(&self) -> usize {
        self.to_global.len()
    }

    /// Never true — extraction rejects empty vertex sets.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True when the clip contains every vertex of a parent with this node
    /// count — the sub-network is the whole network re-indexed (identically,
    /// since local ids follow ascending global order).
    pub fn covers_parent(&self) -> bool {
        self.to_global.len() == self.to_local.len()
    }

    /// Local id of a parent vertex, or `None` when it lies outside the clip
    /// (or out of the parent's range).
    pub fn local(&self, global: NodeId) -> Option<NodeId> {
        match self.to_local.get(global as usize) {
            Some(&l) if l != NOT_IN_CLIP => Some(l),
            _ => None,
        }
    }

    /// Parent id of a clip vertex.
    ///
    /// # Panics
    /// Panics if `local` is out of range.
    pub fn global(&self, local: NodeId) -> NodeId {
        self.to_global[local as usize]
    }

    /// The local → global mapping, ascending by global id.
    pub fn to_global(&self) -> &[NodeId] {
        &self.to_global
    }

    /// True when the parent vertex is in the clip.
    pub fn contains(&self, global: NodeId) -> bool {
        self.local(global).is_some()
    }

    /// Local ids of the clip vertices with a parent edge crossing the cut.
    pub fn frontier(&self) -> &[NodeId] {
        &self.frontier
    }

    /// Parent edges dropped by the clip (counted from the source side).
    pub fn cut_edges(&self) -> usize {
        self.cut_edges
    }

    /// Approximate heap footprint (clipped graph + both id maps) in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.network.approx_bytes()
            + self.to_global.len() * std::mem::size_of::<NodeId>()
            + self.to_local.len() * std::mem::size_of::<u32>()
            + self.frontier.len() * std::mem::size_of::<NodeId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra;
    use crate::graph::Point;

    /// A 4×4 bidirectional grid with unit weights; node id = row * 4 + col.
    fn grid4() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        for r in 0..4 {
            for c in 0..4 {
                b.add_node(Point::new(c as f64, r as f64));
            }
        }
        for r in 0..4u32 {
            for c in 0..4u32 {
                let id = r * 4 + c;
                if c + 1 < 4 {
                    b.add_bidirectional(id, id + 1, 1.0).unwrap();
                }
                if r + 1 < 4 {
                    b.add_bidirectional(id, id + 4, 1.0).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn extracts_induced_subgraph_with_id_maps() {
        let g = grid4();
        // Left two columns: 8 vertices, in scrambled, duplicated input order.
        let clip = SubNetwork::extract(&g, &[5, 0, 4, 1, 9, 8, 13, 12, 0, 5]).unwrap();
        assert_eq!(clip.len(), 8);
        assert_eq!(clip.to_global(), &[0, 1, 4, 5, 8, 9, 12, 13]);
        for (local, &global) in clip.to_global().iter().enumerate() {
            assert_eq!(clip.local(global), Some(local as NodeId));
            assert_eq!(clip.global(local as NodeId), global);
            assert_eq!(clip.network().coord(local as NodeId), g.coord(global));
        }
        assert!(!clip.contains(2));
        assert_eq!(clip.local(2), None);
        assert_eq!(clip.local(999), None);
        // Induced edges only: each row keeps the one horizontal edge pair,
        // each column its three vertical pairs → 4*2 + 2*6 = 20 directed.
        assert_eq!(clip.network().edge_count(), 20);
        // The right column of the clip is the frontier (edges to column 2).
        let frontier_globals: Vec<NodeId> =
            clip.frontier().iter().map(|&l| clip.global(l)).collect();
        assert_eq!(frontier_globals, vec![1, 5, 9, 13]);
        assert_eq!(clip.cut_edges(), 4);
        assert!(!clip.covers_parent());
        assert!(clip.approx_bytes() > 0);
    }

    #[test]
    fn clip_distances_never_beat_the_parent_and_match_when_paths_stay_inside() {
        let g = grid4();
        let clip = SubNetwork::extract(&g, &[0, 1, 4, 5, 8, 9, 12, 13]).unwrap();
        for ls in 0..clip.len() as NodeId {
            let d_clip = dijkstra::sssp(clip.network(), ls);
            let d_full = dijkstra::sssp(&g, clip.global(ls));
            for lt in 0..clip.len() as NodeId {
                let c = d_clip[lt as usize];
                let f = d_full[clip.global(lt) as usize];
                assert!(c >= f, "clip must never undercut the parent metric");
                // On a uniform grid the Manhattan path stays in the clip.
                assert_eq!(c.to_bits(), f.to_bits());
            }
        }
    }

    #[test]
    fn full_cover_extraction_is_the_identity() {
        let g = grid4();
        let all: Vec<NodeId> = g.nodes().collect();
        let clip = SubNetwork::extract(&g, &all).unwrap();
        assert!(clip.covers_parent());
        assert!(clip.frontier().is_empty());
        assert_eq!(clip.cut_edges(), 0);
        assert_eq!(clip.network().edge_count(), g.edge_count());
        for v in g.nodes() {
            assert_eq!(clip.local(v), Some(v));
        }
    }

    #[test]
    fn rejects_empty_and_invalid_vertex_sets() {
        let g = grid4();
        assert!(matches!(
            SubNetwork::extract(&g, &[]),
            Err(RoadNetError::EmptyGraph)
        ));
        assert!(matches!(
            SubNetwork::extract(&g, &[3, 99]),
            Err(RoadNetError::InvalidNode { node: 99, .. })
        ));
    }

    #[test]
    fn isolated_clip_vertex_has_no_edges_but_is_mapped() {
        let g = grid4();
        // A single interior vertex: all four neighbours are cut away.
        let clip = SubNetwork::extract(&g, &[5]).unwrap();
        assert_eq!(clip.len(), 1);
        assert_eq!(clip.network().edge_count(), 0);
        assert_eq!(clip.frontier(), &[0]);
        assert_eq!(clip.cut_edges(), 4);
    }
}
