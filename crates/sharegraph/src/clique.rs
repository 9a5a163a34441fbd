//! The clique predicate of Observation 2.
//!
//! Any group of requests that can be served together must form a clique in
//! the shareability graph, so clique checks prune infeasible groups cheaply
//! in Algorithm 2.

use crate::graph::ShareabilityGraph;
use structride_model::RequestId;

/// True if the given requests form a clique in the shareability graph
/// (every pair is connected).  Singletons and the empty set are cliques.
pub fn is_clique(graph: &ShareabilityGraph, group: &[RequestId]) -> bool {
    for i in 0..group.len() {
        for j in (i + 1)..group.len() {
            if !graph.has_edge(group[i], group[j]) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_graph() -> ShareabilityGraph {
        let mut g = ShareabilityGraph::new();
        g.add_edge(1, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g.add_edge(2, 4);
        g
    }

    #[test]
    fn clique_predicate() {
        let g = figure1_graph();
        assert!(is_clique(&g, &[]));
        assert!(is_clique(&g, &[1]));
        assert!(is_clique(&g, &[1, 2, 3]));
        assert!(is_clique(&g, &[2, 4]));
        assert!(!is_clique(&g, &[1, 2, 4]));
        assert!(!is_clique(&g, &[1, 4]));
    }
}
