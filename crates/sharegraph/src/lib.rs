//! The shareability graph of StructRide (§III of the paper).
//!
//! Each node is a request; an edge `(r_a, r_b)` means the two requests can be
//! served by one vehicle in one trip (Definition 5).  The crate provides:
//!
//! * [`ShareabilityGraph`] — the adjacency structure with degrees,
//!   neighborhoods and the supernode-substitution operation;
//! * [`shareable`] — the pairwise shareability test (all precedence-valid
//!   interleavings of the four way-points, screened by certified lower
//!   bounds before any shortest-path query);
//! * [`angle`] — the angle-pruning strategy of §III-B (Theorem III.1),
//!   including the log-normal sharing-probability model;
//! * [`builder`] — the dynamic shareability-graph builder of Algorithm 1,
//!   one scan over the live requests with the pickup-window prefilter and
//!   angle pruning;
//! * [`loss`] — the shareability loss of Definition 6 (Theorems IV.1/IV.2);
//! * [`clique`] — the clique predicate of Observation 2, which prunes
//!   Algorithm 2's groups.

pub mod angle;
pub mod builder;
pub mod clique;
pub mod graph;
pub mod loss;
pub mod shareable;
#[cfg(test)]
#[path = "../tests/support/engines.rs"]
mod test_engines;

pub use angle::AnglePruning;
pub use builder::{BuildTimes, BuilderConfig, ShareabilityGraphBuilder};
pub use graph::ShareabilityGraph;
pub use loss::shareability_loss;
pub use shareable::{pairwise_shareable, ShareabilityCheck};
