//! Baseline dispatchers from the paper's experimental study (§V-A).
//!
//! Every baseline implements the same [`Dispatcher`](structride_core::Dispatcher)
//! trait as SARD, so the simulator and the experiment harness can run them
//! side by side exactly as the paper does:
//!
//! * [`PruneGdp`] — the online linear-insertion greedy of Tong et al. \[37\]:
//!   each request is inserted into the vehicle with the smallest cost increase
//!   the moment it arrives;
//! * [`TicketAssignPlus`] — the parallel online method of Pan & Li \[54\]:
//!   several workers rank insertions for their requests concurrently, then
//!   commit round by round in worker order, re-checking per-vehicle tickets;
//! * [`Gas`] — the additive-tree batch method of Zeng et al. \[33\]: per batch,
//!   vehicles (in random order) enumerate feasible request groups and take the
//!   most profitable one (total request length as profit);
//! * [`Rtv`] — the trip-vehicle assignment of Alonso-Mora et al. \[27\]: per
//!   batch, feasible trips are enumerated per vehicle and a global assignment
//!   is solved.  The paper uses a glpk ILP; this reproduction solves the same
//!   trip choice exactly by branch and bound, seeded by a greedy + swap
//!   heuristic;
//! * [`DemandRepositioning`] — the stand-in for the deep-RL DARM+DPRS \[53\]:
//!   greedy matching plus demand-aware repositioning of idle vehicles toward
//!   hot grid cells (a learned policy is out of scope).

pub mod darm;
pub mod gas;
pub mod prunegdp;
pub mod rtv;
#[cfg(test)]
pub(crate) mod testutil;
pub mod ticket;

pub use darm::DemandRepositioning;
pub use gas::Gas;
pub use prunegdp::PruneGdp;
pub use rtv::Rtv;
pub use ticket::TicketAssignPlus;

use structride_core::{DispatcherBuilder, DispatcherKind};
use structride_model::RequestId;
use structride_sharegraph::ShareabilityGraph;

/// The full dispatcher registry of the workspace: the core dispatchers
/// (SARD, exact assignment) plus every baseline this crate provides.
///
/// This is the registry the replay CLI and the bench drivers build from —
/// the single successor to the hand-maintained key lists and per-driver
/// constructor closures.  Constructors match the historical ones exactly
/// (same config plumbing), so dispatchers built here behave identically to
/// the pre-registry code paths and pre-change traces replay clean.
pub fn standard_registry() -> DispatcherBuilder {
    DispatcherBuilder::core()
        .register(DispatcherKind::Rtv, |config| {
            Box::new(Rtv::new(config.cost.penalty_coefficient))
        })
        .register(DispatcherKind::PruneGdp, |_| Box::new(PruneGdp::new()))
        .register(DispatcherKind::Gas, |_| Box::new(Gas::default()))
        .register(DispatcherKind::Darm, |_| {
            Box::new(DemandRepositioning::new())
        })
        .register(DispatcherKind::Ticket, |_| {
            Box::new(TicketAssignPlus::default())
        })
}

/// Builds the complete graph over the given request ids.
///
/// GAS enumerates request combinations without the shareability-graph
/// clique pruning that SARD adds; feeding the grouping routine a complete
/// graph reproduces that behaviour (every pair is a candidate, infeasible ones
/// are rejected by the schedule checks alone).
pub(crate) fn complete_graph(ids: &[RequestId]) -> ShareabilityGraph {
    let mut g = ShareabilityGraph::new();
    for &id in ids {
        g.add_node(id);
    }
    for i in 0..ids.len() {
        for j in (i + 1)..ids.len() {
            g.add_edge(ids[i], ids[j]);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_builds_every_kind() {
        let registry = standard_registry();
        let config = structride_core::StructRideConfig::default();
        assert_eq!(
            registry.keys(),
            vec!["sard", "assign", "rtv", "prunegdp", "gas", "darm", "ticket"]
        );
        for kind in registry.all() {
            let d = registry.build(kind, &config).expect("registered");
            assert!(!d.name().is_empty());
        }
        // The legacy alias still resolves.
        assert_eq!(registry.from_key("gdp"), Some(DispatcherKind::PruneGdp));
    }

    #[test]
    fn complete_graph_connects_every_pair() {
        let g = complete_graph(&[1, 2, 3, 4]);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 6);
        for a in 1..=4u32 {
            for b in 1..=4u32 {
                if a != b {
                    assert!(g.has_edge(a, b));
                }
            }
        }
        assert_eq!(complete_graph(&[]).node_count(), 0);
        assert_eq!(complete_graph(&[7]).edge_count(), 0);
    }
}
