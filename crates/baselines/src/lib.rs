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

use structride_core::{DispatchContext, DispatcherBuilder, DispatcherKind};
use structride_model::{insertion, Request, RequestId, Vehicle};
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

/// The online greedy of pruneGDP and DARM: each of `requests`, in arrival
/// order, goes to the vehicle whose cheapest insertion adds the least cost,
/// if any admits it; a row is folded in fleet order, and a candidate beats
/// the best so far only when cheaper by more than `epsilon`.  Returns the
/// assigned ids in arrival order.
///
/// The batch is screened ([`DispatchContext::screen_pool`]) and scored
/// ([`DispatchContext::score_screened`]) once.  A commit moves neither a
/// vehicle's `node` nor its `free_at`, all the screen reads, so a request is
/// rescored, in a one-row pass, only when one of its survivors has taken a
/// commit earlier in the batch.  The winner's insertion is re-run.
pub(crate) fn insert_cheapest(
    ctx: &DispatchContext<'_>,
    vehicles: &mut [Vehicle],
    requests: &[Request],
    epsilon: f64,
) -> Vec<RequestId> {
    let requests: Vec<&Request> = requests.iter().collect();
    let keep = vehicles.len();
    let pool = ctx.screen_pool(vehicles, &requests);
    let rows = ctx.score_screened(vehicles, &pool, keep);
    let mut committed = vec![false; keep];
    let mut assigned = Vec::new();
    for (screened, row) in pool.iter().zip(rows) {
        let mut row = if screened.survivors.iter().any(|&vi| committed[vi]) {
            ctx.score_screened(vehicles, std::slice::from_ref(screened), keep)
                .remove(0)
        } else {
            row
        };
        row.sort_unstable_by_key(|&(_, vi)| vi);
        let best = row.into_iter().reduce(|best, next| {
            if next.0 < best.0 - epsilon {
                next
            } else {
                best
            }
        });
        let Some((_, vi)) = best else { continue };
        let out = insertion::insert_request(ctx.engine, &vehicles[vi], screened.request)
            .expect("a scored candidate admits its request");
        vehicles[vi].commit_schedule(out.schedule);
        committed[vi] = true;
        assigned.push(screened.request.id);
    }
    assigned
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

    /// Two idle vehicles whose insertions differ by less than 1e-12: the
    /// first reaches the pickup over a 0.1 + 0.2 path, the second over a
    /// 0.3 edge.  pruneGDP keeps the first vehicle in the fleet, DARM takes
    /// the strictly cheaper second.
    #[test]
    fn near_ties_go_first_in_fleet_for_prunegdp_and_cheapest_for_darm() {
        use structride_core::Dispatcher;
        use structride_roadnet::{Point, RoadNetworkBuilder, SpEngine};
        let mut b = RoadNetworkBuilder::new();
        for x in [0.0, 0.1, 0.3, 0.6, 0.7] {
            b.add_node(Point::new(x, 0.0));
        }
        for (from, to, weight) in [(0, 1, 0.1), (1, 2, 0.2), (3, 2, 0.3), (2, 4, 0.4)] {
            b.add_bidirectional(from, to, weight).unwrap();
        }
        let engine = SpEngine::new(b.build().unwrap());
        let batch = [testutil::req(1, 2, 4, 0.4, 10.0)];
        let fleet = || vec![Vehicle::new(0, 0, 4), Vehicle::new(1, 3, 4)];
        let added = |vi: usize| insertion::insert_request(&engine, &fleet()[vi], &batch[0]);
        let (first, second) = (added(0).unwrap().added_cost, added(1).unwrap().added_cost);
        assert!(second < first && first - second < 1e-12, "{first} {second}");

        let holder = |dispatcher: &mut dyn Dispatcher| {
            let mut vehicles = fleet();
            let ctx = testutil::ctx(&engine, 0.0);
            let out = dispatcher.dispatch_batch(&ctx, &mut vehicles, &batch);
            assert_eq!(out.assigned, vec![1]);
            vehicles.iter().position(|v| v.schedule.contains_request(1))
        };
        assert_eq!(holder(&mut PruneGdp::new()), Some(0));
        assert_eq!(holder(&mut DemandRepositioning::new()), Some(1));
    }
}
