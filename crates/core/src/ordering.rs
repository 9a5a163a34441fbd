//! The schedule-maintenance study of §IV-A: how often does linear insertion
//! reach the *optimal* schedule, and how much does reordering the insertion
//! sequence by shareability help?
//!
//! The paper reports that inserting requests in release order reaches the
//! kinetic-tree optimum for 85–89 % of the 3rd/4th insertions on the real
//! datasets, and that first anchoring the two lowest-shareability requests and
//! then inserting the rest in ascending shareability raises this to 90–91 %.
//! This module reproduces that measurement on any request sample so the claim
//! can be checked on the synthetic workloads (`experiments insertion_order`).

use crate::context::DispatchContext;
use crate::grouping::CandidateGroup;
use std::collections::HashMap;
use structride_model::insertion::insert_into;
use structride_model::kinetic::optimal_schedule;
use structride_model::{Request, RequestId, Schedule, Vehicle};
use structride_sharegraph::ShareabilityGraph;

/// How the members of a group are fed to the linear-insertion operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertionOrdering {
    /// Ascending release time (what a purely online system would do).
    ReleaseOrder,
    /// Ascending shareability (graph degree): the paper's reordering — the
    /// least shareable requests anchor the sub-schedule first.
    ShareabilityOrder,
}

/// Outcome of comparing one group's linear-insertion schedule against the
/// exact kinetic-tree optimum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderingOutcome {
    /// Travel cost of the linear-insertion schedule (infinite if infeasible).
    pub linear_cost: f64,
    /// Travel cost of the exact optimum (infinite if no feasible schedule).
    pub optimal_cost: f64,
}

impl OrderingOutcome {
    /// True when linear insertion found a schedule matching the optimum cost.
    pub fn is_optimal(&self) -> bool {
        self.linear_cost.is_finite()
            && self.optimal_cost.is_finite()
            && self.linear_cost <= self.optimal_cost + 1e-6
    }
}

/// Aggregated optimality statistics for one ordering policy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OrderingStudy {
    /// Groups for which a feasible optimum exists.
    pub feasible_groups: usize,
    /// Groups where linear insertion was feasible at all.
    pub linear_feasible: usize,
    /// Groups where linear insertion matched the optimum cost.
    pub optimal_hits: usize,
}

impl OrderingStudy {
    /// Probability of reaching the optimal schedule (the §IV-A percentages).
    pub fn optimality_rate(&self) -> f64 {
        if self.feasible_groups == 0 {
            0.0
        } else {
            self.optimal_hits as f64 / self.feasible_groups as f64
        }
    }
}

fn ordered_members(
    members: &[RequestId],
    requests: &HashMap<RequestId, Request>,
    graph: &ShareabilityGraph,
    ordering: InsertionOrdering,
) -> Vec<RequestId> {
    let mut ids = members.to_vec();
    match ordering {
        InsertionOrdering::ReleaseOrder => {
            ids.sort_by(|a, b| {
                let (ra, rb) = (requests[a].release, requests[b].release);
                ra.total_cmp(&rb).then(a.cmp(b))
            });
        }
        InsertionOrdering::ShareabilityOrder => {
            ids.sort_by_key(|id| (graph.degree(*id), *id));
        }
    }
    ids
}

/// Builds a schedule for `members` by feeding them to linear insertion in the
/// given order, starting from `vehicle`'s state.  Returns the schedule cost,
/// or infinity when some member cannot be inserted.
pub fn linear_schedule_cost(
    ctx: &DispatchContext<'_>,
    vehicle: &Vehicle,
    members: &[RequestId],
    requests: &HashMap<RequestId, Request>,
    graph: &ShareabilityGraph,
    ordering: InsertionOrdering,
) -> f64 {
    let engine = ctx.engine;
    let mut schedule = Schedule::new();
    for id in ordered_members(members, requests, graph, ordering) {
        let Some(request) = requests.get(&id) else {
            return f64::INFINITY;
        };
        match insert_into(
            engine,
            vehicle.node,
            vehicle.free_at,
            vehicle.onboard,
            vehicle.capacity,
            &schedule,
            request,
        ) {
            Some(out) => schedule = out.schedule,
            None => return f64::INFINITY,
        }
    }
    schedule
        .evaluate(
            engine,
            vehicle.node,
            vehicle.free_at,
            vehicle.onboard,
            vehicle.capacity,
        )
        .travel_cost
}

/// Compares one group under one ordering policy against the exact optimum.
pub fn compare_group(
    ctx: &DispatchContext<'_>,
    vehicle: &Vehicle,
    members: &[RequestId],
    requests: &HashMap<RequestId, Request>,
    graph: &ShareabilityGraph,
    ordering: InsertionOrdering,
) -> OrderingOutcome {
    let refs: Vec<&Request> = members.iter().filter_map(|id| requests.get(id)).collect();
    let optimal = optimal_schedule(
        ctx.engine,
        vehicle.node,
        vehicle.free_at,
        vehicle.onboard,
        vehicle.capacity,
        &refs,
    )
    .map(|(_, c)| c)
    .unwrap_or(f64::INFINITY);
    let linear = linear_schedule_cost(ctx, vehicle, members, requests, graph, ordering);
    OrderingOutcome {
        linear_cost: linear,
        optimal_cost: optimal,
    }
}

/// Runs the §IV-A study over a set of candidate groups (typically the 3- and
/// 4-request groups produced by [`crate::grouping::enumerate_groups`]).
pub fn ordering_study(
    ctx: &DispatchContext<'_>,
    vehicle: &Vehicle,
    groups: &[CandidateGroup],
    requests: &HashMap<RequestId, Request>,
    graph: &ShareabilityGraph,
    ordering: InsertionOrdering,
) -> OrderingStudy {
    let mut study = OrderingStudy::default();
    for group in groups {
        let outcome = compare_group(ctx, vehicle, &group.members, requests, graph, ordering);
        if !outcome.optimal_cost.is_finite() {
            continue;
        }
        study.feasible_groups += 1;
        if outcome.linear_cost.is_finite() {
            study.linear_feasible += 1;
        }
        if outcome.is_optimal() {
            study.optimal_hits += 1;
        }
    }
    study
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StructRideConfig;
    use structride_roadnet::{Point, RoadNetworkBuilder, SpEngine};
    use structride_sharegraph::pairwise_shareable;

    fn ctx(engine: &SpEngine) -> DispatchContext<'_> {
        DispatchContext::new(engine, StructRideConfig::default(), 0.0)
    }

    fn line_engine() -> SpEngine {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..8 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 1..8u32 {
            b.add_bidirectional(i - 1, i, 10.0).unwrap();
        }
        SpEngine::new(b.build().unwrap())
    }

    fn req(id: u32, s: u32, e: u32, release: f64, cost: f64, gamma: f64) -> Request {
        Request::with_detour(id, s, e, 1, release, cost, gamma, 300.0)
    }

    fn setup(reqs: &[Request]) -> (HashMap<RequestId, Request>, ShareabilityGraph) {
        let engine = line_engine();
        let map: HashMap<RequestId, Request> = reqs.iter().map(|r| (r.id, r.clone())).collect();
        let mut graph = ShareabilityGraph::new();
        for r in reqs {
            graph.add_node(r.id);
        }
        for i in 0..reqs.len() {
            for j in (i + 1)..reqs.len() {
                if pairwise_shareable(&engine, &reqs[i], &reqs[j], 6) {
                    graph.add_edge(reqs[i].id, reqs[j].id);
                }
            }
        }
        (map, graph)
    }

    #[test]
    fn linear_cost_matches_optimum_on_nested_trips() {
        let engine = line_engine();
        let reqs = vec![
            req(1, 0, 7, 0.0, 70.0, 1.8),
            req(2, 1, 6, 1.0, 50.0, 1.8),
            req(3, 2, 5, 2.0, 30.0, 1.8),
        ];
        let (map, graph) = setup(&reqs);
        let vehicle = Vehicle::new(0, 0, 6);
        let members: Vec<RequestId> = reqs.iter().map(|r| r.id).collect();
        for ordering in [
            InsertionOrdering::ReleaseOrder,
            InsertionOrdering::ShareabilityOrder,
        ] {
            let outcome = compare_group(&ctx(&engine), &vehicle, &members, &map, &graph, ordering);
            assert!(outcome.is_optimal(), "{ordering:?}: {outcome:?}");
            assert!((outcome.optimal_cost - 70.0).abs() < 1e-9);
        }
    }

    #[test]
    fn linear_insertion_never_beats_the_optimum() {
        let engine = line_engine();
        let reqs = vec![
            req(1, 0, 4, 0.0, 40.0, 2.0),
            req(2, 5, 2, 0.5, 30.0, 2.0),
            req(3, 3, 7, 1.0, 40.0, 2.0),
        ];
        let (map, graph) = setup(&reqs);
        let vehicle = Vehicle::new(0, 0, 6);
        let members: Vec<RequestId> = reqs.iter().map(|r| r.id).collect();
        for ordering in [
            InsertionOrdering::ReleaseOrder,
            InsertionOrdering::ShareabilityOrder,
        ] {
            let outcome = compare_group(&ctx(&engine), &vehicle, &members, &map, &graph, ordering);
            if outcome.optimal_cost.is_finite() && outcome.linear_cost.is_finite() {
                assert!(outcome.linear_cost >= outcome.optimal_cost - 1e-9);
            }
        }
    }

    #[test]
    fn study_counts_are_consistent() {
        let engine = line_engine();
        let reqs = vec![
            req(1, 0, 7, 0.0, 70.0, 1.8),
            req(2, 1, 6, 1.0, 50.0, 1.8),
            req(3, 2, 5, 2.0, 30.0, 1.8),
            req(4, 7, 0, 0.0, 70.0, 1.1),
        ];
        let (map, graph) = setup(&reqs);
        let vehicle = Vehicle::new(0, 0, 6);
        let groups: Vec<CandidateGroup> = vec![
            CandidateGroup {
                members: vec![1, 2, 3],
                schedule: Schedule::new(),
                travel_cost: 0.0,
                added_cost: 0.0,
                members_direct_cost: 150.0,
            },
            CandidateGroup {
                members: vec![1, 4],
                schedule: Schedule::new(),
                travel_cost: 0.0,
                added_cost: 0.0,
                members_direct_cost: 140.0,
            },
        ];
        let study = ordering_study(
            &ctx(&engine),
            &vehicle,
            &groups,
            &map,
            &graph,
            InsertionOrdering::ShareabilityOrder,
        );
        assert!(study.feasible_groups <= groups.len());
        assert!(study.optimal_hits <= study.linear_feasible);
        assert!(study.linear_feasible <= study.feasible_groups);
        assert!((0.0..=1.0).contains(&study.optimality_rate()));
        // The {r1, r2, r3} group is feasible and linear insertion nails it.
        assert!(study.feasible_groups >= 1);
        assert!(study.optimal_hits >= 1);
    }

    #[test]
    fn missing_requests_make_linear_cost_infinite() {
        let engine = line_engine();
        let (map, graph) = setup(&[]);
        let vehicle = Vehicle::new(0, 0, 4);
        let cost = linear_schedule_cost(
            &ctx(&engine),
            &vehicle,
            &[99],
            &map,
            &graph,
            InsertionOrdering::ReleaseOrder,
        );
        assert!(cost.is_infinite());
    }
}
