//! Request grouping — the modified additive tree of Algorithm 2.
//!
//! Given the set of requests proposed to one vehicle, the grouping algorithm
//! enumerates the feasible request groups level by level: level 1 holds the
//! singletons, and a level-`l` group is formed by merging two level-`l−1`
//! groups whose union (a) has exactly `l` members, (b) is a clique in the
//! shareability graph (Observation 2 / Lemma IV.1) and (c) still admits a
//! feasible schedule.  Unlike the original additive tree (GAS), only **one**
//! schedule is kept per node: the new member — chosen as the *maximum-degree*
//! request of the group, so that low-shareability requests anchor the
//! sub-schedule first — is inserted into its parent group's schedule with the
//! linear-insertion operator.

use crate::context::DispatchContext;
use std::collections::HashMap;
use structride_model::insertion::insert_into;
use structride_model::{Request, RequestId, Schedule, Vehicle};
use structride_sharegraph::clique::is_clique;
use structride_sharegraph::ShareabilityGraph;

/// One node of the grouping tree: a feasible group of requests for a specific
/// vehicle, together with the single schedule maintained for it.
#[derive(Debug, Clone)]
pub struct CandidateGroup {
    /// Sorted member request ids.
    pub members: Vec<RequestId>,
    /// The vehicle's prospective schedule serving its existing commitments
    /// plus this group.
    pub schedule: Schedule,
    /// Total travel cost of [`CandidateGroup::schedule`] from the vehicle's
    /// current state.
    pub travel_cost: f64,
    /// Increase over the vehicle's current planned cost.
    pub added_cost: f64,
    /// Summed direct (solo) cost of the member requests — the denominator of
    /// the sharing ratio tie-breaker.
    pub members_direct_cost: f64,
}

impl CandidateGroup {
    /// Sharing ratio `cost(P) / Σ_r cost(r)` used as the tie-breaker in SARD's
    /// acceptance phase (Example 4): smaller means the schedule serves its
    /// members with less overhead.
    pub fn sharing_ratio(&self) -> f64 {
        structride_sharegraph::loss::sharing_ratio(self.travel_cost, self.members_direct_cost)
    }
}

/// Enumerates all feasible request groups for `vehicle` from the proposal
/// `pool`, following Algorithm 2.
///
/// * `graph` — the current shareability graph (clique pruning + degrees);
/// * `requests` — lookup table for the pooled request ids;
/// * `max_group_size` — the level cap `c` (the paper uses the vehicle seat
///   capacity; rider counts are additionally enforced by the feasibility
///   checks).
///
/// The result contains every level (singletons included), each with exactly
/// one maintained schedule.
///
/// Takes the batch's [`DispatchContext`] (for the engine and the scratch
/// counters); the function itself is read-only apart from the atomic counters,
/// so SARD calls it from parallel per-vehicle workers.
pub fn enumerate_groups(
    ctx: &DispatchContext<'_>,
    graph: &ShareabilityGraph,
    requests: &HashMap<RequestId, Request>,
    pool: &[RequestId],
    vehicle: &Vehicle,
    max_group_size: usize,
) -> Vec<CandidateGroup> {
    let engine = ctx.engine;
    let base_cost = vehicle.planned_cost(engine);
    if !base_cost.is_finite() {
        return Vec::new();
    }
    let mut all: Vec<CandidateGroup> = Vec::new();

    // --- level 1: singletons (Algorithm 2, lines 2–3, with the vehicle's
    //     current schedule as the starting point per Algorithm 3 line 12). ---
    let mut current: Vec<CandidateGroup> = Vec::new();
    let mut pool_sorted: Vec<RequestId> = pool.to_vec();
    pool_sorted.sort_unstable();
    pool_sorted.dedup();
    for &id in &pool_sorted {
        let Some(request) = requests.get(&id) else {
            continue;
        };
        let Some(out) = structride_model::insertion::insert_request(engine, vehicle, request)
        else {
            continue;
        };
        current.push(CandidateGroup {
            members: vec![id],
            schedule: out.schedule,
            travel_cost: out.new_travel_cost,
            added_cost: out.added_cost,
            members_direct_cost: request.direct_cost(),
        });
    }
    all.extend(current.iter().cloned());

    // --- levels 2..=c (Algorithm 2, lines 4–11). ---
    let cap = max_group_size.max(1);
    for level in 2..=cap {
        if current.len() < 2 {
            break;
        }
        // Index of the previous level by member set for parent lookups.
        let parent_index: HashMap<Vec<RequestId>, usize> = current
            .iter()
            .enumerate()
            .map(|(i, g)| (g.members.clone(), i))
            .collect();
        let mut next: Vec<CandidateGroup> = Vec::new();
        let mut seen: HashMap<Vec<RequestId>, ()> = HashMap::new();

        for i in 0..current.len() {
            for j in (i + 1)..current.len() {
                let mut union: Vec<RequestId> = current[i]
                    .members
                    .iter()
                    .chain(current[j].members.iter())
                    .copied()
                    .collect();
                union.sort_unstable();
                union.dedup();
                if union.len() != level {
                    continue;
                }
                if seen.contains_key(&union) {
                    continue;
                }
                seen.insert(union.clone(), ());
                // Lemma IV.1(b): the group must be a clique.
                if !is_clique(graph, &union) {
                    continue;
                }
                // Pick the maximum-shareability member as the one inserted last
                // (line 8); ties broken by id for determinism.
                let &insert_last = union
                    .iter()
                    .max_by_key(|&&id| (graph.degree(id), std::cmp::Reverse(id)))
                    .expect("non-empty group");
                let mut parent_members: Vec<RequestId> = union
                    .iter()
                    .copied()
                    .filter(|&m| m != insert_last)
                    .collect();
                parent_members.sort_unstable();
                // Lemma IV.1(a): the parent group must itself be valid; if the
                // previous level does not contain it, the group is pruned.
                let Some(&parent_idx) = parent_index.get(&parent_members) else {
                    continue;
                };
                let Some(request) = requests.get(&insert_last) else {
                    continue;
                };
                let parent = &current[parent_idx];
                let Some(out) = insert_into(
                    engine,
                    vehicle.node,
                    vehicle.free_at,
                    vehicle.onboard,
                    vehicle.capacity,
                    &parent.schedule,
                    request,
                ) else {
                    continue;
                };
                next.push(CandidateGroup {
                    members: union,
                    schedule: out.schedule,
                    travel_cost: out.new_travel_cost,
                    added_cost: out.new_travel_cost - base_cost,
                    members_direct_cost: parent.members_direct_cost + request.direct_cost(),
                });
            }
        }
        all.extend(next.iter().cloned());
        current = next;
    }
    ctx.scratch.count_groups(all.len() as u64);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StructRideConfig;
    use proptest::prelude::*;
    use structride_roadnet::{Point, RoadNetworkBuilder, SpEngine};

    fn ctx(engine: &SpEngine) -> DispatchContext<'_> {
        DispatchContext::new(engine, StructRideConfig::default(), 0.0)
    }
    use structride_sharegraph::{pairwise_shareable, ShareabilityGraph};

    fn line_engine() -> SpEngine {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..6 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 1..6u32 {
            b.add_bidirectional(i - 1, i, 10.0).unwrap();
        }
        SpEngine::new(b.build().unwrap())
    }

    fn req(id: u32, s: u32, e: u32, cost: f64, gamma: f64) -> Request {
        Request::with_detour(id, s, e, 1, 0.0, cost, gamma, 300.0)
    }

    fn build_graph(engine: &SpEngine, reqs: &[Request]) -> ShareabilityGraph {
        let mut g = ShareabilityGraph::new();
        for r in reqs {
            g.add_node(r.id);
        }
        for i in 0..reqs.len() {
            for j in (i + 1)..reqs.len() {
                if pairwise_shareable(engine, &reqs[i], &reqs[j], 4) {
                    g.add_edge(reqs[i].id, reqs[j].id);
                }
            }
        }
        g
    }

    fn request_map(reqs: &[Request]) -> HashMap<RequestId, Request> {
        reqs.iter().map(|r| (r.id, r.clone())).collect()
    }

    #[test]
    fn singletons_always_enumerated_when_feasible() {
        let engine = line_engine();
        let reqs = vec![req(1, 0, 4, 40.0, 1.8), req(2, 1, 3, 20.0, 1.8)];
        let graph = build_graph(&engine, &reqs);
        let vehicle = Vehicle::new(0, 0, 4);
        let groups = enumerate_groups(
            &ctx(&engine),
            &graph,
            &request_map(&reqs),
            &[1, 2],
            &vehicle,
            4,
        );
        let singles: Vec<_> = groups.iter().filter(|g| g.members.len() == 1).collect();
        assert_eq!(singles.len(), 2);
        let pairs: Vec<_> = groups.iter().filter(|g| g.members.len() == 2).collect();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].members, vec![1, 2]);
        assert!(pairs[0].schedule.is_well_formed());
        // Sharing the line trip costs no more than serving r1 alone + deadhead.
        assert!(pairs[0].travel_cost <= 40.0 + 1e-9);
    }

    #[test]
    fn non_clique_groups_are_pruned() {
        let engine = line_engine();
        // r1 and r3 are not shareable (opposite directions, tight deadlines),
        // so no group may contain both even though each pairs with r2.
        let reqs = vec![
            req(1, 0, 4, 40.0, 1.5),
            req(2, 1, 3, 20.0, 2.5),
            req(3, 4, 2, 20.0, 1.1),
        ];
        let graph = build_graph(&engine, &reqs);
        assert!(!graph.has_edge(1, 3));
        let vehicle = Vehicle::new(0, 0, 4);
        let groups = enumerate_groups(
            &ctx(&engine),
            &graph,
            &request_map(&reqs),
            &[1, 2, 3],
            &vehicle,
            4,
        );
        assert!(groups
            .iter()
            .all(|g| !(g.members.contains(&1) && g.members.contains(&3))));
    }

    #[test]
    fn group_size_capped_by_max_group_size() {
        let engine = line_engine();
        let reqs = vec![
            req(1, 0, 5, 50.0, 2.0),
            req(2, 1, 4, 30.0, 2.0),
            req(3, 2, 5, 30.0, 2.5),
        ];
        let graph = build_graph(&engine, &reqs);
        let vehicle = Vehicle::new(0, 0, 6);
        let groups = enumerate_groups(
            &ctx(&engine),
            &graph,
            &request_map(&reqs),
            &[1, 2, 3],
            &vehicle,
            2,
        );
        assert!(groups.iter().all(|g| g.members.len() <= 2));
    }

    #[test]
    fn groups_respect_vehicle_capacity_through_feasibility() {
        let engine = line_engine();
        let reqs = vec![
            Request::with_detour(1, 0, 5, 2, 0.0, 50.0, 2.0, 300.0),
            Request::with_detour(2, 1, 4, 2, 0.0, 30.0, 2.0, 300.0),
        ];
        let graph = {
            let mut g = ShareabilityGraph::new();
            g.add_edge(1, 2);
            g
        };
        // Capacity 3 cannot hold the overlapping 2+2 riders.
        let vehicle = Vehicle::new(0, 0, 3);
        let groups = enumerate_groups(
            &ctx(&engine),
            &graph,
            &request_map(&reqs),
            &[1, 2],
            &vehicle,
            4,
        );
        assert!(groups.iter().all(|g| g.members.len() == 1));
    }

    #[test]
    fn added_cost_accounts_for_existing_schedule() {
        let engine = line_engine();
        let existing = req(10, 0, 2, 20.0, 2.0);
        let mut vehicle = Vehicle::new(0, 0, 4);
        vehicle.commit_schedule(Schedule::direct(&existing));
        let newcomer = req(1, 2, 4, 20.0, 2.0);
        let graph = {
            let mut g = ShareabilityGraph::new();
            g.add_node(1);
            g
        };
        let groups = enumerate_groups(
            &ctx(&engine),
            &graph,
            &request_map(&[newcomer]),
            &[1],
            &vehicle,
            4,
        );
        assert_eq!(groups.len(), 1);
        // Appending the new trip adds exactly its own 20 s.
        assert!((groups[0].added_cost - 20.0).abs() < 1e-9);
        assert!(groups[0].schedule.contains_request(10));
        assert!(groups[0].schedule.contains_request(1));
    }

    #[test]
    fn empty_pool_or_unknown_ids_yield_no_groups() {
        let engine = line_engine();
        let graph = ShareabilityGraph::new();
        let vehicle = Vehicle::new(0, 0, 4);
        let groups = enumerate_groups(&ctx(&engine), &graph, &HashMap::new(), &[], &vehicle, 4);
        assert!(groups.is_empty());
        let groups = enumerate_groups(&ctx(&engine), &graph, &HashMap::new(), &[7, 8], &vehicle, 4);
        assert!(groups.is_empty());
    }

    #[test]
    fn sharing_ratio_reflects_efficiency() {
        let engine = line_engine();
        let reqs = vec![req(1, 0, 4, 40.0, 1.8), req(2, 1, 3, 20.0, 1.8)];
        let graph = build_graph(&engine, &reqs);
        let vehicle = Vehicle::new(0, 0, 4);
        let groups = enumerate_groups(
            &ctx(&engine),
            &graph,
            &request_map(&reqs),
            &[1, 2],
            &vehicle,
            4,
        );
        let pair = groups.iter().find(|g| g.members.len() == 2).unwrap();
        // Serving both for ~40 s of driving vs. 60 s of direct cost.
        assert!(pair.sharing_ratio() < 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// Groups only grow from feasible singletons: every member of every
        /// enumerated group is itself an enumerated singleton.  SARD rests
        /// on it — a vehicle offered its accepted group's members again
        /// always finds a group.  The draws cover loose and tight deadlines,
        /// small and large seat counts, and vehicles already serving a
        /// request.
        #[test]
        fn every_group_member_is_an_enumerated_singleton(
            seed in 0u64..1_000_000,
            len in 1usize..9,
        ) {
            let engine = line_engine();
            let mut gen = proptest::Gen::new(seed);
            let mut draw = |id: RequestId| {
                let s = gen.usize_in(0, 6) as u32;
                let e = (s + gen.usize_in(1, 6) as u32) % 6;
                req(id, s, e, engine.cost(s, e), 1.1 + gen.next_f64() * 1.4)
            };
            let reqs: Vec<Request> = (1..=len as RequestId).map(&mut draw).collect();
            let carried = draw(100);
            let capacity = gen.usize_in(1, 5) as u32;
            let mut vehicle = Vehicle::new(0, gen.usize_in(0, 6) as u32, capacity);
            if gen.next_f64() < 0.5 {
                vehicle.commit_schedule(Schedule::direct(&carried));
            }
            let pool: Vec<RequestId> = reqs.iter().map(|r| r.id).collect();
            let groups = enumerate_groups(
                &ctx(&engine),
                &build_graph(&engine, &reqs),
                &request_map(&reqs),
                &pool,
                &vehicle,
                capacity as usize,
            );
            let singles: Vec<RequestId> = groups
                .iter()
                .filter(|g| g.members.len() == 1)
                .map(|g| g.members[0])
                .collect();
            for g in &groups {
                for m in &g.members {
                    prop_assert!(singles.contains(m), "{:?} has no singleton {m}", g.members);
                }
            }
        }
    }
}
