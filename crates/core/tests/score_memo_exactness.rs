//! Exactness of the cross-batch score memo.
//!
//! `DispatchContext::scored_candidates` answers unchanged `(request,
//! vehicle)` pairs from a `ScoreMemo`.  The memo keys on the vehicle's exact
//! insertion inputs, so a warm memo must return what a memo-less context
//! computes — the candidate list bit for bit and all three scratch counters —
//! whatever happened to the fleet in between: movement along committed
//! schedules, commits, direct writes to a vehicle's public fields (DARM's
//! repositioning and checkpoint restore do that) and traffic-epoch rolls.

use proptest::prelude::*;
use std::collections::HashSet;
use structride_core::{DispatchContext, FleetIndex, ScoreMemo, ScratchStats, StructRideConfig};
use structride_datagen::{CityProfile, Workload, WorkloadParams};
use structride_model::{insertion, Request, RequestId, Schedule, Vehicle};
use structride_roadnet::{SpEngine, SpEngineBuilder, TrafficConfig, TrafficProfile};
use structride_spatial::RegionGrid;

const EPOCH_SECONDS: f64 = 40.0;

fn workload(seed: u64) -> Workload {
    Workload::generate(WorkloadParams {
        num_requests: 150,
        num_vehicles: 30,
        horizon: 300.0,
        scale: 0.3,
        // Loose deadlines, so busy vehicles stay candidates for more riders.
        gamma: 2.5,
        seed,
        ..WorkloadParams::small(CityProfile::NycLike)
    })
}

fn fleet_index(engine: &SpEngine, vehicles: &[Vehicle]) -> FleetIndex {
    let network = engine.network();
    let bbox = RegionGrid::padded_bbox(network.bounding_box());
    let mut index = FleetIndex::build(bbox, 8, network, vehicles);
    index.set_min_time_per_meter(engine.min_time_per_meter());
    index
}

/// One scoring of `request`, as bit patterns plus the scratch counters.
type Scored = (Vec<(u64, usize)>, ScratchStats);

fn score(
    ctx: DispatchContext<'_>,
    index: Option<&FleetIndex>,
    memo: Option<&ScoreMemo>,
    vehicles: &[Vehicle],
    request: &Request,
) -> Scored {
    let ctx = match index {
        Some(index) => ctx.with_fleet_index(index),
        None => ctx,
    };
    let ctx = match memo {
        Some(memo) => ctx.with_score_memo(memo),
        None => ctx,
    };
    let list = ctx.scored_candidates(vehicles, request, usize::MAX);
    let bits = list.iter().map(|&(c, vi)| (c.to_bits(), vi)).collect();
    (bits, ctx.scratch.snapshot())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// After every random step, scoring the open pool through the warm memo
    /// equals scoring it without one — with the certified prescreen and
    /// without it, sharing one memo.
    #[test]
    fn a_warm_memo_scores_exactly_like_no_memo(
        seed in 0u64..10_000,
        steps in proptest::collection::vec((0u32..5, 0u32..10_000), 12..24),
    ) {
        let w = workload(seed);
        let traffic = TrafficConfig {
            profile: TrafficProfile::Rush,
            epoch_seconds: EPOCH_SECONDS,
            hour_scale: 20.0,
            ..TrafficConfig::default()
        };
        let engine = SpEngineBuilder::new()
            .traffic(traffic)
            .build(w.engine.network().clone());
        let config = StructRideConfig::default().with_traffic(traffic);
        let mut vehicles = w.fresh_vehicles();
        let mut index = fleet_index(&engine, &vehicles);
        let mut memo = ScoreMemo::new();
        let mut assigned: HashSet<RequestId> = HashSet::new();
        // Start with a pool of released requests to commit from.
        let mut now = 60.0;
        let open = |now: f64, assigned: &HashSet<RequestId>| -> Vec<&Request> {
            w.requests
                .iter()
                .filter(|r| r.release <= now && !r.is_expired(now) && !assigned.contains(&r.id))
                .take(25)
                .collect()
        };
        for (batch, &(kind, arg)) in steps.iter().enumerate() {
            let pick = |n: usize| arg as usize % n;
            match kind {
                // Time passes: roll (a no-op within an epoch), then move the
                // fleet along its committed schedules.
                0 | 3 => {
                    now = if kind == 0 {
                        now + 5.0 + (arg % 20) as f64
                    } else {
                        ((now / EPOCH_SECONDS).floor() + 1.0) * EPOCH_SECONDS
                    };
                    if engine.roll_epoch_to(now) {
                        index.set_min_time_per_meter(engine.min_time_per_meter());
                    }
                    for v in &mut vehicles {
                        v.advance_to(&engine, now);
                    }
                }
                // Commit one open request to its cheapest candidate.
                1 => {
                    let open = open(now, &assigned);
                    if let Some(&request) = open.get(pick(open.len().max(1))) {
                        let ctx = DispatchContext::for_batch(&engine, config, now, batch);
                        let (list, _) = score(ctx, Some(&index), None, &vehicles, request);
                        if let Some(&(_, vi)) = list.first() {
                            let out = insertion::insert_request(&engine, &vehicles[vi], request)
                                .expect("a scored candidate admits the request");
                            vehicles[vi].commit_schedule(out.schedule);
                            assigned.insert(request.id);
                        }
                    }
                }
                // Reposition an idle vehicle by writing its fields directly.
                2 => {
                    let idle: Vec<usize> = (0..vehicles.len())
                        .filter(|&vi| vehicles[vi].is_idle())
                        .collect();
                    if !idle.is_empty() {
                        let v = &mut vehicles[idle[pick(idle.len())]];
                        let target = pick(engine.node_count()) as u32;
                        let cost = engine.cost(v.node, target);
                        if cost.is_finite() {
                            v.node = target;
                            v.free_at = v.free_at.max(now) + cost;
                        }
                    }
                }
                // A restore rewrites the fleet: every busy vehicle gets a
                // same-length schedule whose first stop is already late (an
                // epoch roll can make a committed stop late, too).
                4 => {
                    for v in &mut vehicles {
                        let eval = v.evaluate_current(&engine);
                        if !v.schedule.is_empty() && eval.feasible {
                            let mut stops = v.schedule.waypoints().to_vec();
                            stops[0].deadline = eval.service_times[0] - 1.0;
                            v.schedule = Schedule::from_waypoints(stops);
                        }
                    }
                }
                _ => {}
            }
            index.sync(engine.network(), &vehicles);
            let ctx = || DispatchContext::for_batch(&engine, config, now, batch);
            for request in open(now, &assigned) {
                for with_index in [Some(&index), None] {
                    let warm = score(ctx(), with_index, Some(&memo), &vehicles, request);
                    let cold = score(ctx(), with_index, None, &vehicles, request);
                    prop_assert_eq!(
                        &warm,
                        &cold,
                        "request {} after step {} (index: {})",
                        request.id,
                        batch,
                        with_index.is_some()
                    );
                }
            }
            memo.evict_unseen();
        }
        prop_assert!(memo.hits() > 0);
    }
}

/// A request no batch scores any more leaves the memo at the end of the
/// first batch that did not score it.
#[test]
fn eviction_drops_the_scores_of_a_request_not_scored_in_a_batch() {
    let w = workload(11);
    let vehicles = w.fresh_vehicles();
    let index = fleet_index(&w.engine, &vehicles);
    let config = StructRideConfig::default();
    let mut memo = ScoreMemo::new();
    let scored = |memo: &ScoreMemo, request: &Request| {
        let ctx = DispatchContext::for_batch(&w.engine, config, 0.0, 0);
        let before = (memo.lookups(), memo.hits());
        score(ctx, Some(&index), Some(memo), &vehicles, request);
        (memo.lookups() - before.0, memo.hits() - before.1)
    };
    // Two requests that some vehicle survives the prescreen for.
    let reachable: Vec<&Request> = w
        .requests
        .iter()
        .filter(|r| scored(&ScoreMemo::new(), r).0 > 0)
        .take(2)
        .collect();
    let [a, b] = reachable[..] else {
        panic!("the workload has two reachable requests");
    };

    scored(&memo, a);
    scored(&memo, b);
    memo.evict_unseen();
    // The next batch scores only `a`: its unchanged pairs hit.
    let (lookups, hits) = scored(&memo, a);
    assert_eq!(hits, lookups);
    memo.evict_unseen();
    // `b` went unscored for a batch, so every one of its pairs misses.
    let (lookups, hits) = scored(&memo, b);
    assert!(lookups > 0);
    assert_eq!(hits, 0);
}
