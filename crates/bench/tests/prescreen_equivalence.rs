//! With-vs-without equivalence of the scoring path for the baselines that
//! score through it (SARD's own equivalence is pinned in `structride-core`'s
//! sharding tests): driving the same dispatcher over the same batches once
//! with a bare context, which scans the whole fleet, and once with a
//! `FleetIndex` and a `ScoreMemo` attached to the `DispatchContext`, as a
//! lane attaches them, must produce bit-identical assignments and fleets,
//! while the prescreen actually skips provably-unreachable vehicles on a
//! multi-city map.

use structride_baselines::{DemandRepositioning, Gas, PruneGdp, TicketAssignPlus};
use structride_core::{DispatchContext, Dispatcher, FleetIndex, ScoreMemo, StructRideConfig};
use structride_datagen::{CityProfile, MultiRegionParams, MultiRegionWorkload};

fn workload() -> MultiRegionWorkload {
    MultiRegionWorkload::generate(MultiRegionParams {
        requests_per_region: 60,
        vehicles_per_region: 8,
        horizon: 200.0,
        scale: 0.3,
        ..MultiRegionParams::small(vec![
            CityProfile::ChengduLike,
            CityProfile::NycLike,
            CityProfile::CainiaoLike,
        ])
    })
}

fn assert_prescreen_equivalent(name: &str, mut factory: impl FnMut() -> Box<dyn Dispatcher>) {
    let w = workload();
    let config = StructRideConfig::default();
    let engine = &w.engine;
    let bbox = structride_spatial::RegionGrid::padded_bbox(engine.network().bounding_box());

    let mut plain = factory();
    let mut indexed = factory();
    let mut fleet_plain = w.fresh_vehicles();
    let mut fleet_indexed = w.fresh_vehicles();
    let mut memo = ScoreMemo::new();
    let mut pruned = 0u64;
    for (bi, chunk) in w.requests.chunks(12).enumerate() {
        let ctx_plain = DispatchContext::for_batch(engine, config, 0.0, bi);
        let out_plain = plain.dispatch_batch(&ctx_plain, &mut fleet_plain, chunk);

        let index = FleetIndex::build(bbox, config.grid_cells, engine.network(), &fleet_indexed);
        let ctx_indexed = DispatchContext::for_batch(engine, config, 0.0, bi)
            .with_fleet_index(&index)
            .with_score_memo(&memo);
        let out_indexed = indexed.dispatch_batch(&ctx_indexed, &mut fleet_indexed, chunk);

        assert_eq!(
            out_plain.assigned, out_indexed.assigned,
            "{name}: batch {bi} assignments"
        );
        pruned += ctx_indexed.scratch.snapshot().prescreen_pruned;
        memo.evict_unseen();
    }
    assert!(
        pruned > 0,
        "{name}: a multi-city fleet must have provably unreachable candidates"
    );
    assert_eq!(fleet_plain.len(), fleet_indexed.len());
    for (a, b) in fleet_plain.iter().zip(&fleet_indexed) {
        assert_eq!(a.id, b.id, "{name}");
        assert_eq!(a.node, b.node, "{name}");
        assert_eq!(a.free_at.to_bits(), b.free_at.to_bits(), "{name}");
        assert_eq!(
            a.planned_cost(engine).to_bits(),
            b.planned_cost(engine).to_bits(),
            "{name}"
        );
    }
}

#[test]
fn prunegdp_with_fleet_index_matches_the_full_scan_bit_for_bit() {
    assert_prescreen_equivalent("pruneGDP", || Box::new(PruneGdp::new()));
}

#[test]
fn gas_with_fleet_index_matches_the_full_scan_bit_for_bit() {
    assert_prescreen_equivalent("GAS", || Box::new(Gas::default()));
}

#[test]
fn darm_with_fleet_index_matches_the_full_scan_bit_for_bit() {
    assert_prescreen_equivalent("DARM", || Box::new(DemandRepositioning::new()));
}

#[test]
fn ticket_with_fleet_index_matches_the_full_scan_bit_for_bit() {
    assert_prescreen_equivalent("TicketAssign+", || Box::new(TicketAssignPlus::default()));
}
