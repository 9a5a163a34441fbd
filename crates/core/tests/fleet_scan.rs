//! The fleet index's fused screen against its two-step definition.
//!
//! `FleetIndex::screened_candidates` applies the landmark bound to the
//! euclid survivors of the dense scan, reusing the scan's distance.  It must
//! keep exactly the vehicles that the euclid certificate followed by
//! `LegBound::lower_bound` keeps, on every engine shape the shareability
//! screen is tested on: static, rush-rolled, fast-lane zoned (`min_ratio`
//! 0.5), clipped and clipped-rush.

#[path = "../../sharegraph/tests/support/engines.rs"]
mod engines;

use proptest::prelude::*;
use structride_core::{FleetIndex, REACH_GRACE};
use structride_model::Vehicle;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn the_fused_screen_equals_euclid_then_the_leg_bound(seed in 0u64..1_000_000) {
        // Survivors of the euclid pass that the landmark bound removes.
        let mut landmark_rejections = 0;
        for engine in engines::engines(seed) {
            let network = engine.network();
            let nodes = network.node_count();
            let mut gen = proptest::Gen::new(seed ^ 0x5EED);
            // Half the fleet on the first four nodes (node 0 has a twin on
            // its coordinate), some never free.
            let fleet: Vec<Vehicle> = (0..30)
                .map(|i| {
                    let range = if gen.next_f64() < 0.5 { 4 } else { nodes };
                    let mut v = Vehicle::new(i, gen.usize_in(0, range) as u32, 4);
                    v.free_at = if gen.next_f64() < 0.1 {
                        f64::INFINITY
                    } else {
                        gen.next_f64() * 200.0
                    };
                    v
                })
                .collect();
            let mut index = FleetIndex::build(Default::default(), 0, network, &fleet);
            // A zero index rate keeps every vehicle free in time, so the
            // fused bound's euclid term has work to do as well.
            let rate = if gen.next_f64() < 0.5 { engine.min_time_per_meter() } else { 0.0 };
            index.set_min_time_per_meter(rate);
            let bound = engine.leg_bound();
            for pickup in 0..nodes as u32 {
                let deadline = gen.next_f64() * 300.0;
                let p = network.coord(pickup);
                let euclid = index.certified_candidates(network, &fleet, p.x, p.y, deadline);
                let want: Vec<usize> = euclid
                    .iter()
                    .copied()
                    .filter(|&slot| {
                        let v = &fleet[slot];
                        v.free_at + bound.lower_bound(v.node, pickup) <= deadline + REACH_GRACE
                    })
                    .collect();
                let got = index.screened_candidates(network, &fleet, &bound, pickup, deadline);
                prop_assert_eq!(&got, &want, "pickup {} deadline {}", pickup, deadline);
                landmark_rejections += euclid.len() - got.len();
            }
        }
        prop_assert!(landmark_rejections > 0, "the landmark screen never fired");
    }
}
