//! Multi-region workloads: several city profiles composed into one stream.
//!
//! A [`MultiRegionWorkload`] lays `k` city-profile demand patterns side by
//! side as vertical strips of one shared road network and generates each
//! region's requests and fleet **independently**, from a per-region RNG seed
//! derived with [`derive_region_seed`] (a SplitMix64 mix of the master seed
//! and the region index).  Because every region's stream depends only on
//! `(network, region bounds, derived seed)`:
//!
//! * the merged stream is deterministic for a fixed parameter set,
//! * region `i`'s requests are bit-identical no matter which other regions
//!   are populated around it, and
//! * the stream is identical **regardless of the shard count** the sharded
//!   simulator later runs with — sharding is a consumer-side choice, never a
//!   generation input (the regression tests below pin both properties).
//!
//! Origins are confined to each region; destinations are unconstrained, so a
//! slice of trips naturally crosses region borders — the cross-shard handoff
//! traffic the `core::shard` pipeline exists for.

use crate::city::CityProfile;
use crate::network::synthetic_city_network;
use crate::requests::generate_requests_in;
use crate::vehicles::{generate_vehicles_in, FleetParams};
use structride_model::{Request, Vehicle};
use structride_roadnet::{RoadNetwork, SpEngine, SpEngineBuilder};
use structride_spatial::RegionGrid;

/// Derives the RNG seed of region `region` from the master seed — SplitMix64
/// finalization over the combined value, so adjacent indices land far apart
/// and no region shares the master stream.
pub fn derive_region_seed(master: u64, region: u64) -> u64 {
    let mut z = master
        .wrapping_add(region.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Parameters of a multi-region workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiRegionParams {
    /// One city profile per region, laid out as vertical strips west→east.
    pub cities: Vec<CityProfile>,
    /// Requests generated per region.
    pub requests_per_region: usize,
    /// Vehicles generated per region.
    pub vehicles_per_region: usize,
    /// Uniform vehicle seat capacity.
    pub capacity: u32,
    /// Release horizon in seconds (shared by all regions).
    pub horizon: f64,
    /// Road-network scale factor (per region strip).
    pub scale: f64,
    /// Master RNG seed; per-region seeds derive via [`derive_region_seed`].
    pub seed: u64,
}

impl MultiRegionParams {
    /// A small default multi-region workload (examples/tests/CI smoke).
    pub fn small(cities: Vec<CityProfile>) -> Self {
        MultiRegionParams {
            cities,
            requests_per_region: 120,
            vehicles_per_region: 15,
            capacity: 4,
            horizon: 300.0,
            scale: 0.35,
            seed: 42,
        }
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.cities.len()
    }
}

/// A fully materialised multi-region workload: one network + engine, the
/// strip region layout, and the merged request stream / fleet.
pub struct MultiRegionWorkload {
    /// Human-readable name (city list + key parameters).
    pub name: String,
    /// Generation parameters.
    pub params: MultiRegionParams,
    /// Shortest-path engine over the whole (all-regions) road network.
    pub engine: SpEngine,
    /// The strip region layout (region `i` ↔ `params.cities[i]`).
    pub regions: RegionGrid,
    /// All regions' requests merged, ordered by `(release, id)`.
    pub requests: Vec<Request>,
    /// All regions' vehicles, ordered by id (region-major).
    pub vehicles: Vec<Vehicle>,
}

impl MultiRegionWorkload {
    /// Generates the workload described by `params`.
    ///
    /// # Panics
    /// Panics if `params.cities` is empty.
    pub fn generate(params: MultiRegionParams) -> Self {
        let k = params.regions() as u32;
        assert!(k > 0, "multi-region workload needs at least one region");
        // One shared road network spanning all regions: the first city's
        // per-strip layout, widened k-fold along the x axis.
        let mut net_params = params.cities[0].network_params(params.scale, params.seed);
        net_params.cols *= k;
        let network = synthetic_city_network(&net_params);
        let regions = strip_regions(&network, k);
        let engine = SpEngineBuilder::new().build(network);

        let mut requests = Vec::with_capacity(params.requests_per_region * k as usize);
        let mut vehicles = Vec::with_capacity(params.vehicles_per_region * k as usize);
        for (i, city) in params.cities.iter().enumerate() {
            let seed = derive_region_seed(params.seed, i as u64);
            let bounds = regions.bounds(i as u32);
            let req_params = city.request_params(seed);
            requests.extend(generate_requests_in(
                &engine,
                &req_params,
                params.requests_per_region,
                params.horizon,
                (i * params.requests_per_region) as u32,
                Some(bounds),
            ));
            let fleet_params = FleetParams {
                count: params.vehicles_per_region,
                capacity_mean: params.capacity,
                capacity_sigma: 0.0,
                seed: seed.wrapping_add(101),
            };
            vehicles.extend(generate_vehicles_in(
                &engine,
                &fleet_params,
                Some(bounds),
                (i * params.vehicles_per_region) as u32,
            ));
        }
        // Merge the per-region streams into one release-ordered stream; ties
        // break on id so the merged order is fully deterministic.
        requests.sort_by(|a, b| {
            a.release
                .partial_cmp(&b.release)
                .expect("finite release times")
                .then(a.id.cmp(&b.id))
        });

        let city_names: Vec<&str> = params.cities.iter().map(|c| c.name()).collect();
        let name = format!(
            "multi[{}]-R{}x{}-W{}x{}",
            city_names.join("+"),
            params.requests_per_region,
            k,
            params.vehicles_per_region,
            k
        );
        MultiRegionWorkload {
            name,
            params,
            engine,
            regions,
            requests,
            vehicles,
        }
    }

    /// The shared road network (all regions).
    pub fn network(&self) -> &RoadNetwork {
        self.engine.network()
    }

    /// A fresh copy of the initial fleet.
    pub fn fresh_vehicles(&self) -> Vec<Vehicle> {
        self.vehicles.clone()
    }
}

/// Vertical strip regions over `network`'s bounding box — the same
/// constructor (`RegionGrid::strips_covering`) the sharded simulator's
/// `region_strips_for` uses, so generated regions and simulator shards
/// always line up.
fn strip_regions(network: &RoadNetwork, k: u32) -> RegionGrid {
    RegionGrid::strips_covering(network.bounding_box(), k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_cities() -> Vec<CityProfile> {
        vec![
            CityProfile::ChengduLike,
            CityProfile::NycLike,
            CityProfile::CainiaoLike,
        ]
    }

    #[test]
    fn generates_one_stream_across_all_regions() {
        let w = MultiRegionWorkload::generate(MultiRegionParams::small(three_cities()));
        assert_eq!(w.regions.len(), 3);
        assert!(w.requests.len() >= 3 * 110, "got {}", w.requests.len());
        assert_eq!(w.vehicles.len(), 45);
        assert!(w.name.contains("CHD+NYC+Cainiao"));
        // Release-ordered merged stream with unique ids.
        for pair in w.requests.windows(2) {
            assert!(pair[0].release <= pair[1].release);
        }
        let mut ids: Vec<u32> = w.requests.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), w.requests.len());
        // Vehicles are id-ordered and start inside their own region.
        for pair in w.vehicles.windows(2) {
            assert!(pair[0].id < pair[1].id);
        }
        for (i, v) in w.vehicles.iter().enumerate() {
            let region = (i / w.params.vehicles_per_region) as u32;
            let p = w.network().coord(v.node);
            assert_eq!(w.regions.region_of(p.x, p.y), region);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let params = MultiRegionParams::small(three_cities());
        let a = MultiRegionWorkload::generate(params.clone());
        let b = MultiRegionWorkload::generate(params);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.vehicles.len(), b.vehicles.len());
        assert_eq!(a.regions, b.regions);
    }

    /// The derived-seed regression: a region's stream is a pure function of
    /// `(engine, region bounds, derived seed)`.  Regenerating region 1's
    /// requests directly — with no other region generated — reproduces the
    /// workload's region-1 slice bit for bit, so the stream cannot depend on
    /// the number of populated regions or on any later sharding choice.
    #[test]
    fn region_streams_are_independent_of_other_regions() {
        let params = MultiRegionParams::small(three_cities());
        let w = MultiRegionWorkload::generate(params.clone());
        for region in [0usize, 1, 2] {
            let seed = derive_region_seed(params.seed, region as u64);
            let req_params = params.cities[region].request_params(seed);
            let standalone = generate_requests_in(
                &w.engine,
                &req_params,
                params.requests_per_region,
                params.horizon,
                (region * params.requests_per_region) as u32,
                Some(w.regions.bounds(region as u32)),
            );
            let lo = (region * params.requests_per_region) as u32;
            let hi = lo + params.requests_per_region as u32;
            let mut slice: Vec<Request> = w
                .requests
                .iter()
                .filter(|r| r.id >= lo && r.id < hi)
                .cloned()
                .collect();
            slice.sort_by_key(|r| r.id);
            let mut standalone_sorted = standalone;
            standalone_sorted.sort_by_key(|r| r.id);
            assert_eq!(slice, standalone_sorted, "region {region} drifted");
        }
    }

    #[test]
    fn derived_seeds_decorrelate_identical_profiles() {
        // Two regions with the *same* profile must not replay each other's
        // stream — the derived seeds differ.
        let params = MultiRegionParams::small(vec![CityProfile::NycLike, CityProfile::NycLike]);
        let w = MultiRegionWorkload::generate(params.clone());
        let n = params.requests_per_region as u32;
        let r0: Vec<(u32, u32)> = w
            .requests
            .iter()
            .filter(|r| r.id < n)
            .map(|r| (r.source, r.destination))
            .collect();
        let r1: Vec<(u32, u32)> = w
            .requests
            .iter()
            .filter(|r| r.id >= n)
            .map(|r| (r.source, r.destination))
            .collect();
        assert_ne!(r0, r1);
        assert_ne!(
            derive_region_seed(42, 0),
            derive_region_seed(42, 1),
            "seed derivation must separate regions"
        );
        assert_ne!(derive_region_seed(1, 0), derive_region_seed(2, 0));
    }

    #[test]
    fn single_region_multi_workload_is_valid() {
        let w = MultiRegionWorkload::generate(MultiRegionParams::small(vec![CityProfile::NycLike]));
        assert!(w.regions.is_single());
        assert!(!w.requests.is_empty());
        assert_eq!(w.vehicles.len(), 15);
    }
}
