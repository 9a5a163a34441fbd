//! City profiles standing in for the paper's three datasets.
//!
//! Absolute numbers are scaled down to laptop size, but the *relative*
//! characteristics that drive the paper's findings are preserved:
//!
//! * **NYC-like** — compact road network (roughly half the nodes of the
//!   Chengdu-like one), concentrated demand hotspots and roughly twice the
//!   request rate per unit time, which is why combination-enumerating methods
//!   (GAS, SARD) shine there;
//! * **Chengdu-like** — larger, sparser network with more dispersed demand;
//! * **Cainiao-like** — delivery workload: dispersed origins/destinations and
//!   much looser deadlines (γ defaults of 1.8–2.2 in Table IV).

use crate::network::NetworkParams;
use crate::requests::RequestGenParams;

/// Which synthetic city to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CityProfile {
    /// Didi Chengdu-like taxi workload.
    ChengduLike,
    /// NYC TLC-like taxi workload (denser network, higher request rate).
    NycLike,
    /// Cainiao-like delivery workload (dispersed, loose deadlines).
    CainiaoLike,
}

impl CityProfile {
    /// Short name used in experiment output tables.
    pub fn name(&self) -> &'static str {
        match self {
            CityProfile::ChengduLike => "CHD",
            CityProfile::NycLike => "NYC",
            CityProfile::CainiaoLike => "Cainiao",
        }
    }

    /// Road-network parameters for this city at the given scale factor
    /// (`1.0` = the default laptop-scale size).
    pub fn network_params(&self, scale: f64, seed: u64) -> NetworkParams {
        let scale = scale.max(0.1).sqrt();
        match self {
            CityProfile::ChengduLike => NetworkParams {
                rows: ((30.0 * scale) as u32).max(6),
                cols: ((30.0 * scale) as u32).max(6),
                spacing_m: 300.0,
                base_speed_mps: 10.0,
                speed_jitter: 0.25,
                arterial_every: 6,
                arterial_speedup: 1.6,
                seed,
            },
            CityProfile::NycLike => NetworkParams {
                rows: ((21.0 * scale) as u32).max(6),
                cols: ((21.0 * scale) as u32).max(6),
                spacing_m: 220.0,
                base_speed_mps: 7.0,
                speed_jitter: 0.2,
                arterial_every: 5,
                arterial_speedup: 1.8,
                seed: seed.wrapping_add(1),
            },
            CityProfile::CainiaoLike => NetworkParams {
                rows: ((26.0 * scale) as u32).max(6),
                cols: ((26.0 * scale) as u32).max(6),
                spacing_m: 280.0,
                base_speed_mps: 9.0,
                speed_jitter: 0.3,
                arterial_every: 7,
                arterial_speedup: 1.5,
                seed: seed.wrapping_add(2),
            },
        }
    }

    /// Request-generation parameters for this city.
    pub fn request_params(&self, seed: u64) -> RequestGenParams {
        match self {
            CityProfile::ChengduLike => RequestGenParams {
                hotspots: 5,
                hotspot_concentration: 0.6,
                hotspot_radius_frac: 0.12,
                trip_log_mean: 7.0, // exp(7.0) ≈ 1.1 km typical trip
                trip_log_sigma: 0.55,
                riders_multi_prob: 0.15,
                gamma: 1.5,
                max_wait: 300.0,
                seed,
            },
            CityProfile::NycLike => RequestGenParams {
                hotspots: 3,
                hotspot_concentration: 0.8,
                hotspot_radius_frac: 0.10,
                trip_log_mean: 6.8,
                trip_log_sigma: 0.5,
                riders_multi_prob: 0.2,
                gamma: 1.5,
                max_wait: 300.0,
                seed: seed.wrapping_add(11),
            },
            CityProfile::CainiaoLike => RequestGenParams {
                hotspots: 8,
                hotspot_concentration: 0.3,
                hotspot_radius_frac: 0.2,
                trip_log_mean: 7.2,
                trip_log_sigma: 0.6,
                riders_multi_prob: 0.0,
                gamma: 2.0,
                max_wait: 600.0,
                seed: seed.wrapping_add(22),
            },
        }
    }

    /// Default deadline parameter γ (Table III / Table IV defaults).
    pub fn default_gamma(&self) -> f64 {
        match self {
            CityProfile::CainiaoLike => 2.0,
            _ => 1.5,
        }
    }

    /// All three profiles.
    pub fn all() -> [CityProfile; 3] {
        [
            CityProfile::ChengduLike,
            CityProfile::NycLike,
            CityProfile::CainiaoLike,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nyc_is_more_compact_than_chengdu() {
        let chd = CityProfile::ChengduLike.network_params(1.0, 1);
        let nyc = CityProfile::NycLike.network_params(1.0, 1);
        assert!(nyc.node_count() < chd.node_count());
        assert!(nyc.spacing_m < chd.spacing_m);
    }

    #[test]
    fn cainiao_has_loose_deadlines_and_dispersed_demand() {
        let cai = CityProfile::CainiaoLike.request_params(1);
        let nyc = CityProfile::NycLike.request_params(1);
        assert!(cai.gamma > nyc.gamma);
        assert!(cai.hotspot_concentration < nyc.hotspot_concentration);
        assert_eq!(CityProfile::CainiaoLike.default_gamma(), 2.0);
    }

    #[test]
    fn scale_shrinks_networks() {
        let full = CityProfile::ChengduLike.network_params(1.0, 1);
        let small = CityProfile::ChengduLike.network_params(0.25, 1);
        assert!(small.node_count() < full.node_count());
        assert!(small.node_count() >= 36);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(CityProfile::ChengduLike.name(), "CHD");
        assert_eq!(CityProfile::NycLike.name(), "NYC");
        assert_eq!(CityProfile::CainiaoLike.name(), "Cainiao");
        assert_eq!(CityProfile::all().len(), 3);
    }
}
