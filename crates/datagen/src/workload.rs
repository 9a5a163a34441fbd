//! Bundled workloads: road network + shortest-path engine + requests + fleet.
//!
//! A [`Workload`] is what every experiment consumes.  [`WorkloadParams`]
//! mirrors the experimental knobs of Table III / Table IV (number of requests
//! `|R|`, number of vehicles `|W|`, capacity `c`, deadline γ, capacity
//! variance σ) plus a `scale` factor that shrinks the road network and request
//! volume to laptop size while preserving the sweep structure.

use crate::city::CityProfile;
use crate::network::synthetic_city_network;
use crate::requests::{generate_requests, RequestGenParams};
use crate::vehicles::{generate_vehicles, FleetParams};
use structride_model::{Request, Vehicle};
use structride_roadnet::{SpEngine, SpEngineBuilder};

/// Parameters describing one generated workload instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadParams {
    /// Which city profile to imitate.
    pub city: CityProfile,
    /// Number of requests `|R|`.
    pub num_requests: usize,
    /// Number of vehicles `|W|`.
    pub num_vehicles: usize,
    /// Mean vehicle capacity `c`.
    pub capacity: u32,
    /// Capacity standard deviation σ (0 = uniform fleet).
    pub capacity_sigma: f64,
    /// Deadline parameter γ.
    pub gamma: f64,
    /// Simulated horizon in seconds over which requests are released.
    pub horizon: f64,
    /// Road-network scale factor (1.0 = default laptop-scale network).
    pub scale: f64,
    /// Master RNG seed.
    pub seed: u64,
}

impl WorkloadParams {
    /// A small default workload for the given city (used by examples/tests).
    pub fn small(city: CityProfile) -> Self {
        WorkloadParams {
            city,
            num_requests: 300,
            num_vehicles: 30,
            capacity: 4,
            capacity_sigma: 0.0,
            gamma: city.default_gamma(),
            horizon: 600.0,
            scale: 0.5,
            seed: 42,
        }
    }
}

/// A fully materialised workload instance.
pub struct Workload {
    /// Human-readable name (city + key parameters).
    pub name: String,
    /// Generation parameters.
    pub params: WorkloadParams,
    /// Shortest-path engine over the generated road network.
    pub engine: SpEngine,
    /// Requests ordered by release time.
    pub requests: Vec<Request>,
    /// The fleet in its initial state.
    pub vehicles: Vec<Vehicle>,
}

impl Workload {
    /// Generates the workload described by `params`.
    pub fn generate(params: WorkloadParams) -> Self {
        let net_params = params.city.network_params(params.scale, params.seed);
        let network = synthetic_city_network(&net_params);
        let engine = SpEngineBuilder::new().build(network);

        let mut req_params: RequestGenParams = params.city.request_params(params.seed);
        req_params.gamma = params.gamma;
        let requests =
            generate_requests(&engine, &req_params, params.num_requests, params.horizon, 0);

        let fleet_params = FleetParams {
            count: params.num_vehicles,
            capacity_mean: params.capacity,
            capacity_sigma: params.capacity_sigma,
            seed: params.seed.wrapping_add(101),
        };
        let vehicles = generate_vehicles(&engine, &fleet_params);

        let name = format!(
            "{}-R{}-W{}-c{}-g{:.1}",
            params.city.name(),
            params.num_requests,
            params.num_vehicles,
            params.capacity,
            params.gamma
        );
        Workload {
            name,
            params,
            engine,
            requests,
            vehicles,
        }
    }

    /// A fresh copy of the initial fleet (vehicles are consumed mutably by the
    /// dispatchers, so experiments clone per algorithm).
    pub fn fresh_vehicles(&self) -> Vec<Vehicle> {
        self.vehicles.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_consistent_workload() {
        let params = WorkloadParams {
            num_requests: 120,
            num_vehicles: 15,
            ..WorkloadParams::small(CityProfile::NycLike)
        };
        let w = Workload::generate(params);
        assert!(w.requests.len() >= 110);
        assert_eq!(w.vehicles.len(), 15);
        assert!(w.requests.iter().map(Request::direct_cost).sum::<f64>() > 0.0);
        assert!(w.name.contains("NYC"));
        // Requests reference valid nodes.
        for r in &w.requests {
            assert!((r.source as usize) < w.engine.node_count());
            assert!((r.destination as usize) < w.engine.node_count());
        }
        // Fresh vehicle copies are independent.
        let mut a = w.fresh_vehicles();
        a[0].onboard = 3;
        assert_eq!(w.vehicles[0].onboard, 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let params = WorkloadParams::small(CityProfile::ChengduLike);
        let a = Workload::generate(params);
        let b = Workload::generate(params);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.vehicles.len(), b.vehicles.len());
    }

    #[test]
    fn gamma_override_applies() {
        let mut params = WorkloadParams::small(CityProfile::ChengduLike);
        params.gamma = 1.2;
        let tight = Workload::generate(params);
        params.gamma = 2.0;
        let loose = Workload::generate(params);
        let avg_budget = |w: &Workload| {
            w.requests.iter().map(Request::detour_budget).sum::<f64>() / w.requests.len() as f64
        };
        assert!(avg_budget(&loose) > avg_budget(&tight));
    }
}
