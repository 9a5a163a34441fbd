//! Fleet generation.
//!
//! Vehicles start at uniformly random road-network nodes (the paper does the
//! same).  Capacities are either all equal (the main experiments) or drawn
//! from a normal distribution with mean 4 and variance σ² (the capacity-
//! distribution experiments of Fig. 16/17, Appendix C).

use crate::distributions;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use structride_model::Vehicle;
use structride_roadnet::SpEngine;

/// Parameters of the fleet generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetParams {
    /// Number of vehicles.
    pub count: usize,
    /// Mean seat capacity (Table III default: 4 ... the paper sweeps 2–6).
    pub capacity_mean: u32,
    /// Standard deviation σ of the capacity distribution (0 = all equal).
    pub capacity_sigma: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FleetParams {
    fn default() -> Self {
        FleetParams {
            count: 100,
            capacity_mean: 4,
            capacity_sigma: 0.0,
            seed: 1,
        }
    }
}

/// Generates the fleet: vehicles at random nodes with the configured capacity
/// distribution (capacities are clamped to `[1, 2 · capacity_mean]`).
pub fn generate_vehicles(engine: &SpEngine, params: &FleetParams) -> Vec<Vehicle> {
    generate_vehicles_in(engine, params, None, 0)
}

/// Like [`generate_vehicles`], but starts vehicles only at nodes inside the
/// rectangle `(min_x, min_y, max_x, max_y)` and numbers them from
/// `first_id` — the per-region fleet generator behind multi-region
/// workloads.  An empty rectangle falls back to the whole network.  With
/// `bounds = None` and `first_id = 0` this is exactly `generate_vehicles`
/// (bit-identical RNG stream).
pub fn generate_vehicles_in(
    engine: &SpEngine,
    params: &FleetParams,
    bounds: Option<(f64, f64, f64, f64)>,
    first_id: u32,
) -> Vec<Vehicle> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let start_nodes = crate::requests::nodes_in_bounds(engine.network(), bounds);
    (0..params.count)
        .map(|i| {
            let node = start_nodes[rng.gen_range(0..start_nodes.len() as u32) as usize];
            let capacity = if params.capacity_sigma > 0.0 {
                let c = distributions::normal(
                    &mut rng,
                    params.capacity_mean as f64,
                    params.capacity_sigma,
                )
                .round();
                (c.max(1.0) as u32).min(params.capacity_mean * 2)
            } else {
                params.capacity_mean
            };
            Vehicle::new(first_id + i as u32, node, capacity.max(1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{synthetic_city_network, NetworkParams};

    fn engine() -> SpEngine {
        SpEngine::new(synthetic_city_network(&NetworkParams {
            rows: 6,
            cols: 6,
            ..Default::default()
        }))
    }

    #[test]
    fn fixed_capacity_fleet() {
        let e = engine();
        let fleet = generate_vehicles(
            &e,
            &FleetParams {
                count: 25,
                ..Default::default()
            },
        );
        assert_eq!(fleet.len(), 25);
        assert!(fleet.iter().all(|v| v.capacity == 4));
        assert!(fleet.iter().all(|v| (v.node as usize) < e.node_count()));
        assert!(fleet.iter().all(Vehicle::is_idle));
        // Ids are unique and consecutive.
        let ids: Vec<u32> = fleet.iter().map(|v| v.id).collect();
        assert_eq!(ids, (0..25).collect::<Vec<_>>());
    }

    #[test]
    fn sigma_spreads_capacities_but_keeps_them_sane() {
        let e = engine();
        let fleet = generate_vehicles(
            &e,
            &FleetParams {
                count: 200,
                capacity_sigma: 1.5,
                seed: 3,
                ..Default::default()
            },
        );
        let distinct: std::collections::HashSet<u32> = fleet.iter().map(|v| v.capacity).collect();
        assert!(
            distinct.len() > 1,
            "sigma > 0 must produce varied capacities"
        );
        assert!(fleet.iter().all(|v| (1..=8).contains(&v.capacity)));
        let mean: f64 = fleet.iter().map(|v| v.capacity as f64).sum::<f64>() / fleet.len() as f64;
        assert!(
            (mean - 4.0).abs() < 0.5,
            "mean capacity stays near 4 (got {mean})"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let e = engine();
        let p = FleetParams {
            count: 10,
            capacity_sigma: 1.0,
            seed: 9,
            ..Default::default()
        };
        let a = generate_vehicles(&e, &p);
        let b = generate_vehicles(&e, &p);
        assert_eq!(
            a.iter().map(|v| (v.node, v.capacity)).collect::<Vec<_>>(),
            b.iter().map(|v| (v.node, v.capacity)).collect::<Vec<_>>()
        );
    }
}
