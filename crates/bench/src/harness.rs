//! The paper's evaluation (§V) as data: [`SWEEPS`], one entry per figure or
//! table sweep, each a grid of [`Scenario`]s that [`run_sweep`] runs through
//! [`Scenario::execute`] and returns as [`Row`]s; plus the two studies that
//! are not suite sweeps.

use crate::scenario::{Pipeline, Scenario, ScenarioWorkload, Source};
use structride_core::{BatchSource, DispatchContext, RunHooks, RunMetrics, StructRideConfig};
use structride_datagen::{CityProfile, Workload, WorkloadParams};
use structride_sharegraph::angle::{sharing_probability, LogNormal};
use structride_sharegraph::builder::BuildStats;

/// How large the generated workloads are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Baseline number of requests at sweep position "default".
    pub requests: usize,
    /// Baseline number of vehicles.
    pub vehicles: usize,
    /// Release horizon in seconds.
    pub horizon: f64,
    /// Road-network scale factor.
    pub network_scale: f64,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// The default laptop-scale configuration used by `cargo run -p
    /// structride-bench --bin experiments`.
    pub fn standard() -> Self {
        ExperimentScale {
            requests: 600,
            vehicles: 100,
            horizon: 600.0,
            network_scale: 0.6,
            seed: 42,
        }
    }

    /// A much smaller configuration for smoke tests and CI.
    pub fn quick() -> Self {
        ExperimentScale {
            requests: 180,
            vehicles: 40,
            horizon: 180.0,
            network_scale: 0.3,
            seed: 42,
        }
    }
}

/// All six algorithms of the main figures — a suite is registry keys in
/// output order, SARD last.
pub const FULL: &[&str] = &["rtv", "prunegdp", "darm", "gas", "ticket", "sard"];
/// The batch-based methods (RTV, GAS, SARD) — Fig. 13.
pub const BATCH_ONLY: &[&str] = &["rtv", "gas", "sard"];
/// The traditional (non-learning) algorithms — the Cainiao appendix.
pub const TRADITIONAL: &[&str] = &["rtv", "prunegdp", "gas", "ticket", "sard"];
/// SARD alone — the angle-pruning table and the candidate-cap ablation.
pub const SARD: &[&str] = &["sard"];

/// One sweep of the paper's evaluation: for every city and value, one
/// workload, and every suite dispatcher run on it.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    /// The experiment label (`fig8`, …, `table_pruning`,
    /// `ablation_candidates`).
    pub experiment: &'static str,
    /// The swept key (`|W|`, `gamma`, …).
    pub key: &'static str,
    /// The cities swept, in order.
    pub cities: &'static [CityProfile],
    /// The values swept, in order.
    pub values: &'static [f64],
    /// Sets one value in the point's workload parameters and configuration
    /// (both start at the defaults) and returns the value's label.
    pub set: fn(f64, &mut WorkloadParams, &mut StructRideConfig) -> String,
    /// The registry keys of the dispatchers each point runs, in order.
    pub suite: &'static [&'static str],
}

/// One dispatcher's run at one sweep point.
#[derive(Debug, Clone)]
pub struct Row {
    /// [`Sweep::experiment`].
    pub experiment: &'static str,
    /// [`Sweep::key`].
    pub sweep: &'static str,
    /// The swept value's label.
    pub value: String,
    /// The run's metrics.
    pub metrics: RunMetrics,
    /// SARD's shareability-graph build counters (`None` for the others).
    pub build_stats: Option<BuildStats>,
}

const TAXI: &[CityProfile] = &[CityProfile::ChengduLike, CityProfile::NycLike];
const CAINIAO: &[CityProfile] = &[CityProfile::CainiaoLike];
const ALL: &[CityProfile] = &[
    CityProfile::ChengduLike,
    CityProfile::NycLike,
    CityProfile::CainiaoLike,
];

// What a sweep value sets, each returning the value's label; `vehicles` and
// `requests` scale the experiment scale's baseline by a factor.
fn vehicles(factor: f64, p: &mut WorkloadParams, _: &mut StructRideConfig) -> String {
    p.num_vehicles = (p.num_vehicles as f64 * factor).round() as usize;
    p.num_vehicles.to_string()
}

fn requests(factor: f64, p: &mut WorkloadParams, _: &mut StructRideConfig) -> String {
    p.num_requests = (p.num_requests as f64 * factor).round() as usize;
    p.num_requests.to_string()
}

fn gamma(gamma: f64, p: &mut WorkloadParams, _: &mut StructRideConfig) -> String {
    p.gamma = gamma;
    format!("{gamma}")
}

fn capacity(c: f64, p: &mut WorkloadParams, config: &mut StructRideConfig) -> String {
    p.capacity = c as u32;
    config.shareability_capacity = c as u32;
    format!("{c}")
}

fn penalty(pr: f64, _: &mut WorkloadParams, config: &mut StructRideConfig) -> String {
    *config = config.with_penalty(pr);
    format!("{pr}")
}

fn batch_period(delta: f64, _: &mut WorkloadParams, config: &mut StructRideConfig) -> String {
    *config = config.with_batch_period(delta);
    format!("{delta}")
}

fn capacity_sigma(sigma: f64, p: &mut WorkloadParams, _: &mut StructRideConfig) -> String {
    p.capacity_sigma = sigma;
    format!("{sigma}")
}

fn defaults(_: f64, _: &mut WorkloadParams, _: &mut StructRideConfig) -> String {
    "default".to_string()
}

/// 0 is SARD without angle pruning, 1 is SARD-O (with it).
fn angle_pruning(on: f64, _: &mut WorkloadParams, config: &mut StructRideConfig) -> String {
    if on == 0.0 {
        *config = config.without_angle_pruning();
        "SARD".to_string()
    } else {
        "SARD-O".to_string()
    }
}

fn candidate_cap(k: f64, _: &mut WorkloadParams, config: &mut StructRideConfig) -> String {
    config.max_candidate_vehicles = k as usize;
    format!("{k}")
}

const fn sweep(
    experiment: &'static str,
    key: &'static str,
    cities: &'static [CityProfile],
    values: &'static [f64],
    set: fn(f64, &mut WorkloadParams, &mut StructRideConfig) -> String,
    suite: &'static [&'static str],
) -> Sweep {
    Sweep {
        experiment,
        key,
        cities,
        values,
        set,
        suite,
    }
}

/// Every sweep of the paper's evaluation, in output order.
///
/// - Figs. 8–12: |W|, |R|, γ, capacity c and penalty p_r on the taxi cities.
/// - Fig. 13: the batch methods under the batching period Δ.
/// - Fig. 14: memory under default parameters.
/// - Fig. 15: the Cainiao delivery workload's sweeps.
/// - Figs. 16 / 17: capacity and its spread σ, Cainiao then the taxi cities.
/// - Tables V / VI: SARD without (SARD) and with (SARD-O) angle pruning.
/// - The candidate-queue cap (`max_candidate_vehicles`), the one knob this
///   reproduction adds on top of Alg. 3 (it stands in for the
///   radius-bounded grid range query).
#[rustfmt::skip]
pub const SWEEPS: &[Sweep] = &[
    sweep("fig8", "|W|", TAXI, &[0.4, 0.7, 1.0, 1.3, 1.6], vehicles, FULL),
    sweep("fig9", "|R|", TAXI, &[0.25, 0.5, 1.0, 1.5, 2.0], requests, FULL),
    sweep("fig10", "gamma", TAXI, &[1.2, 1.3, 1.5, 1.8, 2.0], gamma, FULL),
    sweep("fig11", "c", TAXI, &[2.0, 3.0, 4.0, 5.0, 6.0], capacity, FULL),
    sweep("fig12", "pr", TAXI, &[2.0, 5.0, 10.0, 20.0, 30.0], penalty, FULL),
    sweep("fig13", "delta", TAXI, &[1.0, 3.0, 5.0, 7.0, 9.0], batch_period, BATCH_ONLY),
    sweep("fig14", "memory", TAXI, &[0.0], defaults, TRADITIONAL),
    sweep("fig15", "|W|", CAINIAO, &[0.75, 1.0, 1.25], vehicles, TRADITIONAL),
    sweep("fig15", "|R|", CAINIAO, &[0.5, 1.0, 1.5], requests, TRADITIONAL),
    sweep("fig15", "gamma", CAINIAO, &[1.8, 2.0, 2.2], gamma, TRADITIONAL),
    sweep("fig15", "pr", CAINIAO, &[2.0, 10.0, 30.0], penalty, TRADITIONAL),
    sweep("fig15", "delta", CAINIAO, &[3.0, 5.0, 7.0], batch_period, BATCH_ONLY),
    sweep("fig16", "c", CAINIAO, &[2.0, 4.0, 6.0], capacity, TRADITIONAL),
    sweep("fig16", "sigma", CAINIAO, &[0.0, 0.5, 1.0, 1.5, 2.0], capacity_sigma, TRADITIONAL),
    sweep("fig17", "sigma", TAXI, &[0.0, 0.5, 1.0, 1.5, 2.0], capacity_sigma, TRADITIONAL),
    sweep("table_pruning", "variant", ALL, &[0.0, 1.0], angle_pruning, SARD),
    sweep("ablation_candidates", "k", TAXI, &[1.0, 2.0, 4.0, 8.0, 16.0], candidate_cap, SARD),
];

fn base_params(city: CityProfile, scale: &ExperimentScale) -> WorkloadParams {
    WorkloadParams {
        city,
        num_requests: scale.requests,
        num_vehicles: scale.vehicles,
        capacity: 4,
        capacity_sigma: 0.0,
        gamma: city.default_gamma(),
        horizon: scale.horizon,
        scale: scale.network_scale,
        seed: scale.seed,
    }
}

/// Runs `sweep` at `scale`: every (city, value) point's workload is
/// generated once, and each suite dispatcher runs on it through
/// [`Scenario::execute`] on the monolithic, clock-driven pipeline.  Returns
/// one row per (point, dispatcher), in order; prints nothing.
pub fn run_sweep(sweep: &Sweep, scale: &ExperimentScale) -> Vec<Row> {
    let mut rows = Vec::new();
    for &city in sweep.cities {
        for &value in sweep.values {
            let mut params = base_params(city, scale);
            let mut config = StructRideConfig::default();
            let label = (sweep.set)(value, &mut params, &mut config);
            let workload = ScenarioWorkload::Single(params);
            let generated = workload.generate();
            for &key in sweep.suite {
                let scenario = Scenario {
                    workload: workload.clone(),
                    dispatcher: key.to_string(),
                    pipeline: Pipeline::Mono,
                    source: Source::Clock,
                    config,
                };
                let source = BatchSource::Clock(&generated.requests);
                let vehicles = generated.vehicles.clone();
                let mut finished = scenario
                    .execute(&generated, key, source, vehicles, RunHooks::default())
                    .expect("a clock-driven run is never refused");
                rows.push(Row {
                    experiment: sweep.experiment,
                    sweep: sweep.key,
                    value: label.clone(),
                    metrics: finished.lanes.swap_remove(0).1,
                    build_stats: finished.build_stats,
                });
            }
        }
    }
    rows
}

/// The §IV-A schedule-maintenance study: how often does linear insertion reach
/// the kinetic-tree optimum, in release order versus shareability order?
/// (The paper reports 85–89 % vs 90–91 % on the real datasets.)
pub fn insertion_order_study(scale: &ExperimentScale) {
    use std::collections::HashMap;
    use structride_core::enumerate_groups;
    use structride_core::ordering::{ordering_study, InsertionOrdering};
    use structride_model::{Request, RequestId, Vehicle};
    use structride_sharegraph::{BuilderConfig, ShareabilityGraphBuilder};

    crate::outln!("experiment\tcity\tordering\tgroups\toptimality_rate");
    for city in [CityProfile::ChengduLike, CityProfile::NycLike] {
        let workload = Workload::generate(base_params(city, scale));
        // Shareability graph over an early slice of the request stream.
        let slice: Vec<Request> = workload
            .requests
            .iter()
            .take(scale.requests.min(150))
            .cloned()
            .collect();
        let mut builder = ShareabilityGraphBuilder::new(&workload.engine, BuilderConfig::default());
        builder.add_batch(&workload.engine, &slice);
        let map: HashMap<RequestId, Request> = slice.iter().map(|r| (r.id, r.clone())).collect();
        let ids: Vec<RequestId> = slice.iter().map(|r| r.id).collect();
        // Candidate 2–4 request groups for a handful of vehicles.
        let ctx = DispatchContext::new(&workload.engine, StructRideConfig::default(), 0.0);
        let mut groups = Vec::new();
        for vehicle in workload.vehicles.iter().take(8) {
            let vgroups = enumerate_groups(&ctx, builder.graph(), &map, &ids, vehicle, 4);
            groups.extend(vgroups.into_iter().filter(|g| g.members.len() >= 3));
        }
        let probe_vehicle = Vehicle::new(u32::MAX, workload.vehicles[0].node, 4);
        for (label, ordering) in [
            ("release", InsertionOrdering::ReleaseOrder),
            ("shareability", InsertionOrdering::ShareabilityOrder),
        ] {
            let study = ordering_study(
                &ctx,
                &probe_vehicle,
                &groups,
                &map,
                builder.graph(),
                ordering,
            );
            crate::outln!(
                "insertion_order\t{}\t{}\t{}\t{:.3}",
                city.name(),
                label,
                study.feasible_groups,
                study.optimality_rate()
            );
        }
    }
}

/// The analytical sharing-probability model of Theorem III.1: prints
/// `E(θ ≥ δ)` for a sweep of angles and γ values under the log-normal
/// trip-distance fit (the paper reports ≈ 41 % at δ = π/2, γ = 1.5).
pub fn angle_probability_model() {
    let dist = LogNormal {
        mu: 6.9,
        sigma: 0.55,
    };
    crate::outln!("experiment\tgamma\ttheta_deg\tsharing_probability");
    for gamma in [1.2, 1.5, 2.0] {
        for deg in (0..=180).step_by(15) {
            let theta = (deg as f64).to_radians();
            let p = sharing_probability(theta.max(1e-3), gamma, dist);
            crate::outln!("angle_model\t{gamma}\t{deg}\t{p:.4}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let q = ExperimentScale::quick();
        let s = ExperimentScale::standard();
        assert!(q.requests < s.requests);
        assert!(q.vehicles < s.vehicles);
    }

    #[test]
    fn every_suite_key_is_registered() {
        let registered = crate::scenario::dispatcher_keys();
        for sweep in SWEEPS {
            assert!(
                sweep.suite.iter().all(|key| registered.contains(key)),
                "{}",
                sweep.experiment
            );
        }
    }
}
