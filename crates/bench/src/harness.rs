//! The experiment implementations — one function per paper figure/table.

use structride_baselines::standard_registry;
use structride_core::{
    DispatchContext, Dispatcher, DispatcherKind, RunMetrics, SardDispatcher, Simulator,
    StructRideConfig,
};
use structride_datagen::{CityProfile, Workload, WorkloadParams};
use structride_sharegraph::angle::{sharing_probability, LogNormal};

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

/// Which dispatcher suite an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteKind {
    /// All six algorithms of the main figures.
    Full,
    /// Only the batch-based methods (RTV, GAS, SARD) — Fig. 13.
    BatchOnly,
    /// Only the traditional (non-learning) algorithms — the Cainiao appendix.
    Traditional,
}

fn suite(kind: SuiteKind, config: StructRideConfig) -> Vec<Box<dyn Dispatcher>> {
    // Suite membership is a list of registry kinds; construction goes
    // through `standard_registry`, the same constructors the replay CLI and
    // the bench drivers resolve (experiment order is preserved: SARD last).
    let kinds: &[DispatcherKind] = match kind {
        SuiteKind::Full => &[
            DispatcherKind::Rtv,
            DispatcherKind::PruneGdp,
            DispatcherKind::Darm,
            DispatcherKind::Gas,
            DispatcherKind::Ticket,
            DispatcherKind::Sard,
        ],
        SuiteKind::BatchOnly => &[
            DispatcherKind::Rtv,
            DispatcherKind::Gas,
            DispatcherKind::Sard,
        ],
        SuiteKind::Traditional => &[
            DispatcherKind::Rtv,
            DispatcherKind::PruneGdp,
            DispatcherKind::Gas,
            DispatcherKind::Ticket,
            DispatcherKind::Sard,
        ],
    };
    let registry = standard_registry();
    kinds
        .iter()
        .map(|&k| -> Box<dyn Dispatcher> { registry.build(k, &config).expect("registered kind") })
        .collect()
}

/// Runs every dispatcher of `kind` on `workload` and returns their metrics.
pub fn run_suite(
    workload: &Workload,
    config: StructRideConfig,
    kind: SuiteKind,
) -> Vec<RunMetrics> {
    let simulator = Simulator::new(config);
    let mut out = Vec::new();
    for mut dispatcher in suite(kind, config) {
        // Every algorithm starts from a cold shortest-path cache for fairness.
        workload.engine.clear_cache();
        let report = simulator.run(
            &workload.engine,
            &workload.requests,
            workload.fresh_vehicles(),
            dispatcher.as_mut(),
            &workload.name,
        );
        out.push(report.metrics);
    }
    out
}

fn print_rows(experiment: &str, sweep: &str, value: String, rows: &[RunMetrics]) {
    for m in rows {
        crate::outln!("{experiment}\t{sweep}={value}\t{}", m.tsv_row());
    }
}

/// Prints the TSV header for all experiment output.
pub fn print_header() {
    crate::outln!("experiment\tsweep\t{}", RunMetrics::tsv_header());
}

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

/// Fig. 8 — performance when varying the number of vehicles |W|.
pub fn fig8_vary_vehicles(scale: &ExperimentScale) {
    for city in [CityProfile::ChengduLike, CityProfile::NycLike] {
        for factor in [0.4, 0.7, 1.0, 1.3, 1.6] {
            let mut params = base_params(city, scale);
            params.num_vehicles = ((scale.vehicles as f64) * factor).round() as usize;
            let workload = Workload::generate(params);
            let rows = run_suite(&workload, StructRideConfig::default(), SuiteKind::Full);
            print_rows("fig8", "|W|", params.num_vehicles.to_string(), &rows);
        }
    }
}

/// Fig. 9 — performance when varying the number of requests |R|.
pub fn fig9_vary_requests(scale: &ExperimentScale) {
    for city in [CityProfile::ChengduLike, CityProfile::NycLike] {
        for factor in [0.25, 0.5, 1.0, 1.5, 2.0] {
            let mut params = base_params(city, scale);
            params.num_requests = ((scale.requests as f64) * factor).round() as usize;
            let workload = Workload::generate(params);
            let rows = run_suite(&workload, StructRideConfig::default(), SuiteKind::Full);
            print_rows("fig9", "|R|", params.num_requests.to_string(), &rows);
        }
    }
}

/// Fig. 10 — performance when varying the deadline parameter γ.
pub fn fig10_vary_gamma(scale: &ExperimentScale) {
    for city in [CityProfile::ChengduLike, CityProfile::NycLike] {
        for gamma in [1.2, 1.3, 1.5, 1.8, 2.0] {
            let mut params = base_params(city, scale);
            params.gamma = gamma;
            let workload = Workload::generate(params);
            let rows = run_suite(&workload, StructRideConfig::default(), SuiteKind::Full);
            print_rows("fig10", "gamma", format!("{gamma}"), &rows);
        }
    }
}

/// Fig. 11 — performance when varying the vehicle capacity c.
pub fn fig11_vary_capacity(scale: &ExperimentScale) {
    for city in [CityProfile::ChengduLike, CityProfile::NycLike] {
        for capacity in [2u32, 3, 4, 5, 6] {
            let mut params = base_params(city, scale);
            params.capacity = capacity;
            let workload = Workload::generate(params);
            let config = StructRideConfig {
                shareability_capacity: capacity,
                ..Default::default()
            };
            let rows = run_suite(&workload, config, SuiteKind::Full);
            print_rows("fig11", "c", capacity.to_string(), &rows);
        }
    }
}

/// Fig. 12 — performance when varying the penalty coefficient p_r.
pub fn fig12_vary_penalty(scale: &ExperimentScale) {
    for city in [CityProfile::ChengduLike, CityProfile::NycLike] {
        for pr in [2.0, 5.0, 10.0, 20.0, 30.0] {
            let workload = Workload::generate(base_params(city, scale));
            let config = StructRideConfig::default().with_penalty(pr);
            let rows = run_suite(&workload, config, SuiteKind::Full);
            print_rows("fig12", "pr", format!("{pr}"), &rows);
        }
    }
}

/// Fig. 13 — batch-based methods when varying the batching period Δ.
pub fn fig13_vary_batch(scale: &ExperimentScale) {
    for city in [CityProfile::ChengduLike, CityProfile::NycLike] {
        for delta in [1.0, 3.0, 5.0, 7.0, 9.0] {
            let workload = Workload::generate(base_params(city, scale));
            let config = StructRideConfig::default().with_batch_period(delta);
            let rows = run_suite(&workload, config, SuiteKind::BatchOnly);
            print_rows("fig13", "delta", format!("{delta}"), &rows);
        }
    }
}

/// Fig. 14 — memory consumption under default parameters.
pub fn fig14_memory(scale: &ExperimentScale) {
    for city in [CityProfile::ChengduLike, CityProfile::NycLike] {
        let workload = Workload::generate(base_params(city, scale));
        let rows = run_suite(
            &workload,
            StructRideConfig::default(),
            SuiteKind::Traditional,
        );
        print_rows("fig14", "memory", "default".into(), &rows);
    }
}

/// Fig. 15 — the Cainiao delivery workload sweeps (|W|, |R|, γ, p_r, Δ).
pub fn fig15_cainiao(scale: &ExperimentScale) {
    let city = CityProfile::CainiaoLike;
    for factor in [0.75, 1.0, 1.25] {
        let mut params = base_params(city, scale);
        params.num_vehicles = ((scale.vehicles as f64) * factor).round() as usize;
        let workload = Workload::generate(params);
        let rows = run_suite(
            &workload,
            StructRideConfig::default(),
            SuiteKind::Traditional,
        );
        print_rows("fig15", "|W|", params.num_vehicles.to_string(), &rows);
    }
    for factor in [0.5, 1.0, 1.5] {
        let mut params = base_params(city, scale);
        params.num_requests = ((scale.requests as f64) * factor).round() as usize;
        let workload = Workload::generate(params);
        let rows = run_suite(
            &workload,
            StructRideConfig::default(),
            SuiteKind::Traditional,
        );
        print_rows("fig15", "|R|", params.num_requests.to_string(), &rows);
    }
    for gamma in [1.8, 2.0, 2.2] {
        let mut params = base_params(city, scale);
        params.gamma = gamma;
        let workload = Workload::generate(params);
        let rows = run_suite(
            &workload,
            StructRideConfig::default(),
            SuiteKind::Traditional,
        );
        print_rows("fig15", "gamma", format!("{gamma}"), &rows);
    }
    for pr in [2.0, 10.0, 30.0] {
        let workload = Workload::generate(base_params(city, scale));
        let config = StructRideConfig::default().with_penalty(pr);
        let rows = run_suite(&workload, config, SuiteKind::Traditional);
        print_rows("fig15", "pr", format!("{pr}"), &rows);
    }
    for delta in [3.0, 5.0, 7.0] {
        let workload = Workload::generate(base_params(city, scale));
        let config = StructRideConfig::default().with_batch_period(delta);
        let rows = run_suite(&workload, config, SuiteKind::BatchOnly);
        print_rows("fig15", "delta", format!("{delta}"), &rows);
    }
}

/// Fig. 16 / Fig. 17 — vehicle-capacity distribution (variance σ) and the
/// Cainiao capacity sweep.
pub fn fig16_fig17_capacity_distribution(scale: &ExperimentScale) {
    for capacity in [2u32, 4, 6] {
        let mut params = base_params(CityProfile::CainiaoLike, scale);
        params.capacity = capacity;
        let workload = Workload::generate(params);
        let config = StructRideConfig {
            shareability_capacity: capacity,
            ..Default::default()
        };
        let rows = run_suite(&workload, config, SuiteKind::Traditional);
        print_rows("fig16", "c", capacity.to_string(), &rows);
    }
    for city in [
        CityProfile::CainiaoLike,
        CityProfile::ChengduLike,
        CityProfile::NycLike,
    ] {
        for sigma in [0.0, 0.5, 1.0, 1.5, 2.0] {
            let mut params = base_params(city, scale);
            params.capacity_sigma = sigma;
            let workload = Workload::generate(params);
            let rows = run_suite(
                &workload,
                StructRideConfig::default(),
                SuiteKind::Traditional,
            );
            let fig = if city == CityProfile::CainiaoLike {
                "fig16"
            } else {
                "fig17"
            };
            print_rows(fig, "sigma", format!("{sigma}"), &rows);
        }
    }
}

/// Tables V / VI — the angle-pruning ablation: SARD (no pruning) vs SARD-O
/// (with pruning), reporting unified cost, service rate, #SP queries and time.
pub fn table_angle_pruning(scale: &ExperimentScale) {
    for city in CityProfile::all() {
        let workload = Workload::generate(base_params(city, scale));
        for (label, config) in [
            ("SARD", StructRideConfig::default().without_angle_pruning()),
            ("SARD-O", StructRideConfig::default()),
        ] {
            workload.engine.clear_cache();
            let simulator = Simulator::new(config);
            let mut sard = SardDispatcher::new(config);
            let report = simulator.run(
                &workload.engine,
                &workload.requests,
                workload.fresh_vehicles(),
                &mut sard,
                &workload.name,
            );
            let m = &report.metrics;
            let stats = sard.build_stats().unwrap_or_default();
            crate::outln!(
                "table_pruning\tvariant={label}\t{}\tangle_pruned={}\tchecks={}",
                m.tsv_row(),
                stats.angle_pruned,
                stats.shareability_checks
            );
        }
    }
}

/// Ablation of the candidate-queue cap (`max_candidate_vehicles`) — the one
/// knob this reproduction adds on top of the paper's Algorithm 3 (it stands in
/// for the radius-bounded grid range query, see `DESIGN.md`).  Sweeping it
/// shows how sensitive SARD is to the size of the per-request candidate
/// neighbourhood.
pub fn ablation_candidate_cap(scale: &ExperimentScale) {
    for city in [CityProfile::ChengduLike, CityProfile::NycLike] {
        let workload = Workload::generate(base_params(city, scale));
        for cap in [1usize, 2, 4, 8, 16] {
            let config = StructRideConfig {
                max_candidate_vehicles: cap,
                ..Default::default()
            };
            workload.engine.clear_cache();
            let simulator = Simulator::new(config);
            let mut sard = SardDispatcher::new(config);
            let report = simulator.run(
                &workload.engine,
                &workload.requests,
                workload.fresh_vehicles(),
                &mut sard,
                &workload.name,
            );
            crate::outln!("ablation_candidates\tk={cap}\t{}", report.metrics.tsv_row());
        }
    }
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
    fn run_suite_produces_one_row_per_algorithm() {
        let scale = ExperimentScale::quick();
        let workload = Workload::generate(base_params(CityProfile::NycLike, &scale));
        let rows = run_suite(&workload, StructRideConfig::default(), SuiteKind::BatchOnly);
        let names: Vec<&str> = rows.iter().map(|m| m.algorithm.as_str()).collect();
        assert_eq!(names, vec!["RTV", "GAS", "SARD"]);
        for m in &rows {
            assert_eq!(m.total_requests, workload.requests.len());
            assert!(m.service_rate() <= 1.0);
        }
    }

    #[test]
    fn scales_are_ordered() {
        let q = ExperimentScale::quick();
        let s = ExperimentScale::standard();
        assert!(q.requests < s.requests);
        assert!(q.vehicles < s.vehicles);
    }

    #[test]
    fn suite_kinds_have_expected_sizes() {
        let config = StructRideConfig::default();
        assert_eq!(suite(SuiteKind::Full, config).len(), 6);
        assert_eq!(suite(SuiteKind::BatchOnly, config).len(), 3);
        assert_eq!(suite(SuiteKind::Traditional, config).len(), 5);
    }
}
