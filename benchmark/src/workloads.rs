//! The four workloads: what each one is, how its inputs are generated from
//! the seed, and how one repeat of it runs.
//!
//! A workload is a fixed *city* — road network and demand hotspots, generated
//! from [`CITY_SEED`] — plus a seed-driven *day*: arrival times, trip
//! endpoints and fleet start positions are drawn from `--seed`.  Redrawing
//! the city per seed changes the amount of dispatch work by more than 2×
//! between seeds (hotspots land on arterials or not), which would drown any
//! regression in input noise; redrawing the day moves it by a few percent.
//! The program under test only ever receives the generated inputs.

use crate::probe::{Probe, ProbeLog, ProbedDispatcher};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use structride_baselines::standard_registry;
use structride_core::shard::{region_grid_for, ShardedSimulator};
use structride_core::{
    DispatcherKind, IngestConfig, IngestStats, RunMetrics, Simulator, StructRideConfig,
};
use structride_datagen::requests::TripSampler;
use structride_datagen::vehicles::generate_vehicles_in;
use structride_datagen::{
    derive_region_seed, distributions, rush_hour, synthetic_city_network, CityProfile, FleetParams,
};
use structride_model::{Request, RequestId, Vehicle};
use structride_roadnet::{RoadNetwork, SpEngine, SpEngineBuilder};
use structride_spatial::RegionGrid;

/// Seed of every workload's city (network perturbation + hotspot centres).
pub const CITY_SEED: u64 = 42;

/// How batches are driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// `Simulator::run`: Δ-windows, closed loop (the next batch starts when
    /// the previous one returns).
    Clock,
    /// `ShardedSimulator::run` on a 1×3 region grid under rush-hour traffic,
    /// closed loop.
    Sharded,
    /// `Simulator::run_ingested`: open loop, arrivals replayed on the wall
    /// clock at a fixed rate.
    Ingest(IngestConfig),
}

/// Full size (what `BENCHMARK.json` fixes) or the ≤ 5 s size the harness's
/// own tests run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Size {
    Full,
    Smoke,
}

/// One workload's definition.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Why the workload exists (one line; mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    pub drive: Drive,
    pub algo: DispatcherKind,
    /// One city profile per region strip, west to east.
    pub cities: &'static [CityProfile],
    /// Road-network scale factor per strip.
    pub scale: f64,
    /// Requests and vehicles over the whole map, split evenly over strips.
    pub requests: usize,
    pub vehicles: usize,
    /// Seconds of simulated time over which requests are released.
    pub horizon: f64,
}

/// Workload names in the order they run.
pub const WORKLOADS: [&str; 4] = ["city_sard", "city_assign", "metro_rush", "city_ingest"];

const CITY: &[CityProfile] = &[CityProfile::NycLike];
const METRO: &[CityProfile] = &[
    CityProfile::ChengduLike,
    CityProfile::NycLike,
    CityProfile::CainiaoLike,
];

/// The ingest knobs of `city_ingest`.  The 5 ms deadline is far below the
/// dispatch time of a batch, so batch cadence and arrival→commitment latency
/// measure compute, not the batcher's timer.
const INGEST: IngestConfig = IngestConfig {
    max_batch_size: 64,
    batch_deadline: 0.005,
    queue_capacity: 2048,
    time_scale: 60.0,
};

/// Looks a workload up by name.
pub fn spec(name: &str, size: Size) -> Option<WorkloadSpec> {
    let full = size == Size::Full;
    let pick = |f: f64, s: f64| if full { f } else { s };
    let city = |name, why, drive, algo, requests: (f64, f64), horizon: (f64, f64)| WorkloadSpec {
        name,
        why,
        drive,
        algo,
        cities: CITY,
        scale: pick(4.0, 0.6),
        requests: pick(requests.0, requests.1) as usize,
        vehicles: pick(400.0, 30.0) as usize,
        horizon: pick(horizon.0, horizon.1),
    };
    Some(match name {
        "city_sard" => city(
            "city_sard",
            "the paper's setting: demand-rich single city, SARD; shareability graph, grouping and insertion do the work",
            Drive::Clock,
            DispatcherKind::Sard,
            (2400.0, 150.0),
            (432.0, 60.0),
        ),
        "city_assign" => city(
            "city_assign",
            "same inputs as city_sard through the exact LAP dispatcher: bypasses sharegraph and grouping, so their changes predict no change here",
            Drive::Clock,
            DispatcherKind::Assign,
            (2400.0, 150.0),
            (432.0, 60.0),
        ),
        "metro_rush" => WorkloadSpec {
            name: "metro_rush",
            why: "three-city strip, 1x3 shards, rush-hour traffic: epoch rolls, label prebuild, cache drops, handoff auction and migration on top of per-shard SARD",
            drive: Drive::Sharded,
            algo: DispatcherKind::Sard,
            cities: METRO,
            scale: pick(0.5, 0.1),
            requests: pick(2100.0, 120.0) as usize,
            vehicles: pick(360.0, 36.0) as usize,
            horizon: pick(540.0, 60.0),
        },
        "city_ingest" => city(
            "city_ingest",
            "city_sard's city and fleet behind the wall-clock ingest front end: open loop at a fixed rate, many small batches, the only arrival-to-commitment latency under queueing",
            Drive::Ingest(INGEST),
            DispatcherKind::Sard,
            (1200.0, 60.0),
            (240.0, 12.0),
        ),
        _ => return None,
    })
}

impl WorkloadSpec {
    /// The framework configuration the workload runs with.
    pub fn config(&self) -> StructRideConfig {
        let config = StructRideConfig::default();
        match self.drive {
            Drive::Clock => config,
            Drive::Sharded => {
                config.with_traffic(rush_hour(self.horizon / 6.0, self.horizon / 12.0))
            }
            Drive::Ingest(ingest) => config.with_ingest(ingest),
        }
    }

    /// Whether repeats of the same inputs must agree bit for bit (every
    /// drive but the wall-clock-batched one).
    pub fn deterministic(&self) -> bool {
        !matches!(self.drive, Drive::Ingest(_))
    }

    /// Worker threads for this workload given `nproc` cores: `min(nproc, 4)`,
    /// one fewer when a producer thread replays arrivals next to them.
    pub fn threads(&self, nproc: usize) -> usize {
        let workers = nproc.clamp(1, 4);
        match self.drive {
            Drive::Ingest(_) => workers.saturating_sub(1).max(1),
            _ => workers,
        }
    }

    /// The workload's road network: the first city's street grid, widened
    /// once per strip (the layout `MultiRegionWorkload` uses).
    pub fn network(&self) -> RoadNetwork {
        let mut params = self.cities[0].network_params(self.scale, CITY_SEED);
        params.cols *= self.cities.len() as u32;
        synthetic_city_network(&params)
    }

    /// One-line parameter summary for the result files.
    pub fn params_line(&self) -> String {
        let drive = match self.drive {
            Drive::Clock => "closed loop, clock-driven, delta=5s".to_string(),
            Drive::Sharded => format!(
                "closed loop, clock-driven, delta=5s, 1x3 shards, rush_hour(epoch={:.0}s, hour={:.0}s)",
                self.horizon / 6.0,
                self.horizon / 12.0
            ),
            Drive::Ingest(c) => format!(
                "open loop, {:.0} req/s wall ({:.2} req/s simulated x{:.0}), max_batch={}, deadline={}ms, queue={}",
                self.offered_rps(),
                self.requests as f64 / self.horizon,
                c.time_scale,
                c.max_batch_size,
                c.batch_deadline * 1e3,
                c.queue_capacity
            ),
        };
        let cities: Vec<&str> = self.cities.iter().map(CityProfile::name).collect();
        format!(
            "{} scale={} requests={} vehicles={} horizon={}s algo={} city_seed={}; {}",
            cities.join("+"),
            self.scale,
            self.requests,
            self.vehicles,
            self.horizon,
            self.algo.key(),
            CITY_SEED,
            drive
        )
    }

    /// Wall-clock arrival rate of the open-loop workload (0 for closed loops,
    /// where the rate is whatever the system sustains).
    pub fn offered_rps(&self) -> f64 {
        match self.drive {
            Drive::Ingest(c) => self.requests as f64 / self.horizon * c.time_scale,
            _ => 0.0,
        }
    }
}

/// The generated inputs of one `(workload, seed)`.
pub struct Inputs {
    pub network: RoadNetwork,
    /// Release-ordered; ties broken by id.
    pub requests: Vec<Request>,
    pub vehicles: Vec<Vehicle>,
    pub config: StructRideConfig,
    /// The shard layout of the sharded drive.
    pub regions: RegionGrid,
    /// Seconds spent sampling requests and vehicles (engine build excluded).
    pub generate_s: f64,
}

/// Draws the day: Poisson arrivals at `requests / horizon`, trips from each
/// strip's fixed hotspot model, fleet start nodes uniform per strip.
/// `engine` is a free-flow engine over `spec.network()`.
pub fn generate(spec: &WorkloadSpec, seed: u64, engine: &SpEngine) -> Inputs {
    let t0 = Instant::now();
    let k = spec.cities.len();
    let strips = RegionGrid::strips_covering(engine.network().bounding_box(), k as u32);
    let per_region = (spec.requests / k, spec.vehicles / k);
    let rate = per_region.0 as f64 / spec.horizon;
    let mut requests = Vec::with_capacity(spec.requests);
    let mut vehicles = Vec::with_capacity(spec.vehicles);
    for (i, city) in spec.cities.iter().enumerate() {
        let bounds = (k > 1).then(|| strips.bounds(i as u32));
        let trip_params = city.request_params(derive_region_seed(CITY_SEED, i as u64));
        let mut city_rng = StdRng::seed_from_u64(trip_params.seed);
        let sampler = TripSampler::new(engine, &trip_params, bounds, &mut city_rng);
        let day_seed = derive_region_seed(seed, i as u64);
        let mut rng = StdRng::seed_from_u64(day_seed);
        let mut release = 0.0;
        for j in 0..per_region.0 {
            release += distributions::exponential(&mut rng, rate);
            let id = (i * per_region.0 + j) as u32;
            requests.extend(sampler.sample(engine, &mut rng, id, release.min(spec.horizon)));
        }
        let fleet = FleetParams {
            count: per_region.1,
            capacity_mean: 4,
            capacity_sigma: 0.0,
            seed: day_seed.wrapping_add(101),
        };
        vehicles.extend(generate_vehicles_in(
            engine,
            &fleet,
            bounds,
            (i * per_region.1) as u32,
        ));
    }
    requests.sort_by(|a, b| a.release.total_cmp(&b.release).then(a.id.cmp(&b.id)));
    Inputs {
        network: engine.network().clone(),
        requests,
        vehicles,
        config: spec.config(),
        regions: region_grid_for(engine.network(), 1, k as u32),
        generate_s: t0.elapsed().as_secs_f64(),
    }
}

/// Builds the monolithic engine a workload dispatches on — the timed set-up
/// step of the `Simulator` drives: `SpEngineBuilder::build` (hub labels).
pub fn build_engine(network: &RoadNetwork, config: &StructRideConfig) -> SpEngine {
    SpEngineBuilder::new()
        .traffic(config.traffic)
        .build(network.clone())
}

/// Counters only the sharded pipeline reports (zero elsewhere).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardCounters {
    pub handoffs: u64,
    pub handoff_bids: u64,
    pub migrations: u64,
    pub sp_fallback_queries: u64,
    pub label_refresh_s: f64,
    pub epoch_rolls: u64,
    pub labels_rescaled: u64,
    pub labels_rebuilt: u64,
    pub shards_refreshed: u64,
}

/// What one repeat produced.
pub struct RunOutput {
    /// Entry and return of the run call.
    pub entry: Instant,
    pub exit: Instant,
    /// Served request ids, ascending.
    pub served: Vec<RequestId>,
    pub vehicles: Vec<Vehicle>,
    pub metrics: RunMetrics,
    pub ingest: Option<IngestStats>,
    pub shard: ShardCounters,
    pub log: ProbeLog,
    /// When the arrival generator pulled each request (open loop only).
    pub pulls: Vec<Instant>,
}

/// Stamps every pull of the arrival iterator: request *i* was sent no later
/// than the pull of *i + 1*, which bounds how late the generator ran.
struct StampedArrivals {
    inner: std::vec::IntoIter<Request>,
    pulls: Arc<Mutex<Vec<Instant>>>,
}

impl Iterator for StampedArrivals {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        self.pulls
            .lock()
            .expect("pull stamps poisoned")
            .push(Instant::now());
        self.inner.next()
    }
}

fn sorted_ids(served: impl IntoIterator<Item = RequestId>) -> Vec<RequestId> {
    let mut ids: Vec<RequestId> = served.into_iter().collect();
    ids.sort_unstable();
    ids
}

/// Runs one repeat: fresh fleet, fresh registry-built dispatcher, cold
/// shortest-path cache.  `engine` is the monolithic engine (ignored by the
/// sharded drive, which builds its own per-shard engines inside the run).
pub fn run_once(
    spec: &WorkloadSpec,
    inputs: &Inputs,
    engine: &SpEngine,
    probe: &Arc<Probe>,
) -> RunOutput {
    let registry = standard_registry();
    let config = inputs.config;
    let build = |shard: usize| {
        let inner = registry
            .build(spec.algo, &config)
            .expect("sard and assign are registered");
        ProbedDispatcher::new(inner, shard, probe.clone())
    };
    engine.clear_cache();
    let fleet = inputs.vehicles.clone();
    // What every drive reports alike; the arms add what only they have.
    let output = |entry, served, vehicles, metrics| RunOutput {
        entry,
        exit: Instant::now(),
        served: sorted_ids(served),
        vehicles,
        metrics,
        ingest: None,
        shard: ShardCounters::default(),
        log: probe.take_log(),
        pulls: Vec::new(),
    };
    match spec.drive {
        Drive::Clock => {
            let mut dispatcher = build(0);
            let entry = Instant::now();
            let report = Simulator::new(config).run(
                engine,
                &inputs.requests,
                fleet,
                &mut dispatcher,
                spec.name,
            );
            output(entry, report.served, report.vehicles, report.metrics)
        }
        Drive::Ingest(_) => {
            let mut dispatcher = build(0);
            let pulls = Arc::new(Mutex::new(Vec::with_capacity(inputs.requests.len() + 1)));
            let arrivals = StampedArrivals {
                inner: inputs.requests.clone().into_iter(),
                pulls: pulls.clone(),
            };
            let entry = Instant::now();
            let report = Simulator::new(config)
                .run_ingested(engine, arrivals, fleet, &mut dispatcher, spec.name)
                .expect("the arrival iterator is a plain vector and cannot panic");
            let out = output(entry, report.served, report.vehicles, report.metrics);
            let pulls = std::mem::take(&mut *pulls.lock().expect("pull stamps poisoned"));
            RunOutput {
                ingest: Some(report.ingest),
                pulls,
                ..out
            }
        }
        Drive::Sharded => {
            let entry = Instant::now();
            let report = ShardedSimulator::new(config).run(
                &inputs.network,
                &inputs.regions,
                &inputs.requests,
                fleet,
                |shard| Box::new(build(shard)),
                spec.name,
            );
            let out = output(entry, report.served, report.vehicles, report.aggregate);
            RunOutput {
                shard: ShardCounters {
                    handoffs: report.handoffs,
                    handoff_bids: report.handoff_bids,
                    migrations: report.migrations,
                    sp_fallback_queries: report.sp_fallback_queries,
                    label_refresh_s: report.label_refresh_seconds,
                    epoch_rolls: report.epoch_rolls,
                    labels_rescaled: report.labels_rescaled,
                    labels_rebuilt: report.labels_rebuilt,
                    shards_refreshed: report.shards_refreshed,
                },
                ..out
            }
        }
    }
}

/// Blocks until no more than `baseline` threads are alive in this process —
/// the count [`live_threads`] gave before the first run — so a repeat never
/// overlaps label-prebuild threads its predecessor left behind (`EpochStore`
/// detaches them).  Gives up after thirty seconds.
pub fn wait_for_quiescence(baseline: usize) {
    let deadline = Instant::now() + std::time::Duration::from_secs(30);
    while live_threads() > baseline && Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

/// Threads alive in this process (1 where `/proc` is unavailable).
pub fn live_threads() -> usize {
    proc_status_field("Threads:").map_or(1, |v| v as usize)
}

/// Peak resident set of this process in MiB (`VmHWM`; 0 without `/proc`).
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

fn proc_status_field(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_resolves_in_both_sizes() {
        for name in WORKLOADS {
            for size in [Size::Full, Size::Smoke] {
                let s = spec(name, size).expect("listed workload");
                assert_eq!(s.name, name);
                let strips = s.cities.len();
                assert!(s.requests.is_multiple_of(strips) && s.vehicles.is_multiple_of(strips));
                assert!(
                    s.why.len() <= 200,
                    "BENCHMARK.json caps a why at 200 characters"
                );
                assert!(!s.params_line().is_empty());
            }
        }
        assert!(spec("nope", Size::Full).is_none());
        let ingest = spec("city_ingest", Size::Full).unwrap();
        assert_eq!([1, 2, 8].map(|nproc| ingest.threads(nproc)), [1, 1, 3]);
        let sard = spec("city_sard", Size::Full).unwrap();
        assert_eq!([1, 2, 8].map(|nproc| sard.threads(nproc)), [1, 2, 4]);
        assert!(ingest.offered_rps() > 0.0);
    }

    #[test]
    fn same_seed_same_inputs_and_the_city_stays_fixed_across_seeds() {
        let s = spec("metro_rush", Size::Smoke).unwrap();
        let network = s.network();
        let engine = build_engine(&network, &StructRideConfig::default());
        let a = generate(&s, 7, &engine);
        let b = generate(&s, 7, &engine);
        let c = generate(&s, 8, &engine);
        assert_eq!(a.requests, b.requests);
        assert_ne!(a.requests, c.requests);
        assert_eq!(a.network.node_count(), c.network.node_count());
        assert_eq!(a.regions.len(), 3);
        assert!(a.requests.windows(2).all(|w| w[0].release <= w[1].release));
        let starts = |i: &Inputs| i.vehicles.iter().map(|v| v.node).collect::<Vec<_>>();
        assert_eq!(starts(&a), starts(&b));
        assert_ne!(starts(&a), starts(&c));
        assert!(live_threads() >= 1 && peak_rss_mb() >= 0.0);
    }
}
