//! The typed [`Scenario`]: what is generated, which dispatcher runs it, on
//! which pipeline and from which batch source — and [`Scenario::execute`],
//! the one place the bench crate runs a simulator.
//!
//! A trace does not ship its road network — it stores the scenario that
//! generated it (all generation is seeded and deterministic) as `param`
//! lines, so `replay` regenerates an identical engine from the metadata.
//! [`Scenario::from_meta`] is strict: a missing, unknown or duplicate key, or
//! a value that does not parse, is a [`ScenarioError`] naming the key.
//! Floats round-trip exactly through the text format, making cross-process
//! replays bit-identical.  The paper's sweeps (`harness`) are grids of
//! scenarios run through the same [`Scenario::execute`].

use std::collections::HashSet;
use std::fmt;
use std::num::NonZeroUsize;
use std::str::FromStr;
use structride_baselines::standard_registry;
use structride_core::replay::TraceMeta;
use structride_core::shard::{region_strips_for, ShardedSimulator, ShardingConfig};
use structride_core::{
    BatchSource, Dispatcher, IngestConfig, RunError, RunHooks, RunMetrics, SardDispatcher,
    Simulator, StructRideConfig,
};
use structride_datagen::{
    CityProfile, MultiRegionParams, MultiRegionWorkload, Workload, WorkloadParams,
};
use structride_model::{Request, RequestId, Vehicle};
use structride_roadnet::{SpEngine, SpEngineBuilder};
use structride_sharegraph::builder::BuildStats;

/// The dispatcher keys `--algo` accepts, straight from the registry
/// ([`standard_registry`]) — the hand-maintained key lists this module used
/// to carry are gone.
pub fn dispatcher_keys() -> Vec<&'static str> {
    standard_registry().keys()
}

/// Constructs a fresh dispatcher from its CLI key via the registry.  The
/// box is `Send` so the sharded pipeline can hand one dispatcher to each
/// shard's worker.
pub fn dispatcher_by_name(
    key: &str,
    config: StructRideConfig,
) -> Option<Box<dyn Dispatcher + Send>> {
    standard_registry().build_by_key(&key.to_ascii_lowercase(), &config)
}

/// [`dispatcher_by_name`] for a key already checked against the registry.
pub(crate) fn registered(key: &str, config: StructRideConfig) -> Box<dyn Dispatcher + Send> {
    dispatcher_by_name(key, config).expect("dispatcher keys are validated before a scenario runs")
}

fn city_from_name(name: &str) -> Option<CityProfile> {
    CityProfile::all().into_iter().find(|c| c.name() == name)
}

/// The generated workload a scenario runs on.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioWorkload {
    /// One city ([`Workload`]).
    Single(WorkloadParams),
    /// Several cities side by side ([`MultiRegionWorkload`]).
    Regions(MultiRegionParams),
}

/// One simulator over the whole network, or one per vertical strip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pipeline {
    /// [`Simulator`].
    Mono,
    /// [`ShardedSimulator`], one dispatcher per shard.  The knobs are
    /// recorded so a check rebuilds the *recorded* pipeline, not whatever
    /// the defaults are at replay time.
    Sharded {
        /// Number of vertical strips.
        shards: NonZeroUsize,
        /// Handoff band, rebalancing and top-m shortlist.
        sharding: ShardingConfig,
    },
}

/// Where batch boundaries come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The simulated Δ clock.
    Clock,
    /// The wall-clock ingest front end (`core::ingest`); the realized
    /// boundaries land in the trace.
    Ingest,
}

/// Everything that makes a recorded run reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// What is generated.
    pub workload: ScenarioWorkload,
    /// Registry key of the dispatcher (one instance per shard when sharded).
    pub dispatcher: String,
    /// Monolithic or sharded.
    pub pipeline: Pipeline,
    /// Clock-driven or ingested.
    pub source: Source,
    /// The framework configuration (the trace's `config` line).
    pub config: StructRideConfig,
}

/// Why a trace's `param` lines do not describe a [`Scenario`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// A key the scenario's shape needs is absent.
    Missing(&'static str),
    /// A key no scenario of this shape has.
    Unknown(String),
    /// A key given twice.
    Duplicate(String),
    /// A key and its value that does not parse — an unknown `mode`, city or
    /// dispatcher, a zero shard count, a number that is not one.
    BadValue(String, String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Missing(key) => write!(f, "missing param `{key}`"),
            ScenarioError::Unknown(key) => write!(f, "unknown param `{key}`"),
            ScenarioError::Duplicate(key) => write!(f, "duplicate param `{key}`"),
            ScenarioError::BadValue(key, value) => {
                write!(f, "param `{key}` has bad value {value:?}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A generated workload: its name, engine, requests and initial fleet.
pub struct Generated {
    /// The workload name runs report.
    pub name: String,
    /// The free-flow engine over the generated network.
    pub engine: SpEngine,
    /// The request stream.
    pub requests: Vec<Request>,
    /// The initial fleet.
    pub vehicles: Vec<Vehicle>,
}

impl ScenarioWorkload {
    /// Generates the workload.
    pub fn generate(&self) -> Generated {
        let (name, engine, requests, vehicles) = match self {
            ScenarioWorkload::Single(params) => {
                let w = Workload::generate(*params);
                (w.name, w.engine, w.requests, w.vehicles)
            }
            ScenarioWorkload::Regions(params) => {
                let w = MultiRegionWorkload::generate(params.clone());
                (w.name, w.engine, w.requests, w.vehicles)
            }
        };
        Generated {
            name,
            engine,
            requests,
            vehicles,
        }
    }
}

/// The engine a monolithic run needs under `config`: `None` (use the
/// workload's own free-flow engine) when traffic is static, otherwise a fresh
/// engine over the same network carrying the traffic model, so the simulator
/// can roll its epoch from the batch clock — one per run, since epoch state
/// lives inside it.  The sharded pipelines build their per-shard engines
/// from `config.traffic` themselves.
pub(crate) fn traffic_engine(engine: &SpEngine, config: &StructRideConfig) -> Option<SpEngine> {
    (!config.traffic.is_static()).then(|| {
        SpEngineBuilder::new()
            .traffic(config.traffic)
            .build(engine.network().clone())
    })
}

/// What one [`Scenario::execute`] run produced, in one shape for both
/// pipelines.
#[derive(Debug, Clone)]
pub struct Finished {
    /// Labelled metrics: `run` on the monolithic pipeline; `aggregate`
    /// then `shard i` for each shard on the sharded one.  The first lane's
    /// `algorithm` is the dispatcher's [`Dispatcher::name`].
    pub lanes: Vec<(String, RunMetrics)>,
    /// The sharded run counters (handoffs, bids, migrations, epoch rolls,
    /// faults, degraded batches, degraded offered and served); empty on the
    /// monolithic pipeline.
    pub counters: Vec<u64>,
    /// The requests some vehicle was assigned.
    pub served: HashSet<RequestId>,
    /// The fleet after every schedule executed.
    pub fleet: Vec<Vehicle>,
    /// SARD's shareability-graph build counters, on the monolithic pipeline.
    pub build_stats: Option<BuildStats>,
}

/// How big a [`Scenario::quickstart`] run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// CI scale (`--quick`).
    Quick,
    /// The default size.
    Default,
    /// The benchmark's single city (`--preset city`): the NYC-like profile
    /// at scale 4.0 (1 764 nodes), 2 400 requests and 400 vehicles over
    /// 432 s, the sizes of the `city_sard` and `city_assign` workloads.
    /// Monolithic pipeline only.
    City,
}

impl Scenario {
    /// The quickstart-style scenario the `record` / `verify` flows run: an
    /// NYC-like city on the monolithic pipeline; a Chengdu-like and an
    /// NYC-like region side by side when sharded (of [`Size::Default`]'s
    /// size unless `size` is [`Size::Quick`]).  An ingested one replaces
    /// `config.ingest` with knobs that compress the stream into seconds of
    /// wall clock, so CI record steps stay fast.
    pub fn quickstart(
        size: Size,
        dispatcher: &str,
        pipeline: Pipeline,
        source: Source,
        config: StructRideConfig,
    ) -> Scenario {
        let quick = size == Size::Quick;
        let (num_requests, num_vehicles, horizon, scale, time_scale) = match size {
            Size::Quick => (80, 12, 120.0, 0.3, 240.0),
            Size::Default => (240, 40, 300.0, 0.3, 120.0),
            Size::City => (2400, 400, 432.0, 4.0, 60.0),
        };
        let workload = match pipeline {
            Pipeline::Mono => ScenarioWorkload::Single(WorkloadParams {
                num_requests,
                num_vehicles,
                horizon,
                scale,
                ..WorkloadParams::small(CityProfile::NycLike)
            }),
            Pipeline::Sharded { .. } => ScenarioWorkload::Regions(MultiRegionParams {
                cities: vec![CityProfile::ChengduLike, CityProfile::NycLike],
                requests_per_region: if quick { 50 } else { 110 },
                vehicles_per_region: if quick { 8 } else { 18 },
                capacity: 4,
                horizon: if quick { 120.0 } else { 280.0 },
                scale: 0.3,
                seed: 42,
            }),
        };
        let config = match source {
            Source::Clock => config,
            Source::Ingest => config.with_ingest(IngestConfig {
                max_batch_size: 32,
                batch_deadline: 0.01,
                queue_capacity: 4096,
                time_scale,
            }),
        };
        Scenario {
            workload,
            dispatcher: dispatcher.to_string(),
            pipeline,
            source,
            config,
        }
    }

    /// The trace `param` pairs, in the order every trace has carried them: a
    /// sharded scenario opens with `mode`, the shard count and the sharding
    /// knobs; the workload's generation parameters follow; a monolithic
    /// ingested one then says `mode ingested`; `dispatcher` comes last.
    pub fn to_params(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let mut put = |key: &str, value: String| out.push((key.to_string(), value));
        if let Pipeline::Sharded { shards, sharding } = &self.pipeline {
            let mode = match self.source {
                Source::Clock => "sharded",
                Source::Ingest => "sharded-ingested",
            };
            put("mode", mode.to_string());
            put("shards", shards.to_string());
            put("handoff_band", sharding.handoff_band.to_string());
            put("rebalance", sharding.rebalance.to_string());
            let migrations = sharding.max_migrations_per_batch;
            put("max_migrations_per_batch", migrations.to_string());
            put("top_m", sharding.top_m.to_string());
        }
        match &self.workload {
            ScenarioWorkload::Single(p) => {
                put("city", p.city.name().to_string());
                put("num_requests", p.num_requests.to_string());
                put("num_vehicles", p.num_vehicles.to_string());
                put("capacity", p.capacity.to_string());
                put("capacity_sigma", p.capacity_sigma.to_string());
                put("gamma", p.gamma.to_string());
                put("horizon", p.horizon.to_string());
                put("scale", p.scale.to_string());
                put("seed", p.seed.to_string());
            }
            ScenarioWorkload::Regions(p) => {
                let cities: Vec<&str> = p.cities.iter().map(|c| c.name()).collect();
                put("cities", cities.join(","));
                put("requests_per_region", p.requests_per_region.to_string());
                put("vehicles_per_region", p.vehicles_per_region.to_string());
                put("capacity", p.capacity.to_string());
                put("horizon", p.horizon.to_string());
                put("scale", p.scale.to_string());
                put("seed", p.seed.to_string());
            }
        }
        if self.pipeline == Pipeline::Mono && self.source == Source::Ingest {
            put("mode", "ingested".to_string());
        }
        put("dispatcher", self.dispatcher.clone());
        out
    }

    /// Reads the scenario a trace was recorded from — the inverse of
    /// [`Scenario::to_params`] over `meta.params`, plus `meta.config`.  The
    /// `mode` key picks the pipeline and source, a `cities` key the
    /// multi-region workload; the dispatcher must be a registered key.
    pub fn from_meta(meta: &TraceMeta) -> Result<Scenario, ScenarioError> {
        fn param<T: FromStr>(meta: &TraceMeta, key: &'static str) -> Result<T, ScenarioError> {
            let value = meta.param(key).ok_or(ScenarioError::Missing(key))?;
            value.parse().map_err(|_| bad_value(key, value))
        }
        fn bad_value(key: &str, value: &str) -> ScenarioError {
            ScenarioError::BadValue(key.to_string(), value.to_string())
        }
        let mode = meta.param("mode");
        let pipeline = match mode {
            None | Some("ingested") => Pipeline::Mono,
            Some("sharded" | "sharded-ingested") => Pipeline::Sharded {
                shards: param(meta, "shards")?,
                sharding: ShardingConfig {
                    handoff_band: param(meta, "handoff_band")?,
                    rebalance: param(meta, "rebalance")?,
                    max_migrations_per_batch: param(meta, "max_migrations_per_batch")?,
                    top_m: param(meta, "top_m")?,
                },
            },
            Some(other) => return Err(bad_value("mode", other)),
        };
        let source = match mode {
            Some("ingested" | "sharded-ingested") => Source::Ingest,
            _ => Source::Clock,
        };
        let workload = if let Some(cities) = meta.param("cities") {
            ScenarioWorkload::Regions(MultiRegionParams {
                cities: cities
                    .split(',')
                    .map(city_from_name)
                    .collect::<Option<_>>()
                    .ok_or_else(|| bad_value("cities", cities))?,
                requests_per_region: param(meta, "requests_per_region")?,
                vehicles_per_region: param(meta, "vehicles_per_region")?,
                capacity: param(meta, "capacity")?,
                horizon: param(meta, "horizon")?,
                scale: param(meta, "scale")?,
                seed: param(meta, "seed")?,
            })
        } else {
            let city: String = param(meta, "city")?;
            ScenarioWorkload::Single(WorkloadParams {
                city: city_from_name(&city).ok_or_else(|| bad_value("city", &city))?,
                num_requests: param(meta, "num_requests")?,
                num_vehicles: param(meta, "num_vehicles")?,
                capacity: param(meta, "capacity")?,
                capacity_sigma: param(meta, "capacity_sigma")?,
                gamma: param(meta, "gamma")?,
                horizon: param(meta, "horizon")?,
                scale: param(meta, "scale")?,
                seed: param(meta, "seed")?,
            })
        };
        let dispatcher: String = param(meta, "dispatcher")?;
        if dispatcher_by_name(&dispatcher, meta.config).is_none() {
            return Err(bad_value("dispatcher", &dispatcher));
        }
        let scenario = Scenario {
            workload,
            dispatcher,
            pipeline,
            source,
            config: meta.config,
        };
        // The keys this shape writes are the only ones it may read.
        let known = scenario.to_params();
        for (i, (key, _)) in meta.params.iter().enumerate() {
            if meta.params[..i].iter().any(|(k, _)| k == key) {
                return Err(ScenarioError::Duplicate(key.clone()));
            }
            if !known.iter().any(|(k, _)| k == key) {
                return Err(ScenarioError::Unknown(key.clone()));
            }
        }
        Ok(scenario)
    }

    /// Runs the `dispatcher` key over `generated` — this scenario's workload
    /// — on the scenario's pipeline under its configuration, with the
    /// batches `source` produces, the initial fleet `vehicles` (empty for a
    /// resume) and `hooks` observing.  The one fork between the monolithic
    /// and the sharded pipeline.  Every run starts from a cold
    /// shortest-path cache, so runs sharing `generated` stay comparable.
    /// SARD is built concretely so its build counters can be read; every
    /// other dispatcher comes from the registry.
    ///
    /// # Errors
    /// [`RunError`] when a resumed checkpoint does not fit the run or an
    /// ingest producer panics.
    ///
    /// # Panics
    /// Panics if `dispatcher` is not a registered key.
    pub fn execute(
        &self,
        generated: &Generated,
        dispatcher: &str,
        source: BatchSource<'_>,
        vehicles: Vec<Vehicle>,
        hooks: RunHooks<'_>,
    ) -> Result<Finished, RunError> {
        let (config, name) = (self.config, generated.name.as_str());
        generated.engine.clear_cache();
        match self.pipeline {
            Pipeline::Mono => {
                let traffic = traffic_engine(&generated.engine, &config);
                let engine = traffic.as_ref().unwrap_or(&generated.engine);
                let is_sard = dispatcher.eq_ignore_ascii_case("sard");
                let mut sard = is_sard.then(|| SardDispatcher::new(config));
                let mut other;
                let dispatcher: &mut dyn Dispatcher = match sard.as_mut() {
                    Some(sard) => sard,
                    None => {
                        other = registered(dispatcher, config);
                        other.as_mut()
                    }
                };
                let sim = Simulator::new(config);
                let r = sim.execute(engine, source, vehicles, dispatcher, name, hooks)?;
                Ok(Finished {
                    lanes: vec![("run".to_string(), r.metrics)],
                    counters: Vec::new(),
                    served: r.served,
                    fleet: r.vehicles,
                    build_stats: sard.and_then(|s| s.build_stats()),
                })
            }
            Pipeline::Sharded { shards, sharding } => {
                let net = generated.engine.network();
                let regions = region_strips_for(net, shards.get() as u32);
                let sim = ShardedSimulator::with_sharding(config, sharding);
                let make = |_| registered(dispatcher, config);
                let r = sim.execute(net, &regions, source, vehicles, make, name, hooks)?;
                let mut lanes = vec![("aggregate".to_string(), r.aggregate)];
                let shards = r.per_shard.into_iter().enumerate();
                lanes.extend(shards.map(|(i, m)| (format!("shard {i}"), m)));
                Ok(Finished {
                    lanes,
                    counters: vec![
                        r.handoffs,
                        r.handoff_bids,
                        r.migrations,
                        r.epoch_rolls,
                        r.faults_injected,
                        r.batches_degraded,
                        r.degraded_offered,
                        r.degraded_served,
                    ],
                    served: r.served,
                    fleet: r.vehicles,
                    build_stats: None,
                })
            }
        }
    }
}
