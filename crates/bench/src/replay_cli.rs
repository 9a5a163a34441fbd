//! Plumbing behind the `replay` binary: dispatcher lookup by name, the typed
//! [`Scenario`] a trace was recorded from, and the record / check / resume
//! flows over it.
//!
//! A trace does not ship its road network — it stores the scenario that
//! generated it (all generation is seeded and deterministic) as `param`
//! lines, so `replay` regenerates an identical engine from the metadata.
//! [`Scenario::from_meta`] is strict: a missing, unknown or duplicate key, or
//! a value that does not parse, is a [`ScenarioError`] naming the key.
//! Floats round-trip exactly through the text format, making cross-process
//! replays bit-identical.

use std::collections::HashSet;
use std::fmt;
use std::num::NonZeroUsize;
use std::str::FromStr;
use structride_baselines::standard_registry;
use structride_core::replay::{
    diff_traces, replay_trace, Checkpoint, DriftReport, Trace, TraceMeta, TraceRecorder,
    VehicleState,
};
use structride_core::shard::{region_strips_for, ShardedReport, ShardedSimulator, ShardingConfig};
use structride_core::{
    BatchSource, Dispatcher, IngestConfig, RunHooks, RunMetrics, RunObserver, SardDispatcher,
    SimulationReport, Simulator, StructRideConfig,
};
use structride_datagen::{
    CityProfile, MultiRegionParams, MultiRegionWorkload, Workload, WorkloadParams,
};
use structride_model::{Request, RequestId, Vehicle};
use structride_roadnet::{SpEngine, SpEngineBuilder, TrafficConfig};

/// The dispatcher keys `--algo` accepts, straight from the registry
/// ([`standard_registry`]) — the hand-maintained key lists this module used
/// to carry are gone.
pub fn dispatcher_keys() -> Vec<&'static str> {
    standard_registry().keys()
}

/// The traffic scenario keys `--traffic` accepts.
pub const TRAFFIC_KEYS: &[&str] = &["rush", "incident"];

/// Builds a traffic scenario from its CLI key, compressed so `horizon`
/// simulated seconds sweep several epochs.  `rush` is the double-peaked
/// hourly profile; `incident` a city-wide slowdown window over the middle of
/// the horizon (network-agnostic: the zone box is unbounded, the time window
/// does the gating).
pub fn traffic_by_name(key: &str, horizon: f64) -> Option<TrafficConfig> {
    match key.to_ascii_lowercase().as_str() {
        "rush" => Some(structride_datagen::rush_hour(
            (horizon / 6.0).max(1.0),
            (horizon / 12.0).max(0.5),
        )),
        "incident" => Some(structride_datagen::incident_spike(
            (
                f64::NEG_INFINITY,
                f64::NEG_INFINITY,
                f64::INFINITY,
                f64::INFINITY,
            ),
            2.5,
            horizon * 0.25,
            horizon * 0.6,
            (horizon / 8.0).max(1.0),
        )),
        _ => None,
    }
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
fn registered(key: &str, config: StructRideConfig) -> Box<dyn Dispatcher + Send> {
    dispatcher_by_name(key, config).expect("dispatcher keys are validated before a scenario runs")
}

fn city_from_name(name: &str) -> Option<CityProfile> {
    [
        CityProfile::ChengduLike,
        CityProfile::NycLike,
        CityProfile::CainiaoLike,
    ]
    .into_iter()
    .find(|c| c.name() == name)
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

/// Generates `workload`: its name, engine, requests and initial fleet.
fn generate(workload: &ScenarioWorkload) -> (String, SpEngine, Vec<Request>, Vec<Vehicle>) {
    match workload {
        ScenarioWorkload::Single(params) => {
            let w = Workload::generate(*params);
            (w.name, w.engine, w.requests, w.vehicles)
        }
        ScenarioWorkload::Regions(params) => {
            let w = MultiRegionWorkload::generate(params.clone());
            (w.name, w.engine, w.requests, w.vehicles)
        }
    }
}

/// The engine a monolithic run needs under `config`: `None` (use the
/// workload's own free-flow engine) when traffic is static, otherwise a fresh
/// engine over the same network carrying the traffic model, so the simulator
/// can roll its epoch from the batch clock — one per run, since epoch state
/// lives inside it.  The sharded pipelines build their per-shard engines
/// from `config.traffic` themselves.
fn traffic_engine(engine: &SpEngine, config: &StructRideConfig) -> Option<SpEngine> {
    (!config.traffic.is_static()).then(|| {
        SpEngineBuilder::new()
            .traffic(config.traffic)
            .build(engine.network().clone())
    })
}

impl Scenario {
    /// The quickstart-style scenario the `record` / `verify` flows run: an
    /// NYC-like city on the monolithic pipeline; a Chengdu-like and an
    /// NYC-like region side by side when sharded.  An ingested one replaces
    /// `config.ingest` with knobs that compress the stream into well under a
    /// second of wall clock, so CI record steps stay fast.
    pub fn quickstart(
        quick: bool,
        dispatcher: &str,
        pipeline: Pipeline,
        source: Source,
        config: StructRideConfig,
    ) -> Scenario {
        let workload = match pipeline {
            Pipeline::Mono => ScenarioWorkload::Single(WorkloadParams {
                num_requests: if quick { 80 } else { 240 },
                num_vehicles: if quick { 12 } else { 40 },
                horizon: if quick { 120.0 } else { 300.0 },
                scale: 0.3,
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
                time_scale: if quick { 240.0 } else { 120.0 },
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

    /// Runs the scenario and returns its trace — metadata from
    /// [`Scenario::to_params`], plus SARD's shareability-graph build counters
    /// on the monolithic pipeline — and the [`Checkpoint`]s the run's
    /// fault-plan cadence produced (empty unless
    /// `config.faults.checkpoint_every > 0` on a clock-driven run; capture
    /// is a pure read, so the trace is the same either way).  The engine's
    /// shortest-path counters are not recorded: their hit/index split races
    /// on same-key cache misses, and a recording must be byte-identical
    /// under any worker count.
    ///
    /// # Panics
    /// Panics if `dispatcher` is not a registered key.
    pub fn record(&self) -> (Trace, Vec<Checkpoint>) {
        self.run(&self.dispatcher, None, None)
    }

    /// [`Scenario::record`], reporting every batch's stage spans to
    /// `observer` (see `structride_core::stages`), clock-driven or
    /// ingested.
    ///
    /// # Panics
    /// Panics if `dispatcher` is not a registered key.
    pub fn record_observed(&self, observer: &mut dyn RunObserver) -> (Trace, Vec<Checkpoint>) {
        self.run(&self.dispatcher, None, Some(observer))
    }

    /// Checks `trace` — a recording of this scenario — against a fresh run
    /// of the `dispatcher` key on the regenerated workload.  A monolithic
    /// trace (clock-driven or ingested: the realized boundaries are in the
    /// trace) is replayed batch by batch ([`replay_trace`]).  A sharded one
    /// cannot be replayed through a single dispatcher, so the whole pipeline
    /// is re-run — from the batch clock, or from the recorded boundaries
    /// when ingested — and the two global traces are diffed
    /// ([`diff_traces`]).
    ///
    /// # Panics
    /// Panics if `dispatcher` is not a registered key.
    pub fn check(&self, trace: &Trace, dispatcher: &str) -> DriftReport {
        if self.pipeline == Pipeline::Mono {
            let (_, engine, _, _) = generate(&self.workload);
            let traffic = traffic_engine(&engine, &self.config);
            let engine = traffic.as_ref().unwrap_or(&engine);
            return replay_trace(engine, registered(dispatcher, self.config).as_mut(), trace);
        }
        let boundaries: Vec<(f64, Vec<Request>)> = trace
            .batches
            .iter()
            .map(|b| (b.now, b.requests.clone()))
            .collect();
        diff_traces(trace, &self.run(dispatcher, Some(&boundaries), None).0)
    }

    /// One recorded run of the scenario under `dispatcher`.  A sharded
    /// ingested run is fed `boundaries` — the realized batches of an earlier
    /// recording — when given, instead of ingesting live: the boundaries are
    /// the nondeterministic part, and given them the pipeline must be
    /// bit-identical.  (Monolithic traces never need re-feeding: they replay
    /// batch by batch.)  `observer` sees the run's stage spans.
    fn run(
        &self,
        dispatcher: &str,
        boundaries: Option<&[(f64, Vec<Request>)]>,
        observer: Option<&mut dyn RunObserver>,
    ) -> (Trace, Vec<Checkpoint>) {
        const FRESH: &str = "a fresh run of a generated stream is never refused";
        let (name, engine, requests, vehicles) = generate(&self.workload);
        let config = self.config;
        let mut recorder = TraceRecorder::new();
        let mut checkpoints = Vec::new();
        let mut push = |c| checkpoints.push(c);
        let hooks = RunHooks {
            recorder: Some(&mut recorder),
            checkpoints: Some(&mut push),
            observer: observer.map(|o| -> &mut dyn RunObserver { o }),
        };
        let source = match (self.source, boundaries) {
            (Source::Clock, _) => BatchSource::Clock(&requests),
            (Source::Ingest, None) => BatchSource::Ingest(Box::new(requests.iter().cloned())),
            (Source::Ingest, Some(fed)) => BatchSource::Fed(fed),
        };
        let (algorithm, build_stats) = match self.pipeline {
            Pipeline::Mono => {
                let traffic = traffic_engine(&engine, &config);
                let engine = traffic.as_ref().unwrap_or(&engine);
                // SARD is built concretely so its build stats can be
                // captured; every other dispatcher goes through the registry.
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
                sim.execute(engine, source, vehicles, dispatcher, &name, hooks)
                    .expect(FRESH);
                let algorithm = dispatcher.name().to_string();
                (algorithm, sard.and_then(|s| s.build_stats()))
            }
            Pipeline::Sharded { shards, sharding } => {
                let net = engine.network();
                let regions = region_strips_for(net, shards.get() as u32);
                let sim = ShardedSimulator::with_sharding(config, sharding);
                let make = |_| registered(dispatcher, config);
                sim.execute(net, &regions, source, vehicles, make, &name, hooks)
                    .expect(FRESH);
                (make(0).name().to_string(), None)
            }
        };
        let mut meta = TraceMeta::new(algorithm, &name, config);
        meta.params = self.to_params();
        meta.build_stats = build_stats;
        (recorder.into_trace(meta), checkpoints)
    }

    /// Resumes `checkpoint` and verifies the finished run lands
    /// bit-identically on the uninterrupted reference, re-run in process
    /// from the scenario.  Returns the mismatches — empty means zero drift.
    /// A checkpoint the simulator refuses to resume — another workload,
    /// configuration, dispatcher, pipeline or shard count
    /// ([`ResumeError`](structride_core::ResumeError)) — is reported as a
    /// mismatch too, not a panic.
    ///
    /// # Panics
    /// Panics if `dispatcher` is not a registered key.
    pub fn resume_and_verify(&self, checkpoint: &Checkpoint) -> Vec<String> {
        let (name, engine, requests, vehicles) = generate(&self.workload);
        let config = self.config;
        let source = BatchSource::Resume(&requests, checkpoint);
        let make = |_| registered(&self.dispatcher, config);
        let sharded_finish = |r: &ShardedReport| {
            let mut lanes = vec![("aggregate".to_string(), &r.aggregate)];
            let shards = r.per_shard.iter().enumerate();
            lanes.extend(shards.map(|(i, m)| (format!("shard {i}"), m)));
            let counters = [
                r.handoffs,
                r.handoff_bids,
                r.migrations,
                r.epoch_rolls,
                r.faults_injected,
                r.batches_degraded,
                r.degraded_offered,
                r.degraded_served,
            ];
            finish(&lanes, &counters, &r.served, &r.vehicles)
        };
        let mono_finish = |r: &SimulationReport| {
            finish(&[("run".into(), &r.metrics)], &[], &r.served, &r.vehicles)
        };
        let finished = match self.pipeline {
            Pipeline::Sharded { shards, sharding } => {
                let net = engine.network();
                let regions = region_strips_for(net, shards.get() as u32);
                let sim = ShardedSimulator::with_sharding(config, sharding);
                let hooks = RunHooks::default();
                sim.execute(net, &regions, source, Vec::new(), make, &name, hooks)
                    .map(|resumed| {
                        let reference = sim.run(net, &regions, &requests, vehicles, make, &name);
                        (sharded_finish(&resumed), sharded_finish(&reference))
                    })
            }
            Pipeline::Mono => {
                let sim = Simulator::new(config);
                let traffic = traffic_engine(&engine, &config);
                let resume_engine = traffic.as_ref().unwrap_or(&engine);
                let hooks = RunHooks::default();
                sim.execute(
                    resume_engine,
                    source,
                    Vec::new(),
                    make(0).as_mut(),
                    &name,
                    hooks,
                )
                .map(|resumed| {
                    let traffic = traffic_engine(&engine, &config);
                    let engine = traffic.as_ref().unwrap_or(&engine);
                    let reference = sim.run(engine, &requests, vehicles, make(0).as_mut(), &name);
                    (mono_finish(&resumed), mono_finish(&reference))
                })
            }
        };
        match finished {
            Ok((resumed, reference)) => resumed
                .iter()
                .zip(&reference)
                .filter(|(a, b)| a.1 != b.1)
                .map(|((what, _), _)| format!("{what} diverged"))
                .collect(),
            Err(e) => vec![format!("cannot resume: {e}")],
        }
    }
}

/// What a resumed run must reproduce bit for bit, as labelled renderings:
/// each lane's metrics with the wall-clock diagnostics `running_time`,
/// `sp_queries` and `memory_bytes` and the score-memo counters zeroed
/// (`Debug` is exact for floats; a resumed run starts with a cold memo), the
/// sharded run counters, the served set and the final fleet.
fn finish(
    lanes: &[(String, &RunMetrics)],
    counters: &[u64],
    served: &HashSet<RequestId>,
    fleet: &[Vehicle],
) -> Vec<(String, String)> {
    let zeroed = |m: &RunMetrics| RunMetrics {
        running_time: 0.0,
        sp_queries: 0,
        memory_bytes: 0,
        memo_lookups: 0,
        memo_hits: 0,
        ..m.clone()
    };
    let mut parts: Vec<(String, String)> = lanes
        .iter()
        .map(|(lane, m)| (format!("{lane} metrics"), format!("{:?}", zeroed(m))))
        .collect();
    let mut served: Vec<&RequestId> = served.iter().collect();
    served.sort_unstable();
    let fleet: Vec<VehicleState> = fleet.iter().map(VehicleState::capture).collect();
    parts.push(("run counters".to_string(), format!("{counters:?}")));
    parts.push(("served request set".to_string(), format!("{served:?}")));
    parts.push(("final fleet state".to_string(), format!("{fleet:?}")));
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use structride_core::FaultConfig;

    fn quick(pipeline: Pipeline, source: Source, key: &str, config: StructRideConfig) -> Scenario {
        Scenario::quickstart(true, key, pipeline, source, config)
    }

    fn sharded(shards: usize, sharding: ShardingConfig) -> Pipeline {
        let shards = NonZeroUsize::new(shards).expect("non-zero");
        Pipeline::Sharded { shards, sharding }
    }

    #[test]
    fn every_key_builds_a_dispatcher() {
        let config = StructRideConfig::default();
        let keys = dispatcher_keys();
        for key in &keys {
            assert!(dispatcher_by_name(key, config).is_some(), "{key}");
        }
        // The registry carries the exact dispatcher, and mixed case and the
        // legacy alias still resolve.
        assert!(keys.contains(&"assign"));
        assert!(dispatcher_by_name("SARD", config).is_some());
        assert!(dispatcher_by_name("gdp", config).is_some());
        assert!(dispatcher_by_name("nope", config).is_none());
        for key in TRAFFIC_KEYS {
            let traffic = traffic_by_name(key, 120.0).expect(key);
            assert!(!traffic.is_static(), "{key}");
        }
        assert!(traffic_by_name("gridlock", 120.0).is_none());
    }

    #[test]
    fn every_shape_round_trips_through_meta_and_regenerates_its_workload() {
        let knobs = ShardingConfig {
            handoff_band: 312.5,
            rebalance: false,
            max_migrations_per_batch: 7,
            top_m: 9,
        };
        // (pipeline, source, where `mode` sits and what it says)
        let shapes = [
            (Pipeline::Mono, Source::Clock, None),
            (Pipeline::Mono, Source::Ingest, Some((9, "ingested"))),
            (sharded(3, knobs), Source::Clock, Some((0, "sharded"))),
            (
                sharded(3, knobs),
                Source::Ingest,
                Some((0, "sharded-ingested")),
            ),
        ];
        let capture = |f: &[Vehicle]| f.iter().map(VehicleState::capture).collect::<Vec<_>>();
        for (pipeline, source, mode) in shapes {
            let scenario = quick(pipeline, source, "gas", StructRideConfig::default());
            let mut meta = TraceMeta::new("GAS", "w", scenario.config);
            meta.params = scenario.to_params();
            let at = meta.params.iter().position(|(k, _)| k == "mode");
            assert_eq!(at.map(|i| (i, meta.params[i].1.as_str())), mode);
            assert_eq!(
                meta.params.last().map(|(k, _)| k.as_str()),
                Some("dispatcher")
            );
            let parsed = Scenario::from_meta(&meta).expect("round trip");
            assert_eq!(parsed, scenario);
            let (name, _, requests, vehicles) = generate(&scenario.workload);
            let (name2, _, requests2, vehicles2) = generate(&parsed.workload);
            assert_eq!((name, requests), (name2, requests2));
            assert_eq!(capture(&vehicles), capture(&vehicles2));
        }
    }

    #[test]
    fn strict_codec_names_the_offending_key() {
        use ScenarioError::*;
        let config = StructRideConfig::default();
        let from = |params: Vec<(String, String)>| {
            let mut meta = TraceMeta::new("SARD", "w", config);
            meta.params = params;
            Scenario::from_meta(&meta)
        };
        let pair = |k: &str, v: &str| (k.to_string(), v.to_string());
        let good = quick(
            sharded(2, ShardingConfig::default()),
            Source::Clock,
            "sard",
            config,
        );
        let good = good.to_params();
        assert_eq!(from(good.clone()).map(|s| s.to_params()), Ok(good.clone()));
        // No silent default for a key an older recording might lack.
        let without = good.iter().filter(|(k, _)| k != "top_m").cloned().collect();
        assert_eq!(from(without), Err(Missing("top_m")));
        let bogus = [good.clone(), vec![pair("bogus", "7")]].concat();
        assert_eq!(from(bogus), Err(Unknown("bogus".into())));
        let twice = [good.clone(), vec![pair("seed", "42")]].concat();
        assert_eq!(from(twice), Err(Duplicate("seed".into())));
        for (key, value) in [
            ("mode", "shraded"),
            ("shards", "0"),
            ("capacity", "four"),
            ("cities", "CHD,Atlantis"),
            ("dispatcher", "nope"),
        ] {
            let edited = good
                .iter()
                .map(|(k, v)| pair(k, if k == key { value } else { v }));
            assert_eq!(
                from(edited.collect()),
                Err(BadValue(key.into(), value.into()))
            );
        }
        // A monolithic trace has no sharding knobs; a bare one lacks a city.
        let mono = quick(Pipeline::Mono, Source::Clock, "sard", config).to_params();
        let knob = [mono, vec![pair("top_m", "64")]].concat();
        assert_eq!(from(knob), Err(Unknown("top_m".into())));
        let bare = from(Vec::new()).expect_err("no params");
        assert_eq!(bare.to_string(), "missing param `city`");
    }

    #[test]
    fn ingested_recordings_check_clean_from_text_and_flag_a_different_dispatcher() {
        let config = StructRideConfig::default();
        for pipeline in [Pipeline::Mono, sharded(2, ShardingConfig::default())] {
            let scenario = quick(pipeline, Source::Ingest, "sard", config);
            let (trace, checkpoints) = scenario.record();
            assert!(checkpoints.is_empty());
            assert!(!trace.batches.is_empty());
            // SARD's build counters ride along on the monolithic pipeline,
            // whatever the source.
            let mono = pipeline == Pipeline::Mono;
            assert_eq!(trace.meta.build_stats.is_some(), mono);
            // The realized boundaries are in the trace: a monolithic trace
            // replays batch by batch, a sharded one re-runs from them.
            let parsed = Trace::parse(&trace.to_text()).expect("parse");
            assert_eq!(Scenario::from_meta(&parsed.meta).as_ref(), Ok(&scenario));
            let report = scenario.check(&parsed, "sard");
            assert!(report.is_clean(), "{report}");
            let drift = scenario.check(&parsed, "prunegdp");
            assert!(!drift.is_clean(), "a different dispatcher must drift");
        }
    }

    #[test]
    fn sharded_traffic_record_reruns_clean() {
        let traffic = structride_datagen::rush_hour(30.0, 15.0);
        let config = StructRideConfig::default().with_traffic(traffic);
        let scenario = quick(
            sharded(3, ShardingConfig::default()),
            Source::Clock,
            "sard",
            config,
        );
        let (trace, checkpoints) = scenario.record();
        assert!(checkpoints.is_empty(), "no cadence, no checkpoints");
        let report = scenario.check(&trace, "sard");
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn chaos_checkpointed_records_check_clean_and_resume_clean() {
        let chaos = StructRideConfig::default().with_faults(FaultConfig::chaos());
        let rush = chaos.with_traffic(structride_datagen::rush_hour(30.0, 15.0));
        // `assign` on the monolithic pipeline, so the chaos solver node
        // budget actually gates the exact solver on the resumed half too.
        // The static sharded run resumes on a fixed-slot engine, the rush
        // one on a rolling engine.
        let three = sharded(3, ShardingConfig::default());
        for scenario in [
            quick(Pipeline::Mono, Source::Clock, "assign", chaos),
            quick(three, Source::Clock, "sard", chaos),
            quick(three, Source::Clock, "sard", rush),
        ] {
            let (trace, checkpoints) = scenario.record();
            assert!(!checkpoints.is_empty(), "the chaos cadence must fire");
            let is_sharded = scenario.pipeline != Pipeline::Mono;
            assert!(checkpoints.iter().all(|c| c.sharded == is_sharded));
            // The faulted trace checks clean (the fault schedule re-derives
            // from the config serialized into the trace).
            let report = scenario.check(&trace, &scenario.dispatcher);
            assert!(report.is_clean(), "{report}");
            // A run resumed from the text-round-tripped mid-run checkpoint
            // finishes bit-identically to the uninterrupted reference.
            let picked = &checkpoints[checkpoints.len() / 2];
            let reparsed = Checkpoint::parse(&picked.to_text()).expect("checkpoint codec");
            let mismatches = scenario.resume_and_verify(&reparsed);
            assert!(mismatches.is_empty(), "{mismatches:?}");
            // A checkpoint from some other run is rejected loudly.
            let mut bogus = reparsed;
            bogus.workload = "other-workload".to_string();
            assert!(!scenario.resume_and_verify(&bogus).is_empty());
        }
    }
}
