//! The record / check / resume flows behind the `replay` binary, over the
//! typed [`Scenario`] a trace was recorded from (see [`crate::scenario`]),
//! and the `--traffic` scenario keys.

use structride_core::replay::{
    diff_traces, replay_trace, Checkpoint, DriftReport, Trace, TraceMeta, TraceRecorder,
};
use structride_core::{BatchSource, RunHooks, RunMetrics, RunObserver};
use structride_model::{Request, RequestId};
use structride_roadnet::TrafficConfig;

use crate::scenario::{registered, traffic_engine, Finished, Pipeline, Scenario, Source};

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

impl Scenario {
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
            let engine = self.workload.generate().engine;
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
        let generated = self.workload.generate();
        let mut recorder = TraceRecorder::new();
        let mut checkpoints = Vec::new();
        let mut push = |c| checkpoints.push(c);
        let hooks = RunHooks {
            recorder: Some(&mut recorder),
            checkpoints: Some(&mut push),
            observer: observer.map(|o| -> &mut dyn RunObserver { o }),
        };
        let requests = &generated.requests;
        let source = match (self.source, boundaries) {
            (Source::Clock, _) => BatchSource::Clock(requests),
            (Source::Ingest, None) => BatchSource::Ingest(Box::new(requests.iter().cloned())),
            (Source::Ingest, Some(fed)) => BatchSource::Fed(fed),
        };
        let vehicles = generated.vehicles.clone();
        let finished = self
            .execute(&generated, dispatcher, source, vehicles, hooks)
            .expect("a fresh run of a generated stream is never refused");
        let algorithm = &finished.lanes[0].1.algorithm;
        let mut meta = TraceMeta::new(algorithm, &generated.name, self.config);
        meta.params = self.to_params();
        meta.build_stats = finished.build_stats;
        (recorder.into_trace(meta), checkpoints)
    }

    /// Resumes `checkpoint` and verifies the finished run lands
    /// bit-identically on the uninterrupted reference, re-run in process
    /// from the scenario.  Returns the mismatches — empty means zero drift.
    /// A checkpoint the simulator refuses to resume — another workload,
    /// configuration, dispatcher or shard count
    /// ([`ResumeError`](structride_core::ResumeError)) — is reported as a
    /// mismatch too, not a panic.
    ///
    /// # Panics
    /// Panics if `dispatcher` is not a registered key.
    pub fn resume_and_verify(&self, checkpoint: &Checkpoint) -> Vec<String> {
        let generated = self.workload.generate();
        let (key, requests) = (&self.dispatcher, &generated.requests);
        let source = BatchSource::Resume(requests, checkpoint);
        let hooks = RunHooks::default();
        let resumed = match self.execute(&generated, key, source, Vec::new(), hooks) {
            Ok(resumed) => resumed,
            Err(e) => return vec![format!("cannot resume: {e}")],
        };
        let (source, vehicles) = (BatchSource::Clock(requests), generated.vehicles.clone());
        let reference = self
            .execute(&generated, key, source, vehicles, RunHooks::default())
            .expect("a clock-driven run is never refused");
        finish(&resumed)
            .iter()
            .zip(&finish(&reference))
            .filter(|(a, b)| a.1 != b.1)
            .map(|((what, _), _)| format!("{what} diverged"))
            .collect()
    }
}

/// What a resumed run must reproduce bit for bit, as labelled renderings:
/// each lane's metrics with the wall-clock diagnostics `running_time` and
/// `sp_queries`, `memory_bytes` (a resumed run's peak covers only the
/// resumed batches) and the score-memo counters zeroed (`Debug` is exact for
/// floats; a resumed run starts with a cold memo), the sharded run counters,
/// the served set and the final fleet.
fn finish(run: &Finished) -> Vec<(String, String)> {
    let zeroed = |m: &RunMetrics| RunMetrics {
        running_time: 0.0,
        sp_queries: 0,
        memory_bytes: 0,
        memo_lookups: 0,
        memo_hits: 0,
        ..m.clone()
    };
    let mut parts: Vec<(String, String)> = run
        .lanes
        .iter()
        .map(|(lane, m)| (format!("{lane} metrics"), format!("{:?}", zeroed(m))))
        .collect();
    let mut served: Vec<&RequestId> = run.served.iter().collect();
    served.sort_unstable();
    parts.push(("run counters".to_string(), format!("{:?}", run.counters)));
    parts.push(("served request set".to_string(), format!("{served:?}")));
    parts.push(("final fleet state".to_string(), format!("{:?}", run.fleet)));
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{dispatcher_by_name, dispatcher_keys, ScenarioError, Size};
    use std::num::NonZeroUsize;
    use structride_core::shard::ShardingConfig;
    use structride_core::{FaultConfig, StructRideConfig};

    fn quick(pipeline: Pipeline, source: Source, key: &str, config: StructRideConfig) -> Scenario {
        Scenario::quickstart(Size::Quick, key, pipeline, source, config)
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
            let a = scenario.workload.generate();
            let b = parsed.workload.generate();
            assert_eq!((a.name, a.requests), (b.name, b.requests));
            assert_eq!(a.vehicles, b.vehicles);
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
