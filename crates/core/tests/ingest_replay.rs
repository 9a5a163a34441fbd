//! The ingested form of the replay invariant.
//!
//! Wall-clock adaptive batching makes the *boundaries* of an ingested run
//! nondeterministic — but a recorded run captures the realized boundaries,
//! and given those the pipeline must replay bit-identically under any
//! worker count.  These tests record ingested runs (monolithic and sharded)
//! once and verify them under 1 and 8 worker threads.  The same re-run path
//! also pins that batch *sources* are interchangeable: the boundaries the
//! Δ-clock realizes, fed back explicitly, reach the identical steps.

use structride_core::replay::{diff_traces, replay_trace, Trace, TraceMeta, TraceRecorder};
use structride_core::shard::region_strips_for;
use structride_core::{
    BatchSource, IngestConfig, IngestError, RunHooks, SardDispatcher, ShardedSimulator,
    ShardingConfig, Simulator, StageTable, StructRideConfig,
};
use structride_datagen::{
    CityProfile, MultiRegionParams, MultiRegionWorkload, Workload, WorkloadParams,
};

const HEALTHY: &str = "healthy producer";

/// Hooks that only record the run's trace.
fn recording(recorder: &mut TraceRecorder) -> RunHooks<'_> {
    RunHooks {
        recorder: Some(recorder),
        ..RunHooks::default()
    }
}

fn in_pool<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
        .install(op)
}

fn ingest_config() -> IngestConfig {
    IngestConfig {
        max_batch_size: 24,
        batch_deadline: 0.005,
        queue_capacity: 4096,
        // Compress the ~120 s stream into well under a second of wall clock.
        time_scale: 600.0,
    }
}

fn small_workload() -> Workload {
    Workload::generate(WorkloadParams {
        num_requests: 70,
        num_vehicles: 10,
        horizon: 120.0,
        scale: 0.3,
        ..WorkloadParams::small(CityProfile::NycLike)
    })
}

#[test]
fn ingested_run_accounts_for_every_arrival() {
    let w = small_workload();
    let run = |ingest: IngestConfig| {
        let config = StructRideConfig::default().with_ingest(ingest);
        let mut sard = SardDispatcher::new(config);
        Simulator::new(config)
            .run_ingested(
                &w.engine,
                w.requests.iter().cloned(),
                w.fresh_vehicles(),
                &mut sard,
                &w.name,
            )
            .expect("healthy producer")
    };
    // The paced stream, and a flood: every arrival is due at once into a
    // two-slot queue, so the producer must load-shed.
    let flood = IngestConfig {
        queue_capacity: 2,
        time_scale: 1e9,
        ..ingest_config()
    };
    let paced = run(ingest_config());
    let flooded = run(flood);
    for (report, ingest) in [(&paced, ingest_config()), (&flooded, flood)] {
        let stats = &report.ingest;
        assert_eq!(stats.arrivals, w.requests.len());
        assert_eq!(
            stats.dispatched + stats.dropped_queue_full + stats.timed_out,
            stats.arrivals,
            "every arrival is dispatched, load-shed or timed out"
        );
        assert_eq!(report.metrics.total_requests, w.requests.len());
        assert!(report.metrics.served_requests <= stats.dispatched);
        assert!(
            stats.max_queue_depth <= ingest.queue_capacity,
            "queue depth {} above capacity {}",
            stats.max_queue_depth,
            ingest.queue_capacity
        );
    }
    assert!(
        flooded.ingest.dropped_queue_full > 0,
        "the flood load-sheds"
    );

    // The same flood through two shards: the arrivals the front end shed or
    // timed out never reach a shard's routed ledger, yet each is charged
    // once, as unserved.
    let workload = two_city_workload();
    let config = StructRideConfig::default().with_ingest(flood);
    let sharded = ShardedSimulator::new(config)
        .execute(
            workload.network(),
            &region_strips_for(workload.network(), 2),
            BatchSource::Ingest(Box::new(workload.requests.iter().cloned())),
            workload.fresh_vehicles(),
            |_| Box::new(SardDispatcher::new(config)),
            &workload.name,
            RunHooks::default(),
        )
        .expect(HEALTHY);
    let stats = sharded
        .ingest
        .expect("an ingested run reports ingest stats");
    assert_eq!(stats.arrivals, workload.requests.len());
    assert!(
        stats.dropped_queue_full + stats.timed_out > 0,
        "the flood sheds"
    );
    assert_eq!(sharded.aggregate.total_requests, stats.arrivals);
    assert!(sharded.aggregate.served_requests <= stats.dispatched);

    let stats = &paced.ingest;
    assert!(paced.metrics.served_requests > 0, "some requests served");
    assert!(stats.batches > 0);
    assert!(stats.wall_seconds > 0.0);
    assert!(stats.throughput_rps > 0.0);
    assert!(stats.batch_latency_p99_ms >= stats.batch_latency_p50_ms);
    // The size cap was respected.
    assert!(stats.mean_batch_size <= ingest_config().max_batch_size as f64);
}

#[test]
fn recorded_ingested_run_replays_bit_identically_across_worker_counts() {
    let w = small_workload();
    let config = StructRideConfig::default().with_ingest(ingest_config());
    let mut recorder = TraceRecorder::new();
    let mut sard = SardDispatcher::new(config);
    Simulator::new(config)
        .execute(
            &w.engine,
            BatchSource::Ingest(Box::new(w.requests.iter().cloned())),
            w.fresh_vehicles(),
            &mut sard,
            &w.name,
            recording(&mut recorder),
        )
        .expect(HEALTHY);
    let trace = recorder.into_trace(TraceMeta::new("SARD", &w.name, config));
    assert!(!trace.batches.is_empty());

    for threads in [1usize, 8] {
        let report = in_pool(threads, || {
            let mut fresh = SardDispatcher::new(config);
            replay_trace(&w.engine, &mut fresh, &trace)
        });
        assert!(
            report.is_clean(),
            "ingested replay drifted under {threads} threads:\n{report}"
        );
        assert_eq!(report.batches_compared, trace.batches.len());
    }

    // The codec handles ingested traces (including the ingest config
    // fields) exactly.
    let text = trace.to_text();
    let parsed = structride_core::Trace::parse(&text).expect("parse ingested trace");
    assert_eq!(parsed, trace);
    assert_eq!(parsed.meta.config.ingest, config.ingest);
}

fn two_city_workload() -> MultiRegionWorkload {
    MultiRegionWorkload::generate(MultiRegionParams {
        requests_per_region: 40,
        vehicles_per_region: 7,
        horizon: 100.0,
        scale: 0.3,
        ..MultiRegionParams::small(vec![CityProfile::ChengduLike, CityProfile::NycLike])
    })
}

/// Feeds the recorded `(now, requests)` boundaries of `trace` back through
/// `execute` with [`BatchSource::Fed`] on two strips under each worker count and requires
/// the re-run trace to match `trace` bit for bit.
fn assert_fed_rerun_matches(
    sim: &ShardedSimulator,
    workload: &MultiRegionWorkload,
    trace: &Trace,
    worker_counts: [usize; 2],
) {
    let config = *sim.config();
    let regions = region_strips_for(workload.network(), 2);
    let boundaries: Vec<(f64, Vec<structride_model::Request>)> = trace
        .batches
        .iter()
        .map(|b| (b.now, b.requests.clone()))
        .collect();
    for threads in worker_counts {
        let rerun_trace = in_pool(threads, || {
            let mut rec = TraceRecorder::new();
            sim.execute(
                workload.network(),
                &regions,
                BatchSource::Fed(&boundaries),
                workload.fresh_vehicles(),
                |_| Box::new(SardDispatcher::new(config)),
                &workload.name,
                recording(&mut rec),
            )
            .expect("a fed run is never refused");
            rec.into_trace(trace.meta.clone())
        });
        let report = diff_traces(trace, &rerun_trace);
        assert!(
            report.is_clean(),
            "boundary-fed re-run drifted under {threads} threads:\n{report}"
        );
        assert_eq!(report.batches_compared, trace.batches.len());
    }
}

#[test]
fn sharded_ingested_run_reruns_bit_identically_from_recorded_boundaries() {
    let workload = two_city_workload();
    let config = StructRideConfig::default().with_ingest(ingest_config());
    let sim = ShardedSimulator::new(config);

    let mut recorder = TraceRecorder::new();
    let ingested = sim
        .execute(
            workload.network(),
            &region_strips_for(workload.network(), 2),
            BatchSource::Ingest(Box::new(workload.requests.iter().cloned())),
            workload.fresh_vehicles(),
            |_| Box::new(SardDispatcher::new(config)),
            &workload.name,
            recording(&mut recorder),
        )
        .expect(HEALTHY);
    assert!(ingested.aggregate.served_requests > 0);
    let trace = recorder.into_trace(TraceMeta::new("SARD", &workload.name, config));
    assert!(!trace.batches.is_empty());
    assert_fed_rerun_matches(&sim, &workload, &trace, [1, 8]);
}

#[test]
fn clock_driven_boundaries_fed_back_reach_the_same_steps() {
    // The Δ-clock and the fed-boundaries loop are two sources over one
    // kernel: what the clock slices, fed back explicitly, must step
    // identically — handoff auction and rebalancing included.
    let workload = two_city_workload();
    let config = StructRideConfig::default();
    let sharding = ShardingConfig::default();
    assert!(sharding.handoff_band > 0.0 && sharding.rebalance);
    let sim = ShardedSimulator::with_sharding(config, sharding);

    let mut recorder = TraceRecorder::new();
    let clocked = sim
        .execute(
            workload.network(),
            &region_strips_for(workload.network(), 2),
            BatchSource::Clock(&workload.requests),
            workload.fresh_vehicles(),
            |_| Box::new(SardDispatcher::new(config)),
            &workload.name,
            recording(&mut recorder),
        )
        .expect("a clock-driven run is never refused");
    assert!(clocked.aggregate.served_requests > 0);
    let trace = recorder.into_trace(TraceMeta::new("SARD", &workload.name, config));
    assert!(!trace.batches.is_empty());
    assert_fed_rerun_matches(&sim, &workload, &trace, [1, 4]);
}

#[test]
fn panicked_producer_surfaces_as_a_structured_error() {
    let w = small_workload();
    let config = StructRideConfig::default().with_ingest(ingest_config());
    let mut sard = SardDispatcher::new(config);
    // A corrupt arrival source: five real requests, then a panic on the
    // producer thread.  This used to cascade — `join().expect(..)`
    // re-panicked the consumer — and must now come back as a structured
    // error carrying the producer's message.
    let poisoned = w
        .requests
        .iter()
        .take(5)
        .cloned()
        .chain(std::iter::once_with(|| -> structride_model::Request {
            panic!("corrupt arrival record")
        }));
    let err = Simulator::new(config)
        .run_ingested(&w.engine, poisoned, w.fresh_vehicles(), &mut sard, &w.name)
        .expect_err("producer panic must surface as an error");
    let IngestError::ProducerPanicked(msg) = err;
    assert!(msg.contains("corrupt arrival record"), "{msg}");
}

/// The `(now, requests)` boundaries a trace recorded.
fn boundaries_of(trace: &Trace) -> Vec<(f64, Vec<structride_model::Request>)> {
    trace
        .batches
        .iter()
        .map(|b| (b.now, b.requests.clone()))
        .collect()
}

#[test]
fn fed_clock_boundaries_rerecord_byte_identically_on_both_pipelines() {
    // A clock-driven recording, re-run from its own boundaries through
    // `BatchSource::Fed`, must write the very same trace text — on the
    // monolithic pipeline and on two shards.
    let config = StructRideConfig::default();
    let w = small_workload();
    let meta = TraceMeta::new("SARD", &w.name, config);
    let mono = Simulator::new(config);
    let mut recorder = TraceRecorder::new();
    mono.run_recorded(
        &w.engine,
        &w.requests,
        w.fresh_vehicles(),
        &mut SardDispatcher::new(config),
        &w.name,
        &mut recorder,
    );
    let clocked = recorder.into_trace(meta.clone());
    assert!(!clocked.batches.is_empty());
    let boundaries = boundaries_of(&clocked);
    let mut recorder = TraceRecorder::new();
    mono.execute(
        &w.engine,
        BatchSource::Fed(&boundaries),
        w.fresh_vehicles(),
        &mut SardDispatcher::new(config),
        &w.name,
        recording(&mut recorder),
    )
    .expect("a fed run is never refused");
    assert_eq!(recorder.into_trace(meta).to_text(), clocked.to_text());

    let workload = two_city_workload();
    let meta = TraceMeta::new("SARD", &workload.name, config);
    let regions = region_strips_for(workload.network(), 2);
    let sharded = ShardedSimulator::new(config);
    let record = |source: BatchSource<'_>| {
        let mut recorder = TraceRecorder::new();
        sharded
            .execute(
                workload.network(),
                &regions,
                source,
                workload.fresh_vehicles(),
                |_| Box::new(SardDispatcher::new(config)),
                &workload.name,
                recording(&mut recorder),
            )
            .expect("clock-driven and fed runs are never refused");
        recorder.into_trace(meta.clone())
    };
    let clocked = record(BatchSource::Clock(&workload.requests));
    assert!(!clocked.batches.is_empty());
    let boundaries = boundaries_of(&clocked);
    assert_eq!(
        record(BatchSource::Fed(&boundaries)).to_text(),
        clocked.to_text()
    );
}

#[test]
fn observed_ingested_run_reports_every_batch_and_replays_clean() {
    let w = small_workload();
    let config = StructRideConfig::default().with_ingest(ingest_config());
    let mut recorder = TraceRecorder::new();
    let mut table = StageTable::new();
    let report = Simulator::new(config)
        .execute(
            &w.engine,
            BatchSource::Ingest(Box::new(w.requests.iter().cloned())),
            w.fresh_vehicles(),
            &mut SardDispatcher::new(config),
            &w.name,
            RunHooks {
                recorder: Some(&mut recorder),
                observer: Some(&mut table),
                ..RunHooks::default()
            },
        )
        .expect(HEALTHY);
    assert!(report.ingest.is_some(), "an ingested run reports its queue");
    assert!(report.metrics.batches > 0);
    assert_eq!(table.rows.len(), report.metrics.batches);
    let trace = recorder.into_trace(TraceMeta::new("SARD", &w.name, config));
    let drift = replay_trace(&w.engine, &mut SardDispatcher::new(config), &trace);
    assert!(drift.is_clean(), "observed ingested run drifted:\n{drift}");
    assert_eq!(drift.batches_compared, report.metrics.batches);
}
