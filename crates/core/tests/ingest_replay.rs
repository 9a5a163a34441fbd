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
    IngestConfig, IngestError, SardDispatcher, ShardedSimulator, ShardingConfig, Simulator,
    StructRideConfig,
};
use structride_datagen::{
    CityProfile, MultiRegionParams, MultiRegionWorkload, Workload, WorkloadParams,
};

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
        .run_ingested_recorded(
            &w.engine,
            w.requests.iter().cloned(),
            w.fresh_vehicles(),
            &mut sard,
            &w.name,
            &mut recorder,
        )
        .expect("healthy producer");
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
/// `run_fed_recorded` on two strips under each worker count and requires
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
            sim.run_fed_recorded(
                workload.network(),
                &regions,
                &boundaries,
                workload.fresh_vehicles(),
                |_| Box::new(SardDispatcher::new(config)),
                &workload.name,
                &mut rec,
            );
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
        .run_ingested_recorded(
            workload.network(),
            &region_strips_for(workload.network(), 2),
            workload.requests.iter().cloned(),
            workload.fresh_vehicles(),
            |_| Box::new(SardDispatcher::new(config)),
            &workload.name,
            &mut recorder,
        )
        .expect("healthy producer");
    assert!(ingested.report.aggregate.served_requests > 0);
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
    let clocked = sim.run_recorded(
        workload.network(),
        &region_strips_for(workload.network(), 2),
        &workload.requests,
        workload.fresh_vehicles(),
        |_| Box::new(SardDispatcher::new(config)),
        &workload.name,
        &mut recorder,
    );
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
