//! Criterion micro-benchmarks of the core operations every dispatcher is
//! built from: shortest-path queries, linear insertion, the pairwise
//! shareability test, shareability-graph construction and request grouping.
//!
//! These are the building blocks behind the running-time panels of
//! Figs. 8–13; the repo benchmark under `benchmark/` measures the
//! dispatchers end to end.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::collections::HashMap;
use std::hint::black_box;
use structride_core::{enumerate_groups, DispatchContext, StructRideConfig};
use structride_datagen::{CityProfile, Workload, WorkloadParams};
use structride_model::{insertion, Request, RequestId, Schedule, Vehicle};
use structride_roadnet::dijkstra;
use structride_sharegraph::{
    AnglePruning, BuilderConfig, ShareabilityCheck, ShareabilityGraphBuilder,
};

fn workload() -> Workload {
    Workload::generate(WorkloadParams {
        num_requests: 300,
        num_vehicles: 30,
        horizon: 600.0,
        scale: 0.5,
        ..WorkloadParams::small(CityProfile::NycLike)
    })
}

fn bench_shortest_paths(c: &mut Criterion) {
    let w = workload();
    let n = w.engine.node_count() as u32;
    let pairs: Vec<(u32, u32)> = (0..200u32)
        .map(|i| ((i * 37) % n, (i * 91 + 13) % n))
        .collect();
    let mut group = c.benchmark_group("shortest_path");
    group.bench_function("hub_labels_cached", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &(s, t) in &pairs {
                acc += w.engine.cost(black_box(s), black_box(t));
            }
            acc
        })
    });
    group.bench_function("hub_labels_uncached", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &(s, t) in &pairs {
                acc += w.engine.cost_uncached(black_box(s), black_box(t));
            }
            acc
        })
    });
    group.bench_function("dijkstra_p2p", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &(s, t) in &pairs[..20] {
                acc += dijkstra::p2p(w.engine.network(), black_box(s), black_box(t));
            }
            acc
        })
    });
    group.finish();

    // The batched kernel at the shape dispatch sends (30 vehicle nodes → 1
    // pickup), its transpose, and a square.  An iteration computes 200 /
    // 200 / 7 matrices, i.e. 6 000 / 6 000 / 6 300 pairs, so the three rows
    // compare per pair almost directly.
    let fleets: Vec<Vec<u32>> = pairs
        .iter()
        .map(|&(s, _)| (0..30u32).map(|i| (i * 53 + s) % n).collect())
        .collect();
    let mut group = c.benchmark_group("many_to_many");
    group.bench_function("30x1", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for (fleet, &(_, t)) in fleets.iter().zip(&pairs) {
                acc += w.engine.many_to_many(black_box(fleet), black_box(&[t]))[0];
            }
            acc
        })
    });
    group.bench_function("1x30", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for (fleet, &(_, t)) in fleets.iter().zip(&pairs) {
                acc += w.engine.many_to_many(black_box(&[t]), black_box(fleet))[0];
            }
            acc
        })
    });
    group.bench_function("30x30", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for pair in fleets[..14].chunks_exact(2) {
                acc += w
                    .engine
                    .many_to_many(black_box(&pair[0]), black_box(&pair[1]))[0];
            }
            acc
        })
    });
    group.finish();
}

fn bench_insertion_and_shareability(c: &mut Criterion) {
    let w = workload();
    let reqs: Vec<&Request> = w.requests.iter().take(60).collect();
    let vehicle = Vehicle::new(0, reqs[0].source, 4);

    let mut group = c.benchmark_group("schedule_ops");
    group.bench_function("linear_insertion_into_busy_schedule", |b| {
        // Pre-build a schedule with two requests, then time inserting a third.
        let mut sched = Schedule::new();
        for r in reqs.iter().take(2) {
            if let Some(out) = insertion::insert_into(&w.engine, vehicle.node, 0.0, 0, 4, &sched, r)
            {
                sched = out.schedule;
            }
        }
        b.iter(|| {
            for r in reqs.iter().skip(2).take(20) {
                black_box(insertion::insert_into(
                    &w.engine,
                    vehicle.node,
                    0.0,
                    0,
                    4,
                    black_box(&sched),
                    r,
                ));
            }
        })
    });
    group.bench_function("pairwise_shareability_check", |b| {
        b.iter(|| {
            let check = ShareabilityCheck::new(&w.engine, 4);
            let mut edges = 0u32;
            for i in 0..20 {
                for j in (i + 1)..20 {
                    if check.shareable(reqs[i], reqs[j]) {
                        edges += 1;
                    }
                }
            }
            edges
        })
    });
    group.finish();
}

fn bench_graph_build_and_grouping(c: &mut Criterion) {
    let w = workload();
    let batch: Vec<Request> = w.requests.iter().take(80).cloned().collect();

    let mut group = c.benchmark_group("shareability_graph");
    for (label, angle) in [
        ("with_angle_pruning", AnglePruning::default()),
        ("without_angle_pruning", AnglePruning::disabled()),
    ] {
        group.bench_function(format!("build_batch_{label}"), |b| {
            b.iter_batched(
                || {
                    ShareabilityGraphBuilder::new(
                        &w.engine,
                        BuilderConfig {
                            vehicle_capacity: 4,
                            angle,
                        },
                    )
                },
                |mut builder| {
                    builder.add_batch(&w.engine, black_box(&batch));
                    builder.graph().edge_count()
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();

    // Grouping over a realistic proposal pool.
    let mut builder = ShareabilityGraphBuilder::new(
        &w.engine,
        BuilderConfig {
            vehicle_capacity: 4,
            angle: AnglePruning::default(),
        },
    );
    builder.add_batch(&w.engine, &batch);
    let map: HashMap<RequestId, Request> = batch.iter().map(|r| (r.id, r.clone())).collect();
    let pool: Vec<RequestId> = batch.iter().take(10).map(|r| r.id).collect();
    let vehicle = Vehicle::new(0, batch[0].source, 4);
    let ctx = DispatchContext::new(&w.engine, StructRideConfig::default(), 0.0);
    c.bench_function("grouping_additive_tree_pool10", |b| {
        b.iter(|| {
            enumerate_groups(
                &ctx,
                builder.graph(),
                black_box(&map),
                black_box(&pool),
                &vehicle,
                4,
            )
            .len()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = bench_shortest_paths, bench_insertion_and_shareability, bench_graph_build_and_grouping
}
criterion_main!(benches);
