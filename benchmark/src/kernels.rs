//! Layer kernels: each crate's public functions timed in isolation on the
//! inputs the dispatcher saw in the traced run (the [`Capture`]s), one span
//! per kernel under the `kernels` span.  The kernels run single-threaded, so
//! a per-call time here is CPU time of one call, not its share of a parallel
//! stage's wall time.

use crate::probe::Capture;
use crate::span::SpanLog;
use crate::stats::{percentile, sorted};
use crate::workloads::wait_for_quiescence;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use structride_core::{
    enumerate_groups, lap, DispatchContext, FleetIndex, StructRideConfig, REACH_GRACE,
};
use structride_datagen::rush_hour;
use structride_model::{insert_request, Request, RequestId};
use structride_roadnet::{HubLabels, NodeId, RoadNetwork, SpEngine, SpEngineBuilder};
use structride_sharegraph::ShareabilityGraphBuilder;
use structride_spatial::{GridIndex, RegionGrid};

/// Accumulated time over a number of calls (or items).
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    pub total: Duration,
    pub n: u64,
}

impl Acc {
    fn add(&mut self, elapsed: Duration, n: u64) {
        self.total += elapsed;
        self.n += n;
    }

    /// Mean nanoseconds per call (0 when nothing was timed).
    pub fn ns(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.total.as_nanos() as f64 / self.n as f64
        }
    }

    /// Mean milliseconds per call.
    pub fn ms(&self) -> f64 {
        self.ns() / 1e6
    }
}

/// Times `f`, adds it to `acc` as `n` calls and records a span.
fn timed<R>(
    spans: &mut SpanLog,
    parent: usize,
    name: &str,
    acc: &mut Acc,
    n: u64,
    f: impl FnOnce() -> R,
) -> R {
    let start = Instant::now();
    let result = f();
    let end = Instant::now();
    acc.add(end - start, n);
    spans.push(
        Some(parent),
        name,
        start,
        end,
        vec![("calls".to_string(), n as f64)],
    );
    result
}

/// What the kernels measured over all captures.
#[derive(Debug, Default)]
pub struct KernelTimes {
    pub sp_cold: Acc,
    pub sp_warm: Acc,
    /// Per `(source, target)` pair of `many_to_many`.
    pub m2m: Acc,
    pub range_query: Acc,
    pub relocate: Acc,
    pub insert: Acc,
    /// Per sequential fleet sweep.
    pub advance: Acc,
    /// Per `add_batch` of a captured batch onto its restored pool.
    pub sharegraph: Acc,
    pub fleet_sync: Acc,
    pub prescreen: Acc,
    /// Per `enumerate_groups` call (one proposed-to vehicle).
    pub grouping: Acc,
    pub lap: Acc,
    /// Shareability-graph build counters summed over the captured batches.
    pub candidate_pairs: u64,
    pub angle_pruned: u64,
    pub shareability_checks: u64,
    pub edges_added: u64,
    /// Groups the grouping kernel enumerated, and pooled requests the
    /// candidate kernels visited (the denominators of the attribution).
    pub groups: u64,
    pub pooled: u64,
    pub captures: u64,
}

/// The requests the dispatcher evaluates in a captured batch: its carried
/// pool plus the new arrivals.
fn pooled_requests(c: &Capture) -> Vec<&Request> {
    let mut pooled: Vec<&Request> = c.pending.pool.iter().collect();
    pooled.extend(
        c.new_requests
            .iter()
            .filter(|r| !c.pending.pool.iter().any(|p| p.id == r.id)),
    );
    pooled
}

/// Runs every per-batch kernel over `captures` on `engine` (rolled to each
/// capture's clock first, a no-op for static engines).
pub fn run_capture_kernels(
    config: &StructRideConfig,
    engine: &SpEngine,
    captures: &[Capture],
    spans: &mut SpanLog,
    parent: usize,
) -> KernelTimes {
    let mut t = KernelTimes::default();
    let network = engine.network();
    let bbox = RegionGrid::padded_bbox(network.bounding_box());
    for (k, c) in captures.iter().enumerate() {
        engine.roll_epoch_to(c.now);
        t.captures += 1;
        let pooled = pooled_requests(c);
        t.pooled += pooled.len() as u64;
        // The same shard's next captured fleet: the positions the index and
        // grid are moved to by the write-side kernels.
        let next = captures[k + 1..]
            .iter()
            .find(|n| n.shard == c.shard && n.vehicles.len() == c.vehicles.len());

        // core + roadnet + model: the candidate pipeline of SARD and the
        // assignment dispatcher, stage by stage.
        let mut index = FleetIndex::build(bbox, config.grid_cells, network, &c.vehicles);
        index.set_min_time_per_meter(engine.min_time_per_meter());
        let survivors: Vec<Vec<usize>> = timed(
            spans,
            parent,
            "core.certified_candidates",
            &mut t.prescreen,
            pooled.len() as u64,
            || {
                pooled
                    .iter()
                    .map(|r| {
                        let p = network.coord(r.source);
                        index.certified_candidates(
                            network,
                            &c.vehicles,
                            p.x,
                            p.y,
                            r.pickup_deadline,
                        )
                    })
                    .collect()
            },
        );
        let nodes: Vec<Vec<NodeId>> = survivors
            .iter()
            .map(|s| s.iter().map(|&vi| c.vehicles[vi].node).collect())
            .collect();
        let pair_count = nodes.iter().map(Vec::len).sum::<usize>() as u64;
        let pickup_costs: Vec<Vec<f64>> = timed(
            spans,
            parent,
            "roadnet.many_to_many",
            &mut t.m2m,
            pair_count,
            || {
                pooled
                    .iter()
                    .zip(&nodes)
                    .map(|(r, nodes)| engine.many_to_many(nodes, &[r.source]))
                    .collect()
            },
        );
        // Vehicles whose direct drive to the pickup already misses the
        // deadline are dropped before any insertion, as the dispatchers do.
        let reachable: Vec<Vec<usize>> = pooled
            .iter()
            .zip(survivors.iter().zip(&pickup_costs))
            .map(|(r, (survivors, costs))| {
                survivors
                    .iter()
                    .zip(costs)
                    .filter(|(&vi, &cost)| {
                        c.vehicles[vi].free_at + cost <= r.pickup_deadline + REACH_GRACE
                    })
                    .map(|(&vi, _)| vi)
                    .collect()
            })
            .collect();
        let insertions = reachable.iter().map(Vec::len).sum::<usize>() as u64;
        let rows: Vec<(RequestId, Vec<(usize, f64)>)> = timed(
            spans,
            parent,
            "model.insert_request",
            &mut t.insert,
            insertions,
            || {
                pooled
                    .iter()
                    .zip(&reachable)
                    .map(|(r, reachable)| {
                        let mut candidates: Vec<(f64, usize)> = reachable
                            .iter()
                            .filter_map(|&vi| {
                                insert_request(engine, &c.vehicles[vi], r)
                                    .map(|o| (o.added_cost, vi))
                            })
                            .collect();
                        candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                        candidates.truncate(config.max_candidate_vehicles.max(1));
                        (
                            r.id,
                            candidates.into_iter().map(|(c, vi)| (vi, c)).collect(),
                        )
                    })
                    .collect()
            },
        );

        // core::lap: the assignment dispatcher's matrix over those
        // candidates — real columns plus one dummy per row.
        let mut columns: Vec<usize> = rows
            .iter()
            .flat_map(|(_, cands)| cands.iter().map(|&(vi, _)| vi))
            .collect();
        columns.sort_unstable();
        columns.dedup();
        if !columns.is_empty() {
            let (n_rows, n_cols) = (rows.len(), columns.len());
            let costs: Vec<Vec<f64>> = rows
                .iter()
                .zip(&pooled)
                .enumerate()
                .map(|(i, ((_, cands), r))| {
                    let mut row = vec![lap::FORBIDDEN; n_cols + n_rows];
                    for &(vi, added) in cands {
                        let j = columns.binary_search(&vi).expect("column was collected");
                        row[j] = config.cost.alpha * added;
                    }
                    row[n_cols + i] = config.cost.penalty_coefficient * r.direct_cost();
                    row
                })
                .collect();
            timed(spans, parent, "core.lap.solve_dense", &mut t.lap, 1, || {
                black_box(lap::solve_dense(&costs))
            });
        }

        // sharegraph: what SARD does per batch — extend the graph over the
        // carried pool with the new arrivals.
        let mut builder = ShareabilityGraphBuilder::new(engine, config.builder_config());
        if c.pending.edges.is_empty() {
            builder.add_batch(engine, &c.pending.pool);
        } else {
            builder.restore(engine, c.pending.pool.clone(), &c.pending.edges);
        }
        let before = builder.stats();
        timed(
            spans,
            parent,
            "sharegraph.add_batch",
            &mut t.sharegraph,
            1,
            || builder.add_batch(engine, &c.new_requests),
        );
        let after = builder.stats();
        t.candidate_pairs += after.candidate_pairs - before.candidate_pairs;
        t.angle_pruned += after.angle_pruned - before.angle_pruned;
        t.shareability_checks += after.shareability_checks - before.shareability_checks;
        t.edges_added += after.edges_added - before.edges_added;

        // core::grouping: one acceptance round — every request proposes to
        // the worst vehicle of its queue, every proposed-to vehicle
        // enumerates its groups.
        let ctx = DispatchContext::for_batch(engine, *config, c.now, c.batch_index)
            .with_fleet_index(&index);
        let mut proposals: BTreeMap<usize, Vec<RequestId>> = BTreeMap::new();
        for (id, cands) in &rows {
            if let Some(&(vi, _)) = cands.last() {
                proposals.entry(vi).or_default().push(*id);
            }
        }
        let groups = timed(
            spans,
            parent,
            "core.enumerate_groups",
            &mut t.grouping,
            proposals.len() as u64,
            || {
                proposals
                    .iter()
                    .map(|(vi, ids)| {
                        let vehicle = &c.vehicles[*vi];
                        enumerate_groups(
                            &ctx,
                            builder.graph(),
                            builder.requests(),
                            ids,
                            vehicle,
                            vehicle.capacity as usize,
                        )
                        .len()
                    })
                    .sum::<usize>()
            },
        );
        t.groups += groups as u64;

        // spatial: the read and the write of the same grid.
        let mut grid = GridIndex::new(bbox.0, bbox.1, bbox.2, bbox.3, config.grid_cells);
        for (slot, v) in c.vehicles.iter().enumerate() {
            let p = network.coord(v.node);
            grid.insert(slot as u64, p.x, p.y);
        }
        let min_tpm = index.min_time_per_meter();
        if min_tpm > 0.0 && index.free_floor().is_finite() {
            let n = c.new_requests.len() as u64;
            timed(
                spans,
                parent,
                "spatial.for_each_in_range",
                &mut t.range_query,
                n,
                || {
                    let mut hits = 0u64;
                    for r in &c.new_requests {
                        let p = network.coord(r.source);
                        let slack = r.pickup_deadline + REACH_GRACE - index.free_floor();
                        grid.for_each_in_range(p.x, p.y, (slack / min_tpm).max(0.0), |_| hits += 1);
                    }
                    black_box(hits)
                },
            );
        }
        if let Some(next) = next {
            let n = next.vehicles.len() as u64;
            timed(
                spans,
                parent,
                "spatial.relocate",
                &mut t.relocate,
                n,
                || {
                    for (slot, v) in next.vehicles.iter().enumerate() {
                        let p = network.coord(v.node);
                        grid.relocate(slot as u64, p.x, p.y);
                    }
                },
            );
            timed(
                spans,
                parent,
                "core.fleet_index.sync",
                &mut t.fleet_sync,
                1,
                || index.sync(network, &next.vehicles),
            );
        }

        // model: the advance sweep to the next batch clock, sequentially.
        let mut fleet = c.vehicles.clone();
        let until = c.now + config.batch_period;
        timed(spans, parent, "model.advance_to", &mut t.advance, 1, || {
            for v in fleet.iter_mut() {
                black_box(v.advance_to(engine, until));
            }
        });
    }

    // roadnet: point queries cold (after a cache clear) and warm.  A pass of
    // its own, so the kernels above ran on a cache as warm as a run leaves it.
    for c in captures {
        engine.roll_epoch_to(c.now);
        let pairs: Vec<(NodeId, NodeId)> = pooled_requests(c)
            .iter()
            .enumerate()
            .flat_map(|(i, r)| {
                let from_vehicle = c
                    .vehicles
                    .get(i % c.vehicles.len().max(1))
                    .map(|v| (v.node, r.source));
                std::iter::once((r.source, r.destination)).chain(from_vehicle)
            })
            .collect();
        engine.clear_cache();
        for acc in [&mut t.sp_cold, &mut t.sp_warm] {
            timed(
                spans,
                parent,
                "roadnet.cost",
                acc,
                pairs.len() as u64,
                || {
                    for &(s, d) in &pairs {
                        black_box(engine.cost(s, d));
                    }
                },
            );
        }
    }
    t
}

/// The stand-alone roadnet kernels: a full hub-label build, and epoch rolls
/// on a traffic engine over the same network.
pub struct RoadnetKernels {
    pub label_build_s: f64,
    pub label_bytes: usize,
    /// Wall of the background label prebuild with nothing to contend with.
    pub prebuild_s: f64,
    /// Memo-hit rolls across the rush profile's epoch boundaries.
    pub roll_ms_p50: f64,
    pub roll_ms_max: f64,
    /// The rolled engine, reusable as a kernel engine for traffic captures.
    pub engine: SpEngine,
}

/// Times `HubLabels::build`, then builds a rush-hour engine, lets its
/// background prebuild finish (timed), and rolls it across every epoch
/// boundary of `horizon` — the roll path alone, every artifact a memo hit.
/// In a run the same rolls may instead wait on an unfinished prebuild; that
/// wait is what the in-run `label_refresh` counters hold.
pub fn run_roadnet_kernels(
    network: &RoadNetwork,
    horizon: f64,
    baseline_threads: usize,
    spans: &mut SpanLog,
    parent: usize,
) -> RoadnetKernels {
    let mut build = Acc::default();
    let labels = timed(
        spans,
        parent,
        "roadnet.HubLabels.build",
        &mut build,
        1,
        || HubLabels::build(network),
    );
    let label_bytes = labels.approx_bytes();
    drop(labels);

    let traffic = rush_hour(horizon / 6.0, horizon / 12.0);
    let engine = SpEngineBuilder::new()
        .traffic(traffic)
        .build(network.clone());
    let mut prebuild = Acc::default();
    timed(spans, parent, "roadnet.prebuild", &mut prebuild, 1, || {
        // Same epoch, so no roll — but the first call starts the prebuild.
        engine.roll_epoch_to(0.0);
        wait_for_quiescence(baseline_threads);
    });
    let mut rolls_ms = Vec::new();
    for k in 1..=8 {
        let mut roll = Acc::default();
        let now = k as f64 * traffic.epoch_seconds + 1e-3;
        if timed(spans, parent, "roadnet.roll_epoch_to", &mut roll, 1, || {
            engine.roll_epoch_to(now)
        }) {
            rolls_ms.push(roll.ms());
        }
    }
    let rolls_ms = sorted(rolls_ms);
    RoadnetKernels {
        label_build_s: build.total.as_secs_f64(),
        label_bytes,
        prebuild_s: prebuild.total.as_secs_f64(),
        roll_ms_p50: percentile(&rolls_ms, 0.5),
        roll_ms_max: rolls_ms.last().copied().unwrap_or(0.0),
        engine,
    }
}
