//! Multi-region sharded dispatch: parallel per-shard pipelines with
//! cross-shard handoff.
//!
//! The [`Simulator`](crate::Simulator) drives one monolithic pipeline — one
//! dispatcher over the whole fleet and the whole request stream.  This
//! module partitions both by *region*: a
//! [`RegionGrid`] divides the road network's
//! bounding box into `k` regions, each region maps 1:1 to a **shard** owning
//! its own [`SpEngine`] (independent shortest-path cache), its own
//! [`Dispatcher`] instance and the slice of the fleet currently homed there.
//! [`ShardedSimulator`] advances all shards **batch-synchronously**: every
//! batch, all shards move their vehicles to the shared clock, the released
//! requests are routed to shards, every shard dispatches its sub-batch in
//! parallel (shard-level fan-out via recursive [`rayon::join`], plus each
//! dispatcher's own internal parallelism), and the per-shard outcomes are
//! merged in shard order.  Per-shard [`RunMetrics`] are aggregated with
//! [`RunMetrics::merge`] into one report.
//!
//! # Per-shard sub-network engines
//!
//! Every shard owns a **halo-clipped** [`SpEngine`] instead of a clone of
//! the whole network: the global road network and one canonical hub-label
//! index are built **once** per run (the label construction itself is
//! parallel, see [`HubLabels::build`]) and shared across shards via `Arc`;
//! each shard additionally carries the
//! [`SubNetwork`](structride_roadnet::SubNetwork) induced by its *halo* —
//! its region plus every vertex within
//! [`ShardingConfig::handoff_band`] of it ([`halo_vertices`]) — and a
//! compact restriction of the label index to those vertices.  Setup cost and
//! label memory therefore no longer scale as `k×|V|`.
//!
//! The **halo-correctness invariant**: any query a shard issues against its
//! *local* traffic (its own region's requests plus boundary requests offered
//! through the handoff band) has both endpoints inside the halo and is
//! answered by the per-shard slice.  Queries that legally leave the halo —
//! trip destinations in another region, vehicles that drove or migrated
//! across a border — fall back to the `Arc`-shared global index.  Both paths
//! return **bit-identical** floats to a whole-network engine (the slice
//! vectors are verbatim copies), which is what keeps sharded runs
//! replay-exact across this refactor; see
//! [`SpEngineBuilder::build_clipped`](structride_roadnet::SpEngineBuilder).
//!
//! # Cross-shard handoff
//!
//! Requests are routed to the shard of their pickup region.  A request whose
//! origin lies within [`ShardingConfig::handoff_band`] of another region is a
//! *boundary request*: it is offered to every shard whose region the band
//! reaches, each candidate shard bids the cheapest exact insertion cost over
//! a **top-m shortlist** of its fleet, and the **best bid wins
//! deterministically** (strictly lower `added_cost` wins; ties go to the
//! lowest shard id; if no candidate has a feasible insertion the home shard
//! keeps the request).  The shortlist replaces the old full-fleet exact
//! insertion scan: the shard's persistent
//! [`FleetIndex`] over vehicle positions is
//! scanned with the certified reachability bound derived from
//! [`RoadNetwork::min_time_per_meter`] — a vehicle failing it provably
//! cannot meet the pickup deadline from its release state, so dropping it
//! cannot change any bid — and the survivors are ranked by that lower bound
//! and capped at [`ShardingConfig::top_m`].  The prescreen is exact;
//! only the cap can (deliberately, for bounded bidding work on very large
//! fleets) exclude a feasible bidder.  Idle
//! vehicles migrate between adjacent shards to rebalance load when
//! [`ShardingConfig::rebalance`] is on: after each batch, a shard whose
//! dispatcher holds no pending requests donates its lowest-id idle vehicles
//! (up to [`ShardingConfig::max_migrations_per_batch`]) to adjacent shards
//! holding more pending requests than vehicles.  Migration transfers
//! *dispatch ownership only* — the vehicle keeps its position and committed
//! schedule; the receiving shard's insertion costs naturally price the
//! distance.
//!
//! # Determinism and the replay invariant
//!
//! Sharding preserves the pipeline's replay invariant (see
//! [`crate::replay`]):
//!
//! * **Worker-count independence.** Every parallel stage reduces into
//!   canonically ordered results: routing bids are pure reads of exact
//!   shortest-path costs, sub-batch order preserves release order, outcome
//!   merging walks shards in ascending id order, and migration is a
//!   sequential deterministic rule.  A sharded run is bit-identical across
//!   rayon worker counts (enforced by `replay verify --shards` in CI and by
//!   the `sharding` integration tests).
//! * **Single-shard reduction.** With one region the router degenerates to
//!   the identity, no bids or migrations happen, and what remains is the
//!   monolithic [`Simulator`](crate::Simulator) run by construction: the
//!   same Δ-clock (`simulator::drive_clock`) stepping the same
//!   `Lane::advance` / `Lane::dispatch` — the aggregate report matches
//!   field for field (wall-clock `running_time` and the racy shortest-path
//!   query counters excepted, as documented on [`RunMetrics`]).
//! * **Recording.** [`ShardedSimulator::run_recorded`] captures a *global*
//!   trace (released requests in release order, the union fleet sorted by
//!   vehicle id, merged outcomes in shard order).  A sharded run cannot be
//!   replayed through a single `Dispatcher`, so verification re-runs the
//!   whole pipeline and diffs the two traces with
//!   [`diff_traces`](crate::replay::diff_traces).

use crate::config::StructRideConfig;
use crate::context::ScratchStats;
use crate::dispatcher::{BatchOutcome, Dispatcher};
use crate::fleet_index::FleetIndex;
use crate::lane::{BatchRun, Lane, Offered};
use crate::metrics::RunMetrics;
use crate::replay::{Checkpoint, CheckpointCounters, TraceRecorder};
use crate::simulator::{drive_clock, ResumeError, RunHooks};
use crate::stages::{Span, Stage, StageClock};
use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;
use structride_model::{insertion, Request, RequestId, Vehicle};
use structride_roadnet::{EpochStore, HubLabels, NodeId, RoadNetwork, SpEngine, SpEngineBuilder};
use structride_spatial::{RegionGrid, RegionId};

/// A dispatcher owned by one shard (must be `Send`: shards dispatch on
/// worker threads).
pub type ShardDispatcher = Box<dyn Dispatcher + Send>;

/// Knobs of the sharding layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardingConfig {
    /// Width of the boundary band, in coordinate units (meters).  A request
    /// whose origin lies within this distance of another region is offered
    /// to that region's shard too; `0.0` disables cross-shard handoff.  The
    /// band also sets the halo width of the per-shard sub-network engines.
    pub handoff_band: f64,
    /// Enables idle-vehicle migration between adjacent shards.
    pub rebalance: bool,
    /// Maximum idle vehicles one shard donates per batch.
    pub max_migrations_per_batch: usize,
    /// Maximum exact insertion bids one candidate shard evaluates per
    /// boundary request (`0` = unlimited).  Candidates are the vehicles that
    /// pass the exact reachability prescreen, ranked by their certified
    /// travel-time lower bound to the pickup; the cap only changes outcomes
    /// when more than `top_m` *feasible-looking* vehicles compete in one
    /// shard, which the default leaves out of reach for every workload in
    /// this repository.
    pub top_m: usize,
}

impl Default for ShardingConfig {
    fn default() -> Self {
        ShardingConfig {
            // Roughly one road-network block at the synthetic city spacings
            // (220–300 m).
            handoff_band: 250.0,
            rebalance: true,
            max_migrations_per_batch: 2,
            top_m: 64,
        }
    }
}

impl ShardingConfig {
    /// A configuration with handoff and rebalancing disabled — shards become
    /// fully independent pipelines.
    pub fn isolated() -> Self {
        ShardingConfig {
            handoff_band: 0.0,
            rebalance: false,
            max_migrations_per_batch: 0,
            ..ShardingConfig::default()
        }
    }
}

/// The output of one sharded run.
#[derive(Debug)]
pub struct ShardedReport {
    /// The merged run-level metrics (see [`RunMetrics::merge`]).
    pub aggregate: RunMetrics,
    /// Per-shard metrics, indexed by shard id.
    pub per_shard: Vec<RunMetrics>,
    /// The whole fleet after all schedules executed, sorted by vehicle id.
    pub vehicles: Vec<Vehicle>,
    /// Requests assigned to some vehicle, across all shards.
    pub served: HashSet<RequestId>,
    /// Boundary requests won by a shard other than their home shard.
    pub handoffs: u64,
    /// Feasible insertion bids evaluated while routing boundary requests.
    pub handoff_bids: u64,
    /// Idle vehicles that changed shard ownership for load balancing.
    pub migrations: u64,
    /// Wall-clock of the whole setup — the single shared hub-label build
    /// plus the halo extraction and label slicing of every shard — in
    /// seconds.  One-off cost, amortised over a long run; benchmarks report
    /// it separately from the steady-state batch loop.
    pub setup_seconds: f64,
    /// Wall-clock of the one shared hub-label build alone, seconds.  The
    /// pre-sub-network design paid roughly `shards ×` this (one build per
    /// shard); `setup_seconds` stays near one.
    pub full_build_seconds: f64,
    /// Actual label-index bytes resident for the run: the shared global
    /// index plus every shard's halo slice (summed
    /// [`HubLabels::approx_bytes`], not container capacities).
    pub label_bytes: usize,
    /// Index queries that left a shard's halo and were answered by the
    /// shared global index.  Diagnostic only — like the shortest-path query
    /// counter it is subject to cache-miss races under concurrency.
    pub sp_fallback_queries: u64,
    /// Wall-clock of the batch loop and final drain, seconds.
    pub run_seconds: f64,
    /// Wall-clock spent on the epoch-roll path at traffic epoch boundaries:
    /// memo lookups and prebuild joins for uniform epochs, scoped label
    /// repairs for zoned epochs, and any halo re-cuts — in seconds.  Label
    /// builds finished on the [`EpochStore`]'s background threads before
    /// their epoch arrives are not booked here (they overlap dispatch).
    /// `0.0` for static (free-flow) runs.
    pub label_refresh_seconds: f64,
    /// Number of traffic epoch boundaries crossed during the run (0 for
    /// static runs).
    pub epoch_rolls: u64,
    /// Epoch rolls whose new weights were spatially uniform (Tier 1: the
    /// labels came from the epoch store's signature memo or a background
    /// prebuild — never a roll-path wholesale rebuild).
    pub labels_rescaled: u64,
    /// Epoch rolls whose new weights were zoned (Tier 2: labels produced by
    /// a scoped repair against the same-profile uniform reference).
    pub labels_rebuilt: u64,
    /// Outage windows opened by the deterministic fault injector (see
    /// [`crate::faults`]) — 0 under the inert default config.
    pub faults_injected: u64,
    /// Batches executed in degraded mode (some shard down).
    pub batches_degraded: u64,
    /// Requests routed during degraded batches, including the down shard's
    /// rerouted pending pool — the denominator of
    /// [`ShardedReport::service_rate_degraded`].
    pub degraded_offered: u64,
    /// Requests assigned during degraded batches.
    pub degraded_served: u64,
    /// Total per-shard halo re-cuts across all weight-changing rolls — the
    /// complement of the Tier-3 skip.  `rolls × shards` would mean no shard
    /// ever skipped; lower numbers mean zone activity left some halos
    /// untouched and their clips (and caches) stayed live.
    pub shards_refreshed: u64,
}

impl ShardedReport {
    /// Service rate over the degraded batches alone: assigned / routed while
    /// some shard was down (`0.0` when no batch ran degraded) — how much
    /// service survives an outage.
    pub fn service_rate_degraded(&self) -> f64 {
        if self.degraded_offered == 0 {
            0.0
        } else {
            self.degraded_served as f64 / self.degraded_offered as f64
        }
    }
}

/// One shard: engine + dispatcher + the lane holding the fleet slice it
/// currently owns.
struct Shard {
    engine: SpEngine,
    dispatcher: ShardDispatcher,
    /// The shard's fleet slice, its persistent index (which feeds both the
    /// handoff shortlist and the dispatcher's certified candidate
    /// prescreen), served set and work counters — stepped through the same
    /// [`Lane::advance`] / [`Lane::dispatch`] as the monolithic simulator.
    lane: Lane,
    /// Requests routed to this shard for the current batch (release order).
    inbox: Vec<Request>,
    /// Every request ever routed here, with its direct cost (for the
    /// per-shard unserved penalty), in routing order.
    routed: Vec<(RequestId, f64)>,
    /// Outcome of the current batch (drained during merging).
    last_assigned: Vec<RequestId>,
    last_scratch: ScratchStats,
    /// `true` while the fault plan marks this shard down (see
    /// [`crate::faults`]): its fleet is frozen and it neither bids, receives
    /// requests, nor dispatches until recovery.
    down: bool,
}

/// Where the router sent one request.
struct RouteDecision {
    winner: usize,
    home: usize,
    bids: u64,
}

/// The read-only slice of one shard the router needs — `Sync`, unlike
/// [`Shard`] itself (whose dispatcher is only `Send`), so routing can fan
/// out over worker threads.  Borrows the shard's persistent fleet index for
/// the top-m shortlist instead of rebuilding a position index per batch.
struct ShardView<'a> {
    engine: &'a SpEngine,
    vehicles: &'a [Vehicle],
    /// The shard's persistent vehicle-position index (slot-index keyed,
    /// synced to `vehicles` before routing).
    index: &'a FleetIndex,
}

impl<'a> ShardView<'a> {
    fn new(shard: &'a Shard) -> Self {
        ShardView {
            engine: &shard.engine,
            vehicles: &shard.lane.vehicles,
            index: &shard.lane.fleet_index,
        }
    }

    /// The top-m candidate shortlist for `request`: the fleet index's
    /// certified candidates (every vehicle that could possibly meet the
    /// pickup deadline; the others can never produce a feasible insertion),
    /// ranked by their certified travel-time lower bound to the pickup (ties
    /// to the lower fleet index) and capped at `top_m` entries (`0` =
    /// uncapped).  The ranking is a total order over a set that depends
    /// only on the fleet, so the shortlist does too.
    fn shortlist(&self, network: &RoadNetwork, request: &Request, top_m: usize) -> Vec<usize> {
        let p = network.coord(request.source);
        let min_tpm = self.index.min_time_per_meter();
        let mut ranked: Vec<(f64, usize)> = self
            .index
            .certified_candidates(network, self.vehicles, p.x, p.y, request.pickup_deadline)
            .into_iter()
            .map(|idx| {
                (
                    min_tpm * network.coord(self.vehicles[idx].node).distance(&p),
                    idx,
                )
            })
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        if top_m > 0 {
            ranked.truncate(top_m);
        }
        ranked.into_iter().map(|(_, idx)| idx).collect()
    }
}

/// The halo vertex sets of every region: vertex `v` belongs to region `r`'s
/// halo when `v` lies in `r` or within `band` of `r`'s rectangle (the same
/// [`RegionGrid::regions_within`] classification that makes a request a
/// boundary request).  Each set is ascending; the union covers every vertex
/// at least once, so the per-shard sub-networks tile the network with
/// band-wide overlaps.
pub fn halo_vertices(network: &RoadNetwork, regions: &RegionGrid, band: f64) -> Vec<Vec<NodeId>> {
    let mut halos: Vec<Vec<NodeId>> = vec![Vec::new(); regions.len()];
    let band = band.max(0.0);
    for v in network.nodes() {
        let p = network.coord(v);
        for r in regions.regions_within(p.x, p.y, band) {
            halos[r as usize].push(v);
        }
    }
    halos
}

/// Applies `f` to every shard, fanning out even for small shard counts
/// (recursive split via [`rayon::join`]; the slice-level `par_iter_mut`
/// falls back to sequential below its chunking threshold).
fn for_each_shard<F: Fn(&mut Shard) + Sync>(shards: &mut [Shard], f: &F) {
    match shards.len() {
        0 => {}
        1 => f(&mut shards[0]),
        n => {
            let (a, b) = shards.split_at_mut(n / 2);
            rayon::join(|| for_each_shard(a, f), || for_each_shard(b, f));
        }
    }
}

/// The no-auction decision: the request stays in its pickup region.
fn home_decision(request: &Request, network: &RoadNetwork, regions: &RegionGrid) -> RouteDecision {
    let p = network.coord(request.source);
    let home = regions.region_of(p.x, p.y) as usize;
    RouteDecision {
        winner: home,
        home,
        bids: 0,
    }
}

/// Routes one request: home region, plus a best-bid auction over every shard
/// the boundary band reaches.  Each candidate shard evaluates exact
/// insertions only over its top-m shortlist (see [`ShardView::shortlist`])
/// instead of its whole fleet.  Pure reads — exact costs, stable tie-breaks
/// — so the decision is independent of the worker count.
///
/// When the fault plan marks a shard `down` it never wins: it is dropped
/// from the auction, and a request *homed* to it fails over through the same
/// bid machinery to the down region's adjacent live shards (lowest-id live
/// neighbour when no bid is feasible).  With `down = None` this is exactly
/// the pre-fault routing rule.
#[allow(clippy::too_many_arguments)]
fn route_request(
    request: &Request,
    network: &RoadNetwork,
    regions: &RegionGrid,
    shards: &[ShardView<'_>],
    band: f64,
    top_m: usize,
    down: Option<usize>,
) -> RouteDecision {
    let p = network.coord(request.source);
    let home = regions.region_of(p.x, p.y) as usize;
    let mut candidates: Vec<usize> = if band > 0.0 {
        regions
            .regions_within(p.x, p.y, band)
            .into_iter()
            .map(|c| c as usize)
            .collect()
    } else {
        vec![home]
    };
    if down == Some(home) {
        // Failover: the home shard is dead — its adjacent live shards join
        // the auction even when the request sits deep inside the region.
        for a in regions.adjacent(home as RegionId) {
            let a = a as usize;
            if !candidates.contains(&a) {
                candidates.push(a);
            }
        }
        candidates.sort_unstable();
    }
    if let Some(d) = down {
        candidates.retain(|&c| c != d);
    }
    if down != Some(home) && candidates.len() <= 1 {
        return home_decision(request, network, regions);
    }
    let mut bids = 0u64;
    // Strictly-lower cost wins; candidates ascend, so ties keep the lowest
    // shard id.
    let mut best: Option<(f64, usize)> = None;
    for &c in &candidates {
        let shard = &shards[c];
        for idx in shard.shortlist(network, request, top_m) {
            let vehicle = &shard.vehicles[idx];
            if let Some(out) = insertion::insert_request(shard.engine, vehicle, request) {
                bids += 1;
                if best.map(|(cost, _)| out.added_cost < cost).unwrap_or(true) {
                    best = Some((out.added_cost, c));
                }
            }
        }
    }
    // No feasible bid keeps the request home — unless home is the down
    // shard, where the lowest-id live neighbour holds it instead (it waits
    // in that shard's pool and is stranded only if no later batch serves
    // it: exact accounting either way).
    let fallback = if down == Some(home) {
        candidates.first().copied().unwrap_or(home)
    } else {
        home
    };
    RouteDecision {
        winner: best.map(|(_, c)| c).unwrap_or(fallback),
        home,
        bids,
    }
}

/// Moves idle vehicles from relaxed shards to overloaded adjacent shards.
///
/// Deterministic rule, evaluated in ascending shard order against the
/// pending counts captured *before* any move: a shard with zero pending
/// requests donates its lowest-id idle vehicles (up to `max_moves`) to each
/// adjacent shard holding more pending requests than vehicles.  Donated
/// vehicles append to the receiving fleet, keeping both fleets' orders
/// deterministic.  A `down` shard neither donates nor receives: its fleet is
/// frozen for the outage.
fn rebalance(
    shards: &mut [Shard],
    regions: &RegionGrid,
    max_moves: usize,
    down: Option<usize>,
) -> u64 {
    let pending: Vec<usize> = shards
        .iter()
        .map(|s| s.dispatcher.pending_requests())
        .collect();
    let mut moved_total = 0u64;
    for donor in 0..shards.len() {
        if pending[donor] > 0 || down == Some(donor) {
            continue;
        }
        let mut budget = max_moves;
        'targets: for t in regions.adjacent(donor as RegionId) {
            let t = t as usize;
            if down == Some(t) {
                continue;
            }
            while budget > 0 && pending[t] > shards[t].lane.vehicles.len() {
                let Some(pos) = shards[donor]
                    .lane
                    .vehicles
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.is_idle())
                    .min_by_key(|(_, v)| v.id)
                    .map(|(i, _)| i)
                else {
                    break 'targets;
                };
                let vehicle = shards[donor].lane.vehicles.remove(pos);
                shards[t].lane.vehicles.push(vehicle);
                budget -= 1;
                moved_total += 1;
            }
        }
    }
    moved_total
}

/// The union fleet, cloned and sorted by vehicle id — the canonical global
/// view recorded into sharded traces.
fn fleet_snapshot(shards: &[Shard]) -> Vec<Vehicle> {
    let mut all: Vec<Vehicle> = shards
        .iter()
        .flat_map(|s| s.lane.vehicles.iter().cloned())
        .collect();
    all.sort_by_key(|v| v.id);
    all
}

/// A vertical-strip region layout covering `network`'s bounding box with
/// `shards` regions — the default layout for side-by-side city workloads.
/// Delegates to [`RegionGrid::strips_covering`], the same constructor the
/// multi-region workload generator uses, so a workload and the simulator
/// sharding it always agree on the strip layout.
pub fn region_strips_for(network: &RoadNetwork, shards: u32) -> RegionGrid {
    RegionGrid::strips_covering(network.bounding_box(), shards)
}

/// A `rows × cols` region layout covering `network`'s bounding box — the
/// general form of [`region_strips_for`] for two-dimensional shard layouts
/// (e.g. a 2×3 six-region grid).
pub fn region_grid_for(network: &RoadNetwork, rows: u32, cols: u32) -> RegionGrid {
    RegionGrid::covering(network.bounding_box(), rows, cols)
}

/// The in-flight state of one sharded run: the shards (one [`Lane`] each)
/// plus every cross-batch counter, with the per-batch routing / dispatch /
/// merge / rebalance sequence in its [`BatchRun::step`] so the three batch
/// sources — clock-driven ([`ShardedSimulator::run`]), fed from recorded
/// boundaries ([`ShardedSimulator::run_fed_recorded`]) and ingested
/// ([`ShardedSimulator::run_ingested`](crate::ingest)) — execute the
/// *identical* step.  That sharing is what makes a recorded ingested run
/// re-runnable: determinism holds per step, whatever produced the batch
/// boundaries.
pub(crate) struct ShardedRun<'a> {
    config: StructRideConfig,
    sharding: ShardingConfig,
    network: &'a RoadNetwork,
    regions: &'a RegionGrid,
    shards: Vec<Shard>,
    served: HashSet<RequestId>,
    batches: usize,
    now: f64,
    /// The run-level counters a checkpoint carries (handoffs, migrations,
    /// epoch/label rolls, fault telemetry).
    counters: CheckpointCounters,
    setup_seconds: f64,
    full_build_seconds: f64,
    /// Shared global index + per-shard halo slices, bytes.
    label_bytes: usize,
    /// Traffic epoch currently loaded into the shard engines.
    current_epoch: u64,
    label_refresh_seconds: f64,
    run_t0: Instant,
}

impl<'a> ShardedRun<'a> {
    /// Builds the shards and homes each vehicle to the shard of its starting
    /// node, preserving input order within each shard.
    ///
    /// Setup builds the global hub-label index **once** (in parallel) and
    /// shares it — together with a single `Arc`'d copy of the network —
    /// across all shards; each shard then extracts its halo sub-network and
    /// slices the shared labels down to it.  This replaces the pre-PR-5
    /// per-shard whole-network clone + from-scratch label build, whose cost
    /// scaled as `k×|V|`.
    pub(crate) fn new(
        sim: &ShardedSimulator,
        network: &'a RoadNetwork,
        regions: &'a RegionGrid,
        vehicles: Vec<Vehicle>,
        make_dispatcher: &dyn Fn(usize) -> ShardDispatcher,
    ) -> Self {
        let setup_t0 = Instant::now();
        let shared_net = Arc::new(network.clone());
        let traffic = sim.config().traffic;
        let halos = halo_vertices(network, regions, sim.sharding().handoff_band);
        // Static configs keep the pre-traffic fast path: one shared label
        // build, static clipped engines, no epoch store.  Traffic configs
        // build the shared EpochStore (its initial-epoch label build is the
        // timed full build — bit-identical to the static path when epoch 0
        // is free flow) and per-shard *self-rolling* clipped engines over
        // it, so every later epoch boundary is handled inside
        // `SpEngine::roll_epoch_to` instead of by an external rebuild.
        let (store, full_build_seconds, engines, full_label_bytes);
        if traffic.is_static() {
            let full_t0 = Instant::now();
            let full_labels = Arc::new(HubLabels::build(&shared_net));
            full_build_seconds = full_t0.elapsed().as_secs_f64();
            // Clipped engines are independent per shard: extract + slice in
            // parallel, collected in shard order (deterministic).
            engines = halos
                .par_iter()
                .map(|halo| {
                    SpEngineBuilder::new().build_clipped(
                        shared_net.clone(),
                        full_labels.clone(),
                        halo,
                    )
                })
                .collect::<Vec<SpEngine>>();
            full_label_bytes = full_labels.approx_bytes();
            store = None;
        } else {
            let full_t0 = Instant::now();
            let epoch_store = EpochStore::new(shared_net.clone(), traffic, true);
            full_build_seconds = full_t0.elapsed().as_secs_f64();
            engines = halos
                .par_iter()
                .map(|halo| SpEngineBuilder::new().build_traffic_clipped(epoch_store.clone(), halo))
                .collect::<Vec<SpEngine>>();
            let initial = epoch_store.initial_artifacts();
            full_label_bytes = initial.labels().map(|l| l.approx_bytes()).unwrap_or(0);
            store = Some(epoch_store);
        }
        let label_bytes = full_label_bytes
            + engines
                .iter()
                .map(|e| if e.is_clipped() { e.index_bytes() } else { 0 })
                .sum::<usize>();
        let mut shards: Vec<Shard> = engines
            .into_iter()
            .enumerate()
            .map(|(i, engine)| Shard {
                lane: Lane::new(&engine, *sim.config(), Vec::new()),
                engine,
                dispatcher: make_dispatcher(i),
                inbox: Vec::new(),
                routed: Vec::new(),
                last_assigned: Vec::new(),
                last_scratch: ScratchStats::default(),
                down: false,
            })
            .collect();
        let setup_seconds = setup_t0.elapsed().as_secs_f64();
        for vehicle in vehicles {
            let p = network.coord(vehicle.node);
            let home = regions.region_of(p.x, p.y) as usize;
            shards[home].lane.vehicles.push(vehicle);
        }
        for shard in &mut shards {
            shard.lane.reindex(&shard.engine);
        }
        // Kick the background label prebuild only now — after setup_seconds
        // is measured — so the builder threads overlap the batch loop
        // instead of contending with the halo extraction above.
        if let Some(store) = &store {
            store.ensure_prebuild();
        }
        ShardedRun {
            config: *sim.config(),
            sharding: *sim.sharding(),
            network,
            regions,
            shards,
            served: HashSet::new(),
            batches: 0,
            now: 0.0,
            counters: CheckpointCounters::default(),
            setup_seconds,
            full_build_seconds,
            label_bytes,
            current_epoch: traffic.epoch_at(0.0).index,
            label_refresh_seconds: 0.0,
            run_t0: Instant::now(),
        }
    }

    /// Rolls every shard engine to the traffic epoch containing `now`
    /// through the shared [`EpochStore`]: the first engine to ask for the
    /// new signature fetches it (memo hit, background-prebuild join, or
    /// on-demand scoped repair), every other shard gets the memoized
    /// artifacts for free, and clipped engines whose halo the transition
    /// provably did not touch skip their re-cut entirely (Tier 3) — their
    /// slices and caches stay live across the roll.  Every shard's
    /// fleet-index prescreen rate is re-pinned from the epoch artifacts so
    /// prescreens stay sound under congestion.  No-op for static configs
    /// and within an epoch.
    ///
    /// Engines persist across rolls, so their diagnostic query counters
    /// simply keep accumulating (they are excluded from replay comparisons
    /// but still reported).
    fn roll_epoch_to(&mut self, now: f64) {
        if self.config.traffic.is_static() {
            return;
        }
        let epoch = self.config.traffic.epoch_at(now);
        if epoch.index == self.current_epoch {
            return;
        }
        let t0 = Instant::now();
        for_each_shard(&mut self.shards, &|s| s.lane.roll(&s.engine, now));
        if epoch.uniform_multiplier().is_some() {
            self.counters.labels_rescaled += 1;
        } else {
            self.counters.labels_rebuilt += 1;
        }
        self.current_epoch = epoch.index;
        self.counters.epoch_rolls += 1;
        self.label_refresh_seconds += t0.elapsed().as_secs_f64();
    }

    /// Drains every committed schedule and assembles the report.
    pub(crate) fn finish(mut self, workload_name: &str, horizon_end: f64) -> ShardedReport {
        let now = self.now;
        for_each_shard(&mut self.shards, &|s| {
            s.lane.drain(&s.engine, now, horizon_end)
        });

        let batches = self.batches;
        let per_shard: Vec<RunMetrics> = self
            .shards
            .iter()
            .map(|s| {
                let sp_queries = s.engine.stats().index_queries;
                let mut metrics = s.lane.metrics(
                    s.dispatcher.as_ref(),
                    workload_name,
                    &s.routed,
                    batches,
                    sp_queries,
                );
                // Actual label bytes of the shard's own index (the halo
                // slice; the whole index for a single covering shard) — not
                // the dispatcher's container-capacity estimate.
                metrics.memory_bytes = s.engine.index_bytes();
                metrics
            })
            .collect();
        let aggregate =
            RunMetrics::merge_all(&per_shard, &self.config.cost).expect("at least one shard");
        let sp_fallback_queries = self
            .shards
            .iter()
            .map(|s| s.engine.fallback_queries())
            .sum();
        let vehicles = fleet_snapshot(&self.shards);
        let served = std::mem::take(&mut self.served);
        ShardedReport {
            aggregate,
            per_shard,
            vehicles,
            served,
            handoffs: self.counters.handoffs,
            handoff_bids: self.counters.handoff_bids,
            migrations: self.counters.migrations,
            setup_seconds: self.setup_seconds,
            full_build_seconds: self.full_build_seconds,
            label_bytes: self.label_bytes,
            sp_fallback_queries,
            run_seconds: self.run_t0.elapsed().as_secs_f64(),
            label_refresh_seconds: self.label_refresh_seconds,
            epoch_rolls: self.counters.epoch_rolls,
            labels_rescaled: self.counters.labels_rescaled,
            labels_rebuilt: self.counters.labels_rebuilt,
            faults_injected: self.counters.faults_injected,
            batches_degraded: self.counters.batches_degraded,
            degraded_offered: self.counters.degraded_offered,
            degraded_served: self.counters.degraded_served,
            shards_refreshed: self.shards.iter().map(|s| s.engine.slice_refreshes()).sum(),
        }
    }
}

impl BatchRun for ShardedRun<'_> {
    fn batches(&self) -> usize {
        self.batches
    }

    /// Requests currently held across all shard dispatchers.
    fn pending(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.dispatcher.pending_requests())
            .sum()
    }

    /// Executes one batch at simulated time `now`: advance every shard's
    /// fleet to the shared clock, route the batch (home region or best-bid
    /// handoff), dispatch every shard's sub-batch in parallel, merge the
    /// outcomes in ascending shard order, and rebalance idle vehicles.
    /// Returns the request ids committed this batch, in shard-merge order.
    fn step(
        &mut self,
        now: f64,
        batch: &[Request],
        recorder: &mut Option<&mut TraceRecorder>,
        stages: Option<&StageClock>,
    ) -> Vec<RequestId> {
        // Roll the traffic epoch *before* the advance sweep so the whole
        // batch — vehicle movement, routing bids, dispatch — sees one epoch
        // (mirrors the monolithic simulator's ordering).  Down shards roll
        // too: an outage kills the dispatcher, not the map.
        let span = Span::open(stages, Stage::Roll);
        self.roll_epoch_to(now);
        span.close();
        self.now = now;
        // The batch's fault plan: pure in (config, batch index, shard
        // count), so a replay or a resumed checkpoint derives the identical
        // schedule (see `crate::faults`).
        let plan = self.config.faults.plan_at(self.batches, self.shards.len());
        let prev_down = self.batches.checked_sub(1).and_then(|prev| {
            let faults = &self.config.faults;
            faults.plan_at(prev, self.shards.len()).down_shard
        });
        let down = plan.down_shard;
        for (i, s) in self.shards.iter_mut().enumerate() {
            s.down = down == Some(i);
        }
        let span = Span::open(stages, Stage::Advance);
        for_each_shard(&mut self.shards, &|s| {
            // A down shard's fleet is frozen — `advance_to` is a pure
            // fast-forward of committed schedules, so the recovery batch
            // catches it up deterministically.
            if !s.down {
                s.lane.advance(&s.engine, now);
            }
        });
        // Recovery boundary: the shard that was down last batch just
        // fast-forwarded across the whole outage in the sweep above —
        // rebuild its fleet index from scratch and re-admit the region (the
        // routing below includes it again).
        if let Some(r) = prev_down {
            if down != Some(r) {
                let s = &mut self.shards[r];
                s.lane.reindex(&s.engine);
            }
        }
        span.close();
        if let Some(rec) = recorder.as_deref_mut() {
            let _span = Span::open(stages, Stage::Record);
            rec.batch_started(self.batches, now, batch, &fleet_snapshot(&self.shards));
        }
        let span = Span::open(stages, Stage::Route);

        // Outage injection: the moment a shard goes down, its carried-over
        // pending pool is drained and rerouted below through the same
        // handoff-bid auction as boundary requests.  The drained requests
        // leave the victim's penalty ledger and re-enter the winner's, so
        // served/stranded accounting stays exact.
        let mut orphaned: Vec<Request> = Vec::new();
        if plan.outage_starts {
            self.counters.faults_injected += 1;
            let victim = down.expect("outage_starts implies a down shard");
            orphaned = self.shards[victim].dispatcher.take_pending();
            if !orphaned.is_empty() {
                let ids: HashSet<RequestId> = orphaned.iter().map(|r| r.id).collect();
                self.shards[victim]
                    .routed
                    .retain(|(id, _)| !ids.contains(id));
            }
        }
        if down.is_some() {
            self.counters.batches_degraded += 1;
            self.counters.degraded_offered += (orphaned.len() + batch.len()) as u64;
        }

        // Route the batch: home region or best-bid handoff.  Pure reads
        // over the pre-dispatch shard states; order-preserving collect.
        // The per-shard position grids behind the top-m shortlist are only
        // worth building when an auction can actually happen — i.e. the
        // batch holds at least one boundary request (interior requests
        // route home with zero bids either way).
        let band = self.sharding.handoff_band;
        let has_boundary_request = band > 0.0
            && batch.iter().any(|r| {
                let p = self.network.coord(r.source);
                self.regions.is_boundary(p.x, p.y, band)
            });
        let mut orphan_decisions: Vec<RouteDecision> = Vec::new();
        let decisions: Vec<RouteDecision> = if has_boundary_request || down.is_some() {
            let views: Vec<ShardView<'_>> = self.shards.iter().map(ShardView::new).collect();
            let (network, regions) = (self.network, self.regions);
            let top_m = self.sharding.top_m;
            let route = |r: &Request| route_request(r, network, regions, &views, band, top_m, down);
            // The dead shard's drained pool fails over through the same
            // auction, ahead of the batch's own requests (they were released
            // earlier).
            orphan_decisions = orphaned.par_iter().map(route).collect();
            batch.par_iter().map(route).collect()
        } else {
            batch
                .iter()
                .map(|r| home_decision(r, self.network, self.regions))
                .collect()
        };
        let routed = orphaned
            .iter()
            .zip(&orphan_decisions)
            .chain(batch.iter().zip(&decisions));
        for (request, decision) in routed {
            if decision.winner != decision.home {
                self.counters.handoffs += 1;
            }
            self.counters.handoff_bids += decision.bids;
            let shard = &mut self.shards[decision.winner];
            shard.routed.push((request.id, request.direct_cost()));
            shard.inbox.push(request.clone());
        }

        span.close();

        // Dispatch every shard's sub-batch in parallel.
        let batch_index = self.batches;
        let span = Span::open(stages, Stage::Dispatch);
        for_each_shard(&mut self.shards, &|s| {
            if s.down {
                // The dead shard neither received requests nor dispatches;
                // its previous batch's outcome must not leak into this
                // batch's merge.
                debug_assert!(s.inbox.is_empty(), "no requests route to a down shard");
                s.last_assigned = Vec::new();
                s.last_scratch = ScratchStats::default();
                return;
            }
            let inbox = std::mem::take(&mut s.inbox);
            let dispatcher = s.dispatcher.as_mut();
            let (outcome, scratch) =
                s.lane
                    .dispatch(&s.engine, dispatcher, now, batch_index, &inbox, stages);
            s.last_scratch = scratch;
            s.last_assigned = outcome.assigned;
        });
        span.close();

        // Merge per-shard outcomes in ascending shard order (canonical).
        let mut merged = BatchOutcome::empty();
        let mut merged_scratch = ScratchStats::default();
        for s in self.shards.iter_mut() {
            self.served.extend(s.last_assigned.iter().copied());
            merged_scratch.insertion_evaluations += s.last_scratch.insertion_evaluations;
            merged_scratch.groups_enumerated += s.last_scratch.groups_enumerated;
            merged_scratch.prescreen_pruned += s.last_scratch.prescreen_pruned;
            merged.assigned.append(&mut s.last_assigned);
        }
        if down.is_some() {
            self.counters.degraded_served += merged.assigned.len() as u64;
        }
        self.batches += 1;
        if let Some(rec) = recorder.as_deref_mut() {
            let _span = Span::open(stages, Stage::Record);
            rec.batch_finished(&merged, &fleet_snapshot(&self.shards), merged_scratch);
        }

        if self.sharding.rebalance && self.shards.len() > 1 {
            let _span = Span::open(stages, Stage::Rebalance);
            let moved = rebalance(
                &mut self.shards,
                self.regions,
                self.sharding.max_migrations_per_batch,
                down,
            );
            if moved > 0 {
                // Migration removes/appends across fleet slices, shifting
                // the slot indexes the grids are keyed by: rebuild.
                for s in self.shards.iter_mut() {
                    s.lane.reindex(&s.engine);
                }
            }
            self.counters.migrations += moved;
        }
        merged.assigned
    }

    /// Snapshots the full mutable run state at a batch boundary — a pure
    /// read (non-destructive dispatcher snapshots, cloned ledgers), so a
    /// checkpointing run steps bit-identically to a non-checkpointing one.
    /// Wall-clock diagnostics (dispatch/setup/label-refresh seconds,
    /// shortest-path query counters) are deliberately not captured; resumed
    /// runs re-accumulate them from zero, exactly as replay comparisons
    /// exclude them.
    fn capture(&self, workload_name: &str, next_request: usize) -> Checkpoint {
        let mut served: Vec<RequestId> = self.served.iter().copied().collect();
        served.sort_unstable();
        Checkpoint {
            algorithm: self.shards[0].dispatcher.name().to_string(),
            workload: workload_name.to_string(),
            config: self.config,
            sharded: true,
            now: self.now,
            batches: self.batches,
            next_request,
            served,
            counters: self.counters,
            shards: self
                .shards
                .iter()
                .map(|s| s.lane.capture(s.dispatcher.as_ref(), s.routed.clone()))
                .collect(),
        }
    }

    /// Reinstates a captured state into a freshly built run (same network,
    /// regions and shard count).  Fleets are restored in slot order (slot
    /// order is load-bearing after migrations), dispatcher pools and edges
    /// verbatim, and every shard engine is rolled to the checkpoint's
    /// traffic epoch — a pure function of (config, batch clock), so one
    /// direct roll lands exactly where the original run's incremental rolls
    /// did.
    fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), ResumeError> {
        if !ckpt.sharded {
            return Err(ResumeError::WrongPipeline);
        }
        if ckpt.shards.len() != self.shards.len() {
            return Err(ResumeError::ShardCount {
                expected: self.shards.len(),
                found: ckpt.shards.len(),
            });
        }
        self.served = ckpt.served.iter().copied().collect();
        self.batches = ckpt.batches;
        self.now = ckpt.now;
        for (shard, s) in self.shards.iter_mut().zip(&ckpt.shards) {
            shard
                .lane
                .restore(&shard.engine, shard.dispatcher.as_mut(), s);
            shard.routed = s.routed.clone();
        }
        // Prime the traffic epoch (each lane re-pins its certified prescreen
        // rate as its engine rolls), then set the counters to the
        // checkpointed totals — the one direct roll would otherwise count as
        // a single transition.
        self.roll_epoch_to(ckpt.now);
        self.counters = ckpt.counters;
        Ok(())
    }
}

/// The batch-synchronous multi-shard simulation driver.  See the module docs
/// for the handoff and determinism invariants.
pub struct ShardedSimulator {
    config: StructRideConfig,
    sharding: ShardingConfig,
}

impl ShardedSimulator {
    /// Creates a sharded simulator with the default [`ShardingConfig`].
    pub fn new(config: StructRideConfig) -> Self {
        Self::with_sharding(config, ShardingConfig::default())
    }

    /// Creates a sharded simulator with explicit sharding knobs.
    pub fn with_sharding(config: StructRideConfig, sharding: ShardingConfig) -> Self {
        ShardedSimulator { config, sharding }
    }

    /// The framework configuration every shard runs with.
    pub fn config(&self) -> &StructRideConfig {
        &self.config
    }

    /// The sharding knobs.
    pub fn sharding(&self) -> &ShardingConfig {
        &self.sharding
    }

    /// Runs one dispatcher per region of `regions` over the partitioned
    /// fleet and request stream.
    ///
    /// `make_dispatcher(shard_id)` constructs each shard's dispatcher —
    /// typically `|_| Box::new(SardDispatcher::new(config))`.  Every shard
    /// gets its own halo-clipped [`SpEngine`] (independent shortest-path
    /// cache, compact label slice) over the `Arc`-shared global network and
    /// index, so `network` is the *whole* road network: shards partition the
    /// fleet and the demand, not the map.
    pub fn run<F>(
        &self,
        network: &RoadNetwork,
        regions: &RegionGrid,
        requests: &[Request],
        vehicles: Vec<Vehicle>,
        make_dispatcher: F,
        workload_name: &str,
    ) -> ShardedReport
    where
        F: Fn(usize) -> ShardDispatcher,
    {
        self.run_with(
            network,
            regions,
            requests,
            vehicles,
            make_dispatcher,
            workload_name,
            RunHooks::default(),
        )
    }

    /// Like [`ShardedSimulator::run`], but records the canonical global
    /// trace (release-ordered batches, id-sorted union fleet, shard-ordered
    /// merged outcomes) into `recorder` for
    /// [`diff_traces`](crate::replay::diff_traces)-based verification.
    #[allow(clippy::too_many_arguments)]
    pub fn run_recorded<F>(
        &self,
        network: &RoadNetwork,
        regions: &RegionGrid,
        requests: &[Request],
        vehicles: Vec<Vehicle>,
        make_dispatcher: F,
        workload_name: &str,
        recorder: &mut TraceRecorder,
    ) -> ShardedReport
    where
        F: Fn(usize) -> ShardDispatcher,
    {
        let hooks = RunHooks {
            recorder: Some(recorder),
            ..RunHooks::default()
        };
        self.run_with(
            network,
            regions,
            requests,
            vehicles,
            make_dispatcher,
            workload_name,
            hooks,
        )
    }

    /// Like [`ShardedSimulator::run`], observed through `hooks`: a trace
    /// recorder, a checkpoint sink (fed at every batch boundary the fault
    /// plan's cadence marks), both or neither.  Both are pure reads, so any
    /// combination finishes bit-identically to a plain run.
    #[allow(clippy::too_many_arguments)]
    pub fn run_with<F>(
        &self,
        network: &RoadNetwork,
        regions: &RegionGrid,
        requests: &[Request],
        vehicles: Vec<Vehicle>,
        make_dispatcher: F,
        workload_name: &str,
        hooks: RunHooks<'_>,
    ) -> ShardedReport
    where
        F: Fn(usize) -> ShardDispatcher,
    {
        let mut run = ShardedRun::new(self, network, regions, vehicles, &make_dispatcher);
        let offered = drive_clock(&mut run, &self.config, requests, workload_name, hooks, None)
            .expect("only a resume can be refused");
        run.finish(workload_name, offered.horizon_end)
    }

    /// Continues a sharded run from `checkpoint` and finishes it
    /// bit-identically to the uninterrupted run (aggregate and per-shard
    /// deterministic metrics, served set, final fleet; wall-clock
    /// diagnostics re-accumulate from zero).  `network`, `regions`,
    /// `requests` and `make_dispatcher` must match the original run — the
    /// checkpoint carries the fleets and pools, not the map or the future
    /// request stream.
    ///
    /// # Errors
    ///
    /// [`ResumeError`] when the checkpoint is a monolithic one, its shard
    /// sections do not match `regions`, or it points past the end of
    /// `requests`.
    pub fn resume<F>(
        &self,
        network: &RoadNetwork,
        regions: &RegionGrid,
        requests: &[Request],
        make_dispatcher: F,
        checkpoint: &Checkpoint,
    ) -> Result<ShardedReport, ResumeError>
    where
        F: Fn(usize) -> ShardDispatcher,
    {
        let name = checkpoint.workload.as_str();
        let mut run = ShardedRun::new(self, network, regions, Vec::new(), &make_dispatcher);
        let offered = drive_clock(
            &mut run,
            &self.config,
            requests,
            name,
            RunHooks::default(),
            Some(checkpoint),
        )?;
        Ok(run.finish(name, offered.horizon_end))
    }

    /// Re-runs the pipeline from *explicit* batch boundaries — each entry is
    /// `(now, released requests)` — recording the canonical global trace.
    ///
    /// This is the verification path for **ingested** sharded runs (see
    /// [`crate::ingest`]): realized wall-clock boundaries are not
    /// reproducible, but given the recorded boundaries the pipeline is
    /// deterministic, so re-running from them under a different worker count
    /// and diffing the traces ([`diff_traces`](crate::replay::diff_traces))
    /// enforces the replay invariant.  No early exit and no carried-over
    /// tail: exactly the fed batches are stepped.
    #[allow(clippy::too_many_arguments)]
    pub fn run_fed_recorded<F>(
        &self,
        network: &RoadNetwork,
        regions: &RegionGrid,
        batches: &[(f64, Vec<Request>)],
        vehicles: Vec<Vehicle>,
        make_dispatcher: F,
        workload_name: &str,
        recorder: &mut TraceRecorder,
    ) -> ShardedReport
    where
        F: Fn(usize) -> ShardDispatcher,
    {
        let mut run = ShardedRun::new(self, network, regions, vehicles, &make_dispatcher);
        let mut rec = Some(recorder);
        let mut offered = Offered::default();
        for (now, batch) in batches {
            batch.iter().for_each(|r| offered.push(r));
            run.step(*now, batch, &mut rec, None);
        }
        run.finish(workload_name, offered.horizon_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use structride_roadnet::{Point, RoadNetworkBuilder};

    fn two_cluster_network() -> RoadNetwork {
        // Two 3-node clusters 1000 m apart, bridged by one slow edge.
        let mut b = RoadNetworkBuilder::new();
        for i in 0..3 {
            b.add_node(Point::new(i as f64 * 50.0, 0.0));
        }
        for i in 0..3 {
            b.add_node(Point::new(1000.0 + i as f64 * 50.0, 0.0));
        }
        for i in 1..3u32 {
            b.add_bidirectional(i - 1, i, 10.0).unwrap();
            b.add_bidirectional(3 + i - 1, 3 + i, 10.0).unwrap();
        }
        b.add_bidirectional(2, 3, 200.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn region_strips_cover_the_network() {
        let net = two_cluster_network();
        let grid = region_strips_for(&net, 2);
        assert_eq!(grid.len(), 2);
        // The west cluster's nodes are in region 0, the east one's in 1.
        for v in [0u32, 1, 2] {
            let p = net.coord(v);
            assert_eq!(grid.region_of(p.x, p.y), 0);
        }
        for v in [3u32, 4, 5] {
            let p = net.coord(v);
            assert_eq!(grid.region_of(p.x, p.y), 1);
        }
    }

    #[test]
    fn isolated_config_disables_handoff_and_rebalance() {
        let c = ShardingConfig::isolated();
        assert_eq!(c.handoff_band, 0.0);
        assert!(!c.rebalance);
        let d = ShardingConfig::default();
        assert!(d.handoff_band > 0.0);
        assert!(d.rebalance);
    }
}
