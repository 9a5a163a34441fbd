//! Multi-region sharded dispatch: parallel per-shard pipelines with
//! cross-shard handoff.
//!
//! The [`Simulator`](crate::Simulator) drives one monolithic pipeline — one
//! dispatcher over the whole fleet and the whole request stream.  This
//! module partitions both by *region*: a
//! [`RegionGrid`] divides the road network's
//! bounding box into `k` regions, each region maps 1:1 to a **shard** owning
//! its own [`Dispatcher`] instance and the slice of the fleet currently
//! homed there.
//! [`ShardedSimulator`] advances all shards **batch-synchronously**: every
//! batch, all shards move their vehicles to the shared clock, the released
//! requests are routed to shards, every shard dispatches its sub-batch in
//! parallel (shard-level fan-out via recursive [`rayon::join`], plus each
//! dispatcher's own internal parallelism), and the per-shard outcomes are
//! merged in shard order.  Per-shard [`RunMetrics`] are aggregated with
//! [`RunMetrics::merge`] into one report.
//!
//! # One engine per run
//!
//! Every shard answers through one [`SpEngine`] that the run builds once —
//! one hub-label index behind one cache, as the paper's §V-A puts them —
//! and lends to every shard, as the [`Simulator`](crate::Simulator) lends
//! the caller's engine to its one shard.  The engine takes `&self`
//! everywhere, so shards query it concurrently; two shards racing on one
//! missing cache key both consult the index and obtain the same exact
//! distance.  The run rolls the engine once per traffic epoch change, on
//! the control thread, and then re-pins **every** lane's fleet-index rate
//! from it: on a shared engine only the first caller of
//! [`SpEngine::roll_epoch_to`] sees `true`, so no lane may wait for its own
//! `true` before re-pinning.
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
//!   the identity and no bids, migrations or outages happen.  The
//!   monolithic [`Simulator`](crate::Simulator) *is* that run: it steps the
//!   one `ShardedRun` over a 1×1 grid with [`ShardingConfig::isolated`],
//!   its own engine and its own dispatcher, so a one-shard
//!   [`ShardedSimulator`] run decides exactly as it does; only who built
//!   the engine and the checkpoint mode differ.  The aggregate report matches field for field (wall-clock
//!   `running_time` and the racy shortest-path query counters excepted, as
//!   documented on [`RunMetrics`]).
//! * **Recording.** A [`RunHooks::recorder`] captures a *global*
//!   trace (released requests in release order, the union fleet sorted by
//!   vehicle id, merged outcomes in shard order).  A sharded run cannot be
//!   replayed through a single `Dispatcher`, so verification re-runs the
//!   whole pipeline and diffs the two traces with
//!   [`diff_traces`](crate::replay::diff_traces).

use crate::config::StructRideConfig;
use crate::context::ScratchStats;
use crate::dispatcher::{BatchOutcome, Dispatcher};
use crate::fleet_index::FleetIndex;
use crate::ingest::IngestStats;
use crate::lane::{Lane, Offered};
use crate::metrics::RunMetrics;
use crate::replay::{Checkpoint, CheckpointCounters, TraceRecorder};
use crate::simulator::{drive, BatchSource, ResumeError, RunError, RunHooks, CLOCK_RUNS};
use crate::stages::{Stage, Timeline};
use rayon::prelude::*;
use std::borrow::Cow;
use std::collections::HashSet;
use std::time::Instant;
use structride_model::{insertion, Request, RequestId, Vehicle};
use structride_roadnet::{RoadNetwork, SpEngine, SpEngineBuilder};
use structride_spatial::{RegionGrid, RegionId};

/// A dispatcher owned by one shard (must be `Send`: shards dispatch on
/// worker threads).
pub type ShardDispatcher = Box<dyn Dispatcher + Send>;

/// Knobs of the sharding layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardingConfig {
    /// Width of the boundary band, in coordinate units (meters).  A request
    /// whose origin lies within this distance of another region is offered
    /// to that region's shard too; `0.0` disables cross-shard handoff.
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
    /// The whole fleet after all schedules executed, sorted by vehicle id
    /// (a one-shard run keeps its one lane's slot order).
    pub vehicles: Vec<Vehicle>,
    /// Requests assigned to some vehicle, across all shards.
    pub served: HashSet<RequestId>,
    /// Boundary requests won by a shard other than their home shard.
    pub handoffs: u64,
    /// Feasible insertion bids evaluated while routing boundary requests.
    pub handoff_bids: u64,
    /// Idle vehicles that changed shard ownership for load balancing.
    pub migrations: u64,
    /// Wall-clock of the whole setup — the run's one engine plus every
    /// shard's dispatcher — in seconds.  One-off cost, amortised over a long
    /// run; benchmarks report it separately from the steady-state batch
    /// loop.
    pub setup_seconds: f64,
    /// Wall-clock of building the run's one engine alone, seconds: the
    /// hub-label build of the initial epoch plus the landmark table.
    pub full_build_seconds: f64,
    /// Label-index bytes of the run's one engine at its initial epoch
    /// ([`HubLabels::approx_bytes`](structride_roadnet::HubLabels::approx_bytes),
    /// not container capacities).
    pub label_bytes: usize,
    /// Always 0; removed with ROADMAP 4(d).
    pub sp_fallback_queries: u64,
    /// Wall-clock of the batch loop and final drain, seconds.
    pub run_seconds: f64,
    /// Wall-clock spent on the epoch-roll path at traffic epoch boundaries:
    /// rescales for uniform epochs, memo lookups and label builds of the
    /// zone-reweighted base for zoned epochs, and the lanes' rate re-pins —
    /// in seconds.  `0.0` for static (free-flow) runs.
    pub label_refresh_seconds: f64,
    /// Number of traffic epoch boundaries crossed during the run (0 for
    /// static runs).
    pub epoch_rolls: u64,
    /// Epoch rolls into a zone-free epoch: the engines keep the free-flow
    /// labels and rescale every answer by the epoch's profile factor.
    pub labels_rescaled: u64,
    /// Epoch rolls into a zoned epoch: labels built over the zone-reweighted
    /// base (or the engine's memo of that build), answers rescaled by the
    /// profile factor.
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
    /// Always 0; removed with ROADMAP 4(d).
    pub shards_refreshed: u64,
    /// Ingest-level statistics: `Some` exactly for a
    /// [`BatchSource::Ingest`] run.
    pub ingest: Option<IngestStats>,
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

/// One shard: the dispatcher it borrows from whoever built the run, plus
/// the lane holding the fleet slice it currently owns.
struct Shard<'a> {
    dispatcher: &'a mut dyn Dispatcher,
    /// The shard's fleet slice, its persistent index (which feeds both the
    /// handoff shortlist and the dispatcher's certified candidate
    /// prescreen), served set and work counters.
    lane: Lane,
    /// Requests routed to this shard for the current batch (release order).
    inbox: Vec<Request>,
    /// Every request ever routed here, with its direct cost (for the
    /// per-shard unserved penalty), in routing order.
    routed: Vec<(RequestId, f64)>,
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
    fn new(engine: &'a SpEngine, shard: &'a Shard<'_>) -> Self {
        ShardView {
            engine,
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

/// Applies `f` to every shard and returns its results in shard order, so a
/// caller merges them canonically whatever the worker count.  Fans out even
/// for small shard counts (recursive split via [`rayon::join`]; the
/// slice-level `par_iter_mut` falls back to sequential below its chunking
/// threshold).
fn map_shards<T, F>(shards: &mut [Shard<'_>], f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut Shard<'_>) -> T + Sync,
{
    match shards.len() {
        0 => Vec::new(),
        1 => vec![f(&mut shards[0])],
        n => {
            let (a, b) = shards.split_at_mut(n / 2);
            let (mut left, right) = rayon::join(|| map_shards(a, f), || map_shards(b, f));
            left.extend(right);
            left
        }
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
        // No auction: the request stays in its pickup region.
        return RouteDecision {
            winner: home,
            home,
            bids: 0,
        };
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
    shards: &mut [Shard<'_>],
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

/// The union fleet sorted by vehicle id — the canonical global view recorded
/// into sharded traces.  One lane is already canonical: it is lent as is,
/// in slot order.
fn fleet_snapshot<'s>(shards: &'s [Shard<'_>]) -> Cow<'s, [Vehicle]> {
    if let [shard] = shards {
        return Cow::Borrowed(&shard.lane.vehicles);
    }
    let mut all: Vec<Vehicle> = shards
        .iter()
        .flat_map(|s| s.lane.vehicles.iter().cloned())
        .collect();
    all.sort_by_key(|v| v.id);
    Cow::Owned(all)
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

/// The in-flight state of one run: the shards (one [`Lane`] each) plus every
/// cross-batch counter, with the per-batch roll / advance / route / dispatch
/// / merge / rebalance sequence in its [`ShardedRun::step`].  It is the only
/// run type: the [`Simulator`](crate::Simulator) steps it as one shard over
/// the whole network, and every [`BatchSource`] — clock-driven, resumed, fed
/// from recorded boundaries and ingested — executes the *identical* step.
/// That sharing is what makes a recorded ingested run re-runnable:
/// determinism holds per step, whatever produced the batch boundaries.
pub(crate) struct ShardedRun<'a> {
    config: StructRideConfig,
    sharding: ShardingConfig,
    network: &'a RoadNetwork,
    regions: RegionGrid,
    /// The run's one engine, lent to every shard.
    engine: &'a SpEngine,
    /// The engine's index-query count when the run started: the run reports
    /// the queries of this run, not of the engine's lifetime.
    sp_before: u64,
    shards: Vec<Shard<'a>>,
    batches: usize,
    now: f64,
    /// The run-level counters a checkpoint carries (handoffs, migrations,
    /// epoch/label rolls, fault telemetry).
    counters: CheckpointCounters,
    /// Traffic epoch the engine was last rolled to.
    current_epoch: u64,
    label_refresh_seconds: f64,
    run_t0: Instant,
}

impl<'a> ShardedRun<'a> {
    /// Builds a run over one shard per region of `regions`, each stepping
    /// its dispatcher of `dispatchers` on the one `engine` (whose network
    /// is the whole map), and homes each
    /// vehicle to the shard of its starting node, preserving input order
    /// within each shard.
    ///
    /// The engine is rolled to the epoch of time zero first: a reused engine
    /// that an earlier run left at a later epoch starts this run where a
    /// fresh one would.
    pub(crate) fn new(
        config: StructRideConfig,
        sharding: ShardingConfig,
        regions: RegionGrid,
        engine: &'a SpEngine,
        dispatchers: Vec<&'a mut dyn Dispatcher>,
        vehicles: Vec<Vehicle>,
    ) -> Self {
        debug_assert_eq!(
            dispatchers.len(),
            regions.len(),
            "one dispatcher per region"
        );
        engine.roll_epoch_to(0.0);
        let network = engine.network();
        let mut shards: Vec<Shard<'a>> = dispatchers
            .into_iter()
            .map(|dispatcher| Shard {
                lane: Lane::new(engine, config, Vec::new()),
                dispatcher,
                inbox: Vec::new(),
                routed: Vec::new(),
                down: false,
            })
            .collect();
        for vehicle in vehicles {
            let p = network.coord(vehicle.node);
            let home = regions.region_of(p.x, p.y) as usize;
            shards[home].lane.vehicles.push(vehicle);
        }
        for shard in &mut shards {
            shard.lane.reindex(engine);
        }
        ShardedRun {
            config,
            sharding,
            network,
            regions,
            engine,
            sp_before: engine.stats().index_queries,
            shards,
            batches: 0,
            now: 0.0,
            counters: CheckpointCounters::default(),
            current_epoch: config.traffic.epoch_at(0.0).index,
            label_refresh_seconds: 0.0,
            run_t0: Instant::now(),
        }
    }

    /// Rolls the engine to the traffic epoch containing `now`, once, on the
    /// control thread.  A profile-only change rescales the engine's answers
    /// and keeps its labels; a zone flip fetches the new zone activity's
    /// labels from the engine's memo, or builds them the first time.  Then
    /// every lane's fleet-index prescreen rate is re-pinned from the new
    /// epoch, so prescreens stay sound under congestion.  Every lane, not
    /// only one that saw the engine's roll return `true`: the engine is
    /// shared, so only its first caller ever would.  No-op for static
    /// configs and within an epoch.
    ///
    /// The engine persists across rolls, so its diagnostic query counters
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
        self.engine.roll_epoch_to(now);
        let rate = self.engine.min_time_per_meter();
        for s in &mut self.shards {
            s.lane.fleet_index.set_min_time_per_meter(rate);
        }
        if epoch.signature().is_uniform() {
            self.counters.labels_rescaled += 1;
        } else {
            self.counters.labels_rebuilt += 1;
        }
        self.current_epoch = epoch.index;
        self.counters.epoch_rolls += 1;
        self.label_refresh_seconds += t0.elapsed().as_secs_f64();
    }

    /// Drains every committed schedule and assembles the report.  The
    /// set-up figures (`setup_seconds`, `full_build_seconds`, `label_bytes`)
    /// belong to whoever built the engine and read zero here.
    ///
    /// The run's index queries are read once from the one engine and booked
    /// on the aggregate.  With more than one shard every per-shard
    /// `sp_queries` reads 0: the shards share the engine's counter.
    ///
    /// Every request `offered` is charged exactly once: to the shard that
    /// last routed it, or — when no batch ever took it — to its home shard,
    /// as unserved.  Never-routed requests are the ingest front end's
    /// load-shed and timed-out arrivals; they go first in their shard's
    /// ledger.
    pub(crate) fn finish(mut self, workload_name: &str, offered: Offered) -> ShardedReport {
        let (engine, now, horizon_end) = (self.engine, self.now, offered.horizon_end);
        map_shards(&mut self.shards, &|s| {
            s.lane.drain(engine, now, horizon_end)
        });

        let routed: HashSet<RequestId> = self
            .shards
            .iter()
            .flat_map(|s| s.routed.iter().map(|&(id, _)| id))
            .collect();
        let mut ledgers: Vec<Vec<(RequestId, f64)>> = vec![Vec::new(); self.shards.len()];
        for &(id, cost, source) in &offered.ledger {
            if !routed.contains(&id) {
                let p = self.network.coord(source);
                ledgers[self.regions.region_of(p.x, p.y) as usize].push((id, cost));
            }
        }
        let batches = self.batches;
        let sp_queries = engine.stats().index_queries.saturating_sub(self.sp_before);
        let lane_sp_queries = if self.shards.len() == 1 {
            sp_queries
        } else {
            0
        };
        let per_shard: Vec<RunMetrics> = self
            .shards
            .iter()
            .zip(&mut ledgers)
            .map(|(s, ledger)| {
                ledger.extend_from_slice(&s.routed);
                s.lane.metrics(
                    s.dispatcher,
                    workload_name,
                    ledger,
                    batches,
                    lane_sp_queries,
                )
            })
            .collect();
        let aggregate = RunMetrics {
            sp_queries,
            ..RunMetrics::merge_all(&per_shard, &self.config.cost).expect("at least one shard")
        };
        let vehicles = fleet_snapshot(&self.shards).into_owned();
        let served = self
            .shards
            .iter()
            .flat_map(|s| s.lane.served.iter().copied())
            .collect();
        ShardedReport {
            aggregate,
            per_shard,
            vehicles,
            served,
            handoffs: self.counters.handoffs,
            handoff_bids: self.counters.handoff_bids,
            migrations: self.counters.migrations,
            setup_seconds: 0.0,
            full_build_seconds: 0.0,
            label_bytes: 0,
            sp_fallback_queries: 0,
            run_seconds: self.run_t0.elapsed().as_secs_f64(),
            label_refresh_seconds: self.label_refresh_seconds,
            epoch_rolls: self.counters.epoch_rolls,
            labels_rescaled: self.counters.labels_rescaled,
            labels_rebuilt: self.counters.labels_rebuilt,
            faults_injected: self.counters.faults_injected,
            batches_degraded: self.counters.batches_degraded,
            degraded_offered: self.counters.degraded_offered,
            degraded_served: self.counters.degraded_served,
            shards_refreshed: 0,
            ingest: offered.ingest,
        }
    }

    /// Number of batches stepped so far.
    pub(crate) fn batches(&self) -> usize {
        self.batches
    }

    /// The [`Dispatcher::name`] of the run's dispatchers — what a checkpoint
    /// it captures records as its algorithm.
    pub(crate) fn algorithm(&self) -> &'static str {
        self.shards[0].dispatcher.name()
    }

    /// Requests currently held across all shard dispatchers.
    pub(crate) fn pending(&self) -> usize {
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
    pub(crate) fn step(
        &mut self,
        now: f64,
        batch: &[Request],
        recorder: &mut Option<&mut TraceRecorder>,
        timeline: &mut Timeline<'_>,
    ) -> Vec<RequestId> {
        // Roll the traffic epoch *before* the advance sweep so the whole
        // batch — vehicle movement, routing bids, dispatch — sees one
        // epoch.  Down shards roll too: an outage kills the dispatcher, not
        // the map.  The timeline opened the batch in `Stage::Roll`.
        self.roll_epoch_to(now);
        timeline.enter(Stage::Advance);
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
        let engine = self.engine;
        map_shards(&mut self.shards, &|s| {
            // A down shard's fleet is frozen — `advance_to` is a pure
            // fast-forward of committed schedules, so the recovery batch
            // catches it up deterministically.
            if !s.down {
                s.lane.advance(engine, now);
            }
        });
        // Recovery boundary: the shard that was down last batch just
        // fast-forwarded across the whole outage in the sweep above —
        // rebuild its fleet index from scratch and re-admit the region (the
        // routing below includes it again).
        if let Some(r) = prev_down {
            if down != Some(r) {
                self.shards[r].lane.reindex(engine);
            }
        }
        if let Some(rec) = recorder.as_deref_mut() {
            timeline.enter(Stage::Record);
            rec.batch_started(self.batches, now, batch, &fleet_snapshot(&self.shards));
        }
        timeline.enter(Stage::Route);

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
        // over the pre-dispatch shard states; order-preserving collect.  The
        // dead shard's drained pool fails over through the same auction,
        // ahead of the batch's own requests (they were released earlier).
        let views: Vec<ShardView<'_>> = self
            .shards
            .iter()
            .map(|s| ShardView::new(engine, s))
            .collect();
        let (network, regions) = (self.network, &self.regions);
        let (band, top_m) = (self.sharding.handoff_band, self.sharding.top_m);
        let requests: Vec<&Request> = orphaned.iter().chain(batch).collect();
        let decisions: Vec<RouteDecision> = requests
            .par_iter()
            .map(|r| route_request(r, network, regions, &views, band, top_m, down))
            .collect();
        for (request, decision) in requests.into_iter().zip(decisions) {
            if decision.winner != decision.home {
                self.counters.handoffs += 1;
            }
            self.counters.handoff_bids += decision.bids;
            let shard = &mut self.shards[decision.winner];
            shard.routed.push((request.id, request.direct_cost()));
            shard.inbox.push(request.clone());
        }

        // Dispatch every shard's sub-batch in parallel, then merge the
        // outcomes in ascending shard order (canonical).
        timeline.enter(Stage::Dispatch);
        let stages = timeline.clock();
        let batch_index = self.batches;
        let outcomes = map_shards(&mut self.shards, &|s| {
            if s.down {
                // The dead shard neither received requests nor dispatches.
                debug_assert!(s.inbox.is_empty(), "no requests route to a down shard");
                return (BatchOutcome::empty(), ScratchStats::default());
            }
            let inbox = std::mem::take(&mut s.inbox);
            s.lane
                .dispatch(engine, s.dispatcher, now, batch_index, &inbox, stages)
        });
        let mut merged = BatchOutcome::empty();
        let mut merged_scratch = ScratchStats::default();
        for (mut outcome, scratch) in outcomes {
            merged.assigned.append(&mut outcome.assigned);
            merged_scratch += scratch;
        }
        if down.is_some() {
            self.counters.degraded_served += merged.assigned.len() as u64;
        }
        self.batches += 1;
        if let Some(rec) = recorder.as_deref_mut() {
            timeline.enter(Stage::Record);
            rec.batch_finished(&merged, &fleet_snapshot(&self.shards), merged_scratch);
        }

        if self.sharding.rebalance && self.shards.len() > 1 {
            timeline.enter(Stage::Rebalance);
            let moved = rebalance(
                &mut self.shards,
                &self.regions,
                self.sharding.max_migrations_per_batch,
                down,
            );
            if moved > 0 {
                // Migration removes/appends across fleet slices, shifting
                // the slot indexes the grids are keyed by: rebuild.
                for s in self.shards.iter_mut() {
                    s.lane.reindex(engine);
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
    /// exclude them.  One layout serves every shard count.
    pub(crate) fn capture(&self, workload_name: &str, next_request: usize) -> Checkpoint {
        Checkpoint {
            algorithm: self.algorithm().to_string(),
            workload: workload_name.to_string(),
            config: self.config,
            now: self.now,
            batches: self.batches,
            next_request,
            counters: self.counters,
            shards: self
                .shards
                .iter()
                .map(|s| s.lane.capture(s.dispatcher, s.routed.clone()))
                .collect(),
        }
    }

    /// Reinstates a captured state into a freshly built run (same network,
    /// regions and shard count), refusing a checkpoint of another shard
    /// count.  Fleets are restored in slot order (slot order is
    /// load-bearing after migrations), dispatcher pools and edges verbatim,
    /// and the engine is rolled to the checkpoint's traffic epoch — a pure
    /// function of (config, batch clock), so one direct roll lands exactly
    /// where the original run's incremental rolls did.
    pub(crate) fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), ResumeError> {
        if ckpt.shards.len() != self.shards.len() {
            return Err(ResumeError::ShardCount {
                expected: self.shards.len(),
                found: ckpt.shards.len(),
            });
        }
        self.batches = ckpt.batches;
        self.now = ckpt.now;
        for (shard, s) in self.shards.iter_mut().zip(&ckpt.shards) {
            shard.lane.restore(self.engine, shard.dispatcher, s);
            shard.routed = s.routed.clone();
        }
        // Prime the traffic epoch (every lane re-pins its certified
        // prescreen rate after the engine rolls), then set the counters to the
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
    /// typically `|_| Box::new(SardDispatcher::new(config))`.  The run
    /// builds one [`SpEngine`] over `network` under the config's traffic
    /// model and lends it to every shard, so `network` is the *whole* road
    /// network: shards partition the fleet and the demand, not the map.
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
        let (source, hooks) = (BatchSource::Clock(requests), RunHooks::default());
        self.execute(
            network,
            regions,
            source,
            vehicles,
            make_dispatcher,
            workload_name,
            hooks,
        )
        .expect(CLOCK_RUNS)
    }

    /// Runs the sharded pipeline over the batches `source` produces,
    /// observed through `hooks` — the sharded form of
    /// [`Simulator::execute`](crate::Simulator::execute), with the network,
    /// regions and dispatcher factory of [`ShardedSimulator::run`].  Every
    /// source executes the identical sharded step: an ingested run's
    /// realized batches are routed through `regions` into per-shard inboxes
    /// exactly as clock-driven ones are, and a recorder captures the
    /// canonical global trace (release-ordered batches, id-sorted union
    /// fleet, shard-ordered merged outcomes) for
    /// [`diff_traces`](crate::replay::diff_traces)-based verification.  A
    /// resumed run must be given the original run's `network`, `regions`,
    /// requests and dispatcher factory: the checkpoint carries the fleets
    /// and pools, not the map or the future request stream.
    ///
    /// # Errors
    ///
    /// [`RunError::Resume`] when a resumed checkpoint does not fit the run,
    /// [`RunError::Ingest`] when an ingest producer panics.
    #[allow(clippy::too_many_arguments)]
    pub fn execute<F>(
        &self,
        network: &RoadNetwork,
        regions: &RegionGrid,
        source: BatchSource<'_>,
        vehicles: Vec<Vehicle>,
        make_dispatcher: F,
        workload_name: &str,
        hooks: RunHooks<'_>,
    ) -> Result<ShardedReport, RunError>
    where
        F: Fn(usize) -> ShardDispatcher,
    {
        debug_assert!(
            !matches!(source, BatchSource::Resume(..)) || vehicles.is_empty(),
            "a resumed run restores its fleet from the checkpoint"
        );
        // Setup builds the run's one engine — the hub-label index (in
        // parallel), the landmark table and one cache — as every
        // `Simulator` caller does, then one dispatcher per shard.
        let setup_t0 = Instant::now();
        let engine = SpEngineBuilder::new()
            .traffic(self.config.traffic)
            .build(network.clone());
        let full_build_seconds = setup_t0.elapsed().as_secs_f64();
        let label_bytes = engine.index_bytes();
        let mut boxed: Vec<ShardDispatcher> = (0..regions.len()).map(make_dispatcher).collect();
        let setup_seconds = setup_t0.elapsed().as_secs_f64();
        let dispatchers = boxed
            .iter_mut()
            .map(|dispatcher| dispatcher.as_mut() as &mut dyn Dispatcher)
            .collect();
        let mut run = ShardedRun::new(
            self.config,
            self.sharding,
            regions.clone(),
            &engine,
            dispatchers,
            vehicles,
        );
        let offered = drive(&mut run, &self.config, workload_name, source, hooks)?;
        Ok(ShardedReport {
            setup_seconds,
            full_build_seconds,
            label_bytes,
            ..run.finish(workload_name, offered)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatcher::testing::Greedy;
    use structride_roadnet::{Point, RoadNetworkBuilder, TrafficConfig, TrafficProfile};

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

    /// The shared engine rolls once per epoch change, and every lane's
    /// fleet-index rate follows it: after every roll of a 3-shard rush run,
    /// each lane's certified rate is the engine's, bit for bit — also on the
    /// lanes whose turn would never see the shared roll return `true`.
    #[test]
    fn every_lane_re_pins_its_rate_after_each_shared_roll() {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..9 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 1..9u32 {
            b.add_bidirectional(i - 1, i, 10.0).unwrap();
        }
        let net = b.build().unwrap();
        let traffic = TrafficConfig {
            profile: TrafficProfile::Rush,
            epoch_seconds: 40.0,
            hour_scale: 20.0,
            ..TrafficConfig::default()
        };
        let config = StructRideConfig::default().with_traffic(traffic);
        let engine = SpEngineBuilder::new().traffic(traffic).build(net.clone());
        let mut greedy: Vec<Greedy> = (0..3).map(|_| Greedy { invert: false }).collect();
        let dispatchers = greedy
            .iter_mut()
            .map(|g| g as &mut dyn Dispatcher)
            .collect();
        let vehicles = (0..9).map(|i| Vehicle::new(i, i, 4)).collect();
        let regions = region_strips_for(&net, 3);
        let mut run = ShardedRun::new(
            config,
            ShardingConfig::default(),
            regions,
            &engine,
            dispatchers,
            vehicles,
        );
        let free_flow = engine.min_time_per_meter();
        let mut rates = HashSet::new();
        let mut untimed = Timeline::start(None);
        for batch in 0..12 {
            run.step(batch as f64 * 40.0, &[], &mut None, &mut untimed);
            let rate = engine.min_time_per_meter();
            rates.insert(rate.to_bits());
            for (i, shard) in run.shards.iter().enumerate() {
                assert_eq!(
                    shard.lane.fleet_index.min_time_per_meter().to_bits(),
                    rate.to_bits(),
                    "shard {i} after the roll of batch {batch}"
                );
            }
        }
        assert!(run.counters.epoch_rolls >= 11);
        assert!(rates.len() > 1 && rates.contains(&free_flow.to_bits()));
    }
}
