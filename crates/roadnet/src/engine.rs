//! The shortest-path query engine used by every dispatcher.
//!
//! [`SpEngine`] bundles the road network, a hub-label index and a
//! shortest-path cache behind a single `cost(u, v)` entry point.  It also
//! counts the number of *index* queries (cache misses answered by the
//! labels), which is the "#Shortest Path Queries" column of the paper's
//! Table V and Table VI angle-pruning ablation.
//!
//! Every engine is assembled from an `EpochStore` of its own — the
//! free-flow labels, the landmark table and a memo of zone artifacts — and
//! reads its current epoch — labels, profile scale, certified rates, epoch
//! number — from one slot.  A static engine's slot is fixed at build and
//! read without a lock; a traffic engine's slot sits behind the lock that
//! [`SpEngine::roll_epoch_to`] swaps at epoch boundaries.  A run builds one
//! engine and lends it to every shard, as the paper puts one hub-label
//! index behind one cache (§V-A).
//!
//! The cache stands where the paper puts its LRU cache (after Huang et al.),
//! with a different replacement policy.  It is a fixed table of 4-way sets
//! of `(source, target) → travel time` entries, split over 64 independently
//! locked stripes.  One multiplicative hash picks the stripe and the set; a
//! hit compares four slots and bumps a counter under that stripe's lock, and
//! touches nothing that every worker shares.  A full set evicts a
//! hash-chosen way instead of the least recently used entry.  At the default
//! 2¹⁸ entries the dispatch working set fits, so the hit ratio is the LRU's;
//! and since every entry is the exact index answer, replacement never
//! changes a result.  [`SpEngine::clear_cache`] and epoch rolls retire every
//! entry at once by advancing a key tag, without sweeping the table.
//!
//! The engine takes `&self` everywhere so it can be shared freely between the
//! dispatchers *and between the worker threads of the parallel batch
//! pipeline*: concurrent `cost()` calls only contend when their keys land on
//! the same stripe.  Under concurrency two threads may race on the same
//! missing key and both consult the index; the counters report exactly what
//! happened and both threads obtain the same exact distance.  Consequently
//! every *non-trivial* `cost()` call (source ≠ target) records exactly one
//! cache hit or one index query — trivial self-queries return early and
//! count only as total queries, and direct `cost_uncached()` calls add index
//! queries without total queries, so no global identity ties the three
//! counters together.  Note the race also means `index_queries` (the paper's
//! "#Shortest Path Queries") can differ by a handful between runs when more
//! than one worker thread is active, even though dispatch decisions are
//! bit-deterministic.

use crate::cache::SpCache;
use crate::graph::{NodeId, Point, RoadNetwork, LOWER_BOUND_GRACE};
use crate::hub_labels::HubLabels;
use crate::landmarks::Landmarks;
use crate::traffic::{EpochSignature, TrafficConfig, TrafficEpoch};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Counters describing the query workload seen by an [`SpEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpStats {
    /// Total `cost()` calls.
    pub total_queries: u64,
    /// Queries answered by the cache.
    pub cache_hits: u64,
    /// Queries that had to consult the hub labels.
    pub index_queries: u64,
}

/// Configuration builder for [`SpEngine`].
#[derive(Debug, Clone)]
pub struct SpEngineBuilder {
    cache_capacity: usize,
    traffic: TrafficConfig,
}

impl Default for SpEngineBuilder {
    fn default() -> Self {
        SpEngineBuilder {
            cache_capacity: 1 << 18,
            traffic: TrafficConfig::default(),
        }
    }
}

impl SpEngineBuilder {
    /// Starts from the default configuration (static weights, 256K-entry
    /// cache).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the cache capacity in entries, rounded up to a power-of-two
    /// number of sets per stripe.  Zero disables caching.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Attaches a time-dependent traffic model.  A non-static config makes
    /// [`SpEngineBuilder::build`] produce a **self-rolling** engine: the
    /// caller drives [`SpEngine::roll_epoch_to`] from the batch clock and
    /// the engine takes on the covering epoch's profile scale and, when the
    /// zone activity changes, its label index and certified rates at every
    /// epoch boundary.  A static config (the default) gives an engine whose
    /// one epoch slot is fixed at build and read without a lock.
    pub fn traffic(mut self, config: TrafficConfig) -> Self {
        self.traffic = config;
        self
    }

    /// Builds the engine for the given road network.  With a non-static
    /// [`SpEngineBuilder::traffic`] config, `net` is the free-flow base
    /// network and the engine starts in the epoch covering `now = 0`.
    pub fn build(self, net: RoadNetwork) -> SpEngine {
        let store = EpochStore::new(Arc::new(net), self.traffic);
        self.assemble(store)
    }

    /// Assembles an engine from `store`'s epoch covering `now = 0`,
    /// sharing the store's network and landmark table.  A static store
    /// gives a fixed slot whose weight ratio is exactly 1 (its network *is*
    /// the landmark table's); any other store a rolling one, which owns the
    /// store.
    fn assemble(self, store: EpochStore) -> SpEngine {
        let epoch = store.config().epoch_at(0.0);
        let mut current = EpochSlot {
            epoch: epoch.index,
            artifact: store.artifacts_for(&epoch),
            scale: 1.0,
            min_tpm: 0.0,
            min_ratio: 0.0,
        };
        current.rescale(epoch.scale());
        let (net, landmarks) = (store.base().clone(), store.landmarks.clone());
        let epochs = if store.config().is_static() {
            // The landmark table's own network: exactly 1, also where
            // `min_weight_ratio` says 0 (an edgeless network).
            current.min_ratio = 1.0;
            Epochs::Fixed(current)
        } else {
            Epochs::Rolling(Box::new(TrafficRuntime {
                store,
                slot: RwLock::new(current),
            }))
        };
        SpEngine {
            net,
            landmarks,
            epochs,
            cache: SpCache::new(self.cache_capacity),
            same_node_queries: AtomicU64::new(0),
            index_queries: AtomicU64::new(0),
        }
    }
}

/// Where an engine's current epoch lives.  [`SpEngine::current`] is the one
/// query-path reader that tells the two shapes apart.
#[derive(Debug)]
enum Epochs {
    /// A static engine: one slot, fixed at build, read without a lock.
    Fixed(EpochSlot),
    /// A self-rolling traffic engine.
    Rolling(Box<TrafficRuntime>),
}

/// The interior state of a self-rolling traffic engine: its store plus the
/// current epoch behind a read-write lock.  The lock is only ever written
/// by [`SpEngine::roll_epoch_to`], which the pipelines call at quiescent
/// batch boundaries (no concurrent queries in flight); during a batch every
/// worker thread takes cheap uncontended read locks.
#[derive(Debug)]
struct TrafficRuntime {
    store: EpochStore,
    slot: RwLock<EpochSlot>,
}

/// What every query reads about the current epoch.
#[derive(Debug)]
struct EpochSlot {
    /// The traffic epoch index (0 on a static engine).
    epoch: u64,
    /// The artifacts of the epoch's zone activity: the labels every index
    /// query reads, and the unscaled certified rates.
    artifact: Arc<EpochArtifacts>,
    /// The epoch's profile factor ([`TrafficEpoch::scale`]): every label
    /// answer is multiplied by it.  Exactly 1 on a static engine and in
    /// free-flow hours, where `1.0 × x == x` bit for bit.
    scale: f64,
    /// The certified `min_time_per_meter` of the epoch's travel times.
    min_tpm: f64,
    /// The epoch's smallest weight ratio over the landmark table's network
    /// (exactly 1 on a static engine).
    min_ratio: f64,
}

impl EpochSlot {
    /// Sets the epoch's profile `scale` and the certified rates of the
    /// slot's zone activity under it.  Rounding is monotone, so `f ⊗ d_z ≥
    /// f ⊗ (rate × euclid)` and `f ⊗ d_z ≥ f ⊗ (ratio × lb)` hold within the
    /// bounds' grace whenever the unscaled ones do.
    fn rescale(&mut self, scale: f64) {
        self.scale = scale;
        self.min_tpm = scale * self.artifact.min_tpm;
        self.min_ratio = scale * self.artifact.min_ratio;
    }
}

/// The shared artifacts of one zone activity ([`TrafficEpoch::signature`]):
/// the label index of the base network reweighted by the active zones'
/// factors alone, and its certified rates.  The profile factor is not in
/// here: an epoch's travel time is these labels' answer times the epoch's
/// [`TrafficEpoch::scale`], so one artifact serves every profile hour with
/// the same zone activity.
///
/// Artifacts are a pure function of `(base network, signature)`:
/// [`HubLabels::build`] is bit-identical under any worker count, so it
/// never matters *when* an artifact was produced — which is what makes the
/// memo sound.
#[derive(Debug)]
pub(crate) struct EpochArtifacts {
    labels: HubLabels,
    /// The certified `min_time_per_meter` of the zone-reweighted network,
    /// before the epoch's profile scale.
    min_tpm: f64,
    /// The smallest zone-reweighted weight ÷ base weight over all edges
    /// (see [`RoadNetwork::min_weight_ratio`]), before the epoch's profile
    /// scale: scales the base network's landmark bound to this zone
    /// activity.
    min_ratio: f64,
}

impl EpochArtifacts {
    /// The artifacts of `net`, the base network reweighted by one zone
    /// activity (the base itself when no zone is active).
    fn build(net: &RoadNetwork, base: &RoadNetwork) -> Self {
        EpochArtifacts {
            labels: HubLabels::build(net),
            min_tpm: net.min_time_per_meter(),
            min_ratio: net.min_weight_ratio(base),
        }
    }
}

/// Memoized per-zone-activity artifacts, shared by every epoch of one
/// engine's traffic model, and the engine's landmark table.
///
/// Every [`SpEngine`] is built from a store of its own, static ones
/// included.  The store builds the free-flow base's labels once, at
/// creation; a store whose config carries no zone never builds another
/// label set.
///
/// * **Uniform epochs** (no effective zone — every roll of a zone-free
///   `Rush`/`Custom` profile) share the base artifact.  A uniform scale
///   changes no shortest path, so the epoch's travel time is `f ⊗ d₀(u,
///   v)`: the free-flow labels' answer times the profile factor `f`,
///   rounded once.  This is the epoch's metric by definition; it is not
///   meant to equal, bit for bit, a label build over edges each scaled by
///   `f`.  Stored label floats are never rescaled either: the builder's
///   prune check compares two sums of one path length accumulated in
///   different orders, and scaling every weight re-rounds both sides
///   independently, so knife-edge settle / prune decisions would flip.
///   The scale is applied to answers, never to labels.
/// * **Zoned epochs** are `f ⊗ d_z`, where `d_z` is the base network
///   reweighted by the zone factors alone.  Its labels are one wholesale
///   [`HubLabels::build`] of that network.  Artifacts are keyed by zone
///   activity alone ([`TrafficEpoch::signature`]), so every profile hour
///   with the same active zones shares one build.
#[derive(Debug)]
pub(crate) struct EpochStore {
    base: Arc<RoadNetwork>,
    config: TrafficConfig,
    memo: Mutex<HashMap<EpochSignature, Arc<EpochArtifacts>>>,
    /// The free-flow base's landmark table, shared by the engine and every
    /// epoch: each epoch scales it by its `min_ratio`.
    landmarks: Arc<Landmarks>,
}

impl EpochStore {
    /// Builds the store: the free-flow base's labels and landmark table —
    /// the setup-time cost, with the zoned artifacts of the epoch covering
    /// `now = 0`, if any, that `SpEngineBuilder::assemble` fetches.
    pub(crate) fn new(base: Arc<RoadNetwork>, config: TrafficConfig) -> Self {
        let free_flow = EpochArtifacts::build(&base, &base);
        let memo = HashMap::from([(EpochSignature::default(), Arc::new(free_flow))]);
        EpochStore {
            landmarks: Arc::new(Landmarks::build(&base)),
            base,
            config,
            memo: Mutex::new(memo),
        }
    }

    /// The traffic model the engine rolls by.
    pub(crate) fn config(&self) -> TrafficConfig {
        self.config
    }

    /// The free-flow base network all artifacts reweight.
    pub(crate) fn base(&self) -> &Arc<RoadNetwork> {
        &self.base
    }

    /// The artifacts for `epoch`'s zone activity: a memo hit, or a label
    /// build of the zone-reweighted base for a zone activity not seen
    /// before.
    pub(crate) fn artifacts_for(&self, epoch: &TrafficEpoch) -> Arc<EpochArtifacts> {
        let mut memo = self
            .memo
            .lock()
            .expect("no epoch-store build panics holding the memo");
        memo.entry(epoch.signature())
            .or_insert_with(|| {
                let net = self
                    .base
                    .reweighted(|from, to| epoch.zone_multiplier(from, to));
                Arc::new(EpochArtifacts::build(&net, &self.base))
            })
            .clone()
    }
}

/// Shared shortest-path oracle: hub labels + shortest-path cache + query
/// counters.
///
/// Cache entries carry the cache's key tag, which only grows.  Every roll
/// that changes weights a cached answer may depend on advances it, and so
/// does [`SpEngine::clear_cache`], so an entry cached under one epoch's
/// weights can never answer a query in another.
#[derive(Debug)]
pub struct SpEngine {
    net: Arc<RoadNetwork>,
    /// The landmark table of `net` (the free-flow base, for traffic
    /// engines), shared with the engine's own [`EpochStore`].
    landmarks: Arc<Landmarks>,
    /// The current epoch: fixed for a static engine (no lock anywhere on
    /// the query path), rolled by [`SpEngine::roll_epoch_to`] for a traffic
    /// engine.
    epochs: Epochs,
    cache: SpCache,
    /// `cost(v, v)` calls, which never reach the cache; the cache counts
    /// every other `cost()` call as one hit or one miss.
    same_node_queries: AtomicU64,
    index_queries: AtomicU64,
}

impl SpEngine {
    /// Builds an engine with default settings (hub labels + cache).
    pub fn new(net: RoadNetwork) -> Self {
        SpEngineBuilder::default().build(net)
    }

    /// Runs `read` on the current epoch's slot: a static engine's fixed
    /// slot as a plain reference, a traffic engine's through its read guard.
    fn current<R>(&self, read: impl FnOnce(&EpochSlot) -> R) -> R {
        match &self.epochs {
            Epochs::Fixed(slot) => read(slot),
            Epochs::Rolling(rt) => read(&rt.slot.read().unwrap()),
        }
    }

    /// The underlying road network.  For self-rolling traffic engines this
    /// is the **free-flow base** (topology and coordinates are shared with
    /// every zone-reweighted copy); use [`SpEngine::min_time_per_meter`]
    /// and the query methods for epoch-correct travel quantities.
    pub fn network(&self) -> &RoadNetwork {
        &self.net
    }

    /// Number of nodes in the underlying road network.
    pub fn node_count(&self) -> usize {
        self.net.node_count()
    }

    /// Coordinate of a node (delegates to the road network).
    pub fn coord(&self, node: NodeId) -> Point {
        self.net.coord(node)
    }

    /// Minimum travel time (seconds) from `source` to `target` under the
    /// current epoch's weights.
    ///
    /// Results are exact; unreachable pairs return infinity.
    pub fn cost(&self, source: NodeId, target: NodeId) -> f64 {
        if source == target {
            self.same_node_queries.fetch_add(1, Ordering::Relaxed);
            return 0.0;
        }
        let tag = self.cache.tag();
        if let Some(v) = self.cache.get(tag, source, target) {
            return v;
        }
        let d = self.cost_uncached(source, target);
        self.cache.insert(tag, source, target, d);
        d
    }

    /// Travel time bypassing the cache (still counted as an index query).
    pub fn cost_uncached(&self, source: NodeId, target: NodeId) -> f64 {
        self.index_queries.fetch_add(1, Ordering::Relaxed);
        self.current(|slot| slot.scale * slot.artifact.labels.query(source, target))
    }

    /// Batched exact |S|×|T| travel-time matrix (row-major: entry
    /// `i * targets.len() + j` is the cost from `sources[i]` to
    /// `targets[j]`), bypassing the per-pair cache.
    ///
    /// This is [`HubLabels::many_to_many`]: the smaller side's labels are
    /// scattered into a per-thread hub bucket, once each, and the larger
    /// side's labels are scanned against it — for dispatch's ≈ 30 vehicles
    /// → 1 pickup, one scatter of the pickup's in-label and one read of each
    /// vehicle's out-label, instead of |S|·|T| two-pointer merges.  Every
    /// entry is **bit-identical** to the corresponding
    /// [`SpEngine::cost_uncached`] call: the kernel takes the minimum over
    /// the same `out + in` sums as the merge, and the minimum of
    /// non-negative, NaN-free floats does not depend on the order they are
    /// compared in.  All |S|·|T| pairs are counted as index queries — like
    /// every SP counter, subject to no replay comparison.
    pub fn many_to_many(&self, sources: &[NodeId], targets: &[NodeId]) -> Vec<f64> {
        let pairs = (sources.len() * targets.len()) as u64;
        self.index_queries.fetch_add(pairs, Ordering::Relaxed);
        self.current(|slot| {
            let mut matrix = slot.artifact.labels.many_to_many(sources, targets);
            for d in &mut matrix {
                *d *= slot.scale;
            }
            matrix
        })
    }

    /// Bytes of the hub-label index of the current epoch.
    pub fn index_bytes(&self) -> usize {
        self.current(|slot| slot.artifact.labels.approx_bytes())
    }

    /// Straight-line (Euclidean) distance between the coordinates of two
    /// nodes, in meters.  Used only by geometric pruning, never as a travel
    /// cost.
    pub fn euclidean(&self, a: NodeId, b: NodeId) -> f64 {
        self.net.coord(a).distance(&self.net.coord(b))
    }

    /// Snapshot of the query counters.
    pub fn stats(&self) -> SpStats {
        let (hits, misses) = self.cache.counts();
        SpStats {
            total_queries: self.same_node_queries.load(Ordering::Relaxed) + hits + misses,
            cache_hits: hits,
            index_queries: self.index_queries.load(Ordering::Relaxed),
        }
    }

    /// Empties the cache by retiring every entry (counters are kept).  Call
    /// this between algorithm runs that share one engine so that no run
    /// benefits from the cache its predecessor warmed up — keeping query
    /// counts and runtimes comparable.
    pub fn clear_cache(&self) {
        self.cache.retire();
    }

    // -----------------------------------------------------------------------
    // Time-dependent traffic
    // -----------------------------------------------------------------------

    /// The traffic model of a self-rolling engine, if any.
    pub fn traffic_config(&self) -> Option<TrafficConfig> {
        match &self.epochs {
            Epochs::Fixed(_) => None,
            Epochs::Rolling(rt) => Some(rt.store.config()),
        }
    }

    /// The current traffic epoch index for self-rolling engines, 0 for
    /// static ones.  This is not the cache's key tag: that advances only when
    /// a roll actually changes edge weights (or the cache is cleared), so
    /// entries survive rolls between bit-identical epochs.
    pub fn current_epoch(&self) -> u64 {
        self.current(|slot| slot.epoch)
    }

    /// Advances a self-rolling traffic engine to the epoch covering `now`.
    /// Returns `true` when the epoch actually changed.
    ///
    /// The steps, cheapest first:
    ///
    /// 1. **Same travel times**: the new epoch has the current zone
    ///    activity ([`TrafficEpoch::signature`]) and profile factor, so the
    ///    labels *and cache* stay live; only the epoch index advances.
    /// 2. **Rescale**: a profile-only change keeps the labels and multiplies
    ///    every answer by the new [`TrafficEpoch::scale`].
    /// 3. **Fetch or build the zone artifact**: a zone flip takes the new
    ///    zone activity's labels from the engine's memo, or builds them
    ///    wholesale over the zone-reweighted base the first time.
    ///
    /// Steps 2 and 3 retire every cache entry.  Static engines return
    /// `false` unconditionally, so pipelines can call this every batch
    /// without guarding.  Must be called from the batch control thread at
    /// a quiescent point — concurrent `cost()` callers in the same instant
    /// could cache a fresh-epoch value under the old tag.
    pub fn roll_epoch_to(&self, now: f64) -> bool {
        let Epochs::Rolling(rt) = &self.epochs else {
            return false;
        };
        let epoch = rt.store.config().epoch_at(now);
        if rt.slot.read().unwrap().epoch == epoch.index {
            return false;
        }
        let mut slot = rt.slot.write().unwrap();
        if slot.epoch == epoch.index {
            return false;
        }
        slot.epoch = epoch.index;
        let artifact = rt.store.artifacts_for(&epoch);
        let relabeled = !Arc::ptr_eq(&artifact, &slot.artifact);
        let rescaled = slot.scale.to_bits() != epoch.scale().to_bits();
        if relabeled || rescaled {
            slot.artifact = artifact;
            slot.rescale(epoch.scale());
            drop(slot);
            // Every answer may have changed: advance the key tag, which
            // retires every old entry.
            self.cache.retire();
        }
        true
    }

    /// The certified prescreen rate for the **current** epoch's travel
    /// times: `travel_time(u, v) >= min_time_per_meter() * euclidean(u, v)`
    /// holds up to [`LOWER_BOUND_GRACE`].  Static engines return the base
    /// network's rate, scanned once when the store was built; traffic
    /// engines return the zone artifact's rate times the epoch's profile
    /// scale, set at the last epoch roll, which is what keeps
    /// SARD/pruneGDP/GAS candidate retrieval, top-m handoff bidding and the
    /// shareability screen *sound* under congestion.
    pub fn min_time_per_meter(&self) -> f64 {
        self.current(|slot| slot.min_tpm)
    }

    /// The certified travel-time lower bound for the **current** epoch,
    /// bundling the euclid rate, the epoch's weight ratio and the landmark
    /// table.  Read it once per batch, after the roll, and never carry it
    /// across a roll.  See [`LegBound`].
    pub fn leg_bound(&self) -> LegBound<'_> {
        let (rate, ratio) = self.current(|slot| (slot.min_tpm, slot.min_ratio));
        LegBound {
            net: &self.net,
            landmarks: &self.landmarks,
            rate,
            ratio,
        }
    }

    /// Approximate heap footprint (graph + current labels + cache +
    /// landmark table) in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.net.approx_bytes()
            + self.index_bytes()
            + self.cache.approx_bytes()
            + self.landmarks.approx_bytes()
    }
}

/// A certified lower bound on every leg's travel time under one epoch's
/// weights: `max(0, max(rate × euclid(u, v), ratio × lb(u, v)) −
/// LOWER_BOUND_GRACE)`, from [`SpEngine::leg_bound`].
///
/// * `rate × euclid` is the [`RoadNetwork::min_time_per_meter`] bound.
/// * `lb` is the landmark bound ([`Landmarks::lower_bound`]) on the base
///   network the table was built on, and `ratio` is the epoch's profile
///   scale times its zones' smallest weight ratio over that base
///   ([`RoadNetwork::min_weight_ratio`]; 1 on a static engine).  Every
///   zone-weighted path costs at least the zone ratio times its base cost,
///   edge by edge, and the scale multiplies both sides, so `d'(u, v) ≥
///   ratio · d(u, v) ≥ ratio · lb(u, v)`.  That holds for ratios below 1 too, so zones that speed
///   edges up stay sound.
/// * Both hold in exact arithmetic.  The computed costs and bounds are sums,
///   differences and products of rounded distances, each within a few ulps
///   of 10⁴-second values, far inside the one-second grace.
/// * `f64::max` drops the `NaN` of `0 × ∞` (a zero ratio on an
///   unreachable pair), falling back to the euclid bound.
#[derive(Debug, Clone, Copy)]
pub struct LegBound<'e> {
    net: &'e RoadNetwork,
    landmarks: &'e Landmarks,
    rate: f64,
    ratio: f64,
}

impl LegBound<'_> {
    /// The certified lower bound on the travel time from `u` to `v`: at
    /// most the engine's `cost(u, v)` in the epoch this bound was read in.
    pub fn lower_bound(&self, u: NodeId, v: NodeId) -> f64 {
        let distance = self.net.coord(u).distance(&self.net.coord(v));
        self.lower_bound_with_distance(u, v, distance)
    }

    /// [`LegBound::lower_bound`] given `distance = coord(u).distance(&coord(v))`
    /// (the same bits); any other `distance` voids the certificate.
    pub fn lower_bound_with_distance(&self, u: NodeId, v: NodeId, distance: f64) -> f64 {
        let euclid = self.rate * distance;
        let landmark = self.ratio * self.landmarks.lower_bound(u, v);
        (euclid.max(landmark) - LOWER_BOUND_GRACE).max(0.0)
    }

    /// The euclid rate (`min_time_per_meter` of the epoch).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The epoch's weight ratio over the landmark table's network.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// The landmark table.
    pub fn landmarks(&self) -> &Landmarks {
        self.landmarks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Point, RoadNetworkBuilder};

    fn line_graph(n: u32) -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..n {
            b.add_node(Point::new(i as f64 * 10.0, 0.0));
        }
        for i in 1..n {
            b.add_bidirectional(i - 1, i, 5.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn cache_reduces_index_queries() {
        let net = line_graph(10);
        let eng = SpEngine::new(net);
        let a = eng.cost(0, 9);
        let b = eng.cost(0, 9);
        assert_eq!(a, b);
        let stats = eng.stats();
        assert_eq!(stats.total_queries, 2);
        assert_eq!(stats.index_queries, 1);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn zero_cache_capacity_always_queries_index() {
        let net = line_graph(10);
        let eng = SpEngineBuilder::new().cache_capacity(0).build(net);
        eng.cost(0, 5);
        eng.cost(0, 5);
        let stats = eng.stats();
        assert_eq!(stats.index_queries, 2);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn self_cost_is_free() {
        let net = line_graph(5);
        let eng = SpEngine::new(net);
        assert_eq!(eng.cost(3, 3), 0.0);
        assert_eq!(eng.stats().index_queries, 0);
    }

    #[test]
    fn clear_cache_forces_fresh_index_queries() {
        let net = line_graph(6);
        let eng = SpEngine::new(net);
        eng.cost(0, 5);
        eng.clear_cache();
        eng.cost(0, 5);
        let stats = eng.stats();
        assert_eq!(stats.index_queries, 2);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn euclidean_uses_coordinates() {
        let net = line_graph(3);
        let eng = SpEngine::new(net);
        assert!((eng.euclidean(0, 2) - 20.0).abs() < 1e-9);
    }

    /// A static engine's bound is the base network's: ratio exactly 1 and
    /// the rate `RoadNetwork::min_time_per_meter` returns, bit for bit —
    /// also on an edgeless network, where `min_weight_ratio` would say 0.
    #[test]
    fn static_leg_bound_is_the_base_rate_at_ratio_one() {
        let mut one_node = RoadNetworkBuilder::new();
        one_node.add_node(Point::new(3.0, 4.0));
        for net in [line_graph(7), one_node.build().unwrap()] {
            let eng = SpEngine::new(net);
            let bound = eng.leg_bound();
            assert_eq!(bound.ratio(), 1.0);
            assert_eq!(
                bound.rate().to_bits(),
                eng.network().min_time_per_meter().to_bits()
            );
        }
    }

    /// The batched matrix must agree bit for bit with per-pair
    /// `cost_uncached` for every engine variant: static labels, and a
    /// traffic engine rolled to a rush-hour peak (checked against a second
    /// engine rolled the same way) — at the |S|×1 shape dispatch sends as
    /// well as 1×|T| and square, and with the calls fanned out over 1, 4
    /// and 8 workers so every worker thread brings its own kernel scratch.
    #[test]
    fn many_to_many_matches_cost_uncached_for_every_engine_variant() {
        use rayon::prelude::*;
        let full = SpEngineBuilder::new().build(line_graph(24));
        let rush = SpEngineBuilder::new()
            .traffic(rush_config())
            .build(line_graph(24));
        let wholesale = SpEngineBuilder::new()
            .traffic(rush_config())
            .build(line_graph(24));
        for eng in [&rush, &wholesale] {
            assert!(eng.roll_epoch_to(820.0)); // hour 8: uniform ×1.75
        }

        let inner: Vec<u32> = (4..12).collect();
        let spread: Vec<u32> = vec![0, 5, 8, 20, 23];
        let shapes: Vec<(&[u32], &[u32])> = (0..24usize)
            .flat_map(|k| {
                let one_inner = &inner[k % 8..][..1];
                let one_spread = &spread[k % 5..][..1];
                [
                    (&inner[..], one_inner),
                    (&spread[..], one_inner),
                    (&inner[..], one_spread),
                    (one_inner, &inner[..]),
                    (&inner[..], &inner[..]),
                    (&spread[..], &spread[..]),
                ]
            })
            .collect();
        for threads in [1usize, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            for (eng, reference) in [(&full, &full), (&rush, &wholesale)] {
                let matrices: Vec<Vec<f64>> = pool.install(|| {
                    shapes
                        .par_iter()
                        .map(|(sources, targets)| eng.many_to_many(sources, targets))
                        .collect()
                });
                for ((sources, targets), matrix) in shapes.iter().zip(&matrices) {
                    assert_eq!(matrix.len(), sources.len() * targets.len());
                    for (i, &s) in sources.iter().enumerate() {
                        for (j, &t) in targets.iter().enumerate() {
                            assert_eq!(
                                matrix[i * targets.len() + j].to_bits(),
                                reference.cost_uncached(s, t).to_bits(),
                                "({s},{t}) under {threads} workers"
                            );
                        }
                    }
                }
            }
        }
    }

    fn rush_config() -> crate::traffic::TrafficConfig {
        crate::traffic::TrafficConfig {
            profile: crate::traffic::TrafficProfile::Rush,
            epoch_seconds: 100.0,
            hour_scale: 100.0, // one profile hour per epoch
            ..crate::traffic::TrafficConfig::default()
        }
    }

    #[test]
    fn static_engines_never_roll_and_traffic_engines_report_state() {
        let eng = SpEngine::new(line_graph(10));
        assert_eq!(eng.traffic_config(), None);
        assert!(!eng.roll_epoch_to(1e9));
        assert_eq!(eng.current_epoch(), 0);

        let traffic = SpEngineBuilder::new()
            .traffic(rush_config())
            .build(line_graph(10));
        assert_eq!(traffic.traffic_config(), Some(rush_config()));
        // Rolling within epoch 0 is a no-op; crossing a boundary rolls.
        assert!(!traffic.roll_epoch_to(50.0));
        assert!(traffic.roll_epoch_to(650.0));
        assert_eq!(traffic.current_epoch(), 6);
        assert!(!traffic.roll_epoch_to(699.0));
    }

    /// A 5 × 5 grid whose per-direction weights are awkward decimals, so
    /// scaled sums round differently from sums of scaled edges.
    fn odd_weight_grid() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..25u32 {
            b.add_node(Point::new((i % 5) as f64 * 100.0, (i / 5) as f64 * 100.0));
        }
        let mut weight = 0.37f64;
        let mut next = move || {
            weight = (weight * 7.919 + 0.113) % 1.0;
            9.0 + 11.0 * weight
        };
        for i in 0..25u32 {
            for j in [i + 1, i + 5] {
                if j < 25 && (j == i + 5 || j % 5 != 0) {
                    b.add_edge(i, j, next()).unwrap();
                    b.add_edge(j, i, next()).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    /// A zone-free rush store never builds a second label set: every epoch
    /// of the profile day shares the free-flow labels, and its travel times
    /// are the free-flow answer times the profile factor, rounded once —
    /// through the cache, past it and in the batched matrix.  A free-flow
    /// hour answers with the static bits.
    #[test]
    fn uniform_epochs_scale_the_free_flow_answer() {
        let fixed = SpEngine::new(odd_weight_grid());
        let eng = SpEngineBuilder::new()
            .traffic(rush_config())
            .build(odd_weight_grid());
        let Epochs::Rolling(rt) = &eng.epochs else {
            panic!("a rush engine rolls");
        };
        let store = &rt.store;
        let free_flow = store.artifacts_for(&rush_config().epoch_at(0.0));
        let nodes: Vec<u32> = (0..25).collect();
        let mut scales = Vec::new();
        for hour in 0..24 {
            let now = hour as f64 * 100.0 + 50.0;
            let epoch = rush_config().epoch_at(now);
            assert!(Arc::ptr_eq(&store.artifacts_for(&epoch), &free_flow));
            let f = epoch.scale();
            scales.push(f);
            eng.roll_epoch_to(now);
            let matrix = eng.many_to_many(&nodes, &nodes);
            for (i, &s) in nodes.iter().enumerate() {
                for &t in &nodes {
                    let expected = (f * fixed.cost_uncached(s, t)).to_bits();
                    assert_eq!(eng.cost(s, t).to_bits(), expected, "hour {hour} ({s},{t})");
                    assert_eq!(eng.cost_uncached(s, t).to_bits(), expected);
                    assert_eq!(matrix[i * 25 + t as usize].to_bits(), expected);
                }
            }
        }
        assert!(scales.iter().any(|&f| f != 1.0), "the day has a peak");
        // Back past the evening tail-off into free flow: the static bits.
        assert!(eng.roll_epoch_to(2_450.0));
        for s in 0..25u32 {
            for t in 0..25u32 {
                assert_eq!(
                    eng.cost(s, t).to_bits(),
                    fixed.cost_uncached(s, t).to_bits()
                );
            }
        }
    }

    #[test]
    fn epoch_roll_scales_costs_and_keeps_prescreen_rate_certified() {
        let traffic = SpEngineBuilder::new()
            .traffic(rush_config())
            .build(line_graph(12));
        // Epoch 0 samples hour 0 (free flow): identical to a static engine.
        let base = SpEngine::new(line_graph(12));
        assert_eq!(
            traffic.cost_uncached(0, 11).to_bits(),
            base.cost_uncached(0, 11).to_bits()
        );
        assert_eq!(
            traffic.min_time_per_meter().to_bits(),
            base.network().min_time_per_meter().to_bits()
        );
        // Epoch 8 samples the morning peak: every cost scales by 1.75 and
        // the certified rate tightens with it.
        assert!(traffic.roll_epoch_to(820.0));
        let peaked = traffic.cost_uncached(0, 11);
        assert!((peaked - base.cost_uncached(0, 11) * 1.75).abs() < 1e-9);
        assert!(
            (traffic.min_time_per_meter() - base.network().min_time_per_meter() * 1.75).abs()
                < 1e-12
        );
        // The rate still certifies the geometric lower bound under congestion.
        for s in 0..12u32 {
            for t in 0..12u32 {
                let lb = traffic.min_time_per_meter() * traffic.euclidean(s, t);
                assert!(traffic.cost_uncached(s, t) + 1e-9 >= lb, "({s},{t})");
            }
        }
    }

    /// Satellite: no stale SP hits across an epoch roll — a value cached
    /// under one epoch's weights must never answer a query in the next.
    #[test]
    fn epoch_roll_invalidates_cached_entries() {
        let traffic = SpEngineBuilder::new()
            .traffic(rush_config())
            .build(line_graph(12));
        let free_flow = traffic.cost(0, 11);
        assert_eq!(traffic.cost(0, 11), free_flow); // warmed
        assert_eq!(traffic.stats().cache_hits, 1);
        assert!(traffic.roll_epoch_to(820.0)); // hour 8: ×1.75
        let peaked = traffic.cost(0, 11);
        assert!(
            (peaked - free_flow * 1.75).abs() < 1e-9,
            "stale cache hit: {peaked} vs free-flow {free_flow}"
        );
        // And back across another boundary into a free-flow hour.
        assert!(traffic.roll_epoch_to(2_100.0)); // hour 21: ×1.0
        assert_eq!(traffic.cost(0, 11).to_bits(), free_flow.to_bits());
    }

    /// The cache must agree bit for bit with `cost_uncached` under
    /// concurrent access, and the counters must stay exact: every `cost()` call
    /// either hits the cache or performs exactly one index query, even when
    /// two threads race on the same missing key.
    #[test]
    fn concurrent_cost_agrees_with_uncached_and_counters_stay_exact() {
        let net = line_graph(64);
        let eng = SpEngine::new(net);
        let n_threads = 8u32;
        let per_thread = 1_500u32;
        std::thread::scope(|scope| {
            for t in 0..n_threads {
                let eng = &eng;
                scope.spawn(move || {
                    // Overlapping key streams so threads race on shared keys.
                    for i in 0..per_thread {
                        let s = (i * 7 + t) % 64;
                        let d = (i * 13 + t * 3) % 64;
                        let cached = eng.cost(s, d);
                        let exact = if s == d { 0.0 } else { eng.cost_uncached(s, d) };
                        assert_eq!(
                            cached.to_bits(),
                            exact.to_bits(),
                            "cached {cached} != exact {exact} for ({s}, {d})"
                        );
                    }
                });
            }
        });
        let stats = eng.stats();
        assert_eq!(stats.total_queries, (n_threads * per_thread) as u64);
        // Every non-trivial cost() call resolves to exactly one cache hit or
        // one index query.  Trivial (source == target) calls return early and
        // touch neither counter; the verification `cost_uncached` calls add
        // index queries but no total queries.  Both are excluded below.
        let non_trivial_queries: u64 = (0..n_threads)
            .map(|t| {
                (0..per_thread)
                    .filter(|i| (i * 7 + t) % 64 != (i * 13 + t * 3) % 64)
                    .count() as u64
            })
            .sum();
        let verification_queries = non_trivial_queries;
        assert_eq!(
            stats.cache_hits + (stats.index_queries - verification_queries),
            non_trivial_queries
        );
        assert!(
            stats.cache_hits > 0,
            "overlapping streams must produce hits"
        );
    }

    /// Across zone flips and profile-only rolls, every answer — cached,
    /// uncached and batched — is the epoch's scale times a wholesale label
    /// build of the zone-reweighted network, bit for bit, and the leg bound
    /// stays below it.  A warm cache entry survives only a roll that keeps
    /// both the zone activity and the scale; every other roll retires it,
    /// so no entry answers stale.  The second input adds a `Custom` profile
    /// whose factor changes inside and between the zone windows.
    #[test]
    fn zoned_rolls_answer_the_wholesale_build_and_never_serve_stale_hits() {
        // Nodes sit at x = 0, 10, …, 230; the zone covers edge midpoints
        // from edge 15–16 (x = 155) eastwards.
        let zone = |from: f64, until: f64| crate::traffic::CongestionZone {
            min_x: 152.0,
            min_y: -5.0,
            max_x: 240.0,
            max_y: 5.0,
            factor: 2.0,
            active_from: from,
            active_until: until,
        };
        let free_flow = crate::traffic::TrafficConfig {
            epoch_seconds: 100.0,
            hour_scale: 100.0,
            ..crate::traffic::TrafficConfig::default()
        }
        .with_zone(zone(100.0, 300.0))
        .with_zone(zone(400.0, 500.0));
        // Hour 1 free flow, 1.4 later in the first window, 1.2 between the
        // windows and 1.7 in the second.
        let mut hours = [1.0; 24];
        hours[2..5].copy_from_slice(&[1.4, 1.2, 1.7]);
        let custom = crate::traffic::TrafficConfig {
            profile: crate::traffic::TrafficProfile::Custom(hours),
            ..free_flow
        };
        let all: Vec<u32> = (0..24).collect();
        for cfg in [free_flow, custom] {
            let eng = SpEngineBuilder::new().traffic(cfg).build(line_graph(24));
            let mut previous = cfg.epoch_at(0.0);
            for now in [150.0, 250.0, 350.0, 450.0] {
                let warm = eng.cost(10, 20);
                let epoch = cfg.epoch_at(now);
                assert!(eng.roll_epoch_to(now));
                let kept =
                    epoch.signature() == previous.signature() && epoch.scale() == previous.scale();
                let hits = eng.stats().cache_hits;
                let after = eng.cost(10, 20);
                assert_eq!(eng.stats().cache_hits > hits, kept, "t = {now}");
                if kept {
                    assert_eq!(after.to_bits(), warm.to_bits());
                }
                let zoned = line_graph(24).reweighted(|a, b| epoch.zone_multiplier(a, b));
                let labels = HubLabels::build(&zoned);
                let matrix = eng.many_to_many(&all, &all);
                let bound = eng.leg_bound();
                for &s in &all {
                    for &t in &all {
                        let expected = (epoch.scale() * labels.query(s, t)).to_bits();
                        assert_eq!(eng.cost(s, t).to_bits(), expected, "t = {now} ({s},{t})");
                        assert_eq!(eng.cost_uncached(s, t).to_bits(), expected);
                        assert_eq!(matrix[(s * 24 + t) as usize].to_bits(), expected);
                        assert!(bound.lower_bound(s, t) <= eng.cost(s, t), "({s},{t})");
                    }
                }
                previous = epoch;
            }
        }
    }
}
