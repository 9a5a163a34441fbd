//! The shortest-path query engine used by every dispatcher.
//!
//! [`SpEngine`] bundles the road network, a hub-label index and a
//! shortest-path cache behind a single `cost(u, v)` entry point.  It also
//! counts the number of *index* queries (cache misses answered by the
//! labels), which is the "#Shortest Path Queries" column of the paper's
//! Table V and Table VI angle-pruning ablation.
//!
//! Every engine is assembled from an [`EpochStore`] and reads its current
//! epoch — index, certified rates, epoch number — from one slot.  A static
//! engine's slot is fixed at build and read without a lock; a traffic
//! engine's slot sits behind the lock that [`SpEngine::roll_epoch_to`]
//! swaps at epoch boundaries.
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
use crate::hub_labels::{BuildPlan, HubLabels};
use crate::landmarks::Landmarks;
use crate::subnet::SubNetwork;
use crate::traffic::{EpochSignature, TrafficConfig, TrafficEpoch};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
    /// the engine swaps in the covering epoch's artifacts — reweighted
    /// network, label index, certified `min_time_per_meter` — from its
    /// [`EpochStore`] at every epoch boundary.  A static config (the
    /// default) gives an engine whose one epoch slot is fixed at build and
    /// read without a lock.
    ///
    /// [`build_clipped`](Self::build_clipped) ignores this knob: its store
    /// carries the traffic model.
    pub fn traffic(mut self, config: TrafficConfig) -> Self {
        self.traffic = config;
        self
    }

    /// Builds the engine for the given road network.  With a non-static
    /// [`SpEngineBuilder::traffic`] config, `net` is the free-flow base
    /// network and the engine starts in the epoch covering `now = 0`,
    /// rolling through its own private [`EpochStore`].
    pub fn build(self, net: RoadNetwork) -> SpEngine {
        let store = EpochStore::new(Arc::new(net), self.traffic);
        self.assemble(store, None)
    }

    /// Builds a **halo-clipped** engine over a shared [`EpochStore`]: the
    /// sub-network of the store's network induced by `halo` is extracted
    /// and the initial epoch's labels are restricted to it
    /// ([`HubLabels::restrict_to`]), giving the engine a compact local index
    /// over just the clip.  Queries translate global vertex ids at the
    /// boundary, so callers are unchanged; queries with an endpoint outside
    /// the halo fall back to the shared full index (counted by
    /// [`SpEngine::fallback_queries`]).  Every answer — local or fallback —
    /// is bit-identical to what a whole-network engine returns, because the
    /// restricted label vectors are verbatim copies of the full ones.
    ///
    /// An empty `halo` yields an engine that answers everything through the
    /// fallback; a `halo` covering the whole network yields a plain full
    /// engine sharing the store's labels (no duplication).
    ///
    /// Over a static store the clip is fixed.  Over a traffic store the
    /// engine re-derives its clip from each subsequent epoch's artifacts
    /// inside [`SpEngine::roll_epoch_to`] — including the shard-selective
    /// skip that keeps the clip, slice and cache alive when no halo vertex
    /// was touched by the transition.
    ///
    /// # Panics
    /// Panics if `halo` names a vertex outside the store's network.
    pub fn build_clipped(self, store: Arc<EpochStore>, halo: &[NodeId]) -> SpEngine {
        self.assemble(store, Some(halo))
    }

    /// Assembles an engine from `store`'s initial epoch, clipped to `halo`
    /// if given, sharing the store's network and landmark table.  A static
    /// store gives a fixed slot whose weight ratio is exactly 1 (its
    /// network *is* the landmark table's); any other store a rolling one.
    fn assemble(self, store: Arc<EpochStore>, halo: Option<&[NodeId]>) -> SpEngine {
        let artifact = store.initial_artifacts();
        let mut current = EpochSlot {
            epoch: store.initial_epoch().index,
            index: epoch_index(&artifact, halo),
            min_tpm: artifact.min_tpm(),
            min_ratio: artifact.min_ratio(),
        };
        let (net, landmarks) = (store.base().clone(), store.landmarks.clone());
        let epochs = if store.config().is_static() {
            // The landmark table's own network: exactly 1, also where
            // `min_weight_ratio` says 0 (an edgeless network).
            current.min_ratio = 1.0;
            Epochs::Fixed(current)
        } else {
            Epochs::Rolling(Box::new(TrafficRuntime {
                store,
                halo: halo.map(<[NodeId]>::to_vec),
                slot: RwLock::new(RollingSlot { current, artifact }),
                slice_refreshes: AtomicU64::new(0),
                fallback_mark: AtomicU64::new(0),
            }))
        };
        SpEngine {
            net,
            landmarks,
            epochs,
            cache: SpCache::new(self.cache_capacity),
            same_node_queries: AtomicU64::new(0),
            index_queries: AtomicU64::new(0),
            fallback_queries: AtomicU64::new(0),
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

/// The interior state of a self-rolling traffic engine: the shared store
/// plus the current epoch behind a read-write lock.  The lock is only ever
/// written by [`SpEngine::roll_epoch_to`], which the pipelines call at
/// quiescent batch boundaries (no concurrent queries in flight); during a
/// batch every worker thread takes cheap uncontended read locks.
#[derive(Debug)]
struct TrafficRuntime {
    store: Arc<EpochStore>,
    /// `Some(halo)` for clipped engines: the engine re-derives its clip and
    /// label slice from each epoch's artifacts (or keeps them across a roll
    /// that provably left every halo vertex untouched).
    halo: Option<Vec<NodeId>>,
    slot: RwLock<RollingSlot>,
    /// Clipped-engine rolls that re-cut the halo sub-network and label
    /// slice (the complement of the Tier-3 "shard untouched, keep it" skip).
    slice_refreshes: AtomicU64,
    /// `fallback_queries` at the instant the cache was last cleared.  A
    /// Tier-3 skip may keep the cache only when this still matches: cached
    /// fallback answers involve out-of-halo vertices whose costs the roll
    /// may have changed.
    fallback_mark: AtomicU64,
}

/// A rolling engine's slot: the current epoch plus the shared artifacts it
/// was cut from, which the next roll compares against.
#[derive(Debug)]
struct RollingSlot {
    current: EpochSlot,
    artifact: Arc<EpochArtifacts>,
}

/// What every query reads about the current epoch.
#[derive(Debug)]
struct EpochSlot {
    /// The traffic epoch index (0 on a static engine).
    epoch: u64,
    /// The engine-local index: full, or clipped to this engine's halo.
    index: SpIndex,
    /// The certified `min_time_per_meter` of the epoch's weights.
    min_tpm: f64,
    /// The epoch's smallest weight ratio over the landmark table's network
    /// (exactly 1 on a static engine).
    min_ratio: f64,
}

/// The index an engine queries in `artifact`'s epoch: the epoch's full
/// labels, or for a clipped engine the sub-network of the epoch's network
/// induced by `halo` plus the label slice restricted to it.  An empty halo
/// answers everything through the full labels, and a halo covering the
/// network is a plain full engine sharing them.
fn epoch_index(artifact: &EpochArtifacts, halo: Option<&[NodeId]>) -> SpIndex {
    let labels = artifact.labels();
    let Some(halo) = halo else {
        return SpIndex::Full(labels.clone());
    };
    if halo.is_empty() {
        return SpIndex::FallbackOnly {
            full: labels.clone(),
        };
    }
    let sub = SubNetwork::extract(artifact.net(), halo).expect("halo vertices must be in range");
    if sub.covers_parent() {
        return SpIndex::Full(labels.clone());
    }
    let slice = labels.restrict_to(sub.to_global());
    SpIndex::Clipped {
        sub: Box::new(sub),
        slice,
        full: labels.clone(),
    }
}

/// How an [`SpEngine`] resolves index queries (cache misses).
#[derive(Debug)]
enum SpIndex {
    /// A hub-label index over the whole network (possibly shared).
    Full(Arc<HubLabels>),
    /// A halo-clipped engine: a compact label slice over the clip answers
    /// in-halo pairs; everything else goes to the shared full index.
    Clipped {
        sub: Box<SubNetwork>,
        slice: HubLabels,
        full: Arc<HubLabels>,
    },
    /// A clipped engine whose halo is empty (e.g. a shard whose region holds
    /// no road-network vertex): every query uses the shared full index.
    FallbackOnly { full: Arc<HubLabels> },
}

/// The shared artifacts of one traffic epoch *signature*: reweighted
/// network, label index, build plan (for uniform reference epochs), the
/// certified prescreen rate, and — for zoned epochs — the set of vertices
/// the zone activity actually touched.
///
/// Artifacts are a pure function of `(base network, signature)`: the
/// parallel [`HubLabels::build`] and the scoped [`BuildPlan::repair`] are
/// bit-identical under any worker count and to each other, so it never
/// matters *when* or *on which thread* an artifact was produced — which is
/// what makes both the signature memo and the background prebuild sound.
#[derive(Debug)]
pub struct EpochArtifacts {
    signature: EpochSignature,
    net: Arc<RoadNetwork>,
    labels: Arc<HubLabels>,
    /// Recorded construction, kept for **uniform** artifacts when the config
    /// carries zones: the reference a zoned epoch's scoped repair starts
    /// from.
    plan: Option<Arc<BuildPlan>>,
    min_tpm: f64,
    /// The smallest epoch weight ÷ base weight over all edges (see
    /// [`RoadNetwork::min_weight_ratio`]): scales the base network's
    /// landmark bound to this epoch.
    min_ratio: f64,
    /// For zoned artifacts: `changed[v]` iff `v`'s label vectors or an
    /// incident edge weight differ from the same-profile uniform reference.
    /// `None` for uniform artifacts (the empty set).
    changed: Option<Vec<bool>>,
}

impl EpochArtifacts {
    /// The weight fingerprint these artifacts were built for.
    pub fn signature(&self) -> &EpochSignature {
        &self.signature
    }

    /// The epoch's reweighted road network (the shared free-flow base when
    /// the epoch is free flow).
    pub fn net(&self) -> &Arc<RoadNetwork> {
        &self.net
    }

    /// The epoch's hub-label index.
    pub fn labels(&self) -> &Arc<HubLabels> {
        &self.labels
    }

    /// The epoch's certified `min_time_per_meter` prescreen rate.
    pub fn min_tpm(&self) -> f64 {
        self.min_tpm
    }

    /// The epoch's smallest weight ratio over the free-flow base: every
    /// travel time of the epoch is at least this factor times the base one.
    pub fn min_ratio(&self) -> f64 {
        self.min_ratio
    }

    /// True when every edge scales by one profile factor (Tier-1 artifact);
    /// false when zone activity made the reweighting spatially non-uniform
    /// (Tier-2 artifact, produced by a scoped repair).
    pub fn is_uniform(&self) -> bool {
        self.changed.is_none()
    }

    /// True when some vertex of `halo` was touched by this artifact's zone
    /// activity — its label vectors or an incident edge weight differ from
    /// the same-profile uniform reference.  Always false for uniform
    /// artifacts.
    pub fn changed_intersects(&self, halo: &[NodeId]) -> bool {
        match &self.changed {
            None => false,
            Some(changed) => halo.iter().any(|&v| changed[v as usize]),
        }
    }
}

/// Builds the artifacts of a uniform (zone-free) signature: every edge
/// scales by `signature.uniform_factor()`, bit-identically to reweighting by
/// [`TrafficEpoch::edge_multiplier`] for an epoch with that profile factor
/// and no effective zones.
fn build_uniform_artifacts(
    base: &Arc<RoadNetwork>,
    signature: EpochSignature,
    record_plan: bool,
) -> EpochArtifacts {
    let factor = signature.uniform_factor();
    let net = if factor == 1.0 {
        base.clone()
    } else {
        Arc::new(base.reweighted(|_, _| factor))
    };
    let (labels, plan) = if record_plan {
        let (labels, plan) = HubLabels::build_with_plan(&net);
        (labels, Some(Arc::new(plan)))
    } else {
        (HubLabels::build(&net), None)
    };
    EpochArtifacts {
        signature,
        min_tpm: net.min_time_per_meter(),
        min_ratio: net.min_weight_ratio(base),
        net,
        labels: Arc::new(labels),
        plan,
        changed: None,
    }
}

/// Builds the artifacts of a zoned epoch by scoped repair against the
/// same-profile uniform `reference`: reweight with per-edge flags, re-search
/// only the roots whose recorded searches touched a flagged vertex, splice
/// everything else in verbatim ([`BuildPlan::repair`] — bit-identical to a
/// wholesale `HubLabels::build` over the reweighted network).
fn build_zoned_artifacts(
    base: &Arc<RoadNetwork>,
    epoch: &TrafficEpoch,
    reference: &EpochArtifacts,
) -> EpochArtifacts {
    let signature = epoch.signature();
    let (net, seeds) = base.reweighted_with_flags(
        |from, to| epoch.edge_multiplier(from, to),
        signature.uniform_factor(),
    );
    let net = Arc::new(net);
    let plan = reference
        .plan
        .as_ref()
        .expect("uniform reference artifacts record a build plan when zones are configured");
    let repair = plan.repair(&net, &seeds);
    EpochArtifacts {
        signature,
        min_tpm: net.min_time_per_meter(),
        min_ratio: net.min_weight_ratio(base),
        net,
        labels: Arc::new(repair.labels),
        plan: None,
        changed: Some(repair.changed),
    }
}

/// A background prebuild in flight (see [`EpochStore::ensure_prebuild`]).
type Prebuild = std::thread::JoinHandle<Result<EpochArtifacts, rayon::ThreadPoolBuildError>>;

/// A memoized artifact, or the handle of a background prebuild in flight.
#[derive(Debug)]
enum SignatureSlot {
    Pending(Prebuild),
    Ready(Arc<EpochArtifacts>),
}

/// Memoized, background-prefetched per-epoch artifacts, shared by every
/// engine rolling through the same traffic model — the tiered epoch-roll
/// repair engine — and the one landmark table those engines share.
///
/// Every [`SpEngine`] is built from a store, static ones included.  A
/// static config's store holds one artifact (the base network and its
/// labels) and never starts a thread: every epoch has the initial
/// signature, so [`EpochStore::ensure_prebuild`] finds nothing to build.
///
/// Artifacts are keyed by [`TrafficEpoch::signature`], a bit-exact
/// fingerprint of everything that can affect an edge weight, so two epochs
/// with equal signatures (e.g. the free-flow hours on both sides of a rush
/// peak, or any revisit of an hourly factor) share one artifact and one
/// build.  Per signature, the cheapest sound producer is chosen:
///
/// * **Uniform signatures** (no effective zones — every roll of a zone-free
///   `Rush`/`Custom` profile) are built by the wholesale builder, but *off
///   the roll path*: [`EpochStore::ensure_prebuild`] enumerates the
///   distinct uniform signatures of the profile's first day and builds each
///   one on a single-worker background thread while dispatch proceeds
///   under the current epoch.  A roll that arrives before its prebuild
///   finishes joins it (the wait is booked as refresh time); every later
///   roll to that signature is a memo hit.  A from-scratch *rescale* of the stored label distances
///   would be cheaper still but is **not sound**: the prune check compares
///   two floating-point sums of the same path length accumulated in
///   different association orders, and a uniform factor re-rounds both
///   sides independently, flipping knife-edge settle/prune decisions — see
///   [`BuildPlan`].
/// * **Zoned signatures** are built by scoped repair
///   ([`BuildPlan::repair`]) against the same-profile uniform reference:
///   only roots whose recorded searches touched a reweighted vertex
///   re-search; everything else is spliced in verbatim.  The artifact also
///   records *which* vertices changed, which is what lets clipped engines
///   skip their refresh entirely when their halo was not touched (Tier 3).
///
/// Every producer is bit-identical to `HubLabels::build` over the epoch's
/// reweighted network (property-tested across zone-flip sequences and
/// worker counts), so engines sharing a store answer exactly as if each
/// roll rebuilt wholesale — only faster.
#[derive(Debug)]
pub struct EpochStore {
    base: Arc<RoadNetwork>,
    config: TrafficConfig,
    /// Plans are recorded on uniform artifacts only when the config carries
    /// zones that could later demand a scoped repair against them.
    record_plans: bool,
    initial_epoch: TrafficEpoch,
    initial: Arc<EpochArtifacts>,
    memo: Mutex<HashMap<EpochSignature, SignatureSlot>>,
    prebuild_started: AtomicBool,
    /// The free-flow base's landmark table, shared by every engine built
    /// from this store: each epoch scales it by its `min_ratio`.
    landmarks: Arc<Landmarks>,
}

impl EpochStore {
    /// Builds the store and the artifacts of the epoch covering `now = 0` —
    /// the setup-time cost.  Background prebuilding starts lazily at the
    /// first [`SpEngine::roll_epoch_to`] call (see
    /// [`EpochStore::ensure_prebuild`]) so it never contends with the rest
    /// of setup.
    pub fn new(base: Arc<RoadNetwork>, config: TrafficConfig) -> Arc<Self> {
        let record_plans = config.zones.iter().any(Option::is_some);
        let initial_epoch = config.epoch_at(0.0);
        let signature = initial_epoch.signature();
        let mut memo = HashMap::new();
        let initial = if signature.is_uniform() {
            Arc::new(build_uniform_artifacts(&base, signature, record_plans))
        } else {
            let reference = Arc::new(build_uniform_artifacts(
                &base,
                signature.profile_only(),
                record_plans,
            ));
            let artifact = Arc::new(build_zoned_artifacts(&base, &initial_epoch, &reference));
            memo.insert(signature.profile_only(), SignatureSlot::Ready(reference));
            artifact
        };
        memo.insert(signature, SignatureSlot::Ready(initial.clone()));
        Arc::new(EpochStore {
            landmarks: Arc::new(Landmarks::build(&base)),
            base,
            config,
            record_plans,
            initial_epoch,
            initial,
            memo: Mutex::new(memo),
            prebuild_started: AtomicBool::new(false),
        })
    }

    /// The traffic model every sharing engine rolls by.
    pub fn config(&self) -> TrafficConfig {
        self.config
    }

    /// The free-flow base network all artifacts reweight.
    pub fn base(&self) -> &Arc<RoadNetwork> {
        &self.base
    }

    /// The epoch covering `now = 0`.
    pub fn initial_epoch(&self) -> TrafficEpoch {
        self.initial_epoch
    }

    /// The artifacts built at store creation (for the initial epoch).
    pub fn initial_artifacts(&self) -> Arc<EpochArtifacts> {
        self.initial.clone()
    }

    /// Starts the background prebuild: one builder thread per distinct
    /// uniform signature among the epochs of the profile's first day (capped
    /// at 64 epochs examined), so the label builds overlap dispatch instead
    /// of stalling epoch rolls.  Idempotent and cheap after the first call;
    /// called by every [`SpEngine::roll_epoch_to`], so stores driven by any
    /// pipeline start prefetching at the first batch.
    ///
    /// Each builder is single-worker: it runs [`HubLabels::build`] under a
    /// one-thread `rayon` pool, so the builders' per-landmark `join`s never
    /// queue on the shared worker pool ahead of dispatch's parallel calls.
    /// The labels are the same bits under any worker count.  A builder that
    /// panics costs nothing but time: the roll that needs its signature
    /// builds it on demand instead.
    pub fn ensure_prebuild(&self) {
        if self.prebuild_started.swap(true, Ordering::Relaxed) {
            return;
        }
        let width = if self.config.epoch_seconds.is_finite() && self.config.epoch_seconds > 0.0 {
            self.config.epoch_seconds
        } else {
            3600.0
        };
        if !(self.config.hour_scale.is_finite() && self.config.hour_scale > 0.0) {
            // The profile hour never advances: only the initial signature's
            // profile factor can ever occur, and it is already built.
            return;
        }
        let day_epochs = ((24.0 * self.config.hour_scale / width).ceil() as usize).clamp(1, 64);
        let mut memo = self.memo.lock().unwrap();
        for e in 1..=day_epochs {
            let epoch = self.config.epoch_at(e as f64 * width);
            if epoch.uniform_multiplier().is_none() {
                continue;
            }
            let signature = epoch.signature();
            if memo.contains_key(&signature) {
                continue;
            }
            let base = self.base.clone();
            let record_plans = self.record_plans;
            let handle = std::thread::spawn(move || {
                Ok(rayon::ThreadPoolBuilder::new()
                    .num_threads(1)
                    .build()?
                    .install(|| build_uniform_artifacts(&base, signature, record_plans)))
            });
            memo.insert(signature, SignatureSlot::Pending(handle));
        }
    }

    /// The artifacts for `epoch`: a memo hit, a join on the signature's
    /// background prebuild, or an on-demand build (scoped repair for zoned
    /// signatures).  Identical bits regardless of which path ran.
    pub fn artifacts_for(&self, epoch: &TrafficEpoch) -> Arc<EpochArtifacts> {
        let signature = epoch.signature();
        let mut memo = self.memo.lock().unwrap();
        match memo.remove(&signature) {
            Some(SignatureSlot::Ready(artifact)) => {
                memo.insert(signature, SignatureSlot::Ready(artifact.clone()));
                artifact
            }
            Some(SignatureSlot::Pending(handle)) => {
                let artifact = Arc::new(self.join_prebuild(handle, signature));
                memo.insert(signature, SignatureSlot::Ready(artifact.clone()));
                artifact
            }
            None => {
                let artifact = if signature.is_uniform() {
                    Arc::new(build_uniform_artifacts(
                        &self.base,
                        signature,
                        self.record_plans,
                    ))
                } else {
                    let reference = self.uniform_reference(&mut memo, signature.profile_only());
                    Arc::new(build_zoned_artifacts(&self.base, epoch, &reference))
                };
                memo.insert(signature, SignatureSlot::Ready(artifact.clone()));
                artifact
            }
        }
    }

    /// The uniform reference artifacts for a zoned signature's profile
    /// factor, materializing them (join or build) under the held memo lock.
    fn uniform_reference(
        &self,
        memo: &mut HashMap<EpochSignature, SignatureSlot>,
        signature: EpochSignature,
    ) -> Arc<EpochArtifacts> {
        let artifact = match memo.remove(&signature) {
            Some(SignatureSlot::Ready(artifact)) => artifact,
            Some(SignatureSlot::Pending(handle)) => Arc::new(self.join_prebuild(handle, signature)),
            None => Arc::new(build_uniform_artifacts(
                &self.base,
                signature,
                self.record_plans,
            )),
        };
        memo.insert(signature, SignatureSlot::Ready(artifact.clone()));
        artifact
    }

    /// The artifacts a background prebuild of the uniform `signature`
    /// produced — or, when its thread panicked or could not set up its
    /// worker, the same bits built here on demand.
    fn join_prebuild(&self, handle: Prebuild, signature: EpochSignature) -> EpochArtifacts {
        match handle.join() {
            Ok(Ok(artifact)) => artifact,
            _ => build_uniform_artifacts(&self.base, signature, self.record_plans),
        }
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
    /// engines), shared with every engine of the same [`EpochStore`].
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
    fallback_queries: AtomicU64,
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
            Epochs::Rolling(rt) => read(&rt.slot.read().unwrap().current),
        }
    }

    /// The underlying road network.  For self-rolling traffic engines this
    /// is the **free-flow base** (topology and coordinates are shared with
    /// every epoch's reweighted copy); use [`SpEngine::min_time_per_meter`]
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
        self.current(|slot| match &slot.index {
            SpIndex::Full(labels) => labels.query(source, target),
            SpIndex::Clipped { sub, slice, full } => match (sub.local(source), sub.local(target)) {
                (Some(ls), Some(lt)) => slice.query(ls, lt),
                _ => {
                    self.fallback_queries.fetch_add(1, Ordering::Relaxed);
                    full.query(source, target)
                }
            },
            SpIndex::FallbackOnly { full } => {
                self.fallback_queries.fetch_add(1, Ordering::Relaxed);
                full.query(source, target)
            }
        })
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
    /// compared in.  Clipped engines answer through their compact label
    /// slice when every endpoint is inside the halo and through the shared
    /// full index otherwise (the whole matrix, counted as fallback
    /// queries); both give the same bits, because restricted label vectors
    /// are verbatim copies of the full ones.  All |S|·|T| pairs are counted
    /// as index queries — like every SP counter, subject to no replay
    /// comparison.
    pub fn many_to_many(&self, sources: &[NodeId], targets: &[NodeId]) -> Vec<f64> {
        let pairs = (sources.len() * targets.len()) as u64;
        self.index_queries.fetch_add(pairs, Ordering::Relaxed);
        self.current(|slot| match &slot.index {
            SpIndex::Full(labels) => labels.many_to_many(sources, targets),
            SpIndex::Clipped { sub, slice, full } => {
                // One id map for both sides; the first endpoint outside the
                // halo sends the whole matrix to the full index.
                let local: Option<Vec<NodeId>> = sources
                    .iter()
                    .chain(targets)
                    .map(|&v| sub.local(v))
                    .collect();
                match local {
                    Some(ids) => {
                        let (ls, lt) = ids.split_at(sources.len());
                        slice.many_to_many(ls, lt)
                    }
                    None => {
                        self.fallback_queries.fetch_add(pairs, Ordering::Relaxed);
                        full.many_to_many(sources, targets)
                    }
                }
            }
            SpIndex::FallbackOnly { full } => {
                self.fallback_queries.fetch_add(pairs, Ordering::Relaxed);
                full.many_to_many(sources, targets)
            }
        })
    }

    /// True for engines built by [`SpEngineBuilder::build_clipped`] with a
    /// proper (non-covering) halo, including the empty-halo degenerate
    /// case.
    pub fn is_clipped(&self) -> bool {
        self.current(|slot| {
            matches!(
                slot.index,
                SpIndex::Clipped { .. } | SpIndex::FallbackOnly { .. }
            )
        })
    }

    /// Index queries that left the halo and were answered by the shared full
    /// index (always 0 for non-clipped engines).  Like
    /// [`SpStats::index_queries`], this counter is subject to cache-miss
    /// races under concurrency and is excluded from replay comparisons.
    pub fn fallback_queries(&self) -> u64 {
        self.fallback_queries.load(Ordering::Relaxed)
    }

    /// Bytes of the hub-label index this engine queries locally: the halo
    /// slice for clipped engines, the full label index otherwise (0 with an
    /// empty halo).  Shared full indexes reached only via fallback are *not*
    /// counted — sum them once per pipeline, not per shard.
    pub fn index_bytes(&self) -> usize {
        self.current(|slot| match &slot.index {
            SpIndex::FallbackOnly { .. } => 0,
            SpIndex::Full(labels) => labels.approx_bytes(),
            SpIndex::Clipped { slice, .. } => slice.approx_bytes(),
        })
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

    /// Advances a self-rolling traffic engine to the epoch covering `now`,
    /// taking the cheapest sound repair for the transition.  Returns `true`
    /// when the epoch actually changed.
    ///
    /// The tiers, cheapest first — every one answers queries bit-identically
    /// to a wholesale reweight-and-rebuild at the new epoch:
    ///
    /// 1. **Same signature**: the new epoch's weights are bit-equal to the
    ///    current ones ([`TrafficEpoch::signature`]), so the artifacts,
    ///    clip, *and cache* all stay live; only the epoch index advances.
    /// 2. **Artifact swap**: fetch the new signature's artifacts from the
    ///    shared [`EpochStore`] (memo hit, prebuild join, or on-demand
    ///    uniform build / zoned scoped repair).
    /// 3. **Shard-selective clip retention**: a clipped engine re-cuts its
    ///    sub-network and label slice only when the transition could touch
    ///    its halo — a profile-factor change, or zone activity intersecting
    ///    the halo on either side of the roll.  Otherwise the clip is
    ///    retained against the new full index, and the cache too if no
    ///    fallback query escaped the halo since it was last cleared.
    ///
    /// Static engines return `false` unconditionally, so pipelines can call
    /// this every batch without guarding.  Must be called from the batch
    /// control thread at a quiescent point — concurrent `cost()` callers in
    /// the same instant could cache a fresh-epoch value under the old tag.
    pub fn roll_epoch_to(&self, now: f64) -> bool {
        let Epochs::Rolling(rt) = &self.epochs else {
            return false;
        };
        rt.store.ensure_prebuild();
        let epoch = rt.store.config().epoch_at(now);
        if rt.slot.read().unwrap().current.epoch == epoch.index {
            return false;
        }
        let mut slot = rt.slot.write().unwrap();
        let RollingSlot {
            current,
            artifact: old,
        } = &mut *slot;
        if current.epoch == epoch.index {
            return false;
        }
        let signature = epoch.signature();
        if *old.signature() == signature {
            // Tier 1, degenerate: identical weights — everything stays live.
            current.epoch = epoch.index;
            return true;
        }
        let artifact = rt.store.artifacts_for(&epoch);
        let kept_clip = match (&rt.halo, &mut current.index) {
            (Some(halo), SpIndex::Clipped { full, .. })
                if old.signature().same_profile(&signature)
                    && !old.changed_intersects(halo)
                    && !artifact.changed_intersects(halo) =>
            {
                // Tier 3: no reweighted edge touches the halo, so the
                // sub-network and label slice are bit-equal to fresh cuts;
                // only the fallback index moves to the new epoch.
                *full = artifact.labels().clone();
                true
            }
            _ => false,
        };
        if !kept_clip {
            if rt.halo.is_some() {
                rt.slice_refreshes.fetch_add(1, Ordering::Relaxed);
            }
            current.index = epoch_index(&artifact, rt.halo.as_deref());
        }
        current.epoch = epoch.index;
        current.min_tpm = artifact.min_tpm();
        current.min_ratio = artifact.min_ratio();
        *old = artifact;
        drop(slot);
        // Cache tag: entries answered through a retained clip stayed inside
        // the halo, where no weight changed — keep them.  Any fallback since
        // the last clear may have crossed reweighted edges, so the tag must
        // advance, which retires every old entry.
        let fallbacks = self.fallback_queries.load(Ordering::Relaxed);
        if !(kept_clip && fallbacks == rt.fallback_mark.load(Ordering::Relaxed)) {
            self.cache.retire();
            rt.fallback_mark.store(fallbacks, Ordering::Relaxed);
        }
        true
    }

    /// The certified prescreen rate for the **current** epoch's weights:
    /// `travel_time(u, v) >= min_time_per_meter() * euclidean(u, v)` holds
    /// for the network as currently weighted.  Static engines return the
    /// base network's rate, scanned once when the engine was built; traffic
    /// engines return the rate precomputed at the last epoch roll, which is
    /// what keeps SARD/pruneGDP/GAS candidate retrieval, top-m handoff
    /// bidding and the shareability screen *sound* under congestion.
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

    /// Weight-changing rolls on which this clipped engine actually re-cut
    /// its sub-network and label slice — the complement of the Tier-3 skip.
    /// 0 for static and non-clipped engines.
    pub fn slice_refreshes(&self) -> u64 {
        match &self.epochs {
            Epochs::Fixed(_) => 0,
            Epochs::Rolling(rt) => rt.slice_refreshes.load(Ordering::Relaxed),
        }
    }

    /// Approximate heap footprint (graph + locally queried labels + clip
    /// maps + cache) in bytes.  The network and any shared full index may be
    /// `Arc`-shared with other engines; they are counted here as if owned.
    pub fn approx_bytes(&self) -> usize {
        let clip_bytes = self.current(|slot| match &slot.index {
            SpIndex::Clipped { sub, .. } => sub.approx_bytes(),
            _ => 0,
        });
        self.net.approx_bytes()
            + self.index_bytes()
            + clip_bytes
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
///   network the table was built on, and `ratio` is the epoch's smallest
///   weight ratio over that base ([`RoadNetwork::min_weight_ratio`]; 1 on a
///   static engine).  Every epoch path costs at least `ratio` times its
///   base cost, edge by edge, so `d'(u, v) ≥ ratio · d(u, v) ≥ ratio ·
///   lb(u, v)`.  That holds for ratios below 1 too, so zones that speed
///   edges up stay sound.  Halo-clipped engines answer exactly what the full
///   index answers, so the full network's table serves them as well.
/// * Both hold in exact arithmetic.  The computed costs and bounds are sums
///   and differences of rounded distances, each within a few ulps of
///   10⁴-second values, far inside the one-second grace.
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

    #[test]
    fn clipped_engine_is_bit_identical_to_the_full_engine_everywhere() {
        let net = Arc::new(line_graph(24));
        let full = SpEngineBuilder::new().build(line_graph(24));
        let store = EpochStore::new(net.clone(), TrafficConfig::none());
        let labels = store.initial_artifacts().labels().clone();
        // Halo = nodes 4..=11; queries inside hit the slice, any endpoint
        // outside falls back to the shared full index.
        let halo: Vec<u32> = (4..12).collect();
        let clipped = SpEngineBuilder::new().build_clipped(store.clone(), &halo);
        assert!(clipped.is_clipped());
        let sub = SubNetwork::extract(&net, &halo).unwrap();
        assert_eq!(sub.len(), 8);
        assert_eq!(
            clipped.index_bytes(),
            labels.restrict_to(sub.to_global()).approx_bytes()
        );
        for s in 0..24u32 {
            for t in 0..24u32 {
                assert_eq!(
                    clipped.cost_uncached(s, t).to_bits(),
                    full.cost_uncached(s, t).to_bits(),
                    "({s},{t}) must be bit-identical, in or out of the halo"
                );
            }
        }
        assert!(clipped.fallback_queries() > 0);
        assert_eq!(full.fallback_queries(), 0);
        assert!(clipped.index_bytes() < full.index_bytes());
        // Cached path agrees too.
        assert_eq!(clipped.cost(2, 20).to_bits(), full.cost(2, 20).to_bits());

        // A halo covering everything degenerates to a full engine sharing
        // the index; an empty halo to a fallback-only engine.
        let all: Vec<u32> = (0..24).collect();
        let covering = SpEngineBuilder::new().build_clipped(store.clone(), &all);
        assert!(!covering.is_clipped());
        assert_eq!(covering.index_bytes(), full.index_bytes());
        let empty = SpEngineBuilder::new().build_clipped(store, &[]);
        assert!(empty.is_clipped());
        assert_eq!(empty.index_bytes(), 0);
        assert_eq!(
            empty.cost_uncached(0, 23).to_bits(),
            full.cost_uncached(0, 23).to_bits()
        );
        assert_eq!(empty.fallback_queries(), 1);
    }

    /// The batched matrix must agree bit for bit with per-pair
    /// `cost_uncached` for every engine variant: full labels, a clipped
    /// engine answering in-halo (slice) and mixed (whole-matrix fallback to
    /// the full index) batches, and both again rolled to a rush-hour peak
    /// (a traffic engine and a traffic-clipped one over a shared store,
    /// checked against a wholesale engine rolled the same way) — at the
    /// |S|×1 shape dispatch sends as well as 1×|T| and square, and with the
    /// calls fanned out over 1, 4 and 8 workers so every worker thread
    /// brings its own kernel scratch and alternates slice and full index.
    #[test]
    fn many_to_many_matches_cost_uncached_for_every_engine_variant() {
        use rayon::prelude::*;
        let net = Arc::new(line_graph(24));
        let full = SpEngineBuilder::new().build(line_graph(24));
        let halo: Vec<u32> = (4..12).collect();
        let store = EpochStore::new(net.clone(), TrafficConfig::none());
        let clipped = SpEngineBuilder::new().build_clipped(store, &halo);
        let rush = SpEngineBuilder::new()
            .traffic(rush_config())
            .build(line_graph(24));
        let store = EpochStore::new(net, rush_config());
        let rush_clipped = SpEngineBuilder::new().build_clipped(store, &halo);
        let wholesale = SpEngineBuilder::new()
            .traffic(rush_config())
            .build(line_graph(24));
        for eng in [&rush, &rush_clipped, &wholesale] {
            assert!(eng.roll_epoch_to(820.0)); // hour 8: uniform ×1.75
        }
        assert!(rush_clipped.is_clipped());
        assert_eq!(rush_clipped.slice_refreshes(), 1);

        let in_halo: Vec<u32> = (4..12).collect();
        let mixed: Vec<u32> = vec![0, 5, 8, 20, 23];
        // Interleaved so a worker's consecutive calls switch between the
        // slice (in-halo) and the full index (an endpoint outside).
        let shapes: Vec<(&[u32], &[u32])> = (0..24usize)
            .flat_map(|k| {
                let one_inside = &in_halo[k % 8..][..1];
                let one_mixed = &mixed[k % 5..][..1];
                [
                    (&in_halo[..], one_inside),
                    (&mixed[..], one_inside),
                    (&in_halo[..], one_mixed),
                    (one_inside, &in_halo[..]),
                    (&in_halo[..], &in_halo[..]),
                    (&mixed[..], &mixed[..]),
                ]
            })
            .collect();
        for threads in [1usize, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            for (eng, reference) in [
                (&full, &full),
                (&clipped, &full),
                (&rush, &wholesale),
                (&rush_clipped, &wholesale),
            ] {
                let before = eng.fallback_queries();
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
                // Fallbacks are counted per pair of every batch with an
                // endpoint outside the halo, and only by the clipped engine.
                let outside_pairs: u64 = shapes
                    .iter()
                    .filter(|(s, t)| s.iter().chain(*t).any(|v| !halo.contains(v)))
                    .map(|(s, t)| (s.len() * t.len()) as u64)
                    .sum();
                let expected = if eng.is_clipped() { outside_pairs } else { 0 };
                assert_eq!(eng.fallback_queries() - before, expected);
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

    /// Every engine built from one store — full or clipped, static or
    /// rush — queries the store's one landmark table.
    #[test]
    fn engines_of_one_store_share_one_landmark_table() {
        let net = Arc::new(line_graph(24));
        for config in [TrafficConfig::none(), rush_config()] {
            let store = EpochStore::new(net.clone(), config);
            let engines = [
                SpEngineBuilder::new().assemble(store.clone(), None),
                SpEngineBuilder::new().build_clipped(store.clone(), &(0..9).collect::<Vec<_>>()),
                SpEngineBuilder::new().build_clipped(store.clone(), &(10..21).collect::<Vec<_>>()),
            ];
            assert_eq!(engines[0].traffic_config().is_none(), config.is_static());
            assert!(!engines[0].is_clipped() && engines[1].is_clipped());
            for pair in engines.windows(2) {
                assert!(std::ptr::eq(
                    pair[0].leg_bound().landmarks(),
                    pair[1].leg_bound().landmarks()
                ));
            }
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

    #[test]
    fn a_panicked_prebuild_falls_back_to_the_on_demand_build() {
        let base = Arc::new(line_graph(12));
        let store = EpochStore::new(base.clone(), rush_config());
        let epoch = rush_config().epoch_at(820.0); // hour 8: uniform ×1.75
        let signature = epoch.signature();
        assert!(signature.is_uniform());
        let failed: Prebuild = std::thread::spawn(|| panic!("prebuild failed"));
        store
            .memo
            .lock()
            .unwrap()
            .insert(signature, SignatureSlot::Pending(failed));
        let artifact = store.artifacts_for(&epoch);
        let fresh = build_uniform_artifacts(&base, signature, false);
        assert_eq!(artifact.labels(), fresh.labels());
        assert_eq!(artifact.min_tpm().to_bits(), fresh.min_tpm().to_bits());
        // The fallback is memoized like a joined prebuild.
        assert!(Arc::ptr_eq(&artifact, &store.artifacts_for(&epoch)));
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

    /// Satellite: across a shard-selective roll, an untouched shard's SP
    /// cache survives (its warm entries keep answering as cache hits) while
    /// a refreshed shard serves no stale value — every post-roll answer is
    /// bit-identical to a wholesale traffic engine rolled to the same
    /// instant.  Two clipped engines over one [`EpochStore`] model the
    /// sharded topology: a western shard whose halo the congestion zone
    /// never touches, and an eastern shard inside the zone.
    #[test]
    fn shard_selective_roll_keeps_untouched_shard_caches_live_without_stale_hits() {
        // Nodes sit at x = 0, 10, …, 230; the zone covers edge midpoints
        // from edge 15–16 (x = 155) eastwards, so its changed-node set is
        // {15, …, 23} — disjoint from the western halo, inside the eastern.
        let zone = |from: f64, until: f64| crate::traffic::CongestionZone {
            min_x: 152.0,
            min_y: -5.0,
            max_x: 240.0,
            max_y: 5.0,
            factor: 2.0,
            active_from: from,
            active_until: until,
        };
        let cfg = crate::traffic::TrafficConfig {
            epoch_seconds: 100.0,
            ..crate::traffic::TrafficConfig::default()
        }
        .with_zone(zone(100.0, 200.0))
        .with_zone(zone(300.0, 400.0));
        let net = Arc::new(line_graph(24));
        let store = EpochStore::new(net, cfg);
        let west = SpEngineBuilder::new().build_clipped(store.clone(), &(0..9).collect::<Vec<_>>());
        let east = SpEngineBuilder::new().build_clipped(store, &(10..21).collect::<Vec<_>>());
        let wholesale = SpEngineBuilder::new().traffic(cfg).build(line_graph(24));

        // Warm both shard caches with in-halo queries (slice-answered).
        let west_free = west.cost(1, 7);
        assert_eq!(west.cost(1, 7).to_bits(), west_free.to_bits());
        assert_eq!(west.stats().cache_hits, 1);
        let east_free = east.cost(10, 20);
        assert_eq!(east.cost(10, 20).to_bits(), east_free.to_bits());
        assert_eq!(east.stats().cache_hits, 1);

        // Roll into the zoned epoch.  The zone misses the western halo on
        // both sides of the boundary, so the west shard's clip AND cache
        // survive; the east shard re-cuts its slice and drops its cache.
        for eng in [&west, &east, &wholesale] {
            assert!(eng.roll_epoch_to(150.0));
        }
        assert_eq!(
            west.slice_refreshes(),
            0,
            "untouched shard must keep its clip"
        );
        assert_eq!(
            east.slice_refreshes(),
            1,
            "zone-hit shard must re-cut its slice"
        );
        assert_eq!(west.cost(1, 7).to_bits(), west_free.to_bits());
        assert_eq!(
            west.stats().cache_hits,
            2,
            "untouched shard's warm entry must survive the roll as a live hit"
        );
        assert_eq!(
            west.cost(1, 7).to_bits(),
            wholesale.cost_uncached(1, 7).to_bits(),
            "surviving cache entry must still be the wholesale answer"
        );
        let east_peak = east.cost(10, 20);
        assert_eq!(
            east.stats().cache_hits,
            1,
            "refreshed shard must re-miss: its pre-roll cache is gone"
        );
        assert_ne!(
            east_peak.to_bits(),
            east_free.to_bits(),
            "zone must slow the east"
        );
        assert_eq!(
            east_peak.to_bits(),
            wholesale.cost_uncached(10, 20).to_bits()
        );

        // Roll back to free flow (a memoized uniform epoch): the west shard
        // skips again and the whole system returns bit-identically to the
        // pre-zone answers.
        for eng in [&west, &east, &wholesale] {
            assert!(eng.roll_epoch_to(250.0));
        }
        assert_eq!(west.slice_refreshes(), 0);
        assert_eq!(east.cost(10, 20).to_bits(), east_free.to_bits());
        assert_eq!(west.cost(1, 7).to_bits(), west_free.to_bits());

        // A fallback answer (out-of-halo target) is cached under the *full*
        // labels, which the next zoned epoch replaces — so even though the
        // west clip survives that roll, its cache must not.
        let west_cross_free = west.cost(2, 20);
        assert!(west.fallback_queries() > 0);
        for eng in [&west, &east, &wholesale] {
            assert!(eng.roll_epoch_to(350.0));
        }
        assert_eq!(
            west.slice_refreshes(),
            0,
            "clip retention is independent of cache fate"
        );
        let west_cross_peak = west.cost(2, 20);
        assert_ne!(
            west_cross_peak.to_bits(),
            west_cross_free.to_bits(),
            "a stale fallback entry must not survive into the zoned epoch"
        );
        assert_eq!(
            west_cross_peak.to_bits(),
            wholesale.cost_uncached(2, 20).to_bits()
        );
        // In-halo west answers are untouched by the far-away zone.
        assert_eq!(west.cost(1, 7).to_bits(), west_free.to_bits());
    }
}
