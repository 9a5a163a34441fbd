//! Road-network substrate for the StructRide reproduction.
//!
//! The paper (§II, §V-A) models the city as a directed weighted graph whose edge
//! weights are average travel times, and answers every travel-cost query
//! `cost(u, v)` with a hub-labeling index fronted by an LRU cache.  This crate
//! provides exactly that substrate:
//!
//! * [`RoadNetwork`] — a compact CSR representation of the directed weighted
//!   road graph together with planar node coordinates.
//! * [`dijkstra`] — exact shortest-path search used both directly (as a
//!   correctness oracle) and to construct the hub labels.
//! * [`HubLabels`] — a pruned-landmark 2-hop labeling supporting exact
//!   point-to-point travel-time queries in (near) constant time.
//! * [`Landmarks`] — eight landmarks' distances to and from every node,
//!   giving the ALT triangle-inequality lower bound on any pair's travel
//!   time in a few array reads.
//! * [`SpEngine`] — the query façade combining labels + cache + query
//!   counters (the counters feed the Table V / Table VI angle-pruning
//!   ablation).  Every engine answers through hub labels, read from one
//!   epoch slot: fixed for a static engine, rolled from a memo of
//!   per-zone-activity label sets for a traffic one.  Safe to share
//!   (`&SpEngine`) across worker threads: a sharded run builds one engine
//!   and lends it to every shard.  Its [`LegBound`] bundles the certified
//!   lower bounds the dispatch screens use: `min_time_per_meter × euclid`
//!   and the landmark bound, scaled to the current traffic epoch.
//!
//! The engine's cache plays the role of the paper's LRU cache (after Huang
//! et al.) but is not an LRU: it is a fixed table of 4-way sets split over
//! 64 independently locked stripes, and a full set evicts a hash-chosen way
//! rather than its least recently used one.  A hit hashes the key once and
//! reads one set.  At the default 2¹⁸ entries the dispatch working set fits,
//! so the hit ratio is the LRU's; and since every cached value is the exact
//! index answer, no replacement policy can change a result.
//!
//! All distances are travel times in seconds, represented as `f64`.  A missing
//! path is reported as [`INFINITY`](f64::INFINITY).

mod cache;
pub mod dijkstra;
pub mod engine;
pub mod error;
pub mod graph;
pub mod hub_labels;
pub mod landmarks;
pub mod path;
pub mod traffic;

pub use engine::{LegBound, SpEngine, SpEngineBuilder, SpStats};
pub use error::RoadNetError;
pub use graph::{EdgeId, NodeId, Point, RoadNetwork, RoadNetworkBuilder, LOWER_BOUND_GRACE};
pub use hub_labels::HubLabels;
pub use landmarks::{Landmarks, LANDMARKS};
pub use path::{expand_route, shortest_path, Path};
pub use traffic::{CongestionZone, TrafficConfig, TrafficEpoch, TrafficProfile, MAX_TRAFFIC_ZONES};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, RoadNetError>;
