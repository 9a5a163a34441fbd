//! Spatial substrate for the StructRide reproduction.
//!
//! Three pieces live here:
//!
//! * the **grid index** of §II-B ("Index Structure") — the road network's
//!   bounding box is partitioned into `n × n` square cells so that items can
//!   be re-indexed in O(1) and the items around a location retrieved with a
//!   constant-time range query ([`GridIndex`]).  It serves DARM's demand map
//!   and the workload generator's nearest-node lookup; the dispatch path
//!   finds candidates by dense scans instead, because its query radii cover
//!   most of a city;
//! * the **geometry helpers** of §III-B — 2-D vectors and the angle
//!   `θ = ∠(−→s_b e_a, −→s_b e_b)` used by the angle-pruning strategy
//!   ([`geo`]);
//! * the **region partitioner** behind multi-region sharded dispatch — a
//!   coarse `rows × cols` partition of the same bounding box into dispatch
//!   regions, with boundary-band classification for cross-shard handoff
//!   ([`RegionGrid`]).

pub mod geo;
pub mod grid;
pub mod region;

pub use geo::{angle_between, Vec2};
pub use grid::{CellId, GridIndex};
pub use region::{RegionGrid, RegionId};
