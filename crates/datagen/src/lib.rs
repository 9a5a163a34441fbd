//! Synthetic workload generation for the StructRide reproduction.
//!
//! The paper evaluates on three proprietary datasets — Didi GAIA Chengdu
//! trips, NYC TLC taxi trips and the Cainiao LaDe delivery set — on top of the
//! corresponding OpenStreetMap road networks.  None of those can ship with an
//! open-source reproduction, so this crate builds the closest synthetic
//! equivalents:
//!
//! * [`network`] — grid-with-arterials road networks whose size/compactness is
//!   tuned per city profile;
//! * [`distributions`] — log-normal / normal / exponential sampling built on
//!   `rand` (the paper itself fits log-normal distributions to the trip
//!   distances of both cities);
//! * [`city`] — the three [`CityProfile`]s (`ChengduLike`, `NycLike`,
//!   `CainiaoLike`) capturing the relative traits the evaluation relies on:
//!   NYC is denser and more compact than Chengdu, Cainiao is dispersed with
//!   loose deadlines;
//! * [`requests`] — hotspot-clustered origin/destination sampling with
//!   log-normal trip distances and Poisson arrivals;
//! * [`vehicles`] — fleet generation with fixed or normally-distributed
//!   capacities (the σ sweep of Fig. 16/17);
//! * [`workload`] — the bundled [`Workload`] (engine + requests + vehicles)
//!   consumed by every dispatcher and experiment;
//! * [`regions`] — multi-region workloads: several city profiles composed
//!   side by side into one stream over one shared network, each region
//!   generated from a derived RNG seed so the stream is identical no matter
//!   how many regions are populated or how the consumer later shards it;
//! * [`arrivals`] — streaming arrival processes (homogeneous Poisson and
//!   bursty-surge profiles) emitting timestamped requests one at a time for
//!   the ingest front end, instead of pre-materialised batches;
//! * [`traffic`] — traffic scenario presets (compressed-clock rush hour,
//!   localized incident spike) parameterizing the time-dependent travel-time
//!   model of `structride_roadnet::traffic`.

pub mod arrivals;
pub mod city;
pub mod distributions;
pub mod network;
pub mod regions;
pub mod requests;
pub mod traffic;
pub mod vehicles;
pub mod workload;

pub use arrivals::{stream_requests, ArrivalProfile, ArrivalStream, ArrivalStreamParams};
pub use city::CityProfile;
pub use network::{synthetic_city_network, NetworkParams};
pub use regions::{derive_region_seed, MultiRegionParams, MultiRegionWorkload};
pub use requests::RequestGenParams;
pub use traffic::{incident_spike, rush_hour};
pub use vehicles::FleetParams;
pub use workload::{Workload, WorkloadParams};
