//! Configuration of the StructRide framework (the knobs of Table III).

use crate::faults::FaultConfig;
use crate::ingest::IngestConfig;
use structride_model::CostParams;
use structride_roadnet::TrafficConfig;
use structride_sharegraph::{AnglePruning, BuilderConfig};

/// Framework-level configuration shared by SARD and the batch simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StructRideConfig {
    /// Batch period Δ in seconds (Table III default: 5 s).
    pub batch_period: f64,
    /// Unified-cost parameters (α and the penalty coefficient `p_r`).
    pub cost: CostParams,
    /// Seat capacity assumed when testing pairwise shareability.
    pub shareability_capacity: u32,
    /// The angle-pruning configuration (δ, on/off).
    pub angle: AnglePruning,
    /// Grid cells per side of the shareability builder's source index,
    /// passed on by [`StructRideConfig::builder_config`] as
    /// [`BuilderConfig::grid_cells`].  The fleet index keeps no grid.
    pub grid_cells: u32,
    /// Maximum number of candidate vehicles kept per request in SARD's
    /// proposal queues.  The paper retrieves candidates with a radius-bounded
    /// grid range query; capping the queue at the `k` cheapest feasible
    /// vehicles plays the same role — the "worst vehicle first" rule then
    /// operates within a sensible neighbourhood instead of the whole fleet.
    pub max_candidate_vehicles: usize,
    /// Knobs of the ingest front end (only read by the `run_ingested` mode,
    /// where wall-clock adaptive batching replaces the fixed Δ cadence; see
    /// [`crate::ingest`]).
    pub ingest: IngestConfig,
    /// The time-dependent travel-time model (profile, congestion zones,
    /// epoch granularity).  The default is static free flow, which keeps
    /// every pre-traffic pipeline bit-identical; a non-static config makes
    /// the simulators roll the engine's traffic epoch from the batch clock.
    pub traffic: TrafficConfig,
    /// The deterministic fault injector (shard outages, solver deadlines,
    /// checkpoint cadence; see [`crate::faults`]).  The default is inert,
    /// which keeps every pre-fault pipeline bit-identical; a non-inert
    /// config derives the injection schedule purely from the batch clock.
    pub faults: FaultConfig,
}

impl Default for StructRideConfig {
    fn default() -> Self {
        StructRideConfig {
            batch_period: 5.0,
            cost: CostParams::default(),
            shareability_capacity: 4,
            angle: AnglePruning::default(),
            grid_cells: 64,
            max_candidate_vehicles: 8,
            ingest: IngestConfig::default(),
            traffic: TrafficConfig::default(),
            faults: FaultConfig::default(),
        }
    }
}

impl StructRideConfig {
    /// Derives the shareability-graph builder configuration.
    pub fn builder_config(&self) -> BuilderConfig {
        BuilderConfig {
            vehicle_capacity: self.shareability_capacity,
            angle: self.angle,
            grid_cells: self.grid_cells,
        }
    }

    /// Returns a copy with the angle pruning disabled (the SARD vs. SARD-O
    /// ablation of Tables V/VI).
    pub fn without_angle_pruning(mut self) -> Self {
        self.angle = AnglePruning::disabled();
        self
    }

    /// Returns a copy with a different batch period.
    pub fn with_batch_period(mut self, delta: f64) -> Self {
        self.batch_period = delta;
        self
    }

    /// Returns a copy with a different penalty coefficient.
    pub fn with_penalty(mut self, pr: f64) -> Self {
        self.cost = CostParams::with_penalty(pr);
        self
    }

    /// Returns a copy with different ingest-front-end knobs.
    pub fn with_ingest(mut self, ingest: IngestConfig) -> Self {
        self.ingest = ingest;
        self
    }

    /// Returns a copy with a different traffic model.
    pub fn with_traffic(mut self, traffic: TrafficConfig) -> Self {
        self.traffic = traffic;
        self
    }

    /// Returns a copy with a different fault-injection config.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_iii() {
        let c = StructRideConfig::default();
        assert_eq!(c.batch_period, 5.0);
        assert_eq!(c.cost.penalty_coefficient, 10.0);
        assert!(c.angle.enabled);
        assert!((c.angle.threshold - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn builder_config_propagates_fields() {
        let c = StructRideConfig {
            shareability_capacity: 6,
            grid_cells: 32,
            ..Default::default()
        };
        let b = c.builder_config();
        assert_eq!(b.vehicle_capacity, 6);
        assert_eq!(b.grid_cells, 32);
        assert_eq!(b.angle, c.angle);
    }

    #[test]
    fn default_traffic_is_static() {
        assert!(StructRideConfig::default().traffic.is_static());
        let rush = StructRideConfig::default().with_traffic(TrafficConfig {
            profile: structride_roadnet::TrafficProfile::Rush,
            ..TrafficConfig::default()
        });
        assert!(!rush.traffic.is_static());
    }

    #[test]
    fn default_faults_are_inert() {
        assert!(StructRideConfig::default().faults.is_inert());
        let chaotic = StructRideConfig::default().with_faults(FaultConfig {
            outage_every: 10,
            outage_batches: 2,
            ..FaultConfig::default()
        });
        assert!(!chaotic.faults.is_inert());
    }

    #[test]
    fn fluent_modifiers() {
        let c = StructRideConfig::default()
            .without_angle_pruning()
            .with_batch_period(3.0)
            .with_penalty(20.0);
        assert!(!c.angle.enabled);
        assert_eq!(c.batch_period, 3.0);
        assert_eq!(c.cost.penalty_coefficient, 20.0);
    }
}
