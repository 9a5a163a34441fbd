//! Demand-aware repositioning — the stand-in for DARM+DPRS \[53\].
//!
//! The paper's DARM+DPRS baseline uses deep reinforcement learning to move
//! idle vehicles toward anticipated high-demand areas and to match requests.
//! A learned policy cannot be reproduced faithfully without the authors'
//! training pipeline, so this dispatcher substitutes the interpretable core of
//! the idea:
//!
//! * demand per grid cell is tracked with an exponentially weighted moving
//!   average of recent request origins (the "prediction");
//! * arriving requests are matched greedily by cheapest insertion (as in the
//!   online baselines);
//! * after matching, idle vehicles are *repositioned* toward the hottest cells,
//!   which costs real (dead-head) travel — reproducing the qualitative
//!   signature the paper reports: competitive service at small request volumes,
//!   extra travel cost and degradation at larger volumes/state spaces.

use structride_core::{BatchOutcome, DispatchContext, Dispatcher, PendingSnapshot};
use structride_model::{Request, Vehicle};
use structride_roadnet::{NodeId, SpEngine};
use structride_spatial::GridIndex;

/// The demand-aware repositioning dispatcher (DARM+DPRS substitute).
#[derive(Debug)]
pub struct DemandRepositioning {
    /// EWMA decay per batch for the per-cell demand estimate.
    decay: f64,
    /// Number of grid cells per side of the demand map.
    cells_per_side: u32,
    /// Fraction of idle vehicles repositioned each batch.
    reposition_fraction: f64,
    /// Per-cell demand estimate.
    demand: Vec<f64>,
    /// A representative node per cell for repositioning targets (derived
    /// from the network on the first batch).
    cell_anchor: Vec<Option<NodeId>>,
    /// Extra dead-head travel incurred by repositioning moves.
    repositioning_travel: f64,
}

impl DemandRepositioning {
    /// Creates the dispatcher with sensible defaults (32×32 demand map, 0.5
    /// decay, 30 % of idle vehicles repositioned per batch).
    pub fn new() -> Self {
        let cells_per_side = 32;
        DemandRepositioning {
            decay: 0.5,
            cells_per_side,
            reposition_fraction: 0.3,
            demand: vec![0.0; (cells_per_side * cells_per_side) as usize],
            cell_anchor: Vec::new(),
            repositioning_travel: 0.0,
        }
    }

    /// Total dead-head travel caused by repositioning decisions so far.
    pub fn repositioning_travel(&self) -> f64 {
        self.repositioning_travel
    }

    fn init(&mut self, engine: &SpEngine) {
        if !self.cell_anchor.is_empty() {
            return;
        }
        self.cell_anchor = vec![None; self.demand.len()];
        let grid = self.coordinate_grid(engine);
        for node in engine.network().nodes() {
            let p = engine.coord(node);
            let cell = grid.cell_of(p.x, p.y) as usize;
            if self.cell_anchor[cell].is_none() {
                self.cell_anchor[cell] = Some(node);
            }
        }
    }

    fn coordinate_grid(&self, engine: &SpEngine) -> GridIndex {
        let (min_x, min_y, max_x, max_y) = engine.network().bounding_box();
        GridIndex::new(
            min_x,
            min_y,
            max_x.max(min_x + 1.0),
            max_y.max(min_y + 1.0),
            self.cells_per_side,
        )
    }

    /// The cell with the highest demand estimate that has an anchor node.
    fn hottest_cell(&self) -> Option<usize> {
        self.demand
            .iter()
            .enumerate()
            .filter(|(i, _)| self.cell_anchor[*i].is_some())
            .max_by(|a, b| a.1.total_cmp(b.1))
            .filter(|(_, &d)| d > 0.0)
            .map(|(i, _)| i)
    }
}

impl Default for DemandRepositioning {
    fn default() -> Self {
        Self::new()
    }
}

impl Dispatcher for DemandRepositioning {
    fn name(&self) -> &'static str {
        "DARM+DPRS"
    }

    fn dispatch_batch(
        &mut self,
        ctx: &DispatchContext<'_>,
        vehicles: &mut [Vehicle],
        new_requests: &[Request],
    ) -> BatchOutcome {
        let engine = ctx.engine;
        let now = ctx.now;
        self.init(engine);
        let grid = self.coordinate_grid(engine);

        // Update the demand prediction with this batch's origins.
        for d in self.demand.iter_mut() {
            *d *= self.decay;
        }
        for r in new_requests {
            let p = engine.coord(r.source);
            let cell = grid.cell_of(p.x, p.y) as usize;
            self.demand[cell] += 1.0;
        }

        // Greedy matching (cheapest insertion), as in the online baselines;
        // any strictly cheaper vehicle wins, however small the margin.
        let outcome = BatchOutcome {
            assigned: crate::insert_cheapest(ctx, vehicles, new_requests, 0.0),
            solver: None,
        };

        // Reposition a fraction of the idle vehicles toward the hottest cell.
        if let Some(hot) = self.hottest_cell() {
            let target = self.cell_anchor[hot].expect("hot cell has an anchor");
            let mut moved = 0usize;
            let idle_count = vehicles.iter().filter(|v| v.is_idle()).count();
            let budget = ((idle_count as f64) * self.reposition_fraction).ceil() as usize;
            for vehicle in vehicles.iter_mut() {
                if moved >= budget {
                    break;
                }
                if !vehicle.is_idle() || vehicle.node == target {
                    continue;
                }
                let cost = engine.cost(vehicle.node, target);
                if !cost.is_finite() {
                    continue;
                }
                // The dead-head move is executed immediately: the vehicle will
                // be at the hot spot (and unavailable) until it arrives.
                vehicle.executed_travel += cost;
                self.repositioning_travel += cost;
                vehicle.node = target;
                vehicle.free_at = vehicle.free_at.max(now) + cost;
                moved += 1;
            }
        }
        outcome
    }

    fn memory_bytes(&self) -> usize {
        // The demand map and anchors constitute the "model state".
        self.demand.len() * 8 + self.cell_anchor.len() * 8 + std::mem::size_of::<Self>()
    }

    /// The demand estimate is decision-bearing state: a resumed run must
    /// send idle vehicles where the uninterrupted one would.
    fn checkpoint_pending(&self) -> PendingSnapshot {
        PendingSnapshot {
            state: self.demand.clone(),
            ..PendingSnapshot::default()
        }
    }

    fn restore_snapshot(&mut self, snapshot: PendingSnapshot) {
        assert!(snapshot.pool.is_empty(), "DARM holds no pending pool");
        if !snapshot.state.is_empty() {
            // Panics unless the map has one demand per cell.
            self.demand.copy_from_slice(&snapshot.state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, line_engine, req};

    #[test]
    fn matches_requests_like_a_greedy_baseline() {
        let engine = line_engine(10);
        let mut vehicles = vec![Vehicle::new(0, 0, 4), Vehicle::new(1, 9, 4)];
        let mut darm = DemandRepositioning::new();
        let out = darm.dispatch_batch(
            &ctx(&engine, 0.0),
            &mut vehicles,
            &[req(1, 1, 3, 20.0, 2.0)],
        );
        assert_eq!(out.assigned, vec![1]);
        assert!(vehicles[0].schedule.contains_request(1));
    }

    #[test]
    fn repositions_idle_vehicles_toward_demand() {
        let engine = line_engine(10);
        // Vehicle 1 stays idle far from the demand concentrated at node 8.
        let mut vehicles = vec![Vehicle::new(0, 8, 4), Vehicle::new(1, 0, 4)];
        let mut darm = DemandRepositioning::new();
        // Several batches of demand near node 8 that vehicle 0 absorbs.
        for batch in 0..3u32 {
            let r = req(10 + batch, 8, 9, 10.0, 2.0);
            darm.dispatch_batch(&ctx(&engine, batch as f64 * 5.0), &mut vehicles, &[r]);
        }
        // The idle vehicle 1 was eventually pulled toward the hot area and the
        // dead-head travel was accounted for.
        assert!(darm.repositioning_travel() > 0.0);
        assert!(
            vehicles[1].node >= 5,
            "vehicle 1 moved toward the demand hotspot"
        );
        assert!(vehicles[1].executed_travel > 0.0);
    }

    #[test]
    fn no_demand_means_no_repositioning() {
        let engine = line_engine(10);
        let mut vehicles = vec![Vehicle::new(0, 0, 4)];
        let mut darm = DemandRepositioning::new();
        let out = darm.dispatch_batch(&ctx(&engine, 0.0), &mut vehicles, &[]);
        assert!(out.assigned.is_empty());
        assert_eq!(darm.repositioning_travel(), 0.0);
        assert_eq!(vehicles[0].node, 0);
        assert!(darm.memory_bytes() > 0);
    }
}
