//! The persistent fleet index behind certified candidate retrieval.
//!
//! The paper's §II-B retrieves candidate vehicles for a request with a grid
//! range query instead of scanning the whole fleet.  [`FleetIndex`] is that
//! structure made *persistent*: a [`GridIndex`] over the current vehicle
//! positions, built **once per run** and updated incrementally as vehicles
//! advance, commit schedules, hand off or migrate — retiring the
//! grid-rebuild-per-batch of the earlier pipelines.
//!
//! The grid is sized from the fleet it indexes, at every build and rebuild:
//! `⌈√n⌉` cells per side for `n` vehicles — about one vehicle per cell — with
//! the caller's `cells` only a cap.  A range query's cost is the cells it
//! touches plus the vehicles in them, so a fixed fine grid over a small fleet
//! spends most of each query on empty cells.  Granularity changes no result:
//! the certified set is sorted by slot and every shortlist ranks by a total
//! order (see [`FleetIndex::certified_candidates`]).
//!
//! # The reachability certificate
//!
//! A vehicle is kept for a request only when its certified lower bound on
//! pickup arrival meets the deadline:
//!
//! ```text
//! free_at + min_time_per_meter × euclid(vehicle, pickup) ≤ deadline + grace
//! ```
//!
//! [`RoadNetwork::min_time_per_meter`] guarantees `cost(u, v) ≥
//! min_time_per_meter × euclid(u, v)` in exact arithmetic, and every
//! insertion position's pickup-arrival time is `≥ free_at + cost(node,
//! pickup)` (schedule legs are shortest paths, so the triangle inequality
//! applies), so a vehicle failing the bound provably fails *every* insertion
//! position — `insert_request` would return `None`.  The surviving set is
//! therefore exactly the feasible-relevant subset of the full scan, and any
//! dispatch decision computed over it is **bit-identical** to the full-fleet
//! sweep.  The one-second [`REACH_GRACE`] absorbs floating-point rounding in
//! the schedule-leg summations with a huge margin (the exact-arithmetic
//! slack is `TIME_EPS`-sized).
//!
//! The same certificate bounds the *radius* of the grid range query: every
//! survivor satisfies `euclid ≤ (deadline + grace − free_floor) /
//! min_time_per_meter` where `free_floor = min(free_at)` over the fleet, so
//! one range query at that radius followed by the per-vehicle bound check
//! returns the complete surviving set.
//!
//! # Index lifecycle
//!
//! Entries are keyed by **slot index** (position in the caller's vehicle
//! slice), matching the `vi` indices every dispatcher already sorts and
//! tie-breaks on.  [`FleetIndex::sync`] refreshes positions and the free
//! floor after the per-batch advance sweep (a no-op relocation is skipped);
//! [`FleetIndex::rebuild`] re-keys from scratch after operations that shift
//! slot indices (idle-vehicle migration removes/pushes slice entries).
//! [`FleetIndex::check_consistency`] asserts the index ↔ fleet invariant and
//! is run by debug builds of the simulators after every batch.

use structride_model::Vehicle;
use structride_roadnet::RoadNetwork;
use structride_spatial::GridIndex;

/// Grace (seconds) added to the pickup deadline when prescreening bidders
/// and candidates by the certified reachability lower bound — the road
/// network's one floating-point grace, under the name this crate has always
/// exported.
pub use structride_roadnet::LOWER_BOUND_GRACE as REACH_GRACE;

/// A persistent spatial index over the fleet's current positions plus the
/// cached per-meter travel-time floor of the road network.
#[derive(Debug)]
pub struct FleetIndex {
    grid: GridIndex,
    bbox: (f64, f64, f64, f64),
    /// Cap on the grid's cells per side.
    max_cells: u32,
    /// `min(free_at)` over the indexed fleet (∞ for an empty fleet).
    free_floor: f64,
    /// Cached [`RoadNetwork::min_time_per_meter`] (an O(E) scan).
    min_tpm: f64,
}

impl FleetIndex {
    /// Builds the index over `vehicles` (keyed by slot position) inside the
    /// given bounding box, on a grid of about one vehicle per cell with at
    /// most `cells` cells per side (see the module docs).  `bbox` must be
    /// non-degenerate (use [`structride_spatial::RegionGrid::padded_bbox`]).
    pub fn build(
        bbox: (f64, f64, f64, f64),
        cells: u32,
        network: &RoadNetwork,
        vehicles: &[Vehicle],
    ) -> FleetIndex {
        let mut index = FleetIndex {
            // Replaced by `rebuild`, which sizes the grid for `vehicles`.
            grid: GridIndex::new(bbox.0, bbox.1, bbox.2, bbox.3, 1),
            bbox,
            max_cells: cells.max(1),
            free_floor: f64::INFINITY,
            min_tpm: network.min_time_per_meter(),
        };
        index.rebuild(network, vehicles);
        index
    }

    /// Re-keys the whole index on a grid sized for `vehicles` — required
    /// after the vehicle slice was reordered or resized (idle-vehicle
    /// migration removes and pushes entries, shifting every later slot
    /// index; a shard's lane is built empty and filled this way).
    pub fn rebuild(&mut self, network: &RoadNetwork, vehicles: &[Vehicle]) {
        let side = ((vehicles.len() as f64).sqrt().ceil() as u32).clamp(1, self.max_cells);
        let (min_x, min_y, max_x, max_y) = self.bbox;
        self.grid = GridIndex::new(min_x, min_y, max_x, max_y, side);
        let mut floor = f64::INFINITY;
        for (slot, vehicle) in vehicles.iter().enumerate() {
            let p = network.coord(vehicle.node);
            self.grid.insert(slot as u64, p.x, p.y);
            if vehicle.free_at < floor {
                floor = vehicle.free_at;
            }
        }
        self.free_floor = floor;
    }

    /// Refreshes positions and the free floor after vehicles moved in place
    /// (the per-batch advance sweep, post-dispatch commits).  Slot indices
    /// must not have shifted since the last build/rebuild; relocations whose
    /// coordinates are unchanged are skipped.
    pub fn sync(&mut self, network: &RoadNetwork, vehicles: &[Vehicle]) {
        debug_assert_eq!(self.grid.len(), vehicles.len(), "slot count drifted");
        let mut floor = f64::INFINITY;
        for (slot, vehicle) in vehicles.iter().enumerate() {
            let p = network.coord(vehicle.node);
            if self.grid.location(slot as u64) != Some((p.x, p.y)) {
                self.grid.insert(slot as u64, p.x, p.y);
            }
            if vehicle.free_at < floor {
                floor = vehicle.free_at;
            }
        }
        self.free_floor = floor;
    }

    /// Number of indexed vehicles.
    pub fn len(&self) -> usize {
        self.grid.len()
    }

    /// True when no vehicle is indexed.
    pub fn is_empty(&self) -> bool {
        self.grid.is_empty()
    }

    /// `min(free_at)` over the indexed fleet, as of the last build/sync.
    pub fn free_floor(&self) -> f64 {
        self.free_floor
    }

    /// The cached certified travel-time-per-meter floor of the network.
    pub fn min_time_per_meter(&self) -> f64 {
        self.min_tpm
    }

    /// Replaces the cached travel-time-per-meter floor — called at a traffic
    /// epoch boundary with the rate recomputed over the **reweighted**
    /// network, so the reachability certificate keeps holding exactly under
    /// the epoch's weights.  Passing a rate that is not a true per-meter
    /// lower bound of the current weights would break prescreen soundness;
    /// the simulators only ever pass
    /// `SpEngine::min_time_per_meter()`, which is recomputed from the
    /// epoch's own network.
    pub fn set_min_time_per_meter(&mut self, rate: f64) {
        self.min_tpm = rate;
    }

    /// The certified candidate set for a pickup at `(x, y)` with the given
    /// deadline: every slot whose vehicle could possibly reach the pickup in
    /// time (see the module docs), in ascending slot order.
    ///
    /// The result is a pure function of the vehicle positions/free times and
    /// the arguments — independent of grid granularity and insertion
    /// history — which is what lets a replay rebuild the index from a fleet
    /// snapshot and reproduce the recorded prescreen counters exactly.
    pub fn certified_candidates(
        &self,
        network: &RoadNetwork,
        vehicles: &[Vehicle],
        x: f64,
        y: f64,
        deadline: f64,
    ) -> Vec<usize> {
        debug_assert_eq!(self.grid.len(), vehicles.len(), "index out of sync");
        let pickup = structride_roadnet::Point::new(x, y);
        let keep = |vehicle: &Vehicle| {
            let lb = self.min_tpm * network.coord(vehicle.node).distance(&pickup);
            vehicle.free_at + lb <= deadline + REACH_GRACE
        };
        let mut survivors: Vec<usize> = Vec::new();
        let slack = deadline + REACH_GRACE - self.free_floor;
        if self.min_tpm <= 0.0 || !slack.is_finite() {
            // No useful radius bound: fall back to the full prescreen sweep
            // (with `min_tpm == 0` the bound still prunes on `free_at`).
            survivors.extend(
                vehicles
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| keep(v))
                    .map(|(slot, _)| slot),
            );
            return survivors;
        }
        if slack < 0.0 {
            // Even the freest vehicle teleported to the pickup is late.
            return survivors;
        }
        self.grid
            .for_each_in_range(x, y, slack / self.min_tpm, |slot| {
                if keep(&vehicles[slot as usize]) {
                    survivors.push(slot as usize);
                }
            });
        survivors.sort_unstable();
        survivors
    }

    /// Asserts the index ↔ fleet invariant: one entry per slot, located at
    /// the vehicle's current node coordinates, and a free floor equal to the
    /// fleet minimum.  Called by the simulators after every batch in debug
    /// builds.
    pub fn check_consistency(&self, network: &RoadNetwork, vehicles: &[Vehicle]) {
        assert_eq!(
            self.grid.len(),
            vehicles.len(),
            "fleet index holds {} entries for {} vehicles",
            self.grid.len(),
            vehicles.len()
        );
        let mut floor = f64::INFINITY;
        for (slot, vehicle) in vehicles.iter().enumerate() {
            let p = network.coord(vehicle.node);
            assert_eq!(
                self.grid.location(slot as u64),
                Some((p.x, p.y)),
                "slot {slot} (vehicle {}) is indexed away from its node",
                vehicle.id
            );
            if vehicle.free_at < floor {
                floor = vehicle.free_at;
            }
        }
        assert_eq!(
            self.free_floor.to_bits(),
            floor.to_bits(),
            "free floor drifted from the fleet minimum"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use structride_roadnet::{Point, RoadNetworkBuilder};
    use structride_spatial::RegionGrid;

    fn line_network(n: u32) -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..n {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 1..n {
            b.add_bidirectional(i - 1, i, 50.0).unwrap();
        }
        b.build().unwrap()
    }

    fn fleet(net: &RoadNetwork, nodes: &[u32]) -> Vec<Vehicle> {
        nodes
            .iter()
            .enumerate()
            .map(|(i, &node)| {
                assert!((node as usize) < net.node_count());
                let mut v = Vehicle::new(i as u32, node, 4);
                v.free_at = i as f64;
                v
            })
            .collect()
    }

    fn index_for(net: &RoadNetwork, vehicles: &[Vehicle]) -> FleetIndex {
        FleetIndex::build(
            RegionGrid::padded_bbox(net.bounding_box()),
            16,
            net,
            vehicles,
        )
    }

    /// Brute-force reference for the certified set: the bound applied to
    /// every vehicle directly.
    fn brute_force(
        net: &RoadNetwork,
        vehicles: &[Vehicle],
        min_tpm: f64,
        x: f64,
        y: f64,
        deadline: f64,
    ) -> Vec<usize> {
        vehicles
            .iter()
            .enumerate()
            .filter(|(_, v)| {
                let lb = min_tpm * net.coord(v.node).distance(&Point::new(x, y));
                v.free_at + lb <= deadline + REACH_GRACE
            })
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn certified_candidates_match_the_brute_force_sweep() {
        let net = line_network(30);
        let vehicles = fleet(&net, &[0, 3, 7, 12, 18, 25, 29, 2, 14, 22]);
        let index = index_for(&net, &vehicles);
        let min_tpm = net.min_time_per_meter();
        assert!(min_tpm > 0.0);
        for target in [0u32, 5, 15, 29] {
            let p = net.coord(target);
            for deadline in [0.5, 30.0, 200.0, 2000.0] {
                let got = index.certified_candidates(&net, &vehicles, p.x, p.y, deadline);
                let want = brute_force(&net, &vehicles, min_tpm, p.x, p.y, deadline);
                assert_eq!(got, want, "target {target} deadline {deadline}");
            }
        }
        // A generous deadline keeps everyone; a hopeless one keeps no one.
        let p = net.coord(15);
        assert_eq!(
            index
                .certified_candidates(&net, &vehicles, p.x, p.y, 1.0e9)
                .len(),
            vehicles.len()
        );
        assert!(index
            .certified_candidates(&net, &vehicles, p.x, p.y, -10.0)
            .is_empty());
    }

    /// The certified set does not depend on grid granularity: every cap,
    /// before and after a sync that moves vehicles and changes `free_at`,
    /// and for an index built empty and then rebuilt (the shard path).
    #[test]
    fn certified_candidates_are_independent_of_the_cell_cap() {
        let net = line_network(30);
        let bbox = RegionGrid::padded_bbox(net.bounding_box());
        let min_tpm = net.min_time_per_meter();
        let mut vehicles = fleet(&net, &[0, 3, 7, 12, 18, 25, 29, 2, 14, 22, 9, 9]);
        let check = |index: &FleetIndex, vehicles: &[Vehicle], label: &str| {
            index.check_consistency(&net, vehicles);
            for target in [0u32, 5, 15, 29] {
                let p = net.coord(target);
                for deadline in [0.5, 30.0, 200.0, 2000.0] {
                    let got = index.certified_candidates(&net, vehicles, p.x, p.y, deadline);
                    let want = brute_force(&net, vehicles, min_tpm, p.x, p.y, deadline);
                    assert_eq!(got, want, "{label}: target {target} deadline {deadline}");
                }
            }
        };
        for cap in [1, 2, 16, 64] {
            let mut index = FleetIndex::build(bbox, cap, &net, &vehicles);
            check(&index, &vehicles, &format!("cap {cap}, built"));

            let mut moved = vehicles.clone();
            for (i, v) in moved.iter_mut().enumerate() {
                v.node = (v.node + 7 * i as u32) % 30;
                v.free_at = (i * 37 % 11) as f64 * 9.0;
            }
            index.sync(&net, &moved);
            check(&index, &moved, &format!("cap {cap}, synced"));

            let mut shard = FleetIndex::build(bbox, cap, &net, &[]);
            assert!(shard.is_empty());
            shard.rebuild(&net, &moved);
            check(&shard, &moved, &format!("cap {cap}, rebuilt"));
        }
        vehicles.truncate(1);
        let index = FleetIndex::build(bbox, 64, &net, &vehicles);
        check(&index, &vehicles, "one vehicle");
    }

    #[test]
    fn sync_tracks_moves_and_free_floor() {
        let net = line_network(20);
        let mut vehicles = fleet(&net, &[1, 5, 9]);
        let mut index = index_for(&net, &vehicles);
        index.check_consistency(&net, &vehicles);
        assert_eq!(index.free_floor(), 0.0);

        vehicles[0].node = 17;
        vehicles[0].free_at = 42.0;
        vehicles[2].free_at = 0.25;
        index.sync(&net, &vehicles);
        index.check_consistency(&net, &vehicles);
        assert_eq!(index.free_floor(), 0.25);
        // Only the moved vehicle, now standing on the pickup, makes a
        // deadline equal to its new free time.
        let p = net.coord(17);
        let near = index.certified_candidates(&net, &vehicles, p.x, p.y, 42.0);
        assert_eq!(near, vec![0]);
    }

    #[test]
    fn rebuild_rekeys_after_slice_reordering() {
        let net = line_network(20);
        let mut vehicles = fleet(&net, &[1, 5, 9, 13]);
        let mut index = index_for(&net, &vehicles);
        // Migration shape: remove a middle entry, push it at the back.
        let migrated = vehicles.remove(1);
        vehicles.push(migrated);
        index.rebuild(&net, &vehicles);
        index.check_consistency(&net, &vehicles);
        assert_eq!(index.len(), 4);
    }

    #[test]
    #[should_panic(expected = "indexed away")]
    fn consistency_check_catches_a_stale_position() {
        let net = line_network(10);
        let mut vehicles = fleet(&net, &[2, 6]);
        let index = index_for(&net, &vehicles);
        vehicles[1].node = 8; // moved without sync
        index.check_consistency(&net, &vehicles);
    }

    /// Satellite: prescreen soundness under congestion.  When an epoch roll
    /// scales travel times up and `min_time_per_meter` tightens with the
    /// reweighted network, no vehicle that can actually make the pickup
    /// deadline (by true shortest-path time under the new weights) may ever
    /// be pruned by the certified prescreen.
    #[test]
    fn tightened_rate_never_prunes_a_feasible_candidate() {
        let base = line_network(30);
        let vehicles = fleet(&base, &[0, 3, 7, 12, 18, 25, 29, 2, 14, 22]);
        let mut index = index_for(&base, &vehicles);
        // A deterministic pseudo-random walk over epoch multipliers,
        // including spatially varying ones (a congestion box on the west
        // half of the line).
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..40 {
            let uniform = 1.0 + next() * 1.5;
            let west_extra = 1.0 + next() * 2.0;
            let epoch_net = base.reweighted(|from, to| {
                let mid_x = (from.x + to.x) * 0.5;
                if mid_x < 1500.0 {
                    uniform * west_extra
                } else {
                    uniform
                }
            });
            // The epoch-boundary update: the rate recomputed over the
            // reweighted network, exactly as the simulators do it.
            index.set_min_time_per_meter(epoch_net.min_time_per_meter());
            let target = (next() * 30.0) as u32 % 30;
            let deadline = next() * 400.0;
            let p = epoch_net.coord(target);
            let survivors = index.certified_candidates(&epoch_net, &vehicles, p.x, p.y, deadline);
            // Reference: true feasibility under the epoch's weights.
            let arrivals = structride_roadnet::dijkstra::sssp_reverse(&epoch_net, target);
            for (slot, vehicle) in vehicles.iter().enumerate() {
                let feasible = vehicle.free_at + arrivals[vehicle.node as usize] <= deadline;
                if feasible {
                    assert!(
                        survivors.contains(&slot),
                        "feasible slot {slot} pruned (deadline {deadline}, target {target})"
                    );
                }
            }
            // And the survivors still match the brute-force bound sweep.
            let want = brute_force(
                &epoch_net,
                &vehicles,
                epoch_net.min_time_per_meter(),
                p.x,
                p.y,
                deadline,
            );
            assert_eq!(survivors, want);
        }
    }

    #[test]
    fn zero_rate_networks_fall_back_to_the_free_at_sweep() {
        // Two coincident nodes: no positive-length edge, min_tpm == 0.
        let mut b = RoadNetworkBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(0.0, 0.0));
        b.add_edge(0, 1, 5.0).unwrap();
        let net = b.build().unwrap();
        assert_eq!(net.min_time_per_meter(), 0.0);
        let mut vehicles = fleet(&net, &[0, 1]);
        vehicles[1].free_at = 100.0;
        let index = index_for(&net, &vehicles);
        let got = index.certified_candidates(&net, &vehicles, 0.0, 0.0, 10.0);
        assert_eq!(got, vec![0], "late vehicle pruned on free_at alone");
    }
}
