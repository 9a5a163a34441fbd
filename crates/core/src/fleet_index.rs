//! The persistent fleet index behind certified candidate retrieval.
//!
//! The paper's §II-B retrieves candidate vehicles with a grid range query
//! instead of scanning the whole fleet.  [`FleetIndex`] keeps that retrieval
//! exact and drops the grid: it holds the fleet as per-slot columns (node
//! coordinates `x` and `y`, `free_at` and `node`), refreshed by the walks
//! that already visit every vehicle ([`FleetIndex::sync`] after the advance
//! sweep, [`FleetIndex::rebuild`] after slots shift), and answers a request
//! with **one dense pass** over them.
//!
//! Why no grid: a range query's radius had to come from the fleet's
//! *minimum* `free_at`, so it covered a large part of the city, and walking
//! its cells cost more than testing every vehicle from contiguous columns in
//! a loop that vectorises.  The pass needs no radius and no fallback sweep
//! for a zero rate or an infinite slack: it is the reference filter itself.
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
//! position — `insert_request` would return `None`.  Any dispatch decision
//! computed over the survivors is therefore **bit-identical** to the
//! full-fleet sweep.  The one-second [`REACH_GRACE`] absorbs floating-point
//! rounding in the schedule-leg summations with a huge margin.
//! [`FleetIndex::screened_candidates`] adds the landmark bound of
//! [`LegBound`] on the euclid survivors, reusing the pass's distances.
//!
//! # Index lifecycle
//!
//! Entries are keyed by **slot index** (position in the caller's vehicle
//! slice), the `vi` every dispatcher sorts and tie-breaks on; survivors come
//! out in ascending slot order.  Dispatch commits change neither `node` nor
//! `free_at`: only the advance sweep, DARM's end-of-batch repositioning and
//! a checkpoint restore write them, each followed by a sync or a rebuild.
//! Debug builds check the columns against the fleet on every query, and
//! [`FleetIndex::check_consistency`] (run by debug builds of the simulators
//! after every batch) compares all four bit for bit.

use structride_model::Vehicle;
use structride_roadnet::{LegBound, NodeId, RoadNetwork};

/// Grace (seconds) added to the pickup deadline when prescreening bidders
/// and candidates by the certified reachability lower bound — the road
/// network's one floating-point grace, under the name this crate has always
/// exported.
pub use structride_roadnet::LOWER_BOUND_GRACE as REACH_GRACE;

/// The fleet's node coordinates, free times and nodes as per-slot columns,
/// plus the cached per-meter travel-time floor of the road network.
#[derive(Debug)]
pub struct FleetIndex {
    x: Vec<f64>,
    y: Vec<f64>,
    free_at: Vec<f64>,
    node: Vec<NodeId>,
    /// `min(free_at)` over the indexed fleet (∞ for an empty fleet).
    free_floor: f64,
    /// Cached [`RoadNetwork::min_time_per_meter`] (an O(E) scan).
    min_tpm: f64,
}

impl FleetIndex {
    /// Builds the index over `vehicles` (keyed by slot position).  `bbox`
    /// and `cells` sized the grid this index no longer keeps and are not
    /// read.
    pub fn build(
        _bbox: (f64, f64, f64, f64),
        _cells: u32,
        network: &RoadNetwork,
        vehicles: &[Vehicle],
    ) -> FleetIndex {
        let mut index = FleetIndex {
            x: Vec::new(),
            y: Vec::new(),
            free_at: Vec::new(),
            node: Vec::new(),
            free_floor: f64::INFINITY,
            min_tpm: network.min_time_per_meter(),
        };
        index.rebuild(network, vehicles);
        index
    }

    /// Re-keys the whole index — required after the vehicle slice was
    /// reordered or resized (idle-vehicle migration removes and pushes
    /// entries, shifting every later slot index; a shard's lane is built
    /// empty and filled this way).
    pub fn rebuild(&mut self, network: &RoadNetwork, vehicles: &[Vehicle]) {
        self.x = vehicles.iter().map(|v| network.coord(v.node).x).collect();
        self.y = vehicles.iter().map(|v| network.coord(v.node).y).collect();
        self.free_at = vehicles.iter().map(|v| v.free_at).collect();
        self.node = vehicles.iter().map(|v| v.node).collect();
        // `free_at` is never NaN, so the fold is the exact minimum.
        self.free_floor = self.free_at.iter().copied().fold(f64::INFINITY, f64::min);
    }

    /// Refreshes the columns after vehicles moved in place (the per-batch
    /// advance sweep, DARM's repositioning).  Slot indices must not have
    /// shifted since the last build/rebuild.
    pub fn sync(&mut self, network: &RoadNetwork, vehicles: &[Vehicle]) {
        debug_assert_eq!(self.len(), vehicles.len(), "slot count drifted");
        self.rebuild(network, vehicles);
    }

    /// Number of indexed vehicles.
    pub fn len(&self) -> usize {
        self.node.len()
    }

    /// True when no vehicle is indexed.
    pub fn is_empty(&self) -> bool {
        self.node.is_empty()
    }

    /// `min(free_at)` over the indexed fleet, as of the last build/sync.
    /// Retrieval does not read it; the repo benchmark's grid kernel does.
    pub fn free_floor(&self) -> f64 {
        self.free_floor
    }

    /// The cached certified travel-time-per-meter floor of the network.
    pub fn min_time_per_meter(&self) -> f64 {
        self.min_tpm
    }

    /// Replaces the cached travel-time-per-meter floor — called at a traffic
    /// epoch boundary with the epoch's certified rate, so the reachability
    /// certificate keeps holding under the epoch's travel times.  Passing a
    /// rate that is not a true per-meter lower bound of the current travel
    /// times would break prescreen soundness; the simulators only ever pass
    /// `SpEngine::min_time_per_meter()`, the epoch's own certified rate.
    pub fn set_min_time_per_meter(&mut self, rate: f64) {
        self.min_tpm = rate;
    }

    /// The certified candidate set for a pickup at `(x, y)` with the given
    /// deadline: every slot whose vehicle could possibly reach the pickup in
    /// time (see the module docs), in ascending slot order.  A pure function
    /// of the fleet and the arguments, so a replay that rebuilds the index
    /// from a fleet snapshot reproduces the recorded prescreen counters.
    pub fn certified_candidates(
        &self,
        network: &RoadNetwork,
        vehicles: &[Vehicle],
        x: f64,
        y: f64,
        deadline: f64,
    ) -> Vec<usize> {
        if cfg!(debug_assertions) {
            self.check_consistency(network, vehicles);
        }
        self.scan(x, y, deadline).0
    }

    /// [`FleetIndex::certified_candidates`] for a pickup at node `pickup`,
    /// with the landmark screen fused in: a survivor stays only when
    /// `free_at + bound.lower_bound(node, pickup) ≤ deadline + grace`,
    /// computed by [`LegBound::lower_bound_with_distance`] on the distance
    /// the pass already holds (the same bits).
    pub fn screened_candidates(
        &self,
        network: &RoadNetwork,
        vehicles: &[Vehicle],
        bound: &LegBound<'_>,
        pickup: NodeId,
        deadline: f64,
    ) -> Vec<usize> {
        if cfg!(debug_assertions) {
            self.check_consistency(network, vehicles);
        }
        let p = network.coord(pickup);
        let (mut survivors, dist) = self.scan(p.x, p.y, deadline);
        survivors.retain(|&slot| {
            let lb = bound.lower_bound_with_distance(self.node[slot], pickup, dist[slot]);
            self.free_at[slot] + lb <= deadline + REACH_GRACE
        });
        survivors
    }

    /// The euclid certificate over every slot: the survivors in ascending
    /// slot order, and the distance column they were tested with.
    fn scan(&self, x: f64, y: f64, deadline: f64) -> (Vec<usize>, Vec<f64>) {
        // Distances first, in a loop with no branch and no push, so it
        // vectorises; `vx − x` is `Point::distance`'s operand order.
        let dist: Vec<f64> = (self.x.iter().zip(&self.y))
            .map(|(&vx, &vy)| ((vx - x) * (vx - x) + (vy - y) * (vy - y)).sqrt())
            .collect();
        // Then a branch-free compaction: each slot is written at the cursor,
        // which only moves past a survivor.
        let mut survivors = vec![0; dist.len()];
        let mut kept = 0;
        for (slot, (&free_at, &d)) in self.free_at.iter().zip(&dist).enumerate() {
            survivors[kept] = slot;
            kept += usize::from(free_at + self.min_tpm * d <= deadline + REACH_GRACE);
        }
        survivors.truncate(kept);
        (survivors, dist)
    }

    /// Asserts the index ↔ fleet invariant: one entry per slot whose four
    /// columns equal the vehicle's node coordinates, `free_at` and node bit
    /// for bit, and a free floor equal to the fleet minimum.  Called by the
    /// simulators after every batch in debug builds.
    pub fn check_consistency(&self, network: &RoadNetwork, vehicles: &[Vehicle]) {
        assert_eq!(self.len(), vehicles.len(), "fleet index length drifted");
        for (slot, v) in vehicles.iter().enumerate() {
            let p = network.coord(v.node);
            let at = (
                self.node[slot],
                self.x[slot].to_bits(),
                self.y[slot].to_bits(),
            );
            let want = (v.node, p.x.to_bits(), p.y.to_bits());
            assert_eq!(at, want, "slot {slot} (vehicle {}) is indexed away", v.id);
            let stale = self.free_at[slot].to_bits() != v.free_at.to_bits();
            assert!(!stale, "slot {slot} (vehicle {}) has a stale free_at", v.id);
        }
        let floor = vehicles
            .iter()
            .map(|v| v.free_at)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(
            self.free_floor.to_bits(),
            floor.to_bits(),
            "free floor drifted"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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

    /// The reference for the certified set: the certificate applied to every
    /// vehicle directly, through `Point::distance`.
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

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The dense scan equals the reference filter on random fleets: after
        /// a build, after a sync that moves vehicles and changes `free_at`,
        /// and for an index built empty and then rebuilt (the shard path).
        /// The draws cover a zero rate, never-free vehicles (`free_at = ∞`),
        /// deadlines earlier than every `free_at`, empty fleets and vehicles
        /// sharing a node.
        #[test]
        fn the_dense_scan_equals_the_reference_filter(
            seed in 0u64..1_000_000,
            len in 0usize..40,
        ) {
            let net = line_network(30);
            let mut gen = proptest::Gen::new(seed);
            let draw_fleet = |gen: &mut proptest::Gen| -> Vec<Vehicle> {
                (0..len)
                    .map(|i| {
                        // Half the fleet stands on the first three nodes.
                        let range = if gen.next_f64() < 0.5 { 3 } else { 30 };
                        let mut v = Vehicle::new(i as u32, gen.usize_in(0, range) as u32, 4);
                        v.free_at = if gen.next_f64() < 0.1 {
                            f64::INFINITY
                        } else {
                            100.0 + gen.next_f64() * 1000.0
                        };
                        v
                    })
                    .collect()
            };
            let rate = if gen.next_f64() < 0.25 { 0.0 } else { net.min_time_per_meter() };
            let check = |index: &FleetIndex, vehicles: &[Vehicle], gen: &mut proptest::Gen| {
                for _ in 0..8 {
                    let p = net.coord(gen.usize_in(0, 30) as u32);
                    // Some deadlines precede every finite free time.
                    let deadline = gen.next_f64() * 1500.0 - 50.0;
                    let got = index.certified_candidates(&net, vehicles, p.x, p.y, deadline);
                    prop_assert_eq!(got, brute_force(&net, vehicles, rate, p.x, p.y, deadline));
                }
            };
            let vehicles = draw_fleet(&mut gen);
            let mut index = index_for(&net, &vehicles);
            index.set_min_time_per_meter(rate);
            check(&index, &vehicles, &mut gen);

            let moved = draw_fleet(&mut gen);
            index.sync(&net, &moved);
            check(&index, &moved, &mut gen);

            let mut shard = index_for(&net, &[]);
            prop_assert!(shard.is_empty());
            shard.set_min_time_per_meter(rate);
            shard.rebuild(&net, &moved);
            check(&shard, &moved, &mut gen);
        }
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

    #[test]
    #[should_panic(expected = "stale free_at")]
    fn consistency_check_catches_a_stale_free_time() {
        let net = line_network(10);
        let mut vehicles = fleet(&net, &[2, 6]);
        let index = index_for(&net, &vehicles);
        // DARM's repositioning shape, without the sync that follows it.
        vehicles[1].free_at += 30.0;
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

    /// On a star of equal arms, tips that are no landmark differ from every
    /// landmark by the same amount, so `lb = 0` between them and only the
    /// fused bound's euclid term, on the scan's distance, can reject.
    #[test]
    fn the_fused_screen_rejects_on_the_scan_distance() {
        let mut b = RoadNetworkBuilder::new();
        let hub = b.add_node(Point::new(0.0, 0.0));
        for k in 0..12 {
            let angle = k as f64 * std::f64::consts::PI / 6.0;
            let tip = b.add_node(Point::new(100.0 * angle.cos(), 100.0 * angle.sin()));
            b.add_bidirectional(hub, tip, 10.0).unwrap();
        }
        let engine = structride_roadnet::SpEngine::new(b.build().unwrap());
        let (net, bound) = (engine.network(), engine.leg_bound());
        assert_eq!(bound.landmarks().lower_bound(8, 11), 0.0);
        // 141, 100, 52 and 52 m from tip 11; free at 0, 1, 2 and 3 s.
        let vehicles = fleet(net, &[8, 9, 10, 12]);
        let mut index = index_for(net, &vehicles);
        index.set_min_time_per_meter(0.0);
        let p = net.coord(11);
        let euclid = index.certified_candidates(net, &vehicles, p.x, p.y, 7.0);
        assert_eq!(euclid.len(), 4);
        let screened = index.screened_candidates(net, &vehicles, &bound, 11, 7.0);
        assert_eq!(screened, vec![2, 3]);
    }

    #[test]
    fn zero_rate_networks_still_prune_on_free_at() {
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
