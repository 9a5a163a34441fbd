//! A cross-batch memo of `(request, vehicle)` candidate scores.
//!
//! SARD builds a candidate queue for every *pooled* request in every batch
//! (Alg. 3, lines 4–6), and the exact dispatcher rebuilds its cost matrix
//! once per LAP round, both through one scoring pass,
//! [`DispatchContext::score_pool`](crate::DispatchContext::score_pool).
//! The pool carries over between batches, while a vehicle's insertion inputs
//! change only when it commits a schedule or executes a stop.  So most pairs
//! a batch scores were already scored, with the same inputs, by an earlier
//! batch or round.  [`ScoreMemo`] keeps those results: whether the exact
//! pickup cost passed the certified prescreen, and the `added_cost` of the
//! best insertion (or `None` when no insertion is feasible).
//!
//! # Exact inputs, not version stamps
//!
//! Both values are pure functions of the vehicle's `node`, `free_at`,
//! `onboard`, `capacity` and planned schedule, of the request, and of the
//! traffic epoch the engine serves.  Each vehicle's row keeps one copy of
//! those vehicle inputs plus the epoch next to its scores, and every scoring
//! pass compares them exactly — floats by bit pattern, way-points field by
//! field — once per vehicle before it reads a score.  When they no longer
//! match, the row takes the new inputs and drops every score computed from
//! the old ones.  Nothing outside the memo has to announce a change: code
//! outside `structride_model::vehicle` writes `Vehicle`'s public fields
//! directly (DARM's repositioning, checkpoint and trace restore), and a
//! missed announcement would silently change a decision.  A hit therefore
//! returns the bits a fresh computation would, under any interleaving of
//! workers.
//!
//! A request is keyed by its id: within one memo an id must always name the
//! same request, which holds for every pipeline (ids are unique per
//! workload) and for a replay of one trace.
//!
//! # Lifetime
//!
//! Each `Lane` owns one memo and attaches it to every batch's context;
//! `replay_trace` lends one memo to the fresh lane of every recorded batch.
//! After each batch, [`ScoreMemo::evict_unseen`] drops every score that the
//! batch neither read nor wrote, so the memo tracks the live pool; the rows
//! follow the fleet of the last pass.
//!
//! # The hit path
//!
//! Scoring makes about a million lookups per simulated day on the
//! benchmark's cities, most of them hits.  A scoring pass takes the memo's
//! one lock once and validates the whole fleet in O(fleet); its workers
//! then read the per-vehicle rows, kept in fleet order, with no lock, so a
//! hit costs one map probe and a relaxed store of its `seen` bit.  Fresh scores are
//! merged when the pass ends, in request order, so a score stored in one
//! pass is visible from the next on.  The maps hash with a small in-tree
//! multiply-rotate hasher instead of SipHash: their keys are in-process
//! `u32` ids, and nothing observes their iteration order.  The telemetry
//! counters are bumped once per pass.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use structride_model::{RequestId, Vehicle, VehicleId, Waypoint};
use structride_roadnet::NodeId;

/// A multiply-rotate hasher for the memo's id-keyed maps: SipHash's flood
/// resistance buys nothing against keys the process assigns itself.
#[derive(Debug, Default, Clone, Copy)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(byte.into());
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The memoized score of one `(request, vehicle)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Score {
    /// Whether the exact pickup cost passed the certified prescreen; `None`
    /// when the scoring pass had no prescreen.
    pub(crate) reachable: Option<bool>,
    /// Added cost of the best feasible insertion; `None` when no insertion
    /// is feasible or the prescreen rejected the pair before trying.
    pub(crate) added_cost: Option<f64>,
}

/// The inputs a vehicle's scores were computed from.
#[derive(Debug)]
struct Inputs {
    node: NodeId,
    free_at: f64,
    onboard: u32,
    capacity: u32,
    epoch: u64,
    schedule: Vec<Waypoint>,
}

impl Inputs {
    fn of(vehicle: &Vehicle, epoch: u64) -> Self {
        Inputs {
            node: vehicle.node,
            free_at: vehicle.free_at,
            onboard: vehicle.onboard,
            capacity: vehicle.capacity,
            epoch,
            schedule: vehicle.schedule.waypoints().to_vec(),
        }
    }

    fn matches(&self, vehicle: &Vehicle, epoch: u64) -> bool {
        let same = |a: &Waypoint, b: &Waypoint| {
            a.request == b.request
                && a.node == b.node
                && a.kind == b.kind
                && a.deadline.to_bits() == b.deadline.to_bits()
                && a.earliest.to_bits() == b.earliest.to_bits()
                && a.riders == b.riders
        };
        let schedule = vehicle.schedule.waypoints();
        self.node == vehicle.node
            && self.free_at.to_bits() == vehicle.free_at.to_bits()
            && self.onboard == vehicle.onboard
            && self.capacity == vehicle.capacity
            && self.epoch == epoch
            && self.schedule.len() == schedule.len()
            && self.schedule.iter().zip(schedule).all(|(a, b)| same(a, b))
    }
}

/// A [`Score`] as stored (16 bytes): `NaN` stands for no added cost (travel
/// times are never `NaN`).
#[derive(Debug)]
struct Entry {
    added_cost: f64,
    reachable: Option<bool>,
    /// The batch parity of the last read or write; a lookup sets it through
    /// a shared borrow, from any worker.
    seen: AtomicBool,
}

/// One vehicle's row: the inputs its scores were computed from, and the
/// scores, keyed by request.
#[derive(Debug)]
struct Row {
    vehicle: VehicleId,
    inputs: Inputs,
    scores: IdMap<RequestId, Entry>,
}

/// Everything the memo holds, behind its one lock.
#[derive(Debug, Default)]
struct Table {
    /// One row per vehicle of the last validated fleet, by fleet position.
    rows: Vec<Row>,
    /// Flips at every [`ScoreMemo::evict_unseen`].  Entries read or written
    /// in the current batch carry it; every other entry still present was
    /// last touched in the previous batch (eviction removed anything older),
    /// so one bit tells the two apart.
    parity: bool,
    lookups: u64,
    hits: u64,
}

/// A cross-batch memo of candidate scores; see the module docs.
#[derive(Debug, Default)]
pub struct ScoreMemo {
    table: Mutex<Table>,
}

impl ScoreMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    fn table(&self) -> MutexGuard<'_, Table> {
        self.table.lock().expect("score memo poisoned")
    }

    /// Lookups made so far (telemetry; counts every pair looked up, booked
    /// when its scoring pass ends).
    pub fn lookups(&self) -> u64 {
        self.table().lookups
    }

    /// Lookups answered from the memo so far (telemetry, booked like
    /// [`ScoreMemo::lookups`]).
    pub fn hits(&self) -> u64 {
        self.table().hits
    }

    /// Opens a scoring pass over `vehicles` under traffic epoch `epoch`.
    /// The rows are laid out in fleet order (a vehicle new to the memo gets
    /// an empty row; one that left the fleet loses its row), and a vehicle
    /// whose inputs differ from its row's copy drops the row's scores and
    /// takes the new inputs.  The pass holds the memo's lock until
    /// [`Pass::merge`] ends it, so passes on one memo run one at a time.
    pub(crate) fn pass(&self, vehicles: &[Vehicle], epoch: u64) -> Pass<'_> {
        let mut table = self.table();
        let laid_out = table.rows.len() == vehicles.len()
            && table
                .rows
                .iter()
                .zip(vehicles)
                .all(|(row, v)| row.vehicle == v.id);
        if !laid_out {
            let mut rows: IdMap<VehicleId, Row> =
                table.rows.drain(..).map(|row| (row.vehicle, row)).collect();
            table.rows = vehicles
                .iter()
                .map(|v| {
                    rows.remove(&v.id).unwrap_or_else(|| Row {
                        vehicle: v.id,
                        inputs: Inputs::of(v, epoch),
                        scores: IdMap::default(),
                    })
                })
                .collect();
        }
        for (row, vehicle) in table.rows.iter_mut().zip(vehicles) {
            if !row.inputs.matches(vehicle, epoch) {
                row.inputs = Inputs::of(vehicle, epoch);
                row.scores.clear();
            }
        }
        Pass(table)
    }

    /// Ends a batch: drops every score the batch neither read nor wrote.
    pub fn evict_unseen(&mut self) {
        let table = self.table.get_mut().expect("score memo poisoned");
        let parity = table.parity;
        for row in &mut table.rows {
            row.scores
                .retain(|_, entry| *entry.seen.get_mut() == parity);
        }
        table.parity = !parity;
    }
}

/// One scoring pass: the memo validated against one fleet, locked until
/// [`Pass::merge`].  Workers share it to look scores up without a lock.
pub(crate) struct Pass<'m>(MutexGuard<'m, Table>);

impl Pass<'_> {
    /// The memoized score of `request` on the vehicle at fleet position
    /// `slot`, if its row holds one that, when `screened` asks for it,
    /// records the prescreen's verdict.
    pub(crate) fn get(&self, slot: usize, request: RequestId, screened: bool) -> Option<Score> {
        let entry = self.0.rows[slot].scores.get(&request)?;
        entry.seen.store(self.0.parity, Ordering::Relaxed);
        if screened && entry.reachable.is_none() {
            return None;
        }
        Some(Score {
            reachable: entry.reachable,
            added_cost: Some(entry.added_cost).filter(|cost| !cost.is_nan()),
        })
    }

    /// Ends the pass: stores the `fresh` scores, as `(request, fleet
    /// position, score)` in request order, and books the pass's `lookups`,
    /// of which every one without a fresh score was a hit.
    pub(crate) fn merge(
        mut self,
        fresh: impl IntoIterator<Item = (RequestId, usize, Score)>,
        lookups: u64,
    ) {
        let table = &mut *self.0;
        let mut misses = 0;
        for (request, slot, score) in fresh {
            let entry = Entry {
                added_cost: score.added_cost.unwrap_or(f64::NAN),
                reachable: score.reachable,
                seen: AtomicBool::new(table.parity),
            };
            table.rows[slot].scores.insert(request, entry);
            misses += 1;
        }
        table.lookups += lookups;
        table.hits += lookups - misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use structride_model::{Request, Schedule};

    fn score(added: f64) -> Score {
        Score {
            reachable: Some(true),
            added_cost: Some(added),
        }
    }

    /// One pass over `fleet` that looks `request` up on every vehicle, then
    /// stores `fresh` (a score for each miss): the lookups, in fleet order.
    fn pass(
        memo: &ScoreMemo,
        fleet: &[Vehicle],
        epoch: u64,
        request: RequestId,
        screened: bool,
        fresh: &[(usize, Score)],
    ) -> Vec<Option<Score>> {
        let pass = memo.pass(fleet, epoch);
        let got: Vec<Option<Score>> = (0..fleet.len())
            .map(|slot| pass.get(slot, request, screened))
            .collect();
        let fresh = fresh.iter().map(|&(slot, score)| (request, slot, score));
        pass.merge(fresh, fleet.len() as u64);
        got
    }

    #[test]
    fn a_changed_input_or_epoch_drops_the_row() {
        let memo = ScoreMemo::new();
        let mut fleet = vec![Vehicle::new(3, 7, 4), Vehicle::new(4, 8, 4)];
        pass(
            &memo,
            &fleet,
            0,
            11,
            true,
            &[(0, score(5.0)), (1, score(6.0))],
        );
        let both = vec![Some(score(5.0)), Some(score(6.0))];
        assert_eq!(pass(&memo, &fleet, 0, 11, true, &[]), both);
        // Another request misses, and so does an unscreened entry asked for
        // the prescreen's verdict.
        assert_eq!(pass(&memo, &fleet, 0, 12, true, &[]), vec![None, None]);
        let unscreened = Score {
            reachable: None,
            added_cost: None,
        };
        pass(&memo, &fleet, 0, 13, false, &[(0, unscreened)]);
        assert_eq!(pass(&memo, &fleet, 0, 13, true, &[])[0], None);
        assert_eq!(pass(&memo, &fleet, 0, 13, false, &[])[0], Some(unscreened));
        // Every vehicle input is part of the key, the schedule included, and
        // a change drops only the changed vehicle's row.
        let r = Request::with_detour(1, 0, 2, 1, 0.0, 20.0, 1.5, 300.0);
        fleet[0].schedule = Schedule::direct(&r);
        let changed = vec![None, Some(score(6.0))];
        assert_eq!(
            pass(&memo, &fleet, 0, 11, true, &[(0, score(7.0))]),
            changed
        );
        fleet[0].free_at = f64::from_bits(fleet[0].free_at.to_bits() + 1);
        assert_eq!(pass(&memo, &fleet, 0, 11, true, &[]), changed);
        // Another epoch drops every row, and so does a reordered fleet only
        // for the vehicles it does not hold any more.
        assert_eq!(pass(&memo, &fleet, 1, 11, true, &[]), vec![None, None]);
        pass(
            &memo,
            &fleet,
            1,
            11,
            true,
            &[(0, score(8.0)), (1, score(9.0))],
        );
        fleet.swap(0, 1);
        let swapped = vec![Some(score(9.0)), Some(score(8.0))];
        assert_eq!(pass(&memo, &fleet, 1, 11, true, &[]), swapped);
        assert_eq!(
            pass(&memo, &fleet[1..], 1, 11, true, &[]),
            vec![Some(score(8.0))]
        );
        assert_eq!(pass(&memo, &fleet, 1, 11, true, &[])[0], None);
    }

    #[test]
    fn a_score_stored_in_one_pass_is_visible_only_in_the_next() {
        let memo = ScoreMemo::new();
        let fleet = vec![Vehicle::new(0, 0, 4)];
        let first = memo.pass(&fleet, 0);
        assert_eq!(first.get(0, 11, true), None);
        first.merge([(11, 0, score(1.0))], 1);
        let second = memo.pass(&fleet, 0);
        assert_eq!(second.get(0, 11, true), Some(score(1.0)));
        second.merge([], 1);
    }

    #[test]
    fn counts_are_made_per_pass() {
        let memo = ScoreMemo::new();
        let fleet: Vec<Vehicle> = (0..4).map(|id| Vehicle::new(id, id, 4)).collect();
        let open = memo.pass(&fleet, 0);
        // The counters sit behind the pass's lock until it ends.
        assert!(memo.table.try_lock().is_err());
        open.merge([(11, 1, score(1.0)), (11, 3, score(3.0))], 2);
        assert_eq!((memo.lookups(), memo.hits()), (2, 0));
        let fresh = [(0, score(0.0)), (2, score(2.0))];
        let got = pass(&memo, &fleet, 0, 11, true, &fresh);
        assert_eq!(got, vec![None, Some(score(1.0)), None, Some(score(3.0))]);
        assert_eq!((memo.lookups(), memo.hits()), (6, 2));
    }

    #[test]
    fn eviction_keeps_what_the_batch_touched() {
        let mut memo = ScoreMemo::new();
        let fleet = vec![Vehicle::new(0, 0, 4), Vehicle::new(1, 1, 4)];
        pass(
            &memo,
            &fleet,
            0,
            11,
            true,
            &[(0, score(1.0)), (1, score(2.0))],
        );
        pass(&memo, &fleet, 0, 12, true, &[(0, score(3.0))]);
        memo.evict_unseen();
        // The next batch reads request 11 only.
        assert_eq!(
            pass(&memo, &fleet, 0, 11, true, &[]),
            vec![Some(score(1.0)), Some(score(2.0))]
        );
        memo.evict_unseen();
        assert_eq!(
            pass(&memo, &fleet, 0, 11, true, &[]),
            vec![Some(score(1.0)), Some(score(2.0))]
        );
        assert_eq!(pass(&memo, &fleet, 0, 12, true, &[]), vec![None, None]);
    }
}
