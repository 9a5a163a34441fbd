//! A cross-batch memo of `(request, vehicle)` candidate scores.
//!
//! SARD builds a candidate queue for every *pooled* request in every batch
//! (Alg. 3, lines 4–6), and the exact dispatcher rebuilds its cost matrix
//! once per LAP round, both through
//! [`DispatchContext::scored_candidates`](crate::DispatchContext::scored_candidates).
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
//! traffic epoch the engine serves.  Each vehicle slot keeps one copy of
//! those vehicle inputs plus the epoch, and every lookup compares them
//! exactly — floats by bit pattern, way-points field by field.  When they no
//! longer match, the slot takes the new inputs and every score computed from
//! the old ones is retired.  Nothing outside the memo has to announce a
//! change: code outside `structride_model::vehicle` writes `Vehicle`'s public
//! fields directly (DARM's repositioning, checkpoint and trace restore), and
//! a missed announcement would silently change a decision.  A hit therefore
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
//! After each batch, [`ScoreMemo::evict_unseen`] drops every entry that the
//! batch neither read nor wrote, so the memo tracks the live pool and the
//! vehicles that can still reach it.
//!
//! # The hit path
//!
//! Scoring makes about a million lookups per simulated day on the
//! benchmark's cities, most of them hits, so a hit costs only its shard
//! lock, the input comparison and two map probes.  The maps hash with a
//! small in-tree multiply-rotate hasher instead of SipHash: their keys are
//! in-process `u32` ids, and nothing observes their iteration order.  The
//! telemetry counters are bumped once per scored request, not once per pair
//! on counters every worker shares.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use structride_model::{RequestId, Vehicle, VehicleId, Waypoint};
use structride_roadnet::NodeId;

/// Independently locked shards.  Vehicles are sharded by id, so parallel
/// requests scoring the same fleet contend only when they touch the same
/// shard at the same moment.
const SHARDS: usize = 16;

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

/// One vehicle's current inputs.  `generation` advances whenever they are
/// replaced, which retires every entry computed from the old ones.
#[derive(Debug)]
struct Slot {
    inputs: Inputs,
    generation: u32,
    /// The batch parity of the last lookup (see [`ScoreMemo::parity`]).
    seen: bool,
}

/// A [`Score`] as stored (16 bytes): `NaN` stands for no added cost (travel
/// times are never `NaN`).
#[derive(Debug, Clone, Copy)]
struct Entry {
    added_cost: f64,
    generation: u32,
    reachable: Option<bool>,
    /// The batch parity of the last read or write.
    seen: bool,
}

/// One lock's worth of the memo: the slots of its vehicles, and their
/// scores in one flat map.
#[derive(Debug, Default)]
struct Shard {
    slots: IdMap<VehicleId, Slot>,
    scores: IdMap<(VehicleId, RequestId), Entry>,
}

impl Shard {
    /// The generation of `vehicle`'s current inputs, replacing the slot's
    /// inputs first if they changed since it was filled.
    fn generation(&mut self, vehicle: &Vehicle, epoch: u64, parity: bool) -> u32 {
        let slot = self.slots.entry(vehicle.id).or_insert_with(|| Slot {
            inputs: Inputs::of(vehicle, epoch),
            generation: 0,
            seen: parity,
        });
        if !slot.inputs.matches(vehicle, epoch) {
            slot.inputs = Inputs::of(vehicle, epoch);
            slot.generation = slot.generation.wrapping_add(1);
        }
        slot.seen = parity;
        slot.generation
    }
}

/// A cross-batch memo of candidate scores; see the module docs.
#[derive(Debug)]
pub struct ScoreMemo {
    shards: Vec<Mutex<Shard>>,
    /// Flips at every [`ScoreMemo::evict_unseen`].  Entries read or written
    /// in the current batch carry it; every other entry still present was
    /// last touched in the previous batch (eviction removed anything older),
    /// so one bit tells the two apart.
    parity: bool,
    lookups: AtomicU64,
    hits: AtomicU64,
}

impl Default for ScoreMemo {
    fn default() -> Self {
        ScoreMemo {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
            parity: false,
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }
}

impl ScoreMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lookups made so far (telemetry; counts every pair looked up).
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Lookups answered from the memo so far (telemetry).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    fn shard(&self, vehicle: &Vehicle) -> MutexGuard<'_, Shard> {
        self.shards[vehicle.id as usize % SHARDS]
            .lock()
            .expect("score memo shard poisoned")
    }

    /// The memoized scores of `request` on `vehicles[slot]` for each of
    /// `slots`, in order: see [`ScoreMemo::get`].  Counts the lookups and
    /// hits once for the whole call.
    pub(crate) fn get_all(
        &self,
        vehicles: &[Vehicle],
        slots: &[usize],
        epoch: u64,
        request: RequestId,
        screened: bool,
    ) -> Vec<Option<Score>> {
        let scores: Vec<Option<Score>> = slots
            .iter()
            .map(|&slot| self.get(&vehicles[slot], epoch, request, screened))
            .collect();
        let hits = scores.iter().filter(|score| score.is_some()).count();
        self.lookups
            .fetch_add(slots.len() as u64, Ordering::Relaxed);
        self.hits.fetch_add(hits as u64, Ordering::Relaxed);
        scores
    }

    /// The memoized score of `request` on `vehicle` under `epoch`, if one
    /// exists for the vehicle's current inputs and, when `screened` asks for
    /// it, records the prescreen's verdict.  Uncounted; see
    /// [`ScoreMemo::get_all`].
    fn get(
        &self,
        vehicle: &Vehicle,
        epoch: u64,
        request: RequestId,
        screened: bool,
    ) -> Option<Score> {
        let mut shard = self.shard(vehicle);
        let generation = shard.generation(vehicle, epoch, self.parity);
        let entry = shard
            .scores
            .get_mut(&(vehicle.id, request))
            .filter(|entry| entry.generation == generation)?;
        entry.seen = self.parity;
        if screened && entry.reachable.is_none() {
            return None;
        }
        Some(Score {
            reachable: entry.reachable,
            added_cost: Some(entry.added_cost).filter(|cost| !cost.is_nan()),
        })
    }

    /// Stores the freshly computed `score` of `request` on `vehicle`.
    pub(crate) fn put(&self, vehicle: &Vehicle, epoch: u64, request: RequestId, score: Score) {
        let mut shard = self.shard(vehicle);
        let generation = shard.generation(vehicle, epoch, self.parity);
        let entry = Entry {
            added_cost: score.added_cost.unwrap_or(f64::NAN),
            generation,
            reachable: score.reachable,
            seen: self.parity,
        };
        shard.scores.insert((vehicle.id, request), entry);
    }

    /// Ends a batch: drops every entry the batch neither read nor wrote or
    /// whose vehicle inputs were replaced, and every vehicle slot the batch
    /// did not look up.
    pub fn evict_unseen(&mut self) {
        let parity = self.parity;
        for shard in &mut self.shards {
            let Shard { slots, scores } = shard.get_mut().expect("score memo shard poisoned");
            slots.retain(|_, slot| slot.seen == parity);
            scores.retain(|(vehicle, _), entry| {
                entry.seen == parity
                    && slots
                        .get(vehicle)
                        .is_some_and(|slot| slot.generation == entry.generation)
            });
        }
        self.parity = !parity;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use structride_model::{Request, Schedule};

    /// One counted lookup, as `scored_candidates` makes them.
    fn get(
        memo: &ScoreMemo,
        v: &Vehicle,
        epoch: u64,
        request: RequestId,
        screened: bool,
    ) -> Option<Score> {
        memo.get_all(std::slice::from_ref(v), &[0], epoch, request, screened)[0]
    }

    fn score(added: f64) -> Score {
        Score {
            reachable: Some(true),
            added_cost: Some(added),
        }
    }

    #[test]
    fn a_changed_input_retires_the_vehicles_scores() {
        let memo = ScoreMemo::new();
        let mut v = Vehicle::new(3, 7, 4);
        memo.put(&v, 0, 11, score(5.0));
        assert_eq!(get(&memo, &v, 0, 11, true), Some(score(5.0)));
        // Another epoch, another request, and an unscreened entry asked for
        // the prescreen's verdict all miss.
        assert_eq!(get(&memo, &v, 1, 11, true), None);
        memo.put(&v, 0, 11, score(5.0));
        assert_eq!(get(&memo, &v, 0, 12, true), None);
        let unscreened = Score {
            reachable: None,
            added_cost: None,
        };
        memo.put(&v, 0, 13, unscreened);
        assert_eq!(get(&memo, &v, 0, 13, true), None);
        assert_eq!(get(&memo, &v, 0, 13, false), Some(unscreened));
        // Every vehicle input is part of the key, the schedule included.
        let r = Request::with_detour(1, 0, 2, 1, 0.0, 20.0, 1.5, 300.0);
        v.schedule = Schedule::direct(&r);
        assert_eq!(get(&memo, &v, 0, 11, false), None);
        memo.put(&v, 0, 11, score(6.0));
        v.free_at = f64::from_bits(v.free_at.to_bits() + 1);
        assert_eq!(get(&memo, &v, 0, 11, false), None);
        assert_eq!(memo.lookups(), 7);
        assert_eq!(memo.hits(), 2);
    }

    #[test]
    fn a_batched_lookup_counts_every_pair_and_returns_them_in_order() {
        let memo = ScoreMemo::new();
        let fleet: Vec<Vehicle> = (0..4).map(|id| Vehicle::new(id, id, 4)).collect();
        memo.put(&fleet[1], 0, 11, score(1.0));
        memo.put(&fleet[3], 0, 11, score(3.0));
        let got = memo.get_all(&fleet, &[3, 0, 1, 2], 0, 11, true);
        assert_eq!(got, vec![Some(score(3.0)), None, Some(score(1.0)), None]);
        assert_eq!(memo.get_all(&fleet, &[], 0, 11, true), vec![]);
        assert_eq!((memo.lookups(), memo.hits()), (4, 2));
    }
}
