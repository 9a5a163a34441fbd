//! The engine's shortest-path cache: a fixed-capacity, 4-way set-associative
//! table of exact `(source, target)` travel times.
//!
//! The paper fronts its hub labels with an LRU cache after Huang et al.
//! \[40\].  This table keeps the role and drops the recency bookkeeping.  A
//! lookup hashes the key once — one multiplicative hash whose top bits pick
//! one of `STRIPES` independently locked stripes and whose next bits pick a
//! set inside it — and compares the set's four 24-byte slots under that
//! stripe's lock.  An insert takes an empty, stale-tag or same-key way first
//! and otherwise overwrites a hash-chosen victim, not the least recently
//! used entry.  At the engine's default 2¹⁸ entries the dispatch working set
//! fits, so the policy difference does not show in the hit ratio; and since
//! every value is an exact index answer, no policy can change a result.
//!
//! Every entry carries the tag it was stored under.  [`SpCache::retire`]
//! advances the tag, which only ever grows, and so orphans every stored
//! entry at once: nothing sweeps the table, stale ways never match a lookup
//! and count as free on insert.
//!
//! Hits and misses are counted per stripe under that stripe's lock, so a hit
//! touches no counter that callers on other stripes share, and the sums are
//! exact under any number of threads.

use crate::graph::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Ways per set.
const WAYS: usize = 4;
/// Independently locked stripes (a power of two).
const STRIPES: usize = 64;
const STRIPE_BITS: u32 = STRIPES.trailing_zeros();
/// Multiplier of the key hash: 2⁶⁴ / φ, odd.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// One way: `[tag + 1, source << 32 | target, value bits]`.  An all-zero
/// slot is empty, because a stored tag is never 0.
type Slot = [u64; 3];

/// One stripe's sets and counters, aligned so that neighbouring stripes'
/// locks never share a cache line.
#[derive(Debug)]
#[repr(align(128))]
struct Stripe(Mutex<Sets>);

#[derive(Debug)]
struct Sets {
    slots: Box<[Slot]>,
    hits: u64,
    misses: u64,
}

/// The shortest-path cache of one [`SpEngine`](crate::SpEngine).
#[derive(Debug)]
pub(crate) struct SpCache {
    stripes: Box<[Stripe]>,
    /// Right shift that brings a hash's set bits (the bits just below the
    /// stripe bits) to the bottom.
    set_shift: u32,
    /// Sets per stripe minus one; 0 also for a table that stores nothing.
    set_mask: usize,
    /// Tag of the live entries; only ever grows.
    tag: AtomicU64,
}

impl SpCache {
    /// A table of at least `capacity` entries: the sets per stripe are
    /// rounded up to a power of two.  Capacity 0 stores nothing, and every
    /// lookup misses.
    pub(crate) fn new(capacity: usize) -> Self {
        let sets = match capacity {
            0 => 0,
            c => c.div_ceil(WAYS * STRIPES).next_power_of_two(),
        };
        let set_bits = sets.max(1).trailing_zeros();
        SpCache {
            stripes: (0..STRIPES)
                .map(|_| {
                    Stripe(Mutex::new(Sets {
                        slots: vec![[0; 3]; sets * WAYS].into_boxed_slice(),
                        hits: 0,
                        misses: 0,
                    }))
                })
                .collect(),
            set_shift: 64 - STRIPE_BITS - set_bits,
            set_mask: sets.saturating_sub(1),
            tag: AtomicU64::new(0),
        }
    }

    /// The key, its stripe, the first slot of its set and its victim way.
    fn locate(&self, source: NodeId, target: NodeId) -> (u64, &Stripe, usize, usize) {
        let key = (u64::from(source) << 32) | u64::from(target);
        let h = key.wrapping_mul(HASH_MUL);
        let stripe = &self.stripes[(h >> (64 - STRIPE_BITS)) as usize];
        let set = (h >> self.set_shift) as usize & self.set_mask;
        let victim = (h >> (self.set_shift - 2)) as usize % WAYS;
        (key, stripe, set * WAYS, victim)
    }

    /// The tag live entries are stored and looked up under.
    pub(crate) fn tag(&self) -> u64 {
        self.tag.load(Ordering::Relaxed)
    }

    /// Orphans every stored entry by advancing the tag.
    pub(crate) fn retire(&self) {
        self.tag.fetch_add(1, Ordering::Relaxed);
    }

    /// The value stored for `(source, target)` under `tag`, counting a hit or
    /// a miss in the key's stripe.
    pub(crate) fn get(&self, tag: u64, source: NodeId, target: NodeId) -> Option<f64> {
        let (key, stripe, first, _) = self.locate(source, target);
        let mut sets = stripe.0.lock().expect("sp cache stripe poisoned");
        let found = sets.slots.get(first..first + WAYS).and_then(|ways| {
            ways.iter()
                .find(|w| w[0] == tag + 1 && w[1] == key)
                .map(|w| f64::from_bits(w[2]))
        });
        match found {
            Some(_) => sets.hits += 1,
            None => sets.misses += 1,
        }
        found
    }

    /// Stores `value` for `(source, target)` under `tag`.
    pub(crate) fn insert(&self, tag: u64, source: NodeId, target: NodeId, value: f64) {
        let (key, stripe, first, victim) = self.locate(source, target);
        let mut sets = stripe.0.lock().expect("sp cache stripe poisoned");
        let Some(ways) = sets.slots.get_mut(first..first + WAYS) else {
            return;
        };
        let live = tag + 1;
        let way = ways
            .iter()
            .position(|w| w[0] == live && w[1] == key)
            .or_else(|| ways.iter().position(|w| w[0] != live))
            .unwrap_or(victim);
        ways[way] = [live, key, value.to_bits()];
    }

    /// Lookups that hit and that missed, summed over the stripes.
    pub(crate) fn counts(&self) -> (u64, u64) {
        self.stripes.iter().fold((0, 0), |(hits, misses), stripe| {
            let sets = stripe.0.lock().expect("sp cache stripe poisoned");
            (hits + sets.hits, misses + sets.misses)
        })
    }

    /// Heap footprint of the table in bytes.
    pub(crate) fn approx_bytes(&self) -> usize {
        let slots: usize = self
            .stripes
            .iter()
            .map(|s| s.0.lock().expect("sp cache stripe poisoned").slots.len())
            .sum();
        std::mem::size_of_val(&*self.stripes) + slots * std::mem::size_of::<Slot>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A value that is a pure function of its key and tag.
    fn value(tag: u64, s: NodeId, t: NodeId) -> f64 {
        (tag * 1_000_003 + u64::from(s) * 7_919 + u64::from(t)) as f64 / 3.0
    }

    #[test]
    fn get_insert_and_same_key_overwrite() {
        let c = SpCache::new(1 << 10);
        assert_eq!(c.get(0, 1, 2), None);
        c.insert(0, 1, 2, 5.0);
        assert_eq!(c.get(0, 1, 2), Some(5.0));
        assert_eq!(c.get(0, 2, 1), None, "keys are directed");
        c.insert(0, 1, 2, 6.0);
        assert_eq!(c.get(0, 1, 2), Some(6.0));
        assert_eq!(c.counts(), (2, 2));
        assert!(c.approx_bytes() >= (1 << 10) * std::mem::size_of::<Slot>());
    }

    #[test]
    fn zero_capacity_stores_nothing_and_counts_every_get_as_a_miss() {
        let c = SpCache::new(0);
        for i in 0..200u32 {
            c.insert(0, i, i + 1, 1.0);
        }
        for i in 0..200u32 {
            assert_eq!(c.get(0, i, i + 1), None);
        }
        assert_eq!(c.counts(), (0, 200));
        assert_eq!(c.approx_bytes(), std::mem::size_of_val(&*c.stripes));
    }

    #[test]
    fn retire_orphans_entries_and_frees_their_ways() {
        // One set per stripe: five keys on one stripe share a set.
        let c = SpCache::new(1);
        let stripe_of = |s: NodeId| c.locate(s, 0).1 as *const Stripe;
        let keys: Vec<NodeId> = (0..)
            .filter(|&s| stripe_of(s) == stripe_of(0))
            .take(5)
            .collect();

        for &s in &keys[..4] {
            c.insert(0, s, 0, value(0, s, 0));
        }
        assert!(keys[..4].iter().all(|&s| c.get(0, s, 0).is_some()));
        c.retire();
        assert_eq!(c.tag(), 1);
        assert!(keys.iter().all(|&s| c.get(1, s, 0).is_none()));
        // Four stale ways are four free ways: no live entry is evicted.
        for &s in &keys[1..] {
            c.insert(1, s, 0, value(1, s, 0));
        }
        for &s in &keys[1..] {
            assert_eq!(c.get(1, s, 0), Some(value(1, s, 0)));
        }
        // A fifth live key evicts exactly one way.
        c.insert(1, keys[0], 0, value(1, keys[0], 0));
        let live = keys.iter().filter(|&&s| c.get(1, s, 0).is_some()).count();
        assert_eq!(live, 4);
        assert_eq!(c.get(1, keys[0], 0), Some(value(1, keys[0], 0)));
    }

    #[test]
    fn hits_plus_misses_equal_gets_across_threads() {
        let c = SpCache::new(1 << 12);
        let (threads, per_thread) = (8u32, 3_000u32);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let (s, d) = ((i + t) % 97, (i * 7 + t) % 89);
                        if c.get(0, s, d).is_none() {
                            c.insert(0, s, d, value(0, s, d));
                        }
                    }
                });
            }
        });
        let (hits, misses) = c.counts();
        assert_eq!(hits + misses, u64::from(threads * per_thread));
        assert!(hits > 0);
    }

    /// A 64-entry table under eight threads: constant conflict evictions,
    /// keys stored under two tags.  Every hit must return its own key's
    /// bits, and no lookup under the live tag may see a retired entry.
    #[test]
    fn conflicting_threads_never_read_a_foreign_or_retired_value() {
        let c = SpCache::new(64);
        let (threads, per_thread) = (8u32, 4_000u32);
        let run = |tag: u64| {
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let c = &c;
                    scope.spawn(move || {
                        for i in 0..per_thread {
                            // Each key twice in a row: the second lookup
                            // hits unless another thread evicted the entry
                            // in between, so hits do not hinge on keys
                            // coinciding across threads.
                            let k = i / 2;
                            let (s, d) = ((k * 13 + t) % 61, (k * 29 + t * 5) % 67);
                            match c.get(tag, s, d) {
                                Some(v) => assert_eq!(
                                    v.to_bits(),
                                    value(tag, s, d).to_bits(),
                                    "({s}, {d}) under tag {tag}"
                                ),
                                None => c.insert(tag, s, d, value(tag, s, d)),
                            }
                        }
                    });
                }
            });
        };
        run(c.tag());
        let (hits, misses) = c.counts();
        assert!(hits > 0 && misses > 0);
        c.retire();
        run(c.tag());
        let (hits, misses) = c.counts();
        assert_eq!(hits + misses, 2 * u64::from(threads * per_thread));
    }
}
