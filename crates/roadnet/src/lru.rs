//! A bounded least-recently-used cache for shortest-path query results.
//!
//! The paper follows Huang et al. \[40\] and fronts the hub-labeling index with
//! an LRU cache keyed by `(source, target)`.  This is a purpose-built LRU:
//! a hash map from key to slot index plus an intrusive doubly-linked list over
//! a slot arena, so `get`/`insert` are O(1) with no per-operation allocation
//! once the arena is warm.

use std::collections::HashMap;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    value: V,
    prev: u32,
    next: u32,
}

/// A fixed-capacity LRU cache.
#[derive(Debug, Clone)]
pub struct LruCache<K: std::hash::Hash + Eq + Clone, V: Clone> {
    map: HashMap<K, u32>,
    slots: Vec<Slot<K, V>>,
    head: u32,
    tail: u32,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: std::hash::Hash + Eq + Clone, V: Clone> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// A capacity of 0 disables storage entirely: [`LruCache::insert`] is a
    /// silent no-op (never a panic, never an eviction) and every lookup
    /// misses.  [`crate::sharded::ShardedLruCache`] guarantees the same
    /// semantics, so a zero-capacity engine cache behaves identically whether
    /// sharded or not.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            slots: Vec::with_capacity(capacity.min(1 << 20)),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Capacity of the cache.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lookups that hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of entries evicted to make room for an insert.  Exact: between
    /// [`LruCache::clear`] calls, `new-key inserts − len()` (replacing an
    /// existing key and capacity-0 no-op inserts evict nothing).  Cumulative
    /// across clears, like [`LruCache::hits`] / [`LruCache::misses`].
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn detach(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &self.slots[idx as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.slots[idx as usize].prev = NIL;
        self.slots[idx as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.hits += 1;
                self.detach(idx);
                self.push_front(idx);
                Some(self.slots[idx as usize].value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts `key -> value`, evicting the least recently used entry if full.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx as usize].value = value;
            self.detach(idx);
            self.push_front(idx);
            return;
        }
        let idx = if self.map.len() >= self.capacity {
            // Reuse the LRU slot.
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.detach(victim);
            self.evictions += 1;
            let old_key = self.slots[victim as usize].key.clone();
            self.map.remove(&old_key);
            self.slots[victim as usize].key = key.clone();
            self.slots[victim as usize].value = value;
            victim
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            idx
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// Removes all entries but keeps the allocated capacity.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot<K, V>>()
            + self.map.capacity() * (std::mem::size_of::<K>() + std::mem::size_of::<u32>() + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_get_insert() {
        let mut c: LruCache<(u32, u32), f64> = LruCache::new(2);
        assert!(c.is_empty());
        c.insert((1, 2), 3.0);
        c.insert((2, 3), 4.0);
        assert_eq!(c.get(&(1, 2)), Some(3.0));
        assert_eq!(c.get(&(2, 3)), Some(4.0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        // Touch 1 so 2 becomes LRU.
        assert_eq!(c.get(&1), Some(10));
        c.insert(3, 30);
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn update_existing_key_refreshes() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // refresh 1, 2 becomes LRU
        c.insert(3, 30);
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.get(&2), None);
    }

    #[test]
    fn zero_capacity_inserts_are_silent_noops() {
        let mut c: LruCache<u32, u32> = LruCache::new(0);
        // Repeated inserts neither panic nor store nor evict.
        for i in 0..100 {
            c.insert(i, i);
        }
        assert_eq!(c.get(&1), None);
        assert_eq!(c.len(), 0);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn eviction_counter_is_exact() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        for i in 0..10 {
            c.insert(i, i);
        }
        // 10 distinct keys into 4 slots: exactly 6 evictions.
        assert_eq!(c.len(), 4);
        assert_eq!(c.evictions(), 10 - 4);
        // Replacing an existing key never evicts.
        c.insert(9, 99);
        assert_eq!(c.evictions(), 6);
        // A new key evicts exactly one.
        c.insert(100, 100);
        assert_eq!(c.evictions(), 7);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn clear_resets() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        for i in 0..4 {
            c.insert(i, i);
        }
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(&0), None);
        c.insert(7, 7);
        assert_eq!(c.get(&7), Some(7));
    }

    #[test]
    fn capacity_one_behaves() {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(2));
    }

    #[test]
    fn stress_against_reference_model() {
        use std::collections::VecDeque;
        let cap = 8usize;
        let mut c: LruCache<u32, u32> = LruCache::new(cap);
        // Reference: a VecDeque of keys in recency order + map.
        let mut order: VecDeque<u32> = VecDeque::new();
        let mut model: HashMap<u32, u32> = HashMap::new();
        let mut x: u32 = 12345;
        for step in 0..5000u32 {
            // xorshift pseudo-random
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let key = x % 20;
            if step % 3 == 0 {
                // insert
                let val = step;
                c.insert(key, val);
                if model.contains_key(&key) {
                    order.retain(|&k| k != key);
                } else if model.len() >= cap {
                    let victim = order.pop_back().unwrap();
                    model.remove(&victim);
                }
                model.insert(key, val);
                order.push_front(key);
            } else {
                // get
                let got = c.get(&key);
                let expect = model.get(&key).copied();
                assert_eq!(got, expect, "step {step} key {key}");
                if expect.is_some() {
                    order.retain(|&k| k != key);
                    order.push_front(key);
                }
            }
        }
    }
}
