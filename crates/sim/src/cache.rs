//! Device column cache.
//!
//! Part of the co-processor memory is used as a cache for base columns
//! (Section 2.1). Two modes are exercised by the paper:
//!
//! * **operator-driven** (the classic approach): an operator placed on the
//!   co-processor pulls its inputs into the cache on demand, evicting by
//!   LRU or LFU — this is what thrashes when the working set exceeds the
//!   cache (Figure 2);
//! * **data-driven** (Section 3): a placement manager *pins* the most
//!   frequently used columns (Algorithm 1), and operators only run on the
//!   co-processor when their inputs are pinned.

use std::collections::HashMap;

/// Opaque cache key; the engine uses the base-column id, or a
/// column-partition id for sharded scans (see [`CacheKey::partition`]),
/// each versioned by the column's epoch of last append (see
/// [`CacheKey::column_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub u64);

/// Bit layout of partition keys: flag | epoch | of | index | column id.
const PARTITION_FLAG: u64 = 1 << 63;
/// Partition keys carry the epoch in bits 49..63 (14 bits).
const PART_EPOCH_SHIFT: u64 = 49;
const PART_EPOCH_MAX: u64 = (1 << 14) - 1;
/// Whole-column keys carry the epoch in bits 32..62 (30 bits).
const COL_EPOCH_SHIFT: u64 = 32;
const COL_EPOCH_MAX: u64 = (1 << 30) - 1;

impl CacheKey {
    /// Key of a whole base column at epoch 0 (a never-appended column).
    pub fn column(id: u32) -> CacheKey {
        CacheKey::column_at(id, 0)
    }

    /// Key of a whole base column as of the epoch of its last append.
    ///
    /// The epoch is part of the key, so staging after an append can never
    /// hit a stale pre-append copy: entries for older epochs simply stop
    /// matching (and are actively dropped by
    /// [`DataCache::invalidate_column`]). Epoch 0 keys are bit-identical
    /// to the pre-epoch encoding, which keeps every batch golden intact.
    pub fn column_at(id: u32, epoch: u64) -> CacheKey {
        debug_assert!(epoch <= COL_EPOCH_MAX, "epoch out of key range");
        CacheKey(((epoch & COL_EPOCH_MAX) << COL_EPOCH_SHIFT) | id as u64)
    }

    /// Key of row-range partition `index` of `of` of a base column at
    /// epoch 0. The encoding keeps partition keys disjoint from
    /// whole-column keys, so a partitioned and a fully cached copy of the
    /// same column can coexist without colliding.
    pub fn partition(id: u32, index: u32, of: u32) -> CacheKey {
        CacheKey::partition_at(id, index, of, 0)
    }

    /// Key of a column partition as of the epoch of its last append.
    pub fn partition_at(id: u32, index: u32, of: u32, epoch: u64) -> CacheKey {
        debug_assert!(index < of, "partition index out of range");
        debug_assert!(of <= u8::MAX as u32 + 1, "at most 256 partitions");
        debug_assert!(epoch <= PART_EPOCH_MAX, "epoch out of key range");
        CacheKey(
            PARTITION_FLAG
                | ((epoch & PART_EPOCH_MAX) << PART_EPOCH_SHIFT)
                | ((of as u64) << 40)
                | ((index as u64) << 32)
                | id as u64,
        )
    }

    /// The base-column id this key caches (whole or partitioned).
    pub fn column_id(self) -> u32 {
        self.0 as u32
    }

    /// `(index, of)` if this is a partition key, `None` for whole columns.
    pub fn partition_of(self) -> Option<(u32, u32)> {
        if self.0 & PARTITION_FLAG == 0 {
            return None;
        }
        Some(((self.0 >> 32) as u8 as u32, (self.0 >> 40) as u32 & 0x1ff))
    }

    /// The append epoch this key was staged under (0 = never appended).
    pub fn epoch(self) -> u64 {
        if self.0 & PARTITION_FLAG == 0 {
            (self.0 >> COL_EPOCH_SHIFT) & COL_EPOCH_MAX
        } else {
            (self.0 >> PART_EPOCH_SHIFT) & PART_EPOCH_MAX
        }
    }
}

/// Bytes of partition `index` of `of` of a `full`-byte column: the exact
/// slice sizes sum back to `full` across all partitions.
pub fn partition_bytes(full: u64, index: u32, of: u32) -> u64 {
    let of = of.max(1) as u64;
    let lo = full * index as u64 / of;
    let hi = full * (index as u64 + 1) / of;
    hi - lo
}

/// Eviction policy for unpinned entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Evict the least recently used entry.
    Lru,
    /// Evict the least frequently used entry (ties: least recent).
    Lfu,
}

#[derive(Debug, Clone)]
struct Entry {
    bytes: u64,
    last_tick: u64,
    access_count: u64,
    pinned: bool,
}

/// Result of an insert attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Whether the entry now resides in the cache.
    pub inserted: bool,
    /// Entries evicted to make room, with their sizes.
    pub evicted: Vec<(CacheKey, u64)>,
}

/// Why entries left the cache, cumulative over its lifetime. Separating
/// the two pressures shows *who* is thrashing: operator-driven inserts
/// displacing each other, or the placement manager's re-pins churning
/// the resident set.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EvictionReasons {
    /// Evicted to make room for an operator-driven [`DataCache::insert`].
    pub for_insert: u64,
    /// Dropped or displaced by a [`DataCache::set_pinned`] re-pin
    /// (stale pins, resized pins, and room made for new pins).
    pub for_pin: u64,
}

impl EvictionReasons {
    /// Total evictions for any reason.
    pub fn total(&self) -> u64 {
        self.for_insert + self.for_pin
    }
}

/// The device column cache.
#[derive(Debug, Clone)]
pub struct DataCache {
    capacity: u64,
    used: u64,
    policy: CachePolicy,
    entries: HashMap<CacheKey, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: EvictionReasons,
}

impl DataCache {
    /// An empty cache of `capacity` bytes with the given policy.
    pub fn new(capacity: u64, policy: CachePolicy) -> Self {
        DataCache {
            capacity,
            used: 0,
            policy,
            entries: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: EvictionReasons::default(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// The configured eviction policy.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total cache hits/misses recorded through [`DataCache::probe`].
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Cumulative eviction counts broken down by reason.
    pub fn eviction_reasons(&self) -> EvictionReasons {
        self.evictions
    }

    /// Whether `key` is resident.
    pub fn contains(&self, key: CacheKey) -> bool {
        self.entries.contains_key(&key)
    }

    /// Record an access: returns `true` on hit (updating recency and
    /// frequency), `false` on miss.
    pub fn probe(&mut self, key: CacheKey) -> bool {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.entries.get_mut(&key) {
            e.last_tick = tick;
            e.access_count += 1;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Insert `key` (`bytes` large), evicting unpinned entries as needed.
    ///
    /// If the entry cannot fit even after evicting every unpinned entry,
    /// nothing changes and `inserted` is `false` — the caller then
    /// processes the data without caching it.
    pub fn insert(&mut self, key: CacheKey, bytes: u64) -> InsertOutcome {
        if self.contains(key) {
            self.probe(key);
            return InsertOutcome { inserted: true, evicted: Vec::new() };
        }
        let unpinned: u64 =
            self.entries.values().filter(|e| !e.pinned).map(|e| e.bytes).sum();
        if bytes > self.capacity - self.used + unpinned {
            return InsertOutcome { inserted: false, evicted: Vec::new() };
        }
        let mut evicted = Vec::new();
        while self.capacity - self.used < bytes {
            let victim = self
                .victim_key()
                .expect("unpinned bytes were sufficient, so a victim exists");
            let e = self.entries.remove(&victim).expect("victim is resident");
            self.used -= e.bytes;
            self.evictions.for_insert += 1;
            evicted.push((victim, e.bytes));
        }
        self.tick += 1;
        self.entries.insert(
            key,
            Entry { bytes, last_tick: self.tick, access_count: 1, pinned: false },
        );
        self.used += bytes;
        InsertOutcome { inserted: true, evicted }
    }

    /// Pick the next eviction victim among unpinned entries.
    fn victim_key(&self) -> Option<CacheKey> {
        let candidates = self.entries.iter().filter(|(_, e)| !e.pinned);
        match self.policy {
            CachePolicy::Lru => candidates
                .min_by_key(|(k, e)| (e.last_tick, **k))
                .map(|(k, _)| *k),
            CachePolicy::Lfu => candidates
                .min_by_key(|(k, e)| (e.access_count, e.last_tick, **k))
                .map(|(k, _)| *k),
        }
    }

    /// Make the *pinned* portion of the cache exactly `entries`
    /// (Algorithm 1: evict `old \ new`, cache `new \ old`).
    ///
    /// Previously pinned entries not in `entries` are unpinned and
    /// removed. Unpinned (operator-driven) entries are evicted as needed
    /// to make room. Returns `(newly cached, evicted)` key lists; the
    /// caller charges transfer time for the newly cached ones. A key may
    /// appear in `entries` once. Re-pinning exactly the pinned set — what
    /// a steady-state placement pass asks for — changes nothing and
    /// allocates nothing.
    ///
    /// # Panics
    /// Panics if the pinned set itself exceeds the cache capacity — the
    /// placement manager is responsible for respecting the budget.
    pub fn set_pinned(&mut self, entries: &[(CacheKey, u64)]) -> (Vec<CacheKey>, Vec<CacheKey>) {
        let total: u64 = entries.iter().map(|&(_, b)| b).sum();
        assert!(
            total <= self.capacity,
            "pinned set ({total}B) exceeds cache capacity ({}B)",
            self.capacity
        );
        let repeated = |i: usize| entries[..i].iter().any(|(k, _)| *k == entries[i].0);
        debug_assert!(!(0..entries.len()).any(repeated), "a key is pinned at most once");
        if self.pins_exactly(entries) {
            return (Vec::new(), Vec::new());
        }
        let mut evicted = Vec::new();
        // Drop stale pinned entries.
        let (used, evictions) = (&mut self.used, &mut self.evictions);
        self.entries.retain(|k, e| {
            let stale = e.pinned && !entries.iter().any(|(new, _)| new == k);
            if stale {
                *used -= e.bytes;
                evictions.for_pin += 1;
                evicted.push(*k);
            }
            !stale
        });
        // Pin already-resident entries in place. An entry resident at a
        // *different* size than declared is dropped and re-cached below
        // at the declared size — keeping it would let the pinned set
        // exceed its declared budget (and strand the eviction loop with
        // nothing left to evict).
        for &(k, bytes) in entries {
            match self.entries.get_mut(&k) {
                Some(e) if e.bytes == bytes => e.pinned = true,
                Some(_) => {
                    let e = self.entries.remove(&k).expect("entry is resident");
                    self.used -= e.bytes;
                    self.evictions.for_pin += 1;
                    evicted.push(k);
                }
                None => {}
            }
        }
        // Insert the missing ones, evicting unpinned entries as needed.
        let mut newly_cached = Vec::new();
        for &(k, bytes) in entries {
            if self.contains(k) {
                continue;
            }
            while self.capacity - self.used < bytes {
                let victim = self
                    .victim_key()
                    .expect("pinned set fits capacity, so unpinned victims suffice");
                let e = self.entries.remove(&victim).expect("victim is resident");
                self.used -= e.bytes;
                self.evictions.for_pin += 1;
                evicted.push(victim);
            }
            self.tick += 1;
            self.entries.insert(
                k,
                Entry { bytes, last_tick: self.tick, access_count: 0, pinned: true },
            );
            self.used += bytes;
            newly_cached.push(k);
        }
        newly_cached.sort();
        evicted.sort();
        (newly_cached, evicted)
    }

    /// Whether the pinned entries are exactly `entries`, each at its
    /// declared size (`entries` holds each key once).
    fn pins_exactly(&self, entries: &[(CacheKey, u64)]) -> bool {
        let pinned = self.entries.values().filter(|e| e.pinned).count();
        let pinned_at = |&(k, bytes): &(CacheKey, u64)| {
            self.entries.get(&k).is_some_and(|e| e.pinned && e.bytes == bytes)
        };
        pinned == entries.len() && entries.iter().all(pinned_at)
    }

    /// Bytes held across all resident entries, recomputed from the entry
    /// table. Accounting invariant (chaos/property tests):
    /// `accounted_bytes() == used()` must hold after every operation.
    pub fn accounted_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.bytes).sum()
    }

    /// Keys of all resident entries, sorted.
    pub fn resident_keys(&self) -> Vec<CacheKey> {
        let mut v: Vec<CacheKey> = self.entries.keys().copied().collect();
        v.sort();
        v
    }

    /// Bytes of `key` if resident.
    pub fn bytes_of(&self, key: CacheKey) -> Option<u64> {
        self.entries.get(&key).map(|e| e.bytes)
    }

    /// Keys of all pinned entries.
    pub fn pinned_keys(&self) -> Vec<CacheKey> {
        let mut v: Vec<CacheKey> =
            self.entries.iter().filter(|(_, e)| e.pinned).map(|(k, _)| *k).collect();
        v.sort();
        v
    }

    /// Drop every resident copy (whole or partitioned, pinned or not) of
    /// `column_id` staged under an epoch older than `current_epoch`.
    ///
    /// This is the append-invalidation primitive: an append bumps the
    /// column's epoch, so anything staged under an earlier epoch is a
    /// stale prefix copy. Entries for other columns are untouched —
    /// appends invalidate only the columns they touch. Returns the
    /// dropped `(key, bytes)` pairs, sorted by key.
    pub fn invalidate_column(
        &mut self,
        column_id: u32,
        current_epoch: u64,
    ) -> Vec<(CacheKey, u64)> {
        let stale: Vec<CacheKey> = self
            .entries
            .keys()
            .filter(|k| k.column_id() == column_id && k.epoch() < current_epoch)
            .copied()
            .collect();
        let mut dropped = Vec::with_capacity(stale.len());
        for k in stale {
            let e = self.entries.remove(&k).expect("stale key is resident");
            self.used -= e.bytes;
            dropped.push((k, e.bytes));
        }
        dropped.sort();
        dropped
    }

    /// Remove everything, including pinned entries.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.used = 0;
    }
}

/// One [`DataCache`] per co-processor of a topology.
///
/// Callers that persist cache state across runs (the data-driven
/// strategies warm their pins once per workload) hold a `CacheSet` and
/// hand it to the executor, which routes every probe/insert to the
/// cache of the device the operator landed on.
#[derive(Debug, Clone)]
pub struct CacheSet {
    /// `caches[k]` belongs to co-processor `k + 1`.
    caches: Vec<DataCache>,
}

impl CacheSet {
    /// Empty caches sized from each co-processor's `cache_bytes`.
    pub fn for_topology(topology: &crate::topology::Topology, policy: CachePolicy) -> Self {
        CacheSet {
            caches: topology
                .coprocessors()
                .map(|d| DataCache::new(topology.spec(d).cache_bytes, policy))
                .collect(),
        }
    }

    /// Number of caches (= co-processors).
    pub fn len(&self) -> usize {
        self.caches.len()
    }

    /// Whether the set holds no caches (CPU-only topology).
    pub fn is_empty(&self) -> bool {
        self.caches.is_empty()
    }

    /// The cache of co-processor `device`.
    ///
    /// # Panics
    /// Panics for the CPU (it has no column cache) or an unknown device.
    pub fn device(&self, device: crate::device::DeviceId) -> &DataCache {
        assert!(device.is_coprocessor(), "the CPU has no column cache");
        &self.caches[device.index() - 1]
    }

    /// Mutable access to co-processor `device`'s cache.
    pub fn device_mut(&mut self, device: crate::device::DeviceId) -> &mut DataCache {
        assert!(device.is_coprocessor(), "the CPU has no column cache");
        &mut self.caches[device.index() - 1]
    }

    /// `(device, cache)` pairs in dense device order.
    pub fn iter(&self) -> impl Iterator<Item = (crate::device::DeviceId, &DataCache)> {
        self.caches
            .iter()
            .enumerate()
            .map(|(i, c)| (crate::device::DeviceId::from_index(i + 1), c))
    }

    /// Mutable `(device, cache)` pairs in dense device order.
    pub fn iter_mut(
        &mut self,
    ) -> impl Iterator<Item = (crate::device::DeviceId, &mut DataCache)> {
        self.caches
            .iter_mut()
            .enumerate()
            .map(|(i, c)| (crate::device::DeviceId::from_index(i + 1), c))
    }

    /// Fleet-wide eviction counts broken down by reason.
    pub fn eviction_reasons(&self) -> EvictionReasons {
        self.caches.iter().fold(EvictionReasons::default(), |a, c| {
            let e = c.eviction_reasons();
            EvictionReasons {
                for_insert: a.for_insert + e.for_insert,
                for_pin: a.for_pin + e.for_pin,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: u64) -> CacheKey {
        CacheKey(v)
    }

    #[test]
    fn insert_and_probe() {
        let mut c = DataCache::new(100, CachePolicy::Lru);
        assert!(c.insert(k(1), 40).inserted);
        assert!(c.probe(k(1)));
        assert!(!c.probe(k(2)));
        assert_eq!(c.hit_miss(), (1, 1));
        assert_eq!(c.used(), 40);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = DataCache::new(100, CachePolicy::Lru);
        c.insert(k(1), 40);
        c.insert(k(2), 40);
        c.probe(k(1)); // 2 is now least recent
        let out = c.insert(k(3), 40);
        assert!(out.inserted);
        assert_eq!(out.evicted, vec![(k(2), 40)]);
        assert!(c.contains(k(1)) && c.contains(k(3)));
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut c = DataCache::new(100, CachePolicy::Lfu);
        c.insert(k(1), 40);
        c.insert(k(2), 40);
        c.probe(k(1));
        c.probe(k(1));
        c.probe(k(2)); // counts: 1 -> 3, 2 -> 2
        let out = c.insert(k(3), 40);
        assert_eq!(out.evicted, vec![(k(2), 40)]);
    }

    #[test]
    fn oversized_insert_refused_without_damage() {
        let mut c = DataCache::new(100, CachePolicy::Lru);
        c.insert(k(1), 60);
        let out = c.insert(k(2), 150);
        assert!(!out.inserted);
        assert!(out.evicted.is_empty());
        assert!(c.contains(k(1)));
        assert_eq!(c.used(), 60);
    }

    #[test]
    fn reinserting_resident_key_is_a_hit() {
        let mut c = DataCache::new(100, CachePolicy::Lru);
        c.insert(k(1), 60);
        let out = c.insert(k(1), 60);
        assert!(out.inserted);
        assert!(out.evicted.is_empty());
        assert_eq!(c.used(), 60);
    }

    #[test]
    fn pinning_replaces_the_pinned_set() {
        let mut c = DataCache::new(100, CachePolicy::Lru);
        let (cached, evicted) = c.set_pinned(&[(k(1), 30), (k(2), 30)]);
        assert_eq!(cached, vec![k(1), k(2)]);
        assert!(evicted.is_empty());
        assert_eq!(c.pinned_keys(), vec![k(1), k(2)]);

        let (cached, evicted) = c.set_pinned(&[(k(2), 30), (k(3), 50)]);
        assert_eq!(cached, vec![k(3)]);
        assert_eq!(evicted, vec![k(1)]);
        assert_eq!(c.used(), 80);
    }

    #[test]
    fn repinning_the_pinned_set_changes_nothing() {
        let mut c = DataCache::new(100, CachePolicy::Lru);
        c.insert(k(9), 20);
        c.set_pinned(&[(k(1), 30), (k(2), 30)]);
        let state = |c: &DataCache| (c.eviction_reasons(), c.used(), c.tick, c.resident_keys());
        let before = state(&c);
        // In another order, too: the set is what counts.
        for pins in [[(k(1), 30), (k(2), 30)], [(k(2), 30), (k(1), 30)]] {
            assert_eq!(c.set_pinned(&pins), (vec![], vec![]));
            assert_eq!(state(&c), before);
        }
        // A subset, a resize or a superset is a change.
        assert_eq!(c.set_pinned(&[(k(1), 30)]), (vec![], vec![k(2)]));
        assert_eq!(c.set_pinned(&[(k(1), 40)]), (vec![k(1)], vec![k(1)]));
        assert_eq!(c.set_pinned(&[(k(1), 40), (k(3), 10)]), (vec![k(3)], vec![]));
        assert_eq!(c.used(), c.accounted_bytes());
    }

    #[test]
    fn pinned_entries_survive_operator_driven_pressure() {
        let mut c = DataCache::new(100, CachePolicy::Lru);
        c.set_pinned(&[(k(1), 70)]);
        // Unpinned insert fits next to the pin...
        assert!(c.insert(k(2), 30).inserted);
        // ...a second unpinned one evicts only the unpinned entry...
        let out = c.insert(k(3), 25);
        assert!(out.inserted);
        assert_eq!(out.evicted, vec![(k(2), 30)]);
        assert!(c.contains(k(1)));
        // ...and one bigger than capacity-minus-pin is refused outright.
        let out = c.insert(k(4), 40);
        assert!(!out.inserted);
        assert!(c.contains(k(3)));
    }

    #[test]
    fn pinning_a_resident_key_at_a_new_size_recaches_it() {
        let mut c = DataCache::new(1_000, CachePolicy::Lru);
        // Resident unpinned at 450 bytes; the pin declares it at 100.
        assert!(c.insert(k(1), 450).inserted);
        let (cached, evicted) = c.set_pinned(&[(k(1), 100), (k(2), 100)]);
        assert_eq!(cached, vec![k(1), k(2)]);
        assert_eq!(evicted, vec![k(1)]); // dropped at the old size
        assert_eq!(c.bytes_of(k(1)), Some(100));
        assert_eq!(c.used(), 200);
        assert_eq!(c.used(), c.accounted_bytes());
    }

    #[test]
    #[should_panic(expected = "exceeds cache capacity")]
    fn oversized_pin_set_panics() {
        let mut c = DataCache::new(50, CachePolicy::Lfu);
        c.set_pinned(&[(k(1), 60)]);
    }

    #[test]
    fn eviction_reasons_distinguish_insert_from_pin_pressure() {
        let mut c = DataCache::new(100, CachePolicy::Lru);
        c.insert(k(1), 60);
        c.insert(k(2), 60); // evicts 1 for the insert
        assert_eq!(c.eviction_reasons(), EvictionReasons { for_insert: 1, for_pin: 0 });
        c.set_pinned(&[(k(3), 90)]); // evicts 2 to make room for the pin
        assert_eq!(c.eviction_reasons(), EvictionReasons { for_insert: 1, for_pin: 1 });
        c.set_pinned(&[(k(4), 50)]); // drops stale pin 3
        let reasons = c.eviction_reasons();
        assert_eq!(reasons, EvictionReasons { for_insert: 1, for_pin: 2 });
        assert_eq!(reasons.total(), 3);
    }

    #[test]
    fn partition_keys_round_trip_and_never_collide_with_columns() {
        let whole = CacheKey::column(7);
        assert_eq!(whole.column_id(), 7);
        assert_eq!(whole.partition_of(), None);
        for of in [1u32, 2, 4, 8] {
            for index in 0..of {
                let p = CacheKey::partition(7, index, of);
                assert_eq!(p.column_id(), 7);
                assert_eq!(p.partition_of(), Some((index, of)));
                assert_ne!(p, whole);
                assert_ne!(p, CacheKey::partition(8, index, of));
            }
        }
        // Distinct (index, of) pairs are distinct keys.
        assert_ne!(CacheKey::partition(7, 0, 2), CacheKey::partition(7, 0, 4));
        assert_ne!(CacheKey::partition(7, 0, 4), CacheKey::partition(7, 1, 4));
    }

    #[test]
    fn epoch0_keys_match_the_pre_epoch_encoding() {
        // Batch goldens depend on this: a never-appended database keys
        // its cache exactly as before epochs existed.
        assert_eq!(CacheKey::column_at(7, 0), CacheKey(7));
        assert_eq!(CacheKey::column_at(7, 0), CacheKey::column(7));
        assert_eq!(CacheKey::partition_at(7, 1, 4, 0), CacheKey::partition(7, 1, 4));
        assert_eq!(CacheKey::column(7).epoch(), 0);
        assert_eq!(CacheKey::partition(7, 1, 4).epoch(), 0);
    }

    #[test]
    fn epoch_keys_round_trip_and_stay_disjoint() {
        for epoch in [0u64, 1, 2, 1000, 16_000] {
            let w = CacheKey::column_at(9, epoch);
            assert_eq!(w.column_id(), 9);
            assert_eq!(w.epoch(), epoch);
            assert_eq!(w.partition_of(), None);
            let p = CacheKey::partition_at(9, 3, 8, epoch);
            assert_eq!(p.column_id(), 9);
            assert_eq!(p.epoch(), epoch);
            assert_eq!(p.partition_of(), Some((3, 8)));
            assert_ne!(w, p);
            if epoch > 0 {
                assert_ne!(w, CacheKey::column(9));
                assert_ne!(p, CacheKey::partition(9, 3, 8));
            }
        }
        // Max partition count and max partition epoch coexist.
        let p = CacheKey::partition_at(u32::MAX, 255, 256, (1 << 14) - 1);
        assert_eq!(p.column_id(), u32::MAX);
        assert_eq!(p.partition_of(), Some((255, 256)));
        assert_eq!(p.epoch(), (1 << 14) - 1);
    }

    #[test]
    fn invalidation_drops_only_stale_copies_of_the_column() {
        let mut c = DataCache::new(1_000, CachePolicy::Lru);
        c.insert(CacheKey::column_at(1, 0), 100);
        c.insert(CacheKey::partition_at(1, 0, 2, 0), 50);
        c.insert(CacheKey::column_at(2, 0), 200); // other column
        c.set_pinned(&[(CacheKey::column_at(3, 0), 80)]);
        let dropped = c.invalidate_column(1, 5);
        assert_eq!(
            dropped,
            vec![
                (CacheKey::column_at(1, 0), 100),
                (CacheKey::partition_at(1, 0, 2, 0), 50),
            ]
        );
        // Untouched columns survive — appends invalidate only what they
        // touch.
        assert!(c.contains(CacheKey::column_at(2, 0)));
        assert!(c.contains(CacheKey::column_at(3, 0)));
        assert_eq!(c.used(), 280);
        assert_eq!(c.used(), c.accounted_bytes());
        // Current-epoch copies are not stale.
        c.insert(CacheKey::column_at(1, 5), 100);
        assert!(c.invalidate_column(1, 5).is_empty());
        assert!(c.contains(CacheKey::column_at(1, 5)));
    }

    #[test]
    fn partition_bytes_sum_to_the_whole() {
        for full in [0u64, 1, 7, 1_000, 65_537] {
            for of in [1u32, 2, 3, 4, 7] {
                let total: u64 =
                    (0..of).map(|i| partition_bytes(full, i, of)).sum();
                assert_eq!(total, full, "full={full} of={of}");
            }
        }
    }

    #[test]
    fn clear_resets() {
        let mut c = DataCache::new(100, CachePolicy::Lru);
        c.set_pinned(&[(k(1), 50)]);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn cache_set_is_per_coprocessor() {
        use crate::device::{DeviceId, DeviceSpec};
        use crate::link::LinkParams;
        use crate::topology::Topology;

        let t = Topology::cpu_gpu(
            DeviceSpec::cpu(4),
            DeviceSpec::coprocessor(4, 1_000, 600),
            LinkParams::default(),
        )
        .with_coprocessor(DeviceSpec::coprocessor(4, 1_000, 300), LinkParams::default());
        let mut set = CacheSet::for_topology(&t, CachePolicy::Lru);
        assert_eq!(set.len(), 2);
        assert_eq!(set.device(DeviceId::Gpu).capacity(), 600);
        assert_eq!(set.device(DeviceId::coprocessor(2)).capacity(), 300);

        set.device_mut(DeviceId::Gpu).insert(k(1), 100);
        assert!(set.device(DeviceId::Gpu).contains(k(1)));
        assert!(!set.device(DeviceId::coprocessor(2)).contains(k(1)));
        assert_eq!(
            set.iter().map(|(d, _)| d).collect::<Vec<_>>(),
            vec![DeviceId::Gpu, DeviceId::coprocessor(2)]
        );
    }

    #[test]
    #[should_panic(expected = "no column cache")]
    fn cache_set_rejects_cpu() {
        use crate::device::{DeviceId, DeviceSpec};
        use crate::link::LinkParams;
        use crate::topology::Topology;

        let t = Topology::cpu_gpu(
            DeviceSpec::cpu(1),
            DeviceSpec::coprocessor(1, 100, 50),
            LinkParams::default(),
        );
        let set = CacheSet::for_topology(&t, CachePolicy::Lru);
        let _ = set.device(DeviceId::Cpu);
    }
}
