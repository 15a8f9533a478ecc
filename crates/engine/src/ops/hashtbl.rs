//! Specialized hash containers for the hot join/aggregation paths.
//!
//! The reference kernels use `std::collections::HashMap`, which is exactly
//! right for a readable baseline but pays SipHash per lookup and (for the
//! join build) one heap-allocated `Vec<u32>` per distinct key. The
//! production kernels use these containers instead:
//!
//! * [`JoinTable`] — canonical 64-bit join keys to build rows in two flat
//!   `u32` arrays over the caller's key buffer (no per-key `Vec`s, no key
//!   copy): addressed directly by `key − min` when the key range is small
//!   against the rows at hand, by multiply-shift hash and chains
//!   otherwise. Matches stream out in build-row order, exactly the order
//!   `HashMap<u64, Vec<u32>>` produces, so probes are bit-identical to the
//!   reference.
//! * [`FastMap`] — an open-addressing `key -> group id` map (linear
//!   probing, power-of-two capacity) for grouping; full keys are stored
//!   and compared, so hash mixing affects speed only, never results.
//!
//! Both hash with Fibonacci multiply-shift (`key * 2^64/φ`, top bits):
//! one multiply per lookup, and the golden-ratio constant scatters the
//! low-entropy keys (float bit patterns, yyyymmdd dates, packed group
//! keys) that direct addressing leaves to them.

/// Fibonacci hashing constant: `floor(2^64 / φ)`, odd.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn mix(k: u64) -> u64 {
    k.wrapping_mul(PHI)
}

/// Canonical join keys to build-row positions, as flat arrays over the
/// caller's key buffer.
///
/// A key's slot is `(key − min) × mul >> shift`. When the keys' range (as
/// signed values, so small negative integers sit next to zero) is below
/// the build rows plus the rows about to be probed, slots are **addressed
/// directly** — `mul = 1, shift = 0`, one slot per key value and one past
/// the range that stays empty, into which every key outside the range is
/// clamped, so a lookup is one load with no data-dependent branch — and
/// the table costs O(build + probed) to set up whatever the keys are.
/// Otherwise (float bit patterns, sparse keys such as yyyymmdd dates under
/// a small probe) slots are the top bits of a multiply-shift hash over
/// `2 × build` buckets and a lookup compares keys along the bucket's
/// chain.
///
/// Equal-key matches come out in **increasing build-row order** — the
/// contract the join kernel relies on for bit-identity with the
/// `HashMap<u64, Vec<u32>>` reference (which pushes rows in scan order):
/// chains are built by prepending while scanning the build side in
/// *reverse*.
pub(crate) struct JoinTable<'a> {
    /// Build key by build row.
    keys: &'a [u64],
    min: u64,
    mul: u64,
    shift: u32,
    /// First build row + 1 per slot; 0 = empty. The last slot of a directly
    /// addressed table lies past the key range and is never filled.
    heads: Vec<u32>,
    /// Next build row + 1 in the same slot, by build row; 0 = chain end.
    next: Vec<u32>,
    /// Directly addressed and no key repeats: a slot holds the one build
    /// row of its key value, so [`JoinTable::exact`] is the whole lookup.
    exact: bool,
}

impl<'a> JoinTable<'a> {
    /// Index the build keys for a probe of `probed` rows.
    pub(crate) fn build(keys: &'a [u64], probed: usize) -> JoinTable<'a> {
        let (lo, hi) = keys
            .iter()
            .fold((i64::MAX, i64::MIN), |(lo, hi), &k| (lo.min(k as i64), hi.max(k as i64)));
        // `hi − lo` of two `i64`s always fits a `u64` (no keys: wraps to 1).
        let span = hi.wrapping_sub(lo) as u64;
        let direct = span < (keys.len() + probed) as u64;
        let (min, mul, shift, slots) = if direct {
            (lo as u64, 1, 0, span as usize + 2)
        } else {
            let buckets = (keys.len() * 2).next_power_of_two().max(16);
            (0, PHI, 64 - buckets.trailing_zeros(), buckets)
        };
        let mut t = JoinTable {
            keys,
            min,
            mul,
            shift,
            heads: vec![0; slots],
            next: vec![0; keys.len()],
            exact: direct,
        };
        for (row, &k) in keys.iter().enumerate().rev() {
            let slot = t.slot(k);
            t.exact &= t.heads[slot] == 0;
            t.next[row] = t.heads[slot];
            t.heads[slot] = row as u32 + 1;
        }
        t
    }

    #[inline(always)]
    fn slot(&self, k: u64) -> usize {
        (k.wrapping_sub(self.min).wrapping_mul(self.mul) >> self.shift) as usize
    }

    /// The lookup that answers a probe by itself, if this table is exact:
    /// the one build row matching a key, plus one; 0 if there is none. A
    /// key outside the range is clamped into the empty slot past it, so a
    /// lookup is one load with no data-dependent branch. (An exact table
    /// always has that slot; testing for it here is what lets the compiler
    /// drop the load's bounds check. No multiply and shift either: `slot`
    /// spends them on serving both addressings, a fifth of the dense
    /// probe's time.)
    #[inline]
    pub(crate) fn exact(&self) -> Option<impl Fn(u64) -> u32 + Sync + '_> {
        let (heads, min) = (self.heads.as_slice(), self.min);
        if !self.exact || heads.is_empty() {
            return None;
        }
        let last = heads.len() - 1;
        Some(move |k: u64| heads[(k.wrapping_sub(min) as usize).min(last)])
    }

    /// First build row + 1 in `k`'s slot; 0 if the slot is empty or `k`
    /// lies outside the addressed range.
    #[inline(always)]
    fn head(&self, k: u64) -> u32 {
        self.heads.get(self.slot(k)).copied().unwrap_or(0)
    }

    /// Visit the build rows matching `k`, in increasing build-row order.
    #[inline]
    pub(crate) fn for_each_match(&self, k: u64, mut f: impl FnMut(u32)) {
        let mut e = self.head(k);
        while e != 0 {
            let row = (e - 1) as usize;
            if self.keys[row] == k {
                f(row as u32);
            }
            e = self.next[row];
        }
    }

    /// True if any build row has key `k`.
    #[inline]
    pub(crate) fn contains(&self, k: u64) -> bool {
        let mut e = self.head(k);
        while e != 0 {
            let row = (e - 1) as usize;
            if self.keys[row] == k {
                return true;
            }
            e = self.next[row];
        }
        false
    }
}

/// A grouping key the open-addressing map can hash and compare.
pub(crate) trait FastKey: Copy + PartialEq {
    /// Mix into a 64-bit hash; the map takes top bits for the slot.
    fn mixed(self) -> u64;
}

impl FastKey for u64 {
    #[inline]
    fn mixed(self) -> u64 {
        mix(self)
    }
}

impl FastKey for (u64, u64) {
    #[inline]
    fn mixed(self) -> u64 {
        // Mix the halves with distinct odd constants before combining so
        // (a, b) and (b, a) land apart.
        mix(self.0.wrapping_mul(PHI) ^ self.1.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
    }
}

/// Open-addressing `key -> u32` map with linear probing.
///
/// Slots hold entry indices (+1; 0 = empty) into flat `keys`/`vals`
/// arrays, so rehashing on growth moves only the `u32` slots — values and
/// their insertion order never move, which is what keeps first-occurrence
/// group numbering stable across growth.
pub(crate) struct FastMap<K: FastKey> {
    shift: u32,
    /// Entry index + 1 per slot; 0 = empty.
    slots: Vec<u32>,
    keys: Vec<K>,
    vals: Vec<u32>,
}

impl<K: FastKey> FastMap<K> {
    /// A map that holds `keys` keys before it grows.
    pub(crate) fn with_capacity(keys: usize) -> FastMap<K> {
        let cap = (2 * keys).next_power_of_two().max(16);
        FastMap {
            shift: 64 - cap.trailing_zeros(),
            slots: vec![0; cap],
            keys: Vec::with_capacity(keys),
            vals: Vec::with_capacity(keys),
        }
    }

    /// Number of keys inserted so far.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Value for `key`, inserting `make()` on first sight.
    #[inline]
    pub(crate) fn get_or_insert(
        &mut self,
        key: K,
        make: impl FnOnce() -> u32,
    ) -> u32 {
        let mask = self.slots.len() - 1;
        let mut i = (key.mixed() >> self.shift) as usize;
        loop {
            let e = self.slots[i];
            if e == 0 {
                let v = make();
                self.keys.push(key);
                self.vals.push(v);
                self.slots[i] = self.keys.len() as u32;
                if self.keys.len() * 2 > self.slots.len() {
                    self.grow();
                }
                return v;
            }
            let idx = (e - 1) as usize;
            if self.keys[idx] == key {
                return self.vals[idx];
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the slot array and rehash entry indices (entries stay put).
    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        self.shift = 64 - cap.trailing_zeros();
        let mut slots = vec![0u32; cap];
        let mask = cap - 1;
        for (idx, key) in self.keys.iter().enumerate() {
            let mut i = (key.mixed() >> self.shift) as usize;
            while slots[i] != 0 {
                i = (i + 1) & mask;
            }
            slots[i] = idx as u32 + 1;
        }
        self.slots = slots;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn join_table_matches_reference_order() {
        // Keys with duplicates, a never-matching sentinel neighborhood,
        // and values that collide in low bits.
        let bkeys: Vec<u64> =
            (0..1000).map(|i| (i % 37) * 1024).chain([u64::MAX - 1]).collect();
        let mut reference: HashMap<u64, Vec<u32>> = HashMap::new();
        for (i, &k) in bkeys.iter().enumerate() {
            reference.entry(k).or_default().push(i as u32);
        }
        // Hashed while the keys (−2 ..= 36 × 1024) span more than the rows
        // at hand, directly addressed under a probe as long as the span:
        // a slot per key value and the empty one past them.
        for probed in [0, 40 * 1024] {
            let table = JoinTable::build(&bkeys, probed);
            assert!(table.exact().is_none(), "keys repeat");
            assert_eq!(table.heads.len() == 36 * 1024 + 4, probed > 0);
            check(&table, &reference);
        }
    }

    fn check(table: &JoinTable<'_>, reference: &HashMap<u64, Vec<u32>>) {
        for probe in (0..40).map(|i| i * 1024).chain([u64::MAX - 1, u64::MAX, 5, 36 * 1024 + 1]) {
            let mut got = Vec::new();
            table.for_each_match(probe, |r| got.push(r));
            let want = reference.get(&probe).cloned().unwrap_or_default();
            assert_eq!(got, want, "key {probe}");
            assert_eq!(table.contains(probe), !want.is_empty());
        }
    }

    #[test]
    fn join_table_empty() {
        for probed in [0, 100] {
            let table = JoinTable::build(&[], probed);
            assert!(!table.contains(0));
            assert!(!table.contains(u64::MAX));
            table.for_each_match(0, |_| panic!("no matches in an empty table"));
        }
    }

    /// Direct addressing is decided by the signed key span against the
    /// rows at hand, and is exact only while no key repeats.
    #[test]
    fn join_table_addresses_small_spans_directly() {
        let keys: Vec<u64> = [-1i64, 0, 1, 7].iter().map(|&k| k as u64).collect();
        // span 8: direct from build + probed = 9 rows on.
        assert_eq!(JoinTable::build(&keys, 4).mul, PHI);
        let table = JoinTable::build(&keys, 5);
        let only = table.exact().expect("unique keys, addressed directly");
        assert_eq!((table.mul, table.heads.len()), (1, 10));
        for (row, &k) in keys.iter().enumerate() {
            assert_eq!(only(k), row as u32 + 1);
        }
        for miss in [-2i64, 2, 6, 8, i64::MIN, i64::MAX] {
            assert_eq!(only(miss as u64), 0, "key {miss}");
            assert!(!table.contains(miss as u64));
        }
        // The full signed range never is, and its lookups still work.
        let ends = [i64::MIN as u64, i64::MAX as u64, u64::MAX];
        let table = JoinTable::build(&ends, usize::MAX / 2);
        assert!(table.exact().is_none());
        assert!(table.contains(u64::MAX) && !table.contains(0));
    }

    /// Every key outside an exact table's range — next to either end, far
    /// off, across the signed wrap — reads the empty slot past the range.
    #[test]
    fn exact_table_clamps_keys_outside_its_range_into_the_empty_slot() {
        for base in [100i64, -5, i64::MIN, i64::MAX - 40] {
            let keys: Vec<u64> =
                [17i64, 0, 40, 3, 29].iter().map(|&k| base.wrapping_add(k) as u64).collect();
            let table = JoinTable::build(&keys, 64);
            let only = table.exact().expect("unique keys, addressed directly");
            assert_eq!(table.heads.len(), 42);
            assert_eq!(table.heads.last(), Some(&0));
            for (row, &k) in keys.iter().enumerate() {
                assert_eq!(only(k), row as u32 + 1, "base {base}");
            }
            let (min, max) = (base, base.wrapping_add(40));
            let outside = [min.wrapping_sub(1), max.wrapping_add(1), max.wrapping_add(2)]
                .map(|k| k as u64)
                .into_iter()
                .chain([0, u64::MAX, i64::MIN as u64, i64::MAX as u64]);
            for miss in outside {
                if !keys.contains(&miss) {
                    assert_eq!(only(miss), 0, "base {base}, key {}", miss as i64);
                    assert!(!table.contains(miss));
                }
            }
        }
    }

    #[test]
    fn fast_map_assigns_first_occurrence_ids_across_growth() {
        let mut map: FastMap<u64> = FastMap::with_capacity(0);
        let mut reference: HashMap<u64, u32> = HashMap::new();
        let mut next = 0u32;
        // Enough distinct keys to force several growths.
        for i in 0..50_000u64 {
            let key = (i * i) % 9973;
            let want = *reference.entry(key).or_insert_with(|| {
                let v = next;
                next += 1;
                v
            });
            let got = map.get_or_insert(key, || want);
            assert_eq!(got, want, "key {key}");
        }
    }

    #[test]
    fn fast_map_pair_keys_do_not_conflate() {
        let mut map: FastMap<(u64, u64)> = FastMap::with_capacity(0);
        assert_eq!(map.get_or_insert((1, 2), || 0), 0);
        assert_eq!(map.get_or_insert((2, 1), || 1), 1);
        assert_eq!(map.get_or_insert((1, 2), || 99), 0);
    }
}
