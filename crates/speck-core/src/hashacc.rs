//! The adaptable hash accumulator (paper §4.3, Fig. 4).
//!
//! A scratchpad hash map with linear probing. Keys are compound "local row
//! | column" indices (5 + 27 bits when B's columns fit 2^27, 64-bit
//! otherwise — the arithmetic is done in `u64` either way; the width only
//! changes the *capacity* via the entry size in [`crate::cascade`]).
//!
//! When the local map can no longer guarantee that a whole group insert
//! succeeds, all entries move to a *global* hash map and accumulation
//! continues there — the paper's global fallback pool (§4.3). Every probe,
//! insert and spilled element is counted so the cost model can price it.
//!
//! The simulated map is the paper's; the host bookkeeping around it only
//! has to reproduce its counters exactly, and is built to cost as little
//! as possible per block:
//!
//! - **Occupied-slot list.** Value inserts list the slots they fill, in
//!   insertion order, so [`Accumulator::reset`], spilling, draining and
//!   [`Accumulator::counts_per_local_row`] walk only those slots; no path
//!   sweeps the full capacity of a sparse map. A map at least a quarter
//!   full is cleared by one sequential fill instead, and key-only
//!   (symbolic) inserts skip the list: their maps are never drained and
//!   mostly dense, where the list costs more than it saves.
//! - **Row-bucketed drain.** [`Accumulator::drain_rows`] counts the
//!   entries per local row, scatters them into row segments and sorts each
//!   segment in place, emitting the numeric kernel's flat
//!   (columns, values, per-row counts) output directly.
//! - **Current-row column index.** [`Accumulator::insert_indexed`] keeps a
//!   small direct-mapped table from column to (slot, displacement) for the
//!   row being filled. Linear probing never moves a placed key and the map
//!   never deletes, so a repeated key is always found exactly its recorded
//!   displacement past its home slot: a table hit charges that
//!   displacement without walking, and a miss walks as usual. Probe counts
//!   are therefore identical with or without the table.

use speck_sparse::Scalar;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the hash function: the paper multiplies the element index
/// by a prime and takes the modulo of the map size. 2^32 - 5 is prime.
const HASH_PRIME: u64 = 4_294_967_291;

/// Sentinel for an empty slot.
const EMPTY: u64 = u64::MAX;

/// Drained rows up to this length are sorted by insertion sort (a
/// stencil row's few dozen entries sort fastest that way).
const INSERTION_SORT_MAX: usize = 32;

/// Builds the compound key for (local row, column) — 5 bits of row, the
/// rest column (paper limits blocks to 32 rows so 5 bits suffice).
#[inline]
pub fn compound_key(local_row: u32, col: u32) -> u64 {
    debug_assert!(local_row < 32, "blocks hold at most 32 rows");
    ((local_row as u64) << 59) | col as u64
}

/// Splits a compound key back into (local row, column).
#[inline]
pub fn split_key(key: u64) -> (u32, u32) {
    ((key >> 59) as u32, (key & ((1u64 << 59) - 1)) as u32)
}

/// Counters the kernels feed into the cost model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccStats {
    /// Scratchpad insert attempts (each a shared-memory atomic).
    pub smem_inserts: u64,
    /// Linear-probe steps beyond the first slot.
    pub probes: u64,
    /// Entries moved from the local to the global map.
    pub spilled: u64,
    /// Inserts performed directly in the global map (each a global atomic).
    pub gmem_inserts: u64,
}

/// Deterministic trivial hasher for the global fallback map (keys are
/// already well-mixed compound indices; avoid SipHash overhead).
#[derive(Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("KeyHasher only hashes u64 keys");
    }
    fn write_u64(&mut self, i: u64) {
        self.0 = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type GlobalMap<V> = HashMap<u64, V, BuildHasherDefault<KeyHasher>>;

/// One entry of the current-row column index.
#[derive(Clone, Copy, Debug, Default)]
struct IndexEntry {
    /// `generation << 32 | column`; generation 0 never matches.
    tag: u64,
    slot: u32,
    /// Probe steps from the key's home slot to `slot`.
    disp: u32,
}

/// Direct-mapped column → (slot, displacement) table for the local row
/// being filled by [`Accumulator::insert_indexed`]. Every row start
/// (after a row change, a reset or a spill) opens a new generation, which
/// invalidates all entries without clearing the table.
#[derive(Debug)]
struct RowIndex {
    entries: Vec<IndexEntry>,
    /// `log2` of the table size in use (at least `2 * capacity`).
    bits: u32,
    generation: u32,
    /// Local row the live entries belong to; [`NO_ROW`] after a forget.
    row: u32,
}

/// [`RowIndex::row`] when no row is indexed.
const NO_ROW: u32 = u32::MAX;

impl RowIndex {
    fn new() -> Self {
        Self {
            entries: Vec::new(),
            bits: 0,
            generation: 0,
            row: NO_ROW,
        }
    }

    /// Invalidates every entry.
    fn forget(&mut self) {
        self.row = NO_ROW;
    }

    /// Starts indexing `row` in a map of `capacity` slots.
    fn start_row(&mut self, row: u32, capacity: usize) {
        let size = (2 * capacity).next_power_of_two();
        if self.entries.len() < size {
            self.entries.resize(size, IndexEntry::default());
        }
        self.bits = size.trailing_zeros();
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: old tags could match again, so clear them once.
            self.entries.fill(IndexEntry::default());
            self.generation = 1;
        }
        self.row = row;
    }

    /// Table position of `col` (Fibonacci hashing).
    #[inline]
    fn position(&self, col: u32) -> usize {
        ((col as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - self.bits)) as usize
    }

    #[inline]
    fn tag(&self, col: u32) -> u64 {
        (self.generation as u64) << 32 | col as u64
    }
}

/// Hash accumulator with scratchpad storage and global spill.
#[derive(Debug)]
pub struct Accumulator<V> {
    /// Slot keys; at least `capacity` long, and slots past `capacity`
    /// stay [`EMPTY`].
    keys: Vec<u64>,
    vals: Vec<V>,
    /// Slots placed by value inserts, in insertion order. Key-only
    /// inserts do not list theirs; the list is complete while its length
    /// equals `local_len`.
    occupied: Vec<u32>,
    /// Keys stored locally.
    local_len: usize,
    capacity: usize,
    /// `ceil(2^64 / capacity)` — lets [`Accumulator::slot_of`] reduce the
    /// hash with two multiplies instead of a hardware divide (exact for
    /// any 32-bit hash and capacity; Lemire's fastmod).
    mod_magic: u64,
    global: Option<GlobalMap<V>>,
    index: RowIndex,
    /// Event counters for the cost model.
    pub stats: AccStats,
}

/// `ceil(2^64 / cap)` for the multiply-based modulo in
/// [`Accumulator::slot_of`].
fn mod_magic(cap: usize) -> u64 {
    assert!(cap > 0 && cap <= u32::MAX as usize);
    // Wraps to 0 for cap == 1, where the product below is 0 == x % 1.
    (u64::MAX / cap as u64).wrapping_add(1)
}

/// Sorts one drained row by key: insertion sort for short rows, the
/// standard unstable sort otherwise (keys are distinct, so both are
/// deterministic).
fn sort_row<V: Copy>(row: &mut [(u64, V)]) {
    if row.len() > INSERTION_SORT_MAX {
        row.sort_unstable_by_key(|&(k, _)| k);
        return;
    }
    for i in 1..row.len() {
        let cur = row[i];
        let mut j = i;
        while j > 0 && row[j - 1].0 > cur.0 {
            row[j] = row[j - 1];
            j -= 1;
        }
        row[j] = cur;
    }
}

impl<V: Scalar> Accumulator<V> {
    /// A local map with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "Accumulator: capacity must be positive");
        Self {
            keys: vec![EMPTY; capacity],
            vals: vec![V::zero(); capacity],
            occupied: Vec::new(),
            local_len: 0,
            capacity,
            mod_magic: mod_magic(capacity),
            global: None,
            index: RowIndex::new(),
            stats: AccStats::default(),
        }
    }

    /// Re-arms the accumulator for a fresh block at `capacity` slots,
    /// reusing the key/value allocations. Equivalent to
    /// `*self = Accumulator::new(capacity)` but without the heap traffic:
    /// only the occupied slots are cleared (stale values are never read —
    /// an insert writes the slot before any read), and the buffers keep
    /// the largest capacity seen. The statistics reset too — they feed
    /// the cost model, and a reused accumulator must charge exactly what a
    /// fresh one would.
    pub fn reset(&mut self, capacity: usize) {
        assert!(capacity > 0, "Accumulator: capacity must be positive");
        self.clear_local();
        if capacity != self.capacity {
            if capacity > self.keys.len() {
                self.keys.resize(capacity, EMPTY);
                self.vals.resize(capacity, V::zero());
            }
            self.capacity = capacity;
            self.mod_magic = mod_magic(capacity);
        }
        self.global = None;
        self.index.forget();
        self.stats = AccStats::default();
    }

    /// True when `occupied` lists every local key.
    fn listed(&self) -> bool {
        self.occupied.len() == self.local_len
    }

    /// Empties the local map. A sparse, fully listed map clears its
    /// listed slots one by one; otherwise one sequential fill of the key
    /// range is cheaper than as many scattered stores.
    fn clear_local(&mut self) {
        if self.listed() && self.local_len * 4 < self.capacity {
            for &s in &self.occupied {
                self.keys[s as usize] = EMPTY;
            }
        } else {
            self.keys[..self.capacity].fill(EMPTY);
        }
        self.occupied.clear();
        self.local_len = 0;
    }

    /// Visits every local slot holding a key: the listed slots when the
    /// list is complete, else a sweep of the key range.
    fn for_each_local_slot(&self, mut f: impl FnMut(usize)) {
        if self.listed() {
            self.occupied.iter().for_each(|&s| f(s as usize));
        } else {
            (0..self.capacity)
                .filter(|&s| self.keys[s] != EMPTY)
                .for_each(f);
        }
    }

    /// Number of distinct keys stored (local + global).
    pub fn len(&self) -> usize {
        self.local_len + self.global.as_ref().map_or(0, |g| g.len())
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Local slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True once the accumulator has fallen back to global memory.
    pub fn spilled_to_global(&self) -> bool {
        self.global.is_some()
    }

    /// Current local fill rate in `[0, 1]`.
    pub fn fill(&self) -> f64 {
        self.local_len as f64 / self.capacity as f64
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        // Multiply-shift before the modulo: `(key * prime) % capacity`
        // alone keeps only the *low* bits of the product, which depend
        // only on the low bits of the key — the compound key's local-row
        // field (bits 59+) would never influence the slot and all rows of
        // a merged block would collide on the same probe clusters. Taking
        // the product's high half first mixes every key bit into the slot.
        let h = key.wrapping_mul(HASH_PRIME).rotate_right(32) ^ key;
        let x = h.wrapping_mul(HASH_PRIME) >> 32;
        // `x % capacity` by Lemire's multiply-based reduction (exact for
        // 32-bit `x`): the hardware divide would dominate the probe loop.
        let m = ((self.mod_magic.wrapping_mul(x) as u128 * self.capacity as u128) >> 64) as usize;
        debug_assert_eq!(m, x as usize % self.capacity);
        m
    }

    /// Walks `key`'s linear-probe sequence: `Ok((slot, steps))` for the
    /// slot that holds the key or the empty slot where it belongs, or
    /// `Err(steps)` once every slot was seen holding another key.
    #[inline]
    fn find_slot(&self, key: u64) -> Result<(usize, u64), u64> {
        let mut slot = self.slot_of(key);
        let mut probes = 0u64;
        loop {
            let k = self.keys[slot];
            if k == key || k == EMPTY {
                return Ok((slot, probes));
            }
            probes += 1;
            slot += 1;
            if slot == self.capacity {
                slot = 0;
            }
            if probes as usize > self.capacity {
                return Err(probes);
            }
        }
    }

    /// Ensures `headroom` more inserts can all land locally; if not,
    /// moves everything to the global map (the paper spills *before*
    /// threads race on the last slots, then continues globally).
    pub fn reserve_or_spill(&mut self, headroom: usize) {
        if self.global.is_some() {
            return;
        }
        if self.local_len + headroom > self.capacity {
            self.spill();
        }
    }

    // The spill and global paths stay out of line: inlined into the
    // insert loops they bloat the hot probe walk measurably.
    #[cold]
    #[inline(never)]
    fn spill(&mut self) {
        let mut g: GlobalMap<V> =
            HashMap::with_capacity_and_hasher(self.capacity * 2, BuildHasherDefault::default());
        self.for_each_local_slot(|s| {
            g.insert(self.keys[s], self.vals[s]);
        });
        self.stats.spilled += self.local_len as u64;
        self.clear_local();
        self.index.forget();
        self.global = Some(g);
    }

    /// Global-map insert (after a spill); returns `true` when the key is
    /// new.
    #[inline(never)]
    fn insert_global(&mut self, key: u64, val: V) -> bool {
        self.stats.gmem_inserts += 1;
        let g = self.global.as_mut().expect("accumulator has spilled");
        match g.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                *e.get_mut() += val;
                false
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(val);
                true
            }
        }
    }

    /// Adds `val` at `slot`, which holds `key` or is the empty slot
    /// where it belongs (listing a newly filled slot); returns `true`
    /// when the key is new.
    #[inline]
    fn add_at(&mut self, slot: usize, key: u64, val: V) -> bool {
        if self.keys[slot] == key {
            self.vals[slot] += val;
            return false;
        }
        self.keys[slot] = key;
        self.vals[slot] = val;
        self.local_len += 1;
        self.occupied.push(slot as u32);
        true
    }

    /// A probe walk of `probes` steps found the local map completely
    /// full: charges the walk, spills and inserts globally.
    #[cold]
    fn overflow(&mut self, probes: u64, key: u64, val: V) -> bool {
        self.stats.probes += probes;
        self.spill();
        self.insert_global(key, val)
    }

    /// Inserts `key` adding `val`; returns `true` when the key is new.
    ///
    /// Call [`Accumulator::reserve_or_spill`] with the group width before
    /// batched inserts; a completely full local map spills automatically
    /// as a safety net.
    pub fn insert(&mut self, key: u64, val: V) -> bool {
        if self.global.is_some() {
            return self.insert_global(key, val);
        }
        self.stats.smem_inserts += 1;
        match self.find_slot(key) {
            Ok((slot, probes)) => {
                self.stats.probes += probes;
                self.add_at(slot, key, val)
            }
            Err(probes) => self.overflow(probes, key, val),
        }
    }

    /// [`Accumulator::insert`] of `(local_row, col)` through the
    /// current-row column index: a column seen before in the same row
    /// charges its recorded displacement and adds `val` without walking
    /// the probe sequence. Charges, return value and map contents are
    /// exactly those of `insert(compound_key(local_row, col), val)`.
    pub fn insert_indexed(&mut self, local_row: u32, col: u32, val: V) -> bool {
        let key = compound_key(local_row, col);
        if self.global.is_some() {
            return self.insert_global(key, val);
        }
        if local_row != self.index.row {
            self.index.start_row(local_row, self.capacity);
        }
        self.stats.smem_inserts += 1;
        let pos = self.index.position(col);
        let tag = self.index.tag(col);
        let e = self.index.entries[pos];
        if e.tag == tag {
            self.stats.probes += e.disp as u64;
            self.vals[e.slot as usize] += val;
            return false;
        }
        match self.find_slot(key) {
            Ok((slot, probes)) => {
                self.stats.probes += probes;
                self.index.entries[pos] = IndexEntry {
                    tag,
                    slot: slot as u32,
                    disp: probes as u32,
                };
                self.add_at(slot, key, val)
            }
            Err(probes) => self.overflow(probes, key, val),
        }
    }

    /// Symbolic insert: records the key only; returns `true` when new.
    ///
    /// Skips the value array entirely — the slot's stale value is fine
    /// because a later *numeric* insert always writes a new slot before
    /// reading it, and the symbolic pass never reads values at all.
    pub fn insert_key(&mut self, key: u64) -> bool {
        if self.global.is_some() {
            return self.insert_global(key, V::zero());
        }
        self.stats.smem_inserts += 1;
        match self.find_slot(key) {
            Ok((slot, probes)) => {
                self.stats.probes += probes;
                if self.keys[slot] == key {
                    false
                } else {
                    // Unlisted: the symbolic pass never drains, and a
                    // dense map clears fastest by a fill anyway.
                    self.keys[slot] = key;
                    self.local_len += 1;
                    true
                }
            }
            Err(probes) => self.overflow(probes, key, V::zero()),
        }
    }

    /// Visits every stored `(key, value)` pair, local then global.
    fn for_each_entry(&self, mut f: impl FnMut(u64, V)) {
        self.for_each_local_slot(|s| f(self.keys[s], self.vals[s]));
        if let Some(g) = &self.global {
            for (&k, &v) in g {
                f(k, v);
            }
        }
    }

    /// Empties the map (local and global), keeping the statistics.
    fn clear(&mut self) {
        self.clear_local();
        self.global = None;
        self.index.forget();
    }

    /// Extracts all `(key, value)` pairs, sorted by key. (Compound keys
    /// sort by local row then column.)
    pub fn drain_sorted(&mut self) -> Vec<(u64, V)> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_entry(|k, v| out.push((k, v)));
        out.sort_unstable_by_key(|&(k, _)| k);
        self.clear();
        out
    }

    /// Drains a block of `n_rows` local rows into flat row-major output:
    /// `(columns, values, per-row counts)`, each row sorted by column —
    /// exactly the numeric kernel's block output. Entries are bucketed by
    /// local row through `entries` (scratch, cleared first) and each row
    /// is sorted in place, so no block-wide sort runs; the columns and
    /// values are then unzipped in one pass each.
    pub fn drain_rows(
        &mut self,
        n_rows: usize,
        entries: &mut Vec<(u64, V)>,
    ) -> (Vec<u32>, Vec<V>, Vec<u32>) {
        assert!(n_rows <= 32, "blocks hold at most 32 rows");
        let mut counts = vec![0u32; n_rows];
        self.for_each_entry(|k, _| counts[split_key(k).0 as usize] += 1);
        let mut next = [0usize; 32];
        let mut total = 0usize;
        for (r, &c) in counts.iter().enumerate() {
            next[r] = total;
            total += c as usize;
        }
        entries.clear();
        entries.resize(total, (0, V::zero()));
        self.for_each_entry(|k, v| {
            let r = split_key(k).0 as usize;
            entries[next[r]] = (k, v);
            next[r] += 1;
        });
        let mut start = 0usize;
        for &c in &counts {
            sort_row(&mut entries[start..start + c as usize]);
            start += c as usize;
        }
        let cols = entries.iter().map(|&(k, _)| split_key(k).1).collect();
        let vals = entries.iter().map(|&(_, v)| v).collect();
        self.clear();
        (cols, vals, counts)
    }

    /// Counts stored keys per local row (symbolic extraction for blocks of
    /// up to 32 rows).
    pub fn counts_per_local_row(&self, n_rows: usize) -> Vec<u32> {
        let mut counts = vec![0u32; n_rows];
        self.for_each_entry(|k, _| counts[split_key(k).0 as usize] += 1);
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compound_key_roundtrip() {
        for row in [0u32, 1, 17, 31] {
            for col in [0u32, 1, 12345, (1 << 27) - 1, u32::MAX >> 5] {
                let (r, c) = split_key(compound_key(row, col));
                assert_eq!((r, c), (row, col));
            }
        }
    }

    #[test]
    fn compound_keys_sort_row_major() {
        let a = compound_key(0, u32::MAX >> 5);
        let b = compound_key(1, 0);
        assert!(a < b);
        let c = compound_key(1, 5);
        let d = compound_key(1, 6);
        assert!(c < d);
    }

    #[test]
    fn insert_accumulates_values() {
        let mut acc: Accumulator<f64> = Accumulator::new(16);
        assert!(acc.insert(compound_key(0, 3), 1.0));
        assert!(!acc.insert(compound_key(0, 3), 2.5));
        assert!(acc.insert(compound_key(0, 4), 1.0));
        assert_eq!(acc.len(), 2);
        let out = acc.drain_sorted();
        assert_eq!(out[0], (compound_key(0, 3), 3.5));
        assert_eq!(out[1], (compound_key(0, 4), 1.0));
    }

    #[test]
    fn probes_counted_on_collision() {
        // Capacity 2: two distinct keys with same slot must probe.
        let mut acc: Accumulator<f64> = Accumulator::new(2);
        acc.insert(0, 1.0);
        acc.insert(2, 1.0); // 0 and 2 both even * prime % 2 -> same parity slot
        assert!(acc.stats.probes >= 1 || acc.len() == 2);
        assert_eq!(acc.len(), 2);
    }

    #[test]
    fn reserve_or_spill_moves_to_global() {
        let mut acc: Accumulator<f64> = Accumulator::new(8);
        for i in 0..6 {
            acc.insert(i, 1.0);
        }
        assert!(!acc.spilled_to_global());
        acc.reserve_or_spill(4); // 6 + 4 > 8 -> spill
        assert!(acc.spilled_to_global());
        assert_eq!(acc.stats.spilled, 6);
        // Continue inserting globally; old values survive.
        acc.insert(0, 1.0);
        assert_eq!(acc.stats.gmem_inserts, 1);
        let out = acc.drain_sorted();
        assert_eq!(out.len(), 6);
        assert_eq!(out[0], (0, 2.0));
    }

    #[test]
    fn full_local_map_spills_as_safety_net() {
        let mut acc: Accumulator<f64> = Accumulator::new(4);
        for i in 0..10 {
            acc.insert(i, 1.0);
        }
        assert!(acc.spilled_to_global());
        assert_eq!(acc.len(), 10);
        let out = acc.drain_sorted();
        let keys: Vec<u64> = out.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn counts_per_local_row() {
        let mut acc: Accumulator<f64> = Accumulator::new(32);
        acc.insert_key(compound_key(0, 1));
        acc.insert_key(compound_key(0, 2));
        acc.insert_key(compound_key(2, 1));
        acc.insert_key(compound_key(2, 1)); // duplicate
        let counts = acc.counts_per_local_row(3);
        assert_eq!(counts, vec![2, 0, 1]);
    }

    #[test]
    fn counts_include_global_entries() {
        let mut acc: Accumulator<f64> = Accumulator::new(4);
        for c in 0..10u32 {
            acc.insert_key(compound_key(1, c));
        }
        assert!(acc.spilled_to_global());
        let counts = acc.counts_per_local_row(2);
        assert_eq!(counts, vec![0, 10]);
    }

    #[test]
    fn drain_matches_btreemap_oracle() {
        use std::collections::BTreeMap;
        let mut acc: Accumulator<f64> = Accumulator::new(64);
        let mut oracle: BTreeMap<u64, f64> = BTreeMap::new();
        let mut state = 99u64;
        for _ in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = compound_key(((state >> 40) % 32) as u32, ((state >> 8) % 50) as u32);
            let val = ((state % 17) as f64) - 8.0;
            acc.insert(key, val);
            *oracle.entry(key).or_insert(0.0) += val;
        }
        let out = acc.drain_sorted();
        assert_eq!(out.len(), oracle.len());
        for ((k, v), (ok, ov)) in out.iter().zip(oracle.iter()) {
            assert_eq!(k, ok);
            assert!((v - ov).abs() < 1e-9);
        }
    }

    #[test]
    fn indexed_insert_charges_like_plain_insert() {
        // Capacity 8 with 40 columns: collisions, hits and a spill.
        let mut plain: Accumulator<f64> = Accumulator::new(8);
        let mut indexed: Accumulator<f64> = Accumulator::new(8);
        for (i, row) in [0u32, 0, 1, 1, 0, 2].iter().enumerate() {
            for c in 0..(3 + i as u32) {
                let col = (c * 37 + i as u32) % 11;
                let v = c as f64 + 0.5;
                assert_eq!(
                    plain.insert(compound_key(*row, col), v),
                    indexed.insert_indexed(*row, col, v)
                );
                assert_eq!(plain.stats, indexed.stats);
            }
        }
        assert!(indexed.spilled_to_global());
        assert_eq!(plain.drain_sorted(), indexed.drain_sorted());
    }

    #[test]
    fn drain_rows_matches_drain_sorted() {
        let mut rows: Accumulator<f64> = Accumulator::new(64);
        let mut flat: Accumulator<f64> = Accumulator::new(64);
        let mut entries = Vec::new();
        for i in 0..150u32 {
            let key = compound_key(i * 7 % 5, i * 13 % 40);
            rows.insert(key, i as f64);
            flat.insert(key, i as f64);
        }
        let (cols, vals, counts) = rows.drain_rows(6, &mut entries);
        let sorted = flat.drain_sorted();
        assert_eq!(counts.iter().sum::<u32>() as usize, sorted.len());
        assert_eq!(counts[5], 0);
        let split: Vec<(u32, f64)> = sorted.iter().map(|&(k, v)| (split_key(k).1, v)).collect();
        let drained: Vec<(u32, f64)> = cols.into_iter().zip(vals).collect();
        assert_eq!(drained, split);
        assert!(rows.is_empty());
    }

    #[test]
    fn fill_rate_reported() {
        let mut acc: Accumulator<f64> = Accumulator::new(10);
        for i in 0..5 {
            acc.insert(i, 1.0);
        }
        assert!((acc.fill() - 0.5).abs() < 1e-12);
    }
}
