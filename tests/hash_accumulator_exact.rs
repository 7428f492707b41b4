//! Cost-exactness of the hash accumulator's host bookkeeping.
//!
//! The occupied-slot list, the row-bucketed drain and the current-row
//! column index only change how the host reproduces the simulated map, so
//! every charge must match a plain linear-probing map. The reference map
//! below is that plain algorithm (full-capacity sweeps, a whole-block
//! sort, a probe walk for every insert); one accumulator runs the same
//! random streams block after block — reused across capacities, B widths,
//! symbolic and numeric use, drained or abandoned — and must agree on
//! every return value, every `AccStats` field and every drained row, bit
//! for bit.

use proptest::prelude::*;
use speck_repro::speck::hashacc::{compound_key, split_key, AccStats, Accumulator};
use std::collections::BTreeMap;

const HASH_PRIME: u64 = 4_294_967_291;
const EMPTY: u64 = u64::MAX;

/// A fresh linear-probing map with global spill, as the paper describes
/// it and without any host shortcut.
struct Reference {
    keys: Vec<u64>,
    vals: Vec<f64>,
    len: usize,
    global: Option<BTreeMap<u64, f64>>,
    stats: AccStats,
}

impl Reference {
    fn new(capacity: usize) -> Self {
        Self {
            keys: vec![EMPTY; capacity],
            vals: vec![0.0; capacity],
            len: 0,
            global: None,
            stats: AccStats::default(),
        }
    }

    fn home(&self, key: u64) -> usize {
        let h = key.wrapping_mul(HASH_PRIME).rotate_right(32) ^ key;
        ((h.wrapping_mul(HASH_PRIME) >> 32) % self.keys.len() as u64) as usize
    }

    fn spill(&mut self) {
        let mut g = BTreeMap::new();
        for (i, &k) in self.keys.iter().enumerate() {
            if k != EMPTY {
                g.insert(k, self.vals[i]);
            }
        }
        self.stats.spilled += self.len as u64;
        self.keys.fill(EMPTY);
        self.len = 0;
        self.global = Some(g);
    }

    fn reserve_or_spill(&mut self, headroom: usize) {
        if self.global.is_none() && self.len + headroom > self.keys.len() {
            self.spill();
        }
    }

    /// Inserts `key`; `val` is `None` for a symbolic (key-only) insert.
    fn insert(&mut self, key: u64, val: Option<f64>) -> bool {
        if let Some(g) = self.global.as_mut() {
            self.stats.gmem_inserts += 1;
            let new = !g.contains_key(&key);
            *g.entry(key).or_insert(0.0) += val.unwrap_or(0.0);
            return new;
        }
        self.stats.smem_inserts += 1;
        let cap = self.keys.len();
        let mut slot = self.home(key);
        let mut probes = 0u64;
        loop {
            if self.keys[slot] == key {
                self.stats.probes += probes;
                if let Some(v) = val {
                    self.vals[slot] += v;
                }
                return false;
            }
            if self.keys[slot] == EMPTY {
                self.stats.probes += probes;
                self.keys[slot] = key;
                if let Some(v) = val {
                    self.vals[slot] = v;
                }
                self.len += 1;
                return true;
            }
            probes += 1;
            slot = (slot + 1) % cap;
            if probes as usize > cap {
                self.stats.probes += probes;
                self.spill();
                return self.insert(key, val);
            }
        }
    }

    fn sorted(&self) -> Vec<(u64, f64)> {
        let mut out: Vec<(u64, f64)> = self
            .keys
            .iter()
            .zip(&self.vals)
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, &v)| (k, v))
            .collect();
        out.extend(self.global.iter().flatten().map(|(&k, &v)| (k, v)));
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }
}

/// Widths of B: tiny (dense reuse of columns) up to the 27-bit maximum.
const WIDTHS: [u32; 4] = [8, 96, 5_000, 1 << 27];

/// How a block uses the accumulator.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    /// Key-only inserts, then per-row counts.
    Symbolic,
    /// Value inserts, then the row drain.
    Numeric,
    /// Value inserts, then a reset without draining.
    Abandoned,
}

/// One block: capacity, B width index, local rows, mode, and its
/// operations `(kind, row step, column, value)`.
type Block = (usize, usize, u32, Mode, Vec<(u8, u8, u32, i32)>);

fn arb_block() -> impl Strategy<Value = Block> {
    (
        1usize..80,
        0usize..WIDTHS.len(),
        1u32..=32,
        0u8..4,
        proptest::collection::vec((0u8..20, 0u8..4, 0u32..u32::MAX, -400i32..400), 0..300),
    )
        .prop_map(|(cap, w, rows, mode, ops)| {
            let mode = match mode {
                0 => Mode::Symbolic,
                1 => Mode::Abandoned,
                _ => Mode::Numeric,
            };
            (cap, w, rows, mode, ops)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn reused_accumulator_charges_like_a_fresh_linear_probing_map(
        blocks in proptest::collection::vec(arb_block(), 1..7),
    ) {
        let mut acc: Accumulator<f64> = Accumulator::new(1);
        let mut entries = Vec::new();
        for (capacity, w, n_rows, mode, ops) in blocks {
            let width = WIDTHS[w];
            let symbolic = mode == Mode::Symbolic;
            acc.reset(capacity);
            let mut reference = Reference::new(capacity);
            let mut row = 0u32;
            for (kind, step, col, v) in ops {
                // Mostly runs of one row, with jumps that revisit rows.
                if step == 0 {
                    row = col % n_rows;
                }
                let col = col % width;
                let key = compound_key(row, col);
                let val = v as f64 / 3.0;
                match kind {
                    0 => {
                        let headroom = col as usize % (capacity / 2 + 2);
                        acc.reserve_or_spill(headroom);
                        reference.reserve_or_spill(headroom);
                    }
                    _ if symbolic => {
                        prop_assert_eq!(acc.insert_key(key), reference.insert(key, None));
                    }
                    1..=3 => {
                        prop_assert_eq!(acc.insert(key, val), reference.insert(key, Some(val)));
                    }
                    _ => {
                        prop_assert_eq!(
                            acc.insert_indexed(row, col, val),
                            reference.insert(key, Some(val))
                        );
                    }
                }
                prop_assert_eq!(acc.stats, reference.stats);
            }
            prop_assert_eq!(acc.spilled_to_global(), reference.global.is_some());
            let expect = reference.sorted();
            prop_assert_eq!(acc.len(), expect.len());
            if symbolic {
                // Symbolic inserts leave slot values stale: compare keys.
                let mut counts = vec![0u32; n_rows as usize];
                for &(k, _) in &expect {
                    counts[split_key(k).0 as usize] += 1;
                }
                prop_assert_eq!(acc.counts_per_local_row(n_rows as usize), counts);
                let keys: Vec<u64> = acc.drain_sorted().iter().map(|&(k, _)| k).collect();
                let expect_keys: Vec<u64> = expect.iter().map(|&(k, _)| k).collect();
                prop_assert_eq!(keys, expect_keys);
            } else if mode == Mode::Numeric {
                let (cols, vals, counts) = acc.drain_rows(n_rows as usize, &mut entries);
                let mut expect_counts = vec![0u32; n_rows as usize];
                for &(k, _) in &expect {
                    expect_counts[split_key(k).0 as usize] += 1;
                }
                prop_assert_eq!(counts, expect_counts);
                let got: Vec<(u32, u64)> =
                    cols.iter().zip(&vals).map(|(&c, v)| (c, v.to_bits())).collect();
                let want: Vec<(u32, u64)> =
                    expect.iter().map(|&(k, v)| (split_key(k).1, v.to_bits())).collect();
                prop_assert_eq!(got, want);
                prop_assert!(acc.is_empty());
            }
        }
    }
}

#[test]
fn reset_without_drain_forgets_the_row_index() {
    // The same (row, column) right after a reset is a new key in a fresh
    // map, whatever the previous block left in the index.
    let mut acc: Accumulator<f64> = Accumulator::new(16);
    for cap in [16, 16, 7] {
        acc.reset(cap);
        assert!(acc.insert_indexed(0, 5, 1.0));
        assert!(!acc.insert_indexed(0, 5, 2.0));
        assert_eq!(acc.stats.smem_inserts, 2);
        assert_eq!(acc.len(), 1);
    }
}
