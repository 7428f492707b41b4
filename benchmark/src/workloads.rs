//! The three seeded workloads. Every input is a pure function of the
//! workload seed and the call index, so a run is reproducible from its
//! `--seed` and the engine only ever sees the generated matrices.

use speck_sparse::gen::{poisson_2d, poisson_3d, rmat, with_hub_rows};
use speck_sparse::Csr;

/// Value jitter of the stencil generators: fresh values on every call
/// while the pattern stays fixed.
const JITTER: f64 = 0.1;

/// Grid of the `stencil_reuse` operator (`poisson_3d`, 32768 rows).
pub const STENCIL_GRID: (usize, usize, usize) = (32, 32, 32);

/// `powerlaw_cold` R-MAT graphs: `rmat(scale, edge_factor, Graph500 skew)`.
pub const RMAT_SCALE: u32 = 13;
/// Edges per row of the R-MAT graphs.
pub const RMAT_EDGE_FACTOR: usize = 3;
/// `powerlaw_cold` hub matrices: `with_hub_rows(n, half_band, hubs, refs)`.
pub const HUB: (usize, usize, usize, usize) = (16_000, 1, 32, 600);
/// The stream repeats this many R-MAT graphs, then one hub matrix, so the
/// per-call latency distribution has one dominant mode for its median.
pub const RMAT_PER_HUB: u64 = 2;

/// Distinct 2D-stencil patterns in `small_batch`.
pub const BATCH_PATTERNS: usize = 32;
/// Products per `multiply_batch` call in `small_batch`.
pub const BATCH_CHUNK: usize = 64;
/// Row-count window of the `small_batch` grids (`nx * ny`).
pub const BATCH_ROWS: (usize, usize) = (260, 340);

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One fixed stencil pattern, fresh values per call, every timed call a
    /// plan-cache hit.
    StencilReuse,
    /// A stream of distinct skewed patterns, every call a plan-cache miss.
    PowerlawCold,
    /// Chunks of tiny stencil products over a few dozen repeating patterns.
    SmallBatch,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 3] = [Kind::StencilReuse, Kind::PowerlawCold, Kind::SmallBatch];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::StencilReuse => "stencil_reuse",
            Kind::PowerlawCold => "powerlaw_cold",
            Kind::SmallBatch => "small_batch",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether every call of the workload misses the plan cache; layer
    /// comparisons then clear the cache before each side.
    pub fn cold(self) -> bool {
        self == Kind::PowerlawCold
    }
}

/// One `(A, B)` product; every workload multiplies `A · A`.
pub type Pair = Csr<f64>;

/// SplitMix64 finaliser: decorrelates `(seed, call, item)` into generator
/// seeds.
fn mix(seed: u64, call: u64, item: u64) -> u64 {
    let mut z = seed
        .wrapping_add(call.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(item.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generator of one workload's inputs.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The workload seed.
    pub seed: u64,
    /// `small_batch` grid shapes.
    grids: Vec<(usize, usize)>,
}

/// Warm-up inputs use call indices from the top of the range, which the
/// timed stream never reaches.
const WARMUP_BASE: u64 = u64::MAX - 1_000;

impl Workload {
    /// The workload `kind` under `seed`.
    pub fn new(kind: Kind, seed: u64) -> Self {
        let grids = if kind == Kind::SmallBatch {
            batch_grids()
        } else {
            Vec::new()
        };
        Workload { kind, seed, grids }
    }

    /// The matrices of call `k` (one for a single multiply, a chunk for a
    /// batch); each is multiplied by itself.
    pub fn call(&self, k: u64) -> Vec<Pair> {
        match self.kind {
            Kind::StencilReuse => vec![self.stencil(k)],
            Kind::PowerlawCold => vec![self.powerlaw(k)],
            Kind::SmallBatch => (0..BATCH_CHUNK as u64)
                .map(|j| {
                    let h = mix(self.seed, k, j);
                    let (nx, ny) = self.grids[(h % self.grids.len() as u64) as usize];
                    poisson_2d(nx, ny, JITTER, h)
                })
                .collect(),
        }
    }

    /// Untimed warm-up inputs: the first multiply of each distinct pattern
    /// the timed calls will reuse (plan builds and workspace growth).
    /// `powerlaw_cold` reuses no pattern, so it warms the workspaces with
    /// one input of each family that the stream never repeats.
    pub fn warmup(&self) -> Vec<Pair> {
        match self.kind {
            Kind::StencilReuse => vec![self.stencil(WARMUP_BASE)],
            Kind::PowerlawCold => {
                // Call index 0 of the cycle is an R-MAT, the last one a hub.
                let base = WARMUP_BASE - WARMUP_BASE % (RMAT_PER_HUB + 1);
                vec![self.powerlaw(base), self.powerlaw(base + RMAT_PER_HUB)]
            }
            Kind::SmallBatch => self
                .grids
                .iter()
                .enumerate()
                .map(|(i, &(nx, ny))| {
                    poisson_2d(nx, ny, JITTER, mix(self.seed, WARMUP_BASE, i as u64))
                })
                .collect(),
        }
    }

    fn stencil(&self, k: u64) -> Pair {
        let (nx, ny, nz) = STENCIL_GRID;
        poisson_3d(nx, ny, nz, JITTER, mix(self.seed, k, 0))
    }

    fn powerlaw(&self, k: u64) -> Pair {
        let h = mix(self.seed, k, 0);
        if k % (RMAT_PER_HUB + 1) == RMAT_PER_HUB {
            let (n, half_band, hubs, refs) = HUB;
            with_hub_rows(n, half_band, hubs, refs, h)
        } else {
            rmat(RMAT_SCALE, RMAT_EDGE_FACTOR, 0.57, 0.19, 0.19, h)
        }
    }
}

/// `BATCH_PATTERNS` distinct `(nx, ny)` grids with `nx * ny` inside
/// `BATCH_ROWS`. The set is the same for every seed, which only draws the
/// grid of each product and its values: the per-product work then varies
/// little from seed to seed.
fn batch_grids() -> Vec<(usize, usize)> {
    let (lo, hi) = BATCH_ROWS;
    let mut all: Vec<(u64, (usize, usize))> = (8..=40)
        .flat_map(|nx| (8..=40).map(move |ny| (nx, ny)))
        .filter(|&(nx, ny)| (lo..=hi).contains(&(nx * ny)))
        .map(|g| (mix(0, g.0 as u64, g.1 as u64), g))
        .collect();
    all.sort_unstable();
    assert!(
        all.len() >= BATCH_PATTERNS,
        "too few grids in the row window"
    );
    all.truncate(BATCH_PATTERNS);
    all.into_iter().map(|(_, g)| g).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for kind in Kind::ALL {
            let a = Workload::new(kind, 7).call(3);
            let b = Workload::new(kind, 7).call(3);
            let c = Workload::new(kind, 8).call(3);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert!(x.pattern_eq(y) && x.vals() == y.vals());
            }
            assert!(a.iter().zip(&c).any(|(x, y)| x.vals() != y.vals()));
        }
    }

    #[test]
    fn batch_grids_are_distinct_and_in_window() {
        let g = batch_grids();
        let mut d = g.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), BATCH_PATTERNS);
        assert!(g
            .iter()
            .all(|&(x, y)| (BATCH_ROWS.0..=BATCH_ROWS.1).contains(&(x * y))));
    }
}
