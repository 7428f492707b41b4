//! Criterion micro-benches of the building blocks: hash accumulator,
//! dense chunk, block merging, row analysis, transpose and the sequential
//! reference. Guards the host-side performance of the substrate.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use speck_core::analysis::analyze;
use speck_core::block_merge::block_merge;
use speck_core::cascade::numeric_entry_bytes;
use speck_core::denseacc::DenseChunk;
use speck_core::global_lb::{plan_numeric, plan_symbolic, AccMethod};
use speck_core::hashacc::{compound_key, Accumulator};
use speck_core::local_lb::select_group_size;
use speck_core::symbolic::run_symbolic;
use speck_core::LocalLbMode;
use speck_core::{multiply_partitioned, KernelCascade, SpeckConfig, WorkspacePool};
use speck_simt::{CostModel, DeviceConfig};
use speck_sparse::gen::{banded, poisson_3d, uniform_random};
use speck_sparse::reference::spgemm_seq;
use speck_sparse::transpose::transpose;

fn bench_accumulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash_accumulator");
    let n = 16_384usize;
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("insert_16k", |b| {
        b.iter(|| {
            let mut acc: Accumulator<f64> = Accumulator::new(24_576);
            for i in 0..n {
                acc.insert(compound_key((i % 32) as u32, (i * 7 % 4096) as u32), 1.0);
            }
            acc.len()
        })
    });
    // The numeric hash blocks of a warm `poisson_3d(32³)` multiply at
    // their planned capacity: reset, indexed inserts, row drain.
    let (blocks, products) = stencil_hash_blocks();
    group.throughput(Throughput::Elements(products));
    group.bench_function("stencil_blocks", |b| {
        let mut acc: Accumulator<f64> = Accumulator::new(1);
        let mut entries = Vec::new();
        b.iter(|| {
            let mut out = 0usize;
            for (rows, capacity) in &blocks {
                acc.reset(*capacity);
                for (li, row) in rows.iter().enumerate() {
                    for &(col, val) in row {
                        acc.insert_indexed(li as u32, col, val);
                    }
                }
                out += acc.drain_rows(rows.len(), &mut entries).0.len();
            }
            out
        })
    });
    group.finish();
}

/// Per hash block of the numeric plan of `poisson_3d(32³)` squared: each
/// local row's product stream `(column, a_ik * b_kj)` and the block's
/// hash capacity.
#[allow(clippy::type_complexity)]
fn stencil_hash_blocks() -> (Vec<(Vec<Vec<(u32, f64)>>, usize)>, u64) {
    let dev = DeviceConfig::titan_v();
    let cost = CostModel::default();
    let cfg = SpeckConfig::default();
    let cascade = KernelCascade::for_device(&dev);
    let pool = WorkspacePool::new();
    let a = poisson_3d(32, 32, 32, 0.1, 1);
    let (info, _) = analyze(&dev, &cost, &a, &a);
    let splan = plan_symbolic(&dev, &cost, &cascade, &cfg, &info, a.cols());
    let sym = run_symbolic(&dev, &cost, &cascade, &cfg, &a, &a, &info, &splan, &pool);
    let nplan = plan_numeric(
        &dev,
        &cost,
        &cascade,
        &cfg,
        &info,
        &sym.row_nnz,
        a.cols(),
        8,
    );
    let entry_bytes = numeric_entry_bytes(a.cols(), 8);
    let mut products = 0u64;
    let blocks = nplan
        .blocks
        .iter()
        .filter(|bp| bp.method == AccMethod::Hash)
        .map(|bp| {
            let rows = bp
                .rows
                .iter()
                .map(|&r| {
                    let (a_cols, a_vals) = a.row(r as usize);
                    let mut stream = Vec::new();
                    for (&k, &av) in a_cols.iter().zip(a_vals) {
                        let (b_cols, b_vals) = a.row(k as usize);
                        stream.extend(b_cols.iter().zip(b_vals).map(|(&j, &bv)| (j, av * bv)));
                    }
                    products += stream.len() as u64;
                    stream
                })
                .collect();
            (rows, cascade.hash_capacity(bp.cfg_idx, entry_bytes))
        })
        .collect();
    (blocks, products)
}

fn bench_dense_chunk(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_chunk");
    let n = 16_384usize;
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("add_extract_16k", |b| {
        b.iter(|| {
            let mut chunk: DenseChunk<f64> = DenseChunk::numeric(0, 8_192);
            for i in 0..n {
                chunk.add((i * 5 % 8_192) as u32, 1.0);
            }
            chunk.extract_sorted().len()
        })
    });
    group.finish();
}

fn bench_block_merge(c: &mut Criterion) {
    let demands: Vec<u64> = (0..100_000u64).map(|i| (i * 37) % 900 + 10).collect();
    let mut group = c.benchmark_group("block_merge");
    group.throughput(Throughput::Elements(demands.len() as u64));
    group.bench_function("merge_100k_rows", |b| {
        b.iter(|| block_merge(&demands, 3_072, true).0.len())
    });
    group.finish();
}

fn bench_local_lb(c: &mut Criterion) {
    c.bench_function("local_lb/select_group_size", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in 1..1000u64 {
                acc += select_group_size(LocalLbMode::Dynamic, 256, i, i * 7, i % 40 + 1);
            }
            acc
        })
    });
}

fn bench_analysis_and_reference(c: &mut Criterion) {
    let dev = DeviceConfig::titan_v();
    let cost = CostModel::default();
    let a = banded(20_000, 4, 1.0, 5);
    let mut group = c.benchmark_group("substrate");
    group.sample_size(10);
    group.bench_function("row_analysis_180k_nnz", |b| {
        b.iter(|| analyze(&dev, &cost, &a, &a).0.total_products)
    });
    let u = uniform_random(3_000, 3_000, 4, 10, 6);
    group.bench_function("reference_spgemm", |b| b.iter(|| spgemm_seq(&u, &u).nnz()));
    group.bench_function("transpose", |b| b.iter(|| transpose(&u).nnz()));
    group.finish();
}

fn bench_partitioned(c: &mut Criterion) {
    let dev = DeviceConfig::titan_v();
    let cost = CostModel::default();
    let cfg = SpeckConfig::default();
    let a = uniform_random(1_000, 1_000, 3, 8, 7);
    let mut group = c.benchmark_group("partitioned_multiply");
    group.sample_size(10);
    group.bench_function("four_bands", |b| {
        let budget = a.size_bytes() * 2;
        b.iter(|| {
            multiply_partitioned(&dev, &cost, &cfg, &a, &a, budget)
                .1
                .bands
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_accumulator,
    bench_dense_chunk,
    bench_block_merge,
    bench_local_lb,
    bench_analysis_and_reference,
    bench_partitioned
);
criterion_main!(benches);
