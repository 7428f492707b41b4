//! The traced run: per-layer wall time next to simulated time.
//!
//! Every call into a layer's public functions runs inside one of the
//! benchmark's own spans; per-layer wall metrics are the spans' self
//! times, summed per workload call and reported as the median over calls.
//! Simulated figures come from the kernel reports the same calls return.

use crate::host::{host_threads, Stopwatch};
use crate::metrics::{table, Outcome, PER_LAYER};
use crate::replay::{identical, reconcile, replay, SimTotals};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{Kind, Pair, Workload};
use crate::{call_correct, engine_call, matches, Products};
use speck_core::{pattern_fingerprint, SpeckSpgemm, WorkspacePool};
use speck_simt::{launch_map, BlockCtx, KernelConfig};
use speck_sparse::reference::{spgemm_cpu_parallel, spgemm_seq};
use speck_sparse::Csr;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// Traced calls every run makes at least.
const MIN_CALLS: u64 = 5;
/// The loop stops here regardless, keeping the run inside its time limit.
const LOOP_CAP_S: f64 = 120.0;
/// Call id of the simt launch micro-benchmark spans.
const SIMT_CALL: u64 = u64::MAX;
/// Repetitions of the one-block and the many-block no-op launch.
const SIMT_REPS: (usize, usize) = (2_000, 40);
/// Blocks of the many-block no-op launch.
const SIMT_BLOCKS: usize = 16_384;
/// Stage spans of one replayed multiply.
const STAGES: [&str; 5] = ["analysis", "global_lb", "symbolic", "assemble", "numeric"];

/// The engines a traced call drives.
struct Engines {
    /// Sees exactly the untraced run's call stream (cache hit ratio,
    /// workspace high-water mark).
    workload: SpeckSpgemm,
    /// Cold multiplies, the plan/execute split and the replay's settings.
    cold: SpeckSpgemm,
    /// Untraced side of the batch and observation comparisons.
    plain: SpeckSpgemm,
    traced: SpeckSpgemm,
    audited: SpeckSpgemm,
}

/// Counts and simulated totals of one workload call, summed over its
/// multiplies.
#[derive(Default)]
struct CallSample {
    call: u64,
    attempted: usize,
    failed: usize,
    products: u64,
    passes_fired: usize,
    symbolic_spilled: usize,
    numeric_spilled: usize,
    methods: (usize, usize, usize),
    radix_elems: usize,
    sim: BTreeMap<&'static str, SimTotals>,
}

/// Runs `w` traced for `seconds` and reports the per-layer metrics; the
/// spans go to `spans_out` when given.
pub fn run(w: &Workload, seconds: f64, spans_out: Option<&Path>) -> Outcome {
    let kind = w.kind;
    let e = Engines {
        workload: SpeckSpgemm::default(),
        cold: SpeckSpgemm::default(),
        plain: SpeckSpgemm::default(),
        traced: SpeckSpgemm::default().with_tracing(true),
        audited: SpeckSpgemm::default().with_auditing(true),
    };
    let (mut attempted, mut failed) = (0, 0);
    let warm = w.warmup();
    let warm_refs: Vec<Csr<f64>> = warm.iter().map(|a| spgemm_seq(a, a)).collect();
    for engine in [&e.workload, &e.plain, &e.traced, &e.audited] {
        attempted += 1;
        if !call_correct(&engine_call(engine, kind, &warm), &warm_refs) {
            failed += 1;
        }
    }
    drop((warm, warm_refs));

    let mut rec = Recorder::default();
    let (launch_fixed_us, ns_per_block) = simt_costs(&mut rec, &e.cold);
    let pool = WorkspacePool::<f64>::new();
    let (hits0, misses0) = e.workload.plan_cache_stats();
    let mut samples = Vec::new();
    let mut prev: Option<(Pair, Csr<f64>)> = None;
    let loop_clock = Stopwatch::start();
    let start = Instant::now();
    let mut k = 0u64;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= seconds && k >= MIN_CALLS) || elapsed >= LOOP_CAP_S {
            break;
        }
        let mats = w.call(k);
        let traced = catch_unwind(AssertUnwindSafe(|| {
            trace_call(&mut rec, k, kind, &mats, prev.as_ref(), &e, &pool)
        }));
        let Ok((sample, refs)) = traced else {
            eprintln!("traced call {k} panicked");
            attempted += 1;
            failed += 1;
            break;
        };
        attempted += sample.attempted;
        failed += sample.failed;
        samples.push(sample);
        if kind != Kind::SmallBatch {
            prev = mats.into_iter().zip(refs).next_back();
        }
        k += 1;
    }
    let loop_lap = loop_clock.stop();
    let (hits, misses) = e.workload.plan_cache_stats();
    let (hits, misses) = ((hits - hits0) as f64, (misses - misses0) as f64);

    if let Some(path) = spans_out {
        if let Err(err) = write_spans(path, &rec) {
            eprintln!("could not write spans to {}: {err}", path.display());
        }
    }

    // Per-call self times of each span name.
    let by_call = rec.self_ms_by_call();
    let wall = |name: &str| -> Vec<f64> {
        samples
            .iter()
            .map(|s| {
                by_call
                    .get(&s.call)
                    .and_then(|m| m.get(name))
                    .copied()
                    .unwrap_or(0.0)
            })
            .collect()
    };
    let per_call = |f: &dyn Fn(&CallSample) -> f64| -> f64 {
        median(&samples.iter().map(f).collect::<Vec<_>>())
    };
    let sim = |s: &CallSample, layer: &str| s.sim.get(layer).copied().unwrap_or_default();
    let ratio = |num: &str, den: &str| -> f64 {
        let (n, d) = (wall(num), wall(den));
        median(&n.iter().zip(&d).map(|(x, y)| x / y).collect::<Vec<_>>())
    };
    let dev = &e.cold.device;
    let peak_bytes_per_s = peak_bandwidth(&e.cold);
    let bw_pct = |t: SimTotals| {
        if t.body_seconds > 0.0 {
            t.bytes as f64 / t.body_seconds / peak_bytes_per_s * 100.0
        } else {
            0.0
        }
    };
    let numeric_wall = wall("numeric");
    let glue: Vec<f64> = {
        let cold = wall("pipeline.multiply_cold");
        let stages: Vec<Vec<f64>> = STAGES.iter().map(|s| wall(s)).collect();
        (0..samples.len())
            .map(|i| cold[i] - stages.iter().map(|s| s[i]).sum::<f64>())
            .collect()
    };

    let values: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("sparse.spgemm_seq_ms", median(&wall("sparse.spgemm_seq"))),
        ("sparse.spgemm_par_ms", median(&wall("sparse.spgemm_par"))),
        ("simt.launch_fixed_us", launch_fixed_us),
        ("simt.ns_per_block", ns_per_block),
        ("analysis.wall_ms", median(&wall("analysis"))),
        (
            "analysis.sim_us",
            per_call(&|s| sim(s, "analysis").seconds * 1e6),
        ),
        ("global_lb.wall_ms", median(&wall("global_lb"))),
        (
            "global_lb.sim_us",
            per_call(&|s| sim(s, "global_lb").seconds * 1e6),
        ),
        (
            "global_lb.passes_fired",
            per_call(&|s| s.passes_fired as f64),
        ),
        ("symbolic.wall_ms", median(&wall("symbolic"))),
        (
            "symbolic.sim_us",
            per_call(&|s| sim(s, "symbolic").seconds * 1e6),
        ),
        (
            "symbolic.launches",
            per_call(&|s| sim(s, "symbolic").launches as f64),
        ),
        (
            "symbolic.spilled_blocks",
            per_call(&|s| s.symbolic_spilled as f64),
        ),
        ("numeric.wall_ms", median(&numeric_wall)),
        (
            "numeric.sim_us",
            per_call(&|s| sim(s, "numeric").seconds * 1e6),
        ),
        (
            "numeric.launches",
            per_call(&|s| sim(s, "numeric").launches as f64),
        ),
        (
            "numeric.ns_per_product",
            median(
                &samples
                    .iter()
                    .zip(&numeric_wall)
                    .map(|(s, ms)| ms * 1e6 / s.products.max(1) as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "numeric.spilled_blocks",
            per_call(&|s| s.numeric_spilled as f64),
        ),
        ("numeric.blocks_hash", per_call(&|s| s.methods.0 as f64)),
        ("numeric.blocks_dense", per_call(&|s| s.methods.1 as f64)),
        ("numeric.blocks_direct", per_call(&|s| s.methods.2 as f64)),
        (
            "numeric.bw_pct_of_peak",
            per_call(&|s| bw_pct(sim(s, "numeric"))),
        ),
        ("sort.sim_us", per_call(&|s| sim(s, "sort").seconds * 1e6)),
        ("sort.radix_elems", per_call(&|s| s.radix_elems as f64)),
        (
            "plan.fingerprint_us",
            median(&wall("plan.fingerprint")) * 1e3,
        ),
        ("plan.cache_hit_ratio", hits / (hits + misses)),
        ("plan.plan_ms", median(&wall("plan.plan"))),
        ("plan.execute_ms", median(&wall("plan.execute"))),
        (
            "workspace.peak_in_use",
            e.workload.workspaces().total_peak_in_use() as f64,
        ),
        ("pipeline.glue_ms", median(&glue)),
        (
            "pipeline.batch_speedup",
            ratio("pipeline.loop", "pipeline.batch"),
        ),
        (
            "trace.overhead_ratio",
            ratio("engine.traced", "engine.plain"),
        ),
        (
            "audit.overhead_ratio",
            ratio("engine.audited", "engine.plain"),
        ),
        ("engine.call_ms", median(&wall("engine.call"))),
    ]);

    // Layer table: wall time next to simulated time, against the
    // sequential reference and the cost model's peak bandwidth.
    let seq_ms = values["sparse.spgemm_seq_ms"];
    let layer_sim = |layer: &str| {
        let totals: Vec<SimTotals> = samples.iter().map(|s| sim(s, layer)).collect();
        (
            median(&totals.iter().map(|t| t.seconds * 1e6).collect::<Vec<_>>()),
            median(&totals.iter().map(|t| bw_pct(*t)).collect::<Vec<_>>()),
            median(&totals.iter().map(|t| t.launches as f64).collect::<Vec<_>>()),
        )
    };
    let mut rows = Vec::new();
    let span_ms = |span: &str| Some(median(&wall(span)));
    for (label, ms, layer) in [
        ("analysis", span_ms("analysis"), Some("analysis")),
        (
            "global_lb + block_merge",
            span_ms("global_lb"),
            Some("global_lb"),
        ),
        ("symbolic", span_ms("symbolic"), Some("symbolic")),
        (
            "assemble (group_blocks, row_ptr)",
            span_ms("assemble"),
            None,
        ),
        (
            "numeric + hashacc/denseacc + sort",
            span_ms("numeric"),
            Some("numeric"),
        ),
        ("  of which sort", None, Some("sort")),
        (
            "pipeline glue (cold multiply - stages)",
            Some(values["pipeline.glue_ms"]),
            None,
        ),
        ("plan.fingerprint", span_ms("plan.fingerprint"), None),
        ("plan.plan (SpeckSpgemm::plan)", span_ms("plan.plan"), None),
        ("plan.execute (execute_plan)", span_ms("plan.execute"), None),
        (
            "engine call (workload engine)",
            span_ms("engine.call"),
            None,
        ),
        (
            "sparse.spgemm_par (mkl_like)",
            span_ms("sparse.spgemm_par"),
            None,
        ),
        ("sparse.spgemm_seq", span_ms("sparse.spgemm_seq"), None),
    ] {
        let cell = |v: Option<f64>, f: &dyn Fn(f64) -> String| v.map_or("-".to_string(), f);
        let (sim_us, pct, launches) = match layer.map(layer_sim) {
            Some((s, p, n)) => (Some(s), Some(p), Some(n)),
            None => (None, None, None),
        };
        rows.push(vec![
            label.to_string(),
            cell(ms, &|v| format!("{v:.3}")),
            cell(sim_us, &|v| format!("{v:.1}")),
            cell(ms, &|v| format!("{:.3}x", v / seq_ms)),
            cell(pct, &|v| format!("{v:.1}%")),
            cell(launches, &|v| format!("{v}")),
        ]);
    }
    let layer_table = table(
        &[
            "layer",
            "wall ms",
            "sim us",
            "x spgemm_seq",
            "% sim peak bw",
            "launches",
        ],
        &rows,
    );
    let metric_rows: Vec<Vec<String>> = PER_LAYER
        .iter()
        .map(|d| {
            vec![
                d.name.to_string(),
                format!("{:.4}", values[d.name]),
                d.unit.to_string(),
            ]
        })
        .collect();
    let report = format!(
        "== {} traced (seed {}, {seconds} s, {} calls, {} host threads) ==\n\
         medians per call; wall = host self time of the benchmark's spans ({:.2} s of the \
         loop's {:.2} s were stolen by the hypervisor), sim = simulated Titan V.\n\
         % sim peak bw = simulated bytes moved / kernel body time over the cost model's computed \
         peak of {:.0} GB/s ({} SMs x {} B / {} cycles at {} GHz).\n{}\n{}",
        kind.name(),
        w.seed,
        samples.len(),
        host_threads(),
        loop_lap.stolen_s(),
        loop_lap.wall_s,
        peak_bytes_per_s / 1e9,
        dev.num_sms,
        dev.transaction_bytes,
        e.cold.cost.c_gmem_tx,
        dev.clock_ghz,
        layer_table,
        table(&["metric", "value", "unit"], &metric_rows),
    );
    Outcome::new(&PER_LAYER, &values, attempted, failed, report)
}

/// One traced workload call; returns its sample and the reference
/// products of its matrices.
fn trace_call(
    rec: &mut Recorder,
    k: u64,
    kind: Kind,
    mats: &[Pair],
    prev: Option<&(Pair, Csr<f64>)>,
    e: &Engines,
    pool: &WorkspacePool<f64>,
) -> (CallSample, Vec<Csr<f64>>) {
    let mut s = CallSample {
        call: k,
        ..CallSample::default()
    };
    let mut refs = Vec::with_capacity(mats.len());
    rec.span("call", k, |rec| {
        for a in mats {
            // An unrecorded replay first, so that the cold multiply and the
            // recorded replay each follow a full multiply of the same input
            // and `pipeline.glue_ms` compares like with like.
            drop(replay(&mut Recorder::default(), k, &e.cold, a, a, pool));
            e.cold.clear_plan_cache();
            let (c, report) = rec.span("pipeline.multiply_cold", k, |_| e.cold.multiply(a, a));
            let rp = rec.span("replay", k, |rec| replay(rec, k, &e.cold, a, a, pool));
            let reconciled = reconcile(&rp, &c, &report.timeline)
                .map_err(|msg| eprintln!("call {k}: {msg}"))
                .is_ok();
            drop(c);
            rec.span("plan.fingerprint", k, |_| {
                black_box(pattern_fingerprint(a, a))
            });
            let plan = rec.span("plan.plan", k, |_| e.cold.plan(a, a));
            let (c_exec, _) = rec.span("plan.execute", k, |_| e.cold.execute_plan(&plan, a, a));
            let reference = rec.span("sparse.spgemm_seq", k, |_| spgemm_seq(a, a));
            let par = rec.span("sparse.spgemm_par", k, |_| spgemm_cpu_parallel(a, a));
            s.attempted += 1;
            if !(reconciled
                && matches(&rp.c, &reference)
                && identical(&c_exec, &rp.c)
                && matches(&par, &reference))
            {
                s.failed += 1;
            }
            s.products += rp.products;
            s.passes_fired += rp.passes_fired;
            s.symbolic_spilled += rp.symbolic_spilled;
            s.numeric_spilled += rp.numeric_spilled;
            s.methods.0 += rp.numeric_methods.0;
            s.methods.1 += rp.numeric_methods.1;
            s.methods.2 += rp.numeric_methods.2;
            s.radix_elems += rp.radix_elems;
            for (layer, t) in rp.sim_by_layer(&e.cold.device) {
                let acc = s.sim.entry(layer).or_default();
                acc.launches += t.launches;
                acc.seconds += t.seconds;
                acc.body_seconds += t.body_seconds;
                acc.bytes += t.bytes;
            }
            refs.push(reference);
        }

        let mut check = |out: &Option<Products>, want: &[&Csr<f64>]| {
            s.attempted += 1;
            if !call_correct(out, want) {
                s.failed += 1;
            }
        };
        let refs_of_call: Vec<&Csr<f64>> = refs.iter().collect();
        let out = rec.span("engine.call", k, |_| engine_call(&e.workload, kind, mats));
        check(&out, &refs_of_call);
        drop(out);

        // Sequential loop vs multiply_batch over the same chunk and the
        // same cache state: the call's chunk, or the previous matrix and
        // this one for single-multiply workloads.
        let chunk: Vec<&Pair> = prev.map(|p| &p.0).into_iter().chain(mats).collect();
        let chunk_refs: Vec<&Csr<f64>> = prev.map(|p| &p.1).into_iter().chain(&refs).collect();
        let pairs: Vec<(&Pair, &Pair)> = chunk.iter().map(|a| (*a, *a)).collect();
        for i in 0..2u64 {
            if kind.cold() {
                e.plain.clear_plan_cache();
            }
            let out = if (i + k).is_multiple_of(2) {
                rec.span("pipeline.loop", k, |_| {
                    pairs.iter().map(|(a, b)| e.plain.multiply(a, b)).collect()
                })
            } else {
                rec.span("pipeline.batch", k, |_| e.plain.multiply_batch(&pairs))
            };
            check(&Some(out), &chunk_refs);
        }

        // The same call on a plain, a tracing and an auditing engine.
        let observed = [
            ("engine.plain", &e.plain),
            ("engine.traced", &e.traced),
            ("engine.audited", &e.audited),
        ];
        for i in 0..3 {
            let (name, engine) = observed[(i + k as usize) % 3];
            if kind.cold() {
                engine.clear_plan_cache();
            }
            let out = rec.span(name, k, |_| engine_call(engine, kind, mats));
            check(&out, &refs_of_call);
        }
    });
    (s, refs)
}

/// Medians of a no-op `launch_map` with one block (fixed cost, in µs)
/// and the marginal host cost per block of a many-block launch (ns).
fn simt_costs(rec: &mut Recorder, engine: &SpeckSpgemm) -> (f64, f64) {
    let (dev, cost) = (&engine.device, &engine.cost);
    let cfg = KernelConfig::new(32, 0);
    let noop = |_: &mut BlockCtx| {};
    let mut time = |name: &'static str, blocks: usize, reps: usize| -> f64 {
        for _ in 0..reps {
            rec.span(name, SIMT_CALL, |_| {
                black_box(launch_map(dev, cost, "noop", blocks, cfg, noop))
            });
        }
        let ns: Vec<f64> = rec
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        median(&ns)
    };
    let one = time("simt.launch_1", 1, SIMT_REPS.0);
    let many = time("simt.launch_16k", SIMT_BLOCKS, SIMT_REPS.1);
    (one / 1e3, (many - one) / (SIMT_BLOCKS - 1) as f64)
}

/// Peak simulated memory bandwidth in bytes/s, computed from the device
/// and cost model: every SM moves one sector per `c_gmem_tx` cycles.
fn peak_bandwidth(engine: &SpeckSpgemm) -> f64 {
    let dev = &engine.device;
    dev.num_sms as f64 * dev.transaction_bytes as f64 / engine.cost.c_gmem_tx * dev.clock_ghz * 1e9
}

fn write_spans(path: &Path, rec: &Recorder) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, rec.to_json())
}
