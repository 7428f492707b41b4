//! `runspeck` — command-line driver mirroring the original artifact's
//! `runspECK` executable (paper Appendix A): load a MatrixMarket file
//! (with a binary cache for fast re-runs), multiply with spECK, optionally
//! compare the result structure against another method, and print timings.
//!
//! ```sh
//! cargo run --release -p speck-bench --bin runspeck -- <matrix.mtx> [options]
//!
//! options:
//!   --iterations N        execution iterations to average (default 5)
//!   --warmup N            warm-up iterations (default 1)
//!   --individual-times    print the per-stage breakdown of each run
//!   --compare             validate column indices against cuSPARSE-style
//!                         baseline (the artifact's CompareResult option)
//!   --no-cache            skip reading/writing the binary cache
//!   --synthetic FAMILY N  run on a generated matrix instead of a file
//!   --metrics             print the engine's metrics table after the run
//!                         (per-stage sim counters, spans, cache stats)
//!   --metrics-table PATH  write the metrics table to PATH
//!   --metrics-out PATH    write the canonical metrics snapshot JSON
//!                         (counters + histograms) to PATH
//!   --trace-out PATH      run one cold traced multiply and write its
//!                         Chrome Trace Event JSON to PATH (open in
//!                         Perfetto or chrome://tracing)
//!   --profile             fold the trace into a profile report (hottest
//!                         rows/blocks, per-bin cycles, SM utilization)
//!                         and print it
//!   --profile-from PATH   profile a previously exported trace file and
//!                         exit (no multiply)
//!   --trace-diff OLD NEW  diff two exported traces (e.g. cold vs warm
//!                         plan) and exit
//!   --audit-out PATH      run one cold audited multiply and write its
//!                         decision-provenance report (canonical JSON)
//!   --audit-table PATH    write the audit summary table to PATH
//!                         ("-" prints it instead)
//!   --audit-diff OLD NEW  diff two exported audit reports and exit
//! ```

use speck_baselines::{cusparse_like::CusparseLike, SpgemmMethod};
use speck_bench::cli::parse_flags;
use speck_core::pipeline::stage;
use speck_core::profile::{diff_traces, profile_trace};
use speck_core::trace::ExecutionTrace;
use speck_core::{diff_reports, DecisionReport, SpeckSpgemm};
use speck_simt::{CostModel, DeviceConfig};
use speck_sparse::gen::{banded, poisson_3d, rmat};
use speck_sparse::io::{bin, mm};
use speck_sparse::transpose::transpose;
use speck_sparse::Csr;
use std::path::PathBuf;

/// Hot rows/blocks shown by `--profile`.
const PROFILE_TOP_K: usize = 15;

struct Options {
    input: Option<PathBuf>,
    synthetic: Option<(String, usize)>,
    iterations: usize,
    warmup: usize,
    individual: bool,
    compare: bool,
    cache: bool,
    metrics: bool,
    metrics_table: Option<String>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    profile: bool,
    audit_out: Option<String>,
    audit_table: Option<String>,
}

fn parse_args() -> Options {
    let parsed = parse_flags(
        std::env::args().skip(1),
        &[
            ("--iterations", 1),
            ("--warmup", 1),
            ("--synthetic", 2),
            ("--metrics-table", 1),
            ("--metrics-out", 1),
            ("--trace-out", 1),
            ("--profile-from", 1),
            ("--trace-diff", 2),
            ("--audit-out", 1),
            ("--audit-table", 1),
            ("--audit-diff", 2),
        ],
        &[
            "--individual-times",
            "--compare",
            "--no-cache",
            "--metrics",
            "--profile",
        ],
    )
    .unwrap_or_else(|e| panic!("runspeck: {e}"));

    // Standalone trace-tool modes: no matrix load, no multiply.
    if let Some(path) = parsed.value("--profile-from") {
        let trace = read_trace(path);
        print!("{}", profile_trace(&trace, PROFILE_TOP_K).render_table());
        std::process::exit(0);
    }
    if let Some(paths) = parsed.values_of("--trace-diff") {
        let old = read_trace(&paths[0]);
        let new = read_trace(&paths[1]);
        print!("{}", diff_traces(&old, &new).render_table());
        std::process::exit(0);
    }
    if let Some(paths) = parsed.values_of("--audit-diff") {
        let old = read_audit(&paths[0]);
        let new = read_audit(&paths[1]);
        print!("{}", diff_reports(&old, &new).render_table());
        std::process::exit(0);
    }

    Options {
        input: parsed.positional.first().map(PathBuf::from),
        synthetic: parsed
            .values_of("--synthetic")
            .map(|v| (v[0].clone(), v[1].parse().unwrap_or(2))),
        iterations: parsed.parsed_or("--iterations", 5),
        warmup: parsed.parsed_or("--warmup", 1),
        individual: parsed.flag("--individual-times"),
        compare: parsed.flag("--compare"),
        cache: !parsed.flag("--no-cache"),
        metrics: parsed.flag("--metrics"),
        metrics_table: parsed.value("--metrics-table").map(String::from),
        metrics_out: parsed.value("--metrics-out").map(String::from),
        trace_out: parsed.value("--trace-out").map(String::from),
        profile: parsed.flag("--profile"),
        audit_out: parsed.value("--audit-out").map(String::from),
        audit_table: parsed.value("--audit-table").map(String::from),
    }
}

fn read_trace(path: &str) -> ExecutionTrace {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read trace {path}: {e}"));
    ExecutionTrace::from_chrome_trace(&text)
        .unwrap_or_else(|e| panic!("cannot parse trace {path}: {e}"))
}

fn read_audit(path: &str) -> DecisionReport {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read audit {path}: {e}"));
    DecisionReport::from_json(&text).unwrap_or_else(|e| panic!("cannot parse audit {path}: {e}"))
}

fn load(o: &Options) -> (Csr<f64>, String) {
    if let Some((fam, n)) = &o.synthetic {
        let m = match fam.as_str() {
            "banded" => banded(8_000 * n, 2, 1.0, 1),
            "mesh3d" => poisson_3d(12 * n, 12 * n, 12, 0.01, 2),
            "graph" => rmat(9 + *n as u32, 8, 0.57, 0.19, 0.19, 3),
            other => panic!("unknown synthetic family '{other}'"),
        };
        return (m, format!("synthetic {fam} x{n}"));
    }
    let path = o
        .input
        .as_ref()
        .expect("usage: runspeck <matrix.mtx> [options] (or --synthetic FAMILY N)");
    // Binary cache next to the .mtx, like the artifact's ".hicsr" files.
    let cache_path = path.with_extension("hicsr");
    if o.cache && cache_path.exists() {
        if let Ok(m) = bin::read_bin_csr_file::<f64>(&cache_path) {
            return (m, format!("{} (cached)", path.display()));
        }
    }
    let m = mm::read_matrix_market_file::<f64>(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if o.cache {
        let _ = bin::write_bin_csr_file(&m, &cache_path);
    }
    (m, path.display().to_string())
}

fn main() {
    let o = parse_args();
    let (a, label) = load(&o);
    println!("matrix: {label}");
    println!("  {} x {} with {} non-zeros", a.rows(), a.cols(), a.nnz());

    // Square matrices: C = A*A; rectangular: C = A*A^T (paper §6).
    let (a, b) = if a.rows() == a.cols() {
        let b = a.clone();
        (a, b)
    } else {
        println!("  rectangular: computing C = A*A^T");
        let t = transpose(&a);
        (a, t)
    };
    let products = a.products(&b);
    println!("  {products} intermediate products\n");

    // Plan once (analysis + symbolic), then time executions — the
    // artifact's iteration loop re-runs the full pipeline, but on a
    // repeated pattern the plan-reuse API is the hot-loop idiom.
    let engine = SpeckSpgemm::default();
    let plan = engine.plan(&a, &b);
    println!(
        "plan: {:.3} ms simulated setup (analysis + symbolic), amortised across iterations",
        plan.setup_sim_time_s() * 1e3
    );
    for _ in 0..o.warmup {
        let _ = engine.execute_plan(&plan, &a, &b);
    }
    let mut total = 0.0;
    let mut last = None;
    for i in 0..o.iterations.max(1) {
        let (c, report) = engine.execute_plan(&plan, &a, &b);
        total += report.sim_time_s;
        if o.individual {
            println!("iteration {i}: {:.3} ms", report.sim_time_s * 1e3);
            for (name, st) in report.timeline.stages() {
                println!(
                    "    {name:<14} {:>9.1} us  ({:>4.1}%)",
                    st.seconds * 1e6,
                    100.0 * report.timeline.share(name)
                );
            }
        }
        last = Some((c, report));
    }
    let (c, report) = last.expect("at least one iteration");
    let avg = total / o.iterations.max(1) as f64;
    let cold = plan.setup_sim_time_s() + avg;
    println!(
        "spECK: {} output non-zeros, avg {:.3} ms simulated per execution \
         ({:.3} ms cold incl. setup), {:.2} GFLOPS",
        c.nnz(),
        avg * 1e3,
        cold * 1e3,
        2.0 * products as f64 / cold / 1e9
    );
    let (h, d, r) = report.numeric_methods;
    println!(
        "  numeric blocks: {h} hash / {d} dense / {r} direct; global LB: symbolic={} numeric={}",
        report.symbolic_used_lb, report.numeric_used_lb
    );
    println!(
        "  sorting share: {:.1}%  (peak device memory {:.1} MiB)",
        100.0 * report.timeline.share(stage::SORTING),
        report.peak_mem_bytes as f64 / (1 << 20) as f64
    );

    if o.metrics {
        println!("\nmetrics after {} executions:", o.iterations.max(1));
        print!("{}", engine.metrics_snapshot().render_table());
    }
    if let Some(path) = &o.metrics_table {
        std::fs::write(path, engine.metrics_snapshot().render_table())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("metrics table written to {path}");
    }
    if let Some(path) = &o.metrics_out {
        std::fs::write(path, engine.metrics_snapshot().canonical_json())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("metrics snapshot written to {path}");
    }

    if o.trace_out.is_some() || o.profile {
        // One cold traced multiply on a dedicated engine: the trace covers
        // the whole pipeline (setup + execution), and the timing loop
        // above stays untouched by tracing.
        let traced = SpeckSpgemm::default()
            .with_plan_cache_capacity(0)
            .with_tracing(true);
        let (_, tr_report) = traced.multiply(&a, &b);
        let trace = tr_report.trace.expect("tracing engine attaches a trace");
        if let Some(path) = &o.trace_out {
            std::fs::write(path, trace.chrome_trace_json())
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            println!(
                "\ntrace: {} records written to {path} (open in Perfetto or chrome://tracing)",
                trace.records.len()
            );
        }
        if o.profile {
            println!("\nprofile (one cold multiply):");
            print!("{}", profile_trace(&trace, PROFILE_TOP_K).render_table());
        }
    }

    if o.audit_out.is_some() || o.audit_table.is_some() {
        // One cold audited multiply on a dedicated engine, mirroring the
        // trace section: the decision report covers the whole pipeline and
        // the timing loop above stays free of audit overhead.
        let audited = SpeckSpgemm::default()
            .with_plan_cache_capacity(0)
            .with_auditing(true);
        let (_, au_report) = audited.multiply(&a, &b);
        let audit = au_report.audit.expect("auditing engine attaches a report");
        if let Some(path) = &o.audit_out {
            std::fs::write(path, audit.canonical_json())
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            println!(
                "\naudit: {} decisions written to {path}",
                audit.records.len()
            );
        }
        if let Some(path) = &o.audit_table {
            if path == "-" {
                println!("\naudit (one cold multiply):");
                print!("{}", audit.render_table());
            } else {
                std::fs::write(path, audit.render_table())
                    .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
                println!("audit table written to {path}");
            }
        }
    }

    if o.compare {
        // The artifact's CompareResult: check column structure against the
        // cuSPARSE-style baseline and report mismatches.
        let dev = DeviceConfig::titan_v();
        let cost = CostModel::default();
        let other = CusparseLike.multiply(&dev, &cost, &a, &b);
        match other.c {
            Some(reference) if c.pattern_eq(&reference) => {
                println!("compare: column indices match the cuSPARSE-style baseline ✓")
            }
            Some(_) => println!("compare: ERROR — column indices do not match!"),
            None => println!("compare: baseline failed ({:?})", other.failed),
        }
    }
}
