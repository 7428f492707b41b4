//! The untraced run: end-to-end metrics of one workload.

use crate::host::{host_threads, net_walls, peak_rss_mb, windows, Lap, Stopwatch};
use crate::metrics::{table, Outcome, END_TO_END};
use crate::stats::{median, percentile, reportable_percentile};
use crate::workloads::Workload;
use crate::{call_correct, engine_call};
use speck_core::SpeckSpgemm;
use speck_sparse::reference::spgemm_seq;
use speck_sparse::Csr;
use std::collections::BTreeMap;
use std::time::Instant;

/// Calls every run makes at least: p90 then has ten samples beyond it.
/// The simulated metrics cover exactly these first calls, so they depend
/// on the seed alone and never on host speed.
pub const MIN_CALLS: u64 = 100;

/// Engine set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Length of the windows over which steal is removed from host times.
const WINDOW_S: f64 = 1.0;

/// The timed loop stops here even short of `MIN_CALLS`, keeping the run
/// inside its time limit on a stalled host.
const LOOP_CAP_S: f64 = 120.0;

/// Runs `w` for `seconds` of timed calls and reports the end-to-end
/// metrics.
pub fn run(w: &Workload, seconds: f64) -> Outcome {
    let mut attempted = 0;
    let mut failed = 0;

    // Set-up: build the engine and make the untimed warm-up calls, several
    // times; the last engine serves the timed calls.
    let warm = w.warmup();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut setup_lap = Lap::default();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let sw = Stopwatch::start();
        let engine = SpeckSpgemm::default();
        let out = engine_call(&engine, w.kind, &warm);
        let lap = sw.stop();
        setup.push(lap.wall_s);
        setup_lap += &lap;
        built = Some((engine, out));
    }
    let (engine, warm_out) = built.expect("at least one set-up");
    let warm_refs: Vec<Csr<f64>> = warm.iter().map(|a| spgemm_seq(a, a)).collect();
    attempted += 1;
    if !call_correct(&warm_out, &warm_refs) {
        failed += 1;
    }
    drop((warm_out, warm_refs));

    let (mut engine_laps, mut seq_laps, mut mults) = (Vec::new(), Vec::new(), 0usize);
    let (mut sim_s, mut sim_products, mut sim_peak) = (0.0, 0u64, 0usize);
    let start = Instant::now();
    let mut k = 0u64;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= seconds && k >= MIN_CALLS) || elapsed >= LOOP_CAP_S {
            break;
        }
        let mats = w.call(k);
        // Alternate which side runs first so neither always finds the
        // inputs warm in cache.
        let time_engine = || {
            let sw = Stopwatch::start();
            let out = engine_call(&engine, w.kind, &mats);
            (out, sw.stop())
        };
        let time_seq = || {
            let sw = Stopwatch::start();
            let refs: Vec<Csr<f64>> = mats.iter().map(|a| spgemm_seq(a, a)).collect();
            (refs, sw.stop())
        };
        let ((out, t_engine), (refs, t_seq)) = if k.is_multiple_of(2) {
            let e = time_engine();
            (e, time_seq())
        } else {
            let s = time_seq();
            (time_engine(), s)
        };
        attempted += 1;
        if call_correct(&out, &refs) {
            engine_laps.push(t_engine);
            seq_laps.push(t_seq);
            mults += mats.len();
            if k < MIN_CALLS {
                for (_, r) in out.iter().flatten() {
                    sim_s += r.sim_time_s;
                    sim_products += r.products;
                    sim_peak = sim_peak.max(r.peak_mem_bytes);
                }
            }
        } else {
            failed += 1;
        }
        k += 1;
    }
    if k < MIN_CALLS {
        eprintln!("only {k} calls in {LOOP_CAP_S} s; p90 needs {MIN_CALLS}");
        failed += 1;
    }

    // Host times are net of hypervisor steal, removed per window of about
    // a second of consecutive calls; set-up is corrected as a whole.
    let win = windows(
        engine_laps
            .iter()
            .zip(&seq_laps)
            .map(|(e, s)| e.wall_s + s.wall_s),
        WINDOW_S,
    );
    let latency: Vec<f64> = net_walls(&engine_laps, &win)
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let engine_s = latency.iter().sum::<f64>() / 1e3;
    let seq_s: f64 = net_walls(&seq_laps, &win).iter().sum();
    let (mut raw, mut stolen) = (0.0, 0.0);
    for lap in &engine_laps {
        raw += lap.wall_s;
        stolen += lap.stolen_s();
    }
    let n = latency.len();
    let values = BTreeMap::from([
        ("mult_per_s", mults as f64 / engine_s),
        ("latency_p50_ms", percentile(&latency, 50.0)),
        ("latency_p90_ms", percentile(&latency, 90.0)),
        ("sim_tax", engine_s / seq_s),
        ("sim_gflops", 2.0 * sim_products as f64 / sim_s / 1e9),
        ("sim_peak_mem_mb", sim_peak as f64 / 1e6),
        ("setup_s", median(&setup) * setup_lap.net_factor()),
        ("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN)),
    ]);
    let error_rate = failed as f64 / attempted as f64;
    let top = reportable_percentile(n).map_or("none".to_string(), |p| {
        format!("p{p} = {:.3} ms", percentile(&latency, p))
    });
    let notes = [
        format!("{mults} multiplies in {engine_s:.2} s net ({raw:.2} s wall) of engine calls"),
        format!("{n} calls in {} steal windows", win.len()),
        format!("{n} calls; highest reportable: {top}"),
        format!("engine {engine_s:.2} s / spgemm_seq {seq_s:.2} s net, interleaved"),
        format!("simulated, first {MIN_CALLS} calls"),
        format!("simulated, first {MIN_CALLS} calls"),
        format!("median of {SETUP_REPS} set-ups"),
        "host VmHWM".to_string(),
    ];
    let mut rows: Vec<Vec<String>> = END_TO_END
        .iter()
        .zip(&notes)
        .map(|(d, note)| {
            vec![
                d.name.to_string(),
                format!("{:.4}", values[d.name]),
                d.unit.to_string(),
                note.clone(),
            ]
        })
        .collect();
    rows.push(vec![
        "error_rate".into(),
        format!("{error_rate:.4}"),
        "ratio".into(),
        format!("{failed} of {attempted} checked calls failed"),
    ]);
    let report = format!(
        "== {} (seed {}, {seconds} s, closed loop, 1 caller, {} host threads) ==\n\
         host times are net of hypervisor steal ({stolen:.2} s stolen during {raw:.2} s of engine calls)\n{}",
        w.kind.name(),
        w.seed,
        host_threads(),
        table(&["metric", "value", "unit", "note"], &rows)
    );
    Outcome::new(&END_TO_END, &values, attempted, failed, report)
}
