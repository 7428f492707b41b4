//! The metrics a run reports, and the result line it prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "higher",
    }
}

/// End-to-end metrics of the untraced run. "sim" metrics use simulated
/// Titan V time and memory and are deterministic; the rest are host wall
/// clock and memory.
pub const END_TO_END: [Def; 8] = [
    higher("mult_per_s", "1/s"),
    lower("latency_p50_ms", "ms"),
    lower("latency_p90_ms", "ms"),
    lower("sim_tax", "x"),
    higher("sim_gflops", "GFLOPS"),
    lower("sim_peak_mem_mb", "MB"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: medians per call unless noted.
pub const PER_LAYER: [Def; 34] = [
    lower("sparse.spgemm_seq_ms", "ms"),
    lower("sparse.spgemm_par_ms", "ms"),
    lower("simt.launch_fixed_us", "us"),
    lower("simt.ns_per_block", "ns"),
    lower("analysis.wall_ms", "ms"),
    lower("analysis.sim_us", "us"),
    lower("global_lb.wall_ms", "ms"),
    lower("global_lb.sim_us", "us"),
    lower("global_lb.passes_fired", "count"),
    lower("symbolic.wall_ms", "ms"),
    lower("symbolic.sim_us", "us"),
    lower("symbolic.launches", "count"),
    lower("symbolic.spilled_blocks", "count"),
    lower("numeric.wall_ms", "ms"),
    lower("numeric.sim_us", "us"),
    lower("numeric.launches", "count"),
    lower("numeric.ns_per_product", "ns"),
    lower("numeric.spilled_blocks", "count"),
    lower("numeric.blocks_hash", "count"),
    lower("numeric.blocks_dense", "count"),
    lower("numeric.blocks_direct", "count"),
    higher("numeric.bw_pct_of_peak", "%"),
    lower("sort.sim_us", "us"),
    lower("sort.radix_elems", "count"),
    lower("plan.fingerprint_us", "us"),
    higher("plan.cache_hit_ratio", "ratio"),
    lower("plan.plan_ms", "ms"),
    lower("plan.execute_ms", "ms"),
    lower("workspace.peak_in_use", "count"),
    lower("pipeline.glue_ms", "ms"),
    higher("pipeline.batch_speedup", "x"),
    lower("trace.overhead_ratio", "x"),
    lower("audit.overhead_ratio", "x"),
    lower("engine.call_ms", "ms"),
];

/// The outcome of one run: what the result line and the report print.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed and every metric is finite.
    pub correct: bool,
    /// Checked calls.
    pub attempted: usize,
    /// Calls that panicked or returned a wrong product.
    pub failed: usize,
    /// Metric values, in the order of their definitions.
    pub metrics: Vec<(Def, f64)>,
    /// Human-readable report.
    pub report: String,
}

impl Outcome {
    /// Collects `values` in the order of `defs`. A missing or non-finite
    /// value marks the run incorrect and reads as 0.
    pub fn new(
        defs: &[Def],
        values: &BTreeMap<&'static str, f64>,
        attempted: usize,
        failed: usize,
        report: String,
    ) -> Self {
        let mut correct = failed == 0 && attempted > 0;
        let metrics = defs
            .iter()
            .map(|d| match values.get(d.name) {
                Some(v) if v.is_finite() => (*d, *v),
                _ => {
                    correct = false;
                    (*d, 0.0)
                }
            })
            .collect();
        Outcome {
            correct,
            attempted,
            failed,
            metrics,
            report,
        }
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (d, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Renders rows as a left-aligned text table under `header`.
pub fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (w, c) in widths.iter_mut().zip(r) {
            *w = (*w).max(c.chars().count());
        }
    }
    let line = |cells: Vec<String>| -> String {
        let mut s = String::new();
        for (c, w) in cells.iter().zip(&widths) {
            let _ = write!(s, "{c:<w$}  ");
        }
        s.trim_end().to_string() + "\n"
    };
    let mut out = line(header.iter().map(|h| h.to_string()).collect());
    out += &line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for r in rows {
        out += &line(r.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let values = BTreeMap::from([("mult_per_s", 12.5), ("setup_s", 0.25)]);
        let defs = [END_TO_END[0], END_TO_END[6]];
        let o = Outcome::new(&defs, &values, 10, 0, String::new());
        assert!(o.correct);
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"mult_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        let missing = Outcome::new(&END_TO_END, &values, 10, 0, String::new());
        assert!(!missing.correct);
        let nan = Outcome::new(
            &defs,
            &BTreeMap::from([("mult_per_s", f64::NAN), ("setup_s", 1.0)]),
            1,
            0,
            String::new(),
        );
        assert!(!nan.correct);
    }

    #[test]
    fn names_are_unique_and_match_benchmark_json() {
        let all: Vec<Def> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for d in &all {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"better\":").count(), all.len());
    }
}
