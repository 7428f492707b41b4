//! Golden-file test pinning the three observability exports across
//! commits: the Chrome trace, the decision audit, and the canonical
//! metrics snapshot of one cold and one warm multiply on a tracing,
//! auditing engine. The fixtures under `tests/fixtures/` were recorded
//! from an earlier build; any byte of drift means an export changed.
//!
//! To re-record after an intended format change, write each `exports()`
//! entry to `tests/fixtures/<name>` and review the diff.

use speck_repro::sparse::gen::with_hub_rows;
use speck_repro::speck::{GlobalLbMode, SpeckConfig, SpeckSpgemm};

/// `(fixture file name, freshly exported text)` for every pinned export.
fn exports() -> Vec<(&'static str, String)> {
    // Two hundred banded rows plus hub rows, with global load balancing
    // forced on so the binning and block-merge kernels, several bins and
    // both hash and dense accumulators appear in a small export.
    let a = with_hub_rows(200, 3, 2, 200, 7);
    let engine = SpeckSpgemm::with_config(SpeckConfig {
        global_lb: GlobalLbMode::AlwaysOn,
        ..SpeckConfig::default()
    })
    .with_tracing(true)
    .with_auditing(true);
    let (_, cold) = engine.multiply(&a, &a);
    let (_, warm) = engine.multiply(&a, &a);
    assert!(!cold.reused_plan && warm.reused_plan);
    let trace = |r: &speck_repro::speck::MultiplyReport| {
        r.trace
            .as_ref()
            .expect("tracing engine")
            .chrome_trace_json()
    };
    let audit = |r: &speck_repro::speck::MultiplyReport| {
        r.audit.as_ref().expect("auditing engine").canonical_json()
    };
    vec![
        ("golden_cold_trace.json", trace(&cold)),
        ("golden_warm_trace.json", trace(&warm)),
        ("golden_cold_audit.json", audit(&cold)),
        ("golden_warm_audit.json", audit(&warm)),
        (
            "golden_metrics.json",
            engine.metrics_snapshot().canonical_json(),
        ),
    ]
}

#[test]
fn exports_match_recorded_fixtures() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    for (name, text) in exports() {
        let want = std::fs::read_to_string(format!("{dir}/{name}"))
            .unwrap_or_else(|e| panic!("fixture {name}: {e}"));
        if text != want {
            let line = text
                .lines()
                .zip(want.lines())
                .position(|(a, b)| a != b)
                .map_or(text.lines().count().min(want.lines().count()), |i| i);
            panic!(
                "{name} drifted from its fixture (first differing line {})",
                line + 1
            );
        }
    }
}
