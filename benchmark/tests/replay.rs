//! The stage replay must reproduce `SpeckSpgemm::multiply` on each
//! workload's first input: the same `C`, and per stage the same launches
//! and event counters as the engine's timeline.

use speck_core::{SpeckSpgemm, WorkspacePool};
use speck_ledger::matches;
use speck_ledger::replay::{reconcile, replay, timeline_ledger};
use speck_ledger::spans::Recorder;
use speck_ledger::workloads::{Kind, Workload};
use speck_sparse::reference::spgemm_seq;

#[test]
fn replay_reconciles_with_multiply_on_every_workload() {
    let engine = SpeckSpgemm::default();
    let pool = WorkspacePool::new();
    for kind in Kind::ALL {
        let mats = Workload::new(kind, 1).call(0);
        let a = &mats[0];
        let mut rec = Recorder::default();
        let rp = replay(&mut rec, 0, &engine, a, a, &pool);
        let (c, report) = engine.multiply(a, a);
        assert!(!report.reused_plan);
        reconcile(&rp, &c, &report.timeline).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        assert!(matches(&rp.c, &spgemm_seq(a, a)), "{}", kind.name());
        assert_eq!(rp.products, report.products);
        assert_eq!(rp.numeric_methods, report.numeric_methods);
        assert_eq!(rp.radix_elems, report.radix_elems);
        let stages: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            stages,
            [
                "analysis",
                "global_lb",
                "symbolic",
                "global_lb",
                "assemble",
                "numeric"
            ]
        );
        assert!(!timeline_ledger(&report.timeline).is_empty());
    }
}

#[test]
fn reconcile_rejects_a_different_product() {
    let engine = SpeckSpgemm::default();
    let pool = WorkspacePool::new();
    let w = Workload::new(Kind::SmallBatch, 1);
    let (x, y) = (&w.call(0)[0], &w.call(1)[0]);
    let rp = replay(&mut Recorder::default(), 0, &engine, x, x, &pool);
    let (c, report) = engine.multiply(y, y);
    assert!(reconcile(&rp, &c, &report.timeline).is_err());
}
