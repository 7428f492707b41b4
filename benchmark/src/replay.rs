//! Replays one multiply through the public stage functions, one span per
//! stage, and reconciles the result with the engine's own report.

use crate::spans::Recorder;
use speck_core::global_lb::{plan_numeric, plan_symbolic};
use speck_core::numeric::{row_ptr_from_nnz, run_numeric, NumericJob};
use speck_core::pipeline::stage;
use speck_core::symbolic::{group_blocks, run_symbolic};
use speck_core::{analyze, KernelCascade, SpeckSpgemm, WorkspacePool};
use speck_simt::{BlockCost, DeviceConfig, KernelReport, Timeline};
use speck_sparse::Csr;
use std::collections::BTreeMap;

/// Launch count and merged event counters per pipeline stage: the part of
/// a report the replay must reproduce exactly.
pub type StageLedger = BTreeMap<&'static str, (usize, BlockCost)>;

/// Output and simulated accounting of one replayed multiply.
pub struct Replay {
    /// The product.
    pub c: Csr<f64>,
    /// Every kernel launch, tagged with its pipeline stage, in launch order.
    pub kernels: Vec<(&'static str, KernelReport)>,
    /// Global load-balancing passes whose gate fired (0 to 2).
    pub passes_fired: usize,
    /// Symbolic blocks that spilled to a global hash map.
    pub symbolic_spilled: usize,
    /// Numeric blocks that spilled to a global hash map.
    pub numeric_spilled: usize,
    /// Numeric blocks per accumulator: (hash, dense, direct).
    pub numeric_methods: (usize, usize, usize),
    /// Elements routed through the global radix sort.
    pub radix_elems: usize,
    /// Intermediate products of the multiply.
    pub products: u64,
}

/// The benchmark's layer of a pipeline stage.
fn layer_of(stage_name: &str) -> &'static str {
    match stage_name {
        stage::ANALYSIS => "analysis",
        stage::SYMBOLIC_LOAD | stage::NUMERIC_LOAD => "global_lb",
        stage::SYMBOLIC => "symbolic",
        stage::NUMERIC => "numeric",
        stage::SORTING => "sort",
        other => panic!("unknown pipeline stage {other}"),
    }
}

/// Simulated totals of a set of kernel launches.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimTotals {
    /// Launches.
    pub launches: usize,
    /// Simulated seconds, launch overhead included.
    pub seconds: f64,
    /// Simulated kernel-body seconds (launch overhead excluded).
    pub body_seconds: f64,
    /// Bytes moved through the simulated memory system.
    pub bytes: u64,
}

impl SimTotals {
    fn add(&mut self, dev: &DeviceConfig, r: &KernelReport) {
        self.launches += 1;
        self.seconds += r.sim_time_s;
        self.body_seconds += dev.cycles_to_seconds(r.body_cycles(dev));
        self.bytes += r.bytes_moved(dev);
    }
}

impl Replay {
    /// Per-stage launch counts and merged counters of the replayed kernels.
    pub fn ledger(&self) -> StageLedger {
        let mut out = StageLedger::new();
        for (s, r) in &self.kernels {
            let e = out.entry(*s).or_default();
            e.0 += 1;
            e.1 = e.1.merge(&r.total_cost);
        }
        out
    }

    /// Simulated totals per benchmark layer.
    pub fn sim_by_layer(&self, dev: &DeviceConfig) -> BTreeMap<&'static str, SimTotals> {
        let mut out: BTreeMap<&'static str, SimTotals> = BTreeMap::new();
        for (s, r) in &self.kernels {
            out.entry(layer_of(s)).or_default().add(dev, r);
        }
        out
    }
}

/// The stages of an engine report that launched kernels.
pub fn timeline_ledger(t: &Timeline) -> StageLedger {
    t.stages()
        .filter(|(_, s)| s.launches > 0)
        .map(|(name, s)| (name, (s.launches, s.cost)))
        .collect()
}

/// Runs `A · B` through `analyze` → `plan_symbolic` → `run_symbolic` →
/// `plan_numeric` → `group_blocks`/`row_ptr_from_nnz` → `run_numeric`
/// with `engine`'s device, cost model and configuration, recording one
/// span per stage under call `call`.
pub fn replay(
    rec: &mut Recorder,
    call: u64,
    engine: &SpeckSpgemm,
    a: &Csr<f64>,
    b: &Csr<f64>,
    pool: &WorkspacePool<f64>,
) -> Replay {
    let (dev, cost, cfg) = (&engine.device, &engine.cost, &engine.config);
    let cascade = KernelCascade::for_device(dev);
    let mut kernels = Vec::new();

    let (info, report) = rec.span("analysis", call, |_| analyze(dev, cost, a, b));
    kernels.push((stage::ANALYSIS, report));

    let splan = rec.span("global_lb", call, |_| {
        plan_symbolic(dev, cost, &cascade, cfg, &info, b.cols())
    });
    kernels.extend(
        splan
            .lb_reports
            .iter()
            .map(|r| (stage::SYMBOLIC_LOAD, r.clone())),
    );

    let sym = rec.span("symbolic", call, |_| {
        run_symbolic(dev, cost, &cascade, cfg, a, b, &info, &splan, pool)
    });
    kernels.extend(sym.reports.iter().map(|r| (stage::SYMBOLIC, r.clone())));

    let nplan = rec.span("global_lb", call, |_| {
        plan_numeric(
            dev,
            cost,
            &cascade,
            cfg,
            &info,
            &sym.row_nnz,
            b.cols(),
            std::mem::size_of::<f64>(),
        )
    });
    kernels.extend(
        nplan
            .lb_reports
            .iter()
            .map(|r| (stage::NUMERIC_LOAD, r.clone())),
    );

    let (groups, row_ptr) = rec.span("assemble", call, |_| {
        (group_blocks(&nplan), row_ptr_from_nnz(&sym.row_nnz))
    });
    let job = NumericJob {
        plan: &nplan,
        groups: &groups,
        row_nnz: &sym.row_nnz,
        row_ptr: &row_ptr,
    };
    let num = rec.span("numeric", call, |_| {
        run_numeric(dev, cost, &cascade, cfg, a, b, &info, &job, pool)
    });
    kernels.extend(num.reports.iter().map(|r| (stage::NUMERIC, r.clone())));
    kernels.extend(num.sort_report.iter().map(|r| (stage::SORTING, r.clone())));

    Replay {
        passes_fired: splan.used_global_lb as usize + nplan.used_global_lb as usize,
        symbolic_spilled: sym.spilled_blocks,
        numeric_spilled: num.spilled_blocks,
        numeric_methods: nplan.method_counts(),
        radix_elems: num.radix_elems,
        products: info.total_products,
        kernels,
        c: num.c,
    }
}

/// True when two products are the same matrix, bit for bit.
pub fn identical(x: &Csr<f64>, y: &Csr<f64>) -> bool {
    x.pattern_eq(y)
        && x.vals().len() == y.vals().len()
        && x.vals()
            .iter()
            .zip(y.vals())
            .all(|(p, q)| p.to_bits() == q.to_bits())
}

/// Checks the replay against an engine multiply of the same operands:
/// the same `C` and, per stage, the same launches and event counters.
pub fn reconcile(replay: &Replay, c: &Csr<f64>, timeline: &Timeline) -> Result<(), String> {
    if !identical(&replay.c, c) {
        return Err("replayed C differs from the engine's C".into());
    }
    let (mine, theirs) = (replay.ledger(), timeline_ledger(timeline));
    if mine != theirs {
        let counts = |l: &StageLedger| -> Vec<(&str, usize)> {
            l.iter().map(|(s, (n, _))| (*s, *n)).collect()
        };
        return Err(format!(
            "stage ledgers differ: replay {:?} vs engine {:?}",
            counts(&mine),
            counts(&theirs)
        ));
    }
    Ok(())
}
