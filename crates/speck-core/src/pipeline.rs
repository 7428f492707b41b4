//! The end-to-end spECK pipeline (paper Fig. 2) and its public API.
//!
//! The pipeline is factored into two halves around the pattern/value
//! boundary of the algorithm:
//!
//! * [`plan_with_pool`] runs the *setup* stages — row analysis, symbolic
//!   load balancing, the symbolic pass, numeric load balancing — which
//!   depend only on the sparsity patterns of A and B, and packages their
//!   outputs as a self-contained [`SpgemmPlan`].
//! * [`execute_plan_with_pool`] runs the *execution* stages — the numeric
//!   pass and the trailing sort — against a plan and the operand values.
//!
//! [`multiply`] is plan-then-execute in one call (the cold path, bit
//! identical to the unfactored pipeline), and [`SpeckSpgemm::multiply`]
//! additionally caches plans by pattern fingerprint so repeated patterns
//! transparently skip the setup stages entirely (see [`crate::plan`]).

use crate::analysis::analyze;
use crate::cascade::KernelCascade;
use crate::config::SpeckConfig;
use crate::global_lb::{plan_numeric, plan_symbolic, ThresholdSet};
use crate::metrics::{MetricsRegistry, MetricsSink, MetricsSnapshot};
use crate::numeric::{row_ptr_from_nnz, run_numeric, NumericJob};
use crate::plan::{fnv1a_bytes, PatternKey, PlanCache, SpgemmPlan};
use crate::stage_log::StageLog;
use crate::symbolic::{group_blocks, run_symbolic};
use crate::trace::{pass_annotations, ExecutionTrace};
use crate::workspace::{SharedWorkspaces, WorkspacePool};
use rayon::prelude::*;
use speck_simt::{CostModel, DeviceConfig, MemTracker, Timeline};
use speck_sparse::{Csr, Scalar};
use std::any::Any;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

/// Stage names used in the timeline, matching paper Fig. 11.
pub mod stage {
    /// Row analysis (Alg. 1).
    pub const ANALYSIS: &str = "analysis";
    /// Global load balancing before the symbolic pass.
    pub const SYMBOLIC_LOAD: &str = "symb. load";
    /// Symbolic SpGEMM.
    pub const SYMBOLIC: &str = "symb. SpGEMM";
    /// Global load balancing before the numeric pass.
    pub const NUMERIC_LOAD: &str = "num. load";
    /// Numeric SpGEMM.
    pub const NUMERIC: &str = "num. SpGEMM";
    /// Trailing radix sort.
    pub const SORTING: &str = "sorting";
}

/// Everything the caller may want to know about one multiplication.
#[derive(Clone, Debug)]
pub struct MultiplyReport {
    /// Per-stage simulated durations (Fig. 11). For a reused plan this
    /// holds only the stages that actually ran (numeric + sorting).
    pub timeline: Timeline,
    /// Total simulated time in seconds.
    pub sim_time_s: f64,
    /// Peak simulated device memory (inputs excluded, output C included —
    /// the paper's Table 3/Fig. 10 convention). Plan-held setup structures
    /// are counted whether the call built them or reused them.
    pub peak_mem_bytes: usize,
    /// Whether the symbolic pass used the global load balancer.
    pub symbolic_used_lb: bool,
    /// Whether the numeric pass used the global load balancer.
    pub numeric_used_lb: bool,
    /// Threshold set consulted for the symbolic decision.
    pub symbolic_threshold_set: ThresholdSet,
    /// Threshold set consulted for the numeric decision.
    pub numeric_threshold_set: ThresholdSet,
    /// Demand-variance ratio `m_max/m_avg` seen by the symbolic decision.
    pub symbolic_ratio: f64,
    /// Demand-variance ratio seen by the numeric decision.
    pub numeric_ratio: f64,
    /// Blocks per method in the numeric pass: (hash, dense, direct).
    pub numeric_methods: (usize, usize, usize),
    /// Blocks that spilled to global hash maps across both passes (the
    /// symbolic figure comes from the plan when it was reused).
    pub spilled_blocks: usize,
    /// Elements routed through the global radix sort.
    pub radix_elems: usize,
    /// Total intermediate products of the multiplication.
    pub products: u64,
    /// Whether this call reused a precomputed [`SpgemmPlan`] and skipped
    /// the analysis/symbolic setup stages.
    pub reused_plan: bool,
    /// Full execution trace of the call, present only when the engine was
    /// built [`SpeckSpgemm::with_tracing`]. Cold calls cover the whole
    /// pipeline (setup + execution); reused calls cover only the stages
    /// that ran. `Arc` so cloning reports stays cheap.
    pub trace: Option<Arc<ExecutionTrace>>,
    /// Decision-provenance report reconciling every pipeline decision
    /// (gating, binning, merge, accumulator, group size) against measured
    /// per-block cycles and shadow-cost estimates of the rejected
    /// alternatives. Present only when the engine was built
    /// [`SpeckSpgemm::with_auditing`]; reused calls audit only the
    /// decisions whose kernels actually ran (the numeric half).
    pub audit: Option<Arc<crate::audit::DecisionReport>>,
}

impl MultiplyReport {
    /// GFLOPS at the paper's 2-ops-per-product convention.
    pub fn gflops(&self) -> f64 {
        if self.sim_time_s <= 0.0 {
            0.0
        } else {
            (2 * self.products) as f64 / self.sim_time_s / 1e9
        }
    }
}

/// Default number of reusable plans a [`SpeckSpgemm`] caches (LRU).
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

/// Reusable engine: device + cost model + configuration.
///
/// The engine owns a [`SharedWorkspaces`] registry, so repeated `multiply`
/// calls reuse the same host-side accumulator buffers instead of
/// reallocating them (a host optimisation only — simulated cost is
/// unchanged), and a [`PlanCache`] keyed by pattern fingerprint, so
/// `multiply` on a repeated sparsity pattern transparently skips the
/// analysis and symbolic stages (an algorithmic win — simulated time
/// drops too; the report records `reused_plan: true`). Clones share both.
#[derive(Clone, Debug)]
pub struct SpeckSpgemm {
    /// Simulated device.
    pub device: DeviceConfig,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Algorithm configuration.
    pub config: SpeckConfig,
    workspaces: Arc<SharedWorkspaces>,
    plans: Arc<Mutex<PlanCache>>,
    metrics: Arc<MetricsRegistry>,
    tracing: bool,
    auditing: bool,
}

impl Default for SpeckSpgemm {
    fn default() -> Self {
        Self {
            device: DeviceConfig::titan_v(),
            cost: CostModel::default(),
            config: SpeckConfig::default(),
            workspaces: Arc::new(SharedWorkspaces::new()),
            plans: Arc::new(Mutex::new(PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY))),
            metrics: Arc::new(MetricsRegistry::new()),
            tracing: false,
            auditing: false,
        }
    }
}

impl SpeckSpgemm {
    /// Engine with a custom configuration on the default device.
    pub fn with_config(config: SpeckConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// Replaces the plan cache with one holding at most `capacity` plans.
    /// Capacity 0 disables plan reuse entirely: every `multiply` runs the
    /// full cold pipeline (useful for simulation-neutrality checks).
    pub fn with_plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.plans = Arc::new(Mutex::new(PlanCache::new(capacity)));
        self
    }

    /// Enables (or disables) execution tracing: every multiply through
    /// this engine keeps its launches' per-block costs, derives per-block
    /// schedules from them, and attaches a full [`ExecutionTrace`] to its
    /// report. Tracing never changes simulated results, nor what any other
    /// engine records — only this engine's reports grow. Off by default.
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Whether execution tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Enables (or disables) decision auditing: every multiply through
    /// this engine derives per-block schedules (like tracing) and
    /// attaches a [`crate::audit::DecisionReport`] reconciling each
    /// pipeline decision against measured cycles and shadow-cost
    /// estimates of the rejected alternatives. Auditing never changes
    /// simulated results — the report is built read-only from the
    /// finished trace. Off by default, and the disabled path does no
    /// audit work at all.
    pub fn with_auditing(mut self, on: bool) -> Self {
        self.auditing = on;
        self
    }

    /// Whether decision auditing is enabled.
    pub fn auditing(&self) -> bool {
        self.auditing
    }

    /// Shares a metrics registry: every multiply through this engine (and
    /// its clones) records stage counters, kernel launches, and span
    /// timings into `registry`. Engines already share their registry with
    /// clones; this builder additionally lets several engines feed one
    /// registry (e.g. a digest engine and a caching engine in one bench).
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = registry;
        self
    }

    /// The engine's metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Point-in-time snapshot of the engine's metrics, augmented with the
    /// plan-cache counters (`plan_cache/hits|misses|evictions` — counted
    /// inside the cache, injected here) and workspace-pool occupancy
    /// gauges (`pool/*` — volatile, never baseline-gated).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let cache = self.plans.lock().unwrap();
        let (hits, misses) = cache.stats();
        snap.counters.insert("plan_cache/hits".into(), hits);
        snap.counters.insert("plan_cache/misses".into(), misses);
        snap.counters
            .insert("plan_cache/evictions".into(), cache.evictions());
        snap.gauges
            .insert("pool/plan_cache_len".into(), cache.len() as f64);
        drop(cache);
        snap.gauges.insert(
            "pool/workspace_idle".into(),
            self.workspaces.total_idle() as f64,
        );
        snap.gauges.insert(
            "pool/workspace_peak_in_use".into(),
            self.workspaces.total_peak_in_use() as f64,
        );
        snap
    }

    /// The engine's workspace registry (one buffer pool per scalar type).
    pub fn workspaces(&self) -> &Arc<SharedWorkspaces> {
        &self.workspaces
    }

    /// Lifetime `(hits, misses)` of the plan cache.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        self.plans.lock().unwrap().stats()
    }

    /// Number of plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.plans.lock().unwrap().len()
    }

    /// Drops every cached plan.
    pub fn clear_plan_cache(&self) {
        self.plans.lock().unwrap().clear()
    }

    /// Fingerprint of everything besides the operands that determines a
    /// plan: device, cost model, and configuration. Part of the cache key,
    /// so mutating the engine's public fields never revives a stale plan.
    fn env_digest(&self) -> u64 {
        // Tracing and auditing are part of the key: an observing engine
        // must not revive a plan that carries no setup trace (and vice
        // versa).
        let env = format!(
            "{:?}|{:?}|{:?}|trace={}|audit={}",
            self.device, self.cost, self.config, self.tracing, self.auditing
        );
        fnv1a_bytes(env.as_bytes())
    }

    /// What this engine's calls record: metrics into its registry, and
    /// launch annotations when tracing or auditing.
    fn observe(&self) -> Observe<'_> {
        Observe {
            metrics: MetricsSink::new(&self.metrics),
            trace: self.tracing,
            audit: self.auditing,
        }
    }

    /// Computes `C = A · B`; returns the result and the full report.
    ///
    /// When the `(A, B)` sparsity pattern (and scalar type, device, cost
    /// model, and configuration) matches a cached plan, the setup stages
    /// are skipped and the report's `reused_plan` is true; otherwise the
    /// full pipeline runs and the new plan is cached.
    pub fn multiply<V: Scalar>(&self, a: &Csr<V>, b: &Csr<V>) -> (Csr<V>, MultiplyReport) {
        let obs = self.observe();
        obs.metrics.add("engine/multiply_calls", 1);
        let pool = self.workspaces.pool::<V>();
        let (dev, cost, cfg) = (&self.device, &self.cost, &self.config);
        let execute = |plan: &SpgemmPlan<V>, reused: bool| {
            execute_inner(dev, cost, cfg, plan, a, b, &pool, reused, obs)
        };
        if self.plans.lock().unwrap().capacity() == 0 {
            return execute(&plan_inner(dev, cost, cfg, a, b, &pool, obs), false);
        }
        let key = PatternKey::new(a, b, self.env_digest());
        // Bind the hit first: the cache lock must not be held while the
        // plan executes.
        let hit = self.plans.lock().unwrap().get(&key);
        if let Some(plan) = hit.and_then(|h| h.downcast::<SpgemmPlan<V>>().ok()) {
            return execute(&plan, true);
        }
        let plan = Arc::new(plan_inner(dev, cost, cfg, a, b, &pool, obs));
        let out = execute(&plan, false);
        self.plans.lock().unwrap().insert(key, plan);
        out
    }

    /// Runs the setup stages only (analysis, symbolic load balancing,
    /// symbolic pass, numeric load balancing) and returns the reusable
    /// plan. Pair with [`SpeckSpgemm::execute_plan`] to amortise the setup
    /// across many multiplications of the same pattern.
    pub fn plan<V: Scalar>(&self, a: &Csr<V>, b: &Csr<V>) -> SpgemmPlan<V> {
        let obs = self.observe();
        let pool = self.workspaces.pool::<V>();
        plan_inner(&self.device, &self.cost, &self.config, a, b, &pool, obs)
    }

    /// Executes a plan against operands with the *same sparsity pattern*
    /// it was built from (values may differ): numeric pass + sort only.
    /// The report's timeline holds just those stages and `reused_plan` is
    /// true. Panics when the operands' shape or NNZ disagree with the
    /// plan; matching column structure is the caller's contract (the
    /// cached [`SpeckSpgemm::multiply`] verifies it by fingerprint).
    pub fn execute_plan<V: Scalar>(
        &self,
        plan: &SpgemmPlan<V>,
        a: &Csr<V>,
        b: &Csr<V>,
    ) -> (Csr<V>, MultiplyReport) {
        let obs = self.observe();
        let pool = self.workspaces.pool::<V>();
        execute_inner(
            &self.device,
            &self.cost,
            &self.config,
            plan,
            a,
            b,
            &pool,
            true,
            obs,
        )
    }

    /// Multiplies every `(A, B)` pair, running independent multiplies
    /// across the rayon pool. All calls share the engine's workspace
    /// registry and plan cache. Each distinct pattern missing from the
    /// cache is planned once (the missing patterns in parallel), then
    /// every pair executes: as with sequential [`SpeckSpgemm::multiply`]
    /// calls, the first pair of a newly planned pattern reports
    /// `reused_plan == false` and every other pair `true`. Results are
    /// returned in input order.
    pub fn multiply_batch<V: Scalar>(
        &self,
        pairs: &[(&Csr<V>, &Csr<V>)],
    ) -> Vec<(Csr<V>, MultiplyReport)> {
        if self.plans.lock().unwrap().capacity() == 0 {
            return pairs
                .par_iter()
                .map(|&(a, b)| self.multiply(a, b))
                .collect();
        }
        let obs = self.observe();
        obs.metrics.add("engine/multiply_calls", pairs.len() as u64);
        let pool = self.workspaces.pool::<V>();
        let (dev, cost, cfg) = (&self.device, &self.cost, &self.config);
        let env = self.env_digest();
        let keys: Vec<PatternKey> = pairs
            .par_iter()
            .map(|&(a, b)| PatternKey::new(a, b, env))
            .collect();

        // Look the pairs up in input order, as sequential calls would;
        // `cold` holds the first pair of each pattern missing from the
        // cache.
        let mut plans: Vec<Option<(Arc<SpgemmPlan<V>>, bool)>> = vec![None; pairs.len()];
        let mut cold: Vec<usize> = Vec::new();
        {
            let mut cache = self.plans.lock().unwrap();
            for (i, key) in keys.iter().enumerate() {
                if cold.iter().any(|&c| keys[c] == *key) {
                    continue;
                }
                match cache
                    .get(key)
                    .and_then(|h| h.downcast::<SpgemmPlan<V>>().ok())
                {
                    Some(plan) => plans[i] = Some((plan, true)),
                    None => cold.push(i),
                }
            }
        }
        let fresh: Vec<Arc<SpgemmPlan<V>>> = cold
            .par_iter()
            .map(|&i| {
                Arc::new(plan_inner(
                    dev, cost, cfg, pairs[i].0, pairs[i].1, &pool, obs,
                ))
            })
            .collect();
        {
            let mut cache = self.plans.lock().unwrap();
            for (&i, plan) in cold.iter().zip(&fresh) {
                cache.insert(keys[i], Arc::clone(plan) as Arc<dyn Any + Send + Sync>);
                plans[i] = Some((Arc::clone(plan), false));
            }
            for (i, key) in keys.iter().enumerate() {
                if plans[i].is_none() {
                    // A later pair of a pattern planned above. The lookup
                    // scores the hit a sequential call would; the plan
                    // comes from this batch even if the LRU dropped it.
                    let _ = cache.get(key);
                    let p = cold.iter().position(|&c| keys[c] == *key);
                    let plan = &fresh[p.expect("pattern planned above")];
                    plans[i] = Some((Arc::clone(plan), true));
                }
            }
        }
        (0..pairs.len())
            .into_par_iter()
            .map(|i| {
                let (plan, reused) = plans[i].as_ref().expect("every pair has a plan");
                let (a, b) = pairs[i];
                execute_inner(dev, cost, cfg, plan, a, b, &pool, *reused, obs)
            })
            .collect()
    }
}

/// What a pipeline call records besides its simulated results. The free
/// functions observe nothing (the default); engine calls record metrics
/// and, when tracing or auditing, annotate their launches. Observation
/// only reads finished kernel reports, so simulated results are
/// bit-identical either way.
#[derive(Clone, Copy, Debug, Default)]
struct Observe<'a> {
    metrics: MetricsSink<'a>,
    trace: bool,
    audit: bool,
}

impl Observe<'_> {
    /// Whether launches carry per-block schedules and spECK annotations
    /// (the trace and the audit both read them).
    fn annotates(&self) -> bool {
        self.trace || self.audit
    }
}

/// Computes `C = A · B` with spECK on the simulator.
///
/// Panics when `a.cols() != b.rows()` (matching the reference
/// implementations in `speck-sparse`).
pub fn multiply<V: Scalar>(
    dev: &DeviceConfig,
    cost: &CostModel,
    cfg: &SpeckConfig,
    a: &Csr<V>,
    b: &Csr<V>,
) -> (Csr<V>, MultiplyReport) {
    multiply_with_pool(dev, cost, cfg, a, b, &WorkspacePool::new())
}

/// Like [`multiply`], but borrowing kernel workspaces from `pool` (and
/// leaving them there for later calls). The pool never affects the report —
/// only host-side allocation traffic.
pub fn multiply_with_pool<V: Scalar>(
    dev: &DeviceConfig,
    cost: &CostModel,
    cfg: &SpeckConfig,
    a: &Csr<V>,
    b: &Csr<V>,
    pool: &WorkspacePool<V>,
) -> (Csr<V>, MultiplyReport) {
    let plan = plan_with_pool(dev, cost, cfg, a, b, pool);
    execute_inner(dev, cost, cfg, &plan, a, b, pool, false, Observe::default())
}

/// Runs the setup stages (analysis + symbolic load balancing + symbolic
/// pass + numeric load balancing) and returns the self-contained
/// [`SpgemmPlan`]. The plan keeps the setup stages' stage log and
/// device-memory footprint, so executing it cold reproduces [`multiply`]
/// bit for bit.
pub fn plan_with_pool<V: Scalar>(
    dev: &DeviceConfig,
    cost: &CostModel,
    cfg: &SpeckConfig,
    a: &Csr<V>,
    b: &Csr<V>,
    pool: &WorkspacePool<V>,
) -> SpgemmPlan<V> {
    plan_inner(dev, cost, cfg, a, b, pool, Observe::default())
}

/// The setup half of the pipeline. Every event is appended once to the
/// plan's stage log; the log's launches are recorded into the metrics
/// sink at the end, and the timeline and trace are folded from it later.
#[allow(clippy::too_many_arguments)]
fn plan_inner<V: Scalar>(
    dev: &DeviceConfig,
    cost: &CostModel,
    cfg: &SpeckConfig,
    a: &Csr<V>,
    b: &Csr<V>,
    pool: &WorkspacePool<V>,
    obs: Observe<'_>,
) -> SpgemmPlan<V> {
    assert_eq!(a.cols(), b.rows(), "spECK multiply: dimension mismatch");
    let m = obs.metrics;
    let span = m.span("plan");
    let cascade = KernelCascade::for_device(dev);
    let mut log = StageLog::new(obs.annotates());
    let mut setup_mem_bytes = 0usize;
    let alloc_s = dev.cycles_to_seconds(dev.alloc_overhead_cycles);

    // Stage 1: row analysis.
    let (info, analysis_report) = {
        let _s = span.child("analysis");
        analyze(dev, cost, a, b)
    };
    log.kernels(stage::ANALYSIS, [analysis_report], None);
    setup_mem_bytes += info.rows.len() * std::mem::size_of::<crate::analysis::RowInfo>();
    log.fixed(stage::ANALYSIS, "alloc", alloc_s);

    // Stage 2: symbolic load balancing.
    let mut splan = {
        let _s = span.child("symbolic_lb");
        plan_symbolic(dev, cost, &cascade, cfg, &info, b.cols())
    };
    log.kernels(
        stage::SYMBOLIC_LOAD,
        std::mem::take(&mut splan.lb_reports),
        None,
    );
    splan.record_metrics(&m, "symbolic");
    if splan.lb_alloc_bytes > 0 {
        setup_mem_bytes += splan.lb_alloc_bytes;
        log.fixed(stage::SYMBOLIC_LOAD, "alloc", alloc_s);
    }

    // Stage 3: symbolic SpGEMM. Observed launches are stamped with their
    // bin, accumulator, rows, and group size, in launch order.
    let sym = {
        let _s = span.child("symbolic");
        run_symbolic(dev, cost, &cascade, cfg, a, b, &info, &splan, pool)
    };
    sym.record_metrics(&m);
    let anns = obs
        .annotates()
        .then(|| pass_annotations(dev, &cascade, cfg, &info, &splan, &group_blocks(&splan)));
    log.kernels(stage::SYMBOLIC, sym.reports, anns);
    // Row-count array + prefix sum for C's offsets.
    setup_mem_bytes += (a.rows() + 1) * 8;
    log.fixed(stage::SYMBOLIC, "alloc", alloc_s);

    // Stage 4: numeric load balancing on exact sizes.
    let mut nplan = {
        let _s = span.child("numeric_lb");
        plan_numeric(
            dev,
            cost,
            &cascade,
            cfg,
            &info,
            &sym.row_nnz,
            b.cols(),
            std::mem::size_of::<V>(),
        )
    };
    log.kernels(
        stage::NUMERIC_LOAD,
        std::mem::take(&mut nplan.lb_reports),
        None,
    );
    nplan.record_metrics(&m, "numeric");
    if nplan.lb_alloc_bytes > 0 {
        setup_mem_bytes += nplan.lb_alloc_bytes;
        log.fixed(stage::NUMERIC_LOAD, "alloc", alloc_s);
    }

    // Global hash-map fallback pool: as many maps as can be live at once
    // (paper §4.3), sized by the largest conceivable overflow row. The
    // overflow-row count was hoisted into the analysis sweep.
    if info.overflow_rows > 0 {
        let largest_cfg = cascade.config(cascade.largest());
        let live = info
            .overflow_rows
            .min(dev.max_concurrent_blocks(largest_cfg.threads, largest_cfg.scratch_bytes));
        let per_map = info.max_products as usize * (8 + std::mem::size_of::<V>());
        setup_mem_bytes += live * per_map;
        log.fixed(stage::NUMERIC_LOAD, "alloc overflow pool", alloc_s);
    }
    log.record_metrics(&m);

    let row_ptr = row_ptr_from_nnz(&sym.row_nnz);
    let ngroups = group_blocks(&nplan);
    SpgemmPlan {
        a_rows: a.rows(),
        a_cols: a.cols(),
        b_cols: b.cols(),
        a_nnz: a.nnz(),
        b_nnz: b.nnz(),
        symbolic: splan.summary(),
        sym_gate: splan.gate,
        numeric: nplan.summary(),
        info,
        nplan,
        ngroups,
        row_nnz: sym.row_nnz,
        row_ptr,
        setup_log: log,
        setup_mem_bytes,
        sym_spilled_blocks: sym.spilled_blocks,
        _values: PhantomData,
    }
}

/// Executes `plan` against `(a, b)` as a *reused* plan: only the numeric
/// pass and the trailing sort run; the report's timeline holds just those
/// stages and `reused_plan` is true. See
/// [`SpeckSpgemm::execute_plan`] for the operand contract.
pub fn execute_plan_with_pool<V: Scalar>(
    dev: &DeviceConfig,
    cost: &CostModel,
    cfg: &SpeckConfig,
    plan: &SpgemmPlan<V>,
    a: &Csr<V>,
    b: &Csr<V>,
    pool: &WorkspacePool<V>,
) -> (Csr<V>, MultiplyReport) {
    execute_inner(dev, cost, cfg, plan, a, b, pool, true, Observe::default())
}

/// The execution half of the pipeline. Its events go to a stage log of
/// their own; cold calls (`reused == false`) fold the plan's setup log
/// ahead of it, so the combined timeline and trace are bit identical to
/// the unfactored pipeline, while reused calls fold only their own.
/// Device memory is accounted identically either way — the setup
/// structures the numeric kernels read (analysis records, row counts, the
/// overflow pool) are resident whether this call built them or a previous
/// one did.
#[allow(clippy::too_many_arguments)]
fn execute_inner<V: Scalar>(
    dev: &DeviceConfig,
    cost: &CostModel,
    cfg: &SpeckConfig,
    plan: &SpgemmPlan<V>,
    a: &Csr<V>,
    b: &Csr<V>,
    pool: &WorkspacePool<V>,
    reused: bool,
    obs: Observe<'_>,
) -> (Csr<V>, MultiplyReport) {
    plan.check_shape(a, b);
    let m = obs.metrics;
    let span = m.span("execute");
    if reused {
        m.add("engine/plan_reuses", 1);
    }
    let cascade = KernelCascade::for_device(dev);
    let alloc_s = dev.cycles_to_seconds(dev.alloc_overhead_cycles);
    let mut log = StageLog::new(obs.annotates());
    let mut mem = MemTracker::new();
    mem.alloc(plan.setup_mem_bytes);
    // Output matrix C: counted for memory, not for time (paper §6: "the
    // memory allocation of the output matrix is not measured").
    mem.alloc(plan.nnz_c() * (4 + std::mem::size_of::<V>()));

    // Stage 5: numeric SpGEMM.
    let job = NumericJob {
        plan: &plan.nplan,
        groups: &plan.ngroups,
        row_nnz: &plan.row_nnz,
        row_ptr: &plan.row_ptr,
    };
    let num = {
        let _s = span.child("numeric");
        run_numeric(dev, cost, &cascade, cfg, a, b, &plan.info, &job, pool)
    };
    num.record_metrics(&m);
    let anns = obs
        .annotates()
        .then(|| pass_annotations(dev, &cascade, cfg, &plan.info, &plan.nplan, &plan.ngroups));
    log.kernels(stage::NUMERIC, num.reports, anns);

    // Stage 6: sorting.
    if let Some(r) = num.sort_report {
        let _s = span.child("sorting");
        log.kernels(stage::SORTING, [r], None);
        // Radix double-buffer.
        mem.alloc(num.radix_elems * (4 + std::mem::size_of::<V>()));
        log.fixed(stage::SORTING, "alloc", alloc_s);
    }
    log.record_metrics(&m);

    let both = [&plan.setup_log, &log];
    let logs = if reused { &both[1..] } else { &both[..] };
    let trace = obs
        .annotates()
        .then(|| Arc::new(ExecutionTrace::from_logs(dev, cost, logs)));
    // The audit is built read-only from the finished trace *after* every
    // kernel ran: it never changes simulated results.
    let audit = trace.as_ref().filter(|_| obs.audit).map(|tr| {
        Arc::new(crate::audit::build_report(
            dev,
            cost,
            cfg,
            &plan.info,
            &plan.row_nnz,
            &plan.sym_gate,
            &plan.nplan.gate,
            plan.b_cols,
            std::mem::size_of::<V>(),
            tr,
        ))
    });
    let timeline = StageLog::timeline(logs);
    let report = MultiplyReport {
        sim_time_s: timeline.total_seconds(),
        peak_mem_bytes: mem.peak(),
        symbolic_used_lb: plan.symbolic.used_global_lb,
        numeric_used_lb: plan.numeric.used_global_lb,
        symbolic_threshold_set: plan.symbolic.threshold_set,
        numeric_threshold_set: plan.numeric.threshold_set,
        symbolic_ratio: plan.symbolic.decision_ratio,
        numeric_ratio: plan.numeric.decision_ratio,
        numeric_methods: plan.numeric.method_counts,
        spilled_blocks: plan.sym_spilled_blocks + num.spilled_blocks,
        radix_elems: num.radix_elems,
        products: plan.info.total_products,
        reused_plan: reused,
        trace: trace.filter(|_| obs.trace),
        audit,
        timeline,
    };
    (num.c, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use speck_sparse::gen::{banded, block_diagonal, rectangular_lp, rmat, uniform_random};
    use speck_sparse::reference::spgemm_seq;
    use speck_sparse::transpose::transpose;

    fn verify(a: &Csr<f64>, b: &Csr<f64>) -> MultiplyReport {
        let engine = SpeckSpgemm::default();
        let (c, report) = engine.multiply(a, b);
        c.validate().unwrap();
        let expect = spgemm_seq(a, b);
        assert!(c.approx_eq(&expect, 1e-10, 1e-12), "result mismatch");
        report
    }

    /// Same pattern, deterministically perturbed values.
    fn perturb(m: &Csr<f64>, salt: u64) -> Csr<f64> {
        Csr::from_parts_unchecked(
            m.rows(),
            m.cols(),
            m.row_ptr().to_vec(),
            m.col_idx().to_vec(),
            m.vals()
                .iter()
                .enumerate()
                .map(|(i, &v)| v * (1.0 + ((i as u64 + salt) % 13) as f64 * 1e-3))
                .collect(),
        )
    }

    #[test]
    fn end_to_end_banded() {
        let a = banded(2000, 2, 1.0, 3);
        let r = verify(&a, &a);
        assert!(r.sim_time_s > 0.0);
        assert!(r.products > 0);
    }

    #[test]
    fn end_to_end_skewed_graph() {
        let a = rmat(10, 8, 0.57, 0.19, 0.19, 4);
        let r = verify(&a, &a);
        // The analysis must see the degree skew even if the (tuned)
        // decision judges this matrix too small to bin profitably.
        assert!(r.symbolic_ratio > 5.0);

        // With pronounced hub rows the load balancer must engage.
        let hub = speck_sparse::gen::with_hub_rows(6_000, 1, 4, 3_000, 5);
        let r = verify(&hub, &hub);
        assert!(r.symbolic_used_lb || r.numeric_used_lb);
    }

    #[test]
    fn end_to_end_rectangular_a_at() {
        let a = rectangular_lp(300, 5000, 20, 40, 5);
        let at = transpose(&a);
        verify(&a, &at);
    }

    #[test]
    fn end_to_end_dense_blocks() {
        let a = block_diagonal(3, 100, 1.0, 6);
        let r = verify(&a, &a);
        let (_, dense, _) = r.numeric_methods;
        assert!(dense > 0, "dense accumulator should engage");
    }

    #[test]
    fn stage_shares_sum_to_one() {
        let a = uniform_random(1000, 1000, 2, 10, 7);
        let r = verify(&a, &a);
        let total: f64 = [
            stage::ANALYSIS,
            stage::SYMBOLIC_LOAD,
            stage::SYMBOLIC,
            stage::NUMERIC_LOAD,
            stage::NUMERIC,
            stage::SORTING,
        ]
        .iter()
        .map(|s| r.timeline.share(s))
        .sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
    }

    #[test]
    fn analysis_is_cheap_relative_to_numeric() {
        // Paper Fig. 11: row analysis is <10% in most cases.
        let a = banded(4000, 8, 1.0, 8);
        let r = verify(&a, &a);
        assert!(
            r.timeline.share(stage::ANALYSIS) < 0.35,
            "analysis share {}",
            r.timeline.share(stage::ANALYSIS)
        );
    }

    #[test]
    fn gflops_is_positive_and_finite() {
        let a = banded(1000, 4, 1.0, 9);
        let r = verify(&a, &a);
        assert!(r.gflops().is_finite() && r.gflops() > 0.0);
    }

    #[test]
    fn peak_memory_includes_output() {
        let a = uniform_random(500, 500, 4, 8, 10);
        let r = verify(&a, &a);
        let c = spgemm_seq(&a, &a);
        assert!(r.peak_mem_bytes >= c.nnz() * 12);
    }

    #[test]
    fn deterministic_report() {
        let a = rmat(8, 6, 0.57, 0.19, 0.19, 11);
        let e = SpeckSpgemm::default();
        let (c1, r1) = e.multiply(&a, &a);
        let (c2, r2) = e.multiply(&a, &a);
        // The second call transparently reuses the cached plan: identical
        // result and memory, strictly less simulated time (no setup).
        assert!(!r1.reused_plan);
        assert!(r2.reused_plan);
        assert!(c1.approx_eq(&c2, 0.0, 0.0));
        assert_eq!(r1.peak_mem_bytes, r2.peak_mem_bytes);
        assert!(r2.sim_time_s < r1.sim_time_s);
        // Warm calls are bit-stable among themselves.
        let (_, r3) = e.multiply(&a, &a);
        assert_eq!(r2.sim_time_s, r3.sim_time_s);
        // With the cache disabled every call runs cold and is bit-stable.
        let e0 = SpeckSpgemm::default().with_plan_cache_capacity(0);
        let (_, q1) = e0.multiply(&a, &a);
        let (_, q2) = e0.multiply(&a, &a);
        assert!(!q1.reused_plan && !q2.reused_plan);
        assert_eq!(q1.sim_time_s, q2.sim_time_s);
        assert_eq!(q1.sim_time_s, r1.sim_time_s);
        assert_eq!(q1.peak_mem_bytes, r1.peak_mem_bytes);
    }

    #[test]
    fn reused_call_skips_setup_stages() {
        let a = uniform_random(800, 800, 2, 8, 19);
        let e = SpeckSpgemm::default();
        let (_, cold) = e.multiply(&a, &a);
        let (_, warm) = e.multiply(&a, &a);
        assert!(warm.reused_plan);
        // Warm timeline holds only the executed stages...
        for (name, st) in warm.timeline.stages() {
            assert!(
                name == stage::NUMERIC || name == stage::SORTING,
                "unexpected stage {name} in a reused call"
            );
            // ...and each is bit-identical to its cold counterpart.
            let cold_s = cold
                .timeline
                .stages()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| s.seconds)
                .unwrap();
            assert_eq!(st.seconds.to_bits(), cold_s.to_bits());
        }
        assert!(warm.sim_time_s < cold.sim_time_s);
    }

    #[test]
    fn explicit_plan_execute_roundtrip() {
        let a = rmat(8, 8, 0.57, 0.19, 0.19, 77);
        let e = SpeckSpgemm::default().with_plan_cache_capacity(0);
        let (c_cold, cold) = e.multiply(&a, &a);
        let plan = e.plan(&a, &a);
        assert_eq!(plan.nnz_c(), c_cold.nnz());
        assert!(plan.setup_sim_time_s() > 0.0);
        let (c1, r1) = e.execute_plan(&plan, &a, &a);
        assert!(r1.reused_plan);
        assert!(c1.approx_eq(&c_cold, 0.0, 0.0));
        assert_eq!(r1.peak_mem_bytes, cold.peak_mem_bytes);
        // Setup + execution covers the whole cold pipeline.
        let total = plan.setup_sim_time_s() + r1.sim_time_s;
        assert!((total - cold.sim_time_s).abs() <= 1e-12 * cold.sim_time_s.abs());
        // Executions are bit-stable.
        let (_, r2) = e.execute_plan(&plan, &a, &a);
        assert_eq!(r1.sim_time_s, r2.sim_time_s);
    }

    #[test]
    fn reused_plan_accepts_fresh_values() {
        let a = uniform_random(400, 400, 2, 6, 23);
        let e = SpeckSpgemm::default();
        let _ = e.multiply(&a, &a);
        let a2 = perturb(&a, 5);
        let (c, r) = e.multiply(&a2, &a2);
        assert!(r.reused_plan, "same pattern must hit the cache");
        let expect = spgemm_seq(&a2, &a2);
        assert!(c.approx_eq(&expect, 1e-10, 1e-12), "fresh values wrong");
    }

    #[test]
    fn multiply_batch_matches_individual_and_reuses() {
        let ms = [
            uniform_random(300, 300, 2, 8, 31),
            rmat(8, 6, 0.57, 0.19, 0.19, 32),
            banded(500, 3, 1.0, 33),
        ];
        let e = SpeckSpgemm::default();
        let pairs: Vec<(&Csr<f64>, &Csr<f64>)> = ms.iter().map(|m| (m, m)).collect();
        let outs = e.multiply_batch(&pairs);
        assert_eq!(outs.len(), ms.len());
        for ((c, r), m) in outs.iter().zip(&ms) {
            assert!(!r.reused_plan);
            let expect = spgemm_seq(m, m);
            assert!(c.approx_eq(&expect, 1e-10, 1e-12));
        }
        // A second batch over the same patterns is fully warm and agrees
        // bit for bit.
        let outs2 = e.multiply_batch(&pairs);
        for ((c2, r2), (c1, _)) in outs2.iter().zip(&outs) {
            assert!(r2.reused_plan);
            assert!(c2.approx_eq(c1, 0.0, 0.0));
        }
        assert_eq!(e.cached_plans(), ms.len());
    }

    #[test]
    fn config_change_invalidates_cached_plans() {
        let a = uniform_random(200, 200, 2, 6, 41);
        let e = SpeckSpgemm::default();
        let _ = e.multiply(&a, &a);
        // A clone shares the cache: its first call is already warm.
        let mut clone = e.clone();
        let (_, r) = clone.multiply(&a, &a);
        assert!(r.reused_plan);
        // Mutating the configuration changes the environment digest, so
        // the stale plan is never reused.
        clone.config.numeric_max_fill *= 0.5;
        let (_, r2) = clone.multiply(&a, &a);
        assert!(
            !r2.reused_plan,
            "stale plan must not survive a config change"
        );
    }

    #[test]
    fn lru_capacity_bounds_cached_plans() {
        let e = SpeckSpgemm::default().with_plan_cache_capacity(2);
        let ms: Vec<Csr<f64>> = (0..4)
            .map(|s| uniform_random(60 + s, 60 + s, 2, 4, s as u64))
            .collect();
        for m in &ms {
            let _ = e.multiply(m, m);
        }
        assert_eq!(e.cached_plans(), 2);
        // The most recent pattern is still warm.
        let (_, r) = e.multiply(&ms[3], &ms[3]);
        assert!(r.reused_plan);
        // The oldest was evicted.
        let (_, r0) = e.multiply(&ms[0], &ms[0]);
        assert!(!r0.reused_plan);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a: Csr<f64> = Csr::identity(3);
        let b: Csr<f64> = Csr::identity(4);
        let _ = SpeckSpgemm::default().multiply(&a, &b);
    }

    #[test]
    #[should_panic(expected = "do not match the plan")]
    fn execute_plan_rejects_wrong_shape() {
        let a = uniform_random(50, 50, 2, 4, 3);
        let e = SpeckSpgemm::default();
        let plan = e.plan(&a, &a);
        let other = uniform_random(60, 60, 2, 4, 3);
        let _ = e.execute_plan(&plan, &other, &other);
    }

    #[test]
    fn tracing_is_neutral_and_reconciles_with_timeline() {
        let a = rmat(8, 6, 0.57, 0.19, 0.19, 51);
        let plain = SpeckSpgemm::default().with_plan_cache_capacity(0);
        let traced = SpeckSpgemm::default()
            .with_plan_cache_capacity(0)
            .with_tracing(true);
        let (_, r0) = plain.multiply(&a, &a);
        let (_, r1) = traced.multiply(&a, &a);
        assert!(r0.trace.is_none());
        let tr = r1.trace.as_ref().expect("tracing engine attaches a trace");

        // Tracing never changes simulated results.
        assert_eq!(r0.sim_time_s.to_bits(), r1.sim_time_s.to_bits());
        // The trace reconciles with the timeline bit-for-bit.
        assert_eq!(tr.total_seconds().to_bits(), r1.sim_time_s.to_bits());
        for (name, st) in r1.timeline.stages() {
            let ts = tr.per_stage_seconds()[name];
            assert_eq!(ts.to_bits(), st.seconds.to_bits(), "stage {name}");
        }
        // Every kernel record carries its per-block schedule.
        for (_, k) in tr.kernels() {
            let bt = k.blocks.as_ref().expect("a traced call keeps block costs");
            assert_eq!(bt.events.len(), k.grid);
        }
        // The export is byte-deterministic across engines.
        let (_, r2) = SpeckSpgemm::default()
            .with_plan_cache_capacity(0)
            .with_tracing(true)
            .multiply(&a, &a);
        let j1 = tr.chrome_trace_json();
        assert_eq!(j1, r2.trace.as_ref().unwrap().chrome_trace_json());
        let back = crate::trace::ExecutionTrace::from_chrome_trace(&j1).unwrap();
        assert_eq!(back.chrome_trace_json(), j1);
    }

    #[test]
    fn warm_trace_covers_only_executed_stages() {
        let a = uniform_random(500, 500, 2, 6, 52);
        let e = SpeckSpgemm::default().with_tracing(true);
        let (_, cold) = e.multiply(&a, &a);
        let (_, warm) = e.multiply(&a, &a);
        assert!(warm.reused_plan);
        let cold_tr = cold.trace.as_ref().unwrap();
        let warm_tr = warm.trace.as_ref().unwrap();
        // Cold trace spans the full pipeline, warm only the execute half.
        let cold_stages = cold_tr.per_stage_seconds();
        assert!(cold_stages.contains_key(stage::ANALYSIS));
        assert!(cold_stages.contains_key(stage::NUMERIC));
        for s in warm_tr.per_stage_seconds().keys() {
            assert!(s == stage::NUMERIC || s == stage::SORTING, "stage {s}");
        }
        assert_eq!(warm_tr.total_seconds().to_bits(), warm.sim_time_s.to_bits());
        // The diff pins exactly what plan reuse skipped.
        let d = crate::profile::diff_traces(cold_tr, warm_tr);
        assert!(d.total_delta_s < 0.0);
        assert_eq!(d.stages[stage::ANALYSIS].1, 0.0);
        // Hot-row profiling sees real rows.
        let p = crate::profile::profile_trace(cold_tr, 10);
        assert!(!p.top_rows.is_empty());
        assert!((p.top_rows[0].row as usize) < a.rows());
    }

    #[test]
    fn tracing_one_engine_leaves_another_engines_plans_untouched() {
        use crate::stage_log::StageEvent;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;

        let mats: Vec<Csr<f64>> = (0..6)
            .map(|s| uniform_random(300 + 20 * s, 300 + 20 * s, 2, 6, 60 + s as u64))
            .collect();
        let traced = SpeckSpgemm::default()
            .with_plan_cache_capacity(0)
            .with_tracing(true)
            .with_auditing(true);
        let plain = SpeckSpgemm::default();
        let done = AtomicBool::new(false);
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Keep traced launches in flight for as long as the plain
                // engine builds plans.
                start.wait();
                for m in mats.iter().cycle() {
                    let (_, r) = traced.multiply(m, m);
                    assert!(r.trace.is_some() && r.audit.is_some());
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                }
            });
            start.wait();
            for m in &mats {
                let _ = plain.multiply(m, m);
            }
            done.store(true, Ordering::Relaxed);
        });

        assert_eq!(plain.cached_plans(), mats.len());
        let mut cache = plain.plans.lock().unwrap();
        for m in &mats {
            let key = PatternKey::new(m, m, plain.env_digest());
            let hit = cache.get(&key).expect("plan cached");
            let plan = hit.downcast::<SpgemmPlan<f64>>().unwrap();
            let mut launches = 0;
            for e in plan.setup_log.entries() {
                if let StageEvent::Kernel { report, .. } = &e.event {
                    assert!(
                        report.block_costs.is_empty(),
                        "{} kept block costs",
                        report.name
                    );
                    launches += 1;
                }
            }
            assert!(launches > 0);
        }
    }

    #[test]
    fn ablation_configs_all_correct() {
        let a = rmat(8, 8, 0.57, 0.19, 0.19, 12);
        for cfg in [
            SpeckConfig::hash_only(),
            SpeckConfig::hash_dense(),
            SpeckConfig::fixed_local_lb(),
        ] {
            let engine = SpeckSpgemm::with_config(cfg);
            let (c, _) = engine.multiply(&a, &a);
            let expect = spgemm_seq(&a, &a);
            assert!(c.approx_eq(&expect, 1e-10, 1e-12));
        }
    }
}
