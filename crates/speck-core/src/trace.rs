//! Per-multiply execution traces: spECK-annotated kernel timelines with
//! per-block schedules, exported as Chrome Trace Event JSON.
//!
//! The simulator's [`speck_simt::trace`] module captures *where each block
//! ran* (SM, resident slot, start/end cycles, cost breakdown). This module
//! adds the spECK semantics the profiler needs — which pipeline stage a
//! kernel belongs to, which cascade bin and accumulator a block used,
//! which output rows it computed, and the dynamic group size `g` it chose
//! — and serialises the whole multiply as Chrome Trace Event JSON loadable
//! in Perfetto or `chrome://tracing` (SM slots as tracks, kernels and
//! stages as frames).
//!
//! # Event model
//!
//! An [`ExecutionTrace`] is an ordered list of [`TraceRecord`]s on a
//! multiply-local clock, one per entry of the multiply's
//! [`StageLog`] — the same entries the `Timeline` and the
//! `sim/stage/*` metrics counters fold. Folding record durations per
//! stage therefore reconciles *bit-for-bit* with the `Timeline` stage
//! seconds — pinned by the reconciliation proptests.
//!
//! # Determinism classes
//!
//! Everything recorded here derives from the deterministic simulation:
//! exported JSON is byte-identical across runs and rayon schedules. No
//! volatile wall-clock fields exist in a trace (unlike metrics snapshots,
//! which segregate `wall/` gauges).

use crate::analysis::AnalysisInfo;
use crate::cascade::KernelCascade;
use crate::config::SpeckConfig;
use crate::global_lb::{AccMethod, PassPlan};
use crate::json::{parse_json_value, push_num, push_string};
use crate::local_lb::select_group_size;
use crate::stage_log::{LaunchAnnotation, StageEvent, StageLog};
use speck_simt::{BlockCost, BlockEvent, DeviceConfig, KernelBlockTrace};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Format tag embedded in exported traces (`otherData.format`).
pub const TRACE_FORMAT: &str = "speck-trace-v1";

/// spECK semantics of one block of a SpGEMM kernel launch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockAnnotation {
    /// Output rows of C this block computes (the bin's row list — not
    /// necessarily contiguous).
    pub rows: Vec<u32>,
    /// Dynamic group size `g` chosen by the local load balancer (hash
    /// blocks only; dense/direct blocks have no group cooperation knob).
    pub group_size: Option<u32>,
}

/// One kernel launch inside an [`ExecutionTrace`].
#[derive(Clone, Debug)]
pub struct KernelTraceRecord {
    /// Kernel name (e.g. `numeric_hash_c3`).
    pub name: String,
    /// Number of blocks launched.
    pub grid: usize,
    /// Threads per block.
    pub threads: usize,
    /// Dynamic scratchpad bytes per block.
    pub scratch_bytes: usize,
    /// Resident blocks per SM at this shape.
    pub blocks_per_sm: usize,
    /// Kernel body makespan in cycles (excluding launch overhead).
    pub body_cycles: f64,
    /// Cascade bin (kernel-configuration index) for SpGEMM kernels.
    pub bin: Option<usize>,
    /// Accumulator kind for SpGEMM kernels.
    pub acc: Option<AccMethod>,
    /// Per-block schedule from the simulator (grid order), when block
    /// capture was on during the launch.
    pub blocks: Option<Arc<KernelBlockTrace>>,
    /// Per-block spECK annotations (grid order), for SpGEMM kernels.
    pub annotations: Option<Vec<BlockAnnotation>>,
}

/// Payload of a [`TraceRecord`].
#[derive(Clone, Debug)]
pub enum TraceRecordKind {
    /// A kernel launch.
    Kernel(KernelTraceRecord),
    /// A fixed-duration host-side step (e.g. a device allocation).
    Fixed {
        /// Human-readable label (e.g. `alloc`).
        label: String,
    },
}

/// One step of the multiply on the trace clock.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// Pipeline stage this record is attributed to (see
    /// [`crate::pipeline::stage`]).
    pub stage: String,
    /// Start offset on the multiply-local clock, seconds.
    pub start_s: f64,
    /// Duration, seconds. For kernels this is `sim_time_s` (launch
    /// overhead included), exactly what the `Timeline` accumulated.
    pub dur_s: f64,
    /// What happened.
    pub kind: TraceRecordKind,
}

/// A full per-multiply execution trace.
#[derive(Clone, Debug)]
pub struct ExecutionTrace {
    /// Device name the multiply ran on.
    pub device_name: String,
    /// Number of SMs of the device.
    pub num_sms: usize,
    /// Device cap on resident blocks per SM (fixes the SM-slot track
    /// numbering in the export).
    pub max_blocks_per_sm: usize,
    /// Core clock in GHz (converts cycles to trace timestamps).
    pub clock_ghz: f64,
    /// Fixed launch overhead per kernel, cycles.
    pub launch_overhead_cycles: f64,
    /// All records in clock order.
    pub records: Vec<TraceRecord>,
    /// Clock value after the last record (sum of all durations in call
    /// order).
    pub end_s: f64,
}

fn acc_from_group_key(m: u8) -> AccMethod {
    match m {
        0 => AccMethod::Hash,
        1 => AccMethod::Dense,
        _ => AccMethod::Direct,
    }
}

impl ExecutionTrace {
    /// Seconds per stage, folded in record order — bit-identical to the
    /// `Timeline` stage seconds of the same multiply (both accumulate the
    /// same f64 sequence onto 0.0).
    pub fn per_stage_seconds(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for r in &self.records {
            *out.entry(r.stage.clone()).or_insert(0.0) += r.dur_s;
        }
        out
    }

    /// Kernel launches per stage (fixed records excluded) — equals the
    /// `sim/stage/<stage>/launches` metrics counters.
    pub fn per_stage_launches(&self) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for r in &self.records {
            if matches!(r.kind, TraceRecordKind::Kernel(_)) {
                *out.entry(r.stage.clone()).or_insert(0) += 1;
            }
        }
        out
    }

    /// Total simulated seconds: stage sums added in sorted-stage order,
    /// matching `Timeline::total_seconds` bit-for-bit.
    pub fn total_seconds(&self) -> f64 {
        self.per_stage_seconds().values().sum()
    }

    /// Iterates the kernel records in clock order.
    pub fn kernels(&self) -> impl Iterator<Item = (&TraceRecord, &KernelTraceRecord)> {
        self.records.iter().filter_map(|r| match &r.kind {
            TraceRecordKind::Kernel(k) => Some((r, k)),
            TraceRecordKind::Fixed { .. } => None,
        })
    }
}

impl ExecutionTrace {
    /// Folds stage logs, in order, into a trace for `dev` on one
    /// multiply-local clock starting at zero. Each kernel record's
    /// duration is its `sim_time_s` (launch overhead included) — exactly
    /// what the `Timeline` fold accumulates.
    pub fn from_logs(dev: &DeviceConfig, logs: &[&StageLog]) -> ExecutionTrace {
        let mut clock_s = 0.0;
        let mut records = Vec::new();
        for e in logs.iter().flat_map(|l| l.entries()) {
            let (dur_s, kind) = match &e.event {
                StageEvent::Fixed { label, seconds } => (
                    *seconds,
                    TraceRecordKind::Fixed {
                        label: label.to_string(),
                    },
                ),
                StageEvent::Kernel { report, launch } => (
                    report.sim_time_s,
                    TraceRecordKind::Kernel(KernelTraceRecord {
                        name: report.name.to_string(),
                        grid: report.grid,
                        threads: report.cfg.threads,
                        scratch_bytes: report.cfg.scratch_bytes,
                        blocks_per_sm: report.blocks_per_sm,
                        body_cycles: (report.sim_cycles - dev.launch_overhead_cycles).max(0.0),
                        bin: launch.as_ref().map(|l| l.bin),
                        acc: launch.as_ref().map(|l| l.acc),
                        blocks: report.trace.clone(),
                        annotations: launch.as_ref().map(|l| l.blocks.clone()),
                    }),
                ),
            };
            records.push(TraceRecord {
                stage: e.stage.to_string(),
                start_s: clock_s,
                dur_s,
                kind,
            });
            clock_s += dur_s;
        }
        ExecutionTrace {
            device_name: dev.name.to_string(),
            num_sms: dev.num_sms,
            max_blocks_per_sm: dev.max_blocks_per_sm,
            clock_ghz: dev.clock_ghz,
            launch_overhead_cycles: dev.launch_overhead_cycles,
            records,
            end_s: clock_s,
        }
    }
}

/// Per-launch spECK annotations for one pass, in the launch order
/// [`crate::symbolic::group_blocks`] produces (BTreeMap iteration order —
/// the same order `run_symbolic`/`run_numeric` push their reports).
pub(crate) fn pass_annotations(
    dev: &DeviceConfig,
    cascade: &KernelCascade,
    cfg: &SpeckConfig,
    info: &AnalysisInfo,
    plan: &PassPlan,
    groups: &BTreeMap<(u8, usize), Vec<usize>>,
) -> Vec<LaunchAnnotation> {
    groups
        .iter()
        .map(|(&(method, cfg_idx), group)| {
            let acc = acc_from_group_key(method);
            let threads = match acc {
                AccMethod::Direct => 256.min(dev.max_threads_per_block),
                _ => cascade.config(cfg_idx).threads,
            };
            let blocks = group
                .iter()
                .map(|&bi| {
                    let rows = plan.blocks[bi].rows.clone();
                    let group_size = (acc == AccMethod::Hash).then(|| {
                        let nnz_a: u64 = rows
                            .iter()
                            .map(|&r| info.rows[r as usize].nnz_a as u64)
                            .sum();
                        let products: u64 =
                            rows.iter().map(|&r| info.rows[r as usize].products).sum();
                        let max_b: u64 = rows
                            .iter()
                            .map(|&r| info.rows[r as usize].max_b_row as u64)
                            .max()
                            .unwrap_or(0);
                        select_group_size(cfg.local_lb, threads, nnz_a, products, max_b) as u32
                    });
                    BlockAnnotation { rows, group_size }
                })
                .collect();
            LaunchAnnotation {
                bin: cfg_idx,
                acc,
                blocks,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Chrome Trace Event export
// ---------------------------------------------------------------------------

impl ExecutionTrace {
    /// Seconds → trace microseconds.
    fn us(&self, s: f64) -> f64 {
        s * 1e6
    }

    /// Device cycles → trace microseconds.
    fn cycles_us(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e3)
    }

    /// Chrome-trace thread id of an SM resident slot.
    fn slot_tid(&self, sm: u32, slot: u32) -> u64 {
        sm as u64 * self.max_blocks_per_sm as u64 + slot as u64
    }

    /// Serialises the trace as Chrome Trace Event JSON (object format),
    /// loadable in Perfetto / `chrome://tracing`:
    ///
    /// * **pid 0** — per-block events, one track per `(SM, resident
    ///   slot)`;
    /// * **pid 1** — kernel launches and fixed steps as one sequential
    ///   track;
    /// * **pid 2** — pipeline stages as coalesced frames.
    ///
    /// All durations are trace microseconds; exact cycle values ride in
    /// `args` so parsing a trace back loses nothing the profiler needs.
    /// Output is byte-deterministic.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {\"format\": ");
        push_string(&mut out, TRACE_FORMAT);
        out.push_str(", \"device\": ");
        push_string(&mut out, &self.device_name);
        let _ = write!(
            out,
            ", \"num_sms\": {}, \"max_blocks_per_sm\": {}, \"clock_ghz\": ",
            self.num_sms, self.max_blocks_per_sm
        );
        push_num(&mut out, self.clock_ghz);
        out.push_str(", \"launch_overhead_cycles\": ");
        push_num(&mut out, self.launch_overhead_cycles);
        out.push_str(", \"end_s\": ");
        let _ = write!(out, "{}", self.end_s);
        out.push_str("},\n\"traceEvents\": [\n");

        let mut first = true;
        let mut event = |out: &mut String, body: &str| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(body);
        };

        // Process metadata.
        let mut meta = String::new();
        let _ = write!(
            meta,
            "{{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": \"process_name\", \
             \"args\": {{\"name\": "
        );
        push_string(&mut meta, &format!("SM slots ({})", self.device_name));
        meta.push_str("}}");
        event(&mut out, &meta);
        event(
            &mut out,
            "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", \
             \"args\": {\"name\": \"kernels\"}}",
        );
        event(
            &mut out,
            "{\"ph\": \"M\", \"pid\": 2, \"tid\": 0, \"name\": \"process_name\", \
             \"args\": {\"name\": \"stages\"}}",
        );

        // Thread names for every used (SM, slot) track, sorted.
        let mut used: std::collections::BTreeSet<(u32, u32)> = std::collections::BTreeSet::new();
        for (_, k) in self.kernels() {
            if let Some(bt) = &k.blocks {
                for e in &bt.events {
                    used.insert((e.sm, e.slot));
                }
            }
        }
        for &(sm, slot) in &used {
            let mut m = String::new();
            let _ = write!(
                m,
                "{{\"ph\": \"M\", \"pid\": 0, \"tid\": {}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"SM {:02} slot {}\"}}}}",
                self.slot_tid(sm, slot),
                sm,
                slot
            );
            event(&mut out, &m);
        }

        // Stage frames: coalesce consecutive records of the same stage.
        let mut i = 0usize;
        while i < self.records.len() {
            let stage = &self.records[i].stage;
            let start = self.records[i].start_s;
            let mut end = start + self.records[i].dur_s;
            let mut j = i + 1;
            while j < self.records.len() && self.records[j].stage == *stage {
                end = self.records[j].start_s + self.records[j].dur_s;
                j += 1;
            }
            let mut f = String::new();
            f.push_str("{\"ph\": \"X\", \"pid\": 2, \"tid\": 0, \"name\": ");
            push_string(&mut f, stage);
            f.push_str(", \"cat\": \"stage\", \"ts\": ");
            push_num(&mut f, self.us(start));
            f.push_str(", \"dur\": ");
            push_num(&mut f, self.us(end - start));
            f.push('}');
            event(&mut out, &f);
            i = j;
        }

        // Kernel / fixed records and their blocks.
        for (seq, r) in self.records.iter().enumerate() {
            let mut k = String::new();
            match &r.kind {
                TraceRecordKind::Fixed { label } => {
                    k.push_str("{\"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"name\": ");
                    push_string(&mut k, label);
                    k.push_str(", \"cat\": ");
                    push_string(&mut k, &r.stage);
                    k.push_str(", \"ts\": ");
                    push_num(&mut k, self.us(r.start_s));
                    k.push_str(", \"dur\": ");
                    push_num(&mut k, self.us(r.dur_s));
                    let _ = write!(k, ", \"args\": {{\"kind\": \"fixed\", \"seq\": {seq}");
                    k.push_str(", \"start_s\": ");
                    let _ = write!(k, "{}", r.start_s);
                    k.push_str(", \"dur_s\": ");
                    let _ = write!(k, "{}", r.dur_s);
                    k.push_str("}}");
                    event(&mut out, &k);
                }
                TraceRecordKind::Kernel(kr) => {
                    k.push_str("{\"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"name\": ");
                    push_string(&mut k, &kr.name);
                    k.push_str(", \"cat\": ");
                    push_string(&mut k, &r.stage);
                    k.push_str(", \"ts\": ");
                    push_num(&mut k, self.us(r.start_s));
                    k.push_str(", \"dur\": ");
                    push_num(&mut k, self.us(r.dur_s));
                    let _ = write!(
                        k,
                        ", \"args\": {{\"kind\": \"kernel\", \"seq\": {seq}, \"grid\": {}, \
                         \"threads\": {}, \"scratch_bytes\": {}, \"blocks_per_sm\": {}",
                        kr.grid, kr.threads, kr.scratch_bytes, kr.blocks_per_sm
                    );
                    k.push_str(", \"body_cycles\": ");
                    let _ = write!(k, "{}", kr.body_cycles);
                    k.push_str(", \"start_s\": ");
                    let _ = write!(k, "{}", r.start_s);
                    k.push_str(", \"dur_s\": ");
                    let _ = write!(k, "{}", r.dur_s);
                    if let Some(bin) = kr.bin {
                        let _ = write!(k, ", \"bin\": {bin}");
                    }
                    if let Some(acc) = kr.acc {
                        let _ = write!(k, ", \"acc\": \"{}\"", acc.name());
                    }
                    k.push_str("}}");
                    event(&mut out, &k);

                    if let Some(bt) = &kr.blocks {
                        let base_us =
                            self.us(r.start_s) + self.cycles_us(self.launch_overhead_cycles);
                        for e in &bt.events {
                            let ann = kr
                                .annotations
                                .as_ref()
                                .and_then(|a| a.get(e.grid_idx as usize));
                            let mut b = String::new();
                            b.push_str("{\"ph\": \"X\", \"pid\": 0, \"tid\": ");
                            let _ = write!(b, "{}", self.slot_tid(e.sm, e.slot));
                            b.push_str(", \"name\": ");
                            match ann {
                                Some(a) if a.rows.len() == 1 => {
                                    push_string(&mut b, &format!("row {}", a.rows[0]));
                                }
                                Some(a) if !a.rows.is_empty() => {
                                    push_string(
                                        &mut b,
                                        &format!(
                                            "rows[{}] {}..{}",
                                            a.rows.len(),
                                            a.rows.first().unwrap(),
                                            a.rows.last().unwrap()
                                        ),
                                    );
                                }
                                _ => push_string(&mut b, &format!("b{}", e.grid_idx)),
                            }
                            b.push_str(", \"cat\": ");
                            push_string(&mut b, &kr.name);
                            b.push_str(", \"ts\": ");
                            push_num(&mut b, base_us + self.cycles_us(e.start_cycles));
                            b.push_str(", \"dur\": ");
                            push_num(&mut b, self.cycles_us(e.end_cycles - e.start_cycles));
                            let _ = write!(
                                b,
                                ", \"args\": {{\"seq\": {seq}, \"grid\": {}, \"sm\": {}, \
                                 \"slot\": {}",
                                e.grid_idx, e.sm, e.slot
                            );
                            b.push_str(", \"start_cycles\": ");
                            let _ = write!(b, "{}", e.start_cycles);
                            b.push_str(", \"compute_cycles\": ");
                            let _ = write!(b, "{}", e.compute_cycles);
                            b.push_str(", \"memory_cycles\": ");
                            let _ = write!(b, "{}", e.memory_cycles);
                            if let Some(a) = ann {
                                if !a.rows.is_empty() {
                                    b.push_str(", \"rows\": ");
                                    let list = a
                                        .rows
                                        .iter()
                                        .map(|r| r.to_string())
                                        .collect::<Vec<_>>()
                                        .join(",");
                                    push_string(&mut b, &list);
                                }
                                if let Some(g) = a.group_size {
                                    let _ = write!(b, ", \"g\": {g}");
                                }
                            }
                            for (cname, v) in e.cost.counters() {
                                if v != 0 {
                                    let _ = write!(b, ", \"cost/{cname}\": {v}");
                                }
                            }
                            b.push_str("}}");
                            event(&mut out, &b);
                        }
                    }
                }
            }
        }

        out.push_str("\n]\n}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Trace reconstruction from a Chrome Trace Event export
// ---------------------------------------------------------------------------

impl ExecutionTrace {
    /// Reconstructs a trace from its Chrome Trace Event JSON export.
    ///
    /// Exact cycle/second values ride in the event `args`, so profiling a
    /// reconstructed trace gives the same report as profiling the
    /// original. Stage/kernel structure, per-block schedules, costs, and
    /// annotations all round-trip.
    pub fn from_chrome_trace(text: &str) -> Result<ExecutionTrace, String> {
        let root = parse_json_value(text)?;
        let other = root
            .get("otherData")
            .ok_or("trace json: missing otherData")?;
        if other.get("format").and_then(|v| v.as_str()) != Some(TRACE_FORMAT) {
            return Err(format!(
                "trace json: not a {TRACE_FORMAT} trace (otherData.format mismatch)"
            ));
        }
        let num = |key: &str| -> Result<f64, String> {
            other
                .get(key)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("trace json: missing otherData.{key}"))
        };
        let events = root
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .ok_or("trace json: missing traceEvents")?;

        // Pass 1: records by seq.
        let mut by_seq: BTreeMap<usize, TraceRecord> = BTreeMap::new();
        for ev in events {
            if ev.get("ph").and_then(|v| v.as_str()) != Some("X")
                || ev.get("pid").and_then(|v| v.as_usize()) != Some(1)
            {
                continue;
            }
            let args = ev.get("args").ok_or("trace json: record without args")?;
            let seq = args
                .get("seq")
                .and_then(|v| v.as_usize())
                .ok_or("trace json: record without seq")?;
            let stage = ev
                .get("cat")
                .and_then(|v| v.as_str())
                .ok_or("trace json: record without cat")?
                .to_string();
            let name = ev
                .get("name")
                .and_then(|v| v.as_str())
                .ok_or("trace json: record without name")?
                .to_string();
            let start_s = args
                .get("start_s")
                .and_then(|v| v.as_f64())
                .ok_or("trace json: record without start_s")?;
            let dur_s = args
                .get("dur_s")
                .and_then(|v| v.as_f64())
                .ok_or("trace json: record without dur_s")?;
            let kind = match args.get("kind").and_then(|v| v.as_str()) {
                Some("fixed") => TraceRecordKind::Fixed { label: name },
                Some("kernel") => TraceRecordKind::Kernel(KernelTraceRecord {
                    name,
                    grid: args.get("grid").and_then(|v| v.as_usize()).unwrap_or(0),
                    threads: args.get("threads").and_then(|v| v.as_usize()).unwrap_or(0),
                    scratch_bytes: args
                        .get("scratch_bytes")
                        .and_then(|v| v.as_usize())
                        .unwrap_or(0),
                    blocks_per_sm: args
                        .get("blocks_per_sm")
                        .and_then(|v| v.as_usize())
                        .unwrap_or(1),
                    body_cycles: args
                        .get("body_cycles")
                        .and_then(|v| v.as_f64())
                        .unwrap_or(0.0),
                    bin: args.get("bin").and_then(|v| v.as_usize()),
                    acc: args
                        .get("acc")
                        .and_then(|v| v.as_str())
                        .and_then(AccMethod::from_name),
                    blocks: None,
                    annotations: None,
                }),
                _ => return Err("trace json: record with unknown kind".into()),
            };
            by_seq.insert(
                seq,
                TraceRecord {
                    stage,
                    start_s,
                    dur_s,
                    kind,
                },
            );
        }

        // Pass 2: per-block events, attached to their kernel by seq.
        let mut blocks_by_seq: BTreeMap<usize, Vec<(BlockEvent, Option<BlockAnnotation>)>> =
            BTreeMap::new();
        for ev in events {
            if ev.get("ph").and_then(|v| v.as_str()) != Some("X")
                || ev.get("pid").and_then(|v| v.as_usize()) != Some(0)
            {
                continue;
            }
            let args = ev.get("args").ok_or("trace json: block without args")?;
            let seq = args
                .get("seq")
                .and_then(|v| v.as_usize())
                .ok_or("trace json: block without seq")?;
            let getf = |key: &str| args.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
            let start_cycles = getf("start_cycles");
            let compute_cycles = getf("compute_cycles");
            let memory_cycles = getf("memory_cycles");
            let mut cost = BlockCost::default();
            for (k, v) in args.as_obj().unwrap_or_default() {
                if let (Some(cname), Some(n)) = (k.strip_prefix("cost/"), v.as_u64()) {
                    cost.set_counter(cname, n);
                }
            }
            let ann = args.get("rows").and_then(|v| v.as_str()).map(|list| {
                let rows = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .filter_map(|s| s.parse::<u32>().ok())
                    .collect();
                BlockAnnotation {
                    rows,
                    group_size: args.get("g").and_then(|v| v.as_usize()).map(|g| g as u32),
                }
            });
            let e = BlockEvent {
                grid_idx: args.get("grid").and_then(|v| v.as_usize()).unwrap_or(0) as u32,
                sm: args.get("sm").and_then(|v| v.as_usize()).unwrap_or(0) as u32,
                slot: args.get("slot").and_then(|v| v.as_usize()).unwrap_or(0) as u32,
                start_cycles,
                end_cycles: start_cycles + compute_cycles.max(memory_cycles),
                compute_cycles,
                memory_cycles,
                cost,
            };
            blocks_by_seq.entry(seq).or_default().push((e, ann));
        }

        let mut records: Vec<TraceRecord> = Vec::with_capacity(by_seq.len());
        for (seq, mut rec) in by_seq {
            if let TraceRecordKind::Kernel(kr) = &mut rec.kind {
                if let Some(mut evs) = blocks_by_seq.remove(&seq) {
                    evs.sort_by_key(|(e, _)| e.grid_idx);
                    let has_ann = evs.iter().any(|(_, a)| a.is_some());
                    if has_ann {
                        kr.annotations = Some(
                            evs.iter()
                                .map(|(_, a)| {
                                    a.clone().unwrap_or(BlockAnnotation {
                                        rows: Vec::new(),
                                        group_size: None,
                                    })
                                })
                                .collect(),
                        );
                    }
                    kr.blocks = Some(Arc::new(KernelBlockTrace {
                        body_cycles: kr.body_cycles,
                        events: evs.into_iter().map(|(e, _)| e).collect(),
                    }));
                }
            }
            records.push(rec);
        }

        let end_s = records
            .last()
            .map(|r| r.start_s + r.dur_s)
            .unwrap_or(0.0)
            .max(num("end_s")?);
        Ok(ExecutionTrace {
            device_name: other
                .get("device")
                .and_then(|v| v.as_str())
                .unwrap_or("unknown")
                .to_string(),
            num_sms: num("num_sms")? as usize,
            max_blocks_per_sm: num("max_blocks_per_sm")? as usize,
            clock_ghz: num("clock_ghz")?,
            launch_overhead_cycles: num("launch_overhead_cycles")?,
            records,
            end_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speck_simt::{CostModel, KernelConfig};

    fn sample_trace() -> ExecutionTrace {
        let dev = DeviceConfig::tiny();
        let cost = CostModel::default();
        let _g = speck_simt::CaptureGuard::new();
        let report = speck_simt::launch(&dev, &cost, "k0", 6, KernelConfig::new(64, 0), |ctx| {
            ctx.charge_rounds((ctx.block_id() as u64 % 3) * 7 + 1);
            ctx.charge_gmem_tx(5 * ctx.block_id() as u64);
        });
        let mut log = StageLog::default();
        let launch = LaunchAnnotation {
            bin: 2,
            acc: AccMethod::Hash,
            blocks: (0..6)
                .map(|i| BlockAnnotation {
                    rows: vec![i as u32, (i + 10) as u32],
                    group_size: Some(4),
                })
                .collect(),
        };
        log.kernels("symb. SpGEMM", [report.clone()], Some(vec![launch]));
        log.fixed("symb. SpGEMM", "alloc", 1e-6);
        log.kernels("sorting", [report], None);
        ExecutionTrace::from_logs(&dev, &[&log])
    }

    #[test]
    fn export_is_deterministic_and_parses() {
        let tr = sample_trace();
        let j1 = tr.chrome_trace_json();
        let j2 = tr.chrome_trace_json();
        assert_eq!(j1, j2);
        let v = parse_json_value(&j1).expect("valid json");
        let events = v.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        // 3 process metas + slot metas + stage frames + records + blocks.
        assert!(events.len() > 3 + 2 + 3 + 12);
        for ev in events {
            let ph = ev.get("ph").and_then(|p| p.as_str()).unwrap();
            assert!(ph == "X" || ph == "M", "unexpected phase {ph}");
            if ph == "X" {
                assert!(ev.get("ts").and_then(|t| t.as_f64()).is_some());
                assert!(ev.get("dur").and_then(|t| t.as_f64()).unwrap() >= 0.0);
            }
        }
    }

    #[test]
    fn chrome_roundtrip_preserves_structure() {
        let tr = sample_trace();
        let json = tr.chrome_trace_json();
        let back = ExecutionTrace::from_chrome_trace(&json).expect("roundtrip");
        assert_eq!(back.records.len(), tr.records.len());
        assert_eq!(back.num_sms, tr.num_sms);
        assert_eq!(back.end_s, tr.end_s);
        for (a, b) in tr.records.iter().zip(&back.records) {
            assert_eq!(a.stage, b.stage);
            assert_eq!(a.start_s.to_bits(), b.start_s.to_bits());
            assert_eq!(a.dur_s.to_bits(), b.dur_s.to_bits());
            match (&a.kind, &b.kind) {
                (TraceRecordKind::Fixed { label: la }, TraceRecordKind::Fixed { label: lb }) => {
                    assert_eq!(la, lb)
                }
                (TraceRecordKind::Kernel(ka), TraceRecordKind::Kernel(kb)) => {
                    assert_eq!(ka.name, kb.name);
                    assert_eq!(ka.grid, kb.grid);
                    assert_eq!(ka.bin, kb.bin);
                    assert_eq!(ka.acc, kb.acc);
                    assert_eq!(ka.annotations, kb.annotations);
                    let (ba, bb) = (ka.blocks.as_ref().unwrap(), kb.blocks.as_ref().unwrap());
                    assert_eq!(ba.events.len(), bb.events.len());
                    for (ea, eb) in ba.events.iter().zip(&bb.events) {
                        assert_eq!(ea, eb);
                    }
                }
                _ => panic!("record kind changed in roundtrip"),
            }
        }
        // Byte-identical re-export.
        assert_eq!(back.chrome_trace_json(), json);
    }

    #[test]
    fn stage_seconds_fold_in_record_order() {
        let tr = sample_trace();
        let per = tr.per_stage_seconds();
        assert_eq!(per.len(), 2);
        let k0 = tr.records[0].dur_s;
        assert_eq!(per["symb. SpGEMM"].to_bits(), (k0 + 1e-6).to_bits());
        assert_eq!(per["sorting"].to_bits(), k0.to_bits());
        assert_eq!(tr.per_stage_launches()["symb. SpGEMM"], 1);
        assert_eq!(tr.total_seconds(), tr.end_s);
    }

    #[test]
    fn chrome_import_rejects_foreign_json() {
        assert!(ExecutionTrace::from_chrome_trace("{\"traceEvents\": []}").is_err());
        assert!(ExecutionTrace::from_chrome_trace("[").is_err());
    }
}
