//! The per-multiply stage log: the one record of what a multiplication
//! did, from which every other view of it is derived.
//!
//! The pipeline appends one entry per event, in the order the events
//! happen: a kernel launch (its [`KernelReport`], plus the spECK launch
//! semantics when the call is observed) or a fixed cost such as a device
//! allocation. Each view is then a fold over the entries:
//!
//! * [`StageLog::timeline`] — the report's per-stage [`Timeline`]
//!   (paper Fig. 11);
//! * [`StageLog::record_metrics`] — the `sim/stage/*` and `sim/kernel/*`
//!   counters and histograms;
//! * [`crate::ExecutionTrace::from_logs`] — the exportable trace the
//!   profiler and the decision audit read.
//!
//! Because the three folds read the same entries in the same order,
//! per-stage trace seconds equal the timeline's bit for bit and per-stage
//! trace launches equal the `sim/stage/<stage>/launches` counters.
//! Only the trace reads a report's per-block costs, so a log of an
//! unobserved call drops them (see [`StageLog::new`]).

use crate::global_lb::AccMethod;
use crate::metrics::MetricsSink;
use crate::trace::BlockAnnotation;
use speck_simt::{KernelReport, Timeline};

/// spECK semantics of one SpGEMM kernel launch.
#[derive(Clone, Debug)]
pub struct LaunchAnnotation {
    /// Cascade bin (kernel-configuration index).
    pub bin: usize,
    /// Accumulator kind of every block in the launch.
    pub acc: AccMethod,
    /// Per-block annotations, in grid order.
    pub blocks: Vec<BlockAnnotation>,
}

/// What happened in one [`StageEntry`].
#[derive(Clone, Debug)]
pub(crate) enum StageEvent {
    /// A kernel launch. `launch` is present for SpGEMM kernels of an
    /// observed call and absent for helper kernels (analysis, binning,
    /// merging, sorting).
    Kernel {
        /// The simulator's report of the launch.
        report: KernelReport,
        /// Bin, accumulator and per-block annotations.
        launch: Option<LaunchAnnotation>,
    },
    /// A fixed-duration step (e.g. a device allocation).
    Fixed {
        /// Human-readable label (e.g. `alloc`).
        label: &'static str,
        /// Simulated duration.
        seconds: f64,
    },
}

/// One event, attributed to a pipeline stage (see
/// [`crate::pipeline::stage`]).
#[derive(Clone, Debug)]
pub(crate) struct StageEntry {
    /// Pipeline stage of the event.
    pub(crate) stage: &'static str,
    /// The event.
    pub(crate) event: StageEvent,
}

/// Ordered list of the events of (part of) one multiplication.
#[derive(Clone, Debug, Default)]
pub struct StageLog {
    entries: Vec<StageEntry>,
    /// Whether appended reports keep their per-block costs.
    keep_blocks: bool,
}

impl StageLog {
    /// An empty log. Appended reports keep their per-block costs only when
    /// `keep_blocks` is set (calls that trace or audit); otherwise the costs
    /// are dropped, so an unobserved plan in a cache holds no per-block data.
    pub fn new(keep_blocks: bool) -> Self {
        StageLog {
            entries: Vec::new(),
            keep_blocks,
        }
    }

    /// Appends one kernel launch per report, in order. `launches`, when
    /// given, annotates the reports one for one.
    pub fn kernels(
        &mut self,
        stage: &'static str,
        reports: impl IntoIterator<Item = KernelReport>,
        launches: Option<Vec<LaunchAnnotation>>,
    ) {
        let mut launches = launches.map(Vec::into_iter);
        for mut report in reports {
            if !self.keep_blocks {
                report.block_costs = Vec::new();
            }
            let launch = launches.as_mut().and_then(Iterator::next);
            self.entries.push(StageEntry {
                stage,
                event: StageEvent::Kernel { report, launch },
            });
        }
    }

    /// Appends a fixed-duration step.
    pub fn fixed(&mut self, stage: &'static str, label: &'static str, seconds: f64) {
        self.entries.push(StageEntry {
            stage,
            event: StageEvent::Fixed { label, seconds },
        });
    }

    /// The entries, in append order.
    pub(crate) fn entries(&self) -> &[StageEntry] {
        &self.entries
    }

    /// Folds `logs`, in order, into a per-stage timeline.
    pub fn timeline(logs: &[&StageLog]) -> Timeline {
        let mut t = Timeline::new();
        for e in logs.iter().flat_map(|l| &l.entries) {
            match &e.event {
                StageEvent::Kernel { report, .. } => t.add_kernel(e.stage, report),
                StageEvent::Fixed { seconds, .. } => t.add_fixed(e.stage, *seconds),
            }
        }
        t
    }

    /// Records every kernel launch of this log into `m` (see
    /// [`MetricsSink::record_kernel`]).
    pub fn record_metrics(&self, m: &MetricsSink<'_>) {
        for e in &self.entries {
            if let StageEvent::Kernel { report, .. } = &e.event {
                m.record_kernel(e.stage, report);
            }
        }
    }
}
