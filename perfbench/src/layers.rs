//! Per-layer totals gathered over the traced passes, and the per-layer
//! metrics derived from them.

use crate::probe::CoreRun;
use crate::report::Metric;
use crate::spans::{Layer, Tracer};
use nuat_core::ControllerStats;
use nuat_dram::DeviceStats;
use nuat_obs::{Counter, Hist, MetricsRecorder};

/// The controller phases the metrics recorder times, with the metric
/// name of each. Power management is off in the default configuration,
/// so its phase reads 0 and is printed but not listed.
pub const PHASES: [(&str, Counter); 8] = [
    ("power", Counter::PhasePowerNanos),
    ("refresh", Counter::PhaseRefreshNanos),
    ("enumerate", Counter::PhaseEnumNanos),
    ("choose", Counter::PhaseChooseNanos),
    ("issue", Counter::PhaseIssueNanos),
    ("rekey", Counter::PhaseRekeyNanos),
    ("horizon", Counter::PhaseHorizonNanos),
    ("drain", Counter::PhaseDrainNanos),
];

/// Nanoseconds a recorder attributed to controller phases.
pub fn phase_ns(rec: &MetricsRecorder) -> u64 {
    PHASES.iter().map(|&(_, c)| rec.counter(c)).sum()
}

/// Totals over every traced pass of a run.
#[derive(Debug, Default)]
pub struct LayerTotals {
    /// Traced passes completed.
    pub passes: u64,
    /// Nanoseconds in `traces_for`.
    pub gen_ns: u64,
    /// Memory operations generated.
    pub gen_ops: u64,
    /// Nanoseconds in the fixed-latency core model.
    pub cpu_ns: u64,
    /// What the core model did.
    pub cpu: CoreRun,
    /// Nanoseconds building systems.
    pub build_ns: u64,
    /// Systems built.
    pub builds: u64,
    /// Nanoseconds in `System` runs.
    pub sim_run_ns: u64,
    /// Of those, nanoseconds the controllers attributed to phases.
    pub sim_phase_ns: u64,
    /// Memory cycles the `System` runs simulated.
    pub sim_mc_cycles: u64,
    /// Of those, cycles crossed by busy skipping.
    pub sim_skipped: u64,
    /// Every controller's recorder, merged.
    pub recorder: MetricsRecorder,
    /// Activations, all controllers.
    pub acts: u64,
    /// Activations with NUAT-reduced timings.
    pub reduced_acts: u64,
    /// Column commands.
    pub cols: u64,
    /// Refresh batches.
    pub refreshes: u64,
    /// Traced timed-phase wall over untraced, minus one.
    pub overhead: f64,
}

impl LayerTotals {
    /// Adds one controller's (or system's) simulated counts.
    pub fn add_stats(&mut self, stats: &ControllerStats, device: &DeviceStats) {
        self.acts += stats.acts_for_reads + stats.acts_for_writes;
        self.reduced_acts += device.reduced_activates;
        self.cols += stats.cols_read + stats.cols_write;
        self.refreshes += stats.refreshes;
    }

    /// The per-layer metrics. `tracer` holds the spans of every traced
    /// pass; counts are per traced pass.
    pub fn metrics(&self, tracer: &Tracer) -> Vec<Metric> {
        let per = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let pct = |num: u64, den: u64| per(num, den) * 100.0;
        let passes = self.passes.max(1);
        let rec = &self.recorder;
        let ticks = rec.counter(Counter::TickCycles);
        let spans = tracer.len();
        let mut m = vec![
            Metric::new(
                "workloads.gen_ns_per_op",
                "ns",
                per(self.gen_ns, self.gen_ops),
                spans,
            ),
            Metric::new("workloads.ops", "count", per(self.gen_ops, passes), spans),
            Metric::new(
                "cpu.ns_per_instr",
                "ns",
                per(self.cpu_ns, self.cpu.instructions),
                spans,
            ),
            Metric::new(
                "cpu.stall_pct",
                "%",
                pct(self.cpu.stall_cycles, self.cpu.finish_cycles),
                spans,
            ),
            Metric::new(
                "sim.build_ms",
                "ms",
                per(self.build_ns, self.builds) / 1e6,
                spans,
            ),
            Metric::new(
                "sim.self_ns_per_mc_cycle",
                "ns",
                per(
                    self.sim_run_ns.saturating_sub(self.sim_phase_ns),
                    self.sim_mc_cycles,
                ),
                spans,
            ),
            Metric::new(
                "sim.skip_pct",
                "%",
                pct(self.sim_skipped, self.sim_mc_cycles),
                spans,
            ),
        ];
        for (name, c) in PHASES {
            let metric = if name == "power" {
                Metric::unlisted
            } else {
                Metric::new
            };
            m.push(metric(
                format!("core.{name}_ns_per_tick"),
                "ns",
                per(rec.counter(c), ticks),
                spans,
            ));
        }
        let cmds: u64 = [
            Counter::CmdActivate,
            Counter::CmdRead,
            Counter::CmdWrite,
            Counter::CmdPrecharge,
            Counter::CmdRefresh,
        ]
        .iter()
        .map(|&c| rec.counter(c))
        .sum();
        let queue_depth = rec.hist(Hist::QueueDepth);
        m.extend([
            Metric::new("core.issuing_ticks", "count", per(ticks, passes), spans),
            Metric::new(
                "core.busy_skip_cycles",
                "count",
                per(rec.counter(Counter::SkipBusyCycles), passes),
                spans,
            ),
            // The `System` calendar jumps over idle stretches itself, so
            // the controller's own idle skip never runs in these workloads.
            Metric::unlisted(
                "core.idle_skip_cycles",
                "count",
                per(rec.counter(Counter::SkipIdleCycles), passes),
                spans,
            ),
            Metric::new("core.cmds_per_tick", "count", per(cmds, ticks), spans),
            Metric::new(
                "core.rekeys_per_tick",
                "count",
                per(rec.counter(Counter::WheelRekeys), ticks),
                spans,
            ),
            Metric::new(
                "core.queue_depth_mean",
                "count",
                queue_depth.mean(),
                queue_depth.count() as usize,
            ),
            Metric::new(
                "dram.reduced_act_pct",
                "%",
                pct(self.reduced_acts, self.acts),
                spans,
            ),
            Metric::new(
                "dram.row_hit_pct",
                "%",
                pct(self.cols.saturating_sub(self.acts), self.cols),
                spans,
            ),
            Metric::new(
                "dram.refreshes",
                "count",
                per(self.refreshes, passes),
                spans,
            ),
            Metric::new(
                "obs.overhead_pct",
                "%",
                self.overhead * 100.0,
                self.passes as usize,
            ),
        ]);
        // The layer table: every layer's self time as a share of the
        // traced passes' wall time; with unattributed_pct they sum to 100.
        let wall = tracer.wall_ns();
        for (layer, ns) in Layer::ALL.iter().zip(tracer.self_ns()) {
            let name = match layer {
                Layer::Bench => "unattributed_pct".to_string(),
                l => format!("{}.self_pct", l.name()),
            };
            m.push(Metric::new(name, "%", pct(ns, wall), spans));
        }
        m
    }
}
