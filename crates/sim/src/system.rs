//! Full-system wiring: N trace-driven cores sharing one memory
//! controller per channel, clocked at the paper's 4:1 CPU-to-memory
//! ratio.
//!
//! [`System::run`] drives the cores and controllers from one event
//! calendar (DESIGN.md §7 "Unified event calendar"). A core is computed
//! by its timeline engine ([`Core::next_probe`]) and only meets the
//! memory system at three kinds of event: its next admission probe,
//! ordered by (CPU cycle, core index) as the per-cycle loop would visit
//! it, and re-probed after a queue slot frees when it was rejected;
//! a completion delivery; and a controller full tick, whose cycle the
//! controllers' busy horizon gives. Between events the controllers
//! advance in bulk and a core that is only computing costs nothing.
//! [`System::step`] keeps the per-cycle loop: every core ticks each
//! CPU cycle and every controller each memory cycle.

use nuat_circuit::PbGrouping;
use nuat_core::{MemoryController, RequestKind, SchedulerKind};
use nuat_cpu::{Core, MemOp, MemoryPort, Trace};
use nuat_obs::{clock, Counter, MetricsSink, NullMetrics, NullSink, TraceSink};
use nuat_types::{CpuCycle, McCycle, PhysAddr, SystemConfig, CPU_CYCLES_PER_MC_CYCLE};

/// Adapter exposing the channel controllers as the cores'
/// [`MemoryPort`] for the per-cycle loop. Requests route by the decoded
/// channel; completion tokens encode `(request id, channel)` so the
/// system can match them back even though each controller numbers
/// requests independently.
struct Port<'a, S: TraceSink = NullSink, M: MetricsSink = NullMetrics> {
    mcs: &'a mut [MemoryController<S, M>],
    cfg: &'a SystemConfig,
}

impl<S: TraceSink, M: MetricsSink> MemoryPort for Port<'_, S, M> {
    fn can_accept(&self, op: MemOp, addr: PhysAddr) -> bool {
        // Single-channel systems (the paper's Table 3 configuration)
        // route everything to controller 0 without a decode.
        let ch = if self.mcs.len() == 1 {
            0
        } else {
            self.cfg
                .dram
                .geometry
                .decode(addr, self.cfg.controller.mapping)
                .channel
                .index()
        };
        self.mcs[ch].can_accept(kind_of(op))
    }

    fn submit(&mut self, core: usize, op: MemOp, addr: PhysAddr) -> u64 {
        let decoded = self
            .cfg
            .dram
            .geometry
            .decode(addr, self.cfg.controller.mapping);
        let ch = decoded.channel.index();
        let id = self.mcs[ch].enqueue_decoded(core, kind_of(op), decoded);
        token(id.0, ch, self.mcs.len())
    }
}

/// Packs `(request id, channel)` into the opaque core-facing token.
fn token(id: u64, channel: usize, channels: usize) -> u64 {
    id * channels as u64 + channel as u64
}

fn kind_of(op: MemOp) -> RequestKind {
    match op {
        MemOp::Read => RequestKind::Read,
        MemOp::Write => RequestKind::Write,
    }
}

/// Index of the probe that comes first: by cycle, then core index (the
/// per-cycle loop's order). `probes` is never empty.
fn first_probe(probes: &[Probe]) -> usize {
    let mut first = 0;
    for (i, p) in probes.iter().enumerate().skip(1) {
        if p.at < probes[first].at {
            first = i;
        }
    }
    first
}

/// A calendar entry with no event scheduled.
const NEVER: u64 = u64::MAX;

/// A core's next admission probe on the calendar: the CPU cycle
/// ([`NEVER`] while none is due) and the memory record to offer.
#[derive(Debug, Clone, Copy)]
struct Probe {
    at: u64,
    op: MemOp,
    addr: PhysAddr,
}

impl Probe {
    /// `core`'s next probe, or an entry at [`NEVER`].
    fn next(core: &mut Core) -> Probe {
        match core.next_probe() {
            Some((at, op, addr)) => Probe {
                at: at.raw(),
                op,
                addr,
            },
            None => Probe {
                at: NEVER,
                op: MemOp::Read,
                addr: PhysAddr::new(0),
            },
        }
    }
}

/// Outcome of one simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Scheduler display name.
    pub scheduler: &'static str,
    /// Memory cycles until the last core finished (or the cap).
    pub mc_cycles: u64,
    /// CPU cycles until the last core finished (the paper's total
    /// execution time).
    pub execution_cpu_cycles: u64,
    /// Whether every core retired its whole trace within the cap.
    pub completed: bool,
    /// Per-core finish times (CPU cycles); cap value if unfinished.
    pub core_finish_cpu_cycles: Vec<u64>,
    /// Controller statistics (latency, hit rates, PB distribution).
    pub stats: nuat_core::ControllerStats,
    /// Device statistics (reduced activations, command energy).
    pub device: nuat_dram::DeviceStats,
    /// Total DRAM energy in picojoules.
    pub energy_pj: f64,
    /// Cycles spent in power-down across all ranks and channels.
    pub powerdown_cycles: u64,
    /// Controller cycles advanced in bulk by event-driven busy skipping,
    /// summed over channels (diagnostic: how often the skip engaged).
    pub cycles_skipped: u64,
}

impl SimResult {
    /// Mean read latency in memory-controller cycles.
    pub fn avg_read_latency(&self) -> f64 {
        self.stats.avg_read_latency()
    }
}

/// N cores + one memory controller per channel. See the module docs.
///
/// Generic over the trace sink like the controller itself: the default
/// [`NullSink`] compiles every instrumentation site out, so an
/// uninstrumented `System` is identical to one predating observability.
#[derive(Debug)]
pub struct System<S: TraceSink = NullSink, M: MetricsSink = NullMetrics> {
    cores: Vec<Core>,
    mcs: Vec<MemoryController<S, M>>,
    cfg: SystemConfig,
    cpu_now: CpuCycle,
    /// Reused each step to drain controller completions without
    /// allocating a fresh `Vec` per controller per cycle.
    completions_buf: Vec<nuat_core::Completion>,
    /// Event calendar enabled (`NUAT_NO_DES` unset). When off, `run`
    /// steps the per-cycle loop ([`System::step`]).
    des_enabled: bool,
}

impl System {
    /// Builds a system running one trace per core. One controller is
    /// instantiated per configured channel (Table 3 uses one).
    ///
    /// # Panics
    ///
    /// Panics if the trace count differs from `cfg.processor.cores` or
    /// the configuration is invalid.
    pub fn new(
        cfg: SystemConfig,
        scheduler: SchedulerKind,
        grouping: PbGrouping,
        traces: Vec<Trace>,
    ) -> Self {
        let channels = cfg.dram.geometry.channels as usize;
        Self::with_sinks(
            cfg,
            scheduler,
            grouping,
            traces,
            vec![NullSink; channels],
            None,
        )
    }
}

impl<S: TraceSink> System<S> {
    /// Builds an instrumented system: one sink per channel controller
    /// (`sinks.len()` must equal the configured channel count), each
    /// receiving that channel's full event stream, plus an optional
    /// epoch-sampling interval applied to every controller.
    ///
    /// # Panics
    ///
    /// Panics if the trace count differs from `cfg.processor.cores`, the
    /// sink count differs from the channel count, or the configuration
    /// is invalid.
    pub fn with_sinks(
        cfg: SystemConfig,
        scheduler: SchedulerKind,
        grouping: PbGrouping,
        traces: Vec<Trace>,
        sinks: Vec<S>,
        sample_interval: Option<u64>,
    ) -> Self {
        let channels = sinks.len();
        System::with_instrumentation(
            cfg,
            scheduler,
            grouping,
            traces,
            sinks,
            vec![NullMetrics; channels],
            sample_interval,
        )
    }
}

impl<S: TraceSink, M: MetricsSink> System<S, M> {
    /// Builds a fully instrumented system: one trace sink *and* one
    /// metrics sink per channel controller (both vectors must match the
    /// configured channel count). The metrics sinks ride their
    /// controllers for the whole run and come back out of
    /// [`run_instrumented`](Self::run_instrumented); with
    /// [`NullMetrics`] this is exactly [`with_sinks`](System::with_sinks).
    ///
    /// # Panics
    ///
    /// Panics if the trace count differs from `cfg.processor.cores`, the
    /// sink or metrics count differs from the channel count, or the
    /// configuration is invalid.
    pub fn with_instrumentation(
        cfg: SystemConfig,
        scheduler: SchedulerKind,
        grouping: PbGrouping,
        traces: Vec<Trace>,
        sinks: Vec<S>,
        metrics: Vec<M>,
        sample_interval: Option<u64>,
    ) -> Self {
        assert_eq!(
            traces.len(),
            cfg.processor.cores,
            "need exactly one trace per configured core"
        );
        assert_eq!(
            sinks.len(),
            cfg.dram.geometry.channels as usize,
            "need exactly one sink per configured channel"
        );
        assert_eq!(
            metrics.len(),
            cfg.dram.geometry.channels as usize,
            "need exactly one metrics sink per configured channel"
        );
        let mcs: Vec<MemoryController<S, M>> = sinks
            .into_iter()
            .zip(metrics)
            .map(|(sink, m)| {
                let mut mc = MemoryController::with_instrumentation(
                    cfg,
                    scheduler,
                    grouping.clone(),
                    sink,
                    m,
                );
                if let Some(interval) = sample_interval {
                    mc.set_sample_interval(interval);
                }
                mc
            })
            .collect();
        let cores: Vec<Core> = traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| Core::new(i, cfg.processor, t))
            .collect();
        System {
            cores,
            mcs,
            cfg,
            cpu_now: CpuCycle::ZERO,
            completions_buf: Vec::new(),
            des_enabled: std::env::var("NUAT_NO_DES").map_or(true, |v| v.is_empty() || v == "0"),
        }
    }

    /// Toggles the event-driven execution mode at runtime for both the
    /// system loop (the event calendar) and every channel controller
    /// (`MemoryController::set_des`), overriding the `NUAT_NO_DES`
    /// environment default. A/B correctness tests use this to compare
    /// the event-driven and per-cycle paths in one process.
    pub fn set_des(&mut self, enabled: bool) {
        self.des_enabled = enabled;
        for mc in &mut self.mcs {
            mc.set_des(enabled);
        }
    }

    /// Toggles the batch issuing-tick kernel on every channel
    /// controller ([`MemoryController::set_batch_kernel`]), overriding
    /// the `NUAT_NO_BATCH` environment default. A/B correctness tests
    /// use this to compare the SWAR batch path and the scalar per-bank
    /// path in one process without racing on process-global state.
    pub fn set_batch_kernel(&mut self, enabled: bool) {
        for mc in &mut self.mcs {
            mc.set_batch_kernel(enabled);
        }
    }

    /// The channel-0 controller (for inspection mid-run).
    pub fn controller(&self) -> &MemoryController<S, M> {
        &self.mcs[0]
    }

    /// All channel controllers.
    pub fn controllers(&self) -> &[MemoryController<S, M>] {
        &self.mcs
    }

    /// Mutable access to the channel controllers, for pre-run
    /// configuration (e.g. [`MemoryController::set_cycle_skip`] in
    /// A/B correctness tests that compare the event-driven and
    /// strictly per-tick execution modes).
    pub fn controllers_mut(&mut self) -> &mut [MemoryController<S, M>] {
        &mut self.mcs
    }

    /// The cycle `core` retired its last instruction, if it has by now
    /// (an empty trace is finished at cycle 0).
    fn finish_by_now(&self, core: &Core) -> Option<u64> {
        let f = core.finish_cycle()?.raw();
        (core.total_instructions() == 0 || f < self.cpu_now.raw()).then_some(f)
    }

    /// True once every core has retired its trace.
    pub fn is_done(&self) -> bool {
        self.cores.iter().all(|c| self.finish_by_now(c).is_some())
    }

    /// Advances one memory-controller cycle (four CPU cycles) the
    /// per-cycle way: every core ticks each CPU cycle, in core order,
    /// then every controller ticks and delivers its completions.
    pub fn step(&mut self) {
        for _ in 0..CPU_CYCLES_PER_MC_CYCLE {
            for core in &mut self.cores {
                let mut port = Port {
                    mcs: &mut self.mcs,
                    cfg: &self.cfg,
                };
                core.tick(self.cpu_now, &mut port);
            }
            self.cpu_now += 1;
        }
        self.tick_controllers(|_| {});
    }

    /// Ticks every controller once and delivers its completions to the
    /// cores at the current CPU cycle, reporting each receiving core.
    fn tick_controllers(&mut self, mut delivered: impl FnMut(usize)) {
        let channels = self.mcs.len();
        let mut buf = std::mem::take(&mut self.completions_buf);
        for (ch, mc) in self.mcs.iter_mut().enumerate() {
            mc.tick();
            let t0 = M::ENABLED.then(clock::now);
            buf.clear();
            mc.drain_completions_into(&mut buf);
            for done in &buf {
                self.cores[done.request.core]
                    .complete_read(token(done.request.id.0, ch, channels), self.cpu_now);
                delivered(done.request.core);
            }
            if let Some(t0) = t0 {
                mc.metrics_mut()
                    .add(Counter::PhaseDrainNanos, clock::now().saturating_sub(t0));
            }
        }
        self.completions_buf = buf;
    }

    /// Resets every controller's statistics once `warmup_reads` reads
    /// have completed (`warm` records that it happened).
    fn warm_up(&mut self, warm: &mut bool, warmup_reads: u64) {
        if *warm {
            return;
        }
        let reads: u64 = self.mcs.iter().map(|m| m.stats().reads_completed).sum();
        if reads >= warmup_reads {
            for mc in &mut self.mcs {
                mc.reset_stats();
            }
            *warm = true;
        }
    }

    fn mc_now(&self) -> u64 {
        self.mcs[0].now().raw()
    }

    /// Runs to completion or `max_mc_cycles`, returning the result.
    ///
    /// After the last core retires, the controllers keep ticking until
    /// their queues drain (posted writes), so command accounting is
    /// total. Multi-channel statistics are aggregated (sums; cycle
    /// counts take the lockstep maximum).
    pub fn run(self, max_mc_cycles: u64) -> SimResult {
        self.run_with_warmup(max_mc_cycles, 0)
    }

    /// Like [`run`](Self::run), but resets all statistics once
    /// `warmup_reads` reads have completed, so steady-state numbers are
    /// not polluted by the cold start (empty row buffers, fully-aligned
    /// refresh phase).
    pub fn run_with_warmup(mut self, max_mc_cycles: u64, warmup_reads: u64) -> SimResult {
        self.run_core(max_mc_cycles, warmup_reads);
        self.result()
    }

    /// Like [`run_with_warmup`](Self::run_with_warmup), but additionally
    /// finalizes each channel's trace (flushing coalesced quiet spans,
    /// emitting the final epoch sample, closing exporters) and returns
    /// the per-channel sinks alongside the result.
    pub fn run_traced(mut self, max_mc_cycles: u64, warmup_reads: u64) -> (SimResult, Vec<S>) {
        self.run_core(max_mc_cycles, warmup_reads);
        let result = self.result();
        let sinks = self
            .mcs
            .into_iter()
            .map(MemoryController::into_sink)
            .collect();
        (result, sinks)
    }

    /// Like [`run_traced`](Self::run_traced), but also returns the
    /// per-channel metrics sinks (flushed and finalized) so callers can
    /// export Prometheus/JSONL text or render the health report.
    pub fn run_instrumented(
        mut self,
        max_mc_cycles: u64,
        warmup_reads: u64,
    ) -> (SimResult, Vec<S>, Vec<M>) {
        self.run_core(max_mc_cycles, warmup_reads);
        let result = self.result();
        let (sinks, metrics) = self
            .mcs
            .into_iter()
            .map(MemoryController::into_instrumentation)
            .unzip();
        (result, sinks, metrics)
    }

    /// The shared simulation loop: runs to completion or the cap, then
    /// drains the controllers (posted writes).
    fn run_core(&mut self, max_mc_cycles: u64, warmup_reads: u64) {
        let mut warm = warmup_reads == 0;
        if self.des_enabled {
            self.run_calendar(max_mc_cycles, &mut warm, warmup_reads);
        } else {
            while !self.is_done() && self.mc_now() < max_mc_cycles {
                self.step();
                self.warm_up(&mut warm, warmup_reads);
            }
        }
        // Post-retirement drain: no new requests arrive, so the only
        // events left are queued writes, refreshes and power-down
        // decisions. The channels stay in lockstep (idle channels keep
        // refreshing while others drain), so bulk-skip exactly the span
        // every channel agrees is quiet and tick the rest one by one.
        while !self.mcs.iter().all(MemoryController::is_idle) && self.mc_now() < max_mc_cycles {
            let span = self.skippable_cycles().min(max_mc_cycles - self.mc_now());
            if span > 0 {
                for mc in &mut self.mcs {
                    mc.run_for(span);
                }
            } else {
                for mc in &mut self.mcs {
                    mc.tick();
                }
            }
        }
    }

    /// Memory cycles every channel agrees are quiet (0 when some
    /// channel needs a full tick now).
    fn skippable_cycles(&self) -> u64 {
        self.mcs
            .iter()
            .map(MemoryController::skippable_cycles)
            .min()
            .unwrap_or(0)
    }

    /// The event calendar: the same schedule of admissions, controller
    /// ticks and deliveries as repeated [`step`](Self::step)s, visiting
    /// only the memory cycles in which something happens.
    ///
    /// Each iteration handles memory cycle `m`. First the admission
    /// probes due in its CPU cycles `[4m, 4m + 4)`, by (cycle, core
    /// index) — the order in which the per-cycle loop would offer them,
    /// and a core's next record can fall in the same cycle. A rejected
    /// core stays off the calendar until some controller frees a queue
    /// slot (the summed release epoch moves): admission verdicts change
    /// only then, and the per-cycle loop's first successful retry is
    /// the first CPU cycle after that tick. Then the controllers: a full
    /// tick when one is due (the busy horizon), delivering completions
    /// at CPU cycle `4(m + 1)` as `step` does; otherwise one bulk
    /// advance up to the next probe, the horizon, the cycle after the
    /// last core's finish, or the cap. A controller can only free a
    /// slot or complete a read in a full tick, so nothing inside a bulk
    /// advance can reach a core.
    fn run_calendar(&mut self, max_mc_cycles: u64, warm: &mut bool, warmup_reads: u64) {
        let n = self.cores.len();
        let mut probes: Vec<Probe> = self.cores.iter_mut().map(Probe::next).collect();
        let mut blocked = vec![false; n];
        let mut delivered = vec![false; n];
        let mut epoch = self.release_epoch();
        let mut done_step = self.done_step();
        while self.mc_now() < done_step.min(max_mc_cycles) {
            let m = self.mc_now();
            let end = (m + 1) * CPU_CYCLES_PER_MC_CYCLE;
            let mut next = first_probe(&probes);
            while probes[next].at < end {
                let i = next;
                if self.try_admit(i, probes[i]) {
                    probes[i] = Probe::next(&mut self.cores[i]);
                    if self.cores[i].finish_cycle().is_some() {
                        done_step = self.done_step();
                    }
                } else {
                    probes[i].at = NEVER;
                    blocked[i] = true;
                }
                next = first_probe(&probes);
            }
            let span = self.skippable_cycles();
            if span == 0 {
                self.cpu_now = CpuCycle::new(end);
                self.tick_controllers(|c| delivered[c] = true);
                let now_epoch = self.release_epoch();
                let released = now_epoch != epoch;
                epoch = now_epoch;
                for i in 0..n {
                    let got_data = std::mem::take(&mut delivered[i]);
                    if released && blocked[i] {
                        blocked[i] = false;
                        probes[i].at = end;
                    } else if got_data && !blocked[i] && probes[i].at == NEVER {
                        probes[i] = Probe::next(&mut self.cores[i]);
                        if self.cores[i].finish_cycle().is_some() {
                            done_step = self.done_step();
                        }
                    }
                }
                self.warm_up(warm, warmup_reads);
            } else {
                let k = span
                    .min(probes[next].at / CPU_CYCLES_PER_MC_CYCLE - m)
                    .min(done_step - m)
                    .min(max_mc_cycles - m);
                for mc in &mut self.mcs {
                    mc.run_for(k);
                }
                self.cpu_now = CpuCycle::new((m + k) * CPU_CYCLES_PER_MC_CYCLE);
            }
        }
    }

    /// Offers core `i`'s next memory record to its channel at CPU cycle
    /// `probe.at`, decoding the address at most once; on acceptance the
    /// request is enqueued and the core fetches the record at that
    /// cycle.
    fn try_admit(&mut self, i: usize, probe: Probe) -> bool {
        let kind = kind_of(probe.op);
        // One channel (Table 3) needs no decode to reject.
        if self.mcs.len() == 1 && !self.mcs[0].can_accept(kind) {
            return false;
        }
        let decoded = self
            .cfg
            .dram
            .geometry
            .decode(probe.addr, self.cfg.controller.mapping);
        let ch = decoded.channel.index();
        if !self.mcs[ch].can_accept(kind) {
            return false;
        }
        let id = self.mcs[ch].enqueue_decoded(i, kind, decoded);
        self.cores[i].admit(CpuCycle::new(probe.at), token(id.0, ch, self.mcs.len()));
        true
    }

    /// Queue-slot releases summed over the channels.
    fn release_epoch(&self) -> u64 {
        self.mcs
            .iter()
            .map(MemoryController::queue_release_epoch)
            .sum()
    }

    /// The memory cycle at whose start every core has finished — where
    /// the per-cycle loop stops — or [`NEVER`] while some core's finish
    /// is still unknown.
    fn done_step(&self) -> u64 {
        self.cores
            .iter()
            .try_fold(0, |step, c| {
                let f = c.finish_cycle()?.raw();
                Some(if c.total_instructions() == 0 {
                    step
                } else {
                    step.max(f / CPU_CYCLES_PER_MC_CYCLE + 1)
                })
            })
            .unwrap_or(NEVER)
    }

    /// Aggregates the finished run into a [`SimResult`]. Multi-channel
    /// statistics are summed field-by-field (controller stats via
    /// `ControllerStats::merge`, device stats via
    /// [`nuat_dram::DeviceStats::merge`]); cycle counts take the
    /// lockstep channel-0 value.
    fn result(&self) -> SimResult {
        let completed = self.is_done();
        let core_finish_cpu_cycles: Vec<u64> = self
            .cores
            .iter()
            .map(|c| self.finish_by_now(c).unwrap_or(self.cpu_now.raw()))
            .collect();
        let execution_cpu_cycles = core_finish_cpu_cycles.iter().copied().max().unwrap_or(0);
        let elapsed = self.mc_now();
        let mut stats = self.mcs[0].stats().clone();
        let mut device = *self.mcs[0].device().stats();
        let mut energy_pj = self.mcs[0].device().energy_pj(McCycle::new(elapsed));
        let mut powerdown_cycles = self.mcs[0].device().total_powerdown_cycles();
        for mc in &self.mcs[1..] {
            stats.merge(mc.stats());
            device.merge(mc.device().stats());
            energy_pj += mc.device().energy_pj(McCycle::new(elapsed));
            powerdown_cycles += mc.device().total_powerdown_cycles();
        }
        let cycles_skipped = self.mcs.iter().map(MemoryController::cycles_skipped).sum();
        SimResult {
            scheduler: self.mcs[0].policy_name(),
            cycles_skipped,
            mc_cycles: elapsed,
            execution_cpu_cycles,
            completed,
            core_finish_cpu_cycles,
            stats,
            device,
            energy_pj,
            powerdown_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuat_types::DramGeometry;
    use nuat_workloads::{by_name, TraceGenerator};

    fn run_one(name: &str, scheduler: SchedulerKind, mem_ops: usize) -> SimResult {
        let cfg = SystemConfig::with_cores(1);
        let trace = TraceGenerator::new(by_name(name).unwrap(), DramGeometry::default(), 1)
            .generate(mem_ops);
        System::new(cfg, scheduler, PbGrouping::paper(5), vec![trace]).run(20_000_000)
    }

    #[test]
    fn small_run_completes_under_every_scheduler() {
        for s in [
            SchedulerKind::Fcfs,
            SchedulerKind::FrFcfsOpen,
            SchedulerKind::FrFcfsClose,
            SchedulerKind::Nuat,
        ] {
            let r = run_one("black", s, 300);
            assert!(r.completed, "{} did not finish", r.scheduler);
            assert_eq!(r.stats.reads_completed + r.stats.writes_drained, 300);
            assert!(r.execution_cpu_cycles > 0);
        }
    }

    #[test]
    fn nuat_reduces_latency_on_a_low_locality_workload() {
        let open = run_one("ferret", SchedulerKind::FrFcfsOpen, 2000);
        let nuat = run_one("ferret", SchedulerKind::Nuat, 2000);
        assert!(open.completed && nuat.completed);
        assert!(
            nuat.avg_read_latency() < open.avg_read_latency(),
            "NUAT {} vs FR-FCFS(open) {}",
            nuat.avg_read_latency(),
            open.avg_read_latency()
        );
        assert!(
            nuat.device.reduced_activates > 0,
            "NUAT must exploit charge slack"
        );
    }

    #[test]
    fn open_page_beats_close_page_on_high_locality() {
        let open = run_one("libq", SchedulerKind::FrFcfsOpen, 1500);
        let close = run_one("libq", SchedulerKind::FrFcfsClose, 1500);
        assert!(open.avg_read_latency() <= close.avg_read_latency());
        assert!(open.stats.read_hit_rate() > 0.5);
        // Close page still catches queued hits (USIMM semantics), but
        // fewer than open page.
        assert!(close.stats.read_hit_rate() < open.stats.read_hit_rate());
    }

    #[test]
    fn multicore_system_finishes_and_tracks_per_core() {
        let cfg = SystemConfig::with_cores(2);
        let g = DramGeometry::default();
        let t0 = TraceGenerator::new(by_name("black").unwrap(), g, 1).generate(300);
        let t1 = TraceGenerator::new(by_name("face").unwrap(), g, 2).generate(300);
        let r = System::new(cfg, SchedulerKind::Nuat, PbGrouping::paper(5), vec![t0, t1])
            .run(20_000_000);
        assert!(r.completed);
        assert_eq!(r.core_finish_cpu_cycles.len(), 2);
        assert!(r.stats.per_core_reads.iter().all(|&c| c > 0));
    }

    #[test]
    fn empty_trace_core_finishes_at_cycle_zero() {
        // A core without instructions must not stretch the execution
        // time: it finishes at cycle 0 and the other core's run is the
        // same as if it ran alone.
        let g = DramGeometry::default();
        let black = TraceGenerator::new(by_name("black").unwrap(), g, 1).generate(300);
        let solo = System::new(
            SystemConfig::with_cores(1),
            SchedulerKind::Nuat,
            PbGrouping::paper(5),
            vec![black.clone()],
        )
        .run(20_000_000);
        for des in [true, false] {
            let mut sys = System::new(
                SystemConfig::with_cores(2),
                SchedulerKind::Nuat,
                PbGrouping::paper(5),
                vec![black.clone(), Trace::new(vec![], 0)],
            );
            sys.set_des(des);
            let r = sys.run(20_000_000);
            assert!(r.completed);
            assert_eq!(
                r.core_finish_cpu_cycles,
                vec![solo.execution_cpu_cycles, 0],
                "des = {des}"
            );
            assert_eq!(r.execution_cpu_cycles, solo.execution_cpu_cycles);
        }
    }

    #[test]
    fn all_empty_traces_run_no_cycles() {
        let r = System::new(
            SystemConfig::with_cores(2),
            SchedulerKind::Nuat,
            PbGrouping::paper(5),
            vec![Trace::new(vec![], 0), Trace::new(vec![], 0)],
        )
        .run(1_000);
        assert!(r.completed);
        assert_eq!((r.mc_cycles, r.execution_cpu_cycles), (0, 0));
        assert_eq!(r.core_finish_cpu_cycles, vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "one trace per configured core")]
    fn trace_count_must_match_cores() {
        System::new(
            SystemConfig::with_cores(2),
            SchedulerKind::Nuat,
            PbGrouping::paper(5),
            vec![],
        );
    }
}
