//! The four workloads, each run two ways: untraced passes for the
//! end-to-end metrics, and untraced passes alternating with traced
//! passes for the per-layer metrics.
//!
//! A pass is the workload's fixed simulated work. A run repeats passes
//! until the requested seconds are spent (and at least enough passes
//! for every reported percentile), so the simulated outputs of every
//! pass must agree bit for bit.

use crate::layers::{phase_ns, LayerTotals};
use crate::probe;
use crate::report::Metric;
use crate::saturated::{self, Outcome, Refill, CHUNKS, CHUNK_CYCLES};
use crate::spans::{Layer, Tracer};
use crate::stamp;
use crate::stats::{median, tail_percentile, upper_decile, Tally, MIN_TAIL};
use crate::sweep::{self, Job};
use nuat_core::{LatencyHistogram, SchedulerKind};
use nuat_obs::MetricsRecorder;
use nuat_sim::{traces_for, RunConfig, SimResult};
use nuat_types::CPU_CYCLES_PER_MC_CYCLE;
use nuat_workloads::by_name;
use std::time::{Duration, Instant};

/// Memory operations of the single-core job every traced pass of the
/// saturated workload adds, so that trace generation, the core model
/// and the `System` loop have measured values there too.
const PROBE_OPS: usize = 2_000;
/// Passes every run makes at least, whatever `--seconds` says, so
/// that every chunk's time is picked from several readings.
const MIN_PASSES: usize = 5;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One NUAT controller kept full by a direct refill loop.
    Saturated,
    /// All Table-2 workloads under three schedulers, one core each.
    Singlecore,
    /// Fixed 4-core mixes on one channel.
    Multicore,
    /// The same mixes on two channels.
    Multichannel,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Saturated,
        Workload::Singlecore,
        Workload::Multicore,
        Workload::Multichannel,
    ];

    /// Name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Saturated => "saturated",
            Workload::Singlecore => "singlecore",
            Workload::Multicore => "multicore",
            Workload::Multichannel => "multichannel",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Passes a run needs at least, for the cross-pass checks and for
    /// [`MIN_CHUNKS`] chunks.
    fn jobs(self, seed: u64) -> Vec<Job> {
        match self {
            Workload::Saturated => Vec::new(),
            Workload::Singlecore => sweep::single_core_jobs(seed),
            Workload::Multicore => sweep::mix_jobs(seed, 1),
            Workload::Multichannel => sweep::mix_jobs(seed, 2),
        }
    }

    /// What a chunk is, for the output.
    pub fn chunk(self) -> String {
        match self {
            Workload::Saturated => format!("{CHUNK_CYCLES} controller cycles"),
            _ => "one simulation job".to_string(),
        }
    }

    /// The inputs beyond the seed, for the output stamp.
    pub fn inputs(self) -> String {
        match self {
            Workload::Saturated => format!(
                "{CHUNKS} chunks x {CHUNK_CYCLES} cycles, NUAT depth 64, 50/50 reads/writes over 8 banks x 512 rows"
            ),
            Workload::Singlecore => format!(
                "18 Table-2 workloads x {} trace seeds x {{NUAT, FR-FCFS open, FR-FCFS close}}, {} ops per core",
                sweep::SINGLE_CORE_SEEDS,
                RunConfig::default().mem_ops_per_core
            ),
            Workload::Multicore | Workload::Multichannel => format!(
                "mix seed {:#x}: {} x {{NUAT, FR-FCFS open}}, {} ops per core",
                sweep::MIX_SEED,
                sweep::mix_list(),
                sweep::MIX_OPS
            ),
        }
    }
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Correctness accounting.
    pub tally: Tally,
    /// Failure descriptions.
    pub errors: Vec<String>,
    /// Passes made (untraced, traced).
    pub passes: (usize, usize),
    /// Each untraced pass's run time in milliseconds, in order: how
    /// the host drifted within the run.
    pub pass_ms: Vec<f64>,
    /// Spans of the traced passes.
    pub tracer: Option<Tracer>,
}

impl RunOutput {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally.record(ok);
        if !ok && self.errors.len() < 20 {
            self.errors.push(what());
        }
    }
}

/// One untraced pass, as timed.
#[derive(Debug, Default)]
struct Pass {
    /// Set-up time of each job (the saturated workload has one).
    setup_ns: Vec<u64>,
    chunk_ns: Vec<u64>,
    mc_cycles: u64,
}

/// Each job's or chunk's readings across the passes, combined by
/// `pick`.
fn per_chunk(
    passes: &[Pass],
    field: impl Fn(&Pass) -> &[u64],
    pick: impl Fn(Vec<f64>) -> f64,
) -> Vec<f64> {
    (0..field(&passes[0]).len())
        .map(|i| pick(passes.iter().map(|p| field(p)[i] as f64).collect()))
        .collect()
}

/// Each job's or chunk's upper-decile reading of `field` across the
/// passes.
///
/// The host's speed drifts by up to 2x, in stretches from seconds to
/// minutes, and the share of quiet stretches changes from run to run.
/// A reading's median or fastest value follows that share; its upper
/// values are the host's contended speed, which every run sees. The
/// upper decile still ignores the slowest tenth (a preempted chunk, a
/// short burst of heavier contention). Across runs of different seeds
/// it spread least of the estimators tried (see the README).
fn per_chunk_contended(passes: &[Pass], field: impl Fn(&Pass) -> &[u64]) -> Vec<f64> {
    per_chunk(passes, field, |v| upper_decile(&v).expect("passes"))
}

/// Whether a run measures another pass: while the longest pass so far
/// still fits in the `seconds` left, and always for the first
/// [`MIN_PASSES`], so a run ends close to its budget without overrunning.
struct Budget {
    start: Instant,
    seconds: Duration,
    mark: Duration,
    longest: Duration,
}

impl Budget {
    fn new(seconds: u64) -> Self {
        Budget {
            start: Instant::now(),
            seconds: Duration::from_secs(seconds),
            mark: Duration::ZERO,
            longest: Duration::ZERO,
        }
    }

    /// Called before each pass, with the passes made so far.
    fn more(&mut self, passes: usize) -> bool {
        let now = self.start.elapsed();
        self.longest = self.longest.max(now - self.mark);
        self.mark = now;
        passes < MIN_PASSES || now + self.longest <= self.seconds
    }
}

/// The end-to-end metrics, from untraced passes.
pub fn end_to_end(w: Workload, seed: u64, seconds: u64) -> RunOutput {
    let mut out = RunOutput::default();
    let passes = match w {
        Workload::Saturated => {
            let mut sat = SaturatedRun::new(seed);
            let mut budget = Budget::new(seconds);
            let mut passes = Vec::new();
            while budget.more(passes.len()) {
                passes.push(sat.untraced_pass(&mut out));
            }
            sat.check_logged(&mut out);
            out.metrics = sat.metrics(&mut out, &passes);
            passes
        }
        _ => {
            let mut sw = SweepRun::new(w, seed, &mut out);
            let mut budget = Budget::new(seconds);
            let mut passes = Vec::new();
            while budget.more(passes.len()) {
                passes.push(sw.untraced_pass(&mut out));
            }
            sw.check_logged(&mut out);
            out.metrics = sw.metrics(&mut out, &passes);
            passes
        }
    };
    out.passes = (passes.len(), 0);
    out.pass_ms = passes
        .iter()
        .map(|p| p.chunk_ns.iter().sum::<u64>() as f64 / 1e6)
        .collect();
    out
}

/// The per-layer metrics: untraced and traced passes alternate, so the
/// tracing overhead is measured on the same jobs under the same drift.
pub fn per_layer(w: Workload, seed: u64, seconds: u64) -> RunOutput {
    let mut out = RunOutput::default();
    let mut tracer = Tracer::default();
    let mut totals = LayerTotals::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    match w {
        Workload::Saturated => {
            let mut sat = SaturatedRun::new(seed);
            let mut budget = Budget::new(seconds);
            while budget.more(plain.len()) {
                plain.push(sat.untraced_pass(&mut out));
                traced.push(sat.traced_pass(&mut out, &mut tracer, &mut totals));
            }
            sat.check_logged(&mut out);
        }
        _ => {
            let mut sw = SweepRun::new(w, seed, &mut out);
            let mut budget = Budget::new(seconds);
            while budget.more(plain.len()) {
                plain.push(sw.untraced_pass(&mut out));
                traced.push(sw.traced_pass(&mut out, &mut tracer, &mut totals));
            }
            sw.check_logged(&mut out);
        }
    }
    // Tracing overhead: the traced passes' chunk times against the
    // untraced passes' on the same chunks, interleaved so both see the
    // same drift.
    let wall = |p: &[Pass]| per_chunk_contended(p, |p| &p.chunk_ns).iter().sum::<f64>();
    totals.overhead = wall(&traced) / wall(&plain) - 1.0;
    totals.passes = traced.len() as u64;
    out.metrics = totals.metrics(&tracer);
    out.passes = (plain.len(), traced.len());
    out.tracer = Some(tracer);
    out
}

/// The end-to-end host metrics, from each job's or chunk's
/// upper-decile run time and set-up time over the run's passes.
fn host_metrics(w: Workload, passes: &[Pass]) -> Result<Vec<Metric>, String> {
    let n = passes.len();
    let setup_s = per_chunk_contended(passes, |p| &p.setup_ns)
        .iter()
        .sum::<f64>()
        / 1e9;
    let chunk = per_chunk_contended(passes, |p| &p.chunk_ns);
    let wall_s = chunk.iter().sum::<f64>() / 1e9;
    let chunk_ms: Vec<f64> = chunk.iter().map(|ns| ns / 1e6).collect();
    let p90 = tail_percentile(&chunk_ms, 90.0, MIN_TAIL)
        .map_err(|e| format!("{}: chunk_ms_p90: {e}", w.name()))?;
    Ok(vec![
        Metric::new("setup_s", "s", setup_s, n),
        Metric::new("wall_s", "s", wall_s, n),
        Metric::new(
            "mc_cycles_per_s",
            "1/s",
            passes[0].mc_cycles as f64 / wall_s,
            n,
        ),
        Metric::new(
            "chunk_ms_p50",
            "ms",
            median(&chunk_ms).expect("chunks"),
            chunk_ms.len(),
        ),
        Metric::new("chunk_ms_p90", "ms", p90, chunk_ms.len()),
        Metric::new("peak_rss_mb", "MB", stamp::peak_rss_mb().unwrap_or(0.0), 1),
    ])
}

/// The simulated end-to-end metrics, from (Σ read latency, reads) of
/// the NUAT runs, their p99 read latency, and NUAT's execution time as
/// a share of FR-FCFS open's.
fn simulated_metrics(latency: (u64, u64), p99: f64, exec_pct: f64) -> Vec<Metric> {
    let reads = latency.1 as usize;
    vec![
        Metric::new(
            "read_latency_mc",
            "cycles",
            latency.0 as f64 / latency.1 as f64,
            reads,
        ),
        Metric::new("read_latency_p99_mc", "cycles", p99, reads),
        Metric::new("nuat_exec_vs_open_pct", "%", exec_pct, reads),
    ]
}

fn finish_metrics(
    w: Workload,
    out: &mut RunOutput,
    passes: &[Pass],
    simulated: Vec<Metric>,
) -> Vec<Metric> {
    match host_metrics(w, passes) {
        Ok(mut m) => {
            m.extend(simulated);
            m
        }
        Err(e) => {
            out.check(false, || e);
            simulated
        }
    }
}

/// State of a saturated run: the outcome every pass must reproduce.
struct SaturatedRun {
    seed: u64,
    /// End of the first pass, with its exact p99 read latency.
    reference: Option<(Outcome, u64)>,
    logged: Result<(), String>,
    probe: Option<SimResult>,
}

impl SaturatedRun {
    /// Runs the logged replay check and one untimed warm-up chunk.
    fn new(seed: u64) -> Self {
        let logged = saturated::logged_run(seed);
        let mut warm = Refill::new(SchedulerKind::Nuat, seed);
        warm.step_to(CHUNK_CYCLES);
        SaturatedRun {
            seed,
            reference: None,
            logged,
            probe: None,
        }
    }

    /// Runs a pass's chunks, timing each with `time`, and checks them;
    /// the last chunk also carries the end-of-pass checks.
    fn chunks<M: nuat_obs::MetricsSink>(
        &mut self,
        out: &mut RunOutput,
        d: &mut Refill<M>,
        mut time: impl FnMut(&mut Refill<M>, u64) -> u64,
    ) {
        for c in 1..=CHUNKS {
            let returned = time(d, c * CHUNK_CYCLES);
            let mut ok = d.chunk_ok(returned);
            if c == CHUNKS {
                let finish_ok = d.finish_ok();
                let end = (d.outcome(), d.latency_percentile(99.0).unwrap_or(0));
                let first = self.reference.get_or_insert_with(|| end.clone());
                let same = *first == end;
                ok &= finish_ok && same;
                out.check(ok, || {
                    format!("saturated pass end: all reads back={finish_ok} same_as_first={same}")
                });
            } else {
                out.check(ok, || format!("saturated chunk {c}: no progress"));
            }
        }
    }

    /// An untraced pass. One build of a controller takes about 0.1 ms,
    /// too short to time steadily, so besides the build the pass runs
    /// on, it times a spare build before every later chunk (dropped
    /// untimed): one reading per chunk, spread over the pass as the
    /// chunk readings are.
    fn untraced_pass(&mut self, out: &mut RunOutput) -> Pass {
        let seed = self.seed;
        let mut pass = Pass::default();
        let build = |setup_ns: &mut Vec<u64>| {
            let t = Instant::now();
            let d = std::hint::black_box(Refill::new(SchedulerKind::Nuat, seed));
            setup_ns.push(t.elapsed().as_nanos() as u64);
            d
        };
        let mut d = build(&mut pass.setup_ns);
        self.chunks(out, &mut d, |d, target| {
            if target > CHUNK_CYCLES {
                build(&mut pass.setup_ns);
            }
            let t = Instant::now();
            let returned = d.step_to(target);
            pass.chunk_ns.push(t.elapsed().as_nanos() as u64);
            returned
        });
        pass.mc_cycles = d.mc.now().raw();
        pass
    }

    /// A traced pass; its chunk times are those of the chunk spans.
    fn traced_pass(&mut self, out: &mut RunOutput, tr: &mut Tracer, tot: &mut LayerTotals) -> Pass {
        let root = tr.begin("pass", Layer::Bench);
        let b = tr.begin(
            "nuat_core::MemoryController::with_instrumentation",
            Layer::Core,
        );
        let mut d = Refill::with_metrics(SchedulerKind::Nuat, self.seed, MetricsRecorder::new());
        tr.end(b);
        let mut pass = Pass::default();
        self.chunks(out, &mut d, |d, target| {
            let s = tr.begin(
                "nuat_core::MemoryController::run_for+enqueue_decoded",
                Layer::Core,
            );
            let returned = d.step_to(target);
            tr.end(s);
            pass.chunk_ns.push(tr.duration_ns(s));
            returned
        });
        let outcome = d.outcome();
        tot.add_stats(&outcome.stats, &outcome.device);
        let (_, rec) = d.mc.into_instrumentation();
        tot.recorder.absorb(&rec);
        // The probe job: the layers this workload bypasses, measured.
        let job = Job {
            label: "probe:stream".to_string(),
            specs: vec![by_name("stream").expect("Table-2 workload")],
            kind: SchedulerKind::Nuat,
            channels: 1,
            rc: RunConfig {
                mem_ops_per_core: PROBE_OPS,
                seed: self.seed,
                ..RunConfig::default()
            },
        };
        let (r, ok, _) = traced_job(&job, tr, tot);
        let first = self.probe.get_or_insert_with(|| r.clone());
        let same = sweep::same_result(first, &r);
        out.check(ok && same, || {
            format!("saturated probe job: ok={ok} same={same}")
        });
        tr.end(root);
        pass
    }

    fn metrics(&mut self, out: &mut RunOutput, passes: &[Pass]) -> Vec<Metric> {
        let (end, p99) = self.reference.clone().expect("at least one pass");
        // The comparison point: FR-FCFS open over the same stream and
        // the same cycles (untimed).
        let mut open = Refill::new(SchedulerKind::FrFcfsOpen, self.seed);
        for c in 1..=CHUNKS {
            open.step_to(c * CHUNK_CYCLES);
        }
        let open_ok = open.finish_ok();
        out.check(open_ok, || "saturated FR-FCFS open run".to_string());
        let exec_pct = open.outcome().served() as f64 * 100.0 / end.served() as f64;
        let simulated = simulated_metrics(
            (end.stats.total_read_latency, end.stats.reads_completed),
            p99 as f64,
            exec_pct,
        );
        finish_metrics(Workload::Saturated, out, passes, simulated)
    }

    /// The logged run replayed cleanly.
    fn check_logged(&self, out: &mut RunOutput) {
        out.check(self.logged.is_ok(), || {
            format!(
                "saturated command-log replay: {}",
                self.logged.clone().unwrap_err()
            )
        });
    }
}

/// Runs one job with spans around each call into the simulator.
/// Returns the result, its own check, and the run span's nanoseconds.
fn traced_job(job: &Job, tr: &mut Tracer, tot: &mut LayerTotals) -> (SimResult, bool, u64) {
    let rc = &job.rc;
    let span = tr.begin("job", Layer::Bench);
    let cfg = job.config();
    let g = tr.begin("nuat_sim::traces_for", Layer::Workloads);
    let traces = traces_for(&job.specs, &cfg, rc);
    tr.end(g);
    tot.gen_ns += tr.duration_ns(g);
    tot.gen_ops += (job.specs.len() * rc.mem_ops_per_core) as u64;
    let expected = sweep::expected_reads(&traces);
    // Every trace set runs once through the bare core model, at the
    // NUAT job's mean read latency; the NUAT job is the first of each set.
    let core_traces = (job.kind == SchedulerKind::Nuat).then(|| traces.clone());
    let b = tr.begin("nuat_sim::System::with_instrumentation", Layer::Sim);
    let system = sweep::build_instrumented(job, cfg, traces);
    tr.end(b);
    tot.build_ns += tr.duration_ns(b);
    tot.builds += 1;
    let r = tr.begin("nuat_sim::System::run_instrumented", Layer::Sim);
    let (result, _, recorders) = system.run_instrumented(rc.max_mc_cycles, rc.warmup_reads);
    tr.end(r);
    let run_ns = tr.duration_ns(r);
    let phases: u64 = recorders.iter().map(phase_ns).sum();
    tr.attribute(r, Layer::Core, phases);
    tot.sim_run_ns += run_ns;
    tot.sim_phase_ns += phases.min(run_ns);
    tot.sim_mc_cycles += result.mc_cycles;
    tot.sim_skipped += result.cycles_skipped;
    for rec in &recorders {
        tot.recorder.absorb(rec);
    }
    tot.add_stats(&result.stats, &result.device);
    if let Some(traces) = core_traces {
        let latency = result.stats.total_read_latency / result.stats.reads_completed.max(1);
        let c = tr.begin("nuat_cpu::Core::tick", Layer::Cpu);
        let run = probe::run_cores(
            traces,
            cfg.processor,
            latency.max(1) * CPU_CYCLES_PER_MC_CYCLE,
        );
        tr.end(c);
        tot.cpu_ns += tr.duration_ns(c);
        tot.cpu.instructions += run.instructions;
        tot.cpu.stall_cycles += run.stall_cycles;
        tot.cpu.finish_cycles += run.finish_cycles;
    }
    let ok = sweep::result_ok(&result, expected);
    tr.end(span);
    (result, ok, run_ns)
}

/// State of a sweep run: its jobs and the results every pass must
/// reproduce.
struct SweepRun {
    workload: Workload,
    jobs: Vec<Job>,
    reference: Vec<Option<SimResult>>,
    logged: Result<(), String>,
}

impl SweepRun {
    /// Runs the logged replay check on the first job and one untimed
    /// warm-up job.
    fn new(workload: Workload, seed: u64, out: &mut RunOutput) -> Self {
        let jobs = workload.jobs(seed);
        let logged = sweep::logged_run(&jobs[0]);
        let warm = sweep::run_timed(&jobs[0]);
        let mut run = SweepRun {
            workload,
            reference: vec![None; jobs.len()],
            jobs,
            logged,
        };
        run.check_job(out, 0, warm.result, warm.expected_reads);
        run
    }

    fn check_job(&mut self, out: &mut RunOutput, i: usize, r: SimResult, expected: u64) {
        let own = sweep::result_ok(&r, expected);
        let same = match &self.reference[i] {
            Some(first) => sweep::same_result(first, &r),
            None => {
                self.reference[i] = Some(r);
                true
            }
        };
        let label = &self.jobs[i].label;
        let kind = self.jobs[i].kind;
        out.check(own && same, || {
            format!("{label} {kind:?}: completed with all reads={own} same_as_first={same}")
        });
    }

    fn untraced_pass(&mut self, out: &mut RunOutput) -> Pass {
        let mut pass = Pass::default();
        for i in 0..self.jobs.len() {
            let t = sweep::run_timed(&self.jobs[i]);
            pass.setup_ns.push(t.setup_ns);
            pass.chunk_ns.push(t.run_ns);
            pass.mc_cycles += t.result.mc_cycles;
            self.check_job(out, i, t.result, t.expected_reads);
        }
        pass
    }

    /// A traced pass; its chunk times are those of the run spans.
    fn traced_pass(&mut self, out: &mut RunOutput, tr: &mut Tracer, tot: &mut LayerTotals) -> Pass {
        let root = tr.begin("pass", Layer::Bench);
        let mut pass = Pass::default();
        for i in 0..self.jobs.len() {
            let (r, ok, ns) = traced_job(&self.jobs[i], tr, tot);
            pass.chunk_ns.push(ns);
            let same = self.reference[i]
                .as_ref()
                .is_some_and(|first| sweep::same_result(first, &r));
            let label = &self.jobs[i].label;
            out.check(ok && same, || {
                format!("{label} traced: own checks={ok} same_as_untraced={same}")
            });
        }
        tr.end(root);
        pass
    }

    /// The logged job replayed cleanly.
    fn check_logged(&self, out: &mut RunOutput) {
        out.check(self.logged.is_ok(), || {
            format!("command-log replay: {}", self.logged.clone().unwrap_err())
        });
    }

    fn metrics(&mut self, out: &mut RunOutput, passes: &[Pass]) -> Vec<Metric> {
        let results: Vec<(&Job, &SimResult)> = self
            .jobs
            .iter()
            .zip(&self.reference)
            .map(|(j, r)| (j, r.as_ref().expect("every job ran")))
            .collect();
        let nuat = || {
            results
                .iter()
                .filter(|(j, _)| j.kind == SchedulerKind::Nuat)
                .map(|(_, r)| *r)
        };
        let exec = |kind: SchedulerKind| -> u64 {
            results
                .iter()
                .filter(|(j, _)| j.kind == kind)
                .map(|(_, r)| r.execution_cpu_cycles)
                .sum()
        };
        let latency = nuat().fold((0, 0), |(l, n), r| {
            (l + r.stats.total_read_latency, n + r.stats.reads_completed)
        });
        let mut hist = LatencyHistogram::default();
        for r in nuat() {
            hist.merge(&r.stats.read_latency_hist);
        }
        let exec_pct =
            exec(SchedulerKind::Nuat) as f64 * 100.0 / exec(SchedulerKind::FrFcfsOpen) as f64;
        let p99 = hist.percentile(0.99).unwrap_or(0.0);
        finish_metrics(
            self.workload,
            out,
            passes,
            simulated_metrics(latency, p99, exec_pct),
        )
    }
}
