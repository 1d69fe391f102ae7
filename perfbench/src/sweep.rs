//! The sweep workloads: full-system simulation jobs built the way the
//! experiment runners build them (`traces_for`, `System::new`,
//! `run_with_warmup`), one job per (workload or mix, scheduler).

use nuat_circuit::PbGrouping;
use nuat_core::SchedulerKind;
use nuat_cpu::Trace;
use nuat_obs::{MetricsRecorder, NullSink};
use nuat_sim::{traces_for, RunConfig, SimResult, System};
use nuat_types::SystemConfig;
use nuat_workloads::{random_mixes, table2, WorkloadSpec};

/// Trace seeds per Table-2 workload in the single-core sweep (the
/// Fig. 18 runner offsets seeds the same way).
pub const SINGLE_CORE_SEEDS: u64 = 2;
/// Seed of the fixed list of random 4-core mixes (the list does not
/// change with the benchmark seed, which seeds the traces). It is the
/// seed of the paper's 4-core list, so the first 32 mixes are those.
pub const MIX_SEED: u64 = 0x4c0de;
/// Mixes per pass of the multi-core workloads.
pub const MIXES: usize = 50;
/// Cores per mix.
pub const MIX_CORES: usize = 4;
/// Memory operations per core in the mixes.
pub const MIX_OPS: usize = 2_000;

/// Memory operations per core of the logged job. The reference
/// checker scans its whole history for every command, so replay cost
/// grows with the square of the stream's length.
const LOGGED_OPS: usize = 1_000;
/// Capacity of the command log; a truncated log fails the replay check
/// rather than passing it vacuously.
const LOG_CAPACITY: usize = 1 << 16;

/// One simulation: a trace per core under one scheduler.
#[derive(Debug, Clone)]
pub struct Job {
    /// Workload or mix name.
    pub label: String,
    /// One spec per core.
    pub specs: Vec<WorkloadSpec>,
    /// Scheduler.
    pub kind: SchedulerKind,
    /// DRAM channels.
    pub channels: u64,
    /// Operations per core, trace seed and cycle cap.
    pub rc: RunConfig,
}

impl Job {
    /// The system configuration the job runs on.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::with_cores(self.specs.len());
        cfg.dram.geometry.channels = self.channels;
        cfg
    }
}

/// The Fig. 18/20 sweep: every Table-2 workload, at paper-scale
/// operations per core and [`SINGLE_CORE_SEEDS`] trace seeds derived
/// from `seed`, under NUAT, FR-FCFS open and FR-FCFS close.
pub fn single_core_jobs(seed: u64) -> Vec<Job> {
    let kinds = [
        SchedulerKind::Nuat,
        SchedulerKind::FrFcfsOpen,
        SchedulerKind::FrFcfsClose,
    ];
    let mut jobs = Vec::new();
    for spec in table2() {
        for s in 0..SINGLE_CORE_SEEDS {
            let rc = RunConfig {
                seed: seed.wrapping_add(s * 104_729),
                ..RunConfig::default()
            };
            jobs.extend(kinds.map(|kind| Job {
                label: format!("{}/{s}", spec.name),
                specs: vec![spec],
                kind,
                channels: 1,
                rc,
            }));
        }
    }
    jobs
}

/// The fixed random 4-core mixes under NUAT and FR-FCFS open on
/// `channels` channels, traces seeded from `seed`.
pub fn mix_jobs(seed: u64, channels: u64) -> Vec<Job> {
    let rc = RunConfig {
        mem_ops_per_core: MIX_OPS,
        seed,
        ..RunConfig::default()
    };
    random_mixes(MIX_CORES, MIXES, MIX_SEED)
        .into_iter()
        .flat_map(|mix| {
            [SchedulerKind::Nuat, SchedulerKind::FrFcfsOpen].map(|kind| Job {
                label: mix.name.clone(),
                specs: mix.workloads.clone(),
                kind,
                channels,
                rc,
            })
        })
        .collect()
}

/// The mix list as `name=a+b+c+d`, for the output stamp.
pub fn mix_list() -> String {
    random_mixes(MIX_CORES, MIXES, MIX_SEED)
        .iter()
        .map(|m| {
            let names: Vec<&str> = m.workloads.iter().map(|w| w.name).collect();
            format!("{}={}", m.name, names.join("+"))
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Reads the job's traces carry: every one must come back.
pub fn expected_reads(traces: &[Trace]) -> u64 {
    traces.iter().map(Trace::reads).sum()
}

/// One untimed-setup, timed-run execution of a job.
#[derive(Debug)]
pub struct Timed {
    /// Nanoseconds generating traces and building the system.
    pub setup_ns: u64,
    /// Nanoseconds running the simulation.
    pub run_ns: u64,
    /// The simulation result.
    pub result: SimResult,
    /// Reads in the job's traces.
    pub expected_reads: u64,
}

/// Runs a job as `run_mix` does, timing set-up and run apart.
pub fn run_timed(job: &Job) -> Timed {
    let rc = &job.rc;
    let t0 = std::time::Instant::now();
    let cfg = job.config();
    let traces = traces_for(&job.specs, &cfg, rc);
    let gen_ns = t0.elapsed().as_nanos() as u64;
    let expected_reads = expected_reads(&traces);
    let t1 = std::time::Instant::now();
    let system = System::new(cfg, job.kind, PbGrouping::paper(5), traces);
    let t2 = std::time::Instant::now();
    let result = system.run_with_warmup(rc.max_mc_cycles, rc.warmup_reads);
    let run_ns = t2.elapsed().as_nanos() as u64;
    Timed {
        setup_ns: gen_ns + (t2 - t1).as_nanos() as u64,
        run_ns,
        result: std::hint::black_box(result),
        expected_reads,
    }
}

/// A job's own checks: it finished, and every trace read came back.
pub fn result_ok(r: &SimResult, expected_reads: u64) -> bool {
    r.completed && r.stats.reads_completed == expected_reads
}

/// Bit-for-bit equality of two runs' simulated outputs.
pub fn same_result(a: &SimResult, b: &SimResult) -> bool {
    a.mc_cycles == b.mc_cycles
        && a.execution_cpu_cycles == b.execution_cpu_cycles
        && a.completed == b.completed
        && a.core_finish_cpu_cycles == b.core_finish_cpu_cycles
        && a.stats == b.stats
        && a.device == b.device
        && a.energy_pj.to_bits() == b.energy_pj.to_bits()
        && a.powerdown_cycles == b.powerdown_cycles
        && a.cycles_skipped == b.cycles_skipped
}

/// Builds a job's system with a metrics recorder on every channel.
pub fn build_instrumented(
    job: &Job,
    cfg: SystemConfig,
    traces: Vec<Trace>,
) -> System<NullSink, MetricsRecorder> {
    let channels = job.channels as usize;
    System::with_instrumentation(
        cfg,
        job.kind,
        PbGrouping::paper(5),
        traces,
        vec![NullSink; channels],
        (0..channels).map(|_| MetricsRecorder::new()).collect(),
        None,
    )
}

/// Runs a short form of `job` ([`LOGGED_OPS`] per core) one memory
/// cycle at a time through `System::step` with every channel's command
/// log on, drains the posted writes, and replays each channel's full
/// command stream through the reference protocol checker. The merged
/// statistics must equal those of the same job run the usual way.
pub fn logged_run(job: &Job) -> Result<(), String> {
    let job = &Job {
        rc: RunConfig {
            mem_ops_per_core: LOGGED_OPS,
            ..job.rc
        },
        ..job.clone()
    };
    let rc = &job.rc;
    let cfg = job.config();
    let traces = traces_for(&job.specs, &cfg, rc);
    let mut system = System::new(cfg, job.kind, PbGrouping::paper(5), traces);
    for mc in system.controllers_mut() {
        mc.enable_command_logging(LOG_CAPACITY);
    }
    while !system.is_done() && system.controller().now().raw() < rc.max_mc_cycles {
        system.step();
    }
    if !system.is_done() {
        return Err(format!("{}: cores unfinished at the cycle cap", job.label));
    }
    while !system.controllers().iter().all(|mc| mc.is_idle()) {
        for mc in system.controllers_mut() {
            mc.tick();
        }
    }
    let timings = cfg.dram.timings;
    let banks = cfg.dram.geometry.banks_per_rank as u32;
    for (ch, mc) in system.controllers().iter().enumerate() {
        mc.device()
            .command_log()
            .ok_or("command logging did not start")?
            .replay_validate(&timings, banks)
            .map_err(|e| format!("{} channel {ch}: {e}", job.label))?;
    }
    let mcs = system.controllers();
    let mut stats = mcs[0].stats().clone();
    let mut device = *mcs[0].device().stats();
    for mc in &mcs[1..] {
        stats.merge(mc.stats());
        device.merge(mc.device().stats());
    }
    let usual = run_timed(job);
    if !result_ok(&usual.result, usual.expected_reads) {
        return Err(format!("{}: short job lost reads", job.label));
    }
    if stats != usual.result.stats || device != usual.result.device {
        return Err(format!(
            "{}: step-driven run differs from System::run",
            job.label
        ));
    }
    Ok(())
}
