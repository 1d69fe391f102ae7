//! The saturated workload: one controller in the default configuration
//! (queue depth 64), driven directly through `enqueue_decoded` and
//! `run_for`. A loop refills the queues only when a slot frees,
//! with reads and writes drawn 50/50 over 8 banks x 512 rows from a
//! seeded generator, so the controller never leaves its busy path.

use nuat_circuit::PbGrouping;
use nuat_core::{Completion, ControllerStats, MemoryController, RequestKind, SchedulerKind};
use nuat_dram::DeviceStats;
use nuat_obs::{MetricsSink, NullMetrics, NullSink};
use nuat_types::{Bank, Channel, Col, DecodedAddr, Rank, Row, SystemConfig};

/// Controller cycles per timed chunk (a multiple of the refill loop's
/// 64-cycle refill granule, so every chunk simulates the same cycles).
pub const CHUNK_CYCLES: u64 = 64 * 500;
/// Chunks in one pass, the workload's fixed simulated work.
pub const CHUNKS: u64 = 128;
/// Cycles whose full command stream the logged run replays. The
/// reference checker scans its whole history for every command, so
/// replay cost grows with the square of the stream's length.
const LOGGED_CYCLES: u64 = 64 * 200;
/// Capacity of the command log; a truncated log fails the replay check
/// rather than passing it vacuously.
const LOG_CAPACITY: usize = 1 << 16;
/// Read latencies at or above this many cycles share the last bin.
const LATENCY_BINS: usize = 1 << 13;

/// The seeded refill loop around one controller.
pub struct Refill<M: MetricsSink = NullMetrics> {
    pub mc: MemoryController<NullSink, M>,
    state: u64,
    done: Vec<Completion>,
    enqueued_reads: u64,
    returned_reads: u64,
    /// Reads returned per latency (completion minus arrival cycle).
    latency_counts: Vec<u64>,
    latency_sum: u64,
}

impl Refill {
    /// A controller of the production type (no trace or metrics sink).
    pub fn new(kind: SchedulerKind, seed: u64) -> Self {
        Self::with_metrics(kind, seed, NullMetrics)
    }
}

impl<M: MetricsSink> Refill<M> {
    /// A controller with `metrics` riding it (the traced pass).
    pub fn with_metrics(kind: SchedulerKind, seed: u64, metrics: M) -> Self {
        Refill {
            mc: MemoryController::with_instrumentation(
                SystemConfig::default(),
                kind,
                PbGrouping::paper(5),
                NullSink,
                metrics,
            ),
            state: splitmix64(seed),
            done: Vec::new(),
            enqueued_reads: 0,
            returned_reads: 0,
            latency_counts: vec![0; LATENCY_BINS],
            latency_sum: 0,
        }
    }

    /// Runs the refill loop to at least `target` cycles; returns the
    /// reads returned meanwhile.
    pub fn step_to(&mut self, target: u64) -> u64 {
        let before = self.returned_reads;
        while self.mc.now().raw() < target {
            self.drain();
            while self.mc.can_accept(RequestKind::Read) || self.mc.can_accept(RequestKind::Write) {
                self.state = self
                    .state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = self.state >> 16;
                let kind = if v & 1 == 0 {
                    RequestKind::Read
                } else {
                    RequestKind::Write
                };
                if !self.mc.can_accept(kind) {
                    continue;
                }
                self.mc.enqueue_decoded(
                    0,
                    kind,
                    DecodedAddr {
                        channel: Channel::new(0),
                        rank: Rank::new(0),
                        bank: Bank::new((v >> 1) as u32 % 8),
                        row: Row::new((v >> 4) as u32 % 512),
                        col: Col::new((v >> 13) as u32 % 1024),
                    },
                );
                self.enqueued_reads += u64::from(kind == RequestKind::Read);
            }
            self.mc.run_for(64);
        }
        self.returned_reads - before
    }

    fn drain(&mut self) {
        self.done.clear();
        self.mc.drain_completions_into(&mut self.done);
        self.returned_reads += self.done.len() as u64;
        for c in &self.done {
            let latency = c.done.saturating_sub(c.request.arrival);
            self.latency_sum += latency;
            self.latency_counts[(latency as usize).min(LATENCY_BINS - 1)] += 1;
        }
    }

    /// A chunk is correct when it returned reads (the controller is
    /// saturated, so it must make progress) and never returned more
    /// reads than were enqueued.
    pub fn chunk_ok(&self, returned: u64) -> bool {
        returned > 0 && self.returned_reads <= self.enqueued_reads
    }

    /// End-of-pass check: after a final drain, every read the
    /// controller counted as completed came back to the refill loop, with
    /// the latencies the controller recorded.
    pub fn finish_ok(&mut self) -> bool {
        self.drain();
        let stats = self.mc.stats();
        self.returned_reads == stats.reads_completed
            && self.returned_reads <= self.enqueued_reads
            && self.latency_sum == stats.total_read_latency
    }

    /// Exact nearest-rank percentile `p` (0 < p < 100) of the returned
    /// reads' latencies. The controller's bucketed histogram cannot
    /// resolve this workload's tail: it ends at 512 cycles, and more
    /// than one read in a hundred waits longer here.
    pub fn latency_percentile(&self, p: f64) -> Option<u64> {
        let rank = ((p / 100.0) * self.returned_reads as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        self.latency_counts
            .iter()
            .position(|&c| {
                seen += c;
                seen >= rank
            })
            .map(|bin| bin as u64)
    }

    /// Everything simulated, for cross-pass comparison.
    pub fn outcome(&self) -> Outcome {
        Outcome {
            now: self.mc.now().raw(),
            stats: self.mc.stats().clone(),
            device: *self.mc.device().stats(),
        }
    }
}

/// The simulated state a pass ends in.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Controller cycle.
    pub now: u64,
    /// Controller statistics.
    pub stats: ControllerStats,
    /// Device statistics.
    pub device: DeviceStats,
}

impl Outcome {
    /// Requests served (reads returned plus writes drained).
    pub fn served(&self) -> u64 {
        self.stats.reads_completed + self.stats.writes_drained
    }
}

/// Runs the first [`LOGGED_CYCLES`] of a NUAT pass with command
/// logging on, replays the whole stream through the reference protocol
/// checker, and checks that logging left the simulation unchanged.
pub fn logged_run(seed: u64) -> Result<(), String> {
    let mut d = Refill::new(SchedulerKind::Nuat, seed);
    d.mc.enable_command_logging(LOG_CAPACITY);
    d.step_to(LOGGED_CYCLES);
    let cfg = SystemConfig::default();
    d.mc.device()
        .command_log()
        .ok_or("command logging did not start")?
        .replay_validate(&cfg.dram.timings, cfg.dram.geometry.banks_per_rank as u32)?;
    let mut plain = Refill::new(SchedulerKind::Nuat, seed);
    plain.step_to(LOGGED_CYCLES);
    if plain.outcome() != d.outcome() {
        return Err("logging changed the simulation".to_string());
    }
    Ok(())
}

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
