//! The ROB core model alone: `Core::tick` against a benchmark-owned
//! memory port that accepts everything and returns every read a fixed
//! number of CPU cycles later: the mean read latency the controller
//! gave the same traces, so the stall share follows the memory system.
//! Inside a `System` the cores' cost cannot be told apart from the
//! calendar's without spans in the program, so the traced pass
//! measures the core model here, on the same traces.

use nuat_cpu::{Core, MemOp, MemoryPort, Trace};
use nuat_types::{CpuCycle, PhysAddr, ProcessorConfig};
use std::collections::VecDeque;

struct FixedLatencyPort {
    now: u64,
    /// CPU cycles from a read's submission to its completion.
    latency: u64,
    next_token: u64,
    /// `(due cycle, core, token)`, in due order (the latency is fixed).
    pending: VecDeque<(u64, usize, u64)>,
}

impl MemoryPort for FixedLatencyPort {
    fn can_accept(&self, _: MemOp, _: PhysAddr) -> bool {
        true
    }

    fn submit(&mut self, core: usize, op: MemOp, _: PhysAddr) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        if op == MemOp::Read {
            self.pending
                .push_back((self.now + self.latency, core, token));
        }
        token
    }
}

/// What the core model did with its traces.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoreRun {
    /// Instructions retired, all cores.
    pub instructions: u64,
    /// Cycles in which a core retired nothing before finishing.
    pub stall_cycles: u64,
    /// Sum over cores of the cycle each finished.
    pub finish_cycles: u64,
}

/// Runs one core per trace to completion against a port that returns
/// every read `read_latency` CPU cycles after it was submitted,
/// ticking every core every CPU cycle.
pub fn run_cores(traces: Vec<Trace>, cfg: ProcessorConfig, read_latency: u64) -> CoreRun {
    let mut cores: Vec<Core> = traces
        .into_iter()
        .enumerate()
        .map(|(i, t)| Core::new(i, cfg, t))
        .collect();
    let mut port = FixedLatencyPort {
        now: 0,
        latency: read_latency,
        next_token: 0,
        pending: VecDeque::new(),
    };
    let mut now = CpuCycle::ZERO;
    while !cores.iter().all(Core::is_done) {
        while let Some(&(due, core, token)) = port.pending.front() {
            if due > now.raw() {
                break;
            }
            cores[core].complete_read(token, now);
            port.pending.pop_front();
        }
        port.now = now.raw();
        for core in &mut cores {
            core.tick(now, &mut port);
        }
        now += 1;
    }
    let mut run = CoreRun::default();
    for core in &cores {
        run.instructions += core.total_instructions();
        run.stall_cycles += core.stall_cycles();
        run.finish_cycles += core.finished_at().map_or(now.raw(), CpuCycle::raw);
    }
    run
}
