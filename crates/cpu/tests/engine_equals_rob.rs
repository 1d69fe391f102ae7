//! Differential test of the core's timeline engine against a
//! cycle-stepped reorder buffer.
//!
//! `RobCore` below is the per-cycle ROB model the engine replaced,
//! kept verbatim as the reference: a `VecDeque` of entries, retired
//! and fetched one CPU cycle at a time. Both engine interfaces — the
//! per-cycle [`Core::tick`] and the event interface
//! ([`Core::next_probe`] / [`Core::admit`]) — must agree with it on
//! every submission (cycle, order, operation, address), on the retired
//! count after every cycle (per-cycle interface), and on `finished_at` and
//! `stall_cycles`, over random traces, processor configurations, read
//! delivery delays and admission rejections.

use nuat_cpu::{Core, MemOp, MemoryPort, Trace, TraceRecord};
use nuat_types::{CpuCycle, PhysAddr, ProcessorConfig};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RobEntry {
    /// Completes at the given CPU cycle.
    Done(CpuCycle),
    /// Waiting for read data (token from the memory port).
    WaitingRead(u64),
}

/// The cycle-stepped reference core.
#[derive(Debug)]
struct RobCore {
    id: usize,
    cfg: ProcessorConfig,
    trace: Trace,
    next_record: usize,
    gap_remaining: u32,
    fetched: u64,
    retired: u64,
    total: u64,
    rob: VecDeque<RobEntry>,
    finished_at: Option<CpuCycle>,
    stall_cycles: u64,
}

impl RobCore {
    fn new(id: usize, cfg: ProcessorConfig, trace: Trace) -> Self {
        let gap_remaining = trace
            .records()
            .first()
            .map(|r| r.gap)
            .unwrap_or_else(|| trace.tail_gap());
        let total = trace.total_instructions();
        RobCore {
            id,
            cfg,
            trace,
            next_record: 0,
            gap_remaining,
            fetched: 0,
            retired: 0,
            total,
            rob: VecDeque::with_capacity(cfg.rob_size),
            finished_at: None,
            stall_cycles: 0,
        }
    }

    fn is_done(&self) -> bool {
        self.retired == self.total
    }

    fn complete_read(&mut self, token: u64, now: CpuCycle) {
        for e in self.rob.iter_mut() {
            if *e == RobEntry::WaitingRead(token) {
                *e = RobEntry::Done(now);
                return;
            }
        }
        panic!(
            "core {}: read completion for unknown token {token}",
            self.id
        );
    }

    fn tick(&mut self, now: CpuCycle, port: &mut impl MemoryPort) -> bool {
        if self.is_done() {
            return false;
        }
        let before = self.retired + self.fetched;
        self.retire(now);
        self.fetch(now, port);
        if self.is_done() && self.finished_at.is_none() {
            self.finished_at = Some(now);
        }
        self.retired + self.fetched > before
    }

    fn retire(&mut self, now: CpuCycle) {
        let mut n = 0;
        while n < self.cfg.retire_width {
            match self.rob.front() {
                Some(RobEntry::Done(t)) if *t <= now => {
                    self.rob.pop_front();
                    self.retired += 1;
                    n += 1;
                }
                _ => break,
            }
        }
        if n == 0 && !self.is_done() {
            self.stall_cycles += 1;
        }
    }

    fn fetch(&mut self, now: CpuCycle, port: &mut impl MemoryPort) {
        let done_at = now + self.cfg.pipeline_depth;
        for _ in 0..self.cfg.fetch_width {
            if self.fetched == self.total || self.rob.len() == self.cfg.rob_size {
                return;
            }
            if self.gap_remaining > 0 {
                self.gap_remaining -= 1;
                self.rob.push_back(RobEntry::Done(done_at));
                self.fetched += 1;
                continue;
            }
            let Some(rec) = self.trace.records().get(self.next_record).copied() else {
                // Only the tail gap remains and it is exhausted.
                return;
            };
            if !port.can_accept(rec.op, rec.addr) {
                return; // structural stall: queue full
            }
            let token = port.submit(self.id, rec.op, rec.addr);
            match rec.op {
                MemOp::Read => self.rob.push_back(RobEntry::WaitingRead(token)),
                MemOp::Write => self.rob.push_back(RobEntry::Done(done_at)),
            }
            self.fetched += 1;
            self.next_record += 1;
            self.gap_remaining = self
                .trace
                .records()
                .get(self.next_record)
                .map(|r| r.gap)
                .unwrap_or_else(|| self.trace.tail_gap());
        }
    }
}

/// SplitMix64: the per-case stream of delivery delays and slot holds.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A memory system with `slots` request slots. Each accepted request
/// holds a slot for a random number of cycles, and each read is
/// delivered a random number of cycles after its submission. A full
/// memory system rejects admissions, and only a release can change
/// that verdict — as for the simulator's controller queues.
struct Memory {
    now: u64,
    slots: usize,
    max_hold: u64,
    max_delay: u64,
    rng: Mix,
    next_token: u64,
    /// Release cycles of the occupied slots.
    holds: BinaryHeap<Reverse<u64>>,
    /// `(delivery cycle, token)` of the outstanding reads.
    reads: BinaryHeap<Reverse<(u64, u64)>>,
    /// Every submission: `(cycle, op, addr)`, in order.
    log: Vec<(u64, MemOp, PhysAddr)>,
}

impl Memory {
    fn new(slots: usize, max_hold: u64, max_delay: u64, seed: u64) -> Self {
        Memory {
            now: 0,
            slots,
            max_hold,
            max_delay,
            rng: Mix(seed),
            next_token: 0,
            holds: BinaryHeap::new(),
            reads: BinaryHeap::new(),
            log: Vec::new(),
        }
    }

    /// Frees the slots whose hold ends by `now`; true if any did.
    fn release_through(&mut self, now: u64) -> bool {
        let mut any = false;
        while self.holds.peek().is_some_and(|&Reverse(t)| t <= now) {
            self.holds.pop();
            any = true;
        }
        any
    }

    /// Pops the next read due by `now`.
    fn due_read(&mut self, now: u64) -> Option<u64> {
        let &Reverse((t, token)) = self.reads.peek()?;
        (t <= now).then(|| {
            self.reads.pop();
            token
        })
    }
}

impl MemoryPort for Memory {
    fn can_accept(&self, _: MemOp, _: PhysAddr) -> bool {
        self.holds.len() < self.slots
    }

    fn submit(&mut self, _: usize, op: MemOp, addr: PhysAddr) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        let hold = 1 + self.rng.below(self.max_hold);
        self.holds.push(Reverse(self.now + hold));
        if op == MemOp::Read {
            let delay = 1 + self.rng.below(self.max_delay);
            self.reads.push(Reverse((self.now + delay, token)));
        }
        self.log.push((self.now, op, addr));
        token
    }
}

/// What a run produced.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    submissions: Vec<(u64, MemOp, PhysAddr)>,
    finished_at: Option<u64>,
    stall_cycles: u64,
}

/// Generous cycle bound: every instruction alone costs at most the
/// pipeline, a delivery and a slot hold.
fn cycle_cap(trace: &Trace, cfg: &ProcessorConfig, m: &Memory) -> u64 {
    (trace.total_instructions() + 1) * (cfg.pipeline_depth + m.max_delay + m.max_hold + 2)
}

/// Drives a per-cycle core the way the simulator's per-cycle loop
/// does: releases and deliveries due at a cycle land before the tick.
/// Returns the outcome and the retired count after every cycle.
fn run_per_cycle<C>(
    core: &mut C,
    mut m: Memory,
    cap: u64,
    tick: impl Fn(&mut C, CpuCycle, &mut Memory),
    complete: impl Fn(&mut C, u64, CpuCycle),
    observe: impl Fn(&C) -> (bool, u64),
) -> (Vec<(u64, MemOp, PhysAddr)>, Vec<u64>) {
    let mut retired = Vec::new();
    let mut now = 0;
    while !observe(core).0 {
        assert!(now < cap, "per-cycle run did not finish");
        m.release_through(now);
        while let Some(token) = m.due_read(now) {
            complete(core, token, CpuCycle::new(now));
        }
        m.now = now;
        tick(core, CpuCycle::new(now), &mut m);
        retired.push(observe(core).1);
        now += 1;
    }
    (m.log, retired)
}

/// Runs the engine through its event interface: the core is visited
/// only at its admission probes, at read deliveries, and — after a
/// rejection — at the next slot release, where it retries.
fn run_events(core: &mut Core, mut m: Memory, cap: u64) -> Vec<(u64, MemOp, PhysAddr)> {
    let mut blocked = false;
    // No admission before this cycle: the release that ended a block.
    let mut retry_at = 0;
    loop {
        let probe = if blocked {
            None
        } else {
            core.next_probe().map(|(at, _, _)| at.raw().max(retry_at))
        };
        let wake = if blocked {
            m.holds.peek().map(|&Reverse(t)| t)
        } else {
            None
        };
        let delivery = m.reads.peek().map(|&Reverse((t, _))| t);
        let Some(t) = [probe, wake, delivery].into_iter().flatten().min() else {
            break;
        };
        assert!(t < cap, "event run did not finish");
        if m.release_through(t) && blocked {
            blocked = false;
            retry_at = t;
        }
        let mut delivered = false;
        while let Some(token) = m.due_read(t) {
            core.complete_read(token, CpuCycle::new(t));
            delivered = true;
        }
        if delivered || probe != Some(t) {
            // Re-read the probe: a delivery can move it, a wake sets it.
            continue;
        }
        let (_, op, addr) = core.next_probe().expect("a probe was announced");
        m.now = t;
        if m.can_accept(op, addr) {
            let token = m.submit(core.id(), op, addr);
            core.admit(CpuCycle::new(t), token);
        } else {
            blocked = true;
        }
    }
    assert!(core.is_done(), "event run stopped before the core finished");
    m.log
}

fn check(trace: Trace, cfg: ProcessorConfig, slots: usize, hold: u64, delay: u64, seed: u64) {
    let memory = || Memory::new(slots, hold, delay, seed);
    let cap = cycle_cap(&trace, &cfg, &memory());
    let empty = trace.total_instructions() == 0;

    let mut reference = RobCore::new(0, cfg, trace.clone());
    let (ref_log, ref_retired) = run_per_cycle(
        &mut reference,
        memory(),
        cap,
        |c, now, m| {
            c.tick(now, m);
        },
        |c, token, now| c.complete_read(token, now),
        |c| (c.is_done(), c.retired),
    );
    let expected = Outcome {
        submissions: ref_log,
        // The reference reports no finish for an empty trace; the
        // engine reports cycle 0.
        finished_at: reference
            .finished_at
            .map(CpuCycle::raw)
            .or(empty.then_some(0)),
        stall_cycles: reference.stall_cycles,
    };

    let mut ticked = Core::new(0, cfg, trace.clone());
    let (log, retired) = run_per_cycle(
        &mut ticked,
        memory(),
        cap,
        |c, now, m| {
            c.tick(now, m);
        },
        |c, token, now| c.complete_read(token, now),
        |c| (c.is_done(), c.retired()),
    );
    assert_eq!(retired, ref_retired, "retired count per cycle ({cfg:?})");
    let got = Outcome {
        submissions: log,
        finished_at: ticked.finished_at().map(CpuCycle::raw),
        stall_cycles: ticked.stall_cycles(),
    };
    assert_eq!(
        got, expected,
        "per-cycle interface ({cfg:?}, {slots} slots, hold {hold}, delay {delay}, seed {seed})"
    );

    let mut evented = Core::new(0, cfg, trace);
    let log = run_events(&mut evented, memory(), cap);
    let got = Outcome {
        submissions: log,
        finished_at: evented.finished_at().map(CpuCycle::raw),
        stall_cycles: evented.stall_cycles(),
    };
    assert_eq!(
        got, expected,
        "event interface ({cfg:?}, {slots} slots, hold {hold}, delay {delay}, seed {seed})"
    );
    assert_eq!(
        evented.finish_cycle().map(CpuCycle::raw),
        expected.finished_at
    );
}

/// A random trace: `records` memory operations with gaps up to
/// `max_gap`, `read_pct` percent reads, then a tail gap.
fn trace(records: usize, max_gap: u32, read_pct: u64, tail: u32, seed: u64) -> Trace {
    let mut rng = Mix(seed ^ 0x5eed);
    let records = (0..records)
        .map(|_| TraceRecord {
            gap: rng.below(u64::from(max_gap) + 1) as u32,
            op: if rng.below(100) < read_pct {
                MemOp::Read
            } else {
                MemOp::Write
            },
            addr: PhysAddr::new(rng.below(1 << 30) & !63),
        })
        .collect();
    Trace::new(records, tail)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn engine_matches_cycle_stepped_rob(
        shape in (0usize..=24, prop_oneof![Just(0u32), Just(6u32), Just(400u32)], 0u64..=100, 0u32..=400),
        widths in (1usize..=128, 1usize..=8, 1usize..=8, 0u64..=20),
        memory in (1usize..=4, 1u64..=200, 1u64..=300),
        seed in proptest::num::u64::ANY,
    ) {
        let (records, max_gap, read_pct, tail) = shape;
        let (rob_size, fetch_width, retire_width, pipeline_depth) = widths;
        let cfg = ProcessorConfig {
            rob_size,
            fetch_width,
            retire_width,
            pipeline_depth,
            ..ProcessorConfig::default()
        };
        let (slots, hold, delay) = memory;
        check(trace(records, max_gap, read_pct, tail, seed), cfg, slots, hold, delay, seed);
    }
}

#[test]
fn empty_trace_agrees() {
    check(
        Trace::new(vec![], 0),
        ProcessorConfig::default(),
        1,
        1,
        1,
        0,
    );
}

#[test]
fn paper_core_under_a_tight_queue() {
    // Table 3's core (ROB 128, fetch 4, retire 2, depth 10) with two
    // request slots: admissions are rejected often.
    for seed in 0..16 {
        check(
            trace(40, 400, 70, 50, seed),
            ProcessorConfig::default(),
            2,
            150,
            280,
            seed,
        );
    }
}
