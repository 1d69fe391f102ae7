//! USIMM-style trace-driven out-of-order core model.
//!
//! The model follows USIMM's processor abstraction (Table 3 of the
//! paper): a fixed-size reorder buffer, fixed fetch and retire widths,
//! and a fixed pipeline depth.
//!
//! * Non-memory instructions complete `pipeline_depth` CPU cycles after
//!   fetch.
//! * Writes are posted: they complete like non-memory instructions once
//!   the controller's write queue accepts them (fetch stalls while it is
//!   full — the back-pressure path that makes write-drain policy matter).
//! * Reads occupy their ROB slot until the controller returns data;
//!   because retirement is in-order, a pending read at the ROB head
//!   stalls the core — this is how DRAM latency becomes execution time.
//!
//! ## The timeline engine
//!
//! Each CPU cycle the core first retires, in order, up to
//! `retire_width` instructions whose results are ready, then fetches,
//! in order, up to `fetch_width` instructions while the ROB has room
//! and the memory system accepts the next memory operation. Rather than
//! replay that cycle by cycle, the core computes each instruction's
//! fetch cycle `f_i` and retire cycle `r_i` directly (`w_f`, `w_r` the
//! widths, `R` the ROB size):
//!
//! ```text
//! f_i = max(f_{i-1}, f_{i-w_f} + 1, r_{i-R}, admission cycle if a memory op)
//! r_i = max(r_{i-1}, r_{i-w_r} + 1, f_i + 1, ready_i)
//! ready_i = f_i + pipeline_depth    (non-memory ops and posted writes)
//!         = the read's delivery cycle (reads)
//! ```
//!
//! Each term is one of the per-cycle rules: fetch is in order
//! (`f_{i-1}`), takes at most `w_f` per cycle (the instruction `w_f`
//! places earlier must have been fetched in an earlier cycle), and
//! needs a ROB slot after that cycle's retirement (`r_{i-R} <= f_i`);
//! retirement is in order, at most `w_r` per cycle, and comes before
//! fetch within a cycle, so an instruction retires no earlier than the
//! cycle after its fetch. Every rule is monotone and the per-cycle core
//! acts at the first cycle all of them allow, so the maxima are exact.
//! The values live in a ring of the last `max(R + w_r, w_f)`
//! instructions and are evaluated lazily, up to the next undelivered
//! read or the next memory record awaiting admission. The core's
//! finish is `r_{N-1}`, and its stall count (cycles with no
//! retirement before it finished) is `r_{N-1} + 1` minus the number of
//! distinct retire cycles.
//!
//! Two interfaces advance the engine:
//!
//! * the per-cycle interface, [`Core::tick`], which probes the memory port
//!   every cycle exactly as a cycle-stepped ROB would; and
//! * the event interface used by the system calendar,
//!   [`Core::next_probe`] / [`Core::admit`], which asks for the one
//!   cycle at which the next memory record can be fetched and costs
//!   nothing for the cycles in between.

use crate::trace::{MemOp, Trace};
use nuat_types::{CpuCycle, PhysAddr, ProcessorConfig};

/// The memory system as seen by a core. Implemented by the simulator
/// around `nuat_core::MemoryController`.
pub trait MemoryPort {
    /// True if a request of this kind to this address can be accepted
    /// this CPU cycle (the address picks the channel in multi-channel
    /// systems).
    fn can_accept(&self, op: MemOp, addr: PhysAddr) -> bool;

    /// Submits a request, returning an opaque token that will be handed
    /// back via [`Core::complete_read`] when a read finishes.
    fn submit(&mut self, core: usize, op: MemOp, addr: PhysAddr) -> u64;
}

/// The ready cycle of an undelivered read.
const PENDING: u64 = u64::MAX;

/// The fetch rule: `f_i` from the previous fetch, the fetch
/// `fetch_width` places earlier (`u64::MAX` before the first, which
/// wraps to no bound) and the retirement `rob_size` places earlier.
#[inline(always)]
fn fetch_rule(last_fetch: u64, width_fetch: u64, rob_retire: u64) -> u64 {
    last_fetch.max(width_fetch.wrapping_add(1)).max(rob_retire)
}

/// The retire rule: `r_i` from the instruction's ready and fetch
/// cycles, the previous retirement and the retirement `retire_width`
/// places earlier.
#[inline(always)]
fn retire_rule(ready: u64, fetch: u64, last_retire: u64, width_retire: u64) -> u64 {
    ready.max(fetch + 1).max(last_retire).max(width_retire + 1)
}

/// One trace-driven core.
#[derive(Debug)]
pub struct Core {
    id: usize,
    cfg: ProcessorConfig,
    trace: Trace,
    total: u64,
    next_record: usize,
    /// Non-memory instructions still to fetch before the next record's
    /// memory operation (or before the end, for the tail gap).
    gap_remaining: u32,
    /// Fetch cycle of instruction `i` at `fetch[i & mask]`. Slots not
    /// written yet hold `u64::MAX`, so the fetch-width bound of the
    /// first instructions wraps to 0.
    fetch: Box<[u64]>,
    /// Retire cycle of instruction `i` at `retire[i & mask]` once it is
    /// resolved; until then its ready cycle ([`PENDING`] for an
    /// undelivered read). Slots not written yet hold 0.
    retire: Box<[u64]>,
    mask: u64,
    /// Instructions with a fetch cycle.
    fetched: u64,
    /// Instructions with a retire cycle (a prefix of the fetched ones).
    resolved: u64,
    /// Fetch cycle of the last fetched instruction.
    last_fetch: u64,
    /// Retire cycle of the last resolved instruction.
    last_retire: u64,
    /// Distinct retire cycles among the resolved instructions.
    retire_cycles: u64,
    /// Undelivered reads: `(token, instruction index)`.
    reads: Vec<(u64, u64)>,
    /// Observation cursor: retirements before this cycle are counted in
    /// `retired` / `seen_cycles`.
    now: u64,
    retired: u64,
    seen_cycles: u64,
    seen_last: u64,
    /// Per-cycle interface: no retirement or fetch can happen before this
    /// cycle unless a read is delivered first.
    idle_until: u64,
}

impl Core {
    /// Creates a core that will execute `trace` under `cfg`.
    pub fn new(id: usize, cfg: ProcessorConfig, trace: Trace) -> Self {
        let gap_remaining = trace
            .records()
            .first()
            .map(|r| r.gap)
            .unwrap_or_else(|| trace.tail_gap());
        let total = trace.total_instructions();
        // The oldest unresolved instruction is at most `rob_size` behind
        // the next fetch and looks `retire_width` further back.
        let cap = (cfg.rob_size + cfg.retire_width)
            .max(cfg.fetch_width)
            .next_power_of_two();
        Core {
            id,
            cfg,
            trace,
            total,
            next_record: 0,
            gap_remaining,
            fetch: vec![u64::MAX; cap].into_boxed_slice(),
            retire: vec![0; cap].into_boxed_slice(),
            mask: cap as u64 - 1,
            fetched: 0,
            resolved: 0,
            last_fetch: 0,
            last_retire: 0,
            retire_cycles: 0,
            reads: Vec::new(),
            now: 0,
            retired: 0,
            seen_cycles: 0,
            seen_last: 0,
            idle_until: 0,
        }
    }

    /// This core's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Instructions retired so far: through the last [`tick`](Self::tick)
    /// under the per-cycle interface, through the computed timeline under
    /// the event interface.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Total instructions in the trace.
    pub fn total_instructions(&self) -> u64 {
        self.total
    }

    /// True once every instruction has retired.
    pub fn is_done(&self) -> bool {
        self.retired == self.total
    }

    /// CPU cycle the last instruction retired, if finished (cycle 0 for
    /// an empty trace).
    pub fn finished_at(&self) -> Option<CpuCycle> {
        self.is_done().then(|| CpuCycle::new(self.last_retire))
    }

    /// The cycle the last instruction retires, as soon as the timeline
    /// determines it — possibly ahead of the caller's clock (cycle 0
    /// for an empty trace).
    pub fn finish_cycle(&self) -> Option<CpuCycle> {
        (self.resolved == self.total).then(|| CpuCycle::new(self.last_retire))
    }

    /// Cycles in which no instruction retired while the core was not
    /// done (a coarse memory-stall indicator), counted like
    /// [`retired`](Self::retired).
    pub fn stall_cycles(&self) -> u64 {
        let end = match self.finished_at() {
            Some(_) if self.total == 0 => 0,
            Some(f) => f.raw() + 1,
            None => self.now,
        };
        end - self.seen_cycles
    }

    /// Delivers read data for `token` (from [`MemoryPort::submit`] or
    /// the token passed to [`admit`](Self::admit)) at cycle `now`: the
    /// read can retire from `now` on.
    pub fn complete_read(&mut self, token: u64, now: CpuCycle) {
        let Some(k) = self.reads.iter().position(|&(t, _)| t == token) else {
            // A completion for an unknown token indicates a wiring bug.
            panic!(
                "core {}: read completion for unknown token {token}",
                self.id
            );
        };
        let (_, i) = self.reads.swap_remove(k);
        let k = self.at(i);
        self.retire[k] = now.raw();
        self.idle_until = 0;
    }

    /// Event interface: the next memory record awaiting admission and the
    /// earliest cycle the core can fetch it, or `None` while that cycle
    /// still depends on an undelivered read, or when no record is left.
    /// The caller probes the memory system at that cycle (or, after a
    /// rejection, at the first cycle a queue slot could have freed) and
    /// reports acceptance through [`admit`](Self::admit).
    pub fn next_probe(&mut self) -> Option<(CpuCycle, MemOp, PhysAddr)> {
        self.resolve();
        self.fetch_compute(0, u64::MAX);
        if self.resolved > 0 {
            self.observe(self.last_retire + 1);
        }
        if self.gap_remaining > 0 {
            return None;
        }
        let rec = *self.trace.records().get(self.next_record)?;
        let at = self.fetch_bound()?;
        Some((CpuCycle::new(at), rec.op, rec.addr))
    }

    /// Fetches the memory record [`next_probe`](Self::next_probe)
    /// announced, at cycle `at` (no earlier than the announced cycle):
    /// the memory system accepted it as request `token`.
    pub fn admit(&mut self, at: CpuCycle, token: u64) {
        let rec = self.trace.records()[self.next_record];
        let at = at.raw();
        debug_assert!(self.fetch_bound().is_some_and(|b| b <= at));
        let ready = match rec.op {
            MemOp::Read => {
                self.reads.push((token, self.fetched));
                PENDING
            }
            MemOp::Write => at + self.cfg.pipeline_depth,
        };
        self.push(at, ready);
        self.next_record += 1;
        self.gap_remaining = self
            .trace
            .records()
            .get(self.next_record)
            .map(|r| r.gap)
            .unwrap_or_else(|| self.trace.tail_gap());
    }

    /// Per-cycle interface: advances one CPU cycle — retire, then fetch,
    /// probing `port` for the next memory operation. Call it for
    /// consecutive cycles from 0. Returns whether any instruction
    /// retired or fetched.
    ///
    /// Generic over the port (rather than `&mut dyn`) so the per-cycle
    /// admission checks and submits inline into the caller's loop.
    pub fn tick(&mut self, now: CpuCycle, port: &mut impl MemoryPort) -> bool {
        let t = now.raw();
        if self.is_done() {
            return false;
        }
        if t < self.idle_until {
            // A stall cycle: only the clock moves.
            self.now = t + 1;
            return false;
        }
        let (before_retire, before_fetch) = (self.retired, self.fetched);
        self.resolve();
        self.observe(t + 1);
        let mut rejected = false;
        loop {
            self.fetch_compute(t, t);
            if self.gap_remaining > 0 {
                break;
            }
            let Some(rec) = self.trace.records().get(self.next_record).copied() else {
                break;
            };
            if self.fetch_bound().is_none_or(|b| b > t) {
                break;
            }
            if !port.can_accept(rec.op, rec.addr) {
                rejected = true;
                break;
            }
            let token = port.submit(self.id, rec.op, rec.addr);
            self.admit(now, token);
        }
        // The next cycle this core acts on its own: its next retirement
        // or fetch. After a fetch the next cycle may fetch again, and a
        // rejected record is retried every cycle.
        self.idle_until = if rejected || self.fetched > before_fetch {
            0
        } else {
            let retire = if self.retired < self.resolved {
                self.retire[self.at(self.retired)]
            } else {
                u64::MAX
            };
            let fetch = if self.fetched < self.total {
                self.fetch_bound().unwrap_or(u64::MAX)
            } else {
                u64::MAX
            };
            retire.min(fetch)
        };
        self.retired > before_retire || self.fetched > before_fetch
    }

    fn at(&self, i: u64) -> usize {
        (i & self.mask) as usize
    }

    /// Earliest fetch cycle of the next instruction ignoring admission,
    /// or `None` while it waits on an unresolved ROB slot.
    fn fetch_bound(&mut self) -> Option<u64> {
        let i = self.fetched;
        let j = i.wrapping_sub(self.cfg.rob_size as u64);
        if i >= self.cfg.rob_size as u64 && j >= self.resolved {
            self.resolve();
            if j >= self.resolved {
                return None;
            }
        }
        let width = self.fetch[self.at(i.wrapping_sub(self.cfg.fetch_width as u64))];
        Some(fetch_rule(self.last_fetch, width, self.retire[self.at(j)]))
    }

    /// Fetches the non-memory instructions before the next memory
    /// record, each at its bound but no earlier than `floor`, stopping
    /// at the first whose cycle would pass `limit` or whose ROB bound
    /// waits on a read. Expects every resolvable retire cycle to be
    /// resolved. These loops are where the engine spends its time, so
    /// they keep the state in locals.
    fn fetch_compute(&mut self, floor: u64, limit: u64) {
        if self.resolved == self.fetched {
            self.fetch_resolved(floor, limit);
        } else {
            self.fetch_pending(floor, limit);
        }
    }

    /// [`fetch_compute`](Self::fetch_compute) while no earlier
    /// instruction waits on a read: each instruction is retired as it
    /// is fetched.
    fn fetch_resolved(&mut self, floor: u64, limit: u64) {
        let mask = self.mask;
        let fw = self.cfg.fetch_width as u64;
        let rob = self.cfg.rob_size as u64;
        let rw = self.cfg.retire_width as u64;
        let depth = self.cfg.pipeline_depth;
        let (fetch, retire) = (&mut self.fetch[..], &mut self.retire[..]);
        let start = self.fetched;
        let end = start + u64::from(self.gap_remaining);
        let (mut last_fetch, mut last_retire) = (self.last_fetch, self.last_retire);
        let mut cycles = self.retire_cycles;
        let mut i = start;
        while i < end {
            let width = fetch[(i.wrapping_sub(fw) & mask) as usize];
            let rob_retire = retire[(i.wrapping_sub(rob) & mask) as usize];
            let at = fetch_rule(last_fetch, width, rob_retire).max(floor);
            if at > limit {
                break;
            }
            let width = retire[(i.wrapping_sub(rw) & mask) as usize];
            let r = retire_rule(at + depth, at, last_retire, width);
            cycles += u64::from(r != last_retire);
            fetch[(i & mask) as usize] = at;
            retire[(i & mask) as usize] = r;
            last_fetch = at;
            last_retire = r;
            i += 1;
        }
        self.gap_remaining -= (i - start) as u32;
        self.fetched = i;
        self.resolved = i;
        self.last_fetch = last_fetch;
        self.last_retire = last_retire;
        self.retire_cycles = cycles;
    }

    /// [`fetch_compute`](Self::fetch_compute) behind an undelivered
    /// read: instructions are fetched with their ready cycles, to be
    /// retired by [`resolve`](Self::resolve) after the delivery, up to
    /// the first whose ROB slot is held by an unresolved instruction.
    fn fetch_pending(&mut self, floor: u64, limit: u64) {
        let mask = self.mask;
        let fw = self.cfg.fetch_width as u64;
        let rob = self.cfg.rob_size as u64;
        let depth = self.cfg.pipeline_depth;
        let (fetch, retire) = (&mut self.fetch[..], &mut self.retire[..]);
        let start = self.fetched;
        let end = (start + u64::from(self.gap_remaining)).min(self.resolved + rob);
        let mut last_fetch = self.last_fetch;
        let mut i = start;
        while i < end {
            let width = fetch[(i.wrapping_sub(fw) & mask) as usize];
            let rob_retire = retire[(i.wrapping_sub(rob) & mask) as usize];
            let at = fetch_rule(last_fetch, width, rob_retire).max(floor);
            if at > limit {
                break;
            }
            fetch[(i & mask) as usize] = at;
            retire[(i & mask) as usize] = at + depth;
            last_fetch = at;
            i += 1;
        }
        self.gap_remaining -= (i - start) as u32;
        self.fetched = i;
        self.last_fetch = last_fetch;
    }

    fn push(&mut self, fetch: u64, ready: u64) {
        let k = self.at(self.fetched);
        self.fetch[k] = fetch;
        self.retire[k] = ready;
        self.last_fetch = fetch;
        self.fetched += 1;
        if self.resolved + 1 == self.fetched {
            // Nothing earlier waits on a read: retire it right away.
            self.resolve();
        }
    }

    /// Computes retire cycles in order up to the first undelivered read.
    fn resolve(&mut self) {
        let mask = self.mask;
        let rw = self.cfg.retire_width as u64;
        let (fetch, retire) = (&self.fetch[..], &mut self.retire[..]);
        let mut last_retire = self.last_retire;
        let mut cycles = self.retire_cycles;
        let mut i = self.resolved;
        while i < self.fetched {
            let k = (i & mask) as usize;
            let ready = retire[k];
            if ready == PENDING {
                break;
            }
            let width = retire[(i.wrapping_sub(rw) & mask) as usize];
            let r = retire_rule(ready, fetch[k], last_retire, width);
            cycles += u64::from(r != last_retire);
            retire[k] = r;
            last_retire = r;
            i += 1;
        }
        self.resolved = i;
        self.last_retire = last_retire;
        self.retire_cycles = cycles;
    }

    /// Counts the retirements before cycle `until`.
    fn observe(&mut self, until: u64) {
        if until > self.last_retire {
            // Every resolved instruction retires before `until`.
            self.retired = self.resolved;
            self.seen_cycles = self.retire_cycles;
            self.seen_last = self.last_retire;
        } else {
            while self.retired < self.resolved {
                let r = self.retire[self.at(self.retired)];
                if r >= until {
                    break;
                }
                if r != self.seen_last {
                    self.seen_cycles += 1;
                    self.seen_last = r;
                }
                self.retired += 1;
            }
        }
        self.now = self.now.max(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRecord;

    /// A memory port that completes reads after a fixed delay.
    #[derive(Debug, Default)]
    struct FakePort {
        submitted: Vec<(usize, MemOp, PhysAddr, u64)>,
        next_token: u64,
        accept_writes: bool,
    }

    impl MemoryPort for FakePort {
        fn can_accept(&self, op: MemOp, _addr: PhysAddr) -> bool {
            op == MemOp::Read || self.accept_writes
        }
        fn submit(&mut self, core: usize, op: MemOp, addr: PhysAddr) -> u64 {
            let t = self.next_token;
            self.next_token += 1;
            self.submitted.push((core, op, addr, t));
            t
        }
    }

    fn cfg() -> ProcessorConfig {
        ProcessorConfig::default()
    }

    #[test]
    fn pure_compute_trace_finishes_at_retire_bandwidth() {
        // 100 non-mem instructions, retire width 2 -> >= 50 cycles.
        let mut core = Core::new(0, cfg(), Trace::new(vec![], 100));
        let mut port = FakePort {
            accept_writes: true,
            ..FakePort::default()
        };
        let mut now = CpuCycle::ZERO;
        while !core.is_done() {
            core.tick(now, &mut port);
            now += 1;
            assert!(now.raw() < 10_000, "must terminate");
        }
        let t = core.finished_at().unwrap().raw();
        assert!((50..=80).contains(&t), "took {t} cycles");
        assert!(port.submitted.is_empty());
    }

    #[test]
    fn read_at_rob_head_stalls_until_completion() {
        let trace = Trace::new(
            vec![TraceRecord {
                gap: 0,
                op: MemOp::Read,
                addr: PhysAddr::new(0x40),
            }],
            10,
        );
        let mut core = Core::new(0, cfg(), trace);
        let mut port = FakePort {
            accept_writes: true,
            ..FakePort::default()
        };
        for i in 0..50 {
            core.tick(CpuCycle::new(i), &mut port);
        }
        // Everything fetched, nothing retired past the read.
        assert_eq!(core.retired(), 0);
        assert!(core.stall_cycles() > 10);
        core.complete_read(0, CpuCycle::new(50));
        let mut now = CpuCycle::new(50);
        while !core.is_done() {
            core.tick(now, &mut port);
            now += 1;
        }
        assert_eq!(core.retired(), 11);
    }

    #[test]
    fn writes_are_posted_but_stall_when_queue_full() {
        let trace = Trace::new(
            vec![TraceRecord {
                gap: 0,
                op: MemOp::Write,
                addr: PhysAddr::new(0x40),
            }],
            2,
        );
        let mut core = Core::new(0, cfg(), trace);
        let mut port = FakePort::default(); // rejects writes
        for i in 0..20 {
            core.tick(CpuCycle::new(i), &mut port);
        }
        assert_eq!(core.retired(), 0, "fetch is blocked on the write");
        port.accept_writes = true;
        let mut now = CpuCycle::new(20);
        while !core.is_done() {
            core.tick(now, &mut port);
            now += 1;
        }
        assert!(core.is_done());
        assert_eq!(port.submitted.len(), 1);
    }

    #[test]
    fn rob_capacity_limits_outstanding_work() {
        // 500 compute instructions: the ROB (128) cannot hold them all
        // at once; fetch must throttle but everything still retires.
        let mut core = Core::new(0, cfg(), Trace::new(vec![], 500));
        let mut port = FakePort {
            accept_writes: true,
            ..FakePort::default()
        };
        let mut now = CpuCycle::ZERO;
        while !core.is_done() {
            core.tick(now, &mut port);
            assert!(core.fetched - core.retired() <= 128);
            now += 1;
            assert!(now.raw() < 100_000);
        }
    }

    #[test]
    fn interleaves_gaps_and_mem_ops_in_order() {
        let trace = Trace::new(
            vec![
                TraceRecord {
                    gap: 3,
                    op: MemOp::Read,
                    addr: PhysAddr::new(0x40),
                },
                TraceRecord {
                    gap: 2,
                    op: MemOp::Write,
                    addr: PhysAddr::new(0x80),
                },
            ],
            0,
        );
        let mut core = Core::new(0, cfg(), trace);
        let mut port = FakePort {
            accept_writes: true,
            ..FakePort::default()
        };
        for i in 0..10 {
            core.tick(CpuCycle::new(i), &mut port);
        }
        assert_eq!(port.submitted.len(), 2);
        assert_eq!(port.submitted[0].1, MemOp::Read);
        assert_eq!(port.submitted[1].1, MemOp::Write);
    }

    #[test]
    fn event_interface_announces_each_record_at_its_fetch_bound() {
        // 8 compute instructions at fetch width 4 fill cycles 0 and 1,
        // so the read is fetched at cycle 2; the write after it shares
        // that cycle.
        let trace = Trace::new(
            vec![
                TraceRecord {
                    gap: 8,
                    op: MemOp::Read,
                    addr: PhysAddr::new(0x40),
                },
                TraceRecord {
                    gap: 0,
                    op: MemOp::Write,
                    addr: PhysAddr::new(0x80),
                },
            ],
            0,
        );
        let mut core = Core::new(0, cfg(), trace);
        let (at, op, _) = core.next_probe().unwrap();
        assert_eq!((at.raw(), op), (2, MemOp::Read));
        core.admit(at, 7);
        let (at, op, _) = core.next_probe().unwrap();
        assert_eq!((at.raw(), op), (2, MemOp::Write));
        core.admit(at, 8);
        assert_eq!(core.next_probe(), None);
        assert_eq!(core.finish_cycle(), None, "the read is outstanding");
        core.complete_read(7, CpuCycle::new(100));
        assert_eq!(core.next_probe(), None);
        // The read retires at 100 beside the write (retire width 2).
        assert_eq!(core.finish_cycle(), Some(CpuCycle::new(100)));
        assert_eq!(core.finished_at(), Some(CpuCycle::new(100)));
    }

    #[test]
    fn empty_trace_finishes_at_cycle_zero() {
        let core = Core::new(0, cfg(), Trace::new(vec![], 0));
        assert!(core.is_done());
        assert_eq!(core.finished_at(), Some(CpuCycle::ZERO));
        assert_eq!(core.finish_cycle(), Some(CpuCycle::ZERO));
        assert_eq!(core.stall_cycles(), 0);
    }

    #[test]
    #[should_panic(expected = "unknown token")]
    fn unknown_completion_panics() {
        let mut core = Core::new(0, cfg(), Trace::new(vec![], 10));
        core.complete_read(42, CpuCycle::ZERO);
    }
}
