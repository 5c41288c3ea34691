//! DRAM substrate for the `gpumem` simulator.
//!
//! One [`DramChannel`] serves each memory partition: a GDDR5-like device
//! with a bounded memory-controller scheduler queue (Table I baseline **16
//! entries**, the queue whose occupancy the paper reports as *full for 39%
//! of its usage lifetime*), FR-FCFS scheduling (row hits first, then
//! oldest), per-bank row state (Table I baseline **16 banks/chip**), and a
//! shared data bus whose burst time scales inversely with the bus width
//! (Table I baseline **32 bits**, i.e. 16 cycles per 128-byte line at
//! double data rate).
//!
//! # Example
//!
//! ```
//! use gpumem_config::GpuConfig;
//! use gpumem_dram::DramChannel;
//! use gpumem_types::{AccessKind, CoreId, Cycle, FetchId, LineAddr, MemFetch};
//!
//! let cfg = GpuConfig::gtx480();
//! let mut dram = DramChannel::new(&cfg, 0);
//! let fetch = MemFetch::new(FetchId::new(1), AccessKind::Load, LineAddr::new(6), CoreId::new(0));
//! dram.try_push(fetch, Cycle::ZERO).unwrap();
//!
//! let mut now = Cycle::ZERO;
//! let mut done = None;
//! for _ in 0..500 {
//!     dram.tick(now).unwrap();
//!     dram.observe();
//!     if let Some(f) = dram.pop_return() {
//!         done = Some((f, now));
//!         break;
//!     }
//!     now = now.next();
//! }
//! let (_, finished_at) = done.expect("read must complete");
//! assert!(finished_at.raw() > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use
)]
#![warn(missing_docs)]

use gpumem_config::{DramConfig, GpuConfig};
use gpumem_types::{
    AccessKind, Cycle, CycleStamp, DueQueue, FetchArena, LatencyStats, Log2Histogram, MemFetch,
    PushError, QueueStats, SimError, SimQueue, SlotId,
};

/// Activity counters for one [`DramChannel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DramStats {
    /// Read requests serviced.
    pub reads: u64,
    /// Write requests serviced (stores and L2 writebacks).
    pub writes: u64,
    /// Requests that hit an open row.
    pub row_hits: u64,
    /// Requests to a closed (precharged) bank.
    pub row_closed: u64,
    /// Requests that required closing another row first.
    pub row_conflicts: u64,
    /// Cycles the data bus was transferring.
    pub bus_busy_cycles: u64,
}

impl DramStats {
    /// Accumulates another channel's counters (for per-GPU aggregation).
    pub fn merge(&mut self, other: &DramStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.row_hits += other.row_hits;
        self.row_closed += other.row_closed;
        self.row_conflicts += other.row_conflicts;
        self.bus_busy_cycles += other.bus_busy_cycles;
    }

    /// Row-hit rate over all serviced requests.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_closed + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// Write-path lifecycle histograms, collected only when tracing is enabled.
///
/// Stores and L2 writebacks terminate at DRAM and never travel back to a
/// core, so their queue-wait and service stages are recorded here, at the
/// point the write lands, instead of at the core's response path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteTrace {
    /// `dram_arrive → dram_issue`: scheduler-queue wait.
    pub queue: Log2Histogram,
    /// `dram_issue → dram_data`: row activate + burst transfer.
    pub service: Log2Histogram,
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    busy_until: Cycle,
    /// When the currently open row was activated (for tRAS).
    activated_at: Cycle,
}

/// A scheduler-queue entry: everything FR-FCFS scans every cycle, in 32
/// bytes. The request body stays parked in the channel's arena from
/// [`DramChannel::try_push`] until it leaves the channel.
#[derive(Debug, Clone, Copy)]
struct Pending {
    slot: SlotId,
    /// Earliest cycle the scheduler may consider this request (models the
    /// fixed controller front-end latency).
    ready_at: Cycle,
    /// Bank and row of the request's line. Fixed at `try_push`: the line
    /// never changes while queued, so the address is decoded once, not
    /// once per entry per cycle.
    bank: usize,
    row: u64,
}

/// The first cycle FR-FCFS may pick `p`: its front-end latency has elapsed
/// and its bank is idle. Shared by the scan bound and
/// [`DramChannel::next_event`], so the run loop's jump target and the scan
/// gate cannot diverge.
fn schedulable_at(p: &Pending, banks: &[Bank]) -> Cycle {
    p.ready_at.max(banks[p.bank].busy_until)
}

/// FR-FCFS over one scheduler queue: the position of the oldest request
/// hitting an open row on an idle bank, else of the oldest request whose
/// bank is idle. One pass: the first row hit ends the scan, and the first
/// ready request seen on the way is the fallback.
///
/// # Errors
///
/// When nothing can be picked, the first cycle at which something can
/// (`NEVER` for an empty queue) — the minimum [`schedulable_at`], which
/// the failed pass has read every term of anyway.
fn fr_fcfs_pick(queue: &SimQueue<Pending>, banks: &[Bank], now: Cycle) -> Result<usize, Cycle> {
    let mut first_ready = None;
    let mut bound = Cycle::NEVER;
    for (pos, p) in queue.iter().enumerate() {
        let at = schedulable_at(p, banks);
        if at > now {
            bound = bound.min(at);
            continue;
        }
        if banks[p.bank].open_row == Some(p.row) {
            return Ok(pos);
        }
        first_ready = first_ready.or(Some(pos));
    }
    first_ready.ok_or(bound)
}

/// One FR-FCFS scheduler queue together with what its last fruitless scan
/// proved.
#[derive(Debug)]
struct SchedQueue {
    entries: SimQueue<Pending>,
    /// No entry can be picked before this cycle, so [`pick`](Self::pick)
    /// returns without scanning while `now` is below it.
    ///
    /// *Proved by:* a [`fr_fcfs_pick`] that picked nothing, which reports
    /// the minimum [`schedulable_at`] over the entries.
    ///
    /// *Lowered by* the one event that can make that minimum smaller: an
    /// entry joining the queue ([`push`](Self::push), to the entry's
    /// `schedulable_at`). Everything else only raises it — a queued
    /// entry's `ready_at` is fixed, a bank's `busy_until` only ever moves
    /// forward (so a schedule from the channel's other queue keeps this
    /// bound sound), and a pick removes an entry. A successful pick leaves
    /// the bound at or below `now`, so the next tick scans again. Only the
    /// channel's own methods touch a queued entry or a bank, so the list
    /// is complete.
    scan_lb: Cycle,
}

impl SchedQueue {
    fn new(name: &'static str, capacity: usize) -> Self {
        SchedQueue {
            entries: SimQueue::new(name, capacity),
            scan_lb: Cycle::NEVER,
        }
    }

    fn push(&mut self, p: Pending, banks: &[Bank]) -> Result<(), PushError<Pending>> {
        self.entries.push(p)?;
        self.scan_lb = self.scan_lb.min(schedulable_at(&p, banks));
        Ok(())
    }

    /// Removes and returns the request [`fr_fcfs_pick`] schedules at
    /// `now`, if any.
    fn pick(&mut self, banks: &[Bank], now: Cycle) -> Option<Pending> {
        if now < self.scan_lb {
            debug_assert!(
                fr_fcfs_pick(&self.entries, banks, now).is_err(),
                "scan bound {:?} skipped a pick at {now:?}",
                self.scan_lb
            );
            return None;
        }
        match fr_fcfs_pick(&self.entries, banks, now) {
            Ok(pos) => self.entries.remove_at(pos),
            Err(bound) => {
                self.scan_lb = bound;
                None
            }
        }
    }
}

/// A single DRAM channel with FR-FCFS scheduling.
///
/// Requests enter through [`try_push`](DramChannel::try_push) (bounded by
/// the Table I scheduler queue — rejection back-pressures the L2 miss
/// queue), are scheduled one per cycle onto per-bank row state machines,
/// contend for the shared data bus, and — for reads — leave through the
/// bounded return queue towards the L2 fill path.
#[derive(Debug)]
pub struct DramChannel {
    line_bytes: u64,
    /// Address-interleave stride: the number of partitions, so that the
    /// per-channel line index is `line / stride`.
    stride: u64,
    lines_per_row: u64,
    cfg: DramConfig,
    burst_cycles: u64,
    /// Bodies of every request inside the channel; the queues and the
    /// completion queue below pass 4-byte handles.
    arena: FetchArena,
    queue: SchedQueue,
    write_queue: SchedQueue,
    banks: Vec<Bank>,
    bus_free_at: Cycle,
    /// Scheduled requests, keyed by the cycle their burst finishes.
    completions: DueQueue<SlotId>,
    return_queue: SimQueue<SlotId>,
    stats: DramStats,
    service_latency: LatencyStats,
    in_flight: usize,
    /// Write-path stage histograms; `None` (and zero-cost) unless tracing
    /// was enabled on the owning simulator.
    trace: Option<Box<WriteTrace>>,
}

impl DramChannel {
    /// Builds a channel for one partition of the configured GPU.
    /// `partition_index` is informational; the address interleave stride is
    /// `cfg.num_partitions`.
    pub fn new(cfg: &GpuConfig, partition_index: usize) -> Self {
        let _ = partition_index;
        Self::from_parts(cfg.dram.clone(), cfg.line_bytes, cfg.num_partitions as u64)
    }

    /// Builds a channel from raw parts (used by tests that want exotic
    /// geometries).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent
    /// (`row_bytes < line_bytes` or zero stride).
    pub fn from_parts(cfg: DramConfig, line_bytes: u64, stride: u64) -> Self {
        assert!(stride > 0, "partition stride must be positive");
        assert!(
            cfg.row_bytes >= line_bytes,
            "row must hold at least one line"
        );
        let lines_per_row = cfg.row_bytes / line_bytes;
        let burst_cycles = line_bytes.div_ceil(cfg.bus_bytes * cfg.data_rate);
        DramChannel {
            line_bytes,
            stride,
            lines_per_row,
            burst_cycles,
            arena: FetchArena::with_capacity(2 * cfg.scheduler_queue + cfg.return_queue),
            queue: SchedQueue::new("dram_sched", cfg.scheduler_queue),
            write_queue: SchedQueue::new("dram_write", cfg.scheduler_queue),
            banks: vec![
                Bank {
                    open_row: None,
                    busy_until: Cycle::ZERO,
                    activated_at: Cycle::ZERO,
                };
                cfg.banks
            ],
            bus_free_at: Cycle::ZERO,
            completions: DueQueue::new(),
            return_queue: SimQueue::new("dram_return", cfg.return_queue),
            stats: DramStats::default(),
            service_latency: LatencyStats::new(),
            in_flight: 0,
            trace: None,
            cfg,
        }
    }

    /// Turns on write-path tracing. Idempotent; enable before running.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Box::default());
        }
    }

    /// The write-path histograms, if tracing was enabled.
    pub fn trace(&self) -> Option<&WriteTrace> {
        self.trace.as_deref()
    }

    /// Current depth of the read scheduler queue (for occupancy probes).
    pub fn read_queue_len(&self) -> usize {
        self.queue.entries.len()
    }

    /// (bank, row) decoding of a line address for this channel.
    pub fn map_address(&self, line: gpumem_types::LineAddr) -> (usize, u64) {
        let local_line = line.index() / self.stride;
        let global_row = local_line / self.lines_per_row;
        let bank = (global_row % self.banks.len() as u64) as usize;
        let row = global_row / self.banks.len() as u64;
        (bank, row)
    }

    /// True if the appropriate scheduler queue (reads and writes are
    /// queued separately, as in real GDDR5 controllers) can accept a
    /// request of `kind` this cycle.
    pub fn can_accept(&self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Load => !self.queue.entries.is_full(),
            AccessKind::Store => !self.write_queue.entries.is_full(),
        }
    }

    /// Enqueues a request into the read or write scheduler queue.
    ///
    /// # Errors
    ///
    /// Hands the fetch back if that queue is full (the caller — the L2
    /// miss/writeback path — must retry, propagating backpressure upward).
    pub fn try_push(&mut self, mut fetch: MemFetch, now: Cycle) -> Result<(), MemFetch> {
        if fetch.timeline.dram_arrive.is_none() {
            fetch.timeline.dram_arrive = CycleStamp::at(now);
        }
        let (bank, row) = self.map_address(fetch.line);
        let queue = match fetch.kind {
            AccessKind::Load => &mut self.queue,
            AccessKind::Store => &mut self.write_queue,
        };
        let pending = Pending {
            slot: self.arena.insert(fetch),
            ready_at: now + self.cfg.controller_latency,
            bank,
            row,
        };
        match queue.push(pending, &self.banks) {
            Ok(()) => {
                self.in_flight += 1;
                Ok(())
            }
            Err(e) => Err(self.arena.take(e.into_inner().slot)),
        }
    }

    /// Advances the channel one cycle: lands finished requests into the
    /// return queue and schedules at most one new request FR-FCFS.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QueueOverflow`] if the return queue rejects a
    /// completion after its fullness check — an internal invariant
    /// violation, never ordinary congestion.
    pub fn tick(&mut self, now: Cycle) -> Result<(), SimError> {
        // Land completions whose data transfer finished.
        while let Some((done_at, &slot)) = self.completions.peek() {
            if done_at > now {
                break;
            }
            let is_load = self.arena[slot].kind.is_load();
            if is_load && self.return_queue.is_full() {
                break;
            }
            self.completions.pop_due(now);
            let fetch = &mut self.arena[slot];
            let arrive = fetch.timeline.dram_arrive.get();
            if let Some(arr) = arrive {
                self.service_latency.record(now.since(arr));
            }
            // The burst finished at `done_at`; landing may lag it when a
            // blocked read at the queue's head stalls the loop.
            fetch.timeline.dram_data = CycleStamp::at(done_at);
            if is_load {
                if self.return_queue.push(slot).is_err() {
                    return Err(SimError::QueueOverflow {
                        component: "dram",
                        queue: "dram_return",
                        cycle: now.raw(),
                    });
                }
            } else {
                // Writes end here: nothing travels back up the hierarchy.
                let issue = self.arena.take(slot).timeline.dram_issue.get();
                if let (Some(trace), Some(arr), Some(issue)) =
                    (self.trace.as_deref_mut(), arrive, issue)
                {
                    trace.queue.record(issue.since(arr));
                    trace.service.record(done_at.since(issue));
                }
                self.in_flight = self.in_flight.saturating_sub(1);
            }
        }

        // Do not race reads ahead of a clogged return path: if completed
        // reads are already waiting for return-queue space, scheduling
        // more reads would model infinite buffering. Holding off lets the
        // scheduler queue fill up instead — the backpressure the paper
        // measures at this queue. Writes never enter the return path, so
        // they remain schedulable and keep the writeback pipeline live
        // (deadlock freedom).
        let return_blocked = self.return_queue.is_full()
            && self
                .completions
                .peek()
                .is_some_and(|(done_at, &slot)| done_at <= now && self.arena[slot].kind.is_load());
        // Read-first scheduling with two exceptions: a blocked return path
        // or a write queue running hot (drain threshold at 3/4).
        let prefer_writes = return_blocked
            || self.write_queue.entries.len() * 4 >= self.write_queue.entries.capacity() * 3;
        if prefer_writes {
            if !self.schedule_one(now, AccessKind::Store) && !return_blocked {
                self.schedule_one(now, AccessKind::Load);
            }
        } else if !self.schedule_one(now, AccessKind::Load) {
            self.schedule_one(now, AccessKind::Store);
        }
        Ok(())
    }

    /// Schedules at most one request of `kind` by [`fr_fcfs_pick`].
    /// Returns whether a request was scheduled.
    fn schedule_one(&mut self, now: Cycle, kind: AccessKind) -> bool {
        let queue = match kind {
            AccessKind::Load => &mut self.queue,
            AccessKind::Store => &mut self.write_queue,
        };
        let Some(Pending {
            slot,
            bank: bank_idx,
            row,
            ..
        }) = queue.pick(&self.banks, now)
        else {
            return false;
        };
        self.arena[slot].timeline.dram_issue = CycleStamp::at(now);

        let t = &self.cfg;
        let bank = &mut self.banks[bank_idx];

        // When can the column command's data phase begin?
        let col_ready = match bank.open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                now.raw()
            }
            Some(_) => {
                self.stats.row_conflicts += 1;
                // Precharge (respecting tRAS), activate, then column.
                let pre_at = now.raw().max(bank.activated_at.raw() + t.t_ras);
                let act_at = pre_at + t.t_rp;
                bank.open_row = Some(row);
                bank.activated_at = Cycle::new(act_at);
                act_at + t.t_rcd
            }
            None => {
                self.stats.row_closed += 1;
                bank.open_row = Some(row);
                bank.activated_at = now;
                now.raw() + t.t_rcd
            }
        };

        let data_start = (col_ready + t.t_cl).max(self.bus_free_at.raw());
        let done_at = Cycle::new(data_start + self.burst_cycles);
        self.bus_free_at = done_at;
        self.stats.bus_busy_cycles += self.burst_cycles;
        bank.busy_until = done_at;

        match kind {
            AccessKind::Load => self.stats.reads += 1,
            AccessKind::Store => self.stats.writes += 1,
        }
        self.completions.push(done_at, slot);
        true
    }

    /// Takes one completed read from the return queue (the L2 fill path
    /// drains this).
    pub fn pop_return(&mut self) -> Option<MemFetch> {
        let slot = self.return_queue.pop()?;
        self.in_flight = self.in_flight.saturating_sub(1);
        Some(self.arena.take(slot))
    }

    /// Iterates over every fetch queued or in service inside the channel
    /// (scheduler queues, completions in flight, return queue), for wedge
    /// diagnosis.
    pub fn fetches(&self) -> impl Iterator<Item = &MemFetch> {
        self.queue
            .entries
            .iter()
            .chain(self.write_queue.entries.iter())
            .map(|p| &p.slot)
            .chain(self.completions.iter())
            .chain(self.return_queue.iter())
            .map(|&slot| &self.arena[slot])
    }

    /// Per-cycle statistics bookkeeping; call once per cycle.
    pub fn observe(&mut self) {
        self.queue.entries.observe();
        self.write_queue.entries.observe();
        self.return_queue.observe();
    }

    /// Batch bookkeeping for `cycles` consecutive cycles proven inactive
    /// via [`next_event`](DramChannel::next_event).
    pub fn observe_many(&mut self, cycles: u64) {
        self.queue.entries.observe_many(cycles);
        self.write_queue.entries.observe_many(cycles);
        self.return_queue.observe_many(cycles);
    }

    /// The earliest cycle at or after `now` at which this channel can act:
    /// land a completion, have a completed read drained by the fill path,
    /// or schedule a queued request. `None` when the channel is idle.
    ///
    /// A queued request becomes schedulable at
    /// `max(ready_at, bank.busy_until)`; before that cycle
    /// [`tick`](DramChannel::tick) is a provable no-op, so the caller may
    /// fast-forward across the gap.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.return_queue.is_empty() {
            return Some(now);
        }
        let mut earliest: Option<Cycle> = None;
        let mut fold = |t: Cycle| {
            earliest = Some(match earliest {
                Some(e) if e <= t => e,
                _ => t,
            });
        };
        if let Some(done_at) = self.completions.next_due() {
            if done_at <= now {
                return Some(now);
            }
            fold(done_at);
        }
        for p in self
            .queue
            .entries
            .iter()
            .chain(self.write_queue.entries.iter())
        {
            let at = schedulable_at(p, &self.banks);
            if at <= now {
                return Some(now);
            }
            fold(at);
        }
        earliest
    }

    /// True if nothing is queued, scheduled or awaiting return.
    pub fn is_idle(&self) -> bool {
        self.queue.entries.is_empty()
            && self.write_queue.entries.is_empty()
            && self.completions.is_empty()
            && self.return_queue.is_empty()
    }

    /// Requests inside the channel (queued + in service + awaiting
    /// return).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Fetch bodies parked in the channel's arena; zero once idle.
    pub fn arena_slots(&self) -> usize {
        self.arena.len()
    }

    /// Activity counters.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Write-scheduler-queue occupancy statistics.
    pub fn write_queue_stats(&self) -> QueueStats {
        self.write_queue.entries.stats()
    }

    /// Read-scheduler-queue occupancy statistics — the paper's "DRAM
    /// access queues full for 39% of usage lifetime" metric reads
    /// [`QueueStats::full_fraction_of_usage`] of this.
    pub fn scheduler_queue_stats(&self) -> QueueStats {
        self.queue.entries.stats()
    }

    /// Return-queue occupancy statistics.
    pub fn return_queue_stats(&self) -> QueueStats {
        self.return_queue.stats()
    }

    /// Distribution of request service latencies (arrival to data
    /// completion).
    pub fn service_latency(&self) -> &LatencyStats {
        &self.service_latency
    }

    /// The line size the channel was built with.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_types::{CoreId, FetchId, LineAddr};

    /// Drains every request currently inside `channel`, advancing time until
    /// idle; returns completed reads in completion order.
    fn drain_channel(
        channel: &mut DramChannel,
        mut now: Cycle,
        max_cycles: u64,
    ) -> (Vec<MemFetch>, Cycle) {
        let mut out = Vec::new();
        let mut waited = 0;
        while !channel.is_idle() && waited < max_cycles {
            channel.tick(now).expect("channel invariant violated");
            channel.observe();
            while let Some(f) = channel.pop_return() {
                out.push(f);
            }
            now = now.next();
            waited += 1;
        }
        (out, now)
    }

    fn channel() -> DramChannel {
        DramChannel::new(&GpuConfig::gtx480(), 0)
    }

    fn load(id: u64, line: u64) -> MemFetch {
        MemFetch::new(
            FetchId::new(id),
            AccessKind::Load,
            LineAddr::new(line),
            CoreId::new(0),
        )
    }

    fn store(id: u64, line: u64) -> MemFetch {
        MemFetch::new(
            FetchId::new(id),
            AccessKind::Store,
            LineAddr::new(line),
            CoreId::new(0),
        )
    }

    #[test]
    fn single_read_latency_is_controller_plus_rcd_cl_burst() {
        let mut d = channel();
        d.try_push(load(1, 0), Cycle::ZERO).unwrap();
        let (done, _) = drain_channel(&mut d, Cycle::ZERO, 10_000);
        assert_eq!(done.len(), 1);
        let cfg = GpuConfig::gtx480();
        let expected =
            cfg.dram.controller_latency + cfg.dram.t_rcd + cfg.dram.t_cl + cfg.dram_burst_cycles();
        let measured = d.service_latency().mean();
        // Completion lands within a couple of cycles of the analytic value
        // (tick-granularity rounding).
        assert!(
            (measured - expected as f64).abs() <= 3.0,
            "measured {measured}, expected ~{expected}"
        );
    }

    #[test]
    fn row_hits_are_faster_than_conflicts() {
        let cfg = GpuConfig::gtx480();
        let lines_per_row = cfg.dram.row_bytes / cfg.line_bytes;
        let stride = cfg.num_partitions as u64;

        // Same row: line indices differing only within a row.
        let mut d = channel();
        d.try_push(load(1, 0), Cycle::ZERO).unwrap();
        d.try_push(load(2, stride), Cycle::ZERO).unwrap(); // next local line, same row
        let (_, t_same) = drain_channel(&mut d, Cycle::ZERO, 10_000);
        assert_eq!(d.stats().row_hits, 1);

        // Same bank, different rows → conflict.
        let mut d2 = channel();
        let banks = cfg.dram.banks as u64;
        d2.try_push(load(1, 0), Cycle::ZERO).unwrap();
        let conflict_line = stride * lines_per_row * banks; // same bank, row+1
        let (b1, r1) = d2.map_address(LineAddr::new(0));
        let (b2, r2) = d2.map_address(LineAddr::new(conflict_line));
        assert_eq!(b1, b2);
        assert_ne!(r1, r2);
        d2.try_push(load(2, conflict_line), Cycle::ZERO).unwrap();
        let (_, t_conflict) = drain_channel(&mut d2, Cycle::ZERO, 10_000);
        assert_eq!(d2.stats().row_conflicts, 1);

        assert!(
            t_conflict > t_same,
            "conflict {t_conflict} vs same-row {t_same}"
        );
    }

    #[test]
    fn scheduler_queue_backpressures() {
        let mut d = channel();
        let cap = GpuConfig::gtx480().dram.scheduler_queue;
        for i in 0..cap as u64 {
            d.try_push(load(i, i * 1000), Cycle::ZERO).unwrap();
        }
        assert!(!d.can_accept(AccessKind::Load));
        // The write queue is independent and still open.
        assert!(d.can_accept(AccessKind::Store));
        let back = d.try_push(load(99, 0), Cycle::ZERO).unwrap_err();
        assert_eq!(back.id, FetchId::new(99));
    }

    #[test]
    fn fr_fcfs_prefers_open_row() {
        let cfg = GpuConfig::gtx480();
        let stride = cfg.num_partitions as u64;
        let lines_per_row = cfg.dram.row_bytes / cfg.line_bytes;
        let banks = cfg.dram.banks as u64;
        let mut d = channel();

        // Open row 0 of bank 0 with a first request, then enqueue a
        // conflicting request (same bank, different row) *before* a row-hit
        // request. FR-FCFS should service the row hit first.
        d.try_push(load(1, 0), Cycle::ZERO).unwrap();
        let conflict = stride * lines_per_row * banks;
        d.try_push(load(2, conflict), Cycle::ZERO).unwrap();
        d.try_push(load(3, stride), Cycle::ZERO).unwrap(); // row hit after #1
        let (done, _) = drain_channel(&mut d, Cycle::ZERO, 20_000);
        let order: Vec<u64> = done.iter().map(|f| f.id.raw()).collect();
        assert_eq!(order[0], 1);
        assert_eq!(order[1], 3, "row hit must bypass older conflict");
        assert_eq!(order[2], 2);
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn writes_complete_without_return() {
        let mut d = channel();
        d.try_push(store(1, 0), Cycle::ZERO).unwrap();
        let (done, _) = drain_channel(&mut d, Cycle::ZERO, 10_000);
        assert!(done.is_empty());
        assert!(d.is_idle());
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.in_flight(), 0);
    }

    #[test]
    fn wider_bus_shortens_bursts() {
        let base = GpuConfig::gtx480();
        let mut wide_cfg = base.clone();
        wide_cfg.dram.bus_bytes = 8;
        let bus_cycles = |cfg: &GpuConfig| {
            let mut d = DramChannel::new(cfg, 0);
            d.try_push(load(1, 0), Cycle::ZERO).unwrap();
            drain_channel(&mut d, Cycle::ZERO, 10_000);
            d.stats().bus_busy_cycles
        };
        assert_eq!(bus_cycles(&base), 4); // 128 B / (4 B × 8)
        assert_eq!(bus_cycles(&wide_cfg), 2); // 128 B / (8 B × 8)
    }

    #[test]
    fn bus_serializes_parallel_banks() {
        // Two requests to different banks can overlap activation but must
        // share the bus: total time >= 2 bursts.
        let cfg = GpuConfig::gtx480();
        let stride = cfg.num_partitions as u64;
        let lines_per_row = cfg.dram.row_bytes / cfg.line_bytes;
        let mut d = channel();
        d.try_push(load(1, 0), Cycle::ZERO).unwrap();
        d.try_push(load(2, stride * lines_per_row), Cycle::ZERO)
            .unwrap(); // bank 1
        let (b1, _) = d.map_address(LineAddr::new(0));
        let (b2, _) = d.map_address(LineAddr::new(stride * lines_per_row));
        assert_ne!(b1, b2);
        let (done, end) = drain_channel(&mut d, Cycle::ZERO, 20_000);
        assert_eq!(done.len(), 2);
        let single_req_time = {
            let mut s = channel();
            s.try_push(load(1, 0), Cycle::ZERO).unwrap();
            drain_channel(&mut s, Cycle::ZERO, 20_000).1
        };
        // Overlapped, but by at least one extra burst.
        assert!(end.raw() >= single_req_time.raw() + cfg.dram_burst_cycles() - 2);
        assert!(end.raw() < single_req_time.raw() * 2);
    }

    #[test]
    fn return_queue_backpressure_holds_completions() {
        let mut cfg = GpuConfig::gtx480();
        cfg.dram.return_queue = 1;
        let mut d = DramChannel::new(&cfg, 0);
        d.try_push(load(1, 0), Cycle::ZERO).unwrap();
        d.try_push(load(2, 6), Cycle::ZERO).unwrap();
        // Run without draining returns.
        let mut now = Cycle::ZERO;
        for _ in 0..2000 {
            d.tick(now).unwrap();
            d.observe();
            now = now.next();
        }
        // Only one return fits; the other completion is held.
        assert_eq!(d.return_queue.len(), 1);
        assert!(!d.is_idle());
        // Drain and finish.
        let mut got = 0;
        for _ in 0..2000 {
            d.tick(now).unwrap();
            while d.pop_return().is_some() {
                got += 1;
            }
            now = now.next();
        }
        assert_eq!(got, 2);
        assert!(d.is_idle());
    }

    #[test]
    fn next_event_skips_controller_latency_exactly() {
        let mut d = channel();
        assert_eq!(d.next_event(Cycle::new(5)), None);
        d.try_push(load(1, 0), Cycle::new(5)).unwrap();
        let ev = d.next_event(Cycle::new(5)).expect("queued work");
        let ctrl = GpuConfig::gtx480().dram.controller_latency;
        assert_eq!(ev, Cycle::new(5 + ctrl));
        // Ticking strictly before the event changes nothing.
        let stats_before = *d.stats();
        d.tick(Cycle::new(5 + ctrl - 1)).unwrap();
        assert_eq!(*d.stats(), stats_before);
        // Ticking at the event schedules the request.
        d.tick(ev).unwrap();
        assert_eq!(d.stats().reads, 1);
        let next = d.next_event(ev).expect("completion pending");
        assert!(next > ev, "completion lies in the future");
    }

    proptest::proptest! {
        /// The one-pass pick is the two-pass FR-FCFS specification it
        /// replaced: oldest ready row hit, else oldest ready request, over
        /// arbitrary queue contents, bank states and ring alignments.
        #[test]
        fn one_pass_pick_equals_two_pass_spec(
            entries in proptest::collection::vec((0u64..12, 0usize..4, 0u64..3), 0..8),
            bank_state in proptest::collection::vec(
                (proptest::option::of(0u64..3), 0u64..12), 4..5),
            now in 0u64..12,
            rotate in 0usize..8,
        ) {
            let banks: Vec<Bank> = bank_state
                .iter()
                .map(|&(open_row, busy)| Bank {
                    open_row,
                    busy_until: Cycle::new(busy),
                    activated_at: Cycle::ZERO,
                })
                .collect();
            let mut arena = FetchArena::new();
            let mut queue: SimQueue<Pending> = SimQueue::new("prop", 8);
            let mut entry = |(ready, bank, row): (u64, usize, u64)| Pending {
                slot: arena.insert(load(0, 0)),
                ready_at: Cycle::new(ready),
                bank,
                row,
            };
            // Advance the ring head so the scan crosses the wrap point.
            for _ in 0..rotate {
                queue.push(entry((0, 0, 0))).unwrap();
                queue.pop();
            }
            for &e in &entries {
                queue.push(entry(e)).unwrap();
            }
            let now = Cycle::new(now);
            let ready = |p: &Pending| p.ready_at <= now && banks[p.bank].busy_until <= now;
            let spec = queue
                .iter()
                .position(|p| ready(p) && banks[p.bank].open_row == Some(p.row))
                .or_else(|| queue.iter().position(ready));
            let picked = fr_fcfs_pick(&queue, &banks, now);
            proptest::prop_assert_eq!(picked.ok(), spec);
            // A failed pick's bound is the first cycle the unbounded scan
            // picks anything: never later (sound), and not earlier either.
            if let Err(bound) = picked {
                proptest::prop_assert!(bound > now);
                for t in now.raw()..bound.raw().min(40) {
                    proptest::prop_assert!(fr_fcfs_pick(&queue, &banks, Cycle::new(t)).is_err());
                }
                proptest::prop_assert_eq!(bound == Cycle::NEVER, queue.is_empty());
                if bound != Cycle::NEVER {
                    proptest::prop_assert!(fr_fcfs_pick(&queue, &banks, bound).is_ok());
                }
            }
        }
    }

    /// The completion queue is a FIFO because bursts finish in the order
    /// they are scheduled: every burst ends at or after the bus frees from
    /// the previous one. Checked over a random read/write stream with row
    /// hits and conflicts, irregular gaps between ticks and a return queue
    /// that is often full.
    #[test]
    fn bursts_finish_in_schedule_order() {
        let mut cfg = GpuConfig::gtx480();
        cfg.dram.return_queue = 2;
        let stride = cfg.num_partitions as u64;
        let lines_per_row = cfg.dram.row_bytes / cfg.line_bytes;
        let banks = cfg.dram.banks as u64;
        let mut d = DramChannel::new(&cfg, 0);
        let mut rng = gpumem_types::SimRng::new(33);
        let (mut now, mut last_done, mut held) = (Cycle::ZERO, Cycle::ZERO, 0);
        let mut accepted_reads = 0;
        let mut returned = 0;
        for id in 0..20_000 {
            if id < 5_000 {
                // Two rows in each of two banks: hits, conflicts and
                // closed-bank activations all occur.
                let (row, bank) = (rng.gen_range(2), rng.gen_range(2));
                let line = stride * ((row * banks + bank) * lines_per_row + rng.gen_range(4));
                let fetch = if rng.gen_bool(0.3) {
                    store(id, line)
                } else {
                    load(id, line)
                };
                let is_load = fetch.kind.is_load();
                if d.try_push(fetch, now).is_ok() && is_load {
                    accepted_reads += 1;
                }
            } else if d.is_idle() {
                break;
            }
            let scheduled = d.stats().reads + d.stats().writes;
            d.tick(now).unwrap();
            if d.stats().reads + d.stats().writes > scheduled {
                assert!(
                    d.bus_free_at >= last_done,
                    "burst scheduled to end before the last one"
                );
                last_done = d.bus_free_at;
            }
            if d.return_queue.is_full() && d.completions.next_due().is_some_and(|at| at <= now) {
                held += 1;
            }
            if rng.gen_bool(0.3) {
                returned += usize::from(d.pop_return().is_some());
            }
            now = now + 1 + rng.gen_range(20);
        }
        assert!(d.is_idle(), "the stream drains");
        assert_eq!(returned, accepted_reads);
        let s = d.stats();
        assert!(
            s.row_hits > 0 && s.row_conflicts > 0 && s.writes > 0,
            "{s:?}"
        );
        assert!(held > 0, "no completion ever waited on a full return queue");
    }

    #[test]
    fn address_mapping_covers_all_banks() {
        let d = channel();
        let cfg = GpuConfig::gtx480();
        let stride = cfg.num_partitions as u64;
        let lines_per_row = cfg.dram.row_bytes / cfg.line_bytes;
        let mut seen = vec![false; cfg.dram.banks];
        for r in 0..cfg.dram.banks as u64 {
            let (bank, _) = d.map_address(LineAddr::new(r * lines_per_row * stride));
            seen[bank] = true;
        }
        assert!(seen.iter().all(|&b| b), "row stride must touch every bank");
    }
}
