//! A memory partition: one banked slice of the shared L2 plus its DRAM
//! channel.

use gpumem_cache::{MshrTable, ReplacementOutcome, TagArray};
use gpumem_config::GpuConfig;
use gpumem_dram::DramChannel;
use gpumem_noc::{EgressPort, IngressPort, Packet};
use gpumem_trace::{OccupancyProbe, TraceConfig};
use gpumem_types::{
    AccessKind, Cycle, CycleStamp, DueQueue, FetchArena, FetchId, LineAddr, MemFetch, PartitionId,
    QueueStats, SimError, SimQueue, SlotId,
};

/// Component label used in this partition's typed errors.
const COMPONENT: &str = "l2_partition";

/// Activity counters for one partition's L2 slice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct L2Stats {
    /// Load hits.
    pub load_hits: u64,
    /// Store hits.
    pub store_hits: u64,
    /// Misses that allocated a fresh MSHR entry (one DRAM fetch each).
    pub misses: u64,
    /// Misses merged into outstanding entries.
    pub merged_misses: u64,
    /// Dirty evictions written back to DRAM.
    pub writebacks: u64,
    /// Fills installed from DRAM.
    pub fills: u64,
    /// Head-of-queue stalls: target bank busy.
    pub stall_bank_busy: u64,
    /// Head-of-queue stalls: MSHR table full / merge exhausted.
    pub stall_mshr: u64,
    /// Head-of-queue stalls: miss queue towards DRAM full.
    pub stall_miss_queue: u64,
    /// Fill stalls: response-side resources (to-interconnect queue or
    /// writeback slot) unavailable.
    pub stall_fill: u64,
}

impl L2Stats {
    /// Accumulates another partition's counters.
    pub fn merge(&mut self, other: &L2Stats) {
        self.load_hits += other.load_hits;
        self.store_hits += other.store_hits;
        self.misses += other.misses;
        self.merged_misses += other.merged_misses;
        self.writebacks += other.writebacks;
        self.fills += other.fills;
        self.stall_bank_busy += other.stall_bank_busy;
        self.stall_mshr += other.stall_mshr;
        self.stall_miss_queue += other.stall_miss_queue;
        self.stall_fill += other.stall_fill;
    }

    /// Hit rate over demand accesses (loads + stores, merges counted as
    /// misses).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.load_hits + self.store_hits;
        let total = hits + self.misses + self.merged_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// One request waiting on an outstanding L2 miss.
///
/// The primary (the request that allocated the MSHR entry) travels
/// downstream *as* the DRAM request — only its original access kind stays
/// behind, so no body is copied. Merged requests park their bodies in the
/// partition's arena and wait as 4-byte handles.
#[derive(Debug, Clone, Copy)]
enum L2Waiter {
    /// The allocating request; its body is the in-flight DRAM fetch.
    Primary(AccessKind),
    /// A merged request parked in the arena.
    Merged(SlotId),
}

/// A request waiting in the access or response queue, with its line's
/// (bank, set) decoded when it was queued: [`MemoryPartition::map`] costs
/// three divisions, and the head of either queue is looked at every cycle
/// it waits. A line's location never changes, so there is nothing to
/// invalidate; the price is 16 bytes per queue slot (`MemFetch` 120 B →
/// `Located` 136 B), i.e. `16 × (l2.access_queue + l2.response_queue)` =
/// 256 B per partition at the baseline's 8 + 8 entries (1 KiB at the 4×
/// design points).
#[derive(Debug)]
struct Located {
    fetch: MemFetch,
    bank: usize,
    set: usize,
}

/// Trace state owned by one partition: occupancy probes for its two
/// headline queues (the write-path latency histograms live in the embedded
/// [`DramChannel`]). Lives behind an `Option<Box<_>>` so an untraced run
/// pays one never-taken branch per hook.
#[derive(Debug, Clone)]
pub struct PartitionTrace {
    /// L2 access-queue depth series (the paper's 46% queue).
    pub l2_access: OccupancyProbe,
    /// DRAM read-scheduler queue depth series (the paper's 39% queue).
    pub dram_sched: OccupancyProbe,
}

/// One memory partition: banked L2 slice, its queues, the data port to the
/// response crossbar, and the DRAM channel behind it.
///
/// All four Table I (b) queues live here (access, miss, response, plus the
/// MSHR table); the Table I (a) structures live in the embedded
/// [`DramChannel`]. The Section III congestion metric *"L2 access queues
/// are full for 46% of their usage lifetime"* reads
/// [`access_queue_stats`](MemoryPartition::access_queue_stats).
pub struct MemoryPartition {
    id: PartitionId,
    line_bytes: u64,
    num_partitions: u64,
    banks: usize,
    sets_per_bank: usize,
    bank_latency: u64,
    port_cycles: u64,
    flit_bytes: u64,
    tags: Vec<TagArray>,
    bank_next_accept: Vec<Cycle>,
    /// Load hits traversing the bank pipeline, due at their bank latency.
    completions: DueQueue<SlotId>,
    access_queue: SimQueue<Located>,
    mshr: MshrTable<L2Waiter>,
    /// Parked bodies of merged misses (primaries travel to DRAM) and of
    /// load hits in the bank pipeline.
    arena: FetchArena,
    /// Misses traversing the bank pipeline (tag access + request
    /// generation) before becoming eligible for the miss queue.
    miss_pipeline: std::collections::VecDeque<(Cycle, MemFetch)>,
    miss_queue: SimQueue<MemFetch>,
    /// Dirty evictions awaiting the DRAM write queue (kept separate from
    /// the read miss queue so a clogged read path can never deadlock the
    /// fill pipeline).
    wb_queue: SimQueue<MemFetch>,
    response_queue: SimQueue<Located>,
    to_icnt: SimQueue<MemFetch>,
    port_free_at: Cycle,
    dram: DramChannel,
    next_wb_seq: u64,
    stats: L2Stats,
    /// Fault injection: the MSHR miss path stalls (as if the table were
    /// full) before this cycle. `Cycle::ZERO` = inert.
    chaos_mshr_until: Cycle,
    /// Fault injection: no request is forwarded to the DRAM channel before
    /// this cycle. `Cycle::ZERO` = inert.
    chaos_dram_until: Cycle,
    trace: Option<Box<PartitionTrace>>,
    /// Host-time attribution: accumulate the wall time spent inside the
    /// DRAM channel (tick + return drain) when profiling is enabled.
    /// Never read by the timing model, so it cannot affect results.
    host_profile: bool,
    host_dram_seconds: f64,
}

impl std::fmt::Debug for MemoryPartition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryPartition")
            .field("id", &self.id)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl MemoryPartition {
    /// Builds partition `id` of the configured GPU.
    ///
    /// # Panics
    ///
    /// Panics if `l2.sets_per_partition` is not divisible by
    /// `l2.banks_per_partition`.
    pub fn new(id: PartitionId, cfg: &GpuConfig) -> Self {
        let banks = cfg.l2.banks_per_partition;
        assert!(
            cfg.l2.sets_per_partition.is_multiple_of(banks),
            "L2 sets per partition must divide evenly across banks"
        );
        let sets_per_bank = cfg.l2.sets_per_partition / banks;
        MemoryPartition {
            id,
            line_bytes: cfg.line_bytes,
            num_partitions: cfg.num_partitions as u64,
            banks,
            sets_per_bank,
            bank_latency: cfg.l2.bank_latency,
            port_cycles: cfg.l2_port_cycles(),
            flit_bytes: cfg.noc.flit_bytes,
            tags: (0..banks)
                .map(|_| TagArray::new(sets_per_bank, cfg.l2.assoc))
                .collect(),
            bank_next_accept: vec![Cycle::ZERO; banks],
            completions: DueQueue::new(),
            access_queue: SimQueue::new("l2_access", cfg.l2.access_queue),
            mshr: MshrTable::new(cfg.l2.mshr_entries, cfg.l2.mshr_merge),
            arena: FetchArena::with_capacity(cfg.l2.mshr_entries * cfg.l2.mshr_merge),
            miss_pipeline: std::collections::VecDeque::new(),
            miss_queue: SimQueue::new("l2_miss", cfg.l2.miss_queue),
            wb_queue: SimQueue::new("l2_writeback", cfg.l2.miss_queue),
            response_queue: SimQueue::new("l2_response", cfg.l2.response_queue),
            to_icnt: SimQueue::new("l2_to_icnt", cfg.l2.access_queue),
            port_free_at: Cycle::ZERO,
            dram: DramChannel::new(cfg, id.index()),
            next_wb_seq: 0,
            stats: L2Stats::default(),
            chaos_mshr_until: Cycle::ZERO,
            chaos_dram_until: Cycle::ZERO,
            trace: None,
            host_profile: false,
            host_dram_seconds: 0.0,
        }
    }

    /// Starts attributing host wall time spent in the DRAM channel to the
    /// partition's DRAM host-time counter, which `run_profiled` reads.
    /// Timing-model-invisible; enable before running.
    pub fn enable_host_profile(&mut self) {
        self.host_profile = true;
    }

    /// Host seconds spent inside the DRAM channel since profiling was
    /// enabled.
    pub(crate) fn host_dram_seconds(&self) -> f64 {
        self.host_dram_seconds
    }

    /// Turns on fetch-lifecycle tracing for this partition and its DRAM
    /// channel. Idempotent; enable before running.
    pub fn enable_trace(&mut self, cfg: &TraceConfig) {
        self.dram.enable_trace();
        if self.trace.is_none() {
            self.trace = Some(Box::new(PartitionTrace {
                l2_access: OccupancyProbe::new(cfg),
                dram_sched: OccupancyProbe::new(cfg),
            }));
        }
    }

    /// The partition's trace state, if tracing was enabled.
    pub fn trace(&self) -> Option<&PartitionTrace> {
        self.trace.as_deref()
    }

    /// This partition's id.
    pub fn id(&self) -> PartitionId {
        self.id
    }

    /// (bank, set) decoding of a line address within this partition.
    fn map(&self, line: LineAddr) -> (usize, usize) {
        let local = line.index() / self.num_partitions;
        let bank = (local % self.banks as u64) as usize;
        let set = ((local / self.banks as u64) % self.sets_per_bank as u64) as usize;
        (bank, set)
    }

    fn locate(&self, fetch: MemFetch) -> Located {
        let (bank, set) = self.map(fetch.line);
        Located { fetch, bank, set }
    }

    /// Advances the partition one cycle. Pulls requests from its ejection
    /// port on the request crossbar (`req_ej`), pushes responses into its
    /// input port on the response crossbar (`resp_in`).
    ///
    /// It takes the two ports rather than whole crossbars because these
    /// are the only pieces of interconnect state it touches, and both are
    /// exclusively its own.
    ///
    /// # Errors
    ///
    /// Returns a typed [`SimError`] when an internal invariant is violated
    /// (queue overflow after a fullness check, MSHR bookkeeping leak, port
    /// protocol violation) — never on ordinary congestion.
    pub fn cycle(
        &mut self,
        now: Cycle,
        req_ej: &mut EgressPort,
        resp_in: &mut IngressPort,
    ) -> Result<(), SimError> {
        // Occupancy sampling happens at pre-step state on a pure-function-
        // of-cycle cadence, so every engine (and the fast-forward backfill)
        // observes identical depths.
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.l2_access.sample(now, self.access_queue.len() as u64);
            tr.dram_sched.sample(now, self.dram.read_queue_len() as u64);
        }
        self.intake(now, req_ej)?;
        if self.host_profile {
            let sw = gpumem_types::host_wall_clock();
            self.dram.tick(now)?;
            self.drain_dram_returns(now)?;
            self.host_dram_seconds += sw.elapsed_seconds();
        } else {
            self.dram.tick(now)?;
            self.drain_dram_returns(now)?;
        }
        self.process_fill(now)?;
        self.land_bank_completions(now)?;
        self.serve_access_queue(now)?;
        self.drain_miss_pipeline(now)?;
        self.forward_misses_to_dram(now)?;
        self.inject_responses(now, resp_in)
    }

    fn overflow(queue: &'static str, now: Cycle) -> SimError {
        SimError::QueueOverflow {
            component: COMPONENT,
            queue,
            cycle: now.raw(),
        }
    }

    /// Moves one request per cycle from the crossbar ejection queue into
    /// the L2 access queue (stamping its arrival).
    fn intake(&mut self, now: Cycle, req_ej: &mut EgressPort) -> Result<(), SimError> {
        if self.access_queue.is_full() {
            return Ok(()); // ejection queue backs up → crossbar credits stall
        }
        if let Some(mut pkt) = req_ej.pop_ejected() {
            pkt.fetch.timeline.l2_arrive = CycleStamp::at(now);
            if self.access_queue.push(self.locate(pkt.fetch)).is_err() {
                return Err(Self::overflow("l2_access", now));
            }
        }
        Ok(())
    }

    fn drain_dram_returns(&mut self, now: Cycle) -> Result<(), SimError> {
        while !self.response_queue.is_full() {
            match self.dram.pop_return() {
                Some(f) => {
                    if self.response_queue.push(self.locate(f)).is_err() {
                        return Err(Self::overflow("l2_response", now));
                    }
                }
                None => break,
            }
        }
        Ok(())
    }

    /// Installs one DRAM fill per cycle: allocates the line, emits a
    /// writeback for a dirty victim, and releases every merged waiter.
    fn process_fill(&mut self, now: Cycle) -> Result<(), SimError> {
        let Some(head) = self.response_queue.front() else {
            return Ok(());
        };
        let (line, bank, set) = (head.fetch.line, head.bank, head.set);
        // Resources needed in the worst case: one writeback slot, and a
        // to_icnt slot per load waiter.
        if self.wb_queue.is_full() {
            self.stats.stall_fill += 1;
            return Ok(());
        }
        let load_waiters = self
            .mshr
            .waiters_of(line)
            .map(|ws| {
                ws.iter()
                    .filter(|w| match w {
                        L2Waiter::Primary(kind) => kind.is_load(),
                        L2Waiter::Merged(slot) => self.arena.get(*slot).kind.is_load(),
                    })
                    .count()
            })
            .unwrap_or(0);
        if self.to_icnt.free() < load_waiters {
            self.stats.stall_fill += 1;
            return Ok(());
        }

        let Some(Located { fetch: fill, .. }) = self.response_queue.pop() else {
            return Ok(());
        };
        self.stats.fills += 1;
        match self.tags[bank].fill(set, line, now) {
            ReplacementOutcome::Evicted(e) if e.dirty => {
                // Writeback ids: top bit set, partition in bits 40..63.
                let wb_id =
                    FetchId::new((1 << 63) | ((self.id.index() as u64) << 40) | self.next_wb_seq);
                self.next_wb_seq += 1;
                let wb = MemFetch::new_writeback(wb_id, e.line, self.id);
                self.stats.writebacks += 1;
                if self.wb_queue.push(wb).is_err() {
                    return Err(Self::overflow("l2_writeback", now));
                }
            }
            _ => {}
        }

        // The fill *is* the primary waiter's body (it travelled to DRAM
        // and back); merged waiters come out of the arena. Waiter order —
        // primary first, then merges in arrival order — matches the old
        // clone-based path exactly.
        let dram_arrive = fill.timeline.dram_arrive;
        let dram_issue = fill.timeline.dram_issue;
        let dram_data = fill.timeline.dram_data;
        let mut primary = Some(fill);
        for &w in self.mshr.complete(line) {
            match w {
                L2Waiter::Primary(kind) => {
                    let Some(body) = primary.take() else {
                        return Err(SimError::MshrLeak {
                            component: COMPONENT,
                            cycle: now.raw(),
                            detail: format!("two primary waiters on MSHR entry for {line:?}"),
                        });
                    };
                    match kind {
                        // A load primary's response is the fill itself:
                        // same id/kind/timeline as the request that
                        // allocated the entry, dram_arrive already stamped.
                        AccessKind::Load => {
                            if self.to_icnt.push(body).is_err() {
                                return Err(Self::overflow("l2_to_icnt", now));
                            }
                        }
                        // A store primary fetched the line write-allocate
                        // style; it only dirties the installed line.
                        AccessKind::Store => {
                            self.tags[bank].mark_dirty(set, line);
                        }
                    }
                }
                L2Waiter::Merged(slot) => {
                    let mut f = self.arena.take(slot);
                    match f.kind {
                        AccessKind::Load => {
                            // The primary carried the line through DRAM; its
                            // stamps apply to this waiter only if it merged
                            // before the line reached the channel. A later
                            // merger keeps its whole wait in the L2 stages,
                            // so every timeline stays monotone.
                            let merged_before_dram =
                                match (dram_arrive.get(), f.timeline.l2_serve.get()) {
                                    (Some(arr), Some(serve)) => serve <= arr,
                                    _ => false,
                                };
                            if merged_before_dram {
                                f.timeline.dram_arrive = dram_arrive;
                                f.timeline.dram_issue = dram_issue;
                                f.timeline.dram_data = dram_data;
                            }
                            if self.to_icnt.push(f).is_err() {
                                return Err(Self::overflow("l2_to_icnt", now));
                            }
                        }
                        AccessKind::Store => {
                            self.tags[bank].mark_dirty(set, line);
                        }
                    }
                }
            }
        }
        // Every MSHR entry holds exactly one primary; a fill that consumed
        // no primary means the entry was missing or malformed — a leak that
        // must fail loudly, not drop the line on the floor.
        if primary.is_some() {
            return Err(SimError::MshrLeak {
                component: COMPONENT,
                cycle: now.raw(),
                detail: format!("fill for {line:?} found no primary waiter (stray fill)"),
            });
        }
        Ok(())
    }

    /// Lands finished bank accesses (load hits) into the response path.
    fn land_bank_completions(&mut self, now: Cycle) -> Result<(), SimError> {
        while self.completions.next_due().is_some_and(|at| at <= now) {
            if self.to_icnt.is_full() {
                self.stats.stall_fill += 1;
                break;
            }
            let Some((_, slot)) = self.completions.pop_due(now) else {
                break;
            };
            if self.to_icnt.push(self.arena.take(slot)).is_err() {
                return Err(Self::overflow("l2_to_icnt", now));
            }
        }
        Ok(())
    }

    /// Serves the head of the access queue (one access per cycle).
    fn serve_access_queue(&mut self, now: Cycle) -> Result<(), SimError> {
        let Some(head) = self.access_queue.front() else {
            return Ok(());
        };
        let (line, kind) = (head.fetch.line, head.fetch.kind);
        let (bank, set) = (head.bank, head.set);

        if self.bank_next_accept[bank] > now {
            self.stats.stall_bank_busy += 1;
            return Ok(());
        }

        // A load hit needs somewhere to put its response. If the path to
        // the interconnect is clogged (and the bank pipeline already holds
        // a backlog), stall the access queue instead of buffering
        // unboundedly — this is how response-side congestion propagates
        // back into the L2 access queue (the paper's 46% metric).
        if kind == AccessKind::Load
            && self.to_icnt.is_full()
            && self.completions.len() >= self.banks
            && self.tags[bank].probe(set, line).is_some()
        {
            self.stats.stall_fill += 1;
            return Ok(());
        }

        let resident = self.tags[bank].access(set, line, now);
        if resident {
            let Some(Located { mut fetch, .. }) = self.access_queue.pop() else {
                return Ok(());
            };
            fetch.timeline.l2_serve = CycleStamp::at(now);
            match kind {
                AccessKind::Load => {
                    self.stats.load_hits += 1;
                    self.bank_next_accept[bank] = now + self.port_cycles;
                    self.completions
                        .push(now + self.bank_latency, self.arena.insert(fetch));
                }
                AccessKind::Store => {
                    self.stats.store_hits += 1;
                    self.tags[bank].mark_dirty(set, line);
                    self.bank_next_accept[bank] = now + self.port_cycles;
                }
            }
            return Ok(());
        }

        // Fault injection: a transient MSHR stall behaves exactly like a
        // full table (inert while `chaos_mshr_until` is ZERO).
        if now < self.chaos_mshr_until {
            self.stats.stall_mshr += 1;
            return Ok(());
        }

        // Miss path: merge if outstanding, else allocate + fetch from DRAM.
        if self.mshr.contains(line) {
            if !self.mshr.can_accept(line) {
                self.stats.stall_mshr += 1;
                return Ok(());
            }
            let Some(Located { mut fetch, .. }) = self.access_queue.pop() else {
                return Ok(());
            };
            fetch.timeline.l2_serve = CycleStamp::at(now);
            let slot = self.arena.insert(fetch);
            if self.mshr.allocate(line, L2Waiter::Merged(slot)).is_err() {
                return Err(SimError::MshrLeak {
                    component: COMPONENT,
                    cycle: now.raw(),
                    detail: format!("merge for {line:?} rejected after capacity check"),
                });
            }
            self.stats.merged_misses += 1;
            self.bank_next_accept[bank] = now.next();
            return Ok(());
        }
        if !self.mshr.can_accept(line) {
            self.stats.stall_mshr += 1;
            return Ok(());
        }
        let Some(Located {
            fetch: mut dram_req,
            ..
        }) = self.access_queue.pop()
        else {
            return Ok(());
        };
        dram_req.timeline.l2_serve = CycleStamp::at(now);
        // The downstream request always *reads* the line (write-allocate:
        // a store miss fetches the line, then the waiter dirties it). The
        // allocating request itself becomes the DRAM fetch — only its
        // original kind stays behind in the MSHR entry. The request first
        // traverses the bank pipeline (tag access + request generation)
        // before becoming eligible for the miss queue.
        if self
            .mshr
            .allocate(line, L2Waiter::Primary(dram_req.kind))
            .is_err()
        {
            return Err(SimError::MshrLeak {
                component: COMPONENT,
                cycle: now.raw(),
                detail: format!("allocation for {line:?} rejected after capacity check"),
            });
        }
        dram_req.kind = AccessKind::Load;
        self.stats.misses += 1;
        self.miss_pipeline
            .push_back((now + self.bank_latency, dram_req));
        self.bank_next_accept[bank] = now.next();
        Ok(())
    }

    /// Moves misses whose bank-pipeline delay elapsed into the bounded
    /// miss queue (in order; the head blocks on a full queue).
    fn drain_miss_pipeline(&mut self, now: Cycle) -> Result<(), SimError> {
        while let Some((ready, _)) = self.miss_pipeline.front() {
            if *ready > now {
                break;
            }
            if self.miss_queue.is_full() {
                self.stats.stall_miss_queue += 1;
                break;
            }
            let Some((_, fetch)) = self.miss_pipeline.pop_front() else {
                break;
            };
            if self.miss_queue.push(fetch).is_err() {
                return Err(Self::overflow("l2_miss", now));
            }
        }
        Ok(())
    }

    fn forward_misses_to_dram(&mut self, now: Cycle) -> Result<(), SimError> {
        // Fault injection: DRAM lockout — the channel stops accepting new
        // requests (in-service ones still complete). Inert while
        // `chaos_dram_until` is ZERO.
        if now < self.chaos_dram_until {
            return Ok(());
        }
        if self.miss_queue.front().is_some() && self.dram.can_accept(AccessKind::Load) {
            if let Some(fetch) = self.miss_queue.pop() {
                if self.dram.try_push(fetch, now).is_err() {
                    return Err(Self::overflow("dram_sched", now));
                }
            }
        }
        if self.wb_queue.front().is_some() && self.dram.can_accept(AccessKind::Store) {
            if let Some(wb) = self.wb_queue.pop() {
                if self.dram.try_push(wb, now).is_err() {
                    return Err(Self::overflow("dram_write", now));
                }
            }
        }
        Ok(())
    }

    /// Streams one response through the data port into this partition's
    /// input port on the response crossbar.
    fn inject_responses(&mut self, now: Cycle, resp_in: &mut IngressPort) -> Result<(), SimError> {
        if self.port_free_at > now {
            return Ok(());
        }
        let Some(head) = self.to_icnt.front() else {
            return Ok(());
        };
        if !resp_in.can_inject() {
            return Ok(());
        }
        let Some(bytes) = head.response_bytes(self.line_bytes) else {
            return Err(SimError::PortProtocol {
                component: COMPONENT,
                cycle: now.raw(),
                detail: format!(
                    "non-load fetch {:?} reached the response port (only loads may enter l2_to_icnt)",
                    head.id
                ),
            });
        };
        let Some(mut fetch) = self.to_icnt.pop() else {
            return Ok(());
        };
        fetch.timeline.resp_inject = CycleStamp::at(now);
        let dest = fetch.core.index();
        let packet = Packet::new(fetch, dest, bytes, self.flit_bytes);
        if resp_in.try_inject(packet).is_err() {
            return Err(SimError::PortProtocol {
                component: COMPONENT,
                cycle: now.raw(),
                detail: "response crossbar rejected an injection after can_inject".to_owned(),
            });
        }
        self.port_free_at = now + self.port_cycles;
        Ok(())
    }

    /// Per-cycle statistics bookkeeping.
    pub fn observe(&mut self) {
        self.access_queue.observe();
        self.miss_queue.observe();
        self.wb_queue.observe();
        self.response_queue.observe();
        self.to_icnt.observe();
        self.dram.observe();
    }

    /// The earliest cycle at or after `now` at which this partition can do
    /// anything other than repeat a head-of-queue bank-busy stall, or
    /// `None` when it is completely idle.
    ///
    /// Every path through [`cycle`](MemoryPartition::cycle) that moves a
    /// request or bumps a stall counter other than
    /// [`L2Stats::stall_bank_busy`] forces a return of `now`; the only
    /// deferred candidates are timer expiries (bank completions, the bank
    /// pipeline, the response port, DRAM timing) plus the bank-busy window
    /// of the access-queue head, whose per-cycle stall accounting
    /// [`fast_forward`](MemoryPartition::fast_forward) replays in closed
    /// form.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // A non-empty response, miss or writeback queue can interact with
        // fill installs or the DRAM queues this very cycle.
        if !self.response_queue.is_empty()
            || !self.miss_queue.is_empty()
            || !self.wb_queue.is_empty()
        {
            return Some(now);
        }
        let mut earliest: Option<Cycle> = None;
        let fold = |t: Cycle, earliest: &mut Option<Cycle>| {
            *earliest = Some(match *earliest {
                Some(e) if e <= t => e,
                _ => t,
            });
        };
        if let Some(done_at) = self.completions.next_due() {
            if done_at <= now {
                return Some(now);
            }
            fold(done_at, &mut earliest);
        }
        if let Some(head) = self.access_queue.front() {
            let free_at = self.bank_next_accept[head.bank];
            if free_at <= now {
                return Some(now);
            }
            fold(free_at, &mut earliest);
        }
        if let Some((ready, _)) = self.miss_pipeline.front() {
            if *ready <= now {
                return Some(now);
            }
            fold(*ready, &mut earliest);
        }
        if !self.to_icnt.is_empty() {
            if self.port_free_at <= now {
                return Some(now);
            }
            fold(self.port_free_at, &mut earliest);
        }
        match self.dram.next_event(now) {
            Some(t) if t <= now => return Some(now),
            Some(t) => fold(t, &mut earliest),
            None => {}
        }
        earliest
    }

    /// Replays `cycles` consecutive cycles proven inactive via
    /// [`next_event`](MemoryPartition::next_event): advances queue and
    /// DRAM occupancy statistics, and accounts the per-cycle bank-busy
    /// stall of a waiting access-queue head.
    pub fn fast_forward(&mut self, now: Cycle, cycles: u64) {
        if cycles == 0 {
            return;
        }
        if let Some(head) = self.access_queue.front() {
            debug_assert!(
                self.bank_next_accept[head.bank] > now,
                "skipped window must start inside a bank-busy stall"
            );
            self.stats.stall_bank_busy += cycles;
        }
        self.access_queue.observe_many(cycles);
        self.miss_queue.observe_many(cycles);
        self.wb_queue.observe_many(cycles);
        self.response_queue.observe_many(cycles);
        self.to_icnt.observe_many(cycles);
        self.dram.observe_many(cycles);
        // Queue depths are provably frozen over the skipped window, so the
        // probes backfill the cadence points with the current depths.
        if let Some(tr) = self.trace.as_deref_mut() {
            let access_depth = self.access_queue.len() as u64;
            let dram_depth = self.dram.read_queue_len() as u64;
            tr.l2_access.backfill(now, cycles, access_depth);
            tr.dram_sched.backfill(now, cycles, dram_depth);
        }
    }

    /// True when no request is anywhere inside the partition or its DRAM.
    pub fn is_idle(&self) -> bool {
        self.access_queue.is_empty()
            && self.miss_pipeline.is_empty()
            && self.miss_queue.is_empty()
            && self.wb_queue.is_empty()
            && self.response_queue.is_empty()
            && self.to_icnt.is_empty()
            && self.completions.is_empty()
            && self.mshr.is_empty()
            && self.dram.is_idle()
    }

    /// L2 slice counters.
    pub fn stats(&self) -> &L2Stats {
        &self.stats
    }

    /// Occupancy of the L2 access queue (Section III's 46% metric).
    pub fn access_queue_stats(&self) -> QueueStats {
        self.access_queue.stats()
    }

    /// Occupancy of the L2 miss queue.
    pub fn miss_queue_stats(&self) -> QueueStats {
        self.miss_queue.stats()
    }

    /// Occupancy of the L2 response queue.
    pub(crate) fn response_queue_stats(&self) -> QueueStats {
        self.response_queue.stats()
    }

    /// Occupancy of the response path towards the interconnect.
    pub(crate) fn to_icnt_queue_stats(&self) -> QueueStats {
        self.to_icnt.stats()
    }

    /// Fetch bodies parked in the L2 arena (merged misses and load hits
    /// in the bank pipeline); zero once the partition has drained. The
    /// DRAM channel's own arena is [`DramChannel::arena_slots`].
    pub(crate) fn arena_slots(&self) -> usize {
        self.arena.len()
    }

    /// The DRAM channel behind this partition.
    pub fn dram(&self) -> &DramChannel {
        &self.dram
    }

    /// Fault injection: stall the MSHR miss path (as if the table were
    /// full) until `until`.
    pub(crate) fn chaos_stall_mshr(&mut self, until: Cycle) {
        self.chaos_mshr_until = until;
    }

    /// Fault injection: lock the DRAM channel intake (in-service requests
    /// still complete) until `until`.
    pub(crate) fn chaos_lock_dram(&mut self, until: Cycle) {
        self.chaos_dram_until = until;
    }

    /// Pipeline-ordered occupancy of every stage in this partition, for
    /// liveness reporting and wedge diagnosis. Stages with zero pending
    /// work are included so the breakdown has a stable shape.
    pub(crate) fn pending_breakdown(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("l2_access", self.access_queue.len() as u64),
            (
                "l2_bank_pipeline",
                (self.miss_pipeline.len() + self.completions.len()) as u64,
            ),
            ("l2_mshr", self.mshr.len() as u64),
            ("l2_miss", self.miss_queue.len() as u64),
            ("l2_writeback", self.wb_queue.len() as u64),
            ("dram", self.dram.in_flight() as u64),
            ("l2_response", self.response_queue.len() as u64),
            ("l2_to_icnt", self.to_icnt.len() as u64),
        ]
    }

    /// Total physical fetches resident in this partition (MSHR waiter
    /// handles are excluded — their bodies are counted where they sit).
    pub(crate) fn pending_requests(&self) -> u64 {
        (self.access_queue.len()
            + self.miss_pipeline.len()
            + self.miss_queue.len()
            + self.wb_queue.len()
            + self.response_queue.len()
            + self.to_icnt.len()
            + self.completions.len()
            + self.dram.in_flight()) as u64
    }

    /// Pipeline-ordered names of the stages currently unable to accept
    /// work — the raw material for a wedge diagnosis blocked chain.
    pub(crate) fn blocked_stages(&self, now: Cycle) -> Vec<&'static str> {
        let mut blocked = Vec::new();
        if self.access_queue.is_full() {
            blocked.push("l2_access(full)");
        }
        if self.mshr.len() >= self.mshr.capacity() {
            blocked.push("l2_mshr(full)");
        }
        if now < self.chaos_mshr_until {
            blocked.push("l2_mshr(chaos-stalled)");
        }
        if self.miss_queue.is_full() {
            blocked.push("l2_miss(full)");
        }
        if self.wb_queue.is_full() {
            blocked.push("l2_writeback(full)");
        }
        if now < self.chaos_dram_until {
            blocked.push("dram(locked)");
        }
        if !self.dram.can_accept(AccessKind::Load) {
            blocked.push("dram_sched(full)");
        }
        if self.response_queue.is_full() {
            blocked.push("l2_response(full)");
        }
        if self.to_icnt.is_full() {
            blocked.push("l2_to_icnt(full)");
        }
        blocked
    }

    /// Every fetch physically resident in this partition, for oldest-fetch
    /// wedge diagnosis. Merged-miss bodies parked in the arena are
    /// intentionally skipped: their primary travels through DRAM and is
    /// surveyed there.
    pub fn fetches(&self) -> impl Iterator<Item = &MemFetch> {
        self.access_queue
            .iter()
            .map(|q| &q.fetch)
            .chain(self.miss_pipeline.iter().map(|(_, f)| f))
            .chain(self.miss_queue.iter())
            .chain(self.wb_queue.iter())
            .chain(self.response_queue.iter().map(|q| &q.fetch))
            .chain(self.to_icnt.iter())
            .chain(self.completions.iter().map(|&slot| &self.arena[slot]))
            .chain(self.dram.fetches())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gpumem_simt::{KernelProgram, WarpInstr};
    use gpumem_types::CtaId;

    use super::*;
    use crate::gpu::Backend;
    use crate::{GpuSimulator, MemoryMode};

    /// One warp, one load.
    struct OneLoad;
    impl KernelProgram for OneLoad {
        fn name(&self) -> &str {
            "one-load"
        }
        fn grid_ctas(&self) -> u32 {
            1
        }
        fn warps_per_cta(&self) -> u32 {
            1
        }
        fn instr(&self, _cta: CtaId, _warp: u32, pc: u32) -> Option<WarpInstr> {
            (pc == 0).then(|| WarpInstr::load_line(LineAddr::new(7), 1))
        }
    }

    #[test]
    fn orphaned_slot_in_a_finished_run_is_a_named_leak() {
        let mut sim =
            GpuSimulator::new(GpuConfig::tiny(), Arc::new(OneLoad), MemoryMode::Hierarchy);
        sim.run(100_000).expect("a clean run conserves");
        assert!(sim.is_done());
        // A writeback body parked and never taken: nothing waits on it, so
        // completion is not blocked and only the slot count betrays it.
        let Backend::Hierarchy { partitions, .. } = &mut sim.backend else {
            unreachable!("built in hierarchy mode")
        };
        let orphan =
            MemFetch::new_writeback(FetchId::new(0), LineAddr::new(7), PartitionId::new(0));
        let _slot = partitions[0].arena.insert(orphan);
        match sim.check_conservation() {
            Err(SimError::MshrLeak {
                component, detail, ..
            }) => {
                assert_eq!(component, "l2_partition");
                assert!(detail.contains("partition 0 holds 1 slot"), "{detail}");
            }
            other => panic!("expected a named MshrLeak, got {other:?}"),
        }
    }
}
