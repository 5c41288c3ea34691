//! The SIMT core (streaming multiprocessor) timing model.

use std::collections::VecDeque;
use std::sync::Arc;

use gpumem_cache::{L1Dcache, L1Stats};
use gpumem_config::{GpuConfig, MAX_MASK_WIDTH};
use gpumem_trace::{OccupancyProbe, TraceCollector, TraceConfig};
use gpumem_types::{
    AccessKind, CoreId, CtaId, Cycle, CycleStamp, FetchId, LatencyStats, MemFetch, QueueStats,
    SimQueue,
};

use crate::warp::WarpSlot;
use crate::{KernelProgram, WarpInstr};

/// Why a core issued nothing in a cycle (one reason recorded per stalled
/// cycle, in the priority order the paper's analysis uses: memory first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// At least one warp was blocked waiting for a load value — the
    /// paper's critical-path exposure ①.
    Memory,
    /// The LSU memory pipeline was occupied, blocking a memory instruction.
    MemPipeline,
    /// Warps were only waiting at a barrier.
    Barrier,
    /// Warps were only waiting out ALU latencies.
    Compute,
    /// No instruction was available (empty slots / all retired).
    Idle,
}

/// Aggregate counters for one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CoreStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Warp instructions issued (the IPC numerator).
    pub instructions: u64,
    /// ALU instructions issued.
    pub alu_instrs: u64,
    /// Shared-memory instructions issued.
    pub shared_instrs: u64,
    /// Load instructions issued.
    pub load_instrs: u64,
    /// Store instructions issued.
    pub store_instrs: u64,
    /// Barriers executed.
    pub barriers: u64,
    /// Coalesced global accesses generated (loads + stores).
    pub global_accesses: u64,
    /// Stalled cycles blamed on memory (operand not returned).
    pub stall_memory: u64,
    /// Stalled cycles blamed on a busy LSU pipeline.
    pub stall_mem_pipeline: u64,
    /// Stalled cycles blamed on barriers.
    pub stall_barrier: u64,
    /// Stalled cycles blamed on ALU latency.
    pub stall_compute: u64,
    /// Cycles with no work resident.
    pub idle_cycles: u64,
    /// CTAs retired.
    pub ctas_retired: u64,
}

impl CoreStats {
    /// Accumulates another core's counters (for per-GPU aggregation).
    pub fn merge(&mut self, other: &CoreStats) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.alu_instrs += other.alu_instrs;
        self.shared_instrs += other.shared_instrs;
        self.load_instrs += other.load_instrs;
        self.store_instrs += other.store_instrs;
        self.barriers += other.barriers;
        self.global_accesses += other.global_accesses;
        self.stall_memory += other.stall_memory;
        self.stall_mem_pipeline += other.stall_mem_pipeline;
        self.stall_barrier += other.stall_barrier;
        self.stall_compute += other.stall_compute;
        self.idle_cycles += other.idle_cycles;
        self.ctas_retired += other.ctas_retired;
    }

    /// Warp-instruction IPC.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

#[derive(Debug)]
struct CtaState {
    live_warps: u32,
    barrier_arrived: u32,
    warp_slots: Vec<usize>,
}

/// Trace state owned by one core: the stage-histogram collector fed at the
/// two completion points (response acceptance and ready-hit pop) plus the
/// core's queue-occupancy probes. Lives behind an `Option<Box<_>>` so an
/// untraced run pays one never-taken branch per hook.
#[derive(Debug, Clone)]
pub struct CoreTrace {
    /// Per-stage latency histograms and slowest-fetch capture.
    pub collector: TraceCollector,
    /// LSU pipeline depth series.
    pub lsu: OccupancyProbe,
    /// L1 miss-queue depth series.
    pub l1_miss: OccupancyProbe,
}

/// One streaming multiprocessor.
///
/// Driven by the full-system simulator (or a test harness) with, per cycle:
///
/// 1. [`accept_response`](SimtCore::accept_response) for every response
///    arriving from the interconnect;
/// 2. [`cycle`](SimtCore::cycle) — wakes completed hits, feeds the L1 from
///    the LSU pipeline, and issues new warp instructions (GTO scheduling);
/// 3. draining [`pop_memory_request`](SimtCore::pop_memory_request) into
///    the interconnect while it accepts packets;
/// 4. [`observe`](SimtCore::observe) for queue statistics.
pub struct SimtCore {
    id: CoreId,
    program: Arc<dyn KernelProgram>,
    /// `program.warps_per_cta()`, read once: CTA admission is asked every
    /// cycle while CTAs remain.
    warps_per_cta: usize,
    warps: Vec<WarpSlot>,
    /// Per-slot earliest issue cycle (the in-order dependent-chain
    /// approximation), dense so the issue scan touches one cache line
    /// instead of every `WarpSlot`.
    ready_at: Vec<Cycle>,
    /// Scheduling state of `warps` as one bit per slot, so the per-cycle
    /// issue scan and stall classification read four words instead of
    /// walking the slots. Refreshed for slot `w` only by
    /// [`sync_warp`](SimtCore::sync_warp), which every mutation of
    /// `warps[w]` is followed by.
    masks: WarpMasks,
    ctas: Vec<Option<CtaState>>,
    free_warps: usize,
    free_cta_slots: usize,
    issue_width: usize,
    l1: L1Dcache,
    lsu_queue: SimQueue<MemFetch>,
    /// The access stalled at the L1 port; the L1 decides it in place.
    l1_retry: Option<MemFetch>,
    /// The issue register: coalesced accesses of the memory instruction in
    /// flight, draining one per cycle into the LSU pipeline. Non-empty
    /// means the memory pipeline is busy.
    issue_reg: VecDeque<MemFetch>,
    /// Reused buffer for the loads one L1 fill completes.
    fill_done: Vec<MemFetch>,
    /// Assigned warp slots in age order (GTO's "oldest" order).
    issue_order: Vec<usize>,
    last_issued: Option<usize>,
    next_fetch_seq: u64,
    age_counter: u64,
    /// Lower bound on the earliest cycle at which any warp could pass the
    /// issue pre-check ([`passes_precheck`](SimtCore::passes_precheck)).
    /// While `now < ready_lb` the whole GTO scan is provably fruitless and
    /// [`cycle`](SimtCore::cycle) skips it.
    ///
    /// *Proved by:* a scan that issued nothing, after which
    /// [`issue_bound`](SimtCore::issue_bound) is the minimum `ready_at`
    /// over the warps only time holds back. Warps blocked on memory, at a
    /// barrier, unassigned, or parked on a decoded load/store behind a
    /// busy issue register need an event first.
    ///
    /// *Lowered by* every such event, and by nothing else: CTA assignment
    /// and barrier release (to zero), a load completion that makes its
    /// warp eligible (to that warp's `ready_at`), and the issue register
    /// draining empty, which un-parks the decoded memory instructions (to
    /// zero). A scan that issues leaves the bound at or below `now`, so
    /// the next cycle scans again. Nothing outside the core reaches warp
    /// state — chaos hooks act on the interconnect and the partitions —
    /// so the list is complete.
    ready_lb: Cycle,
    /// Memoized stall classification. While `Some`, consecutive stalled
    /// cycles replay this class without rescanning the warp set; every
    /// mutation that can change the classification (an issued instruction,
    /// a load completion, CTA assignment or retirement, a barrier release,
    /// an issue-register transition) clears it. Time alone cannot flip a
    /// cached class: see the argument in
    /// [`classify_stall_many`](SimtCore::classify_stall_many).
    stall_cache: Option<StallKind>,
    stats: CoreStats,
    miss_latency: LatencyStats,
    trace: Option<Box<CoreTrace>>,
    /// Host-time attribution: accumulate the wall time spent in the L1
    /// (hit wake-up, port access, fills) when profiling is enabled. Never
    /// read by the timing model, so it cannot affect results.
    host_profile: bool,
    host_l1_seconds: f64,
}

/// See [`SimtCore::masks`]. Bit `w` describes `warps[w]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct WarpMasks {
    /// Assigned and not finished.
    live: u64,
    /// Live and blocked on a pending load at the current PC.
    mem_blocked: u64,
    /// Live and waiting at a CTA barrier.
    at_barrier: u64,
    /// The cached decoded instruction is a load or store.
    decoded_is_mem: u64,
}

impl WarpMasks {
    /// Re-derives bit `w` of every mask from `warp`.
    fn refresh(&mut self, w: usize, warp: &WarpSlot) {
        let live = warp.assigned && !warp.finished;
        let decoded_is_mem = matches!(&warp.decoded, Some(Some(instr)) if instr.is_memory());
        let set = |mask: &mut u64, on: bool| *mask = *mask & !(1 << w) | u64::from(on) << w;
        set(&mut self.live, live);
        set(&mut self.mem_blocked, live && warp.blocked_on_memory());
        set(&mut self.at_barrier, live && warp.at_barrier);
        set(&mut self.decoded_is_mem, decoded_is_mem);
    }

    /// Warps that pass every part of the issue pre-check but time.
    fn eligible(&self) -> u64 {
        self.live & !self.mem_blocked & !self.at_barrier
    }
}

/// Slot indices of the set bits of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let w = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            w
        })
    })
}

impl std::fmt::Debug for SimtCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimtCore")
            .field("id", &self.id)
            .field("program", &self.program.name())
            .field("resident_ctas", &self.resident_ctas())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl SimtCore {
    /// Builds a core executing `program` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.core.max_warps` exceeds [`MAX_MASK_WIDTH`]
    /// ([`GpuConfig::validate`] rejects such a configuration).
    pub fn new(id: CoreId, cfg: &GpuConfig, program: Arc<dyn KernelProgram>) -> Self {
        assert!(
            cfg.core.max_warps <= MAX_MASK_WIDTH,
            "warp masks hold at most {MAX_MASK_WIDTH} slots"
        );
        let max_resident_ctas = cfg.core.max_ctas.min(program.max_ctas_per_core()).max(1);
        SimtCore {
            id,
            warps_per_cta: program.warps_per_cta() as usize,
            warps: (0..cfg.core.max_warps).map(|_| WarpSlot::empty()).collect(),
            ready_at: vec![Cycle::ZERO; cfg.core.max_warps],
            masks: WarpMasks::default(),
            ctas: (0..max_resident_ctas).map(|_| None).collect(),
            free_warps: cfg.core.max_warps,
            free_cta_slots: max_resident_ctas,
            issue_width: cfg.core.issue_width,
            l1: L1Dcache::new(cfg),
            lsu_queue: SimQueue::new("lsu_pipeline", cfg.core.mem_pipeline_width),
            l1_retry: None,
            issue_reg: VecDeque::new(),
            fill_done: Vec::new(),
            issue_order: Vec::new(),
            last_issued: None,
            next_fetch_seq: 0,
            age_counter: 0,
            ready_lb: Cycle::ZERO,
            stall_cache: None,
            stats: CoreStats::default(),
            miss_latency: LatencyStats::new(),
            trace: None,
            host_profile: false,
            host_l1_seconds: 0.0,
            program,
        }
    }

    /// Starts attributing host wall time spent in the L1 data cache to
    /// [`host_l1_seconds`](SimtCore::host_l1_seconds).
    /// Timing-model-invisible; enable before running.
    pub fn enable_host_profile(&mut self) {
        self.host_profile = true;
    }

    /// Host seconds spent inside the L1 since profiling was enabled.
    pub fn host_l1_seconds(&self) -> f64 {
        self.host_l1_seconds
    }

    /// Turns on fetch-lifecycle tracing. Idempotent; enable before running.
    pub fn enable_trace(&mut self, cfg: &TraceConfig) {
        if self.trace.is_none() {
            self.trace = Some(Box::new(CoreTrace {
                collector: TraceCollector::new(*cfg),
                lsu: OccupancyProbe::new(cfg),
                l1_miss: OccupancyProbe::new(cfg),
            }));
        }
    }

    /// The core's trace state, if tracing was enabled.
    pub fn trace(&self) -> Option<&CoreTrace> {
        self.trace.as_deref()
    }

    /// This core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// CTAs currently resident.
    pub(crate) fn resident_ctas(&self) -> usize {
        self.ctas.iter().filter(|c| c.is_some()).count()
    }

    /// True if another CTA can be accepted (free CTA slot and enough free
    /// warp slots).
    pub fn can_accept_cta(&self) -> bool {
        self.free_cta_slots > 0 && self.free_warps >= self.warps_per_cta
    }

    /// Places CTA `cta` onto this core.
    ///
    /// # Panics
    ///
    /// Panics if [`can_accept_cta`](SimtCore::can_accept_cta) is false.
    pub fn assign_cta(&mut self, cta: CtaId) {
        assert!(self.can_accept_cta(), "no room for CTA on {}", self.id);
        let Some(slot) = self.ctas.iter().position(|c| c.is_none()) else {
            return; // unreachable: can_accept_cta asserted above
        };
        let mut warp_slots = Vec::with_capacity(self.warps_per_cta);
        for idx in 0..self.warps.len() {
            if warp_slots.len() == self.warps_per_cta {
                break;
            }
            if !self.warps[idx].assigned {
                let warp_in_cta = warp_slots.len() as u32;
                self.warps[idx].assign(cta, slot, warp_in_cta, self.age_counter);
                self.ready_at[idx] = Cycle::ZERO;
                self.sync_warp(idx);
                self.age_counter += 1;
                warp_slots.push(idx);
            }
        }
        self.free_warps -= warp_slots.len();
        self.free_cta_slots -= 1;
        self.ctas[slot] = Some(CtaState {
            live_warps: warp_slots.len() as u32,
            barrier_arrived: 0,
            warp_slots,
        });
        self.ready_lb = Cycle::ZERO;
        self.stall_cache = None;
        self.rebuild_issue_order();
    }

    /// Re-derives the mask bits of slot `w` from `warps[w]`. The one place
    /// the masks are written: call it after every mutation of a slot.
    fn sync_warp(&mut self, w: usize) {
        self.masks.refresh(w, &self.warps[w]);
    }

    /// The masks recomputed from every slot (what `sync_warp` must have
    /// kept `self.masks` equal to).
    fn masks_from_slots(&self) -> WarpMasks {
        let mut all = WarpMasks::default();
        for (w, warp) in self.warps.iter().enumerate() {
            all.refresh(w, warp);
        }
        all
    }

    fn rebuild_issue_order(&mut self) {
        let warps = &self.warps;
        self.issue_order.clear();
        self.issue_order
            .extend((0..warps.len()).filter(|&i| warps[i].assigned));
        self.issue_order.sort_by_key(|&i| warps[i].age);
    }

    /// True once every assigned CTA has retired.
    pub fn all_ctas_retired(&self) -> bool {
        self.free_cta_slots == self.ctas.len()
    }

    /// True while any memory activity is still owned by this core (LSU,
    /// retry slot, issue register or outstanding L1 misses).
    pub fn has_pending_memory(&self) -> bool {
        !self.issue_reg.is_empty()
            || self.l1_retry.is_some()
            || !self.lsu_queue.is_empty()
            || self.l1.outstanding_misses() > 0
            || self.l1.peek_miss().is_some()
    }

    /// Fetch bodies parked in this core's L1 arena; zero once drained.
    pub fn l1_arena_slots(&self) -> usize {
        self.l1.arena_slots()
    }

    /// Next fill request to inject into the interconnect, if any.
    pub fn peek_memory_request(&self) -> Option<&MemFetch> {
        self.l1.peek_miss()
    }

    /// Removes the head fill request after a successful injection.
    pub fn pop_memory_request(&mut self) -> Option<MemFetch> {
        self.l1.pop_miss()
    }

    /// Delivers a response from the memory system: fills the L1 and wakes
    /// every merged access.
    pub fn accept_response(&mut self, fetch: MemFetch, now: Cycle) {
        debug_assert_eq!(fetch.core, self.id);
        let sw = self.host_profile.then(gpumem_types::host_wall_clock);
        let mut completed = std::mem::take(&mut self.fill_done);
        self.l1.fill_into(fetch, now, &mut completed);
        for done in completed.drain(..) {
            if let Some(lat) = done.timeline.l1_miss_latency() {
                self.miss_latency.record(lat);
            }
            if let Some(tr) = self.trace.as_deref_mut() {
                tr.collector.record_fetch(&done);
            }
            self.complete_warp_access(&done);
        }
        self.fill_done = completed;
        if let Some(sw) = sw {
            self.host_l1_seconds += sw.elapsed_seconds();
        }
    }

    fn complete_warp_access(&mut self, fetch: &MemFetch) {
        if fetch.kind != AccessKind::Load {
            return;
        }
        let slot = fetch.warp_slot as usize;
        if !self.warps[slot].assigned {
            return; // stale completion after forced teardown (tests only)
        }
        self.stall_cache = None;
        let was_eligible = self.masks.eligible() >> slot & 1 != 0;
        self.warps[slot].complete_access(fetch.load_tag);
        self.sync_warp(slot);
        // A completed load may unblock this warp's next instruction. It is
        // the only warp whose state changed, so the bound drops no further
        // than its ready time.
        if !was_eligible && self.masks.eligible() >> slot & 1 != 0 {
            self.ready_lb = self.ready_lb.min(self.ready_at[slot]);
        }
        let warp = &self.warps[slot];
        if warp.finished && warp.outstanding.is_empty() {
            let cta_slot = warp.cta_slot;
            self.maybe_retire_cta(cta_slot);
        }
    }

    fn maybe_retire_cta(&mut self, cta_slot: usize) {
        let Some(state) = &self.ctas[cta_slot] else {
            return;
        };
        if state.live_warps > 0 {
            return;
        }
        let drained = state
            .warp_slots
            .iter()
            .all(|&w| self.warps[w].outstanding.is_empty());
        if !drained {
            return;
        }
        let Some(state) = self.ctas[cta_slot].take() else {
            return;
        };
        for &w in &state.warp_slots {
            self.warps[w] = WarpSlot::empty();
            self.sync_warp(w);
        }
        self.free_warps += state.warp_slots.len();
        self.free_cta_slots += 1;
        self.stall_cache = None;
        self.stats.ctas_retired += 1;
        self.rebuild_issue_order();
    }

    /// Advances the core one cycle.
    pub fn cycle(&mut self, now: Cycle) {
        self.stats.cycles += 1;

        // Occupancy sampling happens at pre-step state on a pure-function-
        // of-cycle cadence, so every engine (and the fast-forward backfill)
        // observes identical depths.
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.lsu.sample(now, self.lsu_queue.len() as u64);
            tr.l1_miss.sample(now, self.l1.miss_queue_len() as u64);
        }

        let sw = self.host_profile.then(gpumem_types::host_wall_clock);

        // 1. Wake loads whose L1 hit latency elapsed.
        while let Some(done) = self.l1.pop_ready_hit(now) {
            if let Some(tr) = self.trace.as_deref_mut() {
                tr.collector.record_fetch(&done);
            }
            self.complete_warp_access(&done);
        }

        // 2. Feed the L1 port (one access per cycle), retry slot first. A
        //    refused access stays in the slot.
        if self.l1_retry.is_none() {
            self.l1_retry = self.lsu_queue.pop();
        }
        if self.l1_retry.is_some() {
            let _ = self.l1.access_head(&mut self.l1_retry, now);
        }

        if let Some(sw) = sw {
            self.host_l1_seconds += sw.elapsed_seconds();
        }

        // 3. Drain the issue register into the LSU pipeline (one coalesced
        //    access per cycle — the coalescer's throughput).
        if !self.issue_reg.is_empty() && !self.lsu_queue.is_full() {
            if let Some(access) = self.issue_reg.pop_front() {
                if let Err(e) = self.lsu_queue.push(access) {
                    // Unreachable after is_full; retry next cycle.
                    self.issue_reg.push_front(e.into_inner());
                }
            }
            if self.issue_reg.is_empty() {
                // The pipeline freeing up changes the classification and
                // un-parks every warp holding a decoded load/store.
                self.stall_cache = None;
                self.ready_lb = Cycle::ZERO;
            }
        }

        // 4. Issue up to `issue_width` instructions from ready warps (GTO).
        //    While `ready_lb` proves no warp can pass the issue pre-check,
        //    the scan is skipped entirely — the pre-check is
        //    side-effect-free, so skipping it is observationally
        //    identical to running it and failing.
        let mut issued = 0;
        if self.ready_lb <= now {
            if let Some(last) = self.last_issued {
                while issued < self.issue_width
                    && self.passes_precheck(last, now)
                    && self.issue_warp(last, now)
                {
                    issued += 1;
                }
            }
            if issued < self.issue_width {
                let order = std::mem::take(&mut self.issue_order);
                for &w in &order {
                    if issued >= self.issue_width {
                        break;
                    }
                    if Some(w) == self.last_issued || !self.passes_precheck(w, now) {
                        continue;
                    }
                    if self.issue_warp(w, now) {
                        self.last_issued = Some(w);
                        issued += 1;
                    }
                }
                self.issue_order = order;
            }
            if issued == 0 {
                self.ready_lb = self.issue_bound();
            }
        } else {
            debug_assert!(
                !bits(self.masks.live).any(|w| self.passes_precheck(w, now)),
                "ready_lb {:?} skipped a scan at {now:?} that a warp would have passed",
                self.ready_lb
            );
        }

        if issued == 0 {
            self.classify_stall(now);
        } else {
            // Warp state changed; the memoized classification is stale.
            self.stall_cache = None;
        }
        debug_assert_eq!(
            self.masks,
            self.masks_from_slots(),
            "a warp slot changed without sync_warp"
        );
    }

    /// The issue pre-check, on the masks alone: warp `w` is live, not at a
    /// barrier, not blocked on memory, ready by `now`, and not parked on a
    /// decoded load/store while the memory pipeline is busy.
    fn passes_precheck(&self, w: usize, now: Cycle) -> bool {
        self.masks.eligible() & !self.parked() & 1 << w != 0 && self.ready_at[w] <= now
    }

    /// Warps that cannot issue whatever the time: their decoded
    /// instruction is a load or store and the issue register is busy.
    fn parked(&self) -> u64 {
        if self.issue_reg.is_empty() {
            0
        } else {
            self.masks.decoded_is_mem
        }
    }

    /// The earliest cycle any warp can pass the pre-check if no event
    /// intervenes: the minimum `ready_at` over eligible, un-parked warps
    /// (`NEVER` if there is none). See [`ready_lb`](SimtCore::ready_lb).
    fn issue_bound(&self) -> Cycle {
        bits(self.masks.eligible() & !self.parked())
            .map(|w| self.ready_at[w])
            .min()
            .unwrap_or(Cycle::NEVER)
    }

    /// Attempts to issue one instruction from warp `w`, which passes the
    /// pre-check; returns success.
    fn issue_warp(&mut self, w: usize, now: Cycle) -> bool {
        debug_assert!(self.passes_precheck(w, now));
        let pipeline_busy = !self.issue_reg.is_empty();
        // Decode (cached across blocked cycles).
        if self.warps[w].decoded.is_none() {
            let warp = &self.warps[w];
            let instr = self.program.instr(warp.cta, warp.warp_in_cta, warp.pc);
            let is_mem = instr.as_ref().is_some_and(WarpInstr::is_memory);
            self.warps[w].decoded = Some(instr);
            if pipeline_busy && is_mem {
                self.sync_warp(w);
                return false; // memory pipeline busy; decoded stays cached
            }
        }
        let barrier_cta = match self.warps[w].decoded.take().flatten() {
            None => {
                self.finish_warp(w);
                // Retiring is not an issued instruction.
                return false;
            }
            Some(WarpInstr::Alu { latency }) => {
                self.ready_at[w] = now + u64::from(latency).max(1);
                self.stats.alu_instrs += 1;
                None
            }
            Some(WarpInstr::Shared { latency }) => {
                self.ready_at[w] = now + u64::from(latency).max(1);
                self.stats.shared_instrs += 1;
                None
            }
            Some(WarpInstr::Barrier) => {
                self.warps[w].at_barrier = true;
                self.stats.barriers += 1;
                let cta_slot = self.warps[w].cta_slot;
                if let Some(cta) = &mut self.ctas[cta_slot] {
                    cta.barrier_arrived += 1;
                }
                Some(cta_slot)
            }
            Some(WarpInstr::Load {
                lines,
                consume_after,
            }) => {
                assert!(!lines.is_empty(), "load must touch at least one line");
                let tag = self.warps[w].post_load(consume_after.max(1), lines.len() as u32);
                self.issue_accesses(w, AccessKind::Load, tag, &lines, now);
                self.stats.load_instrs += 1;
                None
            }
            Some(WarpInstr::Store { lines }) => {
                assert!(!lines.is_empty(), "store must touch at least one line");
                self.issue_accesses(w, AccessKind::Store, 0, &lines, now);
                self.stats.store_instrs += 1;
                None
            }
        };
        self.warps[w].pc += 1;
        self.stats.instructions += 1;
        self.sync_warp(w);
        if let Some(cta_slot) = barrier_cta {
            self.maybe_release_barrier(cta_slot);
        }
        true
    }

    /// Loads the issue register with one access per coalesced line of the
    /// memory instruction warp `w` just issued.
    fn issue_accesses(
        &mut self,
        w: usize,
        kind: AccessKind,
        load_tag: u32,
        lines: &[gpumem_types::LineAddr],
        now: Cycle,
    ) {
        for &line in lines {
            let mut f = MemFetch::new(self.next_fetch_id(), kind, line, self.id);
            f.warp_slot = w as u32;
            f.load_tag = load_tag;
            f.timeline.issued = CycleStamp::at(now);
            self.issue_reg.push_back(f);
        }
        self.stats.global_accesses += lines.len() as u64;
    }

    fn next_fetch_id(&mut self) -> FetchId {
        let id = (u64::from(self.id.index() as u32) << 40) | self.next_fetch_seq;
        self.next_fetch_seq += 1;
        FetchId::new(id)
    }

    fn finish_warp(&mut self, w: usize) {
        let warp = &mut self.warps[w];
        if warp.finished {
            return;
        }
        warp.finished = true;
        let cta_slot = warp.cta_slot;
        self.sync_warp(w);
        self.stall_cache = None;
        if let Some(cta) = &mut self.ctas[cta_slot] {
            debug_assert!(cta.live_warps > 0);
            cta.live_warps -= 1;
        }
        // A finishing warp may satisfy a barrier its siblings wait at.
        self.maybe_release_barrier(cta_slot);
        self.maybe_retire_cta(cta_slot);
    }

    fn maybe_release_barrier(&mut self, cta_slot: usize) {
        let Some(cta) = &mut self.ctas[cta_slot] else {
            return;
        };
        if cta.live_warps == 0 || cta.barrier_arrived < cta.live_warps {
            return;
        }
        cta.barrier_arrived = 0;
        let slots = std::mem::take(&mut cta.warp_slots);
        for &s in &slots {
            self.warps[s].at_barrier = false;
            self.sync_warp(s);
        }
        if let Some(cta) = &mut self.ctas[cta_slot] {
            cta.warp_slots = slots;
        }
        // Released warps become issue candidates again.
        self.ready_lb = Cycle::ZERO;
        self.stall_cache = None;
    }

    fn classify_stall(&mut self, now: Cycle) {
        self.classify_stall_many(now, 1);
    }

    /// Records `weight` stalled cycles under the classification that holds
    /// at `now`. The classification is constant over a window proven idle
    /// by [`next_event`](SimtCore::next_event): the memory/barrier flags
    /// only change on issue or response events, and every eligible warp's
    /// `ready_at` lies at or beyond the window end.
    fn classify_stall_many(&mut self, now: Cycle, weight: u64) {
        if let Some(kind) = self.stall_cache {
            // Nothing classification-relevant changed since the cached
            // scan (every such mutation clears the cache), so the class
            // still holds. Time alone cannot flip a cached class: a class
            // that outranks Compute ignores `now` entirely, and a cached
            // Compute class implies a free issue register (no warp is
            // parked), so the first cycle to reach `ready_lb` issues (or
            // retires) a warp in the scan that runs before
            // classification, clearing the cache first.
            self.bump_stall(kind, weight);
            return;
        }
        let m = &self.masks;
        let any_assigned = m.live != 0;
        let mem_blocked = m.mem_blocked != 0;
        let barrier = m.at_barrier & !m.mem_blocked != 0;
        let compute = bits(m.eligible()).any(|w| self.ready_at[w] > now);
        let kind = if mem_blocked {
            StallKind::Memory
        } else if any_assigned && !self.issue_reg.is_empty() {
            StallKind::MemPipeline
        } else if barrier {
            StallKind::Barrier
        } else if compute {
            StallKind::Compute
        } else {
            StallKind::Idle
        };
        self.stall_cache = Some(kind);
        self.bump_stall(kind, weight);
    }

    fn bump_stall(&mut self, kind: StallKind, weight: u64) {
        match kind {
            StallKind::Memory => self.stats.stall_memory += weight,
            StallKind::MemPipeline => self.stats.stall_mem_pipeline += weight,
            StallKind::Barrier => self.stats.stall_barrier += weight,
            StallKind::Compute => self.stats.stall_compute += weight,
            StallKind::Idle => self.stats.idle_cycles += weight,
        }
    }

    /// The earliest cycle at or after `now` at which this core can make
    /// progress on its own (issue an instruction, retire a warp, feed the
    /// L1 port, or surface a completed hit), or `None` if it is fully
    /// quiescent until an external response arrives.
    ///
    /// A return value of `now` means "cannot skip this cycle". A future
    /// cycle is a proof that every cycle strictly before it changes
    /// nothing but per-cycle counters, which
    /// [`fast_forward`](SimtCore::fast_forward) replays in closed form.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.l1.peek_miss().is_some()
            || self.l1_retry.is_some()
            || !self.lsu_queue.is_empty()
            || !self.issue_reg.is_empty()
        {
            return Some(now);
        }
        let mut earliest = self.l1.next_ready_hit();
        if earliest.is_some_and(|t| t <= now) {
            return Some(now);
        }
        // `ready_lb` substitutes for a warp scan: it is a maintained lower
        // bound on the earliest cycle any warp can pass the issue
        // pre-check (exact after a scan that issued nothing, lowered by
        // every wake-up event), and `NEVER` means no warp is blocked on time
        // alone — only an external event (which resets the bound) can
        // create a candidate. Being a lower bound it can only produce
        // spurious wake-ups, which replay stalled cycles exactly as the
        // stepped oracle executes them.
        if self.ready_lb <= now {
            return Some(now);
        }
        if self.ready_lb != Cycle::NEVER {
            earliest = Some(match earliest {
                Some(e) if e <= self.ready_lb => e,
                _ => self.ready_lb,
            });
        }
        earliest
    }

    /// Replays `cycles` consecutive stalled cycles in closed form,
    /// starting at `now`. The caller must have proven via
    /// [`next_event`](SimtCore::next_event) that the core cannot act
    /// before `now + cycles`; counters advance exactly as if
    /// [`cycle`](SimtCore::cycle) and [`observe`](SimtCore::observe) had
    /// run for each skipped cycle.
    pub fn fast_forward(&mut self, now: Cycle, cycles: u64) {
        if cycles == 0 {
            return;
        }
        self.stats.cycles += cycles;
        self.classify_stall_many(now, cycles);
        self.l1.observe_many(cycles);
        self.lsu_queue.observe_many(cycles);
        // Queue depths are provably frozen over the skipped window, so the
        // probes backfill the cadence points with the current depths.
        if let Some(tr) = self.trace.as_deref_mut() {
            let lsu_depth = self.lsu_queue.len() as u64;
            let miss_depth = self.l1.miss_queue_len() as u64;
            tr.lsu.backfill(now, cycles, lsu_depth);
            tr.l1_miss.backfill(now, cycles, miss_depth);
        }
    }

    /// Per-cycle statistics bookkeeping.
    pub fn observe(&mut self) {
        self.l1.observe();
        self.lsu_queue.observe();
    }

    /// Activity counters.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// L1 controller counters.
    pub fn l1_stats(&self) -> &L1Stats {
        self.l1.stats()
    }

    /// L1 miss-queue occupancy statistics.
    pub fn l1_miss_queue_stats(&self) -> QueueStats {
        self.l1.miss_queue_stats()
    }

    /// LSU pipeline occupancy statistics.
    pub fn lsu_queue_stats(&self) -> QueueStats {
        self.lsu_queue.stats()
    }

    /// Distribution of observed L1 miss latencies (Fig. 1's x-axis
    /// quantity, measured).
    pub fn miss_latency(&self) -> &LatencyStats {
        &self.miss_latency
    }

    /// The kernel this core runs.
    pub fn program(&self) -> &Arc<dyn KernelProgram> {
        &self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_types::LineAddr;

    /// `n_alu` ALU ops then done.
    struct AluKernel {
        n_alu: u32,
    }
    impl KernelProgram for AluKernel {
        fn name(&self) -> &str {
            "alu"
        }
        fn grid_ctas(&self) -> u32 {
            2
        }
        fn warps_per_cta(&self) -> u32 {
            2
        }
        fn instr(&self, _cta: CtaId, _warp: u32, pc: u32) -> Option<WarpInstr> {
            (pc < self.n_alu).then_some(WarpInstr::Alu { latency: 4 })
        }
    }

    /// load → dependent ALU → done, one line per (cta, warp).
    struct LoadKernel;
    impl KernelProgram for LoadKernel {
        fn name(&self) -> &str {
            "load"
        }
        fn grid_ctas(&self) -> u32 {
            1
        }
        fn warps_per_cta(&self) -> u32 {
            2
        }
        fn instr(&self, cta: CtaId, warp: u32, pc: u32) -> Option<WarpInstr> {
            match pc {
                0 => Some(WarpInstr::load_line(
                    LineAddr::new(u64::from(cta.index() as u32 * 64 + warp)),
                    1,
                )),
                1 => Some(WarpInstr::Alu { latency: 1 }),
                _ => None,
            }
        }
    }

    /// Two warps: ALU-heavy warp 0, barrier at pc 3 for both.
    struct BarrierKernel;
    impl KernelProgram for BarrierKernel {
        fn name(&self) -> &str {
            "barrier"
        }
        fn grid_ctas(&self) -> u32 {
            1
        }
        fn warps_per_cta(&self) -> u32 {
            2
        }
        fn instr(&self, _cta: CtaId, warp: u32, pc: u32) -> Option<WarpInstr> {
            match (warp, pc) {
                (0, 0..=2) => Some(WarpInstr::Alu { latency: 8 }),
                (0, 3) | (1, 0) => Some(WarpInstr::Barrier),
                (0, 4) | (1, 1) => Some(WarpInstr::Alu { latency: 1 }),
                _ => None,
            }
        }
    }

    fn core_with(program: Arc<dyn KernelProgram>) -> SimtCore {
        let cfg = GpuConfig::tiny();
        SimtCore::new(CoreId::new(0), &cfg, program)
    }

    fn run_until_done(core: &mut SimtCore, max: u64, respond_after: Option<u64>) -> u64 {
        let mut pending: Vec<(Cycle, MemFetch)> = Vec::new();
        for t in 0..max {
            let now = Cycle::new(t);
            // deliver fixed-latency responses
            let due: Vec<_> = pending
                .iter()
                .enumerate()
                .filter(|(_, (at, _))| *at <= now)
                .map(|(i, _)| i)
                .collect();
            for i in due.into_iter().rev() {
                let (_, f) = pending.remove(i);
                core.accept_response(f, now);
            }
            core.cycle(now);
            if let Some(delay) = respond_after {
                while let Some(req) = core.pop_memory_request() {
                    pending.push((now + delay, req));
                }
            }
            core.observe();
            if core.all_ctas_retired() && !core.has_pending_memory() {
                return t;
            }
        }
        panic!("did not finish in {max} cycles; stats: {:?}", core.stats());
    }

    #[test]
    fn pure_alu_kernel_completes_and_counts() {
        let mut core = core_with(Arc::new(AluKernel { n_alu: 10 }));
        core.assign_cta(CtaId::new(0));
        core.assign_cta(CtaId::new(1));
        run_until_done(&mut core, 1000, None);
        // 2 CTAs × 2 warps × 10 instructions.
        assert_eq!(core.stats().instructions, 40);
        assert_eq!(core.stats().alu_instrs, 40);
        assert_eq!(core.stats().ctas_retired, 2);
        assert!(core.all_ctas_retired());
    }

    #[test]
    fn warp_parallelism_hides_alu_latency() {
        // One warp of 10 ALU @4 takes ~40 cycles; four warps interleave.
        let mut slow = core_with(Arc::new(AluKernel { n_alu: 10 }));
        slow.assign_cta(CtaId::new(0));
        let t1 = run_until_done(&mut slow, 1000, None);

        let mut fast = core_with(Arc::new(AluKernel { n_alu: 10 }));
        fast.assign_cta(CtaId::new(0));
        fast.assign_cta(CtaId::new(1));
        let t2 = run_until_done(&mut fast, 1000, None);
        // Twice the work in well under twice the time.
        assert!(t2 < t1 * 2, "t1={t1} t2={t2}");
        assert!(fast.stats().ipc() > slow.stats().ipc());
    }

    #[test]
    fn load_kernel_round_trips_through_l1() {
        let mut core = core_with(Arc::new(LoadKernel));
        core.assign_cta(CtaId::new(0));
        run_until_done(&mut core, 2000, Some(100));
        assert_eq!(core.stats().load_instrs, 2);
        assert_eq!(core.l1_stats().load_misses, 2);
        assert!(core.stats().stall_memory > 0, "latency must expose stalls");
        let lat = core.miss_latency();
        assert_eq!(lat.count(), 2);
        assert!(lat.mean() >= 100.0, "mean {}", lat.mean());
    }

    #[test]
    fn lower_latency_finishes_faster() {
        let mut a = core_with(Arc::new(LoadKernel));
        a.assign_cta(CtaId::new(0));
        let slow = run_until_done(&mut a, 4000, Some(400));

        let mut b = core_with(Arc::new(LoadKernel));
        b.assign_cta(CtaId::new(0));
        let fast = run_until_done(&mut b, 4000, Some(10));
        assert!(fast < slow, "fast={fast} slow={slow}");
    }

    #[test]
    fn barrier_synchronizes_warps() {
        let mut core = core_with(Arc::new(BarrierKernel));
        core.assign_cta(CtaId::new(0));
        run_until_done(&mut core, 1000, None);
        assert_eq!(core.stats().barriers, 2);
        // Warp 1 reached the barrier immediately and had to wait for warp
        // 0's three 8-cycle ALU ops.
        assert!(core.stats().stall_barrier > 0 || core.stats().stall_compute > 0);
    }

    #[test]
    fn cta_occupancy_is_bounded() {
        let mut core = core_with(Arc::new(AluKernel { n_alu: 1000 }));
        // tiny() allows 2 CTAs of 2 warps on 8 warp slots.
        assert!(core.can_accept_cta());
        core.assign_cta(CtaId::new(0));
        assert!(core.can_accept_cta());
        core.assign_cta(CtaId::new(1));
        assert!(!core.can_accept_cta());
    }

    #[test]
    fn divergent_load_generates_multiple_accesses() {
        struct Gather;
        impl KernelProgram for Gather {
            fn name(&self) -> &str {
                "gather"
            }
            fn grid_ctas(&self) -> u32 {
                1
            }
            fn warps_per_cta(&self) -> u32 {
                1
            }
            fn instr(&self, _c: CtaId, _w: u32, pc: u32) -> Option<WarpInstr> {
                match pc {
                    0 => Some(WarpInstr::Load {
                        lines: (0..8).map(|i| LineAddr::new(i * 97)).collect(),
                        consume_after: 1,
                    }),
                    1 => Some(WarpInstr::Alu { latency: 1 }),
                    _ => None,
                }
            }
        }
        let mut core = core_with(Arc::new(Gather));
        core.assign_cta(CtaId::new(0));
        run_until_done(&mut core, 4000, Some(50));
        assert_eq!(core.stats().global_accesses, 8);
        assert_eq!(core.l1_stats().load_misses, 8);
    }

    #[test]
    fn stores_do_not_block_warps() {
        struct StoreKernel;
        impl KernelProgram for StoreKernel {
            fn name(&self) -> &str {
                "store"
            }
            fn grid_ctas(&self) -> u32 {
                1
            }
            fn warps_per_cta(&self) -> u32 {
                1
            }
            fn instr(&self, _c: CtaId, _w: u32, pc: u32) -> Option<WarpInstr> {
                match pc {
                    0 => Some(WarpInstr::Store {
                        lines: vec![LineAddr::new(3)],
                    }),
                    1 => Some(WarpInstr::Alu { latency: 1 }),
                    _ => None,
                }
            }
        }
        let mut core = core_with(Arc::new(StoreKernel));
        core.assign_cta(CtaId::new(0));
        // Stores flow to the miss queue; drain them with a sink.
        for t in 0..200 {
            let now = Cycle::new(t);
            core.cycle(now);
            while core.pop_memory_request().is_some() {}
            core.observe();
            if core.all_ctas_retired() && !core.has_pending_memory() {
                break;
            }
        }
        assert!(core.all_ctas_retired(), "stats {:?}", core.stats());
        assert_eq!(core.stats().store_instrs, 1);
        assert_eq!(core.stats().stall_memory, 0);
    }

    /// Every warp runs a pseudo-random mix of ALU, shared, load, store and
    /// barrier instructions derived from `seed`; stream lengths differ per
    /// warp so CTAs see early finishers, barrier releases by retirement
    /// and slot reuse.
    struct RandomKernel {
        seed: u64,
    }
    impl RandomKernel {
        fn hash(&self, cta: CtaId, warp: u32, pc: u32) -> u64 {
            let key = (cta.index() as u64) << 40 | u64::from(warp) << 32 | u64::from(pc);
            let mut h = (key ^ self.seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 29;
            h.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 16
        }
    }
    impl KernelProgram for RandomKernel {
        fn name(&self) -> &str {
            "random"
        }
        fn grid_ctas(&self) -> u32 {
            5
        }
        fn warps_per_cta(&self) -> u32 {
            3
        }
        fn instr(&self, cta: CtaId, warp: u32, pc: u32) -> Option<WarpInstr> {
            if pc >= 6 + (self.hash(cta, warp, u32::MAX) % 20) as u32 {
                return None;
            }
            let h = self.hash(cta, warp, pc);
            let lines = |n: u64| {
                (0..n)
                    .map(|i| LineAddr::new((h >> 8) % 48 + i * 7))
                    .collect()
            };
            Some(match h % 8 {
                0..=2 => WarpInstr::Alu {
                    latency: 1 + (h >> 4) as u32 % 9,
                },
                3 => WarpInstr::Shared { latency: 2 },
                4 | 5 => WarpInstr::Load {
                    lines: lines(1 + (h >> 4) % 3),
                    consume_after: 1 + (h >> 6) as u32 % 4,
                },
                6 => WarpInstr::Store { lines: lines(1) },
                _ => WarpInstr::Barrier,
            })
        }
    }

    proptest::proptest! {
        /// The scheduling masks equal the predicates recomputed from the
        /// warp slots after every response and every cycle of random
        /// kernels, and CTA admission and retirement equal a recount of
        /// the free slots.
        #[test]
        fn masks_track_warp_slots(seed in proptest::prelude::any::<u64>(), delay in 1u64..120) {
            let mut core = core_with(Arc::new(RandomKernel { seed }));
            let mut next_cta = 0;
            let mut pending: VecDeque<(Cycle, MemFetch)> = VecDeque::new();
            let check = |core: &SimtCore| {
                assert_eq!(core.masks, core.masks_from_slots());
                let free_warps = core.warps.iter().filter(|w| !w.assigned).count();
                assert_eq!(
                    core.can_accept_cta(),
                    core.ctas.iter().any(|c| c.is_none()) && free_warps >= core.warps_per_cta
                );
                assert_eq!(core.all_ctas_retired(), core.ctas.iter().all(|c| c.is_none()));
            };
            for t in 0..20_000 {
                let now = Cycle::new(t);
                while next_cta < 5 && core.can_accept_cta() {
                    core.assign_cta(CtaId::new(next_cta));
                    next_cta += 1;
                    check(&core);
                }
                while pending.front().is_some_and(|(at, _)| *at <= now) {
                    let (_, f) = pending.pop_front().unwrap();
                    core.accept_response(f, now);
                    check(&core);
                }
                core.cycle(now);
                check(&core);
                while let Some(req) = core.pop_memory_request() {
                    if req.kind == AccessKind::Load {
                        pending.push_back((now + delay, req));
                    }
                }
                core.observe();
                if next_cta == 5 && core.all_ctas_retired() && !core.has_pending_memory() {
                    break;
                }
            }
            proptest::prop_assert!(core.all_ctas_retired(), "stats {:?}", core.stats());
            proptest::prop_assert_eq!(core.stats().ctas_retired, 5);
        }
    }

    /// Four-line loads, ALU work and stores from every warp, against an L1
    /// with two MSHRs and a two-entry miss queue: the MSHR-full → LSU-full
    /// → issue-register-stuck regime in which decoded memory instructions
    /// park behind the issue register.
    struct StreamKernel;
    impl KernelProgram for StreamKernel {
        fn name(&self) -> &str {
            "stream"
        }
        fn grid_ctas(&self) -> u32 {
            4
        }
        fn warps_per_cta(&self) -> u32 {
            4
        }
        fn instr(&self, cta: CtaId, warp: u32, pc: u32) -> Option<WarpInstr> {
            let base = (cta.index() as u64 * 4 + u64::from(warp)) * 4096 + u64::from(pc) * 16;
            match pc {
                24.. => None,
                _ if pc.is_multiple_of(4) => Some(WarpInstr::Load {
                    lines: (0..4).map(|i| LineAddr::new(base + i)).collect(),
                    consume_after: 2,
                }),
                _ if pc % 4 == 3 => Some(WarpInstr::Store {
                    lines: vec![LineAddr::new(base)],
                }),
                _ => Some(WarpInstr::Alu { latency: 2 }),
            }
        }
    }

    /// What [`drive_stream`] observed of one run.
    #[derive(Debug, PartialEq)]
    struct StreamRun {
        /// (cycle, every warp's PC, greedy warp) after each issuing cycle.
        issues: Vec<(u64, Vec<u32>, Option<usize>)>,
        stats: CoreStats,
        l1: L1Stats,
    }

    /// Runs [`StreamKernel`] to completion, one memory request drained per
    /// cycle and answered 60 cycles later. With `scan_every_cycle` the
    /// bound is zeroed before every cycle, so the GTO scan always runs —
    /// the bound-free reference. Returns the run and how many cycles ended
    /// with a decoded memory instruction parked *and* a bound in the
    /// future.
    fn drive_stream(scan_every_cycle: bool) -> (StreamRun, u64) {
        let mut cfg = GpuConfig::tiny();
        cfg.l1.mshr_entries = 2;
        cfg.l1.miss_queue = 2;
        let mut core = SimtCore::new(CoreId::new(0), &cfg, Arc::new(StreamKernel));
        let mut next_cta = 0;
        let mut pending: VecDeque<(Cycle, MemFetch)> = VecDeque::new();
        let mut issues = Vec::new();
        let mut skipped_while_parked = 0;
        for t in 0..200_000 {
            let now = Cycle::new(t);
            while next_cta < 4 && core.can_accept_cta() {
                core.assign_cta(CtaId::new(next_cta));
                next_cta += 1;
            }
            if pending.front().is_some_and(|(at, _)| *at <= now) {
                let (_, f) = pending.pop_front().unwrap();
                core.accept_response(f, now);
            }
            if scan_every_cycle {
                core.ready_lb = Cycle::ZERO;
            }
            let before = core.stats.instructions;
            core.cycle(now);
            if core.stats.instructions != before {
                let pcs = core.warps.iter().map(|w| w.pc).collect();
                issues.push((t, pcs, core.last_issued));
            }
            let parked = core.masks.eligible() & core.parked() != 0;
            skipped_while_parked += u64::from(parked && core.ready_lb > now.next());
            if let Some(req) = core.pop_memory_request() {
                if req.kind == AccessKind::Load {
                    pending.push_back((now + 60, req));
                }
            }
            core.observe();
            if next_cta == 4 && core.all_ctas_retired() && !core.has_pending_memory() {
                let run = StreamRun {
                    issues,
                    stats: *core.stats(),
                    l1: *core.l1_stats(),
                };
                return (run, skipped_while_parked);
            }
        }
        panic!("stream kernel did not finish; stats {:?}", core.stats());
    }

    #[test]
    fn saturated_memory_pipeline_issues_and_stalls_like_the_bound_free_scan() {
        let (run, skipped) = drive_stream(false);
        let (reference, _) = drive_stream(true);
        assert_eq!(run, reference);
        // The regime was reached, and the bound did skip scans in it.
        let (stats, l1) = (run.stats, run.l1);
        assert!(l1.mshr_full_stalls > 1000, "{l1:?}");
        assert!(stats.stall_mem_pipeline + stats.stall_memory > stats.cycles / 2);
        assert!(skipped > 1000, "bound skipped only {skipped} parked cycles");
    }

    #[test]
    fn ipc_of_empty_core_is_zero() {
        let core = core_with(Arc::new(AluKernel { n_alu: 1 }));
        assert_eq!(core.stats().ipc(), 0.0);
    }
}
