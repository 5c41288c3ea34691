//! Deterministic epoch-synchronized parallel stepping.
//!
//! [`run`] reproduces [`GpuSimulator::run_stepped`] bit for bit while
//! spreading the machine across persistent worker threads. The sharding
//! follows the machine's natural ownership structure:
//!
//! * A **core shard** is a [`SimtCore`] (with its L1) plus the two
//!   crossbar ports only that core touches — its ingress port on the
//!   request network and its egress port on the response network.
//! * A **partition shard** is a [`MemoryPartition`] (L2 slice + DRAM
//!   channel) plus *its* two ports — its egress port on the request
//!   network and its ingress port on the response network.
//!
//! The only state shared between shards is the crossbar fabric, and every
//! cross-shard effect takes at least the crossbar hop latency to land.
//! The engine exploits that slack: instead of a barrier every cycle, the
//! coordinator computes a **safe epoch** `E` — never longer than the
//! minimum cross-shard latency, further clamped by every fence that could
//! make mid-epoch global coordination observable (chaos schedules, the
//! watchdog horizon, CTA retirement while dispatching, port headroom,
//! cycle budget, completion distance) — and shards **free-run** `E`
//! cycles against frozen boundary state:
//!
//! * Packets that would *arrive* during the epoch are pre-extracted into
//!   a per-port [`LandingSchedule`] and landed at their exact cycles.
//! * Packets a shard *injects* are buffered in a per-shard epoch mailbox
//!   (partitions inject into an always-empty scratch port so their
//!   port-protocol gating is unchanged), stamped with their cycle.
//! * Egress-credit returns are recorded with their cycles.
//!
//! At the barrier the coordinator **replays** the epoch against the real
//! fabric: for each cycle it returns recorded credits, commits mailbox
//! injections in global shard order, and ticks both fabrics — exactly
//! the serial per-cycle interleaving, so every packet, counter and queue
//! observation is bit-identical to `run_stepped` for every thread count
//! and epoch policy. `E < 2` falls back to the legacy four-barrier
//! per-cycle round ([`EpochPolicy::PerCycle`] forces it).
//!
//! Cycle structure (hierarchy mode, epoch round; two barrier crossings):
//!
//! ```text
//! main: faults? is_done? budget? deadline? watchdog? dispatch, chaos,
//!       compute safe epoch E, take landing schedules
//!         ── barrier 1 ──
//! workers: shards free-run cycles [T, T+E): cores land+pop responses,
//!          run, buffer misses; partitions pop requests, run L2+DRAM,
//!          buffer responses; per-shard queues observed per cycle
//!         ── barrier 2 ──
//! main: replay [T, T+E): per cycle return credits, commit mailboxes in
//!       global order, tick both fabrics; advance clock by E
//! ```
//!
//! Legacy rounds keep the original choreography (partitions → fabric →
//! cores across four barriers). Fixed-latency mode free-runs against
//! pre-drained response inboxes (the heap cannot answer a new miss in
//! fewer than `latency` cycles) and replays submissions in cycle-then-
//! core order so backend sequence numbers match the serial engine.
//!
//! With one thread the engine runs inline on the calling thread — no
//! spin barrier, no mutexes, no worker-death fixture — but the identical
//! epoch logic, so `threads=1` keeps the bit-identity guarantee while
//! shedding all synchronization overhead.
//!
//! # Robustness
//!
//! Workers never unwind across the barrier protocol. Each phase or epoch
//! runs under `catch_unwind`; a panic or a typed [`SimError`] marks the
//! chunk *dead* and records a [`ChunkFault`], and the worker keeps
//! honouring barriers (doing no further work) so nobody deadlocks. The
//! coordinator notices at the next round start:
//!
//! * An **injected** fault (the [`ChaosConfig::worker_panic_at`]
//!   fixture) strikes at the shard boundary of a *legacy* round — the
//!   epoch clamp never free-runs across the configured cycle — so the
//!   coordinator replays both phases for the dead chunk and the run
//!   degrades gracefully to the sequential engine, bit-identically.
//! * An **organic** panic may have torn mid-phase or mid-epoch state, so
//!   the run aborts with [`SimError::WorkerPanic`]. After a faulted
//!   epoch the coordinator restores landing schedules and does not
//!   advance the clock, so the abort reports the epoch's start cycle.
//! * A typed model error aborts with that error, exactly like the serial
//!   engine.
//!
//! Chunk mutexes are locked poison-tolerantly throughout: a worker panic
//! poisons its chunk, but the chunk data is still needed for diagnosis
//! and reassembly. The barriers are sense-reversing spin barriers that
//! yield after a short spin: on hosts with fewer hardware threads than
//! workers, pure spinning would starve the very thread everyone waits
//! for.

use std::collections::VecDeque;
use std::ops::DerefMut;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use gpumem_noc::{Crossbar, EgressPort, IngressPort, LandingSchedule, Packet};
use gpumem_simt::SimtCore;
use gpumem_types::{
    host_wall_clock, Cycle, CycleStamp, Degradation, HostStopwatch, MemFetch, PartitionId,
};

use crate::chaos::ChaosEngine;
use crate::gpu::Backend;
use crate::report::HostPerf;
use crate::watchdog::{ProgressFingerprint, Watchdog};
use crate::{FixedLatencyMemory, GpuSimulator, MemoryPartition, SimError, SimReport};

/// Epoch-length policy for the parallel engine (see
/// [`GpuSimulator::run_parallel_with`]).
///
/// The policy only *caps* the epoch length: the safety fences (cross-
/// shard latency, chaos schedules, watchdog horizon, CTA retirement
/// while dispatching, port headroom, completion distance, cycle budget)
/// are always applied, so the produced [`SimReport`] is bit-identical to
/// [`GpuSimulator::run_stepped`] under every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochPolicy {
    /// Synchronize every cycle: the legacy four-barrier choreography,
    /// kept as the degenerate reference point (`epoch = 1`).
    PerCycle,
    /// Free-run at most this many cycles per epoch.
    Fixed(u64),
    /// Free-run up to the minimum cross-shard latency each round (the
    /// crossbar hop latency in hierarchy mode, the memory latency in
    /// fixed-latency mode).
    Auto,
}

impl EpochPolicy {
    /// The policy's contribution to the epoch clamp.
    fn cap(self) -> u64 {
        match self {
            EpochPolicy::PerCycle => 1,
            EpochPolicy::Fixed(n) => n.max(1),
            EpochPolicy::Auto => u64::MAX,
        }
    }
}

/// How a parallel run ended.
enum Outcome {
    /// Kernel complete, memory drained.
    Done,
    /// `max_cycles` exhausted.
    Budget,
    /// The no-progress watchdog tripped.
    Wedged,
    /// An injected worker fault was absorbed; finish on the serial engine.
    Degraded { at_cycle: u64 },
    /// A typed error (model invariant, organic worker panic, deadline).
    Fault(SimError),
}

/// What went wrong inside one worker's chunk.
#[derive(Clone)]
enum ChunkFault {
    /// The seeded [`ChaosConfig::worker_panic_at`] fixture: the worker
    /// "died" at the shard boundary, before touching this cycle's state.
    Injected { cycle: u64 },
    /// A real panic escaped a phase; chunk state may be mid-cycle.
    Panic { cycle: u64, message: String },
    /// A typed model error surfaced inside a phase.
    Error(SimError),
}

/// Poison-tolerant lock: a worker that panicked mid-phase has already been
/// recorded as a [`ChunkFault`], and the chunk data is still needed for
/// fault reporting, diagnosis and reassembly.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A reusable sense-reversing barrier for `total` participants.
///
/// Spins briefly, then yields: correctness must not depend on having as
/// many hardware threads as participants.
struct SpinBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
}

impl SpinBarrier {
    fn new(total: usize) -> Self {
        SpinBarrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            total,
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            // Reset before publishing the new generation: a racer from the
            // next round can only touch `arrived` after it observes the
            // bumped generation, by which time the reset is visible.
            self.arrived.store(0, Ordering::Release);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins = spins.saturating_add(1);
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Contiguous `[begin, end)` ranges splitting `n` items across `chunks`
/// shard groups. Contiguity matters: concatenating the chunks in chunk-id
/// order must reproduce global port order for the fabric tick.
fn split_ranges(n: usize, chunks: usize) -> Vec<(usize, usize)> {
    (0..chunks)
        .map(|i| ((i * n) / chunks, ((i + 1) * n) / chunks))
        .collect()
}

/// Parameters the shard phases need, copied into every worker.
#[derive(Clone, Copy)]
struct CoreParams {
    num_partitions: u64,
    line_bytes: u64,
    flit_bytes: u64,
    /// Crossbar pipeline latency: the minimum cross-shard latency, and so
    /// the ceiling on every hierarchy epoch.
    hop_latency: u64,
    /// Ingress-port capacity, for the epoch headroom fence and the
    /// partitions' scratch ports.
    input_buffer_pkts: usize,
    /// Destination count of the response network (scratch-port bound).
    num_cores: usize,
}

/// One core shard: the core plus the two ports only it touches, and the
/// epoch bookkeeping for both.
struct CorePack {
    core: SimtCore,
    /// This core's ingress port on the request crossbar.
    req_in: IngressPort,
    /// This core's egress port on the response crossbar.
    resp_out: EgressPort,
    /// Responses scheduled to arrive during the current epoch, landed at
    /// their exact cycles by the free-run.
    landings: LandingSchedule,
    /// `resp_out` credit count at the epoch start (replay baseline).
    credits0: usize,
    /// Cycles at which the free-run popped `resp_out` (credit returns,
    /// at most one per cycle).
    pops: VecDeque<u64>,
    /// Requests buffered during the free-run, committed to `req_in` at
    /// their recorded cycles by the replay.
    mailbox: VecDeque<(u64, Packet)>,
}

impl CorePack {
    fn new(core: SimtCore, req_in: IngressPort, resp_out: EgressPort) -> Self {
        CorePack {
            core,
            req_in,
            resp_out,
            landings: LandingSchedule::default(),
            credits0: 0,
            pops: VecDeque::new(),
            mailbox: VecDeque::new(),
        }
    }
}

/// One partition shard: the partition plus the two ports only it touches,
/// and the epoch bookkeeping for both.
struct PartPack {
    part: MemoryPartition,
    /// This partition's egress port on the request crossbar.
    req_out: EgressPort,
    /// This partition's ingress port on the response crossbar.
    resp_in: IngressPort,
    /// Stand-in ingress the free-run injects responses into. The epoch
    /// headroom fence proves the real `resp_in` could never refuse an
    /// injection during the epoch, and the scratch is drained every
    /// cycle, so the partition's port-protocol gating is unchanged.
    scratch: IngressPort,
    /// Requests scheduled to arrive during the current epoch.
    landings: LandingSchedule,
    /// `req_out` credit count at the epoch start (replay baseline).
    credits0: usize,
    /// Cycles at which the free-run popped `req_out` (credit returns).
    pops: VecDeque<u64>,
    /// Responses buffered during the free-run, committed to `resp_in` at
    /// their recorded cycles by the replay.
    mailbox: VecDeque<(u64, Packet)>,
}

impl PartPack {
    fn new(
        part: MemoryPartition,
        req_out: EgressPort,
        resp_in: IngressPort,
        params: &CoreParams,
    ) -> Self {
        PartPack {
            part,
            req_out,
            resp_in,
            scratch: IngressPort::scratch(params.input_buffer_pkts, params.num_cores),
            landings: LandingSchedule::default(),
            credits0: 0,
            pops: VecDeque::new(),
            mailbox: VecDeque::new(),
        }
    }
}

/// Everything one worker owns, behind one mutex: workers lock only their
/// own chunk during a phase, the coordinator locks all chunks only while
/// every worker is parked at a barrier (so the locks never contend).
struct HierChunk {
    cores: Vec<CorePack>,
    parts: Vec<PartPack>,
    /// Responses delivered to this chunk's cores (merged on exit).
    delivered: u64,
    /// Requests injected by this chunk's cores (merged on exit).
    injected: u64,
    /// First fault this chunk suffered, if any (the coordinator aborts or
    /// degrades the run at the next round start).
    fault: Option<ChunkFault>,
    /// Last cycle of the current epoch at which this chunk changed a
    /// progress-fingerprint counter (for the watchdog's epoch close).
    last_activity: Option<u64>,
}

impl HierChunk {
    /// Phase A (legacy round): step the partition shards for `now`.
    fn phase_partitions(&mut self, now: Cycle) -> Result<(), SimError> {
        for pp in &mut self.parts {
            pp.part.cycle(now, &mut pp.req_out, &mut pp.resp_in)?;
            // The serial loop observes partitions after the cores run, but
            // core activity never touches partition-internal queues, so
            // observing here is bit-identical and saves a phase.
            pp.part.observe();
        }
        Ok(())
    }

    /// Phase B (legacy round): step the core shards for `now`, then close
    /// the cycle's statistics window for every port this chunk owns (the
    /// fabric is quiescent again by this point).
    fn phase_cores(&mut self, now: Cycle, params: &CoreParams) -> Result<(), SimError> {
        for cp in &mut self.cores {
            // One L1 fill per cycle from the response network.
            if let Some(pkt) = cp.resp_out.pop_ejected() {
                cp.core.accept_response(pkt.fetch, now);
                self.delivered += 1;
            }
            cp.core.cycle(now);
            // Inject as many fill requests as the input buffer accepts.
            while cp.core.peek_memory_request().is_some() && cp.req_in.can_inject() {
                let Some(mut fetch) = cp.core.pop_memory_request() else {
                    break;
                };
                let part = (fetch.line.index() % params.num_partitions) as usize;
                fetch.partition = Some(PartitionId::new(part as u32));
                fetch.timeline.icnt_inject = CycleStamp::at(now);
                let bytes = fetch.request_bytes(params.line_bytes);
                let pkt = Packet::new(fetch, part, bytes, params.flit_bytes);
                if cp.req_in.try_inject(pkt).is_err() {
                    return Err(SimError::PortProtocol {
                        component: "core",
                        cycle: now.raw(),
                        detail: "request crossbar rejected an injection after can_inject"
                            .to_owned(),
                    });
                }
                self.injected += 1;
            }
            cp.core.observe();
            cp.req_in.observe();
            cp.resp_out.observe();
        }
        for pp in &mut self.parts {
            pp.req_out.observe();
            pp.resp_in.observe();
        }
        Ok(())
    }

    /// Pulls this epoch's scheduled arrivals out of the egress pipelines
    /// and snapshots the credit baselines the replay restarts from.
    fn prepare_epoch(&mut self, until: Cycle) {
        for cp in &mut self.cores {
            cp.landings = cp.resp_out.take_landings(until);
            cp.credits0 = cp.resp_out.credits();
            debug_assert!(cp.pops.is_empty() && cp.mailbox.is_empty());
        }
        for pp in &mut self.parts {
            // simlint::allow(port-pairing, reason = "epoch snapshots deliberately outlive this method: the schedules are held across the worker free-run and restored by restore_epoch_landings on every round outcome")
            pp.landings = pp.req_out.take_landings(until);
            pp.credits0 = pp.req_out.credits();
            debug_assert!(pp.pops.is_empty() && pp.mailbox.is_empty());
        }
        self.last_activity = None;
    }

    /// Free-runs every shard in this chunk through cycles
    /// `[start, start + len)` against frozen boundary state.
    ///
    /// Shards only read their own ports, their landing schedule (exact
    /// arrival cycles) and, for partitions, an empty scratch ingress; all
    /// cross-shard effects are buffered with their cycles for the
    /// coordinator's replay. The per-cycle sub-order matches the serial
    /// engine: a core lands arrivals before popping (the fabric ticks
    /// before the core phase), a partition pops before landing (the
    /// intake runs before the fabric tick).
    fn run_epoch(&mut self, start: Cycle, len: u64, params: &CoreParams) -> Result<(), SimError> {
        let Self {
            cores,
            parts,
            delivered,
            injected,
            last_activity,
            fault: _,
        } = self;
        for cp in cores.iter_mut() {
            for k in 0..len {
                let now = start + k;
                let mut active = false;
                cp.landings.land_into(now, &mut cp.resp_out)?;
                if let Some(pkt) = cp.resp_out.pop_ejected() {
                    cp.pops.push_back(now.raw());
                    cp.core.accept_response(pkt.fetch, now);
                    *delivered += 1;
                    active = true;
                }
                let before = cp.core.stats().instructions;
                cp.core.cycle(now);
                if cp.core.stats().instructions != before {
                    active = true;
                }
                // The headroom fence guarantees the serial engine's
                // `can_inject` could not refuse during this epoch, so the
                // unconditional drain is bit-identical.
                while let Some(mut fetch) = cp.core.pop_memory_request() {
                    let part = (fetch.line.index() % params.num_partitions) as usize;
                    fetch.partition = Some(PartitionId::new(part as u32));
                    fetch.timeline.icnt_inject = CycleStamp::at(now);
                    let bytes = fetch.request_bytes(params.line_bytes);
                    cp.mailbox.push_back((
                        now.raw(),
                        Packet::new(fetch, part, bytes, params.flit_bytes),
                    ));
                    *injected += 1;
                    active = true;
                }
                cp.core.observe();
                cp.resp_out.observe();
                if active {
                    *last_activity = Some(last_activity.map_or(now.raw(), |a| a.max(now.raw())));
                }
            }
        }
        for pp in parts.iter_mut() {
            for k in 0..len {
                let now = start + k;
                let popped = pp.req_out.ejected_count();
                pp.part.cycle(now, &mut pp.req_out, &mut pp.scratch)?;
                if pp.req_out.ejected_count() != popped {
                    pp.pops.push_back(now.raw());
                }
                pp.landings.land_into(now, &mut pp.req_out)?;
                while let Some(pkt) = pp.scratch.drain() {
                    pp.mailbox.push_back((now.raw(), pkt));
                }
                pp.part.observe();
                pp.req_out.observe();
            }
        }
        Ok(())
    }

    /// Puts unconsumed scheduled arrivals back into the egress pipelines
    /// (front of the in-flight queues: everything forwarded during the
    /// replay arrives at least a full hop later).
    // simlint::allow(port-pairing, reason = "the paired take_landings lives in prepare_epoch; the coordinator calls this on every epoch outcome, success or fault")
    fn restore_epoch_landings(&mut self) {
        for cp in &mut self.cores {
            cp.resp_out
                .restore_landings(std::mem::take(&mut cp.landings));
        }
        for pp in &mut self.parts {
            pp.req_out
                .restore_landings(std::mem::take(&mut pp.landings));
        }
    }

    /// Drops epoch bookkeeping after a faulted epoch (the run aborts at
    /// the next round start; nothing may be committed).
    fn discard_epoch_buffers(&mut self) {
        for cp in &mut self.cores {
            cp.pops.clear();
            cp.mailbox.clear();
        }
        for pp in &mut self.parts {
            pp.pops.clear();
            pp.mailbox.clear();
            while pp.scratch.drain().is_some() {}
        }
    }

    /// True when every shard in this chunk is drained (the chunk's share
    /// of the serial `is_done` condition).
    fn is_idle(&self) -> bool {
        self.cores.iter().all(|cp| {
            cp.core.all_ctas_retired()
                && !cp.core.has_pending_memory()
                && cp.req_in.is_empty()
                && cp.resp_out.is_idle()
        }) && self
            .parts
            .iter()
            .all(|pp| pp.part.is_idle() && pp.req_out.is_idle() && pp.resp_in.is_empty())
    }
}

/// One core shard in fixed-latency mode: responses arrive through the
/// inbox (filled by the coordinator in backend pop order, stamped with
/// their due cycles), requests leave through the outbox (stamped with
/// their issue cycles, drained by the coordinator in cycle-then-core
/// order so backend sequence numbers match the serial engine).
struct FixedPack {
    core: SimtCore,
    inbox: VecDeque<(u64, MemFetch)>,
    outbox: VecDeque<(u64, MemFetch)>,
}

impl FixedPack {
    fn new(core: SimtCore) -> Self {
        FixedPack {
            core,
            inbox: VecDeque::new(),
            outbox: VecDeque::new(),
        }
    }
}

struct FixedChunk {
    cores: Vec<FixedPack>,
    fault: Option<ChunkFault>,
    /// Last cycle of the current epoch at which this chunk changed a
    /// progress-fingerprint counter.
    last_activity: Option<u64>,
}

impl FixedChunk {
    /// Legacy round: one cycle, inbox entries are all due `now`.
    fn phase(&mut self, now: Cycle) {
        for fp in &mut self.cores {
            while let Some((_, fetch)) = fp.inbox.pop_front() {
                fp.core.accept_response(fetch, now);
            }
            fp.core.cycle(now);
            while let Some(mut fetch) = fp.core.pop_memory_request() {
                fetch.timeline.icnt_inject = CycleStamp::at(now);
                fp.outbox.push_back((now.raw(), fetch));
            }
            fp.core.observe();
        }
    }

    /// Free-runs every core through `[start, start + len)`: inbox entries
    /// are delivered at their due cycles, misses buffered with their
    /// issue cycles. The memory heap cannot answer a request submitted at
    /// or after `start` in fewer than `latency >= len` cycles, so the
    /// pre-drained inbox is the complete response schedule.
    fn run_epoch(&mut self, start: Cycle, len: u64) {
        let Self {
            cores,
            last_activity,
            fault: _,
        } = self;
        for fp in cores.iter_mut() {
            for k in 0..len {
                let now = start + k;
                let mut active = false;
                while let Some((due, fetch)) = fp.inbox.pop_front() {
                    if due > now.raw() {
                        fp.inbox.push_front((due, fetch));
                        break;
                    }
                    fp.core.accept_response(fetch, now);
                    active = true;
                }
                let before = fp.core.stats().instructions;
                fp.core.cycle(now);
                if fp.core.stats().instructions != before {
                    active = true;
                }
                while let Some(mut fetch) = fp.core.pop_memory_request() {
                    fetch.timeline.icnt_inject = CycleStamp::at(now);
                    fp.outbox.push_back((now.raw(), fetch));
                    active = true;
                }
                fp.core.observe();
                if active {
                    *last_activity = Some(last_activity.map_or(now.raw(), |a| a.max(now.raw())));
                }
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.cores
            .iter()
            .all(|fp| fp.core.all_ctas_retired() && !fp.core.has_pending_memory())
    }
}

/// What the coordinator decided a round should be.
enum Round {
    /// End the run with this outcome.
    Stop(Outcome),
    /// One per-cycle round with the legacy choreography.
    Legacy,
    /// Free-run `len >= 2` cycles, then replay at the barrier.
    /// `dispatched` records whether this round's preamble assigned CTAs
    /// (it feeds the watchdog's progress attribution).
    Epoch { len: u64, dispatched: bool },
}

/// Epoch accounting surfaced through [`HostPerf`].
#[derive(Default)]
struct EpochStats {
    rounds: u64,
    cycles: u64,
    max_epoch: u64,
}

impl EpochStats {
    fn record(&mut self, len: u64) {
        self.rounds += 1;
        self.cycles += len;
        self.max_epoch = self.max_epoch.max(len);
    }
}

/// Machine-state fences on the epoch length, computed fresh each round.
struct EpochLimits {
    /// Free ingress capacity: the smallest `capacity - occupancy` slack
    /// across every injection path, so the serial engine's `can_inject`
    /// could not refuse anywhere inside the epoch.
    headroom: u64,
    /// Lower bound on the distance to the `is_done` cycle: free-running
    /// past completion would change queue-observation counts.
    completion: u64,
    /// Lower bound on the distance to the next CTA retirement; binding
    /// only while CTAs remain to dispatch (a mid-epoch retirement would
    /// let the serial engine dispatch mid-epoch).
    retirement: u64,
}

/// The largest provably-safe epoch at `now`, as the minimum over every
/// fence. A result below 2 means a legacy per-cycle round.
#[allow(clippy::too_many_arguments)]
fn clamp_epoch(
    base: u64,
    policy_cap: u64,
    now: Cycle,
    max_cycles: u64,
    dispatching: bool,
    chaos_next_fire: u64,
    panic_at: u64,
    watchdog_bound: u64,
    limits: &EpochLimits,
) -> u64 {
    let t = now.raw();
    let mut epoch = base.min(policy_cap);
    epoch = epoch.min(max_cycles.saturating_sub(t));
    epoch = epoch.min(chaos_next_fire.saturating_sub(t));
    epoch = epoch.min(panic_at.saturating_sub(t));
    epoch = epoch.min(watchdog_bound.saturating_sub(t));
    epoch = epoch.min(limits.headroom);
    epoch = epoch.min(limits.completion);
    if dispatching {
        epoch = epoch.min(limits.retirement);
    }
    epoch
}

/// Runs `sim` to completion, bit-identical to `run_stepped`. Entry point
/// for [`GpuSimulator::run_parallel_with`]; `threads == 1` selects the
/// barrier-free inline engine, larger values the threaded engine.
pub(crate) fn run(
    sim: &mut GpuSimulator,
    max_cycles: u64,
    threads: usize,
    policy: EpochPolicy,
) -> Result<SimReport, SimError> {
    let wall_start = host_wall_clock();
    let mut watchdog = sim.watchdog_horizon.map(Watchdog::new);
    let policy_cap = policy.cap();
    let mut stats = EpochStats::default();
    let outcome = match &mut sim.backend {
        Backend::Hierarchy {
            req_xbar,
            resp_xbar,
            partitions,
        } => {
            let params = CoreParams {
                num_partitions: sim.cfg.num_partitions as u64,
                line_bytes: sim.cfg.line_bytes,
                flit_bytes: sim.cfg.noc.flit_bytes,
                hop_latency: sim.cfg.noc.hop_latency,
                input_buffer_pkts: sim.cfg.noc.input_buffer_pkts,
                num_cores: sim.cfg.num_cores,
            };
            let state = HarnessState {
                program: &*sim.program,
                next_cta: &mut sim.next_cta,
                now: &mut sim.now,
                stepped_cycles: &mut sim.stepped_cycles,
                responses_delivered: &mut sim.responses_delivered,
                requests_injected: &mut sim.requests_injected,
                watchdog: watchdog.as_mut(),
                chaos: sim.chaos.as_mut(),
                deadline_seconds: sim.deadline_seconds,
                wall_start: &wall_start,
            };
            if threads <= 1 {
                run_hierarchy_inline(
                    &mut sim.cores,
                    partitions,
                    req_xbar,
                    resp_xbar,
                    params,
                    state,
                    max_cycles,
                    policy_cap,
                    &mut stats,
                )
            } else {
                run_hierarchy(
                    &mut sim.cores,
                    partitions,
                    req_xbar,
                    resp_xbar,
                    params,
                    state,
                    max_cycles,
                    threads,
                    policy_cap,
                    &mut stats,
                )
            }
        }
        // The fixed backend ignores chaos, exactly like the serial engine
        // (its step has no ports or partitions to inject into).
        Backend::Fixed(mem) => {
            let state = HarnessState {
                program: &*sim.program,
                next_cta: &mut sim.next_cta,
                now: &mut sim.now,
                stepped_cycles: &mut sim.stepped_cycles,
                responses_delivered: &mut sim.responses_delivered,
                requests_injected: &mut sim.requests_injected,
                watchdog: watchdog.as_mut(),
                chaos: None,
                deadline_seconds: sim.deadline_seconds,
                wall_start: &wall_start,
            };
            if threads <= 1 {
                run_fixed_inline(
                    &mut sim.cores,
                    mem,
                    state,
                    max_cycles,
                    policy_cap,
                    &mut stats,
                )
            } else {
                run_fixed(
                    &mut sim.cores,
                    mem,
                    state,
                    max_cycles,
                    threads,
                    policy_cap,
                    &mut stats,
                )
            }
        }
    };

    match outcome {
        Outcome::Budget => Err(SimError::Watchdog {
            cycle: sim.now.raw(),
            instructions: sim.total_instructions(),
            detail: sim.liveness_detail(),
        }),
        Outcome::Wedged => {
            let diagnosis = match &watchdog {
                Some(wd) => sim.wedge_diagnosis(wd),
                // Unreachable: Wedged is only produced with a watchdog
                // armed; keep the code total regardless.
                None => sim.wedge_diagnosis(&Watchdog::new(1)),
            };
            Err(SimError::Wedged {
                diagnosis: Box::new(diagnosis),
            })
        }
        Outcome::Degraded { at_cycle } => {
            // The faulted cycle was fully replayed by the coordinator, so
            // the machine state equals the serial engine's at `now` and the
            // sequential resume stays bit-identical.
            sim.degraded = Some(Degradation {
                at_cycle,
                reason: format!(
                    "worker fault at cycle {at_cycle}; cycle replayed by the \
                     coordinator, run resumed on the sequential engine"
                ),
            });
            sim.run_stepped(max_cycles)
        }
        Outcome::Fault(e) => Err(e),
        Outcome::Done => {
            sim.check_conservation()?;
            let wall = wall_start.elapsed_seconds();
            let mut report = sim.report();
            report.host = Some(HostPerf {
                wall_seconds: wall,
                cycles_per_sec: if wall > 0.0 {
                    sim.now.raw() as f64 / wall
                } else {
                    0.0
                },
                stepped_cycles: sim.stepped_cycles,
                skipped_cycles: sim.skipped_cycles(),
                skipped_fraction: if sim.now.raw() > 0 {
                    sim.skipped_cycles() as f64 / sim.now.raw() as f64
                } else {
                    0.0
                },
                threads: threads as u64,
                epoch_rounds: Some(stats.rounds),
                epoch_cycles: Some(stats.cycles),
                max_epoch: Some(stats.max_epoch),
            });
            Ok(report)
        }
    }
}

/// The simulator-global loop state both engines advance, borrowed
/// field-by-field so the backend can be borrowed alongside.
struct HarnessState<'a> {
    program: &'a dyn gpumem_simt::KernelProgram,
    next_cta: &'a mut u32,
    now: &'a mut Cycle,
    stepped_cycles: &'a mut u64,
    responses_delivered: &'a mut u64,
    requests_injected: &'a mut u64,
    watchdog: Option<&'a mut Watchdog>,
    chaos: Option<&'a mut ChaosEngine>,
    deadline_seconds: Option<f64>,
    wall_start: &'a HostStopwatch,
}

/// Dispatches ready CTAs over `cores` exactly like the serial
/// `GpuSimulator::dispatch_ctas`: cores in index order, greedily.
fn dispatch_ctas<'a>(
    cores: impl Iterator<Item = &'a mut SimtCore>,
    program: &dyn gpumem_simt::KernelProgram,
    next_cta: &mut u32,
) {
    let grid = program.grid_ctas();
    if *next_cta >= grid {
        return;
    }
    for core in cores {
        while *next_cta < grid && core.can_accept_cta() {
            core.assign_cta(gpumem_types::CtaId::new(*next_cta));
            *next_cta += 1;
        }
        if *next_cta >= grid {
            break;
        }
    }
}

/// Converts the first recorded chunk fault (scanning in chunk order) into
/// the outcome that ends the run.
fn fault_outcome(faults: impl Iterator<Item = (usize, ChunkFault)>) -> Option<Outcome> {
    faults.into_iter().next().map(|(idx, f)| match f {
        ChunkFault::Injected { cycle } => Outcome::Degraded { at_cycle: cycle },
        ChunkFault::Panic { cycle, message } => Outcome::Fault(SimError::WorkerPanic {
            cycle,
            chunk: idx,
            message,
        }),
        ChunkFault::Error(e) => Outcome::Fault(e),
    })
}

/// The watchdog fingerprint in hierarchy mode (per-chunk counters are
/// merged into the globals only on exit).
fn hier_fingerprint(
    chunks: &[impl DerefMut<Target = HierChunk>],
    state: &HarnessState<'_>,
) -> ProgressFingerprint {
    let instructions: u64 = chunks
        .iter()
        .flat_map(|g| g.cores.iter())
        .map(|cp| cp.core.stats().instructions)
        .sum();
    let delivered = *state.responses_delivered + chunks.iter().map(|g| g.delivered).sum::<u64>();
    let injected = *state.requests_injected + chunks.iter().map(|g| g.injected).sum::<u64>();
    (instructions, delivered, injected, *state.next_cta)
}

/// The cycle at which a per-cycle watchdog would first have seen this
/// epoch's last fingerprint change: activity at cycle `t` is observed at
/// `t + 1`, and a preamble dispatch at the epoch start is observed one
/// cycle later.
fn epoch_progress_at(
    activity: impl Iterator<Item = Option<u64>>,
    dispatched: bool,
    start: Cycle,
) -> Option<Cycle> {
    let mut best: Option<u64> = if dispatched {
        Some(start.raw() + 1)
    } else {
        None
    };
    for seen in activity.flatten() {
        let at = seen + 1;
        best = Some(best.map_or(at, |b| b.max(at)));
    }
    best.map(Cycle::new)
}

/// The cheap fence of a hierarchy epoch: free ingress capacity, O(ports)
/// with an early exit. Congestion-bound workloads pin this below 2 on
/// most cycles, so the preamble checks it before paying the per-warp
/// completion scan of [`hier_epoch_limits`].
fn hier_headroom(chunks: &[impl DerefMut<Target = HierChunk>], params: &CoreParams) -> u64 {
    let mut headroom = u64::MAX;
    for g in chunks.iter() {
        for cp in &g.cores {
            // The request path: everything already queued plus one new
            // miss per cycle must fit the ingress buffer even if the
            // fabric drains nothing.
            let free = params
                .input_buffer_pkts
                .saturating_sub(cp.req_in.len())
                .saturating_sub(cp.core.l1_miss_queue_len());
            headroom = headroom.min(free as u64);
            if headroom < 2 {
                return headroom;
            }
        }
        for pp in &g.parts {
            // The response path: at most one injection per cycle.
            let free = params.input_buffer_pkts.saturating_sub(pp.resp_in.len());
            headroom = headroom.min(free as u64);
            if headroom < 2 {
                return headroom;
            }
        }
    }
    headroom
}

/// Computes the expensive machine-state fences for a hierarchy epoch
/// (per-warp completion and retirement distances); `headroom` comes from
/// [`hier_headroom`], already known to permit an epoch.
fn hier_epoch_limits(chunks: &[impl DerefMut<Target = HierChunk>], headroom: u64) -> EpochLimits {
    let mut limits = EpochLimits {
        headroom,
        completion: 1,
        retirement: u64::MAX,
    };
    for g in chunks.iter() {
        for cp in &g.cores {
            let bounds = cp.core.epoch_bounds();
            // Completion needs every warp finished and every outstanding
            // miss answered (at most one response per core per cycle),
            // so both are lower bounds on the distance to `is_done`.
            limits.completion = limits
                .completion
                .max(bounds.warp_finish)
                .max(cp.core.l1_outstanding_misses() as u64);
            limits.retirement = limits.retirement.min(bounds.cta_retirement);
        }
    }
    limits
}

/// Round preamble shared by the threaded and inline hierarchy engines:
/// faults → is_done → budget → deadline → watchdog → dispatch → chaos
/// (mirroring the serial loop's order exactly), then the epoch decision.
#[allow(clippy::too_many_arguments)]
fn hier_preamble(
    chunks: &mut [impl DerefMut<Target = HierChunk>],
    state: &mut HarnessState<'_>,
    parked: &mut Option<SimError>,
    deadline_check: &mut u64,
    max_cycles: u64,
    policy_cap: u64,
    panic_at: u64,
    params: &CoreParams,
) -> Round {
    if let Some(e) = parked.take() {
        return Round::Stop(Outcome::Fault(e));
    }
    if let Some(outcome) = fault_outcome(
        chunks
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.fault.clone().map(|f| (i, f))),
    ) {
        return Round::Stop(outcome);
    }
    let done = *state.next_cta >= state.program.grid_ctas() && chunks.iter().all(|g| g.is_idle());
    if done {
        return Round::Stop(Outcome::Done);
    }
    if state.now.raw() >= max_cycles {
        return Round::Stop(Outcome::Budget);
    }
    if let Some(budget) = state.deadline_seconds {
        // Watermark form of the serial engine's every-1024-stepped-cycles
        // wall check: epochs advance `stepped_cycles` in jumps, so check
        // at the first round at or past each multiple.
        if *state.stepped_cycles >= *deadline_check {
            *deadline_check = (*state.stepped_cycles / 1024 + 1) * 1024;
            if state.wall_start.elapsed_seconds() > budget {
                return Round::Stop(Outcome::Fault(SimError::DeadlineExceeded {
                    cycle: state.now.raw(),
                    budget_seconds: budget,
                }));
            }
        }
    }
    let mut watchdog_bound = u64::MAX;
    if state.watchdog.is_some() {
        let fp = hier_fingerprint(chunks, state);
        let now = *state.now;
        if let Some(wd) = state.watchdog.as_deref_mut() {
            if wd.observe(now, fp) {
                return Round::Stop(Outcome::Wedged);
            }
            // The serial engine would trip at exactly this cycle if the
            // fingerprint froze; never free-run past it.
            watchdog_bound = wd.last_progress_cycle().raw().saturating_add(wd.horizon());
        }
    }
    let grid = state.program.grid_ctas();
    let cta_before = *state.next_cta;
    dispatch_ctas(
        chunks
            .iter_mut()
            .flat_map(|g| g.cores.iter_mut().map(|cp| &mut cp.core)),
        state.program,
        state.next_cta,
    );
    let dispatched = *state.next_cta != cta_before;
    let dispatching = *state.next_cta < grid;
    let mut chaos_next = u64::MAX;
    if let Some(chaos) = state.chaos.as_deref_mut() {
        // Same injection point and same global port/partition order as the
        // serial step(), so the schedule lands on identical targets at
        // identical cycles.
        let mut req_ins: Vec<&mut IngressPort> = Vec::new();
        let mut resp_ins: Vec<&mut IngressPort> = Vec::new();
        let mut parts: Vec<&mut MemoryPartition> = Vec::new();
        for g in chunks.iter_mut() {
            let chunk = &mut **g;
            for cp in &mut chunk.cores {
                req_ins.push(&mut cp.req_in);
            }
            for pp in &mut chunk.parts {
                resp_ins.push(&mut pp.resp_in);
                parts.push(&mut pp.part);
            }
        }
        chaos.apply(*state.now, &mut req_ins, &mut resp_ins, &mut parts);
        // After apply, every stream's next fire is strictly past `now`;
        // the epoch must end before the machine can be mutated again.
        chaos_next = chaos.next_chaos_fire();
    }
    // Two-stage clamp: the cheap fences (headroom, policy, budget, chaos,
    // watchdog) rule out an epoch on most congested cycles, and only when
    // they all permit one is the per-warp completion scan worth paying.
    // The final length is the same minimum either way — if the cheap pass
    // is already below 2 the full pass could only be smaller, and both
    // mean a legacy round.
    let headroom = hier_headroom(chunks, params);
    let cheap = EpochLimits {
        headroom,
        completion: u64::MAX,
        retirement: u64::MAX,
    };
    let clamp = |limits: &EpochLimits| {
        clamp_epoch(
            params.hop_latency,
            policy_cap,
            *state.now,
            max_cycles,
            dispatching,
            chaos_next,
            panic_at,
            watchdog_bound,
            limits,
        )
    };
    let mut len = clamp(&cheap);
    if len >= 2 {
        len = clamp(&hier_epoch_limits(chunks, headroom));
    }
    if len < 2 {
        Round::Legacy
    } else {
        Round::Epoch { len, dispatched }
    }
}

/// Ticks both fabrics for `now` over every port in global (chunk
/// concatenation) order.
fn tick_fabrics(
    chunks: &mut [impl DerefMut<Target = HierChunk>],
    req_xbar: &mut Crossbar,
    resp_xbar: &mut Crossbar,
    now: Cycle,
) -> Result<(), SimError> {
    let mut req_ins: Vec<&mut IngressPort> = Vec::new();
    let mut req_outs: Vec<&mut EgressPort> = Vec::new();
    let mut resp_ins: Vec<&mut IngressPort> = Vec::new();
    let mut resp_outs: Vec<&mut EgressPort> = Vec::new();
    for g in chunks.iter_mut() {
        let chunk = &mut **g;
        for cp in &mut chunk.cores {
            req_ins.push(&mut cp.req_in);
            resp_outs.push(&mut cp.resp_out);
        }
        for pp in &mut chunk.parts {
            req_outs.push(&mut pp.req_out);
            resp_ins.push(&mut pp.resp_in);
        }
    }
    req_xbar
        .fabric_mut()
        .tick(now, &mut req_ins, &mut req_outs)?;
    resp_xbar
        .fabric_mut()
        .tick(now, &mut resp_ins, &mut resp_outs)
}

/// Replays a free-run epoch against the real fabric, cycle by cycle in
/// the serial interleaving: per cycle, partitions (in global order)
/// return their recorded request-egress credits and commit their
/// buffered response injections, both fabrics tick, cores (in global
/// order) commit their buffered request injections and return their
/// recorded response-egress credits, and every ingress port closes its
/// statistics window. Landing schedules are always restored; a typed
/// fault is returned for the caller to park (the clock must not advance).
fn replay_epoch(
    chunks: &mut [impl DerefMut<Target = HierChunk>],
    req_xbar: &mut Crossbar,
    resp_xbar: &mut Crossbar,
    start: Cycle,
    len: u64,
) -> Option<SimError> {
    // The free-run's pops inflated the credit counts out of order; replay
    // them from the epoch-start baseline at their recorded cycles.
    for g in chunks.iter_mut() {
        for cp in &mut g.cores {
            let baseline = cp.credits0;
            cp.resp_out.set_credits(baseline);
        }
        for pp in &mut g.parts {
            let baseline = pp.credits0;
            pp.req_out.set_credits(baseline);
        }
    }
    let mut fault: Option<SimError> = None;
    'cycles: for k in 0..len {
        let now = start + k;
        for g in chunks.iter_mut() {
            for pp in &mut g.parts {
                if pp.pops.front() == Some(&now.raw()) {
                    pp.pops.pop_front();
                    let credits = pp.req_out.credits();
                    pp.req_out.set_credits(credits + 1);
                }
                while let Some((at, pkt)) = pp.mailbox.pop_front() {
                    if at != now.raw() {
                        pp.mailbox.push_front((at, pkt));
                        break;
                    }
                    if pp.resp_in.try_inject(pkt).is_err() {
                        // Unreachable: the headroom fence sized the epoch
                        // so the port cannot fill. Surface a typed error
                        // rather than corrupting state.
                        fault = Some(SimError::PortProtocol {
                            component: "l2_partition",
                            cycle: now.raw(),
                            detail: "response crossbar rejected an injection after can_inject"
                                .to_owned(),
                        });
                        break 'cycles;
                    }
                }
            }
        }
        if let Err(e) = tick_fabrics(chunks, req_xbar, resp_xbar, now) {
            fault = Some(e);
            break 'cycles;
        }
        for g in chunks.iter_mut() {
            for cp in &mut g.cores {
                while let Some((at, pkt)) = cp.mailbox.pop_front() {
                    if at != now.raw() {
                        cp.mailbox.push_front((at, pkt));
                        break;
                    }
                    if cp.req_in.try_inject(pkt).is_err() {
                        fault = Some(SimError::PortProtocol {
                            component: "core",
                            cycle: now.raw(),
                            detail: "request crossbar rejected an injection after can_inject"
                                .to_owned(),
                        });
                        break 'cycles;
                    }
                }
                if cp.pops.front() == Some(&now.raw()) {
                    cp.pops.pop_front();
                    let credits = cp.resp_out.credits();
                    cp.resp_out.set_credits(credits + 1);
                }
            }
        }
        for g in chunks.iter_mut() {
            for cp in &mut g.cores {
                cp.req_in.observe();
            }
            for pp in &mut g.parts {
                pp.resp_in.observe();
            }
        }
    }
    for g in chunks.iter_mut() {
        g.restore_epoch_landings();
        if fault.is_some() {
            g.discard_epoch_buffers();
        } else {
            debug_assert!(g
                .cores
                .iter()
                .all(|cp| cp.pops.is_empty() && cp.mailbox.is_empty()));
            debug_assert!(g
                .parts
                .iter()
                .all(|pp| pp.pops.is_empty() && pp.mailbox.is_empty()));
        }
    }
    fault
}

/// Closes a successfully replayed hierarchy epoch: watchdog epoch
/// observation (with serial-exact progress attribution), clock and
/// statistics advance.
fn finish_hier_epoch(
    chunks: &mut [impl DerefMut<Target = HierChunk>],
    state: &mut HarnessState<'_>,
    start: Cycle,
    len: u64,
    dispatched: bool,
    stats: &mut EpochStats,
) {
    let end = start + len;
    if state.watchdog.is_some() {
        let fp = hier_fingerprint(chunks, state);
        let progress = epoch_progress_at(chunks.iter().map(|g| g.last_activity), dispatched, start);
        if let Some(wd) = state.watchdog.as_deref_mut() {
            wd.observe_epoch(end, fp, progress);
        }
    }
    *state.stepped_cycles += len;
    *state.now = end;
    stats.record(len);
}

/// The crossbar port vectors of a reassembled machine, in global order,
/// ready for `restore_ports` (which the engine functions call themselves
/// so every `take_ports` pairs with its restore in one body).
type HierPorts = (
    Vec<IngressPort>,
    Vec<EgressPort>,
    Vec<IngressPort>,
    Vec<EgressPort>,
);

/// Reassembles cores, partitions and counters from hierarchy chunks and
/// returns the port vectors. Chunk order is global order by construction,
/// so a straight concatenation restores every index.
fn reassemble_hierarchy(
    chunks: impl IntoIterator<Item = HierChunk>,
    cores: &mut Vec<SimtCore>,
    partitions: &mut Vec<MemoryPartition>,
    state: &mut HarnessState<'_>,
) -> HierPorts {
    let mut req_ins = Vec::new();
    let mut req_outs = Vec::new();
    let mut resp_ins = Vec::new();
    let mut resp_outs = Vec::new();
    for chunk in chunks {
        for cp in chunk.cores {
            cores.push(cp.core);
            req_ins.push(cp.req_in);
            resp_outs.push(cp.resp_out);
        }
        for pp in chunk.parts {
            partitions.push(pp.part);
            req_outs.push(pp.req_out);
            resp_ins.push(pp.resp_in);
        }
        *state.responses_delivered += chunk.delivered;
        *state.requests_injected += chunk.injected;
    }
    (req_ins, req_outs, resp_ins, resp_outs)
}

#[allow(clippy::too_many_arguments)]
fn run_hierarchy(
    cores: &mut Vec<SimtCore>,
    partitions: &mut Vec<MemoryPartition>,
    req_xbar: &mut Crossbar,
    resp_xbar: &mut Crossbar,
    params: CoreParams,
    mut state: HarnessState<'_>,
    max_cycles: u64,
    threads: usize,
    policy_cap: u64,
    stats: &mut EpochStats,
) -> Outcome {
    let num_cores = cores.len();
    let num_parts = partitions.len();
    let core_ranges = split_ranges(num_cores, threads);
    let part_ranges = split_ranges(num_parts, threads);

    // Dismantle the machine into per-worker chunks; chunk order
    // concatenates to global port order.
    let (req_ins, req_outs) = req_xbar.take_ports();
    let (resp_ins, resp_outs) = resp_xbar.take_ports();
    let mut core_src = cores.drain(..).zip(req_ins).zip(resp_outs);
    let mut part_src = partitions.drain(..).zip(req_outs).zip(resp_ins);
    let chunks: Vec<Mutex<HierChunk>> = (0..threads)
        .map(|i| {
            let (c_lo, c_hi) = core_ranges[i];
            let (p_lo, p_hi) = part_ranges[i];
            Mutex::new(HierChunk {
                cores: (&mut core_src)
                    .take(c_hi - c_lo)
                    .map(|((core, req_in), resp_out)| CorePack::new(core, req_in, resp_out))
                    .collect(),
                parts: (&mut part_src)
                    .take(p_hi - p_lo)
                    .map(|((part, req_out), resp_in)| {
                        PartPack::new(part, req_out, resp_in, &params)
                    })
                    .collect(),
                delivered: 0,
                injected: 0,
                fault: None,
                last_activity: None,
            })
        })
        .collect();
    debug_assert!(core_src.next().is_none() && part_src.next().is_none());
    drop(core_src);
    drop(part_src);

    let barrier = SpinBarrier::new(threads + 1);
    let exit = AtomicBool::new(false);
    let now_cell = AtomicU64::new(state.now.raw());
    // The round command: 0 = legacy per-cycle round, >= 2 = epoch length.
    let epoch_cell = AtomicU64::new(0);
    // One "this worker died" flag per chunk, outside the chunk mutex so the
    // coordinator can poll it without locking.
    let dead: Vec<AtomicBool> = (0..threads).map(|_| AtomicBool::new(false)).collect();
    // The seeded worker-death fixture, if configured (chunk 0 only).
    let panic_at: u64 = state
        .chaos
        .as_deref()
        .and_then(ChaosEngine::worker_panic_at)
        .unwrap_or(u64::MAX);

    let outcome = std::thread::scope(|s| {
        for (idx, chunk) in chunks.iter().enumerate() {
            let barrier = &barrier;
            let exit = &exit;
            let now_cell = &now_cell;
            let epoch_cell = &epoch_cell;
            let my_dead = &dead[idx];
            s.spawn(move || loop {
                barrier.wait(); // 1: round start (or shutdown)
                if exit.load(Ordering::Acquire) {
                    break;
                }
                let now = Cycle::new(now_cell.load(Ordering::Acquire));
                if idx == 0 && now.raw() >= panic_at && !my_dead.load(Ordering::Acquire) {
                    // Simulated worker death at the shard boundary: this
                    // round's state is untouched, so the coordinator can
                    // replay both phases and degrade gracefully. The epoch
                    // clamp guarantees this only fires in a legacy round.
                    my_dead.store(true, Ordering::Release);
                    lock(chunk).fault = Some(ChunkFault::Injected { cycle: now.raw() });
                }
                let epoch = epoch_cell.load(Ordering::Acquire);
                if epoch >= 2 {
                    if !my_dead.load(Ordering::Acquire) {
                        match catch_unwind(AssertUnwindSafe(|| {
                            lock(chunk).run_epoch(now, epoch, &params)
                        })) {
                            Ok(Ok(())) => {}
                            Ok(Err(e)) => {
                                my_dead.store(true, Ordering::Release);
                                lock(chunk).fault = Some(ChunkFault::Error(e));
                            }
                            Err(payload) => {
                                my_dead.store(true, Ordering::Release);
                                lock(chunk).fault = Some(ChunkFault::Panic {
                                    cycle: now.raw(),
                                    message: panic_message(payload.as_ref()),
                                });
                            }
                        }
                    }
                    barrier.wait(); // 2: free-run complete → replay
                    continue;
                }
                if !my_dead.load(Ordering::Acquire) {
                    match catch_unwind(AssertUnwindSafe(|| lock(chunk).phase_partitions(now))) {
                        Ok(Ok(())) => {}
                        Ok(Err(e)) => {
                            my_dead.store(true, Ordering::Release);
                            lock(chunk).fault = Some(ChunkFault::Error(e));
                        }
                        Err(payload) => {
                            my_dead.store(true, Ordering::Release);
                            lock(chunk).fault = Some(ChunkFault::Panic {
                                cycle: now.raw(),
                                message: panic_message(payload.as_ref()),
                            });
                        }
                    }
                }
                barrier.wait(); // 2: partitions done → fabric may tick
                barrier.wait(); // 3: fabric done → cores may run
                if !my_dead.load(Ordering::Acquire) {
                    match catch_unwind(AssertUnwindSafe(|| lock(chunk).phase_cores(now, &params))) {
                        Ok(Ok(())) => {}
                        Ok(Err(e)) => {
                            my_dead.store(true, Ordering::Release);
                            lock(chunk).fault = Some(ChunkFault::Error(e));
                        }
                        Err(payload) => {
                            my_dead.store(true, Ordering::Release);
                            lock(chunk).fault = Some(ChunkFault::Panic {
                                cycle: now.raw(),
                                message: panic_message(payload.as_ref()),
                            });
                        }
                    }
                }
                barrier.wait(); // 4: cycle closed
            });
        }

        // Coordinator loop (this thread). Workers are parked at a barrier
        // whenever it locks chunks, so the locks never contend.
        let mut coordinator_fault: Option<SimError> = None;
        let mut deadline_check = 0u64;
        let outcome = loop {
            let round = {
                let mut guards: Vec<_> = chunks.iter().map(lock).collect();
                let round = hier_preamble(
                    &mut guards,
                    &mut state,
                    &mut coordinator_fault,
                    &mut deadline_check,
                    max_cycles,
                    policy_cap,
                    panic_at,
                    &params,
                );
                if let Round::Epoch { len, .. } = round {
                    let until = *state.now + len;
                    for g in guards.iter_mut() {
                        g.prepare_epoch(until);
                    }
                }
                round
            };
            let now = *state.now;
            match round {
                Round::Stop(outcome) => {
                    exit.store(true, Ordering::Release);
                    break outcome;
                }
                Round::Legacy => {
                    now_cell.store(now.raw(), Ordering::Release);
                    epoch_cell.store(0, Ordering::Release);
                    barrier.wait(); // 1
                    barrier.wait(); // 2: partition phase complete
                    {
                        let mut guards: Vec<_> = chunks.iter().map(lock).collect();
                        // Replay the partition phase of freshly-dead chunks
                        // whose fault struck before the phase ran (injected
                        // faults only; organic faults abort at the next
                        // round start anyway).
                        for (i, g) in guards.iter_mut().enumerate() {
                            if dead[i].load(Ordering::Acquire)
                                && matches!(g.fault, Some(ChunkFault::Injected { .. }))
                            {
                                if let Err(e) = g.phase_partitions(now) {
                                    g.fault = Some(ChunkFault::Error(e));
                                }
                            }
                        }
                        // No `?` here: the ports are dismantled, so a typed
                        // error is parked and surfaced at the next round
                        // start.
                        if let Err(e) = tick_fabrics(&mut guards, req_xbar, resp_xbar, now) {
                            coordinator_fault = Some(e);
                        }
                    }
                    barrier.wait(); // 3
                    barrier.wait(); // 4: core phase complete
                    if dead.iter().any(|d| d.load(Ordering::Acquire)) {
                        let mut guards: Vec<_> = chunks.iter().map(lock).collect();
                        for (i, g) in guards.iter_mut().enumerate() {
                            if dead[i].load(Ordering::Acquire)
                                && matches!(g.fault, Some(ChunkFault::Injected { .. }))
                            {
                                if let Err(e) = g.phase_cores(now, &params) {
                                    g.fault = Some(ChunkFault::Error(e));
                                }
                            }
                        }
                    }
                    *state.stepped_cycles += 1;
                    *state.now = now.next();
                }
                Round::Epoch { len, dispatched } => {
                    now_cell.store(now.raw(), Ordering::Release);
                    epoch_cell.store(len, Ordering::Release);
                    barrier.wait(); // 1
                    barrier.wait(); // 2: free-run complete
                    let mut guards: Vec<_> = chunks.iter().map(lock).collect();
                    if dead.iter().any(|d| d.load(Ordering::Acquire)) {
                        // A fault tore mid-epoch state: roll back what can
                        // be rolled back and abort at the next round start
                        // without advancing the clock.
                        for g in guards.iter_mut() {
                            g.restore_epoch_landings();
                            g.discard_epoch_buffers();
                        }
                    } else if let Some(e) = replay_epoch(&mut guards, req_xbar, resp_xbar, now, len)
                    {
                        coordinator_fault = Some(e);
                    } else {
                        finish_hier_epoch(&mut guards, &mut state, now, len, dispatched, stats);
                    }
                }
            }
        };
        barrier.wait(); // release workers into the shutdown branch
        outcome
    });

    let (req_ins, req_outs, resp_ins, resp_outs) = reassemble_hierarchy(
        chunks
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner)),
        cores,
        partitions,
        &mut state,
    );
    req_xbar.restore_ports(req_ins, req_outs);
    resp_xbar.restore_ports(resp_ins, resp_outs);
    outcome
}

/// One legacy cycle on the inline engine: the same partitions → fabric →
/// cores order as the threaded choreography, without the barriers.
fn inline_legacy_cycle(
    chunk: &mut HierChunk,
    req_xbar: &mut Crossbar,
    resp_xbar: &mut Crossbar,
    now: Cycle,
    params: &CoreParams,
) -> Result<(), SimError> {
    chunk.phase_partitions(now)?;
    tick_fabrics(&mut [&mut *chunk], req_xbar, resp_xbar, now)?;
    chunk.phase_cores(now, params)
}

/// The single-thread hierarchy engine: the whole machine is one chunk on
/// the calling thread — no spin barrier, no mutex, no `catch_unwind`, and
/// the [`ChaosConfig::worker_panic_at`] fixture is ignored (there is no
/// worker to kill). Epoch logic is shared with the threaded engine, so
/// reports stay bit-identical to `run_stepped` while synchronization
/// overhead drops to zero.
#[allow(clippy::too_many_arguments)]
fn run_hierarchy_inline(
    cores: &mut Vec<SimtCore>,
    partitions: &mut Vec<MemoryPartition>,
    req_xbar: &mut Crossbar,
    resp_xbar: &mut Crossbar,
    params: CoreParams,
    mut state: HarnessState<'_>,
    max_cycles: u64,
    policy_cap: u64,
    stats: &mut EpochStats,
) -> Outcome {
    let (req_ins, req_outs) = req_xbar.take_ports();
    let (resp_ins, resp_outs) = resp_xbar.take_ports();
    let mut chunk = HierChunk {
        cores: cores
            .drain(..)
            .zip(req_ins)
            .zip(resp_outs)
            .map(|((core, req_in), resp_out)| CorePack::new(core, req_in, resp_out))
            .collect(),
        parts: partitions
            .drain(..)
            .zip(req_outs)
            .zip(resp_ins)
            .map(|((part, req_out), resp_in)| PartPack::new(part, req_out, resp_in, &params))
            .collect(),
        delivered: 0,
        injected: 0,
        fault: None,
        last_activity: None,
    };
    let mut parked: Option<SimError> = None;
    let mut deadline_check = 0u64;
    let outcome = loop {
        let round = {
            let mut view = [&mut chunk];
            let round = hier_preamble(
                &mut view,
                &mut state,
                &mut parked,
                &mut deadline_check,
                max_cycles,
                policy_cap,
                u64::MAX,
                &params,
            );
            if let Round::Epoch { len, .. } = round {
                view[0].prepare_epoch(*state.now + len);
            }
            round
        };
        let now = *state.now;
        match round {
            Round::Stop(outcome) => break outcome,
            Round::Legacy => {
                if let Err(e) = inline_legacy_cycle(&mut chunk, req_xbar, resp_xbar, now, &params) {
                    break Outcome::Fault(e);
                }
                *state.stepped_cycles += 1;
                *state.now = now.next();
            }
            Round::Epoch { len, dispatched } => {
                if let Err(e) = chunk.run_epoch(now, len, &params) {
                    chunk.restore_epoch_landings();
                    chunk.discard_epoch_buffers();
                    break Outcome::Fault(e);
                }
                let mut view = [&mut chunk];
                if let Some(e) = replay_epoch(&mut view, req_xbar, resp_xbar, now, len) {
                    break Outcome::Fault(e);
                }
                finish_hier_epoch(&mut view, &mut state, now, len, dispatched, stats);
            }
        }
    };
    let (req_ins, req_outs, resp_ins, resp_outs) =
        reassemble_hierarchy(std::iter::once(chunk), cores, partitions, &mut state);
    req_xbar.restore_ports(req_ins, req_outs);
    resp_xbar.restore_ports(resp_ins, resp_outs);
    outcome
}

/// The watchdog fingerprint in fixed-latency mode (delivered/injected
/// counters live in the globals, updated by the coordinator).
fn fixed_fingerprint(
    chunks: &[impl DerefMut<Target = FixedChunk>],
    state: &HarnessState<'_>,
) -> ProgressFingerprint {
    let instructions: u64 = chunks
        .iter()
        .flat_map(|g| g.cores.iter())
        .map(|fp| fp.core.stats().instructions)
        .sum();
    (
        instructions,
        *state.responses_delivered,
        *state.requests_injected,
        *state.next_cta,
    )
}

/// Round preamble shared by the threaded and inline fixed-latency
/// engines. The epoch base is the memory latency: the heap cannot answer
/// a request submitted inside the epoch before the epoch ends, so the
/// pre-drained inbox schedule is complete.
fn fixed_preamble(
    chunks: &mut [impl DerefMut<Target = FixedChunk>],
    mem: &FixedLatencyMemory,
    state: &mut HarnessState<'_>,
    deadline_check: &mut u64,
    max_cycles: u64,
    policy_cap: u64,
) -> Round {
    if let Some(outcome) = fault_outcome(
        chunks
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.fault.clone().map(|f| (i, f))),
    ) {
        return Round::Stop(outcome);
    }
    let done = *state.next_cta >= state.program.grid_ctas()
        && chunks.iter().all(|g| g.is_idle())
        && mem.is_idle();
    if done {
        return Round::Stop(Outcome::Done);
    }
    if state.now.raw() >= max_cycles {
        return Round::Stop(Outcome::Budget);
    }
    if let Some(budget) = state.deadline_seconds {
        if *state.stepped_cycles >= *deadline_check {
            *deadline_check = (*state.stepped_cycles / 1024 + 1) * 1024;
            if state.wall_start.elapsed_seconds() > budget {
                return Round::Stop(Outcome::Fault(SimError::DeadlineExceeded {
                    cycle: state.now.raw(),
                    budget_seconds: budget,
                }));
            }
        }
    }
    let mut watchdog_bound = u64::MAX;
    if state.watchdog.is_some() {
        let fp = fixed_fingerprint(chunks, state);
        let now = *state.now;
        if let Some(wd) = state.watchdog.as_deref_mut() {
            if wd.observe(now, fp) {
                return Round::Stop(Outcome::Wedged);
            }
            watchdog_bound = wd.last_progress_cycle().raw().saturating_add(wd.horizon());
        }
    }
    let grid = state.program.grid_ctas();
    let cta_before = *state.next_cta;
    dispatch_ctas(
        chunks
            .iter_mut()
            .flat_map(|g| g.cores.iter_mut().map(|fp| &mut fp.core)),
        state.program,
        state.next_cta,
    );
    let dispatched = *state.next_cta != cta_before;
    let dispatching = *state.next_cta < grid;
    // The done check at a cycle can only pass once the heap is empty, so
    // the earliest pending due cycle bounds the completion distance; the
    // per-core epoch bounds cover the compute side.
    let heap_bound = mem
        .next_event(*state.now)
        .map_or(0, |due| due.since(*state.now) + 1);
    let mut completion = 1u64.max(heap_bound);
    let mut retirement = u64::MAX;
    for g in chunks.iter() {
        for fp in &g.cores {
            let bounds = fp.core.epoch_bounds();
            completion = completion.max(bounds.warp_finish);
            retirement = retirement.min(bounds.cta_retirement);
        }
    }
    let limits = EpochLimits {
        headroom: u64::MAX,
        completion,
        retirement,
    };
    let len = clamp_epoch(
        mem.latency(),
        policy_cap,
        *state.now,
        max_cycles,
        dispatching,
        u64::MAX,
        u64::MAX,
        watchdog_bound,
        &limits,
    );
    if len < 2 {
        Round::Legacy
    } else {
        Round::Epoch { len, dispatched }
    }
}

/// Closes a fixed-latency epoch: watchdog epoch observation, clock and
/// statistics advance.
fn finish_fixed_epoch(
    chunks: &mut [impl DerefMut<Target = FixedChunk>],
    state: &mut HarnessState<'_>,
    start: Cycle,
    len: u64,
    dispatched: bool,
    stats: &mut EpochStats,
) {
    let end = start + len;
    if state.watchdog.is_some() {
        let fp = fixed_fingerprint(chunks, state);
        let progress = epoch_progress_at(chunks.iter().map(|g| g.last_activity), dispatched, start);
        if let Some(wd) = state.watchdog.as_deref_mut() {
            wd.observe_epoch(end, fp, progress);
        }
    }
    *state.stepped_cycles += len;
    *state.now = end;
    stats.record(len);
}

fn run_fixed(
    cores: &mut Vec<SimtCore>,
    mem: &mut FixedLatencyMemory,
    mut state: HarnessState<'_>,
    max_cycles: u64,
    threads: usize,
    policy_cap: u64,
    stats: &mut EpochStats,
) -> Outcome {
    let num_cores = cores.len();
    let core_ranges = split_ranges(num_cores, threads);
    // core index → (chunk, index within chunk), for inbox routing.
    let locate: Vec<(usize, usize)> = core_ranges
        .iter()
        .enumerate()
        .flat_map(|(chunk, &(lo, hi))| (lo..hi).map(move |c| (chunk, c - lo)))
        .collect();

    let mut core_src = cores.drain(..);
    let chunks: Vec<Mutex<FixedChunk>> = core_ranges
        .iter()
        .map(|&(lo, hi)| {
            Mutex::new(FixedChunk {
                cores: (&mut core_src).take(hi - lo).map(FixedPack::new).collect(),
                fault: None,
                last_activity: None,
            })
        })
        .collect();
    debug_assert!(core_src.next().is_none());
    drop(core_src);

    let barrier = SpinBarrier::new(threads + 1);
    let exit = AtomicBool::new(false);
    let now_cell = AtomicU64::new(state.now.raw());
    let epoch_cell = AtomicU64::new(0);
    let dead: Vec<AtomicBool> = (0..threads).map(|_| AtomicBool::new(false)).collect();

    let outcome = std::thread::scope(|s| {
        for (idx, chunk) in chunks.iter().enumerate() {
            let barrier = &barrier;
            let exit = &exit;
            let now_cell = &now_cell;
            let epoch_cell = &epoch_cell;
            let my_dead = &dead[idx];
            s.spawn(move || loop {
                barrier.wait(); // 1: round start (or shutdown)
                if exit.load(Ordering::Acquire) {
                    break;
                }
                let now = Cycle::new(now_cell.load(Ordering::Acquire));
                let epoch = epoch_cell.load(Ordering::Acquire);
                if !my_dead.load(Ordering::Acquire) {
                    let phase = catch_unwind(AssertUnwindSafe(|| {
                        let mut g = lock(chunk);
                        if epoch >= 2 {
                            g.run_epoch(now, epoch);
                        } else {
                            g.phase(now);
                        }
                    }));
                    if let Err(payload) = phase {
                        my_dead.store(true, Ordering::Release);
                        lock(chunk).fault = Some(ChunkFault::Panic {
                            cycle: now.raw(),
                            message: panic_message(payload.as_ref()),
                        });
                    }
                }
                barrier.wait(); // 2: round closed
            });
        }

        let mut deadline_check = 0u64;
        let outcome = loop {
            let round = {
                let mut guards: Vec<_> = chunks.iter().map(lock).collect();
                let round = fixed_preamble(
                    &mut guards,
                    mem,
                    &mut state,
                    &mut deadline_check,
                    max_cycles,
                    policy_cap,
                );
                // Route responses to their cores' inboxes. The backend
                // pops in (due, seq) order, so each inbox receives its
                // core's responses in exactly the serial order; epochs
                // pre-drain the whole window, stamping due cycles for the
                // free-run to honour.
                match round {
                    Round::Legacy => {
                        let now = *state.now;
                        while let Some(fetch) = mem.pop_due(now) {
                            let (chunk, local) = locate[fetch.core.index()];
                            guards[chunk].cores[local]
                                .inbox
                                .push_back((now.raw(), fetch));
                            *state.responses_delivered += 1;
                        }
                    }
                    Round::Epoch { len, .. } => {
                        let last = *state.now + (len - 1);
                        while let Some((due, fetch)) = mem.pop_due_at(last) {
                            let (chunk, local) = locate[fetch.core.index()];
                            guards[chunk].cores[local]
                                .inbox
                                .push_back((due.raw(), fetch));
                            *state.responses_delivered += 1;
                        }
                        for g in guards.iter_mut() {
                            g.last_activity = None;
                        }
                    }
                    Round::Stop(_) => {}
                }
                round
            };
            let now = *state.now;
            match round {
                Round::Stop(outcome) => {
                    exit.store(true, Ordering::Release);
                    break outcome;
                }
                Round::Legacy => {
                    now_cell.store(now.raw(), Ordering::Release);
                    epoch_cell.store(0, Ordering::Release);
                    barrier.wait(); // 1
                    barrier.wait(); // 2: core phase complete
                    {
                        // Submit buffered requests in core index order: the
                        // backend stamps arrival sequence numbers, and this
                        // order is exactly the serial engine's.
                        let mut guards: Vec<_> = chunks.iter().map(lock).collect();
                        for g in guards.iter_mut() {
                            for fp in &mut g.cores {
                                for (_, fetch) in fp.outbox.drain(..) {
                                    *state.requests_injected += 1;
                                    mem.submit(fetch, now);
                                }
                            }
                        }
                    }
                    *state.stepped_cycles += 1;
                    *state.now = now.next();
                }
                Round::Epoch { len, dispatched } => {
                    now_cell.store(now.raw(), Ordering::Release);
                    epoch_cell.store(len, Ordering::Release);
                    barrier.wait(); // 1
                    barrier.wait(); // 2: free-run complete
                    let mut guards: Vec<_> = chunks.iter().map(lock).collect();
                    if dead.iter().any(|d| d.load(Ordering::Acquire)) {
                        // Organic fault mid-epoch: drop the buffers and
                        // abort at the next round start without advancing.
                        for g in guards.iter_mut() {
                            for fp in &mut g.cores {
                                fp.inbox.clear();
                                fp.outbox.clear();
                            }
                        }
                    } else {
                        // Replay submissions in cycle-then-core order: the
                        // backend's sequence numbers match the serial
                        // engine's exactly.
                        for k in 0..len {
                            let t = now + k;
                            for g in guards.iter_mut() {
                                for fp in &mut g.cores {
                                    while let Some((at, fetch)) = fp.outbox.pop_front() {
                                        if at != t.raw() {
                                            fp.outbox.push_front((at, fetch));
                                            break;
                                        }
                                        *state.requests_injected += 1;
                                        mem.submit(fetch, t);
                                    }
                                }
                            }
                        }
                        finish_fixed_epoch(&mut guards, &mut state, now, len, dispatched, stats);
                    }
                }
            }
        };
        barrier.wait(); // release workers into the shutdown branch
        outcome
    });

    for chunk in chunks {
        let chunk = chunk.into_inner().unwrap_or_else(PoisonError::into_inner);
        for fp in chunk.cores {
            cores.push(fp.core);
        }
    }
    outcome
}

/// The single-thread fixed-latency engine: one chunk, no barriers, no
/// mutexes; identical epoch logic to the threaded engine.
fn run_fixed_inline(
    cores: &mut Vec<SimtCore>,
    mem: &mut FixedLatencyMemory,
    mut state: HarnessState<'_>,
    max_cycles: u64,
    policy_cap: u64,
    stats: &mut EpochStats,
) -> Outcome {
    let mut chunk = FixedChunk {
        cores: cores.drain(..).map(FixedPack::new).collect(),
        fault: None,
        last_activity: None,
    };
    let mut deadline_check = 0u64;
    let outcome = loop {
        let round = {
            let mut view = [&mut chunk];
            fixed_preamble(
                &mut view,
                mem,
                &mut state,
                &mut deadline_check,
                max_cycles,
                policy_cap,
            )
        };
        let now = *state.now;
        match round {
            Round::Stop(outcome) => break outcome,
            Round::Legacy => {
                while let Some(fetch) = mem.pop_due(now) {
                    chunk.cores[fetch.core.index()]
                        .inbox
                        .push_back((now.raw(), fetch));
                    *state.responses_delivered += 1;
                }
                chunk.phase(now);
                for fp in &mut chunk.cores {
                    for (_, fetch) in fp.outbox.drain(..) {
                        *state.requests_injected += 1;
                        mem.submit(fetch, now);
                    }
                }
                *state.stepped_cycles += 1;
                *state.now = now.next();
            }
            Round::Epoch { len, dispatched } => {
                chunk.last_activity = None;
                let last = now + (len - 1);
                while let Some((due, fetch)) = mem.pop_due_at(last) {
                    chunk.cores[fetch.core.index()]
                        .inbox
                        .push_back((due.raw(), fetch));
                    *state.responses_delivered += 1;
                }
                chunk.run_epoch(now, len);
                for k in 0..len {
                    let t = now + k;
                    for fp in &mut chunk.cores {
                        while let Some((at, fetch)) = fp.outbox.pop_front() {
                            if at != t.raw() {
                                fp.outbox.push_front((at, fetch));
                                break;
                            }
                            *state.requests_injected += 1;
                            mem.submit(fetch, t);
                        }
                    }
                }
                finish_fixed_epoch(&mut [&mut chunk], &mut state, now, len, dispatched, stats);
            }
        }
    };
    for fp in chunk.cores {
        cores.push(fp.core);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_cover_contiguously() {
        for n in 0..20 {
            for chunks in 1..8 {
                let r = split_ranges(n, chunks);
                assert_eq!(r.len(), chunks);
                assert_eq!(r[0].0, 0);
                assert_eq!(r[chunks - 1].1, n);
                for w in r.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                }
            }
        }
    }

    #[test]
    fn spin_barrier_synchronizes_rounds() {
        let barrier = SpinBarrier::new(4);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for round in 1..=50 {
                        counter.fetch_add(1, Ordering::AcqRel);
                        barrier.wait();
                        // Between barriers every thread observes the full
                        // round's worth of increments.
                        assert!(counter.load(Ordering::Acquire) >= round * 4);
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Acquire), 200);
    }

    #[test]
    fn clamp_epoch_honours_every_fence() {
        let limits = EpochLimits {
            headroom: 10,
            completion: 9,
            retirement: 7,
        };
        let wide = u64::MAX;
        let at = Cycle::new(100);
        // Unfenced: the cross-shard base wins.
        assert_eq!(
            clamp_epoch(6, wide, at, 1000, false, wide, wide, wide, &limits),
            6
        );
        // The policy cap wins when tighter.
        assert_eq!(
            clamp_epoch(6, 3, at, 1000, false, wide, wide, wide, &limits),
            3
        );
        // Cycle budget fence.
        assert_eq!(
            clamp_epoch(
                6,
                wide,
                Cycle::new(996),
                1000,
                false,
                wide,
                wide,
                wide,
                &limits
            ),
            4
        );
        // Chaos schedule fence.
        assert_eq!(
            clamp_epoch(6, wide, at, 1000, false, 103, wide, wide, &limits),
            3
        );
        // Injected worker-panic fence.
        assert_eq!(
            clamp_epoch(6, wide, at, 1000, false, wide, 102, wide, &limits),
            2
        );
        // Watchdog horizon fence.
        assert_eq!(
            clamp_epoch(6, wide, at, 1000, false, wide, wide, 101, &limits),
            1
        );
        // Completion fence binds whenever it is the minimum.
        assert_eq!(
            clamp_epoch(20, wide, at, 1000, false, wide, wide, wide, &limits),
            9
        );
        // Retirement binds only while CTAs remain to dispatch.
        assert_eq!(
            clamp_epoch(20, wide, at, 1000, true, wide, wide, wide, &limits),
            7
        );
        // Headroom fence.
        let tight = EpochLimits {
            headroom: 5,
            completion: 9,
            retirement: 7,
        };
        assert_eq!(
            clamp_epoch(20, wide, at, 1000, false, wide, wide, wide, &tight),
            5
        );
        // An expired fence collapses to zero, not underflow.
        assert_eq!(
            clamp_epoch(6, wide, at, 100, false, wide, wide, wide, &limits),
            0
        );
    }

    use std::sync::Arc;

    use gpumem_config::GpuConfig;
    use gpumem_types::{CtaId, LineAddr};

    use crate::chaos::ChaosConfig;
    use crate::gpu::MemoryMode;
    use crate::{GpuSimulator, SimReport};
    use gpumem_simt::{KernelProgram, WarpInstr};

    /// A memory-heavy kernel with an exact instruction-count hint, so the
    /// retirement fence permits epochs even while CTAs are dispatching.
    struct EpochStream;

    const STREAM_INSTRS: u32 = 8;

    impl KernelProgram for EpochStream {
        fn name(&self) -> &str {
            "epoch-stream"
        }
        fn grid_ctas(&self) -> u32 {
            12
        }
        fn warps_per_cta(&self) -> u32 {
            2
        }
        fn warp_instr_count(&self, _cta: CtaId, _warp: u32) -> Option<u32> {
            Some(STREAM_INSTRS)
        }
        fn instr(&self, cta: CtaId, warp: u32, pc: u32) -> Option<WarpInstr> {
            if pc >= STREAM_INSTRS {
                return None;
            }
            let g = u64::from(cta.index() as u32 * 2 + warp);
            match pc % 4 {
                0 => Some(WarpInstr::load_line(
                    LineAddr::new((g * 67 + u64::from(pc) * 131) % 512),
                    1,
                )),
                1 => Some(WarpInstr::Alu { latency: 3 }),
                2 => Some(WarpInstr::Store {
                    lines: vec![LineAddr::new(1024 + (g * 41 + u64::from(pc)) % 512)],
                }),
                _ => Some(WarpInstr::Alu { latency: 1 }),
            }
        }
    }

    fn fresh(mode: MemoryMode) -> GpuSimulator {
        let mut sim = GpuSimulator::new(GpuConfig::tiny(), Arc::new(EpochStream), mode);
        sim.set_watchdog(Some(10_000));
        sim
    }

    /// [`SimReport`] has no `PartialEq`; compare serialized forms with the
    /// host-perf block (wall-clock, engine-specific) masked out.
    fn masked(mut report: SimReport) -> String {
        report.host = None;
        serde_json::to_string(&report).expect("report serializes")
    }

    #[test]
    fn epoch_engine_matches_serial_across_threads_and_policies() {
        let serial = masked(
            fresh(MemoryMode::Hierarchy)
                .run_stepped(200_000)
                .expect("serial run completes"),
        );
        for threads in [1, 2, 3] {
            for policy in [
                EpochPolicy::PerCycle,
                EpochPolicy::Fixed(2),
                EpochPolicy::Auto,
            ] {
                let report = fresh(MemoryMode::Hierarchy)
                    .run_parallel_with(200_000, threads, policy)
                    .expect("parallel run completes");
                assert_eq!(
                    masked(report),
                    serial,
                    "threads={threads} policy={policy:?} diverged from run_stepped"
                );
            }
        }
    }

    #[test]
    fn auto_policy_batches_cycles_and_respects_the_hop_fence() {
        let hop = GpuConfig::tiny().noc.hop_latency;
        let report = fresh(MemoryMode::Hierarchy)
            .run_parallel_with(200_000, 2, EpochPolicy::Auto)
            .expect("parallel run completes");
        let host = report.host.expect("parallel run reports host perf");
        let rounds = host.epoch_rounds.expect("epoch rounds recorded");
        let max_epoch = host.max_epoch.expect("max epoch recorded");
        assert!(
            rounds > 0,
            "auto policy never found a safe multi-cycle epoch"
        );
        assert!(
            max_epoch <= hop,
            "epoch {max_epoch} exceeded the cross-shard latency {hop}"
        );
    }

    #[test]
    fn chaos_schedules_clamp_epochs_and_preserve_bit_identity() {
        let hop = GpuConfig::tiny().noc.hop_latency;
        let serial = {
            let mut sim = fresh(MemoryMode::Hierarchy);
            sim.set_chaos(ChaosConfig::standard(7));
            masked(
                sim.run_stepped(200_000)
                    .expect("serial chaos run completes"),
            )
        };
        let mut sim = fresh(MemoryMode::Hierarchy);
        sim.set_chaos(ChaosConfig::standard(7));
        let report = sim
            .run_parallel_with(200_000, 2, EpochPolicy::Auto)
            .expect("parallel chaos run completes");
        let max_epoch = report
            .host
            .as_ref()
            .and_then(|h| h.max_epoch)
            .expect("max epoch recorded");
        assert!(
            max_epoch <= hop,
            "epoch {max_epoch} free-ran across a chaos fire (hop {hop})"
        );
        assert_eq!(
            masked(report),
            serial,
            "chaos run diverged from run_stepped"
        );
    }

    #[test]
    fn fixed_latency_epochs_match_serial() {
        let latency = 32;
        let serial = masked(
            fresh(MemoryMode::FixedLatency(latency))
                .run_stepped(200_000)
                .expect("serial run completes"),
        );
        for threads in [1, 2] {
            let report = fresh(MemoryMode::FixedLatency(latency))
                .run_parallel_with(200_000, threads, EpochPolicy::Auto)
                .expect("parallel run completes");
            let host = report.host.clone().expect("host perf present");
            assert!(
                host.epoch_rounds.expect("rounds recorded") > 0,
                "fixed-latency auto policy never batched"
            );
            assert!(host.max_epoch.expect("max epoch recorded") <= latency);
            assert_eq!(masked(report), serial, "threads={threads} diverged");
        }
    }

    #[test]
    fn per_cycle_policy_degenerates_to_the_legacy_engine() {
        let report = fresh(MemoryMode::Hierarchy)
            .run_parallel_with(200_000, 2, EpochPolicy::PerCycle)
            .expect("parallel run completes");
        let host = report.host.expect("host perf present");
        assert_eq!(
            host.epoch_rounds,
            Some(0),
            "per-cycle policy must never enter an epoch round"
        );
        assert_eq!(host.epoch_cycles, Some(0));
    }
}
