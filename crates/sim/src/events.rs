//! The event-driven execution engine behind [`GpuSimulator::run`].
//!
//! Instead of polling every component every cycle (the
//! `run_stepped` reference loop), a [`TimingWheel`] holds one wake-up
//! entry per component keyed by the component's own
//! `next_event(now)` protocol. The kernel pops the earliest armed cycle,
//! runs exactly the components due at it (in the same intra-cycle stage
//! order as `GpuSimulator::step`), and each component re-arms itself by
//! posting its next wake-up when it finishes. Components that sleep
//! through a window are caught up lazily with the same
//! `fast_forward`/`observe_many` closed forms the whole-machine horizon
//! jump uses, so the result is bit-identical to stepping — only the host
//! work changes.
//!
//! # Why per-component laziness wins where whole-machine skipping cannot
//!
//! The paper's own congestion thesis guarantees that fully idle cycles
//! are rare on memory-bound runs (some queue is always moving), so a
//! global horizon jump almost never engages. But *per-component* idleness
//! is pervasive: a core whose warps all wait on loads, with its LSU and
//! miss queues drained, is inert for hundreds of cycles while DRAM works;
//! a DRAM channel between bursts is inert while cores compute. This
//! engine charges each component host time only for the cycles it is
//! actually awake.
//!
//! # Correctness obligations
//!
//! * **Missed wakes are the only hazard.** A spurious wake is free
//!   (running an inert component replays exactly what stepping would
//!   have done); a missed wake diverges. Every arming rule below is
//!   therefore conservative.
//! * **Cross-component inputs arm the receiver.** `next_event` only
//!   covers a component's *own* state, so the kernel arms partitions when
//!   request-crossbar ejections appear, cores when response ejections
//!   appear, crossbars when someone injects, and the CTA dispatcher when
//!   a core frees capacity.
//! * **Same-cycle activation never re-enters the wheel.** When a stage at
//!   cycle `t` makes a *later* stage of the same cycle runnable
//!   (partition → response crossbar → core), the kernel marks it due via
//!   a per-cycle stamp; wheel entries are strictly future.

use gpumem_noc::Packet;
use gpumem_simt::SimtCore;
use gpumem_types::{host_wall_clock, CtaId, Cycle, CycleStamp, PartitionId, SimError};

use crate::gpu::Backend;
use crate::report::HostPerf;
use crate::sched::TimingWheel;
use crate::{GpuSimulator, MemoryPartition, SimReport};

/// Component id of the CTA dispatcher (cores follow at `1 + c`).
const DISPATCH: usize = 0;

/// Host-time attribution for one event-driven run, reported by
/// [`GpuSimulator::run_profiled`] and surfaced by `repro perf --profile`.
///
/// Buckets are measured at stage boundaries inside the engine; the L1 and
/// DRAM shares are measured by hooks inside the core and partition models
/// and subtracted from their enclosing stage, so the six buckets
/// approximately partition `wall_seconds` (scheduler overhead absorbs the
/// remainder: wheel operations, arming, catch-up dispatch and the
/// end-of-run drain).
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct EngineProfile {
    /// Total wall time of the run.
    pub wall_seconds: f64,
    /// Wheel pops, arming, CTA dispatch, liveness checks and end-of-run
    /// catch-up — everything not attributed to a component stage.
    pub scheduler_seconds: f64,
    /// SIMT core stages (issue, scoreboard, LSU) excluding the L1 share.
    pub cores_seconds: f64,
    /// L1 data-cache work (hit wake-up, port access, fills).
    pub l1_seconds: f64,
    /// Request + response crossbar ticks and observation.
    pub crossbar_seconds: f64,
    /// Memory-partition stages (L2 queues, banks, MSHRs) excluding DRAM.
    pub partitions_seconds: f64,
    /// DRAM channel work (or the fixed-latency memory in fixed mode).
    pub dram_seconds: f64,
    /// Cycles the engine actually executed.
    pub executed_cycles: u64,
    /// Cycles crossed without host work.
    pub skipped_cycles: u64,
    /// Individual core-cycles run (out of `cores × executed_cycles`
    /// possible); the gap is cycles cores slept through.
    pub core_runs: u64,
    /// Individual partition-cycles run (hierarchy mode).
    pub partition_runs: u64,
    /// Request-crossbar ticks (hierarchy mode).
    pub req_xbar_ticks: u64,
    /// Response-crossbar ticks (hierarchy mode).
    pub resp_xbar_ticks: u64,
}

/// Stage buckets the engine laps its stopwatch into while profiling.
#[derive(Clone, Copy)]
enum Bucket {
    Sched,
    Cores,
    Xbar,
    Parts,
    Mem,
}

struct Prof {
    sw: gpumem_types::HostStopwatch,
    last: f64,
    sched: f64,
    cores: f64,
    xbar: f64,
    parts: f64,
    mem: f64,
}

impl Prof {
    fn new() -> Self {
        Prof {
            sw: host_wall_clock(),
            last: 0.0,
            sched: 0.0,
            cores: 0.0,
            xbar: 0.0,
            parts: 0.0,
            mem: 0.0,
        }
    }
}

/// The scheduler state of one event-driven run.
struct Kernel {
    wheel: TimingWheel<usize>,
    /// Authoritative earliest armed cycle per component; wheel entries
    /// that disagree are stale and dropped on pop.
    next_run: Vec<u64>,
    /// Per-cycle due stamp: `due[comp] == t` means component `comp` runs
    /// in its stage of the cycle currently executing.
    due: Vec<u64>,
    /// Per-component observation frontier: statistics are complete for
    /// all cycles `< synced[comp]`.
    synced: Vec<u64>,
    ncores: usize,
    /// First partition id (hierarchy mode).
    part0: usize,
    /// Request / response crossbar ids (hierarchy mode).
    req: usize,
    resp: usize,
    /// Fixed-latency memory id (fixed mode).
    mem: usize,
    prof: Option<Box<Prof>>,
    /// Per-component activity counters (cheap; kept unconditionally so
    /// the profile never perturbs what it measures).
    core_runs: u64,
    part_runs: u64,
    req_ticks: u64,
    resp_ticks: u64,
}

impl Kernel {
    fn new(ncores: usize, nparts: usize, now0: u64, profiled: bool) -> Self {
        // Hierarchy: dispatcher, cores, partitions, two crossbars.
        // Fixed: dispatcher, cores, one memory. Allocate the superset.
        let ncomp = 1 + ncores + nparts + 2;
        Kernel {
            wheel: TimingWheel::new(),
            next_run: vec![u64::MAX; ncomp],
            due: vec![u64::MAX; ncomp],
            synced: vec![now0; ncomp],
            ncores,
            part0: 1 + ncores,
            req: 1 + ncores + nparts,
            resp: 1 + ncores + nparts + 1,
            mem: 1 + ncores,
            prof: profiled.then(|| Box::new(Prof::new())),
            core_runs: 0,
            part_runs: 0,
            req_ticks: 0,
            resp_ticks: 0,
        }
    }

    /// Arms `comp` to run at cycle `at` (keeping any earlier arming).
    /// `at` must be strictly later than the cycle currently executing;
    /// same-cycle activation uses the `due` stamps instead.
    fn arm(&mut self, comp: usize, at: u64) {
        if at < self.next_run[comp] {
            self.next_run[comp] = at;
            self.wheel.schedule(at, comp);
        }
    }

    /// Arms `comp` at a component-reported event time, clamped to the
    /// next cycle (components may report "can act now").
    fn arm_event(&mut self, comp: usize, ev: Option<Cycle>, t_next: u64) {
        if let Some(ev) = ev {
            self.arm(comp, ev.raw().max(t_next));
        }
    }

    /// Pops the earliest cycle with at least one validly armed component
    /// and stamps every component due at it. `None` means the wheel holds
    /// no live event (a wedged or budget-bound machine).
    fn pop_cycle(&mut self) -> Option<u64> {
        let t = loop {
            let (cyc, comp) = self.wheel.pop()?;
            if self.next_run[comp] == cyc {
                self.due[comp] = cyc;
                self.next_run[comp] = u64::MAX;
                break cyc;
            }
        };
        while self.wheel.peek_cycle() == Some(t) {
            let Some((cyc, comp)) = self.wheel.pop() else {
                break;
            };
            if self.next_run[comp] == cyc {
                self.due[comp] = cyc;
                self.next_run[comp] = u64::MAX;
            }
        }
        Some(t)
    }

    /// Forgets every armed event and re-anchors all frontiers at `now`.
    /// Callers must have every component's statistics observed through
    /// `now` first (see [`drain_to`]); the armed set is then rebuilt from
    /// machine state by [`arm_initial`].
    fn resync(&mut self, now: u64) {
        self.wheel.clear_to(now);
        for nr in &mut self.next_run {
            *nr = u64::MAX;
        }
        for d in &mut self.due {
            *d = u64::MAX;
        }
        for s in &mut self.synced {
            *s = now;
        }
    }

    fn lap(&mut self, bucket: Bucket) {
        if let Some(p) = self.prof.as_deref_mut() {
            let t = p.sw.elapsed_seconds();
            let d = t - p.last;
            p.last = t;
            match bucket {
                Bucket::Sched => p.sched += d,
                Bucket::Cores => p.cores += d,
                Bucket::Xbar => p.xbar += d,
                Bucket::Parts => p.parts += d,
                Bucket::Mem => p.mem += d,
            }
        }
    }
}

/// Replays the gap since `core` last ran, bringing its per-cycle
/// accounting up to (but not including) cycle `t`.
fn catch_core(k: &mut Kernel, id: usize, core: &mut SimtCore, t: u64) {
    let s = k.synced[id];
    if t > s {
        core.fast_forward(Cycle::new(s), t - s);
    }
    k.synced[id] = t;
}

/// Replays the gap since `part` last ran, up to (excluding) cycle `t`.
fn catch_part(k: &mut Kernel, id: usize, part: &mut MemoryPartition, t: u64) {
    let s = k.synced[id];
    if t > s {
        part.fast_forward(Cycle::new(s), t - s);
    }
    k.synced[id] = t;
}

/// The budget-exhausted error, identical to the stepped engine's: the
/// machine state is frozen over the inert tail, so the instruction count
/// and liveness snapshot match what stepping to the budget would report.
fn budget_exhausted(sim: &GpuSimulator, max_cycles: u64) -> SimError {
    SimError::Watchdog {
        cycle: sim.now().raw().max(max_cycles),
        instructions: sim.total_instructions(),
        detail: sim.liveness_detail(),
    }
}

/// Runs `sim` to completion on the event-driven kernel.
///
/// Must only be called with no watchdog and no chaos armed (both demand
/// real per-cycle stepping; [`GpuSimulator::run`] routes those runs to
/// the stepped engine).
pub(crate) fn run_event(
    sim: &mut GpuSimulator,
    max_cycles: u64,
    profiled: bool,
) -> Result<(SimReport, Option<EngineProfile>), SimError> {
    debug_assert!(
        sim.watchdog_horizon.is_none() && sim.chaos.is_none(),
        "event engine requires per-cycle features to be disarmed"
    );
    let wall_start = host_wall_clock();
    let now0 = sim.now.raw();
    let (ncores, nparts) = match &sim.backend {
        Backend::Hierarchy { partitions, .. } => (sim.cores.len(), partitions.len()),
        Backend::Fixed(_) => (sim.cores.len(), 0),
    };
    let mut k = Kernel::new(ncores, nparts, now0, profiled);
    if profiled {
        for core in &mut sim.cores {
            core.enable_host_profile();
        }
        if let Backend::Hierarchy { partitions, .. } = &mut sim.backend {
            for p in partitions.iter_mut() {
                p.enable_host_profile();
            }
        }
    }
    arm_initial(&mut k, sim, now0);

    // Dense-phase fallback state. When nearly every component runs every
    // cycle with no skips in between, the scheduler is pure overhead —
    // the machine is congestion-bound (the paper's §III regime) and the
    // stepped fast path does the same work without wheel churn, so the
    // engine drops into `GpuSimulator::step` for a chunk, then re-derives
    // the armed set from machine state. Chunks grow geometrically while
    // the phase stays dense so long stretches amortize the re-arm scan
    // to nothing. Disabled under profiling: the profile reports the
    // event engine's own behavior, not the hybrid's.
    let active_comps = match &sim.backend {
        Backend::Hierarchy { partitions, .. } => (ncores + partitions.len() + 2) as u64,
        Backend::Fixed(_) => ncores as u64,
    };
    // Thresholds sit just above the measured break-even density (the
    // point where per-cycle kernel overhead equals the component work a
    // sleeping run saves): clearly sparse workloads keep their multi-x
    // skipping wins, everything denser runs at stepped speed instead of
    // paying overhead it cannot win back. Fixed-mode cycles are thinner,
    // so overhead bites at lower density there.
    let dense_threshold_pct: u64 = match &sim.backend {
        Backend::Hierarchy { .. } => 35,
        Backend::Fixed(_) => 30,
    };
    const DENSE_WINDOW: u64 = 32;
    const DENSE_CHUNK_MIN: u64 = 512;
    const DENSE_CHUNK_MAX: u64 = 65536;
    let mut win_cycles: u64 = 0;
    let mut win_runs: u64 = 0;
    let mut win_start: u64 = 0;
    let mut dense_chunk: u64 = DENSE_CHUNK_MIN;
    let mut last_dense_exit: u64 = u64::MAX;
    let mut dense_total: u64 = 0;

    let mut executed: u64 = 0;
    while !sim.is_done() {
        if sim.deadline_seconds.is_some() && executed.is_multiple_of(1024) {
            if let Some(budget) = sim.deadline_seconds {
                if wall_start.elapsed_seconds() > budget {
                    return Err(SimError::DeadlineExceeded {
                        cycle: sim.now.raw(),
                        budget_seconds: budget,
                    });
                }
            }
        }
        // Work remains but nothing is armed: a wedged machine. Stepping
        // would grind through inert cycles to the budget; report the same
        // watchdog directly.
        let Some(t) = k.pop_cycle() else {
            return Err(budget_exhausted(sim, max_cycles));
        };
        if t >= max_cycles {
            return Err(budget_exhausted(sim, max_cycles));
        }
        k.lap(Bucket::Sched);
        let runs_before = k.core_runs + k.part_runs + k.req_ticks + k.resp_ticks;
        exec_cycle(&mut k, sim, t)?;
        executed += 1;
        sim.now = Cycle::new(t + 1);

        // Density bookkeeping. The denominator spans *wall* cycles, not
        // executed ones, so skipped gaps (where the wheel is winning)
        // dilute the measured density and keep skip-heavy workloads in
        // event mode without any special casing.
        let runs = k.core_runs + k.part_runs + k.req_ticks + k.resp_ticks - runs_before;
        if win_cycles == 0 {
            win_start = t;
        }
        win_cycles += 1;
        win_runs += runs;
        if win_cycles < DENSE_WINDOW {
            continue;
        }
        let span = t + 1 - win_start;
        let dense = win_runs * 100 >= span * active_comps * dense_threshold_pct;
        win_cycles = 0;
        win_runs = 0;
        if !dense || k.prof.is_some() {
            continue;
        }
        // Re-entering right after the last chunk ended means the phase
        // outlasted it: double the chunk. A long event-mode stretch in
        // between means the phase ended: start small again.
        dense_chunk = if t.saturating_sub(last_dense_exit) <= 4 * DENSE_WINDOW {
            (dense_chunk * 2).min(DENSE_CHUNK_MAX)
        } else {
            DENSE_CHUNK_MIN
        };
        drain_to(&mut k, sim, t + 1);
        let target = (t + 1).saturating_add(dense_chunk).min(max_cycles);
        let dense_start = sim.now.raw();
        let mut chunk_done: u64 = 0;
        while !sim.is_done() && sim.now.raw() < target {
            if sim.deadline_seconds.is_some() && sim.stepped_cycles.is_multiple_of(1024) {
                if let Some(budget) = sim.deadline_seconds {
                    if wall_start.elapsed_seconds() > budget {
                        return Err(SimError::DeadlineExceeded {
                            cycle: sim.now.raw(),
                            budget_seconds: budget,
                        });
                    }
                }
            }
            sim.step()?;
            chunk_done += 1;
            // Periodically probe for a skippable gap: if the machine-wide
            // horizon moved well past `now`, the wheel can jump it and
            // dense stepping would grind through inert cycles instead.
            // Small gaps are not worth the exit: leaving costs a re-arm
            // scan plus a window of event-mode overhead, more than a few
            // thin cycles ever save.
            if chunk_done.is_multiple_of(64)
                && sim
                    .next_event()
                    .is_none_or(|ev| ev.raw() > sim.now.raw() + 32)
            {
                break;
            }
        }
        if sim.now.raw() < target {
            // Early exit: the phase went sparse inside the chunk, so the
            // next one starts small again.
            dense_chunk = DENSE_CHUNK_MIN;
        }
        dense_total += sim.now.raw() - dense_start;
        last_dense_exit = sim.now.raw();
        // The stepped path observed everything itself; re-anchor the
        // frontiers there so neither drain nor fast_forward replays the
        // chunk, and rebuild the armed set from live machine state.
        k.resync(sim.now.raw());
        if !sim.is_done() {
            arm_initial(&mut k, sim, sim.now.raw());
        }
        k.lap(Bucket::Sched);
    }

    // Final drain: every sleeping component replays the tail window so
    // per-cycle statistics cover exactly `now0..now`, as stepping would.
    let end = sim.now.raw();
    drain_to(&mut k, sim, end);
    sim.check_conservation()?;
    // Dense-chunk cycles were counted by `step` itself; only event-mode
    // cycles and the remaining (skipped) gap are accounted here.
    sim.stepped_cycles += executed;
    sim.skipped_cycles += (end - now0) - executed - dense_total;
    k.lap(Bucket::Sched);

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
        skipped_cycles: sim.skipped_cycles,
        skipped_fraction: if sim.now.raw() > 0 {
            sim.skipped_cycles as f64 / sim.now.raw() as f64
        } else {
            0.0
        },
    });
    let profile = k.prof.take().map(|p| {
        let l1: f64 = sim.cores.iter().map(|c| c.host_l1_seconds()).sum();
        let dram: f64 = match &sim.backend {
            Backend::Hierarchy { partitions, .. } => {
                partitions.iter().map(|p| p.host_dram_seconds()).sum()
            }
            Backend::Fixed(_) => p.mem,
        };
        EngineProfile {
            wall_seconds: wall,
            scheduler_seconds: p.sched,
            cores_seconds: (p.cores - l1).max(0.0),
            l1_seconds: l1,
            crossbar_seconds: p.xbar,
            partitions_seconds: (p.parts - dram).max(0.0),
            dram_seconds: dram,
            executed_cycles: executed,
            skipped_cycles: (end - now0) - executed,
            core_runs: k.core_runs,
            partition_runs: k.part_runs,
            req_xbar_ticks: k.req_ticks,
            resp_xbar_ticks: k.resp_ticks,
        }
    });
    Ok((report, profile))
}

/// Replays every sleeping component's frozen observation window up to
/// (excluding) cycle `end`, completing per-cycle statistics for
/// `now0..end`. Used for the final drain and before entering a dense
/// stretch (where the stepped fast path observes everything itself).
fn drain_to(k: &mut Kernel, sim: &mut GpuSimulator, end: u64) {
    for (c, core) in sim.cores.iter_mut().enumerate() {
        let s = k.synced[1 + c];
        if end > s {
            core.fast_forward(Cycle::new(s), end - s);
            k.synced[1 + c] = end;
        }
    }
    match &mut sim.backend {
        Backend::Hierarchy {
            req_xbar,
            resp_xbar,
            partitions,
        } => {
            for (p, part) in partitions.iter_mut().enumerate() {
                let s = k.synced[k.part0 + p];
                if end > s {
                    part.fast_forward(Cycle::new(s), end - s);
                    k.synced[k.part0 + p] = end;
                }
            }
            if end > k.synced[k.req] {
                let s = k.synced[k.req];
                req_xbar.fast_forward(Cycle::new(s), end - s);
                k.synced[k.req] = end;
            }
            if end > k.synced[k.resp] {
                let s = k.synced[k.resp];
                resp_xbar.fast_forward(Cycle::new(s), end - s);
                k.synced[k.resp] = end;
            }
        }
        Backend::Fixed(_) => {}
    }
}

/// Arms every component that can act, directly from machine state — the
/// one place the engine pays an O(components) scan.
fn arm_initial(k: &mut Kernel, sim: &GpuSimulator, now0: u64) {
    let now = sim.now;
    if sim.next_cta < sim.grid_ctas {
        k.arm(DISPATCH, now0);
    }
    for (c, core) in sim.cores.iter().enumerate() {
        if let Some(ev) = core.next_event(now) {
            k.arm(1 + c, ev.raw().max(now0));
        }
    }
    match &sim.backend {
        Backend::Hierarchy {
            req_xbar,
            resp_xbar,
            partitions,
        } => {
            for (p, part) in partitions.iter().enumerate() {
                let id = k.part0 + p;
                if let Some(ev) = part.next_event(now) {
                    k.arm(id, ev.raw().max(now0));
                }
                if req_xbar.peek_ejected(p).is_some() {
                    k.arm(id, now0);
                }
            }
            if let Some(ev) = req_xbar.next_event(now) {
                let id = k.req;
                k.arm(id, ev.raw().max(now0));
            }
            if let Some(ev) = resp_xbar.next_event(now) {
                let id = k.resp;
                k.arm(id, ev.raw().max(now0));
            }
            for c in 0..k.ncores {
                if resp_xbar.peek_ejected(c).is_some() {
                    k.arm(1 + c, now0);
                }
            }
        }
        Backend::Fixed(mem) => {
            if let Some(ev) = mem.next_event(now) {
                let id = k.mem;
                k.arm(id, ev.raw().max(now0));
            }
        }
    }
}

/// Executes cycle `t`, running exactly the components due at it in the
/// stepped engine's stage order.
fn exec_cycle(k: &mut Kernel, sim: &mut GpuSimulator, t: u64) -> Result<(), SimError> {
    let GpuSimulator {
        cfg,
        grid_ctas,
        cores,
        backend,
        next_cta,
        responses_delivered,
        requests_injected,
        ..
    } = &mut *sim;
    let now = Cycle::new(t);
    let grid = *grid_ctas;

    // CTA dispatch (stepped stage: `dispatch_ctas`, top of cycle). A core
    // receiving work is caught up first (the gap is classified at its
    // pre-assignment state, exactly as stepping would) and runs this
    // cycle — a fresh warp can issue immediately.
    if k.due[DISPATCH] == t && *next_cta < grid {
        for (c, core) in cores.iter_mut().enumerate() {
            let mut received = false;
            while *next_cta < grid && core.can_accept_cta() {
                if !received {
                    catch_core(k, 1 + c, core, t);
                    k.due[1 + c] = t;
                    received = true;
                }
                core.assign_cta(CtaId::new(*next_cta));
                *next_cta += 1;
            }
            if *next_cta >= grid {
                break;
            }
        }
    }
    k.lap(Bucket::Sched);

    match backend {
        Backend::Hierarchy {
            req_xbar,
            resp_xbar,
            partitions,
        } => {
            // Flush the crossbars' frozen-gap accounting (occupancy and
            // credit stalls) before any stage of this cycle can mutate
            // their queues.
            if t > k.synced[k.req] {
                let s = k.synced[k.req];
                req_xbar.fast_forward(Cycle::new(s), t - s);
                k.synced[k.req] = t;
            }
            if t > k.synced[k.resp] {
                let s = k.synced[k.resp];
                resp_xbar.fast_forward(Cycle::new(s), t - s);
                k.synced[k.resp] = t;
            }
            k.lap(Bucket::Xbar);

            // Memory partitions (stepped stage 1). A partition injecting
            // a response makes the response crossbar due this very cycle;
            // a leftover request ejection it could not intake re-arms it.
            for (p, part) in partitions.iter_mut().enumerate() {
                let id = k.part0 + p;
                if k.due[id] != t {
                    continue;
                }
                catch_part(k, id, part, t);
                k.part_runs += 1;
                let intaken = req_xbar.egress_mut(p).ejected_count();
                part.cycle(now, req_xbar.egress_mut(p), resp_xbar.ingress_mut(p))?;
                part.observe();
                k.synced[id] = t + 1;
                if !resp_xbar.ingress_mut(p).is_empty() {
                    k.due[k.resp] = t;
                }
                if req_xbar.egress_mut(p).ejected_count() != intaken {
                    // The partition popped its request ejection queue:
                    // credits returned, so the request crossbar can make
                    // progress at its own stage this very cycle (stepped
                    // runs partitions before the request tick).
                    k.due[k.req] = t;
                }
                let ev = part.next_event(Cycle::new(t + 1));
                k.arm_event(id, ev, t + 1);
                if req_xbar.peek_ejected(p).is_some() {
                    k.arm(id, t + 1);
                }
            }
            k.lap(Bucket::Parts);

            // Request crossbar tick (stepped stage 2). Packets it lands in
            // partition ejection queues are consumed next cycle.
            if k.due[k.req] == t {
                k.req_ticks += 1;
                req_xbar.tick(now)?;
                for p in 0..partitions.len() {
                    if req_xbar.peek_ejected(p).is_some() {
                        k.arm(k.part0 + p, t + 1);
                    }
                }
                let ev = req_xbar.next_event(Cycle::new(t + 1));
                k.arm_event(k.req, ev, t + 1);
            }

            // Response crossbar tick (stepped stage 3). Packets it lands
            // in core ejection queues are popped by cores *this* cycle.
            if k.due[k.resp] == t {
                k.resp_ticks += 1;
                resp_xbar.tick(now)?;
                for c in 0..cores.len() {
                    if resp_xbar.peek_ejected(c).is_some() {
                        k.due[1 + c] = t;
                    }
                }
                let ev = resp_xbar.next_event(Cycle::new(t + 1));
                k.arm_event(k.resp, ev, t + 1);
            }
            k.lap(Bucket::Xbar);

            // Cores (stepped stage 4): accept one response, cycle, inject
            // requests, observe — verbatim the stepped loop body.
            //
            // A crossbar that did not tick this cycle may still be mutated
            // here (response pops, request injections). Before the first
            // such mutation we charge it the credit stalls a tick would
            // have counted against the frozen pre-mutation state — the
            // stepped engine counts those at the crossbar's own stage,
            // before the cores run.
            let mut req_injected = false;
            let mut resp_popped = false;
            for (c, core) in cores.iter_mut().enumerate() {
                let id = 1 + c;
                if k.due[id] != t {
                    continue;
                }
                catch_core(k, id, core, t);
                k.core_runs += 1;
                if resp_xbar.peek_ejected(c).is_some() {
                    if !resp_popped && k.due[k.resp] != t {
                        resp_xbar.account_stalls(now);
                    }
                    resp_popped = true;
                    if let Some(pkt) = resp_xbar.pop_ejected(c) {
                        core.accept_response(pkt.fetch, now);
                        *responses_delivered += 1;
                    }
                }
                core.cycle(now);
                while core.peek_memory_request().is_some() && req_xbar.can_inject(c) {
                    if !req_injected && k.due[k.req] != t {
                        req_xbar.account_stalls(now);
                    }
                    let Some(mut fetch) = core.pop_memory_request() else {
                        break;
                    };
                    let part = (fetch.line.index() % cfg.num_partitions as u64) as usize;
                    fetch.partition = Some(PartitionId::new(part as u32));
                    fetch.timeline.icnt_inject = CycleStamp::at(now);
                    let bytes = fetch.request_bytes(cfg.line_bytes);
                    let pkt = Packet::new(fetch, part, bytes, cfg.noc.flit_bytes);
                    if req_xbar.try_inject(c, pkt).is_err() {
                        return Err(SimError::PortProtocol {
                            component: "core",
                            cycle: now.raw(),
                            detail: format!(
                                "request crossbar rejected core {c}'s injection after can_inject"
                            ),
                        });
                    }
                    *requests_injected += 1;
                    req_injected = true;
                }
                core.observe();
                k.synced[id] = t + 1;
                if resp_xbar.peek_ejected(c).is_some() {
                    k.arm(id, t + 1);
                }
                let ev = core.next_event(Cycle::new(t + 1));
                k.arm_event(id, ev, t + 1);
                if *next_cta < grid && core.can_accept_cta() {
                    k.arm(DISPATCH, t + 1);
                }
            }
            if req_injected {
                k.arm(k.req, t + 1);
            }
            if resp_popped {
                // Popping an ejection queue returns a credit; a response
                // crossbar that went to sleep credit-starved (or whose
                // post-tick next_event saw no credits) can arbitrate again
                // next cycle.
                k.arm(k.resp, t + 1);
            }
            k.lap(Bucket::Cores);

            // End-of-cycle observation (stepped stage 5). A crossbar that
            // neither ticked nor was mutated this cycle stays frozen; its
            // observation window is backfilled by fast_forward on the next
            // cycle that touches it. Ticked or mutated crossbars observe
            // their post-mutation state now, exactly like the stepped
            // engine's stage 5.
            if k.due[k.req] == t || req_injected {
                req_xbar.observe();
                k.synced[k.req] = t + 1;
            }
            if k.due[k.resp] == t || resp_popped {
                resp_xbar.observe();
                k.synced[k.resp] = t + 1;
            }
            k.lap(Bucket::Xbar);
        }
        Backend::Fixed(mem) => {
            // Deliver all due responses (unlimited fill bandwidth); a
            // receiving core runs this cycle.
            if k.due[k.mem] == t {
                while let Some(fetch) = mem.pop_due(now) {
                    let c = fetch.core.index();
                    catch_core(k, 1 + c, &mut cores[c], t);
                    k.due[1 + c] = t;
                    cores[c].accept_response(fetch, now);
                    *responses_delivered += 1;
                }
                let id = k.mem;
                let ev = mem.next_event(Cycle::new(t + 1));
                k.arm_event(id, ev, t + 1);
            }
            k.lap(Bucket::Mem);

            let mut submitted = false;
            for (c, core) in cores.iter_mut().enumerate() {
                let id = 1 + c;
                if k.due[id] != t {
                    continue;
                }
                catch_core(k, id, core, t);
                k.core_runs += 1;
                core.cycle(now);
                while let Some(mut fetch) = core.pop_memory_request() {
                    fetch.timeline.icnt_inject = CycleStamp::at(now);
                    *requests_injected += 1;
                    mem.submit(fetch, now);
                    submitted = true;
                }
                core.observe();
                k.synced[id] = t + 1;
                let ev = core.next_event(Cycle::new(t + 1));
                k.arm_event(id, ev, t + 1);
                if *next_cta < grid && core.can_accept_cta() {
                    k.arm(DISPATCH, t + 1);
                }
            }
            if submitted {
                let id = k.mem;
                let ev = mem.next_event(Cycle::new(t + 1));
                k.arm_event(id, ev, t + 1);
            }
            k.lap(Bucket::Cores);
        }
    }
    Ok(())
}
