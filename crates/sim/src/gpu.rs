//! The full-system simulator: cores + interconnect + partitions, or cores +
//! fixed-latency memory.

use std::fmt;
use std::sync::Arc;

use gpumem_config::GpuConfig;
use gpumem_noc::{Crossbar, Packet};
use gpumem_simt::{KernelProgram, SimtCore};
use gpumem_trace::TraceConfig;
use gpumem_types::{
    host_wall_clock, ComponentOccupancy, CtaId, Cycle, CycleStamp, OldestFetch, PartitionId,
    SimError, WedgeDiagnosis,
};

use crate::report::{build_report, lap, Bucket, HostPerf, StageClock};
use crate::watchdog::Watchdog;
use crate::{FixedLatencyMemory, MemoryPartition, SimReport};

/// Which memory system sits below the L1s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryMode {
    /// The full timing hierarchy: crossbars, banked L2 partitions, DRAM.
    Hierarchy,
    /// Every L1 miss returns after exactly this many cycles, with
    /// unlimited bandwidth (the paper's Fig. 1 instrument).
    FixedLatency(u64),
}

impl fmt::Display for MemoryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryMode::Hierarchy => write!(f, "hierarchy"),
            MemoryMode::FixedLatency(n) => write!(f, "fixed-latency({n})"),
        }
    }
}

#[expect(
    clippy::large_enum_variant,
    reason = "one backend per simulator, built once; boxing the crossbars would add an indirection to every per-cycle port access"
)]
pub(crate) enum Backend {
    Hierarchy {
        req_xbar: Crossbar,
        resp_xbar: Crossbar,
        partitions: Vec<MemoryPartition>,
    },
    Fixed(FixedLatencyMemory),
}

/// The assembled GPU.
///
/// Construct with a validated [`GpuConfig`], a [`KernelProgram`] and a
/// [`MemoryMode`], then call [`run`](GpuSimulator::run).
pub struct GpuSimulator {
    pub(crate) cfg: GpuConfig,
    program: Arc<dyn KernelProgram>,
    /// `program.grid_ctas()`, read once: dispatch and completion checks
    /// compare against it every cycle.
    pub(crate) grid_ctas: u32,
    mode: MemoryMode,
    pub(crate) cores: Vec<SimtCore>,
    pub(crate) backend: Backend,
    pub(crate) now: Cycle,
    pub(crate) next_cta: u32,
    pub(crate) responses_delivered: u64,
    pub(crate) requests_injected: u64,
    pub(crate) stepped_cycles: u64,
    pub(crate) skipped_cycles: u64,
    /// No-progress horizon in cycles; `None` disables the watchdog.
    pub(crate) watchdog_horizon: Option<u64>,
    /// The stage clock [`step`](GpuSimulator::step) laps during
    /// [`run_profiled`](GpuSimulator::run_profiled).
    prof: Option<Box<StageClock>>,
    /// True while a run jumps to the next event. Such a run also parks
    /// every core that can never act again (see [`core_finished`]).
    jumping: bool,
    /// Bit `c` is set while core `c` is parked (`GpuConfig::validate` caps
    /// `num_cores` at 64): `step` and
    /// `fast_forward_to` skip it, and its per-cycle accounting is replayed
    /// in one `fast_forward` when the run ends.
    parked: u64,
    /// Per parked core, the cycle it parked from and `stepped_cycles` at
    /// that point.
    parked_at: Vec<(Cycle, u64)>,
}

impl fmt::Debug for GpuSimulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GpuSimulator")
            .field("program", &self.program.name())
            .field("mode", &self.mode)
            .field("now", &self.now)
            .field("next_cta", &self.next_cta)
            .finish_non_exhaustive()
    }
}

impl GpuSimulator {
    /// Builds a simulator.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`GpuConfig::validate`], or if the program's
    /// CTAs need more warps than a core has slots.
    pub fn new(cfg: GpuConfig, program: Arc<dyn KernelProgram>, mode: MemoryMode) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "constructor contract: new() documents the panic on an invalid config and runs before any simulation state exists"
        )]
        cfg.validate().expect("invalid GpuConfig");
        assert!(
            program.warps_per_cta() as usize <= cfg.core.max_warps,
            "a CTA of {} warps cannot fit {} warp slots",
            program.warps_per_cta(),
            cfg.core.max_warps
        );
        let cores = (0..cfg.num_cores)
            .map(|i| {
                SimtCore::new(
                    gpumem_types::CoreId::new(i as u32),
                    &cfg,
                    Arc::clone(&program),
                )
            })
            .collect();
        let backend = match mode {
            MemoryMode::Hierarchy => Backend::Hierarchy {
                req_xbar: Crossbar::new(cfg.num_cores, cfg.num_partitions, &cfg.noc),
                resp_xbar: Crossbar::new(cfg.num_partitions, cfg.num_cores, &cfg.noc),
                partitions: (0..cfg.num_partitions)
                    .map(|p| MemoryPartition::new(PartitionId::new(p as u32), &cfg))
                    .collect(),
            },
            MemoryMode::FixedLatency(latency) => Backend::Fixed(FixedLatencyMemory::new(latency)),
        };
        let parked_at = vec![(Cycle::ZERO, 0); cfg.num_cores];
        GpuSimulator {
            cfg,
            grid_ctas: program.grid_ctas(),
            program,
            mode,
            cores,
            backend,
            now: Cycle::ZERO,
            next_cta: 0,
            responses_delivered: 0,
            requests_injected: 0,
            stepped_cycles: 0,
            skipped_cycles: 0,
            watchdog_horizon: None,
            prof: None,
            jumping: false,
            parked: 0,
            parked_at,
        }
    }

    /// Turns on fetch-lifecycle tracing across every core and partition:
    /// per-stage latency histograms, queue-occupancy sampling and
    /// slowest-fetch capture, surfaced as
    /// [`SimReport::latency_breakdown`]. Enable before running; a
    /// simulator that never calls this takes one never-taken branch per
    /// hook and produces a bit-identical report with the breakdown absent.
    ///
    /// Tracing is engine-invariant: `run` and `run_stepped` produce
    /// bit-identical breakdowns.
    pub fn enable_trace(&mut self, cfg: TraceConfig) {
        for core in &mut self.cores {
            core.enable_trace(&cfg);
        }
        if let Backend::Hierarchy { partitions, .. } = &mut self.backend {
            for p in partitions.iter_mut() {
                p.enable_trace(&cfg);
            }
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Arms (or disarms with `None`) the no-progress watchdog: a run
    /// aborts with [`SimError::Wedged`] and a structured
    /// [`WedgeDiagnosis`] once no progress counter changes for `horizon`
    /// consecutive cycles. A horizon of 0 is clamped to 1.
    ///
    /// Deterministic: the verdict depends only on the per-cycle
    /// fingerprint sequence. [`run`](GpuSimulator::run) never jumps past
    /// the cycle the watchdog would trip at, so it trips on the same cycle
    /// with the same diagnosis as per-cycle stepping.
    pub fn set_watchdog(&mut self, horizon: Option<u64>) {
        self.watchdog_horizon = horizon;
    }

    /// Wedges the machine for good, the watchdog's test fixture: the
    /// response crossbar's inputs freeze (see
    /// [`Crossbar::freeze_inputs`]), so requests keep flowing down to the
    /// partitions but no response ever comes back, and a run can only end
    /// on the watchdog or the cycle budget. Call it before running. A
    /// fixed-latency machine has no response network, and this does
    /// nothing to it.
    pub fn wedge_response_network(&mut self) {
        if let Backend::Hierarchy { resp_xbar, .. } = &mut self.backend {
            resp_xbar.freeze_inputs();
        }
    }

    /// Current simulated cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Runs until the kernel completes and the memory system drains.
    ///
    /// This is the [`run_stepped`](GpuSimulator::run_stepped) loop plus a
    /// whole-machine jump: before each [`step`](GpuSimulator::step), if
    /// [`next_event`](GpuSimulator::next_event) lies in the future the
    /// clock jumps there (clamped to `max_cycles` and to the cycle an
    /// armed watchdog trips at) with
    /// [`fast_forward_to`](GpuSimulator::fast_forward_to). The jump is
    /// observationally invisible: every [`SimReport`] field except the
    /// host-side [`SimReport::host`] block — and every error, wedge
    /// diagnosis included — is bit-identical to `run_stepped`.
    ///
    /// # Errors
    ///
    /// [`SimError::Watchdog`] if completion is not reached within
    /// `max_cycles`.
    pub fn run(&mut self, max_cycles: u64) -> Result<SimReport, SimError> {
        self.run_loop(max_cycles, true, false)
    }

    /// [`run`](GpuSimulator::run) with per-stage host-time attribution,
    /// returning the profile alongside the report. Simulation results are
    /// bit-identical to `run`, watchdog included; only
    /// host-side timing is collected.
    ///
    /// # Errors
    ///
    /// [`SimError::Watchdog`] if completion is not reached within
    /// `max_cycles`.
    pub fn run_profiled(
        &mut self,
        max_cycles: u64,
    ) -> Result<(SimReport, crate::EngineProfile), SimError> {
        for core in &mut self.cores {
            core.enable_host_profile();
        }
        if let Backend::Hierarchy { partitions, .. } = &mut self.backend {
            for p in partitions.iter_mut() {
                p.enable_host_profile();
            }
        }
        let (stepped0, skipped0) = (self.stepped_cycles, self.skipped_cycles);
        let report = self.run_loop(max_cycles, true, true)?;
        let executed = self.stepped_cycles - stepped0;
        let (nparts, xbar_ticks) = match &self.backend {
            Backend::Hierarchy { partitions, .. } => (partitions.len() as u64, executed),
            Backend::Fixed(_) => (0, 0),
        };
        let l1: f64 = self.cores.iter().map(|c| c.host_l1_seconds()).sum();
        let profile = self.prof.take().map(|clock| {
            // The model hooks' shares are carved out of the stage that
            // encloses them, so the buckets sum to the clock's laps.
            let l1 = l1.min(clock.cores);
            let dram = match &self.backend {
                Backend::Hierarchy { partitions, .. } => partitions
                    .iter()
                    .map(|p| p.host_dram_seconds())
                    .sum::<f64>()
                    .min(clock.parts),
                Backend::Fixed(_) => 0.0,
            };
            crate::EngineProfile {
                wall_seconds: report.host.as_ref().map_or(0.0, |h| h.wall_seconds),
                scheduler_seconds: clock.sched,
                cores_seconds: clock.cores - l1,
                l1_seconds: l1,
                crossbar_seconds: clock.xbar,
                partitions_seconds: clock.parts - dram,
                dram_seconds: dram + clock.mem,
                executed_cycles: executed,
                skipped_cycles: self.skipped_cycles - skipped0,
                core_runs: executed * self.cores.len() as u64 - clock.parked_core_cycles,
                partition_runs: executed * nparts,
                req_xbar_ticks: xbar_ticks,
                resp_xbar_ticks: xbar_ticks,
            }
        });
        Ok((report, profile.unwrap_or_default()))
    }

    /// Runs strictly cycle by cycle, never skipping. This is the reference
    /// semantics that [`run`](GpuSimulator::run) must reproduce exactly;
    /// the differential test suite executes every benchmark both ways and
    /// compares the reports bit for bit.
    ///
    /// # Errors
    ///
    /// [`SimError::Watchdog`] if completion is not reached within
    /// `max_cycles`.
    pub fn run_stepped(&mut self, max_cycles: u64) -> Result<SimReport, SimError> {
        self.run_loop(max_cycles, false, false)
    }

    /// The one run loop behind [`run`](GpuSimulator::run),
    /// [`run_stepped`](GpuSimulator::run_stepped) and
    /// [`run_profiled`](GpuSimulator::run_profiled). With `jump`, a
    /// machine whose next event lies in the future jumps to it instead of
    /// stepping, and finished cores are parked until the run ends; with
    /// `profile`, [`step`](GpuSimulator::step) laps a stage clock left in
    /// `self.prof`.
    fn run_loop(
        &mut self,
        max_cycles: u64,
        jump: bool,
        profile: bool,
    ) -> Result<SimReport, SimError> {
        let wall_start = host_wall_clock();
        self.prof = profile.then(|| Box::new(StageClock::new(wall_start)));
        self.jumping = jump;
        let outcome = self.run_cycles(max_cycles);
        self.unpark();
        outcome?;
        self.check_conservation()?;
        lap(&mut self.prof, Bucket::Sched);
        let wall = wall_start.elapsed_seconds();
        let mut report = self.report();
        report.host = Some(HostPerf {
            wall_seconds: wall,
            cycles_per_sec: if wall > 0.0 {
                self.now.raw() as f64 / wall
            } else {
                0.0
            },
            stepped_cycles: self.stepped_cycles,
            skipped_cycles: self.skipped_cycles,
            skipped_fraction: if self.now.raw() > 0 {
                self.skipped_cycles as f64 / self.now.raw() as f64
            } else {
                0.0
            },
        });
        Ok(report)
    }

    /// [`run_loop`](GpuSimulator::run_loop)'s cycles: steps (and, while
    /// `self.jumping`, jumps) until the machine is done or a budget,
    /// watchdog or step error ends the run.
    fn run_cycles(&mut self, max_cycles: u64) -> Result<(), SimError> {
        let mut watchdog = self.watchdog_horizon.map(Watchdog::new);
        let max = Cycle::new(max_cycles);
        while !self.is_done() {
            if self.now.raw() >= max_cycles {
                return Err(SimError::Watchdog {
                    cycle: self.now.raw(),
                    instructions: self.total_instructions(),
                    detail: self.liveness_detail(),
                });
            }
            if let Some(wd) = &mut watchdog {
                if wd.observe(self.now, self.progress_fingerprint()) {
                    let diagnosis = self.wedge_diagnosis(wd);
                    return Err(SimError::Wedged {
                        diagnosis: Box::new(diagnosis),
                    });
                }
            }
            if self.jumping {
                // Clamped to the budget and to the cycle an armed watchdog
                // trips at, so a wedged or budget-bound machine ends on
                // the same error stepping reaches.
                let mut target = self.next_event().map_or(max, |t| t.min(max));
                if let Some(wd) = &watchdog {
                    let trips_at = wd.last_progress_cycle().raw().saturating_add(wd.horizon());
                    target = target.min(Cycle::new(trips_at));
                }
                if target > self.now {
                    self.fast_forward_to(target);
                    continue;
                }
            }
            self.step()?;
        }
        Ok(())
    }

    /// Ends parking: replays every parked core's per-cycle accounting up
    /// to `now`, as if it had been stepped, and charges the stepped cycles
    /// it sat out to the stage clock.
    fn unpark(&mut self) {
        self.jumping = false;
        let now = self.now;
        for (c, core) in self.cores.iter_mut().enumerate() {
            if self.parked & 1 << c != 0 {
                let (since, stepped) = self.parked_at[c];
                core.fast_forward(since, now.raw() - since.raw());
                if let Some(clock) = self.prof.as_deref_mut() {
                    clock.parked_core_cycles += self.stepped_cycles - stepped;
                }
            }
        }
        self.parked = 0;
    }

    /// The earliest cycle at or after [`now`](GpuSimulator::now) at which
    /// any component can make progress, or `None` when the whole machine
    /// is quiescent. Never returns a cycle in the past.
    ///
    /// When the returned cycle lies strictly in the future, every cycle
    /// before it is provably inert — no queue moves, no instruction
    /// issues, no response lands — and
    /// [`fast_forward_to`](GpuSimulator::fast_forward_to) may jump the
    /// clock there directly.
    pub fn next_event(&self) -> Option<Cycle> {
        let now = self.now;
        // Undispatched CTAs land on any core with room this very cycle.
        if self.next_cta < self.grid_ctas && self.cores.iter().any(|c| c.can_accept_cta()) {
            return Some(now);
        }
        let mut earliest: Option<Cycle> = None;
        let fold = |ev: Option<Cycle>, earliest: &mut Option<Cycle>| -> bool {
            match ev {
                Some(t) if t <= now => true,
                Some(t) => {
                    *earliest = Some(match *earliest {
                        Some(e) if e <= t => e,
                        _ => t,
                    });
                    false
                }
                None => false,
            }
        };
        for core in &self.cores {
            if fold(core.next_event(now), &mut earliest) {
                return Some(now);
            }
        }
        match &self.backend {
            Backend::Hierarchy {
                req_xbar,
                resp_xbar,
                partitions,
            } => {
                if fold(req_xbar.next_event(now), &mut earliest)
                    || fold(resp_xbar.next_event(now), &mut earliest)
                {
                    return Some(now);
                }
                // Cross-component couplings the per-component events can't
                // see: packets a crossbar already ejected are popped by the
                // *receiving* side's stage — a queued response wakes its
                // core, a queued request wakes its partition — and the pop
                // returns the credit a starved crossbar may be sleeping on
                // (its own next_event deliberately ignores ejection queues;
                // see [`gpumem_noc::Crossbar::next_event`]).
                if resp_xbar.has_ejected() || req_xbar.has_ejected() {
                    return Some(now);
                }
                for p in partitions {
                    if fold(p.next_event(now), &mut earliest) {
                        return Some(now);
                    }
                }
            }
            Backend::Fixed(mem) => {
                if fold(mem.next_event(now), &mut earliest) {
                    return Some(now);
                }
            }
        }
        earliest
    }

    /// Jumps the clock to `target`, replaying the per-cycle accounting of
    /// the skipped cycles in closed form (cycle counts, stall
    /// classification, queue-occupancy statistics).
    ///
    /// The caller must have proven via
    /// [`next_event`](GpuSimulator::next_event) that no component can act
    /// before `target`; [`run`](GpuSimulator::run) is the canonical
    /// caller.
    ///
    /// # Panics
    ///
    /// Panics if `target` is in the past.
    pub fn fast_forward_to(&mut self, target: Cycle) {
        assert!(target >= self.now, "cannot fast-forward into the past");
        let cycles = target.raw() - self.now.raw();
        if cycles == 0 {
            return;
        }
        let now = self.now;
        for (c, core) in self.cores.iter_mut().enumerate() {
            if self.parked & 1 << c == 0 {
                core.fast_forward(now, cycles);
            }
        }
        match &mut self.backend {
            Backend::Hierarchy {
                req_xbar,
                resp_xbar,
                partitions,
            } => {
                for p in partitions.iter_mut() {
                    p.fast_forward(now, cycles);
                }
                req_xbar.fast_forward(cycles);
                resp_xbar.fast_forward(cycles);
            }
            Backend::Fixed(_) => {}
        }
        self.skipped_cycles += cycles;
        self.now = target;
    }

    /// Cycles advanced one at a time by [`step`](GpuSimulator::step).
    pub fn stepped_cycles(&self) -> u64 {
        self.stepped_cycles
    }

    /// Cycles crossed in bulk by
    /// [`fast_forward_to`](GpuSimulator::fast_forward_to).
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Advances the whole system by one cycle.
    ///
    /// # Errors
    ///
    /// Returns a typed [`SimError`] if a component detects a broken
    /// internal invariant (queue overflow after a fullness check, crossbar
    /// credit underflow, MSHR leak, port-protocol violation) — never on
    /// ordinary congestion.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.dispatch_ctas();
        let now = self.now;
        let park = self.jumping && self.next_cta >= self.grid_ctas;
        let parked = self.parked;

        match &mut self.backend {
            Backend::Hierarchy {
                req_xbar,
                resp_xbar,
                partitions,
            } => {
                lap(&mut self.prof, Bucket::Sched);
                for p in partitions.iter_mut() {
                    p.cycle(now, req_xbar, resp_xbar)?;
                }
                lap(&mut self.prof, Bucket::Parts);
                req_xbar.tick(now)?;
                resp_xbar.tick(now)?;
                lap(&mut self.prof, Bucket::Xbar);

                for (c, core) in self.cores.iter_mut().enumerate() {
                    if parked & 1 << c != 0 {
                        continue;
                    }
                    // One L1 fill per cycle from the response network.
                    if let Some(pkt) = resp_xbar.pop_ejected(c) {
                        core.accept_response(pkt.fetch, now);
                        self.responses_delivered += 1;
                    }
                    core.cycle(now);
                    // Inject as many fill requests as the input buffer
                    // accepts.
                    while core.peek_memory_request().is_some() && req_xbar.can_inject(c) {
                        let Some(mut fetch) = core.pop_memory_request() else {
                            break;
                        };
                        let part = (fetch.line.index() % self.cfg.num_partitions as u64) as usize;
                        fetch.partition = Some(PartitionId::new(part as u32));
                        fetch.timeline.icnt_inject = CycleStamp::at(now);
                        let bytes = fetch.request_bytes(self.cfg.line_bytes);
                        let pkt = Packet::new(fetch, part, bytes, self.cfg.noc.flit_bytes);
                        if req_xbar.try_inject(c, pkt).is_err() {
                            return Err(SimError::PortProtocol {
                                component: "core",
                                cycle: now.raw(),
                                detail: format!(
                                    "request crossbar rejected core {c}'s injection after can_inject"
                                ),
                            });
                        }
                        self.requests_injected += 1;
                    }
                    core.observe();
                    if park && core_finished(core, now) {
                        self.parked |= 1 << c;
                        self.parked_at[c] = (now.next(), self.stepped_cycles + 1);
                    }
                }
                lap(&mut self.prof, Bucket::Cores);
                for p in partitions.iter_mut() {
                    p.observe();
                }
                lap(&mut self.prof, Bucket::Parts);
                req_xbar.observe();
                resp_xbar.observe();
                lap(&mut self.prof, Bucket::Xbar);
            }
            Backend::Fixed(mem) => {
                lap(&mut self.prof, Bucket::Sched);
                // Deliver all due responses (unlimited fill bandwidth).
                while let Some(fetch) = mem.pop_due(now) {
                    let idx = fetch.core.index();
                    self.cores[idx].accept_response(fetch, now);
                    self.responses_delivered += 1;
                }
                lap(&mut self.prof, Bucket::Mem);
                for (c, core) in self.cores.iter_mut().enumerate() {
                    if parked & 1 << c != 0 {
                        continue;
                    }
                    core.cycle(now);
                    while let Some(mut fetch) = core.pop_memory_request() {
                        fetch.timeline.icnt_inject = CycleStamp::at(now);
                        self.requests_injected += 1;
                        mem.submit(fetch, now);
                    }
                    core.observe();
                    if park && core_finished(core, now) {
                        self.parked |= 1 << c;
                        self.parked_at[c] = (now.next(), self.stepped_cycles + 1);
                    }
                }
                lap(&mut self.prof, Bucket::Cores);
            }
        }

        self.stepped_cycles += 1;
        self.now = self.now.next();
        Ok(())
    }

    fn dispatch_ctas(&mut self) {
        let grid = self.grid_ctas;
        if self.next_cta >= grid {
            return;
        }
        for core in &mut self.cores {
            while self.next_cta < grid && core.can_accept_cta() {
                core.assign_cta(CtaId::new(self.next_cta));
                self.next_cta += 1;
            }
            if self.next_cta >= grid {
                break;
            }
        }
    }

    /// True when every CTA has retired and all memory traffic has drained.
    pub fn is_done(&self) -> bool {
        if self.next_cta < self.grid_ctas {
            return false;
        }
        if !self
            .cores
            .iter()
            .all(|c| c.all_ctas_retired() && !c.has_pending_memory())
        {
            return false;
        }
        match &self.backend {
            Backend::Hierarchy {
                req_xbar,
                resp_xbar,
                partitions,
            } => {
                req_xbar.is_idle() && resp_xbar.is_idle() && partitions.iter().all(|p| p.is_idle())
            }
            Backend::Fixed(mem) => mem.is_idle(),
        }
    }

    pub(crate) fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.stats().instructions).sum()
    }

    fn expected_responses(&self) -> u64 {
        self.cores
            .iter()
            .map(|c| {
                let s = c.l1_stats();
                s.load_misses - s.merged_misses
            })
            .sum()
    }

    /// The monotone progress counters the watchdog fingerprints.
    fn progress_fingerprint(&self) -> crate::watchdog::ProgressFingerprint {
        (
            self.total_instructions(),
            self.responses_delivered,
            self.requests_injected,
            self.next_cta,
        )
    }

    /// End-of-run conservation check: every unmerged L1 load miss must have
    /// produced exactly one delivered response, and no fetch arena may
    /// still hold a slot. A mismatch means a fetch was dropped or
    /// duplicated somewhere in the hierarchy; a leftover slot is a body
    /// orphaned on a path that never blocked completion (a store or
    /// writeback, say). Either is an invariant violation, reported as a
    /// leak rather than silently folded into the statistics.
    pub(crate) fn check_conservation(&self) -> Result<(), SimError> {
        let expected = self.expected_responses();
        if self.responses_delivered != expected {
            return Err(SimError::MshrLeak {
                component: "gpu",
                cycle: self.now.raw(),
                detail: format!(
                    "run completed with {} responses delivered but {} unmerged load misses",
                    self.responses_delivered, expected
                ),
            });
        }
        let live = self.live_arena_slots();
        if let Some(&(component, _, _)) = live.first() {
            return Err(SimError::MshrLeak {
                component,
                cycle: self.now.raw(),
                detail: format!("run completed but {}", describe_slots(&live)),
            });
        }
        Ok(())
    }

    /// Every fetch arena that still holds slots, in pipeline order — each
    /// core's L1, the request crossbar, each L2 partition and its DRAM
    /// channel, the response crossbar — as `(component, holder, slots)`.
    fn live_arena_slots(&self) -> Vec<(&'static str, String, usize)> {
        let mut live: Vec<_> = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| ("l1d", format!("core {i} L1"), c.l1_arena_slots()))
            .collect();
        if let Backend::Hierarchy {
            req_xbar,
            resp_xbar,
            partitions,
        } = &self.backend
        {
            let crossbar =
                |name: &str, x: &Crossbar| ("crossbar", name.to_owned(), x.arena_slots());
            live.push(crossbar("request crossbar", req_xbar));
            for (i, p) in partitions.iter().enumerate() {
                live.push(("l2_partition", format!("partition {i}"), p.arena_slots()));
                live.push((
                    "dram",
                    format!("partition {i} DRAM"),
                    p.dram().arena_slots(),
                ));
            }
            live.push(crossbar("response crossbar", resp_xbar));
        }
        live.retain(|&(_, _, slots)| slots > 0);
        live
    }

    /// Builds the structured wedge diagnosis the watchdog attaches to
    /// [`SimError::Wedged`]: who holds work, which ports/stages exert
    /// backpressure (in pipeline order, so the chain reads core →
    /// request network → partitions → response network), and the oldest
    /// in-flight fetch.
    fn wedge_diagnosis(&self, wd: &Watchdog) -> WedgeDiagnosis {
        let now = self.now;
        let pending_cores = self
            .cores
            .iter()
            .filter(|c| !c.all_ctas_retired() || c.has_pending_memory())
            .count() as u64;
        let mut components = vec![ComponentOccupancy {
            name: "cores".to_owned(),
            pending: pending_cores,
        }];
        let mut blocked_chain = Vec::new();
        // (issued, id, core) of the oldest stamped fetch seen so far;
        // writebacks carry no issue stamp and are skipped.
        let mut oldest: Option<(u64, u64, u32)> = None;
        let mut consider = |f: &gpumem_types::MemFetch| {
            if let Some(issued) = f.timeline.issued.get() {
                let key = (issued.raw(), f.id.raw(), f.core.index() as u32);
                if oldest.is_none_or(|o| (o.0, o.1) > (key.0, key.1)) {
                    oldest = Some(key);
                }
            }
        };
        for core in &self.cores {
            if let Some(f) = core.peek_memory_request() {
                consider(f);
            }
        }
        match &self.backend {
            Backend::Hierarchy {
                req_xbar,
                resp_xbar,
                partitions,
            } => {
                components.push(ComponentOccupancy {
                    name: "req_xbar".to_owned(),
                    pending: req_xbar.packets_in_network() as u64,
                });
                // Aggregate each partition stage label across partitions so
                // the occupancy table stays readable at any partition count.
                let mut stages: Vec<(&'static str, u64)> = Vec::new();
                for p in partitions {
                    for (label, n) in p.pending_breakdown() {
                        match stages.iter_mut().find(|(l, _)| *l == label) {
                            Some((_, total)) => *total += n,
                            None => stages.push((label, n)),
                        }
                    }
                }
                components.extend(stages.into_iter().map(|(label, n)| ComponentOccupancy {
                    name: label.to_owned(),
                    pending: n,
                }));
                components.push(ComponentOccupancy {
                    name: "resp_xbar".to_owned(),
                    pending: resp_xbar.packets_in_network() as u64,
                });

                for i in req_xbar.full_ingress_ports() {
                    blocked_chain.push(format!("req_xbar.ingress[{i}](full)"));
                }
                for i in req_xbar.full_ejection_ports() {
                    blocked_chain.push(format!("req_xbar.ejection[{i}](full)"));
                }
                for (i, p) in partitions.iter().enumerate() {
                    for stage in p.blocked_stages() {
                        blocked_chain.push(format!("partition[{i}].{stage}"));
                    }
                }
                for i in resp_xbar.full_ingress_ports() {
                    blocked_chain.push(format!("resp_xbar.ingress[{i}](full)"));
                }
                for i in resp_xbar.full_ejection_ports() {
                    blocked_chain.push(format!("resp_xbar.ejection[{i}](full)"));
                }

                for f in req_xbar.fetches() {
                    consider(f);
                }
                for p in partitions {
                    for f in p.fetches() {
                        consider(f);
                    }
                }
                for f in resp_xbar.fetches() {
                    consider(f);
                }
            }
            Backend::Fixed(mem) => {
                components.push(ComponentOccupancy {
                    name: "fixed_memory".to_owned(),
                    pending: mem.pending_responses() as u64,
                });
                for f in mem.fetches() {
                    consider(f);
                }
            }
        }
        components.extend(
            self.live_arena_slots()
                .into_iter()
                .map(|(_, holder, slots)| ComponentOccupancy {
                    name: format!("{holder} arena"),
                    pending: slots as u64,
                }),
        );
        let oldest_fetch = oldest.map(|(issued_at, id, core)| OldestFetch {
            id,
            core,
            issued_at,
            waiting: now.raw().saturating_sub(issued_at),
        });
        WedgeDiagnosis {
            cycle: now.raw(),
            last_progress_cycle: wd.last_progress_cycle().raw(),
            horizon: wd.horizon(),
            instructions: self.total_instructions(),
            responses_delivered: self.responses_delivered,
            requests_injected: self.requests_injected,
            ctas_dispatched: self.next_cta,
            grid_ctas: self.grid_ctas,
            components,
            oldest_fetch,
            blocked_chain,
        }
    }

    pub(crate) fn liveness_detail(&self) -> String {
        let pending_cores = self
            .cores
            .iter()
            .filter(|c| !c.all_ctas_retired() || c.has_pending_memory())
            .count();
        let backend = match &self.backend {
            Backend::Hierarchy {
                req_xbar,
                resp_xbar,
                partitions,
            } => {
                let part_pending: u64 = partitions.iter().map(|p| p.pending_requests()).sum();
                format!(
                    "req_xbar={} pkts, partitions={} reqs, resp_xbar={} pkts",
                    req_xbar.packets_in_network(),
                    part_pending,
                    resp_xbar.packets_in_network()
                )
            }
            Backend::Fixed(mem) => {
                format!("fixed_memory={} responses pending", mem.pending_responses())
            }
        };
        let live = self.live_arena_slots();
        let arenas = if live.is_empty() {
            String::new()
        } else {
            format!("; {}", describe_slots(&live))
        };
        format!(
            "{}/{} CTAs dispatched, {} cores pending, {}{}",
            self.next_cta, self.grid_ctas, pending_cores, backend, arenas
        )
    }

    /// Builds the final report (also available mid-run for progress
    /// inspection).
    pub fn report(&self) -> SimReport {
        let (partitions, req_xbar, resp_xbar) = match &self.backend {
            Backend::Hierarchy {
                req_xbar,
                resp_xbar,
                partitions,
            } => (partitions.as_slice(), Some(req_xbar), Some(resp_xbar)),
            Backend::Fixed(_) => (&[][..], None, None),
        };
        build_report(
            self.program.name(),
            &self.mode.to_string(),
            self.now,
            &self.cores,
            partitions,
            req_xbar,
            resp_xbar,
        )
    }
}

/// True when `core`, observed at the end of cycle `now` with every CTA of
/// the grid already dispatched, can never act again: no CTA is left on it
/// and nothing is in flight, so no response or CTA can wake it. Each of
/// its remaining cycles is then one `fast_forward` cycle.
fn core_finished(core: &SimtCore, now: Cycle) -> bool {
    core.all_ctas_retired() && !core.has_pending_memory() && core.next_event(now.next()).is_none()
}

/// Renders live arena slots as "partition 0 holds 1 slot, core 3 L1 holds
/// 2 slots".
fn describe_slots(live: &[(&'static str, String, usize)]) -> String {
    live.iter()
        .map(|(_, holder, n)| format!("{holder} holds {n} slot{}", if *n == 1 { "" } else { "s" }))
        .collect::<Vec<_>>()
        .join(", ")
}
