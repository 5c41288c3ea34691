//! The whole-machine jump must be observationally invisible: for every
//! benchmark, memory mode and machine shape, [`GpuSimulator::run`] (the
//! run loop with jumps to [`GpuSimulator::next_event`] across provably
//! inert cycles) must produce a [`SimReport`] that is bit-identical to
//! [`GpuSimulator::run_stepped`] (the same loop with the jump off, the
//! per-cycle reference semantics) in every field except the host-side
//! wall-clock block. [`GpuSimulator::run_profiled`] is the same loop again
//! with a stage clock, and must agree too, and so must traced runs, whose
//! latency breakdown a jump backfills.

use std::sync::Arc;

use gpumem::prelude::*;
use gpumem::DEFAULT_MAX_CYCLES;
use gpumem_sim::{ChaosConfig, KernelProgram, SimError, TraceConfig};
use gpumem_workloads::{extended_names, params_of, SyntheticKernel};

fn small_gpu() -> GpuConfig {
    let mut cfg = GpuConfig::gtx480();
    cfg.num_cores = 3;
    cfg.num_partitions = 2;
    cfg
}

/// The machine shapes every comparison runs on. The second funnels all
/// traffic through one partition behind a single-cycle crossbar hop, so a
/// component's next event lands on the cycle right after the event that
/// caused it — the tightest coupling `next_event` has to see.
fn machines() -> [(&'static str, GpuConfig); 2] {
    let mut funnel = small_gpu();
    funnel.num_cores = 2;
    funnel.num_partitions = 1;
    funnel.noc.hop_latency = 1;
    [("3c/2p", small_gpu()), ("2c/1p/hop1", funnel)]
}

fn kernel(name: &str) -> Arc<dyn KernelProgram> {
    let p = params_of(name).unwrap().scaled(0.1);
    Arc::new(SyntheticKernel::new(p))
}

/// Serializes a report with the host block removed (it legitimately
/// differs between engines and runs).
fn canonical(mut report: SimReport) -> String {
    report.host = None;
    serde_json::to_string(&report).unwrap()
}

/// Runs one benchmark through `run_stepped()` and `run()`, with fetch
/// tracing on if `traced`, and asserts the reports serialize to the exact
/// same JSON once the host block is removed.
fn assert_differential(shape: &str, cfg: &GpuConfig, name: &str, mode: MemoryMode, traced: bool) {
    let program = kernel(name);
    let sim = |program| {
        let mut sim = GpuSimulator::new(cfg.clone(), program, mode);
        if traced {
            sim.enable_trace(TraceConfig::default());
        }
        sim
    };
    let mut stepped = sim(Arc::clone(&program));
    let reference = canonical(stepped.run_stepped(DEFAULT_MAX_CYCLES).unwrap());
    assert_eq!(
        stepped.skipped_cycles(),
        0,
        "{shape}/{name}/{mode}: reference run must never skip"
    );

    let mut skipping = sim(program);
    let skipped = canonical(skipping.run(DEFAULT_MAX_CYCLES).unwrap());
    assert_eq!(
        skipped, reference,
        "{shape}/{name}/{mode}: skipping run diverged from per-cycle reference"
    );
}

/// Every workload of the extended suite on every machine shape.
fn assert_suite_differential(mode: MemoryMode, traced: bool) {
    for (shape, cfg) in machines() {
        for name in extended_names() {
            assert_differential(shape, &cfg, name, mode, traced);
        }
    }
}

#[test]
fn hierarchy_reports_are_bit_identical() {
    assert_suite_differential(MemoryMode::Hierarchy, false);
}

#[test]
fn fixed_latency_reports_are_bit_identical() {
    assert_suite_differential(MemoryMode::FixedLatency(800), false);
}

#[test]
fn traced_hierarchy_reports_are_bit_identical() {
    assert_suite_differential(MemoryMode::Hierarchy, true);
}

#[test]
fn fixed_latency_runs_actually_skip() {
    // At an 800-cycle miss latency the machine spends most of its life
    // waiting; the horizon jump must engage, not silently degrade to
    // per-cycle stepping.
    let cfg = small_gpu();
    let mut sim = GpuSimulator::new(cfg, kernel("nw"), MemoryMode::FixedLatency(800));
    let report = sim.run(DEFAULT_MAX_CYCLES).unwrap();
    let host = report.host.expect("run() fills host perf");
    assert!(
        host.skipped_cycles > 0,
        "no cycles skipped on a latency-dominated run"
    );
    assert_eq!(host.stepped_cycles + host.skipped_cycles, report.cycles);
    assert!(host.skipped_fraction > 0.0 && host.skipped_fraction < 1.0);
}

/// The midpoint of the first window `run()` would jump across: stepping
/// from cycle 0, the first `now` whose `next_event()` lies at least two
/// cycles ahead.
fn first_jump_midpoint(program: &Arc<dyn KernelProgram>, mode: MemoryMode) -> u64 {
    let mut sim = GpuSimulator::new(small_gpu(), Arc::clone(program), mode);
    loop {
        let now = sim.now().raw();
        if let Some(ev) = sim.next_event() {
            if ev.raw() > now + 1 {
                return now + (ev.raw() - now) / 2;
            }
        }
        assert!(!sim.is_done(), "{mode}: finished without a jump window");
        sim.step().unwrap();
    }
}

#[test]
fn watchdog_fires_identically_under_skipping() {
    // The jump is clamped to the budget, so an aborted run must report the
    // same cycle, instruction count and liveness detail either way. `nw` at
    // a 1600-cycle miss latency skips most of its cycles; its budget lands
    // inside a jump window, so an unclamped jump would overshoot it.
    let cfg = small_gpu();
    let nw_fixed = MemoryMode::FixedLatency(1600);
    let cases = [
        ("cfd", MemoryMode::Hierarchy, 2_000),
        ("cfd", MemoryMode::FixedLatency(800), 2_000),
        ("nw", nw_fixed, first_jump_midpoint(&kernel("nw"), nw_fixed)),
    ];
    for (name, mode, budget) in cases {
        let program = kernel(name);
        let a = GpuSimulator::new(cfg.clone(), Arc::clone(&program), mode).run(budget);
        let b = GpuSimulator::new(cfg.clone(), program, mode).run_stepped(budget);
        let a = a.expect_err("budget too small to finish");
        let b = b.expect_err("budget too small to finish");
        assert_eq!(a, b, "{name}/{mode}: watchdog divergence");
        match a {
            SimError::Watchdog { cycle, .. } => assert_eq!(cycle, budget),
            other => panic!("expected a budget watchdog error, got {other}"),
        }
    }

    // Chaos wedges the response network: `nw` then sleeps until the
    // no-progress watchdog trips, and only the clamp to that cycle keeps
    // the jump from running on into the budget.
    let wedged = || {
        let mut sim = GpuSimulator::new(cfg.clone(), kernel("nw"), MemoryMode::Hierarchy);
        sim.set_chaos(ChaosConfig {
            wedge_at: Some(500),
            ..ChaosConfig::standard(0)
        });
        sim.set_watchdog(Some(2_000));
        sim
    };
    let mut jumping = wedged();
    let a = jumping.run(DEFAULT_MAX_CYCLES).expect_err("wedged");
    let b = wedged()
        .run_stepped(DEFAULT_MAX_CYCLES)
        .expect_err("wedged");
    assert_eq!(a, b, "nw/wedged: watchdog divergence");
    match a {
        SimError::Wedged { diagnosis } => assert_eq!(diagnosis.horizon, 2_000),
        other => panic!("expected a wedge diagnosis, got {other}"),
    }
    assert!(jumping.skipped_cycles() > 0, "the wedged run never jumped");
}

#[test]
fn profiled_runs_match_run_and_account_every_cycle() {
    let cfg = small_gpu();
    let (cores, partitions) = (cfg.num_cores as u64, cfg.num_partitions as u64);
    for mode in [MemoryMode::Hierarchy, MemoryMode::FixedLatency(800)] {
        let program = kernel("nw");
        let plain = GpuSimulator::new(cfg.clone(), Arc::clone(&program), mode)
            .run(DEFAULT_MAX_CYCLES)
            .unwrap();
        let (report, p) = GpuSimulator::new(cfg.clone(), program, mode)
            .run_profiled(DEFAULT_MAX_CYCLES)
            .unwrap();
        assert_eq!(p.executed_cycles + p.skipped_cycles, report.cycles);
        assert_eq!(canonical(report), canonical(plain), "{mode}: report");

        let (parts, xbar) = match mode {
            MemoryMode::Hierarchy => (p.executed_cycles * partitions, p.executed_cycles),
            MemoryMode::FixedLatency(_) => (0, 0),
        };
        // Less than every core every cycle: `nw` leaves a core without a
        // CTA, and a core with nothing left to do sits the run out.
        assert!(p.core_runs > 0, "{mode}");
        assert!(p.core_runs < p.executed_cycles * cores, "{mode}");
        assert_eq!(p.partition_runs, parts, "{mode}");
        assert_eq!(
            (p.req_xbar_ticks, p.resp_xbar_ticks),
            (xbar, xbar),
            "{mode}"
        );

        let buckets = [
            p.scheduler_seconds,
            p.cores_seconds,
            p.l1_seconds,
            p.crossbar_seconds,
            p.partitions_seconds,
            p.dram_seconds,
        ];
        assert!(buckets.iter().all(|&s| s >= 0.0), "{mode}: {p:?}");
        assert!(
            buckets.iter().sum::<f64>() <= p.wall_seconds,
            "{mode}: {p:?}"
        );
    }
}
