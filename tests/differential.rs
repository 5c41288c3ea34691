//! The event-driven engine must be observationally invisible: for every
//! benchmark, memory mode and machine shape, [`GpuSimulator::run`] (which
//! fast-forwards across provably inert cycles and steps only the
//! components that can act) must produce a [`SimReport`] that is
//! bit-identical to [`GpuSimulator::run_stepped`] (the per-cycle reference
//! semantics) in every field except the host-side wall-clock block.

use std::sync::Arc;

use gpumem::prelude::*;
use gpumem::DEFAULT_MAX_CYCLES;
use gpumem_sim::{KernelProgram, SimError};
use gpumem_workloads::{extended_names, params_of, SyntheticKernel};

fn small_gpu() -> GpuConfig {
    let mut cfg = GpuConfig::gtx480();
    cfg.num_cores = 3;
    cfg.num_partitions = 2;
    cfg
}

/// The machine shapes every comparison runs on. The second funnels all
/// traffic through one partition behind a single-cycle crossbar hop, so a
/// component's wake-up lands on the cycle right after the event that
/// caused it — the tightest coupling the event kernel's wake bounds see.
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

/// Runs one benchmark through both engines and asserts the reports
/// serialize to the exact same JSON once the host block is removed.
fn assert_differential(shape: &str, cfg: &GpuConfig, name: &str, mode: MemoryMode) {
    let program = kernel(name);
    let mut stepped = GpuSimulator::new(cfg.clone(), Arc::clone(&program), mode);
    let reference = canonical(stepped.run_stepped(DEFAULT_MAX_CYCLES).unwrap());
    assert_eq!(
        stepped.skipped_cycles(),
        0,
        "{shape}/{name}/{mode}: reference run must never skip"
    );

    let mut skipping = GpuSimulator::new(cfg.clone(), program, mode);
    let skipped = canonical(skipping.run(DEFAULT_MAX_CYCLES).unwrap());
    assert_eq!(
        skipped, reference,
        "{shape}/{name}/{mode}: skipping run diverged from per-cycle reference"
    );
}

/// Every workload of the extended suite on every machine shape.
fn assert_suite_differential(mode: MemoryMode) {
    for (shape, cfg) in machines() {
        for name in extended_names() {
            assert_differential(shape, &cfg, name, mode);
        }
    }
}

#[test]
fn hierarchy_reports_are_bit_identical() {
    assert_suite_differential(MemoryMode::Hierarchy);
}

#[test]
fn fixed_latency_reports_are_bit_identical() {
    assert_suite_differential(MemoryMode::FixedLatency(800));
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

#[test]
fn watchdog_fires_identically_under_skipping() {
    // The horizon is clamped to the watchdog budget, so an aborted run
    // must report the same cycle, instruction count and liveness detail
    // either way.
    let cfg = small_gpu();
    let budget = 2_000;
    for mode in [MemoryMode::Hierarchy, MemoryMode::FixedLatency(800)] {
        let program = kernel("cfd");
        let a = GpuSimulator::new(cfg.clone(), Arc::clone(&program), mode).run(budget);
        let b = GpuSimulator::new(cfg.clone(), program, mode).run_stepped(budget);
        let a = a.expect_err("budget too small to finish");
        let b = b.expect_err("budget too small to finish");
        assert_eq!(a, b, "{mode}: watchdog divergence");
        match a {
            SimError::Watchdog { cycle, .. } => assert_eq!(cycle, budget),
            other => panic!("expected a budget watchdog error, got {other}"),
        }
    }
}
