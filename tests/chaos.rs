//! Robustness tests for the deterministic fault-injection harness and the
//! simulation watchdog.
//!
//! The contract under test: for *any* [`ChaosConfig`] schedule a run
//! either completes, returns a typed [`SimError`], or trips the watchdog
//! within its horizon — it never hangs and never panics. Chaos schedules
//! are seed-deterministic: the same seed produces bit-identical outcomes
//! through `run()` and `run_stepped()`, and a chaos-off run is
//! bit-identical to a run with no chaos attached at all.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use gpumem::prelude::*;
use gpumem_sim::{ChaosConfig, KernelProgram, SimError};
use gpumem_workloads::{params_of, SyntheticKernel, WorkloadParams};
use proptest::prelude::*;

/// Safety cap on simulated cycles: every workload here finishes far below
/// this, so hitting it means the machine stopped making progress.
const CYCLE_CAP: u64 = 2_000_000;

/// Watchdog horizon used by chaos runs: far beyond any transient fault
/// duration, far below the cycle cap.
const HORIZON: u64 = 5_000;

fn small_gpu() -> GpuConfig {
    let mut cfg = GpuConfig::gtx480();
    cfg.num_cores = 3;
    cfg.num_partitions = 2;
    cfg
}

/// A suite benchmark scaled down for integration testing.
fn suite_kernel(name: &str) -> Arc<dyn KernelProgram> {
    let p = params_of(name).unwrap().scaled(0.1);
    Arc::new(SyntheticKernel::new(p))
}

/// A tiny behaviourally varied workload for the property sweep.
fn tiny_kernel(seed: u64) -> Arc<dyn KernelProgram> {
    let mut p = WorkloadParams::template("chaos-prop");
    p.ctas = 4;
    p.warps_per_cta = 2;
    p.max_ctas_per_core = 2;
    p.iters = 3;
    p.loads_per_iter = 2;
    p.lines_per_load_max = 4;
    p.working_set_lines = 1_000;
    p.l1_reuse_fraction = 0.2;
    p.seed = seed;
    p.validate();
    Arc::new(SyntheticKernel::new(p))
}

/// Runs `f` on a helper thread and panics if it produces no result within
/// `secs` — the hard hang bound the chaos contract promises. (The helper
/// thread leaks on timeout, which is fine: the test is already failing.)
fn with_timeout<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("simulation hung: no outcome within the hard timeout")
}

fn chaos_sim(
    cfg: &GpuConfig,
    program: &Arc<dyn KernelProgram>,
    chaos: ChaosConfig,
) -> GpuSimulator {
    let mut sim = GpuSimulator::new(cfg.clone(), Arc::clone(program), MemoryMode::Hierarchy);
    sim.set_chaos(chaos);
    sim.set_watchdog(Some(HORIZON));
    sim
}

/// Canonical form of an outcome: completed reports as JSON minus the host
/// block, errors in debug form. Equal strings = bit-identical outcomes.
fn canonical(outcome: &Result<SimReport, SimError>) -> String {
    match outcome {
        Ok(report) => {
            let mut r = report.clone();
            r.host = None;
            serde_json::to_string(&r).unwrap()
        }
        Err(e) => format!("{e:?}"),
    }
}

proptest! {
    /// For any chaos schedule the run terminates with some outcome within
    /// a hard wall-clock bound, and `run()` (which jumps, but never over an
    /// injection cycle or past the watchdog) agrees bit-for-bit with
    /// `run_stepped()` on what that outcome is.
    #[test]
    fn any_chaos_schedule_terminates_identically_on_every_engine(
        seed in 0u64..u64::MAX,
        intervals in (0u64..150, 0u64..150, 0u64..200, 0u64..200),
        durations in (1u64..48, 1u64..48, 1u64..96),
        workload_seed in 0u64..u64::MAX,
    ) {
        let chaos = ChaosConfig {
            seed,
            port_delay_interval: intervals.0,
            port_delay_duration: durations.0,
            drop_reinject_interval: intervals.1,
            mshr_stall_interval: intervals.2,
            mshr_stall_duration: durations.1,
            dram_lockout_interval: intervals.3,
            dram_lockout_duration: durations.2,
            wedge_at: None,
        };
        let cfg = small_gpu();
        let program = tiny_kernel(workload_seed);
        let (stepped, event) = with_timeout(120, move || {
            let stepped = chaos_sim(&cfg, &program, chaos).run_stepped(CYCLE_CAP);
            let event = chaos_sim(&cfg, &program, chaos).run(CYCLE_CAP);
            (canonical(&stepped), canonical(&event))
        });
        prop_assert_eq!(
            stepped, event,
            "chaos schedule diverged between engines"
        );
    }
}

#[test]
fn armed_runs_jump_and_match_the_stepped_oracle() {
    // `nw` waits on memory most of the time: under chaos and an armed
    // watchdog, run() must still jump between injections, and land on the
    // stepped oracle's report.
    let cfg = small_gpu();
    let program = suite_kernel("nw");
    let mut jumping = chaos_sim(&cfg, &program, ChaosConfig::standard(0))
        .run(CYCLE_CAP)
        .unwrap();
    let host = jumping.host.take().expect("run() fills host perf");
    assert!(host.skipped_cycles > 0, "no cycles skipped under chaos");
    let stepped = chaos_sim(&cfg, &program, ChaosConfig::standard(0)).run_stepped(CYCLE_CAP);
    assert_eq!(canonical(&Ok(jumping)), canonical(&stepped));
}

#[test]
fn chaos_off_is_bit_identical_to_no_chaos() {
    // A disabled config must attach no engine at all: the run is
    // bit-identical to one that never heard of chaos, on every engine.
    let cfg = small_gpu();
    let program = suite_kernel("sc");
    let mut bare = GpuSimulator::new(cfg.clone(), Arc::clone(&program), MemoryMode::Hierarchy);
    let reference = canonical(&bare.run_stepped(CYCLE_CAP));

    let off = ChaosConfig::disabled(1234);
    assert!(!off.any_fault_enabled());
    let stepped = chaos_sim(&cfg, &program, off).run_stepped(CYCLE_CAP);
    assert_eq!(canonical(&stepped), reference);
    let skipping = chaos_sim(&cfg, &program, off).run(CYCLE_CAP);
    assert_eq!(canonical(&skipping), reference);
}

#[test]
fn same_seed_same_outcome_across_processes_of_the_same_run() {
    // Two fresh simulators with the same chaos seed must reach the same
    // bit-identical outcome; a different seed must actually perturb
    // timing (same instructions, different cycle count).
    let cfg = small_gpu();
    let program = suite_kernel("cfd");
    let a = chaos_sim(&cfg, &program, ChaosConfig::standard(7)).run_stepped(CYCLE_CAP);
    let b = chaos_sim(&cfg, &program, ChaosConfig::standard(7)).run_stepped(CYCLE_CAP);
    assert_eq!(canonical(&a), canonical(&b));
    let c = chaos_sim(&cfg, &program, ChaosConfig::standard(8)).run_stepped(CYCLE_CAP);
    let (a, c) = (a.unwrap(), c.unwrap());
    assert_eq!(a.instructions, c.instructions, "chaos must never lose work");
    assert_ne!(a.cycles, c.cycles, "different seeds must perturb timing");
}

#[test]
fn wedge_is_diagnosed_within_horizon_by_every_engine() {
    // The seeded wedge fixture permanently freezes the response network;
    // every engine must report `SimError::Wedged` exactly one horizon
    // after progress stops, with a diagnosis naming the blocked chain.
    let cfg = small_gpu();
    let program = suite_kernel("cfd");
    let mut chaos = ChaosConfig::standard(5);
    chaos.wedge_at = Some(400);

    let (cfg2, program2) = (cfg.clone(), Arc::clone(&program));
    let err = with_timeout(120, move || {
        chaos_sim(&cfg2, &program2, chaos).run_stepped(CYCLE_CAP)
    })
    .expect_err("a wedged machine cannot complete");
    let diagnosis = match &err {
        SimError::Wedged { diagnosis } => diagnosis.clone(),
        other => panic!("expected a wedge diagnosis, got {other}"),
    };
    assert_eq!(diagnosis.horizon, HORIZON);
    assert_eq!(
        diagnosis.cycle - diagnosis.last_progress_cycle,
        HORIZON,
        "watchdog must fire exactly at its horizon under per-cycle stepping"
    );
    assert!(
        diagnosis
            .blocked_chain
            .iter()
            .any(|c| c.contains("resp_xbar")),
        "the chain must name the wedged response network: {:?}",
        diagnosis.blocked_chain
    );
    assert!(!diagnosis.components.is_empty());
    assert!(
        diagnosis.oldest_fetch.is_some(),
        "a wedge strands at least one in-flight fetch"
    );

    // The skipping engine must reach the very same error.
    let skipping = chaos_sim(&cfg, &program, chaos)
        .run(CYCLE_CAP)
        .expect_err("wedged");
    assert_eq!(skipping, err, "skipping engine diverged");
}

#[test]
fn profiled_runs_honour_chaos_and_the_watchdog() {
    // run_profiled is the run loop with a stage clock: it must inject the
    // same faults and fire the same watchdog as the stepped oracle.
    let cfg = small_gpu();
    let program = suite_kernel("cfd");
    let run = |chaos, horizon, profiled| {
        let mut sim = chaos_sim(&cfg, &program, chaos);
        sim.set_watchdog(Some(horizon));
        if profiled {
            canonical(&sim.run_profiled(CYCLE_CAP).map(|(report, _)| report))
        } else {
            canonical(&sim.run_stepped(CYCLE_CAP))
        }
    };

    let chaos = ChaosConfig::standard(7);
    let reference = run(chaos, HORIZON, false);
    assert!(reference.starts_with('{'), "{reference}");
    assert_eq!(run(chaos, HORIZON, true), reference);

    let wedged = ChaosConfig {
        wedge_at: Some(500),
        ..chaos
    };
    let reference = run(wedged, 2_000, false);
    assert!(reference.starts_with("Wedged"), "{reference}");
    assert_eq!(run(wedged, 2_000, true), reference);
}

#[test]
fn zero_deadline_returns_a_typed_error() {
    let cfg = small_gpu();
    let program = suite_kernel("nn");
    let mut sim = GpuSimulator::new(cfg.clone(), Arc::clone(&program), MemoryMode::Hierarchy);
    sim.set_deadline_seconds(Some(0.0));
    match sim.run_stepped(CYCLE_CAP) {
        Err(SimError::DeadlineExceeded { budget_seconds, .. }) => {
            assert_eq!(budget_seconds, 0.0);
        }
        other => panic!("expected a deadline error, got {other:?}"),
    }
    // run() honours the same budget.
    let mut sim = GpuSimulator::new(cfg, program, MemoryMode::Hierarchy);
    sim.set_deadline_seconds(Some(0.0));
    match sim.run(CYCLE_CAP) {
        Err(SimError::DeadlineExceeded { .. }) => {}
        other => panic!("expected a deadline error, got {other:?}"),
    }
}
