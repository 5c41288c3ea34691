//! Trace round-trip differential: every synthetic workload — the paper's
//! eight benchmarks plus the three ML kernels — encoded to the
//! `gpumem-trace v1` text format, decoded back, and simulated must be
//! bit-identical (full `SimReport`, host block stripped) to simulating
//! the synthetic program directly, in both memory modes and on both
//! engines: the per-cycle stepped oracle and the event-driven engine.
//!
//! This is the trace frontend's core guarantee: a trace is a *complete*
//! description of a workload, so replay admits no drift from the program
//! it was recorded from, no matter which engine consumes it.

use std::sync::Arc;

use gpumem::prelude::*;
use gpumem::DEFAULT_MAX_CYCLES;
use gpumem_sim::{GpuSimulator, KernelProgram, SimReport};
use gpumem_tracefmt::{encode_program, parse_str};
use gpumem_workloads::{extended_names, params_of, SyntheticKernel};

/// Small machine so the full grid (11 workloads × 2 modes × 2 engines × 2
/// frontends) stays fast; shape mirrors the golden harness.
fn small_gpu() -> GpuConfig {
    let mut cfg = GpuConfig::gtx480();
    cfg.num_cores = 3;
    cfg.num_partitions = 2;
    cfg
}

const SCALE: f64 = 0.05;

/// Full-report canonical form: only the host block (wall-clock
/// throughput) may differ between engines and frontends.
fn canonical(report: &SimReport) -> String {
    let mut r = report.clone();
    r.host = None;
    serde_json::to_string(&r).expect("report serializes")
}

fn run_engine(
    cfg: &GpuConfig,
    program: &Arc<dyn KernelProgram>,
    mode: MemoryMode,
    engine: &str,
) -> SimReport {
    let mut sim = GpuSimulator::new(cfg.clone(), Arc::clone(program), mode);
    match engine {
        "stepped" => sim.run_stepped(DEFAULT_MAX_CYCLES),
        _ => sim.run(DEFAULT_MAX_CYCLES),
    }
    .unwrap_or_else(|e| panic!("{} / {mode} / {engine}: {e}", program.name()))
}

fn check_mode(mode: MemoryMode) {
    let cfg = small_gpu();
    for name in extended_names() {
        let params = params_of(name).expect("canonical name").scaled(SCALE);
        let direct: Arc<dyn KernelProgram> = Arc::new(SyntheticKernel::new(params));
        let text = encode_program(direct.as_ref(), cfg.line_bytes)
            .unwrap_or_else(|e| panic!("{name}: encode failed: {e}"));
        let traced: Arc<dyn KernelProgram> = Arc::new(
            parse_str(&text).unwrap_or_else(|e| panic!("{name}: emitted trace rejected: {e}")),
        );

        let reference = canonical(&run_engine(&cfg, &direct, mode, "stepped"));
        for engine in ["stepped", "event"] {
            for (frontend, program) in [("synthetic", &direct), ("traced", &traced)] {
                let got = canonical(&run_engine(&cfg, program, mode, engine));
                assert_eq!(
                    got, reference,
                    "{name} / {mode} / {frontend} frontend / {engine} engine \
                     diverged from the direct stepped oracle"
                );
            }
        }
    }
}

#[test]
fn roundtrip_is_bit_identical_in_hierarchy_mode() {
    check_mode(MemoryMode::Hierarchy);
}

#[test]
fn roundtrip_is_bit_identical_in_fixed_latency_mode() {
    check_mode(MemoryMode::FixedLatency(800));
}
