//! Reproducibility: identical inputs must give bit-identical results.

#![expect(clippy::disallowed_methods, reason = "test harness")]

use std::sync::Arc;

use gpumem::prelude::*;
use gpumem_sim::{KernelProgram, MemoryMode};
use gpumem_sweep::SweepOptions;
use gpumem_workloads::{params_of, SyntheticKernel, WorkloadKind};

fn small_gpu() -> GpuConfig {
    let mut cfg = GpuConfig::gtx480();
    cfg.num_cores = 3;
    cfg.num_partitions = 2;
    cfg
}

fn kernel(name: &str, seed_offset: u64) -> Arc<dyn KernelProgram> {
    let mut p = params_of(name).unwrap().scaled(0.1);
    p.seed = p.seed.wrapping_add(seed_offset);
    Arc::new(SyntheticKernel::new(p))
}

#[test]
fn repeated_runs_are_identical() {
    let cfg = small_gpu();
    for name in ["cfd", "nw", "lbm"] {
        let a = run_benchmark(&cfg, &kernel(name, 0), MemoryMode::Hierarchy).unwrap();
        let b = run_benchmark(&cfg, &kernel(name, 0), MemoryMode::Hierarchy).unwrap();
        assert_eq!(a.cycles, b.cycles, "{name}");
        assert_eq!(a.instructions, b.instructions, "{name}");
        assert_eq!(a.l1.stats, b.l1.stats, "{name}");
        assert_eq!(
            a.l2.as_ref().unwrap().stats,
            b.l2.as_ref().unwrap().stats,
            "{name}"
        );
        assert_eq!(
            a.dram.as_ref().unwrap().stats,
            b.dram.as_ref().unwrap().stats,
            "{name}"
        );
    }
}

#[test]
fn different_seeds_change_gather_behaviour() {
    let cfg = small_gpu();
    let a = run_benchmark(&cfg, &kernel("sc", 0), MemoryMode::Hierarchy).unwrap();
    let b = run_benchmark(&cfg, &kernel("sc", 1), MemoryMode::Hierarchy).unwrap();
    // Same instruction counts (structure unchanged)...
    assert_eq!(a.instructions, b.instructions);
    // ...but different addresses ⇒ different timing.
    assert_ne!(a.cycles, b.cycles);
}

/// Full report JSON without the host block (wall-clock times differ).
fn canonical(report: &gpumem_sim::SimReport) -> String {
    let mut r = report.clone();
    r.host = None;
    serde_json::to_string(&r).unwrap()
}

#[test]
fn parallel_runner_is_deterministic() {
    // Thread scheduling must not leak into results: one worker and the
    // host's full width, each into its own store, give the same reports,
    // in plan order.
    let cfg = small_gpu();
    let plan: Vec<gpumem::RunSpec> = ["cfd", "dwt2d", "nn", "sc"]
        .iter()
        .flat_map(|n| {
            let workload = WorkloadKind::Synthetic(params_of(n).unwrap().scaled(0.1));
            [MemoryMode::Hierarchy, MemoryMode::FixedLatency(200)].map(|mode| gpumem::RunSpec {
                cfg: cfg.clone(),
                workload: workload.clone(),
                mode,
            })
        })
        .collect();
    let run = |workers: usize| -> Vec<String> {
        let dir = std::env::temp_dir().join(format!(
            "gpumem-determinism-{}-{workers}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SweepOptions {
            workers,
            ..SweepOptions::default()
        };
        let (reports, _) = gpumem_sweep::run_plan(&plan, &dir, &opts).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        reports.iter().map(canonical).collect()
    };
    let serial = run(1);
    let parallel = run(0);
    assert_eq!(serial.len(), plan.len());
    for (i, spec) in plan.iter().enumerate() {
        assert!(serial[i].contains(&format!("\"benchmark\":\"{}\"", spec.workload.name())));
        assert_eq!(serial[i], parallel[i], "plan entry {i} ({spec:?})");
    }
}

#[test]
fn report_json_roundtrip_preserves_results() {
    let cfg = small_gpu();
    let report = run_benchmark(&cfg, &kernel("ss", 0), MemoryMode::Hierarchy).unwrap();
    let json = serde_json::to_string(&report).unwrap();
    let back: gpumem_sim::SimReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.cycles, report.cycles);
    assert_eq!(back.ipc, report.ipc);
    assert_eq!(back.l1.stats, report.l1.stats);
}
