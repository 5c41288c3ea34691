//! The paper's three experiments.
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`latency_tolerance`] | Fig. 1 — normalized IPC vs fixed L1 miss latency |
//! | [`congestion`] | Section III — queue-full fractions (46% / 39%) |
//! | [`design_space`] | Table I / Section IV — ~4× scaling speedups |
//! | [`ablation`] | Section V future work — per-row ablation & cost-effectiveness |
//!
//! Each experiment is a `plan` (the [`RunSpec`]s it needs, built without
//! simulating) and a pure `reduce` from the plan's reports, in plan order,
//! to its study; `reduce` takes the parameters `plan` took, minus the
//! workloads. `gpumem_sweep::run_plan` runs a plan through a results store,
//! so a plan's cells are cached and shared with every sweep over the same
//! store.

use gpumem_config::{DesignPoint, GpuConfig};
use gpumem_sim::{MemoryMode, SimReport};
use gpumem_workloads::WorkloadKind;

use crate::run::RunSpec;

pub mod ablation;
pub mod congestion;
pub mod design_space;
pub mod latency_tolerance;

/// Every workload once on `cfg`'s full hierarchy, in input order.
fn hierarchy_runs(cfg: &GpuConfig, workloads: &[WorkloadKind]) -> Vec<RunSpec> {
    workloads
        .iter()
        .map(|w| RunSpec {
            cfg: cfg.clone(),
            workload: w.clone(),
            mode: MemoryMode::Hierarchy,
        })
        .collect()
}

/// The baseline runs, then every workload on each variant configuration in
/// turn: the layout [`speedups_over_baseline`] reads back.
fn variant_plan(
    cfg: &GpuConfig,
    workloads: &[WorkloadKind],
    variants: impl IntoIterator<Item = GpuConfig>,
) -> Vec<RunSpec> {
    let mut plan = hierarchy_runs(cfg, workloads);
    for variant in variants {
        plan.extend(hierarchy_runs(&variant, workloads));
    }
    plan
}

/// `(benchmark, value)` per benchmark, in suite order.
type PerBenchmark = Vec<(String, f64)>;

/// Reads back a [`variant_plan`] with `variants` variants: the baseline
/// IPC per benchmark, and per variant each benchmark's IPC ratio over its
/// baseline (1.0 where the baseline IPC is zero).
fn speedups_over_baseline(
    reports: &[SimReport],
    variants: usize,
) -> (PerBenchmark, Vec<PerBenchmark>) {
    let n = reports.len() / (variants + 1);
    let baseline: PerBenchmark = reports[..n]
        .iter()
        .map(|r| (r.benchmark.clone(), r.ipc))
        .collect();
    let per_variant = (1..=variants)
        .map(|v| {
            reports[n * v..n * (v + 1)]
                .iter()
                .zip(&baseline)
                .map(|(r, (name, base))| {
                    debug_assert_eq!(&r.benchmark, name);
                    (name.clone(), if *base > 0.0 { r.ipc / base } else { 1.0 })
                })
                .collect()
        })
        .collect();
    (baseline, per_variant)
}

/// Arithmetic mean of per-benchmark speedups (1.0 for none).
fn mean_speedup(speedups: &[(String, f64)]) -> f64 {
    if speedups.is_empty() {
        return 1.0;
    }
    speedups.iter().map(|(_, s)| s).sum::<f64>() / speedups.len() as f64
}

/// The paper's experiments as `repro` names them, with their plans, in
/// `repro all`'s output order: the §II latency table (which reads the
/// congestion runs), Fig. 1, §III congestion, the §IV design points and
/// the §V ablation.
pub fn paper_plans(
    cfg: &GpuConfig,
    workloads: &[WorkloadKind],
) -> [(&'static str, Vec<RunSpec>); 5] {
    let latencies = &latency_tolerance::FIG1_LATENCIES;
    let points = &DesignPoint::SECTION_IV;
    [
        ("latency", congestion::plan(cfg, workloads)),
        ("fig1", latency_tolerance::plan(cfg, workloads, latencies)),
        ("congestion", congestion::plan(cfg, workloads)),
        ("dse", design_space::plan(cfg, workloads, points)),
        ("ablation", ablation::plan(cfg, workloads)),
    ]
}

/// A report carrying only a benchmark name and an IPC, for the reducer
/// tests.
#[cfg(test)]
fn ipc_report((benchmark, ipc): (&str, f64)) -> SimReport {
    SimReport {
        benchmark: benchmark.into(),
        ipc,
        ..SimReport::default()
    }
}
