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
//! programs. The named entry points (`congestion_study`, …) are
//! plan → [`run_plan`](crate::run_plan) → reduce.

use std::sync::Arc;

use gpumem_config::{DesignPoint, GpuConfig};
use gpumem_sim::{MemoryMode, SimReport};
use gpumem_simt::KernelProgram;

use crate::run::RunSpec;

pub mod ablation;
pub mod congestion;
pub mod design_space;
pub mod latency_tolerance;

/// Every program once on `cfg`'s full hierarchy, in input order.
fn hierarchy_runs(cfg: &GpuConfig, programs: &[Arc<dyn KernelProgram>]) -> Vec<RunSpec> {
    programs
        .iter()
        .map(|p| RunSpec {
            cfg: cfg.clone(),
            program: Arc::clone(p),
            mode: MemoryMode::Hierarchy,
        })
        .collect()
}

/// The baseline runs, then every program on each variant configuration in
/// turn: the layout [`speedups_over_baseline`] reads back.
fn variant_plan(
    cfg: &GpuConfig,
    programs: &[Arc<dyn KernelProgram>],
    variants: impl IntoIterator<Item = GpuConfig>,
) -> Vec<RunSpec> {
    let mut plan = hierarchy_runs(cfg, programs);
    for variant in variants {
        plan.extend(hierarchy_runs(&variant, programs));
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
    programs: &[Arc<dyn KernelProgram>],
) -> [(&'static str, Vec<RunSpec>); 5] {
    let latencies = &latency_tolerance::FIG1_LATENCIES;
    let points = &DesignPoint::SECTION_IV;
    [
        ("latency", congestion::plan(cfg, programs)),
        ("fig1", latency_tolerance::plan(cfg, programs, latencies)),
        ("congestion", congestion::plan(cfg, programs)),
        ("dse", design_space::plan(cfg, programs, points)),
        ("ablation", ablation::plan(cfg, programs)),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::distinct_runs;

    #[test]
    fn paper_plan_shares_the_baseline_runs() {
        let programs = gpumem_workloads::benchmarks();
        let plans = paper_plans(&GpuConfig::gtx480(), &programs);
        let plan: Vec<RunSpec> = plans.into_iter().flat_map(|(_, p)| p).collect();
        // Per benchmark: 1 (§II) + 1 + 17 (Fig. 1) + 1 (§III)
        // + 1 + 5 (§IV) + 1 + 13 (§V) = 40 entries, of which the five
        // baseline runs are one: 36 simulations. No §IV design point
        // scales exactly one Table I row, so none equals an ablation.
        assert_eq!(plan.len(), 8 * 40);
        assert_eq!(distinct_runs(&plan), 8 * 36);
    }
}
