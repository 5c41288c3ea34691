//! Extension: per-row ablation and cost-effectiveness ranking.
//!
//! The paper's Section V names its future work: *"assess the complexity
//! and cost of the various design configurations in order to evaluate the
//! most cost-effective ways to mitigate the bandwidth bottleneck."* This
//! module implements that study on the simulator: every Table I parameter
//! is scaled **individually** (everything else at baseline), the suite's
//! speedup is measured, and the rows are ranked by speedup gain per unit
//! of estimated hardware cost.

use gpumem_config::{single_parameter_ablations, GpuConfig};
use gpumem_sim::SimReport;
use gpumem_workloads::WorkloadKind;
use serde::{Deserialize, Serialize};

use crate::run::RunSpec;

/// The measured effect of scaling one Table I row in isolation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// Table I row name.
    pub name: String,
    /// Table I section ("DRAM", "L2 Cache", "L1 Cache").
    pub section: String,
    /// Suite-average speedup of the single-row scaling.
    pub avg_speedup: f64,
    /// Per-benchmark speedups, in suite order.
    pub speedups: Vec<(String, f64)>,
    /// Estimated incremental hardware cost in bits (storage + wires).
    pub cost_bits: u64,
}

impl AblationRow {
    /// Speedup gain (speedup − 1) per kilobit of estimated cost — the
    /// cost-effectiveness figure of merit.
    pub(crate) fn gain_per_kbit(&self) -> f64 {
        if self.cost_bits == 0 {
            return 0.0;
        }
        (self.avg_speedup - 1.0) / (self.cost_bits as f64 / 1024.0)
    }
}

/// The full per-row ablation study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationStudy {
    /// One row per Table I parameter, in table order.
    pub rows: Vec<AblationRow>,
}

impl AblationStudy {
    /// Rows ranked by cost-effectiveness, best first.
    pub(crate) fn ranked_by_cost_effectiveness(&self) -> Vec<&AblationRow> {
        let mut ranked: Vec<&AblationRow> = self.rows.iter().collect();
        ranked.sort_by(|a, b| {
            b.gain_per_kbit()
                .partial_cmp(&a.gain_per_kbit())
                .expect("finite figures of merit")
        });
        ranked
    }
}

/// The study's runs: every workload on the baseline, then on each of
/// [`single_parameter_ablations`]`(cfg)` in turn.
pub fn plan(cfg: &GpuConfig, workloads: &[WorkloadKind]) -> Vec<RunSpec> {
    let ablations = single_parameter_ablations(cfg).into_iter();
    super::variant_plan(cfg, workloads, ablations.map(|a| a.config))
}

/// The study from the reports of [`plan`].
pub fn reduce(cfg: &GpuConfig, reports: &[SimReport]) -> AblationStudy {
    let ablations = single_parameter_ablations(cfg);
    let (_, speedups) = super::speedups_over_baseline(reports, ablations.len());
    let rows = ablations
        .iter()
        .zip(speedups)
        .map(|(a, speedups)| AblationRow {
            name: a.name.to_owned(),
            section: a.section.to_owned(),
            avg_speedup: super::mean_speedup(&speedups),
            speedups,
            cost_bits: a.cost_bits,
        })
        .collect();
    AblationStudy { rows }
}

/// Renders the study as a ranked plain-text table.
pub fn ablation_table(study: &AblationStudy) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "PER-ROW ABLATION — each Table I parameter scaled alone (paper §V future work)"
    );
    let _ = writeln!(
        out,
        "{:>24} {:>10} {:>10} {:>12} {:>14}",
        "parameter", "section", "speedup", "cost (kbit)", "gain/kbit"
    );
    for row in study.ranked_by_cost_effectiveness() {
        let _ = writeln!(
            out,
            "{:>24} {:>10} {:>10.3} {:>12.1} {:>14.6}",
            row.name,
            row.section,
            row.avg_speedup,
            row.cost_bits as f64 / 1024.0,
            row.gain_per_kbit(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, speedup: f64, cost: u64) -> AblationRow {
        AblationRow {
            name: name.into(),
            section: "L2 Cache".into(),
            avg_speedup: speedup,
            speedups: vec![("x".into(), speedup)],
            cost_bits: cost,
        }
    }

    #[test]
    fn ranking_prefers_cheap_gains() {
        let study = AblationStudy {
            rows: vec![
                row("big-expensive", 1.5, 1_000_000),
                row("small-cheap", 1.1, 1_024),
            ],
        };
        let ranked = study.ranked_by_cost_effectiveness();
        assert_eq!(ranked[0].name, "small-cheap");
    }

    #[test]
    fn reduce_names_and_averages_every_row() {
        let cfg = GpuConfig::gtx480();
        let ablations = single_parameter_ablations(&cfg);
        // Two benchmarks with baseline IPCs 1 and 2; the i-th row (i from
        // 1) runs them at 1 + i/10 and 2, so speedups 1 + i/10 and 1.
        let mut reports = Vec::new();
        for i in 0..=ablations.len() {
            reports.push(crate::experiments::ipc_report(("a", 1.0 + i as f64 / 10.0)));
            reports.push(crate::experiments::ipc_report(("b", 2.0)));
        }
        let study = reduce(&cfg, &reports);
        assert_eq!(study.rows.len(), ablations.len());
        for (i, (row, a)) in study.rows.iter().zip(&ablations).enumerate() {
            let gain = (i + 1) as f64 / 10.0;
            assert_eq!(row.name, a.name);
            assert_eq!(row.cost_bits, a.cost_bits);
            assert_eq!(row.speedups[1], ("b".into(), 1.0));
            assert!((row.speedups[0].1 - (1.0 + gain)).abs() < 1e-12);
            assert!((row.avg_speedup - (1.0 + gain / 2.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn gain_per_kbit_math() {
        let r = row("r", 1.5, 2048);
        assert!((r.gain_per_kbit() - 0.25).abs() < 1e-12);
        assert_eq!(row("z", 1.5, 0).gain_per_kbit(), 0.0);
    }

    #[test]
    fn table_renders_every_row() {
        let study = AblationStudy {
            rows: vec![row("a", 1.2, 100), row("b", 0.9, 200)],
        };
        let t = ablation_table(&study);
        assert!(t.contains(" a "));
        assert!(t.contains(" b "));
        assert!(t.contains("gain/kbit"));
    }
}
