//! Section IV: design-space exploration over the Table I parameters.
//!
//! Each selected level of the memory hierarchy has its Table I parameters
//! scaled to ~4× ([`DesignPoint::apply`]); each benchmark is re-run and its
//! speedup over the baseline recorded. The paper's headline averages:
//! **L1 +4%**, **L2 +59%**, **DRAM +11%** in isolation, **L1+L2 +69%** and
//! **L2+DRAM +76%** combined — with the combined gains exceeding the sums
//! of their parts (synergy), and isolated L1 scaling *degrading* some
//! benchmarks.

use gpumem_config::{DesignPoint, GpuConfig};
use gpumem_sim::SimReport;
use gpumem_workloads::WorkloadKind;
use serde::{Deserialize, Serialize};

use crate::run::RunSpec;

/// Speedups of one design point over the baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DsePointResult {
    /// The design point evaluated.
    pub design: DesignPoint,
    /// Per-benchmark speedup (IPC ratio vs. baseline), in suite order.
    pub speedups: Vec<(String, f64)>,
}

impl DsePointResult {
    /// Arithmetic-mean speedup over the suite (the paper's "average
    /// speedup").
    pub fn average_speedup(&self) -> f64 {
        super::mean_speedup(&self.speedups)
    }

    /// Geometric-mean speedup over the suite.
    pub(crate) fn geomean_speedup(&self) -> f64 {
        if self.speedups.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self.speedups.iter().map(|(_, s)| s.ln()).sum();
        (log_sum / self.speedups.len() as f64).exp()
    }

    /// Benchmarks this design point *slowed down* (speedup < 1), the
    /// paper's counter-productivity observation for isolated scaling.
    pub fn degraded(&self) -> Vec<&str> {
        self.speedups
            .iter()
            .filter(|(_, s)| *s < 1.0)
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

/// The full Section IV study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DseStudy {
    /// Baseline IPC per benchmark, in suite order.
    pub baseline_ipc: Vec<(String, f64)>,
    /// Results per design point, in the order supplied.
    pub points: Vec<DsePointResult>,
}

impl DseStudy {
    /// The result for a specific design point, if it was evaluated.
    pub fn result_for(&self, design: DesignPoint) -> Option<&DsePointResult> {
        self.points.iter().find(|p| p.design == design)
    }

    /// Checks the paper's synergy claim for `combined = a + b`: the
    /// combined average speedup *gain* exceeds the sum of the isolated
    /// gains. Returns `None` if any of the three points is missing.
    pub fn synergy_exceeds_sum(
        &self,
        a: DesignPoint,
        b: DesignPoint,
        combined: DesignPoint,
    ) -> Option<bool> {
        let ga = self.result_for(a)?.average_speedup() - 1.0;
        let gb = self.result_for(b)?.average_speedup() - 1.0;
        let gc = self.result_for(combined)?.average_speedup() - 1.0;
        Some(gc > ga + gb)
    }
}

/// The study's runs: every workload on the baseline, then on each design
/// point in turn.
pub fn plan(cfg: &GpuConfig, workloads: &[WorkloadKind], points: &[DesignPoint]) -> Vec<RunSpec> {
    super::variant_plan(cfg, workloads, points.iter().map(|dp| dp.apply(cfg)))
}

/// The study from the reports of [`plan`].
pub fn reduce(points: &[DesignPoint], reports: &[SimReport]) -> DseStudy {
    let (baseline_ipc, speedups) = super::speedups_over_baseline(reports, points.len());
    DseStudy {
        baseline_ipc,
        points: points
            .iter()
            .zip(speedups)
            .map(|(&design, speedups)| DsePointResult { design, speedups })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(design: DesignPoint, speedups: &[f64]) -> DsePointResult {
        DsePointResult {
            design,
            speedups: speedups
                .iter()
                .enumerate()
                .map(|(i, &s)| (format!("b{i}"), s))
                .collect(),
        }
    }

    #[test]
    fn averages() {
        let p = point(DesignPoint::L2_ONLY, &[1.0, 2.0, 4.0]);
        assert!((p.average_speedup() - 7.0 / 3.0).abs() < 1e-12);
        assert!((p.geomean_speedup() - 2.0).abs() < 1e-12);
        assert!(p.degraded().is_empty());
    }

    #[test]
    fn reduce_pairs_each_point_with_its_speedups() {
        // Baseline, then L2-only, then L1-only, each over benchmarks a, b.
        let reports = [
            ("a", 1.0),
            ("b", 2.0),
            ("a", 1.5),
            ("b", 5.0),
            ("a", 0.5),
            ("b", 2.0),
        ]
        .map(crate::experiments::ipc_report);
        let study = reduce(&[DesignPoint::L2_ONLY, DesignPoint::L1_ONLY], &reports);
        assert_eq!(
            study.baseline_ipc,
            vec![("a".into(), 1.0), ("b".into(), 2.0)]
        );
        let l2 = study.result_for(DesignPoint::L2_ONLY).unwrap();
        assert_eq!(l2.speedups, vec![("a".into(), 1.5), ("b".into(), 2.5)]);
        assert_eq!(l2.average_speedup(), 2.0);
        let l1 = study.result_for(DesignPoint::L1_ONLY).unwrap();
        assert_eq!(l1.average_speedup(), 0.75);
        assert_eq!(l1.degraded(), vec!["a"]);
    }

    #[test]
    fn synergy_check() {
        let study = DseStudy {
            baseline_ipc: vec![],
            points: vec![
                point(DesignPoint::L1_ONLY, &[1.04]),
                point(DesignPoint::L2_ONLY, &[1.59]),
                point(DesignPoint::L1_L2, &[1.69]),
            ],
        };
        assert_eq!(
            study.synergy_exceeds_sum(
                DesignPoint::L1_ONLY,
                DesignPoint::L2_ONLY,
                DesignPoint::L1_L2
            ),
            Some(true)
        );
        assert_eq!(
            study.synergy_exceeds_sum(
                DesignPoint::DRAM_ONLY,
                DesignPoint::L2_ONLY,
                DesignPoint::L2_DRAM
            ),
            None
        );
    }

    #[test]
    fn empty_point_defaults_to_unity() {
        let p = point(DesignPoint::BASELINE, &[]);
        assert_eq!(p.average_speedup(), 1.0);
        assert_eq!(p.geomean_speedup(), 1.0);
    }
}
