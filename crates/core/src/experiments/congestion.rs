//! Section III: measuring the bandwidth bottleneck as queue congestion.
//!
//! The paper quantifies congestion by how often the bounded queues of the
//! memory system are *full* during their *usage lifetime* (cycles
//! non-empty): **46%** for the L2 access queues and **39%** for the DRAM
//! scheduler queues, averaged over the suite.

use gpumem_config::GpuConfig;
use gpumem_sim::SimReport;
use gpumem_workloads::WorkloadKind;
use serde::{Deserialize, Serialize};

use crate::run::RunSpec;

/// Congestion metrics for one benchmark on one configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CongestionRow {
    /// Benchmark name.
    pub benchmark: String,
    /// IPC of the run (context).
    pub ipc: f64,
    /// Fraction of its usage lifetime the L2 access queue was full.
    pub l2_access_full: f64,
    /// Fraction of its usage lifetime the DRAM scheduler queue was full.
    pub dram_sched_full: f64,
    /// Mean L2 access-queue occupancy (entries).
    pub l2_access_mean_occupancy: f64,
    /// Mean DRAM scheduler-queue occupancy (entries).
    pub dram_sched_mean_occupancy: f64,
    /// Average observed L1 miss latency (loaded, cf. the 120/220-cycle
    /// ideals).
    pub avg_l1_miss_latency: f64,
    /// Fraction of core cycles stalled on memory.
    pub memory_stall_fraction: f64,
}

impl CongestionRow {
    /// Extracts the congestion metrics from a hierarchy-mode report.
    ///
    /// # Panics
    ///
    /// Panics if the report lacks L2/DRAM sections (fixed-latency mode).
    pub(crate) fn from_report(report: &SimReport) -> Self {
        let l2 = report.l2.as_ref().expect("hierarchy-mode report");
        let dram = report.dram.as_ref().expect("hierarchy-mode report");
        CongestionRow {
            benchmark: report.benchmark.clone(),
            ipc: report.ipc,
            l2_access_full: l2.access_queue.full_fraction_of_usage(),
            dram_sched_full: dram.scheduler_queue.full_fraction_of_usage(),
            l2_access_mean_occupancy: l2.access_queue.mean_occupancy(),
            dram_sched_mean_occupancy: dram.scheduler_queue.mean_occupancy(),
            avg_l1_miss_latency: report.avg_l1_miss_latency(),
            memory_stall_fraction: report.memory_stall_fraction(),
        }
    }
}

/// The Section III study over a benchmark suite.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CongestionStudy {
    /// Per-benchmark rows.
    pub rows: Vec<CongestionRow>,
    /// Suite average of the L2 access-queue full fraction (paper: 0.46).
    pub avg_l2_access_full: f64,
    /// Suite average of the DRAM scheduler-queue full fraction (paper:
    /// 0.39).
    pub avg_dram_sched_full: f64,
}

/// The study's runs: every workload once on the baseline hierarchy.
pub fn plan(cfg: &GpuConfig, workloads: &[WorkloadKind]) -> Vec<RunSpec> {
    super::hierarchy_runs(cfg, workloads)
}

/// The study from the reports of [`plan`].
///
/// # Panics
///
/// Panics on a fixed-latency report, which has no L2 or DRAM section.
pub fn reduce(reports: &[SimReport]) -> CongestionStudy {
    let rows: Vec<CongestionRow> = reports.iter().map(CongestionRow::from_report).collect();
    let n = rows.len().max(1) as f64;
    let avg_l2_access_full = rows.iter().map(|r| r.l2_access_full).sum::<f64>() / n;
    let avg_dram_sched_full = rows.iter().map(|r| r.dram_sched_full).sum::<f64>() / n;
    CongestionStudy {
        rows,
        avg_l2_access_full,
        avg_dram_sched_full,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_sim::{DramReport, L2Report};

    #[test]
    fn reduce_averages_the_rows() {
        let mut reports = Vec::new();
        for (name, l2_full, dram_full) in [("a", 4, 3), ("b", 6, 5)] {
            let mut report = SimReport {
                benchmark: name.into(),
                ..SimReport::default()
            };
            // Ten cycles in use, `full` of them full.
            let mut l2 = L2Report::default();
            l2.access_queue.ticks_nonempty = 10;
            l2.access_queue.ticks_full = l2_full;
            let mut dram = DramReport::default();
            dram.scheduler_queue.ticks_nonempty = 10;
            dram.scheduler_queue.ticks_full = dram_full;
            report.l2 = Some(l2);
            report.dram = Some(dram);
            reports.push(report);
        }
        let study = reduce(&reports);
        assert_eq!(study.rows[1].benchmark, "b");
        assert!((study.rows[0].l2_access_full - 0.4).abs() < 1e-12);
        assert!((study.avg_l2_access_full - 0.5).abs() < 1e-12);
        assert!((study.avg_dram_sched_full - 0.4).abs() < 1e-12);
    }
}
