//! Section II / Fig. 1: the latency tolerance profile.
//!
//! The baseline architecture is run to obtain its IPC and its actual
//! average L1 miss latency; alongside it, the memory hierarchy below the L1s is
//! replaced by a fixed-latency responder ([`gpumem_sim::MemoryMode::FixedLatency`])
//! and the latency is swept. Each point's IPC is normalized to the
//! baseline's, so the curve crosses 1.0 at the baseline's effective memory
//! latency — the paper's shaded intercept region.

use gpumem_config::GpuConfig;
use gpumem_sim::{MemoryMode, SimReport};
use gpumem_workloads::WorkloadKind;
use serde::{Deserialize, Serialize};

use crate::run::RunSpec;

/// The x-axis points of the paper's Fig. 1: 0 to 800 cycles in steps of
/// 50.
pub const FIG1_LATENCIES: [u64; 17] = [
    0, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500, 550, 600, 650, 700, 750, 800,
];

/// One point of a latency-tolerance curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyPoint {
    /// The fixed L1 miss latency imposed (x-axis).
    pub latency: u64,
    /// Raw IPC at this latency.
    pub ipc: f64,
    /// IPC normalized to the baseline architecture (y-axis).
    pub normalized_ipc: f64,
}

/// A benchmark's full Fig. 1 curve plus the derived observations the paper
/// makes about it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyProfile {
    /// Benchmark name.
    pub benchmark: String,
    /// Baseline (full-hierarchy) IPC used for normalization.
    pub baseline_ipc: f64,
    /// Baseline average L1 miss latency — where the curve crosses 1.0.
    pub baseline_avg_miss_latency: f64,
    /// The swept curve, in ascending latency order.
    pub points: Vec<LatencyPoint>,
    /// End of the performance plateau: the largest swept latency whose
    /// normalized IPC is still ≥ 95% of the curve's peak, i.e. how much
    /// latency the workload tolerates before losing performance.
    pub plateau_end: u64,
    /// Latency at which the curve crosses normalized IPC 1.0 (linear
    /// interpolation between swept points) — the workload's *effective*
    /// baseline memory latency as seen through performance.
    pub baseline_intercept: Option<f64>,
}

impl LatencyProfile {
    /// Peak normalized IPC over the sweep (the paper's headroom factor:
    /// how much faster the workload would run with a perfect memory
    /// system).
    pub fn peak_normalized_ipc(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.normalized_ipc)
            .fold(0.0, f64::max)
    }
}

fn interpolate_intercept(points: &[LatencyPoint]) -> Option<f64> {
    // Find the first adjacent pair straddling normalized IPC = 1.0
    // (curves decrease with latency).
    for w in points.windows(2) {
        let (a, b) = (w[0], w[1]);
        if (a.normalized_ipc - 1.0) * (b.normalized_ipc - 1.0) <= 0.0
            && a.normalized_ipc != b.normalized_ipc
        {
            let t = (a.normalized_ipc - 1.0) / (a.normalized_ipc - b.normalized_ipc);
            return Some(a.latency as f64 + t * (b.latency as f64 - a.latency as f64));
        }
    }
    None
}

/// Fig. 1's runs: per workload, the baseline hierarchy run and then one
/// fixed-latency run per entry of `latencies`.
pub fn plan(cfg: &GpuConfig, workloads: &[WorkloadKind], latencies: &[u64]) -> Vec<RunSpec> {
    let mut plan = Vec::with_capacity(workloads.len() * (latencies.len() + 1));
    for workload in workloads {
        let run = |mode| RunSpec {
            cfg: cfg.clone(),
            workload: workload.clone(),
            mode,
        };
        plan.push(run(MemoryMode::Hierarchy));
        plan.extend(latencies.iter().map(|&l| run(MemoryMode::FixedLatency(l))));
    }
    plan
}

/// One profile per workload from the reports of [`plan`].
pub fn reduce(latencies: &[u64], reports: &[SimReport]) -> Vec<LatencyProfile> {
    reports
        .chunks(latencies.len() + 1)
        .map(|runs| profile(latencies, &runs[0], &runs[1..]))
        .collect()
}

/// A benchmark's curve: each fixed-latency run's IPC normalized to the
/// baseline run's.
fn profile(latencies: &[u64], baseline: &SimReport, fixed: &[SimReport]) -> LatencyProfile {
    let baseline_ipc = baseline.ipc;
    let mut points: Vec<LatencyPoint> = latencies
        .iter()
        .zip(fixed)
        .map(|(&latency, r)| LatencyPoint {
            latency,
            ipc: r.ipc,
            normalized_ipc: if baseline_ipc > 0.0 {
                r.ipc / baseline_ipc
            } else {
                0.0
            },
        })
        .collect();
    points.sort_by_key(|p| p.latency);

    let peak = points.iter().map(|p| p.normalized_ipc).fold(0.0, f64::max);
    let plateau_end = points
        .iter()
        .filter(|p| p.normalized_ipc >= 0.95 * peak)
        .map(|p| p.latency)
        .max()
        .unwrap_or(0);

    LatencyProfile {
        benchmark: baseline.benchmark.clone(),
        baseline_ipc,
        baseline_avg_miss_latency: baseline.avg_l1_miss_latency(),
        baseline_intercept: interpolate_intercept(&points),
        plateau_end,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(points: &[(u64, f64)]) -> Vec<LatencyPoint> {
        points
            .iter()
            .map(|&(latency, normalized_ipc)| LatencyPoint {
                latency,
                ipc: normalized_ipc,
                normalized_ipc,
            })
            .collect()
    }

    #[test]
    fn intercept_interpolates_linearly() {
        let pts = mk(&[(0, 3.0), (100, 2.0), (200, 1.0), (300, 0.5)]);
        assert_eq!(interpolate_intercept(&pts), Some(200.0));
        let pts = mk(&[(0, 2.0), (100, 0.0)]);
        assert_eq!(interpolate_intercept(&pts), Some(50.0));
    }

    #[test]
    fn intercept_none_when_curve_stays_above_one() {
        let pts = mk(&[(0, 3.0), (800, 1.2)]);
        assert_eq!(interpolate_intercept(&pts), None);
    }

    #[test]
    fn reduce_normalizes_against_each_programs_baseline() {
        // Two programs, each a baseline run then latencies 400 and 0
        // (deliberately unsorted).
        let reports = [
            ("a", 2.0),
            ("a", 1.0),
            ("a", 4.0),
            ("b", 1.0),
            ("b", 0.5),
            ("b", 3.0),
        ]
        .map(crate::experiments::ipc_report);
        let profiles = reduce(&[400, 0], &reports);
        let curve = |p: &LatencyProfile| -> Vec<(u64, f64, f64)> {
            p.points
                .iter()
                .map(|q| (q.latency, q.ipc, q.normalized_ipc))
                .collect()
        };
        assert_eq!(profiles.len(), 2);
        let a = &profiles[0];
        assert_eq!(a.benchmark, "a");
        assert_eq!(a.baseline_ipc, 2.0);
        assert_eq!(curve(a), [(0, 4.0, 2.0), (400, 1.0, 0.5)]);
        // Crosses 1.0 two thirds of the way from 0 (2.0) to 400 (0.5).
        assert!((a.baseline_intercept.unwrap() - 800.0 / 3.0).abs() < 1e-9);
        assert_eq!(a.plateau_end, 0);
        let b = &profiles[1];
        assert_eq!(b.benchmark, "b");
        assert_eq!(curve(b), [(0, 3.0, 3.0), (400, 0.5, 0.5)]);
    }

    #[test]
    fn profile_helpers() {
        let profile = LatencyProfile {
            benchmark: "x".into(),
            baseline_ipc: 1.0,
            baseline_avg_miss_latency: 400.0,
            points: mk(&[(0, 4.0), (100, 3.9), (200, 2.0), (400, 1.0), (800, 0.4)]),
            plateau_end: 100,
            baseline_intercept: Some(400.0),
        };
        assert_eq!(profile.peak_normalized_ipc(), 4.0);
    }
}
