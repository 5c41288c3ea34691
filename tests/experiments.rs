//! Integration tests of the paper's three experiments on a scaled-down
//! suite: the qualitative claims must hold at every scale. Each runs its
//! plan through a throwaway results store and reduces the reports.

#![expect(clippy::disallowed_methods, reason = "test harness")]

use std::sync::atomic::{AtomicUsize, Ordering};

use gpumem::experiments::{congestion, design_space, latency_tolerance};
use gpumem::prelude::*;
use gpumem::RunSpec;
use gpumem_sweep::SweepOptions;
use gpumem_workloads::{params_of, WorkloadKind};

fn quick_suite(names: &[&str]) -> Vec<WorkloadKind> {
    names
        .iter()
        .map(|n| WorkloadKind::Synthetic(params_of(n).unwrap().scaled(0.12)))
        .collect()
}

/// The plan's reports, in plan order, from a fresh store.
fn run(plan: &[RunSpec]) -> Vec<SimReport> {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gpumem-experiments-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (reports, _) = gpumem_sweep::run_plan(plan, &dir, &SweepOptions::default()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    reports
}

fn latency_tolerance_profile(
    cfg: &GpuConfig,
    workload: WorkloadKind,
    latencies: &[u64],
) -> LatencyProfile {
    let reports = run(&latency_tolerance::plan(cfg, &[workload], latencies));
    latency_tolerance::reduce(latencies, &reports).remove(0)
}

fn design_space_exploration(
    cfg: &GpuConfig,
    suite: &[WorkloadKind],
    points: &[DesignPoint],
) -> DseStudy {
    design_space::reduce(points, &run(&design_space::plan(cfg, suite, points)))
}

fn small_gpu() -> GpuConfig {
    let mut cfg = GpuConfig::gtx480();
    cfg.num_cores = 4;
    cfg.num_partitions = 2;
    cfg
}

#[test]
fn latency_tolerance_curve_is_monotonically_damaging() {
    let cfg = small_gpu();
    let workload = quick_suite(&["nn"]).pop().unwrap();
    let profile = latency_tolerance_profile(&cfg, workload, &[0, 100, 200, 400, 800]);
    // Normalized IPC must not increase with latency (small tolerance for
    // scheduling noise).
    for w in profile.points.windows(2) {
        assert!(
            w[1].normalized_ipc <= w[0].normalized_ipc * 1.02,
            "IPC rose with latency: {:?} -> {:?}",
            w[0],
            w[1]
        );
    }
    // At zero latency a memory-bound kernel runs much faster than baseline.
    assert!(profile.points[0].normalized_ipc > 1.5);
    assert_eq!(profile.benchmark, "nn");
}

#[test]
fn latency_intercept_tracks_measured_baseline_latency() {
    // The paper's reading of Fig. 1: the curve crosses 1.0 at the
    // baseline's effective memory latency. Verify the intercept is within
    // 25% of the directly measured average miss latency.
    let cfg = small_gpu();
    let workload = quick_suite(&["sc"]).pop().unwrap();
    let lats: Vec<u64> = (0..=16).map(|i| i * 50).collect();
    let profile = latency_tolerance_profile(&cfg, workload, &lats);
    let intercept = profile
        .baseline_intercept
        .expect("baseline latency inside sweep range");
    let measured = profile.baseline_avg_miss_latency;
    let ratio = intercept / measured;
    assert!(
        (0.7..1.4).contains(&ratio),
        "intercept {intercept:.0} vs measured {measured:.0}"
    );
}

#[test]
fn compute_bound_kernel_is_latency_tolerant() {
    let cfg = small_gpu();
    let workload = quick_suite(&["leukocyte"]).pop().unwrap();
    let profile = latency_tolerance_profile(&cfg, workload, &[0, 200, 400]);
    // leukocyte's curve is nearly flat: peak gain small.
    assert!(
        profile.peak_normalized_ipc() < 2.0,
        "leukocyte peak {} should be small",
        profile.peak_normalized_ipc()
    );
}

#[test]
fn congestion_study_reports_congested_queues() {
    let cfg = small_gpu();
    let study = congestion::reduce(&run(&congestion::plan(
        &cfg,
        &quick_suite(&["nn", "cfd", "lbm"]),
    )));
    assert_eq!(study.rows.len(), 3);
    assert!(study.avg_l2_access_full > 0.05, "L2 queues should congest");
    for r in &study.rows {
        assert!((0.0..=1.0).contains(&r.l2_access_full));
        assert!((0.0..=1.0).contains(&r.dram_sched_full));
        assert!(
            r.avg_l1_miss_latency > 120.0,
            "{}: latency under ideal",
            r.benchmark
        );
    }
}

#[test]
fn dse_reproduces_the_papers_qualitative_claims() {
    let cfg = small_gpu();
    let suite = quick_suite(&["nn", "sc", "lbm", "dwt2d"]);
    let study = design_space_exploration(&cfg, &suite, &DesignPoint::SECTION_IV);

    let avg = |dp| {
        study
            .result_for(dp)
            .map(|r| r.average_speedup())
            .expect("present")
    };
    let l1 = avg(DesignPoint::L1_ONLY);
    let l2 = avg(DesignPoint::L2_ONLY);
    let dram = avg(DesignPoint::DRAM_ONLY);
    let l2dram = avg(DesignPoint::L2_DRAM);

    // Claim 1: the cache hierarchy (L2) is the dominant bottleneck —
    // scaling it beats scaling the off-chip bandwidth.
    assert!(l2 > dram, "L2 {l2:.3} must beat DRAM {dram:.3}");
    // Claim 2: L2 scaling beats L1 scaling.
    assert!(l2 > l1, "L2 {l2:.3} must beat L1 {l1:.3}");
    // Claim 3: synergy — combined L2+DRAM gain exceeds the sum of parts.
    assert_eq!(
        study.synergy_exceeds_sum(
            DesignPoint::L2_ONLY,
            DesignPoint::DRAM_ONLY,
            DesignPoint::L2_DRAM
        ),
        Some(true),
        "L2+DRAM {l2dram:.3} vs L2 {l2:.3} + DRAM {dram:.3}"
    );
    // Claim 4 (Section V): improving the cache hierarchy surpasses a
    // baseline cache hierarchy with high-bandwidth DRAM.
    assert!(l2 > dram);
}

#[test]
fn dse_baseline_ipcs_are_positive_and_named() {
    let cfg = small_gpu();
    let suite = quick_suite(&["nn", "nw"]);
    let study = design_space_exploration(&cfg, &suite, &[DesignPoint::L2_ONLY]);
    assert_eq!(study.baseline_ipc.len(), 2);
    assert_eq!(study.baseline_ipc[0].0, "nn");
    assert!(study.baseline_ipc.iter().all(|(_, ipc)| *ipc > 0.0));
}
