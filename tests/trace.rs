//! Property tests for the fetch-lifecycle tracing layer.
//!
//! Three guarantees back the latency-breakdown numbers:
//!
//! 1. **Merge insensitivity** — per-core histograms combine to the same
//!    result no matter how they are grouped or ordered, so the report
//!    builder's merge order cannot perturb the breakdown.
//! 2. **Observational transparency** — enabling tracing must not change a
//!    single bit of the rest of the [`SimReport`]; the instrument cannot
//!    disturb the experiment.
//! 3. **Timeline sanity** — every traced fetch's stage spans are
//!    contiguous, monotone and telescope exactly to its end-to-end
//!    latency, on real simulations, for every benchmark the generator
//!    picks.

use std::sync::Arc;

use gpumem::prelude::*;
use gpumem::DEFAULT_MAX_CYCLES;
use gpumem_sim::{KernelProgram, TraceConfig};
use gpumem_types::Log2Histogram;
use gpumem_workloads::{params_of, SyntheticKernel, BENCHMARK_NAMES};
use proptest::prelude::*;

fn small_gpu() -> GpuConfig {
    let mut cfg = GpuConfig::gtx480();
    cfg.num_cores = 3;
    cfg.num_partitions = 2;
    cfg
}

fn kernel(name: &str) -> Arc<dyn KernelProgram> {
    let p = params_of(name).unwrap().scaled(0.1);
    Arc::new(SyntheticKernel::new(p))
}

fn run_benchmark_report(name: &str, mode: MemoryMode, traced: bool) -> SimReport {
    let mut sim = GpuSimulator::new(small_gpu(), kernel(name), mode);
    if traced {
        sim.enable_trace(TraceConfig::default());
    }
    sim.run_stepped(DEFAULT_MAX_CYCLES).unwrap()
}

fn shard_strategy() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(0u64..1_000_000, 0..40), 0..8)
}

proptest! {
    /// Folding per-shard histograms forward, backward, or recording every
    /// value into one histogram directly all yield identical state, so the
    /// core-index merge order the report builder uses is a convention, not
    /// a correctness requirement.
    #[test]
    fn histogram_merge_is_order_insensitive(shards in shard_strategy()) {
        let per_shard: Vec<Log2Histogram> = shards
            .iter()
            .map(|vals| {
                let mut h = Log2Histogram::new();
                for &v in vals {
                    h.record(v);
                }
                h
            })
            .collect();

        let mut forward = Log2Histogram::new();
        for h in &per_shard {
            forward.merge(h);
        }
        let mut backward = Log2Histogram::new();
        for h in per_shard.iter().rev() {
            backward.merge(h);
        }
        let mut flat = Log2Histogram::new();
        for vals in &shards {
            for &v in vals {
                flat.record(v);
            }
        }
        prop_assert_eq!(&forward, &backward);
        prop_assert_eq!(&forward, &flat);
        prop_assert_eq!(
            forward.count(),
            shards.iter().map(|v| v.len() as u64).sum::<u64>()
        );
    }
}

proptest! {
    /// Tracing is a pure observer: with the breakdown field stripped, a
    /// traced report is byte-for-byte the untraced report — IPC, queue
    /// stats, latency percentiles, everything.
    #[test]
    fn tracing_never_perturbs_the_report(
        bench in 0usize..BENCHMARK_NAMES.len(),
        fixed in proptest::arbitrary::any::<bool>(),
    ) {
        let name = BENCHMARK_NAMES[bench];
        let mode = if fixed {
            MemoryMode::FixedLatency(800)
        } else {
            MemoryMode::Hierarchy
        };
        let mut plain = run_benchmark_report(name, mode, false);
        let mut traced = run_benchmark_report(name, mode, true);
        prop_assert!(plain.latency_breakdown.is_none());
        let bd = traced
            .latency_breakdown
            .take()
            .expect("trace enabled, breakdown must be present");
        prop_assert!(bd.reconciles(), "{}: breakdown does not reconcile", name);
        plain.host = None;
        traced.host = None;
        plain.latency_breakdown = None;
        prop_assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&traced).unwrap(),
            "{}: tracing perturbed the report", name
        );
    }
}

proptest! {
    /// On real runs, every stage timeline is monotone (the breakdown's
    /// violation counters stay zero) and each reported slow fetch's spans
    /// are contiguous and sum exactly to its end-to-end latency.
    #[test]
    fn stage_timelines_are_monotone_and_telescoping(
        bench in 0usize..BENCHMARK_NAMES.len(),
    ) {
        let name = BENCHMARK_NAMES[bench];
        let report = run_benchmark_report(name, MemoryMode::Hierarchy, true);
        let bd = report.latency_breakdown.expect("breakdown present");
        prop_assert_eq!(bd.monotone_violations, 0);
        prop_assert_eq!(bd.unknown_pairs, 0);
        prop_assert_eq!(bd.incomplete_fetches, 0);
        prop_assert_eq!(bd.stage_total_cycles, bd.end_to_end_total_cycles);
        prop_assert!(!bd.slowest.is_empty(), "{}: no slow fetches captured", name);
        for f in &bd.slowest {
            prop_assert!(!f.spans.is_empty());
            let mut total = 0u64;
            for (i, s) in f.spans.iter().enumerate() {
                prop_assert!(
                    s.end >= s.start,
                    "{}: fetch {} span {} runs backwards", name, f.fetch_id, s.stage
                );
                if i > 0 {
                    prop_assert_eq!(
                        s.start, f.spans[i - 1].end,
                        "{}: fetch {} has a gap before {}", name, f.fetch_id, s.stage
                    );
                }
                total += s.end - s.start;
            }
            prop_assert_eq!(
                total, f.latency,
                "{}: fetch {} spans do not telescope to its latency",
                name, f.fetch_id
            );
        }
    }
}
