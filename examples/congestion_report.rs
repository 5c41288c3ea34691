//! Reproduces the paper's Section III congestion measurement: how often
//! the L2 access queues and the DRAM scheduler queues are full during
//! their usage lifetime, across the benchmark suite.
//!
//! ```text
//! cargo run --release --example congestion_report [scale]
//! ```

use gpumem::experiments::congestion::congestion_study;
use gpumem::prelude::*;
use gpumem::text;
use gpumem_workloads::{params_of, SyntheticKernel};
use std::sync::Arc;

fn main() {
    #[expect(clippy::disallowed_methods, reason = "example CLI argument parsing")]
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);

    let suite: Vec<Arc<dyn gpumem_sim::KernelProgram>> = BENCHMARK_NAMES
        .iter()
        .map(|n| {
            Arc::new(SyntheticKernel::new(
                params_of(n).expect("canonical").scaled(scale),
            )) as Arc<dyn gpumem_sim::KernelProgram>
        })
        .collect();

    let cfg = GpuConfig::gtx480();
    eprintln!(
        "running {} benchmarks on the baseline (scale {scale}) ...",
        suite.len()
    );
    let study = congestion_study(&cfg, &suite).expect("study completes");
    println!("{}", text::congestion_table(&study));

    // The causal chain the paper describes: congestion → latency →
    // stalls. Show the correlation across the suite.
    println!("congestion → latency → stalls, per benchmark:");
    for r in &study.rows {
        println!(
            "  {:<10} queues {:>4.0}%/{:>4.0}% full → {:>5.0}-cycle misses → {:>4.0}% mem-stalled cores",
            r.benchmark,
            r.l2_access_full * 100.0,
            r.dram_sched_full * 100.0,
            r.avg_l1_miss_latency,
            r.memory_stall_fraction * 100.0,
        );
    }
}
