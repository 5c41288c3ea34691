//! Reproduces the paper's Section IV design-space exploration on a
//! configurable subset of the suite: scale the Table I parameters of the
//! L1, L2 and DRAM (alone and combined) and measure the speedups.
//!
//! ```text
//! cargo run --release --example design_space [scale] [bench ...]
//! ```

use gpumem::experiments::design_space::design_space_exploration;
use gpumem::prelude::*;
use gpumem::text;
use gpumem_workloads::{params_of, SyntheticKernel};
use std::sync::Arc;

fn main() {
    #[expect(clippy::disallowed_methods, reason = "example CLI argument parsing")]
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale: f64 = match args.first().and_then(|s| s.parse().ok()) {
        Some(s) => {
            args.remove(0);
            s
        }
        None => 0.4,
    };
    let names: Vec<String> = if args.is_empty() {
        BENCHMARK_NAMES.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };

    let suite: Vec<Arc<dyn gpumem_sim::KernelProgram>> = names
        .iter()
        .map(|n| {
            let p = params_of(n).unwrap_or_else(|| {
                eprintln!("unknown benchmark {n}");
                std::process::exit(2);
            });
            Arc::new(SyntheticKernel::new(p.scaled(scale))) as Arc<dyn gpumem_sim::KernelProgram>
        })
        .collect();

    let cfg = GpuConfig::gtx480();
    println!("{}", text::table_i());
    eprintln!(
        "exploring {} design points × {} benchmarks (scale {scale}) ...",
        DesignPoint::SECTION_IV.len(),
        suite.len()
    );
    let study = design_space_exploration(&cfg, &suite, &DesignPoint::SECTION_IV)
        .expect("exploration completes");
    println!("{}", text::dse_table(&study));

    // The paper's synergy argument, spelled out.
    if let Some(true) = study.synergy_exceeds_sum(
        DesignPoint::L2_ONLY,
        DesignPoint::DRAM_ONLY,
        DesignPoint::L2_DRAM,
    ) {
        println!("synergy confirmed: the L2+DRAM gain exceeds the sum of the isolated gains.");
    }
    let l2 = study
        .result_for(DesignPoint::L2_ONLY)
        .map(|r| r.average_speedup());
    let dram = study
        .result_for(DesignPoint::DRAM_ONLY)
        .map(|r| r.average_speedup());
    if let (Some(l2), Some(dram)) = (l2, dram) {
        if l2 > dram {
            println!(
                "cache-hierarchy scaling (avg {l2:.2}x) beats high-bandwidth DRAM alone (avg {dram:.2}x),"
            );
            println!("the paper's central conclusion.");
        }
    }
}
