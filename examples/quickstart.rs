//! Quickstart: build the paper's GTX480 baseline, run one benchmark, and
//! read the headline measurements.
//!
//! ```text
//! cargo run --release --example quickstart [benchmark]
//! ```

use gpumem::prelude::*;

fn main() {
    #[expect(clippy::disallowed_methods, reason = "example CLI argument parsing")]
    let name = std::env::args().nth(1).unwrap_or_else(|| "sc".to_owned());
    let program = by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown benchmark {name}; pick one of {BENCHMARK_NAMES:?}");
        std::process::exit(2);
    });

    // The paper's baseline: GTX480 as configured in GPGPU-Sim, with every
    // Table I parameter at its baseline value.
    let cfg = GpuConfig::gtx480();
    println!("simulating `{name}` on the GTX480 baseline ...");

    let report = run_benchmark(&cfg, &program, MemoryMode::Hierarchy).expect("run completes");

    println!();
    println!("benchmark            : {}", report.benchmark);
    println!("cycles               : {}", report.cycles);
    println!("warp instructions    : {}", report.instructions);
    println!("IPC                  : {:.3}", report.ipc);
    println!(
        "avg L1 miss latency  : {:.0} cycles (ideal: 120 L2 hit / 220 DRAM)",
        report.avg_l1_miss_latency()
    );
    println!(
        "memory stall cycles  : {:.1}% of core cycles",
        report.memory_stall_fraction() * 100.0
    );
    println!(
        "L1 load miss rate    : {:.1}%",
        report.l1.stats.miss_rate() * 100.0
    );
    if let Some(l2) = &report.l2 {
        println!("L2 hit rate          : {:.1}%", l2.stats.hit_rate() * 100.0);
        println!(
            "L2 access queue full : {:.1}% of its usage lifetime (paper avg: 46%)",
            l2.access_queue.full_fraction_of_usage() * 100.0
        );
    }
    if let Some(dram) = &report.dram {
        println!(
            "DRAM queue full      : {:.1}% of its usage lifetime (paper avg: 39%)",
            dram.scheduler_queue.full_fraction_of_usage() * 100.0
        );
        println!(
            "DRAM row-hit rate    : {:.1}%",
            dram.stats.row_hit_rate() * 100.0
        );
    }

    // Now the same kernel with the congestion removed: a fixed 120-cycle
    // memory (the L2 ideal) with unlimited bandwidth.
    let ideal =
        run_benchmark(&cfg, &program, MemoryMode::FixedLatency(120)).expect("ideal run completes");
    println!();
    println!(
        "with an ideal 120-cycle memory the same kernel runs {:.2}x faster —",
        ideal.ipc / report.ipc
    );
    println!("that gap is the congestion the paper characterizes.");
}
