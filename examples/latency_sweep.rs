//! Reproduces one curve of the paper's Fig. 1: normalized IPC versus a
//! fixed L1 miss latency, for one benchmark.
//!
//! ```text
//! cargo run --release --example latency_sweep [benchmark] [scale]
//! ```
//!
//! Prints the curve as a table plus an ASCII sketch, and reports the two
//! observations the paper draws from Fig. 1: the baseline intercept is far
//! beyond the performance plateau, and far above the 120/220-cycle ideals.

use gpumem::experiments::latency_tolerance::{latency_tolerance_profile, FIG1_LATENCIES};
use gpumem::prelude::*;
use gpumem_workloads::{params_of, SyntheticKernel};
use std::sync::Arc;

fn main() {
    #[expect(clippy::disallowed_methods, reason = "example CLI argument parsing")]
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "cfd".to_owned());
    let scale: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.5);

    let params = params_of(&name).unwrap_or_else(|| {
        eprintln!("unknown benchmark {name}; pick one of {BENCHMARK_NAMES:?}");
        std::process::exit(2);
    });
    let program: Arc<dyn gpumem_sim::KernelProgram> =
        Arc::new(SyntheticKernel::new(params.scaled(scale)));

    let cfg = GpuConfig::gtx480();
    eprintln!(
        "sweeping `{name}` over {} latency points ...",
        FIG1_LATENCIES.len()
    );
    let profile =
        latency_tolerance_profile(&cfg, &program, &FIG1_LATENCIES).expect("sweep completes");

    let peak = profile.peak_normalized_ipc();
    println!("latency  norm-IPC");
    for p in &profile.points {
        let bars = ((p.normalized_ipc / peak) * 50.0).round() as usize;
        println!(
            "{:>7}  {:>8.3} |{}",
            p.latency,
            p.normalized_ipc,
            "#".repeat(bars)
        );
    }
    println!();
    println!("baseline IPC              : {:.3}", profile.baseline_ipc);
    println!(
        "baseline avg miss latency : {:.0} cycles",
        profile.baseline_avg_miss_latency
    );
    println!(
        "curve crosses 1.0 at      : {}",
        profile
            .baseline_intercept
            .map_or("beyond the sweep".to_owned(), |x| format!("{x:.0} cycles"))
    );
    println!("performance plateau ends  : {} cycles", profile.plateau_end);
    println!();
    if profile.baseline_beyond_plateau() {
        println!("observation ①: the baseline sits far beyond the plateau — reducing");
        println!("memory latency would directly improve performance.");
    } else {
        println!("this benchmark is latency-tolerant: the baseline sits on the plateau.");
    }
    if profile.baseline_avg_miss_latency > 220.0 {
        println!(
            "observation ②: the baseline latency ({:.0}) is far above the ideal",
            profile.baseline_avg_miss_latency
        );
        println!("L2 (120) and DRAM (220) access latencies — the memory system is congested.");
    }
}
