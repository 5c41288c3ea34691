//! Deep-inspection tool: runs selected benchmarks on the baseline and
//! dumps every component's counters (queue occupancies, stall reasons,
//! NoC utilization, DRAM row behaviour). Used for calibrating the model;
//! kept as a diagnostic for anyone extending it.
//!
//! ```text
//! cargo run --release -p gpumem-bench --bin probe [bench ...]
//! ```

#![forbid(unsafe_code)]

fn main() {
    use gpumem::prelude::*;
    let cfg = GpuConfig::gtx480();
    #[expect(clippy::disallowed_methods, reason = "host CLI argument parsing")]
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = if args.is_empty() {
        vec!["nn", "lbm", "cfd"]
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    for name in names {
        let Some(p) = by_name(name) else {
            eprintln!("unknown benchmark {name}");
            continue;
        };
        let r = run_benchmark(&cfg, &p, MemoryMode::Hierarchy).unwrap();
        let l2 = r.l2.as_ref().unwrap();
        let d = r.dram.as_ref().unwrap();
        println!(
            "== {name}: ipc {:.2} cycles {} missLat {:.0}",
            r.ipc,
            r.cycles,
            r.avg_l1_miss_latency()
        );
        println!("  L1: {:?}", r.l1.stats);
        println!("  L2 stats: {:?}", l2.stats);
        println!(
            "  L2 accq: full% {:.2} mean {:.2} pushes {}",
            l2.access_queue.full_fraction_of_usage(),
            l2.access_queue.mean_occupancy(),
            l2.access_queue.pushes
        );
        println!(
            "  L2 missq: full% {:.2} mean {:.2}",
            l2.miss_queue.full_fraction_of_usage(),
            l2.miss_queue.mean_occupancy()
        );
        println!(
            "  L2 respq: full% {:.2} mean {:.2}",
            l2.response_queue.full_fraction_of_usage(),
            l2.response_queue.mean_occupancy()
        );
        println!(
            "  L2 toicnt: full% {:.2} mean {:.2}",
            l2.to_icnt_queue.full_fraction_of_usage(),
            l2.to_icnt_queue.mean_occupancy()
        );
        println!(
            "  DRAM: {:?} rowhit {:.2} schedq full% {:.2} mean {:.2} svc {:.0}",
            d.stats,
            d.stats.row_hit_rate(),
            d.scheduler_queue.full_fraction_of_usage(),
            d.scheduler_queue.mean_occupancy(),
            d.service_latency.mean()
        );
        let noc = r.noc.as_ref().unwrap();
        println!("  NOC resp: {:?}", noc.response);
        println!(
            "  NOC resp busy/cyc: {:.2}",
            noc.response.output_busy_cycles as f64 / (r.cycles as f64 * 15.0)
        );
    }
}
