//! Stress and failure-injection tests: pathological configurations must
//! still make forward progress (deadlock freedom), just slowly.

use std::sync::Arc;

use gpumem_config::GpuConfig;
use gpumem_sim::{GpuSimulator, KernelProgram, MemoryMode, SimReport, WarpInstr};
use gpumem_types::{CtaId, LineAddr};
use gpumem_workloads::{extended_names, params_of, SyntheticKernel};

/// A mixed kernel: divergent gathers, stores and barriers — the traffic
/// most likely to expose resource-dependency cycles.
struct Torture {
    ctas: u32,
}

impl KernelProgram for Torture {
    fn name(&self) -> &str {
        "torture"
    }
    fn grid_ctas(&self) -> u32 {
        self.ctas
    }
    fn warps_per_cta(&self) -> u32 {
        4
    }
    fn instr(&self, cta: CtaId, warp: u32, pc: u32) -> Option<WarpInstr> {
        let g = u64::from(cta.index() as u32 * 4 + warp);
        match pc % 6 {
            0 => Some(WarpInstr::Load {
                lines: (0..4)
                    .map(|j| LineAddr::new((g * 131 + j * 977) % 4096))
                    .collect(),
                consume_after: 1,
            }),
            1 => Some(WarpInstr::Alu { latency: 2 }),
            2 => Some(WarpInstr::Store {
                lines: vec![LineAddr::new(5000 + (g + u64::from(pc)) % 4096)],
            }),
            3 => Some(WarpInstr::Barrier),
            4 => Some(WarpInstr::Shared { latency: 12 }),
            5 if pc < 30 => Some(WarpInstr::Alu { latency: 1 }),
            _ => None,
        }
    }
}

fn torture() -> Arc<dyn KernelProgram> {
    Arc::new(Torture { ctas: 8 })
}

/// The report minus its host block, for engine comparison.
fn canonical(mut report: SimReport) -> String {
    report.host = None;
    serde_json::to_string(&report).unwrap()
}

/// Every bounded resource at its legal minimum: maximum backpressure, so
/// a queue or credit cycle in the hierarchy closes as soon as traffic can
/// fill it. The second shape keeps the baseline L1 MSHRs: one outstanding
/// miss per core throttles the traffic below what fills the L2 side, and
/// a credit cycle there then never closes.
fn minimal_queue_machines() -> [(&'static str, GpuConfig); 2] {
    let mut cfg = GpuConfig::gtx480();
    cfg.num_cores = 2;
    cfg.num_partitions = 1;
    cfg.l1.miss_queue = 1;
    cfg.core.mem_pipeline_width = 1;
    cfg.l2.access_queue = 1;
    cfg.l2.miss_queue = 1;
    cfg.l2.response_queue = 1;
    cfg.l2.mshr_entries = 1;
    cfg.l2.mshr_merge = 1;
    cfg.dram.scheduler_queue = 1;
    cfg.dram.return_queue = 1;
    cfg.noc.input_buffer_pkts = 1;
    cfg.noc.ejection_queue = 1;
    let wide_l1 = cfg.clone();
    cfg.l1.mshr_entries = 1;
    cfg.l1.mshr_merge = 1;
    [("all at 1", cfg), ("all at 1 but L1 MSHRs", wide_l1)]
}

#[test]
fn minimal_queues_everywhere_still_complete() {
    // No deadlock allowed, on either engine, for the torture kernel or
    // any suite workload.
    let suite = extended_names().into_iter().map(|name| {
        Arc::new(SyntheticKernel::new(params_of(name).unwrap().scaled(0.02)))
            as Arc<dyn KernelProgram>
    });
    let programs: Vec<_> = std::iter::once(torture()).chain(suite).collect();
    for (shape, cfg) in minimal_queue_machines() {
        cfg.validate().unwrap();
        for program in &programs {
            let name = program.name();
            // run() jumps over inert cycles; the stepped oracle runs under
            // the watchdog, so a wedge there fails by its blocked chain
            // rather than by the cycle budget.
            let mut event =
                GpuSimulator::new(cfg.clone(), Arc::clone(program), MemoryMode::Hierarchy);
            let event_report = event
                .run(5_000_000)
                .unwrap_or_else(|e| panic!("{shape}/{name} on run(): {e}"));
            let mut stepped =
                GpuSimulator::new(cfg.clone(), Arc::clone(program), MemoryMode::Hierarchy);
            stepped.set_watchdog(Some(50_000));
            let stepped_report = stepped
                .run_stepped(5_000_000)
                .unwrap_or_else(|e| panic!("{shape}/{name} on run_stepped(): {e}"));
            assert!(stepped_report.instructions > 0);
            assert_eq!(
                canonical(event_report),
                canonical(stepped_report),
                "{shape}/{name}: engines disagree"
            );
        }
    }
}

#[test]
fn tiny_l2_thrashes_but_completes() {
    let mut cfg = GpuConfig::gtx480();
    cfg.num_cores = 2;
    cfg.num_partitions = 1;
    cfg.l2.banks_per_partition = 1;
    cfg.l2.sets_per_partition = 2;
    cfg.l2.assoc = 1;
    let mut sim = GpuSimulator::new(cfg, torture(), MemoryMode::Hierarchy);
    let report = sim.run(5_000_000).expect("completes under thrashing");
    let l2 = report.l2.unwrap();
    assert!(l2.stats.writebacks > 0, "thrashing must evict dirty lines");
}

#[test]
fn single_warp_slot_per_cta_works() {
    struct OneWarp;
    impl KernelProgram for OneWarp {
        fn name(&self) -> &str {
            "one-warp"
        }
        fn grid_ctas(&self) -> u32 {
            3
        }
        fn warps_per_cta(&self) -> u32 {
            1
        }
        fn max_ctas_per_core(&self) -> usize {
            1
        }
        fn instr(&self, _c: CtaId, _w: u32, pc: u32) -> Option<WarpInstr> {
            (pc < 4).then(|| WarpInstr::load_line(LineAddr::new(u64::from(pc) * 37), 1))
        }
    }
    let mut cfg = GpuConfig::gtx480();
    cfg.num_cores = 1;
    cfg.num_partitions = 1;
    let mut sim = GpuSimulator::new(cfg, Arc::new(OneWarp), MemoryMode::Hierarchy);
    let report = sim.run(1_000_000).expect("completes");
    assert_eq!(report.core.ctas_retired, 3);
    assert_eq!(report.instructions, 12);
}

#[test]
fn extreme_divergence_thirty_two_lines_per_load() {
    struct Diverge;
    impl KernelProgram for Diverge {
        fn name(&self) -> &str {
            "diverge"
        }
        fn grid_ctas(&self) -> u32 {
            2
        }
        fn warps_per_cta(&self) -> u32 {
            2
        }
        fn instr(&self, cta: CtaId, warp: u32, pc: u32) -> Option<WarpInstr> {
            let g = u64::from(cta.index() as u32 * 2 + warp);
            match pc {
                0 | 1 => Some(WarpInstr::Load {
                    lines: (0..32)
                        .map(|j| LineAddr::new(g * 10_000 + j * 173))
                        .collect(),
                    consume_after: 1,
                }),
                2 => Some(WarpInstr::Alu { latency: 1 }),
                _ => None,
            }
        }
    }
    let mut cfg = GpuConfig::gtx480();
    cfg.num_cores = 2;
    cfg.num_partitions = 2;
    let mut sim = GpuSimulator::new(cfg, Arc::new(Diverge), MemoryMode::Hierarchy);
    let report = sim.run(2_000_000).expect("completes");
    // 4 warps × 2 loads × 32 accesses.
    assert_eq!(report.core.global_accesses, 256);
}

#[test]
fn fixed_latency_mode_with_zero_latency_is_stable() {
    let mut cfg = GpuConfig::gtx480();
    cfg.num_cores = 2;
    let mut sim = GpuSimulator::new(cfg, torture(), MemoryMode::FixedLatency(0));
    let report = sim.run(1_000_000).expect("completes");
    // Responses submitted at cycle t are delivered at the start of t+1
    // (the fixed-latency backend's one-step pipeline), so "zero latency"
    // observes at most one cycle.
    assert!(report.l1.miss_latency.max().unwrap_or(0) <= 1);
}

#[test]
fn every_section_iv_design_point_survives_torture() {
    let base = {
        let mut c = GpuConfig::gtx480();
        c.num_cores = 3;
        c.num_partitions = 2;
        c
    };
    for dp in gpumem_config::DesignPoint::SECTION_IV {
        let cfg = dp.apply(&base);
        let mut sim = GpuSimulator::new(cfg, torture(), MemoryMode::Hierarchy);
        sim.run(5_000_000)
            .unwrap_or_else(|e| panic!("{dp} deadlocked: {e}"));
    }
}
