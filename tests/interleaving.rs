//! Property tests for the event-horizon protocol: arbitrary interleavings
//! of [`GpuSimulator::step`] and [`GpuSimulator::fast_forward_to`] must end
//! in exactly the same [`SimReport`] as pure per-cycle stepping,
//! [`GpuSimulator::next_event`] must never name a cycle in the past, and
//! [`GpuSimulator::run`] (which makes those jumps itself) must match
//! [`GpuSimulator::run_stepped`] on generated workloads, not only on the
//! named suite `tests/differential.rs` covers.

use std::sync::Arc;

use gpumem::prelude::*;
use gpumem_sim::KernelProgram;
use gpumem_workloads::{AccessPattern, SyntheticKernel, WorkloadParams};
use proptest::prelude::*;

/// Safety cap: every generated workload finishes far below this.
const CYCLE_CAP: u64 = 5_000_000;

fn tiny_gpu() -> GpuConfig {
    let mut cfg = GpuConfig::tiny();
    cfg.num_cores = 2;
    cfg
}

/// Builds a small but behaviourally varied workload from raw knobs.
#[expect(clippy::too_many_arguments, reason = "one argument per workload knob")]
fn workload(
    ctas: u32,
    warps_per_cta: u32,
    iters: u32,
    loads_per_iter: u32,
    lines_per_load_max: u32,
    pattern_idx: u8,
    l1_reuse: f64,
    barrier: bool,
    seed: u64,
) -> WorkloadParams {
    let mut p = WorkloadParams::template("prop");
    p.ctas = ctas;
    p.warps_per_cta = warps_per_cta;
    p.max_ctas_per_core = 2;
    p.iters = iters;
    p.loads_per_iter = loads_per_iter;
    p.lines_per_load_max = lines_per_load_max;
    p.pattern = match pattern_idx % 4 {
        0 => AccessPattern::Streaming,
        1 => AccessPattern::Strided { stride: 7 },
        2 => AccessPattern::Gather,
        _ => AccessPattern::Stencil { plane: 64 },
    };
    p.working_set_lines = 2_000;
    p.l1_reuse_fraction = l1_reuse;
    p.barrier_every = if barrier { Some(2) } else { None };
    p.seed = seed;
    p.validate();
    p
}

/// A tiny deterministic xorshift for interleaving decisions (the vendored
/// test rig has no re-entrant RNG handle inside the body).
struct Coin(u64);

impl Coin {
    fn flip(&mut self) -> bool {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 & 1 == 1
    }
}

/// Runs `program` by pure stepping, and again with `fast_forward_to`
/// jumps injected at coin-flip points, checking the horizon contract at
/// every cycle; final reports must serialize identically.
fn assert_interleaving_invisible(p: &WorkloadParams, mode: MemoryMode, coin_seed: u64) {
    // (prop_assert! in the vendored rig is a plain assert, so this helper
    // can stay a unit function.)
    let cfg = tiny_gpu();
    let program: Arc<dyn KernelProgram> = Arc::new(SyntheticKernel::new(p.clone()));

    let mut reference = GpuSimulator::new(cfg.clone(), Arc::clone(&program), mode);
    while !reference.is_done() {
        reference.step().expect("reference step never faults");
        assert!(reference.now().raw() < CYCLE_CAP, "reference run wedged");
    }

    let mut coin = Coin(coin_seed | 1);
    let mut sim = GpuSimulator::new(cfg, program, mode);
    while !sim.is_done() {
        sim.step().expect("step never faults");
        let now = sim.now();
        if let Some(ev) = sim.next_event() {
            prop_assert!(
                ev >= now,
                "next_event returned a cycle in the past: {ev:?} < {now:?}"
            );
            // Jump only sometimes, so windows are entered and left at
            // arbitrary phases rather than always at the horizon.
            if ev > now && coin.flip() {
                sim.fast_forward_to(ev);
            }
        }
        prop_assert!(sim.now().raw() < CYCLE_CAP, "interleaved run wedged");
    }

    let ja = serde_json::to_string(&reference.report()).unwrap();
    let jb = serde_json::to_string(&sim.report()).unwrap();
    prop_assert_eq!(ja, jb, "interleaved run diverged from stepped reference");
}

/// Runs `program` with `run_stepped()` and with `run()`; final reports
/// must serialize identically (host block excluded).
fn assert_jumps_invisible(p: &WorkloadParams, mode: MemoryMode) {
    let cfg = tiny_gpu();
    let program: Arc<dyn KernelProgram> = Arc::new(SyntheticKernel::new(p.clone()));

    let mut reference = GpuSimulator::new(cfg.clone(), Arc::clone(&program), mode);
    let mut a = reference
        .run_stepped(CYCLE_CAP)
        .expect("reference run finishes");
    let mut sim = GpuSimulator::new(cfg, program, mode);
    let mut b = sim.run(CYCLE_CAP).expect("skipping run finishes");
    a.host = None;
    b.host = None;
    let ja = serde_json::to_string(&a).unwrap();
    let jb = serde_json::to_string(&b).unwrap();
    prop_assert_eq!(ja, jb, "run() diverged from stepped reference");
}

proptest! {
    #[test]
    fn event_kernel_matches_stepping_hierarchy(
        knobs in (1u32..4, 1u32..3, 1u32..6, 0u32..3, 1u32..9, 0u8..4),
        l1_reuse in 0.0f64..0.5,
        barrier in proptest::arbitrary::any::<bool>(),
        seed in 0u64..u64::MAX,
    ) {
        let (ctas, warps, iters, loads, lines, pat) = knobs;
        let p = workload(ctas, warps, iters, loads, lines, pat, l1_reuse, barrier, seed);
        assert_jumps_invisible(&p, MemoryMode::Hierarchy);
    }

    #[test]
    fn event_kernel_matches_stepping_fixed(
        knobs in (1u32..4, 1u32..3, 1u32..6, 0u32..3, 1u32..9, 0u8..4),
        latency in 0u64..1_000,
        seed in 0u64..u64::MAX,
    ) {
        let (ctas, warps, iters, loads, lines, pat) = knobs;
        let p = workload(ctas, warps, iters, loads, lines, pat, 0.2, false, seed);
        assert_jumps_invisible(&p, MemoryMode::FixedLatency(latency));
    }

    #[test]
    fn interleaved_fast_forward_matches_stepping_hierarchy(
        knobs in (1u32..4, 1u32..3, 1u32..6, 0u32..3, 1u32..9, 0u8..4),
        l1_reuse in 0.0f64..0.5,
        barrier in proptest::arbitrary::any::<bool>(),
        seeds in (0u64..u64::MAX, 0u64..u64::MAX),
    ) {
        let (ctas, warps, iters, loads, lines, pat) = knobs;
        let p = workload(ctas, warps, iters, loads, lines, pat, l1_reuse, barrier, seeds.0);
        assert_interleaving_invisible(&p, MemoryMode::Hierarchy, seeds.1);
    }

    #[test]
    fn interleaved_fast_forward_matches_stepping_fixed(
        knobs in (1u32..4, 1u32..3, 1u32..6, 0u32..3, 1u32..9, 0u8..4),
        latency in 0u64..1_000,
        seeds in (0u64..u64::MAX, 0u64..u64::MAX),
    ) {
        let (ctas, warps, iters, loads, lines, pat) = knobs;
        let p = workload(ctas, warps, iters, loads, lines, pat, 0.2, false, seeds.0);
        assert_interleaving_invisible(&p, MemoryMode::FixedLatency(latency), seeds.1);
    }
}

#[test]
fn next_event_is_never_in_the_past() {
    // Deterministic sweep of one latency-heavy run: at every cycle the
    // horizon must sit at or after `now`, and when it sits strictly after,
    // jumping there must leave the machine able to act (the horizon is an
    // event, not a guess).
    let cfg = tiny_gpu();
    let p = workload(3, 2, 4, 2, 8, 2, 0.3, true, 0xFEED);
    let program: Arc<dyn KernelProgram> = Arc::new(SyntheticKernel::new(p));
    let mut sim = GpuSimulator::new(cfg, program, MemoryMode::FixedLatency(400));
    let mut horizons_in_future = 0u32;
    while !sim.is_done() {
        sim.step().expect("step never faults");
        let now = sim.now();
        match sim.next_event() {
            Some(ev) => {
                assert!(ev >= now, "horizon {ev:?} behind clock {now:?}");
                if ev > now {
                    horizons_in_future += 1;
                    sim.fast_forward_to(ev);
                    assert_eq!(
                        sim.next_event(),
                        Some(ev),
                        "after jumping to the horizon something must be actionable"
                    );
                }
            }
            None => assert!(sim.is_done(), "quiescent horizon with work outstanding"),
        }
        assert!(sim.now().raw() < CYCLE_CAP, "run wedged");
    }
    assert!(
        horizons_in_future > 0,
        "a 400-cycle miss latency must open at least one skip window"
    );
}
