//! Property tests for the workload generator.

use gpumem_simt::{KernelProgram, WarpInstr};
use gpumem_types::CtaId;
use gpumem_workloads::{AccessPattern, SyntheticKernel, WorkloadParams};
use proptest::prelude::*;

fn arbitrary_params() -> impl Strategy<Value = WorkloadParams> {
    let shape = (
        (
            1u32..20, // ctas
            1u32..8,  // warps_per_cta
            1u32..12, // iters
            0u32..10, // alu
            0u32..4,  // shared
        ),
        (
            0u32..4, // loads
            0u32..3, // stores
            1u32..6, // k_min
            0u32..8, // k_extra
            1u32..8, // consume
        ),
    );
    let flavour = (
        0u64..4,                   // pattern selector
        0.0f64..1.0,               // reuse
        0.0f64..1.0,               // l1 reuse
        1u64..100_000,             // working set
        prop::option::of(1u32..5), // barrier
        any::<u64>(),              // seed
    );
    (shape, flavour).prop_map(
        |(
            ((ctas, wpc, iters, alu, shared), (loads, stores, kmin, kextra, consume)),
            (pat, reuse, l1r, ws, barrier, seed),
        )| {
            let mut p = WorkloadParams::template("prop");
            p.ctas = ctas;
            p.warps_per_cta = wpc;
            p.iters = iters;
            p.alu_per_iter = alu;
            p.shared_per_iter = shared;
            // Keep at least one instruction in the body.
            p.loads_per_iter = loads.max(u32::from(alu + shared + stores == 0));
            p.stores_per_iter = stores;
            p.lines_per_load_min = kmin;
            p.lines_per_load_max = (kmin + kextra).min(32);
            p.consume_distance = consume;
            p.pattern = match pat {
                0 => AccessPattern::Streaming,
                1 => AccessPattern::Strided {
                    stride: 1 + seed % 100,
                },
                2 => AccessPattern::Gather,
                _ => AccessPattern::Stencil {
                    plane: 1 + seed % 10_000,
                },
            };
            p.reuse_fraction = reuse;
            p.l1_reuse_fraction = l1r;
            p.working_set_lines = ws;
            p.hot_lines = (ws / 8).max(1);
            p.barrier_every = barrier;
            p.seed = seed;
            p
        },
    )
}

proptest! {
    /// The instruction stream is a pure function: the same (cta, warp, pc)
    /// decodes identically on repeated and out-of-order queries.
    #[test]
    fn stream_is_pure(params in arbitrary_params(), cta in 0u32..20, warp in 0u32..8) {
        let k = SyntheticKernel::new(params.clone());
        let cta = CtaId::new(cta % params.ctas);
        let warp = warp % params.warps_per_cta;
        let body = params.instrs_per_iter() * params.iters;
        // Query backwards first, then forwards — must agree.
        let backwards: Vec<_> = (0..body.min(60)).rev().map(|pc| k.instr(cta, warp, pc)).collect();
        let forwards: Vec<_> = (0..body.min(60)).map(|pc| k.instr(cta, warp, pc)).collect();
        let reversed: Vec<_> = backwards.into_iter().rev().collect();
        prop_assert_eq!(forwards, reversed);
    }

    /// Streams terminate exactly at iters × body and never resume.
    #[test]
    fn stream_terminates(params in arbitrary_params()) {
        let k = SyntheticKernel::new(params.clone());
        let end = params.instrs_per_iter() * params.iters;
        prop_assert!(k.instr(CtaId::new(0), 0, end - 1).is_some());
        for pc in end..end + 5 {
            prop_assert!(k.instr(CtaId::new(0), 0, pc).is_none());
        }
    }

    /// Generated addresses stay within the declared footprint and loads
    /// respect the coalescing bounds with distinct lines.
    #[test]
    fn addresses_and_coalescing_in_bounds(params in arbitrary_params()) {
        let k = SyntheticKernel::new(params.clone());
        let body = params.instrs_per_iter() * params.iters;
        let bound = params.working_set_lines * 2;
        for pc in 0..body.min(80) {
            match k.instr(CtaId::new(0), 0, pc) {
                Some(WarpInstr::Load { lines, consume_after }) => {
                    prop_assert!(!lines.is_empty());
                    prop_assert!(lines.len() <= params.lines_per_load_max as usize);
                    prop_assert!(consume_after >= 1);
                    let mut sorted = lines.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    prop_assert_eq!(sorted.len(), lines.len());
                    for l in &lines {
                        prop_assert!(l.index() < bound);
                    }
                }
                Some(WarpInstr::Store { lines }) => {
                    prop_assert!(!lines.is_empty());
                    for l in &lines {
                        prop_assert!(l.index() < bound);
                    }
                }
                _ => {}
            }
        }
    }

    /// Scaling preserves validity and shrinks (or keeps) total work.
    #[test]
    fn scaling_is_sound(params in arbitrary_params(), factor in 0.05f64..1.0) {
        let scaled = params.scaled(factor);
        scaled.validate();
        prop_assert!(scaled.approx_total_instructions() <= params.approx_total_instructions().max(
            u64::from(scaled.warps_per_cta) * u64::from(scaled.instrs_per_iter()) * u64::from(scaled.iters)));
        prop_assert!(scaled.ctas >= 1);
        prop_assert!(scaled.iters >= 1);
    }
}
