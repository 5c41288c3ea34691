//! The procedural kernel generator.

use gpumem_simt::{KernelProgram, WarpInstr};
use gpumem_types::{CtaId, LineAddr, SimRng};

use crate::{AccessPattern, WorkloadParams};

/// A kernel whose instruction stream is generated procedurally from
/// [`WorkloadParams`].
///
/// The stream is a pure function of `(cta, warp, pc)` — the simulator may
/// decode any instruction any number of times and always sees the same
/// result, which also makes every run exactly reproducible from the
/// parameter seed.
///
/// Iteration body layout (positions within one iteration):
///
/// ```text
/// [loads][ALU ops][shared ops][stores][barrier?]
/// ```
///
/// Loads consume `consume_distance` instructions later, so a larger
/// distance gives the warp more independent work to overlap with the miss —
/// the per-benchmark latency-tolerance knob behind the paper's Fig. 1
/// spread.
#[derive(Debug, Clone)]
pub struct SyntheticKernel {
    params: WorkloadParams,
}

impl SyntheticKernel {
    /// Builds a kernel from validated parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`WorkloadParams::validate`].
    pub fn new(params: WorkloadParams) -> Self {
        params.validate();
        SyntheticKernel { params }
    }

    /// The parameters in use.
    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }

    fn global_warp(&self, cta: CtaId, warp: u32) -> u64 {
        cta.index() as u64 * u64::from(self.params.warps_per_cta) + u64::from(warp)
    }

    /// Deterministic per-(warp, iteration, slot) RNG stream.
    fn rng_for(&self, g: u64, iter: u32, slot: u32, salt: u64) -> SimRng {
        let stream = g
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(iter) << 20)
            .wrapping_add(u64::from(slot) << 4)
            .wrapping_add(salt);
        SimRng::new(self.params.seed).fork(stream)
    }

    /// The coalesced line addresses of load `slot` in iteration `iter`.
    fn load_lines(&self, g: u64, iter: u32, slot: u32) -> Vec<LineAddr> {
        // Intra-warp temporal locality: re-read last iteration's lines
        // (usually still resident in the L1).
        let p = &self.params;
        let mut reuse_rng = self.rng_for(g, iter, slot, 2);
        if iter > 0 && reuse_rng.gen_bool(p.l1_reuse_fraction) {
            return self.pattern_lines(g, iter - 1, slot);
        }
        self.pattern_lines(g, iter, slot)
    }

    /// Pattern-generated lines (no intra-warp reuse applied).
    fn pattern_lines(&self, g: u64, iter: u32, slot: u32) -> Vec<LineAddr> {
        let p = &self.params;
        let mut rng = self.rng_for(g, iter, slot, 1);
        let span = u64::from(p.lines_per_load_max - p.lines_per_load_min + 1);
        let k = u64::from(p.lines_per_load_min) + rng.gen_range(span);

        let mut lines = Vec::with_capacity(k as usize);
        for j in 0..k {
            let line = if rng.gen_bool(p.reuse_fraction) {
                // Hot-region reuse (caught by the L2 across warps).
                rng.gen_range(p.hot_lines)
            } else {
                match p.pattern {
                    AccessPattern::Streaming => {
                        let base = (g * u64::from(p.iters) + u64::from(iter))
                            * u64::from(p.loads_per_iter)
                            + u64::from(slot);
                        (base * k + j) % p.working_set_lines
                    }
                    AccessPattern::Strided { stride } => {
                        let base = (g + u64::from(iter) * 131) * stride + u64::from(slot) * 17;
                        (base + j * stride) % p.working_set_lines
                    }
                    AccessPattern::Gather => rng.gen_range(p.working_set_lines),
                    AccessPattern::Stencil { plane } => {
                        let base = g * u64::from(p.iters) + u64::from(iter);
                        (base + u64::from(slot) * plane + j) % p.working_set_lines
                    }
                }
            };
            if !lines.contains(&LineAddr::new(line)) {
                lines.push(LineAddr::new(line));
            }
        }
        if lines.is_empty() {
            lines.push(LineAddr::new(0));
        }
        lines
    }

    /// The line addresses of store `slot` in iteration `iter` (stores
    /// write a disjoint result region in the upper half of the address
    /// space).
    fn store_lines(&self, g: u64, iter: u32, slot: u32) -> Vec<LineAddr> {
        let p = &self.params;
        let base = (g * u64::from(p.iters) + u64::from(iter)) * u64::from(p.stores_per_iter.max(1))
            + u64::from(slot);
        vec![LineAddr::new(
            p.working_set_lines + base % p.working_set_lines,
        )]
    }
}

impl KernelProgram for SyntheticKernel {
    fn name(&self) -> &str {
        &self.params.name
    }

    fn grid_ctas(&self) -> u32 {
        self.params.ctas
    }

    fn warps_per_cta(&self) -> u32 {
        self.params.warps_per_cta
    }

    fn max_ctas_per_core(&self) -> usize {
        self.params.max_ctas_per_core
    }

    fn instr(&self, cta: CtaId, warp: u32, pc: u32) -> Option<WarpInstr> {
        let p = &self.params;
        let body = p.instrs_per_iter();
        let iter = pc / body;
        if iter >= p.iters {
            return None;
        }
        let pos = pc % body;
        let g = self.global_warp(cta, warp);

        let loads_end = p.loads_per_iter;
        let alu_end = loads_end + p.alu_per_iter;
        let shared_end = alu_end + p.shared_per_iter;
        let stores_end = shared_end + p.stores_per_iter;

        if pos < loads_end {
            Some(WarpInstr::Load {
                lines: self.load_lines(g, iter, pos),
                consume_after: p.consume_distance.max(1),
            })
        } else if pos < alu_end {
            Some(WarpInstr::Alu {
                latency: p.alu_latency.max(1),
            })
        } else if pos < shared_end {
            Some(WarpInstr::Shared {
                latency: p.shared_latency.max(1),
            })
        } else if pos < stores_end {
            Some(WarpInstr::Store {
                lines: self.store_lines(g, iter, pos - shared_end),
            })
        } else {
            // Barrier slot: present when barrier_every == Some(1); for
            // larger periods the barrier replaces the slot only on matching
            // iterations and is otherwise a filler ALU op.
            match p.barrier_every {
                Some(n) if (iter + 1).is_multiple_of(n) => Some(WarpInstr::Barrier),
                Some(_) => Some(WarpInstr::Alu { latency: 1 }),
                None => unreachable!("body length excludes barrier slot"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> SyntheticKernel {
        let mut p = WorkloadParams::template("t");
        p.loads_per_iter = 2;
        p.stores_per_iter = 1;
        p.lines_per_load_min = 2;
        p.lines_per_load_max = 4;
        p.pattern = AccessPattern::Gather;
        p.reuse_fraction = 0.3;
        SyntheticKernel::new(p)
    }

    #[test]
    fn stream_is_deterministic() {
        let k = kernel();
        for pc in 0..40 {
            let a = k.instr(CtaId::new(3), 1, pc);
            let b = k.instr(CtaId::new(3), 1, pc);
            assert_eq!(a, b, "pc {pc}");
        }
    }

    #[test]
    fn stream_terminates_exactly_after_iters() {
        let k = kernel();
        let total = k.params().iters * k.params().instrs_per_iter();
        assert!(k.instr(CtaId::new(0), 0, total - 1).is_some());
        assert!(k.instr(CtaId::new(0), 0, total).is_none());
        assert!(k.instr(CtaId::new(0), 0, total + 100).is_none());
    }

    #[test]
    fn layout_matches_parameters() {
        let k = kernel();
        let p = k.params();
        // First loads, then ALU, then stores (no shared configured).
        for pc in 0..p.loads_per_iter {
            assert!(matches!(
                k.instr(CtaId::new(0), 0, pc),
                Some(WarpInstr::Load { .. })
            ));
        }
        for pc in p.loads_per_iter..p.loads_per_iter + p.alu_per_iter {
            assert!(matches!(
                k.instr(CtaId::new(0), 0, pc),
                Some(WarpInstr::Alu { .. })
            ));
        }
        let store_pc = p.loads_per_iter + p.alu_per_iter;
        assert!(matches!(
            k.instr(CtaId::new(0), 0, store_pc),
            Some(WarpInstr::Store { .. })
        ));
    }

    #[test]
    fn addresses_stay_in_bounds() {
        let k = kernel();
        let p = k.params();
        let bound = p.working_set_lines * 2; // loads + disjoint store region
        for cta in 0..4 {
            for warp in 0..2 {
                let mut pc = 0;
                while let Some(instr) = k.instr(CtaId::new(cta), warp, pc) {
                    match instr {
                        WarpInstr::Load { lines, .. } | WarpInstr::Store { lines } => {
                            for l in lines {
                                assert!(l.index() < bound, "line {l} out of bounds");
                            }
                        }
                        _ => {}
                    }
                    pc += 1;
                }
            }
        }
    }

    #[test]
    fn coalescing_bounds_respected_and_lines_distinct() {
        let k = kernel();
        let p = k.params();
        for iter in 0..p.iters {
            for slot in 0..p.loads_per_iter {
                if let Some(WarpInstr::Load { lines, .. }) =
                    k.instr(CtaId::new(1), 0, iter * p.instrs_per_iter() + slot)
                {
                    assert!(!lines.is_empty());
                    assert!(lines.len() <= p.lines_per_load_max as usize);
                    let mut sorted = lines.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    assert_eq!(
                        sorted.len(),
                        lines.len(),
                        "duplicate lines in coalesced load"
                    );
                }
            }
        }
    }

    #[test]
    fn different_warps_differ() {
        let k = kernel();
        let a = k.instr(CtaId::new(0), 0, 0);
        let b = k.instr(CtaId::new(5), 3, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn barrier_appears_on_schedule() {
        let mut p = WorkloadParams::template("b");
        p.barrier_every = Some(1);
        p.loads_per_iter = 1;
        p.alu_per_iter = 1;
        let k = SyntheticKernel::new(p);
        let body = k.params().instrs_per_iter();
        assert_eq!(body, 3);
        assert!(matches!(
            k.instr(CtaId::new(0), 0, 2),
            Some(WarpInstr::Barrier)
        ));
        assert!(matches!(
            k.instr(CtaId::new(0), 0, 5),
            Some(WarpInstr::Barrier)
        ));
    }

    #[test]
    fn periodic_barrier_fills_with_alu() {
        let mut p = WorkloadParams::template("b2");
        p.barrier_every = Some(2);
        p.loads_per_iter = 1;
        p.alu_per_iter = 1;
        p.iters = 4;
        let k = SyntheticKernel::new(p);
        assert_eq!(k.params().instrs_per_iter(), 3);
        // Iterations 0, 2 (1-indexed: 1, 3) carry the filler; 1, 3 carry
        // the barrier.
        assert!(matches!(
            k.instr(CtaId::new(0), 0, 2),
            Some(WarpInstr::Alu { .. })
        ));
        assert!(matches!(
            k.instr(CtaId::new(0), 0, 5),
            Some(WarpInstr::Barrier)
        ));
        assert!(matches!(
            k.instr(CtaId::new(0), 0, 8),
            Some(WarpInstr::Alu { .. })
        ));
        assert!(matches!(
            k.instr(CtaId::new(0), 0, 11),
            Some(WarpInstr::Barrier)
        ));
    }
}
