//! The kernel-program abstraction executed by SIMT cores.

use gpumem_types::{CtaId, LineAddr};

/// One warp-level instruction.
///
/// Workload models emit these procedurally; they are the only interface
/// between a benchmark model and the timing simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarpInstr {
    /// An arithmetic instruction. The issuing warp becomes ready again
    /// after `latency` cycles (the in-order dependent-chain approximation);
    /// other warps hide the latency.
    Alu {
        /// Issue-to-ready latency in cycles (≥ 1).
        latency: u32,
    },
    /// A shared-memory (scratchpad) instruction; like `Alu` but accounted
    /// separately. `latency` should include any bank-conflict
    /// serialization the workload wants to model.
    Shared {
        /// Issue-to-ready latency in cycles (≥ 1).
        latency: u32,
    },
    /// A global-memory load touching `lines` distinct cache lines after
    /// coalescing (1 = fully coalesced, up to 32 = fully divergent).
    ///
    /// The loaded value is consumed by the instruction `consume_after`
    /// slots later in the warp's stream (≥ 1); until all of the load's
    /// accesses return, the warp stalls upon reaching that instruction.
    Load {
        /// Distinct cache lines touched (the coalescer's output).
        lines: Vec<LineAddr>,
        /// Distance in instructions from this load to its first use.
        consume_after: u32,
    },
    /// A global-memory store touching `lines` distinct cache lines.
    /// Fire-and-forget for the warp, but consumes LSU, L1 miss-queue,
    /// interconnect, L2 and DRAM bandwidth (write-through L1).
    Store {
        /// Distinct cache lines touched.
        lines: Vec<LineAddr>,
    },
    /// CTA-wide barrier (`__syncthreads()`): the warp waits until every
    /// live warp of its CTA arrives.
    Barrier,
}

impl WarpInstr {
    /// Convenience constructor for a fully-coalesced single-line load.
    pub fn load_line(line: LineAddr, consume_after: u32) -> Self {
        WarpInstr::Load {
            lines: vec![line],
            consume_after,
        }
    }

    /// True for loads and stores.
    pub fn is_memory(&self) -> bool {
        matches!(self, WarpInstr::Load { .. } | WarpInstr::Store { .. })
    }
}

/// A GPU kernel as a pure, procedurally-generated instruction stream.
///
/// `instr(cta, warp, pc)` must be deterministic — the simulator may call it
/// any number of times — and return `None` when warp `warp` of CTA `cta`
/// has retired its last instruction.
///
/// # Example
///
/// ```
/// use gpumem_simt::{KernelProgram, WarpInstr};
/// use gpumem_types::{CtaId, LineAddr};
///
/// /// Every warp: one load, one dependent ALU op, done.
/// struct TinyKernel;
///
/// impl KernelProgram for TinyKernel {
///     fn name(&self) -> &str { "tiny" }
///     fn grid_ctas(&self) -> u32 { 4 }
///     fn warps_per_cta(&self) -> u32 { 2 }
///     fn instr(&self, cta: CtaId, warp: u32, pc: u32) -> Option<WarpInstr> {
///         match pc {
///             0 => Some(WarpInstr::load_line(
///                 LineAddr::new(u64::from(cta.index() as u32 * 2 + warp)), 1)),
///             1 => Some(WarpInstr::Alu { latency: 4 }),
///             _ => None,
///         }
///     }
/// }
///
/// let k = TinyKernel;
/// assert!(k.instr(CtaId::new(0), 0, 0).unwrap().is_memory());
/// assert_eq!(k.instr(CtaId::new(0), 0, 2), None);
/// ```
pub trait KernelProgram: Send + Sync {
    /// Human-readable kernel name (benchmark name in reports).
    fn name(&self) -> &str;

    /// Number of CTAs in the launch grid.
    fn grid_ctas(&self) -> u32;

    /// Warps per CTA.
    fn warps_per_cta(&self) -> u32;

    /// Occupancy limit: maximum CTAs concurrently resident on one core
    /// (models shared-memory/register pressure). Defaults to unlimited —
    /// the hardware limit in [`gpumem_config::CoreConfig::max_ctas`] still
    /// applies.
    fn max_ctas_per_core(&self) -> usize {
        usize::MAX
    }

    /// The instruction at `pc` for warp `warp` of CTA `cta`, or `None` once
    /// the warp has retired.
    fn instr(&self, cta: CtaId, warp: u32, pc: u32) -> Option<WarpInstr>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(WarpInstr::load_line(LineAddr::new(0), 1).is_memory());
        assert!(WarpInstr::Store { lines: vec![] }.is_memory());
        assert!(!WarpInstr::Alu { latency: 1 }.is_memory());
        assert!(!WarpInstr::Barrier.is_memory());
        assert!(!WarpInstr::Shared { latency: 8 }.is_memory());
    }

    #[test]
    fn load_line_builds_single_access() {
        match WarpInstr::load_line(LineAddr::new(9), 3) {
            WarpInstr::Load {
                lines,
                consume_after,
            } => {
                assert_eq!(lines, vec![LineAddr::new(9)]);
                assert_eq!(consume_after, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
