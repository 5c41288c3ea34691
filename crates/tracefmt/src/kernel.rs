//! The decoded trace as a [`KernelProgram`]: compact storage, random
//! access, exact instruction counts.

use gpumem_simt::{KernelProgram, WarpInstr};
use gpumem_types::{CellKey, CtaId, LineAddr};

/// One decoded instruction record, with load/store addresses stored as a
/// `(start, len)` window into the kernel's shared line pool — the decoded
/// form costs a few words per instruction regardless of how verbose the
/// text was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// `ALU lat=<n>`.
    Alu {
        /// Issue-to-ready latency (≥ 1).
        latency: u32,
    },
    /// `SHMEM lat=<n>`.
    Shared {
        /// Issue-to-ready latency (≥ 1).
        latency: u32,
    },
    /// `LD consume=<n> mask=<m> <addr>…`, coalesced.
    Load {
        /// Offset of the first line in the pool.
        start: u32,
        /// Distinct coalesced lines (1–32).
        len: u8,
        /// Load-to-use distance (≥ 1).
        consume_after: u32,
    },
    /// `ST mask=<m> <addr>…`, coalesced.
    Store {
        /// Offset of the first line in the pool.
        start: u32,
        /// Distinct coalesced lines (1–32).
        len: u8,
    },
    /// `BAR`.
    Barrier,
}

/// A fully-decoded kernel trace, replayable through the simulator as a
/// [`KernelProgram`].
///
/// Replay is deterministic by construction: the instruction stream is a
/// table lookup, so `instr(cta, warp, pc)` is pure and the traced run is
/// bit-identical across the event and stepped engines — exactly the
/// property the synthetic generators already have.
#[derive(Debug, Clone)]
pub struct TracedKernel {
    pub(crate) name: String,
    pub(crate) grid_ctas: u32,
    pub(crate) warps_per_cta: u32,
    pub(crate) max_ctas_per_core: usize,
    pub(crate) shmem_bytes: u64,
    pub(crate) line_bytes: u64,
    /// Per-warp windows into `ops`: warp `w`'s instructions are
    /// `ops[starts[w] .. starts[w + 1]]`. Length `total_warps + 1`.
    pub(crate) starts: Vec<u32>,
    pub(crate) ops: Vec<Op>,
    /// Shared coalesced-address pool referenced by load/store ops.
    pub(crate) pool: Vec<LineAddr>,
    /// FNV-128 digest of the exact trace bytes (the content address used
    /// by sweep cells).
    pub(crate) digest: CellKey,
}

impl TracedKernel {
    /// FNV-128 digest of the exact trace bytes this kernel was decoded
    /// from. Two traces with the same digest replay identically, so sweep
    /// cells are keyed by it.
    pub fn digest(&self) -> CellKey {
        self.digest
    }

    /// Cache-line size the trace's addresses were coalesced at.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Declared shared-memory footprint per CTA (header metadata; the
    /// occupancy effect is carried by `max_ctas_per_core`).
    pub fn shmem_bytes(&self) -> u64 {
        self.shmem_bytes
    }

    /// Total decoded instructions across every warp.
    pub fn total_instructions(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Flat warp index, or `None` when `(cta, warp)` is outside the grid.
    fn warp_slot(&self, cta: CtaId, warp: u32) -> Option<usize> {
        if warp >= self.warps_per_cta {
            return None;
        }
        let cta = u64::try_from(cta.index()).ok()?;
        if cta >= u64::from(self.grid_ctas) {
            return None;
        }
        usize::try_from(cta * u64::from(self.warps_per_cta) + u64::from(warp)).ok()
    }

    /// The pool window of a load/store op, or `None` if the indices are
    /// inconsistent (unreachable for parser-built kernels; kept total so
    /// the decode path stays panic-free).
    fn window(&self, start: u32, len: u8) -> Option<Vec<LineAddr>> {
        let s = start as usize;
        let e = s.checked_add(len as usize)?;
        self.pool.get(s..e).map(<[LineAddr]>::to_vec)
    }
}

impl KernelProgram for TracedKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn grid_ctas(&self) -> u32 {
        self.grid_ctas
    }

    fn warps_per_cta(&self) -> u32 {
        self.warps_per_cta
    }

    fn max_ctas_per_core(&self) -> usize {
        self.max_ctas_per_core
    }

    fn instr(&self, cta: CtaId, warp: u32, pc: u32) -> Option<WarpInstr> {
        let w = self.warp_slot(cta, warp)?;
        let (s, e) = (*self.starts.get(w)?, *self.starts.get(w + 1)?);
        let idx = s.checked_add(pc)?;
        if idx >= e {
            return None;
        }
        match *self.ops.get(idx as usize)? {
            Op::Alu { latency } => Some(WarpInstr::Alu { latency }),
            Op::Shared { latency } => Some(WarpInstr::Shared { latency }),
            Op::Load {
                start,
                len,
                consume_after,
            } => Some(WarpInstr::Load {
                lines: self.window(start, len)?,
                consume_after,
            }),
            Op::Store { start, len } => Some(WarpInstr::Store {
                lines: self.window(start, len)?,
            }),
            Op::Barrier => Some(WarpInstr::Barrier),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TracedKernel {
        TracedKernel {
            name: "tiny".into(),
            grid_ctas: 2,
            warps_per_cta: 1,
            max_ctas_per_core: usize::MAX,
            shmem_bytes: 0,
            line_bytes: 128,
            starts: vec![0, 2, 3],
            ops: vec![
                Op::Load {
                    start: 0,
                    len: 2,
                    consume_after: 1,
                },
                Op::Alu { latency: 4 },
                Op::Barrier,
            ],
            pool: vec![LineAddr::new(7), LineAddr::new(9)],
            digest: CellKey::from_canonical("tiny"),
        }
    }

    #[test]
    fn decode_matches_storage() {
        let k = tiny();
        assert_eq!(
            k.instr(CtaId::new(0), 0, 0),
            Some(WarpInstr::Load {
                lines: vec![LineAddr::new(7), LineAddr::new(9)],
                consume_after: 1,
            })
        );
        assert_eq!(
            k.instr(CtaId::new(0), 0, 1),
            Some(WarpInstr::Alu { latency: 4 })
        );
        assert_eq!(k.instr(CtaId::new(0), 0, 2), None);
        assert_eq!(k.instr(CtaId::new(1), 0, 0), Some(WarpInstr::Barrier));
        assert_eq!(k.instr(CtaId::new(1), 0, 1), None);
    }

    #[test]
    fn out_of_grid_is_none() {
        let k = tiny();
        assert_eq!(k.instr(CtaId::new(2), 0, 0), None);
        assert_eq!(k.instr(CtaId::new(0), 1, 0), None);
        assert_eq!(k.instr(CtaId::new(0), 0, u32::MAX), None);
    }

    #[test]
    fn total_instructions_counts_ops() {
        assert_eq!(tiny().total_instructions(), 3);
    }
}
