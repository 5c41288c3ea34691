//! A workload from either frontend — synthetic generator or decoded
//! trace — behind one constructor for the simulation engines.

use std::sync::Arc;

use gpumem_simt::KernelProgram;
use gpumem_tracefmt::TracedKernel;

use crate::{SyntheticKernel, WorkloadParams};

/// One runnable workload, from either of the two frontends.
///
/// The simulator consumes an `Arc<dyn KernelProgram>`; this enum is the
/// seam where the two ways of producing one meet, so orchestration code
/// (the sweep runner, the CLI) can carry "a workload" without caring
/// which frontend it came from.
///
/// Cloning is cheap for traces (the decoded kernel is shared) and cheap
/// enough for synthetics (parameters only — the kernel is built on
/// [`program`](WorkloadKind::program)).
#[derive(Debug, Clone)]
pub enum WorkloadKind {
    /// A procedurally generated kernel, described by its parameters.
    Synthetic(WorkloadParams),
    /// A kernel decoded from a `gpumem-trace v1` file.
    Traced(Arc<TracedKernel>),
}

impl WorkloadKind {
    /// The workload's kernel name.
    pub fn name(&self) -> &str {
        match self {
            WorkloadKind::Synthetic(p) => &p.name,
            WorkloadKind::Traced(k) => k.as_ref().name(),
        }
    }

    /// Instantiates the kernel the engines will run.
    ///
    /// Both arms produce pure, repeatedly-callable programs, so a traced
    /// workload replays bit-identically across the event and stepped
    /// engines exactly like a synthetic one.
    pub fn program(&self) -> Arc<dyn KernelProgram> {
        match self {
            WorkloadKind::Synthetic(p) => Arc::new(SyntheticKernel::new(p.clone())),
            WorkloadKind::Traced(k) => Arc::clone(k) as Arc<dyn KernelProgram>,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_tracefmt::{encode_program, parse_str};
    use gpumem_types::CtaId;

    #[test]
    fn both_arms_produce_the_same_program() {
        let params = crate::params_of("nw").expect("known benchmark");
        let synth = WorkloadKind::Synthetic(params.clone());
        let text = encode_program(synth.program().as_ref(), 128).expect("encodes");
        let traced = WorkloadKind::Traced(Arc::new(parse_str(&text).expect("decodes")));

        assert_eq!(synth.name(), "nw");
        assert_eq!(traced.name(), "nw");
        let (a, b) = (synth.program(), traced.program());
        assert_eq!(a.grid_ctas(), b.grid_ctas());
        assert_eq!(a.warps_per_cta(), b.warps_per_cta());
        assert_eq!(a.max_ctas_per_core(), b.max_ctas_per_core());
        for cta in 0..a.grid_ctas() {
            for warp in 0..a.warps_per_cta() {
                let id = CtaId::new(cta);
                for pc in 0.. {
                    let instr = a.instr(id, warp, pc);
                    assert_eq!(instr, b.instr(id, warp, pc));
                    if instr.is_none() {
                        break;
                    }
                }
            }
        }
    }
}
