//! Trace-driven workload frontend for the `gpumem` simulator.
//!
//! The `gpumem` workspace reproduces the IISWC 2016 paper *Characterizing
//! Memory Bottlenecks in GPGPU Workloads* with synthetic workload
//! generators. This crate adds the other half of a characterization
//! pipeline: an Accel-Sim-style **kernel-trace text format**, so recorded
//! (or exported) instruction streams replay through the same
//! warp/coalescer interface as the generators.
//!
//! * [`parse_reader`] / [`parse_str`] — streaming, bounded-memory decode
//!   into a [`TracedKernel`], with typed line/column
//!   [`TraceError`] diagnostics. The decoder never panics on any input.
//! * [`TracedKernel`] — the decoded trace as a
//!   [`KernelProgram`](gpumem_simt::KernelProgram): pure random-access
//!   instruction lookup, exact per-warp counts, and a content-address
//!   digest of the trace bytes.
//! * [`encode_program`] — renders any `KernelProgram` back to trace text,
//!   making the synthetic suite a self-hosted round-trip corpus.
//!
//! # Example
//!
//! ```
//! use gpumem_simt::KernelProgram;
//!
//! let text = "\
//! gpumem-trace v1
//! kernel name=axpy grid=1 warps_per_cta=1 max_ctas_per_core=0 shmem_bytes=0 line_bytes=128
//! warp cta=0 warp=0
//! LD consume=1 mask=00000001 0x1000
//! ALU lat=4
//! end
//! ";
//! let kernel = gpumem_tracefmt::parse_str(text).unwrap();
//! assert_eq!(kernel.name(), "axpy");
//! assert!(kernel.instr(gpumem_types::CtaId::new(0), 0, 1).is_some());
//! assert!(kernel.instr(gpumem_types::CtaId::new(0), 0, 2).is_none());
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use
)]
#![warn(missing_docs)]

mod encode;
mod error;
mod kernel;
mod parse;

pub use encode::encode_program;
pub use error::TraceError;
pub use kernel::TracedKernel;
pub use parse::{
    parse_reader, parse_str, MAGIC, MAX_LINE_BYTES, MAX_TOTAL_INSTRS, MAX_TOTAL_WARPS,
    MAX_WARP_INSTRS,
};
