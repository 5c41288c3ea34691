//! SIMT-core substrate for the `gpumem` simulator.
//!
//! A [`SimtCore`] models one Fermi streaming multiprocessor at the level
//! the paper's experiments need: enough warp-level parallelism mechanics to
//! measure how well memory latency is *hidden*, and a faithful memory
//! front end (coalesced accesses, an LSU pipeline of Table I's "memory
//! pipeline width", and the non-blocking L1D from `gpumem-cache`).
//!
//! Workloads implement [`KernelProgram`]: a pure function from
//! `(cta, warp, pc)` to the next [`WarpInstr`]. Warps execute their streams
//! in order; loads post entries on a per-warp scoreboard and the warp
//! blocks only when reaching the instruction that *consumes* a pending
//! value — so the distance between a load and its use (chosen by the
//! workload model) sets each benchmark's intrinsic latency tolerance,
//! exactly the property Fig. 1 of the paper sweeps.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use
)]
#![warn(missing_docs)]

mod core_model;
mod program;
mod warp;

pub use core_model::{CoreStats, SimtCore, StallKind};
pub use program::{KernelProgram, WarpInstr};
pub use warp::{WarpSlot, WarpState};
