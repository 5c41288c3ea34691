//! Full-system GPU simulator for the `gpumem` workspace.
//!
//! [`GpuSimulator`] assembles the substrate crates into the paper's
//! platform: N SIMT cores (`gpumem-simt`) talk through two flit-serialized
//! crossbars (`gpumem-noc`) to M memory partitions, each a banked slice of
//! the shared L2 ([`MemoryPartition`]) backed by a GDDR5-like channel
//! (`gpumem-dram`).
//!
//! Two memory backends are selectable via [`MemoryMode`]:
//!
//! * [`MemoryMode::Hierarchy`] — the full timing model (the baseline and
//!   every Table I design point).
//! * [`MemoryMode::FixedLatency`] — the Section II instrument: every L1
//!   miss response returns after exactly N cycles with unlimited
//!   bandwidth, which is how the paper draws Fig. 1.
//!
//! A finished run yields a [`SimReport`] carrying IPC, per-level queue
//! occupancy statistics (the Section III congestion metrics), latency
//! distributions and per-component counters.
//!
//! There is one run loop. [`GpuSimulator::step`] advances the whole
//! machine one cycle; [`GpuSimulator::run`] steps, and whenever
//! [`GpuSimulator::next_event`] lies in the future it jumps the whole
//! machine there with [`GpuSimulator::fast_forward_to`].
//! [`GpuSimulator::run_stepped`] is the same loop with the jump off: the
//! per-cycle reference the differential tests compare against.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use gpumem_config::GpuConfig;
//! use gpumem_sim::{GpuSimulator, MemoryMode};
//! use gpumem_simt::{KernelProgram, WarpInstr};
//! use gpumem_types::{CtaId, LineAddr};
//!
//! struct Stream;
//! impl KernelProgram for Stream {
//!     fn name(&self) -> &str { "stream" }
//!     fn grid_ctas(&self) -> u32 { 8 }
//!     fn warps_per_cta(&self) -> u32 { 2 }
//!     fn instr(&self, cta: CtaId, warp: u32, pc: u32) -> Option<WarpInstr> {
//!         match pc {
//!             0 => Some(WarpInstr::load_line(
//!                 LineAddr::new(u64::from(cta.index() as u32 * 2 + warp)), 1)),
//!             1 => Some(WarpInstr::Alu { latency: 4 }),
//!             _ => None,
//!         }
//!     }
//! }
//!
//! let mut cfg = GpuConfig::tiny();
//! cfg.num_cores = 2;
//! let mut sim = GpuSimulator::new(cfg, Arc::new(Stream), MemoryMode::Hierarchy);
//! let report = sim.run(100_000).expect("completes");
//! assert!(report.ipc > 0.0);
//! assert_eq!(report.instructions, 8 * 2 * 2);
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use
)]
#![warn(missing_docs)]

mod fixed;
mod gpu;
mod partition;
mod report;
mod watchdog;

pub use fixed::FixedLatencyMemory;
pub use gpu::{GpuSimulator, MemoryMode};
pub use partition::{L2Stats, MemoryPartition, PartitionTrace};
pub use report::{DramReport, EngineProfile, HostPerf, L1Report, L2Report, NocReport, SimReport};
pub use watchdog::{ProgressFingerprint, Watchdog};

// The observability layer's public surface, re-exported so downstream code
// (the repro harness, the golden-trace tests) needs no direct dependency
// on `gpumem-trace`.
pub use gpumem_trace::{
    chrome_trace_events, stage_spans, ChromeEvent, LatencyBreakdown, OccupancyPoint,
    OccupancySeries, SlowFetch, Stage, StageClass, StageSpan, StageStat, TraceConfig,
};

// The error taxonomy lives in `gpumem-types` (model crates construct the
// variants directly); re-exported here so `gpumem_sim::SimError` keeps
// working for downstream code that only sees run results.
pub use gpumem_types::{ComponentOccupancy, OldestFetch, SimError, WedgeDiagnosis};

// The kernel abstraction is part of this crate's public API (every
// constructor takes one), so re-export it for downstream convenience.
pub use gpumem_simt::{KernelProgram, WarpInstr};
