//! Reproduction of *Characterizing Memory Bottlenecks in GPGPU Workloads*
//! (S. Dublish, V. Nagarajan, N. Topham — IISWC 2016) in Rust.
//!
//! The paper characterizes the bandwidth bottlenecks of a Fermi-class GPU's
//! memory hierarchy with three experiments, each reproduced here on the
//! `gpumem-sim` substrate (a from-scratch cycle-level simulator of the
//! GTX480 memory system):
//!
//! 1. **Latency-tolerance profile** (Fig. 1) —
//!    [`experiments::latency_tolerance`]: IPC versus a fixed, synthetic L1
//!    miss latency, normalized to the baseline architecture.
//! 2. **Congestion measurement** (Section III) —
//!    [`experiments::congestion`]: how often the L2 access queues and DRAM
//!    scheduler queues are full during their usage lifetime (the paper
//!    reports 46% and 39% on average).
//! 3. **Design-space exploration** (Table I / Section IV) —
//!    [`experiments::design_space`]: speedups from scaling the L1, L2 and
//!    DRAM bandwidth parameters to ~4×, in isolation and synergistically
//!    (the paper reports +4%, +59%, +11%, and +69%/+76% combined).
//!
//! # Quickstart
//!
//! ```
//! use gpumem::prelude::*;
//!
//! // Run one benchmark on the baseline GTX480 and inspect congestion.
//! let program = gpumem::workloads::by_name("nn").expect("known benchmark");
//! let mut cfg = GpuConfig::gtx480();
//! cfg.num_cores = 2; // shrink for a doc test
//! let report = run_benchmark(&cfg, &program, MemoryMode::Hierarchy).expect("completes");
//! assert!(report.ipc > 0.0);
//! assert!(report.l2_access_queue_full_fraction().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod run;
pub mod text;

pub use run::{run_benchmark, run_pool, RunSpec, DEFAULT_MAX_CYCLES};

/// Re-export of the configuration crate (baseline + Table I design space).
pub use gpumem_config as config;
/// Re-export of the full-system simulator.
pub use gpumem_sim as sim;
/// Re-export of the benchmark suite.
pub use gpumem_workloads as workloads;

/// One-line imports for the common API surface.
pub mod prelude {
    pub use crate::experiments::congestion::CongestionStudy;
    pub use crate::experiments::design_space::DseStudy;
    pub use crate::experiments::latency_tolerance::{LatencyProfile, FIG1_LATENCIES};
    pub use crate::run::run_benchmark;
    pub use gpumem_config::{DesignPoint, GpuConfig};
    pub use gpumem_sim::{GpuSimulator, MemoryMode, SimReport};
    pub use gpumem_workloads::{benchmarks, by_name, BENCHMARK_NAMES};
}
