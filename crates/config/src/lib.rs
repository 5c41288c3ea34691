//! Configuration for the `gpumem` GPU memory-hierarchy simulator.
//!
//! The baseline models an NVIDIA GTX480 (Fermi) as configured in GPGPU-Sim,
//! the platform used by *Characterizing Memory Bottlenecks in GPGPU
//! Workloads* (IISWC 2016). Every parameter of the paper's Table I is a
//! field of [`GpuConfig`], and the design-space exploration of Section IV is
//! expressed through [`DesignPoint`].
//!
//! # Example
//!
//! ```
//! use gpumem_config::{DesignPoint, GpuConfig};
//!
//! let baseline = GpuConfig::gtx480();
//! baseline.validate().unwrap();
//! assert_eq!(baseline.l2.access_queue, 8);
//!
//! let scaled = DesignPoint::L2_ONLY.apply(&baseline);
//! assert_eq!(scaled.l2.access_queue, 32);
//! assert_eq!(scaled.noc.flit_bytes, 16); // crossbar flit scales with L2
//! assert_eq!(scaled.dram.scheduler_queue, baseline.dram.scheduler_queue);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod design;
mod error;
mod gpu;

pub use design::{single_parameter_ablations, Ablation, DesignPoint, ParamType, TableRow, TABLE_I};
pub use error::ConfigError;
pub use gpu::{CoreConfig, DramConfig, GpuConfig, L1Config, L2Config, NocConfig, MAX_MASK_WIDTH};
