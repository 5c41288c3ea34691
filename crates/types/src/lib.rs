//! Foundational types shared by every crate in the `gpumem` workspace.
//!
//! The `gpumem` workspace reproduces the IISWC 2016 paper *Characterizing
//! Memory Bottlenecks in GPGPU Workloads* (Dublish, Nagarajan, Topham) on top
//! of a from-scratch cycle-level GPU memory-hierarchy simulator. This crate
//! holds the vocabulary types that the substrate crates (`gpumem-cache`,
//! `gpumem-noc`, `gpumem-dram`, `gpumem-simt`, `gpumem-sim`) communicate
//! with:
//!
//! * [`Cycle`] — simulation time.
//! * [`Addr`] / [`LineAddr`] — byte and cache-line addresses.
//! * [`MemFetch`] — the memory-request descriptor that flows from a core's
//!   load/store unit down through L1, the interconnect, L2 and DRAM, and
//!   back up as a response.
//! * [`SimQueue`] — a bounded FIFO instrumented with the occupancy
//!   statistics the paper's Section III is built on (how often is a queue
//!   *full* during its *usage lifetime*).
//! * [`LatencyStats`] / [`Log2Histogram`] — latency accounting for the paper's
//!   Section II latency-tolerance analysis.
//! * [`SimRng`] — a small deterministic PRNG so that every simulation is
//!   exactly reproducible from a seed.
//!
//! # Example
//!
//! ```
//! use gpumem_types::{Cycle, SimQueue};
//!
//! let mut q: SimQueue<u32> = SimQueue::new("l2_access", 8);
//! q.push(41).unwrap();
//! q.observe(); // called once per simulated cycle by the owning component
//! assert_eq!(q.pop(), Some(41));
//! assert_eq!(q.stats().ticks_nonempty, 1);
//!
//! assert_eq!(Cycle::ZERO + 5, Cycle::new(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod cycle;
mod due;
mod error;
mod fetch;
mod histogram;
mod host;
mod ids;
mod latency;
mod queue;
mod rng;
mod slab;
mod sweep;

pub use addr::{Addr, LineAddr};
pub use cycle::Cycle;
pub use due::DueHeap;
pub use error::{ComponentOccupancy, OldestFetch, SimError, WedgeDiagnosis};
pub use fetch::{AccessKind, CycleStamp, FetchId, FetchTimeline, MemFetch};
pub use histogram::Log2Histogram;
pub use host::{host_wall_clock, HostStopwatch};
pub use ids::{CoreId, CtaId, PartitionId, WarpId};
pub use latency::LatencyStats;
pub use queue::{BoundedQueue, PushError, QueueStats, SimQueue};
pub use rng::SimRng;
pub use slab::{FetchArena, Slab, SlotId};
pub use sweep::{fnv1a64, CellKey, Fnv128, SweepError};
