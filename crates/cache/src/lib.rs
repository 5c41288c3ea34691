//! Cache substrate for the `gpumem` simulator.
//!
//! Three building blocks, each reused across the hierarchy:
//!
//! * [`TagArray`] — a set-associative tag store with true-LRU replacement,
//!   used by both the per-core L1D and the per-partition L2 banks.
//! * [`MshrTable`] — Miss Status Holding Registers with request merging.
//!   MSHR capacity is a first-order bandwidth parameter in the paper
//!   (Table I scales both L1 and L2 MSHRs 32 → 128), because exhausted
//!   MSHRs serialize subsequent misses (the paper's effect ②).
//! * [`L1Dcache`] — the per-core L1 data cache controller: non-blocking,
//!   write-through / write-no-allocate, with a bounded miss queue feeding
//!   the interconnect.
//!
//! The L2 controller lives in `gpumem-sim`'s memory-partition model because
//! it is interleaved with the partition's queues, DRAM interface and data
//! port; it is built from the same [`TagArray`] and [`MshrTable`].
//!
//! # Example
//!
//! ```
//! use gpumem_cache::{ReplacementOutcome, TagArray};
//! use gpumem_types::{Cycle, LineAddr};
//!
//! let mut tags = TagArray::new(4, 2); // 4 sets, 2-way
//! let set = 0;
//! assert!(tags.probe(set, LineAddr::new(0)).is_none());
//! let outcome = tags.fill(set, LineAddr::new(0), Cycle::new(1));
//! assert_eq!(outcome, ReplacementOutcome::FilledFree);
//! assert!(tags.probe(set, LineAddr::new(0)).is_some());
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use
)]
#![warn(missing_docs)]

mod l1;
mod mshr;
mod tag_array;

pub use l1::{L1AccessOutcome, L1BlockReason, L1Dcache, L1Stats};
pub use mshr::{MshrAllocation, MshrError, MshrTable};
pub use tag_array::{EvictedLine, ReplacementOutcome, TagArray};
