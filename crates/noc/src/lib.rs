//! Interconnect substrate for the `gpumem` simulator.
//!
//! The GTX480's cores and memory partitions communicate over two crossbars
//! (one per direction). Packets are segmented into *flits* of
//! `noc.flit_bytes` (Table I baseline: **4 bytes**), and each crossbar
//! output moves one flit per cycle — so a 136-byte read-response packet
//! occupies a core's ejection port for **34 cycles** at the baseline. This
//! serialization is one of the principal cache-hierarchy bandwidth limits
//! the paper identifies; the Table I "Flit size (crossbar)" scaling (4 B →
//! 16 B) quarters it.
//!
//! The model is a wormhole crossbar: an output claims an input's head
//! packet through round-robin arbitration, streams its flits back to back,
//! and only then arbitrates again. Delivery into the bounded ejection
//! queues is credit-controlled, so a stalled receiver (e.g. a full L2
//! access queue) back-pressures the crossbar and, transitively, every
//! miss queue feeding it — the paper's congestion-propagation effect ③.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use
)]
#![warn(missing_docs)]

mod crossbar;
mod packet;

pub use crossbar::{Crossbar, CrossbarStats, EgressPort, IngressPort};
pub use packet::Packet;
