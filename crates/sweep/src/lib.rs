//! Crash-safe design-space sweep orchestrator.
//!
//! The paper's experiments are grids: benchmarks × design points ×
//! (sometimes) memory modes and seeds. Re-running a whole grid because the host
//! died 90% of the way through is wasteful and — worse — invites *partial*
//! reruns whose provenance nobody can reconstruct. This crate makes a sweep
//! a first-class, resumable artifact:
//!
//! * [`SweepSpec`] describes the grid; [`SweepSpec::expand`] turns it into
//!   [`SweepCell`]s, each content-addressed by a [`CellKey`] — a 128-bit
//!   FNV digest of everything the simulated result is a pure function of
//!   (canonical config JSON, workload parameters — or, for `trace:<path>`
//!   workloads, the trace file's byte digest — memory mode, cycle
//!   budget and [`CODE_VERSION_SALT`]).
//! * [`ResultStore`] persists completed cells under `cells/<key>.json`
//!   with a checksum header, committed via write-temp-then-atomic-rename
//!   and recorded in an append-only write-ahead journal (`journal.log`).
//!   Corrupt or truncated entries are detected on read, quarantined, and
//!   recomputed — never served.
//! * [`run_sweep`] executes the missing cells through a bounded worker
//!   pool with per-cell deadlines and a deterministic retry budget
//!   ([`gpumem::RetryPolicy`]); deterministic simulator errors fail fast,
//!   only host-dependent ones retry.
//!
//! Killing the process at *any* point — including mid-write, which the
//! crash-injection hooks in [`SweepOptions`] emulate at adversarially
//! chosen journal offsets — loses at most the cells in flight. Resuming
//! over the same store replays the journal, serves every committed cell as
//! a cache hit, and finishes to bit-identical results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod journal;
mod orchestrator;
mod spec;
mod store;

pub use journal::{DiskStore, JournalEvent, JournalRecord};
pub use orchestrator::{run_sweep, CellOutcome, CellStatus, SweepOptions, SweepSummary};
pub use spec::{parse_design_point, parse_mode, SweepCell, SweepSpec};
pub use store::{CellEnvelope, Lookup, ResultStore};

pub use gpumem_types::{CellKey, SweepError};

/// Salt folded into every [`CellKey`].
///
/// Bump this when a simulator change alters results — or the canonical
/// report JSON `result_digest` hashes — for unchanged
/// configurations: old stores then miss cleanly instead of serving stale
/// numbers (or stale digests) as cache hits. v2: `SimReport` lost its
/// `degraded` key. v3: the key lost its `engine=` field.
pub const CODE_VERSION_SALT: &str = "gpumem-sweep-v3";
