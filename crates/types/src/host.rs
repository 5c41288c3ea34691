//! Host-side wall-clock access, confined to one auditable site.
//!
//! Simulation results must be a pure function of `(GpuConfig, workload,
//! memory mode)` — the host wall clock may influence *throughput reporting only*
//! (the `SimReport::host` block). To make that auditable, this module is the
//! single place in the workspace allowed to read the clock: `clippy.toml`
//! lists `std::time::Instant` under `disallowed-types`, and the expectation
//! below is the only one that lifts it.

#![expect(
    clippy::disallowed_types,
    reason = "the one sanctioned host-clock site"
)]

use std::time::Instant;

/// A monotonic stopwatch started by [`host_wall_clock`].
///
/// Deliberately opaque: callers can only ask for elapsed seconds, which
/// keeps raw `Instant` values (and the temptation to branch on them) out of
/// simulation code.
#[derive(Debug, Clone, Copy)]
pub struct HostStopwatch {
    start: Instant,
}

impl HostStopwatch {
    /// Seconds elapsed since [`host_wall_clock`] created this stopwatch.
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Starts the workspace's only sanctioned wall-clock read, for host
/// throughput reporting (cycles/sec in `SimReport::host`).
pub fn host_wall_clock() -> HostStopwatch {
    HostStopwatch {
        start: Instant::now(),
    }
}
