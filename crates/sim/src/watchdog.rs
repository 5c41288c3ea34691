//! Global-progress watchdog for the simulation loop.
//!
//! The budget check in [`GpuSimulator::run`](crate::GpuSimulator::run)
//! bounds *total* cycles, but a wedged machine (a blocked-port cycle, a
//! leaked MSHR entry, a port that never drains) can burn the
//! whole budget making no progress at all. The [`Watchdog`] instead bounds
//! *cycles since the last observable progress*: every loop iteration hands
//! it a fingerprint of the monotone progress counters, and once the
//! fingerprint stalls for a full horizon the run aborts with a structured
//! [`WedgeDiagnosis`](gpumem_types::WedgeDiagnosis) instead of hanging.

use gpumem_types::Cycle;

/// A fingerprint of the simulator's monotone progress counters:
/// `(instructions, responses_delivered, requests_injected, next_cta)`.
///
/// Any change means the machine did something observable; queue-internal
/// shuffling that changes none of them is not progress towards completion
/// (instructions and CTAs drive `is_done`, the two traffic counters drive
/// the memory drain).
pub type ProgressFingerprint = (u64, u64, u64, u32);

/// Detects a wedged simulation by watching a progress fingerprint.
///
/// Deterministic: the verdict depends only on the observation sequence.
#[derive(Debug, Clone)]
pub struct Watchdog {
    horizon: u64,
    last_fingerprint: Option<ProgressFingerprint>,
    last_progress_cycle: Cycle,
}

impl Watchdog {
    /// A watchdog that trips after `horizon` consecutive cycles without a
    /// fingerprint change. A horizon of 0 is clamped to 1 (a zero horizon
    /// would trip on the very first observation of any fingerprint).
    pub fn new(horizon: u64) -> Self {
        Watchdog {
            horizon: horizon.max(1),
            last_fingerprint: None,
            last_progress_cycle: Cycle::ZERO,
        }
    }

    /// The configured no-progress horizon in cycles.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// The last cycle at which the fingerprint changed (or the first
    /// observed cycle, before any progress has been seen).
    pub fn last_progress_cycle(&self) -> Cycle {
        self.last_progress_cycle
    }

    /// Records the fingerprint at `now`; returns `true` when the machine
    /// has made no progress for at least the horizon and the run should
    /// abort with a wedge diagnosis.
    pub fn observe(&mut self, now: Cycle, fingerprint: ProgressFingerprint) -> bool {
        if self.last_fingerprint != Some(fingerprint) {
            self.last_fingerprint = Some(fingerprint);
            self.last_progress_cycle = now;
            return false;
        }
        now.since(self.last_progress_cycle) >= self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_only_after_a_full_horizon_without_progress() {
        let mut wd = Watchdog::new(3);
        let fp = (10, 2, 3, 1);
        assert!(!wd.observe(Cycle::new(0), fp)); // first sight = progress
        assert!(!wd.observe(Cycle::new(1), fp));
        assert!(!wd.observe(Cycle::new(2), fp));
        assert!(wd.observe(Cycle::new(3), fp));
        assert_eq!(wd.last_progress_cycle(), Cycle::new(0));
    }

    #[test]
    fn any_counter_change_resets_the_horizon() {
        let mut wd = Watchdog::new(2);
        assert!(!wd.observe(Cycle::new(0), (1, 0, 0, 0)));
        assert!(!wd.observe(Cycle::new(1), (1, 0, 0, 0)));
        // One more response delivered: progress.
        assert!(!wd.observe(Cycle::new(2), (1, 1, 0, 0)));
        assert!(!wd.observe(Cycle::new(3), (1, 1, 0, 0)));
        assert!(wd.observe(Cycle::new(4), (1, 1, 0, 0)));
        assert_eq!(wd.last_progress_cycle(), Cycle::new(2));
    }

    #[test]
    fn zero_horizon_is_clamped() {
        let mut wd = Watchdog::new(0);
        assert_eq!(wd.horizon(), 1);
        let fp = (0, 0, 0, 0);
        assert!(!wd.observe(Cycle::new(0), fp));
        assert!(wd.observe(Cycle::new(1), fp));
    }
}
