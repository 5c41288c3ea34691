//! Per-warp execution state.

use gpumem_types::CtaId;

use crate::WarpInstr;

/// An outstanding load instruction on a warp's scoreboard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Outstanding {
    /// Tag shared by all coalesced accesses of the load.
    pub tag: u32,
    /// PC of the instruction that consumes the loaded value.
    pub consume_pc: u32,
    /// Accesses still in flight.
    pub remaining: u32,
}

/// Where a warp is in its lifecycle (exposed for diagnostics and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpState {
    /// No CTA assigned to this hardware slot.
    Idle,
    /// Assigned and executing.
    Active,
    /// Waiting at a CTA barrier.
    AtBarrier,
    /// Retired its last instruction.
    Finished,
}

/// One hardware warp slot of a [`crate::SimtCore`].
#[derive(Debug, Clone)]
pub struct WarpSlot {
    pub(crate) cta: CtaId,
    /// Core-local CTA slot index the warp belongs to.
    pub(crate) cta_slot: usize,
    pub(crate) warp_in_cta: u32,
    pub(crate) pc: u32,
    pub(crate) outstanding: Vec<Outstanding>,
    pub(crate) next_tag: u32,
    pub(crate) at_barrier: bool,
    pub(crate) finished: bool,
    pub(crate) assigned: bool,
    /// Monotonic age for GTO's "oldest" ordering.
    pub(crate) age: u64,
    /// Decoded-but-not-yet-issued instruction cache.
    pub(crate) decoded: Option<Option<WarpInstr>>,
}

impl WarpSlot {
    pub(crate) fn empty() -> Self {
        WarpSlot {
            cta: CtaId::new(0),
            cta_slot: 0,
            warp_in_cta: 0,
            pc: 0,
            outstanding: Vec::new(),
            next_tag: 0,
            at_barrier: false,
            finished: false,
            assigned: false,
            age: 0,
            decoded: None,
        }
    }

    pub(crate) fn assign(&mut self, cta: CtaId, cta_slot: usize, warp_in_cta: u32, age: u64) {
        debug_assert!(!self.assigned, "warp slot already in use");
        *self = WarpSlot {
            cta,
            cta_slot,
            warp_in_cta,
            pc: 0,
            outstanding: Vec::new(),
            next_tag: 0,
            at_barrier: false,
            finished: false,
            assigned: true,
            age,
            decoded: None,
        };
    }

    /// The warp's lifecycle state.
    pub fn state(&self) -> WarpState {
        if !self.assigned {
            WarpState::Idle
        } else if self.finished {
            WarpState::Finished
        } else if self.at_barrier {
            WarpState::AtBarrier
        } else {
            WarpState::Active
        }
    }

    /// True if a pending load blocks the instruction at the current PC.
    pub(crate) fn blocked_on_memory(&self) -> bool {
        self.outstanding.iter().any(|o| o.consume_pc <= self.pc)
    }

    /// Registers a new outstanding load; returns its tag.
    pub(crate) fn post_load(&mut self, consume_after: u32, accesses: u32) -> u32 {
        let tag = self.next_tag;
        self.next_tag = self.next_tag.wrapping_add(1);
        self.outstanding.push(Outstanding {
            tag,
            // `consume_after` counts from the load's own PC, which is still
            // the current PC at issue time (pc advances after).
            consume_pc: self.pc + consume_after,
            remaining: accesses,
        });
        tag
    }

    /// Completes one access of load `tag`; returns `true` if that load is
    /// now fully satisfied.
    pub(crate) fn complete_access(&mut self, tag: u32) -> bool {
        if let Some(pos) = self.outstanding.iter().position(|o| o.tag == tag) {
            let entry = &mut self.outstanding[pos];
            debug_assert!(entry.remaining > 0);
            entry.remaining -= 1;
            if entry.remaining == 0 {
                self.outstanding.swap_remove(pos);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active_warp() -> WarpSlot {
        let mut w = WarpSlot::empty();
        w.assign(CtaId::new(1), 0, 2, 5);
        w
    }

    #[test]
    fn lifecycle_states() {
        let mut w = WarpSlot::empty();
        assert_eq!(w.state(), WarpState::Idle);
        w.assign(CtaId::new(0), 0, 0, 1);
        assert_eq!(w.state(), WarpState::Active);
        w.at_barrier = true;
        assert_eq!(w.state(), WarpState::AtBarrier);
        w.at_barrier = false;
        w.finished = true;
        assert_eq!(w.state(), WarpState::Finished);
    }

    #[test]
    fn scoreboard_blocks_only_at_consume_pc() {
        let mut w = active_warp();
        w.pc = 10;
        let tag = w.post_load(3, 2); // consume at pc 13
        w.pc = 11;
        assert!(!w.blocked_on_memory());
        w.pc = 13;
        assert!(w.blocked_on_memory());
        assert!(!w.complete_access(tag));
        assert!(w.blocked_on_memory());
        assert!(w.complete_access(tag));
        assert!(!w.blocked_on_memory());
        assert_eq!(w.outstanding.len(), 0);
    }

    #[test]
    fn multiple_outstanding_loads_tracked_independently() {
        let mut w = active_warp();
        let t0 = w.post_load(1, 1);
        w.pc += 1;
        let t1 = w.post_load(5, 1);
        assert_ne!(t0, t1);
        assert_eq!(w.outstanding.len(), 2);
        // At pc 1: t0's consume_pc is 1 → blocked.
        assert!(w.blocked_on_memory());
        w.complete_access(t0);
        assert!(!w.blocked_on_memory());
        w.pc = 6; // t1's consume_pc
        assert!(w.blocked_on_memory());
        w.complete_access(t1);
        assert!(!w.blocked_on_memory());
    }

    #[test]
    fn stray_completion_is_ignored() {
        let mut w = active_warp();
        assert!(!w.complete_access(42));
    }
}
