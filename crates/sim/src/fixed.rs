//! The fixed-latency memory backend used by the paper's Section II
//! latency-tolerance experiment (Fig. 1).

use gpumem_types::{Cycle, DueQueue, MemFetch};

/// An idealized memory system that answers every L1 miss after a fixed,
/// configurable latency with unlimited bandwidth.
///
/// This is the paper's Fig. 1 instrument: *"we modify the memory hierarchy
/// of the baseline architecture so that all the L1 miss responses are
/// returned with a fixed and pre-determined latency"*. Loads come back
/// exactly `latency` cycles after submission; stores are absorbed
/// immediately (write-through traffic needs no response).
///
/// # Example
///
/// ```
/// use gpumem_sim::FixedLatencyMemory;
/// use gpumem_types::{AccessKind, CoreId, Cycle, FetchId, LineAddr, MemFetch};
///
/// let mut mem = FixedLatencyMemory::new(100);
/// let f = MemFetch::new(FetchId::new(1), AccessKind::Load, LineAddr::new(2), CoreId::new(0));
/// mem.submit(f, Cycle::new(10));
/// assert!(mem.pop_due(Cycle::new(109)).is_none());
/// assert!(mem.pop_due(Cycle::new(110)).is_some());
/// ```
#[derive(Debug)]
pub struct FixedLatencyMemory {
    latency: u64,
    pending: DueQueue<MemFetch>,
}

impl FixedLatencyMemory {
    /// Creates a responder with the given fixed latency in cycles.
    pub fn new(latency: u64) -> Self {
        FixedLatencyMemory {
            latency,
            pending: DueQueue::new(),
        }
    }

    /// The configured latency.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Accepts a request (never refuses — bandwidth is unlimited). Stores
    /// are sunk; loads are scheduled to return at `now + latency`.
    pub fn submit(&mut self, fetch: MemFetch, now: Cycle) {
        if fetch.kind.is_load() {
            self.pending.push(now + self.latency, fetch);
        }
    }

    /// Takes the next response due at or before `now`, if any.
    pub fn pop_due(&mut self, now: Cycle) -> Option<MemFetch> {
        self.pending.pop_due(now).map(|(_, fetch)| fetch)
    }

    /// True once every submitted load has been returned.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
    }

    /// Loads submitted but not yet returned.
    pub(crate) fn pending_responses(&self) -> usize {
        self.pending.len()
    }

    /// Every load currently awaiting its response (for wedge diagnosis).
    pub fn fetches(&self) -> impl Iterator<Item = &MemFetch> {
        self.pending.iter()
    }

    /// The earliest future cycle at which this backend can act: the due
    /// time of the next pending response (clamped to `now` if already
    /// due), or `None` when nothing is outstanding.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.pending.next_due().map(|at| at.max(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_types::{AccessKind, CoreId, FetchId, LineAddr};

    fn fetch(id: u64, kind: AccessKind) -> MemFetch {
        MemFetch::new(FetchId::new(id), kind, LineAddr::new(id), CoreId::new(0))
    }

    #[test]
    fn loads_return_after_exact_latency() {
        let mut m = FixedLatencyMemory::new(50);
        m.submit(fetch(1, AccessKind::Load), Cycle::new(100));
        assert!(m.pop_due(Cycle::new(149)).is_none());
        let f = m.pop_due(Cycle::new(150)).unwrap();
        assert_eq!(f.id, FetchId::new(1));
        assert!(m.is_idle());
    }

    #[test]
    fn zero_latency_returns_same_cycle() {
        let mut m = FixedLatencyMemory::new(0);
        m.submit(fetch(1, AccessKind::Load), Cycle::new(7));
        assert!(m.pop_due(Cycle::new(7)).is_some());
    }

    #[test]
    fn stores_are_sunk() {
        let mut m = FixedLatencyMemory::new(10);
        m.submit(fetch(1, AccessKind::Store), Cycle::ZERO);
        assert!(m.is_idle());
    }

    #[test]
    fn next_event_tracks_pending_head() {
        let mut m = FixedLatencyMemory::new(30);
        assert_eq!(m.next_event(Cycle::new(5)), None);
        m.submit(fetch(1, AccessKind::Load), Cycle::new(10));
        assert_eq!(m.next_event(Cycle::new(11)), Some(Cycle::new(40)));
        // Already due: clamps to now, never the past.
        assert_eq!(m.next_event(Cycle::new(100)), Some(Cycle::new(100)));
        assert_eq!(m.pending_responses(), 1);
    }

    #[test]
    fn responses_preserve_submission_order_at_equal_latency() {
        let mut m = FixedLatencyMemory::new(5);
        for i in 0..4 {
            m.submit(fetch(i, AccessKind::Load), Cycle::ZERO);
        }
        let mut ids = Vec::new();
        while let Some(f) = m.pop_due(Cycle::new(5)) {
            ids.push(f.id.raw());
        }
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }
}
