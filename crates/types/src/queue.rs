//! Bounded FIFO queues instrumented with the occupancy statistics the
//! paper's Section III congestion measurement is built on.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Error returned by [`SimQueue::push`] when the queue is at capacity.
///
/// The rejected element is handed back so the caller can retry next cycle —
/// in the timing model a full queue *must* exert backpressure rather than
/// drop or grow, because that backpressure is exactly the congestion
/// mechanism under study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushError<T>(pub T);

impl<T> PushError<T> {
    /// Recovers the element that could not be enqueued.
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> fmt::Display for PushError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "queue full")
    }
}

impl<T: fmt::Debug> std::error::Error for PushError<T> {}

/// Occupancy statistics accumulated by a [`SimQueue`].
///
/// The paper quantifies congestion as *"the L2 access queues are full for
/// 46% of their usage lifetime"*. Usage lifetime is the number of observed
/// cycles in which the queue was non-empty; the headline metric is
/// [`QueueStats::full_fraction_of_usage`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Total cycles observed (one [`SimQueue::observe`] call each).
    pub ticks: u64,
    /// Observed cycles in which the queue held at least one element.
    pub ticks_nonempty: u64,
    /// Observed cycles in which the queue was at capacity.
    pub ticks_full: u64,
    /// Sum of the occupancy over all observed cycles (for mean occupancy).
    pub occupancy_sum: u64,
    /// Total elements ever enqueued.
    pub pushes: u64,
    /// Total elements ever dequeued.
    pub pops: u64,
    /// Push attempts rejected because the queue was full.
    pub rejected: u64,
}

impl QueueStats {
    /// Fraction of the queue's *usage lifetime* (non-empty cycles) in which
    /// it was full — the paper's Section III congestion metric.
    ///
    /// Returns 0.0 when the queue was never used.
    pub fn full_fraction_of_usage(&self) -> f64 {
        if self.ticks_nonempty == 0 {
            0.0
        } else {
            self.ticks_full as f64 / self.ticks_nonempty as f64
        }
    }

    /// Mean occupancy over all observed cycles.
    pub fn mean_occupancy(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.ticks as f64
        }
    }

    /// Records `cycles` observed cycles spent at occupancy `len` of
    /// `capacity`: the one place occupancy enters the statistics.
    fn observe_at(&mut self, cycles: u64, len: usize, capacity: usize) {
        self.ticks += cycles;
        self.occupancy_sum += len as u64 * cycles;
        if len > 0 {
            self.ticks_nonempty += cycles;
        }
        if len >= capacity {
            self.ticks_full += cycles;
        }
    }

    /// Merges another queue's statistics into this one (used to aggregate
    /// the per-partition queues into the paper's averages).
    pub fn merge(&mut self, other: &QueueStats) {
        self.ticks += other.ticks;
        self.ticks_nonempty += other.ticks_nonempty;
        self.ticks_full += other.ticks_full;
        self.occupancy_sum += other.occupancy_sum;
        self.pushes += other.pushes;
        self.pops += other.pops;
        self.rejected += other.rejected;
    }
}

/// A bounded FIFO with per-cycle occupancy instrumentation.
///
/// Every hardware queue in the simulated memory system (L1 miss queue, L2
/// access/miss/response queues, DRAM scheduler queue, interconnect ejection
/// buffers) is a `SimQueue`. The owning component calls
/// [`observe`](SimQueue::observe) exactly once per simulated cycle so that
/// the occupancy statistics are time-weighted. Occupancy is counted at the
/// events that change it, not at the observations: an observed cycle only
/// bumps a counter, and the cycles observed since the last change are
/// folded into the statistics — all at the one occupancy that held
/// throughout them — by the next accepted `push`, `pop` or `remove_at`,
/// or by [`stats`](SimQueue::stats). Exact for any call order.
///
/// Storage is a fixed-capacity ring buffer allocated once at construction:
/// the queue never grows (or reallocates) afterwards, which keeps the
/// per-cycle hot path allocation-free and the memory footprint of a
/// simulator instance exactly what its configuration implies.
///
/// # Example
///
/// ```
/// use gpumem_types::SimQueue;
///
/// let mut q = SimQueue::new("dram_sched", 2);
/// q.push('a').unwrap();
/// q.push('b').unwrap();
/// assert!(q.push('c').is_err()); // full: backpressure
/// q.observe();
/// assert_eq!(q.stats().ticks_full, 1);
/// assert_eq!(q.pop(), Some('a'));
/// ```
#[derive(Debug, Clone)]
pub struct SimQueue<T> {
    name: &'static str,
    /// Ring storage; `slots.len()` is the fixed capacity. A slot is `Some`
    /// exactly when it holds a queued element.
    slots: Box<[Option<T>]>,
    /// Index of the head element (meaningless while `len == 0`).
    head: usize,
    /// Number of queued elements.
    len: usize,
    /// Cycles observed since `len` last changed, not yet in `stats`.
    pending: u64,
    /// Everything but the `pending` cycles.
    stats: QueueStats,
}

/// Alias spelling out the central property of [`SimQueue`]: bounded,
/// preallocated, backpressuring. New code modelling a hardware queue should
/// prefer this name.
pub type BoundedQueue<T> = SimQueue<T>;

impl<T> SimQueue<T> {
    /// Creates an empty queue holding at most `capacity` elements. The
    /// backing ring buffer is allocated here, once; no later operation
    /// allocates.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(name: &'static str, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        SimQueue {
            name,
            slots: (0..capacity).map(|_| None).collect(),
            head: 0,
            len: 0,
            pending: 0,
            stats: QueueStats::default(),
        }
    }

    /// The queue's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Maximum number of elements.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Current number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the queue holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.len >= self.slots.len()
    }

    /// Remaining free slots.
    pub fn free(&self) -> usize {
        self.slots.len() - self.len
    }

    /// Physical slot index of logical position `pos` (0 = head; `pos` may
    /// equal the capacity, wrapping a full circle back to the head).
    #[inline]
    fn slot_of(&self, pos: usize) -> usize {
        debug_assert!(pos <= self.slots.len());
        let cap = self.slots.len();
        let s = self.head + pos;
        if s >= cap {
            s - cap
        } else {
            s
        }
    }

    /// Enqueues `item` at the tail.
    ///
    /// # Errors
    ///
    /// Returns [`PushError`] carrying `item` back if the queue is full; the
    /// rejection is also counted in [`QueueStats::rejected`].
    pub fn push(&mut self, item: T) -> Result<(), PushError<T>> {
        if self.is_full() {
            self.stats.rejected += 1;
            Err(PushError(item))
        } else {
            self.fold();
            let tail = self.slot_of(self.len);
            debug_assert!(self.slots[tail].is_none(), "tail slot must be vacant");
            self.slots[tail] = Some(item);
            self.len += 1;
            self.stats.pushes += 1;
            Ok(())
        }
    }

    /// Dequeues from the head.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        self.fold();
        let item = self.slots[self.head].take();
        debug_assert!(item.is_some(), "head slot must be occupied");
        self.head = self.slot_of(1);
        self.len -= 1;
        self.stats.pops += 1;
        item
    }

    /// Peeks at the head without removing it.
    pub fn front(&self) -> Option<&T> {
        if self.len == 0 {
            None
        } else {
            self.slots[self.head].as_ref()
        }
    }

    /// Iterates over queued elements from head to tail.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len).map(|pos| {
            self.slots[self.slot_of(pos)]
                .as_ref()
                .expect("queued slot is occupied")
        })
    }

    /// Removes and returns the element at logical position `pos` (0 = head,
    /// as yielded by [`iter`](SimQueue::iter)), leaving the relative order
    /// of the others intact; `None` if `pos` is out of range.
    ///
    /// This is the primitive behind out-of-order service policies such as
    /// the DRAM controller's FR-FCFS scheduler, which prefers row-hit
    /// requests over strict FIFO order. The `pos` older elements shift one
    /// slot towards the tail and the head advances, so removing the head
    /// moves nothing.
    pub fn remove_at(&mut self, pos: usize) -> Option<T> {
        if pos >= self.len {
            return None;
        }
        self.fold();
        let item = self.slots[self.slot_of(pos)].take();
        for p in (0..pos).rev() {
            let from = self.slot_of(p);
            let to = self.slot_of(p + 1);
            self.slots[to] = self.slots[from].take();
        }
        self.head = self.slot_of(1);
        self.len -= 1;
        self.stats.pops += 1;
        item
    }

    /// Records this cycle's occupancy. Call exactly once per simulated
    /// cycle.
    pub fn observe(&mut self) {
        self.observe_many(1);
    }

    /// Records `cycles` consecutive observations (used by event-horizon
    /// skipping to fast-forward idle stretches). Equivalent to calling
    /// [`observe`](SimQueue::observe) `cycles` times.
    pub fn observe_many(&mut self, cycles: u64) {
        self.pending += cycles;
    }

    /// Moves the pending observed cycles into `stats` at the occupancy
    /// they were all observed at. Every change of `len` calls this first.
    fn fold(&mut self) {
        // Only the first change of a cycle has anything to fold.
        if self.pending != 0 {
            self.stats
                .observe_at(self.pending, self.len, self.slots.len());
            self.pending = 0;
        }
    }

    /// Accumulated statistics, pending observations included.
    pub fn stats(&self) -> QueueStats {
        let mut stats = self.stats;
        stats.observe_at(self.pending, self.len, self.slots.len());
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SimQueue::<u8>::new("bad", 0);
    }

    #[test]
    fn fifo_order() {
        let mut q = SimQueue::new("t", 4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn backpressure_returns_item() {
        let mut q = SimQueue::new("t", 1);
        q.push("x").unwrap();
        let err = q.push("y").unwrap_err();
        assert_eq!(err.into_inner(), "y");
        assert_eq!(q.stats().rejected, 1);
    }

    #[test]
    fn occupancy_accounting() {
        let mut q = SimQueue::new("t", 2);
        q.observe(); // empty
        q.push(1).unwrap();
        q.observe(); // half
        q.push(2).unwrap();
        q.observe(); // full
        q.observe(); // full again

        let s = q.stats();
        assert_eq!(s.ticks, 4);
        assert_eq!(s.ticks_nonempty, 3);
        assert_eq!(s.ticks_full, 2);
        assert_eq!(s.occupancy_sum, 5); // 0 + 1 + 2 + 2
        assert!((s.full_fraction_of_usage() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_occupancy() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn observe_many_matches_repeated_observe() {
        let mut a = SimQueue::new("a", 2);
        let mut b = SimQueue::new("b", 2);
        for q in [&mut a, &mut b] {
            q.push(1).unwrap();
            q.push(2).unwrap();
        }
        for _ in 0..7 {
            a.observe();
        }
        b.observe_many(7);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn unused_queue_reports_zero() {
        let q = SimQueue::<u8>::new("t", 2);
        assert_eq!(q.stats().full_fraction_of_usage(), 0.0);
        assert_eq!(q.stats().mean_occupancy(), 0.0);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = QueueStats {
            ticks: 10,
            ticks_nonempty: 5,
            ticks_full: 2,
            occupancy_sum: 12,
            pushes: 6,
            pops: 6,
            rejected: 1,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.ticks, 20);
        assert_eq!(a.ticks_full, 4);
        assert_eq!(a.pushes, 12);
    }

    #[test]
    fn remove_at_preserves_order_and_counts_pops() {
        let mut q = SimQueue::new("t", 8);
        for i in 0..6 {
            q.push(i).unwrap();
        }
        assert_eq!(q.remove_at(1), Some(1)); // middle
        assert_eq!(q.remove_at(0), Some(0)); // head: same as pop
        assert_eq!(q.remove_at(3), Some(5)); // tail
        assert_eq!(q.remove_at(3), None); // out of range
        let rest: Vec<_> = q.iter().copied().collect();
        assert_eq!(rest, vec![2, 3, 4]);
        assert_eq!(q.stats().pops, 3);
        assert_eq!(q.len(), 3);
        // The freed slots are reusable up to capacity, in FIFO order.
        for i in 6..11 {
            q.push(i).unwrap();
        }
        assert!(q.is_full());
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![2, 3, 4, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn ring_wraparound_preserves_fifo_without_growth() {
        let mut q: BoundedQueue<u64> = BoundedQueue::new("ring", 4);
        assert_eq!(q.capacity(), 4);
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        // Interleave pushes and pops so the head index wraps the physical
        // buffer many times, crossing every alignment of head vs. tail.
        for round in 0..25u64 {
            let pushes = 1 + (round % 4) as usize;
            for _ in 0..pushes {
                if q.push(next_in).is_ok() {
                    next_in += 1;
                }
            }
            assert!(q.len() <= q.capacity(), "queue must never exceed capacity");
            assert_eq!(q.capacity(), 4, "capacity is fixed at construction");
            let pops = 1 + ((round + 1) % 3) as usize;
            for _ in 0..pops {
                if let Some(v) = q.pop() {
                    assert_eq!(v, next_out, "FIFO order across wraparound");
                    next_out += 1;
                }
            }
        }
        while let Some(v) = q.pop() {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(
            next_in, next_out,
            "every pushed element popped exactly once"
        );
        assert!(next_in > 2 * q.capacity() as u64, "head wrapped repeatedly");
        assert!(q.is_empty());
    }

    #[test]
    fn remove_at_across_wrap_boundary() {
        let layout = || {
            let mut q = SimQueue::new("t", 4);
            // Advance head to slot 2, then fill so elements straddle the wrap.
            for i in 0..4 {
                q.push(i).unwrap();
            }
            q.pop();
            q.pop();
            q.push(4).unwrap();
            q.push(5).unwrap(); // physical layout: [4, 5, 2, 3], head at 2
            q
        };
        for pos in 0..4 {
            let mut q = layout();
            let mut expect = vec![2, 3, 4, 5];
            assert_eq!(q.remove_at(pos), Some(expect.remove(pos)));
            assert_eq!(q.iter().copied().collect::<Vec<_>>(), expect);
            q.push(6).unwrap();
            expect.push(6);
            let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(drained, expect);
        }
    }

    #[test]
    fn front_and_iter() {
        let mut q = SimQueue::new("t", 3);
        q.push(10).unwrap();
        q.push(20).unwrap();
        assert_eq!(q.front(), Some(&10));
        let v: Vec<_> = q.iter().copied().collect();
        assert_eq!(v, vec![10, 20]);
        assert_eq!(q.free(), 1);
    }
}
