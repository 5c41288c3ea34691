//! A FIFO of items keyed by the cycle they come due.

use std::collections::VecDeque;

use crate::Cycle;

/// Items pushed in due order, popped once due; equal due cycles leave in
/// push order.
///
/// The latency pipelines of the hierarchy (L1 hit latency, L2 bank
/// latency, DRAM bursts, the fixed-latency memory) all hold work that
/// surfaces at a known future cycle, and each schedules it no earlier
/// than everything it scheduled before: a constant latency added to a
/// clock that never runs backwards, or a DRAM burst that ends after the
/// previous burst on the same bus. So the front is always the earliest
/// item and no sorting is needed; [`push`](DueQueue::push) checks the
/// order under `debug_assert!`. Components park the
/// [`MemFetch`](crate::MemFetch) body in their [`FetchArena`](crate::FetchArena)
/// and keep the 4-byte [`SlotId`](crate::SlotId) here.
///
/// # Example
///
/// ```
/// use gpumem_types::{Cycle, DueQueue};
///
/// let mut due = DueQueue::new();
/// due.push(Cycle::new(4), 'a');
/// due.push(Cycle::new(9), 'b');
/// due.push(Cycle::new(9), 'c');
/// assert_eq!(due.next_due(), Some(Cycle::new(4)));
/// assert_eq!(due.pop_due(Cycle::new(3)), None);
/// assert_eq!(due.pop_due(Cycle::new(9)), Some((Cycle::new(4), 'a')));
/// assert_eq!(due.pop_due(Cycle::new(9)), Some((Cycle::new(9), 'b')));
/// assert_eq!(due.pop_due(Cycle::new(9)), Some((Cycle::new(9), 'c')));
/// assert!(due.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct DueQueue<T> {
    items: VecDeque<(Cycle, T)>,
}

impl<T> DueQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        DueQueue {
            items: VecDeque::new(),
        }
    }

    /// Schedules `item` to come due at `at`, which must not be earlier
    /// than the last item pushed.
    pub fn push(&mut self, at: Cycle, item: T) {
        debug_assert!(
            self.items.back().is_none_or(|&(last, _)| last <= at),
            "due cycle {at:?} pushed after a later one"
        );
        self.items.push_back((at, item));
    }

    /// The earliest-due item and its due cycle, without removing it.
    pub fn peek(&self) -> Option<(Cycle, &T)> {
        self.items.front().map(|(at, item)| (*at, item))
    }

    /// Due cycle of the earliest item.
    pub fn next_due(&self) -> Option<Cycle> {
        self.items.front().map(|&(at, _)| at)
    }

    /// Removes the earliest item if it is due at or before `now`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, T)> {
        if self.next_due()? > now {
            return None;
        }
        self.items.pop_front()
    }

    /// Number of scheduled items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Every scheduled item, earliest first (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter().map(|(_, item)| item)
    }
}

impl<T> Default for DueQueue<T> {
    fn default() -> Self {
        DueQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn orders_by_due_cycle_then_push_order() {
        let mut due = DueQueue::new();
        for (at, id) in [(1, 0), (3, 1), (3, 2), (5, 3), (5, 4)] {
            due.push(Cycle::new(at), id);
        }
        assert_eq!(due.len(), 5);
        assert_eq!(due.peek(), Some((Cycle::new(1), &0)));
        let order: Vec<_> = std::iter::from_fn(|| due.pop_due(Cycle::NEVER))
            .map(|(at, id)| (at.raw(), id))
            .collect();
        assert_eq!(order, vec![(1, 0), (3, 1), (3, 2), (5, 3), (5, 4)]);
    }

    #[test]
    fn pop_due_holds_future_items() {
        let mut due = DueQueue::new();
        due.push(Cycle::new(10), ());
        assert_eq!(due.pop_due(Cycle::new(9)), None);
        assert_eq!(due.iter().count(), 1);
        assert_eq!(due.pop_due(Cycle::new(10)), Some((Cycle::new(10), ())));
        assert_eq!(due.next_due(), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pushed after a later one")]
    fn out_of_order_push_panics() {
        let mut due = DueQueue::new();
        due.push(Cycle::new(5), ());
        due.push(Cycle::new(4), ());
    }

    proptest! {
        /// Pushes at non-decreasing due cycles interleaved with `pop_due`
        /// at a non-decreasing clock come out in the order of the sorted
        /// `(due, push index)` oracle, and never before they are due.
        #[test]
        fn pops_match_sorted_oracle(
            steps in proptest::collection::vec((0u64..4, 0u64..6, 0usize..4), 1..64),
        ) {
            let mut due = DueQueue::new();
            let mut oracle = Vec::new();
            let mut popped = Vec::new();
            let (mut tail, mut now) = (0u64, 0u64);
            for (index, (gap, advance, pops)) in steps.into_iter().enumerate() {
                // Due cycles are laid from `now` up, as the users lay them.
                tail = tail.max(now) + gap;
                due.push(Cycle::new(tail), index);
                oracle.push((tail, index));
                now += advance;
                for _ in 0..pops {
                    match due.pop_due(Cycle::new(now)) {
                        Some((at, id)) => {
                            prop_assert!(at.raw() <= now);
                            popped.push((at.raw(), id));
                        }
                        None => {
                            prop_assert!(due.next_due().is_none_or(|at| at.raw() > now));
                            break;
                        }
                    }
                }
            }
            while let Some((at, id)) = due.pop_due(Cycle::NEVER) {
                popped.push((at.raw(), id));
            }
            oracle.sort_unstable();
            prop_assert_eq!(popped, oracle);
        }
    }
}
