//! A min-heap of items keyed by the cycle they come due.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Cycle;

#[derive(Debug, Clone)]
struct Entry<T> {
    at: Cycle,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-due first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Items ordered by due cycle, ties broken by push order.
///
/// The latency pipelines of the hierarchy (L1 hit latency, L2 bank
/// latency, DRAM bursts, the fixed-latency memory) all hold work that
/// surfaces at a known future cycle. Components park the
/// [`MemFetch`](crate::MemFetch) body in their [`FetchArena`](crate::FetchArena)
/// and keep the 4-byte [`SlotId`](crate::SlotId) here, so a sift moves 24
/// bytes instead of the whole body.
///
/// # Example
///
/// ```
/// use gpumem_types::{Cycle, DueHeap};
///
/// let mut due = DueHeap::new();
/// due.push(Cycle::new(9), 'b');
/// due.push(Cycle::new(4), 'a');
/// due.push(Cycle::new(9), 'c');
/// assert_eq!(due.next_due(), Some(Cycle::new(4)));
/// assert_eq!(due.pop_due(Cycle::new(3)), None);
/// assert_eq!(due.pop_due(Cycle::new(9)), Some((Cycle::new(4), 'a')));
/// assert_eq!(due.pop_due(Cycle::new(9)), Some((Cycle::new(9), 'b')));
/// assert_eq!(due.pop_due(Cycle::new(9)), Some((Cycle::new(9), 'c')));
/// assert!(due.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct DueHeap<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> DueHeap<T> {
    /// An empty heap.
    pub fn new() -> Self {
        DueHeap {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `item` to come due at `at`.
    pub fn push(&mut self, at: Cycle, item: T) {
        self.heap.push(Entry {
            at,
            seq: self.next_seq,
            item,
        });
        self.next_seq += 1;
    }

    /// The earliest-due item and its due cycle, without removing it.
    pub fn peek(&self) -> Option<(Cycle, &T)> {
        self.heap.peek().map(|e| (e.at, &e.item))
    }

    /// Due cycle of the earliest item.
    pub fn next_due(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.at)
    }

    /// Removes the earliest item if it is due at or before `now`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, T)> {
        if self.next_due()? > now {
            return None;
        }
        self.heap.pop().map(|e| (e.at, e.item))
    }

    /// Number of scheduled items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Every scheduled item, in no particular order (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.heap.iter().map(|e| &e.item)
    }
}

impl<T> Default for DueHeap<T> {
    fn default() -> Self {
        DueHeap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_due_cycle_then_push_order() {
        let mut due = DueHeap::new();
        for (at, id) in [(5, 0), (3, 1), (5, 2), (1, 3), (3, 4)] {
            due.push(Cycle::new(at), id);
        }
        assert_eq!(due.len(), 5);
        assert_eq!(due.peek(), Some((Cycle::new(1), &3)));
        let order: Vec<_> = std::iter::from_fn(|| due.pop_due(Cycle::NEVER))
            .map(|(at, id)| (at.raw(), id))
            .collect();
        assert_eq!(order, vec![(1, 3), (3, 1), (3, 4), (5, 0), (5, 2)]);
    }

    #[test]
    fn pop_due_holds_future_items() {
        let mut due = DueHeap::new();
        due.push(Cycle::new(10), ());
        assert_eq!(due.pop_due(Cycle::new(9)), None);
        assert_eq!(due.iter().count(), 1);
        assert_eq!(due.pop_due(Cycle::new(10)), Some((Cycle::new(10), ())));
        assert_eq!(due.next_due(), None);
    }
}
