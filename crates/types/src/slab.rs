//! A slab allocator handing out small copyable handles.
//!
//! The hierarchy components (L1, L2 partitions) park [`MemFetch`] bodies
//! here while a miss is outstanding and pass 4-byte [`SlotId`] handles
//! through their MSHRs and ready-heaps instead of cloning the 100+-byte
//! struct. Slots are recycled through a free list, so steady-state
//! operation performs no allocation at all.
//!
//! [`MemFetch`]: crate::MemFetch

use std::fmt;

/// Handle to an occupied [`Slab`] slot.
///
/// Deliberately *not* `Serialize`: slot numbers depend on allocation
/// history and must never leak into reports or golden files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(u32);

impl SlotId {
    /// Raw slot index (for diagnostics only).
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot{}", self.0)
    }
}

/// A grow-on-demand slab with free-list slot reuse.
///
/// # Example
///
/// ```
/// use gpumem_types::Slab;
///
/// let mut slab: Slab<&str> = Slab::with_capacity(2);
/// let a = slab.insert("alpha");
/// let b = slab.insert("beta");
/// assert_eq!(slab[a], "alpha");
/// assert_eq!(slab.take(b), "beta");
/// assert_eq!(slab.len(), 1);
/// let c = slab.insert("gamma"); // reuses beta's slot
/// assert_eq!(b.raw(), c.raw());
/// ```
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// An empty slab with room for `capacity` values before reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            len: 0,
        }
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stores `value`, returning its handle.
    ///
    /// # Panics
    ///
    /// Panics if the slab would exceed `u32::MAX` slots.
    #[must_use = "a dropped SlotId orphans its slot for the rest of the run"]
    pub fn insert(&mut self, value: T) -> SlotId {
        self.len += 1;
        if let Some(idx) = self.free.pop() {
            debug_assert!(self.slots[idx as usize].is_none(), "free slot occupied");
            self.slots[idx as usize] = Some(value);
            SlotId(idx)
        } else {
            let idx = u32::try_from(self.slots.len()).expect("slab exceeds u32 slots");
            self.slots.push(Some(value));
            SlotId(idx)
        }
    }

    /// Removes and returns the value behind `id`, recycling its slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` is vacant (double-take) — that is always a
    /// bookkeeping bug in the owning component.
    pub fn take(&mut self, id: SlotId) -> T {
        let value = self.slots[id.0 as usize]
            .take()
            .expect("take() of vacant slab slot");
        self.free.push(id.0);
        self.len -= 1;
        value
    }

    /// Shared access to the value behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is vacant.
    pub fn get(&self, id: SlotId) -> &T {
        self.slots[id.0 as usize]
            .as_ref()
            .expect("get() of vacant slab slot")
    }

    /// Mutable access to the value behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is vacant.
    pub(crate) fn get_mut(&mut self, id: SlotId) -> &mut T {
        self.slots[id.0 as usize]
            .as_mut()
            .expect("get_mut() of vacant slab slot")
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> std::ops::Index<SlotId> for Slab<T> {
    type Output = T;

    fn index(&self, id: SlotId) -> &T {
        self.get(id)
    }
}

impl<T> std::ops::IndexMut<SlotId> for Slab<T> {
    fn index_mut(&mut self, id: SlotId) -> &mut T {
        self.get_mut(id)
    }
}

/// The slab specialization the memory hierarchy uses: parked
/// [`MemFetch`](crate::MemFetch) bodies addressed by [`SlotId`] handles.
pub type FetchArena = Slab<crate::MemFetch>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_roundtrip() {
        let mut s: Slab<u64> = Slab::new();
        let a = s.insert(10);
        let b = s.insert(20);
        assert_eq!(s.len(), 2);
        assert_eq!(s[a], 10);
        *s.get_mut(b) = 21;
        assert_eq!(s.take(b), 21);
        assert_eq!(s.take(a), 10);
        assert!(s.is_empty());
    }

    #[test]
    fn slots_are_recycled_lifo() {
        let mut s: Slab<char> = Slab::with_capacity(4);
        let a = s.insert('a');
        let b = s.insert('b');
        s.take(a);
        s.take(b);
        // LIFO free list: b's slot comes back first.
        assert_eq!(s.insert('c').raw(), b.raw());
        assert_eq!(s.insert('d').raw(), a.raw());
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "vacant slab slot")]
    fn double_take_panics() {
        let mut s: Slab<u8> = Slab::new();
        let a = s.insert(1);
        s.take(a);
        s.take(a);
    }

    #[test]
    fn interleaved_churn_keeps_len_consistent() {
        let mut s: Slab<usize> = Slab::new();
        let mut live = Vec::new();
        for i in 0..100 {
            live.push((s.insert(i), i));
            if i % 3 == 0 {
                let (id, v) = live.remove(live.len() / 2);
                assert_eq!(s.take(id), v);
            }
        }
        assert_eq!(s.len(), live.len());
        for (id, v) in live {
            assert_eq!(s.take(id), v);
        }
        assert!(s.is_empty());
    }
}
