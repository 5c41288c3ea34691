//! Miss Status Holding Registers with request merging.

use std::error::Error;
use std::fmt;

use gpumem_types::LineAddr;

/// How an access was recorded in the MSHR table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrAllocation {
    /// A fresh entry was allocated: the caller must send a fill request
    /// down the hierarchy.
    NewEntry,
    /// The access was merged into an existing entry for the same line: no
    /// new downstream request is needed.
    Merged,
}

/// Why an access could not be recorded.
///
/// Both variants stall the cache pipeline at the access stage — the
/// serialization effect the paper identifies as consequence ② of high miss
/// latencies (entries are held for the full lifetime of an outstanding
/// miss, so high latency ⇒ prolonged contention of cache resources).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrError {
    /// No free entry and the line has no existing entry.
    Full,
    /// The line has an entry but its merge capacity is exhausted.
    MergeCapacity,
}

impl fmt::Display for MshrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MshrError::Full => write!(f, "mshr table full"),
            MshrError::MergeCapacity => write!(f, "mshr merge capacity exhausted"),
        }
    }
}

impl Error for MshrError {}

/// One bucket of the open-addressed table. `waiters` outlives the entry:
/// a released register keeps its (cleared-on-reuse) vector, so steady-state
/// operation allocates nothing.
#[derive(Debug, Clone)]
struct Bucket<W> {
    line: Option<LineAddr>,
    waiters: Vec<W>,
}

/// A table of Miss Status Holding Registers.
///
/// Each entry tracks one outstanding line fill; accesses to a line that is
/// already outstanding merge into the entry (up to `max_merge` per entry)
/// instead of issuing duplicate downstream requests. The waiter payload `W`
/// is caller-defined — the L1 stores handles to the merged
/// [`gpumem_types::MemFetch`]s so it can complete all of them on fill.
///
/// Storage is a fixed table sized at construction (linear probing, at most
/// half full), so lookups touch one or two buckets and no operation
/// allocates once every bucket's waiter vector has grown to its working
/// size.
///
/// # Example
///
/// ```
/// use gpumem_cache::{MshrAllocation, MshrTable};
/// use gpumem_types::LineAddr;
///
/// let mut mshr: MshrTable<&str> = MshrTable::new(2, 4);
/// let line = LineAddr::new(10);
/// assert_eq!(mshr.allocate(line, "first").unwrap(), MshrAllocation::NewEntry);
/// assert_eq!(mshr.allocate(line, "second").unwrap(), MshrAllocation::Merged);
/// assert_eq!(mshr.complete(line), ["first", "second"]);
/// assert!(mshr.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct MshrTable<W> {
    max_entries: usize,
    max_merge: usize,
    /// Power-of-two bucket count, at least `2 × max_entries`: a probe
    /// always ends at a vacant bucket and chains stay short.
    buckets: Box<[Bucket<W>]>,
    len: usize,
    peak_occupancy: usize,
    merges: u64,
    allocations: u64,
}

impl<W> MshrTable<W> {
    /// Creates a table with `max_entries` registers, each merging at most
    /// `max_merge` accesses (including the first).
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(max_entries: usize, max_merge: usize) -> Self {
        assert!(max_entries > 0, "mshr entries must be positive");
        assert!(max_merge > 0, "mshr merge capacity must be positive");
        let buckets = (0..(2 * max_entries).next_power_of_two())
            .map(|_| Bucket {
                line: None,
                waiters: Vec::new(),
            })
            .collect();
        MshrTable {
            max_entries,
            max_merge,
            buckets,
            len: 0,
            peak_occupancy: 0,
            merges: 0,
            allocations: 0,
        }
    }

    /// Number of outstanding entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no miss is outstanding.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.max_entries
    }

    /// First bucket of `line`'s probe sequence (Fibonacci hashing: the
    /// high product bits mix every address bit, so strided lines spread).
    fn home(&self, line: LineAddr) -> usize {
        let hash = line.index().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (hash >> 32) as usize & (self.buckets.len() - 1)
    }

    /// `Ok(bucket)` holding `line`'s entry, or `Err(bucket)` naming the
    /// vacant bucket a new entry for `line` would occupy.
    fn find(&self, line: LineAddr) -> Result<usize, usize> {
        let mut i = self.home(line);
        loop {
            match self.buckets[i].line {
                Some(l) if l == line => return Ok(i),
                Some(_) => i = (i + 1) & (self.buckets.len() - 1),
                None => return Err(i),
            }
        }
    }

    /// True if `line` already has an outstanding entry.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_ok()
    }

    /// Whether [`allocate`](Self::allocate) would succeed for `line`.
    pub fn can_accept(&self, line: LineAddr) -> bool {
        match self.find(line) {
            Ok(i) => self.buckets[i].waiters.len() < self.max_merge,
            Err(_) => self.len < self.max_entries,
        }
    }

    /// Records an access to `line` carrying `waiter`.
    ///
    /// # Errors
    ///
    /// [`MshrError::Full`] if a fresh entry is needed but none is free;
    /// [`MshrError::MergeCapacity`] if the line's entry cannot absorb more
    /// waiters.
    pub fn allocate(&mut self, line: LineAddr, waiter: W) -> Result<MshrAllocation, MshrError> {
        match self.find(line) {
            Ok(i) => {
                let waiters = &mut self.buckets[i].waiters;
                if waiters.len() >= self.max_merge {
                    return Err(MshrError::MergeCapacity);
                }
                waiters.push(waiter);
                self.merges += 1;
                Ok(MshrAllocation::Merged)
            }
            Err(i) => {
                if self.len >= self.max_entries {
                    return Err(MshrError::Full);
                }
                let bucket = &mut self.buckets[i];
                bucket.line = Some(line);
                bucket.waiters.clear();
                bucket.waiters.push(waiter);
                self.len += 1;
                self.allocations += 1;
                self.peak_occupancy = self.peak_occupancy.max(self.len);
                Ok(MshrAllocation::NewEntry)
            }
        }
    }

    /// The waiters currently merged on `line`, if it is outstanding.
    pub fn waiters_of(&self, line: LineAddr) -> Option<&[W]> {
        self.find(line)
            .ok()
            .map(|i| self.buckets[i].waiters.as_slice())
    }

    /// Completes the outstanding miss for `line`, releasing the register
    /// and returning all merged waiters in arrival order. Returns an empty
    /// slice if the line had no entry (e.g. a stray fill).
    pub fn complete(&mut self, line: LineAddr) -> &[W] {
        let Ok(mut hole) = self.find(line) else {
            return &[];
        };
        self.buckets[hole].line = None;
        self.len -= 1;
        // Close the probe chain (backward-shift deletion): a later entry
        // moves into the hole unless its home bucket lies after the hole.
        // Swapping carries the released waiters along to the final hole.
        let mask = self.buckets.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let Some(l) = self.buckets[i].line else {
                break;
            };
            if (i.wrapping_sub(self.home(l)) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.buckets.swap(hole, i);
                hole = i;
            }
        }
        &self.buckets[hole].waiters
    }

    /// Highest simultaneous occupancy seen.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Total fresh entries ever allocated.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Total merged accesses ever absorbed.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Iterates over the lines currently outstanding, in no particular
    /// order.
    pub fn outstanding_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.buckets.iter().filter_map(|b| b.line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_up_and_rejects() {
        let mut m: MshrTable<u32> = MshrTable::new(2, 2);
        assert_eq!(
            m.allocate(LineAddr::new(1), 0).unwrap(),
            MshrAllocation::NewEntry
        );
        assert_eq!(
            m.allocate(LineAddr::new(2), 1).unwrap(),
            MshrAllocation::NewEntry
        );
        assert_eq!(m.allocate(LineAddr::new(3), 2), Err(MshrError::Full));
        // Merging into an existing line still works while full.
        assert_eq!(
            m.allocate(LineAddr::new(1), 3).unwrap(),
            MshrAllocation::Merged
        );
        // But merge capacity is bounded.
        assert_eq!(
            m.allocate(LineAddr::new(1), 4),
            Err(MshrError::MergeCapacity)
        );
        assert!(!m.can_accept(LineAddr::new(1)));
        assert!(m.can_accept(LineAddr::new(2)));
        assert!(!m.can_accept(LineAddr::new(9)));
    }

    #[test]
    fn complete_returns_waiters_in_order() {
        let mut m: MshrTable<&str> = MshrTable::new(4, 4);
        m.allocate(LineAddr::new(5), "a").unwrap();
        m.allocate(LineAddr::new(5), "b").unwrap();
        m.allocate(LineAddr::new(5), "c").unwrap();
        assert_eq!(m.complete(LineAddr::new(5)), ["a", "b", "c"]);
        assert!(m.complete(LineAddr::new(5)).is_empty());
    }

    #[test]
    fn statistics_track_activity() {
        let mut m: MshrTable<u8> = MshrTable::new(4, 4);
        m.allocate(LineAddr::new(1), 0).unwrap();
        m.allocate(LineAddr::new(2), 0).unwrap();
        m.allocate(LineAddr::new(1), 0).unwrap();
        assert_eq!(m.allocations(), 2);
        assert_eq!(m.merges(), 1);
        assert_eq!(m.peak_occupancy(), 2);
        m.complete(LineAddr::new(1));
        assert_eq!(m.len(), 1);
        assert_eq!(m.peak_occupancy(), 2);
    }

    #[test]
    fn outstanding_lines_iterates() {
        let mut m: MshrTable<u8> = MshrTable::new(4, 2);
        m.allocate(LineAddr::new(9), 0).unwrap();
        m.allocate(LineAddr::new(4), 0).unwrap();
        let mut lines: Vec<_> = m.outstanding_lines().collect();
        lines.sort();
        assert_eq!(lines, vec![LineAddr::new(4), LineAddr::new(9)]);
    }

    #[test]
    fn colliding_lines_survive_each_others_release() {
        // A 1-register-deep table has two buckets, so every probe chain
        // wraps; a larger one is filled to capacity. Releasing in every
        // rotation must leave the remaining entries reachable with their
        // own waiters.
        for entries in [1usize, 3, 8] {
            for first in 0..entries {
                let mut m: MshrTable<u64> = MshrTable::new(entries, 2);
                let line = |i: usize| LineAddr::new(i as u64 * 64);
                for i in 0..entries {
                    m.allocate(line(i), i as u64).unwrap();
                    m.allocate(line(i), 100 + i as u64).unwrap();
                }
                assert!(!m.can_accept(LineAddr::new(7)));
                for k in 0..entries {
                    let i = (first + k) % entries;
                    assert_eq!(m.complete(line(i)), [i as u64, 100 + i as u64]);
                    assert!(!m.contains(line(i)));
                    for j in (k + 1..entries).map(|k| (first + k) % entries) {
                        assert_eq!(m.waiters_of(line(j)), Some(&[j as u64, 100 + j as u64][..]));
                    }
                }
                assert!(m.is_empty());
            }
        }
    }

    #[test]
    fn errors_display() {
        assert!(MshrError::Full.to_string().contains("full"));
        assert!(MshrError::MergeCapacity.to_string().contains("merge"));
    }
}
