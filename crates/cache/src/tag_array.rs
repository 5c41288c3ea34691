//! Set-associative tag store with true-LRU replacement.

use gpumem_types::{Cycle, LineAddr};

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The evicted line's address.
    pub line: LineAddr,
    /// Whether the line was dirty (write-back caches must write it out).
    pub dirty: bool,
}

/// What happened when a line was filled into a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementOutcome {
    /// The line was already present (fill raced with an earlier fill of the
    /// same line, e.g. an MSHR-merged refill); the existing copy was kept.
    AlreadyPresent,
    /// An invalid way was used; nothing was evicted.
    FilledFree,
    /// The LRU way was evicted to make room.
    Evicted(EvictedLine),
}

#[derive(Debug, Clone, Copy)]
struct Way {
    line: LineAddr,
    dirty: bool,
    last_use: u64,
    valid: bool,
}

impl Way {
    const INVALID: Way = Way {
        line: LineAddr::new(0),
        dirty: false,
        last_use: 0,
        valid: false,
    };
}

/// A set-associative tag array with true-LRU replacement.
///
/// The array is policy-agnostic: callers decide the set index (so the same
/// type serves L1 set mapping and the partition/bank-interleaved L2
/// mapping), and whether hits/fills mark lines dirty (write-back L2) or not
/// (write-through L1).
///
/// # Example
///
/// ```
/// use gpumem_cache::{ReplacementOutcome, TagArray};
/// use gpumem_types::{Cycle, LineAddr};
///
/// let mut tags = TagArray::new(1, 2);
/// tags.fill(0, LineAddr::new(1), Cycle::new(1));
/// tags.fill(0, LineAddr::new(2), Cycle::new(2));
/// tags.touch(0, LineAddr::new(1), Cycle::new(3)); // line 2 is now LRU
/// match tags.fill(0, LineAddr::new(3), Cycle::new(4)) {
///     ReplacementOutcome::Evicted(e) => assert_eq!(e.line, LineAddr::new(2)),
///     other => panic!("expected eviction, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct TagArray {
    sets: usize,
    assoc: usize,
    ways: Vec<Way>,
    hits: u64,
    misses: u64,
}

impl TagArray {
    /// Creates an empty tag array of `sets` × `assoc` lines.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `assoc` is zero.
    pub fn new(sets: usize, assoc: usize) -> Self {
        assert!(sets > 0, "sets must be positive");
        assert!(assoc > 0, "associativity must be positive");
        TagArray {
            sets,
            assoc,
            ways: vec![Way::INVALID; sets * assoc],
            hits: 0,
            misses: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    fn set_slice(&self, set: usize) -> &[Way] {
        &self.ways[set * self.assoc..(set + 1) * self.assoc]
    }

    fn set_slice_mut(&mut self, set: usize) -> &mut [Way] {
        &mut self.ways[set * self.assoc..(set + 1) * self.assoc]
    }

    /// Looks up `line` in `set` without updating LRU state or counters.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn probe(&self, set: usize, line: LineAddr) -> Option<usize> {
        assert!(set < self.sets, "set {set} out of range");
        self.set_slice(set)
            .iter()
            .position(|w| w.valid && w.line == line)
    }

    /// Performs a demand access: on hit, refreshes LRU and returns `true`;
    /// on miss returns `false`. Hit/miss counters are updated.
    pub fn access(&mut self, set: usize, line: LineAddr, now: Cycle) -> bool {
        let way = self.probe(set, line);
        match way {
            Some(way) => self.record_hit(set, way, now),
            None => self.record_miss(),
        }
        way.is_some()
    }

    /// The hit half of [`access`](Self::access) for a caller that already
    /// [`probe`](Self::probe)d `way`: refreshes LRU and counts the hit.
    pub(crate) fn record_hit(&mut self, set: usize, way: usize, now: Cycle) {
        self.set_slice_mut(set)[way].last_use = now.raw();
        self.hits += 1;
    }

    /// The miss half of [`access`](Self::access), for a caller whose
    /// [`probe`](Self::probe) missed and who may yet refuse the access:
    /// counts one demand miss.
    pub(crate) fn record_miss(&mut self) {
        self.misses += 1;
    }

    /// Refreshes LRU state for a line known to be resident (no counter
    /// update). No-op if the line is absent.
    pub fn touch(&mut self, set: usize, line: LineAddr, now: Cycle) {
        if let Some(way) = self.probe(set, line) {
            self.set_slice_mut(set)[way].last_use = now.raw();
        }
    }

    /// Marks a resident line dirty (write-back caches). Returns `true` if
    /// the line was present.
    pub fn mark_dirty(&mut self, set: usize, line: LineAddr) -> bool {
        if let Some(way) = self.probe(set, line) {
            self.set_slice_mut(set)[way].dirty = true;
            true
        } else {
            false
        }
    }

    /// Installs `line` into `set`, evicting the LRU way if no invalid way
    /// exists. The new line starts clean.
    pub fn fill(&mut self, set: usize, line: LineAddr, now: Cycle) -> ReplacementOutcome {
        if self.probe(set, line).is_some() {
            self.touch(set, line, now);
            return ReplacementOutcome::AlreadyPresent;
        }
        let assoc = self.assoc;
        let ways = self.set_slice_mut(set);
        let victim = match ways.iter().position(|w| !w.valid) {
            Some(free) => free,
            None => {
                let mut lru = 0;
                for i in 1..assoc {
                    if ways[i].last_use < ways[lru].last_use {
                        lru = i;
                    }
                }
                lru
            }
        };
        let outcome = if ways[victim].valid {
            ReplacementOutcome::Evicted(EvictedLine {
                line: ways[victim].line,
                dirty: ways[victim].dirty,
            })
        } else {
            ReplacementOutcome::FilledFree
        };
        ways[victim] = Way {
            line,
            dirty: false,
            last_use: now.raw(),
            valid: true,
        };
        outcome
    }

    /// Invalidates a resident line. Returns its eviction record if present.
    pub fn invalidate(&mut self, set: usize, line: LineAddr) -> Option<EvictedLine> {
        let way = self.probe(set, line)?;
        let w = &mut self.set_slice_mut(set)[way];
        let record = EvictedLine {
            line: w.line,
            dirty: w.dirty,
        };
        w.valid = false;
        w.dirty = false;
        Some(record)
    }

    /// Demand hits recorded by [`access`](Self::access).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses recorded by [`access`](Self::access).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of currently valid lines (for invariant checks).
    pub fn valid_lines(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }

    /// Iterates over the valid lines of a set (for invariant checks).
    pub fn lines_in_set(&self, set: usize) -> impl Iterator<Item = LineAddr> + '_ {
        self.set_slice(set)
            .iter()
            .filter(|w| w.valid)
            .map(|w| w.line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut t = TagArray::new(2, 2);
        let l = LineAddr::new(4);
        assert!(!t.access(0, l, Cycle::new(1)));
        assert_eq!(t.fill(0, l, Cycle::new(2)), ReplacementOutcome::FilledFree);
        assert!(t.access(0, l, Cycle::new(3)));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut t = TagArray::new(1, 3);
        for i in 0..3 {
            t.fill(0, LineAddr::new(i), Cycle::new(i));
        }
        // touch 0 and 2; 1 is LRU
        t.touch(0, LineAddr::new(0), Cycle::new(10));
        t.touch(0, LineAddr::new(2), Cycle::new(11));
        match t.fill(0, LineAddr::new(99), Cycle::new(12)) {
            ReplacementOutcome::Evicted(e) => {
                assert_eq!(e.line, LineAddr::new(1));
                assert!(!e.dirty);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn dirty_state_tracks_and_survives_until_eviction() {
        let mut t = TagArray::new(1, 1);
        let l = LineAddr::new(7);
        t.fill(0, l, Cycle::new(1));
        assert!(t.mark_dirty(0, l));
        match t.fill(0, LineAddr::new(8), Cycle::new(2)) {
            ReplacementOutcome::Evicted(e) => {
                assert_eq!(e.line, l);
                assert!(e.dirty);
            }
            other => panic!("expected dirty eviction, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_fill_is_idempotent() {
        let mut t = TagArray::new(1, 2);
        let l = LineAddr::new(3);
        t.fill(0, l, Cycle::new(1));
        assert_eq!(
            t.fill(0, l, Cycle::new(2)),
            ReplacementOutcome::AlreadyPresent
        );
        assert_eq!(t.valid_lines(), 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut t = TagArray::new(1, 2);
        let l = LineAddr::new(5);
        t.fill(0, l, Cycle::new(1));
        t.mark_dirty(0, l);
        let e = t.invalidate(0, l).unwrap();
        assert!(e.dirty);
        assert!(t.probe(0, l).is_none());
        assert_eq!(t.invalidate(0, l), None);
    }

    #[test]
    fn mark_dirty_on_absent_line_is_false() {
        let mut t = TagArray::new(1, 1);
        assert!(!t.mark_dirty(0, LineAddr::new(9)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn probe_checks_set_bounds() {
        let t = TagArray::new(2, 1);
        let _ = t.probe(2, LineAddr::new(0));
    }

    #[test]
    fn no_duplicate_tags_in_set() {
        let mut t = TagArray::new(1, 4);
        for i in 0..20 {
            t.fill(0, LineAddr::new(i % 6), Cycle::new(i));
            let mut lines: Vec<_> = t.lines_in_set(0).collect();
            lines.sort_unstable();
            let before = lines.len();
            lines.dedup();
            assert_eq!(lines.len(), before, "duplicate tag in set");
            assert!(lines.len() <= 4);
        }
    }
}
