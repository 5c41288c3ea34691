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

/// Ways per tag line: eight 8-byte tags fill one 64-byte cache line.
const WAYS_PER_LINE: usize = 8;

/// The tags of eight consecutive ways of one set, cache-line aligned, so a
/// probe of an 8-way set reads one line.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(64))]
struct TagLine([u64; WAYS_PER_LINE]);

/// A set-associative tag array with true-LRU replacement.
///
/// The array is policy-agnostic: callers decide the set index (so the same
/// type serves L1 set mapping and the partition/bank-interleaved L2
/// mapping), and whether hits/fills mark lines dirty (write-back L2) or not
/// (write-through L1).
///
/// Laid out as a structure of arrays: the probe reads only the tags, and
/// the LRU stamps and dirty bits sit in arrays of their own.
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
    /// Tag lines per set: `assoc` rounded up to whole lines.
    lines_per_set: usize,
    /// Per way, `line + 1`, or 0 while the way is invalid. The ways that
    /// pad a set to whole lines stay 0, so a probe for a line (key ≥ 1)
    /// may scan them.
    tags: Vec<TagLine>,
    /// Per way (`set * assoc + way`), the cycle of its last fill or hit.
    last_use: Vec<u64>,
    /// Per way (`set * assoc + way`), whether its line is dirty.
    dirty: Vec<bool>,
}

/// A line's tag: its address plus one, so that 0 means invalid.
fn key(line: LineAddr) -> u64 {
    line.index() + 1
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
        let lines_per_set = assoc.div_ceil(WAYS_PER_LINE);
        TagArray {
            sets,
            assoc,
            lines_per_set,
            tags: vec![TagLine::default(); sets * lines_per_set],
            last_use: vec![0; sets * assoc],
            dirty: vec![false; sets * assoc],
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

    /// The tag lines of `set`.
    fn set_lines(&self, set: usize) -> &[TagLine] {
        &self.tags[set * self.lines_per_set..(set + 1) * self.lines_per_set]
    }

    /// The way of `set` whose tag is `key`, padding included; for `key`
    /// 0 that is the first invalid way or a padding way.
    fn find(&self, set: usize, key: u64) -> Option<usize> {
        self.set_lines(set)
            .iter()
            .enumerate()
            .find_map(|(i, l)| Some(i * WAYS_PER_LINE + l.0.iter().position(|&t| t == key)?))
    }

    /// The tags of `set`, padding included, in way order.
    fn set_tags(&self, set: usize) -> impl Iterator<Item = u64> + '_ {
        self.set_lines(set).iter().flat_map(|l| l.0)
    }

    fn tag_mut(&mut self, set: usize, way: usize) -> &mut u64 {
        &mut self.tags[set * self.lines_per_set + way / WAYS_PER_LINE].0[way % WAYS_PER_LINE]
    }

    /// Looks up `line` in `set` without updating LRU state.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[inline]
    pub fn probe(&self, set: usize, line: LineAddr) -> Option<usize> {
        assert!(set < self.sets, "set {set} out of range");
        self.find(set, key(line))
    }

    /// Performs a demand access: on hit, refreshes LRU and returns `true`;
    /// on miss returns `false`.
    #[inline]
    pub fn access(&mut self, set: usize, line: LineAddr, now: Cycle) -> bool {
        let way = self.probe(set, line);
        if let Some(way) = way {
            self.touch_way(set, way, now);
        }
        way.is_some()
    }

    /// Refreshes the LRU state of `way`, which the caller
    /// [`probe`](Self::probe)d.
    pub(crate) fn touch_way(&mut self, set: usize, way: usize, now: Cycle) {
        self.last_use[set * self.assoc + way] = now.raw();
    }

    /// Refreshes LRU state for a line known to be resident. No-op if the
    /// line is absent.
    pub fn touch(&mut self, set: usize, line: LineAddr, now: Cycle) {
        if let Some(way) = self.probe(set, line) {
            self.touch_way(set, way, now);
        }
    }

    /// Marks a resident line dirty (write-back caches). Returns `true` if
    /// the line was present.
    #[inline]
    pub fn mark_dirty(&mut self, set: usize, line: LineAddr) -> bool {
        if let Some(way) = self.probe(set, line) {
            self.dirty[set * self.assoc + way] = true;
            true
        } else {
            false
        }
    }

    /// Installs `line` into `set`: into the first invalid way, else over
    /// the least recently used one (the first, on a tie). The new line
    /// starts clean.
    #[inline]
    pub fn fill(&mut self, set: usize, line: LineAddr, now: Cycle) -> ReplacementOutcome {
        if let Some(way) = self.probe(set, line) {
            self.touch_way(set, way, now);
            return ReplacementOutcome::AlreadyPresent;
        }
        let base = set * self.assoc;
        let victim = match self.find(set, 0).filter(|&way| way < self.assoc) {
            Some(free) => free,
            None => {
                let stamps = &self.last_use[base..base + self.assoc];
                let mut lru = 0;
                for (way, &stamp) in stamps.iter().enumerate().skip(1) {
                    if stamp < stamps[lru] {
                        lru = way;
                    }
                }
                lru
            }
        };
        let old = std::mem::replace(self.tag_mut(set, victim), key(line));
        let dirty = std::mem::replace(&mut self.dirty[base + victim], false);
        self.last_use[base + victim] = now.raw();
        if old == 0 {
            ReplacementOutcome::FilledFree
        } else {
            ReplacementOutcome::Evicted(EvictedLine {
                line: LineAddr::new(old - 1),
                dirty,
            })
        }
    }

    /// Invalidates a resident line. Returns its eviction record if present.
    pub fn invalidate(&mut self, set: usize, line: LineAddr) -> Option<EvictedLine> {
        let way = self.probe(set, line)?;
        *self.tag_mut(set, way) = 0;
        let dirty = std::mem::replace(&mut self.dirty[set * self.assoc + way], false);
        Some(EvictedLine { line, dirty })
    }

    /// Number of currently valid lines (for invariant checks).
    pub fn valid_lines(&self) -> usize {
        (0..self.sets)
            .map(|set| self.set_tags(set).filter(|&t| t != 0).count())
            .sum()
    }

    /// Iterates over the valid lines of a set (for invariant checks).
    pub fn lines_in_set(&self, set: usize) -> impl Iterator<Item = LineAddr> + '_ {
        self.set_tags(set)
            .filter(|&t| t != 0)
            .map(|t| LineAddr::new(t - 1))
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
