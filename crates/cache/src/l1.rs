//! The per-core L1 data cache controller.

use gpumem_config::{GpuConfig, L1Config};
use gpumem_types::{
    AccessKind, Cycle, CycleStamp, DueQueue, FetchArena, LineAddr, MemFetch, QueueStats, SimQueue,
    SlotId,
};

use crate::{MshrTable, TagArray};

/// Why the L1 refused an access this cycle (the access must be retried).
///
/// Every variant stalls the LSU pipeline head, which in turn back-pressures
/// the core — the throttling chain the paper describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1BlockReason {
    /// A fresh MSHR entry was needed but the table is full.
    MshrFull,
    /// The line is outstanding but its MSHR merge capacity is exhausted.
    MshrMergeCapacity,
    /// The miss queue towards the interconnect is full.
    MissQueueFull,
}

/// How the L1 accepted one coalesced access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1AccessOutcome {
    /// Load hit; the response will surface from
    /// [`L1Dcache::pop_ready_hits`] after the hit latency.
    Hit,
    /// Load miss; a fill request entered the miss queue (`merged == false`)
    /// or was merged into an outstanding MSHR entry (`merged == true`).
    Miss {
        /// Whether the access merged into an existing outstanding miss.
        merged: bool,
    },
    /// Store accepted into the write-through path (it will travel to L2 via
    /// the miss queue; no response will return).
    StoreAccepted,
}

/// Counters exposed by the L1 controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct L1Stats {
    /// Load hits.
    pub load_hits: u64,
    /// Load misses (including merged ones).
    pub load_misses: u64,
    /// Misses absorbed by MSHR merging (no downstream request).
    pub merged_misses: u64,
    /// Stores accepted (write-through traffic).
    pub stores: u64,
    /// Accesses rejected because the MSHR table was full.
    pub mshr_full_stalls: u64,
    /// Accesses rejected because an entry's merge capacity was exhausted.
    pub mshr_merge_stalls: u64,
    /// Accesses rejected because the miss queue was full.
    pub miss_queue_stalls: u64,
}

impl L1Stats {
    /// Accumulates another controller's counters (for per-GPU aggregation).
    pub fn merge(&mut self, other: &L1Stats) {
        self.load_hits += other.load_hits;
        self.load_misses += other.load_misses;
        self.merged_misses += other.merged_misses;
        self.stores += other.stores;
        self.mshr_full_stalls += other.mshr_full_stalls;
        self.mshr_merge_stalls += other.mshr_merge_stalls;
        self.miss_queue_stalls += other.miss_queue_stalls;
    }

    /// Load miss rate in `[0, 1]`; 0 if no loads were seen.
    pub fn miss_rate(&self) -> f64 {
        let total = self.load_hits + self.load_misses;
        if total == 0 {
            0.0
        } else {
            self.load_misses as f64 / total as f64
        }
    }
}

/// A non-blocking, write-through / write-no-allocate L1 data cache.
///
/// Matches the GPGPU-Sim Fermi L1D: load misses allocate MSHRs and send
/// line fills through a bounded miss queue; stores always write through to
/// L2 without allocating a line; fills from the interconnect install the
/// line and release all merged accesses at once.
///
/// The owner drives it with one [`access`](L1Dcache::access) per cycle at
/// most (the L1 port), drains [`pop_ready_hits`](L1Dcache::pop_ready_hits)
/// and the miss queue, pushes interconnect responses through
/// [`fill`](L1Dcache::fill), and calls [`observe`](L1Dcache::observe) once
/// per cycle.
#[derive(Debug)]
pub struct L1Dcache {
    line_bytes: u64,
    sets: usize,
    hit_latency: u64,
    tags: TagArray,
    /// Waiters merged on an outstanding line. `None` marks the primary
    /// access — its body IS the request travelling down the hierarchy, so
    /// no copy is parked here; the returning fill reconstitutes it.
    mshr: MshrTable<Option<SlotId>>,
    miss_queue: SimQueue<MemFetch>,
    /// Hit responses waiting out the hit latency.
    ready_hits: DueQueue<SlotId>,
    /// Parked bodies of merged waiters and latency-pending hit responses.
    arena: FetchArena,
    /// The refusal [`access_head`](L1Dcache::access_head) last handed out:
    /// an access of this kind to this line is refused for this reason.
    ///
    /// *Proved by:* [`admit`](L1Dcache::admit) refusing it. The refusal is
    /// a function of the line's residency, the MSHR table and the miss
    /// queue's fullness, so it stands — and `access_head` replays it,
    /// bumping the same stall counter, without probing anything — until
    /// one of them is written. While it stands, a retry slot holding that
    /// access is not an event for its owner's `next_event`: the owner may
    /// jump, and [`fast_forward`](L1Dcache::fast_forward) replays the
    /// counter for every skipped presentation.
    ///
    /// *Cleared by* every writer of those three: an accepted access
    /// ([`place`](L1Dcache::place): MSHR allocation, miss-queue push), a
    /// fill ([`fill_into`](L1Dcache::fill_into): tag install, MSHR
    /// release) and a miss-queue pop that removes a request
    /// ([`pop_miss`](L1Dcache::pop_miss); popping an empty queue writes
    /// nothing, so the memo survives the owner's final, empty drain pop).
    /// Only the L1's own methods write that state, so the list is
    /// complete.
    refused: Option<(AccessKind, LineAddr, L1BlockReason)>,
    stats: L1Stats,
}

impl L1Dcache {
    /// Builds an L1 from the global configuration.
    pub fn new(cfg: &GpuConfig) -> Self {
        Self::from_parts(&cfg.l1, cfg.line_bytes)
    }

    /// Builds an L1 from an [`L1Config`] and the line size.
    pub fn from_parts(l1: &L1Config, line_bytes: u64) -> Self {
        L1Dcache {
            line_bytes,
            sets: l1.sets,
            hit_latency: l1.hit_latency,
            tags: TagArray::new(l1.sets, l1.assoc),
            mshr: MshrTable::new(l1.mshr_entries, l1.mshr_merge),
            miss_queue: SimQueue::new("l1_miss", l1.miss_queue),
            ready_hits: DueQueue::new(),
            arena: FetchArena::with_capacity(l1.mshr_entries * l1.mshr_merge),
            refused: None,
            stats: L1Stats::default(),
        }
    }

    /// The line size this cache was built with.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.index() % self.sets as u64) as usize
    }

    /// Presents one coalesced access (the L1 port accepts at most one per
    /// cycle; enforcing that is the caller's job).
    ///
    /// # Errors
    ///
    /// Hands the access back with the reason if it could not be accepted
    /// this cycle; it must be retried.
    #[expect(
        clippy::result_large_err,
        reason = "the rejected fetch is handed back by design"
    )]
    pub fn access(
        &mut self,
        fetch: MemFetch,
        now: Cycle,
    ) -> Result<L1AccessOutcome, (MemFetch, L1BlockReason)> {
        match self.admit(&fetch, now) {
            Ok(outcome) => self.place(fetch, outcome, now),
            Err(reason) => Err((fetch, reason)),
        }
    }

    /// Presents the access waiting in `head` — the owner's retry slot — and
    /// takes it out only if it is accepted: a stalled access is decided
    /// from the borrowed body and never moves. `None` if `head` is empty.
    ///
    /// # Errors
    ///
    /// The reason the access stays in `head` and must be retried.
    #[inline]
    pub fn access_head(
        &mut self,
        head: &mut Option<MemFetch>,
        now: Cycle,
    ) -> Option<Result<L1AccessOutcome, L1BlockReason>> {
        let fetch = head.as_ref()?;
        if let Some((kind, line, reason)) = self.refused {
            if (kind, line) == (fetch.kind, fetch.line) {
                debug_assert_eq!(
                    self.miss_path(kind, line),
                    Err(reason),
                    "remembered refusal of {kind:?} {line:?} no longer holds"
                );
                debug_assert!(kind == AccessKind::Store || !self.resident(line));
                self.count_stalls(reason, 1);
                return Some(Err(reason));
            }
        }
        let outcome = match self.admit(fetch, now) {
            Ok(outcome) => outcome,
            Err(reason) => {
                self.refused = Some((fetch.kind, fetch.line, reason));
                return Some(Err(reason));
            }
        };
        let placed = self.place(head.take()?, outcome, now);
        Some(placed.map_err(|(fetch, reason)| {
            *head = Some(fetch);
            reason
        }))
    }

    /// Decides what the L1 does with `fetch` this cycle without moving it,
    /// counting the stall if it is refused. A hit refreshes its line's LRU
    /// state here (a hit is never refused); everything else about an
    /// accepted access happens in [`place`](Self::place).
    fn admit(&mut self, fetch: &MemFetch, now: Cycle) -> Result<L1AccessOutcome, L1BlockReason> {
        let line = fetch.line;
        if fetch.kind == AccessKind::Load {
            let set = self.set_of(line);
            if let Some(way) = self.tags.probe(set, line) {
                self.tags.touch_way(set, way, now);
                return Ok(L1AccessOutcome::Hit);
            }
        }
        self.miss_path(fetch.kind, line)
            .inspect_err(|&reason| self.count_stalls(reason, 1))
    }

    /// True if a load of `line` would hit.
    fn resident(&self, line: LineAddr) -> bool {
        self.tags.probe(self.set_of(line), line).is_some()
    }

    /// What happens to a store, or to a load whose line is not resident.
    /// Reads the MSHR table and the miss queue's fullness; writes nothing.
    fn miss_path(
        &self,
        kind: AccessKind,
        line: LineAddr,
    ) -> Result<L1AccessOutcome, L1BlockReason> {
        if kind == AccessKind::Store {
            if self.miss_queue.is_full() {
                return Err(L1BlockReason::MissQueueFull);
            }
            return Ok(L1AccessOutcome::StoreAccepted);
        }
        // A merge consumes no miss-queue slot; a fresh entry needs both a
        // register and queue space.
        let merged = self.mshr.contains(line);
        if !self.mshr.can_accept(line) {
            return Err(if merged {
                L1BlockReason::MshrMergeCapacity
            } else {
                L1BlockReason::MshrFull
            });
        }
        if !merged && self.miss_queue.is_full() {
            return Err(L1BlockReason::MissQueueFull);
        }
        Ok(L1AccessOutcome::Miss { merged })
    }

    fn count_stalls(&mut self, reason: L1BlockReason, n: u64) {
        match reason {
            L1BlockReason::MshrFull => self.stats.mshr_full_stalls += n,
            L1BlockReason::MshrMergeCapacity => self.stats.mshr_merge_stalls += n,
            L1BlockReason::MissQueueFull => self.stats.miss_queue_stalls += n,
        }
    }

    /// Moves an access [`admit`](Self::admit)ted as `outcome` to where it
    /// waits next and counts it. The error paths are unreachable after
    /// `admit`; they hand the body back and stall rather than panic in the
    /// model hot path.
    #[expect(
        clippy::result_large_err,
        reason = "the rejected fetch is handed back by design"
    )]
    fn place(
        &mut self,
        mut fetch: MemFetch,
        outcome: L1AccessOutcome,
        now: Cycle,
    ) -> Result<L1AccessOutcome, (MemFetch, L1BlockReason)> {
        self.refused = None;
        let line = fetch.line;
        match outcome {
            L1AccessOutcome::Hit => {
                let ready = now + self.hit_latency;
                fetch.timeline.returned = CycleStamp::at(ready);
                self.ready_hits.push(ready, self.arena.insert(fetch));
                self.stats.load_hits += 1;
            }
            L1AccessOutcome::Miss { merged: true } => {
                fetch.timeline.l1_miss = CycleStamp::at(now);
                let slot = self.arena.insert(fetch);
                if self.mshr.allocate(line, Some(slot)).is_err() {
                    let mut fetch = self.arena.take(slot);
                    fetch.timeline.l1_miss = CycleStamp::NONE;
                    self.stats.mshr_merge_stalls += 1;
                    return Err((fetch, L1BlockReason::MshrMergeCapacity));
                }
                self.stats.load_misses += 1;
                self.stats.merged_misses += 1;
            }
            L1AccessOutcome::Miss { merged: false } => {
                // The primary access is not copied: its body travels down
                // the hierarchy as the fill request and comes back through
                // `fill`, which reconstitutes it from the response.
                if self.mshr.allocate(line, None).is_err() {
                    self.stats.mshr_full_stalls += 1;
                    return Err((fetch, L1BlockReason::MshrFull));
                }
                if let Err(refused) = self.send_down(fetch, now) {
                    self.mshr.complete(line);
                    return Err(refused);
                }
                self.stats.load_misses += 1;
            }
            L1AccessOutcome::StoreAccepted => {
                // Write-through: refresh a resident line, never allocate.
                self.tags.touch(self.set_of(line), line, now);
                self.send_down(fetch, now)?;
                self.stats.stores += 1;
            }
        }
        Ok(outcome)
    }

    /// Stamps `fetch` as leaving the L1 and queues it for the interconnect.
    #[expect(
        clippy::result_large_err,
        reason = "the rejected fetch is handed back by design"
    )]
    fn send_down(
        &mut self,
        mut fetch: MemFetch,
        now: Cycle,
    ) -> Result<(), (MemFetch, L1BlockReason)> {
        fetch.timeline.l1_miss = CycleStamp::at(now);
        self.miss_queue.push(fetch).map_err(|e| {
            let mut fetch = e.into_inner();
            fetch.timeline.l1_miss = CycleStamp::NONE;
            self.stats.miss_queue_stalls += 1;
            (fetch, L1BlockReason::MissQueueFull)
        })
    }

    /// Takes one completed load hit whose latency has elapsed, if any.
    #[inline]
    pub fn pop_ready_hit(&mut self, now: Cycle) -> Option<MemFetch> {
        let (_, slot) = self.ready_hits.pop_due(now)?;
        Some(self.arena.take(slot))
    }

    /// Every completed load hit whose latency has elapsed.
    pub fn pop_ready_hits(&mut self, now: Cycle) -> Vec<MemFetch> {
        std::iter::from_fn(|| self.pop_ready_hit(now)).collect()
    }

    /// The fill request at the head of the miss queue, if any.
    #[inline]
    pub fn peek_miss(&self) -> Option<&MemFetch> {
        self.miss_queue.front()
    }

    /// Removes the head fill request (after successful injection into the
    /// interconnect).
    #[inline]
    pub fn pop_miss(&mut self) -> Option<MemFetch> {
        let fetch = self.miss_queue.pop()?;
        self.refused = None;
        Some(fetch)
    }

    /// Installs a returning line and releases every access merged on it.
    /// The returned fetches (primary + merged) are completed loads to wake
    /// warps with. Write-through means evicted lines are never dirty, so no
    /// writeback traffic is generated.
    ///
    /// Takes the response by value: the primary waiter was never copied at
    /// miss time, so the returning body itself completes it.
    pub fn fill(&mut self, fetch: MemFetch, now: Cycle) -> Vec<MemFetch> {
        let mut done = Vec::new();
        self.fill_into(fetch, now, &mut done);
        done
    }

    /// [`fill`](L1Dcache::fill) appending to a caller-owned buffer, so a
    /// per-cycle owner can reuse one allocation.
    #[inline]
    pub fn fill_into(&mut self, fetch: MemFetch, now: Cycle, done: &mut Vec<MemFetch>) {
        self.refused = None;
        let line = fetch.line;
        let set = self.set_of(line);
        self.tags.fill(set, line, now);
        let mut primary = Some(fetch);
        for waiter in self.mshr.complete(line) {
            // Each entry holds exactly one primary; a duplicate is skipped
            // here and surfaces as a conservation failure (MshrLeak) at the
            // simulator's run-end check.
            let body = match *waiter {
                None => primary.take(),
                Some(slot) => Some(self.arena.take(slot)),
            };
            if let Some(mut f) = body {
                f.timeline.returned = CycleStamp::at(now);
                done.push(f);
            }
        }
    }

    /// Ready time of the earliest queued hit response, if any.
    #[inline]
    pub fn next_ready_hit(&self) -> Option<Cycle> {
        self.ready_hits.next_due()
    }

    /// Per-cycle bookkeeping (queue occupancy statistics).
    #[inline]
    pub fn observe(&mut self) {
        self.miss_queue.observe();
    }

    /// True if the remembered refusal answers for `fetch`: presenting it
    /// again would be refused for the same reason without a probe, and
    /// would change nothing but that reason's stall counter.
    #[inline]
    pub fn refusal_stands(&self, fetch: &MemFetch) -> bool {
        self.refused
            .is_some_and(|(kind, line, _)| (kind, line) == (fetch.kind, fetch.line))
    }

    /// Replays `cycles` consecutive quiescent cycles in closed form: the
    /// miss queue's occupancy statistics and, if the owner's retry slot
    /// `retry` holds an access whose [refusal stands](Self::refusal_stands),
    /// the `cycles` refused presentations it would have made — exactly
    /// what [`observe`](Self::observe) and
    /// [`access_head`](Self::access_head) record when stepped.
    pub fn fast_forward(&mut self, retry: Option<&MemFetch>, cycles: u64) {
        self.miss_queue.observe_many(cycles);
        if let Some((kind, line, reason)) = self.refused {
            if retry.is_some_and(|f| self.refusal_stands(f)) {
                debug_assert_eq!(
                    self.miss_path(kind, line),
                    Err(reason),
                    "remembered refusal of {kind:?} {line:?} no longer holds"
                );
                self.count_stalls(reason, cycles);
            }
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> &L1Stats {
        &self.stats
    }

    /// Miss-queue occupancy statistics.
    pub fn miss_queue_stats(&self) -> QueueStats {
        self.miss_queue.stats()
    }

    /// Number of outstanding MSHR entries (for stall diagnosis).
    #[inline]
    pub fn outstanding_misses(&self) -> usize {
        self.mshr.len()
    }

    /// Current miss-queue depth (for the trace layer's occupancy probes).
    #[inline]
    pub fn miss_queue_len(&self) -> usize {
        self.miss_queue.len()
    }

    /// Fetch bodies parked in the arena (merged waiters and hits waiting
    /// out the hit latency); zero once the cache has drained.
    pub fn arena_slots(&self) -> usize {
        self.arena.len()
    }
}

#[cfg(test)]
#[expect(
    clippy::let_underscore_must_use,
    reason = "tests discard the accept/refuse outcome on purpose"
)]
mod tests {
    use super::*;
    use gpumem_types::{CoreId, FetchId};

    fn cache() -> L1Dcache {
        let mut cfg = GpuConfig::gtx480();
        cfg.l1.hit_latency = 2;
        cfg.l1.miss_queue = 2;
        cfg.l1.mshr_entries = 2;
        cfg.l1.mshr_merge = 2;
        L1Dcache::new(&cfg)
    }

    fn load(id: u64, line: u64) -> MemFetch {
        MemFetch::new(
            FetchId::new(id),
            AccessKind::Load,
            LineAddr::new(line),
            CoreId::new(0),
        )
    }

    fn store(id: u64, line: u64) -> MemFetch {
        MemFetch::new(
            FetchId::new(id),
            AccessKind::Store,
            LineAddr::new(line),
            CoreId::new(0),
        )
    }

    #[test]
    fn cold_miss_then_fill_then_hit() {
        let mut c = cache();
        let now = Cycle::new(10);
        match c.access(load(1, 5), now) {
            Ok(L1AccessOutcome::Miss { merged: false }) => {}
            other => panic!("expected cold miss, got {other:?}"),
        }
        let req = c.pop_miss().unwrap();
        assert_eq!(req.line, LineAddr::new(5));
        assert_eq!(req.timeline.l1_miss.get(), Some(now));

        let done = c.fill(req, Cycle::new(100));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].timeline.returned.get(), Some(Cycle::new(100)));
        assert_eq!(done[0].timeline.l1_miss_latency(), Some(90));

        match c.access(load(2, 5), Cycle::new(101)) {
            Ok(L1AccessOutcome::Hit) => {}
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(c.pop_ready_hits(Cycle::new(102)).is_empty());
        let hits = c.pop_ready_hits(Cycle::new(103));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, FetchId::new(2));
    }

    #[test]
    fn merged_misses_consume_no_miss_queue() {
        let mut c = cache();
        let now = Cycle::new(0);
        let _ = c.access(load(1, 7), now);
        match c.access(load(2, 7), now) {
            Ok(L1AccessOutcome::Miss { merged: true }) => {}
            other => panic!("expected merge, got {other:?}"),
        }
        // Only one downstream request.
        let req = c.pop_miss().unwrap();
        assert!(c.pop_miss().is_none());
        // Fill releases both.
        let done = c.fill(req, Cycle::new(50));
        assert_eq!(done.len(), 2);
        assert_eq!(c.stats().merged_misses, 1);
    }

    #[test]
    fn mshr_full_blocks_new_lines() {
        let mut c = cache();
        let now = Cycle::new(0);
        let _ = c.access(load(1, 1), now);
        let _ = c.access(load(2, 2), now);
        match c.access(load(3, 3), now) {
            Err((f, L1BlockReason::MshrFull)) => {
                assert_eq!(f.id, FetchId::new(3));
            }
            other => panic!("expected mshr-full block, got {other:?}"),
        }
        assert_eq!(c.stats().mshr_full_stalls, 1);
    }

    #[test]
    fn merge_capacity_blocks() {
        let mut c = cache();
        let now = Cycle::new(0);
        let _ = c.access(load(1, 1), now);
        let _ = c.access(load(2, 1), now); // merge #2 fills capacity (max_merge = 2)
        match c.access(load(3, 1), now) {
            Err((_, L1BlockReason::MshrMergeCapacity)) => {}
            other => panic!("expected merge-capacity block, got {other:?}"),
        }
    }

    #[test]
    fn miss_queue_full_blocks_even_with_free_mshrs() {
        let mut cfg = GpuConfig::gtx480();
        cfg.l1.miss_queue = 1;
        let mut c = L1Dcache::new(&cfg);
        let now = Cycle::new(0);
        let _ = c.access(load(1, 1), now);
        match c.access(load(2, 2), now) {
            Err((_, L1BlockReason::MissQueueFull)) => {}
            other => panic!("expected miss-queue block, got {other:?}"),
        }
        assert_eq!(c.stats().miss_queue_stalls, 1);
    }

    #[test]
    fn stores_write_through_without_allocating() {
        let mut c = cache();
        let now = Cycle::new(0);
        match c.access(store(1, 9), now) {
            Ok(L1AccessOutcome::StoreAccepted) => {}
            other => panic!("expected store accept, got {other:?}"),
        }
        // The store travelled to the miss queue but did not allocate a line
        // or an MSHR.
        assert_eq!(c.outstanding_misses(), 0);
        assert!(c.pop_miss().is_some());
        // A subsequent load to the same line still misses.
        match c.access(load(2, 9), now) {
            Ok(L1AccessOutcome::Miss { merged: false }) => {}
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn hit_ordering_is_by_ready_time() {
        let mut c = cache();
        // Install two lines.
        for (id, line) in [(1, 1), (2, 2)] {
            let _ = c.access(load(id, line), Cycle::new(0));
            let req = c.pop_miss().unwrap();
            c.fill(req, Cycle::new(1));
        }
        let _ = c.access(load(10, 1), Cycle::new(5));
        let _ = c.access(load(11, 2), Cycle::new(6));
        let ready = c.pop_ready_hits(Cycle::new(8));
        assert_eq!(ready.len(), 2);
        assert_eq!(ready[0].id, FetchId::new(10));
        assert_eq!(ready[1].id, FetchId::new(11));
    }

    #[test]
    fn stalled_retries_move_nothing_and_count_one_demand_miss() {
        let mut cfg = GpuConfig::gtx480();
        cfg.l1.mshr_entries = 1;
        let mut c = L1Dcache::new(&cfg);
        let _ = c.access(load(1, 1), Cycle::ZERO);
        assert_eq!(c.stats().load_misses, 1);
        // Line 2 needs the only register, held by line 1 for 50 cycles.
        let mut head = Some(load(2, 2));
        for t in 1..=50 {
            let refused = c.access_head(&mut head, Cycle::new(t));
            assert_eq!(refused, Some(Err(L1BlockReason::MshrFull)));
            assert_eq!(head.as_ref().map(|f| f.id), Some(FetchId::new(2)));
        }
        assert_eq!(c.stats().mshr_full_stalls, 50);
        assert_eq!(
            c.stats().load_misses,
            1,
            "a refused retry is not a demand miss"
        );
        let req = c.pop_miss().unwrap();
        c.fill(req, Cycle::new(51));
        let accepted = c.access_head(&mut head, Cycle::new(52));
        assert_eq!(accepted, Some(Ok(L1AccessOutcome::Miss { merged: false })));
        assert!(head.is_none(), "an accepted access leaves the retry slot");
        assert_eq!(c.stats().load_misses, 2);
        assert_eq!(c.access_head(&mut head, Cycle::new(53)), None);
    }

    /// The remembered refusal bumps its stall counter once per retry,
    /// answers only for the line it was proved for, and is dropped by each
    /// event that can falsify it: a fill (MSHR-full refusal) and a
    /// miss-queue pop (queue-full refusal), each on its own.
    #[test]
    fn remembered_refusal_counts_every_retry_and_clears_on_fill_and_on_pop_miss() {
        let mut cfg = GpuConfig::gtx480();
        cfg.l1.mshr_entries = 1;
        cfg.l1.miss_queue = 1;
        let mut c = L1Dcache::new(&cfg);
        // Line 9 resident, line 1 outstanding with its request already gone
        // down: the only register is held, the miss queue is empty.
        let _ = c.access(load(1, 9), Cycle::ZERO);
        let req = c.pop_miss().unwrap();
        c.fill(req, Cycle::new(1));
        let _ = c.access(load(2, 1), Cycle::new(2));
        let in_flight = c.pop_miss().unwrap();

        let n = 37;
        let mut head = Some(load(3, 2));
        for t in 0..n {
            let refused = c.access_head(&mut head, Cycle::new(10 + t));
            assert_eq!(refused, Some(Err(L1BlockReason::MshrFull)));
        }
        assert_eq!(c.stats().mshr_full_stalls, n);
        // Another head is decided on its own merits, not from the memo.
        let mut other = Some(load(4, 9));
        assert_eq!(
            c.access_head(&mut other, Cycle::new(50)),
            Some(Ok(L1AccessOutcome::Hit))
        );
        assert_eq!(
            c.access_head(&mut head, Cycle::new(51)),
            Some(Err(L1BlockReason::MshrFull))
        );
        assert_eq!(c.stats().mshr_full_stalls, n + 1);
        // The fill frees the register: the same head is admitted.
        c.fill(in_flight, Cycle::new(60));
        assert_eq!(
            c.access_head(&mut head, Cycle::new(61)),
            Some(Ok(L1AccessOutcome::Miss { merged: false }))
        );

        // Line 2's request now fills the one-entry miss queue; a store is
        // refused for queue space until the queue is popped.
        let mut head = Some(store(5, 7));
        for t in 0..n {
            let refused = c.access_head(&mut head, Cycle::new(70 + t));
            assert_eq!(refused, Some(Err(L1BlockReason::MissQueueFull)));
        }
        assert_eq!(c.stats().miss_queue_stalls, n);
        assert!(c.pop_miss().is_some());
        assert_eq!(
            c.access_head(&mut head, Cycle::new(120)),
            Some(Ok(L1AccessOutcome::StoreAccepted))
        );
        assert_eq!(c.stats().mshr_full_stalls, n + 1);
        assert_eq!(c.stats().miss_queue_stalls, n);
    }

    /// An owner drains the miss queue until `pop_miss` comes back empty;
    /// that last pop removes nothing, so it must not drop the refusal.
    #[test]
    fn remembered_refusal_survives_an_empty_pop_miss_and_clears_on_a_real_one() {
        let mut cfg = GpuConfig::gtx480();
        cfg.l1.mshr_entries = 1;
        let mut c = L1Dcache::new(&cfg);
        let _ = c.access(load(1, 1), Cycle::ZERO);
        assert!(c.pop_miss().is_some());
        let mut head = Some(load(2, 2));
        let refused = Some((AccessKind::Load, LineAddr::new(2), L1BlockReason::MshrFull));
        assert_eq!(
            c.access_head(&mut head, Cycle::new(1)),
            Some(Err(L1BlockReason::MshrFull))
        );
        assert_eq!(c.refused, refused);
        assert!(c.pop_miss().is_none());
        assert_eq!(c.refused, refused, "an empty pop wrote nothing");

        // A store takes the queue but no register; the load is refused
        // again, and popping the store drops the memo.
        let _ = c.access(store(3, 7), Cycle::new(2));
        assert_eq!(
            c.access_head(&mut head, Cycle::new(3)),
            Some(Err(L1BlockReason::MshrFull))
        );
        assert_eq!(c.refused, refused);
        assert!(c.pop_miss().is_some());
        assert_eq!(c.refused, None);
    }

    #[test]
    fn stats_miss_rate() {
        let mut c = cache();
        let _ = c.access(load(1, 1), Cycle::new(0));
        let req = c.pop_miss().unwrap();
        c.fill(req, Cycle::new(1));
        let _ = c.access(load(2, 1), Cycle::new(2));
        assert_eq!(c.stats().miss_rate(), 0.5);
        assert_eq!(L1Stats::default().miss_rate(), 0.0);
    }
}
