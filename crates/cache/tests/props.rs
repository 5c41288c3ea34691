//! Property tests for the cache substrate.

#![expect(clippy::disallowed_types, reason = "test harness")]

use std::collections::{HashMap, HashSet};

use gpumem_cache::{L1AccessOutcome, L1Dcache, MshrTable, ReplacementOutcome, TagArray};
use gpumem_config::GpuConfig;
use gpumem_types::{AccessKind, CoreId, Cycle, FetchId, LineAddr, MemFetch};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum TagOp {
    Access(u64),
    Fill(u64),
    Dirty(u64),
    Invalidate(u64),
}

fn tag_ops() -> impl Strategy<Value = Vec<TagOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..64).prop_map(TagOp::Access),
            (0u64..64).prop_map(TagOp::Fill),
            (0u64..64).prop_map(TagOp::Dirty),
            (0u64..64).prop_map(TagOp::Invalidate),
        ],
        0..300,
    )
}

proptest! {
    /// Tag-array invariants: no duplicate tags within a set, valid lines
    /// never exceed capacity, and a line reported resident really was
    /// filled and not yet evicted (tracked by a model set).
    #[test]
    fn tag_array_consistency(sets_log in 0u32..4, assoc in 1usize..8, ops in tag_ops()) {
        let sets = 1usize << sets_log;
        let mut tags = TagArray::new(sets, assoc);
        let mut resident: HashSet<u64> = HashSet::new();
        let mut now = Cycle::ZERO;
        for op in ops {
            now = now.next();
            match op {
                TagOp::Access(l) => {
                    let set = (l % sets as u64) as usize;
                    let hit = tags.access(set, LineAddr::new(l), now);
                    prop_assert_eq!(hit, resident.contains(&l), "line {}", l);
                }
                TagOp::Fill(l) => {
                    let set = (l % sets as u64) as usize;
                    match tags.fill(set, LineAddr::new(l), now) {
                        ReplacementOutcome::Evicted(e) => {
                            prop_assert!(resident.remove(&e.line.index()));
                        }
                        ReplacementOutcome::FilledFree => {}
                        ReplacementOutcome::AlreadyPresent => {
                            prop_assert!(resident.contains(&l));
                        }
                    }
                    resident.insert(l);
                }
                TagOp::Dirty(l) => {
                    let set = (l % sets as u64) as usize;
                    let marked = tags.mark_dirty(set, LineAddr::new(l));
                    prop_assert_eq!(marked, resident.contains(&l));
                }
                TagOp::Invalidate(l) => {
                    let set = (l % sets as u64) as usize;
                    let evicted = tags.invalidate(set, LineAddr::new(l));
                    prop_assert_eq!(evicted.is_some(), resident.remove(&l));
                }
            }
            prop_assert!(tags.valid_lines() <= sets * assoc);
            prop_assert_eq!(tags.valid_lines(), resident.len());
            for set in 0..sets {
                let mut seen = HashSet::new();
                for line in tags.lines_in_set(set) {
                    prop_assert!(seen.insert(line), "duplicate tag {line}");
                    prop_assert_eq!((line.index() % sets as u64) as usize, set);
                }
            }
        }
    }

    /// MSHR: waiters are conserved — everything allocated is returned by
    /// exactly one complete() — and capacities are enforced.
    #[test]
    fn mshr_conserves_waiters(
        entries in 1usize..8,
        merge in 1usize..6,
        ops in prop::collection::vec((0u64..16, any::<bool>()), 0..200),
    ) {
        let mut mshr: MshrTable<u64> = MshrTable::new(entries, merge);
        let mut model: HashMap<u64, Vec<u64>> = HashMap::new();
        let mut next_waiter = 0u64;
        let mut allocated: u64 = 0;
        let mut returned: u64 = 0;
        for (line, complete) in ops {
            let addr = LineAddr::new(line);
            if complete {
                let got = mshr.complete(addr);
                let expect = model.remove(&line).unwrap_or_default();
                prop_assert_eq!(got, &expect[..]);
                returned += got.len() as u64;
            } else {
                let can = mshr.can_accept(addr);
                let res = mshr.allocate(addr, next_waiter);
                prop_assert_eq!(can, res.is_ok());
                if res.is_ok() {
                    model.entry(line).or_default().push(next_waiter);
                    allocated += 1;
                    next_waiter += 1;
                }
            }
            prop_assert!(mshr.len() <= entries);
            prop_assert_eq!(mshr.len(), model.len());
        }
        for (line, expect) in model {
            let got = mshr.complete(LineAddr::new(line));
            prop_assert_eq!(got, &expect[..]);
            returned += got.len() as u64;
        }
        prop_assert_eq!(allocated, returned);
        prop_assert!(mshr.is_empty());
    }

    /// L1 controller: every accepted load eventually completes exactly
    /// once when the memory below responds to every request.
    #[test]
    fn l1_loads_complete_exactly_once(
        lines in prop::collection::vec(0u64..40, 1..80),
        stores in prop::collection::vec(any::<bool>(), 1..80),
    ) {
        let mut cfg = GpuConfig::gtx480();
        cfg.l1.hit_latency = 2;
        let mut l1 = L1Dcache::new(&cfg);
        let mut now = Cycle::ZERO;
        let mut accepted_loads = 0u64;
        let mut completed = 0u64;
        let mut inflight: Vec<MemFetch> = Vec::new();

        for (i, &line) in lines.iter().enumerate() {
            let id = i as u64;
            now += 1;
            let kind = if stores[i % stores.len()] {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let fetch = MemFetch::new(FetchId::new(id), kind, LineAddr::new(line), CoreId::new(0));
            match l1.access(fetch, now) {
                Ok(L1AccessOutcome::Hit | L1AccessOutcome::Miss { .. }) => {
                    if kind == AccessKind::Load {
                        accepted_loads += 1;
                    }
                }
                Ok(L1AccessOutcome::StoreAccepted) => {}
                Err(_) => {
                    // Drain the miss queue and respond to make progress.
                }
            }
            while let Some(req) = l1.pop_miss() {
                if req.kind == AccessKind::Load {
                    inflight.push(req);
                }
            }
            // Respond to one outstanding request per step.
            if let Some(req) = inflight.pop() {
                now += 1;
                completed += l1.fill(req, now).len() as u64;
            }
            completed += l1.pop_ready_hits(now).len() as u64;
        }
        // Drain everything left.
        for req in inflight {
            now += 1;
            completed += l1.fill(req, now).len() as u64;
        }
        now += 100;
        completed += l1.pop_ready_hits(now).len() as u64;
        prop_assert_eq!(completed, accepted_loads);
        prop_assert_eq!(l1.outstanding_misses(), 0);
    }
}
