//! Property tests for the foundational types.

use gpumem_types::{LatencyStats, QueueStats, SimQueue, SimRng};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum QueueOp {
    Push(u32),
    Pop,
    Observe,
    ObserveMany(u64),
    RemoveFirstEven,
}

fn queue_ops() -> impl Strategy<Value = Vec<QueueOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u32..1000).prop_map(QueueOp::Push),
            Just(QueueOp::Pop),
            Just(QueueOp::Observe),
            (0u64..50).prop_map(QueueOp::ObserveMany),
            Just(QueueOp::RemoveFirstEven),
        ],
        0..200,
    )
}

proptest! {
    /// SimQueue behaves exactly like a capacity-checked VecDeque, and its
    /// event-counted statistics — read after every operation, rejected
    /// pushes included — equal an eager model that samples the occupancy
    /// at each observed cycle.
    #[test]
    fn queue_matches_model(cap in 1usize..16, ops in queue_ops()) {
        let mut q = SimQueue::new("prop", cap);
        let mut model: std::collections::VecDeque<u32> = Default::default();
        let mut stats = QueueStats::default();
        let observe = |stats: &mut QueueStats, len: usize| {
            stats.ticks += 1;
            stats.occupancy_sum += len as u64;
            stats.ticks_nonempty += u64::from(len > 0);
            stats.ticks_full += u64::from(len >= cap);
        };
        for op in ops {
            match op {
                QueueOp::Push(v) => {
                    let expect_ok = model.len() < cap;
                    let got = q.push(v);
                    prop_assert_eq!(expect_ok, got.is_ok());
                    if expect_ok {
                        model.push_back(v);
                        stats.pushes += 1;
                    } else {
                        stats.rejected += 1;
                    }
                }
                QueueOp::Pop => {
                    stats.pops += u64::from(!model.is_empty());
                    prop_assert_eq!(q.pop(), model.pop_front());
                }
                QueueOp::Observe => {
                    q.observe();
                    observe(&mut stats, model.len());
                }
                QueueOp::ObserveMany(n) => {
                    q.observe_many(n);
                    for _ in 0..n {
                        observe(&mut stats, model.len());
                    }
                }
                QueueOp::RemoveFirstEven => {
                    let pos = model.iter().position(|x| x % 2 == 0);
                    let got = pos.and_then(|i| q.remove_at(i));
                    let expect = pos.and_then(|i| model.remove(i));
                    stats.pops += u64::from(expect.is_some());
                    prop_assert_eq!(got, expect);
                }
            }
            prop_assert_eq!(q.stats(), stats);
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.front(), model.front());
            prop_assert_eq!(q.is_full(), model.len() >= cap);
        }
        let drained: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        let expected: Vec<u32> = model.into_iter().collect();
        prop_assert_eq!(drained, expected);
    }

    /// Occupancy statistics obey full ≤ nonempty ≤ ticks and the mean is
    /// bounded by the capacity.
    #[test]
    fn queue_stats_invariants(cap in 1usize..8, ops in queue_ops()) {
        let mut q = SimQueue::new("prop", cap);
        for op in ops {
            match op {
                QueueOp::Push(v) => { let _ = q.push(v); }
                QueueOp::Pop => { q.pop(); }
                QueueOp::Observe => q.observe(),
                QueueOp::ObserveMany(n) => q.observe_many(n),
                QueueOp::RemoveFirstEven => {
                    let pos = q.iter().position(|x| x % 2 == 0);
                    pos.and_then(|i| q.remove_at(i));
                }
            }
        }
        let s = q.stats();
        prop_assert!(s.ticks_full <= s.ticks_nonempty);
        prop_assert!(s.ticks_nonempty <= s.ticks);
        prop_assert!(s.mean_occupancy() <= cap as f64);
        prop_assert!(s.pops <= s.pushes);
        let f = s.full_fraction_of_usage();
        prop_assert!((0.0..=1.0).contains(&f));
    }

    /// LatencyStats mean lies between min and max; merging equals pooling.
    #[test]
    fn latency_merge_equals_pooling(
        a in prop::collection::vec(0u64..100_000, 0..50),
        b in prop::collection::vec(0u64..100_000, 0..50),
    ) {
        let mut sa = LatencyStats::new();
        for &x in &a { sa.record(x); }
        let mut sb = LatencyStats::new();
        for &x in &b { sb.record(x); }
        let mut merged = sa;
        merged.merge(&sb);

        let mut pooled = LatencyStats::new();
        for &x in a.iter().chain(&b) { pooled.record(x); }
        prop_assert_eq!(merged.count(), pooled.count());
        prop_assert_eq!(merged.sum(), pooled.sum());
        prop_assert_eq!(merged.min(), pooled.min());
        prop_assert_eq!(merged.max(), pooled.max());
        if merged.count() > 0 {
            prop_assert!(merged.min().unwrap() as f64 <= merged.mean());
            prop_assert!(merged.mean() <= merged.max().unwrap() as f64);
        }
    }

    /// The RNG is deterministic per seed, fork streams are stable, and
    /// gen_range respects bounds.
    #[test]
    fn rng_properties(seed in any::<u64>(), stream in any::<u64>(), bound in 1u64..1_000_000) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut f1 = SimRng::new(seed).fork(stream);
        let mut f2 = SimRng::new(seed).fork(stream);
        prop_assert_eq!(f1.next_u64(), f2.next_u64());
        for _ in 0..32 {
            prop_assert!(a.gen_range(bound) < bound);
        }
    }
}
