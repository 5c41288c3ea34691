//! Unit-level tests of the memory partition driven through real crossbars.

use gpumem_config::GpuConfig;
use gpumem_noc::{Crossbar, Packet};
use gpumem_sim::MemoryPartition;
use gpumem_types::{AccessKind, CoreId, Cycle, FetchId, LineAddr, MemFetch, PartitionId};

struct Rig {
    part: MemoryPartition,
    req: Crossbar,
    resp: Crossbar,
    now: Cycle,
    cfg: GpuConfig,
    outbox: std::collections::VecDeque<MemFetch>,
}

impl Rig {
    fn new(mut mutate: impl FnMut(&mut GpuConfig)) -> Rig {
        let mut cfg = GpuConfig::gtx480();
        cfg.num_partitions = 1;
        cfg.num_cores = 2;
        mutate(&mut cfg);
        Rig {
            part: MemoryPartition::new(PartitionId::new(0), &cfg),
            req: Crossbar::new(cfg.num_cores, 1, &cfg.noc),
            resp: Crossbar::new(1, cfg.num_cores, &cfg.noc),
            now: Cycle::ZERO,
            cfg,
            outbox: Default::default(),
        }
    }

    fn send(&mut self, fetch: MemFetch) {
        self.outbox.push_back(fetch);
    }

    fn pump_outbox(&mut self) {
        while self.outbox.front().is_some() && self.req.can_inject(0) {
            let fetch = self.outbox.pop_front().expect("peeked");
            let bytes = fetch.request_bytes(self.cfg.line_bytes);
            let pkt = Packet::new(fetch, 0, bytes, self.cfg.noc.flit_bytes);
            self.req.try_inject(0, pkt).expect("can_inject checked");
        }
    }

    /// Advances until `n` responses arrive or `budget` cycles pass;
    /// returns the responses.
    fn run_until(&mut self, n: usize, budget: u64) -> Vec<MemFetch> {
        let mut got = Vec::new();
        for _ in 0..budget {
            self.pump_outbox();
            self.part
                .cycle(self.now, &mut self.req, &mut self.resp)
                .unwrap();
            self.req.tick(self.now).unwrap();
            self.resp.tick(self.now).unwrap();
            self.part.observe();
            for c in 0..self.cfg.num_cores {
                while let Some(pkt) = self.resp.pop_ejected(c) {
                    got.push(pkt.fetch);
                }
            }
            self.now = self.now.next();
            if got.len() >= n {
                break;
            }
        }
        got
    }

    fn drain(&mut self, budget: u64) -> Vec<MemFetch> {
        let mut got = Vec::new();
        for _ in 0..budget {
            self.pump_outbox();
            self.part
                .cycle(self.now, &mut self.req, &mut self.resp)
                .unwrap();
            self.req.tick(self.now).unwrap();
            self.resp.tick(self.now).unwrap();
            for c in 0..self.cfg.num_cores {
                while let Some(pkt) = self.resp.pop_ejected(c) {
                    got.push(pkt.fetch);
                }
            }
            self.now = self.now.next();
            if self.outbox.is_empty()
                && self.part.is_idle()
                && self.req.is_idle()
                && self.resp.is_idle()
            {
                break;
            }
        }
        got
    }
}

fn load(id: u64, line: u64, core: u32) -> MemFetch {
    let mut f = MemFetch::new(
        FetchId::new(id),
        AccessKind::Load,
        LineAddr::new(line),
        CoreId::new(core),
    );
    f.partition = Some(PartitionId::new(0));
    f
}

fn store(id: u64, line: u64) -> MemFetch {
    let mut f = MemFetch::new(
        FetchId::new(id),
        AccessKind::Store,
        LineAddr::new(line),
        CoreId::new(0),
    );
    f.partition = Some(PartitionId::new(0));
    f
}

#[test]
fn load_misses_then_hits() {
    let mut rig = Rig::new(|_| {});
    rig.send(load(1, 0, 0));
    let first = rig.run_until(1, 10_000);
    assert_eq!(first.len(), 1);
    assert_eq!(rig.part.stats().misses, 1);
    assert_eq!(rig.part.stats().fills, 1);

    // Same line again: L2 hit this time.
    rig.send(load(2, 0, 1));
    let second = rig.run_until(1, 10_000);
    assert_eq!(second.len(), 1);
    assert_eq!(second[0].core, CoreId::new(1));
    assert_eq!(rig.part.stats().load_hits, 1);
}

#[test]
fn concurrent_misses_to_one_line_merge() {
    let mut rig = Rig::new(|_| {});
    rig.send(load(1, 0, 0));
    rig.send(load(2, 0, 1));
    let got = rig.run_until(2, 20_000);
    assert_eq!(got.len(), 2);
    assert_eq!(rig.part.stats().misses, 1, "second access must merge");
    assert_eq!(rig.part.stats().merged_misses, 1);
    assert_eq!(rig.part.dram().stats().reads, 1, "one DRAM fetch only");
}

#[test]
fn store_miss_write_allocates_and_dirty_eviction_writes_back() {
    // One-set L2 (1 bank × 1 set via sets_per_partition=1... smallest
    // legal: banks=1, sets=1, assoc=1) so a second line evicts the first.
    let mut rig = Rig::new(|cfg| {
        cfg.l2.banks_per_partition = 1;
        cfg.l2.sets_per_partition = 1;
        cfg.l2.assoc = 1;
    });
    // Store to line 0: write-allocate (DRAM read, no response).
    rig.send(store(1, 0));
    rig.drain(20_000);
    assert_eq!(rig.part.dram().stats().reads, 1);
    assert_eq!(rig.part.stats().writebacks, 0);

    // Load to a different line mapping to the same set: evicts dirty line
    // 0 → writeback to DRAM.
    rig.send(load(2, 1, 0));
    let got = rig.drain(20_000);
    assert_eq!(got.len(), 1);
    assert_eq!(rig.part.stats().writebacks, 1);
    assert_eq!(rig.part.dram().stats().writes, 1);
}

#[test]
fn store_hit_marks_dirty_without_response() {
    let mut rig = Rig::new(|_| {});
    rig.send(load(1, 0, 0)); // install the line
    rig.run_until(1, 20_000);
    rig.send(store(2, 0)); // hit
    let got = rig.drain(20_000);
    assert!(got.is_empty(), "stores produce no responses");
    assert_eq!(rig.part.stats().store_hits, 1);
}

#[test]
fn bank_conflicts_are_counted() {
    // Two hits to lines in the same bank back to back: the second stalls
    // on the bank's initiation interval.
    let mut rig = Rig::new(|_| {});
    let banks = rig.cfg.l2.banks_per_partition as u64;
    // Same bank: local line stride of `banks` (num_partitions == 1).
    rig.send(load(1, 0, 0));
    rig.send(load(2, banks * 64, 0));
    rig.drain(20_000);
    // Re-request both (now L2 hits) in the same cycle window.
    rig.send(load(3, 0, 0));
    rig.send(load(4, banks * 64, 1));
    rig.drain(20_000);
    assert!(
        rig.part.stats().stall_bank_busy > 0,
        "expected bank-conflict stalls"
    );
}

#[test]
fn partition_reports_queue_stats() {
    let mut rig = Rig::new(|_| {});
    for i in 0..20 {
        rig.send(load(i, i * 97, (i % 2) as u32));
    }
    rig.drain(100_000);
    assert!(rig.part.access_queue_stats().pushes >= 20);
    assert_eq!(
        rig.part.access_queue_stats().pushes,
        rig.part.access_queue_stats().pops
    );
    assert!(rig.part.miss_queue_stats().pushes > 0);
    assert!(rig.part.is_idle());
}

#[test]
fn scaled_l2_has_more_banks_and_still_functions() {
    let mut rig = Rig::new(|cfg| {
        let scaled = gpumem_config::DesignPoint::L2_ONLY.apply(cfg);
        *cfg = scaled;
        cfg.num_partitions = 1;
        cfg.num_cores = 2;
    });
    for i in 0..16 {
        rig.send(load(i, i * 113, (i % 2) as u32));
    }
    let got = rig.drain(100_000);
    assert_eq!(got.len(), 16);
}
