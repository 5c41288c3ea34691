//! Deterministic fault injection ("chaos") for robustness testing.
//!
//! A [`ChaosConfig`] describes a seeded schedule of transient faults —
//! crossbar port holds, in-queue reorderings, MSHR stalls, DRAM bank
//! lockouts — plus one *guaranteed* fault for self-tests: a permanent
//! wedge of the response network. The [`ChaosEngine`] expands the config
//! into per-cycle fault events using forked [`SimRng`] streams, so the
//! same seed always produces a bit-identical injection schedule.
//!
//! Faults model *slow* hardware, never *wrong* hardware: every injected
//! condition is one the timing model can already express (a port that
//! exerts backpressure, a full MSHR table, a busy DRAM channel), so a
//! correct simulator must absorb any schedule and still conserve every
//! request — or fail loudly with a typed error / watchdog wedge diagnosis.

use gpumem_noc::IngressPort;
use gpumem_types::{Cycle, SimRng};

use crate::MemoryPartition;

/// A seeded, deterministic fault-injection schedule.
///
/// All `*_interval` fields are mean gaps in cycles between fault events of
/// that kind; `0` disables the kind. Durations are in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ChaosConfig {
    /// Root seed; every fault stream is forked from it.
    pub seed: u64,
    /// Mean cycles between transient crossbar-port holds (0 = off).
    pub port_delay_interval: u64,
    /// Cycles a held port stays frozen.
    pub port_delay_duration: u64,
    /// Mean cycles between head-of-queue rotations on an ingress port
    /// (drop-and-reinject: the head packet re-enters at the tail; 0 = off).
    pub drop_reinject_interval: u64,
    /// Mean cycles between transient MSHR stalls in a partition (0 = off).
    pub mshr_stall_interval: u64,
    /// Cycles a chaos-stalled MSHR table refuses the miss path.
    pub mshr_stall_duration: u64,
    /// Mean cycles between DRAM channel lockouts (0 = off).
    pub dram_lockout_interval: u64,
    /// Cycles a locked-out DRAM channel refuses new requests.
    pub dram_lockout_duration: u64,
    /// Permanently wedge the response network at this cycle (watchdog
    /// self-test fixture; the run can then only end via the watchdog).
    pub wedge_at: Option<u64>,
}

impl ChaosConfig {
    /// A config with every fault disabled (the identity schedule).
    pub fn disabled(seed: u64) -> Self {
        ChaosConfig {
            seed,
            port_delay_interval: 0,
            port_delay_duration: 0,
            drop_reinject_interval: 0,
            mshr_stall_interval: 0,
            mshr_stall_duration: 0,
            dram_lockout_interval: 0,
            dram_lockout_duration: 0,
            wedge_at: None,
        }
    }

    /// The standard chaos mix used by `repro chaos` sweeps: every
    /// transient fault kind on, at staggered prime intervals so the
    /// streams never phase-lock.
    pub fn standard(seed: u64) -> Self {
        ChaosConfig {
            seed,
            port_delay_interval: 97,
            port_delay_duration: 24,
            drop_reinject_interval: 131,
            mshr_stall_interval: 181,
            mshr_stall_duration: 40,
            dram_lockout_interval: 223,
            dram_lockout_duration: 64,
            wedge_at: None,
        }
    }

    /// True when any fault (transient or guaranteed) is enabled.
    pub fn any_fault_enabled(&self) -> bool {
        self.port_delay_interval > 0
            || self.drop_reinject_interval > 0
            || self.mshr_stall_interval > 0
            || self.dram_lockout_interval > 0
            || self.wedge_at.is_some()
    }
}

/// One kind of fault's event stream: a forked RNG producing a renewal
/// process of fire times with the configured mean gap.
#[derive(Debug, Clone)]
struct EventStream {
    rng: SimRng,
    interval: u64,
    next_at: u64,
}

impl EventStream {
    fn new(root: &SimRng, stream: u64, interval: u64) -> Self {
        let mut rng = root.fork(stream);
        let next_at = if interval == 0 {
            u64::MAX
        } else {
            gap(&mut rng, interval)
        };
        EventStream {
            rng,
            interval,
            next_at,
        }
    }

    /// Number of events due at `now`.
    fn fires(&mut self, now: u64) -> u32 {
        let mut n = 0;
        while self.interval > 0 && self.next_at <= now {
            n += 1;
            self.next_at = self
                .next_at
                .saturating_add(gap(&mut self.rng, self.interval));
        }
        n
    }
}

/// Gap with mean ≈ `interval`: uniform in `[1, 2*interval]`.
fn gap(rng: &mut SimRng, interval: u64) -> u64 {
    1 + rng.gen_range(2 * interval)
}

/// Expands a [`ChaosConfig`] into concrete per-cycle fault applications.
///
/// [`GpuSimulator::step`](crate::GpuSimulator::step) calls
/// [`apply`](ChaosEngine::apply) at the start of every stepped cycle,
/// handing over the machine's chaos touch-points in global port/partition
/// order; a jumping run stops at [`next_fire`](ChaosEngine::next_fire).
#[derive(Debug, Clone)]
pub(crate) struct ChaosEngine {
    config: ChaosConfig,
    port_delay: EventStream,
    drop_reinject: EventStream,
    mshr_stall: EventStream,
    dram_lockout: EventStream,
    /// Target selection, separate from timing so adding a fault kind never
    /// shifts another kind's schedule.
    pick: SimRng,
    wedge_applied: bool,
}

impl ChaosEngine {
    pub(crate) fn new(config: ChaosConfig) -> Self {
        let root = SimRng::new(config.seed);
        ChaosEngine {
            port_delay: EventStream::new(&root, 1, config.port_delay_interval),
            drop_reinject: EventStream::new(&root, 2, config.drop_reinject_interval),
            mshr_stall: EventStream::new(&root, 3, config.mshr_stall_interval),
            dram_lockout: EventStream::new(&root, 4, config.dram_lockout_interval),
            pick: root.fork(5),
            config,
            wedge_applied: false,
        }
    }

    /// The earliest cycle at which [`apply`](ChaosEngine::apply) injects
    /// anything: the next fire of an enabled stream, or the wedge while it
    /// is pending. A jumping run never crosses it, so every fault lands on
    /// the cycle it would land on under per-cycle stepping.
    pub(crate) fn next_fire(&self) -> Option<Cycle> {
        let wedge = self.config.wedge_at.filter(|_| !self.wedge_applied);
        [
            &self.port_delay,
            &self.drop_reinject,
            &self.mshr_stall,
            &self.dram_lockout,
        ]
        .into_iter()
        .filter(|s| s.interval > 0)
        .map(|s| s.next_at)
        .chain(wedge)
        .min()
        .map(Cycle::new)
    }

    /// Applies every fault due at `now`. `req_ins` / `resp_ins` are the
    /// ingress ports of the request and response crossbars and `parts` the
    /// memory partitions, each in global index order.
    pub(crate) fn apply(
        &mut self,
        now: Cycle,
        req_ins: &mut [IngressPort],
        resp_ins: &mut [IngressPort],
        parts: &mut [MemoryPartition],
    ) {
        let t = now.raw();
        if let Some(w) = self.config.wedge_at {
            if t >= w && !self.wedge_applied {
                // Permanently freeze the whole response network: requests
                // keep flowing downstream, responses never come back — the
                // canonical wedge the watchdog must diagnose.
                for port in resp_ins.iter_mut() {
                    port.chaos_hold(Cycle::NEVER);
                }
                self.wedge_applied = true;
            }
        }
        let total_ports = req_ins.len() + resp_ins.len();
        if total_ports > 0 {
            for _ in 0..self.port_delay.fires(t) {
                let idx = self.pick.gen_range(total_ports as u64) as usize;
                let until = now + self.config.port_delay_duration;
                if idx < req_ins.len() {
                    req_ins[idx].chaos_hold(until);
                } else {
                    resp_ins[idx - req_ins.len()].chaos_hold(until);
                }
            }
            for _ in 0..self.drop_reinject.fires(t) {
                let idx = self.pick.gen_range(total_ports as u64) as usize;
                if idx < req_ins.len() {
                    req_ins[idx].chaos_rotate_head();
                } else {
                    resp_ins[idx - req_ins.len()].chaos_rotate_head();
                }
            }
        }
        if !parts.is_empty() {
            for _ in 0..self.mshr_stall.fires(t) {
                let idx = self.pick.gen_range(parts.len() as u64) as usize;
                parts[idx].chaos_stall_mshr(now + self.config.mshr_stall_duration);
            }
            for _ in 0..self.dram_lockout.fires(t) {
                let idx = self.pick.gen_range(parts.len() as u64) as usize;
                parts[idx].chaos_lock_dram(now + self.config.dram_lockout_duration);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains the timing streams only (no machine handles needed) and
    /// records which cycles fired which kinds.
    fn schedule_of(cfg: ChaosConfig, cycles: u64) -> Vec<(u64, u32, u32, u32, u32)> {
        let mut e = ChaosEngine::new(cfg);
        let mut events = Vec::new();
        for t in 0..cycles {
            let a = e.port_delay.fires(t);
            let b = e.drop_reinject.fires(t);
            let c = e.mshr_stall.fires(t);
            let d = e.dram_lockout.fires(t);
            if a + b + c + d > 0 {
                events.push((t, a, b, c, d));
            }
        }
        events
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = schedule_of(ChaosConfig::standard(42), 10_000);
        let b = schedule_of(ChaosConfig::standard(42), 10_000);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "standard mix must fire within 10k cycles");
    }

    #[test]
    fn different_seeds_diverge() {
        let a = schedule_of(ChaosConfig::standard(1), 10_000);
        let b = schedule_of(ChaosConfig::standard(2), 10_000);
        assert_ne!(a, b);
    }

    #[test]
    fn disabled_config_fires_nothing() {
        assert!(!ChaosConfig::disabled(7).any_fault_enabled());
        assert!(schedule_of(ChaosConfig::disabled(7), 50_000).is_empty());
    }

    #[test]
    fn intervals_gate_individual_streams() {
        let mut cfg = ChaosConfig::disabled(9);
        cfg.mshr_stall_interval = 50;
        cfg.mshr_stall_duration = 10;
        assert!(cfg.any_fault_enabled());
        let events = schedule_of(cfg, 5_000);
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .all(|&(_, a, b, _, d)| a == 0 && b == 0 && d == 0));
    }

    #[test]
    fn mean_gap_is_near_the_interval() {
        let mut rng = SimRng::new(3);
        let n = 10_000u64;
        let total: u64 = (0..n).map(|_| gap(&mut rng, 100)).sum();
        let mean = total as f64 / n as f64;
        assert!((90.0..=112.0).contains(&mean), "mean gap {mean}");
    }
}
