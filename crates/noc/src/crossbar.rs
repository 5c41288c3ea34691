//! The wormhole crossbar.
//!
//! A [`Crossbar`] is per-port state plus a central arbiter:
//!
//! * [`IngressPort`] — one bounded input buffer. Written only by the
//!   component that injects on it (core `c` on the request network,
//!   partition `p` on the response network).
//! * [`EgressPort`] — one output's streaming/in-flight/ejection state.
//!   Popped only by the component that drains it.
//! * The private fabric — the arbitration logic and shared counters;
//!   [`Crossbar::tick`] is the single point that reads and writes
//!   *across* ports.
//!
//! The port types are public because a memory partition's cycle borrows
//! exactly its two ports ([`Crossbar::egress_mut`] on the request network,
//! [`Crossbar::ingress_mut`] on the response network).

use std::collections::VecDeque;

use gpumem_config::{NocConfig, MAX_MASK_WIDTH};
use gpumem_types::{Cycle, MemFetch, QueueStats, SimError, SimQueue};

use crate::Packet;

/// Aggregate activity counters for a [`Crossbar`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CrossbarStats {
    /// Packets accepted at input ports.
    pub packets_injected: u64,
    /// Packets handed to receivers at ejection ports.
    pub packets_ejected: u64,
    /// Flits moved through outputs.
    pub flits_transferred: u64,
    /// Output-cycles spent streaming (for utilization: divide by
    /// `outputs × cycles`).
    pub output_busy_cycles: u64,
    /// Cycles an output had a packet ready but no ejection credit
    /// (backpressure from the receiver).
    pub credit_stall_cycles: u64,
}

impl CrossbarStats {
    /// Accumulates another crossbar's counters.
    pub fn merge(&mut self, other: &CrossbarStats) {
        self.packets_injected += other.packets_injected;
        self.packets_ejected += other.packets_ejected;
        self.flits_transferred += other.flits_transferred;
        self.output_busy_cycles += other.output_busy_cycles;
        self.credit_stall_cycles += other.credit_stall_cycles;
    }
}

/// One bounded input buffer of the crossbar (injection-side state only).
#[derive(Debug)]
pub struct IngressPort {
    queue: SimQueue<Packet>,
    /// Number of outputs on the fabric this port belongs to (for
    /// destination validation at injection time).
    dest_limit: usize,
    /// Packets accepted on this port (merged into
    /// [`CrossbarStats::packets_injected`]).
    injected: u64,
    /// Destination of the head packet, mirrored out of the ring buffer
    /// (`usize::MAX` when empty) so per-cycle arbitration compares one
    /// word per port instead of dereferencing the queue front for every
    /// input × output pair. Maintained by both head mutations
    /// (`try_inject` into an empty queue and the arbitration pop).
    head_dest: usize,
}

impl IngressPort {
    fn new(cfg: &NocConfig, dest_limit: usize) -> Self {
        IngressPort {
            queue: SimQueue::new("noc_input", cfg.input_buffer_pkts),
            dest_limit,
            injected: 0,
            head_dest: usize::MAX,
        }
    }

    /// Re-derives the mirrored head destination from the queue front.
    fn refresh_head(&mut self) {
        self.head_dest = self.queue.front().map_or(usize::MAX, |p| p.dest);
    }

    /// True if this port can accept a packet this cycle.
    pub fn can_inject(&self) -> bool {
        !self.queue.is_full()
    }

    /// Offers `packet` to this input buffer.
    ///
    /// # Errors
    ///
    /// Hands the packet back if the buffer is full.
    ///
    /// # Panics
    ///
    /// Panics if the packet's destination is out of range.
    #[expect(
        clippy::result_large_err,
        reason = "the rejected packet is handed back by design"
    )]
    pub fn try_inject(&mut self, packet: Packet) -> Result<(), Packet> {
        assert!(packet.dest < self.dest_limit, "destination out of range");
        let dest = packet.dest;
        match self.queue.push(packet) {
            Ok(()) => {
                self.injected += 1;
                if self.queue.len() == 1 {
                    self.head_dest = dest;
                }
                Ok(())
            }
            Err(e) => Err(e.into_inner()),
        }
    }

    /// Queued packets.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when the buffer holds no packet.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Per-cycle occupancy bookkeeping.
    pub fn observe(&mut self) {
        self.queue.observe();
    }

    /// Batch bookkeeping for `cycles` quiescent cycles.
    pub fn observe_many(&mut self, cycles: u64) {
        self.queue.observe_many(cycles);
    }

    /// Occupancy statistics of this input buffer.
    pub(crate) fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }
}

/// One output's worth of crossbar state: the packet being streamed, the
/// hop pipeline, and the bounded ejection queue the receiver drains
/// (ejection-side state only).
#[derive(Debug)]
pub struct EgressPort {
    /// Packet currently being streamed and its remaining flits.
    streaming: Option<(Packet, u64)>,
    /// Round-robin pointer over inputs.
    rr: usize,
    /// Packets that finished streaming and are traversing the pipeline
    /// (FIFO per output; arrivals are naturally ordered).
    in_flight: VecDeque<(Cycle, Packet)>,
    /// Delivered packets awaiting the receiver.
    ejection: SimQueue<Packet>,
    /// Free slots the output may still claim in its ejection queue
    /// (ejection capacity minus queued, streaming and in-flight packets).
    credits: usize,
    /// Packets popped from this port (merged into
    /// [`CrossbarStats::packets_ejected`]).
    ejected: u64,
}

impl EgressPort {
    fn new(cfg: &NocConfig) -> Self {
        EgressPort {
            streaming: None,
            rr: 0,
            in_flight: VecDeque::new(),
            ejection: SimQueue::new("noc_ejection", cfg.ejection_queue),
            credits: cfg.ejection_queue,
            ejected: 0,
        }
    }

    /// Takes a delivered packet, if any.
    pub fn pop_ejected(&mut self) -> Option<Packet> {
        let pkt = self.ejection.pop();
        if pkt.is_some() {
            self.credits += 1;
            self.ejected += 1;
        }
        pkt
    }

    /// Peeks the next deliverable packet.
    pub fn peek_ejected(&self) -> Option<&Packet> {
        self.ejection.front()
    }

    /// True when nothing is streaming, in flight, or awaiting ejection.
    pub fn is_idle(&self) -> bool {
        self.streaming.is_none() && self.in_flight.is_empty() && self.ejection.is_empty()
    }

    /// Packets currently inside this output's pipeline.
    pub fn packets(&self) -> usize {
        usize::from(self.streaming.is_some()) + self.in_flight.len() + self.ejection.len()
    }

    /// Per-cycle occupancy bookkeeping.
    pub fn observe(&mut self) {
        self.ejection.observe();
    }

    /// Batch bookkeeping for `cycles` quiescent cycles.
    pub fn observe_many(&mut self, cycles: u64) {
        self.ejection.observe_many(cycles);
    }
}

/// The arbitration core of a crossbar: hop latency, streaming bandwidth
/// and the counters that are inherently cross-port.
#[derive(Debug)]
struct CrossbarFabric {
    /// Set for good by [`Crossbar::freeze_inputs`]: no input requests an
    /// output, so no packet leaves an input buffer again.
    frozen: bool,
    hop_latency: u64,
    flits_per_cycle: u64,
    flits_transferred: u64,
    output_busy_cycles: u64,
    credit_stall_cycles: u64,
}

impl CrossbarFabric {
    fn new(cfg: &NocConfig) -> Self {
        CrossbarFabric {
            frozen: false,
            hop_latency: cfg.hop_latency,
            flits_per_cycle: cfg.flits_per_cycle.max(1),
            flits_transferred: 0,
            output_busy_cycles: 0,
            credit_stall_cycles: 0,
        }
    }

    /// Advances the crossbar by one cycle, arbitrating the given port sets
    /// (the complete port sets of this fabric, in port order).
    fn tick(
        &mut self,
        now: Cycle,
        inputs: &mut [IngressPort],
        outputs: &mut [EgressPort],
    ) -> Result<(), SimError> {
        // Per-output request masks: bit `i` of `requests[o]` is set while
        // the head packet of input `i` targets output `o`. An empty input
        // mirrors `usize::MAX` and requests nothing, and a frozen fabric's
        // inputs request nothing at all.
        let mut requests = [0u64; MAX_MASK_WIDTH];
        if !self.frozen {
            for (in_idx, input) in inputs.iter().enumerate() {
                if input.head_dest != usize::MAX {
                    requests[input.head_dest] |= 1 << in_idx;
                }
            }
        }

        for (out_idx, out) in outputs.iter_mut().enumerate() {
            // 1. Land in-flight packets whose hop latency elapsed.
            while matches!(
                out.in_flight.front(),
                Some((arrive, _)) if *arrive <= now && !out.ejection.is_full()
            ) {
                let Some((_, pkt)) = out.in_flight.pop_front() else {
                    break;
                };
                if out.ejection.push(pkt).is_err() {
                    return Err(SimError::QueueOverflow {
                        component: "crossbar",
                        queue: "noc_ejection",
                        cycle: now.raw(),
                    });
                }
            }

            // 2. Stream up to `flits_per_cycle` flits of the current
            //    packet (the interconnect runs above the core clock).
            if let Some((_, remaining)) = &mut out.streaming {
                let moved = (*remaining).min(self.flits_per_cycle);
                *remaining -= moved;
                self.flits_transferred += moved;
                self.output_busy_cycles += 1;
                if *remaining == 0 {
                    if let Some((pkt, _)) = out.streaming.take() {
                        out.in_flight.push_back((now + self.hop_latency, pkt));
                    }
                }
                continue;
            }

            // 3. Arbitrate for a new packet (needs an ejection credit):
            //    round-robin from `rr`, i.e. the lowest requesting input at
            //    or after `rr`, else the lowest requesting input overall.
            let wanted_by = requests[out_idx];
            if wanted_by == 0 {
                continue;
            }
            if out.credits == 0 {
                self.credit_stall_cycles += 1;
                continue;
            }
            let from_rr = wanted_by & (u64::MAX << out.rr);
            let in_idx = if from_rr != 0 { from_rr } else { wanted_by }.trailing_zeros() as usize;
            let input = &mut inputs[in_idx];
            let Some(pkt) = input.queue.pop() else {
                continue; // unreachable: a request bit implies a head packet
            };
            debug_assert_eq!(pkt.dest, out_idx);
            // Later outputs in this same tick must see the post-pop head.
            input.refresh_head();
            requests[out_idx] &= !(1 << in_idx);
            if input.head_dest != usize::MAX {
                requests[input.head_dest] |= 1 << in_idx;
            }
            out.rr = if in_idx + 1 == inputs.len() {
                0
            } else {
                in_idx + 1
            };
            out.credits = match out.credits.checked_sub(1) {
                Some(c) => c,
                None => {
                    return Err(SimError::CreditUnderflow {
                        component: "crossbar",
                        port: out_idx,
                        cycle: now.raw(),
                    });
                }
            };
            // Transfer the first flit(s) this same cycle.
            let moved = pkt.flits.min(self.flits_per_cycle);
            self.flits_transferred += moved;
            self.output_busy_cycles += 1;
            if pkt.flits <= moved {
                out.in_flight.push_back((now + self.hop_latency, pkt));
            } else {
                let remaining = pkt.flits - moved;
                out.streaming = Some((pkt, remaining));
            }
        }
        Ok(())
    }
}

/// A flit-level wormhole crossbar with `inputs × outputs` ports.
///
/// Per cycle ([`tick`](Crossbar::tick)):
///
/// 1. Packets whose pipeline (hop) latency elapsed move into their
///    output's bounded ejection queue.
/// 2. Every output streaming a packet moves one flit; a packet whose last
///    flit moved enters the hop pipeline.
/// 3. Every idle output round-robins over the inputs and claims the first
///    head-of-queue packet addressed to it — but only if it holds an
///    ejection credit, so a stalled receiver propagates backpressure all
///    the way to the injecting miss queue.
///
/// Injection ([`try_inject`](Crossbar::try_inject)) places a packet in a
/// bounded input queue; head-of-line blocking across destinations is
/// modelled faithfully.
#[derive(Debug)]
pub struct Crossbar {
    fabric: CrossbarFabric,
    ingress: Vec<IngressPort>,
    egress: Vec<EgressPort>,
}

impl Crossbar {
    /// Builds an `inputs × outputs` crossbar from the interconnect
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `outputs` is zero or exceeds
    /// [`MAX_MASK_WIDTH`].
    pub fn new(inputs: usize, outputs: usize, cfg: &NocConfig) -> Self {
        assert!(inputs > 0, "crossbar needs at least one input");
        assert!(outputs > 0, "crossbar needs at least one output");
        assert!(
            inputs <= MAX_MASK_WIDTH && outputs <= MAX_MASK_WIDTH,
            "crossbar arbitration masks hold at most {MAX_MASK_WIDTH} ports per side"
        );
        Crossbar {
            fabric: CrossbarFabric::new(cfg),
            ingress: (0..inputs)
                .map(|_| IngressPort::new(cfg, outputs))
                .collect(),
            egress: (0..outputs).map(|_| EgressPort::new(cfg)).collect(),
        }
    }

    /// True if input `port` can accept a packet this cycle.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn can_inject(&self, port: usize) -> bool {
        self.ingress[port].can_inject()
    }

    /// Offers `packet` to input `port`.
    ///
    /// # Errors
    ///
    /// Hands the packet back if the input buffer is full.
    ///
    /// # Panics
    ///
    /// Panics if `port` or the packet's destination is out of range.
    #[expect(
        clippy::result_large_err,
        reason = "the rejected packet is handed back by design"
    )]
    pub fn try_inject(&mut self, port: usize, packet: Packet) -> Result<(), Packet> {
        self.ingress[port].try_inject(packet)
    }

    /// Takes a delivered packet from ejection port `port`, if any.
    pub fn pop_ejected(&mut self, port: usize) -> Option<Packet> {
        self.egress[port].pop_ejected()
    }

    /// Peeks the next deliverable packet on ejection port `port`.
    pub fn peek_ejected(&self, port: usize) -> Option<&Packet> {
        self.egress[port].peek_ejected()
    }

    /// Exclusive access to input port `port` (the injecting component's
    /// side of the network).
    pub fn ingress_mut(&mut self, port: usize) -> &mut IngressPort {
        &mut self.ingress[port]
    }

    /// Exclusive access to output port `port` (the draining component's
    /// side of the network).
    pub fn egress_mut(&mut self, port: usize) -> &mut EgressPort {
        &mut self.egress[port]
    }

    /// Advances the crossbar by one cycle.
    ///
    /// # Errors
    ///
    /// Returns a typed [`SimError`] if an internal invariant is violated
    /// (ejection queue overflow after a fullness check, ejection-credit
    /// underflow) — the machine state is broken, not merely congested.
    pub fn tick(&mut self, now: Cycle) -> Result<(), SimError> {
        self.fabric.tick(now, &mut self.ingress, &mut self.egress)
    }

    /// Freezes every input port for good: from now on no packet leaves an
    /// input buffer, while injection, streaming, landing and ejection go
    /// on. This is the watchdog's wedge fixture; a healthy run never
    /// calls it. Being permanent, it adds no event to
    /// [`next_event`](Crossbar::next_event).
    pub fn freeze_inputs(&mut self) {
        self.fabric.frozen = true;
    }

    /// Iterates over every fetch currently inside the crossbar (input
    /// buffers, streaming, hop pipeline, ejection queues), for wedge
    /// diagnosis.
    pub fn fetches(&self) -> impl Iterator<Item = &MemFetch> {
        let ingress = self.ingress.iter().flat_map(|p| p.queue.iter());
        let egress = self.egress.iter().flat_map(|o| {
            o.streaming
                .iter()
                .map(|(pkt, _)| pkt)
                .chain(o.in_flight.iter().map(|(_, pkt)| pkt))
                .chain(o.ejection.iter())
        });
        ingress.chain(egress).map(|pkt| &pkt.fetch)
    }

    /// Indices of input ports whose buffer is full (for wedge diagnosis).
    pub fn full_ingress_ports(&self) -> Vec<usize> {
        (0..self.ingress.len())
            .filter(|&i| self.ingress[i].queue.is_full())
            .collect()
    }

    /// Indices of output ports whose ejection queue is full.
    pub fn full_ejection_ports(&self) -> Vec<usize> {
        (0..self.egress.len())
            .filter(|&i| self.egress[i].ejection.is_full())
            .collect()
    }

    /// Per-cycle queue-statistics bookkeeping; call once per cycle.
    pub fn observe(&mut self) {
        for q in &mut self.ingress {
            q.observe();
        }
        for out in &mut self.egress {
            out.observe();
        }
    }

    /// Batch bookkeeping for `cycles` consecutive cycles during which no
    /// packet moves (see `SimQueue::observe_many`). Callers prove such a
    /// window via [`next_event`](Crossbar::next_event).
    pub fn observe_many(&mut self, cycles: u64) {
        for q in &mut self.ingress {
            q.observe_many(cycles);
        }
        for out in &mut self.egress {
            out.observe_many(cycles);
        }
    }

    /// The earliest cycle at or after `now` at which a tick of this
    /// crossbar can move a packet, or `None` when no self-generated event
    /// is pending.
    ///
    /// `Some(now)` whenever a tick would act: an output is mid-stream, an
    /// in-flight packet has arrived, or an output holding a credit has a
    /// head-of-queue packet addressed to it. A credit-starved crossbar —
    /// packets queued but every wanted output out of credits — reports
    /// the earliest in-flight arrival (or `None`): ticking it would move
    /// nothing, and the events that unblock it (a receiver popping an
    /// ejection queue, a fresh injection) are the caller's to see.
    /// [`fast_forward`](Crossbar::fast_forward) replays the per-cycle
    /// credit-stall accounting such a window accrues. Every state change
    /// of a crossbar is one of these port events; none opens or closes on
    /// a timer.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let wanted = self.wanted_outputs();
        let mut earliest = None;
        for (out_idx, out) in self.egress.iter().enumerate() {
            if out.streaming.is_some() {
                return Some(now);
            }
            if let Some((arrive, _)) = out.in_flight.front() {
                if *arrive <= now {
                    return Some(now);
                }
                earliest = Some(match earliest {
                    Some(e) if e <= *arrive => e,
                    _ => *arrive,
                });
            }
            if out.credits > 0 && wanted & (1 << out_idx) != 0 {
                return Some(now);
            }
        }
        earliest
    }

    /// Replays `cycles` consecutive skipped ticks over a window
    /// [`next_event`](Crossbar::next_event) proved inert: no packet moves,
    /// but a credit-starved output with a waiting head-of-queue packet
    /// still counts a stall every cycle, exactly as per-cycle ticking
    /// would. Also backfills queue-occupancy observations for the window.
    pub fn fast_forward(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        self.account_stalls_many(cycles);
        self.observe_many(cycles);
    }

    fn account_stalls_many(&mut self, cycles: u64) {
        let wanted = self.wanted_outputs();
        let starved = self
            .egress
            .iter()
            .enumerate()
            .filter(|(out_idx, out)| out.credits == 0 && wanted & (1 << out_idx) != 0)
            .count() as u64;
        self.fabric.credit_stall_cycles += starved * cycles;
    }

    /// Mask of the outputs some input's head packet targets; empty while
    /// the inputs are frozen, as in [`tick`](Crossbar::tick).
    fn wanted_outputs(&self) -> u64 {
        if self.fabric.frozen {
            return 0;
        }
        self.ingress
            .iter()
            .filter(|q| q.head_dest != usize::MAX)
            .fold(0, |wanted, q| wanted | 1 << q.head_dest)
    }

    /// True if no packet is anywhere inside the crossbar (for liveness and
    /// conservation checks).
    pub fn is_idle(&self) -> bool {
        self.ingress.iter().all(|q| q.is_empty()) && self.egress.iter().all(|o| o.is_idle())
    }

    /// Number of packets currently inside the crossbar.
    pub fn packets_in_network(&self) -> usize {
        self.ingress.iter().map(|q| q.len()).sum::<usize>()
            + self.egress.iter().map(|o| o.packets()).sum::<usize>()
    }

    /// Activity counters, aggregated over the fabric and all ports.
    pub fn stats(&self) -> CrossbarStats {
        CrossbarStats {
            packets_injected: self.ingress.iter().map(|p| p.injected).sum(),
            packets_ejected: self.egress.iter().map(|p| p.ejected).sum(),
            flits_transferred: self.fabric.flits_transferred,
            output_busy_cycles: self.fabric.output_busy_cycles,
            credit_stall_cycles: self.fabric.credit_stall_cycles,
        }
    }

    /// Merged occupancy statistics over all input buffers.
    pub fn input_queue_stats(&self) -> QueueStats {
        let mut s = QueueStats::default();
        for q in &self.ingress {
            s.merge(&q.queue_stats());
        }
        s
    }
}

#[cfg(test)]
#[expect(
    clippy::let_underscore_must_use,
    reason = "tests discard the accept/refuse outcome on purpose"
)]
mod tests {
    use super::*;
    use gpumem_types::{AccessKind, CoreId, FetchId, LineAddr, MemFetch};

    fn cfg() -> NocConfig {
        NocConfig {
            flit_bytes: 4,
            flits_per_cycle: 1,
            hop_latency: 2,
            input_buffer_pkts: 2,
            ejection_queue: 2,
        }
    }

    fn pkt(id: u64, dest: usize, flits: u64) -> Packet {
        Packet {
            fetch: MemFetch::new(
                FetchId::new(id),
                AccessKind::Load,
                LineAddr::new(id),
                CoreId::new(0),
            ),
            dest,
            flits,
        }
    }

    fn run(xbar: &mut Crossbar, from: Cycle, cycles: u64) -> Cycle {
        let mut now = from;
        for _ in 0..cycles {
            xbar.tick(now).unwrap();
            xbar.observe();
            now = now.next();
        }
        now
    }

    #[test]
    fn single_packet_latency_is_flits_plus_hop() {
        let mut x = Crossbar::new(2, 2, &cfg());
        x.try_inject(0, pkt(1, 1, 3)).unwrap();
        let mut now = Cycle::ZERO;
        let mut delivered_at = None;
        for _ in 0..20 {
            x.tick(now).unwrap();
            if x.peek_ejected(1).is_some() && delivered_at.is_none() {
                delivered_at = Some(now);
            }
            now = now.next();
        }
        // Streaming occupies cycles 0..=2 (3 flits), hop latency 2 lands it
        // in the ejection queue at the tick where now >= 2+2.
        assert_eq!(delivered_at, Some(Cycle::new(4)));
        assert_eq!(x.pop_ejected(1).unwrap().fetch.id, FetchId::new(1));
        assert!(x.is_idle());
    }

    #[test]
    fn distinct_outputs_stream_in_parallel() {
        let mut x = Crossbar::new(2, 2, &cfg());
        x.try_inject(0, pkt(1, 0, 4)).unwrap();
        x.try_inject(1, pkt(2, 1, 4)).unwrap();
        run(&mut x, Cycle::ZERO, 8);
        assert!(x.pop_ejected(0).is_some());
        assert!(x.pop_ejected(1).is_some());
        // 8 flits total over 4 busy cycles per output.
        assert_eq!(x.stats().flits_transferred, 8);
    }

    #[test]
    fn same_output_serializes() {
        let mut x = Crossbar::new(2, 1, &cfg());
        x.try_inject(0, pkt(1, 0, 4)).unwrap();
        x.try_inject(1, pkt(2, 0, 4)).unwrap();
        run(&mut x, Cycle::ZERO, 4);
        // After 4 cycles only the first packet finished streaming.
        assert_eq!(x.stats().flits_transferred, 4);
        run(&mut x, Cycle::new(4), 8);
        assert_eq!(x.stats().packets_ejected, 0); // not popped yet
        assert_eq!(x.stats().flits_transferred, 8);
        assert!(x.pop_ejected(0).is_some());
        assert!(x.pop_ejected(0).is_some());
    }

    #[test]
    fn round_robin_is_fair() {
        let mut x = Crossbar::new(3, 1, &cfg());
        for input in 0..3 {
            x.try_inject(input, pkt(input as u64, 0, 1)).unwrap();
        }
        // Single-flit packets: one claimed per cycle, RR order 0,1,2.
        let mut order = Vec::new();
        let mut now = Cycle::ZERO;
        for _ in 0..12 {
            x.tick(now).unwrap();
            now = now.next();
            while let Some(p) = x.pop_ejected(0) {
                order.push(p.fetch.id.raw());
            }
        }
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn ejection_backpressure_stalls_streaming() {
        let mut x = Crossbar::new(1, 1, &cfg());
        // Capacity 2 ejection; send 4 single-flit packets, never pop.
        for i in 0..2 {
            x.try_inject(0, pkt(i, 0, 1)).unwrap();
        }
        run(&mut x, Cycle::ZERO, 10);
        for i in 2..4 {
            x.try_inject(0, pkt(i, 0, 1)).unwrap();
        }
        run(&mut x, Cycle::new(10), 10);
        // Only 2 packets could be claimed (credits exhausted).
        assert_eq!(x.stats().flits_transferred, 2);
        assert!(x.stats().credit_stall_cycles > 0);
        // Draining restores progress.
        assert!(x.pop_ejected(0).is_some());
        assert!(x.pop_ejected(0).is_some());
        run(&mut x, Cycle::new(20), 10);
        assert!(x.pop_ejected(0).is_some());
        assert!(x.pop_ejected(0).is_some());
        assert!(x.is_idle());
    }

    #[test]
    fn input_buffer_rejects_when_full() {
        let mut x = Crossbar::new(1, 1, &cfg());
        assert!(x.can_inject(0));
        x.try_inject(0, pkt(1, 0, 8)).unwrap();
        x.try_inject(0, pkt(2, 0, 8)).unwrap();
        assert!(!x.can_inject(0));
        let back = x.try_inject(0, pkt(3, 0, 8)).unwrap_err();
        assert_eq!(back.fetch.id, FetchId::new(3));
    }

    #[test]
    fn head_of_line_blocking() {
        // Input 0 head targets output 0 which is busy with a long packet
        // from input 1; a packet behind it targeting free output 1 waits.
        let mut x = Crossbar::new(2, 2, &cfg());
        x.try_inject(1, pkt(9, 0, 20)).unwrap();
        x.tick(Cycle::ZERO).unwrap(); // output 0 claims the long packet
        x.try_inject(0, pkt(1, 0, 1)).unwrap();
        x.try_inject(0, pkt(2, 1, 1)).unwrap();
        run(&mut x, Cycle::new(1), 10);
        // Packet 2 cannot overtake packet 1 inside input 0.
        assert!(x.pop_ejected(1).is_none());
    }

    #[test]
    fn packet_conservation() {
        let mut x = Crossbar::new(3, 2, &cfg());
        let mut injected = 0u64;
        let mut ejected = 0u64;
        let mut now = Cycle::ZERO;
        let mut next_id = 0u64;
        for round in 0..200u64 {
            for input in 0..3 {
                if round % (input as u64 + 1) == 0 {
                    let p = pkt(next_id, (next_id % 2) as usize, 1 + next_id % 5);
                    if x.try_inject(input, p).is_ok() {
                        injected += 1;
                        next_id += 1;
                    }
                }
            }
            x.tick(now).unwrap();
            now = now.next();
            for output in 0..2 {
                while x.pop_ejected(output).is_some() {
                    ejected += 1;
                }
            }
        }
        // Drain.
        for _ in 0..500 {
            x.tick(now).unwrap();
            now = now.next();
            for output in 0..2 {
                while x.pop_ejected(output).is_some() {
                    ejected += 1;
                }
            }
        }
        assert_eq!(injected, ejected);
        assert!(x.is_idle());
        assert_eq!(x.packets_in_network(), 0);
        assert_eq!(x.stats().packets_injected, injected);
        assert_eq!(x.stats().packets_ejected, ejected);
    }

    #[test]
    #[should_panic(expected = "destination out of range")]
    fn inject_validates_destination() {
        let mut x = Crossbar::new(1, 1, &cfg());
        let _ = x.try_inject(0, pkt(1, 5, 1));
    }

    #[test]
    fn frozen_inputs_never_drain_and_are_no_event() {
        let mut x = Crossbar::new(2, 1, &cfg());
        x.try_inject(0, pkt(1, 0, 1)).unwrap();
        x.freeze_inputs();
        assert_eq!(x.next_event(Cycle::ZERO), None);
        let now = run(&mut x, Cycle::ZERO, 50);
        // Injection still works; nothing ever leaves an input.
        x.try_inject(1, pkt(2, 0, 1)).unwrap();
        run(&mut x, now, 50);
        assert_eq!(x.next_event(now + 50), None);
        assert_eq!(x.stats().flits_transferred, 0);
        assert_eq!(x.stats().credit_stall_cycles, 0);
        assert!(x.peek_ejected(0).is_none());
        assert_eq!(x.packets_in_network(), 2);
    }

    /// Drives `xbar` from `from` to `end` the way the simulator's run loop
    /// does: tick while [`Crossbar::next_event`] says a tick would act,
    /// otherwise fast-forward to that event (or to `end`).
    fn run_jumping(xbar: &mut Crossbar, from: Cycle, end: Cycle) {
        let mut now = from;
        while now < end {
            match xbar.next_event(now) {
                Some(t) if t <= now => {
                    xbar.tick(now).unwrap();
                    xbar.observe();
                    now = now.next();
                }
                ev => {
                    let target = ev.map_or(end, |t| t.min(end));
                    xbar.fast_forward(target - now);
                    now = target;
                }
            }
        }
    }

    #[test]
    fn credit_starved_head_across_a_jump_counts_its_credit_stalls() {
        let setup = || {
            let mut x = Crossbar::new(2, 1, &cfg());
            // Three packets for output 0's two ejection credits; nothing
            // ever pops them, so from cycle 2 on the third waits on a
            // credit every cycle: stepped while the other two are in
            // flight, then across one jump to the end.
            x.try_inject(0, pkt(1, 0, 1)).unwrap();
            x.try_inject(1, pkt(2, 0, 1)).unwrap();
            x.try_inject(1, pkt(3, 0, 1)).unwrap();
            x
        };
        let mut stepped = setup();
        run(&mut stepped, Cycle::ZERO, 40);
        let mut jumped = setup();
        run_jumping(&mut jumped, Cycle::ZERO, Cycle::new(40));
        assert_eq!(stepped.stats().credit_stall_cycles, 38);
        assert_eq!(jumped.stats(), stepped.stats());
        assert_eq!(jumped.input_queue_stats(), stepped.input_queue_stats());
        let ejection = |x: &Crossbar| -> Vec<QueueStats> {
            x.egress.iter().map(|o| o.ejection.stats()).collect()
        };
        assert_eq!(ejection(&jumped), ejection(&stepped));
    }

    #[test]
    fn fetches_surveys_every_stage() {
        let mut x = Crossbar::new(2, 2, &cfg());
        x.try_inject(0, pkt(1, 1, 8)).unwrap(); // will be streaming
        x.try_inject(1, pkt(2, 0, 1)).unwrap(); // will be in flight / ejected
        x.try_inject(1, pkt(3, 0, 1)).unwrap(); // still queued behind it
        x.tick(Cycle::ZERO).unwrap();
        x.tick(Cycle::new(1)).unwrap();
        let ids: Vec<u64> = x.fetches().map(|f| f.id.raw()).collect();
        assert_eq!(ids.len(), 3, "every in-network fetch surveyed: {ids:?}");
        for id in [1, 2, 3] {
            assert!(ids.contains(&id));
        }
    }

    /// The arbitration [`Crossbar::tick`] replaced with request masks,
    /// kept as the specification: every idle output with a credit walks
    /// the inputs round-robin from its pointer, one modulo step at a time,
    /// reading each input's current (post-pop) head.
    fn reference_tick(x: &mut Crossbar, now: Cycle) {
        let (fabric, inputs, outputs) = (&mut x.fabric, &mut x.ingress, &mut x.egress);
        for (out_idx, out) in outputs.iter_mut().enumerate() {
            while matches!(
                out.in_flight.front(),
                Some((arrive, _)) if *arrive <= now && !out.ejection.is_full()
            ) {
                let (_, pkt) = out.in_flight.pop_front().unwrap();
                out.ejection.push(pkt).unwrap();
            }
            if let Some((pkt, remaining)) = out.streaming.take() {
                let moved = remaining.min(fabric.flits_per_cycle);
                fabric.flits_transferred += moved;
                fabric.output_busy_cycles += 1;
                if remaining == moved {
                    out.in_flight.push_back((now + fabric.hop_latency, pkt));
                } else {
                    out.streaming = Some((pkt, remaining - moved));
                }
                continue;
            }
            if out.credits == 0 {
                if inputs.iter().any(|q| q.head_dest == out_idx) {
                    fabric.credit_stall_cycles += 1;
                }
                continue;
            }
            let n_inputs = inputs.len();
            for step in 0..n_inputs {
                let in_idx = (out.rr + step) % n_inputs;
                let input = &mut inputs[in_idx];
                if input.head_dest != out_idx {
                    continue;
                }
                let pkt = input.queue.pop().unwrap();
                input.refresh_head();
                out.rr = (in_idx + 1) % n_inputs;
                out.credits -= 1;
                let moved = pkt.flits.min(fabric.flits_per_cycle);
                fabric.flits_transferred += moved;
                fabric.output_busy_cycles += 1;
                if pkt.flits <= moved {
                    out.in_flight.push_back((now + fabric.hop_latency, pkt));
                } else {
                    let remaining = pkt.flits - moved;
                    out.streaming = Some((pkt, remaining));
                }
                break;
            }
        }
    }

    proptest::proptest! {
        /// Mask arbitration is the round-robin reference, cycle for cycle:
        /// same grants (including an input whose post-pop head feeds a later
        /// output in the same tick), same pointers, credits and counters,
        /// under random traffic and receiver backpressure.
        #[test]
        fn mask_arbitration_equals_round_robin_reference(
            inputs in 1usize..7,
            outputs in 1usize..5,
            flit_rate in 1u64..3,
            cycles in proptest::collection::vec(
                (
                    // Up to three injections: (input, dest, flits).
                    proptest::collection::vec((0usize..7, 0usize..5, 1u64..6), 0..4),
                    // Which outputs the receivers drain this cycle.
                    0u32..32,
                ),
                1..120,
            ),
        ) {
            let cfg = NocConfig { flits_per_cycle: flit_rate, ..cfg() };
            let mut masked = Crossbar::new(inputs, outputs, &cfg);
            let mut reference = Crossbar::new(inputs, outputs, &cfg);
            let mut now = Cycle::ZERO;
            let mut id = 0u64;
            for (injections, drain) in cycles {
                for x in [&mut masked, &mut reference] {
                    for (&(input, dest, flits), id) in injections.iter().zip(id..) {
                        let _ = x.try_inject(input % inputs, pkt(id, dest % outputs, flits));
                    }
                }
                id += injections.len() as u64;
                masked.tick(now).unwrap();
                reference_tick(&mut reference, now);
                for out in (0..outputs).filter(|out| drain >> out & 1 != 0) {
                    let got = masked.pop_ejected(out).map(|p| p.fetch.id);
                    proptest::prop_assert_eq!(got, reference.pop_ejected(out).map(|p| p.fetch.id));
                }
                proptest::prop_assert_eq!(masked.stats(), reference.stats());
                proptest::prop_assert_eq!(
                    format!("{:?}{:?}", masked.ingress, masked.egress),
                    format!("{:?}{:?}", reference.ingress, reference.egress)
                );
                now = now.next();
            }
        }
    }

    /// ISSUE 13: packets are moved by value through both crossbars; this
    /// bound (with `MemFetch`'s in `gpumem-types`) keeps them from silently
    /// regrowing past two cache lines and change.
    #[test]
    fn packet_stays_small() {
        assert!(std::mem::size_of::<Packet>() <= 144);
    }
}
