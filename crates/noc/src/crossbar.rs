//! The wormhole crossbar.
//!
//! A [`Crossbar`] is per-port state, a central arbiter and an arena:
//!
//! * The arena holds the body ([`MemFetch`]) of every packet inside the
//!   crossbar, from [`Crossbar::try_inject`] to [`Crossbar::pop_ejected`].
//!   Input buffers, the streaming registers, the hop pipeline and the
//!   ejection queues carry a 16-byte header (arena slot, destination,
//!   flits), so a hop moves 16 bytes instead of a 136-byte [`Packet`].
//! * One input port per injecting component (core `c` on the request
//!   network, partition `p` on the response network) and one output port
//!   per draining component. Components reach their port through the
//!   crossbar's methods, by index.
//! * The fabric — arbitration and the cross-port counters. [`Crossbar::tick`]
//!   visits only the outputs that are busy (streaming or holding packets
//!   in the hop pipeline) or that some input's head requests; every other
//!   output would do nothing that tick.

use std::collections::VecDeque;

use gpumem_config::{NocConfig, MAX_MASK_WIDTH};
use gpumem_types::{Cycle, FetchArena, MemFetch, QueueStats, SimError, SimQueue, SlotId};

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

/// What the ports carry for a packet inside the crossbar: the arena slot
/// of its body, its destination output and its length in flits.
#[derive(Debug, Clone, Copy)]
struct Header {
    slot: SlotId,
    dest: u32,
    flits: u64,
}

/// One bounded input buffer of the crossbar.
#[derive(Debug)]
struct IngressPort {
    queue: SimQueue<Header>,
    /// Packets accepted on this port (merged into
    /// [`CrossbarStats::packets_injected`]).
    injected: u64,
}

impl IngressPort {
    fn new(cfg: &NocConfig) -> Self {
        IngressPort {
            queue: SimQueue::new("noc_input", cfg.input_buffer_pkts),
            injected: 0,
        }
    }

    /// The output the head packet targets, if any.
    fn head_dest(&self) -> Option<usize> {
        self.queue.front().map(|h| h.dest as usize)
    }
}

/// One output's worth of crossbar state: the packet being streamed, the
/// hop pipeline, and the bounded ejection queue the receiver drains.
#[derive(Debug)]
struct EgressPort {
    /// Packet currently being streamed and its remaining flits.
    streaming: Option<(Header, u64)>,
    /// Round-robin pointer over inputs.
    rr: usize,
    /// Packets that finished streaming and are traversing the pipeline
    /// (FIFO per output; arrivals are naturally ordered).
    in_flight: VecDeque<(Cycle, Header)>,
    /// Delivered packets awaiting the receiver.
    ejection: SimQueue<Header>,
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

    /// Packets currently inside this output's pipeline.
    fn packets(&self) -> usize {
        usize::from(self.streaming.is_some()) + self.in_flight.len() + self.ejection.len()
    }

    /// Every header in this output, streaming first, then the hop pipeline
    /// and the ejection queue.
    fn headers(&self) -> impl Iterator<Item = &Header> {
        self.streaming
            .iter()
            .map(|(h, _)| h)
            .chain(self.in_flight.iter().map(|(_, h)| h))
            .chain(self.ejection.iter())
    }
}

/// The arbitration core of a crossbar: the request and busy-output masks,
/// hop latency, streaming bandwidth and the counters that are inherently
/// cross-port.
#[derive(Debug)]
struct CrossbarFabric {
    /// Set for good by [`Crossbar::freeze_inputs`]: no input requests an
    /// output, so no packet leaves an input buffer again.
    frozen: bool,
    /// Bit `i` of `requests[o]` is set while the head packet of input `i`
    /// targets output `o`, frozen or not. Written at the only two head
    /// changes: [`Crossbar::try_inject`] into an empty input and the
    /// arbitration pop in [`Crossbar::tick`].
    requests: [u64; MAX_MASK_WIDTH],
    /// Bit `o` is set while `requests[o]` is non-zero.
    wanted: u64,
    /// Bit `o` is set while output `o` streams a packet or holds packets
    /// in its hop pipeline. Set when the output takes a packet, cleared
    /// when a landing empties both; only [`Crossbar::tick`] changes either.
    busy: u64,
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
            requests: [0; MAX_MASK_WIDTH],
            wanted: 0,
            busy: 0,
            hop_latency: cfg.hop_latency,
            flits_per_cycle: cfg.flits_per_cycle.max(1),
            flits_transferred: 0,
            output_busy_cycles: 0,
            credit_stall_cycles: 0,
        }
    }
}

/// Iterates over the set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
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
    /// Bodies of every packet inside the crossbar, addressed by the
    /// headers' slots.
    arena: FetchArena,
    /// Bit `o` is set while output `o`'s ejection queue holds a packet:
    /// set at landing, cleared by the pop that empties the queue.
    ejecting: u64,
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
        let packets = inputs * cfg.input_buffer_pkts + outputs * cfg.ejection_queue;
        Crossbar {
            fabric: CrossbarFabric::new(cfg),
            ingress: (0..inputs).map(|_| IngressPort::new(cfg)).collect(),
            egress: (0..outputs).map(|_| EgressPort::new(cfg)).collect(),
            arena: FetchArena::with_capacity(packets),
            ejecting: 0,
        }
    }

    /// True if input `port` can accept a packet this cycle.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    #[inline]
    pub fn can_inject(&self, port: usize) -> bool {
        !self.ingress[port].queue.is_full()
    }

    /// Offers `packet` to input `port`; its body moves into the arena.
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
    #[inline]
    pub fn try_inject(&mut self, port: usize, packet: Packet) -> Result<(), Packet> {
        assert!(packet.dest < self.egress.len(), "destination out of range");
        let Packet { fetch, dest, flits } = packet;
        let header = Header {
            slot: self.arena.insert(fetch),
            dest: dest as u32,
            flits,
        };
        let input = &mut self.ingress[port];
        match input.queue.push(header) {
            Ok(()) => {
                input.injected += 1;
                if input.queue.len() == 1 {
                    self.fabric.requests[dest] |= 1 << port;
                    self.fabric.wanted |= 1 << dest;
                }
                Ok(())
            }
            Err(e) => Err(self.unpack(e.into_inner())),
        }
    }

    /// Takes a header's body back out of the arena.
    #[inline]
    fn unpack(&mut self, header: Header) -> Packet {
        Packet {
            fetch: self.arena.take(header.slot),
            dest: header.dest as usize,
            flits: header.flits,
        }
    }

    /// Takes a delivered packet from ejection port `port`, if any, and
    /// returns its credit.
    #[inline]
    pub fn pop_ejected(&mut self, port: usize) -> Option<Packet> {
        if self.ejecting & 1 << port == 0 {
            return None;
        }
        let out = &mut self.egress[port];
        let header = out.ejection.pop()?;
        out.credits += 1;
        out.ejected += 1;
        if out.ejection.is_empty() {
            self.ejecting &= !(1 << port);
        }
        Some(self.unpack(header))
    }

    /// The fetch of the next deliverable packet on ejection port `port`.
    pub fn peek_ejected(&self, port: usize) -> Option<&MemFetch> {
        let header = self.egress[port].ejection.front()?;
        Some(&self.arena[header.slot])
    }

    /// True while any ejection queue holds a packet for its receiver.
    #[inline]
    pub fn has_ejected(&self) -> bool {
        self.ejecting != 0
    }

    /// Advances the crossbar by one cycle.
    ///
    /// # Errors
    ///
    /// Returns a typed [`SimError`] if an internal invariant is violated
    /// (ejection queue overflow after a fullness check, ejection-credit
    /// underflow) — the machine state is broken, not merely congested.
    pub fn tick(&mut self, now: Cycle) -> Result<(), SimError> {
        let Crossbar {
            fabric,
            ingress: inputs,
            egress: outputs,
            ejecting,
            ..
        } = self;
        // A frozen fabric's inputs request nothing. An output neither busy
        // nor requested has nothing to land, stream or claim, so the tick
        // visits only `busy | wanted`, lowest first.
        let requesting = !fabric.frozen;
        let mut visit = fabric.busy | if requesting { fabric.wanted } else { 0 };

        while visit != 0 {
            let out_idx = visit.trailing_zeros() as usize;
            visit &= visit - 1;
            let out = &mut outputs[out_idx];
            // 1. Land in-flight packets whose hop latency elapsed.
            while matches!(
                out.in_flight.front(),
                Some((arrive, _)) if *arrive <= now && !out.ejection.is_full()
            ) {
                let Some((_, header)) = out.in_flight.pop_front() else {
                    break;
                };
                if out.ejection.push(header).is_err() {
                    return Err(SimError::QueueOverflow {
                        component: "crossbar",
                        queue: "noc_ejection",
                        cycle: now.raw(),
                    });
                }
                *ejecting |= 1 << out_idx;
            }

            // 2. Stream up to `flits_per_cycle` flits of the current
            //    packet (the interconnect runs above the core clock).
            if let Some((_, remaining)) = &mut out.streaming {
                let moved = (*remaining).min(fabric.flits_per_cycle);
                *remaining -= moved;
                fabric.flits_transferred += moved;
                fabric.output_busy_cycles += 1;
                if *remaining == 0 {
                    if let Some((header, _)) = out.streaming.take() {
                        out.in_flight.push_back((now + fabric.hop_latency, header));
                    }
                }
                continue;
            }
            if out.in_flight.is_empty() {
                fabric.busy &= !(1 << out_idx);
            }

            // 3. Arbitrate for a new packet (needs an ejection credit):
            //    round-robin from `rr`, i.e. the lowest requesting input at
            //    or after `rr`, else the lowest requesting input overall.
            let wanted_by = if requesting {
                fabric.requests[out_idx]
            } else {
                0
            };
            if wanted_by == 0 {
                continue;
            }
            if out.credits == 0 {
                fabric.credit_stall_cycles += 1;
                continue;
            }
            let from_rr = wanted_by & (u64::MAX << out.rr);
            let in_idx = if from_rr != 0 { from_rr } else { wanted_by }.trailing_zeros() as usize;
            let input = &mut inputs[in_idx];
            let Some(header) = input.queue.pop() else {
                continue; // unreachable: a request bit implies a head packet
            };
            debug_assert_eq!(header.dest as usize, out_idx);
            // Later outputs in this same tick must see the post-pop head,
            // and a head re-targeted past this output puts its new output
            // into this tick's visit set.
            fabric.requests[out_idx] &= !(1 << in_idx);
            if fabric.requests[out_idx] == 0 {
                fabric.wanted &= !(1 << out_idx);
            }
            if let Some(next) = input.head_dest() {
                fabric.requests[next] |= 1 << in_idx;
                fabric.wanted |= 1 << next;
                if next > out_idx {
                    visit |= 1 << next;
                }
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
            fabric.busy |= 1 << out_idx;
            // Transfer the first flit(s) this same cycle.
            let moved = header.flits.min(fabric.flits_per_cycle);
            fabric.flits_transferred += moved;
            fabric.output_busy_cycles += 1;
            if header.flits <= moved {
                out.in_flight.push_back((now + fabric.hop_latency, header));
            } else {
                out.streaming = Some((header, header.flits - moved));
            }
        }
        Ok(())
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
        let egress = self.egress.iter().flat_map(EgressPort::headers);
        ingress.chain(egress).map(|h| &self.arena[h.slot])
    }

    /// Packet bodies parked in the arena; equal to
    /// [`packets_in_network`](Crossbar::packets_in_network) unless a body
    /// leaked.
    pub fn arena_slots(&self) -> usize {
        self.arena.len()
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
    #[inline]
    pub fn observe(&mut self) {
        self.observe_many(1);
    }

    /// Batch bookkeeping for `cycles` consecutive cycles during which no
    /// packet moves (see `SimQueue::observe_many`). Callers prove such a
    /// window via [`next_event`](Crossbar::next_event).
    pub fn observe_many(&mut self, cycles: u64) {
        for q in &mut self.ingress {
            q.queue.observe_many(cycles);
        }
        for out in &mut self.egress {
            out.ejection.observe_many(cycles);
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
    #[inline]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let wanted = self.wanted_outputs();
        let mut earliest = None;
        for out_idx in bits(self.fabric.busy | wanted) {
            let out = &self.egress[out_idx];
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
        let starved = bits(self.wanted_outputs())
            .filter(|&out_idx| self.egress[out_idx].credits == 0)
            .count() as u64;
        self.fabric.credit_stall_cycles += starved * cycles;
        self.observe_many(cycles);
    }

    /// Mask of the outputs some input's head packet targets; empty while
    /// the inputs are frozen, as in [`tick`](Crossbar::tick).
    fn wanted_outputs(&self) -> u64 {
        if self.fabric.frozen {
            0
        } else {
            self.fabric.wanted
        }
    }

    /// True if no packet is anywhere inside the crossbar (for liveness and
    /// conservation checks).
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.fabric.busy == 0
            && self.ejecting == 0
            && self.ingress.iter().all(|q| q.queue.is_empty())
    }

    /// Number of packets currently inside the crossbar.
    pub fn packets_in_network(&self) -> usize {
        self.ingress.iter().map(|q| q.queue.len()).sum::<usize>()
            + self.egress.iter().map(EgressPort::packets).sum::<usize>()
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
            s.merge(&q.queue.stats());
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

    /// The arbitration [`Crossbar::tick`] replaced with request masks and
    /// a busy-output visit set, kept as the specification: every output,
    /// in port order, lands, streams, or — idle with a credit — walks the
    /// inputs round-robin from its pointer, one modulo step at a time,
    /// reading each input's current (post-pop) head.
    fn reference_tick(x: &mut Crossbar, now: Cycle) {
        let (fabric, inputs, outputs) = (&mut x.fabric, &mut x.ingress, &mut x.egress);
        for (out_idx, out) in outputs.iter_mut().enumerate() {
            while matches!(
                out.in_flight.front(),
                Some((arrive, _)) if *arrive <= now && !out.ejection.is_full()
            ) {
                let (_, header) = out.in_flight.pop_front().unwrap();
                out.ejection.push(header).unwrap();
                x.ejecting |= 1 << out_idx;
            }
            if let Some((header, remaining)) = out.streaming.take() {
                let moved = remaining.min(fabric.flits_per_cycle);
                fabric.flits_transferred += moved;
                fabric.output_busy_cycles += 1;
                if remaining == moved {
                    out.in_flight.push_back((now + fabric.hop_latency, header));
                } else {
                    out.streaming = Some((header, remaining - moved));
                }
                continue;
            }
            if out.credits == 0 {
                if inputs.iter().any(|q| q.head_dest() == Some(out_idx)) {
                    fabric.credit_stall_cycles += 1;
                }
                continue;
            }
            let n_inputs = inputs.len();
            for step in 0..n_inputs {
                let in_idx = (out.rr + step) % n_inputs;
                let input = &mut inputs[in_idx];
                if input.head_dest() != Some(out_idx) {
                    continue;
                }
                let header = input.queue.pop().unwrap();
                out.rr = (in_idx + 1) % n_inputs;
                out.credits -= 1;
                let moved = header.flits.min(fabric.flits_per_cycle);
                fabric.flits_transferred += moved;
                fabric.output_busy_cycles += 1;
                if header.flits <= moved {
                    out.in_flight.push_back((now + fabric.hop_latency, header));
                } else {
                    out.streaming = Some((header, header.flits - moved));
                }
                break;
            }
        }
    }

    /// The masks a crossbar keeps, recomputed from its ports: requests,
    /// wanted, busy, ejecting.
    fn derived_masks(x: &Crossbar) -> (Vec<u64>, u64, u64, u64) {
        let mut requests = vec![0; x.egress.len()];
        let mut wanted = 0;
        for (i, input) in x.ingress.iter().enumerate() {
            if let Some(o) = input.head_dest() {
                requests[o] |= 1 << i;
                wanted |= 1 << o;
            }
        }
        let mut busy = 0;
        let mut ejecting = 0;
        for (o, out) in x.egress.iter().enumerate() {
            if out.streaming.is_some() || !out.in_flight.is_empty() {
                busy |= 1 << o;
            }
            if !out.ejection.is_empty() {
                ejecting |= 1 << o;
            }
        }
        (requests, wanted, busy, ejecting)
    }

    /// The masks a crossbar keeps, as it keeps them.
    fn kept_masks(x: &Crossbar) -> (Vec<u64>, u64, u64, u64) {
        let f = &x.fabric;
        (
            f.requests[..x.egress.len()].to_vec(),
            f.wanted,
            f.busy,
            x.ejecting,
        )
    }

    proptest::proptest! {
        /// Mask arbitration over the busy-output visit set is the
        /// round-robin reference, cycle for cycle: same grants (including an
        /// input whose post-pop head re-targets a later or an earlier output
        /// in the same tick), same pointers, credits and counters, under
        /// random traffic and receiver backpressure. Receivers pop random
        /// ports, empty ones and the same one twice included, and the busy
        /// and ejecting masks always equal what the ports hold.
        #[test]
        fn mask_arbitration_equals_round_robin_reference(
            inputs in 1usize..7,
            outputs in 1usize..5,
            flit_rate in 1u64..3,
            input_buffer in 1usize..5,
            cycles in proptest::collection::vec(
                (
                    // Up to five injections: (input, dest, flits); several
                    // into one input queue heads bound for other outputs.
                    proptest::collection::vec((0usize..7, 0usize..5, 1u64..6), 0..6),
                    // The ports the receivers pop this cycle, in order.
                    proptest::collection::vec(0usize..5, 0..6),
                ),
                1..120,
            ),
        ) {
            let cfg = NocConfig {
                flits_per_cycle: flit_rate,
                input_buffer_pkts: input_buffer,
                ..cfg()
            };
            let mut masked = Crossbar::new(inputs, outputs, &cfg);
            let mut reference = Crossbar::new(inputs, outputs, &cfg);
            let mut now = Cycle::ZERO;
            let mut id = 0u64;
            for (injections, pops) in cycles {
                for x in [&mut masked, &mut reference] {
                    for (&(input, dest, flits), id) in injections.iter().zip(id..) {
                        let _ = x.try_inject(input % inputs, pkt(id, dest % outputs, flits));
                    }
                }
                id += injections.len() as u64;
                masked.tick(now).unwrap();
                reference_tick(&mut reference, now);
                proptest::prop_assert_eq!(derived_masks(&masked), kept_masks(&masked));
                for out in pops.into_iter().map(|p| p % outputs) {
                    let got = masked.pop_ejected(out).map(|p| p.fetch.id);
                    proptest::prop_assert_eq!(got, reference.pop_ejected(out).map(|p| p.fetch.id));
                }
                proptest::prop_assert_eq!(derived_masks(&masked), kept_masks(&masked));
                proptest::prop_assert_eq!(masked.stats(), reference.stats());
                proptest::prop_assert_eq!(masked.arena_slots(), masked.packets_in_network());
                // Every ejection slot is either a credit or held by a packet.
                for out in &masked.egress {
                    proptest::prop_assert_eq!(out.credits + out.packets(), cfg.ejection_queue);
                }
                proptest::prop_assert_eq!(
                    format!("{:?}{:?}", masked.ingress, masked.egress),
                    format!("{:?}{:?}", reference.ingress, reference.egress)
                );
                now = now.next();
            }
        }
    }

    #[test]
    fn head_retargeted_to_a_later_output_is_claimed_in_the_same_tick() {
        // Input 0 holds [→ output 0, → output 1]; at the tick's start only
        // output 0 is requested. Once output 0 pops the first packet, the
        // new head requests output 1, which this same tick must claim.
        let mut x = Crossbar::new(1, 2, &cfg());
        x.try_inject(0, pkt(1, 0, 1)).unwrap();
        x.try_inject(0, pkt(2, 1, 1)).unwrap();
        x.tick(Cycle::ZERO).unwrap();
        assert_eq!(x.stats().flits_transferred, 2);
        assert!(x.ingress[0].queue.is_empty());
        assert_eq!(x.fabric.busy, 0b11);
    }

    #[test]
    fn pop_on_a_drained_port_is_none_and_clears_nothing_else() {
        let mut x = Crossbar::new(1, 2, &cfg());
        x.try_inject(0, pkt(1, 1, 1)).unwrap();
        let now = run(&mut x, Cycle::ZERO, 4);
        assert_eq!(x.ejecting, 0b10);
        assert!(x.pop_ejected(0).is_none());
        assert_eq!(x.peek_ejected(1).map(|f| f.id), Some(FetchId::new(1)));
        assert!(x.has_ejected());
        assert!(x.pop_ejected(1).is_some());
        assert!(!x.has_ejected());
        assert!(x.pop_ejected(1).is_none());
        run(&mut x, now, 2);
        assert!(x.is_idle());
        assert_eq!(x.arena_slots(), 0);
    }

    /// Every hop moves a port header, not the packet: this bound keeps it
    /// within a quarter of a cache line.
    #[test]
    fn port_header_stays_small() {
        assert!(std::mem::size_of::<Header>() <= 16);
    }
}
