//! Fetch-lifecycle tracing for the gpumem simulator.
//!
//! The paper's core methodology is *measurement*: decomposing the memory
//! latency seen by a warp into queueing and service components and locating
//! the congestion (§III, Fig. 4–6). This crate supplies the observability
//! layer that makes the reproduction's decomposition visible: every
//! [`MemFetch`] already carries a [`FetchTimeline`] of per-stage timestamps,
//! stamped by the component that owns each transition; a [`TraceCollector`]
//! turns completed timelines into per-stage [`Log2Histogram`]s, and
//! [`OccupancyProbe`]s record per-component queue-depth time series on a
//! deterministic cycle cadence.
//!
//! Design rules that keep traced runs bit-identical across both engines
//! (`run_stepped` and the event-driven `run`):
//!
//! * Components only *stamp* timestamps; histograms are recorded at a single
//!   point — the owning core's response-acceptance path — from the fetch's
//!   own completed timeline, so recording order never depends on which
//!   components an engine chose to step.
//! * Histogram merge is an element-wise sum (commutative + associative), and
//!   the final report merges per-core collectors in core-index order.
//! * Occupancy sampling is a pure function of the cycle number
//!   (`now % cadence == 0`, sampled at pre-step state), so the event-driven
//!   engine can backfill skipped stretches with the frozen depth.
//!
//! The stage taxonomy telescopes: consecutive stamps partition the closed
//! interval `issued..returned`, so the per-fetch stage durations sum
//! *exactly* to the end-to-end latency — the reconciliation invariant the
//! golden-trace suite asserts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

use gpumem_types::{AccessKind, Cycle, FetchTimeline, Log2Histogram, MemFetch};

/// The timestamps of [`FetchTimeline`], in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stamp {
    Issued,
    L1Miss,
    IcntInject,
    L2Arrive,
    L2Serve,
    DramArrive,
    DramIssue,
    DramData,
    RespInject,
    Returned,
}

/// One lifecycle stage: the interval between two consecutive stamped
/// timestamps of a fetch's pipeline traversal.
///
/// Not every fetch passes through every stage — an L1 hit is a single
/// [`Stage::L1Hit`] span, an L2 hit skips the DRAM stages, and the
/// fixed-latency memory mode collapses everything below the interconnect
/// into [`Stage::FixedMemory`]. Whatever the path, the spans of one fetch
/// telescope over `issued..returned`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `issued → returned` when the access hit in L1 (no other stamps).
    L1Hit,
    /// `issued → l1_miss`: LSU queue wait plus the L1 lookup.
    IssueToL1,
    /// `l1_miss → returned` for an access merged into an outstanding L1
    /// MSHR entry: it waits on someone else's fill.
    L1MergeWait,
    /// `l1_miss → icnt_inject`: L1 miss-queue wait for an interconnect slot.
    L1ToIcnt,
    /// `icnt_inject → l2_arrive`: request crossbar traversal.
    ReqNoc,
    /// `l2_arrive → l2_serve`: L2 access-queue wait (the paper's 46% locus).
    L2Queue,
    /// `l2_serve → resp_inject` when the L2 lookup hit: banked L2 service.
    L2Service,
    /// `l2_serve → dram_arrive`: L2 miss pipeline + DRAM admission wait.
    L2ToDram,
    /// `dram_arrive → dram_issue`: DRAM scheduler-queue wait under FR-FCFS
    /// (the paper's 39% locus).
    DramQueue,
    /// `dram_issue → dram_data`: row activate + burst transfer.
    DramService,
    /// `dram_data → resp_inject`: DRAM return path back through the L2 fill.
    DramToResp,
    /// `resp_inject → returned`: response crossbar traversal and L1 fill.
    RespNoc,
    /// `icnt_inject → returned` in fixed-latency memory mode.
    FixedMemory,
    /// `dram_arrive → dram_issue` for the write path (stores and L2
    /// writebacks, which terminate at DRAM and produce no response).
    WbQueue,
    /// `dram_issue → dram_data` for the write path.
    WbService,
}

/// The paper's Fig. 4–6 decomposition class of a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageClass {
    /// Time spent waiting in a queue for a downstream resource.
    Queueing,
    /// Time spent actually being serviced by a component.
    Service,
    /// Interconnect traversal (reported separately from both).
    Network,
}

impl Stage {
    /// Every stage, in canonical report order.
    pub const ALL: [Stage; 15] = [
        Stage::L1Hit,
        Stage::IssueToL1,
        Stage::L1MergeWait,
        Stage::L1ToIcnt,
        Stage::ReqNoc,
        Stage::L2Queue,
        Stage::L2Service,
        Stage::L2ToDram,
        Stage::DramQueue,
        Stage::DramService,
        Stage::DramToResp,
        Stage::RespNoc,
        Stage::FixedMemory,
        Stage::WbQueue,
        Stage::WbService,
    ];

    /// Stable snake_case name used in reports and golden files.
    pub fn name(self) -> &'static str {
        match self {
            Stage::L1Hit => "l1_hit",
            Stage::IssueToL1 => "issue_to_l1",
            Stage::L1MergeWait => "l1_merge_wait",
            Stage::L1ToIcnt => "l1_to_icnt",
            Stage::ReqNoc => "req_noc",
            Stage::L2Queue => "l2_queue",
            Stage::L2Service => "l2_service",
            Stage::L2ToDram => "l2_to_dram",
            Stage::DramQueue => "dram_queue",
            Stage::DramService => "dram_service",
            Stage::DramToResp => "dram_to_resp",
            Stage::RespNoc => "resp_noc",
            Stage::FixedMemory => "fixed_memory",
            Stage::WbQueue => "wb_queue",
            Stage::WbService => "wb_service",
        }
    }

    /// Queueing / service / network classification.
    pub fn class(self) -> StageClass {
        match self {
            Stage::L1ToIcnt
            | Stage::L1MergeWait
            | Stage::L2Queue
            | Stage::L2ToDram
            | Stage::DramQueue
            | Stage::DramToResp
            | Stage::WbQueue => StageClass::Queueing,
            Stage::L1Hit
            | Stage::IssueToL1
            | Stage::L2Service
            | Stage::DramService
            | Stage::FixedMemory
            | Stage::WbService => StageClass::Service,
            Stage::ReqNoc | Stage::RespNoc => StageClass::Network,
        }
    }

    /// True for stages that lie on a load's `issued..returned` path and so
    /// participate in the stage-sum ↔ end-to-end reconciliation (the DRAM
    /// write-path stages do not: writes never return).
    pub fn on_load_path(self) -> bool {
        !matches!(self, Stage::WbQueue | Stage::WbService)
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl StageClass {
    /// Stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            StageClass::Queueing => "queueing",
            StageClass::Service => "service",
            StageClass::Network => "network",
        }
    }
}

/// Maps an adjacent stamped pair to its stage. `None` means the pair does
/// not correspond to any modeled pipeline path (counted, never recorded).
fn stage_of(prev: Stamp, next: Stamp) -> Option<Stage> {
    match (prev, next) {
        (Stamp::Issued, Stamp::Returned) => Some(Stage::L1Hit),
        (Stamp::Issued, Stamp::L1Miss) => Some(Stage::IssueToL1),
        (Stamp::L1Miss, Stamp::Returned) => Some(Stage::L1MergeWait),
        (Stamp::L1Miss, Stamp::IcntInject) => Some(Stage::L1ToIcnt),
        (Stamp::IcntInject, Stamp::L2Arrive) => Some(Stage::ReqNoc),
        (Stamp::IcntInject, Stamp::Returned) => Some(Stage::FixedMemory),
        (Stamp::L2Arrive, Stamp::L2Serve) => Some(Stage::L2Queue),
        (Stamp::L2Serve, Stamp::RespInject) => Some(Stage::L2Service),
        (Stamp::L2Serve, Stamp::DramArrive) => Some(Stage::L2ToDram),
        (Stamp::DramArrive, Stamp::DramIssue) => Some(Stage::DramQueue),
        (Stamp::DramIssue, Stamp::DramData) => Some(Stage::DramService),
        (Stamp::DramData, Stamp::RespInject) => Some(Stage::DramToResp),
        (Stamp::RespInject, Stamp::Returned) => Some(Stage::RespNoc),
        _ => None,
    }
}

/// Result of walking one timeline: the derived spans plus the anomaly
/// counters the proptests assert stay zero on real runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanWalk {
    /// `(stage, start, end)` for every adjacent stamped pair, in pipeline
    /// order. `start <= end` always (violating pairs are skipped).
    pub spans: Vec<(Stage, u64, u64)>,
    /// Adjacent pairs whose later stamp precedes the earlier one.
    pub monotone_violations: u64,
    /// Adjacent pairs that match no modeled pipeline path.
    pub unknown_pairs: u64,
}

/// Walks a completed timeline into its telescoping stage spans.
pub fn stage_spans(t: &FetchTimeline) -> SpanWalk {
    let stamps = [
        (Stamp::Issued, t.issued),
        (Stamp::L1Miss, t.l1_miss),
        (Stamp::IcntInject, t.icnt_inject),
        (Stamp::L2Arrive, t.l2_arrive),
        (Stamp::L2Serve, t.l2_serve),
        (Stamp::DramArrive, t.dram_arrive),
        (Stamp::DramIssue, t.dram_issue),
        (Stamp::DramData, t.dram_data),
        (Stamp::RespInject, t.resp_inject),
        (Stamp::Returned, t.returned),
    ];
    let mut walk = SpanWalk::default();
    let mut prev: Option<(Stamp, Cycle)> = None;
    for (kind, at) in stamps {
        let Some(at) = at.get() else { continue };
        if let Some((pk, pc)) = prev {
            if at < pc {
                walk.monotone_violations += 1;
            } else {
                match stage_of(pk, kind) {
                    Some(stage) => walk.spans.push((stage, pc.raw(), at.raw())),
                    None => walk.unknown_pairs += 1,
                }
            }
        }
        prev = Some((kind, at));
    }
    walk
}

/// Tracing knobs. The defaults keep memory bounded on full-length runs
/// while still resolving the congestion features the paper discusses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Sample queue occupancy on cycles where `now % occupancy_cadence == 0`.
    pub occupancy_cadence: u64,
    /// Stop sampling a series after this many points (deterministic cutoff).
    pub max_occupancy_samples: usize,
    /// Slowest fetches retained per core while the run is in flight.
    pub slowest_per_core: usize,
    /// Slowest fetches surfaced in the final report / Chrome export.
    pub slowest_reported: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            occupancy_cadence: 1024,
            max_occupancy_samples: 512,
            slowest_per_core: 32,
            slowest_reported: 16,
        }
    }
}

/// A queue-depth time series sampled on the deterministic cadence.
///
/// Sampling is a pure function of the cycle number, so the event-driven
/// engine backfills skipped stretches (during which the machine is provably
/// inert) with the frozen depth and stays bit-identical to per-cycle
/// stepping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancyProbe {
    cadence: u64,
    max_samples: usize,
    samples: Vec<OccupancyPoint>,
}

impl OccupancyProbe {
    /// Creates an empty probe.
    pub fn new(cfg: &TraceConfig) -> Self {
        OccupancyProbe {
            cadence: cfg.occupancy_cadence.max(1),
            max_samples: cfg.max_occupancy_samples,
            samples: Vec::new(),
        }
    }

    /// Records `depth` if `now` lies on the cadence and the cap allows.
    /// Call once per stepped cycle, at pre-step state.
    #[inline]
    pub fn sample(&mut self, now: Cycle, depth: u64) {
        if now.raw().is_multiple_of(self.cadence) && self.samples.len() < self.max_samples {
            self.samples.push(OccupancyPoint {
                cycle: now.raw(),
                depth,
            });
        }
    }

    /// Records the frozen `depth` at every cadence point in
    /// `[start, start + cycles)` — the stretch a fast-forward skipped.
    pub fn backfill(&mut self, start: Cycle, cycles: u64, depth: u64) {
        let start = start.raw();
        let Some(end) = start.checked_add(cycles) else {
            return;
        };
        // First cadence multiple >= start.
        let mut c = start.div_ceil(self.cadence).saturating_mul(self.cadence);
        while c < end && self.samples.len() < self.max_samples {
            self.samples.push(OccupancyPoint { cycle: c, depth });
            c = match c.checked_add(self.cadence) {
                Some(next) => next,
                None => break,
            };
        }
    }

    /// The sampled points, in cycle order.
    pub fn points(&self) -> &[OccupancyPoint] {
        &self.samples
    }

    /// The sampling cadence.
    pub fn cadence(&self) -> u64 {
        self.cadence
    }

    /// Consumes the probe into a named series for the report.
    pub fn into_series(self, component: String, queue: &'static str) -> OccupancySeries {
        OccupancySeries {
            component,
            queue: queue.to_owned(),
            cadence: self.cadence,
            samples: self.samples,
        }
    }

    /// Snapshots the probe into a named series without consuming it (the
    /// report builder reads live probes through shared references).
    pub fn to_series(&self, component: String, queue: &'static str) -> OccupancySeries {
        OccupancySeries {
            component,
            queue: queue.to_owned(),
            cadence: self.cadence,
            samples: self.samples.clone(),
        }
    }
}

/// A compact record of one slow fetch, kept while the run is in flight.
/// Everything is `Copy` so capture stays allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlowSeed {
    latency: u64,
    fetch_id: u64,
    core: u64,
    partition: i64,
    line: u64,
    is_store: bool,
    timeline: FetchTimeline,
}

/// Accumulates the latency breakdown for one SIMT core. Per-core
/// collectors are merged in core-index order by the report builder; every
/// operation is commutative, so the merged result is independent of the
/// engine.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCollector {
    cfg: TraceConfig,
    stage_hist: Vec<Log2Histogram>,
    end_to_end: Log2Histogram,
    fetches_traced: u64,
    incomplete: u64,
    monotone_violations: u64,
    unknown_pairs: u64,
    slowest: Vec<SlowSeed>,
    /// Once the retained set has been compacted to capacity, any seed with a
    /// latency strictly below this floor can never enter the top set.
    slow_floor: Option<u64>,
}

impl TraceCollector {
    /// Creates an empty collector.
    pub fn new(cfg: TraceConfig) -> Self {
        TraceCollector {
            cfg,
            stage_hist: vec![Log2Histogram::new(); Stage::ALL.len()],
            end_to_end: Log2Histogram::new(),
            fetches_traced: 0,
            incomplete: 0,
            monotone_violations: 0,
            unknown_pairs: 0,
            slowest: Vec::new(),
            slow_floor: None,
        }
    }

    /// Records a completed fetch from its own timeline. Called at the single
    /// completion point (the core's response-acceptance / L1-hit pop path).
    pub fn record_fetch(&mut self, fetch: &MemFetch) {
        let t = &fetch.timeline;
        let (Some(issued), Some(returned)) = (t.issued.get(), t.returned.get()) else {
            self.incomplete += 1;
            return;
        };
        let walk = stage_spans(t);
        self.monotone_violations += walk.monotone_violations;
        self.unknown_pairs += walk.unknown_pairs;
        for (stage, start, end) in &walk.spans {
            self.stage_hist[stage.index()].record(end - start);
        }
        let latency = returned.since(issued);
        self.end_to_end.record(latency);
        self.fetches_traced += 1;
        self.offer_slow(SlowSeed {
            latency,
            fetch_id: fetch.id.raw(),
            core: fetch.core.index() as u64,
            partition: fetch.partition.map_or(-1, |p| p.index() as i64),
            line: fetch.line.index(),
            is_store: matches!(fetch.kind, AccessKind::Store),
            timeline: *t,
        });
    }

    /// Folds an externally accumulated write-path histogram (the DRAM
    /// channel's, whose fetches terminate there) into a stage slot.
    pub fn absorb_stage(&mut self, stage: Stage, hist: &Log2Histogram) {
        self.stage_hist[stage.index()].merge(hist);
    }

    fn offer_slow(&mut self, seed: SlowSeed) {
        if let Some(floor) = self.slow_floor {
            // Strictly below the floor can never displace a retained seed;
            // equal-latency seeds go through so id tie-breaking stays exact.
            if seed.latency < floor {
                return;
            }
        }
        let cap = self.cfg.slowest_per_core.max(1);
        self.slowest.push(seed);
        if self.slowest.len() >= cap * 2 {
            self.compact_slow(cap);
        }
    }

    fn compact_slow(&mut self, cap: usize) {
        // Slowest first; ties (impossible between distinct fetches of one
        // run, but cheap to pin down) broken by ascending fetch id.
        self.slowest
            .sort_by(|a, b| b.latency.cmp(&a.latency).then(a.fetch_id.cmp(&b.fetch_id)));
        self.slowest.truncate(cap);
        if self.slowest.len() == cap {
            self.slow_floor = Some(self.slowest[cap - 1].latency);
        }
    }

    /// Merges another collector (e.g. another core's) into this one.
    pub fn merge(&mut self, other: &TraceCollector) {
        for (a, b) in self.stage_hist.iter_mut().zip(&other.stage_hist) {
            a.merge(b);
        }
        self.end_to_end.merge(&other.end_to_end);
        self.fetches_traced += other.fetches_traced;
        self.incomplete += other.incomplete;
        self.monotone_violations += other.monotone_violations;
        self.unknown_pairs += other.unknown_pairs;
        self.slowest.extend_from_slice(&other.slowest);
        self.compact_slow(self.cfg.slowest_per_core.max(1));
    }

    /// Builds the report section, attaching the given occupancy series.
    pub fn breakdown(&self, occupancy: Vec<OccupancySeries>) -> LatencyBreakdown {
        let mut stages = Vec::new();
        let mut class_totals = [0u64; 3];
        let mut stage_total = 0u64;
        for stage in Stage::ALL {
            let hist = &self.stage_hist[stage.index()];
            if hist.count() == 0 {
                continue;
            }
            let class = stage.class();
            if stage.on_load_path() {
                stage_total += hist.sum();
                class_totals[class as usize] += hist.sum();
            }
            stages.push(StageStat {
                stage: stage.name().to_owned(),
                class: class.name().to_owned(),
                count: hist.count(),
                total_cycles: hist.sum(),
                mean: hist.mean(),
                min: hist.min().unwrap_or(0),
                max: hist.max().unwrap_or(0),
                histogram: hist.clone(),
            });
        }
        let mut seeds = self.slowest.clone();
        seeds.sort_by(|a, b| b.latency.cmp(&a.latency).then(a.fetch_id.cmp(&b.fetch_id)));
        seeds.truncate(self.cfg.slowest_reported);
        let slowest = seeds
            .iter()
            .map(|s| SlowFetch {
                fetch_id: s.fetch_id,
                core: s.core,
                partition: s.partition,
                line: s.line,
                kind: if s.is_store { "store" } else { "load" }.to_owned(),
                latency: s.latency,
                spans: stage_spans(&s.timeline)
                    .spans
                    .iter()
                    .map(|(stage, start, end)| StageSpan {
                        stage: stage.name().to_owned(),
                        start: *start,
                        end: *end,
                    })
                    .collect(),
            })
            .collect();
        LatencyBreakdown {
            fetches_traced: self.fetches_traced,
            incomplete_fetches: self.incomplete,
            monotone_violations: self.monotone_violations,
            unknown_pairs: self.unknown_pairs,
            end_to_end_count: self.end_to_end.count(),
            end_to_end_total_cycles: self.end_to_end.sum(),
            stage_total_cycles: stage_total,
            queueing_cycles: class_totals[StageClass::Queueing as usize],
            service_cycles: class_totals[StageClass::Service as usize],
            network_cycles: class_totals[StageClass::Network as usize],
            end_to_end: self.end_to_end.clone(),
            stages,
            slowest,
            occupancy,
        }
    }

    /// The configured trace knobs.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }
}

/// Per-stage aggregate in the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageStat {
    /// Stage name (see [`Stage::name`]).
    pub stage: String,
    /// Queueing / service / network classification.
    pub class: String,
    /// Spans recorded.
    pub count: u64,
    /// Total cycles across all spans.
    pub total_cycles: u64,
    /// Mean span length.
    pub mean: f64,
    /// Shortest span.
    pub min: u64,
    /// Longest span.
    pub max: u64,
    /// Log2-bucketed span-length distribution.
    pub histogram: Log2Histogram,
}

/// One stage interval of a slow fetch, in absolute cycles.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSpan {
    /// Stage name.
    pub stage: String,
    /// Span start (cycle).
    pub start: u64,
    /// Span end (cycle).
    pub end: u64,
}

/// One of the N slowest fetches of the run, with its full lifecycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowFetch {
    /// The fetch id.
    pub fetch_id: u64,
    /// Issuing core index.
    pub core: u64,
    /// Servicing partition index, or -1 if never assigned.
    pub partition: i64,
    /// Cache line addressed.
    pub line: u64,
    /// "load" or "store".
    pub kind: String,
    /// End-to-end latency in cycles.
    pub latency: u64,
    /// Telescoping stage spans.
    pub spans: Vec<StageSpan>,
}

/// One occupancy sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OccupancyPoint {
    /// Sampled cycle (a cadence multiple).
    pub cycle: u64,
    /// Queue depth at pre-step state of that cycle.
    pub depth: u64,
}

/// A named per-component queue-occupancy time series.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OccupancySeries {
    /// Component instance, e.g. `core3` or `partition1`.
    pub component: String,
    /// Which queue of the component, e.g. `l2_access`.
    pub queue: String,
    /// Sampling cadence in cycles.
    pub cadence: u64,
    /// The samples, in cycle order.
    pub samples: Vec<OccupancyPoint>,
}

/// The `latency_breakdown` section of `SimReport`. Present only when
/// tracing was enabled; the whole report stays bit-identical to an untraced
/// run otherwise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Completed fetches recorded.
    pub fetches_traced: u64,
    /// Fetches that completed without both endpoint stamps (always 0 on a
    /// healthy run).
    pub incomplete_fetches: u64,
    /// Adjacent stamp pairs that violated pipeline order (always 0).
    pub monotone_violations: u64,
    /// Adjacent stamp pairs matching no modeled path (always 0).
    pub unknown_pairs: u64,
    /// Samples in the end-to-end histogram.
    pub end_to_end_count: u64,
    /// Total end-to-end cycles across all traced fetches.
    pub end_to_end_total_cycles: u64,
    /// Total cycles across all load-path stage spans. Equals
    /// `end_to_end_total_cycles` exactly (the telescoping invariant).
    pub stage_total_cycles: u64,
    /// Load-path cycles spent in queueing stages.
    pub queueing_cycles: u64,
    /// Load-path cycles spent in service stages.
    pub service_cycles: u64,
    /// Load-path cycles spent traversing the interconnect.
    pub network_cycles: u64,
    /// End-to-end latency distribution.
    pub end_to_end: Log2Histogram,
    /// Per-stage aggregates, canonical order, zero-count stages omitted.
    pub stages: Vec<StageStat>,
    /// The N slowest fetches with full lifecycles.
    pub slowest: Vec<SlowFetch>,
    /// Per-component queue-occupancy time series.
    pub occupancy: Vec<OccupancySeries>,
}

impl LatencyBreakdown {
    /// True when every stage sum reconciles with the end-to-end total and
    /// no anomaly counter fired.
    pub fn reconciles(&self) -> bool {
        self.stage_total_cycles == self.end_to_end_total_cycles
            && self.monotone_violations == 0
            && self.unknown_pairs == 0
            && self.incomplete_fetches == 0
    }

    /// Fraction of load-path cycles attributed to queueing (the paper's
    /// congestion share), or 0.0 if nothing was traced.
    pub fn queueing_fraction(&self) -> f64 {
        if self.stage_total_cycles == 0 {
            0.0
        } else {
            self.queueing_cycles as f64 / self.stage_total_cycles as f64
        }
    }
}

/// One Chrome trace-event (`chrome://tracing` / Perfetto "X" complete
/// event). Cycle numbers are emitted as microsecond timestamps.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChromeEvent {
    /// Event name (the stage).
    pub name: String,
    /// Category.
    pub cat: String,
    /// Phase: always "X" (complete event with duration).
    pub ph: String,
    /// Start timestamp (cycle).
    pub ts: u64,
    /// Duration (cycles).
    pub dur: u64,
    /// Process id lane: the issuing core.
    pub pid: u64,
    /// Thread id lane: the fetch id.
    pub tid: u64,
    /// Extra fields displayed by the viewer.
    pub args: ChromeArgs,
}

/// The `args` payload of a [`ChromeEvent`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChromeArgs {
    /// Cache line addressed.
    pub line: u64,
    /// "load" or "store".
    pub kind: String,
    /// Servicing partition, or -1.
    pub partition: i64,
    /// The fetch's end-to-end latency.
    pub latency: u64,
}

/// Renders the slowest fetches as a Chrome trace-event array, loadable in
/// `chrome://tracing` or Perfetto.
pub fn chrome_trace_events(slowest: &[SlowFetch]) -> Vec<ChromeEvent> {
    let mut events = Vec::new();
    for fetch in slowest {
        for span in &fetch.spans {
            events.push(ChromeEvent {
                name: span.stage.clone(),
                cat: "fetch".to_owned(),
                ph: "X".to_owned(),
                ts: span.start,
                dur: span.end - span.start,
                pid: fetch.core,
                tid: fetch.fetch_id,
                args: ChromeArgs {
                    line: fetch.line,
                    kind: fetch.kind.clone(),
                    partition: fetch.partition,
                    latency: fetch.latency,
                },
            });
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_types::{CoreId, CycleStamp, FetchId, LineAddr};

    fn timeline(stamps: &[(usize, u64)]) -> FetchTimeline {
        let mut t = FetchTimeline::default();
        for &(idx, at) in stamps {
            let slot = match idx {
                0 => &mut t.issued,
                1 => &mut t.l1_miss,
                2 => &mut t.icnt_inject,
                3 => &mut t.l2_arrive,
                4 => &mut t.l2_serve,
                5 => &mut t.dram_arrive,
                6 => &mut t.dram_issue,
                7 => &mut t.dram_data,
                8 => &mut t.resp_inject,
                9 => &mut t.returned,
                _ => unreachable!(),
            };
            *slot = CycleStamp::at(Cycle::new(at));
        }
        t
    }

    fn full_miss() -> FetchTimeline {
        timeline(&[
            (0, 10),
            (1, 12),
            (2, 20),
            (3, 25),
            (4, 40),
            (5, 45),
            (6, 90),
            (7, 110),
            (8, 115),
            (9, 130),
        ])
    }

    #[test]
    fn full_miss_telescopes() {
        let walk = stage_spans(&full_miss());
        assert_eq!(walk.monotone_violations, 0);
        assert_eq!(walk.unknown_pairs, 0);
        assert_eq!(walk.spans.len(), 9);
        let sum: u64 = walk.spans.iter().map(|(_, s, e)| e - s).sum();
        assert_eq!(sum, 120, "stage spans telescope to returned - issued");
        assert_eq!(walk.spans[0].0, Stage::IssueToL1);
        assert_eq!(walk.spans[5].0, Stage::DramQueue);
        assert_eq!(walk.spans[8].0, Stage::RespNoc);
    }

    #[test]
    fn l1_hit_l2_hit_and_fixed_paths() {
        let hit = stage_spans(&timeline(&[(0, 5), (9, 6)]));
        assert_eq!(hit.spans, vec![(Stage::L1Hit, 5, 6)]);

        let l2_hit = stage_spans(&timeline(&[
            (0, 1),
            (1, 2),
            (2, 4),
            (3, 8),
            (4, 16),
            (8, 20),
            (9, 32),
        ]));
        assert!(l2_hit.spans.contains(&(Stage::L2Service, 16, 20)));
        assert_eq!(l2_hit.unknown_pairs, 0);

        let fixed = stage_spans(&timeline(&[(0, 1), (1, 2), (2, 4), (9, 204)]));
        assert!(fixed.spans.contains(&(Stage::FixedMemory, 4, 204)));

        let merged = stage_spans(&timeline(&[(0, 1), (1, 2), (9, 300)]));
        assert!(merged.spans.contains(&(Stage::L1MergeWait, 2, 300)));
    }

    #[test]
    fn non_monotone_pair_is_counted_not_recorded() {
        let walk = stage_spans(&timeline(&[(0, 10), (1, 5), (9, 20)]));
        assert_eq!(walk.monotone_violations, 1);
    }

    #[test]
    fn collector_reconciles_and_ranks_slowest() {
        let mut c = TraceCollector::new(TraceConfig {
            slowest_per_core: 2,
            slowest_reported: 2,
            ..TraceConfig::default()
        });
        for (i, lat) in [100u64, 500, 300, 50].iter().enumerate() {
            let mut f = MemFetch::new(
                FetchId::new(i as u64),
                AccessKind::Load,
                LineAddr::new(i as u64),
                CoreId::new(0),
            );
            f.timeline = timeline(&[(0, 10), (9, 10 + lat)]);
            c.record_fetch(&f);
        }
        let b = c.breakdown(Vec::new());
        assert!(b.reconciles());
        assert_eq!(b.fetches_traced, 4);
        assert_eq!(b.end_to_end_total_cycles, 950);
        assert_eq!(b.stage_total_cycles, 950);
        assert_eq!(b.slowest.len(), 2);
        assert_eq!(b.slowest[0].latency, 500);
        assert_eq!(b.slowest[1].latency, 300);
    }

    #[test]
    fn collector_merge_matches_single_stream() {
        let cfg = TraceConfig::default();
        let mut all = TraceCollector::new(cfg);
        let mut a = TraceCollector::new(cfg);
        let mut b = TraceCollector::new(cfg);
        for i in 0..20u64 {
            let mut f = MemFetch::new(
                FetchId::new(i),
                AccessKind::Load,
                LineAddr::new(i),
                CoreId::new((i % 2) as u32),
            );
            f.timeline = timeline(&[(0, i), (1, i + 2), (2, i + 5), (9, i + 40 + i % 7)]);
            all.record_fetch(&f);
            if i % 2 == 0 {
                a.record_fetch(&f);
            } else {
                b.record_fetch(&f);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.breakdown(Vec::new()), ba.breakdown(Vec::new()));
        assert_eq!(ab.breakdown(Vec::new()), all.breakdown(Vec::new()));
    }

    #[test]
    fn probe_backfill_matches_stepping() {
        let cfg = TraceConfig {
            occupancy_cadence: 8,
            ..TraceConfig::default()
        };
        let mut stepped = OccupancyProbe::new(&cfg);
        for c in 0..60u64 {
            stepped.sample(Cycle::new(c), 3);
        }
        let mut skipped = OccupancyProbe::new(&cfg);
        for c in 0..13u64 {
            skipped.sample(Cycle::new(c), 3);
        }
        skipped.backfill(Cycle::new(13), 33, 3); // cycles 13..46 skipped
        for c in 46..60u64 {
            skipped.sample(Cycle::new(c), 3);
        }
        assert_eq!(stepped.points(), skipped.points());
    }

    #[test]
    fn probe_respects_cap() {
        let cfg = TraceConfig {
            occupancy_cadence: 1,
            max_occupancy_samples: 4,
            ..TraceConfig::default()
        };
        let mut p = OccupancyProbe::new(&cfg);
        for c in 0..10u64 {
            p.sample(Cycle::new(c), c);
        }
        assert_eq!(p.points().len(), 4);
        let mut q = OccupancyProbe::new(&cfg);
        q.backfill(Cycle::ZERO, 10, 7);
        assert_eq!(q.points().len(), 4);
    }

    #[test]
    fn chrome_export_shapes_events() {
        let slow = SlowFetch {
            fetch_id: 42,
            core: 1,
            partition: 0,
            line: 9,
            kind: "load".to_owned(),
            latency: 120,
            spans: vec![
                StageSpan {
                    stage: "issue_to_l1".to_owned(),
                    start: 10,
                    end: 12,
                },
                StageSpan {
                    stage: "resp_noc".to_owned(),
                    start: 115,
                    end: 130,
                },
            ],
        };
        let events = chrome_trace_events(&[slow]);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].ph, "X");
        assert_eq!(events[1].dur, 15);
        let json = serde_json::to_string(&events).unwrap();
        assert!(json.contains("\"name\":\"issue_to_l1\""));
    }
}
