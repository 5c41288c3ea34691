//! The structured result of a simulation run.

use gpumem_cache::L1Stats;
use gpumem_dram::DramStats;
use gpumem_noc::{Crossbar, CrossbarStats};
use gpumem_simt::{CoreStats, SimtCore};
use gpumem_trace::{LatencyBreakdown, OccupancySeries, Stage, TraceCollector};
use gpumem_types::{Cycle, HostStopwatch, LatencyStats, QueueStats};
use serde::{Deserialize, Serialize};

use crate::{L2Stats, MemoryPartition};

/// L1-side aggregates (summed over cores).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct L1Report {
    /// Controller counters.
    pub stats: L1Stats,
    /// Miss-queue occupancy.
    pub miss_queue: QueueStats,
    /// LSU memory-pipeline occupancy.
    pub lsu_queue: QueueStats,
    /// Observed L1 miss latencies (the paper's Fig. 1 x-axis quantity).
    pub miss_latency: LatencyStats,
}

/// L2-side aggregates (summed over partitions).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct L2Report {
    /// Slice counters.
    pub stats: L2Stats,
    /// Access-queue occupancy — Section III's "full 46% of usage
    /// lifetime" metric is [`QueueStats::full_fraction_of_usage`] of this.
    pub access_queue: QueueStats,
    /// Miss-queue (towards DRAM) occupancy.
    pub miss_queue: QueueStats,
    /// Response-queue (fills from DRAM) occupancy.
    pub response_queue: QueueStats,
    /// Response path towards the interconnect.
    pub to_icnt_queue: QueueStats,
}

/// DRAM-side aggregates (summed over channels).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DramReport {
    /// Channel counters.
    pub stats: DramStats,
    /// Scheduler-queue occupancy (read and write queues merged) —
    /// Section III's "full 39% of usage lifetime" metric.
    pub scheduler_queue: QueueStats,
    /// Return-queue occupancy.
    pub return_queue: QueueStats,
    /// Request service latency (channel arrival → data).
    pub service_latency: LatencyStats,
}

/// Interconnect aggregates.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NocReport {
    /// Request crossbar (cores → partitions).
    pub request: CrossbarStats,
    /// Response crossbar (partitions → cores).
    pub response: CrossbarStats,
    /// Request-network input-buffer occupancy.
    pub request_inputs: QueueStats,
    /// Response-network input-buffer occupancy.
    pub response_inputs: QueueStats,
}

/// Host-side (wall-clock) performance of one simulation run.
///
/// This is metadata about the simulator, not the simulated machine: two
/// runs of the same simulation legitimately differ here, so any
/// determinism or differential comparison must ignore (or `None` out) the
/// [`SimReport::host`] field before comparing.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HostPerf {
    /// Wall-clock seconds the run took on the host.
    pub wall_seconds: f64,
    /// Simulated cycles per host second (`cycles / wall_seconds`).
    pub cycles_per_sec: f64,
    /// Cycles advanced one at a time through the full per-cycle loop.
    pub stepped_cycles: u64,
    /// Cycles crossed in bulk by jumps to the next event.
    pub skipped_cycles: u64,
    /// `skipped_cycles / cycles` — how much of the simulated time was
    /// provably inert and skipped.
    pub skipped_fraction: f64,
}

/// Host-time attribution for one run, reported by
/// [`GpuSimulator::run_profiled`](crate::GpuSimulator::run_profiled) and
/// surfaced by `repro run --profile`.
///
/// Buckets are measured at the stage boundaries of
/// [`step`](crate::GpuSimulator::step); the L1 and DRAM shares are
/// measured by hooks inside the core and partition models and subtracted
/// from their enclosing stage, so the six buckets partition at most
/// `wall_seconds`.
#[derive(Debug, Clone, Default, Serialize)]
pub struct EngineProfile {
    /// Total wall time of the run.
    pub wall_seconds: f64,
    /// The run loop itself: `next_event`, the whole-machine jump, CTA
    /// dispatch, liveness and conservation checks — everything not
    /// attributed to a component stage.
    pub scheduler_seconds: f64,
    /// SIMT core stages (issue, scoreboard, LSU) excluding the L1 share.
    pub cores_seconds: f64,
    /// L1 data-cache work (hit wake-up, port access, fills).
    pub l1_seconds: f64,
    /// Request + response crossbar ticks and observation.
    pub crossbar_seconds: f64,
    /// Memory-partition stages (L2 queues, banks, MSHRs) excluding DRAM.
    pub partitions_seconds: f64,
    /// DRAM channel work (or the fixed-latency memory in fixed mode).
    pub dram_seconds: f64,
    /// Cycles the loop executed with [`step`](crate::GpuSimulator::step).
    pub executed_cycles: u64,
    /// Cycles crossed by the whole-machine jump, without host work.
    pub skipped_cycles: u64,
    /// Core-cycles run: `executed_cycles × num_cores`, less the executed
    /// cycles that finished cores sat out parked (a core with no CTA left
    /// once the whole grid is dispatched, and nothing in flight).
    pub core_runs: u64,
    /// Partition-cycles run: `executed_cycles × num_partitions` in
    /// hierarchy mode, 0 in fixed-latency mode.
    pub partition_runs: u64,
    /// Request-crossbar ticks: `executed_cycles` in hierarchy mode, 0 in
    /// fixed-latency mode.
    pub req_xbar_ticks: u64,
    /// Response-crossbar ticks: `executed_cycles` in hierarchy mode, 0 in
    /// fixed-latency mode.
    pub resp_xbar_ticks: u64,
}

/// The stage of [`step`](crate::GpuSimulator::step) a profiling lap is
/// charged to.
#[derive(Clone, Copy)]
pub(crate) enum Bucket {
    Sched,
    Cores,
    Xbar,
    Parts,
    Mem,
}

/// The stopwatch of a profiled run: host seconds per [`Bucket`], lapped
/// at stage boundaries.
pub(crate) struct StageClock {
    sw: HostStopwatch,
    last: f64,
    pub(crate) sched: f64,
    pub(crate) cores: f64,
    pub(crate) xbar: f64,
    pub(crate) parts: f64,
    pub(crate) mem: f64,
    /// Stepped cycles that parked cores sat out.
    pub(crate) parked_core_cycles: u64,
}

impl StageClock {
    /// A clock whose first lap counts from `sw`'s start.
    pub(crate) fn new(sw: HostStopwatch) -> Self {
        StageClock {
            sw,
            last: 0.0,
            sched: 0.0,
            cores: 0.0,
            xbar: 0.0,
            parts: 0.0,
            mem: 0.0,
            parked_core_cycles: 0,
        }
    }
}

/// Charges the time since the previous lap to `bucket`, if profiling.
#[inline]
pub(crate) fn lap(clock: &mut Option<Box<StageClock>>, bucket: Bucket) {
    if let Some(c) = clock {
        let t = c.sw.elapsed_seconds();
        let d = t - c.last;
        c.last = t;
        match bucket {
            Bucket::Sched => c.sched += d,
            Bucket::Cores => c.cores += d,
            Bucket::Xbar => c.xbar += d,
            Bucket::Parts => c.parts += d,
            Bucket::Mem => c.mem += d,
        }
    }
}

/// Everything measured in one simulation run.
///
/// Serializable so the repro harness can persist raw results next to
/// `EXPERIMENTS.md`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimReport {
    /// Benchmark (kernel) name.
    pub benchmark: String,
    /// Memory mode the run used ("hierarchy" or "fixed-latency(N)").
    pub mode: String,
    /// Cycles simulated until completion.
    pub cycles: u64,
    /// Warp instructions retired (all cores).
    pub instructions: u64,
    /// Warp-instruction IPC (all cores).
    pub ipc: f64,
    /// Core-side counters (summed).
    pub core: CoreStats,
    /// L1 aggregates.
    pub l1: L1Report,
    /// L2 aggregates (absent in fixed-latency mode).
    pub l2: Option<L2Report>,
    /// DRAM aggregates (absent in fixed-latency mode).
    pub dram: Option<DramReport>,
    /// Interconnect aggregates (absent in fixed-latency mode).
    pub noc: Option<NocReport>,
    /// Host-side throughput of the run (absent for mid-run snapshots;
    /// excluded from determinism comparisons).
    pub host: Option<HostPerf>,
    /// Per-stage fetch-lifecycle latency breakdown (present only when
    /// [`enable_trace`](crate::GpuSimulator::enable_trace) was called).
    pub latency_breakdown: Option<LatencyBreakdown>,
}

impl SimReport {
    /// Mean observed L1 miss latency.
    pub fn avg_l1_miss_latency(&self) -> f64 {
        self.l1.miss_latency.mean()
    }

    /// Fraction of its usage lifetime the (aggregated) L2 access queue was
    /// full — the paper's first Section III headline number (46%).
    pub fn l2_access_queue_full_fraction(&self) -> Option<f64> {
        self.l2
            .as_ref()
            .map(|l2| l2.access_queue.full_fraction_of_usage())
    }

    /// Fraction of its usage lifetime the (aggregated) DRAM scheduler
    /// queue was full — the paper's second Section III headline number
    /// (39%).
    pub fn dram_queue_full_fraction(&self) -> Option<f64> {
        self.dram
            .as_ref()
            .map(|d| d.scheduler_queue.full_fraction_of_usage())
    }

    /// Fraction of issue cycles lost to memory stalls.
    pub fn memory_stall_fraction(&self) -> f64 {
        if self.core.cycles == 0 {
            0.0
        } else {
            (self.core.stall_memory + self.core.stall_mem_pipeline) as f64 / self.core.cycles as f64
        }
    }
}

/// Assembles a [`SimReport`] from the live components (crate-internal).
pub(crate) fn build_report(
    benchmark: &str,
    mode: &str,
    now: Cycle,
    cores: &[SimtCore],
    partitions: &[MemoryPartition],
    req_xbar: Option<&Crossbar>,
    resp_xbar: Option<&Crossbar>,
) -> SimReport {
    let mut core_stats = CoreStats::default();
    let mut l1 = L1Report::default();
    for c in cores {
        core_stats.merge(c.stats());
        l1.stats.merge(c.l1_stats());
        l1.miss_queue.merge(&c.l1_miss_queue_stats());
        l1.lsu_queue.merge(&c.lsu_queue_stats());
        l1.miss_latency.merge(c.miss_latency());
    }
    let instructions = core_stats.instructions;
    let cycles = now.raw();
    let ipc = if cycles == 0 {
        0.0
    } else {
        instructions as f64 / cycles as f64
    };

    let (l2, dram) = if partitions.is_empty() {
        (None, None)
    } else {
        let mut l2r = L2Report::default();
        let mut dr = DramReport::default();
        for p in partitions {
            l2r.stats.merge(p.stats());
            l2r.access_queue.merge(&p.access_queue_stats());
            l2r.miss_queue.merge(&p.miss_queue_stats());
            l2r.response_queue.merge(&p.response_queue_stats());
            l2r.to_icnt_queue.merge(&p.to_icnt_queue_stats());
            dr.stats.merge(p.dram().stats());
            dr.scheduler_queue.merge(&p.dram().scheduler_queue_stats());
            dr.scheduler_queue.merge(&p.dram().write_queue_stats());
            dr.return_queue.merge(&p.dram().return_queue_stats());
            dr.service_latency.merge(p.dram().service_latency());
        }
        (Some(l2r), Some(dr))
    };

    let noc = match (req_xbar, resp_xbar) {
        (Some(req), Some(resp)) => Some(NocReport {
            request: req.stats(),
            response: resp.stats(),
            request_inputs: req.input_queue_stats(),
            response_inputs: resp.input_queue_stats(),
        }),
        _ => None,
    };

    SimReport {
        benchmark: benchmark.to_owned(),
        mode: mode.to_owned(),
        cycles,
        instructions,
        ipc,
        core: core_stats,
        l1,
        l2,
        dram,
        noc,
        host: None,
        latency_breakdown: build_breakdown(cores, partitions),
    }
}

/// Merges every core's trace collector (in core index order), folds in the
/// DRAM write-path histograms and collects the occupancy series (cores
/// first, then partitions, each in index order), so the breakdown is
/// bit-identical across engines. Returns `None` when tracing was never
/// enabled.
fn build_breakdown(cores: &[SimtCore], partitions: &[MemoryPartition]) -> Option<LatencyBreakdown> {
    let mut merged: Option<TraceCollector> = None;
    for c in cores {
        if let Some(tr) = c.trace() {
            match &mut merged {
                Some(m) => m.merge(&tr.collector),
                None => merged = Some(tr.collector.clone()),
            }
        }
    }
    let mut collector = merged?;
    for p in partitions {
        if let Some(wt) = p.dram().trace() {
            collector.absorb_stage(Stage::WbQueue, &wt.queue);
            collector.absorb_stage(Stage::WbService, &wt.service);
        }
    }
    let mut occupancy: Vec<OccupancySeries> = Vec::new();
    for (i, c) in cores.iter().enumerate() {
        if let Some(tr) = c.trace() {
            occupancy.push(tr.lsu.to_series(format!("core{i}"), "lsu_queue"));
            occupancy.push(tr.l1_miss.to_series(format!("core{i}"), "l1_miss_queue"));
        }
    }
    for (i, p) in partitions.iter().enumerate() {
        if let Some(tr) = p.trace() {
            occupancy.push(tr.l2_access.to_series(format!("partition{i}"), "l2_access"));
            occupancy.push(
                tr.dram_sched
                    .to_series(format!("partition{i}"), "dram_read_sched"),
            );
        }
    }
    Some(collector.breakdown(occupancy))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_helpers_on_empty() {
        let r = SimReport {
            benchmark: "x".into(),
            mode: "hierarchy".into(),
            cycles: 0,
            instructions: 0,
            ipc: 0.0,
            core: CoreStats::default(),
            l1: L1Report::default(),
            l2: None,
            dram: None,
            noc: None,
            host: None,
            latency_breakdown: None,
        };
        assert_eq!(r.avg_l1_miss_latency(), 0.0);
        assert_eq!(r.l2_access_queue_full_fraction(), None);
        assert_eq!(r.dram_queue_full_fraction(), None);
        assert_eq!(r.memory_stall_fraction(), 0.0);
    }

    #[test]
    fn report_serializes() {
        let r = SimReport {
            benchmark: "x".into(),
            mode: "fixed-latency(100)".into(),
            cycles: 10,
            instructions: 5,
            ipc: 0.5,
            core: CoreStats::default(),
            l1: L1Report::default(),
            l2: Some(L2Report::default()),
            dram: Some(DramReport::default()),
            noc: None,
            host: Some(HostPerf {
                wall_seconds: 0.25,
                cycles_per_sec: 40.0,
                stepped_cycles: 6,
                skipped_cycles: 4,
                skipped_fraction: 0.4,
            }),
            latency_breakdown: None,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: SimReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.benchmark, "x");
        assert_eq!(back.cycles, 10);
        assert!(back.l2.is_some());
        assert_eq!(back.host.as_ref().map(|h| h.skipped_cycles), Some(4));
        assert!(back.latency_breakdown.is_none());
    }

    /// Result files written before the parallel engine was removed carry
    /// `degraded` (null or an object) and `host.{threads, epoch_rounds,
    /// epoch_cycles, max_epoch}`. The fixture is two such reports, emitted
    /// by the last commit that had those fields (a 2-thread run and a
    /// worker-panic run that degraded); both must still load, with the
    /// dropped keys ignored and everything else intact.
    #[test]
    fn reports_written_before_the_parallel_engine_was_removed_still_load() {
        let text = include_str!("../tests/fixtures/reports_before_two_engines.json");
        for key in ["\"degraded\":{", "\"threads\":2", "\"epoch_rounds\":193"] {
            assert!(text.contains(key), "fixture lost its legacy key {key}");
        }
        let reports: Vec<SimReport> = serde_json::from_str(text).unwrap();
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert_eq!((r.cycles, r.instructions), (1108, 192));
            assert_eq!(r.l1.stats.load_misses, 98);
            assert_eq!(r.host.as_ref().map(|h| h.stepped_cycles), Some(1108));
            assert!(!serde_json::to_string(r).unwrap().contains("degraded"));
        }
    }

    fn traced_fetch(id: u64, issued: u64, returned: u64) -> gpumem_types::MemFetch {
        use gpumem_types::{AccessKind, CoreId, CycleStamp, FetchId, LineAddr, MemFetch};
        let mut f = MemFetch::new(
            FetchId::new(id),
            AccessKind::Load,
            LineAddr::new(id),
            CoreId::new(0),
        );
        f.timeline.issued = CycleStamp::at(Cycle::new(issued));
        f.timeline.returned = CycleStamp::at(Cycle::new(returned));
        f
    }

    #[test]
    fn report_with_breakdown_roundtrips() {
        use gpumem_trace::TraceConfig;
        let mut collector = TraceCollector::new(TraceConfig::default());
        collector.record_fetch(&traced_fetch(1, 0, 40));
        collector.record_fetch(&traced_fetch(2, 5, 105));
        let breakdown = collector.breakdown(Vec::new());
        assert!(breakdown.reconciles());
        let mut r = SimReport {
            benchmark: "x".into(),
            mode: "hierarchy".into(),
            cycles: 200,
            instructions: 10,
            ipc: 0.05,
            core: CoreStats::default(),
            l1: L1Report::default(),
            l2: None,
            dram: None,
            noc: None,
            host: None,
            latency_breakdown: Some(breakdown),
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: SimReport = serde_json::from_str(&json).unwrap();
        let bd = back.latency_breakdown.expect("breakdown survives");
        assert_eq!(bd.fetches_traced, 2);
        assert_eq!(bd.end_to_end_total_cycles, 40 + 100);
        assert_eq!(bd.stage_total_cycles, bd.end_to_end_total_cycles);
        // Stripping the field entirely (a pre-trace report) must still
        // deserialize, with the breakdown absent.
        r.latency_breakdown = None;
        let old_json = serde_json::to_string(&r)
            .unwrap()
            .replace(",\"latency_breakdown\":null", "");
        let old: SimReport = serde_json::from_str(&old_json).unwrap();
        assert!(old.latency_breakdown.is_none());
    }

    #[test]
    fn breakdown_merge_matches_single_collector() {
        use gpumem_trace::TraceConfig;
        // Two collectors fed disjoint fetches must merge into exactly the
        // collector that saw both — the property build_breakdown relies on
        // when folding per-core collectors in index order.
        let cfg = TraceConfig::default();
        let (mut a, mut b, mut whole) = (
            TraceCollector::new(cfg),
            TraceCollector::new(cfg),
            TraceCollector::new(cfg),
        );
        for (id, issued, returned) in [(1, 0, 64), (2, 8, 24), (3, 2, 1000)] {
            let f = traced_fetch(id, issued, returned);
            if id % 2 == 1 {
                a.record_fetch(&f)
            } else {
                b.record_fetch(&f)
            }
            whole.record_fetch(&f);
        }
        a.merge(&b);
        let (merged, direct) = (a.breakdown(Vec::new()), whole.breakdown(Vec::new()));
        assert_eq!(
            serde_json::to_string(&merged).unwrap(),
            serde_json::to_string(&direct).unwrap()
        );
        // Merging an empty collector is the identity.
        let empty = TraceCollector::new(cfg);
        whole.merge(&empty);
        assert_eq!(
            serde_json::to_string(&whole.breakdown(Vec::new())).unwrap(),
            serde_json::to_string(&direct).unwrap()
        );
    }
}
