//! Per-layer benchmark run: `layers --workload W --seed N --seconds S`.
//!
//! Everything that touches a component's own API lives here, so a later
//! signature change in a component can break only this binary, never the
//! gating `e2e` build. Three sources feed the per-layer metrics:
//!
//! * the workload itself, run untraced, with benchmark-side spans, through
//!   `run_profiled` (host time per layer) and on both engines;
//! * the `SimReport`s of those runs (simulated-machine counts, which must
//!   repeat exactly);
//! * micro-drivers that time one component on a deterministic stimulus.
//!
//! A metric whose layer does no work on the workload reads 0 with a sample
//! count of 0.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use gpumem_benchmark::spans::SpanLog;
use gpumem_benchmark::stats::summarize;
use gpumem_benchmark::workload::{
    program_of, run_pass, run_sims, setup, sweep_options, Engine, Inputs, PassResult, Sample,
    SimJob, Source, MAX_CYCLES,
};
use gpumem_benchmark::{
    digest, parse_run_args, print_result, scratch_dir, Metric, RunArgs, RunOutcome, OUT_DIR,
};
use gpumem_cache::{L1Dcache, MshrTable, TagArray};
use gpumem_config::GpuConfig;
use gpumem_dram::DramChannel;
use gpumem_noc::{Crossbar, Packet};
use gpumem_sim::{EngineProfile, GpuSimulator, KernelProgram, MemoryMode, SimReport, TraceConfig};
use gpumem_sweep::{run_sweep, Lookup, ResultStore, SweepSpec};
use gpumem_tracefmt::{encode_program, parse_str};
use gpumem_types::{
    AccessKind, BoundedQueue, CellKey, CoreId, CtaId, Cycle, FetchArena, FetchId, LineAddr,
    MemFetch, SimRng,
};
use gpumem_workloads::{extended_names, params_of, SyntheticKernel};
use serde::{Serialize, Value};

/// Timed batches per micro-driver (after one untimed batch).
const BATCHES: usize = 11;

/// Every per-layer metric except the per-benchmark rows, with its unit, in
/// reporting order. `BENCHMARK.json` lists the same names.
const METRICS: &[(&str, &str)] = &[
    ("sim.sched_ns_per_cycle", "ns/cyc"),
    ("simt.cores_ns_per_cycle", "ns/cyc"),
    ("cache.l1_ns_per_cycle", "ns/cyc"),
    ("noc.xbar_ns_per_cycle", "ns/cyc"),
    ("sim.partition_ns_per_cycle", "ns/cyc"),
    ("dram.ns_per_cycle", "ns/cyc"),
    ("sim.executed_cycles", "count"),
    ("sim.skipped_cycles", "count"),
    ("sim.skipped_frac", "ratio"),
    ("sim.core_runs", "count"),
    ("sim.partition_runs", "count"),
    ("noc.req_xbar_ticks", "count"),
    ("noc.resp_xbar_ticks", "count"),
    ("sim.profile_overhead_frac", "ratio"),
    ("workloads.build_ms", "ms"),
    ("tracefmt.encode_ms", "ms"),
    ("tracefmt.decode_ms", "ms"),
    ("sim.new_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.report_json_ms", "ms"),
    ("sweep.expand_ms", "ms"),
    ("sweep.run_cold_ms", "ms"),
    ("sweep.cells_per_s", "1/s"),
    ("sweep.warm_rerun_ms", "ms"),
    ("sim.span_overhead_frac", "ratio"),
    ("sim.event_vs_stepped", "ratio"),
    ("sim.cycles_total", "count"),
    ("sim.instructions_total", "count"),
    ("sim.ipc", "ratio"),
    ("simt.stall_memory_frac", "ratio"),
    ("simt.idle_frac", "ratio"),
    ("cache.l1_accesses", "count"),
    ("cache.l1_hit_rate", "ratio"),
    ("cache.l1_merge_rate", "ratio"),
    ("cache.l1_mshr_full_stalls", "count"),
    ("noc.req_flits", "count"),
    ("noc.resp_flits", "count"),
    ("noc.resp_credit_stall_cycles", "count"),
    ("sim.l2_accesses", "count"),
    ("sim.l2_hit_rate", "ratio"),
    ("sim.l2_accq_full_frac", "ratio"),
    ("dram.reads", "count"),
    ("dram.writes", "count"),
    ("dram.row_hit_rate", "ratio"),
    ("dram.bus_util", "ratio"),
    ("dram.schedq_full_frac", "ratio"),
    ("types.queue_push_pop_ns", "ns"),
    ("types.arena_insert_free_ns", "ns"),
    ("cache.tag_access_ns", "ns"),
    ("cache.mshr_alloc_complete_ns", "ns"),
    ("cache.l1_hit_ns", "ns"),
    ("cache.l1_miss_fill_ns", "ns"),
    ("noc.xbar_tick_saturated_ns", "ns"),
    ("dram.tick_loaded_ns", "ns"),
    ("simt.instr_synthetic_ns", "ns"),
    ("simt.instr_traced_ns", "ns"),
    ("tracefmt.decode_mb_per_s", "MB/s"),
    ("tracefmt.encode_mb_per_s", "MB/s"),
    ("sweep.commit_ms_per_cell", "ms"),
    ("sweep.lookup_hit_us", "us"),
    ("sweep.journal_bytes_per_cell", "bytes"),
    ("trace.enabled_overhead_frac", "ratio"),
];

/// Samples of every metric, by name.
#[derive(Default)]
struct Series {
    samples: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    errors: Vec<String>,
}

impl Series {
    fn push(&mut self, name: &str, value: f64) {
        self.samples.entry(name.to_owned()).or_default().push(value);
    }

    fn extend(&mut self, name: &str, values: Vec<f64>) {
        self.samples
            .entry(name.to_owned())
            .or_default()
            .extend(values);
    }

    /// Folds a pass's operation counts and failures in.
    fn account(&mut self, pass: &PassResult) {
        self.attempted += pass.attempted;
        self.errors.extend(pass.errors.iter().cloned());
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_run_args(&args).and_then(|run| measure(&run)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("layers: {e}");
            ExitCode::from(2)
        }
    }
}

fn measure(args: &RunArgs) -> Result<bool, String> {
    let scratch = scratch_dir(args.workload);
    let mut series = Series::default();
    let begin = Instant::now();

    micro_drivers(args, &scratch.join("micro"), &mut series)?;

    let mut setup_log = SpanLog::enabled();
    let ready = setup(
        args.workload,
        args.seed,
        args.workload_scale(),
        &scratch.join("setup"),
        &mut setup_log,
    )?;
    series.account(&ready.warmup);
    let cells = sweep_cells(&ready.inputs, &mut setup_log)?;
    if let Inputs::SweepCold { spec, .. } = &ready.inputs {
        warm_reruns(spec, &scratch.join("warm"), &mut series)?;
    }
    let jobs = match &ready.inputs {
        Inputs::Sims { jobs, .. } => jobs,
        _ => &cells,
    };
    for (name, ns) in setup_log.self_ns_by_name() {
        series.push(&format!("{name}_ms"), ns as f64 / 1e6);
    }

    let mut digests: Option<Vec<String>> = None;
    let mut rounds = 0;
    let last_log = loop {
        let round_start = Instant::now();
        let log = workload_round(&ready.inputs, jobs, rounds, &mut series, &mut digests);
        rounds += 1;
        // A round is long (up to five passes), so stop when another one
        // would not fit instead of overrunning `--seconds` by a round.
        if (begin.elapsed() + round_start.elapsed()).as_secs_f64() > args.seconds {
            break log;
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);

    write_spans(args, &setup_log, &last_log)?;
    for e in &series.errors {
        eprintln!("layers: {}: {e}", args.workload.name());
    }

    let mut names: Vec<(String, &'static str)> = METRICS
        .iter()
        .map(|(name, unit)| ((*name).to_owned(), *unit))
        .collect();
    for bench in extended_names() {
        names.push((format!("sim.bench.{bench}.ns_per_cycle"), "ns/cyc"));
    }
    let metrics: Vec<Metric> = names
        .into_iter()
        .map(|(name, unit)| {
            let samples = series.samples.get(&name).map_or(&[][..], Vec::as_slice);
            Metric::new(name, unit, summarize(samples))
        })
        .collect();
    let outcome = RunOutcome {
        attempted: series.attempted,
        failed: series.errors.len() as u64,
        passes: rounds,
        report_digest: digest::combine(&digests.unwrap_or_default()),
    };
    print_result(args, &outcome, &metrics);
    Ok(series.errors.is_empty())
}

fn write_spans(args: &RunArgs, setup: &SpanLog, pass: &SpanLog) -> Result<(), String> {
    let file = Value::Object(vec![
        (
            "workload".to_owned(),
            Value::String(args.workload.name().to_owned()),
        ),
        ("setup".to_owned(), setup.spans().to_value()),
        ("pass".to_owned(), pass.spans().to_value()),
    ]);
    let path = format!("{OUT_DIR}/spans_{}.json", args.workload.name());
    std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
    let body = serde_json::to_string(&file).expect("a value tree serializes");
    std::fs::write(&path, body + "\n").map_err(|e| format!("{path}: {e}"))
}

// ---------------------------------------------------------------------
// The workload, layer by layer.

/// A sweep's expanded cells as jobs that can be driven one by one (the
/// sweep itself simulates them out of sight, on its worker threads); empty
/// for a workload that already is a list of simulations.
fn sweep_cells(inputs: &Inputs, log: &mut SpanLog) -> Result<Vec<SimJob>, String> {
    let spec = match inputs {
        Inputs::Sims { .. } => return Ok(Vec::new()),
        Inputs::SweepCold { spec, .. } => spec,
    };
    let span = log.enter("sweep.expand", None, 0);
    let cells = spec.expand();
    log.exit(span);
    Ok(cells
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|cell| SimJob {
            bench: cell.benchmark.clone(),
            source: Source::Program(cell.workload.program()),
            cfg: cell.cfg,
            mode: cell.mode,
        })
        .collect())
}

/// The store's read side: the workload's grid re-run against a store that
/// already holds every cell (all hits, no simulation). Reported per layer
/// only: three `fsync`s (two journal records and `spec.json`) are most of
/// a re-run, so on a shared disk its level moves by 15–30 % between
/// campaigns an hour apart, too much to gate on.
fn warm_reruns(spec: &SweepSpec, store: &Path, series: &mut Series) -> Result<(), String> {
    const RERUNS: usize = 20;
    let options = sweep_options();
    run_sweep(spec, store, &options).map_err(|e| e.to_string())?;
    for _ in 0..RERUNS {
        let start = Instant::now();
        let summary = run_sweep(spec, store, &options).map_err(|e| e.to_string())?;
        series.push("sweep.warm_rerun_ms", start.elapsed().as_secs_f64() * 1e3);
        series.attempted += summary.cells as u64;
        if summary.cache_hits != summary.cells {
            series.errors.push(format!(
                "warm re-run hit {} of {} cells",
                summary.cache_hits, summary.cells
            ));
        }
    }
    Ok(())
}

/// Wall seconds the engine itself reports for the runs behind `reports`.
fn engine_seconds(reports: &[SimReport]) -> f64 {
    reports
        .iter()
        .map(|r| r.host.as_ref().map_or(0.0, |h| h.wall_seconds))
        .sum()
}

/// What `run_profiled` attributed over one pass.
#[derive(Default)]
struct ProfileSum {
    profile: EngineProfile,
    reports: Vec<SimReport>,
}

fn profiled_pass(jobs: &[SimJob], series: &mut Series) -> ProfileSum {
    let mut sum = ProfileSum::default();
    for job in jobs {
        series.attempted += 1;
        let run = program_of(job).and_then(|program| {
            let mut sim = GpuSimulator::new(job.cfg.clone(), program, job.mode);
            sim.run_profiled(MAX_CYCLES)
                .map_err(|e| format!("{} {}: {e}", job.bench, job.mode))
        });
        match run {
            Ok((report, p)) => {
                let s = &mut sum.profile;
                s.wall_seconds += p.wall_seconds;
                s.scheduler_seconds += p.scheduler_seconds;
                s.cores_seconds += p.cores_seconds;
                s.l1_seconds += p.l1_seconds;
                s.crossbar_seconds += p.crossbar_seconds;
                s.partitions_seconds += p.partitions_seconds;
                s.dram_seconds += p.dram_seconds;
                s.executed_cycles += p.executed_cycles;
                s.skipped_cycles += p.skipped_cycles;
                s.core_runs += p.core_runs;
                s.partition_runs += p.partition_runs;
                s.req_xbar_ticks += p.req_xbar_ticks;
                s.resp_xbar_ticks += p.resp_xbar_ticks;
                sum.reports.push(report);
            }
            Err(e) => series.errors.push(e),
        }
    }
    sum
}

/// Host ns per simulated cycle of each benchmark in `samples`.
fn per_benchmark(samples: &[Sample]) -> BTreeMap<&str, f64> {
    let mut totals: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for s in samples {
        let t = totals.entry(s.bench.as_str()).or_default();
        t.0 += s.wall_ns;
        t.1 += s.cycles;
    }
    totals
        .into_iter()
        .map(|(bench, (ns, cycles))| (bench, ns as f64 / cycles.max(1) as f64))
        .collect()
}

/// One round over the workload: untraced, with spans, on both engines,
/// and profiled. Returns the round's span log.
fn workload_round(
    inputs: &Inputs,
    jobs: &[SimJob],
    round: usize,
    series: &mut Series,
    digests: &mut Option<Vec<String>>,
) -> SpanLog {
    let untraced = run_pass(inputs, &mut SpanLog::disabled(), 2 * round);
    series.account(&untraced);
    let mut log = SpanLog::enabled();
    let traced = run_pass(inputs, &mut log, 2 * round + 1);
    series.account(&traced);
    for pass in [&untraced, &traced] {
        match digests {
            None => *digests = Some(pass.digests.clone()),
            Some(first) if *first != pass.digests => series.errors.push(format!(
                "round {round}: simulated results differ from the first pass"
            )),
            Some(_) => {}
        }
    }

    for (name, ns) in log.self_ns_by_name() {
        if name != "op" {
            series.push(&format!("{name}_ms"), ns as f64 / 1e6);
        }
    }
    series.push(
        "sim.span_overhead_frac",
        traced.wall_ns as f64 / untraced.wall_ns.max(1) as f64 - 1.0,
    );
    for (bench, ns) in per_benchmark(&untraced.samples) {
        series.push(&format!("sim.bench.{bench}.ns_per_cycle"), ns);
    }
    if let Inputs::SweepCold { .. } = inputs {
        series.push(
            "sweep.cells_per_s",
            untraced.samples.len() as f64 * 1e9 / untraced.wall_ns.max(1) as f64,
        );
    }

    // Both engines over the same simulations; the untraced pass already is
    // one of them when the workload is a list of simulations.
    let own = match inputs {
        Inputs::Sims { engine, .. } => Some(*engine),
        _ => None,
    };
    let mut on = |engine: Engine| {
        (own != Some(engine)).then(|| {
            let pass = run_sims(jobs, engine, &mut SpanLog::disabled());
            series.account(&pass);
            pass
        })
    };
    let (event, stepped) = (on(Engine::Event), on(Engine::Stepped));
    let event = event.as_ref().unwrap_or(&untraced);
    let stepped = stepped.as_ref().unwrap_or(&untraced);
    if event.digests != stepped.digests {
        series
            .errors
            .push(format!("round {round}: run() and run_stepped() disagree"));
    }
    // Event throughput over stepped throughput; the base is stepped.
    series.push(
        "sim.event_vs_stepped",
        stepped.wall_ns as f64 / event.wall_ns.max(1) as f64,
    );

    let sum = profiled_pass(jobs, series);
    let p = &sum.profile;
    let per_cycle = |seconds: f64| seconds * 1e9 / p.executed_cycles.max(1) as f64;
    series.push("sim.sched_ns_per_cycle", per_cycle(p.scheduler_seconds));
    series.push("simt.cores_ns_per_cycle", per_cycle(p.cores_seconds));
    series.push("cache.l1_ns_per_cycle", per_cycle(p.l1_seconds));
    series.push("noc.xbar_ns_per_cycle", per_cycle(p.crossbar_seconds));
    series.push(
        "sim.partition_ns_per_cycle",
        per_cycle(p.partitions_seconds),
    );
    series.push("dram.ns_per_cycle", per_cycle(p.dram_seconds));
    series.push("sim.executed_cycles", p.executed_cycles as f64);
    series.push("sim.skipped_cycles", p.skipped_cycles as f64);
    series.push(
        "sim.skipped_frac",
        p.skipped_cycles as f64 / (p.executed_cycles + p.skipped_cycles).max(1) as f64,
    );
    series.push("sim.core_runs", p.core_runs as f64);
    series.push("sim.partition_runs", p.partition_runs as f64);
    series.push("noc.req_xbar_ticks", p.req_xbar_ticks as f64);
    series.push("noc.resp_xbar_ticks", p.resp_xbar_ticks as f64);
    // Like for like: both walls are the event engine's own, from inside
    // the run.
    series.push(
        "sim.profile_overhead_frac",
        p.wall_seconds / engine_seconds(&event.reports).max(1e-9) - 1.0,
    );
    for (name, value) in simulated_counts(&sum.reports) {
        series.push(name, value);
    }
    log
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Simulated-machine counts over a pass's reports. These are functions of
/// the inputs alone and must repeat exactly from run to run.
fn simulated_counts(reports: &[SimReport]) -> Vec<(&'static str, f64)> {
    let partitions = GpuConfig::gtx480().num_partitions as u64;
    let sum = |f: &dyn Fn(&SimReport) -> u64| -> u64 { reports.iter().map(f).sum() };
    let cycles = sum(&|r| r.cycles);
    let instructions = sum(&|r| r.instructions);
    let core_cycles = sum(&|r| r.core.cycles);
    let hits = sum(&|r| r.l1.stats.load_hits);
    let misses = sum(&|r| r.l1.stats.load_misses);
    let l2 = |f: &dyn Fn(&gpumem_sim::L2Report) -> u64| sum(&|r| r.l2.as_ref().map_or(0, f));
    let dram = |f: &dyn Fn(&gpumem_sim::DramReport) -> u64| sum(&|r| r.dram.as_ref().map_or(0, f));
    let noc = |f: &dyn Fn(&gpumem_sim::NocReport) -> u64| sum(&|r| r.noc.as_ref().map_or(0, f));
    let l2_hits = l2(&|x| x.stats.load_hits + x.stats.store_hits);
    let l2_accesses = l2_hits + l2(&|x| x.stats.misses + x.stats.merged_misses);
    let row_hits = dram(&|d| d.stats.row_hits);
    let row_all = row_hits + dram(&|d| d.stats.row_closed + d.stats.row_conflicts);
    // Cycles of hierarchy-mode runs only: a fixed-latency run has no DRAM.
    let dram_cycles = sum(&|r| if r.dram.is_some() { r.cycles } else { 0 });
    vec![
        ("sim.cycles_total", cycles as f64),
        ("sim.instructions_total", instructions as f64),
        ("sim.ipc", ratio(instructions, cycles)),
        (
            "simt.stall_memory_frac",
            ratio(
                sum(&|r| r.core.stall_memory + r.core.stall_mem_pipeline),
                core_cycles,
            ),
        ),
        (
            "simt.idle_frac",
            ratio(sum(&|r| r.core.idle_cycles), core_cycles),
        ),
        (
            "cache.l1_accesses",
            (hits + misses + sum(&|r| r.l1.stats.stores)) as f64,
        ),
        ("cache.l1_hit_rate", ratio(hits, hits + misses)),
        (
            "cache.l1_merge_rate",
            ratio(sum(&|r| r.l1.stats.merged_misses), misses),
        ),
        (
            "cache.l1_mshr_full_stalls",
            sum(&|r| r.l1.stats.mshr_full_stalls) as f64,
        ),
        (
            "noc.req_flits",
            noc(&|n| n.request.flits_transferred) as f64,
        ),
        (
            "noc.resp_flits",
            noc(&|n| n.response.flits_transferred) as f64,
        ),
        (
            "noc.resp_credit_stall_cycles",
            noc(&|n| n.response.credit_stall_cycles) as f64,
        ),
        ("sim.l2_accesses", l2_accesses as f64),
        ("sim.l2_hit_rate", ratio(l2_hits, l2_accesses)),
        (
            "sim.l2_accq_full_frac",
            ratio(
                l2(&|x| x.access_queue.ticks_full),
                l2(&|x| x.access_queue.ticks_nonempty),
            ),
        ),
        ("dram.reads", dram(&|d| d.stats.reads) as f64),
        ("dram.writes", dram(&|d| d.stats.writes) as f64),
        ("dram.row_hit_rate", ratio(row_hits, row_all)),
        (
            "dram.bus_util",
            ratio(dram(&|d| d.stats.bus_busy_cycles), dram_cycles * partitions),
        ),
        (
            "dram.schedq_full_frac",
            ratio(
                dram(&|d| d.scheduler_queue.ticks_full),
                dram(&|d| d.scheduler_queue.ticks_nonempty),
            ),
        ),
    ]
}

// ---------------------------------------------------------------------
// Micro-drivers: one component, a deterministic stimulus, ns per operation.

/// ns per operation of each of [`BATCHES`] timed batches of `ops`
/// operations, after one untimed batch.
fn time_batches(ops: u64, mut batch: impl FnMut()) -> Vec<f64> {
    batch();
    (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            batch();
            start.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect()
}

fn fetch(id: u64, line: u64) -> MemFetch {
    MemFetch::new(
        FetchId::new(id),
        AccessKind::Load,
        LineAddr::new(line),
        CoreId::new(0),
    )
}

/// Instructions served by walking every warp of `program` to retirement.
fn walk(program: &dyn KernelProgram) -> u64 {
    let mut served = 0;
    for cta in 0..program.grid_ctas() {
        for warp in 0..program.warps_per_cta() {
            let mut pc = 0;
            while let Some(instr) = program.instr(CtaId::new(cta), warp, pc) {
                black_box(instr);
                pc += 1;
                served += 1;
            }
        }
    }
    served
}

fn micro_drivers(args: &RunArgs, scratch: &Path, series: &mut Series) -> Result<(), String> {
    let cfg = GpuConfig::gtx480();
    // Operations per batch; the smoke run shrinks them with `--scale`.
    let ops = |base: f64| (base * args.scale).max(64.0) as u64;
    let mut model_errors = 0u64;

    let n = ops(200_000.0);
    let mut queue: BoundedQueue<u64> = BoundedQueue::new("bench", 8);
    // One model cycle of a queue: push, the per-cycle observe, pop.
    series.extend(
        "types.queue_push_pop_ns",
        time_batches(n, || {
            for i in 0..n {
                let _ = black_box(queue.push(black_box(i)));
                queue.observe();
                black_box(queue.pop());
            }
        }),
    );

    let mut arena = FetchArena::with_capacity(64);
    series.extend(
        "types.arena_insert_free_ns",
        time_batches(n, || {
            for i in 0..n {
                let slot = arena.insert(fetch(i, i));
                black_box(arena.take(black_box(slot)));
            }
        }),
    );

    let n = ops(100_000.0);
    let mut tags = TagArray::new(64, 8);
    let mut rng = SimRng::new(1);
    series.extend(
        "cache.tag_access_ns",
        time_batches(n, || {
            for i in 0..n {
                let line = LineAddr::new(rng.gen_range(1024));
                let set = (line.index() % 64) as usize;
                if !tags.access(set, line, Cycle::new(i)) {
                    black_box(tags.fill(set, line, Cycle::new(i)));
                }
            }
        }),
    );

    let mut mshr: MshrTable<u64> = MshrTable::new(64, 8);
    series.extend(
        "cache.mshr_alloc_complete_ns",
        time_batches(n, || {
            for i in 0..n {
                let line = LineAddr::new(i % 48);
                if mshr.can_accept(line) {
                    let _ = black_box(mshr.allocate(line, i));
                }
                if i % 3 == 0 {
                    black_box(mshr.complete(line));
                }
            }
        }),
    );

    // Hits: 64 resident lines, one access and one drain per cycle.
    let mut l1 = L1Dcache::new(&cfg);
    let mut now = Cycle::ZERO;
    for line in 0..64 {
        let _ = l1.access(fetch(line, line), now);
        if let Some(request) = l1.pop_miss() {
            l1.fill(request, now);
        }
    }
    series.extend(
        "cache.l1_hit_ns",
        time_batches(n, || {
            for i in 0..n {
                now += 1;
                black_box(l1.access(fetch(i, i % 64), now));
                black_box(l1.pop_ready_hits(now));
            }
        }),
    );
    // Misses: a new line every cycle, filled 100 cycles later.
    let mut l1 = L1Dcache::new(&cfg);
    let mut next_line = 1 << 20;
    series.extend(
        "cache.l1_miss_fill_ns",
        time_batches(n, || {
            for i in 0..n {
                now += 1;
                next_line += 1;
                black_box(l1.access(fetch(i, next_line), now));
                if let Some(request) = l1.pop_miss() {
                    black_box(l1.fill(request, now + 100));
                }
            }
        }),
    );

    // 15×6 crossbar, every input injecting whenever it may.
    let n = ops(20_000.0);
    let mut xbar = Crossbar::new(cfg.num_cores, cfg.num_partitions, &cfg.noc);
    let mut now = Cycle::ZERO;
    let mut id = 0u64;
    series.extend(
        "noc.xbar_tick_saturated_ns",
        time_batches(n, || {
            for _ in 0..n {
                for input in 0..cfg.num_cores {
                    if xbar.can_inject(input) {
                        let dest = (id % cfg.num_partitions as u64) as usize;
                        let packet = Packet::new(fetch(id, id), dest, 8, cfg.noc.flit_bytes);
                        let _ = black_box(xbar.try_inject(input, packet));
                        id += 1;
                    }
                }
                model_errors += u64::from(xbar.tick(now).is_err());
                now = now.next();
                for output in 0..cfg.num_partitions {
                    while let Some(packet) = xbar.pop_ejected(output) {
                        black_box(packet);
                    }
                }
            }
        }),
    );

    // One channel, a random-address read offered every other cycle.
    let mut channel = DramChannel::new(&cfg, 0);
    let mut rng = SimRng::new(7);
    let mut now = Cycle::ZERO;
    let mut id = 0u64;
    series.extend(
        "dram.tick_loaded_ns",
        time_batches(n, || {
            for i in 0..n {
                if i % 2 == 0 && channel.can_accept(AccessKind::Load) {
                    let _ = black_box(channel.try_push(fetch(id, rng.gen_range(1_000_000)), now));
                    id += 1;
                }
                model_errors += u64::from(channel.tick(now).is_err());
                now = now.next();
                while let Some(done) = channel.pop_return() {
                    black_box(done);
                }
            }
        }),
    );
    series.attempted += 1;
    if model_errors > 0 {
        series.errors.push(format!(
            "{model_errors} crossbar/DRAM ticks returned an error"
        ));
    }

    // `KernelProgram::instr` over a whole program of each kind, and the
    // trace codec over the same program's text.
    let scale = 0.25 * args.scale;
    let params = params_of("sc")
        .ok_or("sc is a canonical benchmark")?
        .scaled(scale);
    let synthetic: Arc<dyn KernelProgram> = Arc::new(SyntheticKernel::new(params));
    let instrs = walk(synthetic.as_ref());
    series.extend(
        "simt.instr_synthetic_ns",
        time_batches(instrs, || {
            black_box(walk(synthetic.as_ref()));
        }),
    );
    let text = encode_program(synthetic.as_ref(), cfg.line_bytes).map_err(|e| e.to_string())?;
    let traced = parse_str(&text).map_err(|e| e.to_string())?;
    series.extend(
        "simt.instr_traced_ns",
        time_batches(instrs, || {
            black_box(walk(&traced));
        }),
    );
    // ns per byte → MB/s.
    let mb_per_s = |ns_per_byte: Vec<f64>| ns_per_byte.into_iter().map(|ns| 1e3 / ns).collect();
    series.extend(
        "tracefmt.decode_mb_per_s",
        mb_per_s(time_batches(text.len() as u64, || {
            black_box(parse_str(black_box(&text)).is_ok());
        })),
    );
    series.extend(
        "tracefmt.encode_mb_per_s",
        mb_per_s(time_batches(text.len() as u64, || {
            black_box(encode_program(synthetic.as_ref(), cfg.line_bytes).is_ok());
        })),
    );
    series.attempted += 2;

    store_drivers(synthetic, scratch, series)?;
    trace_overhead(scale, series)
}

/// The results store's write and read side, cell by cell.
fn store_drivers(
    program: Arc<dyn KernelProgram>,
    scratch: &Path,
    series: &mut Series,
) -> Result<(), String> {
    const CELLS_PER_BATCH: u64 = 8;
    let report = GpuSimulator::new(GpuConfig::gtx480(), program, MemoryMode::Hierarchy)
        .run(MAX_CYCLES)
        .map_err(|e| e.to_string())?;
    let mut store = ResultStore::open(scratch).map_err(|e| e.to_string())?;
    let mut keys = Vec::new();
    let mut failed = 0u64;
    let per_cell = time_batches(CELLS_PER_BATCH, || {
        for _ in 0..CELLS_PER_BATCH {
            let key = CellKey::from_canonical(&format!("micro-{}", keys.len()));
            failed += u64::from(store.commit(key, "micro", 1, &report).is_err());
            keys.push(key);
        }
    });
    series.extend(
        "sweep.commit_ms_per_cell",
        per_cell.into_iter().map(|ns| ns / 1e6).collect(),
    );
    series.push(
        "sweep.journal_bytes_per_cell",
        store.journal_bytes() as f64 / keys.len() as f64,
    );
    let per_lookup = time_batches(keys.len() as u64, || {
        for &key in &keys {
            failed += u64::from(!matches!(store.lookup(key), Ok(Lookup::Hit(_))));
        }
    });
    series.extend(
        "sweep.lookup_hit_us",
        per_lookup.into_iter().map(|ns| ns / 1e3).collect(),
    );
    series.attempted += 2 * keys.len() as u64;
    if failed > 0 {
        series
            .errors
            .push(format!("{failed} store commits or lookups failed"));
    }
    Ok(())
}

/// Cost of `enable_trace`: sc, lbm and gemm in hierarchy mode with the
/// fetch-lifecycle trace on against off, in alternating rounds.
fn trace_overhead(scale: f64, series: &mut Series) -> Result<(), String> {
    const ROUNDS: usize = 5;
    let cfg = GpuConfig::gtx480();
    let mut programs: Vec<Arc<dyn KernelProgram>> = Vec::new();
    for name in ["sc", "lbm", "gemm"] {
        let params = params_of(name).ok_or("canonical benchmark")?.scaled(scale);
        programs.push(Arc::new(SyntheticKernel::new(params)));
    }
    let pass = |traced: bool| -> Result<f64, String> {
        let start = Instant::now();
        for program in &programs {
            let mut sim =
                GpuSimulator::new(cfg.clone(), Arc::clone(program), MemoryMode::Hierarchy);
            if traced {
                sim.enable_trace(TraceConfig::default());
            }
            black_box(sim.run(MAX_CYCLES).map_err(|e| e.to_string())?);
        }
        Ok(start.elapsed().as_secs_f64())
    };
    pass(true)?;
    let mut ratios = Vec::new();
    for round in 0..ROUNDS {
        // Alternate which side runs first.
        let (on, off) = if round % 2 == 0 {
            let on = pass(true)?;
            (on, pass(false)?)
        } else {
            let off = pass(false)?;
            (pass(true)?, off)
        };
        ratios.push(on / off - 1.0);
    }
    series.attempted += (2 * ROUNDS * programs.len()) as u64;
    series.extend("trace.enabled_overhead_frac", ratios);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = METRICS.iter().map(|(n, _)| (*n).to_owned()).collect();
        for bench in extended_names() {
            names.push(format!("sim.bench.{bench}.ns_per_cycle"));
        }
        assert!(names.len() <= 128);
        let unique: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn per_benchmark_rows_pool_samples_by_name() {
        let sample = |bench: &str, cycles, wall_ns| Sample {
            bench: bench.to_owned(),
            cycles,
            wall_ns,
        };
        let samples = [
            sample("sc", 100, 1_000),
            sample("sc", 300, 1_000),
            sample("nn", 10, 50),
        ];
        let rows = per_benchmark(&samples);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows["sc"], 5.0);
        assert_eq!(rows["nn"], 5.0);
    }

    #[test]
    fn time_batches_scales_by_operation_count() {
        let mut calls = 0;
        let samples = time_batches(10, || calls += 1);
        assert_eq!(samples.len(), BATCHES);
        assert_eq!(calls, BATCHES + 1);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(1, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }
}
