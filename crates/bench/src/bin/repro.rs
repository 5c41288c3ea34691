//! Regenerates every table and figure of *Characterizing Memory
//! Bottlenecks in GPGPU Workloads* (IISWC 2016).
//!
//! ```text
//! repro [--scale F] [--quick] [--json DIR] [--profile]
//!       [--suite seed|ml|extended] [--store DIR]
//!       [--workers N] [--trace-file FILE]... [--out FILE]
//!       [fig1|congestion|dse|table1|latency|ablation|trace|run|
//!        trace-gen|sweep|all] [WORKLOAD]...
//! ```
//!
//! * `fig1`       — Fig. 1 latency-tolerance sweep (17 points × 8 benchmarks)
//! * `congestion` — Section III queue-occupancy study
//! * `dse`        — Section IV / Table I design-space exploration
//! * `table1`     — prints Table I itself (configuration values)
//! * `latency`    — Section II baseline-vs-ideal latency comparison
//! * `ablation`   — Section V future work: per-row ablation + cost ranking
//! * `trace`      — fetch-lifecycle latency breakdown (§III, Fig. 4–6):
//!   runs the suite with tracing enabled, prints per-stage latency tables
//!   and the queueing-vs-service split, requires the stage sums to
//!   reconcile with the observed end-to-end latency. With `--json DIR`
//!   also exports the slowest fetches as Chrome trace-event JSON
//!   (`trace_<benchmark>.json`, loadable in `chrome://tracing`; a name
//!   seen again becomes `<benchmark>-2`, `-3`, … as for `run`).
//! * `run`        — simulates the named workloads (and/or `--trace-file`
//!   traces) once per memory mode and prints cycles, instructions and the
//!   fraction of cycles the machine had nothing to do and jumped over.
//!   With `--json DIR` also writes each run's full report as
//!   `run_<workload>_<hierarchy|fixed800>.json` (every component counter;
//!   a name seen again, e.g. a synthetic and a traced `sc`, becomes
//!   `sc-2`, `sc-3`, … in command-line order).
//!   With `--profile` instead prints per-component host-time attribution
//!   (run loop, cores, L1, crossbars, partitions, DRAM). A malformed trace
//!   file is a diagnosed, non-zero exit naming the offending line, never
//!   a panic.
//! * `trace-gen`  — encodes one workload (any synthetic benchmark name,
//!   `--scale` applied) as a portable `gpumem-trace v1` text file, written
//!   to `--out FILE` or stdout. The emitted trace replays bit-identically
//!   to the synthetic original: `repro run gemm --trace-file <(repro
//!   trace-gen gemm)`-style round trips are exact.
//! * `sweep`      — crash-safe design-space sweep over a content-addressed
//!   results store (`crates/sweep`). `--store DIR` selects the store;
//!   `--spec FILE` supplies a JSON grid (default: the §V grid at
//!   `--scale`); `--resume DIR` re-runs whatever spec the store already
//!   holds, serving committed cells as cache hits; `--query DIR` lists the
//!   store's committed digests without simulating anything. `--workers N`
//!   bounds the pool. Each cell runs once, bounded by the spec's
//!   `max_cycles`; a failed cell is reported and not cached. Exit status:
//!   0 on success, 1 if any cell failed, 2 on a bad spec or store.
//! * `all`        — `table1` and the five paper experiments above
//!   (default)
//!
//! The five experiment commands run their plan as one batch through a
//! content-addressed results store (`gpumem_sweep::run_plan`): `--store
//! DIR` keeps it, so a re-run simulates nothing, a killed run resumes and
//! `dse` shares its cells with `sweep`'s §V grid at the same `--scale`;
//! without `--store` the store is temporary and removed on exit. stderr
//! ends with the cell count, cache hits and `simulations run: N`.
//! `--workers N` bounds the pool for experiments and sweeps alike.
//!
//! `--scale F` (F > 0) scales the workloads (grid × F, iterations × √F)
//! for quick runs; the shipped EXPERIMENTS.md numbers use the full scale
//! (1.0).
//! `--quick` is shorthand for `--scale 0.25` (the CI smoke setting).
//! `--json DIR` additionally dumps raw results as JSON.
//! `--profile` (run only) switches the command to per-component
//! host-time attribution.
//! `--suite seed|ml|extended` selects the synthetic workload family the
//! suite commands iterate: the paper's eight benchmarks (`seed`, the
//! default), the three ML kernels (`ml`: tiled GEMM, im2col conv,
//! attention), or both (`extended`).
//! `--trace-file FILE` (repeatable) appends a `gpumem-trace v1` trace as
//! an extra workload: suite commands (`fig1`, `trace`, …) and
//! `run` simulate it alongside the synthetics, and `sweep` adds a
//! `trace:<path>` workload to the grid, content-addressed by the trace's
//! byte digest rather than its path.
//! `--out FILE` (trace-gen only) writes the encoded trace to a file
//! instead of stdout.

#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_methods,
    reason = "host CLI: argument parsing, --json/--out files and trace inputs"
)]

use std::path::PathBuf;
use std::sync::Arc;

use gpumem::experiments::latency_tolerance::{self, FIG1_LATENCIES};
use gpumem::experiments::{ablation, congestion, design_space};
use gpumem::prelude::*;
use gpumem::{text, RunSpec};
use gpumem_sim::{chrome_trace_events, LatencyBreakdown, TraceConfig};
use gpumem_workloads::WorkloadKind;

struct Args {
    scale: f64,
    json_dir: Option<String>,
    profile: bool,
    spec: Option<String>,
    store: Option<String>,
    resume: Option<String>,
    query: Option<String>,
    workers: usize,
    suite: String,
    trace_files: Vec<String>,
    out: Option<String>,
    targets: Vec<String>,
    command: String,
}

fn parse_args() -> Args {
    let mut scale = 1.0;
    let mut json_dir = None;
    let mut profile = false;
    let mut spec = None;
    let mut store = None;
    let mut resume = None;
    let mut query = None;
    let mut workers = 0;
    let mut suite_choice = "seed".to_owned();
    let mut trace_files = Vec::new();
    let mut out = None;
    let mut targets = Vec::new();
    let mut command = "all".to_owned();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| die("--scale needs a positive number"));
            }
            "--quick" => scale = 0.25,
            "--json" => {
                json_dir = Some(it.next().unwrap_or_else(|| die("--json needs a directory")));
            }
            "--profile" => profile = true,
            "--spec" => {
                spec = Some(it.next().unwrap_or_else(|| die("--spec needs a file")));
            }
            "--store" => {
                store = Some(
                    it.next()
                        .unwrap_or_else(|| die("--store needs a directory")),
                );
            }
            "--resume" => {
                resume = Some(
                    it.next()
                        .unwrap_or_else(|| die("--resume needs a store directory")),
                );
            }
            "--query" => {
                query = Some(
                    it.next()
                        .unwrap_or_else(|| die("--query needs a store directory")),
                );
            }
            "--workers" => {
                workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--workers needs a count (0 = one per core)"));
            }
            "--suite" => {
                suite_choice = it
                    .next()
                    .filter(|s| matches!(s.as_str(), "seed" | "ml" | "extended"))
                    .unwrap_or_else(|| die("--suite needs `seed`, `ml` or `extended`"));
            }
            "--trace-file" => {
                trace_files.push(
                    it.next()
                        .unwrap_or_else(|| die("--trace-file needs a trace file path")),
                );
            }
            "--out" => {
                out = Some(it.next().unwrap_or_else(|| die("--out needs a file path")));
            }
            "fig1" | "congestion" | "dse" | "table1" | "latency" | "ablation" | "trace" | "run"
            | "trace-gen" | "sweep" | "all" => {
                command = arg;
            }
            other if !other.starts_with('-') => targets.push(other.to_owned()),
            other => die(&format!("unknown argument: {other}")),
        }
    }
    if !targets.is_empty() && !matches!(command.as_str(), "run" | "trace-gen") {
        die(&format!(
            "unknown argument {:?}: workload names are only accepted by `run` and `trace-gen`",
            targets[0]
        ));
    }
    Args {
        scale,
        json_dir,
        profile,
        spec,
        store,
        resume,
        query,
        workers,
        suite: suite_choice,
        trace_files,
        out,
        targets,
        command,
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: repro [--scale F] [--quick] [--json DIR] [--profile] \
         [--spec FILE] [--store DIR] [--resume DIR] [--query DIR] \
         [--workers N] [--suite seed|ml|extended] \
         [--trace-file FILE]... [--out FILE] \
         [fig1|congestion|dse|table1|latency|ablation|trace|run|trace-gen|sweep|all] \
         [WORKLOAD]..."
    );
    std::process::exit(2)
}

/// The synthetic names behind a `--suite` choice (validated at parse time).
fn suite_names(choice: &str) -> Vec<&'static str> {
    match choice {
        "ml" => gpumem_workloads::ML_BENCHMARK_NAMES.to_vec(),
        "extended" => gpumem_workloads::extended_names(),
        _ => gpumem_workloads::BENCHMARK_NAMES.to_vec(),
    }
}

/// The synthetic workload `name` at `scale`, or `None` for an unknown name.
fn scaled(name: &str, scale: f64) -> Option<WorkloadKind> {
    gpumem_workloads::params_of(name).map(|p| WorkloadKind::Synthetic(p.scaled(scale)))
}

fn suite(scale: f64, choice: &str) -> Vec<WorkloadKind> {
    suite_names(choice)
        .iter()
        .map(|n| scaled(n, scale).expect("canonical name"))
        .collect()
}

/// Reads and decodes one `gpumem-trace v1` file as a workload. Any
/// failure — unreadable file or malformed trace — is a diagnosed exit 2;
/// the parser's typed errors carry the offending line number, so the
/// message pinpoints the defect without a stack trace.
fn load_trace(path: &str) -> WorkloadKind {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read trace {path}: {e}");
        std::process::exit(2)
    });
    match gpumem_tracefmt::parse_str(&text) {
        Ok(kernel) => WorkloadKind::Traced(Arc::new(kernel)),
        Err(e) => {
            eprintln!("error: {path}: {e}");
            std::process::exit(2)
        }
    }
}

/// The workload list a suite command iterates: the selected synthetic
/// family at `--scale`, plus one traced workload per `--trace-file`.
fn workloads_for(args: &Args) -> Vec<WorkloadKind> {
    let mut workloads = suite(args.scale, &args.suite);
    workloads.extend(args.trace_files.iter().map(|p| load_trace(p)));
    workloads
}

fn dump_json<T: serde::Serialize>(dir: &Option<String>, name: &str, value: &T) {
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).expect("create json dir");
        let path = format!("{dir}/{name}.json");
        let json = serde_json::to_string_pretty(value).expect("serialize");
        std::fs::write(&path, json).expect("write json");
        eprintln!("wrote {path}");
    }
}

/// A results store that lives for one command: removed when dropped.
struct TempStore(PathBuf);

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The paper experiments `command` names (`all`: every one), planned as
/// one batch and run through the results store at `--store` (a temporary
/// one without it), so the runs they share — every benchmark's baseline,
/// and any cell an earlier command committed there — are simulated once;
/// then each is reduced, printed and dumped as `<name>.json`.
fn run_experiments(command: &str, cfg: &GpuConfig, args: &Args) {
    let json = &args.json_dir;
    let workloads = workloads_for(args);
    let plans: Vec<(&str, Vec<RunSpec>)> = gpumem::experiments::paper_plans(cfg, &workloads)
        .into_iter()
        .filter(|(name, _)| command == "all" || *name == command)
        .collect();
    let batch: Vec<RunSpec> = plans.iter().flat_map(|(_, p)| p.iter().cloned()).collect();
    let _temp;
    let store = match &args.store {
        Some(dir) => PathBuf::from(dir),
        None => {
            let dir = std::env::temp_dir().join(format!("gpumem-repro-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            _temp = TempStore(dir.clone());
            dir
        }
    };
    eprintln!(
        "{command}: {} runs into {} ...",
        batch.len(),
        store.display()
    );
    let opts = gpumem_sweep::SweepOptions {
        workers: args.workers,
        ..Default::default()
    };
    let (reports, summary) =
        gpumem_sweep::run_plan(&batch, &store, &opts).unwrap_or_else(|e| panic!("{command}: {e}"));
    eprintln!(
        "cells: {}  cache hits: {}  simulations run: {}",
        summary.cells,
        summary.cache_hits,
        summary.simulations_run()
    );
    let mut rest = &reports[..];
    for (i, (name, plan)) in plans.iter().enumerate() {
        let (reports, tail) = rest.split_at(plan.len());
        rest = tail;
        if i > 0 {
            println!();
        }
        match *name {
            "latency" => {
                let study = congestion::reduce(reports);
                println!("SECTION II — BASELINE MEMORY LATENCIES vs IDEAL");
                println!("(ideal: L2 hit 120 cycles, DRAM 220 cycles via L2)");
                println!("{:>10} {:>24}", "benchmark", "avg L1 miss latency (cyc)");
                for r in &study.rows {
                    println!("{:>10} {:>24.0}", r.benchmark, r.avg_l1_miss_latency);
                }
                let avg = study
                    .rows
                    .iter()
                    .map(|r| r.avg_l1_miss_latency)
                    .sum::<f64>()
                    / study.rows.len().max(1) as f64;
                println!("{:>10} {avg:>24.0}", "AVERAGE");
                dump_json(json, name, &study);
            }
            "fig1" => {
                let profiles = latency_tolerance::reduce(&FIG1_LATENCIES, reports);
                println!("{}", text::fig1_table(&profiles));
                dump_json(json, name, &profiles);
            }
            "congestion" => {
                let study = congestion::reduce(reports);
                println!("{}", text::congestion_table(&study));
                dump_json(json, name, &study);
            }
            "dse" => {
                let study = design_space::reduce(&DesignPoint::SECTION_IV, reports);
                println!("{}", text::dse_table(&study));
                dump_json(json, name, &study);
            }
            _ => {
                let study = ablation::reduce(cfg, reports);
                println!("{}", ablation::ablation_table(&study));
                dump_json(json, name, &study);
            }
        }
    }
}

/// One benchmark's per-component host-time attribution in the
/// `--profile` JSON artifact.
#[derive(serde::Serialize)]
struct ProfileRow {
    benchmark: String,
    mode: String,
    profile: gpumem_sim::EngineProfile,
}

/// The `run --profile` study: runs `run()` with host-time
/// instrumentation and attributes wall time to components (run loop,
/// cores, L1, crossbars, partitions, DRAM), so perf work
/// starts from data rather than guesses. The instrumented runs pay for
/// their own stopwatches — absolute wall times here are slightly above
/// the uninstrumented sweep's, but the *shares* are what matter.
fn run_profile(cfg: &GpuConfig, workloads: &[WorkloadKind], json: &Option<String>) {
    println!("PER-COMPONENT HOST-TIME ATTRIBUTION — run()");
    println!(
        "{:>10} {:>18} {:>8} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>10} {:>9}",
        "benchmark",
        "mode",
        "wall_s",
        "sched%",
        "cores%",
        "L1%",
        "xbar%",
        "parts%",
        "DRAM%",
        "executed",
        "skipped",
    );
    let mut rows = Vec::new();
    for mode in [MemoryMode::Hierarchy, MemoryMode::FixedLatency(800)] {
        for workload in workloads {
            eprintln!("profile: {} / {mode} ...", workload.name());
            let (report, p) = GpuSimulator::new(cfg.clone(), workload.program(), mode)
                .run_profiled(gpumem::DEFAULT_MAX_CYCLES)
                .expect("profiled run completes");
            let pct = |s: f64| 100.0 * s / p.wall_seconds.max(1e-12);
            println!(
                "{:>10} {:>18} {:>8.3} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>10} {:>9}",
                report.benchmark,
                report.mode,
                p.wall_seconds,
                pct(p.scheduler_seconds),
                pct(p.cores_seconds),
                pct(p.l1_seconds),
                pct(p.crossbar_seconds),
                pct(p.partitions_seconds),
                pct(p.dram_seconds),
                p.executed_cycles,
                p.skipped_cycles,
            );
            rows.push(ProfileRow {
                benchmark: report.benchmark.clone(),
                mode: report.mode.clone(),
                profile: p,
            });
        }
    }
    dump_json(json, "profile", &rows);
}

/// One benchmark's entry in the `trace` command's JSON artifact.
#[derive(serde::Serialize)]
struct TraceRow {
    benchmark: String,
    breakdown: LatencyBreakdown,
}

fn print_breakdown(name: &str, bd: &LatencyBreakdown) {
    println!(
        "\n{name}: {} fetches traced, mean end-to-end {:.1} cycles (min {}, max {})",
        bd.fetches_traced,
        bd.end_to_end.mean(),
        bd.end_to_end.min().unwrap_or(0),
        bd.end_to_end.max().unwrap_or(0),
    );
    println!(
        "{:>16} {:>9} {:>10} {:>12} {:>9} {:>7} {:>7}",
        "stage", "class", "count", "cycles", "mean", "min", "max"
    );
    for s in &bd.stages {
        println!(
            "{:>16} {:>9} {:>10} {:>12} {:>9.1} {:>7} {:>7}",
            s.stage, s.class, s.count, s.total_cycles, s.mean, s.min, s.max
        );
    }
    let total = bd.stage_total_cycles.max(1) as f64;
    println!(
        "load-path split: queueing {:.1}% / service {:.1}% / network {:.1}%",
        100.0 * bd.queueing_cycles as f64 / total,
        100.0 * bd.service_cycles as f64 / total,
        100.0 * bd.network_cycles as f64 / total,
    );
}

/// Fetch-lifecycle latency breakdown over the suite: per-stage tables, the
/// §III queueing-vs-service split and the stage-sum reconciliation
/// invariant.
fn run_trace(cfg: &GpuConfig, workloads: &[WorkloadKind], json: &Option<String>) {
    println!("FETCH-LIFECYCLE LATENCY BREAKDOWN — §III queueing vs service decomposition");
    let mut rows = Vec::new();
    for (workload, stem) in workloads.iter().zip(file_stems(workloads)) {
        eprintln!("trace: {} ...", workload.name());
        let mut sim = GpuSimulator::new(cfg.clone(), workload.program(), MemoryMode::Hierarchy);
        sim.enable_trace(TraceConfig::default());
        let report = sim
            .run(gpumem::DEFAULT_MAX_CYCLES)
            .expect("traced run completes");
        let bd = report.latency_breakdown.expect("tracing was enabled");
        if !bd.reconciles() {
            eprintln!(
                "error: {}: stage sums do not reconcile with end-to-end latency \
                 (stages {} vs end-to-end {}, {} monotone violations, {} unknown pairs, \
                 {} incomplete)",
                workload.name(),
                bd.stage_total_cycles,
                bd.end_to_end_total_cycles,
                bd.monotone_violations,
                bd.unknown_pairs,
                bd.incomplete_fetches,
            );
            std::process::exit(1);
        }
        print_breakdown(workload.name(), &bd);
        dump_json(
            json,
            &format!("trace_{stem}"),
            &chrome_trace_events(&bd.slowest),
        );
        rows.push(TraceRow {
            benchmark: workload.name().to_owned(),
            breakdown: bd,
        });
    }
    println!("\ntrace: every stage sum reconciles");
    dump_json(json, "trace", &rows);
}

/// One JSON file stem per workload, in order: its name, or for a name
/// seen before the first free `<name>-<k>`, `k ≥ 2`, so that a synthetic
/// and a traced workload of one name never write one file.
fn file_stems(workloads: &[WorkloadKind]) -> Vec<String> {
    let mut seen = std::collections::BTreeSet::new();
    workloads
        .iter()
        .map(|w| {
            let name = w.name();
            let (mut stem, mut k) = (name.to_owned(), 1);
            while !seen.insert(stem.clone()) {
                k += 1;
                stem = format!("{name}-{k}");
            }
            stem
        })
        .collect()
}

/// The `run` command: every selected workload — named synthetics and/or
/// `--trace-file` traces — simulated through `run()` in both memory modes.
/// Each line reports cycles, instructions and the skipped fraction: the
/// share of cycles in which no component could act, so `run()` jumped
/// over them. With `--json DIR`, each run's full report is also written as
/// `run_<workload>_<mode>.json` (`mode`: `hierarchy` or `fixed800`), where
/// a repeated workload name takes the first free `<name>-<k>`, `k ≥ 2`, so
/// no run overwrites another's file. With `--profile`, the per-component
/// host-time table instead.
fn run_run(cfg: &GpuConfig, args: &Args) {
    let mut workloads: Vec<WorkloadKind> = args
        .targets
        .iter()
        .map(|name| {
            scaled(name, args.scale).unwrap_or_else(|| die(&format!("unknown benchmark {name:?}")))
        })
        .collect();
    workloads.extend(args.trace_files.iter().map(|p| load_trace(p)));
    if workloads.is_empty() {
        die("run needs at least one workload name or --trace-file FILE");
    }
    if args.profile {
        run_profile(cfg, &workloads, &args.json_dir);
        return;
    }
    let stems = file_stems(&workloads);
    for (mode, tag) in [
        (MemoryMode::Hierarchy, "hierarchy"),
        (MemoryMode::FixedLatency(800), "fixed800"),
    ] {
        for (workload, stem) in workloads.iter().zip(&stems) {
            let report = GpuSimulator::new(cfg.clone(), workload.program(), mode)
                .run(gpumem::DEFAULT_MAX_CYCLES)
                .expect("run completes");
            let skipped = report.host.as_ref().map_or(0.0, |h| h.skipped_fraction);
            println!(
                "run {:>10} / {mode}: {} cycles, {} instructions, {:.1}% skipped",
                workload.name(),
                report.cycles,
                report.instructions,
                100.0 * skipped,
            );
            let name = format!("run_{stem}_{tag}");
            dump_json(&args.json_dir, &name, &report);
        }
    }
}

/// The `trace-gen` command: one synthetic workload encoded as a portable
/// `gpumem-trace v1` text file at the configured cache-line size, written
/// to `--out` or stdout. Decoding the emitted trace reproduces the
/// synthetic instruction stream exactly, so trace-gen→run round trips are
/// bit-identical.
fn run_trace_gen(cfg: &GpuConfig, args: &Args) -> ! {
    let [name] = args.targets.as_slice() else {
        die("trace-gen needs exactly one workload name");
    };
    let workload =
        scaled(name, args.scale).unwrap_or_else(|| die(&format!("unknown benchmark {name:?}")));
    let text = gpumem_tracefmt::encode_program(workload.program().as_ref(), cfg.line_bytes)
        .unwrap_or_else(|e| die(&e.to_string()));
    match &args.out {
        Some(path) => {
            std::fs::write(path, &text)
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
            eprintln!("wrote {path} ({} bytes)", text.len());
        }
        None => print!("{text}"),
    }
    std::process::exit(0)
}

/// The `sweep` command: a crash-safe, resumable grid run over a
/// content-addressed results store (see `crates/sweep`).
///
/// `--query DIR` never simulates: it expands the store's spec (or
/// `--spec`), peeks every cell read-only, and prints the committed
/// digests plus the store digest — the line CI diffs against a reference
/// run. Otherwise the spec comes from `--spec FILE`, from the store's own
/// `spec.json` under `--resume DIR`, or defaults to the §V grid at
/// `--scale`.
fn run_sweep_cmd(args: &Args) -> ! {
    use gpumem_sweep::{ResultStore, SweepOptions, SweepSpec};

    let fail = |msg: String| -> ! {
        eprintln!("error: {msg}");
        std::process::exit(2)
    };
    let spec_from_flag = || -> Option<SweepSpec> {
        args.spec.as_ref().map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
            SweepSpec::from_json(&text).unwrap_or_else(|e| fail(e.to_string()))
        })
    };
    // Readers must never mint a store: a typo'd `--query`/`--resume` path
    // is a typed exit-2 error, not a freshly-created empty directory.
    let stored_spec = |dir: &str| -> SweepSpec {
        let store = ResultStore::open_existing(std::path::Path::new(dir))
            .unwrap_or_else(|e| fail(e.to_string()));
        store
            .load_spec()
            .unwrap_or_else(|e| fail(e.to_string()))
            .unwrap_or_else(|| fail(format!("{dir} has no spec.json; pass --spec")))
    };
    let with_trace_files = |mut spec: SweepSpec| -> SweepSpec {
        // A stored spec may already carry the trace workload (`--resume`
        // with the same `--trace-file` flags): `expand` keeps one cell per key.
        spec.workloads
            .extend(args.trace_files.iter().map(|path| format!("trace:{path}")));
        spec
    };

    if let Some(dir) = &args.query {
        let spec = with_trace_files(spec_from_flag().unwrap_or_else(|| stored_spec(dir)));
        let store = ResultStore::open_existing(std::path::Path::new(dir))
            .unwrap_or_else(|e| fail(e.to_string()));
        let cells = spec.expand().unwrap_or_else(|e| fail(e.to_string()));
        let mut committed = 0usize;
        for cell in &cells {
            match store.peek(cell.key) {
                Ok(Some(env)) => {
                    committed += 1;
                    println!(
                        "cell {} {} committed {}",
                        env.key, env.label, env.result_digest
                    );
                }
                Ok(None) => println!("cell {} {} missing", cell.key, cell.label()),
                Err(e) => println!("cell {} {} CORRUPT ({e})", cell.key, cell.label()),
            }
        }
        let keys: Vec<_> = cells.iter().map(|c| c.key).collect();
        let digest = store
            .store_digest(&keys)
            .unwrap_or_else(|e| fail(e.to_string()));
        println!("committed: {committed}/{}", cells.len());
        println!("store digest: {digest}");
        std::process::exit(0)
    }

    let (store_dir, spec) = match (&args.resume, &args.store) {
        (Some(dir), _) => (
            dir.clone(),
            with_trace_files(spec_from_flag().unwrap_or_else(|| stored_spec(dir))),
        ),
        (None, Some(dir)) => (
            dir.clone(),
            with_trace_files(spec_from_flag().unwrap_or_else(|| SweepSpec::section_v(args.scale))),
        ),
        (None, None) => fail("sweep needs --store DIR (or --resume DIR / --query DIR)".into()),
    };
    let opts = SweepOptions {
        workers: args.workers,
        progress: true,
        crash_after_journal_bytes: None,
    };
    eprintln!(
        "sweep {}: {} into {store_dir}",
        spec.name,
        if args.resume.is_some() {
            "resuming"
        } else {
            "running"
        },
    );
    let summary = gpumem_sweep::run_sweep(&spec, std::path::Path::new(&store_dir), &opts)
        .unwrap_or_else(|e| fail(e.to_string()));
    for o in &summary.outcomes {
        println!(
            "cell {} {} {:?}{}",
            o.key,
            o.label,
            o.status,
            o.result_digest
                .as_deref()
                .map(|d| format!(" {d}"))
                .unwrap_or_else(|| format!(" ({})", o.detail)),
        );
    }
    println!(
        "cells: {}  cache hits: {}  computed: {}  recomputed: {}  failed: {}",
        summary.cells, summary.cache_hits, summary.computed, summary.recomputed, summary.failed,
    );
    println!("simulations run: {}", summary.simulations_run());
    println!("store digest: {}", summary.store_digest);
    std::process::exit(if summary.failed > 0 { 1 } else { 0 })
}

fn main() {
    let args = parse_args();
    let cfg = GpuConfig::gtx480();
    let json = &args.json_dir;
    if (args.scale - 1.0).abs() > f64::EPSILON {
        eprintln!(
            "note: workloads scaled by {} — numbers differ from EXPERIMENTS.md",
            args.scale
        );
    }
    match args.command.as_str() {
        "table1" => println!("{}", text::table_i()),
        "latency" | "fig1" | "congestion" | "dse" | "ablation" => {
            run_experiments(&args.command, &cfg, &args);
        }
        "trace" => run_trace(&cfg, &workloads_for(&args), json),
        "run" => run_run(&cfg, &args),
        "trace-gen" => run_trace_gen(&cfg, &args),
        "sweep" => run_sweep_cmd(&args),
        "all" => {
            println!("{}", text::table_i());
            run_experiments("all", &cfg, &args);
        }
        other => die(&format!("unknown command {other}")),
    }
}
