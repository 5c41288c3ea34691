//! The six workloads: how their inputs are generated from a seed, and what
//! one timed pass over them does.
//!
//! Everything here calls only the simulator's long-lived public surface
//! (see the README's API list), so a signature change inside a component
//! cannot break the gating `e2e` build.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gpumem_config::GpuConfig;
use gpumem_sim::{GpuSimulator, KernelProgram, MemoryMode, SimReport};
use gpumem_sweep::{run_sweep, CellStatus, ResultStore, SweepOptions, SweepSpec, SweepSummary};
use gpumem_tracefmt::{encode_program, parse_reader};
use gpumem_workloads::{extended_names, params_of, SyntheticKernel, BENCHMARK_NAMES};

use crate::digest::canonical_digest;
use crate::spans::SpanLog;

/// Cycle budget of every simulation (the repository's default watchdog).
pub const MAX_CYCLES: u64 = 50_000_000;

/// The warm-up that closes set-up runs the workload at this share of its
/// scale.
pub const WARMUP_SCALE: f64 = 0.2;

const FIXED_LATENCIES: [u64; 4] = [100, 400, 800, 1600];
const TRACED_BENCHMARKS: [&str; 5] = ["gemm", "conv", "attn", "sc", "lbm"];

/// Which engine a simulation workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `GpuSimulator::run`, the event-driven default.
    Event,
    /// `GpuSimulator::run_stepped`, the per-cycle oracle.
    Stepped,
}

impl Engine {
    /// The engine the correctness check compares against.
    pub fn other(self) -> Engine {
        match self {
            Engine::Event => Engine::Stepped,
            Engine::Stepped => Engine::Event,
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Extended suite, hierarchy mode, `run()`.
    HierSuite,
    /// Extended suite, hierarchy mode, `run_stepped()`.
    HierStepped,
    /// Seed suite × four fixed latencies, `run()`.
    FixedSweep,
    /// Five traces decoded and replayed per pass, `run()`.
    TraceReplay,
    /// The §V grid through `run_sweep` into an empty store.
    SweepGrid,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::HierSuite,
        Workload::HierStepped,
        Workload::FixedSweep,
        Workload::TraceReplay,
        Workload::SweepGrid,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HierSuite => "hier_suite",
            Workload::HierStepped => "hier_stepped",
            Workload::FixedSweep => "fixed_sweep",
            Workload::TraceReplay => "trace_replay",
            Workload::SweepGrid => "sweep_grid",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Workload scale at `--scale 1`: sized so a pass takes one to two
    /// seconds on the 2-CPU reference container, which leaves room for at
    /// least five passes (and so ten samples beyond the p80) in a run.
    pub fn base_scale(self) -> f64 {
        match self {
            Workload::SweepGrid => 0.4,
            _ => 0.5,
        }
    }
}

/// Where a simulation's program comes from.
#[derive(Clone)]
pub enum Source {
    /// A program built during set-up.
    Program(Arc<dyn KernelProgram>),
    /// `gpumem-trace v1` text, decoded inside every timed operation.
    TraceText(String),
}

/// One simulation of a pass.
#[derive(Clone)]
pub struct SimJob {
    /// Benchmark name.
    pub bench: String,
    /// Where the program comes from.
    pub source: Source,
    /// Machine configuration.
    pub cfg: GpuConfig,
    /// Memory backend.
    pub mode: MemoryMode,
}

/// The generated inputs of one workload.
pub enum Inputs {
    /// A list of simulations, run one after another on one thread.
    Sims {
        /// The simulations.
        jobs: Vec<SimJob>,
        /// The engine that runs them.
        engine: Engine,
    },
    /// A sweep into a fresh store per pass.
    SweepCold {
        /// The grid.
        spec: SweepSpec,
        /// Directory the per-pass stores are created under.
        root: PathBuf,
    },
}

/// One timed operation's outcome.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Benchmark the operation simulated.
    pub bench: String,
    /// Simulated cycles it delivered.
    pub cycles: u64,
    /// Host time it took, in ns.
    pub wall_ns: u64,
}

impl Sample {
    /// Host ns per simulated cycle.
    pub fn ns_per_cycle(&self) -> f64 {
        self.wall_ns as f64 / self.cycles.max(1) as f64
    }
}

/// What one pass over a workload's inputs produced.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Host time on the blocking path, in ns: the sum of the timed
    /// operations for simulations, the `run_sweep` wall for sweeps.
    pub wall_ns: u64,
    /// Per-operation samples.
    pub samples: Vec<Sample>,
    /// Canonical digest of each result, in input order.
    pub digests: Vec<String>,
    /// The reports behind `digests`.
    pub reports: Vec<SimReport>,
    /// Operations attempted.
    pub attempted: u64,
    /// One line per failed operation.
    pub errors: Vec<String>,
}

impl PassResult {
    /// Simulated cycles delivered by the pass.
    pub fn cycles(&self) -> u64 {
        self.samples.iter().map(|s| s.cycles).sum()
    }

    /// Simulated Mcycles per host second over the pass.
    pub fn mcyc_per_s(&self) -> f64 {
        self.cycles() as f64 * 1e3 / self.wall_ns.max(1) as f64
    }
}

fn program(
    name: &str,
    seed: u64,
    scale: f64,
    log: &mut SpanLog,
) -> Result<Arc<dyn KernelProgram>, String> {
    let span = log.enter("workloads.build", None, 0);
    let mut params = params_of(name)
        .ok_or_else(|| format!("unknown benchmark {name}"))?
        .scaled(scale);
    params.seed = params.seed.wrapping_add(seed);
    let program = Arc::new(SyntheticKernel::new(params));
    log.exit(span);
    Ok(program)
}

/// How the benchmark runs a sweep: `min(nproc, 2)` workers.
pub fn sweep_options() -> SweepOptions {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    SweepOptions {
        workers: cpus.min(2),
        ..SweepOptions::default()
    }
}

fn section_v(seed: u64, scale: f64) -> SweepSpec {
    let mut spec = SweepSpec::section_v(scale);
    spec.seeds = vec![seed];
    spec
}

/// One job per (benchmark, mode); with `traced`, the program is replaced
/// by its `gpumem-trace v1` text.
fn sim_jobs(
    names: &[&str],
    modes: &[MemoryMode],
    traced: bool,
    seed: u64,
    scale: f64,
    log: &mut SpanLog,
) -> Result<Vec<SimJob>, String> {
    let cfg = GpuConfig::gtx480();
    let mut jobs = Vec::new();
    for name in names {
        let program = program(name, seed, scale, log)?;
        let source = if traced {
            let span = log.enter("tracefmt.encode", None, 0);
            let text = encode_program(program.as_ref(), cfg.line_bytes)
                .map_err(|e| format!("encode {name}: {e}"))?;
            log.exit(span);
            Source::TraceText(text)
        } else {
            Source::Program(program)
        };
        for &mode in modes {
            jobs.push(SimJob {
                bench: (*name).to_owned(),
                source: source.clone(),
                cfg: cfg.clone(),
                mode,
            });
        }
    }
    Ok(jobs)
}

/// Generates `workload`'s inputs from `seed` at `scale`, using `scratch`
/// (a directory private to this call) for any store it needs.
pub fn build(
    workload: Workload,
    seed: u64,
    scale: f64,
    scratch: &Path,
    log: &mut SpanLog,
) -> Result<Inputs, String> {
    let hierarchy = [MemoryMode::Hierarchy];
    let fixed = FIXED_LATENCIES.map(MemoryMode::FixedLatency);
    let (names, modes, traced, engine) = match workload {
        Workload::HierSuite => (extended_names(), &hierarchy[..], false, Engine::Event),
        Workload::HierStepped => (extended_names(), &hierarchy[..], false, Engine::Stepped),
        Workload::FixedSweep => (BENCHMARK_NAMES.to_vec(), &fixed[..], false, Engine::Event),
        Workload::TraceReplay => (
            TRACED_BENCHMARKS.to_vec(),
            &hierarchy[..],
            true,
            Engine::Event,
        ),
        Workload::SweepGrid => {
            return Ok(Inputs::SweepCold {
                spec: section_v(seed, scale),
                root: scratch.to_owned(),
            })
        }
    };
    Ok(Inputs::Sims {
        jobs: sim_jobs(&names, modes, traced, seed, scale, log)?,
        engine,
    })
}

/// The committed report of every cell of `spec`, in expansion order.
fn read_cells(spec: &SweepSpec, store: &Path) -> Result<Vec<SimReport>, String> {
    let store = ResultStore::open_existing(store).map_err(|e| e.to_string())?;
    let mut reports = Vec::new();
    for cell in spec.expand().map_err(|e| e.to_string())? {
        let envelope = store
            .peek(cell.key)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("cell {} is not in the store", cell.label()))?;
        reports.push(envelope.report);
    }
    Ok(reports)
}

/// The program a job simulates; a traced job is decoded here.
pub fn program_of(job: &SimJob) -> Result<Arc<dyn KernelProgram>, String> {
    match &job.source {
        Source::Program(p) => Ok(Arc::clone(p)),
        Source::TraceText(text) => match parse_reader(text.as_bytes()) {
            Ok(kernel) => Ok(Arc::new(kernel)),
            Err(e) => Err(format!("decode {}: {e}", job.bench)),
        },
    }
}

/// Runs one simulation and returns its report and the host ns spent in
/// decode (for a trace), `GpuSimulator::new` and the run.
fn run_job(
    job: &SimJob,
    engine: Engine,
    log: &mut SpanLog,
    op: u32,
) -> Result<(SimReport, u64), String> {
    let root = log.enter("op", None, op);
    let start = Instant::now();
    let span = match job.source {
        Source::TraceText(_) => log.enter("tracefmt.decode", root, op),
        Source::Program(_) => None,
    };
    let program = program_of(job);
    log.exit(span);
    let program = program?;
    let span = log.enter("sim.new", root, op);
    let mut sim = GpuSimulator::new(job.cfg.clone(), program, job.mode);
    log.exit(span);
    let span = log.enter("sim.run", root, op);
    let result = match engine {
        Engine::Event => sim.run(MAX_CYCLES),
        Engine::Stepped => sim.run_stepped(MAX_CYCLES),
    };
    log.exit(span);
    let wall_ns = start.elapsed().as_nanos() as u64;
    log.exit(root);
    let report = result.map_err(|e| format!("{} {}: {e}", job.bench, job.mode))?;
    Ok((report, wall_ns))
}

/// Every cell of a sweep into an empty store must have been computed.
fn check_computed(out: &mut PassResult, summary: &SweepSummary) {
    out.attempted += summary.outcomes.len() as u64;
    for o in &summary.outcomes {
        if o.status != CellStatus::Computed {
            out.errors.push(format!(
                "cell {} was {:?}, expected Computed: {}",
                o.label, o.status, o.detail
            ));
        }
    }
}

/// One pass of `jobs`, one after another, on `engine`.
pub fn run_sims(jobs: &[SimJob], engine: Engine, log: &mut SpanLog) -> PassResult {
    let mut out = PassResult::default();
    for (op, job) in jobs.iter().enumerate() {
        out.attempted += 1;
        match run_job(job, engine, log, op as u32) {
            Ok((report, wall_ns)) => {
                out.wall_ns += wall_ns;
                out.samples.push(Sample {
                    bench: job.bench.clone(),
                    cycles: report.cycles,
                    wall_ns,
                });
                let span = log.enter("sim.report_json", None, op as u32);
                out.digests.push(canonical_digest(&report));
                log.exit(span);
                out.reports.push(report);
            }
            Err(e) => out.errors.push(e),
        }
    }
    out
}

/// One pass over `inputs`. `pass` only names the scratch store of a cold
/// sweep. Spans go to `log`; pass a disabled log to measure.
pub fn run_pass(inputs: &Inputs, log: &mut SpanLog, pass: usize) -> PassResult {
    let mut out = PassResult::default();
    match inputs {
        Inputs::Sims { jobs, engine } => return run_sims(jobs, *engine, log),
        Inputs::SweepCold { spec, root } => {
            let store = root.join(format!("cold-{pass}"));
            let span = log.enter("sweep.run_cold", None, 0);
            let start = Instant::now();
            let summary = run_sweep(spec, &store, &sweep_options());
            out.wall_ns = start.elapsed().as_nanos() as u64;
            log.exit(span);
            match summary {
                Ok(summary) => {
                    check_computed(&mut out, &summary);
                    // The sweep does not return per-cell times, so the
                    // per-operation samples come from the `host` block the
                    // workers wrote into each committed report.
                    match read_cells(spec, &store) {
                        Ok(reports) => {
                            for report in reports {
                                let Some(host) = &report.host else {
                                    out.errors
                                        .push(format!("{}: no host block", report.benchmark));
                                    continue;
                                };
                                out.samples.push(Sample {
                                    bench: report.benchmark.clone(),
                                    cycles: report.cycles,
                                    wall_ns: (host.wall_seconds * 1e9) as u64,
                                });
                                out.digests.push(canonical_digest(&report));
                                out.reports.push(report);
                            }
                        }
                        Err(e) => out.errors.push(e),
                    }
                }
                Err(e) => {
                    out.attempted += 1;
                    out.errors.push(e.to_string());
                }
            }
            // Scratch store of this pass only; a failed removal leaves
            // files under the benchmark's own scratch directory.
            let _ = std::fs::remove_dir_all(&store);
        }
    }
    out
}

/// Set-up of one workload: the warm-up inputs (the workload at
/// [`WARMUP_SCALE`] of its scale), one pass over them, and the inputs of
/// the timed passes.
pub struct Setup {
    /// Inputs of the timed passes.
    pub inputs: Inputs,
    /// The warm-up inputs, kept for the cross-engine check.
    pub warmup_inputs: Inputs,
    /// The warm-up pass.
    pub warmup: PassResult,
}

/// Generates inputs and warms up, as timed by `setup_s`. Spans of the
/// full-scale input generation go to `log`.
pub fn setup(
    workload: Workload,
    seed: u64,
    scale: f64,
    scratch: &Path,
    log: &mut SpanLog,
) -> Result<Setup, String> {
    let quiet = &mut SpanLog::disabled();
    let warmup_scratch = scratch.join("warmup");
    let warmup_inputs = build(workload, seed, scale * WARMUP_SCALE, &warmup_scratch, quiet)?;
    let warmup = run_pass(&warmup_inputs, quiet, 0);
    let inputs = build(workload, seed, scale, scratch, log)?;
    Ok(Setup {
        inputs,
        warmup_inputs,
        warmup,
    })
}

/// The cross-engine check: simulation workloads re-run their warm-up
/// inputs on the other engine and must reproduce the warm-up's digests
/// exactly. Returns (attempted, errors). Sweeps have nothing to compare
/// (the engine is part of a cell's key).
pub fn cross_engine_check(setup: &Setup) -> (u64, Vec<String>) {
    let Inputs::Sims { jobs, engine } = &setup.warmup_inputs else {
        return (0, Vec::new());
    };
    let other = run_sims(jobs, engine.other(), &mut SpanLog::disabled());
    let mut errors = other.errors;
    if other.digests != setup.warmup.digests {
        errors.push("run() and run_stepped() disagree on the warm-up inputs".to_owned());
    }
    (other.attempted, errors)
}
