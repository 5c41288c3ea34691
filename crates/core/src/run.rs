//! Helpers for running benchmarks, serially or across threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use gpumem_config::GpuConfig;
use gpumem_sim::{GpuSimulator, MemoryMode, SimError, SimReport};
use gpumem_simt::KernelProgram;
use gpumem_types::SimRng;

/// Default watchdog budget: generous enough for every suite benchmark at
/// every design point, small enough to catch deadlocks quickly.
pub const DEFAULT_MAX_CYCLES: u64 = 50_000_000;

/// One simulation to run: a configuration, a kernel and a memory mode.
#[derive(Clone)]
pub struct RunSpec {
    /// GPU configuration (baseline or a Table I design point).
    pub cfg: GpuConfig,
    /// The kernel to execute.
    pub program: Arc<dyn KernelProgram>,
    /// Memory backend.
    pub mode: MemoryMode,
}

impl std::fmt::Debug for RunSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunSpec")
            .field("program", &self.program.name())
            .field("mode", &self.mode)
            .finish_non_exhaustive()
    }
}

/// Runs one benchmark to completion.
///
/// # Errors
///
/// Propagates [`SimError::Watchdog`] if the run does not complete within
/// [`DEFAULT_MAX_CYCLES`].
pub fn run_benchmark(
    cfg: &GpuConfig,
    program: &Arc<dyn KernelProgram>,
    mode: MemoryMode,
) -> Result<SimReport, SimError> {
    GpuSimulator::new(cfg.clone(), Arc::clone(program), mode).run(DEFAULT_MAX_CYCLES)
}

/// Runs a batch of independent simulations across all available cores,
/// preserving input order in the output.
///
/// # Errors
///
/// Returns the first [`SimError`] encountered (remaining runs still
/// execute; their results are discarded).
pub fn run_benchmarks_parallel(specs: &[RunSpec]) -> Result<Vec<SimReport>, SimError> {
    let n = specs.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let workers = thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<SimReport, SimError>)>();

    thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let spec = &specs[i];
                let out = GpuSimulator::new(spec.cfg.clone(), Arc::clone(&spec.program), spec.mode)
                    .run(DEFAULT_MAX_CYCLES);
                tx.send((i, out)).expect("receiver outlives the scope");
            });
        }
    });
    drop(tx);

    // Workers finish in arbitrary order; reassemble by index so the output
    // order (and the index of the error returned, if any) depends only on
    // the input.
    let mut results: Vec<Option<Result<SimReport, SimError>>> = (0..n).map(|_| None).collect();
    for (i, out) in rx {
        results[i] = Some(out);
    }
    results
        .into_iter()
        .map(|slot| slot.expect("every index was sent by a worker"))
        .collect()
}

/// Deterministic seeded exponential backoff between retry attempts.
///
/// The delay before retry `n` (the first retry is `n = 1`) is
/// `base_ms << (n - 1)`, capped at `max_ms`, plus a jitter of up to half
/// the delay drawn from a [`SimRng`] stream forked from `(seed, salt, n)`
/// — so two cells retrying at once do not hammer the host in lockstep,
/// yet the whole schedule is reproducible from the policy and the cell's
/// salt alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Delay before the first retry, in milliseconds (0 disables waiting).
    pub base_ms: u64,
    /// Ceiling on the exponential growth, in milliseconds.
    pub max_ms: u64,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl Backoff {
    /// A backoff that never waits (retry immediately).
    pub const NONE: Backoff = Backoff {
        base_ms: 0,
        max_ms: 0,
        seed: 0,
    };

    /// The delay in milliseconds before retry `attempt` (1-based) of the
    /// work item identified by `salt`. Deterministic in
    /// `(self, salt, attempt)`.
    pub fn delay_ms(&self, salt: u64, attempt: u32) -> u64 {
        if self.base_ms == 0 {
            return 0;
        }
        let exp = self
            .base_ms
            .checked_shl(attempt.saturating_sub(1).min(32))
            .unwrap_or(u64::MAX)
            .min(self.max_ms.max(self.base_ms));
        let jitter = SimRng::new(self.seed)
            .fork(salt)
            .fork(attempt as u64)
            .gen_range(exp / 2 + 1);
        exp + jitter
    }
}

/// How [`run_benchmarks_resilient_with`] (and the sweep orchestrator)
/// respond to a failed attempt: up to `max_attempts` tries, separated by
/// deterministic seeded exponential [`Backoff`].
///
/// Only *host-dependent* errors ([`SimError::is_host_dependent`]:
/// a missed wall-clock deadline) are retried — a
/// deterministic error (wedge, queue overflow, expired cycle budget) would
/// fail every retry identically, so it fails fast after one attempt
/// regardless of the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts allowed (≥ 1; the first run counts as one).
    pub max_attempts: u32,
    /// Wait schedule between attempts.
    pub backoff: Backoff,
}

impl RetryPolicy {
    /// `max_attempts` tries with no waiting between them.
    pub fn immediate(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            backoff: Backoff::NONE,
        }
    }
}

impl Default for RetryPolicy {
    /// The historical [`run_benchmarks_resilient`] behaviour: one retry,
    /// immediately.
    fn default() -> Self {
        RetryPolicy::immediate(2)
    }
}

/// Runs `attempt` under `policy`, retrying host-dependent failures with
/// the policy's backoff. Returns how many attempts were made alongside the
/// final outcome. `salt` keys the jitter stream (callers pass a stable
/// per-work-item value, e.g. the batch index or a cell digest).
pub fn retry_with_policy<F>(
    policy: &RetryPolicy,
    salt: u64,
    mut attempt: F,
) -> (u32, Result<SimReport, SimError>)
where
    F: FnMut() -> Result<SimReport, SimError>,
{
    let max = policy.max_attempts.max(1);
    let mut tries = 0u32;
    loop {
        tries += 1;
        match attempt() {
            Ok(report) => return (tries, Ok(report)),
            Err(error) => {
                if !error.is_host_dependent() || tries >= max {
                    return (tries, Err(error));
                }
                let ms = policy.backoff.delay_ms(salt, tries);
                if ms > 0 {
                    thread::sleep(Duration::from_millis(ms));
                }
            }
        }
    }
}

/// One benchmark that could not be completed by [`run_benchmarks_resilient`],
/// after exhausting its retry budget.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkFailure {
    /// Index into the input `specs` slice.
    pub index: usize,
    /// The benchmark's name.
    pub benchmark: String,
    /// How many attempts were actually made: 1 for a deterministic error
    /// (which fails fast — a retry would reproduce it bit-identically),
    /// up to the policy's `max_attempts` for host-dependent errors.
    pub attempts: u32,
    /// The typed error from the last attempt.
    pub error: SimError,
}

/// Outcome of a resilient batch: reports in input order, with `None` at
/// every index that failed, plus a structured record of each failure.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// One slot per input spec, in input order.
    pub reports: Vec<Option<SimReport>>,
    /// Benchmarks that failed both attempts, in input order.
    pub failures: Vec<BenchmarkFailure>,
}

impl BatchOutcome {
    /// True when every benchmark in the batch completed.
    pub fn all_ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// [`run_benchmarks_resilient_with`] under the historical default policy
/// (one immediate retry for host-dependent failures).
pub fn run_benchmarks_resilient(
    specs: &[RunSpec],
    max_cycles: u64,
    deadline_seconds: Option<f64>,
) -> BatchOutcome {
    run_benchmarks_resilient_with(specs, max_cycles, deadline_seconds, &RetryPolicy::default())
}

/// Runs a batch of independent simulations across all available cores,
/// degrading gracefully instead of failing the whole batch: each benchmark
/// gets an optional per-run wall-clock budget (`deadline_seconds`), a
/// host-dependent failure is retried under `policy` (deterministic errors
/// fail fast — see [`RetryPolicy`]), and a benchmark that exhausts its
/// budget is reported in [`BatchOutcome::failures`] while every other
/// benchmark's report is still returned.
pub fn run_benchmarks_resilient_with(
    specs: &[RunSpec],
    max_cycles: u64,
    deadline_seconds: Option<f64>,
    policy: &RetryPolicy,
) -> BatchOutcome {
    let n = specs.len();
    if n == 0 {
        return BatchOutcome {
            reports: Vec::new(),
            failures: Vec::new(),
        };
    }
    let workers = thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, u32, Result<SimReport, SimError>)>();

    thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let spec = &specs[i];
                let (attempts, out) = retry_with_policy(policy, i as u64, || {
                    let mut sim =
                        GpuSimulator::new(spec.cfg.clone(), Arc::clone(&spec.program), spec.mode);
                    sim.set_deadline_seconds(deadline_seconds);
                    sim.run(max_cycles)
                });
                tx.send((i, attempts, out))
                    .expect("receiver outlives the scope");
            });
        }
    });
    drop(tx);

    let mut reports: Vec<Option<SimReport>> = (0..n).map(|_| None).collect();
    let mut failures = Vec::new();
    for (i, attempts, out) in rx {
        match out {
            Ok(report) => reports[i] = Some(report),
            Err(error) => failures.push(BenchmarkFailure {
                index: i,
                benchmark: specs[i].program.name().to_owned(),
                attempts,
                error,
            }),
        }
    }
    failures.sort_by_key(|f| f.index);
    BatchOutcome { reports, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_workloads::{SyntheticKernel, WorkloadParams};

    fn tiny_spec(mode: MemoryMode) -> RunSpec {
        let mut cfg = GpuConfig::tiny();
        cfg.num_cores = 2;
        let mut p = WorkloadParams::template("t");
        p.ctas = 4;
        p.warps_per_cta = 2;
        p.iters = 4;
        p.working_set_lines = 2_000;
        RunSpec {
            cfg,
            program: Arc::new(SyntheticKernel::new(p)),
            mode,
        }
    }

    #[test]
    fn serial_run_completes() {
        let spec = tiny_spec(MemoryMode::Hierarchy);
        let report = run_benchmark(&spec.cfg, &spec.program, spec.mode).unwrap();
        assert!(report.instructions > 0);
        assert_eq!(report.benchmark, "t");
    }

    #[test]
    fn parallel_matches_serial_and_preserves_order() {
        let specs = vec![
            tiny_spec(MemoryMode::Hierarchy),
            tiny_spec(MemoryMode::FixedLatency(100)),
            tiny_spec(MemoryMode::FixedLatency(0)),
        ];
        let par = run_benchmarks_parallel(&specs).unwrap();
        assert_eq!(par.len(), 3);
        for (spec, report) in specs.iter().zip(&par) {
            let serial = run_benchmark(&spec.cfg, &spec.program, spec.mode).unwrap();
            assert_eq!(serial.cycles, report.cycles, "determinism across threads");
            assert_eq!(serial.instructions, report.instructions);
        }
        assert_eq!(par[1].mode, "fixed-latency(100)");
        assert_eq!(par[2].mode, "fixed-latency(0)");
    }

    #[test]
    fn empty_batch_is_ok() {
        assert!(run_benchmarks_parallel(&[]).unwrap().is_empty());
    }

    /// A spec too big to finish inside a small cycle budget.
    fn oversized_spec() -> RunSpec {
        let mut spec = tiny_spec(MemoryMode::FixedLatency(400));
        let mut p = WorkloadParams::template("big");
        p.ctas = 64;
        p.warps_per_cta = 2;
        p.iters = 200;
        p.working_set_lines = 2_000;
        spec.program = Arc::new(SyntheticKernel::new(p));
        spec
    }

    #[test]
    fn resilient_batch_reports_partial_results() {
        let specs = vec![
            tiny_spec(MemoryMode::Hierarchy),
            oversized_spec(),
            tiny_spec(MemoryMode::FixedLatency(100)),
        ];
        // A budget the tiny specs clear easily and the oversized one
        // cannot: the batch must still return the two good reports.
        let out = run_benchmarks_resilient(&specs, 20_000, None);
        assert!(!out.all_ok());
        assert!(out.reports[0].is_some(), "tiny run must survive the batch");
        assert!(out.reports[1].is_none(), "failed slot must stay empty");
        assert!(out.reports[2].is_some());
        assert_eq!(out.failures.len(), 1);
        let failure = &out.failures[0];
        assert_eq!(failure.index, 1);
        assert_eq!(failure.benchmark, "big");
        assert_eq!(
            failure.attempts, 1,
            "a deterministic cycle-budget failure must fail fast, not burn retries"
        );
        assert!(matches!(failure.error, SimError::Watchdog { .. }));
    }

    #[test]
    fn resilient_batch_with_no_failures_matches_fail_fast() {
        let specs = vec![
            tiny_spec(MemoryMode::Hierarchy),
            tiny_spec(MemoryMode::FixedLatency(100)),
        ];
        let out = run_benchmarks_resilient(&specs, DEFAULT_MAX_CYCLES, None);
        assert!(out.all_ok());
        let reference = run_benchmarks_parallel(&specs).unwrap();
        for (slot, reference) in out.reports.iter().zip(&reference) {
            let report = slot.as_ref().unwrap();
            assert_eq!(report.cycles, reference.cycles);
            assert_eq!(report.instructions, reference.instructions);
        }
    }

    #[test]
    fn zero_deadline_fails_every_benchmark_after_one_retry() {
        let specs = vec![tiny_spec(MemoryMode::Hierarchy)];
        let out = run_benchmarks_resilient(&specs, DEFAULT_MAX_CYCLES, Some(0.0));
        assert!(out.reports[0].is_none());
        assert_eq!(out.failures.len(), 1);
        assert_eq!(
            out.failures[0].attempts, 2,
            "a host-dependent deadline miss uses the full default budget"
        );
        assert!(matches!(
            out.failures[0].error,
            SimError::DeadlineExceeded { .. }
        ));
    }

    #[test]
    fn retry_budget_applies_only_to_host_dependent_errors() {
        // Host-dependent error: the whole budget is spent.
        let specs = vec![tiny_spec(MemoryMode::Hierarchy)];
        let out = run_benchmarks_resilient_with(
            &specs,
            DEFAULT_MAX_CYCLES,
            Some(0.0),
            &RetryPolicy::immediate(4),
        );
        assert_eq!(out.failures[0].attempts, 4);

        // Deterministic error: one attempt, regardless of the budget.
        let out = run_benchmarks_resilient_with(
            &specs,
            100, // budget far too small: a deterministic Watchdog error
            None,
            &RetryPolicy::immediate(4),
        );
        assert!(matches!(out.failures[0].error, SimError::Watchdog { .. }));
        assert_eq!(out.failures[0].attempts, 1);
    }

    #[test]
    fn retry_helper_counts_attempts_and_stops_on_success() {
        let mut calls = 0;
        let (attempts, out) = retry_with_policy(&RetryPolicy::immediate(5), 7, || {
            calls += 1;
            if calls < 3 {
                Err(SimError::DeadlineExceeded {
                    cycle: 0,
                    budget_seconds: 0.0,
                })
            } else {
                Ok(SimReport::default())
            }
        });
        assert_eq!(attempts, 3);
        assert!(out.is_ok());
    }

    #[test]
    fn backoff_schedule_is_deterministic_exponential_and_capped() {
        let b = Backoff {
            base_ms: 100,
            max_ms: 1000,
            seed: 42,
        };
        for attempt in 1..8 {
            let d1 = b.delay_ms(5, attempt);
            let d2 = b.delay_ms(5, attempt);
            assert_eq!(d1, d2, "delays must be reproducible");
            let exp = (100u64 << (attempt - 1)).min(1000);
            assert!(d1 >= exp, "delay below the exponential floor");
            assert!(d1 <= exp + exp / 2, "jitter above half the delay");
        }
        // Different salts draw different jitter streams.
        let draws: Vec<u64> = (0..16).map(|salt| b.delay_ms(salt, 3)).collect();
        let distinct: std::collections::BTreeSet<u64> = draws.iter().copied().collect();
        assert!(distinct.len() > 1, "jitter must vary across salts");
        assert_eq!(Backoff::NONE.delay_ms(1, 1), 0);
    }
}
