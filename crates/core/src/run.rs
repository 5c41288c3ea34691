//! Running simulations: one at a time, or a whole plan on the worker pool.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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

/// The one worker pool: runs `work` over `items` on `min(workers, n)`
/// scoped threads (`workers == 0`: one per host core) and hands each
/// result, tagged with its item's index, to `on_result` on the calling
/// thread.
///
/// Items are claimed in input order from an atomic index, so one worker
/// visits them in order; with more workers results arrive in completion
/// order and the index puts them back. Workers never wait for `on_result`
/// (the sweep's commits sync to disk): finished results queue until it
/// takes them. Once `on_result` returns [`ControlFlow::Break`] it is never
/// called again, at most one more item starts per worker (one already
/// past its stop check), and queued or in-flight results are dropped.
pub fn run_pool<T, R>(
    items: &[T],
    workers: usize,
    work: impl Fn(&T) -> R + Sync,
    mut on_result: impl FnMut(usize, R) -> ControlFlow<()>,
) where
    T: Sync,
    R: Send,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    let workers = match workers {
        0 => thread::available_parallelism().map_or(4, |p| p.get()),
        w => w,
    }
    .min(n);
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, R)>();

    thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, stop, work) = (&next, &stop, &work);
            scope.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n || tx.send((i, work(&items[i]))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // Breaking out drops `rx`: a worker still simulating finds the
        // channel closed when it tries to hand its result over, and the
        // stop flag keeps the others from claiming more.
        for (i, out) in rx {
            if on_result(i, out).is_break() {
                stop.store(true, Ordering::Release);
                break;
            }
        }
    });
}

/// Splits a plan into its distinct runs — entries with the same program
/// (the same `Arc`), memory mode and configuration — as the plan index of
/// each distinct run's first occurrence, and for every plan entry the
/// position of its run among them.
fn dedup(plan: &[RunSpec]) -> (Vec<usize>, Vec<usize>) {
    let mut firsts: Vec<usize> = Vec::new();
    let slots = plan
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let same = |&f: &usize| {
                let b = &plan[f];
                a.mode == b.mode && Arc::ptr_eq(&a.program, &b.program) && a.cfg == b.cfg
            };
            firsts.iter().position(same).unwrap_or_else(|| {
                firsts.push(i);
                firsts.len() - 1
            })
        })
        .collect();
    (firsts, slots)
}

/// How many simulations [`run_plan`] performs for `plan`.
pub fn distinct_runs(plan: &[RunSpec]) -> usize {
    dedup(plan).0.len()
}

/// Runs a plan on [`run_pool`] and returns one report per entry, in plan
/// order. An entry that repeats an earlier one (see [`distinct_runs`]) is
/// simulated once and its report shared, so plans concatenated from
/// several experiments pay for their common runs once.
///
/// # Errors
///
/// The first [`SimError`] to arrive; no further runs start after it.
pub fn run_plan(plan: &[RunSpec], workers: usize) -> Result<Vec<SimReport>, SimError> {
    let (firsts, slots) = dedup(plan);
    let mut reports: Vec<Option<SimReport>> = vec![None; firsts.len()];
    let mut error = None;
    run_pool(
        &firsts,
        workers,
        |&i| run_benchmark(&plan[i].cfg, &plan[i].program, plan[i].mode),
        |d, out| match out {
            Ok(report) => {
                reports[d] = Some(report);
                ControlFlow::Continue(())
            }
            Err(e) => {
                error = Some(e);
                ControlFlow::Break(())
            }
        },
    );
    match error {
        Some(e) => Err(e),
        None => Ok(slots.iter().filter_map(|&d| reports[d].clone()).collect()),
    }
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

/// How the sweep orchestrator responds to a failed attempt: up to
/// `max_attempts` tries, separated by deterministic seeded exponential
/// [`Backoff`].
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
    /// One retry, immediately.
    fn default() -> Self {
        RetryPolicy::immediate(2)
    }
}

/// Runs `attempt` under `policy`, retrying host-dependent failures with
/// the policy's backoff. Returns how many attempts were made alongside the
/// final outcome. `salt` keys the jitter stream (callers pass a stable
/// per-work-item value, e.g. a cell digest).
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
    fn repeated_entries_are_simulated_once() {
        let a = tiny_spec(MemoryMode::Hierarchy);
        let b = tiny_spec(MemoryMode::FixedLatency(100));
        // Same configuration and mode, but a different program `Arc`.
        let c = tiny_spec(MemoryMode::Hierarchy);
        let mut d = a.clone();
        d.cfg.num_cores = 1;
        let plan = vec![a.clone(), b.clone(), a.clone(), c, b, d, a];
        assert_eq!(dedup(&plan), (vec![0, 1, 3, 5], vec![0, 1, 0, 2, 1, 3, 0]));
        assert_eq!(distinct_runs(&plan), 4);
        assert!(run_plan(&[], 0).unwrap().is_empty());
    }

    #[test]
    fn pool_stops_after_break() {
        let items: Vec<u32> = (0..64).collect();
        for workers in [1, 2, 4] {
            for k in [1, 3, 10] {
                let broke = AtomicBool::new(false);
                let started_after_break = AtomicUsize::new(0);
                let mut delivered = 0;
                run_pool(
                    &items,
                    workers,
                    |&x| {
                        if broke.load(Ordering::SeqCst) {
                            started_after_break.fetch_add(1, Ordering::SeqCst);
                        }
                        thread::sleep(Duration::from_micros(200));
                        x
                    },
                    |_, _| {
                        delivered += 1;
                        if delivered < k {
                            return ControlFlow::Continue(());
                        }
                        broke.store(true, Ordering::SeqCst);
                        ControlFlow::Break(())
                    },
                );
                assert_eq!(delivered, k, "no callback after Break");
                let late = started_after_break.into_inner();
                assert!(
                    late <= workers,
                    "{late} items started after Break with {workers} workers"
                );
            }
        }
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
