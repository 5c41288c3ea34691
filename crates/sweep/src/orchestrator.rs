//! The sweep executor: admission through the store, the misses on
//! [`gpumem::run_pool`], and single-writer commit ordering.
//!
//! Concurrency model: workers only *simulate* — every store mutation
//! (journal appends, cell commits, quarantines) happens on the
//! coordinating thread, so the write-ahead journal has exactly one writer
//! and needs no locking. The pool hands each `(attempts, result)` to the
//! coordinator, which commits results in arrival order; the
//! content-addressed store makes the commit order irrelevant to the final
//! state.

use std::ops::ControlFlow;
use std::sync::Arc;

use gpumem::{retry_with_policy, run_pool, RetryPolicy};
use gpumem_sim::{GpuSimulator, SimError, SimReport};
use gpumem_types::SweepError;
use serde::{Deserialize, Serialize};

use crate::journal::JournalEvent;
use crate::spec::{SweepCell, SweepSpec};
use crate::store::{Lookup, ResultStore};

/// Knobs for one [`run_sweep`] invocation (everything here is about *how*
/// the sweep executes, never *what* it computes — nothing in this struct
/// enters a cell key).
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads for cell execution; 0 means one per host core.
    pub workers: usize,
    /// Retry budget and backoff for host-dependent failures.
    pub retry: RetryPolicy,
    /// Stream per-cell progress lines to stderr.
    pub progress: bool,
    /// Crash-injection hook for the recovery tests: tear the journal at
    /// this byte offset and abort the sweep, as a SIGKILL would.
    pub crash_after_journal_bytes: Option<u64>,
}

/// How one cell was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellStatus {
    /// Served from the store without simulating.
    CacheHit,
    /// Simulated for the first time.
    Computed,
    /// Simulated again because a previous commit was lost or corrupt.
    Recomputed,
    /// The simulator returned an error (after retries, if eligible).
    Failed,
}

/// Per-cell outcome, in spec expansion order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellOutcome {
    /// Cell key as 32 hex chars.
    pub key: String,
    /// Human-readable cell label.
    pub label: String,
    /// How the cell was satisfied.
    pub status: CellStatus,
    /// Simulation attempts this run made for the cell (0 for cache hits).
    pub attempts: u32,
    /// Digest of the cell's result; absent for failures.
    pub result_digest: Option<String>,
    /// Error text for failures, empty otherwise.
    pub detail: String,
}

/// What a sweep run did, cell by cell and in aggregate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepSummary {
    /// Campaign name from the spec.
    pub name: String,
    /// Total cells in the expanded grid.
    pub cells: usize,
    /// Cells served from the store without simulating.
    pub cache_hits: usize,
    /// Cells simulated for the first time.
    pub computed: usize,
    /// Cells simulated again after a lost or corrupt commit (subset of
    /// `computed` counting, not overlapping it — a cell is one or the
    /// other).
    pub recomputed: usize,
    /// Cells that failed after exhausting their retry eligibility.
    pub failed: usize,
    /// Simulation attempts across all cells this run.
    pub attempts_total: u64,
    /// Digest over every committed cell of the grid (see
    /// [`ResultStore::store_digest`]).
    pub store_digest: String,
    /// Per-cell detail, in spec expansion order.
    pub outcomes: Vec<CellOutcome>,
}

impl SweepSummary {
    /// Simulations actually run (computed + recomputed): 0 means the
    /// whole grid was served from the store.
    pub fn simulations_run(&self) -> usize {
        self.computed + self.recomputed
    }
}

/// Executes one cell under a retry policy.
fn execute_cell(
    cell: &SweepCell,
    deadline_seconds: Option<f64>,
    retry: &RetryPolicy,
) -> (u32, Result<SimReport, SimError>) {
    let program: Arc<dyn gpumem_simt::KernelProgram> = cell.workload.program();
    retry_with_policy(retry, cell.key.lo, || {
        let mut sim = GpuSimulator::new(cell.cfg.clone(), Arc::clone(&program), cell.mode);
        sim.set_deadline_seconds(deadline_seconds);
        sim.run(cell.max_cycles)
    })
}

/// Runs (or resumes — the two are the same operation) a sweep over the
/// store at `store_dir`.
///
/// Cells already committed are served as cache hits; the rest execute on
/// a bounded worker pool and commit one by one, so progress is durable at
/// cell granularity. The returned summary's `store_digest` is the
/// fixpoint check: any two runs of the same spec over any store history
/// end on the same digest.
///
/// # Errors
///
/// [`SweepError::SpecInvalid`] for a bad spec, [`SweepError::Io`] on
/// filesystem failure, [`SweepError::InjectedCrash`] when an armed crash
/// boundary fires (the store is left exactly as a SIGKILL at that journal
/// offset would leave it). Individual cell *failures* do not error the
/// sweep; they are reported in the summary.
pub fn run_sweep(
    spec: &SweepSpec,
    store_dir: &std::path::Path,
    opts: &SweepOptions,
) -> Result<SweepSummary, SweepError> {
    let cells = spec.expand()?;
    let mut store = ResultStore::open(store_dir)?;
    store.save_spec(spec)?;
    store.set_crash_after(opts.crash_after_journal_bytes);
    store.journal_event(JournalEvent::Opened, &spec.name)?;

    // Admission: decide hit/miss for every cell up front (serial — the
    // store has one writer, and lookups are cheap next to simulations).
    let mut outcomes: Vec<CellOutcome> = cells
        .iter()
        .map(|c| CellOutcome {
            key: c.key.to_string(),
            label: c.label(),
            status: CellStatus::CacheHit,
            attempts: 0,
            result_digest: None,
            detail: String::new(),
        })
        .collect();
    let mut misses: Vec<usize> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        match store.lookup(cell.key)? {
            Lookup::Hit(env) => {
                outcomes[i].result_digest = Some(env.result_digest);
                if opts.progress {
                    eprintln!("cell {} {} cache-hit", outcomes[i].key, outcomes[i].label);
                }
            }
            Lookup::Miss { was_committed } => {
                outcomes[i].status = if was_committed {
                    CellStatus::Recomputed
                } else {
                    CellStatus::Computed
                };
                misses.push(i);
            }
        }
    }

    // Write-ahead: journal every cell we are about to run, before any
    // worker starts, so a post-crash reader can tell in-flight cells from
    // never-attempted ones.
    for &i in &misses {
        store.journal_cell_event(JournalEvent::Begin, cells[i].key, "")?;
    }

    // Execution: workers simulate on the shared pool; every commit happens
    // here, on the coordinating thread. A crash stops new cells from
    // starting and drops the in-flight ones uncommitted, as a dead process
    // would.
    let mut crash: Option<SweepError> = None;
    run_pool(
        &misses,
        opts.workers,
        |&idx| execute_cell(&cells[idx], spec.deadline_seconds, &opts.retry),
        |slot, (attempts, out)| {
            let idx = misses[slot];
            outcomes[idx].attempts = attempts;
            let result = match out {
                Ok(report) => store.commit(cells[idx].key, &outcomes[idx].label, attempts, &report),
                Err(error) => {
                    let detail = error.to_string();
                    outcomes[idx].status = CellStatus::Failed;
                    outcomes[idx].detail = detail.clone();
                    store
                        .journal_cell_event(JournalEvent::Failed, cells[idx].key, &detail)
                        .map(|()| String::new())
                }
            };
            match result {
                Ok(digest) => {
                    if outcomes[idx].status != CellStatus::Failed {
                        outcomes[idx].result_digest = Some(digest);
                    }
                    if opts.progress {
                        eprintln!(
                            "cell {} {} {} (attempts {})",
                            outcomes[idx].key,
                            outcomes[idx].label,
                            match outcomes[idx].status {
                                CellStatus::Failed => "FAILED",
                                CellStatus::Recomputed => "recomputed",
                                _ => "computed",
                            },
                            attempts
                        );
                    }
                    ControlFlow::Continue(())
                }
                Err(e) => {
                    crash = Some(e);
                    ControlFlow::Break(())
                }
            }
        },
    );

    if let Some(e) = crash {
        return Err(e);
    }

    let keys: Vec<_> = cells.iter().map(|c| c.key).collect();
    let store_digest = store.store_digest(&keys)?;
    store.journal_event(JournalEvent::Done, &store_digest)?;

    let mut summary = SweepSummary {
        name: spec.name.clone(),
        cells: cells.len(),
        cache_hits: 0,
        computed: 0,
        recomputed: 0,
        failed: 0,
        attempts_total: 0,
        store_digest,
        outcomes,
    };
    for o in &summary.outcomes {
        summary.attempts_total += u64::from(o.attempts);
        match o.status {
            CellStatus::CacheHit => summary.cache_hits += 1,
            CellStatus::Computed => summary.computed += 1,
            CellStatus::Recomputed => summary.recomputed += 1,
            CellStatus::Failed => summary.failed += 1,
        }
    }
    Ok(summary)
}
