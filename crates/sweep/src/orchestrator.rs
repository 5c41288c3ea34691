//! The sweep executor: admission through the store, the misses on
//! [`gpumem::run_pool`], and single-writer commit ordering — shared by
//! spec grids ([`run_sweep`]) and experiment plans ([`run_plan`]).
//!
//! Concurrency model: workers only *simulate* — every store mutation
//! (journal appends, cell commits, quarantines) happens on the
//! coordinating thread, so the write-ahead journal has exactly one writer
//! and needs no locking. The pool hands each result to the coordinator,
//! which commits results in arrival order; the content-addressed store
//! makes the commit order irrelevant to the final state.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::path::Path;

use gpumem::{run_pool, RunSpec, DEFAULT_MAX_CYCLES};
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
    /// The simulator returned an error.
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
    /// Digest of the cell's result; absent for failures.
    pub result_digest: Option<String>,
    /// Error text for failures, empty otherwise.
    pub detail: String,
}

/// What a sweep run did, cell by cell and in aggregate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepSummary {
    /// Campaign name from the spec (`plan` for [`run_plan`]).
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
    /// Cells whose simulation returned an error.
    pub failed: usize,
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

/// Simulates one cell.
fn execute_cell(cell: &SweepCell) -> Result<SimReport, SimError> {
    GpuSimulator::new(cell.cfg.clone(), cell.workload.program(), cell.mode).run(cell.max_cycles)
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
    store_dir: &Path,
    opts: &SweepOptions,
) -> Result<SweepSummary, SweepError> {
    let cells = spec.expand()?;
    let mut store = ResultStore::open(store_dir)?;
    store.save_spec(spec)?;
    execute(&mut store, &spec.name, &cells, opts)
}

/// The cells of an experiment plan, one per distinct [`CellKey`]
/// (first occurrence order), and for every plan entry the index of its
/// cell. Plan cells carry the design-point label `plan`: a plan's
/// configurations are arbitrary, and the label is not part of the key.
///
/// [`CellKey`]: gpumem_types::CellKey
fn plan_cells(plan: &[RunSpec]) -> (Vec<SweepCell>, Vec<usize>) {
    let mut cells: Vec<SweepCell> = Vec::new();
    let mut index = BTreeMap::new();
    let slots = plan
        .iter()
        .map(|run| {
            let cell = SweepCell::new(
                run.workload.name().to_owned(),
                "plan".to_owned(),
                0,
                run.cfg.clone(),
                run.workload.clone(),
                run.mode,
                DEFAULT_MAX_CYCLES,
            );
            *index.entry(cell.key).or_insert_with(|| {
                cells.push(cell);
                cells.len() - 1
            })
        })
        .collect();
    (cells, slots)
}

/// Runs an experiment plan over the store at `store_dir` and returns one
/// report per plan entry, in plan order, read back from the store.
///
/// Entries are content-addressed exactly like [`SweepSpec`] cells at seed
/// 0 and [`DEFAULT_MAX_CYCLES`]: entries with the same key — within the
/// plan, or committed by an earlier plan or sweep over the same store —
/// are simulated at most once. The summary's outcomes are per distinct
/// cell, in first-occurrence order.
///
/// # Errors
///
/// As [`run_sweep`], plus [`SweepError::CellFailed`] for the first cell
/// whose simulation failed (a plan's reduction needs every report).
pub fn run_plan(
    plan: &[RunSpec],
    store_dir: &Path,
    opts: &SweepOptions,
) -> Result<(Vec<SimReport>, SweepSummary), SweepError> {
    let (cells, slots) = plan_cells(plan);
    let mut store = ResultStore::open(store_dir)?;
    let summary = execute(&mut store, "plan", &cells, opts)?;
    let mut reports = Vec::with_capacity(cells.len());
    for (cell, outcome) in cells.iter().zip(&summary.outcomes) {
        let env = store
            .peek(cell.key)?
            .ok_or_else(|| SweepError::CellFailed {
                cell: cell.key,
                detail: outcome.detail.clone(),
            })?;
        reports.push(env.report);
    }
    let reports = slots.iter().map(|&i| reports[i].clone()).collect();
    Ok((reports, summary))
}

/// Admission, write-ahead journal, execution and commit of `cells` (keys
/// pairwise distinct) over an open store.
fn execute(
    store: &mut ResultStore,
    name: &str,
    cells: &[SweepCell],
    opts: &SweepOptions,
) -> Result<SweepSummary, SweepError> {
    store.set_crash_after(opts.crash_after_journal_bytes);
    store.journal_event(JournalEvent::Opened, name)?;

    // Admission: decide hit/miss for every cell up front (serial — the
    // store has one writer, and lookups are cheap next to simulations).
    let mut outcomes: Vec<CellOutcome> = cells
        .iter()
        .map(|c| CellOutcome {
            key: c.key.to_string(),
            label: c.label(),
            status: CellStatus::CacheHit,
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
        |&idx| execute_cell(&cells[idx]),
        |slot, out| {
            let idx = misses[slot];
            let result = match out {
                Ok(report) => store.commit(cells[idx].key, &outcomes[idx].label, 1, &report),
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
                            "cell {} {} {}",
                            outcomes[idx].key,
                            outcomes[idx].label,
                            match outcomes[idx].status {
                                CellStatus::Failed => "FAILED",
                                CellStatus::Recomputed => "recomputed",
                                _ => "computed",
                            },
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
        name: name.to_owned(),
        cells: cells.len(),
        cache_hits: 0,
        computed: 0,
        recomputed: 0,
        failed: 0,
        store_digest,
        outcomes,
    };
    for o in &summary.outcomes {
        match o.status {
            CellStatus::CacheHit => summary.cache_hits += 1,
            CellStatus::Computed => summary.computed += 1,
            CellStatus::Recomputed => summary.recomputed += 1,
            CellStatus::Failed => summary.failed += 1,
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use gpumem::experiments::{design_space, paper_plans};
    use gpumem_config::{DesignPoint, GpuConfig};
    use gpumem_workloads::{params_of, WorkloadKind, BENCHMARK_NAMES};

    fn suite(scale: f64) -> Vec<WorkloadKind> {
        BENCHMARK_NAMES
            .iter()
            .map(|n| WorkloadKind::Synthetic(params_of(n).unwrap().scaled(scale)))
            .collect()
    }

    #[test]
    fn paper_plans_share_the_baseline_cells() {
        let plans = paper_plans(&GpuConfig::gtx480(), &suite(1.0));
        let plan: Vec<RunSpec> = plans.into_iter().flat_map(|(_, p)| p).collect();
        let (cells, slots) = plan_cells(&plan);
        // Per benchmark: 1 (§II) + 1 + 17 (Fig. 1) + 1 (§III)
        // + 1 + 5 (§IV) + 1 + 13 (§V) = 40 entries, of which the five
        // baseline runs are one: 36 cells. No §IV design point scales
        // exactly one Table I row, so none equals an ablation.
        assert_eq!(plan.len(), 8 * 40);
        assert_eq!(slots.len(), plan.len());
        assert_eq!(cells.len(), 8 * 36);
    }

    #[test]
    fn section_iv_plan_and_section_v_grid_share_every_key() {
        let points = DesignPoint::SECTION_IV;
        let plan = design_space::plan(&GpuConfig::gtx480(), &suite(0.4), &points);
        let plan_keys: BTreeSet<_> = plan_cells(&plan).0.iter().map(|c| c.key).collect();
        let grid = SweepSpec::section_v(0.4).expand().unwrap();
        let grid_keys: BTreeSet<_> = grid.iter().map(|c| c.key).collect();
        assert_eq!(plan_keys.len(), 8 * 6);
        assert_eq!(plan_keys, grid_keys);
    }
}
