//! The content-addressed results store: committed cell envelopes, digest
//! computation, and the hit/miss/quarantine decision procedure.

use std::collections::BTreeSet;
use std::path::Path;

use gpumem_sim::SimReport;
use gpumem_types::{CellKey, SweepError};
use serde::{Deserialize, Serialize};

use crate::journal::{DiskStore, JournalEvent};
use crate::SweepSpec;

/// What a committed cell file holds: the report plus its provenance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellEnvelope {
    /// Cell key as 32 hex chars (must match the file name).
    pub key: String,
    /// Human-readable cell label (benchmark/design point/…).
    pub label: String,
    /// Digest of the simulated result, `host` block blanked.
    pub result_digest: String,
    /// Simulation attempts behind the commit: [`run_sweep`](crate::run_sweep)
    /// runs each cell once and records 1.
    pub attempts: u32,
    /// The simulated result itself.
    pub report: SimReport,
}

/// Outcome of a store lookup.
#[derive(Debug)]
pub enum Lookup {
    /// The cell is committed and its file verified: serve it.
    Hit(Box<CellEnvelope>),
    /// The cell must be (re)computed.
    Miss {
        /// True when evidence of a previous commit existed — a corrupt or
        /// checksum-failing file (now quarantined), or a journal commit
        /// record whose file is missing. These misses count as
        /// *recomputations* in the summary.
        was_committed: bool,
    },
}

/// The digest of a simulated result, as 32 hex chars.
///
/// The host-dependent wall-clock block (`host`) is blanked first: two runs
/// of the same cell must digest identically even though the host behaved
/// differently, because the *simulated* numbers are bit-identical.
pub(crate) fn result_digest(report: &SimReport) -> String {
    let mut canonical = report.clone();
    canonical.host = None;
    let json = serde_json::to_string(&canonical).expect("report serializes");
    CellKey::from_canonical(&json).to_string()
}

/// A [`DiskStore`] plus the replayed journal state: which cells the
/// journal claims are committed, and the verification logic that decides
/// whether to trust each cell file.
#[derive(Debug)]
pub struct ResultStore {
    disk: DiskStore,
    journal_committed: BTreeSet<String>,
}

impl ResultStore {
    /// Opens (or creates) the store at `root` and replays its journal.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] on filesystem failure.
    pub fn open(root: &Path) -> Result<ResultStore, SweepError> {
        let disk = DiskStore::open(root)?;
        let journal_committed = disk
            .read_journal()?
            .into_iter()
            .filter(|r| r.event == JournalEvent::Commit)
            .map(|r| r.cell)
            .collect();
        Ok(ResultStore {
            disk,
            journal_committed,
        })
    }

    /// Opens a store that must already exist; never creates directories.
    /// This is what read-only consumers (`repro sweep --query`) use, so a
    /// typo'd path is a typed error instead of a freshly-minted empty
    /// store.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] if there is no store at `root` or its journal
    /// cannot be read.
    pub fn open_existing(root: &Path) -> Result<ResultStore, SweepError> {
        let disk = DiskStore::open_existing(root)?;
        let journal_committed = disk
            .read_journal()?
            .into_iter()
            .filter(|r| r.event == JournalEvent::Commit)
            .map(|r| r.cell)
            .collect();
        Ok(ResultStore {
            disk,
            journal_committed,
        })
    }

    /// Arms crash injection on the underlying journal (see
    /// [`DiskStore::set_crash_after`]).
    pub fn set_crash_after(&mut self, boundary: Option<u64>) {
        self.disk.set_crash_after(boundary);
    }

    /// Bytes currently in the journal.
    pub fn journal_bytes(&self) -> u64 {
        self.disk.journal_bytes()
    }

    /// Appends a store-level journal record (`Opened`/`Done`).
    ///
    /// # Errors
    ///
    /// [`SweepError::InjectedCrash`] / [`SweepError::Io`] from the
    /// journal append.
    pub(crate) fn journal_event(
        &mut self,
        event: JournalEvent,
        detail: &str,
    ) -> Result<(), SweepError> {
        self.disk.append_journal(event, None, detail)
    }

    /// Appends a cell-level journal record (`Begin`/`Failed`).
    ///
    /// # Errors
    ///
    /// [`SweepError::InjectedCrash`] / [`SweepError::Io`] from the
    /// journal append.
    pub(crate) fn journal_cell_event(
        &mut self,
        event: JournalEvent,
        key: CellKey,
        detail: &str,
    ) -> Result<(), SweepError> {
        self.disk.append_journal(event, Some(key), detail)
    }

    /// Decides whether `key` can be served from the store.
    ///
    /// The cell *file* is authoritative: a verifiable file is a hit even
    /// without a journal commit record (the process may have died between
    /// the rename and the journal append — the work is durable either
    /// way). A corrupt file is quarantined, recorded in the journal, and
    /// reported as a recomputation miss; so is a journal-committed cell
    /// whose file has vanished.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] on filesystem failure,
    /// [`SweepError::InjectedCrash`] if quarantining hits an armed crash
    /// boundary.
    pub fn lookup(&mut self, key: CellKey) -> Result<Lookup, SweepError> {
        let hex = key.to_string();
        match self.disk.read_cell(key) {
            Ok(Some(body)) => match serde_json::from_str::<CellEnvelope>(&body) {
                Ok(env) if env.key == hex => Ok(Lookup::Hit(Box::new(env))),
                _ => {
                    // Checksum passed but the payload is not this cell's
                    // envelope — still corruption, just a cleverer kind.
                    self.quarantine(key, "envelope mismatch")?;
                    Ok(Lookup::Miss {
                        was_committed: true,
                    })
                }
            },
            Ok(None) => Ok(Lookup::Miss {
                was_committed: self.journal_committed.contains(&hex),
            }),
            Err(SweepError::CorruptCell { detail, .. }) => {
                self.quarantine(key, &detail)?;
                Ok(Lookup::Miss {
                    was_committed: true,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Read-only probe used by `repro sweep --query`: never quarantines,
    /// never writes.
    ///
    /// # Errors
    ///
    /// [`SweepError::CorruptCell`] if the file exists but does not
    /// verify; [`SweepError::Io`] on filesystem failure.
    pub fn peek(&self, key: CellKey) -> Result<Option<CellEnvelope>, SweepError> {
        let hex = key.to_string();
        match self.disk.read_cell(key)? {
            None => Ok(None),
            Some(body) => match serde_json::from_str::<CellEnvelope>(&body) {
                Ok(env) if env.key == hex => Ok(Some(env)),
                _ => Err(SweepError::CorruptCell {
                    cell: key,
                    detail: "envelope does not parse or names another cell".to_owned(),
                }),
            },
        }
    }

    fn quarantine(&mut self, key: CellKey, detail: &str) -> Result<(), SweepError> {
        self.disk.quarantine(key)?;
        self.journal_committed.remove(&key.to_string());
        self.disk
            .append_journal(JournalEvent::Quarantine, Some(key), detail)
    }

    /// Commits a computed cell: durable file first, then the journal
    /// record. Returns the result digest.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] on filesystem failure,
    /// [`SweepError::InjectedCrash`] if the journal append hits an armed
    /// crash boundary — the cell file is already durable in that case,
    /// exactly the window the protocol is designed to survive.
    pub fn commit(
        &mut self,
        key: CellKey,
        label: &str,
        attempts: u32,
        report: &SimReport,
    ) -> Result<String, SweepError> {
        let digest = result_digest(report);
        let envelope = CellEnvelope {
            key: key.to_string(),
            label: label.to_owned(),
            result_digest: digest.clone(),
            attempts,
            report: report.clone(),
        };
        let body = serde_json::to_string_pretty(&envelope).expect("envelope serializes");
        self.disk.write_cell(key, &body)?;
        self.journal_committed.insert(key.to_string());
        self.disk
            .append_journal(JournalEvent::Commit, Some(key), &digest)?;
        Ok(digest)
    }

    /// Digest of the whole store restricted to `keys`: the FNV-128 of the
    /// sorted `<key>=<result digest>` lines of every committed cell.
    /// Uncommitted keys are skipped (so a store with failures still has a
    /// well-defined digest over what exists).
    ///
    /// # Errors
    ///
    /// [`SweepError::CorruptCell`] / [`SweepError::Io`] from
    /// [`ResultStore::peek`].
    pub fn store_digest(&self, keys: &[CellKey]) -> Result<String, SweepError> {
        let mut lines = Vec::new();
        for &key in keys {
            if let Some(env) = self.peek(key)? {
                lines.push(format!("{}={}\n", env.key, env.result_digest));
            }
        }
        lines.sort();
        lines.dedup();
        Ok(CellKey::from_canonical(&lines.concat()).to_string())
    }

    /// Persists the spec as `spec.json` so `--resume <dir>` needs no
    /// other input.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] on filesystem failure.
    pub(crate) fn save_spec(&self, spec: &SweepSpec) -> Result<(), SweepError> {
        let path = self.disk.root().join("spec.json");
        self.disk.write_text_atomic(&path, &spec.to_json())
    }

    /// Loads the spec a previous run stored, if any.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] on read failure, [`SweepError::SpecInvalid`] if
    /// the stored spec no longer parses.
    pub fn load_spec(&self) -> Result<Option<SweepSpec>, SweepError> {
        let path = self.disk.root().join("spec.json");
        match self.disk.read_text(&path)? {
            None => Ok(None),
            Some(text) => SweepSpec::from_json(&text).map(Some),
        }
    }
}
