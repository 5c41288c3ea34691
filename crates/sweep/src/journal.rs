//! The disk layer: write-ahead journal, checksummed cell files, atomic
//! renames, quarantine.
//!
//! Every filesystem touch of the sweep crate lives in this module —
//! `clippy.toml` denies `std::fs` everywhere else in the workspace, and the
//! expectation below is the crate's only non-test exemption — so the
//! commit protocol below is the *only* way sweep state reaches disk:
//!
//! 1. the result is written to `cells/<key>.json.tmp` and atomically
//!    renamed over `cells/<key>.json`; the file's first line is an FNV
//!    checksum of the remaining bytes, so a torn or bit-flipped file is
//!    detectable on read;
//! 2. a `commit` record is appended to `journal.log`, each line
//!    self-checksummed as `<fnv16hex> <json>\n`.
//!
//! A crash between the two steps leaves a valid cell file with no journal
//! record — the store treats the file as authoritative, so the work is not
//! lost. A crash mid-append leaves a torn final journal line, which replay
//! tolerates by stopping at the first unverifiable line.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the sweep's one sanctioned disk layer"
)]

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use gpumem_types::{fnv1a64, CellKey, SweepError};
use serde::{Deserialize, Serialize};

/// What a journal line records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JournalEvent {
    /// A sweep run opened the store.
    Opened,
    /// A cell was handed to a worker.
    Begin,
    /// A cell's result file is durably in place.
    Commit,
    /// A cell file failed checksum verification and was moved aside.
    Quarantine,
    /// A cell failed with a simulator error (after retries, if eligible).
    Failed,
    /// A sweep run finished; `detail` carries the store digest.
    Done,
}

/// One line of the write-ahead journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Monotonic sequence number within this store.
    pub seq: u64,
    /// Event kind.
    pub event: JournalEvent,
    /// Cell key as 32 hex chars; empty for store-level events.
    pub cell: String,
    /// Event-specific payload (result digest for `Commit`, error text for
    /// `Failed`, …).
    pub detail: String,
}

fn io_err(path: &Path, e: &std::io::Error) -> SweepError {
    SweepError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// Reads a `gpumem-trace v1` workload file for a sweep.
///
/// Trace files are *inputs* to a sweep, not store state, but this crate's
/// one-module filesystem policy applies to reads too — so the sweep path
/// for loading them lives here. The caller parses the returned text.
///
/// # Errors
///
/// [`SweepError::Io`] if the file cannot be read.
pub fn read_trace_file(path: &Path) -> Result<String, SweepError> {
    fs::read_to_string(path).map_err(|e| io_err(path, &e))
}

/// The on-disk layout of one results store, plus the crash-injection
/// metering used by the recovery tests.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    journal_path: PathBuf,
    journal_bytes: u64,
    next_seq: u64,
    crash_after: Option<u64>,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `root`, with
    /// `cells/` and `quarantine/` subdirectories and a `journal.log`.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] if the directories cannot be created or the
    /// journal cannot be stat'd.
    pub fn open(root: &Path) -> Result<DiskStore, SweepError> {
        for dir in [
            root.to_path_buf(),
            root.join("cells"),
            root.join("quarantine"),
        ] {
            fs::create_dir_all(&dir).map_err(|e| io_err(&dir, &e))?;
        }
        let journal_path = root.join("journal.log");
        let journal_bytes = match fs::metadata(&journal_path) {
            Ok(m) => m.len(),
            Err(_) => 0,
        };
        let mut store = DiskStore {
            root: root.to_path_buf(),
            journal_path,
            journal_bytes,
            next_seq: 0,
            crash_after: None,
        };
        store.next_seq = store.read_journal()?.last().map(|r| r.seq + 1).unwrap_or(0);
        Ok(store)
    }

    /// Opens a store that must already exist — the read-only entry point
    /// (`repro sweep --query`), which must not leave an empty store
    /// skeleton behind when pointed at the wrong directory.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] if `root/cells` is not a directory (no store
    /// here) or the journal cannot be read.
    pub fn open_existing(root: &Path) -> Result<DiskStore, SweepError> {
        if !root.join("cells").is_dir() {
            return Err(SweepError::Io {
                path: root.display().to_string(),
                detail: "no results store at this path (expected a `cells/` directory)".to_owned(),
            });
        }
        DiskStore::open(root)
    }

    /// Store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Bytes currently in the journal (including any torn tail).
    pub fn journal_bytes(&self) -> u64 {
        self.journal_bytes
    }

    /// Arms crash injection: the next journal append that would push the
    /// journal past `boundary` bytes writes only up to the boundary (a
    /// torn line, exactly as a SIGKILL mid-`write(2)` would leave) and
    /// returns [`SweepError::InjectedCrash`].
    pub fn set_crash_after(&mut self, boundary: Option<u64>) {
        self.crash_after = boundary;
    }

    /// Appends one self-checksummed record to the journal.
    ///
    /// # Errors
    ///
    /// [`SweepError::InjectedCrash`] when an armed crash boundary is hit;
    /// [`SweepError::Io`] on real filesystem failure.
    pub fn append_journal(
        &mut self,
        event: JournalEvent,
        cell: Option<CellKey>,
        detail: &str,
    ) -> Result<(), SweepError> {
        let record = JournalRecord {
            seq: self.next_seq,
            event,
            cell: cell.map(|k| k.to_string()).unwrap_or_default(),
            detail: detail.to_owned(),
        };
        let json = serde_json::to_string(&record).expect("journal record serializes");
        let line = format!("{:016x} {}\n", fnv1a64(json.as_bytes()), json);
        let bytes = line.as_bytes();

        let write_prefix = match self.crash_after {
            Some(boundary) if self.journal_bytes + bytes.len() as u64 > boundary => {
                Some((boundary.saturating_sub(self.journal_bytes)) as usize)
            }
            _ => None,
        };
        let to_write = write_prefix.map_or(bytes, |n| &bytes[..n.min(bytes.len())]);

        if !to_write.is_empty() {
            let mut file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.journal_path)
                .map_err(|e| io_err(&self.journal_path, &e))?;
            file.write_all(to_write)
                .map_err(|e| io_err(&self.journal_path, &e))?;
            file.sync_all()
                .map_err(|e| io_err(&self.journal_path, &e))?;
            self.journal_bytes += to_write.len() as u64;
        }
        if write_prefix.is_some() {
            return Err(SweepError::InjectedCrash {
                journal_bytes: self.journal_bytes,
            });
        }
        self.next_seq += 1;
        Ok(())
    }

    /// Replays the journal: every verifiable record, in order.
    ///
    /// A line whose checksum or JSON does not verify ends the replay
    /// *silently* — that is the torn-tail contract. Records after a torn
    /// line are unreachable, which is safe because cell files, not the
    /// journal, are the source of truth for completed work.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] only on real read failure of an existing file.
    pub fn read_journal(&self) -> Result<Vec<JournalRecord>, SweepError> {
        // Raw bytes, not a string read: a torn tail can contain arbitrary
        // garbage, including invalid UTF-8, and must end the replay rather
        // than error the whole open.
        let bytes = match fs::read(&self.journal_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err(&self.journal_path, &e)),
        };
        let mut records = Vec::new();
        let mut start = 0usize;
        while let Some(pos) = bytes[start..].iter().position(|b| *b == b'\n') {
            let line = &bytes[start..=start + pos];
            let Some(parsed) = std::str::from_utf8(line).ok().and_then(parse_journal_line) else {
                break;
            };
            records.push(parsed);
            start += pos + 1;
        }
        Ok(records)
    }

    /// Path of a cell's result file.
    pub fn cell_path(&self, key: CellKey) -> PathBuf {
        self.root.join("cells").join(format!("{key}.json"))
    }

    /// Durably writes a cell result: checksum header + body, staged in a
    /// temp file and atomically renamed into place.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] on filesystem failure.
    pub fn write_cell(&self, key: CellKey, body: &str) -> Result<(), SweepError> {
        let content = format!("{:016x}\n{}", fnv1a64(body.as_bytes()), body);
        self.write_text_atomic(&self.cell_path(key), &content)
    }

    /// Reads and verifies a cell file.
    ///
    /// Returns the body with the checksum header stripped, `Ok(None)` if
    /// the file does not exist.
    ///
    /// # Errors
    ///
    /// [`SweepError::CorruptCell`] if the file exists but its header is
    /// malformed or the checksum does not match — the caller decides
    /// whether to quarantine; [`SweepError::Io`] on real read failure.
    pub fn read_cell(&self, key: CellKey) -> Result<Option<String>, SweepError> {
        let path = self.cell_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(&path, &e)),
        };
        let corrupt = |detail: String| SweepError::CorruptCell { cell: key, detail };
        // Bit rot can produce invalid UTF-8; that is corruption, not an
        // I/O failure.
        let content = match String::from_utf8(bytes) {
            Ok(t) => t,
            Err(_) => return Err(corrupt("file is not valid UTF-8".to_owned())),
        };
        let (header, body) = content
            .split_once('\n')
            .ok_or_else(|| corrupt("missing checksum header".to_owned()))?;
        let want = u64::from_str_radix(header.trim(), 16)
            .map_err(|_| corrupt(format!("bad checksum header {header:?}")))?;
        let got = fnv1a64(body.as_bytes());
        if want != got {
            return Err(corrupt(format!(
                "checksum mismatch: header {want:016x}, content {got:016x}"
            )));
        }
        Ok(Some(body.to_owned()))
    }

    /// Moves a failed-verification cell file into `quarantine/` so the
    /// evidence survives recomputation.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] if the rename fails for a reason other than the
    /// source already being gone.
    pub fn quarantine(&self, key: CellKey) -> Result<(), SweepError> {
        let from = self.cell_path(key);
        let to = self.root.join("quarantine").join(format!("{key}.json"));
        match fs::rename(&from, &to) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err(&from, &e)),
        }
    }

    /// Writes `content` to `path` via temp file + atomic rename.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] on filesystem failure.
    pub fn write_text_atomic(&self, path: &Path, content: &str) -> Result<(), SweepError> {
        let tmp = path.with_extension("tmp");
        {
            let mut file = fs::File::create(&tmp).map_err(|e| io_err(&tmp, &e))?;
            file.write_all(content.as_bytes())
                .map_err(|e| io_err(&tmp, &e))?;
            file.sync_all().map_err(|e| io_err(&tmp, &e))?;
        }
        fs::rename(&tmp, path).map_err(|e| io_err(path, &e))
    }

    /// Reads a text file under the store, `Ok(None)` if absent.
    ///
    /// # Errors
    ///
    /// [`SweepError::Io`] on real read failure.
    pub fn read_text(&self, path: &Path) -> Result<Option<String>, SweepError> {
        match fs::read_to_string(path) {
            Ok(t) => Ok(Some(t)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err(path, &e)),
        }
    }
}

/// Verifies and parses one journal line (trailing newline included).
/// `None` means the line is torn or corrupt.
fn parse_journal_line(line: &str) -> Option<JournalRecord> {
    let line = line.strip_suffix('\n')?; // a line without \n is a torn tail
    let (checksum, json) = line.split_once(' ')?;
    let want = u64::from_str_radix(checksum, 16).ok()?;
    if fnv1a64(json.as_bytes()) != want {
        return None;
    }
    serde_json::from_str(json).ok()
}

// Disk behaviour (torn tails, checksum rejection, crash injection) is
// covered in `tests/disk.rs`.
