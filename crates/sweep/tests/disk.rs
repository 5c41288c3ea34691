//! Disk-layer tests: journal replay under torn tails and bit flips, cell
//! checksum verification, quarantine, and the crash-injection metering.

#![expect(clippy::disallowed_methods, reason = "test harness")]

use std::fs;
use std::path::PathBuf;

use gpumem_sweep::{CellKey, DiskStore, JournalEvent, SweepError};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpumem-sweep-disk-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn key(n: u64) -> CellKey {
    CellKey::from_canonical(&format!("test-cell-{n}"))
}

#[test]
fn journal_round_trips_and_sequences() {
    let root = scratch("roundtrip");
    let mut store = DiskStore::open(&root).unwrap();
    store
        .append_journal(JournalEvent::Opened, None, "spec-digest")
        .unwrap();
    store
        .append_journal(JournalEvent::Commit, Some(key(1)), "abc")
        .unwrap();
    let records = store.read_journal().unwrap();
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].seq, 0);
    assert_eq!(records[1].seq, 1);
    assert_eq!(records[1].event, JournalEvent::Commit);
    assert_eq!(records[1].cell, key(1).to_string());

    // Reopening continues the sequence.
    let mut store = DiskStore::open(&root).unwrap();
    store.append_journal(JournalEvent::Done, None, "").unwrap();
    assert_eq!(store.read_journal().unwrap().last().unwrap().seq, 2);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn torn_tail_is_silently_dropped_at_every_truncation_point() {
    let root = scratch("torn");
    let mut store = DiskStore::open(&root).unwrap();
    for i in 0..3 {
        store
            .append_journal(JournalEvent::Commit, Some(key(i)), "d")
            .unwrap();
    }
    let full = fs::read(root.join("journal.log")).unwrap();
    let line_ends: Vec<usize> = full
        .iter()
        .enumerate()
        .filter(|(_, b)| **b == b'\n')
        .map(|(i, _)| i + 1)
        .collect();
    for cut in 0..=full.len() {
        fs::write(root.join("journal.log"), &full[..cut]).unwrap();
        let store = DiskStore::open(&root).unwrap();
        let records = store.read_journal().unwrap();
        let complete_lines = line_ends.iter().filter(|&&e| e <= cut).count();
        assert_eq!(
            records.len(),
            complete_lines,
            "cut at byte {cut} must keep exactly the complete lines"
        );
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn corrupt_journal_line_ends_replay_without_error() {
    let root = scratch("corrupt-line");
    let mut store = DiskStore::open(&root).unwrap();
    for i in 0..3 {
        store
            .append_journal(JournalEvent::Commit, Some(key(i)), "d")
            .unwrap();
    }
    let mut bytes = fs::read(root.join("journal.log")).unwrap();
    let second_line = bytes
        .iter()
        .position(|b| *b == b'\n')
        .map(|i| i + 1)
        .unwrap();
    bytes[second_line + 3] ^= 0x40; // flip a bit inside line 2's checksum
    fs::write(root.join("journal.log"), &bytes).unwrap();
    let records = DiskStore::open(&root).unwrap().read_journal().unwrap();
    assert_eq!(records.len(), 1, "replay stops at the first bad line");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn cell_files_verify_and_flag_corruption() {
    let root = scratch("cells");
    let store = DiskStore::open(&root).unwrap();
    assert!(store.read_cell(key(7)).unwrap().is_none());
    store.write_cell(key(7), "{\"x\":1}").unwrap();
    assert_eq!(store.read_cell(key(7)).unwrap().unwrap(), "{\"x\":1}");

    let path = store.cell_path(key(7));
    let mut bytes = fs::read(&path).unwrap();
    let last = bytes.len() - 2;
    bytes[last] ^= 0x01;
    fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        store.read_cell(key(7)),
        Err(SweepError::CorruptCell { .. })
    ));

    store.quarantine(key(7)).unwrap();
    assert!(store.read_cell(key(7)).unwrap().is_none());
    assert!(root
        .join("quarantine")
        .join(format!("{}.json", key(7)))
        .exists());
    // Quarantining an already-gone cell is a no-op, not an error.
    store.quarantine(key(7)).unwrap();
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn crash_injection_tears_the_journal_at_the_exact_boundary() {
    let root = scratch("crash");
    let mut store = DiskStore::open(&root).unwrap();
    store
        .append_journal(JournalEvent::Commit, Some(key(0)), "d")
        .unwrap();
    let before = store.journal_bytes();
    store.set_crash_after(Some(before + 5));
    let err = store
        .append_journal(JournalEvent::Commit, Some(key(1)), "d")
        .unwrap_err();
    assert!(
        matches!(err, SweepError::InjectedCrash { journal_bytes } if journal_bytes == before + 5)
    );
    assert_eq!(
        fs::metadata(root.join("journal.log")).unwrap().len(),
        before + 5
    );

    // The torn store reopens cleanly with only the first record.
    let store = DiskStore::open(&root).unwrap();
    assert_eq!(store.read_journal().unwrap().len(), 1);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn crash_boundary_at_current_length_writes_nothing() {
    let root = scratch("crash-zero");
    let mut store = DiskStore::open(&root).unwrap();
    store
        .append_journal(JournalEvent::Commit, Some(key(0)), "d")
        .unwrap();
    let before = store.journal_bytes();
    store.set_crash_after(Some(before));
    assert!(store
        .append_journal(JournalEvent::Commit, Some(key(1)), "d")
        .is_err());
    assert_eq!(
        fs::metadata(root.join("journal.log")).unwrap().len(),
        before
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn open_existing_refuses_to_mint_a_store() {
    use gpumem_sweep::ResultStore;

    let root = scratch("open-existing");
    // Nothing on disk: both layers must error without creating anything.
    match DiskStore::open_existing(&root) {
        Err(SweepError::Io { detail, .. }) => assert!(detail.contains("no results store")),
        other => panic!("expected Io error, got {other:?}"),
    }
    assert!(matches!(
        ResultStore::open_existing(&root),
        Err(SweepError::Io { .. })
    ));
    assert!(!root.exists(), "a failed open must leave no store skeleton");

    // Once a store exists, open_existing behaves exactly like open.
    drop(DiskStore::open(&root).unwrap());
    let mut store = DiskStore::open_existing(&root).unwrap();
    store
        .append_journal(JournalEvent::Opened, None, "x")
        .unwrap();
    assert!(ResultStore::open_existing(&root).is_ok());
    let _ = fs::remove_dir_all(&root);
}
