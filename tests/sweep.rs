//! Tier-1: crash-safe sweep orchestration.
//!
//! The contract under test: killing a sweep at *any* journal byte offset
//! (including mid-record, leaving a torn line), truncating the journal at
//! any byte, or flipping any byte of a committed cell file must never
//! make a resumed sweep serve a corrupt result or end on a different
//! store digest than an uninterrupted run. Cells whose files survived the
//! kill are served as cache hits — proven with the recompute counters,
//! not just the digests.

#![expect(clippy::disallowed_methods, reason = "test harness")]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use gpumem::RetryPolicy;
use gpumem_sweep::{run_sweep, CellStatus, ResultStore, SweepOptions, SweepSpec};
use proptest::prelude::*;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gpumem-sweep-test-{name}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A 4-cell grid small enough that a full crash matrix stays cheap
/// (each cell simulates a few thousand cycles).
fn tiny_spec() -> SweepSpec {
    SweepSpec {
        name: "crash-matrix".into(),
        scale: 0.02,
        workloads: vec!["nn".into(), "sc".into()],
        design_points: vec!["baseline".into(), "L2".into()],
        seeds: vec![0],
        modes: vec!["hierarchy".into()],
        max_cycles: 50_000_000,
        deadline_seconds: None,
    }
}

/// Single worker keeps commit order — and therefore the journal byte
/// layout — deterministic, so crash offsets derived from a reference
/// journal line up exactly on the runs under test.
fn opts() -> SweepOptions {
    SweepOptions {
        workers: 1,
        retry: RetryPolicy::immediate(2),
        progress: false,
        crash_after_journal_bytes: None,
    }
}

fn crash_opts(boundary: u64) -> SweepOptions {
    SweepOptions {
        crash_after_journal_bytes: Some(boundary),
        ..opts()
    }
}

/// Per-cell result digests in expansion order (None for uncommitted).
fn cell_digests(spec: &SweepSpec, dir: &Path) -> Vec<Option<String>> {
    let store = ResultStore::open(dir).unwrap();
    spec.expand()
        .unwrap()
        .iter()
        .map(|c| store.peek(c.key).ok().flatten().map(|e| e.result_digest))
        .collect()
}

#[test]
fn fresh_run_then_resume_is_all_cache_hits_and_bit_identical() {
    let spec = tiny_spec();
    let dir = scratch("fresh");
    let first = run_sweep(&spec, &dir, &opts()).unwrap();
    assert_eq!(first.cells, 4);
    assert_eq!(first.computed, 4);
    assert_eq!(first.cache_hits, 0);
    assert_eq!(first.failed, 0);

    // A re-run over the complete store must perform zero simulations.
    let second = run_sweep(&spec, &dir, &opts()).unwrap();
    assert_eq!(second.cache_hits, 4);
    assert_eq!(second.simulations_run(), 0);
    assert_eq!(second.attempts_total, 0);
    assert_eq!(second.store_digest, first.store_digest);
    for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
        assert_eq!(a.result_digest, b.result_digest);
        assert_eq!(b.status, CellStatus::CacheHit);
    }

    // And an independent from-scratch run lands on the same digest.
    let other = scratch("fresh-other");
    let third = run_sweep(&spec, &other, &opts()).unwrap();
    assert_eq!(third.store_digest, first.store_digest);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&other);
}

#[test]
fn crash_at_adversarial_journal_offsets_resumes_bit_identical() {
    let spec = tiny_spec();
    let reference_dir = scratch("crash-ref");
    let reference = run_sweep(&spec, &reference_dir, &opts()).unwrap();
    let journal = fs::read(reference_dir.join("journal.log")).unwrap();
    let len = journal.len() as u64;

    // Adversarial offsets: the very start, every record boundary and its
    // two neighbours (one byte short tears the previous record's newline,
    // one byte past tears the next record's checksum), each record's
    // midpoint, and the last byte of the journal.
    let mut boundaries = vec![0, 1, len - 1];
    let mut line_start = 0u64;
    for (i, b) in journal.iter().enumerate() {
        if *b == b'\n' {
            let end = i as u64 + 1;
            boundaries.extend([
                end.saturating_sub(1),
                end,
                (end + 1).min(len),
                line_start + (end - line_start) / 2,
            ]);
            line_start = end;
        }
    }
    boundaries.sort_unstable();
    boundaries.dedup();
    boundaries.retain(|&b| b < len);

    for boundary in boundaries {
        let dir = scratch(&format!("crash-{boundary}"));
        let err = run_sweep(&spec, &dir, &crash_opts(boundary)).unwrap_err();
        assert!(
            err.to_string().contains("injected crash"),
            "boundary {boundary}: expected an injected crash, got: {err}"
        );
        assert_eq!(
            fs::metadata(dir.join("journal.log"))
                .map(|m| m.len())
                .unwrap_or(0),
            boundary,
            "the journal must be torn at exactly the armed boundary"
        );

        // Cells whose files became durable before the kill must be served
        // as cache hits on resume — count them first, read-only.
        let durable = cell_digests(&spec, &dir)
            .iter()
            .filter(|d| d.is_some())
            .count();

        let resumed = run_sweep(&spec, &dir, &opts()).unwrap();
        assert_eq!(
            resumed.cache_hits, durable,
            "boundary {boundary}: every durable cell must be a cache hit"
        );
        assert_eq!(
            resumed.simulations_run(),
            4 - durable,
            "boundary {boundary}: only lost cells may be simulated"
        );
        assert_eq!(resumed.failed, 0);
        assert_eq!(
            resumed.store_digest, reference.store_digest,
            "boundary {boundary}: resume must finish bit-identical"
        );
        for (r, o) in reference.outcomes.iter().zip(&resumed.outcomes) {
            assert_eq!(r.result_digest, o.result_digest, "boundary {boundary}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&reference_dir);
}

#[test]
fn journal_truncated_at_every_byte_still_serves_the_whole_store() {
    let spec = tiny_spec();
    let dir = scratch("trunc");
    let reference = run_sweep(&spec, &dir, &opts()).unwrap();
    let journal_path = dir.join("journal.log");
    let full = fs::read(&journal_path).unwrap();

    for cut in 0..=full.len() {
        fs::write(&journal_path, &full[..cut]).unwrap();
        // The store digest is a function of the cell files, which are
        // intact: any journal truncation must be invisible to readers.
        let keys: Vec<_> = spec.expand().unwrap().iter().map(|c| c.key).collect();
        let digest = ResultStore::open(&dir)
            .unwrap()
            .store_digest(&keys)
            .unwrap();
        assert_eq!(digest, reference.store_digest, "cut at byte {cut}");

        // Sampled cuts get a full resume: all four cells must come back
        // as cache hits with zero simulations.
        if cut % 13 == 0 || cut + 1 == full.len() {
            let resumed = run_sweep(&spec, &dir, &opts()).unwrap();
            assert_eq!(resumed.cache_hits, 4, "cut at byte {cut}");
            assert_eq!(resumed.simulations_run(), 0, "cut at byte {cut}");
            assert_eq!(resumed.store_digest, reference.store_digest);
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cell_files_are_never_served_and_resume_recomputes_them() {
    let spec = tiny_spec();
    let dir = scratch("corrupt");
    let reference = run_sweep(&spec, &dir, &opts()).unwrap();
    let cells = spec.expand().unwrap();

    for (i, cell) in cells.iter().enumerate() {
        let path = dir.join("cells").join(format!("{}.json", cell.key));
        let original = fs::read(&path).unwrap();

        // Detection sweep: flipping any sampled byte must make the store
        // refuse to serve the cell (the checksum header covers every body
        // byte, and a header flip breaks the header itself).
        let mut offsets: Vec<usize> = (0..original.len()).step_by(97).collect();
        offsets.extend([0, 1, original.len() / 2, original.len() - 1]);
        offsets.sort_unstable();
        offsets.dedup();
        // Flip bit 0, not bit 5: a case flip of a hex digit in the
        // checksum header parses to the same value (from_str_radix is
        // case-insensitive), which is not corruption at all.
        for &off in &offsets {
            let mut bytes = original.clone();
            bytes[off] ^= 0x01;
            fs::write(&path, &bytes).unwrap();
            let peeked = ResultStore::open(&dir).unwrap().peek(cell.key);
            assert!(
                peeked.is_err(),
                "cell {i}, flipped byte {off}: a corrupt file must never be served"
            );
        }

        // Recovery: resume over the corrupted store must quarantine the
        // file, recompute exactly that cell, and land on the reference
        // digest. (The commit also restores a valid file for the next
        // loop iteration.)
        let mut bytes = original.clone();
        let mid = original.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let resumed = run_sweep(&spec, &dir, &opts()).unwrap();
        assert_eq!(resumed.cache_hits, 3);
        assert_eq!(resumed.recomputed, 1);
        assert_eq!(resumed.computed, 0);
        assert_eq!(resumed.outcomes[i].status, CellStatus::Recomputed);
        assert_eq!(resumed.store_digest, reference.store_digest);
        assert_eq!(
            resumed.outcomes[i].result_digest,
            reference.outcomes[i].result_digest
        );
        assert!(
            dir.join("quarantine")
                .join(format!("{}.json", cell.key))
                .exists(),
            "the corrupt evidence must be preserved in quarantine"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missing_cell_file_with_committed_journal_record_is_recomputed() {
    let spec = tiny_spec();
    let dir = scratch("missing");
    let reference = run_sweep(&spec, &dir, &opts()).unwrap();
    let cells = spec.expand().unwrap();

    fs::remove_file(dir.join("cells").join(format!("{}.json", cells[2].key))).unwrap();
    let resumed = run_sweep(&spec, &dir, &opts()).unwrap();
    assert_eq!(resumed.cache_hits, 3);
    assert_eq!(
        resumed.recomputed, 1,
        "a journal-committed cell with a vanished file counts as recomputed, not computed"
    );
    assert_eq!(resumed.outcomes[2].status, CellStatus::Recomputed);
    assert_eq!(resumed.store_digest, reference.store_digest);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn deterministic_failures_fail_fast_and_commit_nothing() {
    let mut spec = tiny_spec();
    // A cycle budget no cell can meet: every cell fails with a
    // deterministic Watchdog error.
    spec.max_cycles = 100;
    let dir = scratch("failfast");
    let summary = run_sweep(&spec, &dir, &opts()).unwrap();
    assert_eq!(summary.failed, 4);
    assert_eq!(summary.cache_hits, 0);
    for o in &summary.outcomes {
        assert_eq!(o.status, CellStatus::Failed);
        assert_eq!(
            o.attempts, 1,
            "a deterministic failure must not burn the retry budget"
        );
        assert!(o.result_digest.is_none());
    }
    assert!(cell_digests(&spec, &dir).iter().all(|d| d.is_none()));

    // Failed cells are not cached: a re-run attempts them again.
    let again = run_sweep(&spec, &dir, &opts()).unwrap();
    assert_eq!(again.failed, 4);
    assert_eq!(again.store_digest, summary.store_digest);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missed_deadlines_spend_the_whole_retry_budget_and_commit_nothing() {
    // A zero wall-clock budget: every attempt misses its deadline, a
    // host-dependent failure, so each cell is retried until the policy's
    // budget runs out.
    let mut spec = tiny_spec();
    spec.deadline_seconds = Some(0.0);
    let opts = SweepOptions {
        retry: RetryPolicy::immediate(3),
        ..opts()
    };
    let dir = scratch("deadline");
    let summary = run_sweep(&spec, &dir, &opts).unwrap();
    assert_eq!(summary.failed, 4);
    assert_eq!(summary.attempts_total, 12);
    for o in &summary.outcomes {
        assert_eq!(o.status, CellStatus::Failed);
        assert_eq!(o.attempts, 3, "{}", o.label);
        assert!(o.detail.contains("wall-clock budget"), "{}", o.detail);
        assert!(o.result_digest.is_none());
    }
    assert!(cell_digests(&spec, &dir).iter().all(|d| d.is_none()));

    // Nothing was cached: a re-run attempts every cell again.
    let again = run_sweep(&spec, &dir, &opts).unwrap();
    assert_eq!(again.failed, 4);
    assert_eq!(again.attempts_total, 12);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn legacy_engines_axis_parses_and_expands_to_the_same_keys() {
    // Specs written while the engine was a sweep axis still name it. The
    // key is ignored: such a spec expands to exactly the cells of the same
    // spec without it.
    let legacy = r#"{"name":"crash-matrix","scale":0.02,"workloads":["nn","sc"],
        "design_points":["baseline","L2"],"seeds":[0],"modes":["hierarchy"],
        "engines":["event","stepped"],"max_cycles":50000000,"deadline_seconds":null}"#;
    let spec = SweepSpec::from_json(legacy).unwrap();
    assert_eq!(spec, tiny_spec());
    let keys =
        |spec: &SweepSpec| -> Vec<_> { spec.expand().unwrap().iter().map(|c| c.key).collect() };
    assert_eq!(keys(&spec), keys(&tiny_spec()));
}

proptest! {
    #[test]
    fn interleaved_partial_runs_and_resume_agree_with_from_scratch(
        boundaries in prop::collection::vec(0u64..1400, 0..3),
        garbage in prop::collection::vec(0u8..=255, 0..60),
    ) {
        let spec = tiny_spec();
        let reference_dir = scratch("prop-ref");
        let reference = run_sweep(&spec, &reference_dir, &opts()).unwrap();

        // A sequence of killed partial runs over one store...
        let dir = scratch("prop-run");
        for &b in &boundaries {
            let _ = run_sweep(&spec, &dir, &crash_opts(b));
        }
        // ...plus raw garbage appended to the journal (a torn tail from
        // some other writer)...
        if !garbage.is_empty() {
            fs::create_dir_all(&dir).unwrap();
            let journal = dir.join("journal.log");
            let mut bytes = fs::read(&journal).unwrap_or_default();
            bytes.extend_from_slice(&garbage);
            fs::write(&journal, &bytes).unwrap();
        }
        // ...must still resume to the exact from-scratch result.
        let resumed = run_sweep(&spec, &dir, &opts()).unwrap();
        prop_assert_eq!(resumed.failed, 0);
        prop_assert_eq!(&resumed.store_digest, &reference.store_digest);
        for (r, o) in reference.outcomes.iter().zip(&resumed.outcomes) {
            prop_assert_eq!(&r.result_digest, &o.result_digest);
        }
        let _ = fs::remove_dir_all(&reference_dir);
        let _ = fs::remove_dir_all(&dir);
    }
}
