//! Tier-1: the simlint static-analysis pass must be clean on the tree.
//!
//! This wires `cargo run -p gpumem-lint -- check` into `cargo test -q`: any
//! nondeterminism hazard (unordered hash container, wall-clock read,
//! environment read, thread-identity dependence), `unsafe` token, missing
//! `#![forbid(unsafe_code)]`, or drift between `crates/config` and the
//! paper's Table I manifest fails the build with `file:line` diagnostics —
//! before any differential run could notice the symptom. The flow-sensitive simcheck tier rides in the same
//! pass: fetch-slot leak freedom and queue/credit deadlock freedom across
//! the whole workspace.

use std::path::Path;

use gpumem_lint::{check_workspace, LintOptions};

#[test]
fn workspace_is_simlint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let opts = LintOptions { deny_all: true };
    let outcome = check_workspace(root, &opts).expect("simlint pass runs");
    assert!(
        outcome.files_scanned >= 40,
        "suspiciously few files scanned ({}); did the tree move?",
        outcome.files_scanned
    );
    let denied: Vec<String> = outcome.denied(&opts).map(|d| d.to_string()).collect();
    assert!(
        denied.is_empty(),
        "simlint violations ({}):\n{}",
        denied.len(),
        denied.join("\n")
    );
}

#[test]
fn trace_crate_is_scanned_and_clean() {
    // The observability layer feeds numbers straight into golden snapshots,
    // so it must satisfy the same determinism discipline as the model
    // crates. Lint exactly its sources (rather than relying on the
    // workspace sweep's coverage) so a future restructuring that moved the
    // crate out of `crates/` would fail loudly here.
    let src_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/trace/src");
    let mut scanned = 0usize;
    for entry in std::fs::read_dir(&src_dir).expect("crates/trace/src exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        scanned += 1;
        let src = std::fs::read_to_string(&path).unwrap();
        let diags = gpumem_lint::lint_source(&path.display().to_string(), &src, false);
        assert!(
            diags.is_empty(),
            "trace crate has lint violations:\n{}",
            diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
    assert!(
        scanned >= 1,
        "no trace sources found under {}",
        src_dir.display()
    );
}

#[test]
fn seeded_violation_is_detected() {
    // Self-test: the pass must actually be able to fail. Lint a known-bad
    // snippet through the same engine the workspace check uses.
    let bad = "use std::collections::HashMap;\nfn f() { let _ = std::time::Instant::now(); }\n";
    let diags = gpumem_lint::lint_source("seeded.rs", bad, false);
    assert!(diags.iter().any(|d| d.rule == "no-hash-collections"));
    assert!(diags.iter().any(|d| d.rule == "no-wall-clock"));
}

#[test]
fn sweep_crate_fs_discipline_is_enforced() {
    // The sweep crate's crash-safety argument rests on every disk mutation
    // going through its journal module. Prove the rule actually fires:
    // lint the seeded fixture (sweep-named code doing raw std::fs writes
    // and reading SystemTime) through the same engine the workspace check
    // uses.
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/lint/tests/fixtures/sweep_raw_fs.rs");
    let src = std::fs::read_to_string(&fixture).expect("fixture exists");
    let diags = gpumem_lint::lint_source("crates/sweep/src/raw_fs.rs", &src, false);
    for rule in ["fs-outside-journal", "no-wall-clock"] {
        assert!(
            diags.iter().any(|d| d.rule == rule),
            "{rule} did not fire on the seeded sweep fixture:\n{}",
            diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
    // The same source under the journal module's own path is allowed to
    // touch the filesystem (that is the point of the module)...
    let journal = gpumem_lint::lint_source("crates/sweep/src/journal.rs", &src, false);
    assert!(
        !journal.iter().any(|d| d.rule == "fs-outside-journal"),
        "journal.rs must be exempt from fs-outside-journal"
    );
    // ...and sweep test code is exempt like all test code.
    let test_code = gpumem_lint::lint_source("crates/sweep/tests/disk.rs", &src, true);
    assert!(!test_code.iter().any(|d| d.rule == "fs-outside-journal"));
}

#[test]
fn seeded_simcheck_violations_are_detected() {
    // Self-test for the flow-sensitive tier: each analysis must fire on its
    // seeded fixture when run through the same multi-file engine the
    // workspace check uses.
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/lint/tests/fixtures");
    let mut inputs = Vec::new();
    for name in ["arena_slot_leak.rs", "credit_cycle.rs"] {
        inputs.push(gpumem_lint::FileInput {
            label: name.to_owned(),
            source: std::fs::read_to_string(fixtures.join(name)).expect("fixture exists"),
            is_test: false,
        });
    }
    let diags = gpumem_lint::lint_files(&inputs);
    for rule in ["fetch-slot-leak", "queue-deadlock"] {
        assert!(
            diags.iter().any(|d| d.rule == rule),
            "{rule} did not fire on its seeded fixture:\n{}",
            diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
