//! CLI contract tests for the `repro` binary: the typed-error exits the
//! trace frontend and sweep store promise, plus a trace-gen → run round
//! trip. Each test invokes the real binary (`CARGO_BIN_EXE_repro`), so
//! exit codes and diagnostics are checked exactly as CI and users see
//! them.

#![expect(clippy::disallowed_methods, reason = "test harness")]

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Per-test scratch path that does not exist yet.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpumem-repro-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn query_on_missing_store_is_typed_exit_2_and_mints_nothing() {
    let store = scratch("absent-store");
    let out = repro(&["sweep", "--query", store.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("no results store"),
        "diagnostic must name the missing store, got: {}",
        stderr_of(&out)
    );
    assert!(
        !store.exists(),
        "a read-only query must not create a store skeleton"
    );
}

#[test]
fn sweep_with_unknown_workload_spec_is_typed_exit_2() {
    let dir = scratch("bad-spec");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json");
    std::fs::write(
        &spec,
        r#"{"name":"bad","scale":0.1,"workloads":["nonesuch"],"design_points":["baseline"],
           "seeds":[0],"modes":["hierarchy"],"max_cycles":1000000,
           "deadline_seconds":null}"#,
    )
    .unwrap();
    let store = dir.join("store");
    let out = repro(&[
        "sweep",
        "--store",
        store.to_str().unwrap(),
        "--spec",
        spec.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("nonesuch"),
        "diagnostic must name the unknown workload, got: {}",
        stderr_of(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_trace_is_a_line_numbered_exit_2() {
    let dir = scratch("bad-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("bad.trace");
    std::fs::write(&trace, "gpumem-trace v1\nkernel name=x grid=zero\n").unwrap();
    let out = repro(&["run", "--trace-file", trace.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(
        err.contains("line 2"),
        "diagnostic must carry the offending line number, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_rejects_unknown_benchmarks_and_empty_worklists() {
    let out = repro(&["run", "nonesuch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("unknown benchmark"));

    let out = repro(&["run"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("needs at least one workload"));
}

/// The parallel engine's flags, the ratio gates and the `perf` command
/// are gone; an old invocation must be refused loudly, not silently run
/// something else.
#[test]
fn removed_flags_are_unknown_arguments() {
    for args in [
        &["run", "gemm", "--threads", "2"][..],
        &["perf", "--floor", "0.9"][..],
        &["perf"][..],
        &["run", "gemm", "--repeat", "3"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr_of(&out));
        assert!(
            stderr_of(&out).contains("unknown argument"),
            "{args:?}: {}",
            stderr_of(&out)
        );
    }
}

/// `--scale` takes what `SweepSpec::validate` takes: a finite number
/// above zero. Anything else would shrink every workload to one CTA or,
/// for infinity, never finish.
#[test]
fn scale_must_be_a_positive_finite_number() {
    for scale in ["0", "-1", "nan", "inf"] {
        let out = repro(&["run", "gemm", "--scale", scale]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--scale {scale}: {}",
            stderr_of(&out)
        );
        assert!(
            stderr_of(&out).contains("--scale needs a positive number"),
            "--scale {scale}: {}",
            stderr_of(&out)
        );
    }
}

#[test]
fn trace_gen_round_trips_through_run_bit_identically() {
    let dir = scratch("roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("gemm.trace");
    let out = repro(&[
        "trace-gen",
        "gemm",
        "--scale",
        "0.05",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(text.starts_with("gpumem-trace v1\n"));

    // The traced replay and the synthetic original run side by side and
    // must print the same line.
    let out = repro(&[
        "run",
        "gemm",
        "--scale",
        "0.05",
        "--trace-file",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let cycle_counts: std::collections::BTreeSet<&str> = stdout
        .lines()
        .filter(|l| l.contains("/ hierarchy:"))
        .collect();
    assert_eq!(
        cycle_counts.len(),
        1,
        "synthetic and traced gemm must report identical cycles/instructions:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
