//! Golden-trace regression harness.
//!
//! The latency breakdown produced by the tracing layer is the paper's core
//! measurement (§III, Fig. 4–6), so its exact numbers for a fixed seed set
//! are pinned as committed snapshots under `tests/golden/`. Any change to
//! cache, crossbar, DRAM or scheduler timing — intended or not — shows up
//! as a snapshot diff here before it can silently shift a figure.
//!
//! To regenerate after an intentional model change:
//!
//! ```text
//! GPUMEM_BLESS=1 cargo test --test golden
//! ```
//!
//! and commit the rewritten files alongside the change that caused them.

#![expect(clippy::disallowed_methods, reason = "test harness")]

use std::path::PathBuf;
use std::sync::Arc;

use gpumem::prelude::*;
use gpumem::DEFAULT_MAX_CYCLES;
use gpumem_sim::{KernelProgram, TraceConfig};
use gpumem_workloads::{params_of, SyntheticKernel};

/// The fixed seed set: three paper benchmarks spanning the spectrum
/// (cache-sensitive, streaming, balanced) plus the three ML kernels
/// (tiled GEMM, im2col conv, attention). Kept small so the suite runs
/// from a clean checkout in seconds.
const GOLDEN_BENCHMARKS: &[&str] = &["sc", "lbm", "ss", "gemm", "conv", "attn"];

fn small_gpu() -> GpuConfig {
    let mut cfg = GpuConfig::gtx480();
    cfg.num_cores = 3;
    cfg.num_partitions = 2;
    cfg
}

fn kernel(name: &str) -> Arc<dyn KernelProgram> {
    let p = params_of(name).unwrap().scaled(0.1);
    Arc::new(SyntheticKernel::new(p))
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn blessing() -> bool {
    std::env::var("GPUMEM_BLESS").is_ok_and(|v| v == "1")
}

/// Compares `actual` against the committed snapshot, or rewrites the
/// snapshot when blessing. On mismatch the panic names the first
/// diverging line so the diff is readable without external tooling.
fn check_snapshot(name: &str, actual: &str) {
    let path = golden_dir().join(format!("{name}.json"));
    if blessing() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}\n\
             run `GPUMEM_BLESS=1 cargo test --test golden` and commit the result",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    let mut diverged = None;
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            diverged = Some((i + 1, e.to_owned(), a.to_owned()));
            break;
        }
    }
    let detail = match diverged {
        Some((line, e, a)) => {
            format!("first divergence at line {line}:\n  golden: {e}\n  actual: {a}")
        }
        None => format!(
            "line count differs: golden {} vs actual {}",
            expected.lines().count(),
            actual.lines().count()
        ),
    };
    panic!(
        "{name}: latency breakdown drifted from golden snapshot {}\n{detail}\n\
         if the timing change is intentional, re-bless with \
         `GPUMEM_BLESS=1 cargo test --test golden`",
        path.display()
    );
}

/// Runs one benchmark with tracing on and returns its pretty-printed
/// latency breakdown. Stepped engine: the differential suite already
/// proves the other engines produce the bit-identical report.
fn traced_breakdown(name: &str) -> String {
    let mut sim = GpuSimulator::new(small_gpu(), kernel(name), MemoryMode::Hierarchy);
    sim.enable_trace(TraceConfig::default());
    let report = sim.run_stepped(DEFAULT_MAX_CYCLES).unwrap();
    let bd = report
        .latency_breakdown
        .expect("trace enabled, breakdown must be present");
    assert!(
        bd.reconciles(),
        "{name}: stage sums do not reconcile with end-to-end latency"
    );
    let mut json = serde_json::to_string_pretty(&bd).unwrap();
    json.push('\n');
    json
}

#[test]
fn latency_breakdowns_match_golden_snapshots() {
    for name in GOLDEN_BENCHMARKS {
        check_snapshot(name, &traced_breakdown(name));
    }
}

/// FNV-1a, the same construction the simulator uses for deterministic
/// fingerprints; good enough to pin file contents in a snapshot.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// The committed experiment outputs under `results/` are inputs to the
/// paper-facing plots; pin a digest of each so accidental regeneration
/// with drifted numbers is caught in review.
#[test]
fn results_files_match_golden_digest() {
    let results = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut names: Vec<String> = std::fs::read_dir(&results)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.ends_with(".json").then_some(name)
        })
        .collect();
    names.sort();
    let mut digest = String::from("{\n");
    for (i, name) in names.iter().enumerate() {
        let bytes = std::fs::read(results.join(name)).unwrap();
        let sep = if i + 1 == names.len() { "" } else { "," };
        digest.push_str(&format!("  \"{name}\": \"{:016x}\"{sep}\n", fnv1a(&bytes)));
    }
    digest.push_str("}\n");
    check_snapshot("results_digest", &digest);
}
