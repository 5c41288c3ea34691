//! End-to-end benchmark runner.
//!
//! ```text
//! e2e --workload W --seed N --seconds S [--scale X]   one measured run
//! e2e --all [--seed N] [--seconds S] [--scale X] [--out FILE]
//!                                                     every workload, traced and untraced
//! e2e --smoke                                         --all at scale 0.1, one pass each
//! e2e --check A.json B.json                           compare two --all result sets
//! ```
//!
//! Links only the long-lived API (see the README); the per-layer run is
//! the separate `layers` binary, which `--all` starts as a child process.

use std::process::{Command, ExitCode};
use std::time::Instant;

use gpumem_benchmark::spans::SpanLog;
use gpumem_benchmark::stats::{percentile, summarize, Summary, MIN_TAIL_SAMPLES};
use gpumem_benchmark::workload::{cross_engine_check, run_pass, setup, PassResult};
use gpumem_benchmark::{
    digest, flag, parse_run_args, peak_rss_mb, print_result, scratch_dir, Metric, RunArgs,
    RunOutcome, OUT_DIR,
};
use serde::Value;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |name: &str| args.iter().any(|a| a == name);
    let result = if has("--check") {
        check(&args)
    } else if has("--all") || has("--smoke") {
        all(&args, has("--smoke"))
    } else {
        parse_run_args(&args).and_then(|run| measure(&run))
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

/// A pooled percentile of per-operation host ns per cycle; its quartiles
/// are those of the same percentile taken pass by pass.
fn ns_per_cycle_percentile(passes: &[PassResult], p: f64) -> (Summary, usize) {
    let of =
        |pass: &PassResult| -> Vec<f64> { pass.samples.iter().map(|s| s.ns_per_cycle()).collect() };
    let pooled: Vec<f64> = passes.iter().flat_map(of).collect();
    let per_pass: Vec<f64> = passes
        .iter()
        .map(|pass| percentile(&of(pass), p).0)
        .collect();
    let (value, beyond) = percentile(&pooled, p);
    let spread = summarize(&per_pass);
    let summary = Summary {
        median: value,
        q1: spread.q1,
        q3: spread.q3,
        n: pooled.len(),
    };
    (summary, beyond)
}

/// One measured run of one workload: set-up (repeated), timed passes for
/// `--seconds`, the correctness checks, then the result line.
fn measure(args: &RunArgs) -> Result<bool, String> {
    let scratch = scratch_dir(args.workload);
    let mut setup_seconds = Vec::new();
    let mut current = None;
    for i in 0..SETUP_REPEATS {
        // One set of inputs (and one store) alive at a time.
        drop(current.take());
        if i > 0 {
            let _ = std::fs::remove_dir_all(scratch.join(format!("setup-{}", i - 1)));
        }
        let start = Instant::now();
        let dir = scratch.join(format!("setup-{i}"));
        let quiet = &mut SpanLog::disabled();
        current = Some(setup(
            args.workload,
            args.seed,
            args.workload_scale(),
            &dir,
            quiet,
        )?);
        setup_seconds.push(start.elapsed().as_secs_f64());
    }
    let ready = current.expect("SETUP_REPEATS is at least 1");

    let mut log = SpanLog::disabled();
    let mut passes: Vec<PassResult> = Vec::new();
    let start = Instant::now();
    loop {
        passes.push(run_pass(&ready.inputs, &mut log, passes.len()));
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let mut errors: Vec<String> = ready.warmup.errors.clone();
    let mut attempted = ready.warmup.attempted;
    for (i, pass) in passes.iter().enumerate() {
        attempted += pass.attempted;
        errors.extend(pass.errors.iter().cloned());
        if pass.digests != passes[0].digests {
            errors.push(format!("pass {i} simulated results differ from pass 0"));
        }
    }
    let (checked, disagreements) = cross_engine_check(&ready);
    attempted += checked;
    errors.extend(disagreements);
    let _ = std::fs::remove_dir_all(&scratch);
    for e in &errors {
        eprintln!("e2e: {}: {e}", args.workload.name());
    }

    let throughput: Vec<f64> = passes.iter().map(PassResult::mcyc_per_s).collect();
    let (p50, _) = ns_per_cycle_percentile(&passes, 0.5);
    let (p80, beyond) = ns_per_cycle_percentile(&passes, 0.8);
    if beyond < MIN_TAIL_SAMPLES {
        eprintln!(
            "e2e: {}: only {beyond} samples beyond the p80; run longer for a tail figure",
            args.workload.name()
        );
    }
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let metrics = [
        Metric::new("setup_s", "s", summarize(&setup_seconds)),
        Metric::new("mcyc_per_s", "Mcyc/s", summarize(&throughput)),
        Metric::new("host_ns_per_cycle_p50", "ns/cyc", p50),
        Metric::new("host_ns_per_cycle_p80", "ns/cyc", p80),
        Metric::single("peak_rss_mb", "MB", rss),
    ];
    let outcome = RunOutcome {
        attempted,
        failed: errors.len() as u64,
        passes: passes.len(),
        report_digest: digest::combine(&passes[0].digests),
    };
    print_result(args, &outcome, &metrics);
    Ok(errors.is_empty())
}

// ---------------------------------------------------------------------
// JSON helpers over the vendored value tree.

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn text<'a>(value: &'a Value, key: &str) -> &'a str {
    field(value, key).and_then(Value::as_str).unwrap_or("")
}

fn read_json(path: &str) -> Result<Value, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&body).map_err(|e| format!("{path}: {e}"))
}

/// One row of `BENCHMARK.json`'s metric tables.
struct Spec {
    name: String,
    unit: String,
    higher_is_better: bool,
    /// Present for end-to-end metrics only.
    bound: Option<f64>,
}

struct Ledger {
    workloads: Vec<String>,
    end_to_end: Vec<Spec>,
    per_layer: Vec<Spec>,
}

fn read_ledger() -> Result<Ledger, String> {
    let root = read_json("BENCHMARK.json")?;
    let rows = |key: &str| -> Result<Vec<Spec>, String> {
        let list = field(&root, key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))?;
        Ok(list
            .iter()
            .map(|m| Spec {
                name: text(m, "name").to_owned(),
                unit: text(m, "unit").to_owned(),
                higher_is_better: text(m, "better") == "higher",
                bound: field(m, "bound").and_then(number),
            })
            .collect())
    };
    let workloads = field(&root, "workloads")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no workloads list")?
        .iter()
        .map(|w| text(w, "name").to_owned())
        .collect();
    Ok(Ledger {
        workloads,
        end_to_end: rows("end_to_end")?,
        per_layer: rows("per_layer")?,
    })
}

fn summary_of(detail: &Value, metric: &str) -> Option<Summary> {
    let m = field(field(detail, "metrics")?, metric)?;
    Some(Summary {
        median: number(field(m, "value")?)?,
        q1: number(field(m, "q1")?)?,
        q3: number(field(m, "q3")?)?,
        n: number(field(m, "n")?)? as usize,
    })
}

// ---------------------------------------------------------------------
// --all / --smoke

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Runs one child benchmark process and returns its `#detail` object.
/// Each workload gets its own process so `peak_rss_mb` is its own.
fn run_child(
    binary: &std::path::Path,
    workload: &str,
    pass_on: &[String],
) -> Result<Value, String> {
    let output = Command::new(binary)
        .args(["--workload", workload])
        .args(pass_on)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", binary.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("#detail "))
        .ok_or_else(|| format!("{} {workload}: no #detail line", binary.display()))?;
    serde_json::from_str(detail).map_err(|e| format!("{workload}: {e}"))
}

fn print_rows(kind: &str, specs: &[Spec], details: &[(String, Value)]) -> usize {
    let mut missing = 0;
    for spec in specs {
        for (workload, detail) in details {
            let bound = spec
                .bound
                .map_or("-".to_owned(), |b| format!("{:.0}%", b * 100.0));
            match summary_of(detail, &spec.name) {
                Some(s) => println!(
                    "{kind:10} {:34} {workload:13} {:8} {:6} {bound:>5} {:>16.6} {:>16.6} {:>16.6} {:>6}",
                    spec.name,
                    spec.unit,
                    if spec.higher_is_better { "higher" } else { "lower" },
                    s.median,
                    s.q1,
                    s.q3,
                    s.n
                ),
                None => {
                    println!("{kind:10} {:34} {workload:13} MISSING", spec.name);
                    missing += 1;
                }
            }
        }
    }
    missing
}

/// Runs every workload untraced (`e2e`) and traced (`layers`), prints
/// every metric of `BENCHMARK.json` by name, and writes the result set.
fn all(args: &[String], smoke: bool) -> Result<bool, String> {
    let ledger = read_ledger()?;
    let seed = flag(args, "--seed").unwrap_or("0").to_owned();
    let (seconds, scale, out) = if smoke {
        ("0", "0.1", format!("{OUT_DIR}/smoke.json"))
    } else {
        (
            flag(args, "--seconds").unwrap_or("20"),
            flag(args, "--scale").unwrap_or("1"),
            flag(args, "--out").map_or(format!("{OUT_DIR}/results.json"), str::to_owned),
        )
    };
    let pass_on: Vec<String> = ["--seed", &seed, "--seconds", seconds, "--scale", scale]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let e2e = std::env::current_exe().map_err(|e| e.to_string())?;
    let layers = e2e.with_file_name("layers");

    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    for workload in &ledger.workloads {
        eprintln!("e2e: running {workload}");
        end_to_end.push((workload.clone(), run_child(&e2e, workload, &pass_on)?));
        per_layer.push((workload.clone(), run_child(&layers, workload, &pass_on)?));
    }

    println!(
        "{:10} {:34} {:13} {:8} {:6} {:>5} {:>16} {:>16} {:>16} {:>6}",
        "kind", "metric", "workload", "unit", "better", "bound", "median", "q1", "q3", "n"
    );
    let mut problems = print_rows("end_to_end", &ledger.end_to_end, &end_to_end);
    problems += print_rows("per_layer", &ledger.per_layer, &per_layer);
    for (workload, detail) in end_to_end.iter().chain(&per_layer) {
        let failed = field(detail, "failed").and_then(number).unwrap_or(1.0);
        println!(
            "digest     {workload:13} {} failed {failed} of {}",
            text(detail, "report_digest"),
            field(detail, "attempted").and_then(number).unwrap_or(0.0)
        );
        if failed != 0.0 {
            problems += 1;
        }
    }
    // The two hierarchy workloads simulate the same inputs on the two
    // engines, so their full-scale results must be identical.
    let digest_of = |name: &str| {
        end_to_end
            .iter()
            .find(|(w, _)| w == name)
            .map(|(_, d)| text(d, "report_digest").to_owned())
    };
    if digest_of("hier_suite") != digest_of("hier_stepped") {
        println!("MISMATCH   run() and run_stepped() disagree on the hierarchy suite");
        problems += 1;
    }

    let fingerprint = Value::Object(vec![
        (
            "nproc".to_owned(),
            Value::UInt(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        (
            "rustc".to_owned(),
            Value::String(command_output("rustc", &["--version"])),
        ),
        (
            "commit".to_owned(),
            Value::String(command_output("git", &["rev-parse", "HEAD"])),
        ),
        ("seed".to_owned(), Value::String(seed)),
        ("seconds".to_owned(), Value::String(seconds.to_owned())),
        ("scale".to_owned(), Value::String(scale.to_owned())),
    ]);
    let results = Value::Object(vec![
        ("fingerprint".to_owned(), fingerprint),
        ("end_to_end".to_owned(), Value::Object(end_to_end)),
        ("per_layer".to_owned(), Value::Object(per_layer)),
    ]);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
    let body = serde_json::to_string_pretty(&results).expect("a value tree serializes");
    std::fs::write(&out, body + "\n").map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}; {problems} problem(s)");
    Ok(problems == 0)
}

// ---------------------------------------------------------------------
// --check

/// How two result sets compare on one (metric, workload) pair.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// Within the bound in both directions.
    Agree,
    /// One side is worse than the other by more than the bound.
    Differ,
    /// A side's own quartile spread is wider than the bound, so the pair
    /// cannot tell a change of that size from noise.
    Unresolved,
}

fn verdict(a: Summary, b: Summary, bound: f64) -> Verdict {
    if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if (a.median - b.median).abs() > bound * a.median.abs().min(b.median.abs()) {
        Verdict::Differ
    } else {
        Verdict::Agree
    }
}

/// Compares two `--all` result sets metric by metric against the bounds of
/// `BENCHMARK.json`; simulated results (digests) must be identical.
fn check(args: &[String]) -> Result<bool, String> {
    let at = args
        .iter()
        .position(|a| a == "--check")
        .expect("caller saw --check");
    let (Some(a_path), Some(b_path)) = (args.get(at + 1), args.get(at + 2)) else {
        return Err("--check needs two result files".to_owned());
    };
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let ledger = read_ledger()?;
    let mut bad = 0;
    for workload in &ledger.workloads {
        for section in ["end_to_end", "per_layer"] {
            let side = |set: &Value| {
                field(set, section)
                    .and_then(|s| field(s, workload))
                    .cloned()
            };
            let (Some(da), Some(db)) = (side(&a), side(&b)) else {
                println!("{section:10} {workload:13} MISSING from a result set");
                bad += 1;
                continue;
            };
            let same = text(&da, "report_digest") == text(&db, "report_digest");
            let clean = [&da, &db]
                .iter()
                .all(|d| field(d, "failed").and_then(number) == Some(0.0));
            println!(
                "{section:10} {workload:13} simulated results {}, failures {}",
                if same { "identical" } else { "DIFFER" },
                if clean { "none" } else { "PRESENT" }
            );
            if !(same && clean) {
                bad += 1;
            }
            if section != "end_to_end" {
                continue;
            }
            for spec in &ledger.end_to_end {
                let bound = spec.bound.unwrap_or(0.0);
                match (summary_of(&da, &spec.name), summary_of(&db, &spec.name)) {
                    (Some(sa), Some(sb)) => {
                        let v = verdict(sa, sb, bound);
                        println!(
                            "  {:24} {:>14.6} vs {:>14.6} {:8} spread {:.3}/{:.3} bound {:.2}: {:?}",
                            spec.name,
                            sa.median,
                            sb.median,
                            spec.unit,
                            sa.spread(),
                            sb.spread(),
                            bound,
                            v
                        );
                        if v == Verdict::Differ {
                            bad += 1;
                        }
                    }
                    _ => {
                        println!("  {:24} MISSING", spec.name);
                        bad += 1;
                    }
                }
            }
        }
    }
    println!("{bad} pair(s) differ or are missing");
    Ok(bad == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            n: 10,
        }
    }

    #[test]
    fn verdict_separates_agree_differ_and_unresolved() {
        let tight = |m: f64| s(m, m * 0.99, m * 1.01);
        assert_eq!(verdict(tight(100.0), tight(104.0), 0.10), Verdict::Agree);
        assert_eq!(verdict(tight(100.0), tight(115.0), 0.10), Verdict::Differ);
        assert_eq!(verdict(tight(115.0), tight(100.0), 0.10), Verdict::Differ);
        let wide = s(100.0, 90.0, 110.0);
        assert_eq!(verdict(wide, tight(100.0), 0.10), Verdict::Unresolved);
    }

    #[test]
    fn summaries_are_read_back_from_a_detail_object() {
        let detail: Value = serde_json::from_str(
            r#"{"metrics":{"setup_s":{"value":1.5,"unit":"s","q1":1,"q3":2.5,"n":3}}}"#,
        )
        .expect("parses");
        assert_eq!(
            summary_of(&detail, "setup_s"),
            Some(Summary {
                median: 1.5,
                q1: 1.0,
                q3: 2.5,
                n: 3
            })
        );
        assert_eq!(summary_of(&detail, "nope"), None);
    }
}
