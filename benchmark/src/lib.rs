//! Shared code of the `e2e` and `layers` benchmark binaries: workload
//! inputs, statistics, spans, digests and the result line.
//!
//! This crate links only the simulator's long-lived surface; everything
//! that touches component internals lives in `src/bin/layers.rs`.

#![forbid(unsafe_code)]

pub mod digest;
pub mod spans;
pub mod stats;
pub mod workload;

use std::path::PathBuf;

use serde::Value;

use crate::stats::Summary;
use crate::workload::Workload;

/// Where run outputs (results, spans, scratch stores) go, relative to the
/// checkout root the benchmark is run from.
pub const OUT_DIR: &str = "benchmark/out";

/// Arguments of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Input seed; 0 is each benchmark's canonical seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Multiplier on every workload's base scale (the smoke run uses 0.1).
    pub scale: f64,
}

impl RunArgs {
    /// The scale the workload's inputs are generated at.
    pub fn workload_scale(&self) -> f64 {
        self.workload.base_scale() * self.scale
    }
}

/// Value of `--name` in `args`, if present.
pub fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name}: cannot parse {text:?}")),
    }
}

/// Parses `--workload W --seed N --seconds S [--scale X]`; `--trace` is
/// consumed by `run.sh`, which picks the binary.
pub fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let run = RunArgs {
        workload,
        seed: parsed(args, "--seed", 0)?,
        seconds: parsed(args, "--seconds", 10.0)?,
        scale: parsed(args, "--scale", 1.0)?,
    };
    if !(run.seconds >= 0.0 && run.scale > 0.0 && run.scale.is_finite()) {
        return Err("--seconds must be >= 0 and --scale > 0".to_owned());
    }
    Ok(run)
}

/// A scratch directory private to this process, under [`OUT_DIR`].
pub fn scratch_dir(workload: Workload) -> PathBuf {
    PathBuf::from(OUT_DIR)
        .join("tmp")
        .join(format!("{}-{}", workload.name(), std::process::id()))
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Median, quartiles and sample count.
    pub summary: Summary,
}

impl Metric {
    /// A metric summarised from samples.
    pub fn new(name: impl Into<String>, unit: &'static str, summary: Summary) -> Metric {
        Metric {
            name: name.into(),
            unit,
            summary,
        }
    }

    /// A metric with one measurement.
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric::new(name, unit, Summary::single(value))
    }
}

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// What a run reports besides its metrics.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Timed passes completed.
    pub passes: usize,
    /// Digest over every simulated result of the first timed pass.
    pub report_digest: String,
}

/// Prints the run's two machine-readable lines: `#detail {...}` (quartiles,
/// sample counts, digest — read by `e2e --all`) and, last, the result
/// object of the benchmark contract.
pub fn print_result(args: &RunArgs, outcome: &RunOutcome, metrics: &[Metric]) {
    let detail_metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                object(vec![
                    ("value", Value::Float(m.summary.median)),
                    ("unit", Value::String(m.unit.to_owned())),
                    ("q1", Value::Float(m.summary.q1)),
                    ("q3", Value::Float(m.summary.q3)),
                    ("n", Value::UInt(m.summary.n as u64)),
                ]),
            )
        })
        .collect();
    let detail = object(vec![
        ("workload", Value::String(args.workload.name().to_owned())),
        ("seed", Value::UInt(args.seed)),
        ("seconds", Value::Float(args.seconds)),
        ("scale", Value::Float(args.workload_scale())),
        ("passes", Value::UInt(outcome.passes as u64)),
        ("attempted", Value::UInt(outcome.attempted)),
        ("failed", Value::UInt(outcome.failed)),
        (
            "report_digest",
            Value::String(outcome.report_digest.clone()),
        ),
        ("metrics", Value::Object(detail_metrics)),
    ]);
    println!(
        "#detail {}",
        serde_json::to_string(&detail).expect("a value tree serializes")
    );
    let result_metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                object(vec![
                    ("value", Value::Float(m.summary.median)),
                    ("unit", Value::String(m.unit.to_owned())),
                ]),
            )
        })
        .collect();
    let result = object(vec![
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::UInt(outcome.attempted)),
        ("failed", Value::UInt(outcome.failed)),
        ("metrics", Value::Object(result_metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("a value tree serializes")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn run_args_parse_and_default() {
        let a = args(&["--workload", "fixed_sweep", "--seed", "7", "--seconds", "3"]);
        let run = parse_run_args(&a).expect("parses");
        assert_eq!(run.workload, Workload::FixedSweep);
        assert_eq!((run.seed, run.seconds, run.scale), (7, 3.0, 1.0));
        assert_eq!(run.workload_scale(), 0.5);
    }

    #[test]
    fn run_args_reject_bad_input() {
        assert!(parse_run_args(&args(&["--seed", "1"])).is_err());
        assert!(parse_run_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_run_args(&args(&["--workload", "hier_suite", "--seed", "x"])).is_err());
        assert!(parse_run_args(&args(&["--workload", "hier_suite", "--scale", "0"])).is_err());
    }

    #[test]
    fn every_workload_name_round_trips() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
