//! `simlint` — the workspace static-analysis pass.
//!
//! The simulator's headline guarantee is that `run` and `run_stepped`
//! produce bit-identical reports, run after run. The runtime differential
//! suite can only catch a nondeterminism hazard *after* it changes a
//! report; this crate catches the hazard classes statically, before any
//! cycle runs:
//!
//! * **Determinism** — no unordered hash containers, wall-clock reads,
//!   environment reads or thread-identity dependence in simulation code
//!   ([`rules::NO_HASH_COLLECTIONS`], [`rules::NO_WALL_CLOCK`],
//!   [`rules::NO_ENV`], [`rules::NO_THREAD_ID`]).
//! * **Unsafe-freedom** — no `unsafe` token anywhere, and every `crates/*`
//!   library must carry `#![forbid(unsafe_code)]`
//!   ([`rules::NO_UNSAFE`], [`rules::MISSING_FORBID_UNSAFE`]).
//! * **Config fidelity** — the paper's Table I baseline, recorded as a
//!   machine-readable manifest, is cross-checked against the literals in
//!   `crates/config/src/gpu.rs` ([`rules::TABLE_I_DRIFT`]).
//!
//! On top of the token rules sits **simcheck**, the flow-sensitive tier
//! ([`simcheck`]): a lightweight function parser ([`parser`]) and
//! branch-aware CFG ([`cfg`]) drive two whole-unit analyses — fetch-slot
//! leak freedom ([`rules::FETCH_SLOT_LEAK`]) and queue/credit deadlock
//! freedom ([`rules::QUEUE_DEADLOCK`]).
//!
//! Sites with a legitimate need (host CLIs, the one sanctioned wall-clock
//! helper) opt out per line with `// simlint::allow(<rule>, reason = "…")`;
//! the reason is mandatory and stale directives are themselves flagged.
//!
//! Run as `cargo run -p gpumem-lint -- check` (add `--format json` for the
//! machine-readable report); the tier-1 test `tests/simlint.rs` wires the
//! same pass into `cargo test -q`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allowlist;
pub mod cfg;
pub mod lexer;
pub mod manifest;
pub mod parser;
pub mod report;
pub mod rules;
pub mod simcheck;

use std::path::{Path, PathBuf};

pub use report::{Diagnostic, Severity};

use allowlist::Allowlist;

/// The Table I manifest shipped with the tool, used when the workspace copy
/// (`crates/lint/table_i.json`) is absent.
pub const EMBEDDED_MANIFEST: &str = include_str!("../table_i.json");

/// Strictness options for a lint run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LintOptions {
    /// Promote warnings (e.g. [`rules::UNUSED_ALLOW`]) to errors.
    pub deny_all: bool,
}

/// The result of a lint run.
#[derive(Debug)]
pub struct LintOutcome {
    /// Every finding, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintOutcome {
    /// Findings that fail the pass under `opts`.
    pub fn denied<'a>(&'a self, opts: &LintOptions) -> impl Iterator<Item = &'a Diagnostic> + 'a {
        let deny_all = opts.deny_all;
        self.diagnostics
            .iter()
            .filter(move |d| d.is_denied(deny_all))
    }

    /// Renders every diagnostic, one per line block.
    pub fn render(&self) -> String {
        report::render(&self.diagnostics)
    }
}

/// Directory names never descended into while scanning.
const EXCLUDED_DIRS: &[&str] = &["target", "vendored", "fixtures"];

/// True when `path` is test code: it lives under a `tests/` directory.
/// Fixture files (any `fixtures/` component) are *not* test code — they
/// stand in for production sources.
pub fn is_test_path(path: &Path) -> bool {
    let mut is_test = false;
    for c in path.components() {
        let c = c.as_os_str().to_string_lossy();
        if c == "fixtures" {
            return false;
        }
        if c == "tests" {
            is_test = true;
        }
    }
    is_test
}

/// Recursively collects `.rs` files under `dir` (sorted, deterministic),
/// skipping [`EXCLUDED_DIRS`].
pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            let name = p.file_name().map(|n| n.to_string_lossy().into_owned());
            if name
                .as_deref()
                .is_some_and(|n| EXCLUDED_DIRS.contains(&n) || n.starts_with('.'))
            {
                continue;
            }
            collect_rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// One source file queued for a lint run.
#[derive(Debug)]
pub struct FileInput {
    /// Diagnostic label, used verbatim.
    pub label: String,
    /// Full source text.
    pub source: String,
    /// Whether the file is test code (exempt from determinism rules).
    pub is_test: bool,
}

/// Lints a set of files as one unit: per-file token rules, then the
/// flow-sensitive simcheck tier over all files together (the deadlock
/// graph spans crates), then allowlist application and unused-directive
/// warnings per file.
pub fn lint_files(inputs: &[FileInput]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut units = Vec::new();
    let mut analyzed = Vec::new();
    for input in inputs {
        let (code, comments) = lexer::split_comments(lexer::lex(&input.source));
        let allows = Allowlist::collect(&input.label, &comments, &mut out);
        let file_diags = rules::run(&input.label, &code, input.is_test);
        let test_spans = rules::cfg_test_spans(&code);
        analyzed.push(simcheck::AnalyzedFile {
            label: input.label.clone(),
            parsed: parser::parse_file(&code, &test_spans, input.is_test),
        });
        units.push((input.label.as_str(), allows, file_diags));
    }
    let sim_diags = simcheck::run(&analyzed);
    for (label, mut allows, file_diags) in units {
        let for_file = sim_diags.iter().filter(|d| d.file == label).cloned();
        for d in file_diags.into_iter().chain(for_file) {
            if !allows.suppresses(d.rule, d.line) {
                out.push(d);
            }
        }
        allows.unused_warnings(label, &mut out);
    }
    out
}

/// Lints one file's source text: token rules, the simcheck tier (on this
/// file alone), allowlist application, and unused-directive warnings.
/// `label` is used verbatim in diagnostics.
pub fn lint_source(label: &str, source: &str, is_test: bool) -> Vec<Diagnostic> {
    lint_files(&[FileInput {
        label: label.to_owned(),
        source: source.to_owned(),
        is_test,
    }])
}

/// Lints explicit files/directories (no workspace-level checks). Paths are
/// used verbatim as diagnostic labels.
///
/// # Errors
///
/// Returns a message when a path cannot be read.
pub fn check_paths(paths: &[PathBuf], _opts: &LintOptions) -> Result<LintOutcome, String> {
    let mut files = Vec::new();
    for p in paths {
        if p.is_dir() {
            collect_rs_files(p, &mut files);
        } else {
            files.push(p.clone());
        }
    }
    let mut inputs = Vec::new();
    for f in &files {
        let src =
            std::fs::read_to_string(f).map_err(|e| format!("cannot read {}: {e}", f.display()))?;
        inputs.push(FileInput {
            label: f.display().to_string(),
            source: src,
            is_test: is_test_path(f),
        });
    }
    let mut diagnostics = lint_files(&inputs);
    report::sort(&mut diagnostics);
    Ok(LintOutcome {
        diagnostics,
        files_scanned: files.len(),
    })
}

/// Runs the full workspace pass rooted at `root` (the directory holding the
/// workspace `Cargo.toml`): scans `crates/**` and `tests/**`, audits
/// `#![forbid(unsafe_code)]` on every `crates/*` library, and cross-checks
/// the Table I manifest against `crates/config/src/gpu.rs`.
///
/// # Errors
///
/// Returns a message when the root is not a workspace or a file cannot be
/// read.
pub fn check_workspace(root: &Path, _opts: &LintOptions) -> Result<LintOutcome, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!(
            "{} has no crates/ directory; pass the workspace root via --root",
            root.display()
        ));
    }

    let mut files = Vec::new();
    collect_rs_files(&crates_dir, &mut files);
    collect_rs_files(&root.join("tests"), &mut files);

    let mut inputs = Vec::new();
    for f in &files {
        let src =
            std::fs::read_to_string(f).map_err(|e| format!("cannot read {}: {e}", f.display()))?;
        inputs.push(FileInput {
            label: f.strip_prefix(root).unwrap_or(f).display().to_string(),
            source: src,
            is_test: is_test_path(f),
        });
    }
    let mut diagnostics = lint_files(&inputs);

    diagnostics.extend(audit_forbid_unsafe(root, &crates_dir)?);
    diagnostics.extend(manifest_check(root)?);

    report::sort(&mut diagnostics);
    Ok(LintOutcome {
        diagnostics,
        files_scanned: files.len(),
    })
}

/// Every `crates/*` package's `src/lib.rs` must carry
/// `#![forbid(unsafe_code)]`.
fn audit_forbid_unsafe(root: &Path, crates_dir: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut diags = Vec::new();
    let entries = std::fs::read_dir(crates_dir).map_err(|e| format!("cannot list crates/: {e}"))?;
    let mut dirs: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    dirs.sort();
    for dir in dirs {
        let lib = dir.join("src/lib.rs");
        if !dir.join("Cargo.toml").is_file() || !lib.is_file() {
            continue;
        }
        let src = std::fs::read_to_string(&lib)
            .map_err(|e| format!("cannot read {}: {e}", lib.display()))?;
        let (code, _) = lexer::split_comments(lexer::lex(&src));
        if !rules::has_forbid_unsafe_attr(&code) {
            diags.push(Diagnostic::error(
                lib.strip_prefix(root).unwrap_or(&lib).display().to_string(),
                1,
                rules::MISSING_FORBID_UNSAFE,
                "library crate lacks #![forbid(unsafe_code)]",
                "add `#![forbid(unsafe_code)]` to the crate root so the promise the \
                 existing crates make cannot silently regress",
            ));
        }
    }
    Ok(diags)
}

/// Cross-checks the Table I manifest against `crates/config/src/gpu.rs`.
fn manifest_check(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let manifest_path = root.join("crates/lint/table_i.json");
    let json = match std::fs::read_to_string(&manifest_path) {
        Ok(s) => s,
        Err(_) => EMBEDDED_MANIFEST.to_owned(),
    };
    let entries = manifest::parse_manifest(&json)?;
    let gpu_rs = root.join("crates/config/src/gpu.rs");
    let src = std::fs::read_to_string(&gpu_rs)
        .map_err(|e| format!("cannot read {}: {e}", gpu_rs.display()))?;
    Ok(manifest::check_source(
        &entries,
        &gpu_rs
            .strip_prefix(root)
            .unwrap_or(&gpu_rs)
            .display()
            .to_string(),
        &src,
    ))
}
