//! The simlint rule catalogue and the token-level rule engine.
//!
//! Rules operate on the comment-free token stream from [`crate::lexer`].
//! Determinism rules are scoped to *non-test simulation code*: files under a
//! `tests/` directory and items inside `#[cfg(test)]` blocks are exempt,
//! because test harnesses legitimately read the environment and hash-order
//! nondeterminism there cannot leak into a `SimReport`.

use crate::lexer::{Tok, Token};
use crate::report::Diagnostic;

/// Metadata describing one rule, surfaced by `gpumem-lint rules` and used to
/// validate `simlint::allow` directives.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule id, as written in `simlint::allow(<id>, …)`.
    pub id: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Whether `// simlint::allow(…)` may suppress it.
    pub suppressible: bool,
}

/// Unordered hash containers in simulation code.
pub const NO_HASH_COLLECTIONS: &str = "no-hash-collections";
/// Host wall-clock reads in simulation code.
pub const NO_WALL_CLOCK: &str = "no-wall-clock";
/// Process-environment reads in simulation code.
pub const NO_ENV: &str = "no-env";
/// Thread-identity-dependent code in simulation code.
pub const NO_THREAD_ID: &str = "no-thread-id";
/// Any `unsafe` token anywhere in the workspace.
pub const NO_UNSAFE: &str = "no-unsafe";
/// A `crates/*` library missing `#![forbid(unsafe_code)]`.
pub const MISSING_FORBID_UNSAFE: &str = "missing-forbid-unsafe";
/// A `crates/config` baseline constant drifting from the Table I manifest.
pub const TABLE_I_DRIFT: &str = "table-i-drift";
/// `unwrap`/`expect`/`panic!` in model-crate simulation code.
pub const NO_PANIC_IN_MODEL: &str = "no-panic-in-model";
/// A malformed or reasonless `simlint::allow` directive.
pub const ALLOW_SYNTAX: &str = "allow-syntax";
/// A `simlint::allow` directive that suppressed nothing.
pub const UNUSED_ALLOW: &str = "unused-allow";
/// Raw filesystem I/O in sweep code outside its journal module.
pub const FS_OUTSIDE_JOURNAL: &str = "fs-outside-journal";
/// A `FetchArena` slot allocation not consumed on every CFG exit path
/// (simcheck tier).
pub const FETCH_SLOT_LEAK: &str = "fetch-slot-leak";
/// A queue/credit resource cycle with no guaranteed drain (simcheck tier).
pub const QUEUE_DEADLOCK: &str = "queue-deadlock";

/// The full rule catalogue.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: NO_HASH_COLLECTIONS,
        summary: "deny HashMap/HashSet/RandomState in non-test simulation code \
                  (iteration order is nondeterministic)",
        suppressible: true,
    },
    RuleInfo {
        id: NO_WALL_CLOCK,
        summary: "deny Instant/SystemTime outside the one allowlisted \
                  host-reporting site (gpumem_types::host_wall_clock)",
        suppressible: true,
    },
    RuleInfo {
        id: NO_ENV,
        summary: "deny std::env reads in non-test simulation code",
        suppressible: true,
    },
    RuleInfo {
        id: NO_THREAD_ID,
        summary: "deny thread::current (thread-identity-dependent behaviour) \
                  in non-test simulation code",
        suppressible: true,
    },
    RuleInfo {
        id: NO_UNSAFE,
        summary: "deny the `unsafe` keyword everywhere; not allowlistable",
        suppressible: false,
    },
    RuleInfo {
        id: MISSING_FORBID_UNSAFE,
        summary: "every crates/* library must carry #![forbid(unsafe_code)]",
        suppressible: false,
    },
    RuleInfo {
        id: TABLE_I_DRIFT,
        summary: "crates/config baseline values must match the machine-readable \
                  Table I manifest",
        suppressible: false,
    },
    RuleInfo {
        id: NO_PANIC_IN_MODEL,
        summary: "deny .unwrap()/.expect()/panic! in non-test model-crate code \
                  (crates/{sim,noc,dram,cache,simt}); fail with typed SimErrors \
                  instead of crashing mid-run",
        suppressible: true,
    },
    RuleInfo {
        id: ALLOW_SYNTAX,
        summary: "simlint::allow directives must name a known suppressible rule \
                  and give a non-empty reason",
        suppressible: false,
    },
    RuleInfo {
        id: UNUSED_ALLOW,
        summary: "simlint::allow directives that suppress nothing are flagged \
                  (warning; error under --deny-all)",
        suppressible: false,
    },
    RuleInfo {
        id: FS_OUTSIDE_JOURNAL,
        summary: "sweep-crate code must route all filesystem I/O through its \
                  journal module (std::fs / File / OpenOptions are denied \
                  elsewhere, so the write-ahead commit protocol cannot be \
                  bypassed)",
        suppressible: true,
    },
    RuleInfo {
        id: FETCH_SLOT_LEAK,
        summary: "every FetchArena slot allocation must be freed, transferred \
                  or escaped on every CFG path to the function exit",
        suppressible: true,
    },
    RuleInfo {
        id: QUEUE_DEADLOCK,
        summary: "every cycle in the queue/credit resource-dependency graph \
                  must contain a capacity-unguarded drain",
        suppressible: true,
    },
];

/// Looks up a rule by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

fn is_punct(code: &[Token], i: usize, c: char) -> bool {
    matches!(code.get(i), Some(Token { tok: Tok::Punct(p), .. }) if *p == c)
}

fn ident_at(code: &[Token], i: usize) -> Option<&str> {
    match code.get(i) {
        Some(Token {
            tok: Tok::Ident(s), ..
        }) => Some(s.as_str()),
        _ => None,
    }
}

/// True when tokens at `i` spell `a::b`.
fn is_path2(code: &[Token], i: usize, a: &str, b: &str) -> bool {
    ident_at(code, i) == Some(a)
        && is_punct(code, i + 1, ':')
        && is_punct(code, i + 2, ':')
        && ident_at(code, i + 3) == Some(b)
}

/// Inclusive line ranges covered by `#[cfg(test)]` items (and any other
/// attribute mentioning `cfg` + `test`, e.g. `#[cfg(any(test, …))]`, but not
/// `#[cfg(not(test))]`).
pub fn cfg_test_spans(code: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !(is_punct(code, i, '#') && is_punct(code, i + 1, '[')) {
            i += 1;
            continue;
        }
        // Find the matching `]` of the attribute.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut attr_end = None;
        while j < code.len() {
            match code[j].tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        attr_end = Some(j);
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let Some(attr_end) = attr_end else { break };
        let attr = &code[i..=attr_end];
        let has = |name: &str| {
            attr.iter()
                .any(|t| matches!(&t.tok, Tok::Ident(s) if s == name))
        };
        if has("cfg") && has("test") && !has("not") {
            if let Some(span) = item_span(code, attr_end + 1, code[i].line) {
                spans.push(span);
            }
        }
        i = attr_end + 1;
    }
    spans
}

/// Extent of the item starting at token `start` (skipping further
/// attributes): up to the closing brace of its first `{…}` block, or to the
/// terminating `;` for brace-less items.
fn item_span(code: &[Token], mut start: usize, first_line: u32) -> Option<(u32, u32)> {
    // Skip stacked attributes.
    while is_punct(code, start, '#') && is_punct(code, start + 1, '[') {
        let mut depth = 0usize;
        let mut j = start + 1;
        loop {
            match code.get(j).map(|t| &t.tok) {
                Some(Tok::Punct('[')) => depth += 1,
                Some(Tok::Punct(']')) => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                None => return None,
                _ => {}
            }
            j += 1;
        }
        start = j + 1;
    }
    let mut k = start;
    while k < code.len() {
        match code[k].tok {
            Tok::Punct(';') => return Some((first_line, code[k].line)),
            Tok::Punct('{') => {
                let close = matching_brace(code, k)?;
                return Some((first_line, code[close].line));
            }
            _ => k += 1,
        }
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(code: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in code.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

fn in_spans(spans: &[(u32, u32)], line: u32) -> bool {
    spans.iter().any(|&(lo, hi)| lo <= line && line <= hi)
}

/// Crates whose non-test code must stay panic-free: a simulation abort must
/// surface as a typed `SimError`, never a crash, so the watchdog's wedge
/// diagnosis and a sweep's per-cell failure handling stay reachable.
const MODEL_CRATE_PREFIXES: &[&str] = &[
    "crates/sim/",
    "crates/noc/",
    "crates/dram/",
    "crates/cache/",
    "crates/simt/",
    "crates/tracefmt/",
];

fn in_model_crate(file: &str) -> bool {
    MODEL_CRATE_PREFIXES.iter().any(|p| file.starts_with(p))
}

/// Runs every token-level rule over one file's comment-free stream.
///
/// `is_test` exempts the whole file from the determinism rules (set for
/// files under a `tests/` directory); `#[cfg(test)]` spans are computed
/// internally and exempt likewise.
pub fn run(file: &str, code: &[Token], is_test: bool) -> Vec<Diagnostic> {
    let spans = cfg_test_spans(code);
    let mut diags = Vec::new();
    let exempt = |line: u32| is_test || in_spans(&spans, line);
    let model = in_model_crate(file);
    // The sweep crate's crash-safety guarantee holds only if every disk
    // mutation goes through its journal module; any other sweep file doing
    // raw filesystem I/O silently bypasses the write-ahead protocol.
    let sweep_scope = file.contains("sweep") && !file.ends_with("journal.rs");

    for (i, t) in code.iter().enumerate() {
        let line = t.line;
        if let Tok::Ident(name) = &t.tok {
            match name.as_str() {
                "unwrap" | "expect"
                    if model
                        && !exempt(line)
                        && is_punct(code, i.wrapping_sub(1), '.')
                        && is_punct(code, i + 1, '(') =>
                {
                    diags.push(Diagnostic::error(
                        file,
                        line,
                        NO_PANIC_IN_MODEL,
                        format!("`.{name}()` can panic inside the simulation model"),
                        "return a typed SimError (or make the state impossible by \
                         construction); model code must fail loudly but structuredly",
                    ));
                }
                "panic" if model && !exempt(line) && is_punct(code, i + 1, '!') => {
                    diags.push(Diagnostic::error(
                        file,
                        line,
                        NO_PANIC_IN_MODEL,
                        "`panic!` aborts the run without a typed error",
                        "return a SimError variant so callers can diagnose the wedge; \
                         assert!/debug_assert! remain available for true invariants",
                    ));
                }
                "HashMap" | "HashSet" | "RandomState" if !exempt(line) => {
                    diags.push(Diagnostic::error(
                        file,
                        line,
                        NO_HASH_COLLECTIONS,
                        format!("`{name}` has nondeterministic iteration order"),
                        "use BTreeMap/BTreeSet or an index-keyed Vec; report order must \
                         not depend on hasher state",
                    ));
                }
                "Instant" | "SystemTime" if !exempt(line) => {
                    diags.push(Diagnostic::error(
                        file,
                        line,
                        NO_WALL_CLOCK,
                        format!("`{name}` reads the host wall clock"),
                        "route timing through gpumem_types::host_wall_clock(), the one \
                         allowlisted host-reporting site",
                    ));
                }
                "unsafe" => {
                    diags.push(Diagnostic::error(
                        file,
                        line,
                        NO_UNSAFE,
                        "`unsafe` code is banned workspace-wide",
                        "rewrite safely; every crate carries #![forbid(unsafe_code)] and \
                         this rule is not allowlistable",
                    ));
                }
                _ => {}
            }
        }
        if is_path2(code, i, "std", "env") && !exempt(line) {
            diags.push(Diagnostic::error(
                file,
                line,
                NO_ENV,
                "`std::env` makes behaviour depend on the process environment",
                "plumb configuration explicitly (GpuConfig / function arguments); \
                 host CLIs may allowlist with a reason",
            ));
        }
        if sweep_scope && !exempt(line) {
            // `std::fs` is caught at `std`; a bare `fs::…` (via `use
            // std::fs`) is caught at `fs` unless it is the tail of a
            // `std::fs` path already flagged one token earlier.
            let fs_path = is_path2(code, i, "std", "fs")
                || (ident_at(code, i) == Some("fs")
                    && is_punct(code, i + 1, ':')
                    && is_punct(code, i + 2, ':')
                    && !is_punct(code, i.wrapping_sub(1), ':'));
            let fs_type = matches!(ident_at(code, i), Some("File" | "OpenOptions"));
            if fs_path || fs_type {
                diags.push(Diagnostic::error(
                    file,
                    line,
                    FS_OUTSIDE_JOURNAL,
                    "raw filesystem I/O in sweep code outside the journal module",
                    "route writes through DiskStore (crates/sweep/src/journal.rs) \
                     so every mutation follows the write-ahead journal + atomic \
                     rename commit protocol",
                ));
            }
        }
        if is_path2(code, i, "thread", "current") && !exempt(line) {
            diags.push(Diagnostic::error(
                file,
                line,
                NO_THREAD_ID,
                "`thread::current` introduces thread-identity-dependent behaviour",
                "shard by deterministic index instead; results must be identical at \
                 every thread count",
            ));
        }
    }

    diags
}

/// True when the comment-free stream contains `#![forbid(unsafe_code)]`.
pub fn has_forbid_unsafe_attr(code: &[Token]) -> bool {
    code.windows(8).any(|w| {
        matches!(&w[0].tok, Tok::Punct('#'))
            && matches!(&w[1].tok, Tok::Punct('!'))
            && matches!(&w[2].tok, Tok::Punct('['))
            && matches!(&w[3].tok, Tok::Ident(s) if s == "forbid")
            && matches!(&w[4].tok, Tok::Punct('('))
            && matches!(&w[5].tok, Tok::Ident(s) if s == "unsafe_code")
            && matches!(&w[6].tok, Tok::Punct(')'))
            && matches!(&w[7].tok, Tok::Punct(']'))
    })
}
