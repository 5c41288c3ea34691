//! simcheck — the flow-sensitive analysis tier.
//!
//! Two whole-program analyses over the parser/CFG layer, each shipping
//! as a regular `gpumem-lint` rule with the usual `simlint::allow` escape
//! hatch:
//!
//! * [`slots`] — fetch-slot leaks: every `FetchArena` slot allocation must
//!   be consumed (freed, transferred into an MSHR, or escaped) on every
//!   CFG path to the function exit.
//! * [`deadlock`] — queue/credit deadlock freedom: the push/pop topology
//!   over the named `SimQueue`s forms a resource-dependency graph; every
//!   cycle must contain a guaranteed (capacity-unguarded) drain.
//!
//! The analyses run over parsed files as one unit so the deadlock graph
//! can span crates; per-file rules stay in [`crate::rules`].

pub mod deadlock;
pub mod slots;

use crate::parser::ParsedFile;
use crate::report::Diagnostic;

/// One source file prepared for the flow-sensitive tier.
pub struct AnalyzedFile {
    /// Diagnostic label (workspace-relative path when available).
    pub label: String,
    /// The parsed statement trees.
    pub parsed: ParsedFile,
}

/// Runs both analyses over the unit.
pub fn run(files: &[AnalyzedFile]) -> Vec<Diagnostic> {
    let mut out = slots::check(files);
    out.extend(deadlock::check(files));
    out
}
