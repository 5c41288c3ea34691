//! Fetch-slot leak analysis: path-sensitive pairing of `FetchArena` slot
//! allocation with a free/transfer on every CFG exit path.
//!
//! The zero-copy plumbing stores every in-flight `MemFetch` in a slab
//! arena; L1/L2 code passes `SlotId` handles through MSHRs and queues. A
//! slot that is inserted but not freed (`take`), transferred (stored into
//! an MSHR/waiter/queue) or escaped on *some* path is a leak the runtime
//! only catches at end-of-run conservation checking — and only on seeds
//! that drive that path. This analysis walks the CFG instead:
//!
//! * `<…>.arena.insert(f)` bound to a variable: every path from the
//!   allocation to the function exit (including early `return`s and `?`
//!   edges) must pass a statement that mentions the binding. Mentioning
//!   counts as consumption — the overwhelming false-positive risk is in
//!   the other direction, and an explicit `simlint::allow` is preferred
//!   over silent imprecision.
//! * `<…>.arena.insert(f)` with the result discarded (a bare statement,
//!   or a `let _ =` binding): always a leak — the `SlotId` is
//!   unrecoverable the moment it is dropped.

use crate::cfg;
use crate::parser::FnDef;
use crate::report::Diagnostic;
use crate::rules::FETCH_SLOT_LEAK;

use super::AnalyzedFile;

/// True when the call is a slot allocation on a fetch arena.
fn is_arena_insert(recv: &[String], method: &str) -> bool {
    method == "insert" && recv.iter().any(|r| r.contains("arena"))
}

/// Runs the analysis over every non-test function in the unit.
pub fn check(files: &[AnalyzedFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in files {
        for f in &file.parsed.fns {
            if f.is_test {
                continue;
            }
            check_fn(&file.label, f, &mut out);
        }
    }
    out
}

fn check_fn(label: &str, f: &FnDef, out: &mut Vec<Diagnostic>) {
    let graph = cfg::build(f);
    for (id, node) in graph.nodes.iter().enumerate() {
        for expr in &node.exprs {
            for call in &expr.calls {
                if !is_arena_insert(&call.recv, &call.method) {
                    continue;
                }
                if call.discarded {
                    out.push(leak(label, f, call.line, call.col,
                        "FetchArena slot allocated and immediately discarded: the SlotId is unrecoverable"));
                    continue;
                }
                // A binding on this node tracks the slot; no binding means
                // the SlotId flows into the enclosing expression (struct
                // literal, call argument) and escapes by construction.
                let Some(var) = node.defs.first() else {
                    continue;
                };
                if var == "_" {
                    out.push(leak(label, f, call.line, call.col,
                        "FetchArena slot bound to `_` is dropped on the spot: the SlotId is unrecoverable"));
                    continue;
                }
                let var = var.clone();
                // Leak iff the exit is reachable without any mention of the
                // binding. A node that rebinds the name also ends the
                // handle's liveness.
                let leaked = graph.exit_reachable_avoiding(id, |n| {
                    n.exprs.iter().any(|e| e.uses(&var)) || n.defs.contains(&var)
                });
                if leaked {
                    out.push(leak(
                        label,
                        f,
                        call.line,
                        call.col,
                        &format!(
                            "FetchArena slot `{var}` can reach a function exit without a \
                             free or transfer on some path"
                        ),
                    ));
                }
            }
        }
    }
}

fn leak(label: &str, f: &FnDef, line: u32, col: u32, message: &str) -> Diagnostic {
    Diagnostic::error(
        label,
        line,
        FETCH_SLOT_LEAK,
        format!("{message} (in fn {})", f.name),
        "every CFG path out of the function must take(), transfer (MSHR/waiter/queue) \
         or return the slot; if a path is provably unreachable, allowlist it with the \
         reason",
    )
    .with_col(col)
}
