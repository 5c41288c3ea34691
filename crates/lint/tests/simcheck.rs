//! Fixture self-tests for the flow-sensitive simcheck tier: each seeded
//! fixture must produce exactly the expected findings (correct rule, file
//! and line), and the clean control functions must stay silent.

use std::path::Path;

use gpumem_lint::{lint_source, report, Diagnostic};

fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).expect("fixture exists");
    // Fixtures stand in for production sources, so is_test = false.
    lint_source(name, &src, false)
}

fn rule_lines(diags: &[Diagnostic], rule: &str) -> Vec<u32> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

#[test]
fn arena_slot_leak_fixture() {
    let d = lint_fixture("arena_slot_leak.rs");
    // Fall-through leak (13), discarded SlotId (20), `_`-bound SlotId (24);
    // `clean` pairs its slot on every path.
    assert_eq!(rule_lines(&d, "fetch-slot-leak"), [13, 20, 24]);
    assert_eq!(d.len(), 3, "nothing else fires: {d:?}");
}

#[test]
fn credit_cycle_fixture() {
    let d = lint_fixture("credit_cycle.rs");
    let cycles: Vec<&Diagnostic> = d.iter().filter(|v| v.rule == "queue-deadlock").collect();
    // Exactly one cycle: ping <-> pong with both pops capacity-guarded.
    // spill -> floor has the unguarded `sweep` drain and stays legal.
    assert_eq!(cycles.len(), 1, "one cycle: {d:?}");
    assert!(cycles[0].message.contains("ping -> pong"), "{}", cycles[0]);
    assert!(!cycles[0].message.contains("spill"), "{}", cycles[0]);
    assert_eq!(d.len(), 1, "nothing else fires: {d:?}");
}

#[test]
fn simcheck_rules_are_suppressible() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/arena_slot_leak.rs");
    let src = std::fs::read_to_string(&path).expect("fixture exists");
    let src = src.replace(
        "        self.arena.insert(fetch);",
        "        // simlint::allow(fetch-slot-leak, reason = \"seeded fixture escape test\")\n\
         \x20       self.arena.insert(fetch);",
    );
    let d = lint_source("arena_slot_leak.rs", &src, false);
    // The discard finding is suppressed; the other two remain, and the
    // directive is not flagged as stale.
    let leaks = rule_lines(&d, "fetch-slot-leak");
    assert_eq!(leaks.len(), 2, "{d:?}");
    assert_eq!(rule_lines(&d, "unused-allow"), [] as [u32; 0]);
}

#[test]
fn json_report_has_stable_schema() {
    let d = lint_fixture("arena_slot_leak.rs");
    let json = report::render_json(&d, 1);
    assert!(json.starts_with("{\n  \"version\": 1,"));
    assert!(json.contains("\"rule\": \"fetch-slot-leak\""));
    assert!(json.contains("\"file\": \"arena_slot_leak.rs\""));
    assert!(json.contains("\"line\": 13"));
    assert!(json.contains("\"span\": {\"line\": 13, \"col\": 31}"));
    assert!(json.contains("\"severity\": \"error\""));
    assert!(json.contains("\"summary\": {\"errors\": 3, \"warnings\": 0, \"files_scanned\": 1}"));
}
