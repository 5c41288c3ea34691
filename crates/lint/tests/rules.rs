//! Fixture-based rule tests: each file under `tests/fixtures/` seeds a known
//! violation class (or a legitimate allowlisted site) and the engine must
//! report exactly the expected findings.

use std::path::Path;

use gpumem_lint::{lint_source, Diagnostic, Severity};

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
fn hash_map_fixture() {
    let d = lint_fixture("hash_map.rs");
    assert_eq!(rule_lines(&d, "no-hash-collections"), [2, 4, 5]);
    assert_eq!(d.len(), 3, "nothing else fires: {d:?}");
}

#[test]
fn wall_clock_fixture() {
    let d = lint_fixture("wall_clock.rs");
    assert_eq!(rule_lines(&d, "no-wall-clock"), [2, 5]);
    assert_eq!(d.len(), 2, "nothing else fires: {d:?}");
}

#[test]
fn env_thread_fixture() {
    let d = lint_fixture("env_thread.rs");
    assert_eq!(rule_lines(&d, "no-env"), [3]);
    assert_eq!(rule_lines(&d, "no-thread-id"), [4]);
    assert_eq!(d.len(), 2, "nothing else fires: {d:?}");
}

#[test]
fn unsafe_fixture() {
    let d = lint_fixture("unsafe_block.rs");
    assert_eq!(rule_lines(&d, "no-unsafe"), [2, 7]);
    assert_eq!(d.len(), 2, "nothing else fires: {d:?}");
}

#[test]
fn allowed_fixture_is_clean() {
    let d = lint_fixture("allowed_ok.rs");
    assert!(d.is_empty(), "allowlisted sites must not fire: {d:?}");
}

#[test]
fn allow_bad_fixture() {
    let d = lint_fixture("allow_bad.rs");
    assert_eq!(rule_lines(&d, "allow-syntax").len(), 2, "findings: {d:?}");
    // The reasonless directive suppresses nothing, so both HashMap sites
    // still fire.
    assert_eq!(
        rule_lines(&d, "no-hash-collections").len(),
        2,
        "findings: {d:?}"
    );
    let unused = rule_lines(&d, "unused-allow");
    assert_eq!(unused.len(), 1, "findings: {d:?}");
    assert!(d
        .iter()
        .filter(|x| x.rule == "unused-allow")
        .all(|x| x.severity == Severity::Warning));
}

#[test]
fn cfg_test_fixture_is_clean() {
    let d = lint_fixture("cfg_test_ok.rs");
    assert!(d.is_empty(), "#[cfg(test)] items are exempt: {d:?}");
}

#[test]
fn test_files_are_exempt_from_determinism_rules() {
    let src = "use std::collections::HashMap;\nfn helper() { let _ = std::env::var(\"X\"); }\n";
    assert!(lint_source("tests/some_test.rs", src, true).is_empty());
    // …but unsafe is denied even in tests.
    let with_unsafe = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    let d = lint_source("tests/some_test.rs", with_unsafe, true);
    assert_eq!(rule_lines(&d, "no-unsafe"), [1]);
}

#[test]
fn panic_in_model_crates_is_flagged() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               let a = x.unwrap();\n\
               let b = x.expect(\"msg\");\n\
               if a + b > 3 { panic!(\"boom\"); }\n\
               a\n\
               }\n";
    let d = lint_source("crates/sim/src/gpu.rs", src, false);
    assert_eq!(
        rule_lines(&d, "no-panic-in-model"),
        [2, 3, 4],
        "findings: {d:?}"
    );
    assert_eq!(d.len(), 3, "nothing else fires: {d:?}");
}

#[test]
fn panic_rule_scope_is_model_crates_only() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert!(lint_source("crates/core/src/run.rs", src, false).is_empty());
    assert!(lint_source("crates/lint/src/main.rs", src, false).is_empty());
    // Test files inside model crates are exempt like everywhere else.
    assert!(lint_source("crates/sim/tests/chaos.rs", src, true).is_empty());
}

#[test]
fn asserts_and_lookalike_idents_stay_legal_in_model_code() {
    let src = "fn f(v: &[u32]) -> u32 {\n\
               assert!(!v.is_empty());\n\
               debug_assert_eq!(v.len() % 2, 0);\n\
               let s = v.iter().map(|x| x.wrapping_add(1)).sum::<u32>();\n\
               s.checked_add(unwrap_or_zero(v)).unwrap_or(0)\n\
               }\n";
    let d = lint_source("crates/noc/src/crossbar.rs", src, false);
    assert!(d.is_empty(), "findings: {d:?}");
}

#[test]
fn cfg_test_blocks_in_model_crates_are_exempt_from_panic_rule() {
    let src = "#[cfg(test)]\nmod tests {\n    fn t() {\n        Some(1).unwrap();\n    }\n}\n";
    let d = lint_source("crates/dram/src/lib.rs", src, false);
    assert!(d.is_empty(), "findings: {d:?}");
}

#[test]
fn allow_directive_suppresses_panic_rule_with_reason() {
    let src = "fn f(x: Option<u32>) -> u32 {\n\
               // simlint::allow(no-panic-in-model, reason = \"constructor contract\")\n\
               x.expect(\"validated\")\n\
               }\n";
    let d = lint_source("crates/sim/src/gpu.rs", src, false);
    assert!(d.is_empty(), "findings: {d:?}");
}
