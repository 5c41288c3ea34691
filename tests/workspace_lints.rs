//! The static checks (`clippy.toml` and the `[workspace.lints]` table of
//! the root `Cargo.toml`) reach only the members that opt in. Guard the
//! opt-in, so a new crate cannot silently skip every lint, and keep
//! `#![forbid(unsafe_code)]` at every library root.

#![expect(clippy::disallowed_methods, reason = "test harness")]

use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every directory matched by the workspace `members` globs.
fn dirs_under(group: &str) -> Vec<PathBuf> {
    let entries = std::fs::read_dir(root().join(group)).unwrap();
    entries.map(|e| e.unwrap().path()).collect()
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    let members = [dirs_under("crates"), dirs_under("vendored")].concat();
    assert!(members.len() >= 15, "found only {members:?}");
    for dir in std::iter::once(root().to_path_buf()).chain(members) {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        assert!(
            manifest.contains("\n[lints]\nworkspace = true\n"),
            "{} does not inherit [workspace.lints]",
            dir.display()
        );
    }
}

#[test]
fn every_library_forbids_unsafe_code() {
    for dir in dirs_under("crates") {
        let lib = std::fs::read_to_string(dir.join("src/lib.rs")).unwrap();
        assert!(
            lib.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]"),
            "{}/src/lib.rs lacks #![forbid(unsafe_code)]",
            dir.display()
        );
    }
}
