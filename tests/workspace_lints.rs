//! The static checks (`clippy.toml` and the `[workspace.lints]` table of
//! the root `Cargo.toml`) reach only the members that opt in. Guard the
//! opt-in, so a new crate cannot silently skip every lint, and keep
//! `#![forbid(unsafe_code)]` at every library root (every binary root of
//! a binary-only crate).

#![expect(clippy::disallowed_methods, reason = "test harness")]

use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The entries of `dir` (relative to the repository root, or absolute):
/// for `crates` and `vendored`, the workspace members.
fn dirs_under(dir: impl AsRef<Path>) -> Vec<PathBuf> {
    let entries = std::fs::read_dir(root().join(dir)).unwrap();
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

/// A crate's roots: its library, or each binary of a binary-only crate.
fn crate_roots(dir: &Path) -> Vec<PathBuf> {
    let lib = dir.join("src/lib.rs");
    if lib.exists() {
        return vec![lib];
    }
    dirs_under(dir.join("src/bin"))
}

#[test]
fn every_library_forbids_unsafe_code() {
    for dir in dirs_under("crates") {
        let roots = crate_roots(&dir);
        assert!(!roots.is_empty(), "{} has no crate root", dir.display());
        for root in roots {
            let src = std::fs::read_to_string(&root).unwrap();
            assert!(
                src.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]"),
                "{} lacks #![forbid(unsafe_code)]",
                root.display()
            );
        }
    }
}
