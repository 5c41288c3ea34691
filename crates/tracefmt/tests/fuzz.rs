//! Parser fuzz battery: the decoder must be *total* — arbitrary bytes,
//! byte-level mutations of valid traces, truncation at every offset and
//! structural shuffles of warp blocks all land in a typed [`TraceError`],
//! never a panic, and always deterministically.
//!
//! Hand-reduced malformed inputs live under `tests/fixtures/*.trace`; the
//! fixture sweep at the bottom keeps each one failing with a
//! line-numbered diagnostic (CI greps `repro run --trace-file` output for
//! the same line numbers).

#![expect(clippy::disallowed_methods, reason = "test harness")]

use gpumem_tracefmt::{parse_reader, parse_str, TraceError};
use proptest::prelude::*;

/// A small but structurally complete trace: two CTAs of two warps, every
/// record kind, comments and blank lines. All mutation strategies start
/// from here so shrunken counterexamples stay readable.
const BASE: &str = "\
gpumem-trace v1
# fuzz battery base trace
kernel name=fuzz_base grid=2 warps_per_cta=2 max_ctas_per_core=2 shmem_bytes=256 line_bytes=128

warp cta=0 warp=0
ALU lat=4
LD consume=2 mask=00000003 0x0 0x80
SHMEM lat=6
BAR
ST mask=00000001 0x100
end
warp cta=0 warp=1
LD consume=1 mask=0000000f 0x200 0x280 0x300 0x380
ALU lat=2
BAR
end
warp cta=1 warp=0
ALU lat=1
ST mask=00000003 0x400 0x480
end
warp cta=1 warp=1
LD consume=3 mask=00000001 0x40
ALU lat=8
end
";

/// Applies a byte-edit script to `base`. Positions are taken modulo the
/// current length so every generated script is applicable; `kind` selects
/// substitute / insert / delete.
fn apply_edits(ops: &[(u8, usize, u8)], base: &[u8]) -> Vec<u8> {
    let mut v = base.to_vec();
    for &(kind, pos, byte) in ops {
        match kind % 3 {
            0 if !v.is_empty() => {
                let i = pos % v.len();
                v[i] = byte;
            }
            1 => v.insert(pos % (v.len() + 1), byte),
            2 if !v.is_empty() => {
                v.remove(pos % v.len());
            }
            _ => {}
        }
    }
    v
}

/// Splits `BASE` into its header prefix and the four warp blocks, each
/// block a self-contained `warp …`/`end` chunk of lines.
fn split_blocks(text: &str) -> (String, Vec<String>) {
    let mut header = String::new();
    let mut blocks: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.starts_with("warp ") {
            blocks.push(String::new());
        }
        match blocks.last_mut() {
            None => {
                header.push_str(line);
                header.push('\n');
            }
            Some(b) => {
                b.push_str(line);
                b.push('\n');
            }
        }
    }
    (header, blocks)
}

/// An error produced from in-memory text must point at an input line
/// within the input (Io/Unencodable never arise from decoding a string).
fn assert_diagnosable(e: &TraceError, input: &[u8]) {
    let lines = input.iter().filter(|&&b| b == b'\n').count() as u64 + 1;
    match e.line() {
        Some(n) => assert!(
            n >= 1 && n <= lines + 1,
            "error line {n} outside input ({lines} lines): {e}"
        ),
        None => panic!("decode error without a line number: {e}"),
    }
}

#[test]
fn base_trace_is_valid() {
    let k = parse_str(BASE).expect("the fuzz base trace must parse");
    assert_eq!(k.total_instructions(), 12);
}

#[test]
fn truncation_at_every_offset_is_total() {
    let bytes = BASE.as_bytes();
    for cut in 0..=bytes.len() {
        let prefix = &bytes[..cut];
        match parse_reader(prefix) {
            // Only the full trace (modulo its final newline) may parse.
            Ok(_) => assert!(
                cut + 1 >= bytes.len(),
                "truncation at offset {cut} of {} parsed successfully",
                bytes.len()
            ),
            Err(e) => assert_diagnosable(&e, prefix),
        }
    }
}

#[test]
fn committed_fixtures_stay_malformed_with_line_diagnostics() {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures");
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixtures directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "trace"))
        .collect();
    names.sort();
    assert!(
        names.len() >= 9,
        "expected the committed malformed corpus, found {names:?}"
    );
    for path in names {
        let text = std::fs::read_to_string(&path).expect("fixture reads");
        let err = match parse_str(&text) {
            Err(e) => e,
            Ok(_) => panic!("fixture {} unexpectedly parsed", path.display()),
        };
        let msg = err.to_string();
        assert!(
            err.line().is_some() && msg.contains("line "),
            "fixture {} must fail with a line-numbered diagnostic, got: {msg}",
            path.display()
        );
    }
}

proptest! {
    /// Arbitrary bytes — both UTF-8-lossy text and raw reader input —
    /// never panic the decoder.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        if let Err(e) = parse_reader(&bytes[..]) {
            assert_diagnosable(&e, &bytes);
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = parse_str(&text);
    }

    /// Byte-level mutations of a valid trace decode deterministically:
    /// two decodes of the same mutant agree exactly, whether they accept
    /// (same content digest) or reject (same typed error).
    #[test]
    fn mutated_traces_decode_deterministically(
        ops in prop::collection::vec((any::<u8>(), 0usize..8192, any::<u8>()), 1..16),
    ) {
        let mutant = apply_edits(&ops, BASE.as_bytes());
        let a = parse_reader(&mutant[..]);
        let b = parse_reader(&mutant[..]);
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x.digest(), y.digest()),
            (Err(x), Err(y)) => {
                assert_diagnosable(&x, &mutant);
                prop_assert_eq!(x, y);
            }
            _ => prop_assert!(false, "decode outcome flipped between identical inputs"),
        }
    }

    /// Reordering warp blocks violates the cta-major contract and
    /// duplicating one adds content after the final block: both must be
    /// typed structure errors, never panics or silent acceptance.
    #[test]
    fn reordered_or_duplicated_blocks_are_structure_errors(i in 0usize..4, j in 0usize..4) {
        let (header, blocks) = split_blocks(BASE);
        prop_assert_eq!(blocks.len(), 4);
        if i != j {
            let mut shuffled = blocks.clone();
            shuffled.swap(i, j);
            let text = format!("{header}{}", shuffled.concat());
            match parse_str(&text) {
                Err(TraceError::Structure { .. }) => {}
                other => prop_assert!(false, "swap {i}<->{j}: expected Structure, got {other:?}"),
            }
        }
        let mut duplicated = blocks.clone();
        duplicated.push(blocks[i].clone());
        let text = format!("{header}{}", duplicated.concat());
        match parse_str(&text) {
            Err(TraceError::Structure { .. }) => {}
            other => prop_assert!(false, "duplicate {i}: expected Structure, got {other:?}"),
        }
    }
}
