//! Content-addressed sweep-cell keys and typed sweep-orchestration errors.
//!
//! A design-space sweep runs hundreds of `(DesignPoint × workload × seed ×
//! memory mode)` cells, each of which is a pure function of its inputs. The
//! orchestrator (`gpumem-sweep`) content-addresses every cell with a
//! [`CellKey`] — a 128-bit FNV-1a digest of the cell's canonical
//! description — so a completed cell can be recognized and served from the
//! on-disk results store instead of being recomputed. Failures of the
//! *store* (as opposed to failures of a simulation, which stay
//! [`SimError`](crate::SimError)s) are reported as [`SweepError`]s: torn
//! journal writes, corrupt cell files, version-salt mismatches and invalid
//! sweep specs each carry enough context to be diagnosed from the value
//! alone.

use std::fmt;

use serde::{Deserialize, Serialize};

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Independent second offset basis for the high half of a 128-bit digest
/// (the canonical basis folded through one round of the prime).
const FNV_OFFSET_HI: u64 = FNV_OFFSET ^ 0x5bd1_e995_7b93_c2a1;

/// FNV-1a over `bytes` from an explicit offset basis.
fn fnv1a(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Streaming 128-bit FNV-1a hasher: the incremental form of
/// [`CellKey::from_canonical`], for content that arrives in chunks (trace
/// files decoded from a reader, journal replays) where buffering the whole
/// input just to digest it would defeat a bounded-memory decode.
///
/// Feeding the same bytes in any chunking produces the same key:
///
/// ```
/// use gpumem_types::{CellKey, Fnv128};
///
/// let mut h = Fnv128::new();
/// h.update(b"gpumem-");
/// h.update(b"trace");
/// assert_eq!(h.finish(), CellKey::from_canonical("gpumem-trace"));
/// ```
#[derive(Debug, Clone)]
pub struct Fnv128 {
    hi: u64,
    lo: u64,
}

impl Fnv128 {
    /// Starts a digest at the two independent offset bases.
    pub fn new() -> Fnv128 {
        Fnv128 {
            hi: FNV_OFFSET_HI,
            lo: FNV_OFFSET,
        }
    }

    /// Absorbs a chunk.
    pub fn update(&mut self, bytes: &[u8]) {
        self.hi = fnv1a(self.hi, bytes);
        self.lo = fnv1a(self.lo, bytes);
    }

    /// The digest of everything absorbed so far (the hasher remains
    /// usable; finishing is a read, not a consume).
    pub fn finish(&self) -> CellKey {
        CellKey {
            hi: self.hi,
            lo: self.lo,
        }
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128::new()
    }
}

/// Stable 64-bit FNV-1a content digest (canonical offset basis).
///
/// This is the workspace's standard checksum construction: the golden-trace
/// harness, the sweep journal and the results store all use it, so digests
/// printed by different tools are comparable.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// The content address of one sweep cell: a 128-bit FNV-1a digest of the
/// cell's canonical description (configuration, workload parameters, seed,
/// memory mode, cycle budget and code-version salt).
///
/// Two cells with the same key are guaranteed to describe the same
/// simulation, so a stored result can be served instead of recomputing.
/// The 128-bit width (two independently-seeded 64-bit FNV-1a streams)
/// makes accidental collisions across even very large campaigns
/// negligible.
///
/// # Example
///
/// ```
/// use gpumem_types::CellKey;
///
/// let a = CellKey::from_canonical("cfg|sc|seed=0|event|v1");
/// let b = CellKey::from_canonical("cfg|sc|seed=0|event|v1");
/// let c = CellKey::from_canonical("cfg|sc|seed=1|event|v1");
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// assert_eq!(CellKey::from_hex(&a.to_string()), Some(a));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellKey {
    /// High 64 bits of the digest.
    pub hi: u64,
    /// Low 64 bits of the digest.
    pub lo: u64,
}

impl CellKey {
    /// Digests a canonical cell description.
    pub fn from_canonical(canonical: &str) -> CellKey {
        let mut h = Fnv128::new();
        h.update(canonical.as_bytes());
        h.finish()
    }

    /// Parses the 32-hex-digit form produced by [`fmt::Display`].
    pub fn from_hex(s: &str) -> Option<CellKey> {
        if s.len() != 32 || !s.is_ascii() {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(CellKey { hi, lo })
    }
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// A failure of the sweep orchestrator or its results store.
///
/// Simulation failures stay typed [`SimError`](crate::SimError)s attached
/// to their cell; `SweepError` covers the machinery around them — disk
/// I/O, journal integrity, spec validation and injected crashes.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// A filesystem operation failed.
    Io {
        /// Path (or store-relative path) of the failed operation.
        path: String,
        /// The underlying error, rendered.
        detail: String,
    },
    /// A journal line failed its checksum or framing mid-file (a torn
    /// tail is tolerated silently; this is corruption *before* the tail).
    CorruptJournal {
        /// Store-relative journal path.
        path: String,
        /// 1-based line number of the first bad record.
        line: u64,
        /// What was wrong with it.
        detail: String,
    },
    /// A committed cell file failed verification (checksum, key or salt).
    /// The store quarantines the file and recomputes the cell; this error
    /// only surfaces if quarantine itself fails.
    CorruptCell {
        /// The cell whose file was bad.
        cell: CellKey,
        /// What failed to verify.
        detail: String,
    },
    /// A sweep spec failed validation (unknown benchmark, bad design-point
    /// label, malformed memory mode, empty axis…).
    SpecInvalid {
        /// What was wrong.
        detail: String,
    },
    /// The crash-injection harness reached its configured journal offset:
    /// the orchestrator aborted exactly as if the process had been killed
    /// there (a partial journal record may be on disk).
    InjectedCrash {
        /// Total journal bytes written when the crash fired.
        journal_bytes: u64,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Io { path, detail } => write!(f, "sweep store I/O on {path}: {detail}"),
            SweepError::CorruptJournal { path, line, detail } => {
                write!(f, "corrupt journal record {path}:{line}: {detail}")
            }
            SweepError::CorruptCell { cell, detail } => {
                write!(f, "corrupt cell {cell}: {detail}")
            }
            SweepError::SpecInvalid { detail } => write!(f, "invalid sweep spec: {detail}"),
            SweepError::InjectedCrash { journal_bytes } => {
                write!(f, "injected crash after {journal_bytes} journal bytes")
            }
        }
    }
}

impl std::error::Error for SweepError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_stable_and_distinct() {
        let a = CellKey::from_canonical("x");
        assert_eq!(a, CellKey::from_canonical("x"));
        assert_ne!(a, CellKey::from_canonical("y"));
        // The two halves are independent streams: a single-byte input must
        // not produce mirrored halves.
        assert_ne!(a.hi, a.lo);
    }

    #[test]
    fn hex_round_trips() {
        let k = CellKey::from_canonical("round-trip");
        let s = k.to_string();
        assert_eq!(s.len(), 32);
        assert_eq!(CellKey::from_hex(&s), Some(k));
        assert_eq!(CellKey::from_hex("zz"), None);
        assert_eq!(CellKey::from_hex(&s[..31]), None);
    }

    #[test]
    fn streaming_hasher_is_chunking_independent() {
        let text = b"kernel name=gemm grid=12";
        let mut whole = Fnv128::new();
        whole.update(text);
        for split in 0..text.len() {
            let mut parts = Fnv128::new();
            parts.update(&text[..split]);
            parts.update(&text[split..]);
            assert_eq!(parts.finish(), whole.finish(), "split at {split}");
        }
        assert_eq!(Fnv128::new().finish(), CellKey::from_canonical(""));
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // Standard FNV-1a 64 test vector: "a" -> 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b""), FNV_OFFSET);
    }

    #[test]
    fn errors_render_their_context() {
        let e = SweepError::CorruptJournal {
            path: "journal.log".into(),
            line: 7,
            detail: "checksum mismatch".into(),
        };
        let s = e.to_string();
        assert!(s.contains("journal.log:7"));
        assert!(s.contains("checksum mismatch"));
    }
}
