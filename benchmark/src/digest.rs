//! Canonical digests of simulation reports.
//!
//! The repository holds no hardware reference, so the benchmark's
//! correctness check is that simulated results repeat exactly: between
//! passes, between `run()` and `run_stepped()`, and between two builds.
//! Only the `host` block (wall-clock throughput) may differ, so only that
//! block is stripped before hashing.

use gpumem_types::{CellKey, Fnv128};
use serde::{Serialize, Value};

/// Removes the top-level `host` entry of a serialized report, and nothing
/// else: a `host` key nested deeper is simulated data and stays.
pub fn strip_host(report: &mut Value) {
    if let Value::Object(entries) = report {
        entries.retain(|(key, _)| key != "host");
    }
}

/// FNV-128 digest, as 32 hex characters, of `report` without its `host`
/// block.
pub fn canonical_digest<T: Serialize>(report: &T) -> String {
    let mut value = report.to_value();
    strip_host(&mut value);
    let json = serde_json::to_string(&value).expect("a value tree serializes");
    CellKey::from_canonical(&json).to_string()
}

/// One digest over an ordered list of digests.
pub fn combine<S: AsRef<str>>(digests: &[S]) -> String {
    let mut h = Fnv128::new();
    for d in digests {
        h.update(d.as_ref().as_bytes());
        h.update(b"\n");
    }
    h.finish().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(host_wall: f64, cycles: u64) -> Value {
        Value::Object(vec![
            ("cycles".to_owned(), Value::UInt(cycles)),
            (
                "host".to_owned(),
                Value::Object(vec![("wall_seconds".to_owned(), Value::Float(host_wall))]),
            ),
            (
                "l1".to_owned(),
                Value::Object(vec![("host".to_owned(), Value::UInt(3))]),
            ),
        ])
    }

    #[test]
    fn strips_only_the_top_level_host_block() {
        let mut v = report(0.5, 10);
        strip_host(&mut v);
        let entries = v.as_object().expect("object");
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().all(|(k, _)| k != "host"));
        let nested = entries[1].1.as_object().expect("nested object");
        assert_eq!(nested[0].0, "host");
    }

    #[test]
    fn digest_ignores_host_time_but_not_simulated_counts() {
        assert_eq!(
            canonical_digest(&report(0.5, 10)),
            canonical_digest(&report(9.0, 10))
        );
        assert_ne!(
            canonical_digest(&report(0.5, 10)),
            canonical_digest(&report(0.5, 11))
        );
        assert_eq!(canonical_digest(&report(0.5, 10)).len(), 32);
    }

    #[test]
    fn combine_depends_on_order() {
        assert_ne!(combine(&["a", "b"]), combine(&["b", "a"]));
        assert_eq!(combine(&["a", "b"]), combine(&["a", "b"]));
    }
}
