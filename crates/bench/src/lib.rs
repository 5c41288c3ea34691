//! Shared helpers for the `gpumem` benchmark harness.
//!
//! The `repro` binary ([`crate`]'s `src/bin/repro.rs`) regenerates every
//! table and figure of the paper; the `substrate` Criterion bench times the
//! simulator's building blocks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use gpumem_simt::KernelProgram;
use gpumem_workloads::{params_of, SyntheticKernel};

/// An arbitrary slice of canonical benchmark names, each scaled by
/// `factor` — the building block behind `repro --suite seed|ml|extended`.
///
/// # Panics
///
/// Panics if any name fails to resolve through
/// [`gpumem_workloads::params_of`]; callers pass canonical name lists.
pub fn scaled_named_suite(names: &[&str], factor: f64) -> Vec<Arc<dyn KernelProgram>> {
    names
        .iter()
        .map(|n| {
            let p = params_of(n).expect("canonical name").scaled(factor);
            Arc::new(SyntheticKernel::new(p)) as Arc<dyn KernelProgram>
        })
        .collect()
}

/// One scaled benchmark by name.
pub fn scaled_benchmark(name: &str, factor: f64) -> Option<Arc<dyn KernelProgram>> {
    params_of(name)
        .map(|p| Arc::new(SyntheticKernel::new(p.scaled(factor))) as Arc<dyn KernelProgram>)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_suite_covers_the_extended_family() {
        let names = gpumem_workloads::extended_names();
        assert_eq!(scaled_named_suite(&names, 0.2).len(), 11);
    }

    #[test]
    fn scaled_benchmark_resolves() {
        assert!(scaled_benchmark("lbm", 0.5).is_some());
        assert!(scaled_benchmark("nope", 0.5).is_none());
    }
}
