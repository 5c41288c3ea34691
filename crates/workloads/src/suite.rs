//! The paper's benchmark suite: eight synthetic models.
//!
//! Each model is parameterised from the benchmark's published behaviour
//! (Rodinia/Parboil characterizations and the paper's own observations).
//! The parameters that matter for the paper's experiments are arithmetic
//! intensity, coalescing, working-set size, reuse, store ratio, barrier
//! structure and the load→use distance (latency tolerance).

use std::sync::Arc;

use gpumem_simt::KernelProgram;

use crate::{AccessPattern, SyntheticKernel, WorkloadParams};

/// The benchmark names, in the paper's Fig. 1 legend order.
pub const BENCHMARK_NAMES: [&str; 8] = ["cfd", "dwt2d", "leukocyte", "nn", "nw", "sc", "lbm", "ss"];

/// Rodinia `cfd` (Euler3D): unstructured-grid CFD solver. Neighbour
/// gathers give poorly-coalesced, memory-intensive behaviour with moderate
/// inter-cell reuse.
fn cfd() -> WorkloadParams {
    WorkloadParams {
        name: "cfd".into(),
        ctas: 60,
        warps_per_cta: 8,
        max_ctas_per_core: 2,
        iters: 24,
        alu_per_iter: 10,
        alu_latency: 4,
        shared_per_iter: 0,
        shared_latency: 24,
        loads_per_iter: 3,
        stores_per_iter: 2,
        lines_per_load_min: 2,
        lines_per_load_max: 4,
        consume_distance: 1,
        pattern: AccessPattern::Gather,
        working_set_lines: 96_000,
        l1_reuse_fraction: 0.25,
        reuse_fraction: 0.30,
        hot_lines: 3_000,
        barrier_every: None,
        seed: 0xCFD0,
    }
}

/// Rodinia `dwt2d`: 2-D discrete wavelet transform. Row/column passes give
/// strided, moderately-coalesced accesses with medium compute.
fn dwt2d() -> WorkloadParams {
    WorkloadParams {
        name: "dwt2d".into(),
        ctas: 48,
        warps_per_cta: 8,
        max_ctas_per_core: 2,
        iters: 20,
        alu_per_iter: 11,
        alu_latency: 4,
        shared_per_iter: 0,
        shared_latency: 24,
        loads_per_iter: 2,
        stores_per_iter: 2,
        lines_per_load_min: 1,
        lines_per_load_max: 2,
        consume_distance: 2,
        pattern: AccessPattern::Strided { stride: 64 },
        working_set_lines: 48_000,
        l1_reuse_fraction: 0.40,
        reuse_fraction: 0.20,
        hot_lines: 2_048,
        barrier_every: None,
        seed: 0xD2D0,
    }
}

/// Rodinia `leukocyte`: cell tracking. Dominated by per-pixel arithmetic
/// and shared-memory tiles; high reuse and long independent ALU chains make
/// it the suite's most latency-tolerant member.
fn leukocyte() -> WorkloadParams {
    WorkloadParams {
        name: "leukocyte".into(),
        ctas: 45,
        warps_per_cta: 8,
        max_ctas_per_core: 3,
        iters: 18,
        alu_per_iter: 24,
        alu_latency: 5,
        shared_per_iter: 4,
        shared_latency: 24,
        loads_per_iter: 1,
        stores_per_iter: 0,
        lines_per_load_min: 1,
        lines_per_load_max: 1,
        consume_distance: 4,
        pattern: AccessPattern::Streaming,
        working_set_lines: 12_000,
        l1_reuse_fraction: 0.60,
        reuse_fraction: 0.55,
        hot_lines: 1_500,
        barrier_every: Some(6),
        seed: 0x1E00,
    }
}

/// Rodinia `nn` (nearest neighbor): a single streaming pass with almost no
/// compute per load — purely memory-bandwidth-bound.
fn nn() -> WorkloadParams {
    WorkloadParams {
        name: "nn".into(),
        ctas: 90,
        warps_per_cta: 8,
        max_ctas_per_core: 2,
        iters: 16,
        alu_per_iter: 6,
        alu_latency: 4,
        shared_per_iter: 0,
        shared_latency: 24,
        loads_per_iter: 3,
        stores_per_iter: 0,
        lines_per_load_min: 1,
        lines_per_load_max: 1,
        consume_distance: 1,
        pattern: AccessPattern::Streaming,
        working_set_lines: 300_000,
        l1_reuse_fraction: 0.10,
        reuse_fraction: 0.0,
        hot_lines: 1,
        barrier_every: None,
        seed: 0x0990,
    }
}

/// Rodinia `nw` (Needleman-Wunsch): wavefront dynamic programming.
/// Per-iteration barriers and one CTA per core leave little parallelism to
/// hide latency — the classic latency-bound benchmark.
fn nw() -> WorkloadParams {
    WorkloadParams {
        name: "nw".into(),
        ctas: 15,
        warps_per_cta: 4,
        max_ctas_per_core: 1,
        iters: 32,
        alu_per_iter: 4,
        alu_latency: 4,
        shared_per_iter: 0,
        shared_latency: 24,
        loads_per_iter: 2,
        stores_per_iter: 1,
        lines_per_load_min: 1,
        lines_per_load_max: 2,
        consume_distance: 1,
        pattern: AccessPattern::Strided { stride: 32 },
        working_set_lines: 24_000,
        l1_reuse_fraction: 0.40,
        reuse_fraction: 0.15,
        hot_lines: 1_024,
        barrier_every: Some(1),
        seed: 0x0123,
    }
}

/// Rodinia `sc` (streamcluster): distance computations over gathered
/// points with strong inter-warp reuse of the cluster centres (caught by
/// the L2).
fn sc() -> WorkloadParams {
    WorkloadParams {
        name: "sc".into(),
        ctas: 60,
        warps_per_cta: 8,
        max_ctas_per_core: 2,
        iters: 20,
        alu_per_iter: 11,
        alu_latency: 4,
        shared_per_iter: 0,
        shared_latency: 24,
        loads_per_iter: 3,
        stores_per_iter: 0,
        lines_per_load_min: 1,
        lines_per_load_max: 4,
        consume_distance: 1,
        pattern: AccessPattern::Gather,
        working_set_lines: 64_000,
        l1_reuse_fraction: 0.35,
        reuse_fraction: 0.50,
        hot_lines: 4_096,
        barrier_every: None,
        seed: 0x5C00,
    }
}

/// Parboil `lbm` (Lattice-Boltzmann): structured-grid stencil streaming
/// with a very high store ratio — the suite's DRAM-bandwidth stress case.
fn lbm() -> WorkloadParams {
    WorkloadParams {
        name: "lbm".into(),
        ctas: 60,
        warps_per_cta: 8,
        max_ctas_per_core: 2,
        iters: 16,
        alu_per_iter: 13,
        alu_latency: 4,
        shared_per_iter: 0,
        shared_latency: 24,
        loads_per_iter: 3,
        stores_per_iter: 4,
        lines_per_load_min: 1,
        lines_per_load_max: 1,
        consume_distance: 2,
        pattern: AccessPattern::Stencil { plane: 20_000 },
        working_set_lines: 160_000,
        l1_reuse_fraction: 0.15,
        reuse_fraction: 0.05,
        hot_lines: 2_048,
        barrier_every: None,
        seed: 0x1B30,
    }
}

/// `ss` (similarity score): mixed streaming/gather scoring kernel with
/// moderate reuse — memory-intensive but less divergent than cfd.
fn ss() -> WorkloadParams {
    WorkloadParams {
        name: "ss".into(),
        ctas: 60,
        warps_per_cta: 8,
        max_ctas_per_core: 2,
        iters: 20,
        alu_per_iter: 9,
        alu_latency: 4,
        shared_per_iter: 0,
        shared_latency: 24,
        loads_per_iter: 3,
        stores_per_iter: 2,
        lines_per_load_min: 1,
        lines_per_load_max: 3,
        consume_distance: 1,
        pattern: AccessPattern::Gather,
        working_set_lines: 120_000,
        l1_reuse_fraction: 0.30,
        reuse_fraction: 0.25,
        hot_lines: 3_000,
        barrier_every: None,
        seed: 0x5500,
    }
}

/// Parameters for one benchmark by name — the paper's eight plus the ML
/// kernel family ([`crate::ML_BENCHMARK_NAMES`]).
pub fn params_of(name: &str) -> Option<WorkloadParams> {
    match name {
        "cfd" => Some(cfd()),
        "dwt2d" => Some(dwt2d()),
        "leukocyte" => Some(leukocyte()),
        "nn" => Some(nn()),
        "nw" => Some(nw()),
        "sc" => Some(sc()),
        "lbm" => Some(lbm()),
        "ss" => Some(ss()),
        "gemm" => Some(crate::ml::gemm()),
        "conv" => Some(crate::ml::conv()),
        "attn" => Some(crate::ml::attn()),
        _ => None,
    }
}

/// The full suite, in [`BENCHMARK_NAMES`] order.
pub fn benchmarks() -> Vec<Arc<dyn KernelProgram>> {
    BENCHMARK_NAMES
        .iter()
        .map(|n| by_name(n).expect("name from the canonical list"))
        .collect()
}

/// Every benchmark name: the paper's eight followed by the ML family.
pub fn extended_names() -> Vec<&'static str> {
    BENCHMARK_NAMES
        .iter()
        .chain(crate::ML_BENCHMARK_NAMES.iter())
        .copied()
        .collect()
}

/// One benchmark by name, or `None` for unknown names.
pub fn by_name(name: &str) -> Option<Arc<dyn KernelProgram>> {
    params_of(name).map(|p| Arc::new(SyntheticKernel::new(p)) as Arc<dyn KernelProgram>)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_types::CtaId;

    #[test]
    fn all_eight_present_and_valid() {
        let all = benchmarks();
        assert_eq!(all.len(), 8);
        for (k, name) in all.iter().zip(BENCHMARK_NAMES) {
            assert_eq!(k.name(), name);
            assert!(k.grid_ctas() > 0);
            assert!(k.instr(CtaId::new(0), 0, 0).is_some());
        }
        // Scale 1.0 is the identity, so callers need no unscaled path.
        assert!(extended_names()
            .into_iter()
            .all(|n| params_of(n).is_some_and(|p| p.scaled(1.0) == p)));
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(by_name("nope").is_none());
        assert!(params_of("nope").is_none());
    }

    #[test]
    fn suite_sizes_are_tractable() {
        for name in BENCHMARK_NAMES {
            let p = params_of(name).unwrap();
            let total = p.approx_total_instructions();
            assert!(
                (10_000..2_000_000).contains(&total),
                "{name}: {total} instructions out of range"
            );
        }
    }

    #[test]
    fn profiles_are_differentiated() {
        let leuk = params_of("leukocyte").unwrap();
        let nn = params_of("nn").unwrap();
        // Arithmetic intensity (non-mem instrs per mem instr).
        let intensity = |p: &crate::WorkloadParams| {
            f64::from(p.alu_per_iter + p.shared_per_iter)
                / f64::from(p.loads_per_iter + p.stores_per_iter)
        };
        assert!(intensity(&leuk) > 5.0 * intensity(&nn));
        // lbm is store-heavy.
        let lbm = params_of("lbm").unwrap();
        assert!(lbm.stores_per_iter > lbm.loads_per_iter);
        // nw is barrier-synchronized with minimal occupancy.
        let nw = params_of("nw").unwrap();
        assert_eq!(nw.barrier_every, Some(1));
        assert_eq!(nw.max_ctas_per_core, 1);
        // cfd is the least coalesced.
        let cfd = params_of("cfd").unwrap();
        assert!(cfd.lines_per_load_min >= 2);
    }
}
