//! The paper's Table I design space and its application to a baseline
//! configuration.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::GpuConfig;

/// Whether a Table I parameter *increases* peak throughput (`Plus`, shown as
/// '+' in the paper) or *enables* the level to achieve its existing peak
/// throughput (`Equal`, shown as '=').
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamType {
    /// '+': raises the peak throughput of the level.
    Plus,
    /// '=': removes an obstacle to reaching the existing peak throughput.
    Equal,
}

impl fmt::Display for ParamType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamType::Plus => write!(f, "+"),
            ParamType::Equal => write!(f, "="),
        }
    }
}

/// One row of the paper's Table I ("Consolidated design space to mitigate
/// congestion").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableRow {
    /// Which subsection the row belongs to: "DRAM", "L2 Cache" or
    /// "L1 Cache".
    pub section: &'static str,
    /// Parameter name as printed in the paper.
    pub name: &'static str,
    /// '+' or '=' categorisation.
    pub param_type: ParamType,
    /// Baseline value as printed in the paper.
    pub baseline: &'static str,
    /// Scaled (~4×) value as printed in the paper.
    pub scaled: &'static str,
}

/// The paper's Table I, verbatim. A unit test pins every row against the
/// values applied by [`DesignPoint::apply`].
pub const TABLE_I: &[TableRow] = &[
    // (a) DRAM
    TableRow {
        section: "DRAM",
        name: "Scheduler queue",
        param_type: ParamType::Equal,
        baseline: "16 entries",
        scaled: "64 entries",
    },
    TableRow {
        section: "DRAM",
        name: "DRAM Banks",
        param_type: ParamType::Equal,
        baseline: "16 banks/chip",
        scaled: "64 banks/chip",
    },
    TableRow {
        section: "DRAM",
        name: "Bus width",
        param_type: ParamType::Plus,
        baseline: "32-bits/chip",
        scaled: "64-bits/chip",
    },
    // (b) L2 Cache
    TableRow {
        section: "L2 Cache",
        name: "L2 miss queue",
        param_type: ParamType::Equal,
        baseline: "8 entries",
        scaled: "32 entries",
    },
    TableRow {
        section: "L2 Cache",
        name: "L2 response queue",
        param_type: ParamType::Equal,
        baseline: "8 entries",
        scaled: "32 entries",
    },
    TableRow {
        section: "L2 Cache",
        name: "MSHR",
        param_type: ParamType::Equal,
        baseline: "32 entries",
        scaled: "128 entries",
    },
    TableRow {
        section: "L2 Cache",
        name: "L2 access queue",
        param_type: ParamType::Equal,
        baseline: "8 entries",
        scaled: "32 entries",
    },
    TableRow {
        section: "L2 Cache",
        name: "L2 data port",
        param_type: ParamType::Plus,
        baseline: "32 bytes",
        scaled: "128 bytes",
    },
    TableRow {
        section: "L2 Cache",
        name: "Flit size (crossbar)",
        param_type: ParamType::Plus,
        baseline: "4 bytes",
        scaled: "16 bytes",
    },
    TableRow {
        section: "L2 Cache",
        name: "L2 banks",
        param_type: ParamType::Plus,
        baseline: "2 banks/partition",
        scaled: "8 banks/partition",
    },
    // (c) L1 Cache
    TableRow {
        section: "L1 Cache",
        name: "L1 miss queue",
        param_type: ParamType::Equal,
        baseline: "8 entries",
        scaled: "32 entries",
    },
    TableRow {
        section: "L1 Cache",
        name: "MSHR (L1D)",
        param_type: ParamType::Equal,
        baseline: "32 entries",
        scaled: "128 entries",
    },
    TableRow {
        section: "L1 Cache",
        name: "Memory pipeline width",
        param_type: ParamType::Equal,
        baseline: "10",
        scaled: "40",
    },
];

/// A point in the Section IV design space: which levels of the memory
/// hierarchy have their Table I parameters scaled to ~4×.
///
/// # Example
///
/// ```
/// use gpumem_config::{DesignPoint, GpuConfig};
///
/// let cfg = DesignPoint::L1_L2.apply(&GpuConfig::gtx480());
/// assert_eq!(cfg.l1.mshr_entries, 128);
/// assert_eq!(cfg.l2.mshr_entries, 128);
/// assert_eq!(cfg.dram.banks, 16); // DRAM untouched
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Scale the Table I (c) L1 parameters.
    pub l1: bool,
    /// Scale the Table I (b) L2 parameters (including the crossbar flit
    /// size, which the paper files under the L2 section).
    pub l2: bool,
    /// Scale the Table I (a) DRAM parameters.
    pub dram: bool,
}

impl DesignPoint {
    /// The unmodified baseline.
    pub const BASELINE: DesignPoint = DesignPoint {
        l1: false,
        l2: false,
        dram: false,
    };
    /// Scale L1 alone (paper: +4% average, can degrade in isolation).
    pub const L1_ONLY: DesignPoint = DesignPoint {
        l1: true,
        l2: false,
        dram: false,
    };
    /// Scale L2 alone (paper: +59% average).
    pub const L2_ONLY: DesignPoint = DesignPoint {
        l1: false,
        l2: true,
        dram: false,
    };
    /// Scale DRAM alone (paper: +11% average).
    pub const DRAM_ONLY: DesignPoint = DesignPoint {
        l1: false,
        l2: false,
        dram: true,
    };
    /// Scale L1 and L2 together (paper: +69% average, > 4% + 59%).
    pub const L1_L2: DesignPoint = DesignPoint {
        l1: true,
        l2: true,
        dram: false,
    };
    /// Scale L2 and DRAM together (paper: +76% average, > 59% + 11%).
    pub const L2_DRAM: DesignPoint = DesignPoint {
        l1: false,
        l2: true,
        dram: true,
    };
    /// Scale every level.
    pub const ALL: DesignPoint = DesignPoint {
        l1: true,
        l2: true,
        dram: true,
    };

    /// The design points evaluated in Section IV, in presentation order.
    pub const SECTION_IV: [DesignPoint; 5] = [
        Self::L1_ONLY,
        Self::L2_ONLY,
        Self::DRAM_ONLY,
        Self::L1_L2,
        Self::L2_DRAM,
    ];

    /// Produces the scaled configuration: each selected level's Table I
    /// parameters are raised to their "Scaled value (~4×)" column; all other
    /// parameters keep their baseline values.
    pub fn apply(&self, baseline: &GpuConfig) -> GpuConfig {
        let mut cfg = baseline.clone();
        if self.dram {
            cfg.dram.scheduler_queue = baseline.dram.scheduler_queue * 4; // 16 → 64
            cfg.dram.banks = baseline.dram.banks * 4; // 16 → 64
                                                      // Bus width is the paper's saturation exception: 2× only.
            cfg.dram.bus_bytes = baseline.dram.bus_bytes * 2; // 32 → 64 bits
        }
        if self.l2 {
            cfg.l2.miss_queue = baseline.l2.miss_queue * 4; // 8 → 32
            cfg.l2.response_queue = baseline.l2.response_queue * 4; // 8 → 32
            cfg.l2.mshr_entries = baseline.l2.mshr_entries * 4; // 32 → 128
            cfg.l2.access_queue = baseline.l2.access_queue * 4; // 8 → 32
            cfg.l2.data_port_bytes = baseline.l2.data_port_bytes * 4; // 32 → 128
            cfg.noc.flit_bytes = baseline.noc.flit_bytes * 4; // 4 → 16
            cfg.l2.banks_per_partition = baseline.l2.banks_per_partition * 4; // 2 → 8
        }
        if self.l1 {
            cfg.l1.miss_queue = baseline.l1.miss_queue * 4; // 8 → 32
            cfg.l1.mshr_entries = baseline.l1.mshr_entries * 4; // 32 → 128
            cfg.core.mem_pipeline_width = baseline.core.mem_pipeline_width * 4; // 10 → 40
        }
        cfg
    }

    /// Short label used in experiment output ("baseline", "L1", "L1+L2"…).
    pub fn label(&self) -> &'static str {
        match (self.l1, self.l2, self.dram) {
            (false, false, false) => "baseline",
            (true, false, false) => "L1",
            (false, true, false) => "L2",
            (false, false, true) => "DRAM",
            (true, true, false) => "L1+L2",
            (false, true, true) => "L2+DRAM",
            (true, false, true) => "L1+DRAM",
            (true, true, true) => "L1+L2+DRAM",
        }
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One single-parameter ablation: a Table I row scaled to its ~4× value
/// with everything else at baseline.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// The Table I row name.
    pub name: &'static str,
    /// The row's section ("DRAM", "L2 Cache", "L1 Cache").
    pub section: &'static str,
    /// The resulting configuration.
    pub config: GpuConfig,
    /// Rough incremental hardware cost in bits of storage (queues, MSHRs)
    /// or wires (ports, buses, flits), for the cost-effectiveness ranking
    /// the paper lists as future work. Zero-cost rows don't exist; wire
    /// costs are approximated as bit-lanes added across the chip.
    pub cost_bits: u64,
}

/// Scales each Table I parameter *individually* (everything else at
/// baseline) — the per-row decomposition behind the paper's per-level
/// aggregates, and the substrate of its future-work cost study.
///
/// Entry order matches [`TABLE_I`].
pub fn single_parameter_ablations(base: &GpuConfig) -> Vec<Ablation> {
    // One queue entry holds a request descriptor (~64 bits of address +
    // metadata) or a full line for data-carrying structures.
    const REQ_BITS: u64 = 64;
    let line_bits = base.line_bytes * 8;
    let parts = base.num_partitions as u64;
    let cores = base.num_cores as u64;
    let mut out = Vec::new();
    let mut push =
        |name: &'static str, section: &'static str, cost_bits: u64, f: &dyn Fn(&mut GpuConfig)| {
            let mut config = base.clone();
            f(&mut config);
            debug_assert!(config.validate().is_ok(), "{name} ablation invalid");
            out.push(Ablation {
                name,
                section,
                config,
                cost_bits,
            });
        };

    // (a) DRAM
    push("Scheduler queue", "DRAM", 48 * REQ_BITS * parts, &|c| {
        c.dram.scheduler_queue *= 4;
    });
    push("DRAM Banks", "DRAM", 48 * line_bits * parts / 8, &|c| {
        // Row buffers for the additional banks (cost borne off-chip; we
        // count the controller-side state conservatively).
        c.dram.banks *= 4;
    });
    push("Bus width", "DRAM", 32 * parts, &|c| {
        c.dram.bus_bytes *= 2;
    });
    // (b) L2 Cache
    push("L2 miss queue", "L2 Cache", 24 * REQ_BITS * parts, &|c| {
        c.l2.miss_queue *= 4;
    });
    push(
        "L2 response queue",
        "L2 Cache",
        24 * line_bits * parts,
        &|c| {
            c.l2.response_queue *= 4;
        },
    );
    push("MSHR", "L2 Cache", 96 * REQ_BITS * parts, &|c| {
        c.l2.mshr_entries *= 4;
    });
    push("L2 access queue", "L2 Cache", 24 * REQ_BITS * parts, &|c| {
        c.l2.access_queue *= 4;
    });
    push("L2 data port", "L2 Cache", 96 * 8 * parts, &|c| {
        c.l2.data_port_bytes *= 4;
    });
    push(
        "Flit size (crossbar)",
        "L2 Cache",
        12 * 8 * (cores + parts),
        &|c| {
            c.noc.flit_bytes *= 4;
        },
    );
    push("L2 banks", "L2 Cache", 6 * line_bits * parts, &|c| {
        c.l2.banks_per_partition *= 4;
    });
    // (c) L1 Cache
    push("L1 miss queue", "L1 Cache", 24 * REQ_BITS * cores, &|c| {
        c.l1.miss_queue *= 4;
    });
    push("MSHR (L1D)", "L1 Cache", 96 * REQ_BITS * cores, &|c| {
        c.l1.mshr_entries *= 4;
    });
    push(
        "Memory pipeline width",
        "L1 Cache",
        30 * REQ_BITS * cores,
        &|c| {
            c.core.mem_pipeline_width *= 4;
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_has_thirteen_rows() {
        assert_eq!(TABLE_I.len(), 13);
        assert_eq!(TABLE_I.iter().filter(|r| r.section == "DRAM").count(), 3);
        assert_eq!(
            TABLE_I.iter().filter(|r| r.section == "L2 Cache").count(),
            7
        );
        assert_eq!(
            TABLE_I.iter().filter(|r| r.section == "L1 Cache").count(),
            3
        );
    }

    #[test]
    fn apply_matches_table_i_scaled_column() {
        let base = GpuConfig::gtx480();
        let all = DesignPoint::ALL.apply(&base);
        all.validate().unwrap();
        // DRAM
        assert_eq!(all.dram.scheduler_queue, 64);
        assert_eq!(all.dram.banks, 64);
        assert_eq!(all.dram.bus_bytes * 8, 64);
        // L2
        assert_eq!(all.l2.miss_queue, 32);
        assert_eq!(all.l2.response_queue, 32);
        assert_eq!(all.l2.mshr_entries, 128);
        assert_eq!(all.l2.access_queue, 32);
        assert_eq!(all.l2.data_port_bytes, 128);
        assert_eq!(all.noc.flit_bytes, 16);
        assert_eq!(all.l2.banks_per_partition, 8);
        // L1
        assert_eq!(all.l1.miss_queue, 32);
        assert_eq!(all.l1.mshr_entries, 128);
        assert_eq!(all.core.mem_pipeline_width, 40);
    }

    #[test]
    fn baseline_point_is_identity() {
        let base = GpuConfig::gtx480();
        assert_eq!(DesignPoint::BASELINE.apply(&base), base);
    }

    #[test]
    fn isolated_points_touch_only_their_level() {
        let base = GpuConfig::gtx480();
        let l1 = DesignPoint::L1_ONLY.apply(&base);
        assert_eq!(l1.l2, base.l2);
        assert_eq!(l1.dram, base.dram);
        assert_eq!(l1.noc, base.noc);
        assert_ne!(l1.l1, base.l1);

        let dram = DesignPoint::DRAM_ONLY.apply(&base);
        assert_eq!(dram.l1, base.l1);
        assert_eq!(dram.l2, base.l2);
        assert_ne!(dram.dram, base.dram);
    }

    #[test]
    fn combined_points_compose() {
        let base = GpuConfig::gtx480();
        let l1l2 = DesignPoint::L1_L2.apply(&base);
        let l1 = DesignPoint::L1_ONLY.apply(&base);
        let l2 = DesignPoint::L2_ONLY.apply(&base);
        assert_eq!(l1l2.l1, l1.l1);
        assert_eq!(l1l2.l2, l2.l2);
        assert_eq!(l1l2.noc, l2.noc);
        assert_eq!(l1l2.dram, base.dram);
    }

    #[test]
    fn all_scaled_configs_validate() {
        let base = GpuConfig::gtx480();
        for dp in DesignPoint::SECTION_IV {
            dp.apply(&base).validate().unwrap();
        }
        DesignPoint::ALL.apply(&base).validate().unwrap();
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<_> = [
            DesignPoint::BASELINE,
            DesignPoint::L1_ONLY,
            DesignPoint::L2_ONLY,
            DesignPoint::DRAM_ONLY,
            DesignPoint::L1_L2,
            DesignPoint::L2_DRAM,
            DesignPoint::ALL,
        ]
        .iter()
        .map(|d| d.label())
        .collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 7);
        assert_eq!(DesignPoint::L2_DRAM.to_string(), "L2+DRAM");
    }

    #[test]
    fn param_type_display() {
        assert_eq!(ParamType::Plus.to_string(), "+");
        assert_eq!(ParamType::Equal.to_string(), "=");
    }

    #[test]
    fn ablations_cover_every_table_row_in_order() {
        let base = GpuConfig::gtx480();
        let abl = single_parameter_ablations(&base);
        assert_eq!(abl.len(), TABLE_I.len());
        for (a, row) in abl.iter().zip(TABLE_I) {
            assert_eq!(a.name, row.name);
            assert_eq!(a.section, row.section);
            assert!(a.cost_bits > 0, "{} has zero cost", a.name);
            a.config.validate().unwrap();
            assert_ne!(a.config, base, "{} ablation changed nothing", a.name);
        }
    }

    #[test]
    fn ablations_change_exactly_their_parameter() {
        let base = GpuConfig::gtx480();
        let abl = single_parameter_ablations(&base);
        // Spot checks: the bus-width ablation only touches dram.bus_bytes.
        let bus = abl.iter().find(|a| a.name == "Bus width").unwrap();
        assert_eq!(bus.config.dram.bus_bytes, base.dram.bus_bytes * 2);
        let mut reverted = bus.config.clone();
        reverted.dram.bus_bytes = base.dram.bus_bytes;
        assert_eq!(reverted, base);

        let flit = abl
            .iter()
            .find(|a| a.name == "Flit size (crossbar)")
            .unwrap();
        assert_eq!(flit.config.noc.flit_bytes, base.noc.flit_bytes * 4);
        let mut reverted = flit.config.clone();
        reverted.noc.flit_bytes = base.noc.flit_bytes;
        assert_eq!(reverted, base);
    }

    #[test]
    fn union_of_level_ablations_equals_level_design_point() {
        let base = GpuConfig::gtx480();
        let mut merged = base.clone();
        for a in single_parameter_ablations(&base) {
            if a.section == "L1 Cache" {
                // Apply each L1 row's delta onto `merged`.
                merged.l1.miss_queue = merged.l1.miss_queue.max(a.config.l1.miss_queue);
                merged.l1.mshr_entries = merged.l1.mshr_entries.max(a.config.l1.mshr_entries);
                merged.core.mem_pipeline_width = merged
                    .core
                    .mem_pipeline_width
                    .max(a.config.core.mem_pipeline_width);
            }
        }
        assert_eq!(merged, DesignPoint::L1_ONLY.apply(&base));
    }
}
