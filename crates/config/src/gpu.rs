//! The full-system configuration and its GTX480 baseline.

use serde::{Deserialize, Serialize};

use crate::ConfigError;

/// Upper bound on `num_cores`, `num_partitions` and `core.max_warps`: the
/// crossbar arbiters and the warp schedulers keep one bit per port / warp
/// slot in a `u64`.
pub const MAX_MASK_WIDTH: usize = 64;

/// SIMT-core (SM) front-end parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Threads per warp (fixed at 32 on Fermi).
    pub warp_size: u32,
    /// Hardware warp slots per core.
    pub max_warps: usize,
    /// Maximum concurrently resident CTAs per core.
    pub max_ctas: usize,
    /// Warp instructions issued per cycle (Fermi dual-issue = 2).
    pub issue_width: usize,
    /// Depth of the LSU memory pipeline: how many coalesced accesses may be
    /// buffered between the issue stage and the L1 port. **Table I (c):
    /// "Memory pipeline width", baseline 10, scaled 40.**
    pub mem_pipeline_width: usize,
    /// Issue-to-writeback latency charged to the issuing warp for an ALU
    /// instruction (the in-order dependent-chain approximation; see
    /// DESIGN.md).
    pub alu_latency: u64,
    /// Latency charged for a shared-memory instruction.
    pub shared_latency: u64,
}

/// Per-core private L1 data-cache parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct L1Config {
    /// Number of sets (16 KB / 4-way / 128 B lines = 32 sets on Fermi).
    pub sets: usize,
    /// Associativity.
    pub assoc: usize,
    /// Hit latency in cycles (pipelined).
    pub hit_latency: u64,
    /// MSHR entries. **Table I (c): "MSHR (L1D)", baseline 32, scaled 128.**
    pub mshr_entries: usize,
    /// Maximum warp-accesses merged into one outstanding MSHR entry.
    pub mshr_merge: usize,
    /// Miss-queue entries feeding the interconnect. **Table I (c): "L1 miss
    /// queue", baseline 8, scaled 32.**
    pub miss_queue: usize,
}

/// Interconnect (crossbar) parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Flit size in bytes. **Table I (b): "Flit size (crossbar)", baseline
    /// 4 B, scaled 16 B.** A 136 B read-response packet is 34 flits at the
    /// baseline — the response crossbar's serialization is a first-order
    /// bandwidth bottleneck.
    pub flit_bytes: u64,
    /// Flits each output port moves per *core* cycle. The GPGPU-Sim
    /// GTX480 configuration clocks the interconnect well above the core
    /// clock (and its crossbar switches per interconnect cycle), so the
    /// baseline moves 4 flits per core cycle; calibrated so the baseline
    /// L2→L1 bandwidth sits just above the DRAM bandwidth, as on the real
    /// GTX480.
    pub flits_per_cycle: u64,
    /// Fixed pipeline traversal latency of the crossbar, each direction.
    pub hop_latency: u64,
    /// Packets buffered at each crossbar input port.
    pub input_buffer_pkts: usize,
    /// Response packets buffered at each core-side ejection port.
    pub ejection_queue: usize,
}

/// Shared L2 cache parameters (per memory partition).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct L2Config {
    /// Sets per partition (128 KB / 8-way / 128 B = 128 sets; 6 partitions
    /// give the GTX480's 768 KB).
    pub sets_per_partition: usize,
    /// Associativity.
    pub assoc: usize,
    /// Banks per partition. **Table I (b): "L2 banks", baseline 2, scaled
    /// 8.**
    pub banks_per_partition: usize,
    /// Pipelined bank access latency (tag + data array).
    pub bank_latency: u64,
    /// Width of the data port returning lines to the interconnect, in
    /// bytes per cycle. **Table I (b): "L2 data port", baseline 32 B,
    /// scaled 128 B.**
    pub data_port_bytes: u64,
    /// Access-queue entries (requests arriving from the interconnect).
    /// **Table I (b): "L2 access queue", baseline 8, scaled 32.**
    pub access_queue: usize,
    /// Miss-queue entries towards DRAM. **Table I (b): "L2 miss queue",
    /// baseline 8, scaled 32.**
    pub miss_queue: usize,
    /// Response-queue entries for fills returning from DRAM. **Table I (b):
    /// "L2 response queue", baseline 8, scaled 32.**
    pub response_queue: usize,
    /// MSHR entries. **Table I (b): "MSHR", baseline 32, scaled 128.**
    pub mshr_entries: usize,
    /// Maximum requests merged per MSHR entry.
    pub mshr_merge: usize,
}

/// Off-chip DRAM channel parameters (per memory partition).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Memory-controller scheduler-queue entries. **Table I (a): "Scheduler
    /// queue", baseline 16, scaled 64.**
    pub scheduler_queue: usize,
    /// Banks per chip. **Table I (a): "DRAM Banks", baseline 16, scaled
    /// 64.**
    pub banks: usize,
    /// Data-bus width in bytes. **Table I (a): "Bus width", baseline
    /// 32 bits (4 B), scaled 64 bits (8 B)** — the paper's noted
    /// saturation exception to the 4× rule.
    pub bus_bytes: u64,
    /// Effective data transfers per pin per *core* cycle: GDDR5 is
    /// quad-pumped and clocked above the core (924 vs 700 MHz), giving
    /// ≈ 8 transfers per core cycle at the baseline.
    pub data_rate: u64,
    /// DRAM row (page) size in bytes.
    pub row_bytes: u64,
    /// Row-activate to column-command delay.
    pub t_rcd: u64,
    /// Precharge latency.
    pub t_rp: u64,
    /// Column-access (CAS) latency.
    pub t_cl: u64,
    /// Minimum row-active time before precharge.
    pub t_ras: u64,
    /// Column-to-column command spacing.
    pub t_ccd: u64,
    /// Fixed controller front-end latency (command decode, clock-domain
    /// crossing) applied to every request.
    pub controller_latency: u64,
    /// Return-queue entries from the channel back to the L2 fill path.
    pub return_queue: usize,
}

/// Complete configuration of the simulated GPU.
///
/// Construct with [`GpuConfig::gtx480`] (the paper's baseline) and derive
/// scaled configurations with [`crate::DesignPoint::apply`]. Always
/// [`validate`](GpuConfig::validate) configurations built by hand.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Number of SIMT cores (GTX480: 15 SMs).
    pub num_cores: usize,
    /// Number of memory partitions, each an L2 slice + DRAM channel
    /// (GTX480: 6).
    pub num_partitions: usize,
    /// Cache-line size in bytes throughout the hierarchy.
    pub line_bytes: u64,
    /// Core front-end parameters.
    pub core: CoreConfig,
    /// L1 data cache parameters.
    pub l1: L1Config,
    /// Interconnect parameters.
    pub noc: NocConfig,
    /// L2 cache parameters.
    pub l2: L2Config,
    /// DRAM channel parameters.
    pub dram: DramConfig,
}

impl GpuConfig {
    /// The paper's baseline: an NVIDIA GTX480 (Fermi) as modelled in
    /// GPGPU-Sim, with every Table I parameter at its baseline value.
    ///
    /// Unloaded latencies are calibrated so that an L1 miss hitting in L2
    /// completes in ≈ 120 cycles and an L2 miss adds ≈ 100 cycles — the
    /// ideal access latencies the paper states in Section II.
    pub fn gtx480() -> Self {
        GpuConfig {
            num_cores: 15,
            num_partitions: 6,
            line_bytes: 128,
            core: CoreConfig {
                warp_size: 32,
                max_warps: 48,
                max_ctas: 8,
                issue_width: 2,
                mem_pipeline_width: 10,
                alu_latency: 4,
                shared_latency: 24,
            },
            l1: L1Config {
                sets: 32,
                assoc: 4,
                hit_latency: 4,
                mshr_entries: 32,
                mshr_merge: 8,
                miss_queue: 8,
            },
            noc: NocConfig {
                flit_bytes: 4,
                flits_per_cycle: 3,
                hop_latency: 6,
                input_buffer_pkts: 8,
                ejection_queue: 8,
            },
            l2: L2Config {
                sets_per_partition: 128,
                assoc: 8,
                banks_per_partition: 2,
                bank_latency: 95,
                data_port_bytes: 32,
                access_queue: 8,
                miss_queue: 8,
                response_queue: 8,
                mshr_entries: 32,
                mshr_merge: 8,
            },
            dram: DramConfig {
                scheduler_queue: 16,
                banks: 16,
                bus_bytes: 4,
                data_rate: 8,
                row_bytes: 2048,
                t_rcd: 20,
                t_rp: 20,
                t_cl: 20,
                t_ras: 32,
                t_ccd: 2,
                controller_latency: 60,
                return_queue: 8,
            },
        }
    }

    /// A deliberately small configuration for fast unit and property tests:
    /// 2 cores, 2 partitions, shallow queues. Not calibrated; structural
    /// behaviour only.
    pub fn tiny() -> Self {
        let mut c = Self::gtx480();
        c.num_cores = 2;
        c.num_partitions = 2;
        c.core.max_warps = 8;
        c.core.max_ctas = 2;
        c.l1.sets = 8;
        c.l2.sets_per_partition = 16;
        c
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first violated constraint:
    /// positive counts, power-of-two geometry for address mapping, flit and
    /// port sizes dividing the line size, and MSHR merge capacity ≥ 1.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn positive(v: usize, name: &'static str) -> Result<(), ConfigError> {
            if v == 0 {
                Err(ConfigError::new(name, "must be positive"))
            } else {
                Ok(())
            }
        }
        fn pow2(v: u64, name: &'static str) -> Result<(), ConfigError> {
            if !v.is_power_of_two() {
                Err(ConfigError::new(
                    name,
                    format!("must be a power of two (got {v})"),
                ))
            } else {
                Ok(())
            }
        }

        fn fits_mask(v: usize, name: &'static str) -> Result<(), ConfigError> {
            if v > MAX_MASK_WIDTH {
                Err(ConfigError::new(
                    name,
                    format!("must not exceed {MAX_MASK_WIDTH} (got {v})"),
                ))
            } else {
                Ok(())
            }
        }

        positive(self.num_cores, "num_cores")?;
        fits_mask(self.num_cores, "num_cores")?;
        positive(self.num_partitions, "num_partitions")?;
        fits_mask(self.num_partitions, "num_partitions")?;
        pow2(self.line_bytes, "line_bytes")?;

        positive(self.core.max_warps, "core.max_warps")?;
        fits_mask(self.core.max_warps, "core.max_warps")?;
        positive(self.core.max_ctas, "core.max_ctas")?;
        positive(self.core.issue_width, "core.issue_width")?;
        positive(self.core.mem_pipeline_width, "core.mem_pipeline_width")?;
        if self.core.warp_size == 0 {
            return Err(ConfigError::new("core.warp_size", "must be positive"));
        }

        positive(self.l1.sets, "l1.sets")?;
        pow2(self.l1.sets as u64, "l1.sets")?;
        positive(self.l1.assoc, "l1.assoc")?;
        positive(self.l1.mshr_entries, "l1.mshr_entries")?;
        positive(self.l1.mshr_merge, "l1.mshr_merge")?;
        positive(self.l1.miss_queue, "l1.miss_queue")?;

        pow2(self.noc.flit_bytes, "noc.flit_bytes")?;
        if self.noc.flits_per_cycle == 0 {
            return Err(ConfigError::new("noc.flits_per_cycle", "must be positive"));
        }
        positive(self.noc.input_buffer_pkts, "noc.input_buffer_pkts")?;
        positive(self.noc.ejection_queue, "noc.ejection_queue")?;

        positive(self.l2.sets_per_partition, "l2.sets_per_partition")?;
        pow2(self.l2.sets_per_partition as u64, "l2.sets_per_partition")?;
        positive(self.l2.assoc, "l2.assoc")?;
        positive(self.l2.banks_per_partition, "l2.banks_per_partition")?;
        pow2(self.l2.banks_per_partition as u64, "l2.banks_per_partition")?;
        pow2(self.l2.data_port_bytes, "l2.data_port_bytes")?;
        if self.l2.data_port_bytes > self.line_bytes {
            return Err(ConfigError::new(
                "l2.data_port_bytes",
                "must not exceed line_bytes",
            ));
        }
        positive(self.l2.access_queue, "l2.access_queue")?;
        positive(self.l2.miss_queue, "l2.miss_queue")?;
        positive(self.l2.response_queue, "l2.response_queue")?;
        positive(self.l2.mshr_entries, "l2.mshr_entries")?;
        positive(self.l2.mshr_merge, "l2.mshr_merge")?;

        positive(self.dram.scheduler_queue, "dram.scheduler_queue")?;
        positive(self.dram.banks, "dram.banks")?;
        pow2(self.dram.banks as u64, "dram.banks")?;
        pow2(self.dram.bus_bytes, "dram.bus_bytes")?;
        if self.dram.data_rate == 0 {
            return Err(ConfigError::new("dram.data_rate", "must be positive"));
        }
        pow2(self.dram.row_bytes, "dram.row_bytes")?;
        if self.dram.row_bytes < self.line_bytes {
            return Err(ConfigError::new(
                "dram.row_bytes",
                "must be at least line_bytes",
            ));
        }
        positive(self.dram.return_queue, "dram.return_queue")?;

        if self.noc.flit_bytes > self.line_bytes {
            return Err(ConfigError::new(
                "noc.flit_bytes",
                "must not exceed line_bytes",
            ));
        }
        Ok(())
    }

    /// Number of flits a packet of `bytes` occupies on the interconnect.
    pub fn flits_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.noc.flit_bytes)
    }

    /// Cycles the L2 data port needs to move one cache line.
    pub fn l2_port_cycles(&self) -> u64 {
        self.line_bytes.div_ceil(self.l2.data_port_bytes)
    }

    /// Cycles the DRAM data bus is busy transferring one cache line
    /// (`bus_bytes × data_rate` bytes move per core cycle).
    pub fn dram_burst_cycles(&self) -> u64 {
        self.line_bytes
            .div_ceil(self.dram.bus_bytes * self.dram.data_rate)
    }

    /// Total L1 data-cache capacity per core in bytes.
    pub fn l1_bytes(&self) -> u64 {
        self.l1.sets as u64 * self.l1.assoc as u64 * self.line_bytes
    }

    /// Total L2 capacity across all partitions in bytes.
    pub fn l2_total_bytes(&self) -> u64 {
        self.num_partitions as u64
            * self.l2.sets_per_partition as u64
            * self.l2.assoc as u64
            * self.line_bytes
    }
}

impl Default for GpuConfig {
    /// The GTX480 baseline.
    fn default() -> Self {
        Self::gtx480()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_gtx480_geometry() {
        let c = GpuConfig::gtx480();
        c.validate().unwrap();
        assert_eq!(c.num_cores, 15);
        assert_eq!(c.num_partitions, 6);
        assert_eq!(c.l1_bytes(), 16 * 1024);
        assert_eq!(c.l2_total_bytes(), 768 * 1024);
    }

    #[test]
    fn baseline_matches_table_i_values() {
        // The paper's Table I baseline column and the §II structural
        // parameters, one row each: a drifted constant fails with its row.
        let c = GpuConfig::gtx480();
        let rows: [(&str, usize, usize); 16] = [
            ("I(a) Scheduler queue", c.dram.scheduler_queue, 16),
            ("I(a) DRAM banks", c.dram.banks, 16),
            ("I(a) Bus width (bits)", c.dram.bus_bytes as usize * 8, 32),
            ("I(b) L2 access queue", c.l2.access_queue, 8),
            ("I(b) L2 miss queue", c.l2.miss_queue, 8),
            ("I(b) L2 response queue", c.l2.response_queue, 8),
            ("I(b) MSHR (L2)", c.l2.mshr_entries, 32),
            ("I(b) L2 banks", c.l2.banks_per_partition, 2),
            (
                "I(b) L2 data port (bytes)",
                c.l2.data_port_bytes as usize,
                32,
            ),
            ("I(b) Flit size (bytes)", c.noc.flit_bytes as usize, 4),
            ("I(c) MSHR (L1D)", c.l1.mshr_entries, 32),
            ("I(c) L1 miss queue", c.l1.miss_queue, 8),
            ("I(c) Memory pipeline width", c.core.mem_pipeline_width, 10),
            ("II SIMT cores", c.num_cores, 15),
            ("II Memory partitions", c.num_partitions, 6),
            ("II Cache-line size (bytes)", c.line_bytes as usize, 128),
        ];
        for (row, got, paper) in rows {
            assert_eq!(got, paper, "Table {row}");
        }
    }

    #[test]
    fn derived_cycle_counts() {
        let c = GpuConfig::gtx480();
        assert_eq!(c.flits_for(136), 34); // read response at 4 B flits
        assert_eq!(c.flits_for(8), 2); // read request
        assert_eq!(c.l2_port_cycles(), 4); // 128 B / 32 B
        assert_eq!(c.dram_burst_cycles(), 4); // 128 B / (4 B × 8)
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        let mut c = GpuConfig::gtx480();
        c.l1.sets = 33;
        assert_eq!(c.validate().unwrap_err().param(), "l1.sets");

        let mut c = GpuConfig::gtx480();
        c.num_cores = 0;
        assert_eq!(c.validate().unwrap_err().param(), "num_cores");

        let mut c = GpuConfig::gtx480();
        c.core.max_warps = MAX_MASK_WIDTH + 1;
        assert_eq!(c.validate().unwrap_err().param(), "core.max_warps");
        c.core.max_warps = MAX_MASK_WIDTH;
        c.num_partitions = MAX_MASK_WIDTH + 1;
        assert_eq!(c.validate().unwrap_err().param(), "num_partitions");

        let mut c = GpuConfig::gtx480();
        c.l2.data_port_bytes = 256;
        assert_eq!(c.validate().unwrap_err().param(), "l2.data_port_bytes");

        let mut c = GpuConfig::gtx480();
        c.noc.flit_bytes = 3;
        assert_eq!(c.validate().unwrap_err().param(), "noc.flit_bytes");

        let mut c = GpuConfig::gtx480();
        c.dram.row_bytes = 64;
        assert_eq!(c.validate().unwrap_err().param(), "dram.row_bytes");
    }

    #[test]
    fn tiny_is_valid() {
        GpuConfig::tiny().validate().unwrap();
    }

    #[test]
    fn default_is_baseline() {
        assert_eq!(GpuConfig::default(), GpuConfig::gtx480());
    }
}
