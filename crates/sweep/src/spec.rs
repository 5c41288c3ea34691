//! Sweep specifications: the grid of cells a campaign covers, and the
//! canonical content address of each cell.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use gpumem_config::{DesignPoint, GpuConfig};
use gpumem_sim::MemoryMode;
use gpumem_types::{CellKey, SweepError};
use gpumem_workloads::{params_of, WorkloadKind, BENCHMARK_NAMES};
use serde::{Deserialize, Serialize};

use crate::journal::read_trace_file;
use crate::CODE_VERSION_SALT;

/// The spec spelling of a trace-file workload: `trace:<path>`.
const TRACE_PREFIX: &str = "trace:";

/// Parses a Section IV design-point label (`baseline`, `L1`, `L2`, `DRAM`,
/// `L1+L2`, `L2+DRAM`, `L1+DRAM`, `L1+L2+DRAM`).
pub(crate) fn parse_design_point(label: &str) -> Option<DesignPoint> {
    let dp = match label {
        "baseline" => DesignPoint::BASELINE,
        "L1" => DesignPoint::L1_ONLY,
        "L2" => DesignPoint::L2_ONLY,
        "DRAM" => DesignPoint::DRAM_ONLY,
        "L1+L2" => DesignPoint::L1_L2,
        "L2+DRAM" => DesignPoint::L2_DRAM,
        "L1+DRAM" => DesignPoint {
            l1: true,
            l2: false,
            dram: true,
        },
        "L1+L2+DRAM" => DesignPoint::ALL,
        _ => return None,
    };
    Some(dp)
}

/// Parses a memory-mode spelling: `hierarchy` or `fixed:<latency>`.
pub(crate) fn parse_mode(spec: &str) -> Option<MemoryMode> {
    if spec == "hierarchy" {
        return Some(MemoryMode::Hierarchy);
    }
    let n = spec.strip_prefix("fixed:")?.parse().ok()?;
    Some(MemoryMode::FixedLatency(n))
}

/// A sweep campaign: the cross product of every axis below, one cell per
/// combination.
///
/// Serialized as plain JSON (every field explicit — the offline serde
/// stand-in has no defaulting) and stored inside the results store as
/// `spec.json`, which is what makes `repro sweep --resume <dir>` possible
/// without re-supplying the spec. Unknown keys are ignored, so an older
/// spec's `engines` axis still parses: every cell runs
/// `GpuSimulator::run`, whose results never depended on it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Campaign name (free-form, printed in summaries).
    pub name: String,
    /// Workload scale factor (1.0 = the paper's full scale).
    pub scale: f64,
    /// Workloads: benchmark names (the paper's eight or the ML family —
    /// anything `gpumem_workloads::params_of` resolves), or `trace:<path>`
    /// for a `gpumem-trace v1` file. Trace workloads ignore `scale` (a
    /// recorded instruction stream has no scale knob) and are
    /// content-addressed by the trace's byte digest, not its path.
    pub workloads: Vec<String>,
    /// Design-point labels: `baseline`, `L1`, `L2`, `DRAM`, `L1+L2`,
    /// `L2+DRAM`, `L1+DRAM` or `L1+L2+DRAM`.
    pub design_points: Vec<String>,
    /// Workload seed offsets; 0 is the benchmark's canonical seed.
    pub seeds: Vec<u64>,
    /// Memory modes: `hierarchy` or `fixed:<latency>`.
    pub modes: Vec<String>,
    /// Per-cell cycle budget (watchdog).
    pub max_cycles: u64,
}

impl SweepSpec {
    /// The paper's §V design-space grid: every benchmark × the Section IV
    /// design points (plus baseline) on the full hierarchy, one seed,
    /// `GpuSimulator::run`.
    pub fn section_v(scale: f64) -> SweepSpec {
        SweepSpec {
            name: "section-v".to_owned(),
            scale,
            workloads: BENCHMARK_NAMES.iter().map(|s| (*s).to_owned()).collect(),
            design_points: ["baseline", "L1", "L2", "DRAM", "L1+L2", "L2+DRAM"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
            seeds: vec![0],
            modes: vec!["hierarchy".to_owned()],
            max_cycles: gpumem::DEFAULT_MAX_CYCLES,
        }
    }

    /// Parses a JSON spec.
    ///
    /// # Errors
    ///
    /// [`SweepError::SpecInvalid`] on malformed JSON or a failed
    /// [`SweepSpec::validate`].
    pub fn from_json(json: &str) -> Result<SweepSpec, SweepError> {
        let spec: SweepSpec = serde_json::from_str(json).map_err(|e| SweepError::SpecInvalid {
            detail: format!("unparseable spec JSON: {e:?}"),
        })?;
        spec.validate()?;
        Ok(spec)
    }

    /// Renders the spec as the JSON stored in the results store.
    pub(crate) fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serializes")
    }

    /// Checks every axis: non-empty, known benchmarks, parseable labels.
    ///
    /// # Errors
    ///
    /// [`SweepError::SpecInvalid`] naming the offending entry.
    pub fn validate(&self) -> Result<(), SweepError> {
        let invalid = |detail: String| Err(SweepError::SpecInvalid { detail });
        // NaN must fail too, hence the explicit is_finite arm.
        if !self.scale.is_finite() || self.scale <= 0.0 {
            return invalid(format!("scale must be positive, got {}", self.scale));
        }
        if self.max_cycles == 0 {
            return invalid("max_cycles must be positive".to_owned());
        }
        for (axis, len) in [
            ("workloads", self.workloads.len()),
            ("design_points", self.design_points.len()),
            ("seeds", self.seeds.len()),
            ("modes", self.modes.len()),
        ] {
            if len == 0 {
                return invalid(format!("axis `{axis}` is empty"));
            }
        }
        for w in &self.workloads {
            if let Some(path) = w.strip_prefix(TRACE_PREFIX) {
                if path.is_empty() {
                    return invalid(
                        "trace workload has an empty path (want `trace:<path>`)".into(),
                    );
                }
            } else if params_of(w).is_none() {
                return invalid(format!("unknown benchmark {w:?}"));
            }
        }
        for d in &self.design_points {
            if parse_design_point(d).is_none() {
                return invalid(format!("unknown design-point label {d:?}"));
            }
        }
        for m in &self.modes {
            if parse_mode(m).is_none() {
                return invalid(format!("bad mode {m:?} (want `hierarchy` or `fixed:<N>`)"));
            }
        }
        Ok(())
    }

    /// Expands the grid into concrete cells, in deterministic axis order
    /// (workload-major, then design point, mode, seed). A cell whose key
    /// repeats an earlier one — a repeated axis entry, or two trace files
    /// with the same bytes — is kept once, at its first position. Trace
    /// workloads are read and decoded here — once per spec entry, shared
    /// by every cell they expand into.
    ///
    /// # Errors
    ///
    /// [`SweepError::SpecInvalid`] via [`SweepSpec::validate`], or for a
    /// trace file that cannot be read or decoded (the decode diagnostic,
    /// with its line number, is embedded in the detail).
    pub fn expand(&self) -> Result<Vec<SweepCell>, SweepError> {
        self.validate()?;
        let baseline = GpuConfig::gtx480();
        let mut cells = Vec::new();
        let mut seen = BTreeSet::new();
        for w in &self.workloads {
            let base = self.resolve_workload(w)?;
            for d in &self.design_points {
                let dp = parse_design_point(d).expect("validated above");
                let cfg = dp.apply(&baseline);
                for m in &self.modes {
                    let mode = parse_mode(m).expect("validated above");
                    for &seed in &self.seeds {
                        let workload = match &base {
                            WorkloadKind::Synthetic(p) => {
                                let mut params = p.clone();
                                params.seed = params.seed.wrapping_add(seed);
                                WorkloadKind::Synthetic(params)
                            }
                            traced => traced.clone(),
                        };
                        let cell = SweepCell::new(
                            w.clone(),
                            d.clone(),
                            seed,
                            cfg.clone(),
                            workload,
                            mode,
                            self.max_cycles,
                        );
                        if seen.insert(cell.key) {
                            cells.push(cell);
                        }
                    }
                }
            }
        }
        Ok(cells)
    }

    /// Resolves one `workloads` entry to a runnable workload (synthetic
    /// parameters at this spec's scale, or a decoded trace).
    fn resolve_workload(&self, entry: &str) -> Result<WorkloadKind, SweepError> {
        if let Some(path) = entry.strip_prefix(TRACE_PREFIX) {
            let text = read_trace_file(Path::new(path))?;
            let kernel =
                gpumem_tracefmt::parse_str(&text).map_err(|e| SweepError::SpecInvalid {
                    detail: format!("trace workload {path:?} does not decode: {e}"),
                })?;
            return Ok(WorkloadKind::Traced(Arc::new(kernel)));
        }
        let params = params_of(entry)
            .ok_or_else(|| SweepError::SpecInvalid {
                detail: format!("unknown benchmark {entry:?}"),
            })?
            .scaled(self.scale);
        Ok(WorkloadKind::Synthetic(params))
    }
}

/// One fully-resolved simulation of a sweep: everything needed to run it,
/// plus its content address.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The cell's content address (see [`SweepCell::new`] for what it
    /// covers).
    pub key: CellKey,
    /// Benchmark name.
    pub benchmark: String,
    /// Design-point label.
    pub design_point: String,
    /// Seed offset from the spec's `seeds` axis.
    pub seed: u64,
    /// The concrete configuration (design point already applied).
    pub cfg: GpuConfig,
    /// The concrete workload: synthetic parameters (scale and seed
    /// already applied) or a decoded trace.
    pub workload: WorkloadKind,
    /// Memory mode.
    pub mode: MemoryMode,
    /// Cycle budget.
    pub max_cycles: u64,
}

impl SweepCell {
    /// Builds the cell and computes its content address: an FNV digest of
    /// the canonical workload description, the configuration JSON, the
    /// mode, the cycle budget and the crate's
    /// `CODE_VERSION_SALT` — everything the simulated result is a pure
    /// function of. A synthetic workload canonicalizes as its parameter
    /// JSON (so pre-existing stores keep their keys); a traced workload as
    /// its trace-byte digest plus the seed axis value, so moving or
    /// renaming a trace file does not orphan its results, while editing
    /// one byte of it does.
    pub fn new(
        benchmark: String,
        design_point: String,
        seed: u64,
        cfg: GpuConfig,
        workload: WorkloadKind,
        mode: MemoryMode,
        max_cycles: u64,
    ) -> SweepCell {
        let key = cell_key(&cfg, &workload, seed, mode, max_cycles, CODE_VERSION_SALT);
        SweepCell {
            key,
            benchmark,
            design_point,
            seed,
            cfg,
            workload,
            mode,
            max_cycles,
        }
    }

    /// Human-readable cell label for progress streams and summaries.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/seed{}",
            self.benchmark, self.design_point, self.mode, self.seed
        )
    }
}

/// The content address [`SweepCell::new`] documents, under an explicit
/// salt (always [`CODE_VERSION_SALT`] outside the stale-store test).
fn cell_key(
    cfg: &GpuConfig,
    workload: &WorkloadKind,
    seed: u64,
    mode: MemoryMode,
    max_cycles: u64,
    salt: &str,
) -> CellKey {
    let workload_canonical = match workload {
        WorkloadKind::Synthetic(params) => format!(
            "params={}",
            serde_json::to_string(params).expect("params serialize")
        ),
        WorkloadKind::Traced(kernel) => {
            format!("trace={}|seed={seed}", kernel.digest())
        }
    };
    let canonical = format!(
        "cfg={}|{}|mode={}|max_cycles={}|salt={}",
        serde_json::to_string(cfg).expect("config serializes"),
        workload_canonical,
        mode,
        max_cycles,
        salt,
    );
    CellKey::from_canonical(&canonical)
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "test harness")]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            name: "t".into(),
            scale: 0.05,
            workloads: vec!["sc".into(), "nn".into()],
            design_points: vec!["baseline".into(), "L2".into()],
            seeds: vec![0],
            modes: vec!["hierarchy".into()],
            max_cycles: 1_000_000,
        }
    }

    #[test]
    fn expansion_is_the_full_cross_product_with_distinct_keys() {
        let cells = tiny_spec().expand().unwrap();
        assert_eq!(cells.len(), 4);
        let keys: std::collections::BTreeSet<String> =
            cells.iter().map(|c| c.key.to_string()).collect();
        assert_eq!(keys.len(), 4, "cell keys must be pairwise distinct");

        // Repeated axis entries name the same cells: each is kept once.
        let dup = SweepSpec {
            workloads: vec!["sc".into(), "sc".into()],
            design_points: vec!["baseline".into()],
            seeds: vec![0, 0],
            modes: vec!["hierarchy".into(), "fixed:0".into()],
            ..tiny_spec()
        };
        let labels: Vec<String> = dup.expand().unwrap().iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            [
                "sc/baseline/hierarchy/seed0",
                "sc/baseline/fixed-latency(0)/seed0"
            ]
        );
    }

    #[test]
    fn keys_are_stable_across_expansions_and_sensitive_to_axes() {
        let a = tiny_spec().expand().unwrap();
        let b = tiny_spec().expand().unwrap();
        assert_eq!(
            a.iter().map(|c| c.key).collect::<Vec<_>>(),
            b.iter().map(|c| c.key).collect::<Vec<_>>()
        );
        let mut seeded = tiny_spec();
        seeded.seeds = vec![1];
        let c = seeded.expand().unwrap();
        assert_ne!(a[0].key, c[0].key, "seed must be part of the address");
        let mut scaled = tiny_spec();
        scaled.scale = 0.1;
        let d = scaled.expand().unwrap();
        assert_ne!(a[0].key, d[0].key, "scale must be part of the address");
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = tiny_spec();
        let back = SweepSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn validation_names_the_offender() {
        let mut bad = tiny_spec();
        bad.workloads.push("nope".into());
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("nope"));

        let mut bad = tiny_spec();
        bad.modes = Vec::new();
        assert!(bad.validate().unwrap_err().to_string().contains("modes"));
    }

    /// A store written before a salt bump holds digests of the old
    /// canonical report JSON; serving one as a hit would break the
    /// "same spec, same store digest" fixpoint. Its cells must simply not
    /// be found: recomputed, and never quarantined as corrupt.
    #[test]
    fn cells_committed_under_the_previous_salt_are_plain_misses() {
        use crate::{DiskStore, JournalEvent, Lookup, ResultStore};

        let cell = tiny_spec().expand().unwrap().remove(0);
        let old_key = cell_key(
            &cell.cfg,
            &cell.workload,
            cell.seed,
            cell.mode,
            cell.max_cycles,
            "gpumem-sweep-v2",
        );
        assert_ne!(old_key, cell.key, "the salt must be part of the address");

        let root = std::env::temp_dir().join(format!("gpumem-spec-salt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut store = ResultStore::open(&root).unwrap();
        let report = gpumem_sim::SimReport::default();
        store.commit(old_key, &cell.label(), 1, &report).unwrap();

        let mut store = ResultStore::open(&root).unwrap();
        assert!(matches!(
            store.lookup(cell.key).unwrap(),
            Lookup::Miss {
                was_committed: false
            }
        ));
        assert!(store.peek(old_key).unwrap().is_some(), "old cell untouched");
        let journal = DiskStore::open(&root).unwrap().read_journal().unwrap();
        assert!(journal.iter().all(|r| r.event != JournalEvent::Quarantine));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn trace_workloads_key_by_digest_not_path() {
        let dir = std::env::temp_dir().join(format!("gpumem-spec-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let program = gpumem_workloads::by_name("nw").unwrap();
        let text = gpumem_tracefmt::encode_program(program.as_ref(), 128).unwrap();
        let (a, b) = (dir.join("a.trace"), dir.join("b.trace"));
        std::fs::write(&a, &text).unwrap();
        std::fs::write(&b, &text).unwrap();

        let spec_for = |path: &std::path::Path| {
            let mut s = tiny_spec();
            s.workloads = vec![format!("trace:{}", path.display())];
            s
        };
        let cells_a = spec_for(&a).expand().unwrap();
        let cells_b = spec_for(&b).expand().unwrap();
        assert_eq!(cells_a.len(), 2);
        assert_eq!(
            cells_a[0].key, cells_b[0].key,
            "identical trace bytes must share a key regardless of path"
        );
        assert!(matches!(cells_a[0].workload, WorkloadKind::Traced(_)));

        // One edited byte re-addresses every cell of that trace.
        std::fs::write(&b, text.replace("ALU lat=4", "ALU lat=5")).unwrap();
        let cells_c = spec_for(&b).expand().unwrap();
        assert_ne!(cells_a[0].key, cells_c[0].key);

        // The seed axis still distinguishes traced cells.
        let mut seeded = spec_for(&a);
        seeded.seeds = vec![3];
        let cells_d = seeded.expand().unwrap();
        assert_ne!(cells_a[0].key, cells_d[0].key);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_trace_workloads_are_typed_errors() {
        let mut empty = tiny_spec();
        empty.workloads = vec!["trace:".into()];
        assert!(empty
            .validate()
            .unwrap_err()
            .to_string()
            .contains("empty path"));

        let mut missing = tiny_spec();
        missing.workloads = vec!["trace:/nonexistent/gpumem-no-such.trace".into()];
        assert!(
            missing.validate().is_ok(),
            "file existence is checked at expansion"
        );
        assert!(matches!(missing.expand(), Err(SweepError::Io { .. })));

        let dir = std::env::temp_dir().join(format!("gpumem-spec-badtrace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.trace");
        std::fs::write(&bad, "gpumem-trace v1\nkernel name=x grid=zero\n").unwrap();
        let mut spec = tiny_spec();
        spec.workloads = vec![format!("trace:{}", bad.display())];
        match spec.expand() {
            Err(SweepError::SpecInvalid { detail }) => {
                assert!(
                    detail.contains("line 2"),
                    "decode diagnostic kept: {detail}"
                );
            }
            other => panic!("expected SpecInvalid, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn section_v_grid_shape() {
        let spec = SweepSpec::section_v(0.1);
        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), 8 * 6, "8 benchmarks x 6 design points");
    }
}
