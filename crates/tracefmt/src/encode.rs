//! Encoder: renders any [`KernelProgram`] as a `gpumem-trace v1` text
//! trace that decodes back to the identical instruction stream.
//!
//! This is how the self-hosted trace corpus is built: every synthetic
//! workload can be exported (`repro trace-gen`), re-parsed and replayed,
//! and the round-trip must be bit-identical — the decoder and the
//! generators are oracles for each other.

#![expect(
    clippy::let_underscore_must_use,
    reason = "the document is assembled with write! into a String, which cannot fail"
)]

use std::fmt::Write as _;

use gpumem_simt::{KernelProgram, WarpInstr};
use gpumem_types::{CtaId, LineAddr};

use crate::error::TraceError;
use crate::parse::{MAGIC, MAX_TOTAL_WARPS, MAX_WARP_INSTRS};

/// Renders `program` as a `gpumem-trace v1` document, with load/store
/// lines materialized as line-aligned byte addresses at `line_bytes`.
///
/// Fails with [`TraceError::Unencodable`] when the program does not fit
/// the format: zero latencies, empty or oversized warps, duplicate lines
/// within one access, names outside `[A-Za-z0-9_.-]{1,64}`, or addresses
/// that overflow 64 bits at the chosen line size. Line-aligned addresses
/// guarantee the decode reproduces the exact [`LineAddr`] sequence.
pub fn encode_program(program: &dyn KernelProgram, line_bytes: u64) -> Result<String, TraceError> {
    if !line_bytes.is_power_of_two() || !(32..=4096).contains(&line_bytes) {
        return Err(unencodable(format!(
            "line_bytes must be a power of two in 32..=4096, got {line_bytes}"
        )));
    }
    let name = program.name();
    if name.is_empty()
        || name.len() > 64
        || !name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    {
        return Err(unencodable(format!(
            "kernel name must be 1..=64 characters of [A-Za-z0-9_.-], got {name:?}"
        )));
    }
    let grid = program.grid_ctas();
    let warps = program.warps_per_cta();
    if grid == 0 || warps == 0 {
        return Err(unencodable(format!(
            "grid ({grid}) and warps_per_cta ({warps}) must both be >= 1"
        )));
    }
    if u64::from(grid) * u64::from(warps) > MAX_TOTAL_WARPS {
        return Err(unencodable(format!(
            "grid={grid} x warps_per_cta={warps} exceeds the decoder's {MAX_TOTAL_WARPS}-warp limit"
        )));
    }
    let max_ctas = match program.max_ctas_per_core() {
        usize::MAX => 0,
        n => u64::try_from(n).map_err(|_| unencodable("max_ctas_per_core exceeds u64".into()))?,
    };

    let mut out = String::new();
    let _ = writeln!(out, "{MAGIC}");
    let _ = writeln!(
        out,
        "kernel name={name} grid={grid} warps_per_cta={warps} \
         max_ctas_per_core={max_ctas} shmem_bytes=0 line_bytes={line_bytes}"
    );

    for cta in 0..grid {
        for warp in 0..warps {
            let _ = writeln!(out, "warp cta={cta} warp={warp}");
            let mut pc: u32 = 0;
            while let Some(instr) = program.instr(CtaId::new(cta), warp, pc) {
                if u64::from(pc) >= MAX_WARP_INSTRS {
                    return Err(unencodable(format!(
                        "warp cta={cta} warp={warp} exceeds the decoder's \
                         {MAX_WARP_INSTRS}-instruction limit"
                    )));
                }
                encode_instr(&mut out, &instr, cta, warp, line_bytes)?;
                pc = pc.checked_add(1).ok_or_else(|| {
                    unencodable(format!("warp cta={cta} warp={warp} overflows a u32 pc"))
                })?;
            }
            if pc == 0 {
                return Err(unencodable(format!(
                    "warp cta={cta} warp={warp} has no instructions \
                     (the format requires non-empty warp blocks)"
                )));
            }
            let _ = writeln!(out, "end");
        }
    }
    Ok(out)
}

fn encode_instr(
    out: &mut String,
    instr: &WarpInstr,
    cta: u32,
    warp: u32,
    line_bytes: u64,
) -> Result<(), TraceError> {
    match instr {
        WarpInstr::Alu { latency } => {
            require_pos(*latency, "ALU lat", cta, warp)?;
            let _ = writeln!(out, "ALU lat={latency}");
        }
        WarpInstr::Shared { latency } => {
            require_pos(*latency, "SHMEM lat", cta, warp)?;
            let _ = writeln!(out, "SHMEM lat={latency}");
        }
        WarpInstr::Load {
            lines,
            consume_after,
        } => {
            require_pos(*consume_after, "LD consume", cta, warp)?;
            let _ = write!(
                out,
                "LD consume={consume_after} mask={}",
                mask_of(lines, cta, warp)?
            );
            write_addrs(out, lines, line_bytes)?;
        }
        WarpInstr::Store { lines } => {
            let _ = write!(out, "ST mask={}", mask_of(lines, cta, warp)?);
            write_addrs(out, lines, line_bytes)?;
        }
        WarpInstr::Barrier => {
            let _ = writeln!(out, "BAR");
        }
    }
    Ok(())
}

/// The low-`k`-lanes active mask for a `k`-line access, validating the
/// 1..=32 distinct-lines contract.
fn mask_of(lines: &[LineAddr], cta: u32, warp: u32) -> Result<String, TraceError> {
    let k = lines.len();
    if k == 0 || k > 32 {
        return Err(unencodable(format!(
            "memory access in warp cta={cta} warp={warp} touches {k} lines (must be 1..=32)"
        )));
    }
    for (i, line) in lines.iter().enumerate() {
        if lines.get(..i).is_some_and(|prior| prior.contains(line)) {
            return Err(unencodable(format!(
                "memory access in warp cta={cta} warp={warp} repeats line {}",
                line.index()
            )));
        }
    }
    let mask: u32 = if k == 32 { u32::MAX } else { (1u32 << k) - 1 };
    Ok(format!("{mask:08x}"))
}

fn write_addrs(out: &mut String, lines: &[LineAddr], line_bytes: u64) -> Result<(), TraceError> {
    for line in lines {
        let addr = line.index().checked_mul(line_bytes).ok_or_else(|| {
            unencodable(format!(
                "line {} at line_bytes={line_bytes} overflows a 64-bit byte address",
                line.index()
            ))
        })?;
        let _ = write!(out, " 0x{addr:x}");
    }
    out.push('\n');
    Ok(())
}

fn require_pos(v: u32, what: &str, cta: u32, warp: u32) -> Result<(), TraceError> {
    if v == 0 {
        return Err(unencodable(format!(
            "{what} must be >= 1 in warp cta={cta} warp={warp}"
        )));
    }
    Ok(())
}

fn unencodable(detail: String) -> TraceError {
    TraceError::Unencodable { detail }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_str;
    use gpumem_types::CtaId;

    /// A hand-rolled two-CTA program exercising every instruction kind.
    struct Demo;

    impl KernelProgram for Demo {
        fn name(&self) -> &str {
            "demo-prog"
        }
        fn grid_ctas(&self) -> u32 {
            2
        }
        fn warps_per_cta(&self) -> u32 {
            2
        }
        fn max_ctas_per_core(&self) -> usize {
            4
        }
        fn instr(&self, cta: CtaId, warp: u32, pc: u32) -> Option<WarpInstr> {
            let base = (cta.index() as u64) * 64 + u64::from(warp) * 8;
            match pc {
                0 => Some(WarpInstr::Load {
                    lines: vec![LineAddr::new(base), LineAddr::new(base + 1)],
                    consume_after: 3,
                }),
                1 => Some(WarpInstr::Alu { latency: 6 }),
                2 => Some(WarpInstr::Shared { latency: 2 }),
                3 => Some(WarpInstr::Barrier),
                4 => Some(WarpInstr::Store {
                    lines: vec![LineAddr::new(base + 2)],
                }),
                _ => None,
            }
        }
    }

    #[test]
    fn round_trips_through_the_parser() {
        let text = encode_program(&Demo, 128).expect("encodes");
        let k = parse_str(&text).expect("decodes");
        assert_eq!(k.name(), "demo-prog");
        assert_eq!(k.grid_ctas(), 2);
        assert_eq!(k.warps_per_cta(), 2);
        assert_eq!(k.max_ctas_per_core(), 4);
        for cta in 0..2 {
            for warp in 0..2 {
                let id = CtaId::new(cta);
                for pc in 0..6 {
                    assert_eq!(
                        k.instr(id, warp, pc),
                        Demo.instr(id, warp, pc),
                        "cta={cta} warp={warp} pc={pc}"
                    );
                }
            }
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(
            encode_program(&Demo, 128).expect("encodes"),
            encode_program(&Demo, 128).expect("encodes")
        );
        let a = parse_str(&encode_program(&Demo, 128).expect("encodes")).expect("parses");
        let b = parse_str(&encode_program(&Demo, 128).expect("encodes")).expect("parses");
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn zero_latency_is_unencodable() {
        struct Bad;
        impl KernelProgram for Bad {
            fn name(&self) -> &str {
                "bad"
            }
            fn grid_ctas(&self) -> u32 {
                1
            }
            fn warps_per_cta(&self) -> u32 {
                1
            }
            fn instr(&self, _: CtaId, _: u32, pc: u32) -> Option<WarpInstr> {
                (pc == 0).then_some(WarpInstr::Alu { latency: 0 })
            }
        }
        match encode_program(&Bad, 128) {
            Err(TraceError::Unencodable { detail }) => assert!(detail.contains("ALU lat")),
            other => panic!("expected Unencodable, got {other:?}"),
        }
    }

    #[test]
    fn bad_line_bytes_is_unencodable() {
        assert!(matches!(
            encode_program(&Demo, 100),
            Err(TraceError::Unencodable { .. })
        ));
        assert!(matches!(
            encode_program(&Demo, 8192),
            Err(TraceError::Unencodable { .. })
        ));
    }
}
