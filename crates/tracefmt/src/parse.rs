//! Streaming decoder for the `gpumem-trace v1` text format.
//!
//! The decoder reads one line at a time through [`std::io::BufRead`], so
//! memory stays proportional to the *decoded* program (plus one line of
//! input), never to the raw text — a multi-gigabyte trace of a small
//! kernel decodes in a few megabytes. Every byte consumed is folded into
//! an [`Fnv128`] digest, giving each trace a content address without a
//! second pass over the input.
//!
//! # Grammar
//!
//! ```text
//! gpumem-trace v1
//! kernel name=<ident> grid=<u32> warps_per_cta=<u32> max_ctas_per_core=<u32> shmem_bytes=<u64> line_bytes=<u64>
//! warp cta=<u32> warp=<u32>
//!   ALU lat=<u32>
//!   SHMEM lat=<u32>
//!   LD consume=<u32> mask=<8 hex digits> <0xaddr> ...
//!   ST mask=<8 hex digits> <0xaddr> ...
//!   BAR
//! end
//! ```
//!
//! Blank lines and `#` comments may appear anywhere. Warp blocks must
//! appear exactly once each, in cta-major order (`cta=0 warp=0`, `cta=0
//! warp=1`, …), be non-empty, and end with `end`; an `LD`/`ST` record
//! carries exactly one address per active lane in its mask. Byte
//! addresses are lowered to cache lines at the header's `line_bytes`,
//! deduplicating in first-touch order — the same coalescing the synthetic
//! generators perform.

use std::io::BufRead;

use gpumem_types::{Fnv128, LineAddr};

use crate::error::TraceError;
use crate::kernel::{Op, TracedKernel};

/// The required first significant line of every trace.
pub(crate) const MAGIC: &str = "gpumem-trace v1";

/// Longest accepted input line, in bytes (including the newline).
pub(crate) const MAX_LINE_BYTES: usize = 64 * 1024;
/// Most warps (`grid × warps_per_cta`) a trace may declare.
pub(crate) const MAX_TOTAL_WARPS: u64 = 1 << 20;
/// Most instructions a single warp block may carry.
pub(crate) const MAX_WARP_INSTRS: u64 = 1 << 22;
/// Most decoded instructions across the whole trace.
pub(crate) const MAX_TOTAL_INSTRS: u64 = 1 << 26;

/// Decodes a complete trace held in memory. Equivalent to
/// [`parse_reader`] over the string's bytes.
pub fn parse_str(text: &str) -> Result<TracedKernel, TraceError> {
    parse_reader(text.as_bytes())
}

/// Decodes a trace from a buffered reader, streaming line by line.
///
/// On success the returned [`TracedKernel`] carries the FNV-128 digest of
/// the exact bytes consumed. On failure every error names the input line
/// it points at (see [`TraceError`]); the decoder never panics, whatever
/// the input.
pub fn parse_reader<R: BufRead>(reader: R) -> Result<TracedKernel, TraceError> {
    let mut lines = Lines::new(reader);

    // Magic line.
    let Some(magic) = lines.next_significant()? else {
        return Err(eof(&lines, format!("expected magic line {MAGIC:?}")));
    };
    if magic.trim() != MAGIC {
        return Err(TraceError::Syntax {
            line: lines.line,
            column: 1,
            detail: format!(
                "expected magic line {MAGIC:?}, found {:?}",
                clip(magic.trim())
            ),
        });
    }

    // Kernel header.
    let Some(header) = lines.next_significant()? else {
        return Err(eof(&lines, "expected kernel header after the magic line"));
    };
    let h = parse_header(&header, lines.line)?;

    let total_warps = u64::from(h.grid_ctas) * u64::from(h.warps_per_cta);
    if total_warps > MAX_TOTAL_WARPS {
        return Err(TraceError::Limit {
            line: lines.line,
            detail: format!(
                "grid={} x warps_per_cta={} declares {total_warps} warps (limit {MAX_TOTAL_WARPS})",
                h.grid_ctas, h.warps_per_cta
            ),
        });
    }

    // Warp blocks, strictly in cta-major order.
    let mut starts: Vec<u32> = Vec::with_capacity(total_warps as usize + 1);
    let mut ops: Vec<Op> = Vec::new();
    let mut pool: Vec<LineAddr> = Vec::new();
    for cta in 0..h.grid_ctas {
        for warp in 0..h.warps_per_cta {
            parse_warp_block(&mut lines, &h, cta, warp, &mut starts, &mut ops, &mut pool)?;
        }
    }
    starts.push(len32(ops.len(), lines.line)?);

    // Nothing but blanks and comments may follow the final block.
    if let Some(extra) = lines.next_significant()? {
        return Err(TraceError::Structure {
            line: lines.line,
            detail: format!(
                "content after the final warp block: {:?}",
                clip(extra.trim())
            ),
        });
    }

    Ok(TracedKernel {
        name: h.name,
        grid_ctas: h.grid_ctas,
        warps_per_cta: h.warps_per_cta,
        max_ctas_per_core: h.max_ctas_per_core,
        shmem_bytes: h.shmem_bytes,
        line_bytes: h.line_bytes,
        starts,
        ops,
        pool,
        digest: lines.digest.finish(),
    })
}

/// Decoded `kernel` header line.
struct Header {
    name: String,
    grid_ctas: u32,
    warps_per_cta: u32,
    max_ctas_per_core: usize,
    shmem_bytes: u64,
    line_bytes: u64,
}

fn parse_header(line: &str, ln: u64) -> Result<Header, TraceError> {
    let toks = tokens(line);
    let Some(head) = toks.first() else {
        return Err(TraceError::Syntax {
            line: ln,
            column: 1,
            detail: "expected kernel header".into(),
        });
    };
    if head.text != "kernel" {
        return Err(TraceError::Syntax {
            line: ln,
            column: head.col,
            detail: format!("expected \"kernel\", found {:?}", clip(head.text)),
        });
    }
    if toks.len() != 7 {
        return Err(TraceError::Syntax {
            line: ln,
            column: toks.get(7).map_or(end_col(line), |t| t.col),
            detail: format!(
                "kernel header must be: kernel name=<n> grid=<g> warps_per_cta=<w> \
                 max_ctas_per_core=<m> shmem_bytes=<s> line_bytes=<l> (found {} fields)",
                toks.len() - 1
            ),
        });
    }

    let (name, name_col) = kv(&toks[1], "name", ln)?;
    if name.is_empty()
        || name.len() > 64
        || !name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    {
        return Err(TraceError::Syntax {
            line: ln,
            column: name_col,
            detail: format!(
                "kernel name must be 1..=64 characters of [A-Za-z0-9_.-], found {:?}",
                clip(name)
            ),
        });
    }

    let grid_ctas = pos_u32(kv(&toks[2], "grid", ln)?, ln, "grid")?;
    let warps_per_cta = pos_u32(kv(&toks[3], "warps_per_cta", ln)?, ln, "warps_per_cta")?;
    let (v, c) = kv(&toks[4], "max_ctas_per_core", ln)?;
    let max_raw = num_u64(v, ln, c, "max_ctas_per_core")?;
    // 0 means "no per-core CTA cap" (occupancy limited by hardware alone).
    let max_ctas_per_core = match max_raw {
        0 => usize::MAX,
        n => usize::try_from(n).unwrap_or(usize::MAX),
    };
    let (v, c) = kv(&toks[5], "shmem_bytes", ln)?;
    let shmem_bytes = num_u64(v, ln, c, "shmem_bytes")?;
    let (v, c) = kv(&toks[6], "line_bytes", ln)?;
    let line_bytes = num_u64(v, ln, c, "line_bytes")?;
    if !line_bytes.is_power_of_two() || !(32..=4096).contains(&line_bytes) {
        return Err(TraceError::Syntax {
            line: ln,
            column: c,
            detail: format!("line_bytes must be a power of two in 32..=4096, found {line_bytes}"),
        });
    }

    Ok(Header {
        name: name.to_owned(),
        grid_ctas,
        warps_per_cta,
        max_ctas_per_core,
        shmem_bytes,
        line_bytes,
    })
}

/// Parses one `warp … end` block, appending its window to `starts`/`ops`.
fn parse_warp_block<R: BufRead>(
    lines: &mut Lines<R>,
    h: &Header,
    cta: u32,
    warp: u32,
    starts: &mut Vec<u32>,
    ops: &mut Vec<Op>,
    pool: &mut Vec<LineAddr>,
) -> Result<(), TraceError> {
    let Some(head_line) = lines.next_significant()? else {
        return Err(eof(
            lines,
            format!("expected warp block cta={cta} warp={warp}"),
        ));
    };
    let ln = lines.line;
    let toks = tokens(&head_line);
    let Some(head) = toks.first() else {
        return Err(eof(
            lines,
            format!("expected warp block cta={cta} warp={warp}"),
        ));
    };
    if head.text != "warp" {
        return Err(TraceError::Syntax {
            line: ln,
            column: head.col,
            detail: format!(
                "expected warp block header (warp cta={cta} warp={warp}), found {:?}",
                clip(head.text)
            ),
        });
    }
    if toks.len() != 3 {
        return Err(TraceError::Syntax {
            line: ln,
            column: toks.get(3).map_or(end_col(&head_line), |t| t.col),
            detail: "warp block header must be: warp cta=<c> warp=<w>".into(),
        });
    }
    let (v, c) = kv(&toks[1], "cta", ln)?;
    let got_cta = num_u32(v, ln, c, "cta")?;
    let (v, c) = kv(&toks[2], "warp", ln)?;
    let got_warp = num_u32(v, ln, c, "warp")?;
    if (got_cta, got_warp) != (cta, warp) {
        return Err(TraceError::Structure {
            line: ln,
            detail: format!(
                "warp blocks must appear exactly once each, in cta-major order: \
                 expected cta={cta} warp={warp}, found cta={got_cta} warp={got_warp}"
            ),
        });
    }

    let block_start = ops.len();
    starts.push(len32(block_start, ln)?);
    loop {
        let Some(rec) = lines.next_significant()? else {
            return Err(eof(
                lines,
                format!("warp block cta={cta} warp={warp} is not terminated by \"end\""),
            ));
        };
        let ln = lines.line;
        let toks = tokens(&rec);
        let Some(head) = toks.first() else {
            continue;
        };
        match head.text {
            "end" => {
                only_n_tokens(&toks, 1, ln)?;
                if ops.len() == block_start {
                    return Err(TraceError::Structure {
                        line: ln,
                        detail: format!(
                            "warp block cta={cta} warp={warp} is empty \
                             (every warp must execute at least one instruction)"
                        ),
                    });
                }
                return Ok(());
            }
            "ALU" | "SHMEM" => {
                if toks.len() != 2 {
                    return Err(TraceError::Syntax {
                        line: ln,
                        column: toks.get(2).map_or(end_col(&rec), |t| t.col),
                        detail: format!("{0} record must be: {0} lat=<cycles>", head.text),
                    });
                }
                let latency = pos_u32(kv(&toks[1], "lat", ln)?, ln, "lat")?;
                ops.push(if head.text == "ALU" {
                    Op::Alu { latency }
                } else {
                    Op::Shared { latency }
                });
            }
            "LD" => {
                if toks.len() < 3 {
                    return Err(TraceError::Syntax {
                        line: ln,
                        column: end_col(&rec),
                        detail: "LD record must be: LD consume=<n> mask=<8 hex> <0xaddr>…".into(),
                    });
                }
                let consume_after = pos_u32(kv(&toks[1], "consume", ln)?, ln, "consume")?;
                let (start, len) = parse_access(&toks[2..], ln, h.line_bytes, pool)?;
                ops.push(Op::Load {
                    start,
                    len,
                    consume_after,
                });
            }
            "ST" => {
                if toks.len() < 2 {
                    return Err(TraceError::Syntax {
                        line: ln,
                        column: end_col(&rec),
                        detail: "ST record must be: ST mask=<8 hex> <0xaddr>…".into(),
                    });
                }
                let (start, len) = parse_access(&toks[1..], ln, h.line_bytes, pool)?;
                ops.push(Op::Store { start, len });
            }
            "BAR" => {
                only_n_tokens(&toks, 1, ln)?;
                ops.push(Op::Barrier);
            }
            other => {
                return Err(TraceError::Syntax {
                    line: ln,
                    column: head.col,
                    detail: format!(
                        "unknown record {:?} (expected ALU, SHMEM, LD, ST, BAR or end)",
                        clip(other)
                    ),
                });
            }
        }
        let in_block = (ops.len() - block_start) as u64;
        if in_block > MAX_WARP_INSTRS {
            return Err(TraceError::Limit {
                line: ln,
                detail: format!(
                    "warp block cta={cta} warp={warp} exceeds {MAX_WARP_INSTRS} instructions"
                ),
            });
        }
        if ops.len() as u64 > MAX_TOTAL_INSTRS {
            return Err(TraceError::Limit {
                line: ln,
                detail: format!("trace exceeds {MAX_TOTAL_INSTRS} total instructions"),
            });
        }
    }
}

/// Parses `mask=<8 hex> <0xaddr>…`, lowers the addresses to distinct
/// cache lines in first-touch order, appends them to the pool and returns
/// the `(start, len)` window.
fn parse_access(
    toks: &[Tok<'_>],
    ln: u64,
    line_bytes: u64,
    pool: &mut Vec<LineAddr>,
) -> Result<(u32, u8), TraceError> {
    let Some(mask_tok) = toks.first() else {
        return Err(TraceError::Syntax {
            line: ln,
            column: 1,
            detail: "expected mask=<8 hex digits>".into(),
        });
    };
    let (mv, mc) = kv(mask_tok, "mask", ln)?;
    if mv.len() != 8 || !mv.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(TraceError::Syntax {
            line: ln,
            column: mc,
            detail: format!("mask must be exactly 8 hex digits, found {:?}", clip(mv)),
        });
    }
    let mask = u32::from_str_radix(mv, 16).map_err(|_| TraceError::Syntax {
        line: ln,
        column: mc,
        detail: format!("mask does not parse as hex: {:?}", clip(mv)),
    })?;
    if mask == 0 {
        return Err(TraceError::Syntax {
            line: ln,
            column: mc,
            detail: "mask must have at least one active lane".into(),
        });
    }
    let lanes = mask.count_ones() as usize;
    let addrs = &toks[1..];
    if addrs.len() != lanes {
        return Err(TraceError::Structure {
            line: ln,
            detail: format!(
                "active mask {mv} has {lanes} lanes but {} addresses follow \
                 (one address per active lane)",
                addrs.len()
            ),
        });
    }

    let start = len32(pool.len(), ln)?;
    let mut len: u8 = 0;
    for tok in addrs {
        let Some(hex) = tok.text.strip_prefix("0x") else {
            return Err(TraceError::Syntax {
                line: ln,
                column: tok.col,
                detail: format!(
                    "address must be 0x-prefixed hex, found {:?}",
                    clip(tok.text)
                ),
            });
        };
        if hex.is_empty() || hex.len() > 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(TraceError::Syntax {
                line: ln,
                column: tok.col,
                detail: format!(
                    "address must be 1..=16 hex digits after 0x, found {:?}",
                    clip(tok.text)
                ),
            });
        }
        let addr = u64::from_str_radix(hex, 16).map_err(|_| TraceError::Syntax {
            line: ln,
            column: tok.col,
            detail: format!("address does not parse as hex: {:?}", clip(tok.text)),
        })?;
        let lane_line = LineAddr::new(addr / line_bytes);
        // First-touch dedup over at most 32 lanes: the linear scan is the
        // same coalescing order the synthetic generators produce.
        let window = pool.get(start as usize..).unwrap_or(&[]);
        if !window.contains(&lane_line) {
            pool.push(lane_line);
            len += 1;
        }
    }
    Ok((start, len))
}

/// A whitespace-delimited token with its 1-based byte column.
struct Tok<'a> {
    text: &'a str,
    col: u32,
}

fn tokens(line: &str) -> Vec<Tok<'_>> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes.get(i).is_some_and(u8::is_ascii_whitespace) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && !bytes.get(i).is_some_and(u8::is_ascii_whitespace) {
            i += 1;
        }
        if let Some(text) = line.get(start..i) {
            out.push(Tok {
                text,
                col: start as u32 + 1,
            });
        }
    }
    out
}

/// Splits a `key=value` token, returning the value and its column.
fn kv<'a>(tok: &Tok<'a>, key: &str, ln: u64) -> Result<(&'a str, u32), TraceError> {
    match tok.text.strip_prefix(key).and_then(|r| r.strip_prefix('=')) {
        Some(v) if !v.is_empty() => Ok((v, tok.col + key.len() as u32 + 1)),
        _ => Err(TraceError::Syntax {
            line: ln,
            column: tok.col,
            detail: format!("expected {key}=<value>, found {:?}", clip(tok.text)),
        }),
    }
}

fn num_u64(v: &str, ln: u64, col: u32, what: &str) -> Result<u64, TraceError> {
    v.parse::<u64>().map_err(|_| TraceError::Syntax {
        line: ln,
        column: col,
        detail: format!("{what} must be an unsigned integer, found {:?}", clip(v)),
    })
}

fn num_u32(v: &str, ln: u64, col: u32, what: &str) -> Result<u32, TraceError> {
    v.parse::<u32>().map_err(|_| TraceError::Syntax {
        line: ln,
        column: col,
        detail: format!(
            "{what} must be an unsigned 32-bit integer, found {:?}",
            clip(v)
        ),
    })
}

/// Parses a `key=value` pair as a u32 that must be ≥ 1.
fn pos_u32((v, col): (&str, u32), ln: u64, what: &str) -> Result<u32, TraceError> {
    let n = num_u32(v, ln, col, what)?;
    if n == 0 {
        return Err(TraceError::Syntax {
            line: ln,
            column: col,
            detail: format!("{what} must be >= 1"),
        });
    }
    Ok(n)
}

fn only_n_tokens(toks: &[Tok<'_>], n: usize, ln: u64) -> Result<(), TraceError> {
    match toks.get(n) {
        None => Ok(()),
        Some(extra) => Err(TraceError::Syntax {
            line: ln,
            column: extra.col,
            detail: format!("unexpected token {:?}", clip(extra.text)),
        }),
    }
}

fn len32(n: usize, ln: u64) -> Result<u32, TraceError> {
    u32::try_from(n).map_err(|_| TraceError::Limit {
        line: ln,
        detail: format!("decoded table index {n} exceeds u32"),
    })
}

fn eof<R>(lines: &Lines<R>, detail: impl Into<String>) -> TraceError {
    TraceError::UnexpectedEof {
        line: lines.line + 1,
        detail: detail.into(),
    }
}

fn end_col(line: &str) -> u32 {
    line.len() as u32 + 1
}

/// Clips arbitrary (possibly attacker-controlled) text for an error
/// message.
fn clip(s: &str) -> String {
    if s.len() <= 40 {
        return s.to_owned();
    }
    let mut end = 40;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", s.get(..end).unwrap_or_default())
}

/// Line-at-a-time reader: tracks the 1-based line number and digests every
/// raw byte consumed.
struct Lines<R> {
    reader: R,
    buf: Vec<u8>,
    line: u64,
    digest: Fnv128,
}

impl<R: BufRead> Lines<R> {
    fn new(reader: R) -> Lines<R> {
        Lines {
            reader,
            buf: Vec::new(),
            line: 0,
            digest: Fnv128::new(),
        }
    }

    /// Next raw line without its newline, or `None` at end of input.
    fn next(&mut self) -> Result<Option<String>, TraceError> {
        self.buf.clear();
        let n = self
            .reader
            .read_until(b'\n', &mut self.buf)
            .map_err(|e| TraceError::Io {
                detail: e.to_string(),
            })?;
        if n == 0 {
            return Ok(None);
        }
        self.line += 1;
        if n > MAX_LINE_BYTES {
            return Err(TraceError::Limit {
                line: self.line,
                detail: format!("line is {n} bytes (limit {MAX_LINE_BYTES})"),
            });
        }
        self.digest.update(&self.buf);
        let mut bytes = self.buf.as_slice();
        if let Some(b) = bytes.strip_suffix(b"\n") {
            bytes = b;
        }
        if let Some(b) = bytes.strip_suffix(b"\r") {
            bytes = b;
        }
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(Some(s.to_owned())),
            Err(e) => Err(TraceError::Syntax {
                line: self.line,
                column: e.valid_up_to() as u32 + 1,
                detail: "line is not valid UTF-8".into(),
            }),
        }
    }

    /// Next line that is neither blank nor a `#` comment.
    fn next_significant(&mut self) -> Result<Option<String>, TraceError> {
        loop {
            match self.next()? {
                None => return Ok(None),
                Some(s) => {
                    let t = s.trim_start();
                    if t.is_empty() || t.starts_with('#') {
                        continue;
                    }
                    return Ok(Some(s));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumem_simt::{KernelProgram, WarpInstr};
    use gpumem_types::CtaId;

    const OK: &str = "\
gpumem-trace v1
# a comment
kernel name=demo grid=2 warps_per_cta=1 max_ctas_per_core=0 shmem_bytes=2048 line_bytes=128

warp cta=0 warp=0
LD consume=2 mask=00000003 0x0 0x80
ALU lat=4
BAR
end
warp cta=1 warp=0
ST mask=00000001 0x100
end
";

    #[test]
    fn accepts_the_reference_trace() {
        let k = parse_str(OK).expect("reference trace must parse");
        assert_eq!(k.name(), "demo");
        assert_eq!(k.grid_ctas(), 2);
        assert_eq!(k.warps_per_cta(), 1);
        assert_eq!(k.max_ctas_per_core(), usize::MAX);
        assert_eq!(k.shmem_bytes(), 2048);
        assert_eq!(k.line_bytes(), 128);
        assert_eq!(k.instr(CtaId::new(0), 0, 3), None);
        assert_eq!(k.instr(CtaId::new(1), 0, 1), None);
        assert_eq!(
            k.instr(CtaId::new(0), 0, 0),
            Some(WarpInstr::Load {
                lines: vec![
                    gpumem_types::LineAddr::new(0),
                    gpumem_types::LineAddr::new(1)
                ],
                consume_after: 2,
            })
        );
        assert_eq!(k.instr(CtaId::new(0), 0, 2), Some(WarpInstr::Barrier));
        assert_eq!(
            k.instr(CtaId::new(1), 0, 0),
            Some(WarpInstr::Store {
                lines: vec![gpumem_types::LineAddr::new(2)],
            })
        );
    }

    #[test]
    fn digest_is_content_addressed() {
        let a = parse_str(OK).expect("parses");
        let b = parse_str(OK).expect("parses");
        assert_eq!(a.digest(), b.digest());
        let other = OK.replace("lat=4", "lat=5");
        let c = parse_str(&other).expect("parses");
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn duplicate_lines_coalesce_first_touch() {
        let t = OK.replace("mask=00000003 0x0 0x80", "mask=00000007 0x80 0x0 0x84");
        let k = parse_str(&t).expect("parses");
        assert_eq!(
            k.instr(CtaId::new(0), 0, 0),
            Some(WarpInstr::Load {
                lines: vec![
                    gpumem_types::LineAddr::new(1),
                    gpumem_types::LineAddr::new(0)
                ],
                consume_after: 2,
            })
        );
    }

    #[test]
    fn out_of_order_blocks_are_structure_errors() {
        let t = OK
            .replace("warp cta=0 warp=0", "warp cta=1 warp=0")
            .replace("warp cta=1 warp=0\nST", "warp cta=0 warp=0\nST");
        match parse_str(&t) {
            Err(TraceError::Structure { line, .. }) => assert_eq!(line, 5),
            other => panic!("expected Structure error, got {other:?}"),
        }
    }

    #[test]
    fn mask_address_mismatch_is_a_structure_error() {
        let t = OK.replace("mask=00000003 0x0 0x80", "mask=00000003 0x0");
        match parse_str(&t) {
            Err(TraceError::Structure { line, detail }) => {
                assert_eq!(line, 6);
                assert!(detail.contains("2 lanes"), "{detail}");
            }
            other => panic!("expected Structure error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_an_eof_error() {
        let cut = OK.find("warp cta=1").expect("marker");
        match parse_str(&OK[..cut]) {
            Err(TraceError::UnexpectedEof { line, .. }) => assert_eq!(line, 10),
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
    }

    #[test]
    fn zero_mask_and_bad_numbers_are_syntax_errors() {
        for (needle, replacement) in [
            ("mask=00000003", "mask=00000000"),
            ("mask=00000003", "mask=0003"),
            ("lat=4", "lat=banana"),
            ("lat=4", "lat=0"),
            ("consume=2", "consume=0"),
            ("0x80", "80"),
            ("grid=2", "grid=0"),
            ("line_bytes=128", "line_bytes=100"),
        ] {
            let t = OK.replacen(needle, replacement, 1);
            match parse_str(&t) {
                Err(TraceError::Syntax { .. }) => {}
                other => panic!("{needle} -> {replacement}: expected Syntax, got {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_content_is_rejected_but_comments_are_not() {
        assert!(parse_str(&format!("{OK}\n# trailing comment\n\n")).is_ok());
        match parse_str(&format!("{OK}ALU lat=1\n")) {
            Err(TraceError::Structure { line, .. }) => assert_eq!(line, 13),
            other => panic!("expected Structure, got {other:?}"),
        }
    }

    #[test]
    fn crlf_line_endings_parse() {
        let t = OK.replace('\n', "\r\n");
        assert!(parse_str(&t).is_ok());
    }

    #[test]
    fn wrong_magic_is_rejected_at_line_one() {
        match parse_str("accel-sim v9\n") {
            Err(TraceError::Syntax { line: 1, .. }) => {}
            other => panic!("expected Syntax at line 1, got {other:?}"),
        }
    }
}
