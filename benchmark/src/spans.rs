//! Benchmark-side spans: one record per call into a layer, taken from
//! outside the program and kept in memory until the run ends.
//!
//! A disabled log costs one branch per boundary, which is how the
//! end-to-end runs are "measured with tracing off" while sharing the pass
//! code with the traced run.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;

/// One timed interval around a call into a layer.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    /// Index of this span in the log.
    pub id: u32,
    /// Layer-qualified name, e.g. `sim.run`.
    pub name: String,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Identifier shared by every span of one operation (one simulation,
    /// one sweep call).
    pub op: u32,
    /// Start, in ns since the log was created.
    pub start_ns: u64,
    /// End, in ns since the log was created.
    pub end_ns: u64,
}

/// Handle returned by [`SpanLog::enter`]; `None` when the log is off.
pub type SpanId = Option<u32>;

/// An in-memory span recorder.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A recording log.
    pub fn enabled() -> SpanLog {
        SpanLog {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A log that records nothing.
    pub fn disabled() -> SpanLog {
        SpanLog {
            enabled: false,
            ..SpanLog::enabled()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`SpanLog::exit`].
    pub fn enter(&mut self, name: &str, parent: SpanId, op: u32) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name: name.to_owned(),
            parent,
            op,
            start_ns,
            end_ns: start_ns,
        });
        Some(id)
    }

    /// Closes a span opened by [`SpanLog::enter`].
    pub fn exit(&mut self, id: SpanId) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, summed over the log, in ns.
    pub fn self_ns_by_name(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            *out.entry(span.name.clone()).or_insert(0) += self_ns;
        }
        out
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(frontier);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: format!("s{id}"),
            parent,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_sibling_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn self_time_subtracts_only_direct_children_when_nested() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 20, 80),
            span(2, Some(1), 30, 50),
        ];
        // The grandchild is inside the child's interval: the root loses 60,
        // the child loses 20.
        assert_eq!(self_times(&spans), vec![40, 40, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(0), 40, 80),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::disabled();
        let id = log.enter("x", None, 0);
        log.exit(id);
        assert_eq!(id, None);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn enabled_log_links_parent_and_operation() {
        let mut log = SpanLog::enabled();
        let root = log.enter("op", None, 7);
        let child = log.enter("sim.run", root, 7);
        log.exit(child);
        log.exit(root);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let by_name = log.self_ns_by_name();
        assert_eq!(by_name.len(), 2);
    }
}
