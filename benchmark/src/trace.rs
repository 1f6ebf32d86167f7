//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; nothing inside the program under test is
//! instrumented. A span carries its name, start, end, the span that
//! caused it, and the utterance (operation) it belongs to. They are kept
//! in memory and written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

/// The parent of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub utt: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span store. A disabled tracer records nothing, so the same driver
/// code serves the untraced end-to-end rounds.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished interval; returns its id ([`NO_PARENT`] when
    /// the tracer is disabled, which is harmless as a parent).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        utt: u32,
    ) -> SpanId {
        if !self.enabled {
            return NO_PARENT;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            utt,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span whose children will be recorded before it ends;
    /// close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, parent: SpanId, utt: u32) -> SpanId {
        self.record(name, start, start, parent, utt)
    }

    pub fn close(&mut self, id: SpanId, end: Instant) {
        if self.enabled {
            let end_ns = self.ns(end);
            self.spans[id as usize].end_ns = end_ns;
        }
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover. Children may overlap each other (the two
/// halves of a fork-join run in parallel), so their intervals are merged
/// before subtracting, and clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            children[span.parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Serializes the spans as one JSON document (`{"workload", "spans":
/// [{name, start_ns, end_ns, parent, utt}]}`; a root's parent is `null`).
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    let _ = write!(out, "{{\"workload\": \"{workload}\", \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let parent = if s.parent == NO_PARENT {
            "null".to_owned()
        } else {
            s.parent.to_string()
        };
        let _ = write!(
            out,
            "{sep}{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"utt\": {}}}",
            s.name, s.start_ns, s.end_ns, s.utt
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            utt: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(0, 100, NO_PARENT), // root
            span(10, 30, 0),         // sequential child
            span(40, 70, 0),         // sequential child with a grandchild
            span(45, 50, 2),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 20 - 30, 20, 30 - 5, 5]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span(100, 200, NO_PARENT),
            // The two halves of a fork-join overlap on [120, 150).
            span(110, 150, 0),
            span(120, 180, 0),
            // A child recorded past its parent's end (clock skew between
            // threads) only covers up to the parent's end.
            span(190, 230, 0),
        ];
        // Covered: [110, 180) = 70 and [190, 200) = 10.
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        let id = t.open("a", now, NO_PARENT, 0);
        t.record("b", now, now, id, 0);
        t.close(id, now);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_serialize_with_null_root_parents() {
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        let root = t.open("root", t0, NO_PARENT, 7);
        t.record("child", t0, t0, root, 7);
        t.close(root, Instant::now());
        let json = to_json("w", t.spans());
        let doc = crate::json::parse(&json).expect("valid JSON");
        let spans = doc.get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent"), Some(&crate::json::Value::Null));
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[1].get("utt").unwrap().as_f64(), Some(7.0));
    }
}
