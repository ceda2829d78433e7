//! The benchmark-side span recorder of the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each crate's public functions: `{name, start_ns, end_ns, parent,
//! op_id}`, kept in memory and written out once at exit. A layer's self
//! time is its span's duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The operation this span belongs to; spans of one operation share it.
    pub op_id: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store with a stack of open spans. A disabled recorder
/// runs the same code and records nothing, which is how the traced pass
/// times the identical decomposed operations untraced.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u32,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    pub fn disabled() -> Recorder {
        Recorder { enabled: false, ..Recorder::new() }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The clock handler spans are stamped against (see `Timed`).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn set_op(&mut self, op_id: u32) {
        self.op_id = op_id;
    }

    /// Time `f` as a span named `name` under the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Attach already-measured child intervals (message handlers stamped
    /// inside `Network::run_to_quiescence`) under the innermost open span.
    pub fn add_children(&mut self, name: &'static str, intervals: &[(u64, u64)]) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        for &(start_ns, end_ns) in intervals {
            self.spans.push(Span { name, start_ns, end_ns, parent, op_id: self.op_id });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: duration minus the durations of its direct
/// children (children never overlap: the recorder is single-threaded and
/// properly nested). Saturates at 0 against clock jitter.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration());
        }
    }
    own
}

/// Per span name: how many spans, their total duration and total self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration();
        t.self_ns += self_ns;
    }
    out
}

/// At most this many spans are written to `trace-<workload>.json`; the
/// totals cover all of them.
pub const MAX_SPANS_WRITTEN: usize = 40_000;

/// Serialize the trace: the first [`MAX_SPANS_WRITTEN`] spans verbatim and
/// the per-name totals over all spans.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 * spans.len().min(MAX_SPANS_WRITTEN) + 1024);
    out.push_str(&format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans_recorded\":{},\"spans_written\":{},\n\"totals_by_name\":{{",
        spans.len(),
        spans.len().min(MAX_SPANS_WRITTEN)
    ));
    let totals = totals_by_name(spans);
    let rows: Vec<String> = totals
        .iter()
        .map(|(name, t)| {
            format!(
                "\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            )
        })
        .collect();
    out.push_str(&rows.join(","));
    out.push_str("},\n\"spans\":[\n");
    for (id, s) in spans.iter().take(MAX_SPANS_WRITTEN).enumerate() {
        if id > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op_id
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op_id: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) > run [10,90) > handler [20,30), handler [40,70);
        // op also has build [90,98).
        let spans = vec![
            span("op", 0, 100, None),
            span("run", 10, 90, Some(0)),
            span("handler", 20, 30, Some(1)),
            span("handler", 40, 70, Some(1)),
            span("build", 90, 98, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 80 - 8, 80 - 10 - 30, 10, 30, 8]);
        let t = totals_by_name(&spans);
        assert_eq!(t["handler"], NameTotals { count: 2, total_ns: 40, self_ns: 40 });
        assert_eq!(t["run"], NameTotals { count: 1, total_ns: 80, self_ns: 40 });
        assert_eq!(t["op"].self_ns, 12);
        // Self times partition the root span.
        let sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn self_time_saturates_when_children_overrun() {
        let spans = vec![span("p", 0, 10, None), span("c", 0, 12, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 12]);
    }

    #[test]
    fn recorder_nests_and_tags_operations() {
        let mut r = Recorder::new();
        r.set_op(7);
        r.span("op", |r| {
            r.span("a", |_| ());
            r.span("b", |r| {
                let t = r.now_ns();
                r.add_children("h", &[(t, t + 1), (t + 1, t + 3)]);
            });
        });
        let s = r.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!((s[3].name, s[3].parent), ("h", Some(2)));
        assert_eq!(s[4].duration(), 2);
        assert!(s.iter().all(|x| x.op_id == 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
    }

    #[test]
    fn disabled_recorder_runs_the_code_and_records_nothing() {
        let mut r = Recorder::disabled();
        let out = r.span("op", |r| {
            r.add_children("h", &[(0, 1)]);
            r.span("a", |_| 41) + 1
        });
        assert_eq!(out, 42);
        assert!(r.spans().is_empty() && !r.is_enabled());
    }

    #[test]
    fn json_lists_every_field() {
        let spans = vec![span("op", 0, 9, None), span("x", 1, 4, Some(0))];
        let j = to_json("solo_cold", 3, &spans);
        assert!(j.contains("\"spans_recorded\":2"));
        assert!(j.contains(
            "{\"id\":1,\"name\":\"x\",\"start_ns\":1,\"end_ns\":4,\"parent\":0,\"op_id\":0}"
        ));
        assert!(j.contains("\"op\":{\"count\":1,\"total_ns\":9,\"self_ns\":6}"));
    }
}
