//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer; nothing inside the program is instrumented. They stay
//! in memory until the run ends and are then written out as JSON lines.
//! A layer's self time is its span's duration minus its children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.build`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request identity shared by every span of one service request:
    /// the digest of the job's request line (0 outside the service).
    pub key: u64,
    /// `(client, sequence)` of the request this span belongs to.
    pub req: Option<(usize, u64)>,
    /// Counters read at the span's boundary.
    pub attrs: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Thread-safe span store.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// Per-name totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerSummary {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
    /// Median duration, ns.
    pub p50_ns: f64,
}

impl Tracer {
    /// Nanoseconds since the tracer's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Store a finished span; returns its index.
    pub fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Record `[start, now)` as `name` under `parent`.
    pub fn record(&self, name: &'static str, start: u64, parent: Option<usize>) -> usize {
        self.push(Span {
            name,
            start,
            end: self.now(),
            parent,
            key: 0,
            req: None,
            attrs: Vec::new(),
        })
    }

    /// Open a span whose children are recorded before it ends.
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.push(Span {
            name,
            start,
            end: start,
            parent,
            key: 0,
            req: None,
            attrs: Vec::new(),
        })
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&self, id: usize) {
        let end = self.now();
        self.spans.lock().expect("span store poisoned")[id].end = end;
    }

    /// Attach counters to a recorded span.
    pub fn annotate(&self, id: usize, attrs: Vec<(&'static str, u64)>) {
        self.spans.lock().expect("span store poisoned")[id].attrs = attrs;
    }

    /// Take every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// Give each unparented span whose name starts with `child_prefix` the
/// request span (named `parent`) with the same key whose interval
/// contains it. Returns the number of such spans no request claimed.
pub fn link_requests(spans: &mut [Span], parent: &str, child_prefix: &str) -> usize {
    let mut by_key: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == parent {
            by_key.entry(s.key).or_default().push(i);
        }
    }
    let mut orphans = 0;
    for i in 0..spans.len() {
        if spans[i].parent.is_some() || !spans[i].name.starts_with(child_prefix) {
            continue;
        }
        let (start, end, key) = (spans[i].start, spans[i].end, spans[i].key);
        let found = by_key.get(&key).and_then(|cands| {
            cands
                .iter()
                .copied()
                .find(|&p| spans[p].start <= start && end <= spans[p].end)
        });
        match found {
            Some(p) => {
                spans[i].parent = Some(p);
                spans[i].req = spans[p].req;
            }
            None => orphans += 1,
        }
    }
    orphans
}

/// Self time of every span (duration minus its children's), and the
/// spans whose children overlap each other or leave the parent's
/// interval — for those the self times would not add up to the parent.
pub fn self_times(spans: &[Span]) -> (Vec<u64>, Vec<usize>) {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut selfs = Vec::with_capacity(spans.len());
    let mut bad = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let mut kids: Vec<&Span> = children[i].iter().map(|&c| &spans[c]).collect();
        kids.sort_by_key(|k| k.start);
        let mut cursor = s.start;
        let mut covered = 0u64;
        let mut ok = true;
        for k in &kids {
            if k.start < cursor || k.end > s.end {
                ok = false;
            }
            covered += k.dur();
            cursor = cursor.max(k.end);
        }
        if !ok {
            bad.push(i);
        }
        selfs.push(s.dur().saturating_sub(covered));
    }
    (selfs, bad)
}

/// Count, total, self time and median per span name.
pub fn summarize(spans: &[Span], selfs: &[u64]) -> BTreeMap<&'static str, LayerSummary> {
    let mut durs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut out: BTreeMap<&'static str, LayerSummary> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur();
        e.self_ns += own;
        durs.entry(s.name).or_default().push(s.dur() as f64);
    }
    for (name, d) in durs {
        out.get_mut(name).expect("entry made above").p50_ns = crate::stats::median(&d);
    }
    out
}

/// Render spans as JSON lines (one object per span).
pub fn to_jsonl(spans: &[Span], selfs: &[u64]) -> String {
    let mut out = String::new();
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        let _ = write!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}",
            s.name, s.start, s.end
        );
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{p}");
        }
        if s.key != 0 {
            let _ = write!(out, ",\"key\":\"{:016x}\"", s.key);
        }
        if let Some((c, seq)) = s.req {
            let _ = write!(out, ",\"client\":{c},\"seq\":{seq}");
        }
        for (k, v) in &s.attrs {
            let _ = write!(out, ",\"{k}\":{v}");
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, key: u64) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            key,
            req: None,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_times_add_up_to_the_parent() {
        let spans = vec![
            span("job", 0, 100, None, 0),
            span("a", 10, 30, Some(0), 0),
            span("b", 40, 90, Some(0), 0),
        ];
        let (selfs, bad) = self_times(&spans);
        assert!(bad.is_empty());
        assert_eq!(selfs, vec![30, 20, 50]);
        assert_eq!(selfs.iter().sum::<u64>(), spans[0].dur());
    }

    #[test]
    fn overlapping_children_are_flagged() {
        let spans = vec![
            span("job", 0, 100, None, 0),
            span("a", 10, 50, Some(0), 0),
            span("b", 40, 90, Some(0), 0),
        ];
        assert_eq!(self_times(&spans).1, vec![0]);
    }

    #[test]
    fn handler_spans_link_to_the_enclosing_request_with_their_key() {
        let mut spans = vec![
            span("serve.request", 0, 100, None, 7),
            span("serve.request", 200, 300, None, 7),
            span("handler.run_cold", 210, 290, None, 7),
            span("handler.fingerprint", 5, 8, None, 9),
        ];
        spans[0].req = Some((0, 1));
        spans[1].req = Some((0, 2));
        assert_eq!(link_requests(&mut spans, "serve.request", "handler."), 1);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].req, Some((0, 2)));
        assert_eq!(spans[3].parent, None, "a different key never links");
    }
}
