//! Span recording around the benchmark's calls into each layer.
//!
//! Spans live in memory while a traced run measures and are written
//! out once it ends, as Chrome trace-event JSON (loadable in Perfetto
//! or `chrome://tracing`). A disabled [`Tracer`] records nothing, so
//! the untraced runs that give the end-to-end metrics pay one branch
//! per layer call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One timed layer call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `lang.parse`.
    pub name: &'static str,
    /// Start, ns since the trace origin.
    pub start_ns: u64,
    /// End, ns since the trace origin.
    pub end_ns: u64,
    /// The span this call happened inside.
    pub parent: Option<SpanId>,
    /// The job the call served.
    pub job: u64,
    /// Recording thread (0 = main).
    pub tid: u32,
}

/// A per-thread span recorder. Tracers that share an origin merge into
/// one timeline with [`merge`].
#[derive(Debug, Clone)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer { on, origin, tid: 0, spans: Vec::new() }
    }

    /// An empty tracer for another thread, on the same timeline.
    pub fn fork(&self, tid: u32) -> Self {
        Tracer { on: self.on, origin: self.origin, tid, spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, job: u64) -> SpanId {
        if !self.on {
            return 0;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, job, tid: self.tid });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if self.on {
            let now = self.ns(Instant::now());
            self.spans[id].end_ns = now;
        }
    }

    /// Records a span whose bounds were taken elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        job: u64,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, job, tid: self.tid });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, job);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Merges per-thread tracers into one span list. Parent links are
/// rebased; a span recorded without a parent on a thread other than
/// the one that owns its job's `job` span is attached to that span.
pub fn merge(tracers: Vec<Tracer>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for t in tracers {
        let base = out.len();
        out.extend(t.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    let roots: BTreeMap<u64, SpanId> =
        out.iter().enumerate().filter(|(_, s)| s.name == "job").map(|(i, s)| (s.job, i)).collect();
    for (i, s) in out.iter_mut().enumerate() {
        if s.parent.is_none() && s.name != "job" {
            s.parent = roots.get(&s.job).copied().filter(|&r| r != i);
        }
    }
    out
}

/// Per-span self time, ns: the span's duration minus the part of it
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            let (lo, hi) = (s.start_ns.max(ps.start_ns), s.end_ns.min(ps.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut iv)| {
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (lo, hi) in iv {
                match cur {
                    Some((clo, chi)) if lo <= chi => cur = Some((clo, chi.max(hi))),
                    Some((clo, chi)) => {
                        covered += chi - clo;
                        cur = Some((lo, hi));
                    }
                    None => cur = Some((lo, hi)),
                }
            }
            if let Some((clo, chi)) = cur {
                covered += chi - clo;
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded.
    pub count: usize,
    /// Summed duration, ms.
    pub total_ms: f64,
    /// Summed self time, ms.
    pub self_ms: f64,
}

/// Aggregates spans by name, largest self time first.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let selfs = self_times(spans);
    let mut by: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let row = by.entry(s.name).or_insert(LayerRow {
            name: s.name,
            count: 0,
            total_ms: 0.0,
            self_ms: 0.0,
        });
        row.count += 1;
        row.total_ms += (s.end_ns - s.start_ns) as f64 / 1e6;
        row.self_ms += own as f64 / 1e6;
    }
    let mut rows: Vec<LayerRow> = by.into_values().collect();
    rows.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
    rows
}

/// Median duration (µs) of the spans named `name`; 0 when none.
pub fn median_us(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    if d.is_empty() {
        0.0
    } else {
        crate::stats::median(&d)
    }
}

/// Mean over jobs of each job's median duration (µs) of the spans
/// named `name`; 0 when none.
pub fn job_mean_us(spans: &[Span], name: &str) -> f64 {
    let mut by: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        by.entry(s.job).or_default().push((s.end_ns - s.start_ns) as f64 / 1e3);
    }
    if by.is_empty() {
        return 0.0;
    }
    by.values().map(|d| crate::stats::median(d)).sum::<f64>() / by.len() as f64
}

/// The spans as Chrome trace-event JSON ("X" complete events, µs).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut s = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            s,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"job\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            sp.name,
            sp.tid,
            sp.start_ns as f64 / 1e3,
            (sp.end_ns - sp.start_ns) as f64 / 1e3,
            i,
            parent,
            sp.job
        );
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns, end_ns, parent, job: 1, tid: 0 }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Parent 0..100; children 10..40 and 30..60 overlap on 30..40,
        // so they cover 10..60 = 50 ns; a third child 90..120 sticks
        // out of the parent and only 90..100 counts.
        let spans = vec![
            sp("job", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("b", 30, 60, Some(0)),
            sp("c", 90, 120, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 50 - 10);
        assert_eq!(st[1], 30);
        assert_eq!(st[2], 30);
        assert_eq!(st[3], 30);
    }

    #[test]
    fn self_time_ignores_grandchildren_and_nests() {
        let spans = vec![
            sp("job", 0, 100, None),
            sp("exec", 20, 80, Some(0)),
            sp("plan", 20, 30, Some(1)),
            sp("plan", 25, 35, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 40);
        assert_eq!(st[1], 60 - 15);
        let table = layer_table(&spans);
        let exec = table.iter().find(|r| r.name == "exec").expect("exec row");
        assert!((exec.self_ms - 45e-6).abs() < 1e-12);
        let plan = table.iter().find(|r| r.name == "plan").expect("plan row");
        assert_eq!(plan.count, 2);
    }

    #[test]
    fn merge_attaches_cross_thread_spans_to_their_job() {
        let origin = Instant::now();
        let mut main = Tracer::new(true, origin);
        let mut other = main.fork(1);
        let t0 = Instant::now();
        let sub = other.begin("daemon.submit", None, 7);
        other.end(sub);
        let root = main.record("job", t0, Instant::now(), None, 7);
        assert_eq!(root, 0);
        let spans = merge(vec![main, other]);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        let json = chrome_json(&spans);
        assert!(json.contains("\"name\":\"daemon.submit\""));
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let v = t.span("lang.parse", None, 1, || 5);
        assert_eq!(v, 5);
        assert!(t.spans().is_empty());
    }
}
