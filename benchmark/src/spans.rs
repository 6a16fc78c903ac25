//! Spans recorded around calls into the simulator's public API.
//!
//! A span is one timed call: name, start, end, the span that caused it,
//! and the request (operation) it belongs to. Spans stay in memory and
//! are written as JSONL when the run ends. A layer's self time is its
//! spans' duration minus the part of each interval its child spans
//! cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;
use sweep_runner::json::Value;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn to_value(&self) -> Value {
        Value::object()
            .with("id", Value::u64(self.id))
            .with("parent", self.parent.map_or(Value::Null, Value::u64))
            .with("request", Value::u64(self.request))
            .with("name", Value::str(&*self.name))
            .with("start_ns", Value::u64(self.start_ns))
            .with("end_ns", Value::u64(self.end_ns))
    }

    pub fn from_value(v: &Value) -> Option<Span> {
        Some(Span {
            id: v.get("id")?.as_u64()?,
            parent: match v.get("parent")? {
                Value::Null => None,
                p => Some(p.as_u64()?),
            },
            request: v.get("request")?.as_u64()?,
            name: v.get("name")?.as_str()?.to_owned(),
            start_ns: v.get("start_ns")?.as_u64()?,
            end_ns: v.get("end_ns")?.as_u64()?,
        })
    }
}

/// Records nested spans on one thread. A disabled tracer records
/// nothing and costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    open: Vec<(u64, u64, &'static str, u64)>,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose span ids start at `first_id`, so tracers of
    /// different threads or processes never collide. All tracers of one
    /// run share `epoch`.
    pub fn new(enabled: bool, epoch: Instant, first_id: u64) -> Tracer {
        Tracer {
            enabled,
            epoch,
            next_id: first_id,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let start = self.now_ns();
        self.open.push((id, request, name, start));
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (a begin/end mismatch in this
    /// program).
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let (id, request, name, start_ns) = self.open.pop().expect("end without begin");
        self.spans.push(Span {
            id,
            parent: self.open.last().map(|o| o.0),
            request,
            name: name.to_owned(),
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, request);
        let out = f();
        self.end();
        out
    }
}

/// Per-name totals: (span count, summed duration, summed self time), ns.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0u64, s.start_ns);
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Folds spans into per-name totals.
pub fn totals(spans: &[Span]) -> BTreeMap<String, SpanTotals> {
    let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// Writes spans as JSONL, one object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(out, "{}", s.to_value().to_json())?;
    }
    out.flush()
}

/// Reads spans written by [`write_jsonl`].
pub fn read_jsonl(path: &Path) -> Result<Vec<Span>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            Value::parse(line)
                .ok()
                .as_ref()
                .and_then(Span::from_value)
                .ok_or_else(|| format!("{}: malformed span {line:?}", path.display()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: name.to_owned(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_coverage() {
        let spans = vec![
            span(1, None, "cell", 0, 100),
            // Overlapping children count once; the one past the
            // parent's end is clipped to it.
            span(2, Some(1), "step", 10, 30),
            span(3, Some(1), "step", 20, 40),
            span(4, Some(1), "finish", 90, 120),
            // A grandchild is its parent's business, not the root's.
            span(5, Some(2), "leaf", 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 20, 30, 6]);
        let t = totals(&spans);
        assert_eq!(
            t["step"],
            SpanTotals {
                count: 2,
                total_ns: 40,
                self_ns: 34
            }
        );
        assert_eq!(t["cell"].self_ns, 60);
    }

    #[test]
    fn tracer_nests_and_round_trips_through_jsonl() {
        let mut t = Tracer::new(true, Instant::now(), 100);
        t.begin("outer", 7);
        t.span("inner", 7, || ());
        t.end();
        assert_eq!(t.spans.len(), 2);
        let (inner, outer) = (&t.spans[0], &t.spans[1]);
        assert_eq!((inner.id, inner.parent), (101, Some(100)));
        assert_eq!((outer.id, outer.parent, outer.request), (100, None, 7));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        for s in &t.spans {
            assert_eq!(Span::from_value(&s.to_value()).as_ref(), Some(s));
        }
        let mut off = Tracer::new(false, Instant::now(), 0);
        off.span("ignored", 0, || ());
        assert!(off.spans.is_empty());
    }
}
