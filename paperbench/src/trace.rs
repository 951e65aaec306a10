//! In-memory span and counter recorder for the traced run.
//!
//! Spans are recorded around the benchmark's calls into each crate's public
//! functions: name, start, end, parent span and op id. Counters are keyed by
//! name and op id. Nothing is written until the run ends ([`Trace::to_json`]).
//! A disabled trace records nothing and only runs the closure.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the trace origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `linalg.embedding`.
    pub name: &'static str,
    /// Start, ns since the trace origin.
    pub start_ns: u64,
    /// End, ns since the trace origin.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Trace::spans`], if any.
    pub parent: Option<usize>,
    /// The op this span belongs to (0 = set-up).
    pub op: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span and counter recorder.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<(&'static str, u64), f64>,
    op: u64,
}

impl Trace {
    /// A recorder; `enabled = false` makes every call a pass-through.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
            op: 0,
        }
    }

    /// Starts attributing spans and counters to op `op`.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        out
    }

    /// Adds `value` to counter `name` of the current op.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counters.entry((name, self.op)).or_insert(0.0) += value;
        }
    }

    /// Total seconds in spans named `name`, per op, for ops in `ops`.
    pub fn seconds_per_op(&self, name: &str, ops: &[u64]) -> Vec<f64> {
        ops.iter()
            .map(|&op| {
                self.spans
                    .iter()
                    .filter(|s| s.op == op && s.name == name)
                    .map(Span::seconds)
                    .sum()
            })
            .collect()
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Counter `name` per op, for ops in `ops` (missing = 0).
    pub fn counter_per_op(&self, name: &'static str, ops: &[u64]) -> Vec<f64> {
        ops.iter()
            .map(|&op| self.counters.get(&(name, op)).copied().unwrap_or(0.0))
            .collect()
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n  ");
            } else {
                out.push_str("\n  ");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            ));
        }
        out.push_str("\n], \"counters\": [");
        for (i, ((name, op), v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"name\": \"{name}\", \"op\": {op}, \"value\": {v}}}"
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_op() {
        let mut t = Trace::new(true);
        t.begin_op(3);
        t.span("outer", |t| {
            t.span("inner", |t| t.count("work", 2.0));
            t.count("work", 1.0);
        });
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].op, 3);
        assert_eq!(t.counter_per_op("work", &[3]), vec![3.0]);
        assert!(t.to_json().contains("\"name\": \"inner\""));
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        let v = t.span("x", |t| {
            t.count("c", 1.0);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
        assert_eq!(t.counter_per_op("c", &[0]), vec![0.0]);
    }
}
