//! Spans the benchmark owns. The traced replay wraps each call into a
//! crate's public function in one, so host time is attributed to crates
//! without any tracing inside the program. Spans stay in memory until the
//! run ends.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a trace: how often a span ran, its total time and
/// its self time (total minus the time its child spans cover).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` nest in it.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Time covered by top-level spans.
    pub fn top_level_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum()
    }

    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        totals(&self.spans)
    }
}

/// Self time of every span: its duration minus its children's durations.
/// Children of one parent never overlap (spans nest on one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotal> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += own;
    }
    out
}

/// Nanoseconds one empty span costs, for the tracing-overhead estimate.
pub fn cost_per_span_ns() -> f64 {
    const N: usize = 20_000;
    let mut t = Tracer::default();
    let start = Instant::now();
    for _ in 0..N {
        t.span("overhead", |_| ());
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            at("outer", None, 0, 100),
            at("a", Some(0), 10, 40),
            at("leaf", Some(1), 15, 25),
            at("b", Some(0), 50, 70),
            at("a", None, 120, 130),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20, 10]);
        let t = totals(&spans);
        assert_eq!(
            t["a"],
            SpanTotal {
                count: 2,
                total_ns: 40,
                self_ns: 30
            }
        );
        assert_eq!(t["outer"].self_ns, 50);
        let own: u64 = t.values().map(|v| v.self_ns).sum();
        let top: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum();
        assert_eq!(own, top, "self times partition the top-level time");
    }

    #[test]
    fn tracer_nests_spans_through_the_closure() {
        let mut t = Tracer::default();
        let v = t.span("outer", |t| t.span("inner", |_| 7) + 1);
        assert_eq!(v, 8);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.top_level_ns(), s[0].dur_ns());
    }
}
