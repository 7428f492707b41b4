//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `symbolic` or `plan.fingerprint`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The workload call this span belongs to.
    pub call: u64,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    /// Runs `f` inside a span named `name` of call `call`; spans `f`
    /// opens become its children.
    pub fn span<R>(&mut self, name: &'static str, call: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            call,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A recorder holding `spans`, for checking the arithmetic by hand.
    #[cfg(test)]
    fn from_spans(spans: Vec<Span>) -> Self {
        Recorder {
            origin: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }

    /// Self time of every span in nanoseconds: its duration minus the part
    /// of its interval that its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Self time in milliseconds summed per `(call, span name)`.
    pub fn self_ms_by_call(&self) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
        let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.call).or_default().entry(s.name).or_default() += ns as f64 / 1e6;
        }
        out
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent, call}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"call\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.call,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            call: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let rec = Recorder::from_spans(vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 25, 50, Some(0)),  // overlaps `a`: union is 10..50
            span("c", 90, 120, Some(0)), // runs past the parent: clipped
            span("leaf", 12, 20, Some(1)),
        ]);
        assert_eq!(rec.self_ns(), vec![100 - 40 - 10, 20 - 8, 25, 30, 8]);
    }

    #[test]
    fn recorded_spans_nest_and_sum_per_call() {
        let mut rec = Recorder::default();
        rec.span("outer", 3, |rec| {
            rec.span("inner", 3, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            rec.span("inner", 3, |_| ());
        });
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert!(s.iter().all(|x| x.start_ns <= x.end_ns && x.call == 3));
        let by_call = rec.self_ms_by_call();
        let total: f64 = by_call[&3].values().sum();
        let outer = (s[0].end_ns - s[0].start_ns) as f64 / 1e6;
        assert!(
            (total - outer).abs() < 1e-9,
            "self times partition the root"
        );
        assert!(by_call[&3]["inner"] >= 2.0);
        assert!(rec.to_json().contains("\"parent\":0"));
    }
}
