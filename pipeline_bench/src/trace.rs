//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from outside the program: the benchmark opens a
//! span, calls one public function of a layer, and closes it. Nothing
//! is written out until the run ends ([`Tracer::to_json`]).

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: Option<u64>,
    parent: Option<usize>,
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: None,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes the innermost span, which must be `id`; returns its
    /// duration in ms.
    pub fn exit(&mut self, id: SpanId) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        let end = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = Some(end);
        (end - span.start_ns) as f64 / 1e6
    }

    /// Runs `f` inside a span; returns its value and the span's ms.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let value = f();
        (value, self.exit(id))
    }

    fn duration_ns(&self, i: usize) -> u64 {
        let s = &self.spans[i];
        s.end_ns.expect("span closed before reporting") - s.start_ns
    }

    /// Self time of every closed span: its duration minus the time its
    /// child spans cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = (0..self.spans.len()).map(|i| self.duration_ns(i)).collect();
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                self_ns[p] = self_ns[p].saturating_sub(self.duration_ns(i));
            }
        }
        self_ns
    }

    /// Total self time per span name, in ms.
    pub fn self_ms_by_name(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(span.name.clone()).or_insert(0.0) += ns as f64 / 1e6;
        }
        out
    }

    pub fn print_self_times(&self) {
        println!("span self time (ms, summed per name)");
        for (name, ms) in self.self_ms_by_name() {
            println!("  {name:<34} {ms:>12.3}");
        }
    }

    /// The spans as a JSON array (name, start, end, parent, self time;
    /// times in µs from the tracer's creation).
    pub fn to_json(&self) -> String {
        let self_ns = self.self_ns();
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\": {i}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \
                     \"parent\": {parent}, \"self_us\": {}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.end_ns.unwrap_or(s.start_ns) as f64 / 1e3,
                    self_ns[i] as f64 / 1e3,
                )
            })
            .collect();
        format!("[\n{}\n]", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let job = t.enter("job");
        let ((), child) = t.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let total = t.exit(job);
        let self_ms = t.self_ms_by_name();
        assert!(child >= 5.0 && total >= child);
        assert!((self_ms["job"] - (total - child)).abs() < 1e-3);
        assert!((self_ms["child"] - child).abs() < 1e-3);
    }
}
