//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer of the program in a span
//! (name, layer, start, end, parent, query id). Spans stay in memory and
//! are written once, at exit, as a Chrome trace. With tracing off,
//! [`Spans::time`] is a plain call: no clock reads, no allocation.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call went into (`engine`, `runtime`, `sim`, `algos`,
    /// `graph`) or `bench` for the benchmark's own work.
    pub layer: &'static str,
    /// The call, e.g. `run_batch`.
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start: u64,
    /// Nanoseconds since the recorder started.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Query the call served, when it served exactly one.
    pub query: Option<u64>,
}

/// The recorder. Spans nest strictly: a span ends before its parent.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off from here on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` (and nothing recorded) when tracing is off.
    pub fn begin(
        &mut self,
        layer: &'static str,
        name: &'static str,
        query: Option<u64>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            query,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `begin` returned (the innermost open one).
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            debug_assert_eq!(self.open.last(), Some(&id), "spans nest strictly");
            self.open.pop();
            self.spans[id].end = self.now();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        query: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(layer, name, query);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in nanoseconds: each span's duration minus
    /// the part its direct children cover.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer).or_insert(0) += (s.end - s.start).saturating_sub(covered);
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}.{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"query\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.layer,
                s.name,
                s.layer,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.query.map_or("null".to_string(), |q| q.to_string()),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.time("engine", "run_batch", None, || 7), 7);
        assert!(s.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut t = Spans::new(true);
        let outer = t.begin("bench", "batch", None);
        busy(100_000);
        t.time("engine", "run_batch", Some(3), || busy(100_000));
        t.end(outer);
        let (o, i) = (&t.spans()[0], &t.spans()[1]);
        assert_eq!((o.parent, i.parent, i.query), (None, Some(0), Some(3)));
        let selft = t.self_time_ns();
        assert_eq!(selft["bench"], (o.end - o.start) - (i.end - i.start));
        assert_eq!(selft["engine"], i.end - i.start);
        assert!(selft["bench"] >= 100_000);
        assert!(t.to_chrome_json().contains("\"name\":\"engine.run_batch\""));
    }

    fn busy(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }
}
