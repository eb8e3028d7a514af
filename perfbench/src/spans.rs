//! Spans recorded by the benchmark around its calls into each layer.
//!
//! No file outside this directory gains a probe: a span here is the
//! interval a public function of a layer took as seen by its caller. Spans
//! are the repository's own `TraceSpan` (the parent's name travels in
//! `detail`, the batch index in `seq`), kept in memory and written once,
//! as Chrome `trace_event` JSON, when the traced pass ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use dbtoaster::telemetry::{chrome_trace_json, TraceRecorder, TraceSpan};

/// The root span of a traced repetition; every other span descends from it.
pub const ROOT: &str = "workload";

pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<TraceSpan>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn record(&self, name: &str, parent: &str, seq: u64, start: Instant, end: Instant) {
        let span = TraceSpan {
            seq,
            layer: name.to_string(),
            detail: format!("parent={parent}"),
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
            tid: TraceRecorder::current_tid(),
        };
        self.spans
            .lock()
            .expect("no span is recorded while another recording panics")
            .push(span);
    }

    /// Self time per span name: the time of its spans minus the time of the
    /// spans that name it as their parent.
    pub fn self_ns(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.lock().expect("span recording has ended");
        let mut self_ns: BTreeMap<String, f64> = BTreeMap::new();
        for span in spans.iter() {
            *self_ns.entry(span.layer.clone()).or_default() += span.dur_ns as f64;
            if let Some(parent) = span.detail.strip_prefix("parent=") {
                *self_ns.entry(parent.to_string()).or_default() -= span.dur_ns as f64;
            }
        }
        self_ns
    }

    /// Summed duration of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span recording has ended");
        spans
            .iter()
            .filter(|span| span.layer == name)
            .map(|span| span.dur_ns as f64)
            .sum()
    }

    pub fn chrome_json(&self) -> String {
        chrome_trace_json(&self.spans.lock().expect("span recording has ended"))
    }
}

/// Run `f`, inside a span when the pass is traced.
pub fn timed<T>(
    spans: Option<&Spans>,
    name: &str,
    parent: &str,
    seq: u64,
    f: impl FnOnce() -> T,
) -> T {
    let Some(spans) = spans else {
        return f();
    };
    let start = Instant::now();
    let out = f();
    spans.record(name, parent, seq, start, Instant::now());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = Spans::new();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        spans.record(ROOT, "", 0, at(0), at(100));
        spans.record("rpc", ROOT, 1, at(10), at(60));
        spans.record("encode", "rpc", 1, at(10), at(15));
        spans.record("wait_reply", "rpc", 1, at(20), at(55));
        let own = spans.self_ns();
        assert_eq!(own[ROOT], 50e6);
        assert_eq!(own["rpc"], 10e6);
        assert_eq!(own["wait_reply"], 35e6);
        assert!(spans.chrome_json().contains("\"name\":\"encode\""));
    }
}
