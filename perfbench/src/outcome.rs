//! What one untraced run of a workload measured, and the end-to-end
//! metrics that follow from it.

use dbtoaster::server::ViewSnapshot;

use crate::stats::{median, quantile, sort};

/// Timing samples in windows: a repetition each, or a second of an
/// open-loop run each. A percentile is taken inside each window and the
/// quietest window reported. On a shared 2-core VM threads migrate between
/// two placements (55 and 67 us on the RPC workload), the allocator lays a
/// 280 MB heap out differently every repetition, and neighbours stall the
/// host for seconds; all of it only ever adds time, and none of it is the
/// program's. Over ten runs the best window's spread was a third to a tenth
/// of the median window's, and a change to the program moves every window.
pub type Windows = Vec<Vec<f64>>;

fn best_window(windows: &mut Windows, q: f64) -> f64 {
    windows
        .iter_mut()
        .filter(|w| !w.is_empty())
        .map(|w| {
            sort(w);
            quantile(w, q)
        })
        .fold(f64::INFINITY, f64::min)
}

/// A named value with its unit.
pub type Metric = (String, f64, &'static str);

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    (name.into(), value, unit)
}

pub struct Outcome {
    /// One per fresh server or daemon.
    pub setup_s: Vec<f64>,
    /// One per timed repetition.
    pub ingest_per_s: Vec<f64>,
    pub visible_us: Windows,
    pub snapshot_us: Windows,
    /// One per timed repetition; the stream is the same, so they agree.
    pub state_bytes: Vec<f64>,
    pub peak_rss_bytes: f64,
    /// Applies, RPCs, snapshots, scheduled sends and per-view result checks.
    pub attempted: u64,
    pub failed: u64,
    /// Views whose final snapshot was wrong, over all repetitions; they are
    /// counted in `failed` too.
    pub mismatches: u64,
    /// What every repetition's final snapshot must equal bit for bit: the
    /// in-process `ViewServer` over the same stream, which is also what
    /// `orderbook_flat_embedded` ends with for the same seed.
    pub expected: Vec<ViewSnapshot>,
}

impl Outcome {
    pub fn new(expected: Vec<ViewSnapshot>) -> Outcome {
        Outcome {
            setup_s: Vec::new(),
            ingest_per_s: Vec::new(),
            visible_us: Vec::new(),
            snapshot_us: Vec::new(),
            state_bytes: Vec::new(),
            peak_rss_bytes: 0.0,
            attempted: 0,
            failed: 0,
            mismatches: 0,
            expected,
        }
    }

    /// One result check per view: a repetition's final snapshot against the
    /// expected one, floats by IEEE equality.
    pub fn check_bit_equal(&mut self, got: &[ViewSnapshot]) {
        self.attempted += self.expected.len() as u64;
        let wrong = self
            .expected
            .iter()
            .filter(|want| got.iter().find(|g| g.name == want.name) != Some(want))
            .count() as u64;
        if wrong > 0 {
            eprintln!("MISMATCH: {wrong} view(s) differ from the in-process snapshot");
        }
        self.mismatches += wrong;
        self.failed += wrong;
    }

    /// Per-view checks of `expected` against the independent reference.
    pub fn count_reference_check(&mut self, wrong: usize) {
        self.attempted += self.expected.len() as u64;
        self.mismatches += wrong as u64;
        self.failed += wrong as u64;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order: medians over the
    /// repetitions, and the quietest window's latency percentiles.
    pub fn end_to_end(&mut self) -> Vec<Metric> {
        let state_bytes = self.state_bytes.iter().copied().fold(0.0, f64::max);
        vec![
            metric("setup_s", median(&self.setup_s), "s"),
            metric(
                "ingest_events_per_s",
                median(&self.ingest_per_s),
                "events/s",
            ),
            metric(
                "visible_latency_p50_us",
                best_window(&mut self.visible_us, 0.5),
                "us",
            ),
            metric(
                "visible_latency_p90_us",
                best_window(&mut self.visible_us, 0.9),
                "us",
            ),
            metric(
                "snapshot_latency_p50_us",
                best_window(&mut self.snapshot_us, 0.5),
                "us",
            ),
            metric("state_bytes", state_bytes, "bytes"),
            metric("peak_rss_bytes", self.peak_rss_bytes, "bytes"),
        ]
    }

    /// For the human-readable report: sample counts beside the timings, and
    /// the tails over all samples, which no bound is set on because their
    /// run-to-run spread here is wider than any bound (p99: 30% to 180%).
    pub fn diagnostics(&self) -> String {
        let pooled = |windows: &Windows| {
            let mut all: Vec<f64> = windows.iter().flatten().copied().collect();
            sort(&mut all);
            all
        };
        let (visible, snapshot) = (pooled(&self.visible_us), pooled(&self.snapshot_us));
        format!(
            "samples: setup {} ingest {} visible {} in {} windows, snapshot {} in {} windows; \
             over all samples: visible p99 {:.1} us, snapshot p90 {:.1} us p99 {:.1} us",
            self.setup_s.len(),
            self.ingest_per_s.len(),
            visible.len(),
            self.visible_us.len(),
            snapshot.len(),
            self.snapshot_us.len(),
            quantile(&visible, 0.99),
            quantile(&snapshot, 0.9),
            quantile(&snapshot, 0.99),
        )
    }
}
