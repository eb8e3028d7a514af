//! The embedded path: `ViewServer::apply_batch` on the caller's thread.

use std::time::Instant;

use dbtoaster::common::Event;
use dbtoaster::server::{ViewServer, ViewSnapshot};

use crate::outcome::Outcome;
use crate::spans::{timed, Spans, ROOT};
use crate::workload::{Inputs, Sizes, EMBEDDED_BATCH};

/// One pass of a stream through a fresh server.
pub struct Rep {
    /// Catalog + compile + register + lower of every view.
    pub setup_s: f64,
    /// First `apply_batch` call to the return of the last.
    pub apply_s: f64,
    /// Duration of each `apply_batch` call: the wait until a batch is readable.
    pub batch_us: Vec<f64>,
    /// Duration of each `snapshot_all` call on the quiescent server.
    pub snapshot_us: Vec<f64>,
    pub state_bytes: f64,
    pub snapshots: Vec<ViewSnapshot>,
    pub server: ViewServer,
    pub attempted: u64,
    pub failed: u64,
}

/// A fresh server over `inputs`' catalog with every view registered.
pub fn build_server(inputs: &Inputs, metrics_on: bool) -> Result<ViewServer, String> {
    let mut server = ViewServer::new(&inputs.catalog);
    for (name, sql) in &inputs.views {
        server
            .register(name, sql)
            .map_err(|e| format!("register {name}: {e}"))?;
    }
    server.set_metrics_enabled(metrics_on);
    Ok(server)
}

/// Build a server over `inputs`' catalog and views, apply `events` in
/// batches of `batch`, then time `snapshots` quiescent snapshots.
pub fn rep(
    inputs: &Inputs,
    events: &[Event],
    batch: usize,
    metrics_on: bool,
    snapshots: usize,
    spans: Option<&Spans>,
) -> Result<Rep, String> {
    let started = Instant::now();
    let server = timed(spans, "register", ROOT, 0, || {
        build_server(inputs, metrics_on)
    })?;
    let setup_s = started.elapsed().as_secs_f64();

    let mut failed = 0u64;
    let mut batch_us = Vec::with_capacity(events.len() / batch + 1);
    let apply_started = Instant::now();
    let mut last = apply_started;
    for (index, chunk) in events.chunks(batch).enumerate() {
        let result = timed(spans, "apply_batch", ROOT, index as u64, || {
            server.apply_batch(chunk)
        });
        if let Err(e) = result {
            eprintln!("apply_batch {index} failed: {e}");
            failed += 1;
        }
        let now = Instant::now();
        batch_us.push(now.duration_since(last).as_secs_f64() * 1e6);
        last = now;
    }
    let apply_s = last.duration_since(apply_started).as_secs_f64();

    let mut snapshot_us = Vec::with_capacity(snapshots);
    for index in 0..snapshots {
        let at = Instant::now();
        let all = timed(spans, "snapshot_all", ROOT, index as u64, || {
            server.snapshot_all()
        });
        snapshot_us.push(at.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(all);
    }
    Ok(Rep {
        setup_s,
        apply_s,
        attempted: (batch_us.len() + snapshots) as u64,
        batch_us,
        snapshot_us,
        state_bytes: server.memory_bytes() as f64,
        snapshots: server.snapshot_all(),
        server,
        failed,
    })
}

/// Repeat the workload on a fresh server until `seconds` of repetitions
/// have been timed. The repetition before them is discarded: it pays for
/// the allocator's first growth and the caches' first fill.
pub fn run(inputs: &Inputs, sizes: &Sizes, seconds: f64) -> Result<Outcome, String> {
    let warmup = rep(inputs, &inputs.events, EMBEDDED_BATCH, false, 1, None)?;
    let mut outcome = Outcome::new(warmup.snapshots.clone());
    drop(warmup);
    let started = Instant::now();
    while outcome.ingest_per_s.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let rep = rep(
            inputs,
            &inputs.events,
            EMBEDDED_BATCH,
            false,
            sizes.snapshots_per_rep,
            None,
        )?;
        outcome.setup_s.push(rep.setup_s);
        outcome
            .ingest_per_s
            .push(inputs.events.len() as f64 / rep.apply_s);
        outcome.visible_us.push(rep.batch_us);
        outcome.snapshot_us.push(rep.snapshot_us);
        outcome.state_bytes.push(rep.state_bytes);
        outcome.attempted += rep.attempted;
        outcome.failed += rep.failed;
        outcome.check_bit_equal(&rep.snapshots);
    }
    outcome.peak_rss_bytes = crate::daemon::own_peak_rss_bytes()?;
    Ok(outcome)
}
