//! The daemon paths: a feed into `dbtoasterd`, and batch-1 RPCs on a
//! fixed schedule beside snapshot reads.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dbtoaster::common::Event;
use dbtoaster::net::wire::{self, Response};
use dbtoaster::net::{FeedWriter, NetClient, ServerStats};
use dbtoaster::server::ViewSnapshot;

use crate::daemon::Daemon;
use crate::outcome::{Outcome, Windows};
use crate::spans::{timed, Spans, ROOT};
use crate::stats::{quantile, sort};
use crate::workload::{Inputs, Sizes, FEED_BATCH, RATE_MID, SNAPSHOT_RATE};

fn us(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

/// One feed of a stream into a fresh daemon.
pub struct FeedRep {
    pub setup_s: f64,
    /// Events over (first send → feed ack).
    pub ingest_per_s: f64,
    /// Last send returned → feed ack: how far the views lag the feed once
    /// the feeder has nothing more to send.
    pub drain_us: f64,
    pub snapshot_us: Vec<f64>,
    pub state_bytes: f64,
    pub peak_rss_bytes: f64,
    pub snapshots: Vec<ViewSnapshot>,
    pub stats: ServerStats,
    pub attempted: u64,
    pub failed: u64,
}

pub fn feed_rep(
    bin: &Path,
    inputs: &Inputs,
    events: &[Event],
    snapshots: usize,
    spans: Option<&Spans>,
) -> Result<FeedRep, String> {
    let (daemon, mut client, setup_s) = timed(spans, "spawn_daemon", ROOT, 0, || {
        Daemon::spawn(bin, inputs)
    })?;
    // Connecting stays outside the timer: the accept loop polls, which
    // adds milliseconds that belong to `setup_s`, not to line rate.
    let mut feeder = FeedWriter::connect(daemon.addr.as_str()).map_err(|e| e.to_string())?;
    let mut failed = 0u64;
    let started = Instant::now();
    for (index, chunk) in events.chunks(FEED_BATCH).enumerate() {
        if let Err(e) = timed(spans, "feed_send", ROOT, index as u64, || {
            feeder.send(chunk)
        }) {
            return Err(format!("feed send {index} failed: {e}"));
        }
    }
    let sent = Instant::now();
    let report = timed(spans, "feed_ack", ROOT, 0, || feeder.finish_and_ack())
        .map_err(|e| format!("feed ack failed: {e}"))?;
    let acked = Instant::now();
    if report.events != events.len() {
        eprintln!(
            "feed ack covers {} of {} events",
            report.events,
            events.len()
        );
        failed += 1;
    }

    let mut snapshot_us = Vec::with_capacity(snapshots);
    for index in 0..snapshots {
        let at = Instant::now();
        match timed(spans, "snapshot_all", ROOT, index as u64, || {
            client.snapshot_all()
        }) {
            Ok(all) => drop(std::hint::black_box(all)),
            Err(e) => {
                eprintln!("snapshot_all failed: {e}");
                failed += 1;
            }
        }
        snapshot_us.push(us(at, Instant::now()));
    }
    let rep = FeedRep {
        setup_s,
        ingest_per_s: events.len() as f64 / acked.duration_since(started).as_secs_f64(),
        drain_us: us(sent, acked),
        snapshot_us,
        state_bytes: daemon.state_bytes()?,
        peak_rss_bytes: daemon.peak_rss_bytes()?,
        snapshots: client.snapshot_all().map_err(|e| e.to_string())?,
        stats: client.stats().map_err(|e| e.to_string())?,
        attempted: (events.len().div_ceil(FEED_BATCH) + 1 + snapshots) as u64,
        failed,
    };
    daemon.shutdown(&mut client)?;
    Ok(rep)
}

/// `orderbook_feed_daemon`: a fresh daemon per repetition, fed the whole
/// stream by one `FeedWriter`, the final ack as the barrier.
pub fn run_feed(
    bin: &Path,
    inputs: &Inputs,
    sizes: &Sizes,
    seconds: f64,
    expected: Vec<ViewSnapshot>,
) -> Result<Outcome, String> {
    // Discarded: the first start of the binary reads it from disk.
    let warmup = &inputs.events[..inputs.events.len() / 8];
    feed_rep(bin, inputs, warmup, 1, None)?;
    let mut outcome = Outcome::new(expected);
    outcome.visible_us.push(Vec::new());
    let started = Instant::now();
    while outcome.ingest_per_s.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let rep = feed_rep(bin, inputs, &inputs.events, sizes.snapshots_per_rep, None)?;
        outcome.setup_s.push(rep.setup_s);
        outcome.ingest_per_s.push(rep.ingest_per_s);
        // One drain lag per repetition: all of them form one window.
        outcome.visible_us[0].push(rep.drain_us);
        outcome.snapshot_us.push(rep.snapshot_us);
        outcome.state_bytes.push(rep.state_bytes);
        outcome.peak_rss_bytes = outcome.peak_rss_bytes.max(rep.peak_rss_bytes);
        outcome.attempted += rep.attempted;
        outcome.failed += rep.failed;
        outcome.check_bit_equal(&rep.snapshots);
    }
    Ok(outcome)
}

/// Wait for `due`: sleep while it is far, then spin, so the send happens
/// within microseconds of its slot without holding a core all the time.
fn pace(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        match (due - now).checked_sub(SPIN) {
            Some(far) if !far.is_zero() => std::thread::sleep(far),
            _ => std::hint::spin_loop(),
        }
    }
}

/// What an open-loop phase measured, warm-up excluded.
pub struct OpenLoop {
    /// Due instant → arrival of the `Applied` reply, per request. The
    /// server replies only after the ingest thread has applied the batch,
    /// so the reply is the moment the event is readable.
    pub visible_us: Vec<f64>,
    /// Due instant → the send actually starting, per request.
    pub late_us: Vec<f64>,
    pub achieved_per_s: f64,
    /// Due instant → reply, per `snapshot_all` on the second connection.
    pub snapshot_us: Vec<f64>,
    /// Sends that started more than one period late. Their lateness is in
    /// `visible_us`, which runs from the due instant; they are reported,
    /// not failed, because on a shared 2-core machine the sender is
    /// preempted now and then whatever the program under test does.
    pub missed_slots: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl OpenLoop {
    /// `visible_us` in windows of one second of requests each.
    pub fn visible_windows(&self, rate: f64) -> Windows {
        windows_of(&self.visible_us, rate as usize)
    }

    /// `snapshot_us` in windows of two seconds of requests each.
    pub fn snapshot_windows(&self) -> Windows {
        windows_of(&self.snapshot_us, 2 * SNAPSHOT_RATE as usize)
    }

    /// A run whose generator ran more than half a period late at the 99th
    /// percentile measured the generator, not the daemon. Phases under five
    /// seconds are not judged: there one stall of the host is the p99.
    pub fn valid(&self, rate: f64) -> bool {
        (self.late_us.len() as f64) < 5.0 * rate || self.late_p99_us() <= 0.5e6 / rate
    }

    pub fn late_p99_us(&self) -> f64 {
        let mut late = self.late_us.clone();
        sort(&mut late);
        quantile(&late, 0.99)
    }
}

/// Consecutive windows of `per_window` samples; a short tail is dropped.
fn windows_of(samples: &[f64], per_window: usize) -> Windows {
    let mut windows: Windows = samples
        .chunks(per_window.max(1))
        .map(<[f64]>::to_vec)
        .collect();
    if windows.len() > 1 && windows.last().is_some_and(|w| w.len() < per_window / 2) {
        windows.pop();
    }
    windows
}

/// Send `events` one per request at `rate` per second, never waiting for a
/// reply before the next send; a second connection asks for `snapshot_all`
/// at `SNAPSHOT_RATE`. The first `warmup` requests are not sampled.
///
/// Three threads: the paced sender, the reply reader (blocked in `read`
/// nearly always) and the snapshot client (asleep nearly always).
pub fn open_loop(
    addr: &str,
    events: &[Event],
    rate: f64,
    warmup: usize,
    spans: Option<&Spans>,
) -> Result<OpenLoop, String> {
    let period = Duration::from_secs_f64(1.0 / rate);
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = BufWriter::new(stream);
    let mut snapshot_client = NetClient::connect(addr).map_err(|e| e.to_string())?;
    let start = Instant::now() + Duration::from_millis(20);
    let due = |index: usize| start + period.mul_f64(index as f64);
    let sampling_from = due(warmup);
    let done = AtomicBool::new(false);

    let (sent, received, snapshots) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> Result<(Vec<f64>, u64), String> {
            let mut late_us = Vec::with_capacity(events.len());
            let mut missed_slots = 0u64;
            for (index, event) in events.iter().enumerate() {
                let seq = index as u64;
                pace(due(index));
                let late = Instant::now().saturating_duration_since(due(index));
                timed(spans, "rpc_send", ROOT, seq, || {
                    let payload = timed(spans, "encode", "rpc_send", seq, || {
                        wire::encode_apply_batch(std::slice::from_ref(event))
                    });
                    timed(spans, "write_frame", "rpc_send", seq, || {
                        wire::write_frame(&mut writer, &payload).map_err(|e| e.to_string())?;
                        writer.flush().map_err(|e| e.to_string())
                    })
                })
                .map_err(|e| format!("request {index}: {e}"))?;
                if index >= warmup {
                    late_us.push(late.as_secs_f64() * 1e6);
                    // A send later than one period has lost its slot.
                    missed_slots += u64::from(late > period);
                }
            }
            Ok((late_us, missed_slots))
        });
        let receiver = scope.spawn(|| -> Result<(Vec<f64>, u64, Instant), String> {
            let mut visible_us = Vec::with_capacity(events.len());
            let mut failed = 0u64;
            let mut buf = Vec::new();
            let mut arrival = start;
            for index in 0..events.len() {
                let seq = index as u64;
                let (got, reply) = timed(spans, "rpc_recv", ROOT, seq, || {
                    let got = timed(spans, "wait_reply", "rpc_recv", seq, || {
                        wire::read_frame(&mut reader, &mut buf)
                    });
                    arrival = Instant::now();
                    let reply = timed(spans, "decode_response", "rpc_recv", seq, || {
                        wire::decode_response(&buf)
                    });
                    (got, reply)
                });
                if !got.map_err(|e| format!("reply {index}: {e}"))? {
                    return Err(format!("the daemon hung up before reply {index}"));
                }
                if index >= warmup {
                    visible_us.push(us(due(index), arrival));
                    if !matches!(reply, Ok(Response::Applied { .. })) {
                        eprintln!("request {index} answered {reply:?}");
                        failed += 1;
                    }
                }
            }
            Ok((visible_us, failed, arrival))
        });
        let snapshotter = scope.spawn(|| {
            let snapshot_period = Duration::from_secs_f64(1.0 / SNAPSHOT_RATE);
            let mut snapshot_us = Vec::new();
            let mut failed = 0u64;
            for index in 0.. {
                let due = start + snapshot_period.mul_f64(index as f64);
                pace(due);
                if done.load(Ordering::SeqCst) {
                    break;
                }
                let ok = timed(spans, "snapshot_all", ROOT, index as u64, || {
                    snapshot_client.snapshot_all().is_ok()
                });
                if due >= sampling_from {
                    snapshot_us.push(us(due, Instant::now()));
                    failed += u64::from(!ok);
                }
            }
            (snapshot_us, failed)
        });
        let sent = sender.join().expect("the sender does not panic");
        let received = receiver.join().expect("the receiver does not panic");
        done.store(true, Ordering::SeqCst);
        let snapshots = snapshotter
            .join()
            .expect("the snapshot client does not panic");
        (sent, received, snapshots)
    });
    let (late_us, missed_slots) = sent?;
    let (visible_us, failed_replies, last_arrival) = received?;
    let (snapshot_us, failed_snapshots) = snapshots;
    let sampled = visible_us.len();
    Ok(OpenLoop {
        achieved_per_s: sampled as f64 / last_arrival.duration_since(sampling_from).as_secs_f64(),
        attempted: (2 * sampled + snapshot_us.len()) as u64,
        failed: failed_replies + failed_snapshots,
        missed_slots,
        visible_us,
        late_us,
        snapshot_us,
    })
}

/// One request at a time on one connection, for `seconds` or until the
/// events run out: `(round trips, seconds)`.
pub fn closed_loop(
    client: &mut NetClient,
    events: &[Event],
    seconds: f64,
) -> Result<(usize, f64), String> {
    let started = Instant::now();
    let mut done = 0;
    for event in events {
        client
            .apply_batch(std::slice::from_ref(event))
            .map_err(|e| format!("closed-loop request {done}: {e}"))?;
        done += 1;
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok((done, started.elapsed().as_secs_f64()))
}

/// How many events an open-loop phase of `seconds` at `rate` consumes,
/// warm-up included, and how many of them are warm-up.
pub fn open_loop_events(rate: f64, seconds: f64, warmup_s: f64) -> (usize, usize) {
    let warmup = (rate * warmup_s) as usize;
    (warmup + (rate * seconds).max(1.0) as usize, warmup)
}

/// `orderbook_rpc_openloop_daemon`: one daemon, open-loop at `RATE_MID`
/// beside snapshot reads for the whole run, then the rest of the stream as
/// a feed so the final state is the whole stream's.
pub fn run_rpc(
    bin: &Path,
    inputs: &Inputs,
    sizes: &Sizes,
    seconds: f64,
    expected: Vec<ViewSnapshot>,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::new(expected);
    // Start-up is sampled on daemons of its own; the last one stays.
    for _ in 0..8 {
        let (daemon, mut client, setup_s) = Daemon::spawn(bin, inputs)?;
        outcome.setup_s.push(setup_s);
        daemon.shutdown(&mut client)?;
    }
    let (daemon, mut client, setup_s) = Daemon::spawn(bin, inputs)?;
    outcome.setup_s.push(setup_s);

    let (open_events, warmup) = open_loop_events(RATE_MID, seconds, sizes.open_loop_warmup_s);
    let open_events = open_events.min(inputs.events.len() / 2);
    let (open, rest) = inputs.events.split_at(open_events);
    let phase = open_loop(
        &daemon.addr,
        open,
        RATE_MID,
        warmup.min(open_events / 2),
        None,
    )?;
    eprintln!(
        "# load generator: lateness p99 {:.1} us, {} of {} sends lost their slot",
        phase.late_p99_us(),
        phase.missed_slots,
        phase.late_us.len()
    );
    if !phase.valid(RATE_MID) {
        eprintln!("INVALID: generator lateness p99 exceeds half a period");
        outcome.failed += 1;
    }
    // At a fixed rate the events absorbed per second are the rate, unless
    // the daemon cannot keep up: then the replies fall behind the schedule.
    outcome.ingest_per_s.push(phase.achieved_per_s);
    outcome.visible_us = phase.visible_windows(RATE_MID);
    outcome.attempted += phase.attempted;
    outcome.failed += phase.failed;
    outcome.snapshot_us = phase.snapshot_windows();

    let mut feeder = FeedWriter::connect(daemon.addr.as_str()).map_err(|e| e.to_string())?;
    for chunk in rest.chunks(1024) {
        feeder.send(chunk).map_err(|e| e.to_string())?;
    }
    feeder.finish_and_ack().map_err(|e| e.to_string())?;

    outcome.state_bytes.push(daemon.state_bytes()?);
    outcome.peak_rss_bytes = daemon.peak_rss_bytes()?;
    let snapshots = client.snapshot_all().map_err(|e| e.to_string())?;
    outcome.check_bit_equal(&snapshots);
    daemon.shutdown(&mut client)?;
    Ok(outcome)
}
