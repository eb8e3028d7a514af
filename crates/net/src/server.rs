//! The serving core of `dbtoasterd`: a tokio-free standalone network
//! server around a [`ViewServer`].
//!
//! ```text
//!  clients ──TCP──▶ accept loop (std thread per connection)
//!                      │ request plane          │ feed plane
//!                      │ (one frame in,         │ (batch frames until
//!                      │  one frame out)        │  EOF, then one ack)
//!                      ▼                        ▼
//!                 handle_request          SocketSource poll loop
//!                      │  apply_batch           │
//!                      └───────┬────────────────┘
//!                              ▼
//!              bounded MPSC ingest queue (back-pressure)
//!                              ▼
//!               ingest thread → ShardedDispatcher
//!                              ▼
//!              shared map store (group RwLocks)
//!                              ▲
//!        snapshot/stats requests read concurrently (consistent cut)
//! ```
//!
//! Ordering and consistency: every ingested batch — request-plane or
//! feed-plane — funnels through **one** bounded queue drained by **one**
//! ingest thread, so batches apply in admission order and the final
//! state is exactly what a sequential [`ViewServer::apply_batch`] over
//! the same stream computes (the dispatcher's own equivalence guarantee
//! covers the parallel partitions within each batch). Snapshots never
//! enter the queue: they read the shared store's group locks directly,
//! concurrent with ingestion, and observe a consistent cut.
//!
//! Lifecycle: a server starts in the **registering** phase (views may be
//! added locally or over the wire). The first batch **promotes** it to
//! the running phase — the portfolio is frozen, the
//! [`ShardedDispatcher`] is built (worker count autotuned unless
//! configured), and further registrations are refused with a typed
//! error, matching the dispatcher's static partition plan.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;

use dbtoaster_common::{Catalog, Error, EventBatch, Result};
use dbtoaster_server::{
    AuditHandle, IngestReport, ShardedDispatcher, ViewId, ViewServer, ViewSnapshot,
};
use dbtoaster_telemetry::{
    log_info, log_warn, Counter, Gauge, HealthFn, HealthStatus, Histogram, MetricsRegistry,
    SlowEvent, SlowEventRing, TraceRecorder, TraceSpan, Unit, DEFAULT_SLOW_PAYLOAD_BYTES,
    DEFAULT_SLOW_RING_CAPACITY, LAYER_QUEUE,
};

use crate::source::{SocketSource, DEFAULT_SOURCE_QUEUE_DEPTH};
use crate::wire::{
    self, AuditReport, HistogramStat, Message, Request, Response, ServerStats, ViewStat,
};

/// Tunables of a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Dispatcher worker-pool size, used as given but capped at the
    /// portfolio's partition count; `None` autotunes from the machine's
    /// available parallelism, read once when the dispatcher is built.
    pub workers: Option<usize>,
    /// Bound of the central ingest queue, in batches. Admission blocks
    /// when full — the back-pressure that keeps memory flat when
    /// feeders outrun the dispatcher.
    pub queue_depth: usize,
    /// Maximum events per batch pulled from a feed connection.
    pub feed_batch_size: usize,
    /// Bound of each feed connection's decoded-batch queue.
    pub feed_queue_depth: usize,
    /// Capture events whose apply latency meets this threshold (in
    /// microseconds) in a bounded ring, dumpable via the `debug`
    /// request. `None` disables capture entirely.
    pub slow_event_us: Option<u64>,
    /// Also capture a rendered (bounded) copy of each slow event's
    /// tuple in the ring. Off by default — payloads can carry data.
    pub slow_event_payloads: bool,
    /// Record event-flow trace spans for one in every N admitted
    /// events (`Some(1)` traces everything). Spans cover queue wait,
    /// dispatch, group-lock acquisition, stages and statements, and are
    /// dumpable via the `debug trace` request or `/trace` endpoint.
    /// `None` leaves tracing fully disabled (one relaxed load per span
    /// site).
    pub trace_sample: Option<u64>,
    /// Shadow-audit one in every N events: re-run it through the
    /// interpreter oracle off-thread and compare the view bit-exactly
    /// (`Some(1)` audits everything). Mismatches count into
    /// `dbt_audit_mismatch_total`, land in a bounded ring dumpable via
    /// the `debug audit` request, and fail readiness. `None` leaves
    /// auditing fully disabled (one relaxed load per event).
    pub audit_sample: Option<u64>,
    /// Readiness threshold: `/readyz` reports not-ready while any
    /// relation's feed lag (admitted − applied events) exceeds this.
    pub ready_max_lag: u64,
    /// Readiness threshold: `/readyz` reports not-ready while the
    /// ingest queue holds more than this many batches.
    pub ready_max_queue: u64,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            workers: None,
            queue_depth: 64,
            feed_batch_size: 1024,
            feed_queue_depth: DEFAULT_SOURCE_QUEUE_DEPTH,
            slow_event_us: None,
            slow_event_payloads: false,
            trace_sample: None,
            audit_sample: None,
            ready_max_lag: 100_000,
            ready_max_queue: 64,
        }
    }
}

/// Server lifecycle: registration is open until the first batch
/// arrives, then the dispatcher is built and the portfolio is frozen.
enum Phase {
    Registering(Box<ViewServer>),
    Running(Arc<ShardedDispatcher>),
    /// Transient placeholder during promotion; never observable.
    Promoting,
}

/// One unit on the ingest queue.
enum IngestJob {
    Batch {
        batch: EventBatch,
        reply: std::sync::mpsc::Sender<Result<usize>>,
        /// Admission time, taken while metrics are enabled or tracing
        /// is on — the ingest thread turns it into queue-wait latency
        /// (and queue spans) on dequeue.
        admitted: Option<Instant>,
        /// First admission sequence of the batch (event `i` carries
        /// `base_seq + i`), allocated at admission so queue-wait spans
        /// correlate with the dispatch/apply spans downstream.
        base_seq: u64,
    },
    Stop,
}

/// The network layer's own instruments, registered in the portfolio's
/// shared [`MetricsRegistry`]. All label sets are fixed at bind time —
/// per-connection labels would grow without bound, so connection- and
/// feed-level activity aggregates into global counters instead.
struct NetMetrics {
    /// Batches admitted to the ingest queue and not yet applied. Can
    /// momentarily exceed the queue bound: admission increments before
    /// the blocking enqueue, so the excess counts back-pressured
    /// senders.
    queue_depth: Arc<Gauge>,
    /// Admission-to-dequeue latency of ingest jobs.
    queue_wait: Arc<Histogram>,
    /// Connections accepted, either plane.
    connections: Arc<Counter>,
    /// Connections that switched into feed mode.
    feed_connections: Arc<Counter>,
    /// Batch frames ingested from feed connections.
    feed_batches: Arc<Counter>,
    /// Events ingested from feed connections.
    feed_events: Arc<Counter>,
    /// Per stream relation: events admitted to the ingest queue
    /// (`dbt_feed_admitted_events_total{relation}`) and the freshness
    /// lag gauge (`dbt_feed_lag_events{relation}` = admitted − applied),
    /// refreshed by the pre-scrape hook. Label sets are fixed at bind:
    /// one pair per catalog stream relation.
    relation_lag: Vec<(String, Arc<Counter>, Arc<Gauge>)>,
}

impl NetMetrics {
    fn register_in(registry: &MetricsRegistry, catalog: &Catalog) -> NetMetrics {
        let relation_lag = catalog
            .stream_relations()
            .map(|schema| {
                let labels = [("relation", schema.name.as_str())];
                (
                    schema.name.clone(),
                    registry.counter(
                        "dbt_feed_admitted_events_total",
                        "Events admitted to the ingest queue for the relation",
                        &labels,
                    ),
                    registry.gauge(
                        "dbt_feed_lag_events",
                        "Admitted-but-not-yet-applied events of the relation",
                        &labels,
                    ),
                )
            })
            .collect();
        NetMetrics {
            relation_lag,
            queue_depth: registry.gauge(
                "dbt_ingest_queue_depth",
                "Batches admitted to the ingest queue and not yet applied",
                &[],
            ),
            queue_wait: registry.histogram(
                "dbt_ingest_wait_seconds",
                "Time an ingest job spends queued before the ingest thread picks it up",
                &[],
                Unit::Nanos,
            ),
            connections: registry.counter(
                "dbt_net_connections_total",
                "TCP connections accepted (request and feed planes)",
                &[],
            ),
            feed_connections: registry.counter(
                "dbt_feed_connections_total",
                "Connections that switched into feed mode",
                &[],
            ),
            feed_batches: registry.counter(
                "dbt_feed_batches_total",
                "Batch frames ingested from feed connections",
                &[],
            ),
            feed_events: registry.counter(
                "dbt_feed_events_total",
                "Events ingested from feed connections",
                &[],
            ),
        }
    }
}

struct Inner {
    config: NetConfig,
    /// The portfolio's trace recorder (owned by the [`ViewServer`]
    /// inside `phase`, cloned here so admission never takes the phase
    /// lock). Allocates every event's admission sequence.
    trace: Arc<TraceRecorder>,
    addr: SocketAddr,
    phase: Mutex<Phase>,
    /// Mirrors `matches!(phase, Phase::Running(_))` so the hot ingest
    /// path can skip the phase mutex entirely once promoted.
    running: AtomicBool,
    ingest_tx: SyncSender<IngestJob>,
    stopping: AtomicBool,
    /// The portfolio's metrics registry, shared with the [`ViewServer`]
    /// inside `phase` — kept here so scrapes and stats never need the
    /// phase lock.
    registry: Arc<MetricsRegistry>,
    metrics: NetMetrics,
    /// The slow-event ring shared with the [`ViewServer`]'s apply
    /// paths; populated when [`NetConfig::slow_event_us`] is set.
    slow_ring: Option<Arc<SlowEventRing>>,
    /// Read-side handle onto the [`ViewServer`]'s shadow auditor,
    /// cloned at bind so the `debug audit` response and the readiness
    /// probe never take the phase lock.
    audit: AuditHandle,
    /// Last readiness verdict, so flips (ready ⇄ not ready) are logged
    /// exactly once per transition.
    last_ready: AtomicBool,
}

impl Inner {
    /// The running dispatcher, building it (and freezing registration)
    /// on first use.
    fn promote(&self) -> Arc<ShardedDispatcher> {
        let mut phase = self.phase.lock();
        if let Phase::Running(d) = &*phase {
            return Arc::clone(d);
        }
        let Phase::Registering(server) = std::mem::replace(&mut *phase, Phase::Promoting) else {
            unreachable!("Promoting is never left in place");
        };
        let server = Arc::new(*server);
        let dispatcher = Arc::new(match self.config.workers {
            Some(workers) => ShardedDispatcher::new(server, workers),
            None => ShardedDispatcher::new_auto(server),
        });
        *phase = Phase::Running(Arc::clone(&dispatcher));
        self.running.store(true, Ordering::Release);
        dispatcher
    }

    /// The dispatcher if already running.
    fn dispatcher(&self) -> Option<Arc<ShardedDispatcher>> {
        match &*self.phase.lock() {
            Phase::Running(d) => Some(Arc::clone(d)),
            _ => None,
        }
    }

    fn register(&self, name: &str, sql: &str) -> Result<ViewId> {
        match &mut *self.phase.lock() {
            Phase::Registering(server) => server.register(name, sql),
            _ => Err(Error::Runtime(format!(
                "cannot register view '{name}': ingestion has started and the \
                 portfolio is frozen (register every view before the first batch)"
            ))),
        }
    }

    /// Admit one batch: promote if needed, enqueue, wait for the apply
    /// result. Blocking on a full queue is the back-pressure contract.
    /// Once running, admission touches no lock — just the queue.
    fn ingest(&self, batch: EventBatch) -> Result<usize> {
        if self.stopping.load(Ordering::SeqCst) {
            return Err(Error::Runtime("server is shutting down".into()));
        }
        if !self.running.load(Ordering::Acquire) {
            self.promote();
        }
        // Admission stamps: the batch's sequence range (always — it
        // feeds the watermarks) and the per-relation admitted counters
        // behind the lag gauges.
        let base_seq = self.trace.admit(batch.len() as u64);
        for (relation, admitted, _) in &self.metrics.relation_lag {
            let n = batch.iter().filter(|e| &e.relation == relation).count();
            if n > 0 {
                admitted.add(n as u64);
            }
        }
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        self.metrics.queue_depth.add(1);
        let admitted = (self.registry.enabled() || self.trace.is_enabled()).then(Instant::now);
        let sent = self.ingest_tx.send(IngestJob::Batch {
            batch,
            reply: reply_tx,
            admitted,
            base_seq,
        });
        if sent.is_err() {
            self.metrics.queue_depth.sub(1);
            return Err(Error::Runtime("ingest queue is closed".into()));
        }
        reply_rx
            .recv()
            .map_err(|_| Error::Runtime("ingest thread exited before replying".into()))?
    }

    /// A consistent cut of every view, concurrent with ingestion.
    fn snapshot_all(&self) -> Vec<ViewSnapshot> {
        let phase = self.phase.lock();
        match &*phase {
            Phase::Registering(server) => server.snapshot_all(),
            Phase::Running(d) => {
                let d = Arc::clone(d);
                drop(phase);
                d.server().snapshot_all()
            }
            Phase::Promoting => unreachable!("Promoting is never left in place"),
        }
    }

    /// One view's snapshot via the cheap path: only that view's own
    /// map groups are locked and copied, whatever the portfolio size.
    fn snapshot(&self, name: &str) -> Result<ViewSnapshot> {
        let phase = self.phase.lock();
        match &*phase {
            Phase::Registering(server) => server.snapshot(name),
            Phase::Running(d) => {
                let d = Arc::clone(d);
                drop(phase);
                d.server().snapshot(name)
            }
            Phase::Promoting => unreachable!("Promoting is never left in place"),
        }
    }

    fn stats(&self) -> ServerStats {
        fn view_stats(server: &ViewServer) -> Vec<ViewStat> {
            server
                .view_names()
                .iter()
                .map(|name| ViewStat {
                    name: name.to_string(),
                    events_processed: server.events_processed(name).unwrap_or(0),
                })
                .collect()
        }
        let histograms = self.histogram_stats();
        let phase = self.phase.lock();
        match &*phase {
            Phase::Registering(server) => ServerStats {
                views: view_stats(server),
                running: false,
                queue_depth: self.config.queue_depth as u64,
                histograms,
                ..ServerStats::default()
            },
            Phase::Running(d) => {
                let d = Arc::clone(d);
                drop(phase);
                let report = d.report();
                ServerStats {
                    views: view_stats(d.server()),
                    running: true,
                    workers: report.workers,
                    partitions: d.partitions() as u64,
                    batches: report.batches,
                    events: report.events,
                    parallel_batches: report.parallel_batches,
                    sequential_batches: report.sequential_batches,
                    jobs: report.jobs,
                    queue_depth: self.config.queue_depth as u64,
                    histograms,
                }
            }
            Phase::Promoting => unreachable!("Promoting is never left in place"),
        }
    }

    /// Summarize every registry histogram for the `stats` response —
    /// the same series the Prometheus endpoint exposes, in wire form.
    fn histogram_stats(&self) -> Vec<HistogramStat> {
        self.registry
            .histogram_snapshots()
            .into_iter()
            .map(|(name, labels, s)| HistogramStat {
                name,
                labels,
                count: s.count,
                sum: s.sum,
                max: s.max,
                p50: s.p50(),
                p95: s.p95(),
                p99: s.p99(),
            })
            .collect()
    }

    /// The slow-event ring's retained entries, oldest first (empty when
    /// capture is not configured).
    fn slow_events(&self) -> Vec<SlowEvent> {
        self.slow_ring
            .as_ref()
            .map(|ring| ring.dump())
            .unwrap_or_default()
    }

    /// Refresh the registry's store-size gauges from the live store —
    /// the Prometheus endpoint's pre-scrape hook, shared with
    /// `memory_report` so the two can never disagree.
    fn refresh_store_metrics(&self) {
        let phase = self.phase.lock();
        match &*phase {
            Phase::Registering(server) => {
                server.refresh_store_metrics();
                self.refresh_feed_lag(server);
            }
            Phase::Running(d) => {
                let d = Arc::clone(d);
                drop(phase);
                d.server().refresh_store_metrics();
                self.refresh_feed_lag(d.server());
            }
            Phase::Promoting => unreachable!("Promoting is never left in place"),
        }
    }

    /// Stop accepting and drain: set the flag (the polling accept loop
    /// observes it within one [`ACCEPT_POLL`] interval, whatever the
    /// bind address) and stop the ingest thread after the jobs already
    /// admitted.
    fn begin_shutdown(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = self.ingest_tx.send(IngestJob::Stop);
    }

    fn handle_request(self: &Arc<Inner>, req: Request) -> Response {
        match req {
            Request::Register { name, sql } => match self.register(&name, &sql) {
                Ok(id) => Response::Registered { view: id.0 as u64 },
                Err(e) => Response::Error(e),
            },
            Request::ApplyBatch(batch) => match self.ingest(batch) {
                Ok(deliveries) => Response::Applied {
                    deliveries: deliveries as u64,
                },
                Err(e) => Response::Error(e),
            },
            Request::Snapshot(name) => match self.snapshot(&name) {
                Ok(s) => Response::Snapshot(s),
                Err(e) => Response::Error(e),
            },
            Request::SnapshotAll => Response::Snapshots(self.snapshot_all()),
            Request::Stats => Response::Stats(self.stats()),
            // Unreachable from handle_connection, which intercepts
            // Shutdown to write the reply *before* stopping the service
            // threads. Any other caller must do the same if it relays
            // the response over a socket the process is about to leave.
            Request::Shutdown => {
                self.begin_shutdown();
                Response::ShuttingDown
            }
            Request::Debug => Response::SlowEvents(self.slow_events()),
            Request::DebugTrace => Response::TraceSpans(self.trace.dump()),
            Request::DebugAudit => Response::AuditReport(self.audit_report()),
        }
    }

    /// Assemble the `debug audit` response from the auditor's handle.
    fn audit_report(&self) -> AuditReport {
        AuditReport {
            enabled: self.audit.is_enabled(),
            sample_one_in: self.audit.sample_one_in(),
            checks: self.audit.checks_total(),
            mismatches: self.audit.mismatch_total(),
            dropped: self.audit.dropped_total(),
            entries: self.audit.mismatches(),
        }
    }

    /// The highest per-relation feed lag (admitted − applied events)
    /// across the catalog, read from the live counters.
    fn max_feed_lag(&self) -> u64 {
        let phase = self.phase.lock();
        let server = match &*phase {
            Phase::Registering(server) => {
                self.refresh_feed_lag(server);
                return self.peak_lag_gauge();
            }
            Phase::Running(d) => Arc::clone(d),
            Phase::Promoting => unreachable!("Promoting is never left in place"),
        };
        drop(phase);
        self.refresh_feed_lag(server.server());
        self.peak_lag_gauge()
    }

    fn peak_lag_gauge(&self) -> u64 {
        self.metrics
            .relation_lag
            .iter()
            .map(|(_, _, lag)| lag.get().max(0) as u64)
            .max()
            .unwrap_or(0)
    }

    /// The readiness verdict behind `/readyz`: the server is ready to
    /// take traffic while the ingest queue is below its threshold,
    /// every relation's feed lag is bounded, and the shadow auditor
    /// has found zero mismatches. A server that cannot trust its own
    /// views, or cannot keep up, should be rotated out of service.
    /// Transitions are logged once per flip.
    fn readiness(&self) -> HealthStatus {
        let mut problems = Vec::new();
        let queue = self.metrics.queue_depth.get().max(0) as u64;
        if queue > self.config.ready_max_queue {
            problems.push(format!(
                "ingest queue depth {queue} exceeds {}",
                self.config.ready_max_queue
            ));
        }
        let lag = self.max_feed_lag();
        if lag > self.config.ready_max_lag {
            problems.push(format!(
                "feed lag {lag} events exceeds {}",
                self.config.ready_max_lag
            ));
        }
        let mismatches = self.audit.mismatch_total();
        if mismatches > 0 {
            problems.push(format!("{mismatches} audit mismatch(es)"));
        }
        let ready = problems.is_empty();
        let detail = if ready {
            "ingest healthy".to_string()
        } else {
            problems.join("; ")
        };
        let was_ready = self.last_ready.swap(ready, Ordering::Relaxed);
        if was_ready != ready {
            if ready {
                log_info("net", "readiness restored", &[]);
            } else {
                log_warn("net", "readiness lost", &[("detail", detail.as_str())]);
            }
        }
        HealthStatus { ready, detail }
    }

    /// Fault-injection passthrough to
    /// [`ViewServer::corrupt_map_entry`], phase-agnostic.
    fn corrupt_map_entry(&self, view: &str, map: &str) -> Result<bool> {
        let phase = self.phase.lock();
        match &*phase {
            Phase::Registering(server) => server.corrupt_map_entry(view, map),
            Phase::Running(d) => {
                let d = Arc::clone(d);
                drop(phase);
                d.server().corrupt_map_entry(view, map)
            }
            Phase::Promoting => unreachable!("Promoting is never left in place"),
        }
    }

    /// Refresh the per-relation feed-lag gauges: admitted (the net
    /// layer's counters) minus applied (the server's relation
    /// counters). Relations without a dispatch plan never apply, so
    /// they report no lag rather than a forever-growing one.
    fn refresh_feed_lag(&self, server: &ViewServer) {
        for (relation, admitted, lag) in &self.metrics.relation_lag {
            let applied = match server.relation_events(relation) {
                Some(n) => n,
                None => continue,
            };
            lag.set(admitted.get().saturating_sub(applied) as i64);
        }
    }
}

fn write_response(writer: &mut BufWriter<TcpStream>, resp: &Response) -> Result<()> {
    wire::write_frame(writer, &wire::encode_response(resp))?;
    writer
        .flush()
        .map_err(|e| Error::Io(format!("response flush failed: {e}")))
}

/// One accepted connection: requests get responses until the peer
/// hangs up; the first batch frame switches the connection into feed
/// mode for the rest of its life.
fn handle_connection(inner: Arc<Inner>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut buf = Vec::new();
    let mut first_frame = true;
    loop {
        match wire::read_frame(&mut reader, &mut buf) {
            Ok(true) => {}
            Ok(false) => {
                // EOF before any frame could be a feeder that had
                // nothing to send but still awaits its ack; answering
                // an already-gone request client is harmless. EOF
                // after request traffic is a clean hang-up.
                if first_frame {
                    let _ =
                        write_response(&mut writer, &Response::FeedAck(IngestReport::default()));
                }
                return;
            }
            Err(e) => {
                // Tell the peer what was malformed, then drop the
                // connection — after a framing error the stream cannot
                // be re-synchronized. The logger's global rate bound
                // keeps a misbehaving peer from flooding stderr.
                log_warn(
                    "net",
                    "dropping connection after a framing error",
                    &[("error", &e.to_string())],
                );
                let _ = write_response(&mut writer, &Response::Error(e));
                return;
            }
        }
        first_frame = false;
        match wire::decode_message(&buf) {
            Ok(Message::Batch(first)) => {
                feed_connection(&inner, first, reader, writer);
                return;
            }
            // Shutdown replies *before* stopping the service threads:
            // once they stop, the process may exit, and the reply must
            // already be in the kernel's send buffer by then.
            Ok(Message::Request(Request::Shutdown)) => {
                let _ = write_response(&mut writer, &Response::ShuttingDown);
                inner.begin_shutdown();
                return;
            }
            Ok(Message::Request(req)) => {
                let resp = inner.handle_request(req);
                if write_response(&mut writer, &resp).is_err() {
                    return;
                }
            }
            Err(e) => {
                log_warn(
                    "net",
                    "dropping connection after an undecodable message",
                    &[("error", &e.to_string())],
                );
                let _ = write_response(&mut writer, &Response::Error(e));
                return;
            }
        }
    }
}

/// Feed mode: pump the connection's remaining batch frames through a
/// [`SocketSource`] into the ingest queue, then acknowledge the whole
/// feed (the barrier that makes a subsequent snapshot observe it all).
fn feed_connection(
    inner: &Arc<Inner>,
    first: EventBatch,
    reader: BufReader<TcpStream>,
    mut writer: BufWriter<TcpStream>,
) {
    inner.metrics.feed_connections.inc();
    let mut report = IngestReport::default();
    let outcome = (|| -> Result<()> {
        // The frame that identified this connection as a feed was
        // already consumed; account for it, then the shared drain loop
        // covers the rest of the stream.
        if !first.is_empty() {
            report.batches += 1;
            report.events += first.len();
            inner.metrics.feed_batches.inc();
            inner.metrics.feed_events.add(first.len() as u64);
            report.deliveries += inner.ingest(first)?;
        }
        let mut source = SocketSource::from_reader("feed", reader, inner.config.feed_queue_depth)?;
        report.absorb(dbtoaster_server::drain_source(
            &mut source,
            inner.config.feed_batch_size,
            |batch| {
                inner.metrics.feed_batches.inc();
                inner.metrics.feed_events.add(batch.len() as u64);
                inner.ingest(batch)
            },
        )?);
        Ok(())
    })();
    let resp = match outcome {
        Ok(()) => Response::FeedAck(report),
        Err(e) => {
            log_warn(
                "net",
                "feed connection failed",
                &[
                    ("error", &e.to_string()),
                    ("batches", &report.batches.to_string()),
                    ("events", &report.events.to_string()),
                ],
            );
            Response::Error(e)
        }
    };
    let _ = write_response(&mut writer, &resp);
}

/// The single ingest thread: drains the bounded queue through the
/// sharded dispatcher, in admission order.
fn ingest_loop(inner: Arc<Inner>, rx: Receiver<IngestJob>) {
    // The dispatcher never changes once Running; resolve it through the
    // phase mutex once, then the drain loop is lock-free.
    let mut dispatcher: Option<Arc<ShardedDispatcher>> = None;
    for job in rx {
        match job {
            IngestJob::Stop => return,
            IngestJob::Batch {
                batch,
                reply,
                admitted,
                base_seq,
            } => {
                inner.metrics.queue_depth.sub(1);
                if let Some(at) = admitted {
                    inner
                        .metrics
                        .queue_wait
                        .record(at.elapsed().as_nanos() as u64);
                    // Queue-wait spans: the admission→dequeue window,
                    // once per sampled event of the batch.
                    let trace = &inner.trace;
                    if trace.is_enabled() {
                        let dur_ns = at.elapsed().as_nanos() as u64;
                        let start_ns = trace.ns_of(at);
                        let tid = TraceRecorder::current_tid();
                        for i in 0..batch.len() as u64 {
                            let seq = base_seq + i;
                            if trace.sampled(seq) {
                                trace.record(TraceSpan {
                                    seq,
                                    layer: LAYER_QUEUE.to_string(),
                                    detail: format!("batch={}", batch.len()),
                                    start_ns,
                                    dur_ns,
                                    tid,
                                });
                            }
                        }
                    }
                }
                if dispatcher.is_none() {
                    dispatcher = inner.dispatcher();
                }
                let result = match &dispatcher {
                    Some(d) => d.apply_batch_at(&batch, base_seq),
                    None => Err(Error::Runtime(
                        "ingest job before promotion (admission bug)".into(),
                    )),
                };
                let _ = reply.send(result);
            }
        }
    }
}

/// The accept loop polls a non-blocking listener so shutdown liveness
/// never depends on the self-poke connection succeeding: even if the
/// poke is filtered or ports are exhausted, the loop observes the
/// `stopping` flag within one poll interval.
const ACCEPT_POLL: std::time::Duration = std::time::Duration::from_millis(5);

fn accept_loop(inner: Arc<Inner>, listener: TcpListener) {
    if listener.set_nonblocking(true).is_err() {
        // Cannot guarantee shutdown liveness without it; serve nothing
        // rather than risk a permanently wedged join.
        return;
    }
    loop {
        if inner.stopping.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
                continue;
            }
            // Transient accept failure (per-connection, e.g.
            // ECONNABORTED): keep serving.
            Err(_) => continue,
        };
        // On some platforms the accepted socket inherits the listener's
        // non-blocking mode; connection handlers expect blocking I/O.
        if stream.set_nonblocking(false).is_err() {
            continue;
        }
        // Responses and acks must not sit in Nagle's buffer waiting for
        // a delayed ACK.
        let _ = stream.set_nodelay(true);
        inner.metrics.connections.inc();
        let inner = Arc::clone(&inner);
        let spawned = std::thread::Builder::new()
            .name("dbtoaster-conn".into())
            .spawn(move || handle_connection(inner, stream));
        if spawned.is_err() {
            // Out of threads: drop the connection rather than the
            // server.
            continue;
        }
    }
}

/// A running standalone server: accept loop, bounded ingest queue,
/// sharded dispatch, concurrent snapshots. Binding returns immediately;
/// the handle can register views locally (the `--view` flags of
/// `dbtoasterd`), inspect state, and [`shutdown`](NetServer::shutdown)
/// or [`wait`](NetServer::wait).
pub struct NetServer {
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    ingest: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Bind and start serving `catalog` on `addr` (use port 0 for an
    /// ephemeral port; read it back with
    /// [`local_addr`](NetServer::local_addr)).
    pub fn bind(
        catalog: &Catalog,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> Result<NetServer> {
        let listener =
            TcpListener::bind(addr).map_err(|e| Error::Io(format!("bind failed: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::Io(format!("local_addr failed: {e}")))?;
        let (ingest_tx, ingest_rx) = std::sync::mpsc::sync_channel(config.queue_depth.max(1));
        let mut server = ViewServer::new(catalog);
        let registry = Arc::clone(server.metrics());
        let metrics = NetMetrics::register_in(&registry, catalog);
        let slow_ring = config.slow_event_us.map(|threshold_us| {
            let mut ring = SlowEventRing::new(threshold_us, DEFAULT_SLOW_RING_CAPACITY);
            if config.slow_event_payloads {
                ring = ring.with_payloads(DEFAULT_SLOW_PAYLOAD_BYTES);
            }
            let ring = Arc::new(ring);
            server.set_slow_event_ring(Arc::clone(&ring));
            ring
        });
        let trace = Arc::clone(server.trace_recorder());
        if let Some(n) = config.trace_sample {
            trace.set_sample_one_in(n);
            trace.set_enabled(true);
        }
        if let Some(n) = config.audit_sample {
            server.auditor().set_sample_one_in(n);
            server.auditor().set_enabled(true);
        }
        let audit = server.auditor().handle();
        let inner = Arc::new(Inner {
            config,
            trace,
            addr,
            phase: Mutex::new(Phase::Registering(Box::new(server))),
            running: AtomicBool::new(false),
            ingest_tx,
            stopping: AtomicBool::new(false),
            registry,
            metrics,
            slow_ring,
            audit,
            last_ready: AtomicBool::new(true),
        });
        let ingest = std::thread::Builder::new()
            .name("dbtoaster-ingest".into())
            .spawn({
                let inner = Arc::clone(&inner);
                move || ingest_loop(inner, ingest_rx)
            })
            .map_err(|e| Error::Io(format!("spawn ingest thread: {e}")))?;
        let accept = match std::thread::Builder::new()
            .name("dbtoaster-accept".into())
            .spawn({
                let inner = Arc::clone(&inner);
                move || accept_loop(inner, listener)
            }) {
            Ok(handle) => handle,
            Err(e) => {
                // Unwind the already-running ingest thread, or it would
                // block on its queue forever (Inner keeps the sender
                // alive).
                let _ = inner.ingest_tx.send(IngestJob::Stop);
                let _ = ingest.join();
                return Err(Error::Io(format!("spawn accept thread: {e}")));
            }
        };
        Ok(NetServer {
            inner,
            accept: Some(accept),
            ingest: Some(ingest),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Register a view from the hosting process (how `dbtoasterd`
    /// applies its `--view` flags). Same freezing rule as wire
    /// registration: only before the first batch.
    pub fn register(&self, name: &str, sql: &str) -> Result<ViewId> {
        self.inner.register(name, sql)
    }

    /// A consistent cut of every view, concurrent with ingestion.
    pub fn snapshot_all(&self) -> Vec<ViewSnapshot> {
        self.inner.snapshot_all()
    }

    /// Server counters (same payload the wire `stats` request serves).
    pub fn stats(&self) -> ServerStats {
        self.inner.stats()
    }

    /// The metrics registry every layer of this server records into —
    /// hand it to a
    /// [`MetricsHttpServer`](dbtoaster_telemetry::MetricsHttpServer)
    /// to expose a Prometheus endpoint.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.inner.registry)
    }

    /// Turn latency recording on or off. Counters and gauges always
    /// count; this gates only the clock reads behind histograms.
    pub fn set_metrics_enabled(&self, on: bool) {
        self.inner.registry.set_enabled(on);
    }

    /// The slow-event ring's retained entries, oldest first (what the
    /// wire `debug` request serves; empty unless
    /// [`NetConfig::slow_event_us`] is set).
    pub fn slow_events(&self) -> Vec<SlowEvent> {
        self.inner.slow_events()
    }

    /// The event-flow trace recorder shared by every layer of this
    /// server (sampling enabled at bind via
    /// [`NetConfig::trace_sample`]).
    pub fn trace_recorder(&self) -> Arc<TraceRecorder> {
        Arc::clone(&self.inner.trace)
    }

    /// The recorded trace spans, ordered by start time (what the wire
    /// `debug trace` request serves; empty unless tracing is enabled).
    pub fn trace_spans(&self) -> Vec<TraceSpan> {
        self.inner.trace.dump()
    }

    /// A callback that refreshes the registry's store-size gauges from
    /// the live store — pass it to
    /// [`MetricsHttpServer::bind`](dbtoaster_telemetry::MetricsHttpServer::bind)
    /// as the pre-scrape hook so every scrape reflects current map
    /// sizes.
    pub fn store_metrics_refresher(&self) -> Box<dyn Fn() + Send + Sync> {
        let inner = Arc::clone(&self.inner);
        Box::new(move || inner.refresh_store_metrics())
    }

    /// A readiness callback for the `/readyz` endpoint — pass it to
    /// [`MetricsHttpServer::bind_with_planes`]: ready while the ingest
    /// queue and feed lag are below the configured thresholds and the
    /// shadow auditor has found zero mismatches.
    ///
    /// [`MetricsHttpServer::bind_with_planes`]:
    /// dbtoaster_telemetry::MetricsHttpServer::bind_with_planes
    pub fn health_fn(&self) -> HealthFn {
        let inner = Arc::clone(&self.inner);
        Box::new(move || inner.readiness())
    }

    /// The current readiness verdict (what `/readyz` serves).
    pub fn readiness(&self) -> HealthStatus {
        self.inner.readiness()
    }

    /// A read-side handle onto the shadow auditor: counters, the
    /// mismatch ring, and the drain barrier tests use to settle the
    /// audit worker (sampling enabled at bind via
    /// [`NetConfig::audit_sample`]).
    pub fn audit_handle(&self) -> AuditHandle {
        self.inner.audit.clone()
    }

    /// The `debug audit` report (also served over the wire via
    /// [`NetClient::debug_audit`](crate::NetClient::debug_audit)).
    pub fn audit_report(&self) -> AuditReport {
        self.inner.audit_report()
    }

    /// Deliberately corrupt one live map entry of a view — the audit
    /// plane's fault-injection hook, for chaos tests that must prove
    /// the auditor detects real divergence. See
    /// [`ViewServer::corrupt_map_entry`].
    ///
    /// [`ViewServer::corrupt_map_entry`]:
    /// dbtoaster_server::ViewServer::corrupt_map_entry
    pub fn corrupt_map_entry(&self, view: &str, map: &str) -> Result<bool> {
        self.inner.corrupt_map_entry(view, map)
    }

    /// Stop accepting, drain admitted batches, and join the service
    /// threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Block until the server shuts down (a wire `shutdown` request or
    /// process signal) — the `dbtoasterd` main loop.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.ingest.take() {
            let _ = handle.join();
        }
    }

    fn stop_and_join(&mut self) {
        self.inner.begin_shutdown();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.ingest.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::NetClient;
    use crate::source::FeedWriter;
    use dbtoaster_common::{tuple, ColumnType, Event, Schema};

    fn rs_catalog() -> Catalog {
        Catalog::new()
            .with(Schema::new(
                "R",
                vec![("A", ColumnType::Int), ("B", ColumnType::Int)],
            ))
            .with(Schema::new(
                "S",
                vec![("B", ColumnType::Int), ("C", ColumnType::Int)],
            ))
    }

    fn spawn_server() -> NetServer {
        NetServer::bind(&rs_catalog(), "127.0.0.1:0", NetConfig::default()).unwrap()
    }

    #[test]
    fn requests_round_trip_against_a_live_server() {
        let server = spawn_server();
        let mut client = NetClient::connect(server.local_addr()).unwrap();

        let a = client.register("totals", "select sum(A) from R").unwrap();
        let b = client
            .register("joined", "select count(*) from R, S where R.B = S.B")
            .unwrap();
        assert_eq!((a.0, b.0), (0, 1));

        // Typed compile errors travel back typed.
        match client.register("broken", "select nothing from NOWHERE") {
            Err(Error::Schema(_)) | Err(Error::Analysis(_)) => {}
            other => panic!("expected a typed failure, got {other:?}"),
        }

        let deliveries = client
            .apply_batch(&[
                Event::insert("R", tuple![2i64, 1i64]),
                Event::insert("S", tuple![1i64, 5i64]),
                Event::insert("R", tuple![3i64, 1i64]),
            ])
            .unwrap();
        assert_eq!(deliveries, 5, "2 R events hit both views, 1 S event one");

        // Registration is frozen after the first batch.
        match client.register("late", "select count(*) from R") {
            Err(Error::Runtime(m)) => assert!(m.contains("frozen"), "{m}"),
            other => panic!("late registration must fail typed: {other:?}"),
        }

        let snap = client.snapshot("totals").unwrap();
        assert_eq!(snap.rows[0].values[0], dbtoaster_common::Value::Int(5));
        assert_eq!(snap.events_processed, 2);
        assert!(client.snapshot("nope").is_err());

        let all = client.snapshot_all().unwrap();
        assert_eq!(
            all,
            server.snapshot_all(),
            "wire snapshot == local snapshot"
        );

        let stats = client.stats().unwrap();
        assert!(stats.running);
        assert_eq!(stats.views.len(), 2);
        assert_eq!(stats.batches, 1);
        assert!(stats.workers >= 1);

        client.shutdown_server().unwrap();
        server.wait();
    }

    #[test]
    fn feed_connections_ack_after_the_last_event_is_applied() {
        let server = spawn_server();
        server.register("totals", "select sum(A) from R").unwrap();
        let events: Vec<Event> = (0..100i64)
            .map(|i| Event::insert("R", tuple![i, i % 3]))
            .collect();

        let mut feeder = FeedWriter::connect(server.local_addr()).unwrap();
        for chunk in events.chunks(9) {
            feeder.send(chunk).unwrap();
        }
        let report = feeder.finish_and_ack().unwrap();
        assert_eq!(report.events, 100);
        assert_eq!(report.deliveries, 100);

        // The ack is the barrier: the snapshot taken after it sees
        // every event.
        let snap = server.snapshot_all();
        assert_eq!(snap[0].events_processed, 100);
        assert_eq!(
            snap[0].rows[0].values[0],
            dbtoaster_common::Value::Int((0..100i64).sum::<i64>())
        );
    }

    #[test]
    fn metrics_plane_serves_histograms_and_slow_events() {
        let config = NetConfig {
            // Threshold 0: every event is a "slow" event, so the ring
            // is deterministically populated.
            slow_event_us: Some(0),
            ..NetConfig::default()
        };
        let server = NetServer::bind(&rs_catalog(), "127.0.0.1:0", config).unwrap();
        server.register("totals", "select sum(A) from R").unwrap();
        server.set_metrics_enabled(true);

        let mut client = NetClient::connect(server.local_addr()).unwrap();
        client
            .apply_batch(&[
                Event::insert("R", tuple![1i64, 0i64]),
                Event::insert("R", tuple![2i64, 1i64]),
                Event::insert("R", tuple![3i64, 2i64]),
            ])
            .unwrap();

        let stats = client.stats().unwrap();
        let find = |name: &str| {
            stats
                .histograms
                .iter()
                .find(|h| h.name == name)
                .unwrap_or_else(|| panic!("stats response lacks {name}"))
        };
        let apply = find("dbt_apply_event_seconds");
        assert_eq!(apply.count, 3, "one sample per event");
        assert!(apply.max >= apply.p50, "quantiles are ordered");
        assert!(find("dbt_apply_batch_seconds").count >= 1);
        assert!(
            find("dbt_ingest_wait_seconds").count >= 1,
            "the ingest queue wait was sampled"
        );

        // The same counters, as Prometheus text.
        let text = server.metrics().render_prometheus();
        assert!(text.contains("dbt_view_events_total{view=\"totals\"} 3"));
        assert!(text.contains("dbt_feed_events_total 0"));
        assert!(text.contains("dbt_apply_event_seconds_count 3"));

        // The ring captured every event; the wire dump matches the
        // in-process view.
        let slow = client.debug_slow_events().unwrap();
        assert_eq!(slow.len(), 3);
        assert_eq!(slow, server.slow_events());
        assert!(slow.iter().all(|e| e.relation == "R" && !e.is_delete));
    }

    #[test]
    fn debug_without_a_slow_ring_returns_an_empty_dump() {
        let server = spawn_server();
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        assert_eq!(client.debug_slow_events().unwrap(), Vec::new());
    }

    #[test]
    fn an_empty_feed_is_acknowledged_with_zeros() {
        let server = spawn_server();
        let feeder = FeedWriter::connect(server.local_addr()).unwrap();
        let report = feeder.finish_and_ack().unwrap();
        assert_eq!(report, IngestReport::default());
    }

    #[test]
    fn malformed_frames_get_a_typed_error_and_the_connection_drops() {
        use std::io::{Read, Write};
        let server = spawn_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // An oversized length prefix.
        stream.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        stream.write_all(&[1, 2, 3]).unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut buf = Vec::new();
        assert!(wire::read_frame(&mut reader, &mut buf).unwrap());
        match wire::decode_response(&buf).unwrap() {
            Response::Error(Error::Wire(m)) => assert!(m.contains("oversized"), "{m}"),
            other => panic!("expected a wire error, got {other:?}"),
        }
        // ... and the server closed the connection afterwards.
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
    }
}
