//! Multi-query view server over a shared map store.
//!
//! The paper's standalone mode is not a one-query toy: it is a query
//! processor maintaining *many* standing aggregate views at once,
//! "accepting input over a network interface or archived stream". This
//! crate is that deployment shape for the reproduction:
//!
//! * [`ViewServer`] — compiles N standing queries against one shared
//!   [`Catalog`] into N trigger programs and routes each incoming event
//!   only to the views whose triggers reference the event's relation.
//!   Registration precomputes a **relation plan** per dispatched
//!   relation: the interested views, their combined lock plan, and a
//!   cached slot-resolution table ([`dbtoaster_runtime::FramePlan`]), so
//!   the hot ingestion paths neither search nor allocate.
//! * **Shared map store** — registration deduplicates maps *across*
//!   views by canonical fingerprint: every `BASE_*` multiplicity map and
//!   every alpha-equivalent sub-aggregate is materialized once, with the
//!   first registering view designated its **maintainer**. Other views
//!   bind the same storage read-only: their own statements targeting the
//!   shared map are skipped, so a shared map is written once per event,
//!   not once per interested view.
//! * **Per-group locking, sharded by relation** — base-relation maps
//!   live in per-*relation* groups, derived maps in per-*view* groups,
//!   each behind its own lock. Two views sharing `BASE_BIDS` contend
//!   only on that relation's lock, not on each other's derived state. A
//!   batch locks exactly the groups its affected views touch, in
//!   ascending group order; [`ViewServer::snapshot_all`] read-locks
//!   every group in the same order, so snapshots are one consistent cut
//!   of the stream and acquisition is deadlock-free. Batches over
//!   disjoint group sets ingest in parallel — [`ShardedDispatcher`]
//!   drives exactly that with a worker pool.
//! * **One batched ingestion core** — [`ViewServer::apply_batch`] takes
//!   each affected group's write lock once per batch, reusing pooled
//!   ingestion buffers; [`ViewServer::apply`] is a batch of one, whose
//!   single relation reuses its cached relation plan, so per-event cost
//!   tracks the *interested* views, not the whole portfolio. Within the
//!   batch each event runs
//!   through a **dependency-ordered stage schedule** across its
//!   interested views: hierarchy retract statements (stage `-1`, which
//!   must observe every input pre-event) run for every view first, then
//!   all delta (`Update`) statements — shared maps are written exactly
//!   once, by their maintainer — then hierarchy rebuild and legacy
//!   re-evaluation statements (stage `+1`), which thereby observe fully
//!   post-event inputs. Stages a relation's views never compiled are
//!   not walked at all: an all-flat portfolio runs exactly one pass per
//!   event.
//! * **Pluggable sources** — [`ViewServer::run_source`] drains any
//!   [`EventSource`] (an archived CSV stream via [`CsvReplaySource`], a
//!   workload generator adapter, eventually a network socket) through
//!   the batched path.
//!
//! Ingestion methods take `&self`, so an `Arc<ViewServer>` can be fed
//! from many threads while other threads read results; per-view
//! statistics are atomics, updated while the group write locks are held
//! so consistent snapshots still observe counts and maps moving
//! together.
//!
//! ## Sharing semantics (and one caveat)
//!
//! Two maps are shared when their definitions are alpha-equivalent
//! ([`dbtoaster_compiler::MapDecl::fingerprint`]); a map's contents are a
//! pure function of its definition over the event stream, so every
//! sharer reads exactly what it would have maintained privately. One
//! shape is excluded at registration: when a view's *delta-stage*
//! statement reads a map in a trigger for a relation the map itself
//! depends on (a self-join on the update path), the read must observe
//! the map *pre-event* — in the view's own engine the map's update is
//! ordered after the read, but a shared map's maintainer would have
//! updated it earlier in the same event. Such maps are materialized
//! privately for that view (it can still *provide* them to later
//! hazard-free sharers). Statements outside the delta stage need no
//! such guard: hierarchy retracts (stage `-1`) run before every view's
//! deltas and so always see pre-event state, while rebuilds and legacy
//! `Replace` re-evaluations (stage `+1`) run after them and always see
//! post-event state — the stage schedule delivers both, whichever view
//! maintains the shared map.

pub mod audit;
pub mod csv;
pub mod shard;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dbtoaster_common::{
    Catalog, Error, Event, EventBatch, EventKind, EventSource, FxHashMap, FxHashSet, Result, Tuple,
    Value,
};
use dbtoaster_compiler::{
    compile_sql, handler_name, CompileOptions, Stage, TriggerProgram, STAGE_DELTA,
};
use dbtoaster_runtime::{
    apply_event_statements, assemble_result, lower_program, ordered_fallback, result_column_names,
    EventScratch, ExecProgram, FramePlan, LockWaitMetrics, MapRead, MapRegistration, MapWrite,
    ProfileReport, ResultRow, SharedMapStore, StatementPhase, StmtHooks, StmtProfile, StmtSpans,
    ViewBinding,
};
use dbtoaster_telemetry::{
    Counter, Gauge, Histogram, MetricsRegistry, SlowEventRing, TraceRecorder, TraceSpan, Unit,
    DEFAULT_TRACE_RING_CAPACITY, LAYER_LOCK, LAYER_STAGE,
};

pub use audit::{
    AuditHandle, AuditMismatch, ShadowAuditor, CHECK_CHAIN, CHECK_REPLAY,
    DEFAULT_AUDIT_RING_CAPACITY,
};
pub use csv::{to_csv_string, write_csv, CsvReplaySource};
pub use shard::{auto_workers, DispatchReport, ShardedDispatcher, MAX_AUTO_WORKERS};

/// Stable handle to a registered view (its registration index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ViewId(pub usize);

/// Pre-event capture of a sampled audit, taken under the group write
/// locks before the event runs (see [`ViewServer::audit_pre`]).
struct AuditPre {
    view: usize,
    seq: u64,
    event: Event,
    pre: Vec<Vec<(Tuple, Value)>>,
    events_before: u64,
}

/// One per-trigger ingestion counter of a view, indexed like the view's
/// `exec.triggers`. The set of triggers is fixed at registration, so
/// updates are plain atomic adds — no lock, no map insertion — performed
/// while the group write locks are held so snapshots observe counts and
/// maps move together.
struct TriggerStat {
    /// How many statements the dedup skips each time the trigger fires
    /// (static; × `count` = writes saved).
    skipped: u64,
    count: AtomicU64,
    nanos: AtomicU64,
}

/// Per-stage cost counters, one pair per scheduled statement stage
/// (interned registry-wide by stage label, so every relation plan with
/// a stage `-1` pass feeds the same series).
#[derive(Clone)]
struct StageMetrics {
    nanos: Arc<Counter>,
    events: Arc<Counter>,
}

/// The server's metric handles, registered once into a shared
/// [`MetricsRegistry`] — hot paths go through `Arc` handles, never a
/// by-name lookup. Histogram recording is off until
/// [`ViewServer::set_metrics_enabled`]; counters and gauges always
/// record (several replace pre-existing bookkeeping and must stay
/// exact).
/// Footprint gauges of one store slot (labels fixed at allocation).
struct SlotGauges {
    bytes: Arc<Gauge>,
    entries: Arc<Gauge>,
    index_bytes: Arc<Gauge>,
}

struct ServerMetrics {
    registry: Arc<MetricsRegistry>,
    /// Per-event apply latency, timed inside the batch loop.
    apply_event: Arc<Histogram>,
    /// Whole-batch apply latency (lock acquisition excluded, matching
    /// the trigger-stat clock).
    apply_batch: Arc<Histogram>,
    /// Events per applied batch.
    batch_size: Arc<Histogram>,
    /// Store footprint, refreshed by [`ViewServer::refresh_store_metrics`]
    /// (which [`ViewServer::store_report`] routes through).
    store_bytes: Arc<Gauge>,
    store_bytes_if_unshared: Arc<Gauge>,
    store_entries: Arc<Gauge>,
    /// Per-slot footprint gauges, indexed by slot id; extended as
    /// registration allocates slots.
    slot_gauges: Mutex<Vec<SlotGauges>>,
    /// Slow-event ring, when configured
    /// ([`ViewServer::set_slow_event_ring`]).
    slow: Option<Arc<SlowEventRing>>,
    /// `dbt_ordered_fallback_total{reason}` counters, aligned with
    /// [`ordered_fallback::REASONS`]. The engine keeps process-global
    /// relaxed atomics on its hot paths; [`ViewServer::store_report`]
    /// folds their growth into these registry counters by delta.
    ordered_fallback: Vec<Arc<Counter>>,
    /// Last engine counter values already claimed into the registry.
    ordered_fallback_seen: Mutex<[u64; ordered_fallback::REASONS.len()]>,
    /// Per-view last-claimed statement-profile stage totals
    /// (`(stage, nanos, runs)` rows, indexed by view id), mirrored into
    /// `dbt_stmt_nanos_total{view,stage}` / `dbt_stmt_runs_total{view,stage}`
    /// by delta at scrape time ([`ViewServer::store_report`]).
    stmt_seen: Mutex<Vec<Vec<(Stage, u64, u64)>>>,
}

impl ServerMetrics {
    fn new() -> ServerMetrics {
        let registry = Arc::new(MetricsRegistry::new());
        ServerMetrics {
            apply_event: registry.histogram(
                "dbt_apply_event_seconds",
                "Per-event apply latency through the stage schedule",
                &[],
                Unit::Nanos,
            ),
            apply_batch: registry.histogram(
                "dbt_apply_batch_seconds",
                "Whole-batch apply latency under the batch's group locks",
                &[],
                Unit::Nanos,
            ),
            batch_size: registry.histogram(
                "dbt_batch_size_events",
                "Events per applied batch",
                &[],
                Unit::Count,
            ),
            store_bytes: registry.gauge(
                "dbt_store_bytes",
                "Approximate bytes held by the shared store (each map once)",
                &[],
            ),
            store_bytes_if_unshared: registry.gauge(
                "dbt_store_bytes_if_unshared",
                "What per-view private maps would hold (each map once per sharer)",
                &[],
            ),
            store_entries: registry.gauge(
                "dbt_store_entries",
                "Live entries across all stored maps",
                &[],
            ),
            slot_gauges: Mutex::new(Vec::new()),
            slow: None,
            ordered_fallback: ordered_fallback::REASONS
                .iter()
                .map(|reason| {
                    registry.counter(
                        "dbt_ordered_fallback_total",
                        "Ordered-plan precondition failures that fell back to a scan",
                        &[("reason", reason)],
                    )
                })
                .collect(),
            ordered_fallback_seen: Mutex::new([0; ordered_fallback::REASONS.len()]),
            stmt_seen: Mutex::new(Vec::new()),
            registry,
        }
    }

    /// Claim the growth of the engine's process-global ordered-fallback
    /// counters into the registry. Deltas are tracked per server; with
    /// several servers in one process, whichever syncs first claims a
    /// given increment.
    fn sync_ordered_fallbacks(&self) {
        let counts = ordered_fallback::counts();
        let mut seen = self.ordered_fallback_seen.lock();
        for (i, &now) in counts.iter().enumerate() {
            let delta = now.saturating_sub(seen[i]);
            if delta > 0 {
                self.ordered_fallback[i].add(delta);
                seen[i] = now;
            }
        }
    }

    fn stage_metrics(&self, stage: Stage) -> StageMetrics {
        let label = stage.to_string();
        StageMetrics {
            nanos: self.registry.counter(
                "dbt_stage_nanos_total",
                "Cumulative nanoseconds spent executing statements of one stage",
                &[("stage", &label)],
            ),
            events: self.registry.counter(
                "dbt_stage_events_total",
                "Events that executed a pass of one stage",
                &[("stage", &label)],
            ),
        }
    }
}

/// One registered standing query.
struct View {
    name: String,
    sql: String,
    program: TriggerProgram,
    /// Lowered program, rebound from view-local map ids to store slots.
    exec: ExecProgram,
    /// This view's slots/maintainer flags/lock plan in the shared store.
    binding: ViewBinding,
    /// Cached slot-resolution table over `binding.groups` (the view's
    /// own read plan, for `result`/`profile`).
    plan: FramePlan,
    /// Store slot → skip statements targeting it (non-maintained shares).
    skip: Vec<bool>,
    compile_time: Duration,
    /// Events delivered to (and absorbed by) this view. A registry
    /// counter (`dbt_view_events_total{view=...}`), so the scraped
    /// series and every snapshot/profile read the same atomic.
    events_processed: Arc<Counter>,
    /// Per-trigger counters, indexed like `exec.triggers`.
    trigger_stats: Vec<TriggerStat>,
    /// Cumulative per-statement self-profile (nanos + runs, relaxed
    /// atomics shared across ingestion workers). Credited whenever
    /// histograms are enabled; surfaced through `profile`/`profile_report`
    /// and delta-synced into `dbt_stmt_*_total{view,stage}` at scrape.
    stmt_profile: Arc<StmtProfile>,
    /// Freshness watermark: highest admission sequence this view has
    /// absorbed (`dbt_view_watermark_seq{view}`). Advanced with
    /// [`Gauge::set_max`], so concurrent shard workers only ratchet it
    /// forward.
    watermark: Arc<Gauge>,
}

impl View {
    /// Credit `n` absorbed events and `nanos` of processing time to
    /// trigger `trigger`. Called with the group write locks held.
    fn record(&self, trigger: usize, n: u64, nanos: u64) {
        self.events_processed.add(n);
        let stat = &self.trigger_stats[trigger];
        stat.count.fetch_add(n, Ordering::Relaxed);
        stat.nanos.fetch_add(nanos, Ordering::Relaxed);
    }
}

/// Everything the server precomputes about one dispatched relation: the
/// views interested in its events (ascending registration order, so a
/// shared map's maintainer runs before its sharers), their combined lock
/// plan, the cached frame table over it, and the dependency-ordered
/// stage schedule. Rebuilt on registration, read-only during ingestion —
/// a single-relation batch is one hash lookup away from its locks.
struct RelationPlan {
    views: Vec<usize>,
    groups: Vec<usize>,
    frame: FramePlan,
    /// The event's execution schedule: every distinct statement stage
    /// any interested view compiled for this relation, ascending, each
    /// with the views that actually have statements at that stage. The
    /// delta stage (`0`) always lists every interested view — it doubles
    /// as the delivery-detection pass — while extra stages (hierarchy
    /// retracts at `-1`, rebuilds / legacy `Replace` re-evaluations at
    /// `+1`) exist only when some view needs them, so an all-flat
    /// portfolio runs exactly one pass per event and a mixed portfolio
    /// pays for the views that need more, not for every view.
    stages: Vec<(Stage, Vec<usize>)>,
    /// Cost counters aligned with `stages` (interned registry-wide by
    /// stage label, resolved at plan-rebuild time so the hot path never
    /// looks a metric up by name).
    stage_metrics: Vec<StageMetrics>,
    /// Events applied for this relation (`dbt_relation_events_total`),
    /// the ingest-side half of the feed-lag gauge: lag = admitted −
    /// applied. A counter, so it records even with histograms disabled.
    events: Arc<Counter>,
}

impl RelationPlan {
    /// Credit a flat (single-stage) plan's whole-event cost to its one
    /// stage. Multi-stage plans time each stage inside
    /// `run_event_stages`; a flat plan — the common case — reuses the
    /// caller's existing clock and pays no extra clock reads.
    fn credit_flat_stage(&self, nanos: u64) {
        if let [metrics] = self.stage_metrics.as_slice() {
            metrics.nanos.add(nanos);
            metrics.events.inc();
        }
    }
}

/// Per-event tracing context threaded through the scheduling loop: the
/// recorder, the event's admission sequence, and the hashed thread id
/// its spans are attributed to. Built only for sampled events, so the
/// unsampled path never formats or clocks anything.
struct TraceSpanCtx<'a> {
    recorder: &'a TraceRecorder,
    seq: u64,
    tid: u64,
}

/// Reusable per-caller ingestion state: the statement-evaluation scratch
/// buffers plus the staging vector for per-view counters. [`ViewServer`]
/// keeps a pool so plain [`ViewServer::apply`] / [`ViewServer::apply_batch`]
/// calls allocate nothing in steady state; the sharded dispatcher's
/// workers check one out per batch and hold it across their bucket jobs.
#[derive(Default)]
pub(crate) struct ApplyCtx {
    scratch: EventScratch,
    /// Staged (view, trigger, absorbed) counter rows of the current
    /// batch, flushed into the views' atomics at the end.
    counts: Vec<(usize, usize, u64)>,
    /// Scratch for the batch lock plan (union of relation groups).
    groups: Vec<usize>,
    /// (view, trigger) pairs that absorbed the current event.
    delivered: Vec<(usize, usize)>,
}

/// A consistent per-view result capture from [`ViewServer::snapshot_all`].
/// Compares exactly (float values by IEEE equality), so two ingestion
/// paths over the same stream can be asserted bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewSnapshot {
    pub name: String,
    pub columns: Vec<String>,
    pub rows: Vec<ResultRow>,
    pub events_processed: u64,
}

/// Counters returned by [`ViewServer::run_source`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Batches pulled from the source.
    pub batches: usize,
    /// Events pulled from the source.
    pub events: usize,
    /// Sum over views of events delivered to that view (one event
    /// delivered to k interested views counts k times).
    pub deliveries: usize,
}

impl IngestReport {
    /// Merge another report into this one (a stream drained in several
    /// legs, e.g. a network feed's first frame plus the rest).
    pub fn absorb(&mut self, other: IngestReport) {
        self.batches += other.batches;
        self.events += other.events;
        self.deliveries += other.deliveries;
    }
}

/// Drain an [`EventSource`] through `apply`, pulling batches of at most
/// `batch_size` events and accumulating the [`IngestReport`].
///
/// This is the one drain loop every ingestion path shares:
/// [`ViewServer::run_source`] applies batches directly (with a pooled
/// context), [`ShardedDispatcher::run_source`] routes them through the
/// partitioned worker pool, and the network server's feed plane
/// enqueues them on its ingest queue — a new [`EventSource`] (an
/// archived CSV stream, a live socket) plugs into all of them without
/// duplicating the loop. Batches are handed to `apply` by value so
/// consumers that move them across threads pay no copy.
pub fn drain_source(
    source: &mut dyn EventSource,
    batch_size: usize,
    mut apply: impl FnMut(EventBatch) -> Result<usize>,
) -> Result<IngestReport> {
    let mut report = IngestReport::default();
    while let Some(batch) = source.next_batch(batch_size)? {
        report.batches += 1;
        report.events += batch.len();
        report.deliveries += apply(batch)?;
    }
    Ok(report)
}

/// One deduplicated map in the [`StoreReport`].
#[derive(Debug, Clone)]
pub struct StoreMapReport {
    /// Store slot id.
    pub slot: usize,
    /// `(view name, view-local map name)` for every sharer, maintainer
    /// first.
    pub aliases: Vec<(String, String)>,
    /// Name of the view whose statements maintain the map.
    pub maintainer: String,
    pub arity: usize,
    pub is_base_relation: bool,
    /// Number of views bound to the slot.
    pub sharers: usize,
    /// Live entries.
    pub entries: usize,
    /// Approximate bytes (counted once, however many views share it).
    pub bytes: usize,
    /// Bytes of the map's secondary indexes (slice patterns + ordered
    /// cumulative indexes), already included in `bytes`.
    pub index_bytes: usize,
}

/// Shared-store introspection: what deduplicated, who maintains what,
/// and how much memory/write traffic the sharing saves.
#[derive(Debug, Clone, Default)]
pub struct StoreReport {
    /// Every stored map, in slot order.
    pub maps: Vec<StoreMapReport>,
    /// Approximate bytes of the store (each map once).
    pub total_bytes: usize,
    /// What the same views would hold without sharing (each map once
    /// per sharer) — the N× baseline.
    pub bytes_if_unshared: usize,
    /// Number of slots with more than one sharer.
    pub shared_slots: usize,
    /// Statement executions skipped so far because a map's maintainer
    /// already performs them (the per-event write-amplification saving).
    pub dedup_skipped_statements: u64,
}

/// A server maintaining many standing aggregate views over one shared
/// update stream, with materialized maps deduplicated across views.
pub struct ViewServer {
    catalog: Catalog,
    views: Vec<View>,
    /// relation name → precomputed dispatch plan (interested views,
    /// lock plan, frame table).
    dispatch: FxHashMap<String, RelationPlan>,
    store: SharedMapStore,
    /// Cached frame table over every group (snapshots, reports).
    all_plan: FramePlan,
    /// Pool of reusable ingestion contexts for `apply`/`apply_batch`.
    ctx_pool: Mutex<Vec<ApplyCtx>>,
    /// Metric handles over the server-wide registry.
    metrics: ServerMetrics,
    /// Event-flow trace recorder. Always constructed (admission
    /// sequencing and watermarks rely on its counter) but disabled by
    /// default, so the hot paths pay one relaxed load per event span
    /// site until tracing is switched on.
    trace: Arc<TraceRecorder>,
    /// Shadow auditor: sampled oracle re-execution of live events.
    /// Always constructed but disabled by default — the hot paths pay
    /// one relaxed load per event until auditing is switched on.
    audit: Arc<ShadowAuditor>,
}

impl ViewServer {
    /// Create an empty server over a catalog of stream relations.
    pub fn new(catalog: &Catalog) -> ViewServer {
        let metrics = ServerMetrics::new();
        let mut store = SharedMapStore::new();
        store.set_lock_wait_metrics(LockWaitMetrics {
            read: metrics.registry.histogram(
                "dbt_lock_wait_seconds",
                "Group-lock plan acquisition wait",
                &[("mode", "read")],
                Unit::Nanos,
            ),
            write: metrics.registry.histogram(
                "dbt_lock_wait_seconds",
                "Group-lock plan acquisition wait",
                &[("mode", "write")],
                Unit::Nanos,
            ),
        });
        ViewServer {
            catalog: catalog.clone(),
            views: Vec::new(),
            dispatch: FxHashMap::default(),
            store,
            all_plan: FramePlan::default(),
            ctx_pool: Mutex::new(Vec::new()),
            audit: Arc::new(ShadowAuditor::new(
                DEFAULT_AUDIT_RING_CAPACITY,
                Arc::clone(&metrics.registry),
            )),
            metrics,
            trace: Arc::new(TraceRecorder::new(DEFAULT_TRACE_RING_CAPACITY)),
        }
    }

    /// The event-flow trace recorder shared by every ingestion layer.
    /// Enable it (and pick a sampling rate) to capture queue/dispatch/
    /// lock/stage/statement spans; export with
    /// [`dbtoaster_telemetry::chrome_trace_json`].
    pub fn trace_recorder(&self) -> &Arc<TraceRecorder> {
        &self.trace
    }

    /// The shadow auditor: enable it (and pick a sampling rate) to
    /// re-run a sample of live events through the interpreter oracle
    /// and verify the maintained views bit-exactly. See
    /// [`audit::ShadowAuditor`].
    pub fn auditor(&self) -> &Arc<ShadowAuditor> {
        &self.audit
    }

    /// The server-wide metrics registry every layer records into. Wrap
    /// the server in an `Arc` and hand clones of this to the scrape
    /// endpoint or the wire stats plane.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics.registry
    }

    /// Enable or disable latency-histogram recording (counters and
    /// gauges always record). Off by default: the disabled hot path
    /// pays a single branch per record site.
    pub fn set_metrics_enabled(&self, on: bool) {
        self.metrics.registry.set_enabled(on);
    }

    /// Capture events at or above the ring's threshold into a bounded
    /// slow-event ring (configure before wrapping the server in an
    /// `Arc`). Active regardless of the histogram gate — it is opt-in
    /// by construction.
    pub fn set_slow_event_ring(&mut self, ring: Arc<SlowEventRing>) {
        self.metrics.slow = Some(ring);
    }

    /// The configured slow-event ring, if any.
    pub fn slow_event_ring(&self) -> Option<&Arc<SlowEventRing>> {
        self.metrics.slow.as_ref()
    }

    /// The shared catalog every view is compiled against.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Register a standing query under `name` with full recursive
    /// compilation.
    pub fn register(&mut self, name: &str, sql: &str) -> Result<ViewId> {
        self.register_with(name, sql, &CompileOptions::full())
    }

    /// Register a standing query with explicit compile options. Maps of
    /// the new view whose canonical fingerprints match already-stored
    /// maps are *not* materialized again: the view binds the existing
    /// storage and leaves its maintenance to the map's maintainer view.
    /// Exception: a map this view must read *pre-event* — a delta
    /// statement reads it in a trigger for a relation the map itself
    /// depends on, the self-join shape — is materialized privately, so
    /// another view's earlier update within the same event can never
    /// leak into this view's delta.
    pub fn register_with(
        &mut self,
        name: &str,
        sql: &str,
        options: &CompileOptions,
    ) -> Result<ViewId> {
        if self.views.iter().any(|v| v.name == name) {
            return Err(Error::Runtime(format!(
                "view '{name}' is already registered"
            )));
        }
        let started = Instant::now();
        let program = compile_sql(sql, &self.catalog, options)?;
        let local = lower_program(&program)?;
        let id = self.views.len();

        // Describe every map to the store; dedupe is by fingerprint,
        // refused where a delta statement needs pre-event reads: in its
        // own engine the map's update is ordered after that read, but a
        // shared map's maintainer runs earlier in phase 1.
        // Only *delta-stage* reads are hazardous: hierarchy retract
        // statements (stage -1) run before every view's delta phase and
        // rebuild statements (stage +1) after it, so their pre-/post-
        // event visibility of a shared map is guaranteed by the stage
        // schedule no matter which view maintains the map.
        let needs_pre_event_read = |decl: &dbtoaster_compiler::MapDecl| {
            let input_relations = decl.definition.relations();
            program
                .triggers
                .iter()
                .filter(|t| input_relations.contains(&t.relation))
                .flat_map(|t| &t.statements)
                .any(|s| {
                    s.kind == dbtoaster_compiler::StatementKind::Update
                        && s.stage == STAGE_DELTA
                        && s.update.map_refs().contains(&decl.name)
                })
        };
        let registrations: Vec<MapRegistration> = program
            .maps
            .iter()
            .enumerate()
            .map(|(i, decl)| MapRegistration {
                name: decl.name.clone(),
                fingerprint: decl.fingerprint(),
                arity: decl.keys.len(),
                is_base_relation: decl.is_base_relation,
                patterns: local.patterns[i].clone(),
                ordered: local.ordered[i].clone(),
                shareable: !needs_pre_event_read(decl),
            })
            .collect();
        let binding = self.store.register_view(id, &registrations);
        let exec = local.with_remapped_maps(&binding.slots, self.store.slot_count());
        let skip = binding.skip_targets(self.store.slot_count());

        let trigger_stats = exec
            .triggers
            .iter()
            .map(|trigger| TriggerStat {
                skipped: trigger
                    .statements
                    .iter()
                    .filter(|s| skip.get(s.target).copied().unwrap_or(false))
                    .count() as u64,
                count: AtomicU64::new(0),
                nanos: AtomicU64::new(0),
            })
            .collect();

        // Dispatch: route events of each referenced relation here.
        let relations: FxHashSet<String> = program
            .triggers
            .iter()
            .map(|t| t.relation.clone())
            .collect();
        for rel in relations {
            let events = self.metrics.registry.counter(
                "dbt_relation_events_total",
                "Events applied for the relation (the feed-lag denominator)",
                &[("relation", &rel)],
            );
            self.dispatch
                .entry(rel)
                .or_insert_with(|| RelationPlan {
                    views: Vec::new(),
                    groups: Vec::new(),
                    frame: FramePlan::default(),
                    stages: Vec::new(),
                    stage_metrics: Vec::new(),
                    events,
                })
                .views
                .push(id);
        }
        let plan = self.store.plan(&binding.groups);
        let stmt_profile = Arc::new(StmtProfile::for_program(&exec));
        self.audit.register_view(id, name, program.clone());
        self.views.push(View {
            name: name.to_string(),
            sql: sql.to_string(),
            program,
            exec,
            binding,
            plan,
            skip,
            compile_time: started.elapsed(),
            events_processed: self.metrics.registry.counter(
                "dbt_view_events_total",
                "Events delivered to (and absorbed by) the view",
                &[("view", name)],
            ),
            trigger_stats,
            stmt_profile,
            watermark: self.metrics.registry.gauge(
                "dbt_view_watermark_seq",
                "Highest admission sequence the view has absorbed",
                &[("view", name)],
            ),
        });
        self.metrics.stmt_seen.lock().push(Vec::new());
        self.rebuild_plans();
        Ok(ViewId(id))
    }

    /// Recompute every cached dispatch plan. Registration-time only:
    /// a new view can extend a relation group another plan covers and
    /// grows the slot table every plan resolves against.
    fn rebuild_plans(&mut self) {
        for (relation, plan) in self.dispatch.iter_mut() {
            plan.groups.clear();
            for &i in &plan.views {
                plan.groups.extend(&self.views[i].binding.groups);
            }
            plan.groups.sort_unstable();
            plan.groups.dedup();
            plan.frame = self.store.plan(&plan.groups);

            // Dependency-ordered stage schedule: the delta stage always
            // covers every interested view (it is also the pass that
            // detects deliveries); other stages list only the views
            // whose compiled triggers for this relation reach them.
            plan.stages.clear();
            plan.stages.push((STAGE_DELTA, plan.views.clone()));
            for &i in &plan.views {
                let Some(trigger) = self.views[i].exec.trigger(relation) else {
                    continue;
                };
                for statement in &trigger.statements {
                    let stage = statement.stage;
                    if stage == STAGE_DELTA {
                        continue;
                    }
                    match plan.stages.iter_mut().find(|(s, _)| *s == stage) {
                        Some((_, views)) => {
                            if !views.contains(&i) {
                                views.push(i);
                            }
                        }
                        None => plan.stages.push((stage, vec![i])),
                    }
                }
            }
            plan.stages.sort_by_key(|(stage, _)| *stage);
            plan.stage_metrics = plan
                .stages
                .iter()
                .map(|(stage, _)| self.metrics.stage_metrics(*stage))
                .collect();
        }
        for view in &mut self.views {
            view.plan = self.store.plan(&view.binding.groups);
        }
        self.all_plan = self.store.plan(&self.store.all_groups());

        // Per-slot footprint gauges for any slot this registration
        // allocated (labels are fixed at allocation: the slot id and the
        // maintainer's name for the map).
        let mut slot_gauges = self.metrics.slot_gauges.lock();
        for slot in slot_gauges.len()..self.store.slot_count() {
            let meta = self.store.slot(slot);
            let slot_label = slot.to_string();
            let map_name = meta.aliases.first().map(|(_, n)| n.as_str()).unwrap_or("?");
            let labels = [("slot", slot_label.as_str()), ("map", map_name)];
            slot_gauges.push(SlotGauges {
                bytes: self.metrics.registry.gauge(
                    "dbt_store_map_bytes",
                    "Approximate bytes of one stored map",
                    &labels,
                ),
                entries: self.metrics.registry.gauge(
                    "dbt_store_map_entries",
                    "Live entries of one stored map",
                    &labels,
                ),
                index_bytes: self.metrics.registry.gauge(
                    "dbt_store_map_index_bytes",
                    "Approximate bytes of one stored map's secondary indexes",
                    &labels,
                ),
            });
        }
    }

    /// Run one event through a relation plan's stage schedule — the
    /// scheduling loop of the ingestion core. Each stage runs across every view listed for it
    /// before the next stage begins, so hierarchy retract statements
    /// observe every shared input pre-event and rebuild / re-evaluation
    /// statements observe fully post-event inputs, regardless of which
    /// view maintains a shared map. `delivered` receives the (view,
    /// trigger) pairs that absorbed the event (detected on the delta
    /// stage, which covers all interested views).
    ///
    /// With `timed` set, a multi-stage plan brackets each stage pass
    /// with its own clock and credits the plan's stage counters — the
    /// per-stage cost breakdown the hierarchy's O(P²) question needs.
    /// Single-stage plans are never timed here: their one stage *is*
    /// the event, so callers credit it from the clock they already run
    /// ([`RelationPlan::credit_flat_stage`]) and the flat hot path pays
    /// no extra clock reads.
    #[allow(clippy::too_many_arguments)]
    fn run_event_stages<M: MapWrite + ?Sized>(
        &self,
        plan: &RelationPlan,
        frame: &mut M,
        event: &Event,
        scratch: &mut EventScratch,
        delivered: &mut Vec<(usize, usize)>,
        timed: bool,
        trace: Option<&TraceSpanCtx<'_>>,
    ) -> Result<()> {
        delivered.clear();
        let bracket = timed && plan.stages.len() > 1;
        for (index, (stage, views)) in plan.stages.iter().enumerate() {
            let stage_started = (bracket || trace.is_some()).then(Instant::now);
            for &i in views {
                let view = &self.views[i];
                let hooks = StmtHooks {
                    profile: timed.then(|| &*view.stmt_profile),
                    spans: trace.map(|t| StmtSpans {
                        recorder: t.recorder,
                        seq: t.seq,
                        view: &view.name,
                        tid: t.tid,
                    }),
                };
                let trigger = apply_event_statements(
                    &view.exec,
                    frame,
                    event,
                    scratch,
                    StatementPhase::Stage(*stage),
                    Some(&view.skip),
                    hooks,
                )?;
                if let (STAGE_DELTA, Some(t)) = (*stage, trigger) {
                    delivered.push((i, t));
                }
            }
            if let Some(started) = stage_started {
                if bracket {
                    let metrics = &plan.stage_metrics[index];
                    metrics.nanos.add(started.elapsed().as_nanos() as u64);
                    metrics.events.inc();
                }
                if let Some(t) = trace {
                    t.recorder.record(TraceSpan {
                        seq: t.seq,
                        layer: LAYER_STAGE.to_string(),
                        detail: format!("stage={} views={}", stage, views.len()),
                        start_ns: t.recorder.ns_of(started),
                        dur_ns: started.elapsed().as_nanos() as u64,
                        tid: t.tid,
                    });
                }
            }
        }
        Ok(())
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True when no view is registered.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Registered view names, in registration order.
    pub fn view_names(&self) -> Vec<&str> {
        self.views.iter().map(|v| v.name.as_str()).collect()
    }

    /// Handle of a view by name.
    pub fn id(&self, name: &str) -> Option<ViewId> {
        self.views.iter().position(|v| v.name == name).map(ViewId)
    }

    /// Name of a view by handle.
    pub fn name_of(&self, id: ViewId) -> Option<&str> {
        self.views.get(id.0).map(|v| v.name.as_str())
    }

    /// The SQL a view was registered with.
    pub fn sql_of(&self, name: &str) -> Result<&str> {
        Ok(self.resolve(name)?.sql.as_str())
    }

    /// The compiled trigger program of a view.
    pub fn program(&self, name: &str) -> Result<&TriggerProgram> {
        Ok(&self.resolve(name)?.program)
    }

    /// Names of views whose triggers reference `relation` (dispatch
    /// introspection). Relation names are upper-case throughout the
    /// runtime — the `Event` constructors normalize them — and dispatch
    /// matches exactly, so this lookup is deliberately not normalized:
    /// it answers precisely the question `apply` asks.
    pub fn interested_views(&self, relation: &str) -> Vec<&str> {
        match self.dispatch.get(relation) {
            Some(plan) => plan
                .views
                .iter()
                .map(|&i| self.views[i].name.as_str())
                .collect(),
            None => Vec::new(),
        }
    }

    /// All relations at least one view listens to.
    pub fn dispatched_relations(&self) -> Vec<&str> {
        let mut rels: Vec<&str> = self.dispatch.keys().map(String::as_str).collect();
        rels.sort_unstable();
        rels
    }

    /// The lock plan (ascending group ids) of one dispatched relation —
    /// the sharded dispatcher partitions batches by overlap of exactly
    /// these sets.
    pub fn relation_groups(&self, relation: &str) -> Option<&[usize]> {
        self.dispatch.get(relation).map(|p| p.groups.as_slice())
    }

    fn resolve(&self, name: &str) -> Result<&View> {
        self.views
            .iter()
            .find(|v| v.name == name)
            .ok_or_else(|| Error::Runtime(format!("unknown view '{name}'")))
    }

    /// Check out a reusable ingestion context from the pool; hand it
    /// back with [`ViewServer::return_ctx`].
    pub(crate) fn make_ctx(&self) -> ApplyCtx {
        self.ctx_pool.lock().pop().unwrap_or_default()
    }

    pub(crate) fn return_ctx(&self, ctx: ApplyCtx) {
        self.ctx_pool.lock().push(ctx);
    }

    /// Apply one event, routed only to interested views. Returns the
    /// number of views the event was delivered to. Dispatch matches the
    /// event's relation exactly; the `Event` constructors upper-case
    /// relation names, so hand-built events must do the same.
    ///
    /// A batch of one: the event runs through the same core as
    /// [`ViewServer::apply_batch`], whose single-relation case reuses the
    /// relation's cached plan (interested views, lock plan, frame table),
    /// so per-event cost tracks the relation's views, not the portfolio.
    pub fn apply(&self, event: &Event) -> Result<usize> {
        self.apply_batch(std::slice::from_ref(event))
    }

    /// Capture the audit pre-state of a sampled event, under the
    /// already-held group write locks: which view to audit (rotating
    /// through the relation's views so a low sample rate still covers
    /// all of them), the view's map entries before the event, and its
    /// exact delivered-event count. `span_counts` carries the not-yet-
    /// flushed per-view delivery counts of an in-progress batch span.
    /// Returns `None` off-sample.
    fn audit_pre<M: MapRead + ?Sized>(
        &self,
        plan: &RelationPlan,
        event: &Event,
        seq: u64,
        frame: &M,
        span_counts: &[(usize, usize, u64)],
    ) -> Option<AuditPre> {
        if !self.audit.sampled(seq) || plan.views.is_empty() {
            return None;
        }
        let rotation = (seq / self.audit.sample_one_in()) as usize;
        let index = plan.views[rotation % plan.views.len()];
        let view = &self.views[index];
        let pre = view
            .binding
            .slots
            .iter()
            .map(|&slot| {
                frame
                    .map(slot)
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect()
            })
            .collect();
        let pending: u64 = span_counts
            .iter()
            .filter(|(v, _, _)| *v == index)
            .map(|(_, _, n)| *n)
            .sum();
        Some(AuditPre {
            view: index,
            seq,
            event: event.clone(),
            pre,
            events_before: view.events_processed.get() + pending,
        })
    }

    /// Complete a sampled audit after the event ran, still under the
    /// same write locks: assemble the audited view's post-event rows
    /// from the live frame and hand the bundle to the audit worker.
    fn audit_post<M: MapRead + ?Sized>(&self, pre: AuditPre, frame: &M, delivered: bool) {
        let view = &self.views[pre.view];
        let post_rows = assemble_result(&view.exec, frame);
        self.audit.submit(audit::AuditJob {
            view: pre.view,
            seq: pre.seq,
            event: pre.event,
            pre: pre.pre,
            post_rows,
            events_before: pre.events_before,
            delivered,
        });
    }

    /// Deliberately corrupt one live entry of a view's map: under the
    /// view's group write locks, add 1 to the first entry's value (via
    /// the storage's own `add`, so secondary indexes stay internally
    /// consistent — the corruption is that the state no longer matches
    /// the stream). An empty `map` name picks the view's first map
    /// holding a live entry. Returns whether an entry existed to
    /// corrupt. This is the audit plane's fault-injection hook: a chaos
    /// test flips an entry and asserts the auditor reports the
    /// divergence.
    pub fn corrupt_map_entry(&self, view: &str, map: &str) -> Result<bool> {
        let view = self.resolve(view)?;
        let mut guards = self.store.lock_write(view.plan.groups());
        let mut frame = view.plan.write_frame(&mut guards);
        let slots: Vec<usize> = if map.is_empty() {
            view.binding.slots.clone()
        } else {
            let index = view
                .program
                .maps
                .iter()
                .position(|d| d.name == map)
                .ok_or_else(|| Error::Runtime(format!("view has no map named '{map}'")))?;
            vec![view.binding.slots[index]]
        };
        for slot in slots {
            let storage = frame.map_mut(slot);
            let key = storage.iter().next().map(|(k, _)| k.clone());
            if let Some(key) = key {
                storage.add(key, Value::Int(1));
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Apply a whole batch through the dispatch index: the groups of all
    /// affected views are write-locked once (ascending group order, the
    /// same order `snapshot_all` reads in, so concurrent snapshots see
    /// either none or all of the batch), then each event runs through
    /// its relation's stage schedule across the interested views —
    /// hierarchy retracts, every view's delta updates, then rebuilds and
    /// re-evaluations. Statements targeting a shared map are executed
    /// only by the map's maintainer view, so per event each shared map
    /// is written once. Returns the total number of deliveries.
    pub fn apply_batch(&self, batch: &[Event]) -> Result<usize> {
        // Accepts any event slice; `&EventBatch` coerces via Deref, and
        // `UpdateStream::events.chunks(n)` feeds it zero-copy.
        self.apply_batch_at(batch, self.trace.admit(batch.len() as u64))
    }

    /// [`ViewServer::apply_batch`] against admission sequences the
    /// caller already allocated with [`TraceRecorder::admit`] — the
    /// entry point for upstream layers (the net ingest queue, the
    /// sharded dispatcher) that stamp seqs at admission so queue and
    /// dispatch spans correlate with the apply-side spans. Event `i` of
    /// the batch carries sequence `base + i`.
    pub fn apply_batch_at(&self, batch: &[Event], base: u64) -> Result<usize> {
        let mut ctx = self.make_ctx();
        let result = self.apply_span(batch, None, base, &mut ctx);
        self.return_ctx(ctx);
        result
    }

    /// The one ingestion core every apply entry point runs through
    /// (`apply`, `apply_batch`, `apply_batch_at`, `run_source` and the
    /// sharded dispatcher's workers): write-lock the union of the
    /// selected events' relation lock plans, run each selected event
    /// through its relation's stage schedule, credit stats and latency.
    /// `indices` restricts the span to a subset of `batch` (processed in
    /// the given order) so dispatcher buckets borrow the caller's events
    /// instead of cloning them; the event at batch position `i` carries
    /// sequence `base + i` either way.
    pub(crate) fn apply_span(
        &self,
        batch: &[Event],
        indices: Option<&[u32]>,
        base: u64,
        ctx: &mut ApplyCtx,
    ) -> Result<usize> {
        let count = indices.map_or(batch.len(), <[u32]>::len);
        let position_of = |pos: usize| indices.map_or(pos, |ix| ix[pos] as usize);
        // The span's lock plan is the union of the cached relation plans
        // of the distinct relations present.
        let mut relations: Vec<&str> = Vec::new();
        ctx.groups.clear();
        for pos in 0..count {
            let relation = batch[position_of(pos)].relation.as_str();
            if relations.contains(&relation) {
                continue;
            }
            if let Some(plan) = self.dispatch.get(relation) {
                relations.push(relation);
                ctx.groups.extend(&plan.groups);
            }
        }
        if relations.is_empty() {
            return Ok(0);
        }
        ctx.groups.sort_unstable();
        ctx.groups.dedup();

        // Single-relation spans (single events, and the sharded
        // dispatcher's partitions are often exactly that) reuse the
        // relation's cached frame table; mixed spans build one table.
        let built;
        let frame_plan: &FramePlan = if relations.len() == 1 {
            &self.dispatch[relations[0]].frame
        } else {
            built = self.store.plan(&ctx.groups);
            &built
        };

        // Every lock plan in the server acquires groups in ascending id
        // order, so concurrent batches and snapshots cannot deadlock,
        // and a snapshot (which locks every group) observes either none
        // or all of this span.
        let timed = self.metrics.registry.enabled();
        let slow = self.metrics.slow.as_deref();
        // Per-event clocks inside the batch loop only when something
        // consumes them — the default path keeps one clock per batch.
        let per_event_clock = timed || slow.is_some();
        // Slow events are detected under the locks but reported after
        // release (the ring takes a mutex). By definition they are rare,
        // so the buffer normally never allocates.
        let mut slow_hits: Vec<(usize, u64)> = Vec::new();
        // Tracing state is hoisted: one relaxed load decides the span,
        // and the lock span is recorded once, attributed to the first
        // sampled sequence present (a span shares one acquisition — one
        // span per sampled event would just duplicate it).
        let tracing = self.trace.is_enabled();
        let tid = if tracing {
            TraceRecorder::current_tid()
        } else {
            0
        };
        let mut lock_seq: Option<u64> = None;
        if tracing {
            for pos in 0..count {
                let seq = base + position_of(pos) as u64;
                if self.trace.sampled(seq) {
                    lock_seq = Some(seq);
                    break;
                }
            }
        }
        let lock_started = lock_seq.map(|_| Instant::now());
        let mut guards = self.store.lock_write(frame_plan.groups());
        if let (Some(seq), Some(lock_started)) = (lock_seq, lock_started) {
            self.trace.record(TraceSpan {
                seq,
                layer: LAYER_LOCK.to_string(),
                detail: format!("groups={} events={}", frame_plan.groups().len(), count),
                start_ns: self.trace.ns_of(lock_started),
                dur_ns: lock_started.elapsed().as_nanos() as u64,
                tid,
            });
        }

        let started = Instant::now();
        let mut deliveries = 0usize;
        // Highest sequence run through a relation plan in this span —
        // the span-granular watermark every delivered-to view ratchets
        // to at the counter flush.
        let mut last_seq: Option<u64> = None;
        ctx.counts.clear();
        let mut failure: Option<Error> = None;
        {
            let mut frame = frame_plan.write_frame(&mut guards);
            for pos in 0..count {
                let position = position_of(pos);
                let event = &batch[position];
                let Some(plan) = self.dispatch.get(&event.relation) else {
                    continue;
                };
                let seq = base + position as u64;
                last_seq = Some(seq);
                plan.events.inc();
                let event_trace = if tracing && self.trace.sampled(seq) {
                    Some(TraceSpanCtx {
                        recorder: &self.trace,
                        seq,
                        tid,
                    })
                } else {
                    None
                };
                let audit = self.audit_pre(plan, event, seq, &frame, &ctx.counts);
                let event_started = per_event_clock.then(Instant::now);
                if let Err(e) = self.run_event_stages(
                    plan,
                    &mut frame,
                    event,
                    &mut ctx.scratch,
                    &mut ctx.delivered,
                    timed,
                    event_trace.as_ref(),
                ) {
                    failure = Some(e);
                    break;
                }
                if let Some(event_started) = event_started {
                    let nanos = event_started.elapsed().as_nanos() as u64;
                    if timed {
                        self.metrics.apply_event.record_unchecked(nanos);
                        plan.credit_flat_stage(nanos);
                    }
                    if let Some(ring) = slow {
                        if nanos / 1_000 >= ring.threshold_us() {
                            slow_hits.push((position, nanos));
                        }
                    }
                }
                if let Some(pre) = audit {
                    let delivered = ctx.delivered.iter().any(|&(v, _)| v == pre.view);
                    self.audit_post(pre, &frame, delivered);
                }
                deliveries += ctx.delivered.len();
                for &(i, t) in &ctx.delivered {
                    match ctx.counts.iter_mut().find(|(v, u, _)| *v == i && *u == t) {
                        Some((_, _, n)) => *n += 1,
                        None => ctx.counts.push((i, t, 1)),
                    }
                }
            }
        }

        // Flush per-view counters while still holding the write locks so
        // snapshot_all sees counts and maps move together. The batch is
        // timed once; each view is charged by its delivery count, so
        // per-trigger and per-view profile times both sum to the batch's
        // wall clock (an estimate, not a per-trigger measurement — the
        // price of one clock read per batch).
        let batch_nanos = started.elapsed().as_nanos() as u64;
        let per_delivery = batch_nanos / deliveries.max(1) as u64;
        for (view, trigger, n) in ctx.counts.drain(..) {
            let v = &self.views[view];
            v.record(trigger, n, per_delivery * n);
            if let Some(seq) = last_seq {
                v.watermark.set_max(seq as i64);
            }
        }
        drop(guards);
        // Whole-batch latency and the slow-event ring record outside
        // the lock scope.
        if timed {
            self.metrics.apply_batch.record_unchecked(batch_nanos);
            self.metrics.batch_size.record_unchecked(count as u64);
        }
        if let Some(ring) = slow {
            for (position, nanos) in slow_hits {
                let event = &batch[position];
                ring.observe_with(
                    &event.relation,
                    event.kind == EventKind::Delete,
                    nanos / 1_000,
                    || event.tuple.to_string(),
                );
            }
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(deliveries),
        }
    }

    /// Drain an [`EventSource`] through the batched ingestion path,
    /// pulling batches of at most `batch_size` events.
    pub fn run_source(
        &self,
        source: &mut dyn EventSource,
        batch_size: usize,
    ) -> Result<IngestReport> {
        drain_source(source, batch_size, |batch| self.apply_batch(&batch))
    }

    /// The current result rows of one view.
    pub fn result(&self, name: &str) -> Result<Vec<ResultRow>> {
        let view = self.resolve(name)?;
        let guards = self.store.lock_read(view.plan.groups());
        let frame = view.plan.read_frame(&guards);
        Ok(assemble_result(&view.exec, &frame))
    }

    /// The single value of a scalar view.
    pub fn scalar(&self, name: &str) -> Result<Value> {
        Ok(self
            .result(name)?
            .first()
            .and_then(|r| r.values.first().cloned())
            .unwrap_or(Value::ZERO))
    }

    /// Output column names of one view, in `SELECT` order.
    pub fn column_names(&self, name: &str) -> Result<Vec<String>> {
        Ok(result_column_names(&self.resolve(name)?.exec))
    }

    /// Read-only snapshot of one internal map of a view (the ad-hoc
    /// query interface). The name is the view-local map name; the
    /// storage read may be shared with other views.
    pub fn map_snapshot(&self, name: &str, map: &str) -> Result<Option<Vec<(Tuple, Value)>>> {
        let view = self.resolve(name)?;
        let Some(slot) = view.exec.map_id(map) else {
            return Ok(None);
        };
        let mut entries: Vec<(Tuple, Value)> = self.store.with_map(slot, |m| {
            m.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
        });
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(Some(entries))
    }

    /// Events delivered to (and absorbed by) one view so far.
    pub fn events_processed(&self, name: &str) -> Result<u64> {
        Ok(self.resolve(name)?.events_processed.get())
    }

    /// Profiling report of one view. `per_map` lists the view's maps
    /// under their view-local names; entries and bytes are read from the
    /// (possibly shared) store slots.
    pub fn profile(&self, name: &str) -> Result<ProfileReport> {
        let view = self.resolve(name)?;
        Ok(self.profile_view(view))
    }

    fn profile_view(&self, view: &View) -> ProfileReport {
        let per_map: Vec<(String, usize, usize)> = {
            let guards = self.store.lock_read(view.plan.groups());
            let frame = view.plan.read_frame(&guards);
            view.program
                .maps
                .iter()
                .zip(&view.binding.slots)
                .map(|(decl, &slot)| {
                    let m = frame.map(slot);
                    (decl.name.clone(), m.len(), m.approx_bytes())
                })
                .collect()
        };
        let mut per_trigger: Vec<(String, u64, Duration)> = view
            .trigger_stats
            .iter()
            .zip(&view.exec.triggers)
            .filter(|(s, _)| s.count.load(Ordering::Relaxed) > 0)
            .map(|(s, t)| {
                (
                    handler_name(&t.relation),
                    s.count.load(Ordering::Relaxed),
                    Duration::from_nanos(s.nanos.load(Ordering::Relaxed)),
                )
            })
            .collect();
        per_trigger.sort();
        ProfileReport {
            events_processed: view.events_processed.get(),
            per_trigger,
            total_bytes: per_map.iter().map(|(_, _, b)| b).sum(),
            per_map,
            statement_count: view.program.statement_count(),
            code_size: view.program.code_size(),
            compile_time: view.compile_time,
            statements: view.stmt_profile.entries(&view.exec),
            ordered_probes: ordered_fallback::probes(),
            ordered_fallbacks: ordered_fallback::REASONS
                .iter()
                .map(|r| r.to_string())
                .zip(ordered_fallback::counts())
                .collect(),
        }
    }

    /// Profiling reports of every view, in registration order.
    pub fn profiles(&self) -> Vec<(String, ProfileReport)> {
        self.views
            .iter()
            .map(|v| (v.name.clone(), self.profile_view(v)))
            .collect()
    }

    /// Approximate bytes held by the shared store — every map counted
    /// once, however many views share it.
    pub fn memory_bytes(&self) -> usize {
        self.store.approx_bytes()
    }

    /// What the same portfolio would hold with per-view private maps
    /// (every map counted once per sharer): the N× baseline the shared
    /// store collapses.
    pub fn memory_bytes_if_unshared(&self) -> usize {
        let guards = self.store.lock_read(self.all_plan.groups());
        let frame = self.all_plan.read_frame(&guards);
        self.views
            .iter()
            .flat_map(|v| v.binding.slots.iter())
            .map(|&slot| frame.map(slot).approx_bytes())
            .sum()
    }

    /// Shared-store introspection: per-map sharers/maintainer/footprint
    /// plus the memory and write-amplification savings.
    ///
    /// This walk is also the single source for the registry's map-size
    /// gauges (`dbt_store_bytes`, `dbt_store_map_bytes{slot,map}`, ...):
    /// every caller — the CLI memory panel, the metrics endpoint's
    /// prepare hook — refreshes them through here, so the panel and a
    /// concurrent scrape cannot disagree about the same walk.
    pub fn store_report(&self) -> StoreReport {
        let report = {
            let guards = self.store.lock_read(self.all_plan.groups());
            self.store_report_from(&self.all_plan.read_frame(&guards))
        };
        // The scrape-prepare walk is also where the engine's process-
        // global ordered-fallback counters and the views' statement
        // self-profiles surface in the registry.
        self.metrics.sync_ordered_fallbacks();
        self.sync_stmt_profiles();
        report
    }

    /// Claim the growth of each view's statement self-profile into the
    /// bounded-cardinality registry series `dbt_stmt_nanos_total{view,
    /// stage}` / `dbt_stmt_runs_total{view,stage}` (per stage, not per
    /// statement — full per-statement detail stays in
    /// [`ViewServer::profile`]). Same delta-claim idiom as the ordered-
    /// fallback sync: the hot path keeps relaxed atomics, the scrape
    /// folds their growth into counters.
    fn sync_stmt_profiles(&self) {
        let mut seen = self.metrics.stmt_seen.lock();
        for (view, last) in self.views.iter().zip(seen.iter_mut()) {
            let totals = view.stmt_profile.stage_totals(&view.exec);
            for (stage, nanos, runs) in totals {
                let claimed = match last.iter_mut().find(|(s, _, _)| *s == stage) {
                    Some(entry) => entry,
                    None => {
                        last.push((stage, 0, 0));
                        last.last_mut().expect("just pushed")
                    }
                };
                let stage_label = stage.to_string();
                let labels = [
                    ("view", view.name.as_str()),
                    ("stage", stage_label.as_str()),
                ];
                let dn = nanos.saturating_sub(claimed.1);
                if dn > 0 {
                    self.metrics
                        .registry
                        .counter(
                            "dbt_stmt_nanos_total",
                            "Cumulative nanoseconds in the view's statements of one stage",
                            &labels,
                        )
                        .add(dn);
                    claimed.1 = nanos;
                }
                let dr = runs.saturating_sub(claimed.2);
                if dr > 0 {
                    self.metrics
                        .registry
                        .counter(
                            "dbt_stmt_runs_total",
                            "Statement executions in the view's statements of one stage",
                            &labels,
                        )
                        .add(dr);
                    claimed.2 = runs;
                }
            }
        }
    }

    /// Events applied so far for one dispatched relation (the registry's
    /// `dbt_relation_events_total{relation}` reading) — `None` when no
    /// view listens to the relation. The net layer's feed-lag gauge is
    /// its per-relation admitted count minus this.
    pub fn relation_events(&self, relation: &str) -> Option<u64> {
        self.dispatch.get(relation).map(|p| p.events.get())
    }

    fn store_report_from(&self, frame: &dyn MapRead) -> StoreReport {
        let slot_gauges = self.metrics.slot_gauges.lock();
        let mut entries_total = 0usize;
        let mut report = StoreReport::default();
        for (slot, meta) in self.store.slots().iter().enumerate() {
            let m = frame.map(slot);
            let bytes = m.approx_bytes();
            let index_bytes = m.index_bytes();
            report.total_bytes += bytes;
            report.bytes_if_unshared += bytes * meta.sharers();
            if meta.sharers() > 1 {
                report.shared_slots += 1;
            }
            entries_total += m.len();
            if let Some(g) = slot_gauges.get(slot) {
                g.bytes.set(bytes as i64);
                g.entries.set(m.len() as i64);
                g.index_bytes.set(index_bytes as i64);
            }
            report.maps.push(StoreMapReport {
                slot,
                aliases: meta
                    .aliases
                    .iter()
                    .map(|(v, n)| (self.views[*v].name.clone(), n.clone()))
                    .collect(),
                maintainer: self.views[meta.maintainer].name.clone(),
                arity: meta.arity,
                is_base_relation: meta.is_base_relation,
                sharers: meta.sharers(),
                entries: m.len(),
                bytes,
                index_bytes,
            });
        }
        for view in &self.views {
            for stat in &view.trigger_stats {
                report.dedup_skipped_statements +=
                    stat.count.load(Ordering::Relaxed) * stat.skipped;
            }
        }
        self.metrics.store_bytes.set(report.total_bytes as i64);
        self.metrics
            .store_bytes_if_unshared
            .set(report.bytes_if_unshared as i64);
        self.metrics.store_entries.set(entries_total as i64);
        report
    }

    /// Refresh the registry's store-footprint gauges (one store walk).
    /// This is [`ViewServer::store_report`] with the report discarded —
    /// the natural prepare hook for a scrape endpoint.
    pub fn refresh_store_metrics(&self) {
        let _ = self.store_report();
    }

    /// A consistent capture of one view's result, read-locking only
    /// that view's own map groups — the cheap path for per-view polling
    /// (the network `snapshot` request), independent of portfolio size.
    pub fn snapshot(&self, name: &str) -> Result<ViewSnapshot> {
        let view = self.resolve(name)?;
        let rows = {
            let guards = self.store.lock_read(view.plan.groups());
            assemble_result(&view.exec, &view.plan.read_frame(&guards))
        };
        Ok(ViewSnapshot {
            name: view.name.clone(),
            columns: result_column_names(&view.exec),
            rows,
            events_processed: view.events_processed.get(),
        })
    }

    /// A consistent capture of every view's result.
    ///
    /// Every map group is read-locked (ascending order) before any
    /// result is read, so the snapshot reflects one cut of the event
    /// stream even while another thread is applying batches.
    pub fn snapshot_all(&self) -> Vec<ViewSnapshot> {
        let guards = self.store.lock_read(self.all_plan.groups());
        let frame = self.all_plan.read_frame(&guards);
        self.views
            .iter()
            .map(|v| ViewSnapshot {
                name: v.name.clone(),
                columns: result_column_names(&v.exec),
                rows: assemble_result(&v.exec, &frame),
                events_processed: v.events_processed.get(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_common::{
        tuple, ColumnType, EventBatch, EventKind, Schema, StreamSource, UpdateStream,
    };

    fn rst_catalog() -> Catalog {
        Catalog::new()
            .with(Schema::new(
                "R",
                vec![("A", ColumnType::Int), ("B", ColumnType::Int)],
            ))
            .with(Schema::new(
                "S",
                vec![("B", ColumnType::Int), ("C", ColumnType::Int)],
            ))
            .with(Schema::new(
                "T",
                vec![("C", ColumnType::Int), ("D", ColumnType::Int)],
            ))
    }

    const FIGURE2: &str = "select sum(A*D) from R, S, T where R.B=S.B and S.C=T.C";

    fn three_view_server() -> ViewServer {
        let mut server = ViewServer::new(&rst_catalog());
        server.register("figure2", FIGURE2).unwrap();
        server
            .register("r_by_b", "select B, sum(A) from R group by B")
            .unwrap();
        server
            .register("s_count", "select count(*) from S")
            .unwrap();
        server
    }

    #[test]
    fn registration_builds_the_dispatch_index() {
        let server = three_view_server();
        assert_eq!(server.len(), 3);
        assert_eq!(server.interested_views("R"), vec!["figure2", "r_by_b"]);
        // Dispatch is exact-match on the normalized (upper-case) names
        // the Event constructors produce; both APIs agree on misses.
        assert!(server.interested_views("r").is_empty());
        assert_eq!(
            server
                .apply(&Event {
                    relation: "r".into(),
                    kind: EventKind::Insert,
                    tuple: tuple![1i64, 1i64]
                })
                .unwrap(),
            0
        );
        assert_eq!(server.interested_views("S"), vec!["figure2", "s_count"]);
        assert_eq!(server.interested_views("T"), vec!["figure2"]);
        assert_eq!(server.dispatched_relations(), vec!["R", "S", "T"]);
        assert_eq!(server.id("figure2"), Some(ViewId(0)));
        assert_eq!(server.name_of(ViewId(2)), Some("s_count"));
        assert!(server.sql_of("r_by_b").unwrap().contains("group by B"));
    }

    #[test]
    fn relation_plans_cover_interested_views_lock_plans() {
        let server = three_view_server();
        // R's plan must include figure2's and r_by_b's groups; T's only
        // figure2's.
        let r = server.relation_groups("R").unwrap();
        let t = server.relation_groups("T").unwrap();
        assert!(t.iter().all(|g| r.contains(g)), "r={r:?} t={t:?}");
        assert!(server.relation_groups("NOPE").is_none());
        assert!(r.windows(2).all(|w| w[0] < w[1]), "ascending lock plan");
    }

    #[test]
    fn duplicate_names_and_bad_sql_are_rejected() {
        let mut server = three_view_server();
        assert!(server
            .register("figure2", "select count(*) from R")
            .is_err());
        assert!(server
            .register("broken", "select nothing from NOWHERE")
            .is_err());
        assert_eq!(server.len(), 3, "failed registrations leave no residue");
    }

    #[test]
    fn events_are_routed_only_to_interested_views() {
        let server = three_view_server();
        assert_eq!(
            server
                .apply(&Event::insert("R", tuple![2i64, 1i64]))
                .unwrap(),
            2
        );
        assert_eq!(
            server
                .apply(&Event::insert("T", tuple![3i64, 10i64]))
                .unwrap(),
            1
        );
        assert_eq!(
            server
                .apply(&Event::insert("UNKNOWN", tuple![1i64]))
                .unwrap(),
            0
        );
        assert_eq!(server.events_processed("figure2").unwrap(), 2);
        assert_eq!(server.events_processed("r_by_b").unwrap(), 1);
        assert_eq!(server.events_processed("s_count").unwrap(), 0);
    }

    #[test]
    fn apply_batch_matches_per_event_application() {
        let per_event = three_view_server();
        let batched = three_view_server();
        let events = vec![
            Event::insert("R", tuple![2i64, 1i64]),
            Event::insert("S", tuple![1i64, 3i64]),
            Event::insert("T", tuple![3i64, 10i64]),
            Event::insert("R", tuple![7i64, 1i64]),
            Event::delete("R", tuple![7i64, 1i64]),
        ];
        let mut per_event_deliveries = 0;
        for e in &events {
            per_event_deliveries += per_event.apply(e).unwrap();
        }
        let batch: EventBatch = events.into();
        let batched_deliveries = batched.apply_batch(&batch).unwrap();
        assert_eq!(batched_deliveries, per_event_deliveries);
        for name in ["figure2", "r_by_b", "s_count"] {
            assert_eq!(
                per_event.result(name).unwrap(),
                batched.result(name).unwrap(),
                "view {name} diverged between ingestion paths"
            );
            assert_eq!(
                per_event.events_processed(name).unwrap(),
                batched.events_processed(name).unwrap()
            );
        }
        assert_eq!(batched.scalar("figure2").unwrap(), Value::Int(20));
    }

    #[test]
    fn run_source_drains_a_stream_source_in_batches() {
        let server = three_view_server();
        let mut stream = UpdateStream::new();
        for i in 0..25i64 {
            stream.push(Event::insert("R", tuple![i, i % 3]));
            stream.push(Event::insert("S", tuple![i % 3, i]));
        }
        let mut source = StreamSource::new("unit", stream);
        let report = server.run_source(&mut source, 8).unwrap();
        assert_eq!(report.events, 50);
        assert_eq!(report.batches, 50usize.div_ceil(8));
        // R events reach figure2 + r_by_b, S events reach figure2 + s_count.
        assert_eq!(report.deliveries, 100);
        assert_eq!(server.events_processed("figure2").unwrap(), 50);
        assert_eq!(server.events_processed("r_by_b").unwrap(), 25);
        assert_eq!(server.scalar("s_count").unwrap(), Value::Int(25));
    }

    #[test]
    fn snapshot_all_reports_every_view_consistently() {
        let server = three_view_server();
        server
            .apply_batch(&[
                Event::insert("R", tuple![2i64, 1i64]),
                Event::insert("S", tuple![1i64, 3i64]),
                Event::insert("T", tuple![3i64, 10i64]),
            ])
            .unwrap();
        let snapshots = server.snapshot_all();
        assert_eq!(snapshots.len(), 3);
        assert_eq!(snapshots[0].name, "figure2");
        assert_eq!(snapshots[0].rows[0].values[0], Value::Int(20));
        assert_eq!(snapshots[2].events_processed, 1);
    }

    #[test]
    fn concurrent_feeder_and_snapshot_readers_agree_at_the_end() {
        let server = std::sync::Arc::new(three_view_server());
        let feeder = {
            let server = std::sync::Arc::clone(&server);
            std::thread::spawn(move || {
                for chunk in 0..20i64 {
                    let batch: EventBatch = (0..10i64)
                        .map(|i| Event::insert("R", tuple![chunk * 10 + i, chunk % 4]))
                        .collect();
                    server.apply_batch(&batch).unwrap();
                }
            })
        };
        // Both figure2 and r_by_b listen to R and batches are applied
        // under all affected locks at once, so any consistent snapshot
        // sees them at the same event count.
        for _ in 0..50 {
            let snap = server.snapshot_all();
            assert_eq!(snap[0].events_processed, snap[1].events_processed);
        }
        feeder.join().unwrap();
        assert_eq!(server.events_processed("r_by_b").unwrap(), 200);
        let rows = server.result("r_by_b").unwrap();
        assert_eq!(rows.len(), 4, "four groups of chunk % 4");
    }

    #[test]
    fn profiles_cover_every_view() {
        let server = three_view_server();
        server
            .apply(&Event::insert("R", tuple![1i64, 1i64]))
            .unwrap();
        let profiles = server.profiles();
        assert_eq!(profiles.len(), 3);
        assert!(profiles[0].1.statement_count > 0);
        assert_eq!(server.profile("s_count").unwrap().events_processed, 0);
        assert!(server.profile("nope").is_err());
        assert!(server.memory_bytes() > 0);
    }

    // -----------------------------------------------------------------
    // shared map store
    // -----------------------------------------------------------------

    #[test]
    fn identical_views_share_every_map_and_still_answer() {
        let mut server = ViewServer::new(&rst_catalog());
        server.register("a", FIGURE2).unwrap();
        server.register("b", FIGURE2).unwrap();
        let report = server.store_report();
        // The second registration materialized nothing new.
        assert!(report.maps.iter().all(|m| m.sharers == 2), "{report:#?}");
        assert_eq!(report.shared_slots, report.maps.len());
        assert!(report.maps.iter().all(|m| m.maintainer == "a"));

        server
            .apply_batch(&[
                Event::insert("R", tuple![2i64, 1i64]),
                Event::insert("S", tuple![1i64, 3i64]),
                Event::insert("T", tuple![3i64, 10i64]),
            ])
            .unwrap();
        assert_eq!(server.scalar("a").unwrap(), Value::Int(20));
        assert_eq!(server.scalar("b").unwrap(), Value::Int(20));
        // All of b's statements were skipped (a maintains everything),
        // but b still counted its deliveries.
        assert_eq!(server.events_processed("b").unwrap(), 3);
        assert!(server.store_report().dedup_skipped_statements > 0);
        // Memory: the pair costs 1×, the unshared baseline 2×.
        assert_eq!(server.memory_bytes_if_unshared(), 2 * server.memory_bytes());
    }

    #[test]
    fn overlapping_views_share_only_equivalent_maps() {
        let mut server = ViewServer::new(&rst_catalog());
        server.register("figure2", FIGURE2).unwrap();
        server
            .register("r_by_b", "select B, sum(A) from R group by B")
            .unwrap();
        let report = server.store_report();
        assert!(report.maps.iter().any(|m| m.sharers == 1));
        assert_eq!(
            server.memory_bytes(),
            server.memory_bytes_if_unshared(),
            "disjoint structures share nothing, so both measures agree"
        );
    }

    #[test]
    fn base_maps_of_first_order_views_are_materialized_once() {
        let mut server = ViewServer::new(&rst_catalog());
        server
            .register_with("q1", FIGURE2, &CompileOptions::first_order())
            .unwrap();
        server
            .register_with(
                "q2",
                "select count(*) from R, S where R.B = S.B",
                &CompileOptions::first_order(),
            )
            .unwrap();
        let report = server.store_report();
        let base_r: Vec<_> = report
            .maps
            .iter()
            .filter(|m| m.aliases.iter().any(|(_, n)| n == "BASE_R"))
            .collect();
        assert_eq!(base_r.len(), 1, "one BASE_R slot: {report:#?}");
        assert_eq!(base_r[0].sharers, 2);
        assert_eq!(base_r[0].maintainer, "q1");

        // Feed events; the shared base map is written once per event by
        // q1 and both views agree with a reference engine.
        let events = [
            Event::insert("R", tuple![1i64, 1i64]),
            Event::insert("S", tuple![1i64, 2i64]),
            Event::insert("R", tuple![5i64, 1i64]),
            Event::delete("R", tuple![1i64, 1i64]),
            Event::insert("T", tuple![2i64, 4i64]),
        ];
        server.apply_batch(&events).unwrap();
        assert_eq!(server.scalar("q2").unwrap(), Value::Int(1));
        let base = server.map_snapshot("q2", "BASE_R").unwrap().unwrap();
        assert_eq!(base.len(), 1);
        assert_eq!(base[0].0, tuple![5i64, 1i64]);
        assert!(server.store_report().dedup_skipped_statements > 0);
    }

    #[test]
    fn self_join_views_keep_private_copies_of_pre_event_read_maps() {
        use dbtoaster_runtime::Engine;
        // Both self-join views materialize an alpha-equivalent
        // sum-of-volume-by-price map over BIDS, but each reads it in
        // its own BIDS triggers' *delta* statements — a pre-event read.
        // Sharing it would let view A's update land before view B's
        // read within one event; registration must give each view a
        // private copy instead.
        let catalog = Catalog::new().with(dbtoaster_common::Schema::new(
            "BIDS",
            vec![
                ("PRICE", dbtoaster_common::ColumnType::Int),
                ("VOLUME", dbtoaster_common::ColumnType::Int),
            ],
        ));
        let a = "select sum(b1.VOLUME * b2.VOLUME) from BIDS b1, BIDS b2 \
                 where b1.PRICE = b2.PRICE";
        let b = "select sum(b1.VOLUME) from BIDS b1, BIDS b2 where b1.PRICE = b2.PRICE";
        let mut server = ViewServer::new(&catalog);
        server.register("a", a).unwrap();
        server.register("b", b).unwrap();

        let events = [
            Event::insert("BIDS", tuple![10i64, 3i64]),
            Event::insert("BIDS", tuple![10i64, 5i64]),
            Event::insert("BIDS", tuple![20i64, 7i64]),
        ];
        server.apply_batch(&events).unwrap();
        for (name, sql) in [("a", a), ("b", b)] {
            let program = compile_sql(sql, &catalog, &CompileOptions::full()).unwrap();
            let mut engine = Engine::new(&program).unwrap();
            engine.process(&events).unwrap();
            assert_eq!(
                server.scalar(name).unwrap(),
                engine.scalar_result(),
                "{name} diverged from its private engine"
            );
        }
        // sum(b1.V) over the self-join at equal prices: groups of sizes
        // {2, 1} contribute (3+5)*2 + 7*1.
        assert_eq!(server.scalar("b").unwrap(), Value::Int(23));
    }

    #[test]
    fn shared_views_match_independent_engines_exactly() {
        use dbtoaster_runtime::Engine;
        let catalog = rst_catalog();
        let queries = [
            ("figure2", FIGURE2),
            ("figure2_again", FIGURE2),
            ("r_by_b", "select B, sum(A) from R group by B"),
            ("joined", "select count(*) from R, S where R.B = S.B"),
        ];
        let mut server = ViewServer::new(&catalog);
        let mut engines = Vec::new();
        for (name, sql) in queries {
            server.register(name, sql).unwrap();
            let program = compile_sql(sql, &catalog, &CompileOptions::full()).unwrap();
            engines.push(Engine::new(&program).unwrap());
        }
        let mut stream = UpdateStream::new();
        for i in 0..60i64 {
            stream.push(Event::insert("R", tuple![i % 11, i % 4]));
            stream.push(Event::insert("S", tuple![i % 4, i % 6]));
            stream.push(Event::insert("T", tuple![i % 6, i]));
            if i % 3 == 0 {
                stream.push(Event::delete("R", tuple![i % 11, i % 4]));
            }
        }
        for chunk in stream.events.chunks(17) {
            server.apply_batch(chunk).unwrap();
        }
        for engine in &mut engines {
            engine.process(&stream).unwrap();
        }
        for ((name, _), engine) in queries.iter().zip(&engines) {
            assert_eq!(
                server.result(name).unwrap(),
                engine.result(),
                "{name} diverged from its private engine"
            );
        }
    }
}
