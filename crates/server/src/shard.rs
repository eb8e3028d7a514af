//! Sharded parallel dispatch over the view server's group locks.
//!
//! PR 2's locking design made disjoint-group batches *safe* to run
//! concurrently; this module is the driver that actually does it. A
//! [`ShardedDispatcher`] wraps an `Arc<ViewServer>` and runs each batch
//! on scoped `std::thread` workers (the container shims have no async
//! runtime, and none is needed: ingestion is CPU-bound):
//!
//! * **Partition planning is static.** Every dispatched relation has a
//!   precomputed lock plan (`ViewServer::relation_groups`). At
//!   construction the dispatcher runs union–find over those plans:
//!   relations whose group sets overlap — directly or transitively —
//!   land in one **partition** (connected component). Two relations in
//!   different partitions can never touch the same map group, so their
//!   events commute perfectly. Each batch is bucketed by partition.
//! * **Dispatch is zero-copy.** Buckets are index lists (`Vec<u32>`)
//!   into the caller's borrowed `&[Event]` slice; workers are spawned
//!   with `std::thread::scope` and apply their bucket's events directly
//!   from the borrowed slice. No event is cloned and no job crosses a
//!   queue — the caller's thread claims buckets alongside the spawned
//!   workers.
//! * **The pool size is fixed at construction.** [`ShardedDispatcher::new`]
//!   uses the requested worker count as given, capped at the partition
//!   count (more workers than partitions can never be busy at once);
//!   [`ShardedDispatcher::new_auto`] reads the machine's parallelism
//!   once, there. A batch only reads the stored size.
//! * **Single-destination batches bypass the pool.** With a pool of 1
//!   (every one-partition portfolio) a batch goes straight to the inline
//!   path without even a bucketing scan; when every event of a batch
//!   lands in one bucket the original slice is applied inline too — no
//!   thread spawn, no copy.
//!
//! Equivalence argument: the final contents of every map are a pure
//! function of the multiset of events each interested view absorbed
//! (incremental maintenance is exact), per-view event order is preserved
//! within a bucket, and a view's relations always share a group (the
//! view's own group is in every one of its relations' plans) — so all
//! events of one view are in one bucket, in batch order. Hence every
//! view sees exactly the state it would have reached sequentially, and
//! snapshots after the batch are identical. Error semantics differ in
//! one corner: a malformed event aborts only its own bucket's remainder,
//! not the whole batch (the earliest bucket's error is returned).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use dbtoaster_common::{Error, Event, EventSource, FxHashMap, Result};
use dbtoaster_telemetry::{
    Counter, Histogram, MetricsRegistry, TraceRecorder, TraceSpan, Unit, LAYER_DISPATCH,
};

use crate::{drain_source, IngestReport, ViewServer};

/// Dispatch counters, cheap enough to keep always-on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchReport {
    /// Batches accepted.
    pub batches: u64,
    /// Events accepted (including events no view listens to).
    pub events: u64,
    /// Batches that ran on scoped workers (≥ 2 occupied buckets).
    pub parallel_batches: u64,
    /// Batches applied inline because every event shared one bucket
    /// (or the pool has one worker).
    pub sequential_batches: u64,
    /// Buckets executed across all parallel batches.
    pub jobs: u64,
    /// Worker count the dispatcher runs with (1 = inline): the caller's
    /// count or the machine's parallelism, capped at the partition count.
    pub workers: u64,
}

/// Upper bound on the autotuned worker count: past this, lock and
/// scheduling overheads outweigh extra cores for every portfolio we
/// have measured.
pub const MAX_AUTO_WORKERS: usize = 32;

/// The autotuned worker count for a portfolio with `partitions`
/// independent partitions: the machine's available parallelism (1 when
/// unknown), clamped to `[1, MAX_AUTO_WORKERS]` and capped at the
/// partition count — more workers than partitions can never be busy at
/// once, and a one-partition portfolio degenerates to inline sequential
/// application. Reading the parallelism re-reads cgroup files, so it is
/// done once per dispatcher, never per batch.
pub fn auto_workers(partitions: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, MAX_AUTO_WORKERS)
        .min(partitions.max(1))
}

/// Union–find over dispatched relations: relations sharing any map
/// group — directly or transitively — merge into one partition. Returns
/// the relation → partition-id map (dense ids) and the partition count.
fn plan_partitions(server: &ViewServer) -> (FxHashMap<String, usize>, usize) {
    let relations: Vec<String> = server
        .dispatched_relations()
        .into_iter()
        .map(str::to_string)
        .collect();
    let mut parent: Vec<usize> = (0..relations.len()).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut group_owner: FxHashMap<usize, usize> = FxHashMap::default();
    for (ri, rel) in relations.iter().enumerate() {
        let groups = server
            .relation_groups(rel)
            .expect("dispatched relation has a plan");
        for &g in groups {
            match group_owner.get(&g) {
                Some(&owner) => {
                    let (a, b) = (find(&mut parent, ri), find(&mut parent, owner));
                    parent[a] = b;
                }
                None => {
                    group_owner.insert(g, ri);
                }
            }
        }
    }
    // Densify component representatives into partition ids.
    let mut dense: FxHashMap<usize, usize> = FxHashMap::default();
    let mut partition_of: FxHashMap<String, usize> = FxHashMap::default();
    for (ri, rel) in relations.iter().enumerate() {
        let root = find(&mut parent, ri);
        let next = dense.len();
        let id = *dense.entry(root).or_insert(next);
        partition_of.insert(rel.clone(), id);
    }
    (partition_of, dense.len())
}

/// Per-worker telemetry handles, interned once at construction so the
/// scoped per-batch workers never look a metric up by name.
struct WorkerMetrics {
    jobs: Arc<Counter>,
    busy: Arc<Counter>,
}

/// Parallel ingestion driver: buckets each batch by relation-group
/// partition and runs independent buckets concurrently on scoped std
/// threads borrowing the caller's event slice. See the module docs for
/// the equivalence argument.
pub struct ShardedDispatcher {
    server: Arc<ViewServer>,
    registry: Arc<MetricsRegistry>,
    /// Pool size, fixed at construction (1 = inline).
    workers: usize,
    /// relation name → partition id (dense, `0..partitions`).
    partition_of: FxHashMap<String, usize>,
    /// Number of partitions (connected components of group overlap).
    partitions: usize,
    /// Dispatch counters, registered in the server's metrics registry
    /// (`dbt_dispatch_*_total`) so [`DispatchReport`] and a scrape read
    /// the same atomics.
    batches: Arc<Counter>,
    events: Arc<Counter>,
    parallel_batches: Arc<Counter>,
    sequential_batches: Arc<Counter>,
    jobs: Arc<Counter>,
    /// Events per bucket of parallel batches — how evenly the partition
    /// plan splits real traffic.
    bucket_size: Arc<Histogram>,
    /// Per-worker counters, indexed by scoped-worker id.
    worker_metrics: Vec<WorkerMetrics>,
}

impl ShardedDispatcher {
    /// Build a dispatcher over a fully registered server. `workers` is
    /// the number of concurrent scoped workers, used as given but capped
    /// at the partition count; `0` or `1` applies every batch inline.
    /// Registration must be complete: the partition plan and the pool
    /// size are computed here, once.
    pub fn new(server: Arc<ViewServer>, workers: usize) -> ShardedDispatcher {
        ShardedDispatcher::build(server, |_| workers)
    }

    /// Build a dispatcher with the worker count autotuned from the
    /// machine ([`auto_workers`]): available parallelism, clamped and
    /// capped at the portfolio's partition count. The chosen size is
    /// visible as [`ShardedDispatcher::workers`] and in
    /// [`DispatchReport::workers`].
    pub fn new_auto(server: Arc<ViewServer>) -> ShardedDispatcher {
        ShardedDispatcher::build(server, auto_workers)
    }

    /// Plan the partitions, then size the pool from the partition count.
    fn build(server: Arc<ViewServer>, workers: impl FnOnce(usize) -> usize) -> ShardedDispatcher {
        let (partition_of, partitions) = plan_partitions(&server);
        let registry = Arc::clone(server.metrics());
        let workers = workers(partitions).min(partitions).max(1);
        let counter = |name: &str, help: &str| registry.counter(name, help, &[]);
        let worker_metrics = (0..workers)
            .map(|w| {
                let worker = w.to_string();
                WorkerMetrics {
                    jobs: registry.counter(
                        "dbt_worker_jobs_total",
                        "Bucket jobs one scoped worker ran",
                        &[("worker", &worker)],
                    ),
                    busy: registry.counter(
                        "dbt_worker_busy_nanos_total",
                        "Nanoseconds one scoped worker spent running jobs",
                        &[("worker", &worker)],
                    ),
                }
            })
            .collect();
        let dispatcher = ShardedDispatcher {
            workers,
            partition_of,
            partitions,
            batches: counter("dbt_dispatch_batches_total", "Batches accepted"),
            events: counter(
                "dbt_dispatch_events_total",
                "Events accepted (including events no view listens to)",
            ),
            parallel_batches: counter(
                "dbt_dispatch_parallel_batches_total",
                "Batches that ran on scoped workers",
            ),
            sequential_batches: counter(
                "dbt_dispatch_sequential_batches_total",
                "Batches applied inline (one occupied bucket, or a pool of one)",
            ),
            jobs: counter("dbt_dispatch_jobs_total", "Buckets executed as jobs"),
            bucket_size: registry.histogram(
                "dbt_shard_bucket_size_events",
                "Events per bucket of parallel batches",
                &[],
                Unit::Count,
            ),
            worker_metrics,
            server,
            registry,
        };
        dispatcher
            .registry
            .gauge(
                "dbt_dispatch_workers",
                "Worker count the dispatcher runs with (1 = inline)",
                &[],
            )
            .set(dispatcher.workers as i64);
        dispatcher
            .registry
            .gauge(
                "dbt_dispatch_partitions",
                "Independent partitions the portfolio splits into",
                &[],
            )
            .set(dispatcher.partitions as i64);
        dispatcher
    }

    /// The wrapped server.
    pub fn server(&self) -> &Arc<ViewServer> {
        &self.server
    }

    /// Configured worker count (1 = inline).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of independent partitions the registered portfolio
    /// splits into — the maximum parallelism a batch can reach.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Partition id of one relation (None when no view listens to it).
    pub fn partition_of(&self, relation: &str) -> Option<usize> {
        self.partition_of.get(relation).copied()
    }

    /// Dispatch counters so far.
    pub fn report(&self) -> DispatchReport {
        DispatchReport {
            batches: self.batches.get(),
            events: self.events.get(),
            parallel_batches: self.parallel_batches.get(),
            sequential_batches: self.sequential_batches.get(),
            jobs: self.jobs.get(),
            workers: self.workers as u64,
        }
    }

    /// Apply a batch, running independent buckets concurrently on
    /// scoped workers that borrow `batch` directly. Returns the total
    /// number of deliveries, exactly as the sequential
    /// [`ViewServer::apply_batch`] would.
    ///
    /// [`ViewServer::apply_batch`]: crate::ViewServer::apply_batch
    pub fn apply_batch(&self, batch: &[Event]) -> Result<usize> {
        let base = self.server.trace_recorder().admit(batch.len() as u64);
        self.apply_batch_at(batch, base)
    }

    /// [`ShardedDispatcher::apply_batch`] against admission sequences
    /// the caller already allocated (see [`ViewServer::apply_batch_at`])
    /// — the entry point for the net ingest queue, which stamps seqs at
    /// admission so queue-wait spans correlate with dispatch spans.
    ///
    /// [`ViewServer::apply_batch_at`]: crate::ViewServer::apply_batch_at
    pub fn apply_batch_at(&self, batch: &[Event], base: u64) -> Result<usize> {
        self.batches.inc();
        self.events.add(batch.len() as u64);

        // A pool of one (every one-partition portfolio) goes straight to
        // the sequential path, before even the bucketing scan.
        if self.workers == 1 {
            self.sequential_batches.inc();
            return self.apply_inline(batch, base);
        }

        // Bucket the events: index lists per partition, original order
        // preserved within each bucket. Events on relations no view
        // listens to are dropped — sequential apply_batch ignores them
        // identically.
        let mut buckets: Vec<(usize, Vec<u32>)> = Vec::new();
        for (i, event) in batch.iter().enumerate() {
            let Some(&p) = self.partition_of.get(&event.relation) else {
                continue;
            };
            match buckets.iter_mut().find(|(k, _)| *k == p) {
                Some((_, v)) => v.push(i as u32),
                None => buckets.push((p, vec![i as u32])),
            }
        }

        // One occupied bucket: the scoped machinery has nothing to win —
        // apply the original slice in place on this thread, uncloned,
        // with no queue round-trip.
        if buckets.len() <= 1 {
            self.sequential_batches.inc();
            return self.apply_inline(batch, base);
        }

        self.parallel_batches.inc();
        self.jobs.add(buckets.len() as u64);
        for (_, bucket) in &buckets {
            self.bucket_size.record(bucket.len() as u64);
        }

        // Scoped zero-copy execution: workers claim buckets off a shared
        // cursor and run them directly against the borrowed batch. The
        // caller's thread is worker 0; only `threads - 1` are spawned.
        let threads = self.workers.min(buckets.len());
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<Result<usize>>>> =
            buckets.iter().map(|_| Mutex::new(None)).collect();
        let timed = self.registry.enabled();
        let trace = self.server.trace_recorder();
        let tracing = trace.is_enabled();
        let worker = |w: usize, metrics: &WorkerMetrics| {
            let mut ctx = self.server.make_ctx();
            let tid = if tracing {
                TraceRecorder::current_tid()
            } else {
                0
            };
            loop {
                let b = next.fetch_add(1, Ordering::Relaxed);
                let Some((partition, bucket)) = buckets.get(b) else {
                    break;
                };
                metrics.jobs.inc();
                let started = (timed || tracing).then(Instant::now);
                let result = self.server.apply_span(batch, Some(bucket), base, &mut ctx);
                if let Some(started) = started {
                    if timed {
                        metrics.busy.add(started.elapsed().as_nanos() as u64);
                    }
                    if tracing {
                        // One dispatch span per sampled event of the
                        // bucket, all sharing the job's window: the
                        // bucket *is* the unit the worker ran.
                        let dur_ns = started.elapsed().as_nanos() as u64;
                        for &i in bucket.iter() {
                            let seq = base + i as u64;
                            if trace.sampled(seq) {
                                trace.record(TraceSpan {
                                    seq,
                                    layer: LAYER_DISPATCH.to_string(),
                                    detail: format!("partition={partition} worker={w}"),
                                    start_ns: trace.ns_of(started),
                                    dur_ns,
                                    tid,
                                });
                            }
                        }
                    }
                }
                *results[b].lock() = Some(result);
            }
            self.server.return_ctx(ctx);
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..threads)
                .map(|w| {
                    let metrics = &self.worker_metrics[w];
                    scope.spawn(move || worker(w, metrics))
                })
                .collect();
            worker(0, &self.worker_metrics[0]);
            for handle in handles {
                let _ = handle.join();
            }
        });

        // Ascending bucket order gives a deterministic error choice:
        // the earliest bucket's. A job a panicked worker never finished
        // (a library invariant bug, not a data error) must not silently
        // fold into a partial Ok.
        let mut deliveries = 0usize;
        let mut failure: Option<Error> = None;
        let mut lost = 0usize;
        for cell in &results {
            match cell.lock().take() {
                Some(Ok(d)) => deliveries += d,
                Some(Err(e)) => {
                    if failure.is_none() {
                        failure = Some(e);
                    }
                }
                None => lost += 1,
            }
        }
        if lost > 0 && failure.is_none() {
            return Err(Error::Runtime(format!(
                "sharded dispatch lost {lost} of {} bucket jobs (worker panicked)",
                results.len()
            )));
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(deliveries),
        }
    }

    /// Apply a whole batch inline on the caller's thread (the
    /// single-bucket / pool-of-one path), recording a dispatch span
    /// per sampled event so traced events keep their dispatch layer
    /// even when no worker pool ran.
    fn apply_inline(&self, batch: &[Event], base: u64) -> Result<usize> {
        let trace = self.server.trace_recorder();
        if !trace.is_enabled() {
            return self.server.apply_batch_at(batch, base);
        }
        let started = Instant::now();
        let result = self.server.apply_batch_at(batch, base);
        let dur_ns = started.elapsed().as_nanos() as u64;
        let tid = TraceRecorder::current_tid();
        for i in 0..batch.len() {
            let seq = base + i as u64;
            if trace.sampled(seq) {
                trace.record(TraceSpan {
                    seq,
                    layer: LAYER_DISPATCH.to_string(),
                    detail: "inline worker=0".to_string(),
                    start_ns: trace.ns_of(started),
                    dur_ns,
                    tid,
                });
            }
        }
        result
    }

    /// Drain an [`EventSource`] through the sharded path, pulling
    /// batches of at most `batch_size` events.
    pub fn run_source(
        &self,
        source: &mut dyn EventSource,
        batch_size: usize,
    ) -> Result<IngestReport> {
        drain_source(source, batch_size, |batch| self.apply_batch(&batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_common::{tuple, Catalog, ColumnType, Schema};

    /// Four disjoint single-relation views + one view joining two of the
    /// relations, so the partition structure is non-trivial.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for rel in ["A", "B", "C", "D"] {
            c.add(Schema::new(
                rel,
                vec![("X", ColumnType::Int), ("Y", ColumnType::Int)],
            ));
        }
        c
    }

    fn server() -> Arc<ViewServer> {
        let mut s = ViewServer::new(&catalog());
        for rel in ["A", "B", "C", "D"] {
            s.register(
                &format!("sum_{rel}"),
                &format!("select Y, sum(X) from {rel} group by Y"),
            )
            .unwrap();
        }
        // Ties A and B into one partition.
        s.register("ab", "select count(*) from A, B where A.Y = B.Y")
            .unwrap();
        Arc::new(s)
    }

    fn mixed_batch(n: i64) -> Vec<Event> {
        (0..n)
            .flat_map(|i| {
                ["A", "B", "C", "D"]
                    .into_iter()
                    .map(move |rel| Event::insert(rel, tuple![i, i % 5]))
            })
            .collect()
    }

    #[test]
    fn partition_planning_merges_overlapping_relations() {
        let dispatcher = ShardedDispatcher::new(server(), 4);
        // A and B overlap through the join view; C and D are alone.
        assert_eq!(dispatcher.partitions(), 3);
        assert_eq!(
            dispatcher.partition_of("A"),
            dispatcher.partition_of("B"),
            "join view merges A and B"
        );
        assert_ne!(dispatcher.partition_of("C"), dispatcher.partition_of("D"));
        assert_eq!(dispatcher.partition_of("NOPE"), None);
    }

    #[test]
    fn sharded_ingestion_matches_sequential_exactly() {
        let sequential = server();
        let sharded = ShardedDispatcher::new(server(), 4);
        let batch = mixed_batch(40);
        let expected = sequential.apply_batch(&batch).unwrap();
        let got = sharded.apply_batch(&batch).unwrap();
        assert_eq!(got, expected);
        let a = sequential.snapshot_all();
        let b = sharded.server().snapshot_all();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.rows, y.rows, "{} diverged", x.name);
            assert_eq!(x.events_processed, y.events_processed);
        }
        let report = sharded.report();
        assert_eq!(report.batches, 1);
        assert_eq!(report.parallel_batches, 1);
        assert_eq!(report.jobs, 3, "one job per occupied partition");
    }

    #[test]
    fn single_partition_batches_fall_back_to_inline_sequential() {
        let sharded = ShardedDispatcher::new(server(), 4);
        let batch: Vec<Event> = (0..10i64)
            .flat_map(|i| {
                [
                    Event::insert("A", tuple![i, i % 3]),
                    Event::insert("B", tuple![i % 3, i]),
                ]
            })
            .collect();
        sharded.apply_batch(&batch).unwrap();
        let report = sharded.report();
        assert_eq!(report.sequential_batches, 1, "A+B share a partition");
        assert_eq!(report.parallel_batches, 0);
    }

    #[test]
    fn one_partition_portfolios_get_a_pool_of_one_however_built() {
        let mut catalog = Catalog::new();
        for rel in ["BIDS", "ASKS"] {
            catalog.add(Schema::new(
                rel,
                vec![("BROKER_ID", ColumnType::Int), ("VOLUME", ColumnType::Int)],
            ));
        }
        let build = || {
            let mut s = ViewServer::new(&catalog);
            s.register("bid_volume", "select sum(VOLUME) from BIDS")
                .unwrap();
            s.register(
                "crossed",
                "select sum(b.VOLUME * a.VOLUME) from BIDS b, ASKS a \
                 where b.BROKER_ID = a.BROKER_ID",
            )
            .unwrap();
            Arc::new(s)
        };
        let batch: Vec<Event> = (0..8i64)
            .flat_map(|i| {
                [
                    Event::insert("BIDS", tuple![i % 3, i]),
                    Event::insert("ASKS", tuple![i % 3, i + 1]),
                ]
            })
            .collect();
        for dispatcher in [
            ShardedDispatcher::new(build(), 4),
            ShardedDispatcher::new_auto(build()),
        ] {
            assert_eq!(dispatcher.partitions(), 1);
            assert_eq!(
                dispatcher.workers(),
                1,
                "pool capped at the partition count"
            );
            dispatcher.apply_batch(&batch).unwrap();
            let report = dispatcher.report();
            assert_eq!(report.workers, 1);
            assert_eq!(report.sequential_batches, 1);
            assert_eq!(report.parallel_batches, 0);
            assert_eq!(report.jobs, 0);
        }
    }

    #[test]
    fn auto_worker_count_is_clamped_and_capped_at_partitions() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // Caps at the partition count however many cores exist.
        assert_eq!(auto_workers(1), 1);
        assert!(auto_workers(2) <= 2);
        // Never zero, never above MAX_AUTO_WORKERS or the core count.
        assert!(auto_workers(0) >= 1);
        let wide = auto_workers(10_000);
        assert!(wide >= 1 && wide <= MAX_AUTO_WORKERS.min(cores));

        // The dispatcher surfaces the autotuned size in its report.
        let dispatcher = ShardedDispatcher::new_auto(server());
        assert_eq!(dispatcher.workers(), auto_workers(dispatcher.partitions()));
        assert_eq!(dispatcher.report().workers, dispatcher.workers() as u64);
        // And it still computes the exact sequential answer.
        let batch = mixed_batch(8);
        let reference = server();
        let expected = reference.apply_batch(&batch).unwrap();
        assert_eq!(dispatcher.apply_batch(&batch).unwrap(), expected);
        assert_eq!(reference.snapshot_all(), dispatcher.server().snapshot_all());
    }

    #[test]
    fn no_pool_means_every_batch_is_sequential() {
        let sharded = ShardedDispatcher::new(server(), 1);
        assert_eq!(sharded.workers(), 1);
        sharded.apply_batch(&mixed_batch(10)).unwrap();
        let report = sharded.report();
        assert_eq!(report.sequential_batches, 1);
        assert_eq!(report.jobs, 0);
    }

    #[test]
    fn unknown_relations_are_dropped_like_sequential_ingestion() {
        let sharded = ShardedDispatcher::new(server(), 4);
        let mut batch = mixed_batch(5);
        batch.push(Event::insert("UNKNOWN", tuple![1i64]));
        let deliveries = sharded.apply_batch(&batch).unwrap();
        let sequential = server();
        assert_eq!(deliveries, sequential.apply_batch(&batch).unwrap());
    }

    #[test]
    fn bad_events_surface_the_earliest_bucket_error() {
        let sharded = ShardedDispatcher::new(server(), 4);
        let mut batch = mixed_batch(3);
        batch.push(Event::insert("C", tuple![1i64])); // wrong arity
        assert!(sharded.apply_batch(&batch).is_err());
    }
}
