//! Sharded parallel dispatch vs. sequential batched ingestion.
//!
//! The portfolio, `disjoint8`, has eight disjoint relations and one
//! self-join view per relation (`sum(r1.A * r2.A)` joining on `B`), so
//! every relation is its own partition: the best case the
//! `ShardedDispatcher` planner can see. The stream round-robins events
//! across the relations; each batch splits into eight independent
//! buckets, one per relation group.
//!
//! Measured modes:
//!
//! * `sequential` — `ViewServer::apply_batch` on the caller thread.
//! * `workers{N}` — `ShardedDispatcher::apply_batch` with N scoped
//!   workers, N ∈ {1, 2, 4, 8}. `workers1` runs inline through the
//!   partition bookkeeping (its delta over `sequential` is the
//!   dispatcher overhead).
//!
//! The `emit_json` stage re-measures each mode once and writes
//! `BENCH_parallel_ingestion.json` (events/s per worker count, speedup
//! vs sequential, partition/bucket counters, and the machine's available
//! parallelism). One acceptance gate runs inside it: on any machine, the
//! zero-copy dispatcher must not regress the portfolio below sequential
//! at any worker count (≥ 0.95× after noise; on a 1-core host every
//! over-provisioned worker count short-circuits to the inline path, so
//! this checks that short-circuit too).

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use dbtoaster_bench::json::{write_bench_json, Json};
use dbtoaster_common::{tuple, Catalog, ColumnType, Event, Schema, UpdateStream};
use dbtoaster_server::{ShardedDispatcher, ViewServer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const RELATIONS: usize = 8;
const MESSAGES: usize = 24_000;
const BATCH: usize = 2_048;
/// Join-key domain: smaller = heavier per-event slice work.
const KEY_DOMAIN: i64 = 64;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    for i in 0..RELATIONS {
        c.add(Schema::new(
            format!("S{i}"),
            vec![("A", ColumnType::Int), ("B", ColumnType::Int)],
        ));
    }
    c
}

/// One self-join view per relation: disjoint relation/group sets, and
/// per-event work that grows with the live slice (a real workload, not
/// a counter bump, so parallelism has something to win).
fn portfolio() -> Arc<ViewServer> {
    let mut server = ViewServer::new(&catalog());
    for i in 0..RELATIONS {
        server
            .register(
                &format!("selfjoin_{i}"),
                &format!("select sum(r1.A * r2.A) from S{i} r1, S{i} r2 where r1.B = r2.B"),
            )
            .unwrap();
    }
    Arc::new(server)
}

/// Round-robin stream over the relations with occasional deletions, so
/// every batch splits into all eight partitions.
fn stream() -> UpdateStream {
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    let mut stream = UpdateStream::new();
    let mut resident: Vec<Vec<(i64, i64)>> = vec![Vec::new(); RELATIONS];
    for i in 0..MESSAGES {
        let rel = i % RELATIONS;
        let name = format!("S{rel}");
        if !resident[rel].is_empty() && rng.gen_range(0..10) == 0 {
            let at = rng.gen_range(0..resident[rel].len());
            let (a, b) = resident[rel].swap_remove(at);
            stream.push(Event::delete(&name, tuple![a, b]));
        } else {
            let a = rng.gen_range(1..100i64);
            let b = rng.gen_range(0..KEY_DOMAIN);
            resident[rel].push((a, b));
            stream.push(Event::insert(&name, tuple![a, b]));
        }
    }
    stream
}

fn run_sequential(server: Arc<ViewServer>, stream: &UpdateStream) -> (Arc<ViewServer>, f64) {
    let started = Instant::now();
    for chunk in stream.events.chunks(BATCH) {
        server.apply_batch(chunk).unwrap();
    }
    let rate = stream.len() as f64 / started.elapsed().as_secs_f64().max(1e-9);
    (server, rate)
}

fn run_sharded(
    server: Arc<ViewServer>,
    stream: &UpdateStream,
    workers: usize,
) -> (ShardedDispatcher, f64) {
    let dispatcher = ShardedDispatcher::new(server, workers);
    let started = Instant::now();
    for chunk in stream.events.chunks(BATCH) {
        dispatcher.apply_batch(chunk).unwrap();
    }
    let rate = stream.len() as f64 / started.elapsed().as_secs_f64().max(1e-9);
    (dispatcher, rate)
}

fn parallel_ingestion(c: &mut Criterion) {
    let stream = stream();

    let mut group = c.benchmark_group("parallel_ingestion");
    group.sample_size(10);
    group.throughput(Throughput::Elements(stream.len() as u64));

    group.bench_with_input(
        BenchmarkId::new("disjoint8", "sequential"),
        &stream,
        |b, stream| b.iter(|| run_sequential(portfolio(), stream).1),
    );
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("disjoint8", format!("workers{workers}")),
            &stream,
            |b, stream| b.iter(|| run_sharded(portfolio(), stream, workers).1),
        );
    }
    group.finish();
}

fn emit_json(_c: &mut Criterion) {
    let stream = stream();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let (sequential_server, sequential_rate) = run_sequential(portfolio(), &stream);
    let reference = sequential_server.snapshot_all();

    let mut modes = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let (dispatcher, rate) = run_sharded(portfolio(), &stream, workers);
        // Equivalence guard: the bench numbers only count if the
        // parallel path computed the same answer.
        let snapshot = dispatcher.server().snapshot_all();
        assert_eq!(snapshot.len(), reference.len());
        for (a, b) in reference.iter().zip(&snapshot) {
            assert_eq!(a.rows, b.rows, "{} diverged from sequential", a.name);
        }
        let speedup = rate / sequential_rate;
        // No-regression gate: the zero-copy scoped dispatcher must
        // never lose to plain apply_batch — over-provisioned worker
        // counts short-circuit to the inline path, so even a 1-core
        // host pays only a `min` per batch. 0.95 absorbs timer noise.
        assert!(
            speedup >= 0.95,
            "workers{workers} regressed below sequential: {speedup:.3}x"
        );
        let report = dispatcher.report();
        modes.push(Json::obj([
            ("workers", Json::from(workers)),
            ("events_per_sec", Json::from(rate)),
            ("speedup_vs_sequential", Json::from(speedup)),
            ("partitions", Json::from(dispatcher.partitions())),
            ("parallel_batches", Json::from(report.parallel_batches)),
            ("sequential_batches", Json::from(report.sequential_batches)),
            ("jobs", Json::from(report.jobs)),
        ]));
    }

    let report = Json::obj([
        ("bench", Json::str("parallel_ingestion")),
        ("events", Json::from(stream.len())),
        ("relations", Json::from(RELATIONS)),
        ("view_count", Json::from(RELATIONS)),
        ("batch_size", Json::from(BATCH)),
        ("available_cores", Json::from(cores)),
        (
            "sequential",
            Json::obj([("events_per_sec", Json::from(sequential_rate))]),
        ),
        ("workers", Json::Arr(modes)),
    ]);
    match write_bench_json("parallel_ingestion", &report) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_parallel_ingestion.json: {e}"),
    }
}

criterion_group!(benches, parallel_ingestion, emit_json);
criterion_main!(benches);
