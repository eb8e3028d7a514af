//! Parallel-ingestion equivalence: the same randomized mixed stream
//! flows through (a) a sequential shared-store `ViewServer`, applied
//! batch by batch on one thread, and (b) a [`ShardedDispatcher`] with a
//! worker pool, which partitions every batch by relation-group overlap
//! and runs independent partitions concurrently. The portfolio mixes
//! order-book and warehouse views, so batches genuinely split: the
//! order-book relations (BIDS/ASKS, tied together by two-relation
//! views) form one partition and the SSB relations another. Final
//! snapshots must be *exactly* equal — same rows, same per-view event
//! counters — for every worker count.
//!
//! The release-only stress test drives one dispatcher from many OS
//! threads with overlapping group sets. Incremental maintenance is
//! exact, so however the batches interleave, every view must end at the
//! result of its query over the final database.

use std::sync::Arc;

use dbtoaster::compiler::CompileOptions;
use dbtoaster::prelude::*;
use dbtoaster::workloads::orderbook::{
    orderbook_catalog, OrderBookConfig, OrderBookGenerator, MARKET_MAKER, SOBI, VWAP_COMPONENTS,
    VWAP_NESTED,
};
use dbtoaster::workloads::tpch::{
    ssb_catalog, transform_to_ssb, TpchConfig, TpchData, SSB_REVENUE_BY_YEAR,
};
use dbtoaster::workloads::GeneratorSource;

/// One catalog covering both workloads (relation names are disjoint).
fn shared_catalog() -> Catalog {
    let mut catalog = orderbook_catalog();
    for schema in ssb_catalog().relations() {
        catalog.add(schema.clone());
    }
    catalog
}

/// The portfolio: full, first-order and nested compilations mixed, so
/// the sharded path exercises shared `BASE_*` relation groups, private
/// self-join copies and `Replace` re-evaluation — everything the
/// sequential path runs.
fn portfolio() -> Vec<(&'static str, &'static str, CompileOptions)> {
    vec![
        ("vwap", VWAP_COMPONENTS, CompileOptions::full()),
        ("market_maker", MARKET_MAKER, CompileOptions::full()),
        ("sobi_fo", SOBI, CompileOptions::first_order()),
        ("mm_fo", MARKET_MAKER, CompileOptions::first_order()),
        ("vwap_nested", VWAP_NESTED, CompileOptions::full()),
        ("ssb_revenue", SSB_REVENUE_BY_YEAR, CompileOptions::full()),
    ]
}

/// The randomized mixed stream: order-book messages interleaved with
/// warehouse loading records (both generators are seeded, so the test
/// is deterministic while the event mix is arbitrary inserts/deletes).
fn mixed_stream(messages: usize, orders: usize) -> UpdateStream {
    let orderbook = OrderBookGenerator::new(OrderBookConfig {
        messages,
        book_depth: 120,
        ..Default::default()
    })
    .generate();
    let warehouse = transform_to_ssb(&TpchData::generate(&TpchConfig {
        orders,
        ..Default::default()
    }));
    GeneratorSource::interleave("mixed", [orderbook, warehouse])
        .drain(1 << 20)
        .unwrap()
}

fn build_server(catalog: &Catalog) -> Arc<ViewServer> {
    let mut server = ViewServer::new(catalog);
    for (name, sql, options) in portfolio() {
        server.register_with(name, sql, &options).unwrap();
    }
    Arc::new(server)
}

fn assert_snapshots_equal(a: &[ViewSnapshot], b: &[ViewSnapshot], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: view count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.name, y.name, "{context}");
        assert_eq!(x.columns, y.columns, "{context}: {}", x.name);
        assert_eq!(x.rows, y.rows, "{context}: {} rows diverged", x.name);
        assert_eq!(
            x.events_processed, y.events_processed,
            "{context}: {} event counters diverged",
            x.name
        );
    }
}

/// Like [`assert_snapshots_equal`], but float aggregates compare within
/// relative epsilon: when batches interleave in arbitrary order, float
/// addition order differs, and IEEE addition is not associative — the
/// sums agree to ~1e-12 relative, not bit-for-bit. (The deterministic
/// sharded-vs-sequential tests above do assert bit-exact equality:
/// there, every view absorbs its events in identical order.)
fn assert_snapshots_close(a: &[ViewSnapshot], b: &[ViewSnapshot], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: view count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.name, y.name, "{context}");
        assert_eq!(
            x.events_processed, y.events_processed,
            "{context}: {} event counters diverged",
            x.name
        );
        assert_eq!(x.rows.len(), y.rows.len(), "{context}: {} rows", x.name);
        for (rx, ry) in x.rows.iter().zip(&y.rows) {
            assert_eq!(rx.key, ry.key, "{context}: {} keys", x.name);
            assert_eq!(rx.values.len(), ry.values.len());
            for (vx, vy) in rx.values.iter().zip(&ry.values) {
                match (vx, vy) {
                    (Value::Float(fx), Value::Float(fy)) => {
                        let scale = fx.abs().max(fy.abs()).max(1.0);
                        assert!(
                            (fx - fy).abs() <= 1e-9 * scale,
                            "{context}: {} float diverged beyond rounding: {fx} vs {fy}",
                            x.name
                        );
                    }
                    _ => assert_eq!(vx, vy, "{context}: {} value diverged", x.name),
                }
            }
        }
    }
}

#[test]
fn sharded_dispatcher_matches_sequential_apply_batch_exactly() {
    let catalog = shared_catalog();
    let stream = mixed_stream(600, 110);

    let sequential = build_server(&catalog);
    for chunk in stream.events.chunks(89) {
        sequential.apply_batch(chunk).unwrap();
    }
    let expected = sequential.snapshot_all();

    for workers in [2usize, 4, 8] {
        let dispatcher = ShardedDispatcher::new(build_server(&catalog), workers);
        // The order-book relations are tied into one partition (two
        // two-relation views) and the SSB relations into another.
        assert!(
            dispatcher.partitions() >= 2,
            "portfolio must split for the test to exercise parallel paths"
        );
        let mut deliveries = 0usize;
        for chunk in stream.events.chunks(89) {
            deliveries += dispatcher.apply_batch(chunk).unwrap();
        }
        // Cross-check deliveries against the per-view counters (the sum
        // over views of absorbed events IS the delivery count).
        let counted: usize = dispatcher
            .server()
            .snapshot_all()
            .iter()
            .map(|s| s.events_processed as usize)
            .sum();
        assert_eq!(deliveries, counted, "workers={workers}");
        assert_snapshots_equal(
            &expected,
            &dispatcher.server().snapshot_all(),
            &format!("workers={workers}"),
        );
        let report = dispatcher.report();
        assert!(
            report.parallel_batches > 0,
            "workers={workers}: mixed chunks must hit the pool, got {report:?}"
        );
    }
}

#[test]
fn sharded_run_source_matches_sequential_run_source() {
    let catalog = shared_catalog();

    let sequential = build_server(&catalog);
    let mut source = GeneratorSource::new("seq", mixed_stream(400, 70));
    let seq_report = sequential.run_source(&mut source, 64).unwrap();

    let dispatcher = ShardedDispatcher::new(build_server(&catalog), 4);
    let mut source = GeneratorSource::new("shard", mixed_stream(400, 70));
    let shard_report = dispatcher.run_source(&mut source, 64).unwrap();

    assert_eq!(seq_report.events, shard_report.events);
    assert_eq!(seq_report.deliveries, shard_report.deliveries);
    assert_snapshots_equal(
        &sequential.snapshot_all(),
        &dispatcher.server().snapshot_all(),
        "run_source",
    );
}

/// Stress: many OS threads drive one dispatcher with *overlapping*
/// group sets (every thread feeds all relations), interleaved with
/// direct sequential `apply_batch` calls and concurrent snapshot
/// readers. Batches serialize on the group locks in some order; since
/// incremental maintenance is exact and each view's final state depends
/// only on the multiset of events it absorbed, the end state must equal
/// a single-threaded reference ingesting the same events (float
/// aggregates modulo addition-order rounding). Runs in
/// release only (`cargo test --release`); the debug build is too slow
/// to make the contention interesting.
#[test]
#[cfg_attr(debug_assertions, ignore = "stress test is release-only")]
fn concurrent_overlapping_feeders_converge_to_the_sequential_result() {
    const FEEDERS: usize = 6;
    let catalog = shared_catalog();
    let streams: Vec<UpdateStream> = (0..FEEDERS)
        .map(|i| mixed_stream(260 + 17 * i, 40 + 7 * i))
        .collect();

    // Reference: one server absorbs every feeder's stream sequentially.
    let reference = build_server(&catalog);
    for stream in &streams {
        reference.apply_batch(&stream.events).unwrap();
    }

    // Deletions in one feeder's stream cancel inserts from the *same*
    // stream (the generators are self-contained books), so the merged
    // multiset equals the concatenation and the reference above is the
    // ground truth whatever the interleaving.
    let dispatcher = Arc::new(ShardedDispatcher::new(build_server(&catalog), 4));
    std::thread::scope(|scope| {
        for (i, stream) in streams.iter().enumerate() {
            let dispatcher = Arc::clone(&dispatcher);
            scope.spawn(move || {
                for chunk in stream.events.chunks(31 + 13 * i) {
                    if i % 2 == 0 {
                        dispatcher.apply_batch(chunk).unwrap();
                    } else {
                        // Odd feeders bypass the pool: direct sequential
                        // batches racing the sharded ones.
                        dispatcher.server().apply_batch(chunk).unwrap();
                    }
                }
            });
        }
        // Concurrent snapshot readers: every cut must be internally
        // consistent (a view pair over the same relations agrees on
        // event counts — here the two full-compilation BIDS+ASKS views).
        let dispatcher = Arc::clone(&dispatcher);
        scope.spawn(move || {
            for _ in 0..25 {
                let snap = dispatcher.server().snapshot_all();
                let mm = snap.iter().find(|s| s.name == "market_maker").unwrap();
                let mm_fo = snap.iter().find(|s| s.name == "mm_fo").unwrap();
                assert_eq!(
                    mm.events_processed, mm_fo.events_processed,
                    "snapshot caught a half-applied batch"
                );
            }
        });
    });

    assert_snapshots_close(
        &reference.snapshot_all(),
        &dispatcher.server().snapshot_all(),
        "stress",
    );
}
