//! Shared-store equivalence: a randomized mixed order-book + warehouse
//! stream flows through one shared-store `ViewServer` (maps deduplicated
//! across views, each shared map maintained by exactly one view) and, in
//! parallel, through N fully independent `Engine`s — one per view, each
//! privately materializing every map. The server's `snapshot_all` and
//! per-view results must match the independent engines exactly, routing
//! is asserted via per-view event counters, and the store report must
//! show the `BASE_*` maps of the portfolio materialized once. A second
//! case registers SSB Q4.1 beside a copy with its group-by columns swapped
//! and its `WHERE` clause reordered: every generated map must be stored
//! once, however each view happened to order its keys.

use dbtoaster::compiler::{compile_sql, CompileOptions};
use dbtoaster::prelude::*;
use dbtoaster::workloads::orderbook::{
    orderbook_catalog, OrderBookConfig, OrderBookGenerator, MARKET_MAKER, SOBI, VWAP_COMPONENTS,
    VWAP_NESTED,
};
use dbtoaster::workloads::tpch::{
    ssb_catalog, transform_to_ssb, TpchConfig, TpchData, SSB_Q41, SSB_REVENUE_BY_YEAR,
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
/// the store sees result maps, sub-aggregates and `BASE_*` maps.
/// `vwap` and `vwap_again` are textually identical (everything shares);
/// the first-order pair shares `BASE_BIDS`/`BASE_ASKS` with each other
/// and with the nested view's `BASE_BIDS`.
fn portfolio() -> Vec<(&'static str, &'static str, CompileOptions)> {
    vec![
        ("vwap", VWAP_COMPONENTS, CompileOptions::full()),
        ("vwap_again", VWAP_COMPONENTS, CompileOptions::full()),
        ("market_maker", MARKET_MAKER, CompileOptions::full()),
        ("sobi_fo", SOBI, CompileOptions::first_order()),
        ("mm_fo", MARKET_MAKER, CompileOptions::first_order()),
        ("vwap_nested", VWAP_NESTED, CompileOptions::full()),
        ("ssb_revenue", SSB_REVENUE_BY_YEAR, CompileOptions::full()),
    ]
}

/// The randomized mixed stream: order-book messages interleaved with
/// warehouse loading records (both generators are seeded, so the test is
/// deterministic while the event mix is arbitrary inserts and deletes).
fn mixed_stream() -> UpdateStream {
    let orderbook = OrderBookGenerator::new(OrderBookConfig {
        messages: 700,
        book_depth: 120,
        ..Default::default()
    })
    .generate();
    let warehouse = transform_to_ssb(&TpchData::generate(&TpchConfig {
        orders: 120,
        ..Default::default()
    }));
    GeneratorSource::interleave("mixed", [orderbook, warehouse])
        .drain(1 << 20)
        .unwrap()
}

fn build_server(catalog: &Catalog) -> ViewServer {
    let mut server = ViewServer::new(catalog);
    for (name, sql, options) in portfolio() {
        server.register_with(name, sql, &options).unwrap();
    }
    server
}

fn build_engines(catalog: &Catalog) -> Vec<(&'static str, Engine)> {
    portfolio()
        .into_iter()
        .map(|(name, sql, options)| {
            let program = compile_sql(sql, catalog, &options).unwrap();
            (name, Engine::new(&program).unwrap())
        })
        .collect()
}

#[test]
fn shared_store_server_matches_independent_engines_exactly() {
    let catalog = shared_catalog();
    let server = build_server(&catalog);
    let mut engines = build_engines(&catalog);
    let stream = mixed_stream();

    // Server: batched ingestion. Engines: the same events, per event
    // (independent engines simply ignore relations they don't watch).
    for chunk in stream.events.chunks(97) {
        server.apply_batch(chunk).unwrap();
    }
    for (_, engine) in &mut engines {
        engine.process(&stream).unwrap();
    }

    // Every view answers exactly as its private engine — including the
    // views whose maps are all shared and never written by their own
    // statements.
    let snapshots = server.snapshot_all();
    assert_eq!(snapshots.len(), engines.len());
    for (snapshot, (name, engine)) in snapshots.iter().zip(&engines) {
        assert_eq!(&snapshot.name, name);
        assert_eq!(snapshot.columns, engine.column_names(), "{name}");
        assert_eq!(snapshot.rows, engine.result(), "{name} diverged");
        assert_eq!(
            server.result(name).unwrap(),
            engine.result(),
            "{name} diverged outside the snapshot path"
        );
    }

    // Routing: each view absorbed exactly the events of its relations.
    let events_of = |rels: &[&str]| -> u64 {
        stream
            .events
            .iter()
            .filter(|e| rels.contains(&e.relation.as_str()))
            .count() as u64
    };
    for name in ["vwap", "vwap_again", "vwap_nested"] {
        assert_eq!(
            server.events_processed(name).unwrap(),
            events_of(&["BIDS"]),
            "{name}"
        );
    }
    for name in ["market_maker", "sobi_fo", "mm_fo"] {
        assert_eq!(
            server.events_processed(name).unwrap(),
            events_of(&["BIDS", "ASKS"]),
            "{name}"
        );
    }
    assert_eq!(
        server.events_processed("ssb_revenue").unwrap(),
        events_of(&["DATES", "LINEORDER"])
    );
    // The mix genuinely exercises partial routing.
    assert!(events_of(&["BIDS"]) > 0);
    assert!(events_of(&["BIDS"]) < stream.len() as u64);
}

#[test]
fn the_portfolio_dedupes_base_maps_and_identical_views() {
    let catalog = shared_catalog();
    let server = build_server(&catalog);
    let report = server.store_report();

    // BASE_BIDS: one slot, shared by the two first-order views. (The
    // nested view no longer binds it: the materialization hierarchy
    // maintains vwap_nested from its own child maps instead of
    // re-evaluating over BASE_BIDS.)
    let base_bids: Vec<_> = report
        .maps
        .iter()
        .filter(|m| m.aliases.iter().any(|(_, n)| n == "BASE_BIDS"))
        .collect();
    assert_eq!(base_bids.len(), 1, "BASE_BIDS materialized once");
    assert_eq!(base_bids[0].sharers, 2);
    assert_eq!(base_bids[0].maintainer, "sobi_fo");
    assert!(base_bids[0].is_base_relation);
    assert!(
        !report.maps.iter().any(|m| m
            .aliases
            .iter()
            .any(|(v, n)| v == "vwap_nested" && n == "BASE_BIDS")),
        "hierarchy-compiled nested views must not materialize base maps"
    );

    // BASE_ASKS: one slot, shared by the two first-order views.
    let base_asks: Vec<_> = report
        .maps
        .iter()
        .filter(|m| m.aliases.iter().any(|(_, n)| n == "BASE_ASKS"))
        .collect();
    assert_eq!(base_asks.len(), 1, "BASE_ASKS materialized once");
    assert_eq!(base_asks[0].sharers, 2);

    // vwap_again shares every map with vwap (identical SQL).
    assert!(report
        .maps
        .iter()
        .filter(|m| m.aliases.iter().any(|(v, _)| v == "vwap_again"))
        .all(|m| m.aliases.iter().any(|(v, _)| v == "vwap")));
}

#[test]
fn shared_map_writes_happen_once_per_event() {
    let catalog = shared_catalog();
    let server = build_server(&catalog);
    let stream = mixed_stream();
    server.apply_batch(&stream.events).unwrap();

    let report = server.store_report();
    // vwap_again's statements are fully skipped (vwap maintains its
    // maps), and the base-map sharers skip their own BASE_* updates, so
    // the dedup must have saved a substantial number of statement runs.
    assert!(
        report.dedup_skipped_statements >= server.events_processed("vwap_again").unwrap(),
        "expected at least one skipped statement per vwap_again delivery, got {}",
        report.dedup_skipped_statements
    );
    // Memory: the shared store holds strictly less than the per-view
    // baseline, and exactly the deduped totals add up.
    assert!(server.memory_bytes() < server.memory_bytes_if_unshared());
    assert_eq!(
        server.memory_bytes(),
        report.total_bytes,
        "store accounting is consistent"
    );
}

#[test]
fn batched_and_per_event_shared_ingestion_agree() {
    let catalog = shared_catalog();
    let batched = build_server(&catalog);
    let per_event = build_server(&catalog);
    let stream = mixed_stream();

    for chunk in stream.events.chunks(113) {
        batched.apply_batch(chunk).unwrap();
    }
    for event in &stream {
        per_event.apply(event).unwrap();
    }
    for (name, _, _) in portfolio() {
        assert_eq!(
            batched.result(name).unwrap(),
            per_event.result(name).unwrap(),
            "{name} diverged between ingestion paths"
        );
        assert_eq!(
            batched.events_processed(name).unwrap(),
            per_event.events_processed(name).unwrap()
        );
    }
}

/// SSB Q4.1 grouped by `C_NATION, D_YEAR` instead of `D_YEAR, C_NATION`,
/// with its relations, filters and joins written in another order.
const SSB_Q41_PERMUTED: &str = "select C_NATION, D_YEAR, \
     sum(LO_REVENUE - LO_SUPPLYCOST) as PROFIT \
     from LINEORDER, PART, SUPPLIER, CUSTOMER, DATES \
     where (P_MFGR = 'MFGR#1' or P_MFGR = 'MFGR#2') and S_REGION = 'AMERICA' \
       and C_REGION = 'AMERICA' and LO_ORDERDATE = D_DATEKEY \
       and LO_PARTKEY = P_PARTKEY and LO_SUPPKEY = S_SUPPKEY and LO_CUSTKEY = C_CUSTKEY \
     group by C_NATION, D_YEAR";

#[test]
fn key_permuted_views_materialize_each_generated_map_once() {
    let catalog = ssb_catalog();
    let views = [("q41", SSB_Q41), ("q41_permuted", SSB_Q41_PERMUTED)];
    let mut server = ViewServer::new(&catalog);
    let mut engines = Vec::new();
    for (name, sql) in views {
        server.register(name, sql).unwrap();
        let program = compile_sql(sql, &catalog, &CompileOptions::full()).unwrap();
        engines.push((name, Engine::new(&program).unwrap()));
    }

    // The result maps differ (each is keyed in its own group-by order);
    // every other map is one slot bound by both views.
    let report = server.store_report();
    let generated: Vec<_> = report
        .maps
        .iter()
        .filter(|m| !m.aliases.iter().any(|(_, n)| n == "Q"))
        .collect();
    let per_view = compile_sql(SSB_Q41, &catalog, &CompileOptions::full())
        .unwrap()
        .maps
        .len()
        - 1;
    assert_eq!(generated.len(), per_view, "{report:#?}");
    for map in generated {
        assert_eq!(map.sharers, 2, "{:?} is not shared", map.aliases);
    }

    let stream = transform_to_ssb(&TpchData::generate(&TpchConfig {
        orders: 150,
        ..Default::default()
    }));
    for chunk in stream.events.chunks(101) {
        server.apply_batch(chunk).unwrap();
    }
    for (name, engine) in &mut engines {
        engine.process(&stream).unwrap();
        let rows = engine.result();
        assert!(!rows.is_empty(), "{name} is empty");
        assert_eq!(server.result(name).unwrap(), rows, "{name} diverged");
    }
    let snapshots = server.snapshot_all();
    for (snapshot, (name, engine)) in snapshots.iter().zip(&engines) {
        assert_eq!(&snapshot.name, name);
        assert_eq!(snapshot.rows, engine.result(), "{name} snapshot diverged");
    }
}
