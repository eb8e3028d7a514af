//! The multi-query view server: an order-book VWAP view, a per-broker
//! market-maker view, an SSB warehouse view and the paper's Figure-2
//! query, all maintained live from ONE replayed mixed stream.
//!
//! ```text
//! cargo run --example multi_view_server
//! ```

use dbtoaster::prelude::*;
use dbtoaster::workloads::orderbook::{
    orderbook_catalog, OrderBookConfig, OrderBookGenerator, MARKET_MAKER, SOBI, VWAP_COMPONENTS,
};
use dbtoaster::workloads::tpch::{
    ssb_catalog, transform_to_ssb, TpchConfig, TpchData, SSB_REVENUE_BY_YEAR,
};
use dbtoaster::workloads::GeneratorSource;

fn main() {
    // One catalog spanning all three workloads.
    let mut catalog = Catalog::new()
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
        ));
    for schema in orderbook_catalog().relations() {
        catalog.add(schema.clone());
    }
    for schema in ssb_catalog().relations() {
        catalog.add(schema.clone());
    }

    // The view portfolio.
    let mut server = ViewServer::new(&catalog);
    server
        .register("vwap_components", VWAP_COMPONENTS)
        .expect("vwap compiles");
    server
        .register("market_maker", MARKET_MAKER)
        .expect("market maker compiles");
    server
        .register("ssb_revenue", SSB_REVENUE_BY_YEAR)
        .expect("ssb revenue compiles");
    server
        .register(
            "figure2",
            "select sum(A*D) from R, S, T where R.B=S.B and S.C=T.C",
        )
        .expect("figure2 compiles");
    // Two depth-limited views: their statements evaluate against
    // BASE_BIDS / BASE_ASKS multiplicity maps, which the shared store
    // materializes once and maintains through one view.
    server
        .register_with("sobi_fo", SOBI, &CompileOptions::first_order())
        .expect("first-order SOBI compiles");
    server
        .register_with("mm_fo", MARKET_MAKER, &CompileOptions::first_order())
        .expect("first-order market maker compiles");

    println!("registered views:");
    for name in server.view_names() {
        let program = server.program(name).unwrap();
        println!(
            "  {:<16} {:>2} maps, {:>2} triggers   <- {}",
            name,
            program.maps.len(),
            program.triggers.len(),
            program
                .triggers
                .iter()
                .map(|t| t.relation.as_str())
                .collect::<Vec<_>>()
                .join("/")
        );
    }
    println!("\ndispatch index (relation -> interested views):");
    for relation in server.dispatched_relations() {
        println!(
            "  {:<10} -> {}",
            relation,
            server.interested_views(relation).join(", ")
        );
    }

    // One mixed stream: order-book messages, warehouse loading records
    // and Figure-2 deltas, round-robin interleaved.
    let orderbook = OrderBookGenerator::new(OrderBookConfig {
        messages: 5_000,
        book_depth: 1_000,
        ..Default::default()
    })
    .generate();
    let warehouse = transform_to_ssb(&TpchData::generate(&TpchConfig {
        orders: 500,
        ..Default::default()
    }));
    let mut figure2 = UpdateStream::new();
    for i in 0..200i64 {
        figure2.push(Event::insert("R", tuple![i % 9, i % 4]));
        figure2.push(Event::insert("S", tuple![i % 4, i % 6]));
        figure2.push(Event::insert("T", tuple![i % 6, i]));
    }
    let mut source = GeneratorSource::interleave("mixed", [orderbook, warehouse, figure2]);

    let started = std::time::Instant::now();
    let report = server
        .run_source(&mut source, 512)
        .expect("stream replays cleanly");
    let elapsed = started.elapsed();
    println!(
        "\nreplayed {} events in {} batches ({} view deliveries) in {:?} ({:.0} events/s)",
        report.events,
        report.batches,
        report.deliveries,
        elapsed,
        report.events as f64 / elapsed.as_secs_f64()
    );

    println!("\nconsistent snapshot of every view:");
    for snapshot in server.snapshot_all() {
        println!(
            "  {} ({} events absorbed), columns [{}]:",
            snapshot.name,
            snapshot.events_processed,
            snapshot.columns.join(", ")
        );
        for row in snapshot.rows.iter().take(4) {
            let rendered: Vec<String> = row.values.iter().map(|v| v.to_string()).collect();
            println!("    {}", rendered.join(" | "));
        }
        if snapshot.rows.len() > 4 {
            println!("    ... {} more rows", snapshot.rows.len() - 4);
        }
    }

    // The dividend of dispatch + per-view profiles.
    println!("\nper-view profile:");
    for (name, profile) in server.profiles() {
        println!(
            "  {:<16} {:>7} events  {:>3} statements  {:>9} bytes of maps",
            name, profile.events_processed, profile.statement_count, profile.total_bytes
        );
    }

    // The shared map store: maps deduplicated across the portfolio.
    let store = server.store_report();
    println!("\nshared map store:");
    for m in store.maps.iter().filter(|m| m.sharers > 1) {
        println!(
            "  {:<16} shared by {} views (maintainer {}) — {} entries",
            m.aliases[0].1, m.sharers, m.maintainer, m.entries
        );
    }
    println!(
        "  {} maps, {} shared; {} bytes stored vs {} unshared; {} statement runs skipped",
        store.maps.len(),
        store.shared_slots,
        store.total_bytes,
        store.bytes_if_unshared,
        store.dedup_skipped_statements
    );
}
