//! Integration coverage for the shadow audit plane.
//!
//! Two claims, both load-bearing for trusting the auditor in
//! production:
//!
//! 1. **No false positives.** A randomized order-book run over a
//!    multi-view portfolio, audited end to end, reports zero
//!    mismatches — the delta-maintained views really do equal the
//!    oracle at every sampled point, across both the single-event and
//!    the batched ingestion paths.
//! 2. **Real corruption is detected.** Deliberately corrupting one
//!    live map entry between events (the fault-injection hook) breaks
//!    the audit chain: the next audited event's pre-state no longer
//!    matches the oracle's retained post-state, and the mismatch lands
//!    in the counters and the ring. A detector that cannot fail its
//!    fault-injection test is indistinguishable from one that checks
//!    nothing.

use dbtoaster_common::{tuple, Event};
use dbtoaster_server::{ViewServer, CHECK_CHAIN};
use dbtoaster_workloads::orderbook::{
    orderbook_catalog, OrderBookConfig, OrderBookGenerator, MARKET_MAKER, VWAP_COMPONENTS,
};

fn bid(volume: f64, price: f64) -> Event {
    Event::insert("BIDS", tuple![1.0f64, 1i64, 1i64, volume, price])
}

#[test]
fn a_clean_randomized_run_audits_with_zero_mismatches() {
    let catalog = orderbook_catalog();
    let mut server = ViewServer::new(&catalog);
    server.register("vwap", VWAP_COMPONENTS).unwrap();
    server.register("mm", MARKET_MAKER).unwrap();
    server.auditor().set_sample_one_in(7);
    server.auditor().set_enabled(true);

    let stream = OrderBookGenerator::new(OrderBookConfig {
        messages: 2_000,
        book_depth: 200,
        ..OrderBookConfig::default()
    })
    .generate();
    // Mixed ingestion: singles exercise the audit hook on the
    // single-event path (`apply`), batches the one on the batched path
    // (`apply_batch`).
    let (singles, rest) = stream.events.split_at(200);
    for event in singles {
        server.apply(event).unwrap();
    }
    for chunk in rest.chunks(256) {
        server.apply_batch(chunk).unwrap();
    }

    let audit = server.auditor().handle();
    audit.drain();
    assert!(audit.checks_total() > 100, "sampled audits actually ran");
    assert_eq!(
        audit.mismatch_total(),
        0,
        "clean run must not report mismatches: {:?}",
        audit.mismatches()
    );
    assert_eq!(audit.dropped_total(), 0, "worker kept up with sample 1/7");
    let text = server.metrics().render_prometheus();
    assert!(text.contains("dbt_audit_checks_total{view=\"vwap\"}"));
    assert!(text.contains("dbt_audit_checks_total{view=\"mm\"}"));
    assert!(!text.contains("dbt_audit_mismatch_total"));
}

#[test]
fn corrupting_a_map_entry_breaks_the_audit_chain() {
    let catalog = orderbook_catalog();
    let mut server = ViewServer::new(&catalog);
    // A single view at sample 1: consecutive events audit the same
    // view, so every audit chains off the previous one and the
    // between-events corruption window is provably covered.
    server.register("vwap", VWAP_COMPONENTS).unwrap();
    server.auditor().set_sample_one_in(1);
    server.auditor().set_enabled(true);

    for i in 0..10 {
        server.apply(&bid(10.0 + f64::from(i), 100.0)).unwrap();
    }
    let audit = server.auditor().handle();
    audit.drain();
    assert_eq!(audit.mismatch_total(), 0, "no mismatch before injection");

    // Corrupt a live entry of some view map, then keep feeding.
    let map = server
        .profile("vwap")
        .unwrap()
        .per_map
        .into_iter()
        .find(|(_, entries, _)| *entries > 0)
        .map(|(name, _, _)| name)
        .expect("a live map to corrupt");
    assert!(server.corrupt_map_entry("vwap", &map).unwrap());
    for i in 0..5 {
        server.apply(&bid(20.0 + f64::from(i), 101.0)).unwrap();
    }
    audit.drain();

    assert!(
        audit.mismatch_total() >= 1,
        "injected corruption must be detected"
    );
    let mismatches = audit.mismatches();
    let hit = mismatches
        .iter()
        .find(|m| m.kind == CHECK_CHAIN)
        .expect("a chain-check mismatch");
    assert_eq!(hit.view, "vwap");
    assert!(
        !hit.expected.is_empty() || !hit.actual.is_empty(),
        "the mismatch record carries the differing entries"
    );
    let text = server.metrics().render_prometheus();
    assert!(text.contains("dbt_audit_mismatch_total{view=\"vwap\"}"));
}

#[test]
fn corrupt_map_entry_rejects_unknown_names() {
    let catalog = orderbook_catalog();
    let mut server = ViewServer::new(&catalog);
    server.register("vwap", VWAP_COMPONENTS).unwrap();
    assert!(server.corrupt_map_entry("nope", "m").is_err());
    assert!(server.corrupt_map_entry("vwap", "no_such_map").is_err());
}
