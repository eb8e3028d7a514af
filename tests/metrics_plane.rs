//! End-to-end integration of the observability plane.
//!
//! The contract under test: **metrics tell the truth**. A [`NetServer`]
//! fed a randomized order-book stream through the feed plane, with
//! latency recording enabled and a Prometheus endpoint attached, must
//! scrape counters that agree *bit-exactly* with a sequential
//! [`ViewServer`] reference over the same stream — per-view event
//! counts, feed totals, per-event histogram sample counts — and latency
//! sums must grow monotonically across scrapes. The wire `stats` frame
//! must carry the same histogram summaries the registry holds, and the
//! slow-event ring must surface over the `debug` request.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;

use dbtoaster::net::{FeedWriter, NetClient, NetConfig, NetServer};
use dbtoaster::prelude::*;
use dbtoaster::telemetry::MetricsHttpServer;
use dbtoaster::workloads::orderbook::{
    orderbook_catalog, OrderBookConfig, OrderBookGenerator, MARKET_MAKER, SOBI, VWAP_COMPONENTS,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn portfolio() -> Vec<(&'static str, &'static str)> {
    vec![
        ("vwap", VWAP_COMPONENTS),
        ("market_maker", MARKET_MAKER),
        ("sobi", SOBI),
    ]
}

fn orderbook_stream(messages: usize, seed: u64) -> UpdateStream {
    OrderBookGenerator::new(OrderBookConfig {
        messages,
        book_depth: 200,
        brokers: 7,
        seed,
        ..Default::default()
    })
    .generate()
}

/// Minimal HTTP GET against the metrics endpoint; returns the body.
fn scrape(addr: std::net::SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics endpoint");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("well-formed HTTP response");
    assert!(head.starts_with("HTTP/1.1 200"), "scrape failed: {head}");
    assert!(head.contains("text/plain"), "wrong content type in: {head}");
    body.to_string()
}

/// The value of `name` (exact label block included) in a scrape, parsed
/// as f64 — Prometheus text renders everything as a number.
fn sample(body: &str, series: &str) -> f64 {
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix(series) {
            if let Some(value) = rest.split_whitespace().next_back() {
                if rest.starts_with(' ') || rest.starts_with('\t') {
                    return value
                        .parse()
                        .unwrap_or_else(|_| panic!("unparseable sample for {series}: {line}"));
                }
            }
        }
    }
    panic!("series {series} not found in scrape:\n{body}");
}

#[test]
fn scraped_counters_match_the_sequential_reference() {
    let stream = orderbook_stream(3_000, 0x0b5e);
    let config = NetConfig {
        // Threshold 0 captures every event, so the debug dump is
        // deterministically non-empty.
        slow_event_us: Some(0),
        ..NetConfig::default()
    };
    let server = NetServer::bind(&orderbook_catalog(), "127.0.0.1:0", config).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for (name, sql) in portfolio() {
        client.register(name, sql).unwrap();
    }
    server.set_metrics_enabled(true);
    let http = MetricsHttpServer::bind(
        "127.0.0.1:0",
        server.metrics(),
        Some(server.store_metrics_refresher()),
    )
    .unwrap();

    // Feed the first half with randomized batch sizes, scrape, feed the
    // rest, scrape again: counters must be exact at both cuts and the
    // latency sums monotone between them.
    let half = stream.len() / 2;
    let mut rng = SmallRng::seed_from_u64(42);
    let mut feed = |events: &[Event]| {
        let mut feeder = FeedWriter::connect(server.local_addr()).unwrap();
        let mut at = 0usize;
        while at < events.len() {
            let take = rng.gen_range(1..=113usize).min(events.len() - at);
            feeder.send(&events[at..at + take]).unwrap();
            at += take;
        }
        let report = feeder.finish_and_ack().unwrap();
        assert_eq!(report.events, events.len());
    };
    feed(&stream.events[..half]);
    let first = scrape(http.addr());
    feed(&stream.events[half..]);
    let second = scrape(http.addr());

    // Bit-exact per-view event counts against the sequential reference.
    let mut reference = ViewServer::new(&orderbook_catalog());
    for (name, sql) in portfolio() {
        reference.register(name, sql).unwrap();
    }
    for chunk in stream.events.chunks(256) {
        reference.apply_batch(chunk).unwrap();
    }
    for snap in reference.snapshot_all() {
        let series = format!("dbt_view_events_total{{view=\"{}\"}}", snap.name);
        assert_eq!(
            sample(&second, &series),
            snap.events_processed as f64,
            "scraped {series} diverged from the sequential reference"
        );
    }

    // Feed-plane totals are exact, and every event was latency-sampled.
    assert_eq!(
        sample(&second, "dbt_feed_events_total"),
        stream.len() as f64
    );
    assert_eq!(
        sample(&second, "dbt_apply_event_seconds_count"),
        stream.len() as f64
    );
    assert_eq!(sample(&second, "dbt_ingest_queue_depth"), 0.0);
    assert!(sample(&second, "dbt_ingest_wait_seconds_count") >= 1.0);

    // Latency accounting is monotone across scrapes.
    for series in [
        "dbt_apply_event_seconds_sum",
        "dbt_apply_event_seconds_count",
        "dbt_apply_batch_seconds_count",
        "dbt_feed_batches_total",
    ] {
        let (a, b) = (sample(&first, series), sample(&second, series));
        assert!(a > 0.0, "{series} empty at the first cut");
        assert!(b > a, "{series} did not grow: {a} -> {b}");
    }

    // The apply-latency histogram carries cumulative buckets ending in
    // +Inf, and the store gauges were refreshed by the prepare hook.
    assert!(second.contains("dbt_apply_event_seconds_bucket{le=\"+Inf\"}"));
    assert!(sample(&second, "dbt_store_bytes") > 0.0);
    assert!(
        second.contains("dbt_stage_nanos_total"),
        "per-stage engine cost missing from scrape"
    );

    // The wire stats frame carries the registry's histogram summaries.
    let stats = client.stats().unwrap();
    assert!(stats.running);
    assert!(stats.workers >= 1, "autotuned worker count not surfaced");
    let apply = stats
        .histograms
        .iter()
        .find(|h| h.name == "dbt_apply_event_seconds")
        .expect("stats frame lacks the apply-latency histogram");
    assert_eq!(apply.count, stream.len() as u64);
    assert!(apply.p50 <= apply.p95 && apply.p95 <= apply.p99 && apply.p99 <= apply.max);

    // The slow ring (threshold 0) captured events and dumps over the
    // wire, most recent retained.
    let slow = client.debug_slow_events().unwrap();
    assert!(!slow.is_empty(), "slow ring empty despite threshold 0");
    assert!(slow.windows(2).all(|w| w[0].seq < w[1].seq));

    client.shutdown_server().unwrap();
    server.wait();
}

/// Every `dbt_*` family named in the first cell of a row of README's
/// metric table.
fn readme_families() -> BTreeSet<String> {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md at the repository root");
    readme
        .lines()
        .filter(|line| line.starts_with("| `dbt_"))
        .flat_map(|line| {
            let first_cell = line.split('|').nth(1).unwrap_or("");
            first_cell
                .split('`')
                .filter(|token| token.starts_with("dbt_"))
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Every `"dbt_…"` string literal in the Rust sources under `dir`.
fn dbt_literals(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                dbt_literals(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let source = std::fs::read_to_string(&path).expect("readable source file");
            for (i, _) in source.match_indices("\"dbt_") {
                let name: String = source[i + 1..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                out.insert(name);
            }
        }
    }
}

/// README's metric table and the registry agree both ways: a live
/// daemon's scrape (metrics, slow ring, auditor and health plane all on)
/// exposes no family the table omits, and every family the table lists
/// is registered by some `"dbt_…"` literal in the workspace crates.
#[test]
fn readme_metric_table_and_registered_families_agree_both_ways() {
    let documented = readme_families();
    assert!(
        documented.len() > 20,
        "metric table not found: {documented:?}"
    );

    let config = NetConfig {
        slow_event_us: Some(0),
        audit_sample: Some(7),
        ..NetConfig::default()
    };
    let server = NetServer::bind(&orderbook_catalog(), "127.0.0.1:0", config).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for (name, sql) in portfolio() {
        client.register(name, sql).unwrap();
    }
    server.set_metrics_enabled(true);
    let http = MetricsHttpServer::bind_with_planes(
        "127.0.0.1:0",
        server.metrics(),
        Some(server.store_metrics_refresher()),
        None,
        Some(server.health_fn()),
    )
    .unwrap();
    let stream = orderbook_stream(500, 11);
    let mut feeder = FeedWriter::connect(server.local_addr()).unwrap();
    for chunk in stream.events.chunks(64) {
        feeder.send(chunk).unwrap();
    }
    feeder.finish_and_ack().unwrap();
    let body = scrape(http.addr());

    let scraped: BTreeSet<String> = body
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_string)
        .collect();
    assert!(scraped.contains("dbt_view_events_total"), "{body}");
    let undocumented: Vec<&String> = scraped.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "scraped families missing from README's metric table: {undocumented:?}"
    );

    let mut registered = BTreeSet::new();
    dbt_literals(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("crates"),
        &mut registered,
    );
    let unregistered: Vec<&String> = documented.difference(&registered).collect();
    assert!(
        unregistered.is_empty(),
        "README documents families nothing registers: {unregistered:?}"
    );

    client.shutdown_server().unwrap();
    server.wait();
}

/// Metrics default to off: a server never asked to record latency
/// serves zero-count histograms, while event counters still count.
#[test]
fn latency_recording_is_opt_in() {
    let stream = orderbook_stream(200, 7);
    let server =
        NetServer::bind(&orderbook_catalog(), "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for (name, sql) in portfolio() {
        client.register(name, sql).unwrap();
    }
    client.apply_batch(&stream.events).unwrap();

    let stats = client.stats().unwrap();
    let apply = stats
        .histograms
        .iter()
        .find(|h| h.name == "dbt_apply_event_seconds")
        .expect("histogram families register even when disabled");
    assert_eq!(apply.count, 0, "disabled histograms must stay empty");
    let total: u64 = stats.views.iter().map(|v| v.events_processed).sum();
    assert!(total > 0, "event counters are always on");
}
