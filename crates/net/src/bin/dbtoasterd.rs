//! `dbtoasterd` — the standalone view server daemon.
//!
//! The paper's "network interface" operating mode as a process: declare
//! the streamed relations, optionally pre-register standing queries,
//! and serve the wire protocol until a client sends `shutdown` (or the
//! process is killed).
//!
//! ```text
//! dbtoasterd --listen 127.0.0.1:9090 \
//!     --schema "BIDS(T FLOAT, ID INT, BROKER_ID INT, VOLUME FLOAT, PRICE FLOAT)" \
//!     --schema "ASKS(T FLOAT, ID INT, BROKER_ID INT, VOLUME FLOAT, PRICE FLOAT)" \
//!     --view "vwap=select sum(PRICE * VOLUME), sum(VOLUME) from BIDS" \
//!     --workers 4 --queue-depth 64
//! ```
//!
//! Flags:
//!
//! * `--listen ADDR` — bind address (default `127.0.0.1:9090`; port 0
//!   picks an ephemeral port, printed at startup).
//! * `--schema "NAME(COL TYPE, ...)"` — declare a stream relation
//!   (repeatable; at least one required).
//! * `--view "NAME=SQL"` — register a standing query at startup
//!   (repeatable; clients can also `register` over the wire until the
//!   first batch arrives).
//! * `--workers N` — dispatcher worker-pool size, used as given but
//!   capped at the portfolio's partition count (default: the machine's
//!   available parallelism, read once, under the same cap).
//! * `--queue-depth N` — bound of the ingest queue, in batches
//!   (default 64).
//! * `--feed-batch N` — max events per batch pulled from a feed
//!   connection (default 1024).
//! * `--metrics-listen ADDR` — serve Prometheus text metrics over HTTP
//!   on `ADDR` (e.g. `127.0.0.1:9898`; port 0 picks an ephemeral port,
//!   printed at startup). Also enables latency recording, and serves
//!   the `/healthz` (liveness) and `/readyz` (readiness) endpoints.
//! * `--slow-event-us N` — capture events whose apply latency is at
//!   least `N` microseconds in a bounded ring, dumpable with the wire
//!   `debug` request.
//! * `--slow-event-payloads` — also capture a bounded rendering of each
//!   slow event's tuple in the ring (off by default; payloads can carry
//!   data).
//! * `--trace-sample N` — record event-flow trace spans (queue wait,
//!   dispatch, group lock, stage, statement) for one in every `N`
//!   admitted events. Dump with the wire `debug trace` request or, when
//!   `--metrics-listen` is set, as Chrome `trace_event` JSON from
//!   `GET /trace` (open in `chrome://tracing` or Perfetto).
//! * `--audit-sample N` — shadow-audit one in every `N` events:
//!   re-run it through the interpreter oracle off-thread and verify the
//!   maintained view bit-exactly. Mismatches count into
//!   `dbt_audit_mismatch_total`, are dumpable with the wire
//!   `debug audit` request, and fail readiness.
//! * `--ready-max-lag N` — `/readyz` reports not-ready while any
//!   relation's feed lag (admitted − applied events) exceeds `N`
//!   (default 100000).
//! * `--ready-max-queue N` — `/readyz` reports not-ready while the
//!   ingest queue holds more than `N` batches (default 64).
//! * `--log-level LEVEL` — stderr log verbosity: `error`, `warn`,
//!   `info` (default), or `debug`. Lines are logfmt-structured and
//!   rate-bounded.

use std::process::ExitCode;

use dbtoaster_common::Catalog;
use dbtoaster_net::{parse_schema_spec, NetConfig, NetServer};
use dbtoaster_telemetry::{
    chrome_trace_json, log_info, set_log_level, LogLevel, MetricsHttpServer, TraceFn,
};

fn usage() -> &'static str {
    "usage: dbtoasterd [--listen ADDR] --schema \"NAME(COL TYPE, ...)\" \
     [--schema ...] [--view \"NAME=SQL\" ...] [--workers N] \
     [--queue-depth N] [--feed-batch N] [--metrics-listen ADDR] \
     [--slow-event-us N] [--slow-event-payloads] [--trace-sample N] \
     [--audit-sample N] [--ready-max-lag N] [--ready-max-queue N] \
     [--log-level error|warn|info|debug]"
}

struct Flags {
    listen: String,
    metrics_listen: Option<String>,
    schemas: Vec<String>,
    views: Vec<(String, String)>,
    config: NetConfig,
}

fn parse_flags(args: impl Iterator<Item = String>) -> Result<Flags, String> {
    let mut flags = Flags {
        listen: "127.0.0.1:9090".to_string(),
        metrics_listen: None,
        schemas: Vec::new(),
        views: Vec::new(),
        config: NetConfig::default(),
    };
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} expects {what}\n{}", usage()))
        };
        match flag.as_str() {
            "--listen" => flags.listen = value("an address")?,
            "--schema" => flags.schemas.push(value("a relation spec")?),
            "--view" => {
                let spec = value("NAME=SQL")?;
                let (name, sql) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--view expects NAME=SQL, got '{spec}'"))?;
                flags
                    .views
                    .push((name.trim().to_string(), sql.trim().to_string()));
            }
            "--workers" => {
                let n: usize = value("a number")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                flags.config.workers = Some(n);
            }
            "--queue-depth" => {
                flags.config.queue_depth = value("a number")?
                    .parse()
                    .map_err(|e| format!("--queue-depth: {e}"))?;
            }
            "--feed-batch" => {
                flags.config.feed_batch_size = value("a number")?
                    .parse()
                    .map_err(|e| format!("--feed-batch: {e}"))?;
            }
            "--metrics-listen" => flags.metrics_listen = Some(value("an address")?),
            "--slow-event-us" => {
                flags.config.slow_event_us = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--slow-event-us: {e}"))?,
                );
            }
            "--slow-event-payloads" => flags.config.slow_event_payloads = true,
            "--trace-sample" => {
                let n: u64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--trace-sample: {e}"))?;
                if n == 0 {
                    return Err("--trace-sample expects a positive number".to_string());
                }
                flags.config.trace_sample = Some(n);
            }
            "--audit-sample" => {
                let n: u64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--audit-sample: {e}"))?;
                if n == 0 {
                    return Err("--audit-sample expects a positive number".to_string());
                }
                flags.config.audit_sample = Some(n);
            }
            "--ready-max-lag" => {
                flags.config.ready_max_lag = value("a number")?
                    .parse()
                    .map_err(|e| format!("--ready-max-lag: {e}"))?;
            }
            "--ready-max-queue" => {
                flags.config.ready_max_queue = value("a number")?
                    .parse()
                    .map_err(|e| format!("--ready-max-queue: {e}"))?;
            }
            "--log-level" => {
                let spec = value("error|warn|info|debug")?;
                let level = LogLevel::parse(&spec)
                    .ok_or_else(|| format!("--log-level: unknown level '{spec}'"))?;
                set_log_level(level);
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    if flags.schemas.is_empty() {
        return Err(format!("at least one --schema is required\n{}", usage()));
    }
    Ok(flags)
}

fn run() -> Result<(), String> {
    let flags = parse_flags(std::env::args().skip(1))?;
    let mut catalog = Catalog::new();
    for spec in &flags.schemas {
        catalog.add(parse_schema_spec(spec).map_err(|e| e.to_string())?);
    }
    let server = NetServer::bind(&catalog, flags.listen.as_str(), flags.config.clone())
        .map_err(|e| e.to_string())?;
    for (name, sql) in &flags.views {
        server.register(name, sql).map_err(|e| e.to_string())?;
        log_info("dbtoasterd", "registered view", &[("view", name.as_str())]);
    }
    // Kept alive until after wait(): dropping the handle stops the
    // metrics endpoint.
    let _metrics_http = match &flags.metrics_listen {
        Some(addr) => {
            server.set_metrics_enabled(true);
            // /trace is only a route when tracing is on — rendering an
            // always-empty trace would just mask a missing flag.
            let trace_fn: Option<TraceFn> = flags.config.trace_sample.map(|_| {
                let trace = server.trace_recorder();
                Box::new(move || chrome_trace_json(&trace.dump())) as TraceFn
            });
            let traced = trace_fn.is_some();
            let http = MetricsHttpServer::bind_with_planes(
                addr,
                server.metrics(),
                Some(server.store_metrics_refresher()),
                trace_fn,
                Some(server.health_fn()),
            )
            .map_err(|e| format!("--metrics-listen {addr}: {e}"))?;
            log_info(
                "dbtoasterd",
                "serving metrics",
                &[
                    ("endpoint", &format!("http://{}/metrics", http.addr())),
                    ("trace", if traced { "on" } else { "off" }),
                    ("health", "/healthz + /readyz"),
                ],
            );
            Some(http)
        }
        None => None,
    };
    log_info(
        "dbtoasterd",
        "serving",
        &[
            ("addr", &server.local_addr().to_string()),
            ("relations", &catalog.relations().len().to_string()),
            ("views", &flags.views.len().to_string()),
            ("queue_depth", &flags.config.queue_depth.to_string()),
            (
                "workers",
                &flags
                    .config
                    .workers
                    .map(|w| w.to_string())
                    .unwrap_or_else(|| "auto".to_string()),
            ),
            (
                "audit",
                &flags
                    .config
                    .audit_sample
                    .map(|n| format!("1/{n}"))
                    .unwrap_or_else(|| "off".to_string()),
            ),
        ],
    );
    server.wait();
    log_info("dbtoasterd", "shut down", &[]);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            // Flag/usage feedback stays plain multi-line text — it is
            // CLI output for a human, not runtime logging.
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
