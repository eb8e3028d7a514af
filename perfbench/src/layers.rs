//! The traced pass: what each layer costs, measured from outside by timing
//! calls into its public functions, then one traced repetition of the
//! workload itself.
//!
//! Layer names are module names. Probes below the network replay the
//! workload's own stream and views, so the same metric name describes the
//! order-book portfolio on three workloads and the SSB portfolio on the
//! fourth. The storage and nested-VWAP probes are fixed micro-workloads,
//! and the daemon probes (`net.server`, `loadgen`, `rpc`) always replay the
//! order-book stream: batch-1 round trips need a long stream of cheap
//! events, which the warehouse stream is not.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dbtoaster::baselines::{FirstOrderIvmEngine, StandingQueryEngine, StreamEngine};
use dbtoaster::calculus::CmpOp;
use dbtoaster::common::{Event, Tuple, Value};
use dbtoaster::compiler::{compile_sql, CompileOptions};
use dbtoaster::net::wire;
use dbtoaster::runtime::{Engine, MapStorage};
use dbtoaster::server::{ShardedDispatcher, ViewSnapshot};
use dbtoaster::workloads::orderbook::{
    orderbook_catalog, OrderBookConfig, OrderBookGenerator, VWAP_NESTED,
};

use crate::daemon::Daemon;
use crate::embedded::{build_server, rep};
use crate::net::{closed_loop, feed_rep, open_loop, open_loop_events, OpenLoop};
use crate::outcome::{metric, Metric};
use crate::reference::Reference;
use crate::spans::{timed, Spans, ROOT};
use crate::stats::{median, quantile, sort};
use crate::workload::{
    Ingest, Inputs, Sizes, Workload, EMBEDDED_BATCH, FEED_BATCH, RATE_HIGH, RATE_LOW, RATE_MID,
    SMOKE,
};

/// What a traced pass is run on.
pub struct Pass<'a> {
    pub workload: Workload,
    pub inputs: &'a Inputs,
    /// The order-book inputs of the same seed (`inputs` itself on the three
    /// order-book workloads): what the daemon probes replay.
    pub orderbook: &'a Inputs,
    pub reference: &'a Reference,
    /// The built `dbtoasterd`.
    pub bin: &'a Path,
    pub sizes: &'a Sizes,
    pub seconds: f64,
    pub seed: u64,
}

#[derive(Default)]
pub struct LayerReport {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl LayerReport {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(metric(name, value, unit));
    }

    /// A metric an earlier probe of this pass measured.
    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
            .unwrap_or_else(|| panic!("probe order: {name} is read before it is measured"))
    }
}

fn ns_per(elapsed_s: f64, count: usize) -> f64 {
    elapsed_s * 1e9 / count.max(1) as f64
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// xorshift64*: the probes' own key order, so they need no crate.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
    }
}

/// `runtime.storage`: one map inside the cache (1k keys) and one beyond it,
/// hit in a seeded random order. Keys are `(i / 16, i % 16)` with a slice
/// index on the first column, so a slice returns 16 entries. Each call
/// builds its key tuple, as the statement VM does.
fn storage_probe(seed: u64, sizes: &Sizes, out: &mut Vec<Metric>) {
    const OPS: usize = 1_000_000;
    let key = |i: usize| {
        Tuple::new(vec![
            Value::Int((i / 16) as i64),
            Value::Int((i % 16) as i64),
        ])
    };
    for (label, keys) in [("small", 1024), ("large", sizes.storage_large_keys)] {
        let ops = OPS.min(keys * 64);
        let mut rng = Rng(seed | 1);
        let mut map = MapStorage::new(2);
        map.register_pattern(&[0]);
        for i in 0..keys {
            map.add(key(i), Value::Int(1));
        }
        let ((), add_s) = time(|| {
            for _ in 0..ops {
                map.add(key(rng.below(keys)), Value::Int(1));
            }
        });
        let (sum, get_s) =
            time(|| (0..ops).fold(0i64, |acc, _| acc + map.get(&key(rng.below(keys))).as_i64()));
        std::hint::black_box(sum);
        let slices = ops / 16;
        let (hits, slice_s) = time(|| {
            (0..slices).fold(0usize, |acc, _| {
                let bound = Tuple::new(vec![Value::Int(rng.below(keys / 16) as i64)]);
                acc + map.slice(&[0], &bound).len()
            })
        });
        std::hint::black_box(hits);
        out.push(metric(
            format!("runtime.storage.add_ns.{label}"),
            ns_per(add_s, ops),
            "ns",
        ));
        out.push(metric(
            format!("runtime.storage.get_ns.{label}"),
            ns_per(get_s, ops),
            "ns",
        ));
        out.push(metric(
            format!("runtime.storage.slice_ns.{label}"),
            ns_per(slice_s, slices),
            "ns",
        ));
        if label == "large" {
            out.push(metric(
                "runtime.storage.bytes_per_entry",
                map.approx_bytes() as f64 / map.len() as f64,
                "bytes",
            ));
        }
    }
    // The ordered index grows a group in O(its keys) per new key, as real
    // price grids are bounded: 256 prices per group, a quarter of the
    // large map's entries.
    let groups = (sizes.storage_large_keys / 1024).max(1);
    let mut map = MapStorage::new(2);
    map.register_ordered(1);
    for group in 0..groups {
        for price in 0..256 {
            map.add(
                Tuple::new(vec![Value::Int(group as i64), Value::Int(price)]),
                Value::Int(1),
            );
        }
    }
    let ops = 200_000.min(groups * 256 * 8);
    let mut rng = Rng(seed | 1);
    let (sum, range_s) = time(|| {
        (0..ops).fold(0i64, |acc, _| {
            let group = Tuple::new(vec![Value::Int(rng.below(groups) as i64)]);
            let bound = Value::Int(rng.below(256) as i64);
            acc + map
                .range_sum(1, &group, CmpOp::Gt, &bound)
                .map_or(0, |v| v.as_i64())
        })
    });
    std::hint::black_box(sum);
    out.push(metric(
        "runtime.storage.range_sum_ns.large",
        ns_per(range_s, ops),
        "ns",
    ));
}

/// `net.wire`: encode and decode of the workload's own events, framed as
/// the feed frames them (batch 64) and as an RPC frames them (batch 1).
fn wire_probe(events: &[Event], out: &mut Vec<Metric>) {
    for (label, batch) in [("b64", FEED_BATCH), ("b1", 1)] {
        let (mut encode_s, mut decode_s, mut bytes) = (0.0, 0.0, 0usize);
        for chunk in events.chunks(batch) {
            let (payload, took) = time(|| {
                if batch == 1 {
                    wire::encode_apply_batch(chunk)
                } else {
                    wire::encode_batch(chunk)
                }
            });
            encode_s += took;
            bytes += payload.len() + 4;
            let (message, took) = time(|| wire::decode_message(&payload));
            decode_s += took;
            std::hint::black_box(message.is_ok());
        }
        let n = events.len();
        out.push(metric(
            format!("net.wire.encode_ns_per_event.{label}"),
            ns_per(encode_s, n),
            "ns",
        ));
        out.push(metric(
            format!("net.wire.decode_ns_per_event.{label}"),
            ns_per(decode_s, n),
            "ns",
        ));
        out.push(metric(
            format!("net.wire.bytes_per_event.{label}"),
            bytes as f64 / n as f64,
            "bytes",
        ));
    }
}

fn latency_metrics(label: &str, phase: &OpenLoop, out: &mut Vec<Metric>) {
    let mut visible = phase.visible_us.clone();
    sort(&mut visible);
    out.push(metric(
        format!("loadgen.late_p99_us.{label}"),
        phase.late_p99_us(),
        "us",
    ));
    out.push(metric(
        format!("loadgen.achieved_per_s.{label}"),
        phase.achieved_per_s,
        "1/s",
    ));
    out.push(metric(
        format!("loadgen.missed_slots.{label}"),
        phase.missed_slots as f64,
        "count",
    ));
    out.push(metric(
        format!("rpc.visible_latency_p50_us.{label}"),
        quantile(&visible, 0.5),
        "us",
    ));
    out.push(metric(
        format!("rpc.visible_latency_p99_us.{label}"),
        quantile(&visible, 0.99),
        "us",
    ));
    if label == "mid" {
        // A diagnostic: meaningful only with ten or more samples beyond it.
        out.push(metric(
            "rpc.visible_latency_p999_us.mid",
            quantile(&visible, 0.999),
            "us",
        ));
        // The read path beside the write path.
        let mut snapshot = phase.snapshot_us.clone();
        sort(&mut snapshot);
        for (name, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
            out.push(metric(
                format!("rpc.snapshot_latency_{name}_us.mid"),
                quantile(&snapshot, q),
                "us",
            ));
        }
    }
}

impl Pass<'_> {
    /// Run every probe, then the workload itself untraced and traced, and
    /// write the spans to `trace_file`.
    pub fn run(&self, trace_file: &Path) -> Result<LayerReport, String> {
        let spans = Spans::new();
        let mut report = LayerReport::default();
        self.view_probes(&spans, &mut report)?;
        self.nested_vwap_probe(&mut report)?;
        storage_probe(self.seed, self.sizes, &mut report.metrics);
        self.server_probes(&mut report)?;
        self.shard_probe(&mut report)?;
        wire_probe(self.inputs.probe(self.sizes), &mut report.metrics);
        self.baseline_probes(&mut report)?;
        self.feed_probe(&mut report)?;
        let (per_event_ns, traced_ns) = self.rate_probes_and_workload(&spans, &mut report)?;
        report.push(
            "trace.overhead_ratio",
            traced_ns / per_event_ns - 1.0,
            "ratio",
        );
        self.ledger(per_event_ns, &mut report);

        // Layer self time in the traced repetition, as a share of its wall time.
        let self_ns = spans.self_ns();
        let root_ns = spans.total_ns(ROOT).max(1.0);
        for name in SPAN_NAMES {
            let share = self_ns.get(name).copied().unwrap_or(0.0) / root_ns;
            report.push(format!("span.self_share.{name}"), share, "ratio");
        }
        if let Some(dir) = trace_file.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(trace_file, spans.chrome_json()).map_err(|e| e.to_string())?;
        eprintln!("# trace written to {}", trace_file.display());
        Ok(report)
    }

    /// `compiler`, `runtime.lower`, `runtime.engine`: each view alone, summed.
    fn view_probes(&self, spans: &Spans, report: &mut LayerReport) -> Result<(), String> {
        let inputs = self.inputs;
        let probe = inputs.probe(self.sizes);
        let (mut compile_s, mut lower_s, mut engine_ns) = (0.0, 0.0, 0.0);
        let (mut maps, mut statements, mut code_size) = (0usize, 0usize, 0usize);
        for (index, (name, sql)) in inputs.views.iter().enumerate() {
            let (program, took) = time(|| {
                timed(Some(spans), "compile_sql", "probe", index as u64, || {
                    compile_sql(sql, &inputs.catalog, &CompileOptions::full())
                })
            });
            let program = program.map_err(|e| format!("compile {name}: {e}"))?;
            compile_s += took;
            maps += program.maps.len();
            statements += program.statement_count();
            code_size += program.code_size();
            let (engine, took) = time(|| {
                timed(Some(spans), "engine_new", "probe", index as u64, || {
                    Engine::new(&program)
                })
            });
            let mut engine = engine.map_err(|e| format!("lower {name}: {e}"))?;
            lower_s += took;
            let (result, took) = time(|| engine.process(probe));
            result.map_err(|e| format!("engine {name}: {e}"))?;
            engine_ns += ns_per(took, probe.len());
        }
        report.push("compiler.compile_s", compile_s, "s");
        report.push("compiler.maps", maps as f64, "count");
        report.push("compiler.statements", statements as f64, "count");
        report.push("compiler.code_size", code_size as f64, "count");
        report.push("runtime.lower_s", lower_s, "s");
        report.push("runtime.engine.ns_per_event", engine_ns, "ns");
        Ok(())
    }

    /// `runtime.engine` diagnostic: the correlated nested VWAP on a short
    /// order-book stream of its own.
    fn nested_vwap_probe(&self, report: &mut LayerReport) -> Result<(), String> {
        let stream = OrderBookGenerator::new(OrderBookConfig {
            messages: self.sizes.nested_messages,
            book_depth: self.sizes.book_depth,
            seed: self.seed,
            ..Default::default()
        })
        .generate();
        let program = compile_sql(VWAP_NESTED, &orderbook_catalog(), &CompileOptions::full())
            .map_err(|e| e.to_string())?;
        let mut engine = Engine::new(&program).map_err(|e| e.to_string())?;
        let (result, took) = time(|| engine.process(&stream.events));
        result.map_err(|e| format!("nested vwap: {e}"))?;
        report.push(
            "runtime.engine.vwap_nested_ns_per_event",
            ns_per(took, stream.len()),
            "ns",
        );
        Ok(())
    }

    /// `server`, `runtime.store`, `telemetry`: the whole portfolio in process.
    fn server_probes(&self, report: &mut LayerReport) -> Result<(), String> {
        let (inputs, sizes) = (self.inputs, self.sizes);
        let probe = inputs.probe(sizes);
        let mut register_s = Vec::new();
        for (label, batch) in [("b1024", EMBEDDED_BATCH), ("b64", FEED_BATCH), ("b1", 1)] {
            let r = rep(inputs, probe, batch, false, sizes.snapshots_per_rep, None)?;
            register_s.push(r.setup_s);
            report.failed += r.failed;
            report.attempted += r.attempted;
            report.push(
                format!("server.apply_ns_per_event.{label}"),
                ns_per(r.apply_s, probe.len()),
                "ns",
            );
            if batch == EMBEDDED_BATCH {
                let store = r.server.store_report();
                let rows: usize = r.snapshots.iter().map(|s| s.rows.len()).sum();
                report.push("server.snapshot_all_ns", median(&r.snapshot_us) * 1e3, "ns");
                report.push("server.snapshot_rows", rows as f64, "count");
                report.push(
                    "runtime.store.shared_slots",
                    store.shared_slots as f64,
                    "count",
                );
                report.push(
                    "runtime.store.dedup_skipped_statements",
                    store.dedup_skipped_statements as f64,
                    "count",
                );
            }
        }
        let b1024 = report.get("server.apply_ns_per_event.b1024");
        report.push(
            "runtime.store.share_overhead_ns_per_event",
            b1024 - report.get("runtime.engine.ns_per_event"),
            "ns",
        );
        let metered = rep(inputs, probe, EMBEDDED_BATCH, true, 1, None)?;
        register_s.push(metered.setup_s);
        report.push("server.register_s", median(&register_s), "s");
        report.push(
            "telemetry.enabled_overhead_ns_per_event",
            ns_per(metered.apply_s, probe.len()) - b1024,
            "ns",
        );
        Ok(())
    }

    /// `server.shard`: the dispatcher in front of the same server, batch 64.
    fn shard_probe(&self, report: &mut LayerReport) -> Result<(), String> {
        let probe = self.inputs.probe(self.sizes);
        let dispatcher = ShardedDispatcher::new_auto(Arc::new(build_server(self.inputs, false)?));
        let (result, took) = time(|| {
            probe
                .chunks(FEED_BATCH)
                .try_for_each(|chunk| dispatcher.apply_batch(chunk).map(drop))
        });
        result.map_err(|e| format!("sharded apply: {e}"))?;
        report.push(
            "server.shard.dispatch_ns_per_event",
            ns_per(took, probe.len()) - report.get("server.apply_ns_per_event.b64"),
            "ns",
        );
        Ok(())
    }

    /// `baselines`: the yardstick every speed-up is read against. They replay
    /// the start of the smoke-sized stream of the same family: on the full
    /// warehouse stream both enumerate a cross product per dimension row,
    /// for minutes.
    fn baseline_probes(&self, report: &mut LayerReport) -> Result<(), String> {
        let small = Inputs::generate(self.workload.family, self.seed, &SMOKE);
        let events = &small.events[..small.events.len().min(5_000)];
        let (view, catalog) = (self.inputs.baseline_view, &self.inputs.catalog);
        let mut first_order = FirstOrderIvmEngine::new(view, catalog).map_err(|e| e.to_string())?;
        let (result, took) = time(|| first_order.process(events));
        result.map_err(|e| format!("first-order baseline: {e}"))?;
        report.push(
            "baselines.first_order.ns_per_event",
            ns_per(took, events.len()),
            "ns",
        );
        let mut stream = StreamEngine::new(view, catalog).map_err(|e| e.to_string())?;
        let (result, took) = time(|| stream.process(events));
        result.map_err(|e| format!("stream baseline: {e}"))?;
        report.push(
            "baselines.stream.ns_per_event",
            ns_per(took, events.len()),
            "ns",
        );
        Ok(())
    }

    /// `net.server` and the daemon's `server.shard` counters: the order-book
    /// stream fed to a daemon, against the same stream applied in process
    /// at the same batch size with metrics on.
    fn feed_probe(&self, report: &mut LayerReport) -> Result<(), String> {
        let events = self.orderbook.probe(self.sizes);
        let feed = feed_rep(self.bin, self.orderbook, events, 1, None)?;
        report.failed += feed.failed;
        report.attempted += feed.attempted;
        let metered = rep(self.orderbook, events, FEED_BATCH, true, 1, None)?;
        let metered_ns = ns_per(metered.apply_s, events.len());
        report.push(
            "net.server.feed_events_per_s",
            feed.ingest_per_s,
            "events/s",
        );
        report.push(
            "net.server.metered_apply_ns_per_event.b64",
            metered_ns,
            "ns",
        );
        report.push(
            "net.server.wire_tax_ns_per_event",
            1e9 / feed.ingest_per_s - metered_ns,
            "ns",
        );
        report.push("net.server.spawn_to_accept_s", feed.setup_s, "s");
        let stats = &feed.stats;
        report.push(
            "server.shard.parallel_batches",
            stats.parallel_batches as f64,
            "count",
        );
        report.push(
            "server.shard.sequential_batches",
            stats.sequential_batches as f64,
            "count",
        );
        report.push("server.shard.jobs", stats.jobs as f64, "count");
        Ok(())
    }

    /// `net.server` closed loop, then `loadgen` / `rpc` at three fixed rates,
    /// all on one daemon, each phase on the next slice of the order-book
    /// stream; then the workload itself, once untraced and once traced.
    /// Returns the workload's cost per event in ns, untraced and traced
    /// (for the RPC workload: the median visible latency).
    fn rate_probes_and_workload(
        &self,
        spans: &Spans,
        report: &mut LayerReport,
    ) -> Result<(f64, f64), String> {
        let (inputs, sizes, bin) = (self.inputs, self.sizes, self.bin);
        let phase_s = self.seconds / 5.0;
        // The probes discard a quarter of the workload's warm-up.
        let phase_events =
            |rate: f64| open_loop_events(rate, phase_s, sizes.open_loop_warmup_s / 4.0);
        let (daemon, mut client, _) = Daemon::spawn(bin, self.orderbook)?;
        let (round_trips, took) =
            closed_loop(&mut client, &self.orderbook.events, self.seconds / 10.0)?;
        report.attempted += round_trips as u64;
        report.push(
            "net.server.rpc_closed_loop_per_s.b1",
            round_trips as f64 / took,
            "1/s",
        );
        let mut rest = &self.orderbook.events[round_trips..];
        for (label, rate) in [("low", RATE_LOW), ("mid", RATE_MID), ("high", RATE_HIGH)] {
            let (count, warmup) = phase_events(rate);
            let (slice, after) = rest.split_at(count.min(rest.len() / 2));
            rest = after;
            let phase = open_loop(&daemon.addr, slice, rate, warmup.min(slice.len() / 2), None)?;
            report.attempted += phase.attempted;
            report.failed += phase.failed;
            latency_metrics(label, &phase, &mut report.metrics);
        }

        let snapshots = sizes.snapshots_per_rep;
        let check = |report: &mut LayerReport, got: &[ViewSnapshot]| {
            report.attempted += inputs.views.len() as u64;
            report.failed += self.reference.mismatches(got) as u64;
        };
        let costs = match self.workload.ingest {
            Ingest::Embedded => {
                let plain = rep(
                    inputs,
                    &inputs.events,
                    EMBEDDED_BATCH,
                    false,
                    snapshots,
                    None,
                )?;
                check(report, &plain.snapshots);
                report.attempted += plain.attempted;
                report.failed += plain.failed;
                let plain_ns = ns_per(plain.apply_s, inputs.events.len());
                drop(plain);
                let traced = timed(Some(spans), ROOT, "", 0, || {
                    let events = &inputs.events;
                    rep(
                        inputs,
                        events,
                        EMBEDDED_BATCH,
                        false,
                        snapshots,
                        Some(spans),
                    )
                })?;
                (plain_ns, ns_per(traced.apply_s, inputs.events.len()))
            }
            Ingest::FeedDaemon => {
                let plain = feed_rep(bin, inputs, &inputs.events, snapshots, None)?;
                check(report, &plain.snapshots);
                report.attempted += plain.attempted;
                report.failed += plain.failed;
                let traced = timed(Some(spans), ROOT, "", 0, || {
                    feed_rep(bin, inputs, &inputs.events, snapshots, Some(spans))
                })?;
                (1e9 / plain.ingest_per_s, 1e9 / traced.ingest_per_s)
            }
            Ingest::RpcDaemon => {
                let (count, warmup) = phase_events(RATE_MID);
                let slice = &rest[..count.min(rest.len())];
                let warmup = warmup.min(slice.len() / 2);
                let traced = timed(Some(spans), ROOT, "", 0, || {
                    open_loop(&daemon.addr, slice, RATE_MID, warmup, Some(spans))
                })?;
                report.attempted += traced.attempted;
                report.failed += traced.failed;
                let plain_us = report.get("rpc.visible_latency_p50_us.mid");
                (plain_us * 1e3, median(&traced.visible_us) * 1e3)
            }
        };
        daemon.shutdown(&mut client)?;
        Ok(costs)
    }

    /// `ledger`: the share of the workload's cost per event that the layer
    /// numbers above do not cover.
    fn ledger(&self, per_event_ns: f64, report: &mut LayerReport) {
        let wire_ns = |label: &str| {
            report.get(&format!("net.wire.encode_ns_per_event.{label}"))
                + report.get(&format!("net.wire.decode_ns_per_event.{label}"))
        };
        let shard_ns = report.get("server.shard.dispatch_ns_per_event").max(0.0);
        let attributed_ns = match self.workload.ingest {
            Ingest::Embedded => report.get("server.apply_ns_per_event.b1024"),
            Ingest::FeedDaemon => {
                report.get("net.server.metered_apply_ns_per_event.b64") + shard_ns + wire_ns("b64")
            }
            Ingest::RpcDaemon => {
                report.get("server.apply_ns_per_event.b1")
                    + report
                        .get("telemetry.enabled_overhead_ns_per_event")
                        .max(0.0)
                    + shard_ns
                    + wire_ns("b1")
            }
        };
        report.push(
            "ledger.unattributed_share",
            1.0 - attributed_ns / per_event_ns,
            "ratio",
        );
    }
}

/// The spans whose self time the traced pass reports. A name a workload's
/// path never calls reports 0.
pub const SPAN_NAMES: [&str; 10] = [
    "register",
    "apply_batch",
    "snapshot_all",
    "spawn_daemon",
    "feed_send",
    "feed_ack",
    "encode",
    "write_frame",
    "wait_reply",
    "decode_response",
];
