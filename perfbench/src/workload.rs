//! The four workloads: which views they maintain, over which generated
//! stream, and through which ingestion path.

use dbtoaster::common::{Catalog, ColumnType, Event};
use dbtoaster::workloads::orderbook::{
    finance_queries, orderbook_catalog, OrderBookConfig, OrderBookGenerator, SOBI,
};
use dbtoaster::workloads::tpch::{
    ssb_catalog, transform_to_ssb, TpchConfig, TpchData, SSB_Q41, SSB_REVENUE_BY_YEAR,
};

/// How events reach the views.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// `ViewServer::apply_batch` on the caller's thread, batch 1024, metrics off.
    Embedded,
    /// One `FeedWriter` into a `dbtoasterd` child, batch 64, metrics on.
    FeedDaemon,
    /// Batch-1 `apply_batch` RPCs into a `dbtoasterd` child on a fixed
    /// schedule, beside `snapshot_all` RPCs on a second connection.
    RpcDaemon,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    OrderBook,
    Ssb,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub family: Family,
    pub ingest: Ingest,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "orderbook_flat_embedded",
        family: Family::OrderBook,
        ingest: Ingest::Embedded,
    },
    Workload {
        name: "ssb_loading_embedded",
        family: Family::Ssb,
        ingest: Ingest::Embedded,
    },
    Workload {
        name: "orderbook_feed_daemon",
        family: Family::OrderBook,
        ingest: Ingest::FeedDaemon,
    },
    Workload {
        name: "orderbook_rpc_openloop_daemon",
        family: Family::OrderBook,
        ingest: Ingest::RpcDaemon,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

pub const EMBEDDED_BATCH: usize = 1024;
pub const FEED_BATCH: usize = 64;

/// Open-loop request rates, per second. `MID` was centred once at about a
/// quarter of the closed-loop batch-1 capacity measured on the builder's
/// 2-core machine (~30k round trips/s once warm) and is frozen; `LOW` and
/// `HIGH` bracket it for the traced pass.
pub const RATE_LOW: f64 = 2_000.0;
pub const RATE_MID: f64 = 8_000.0;
pub const RATE_HIGH: f64 = 16_000.0;
/// `snapshot_all` requests per second beside the open-loop writes.
pub const SNAPSHOT_RATE: f64 = 100.0;

/// Everything whose size differs between a full run and `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub orderbook_messages: usize,
    /// Resident orders per book. 1000 keeps one interpreter evaluation of
    /// the two join views (a 1000 x 1000 nested loop each) near a second.
    pub book_depth: usize,
    pub ssb_scale: f64,
    /// Events of the stream the per-layer probes replay.
    pub probe_events: usize,
    /// Keys of the storage probe's beyond-cache map.
    pub storage_large_keys: usize,
    /// Messages of the nested-VWAP diagnostic stream.
    pub nested_messages: usize,
    /// `snapshot_all` calls timed at the end of each repetition.
    pub snapshots_per_rep: usize,
    /// Seconds of open-loop requests discarded before sampling starts.
    pub open_loop_warmup_s: f64,
}

pub const FULL: Sizes = Sizes {
    orderbook_messages: 1_000_000,
    book_depth: 1_000,
    ssb_scale: 0.3,
    probe_events: 250_000,
    storage_large_keys: 1_000_000,
    nested_messages: 50_000,
    snapshots_per_rep: 1_000,
    open_loop_warmup_s: 2.0,
};

pub const SMOKE: Sizes = Sizes {
    orderbook_messages: 20_000,
    book_depth: 200,
    ssb_scale: 0.02,
    probe_events: 5_000,
    storage_large_keys: 20_000,
    nested_messages: 2_000,
    snapshots_per_rep: 50,
    open_loop_warmup_s: 0.1,
};

/// What one run feeds the program under test. Made from the seed alone.
pub struct Inputs {
    pub catalog: Catalog,
    /// `(name, SQL)` in registration order.
    pub views: Vec<(&'static str, &'static str)>,
    pub events: Vec<Event>,
    /// The view the `baselines` yardstick replays.
    pub baseline_view: &'static str,
}

impl Inputs {
    pub fn generate(family: Family, seed: u64, sizes: &Sizes) -> Inputs {
        match family {
            Family::OrderBook => Inputs {
                catalog: orderbook_catalog(),
                views: finance_queries(),
                events: OrderBookGenerator::new(OrderBookConfig {
                    messages: sizes.orderbook_messages,
                    book_depth: sizes.book_depth,
                    seed,
                    ..Default::default()
                })
                .generate()
                .events,
                baseline_view: SOBI,
            },
            Family::Ssb => Inputs {
                catalog: ssb_catalog(),
                views: vec![
                    ("ssb_q41", SSB_Q41),
                    ("ssb_revenue_by_year", SSB_REVENUE_BY_YEAR),
                ],
                events: transform_to_ssb(&TpchData::generate(&TpchConfig {
                    seed,
                    ..TpchConfig::at_scale(sizes.ssb_scale)
                }))
                .events,
                baseline_view: SSB_Q41,
            },
        }
    }

    /// `"<events> digest <hash>"`: equal for equal seeds, on any commit, so
    /// two result files can be seen to have measured the same inputs.
    pub fn describe(&self) -> String {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        for event in &self.events {
            (&event.relation, event.kind, &event.tuple).hash(&mut hasher);
        }
        format!("{} digest {:016x}", self.events.len(), hasher.finish())
    }

    /// The prefix of the stream the per-layer probes replay.
    pub fn probe(&self, sizes: &Sizes) -> &[Event] {
        &self.events[..self.events.len().min(sizes.probe_events)]
    }

    /// The catalog as `dbtoasterd --schema` specs.
    pub fn schema_specs(&self) -> Vec<String> {
        self.catalog
            .relations()
            .iter()
            .map(|schema| {
                let columns: Vec<String> = schema
                    .columns
                    .iter()
                    .map(|c| {
                        let ty = match c.ty {
                            ColumnType::Int => "INT",
                            ColumnType::Float => "FLOAT",
                            ColumnType::Str => "VARCHAR",
                            ColumnType::Bool => "BOOLEAN",
                            ColumnType::Date => "DATE",
                        };
                        format!("{} {ty}", c.name)
                    })
                    .collect();
                format!("{}({})", schema.name, columns.join(", "))
            })
            .collect()
    }
}
