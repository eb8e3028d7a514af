//! # DBToaster (Rust reproduction)
//!
//! A SQL compiler for high-performance delta processing in main-memory
//! databases: standing aggregate queries are *recursively* compiled into
//! trigger programs — one short handler per relation, run for inserts
//! and deletes alike with the event's weight (`+1` / `−1`) — over
//! in-memory map data structures, so that each update is absorbed by a
//! few hash-map operations instead of a query re-run.
//!
//! This crate is the facade over the workspace:
//!
//! * [`common`] — values, tuples, schemas, the update-stream event model,
//! * [`sql`] — lexer, parser, analyzer for the supported SQL fragment,
//! * [`calculus`] — the map algebra (ring expressions, delta rules,
//!   simplification),
//! * [`compiler`] — the recursive delta compiler and the Rust code
//!   generator,
//! * [`runtime`] — map storage, the statement VM, the embedded-mode
//!   [`Engine`] and the standalone server,
//! * [`server`] — the multi-query view server: N standing views over one
//!   catalog, relation-based event dispatch, batched ingestion, sharded
//!   parallel dispatch over a worker pool and pluggable stream sources,
//! * [`net`] — the network data plane: the binary wire protocol, the
//!   standalone `dbtoasterd` server, socket-backed stream sources
//!   (`SocketSource`/`FeedWriter`) and the blocking `NetClient`,
//! * [`telemetry`] — dependency-free metrics: atomic counters and
//!   gauges, lock-free log2 latency histograms, a Prometheus-text HTTP
//!   endpoint and the slow-event ring — the observability plane every
//!   layer above records into,
//! * [`exec`] — the reference interpreter used by baselines and tests,
//! * [`baselines`] — the bakeoff baseline engines,
//! * [`workloads`] — order-book and TPC-H/SSB workload generators and
//!   their `EventSource` adapters.
//!
//! ## Quickstart
//!
//! ```
//! use dbtoaster::prelude::*;
//!
//! // 1. Declare the streamed relations.
//! let catalog = Catalog::new()
//!     .with(Schema::new("R", vec![("A", ColumnType::Int), ("B", ColumnType::Int)]))
//!     .with(Schema::new("S", vec![("B", ColumnType::Int), ("C", ColumnType::Int)]))
//!     .with(Schema::new("T", vec![("C", ColumnType::Int), ("D", ColumnType::Int)]));
//!
//! // 2. Compile the standing query (the paper's running example).
//! let query = "select sum(A*D) from R, S, T where R.B = S.B and S.C = T.C";
//! let mut engine = StandingQuery::compile(query, &catalog).unwrap();
//!
//! // 3. Feed deltas; the result is maintained incrementally.
//! engine.insert("R", tuple![2i64, 1i64]).unwrap();
//! engine.insert("S", tuple![1i64, 3i64]).unwrap();
//! engine.insert("T", tuple![3i64, 10i64]).unwrap();
//! assert_eq!(engine.scalar(), Value::Int(20));
//! engine.delete("R", tuple![2i64, 1i64]).unwrap();
//! assert_eq!(engine.scalar(), Value::Int(0));
//! ```
//!
//! ## Serving many views from one stream
//!
//! The [`ViewServer`](server::ViewServer) maintains a portfolio of
//! standing queries over one catalog, with materialized maps
//! **deduplicated across views** (shared `BASE_*` maps and
//! alpha-equivalent sub-aggregates are stored and written once, by one
//! maintainer view). Events are routed only to the views whose triggers
//! reference the event's relation, and ingestion is batched: the
//! affected map-group locks are taken once per batch. Any
//! [`EventSource`] can feed it — below, an archived CSV stream.
//!
//! ```
//! use dbtoaster::prelude::*;
//! use dbtoaster::server::CsvReplaySource;
//!
//! let catalog = Catalog::new()
//!     .with(Schema::new("R", vec![("A", ColumnType::Int), ("B", ColumnType::Int)]))
//!     .with(Schema::new("S", vec![("B", ColumnType::Int), ("C", ColumnType::Int)]));
//!
//! let mut server = ViewServer::new(&catalog);
//! server.register("totals", "select sum(A) from R").unwrap();
//! server.register("joined", "select count(*) from R, S where R.B = S.B").unwrap();
//!
//! let archive = "R,insert,2,1\nS,insert,1,5\nR,insert,3,1\nR,delete,2,1\n";
//! let mut source = CsvReplaySource::from_string("archive.csv", archive, &catalog);
//! let report = server.run_source(&mut source, 1024).unwrap();
//!
//! assert_eq!(report.events, 4);
//! assert_eq!(server.scalar("totals").unwrap(), Value::Int(3));
//! assert_eq!(server.scalar("joined").unwrap(), Value::Int(1));
//! // S events never touch the R-only view:
//! assert_eq!(server.events_processed("totals").unwrap(), 3);
//! ```

pub use dbtoaster_baselines as baselines;
pub use dbtoaster_calculus as calculus;
pub use dbtoaster_common as common;
pub use dbtoaster_compiler as compiler;
pub use dbtoaster_exec as exec;
pub use dbtoaster_net as net;
pub use dbtoaster_runtime as runtime;
pub use dbtoaster_server as server;
pub use dbtoaster_sql as sql;
pub use dbtoaster_telemetry as telemetry;
pub use dbtoaster_workloads as workloads;

use dbtoaster_common::{Catalog, Event, Result, Tuple, UpdateStream, Value};
use dbtoaster_compiler::{CompileOptions, TriggerProgram};
use dbtoaster_runtime::{Engine, ProfileReport, ResultRow};

/// Everything a typical embedding application needs.
pub mod prelude {
    pub use crate::StandingQuery;
    pub use dbtoaster_common::{
        tuple, Catalog, ColumnType, Event, EventBatch, EventKind, EventSource, Schema,
        StreamSource, Tuple, UpdateStream, Value,
    };
    pub use dbtoaster_compiler::{CompileOptions, TriggerProgram};
    pub use dbtoaster_runtime::{Engine, ResultRow, StandaloneServer};
    pub use dbtoaster_server::{
        DispatchReport, IngestReport, ShardedDispatcher, StoreMapReport, StoreReport, ViewId,
        ViewServer, ViewSnapshot,
    };
}

/// A compiled standing query with its embedded-mode engine — the
/// high-level API of the library.
pub struct StandingQuery {
    program: TriggerProgram,
    engine: Engine,
}

impl StandingQuery {
    /// Compile a SQL query with full recursive compilation.
    pub fn compile(sql: &str, catalog: &Catalog) -> Result<StandingQuery> {
        StandingQuery::compile_with(sql, catalog, &CompileOptions::full())
    }

    /// Compile with explicit options (e.g. depth-limited compilation).
    pub fn compile_with(
        sql: &str,
        catalog: &Catalog,
        options: &CompileOptions,
    ) -> Result<StandingQuery> {
        let program = dbtoaster_compiler::compile_sql(sql, catalog, options)?;
        let engine = Engine::new(&program)?;
        Ok(StandingQuery { program, engine })
    }

    /// The compiled trigger program (maps, handlers, statements).
    pub fn program(&self) -> &TriggerProgram {
        &self.program
    }

    /// The generated Rust event-handler source (the analog of the paper's
    /// C++ emission).
    pub fn generated_source(&self) -> String {
        dbtoaster_compiler::codegen::generate_rust(&self.program)
    }

    /// Apply one event.
    pub fn on_event(&mut self, event: &Event) -> Result<()> {
        self.engine.on_event(event)
    }

    /// Insert a tuple into a base relation.
    pub fn insert(&mut self, relation: &str, tuple: Tuple) -> Result<()> {
        self.engine.on_event(&Event::insert(relation, tuple))
    }

    /// Delete a tuple from a base relation.
    pub fn delete(&mut self, relation: &str, tuple: Tuple) -> Result<()> {
        self.engine.on_event(&Event::delete(relation, tuple))
    }

    /// Apply every event of a stream.
    pub fn process(&mut self, stream: &UpdateStream) -> Result<()> {
        self.engine.process(stream)
    }

    /// The current result rows.
    pub fn result(&self) -> Vec<ResultRow> {
        self.engine.result()
    }

    /// Output column names in `SELECT` order.
    pub fn column_names(&self) -> Vec<String> {
        self.engine.column_names()
    }

    /// The single value of a scalar query.
    pub fn scalar(&self) -> Value {
        self.engine.scalar_result()
    }

    /// Read-only snapshot of an internal map (ad-hoc query interface).
    pub fn map_snapshot(&self, name: &str) -> Option<Vec<(Tuple, Value)>> {
        self.engine.map_snapshot(name)
    }

    /// Profiling statistics.
    pub fn profile(&self) -> ProfileReport {
        self.engine.profile()
    }

    /// Direct access to the underlying engine (profiling, memory, ...).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Direct read access to the underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use dbtoaster_common::tuple;

    #[test]
    fn facade_compiles_and_maintains_a_grouped_query() {
        let catalog = Catalog::new().with(Schema::new(
            "ORDERS",
            vec![("CUST", ColumnType::Int), ("AMOUNT", ColumnType::Float)],
        ));
        let mut q = crate::StandingQuery::compile(
            "select CUST, sum(AMOUNT), count(*) from ORDERS group by CUST",
            &catalog,
        )
        .unwrap();
        q.insert("ORDERS", tuple![1i64, 10.0f64]).unwrap();
        q.insert("ORDERS", tuple![1i64, 5.0f64]).unwrap();
        q.insert("ORDERS", tuple![2i64, 7.5f64]).unwrap();
        let rows = q.result();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].values[1], Value::Float(15.0));
        assert_eq!(q.column_names().len(), 3);
        assert!(q.generated_source().contains("fn on_ORDERS("));
        assert!(q.profile().statement_count > 0);
    }
}
