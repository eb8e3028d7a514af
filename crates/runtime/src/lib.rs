//! DBToaster main-memory runtime.
//!
//! The compiler produces calculus-level trigger programs; this crate runs
//! them:
//!
//! * [`storage`] — the in-memory map data structures (hash maps keyed by
//!   tuples, with secondary indexes for the slice lookups that `foreach`
//!   statements need),
//! * [`lower`] — lowering of calculus statements into a flat, slot-based
//!   executable form: pre-resolved map ids, loop steps over index slices,
//!   guard predicates and arithmetic over environment slots. This is the
//!   reproduction's analog of the paper's generated C++: no query plans
//!   are interpreted at runtime, each event runs a short sequence of
//!   pre-compiled statements,
//! * [`engine`] — the query engine: applies update-stream events, exposes
//!   the standing query result, read-only snapshots of internal maps
//!   (the paper's ad-hoc client-side query interface), a per-map/
//!   per-trigger profiler and a per-statement self-profiler. The
//!   evaluation core is generic over a map *frame* ([`storage::MapRead`]
//!   / [`storage::MapWrite`]), so the same compiled statements run
//!   against an engine's private maps or the shared store,
//! * [`store`] — the shared map store: maps deduplicated across views by
//!   canonical fingerprint, per-map-group locking (base maps grouped by
//!   *relation*, derived maps by registering view), maintainer-view
//!   bookkeeping, and cacheable [`store::FramePlan`] slot-resolution
//!   tables so frame construction is allocation-free (the server half of
//!   cross-query map sharing and relation-partitioned dispatch),
//! * [`standalone`] — the standalone processing mode: an engine running
//!   on its own thread, fed through a channel, mirroring the paper's
//!   network-fed standalone runtime (embedded mode is simply using
//!   [`engine::Engine`] in-process).

pub mod engine;
pub mod lower;
pub mod standalone;
pub mod storage;
pub mod store;

pub use engine::{
    apply_event_statements, assemble_result, ordered_fallback, result_column_names, Engine,
    EventScratch, ProfileReport, ResultRow, StatementPhase, StmtHooks, StmtProfile,
    StmtProfileEntry, StmtSpans,
};
pub use lower::{lower_program, ExecProgram};
pub use standalone::StandaloneServer;
pub use storage::{MapRead, MapStorage, MapWrite};
pub use store::{
    FramePlan, GroupKey, LockWaitMetrics, MapRegistration, ReadFrame, SharedMapStore, SlotMeta,
    ViewBinding, WriteFrame,
};
