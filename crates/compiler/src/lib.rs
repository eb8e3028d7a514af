//! The DBToaster recursive delta compiler.
//!
//! This crate is the paper's primary contribution: it takes a standing
//! SQL aggregate query and produces a *trigger program* — one handler per
//! base relation, run for inserts and deletes alike with the event's
//! weight (`+1` / `−1`) as an argument, each a short list of update
//! statements over in-memory map data structures — by recursively
//! compiling deltas of deltas until no base-relation scans remain
//! (Section 3 and Figure 2 of the paper).
//!
//! * [`program`] — the compiled artifact: map declarations, triggers,
//!   statements, result descriptors,
//! * [`compile`] — the recursive compilation driver (delta → simplify →
//!   materialize → recurse), including map sharing and the `max_depth`
//!   knob used for the classical-IVM ablation,
//! * [`hierarchy`] — the materialization hierarchy for nested
//!   aggregates: inner `Lift`/`Exists` aggregates are extracted into
//!   delta-maintained child maps and the nested map is kept exact by a
//!   staged retract/rebuild bracket,
//! * [`codegen`] — emission of the equivalent Rust event-handler source
//!   text, the analog of the paper's C++ code generation.

pub mod codegen;
pub mod compile;
pub mod hierarchy;
pub mod program;

pub use compile::{compile_query, compile_sql, CompileOptions, NestedStrategy};
pub use program::{
    handler_name, MapDecl, Stage, Statement, StatementKind, Trigger, TriggerProgram, STAGE_DELTA,
    STAGE_REBUILD, STAGE_RETRACT,
};
