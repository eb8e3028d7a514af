//! The DBToaster *map algebra*: a ring calculus over relations and maps.
//!
//! Section 3 of the paper describes compilation through "a custom query
//! algebra to define map data structures" with roughly seventy
//! simplification rules. This crate implements that algebra:
//!
//! * [`expr`] — the calculus expression language ([`CalcExpr`],
//!   [`ValExpr`]): products and sums of relation atoms, comparisons,
//!   value expressions, map references, `AggSum` aggregation, variable
//!   lifting for nested aggregates and `Exists`,
//! * [`translate`] — translation of analyzed SQL queries into calculus
//!   map definitions,
//! * [`delta`] — the delta transformation for a weighted single-tuple
//!   event on a base relation (weight `+1` insert, `−1` delete),
//! * [`simplify`] — polynomial normalization, unification of equality
//!   constraints, factorization out of `AggSum`, and the other rewrite
//!   rules that make recursive compilation produce asymptotically simpler
//!   maintenance code,
//! * [`canon`] — canonical forms and canonical key orders used to detect
//!   map-sharing opportunities across event handlers.

pub mod canon;
pub mod delta;
pub mod expr;
pub mod simplify;
pub mod translate;

pub use canon::{canonical_form, canonical_key_order};
pub use delta::{delta, trigger_args, WEIGHT};
pub use expr::{CalcExpr, CmpOp, ValExpr, Var};
pub use simplify::{simplify, to_polynomial, Polynomial, Term};
pub use translate::{translate_query, AggSpec, QueryCalc, ResultColumn};
