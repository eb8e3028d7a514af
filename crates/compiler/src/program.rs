//! The compiled artifact: maps, triggers, statements.
//!
//! A [`TriggerProgram`] is the calculus-level equivalent of the C++ the
//! paper generates — one event handler per relation, run for inserts and
//! deletes alike with the event's weight as an argument, each a list of
//! [`Statement`]s that update in-memory maps, plus the
//! declarations of those maps and a description of how to read the query
//! result back out of them. The runtime crate lowers this program into a
//! slot-based executable form; [`crate::codegen`] pretty-prints it as
//! Rust source.

use dbtoaster_calculus::{canonical_form, CalcExpr, QueryCalc, Var};
use dbtoaster_common::{Catalog, FxHashMap};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A map (in-memory view) maintained by the trigger program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapDecl {
    /// Unique map name (`Q`, `M1_ST`, `BASE_R`, ...).
    pub name: String,
    /// Key variables as used in `definition`. For generated maps these
    /// are in canonical key order (`canonical_key_order`), not in the
    /// order of the factor or hierarchy child that first asked for them.
    pub keys: Vec<Var>,
    /// Definition over base relations: `AggSum(keys, body)`.
    pub definition: CalcExpr,
    /// Canonical form used for map sharing: equal for maps that are
    /// identical up to variable renaming, factor order and — since
    /// generated maps declare their keys in canonical order — key order.
    pub canonical: String,
    /// True for base-relation multiplicity maps (`BASE_<REL>`), which are
    /// materialized copies of stream relations used by depth-limited
    /// compilation and by nested-aggregate re-evaluation statements.
    pub is_base_relation: bool,
    /// Key positions the runtime should additionally maintain an
    /// *ordered/cumulative* index over (order-statistic range sums).
    /// Requested by the hierarchy pass when a surrounding comparison
    /// binds this key with an inequality (the `b2.PRICE > b1.PRICE`
    /// shape). Purely an access-path hint: it never changes map
    /// contents, so it is excluded from [`MapDecl::fingerprint`] and
    /// shared-store slots union the requests of all sharers.
    #[serde(default)]
    pub ordered_keys: Vec<usize>,
}

impl MapDecl {
    /// Canonical fingerprint for map sharing *across* compiled programs.
    ///
    /// The stored [`MapDecl::canonical`] string is the compiler's
    /// within-query sharing key and is computed at slightly different
    /// stages for result maps, generated maps and base-relation maps
    /// (before / after key renaming, with or without the outer `AggSum`).
    /// The fingerprint instead recomputes the canonical form uniformly
    /// from the *final* declaration — key list plus full definition — so
    /// that alpha-equivalent maps from two independently compiled queries
    /// produce identical strings. It is positional in the keys, so equal
    /// fingerprints also mean equal key layouts; because generated maps
    /// declare their keys in canonical order, two views that reach one
    /// generated map under different key orders still agree. Map contents
    /// are a pure function of the definition over the update stream, so
    /// equal fingerprints mean a shared-store server may materialize the
    /// two maps once.
    pub fn fingerprint(&self) -> String {
        canonical_form(&self.keys, &self.definition)
    }
}

/// How a statement modifies its target map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StatementKind {
    /// `target[keys] += rhs` for every binding of the statement's free
    /// variables (the common, fully-incremental case).
    Update,
    /// Recompute the target map from scratch from its (materialized)
    /// inputs. Only emitted by the legacy re-evaluation strategy for
    /// nested aggregates ([`crate::NestedStrategy::Replace`], the
    /// debug/oracle mode) and by depth-limited compilation of nested
    /// maps; the default hierarchy strategy maintains nested maps with
    /// staged `Update` statements instead.
    Replace,
}

/// When a statement runs within its event, relative to the delta phase.
///
/// Every trigger's statements execute in ascending stage order, and the
/// multi-view server runs each stage across *all* views before the next
/// (a dependency-ordered phase schedule):
///
/// * stage `-1` — **retract** statements of hierarchy-maintained nested
///   maps (`Q -= F(children)`), which must observe every input map at
///   its *pre-event* version;
/// * stage `0` — ordinary **delta** updates (base maps, hierarchy child
///   maps, flat views), which read pre-event state by local statement
///   order;
/// * stage `+1` — **rebuild** statements of hierarchy-maintained maps
///   (`Q += F(children)`) and legacy `Replace` re-evaluations, both of
///   which must observe fully *post-event* inputs.
pub type Stage = i32;

/// Stage of hierarchy retract statements (pre-event reads).
pub const STAGE_RETRACT: Stage = -1;
/// Stage of ordinary delta statements.
pub const STAGE_DELTA: Stage = 0;
/// Stage of hierarchy rebuild and legacy `Replace` statements
/// (post-event reads).
pub const STAGE_REBUILD: Stage = 1;

/// One update statement inside a trigger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Statement {
    /// Target map name.
    pub target: String,
    /// Target key variables (trigger arguments, loop variables, or
    /// variables bound by equality factors in `update`).
    pub target_keys: Vec<Var>,
    /// Right-hand side: a calculus expression over map references, values
    /// and comparisons (no base-relation atoms unless compilation was
    /// depth-limited).
    pub update: CalcExpr,
    pub kind: StatementKind,
    /// Execution stage within the event (see [`Stage`]). Statements of a
    /// trigger are sorted by stage (stable, so within a stage the
    /// compiler's pre-event read ordering is preserved).
    pub stage: Stage,
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.kind {
            StatementKind::Update => "+=",
            StatementKind::Replace => ":=",
        };
        write!(
            f,
            "{}[{}] {} {}",
            self.target,
            self.target_keys.join(", "),
            op,
            self.update
        )?;
        if self.kind == StatementKind::Update && self.stage != STAGE_DELTA {
            let label = if self.stage < 0 { "retract" } else { "rebuild" };
            write!(f, "  <{label}@{}>", self.stage)?;
        }
        Ok(())
    }
}

/// An event handler: all statements to run for an event on one relation,
/// insert or delete.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trigger {
    pub relation: String,
    /// Trigger argument variables: one per column of `relation`, then
    /// the event weight ([`dbtoaster_calculus::WEIGHT`]: `+1` for an
    /// insert, `−1` for a delete).
    pub args: Vec<Var>,
    pub statements: Vec<Statement>,
}

impl Trigger {
    /// Handler name as it would appear in generated code (`on_R`,
    /// `on_BIDS`, ...).
    pub fn handler_name(&self) -> String {
        handler_name(&self.relation)
    }
}

/// Name of the handler for events on `relation`, as generated code and
/// the profilers label it.
pub fn handler_name(relation: &str) -> String {
    format!("on_{relation}")
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}({}):", self.handler_name(), self.args.join(", "))?;
        for s in &self.statements {
            writeln!(f, "  {s}")?;
        }
        Ok(())
    }
}

/// The complete compiled program for one standing query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TriggerProgram {
    /// The SQL text this program was compiled from (when available).
    pub sql: Option<String>,
    /// Every map the runtime must allocate, in dependency-friendly order.
    pub maps: Vec<MapDecl>,
    /// Event handlers, one per stream relation.
    pub triggers: Vec<Trigger>,
    /// Result descriptors (group columns, aggregate columns and the maps
    /// backing them) from the calculus translation.
    pub query: QueryCalc,
    /// The catalog the query was compiled against.
    pub catalog: Catalog,
    /// Maximum recursion depth that was applied (`None` = unbounded, the
    /// full DBToaster behaviour).
    pub max_depth: Option<usize>,
    /// Precomputed map-name → index lookup (hot on registration and
    /// snapshot paths). Derived from `maps`; rebuild with
    /// [`TriggerProgram::rebuild_map_index`] after editing `maps` by hand.
    pub map_index: FxHashMap<String, usize>,
}

impl TriggerProgram {
    /// Recompute the map-name index from `maps`. Called by the compiler;
    /// programs assembled manually (tests, tools) may call it themselves
    /// or rely on the linear fallback in [`TriggerProgram::map`].
    pub fn rebuild_map_index(&mut self) {
        self.map_index = self
            .maps
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name.clone(), i))
            .collect();
    }

    /// Find a map declaration by name.
    pub fn map(&self, name: &str) -> Option<&MapDecl> {
        if self.map_index.len() == self.maps.len() {
            self.map_index.get(name).map(|&i| &self.maps[i])
        } else {
            // Index is stale (program edited without a rebuild): stay
            // correct with a scan.
            self.maps.iter().find(|m| m.name == name)
        }
    }

    /// Find the trigger for events on `relation`.
    pub fn trigger(&self, relation: &str) -> Option<&Trigger> {
        self.triggers.iter().find(|t| t.relation == relation)
    }

    /// Total number of statements across all triggers — the "generated
    /// code size" statistic reported by the profiling experiment (E5).
    pub fn statement_count(&self) -> usize {
        self.triggers.iter().map(|t| t.statements.len()).sum()
    }

    /// Total calculus node count across all statements (a second code
    /// size metric).
    pub fn code_size(&self) -> usize {
        self.triggers
            .iter()
            .flat_map(|t| &t.statements)
            .map(|s| s.update.size())
            .sum()
    }

    /// A human-readable rendering of the whole program, in the style of
    /// the paper's Figure 2 / Section 3 listing.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        out.push_str("-- maps\n");
        for m in &self.maps {
            out.push_str(&format!(
                "map {}[{}] := {}\n",
                m.name,
                m.keys.join(", "),
                m.definition
            ));
        }
        out.push_str("\n-- triggers\n");
        for t in &self.triggers {
            out.push_str(&t.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_calculus::ValExpr;

    #[test]
    fn statement_and_trigger_render_readably() {
        let st = Statement {
            target: "Q".into(),
            target_keys: vec![],
            update: CalcExpr::product(vec![
                CalcExpr::Val(ValExpr::var("r_a")),
                CalcExpr::map_ref("QD", vec!["r_b"]),
            ]),
            kind: StatementKind::Update,
            stage: STAGE_DELTA,
        };
        assert_eq!(st.to_string(), "Q[] += (r_a * QD[r_b])");
        let trig = Trigger {
            relation: "R".into(),
            args: vec!["r_a".into(), "r_b".into(), "w".into()],
            statements: vec![st],
        };
        assert_eq!(trig.handler_name(), "on_R");
        assert!(trig.to_string().contains("on_R(r_a, r_b, w):"));
    }

    #[test]
    fn fingerprints_identify_alpha_equivalent_declarations() {
        let decl = |keys: &[&str], rel_vars: &[&str]| MapDecl {
            name: "X".into(),
            keys: keys.iter().map(|k| k.to_string()).collect(),
            definition: CalcExpr::agg_sum(
                keys.iter().map(|k| k.to_string()).collect(),
                CalcExpr::rel("R", rel_vars.to_vec()),
            ),
            canonical: String::new(),
            is_base_relation: false,
            ordered_keys: Vec::new(),
        };
        // Same structure under different variable names: equal prints.
        assert_eq!(
            decl(&["A"], &["A", "B"]).fingerprint(),
            decl(&["X"], &["X", "Y"]).fingerprint()
        );
        // Different key positions: different prints.
        assert_ne!(
            decl(&["A"], &["A", "B"]).fingerprint(),
            decl(&["B"], &["A", "B"]).fingerprint()
        );
    }

    #[test]
    fn map_lookup_uses_the_index_and_survives_manual_edits() {
        let mk = |name: &str| MapDecl {
            name: name.into(),
            keys: vec![],
            definition: CalcExpr::constant(1),
            canonical: String::new(),
            is_base_relation: false,
            ordered_keys: Vec::new(),
        };
        let mut p = TriggerProgram {
            sql: None,
            maps: vec![mk("Q"), mk("M1_R")],
            triggers: vec![],
            query: QueryCalc {
                group_vars: vec![],
                columns: vec![],
                maps: vec![],
                relations: vec![],
            },
            catalog: Catalog::new(),
            max_depth: None,
            map_index: FxHashMap::default(),
        };
        // Stale (empty) index: the scan fallback still answers.
        assert_eq!(p.map("M1_R").unwrap().name, "M1_R");
        p.rebuild_map_index();
        assert_eq!(p.map_index.len(), 2);
        assert_eq!(p.map("Q").unwrap().name, "Q");
        assert!(p.map("NOPE").is_none());
        // Manual push without rebuild: index length mismatches, fallback
        // keeps the lookup correct.
        p.maps.push(mk("M2_S"));
        assert_eq!(p.map("M2_S").unwrap().name, "M2_S");
    }
}
