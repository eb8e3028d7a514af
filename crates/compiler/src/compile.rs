//! The recursive compilation driver.
//!
//! `compile_sql` / `compile_query` turn one standing query into a
//! [`TriggerProgram`] by the workflow of the paper's Section 3:
//!
//! 1. translate the query into top-level map definitions (calculus),
//! 2. for every map definition and every relation it reads, take the
//!    **delta** of the definition for a weighted event on that relation
//!    (weight `w`: `+1` insert, `−1` delete), **simplify** it with the map
//!    algebra rules, and **materialize** the relation-bearing pieces of
//!    the result as new maps,
//! 3. emit an update statement per delta term into the relation's one
//!    trigger,
//! 4. recursively compile the newly created maps (their definitions have
//!    strictly fewer base-relation atoms, so the recursion terminates),
//!    sharing maps across event handlers via canonical forms.
//!
//! **Nested aggregates** (`Lift` / `Exists` with relation-bearing bodies
//! — correlated and uncorrelated subqueries) are compiled through the
//! **materialization hierarchy** ([`crate::hierarchy`]): every
//! relation-bearing component of the definition, at every nesting depth,
//! is extracted into its own child map keyed by the variables the
//! surrounding expression observes; the children are conjunctive
//! aggregates maintained by ordinary delta triggers, and the nested map
//! itself is maintained by an exact retract/rebuild bracket (stage `-1`:
//! `Q -= F(children)` against pre-event children; stage `0`: the
//! children's deltas; stage `+1`: `Q += F(children)` against post-event
//! children). Per-event cost is therefore proportional to the *active
//! key domain* of the children (e.g. distinct prices in an order book),
//! independent of database size.
//!
//! Two deviations from the fully-incremental path remain available:
//!
//! * **Depth-limited compilation** (`CompileOptions::max_depth`): once the
//!   given number of map levels is reached, residual base-relation atoms
//!   are replaced by references to base-relation multiplicity maps
//!   (`BASE_<REL>`) and left inside the statement, to be evaluated by
//!   iteration at runtime. `max_depth = 1` reproduces classical
//!   first-order incremental view maintenance (the E6 ablation).
//!   Depth-limited nested maps fall back to re-evaluation.
//! * **Nested-aggregate re-evaluation** ([`NestedStrategy::Replace`],
//!   the debug/oracle mode): nested maps are maintained by a `Replace`
//!   statement that recomputes them from base-relation maps on every
//!   relevant event — O(db) per event, O(db²) for correlated subqueries.
//!   The equivalence suite uses it as an independent implementation to
//!   cross-check the hierarchy.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use dbtoaster_calculus::{
    canonical_form, canonical_key_order, delta, to_polynomial, translate_query, CalcExpr,
    QueryCalc, Term, ValExpr, Var,
};
use dbtoaster_common::{Catalog, Error, FxHashMap, Result, Value};
use dbtoaster_sql::{analyze, parse_query, BoundQuery};

use crate::hierarchy::{rewrite_nested_definition, ChildMaterializer};
use crate::program::{
    MapDecl, Statement, StatementKind, Trigger, TriggerProgram, STAGE_DELTA, STAGE_REBUILD,
    STAGE_RETRACT,
};

/// How maps whose definitions contain dynamic nested aggregates
/// (`Lift` / `Exists` over base relations) are maintained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum NestedStrategy {
    /// The materialization hierarchy (default): extract inner aggregates
    /// into delta-maintained child maps and maintain the nested map by a
    /// staged retract/rebuild bracket — no `Replace` statements, per-event
    /// cost independent of database size.
    #[default]
    Hierarchy,
    /// Legacy full re-evaluation from `BASE_*` maps via `Replace`
    /// statements — O(db) per event. Kept as a debug/oracle mode: it is
    /// an independent implementation the equivalence tests cross-check
    /// the hierarchy against.
    Replace,
}

/// Compiler configuration.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CompileOptions {
    /// Maximum number of map levels. `None` (default) recurses until no
    /// base-relation atoms remain — the full DBToaster behaviour.
    /// `Some(1)` materializes only the result maps themselves and
    /// evaluates delta queries against base-relation maps (classical
    /// first-order IVM). Depth-limited compilation maintains nested maps
    /// by re-evaluation regardless of [`CompileOptions::nested`].
    pub max_depth: Option<usize>,
    /// Prefix for generated result map names (default `Q`).
    pub result_prefix: Option<String>,
    /// Maintenance strategy for nested aggregates (default: the
    /// materialization hierarchy).
    pub nested: NestedStrategy,
}

impl CompileOptions {
    /// Full recursive compilation (the default).
    pub fn full() -> CompileOptions {
        CompileOptions::default()
    }

    /// Classical first-order IVM: a single level of maps.
    pub fn first_order() -> CompileOptions {
        CompileOptions {
            max_depth: Some(1),
            ..Default::default()
        }
    }

    /// Limit compilation to `depth` map levels.
    pub fn with_depth(depth: usize) -> CompileOptions {
        CompileOptions {
            max_depth: Some(depth),
            ..Default::default()
        }
    }

    /// Full compilation with the legacy `Replace` strategy for nested
    /// aggregates (the debug/oracle mode).
    pub fn nested_replace() -> CompileOptions {
        CompileOptions {
            nested: NestedStrategy::Replace,
            ..Default::default()
        }
    }
}

/// Compile a SQL string against a catalog.
pub fn compile_sql(
    sql: &str,
    catalog: &Catalog,
    options: &CompileOptions,
) -> Result<TriggerProgram> {
    let parsed = parse_query(sql)?;
    let bound = analyze(&parsed, catalog)?;
    let mut program = compile_query(&bound, catalog, options)?;
    program.sql = Some(sql.to_string());
    Ok(program)
}

/// Compile an analyzed query against a catalog.
pub fn compile_query(
    query: &BoundQuery,
    catalog: &Catalog,
    options: &CompileOptions,
) -> Result<TriggerProgram> {
    let prefix = options
        .result_prefix
        .clone()
        .unwrap_or_else(|| "Q".to_string());
    let qc = translate_query(query, &prefix)?;
    let mut compiler = Compiler {
        catalog: catalog.clone(),
        options: options.clone(),
        maps: Vec::new(),
        by_canonical: FxHashMap::default(),
        triggers: Vec::new(),
        worklist: Vec::new(),
        counter: 0,
    };
    compiler.run(&qc)?;
    let mut program = TriggerProgram {
        sql: None,
        maps: compiler.maps,
        triggers: compiler.triggers,
        query: qc,
        catalog: catalog.clone(),
        max_depth: options.max_depth,
        map_index: FxHashMap::default(),
    };
    program.rebuild_map_index();
    Ok(program)
}

struct Compiler {
    catalog: Catalog,
    options: CompileOptions,
    maps: Vec<MapDecl>,
    /// canonical form -> map name (for sharing).
    by_canonical: FxHashMap<String, String>,
    triggers: Vec<Trigger>,
    /// Maps awaiting trigger generation, with their recursion depth.
    worklist: Vec<(String, usize)>,
    counter: usize,
}

impl Compiler {
    fn run(&mut self, qc: &QueryCalc) -> Result<()> {
        // Register the top-level result maps.
        for spec in &qc.maps {
            let canonical = canonical_form(&spec.keys, &spec.definition);
            self.by_canonical
                .insert(canonical.clone(), spec.name.clone());
            self.maps.push(MapDecl {
                name: spec.name.clone(),
                keys: spec.keys.clone(),
                definition: spec.definition.clone(),
                canonical,
                is_base_relation: false,
                ordered_keys: Vec::new(),
            });
            self.worklist.push((spec.name.clone(), 0));
        }

        while let Some((name, depth)) = self.worklist.pop() {
            self.compile_map(&name, depth)?;
        }

        // Deterministic trigger order: by relation.
        self.triggers.sort_by(|a, b| a.relation.cmp(&b.relation));
        // Within a trigger, statements run in ascending stage order:
        // hierarchy retract statements (which must observe every input
        // pre-event) first, then the delta phase, then hierarchy rebuild
        // and legacy `Replace` statements, both of which must observe
        // fully post-event inputs. Delta statements read pre-event state
        // and only maps of lower degree than their target's, so the delta
        // phase runs higher-degree targets first (stably): every read of a
        // map precedes that map's update.
        let degree: FxHashMap<&str, usize> = self
            .maps
            .iter()
            .map(|m| (m.name.as_str(), m.definition.degree()))
            .collect();
        for t in &mut self.triggers {
            t.statements.sort_by_key(|s| {
                let delta_degree = (s.stage == STAGE_DELTA).then(|| degree[s.target.as_str()]);
                (s.stage, Reverse(delta_degree))
            });
        }
        Ok(())
    }

    fn map_decl(&self, name: &str) -> Result<MapDecl> {
        self.maps
            .iter()
            .find(|m| m.name == name)
            .cloned()
            .ok_or_else(|| Error::Compile(format!("unknown map {name}")))
    }

    fn compile_map(&mut self, name: &str, depth: usize) -> Result<()> {
        let decl = self.map_decl(name)?;
        let relations: Vec<String> = decl.definition.relations().into_iter().collect();
        let nested = decl.definition.contains_dynamic_nested();
        // Dynamic nested aggregates: the materialization hierarchy by
        // default; re-evaluation in the legacy oracle mode and under
        // depth-limited compilation (where the hierarchy's children
        // could not be materialized anyway).
        let use_hierarchy = nested
            && self.options.nested == NestedStrategy::Hierarchy
            && self.options.max_depth.is_none();

        // The retract/rebuild bracket is the same for every relation's
        // trigger; extract the children once.
        let bracket = if use_hierarchy {
            Some(self.hierarchy_brackets(&decl, depth)?)
        } else {
            None
        };

        for rel_name in &relations {
            let schema = self.catalog.expect(rel_name)?.clone();
            let columns: Vec<String> = schema.columns.iter().map(|c| c.name.clone()).collect();
            let args = dbtoaster_calculus::trigger_args(rel_name, &columns);

            let statements = match &bracket {
                Some(pair) => pair.clone(),
                None if nested => {
                    // Legacy re-evaluation strategy.
                    vec![self.replace_statement(&decl, depth)?]
                }
                None => self.delta_statements(&decl, rel_name, &args, depth)?,
            };
            if !statements.is_empty() {
                self.push_statements(rel_name, &args, statements);
            }
        }
        Ok(())
    }

    /// The hierarchy maintenance statements for a nested map: extract
    /// the children and build the retract/rebuild bracket — per addend
    /// of the rewritten definition, one stage `-1` statement subtracting
    /// its pre-event value and one stage `+1` statement adding its
    /// post-event value back.
    fn hierarchy_brackets(&mut self, decl: &MapDecl, depth: usize) -> Result<Vec<Statement>> {
        let mut registrar = HierarchyRegistrar {
            compiler: self,
            depth,
        };
        let addends = rewrite_nested_definition(&decl.definition, &decl.keys, &mut registrar)?;
        let mut statements = Vec::with_capacity(addends.len() * 2);
        for addend in addends {
            statements.push(Statement {
                target: decl.name.clone(),
                target_keys: decl.keys.clone(),
                update: CalcExpr::Neg(Box::new(addend.clone())),
                kind: StatementKind::Update,
                stage: STAGE_RETRACT,
            });
            statements.push(Statement {
                target: decl.name.clone(),
                target_keys: decl.keys.clone(),
                update: addend,
                kind: StatementKind::Update,
                stage: STAGE_REBUILD,
            });
        }
        Ok(statements)
    }

    /// Append a map's statements to the relation's trigger, equal ones
    /// included: a self-join's two equal first-order terms are two updates.
    fn push_statements(&mut self, relation: &str, args: &[Var], statements: Vec<Statement>) {
        match self.triggers.iter_mut().find(|t| t.relation == relation) {
            Some(t) => t.statements.extend(statements),
            None => self.triggers.push(Trigger {
                relation: relation.to_string(),
                args: args.to_vec(),
                statements,
            }),
        }
    }

    /// The fully-incremental path: delta, simplify, materialize.
    fn delta_statements(
        &mut self,
        decl: &MapDecl,
        relation: &str,
        args: &[Var],
        depth: usize,
    ) -> Result<Vec<Statement>> {
        let d = delta(&decl.definition, relation, args);
        if d.is_zero() {
            return Ok(Vec::new());
        }
        let mut protected: BTreeSet<Var> = args.iter().cloned().collect();
        protected.extend(decl.keys.iter().cloned());
        let poly = to_polynomial(&d, &protected);

        let mut statements = Vec::new();
        for term in &poly.terms {
            let update = self.materialize_term(term, &protected, depth)?;
            if update.is_zero() {
                continue;
            }
            statements.push(Statement {
                target: decl.name.clone(),
                target_keys: decl.keys.clone(),
                update,
                kind: StatementKind::Update,
                stage: STAGE_DELTA,
            });
        }
        Ok(statements)
    }

    /// Materialize the relation-bearing factors of one delta term,
    /// returning the statement right-hand side.
    fn materialize_term(
        &mut self,
        term: &Term,
        protected: &BTreeSet<Var>,
        depth: usize,
    ) -> Result<CalcExpr> {
        let mut factors = Vec::new();
        if term.coeff != Value::ONE {
            factors.push(CalcExpr::Val(ValExpr::Const(term.coeff.clone())));
        }
        let depth_exceeded = match self.options.max_depth {
            Some(limit) => depth + 1 >= limit.max(1),
            None => false,
        };
        for factor in &term.factors {
            if !factor.has_relations() {
                factors.push(factor.clone());
                continue;
            }
            if depth_exceeded {
                // Leave the factor in the statement, reading base-relation
                // multiplicity maps instead of relations.
                factors.push(self.replace_relations_with_base_maps(factor)?);
                continue;
            }
            factors.push(self.materialize_factor(factor, protected, depth)?);
        }
        Ok(CalcExpr::product(factors))
    }

    /// Replace one relation-bearing factor by a reference to a (possibly
    /// newly created, possibly shared) map.
    fn materialize_factor(
        &mut self,
        factor: &CalcExpr,
        protected: &BTreeSet<Var>,
        depth: usize,
    ) -> Result<CalcExpr> {
        // The map's keys are exactly the variables of the factor that are
        // bound by the enclosing statement context (trigger arguments,
        // target-map keys — including statement-level loop variables such
        // as the `foreach c` of the paper's example); everything else is
        // aggregated away inside the map. `materialize_named` orders them.
        let keys: Vec<Var> = factor.all_vars().intersection(protected).cloned().collect();
        let inner = match factor {
            CalcExpr::AggSum { body, .. } => (**body).clone(),
            other => other.clone(),
        };
        self.materialize_named(keys, inner, depth)
    }

    /// Register `AggSum(keys, inner)` as a named map (shared by canonical
    /// form when an alpha-equivalent map already exists) and return the
    /// `MapRef` replacing it. Shared by the delta path's factor
    /// materializer and the hierarchy's child extraction, so a hierarchy
    /// child and a delta-materialized sub-aggregate with the same
    /// structure resolve to one map.
    ///
    /// The caller's key order is not kept: keys are put in canonical order
    /// first, so the same map requested under any permutation of its keys
    /// is registered once. The returned `MapRef` (and a new map's declared
    /// keys) carry that order, so readers and writers agree on positions.
    fn materialize_named(
        &mut self,
        keys: Vec<Var>,
        inner: CalcExpr,
        depth: usize,
    ) -> Result<CalcExpr> {
        // Depth-limited compilation keeps `BASE_<REL>` maps anyway; a full
        // copy of one relation is that map, not a second one.
        if let (Some(_), CalcExpr::Rel { name, vars }) = (self.options.max_depth, &inner) {
            let columns: BTreeSet<&Var> = vars.iter().collect();
            if columns.len() == vars.len() && keys.iter().collect::<BTreeSet<_>>() == columns {
                return Ok(CalcExpr::MapRef {
                    name: self.ensure_base_map(name)?,
                    keys: vars.clone(),
                });
            }
        }
        let keys = canonical_key_order(&keys, &inner);
        let canonical = canonical_form(&keys, &inner);
        if let Some(existing) = self.by_canonical.get(&canonical) {
            return Ok(CalcExpr::MapRef {
                name: existing.clone(),
                keys,
            });
        }

        // New map: give it canonical internal key names so that its own
        // trigger arguments can never collide with its key variables.
        self.counter += 1;
        let rel_hint: Vec<String> = inner.relations().into_iter().collect();
        let name = format!("M{}_{}", self.counter, rel_hint.join("_"));
        let decl_keys: Vec<Var> = (0..keys.len()).map(|i| format!("{name}_K{i}")).collect();
        let renaming: FxHashMap<Var, Var> = keys
            .iter()
            .cloned()
            .zip(decl_keys.iter().cloned())
            .collect();
        let renamed_body = inner.rename(&|v| renaming.get(v).cloned());
        let definition = CalcExpr::agg_sum(decl_keys.clone(), renamed_body);

        self.by_canonical.insert(canonical.clone(), name.clone());
        self.maps.push(MapDecl {
            name: name.clone(),
            keys: decl_keys,
            definition,
            canonical,
            is_base_relation: false,
            ordered_keys: Vec::new(),
        });
        self.worklist.push((name.clone(), depth + 1));
        Ok(CalcExpr::MapRef { name, keys })
    }

    /// A `Replace` statement recomputing a nested-aggregate map from
    /// base-relation maps.
    fn replace_statement(&mut self, decl: &MapDecl, _depth: usize) -> Result<Statement> {
        let update = self.replace_relations_with_base_maps(&decl.definition)?;
        Ok(Statement {
            target: decl.name.clone(),
            target_keys: decl.keys.clone(),
            update,
            kind: StatementKind::Replace,
            stage: STAGE_REBUILD,
        })
    }

    /// Rewrite every base-relation atom into a reference to the
    /// corresponding `BASE_<REL>` multiplicity map, registering (and
    /// scheduling maintenance of) those maps as needed.
    fn replace_relations_with_base_maps(&mut self, expr: &CalcExpr) -> Result<CalcExpr> {
        Ok(match expr {
            CalcExpr::Rel { name, vars } => {
                let map_name = self.ensure_base_map(name)?;
                CalcExpr::MapRef {
                    name: map_name,
                    keys: vars.clone(),
                }
            }
            CalcExpr::Val(_) | CalcExpr::Cmp { .. } | CalcExpr::MapRef { .. } => expr.clone(),
            CalcExpr::Prod(es) => CalcExpr::Prod(
                es.iter()
                    .map(|e| self.replace_relations_with_base_maps(e))
                    .collect::<Result<Vec<_>>>()?,
            ),
            CalcExpr::Sum(es) => CalcExpr::Sum(
                es.iter()
                    .map(|e| self.replace_relations_with_base_maps(e))
                    .collect::<Result<Vec<_>>>()?,
            ),
            CalcExpr::Neg(e) => CalcExpr::Neg(Box::new(self.replace_relations_with_base_maps(e)?)),
            CalcExpr::AggSum { group, body } => CalcExpr::AggSum {
                group: group.clone(),
                body: Box::new(self.replace_relations_with_base_maps(body)?),
            },
            CalcExpr::Lift { var, body } => CalcExpr::Lift {
                var: var.clone(),
                body: Box::new(self.replace_relations_with_base_maps(body)?),
            },
            CalcExpr::Exists(e) => {
                CalcExpr::Exists(Box::new(self.replace_relations_with_base_maps(e)?))
            }
        })
    }

    /// Register the `BASE_<REL>` multiplicity map for a relation and
    /// schedule its (trivial) maintenance triggers.
    fn ensure_base_map(&mut self, relation: &str) -> Result<String> {
        let name = format!("BASE_{relation}");
        if self.maps.iter().any(|m| m.name == name) {
            return Ok(name);
        }
        let schema = self.catalog.expect(relation)?.clone();
        let keys: Vec<Var> = schema
            .columns
            .iter()
            .map(|c| format!("{name}_{}", c.name))
            .collect();
        let definition = CalcExpr::agg_sum(
            keys.clone(),
            CalcExpr::Rel {
                name: relation.to_string(),
                vars: keys.clone(),
            },
        );
        let canonical = canonical_form(&keys, &definition);
        self.maps.push(MapDecl {
            name: name.clone(),
            keys,
            definition,
            canonical,
            is_base_relation: true,
            ordered_keys: Vec::new(),
        });
        // Base maps are maintained by the ordinary delta path (their delta
        // is simply the weight `w` at the event's key).
        self.worklist.push((name.clone(), 0));
        Ok(name)
    }
}

/// The hierarchy extraction's window into the compiler's map registry:
/// children are materialized with the same canonical-form sharing (and
/// worklist scheduling) as delta-path sub-aggregates.
struct HierarchyRegistrar<'a> {
    compiler: &'a mut Compiler,
    depth: usize,
}

impl ChildMaterializer for HierarchyRegistrar<'_> {
    fn materialize_child(&mut self, keys: Vec<Var>, body: CalcExpr) -> Result<CalcExpr> {
        self.compiler.materialize_named(keys, body, self.depth)
    }

    fn request_ordered_index(&mut self, map: &str, key_position: usize) {
        // Positional, so it survives `materialize_named`'s key renaming;
        // on a canonically-shared child the request unions with whatever
        // earlier views asked for.
        if let Some(decl) = self.compiler.maps.iter_mut().find(|m| m.name == map) {
            if key_position < decl.keys.len() && !decl.ordered_keys.contains(&key_position) {
                decl.ordered_keys.push(key_position);
                decl.ordered_keys.sort_unstable();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_common::{ColumnType, Schema};

    fn rst_catalog() -> Catalog {
        Catalog::new()
            .with(Schema::new(
                "R",
                vec![("A", ColumnType::Int), ("B", ColumnType::Int)],
            ))
            .with(Schema::new(
                "S",
                vec![("B", ColumnType::Int), ("C", ColumnType::Int)],
            ))
            .with(Schema::new(
                "T",
                vec![("C", ColumnType::Int), ("D", ColumnType::Int)],
            ))
    }

    const RST: &str = "select sum(A*D) from R, S, T where R.B=S.B and S.C=T.C";

    #[test]
    fn figure2_full_compilation_produces_three_triggers_and_auxiliary_maps() {
        let p = compile_sql(RST, &rst_catalog(), &CompileOptions::full()).unwrap();
        // One weighted trigger per relation.
        assert_eq!(p.triggers.len(), 3);
        // Figure 2 materializes q plus qD[b], qA[b], qD[c], qA[c], q1[b,c]
        // — with sharing, 6 maps in total (no base-relation copies).
        assert_eq!(p.maps.len(), 6, "{}", p.pretty());
        assert!(p.maps.iter().all(|m| !m.is_base_relation));
        // No statement references a base relation atom: scans are gone.
        for t in &p.triggers {
            for s in &t.statements {
                assert!(!s.update.has_relations(), "residual scan in {s}");
                assert_eq!(s.kind, StatementKind::Update);
            }
        }
        // The R handler updates q via a single map lookup
        // (q += w * a * qD[b]) plus maintenance of the auxiliary maps.
        let on_r = p.trigger("R").unwrap();
        assert!(on_r.statements.iter().any(|s| s.target == "Q"));
        assert!(on_r.statements.len() >= 2);
    }

    #[test]
    fn figure2_shares_maps_across_handlers() {
        let p = compile_sql(RST, &rst_catalog(), &CompileOptions::full()).unwrap();
        // The S-insert handler must reference the same maps maintained by
        // the R/T handlers (qA[b], qD[c]) rather than private copies: the
        // q1[b,c] count map is referenced from both the R and T handlers.
        let q1 = p
            .maps
            .iter()
            .find(|m| m.definition.relations().len() == 1 && m.keys.len() == 2)
            .expect("expected the q1[b,c] count map");
        let referenced_by: Vec<String> = p
            .triggers
            .iter()
            .filter(|t| {
                t.statements
                    .iter()
                    .any(|s| s.update.map_refs().contains(&q1.name))
            })
            .map(|t| t.handler_name())
            .collect();
        assert!(
            referenced_by.iter().any(|h| h.ends_with("_R")),
            "{referenced_by:?}"
        );
        assert!(
            referenced_by.iter().any(|h| h.ends_with("_T")),
            "{referenced_by:?}"
        );
    }

    #[test]
    fn first_order_compilation_keeps_base_relation_maps_only() {
        let p = compile_sql(RST, &rst_catalog(), &CompileOptions::first_order()).unwrap();
        // Result map + one BASE_ map per relation, nothing else.
        let base: Vec<_> = p.maps.iter().filter(|m| m.is_base_relation).collect();
        assert_eq!(base.len(), 3, "{}", p.pretty());
        assert_eq!(p.maps.len(), 4);
        // Statements for Q still contain aggregations (to be evaluated by
        // iterating base maps): that is exactly classical IVM.
        let on_r = p.trigger("R").unwrap();
        let q_stmt = on_r.statements.iter().find(|s| s.target == "Q").unwrap();
        assert!(!q_stmt.update.map_refs().is_empty());
        assert!(!q_stmt.update.has_relations());
    }

    #[test]
    fn group_by_query_compiles_with_group_keys() {
        let cat = rst_catalog();
        let p = compile_sql(
            "select B, sum(A) from R group by B",
            &cat,
            &CompileOptions::full(),
        )
        .unwrap();
        assert_eq!(p.maps[0].keys.len(), 1);
        let on_r = p.trigger("R").unwrap();
        assert_eq!(on_r.statements.len(), 1);
        assert_eq!(on_r.statements[0].target_keys.len(), 1);
    }

    fn bids_catalog() -> Catalog {
        Catalog::new().with(Schema::new(
            "BIDS",
            vec![
                ("T", ColumnType::Float),
                ("ID", ColumnType::Int),
                ("BROKER_ID", ColumnType::Int),
                ("VOLUME", ColumnType::Float),
                ("PRICE", ColumnType::Float),
            ],
        ))
    }

    const NESTED_VWAP: &str = "select sum(b1.PRICE * b1.VOLUME) from BIDS b1 \
             where 0.25 * (select sum(b3.VOLUME) from BIDS b3) > \
                   (select sum(b2.VOLUME) from BIDS b2 where b2.PRICE > b1.PRICE)";

    #[test]
    fn nested_aggregates_compile_to_a_hierarchy_without_replace() {
        let p = compile_sql(NESTED_VWAP, &bids_catalog(), &CompileOptions::full()).unwrap();
        // No re-evaluation anywhere: every statement is an incremental
        // update, and no base-relation multiplicity maps are needed.
        for t in &p.triggers {
            for s in &t.statements {
                assert_eq!(s.kind, StatementKind::Update, "{s}");
                assert!(!s.update.has_relations(), "residual scan in {s}");
            }
        }
        assert!(p.maps.iter().all(|m| !m.is_base_relation), "{}", p.pretty());
        // The nested result map is maintained by a retract/rebuild
        // bracket around the children's delta phase.
        let on_ins = p.trigger("BIDS").unwrap();
        let stages: Vec<i32> = on_ins.statements.iter().map(|s| s.stage).collect();
        assert!(stages.contains(&STAGE_RETRACT), "{stages:?}");
        assert!(stages.contains(&STAGE_DELTA), "{stages:?}");
        assert!(stages.contains(&STAGE_REBUILD), "{stages:?}");
        assert!(
            stages.windows(2).all(|w| w[0] <= w[1]),
            "statements must be stage-ordered: {stages:?}"
        );
        // Children: the total-volume scalar, the volume-by-price map for
        // the correlated subquery, and the price*volume-by-price outer
        // component — all maintained at stage 0 on the same trigger.
        assert!(p.maps.len() >= 4, "{}", p.pretty());
        let child_targets: BTreeSet<&str> = on_ins
            .statements
            .iter()
            .filter(|s| s.stage == STAGE_DELTA)
            .map(|s| s.target.as_str())
            .collect();
        assert!(child_targets.len() >= 3, "{}", p.pretty());
    }

    #[test]
    fn nested_replace_mode_still_reevaluates_from_base_maps() {
        let p = compile_sql(
            NESTED_VWAP,
            &bids_catalog(),
            &CompileOptions::nested_replace(),
        )
        .unwrap();
        assert!(p.maps.iter().any(|m| m.is_base_relation));
        let on_ins = p.trigger("BIDS").unwrap();
        assert!(on_ins
            .statements
            .iter()
            .any(|s| s.kind == StatementKind::Replace && s.stage == STAGE_REBUILD));
        // The base-relation map itself is maintained incrementally, and
        // the stage sort keeps re-evaluation after it.
        assert!(on_ins
            .statements
            .iter()
            .any(|s| s.kind == StatementKind::Update && s.target.starts_with("BASE_")));
        let last = on_ins.statements.last().unwrap();
        assert_eq!(last.kind, StatementKind::Replace);
    }

    #[test]
    fn depth_limited_nested_maps_fall_back_to_replace() {
        let p = compile_sql(NESTED_VWAP, &bids_catalog(), &CompileOptions::first_order()).unwrap();
        assert!(p
            .triggers
            .iter()
            .flat_map(|t| &t.statements)
            .any(|s| s.kind == StatementKind::Replace));
    }

    #[test]
    fn hierarchy_children_are_shared_across_nested_views_by_fingerprint() {
        // Two nested views differing only in the quantile constant must
        // produce alpha-equivalent children (the constant lives in the
        // outer comparison, not in any child definition).
        let cat = bids_catalog();
        let q50 = NESTED_VWAP.replace("0.25", "0.5");
        let a = compile_sql(NESTED_VWAP, &cat, &CompileOptions::full()).unwrap();
        let b = compile_sql(&q50, &cat, &CompileOptions::full()).unwrap();
        let children = |p: &TriggerProgram| -> BTreeSet<String> {
            p.maps
                .iter()
                .filter(|m| m.name != "Q")
                .map(|m| m.fingerprint())
                .collect()
        };
        assert_eq!(children(&a), children(&b), "children must share");
        assert!(!children(&a).is_empty());
    }

    #[test]
    fn statement_and_code_size_metrics_are_positive() {
        let p = compile_sql(RST, &rst_catalog(), &CompileOptions::full()).unwrap();
        assert!(p.statement_count() >= 8);
        assert!(p.code_size() > p.statement_count());
        assert!(p.pretty().contains("on_R(r_a, r_b, w):"));
    }

    #[test]
    fn recursion_depth_monotonically_reduces_map_count() {
        let cat = rst_catalog();
        let full = compile_sql(RST, &cat, &CompileOptions::full()).unwrap();
        let d2 = compile_sql(RST, &cat, &CompileOptions::with_depth(2)).unwrap();
        let d1 = compile_sql(RST, &cat, &CompileOptions::first_order()).unwrap();
        let non_base = |p: &TriggerProgram| p.maps.iter().filter(|m| !m.is_base_relation).count();
        assert!(non_base(&d1) <= non_base(&d2));
        assert!(non_base(&d2) <= non_base(&full));
    }

    #[test]
    fn unknown_relations_are_rejected() {
        let err = compile_sql(
            "select sum(X) from NOPE",
            &rst_catalog(),
            &CompileOptions::full(),
        );
        assert!(err.is_err());
    }
}
