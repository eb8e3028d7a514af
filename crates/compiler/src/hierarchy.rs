//! The materialization hierarchy for nested aggregates.
//!
//! A map definition containing *dynamic* nested constructs — `Lift` /
//! `Exists` factors whose bodies mention base relations — cannot be
//! maintained by the plain delta transformation: the inner aggregate's
//! value changes with the stream, so `Δ Lift = 0` does not hold, and a
//! first-order delta of the outer expression would silently treat the
//! subquery as a constant. The seed reproduction fell back to full
//! re-evaluation (`Replace`) over `BASE_*` maps, which costs O(db) (and,
//! for correlated subqueries, O(db²)) per event.
//!
//! This module implements the higher-order alternative of the VLDB 2012
//! follow-up paper (*Higher-order Delta Processing for Dynamic,
//! Frequently Fresh Views*): every relation-bearing component of the
//! definition — the outer join graph and each component inside every
//! `Lift`/`Exists` body, however deeply nested — is **extracted into its
//! own child map**, keyed by exactly the variables the surrounding
//! expression observes (correlation parameters, group keys, comparison
//! operands). The children are ordinary conjunctive aggregates, so the
//! recursive compiler maintains them with fully-incremental delta
//! triggers; the rewritten outer definition reads *only* child maps, so
//! re-establishing the outer value per event costs O(active key domain
//! of the children) — the distinct correlation values — independent of
//! the database size.
//!
//! The outer map itself is maintained by an exact **retract/rebuild
//! bracket** around the children's delta phase:
//!
//! ```text
//! stage -1 (retract):  Q[keys] -= F(children)     -- children pre-event
//! stage  0 (delta):    children absorb the event  -- ordinary deltas
//! stage +1 (rebuild):  Q[keys] += F(children)     -- children post-event
//! ```
//!
//! where `F` is the rewritten (relation-free) definition. The bracket is
//! an identity on the maintained invariant `Q = F(children)`: whatever
//! the event does to the children, subtracting the old value and adding
//! the new one leaves the target exact — including deletions, group
//! vanishing, and sign flips of `Exists`. Statement stages are honored
//! by the single-view engine (statements sorted by stage within each
//! trigger) and by the multi-view server (each stage runs across *all*
//! views before the next, so shared child maps are read pre-event by
//! every retract and post-event by every rebuild).

use std::collections::BTreeSet;

use dbtoaster_calculus::{to_polynomial, CalcExpr, CmpOp, Term, ValExpr, Var};
use dbtoaster_common::Result;

/// Callback through which the extraction registers child maps. The
/// compiler implements this with its canonical-form sharing registry, so
/// alpha-equivalent children deduplicate within a program (and, via
/// `MapDecl::fingerprint`, across views in the shared store).
pub trait ChildMaterializer {
    /// Materialize `AggSum(keys, body)` as a (possibly shared) map and
    /// return the `CalcExpr::MapRef` replacing it.
    fn materialize_child(&mut self, keys: Vec<Var>, body: CalcExpr) -> Result<CalcExpr>;

    /// Request an ordered/cumulative index on key position `key_position`
    /// of child map `map`: a surviving comparison ranges over that key
    /// (the `b2.PRICE > b1.PRICE` shape), so the runtime should answer
    /// inequality-sliced sums over it as O(log P) prefix queries instead
    /// of full-domain scans. Positional (robust to key renaming) and
    /// purely an access-path hint. Default: ignore.
    fn request_ordered_index(&mut self, _map: &str, _key_position: usize) {}
}

/// Rewrite a nested map definition `AggSum(keys, body)` into equivalent
/// relation-free addends over child maps (one addend per top-level
/// polynomial term; the caller emits one retract and one rebuild
/// statement per addend).
pub fn rewrite_nested_definition(
    definition: &CalcExpr,
    keys: &[Var],
    m: &mut impl ChildMaterializer,
) -> Result<Vec<CalcExpr>> {
    let external: BTreeSet<Var> = keys.iter().cloned().collect();
    let poly = to_polynomial(definition, &external);
    let mut addends = Vec::with_capacity(poly.terms.len());
    for term in &poly.terms {
        addends.push(rewrite_term(term, &external, m)?);
    }
    Ok(addends)
}

/// Rewrite one expression (an `AggSum` body, a `Lift`/`Exists` body) into
/// a relation-free equivalent, materializing children as needed.
fn rewrite_expr(
    expr: &CalcExpr,
    external: &BTreeSet<Var>,
    m: &mut impl ChildMaterializer,
) -> Result<CalcExpr> {
    let poly = to_polynomial(expr, external);
    let mut terms = Vec::with_capacity(poly.terms.len());
    for term in &poly.terms {
        terms.push(rewrite_term(term, external, m)?);
    }
    Ok(CalcExpr::sum(terms))
}

/// Rewrite one product term: recurse into nested structures, then
/// materialize every connected component of base-relation atoms as a
/// child map keyed by the variables the rest of the term (or the
/// enclosing scope) observes.
fn rewrite_term(
    term: &Term,
    external: &BTreeSet<Var>,
    m: &mut impl ChildMaterializer,
) -> Result<CalcExpr> {
    // Variable sets per factor, for sibling-visibility computations.
    let factor_vars: Vec<BTreeSet<Var>> = term.factors.iter().map(|f| f.all_vars()).collect();
    let siblings_of = |i: usize| -> BTreeSet<Var> {
        let mut s = external.clone();
        for (j, vars) in factor_vars.iter().enumerate() {
            if j != i {
                s.extend(vars.iter().cloned());
            }
        }
        s
    };

    // Pass 1: recurse into nested structures; collect base-relation atoms
    // separately (they become child-map components).
    let mut atoms: Vec<CalcExpr> = Vec::new();
    let mut others: Vec<CalcExpr> = Vec::new();
    for (i, factor) in term.factors.iter().enumerate() {
        match factor {
            CalcExpr::Rel { .. } => atoms.push(factor.clone()),
            CalcExpr::Lift { var, body } if body.has_relations() => {
                others.push(CalcExpr::Lift {
                    var: var.clone(),
                    body: Box::new(rewrite_expr(body, &siblings_of(i), m)?),
                });
            }
            CalcExpr::Exists(body) if body.has_relations() => {
                others.push(CalcExpr::Exists(Box::new(rewrite_expr(
                    body,
                    &siblings_of(i),
                    m,
                )?)));
            }
            CalcExpr::AggSum { group, body } if body.has_relations() => {
                let mut inner_external = siblings_of(i);
                inner_external.extend(group.iter().cloned());
                others.push(CalcExpr::AggSum {
                    group: group.clone(),
                    body: Box::new(rewrite_expr(body, &inner_external, m)?),
                });
            }
            CalcExpr::Neg(inner) if inner.has_relations() => {
                // Signs are folded into coefficients by the polynomial
                // normal form; a relation-bearing Neg cannot survive it.
                unreachable!("negation not normalized: {inner}");
            }
            other => others.push(other.clone()),
        }
    }

    if atoms.is_empty() {
        // Already relation-free at this level (every relation lives
        // inside a rewritten nested structure).
        let mut factors = coefficient_factor(term);
        factors.extend(others);
        return Ok(CalcExpr::product(factors));
    }

    // Pass 2: group the atoms into connected components (shared
    // variables = join edges; two atoms joined through a variable must be
    // materialized together or the join would be lost).
    let components = connected_atoms(atoms);

    // Pass 3: absorb Val/Cmp factors whose variables are entirely bound
    // by one component — they contribute inside the child's aggregation
    // (e.g. the `price * volume` value factors of a sum).
    let mut absorbed: Vec<Vec<CalcExpr>> = vec![Vec::new(); components.len()];
    let mut remaining: Vec<CalcExpr> = Vec::new();
    let component_bound: Vec<BTreeSet<Var>> = components
        .iter()
        .map(|c| c.iter().flat_map(|a| a.bound_vars()).collect())
        .collect();
    for factor in others {
        let absorbable = matches!(factor, CalcExpr::Val(_) | CalcExpr::Cmp { .. });
        let vars = factor.all_vars();
        match component_bound
            .iter()
            .position(|bound| absorbable && !vars.is_empty() && vars.is_subset(bound))
        {
            Some(c) => absorbed[c].push(factor),
            None => remaining.push(factor),
        }
    }

    // Pass 4: materialize each component as a child map. Its keys are the
    // variables it binds that the rest of the expression observes: the
    // enclosing scope's variables (map keys, group variables, correlation
    // parameters) and anything referenced by the non-absorbed factors.
    let mut observed: BTreeSet<Var> = external.clone();
    for f in &remaining {
        observed.extend(f.all_vars());
    }
    let mut factors = coefficient_factor(term);
    let mut children: Vec<(String, Vec<Var>)> = Vec::new();
    for (component, extra) in components.into_iter().zip(absorbed) {
        let body = CalcExpr::product(component.into_iter().chain(extra).collect());
        let keys: Vec<Var> = body.bound_vars().intersection(&observed).cloned().collect();
        let child = m.materialize_child(keys, body)?;
        if let CalcExpr::MapRef { name, keys } = &child {
            children.push((name.clone(), keys.clone()));
        }
        factors.push(child);
    }

    // A child key that a *surviving* comparison ranges over (an
    // inequality left outside every child — e.g. the correlated
    // `[P2 > P1]`) will be probed with inequality-sliced reads by the
    // retract/rebuild bracket; request an ordered index on it so those
    // reads lower to O(log P) prefix queries. Comparisons nested inside
    // already-rewritten Lift/Exists/AggSum factors count too: their
    // correlation parameter is a key of a child at *this* level.
    let mut ranged: Vec<Var> = Vec::new();
    for f in &remaining {
        collect_inequality_operands(f, &mut ranged);
    }
    for v in &ranged {
        for (name, keys) in &children {
            if let Some(pos) = keys.iter().position(|k| k == v) {
                m.request_ordered_index(name, pos);
            }
        }
    }
    factors.extend(remaining);
    Ok(CalcExpr::product(factors))
}

/// Collect every variable appearing as a direct operand of an inequality
/// comparison anywhere in the expression (including inside nested
/// `Lift`/`Exists`/`AggSum` bodies). Equality comparisons are excluded:
/// they are answered by hash slices, not ordered indexes.
fn collect_inequality_operands(expr: &CalcExpr, out: &mut Vec<Var>) {
    match expr {
        CalcExpr::Cmp { op, left, right } => {
            if matches!(op, CmpOp::Lt | CmpOp::LtEq | CmpOp::Gt | CmpOp::GtEq) {
                for side in [left, right] {
                    if let ValExpr::Var(v) = side {
                        if !out.contains(v) {
                            out.push(v.clone());
                        }
                    }
                }
            }
        }
        CalcExpr::Prod(es) | CalcExpr::Sum(es) => {
            for e in es {
                collect_inequality_operands(e, out);
            }
        }
        CalcExpr::Neg(e) | CalcExpr::Exists(e) => collect_inequality_operands(e, out),
        CalcExpr::AggSum { body, .. } | CalcExpr::Lift { body, .. } => {
            collect_inequality_operands(body, out);
        }
        CalcExpr::Val(_) | CalcExpr::Rel { .. } | CalcExpr::MapRef { .. } => {}
    }
}

/// The term's numeric coefficient as a leading factor list.
fn coefficient_factor(term: &Term) -> Vec<CalcExpr> {
    if term.coeff == dbtoaster_common::Value::ONE {
        Vec::new()
    } else {
        vec![CalcExpr::constant(term.coeff.clone())]
    }
}

/// Partition relation atoms into connected components, where two atoms
/// are connected when they share any variable (a join edge — including
/// joins through correlation variables, which conservatively co-locates
/// the atoms in one child).
fn connected_atoms(atoms: Vec<CalcExpr>) -> Vec<Vec<CalcExpr>> {
    let n = atoms.len();
    let var_sets: Vec<BTreeSet<Var>> = atoms.iter().map(|a| a.all_vars()).collect();
    let mut parent: Vec<usize> = (0..n).collect();

    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }

    for i in 0..n {
        for j in (i + 1)..n {
            if !var_sets[i].is_disjoint(&var_sets[j]) {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[rj] = ri;
                }
            }
        }
    }

    let mut groups: Vec<(usize, Vec<CalcExpr>)> = Vec::new();
    for (i, atom) in atoms.into_iter().enumerate() {
        let root = find(&mut parent, i);
        match groups.iter_mut().find(|(r, _)| *r == root) {
            Some((_, g)) => g.push(atom),
            None => groups.push((root, vec![atom])),
        }
    }
    groups.into_iter().map(|(_, g)| g).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_calculus::ValExpr;
    use dbtoaster_common::FxHashMap;

    /// A test materializer that names children M1, M2, ... and records
    /// their definitions, sharing by (keys, body) equality.
    #[derive(Default)]
    struct Recorder {
        children: Vec<(String, Vec<Var>, CalcExpr)>,
        by_def: FxHashMap<String, String>,
        ordered_requests: Vec<(String, usize)>,
    }

    impl ChildMaterializer for Recorder {
        fn materialize_child(&mut self, keys: Vec<Var>, body: CalcExpr) -> Result<CalcExpr> {
            let print = format!("{} | {body}", keys.join(","));
            let name = match self.by_def.get(&print) {
                Some(name) => name.clone(),
                None => {
                    let name = format!("H{}", self.children.len() + 1);
                    self.by_def.insert(print, name.clone());
                    self.children
                        .push((name.clone(), keys.clone(), body.clone()));
                    name
                }
            };
            Ok(CalcExpr::MapRef { name, keys })
        }

        fn request_ordered_index(&mut self, map: &str, key_position: usize) {
            let request = (map.to_string(), key_position);
            if !self.ordered_requests.contains(&request) {
                self.ordered_requests.push(request);
            }
        }
    }

    fn bids(vars: [&str; 3]) -> CalcExpr {
        CalcExpr::rel("BIDS", vars.to_vec())
    }

    /// sum(P1*V1) from BIDS b1 where (select sum(V2) from BIDS b2 where
    /// P2 > P1) < 10 — the correlated-subquery shape.
    #[test]
    fn correlated_subquery_extracts_domain_compressed_children() {
        let inner = CalcExpr::agg_sum(
            vec![],
            CalcExpr::product(vec![
                bids(["T2", "V2", "P2"]),
                CalcExpr::Cmp {
                    op: dbtoaster_calculus::CmpOp::Gt,
                    left: ValExpr::var("P2"),
                    right: ValExpr::var("P1"),
                },
                CalcExpr::Val(ValExpr::var("V2")),
            ]),
        );
        let def = CalcExpr::agg_sum(
            vec![],
            CalcExpr::product(vec![
                bids(["T1", "V1", "P1"]),
                CalcExpr::Lift {
                    var: "n".into(),
                    body: Box::new(inner),
                },
                CalcExpr::Cmp {
                    op: dbtoaster_calculus::CmpOp::Lt,
                    left: ValExpr::var("n"),
                    right: ValExpr::Const(dbtoaster_common::Value::Int(10)),
                },
                CalcExpr::Val(ValExpr::var("P1")),
                CalcExpr::Val(ValExpr::var("V1")),
            ]),
        );
        let mut rec = Recorder::default();
        let addends = rewrite_nested_definition(&def, &[], &mut rec).unwrap();
        assert_eq!(addends.len(), 1);
        let rewritten = &addends[0];
        assert!(
            !rewritten.has_relations(),
            "relations must be fully extracted: {rewritten}"
        );
        // Two children: the outer component keyed by the correlation
        // variable P1, and the inner component keyed by P2 (the
        // comparison operand left outside).
        assert_eq!(rec.children.len(), 2, "{:#?}", rec.children);
        let keyed: Vec<&Vec<Var>> = rec.children.iter().map(|(_, k, _)| k).collect();
        assert!(keyed.contains(&&vec!["P1".to_string()]), "{keyed:?}");
        assert!(keyed.contains(&&vec!["P2".to_string()]), "{keyed:?}");
        // The correlated comparison survives outside the children.
        let s = rewritten.to_string();
        assert!(s.contains("[P2 > P1]"), "{s}");
        // Both sides of `[P2 > P1]` are ranged-over child keys: the
        // inner child's P2 (probed per outer price) and the outer
        // child's P1 (the monotone-guard fast path binary-searches it) —
        // each gets an ordered-index request on its key position.
        let mut requests: Vec<(String, usize)> = rec
            .ordered_requests
            .iter()
            .map(|(name, pos)| {
                let keys = &rec.children.iter().find(|(n, _, _)| n == name).unwrap().1;
                (keys[*pos].clone(), *pos)
            })
            .collect();
        requests.sort();
        assert_eq!(
            requests,
            vec![("P1".to_string(), 0), ("P2".to_string(), 0)],
            "{:?}",
            rec.ordered_requests
        );
    }

    /// An uncorrelated scalar subquery becomes a 0-ary child.
    #[test]
    fn uncorrelated_subquery_becomes_scalar_child() {
        let inner = CalcExpr::agg_sum(
            vec![],
            CalcExpr::product(vec![
                bids(["T2", "V2", "P2"]),
                CalcExpr::Val(ValExpr::var("V2")),
            ]),
        );
        let def = CalcExpr::agg_sum(
            vec![],
            CalcExpr::product(vec![
                bids(["T1", "V1", "P1"]),
                CalcExpr::Lift {
                    var: "total".into(),
                    body: Box::new(inner),
                },
                CalcExpr::Cmp {
                    op: dbtoaster_calculus::CmpOp::Gt,
                    left: ValExpr::var("P1"),
                    right: ValExpr::var("total"),
                },
                CalcExpr::Val(ValExpr::var("V1")),
            ]),
        );
        let mut rec = Recorder::default();
        let addends = rewrite_nested_definition(&def, &[], &mut rec).unwrap();
        assert!(addends.iter().all(|a| !a.has_relations()));
        assert!(
            rec.children.iter().any(|(_, k, _)| k.is_empty()),
            "uncorrelated inner aggregate should be scalar: {:#?}",
            rec.children
        );
        // The outer component must expose P1 (used by the comparison).
        assert!(rec
            .children
            .iter()
            .any(|(_, k, _)| k == &vec!["P1".to_string()]));
    }

    /// Group keys of the outer map are exposed as child keys.
    #[test]
    fn group_keys_survive_as_child_keys() {
        let inner = CalcExpr::agg_sum(vec![], bids(["T2", "V2", "P2"]));
        let def = CalcExpr::agg_sum(
            vec!["B1".into()],
            CalcExpr::product(vec![
                CalcExpr::rel("BIDS", vec!["B1", "V1", "P1"]),
                CalcExpr::Exists(Box::new(inner)),
                CalcExpr::Val(ValExpr::var("V1")),
            ]),
        );
        let mut rec = Recorder::default();
        let addends = rewrite_nested_definition(&def, &["B1".to_string()], &mut rec).unwrap();
        assert_eq!(addends.len(), 1);
        assert!(rec
            .children
            .iter()
            .any(|(_, k, _)| k.contains(&"B1".to_string())));
    }
}
