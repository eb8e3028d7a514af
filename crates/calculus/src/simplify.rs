//! Simplification — the "map algebra rules".
//!
//! The paper describes a rule set of roughly seventy simplifications used
//! to reduce delta expressions to asymptotically simpler maintenance
//! code. This module implements the rule families that carry that weight:
//!
//! 1. **Polynomial normalization** — flatten sums/products, distribute
//!    products over sums, fold constants, fold signs, drop zero terms and
//!    unit factors (rules for `0·x`, `1·x`, `x+0`, `−(−x)`, ...).
//! 2. **Equality unification** — inside a product, `[x = y]` with `x` not
//!    protected (not a group variable, trigger argument or output key) is
//!    eliminated by renaming `x := y` everywhere in the term; constant
//!    comparisons are decided; tautologies `[x = x]` vanish; contradictory
//!    constant comparisons annihilate the term, and so do two different
//!    constant pins on one variable (`[x = 'a'] * [x = 'b']`, the `a ∧ b`
//!    term of an `OR` over one column), while a repeated pin is dropped.
//! 3. **`AggSum` factorization** — factors that do not depend on the
//!    summed-over variables are pulled out of the aggregation (this is the
//!    rewrite that turns `Δq = sum_{A·D}({⟨a,b⟩} ⋈ S ⋈ T)` into
//!    `a · sum_D(σ_{B=b}(S) ⋈ T)` in the paper's Section 3), `AggSum`
//!    distributes over sums, and an `AggSum` that no longer sums over
//!    anything is eliminated.
//! 4. **Nested-structure simplification** — bodies of `Lift`, `Exists`
//!    and nested `AggSum` are simplified recursively; lifts of constants
//!    become value bindings usable by later rules.
//!
//! The central entry points are [`to_polynomial`], which normalizes an
//! expression into a sum of flat product terms (what the compiler's
//! materializer consumes), and [`simplify`], which rebuilds a calculus
//! expression from that normal form.

use std::collections::BTreeSet;

use dbtoaster_common::Value;
use serde::{Deserialize, Serialize};

use crate::expr::{CalcExpr, CmpOp, ValExpr, Var};

/// One product term of the polynomial normal form: a numeric coefficient
/// times a list of atomic factors (relation atoms, map references,
/// comparisons, value expressions, nested aggregations, lifts, exists).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Term {
    pub coeff: Value,
    pub factors: Vec<CalcExpr>,
}

impl Term {
    /// The multiplicative unit.
    pub fn unit() -> Term {
        Term {
            coeff: Value::ONE,
            factors: Vec::new(),
        }
    }

    fn from_factor(f: CalcExpr) -> Term {
        Term {
            coeff: Value::ONE,
            factors: vec![f],
        }
    }

    /// Term product: coefficients multiply, factor lists concatenate.
    pub fn multiply(&self, other: &Term) -> Term {
        Term {
            coeff: self.coeff.mul(&other.coeff),
            factors: self
                .factors
                .iter()
                .chain(other.factors.iter())
                .cloned()
                .collect(),
        }
    }

    /// True if the coefficient annihilates the term.
    pub fn is_zero(&self) -> bool {
        self.coeff.is_zero()
    }

    /// All variables mentioned by the term's factors.
    pub fn all_vars(&self) -> BTreeSet<Var> {
        self.factors.iter().flat_map(|f| f.all_vars()).collect()
    }

    /// Rebuild a calculus expression for this term.
    pub fn to_expr(&self) -> CalcExpr {
        let mut factors = Vec::new();
        if self.coeff != Value::ONE {
            factors.push(CalcExpr::Val(ValExpr::Const(self.coeff.clone())));
        }
        factors.extend(self.factors.iter().cloned());
        CalcExpr::product(factors)
    }
}

/// Sum-of-products normal form.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Polynomial {
    pub terms: Vec<Term>,
}

impl Polynomial {
    pub fn zero() -> Polynomial {
        Polynomial { terms: Vec::new() }
    }

    fn single(term: Term) -> Polynomial {
        if term.is_zero() {
            Polynomial::zero()
        } else {
            Polynomial { terms: vec![term] }
        }
    }

    fn add(mut self, other: Polynomial) -> Polynomial {
        self.terms.extend(other.terms);
        self
    }

    fn multiply(&self, other: &Polynomial) -> Polynomial {
        let mut out = Vec::new();
        for a in &self.terms {
            for b in &other.terms {
                let t = a.multiply(b);
                if !t.is_zero() {
                    out.push(t);
                }
            }
        }
        Polynomial { terms: out }
    }

    fn negate(mut self) -> Polynomial {
        for t in &mut self.terms {
            t.coeff = t.coeff.neg();
        }
        self
    }

    /// Rebuild a calculus expression (a sum of product terms).
    pub fn to_expr(&self) -> CalcExpr {
        CalcExpr::sum(self.terms.iter().map(Term::to_expr).collect())
    }

    /// True if the polynomial has no terms.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }
}

/// Normalize `expr` into polynomial form, treating the variables in
/// `protected` as externally bound (trigger arguments, target-map keys):
/// they are never eliminated by equality unification and never count as
/// summed-over.
pub fn to_polynomial(expr: &CalcExpr, protected: &BTreeSet<Var>) -> Polynomial {
    let poly = normalize(expr, protected);
    let mut out = Vec::new();
    for term in poly.terms {
        if let Some(t) = simplify_term(term, protected) {
            if !t.is_zero() {
                out.push(t);
            }
        }
    }
    Polynomial { terms: out }
}

/// Simplify an expression and rebuild it (convenience wrapper around
/// [`to_polynomial`]).
pub fn simplify(expr: &CalcExpr, protected: &BTreeSet<Var>) -> CalcExpr {
    to_polynomial(expr, protected).to_expr()
}

// ---------------------------------------------------------------------
// normalization
// ---------------------------------------------------------------------

fn normalize(expr: &CalcExpr, protected: &BTreeSet<Var>) -> Polynomial {
    match expr {
        CalcExpr::Val(v) => {
            // Expand the arithmetic into a sum of monomials so that, e.g.,
            // sum(b.VOLUME * (b.PRICE - a.PRICE)) splits into two terms
            // whose trigger-variable parts can be factored out of the
            // aggregation independently (otherwise the materializer would
            // have to key a map on a variable with an unbounded domain).
            let mut terms = Vec::new();
            for (coeff, factors) in expand_val(v) {
                if coeff.is_zero() {
                    continue;
                }
                terms.push(Term {
                    coeff,
                    factors: factors.into_iter().map(CalcExpr::Val).collect(),
                });
            }
            Polynomial { terms }
        }
        CalcExpr::Rel { .. } | CalcExpr::MapRef { .. } => {
            Polynomial::single(Term::from_factor(expr.clone()))
        }
        CalcExpr::Cmp { op, left, right } => match (left.fold_const(), right.fold_const()) {
            (Some(l), Some(r)) => {
                if op.eval(&l, &r) {
                    Polynomial::single(Term::unit())
                } else {
                    Polynomial::zero()
                }
            }
            _ => Polynomial::single(Term::from_factor(expr.clone())),
        },
        CalcExpr::Neg(e) => normalize(e, protected).negate(),
        CalcExpr::Sum(es) => es.iter().fold(Polynomial::zero(), |acc, e| {
            acc.add(normalize(e, protected))
        }),
        CalcExpr::Prod(es) => {
            let mut acc = Polynomial::single(Term::unit());
            for e in es {
                let p = normalize(e, protected);
                acc = acc.multiply(&p);
                if acc.is_zero() {
                    return acc;
                }
            }
            acc
        }
        CalcExpr::AggSum { group, body } => normalize_aggsum(group, body, protected),
        CalcExpr::Lift { var, body } => {
            let inner = simplify(body, protected);
            Polynomial::single(Term::from_factor(CalcExpr::Lift {
                var: var.clone(),
                body: Box::new(inner),
            }))
        }
        CalcExpr::Exists(body) => {
            let inner = simplify(body, protected);
            if inner.is_zero() {
                Polynomial::zero()
            } else if !inner.has_relations()
                && inner.map_refs().is_empty()
                && inner.all_vars().is_empty()
            {
                // A constant, non-zero body: EXISTS is identically 1.
                Polynomial::single(Term::unit())
            } else {
                Polynomial::single(Term::from_factor(CalcExpr::Exists(Box::new(inner))))
            }
        }
    }
}

fn normalize_aggsum(group: &[Var], body: &CalcExpr, protected: &BTreeSet<Var>) -> Polynomial {
    // Inside the aggregation, group variables behave like externally
    // bound variables: they survive to the outside.
    let mut inner_protected = protected.clone();
    inner_protected.extend(group.iter().cloned());

    let body_poly = to_polynomial(body, &inner_protected);

    let mut out = Polynomial::zero();
    for term in body_poly.terms {
        // Partition the factors of this term into those that can be pulled
        // out of the aggregation and those that must stay inside.
        let summed: BTreeSet<Var> = term
            .factors
            .iter()
            .flat_map(|f| f.bound_vars())
            .filter(|v| !inner_protected.contains(v))
            .collect();

        let mut pulled = Vec::new();
        let mut inside = Vec::new();
        for f in term.factors {
            let pullable = matches!(f, CalcExpr::Val(_) | CalcExpr::Cmp { .. })
                && f.all_vars().iter().all(|v| !summed.contains(v));
            if pullable {
                pulled.push(f);
            } else {
                inside.push(f);
            }
        }

        // Product decomposition: factors that do not share any summed-over
        // variable aggregate independently, so the remaining body splits
        // into connected components (this is the rewrite that eliminates
        // the join on an insert into S in the paper's example: the delta
        // becomes sum_A(σ_{B=b}R) · sum_D(σ_{C=c}T)). Components with no
        // summed-over variables need no aggregation at all.
        let mut factors = pulled;
        for component in connected_components(inside, &summed) {
            let comp_summed: BTreeSet<Var> = component
                .iter()
                .flat_map(|f| f.bound_vars())
                .filter(|v| !inner_protected.contains(v))
                .collect();
            if comp_summed.is_empty() {
                factors.extend(component);
            } else {
                // Keep only the group variables that this component
                // actually mentions; the others are constant over it.
                let body_expr = CalcExpr::product(component);
                let body_vars = body_expr.all_vars();
                let kept_group: Vec<Var> = group
                    .iter()
                    .filter(|g| body_vars.contains(*g))
                    .cloned()
                    .collect();
                factors.push(CalcExpr::AggSum {
                    group: kept_group,
                    body: Box::new(body_expr),
                });
            }
        }
        out = out.add(Polynomial::single(Term {
            coeff: term.coeff,
            factors,
        }));
    }
    out
}

/// Expand a value expression into a sum of monomials: each entry is a
/// numeric coefficient and a list of Add-free factor expressions.
/// Division is kept opaque (not distributed).
fn expand_val(v: &ValExpr) -> Vec<(Value, Vec<ValExpr>)> {
    match v {
        ValExpr::Const(c) => vec![(c.clone(), vec![])],
        ValExpr::Var(x) => vec![(Value::ONE, vec![ValExpr::Var(x.clone())])],
        ValExpr::Neg(e) => expand_val(e)
            .into_iter()
            .map(|(c, fs)| (c.neg(), fs))
            .collect(),
        ValExpr::Add(es) => es.iter().flat_map(expand_val).collect(),
        ValExpr::Mul(es) => {
            let mut acc: Vec<(Value, Vec<ValExpr>)> = vec![(Value::ONE, vec![])];
            for e in es {
                let expanded = expand_val(e);
                let mut next = Vec::with_capacity(acc.len() * expanded.len());
                for (c1, f1) in &acc {
                    for (c2, f2) in &expanded {
                        let mut fs = f1.clone();
                        fs.extend(f2.iter().cloned());
                        next.push((c1.mul(c2), fs));
                    }
                }
                acc = next;
            }
            acc
        }
        ValExpr::Div(a, b) => vec![(Value::ONE, vec![ValExpr::Div(a.clone(), b.clone())])],
    }
}

/// Group factors into connected components, where two factors are
/// connected when they share a summed-over variable.
fn connected_components(factors: Vec<CalcExpr>, summed: &BTreeSet<Var>) -> Vec<Vec<CalcExpr>> {
    let n = factors.len();
    let var_sets: Vec<BTreeSet<Var>> = factors
        .iter()
        .map(|f| {
            f.all_vars()
                .into_iter()
                .filter(|v| summed.contains(v))
                .collect()
        })
        .collect();
    let mut component: Vec<usize> = (0..n).collect();

    fn find(component: &mut Vec<usize>, i: usize) -> usize {
        if component[i] != i {
            let root = find(component, component[i]);
            component[i] = root;
        }
        component[i]
    }

    for i in 0..n {
        for j in (i + 1)..n {
            if !var_sets[i].is_disjoint(&var_sets[j]) {
                let (ri, rj) = (find(&mut component, i), find(&mut component, j));
                if ri != rj {
                    component[rj] = ri;
                }
            }
        }
    }

    let mut groups: Vec<(usize, Vec<CalcExpr>)> = Vec::new();
    for (i, f) in factors.into_iter().enumerate() {
        let root = find(&mut component, i);
        match groups.iter_mut().find(|(r, _)| *r == root) {
            Some((_, g)) => g.push(f),
            None => groups.push((root, vec![f])),
        }
    }
    groups.into_iter().map(|(_, g)| g).collect()
}

// ---------------------------------------------------------------------
// per-term simplification: equality unification
// ---------------------------------------------------------------------

/// Apply equality unification and constant decision to one term.
/// Returns `None` if the term is annihilated by a contradictory
/// comparison.
fn simplify_term(mut term: Term, protected: &BTreeSet<Var>) -> Option<Term> {
    loop {
        let mut changed = false;
        let mut i = 0;
        while i < term.factors.len() {
            let action = classify_equality(&term.factors[i], protected);
            match action {
                EqAction::Keep => i += 1,
                EqAction::Drop => {
                    term.factors.remove(i);
                    changed = true;
                }
                EqAction::Annihilate => return None,
                EqAction::Rename { from, to } => {
                    term.factors.remove(i);
                    for f in &mut term.factors {
                        *f = f.substitute_var(&from, &to);
                    }
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    if !fold_constant_pins(&mut term.factors) {
        return None;
    }

    // Fold constant-valued Val factors into the coefficient.
    let mut coeff = term.coeff.clone();
    let mut factors = Vec::with_capacity(term.factors.len());
    for f in term.factors {
        match &f {
            CalcExpr::Val(v) => match v.fold_const() {
                Some(c) if c.is_zero() => return None,
                Some(c) => coeff = coeff.mul(&c),
                None => factors.push(f),
            },
            _ => factors.push(f),
        }
    }
    if coeff.is_zero() {
        return None;
    }
    Some(Term { coeff, factors })
}

enum EqAction {
    Keep,
    Drop,
    Annihilate,
    Rename { from: Var, to: Var },
}

fn classify_equality(factor: &CalcExpr, protected: &BTreeSet<Var>) -> EqAction {
    let CalcExpr::Cmp { op, left, right } = factor else {
        return EqAction::Keep;
    };
    // Constant comparisons are decided immediately (any operator).
    if let (Some(l), Some(r)) = (left.fold_const(), right.fold_const()) {
        return if op.eval(&l, &r) {
            EqAction::Drop
        } else {
            EqAction::Annihilate
        };
    }
    if *op != CmpOp::Eq {
        return EqAction::Keep;
    }
    match (left, right) {
        (ValExpr::Var(x), ValExpr::Var(y)) if x == y => EqAction::Drop,
        (ValExpr::Var(x), ValExpr::Var(y)) => {
            let x_protected = protected.contains(x);
            let y_protected = protected.contains(y);
            if !x_protected {
                EqAction::Rename {
                    from: x.clone(),
                    to: y.clone(),
                }
            } else if !y_protected {
                EqAction::Rename {
                    from: y.clone(),
                    to: x.clone(),
                }
            } else {
                EqAction::Keep
            }
        }
        _ => EqAction::Keep,
    }
}

/// Fold repeated constant pins on one variable: `[v = a] * [v = b]` keeps
/// only `[v = a]` when `a` and `b` compare equal and annihilates the term
/// (returns false) when they compare unequal — decided by the
/// `Value::compare` the runtime evaluates both pins with, so the fold is
/// exact. Pins whose constants do not compare (mixed types, NaN, NULL) stay,
/// and so do integers of magnitude 2^53 or more, past which the runtime's
/// `f64` cross-type comparison is no longer transitive.
fn fold_constant_pins(factors: &mut Vec<CalcExpr>) -> bool {
    let mut pins: Vec<(Var, Value)> = Vec::new();
    let mut i = 0;
    while i < factors.len() {
        if let Some((var, value)) = constant_pin(&factors[i]) {
            let mut duplicate = false;
            for (_, earlier) in pins.iter().filter(|(v, _)| *v == var) {
                match same_pin(earlier, &value) {
                    Some(true) => duplicate = true,
                    Some(false) => return false,
                    None => {}
                }
            }
            if duplicate {
                factors.remove(i);
                continue;
            }
            pins.push((var, value));
        }
        i += 1;
    }
    true
}

/// `[v = c]` or `[c = v]` with `c` constant.
fn constant_pin(factor: &CalcExpr) -> Option<(Var, Value)> {
    let CalcExpr::Cmp {
        op: CmpOp::Eq,
        left,
        right,
    } = factor
    else {
        return None;
    };
    match (left, right) {
        (ValExpr::Var(v), c) | (c, ValExpr::Var(v)) => Some((v.clone(), c.fold_const()?)),
        _ => None,
    }
}

/// Whether the pins `[v = a]` and `[v = b]` hold for the same `v`
/// (`Some(true)`), never hold together (`Some(false)`), or neither can be
/// said (`None`).
fn same_pin(a: &Value, b: &Value) -> Option<bool> {
    let exact = |v: &Value| !matches!(v, Value::Int(i) if i.unsigned_abs() >= 1 << 53);
    if !(exact(a) && exact(b)) {
        return None;
    }
    a.compare(b).map(|o| o == std::cmp::Ordering::Equal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::WEIGHT;

    fn protected(vars: &[&str]) -> BTreeSet<Var> {
        vars.iter().map(|s| s.to_string()).collect()
    }

    /// The paper's query body: AggSum([], R(A,B)*S(B,C)*T(C,D)*[A-join
    /// predicates]*A*D).
    fn figure2_definition() -> CalcExpr {
        CalcExpr::agg_sum(
            vec![],
            CalcExpr::product(vec![
                CalcExpr::rel("R", vec!["R_A", "R_B"]),
                CalcExpr::rel("S", vec!["S_B", "S_C"]),
                CalcExpr::rel("T", vec!["T_C", "T_D"]),
                CalcExpr::eq_vars("R_B", "S_B"),
                CalcExpr::eq_vars("S_C", "T_C"),
                CalcExpr::Val(ValExpr::var("R_A")),
                CalcExpr::Val(ValExpr::var("T_D")),
            ]),
        )
    }

    #[test]
    fn constants_fold_and_zeros_annihilate() {
        let e = CalcExpr::product(vec![
            CalcExpr::constant(3),
            CalcExpr::constant(4),
            CalcExpr::Val(ValExpr::var("X")),
        ]);
        let p = to_polynomial(&e, &protected(&["X"]));
        assert_eq!(p.terms.len(), 1);
        assert_eq!(p.terms[0].coeff, Value::Int(12));
        assert_eq!(p.terms[0].factors.len(), 1);

        let z = CalcExpr::product(vec![CalcExpr::constant(3), CalcExpr::zero()]);
        assert!(to_polynomial(&z, &BTreeSet::new()).is_zero());

        let contradiction = CalcExpr::Cmp {
            op: CmpOp::Eq,
            left: ValExpr::Const(Value::Int(1)),
            right: ValExpr::Const(Value::Int(2)),
        };
        assert!(to_polynomial(&contradiction, &BTreeSet::new()).is_zero());
    }

    #[test]
    fn products_distribute_over_sums() {
        // (a + b) * (c + d) has 4 terms.
        let e = CalcExpr::product(vec![
            CalcExpr::sum(vec![
                CalcExpr::Val(ValExpr::var("A")),
                CalcExpr::Val(ValExpr::var("B")),
            ]),
            CalcExpr::sum(vec![
                CalcExpr::Val(ValExpr::var("C")),
                CalcExpr::Val(ValExpr::var("D")),
            ]),
        ]);
        let p = to_polynomial(&e, &protected(&["A", "B", "C", "D"]));
        assert_eq!(p.terms.len(), 4);
    }

    #[test]
    fn double_negation_cancels() {
        let e = CalcExpr::Neg(Box::new(CalcExpr::Neg(Box::new(CalcExpr::constant(7)))));
        let p = to_polynomial(&e, &BTreeSet::new());
        assert_eq!(p.terms[0].coeff, Value::Int(7));
    }

    #[test]
    fn equality_unification_renames_unprotected_variables() {
        // [X = Y] * R(X) with Y protected: X is renamed to Y.
        let e = CalcExpr::product(vec![
            CalcExpr::eq_vars("X", "Y"),
            CalcExpr::rel("R", vec!["X"]),
        ]);
        let p = to_polynomial(&e, &protected(&["Y"]));
        assert_eq!(p.terms.len(), 1);
        assert_eq!(p.terms[0].factors.len(), 1);
        assert_eq!(p.terms[0].factors[0].to_string(), "R(Y)");
        // Both protected: the comparison survives as a filter.
        let p = to_polynomial(&e, &protected(&["X", "Y"]));
        assert_eq!(p.terms[0].factors.len(), 2);
    }

    #[test]
    fn tautological_equality_disappears() {
        let e = CalcExpr::product(vec![
            CalcExpr::eq_vars("X", "X"),
            CalcExpr::rel("R", vec!["X"]),
        ]);
        let p = to_polynomial(&e, &BTreeSet::new());
        assert_eq!(p.terms[0].factors.len(), 1);
    }

    /// The paper's first derivation: Δq for insert R(a, b) simplifies to
    /// a · AggSum(S(b, C) ⋈ T(C, D) · D) — i.e. `a * qD[b]` once the
    /// aggregation is materialized.
    #[test]
    fn figure2_insert_r_simplifies_to_a_times_a_single_aggregation() {
        let def = figure2_definition();
        let d = crate::delta::delta(&def, "R", &["a".into(), "b".into(), WEIGHT.into()]);
        let p = to_polynomial(&d, &protected(&["a", "b", WEIGHT]));
        assert_eq!(
            p.terms.len(),
            1,
            "expected a single term, got {}",
            p.to_expr()
        );
        let term = &p.terms[0];
        assert_eq!(term.coeff, Value::ONE);
        // Factors: the weight and Val(a) pulled out of the aggregation +
        // the residual AggSum.
        assert_eq!(term.factors.len(), 3, "factors: {:?}", term.factors);
        let rendered: Vec<String> = term.factors.iter().map(|f| f.to_string()).collect();
        assert!(rendered.contains(&WEIGHT.to_string()), "{rendered:?}");
        assert!(rendered.contains(&"a".to_string()), "{rendered:?}");
        let agg = rendered.iter().find(|s| s.starts_with("AggSum")).unwrap();
        assert!(
            agg.contains("S(b, "),
            "S must be restricted to the trigger value b: {agg}"
        );
        assert!(agg.contains("T("), "{agg}");
        assert!(!agg.contains("R("), "the R atom must be gone: {agg}");
    }

    /// The paper's second derivation: Δq for insert S(b, c) splits into
    /// two independent aggregations (no join remains):
    /// sum_A(σ_{B=b}(R)) · sum_D(σ_{C=c}(T)).
    #[test]
    fn figure2_insert_s_eliminates_the_join() {
        let def = figure2_definition();
        let d = crate::delta::delta(&def, "S", &["s_b".into(), "s_c".into(), WEIGHT.into()]);
        let p = to_polynomial(&d, &protected(&["s_b", "s_c", WEIGHT]));
        assert_eq!(p.terms.len(), 1);
        let term = &p.terms[0];
        // One aggregation over R and one over T — the join between them is
        // gone. (They are separate factors of the same product term.)
        let aggs: Vec<&CalcExpr> = term
            .factors
            .iter()
            .filter(|f| matches!(f, CalcExpr::AggSum { .. }))
            .collect();
        assert_eq!(aggs.len(), 2, "factors: {:?}", term.factors);
        let rels: Vec<BTreeSet<String>> = aggs.iter().map(|a| a.relations()).collect();
        assert!(rels.iter().any(|r| r.contains("R") && !r.contains("T")));
        assert!(rels.iter().any(|r| r.contains("T") && !r.contains("R")));
    }

    #[test]
    fn the_event_weight_is_a_factor_not_a_coefficient() {
        let def = figure2_definition();
        let d = crate::delta::delta(&def, "R", &["a".into(), "b".into(), WEIGHT.into()]);
        let p = to_polynomial(&d, &protected(&["a", "b", WEIGHT]));
        assert_eq!(p.terms.len(), 1);
        assert_eq!(p.terms[0].coeff, Value::ONE);
        assert!(p.terms[0]
            .factors
            .contains(&CalcExpr::Val(ValExpr::var(WEIGHT))));
    }

    #[test]
    fn aggsum_with_nothing_to_sum_disappears() {
        // AggSum([B, C], S(B, C)) keeps the aggregation (B, C are group
        // vars), but AggSum([], [B = b]) where b is protected drops it.
        let e = CalcExpr::agg_sum(
            vec![],
            CalcExpr::Cmp {
                op: CmpOp::Eq,
                left: ValExpr::var("B"),
                right: ValExpr::var("b"),
            },
        );
        let p = to_polynomial(&e, &protected(&["b", "B"]));
        assert_eq!(p.terms.len(), 1);
        assert!(matches!(p.terms[0].factors[0], CalcExpr::Cmp { .. }));
    }

    #[test]
    fn aggsum_distributes_over_sums() {
        let e = CalcExpr::agg_sum(
            vec![],
            CalcExpr::sum(vec![
                CalcExpr::rel("R", vec!["X"]),
                CalcExpr::rel("S", vec!["Y"]),
            ]),
        );
        let p = to_polynomial(&e, &BTreeSet::new());
        assert_eq!(p.terms.len(), 2);
    }

    #[test]
    fn group_variables_are_never_unified_away() {
        // AggSum([C], [C = c] * S(B, C)) where both c (a trigger argument)
        // and C (a target-map key) are protected: C must survive as a
        // group variable, so the equality stays as a key-binding factor.
        let e = CalcExpr::agg_sum(
            vec!["C".into()],
            CalcExpr::product(vec![
                CalcExpr::eq_vars("C", "c"),
                CalcExpr::rel("S", vec!["B", "C"]),
            ]),
        );
        let p = to_polynomial(&e, &protected(&["c", "C"]));
        let s = p.to_expr().to_string();
        assert!(s.contains("[C = c]"), "{s}");
    }

    #[test]
    fn unprotected_group_variables_unify_with_trigger_arguments() {
        // Without C in the protected set, the equality is free to
        // specialize the aggregation to the trigger value.
        let e = CalcExpr::agg_sum(
            vec!["C".into()],
            CalcExpr::product(vec![
                CalcExpr::eq_vars("C", "c"),
                CalcExpr::rel("S", vec!["B", "C"]),
            ]),
        );
        let p = to_polynomial(&e, &protected(&["c"]));
        let s = p.to_expr().to_string();
        assert!(s.contains("S(B, c)"), "{s}");
    }

    #[test]
    fn exists_of_a_nonzero_constant_is_one() {
        let e = CalcExpr::Exists(Box::new(CalcExpr::constant(5)));
        let p = to_polynomial(&e, &BTreeSet::new());
        assert_eq!(p.terms.len(), 1);
        assert!(p.terms[0].factors.is_empty());
        let z = CalcExpr::Exists(Box::new(CalcExpr::zero()));
        assert!(to_polynomial(&z, &BTreeSet::new()).is_zero());
    }

    fn pin(var: &str, value: Value) -> CalcExpr {
        CalcExpr::Cmp {
            op: CmpOp::Eq,
            left: ValExpr::var(var),
            right: ValExpr::Const(value),
        }
    }

    fn pinned_term(pins: Vec<CalcExpr>) -> Polynomial {
        let mut factors = vec![CalcExpr::rel("R", vec!["V", "X"])];
        factors.extend(pins);
        to_polynomial(&CalcExpr::product(factors), &protected(&["V", "X"]))
    }

    fn pin_count(p: &Polynomial) -> usize {
        p.terms[0]
            .factors
            .iter()
            .filter(|f| matches!(f, CalcExpr::Cmp { .. }))
            .count()
    }

    #[test]
    fn different_constant_pins_on_one_variable_annihilate() {
        let p = pinned_term(vec![pin("V", Value::str("a")), pin("V", Value::str("b"))]);
        assert!(p.is_zero(), "{}", p.to_expr());
        // Written constant-first, too.
        let flipped = CalcExpr::Cmp {
            op: CmpOp::Eq,
            left: ValExpr::Const(Value::str("b")),
            right: ValExpr::var("V"),
        };
        assert!(pinned_term(vec![pin("V", Value::str("a")), flipped]).is_zero());
        // Pins on different variables are independent.
        let p = pinned_term(vec![pin("V", Value::str("a")), pin("X", Value::str("b"))]);
        assert_eq!(pin_count(&p), 2);
    }

    #[test]
    fn a_repeated_constant_pin_is_kept_once() {
        let p = pinned_term(vec![pin("V", Value::str("a")), pin("V", Value::str("a"))]);
        assert_eq!(p.terms.len(), 1);
        assert_eq!(pin_count(&p), 1, "{}", p.to_expr());
    }

    #[test]
    fn int_and_float_pins_that_compare_equal_are_one_pin() {
        let p = pinned_term(vec![pin("V", Value::Int(1)), pin("V", Value::Float(1.0))]);
        assert_eq!(p.terms.len(), 1);
        assert_eq!(pin_count(&p), 1, "{}", p.to_expr());
        assert!(pinned_term(vec![pin("V", Value::Int(1)), pin("V", Value::Float(1.5))]).is_zero());
    }

    #[test]
    fn pins_that_do_not_compare_are_left_alone() {
        // A string and an integer never compare: no decision either way.
        let p = pinned_term(vec![pin("V", Value::str("a")), pin("V", Value::Int(1))]);
        assert_eq!(p.terms.len(), 1);
        assert_eq!(pin_count(&p), 2);
        // Past 2^53, Int-vs-Float equality is not transitive at runtime
        // (both of these equal the float 2^53), so nothing is folded.
        let big = 1i64 << 53;
        let p = pinned_term(vec![
            pin("V", Value::Int(big)),
            pin("V", Value::Int(big + 1)),
        ]);
        assert_eq!(pin_count(&p), 2);
    }

    #[test]
    fn simplified_expression_size_shrinks() {
        let def = figure2_definition();
        let d = crate::delta::delta(&def, "R", &["a".into(), "b".into(), WEIGHT.into()]);
        let s = simplify(&d, &protected(&["a", "b", WEIGHT]));
        assert!(s.size() < d.size(), "{} !< {}", s.size(), d.size());
    }
}
