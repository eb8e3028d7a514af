//! The calculus expression language.
//!
//! A [`CalcExpr`] denotes a function from variable bindings to ring values
//! (generalized multiplicities / partial aggregates), exactly like the
//! paper's map algebra:
//!
//! * a relation atom `R(x, y)` is the multiplicity of tuple `(x, y)` in
//!   `R`,
//! * a product is a natural join (multiplicities multiply),
//! * a sum is a union (multiplicities add),
//! * a comparison is a `{0, 1}`-valued filter,
//! * `AggSum(G, e)` sums `e` over all bindings of the variables not in
//!   `G` — i.e. a group-by aggregate with group variables `G`,
//! * `MapRef(m, k)` reads an already-materialized map (a view created by
//!   an earlier compilation step),
//! * `Lift(x, e)` binds variable `x` to the (scalar) value of `e`, which
//!   is how nested aggregates enter predicates,
//! * `Exists(e)` is `1` when `e` evaluates to a non-zero value.
//!
//! [`ValExpr`] is the ordinary arithmetic layer that appears inside
//! aggregates and comparisons.

use dbtoaster_common::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Variables are interned as plain strings; the SQL analyzer guarantees
/// global uniqueness of relation-column variables, and the delta
/// transformation generates fresh trigger-argument names.
pub type Var = String;

/// Comparison operators usable as 0/1-valued calculus factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

impl CmpOp {
    /// Evaluate the comparison on concrete values (None ordering, i.e.
    /// NULL, makes every comparison false — SQL semantics).
    pub fn eval(&self, l: &Value, r: &Value) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, l.compare(r)),
            (CmpOp::Eq, Some(Equal))
                | (CmpOp::NotEq, Some(Less | Greater))
                | (CmpOp::Lt, Some(Less))
                | (CmpOp::LtEq, Some(Less | Equal))
                | (CmpOp::Gt, Some(Greater))
                | (CmpOp::GtEq, Some(Greater | Equal))
        )
    }

    /// The comparison with operands swapped.
    pub fn flip(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::NotEq => CmpOp::NotEq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::LtEq => CmpOp::GtEq,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::GtEq => CmpOp::LtEq,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::NotEq => "<>",
            CmpOp::Lt => "<",
            CmpOp::LtEq => "<=",
            CmpOp::Gt => ">",
            CmpOp::GtEq => ">=",
        };
        write!(f, "{s}")
    }
}

/// Arithmetic value expressions over variables and constants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ValExpr {
    Const(Value),
    Var(Var),
    Add(Vec<ValExpr>),
    Mul(Vec<ValExpr>),
    Neg(Box<ValExpr>),
    Div(Box<ValExpr>, Box<ValExpr>),
}

impl ValExpr {
    pub fn zero() -> ValExpr {
        ValExpr::Const(Value::ZERO)
    }

    pub fn one() -> ValExpr {
        ValExpr::Const(Value::ONE)
    }

    pub fn var(v: impl Into<String>) -> ValExpr {
        ValExpr::Var(v.into())
    }

    /// Collect variables into `out` (deduplicated, insertion ordered).
    pub fn collect_vars(&self, out: &mut Vec<Var>) {
        match self {
            ValExpr::Const(_) => {}
            ValExpr::Var(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            ValExpr::Add(es) | ValExpr::Mul(es) => {
                for e in es {
                    e.collect_vars(out);
                }
            }
            ValExpr::Neg(e) => e.collect_vars(out),
            ValExpr::Div(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// The set of variables referenced.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut v = Vec::new();
        self.collect_vars(&mut v);
        v.into_iter().collect()
    }

    /// Rename variables according to the mapping (variables not in the
    /// mapping are left alone).
    pub fn rename(&self, mapping: &dyn Fn(&str) -> Option<Var>) -> ValExpr {
        match self {
            ValExpr::Const(v) => ValExpr::Const(v.clone()),
            ValExpr::Var(v) => match mapping(v) {
                Some(nv) => ValExpr::Var(nv),
                None => ValExpr::Var(v.clone()),
            },
            ValExpr::Add(es) => ValExpr::Add(es.iter().map(|e| e.rename(mapping)).collect()),
            ValExpr::Mul(es) => ValExpr::Mul(es.iter().map(|e| e.rename(mapping)).collect()),
            ValExpr::Neg(e) => ValExpr::Neg(Box::new(e.rename(mapping))),
            ValExpr::Div(a, b) => {
                ValExpr::Div(Box::new(a.rename(mapping)), Box::new(b.rename(mapping)))
            }
        }
    }

    /// Constant folding; returns `Some(value)` if the expression contains
    /// no variables.
    pub fn fold_const(&self) -> Option<Value> {
        match self {
            ValExpr::Const(v) => Some(v.clone()),
            ValExpr::Var(_) => None,
            ValExpr::Add(es) => es
                .iter()
                .map(|e| e.fold_const())
                .try_fold(Value::ZERO, |acc, v| v.map(|v| acc.add(&v))),
            ValExpr::Mul(es) => es
                .iter()
                .map(|e| e.fold_const())
                .try_fold(Value::ONE, |acc, v| v.map(|v| acc.mul(&v))),
            ValExpr::Neg(e) => e.fold_const().map(|v| v.neg()),
            ValExpr::Div(a, b) => match (a.fold_const(), b.fold_const()) {
                (Some(a), Some(b)) => Some(a.div(&b)),
                _ => None,
            },
        }
    }

    /// True if this is the constant 1.
    pub fn is_one(&self) -> bool {
        matches!(self.fold_const(), Some(v) if v == Value::ONE)
    }

    /// True if this is the constant 0.
    pub fn is_zero(&self) -> bool {
        matches!(self.fold_const(), Some(v) if v.is_zero())
    }
}

impl fmt::Display for ValExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValExpr::Const(v) => write!(f, "{v}"),
            ValExpr::Var(v) => write!(f, "{v}"),
            ValExpr::Add(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            ValExpr::Mul(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " * ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            ValExpr::Neg(e) => write!(f, "-({e})"),
            ValExpr::Div(a, b) => write!(f, "({a} / {b})"),
        }
    }
}

/// Ring calculus expressions — the map algebra.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CalcExpr {
    /// A numeric factor (constant, variable or arithmetic over bound
    /// variables).
    Val(ValExpr),
    /// A base relation atom: the multiplicity of the tuple named by
    /// `vars` in relation `name`.
    Rel { name: String, vars: Vec<Var> },
    /// A reference to a materialized map (an in-memory view created by a
    /// previous compilation step): the value stored under key `keys`.
    MapRef { name: String, keys: Vec<Var> },
    /// A `{0,1}`-valued comparison factor.
    Cmp {
        op: CmpOp,
        left: ValExpr,
        right: ValExpr,
    },
    /// Product — generalized natural join.
    Prod(Vec<CalcExpr>),
    /// Sum — generalized union.
    Sum(Vec<CalcExpr>),
    /// Additive inverse.
    Neg(Box<CalcExpr>),
    /// Group-by aggregation: sum the body over all bindings of variables
    /// not listed in `group`.
    AggSum {
        group: Vec<Var>,
        body: Box<CalcExpr>,
    },
    /// Bind `var` to the scalar value of `body` (nested aggregate),
    /// multiplicity 1.
    Lift { var: Var, body: Box<CalcExpr> },
    /// 1 if the body is non-zero, else 0 (EXISTS).
    Exists(Box<CalcExpr>),
}

impl CalcExpr {
    /// The constant 1 (multiplicative identity).
    pub fn one() -> CalcExpr {
        CalcExpr::Val(ValExpr::one())
    }

    /// The constant 0 (additive identity).
    pub fn zero() -> CalcExpr {
        CalcExpr::Val(ValExpr::zero())
    }

    /// A constant factor.
    pub fn constant(v: impl Into<Value>) -> CalcExpr {
        CalcExpr::Val(ValExpr::Const(v.into()))
    }

    /// A relation atom.
    pub fn rel(name: impl Into<String>, vars: Vec<&str>) -> CalcExpr {
        CalcExpr::Rel {
            name: name.into(),
            vars: vars.into_iter().map(|s| s.to_string()).collect(),
        }
    }

    /// A map reference.
    pub fn map_ref(name: impl Into<String>, keys: Vec<&str>) -> CalcExpr {
        CalcExpr::MapRef {
            name: name.into(),
            keys: keys.into_iter().map(|s| s.to_string()).collect(),
        }
    }

    /// An equality comparison between two variables.
    pub fn eq_vars(a: impl Into<String>, b: impl Into<String>) -> CalcExpr {
        CalcExpr::Cmp {
            op: CmpOp::Eq,
            left: ValExpr::Var(a.into()),
            right: ValExpr::Var(b.into()),
        }
    }

    /// Smart product constructor: flattens nested products and drops
    /// multiplicative identities; returns zero if any factor is zero.
    pub fn product(factors: Vec<CalcExpr>) -> CalcExpr {
        let mut out = Vec::new();
        for f in factors {
            match f {
                CalcExpr::Prod(inner) => out.extend(inner),
                CalcExpr::Val(v) if v.is_one() => {}
                other => out.push(other),
            }
        }
        if out
            .iter()
            .any(|f| matches!(f, CalcExpr::Val(v) if v.is_zero()))
        {
            return CalcExpr::zero();
        }
        match out.len() {
            0 => CalcExpr::one(),
            1 => out.pop().unwrap(),
            _ => CalcExpr::Prod(out),
        }
    }

    /// Smart sum constructor: flattens nested sums and drops additive
    /// identities.
    pub fn sum(terms: Vec<CalcExpr>) -> CalcExpr {
        let mut out = Vec::new();
        for t in terms {
            match t {
                CalcExpr::Sum(inner) => out.extend(inner),
                CalcExpr::Val(v) if v.is_zero() => {}
                other => out.push(other),
            }
        }
        match out.len() {
            0 => CalcExpr::zero(),
            1 => out.pop().unwrap(),
            _ => CalcExpr::Sum(out),
        }
    }

    /// Smart aggregation constructor.
    pub fn agg_sum(group: Vec<Var>, body: CalcExpr) -> CalcExpr {
        CalcExpr::AggSum {
            group,
            body: Box::new(body),
        }
    }

    /// True if this expression is syntactically the constant zero.
    pub fn is_zero(&self) -> bool {
        matches!(self, CalcExpr::Val(v) if v.is_zero())
    }

    /// True if this expression is syntactically the constant one.
    pub fn is_one(&self) -> bool {
        matches!(self, CalcExpr::Val(v) if v.is_one())
    }

    /// All variables occurring anywhere in the expression, except those
    /// hidden by an `AggSum` projection (an enclosing context can only see
    /// an `AggSum`'s group variables plus any *parameters* — variables the
    /// body references but does not bind).
    pub fn visible_vars(&self) -> BTreeSet<Var> {
        match self {
            CalcExpr::Val(v) => v.vars(),
            CalcExpr::Rel { vars, .. } => vars.iter().cloned().collect(),
            CalcExpr::MapRef { keys, .. } => keys.iter().cloned().collect(),
            CalcExpr::Cmp { left, right, .. } => {
                let mut s = left.vars();
                s.extend(right.vars());
                s
            }
            CalcExpr::Prod(es) | CalcExpr::Sum(es) => {
                es.iter().flat_map(|e| e.visible_vars()).collect()
            }
            CalcExpr::Neg(e) => e.visible_vars(),
            CalcExpr::AggSum { group, body } => {
                let bound = body.bound_vars();
                let mut vis: BTreeSet<Var> = group.iter().cloned().collect();
                for v in body.visible_vars() {
                    if !bound.contains(&v) {
                        vis.insert(v);
                    }
                }
                vis
            }
            CalcExpr::Lift { var, body } => {
                let mut s = body.visible_vars();
                let bound = body.bound_vars();
                s.retain(|v| !bound.contains(v));
                s.insert(var.clone());
                s
            }
            CalcExpr::Exists(e) => {
                let bound = e.bound_vars();
                e.visible_vars()
                    .into_iter()
                    .filter(|v| !bound.contains(v))
                    .collect()
            }
        }
    }

    /// Every variable mentioned anywhere (including summed-over ones).
    pub fn all_vars(&self) -> BTreeSet<Var> {
        match self {
            CalcExpr::Val(v) => v.vars(),
            CalcExpr::Rel { vars, .. } => vars.iter().cloned().collect(),
            CalcExpr::MapRef { keys, .. } => keys.iter().cloned().collect(),
            CalcExpr::Cmp { left, right, .. } => {
                let mut s = left.vars();
                s.extend(right.vars());
                s
            }
            CalcExpr::Prod(es) | CalcExpr::Sum(es) => {
                es.iter().flat_map(|e| e.all_vars()).collect()
            }
            CalcExpr::Neg(e) => e.all_vars(),
            CalcExpr::AggSum { group, body } => {
                let mut s = body.all_vars();
                s.extend(group.iter().cloned());
                s
            }
            CalcExpr::Lift { var, body } => {
                let mut s = body.all_vars();
                s.insert(var.clone());
                s
            }
            CalcExpr::Exists(e) => e.all_vars(),
        }
    }

    /// Variables *bound* (given bindings) by this expression: relation
    /// atoms bind their columns, map references bind their keys (the
    /// runtime can iterate over slices), lifts bind their variable, and
    /// `AggSum` exposes only its group variables.
    pub fn bound_vars(&self) -> BTreeSet<Var> {
        match self {
            CalcExpr::Val(_) | CalcExpr::Cmp { .. } => BTreeSet::new(),
            CalcExpr::Rel { vars, .. } => vars.iter().cloned().collect(),
            CalcExpr::MapRef { keys, .. } => keys.iter().cloned().collect(),
            CalcExpr::Prod(es) | CalcExpr::Sum(es) => {
                es.iter().flat_map(|e| e.bound_vars()).collect()
            }
            CalcExpr::Neg(e) => e.bound_vars(),
            CalcExpr::AggSum { group, .. } => group.iter().cloned().collect(),
            CalcExpr::Lift { var, .. } => std::iter::once(var.clone()).collect(),
            CalcExpr::Exists(_) => BTreeSet::new(),
        }
    }

    /// Names of base relations mentioned anywhere in the expression.
    pub fn relations(&self) -> BTreeSet<String> {
        match self {
            CalcExpr::Rel { name, .. } => std::iter::once(name.clone()).collect(),
            CalcExpr::Val(_) | CalcExpr::Cmp { .. } | CalcExpr::MapRef { .. } => BTreeSet::new(),
            CalcExpr::Prod(es) | CalcExpr::Sum(es) => {
                es.iter().flat_map(|e| e.relations()).collect()
            }
            CalcExpr::Neg(e) => e.relations(),
            CalcExpr::AggSum { body, .. } => body.relations(),
            CalcExpr::Lift { body, .. } => body.relations(),
            CalcExpr::Exists(e) => e.relations(),
        }
    }

    /// Names of materialized maps referenced anywhere in the expression.
    pub fn map_refs(&self) -> BTreeSet<String> {
        match self {
            CalcExpr::MapRef { name, .. } => std::iter::once(name.clone()).collect(),
            CalcExpr::Val(_) | CalcExpr::Cmp { .. } | CalcExpr::Rel { .. } => BTreeSet::new(),
            CalcExpr::Prod(es) | CalcExpr::Sum(es) => {
                es.iter().flat_map(|e| e.map_refs()).collect()
            }
            CalcExpr::Neg(e) => e.map_refs(),
            CalcExpr::AggSum { body, .. } => body.map_refs(),
            CalcExpr::Lift { body, .. } => body.map_refs(),
            CalcExpr::Exists(e) => e.map_refs(),
        }
    }

    /// True if the expression mentions at least one base relation atom.
    pub fn has_relations(&self) -> bool {
        !self.relations().is_empty()
    }

    /// Number of base-relation atoms in the expression, counted with
    /// repetition (a self-join has degree 2). Every map a delta of the
    /// expression reads has a strictly lower degree.
    pub fn degree(&self) -> usize {
        match self {
            CalcExpr::Rel { .. } => 1,
            CalcExpr::Val(_) | CalcExpr::Cmp { .. } | CalcExpr::MapRef { .. } => 0,
            CalcExpr::Prod(es) | CalcExpr::Sum(es) => es.iter().map(CalcExpr::degree).sum(),
            CalcExpr::Neg(e) | CalcExpr::Exists(e) => e.degree(),
            CalcExpr::AggSum { body, .. } | CalcExpr::Lift { body, .. } => body.degree(),
        }
    }

    /// Rename variables throughout the expression. Group lists, relation
    /// columns, map keys and lift variables are renamed too; the caller is
    /// responsible for avoiding capture (all callers rename to globally
    /// fresh names or unify provably-equal variables).
    pub fn rename(&self, mapping: &dyn Fn(&str) -> Option<Var>) -> CalcExpr {
        let rn = |v: &Var| mapping(v).unwrap_or_else(|| v.clone());
        match self {
            CalcExpr::Val(v) => CalcExpr::Val(v.rename(mapping)),
            CalcExpr::Rel { name, vars } => CalcExpr::Rel {
                name: name.clone(),
                vars: vars.iter().map(rn).collect(),
            },
            CalcExpr::MapRef { name, keys } => CalcExpr::MapRef {
                name: name.clone(),
                keys: keys.iter().map(rn).collect(),
            },
            CalcExpr::Cmp { op, left, right } => CalcExpr::Cmp {
                op: *op,
                left: left.rename(mapping),
                right: right.rename(mapping),
            },
            CalcExpr::Prod(es) => CalcExpr::Prod(es.iter().map(|e| e.rename(mapping)).collect()),
            CalcExpr::Sum(es) => CalcExpr::Sum(es.iter().map(|e| e.rename(mapping)).collect()),
            CalcExpr::Neg(e) => CalcExpr::Neg(Box::new(e.rename(mapping))),
            CalcExpr::AggSum { group, body } => CalcExpr::AggSum {
                group: group.iter().map(rn).collect(),
                body: Box::new(body.rename(mapping)),
            },
            CalcExpr::Lift { var, body } => CalcExpr::Lift {
                var: rn(var),
                body: Box::new(body.rename(mapping)),
            },
            CalcExpr::Exists(e) => CalcExpr::Exists(Box::new(e.rename(mapping))),
        }
    }

    /// Substitute a single variable by another variable everywhere.
    pub fn substitute_var(&self, from: &str, to: &str) -> CalcExpr {
        self.rename(&|v| {
            if v == from {
                Some(to.to_string())
            } else {
                None
            }
        })
    }

    /// True if the expression contains a *dynamic* nested construct: a
    /// `Lift` or `Exists` whose body mentions at least one base relation
    /// (a correlated or uncorrelated subquery over the update stream).
    ///
    /// The delta transformation is exact for such expressions only if
    /// their inner aggregates are re-evaluated (the `Replace` legacy
    /// path) or recursively materialized (the hierarchy path): a plain
    /// delta would treat the inner aggregate as a constant. Static
    /// nested constructs — `Lift`s binding arithmetic over already-bound
    /// variables, as produced for `MIN`/`MAX` of expressions — have zero
    /// delta and need no special handling.
    pub fn contains_dynamic_nested(&self) -> bool {
        match self {
            // `has_relations` recurses through nested constructs, so a
            // dynamic construct anywhere inside the body is covered.
            CalcExpr::Lift { body, .. } | CalcExpr::Exists(body) => body.has_relations(),
            CalcExpr::Val(_)
            | CalcExpr::Rel { .. }
            | CalcExpr::MapRef { .. }
            | CalcExpr::Cmp { .. } => false,
            CalcExpr::Prod(es) | CalcExpr::Sum(es) => {
                es.iter().any(CalcExpr::contains_dynamic_nested)
            }
            CalcExpr::Neg(e) => e.contains_dynamic_nested(),
            CalcExpr::AggSum { body, .. } => body.contains_dynamic_nested(),
        }
    }

    /// Number of nodes — used as a crude "generated code size" metric for
    /// the profiling experiment (E5) and for regression tests on
    /// simplification effectiveness.
    pub fn size(&self) -> usize {
        1 + match self {
            CalcExpr::Val(_)
            | CalcExpr::Rel { .. }
            | CalcExpr::MapRef { .. }
            | CalcExpr::Cmp { .. } => 0,
            CalcExpr::Prod(es) | CalcExpr::Sum(es) => es.iter().map(|e| e.size()).sum(),
            CalcExpr::Neg(e) => e.size(),
            CalcExpr::AggSum { body, .. } => body.size(),
            CalcExpr::Lift { body, .. } => body.size(),
            CalcExpr::Exists(e) => e.size(),
        }
    }
}

impl fmt::Display for CalcExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalcExpr::Val(v) => write!(f, "{v}"),
            CalcExpr::Rel { name, vars } => write!(f, "{name}({})", vars.join(", ")),
            CalcExpr::MapRef { name, keys } => write!(f, "{name}[{}]", keys.join(", ")),
            CalcExpr::Cmp { op, left, right } => write!(f, "[{left} {op} {right}]"),
            CalcExpr::Prod(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " * ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            CalcExpr::Sum(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            CalcExpr::Neg(e) => write!(f, "-({e})"),
            CalcExpr::AggSum { group, body } => {
                write!(f, "AggSum([{}], {body})", group.join(", "))
            }
            CalcExpr::Lift { var, body } => write!(f, "({var} := {body})"),
            CalcExpr::Exists(e) => write!(f, "Exists({e})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CalcExpr {
        // AggSum([], R(A,B) * S(B,C) * T(C,D) * A * D)
        CalcExpr::agg_sum(
            vec![],
            CalcExpr::product(vec![
                CalcExpr::rel("R", vec!["A", "B"]),
                CalcExpr::rel("S", vec!["B", "C"]),
                CalcExpr::rel("T", vec!["C", "D"]),
                CalcExpr::Val(ValExpr::var("A")),
                CalcExpr::Val(ValExpr::var("D")),
            ]),
        )
    }

    #[test]
    fn smart_constructors_flatten_and_prune() {
        let p = CalcExpr::product(vec![
            CalcExpr::one(),
            CalcExpr::Prod(vec![CalcExpr::rel("R", vec!["X"]), CalcExpr::one()]),
            CalcExpr::Val(ValExpr::var("Y")),
        ]);
        match &p {
            CalcExpr::Prod(fs) => assert_eq!(fs.len(), 3), // R, 1 (from inner), Y — inner 1 kept? no
            other => panic!("expected product, got {other}"),
        }
        // zero annihilates
        let z = CalcExpr::product(vec![CalcExpr::rel("R", vec!["X"]), CalcExpr::zero()]);
        assert!(z.is_zero());
        // sums drop zeros and flatten
        let s = CalcExpr::sum(vec![
            CalcExpr::zero(),
            sample(),
            CalcExpr::Sum(vec![CalcExpr::one()]),
        ]);
        match s {
            CalcExpr::Sum(ts) => assert_eq!(ts.len(), 2),
            other => panic!("expected sum, got {other}"),
        }
    }

    #[test]
    fn variable_classification() {
        let e = sample();
        let all = e.all_vars();
        assert!(all.contains("A") && all.contains("D"));
        // Nothing escapes an AggSum over the empty group when the body
        // binds every variable it uses.
        assert!(e.visible_vars().is_empty());
        // The body itself binds A..D through its relation atoms.
        if let CalcExpr::AggSum { body, .. } = &e {
            let b = body.bound_vars();
            assert_eq!(b.len(), 4);
        } else {
            panic!();
        }
    }

    #[test]
    fn correlated_parameters_stay_visible_through_aggsum() {
        // AggSum([], BIDS(P2, V2) * [P2 > P1] * V2) — P1 is a parameter.
        let e = CalcExpr::agg_sum(
            vec![],
            CalcExpr::product(vec![
                CalcExpr::rel("BIDS", vec!["P2", "V2"]),
                CalcExpr::Cmp {
                    op: CmpOp::Gt,
                    left: ValExpr::var("P2"),
                    right: ValExpr::var("P1"),
                },
                CalcExpr::Val(ValExpr::var("V2")),
            ]),
        );
        let vis = e.visible_vars();
        assert!(vis.contains("P1"));
        assert!(!vis.contains("P2"));
    }

    #[test]
    fn relations_and_maps_are_reported() {
        let e = CalcExpr::product(vec![sample(), CalcExpr::map_ref("Q_D", vec!["B"])]);
        assert_eq!(e.relations().len(), 3);
        assert_eq!(e.map_refs().len(), 1);
        assert!(e.has_relations());
    }

    #[test]
    fn renaming_reaches_every_position() {
        let e = sample().substitute_var("B", "BT");
        let s = e.to_string();
        assert!(s.contains("R(A, BT)"));
        assert!(s.contains("S(BT, C)"));
        assert!(!e.all_vars().contains("B"));
    }

    #[test]
    fn display_matches_paper_notation() {
        let e = sample();
        assert_eq!(
            e.to_string(),
            "AggSum([], (R(A, B) * S(B, C) * T(C, D) * A * D))"
        );
    }

    #[test]
    fn cmp_eval_covers_all_operators() {
        let two = Value::Int(2);
        let three = Value::Int(3);
        assert!(CmpOp::Lt.eval(&two, &three));
        assert!(CmpOp::LtEq.eval(&two, &two));
        assert!(CmpOp::Gt.eval(&three, &two));
        assert!(CmpOp::GtEq.eval(&three, &three));
        assert!(CmpOp::Eq.eval(&two, &two));
        assert!(CmpOp::NotEq.eval(&two, &three));
        assert!(!CmpOp::Eq.eval(&Value::Null, &Value::Null));
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
    }

    #[test]
    fn val_expr_constant_folding() {
        let e = ValExpr::Mul(vec![
            ValExpr::Const(Value::Int(3)),
            ValExpr::Add(vec![
                ValExpr::Const(Value::Int(1)),
                ValExpr::Const(Value::Int(4)),
            ]),
        ]);
        assert_eq!(e.fold_const(), Some(Value::Int(15)));
        let with_var = ValExpr::Mul(vec![ValExpr::var("X"), ValExpr::Const(Value::Int(2))]);
        assert_eq!(with_var.fold_const(), None);
    }

    #[test]
    fn size_counts_nodes() {
        assert!(sample().size() >= 6);
        assert_eq!(CalcExpr::one().size(), 1);
    }
}
