//! Translation of analyzed SQL queries into calculus map definitions.
//!
//! A bound query
//!
//! ```sql
//! SELECT g1, ..., gk, sum(f), count(*), ...
//! FROM   R1 a1, ..., Rn an
//! WHERE  p
//! GROUP BY g1, ..., gk
//! ```
//!
//! becomes, per aggregate, one *top-level map definition*
//!
//! ```text
//! Q_agg[g1..gk] := AggSum([g1..gk], R1(...) * ... * Rn(...) * ⟦p⟧ * ⟦f⟧)
//! ```
//!
//! where `⟦p⟧` is the predicate translated into 0/1-valued calculus
//! factors (conjunction → product, disjunction → inclusion–exclusion,
//! negation → `1 − p`, scalar subqueries → `Lift`, `EXISTS` → `Exists`)
//! and `⟦f⟧` is the aggregated value expression. An `OR` of two constant
//! pins on one column (`P_MFGR = 'MFGR#1' or P_MFGR = 'MFGR#2'`) costs two
//! monomials, not three: the simplifier folds the `a ∧ b` term to 0.
//! `AVG` produces a sum-map/count-map pair combined at result-access time;
//! `MIN`/`MAX` produce a *support map* keyed by the aggregated column
//! whose extrema are read lazily (see `ResultColumn::Extremum`).

use dbtoaster_common::{Error, Result};
use dbtoaster_sql::{AggKind, BoundAgg, BoundExpr, BoundQuery, BoundSelectItem};
use serde::{Deserialize, Serialize};

use crate::expr::{CalcExpr, CmpOp, ValExpr, Var};

/// A map that must be materialized and maintained for the query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggSpec {
    /// Map name (`Q`, `Q_PROFIT`, `Q_PROFIT_CNT`, ...).
    pub name: String,
    /// Key variables, in order.
    pub keys: Vec<Var>,
    /// Calculus definition: `AggSum(keys, body)`.
    pub definition: CalcExpr,
}

/// How one output column of the standing query is computed from the
/// maintained maps when a client reads the result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResultColumn {
    /// A group-by column: the i-th key of the result maps.
    Group { name: String, var: Var },
    /// A `SUM`/`COUNT` aggregate read directly from `map`.
    Sum { name: String, map: String },
    /// `AVG` = `sum_map[k] / count_map[k]`.
    Avg {
        name: String,
        sum_map: String,
        count_map: String,
    },
    /// `MIN`/`MAX` read from a support map keyed by `group ++ [value]`:
    /// the extremum over entries with positive multiplicity.
    Extremum {
        name: String,
        map: String,
        is_min: bool,
    },
}

impl ResultColumn {
    /// The output column name.
    pub fn name(&self) -> &str {
        match self {
            ResultColumn::Group { name, .. }
            | ResultColumn::Sum { name, .. }
            | ResultColumn::Avg { name, .. }
            | ResultColumn::Extremum { name, .. } => name,
        }
    }
}

/// The calculus-level form of a standing query: what to materialize and
/// how to assemble results from the materialized maps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryCalc {
    /// Group-by variables (the key of every top-level map except extremum
    /// support maps, which append the aggregated column).
    pub group_vars: Vec<Var>,
    /// Output columns in `SELECT` order.
    pub columns: Vec<ResultColumn>,
    /// Top-level maps to compile and maintain.
    pub maps: Vec<AggSpec>,
    /// Base relations referenced by the query: `(name, column vars,
    /// is_static)` per instance, for trigger enumeration.
    pub relations: Vec<(String, Vec<Var>, bool)>,
}

/// Translate a bound query into calculus map definitions.
pub fn translate_query(query: &BoundQuery, result_prefix: &str) -> Result<QueryCalc> {
    let mut t = Translator { fresh: 0 };
    t.translate(query, result_prefix)
}

struct Translator {
    fresh: usize,
}

impl Translator {
    fn fresh_var(&mut self, hint: &str) -> Var {
        self.fresh += 1;
        format!("__{hint}{}", self.fresh)
    }

    fn translate(&mut self, query: &BoundQuery, prefix: &str) -> Result<QueryCalc> {
        let group_vars: Vec<Var> = query.group_by.iter().map(|c| c.var.clone()).collect();

        // Join graph + predicate, shared by every aggregate of the query.
        let base_body = self.query_body(query)?;

        let mut maps = Vec::new();
        let mut columns = Vec::new();
        let mut agg_index = 0usize;

        for item in &query.select {
            match item {
                BoundSelectItem::GroupColumn { column, name } => {
                    columns.push(ResultColumn::Group {
                        name: name.clone(),
                        var: column.var.clone(),
                    });
                }
                BoundSelectItem::Aggregate(agg) => {
                    agg_index += 1;
                    let single = query.aggregates().len() == 1;
                    let base_name = if single && prefix == "Q" {
                        "Q".to_string()
                    } else {
                        format!("{prefix}_{}", agg.name)
                    };
                    self.translate_aggregate(
                        agg,
                        &base_name,
                        &group_vars,
                        &base_body,
                        &mut maps,
                        &mut columns,
                    )?;
                    let _ = agg_index;
                }
            }
        }

        let relations = query
            .relations
            .iter()
            .map(|r| (r.name.clone(), r.column_vars.clone(), r.is_static))
            .collect();

        Ok(QueryCalc {
            group_vars,
            columns,
            maps,
            relations,
        })
    }

    /// The product of relation atoms and predicate factors (no aggregate
    /// argument yet).
    fn query_body(&mut self, query: &BoundQuery) -> Result<CalcExpr> {
        let mut factors = Vec::new();
        for rel in &query.relations {
            factors.push(CalcExpr::Rel {
                name: rel.name.clone(),
                vars: rel.column_vars.clone(),
            });
        }
        if let Some(pred) = &query.predicate {
            factors.push(self.predicate(pred)?);
        }
        Ok(CalcExpr::product(factors))
    }

    fn translate_aggregate(
        &mut self,
        agg: &BoundAgg,
        base_name: &str,
        group_vars: &[Var],
        base_body: &CalcExpr,
        maps: &mut Vec<AggSpec>,
        columns: &mut Vec<ResultColumn>,
    ) -> Result<()> {
        match agg.kind {
            AggKind::Sum | AggKind::Count => {
                let value_factors = match &agg.arg {
                    Some(arg) if agg.kind == AggKind::Sum => self.value_factors(arg)?,
                    Some(arg) => {
                        // COUNT(expr) counts non-null rows; with the
                        // supported fragment expressions are never null, so
                        // the argument does not change the count.
                        let _ = arg;
                        vec![]
                    }
                    None => vec![],
                };
                let body = CalcExpr::product(
                    std::iter::once(base_body.clone())
                        .chain(value_factors)
                        .collect(),
                );
                maps.push(AggSpec {
                    name: base_name.to_string(),
                    keys: group_vars.to_vec(),
                    definition: CalcExpr::agg_sum(group_vars.to_vec(), body),
                });
                columns.push(ResultColumn::Sum {
                    name: agg.name.clone(),
                    map: base_name.to_string(),
                });
            }
            AggKind::Avg => {
                let arg = agg
                    .arg
                    .as_ref()
                    .ok_or_else(|| Error::Analysis("AVG requires an argument".to_string()))?;
                let sum_name = format!("{base_name}_SUM");
                let cnt_name = format!("{base_name}_CNT");
                let sum_body = CalcExpr::product(
                    std::iter::once(base_body.clone())
                        .chain(self.value_factors(arg)?)
                        .collect(),
                );
                maps.push(AggSpec {
                    name: sum_name.clone(),
                    keys: group_vars.to_vec(),
                    definition: CalcExpr::agg_sum(group_vars.to_vec(), sum_body),
                });
                maps.push(AggSpec {
                    name: cnt_name.clone(),
                    keys: group_vars.to_vec(),
                    definition: CalcExpr::agg_sum(group_vars.to_vec(), base_body.clone()),
                });
                columns.push(ResultColumn::Avg {
                    name: agg.name.clone(),
                    sum_map: sum_name,
                    count_map: cnt_name,
                });
            }
            AggKind::Min | AggKind::Max => {
                let arg = agg
                    .arg
                    .as_ref()
                    .ok_or_else(|| Error::Analysis("MIN/MAX require an argument".to_string()))?;
                // The aggregated expression must expose a single variable
                // to key the support map on; plain columns do, complex
                // expressions get a Lift binding.
                let (value_var, extra) = match arg {
                    BoundExpr::Column(c) => (c.var.clone(), None),
                    other => {
                        let v = self.fresh_var("minmax");
                        let val = self.value_expr(other)?;
                        (
                            v.clone(),
                            Some(CalcExpr::Lift {
                                var: v,
                                body: Box::new(CalcExpr::Val(val)),
                            }),
                        )
                    }
                };
                let mut keys = group_vars.to_vec();
                keys.push(value_var);
                let body =
                    CalcExpr::product(std::iter::once(base_body.clone()).chain(extra).collect());
                let map_name = format!("{base_name}_SUPP");
                maps.push(AggSpec {
                    name: map_name.clone(),
                    keys: keys.clone(),
                    definition: CalcExpr::agg_sum(keys, body),
                });
                columns.push(ResultColumn::Extremum {
                    name: agg.name.clone(),
                    map: map_name,
                    is_min: agg.kind == AggKind::Min,
                });
            }
        }
        Ok(())
    }

    /// Translate a boolean predicate into a 0/1-valued calculus factor.
    fn predicate(&mut self, expr: &BoundExpr) -> Result<CalcExpr> {
        use dbtoaster_sql::BinaryOp as B;
        match expr {
            BoundExpr::Binary {
                op: B::And,
                left,
                right,
            } => {
                let l = self.predicate(left)?;
                let r = self.predicate(right)?;
                Ok(CalcExpr::product(vec![l, r]))
            }
            BoundExpr::Binary {
                op: B::Or,
                left,
                right,
            } => {
                // a OR b = a + b - a*b for 0/1-valued a, b. When a and b
                // pin one column to two constants, the simplifier folds
                // a*b to 0, so the disjunction costs two monomials.
                let l = self.predicate(left)?;
                let r = self.predicate(right)?;
                Ok(CalcExpr::sum(vec![
                    l.clone(),
                    r.clone(),
                    CalcExpr::Neg(Box::new(CalcExpr::product(vec![l, r]))),
                ]))
            }
            BoundExpr::Unary {
                op: dbtoaster_sql::UnaryOp::Not,
                expr,
            } => {
                let inner = self.predicate(expr)?;
                Ok(CalcExpr::sum(vec![
                    CalcExpr::one(),
                    CalcExpr::Neg(Box::new(inner)),
                ]))
            }
            BoundExpr::Binary { op, left, right } if op.is_comparison() => {
                self.comparison(*op, left, right)
            }
            BoundExpr::Exists(sub) => {
                let body = self.scalar_subquery_body(sub)?;
                Ok(CalcExpr::Exists(Box::new(body)))
            }
            BoundExpr::Literal(v) => Ok(if v.as_bool() {
                CalcExpr::one()
            } else {
                CalcExpr::zero()
            }),
            other => Err(Error::Unsupported(format!(
                "predicate form not supported in WHERE clause: {other:?}"
            ))),
        }
    }

    /// Translate a comparison whose operands may include scalar
    /// subqueries.
    fn comparison(
        &mut self,
        op: dbtoaster_sql::BinaryOp,
        left: &BoundExpr,
        right: &BoundExpr,
    ) -> Result<CalcExpr> {
        use dbtoaster_sql::BinaryOp as B;
        let cmp_op = match op {
            B::Eq => CmpOp::Eq,
            B::NotEq => CmpOp::NotEq,
            B::Lt => CmpOp::Lt,
            B::LtEq => CmpOp::LtEq,
            B::Gt => CmpOp::Gt,
            B::GtEq => CmpOp::GtEq,
            other => {
                return Err(Error::Compile(format!(
                    "{other} is not a comparison operator"
                )))
            }
        };
        let mut lifts = Vec::new();
        let l = self.operand(left, &mut lifts)?;
        let r = self.operand(right, &mut lifts)?;
        let cmp = CalcExpr::Cmp {
            op: cmp_op,
            left: l,
            right: r,
        };
        lifts.push(cmp);
        Ok(CalcExpr::product(lifts))
    }

    /// Translate a comparison operand, emitting `Lift` factors for any
    /// scalar subqueries it contains.
    fn operand(&mut self, expr: &BoundExpr, lifts: &mut Vec<CalcExpr>) -> Result<ValExpr> {
        match expr {
            BoundExpr::Subquery(sub) => {
                let body = self.scalar_subquery_body(sub)?;
                let v = self.fresh_var("nested");
                lifts.push(CalcExpr::Lift {
                    var: v.clone(),
                    body: Box::new(body),
                });
                Ok(ValExpr::Var(v))
            }
            BoundExpr::Binary { op, left, right } if op.is_arithmetic() => {
                let l = self.operand(left, lifts)?;
                let r = self.operand(right, lifts)?;
                Ok(arith(*op, l, r))
            }
            BoundExpr::Unary {
                op: dbtoaster_sql::UnaryOp::Neg,
                expr,
            } => Ok(ValExpr::Neg(Box::new(self.operand(expr, lifts)?))),
            other => self.value_expr(other),
        }
    }

    /// The calculus body computing a scalar subquery's single aggregate.
    fn scalar_subquery_body(&mut self, sub: &BoundQuery) -> Result<CalcExpr> {
        let base = self.query_body(sub)?;
        let agg = sub.aggregates()[0];
        let body = match (agg.kind, &agg.arg) {
            (AggKind::Sum, Some(arg)) => CalcExpr::product(
                std::iter::once(base)
                    .chain(self.value_factors(arg)?)
                    .collect(),
            ),
            (AggKind::Count, _) => base,
            (kind, _) => {
                return Err(Error::Unsupported(format!(
                    "scalar subqueries support SUM and COUNT aggregates, found {kind:?}"
                )))
            }
        };
        Ok(CalcExpr::agg_sum(vec![], body))
    }

    /// Translate an aggregate argument into multiplicative Val factors —
    /// products are split into separate factors so the simplifier can pull
    /// trigger-variable factors out of `AggSum` independently (this is what
    /// turns `sum(A*D)` into `a * sum(D)` on an insert into R).
    fn value_factors(&mut self, expr: &BoundExpr) -> Result<Vec<CalcExpr>> {
        use dbtoaster_sql::BinaryOp as B;
        match expr {
            BoundExpr::Binary {
                op: B::Mul,
                left,
                right,
            } => {
                let mut l = self.value_factors(left)?;
                let r = self.value_factors(right)?;
                l.extend(r);
                Ok(l)
            }
            other => Ok(vec![CalcExpr::Val(self.value_expr(other)?)]),
        }
    }

    /// Translate a scalar expression with no subqueries.
    fn value_expr(&mut self, expr: &BoundExpr) -> Result<ValExpr> {
        match expr {
            BoundExpr::Column(c) => Ok(ValExpr::Var(c.var.clone())),
            BoundExpr::Literal(v) => Ok(ValExpr::Const(v.clone())),
            BoundExpr::Unary {
                op: dbtoaster_sql::UnaryOp::Neg,
                expr,
            } => Ok(ValExpr::Neg(Box::new(self.value_expr(expr)?))),
            BoundExpr::Binary { op, left, right } if op.is_arithmetic() => {
                let l = self.value_expr(left)?;
                let r = self.value_expr(right)?;
                Ok(arith(*op, l, r))
            }
            BoundExpr::Binary { op, .. } if op.is_comparison() => Err(Error::Unsupported(
                "comparisons are not supported inside aggregate arguments".into(),
            )),
            other => Err(Error::Unsupported(format!(
                "expression not supported in value position: {other:?}"
            ))),
        }
    }
}

fn arith(op: dbtoaster_sql::BinaryOp, l: ValExpr, r: ValExpr) -> ValExpr {
    use dbtoaster_sql::BinaryOp as B;
    match op {
        B::Add => ValExpr::Add(vec![l, r]),
        B::Sub => ValExpr::Add(vec![l, ValExpr::Neg(Box::new(r))]),
        B::Mul => ValExpr::Mul(vec![l, r]),
        B::Div => ValExpr::Div(Box::new(l), Box::new(r)),
        _ => unreachable!("arith called with non-arithmetic operator"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_common::{Catalog, ColumnType, Schema};
    use dbtoaster_sql::{analyze, parse_query};

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

    fn calc(sql: &str, cat: &Catalog) -> QueryCalc {
        let q = parse_query(sql).unwrap();
        let b = analyze(&q, cat).unwrap();
        translate_query(&b, "Q").unwrap()
    }

    #[test]
    fn figure2_query_translates_to_a_single_scalar_map() {
        let qc = calc(
            "select sum(A*D) from R, S, T where R.B=S.B and S.C=T.C",
            &rst_catalog(),
        );
        assert_eq!(qc.maps.len(), 1);
        let m = &qc.maps[0];
        assert_eq!(m.name, "Q");
        assert!(m.keys.is_empty());
        let s = m.definition.to_string();
        assert!(s.contains("R(R_A, R_B)"));
        assert!(s.contains("[R_B = S_B]"));
        assert!(s.contains("[S_C = T_C]"));
        // sum(A*D) splits into two Val factors.
        assert!(s.contains("* R_A") && s.contains("* T_D"));
        assert_eq!(qc.relations.len(), 3);
    }

    #[test]
    fn group_by_keys_become_map_keys() {
        let qc = calc("select B, sum(A) from R group by B", &rst_catalog());
        assert_eq!(qc.group_vars, vec!["R_B".to_string()]);
        assert_eq!(qc.maps[0].keys, vec!["R_B".to_string()]);
        assert!(matches!(qc.columns[0], ResultColumn::Group { .. }));
        assert!(matches!(qc.columns[1], ResultColumn::Sum { .. }));
    }

    #[test]
    fn avg_produces_sum_and_count_maps() {
        let qc = calc("select avg(PRICE) from BIDS", &bids_catalog());
        assert_eq!(qc.maps.len(), 2);
        assert!(matches!(&qc.columns[0], ResultColumn::Avg { .. }));
        assert!(qc.maps.iter().any(|m| m.name.ends_with("_SUM")));
        assert!(qc.maps.iter().any(|m| m.name.ends_with("_CNT")));
    }

    #[test]
    fn min_produces_a_support_map_keyed_by_the_value() {
        let qc = calc(
            "select BROKER_ID, min(PRICE) from BIDS group by BROKER_ID",
            &bids_catalog(),
        );
        let supp = qc.maps.iter().find(|m| m.name.ends_with("_SUPP")).unwrap();
        assert_eq!(
            supp.keys,
            vec!["BIDS_BROKER_ID".to_string(), "BIDS_PRICE".to_string()]
        );
        assert!(matches!(
            qc.columns[1],
            ResultColumn::Extremum { is_min: true, .. }
        ));
    }

    #[test]
    fn or_predicates_use_inclusion_exclusion() {
        let qc = calc("select sum(A) from R where B = 1 or B = 2", &rst_catalog());
        let s = qc.maps[0].definition.to_string();
        // a + b - a*b
        assert!(s.contains("[R_B = 1]"));
        assert!(s.contains("[R_B = 2]"));
        assert!(s.contains("-("));
        // [R_B = 1] * [R_B = 2] is identically zero: two monomials remain.
        let poly = crate::simplify::to_polynomial(&qc.maps[0].definition, &Default::default());
        assert_eq!(poly.terms.len(), 2, "{}", poly.to_expr());
    }

    #[test]
    fn nested_scalar_subquery_becomes_a_lift() {
        let qc = calc(
            "select sum(b1.PRICE * b1.VOLUME) from BIDS b1 \
             where 0.25 * (select sum(b3.VOLUME) from BIDS b3) > \
                   (select sum(b2.VOLUME) from BIDS b2 where b2.PRICE > b1.PRICE)",
            &bids_catalog(),
        );
        let s = qc.maps[0].definition.to_string();
        assert!(s.contains(":= AggSum"), "expected Lift factors, got {s}");
        assert!(s.contains("BIDS(B2_T, B2_ID, B2_BROKER_ID, B2_VOLUME, B2_PRICE)"));
        assert!(s.contains("[B2_PRICE > B1_PRICE]"));
    }

    #[test]
    fn exists_subqueries_become_exists_factors() {
        let qc = calc(
            "select count(*) from BIDS b where exists \
             (select 1 from BIDS c where c.PRICE = b.PRICE)",
            &bids_catalog(),
        );
        let s = qc.maps[0].definition.to_string();
        assert!(s.contains("Exists("));
    }

    #[test]
    fn count_star_has_no_value_factor() {
        let qc = calc("select count(*) from R", &rst_catalog());
        let s = qc.maps[0].definition.to_string();
        assert_eq!(s, "AggSum([], R(R_A, R_B))");
    }

    #[test]
    fn ssb_q41_shape() {
        let cat = Catalog::new()
            .with(Schema::new(
                "LINEORDER",
                vec![
                    ("LO_CUSTKEY", ColumnType::Int),
                    ("LO_SUPPKEY", ColumnType::Int),
                    ("LO_PARTKEY", ColumnType::Int),
                    ("LO_ORDERDATE", ColumnType::Int),
                    ("LO_REVENUE", ColumnType::Float),
                    ("LO_SUPPLYCOST", ColumnType::Float),
                ],
            ))
            .with(Schema::new(
                "CUSTOMER",
                vec![
                    ("C_CUSTKEY", ColumnType::Int),
                    ("C_NATION", ColumnType::Str),
                    ("C_REGION", ColumnType::Str),
                ],
            ))
            .with(Schema::new(
                "SUPPLIER",
                vec![
                    ("S_SUPPKEY", ColumnType::Int),
                    ("S_REGION", ColumnType::Str),
                ],
            ))
            .with(Schema::new(
                "PART",
                vec![("P_PARTKEY", ColumnType::Int), ("P_MFGR", ColumnType::Str)],
            ))
            .with(Schema::new(
                "DATES",
                vec![("D_DATEKEY", ColumnType::Int), ("D_YEAR", ColumnType::Int)],
            ));
        let qc = calc(
            "select D_YEAR, C_NATION, sum(LO_REVENUE - LO_SUPPLYCOST) as PROFIT \
             from DATES, CUSTOMER, SUPPLIER, PART, LINEORDER \
             where LO_CUSTKEY = C_CUSTKEY and LO_SUPPKEY = S_SUPPKEY \
               and LO_PARTKEY = P_PARTKEY and LO_ORDERDATE = D_DATEKEY \
               and C_REGION = 'AMERICA' and S_REGION = 'AMERICA' \
               and (P_MFGR = 'MFGR#1' or P_MFGR = 'MFGR#2') \
             group by D_YEAR, C_NATION",
            &cat,
        );
        assert_eq!(qc.maps.len(), 1);
        assert_eq!(qc.maps[0].keys.len(), 2);
        assert_eq!(qc.relations.len(), 5);
        assert_eq!(qc.columns.len(), 3);
    }
}
