//! The delta transformation.
//!
//! An event on `R(a1..ak)` is one tuple, its fields named by fresh trigger
//! variables `a1..ak`, with an integer weight `w`: `+1` for an insert,
//! `−1` for a delete (a row of a Z-set, as in DBSP). `delta(e)` is a
//! calculus expression over the trigger variables and `w` denoting how the
//! value of `e` changes, so one delta serves both event kinds:
//!
//! * `ΔR(x1..xk) = w * [x1 = a1] * ... * [xk = ak]` (so a self-join's
//!   second-order term carries `w·w`, which is `+1` for both kinds and
//!   stays exact for any other weight),
//! * deltas of constants, value expressions, comparisons and references
//!   to already-materialized maps are zero (maps are maintained by their
//!   own triggers),
//! * `Δ(A·B) = ΔA·B + A·ΔB + ΔA·ΔB` (the discrete product rule — the
//!   second-order term is what makes the transformation exact rather than
//!   an approximation),
//! * `Δ(A+B) = ΔA + ΔB`, `Δ(−A) = −ΔA`, `Δ AggSum(G, e) = AggSum(G, Δe)`,
//! * `Δ Lift(x, e) = Lift(x, e + Δe) − Lift(x, e)` when `Δe ≠ 0`
//!   (likewise for `Exists`).
//!
//! Note the soundness condition on the zero rules: `Δ MapRef = 0` holds
//! because delta statements read maps at their *pre-event* version (each
//! map absorbs the event through its own trigger), and `Δ Lift = 0` for
//! a body with `Δbody = 0` holds only when the body is *static* — it
//! mentions no base relation. Dynamic nested bodies
//! ([`crate::CalcExpr::contains_dynamic_nested`]) are not deltified here;
//! the compiler's materialization hierarchy extracts them into child
//! maps and maintains the enclosing map by an exact retract/rebuild
//! bracket around the children's delta updates (the higher-order delta
//! processing of the VLDB 2012 follow-up paper), with full re-evaluation
//! (`Replace`) retained only as a debug/oracle mode.

use crate::expr::{CalcExpr, CmpOp, ValExpr, Var};

/// The trigger argument bound to the event's weight (`+1` insert, `−1`
/// delete); it cannot collide, as every other variable has an underscore.
pub const WEIGHT: &str = "w";

/// Trigger-argument variable names for an event on `relation` with the
/// given column names: one lower-cased `relation_column` name per column,
/// in schema order, which keeps the generated programs readable (`r_a`,
/// `r_b` for `R(A, B)`, the paper's `a`, `b` in Figure 2), then the
/// event weight [`WEIGHT`].
pub fn trigger_args(relation: &str, columns: &[String]) -> Vec<Var> {
    columns
        .iter()
        .map(|c| {
            format!(
                "{}_{}",
                relation.to_ascii_lowercase(),
                c.to_ascii_lowercase()
            )
        })
        .chain(std::iter::once(WEIGHT.to_string()))
        .collect()
}

/// Compute the delta of `expr` for a weighted single-tuple event on
/// `relation`, whose tuple fields are bound to the trigger variables
/// `args` ([`trigger_args`]: one per column, then the weight).
pub fn delta(expr: &CalcExpr, relation: &str, args: &[Var]) -> CalcExpr {
    match expr {
        CalcExpr::Val(_) | CalcExpr::Cmp { .. } | CalcExpr::MapRef { .. } => CalcExpr::zero(),
        CalcExpr::Rel { name, vars } => {
            if name != relation {
                return CalcExpr::zero();
            }
            debug_assert_eq!(
                vars.len() + 1,
                args.len(),
                "trigger arity mismatch for relation {relation}"
            );
            let weight = CalcExpr::Val(ValExpr::var(WEIGHT));
            let eqs = vars.iter().zip(args.iter()).map(|(v, a)| CalcExpr::Cmp {
                op: CmpOp::Eq,
                left: ValExpr::Var(v.clone()),
                right: ValExpr::Var(a.clone()),
            });
            CalcExpr::product(std::iter::once(weight).chain(eqs).collect())
        }
        CalcExpr::Sum(terms) => {
            CalcExpr::sum(terms.iter().map(|t| delta(t, relation, args)).collect())
        }
        CalcExpr::Neg(e) => {
            let d = delta(e, relation, args);
            if d.is_zero() {
                CalcExpr::zero()
            } else {
                CalcExpr::Neg(Box::new(d))
            }
        }
        CalcExpr::Prod(factors) => delta_product(factors, relation, args),
        CalcExpr::AggSum { group, body } => {
            let d = delta(body, relation, args);
            if d.is_zero() {
                CalcExpr::zero()
            } else {
                CalcExpr::agg_sum(group.clone(), d)
            }
        }
        CalcExpr::Lift { var, body } => {
            let d = delta(body, relation, args);
            if d.is_zero() {
                CalcExpr::zero()
            } else {
                // New lift value minus old lift value.
                CalcExpr::sum(vec![
                    CalcExpr::Lift {
                        var: var.clone(),
                        body: Box::new(CalcExpr::sum(vec![(**body).clone(), d])),
                    },
                    CalcExpr::Neg(Box::new(CalcExpr::Lift {
                        var: var.clone(),
                        body: body.clone(),
                    })),
                ])
            }
        }
        CalcExpr::Exists(body) => {
            let d = delta(body, relation, args);
            if d.is_zero() {
                CalcExpr::zero()
            } else {
                CalcExpr::sum(vec![
                    CalcExpr::Exists(Box::new(CalcExpr::sum(vec![(**body).clone(), d]))),
                    CalcExpr::Neg(Box::new(CalcExpr::Exists(body.clone()))),
                ])
            }
        }
    }
}

/// `Δ(f1 · f2 · ... · fn)` by the discrete product rule, computed
/// recursively as `Δf1·rest + f1·Δrest + Δf1·Δrest`.
fn delta_product(factors: &[CalcExpr], relation: &str, args: &[Var]) -> CalcExpr {
    match factors.len() {
        0 => CalcExpr::zero(),
        1 => delta(&factors[0], relation, args),
        _ => {
            let head = &factors[0];
            let rest = &factors[1..];
            let d_head = delta(head, relation, args);
            let rest_expr = CalcExpr::product(rest.to_vec());
            let d_rest = delta_product(rest, relation, args);

            let mut terms = Vec::new();
            if !d_head.is_zero() {
                terms.push(CalcExpr::product(vec![d_head.clone(), rest_expr.clone()]));
            }
            if !d_rest.is_zero() {
                terms.push(CalcExpr::product(vec![head.clone(), d_rest.clone()]));
            }
            if !d_head.is_zero() && !d_rest.is_zero() {
                terms.push(CalcExpr::product(vec![d_head, d_rest]));
            }
            CalcExpr::sum(terms)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trigger arguments: the given column variables, then the weight.
    fn args(columns: &[&str]) -> Vec<Var> {
        columns
            .iter()
            .map(|c| c.to_string())
            .chain(std::iter::once(WEIGHT.to_string()))
            .collect()
    }

    fn rst_body() -> CalcExpr {
        CalcExpr::product(vec![
            CalcExpr::rel("R", vec!["R_A", "R_B"]),
            CalcExpr::rel("S", vec!["S_B", "S_C"]),
            CalcExpr::rel("T", vec!["T_C", "T_D"]),
            CalcExpr::eq_vars("R_B", "S_B"),
            CalcExpr::eq_vars("S_C", "T_C"),
            CalcExpr::Val(ValExpr::var("R_A")),
            CalcExpr::Val(ValExpr::var("T_D")),
        ])
    }

    #[test]
    fn delta_of_an_unrelated_relation_is_zero() {
        let e = CalcExpr::rel("S", vec!["B", "C"]);
        assert!(delta(&e, "R", &args(&["a", "b"])).is_zero());
    }

    #[test]
    fn delta_of_a_relation_atom_is_the_weight_times_equalities() {
        let e = CalcExpr::rel("R", vec!["R_A", "R_B"]);
        let d = delta(&e, "R", &args(&["r_a", "r_b"]));
        assert_eq!(d.to_string(), "(w * [R_A = r_a] * [R_B = r_b])");
    }

    #[test]
    fn delta_of_constants_maps_and_comparisons_is_zero() {
        let args = args(&["x"]);
        assert!(delta(&CalcExpr::constant(5), "R", &args).is_zero());
        assert!(delta(&CalcExpr::map_ref("Q_D", vec!["B"]), "R", &args).is_zero());
        assert!(delta(&CalcExpr::eq_vars("X", "Y"), "R", &args).is_zero());
    }

    #[test]
    fn product_rule_produces_one_first_order_term_for_single_occurrence() {
        // Only R mentions relation R, so ΔR·rest is the only non-zero term.
        let d = delta(&rst_body(), "R", &args(&["a", "b"]));
        match &d {
            CalcExpr::Prod(_) => {}
            CalcExpr::Sum(ts) => panic!("expected a single product term, got {} terms", ts.len()),
            other => panic!("unexpected delta {other}"),
        }
        let s = d.to_string();
        assert!(s.contains("[R_A = a]"));
        assert!(s.contains("S(S_B, S_C)"));
        assert!(
            !s.contains("R(R_A, R_B)"),
            "the R atom must be replaced by equalities: {s}"
        );
    }

    #[test]
    fn self_join_delta_has_a_second_order_term_weighted_twice() {
        // sum over R(x) x R(y): delta has 3 terms including ΔR·ΔR.
        let e = CalcExpr::product(vec![
            CalcExpr::rel("R", vec!["X"]),
            CalcExpr::rel("R", vec!["Y"]),
        ]);
        let d = delta(&e, "R", &args(&["v"]));
        let CalcExpr::Sum(ts) = &d else {
            panic!("expected 3-term sum, got {d}");
        };
        assert_eq!(ts.len(), 3);
        // The first-order terms carry w once; ΔR·ΔR carries w·w, which a
        // delete's w = −1 turns into +1.
        let weights: Vec<usize> = ts
            .iter()
            .map(|t| t.to_string().matches("w *").count())
            .collect();
        assert_eq!(weights, vec![1, 1, 2], "{d}");
    }

    #[test]
    fn delta_commutes_with_aggsum() {
        let e = CalcExpr::agg_sum(vec!["R_B".into()], rst_body());
        let d = delta(&e, "T", &args(&["c", "d"]));
        match d {
            CalcExpr::AggSum { group, .. } => assert_eq!(group, vec!["R_B".to_string()]),
            other => panic!("expected AggSum, got {other}"),
        }
    }

    #[test]
    fn lift_delta_is_new_minus_old_and_zero_when_body_is_static() {
        let body = CalcExpr::agg_sum(
            vec![],
            CalcExpr::product(vec![
                CalcExpr::rel("BIDS", vec!["P", "V"]),
                CalcExpr::Val(ValExpr::var("V")),
            ]),
        );
        let lift = CalcExpr::Lift {
            var: "total".into(),
            body: Box::new(body),
        };
        let d = delta(&lift, "BIDS", &args(&["p", "v"]));
        match &d {
            CalcExpr::Sum(ts) => {
                assert_eq!(ts.len(), 2);
                assert!(matches!(ts[1], CalcExpr::Neg(_)));
            }
            other => panic!("expected new-minus-old, got {other}"),
        }
        assert!(delta(&lift, "ASKS", &args(&["p", "v"])).is_zero());
    }

    #[test]
    fn trigger_args_are_readable_and_end_with_the_weight() {
        let args = trigger_args("R", &["A".into(), "B".into()]);
        assert_eq!(args, vec!["r_a", "r_b", WEIGHT]);
    }
}
