//! Canonical forms for map sharing.
//!
//! The paper notes that "we can exploit map sharing opportunities across
//! event handler functions": the maintenance of `q` on an insert into S
//! reuses the maps `qA[b]` and `qD[c]` that were created for inserts into
//! R and T. Two candidate maps can be shared when their definitions are
//! identical up to renaming of variables, so the compiler keys its map
//! registry by the canonical string produced here.
//!
//! The canonicalization sorts product factors by a name-insensitive
//! structural key, renames the map's key variables positionally (`__K0`,
//! `__K1`, ...), and then renames every remaining variable in traversal
//! order (`__V0`, `__V1`, ...). The form itself is positional in the keys;
//! the compiler makes sharing invariant under key order too (as the
//! higher-order follow-up does) by first putting a new map's keys in
//! [`canonical_key_order`] — each key's first occurrence in the sorted
//! body — so the same map requested under any permutation of its key
//! list gets one form and one declared key order. Factors of equal
//! structure are ordered by the relation slots their variables occupy, so
//! `[C_REGION = 'AMERICA'] * [S_REGION = 'AMERICA']` sorts the same way
//! whichever filter the query wrote first. A failure to identify two
//! structurally equal definitions merely creates a duplicate map (a missed
//! optimization, never an error), so remaining ties in the factor ordering
//! are acceptable.

use std::collections::BTreeMap;

use crate::expr::{CalcExpr, Var};

/// Produce a canonical string for a map definition with the given key
/// variables. Positional in the keys: `__K<i>` names `keys[i]`.
pub fn canonical_form(keys: &[Var], definition: &CalcExpr) -> String {
    let sorted = sort_structurally(definition);
    let mut renaming: BTreeMap<Var, Var> = BTreeMap::new();
    for (i, k) in keys.iter().enumerate() {
        renaming.insert(k.clone(), format!("__K{i}"));
    }
    let mut counter = 0usize;
    for v in occurrence_order(&sorted) {
        renaming.entry(v).or_insert_with(|| {
            counter += 1;
            format!("__V{}", counter - 1)
        });
    }
    let renamed = sorted.rename(&|v| renaming.get(v).cloned());
    format!("[{}] {renamed}", keys.len())
}

/// `keys` reordered by each key's first occurrence in the structurally
/// sorted definition (keys it never mentions go last, in caller order).
/// Every permutation of one key list comes back in the same order, so
/// [`canonical_form`] over the result identifies maps up to key order.
pub fn canonical_key_order(keys: &[Var], definition: &CalcExpr) -> Vec<Var> {
    let order = occurrence_order(&sort_structurally(definition));
    let mut keys = keys.to_vec();
    keys.sort_by_key(|k| order.iter().position(|v| v == k).unwrap_or(usize::MAX));
    keys
}

/// Recursively sort the factors of products and the terms of sums by a
/// structural key that ignores variable names, so that re-orderings do
/// not defeat sharing.
fn sort_structurally(expr: &CalcExpr) -> CalcExpr {
    match expr {
        CalcExpr::Prod(fs) => {
            let mut sorted: Vec<CalcExpr> = fs.iter().map(sort_structurally).collect();
            // Factors of equal structure (two region filters, the atoms of
            // a self-join) are told apart by where their variables sit in
            // the product's relation and map atoms — also name-insensitive.
            let anchors = atom_positions(&sorted);
            sorted.sort_by_cached_key(|f| {
                let anchored: Vec<&[String]> = occurrence_order(f)
                    .iter()
                    .map(|v| anchors.get(v).map_or(&[][..], Vec::as_slice))
                    .collect();
                (structural_key(f), anchored)
            });
            CalcExpr::Prod(sorted)
        }
        CalcExpr::Sum(ts) => {
            let mut sorted: Vec<CalcExpr> = ts.iter().map(sort_structurally).collect();
            sorted.sort_by_key(structural_key);
            CalcExpr::Sum(sorted)
        }
        CalcExpr::Neg(e) => CalcExpr::Neg(Box::new(sort_structurally(e))),
        CalcExpr::AggSum { group, body } => CalcExpr::AggSum {
            group: group.clone(),
            body: Box::new(sort_structurally(body)),
        },
        CalcExpr::Lift { var, body } => CalcExpr::Lift {
            var: var.clone(),
            body: Box::new(sort_structurally(body)),
        },
        CalcExpr::Exists(e) => CalcExpr::Exists(Box::new(sort_structurally(e))),
        other => other.clone(),
    }
}

/// Each variable's `relation.position` slots among the relation atoms and
/// map references of one product.
fn atom_positions(factors: &[CalcExpr]) -> BTreeMap<Var, Vec<String>> {
    let mut anchors: BTreeMap<Var, Vec<String>> = BTreeMap::new();
    for factor in factors {
        if let CalcExpr::Rel { name, vars } | CalcExpr::MapRef { name, keys: vars } = factor {
            for (i, v) in vars.iter().enumerate() {
                anchors
                    .entry(v.clone())
                    .or_default()
                    .push(format!("{name}.{i}"));
            }
        }
    }
    for slots in anchors.values_mut() {
        slots.sort();
    }
    anchors
}

/// A sort key that depends only on structure (node kind, relation / map
/// names, arities), never on variable names.
fn structural_key(expr: &CalcExpr) -> String {
    match expr {
        CalcExpr::Val(v) => format!("0:val:{}", v.vars().len()),
        CalcExpr::Cmp { op, .. } => format!("1:cmp:{op}"),
        CalcExpr::Rel { name, vars } => format!("2:rel:{name}:{}", vars.len()),
        CalcExpr::MapRef { name, keys } => format!("3:map:{name}:{}", keys.len()),
        CalcExpr::AggSum { group, body } => {
            format!("4:agg:{}:{}", group.len(), structural_key(body))
        }
        CalcExpr::Lift { body, .. } => format!("5:lift:{}", structural_key(body)),
        CalcExpr::Exists(e) => format!("6:exists:{}", structural_key(e)),
        CalcExpr::Neg(e) => format!("7:neg:{}", structural_key(e)),
        CalcExpr::Prod(fs) => {
            format!(
                "8:prod:{}",
                fs.iter().map(structural_key).collect::<Vec<_>>().join(",")
            )
        }
        CalcExpr::Sum(ts) => {
            format!(
                "9:sum:{}",
                ts.iter().map(structural_key).collect::<Vec<_>>().join(",")
            )
        }
    }
}

/// Variables in order of first occurrence (pre-order traversal),
/// deduplicated.
fn occurrence_order(expr: &CalcExpr) -> Vec<Var> {
    fn walk(expr: &CalcExpr, out: &mut Vec<Var>) {
        let (own, children): (Vec<Var>, Vec<&CalcExpr>) = match expr {
            CalcExpr::Val(v) => (ordered_vars(v), Vec::new()),
            CalcExpr::Cmp { left, right, .. } => {
                let mut vars = ordered_vars(left);
                vars.extend(ordered_vars(right));
                (vars, Vec::new())
            }
            CalcExpr::Rel { vars, .. } | CalcExpr::MapRef { keys: vars, .. } => {
                (vars.clone(), Vec::new())
            }
            CalcExpr::Prod(fs) | CalcExpr::Sum(fs) => (Vec::new(), fs.iter().collect()),
            CalcExpr::Neg(e) | CalcExpr::Exists(e) => (Vec::new(), vec![&**e]),
            CalcExpr::AggSum { group, body } => (group.clone(), vec![&**body]),
            CalcExpr::Lift { var, body } => (vec![var.clone()], vec![&**body]),
        };
        for v in own {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        for child in children {
            walk(child, out);
        }
    }
    let mut out = Vec::new();
    walk(expr, &mut out);
    out
}

fn ordered_vars(v: &crate::expr::ValExpr) -> Vec<Var> {
    let mut out = Vec::new();
    v.collect_vars(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ValExpr;

    #[test]
    fn alpha_equivalent_definitions_share() {
        // sum_D(S(B, C) ⋈ T(C, D)) keyed by B, written with two different
        // variable namings and factor orders.
        let def1 = CalcExpr::agg_sum(
            vec![],
            CalcExpr::product(vec![
                CalcExpr::rel("S", vec!["B", "C"]),
                CalcExpr::rel("T", vec!["C", "D"]),
                CalcExpr::Val(ValExpr::var("D")),
            ]),
        );
        let def2 = CalcExpr::agg_sum(
            vec![],
            CalcExpr::product(vec![
                CalcExpr::Val(ValExpr::var("Z")),
                CalcExpr::rel("T", vec!["Y", "Z"]),
                CalcExpr::rel("S", vec!["X", "Y"]),
            ]),
        );
        let c1 = canonical_form(&["B".to_string()], &def1);
        let c2 = canonical_form(&["X".to_string()], &def2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn different_structures_do_not_share() {
        let def1 = CalcExpr::agg_sum(vec![], CalcExpr::rel("S", vec!["B", "C"]));
        let def2 = CalcExpr::agg_sum(vec![], CalcExpr::rel("T", vec!["B", "C"]));
        assert_ne!(
            canonical_form(&["B".to_string()], &def1),
            canonical_form(&["B".to_string()], &def2)
        );
    }

    #[test]
    fn key_position_matters() {
        // Different key variables stay different maps, with or without
        // canonical key ordering.
        let def = CalcExpr::agg_sum(vec![], CalcExpr::rel("S", vec!["B", "C"]));
        let form = |key: &str| {
            let keys = vec![key.to_string()];
            let ordered = canonical_form(&canonical_key_order(&keys, &def), &def);
            (canonical_form(&keys, &def), ordered)
        };
        let (by_b, by_b_ordered) = form("B");
        let (by_c, by_c_ordered) = form("C");
        assert_ne!(by_b, by_c);
        assert_ne!(by_b_ordered, by_c_ordered);
    }

    /// Every ordering of `items`.
    fn permutations(items: &[&str]) -> Vec<Vec<Var>> {
        if items.is_empty() {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for (i, first) in items.iter().enumerate() {
            let mut rest = items.to_vec();
            rest.remove(i);
            for mut tail in permutations(&rest) {
                tail.insert(0, first.to_string());
                out.push(tail);
            }
        }
        out
    }

    #[test]
    fn every_key_order_of_a_projection_has_one_form() {
        // sum(LO_REVENUE) of LINEORDER keyed by its four foreign keys: the
        // 24 key orders are one map, declared in first-occurrence order.
        let def = CalcExpr::product(vec![
            CalcExpr::Val(ValExpr::var("REV")),
            CalcExpr::rel("LINEORDER", vec!["O", "C", "S", "P", "D", "REV", "COST"]),
        ]);
        let orders = permutations(&["C", "S", "P", "D"]);
        assert_eq!(orders.len(), 24);
        let forms: std::collections::BTreeSet<String> = orders
            .iter()
            .map(|keys| {
                let ordered = canonical_key_order(keys, &def);
                assert_eq!(ordered, ["C", "S", "P", "D"]);
                canonical_form(&ordered, &def)
            })
            .collect();
        assert_eq!(forms.len(), 1, "{forms:?}");
        // Positionally, the permutations are still distinct forms.
        let positional: std::collections::BTreeSet<String> = orders
            .iter()
            .map(|keys| canonical_form(keys, &def))
            .collect();
        assert_eq!(positional.len(), 24);
    }

    #[test]
    fn equal_filters_are_ordered_by_the_atoms_they_constrain() {
        // Two `= 'AMERICA'` filters tie structurally; swapping them (a
        // reordered WHERE clause) must not change the form.
        let region = |v: &str| CalcExpr::Cmp {
            op: crate::expr::CmpOp::Eq,
            left: ValExpr::var(v),
            right: ValExpr::Const(dbtoaster_common::Value::str("AMERICA")),
        };
        let def = |first: &str, second: &str| {
            CalcExpr::product(vec![
                region(first),
                region(second),
                CalcExpr::rel("CUSTOMER", vec!["CK", "CN", "CR"]),
                CalcExpr::rel("SUPPLIER", vec!["SK", "SN", "SR"]),
            ])
        };
        let keys: Vec<Var> = vec!["CN".into()];
        assert_eq!(
            canonical_form(&keys, &def("CR", "SR")),
            canonical_form(&keys, &def("SR", "CR"))
        );
    }

    #[test]
    fn keys_the_definition_never_mentions_go_last() {
        let def = CalcExpr::rel("S", vec!["B", "C"]);
        let keys: Vec<Var> = ["X", "C", "B"].map(String::from).to_vec();
        assert_eq!(canonical_key_order(&keys, &def), ["B", "C", "X"]);
    }

    #[test]
    fn key_count_is_part_of_the_form() {
        let def = CalcExpr::agg_sum(vec![], CalcExpr::rel("S", vec!["B", "C"]));
        let one = canonical_form(&["B".to_string()], &def);
        let two = canonical_form(&["B".to_string(), "C".to_string()], &def);
        assert_ne!(one, two);
    }
}
