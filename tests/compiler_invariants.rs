//! Compiler invariants over every workload query, under every compile
//! mode: each program has one weighted trigger per relation; within a
//! trigger's delta stage no statement reads a map an earlier statement
//! wrote (delta statements read pre-event state); no program materializes
//! one map twice — not even under a permutation of its keys — and no
//! generated map or statement keeps two constant pins on one variable
//! (`[P_MFGR = 'MFGR#1'] * [P_MFGR = 'MFGR#2']` is identically zero and
//! must be folded away, not maintained). SSB Q4.1's map and statement
//! counts are pinned at what those rules bring it to.

use std::collections::{BTreeMap, BTreeSet};

use dbtoaster::calculus::{canonical_form, canonical_key_order, CalcExpr, CmpOp, ValExpr, WEIGHT};
use dbtoaster::compiler::{compile_sql, CompileOptions, TriggerProgram, STAGE_DELTA};
use dbtoaster::prelude::*;
use dbtoaster::workloads::orderbook::{finance_queries, orderbook_catalog, VWAP_NESTED};
use dbtoaster::workloads::tpch::{ssb_catalog, SSB_Q41, SSB_REVENUE_BY_YEAR};

/// The paper's Figure-2 query.
const RST: &str = "select sum(A*D) from R, S, T where R.B = S.B and S.C = T.C";

/// A self-join with two aggregates: the second result map's delta
/// statements join a trigger the first already filled.
const SELF_JOIN: &str = "select count(*), sum(r1.A * r2.A) from R r1, R r2 where r1.B = r2.B";

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

/// Every workload query, Figure 2 and a two-aggregate self-join compiled
/// under every mode, labelled.
fn programs() -> Vec<(String, TriggerProgram)> {
    let mut queries: Vec<(&str, &str, Catalog)> = finance_queries()
        .into_iter()
        .map(|(name, sql)| (name, sql, orderbook_catalog()))
        .collect();
    queries.push(("vwap_nested", VWAP_NESTED, orderbook_catalog()));
    queries.push(("ssb_q41", SSB_Q41, ssb_catalog()));
    queries.push(("ssb_revenue_by_year", SSB_REVENUE_BY_YEAR, ssb_catalog()));
    queries.push(("figure2", RST, rst_catalog()));
    queries.push(("self_join", SELF_JOIN, rst_catalog()));
    let mut out = Vec::new();
    for (name, sql, catalog) in queries {
        for (mode, options) in [
            ("full", CompileOptions::full()),
            ("depth 1", CompileOptions::with_depth(1)),
            ("depth 2", CompileOptions::with_depth(2)),
            ("nested replace", CompileOptions::nested_replace()),
        ] {
            let program = compile_sql(sql, &catalog, &options).unwrap();
            out.push((format!("{name} ({mode})"), program));
        }
    }
    out
}

/// A map's form up to variable renaming, factor order *and* key order.
fn form_up_to_key_order(keys: &[String], definition: &CalcExpr) -> String {
    let body = match definition {
        CalcExpr::AggSum { group, body } if group == keys => body,
        other => other,
    };
    canonical_form(&canonical_key_order(keys, body), body)
}

#[test]
fn no_program_materializes_a_map_twice_under_any_key_order() {
    for (label, program) in programs() {
        let mut seen: BTreeMap<String, &str> = BTreeMap::new();
        for map in &program.maps {
            let form = form_up_to_key_order(&map.keys, &map.definition);
            if let Some(first) = seen.insert(form, &map.name) {
                panic!("{label}: {first} and {} are one map", map.name);
            }
        }
    }
}

/// Variables pinned to a constant by a direct factor of `factors`.
fn pinned_vars(factors: &[CalcExpr]) -> Vec<&str> {
    factors
        .iter()
        .filter_map(|f| match f {
            CalcExpr::Cmp {
                op: CmpOp::Eq,
                left: ValExpr::Var(v),
                right: c,
            }
            | CalcExpr::Cmp {
                op: CmpOp::Eq,
                left: c,
                right: ValExpr::Var(v),
            } if c.fold_const().is_some() => Some(v.as_str()),
            _ => None,
        })
        .collect()
}

/// Panic if any product anywhere in `expr` pins one variable twice.
fn assert_single_pins(expr: &CalcExpr, context: &str) {
    let children: Vec<&CalcExpr> = match expr {
        CalcExpr::Prod(fs) => {
            let mut pinned = pinned_vars(fs);
            pinned.sort_unstable();
            if let Some(w) = pinned.windows(2).find(|w| w[0] == w[1]) {
                panic!("{context}: {} is pinned twice in {expr}", w[0]);
            }
            fs.iter().collect()
        }
        CalcExpr::Sum(ts) => ts.iter().collect(),
        CalcExpr::Neg(e) | CalcExpr::Exists(e) => vec![&**e],
        CalcExpr::AggSum { body, .. } | CalcExpr::Lift { body, .. } => vec![&**body],
        CalcExpr::Val(_)
        | CalcExpr::Cmp { .. }
        | CalcExpr::Rel { .. }
        | CalcExpr::MapRef { .. } => Vec::new(),
    };
    for child in children {
        assert_single_pins(child, context);
    }
}

#[test]
fn no_generated_map_or_statement_pins_a_variable_twice() {
    for (label, program) in programs() {
        // Result maps hold the query as written (Q4.1's `OR` included);
        // what the compiler generates and executes must be folded.
        let result_maps: Vec<&str> = program.query.maps.iter().map(|m| m.name.as_str()).collect();
        for map in program
            .maps
            .iter()
            .filter(|m| !result_maps.contains(&m.name.as_str()))
        {
            assert_single_pins(&map.definition, &format!("{label}, map {}", map.name));
        }
        for trigger in &program.triggers {
            for statement in &trigger.statements {
                let context = format!("{label}, {}", trigger.handler_name());
                assert_single_pins(&statement.update, &context);
            }
        }
    }
}

#[test]
fn every_program_has_one_weighted_trigger_per_relation() {
    for (label, program) in programs() {
        let mut relations = BTreeSet::new();
        for trigger in &program.triggers {
            assert!(
                relations.insert(&trigger.relation),
                "{label}: two triggers for {}",
                trigger.relation
            );
            assert_eq!(
                trigger.args.last().map(String::as_str),
                Some(WEIGHT),
                "{label}: {} does not take the event weight",
                trigger.handler_name()
            );
        }
    }
}

#[test]
fn no_delta_statement_reads_a_map_an_earlier_one_wrote() {
    for (label, program) in programs() {
        for trigger in &program.triggers {
            let mut written = BTreeSet::new();
            for statement in trigger.statements.iter().filter(|s| s.stage == STAGE_DELTA) {
                for read in statement.update.map_refs() {
                    assert!(
                        !written.contains(&read),
                        "{label}, {}: {read} is read after its update in `{statement}`",
                        trigger.handler_name()
                    );
                }
                written.insert(statement.target.clone());
            }
        }
    }
}

#[test]
fn ssb_q41_compiles_to_at_most_50_maps_and_157_statements() {
    let program = compile_sql(SSB_Q41, &ssb_catalog(), &CompileOptions::full()).unwrap();
    assert!(program.maps.len() <= 50, "{} maps", program.maps.len());
    assert!(
        program.statement_count() <= 157,
        "{} statements",
        program.statement_count()
    );
}
