//! Classical first-order incremental view maintenance.
//!
//! "Today's VM algorithms consider the impact of single deltas on view
//! queries to produce maintenance queries" (paper, abstract): one level
//! of delta derivation happens at setup time, but the resulting
//! maintenance queries — which still contain joins against the base
//! relations — are evaluated *as queries* through the interpreter on
//! every event. The engine therefore avoids full re-computation (unlike
//! [`crate::NaiveReevalEngine`]) but pays a join against base tables per
//! delta, which is the cost recursive compilation eliminates.

use dbtoaster_calculus::{
    delta, simplify, translate_query, trigger_args, CalcExpr, QueryCalc, Var,
};
use dbtoaster_common::{Catalog, Error, Event, FxHashMap, Result, Tuple, Value};
use dbtoaster_exec::{assemble_from_maps, evaluate_groups, Database, Env};
use dbtoaster_sql::{analyze, parse_query};

use crate::StandingQueryEngine;

struct MaintenanceQuery {
    map: String,
    keys: Vec<Var>,
    args: Vec<Var>,
    delta_expr: CalcExpr,
}

/// First-order IVM: materialize only the result maps; evaluate
/// first-order delta queries against base tables for every event.
pub struct FirstOrderIvmEngine {
    query: QueryCalc,
    db: Database,
    /// relation -> maintenance queries to run, for inserts and deletes
    /// alike (the delta's weight argument is bound to the event's sign).
    maintenance: FxHashMap<String, Vec<MaintenanceQuery>>,
    /// Materialized result maps.
    maps: FxHashMap<String, FxHashMap<Tuple, Value>>,
}

impl FirstOrderIvmEngine {
    pub fn new(sql: &str, catalog: &Catalog) -> Result<FirstOrderIvmEngine> {
        let bound = analyze(&parse_query(sql)?, catalog)?;
        let query = translate_query(&bound, "Q")?;
        let mut maintenance: FxHashMap<String, Vec<MaintenanceQuery>> = FxHashMap::default();
        let mut maps = FxHashMap::default();

        for spec in &query.maps {
            maps.insert(spec.name.clone(), FxHashMap::default());
            for relation in spec.definition.relations() {
                let schema = catalog.expect(&relation)?;
                let columns: Vec<String> = schema.columns.iter().map(|c| c.name.clone()).collect();
                let args = trigger_args(&relation, &columns);
                let d = delta(&spec.definition, &relation, &args);
                if d.is_zero() {
                    continue;
                }
                let mut protected: std::collections::BTreeSet<Var> = args.iter().cloned().collect();
                protected.extend(spec.keys.iter().cloned());
                let simplified = simplify(&d, &protected);
                maintenance
                    .entry(relation.clone())
                    .or_default()
                    .push(MaintenanceQuery {
                        map: spec.name.clone(),
                        keys: spec.keys.clone(),
                        args,
                        delta_expr: simplified,
                    });
            }
        }
        Ok(FirstOrderIvmEngine {
            query,
            db: Database::new(),
            maintenance,
            maps,
        })
    }
}

impl StandingQueryEngine for FirstOrderIvmEngine {
    fn name(&self) -> &'static str {
        "first-order-ivm"
    }

    fn on_event(&mut self, event: &Event) -> Result<()> {
        // Evaluate maintenance queries against the pre-state, then apply
        // the event to the base tables.
        if let Some(queries) = self.maintenance.get(&event.relation) {
            let weight = Value::Int(event.kind.sign());
            for mq in queries {
                // The arguments are the tuple's columns, then the weight.
                if event.tuple.arity() + 1 != mq.args.len() {
                    return Err(Error::Runtime(format!(
                        "event arity mismatch on {}",
                        event.relation
                    )));
                }
                let mut env = Env::default();
                for (arg, value) in mq.args.iter().zip(event.tuple.iter().chain([&weight])) {
                    env.insert(arg.clone(), value.clone());
                }
                let deltas = evaluate_groups(
                    &CalcExpr::agg_sum(mq.keys.clone(), mq.delta_expr.clone()),
                    &mq.keys,
                    &self.db,
                    &env,
                )?;
                let map = self.maps.get_mut(&mq.map).expect("map registered at setup");
                for (key, delta_value) in deltas {
                    let slot = map.entry(key).or_insert(Value::ZERO);
                    *slot = slot.add(&delta_value);
                    if slot.is_zero() {
                        // keep maps tidy like the compiled runtime does
                    }
                }
                map.retain(|_, v| !v.is_zero());
            }
        }
        self.db.apply(event);
        Ok(())
    }

    fn result(&self) -> Vec<(Tuple, Vec<Value>)> {
        let mut rows = assemble_from_maps(&self.query, &self.maps).unwrap_or_default();
        rows.sort();
        rows
    }

    fn memory_bytes(&self) -> usize {
        let maps: usize = self
            .maps
            .values()
            .flat_map(|m| m.iter())
            .map(|(k, v)| k.approx_bytes() + v.approx_bytes())
            .sum();
        self.db.approx_bytes() + maps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtoaster_common::{tuple, ColumnType, Schema};

    #[test]
    fn maintains_a_join_aggregate_without_full_recomputation() {
        let cat = Catalog::new()
            .with(Schema::new(
                "R",
                vec![("A", ColumnType::Int), ("B", ColumnType::Int)],
            ))
            .with(Schema::new(
                "S",
                vec![("B", ColumnType::Int), ("C", ColumnType::Int)],
            ));
        let mut e =
            FirstOrderIvmEngine::new("select sum(A*C) from R, S where R.B = S.B", &cat).unwrap();
        e.on_event(&Event::insert("S", tuple![1i64, 10i64]))
            .unwrap();
        e.on_event(&Event::insert("R", tuple![3i64, 1i64])).unwrap();
        assert_eq!(e.scalar_result(), Value::Int(30));
        e.on_event(&Event::insert("S", tuple![1i64, 5i64])).unwrap();
        assert_eq!(e.scalar_result(), Value::Int(45));
        e.on_event(&Event::delete("R", tuple![3i64, 1i64])).unwrap();
        assert_eq!(e.scalar_result(), Value::Int(0));
    }

    #[test]
    fn handles_self_joins_via_the_second_order_term() {
        let cat = Catalog::new().with(Schema::new("E", vec![("X", ColumnType::Int)]));
        let mut e = FirstOrderIvmEngine::new("select count(*) from E a, E b where a.X = b.X", &cat)
            .unwrap();
        e.on_event(&Event::insert("E", tuple![1i64])).unwrap();
        assert_eq!(e.scalar_result(), Value::Int(1));
        e.on_event(&Event::insert("E", tuple![1i64])).unwrap();
        assert_eq!(e.scalar_result(), Value::Int(4));
        e.on_event(&Event::delete("E", tuple![1i64])).unwrap();
        assert_eq!(e.scalar_result(), Value::Int(1));
    }
}
